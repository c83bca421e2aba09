//! Pins the renderings of the generated-program runs: the pipelined fuzz
//! run, the same run under the chaos fault plan, and crossval's serial
//! cell.
//!
//! The skip and jobs differentials only show that a run renders the same
//! bytes in every mode; nothing else fixes what it renders. Each entry
//! asserts one seed's rendering starts with `head` (the seed, end cycle
//! and checksum for the runs, the cell header for crossval) and hashes to
//! a digest of the whole rendering, every counter included. Seeds 0 and 5
//! generate a store handler; seed 1's chaos run needs no watchdog
//! recovery, while seeds 0, 5 and 8 carry one, four and five stall
//! reports. On a mismatch the assertion prints every actual rendering
//! that moved.

use xcache_bench::{chaos, crossval, fuzz};

/// FNV-1a over the rendering's bytes.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Renders each pinned seed with `render` and checks it starts with its
/// `head` and hashes to its digest.
fn assert_pinned(what: &str, pins: &[(u64, &str, u64)], render: impl Fn(u64) -> String) {
    let moved: Vec<String> = pins
        .iter()
        .filter_map(|&(seed, head, expected)| {
            let r = render(seed);
            (!r.starts_with(head) || digest(&r) != expected).then(|| {
                format!(
                    "{what} seed {seed} moved (digest {}); actual:\n{r}",
                    digest(&r)
                )
            })
        })
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn fuzz_run_seed() {
    assert_pinned(
        "fuzz",
        &[
            (
                0,
                "{\"seed\":0,\"cycles\":558,\"checksum\":8979035344406811373,",
                2209157894840543511,
            ),
            (
                1,
                "{\"seed\":1,\"cycles\":826,\"checksum\":1742263940526099965,",
                5388897346452913648,
            ),
            (
                5,
                "{\"seed\":5,\"cycles\":1065,\"checksum\":11830371990722482232,",
                13953215039119293236,
            ),
            (
                8,
                "{\"seed\":8,\"cycles\":739,\"checksum\":9860732601579418333,",
                17045705532044600678,
            ),
        ],
        |seed| fuzz::run_seed(seed, fuzz::DEFAULT_ACCESSES).stats_json(),
    );
}

#[test]
fn fuzz_chaos() {
    assert_pinned(
        "chaos",
        &[
            (0, "{\"seed\":0,\"fault_seed\":64001,\"cycles\":10621,\"checksum\":8979035344406811373,\"stalls\":[\"", 5049730968258538320),
            (1, "{\"seed\":1,\"fault_seed\":64001,\"cycles\":992,\"checksum\":1742263940526099965,\"stalls\":[],", 17522094197227044898),
            (5, "{\"seed\":5,\"fault_seed\":64001,\"cycles\":12365,\"checksum\":11830371973542613048,\"stalls\":[\"", 10888457053890968225),
            (8, "{\"seed\":8,\"fault_seed\":64001,\"cycles\":20723,\"checksum\":9860591864091063005,\"stalls\":[\"", 13075816535163445577),
        ],
        |seed| chaos::run_fuzz_chaos(seed, 0xFA01, fuzz::DEFAULT_ACCESSES).stats_json(),
    );
}

#[test]
fn crossval_fuzz_serial() {
    assert_pinned(
        "crossval",
        &[
            (
                0,
                "cell fuzz-serial seed 0 (Exact, 66 loads, budget 0):\n",
                13091585244782378383,
            ),
            (
                1,
                "cell fuzz-serial seed 1 (Exact, 96 loads, budget 0):\n",
                6873837777061233113,
            ),
            (
                5,
                "cell fuzz-serial seed 5 (Exact, 71 loads, budget 0):\n",
                18294749242939518926,
            ),
            (
                8,
                "cell fuzz-serial seed 8 (Exact, 96 loads, budget 0):\n",
                14491474569261139236,
            ),
        ],
        |seed| crossval::fuzz_serial_cell(seed, fuzz::DEFAULT_ACCESSES).render(),
    );
}
