//! Pins the rendering of every DSA chaos cell at a small scale.
//!
//! The chaos differentials only show that a cell renders the same bytes
//! with skipping on and off, at one and two jobs and across parallel
//! modes; nothing else fixes what it renders. Each test asserts the
//! cell's exact cycles, checksum and violations and a digest of its full
//! rendering (every counter included), so a change to a drive loop or to
//! the chaos harness that moves any number fails here. On a mismatch the
//! assertion prints the actual rendering.

use xcache_bench::chaos::{run_dsa_chaos_cell, ChaosCell};

/// FNV-1a over the rendering's bytes.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `cell` at scale 64, seed 1, fault seed 2 and checks its rendering
/// starts with `head` and hashes to `expected`.
fn assert_pinned(cell: ChaosCell, head: &str, expected: u64) {
    let r = run_dsa_chaos_cell(cell, 64, 1, 2);
    assert!(
        r.starts_with(head) && digest(&r) == expected,
        "{} moved (digest {}); actual:\n{r}",
        cell.name(),
        digest(&r)
    );
}

#[test]
fn widx_fig04() {
    assert_pinned(
        ChaosCell::WidxFig04,
        "{\"cell\":\"widx-fig04\",\"cycles\":11350,\"checksum\":111429,\"violations\":[]",
        14925704610142067853,
    );
}

#[test]
fn widx_blocking_thread() {
    assert_pinned(
        ChaosCell::WidxBlockingThread,
        "{\"cell\":\"widx-blocking-thread\",\"cycles\":23246,\"checksum\":111429,\"violations\":[]",
        15787061187084360832,
    );
}

#[test]
fn graphpulse() {
    assert_pinned(
        ChaosCell::GraphPulse,
        "{\"cell\":\"graphpulse\",\"cycles\":1284,\"checksum\":2728304821,\"violations\":[]",
        10572019700587106068,
    );
}

#[test]
fn widx_sharded() {
    assert_pinned(
        ChaosCell::WidxSharded,
        "{\"cell\":\"widx-sharded\",\"cycles\":3739,\"checksum\":111429,\"violations\":[]",
        5346965187162124079,
    );
}

#[test]
fn spgemm_sharded() {
    assert_pinned(ChaosCell::SpgemmSharded, "{\"cell\":\"spgemm-sharded\",\"cycles\":9701,\"checksum\":9750756933855992425,\"violations\":[]", 13635798348769757213);
}

#[test]
fn graphpulse_sharded() {
    assert_pinned(ChaosCell::GraphPulseSharded, "{\"cell\":\"graphpulse-sharded\",\"cycles\":1348,\"checksum\":2728304821,\"violations\":[]", 16942493928578871131);
}
