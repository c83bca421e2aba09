//! Pins the rendering of every DSA chaos cell at a small scale, and of
//! the generated-program runs: the pipelined fuzz run, the same run under
//! the chaos fault plan, and crossval's serial cell.
//!
//! The skip, jobs and parallel-mode differentials only show that a cell
//! or run renders the same bytes in every mode; nothing else fixes what
//! it renders. Each test stores its full rendering (cycles, checksum,
//! violations or stall reports, and every counter), one rendering per
//! line or cell, under `tests/snapshots/chaos_pinned/`, so a change to a
//! drive loop or to the chaos harness that moves any number fails here.

#[path = "../../../tests/support/snapshot.rs"]
mod snapshot;

use xcache_bench::chaos::{self, run_dsa_chaos_cell, ChaosCell};
use xcache_bench::{crossval, fuzz};

/// The generated-program seeds pinned. Seeds 0 and 5 generate a store
/// handler; seed 1's chaos run needs no watchdog recovery, while seeds 0,
/// 5 and 8 carry one, four and five stall reports.
const SEEDS: [u64; 4] = [0, 1, 5, 8];

/// Checks `renderings`, each ending a line, against snapshot `name`.
fn check(name: &str, renderings: impl IntoIterator<Item = String>) {
    let mut out = String::new();
    for r in renderings {
        out.push_str(&r);
        if !r.ends_with('\n') {
            out.push('\n');
        }
    }
    snapshot::check(name, &out);
}

/// Checks `cell` run at scale 64, seed 1, fault seed 2.
fn check_cell(name: &str, cell: ChaosCell) {
    check(name, [run_dsa_chaos_cell(cell, 64, 1, 2)]);
}

#[test]
fn widx_fig04() {
    check_cell("widx_fig04", ChaosCell::WidxFig04);
}

#[test]
fn widx_blocking_thread() {
    check_cell("widx_blocking_thread", ChaosCell::WidxBlockingThread);
}

#[test]
fn graphpulse() {
    check_cell("graphpulse", ChaosCell::GraphPulse);
}

#[test]
fn widx_sharded() {
    check_cell("widx_sharded", ChaosCell::WidxSharded);
}

#[test]
fn spgemm_sharded() {
    check_cell("spgemm_sharded", ChaosCell::SpgemmSharded);
}

#[test]
fn graphpulse_sharded() {
    check_cell("graphpulse_sharded", ChaosCell::GraphPulseSharded);
}

#[test]
fn fuzz_run_seed() {
    let runs = SEEDS.map(|seed| fuzz::run_seed(seed, fuzz::DEFAULT_ACCESSES).stats_json());
    check("fuzz_run_seed", runs);
}

#[test]
fn fuzz_chaos() {
    let runs =
        SEEDS.map(|seed| chaos::run_fuzz_chaos(seed, 0xFA01, fuzz::DEFAULT_ACCESSES).stats_json());
    check("fuzz_chaos", runs);
}

#[test]
fn crossval_fuzz_serial() {
    let cells = SEEDS.map(|seed| crossval::fuzz_serial_cell(seed, fuzz::DEFAULT_ACCESSES).render());
    check("crossval_fuzz_serial", cells);
}
