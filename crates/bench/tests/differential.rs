//! Differential tests for idle-cycle fast-forwarding: every observable of
//! a run — end cycle, result checksum, all counters, and the
//! histogram-derived statistics — must be byte-identical with skipping on
//! and off. The scenarios mirror the Figure 4 (load-to-use) and Figure 7
//! (occupancy sweep) harness cells at reduced scale.
//!
//! `with_skip` is thread-local, so every scenario closure runs directly on
//! the test thread — never through the multi-threaded `Runner`.

use xcache_bench::{run_report_json, skip_differential, widx_geometry, widx_workload};
use xcache_core::{WalkerDiscipline, XCacheConfig};
use xcache_dsa::{graphpulse, spgemm, widx, RunReport};
use xcache_workloads::QueryClass;

/// Runs `f` once with fast-forwarding and once without, and asserts the
/// reports render identically: end cycle, checksum, label and every
/// counter.
fn assert_skip_invariant(label: &str, f: impl Fn() -> RunReport) {
    skip_differential(label, f, run_report_json).unwrap_or_else(|e| panic!("{e}"));
}

/// A Figure 4-sized Widx workload small enough for a test.
fn small_widx(class: QueryClass) -> widx::WidxWorkload {
    let mut preset = class.preset().scaled_down(400);
    preset.probes = 400;
    widx::WidxWorkload::from_preset(&preset, 7)
}

#[test]
fn fig04_widx_xcache_skip_invariant() {
    for class in QueryClass::all() {
        let w = small_widx(class);
        let g = widx_geometry(40);
        assert_skip_invariant(class.name(), || widx::run_xcache(&w, Some(g.clone())));
    }
}

#[test]
fn fig04_widx_address_cache_skip_invariant() {
    let w = small_widx(QueryClass::Q19);
    let g = widx_geometry(40);
    assert_skip_invariant("Q19 addr", || widx::run_address_cache(&w, Some(g.clone())));
}

#[test]
fn fig04_spgemm_skip_invariant() {
    let a = xcache_workloads::CsrMatrix::generate(
        96,
        96,
        700,
        xcache_workloads::SparsePattern::RMat,
        11,
    );
    let w = spgemm::SpgemmWorkload {
        b: a.clone(),
        a,
        algorithm: spgemm::Algorithm::Gustavson,
    };
    let g = XCacheConfig {
        sets: 32,
        ways: 4,
        active: 8,
        exe: 4,
        data_sectors: 512,
        ..XCacheConfig::sparch()
    };
    assert_skip_invariant("Gamma rows", || spgemm::run_xcache(&w, Some(g.clone())));
    assert_skip_invariant("Gamma rows addr", || {
        spgemm::run_address_cache(&w, Some(g.clone()))
    });
}

#[test]
fn fig07_occupancy_sweep_skip_invariant() {
    let w = widx_workload(QueryClass::Q22, 400, 7);
    let keys = w.index.len();
    // The sweep's extremes: mostly-resident and mostly-off-chip.
    for offchip_pct in [20u32, 95] {
        let resident = (keys as u64 * u64::from(100 - offchip_pct) / 100).max(16);
        let sets = 128usize;
        let ways = (resident as usize / sets).max(1);
        for discipline in [
            WalkerDiscipline::Coroutine,
            WalkerDiscipline::BlockingThread,
        ] {
            let g = XCacheConfig {
                sets,
                ways,
                data_sectors: (sets * ways).max(64),
                discipline,
                ..XCacheConfig::widx()
            };
            let label = format!("{offchip_pct}% {discipline:?}");
            assert_skip_invariant(&label, || widx::run_xcache(&w, Some(g.clone())));
        }
    }
}

#[test]
fn graphpulse_skip_invariant() {
    let w = graphpulse::GraphPulseWorkload {
        graph: xcache_workloads::Graph::from_adjacency(xcache_workloads::CsrMatrix::generate(
            128,
            128,
            512,
            xcache_workloads::SparsePattern::RMat,
            5,
        )),
        iterations: 2,
    };
    let sets = 256usize;
    let g = XCacheConfig {
        sets,
        ways: 1,
        data_sectors: sets,
        ..XCacheConfig::graphpulse()
    };
    assert_skip_invariant("GraphPulse", || graphpulse::run_xcache(&w, Some(g.clone())));
    assert_skip_invariant("GraphPulse addr", || {
        graphpulse::run_address_cache(&w, Some(g.clone()))
    });
}
