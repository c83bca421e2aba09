//! Differential tests for the sharded topology: a sharded run must be
//! byte-identical across `XCACHE_PAR` execution modes, worker-thread
//! counts, and `Runner` job counts, and must keep the skip/no-skip
//! invariant end to end. The routing proptest pins [`owner_of`] down as
//! a partition of the key space, and a geometry proptest checks that
//! per-shard configs stay well-formed.
//!
//! `with_par_mode`/`with_par_threads`/`with_skip` are thread-local, so
//! cells that need an override set it *inside* the scenario closure —
//! the `Runner`'s worker threads inherit nothing from the test thread.

use proptest::prelude::*;
use xcache_bench::{jobs_differential, run_report_json, skip_differential, widx_geometry};
use xcache_core::{owner_of, shard_geometry, MetaKey, XCacheConfig};
use xcache_dsa::{graphpulse, spgemm, widx, RunReport};
use xcache_sim::{with_par_mode, with_par_threads, ParMode};
use xcache_workloads::QueryClass;

fn small_widx() -> widx::WidxWorkload {
    let mut preset = QueryClass::Q19.preset().scaled_down(400);
    preset.probes = 400;
    widx::WidxWorkload::from_preset(&preset, 7)
}

fn small_spgemm() -> spgemm::SpgemmWorkload {
    let a = xcache_workloads::CsrMatrix::generate(
        64,
        64,
        420,
        xcache_workloads::SparsePattern::RMat,
        11,
    );
    spgemm::SpgemmWorkload {
        b: a.clone(),
        a,
        algorithm: spgemm::Algorithm::Gustavson,
    }
}

fn spgemm_geometry() -> XCacheConfig {
    XCacheConfig {
        sets: 32,
        ways: 4,
        active: 8,
        exe: 4,
        data_sectors: 512,
        ..XCacheConfig::sparch()
    }
}

fn small_graphpulse() -> graphpulse::GraphPulseWorkload {
    graphpulse::GraphPulseWorkload {
        graph: xcache_workloads::Graph::from_adjacency(xcache_workloads::CsrMatrix::generate(
            96,
            96,
            400,
            xcache_workloads::SparsePattern::RMat,
            5,
        )),
        iterations: 2,
    }
}

/// The tentpole determinism contract: one sharded simulation, every
/// execution strategy — sequential reference, parallel with 2 and 4
/// workers, and each of those inside a 1-job and a 2-job `Runner` grid —
/// produces the same bytes.
#[test]
fn sharded_run_identical_across_par_modes_and_runner_jobs() {
    let w = small_widx();
    let g = widx_geometry(40);
    let reference = run_report_json(&with_par_mode(ParMode::Seq, || {
        widx::run_xcache_sharded(&w, Some(g.clone()), 4)
    }));

    let modes = [(ParMode::Seq, 1usize), (ParMode::Par, 2), (ParMode::Par, 4)];
    let rendered = jobs_differential("widx sharded", &modes, |(mode, threads)| {
        run_report_json(&with_par_mode(mode, || {
            with_par_threads(threads, || widx::run_xcache_sharded(&w, Some(g.clone()), 4))
        }))
    })
    .unwrap_or_else(|e| panic!("{e}"));
    for (report, (mode, threads)) in rendered.iter().zip(modes) {
        assert_eq!(
            report, &reference,
            "widx sharded cell {mode:?} x{threads} diverged from the sequential reference"
        );
    }
}

/// Sequential/parallel identity for the other two accelerators, at a
/// shard count that does not divide the workload evenly.
#[test]
fn sharded_spgemm_and_graphpulse_agree_across_modes() {
    let w = small_spgemm();
    let g = spgemm_geometry();
    let seq = run_report_json(&with_par_mode(ParMode::Seq, || {
        spgemm::run_xcache_sharded(&w, Some(g.clone()), 3)
    }));
    let par = run_report_json(&with_par_mode(ParMode::Par, || {
        with_par_threads(2, || spgemm::run_xcache_sharded(&w, Some(g.clone()), 3))
    }));
    assert_eq!(seq, par, "sharded spgemm diverged between seq and par");

    let w = small_graphpulse();
    let sets = 128usize;
    let g = XCacheConfig {
        sets,
        ways: 1,
        data_sectors: sets,
        ..XCacheConfig::graphpulse()
    };
    let seq = run_report_json(&with_par_mode(ParMode::Seq, || {
        graphpulse::run_xcache_sharded(&w, Some(g.clone()), 3)
    }));
    let par = run_report_json(&with_par_mode(ParMode::Par, || {
        with_par_threads(4, || graphpulse::run_xcache_sharded(&w, Some(g.clone()), 3))
    }));
    assert_eq!(seq, par, "sharded graphpulse diverged between seq and par");
}

/// Idle-cycle fast-forwarding stays an invariant under sharding: the
/// horizon-synchronized runs agree on every observable with skipping on
/// and off, for all three accelerators.
#[test]
fn sharded_skip_invariant() {
    let widx_w = small_widx();
    let widx_g = widx_geometry(40);
    let spgemm_w = small_spgemm();
    let spgemm_g = spgemm_geometry();
    let gp_w = small_graphpulse();
    let gp_g = XCacheConfig {
        sets: 128,
        ways: 1,
        data_sectors: 128,
        ..XCacheConfig::graphpulse()
    };
    type NamedRun<'a> = (&'a str, Box<dyn Fn() -> RunReport + 'a>);
    let runs: Vec<NamedRun<'_>> = vec![
        (
            "widx",
            Box::new(|| widx::run_xcache_sharded(&widx_w, Some(widx_g.clone()), 4)),
        ),
        (
            "spgemm",
            Box::new(|| spgemm::run_xcache_sharded(&spgemm_w, Some(spgemm_g.clone()), 4)),
        ),
        (
            "graphpulse",
            Box::new(|| graphpulse::run_xcache_sharded(&gp_w, Some(gp_g.clone()), 4)),
        ),
    ];
    for (label, run) in &runs {
        skip_differential(label, run, run_report_json).unwrap_or_else(|e| panic!("{e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `owner_of` is a partition of the key space: every key has exactly
    /// one owner, the owner is in range, the mapping is deterministic,
    /// and one shard degenerates to the identity routing.
    #[test]
    fn owner_of_partitions_the_key_space(raw in any::<u64>(), shards in 1usize..9) {
        let owner = owner_of(MetaKey::new(raw), shards);
        prop_assert!(owner < shards, "owner {owner} out of range for {shards} shards");
        prop_assert_eq!(owner, owner_of(MetaKey::new(raw), shards), "routing is not deterministic");
        if shards == 1 {
            prop_assert_eq!(owner, 0);
        }
    }

    /// Per-shard geometries stay well-formed: power-of-two set count, at
    /// least one set, and enough data sectors to back every meta entry.
    #[test]
    fn shard_geometry_stays_well_formed(shards in 1usize..9) {
        let base = widx_geometry(40);
        let cfg = shard_geometry(&base, shards);
        prop_assert!(cfg.sets >= 1);
        prop_assert!(cfg.sets.is_power_of_two());
        prop_assert!(cfg.data_sectors >= cfg.sets * cfg.ways);
        if shards == 1 {
            prop_assert_eq!(cfg.sets, base.sets);
            prop_assert_eq!(cfg.data_sectors, base.data_sectors);
        }
    }
}

/// The interleaved routing spreads consecutive keys: over a dense key
/// range every shard owns a non-trivial slice, and the per-shard slices
/// are disjoint and cover the range (each key is counted exactly once).
#[test]
fn owner_of_spreads_dense_key_ranges() {
    const KEYS: u64 = 1024;
    for shards in 1usize..=8 {
        let mut buckets = vec![0u64; shards];
        for raw in 0..KEYS {
            buckets[owner_of(MetaKey::new(raw), shards)] += 1;
        }
        assert_eq!(buckets.iter().sum::<u64>(), KEYS);
        let floor = KEYS / (shards as u64 * 4);
        for (s, count) in buckets.iter().enumerate() {
            assert!(
                *count >= floor.max(1),
                "shard {s}/{shards} owns only {count} of {KEYS} dense keys"
            );
        }
    }
}
