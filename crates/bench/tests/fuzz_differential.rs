//! Differential tests over generated walker programs: the debug-build
//! slice of what the `fuzz_smoke` binary runs at 200 seeds in CI.
//!
//! `with_skip` is thread-local, so the skip differential runs directly on
//! the test thread; the jobs differential goes through the `Runner` at
//! both worker counts (its cells never touch `with_skip`).

use xcache_bench::fuzz::{jobs_differential, run_seed, skip_differential};

/// Seeds per in-tree test run — small enough for a debug build, spread
/// over a couple of windows so both generator shapes (hashed, store
/// handler) appear.
const SEEDS: std::ops::Range<u64> = 0..20;

#[test]
fn skip_and_step_runs_are_byte_identical() {
    for seed in SEEDS {
        skip_differential(seed, 48).unwrap();
    }
}

#[test]
fn one_and_two_job_batches_are_byte_identical() {
    let seeds: Vec<u64> = SEEDS.collect();
    let jsons = jobs_differential(&seeds, 48).unwrap();
    assert_eq!(jsons.len(), seeds.len());
    // Each run did real work: every report carries controller counters.
    for (seed, json) in seeds.iter().zip(&jsons) {
        assert!(
            json.contains("xcache."),
            "seed {seed}: no controller counters in {json}"
        );
    }
}

#[test]
fn generated_runs_touch_the_hit_and_miss_paths() {
    // Across a window of seeds, the synthetic key stream (small universe,
    // repeated keys) must exercise both outcomes — otherwise the
    // differential is only covering the miss pipeline.
    let (mut hits, mut misses) = (0u64, 0u64);
    for seed in SEEDS {
        let r = run_seed(seed, 48);
        hits += r.stats.get("xcache.hit");
        misses += r.stats.get("xcache.miss");
    }
    assert!(hits > 0, "no meta-tag hits across the seed window");
    assert!(misses > 0, "no walker launches across the seed window");
}
