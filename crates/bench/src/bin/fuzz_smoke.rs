//! CI fuzz smoke: seeded walker programs, skip-vs-step differential.
//!
//! Generates `XCACHE_FUZZ_SEEDS` walker programs (default 200), runs each
//! on its synthetic workload with idle-cycle fast-forwarding on and off,
//! and demands byte-identical stats JSON; then replays the whole batch
//! through the scenario runner at one and two worker threads and demands
//! the per-seed results agree.
//! Any divergence prints both renderings and exits nonzero.
//!
//! Environment:
//!
//! * `XCACHE_FUZZ_SEEDS` — number of seeds (default 200; 0 exits 2).
//! * `XCACHE_FUZZ_BASE_SEED` — first seed (default 0), for re-running a
//!   failing window locally.

use std::process::ExitCode;

use xcache_bench::fuzz::{run_seed, FuzzReport, DEFAULT_ACCESSES};
use xcache_bench::{jobs_differential, skip_differential};

fn main() -> ExitCode {
    let count = xcache_bench::seed_count("XCACHE_FUZZ_SEEDS", 200);
    let base = xcache_bench::env_u64_or("XCACHE_FUZZ_BASE_SEED", 0);
    let seeds: Vec<u64> = (base..base + count).collect();
    println!(
        "fuzz smoke: {count} seeded walker programs (seeds {base}..{}), {DEFAULT_ACCESSES} accesses each",
        base + count
    );

    let mut failures = 0usize;
    for &seed in &seeds {
        let run = || run_seed(seed, DEFAULT_ACCESSES);
        let checked = skip_differential(&format!("seed {seed}"), run, FuzzReport::stats_json)
            .and_then(|r| {
                r.hang
                    .map_or(Ok(()), |h| Err(format!("seed {seed}: hung: {h}")))
            });
        if let Err(e) = checked {
            eprintln!("FAIL {e}");
            failures += 1;
        }
    }
    println!(
        "skip-vs-step differential: {}/{count} seeds byte-identical",
        count as usize - failures
    );

    match jobs_differential("fuzz seed", &seeds, |seed| {
        run_seed(seed, DEFAULT_ACCESSES).stats_json()
    }) {
        Ok(_) => println!("jobs=1 vs jobs=2 differential: {count}/{count} seeds byte-identical"),
        Err(e) => {
            eprintln!("FAIL {e}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("fuzz smoke: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("fuzz smoke: all differentials agree");
    ExitCode::SUCCESS
}
