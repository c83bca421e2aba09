//! Differential cross-validation smoke: the cycle-level simulator vs the
//! analytical `xcache-oracle` model.
//!
//! Runs `XCACHE_CROSSVAL_SEEDS` fuzz seeds (default 50; 0 exits 2)
//! through both the serially-driven (**Exact**) and pipelined
//! (**Bounded**) classes, plus the paper's Widx and SpGEMM scenario
//! cells, and fails if any cell disagrees beyond its declared tolerance
//! (see `xcache_bench::crossval`). On failure the full per-cell
//! comparison is written to `results/crossval/disagreements.txt` so CI
//! can upload it as an artifact.
//!
//! ```text
//! XCACHE_CROSSVAL_SEEDS=100 cargo run --release --bin crossval_smoke
//! ```

use std::process::ExitCode;

use xcache_bench::crossval::{self, CellReport, Tolerance};
use xcache_bench::fuzz::DEFAULT_ACCESSES;

fn main() -> ExitCode {
    let seeds = xcache_bench::seed_count("XCACHE_CROSSVAL_SEEDS", 50);
    println!("cross-validating {seeds} fuzz seeds (serial + pipelined) + scenario cells\n");

    let reports = crossval::run_suite(seeds, DEFAULT_ACCESSES);

    let mut failed: Vec<&CellReport> = Vec::new();
    let mut exact = 0usize;
    let mut bounded = 0usize;
    for r in &reports {
        match r.tolerance {
            Tolerance::Exact => exact += 1,
            Tolerance::Bounded { .. } => bounded += 1,
        }
        if !r.ok() {
            failed.push(r);
        }
    }

    println!(
        "{} cells ({exact} exact, {bounded} bounded): {} agree, {} disagree",
        reports.len(),
        reports.len() - failed.len(),
        failed.len()
    );

    if failed.is_empty() {
        // A compact digest of the bounded cells so the log shows how much
        // headroom the declared tolerances actually have.
        for r in &reports {
            if let Tolerance::Bounded { .. } = r.tolerance {
                let worst = r
                    .comparisons
                    .iter()
                    .map(|c| c.sim.abs_diff(c.oracle))
                    .max()
                    .unwrap_or(0);
                if !r.name.starts_with("fuzz-") {
                    println!(
                        "  {:<16} worst |Δ| {} of budget {} over {} loads",
                        r.name,
                        worst,
                        r.budget(),
                        r.loads
                    );
                }
            }
        }
        println!("\ncross-validation OK");
        return ExitCode::SUCCESS;
    }

    let mut artifact = String::new();
    for r in &failed {
        let text = r.render();
        eprint!("{text}");
        artifact.push_str(&text);
        artifact.push('\n');
    }
    let dir = std::path::Path::new("results/crossval");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("disagreements.txt");
        if std::fs::write(&path, &artifact).is_ok() {
            eprintln!("(wrote {})", path.display());
        }
    }
    eprintln!(
        "\ncross-validation FAILED: {} cell(s) out of tolerance",
        failed.len()
    );
    ExitCode::FAILURE
}
