//! Runs the paper's tables, figures and ablations by name.
//!
//! ```text
//! xpaper <name>...    # e.g. xpaper fig14_speedup fig15_power_total
//! xpaper all          # every experiment, in registry order
//! ```
//!
//! With no argument, or an unknown name, it exits 2 and lists every
//! name. Knobs: `XCACHE_SCALE`, `XCACHE_JOBS`, `XCACHE_VERBOSE` and
//! `XCACHE_JSON`, read once before any experiment prints (a malformed
//! value exits 2). A requested JSON dump that cannot be written exits 1
//! and names the file.

use std::process::ExitCode;

use xcache_bench::{paper, Knobs};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = match paper::select(&args) {
        Ok(experiments) => experiments,
        Err(usage) => {
            eprint!("{usage}");
            return ExitCode::from(2);
        }
    };
    let knobs = Knobs::from_env();
    for (i, e) in experiments.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(err) = e.run(&knobs) {
            eprintln!("error: {}: {err}", e.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
