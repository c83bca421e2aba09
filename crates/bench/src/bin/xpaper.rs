//! Runs the paper's tables, figures and ablations by name.
//!
//! ```text
//! xpaper <name>...    # e.g. xpaper fig14_speedup fig15_power_total
//! xpaper all          # every experiment, in registry order
//! ```
//!
//! With no argument, or an unknown name, it exits 2 and lists every
//! name. Every knob is read once, before any experiment prints (a
//! malformed value exits 2). A requested JSON dump that cannot be
//! written exits 1 and names the file.

use std::process::ExitCode;

fn main() -> ExitCode {
    xcache_bench::paper::XPAPER.main()
}
