//! Runs the CI checks by name: `fuzz_smoke`, `chaos_smoke`,
//! `crossval_smoke`, `shard_smoke` and `bench_oracle`.
//!
//! ```text
//! xcheck <name>...    # e.g. XCACHE_SEEDS=50 xcheck chaos_smoke
//! xcheck all          # every check, in registry order
//! ```
//!
//! With no argument, or an unknown name, it exits 2 and lists every
//! name. Every knob is read once, before any check prints (a malformed
//! value exits 2). A check that fails, or whose requested dump or
//! failure artifact cannot be written, exits 1.

use std::process::ExitCode;

fn main() -> ExitCode {
    xcache_bench::checks::XCHECK.main()
}
