//! Smoke tests for the harness binaries: `xpaper`'s static entries (the
//! tables and the synthesis models) run instantly and must print the
//! paper's headline values; `xpaper`'s and `xcheck`'s argument and knob
//! handling; and the registry against the committed `results/`. The
//! simulated entries' numbers are pinned by the path-pinned tests
//! through their library entry points, and their stdout by CI's
//! "Results are current" step.

use std::process::{Command, Output};

use xcache_bench::checks::CHECKS;
use xcache_bench::paper::EXPERIMENTS;
use xcache_bench::registry::Entry;

const XPAPER: &str = env!("CARGO_BIN_EXE_xpaper");
const XCHECK: &str = env!("CARGO_BIN_EXE_xcheck");

/// Runs `xcheck` on `args` with `env` set.
fn xcheck(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(XCHECK)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("xcheck runs")
}

/// Runs `xpaper` on `args` with `env` set.
fn xpaper(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(XPAPER)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("xpaper runs")
}

/// The stdout of `xpaper <name>`, which must succeed.
fn run(name: &str) -> String {
    let out = xpaper(&[name], &[]);
    assert!(
        out.status.success(),
        "xpaper {name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn tab01_prints_the_taxonomy() {
    let out = run("tab01_taxonomy");
    assert!(out.contains("Programmable"));
    assert!(out.contains("Scratch+DMA"));
    assert!(out.contains("Meta-to-Addr"));
}

#[test]
fn tab02_prints_all_five_dsas() {
    let out = run("tab02_features");
    for dsa in ["Widx", "DASX", "GraphPulse", "SpArch", "Gamma"] {
        assert!(out.contains(dsa), "missing {dsa}");
    }
}

#[test]
fn tab03_prints_table3_geometries() {
    let out = run("tab03_geometry");
    assert!(out.contains("131072"), "GraphPulse sets");
    assert!(out.contains("1024"), "Widx sets");
}

#[test]
fn tab04_prints_table4_constants() {
    let out = run("tab04_energy_params");
    assert!(out.contains("44.8"));
    assert!(out.contains("2.7"));
    assert!(out.contains("12.6"));
}

#[test]
fn fig19_reproduces_the_reference_breakdown() {
    let out = run("fig19_fpga_synthesis");
    assert!(out.contains("X-Reg"));
    assert!(out.contains("Action Exec."));
    assert!(out.contains("3457"), "total registers");
    assert!(out.contains("6985"), "total logic");
}

#[test]
fn fig20_reproduces_the_reference_layout() {
    let out = run("fig20_asic_area");
    assert!(out.contains("0.110"), "controller mm^2");
    assert!(out.contains("65000"), "cells");
}

/// Asserts `out` is a knob rejection: exit 2 with the structured error
/// for `var=value` on stderr, and nothing on stdout.
fn assert_rejects(out: &Output, var: &str, value: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{var}={value}: stderr: {stderr}"
    );
    assert!(
        stderr.contains(&format!("invalid {var}=\"{value}\"")),
        "stderr: {stderr}"
    );
    assert!(
        stdout.is_empty(),
        "{var}={value}: output before the knob was rejected:\n{stdout}"
    );
}

/// Asserts `xcheck <check>` rejects `XCACHE_SEEDS=0`: a sweep over no
/// seeds would check nothing and pass.
fn assert_rejects_zero_seeds(check: &str) {
    assert_rejects(
        &xcheck(&[check], &[("XCACHE_SEEDS", "0")]),
        "XCACHE_SEEDS",
        "0",
    );
}

#[test]
fn fuzz_smoke_rejects_zero_seeds() {
    assert_rejects_zero_seeds("fuzz_smoke");
}

#[test]
fn chaos_smoke_rejects_zero_seeds() {
    assert_rejects_zero_seeds("chaos_smoke");
}

#[test]
fn crossval_smoke_rejects_zero_seeds() {
    assert_rejects_zero_seeds("crossval_smoke");
}

#[test]
fn shards_out_of_range_exit_2_before_any_output() {
    for shards in ["0", "65"] {
        let out = xcheck(&["shard_smoke"], &[("XCACHE_SHARDS", shards)]);
        assert_rejects(&out, "XCACHE_SHARDS", shards);
    }
}

#[test]
fn json_is_a_flag() {
    let dir = std::env::temp_dir().join(format!("xpaper-json-flag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |value| {
        Command::new(XPAPER)
            .arg("tab01_taxonomy")
            .env("XCACHE_JSON", value)
            .current_dir(&dir)
            .output()
            .expect("xpaper runs")
    };
    let off = run("0");
    let wrote = dir.join("results").exists();
    let bad = run("yes");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        off.status.success(),
        "{}",
        String::from_utf8_lossy(&off.stderr)
    );
    assert!(!wrote, "XCACHE_JSON=0 wrote results/");
    assert_rejects(&bad, "XCACHE_JSON", "yes");
}

#[test]
fn jobs_zero_exits_2_before_any_row() {
    let out = xpaper(&["tab03_geometry"], &[("XCACHE_JOBS", "0")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("invalid XCACHE_JOBS=\"0\""),
        "stderr: {stderr}"
    );
    // Every table row names its DSA.
    for dsa in ["Widx", "DASX", "SpArch", "Gamma", "GraphPulse"] {
        assert!(
            !stdout.contains(dsa),
            "a row printed before the knob was rejected:\n{stdout}"
        );
    }
}

/// Runs `abl03_insertm` (a runner-driven entry, kept quick by a large
/// scale divisor) with `var` set to `value`.
fn abl03_with(var: &str, value: &str) -> Output {
    xpaper(
        &["abl03_insertm"],
        &[("XCACHE_SCALE", "1000"), (var, value)],
    )
}

#[test]
fn verbose_zero_prints_no_progress() {
    let out = abl03_with("XCACHE_VERBOSE", "0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(!stderr.contains("[runner]"), "stderr: {stderr}");
}

#[test]
fn verbose_one_prints_progress() {
    let out = abl03_with("XCACHE_VERBOSE", "1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("[runner] 1/"), "stderr: {stderr}");
}

#[test]
fn verbose_rejects_an_unknown_value() {
    let out = abl03_with("XCACHE_VERBOSE", "yes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("XCACHE_VERBOSE"), "stderr: {stderr}");
}

/// Asserts `out` is a usage failure: exit 2, nothing on stdout, and every
/// name of `registry` listed on stderr.
fn assert_usage(out: &Output, registry: &[Entry]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty());
    for e in registry {
        assert!(
            stderr.lines().any(|l| l.trim() == e.name),
            "{} not listed:\n{stderr}",
            e.name
        );
    }
}

#[test]
fn no_argument_exits_2_and_lists_the_names() {
    assert_usage(&xpaper(&[], &[]), &EXPERIMENTS);
}

#[test]
fn unknown_name_exits_2_and_lists_the_names() {
    // An unknown name fails the whole run before a known one runs.
    let out = xpaper(&["tab01_taxonomy", "fig99_bogus"], &[]);
    assert_usage(&out, &EXPERIMENTS);
    assert!(String::from_utf8_lossy(&out.stderr).contains("fig99_bogus"));
}

#[test]
fn xcheck_without_a_known_name_exits_2_and_lists_every_check() {
    assert_usage(&xcheck(&[], &[]), &CHECKS);
    let out = xcheck(&["bench_oracle", "bogus_smoke"], &[]);
    assert_usage(&out, &CHECKS);
    assert!(String::from_utf8_lossy(&out.stderr).contains("bogus_smoke"));
}

#[test]
fn registry_names_are_unique_and_recorded() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        assert!(
            EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
            "duplicate name {}",
            e.name
        );
        let txt = format!("{results}/{}.txt", e.name);
        assert!(std::path::Path::new(&txt).is_file(), "missing {txt}");
    }
}

#[test]
fn unwritable_dump_fails_the_run_and_names_the_file() {
    // Two cwds where the dump cannot land: `results` is a regular file
    // (the directory cannot be created), or the dump's own path is a
    // directory (the write fails).
    for what in ["file", "dir"] {
        let dir = std::env::temp_dir().join(format!("xpaper-dump-{what}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        if what == "file" {
            std::fs::write(dir.join("results"), "").unwrap();
        } else {
            std::fs::create_dir_all(dir.join("results/tab01_taxonomy.json")).unwrap();
        }
        let out = Command::new(XPAPER)
            .arg("tab01_taxonomy")
            .env("XCACHE_JSON", "1")
            .current_dir(&dir)
            .output()
            .expect("xpaper runs");
        let _ = std::fs::remove_dir_all(&dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{what}: stderr: {stderr}");
        assert!(
            stderr.contains("results/tab01_taxonomy.json"),
            "{what}: stderr: {stderr}"
        );
    }
}
