//! Smoke tests for the harness binaries that run instantly (the static
//! tables and the synthesis model): they must execute and print the
//! paper's headline values. The measurement harnesses are exercised at
//! scale by `tests/integration_dsas.rs` through their library entry
//! points; run the binaries themselves via `results/` capture.

use std::process::Command;

fn run(bin: &str) -> String {
    let out = Command::new(bin).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn tab01_prints_the_taxonomy() {
    let out = run(env!("CARGO_BIN_EXE_tab01_taxonomy"));
    assert!(out.contains("Programmable"));
    assert!(out.contains("Scratch+DMA"));
    assert!(out.contains("Meta-to-Addr"));
}

#[test]
fn tab02_prints_all_five_dsas() {
    let out = run(env!("CARGO_BIN_EXE_tab02_features"));
    for dsa in ["Widx", "DASX", "GraphPulse", "SpArch", "Gamma"] {
        assert!(out.contains(dsa), "missing {dsa}");
    }
}

#[test]
fn tab03_prints_table3_geometries() {
    let out = run(env!("CARGO_BIN_EXE_tab03_geometry"));
    assert!(out.contains("131072"), "GraphPulse sets");
    assert!(out.contains("1024"), "Widx sets");
}

#[test]
fn tab04_prints_table4_constants() {
    let out = run(env!("CARGO_BIN_EXE_tab04_energy_params"));
    assert!(out.contains("44.8"));
    assert!(out.contains("2.7"));
    assert!(out.contains("12.6"));
}

#[test]
fn fig19_reproduces_the_reference_breakdown() {
    let out = run(env!("CARGO_BIN_EXE_fig19_fpga_synthesis"));
    assert!(out.contains("X-Reg"));
    assert!(out.contains("Action Exec."));
    assert!(out.contains("3457"), "total registers");
    assert!(out.contains("6985"), "total logic");
}

#[test]
fn fig20_reproduces_the_reference_layout() {
    let out = run(env!("CARGO_BIN_EXE_fig20_asic_area"));
    assert!(out.contains("0.110"), "controller mm^2");
    assert!(out.contains("65000"), "cells");
}

/// Runs a smoke binary with its seed count set to zero and asserts it
/// exits 2 with the structured error before running any seed.
fn assert_rejects_zero_seeds(bin: &str, var: &str) {
    let out = Command::new(bin)
        .env(var, "0")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("invalid {var}=\"0\"")),
        "stderr: {stderr}"
    );
    assert!(
        stdout.is_empty(),
        "a seed ran before the count was rejected:\n{stdout}"
    );
}

#[test]
fn fuzz_smoke_rejects_zero_seeds() {
    assert_rejects_zero_seeds(env!("CARGO_BIN_EXE_fuzz_smoke"), "XCACHE_FUZZ_SEEDS");
}

#[test]
fn chaos_smoke_rejects_zero_seeds() {
    assert_rejects_zero_seeds(env!("CARGO_BIN_EXE_chaos_smoke"), "XCACHE_CHAOS_SEEDS");
}

#[test]
fn crossval_smoke_rejects_zero_seeds() {
    assert_rejects_zero_seeds(
        env!("CARGO_BIN_EXE_crossval_smoke"),
        "XCACHE_CROSSVAL_SEEDS",
    );
}

/// Runs `tab03_geometry` (a quick runner-driven binary) with `var` set
/// to `value`.
fn tab03_with(var: &str, value: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tab03_geometry"))
        .env(var, value)
        .output()
        .expect("binary runs")
}

#[test]
fn jobs_zero_exits_2_before_any_row() {
    let out = tab03_with("XCACHE_JOBS", "0");
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

#[test]
fn verbose_zero_prints_no_progress() {
    let out = tab03_with("XCACHE_VERBOSE", "0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(!stderr.contains("[runner]"), "stderr: {stderr}");
}

#[test]
fn verbose_one_prints_progress() {
    let out = tab03_with("XCACHE_VERBOSE", "1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("[runner] 1/"), "stderr: {stderr}");
}

#[test]
fn verbose_rejects_an_unknown_value() {
    let out = tab03_with("XCACHE_VERBOSE", "yes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("XCACHE_VERBOSE"), "stderr: {stderr}");
}
