//! Smoke tests for the harness binaries: `xpaper`'s static entries (the
//! tables and the synthesis models) run instantly and must print the
//! paper's headline values; every entry runs at the extreme scale
//! divisors, and its dumps' envelopes credit the cycles it simulated;
//! Figures 14–16 share one sweep; `xpaper`'s and `xcheck`'s argument
//! and knob handling; and the registry against the committed
//! `results/`. The simulated entries' numbers are pinned by the
//! path-pinned tests through their library entry points, and their
//! stdout by CI's "Results are current" step.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use xcache_bench::checks::CHECKS;
use xcache_bench::paper::EXPERIMENTS;
use xcache_bench::registry::Entry;
use xcache_sim::json::{self, Value};

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

/// An empty scratch directory for a test's runs, unique to the test
/// process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xpaper-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One JSON dump: the `sim_cycles` its meta envelope reports, and every
/// line but the envelope's.
#[derive(Debug)]
struct Dump {
    sim_cycles: u64,
    body: String,
}

/// Runs `bin` on `args` in `dir` with `XCACHE_JSON=1` and `scale`,
/// after clearing `dir/results`, and returns the run and every dump it
/// wrote, by file name. Every dump must parse as JSON.
fn run_dumping(
    dir: &Path,
    bin: &str,
    args: &[&str],
    scale: &str,
) -> (Output, BTreeMap<String, Dump>) {
    let results = dir.join("results");
    let _ = std::fs::remove_dir_all(&results);
    let out = Command::new(bin)
        .args(args)
        .envs([("XCACHE_SCALE", scale), ("XCACHE_JSON", "1")])
        .current_dir(dir)
        .output()
        .expect("binary runs");
    let mut dumps = BTreeMap::new();
    for file in std::fs::read_dir(&results).into_iter().flatten().flatten() {
        let path = file.path();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc =
            json::parse(&text).unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()));
        let sim_cycles = doc
            .get("meta")
            .and_then(|m| m.get("sim_cycles"))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no meta.sim_cycles in {}", path.display()));
        let body: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with("\"meta\""))
            .collect();
        let name = file.file_name().to_string_lossy().into_owned();
        dumps.insert(
            name,
            Dump {
                sim_cycles,
                body: body.join("\n"),
            },
        );
    }
    (out, dumps)
}

/// The entries that simulate nothing: the tables and the synthesis
/// models.
const STATIC: [&str; 6] = [
    "tab01_taxonomy",
    "tab02_features",
    "tab03_geometry",
    "tab04_energy_params",
    "fig19_fpga_synthesis",
    "fig20_asic_area",
];

/// Every `xpaper` entry and `xcheck shard_smoke` at a scale divisor past
/// every input size, and at the largest one: each input floors at a
/// minimum size instead of emptying, and no scale product overflows.
/// Every dump is JSON, and its envelope credits the cycles its entry
/// simulated: some for an entry that simulates, none for a static one.
#[test]
fn every_entry_runs_at_extreme_scales() {
    let dir = scratch_dir("extreme-scales");
    let runs: Vec<(&str, &str)> = EXPERIMENTS
        .iter()
        .map(|e| (XPAPER, e.name))
        .chain([(XCHECK, "shard_smoke")])
        .collect();
    let mut failed = Vec::new();
    for scale in ["100000", "4294967295"] {
        for &(bin, name) in &runs {
            let what = format!("XCACHE_SCALE={scale} {name}");
            let (out, dumps) = run_dumping(&dir, bin, &[name], scale);
            if !out.status.success() {
                let stderr = String::from_utf8_lossy(&out.stderr);
                failed.push(format!("{what}:\n{stderr}"));
            } else if dumps.is_empty() {
                failed.push(format!("{what}: wrote no dump"));
            }
            for (file, dump) in &dumps {
                if (dump.sim_cycles == 0) != STATIC.contains(&name) {
                    failed.push(format!(
                        "{what}: {file} reports sim_cycles {}",
                        dump.sim_cycles
                    ));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let n = failed.len();
    assert!(n == 0, "{n} runs failed:\n{}", failed.join("\n"));
}

/// Figures 14, 15 and 16 run in one process share one DSA sweep:
/// Figure 14 runs it, so Figures 15 and 16 credit no simulated cycles,
/// and each dumps exactly what it dumps when run alone (where it runs
/// the sweep itself).
#[test]
fn figures_14_to_16_share_one_sweep() {
    const FIGS: [&str; 3] = [
        "fig14_speedup",
        "fig15_power_total",
        "fig16_power_breakdown",
    ];
    let dir = scratch_dir("shared-sweep");
    let run = |names: &[&str]| {
        let (out, dumps) = run_dumping(&dir, XPAPER, names, "1000");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "xpaper {names:?}: {stderr}");
        dumps
    };
    let together = run(&FIGS);
    let alone: BTreeMap<String, Dump> = FIGS.iter().flat_map(|f| run(&[f])).collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        together.keys().collect::<Vec<_>>(),
        alone.keys().collect::<Vec<_>>()
    );
    for (file, dump) in &together {
        assert_eq!(dump.body, alone[file].body, "{file}");
        assert!(alone[file].sim_cycles > 0, "{file} alone: {alone:?}");
        let from_sweep = !file.starts_with("fig14_");
        assert_eq!(
            dump.sim_cycles == 0,
            from_sweep,
            "{file} after fig14: sim_cycles {}",
            dump.sim_cycles
        );
    }
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
