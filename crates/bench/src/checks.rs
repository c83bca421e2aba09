//! The CI checks as one registry, run by `xcheck <name>...` or
//! `xcheck all`:
//!
//! * `fuzz_smoke` — seeded walker programs ([`crate::fuzz`]), each run
//!   with idle-cycle skipping on and off, then the whole batch at one and
//!   two runner jobs; every rendering must be byte-identical and no run
//!   may hang (`XCACHE_SEEDS`, default 200).
//! * `chaos_smoke` — the same programs and the DSA chaos cells under
//!   seeded fault plans ([`crate::chaos`]), through the same two
//!   differentials, plus their liveness and conservation invariants
//!   (`XCACHE_SEEDS`, default 25; `XCACHE_FAULT_SEED`). Violating runs go
//!   to `results/chaos/violations.txt`.
//! * `crossval_smoke` — the simulator against the analytical oracle
//!   ([`crate::crossval`]; `XCACHE_SEEDS`, default 50). Disagreeing cells
//!   go to `results/crossval/disagreements.txt`.
//! * `shard_smoke` — one sharded run per DSA family at `XCACHE_SHARDS`
//!   shards (default 4); CI diffs its `results/shard_smoke.json` across
//!   the `XCACHE_PAR` × `XCACHE_PAR_THREADS` × `XCACHE_JOBS` matrix.
//! * `bench_oracle` — the oracle's predictions for the paper cells and a
//!   few fuzz seeds, without simulating (`results/bench_oracle.json`).
//!
//! The seeded checks start at `XCACHE_BASE_SEED` (default 0), so a
//! failing window can be rerun locally. A check that passes returns its
//! summary as a [`Report`], which the registry prints. A check that
//! finds a fault prints each one as `FAIL …` on stderr, writes them to
//! its artifact and fails, so `xcheck` exits 1 without a summary.

use std::fmt::{Debug, Display, Write as _};
use std::path::Path;

use xcache_core::{splitmix64, XCacheConfig};
use xcache_dsa::spgemm::{self, Algorithm};
use xcache_dsa::{graphpulse, widx, RunReport};
use xcache_sim::json::Value;
use xcache_workloads::QueryClass;

use crate::chaos::{cell_has_violation, run_dsa_chaos_cell, run_fuzz_chaos, ChaosCell};
use crate::crossval::{
    self, fuzz_oracle_ops, predict, spgemm_fixture, spgemm_oracle_ops, widx_fixture,
    widx_oracle_ops, Tolerance,
};
use crate::fuzz::{run_seed, DEFAULT_ACCESSES};
use crate::registry::{entries, Entry, Registry, Report};
use crate::{
    graphpulse_geometry, graphpulse_workload, jobs_differential, json_object, note_sim_cycles,
    render_table, skip_differential, spgemm_geometry, widx_geometry, widx_workload, write_file,
    Knobs, Scenario,
};

/// Every check, in CI order.
pub static CHECKS: [Entry; 5] = entries![
    self::fuzz_smoke,
    self::chaos_smoke,
    self::crossval_smoke,
    self::shard_smoke,
    self::bench_oracle,
];

/// The registry `xcheck` runs.
pub static XCHECK: Registry = Registry {
    bin: "xcheck",
    noun: "checks",
    entries: &CHECKS,
};

/// The faults a check found. Each is printed to stderr as it is found;
/// [`finish`](Self::finish) is the one failure path.
#[derive(Debug, Default)]
struct Failures {
    count: usize,
    report: String,
}

impl Failures {
    /// Records one fault: prints it and appends it to the report.
    fn record(&mut self, fault: impl Display) {
        eprintln!("FAIL {fault}");
        let _ = writeln!(self.report, "{fault}");
        self.count += 1;
    }

    /// `Ok` when nothing failed. Otherwise writes the report to
    /// `artifact`, if the check keeps one, and fails with the fault
    /// count.
    fn finish(self, artifact: Option<&str>) -> Result<(), String> {
        if self.count == 0 {
            return Ok(());
        }
        let failed = format!("{} failure(s)", self.count);
        match artifact.map(|path| write_file(Path::new(path), &self.report)) {
            Some(Err(e)) => Err(format!("{failed}; {e}")),
            _ => Err(failed),
        }
    }
}

/// The loop fuzz and chaos share: every key is run with idle-cycle
/// skipping on and off, then the whole batch at one and two runner jobs,
/// and the renderings must be byte-identical. Records each divergence
/// and returns the skip-on result of every key whose two runs agreed, in
/// key order, and whether the jobs differential held.
fn differentials<K, R>(
    what: &str,
    keys: &[K],
    run: impl Fn(K) -> R + Sync,
    render: impl Fn(&R) -> String + Sync,
    failures: &mut Failures,
) -> (Vec<(K, R)>, bool)
where
    K: Copy + Debug + Send + Sync,
{
    let mut agreed = Vec::new();
    for &k in keys {
        match skip_differential(&format!("{what} {k:?}"), || run(k), &render) {
            Ok(r) => agreed.push((k, r)),
            Err(e) => failures.record(e),
        }
    }
    let jobs = jobs_differential(what, keys, |k| render(&run(k)));
    if let Err(e) = &jobs {
        failures.record(e);
    }
    (agreed, jobs.is_ok())
}

fn fuzz_smoke(k: &Knobs) -> Result<Report, String> {
    let seeds = k.seeds(200);
    let (count, base) = (seeds.len(), k.base_seed);
    let mut out = vec![format!(
        "fuzz smoke: {count} seeded walker programs (seeds {base}..{}), {DEFAULT_ACCESSES} accesses each",
        base.wrapping_add(count as u64)
    )];
    let mut failures = Failures::default();
    let (agreed, jobs_ok) = differentials(
        "fuzz seed",
        &seeds,
        |seed| run_seed(seed, DEFAULT_ACCESSES),
        |r| r.stats_json(),
        &mut failures,
    );
    let mut identical = 0;
    for (seed, report) in &agreed {
        match &report.hang {
            Some(h) => failures.record(format!("seed {seed}: hung: {h}")),
            None => identical += 1,
        }
    }
    out.push(format!(
        "skip-vs-step differential: {identical}/{count} seeds byte-identical"
    ));
    if jobs_ok {
        out.push(format!(
            "jobs=1 vs jobs=2 differential: {count}/{count} seeds byte-identical"
        ));
    }
    failures.finish(None)?;
    out.push("fuzz smoke: all differentials agree".into());
    Ok(Report::lines(&out))
}

fn chaos_smoke(k: &Knobs) -> Result<Report, String> {
    let seeds = k.seeds(25);
    let (count, base, fault_seed) = (seeds.len(), k.base_seed, k.fault_seed);
    let mut out = vec![format!(
        "chaos smoke: {count} seeded walker programs (seeds {base}..{}), fault seed \
         {fault_seed:#x}, {DEFAULT_ACCESSES} accesses each",
        base.wrapping_add(count as u64)
    )];
    let mut failures = Failures::default();

    // Per seed: the liveness and conservation invariants, checked on
    // the skip-on run, which also carries the harvested stall reports.
    let (agreed, jobs_ok) = differentials(
        "chaos seed",
        &seeds,
        |seed| run_fuzz_chaos(seed, fault_seed, DEFAULT_ACCESSES),
        |r| r.stats_json(),
        &mut failures,
    );
    let (mut clean, mut stalls) = (0, 0);
    for (seed, report) in &agreed {
        stalls += report.stall_reports.len();
        if report.ok() {
            clean += 1;
        } else {
            let mut fault = format!("seed {seed}: {}", report.stats_json());
            for s in &report.stall_reports {
                let _ = write!(fault, "\n  stall: {s}");
            }
            failures.record(fault);
        }
    }
    out.push(format!(
        "chaos invariants: {clean}/{count} seeds clean, skip-vs-step byte-identical, \
         {stalls} stall report(s) recovered by the watchdog"
    ));
    if jobs_ok {
        out.push(format!(
            "chaos jobs=1 vs jobs=2 differential: {count}/{count} seeds agree"
        ));
    }

    let (agreed, jobs_ok) = differentials(
        "chaos cell",
        &ChaosCell::ALL,
        |cell| run_dsa_chaos_cell(cell, k.scale, 42, fault_seed),
        String::clone,
        &mut failures,
    );
    for (cell, rendered) in &agreed {
        if cell_has_violation(rendered) {
            failures.record(format!("dsa cell {}: {rendered}", cell.name()));
        } else {
            out.push(format!(
                "dsa chaos cell {}: clean, skip-vs-step agree",
                cell.name()
            ));
        }
    }
    if jobs_ok {
        out.push("dsa chaos cells: jobs=1 vs jobs=2 agree".into());
    }
    failures.finish(Some("results/chaos/violations.txt"))?;
    out.push("chaos smoke: all invariants and differentials hold under injected faults".into());
    Ok(Report::lines(&out))
}

fn crossval_smoke(k: &Knobs) -> Result<Report, String> {
    let seeds = k.seeds(50);
    let mut out = vec![format!(
        "cross-validating {} fuzz seeds (serial + pipelined) + scenario cells\n",
        seeds.len()
    )];
    let reports = crossval::run_suite(&k.runner, &seeds, DEFAULT_ACCESSES);
    let exact = reports
        .iter()
        .filter(|r| r.tolerance == Tolerance::Exact)
        .count();
    let mut failures = Failures::default();
    for r in reports.iter().filter(|r| !r.ok()) {
        failures.record(r.render());
    }
    out.push(format!(
        "{} cells ({exact} exact, {} bounded): {} agree, {} disagree",
        reports.len(),
        reports.len() - exact,
        reports.len() - failures.count,
        failures.count
    ));
    failures.finish(Some("results/crossval/disagreements.txt"))?;

    // A digest of the bounded scenario cells, so the log shows how much
    // headroom the declared tolerances have.
    for r in &reports {
        if r.tolerance != Tolerance::Exact && !r.name.starts_with("fuzz-") {
            let worst = r
                .comparisons
                .iter()
                .map(|c| c.sim.abs_diff(c.oracle))
                .max()
                .unwrap_or(0);
            out.push(format!(
                "  {:<16} worst |Δ| {} of budget {} over {} loads",
                r.name,
                worst,
                r.budget(),
                r.loads
            ));
        }
    }
    out.push("\ncross-validation OK".into());
    Ok(Report::lines(&out))
}

const SHARD_HEADERS: [&str; 6] = [
    "Cell",
    "cycles",
    "checksum",
    "counters",
    "bank.remote",
    "dram.reads",
];

/// Order-independent fold over the full counter map: one diverging
/// counter anywhere changes the digest, so the CI diff covers every
/// statistic without a column per counter.
fn counter_digest(r: &RunReport) -> u64 {
    r.stats.counters.iter().fold(0u64, |acc, (k, v)| {
        let mut h = splitmix64(*v);
        for b in k.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        acc.wrapping_add(h)
    })
}

fn shard_row(name: &str, r: &RunReport) -> Vec<String> {
    note_sim_cycles(r.cycles);
    vec![
        name.to_owned(),
        r.cycles.to_string(),
        r.checksum.to_string(),
        format!("{:016x}", counter_digest(r)),
        r.stats.get("bank.remote").to_string(),
        r.stats.get("dram.reads").to_string(),
    ]
}

/// The sharded topology's determinism surface: end cycle, result
/// checksum and a digest of every counter, per DSA family. Parallel
/// simulated time must be byte-identical to the sequential reference,
/// so any divergence across CI's matrix fails the build.
fn shard_smoke(k: &Knobs) -> Result<Report, String> {
    let (scale, shards) = (k.scale, k.shards);
    let report = Report::titled(format!(
        "Shard smoke: {shards}-shard topology determinism surface (scale 1/{scale})"
    ));

    let cells: Vec<Scenario<'_, Vec<String>>> = vec![
        Scenario::new("Widx Q19", move || {
            let w = widx_workload(QueryClass::Q19, scale, 7);
            let g = widx_geometry(scale);
            shard_row("Widx Q19", &widx::run_xcache_sharded(&w, Some(g), shards))
        }),
        Scenario::new("Gustavson", move || {
            let w = spgemm::SpgemmWorkload::paper_like(Algorithm::Gustavson, scale, 7);
            let g = spgemm_geometry(scale);
            shard_row(
                "Gustavson",
                &spgemm::run_xcache_sharded(&w, Some(g), shards),
            )
        }),
        Scenario::new("GraphPulse", move || {
            let w = graphpulse_workload(scale, 7);
            let g = graphpulse_geometry(w.graph.vertices());
            shard_row(
                "GraphPulse",
                &graphpulse::run_xcache_sharded(&w, Some(g), shards),
            )
        }),
    ];

    let rows = k.runner.run(cells);
    Ok(report.table("", &SHARD_HEADERS, rows))
}

/// Analytical predictions without simulation: the paper's scenario
/// cells and a handful of fuzz seeds replayed through the
/// `xcache-oracle` model, so oracle predictions diff across commits
/// exactly like measured results.
fn bench_oracle(_: &Knobs) -> Result<Report, String> {
    const HEADERS: [&str; 9] = [
        "cell", "loads", "hits", "misses", "hit%", "allocs", "evicts", "faults", "insertm",
    ];
    let mut cells = Vec::new();
    let (w, g) = widx_fixture();
    cells.push(("widx-q19".to_owned(), predict(&g, &widx_oracle_ops(&w))));
    for alg in [Algorithm::Gustavson, Algorithm::OuterProduct] {
        let (w, g) = spgemm_fixture(alg);
        let cell = format!("spgemm-{}", alg.name().to_lowercase());
        cells.push((cell, predict(&g, &spgemm_oracle_ops(&w, &g))));
    }
    for seed in 0..8 {
        let ops = fuzz_oracle_ops(seed, DEFAULT_ACCESSES);
        cells.push((
            format!("fuzz-{seed}"),
            predict(&XCacheConfig::test_tiny(), &ops),
        ));
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(cell, p)| {
            vec![
                cell.clone(),
                p.loads.to_string(),
                p.hits.to_string(),
                p.misses.to_string(),
                format!("{:.1}", p.hit_rate() * 100.0),
                p.meta_allocs.to_string(),
                p.meta_evictions.to_string(),
                p.walker_faults.to_string(),
                p.insertm.to_string(),
            ]
        })
        .collect();
    let predictions = cells
        .iter()
        .map(|(cell, p)| {
            let hit_rate = p.hit_rate();
            json_object([
                ("cell", Value::Str(cell.clone())),
                ("loads", Value::from_u64(p.loads)),
                ("hits", Value::from_u64(p.hits)),
                ("misses", Value::from_u64(p.misses)),
                ("hit_rate", Value::Num(hit_rate, format!("{hit_rate:.6}"))),
                ("store_hits", Value::from_u64(p.store_hits)),
                ("store_misses", Value::from_u64(p.store_misses)),
                ("meta_allocs", Value::from_u64(p.meta_allocs)),
                ("meta_evictions", Value::from_u64(p.meta_evictions)),
                ("capacity_evictions", Value::from_u64(p.capacity_evictions)),
                ("walker_faults", Value::from_u64(p.walker_faults)),
                ("insertm", Value::from_u64(p.insertm)),
                ("insertm_skips", Value::from_u64(p.insertm_skips)),
            ])
        })
        .collect();
    // The table is printed, not dumped: the predictions are its dump.
    let mut report = Report::titled("analytical oracle predictions (no simulation)")
        .text(&render_table(&HEADERS, &rows))
        .text(&format!("\n{} cells predicted\n", cells.len()));
    report.json.push(("predictions", predictions));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unwritable_artifact_is_named_in_the_error() {
        // The artifact's directory cannot be created: its parent is a
        // regular file.
        let file = std::env::temp_dir().join(format!("xcheck-artifact-{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let path = file.join("chaos/violations.txt");
        let mut failures = Failures::default();
        failures.record("seed 3: diverged");
        let err = failures.finish(Some(path.to_str().unwrap())).unwrap_err();
        let _ = std::fs::remove_file(&file);
        assert!(err.starts_with("1 failure(s)"), "{err}");
        assert!(
            err.contains(&format!("cannot write {}", path.display())),
            "{err}"
        );
    }

    #[test]
    fn a_written_artifact_holds_every_fault() {
        let dir = std::env::temp_dir().join(format!("xcheck-report-{}", std::process::id()));
        let path = dir.join("violations.txt");
        let mut failures = Failures::default();
        failures.record("seed 1: a");
        failures.record("seed 2: b");
        let err = failures.finish(Some(path.to_str().unwrap())).unwrap_err();
        let written = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(err, "2 failure(s)");
        assert_eq!(written, "seed 1: a\nseed 2: b\n");
    }
}
