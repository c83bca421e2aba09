//! # xcache-bench
//!
//! The experiment harness: one binary per table and figure of the paper
//! (`fig04_*` … `fig20_*`, `tab01_*` … `tab04_*` under `src/bin/`), plus
//! Criterion microbenchmarks under `benches/`.
//!
//! Every harness prints the same rows/series the paper reports. Absolute
//! numbers differ (our substrate is a Rust cycle simulator, not the
//! authors' RTL + DRAMsim2 testbed); EXPERIMENTS.md records paper-vs-
//! measured for each one.
//!
//! ## Scale and parallelism
//!
//! Harnesses default to a reduced scale so the whole suite runs in
//! minutes. Set `XCACHE_SCALE=1` for paper-sized inputs (slow) or a larger
//! divisor for quicker smoke runs; `scale()` reads it.
//!
//! Every binary declares its parameter grid as [`Scenario`]s and executes
//! them through the [`Runner`], which parallelises across independent
//! cells (`XCACHE_JOBS` worker threads, default: all cores) while keeping
//! each simulation deterministic and the output order fixed — the printed
//! tables and JSON dumps are byte-identical at any job count.
//!
//! ## Differentials
//!
//! Every run renders to a canonical string (a counter map is always
//! [`counters_json`]), and two differentials compare renderings byte for
//! byte: [`skip_differential`] runs one cell with idle-cycle
//! fast-forwarding on and off, and [`jobs_differential`] runs a batch at
//! one and at two runner jobs. The fuzz, chaos and shard harnesses and
//! the differential tests all go through these two.

pub mod chaos;
pub mod crossval;
pub mod fuzz;
pub mod runner;

pub use runner::{
    jobs_from_env, merge_snapshots, try_jobs_from_env, Cell, CellOutcome, CellStatus,
    CheckpointPolicy, CheckpointStore, MemStore, Runner, Scenario,
};

use std::fmt::{Debug, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use xcache_core::XCacheConfig;
use xcache_dsa::graphpulse::GraphPulseWorkload;
use xcache_dsa::spgemm;
use xcache_dsa::widx::WidxWorkload;
use xcache_dsa::RunReport;
use xcache_sim::{with_skip, StatsSnapshot};
use xcache_workloads::{CsrMatrix, Graph, GraphPreset, QueryClass, SparsePattern};

static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

/// The process-wide wall-clock anchor for the meta envelope's `wall_ms`.
/// First caller wins; `scale()` and `Runner::run` both touch it, so the
/// clock effectively starts at the top of every harness `main`.
pub(crate) fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Credits simulated cycles to the process-wide tally that the JSON meta
/// envelope reports as `sim_cycles` / `sim_cycles_per_sec`. Scenario cells
/// call this once per finished run.
pub fn note_sim_cycles(cycles: u64) {
    let _ = start_instant();
    SIM_CYCLES.fetch_add(cycles, Ordering::Relaxed);
}

/// Wall-clock milliseconds since the harness started and the simulated
/// cycles credited so far — the timing fields of the meta envelope.
#[must_use]
pub fn timing_totals() -> (u64, u64) {
    let wall_ms = start_instant().elapsed().as_millis() as u64;
    (wall_ms, SIM_CYCLES.load(Ordering::Relaxed))
}

/// Workload scale divisor. `1` = paper-sized. Default 10.
///
/// Read from `XCACHE_SCALE`; a malformed or zero value prints the
/// structured error and exits 2 (see [`try_scale`]).
#[must_use]
pub fn scale() -> u32 {
    xcache_sim::exit2(try_scale())
}

/// [`scale`] as a structured result, for callers (the scenario service)
/// that must reject a bad knob instead of exiting.
///
/// # Errors
///
/// Returns an [`xcache_sim::EnvError`] for an unparsable or zero value.
pub fn try_scale() -> Result<u32, xcache_sim::EnvError> {
    let _ = start_instant();
    Ok(xcache_sim::env_parse_map("XCACHE_SCALE", |s| {
        let v: u32 = s.parse().map_err(|e| format!("{e}"))?;
        if v == 0 {
            return Err("scale divisor must be >= 1".into());
        }
        Ok(v)
    })?
    .unwrap_or(10))
}

/// A `u64` environment knob with a default — the smoke binaries' base
/// and fault seeds and friends. Malformed values print the structured
/// error and exit 2 instead of silently falling back.
#[must_use]
pub fn env_u64_or(var: &str, default: u64) -> u64 {
    xcache_sim::exit2(xcache_sim::env_parse::<u64>(var)).unwrap_or(default)
}

/// A smoke binary's seed count from `var`, or `default` when unset. A
/// malformed or zero value prints the structured error and exits 2: a
/// run over no seeds would check nothing and pass.
#[must_use]
pub fn seed_count(var: &str, default: u64) -> u64 {
    xcache_sim::exit2(xcache_sim::env_parse_map(var, |s| {
        let v: u64 = s.parse().map_err(|e| format!("{e}"))?;
        if v == 0 {
            return Err("seed count must be >= 1".into());
        }
        Ok(v)
    }))
    .unwrap_or(default)
}

/// Runs `run` with idle-cycle fast-forwarding on, then off, and demands
/// byte-identical renderings. Returns the fast run.
///
/// `with_skip` is thread-local, so both runs execute on the calling
/// thread.
///
/// # Errors
///
/// Returns `Err` with both renderings, labelled `label`, when the runs
/// diverge.
pub fn skip_differential<T>(
    label: &str,
    run: impl Fn() -> T,
    render: impl Fn(&T) -> String,
) -> Result<T, String> {
    let fast = with_skip(true, &run);
    let slow = with_skip(false, &run);
    let (f, s) = (render(&fast), render(&slow));
    if f == s {
        Ok(fast)
    } else {
        Err(format!(
            "{label}: skip and no-skip runs diverged\n  skip:    {f}\n  no-skip: {s}"
        ))
    }
}

/// Renders every key through the [`Runner`] at one and at two worker
/// threads and demands each key render the same bytes both times.
/// Returns the renderings in key order.
///
/// # Errors
///
/// Returns `Err` naming the first key (prefixed by `what`) whose
/// renderings differ, with both.
pub fn jobs_differential<K: Copy + Debug + Send>(
    what: &str,
    keys: &[K],
    render: impl Fn(K) -> String + Sync,
) -> Result<Vec<String>, String> {
    let render = &render;
    let run = |jobs| {
        let cells = keys
            .iter()
            .map(|&k| Scenario::new(format!("{what} {k:?}"), move || render(k)))
            .collect();
        Runner::with_jobs(jobs).run(cells)
    };
    let (seq, par) = (run(1), run(2));
    for ((s, p), k) in seq.iter().zip(&par).zip(keys) {
        if s != p {
            return Err(format!(
                "{what} {k:?}: jobs=1 and jobs=2 runs diverged\n  jobs=1: {s}\n  jobs=2: {p}"
            ));
        }
    }
    Ok(seq)
}

/// Renders an aligned text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", c, w = widths[i]);
        }
        line.trim_end().to_owned()
    };
    let headers_owned: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    let _ = writeln!(out, "{}", fmt_row(&headers_owned, &widths));
    let _ = writeln!(
        out,
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let _ = writeln!(out, "{}", fmt_row(row, &widths));
    }
    out
}

/// The standard Widx workload at the harness scale: paper-shaped TPC-H
/// query class with enough probes to amortise compulsory misses.
#[must_use]
pub fn widx_workload(class: QueryClass, scale: u32, seed: u64) -> WidxWorkload {
    let mut preset = class.preset().scaled_down(scale as usize);
    preset.probes = (preset.probes * 3).max(2_000);
    WidxWorkload::from_preset(&preset, seed)
}

/// The standard GraphPulse workload at the harness scale: two PageRank
/// iterations on a p2p-Gnutella08-shaped R-MAT graph.
#[must_use]
pub fn graphpulse_workload(scale: u32, seed: u64) -> GraphPulseWorkload {
    let (n, e) = GraphPreset::P2pGnutella08.dims();
    let n = (n / scale).max(64);
    let e = (e / scale as usize).max(256);
    GraphPulseWorkload {
        graph: Graph::from_adjacency(CsrMatrix::generate(n, n, e, SparsePattern::RMat, seed)),
        iterations: 2,
    }
}

/// Figure 18's `#Active/#Exe` sweep points.
pub const FIG18_GRID: [(usize, usize); 4] = [(4, 1), (8, 2), (16, 4), (32, 8)];

/// A Widx geometry scaled with the workload so hit rates sit in the
/// paper's regime (hot set resident, tail missing).
#[must_use]
pub fn widx_geometry(scale: u32) -> XCacheConfig {
    let full = XCacheConfig::widx();
    if scale <= 1 {
        return full;
    }
    let sets = (full.sets / scale as usize).next_power_of_two().max(64);
    XCacheConfig {
        sets,
        data_sectors: sets * full.ways,
        ..full
    }
}

/// One DSA evaluated in all three storage configurations (a Figure 14
/// cluster).
#[derive(Debug, Clone)]
pub struct DsaRun {
    /// Cluster label as the paper prints it (e.g. `Widx TPC-H-19`).
    pub name: String,
    /// The geometry used (also sizes the matched address cache).
    pub geometry: XCacheConfig,
    /// X-Cache configuration results.
    pub xcache: xcache_dsa::RunReport,
    /// Address-based cache with ideal walker.
    pub addr: xcache_dsa::RunReport,
    /// Hardwired DSA baseline.
    pub baseline: xcache_dsa::RunReport,
}

impl DsaRun {
    /// X-Cache speedup over the address cache.
    #[must_use]
    pub fn speedup_vs_addr(&self) -> f64 {
        self.xcache.speedup_over(&self.addr)
    }

    /// X-Cache speedup over the hardwired baseline.
    #[must_use]
    pub fn speedup_vs_baseline(&self) -> f64 {
        self.xcache.speedup_over(&self.baseline)
    }

    /// Address-cache DRAM accesses relative to X-Cache (Figure 14's
    /// memory-access axis).
    #[must_use]
    pub fn dram_ratio(&self) -> f64 {
        self.addr.dram_accesses() as f64 / self.xcache.dram_accesses().max(1) as f64
    }

    /// Total simulated cycles across the cluster's three runs — what the
    /// cell credits to the meta envelope via [`note_sim_cycles`].
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.xcache.cycles + self.addr.cycles + self.baseline.cycles
    }
}

/// One Figure 14 cluster: an evaluated DSA with its workload, run in all
/// three storage configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsaCluster {
    /// Widx on a TPC-H query class.
    Widx(QueryClass),
    /// DASX on the same dataset as Widx's Q22 class (§7.2).
    Dasx,
    /// GraphPulse PageRank on [`graphpulse_workload`].
    GraphPulse,
    /// SpArch or Gamma: A × A on a p2p-Gnutella31-shaped matrix.
    Spgemm(spgemm::Algorithm),
}

impl DsaCluster {
    /// Every cluster, in Figure 14's order.
    #[must_use]
    pub fn all() -> Vec<DsaCluster> {
        let mut all: Vec<DsaCluster> = QueryClass::all().map(DsaCluster::Widx).to_vec();
        all.extend([
            DsaCluster::Dasx,
            DsaCluster::GraphPulse,
            DsaCluster::Spgemm(spgemm::Algorithm::OuterProduct),
            DsaCluster::Spgemm(spgemm::Algorithm::Gustavson),
        ]);
        all
    }

    /// The cluster label as the paper prints it (e.g. `Widx TPC-H-19`).
    #[must_use]
    pub fn name(self) -> String {
        match self {
            DsaCluster::Widx(class) => format!("Widx {}", class.name()),
            DsaCluster::Dasx => "DASX".into(),
            DsaCluster::GraphPulse => "GraphPulse p2p-08".into(),
            DsaCluster::Spgemm(alg) => format!("{} p2p-31", alg.name()),
        }
    }

    /// Runs the cluster's three configurations at `scale` and credits
    /// their cycles to [`note_sim_cycles`].
    #[must_use]
    pub fn run(self, scale: u32, seed: u64) -> DsaRun {
        use xcache_dsa::{dasx, graphpulse, widx};

        let name = self.name();
        let run = match self {
            DsaCluster::Widx(class) => {
                let w = widx_workload(class, scale, seed);
                let g = widx_geometry(scale);
                DsaRun {
                    name,
                    geometry: g.clone(),
                    xcache: widx::run_xcache(&w, Some(g.clone())),
                    addr: widx::run_address_cache(&w, Some(g.clone())),
                    baseline: widx::run_baseline(&w, Some(g)),
                }
            }
            DsaCluster::Dasx => {
                let mut preset = QueryClass::Q22.preset().scaled_down(scale as usize);
                preset.probes = (preset.probes * 3).max(2_000);
                let w = dasx::DasxWorkload::from_preset(&preset, seed);
                let mut g = widx_geometry(scale);
                g.exe = XCacheConfig::dasx().exe;
                DsaRun {
                    name,
                    geometry: g.clone(),
                    xcache: dasx::run_xcache(&w, Some(g.clone())),
                    addr: dasx::run_address_cache(&w, Some(g.clone())),
                    baseline: dasx::run_baseline(&w, Some(g)),
                }
            }
            DsaCluster::GraphPulse => {
                let w = graphpulse_workload(scale, seed);
                let g = graphpulse_geometry(w.graph.vertices());
                DsaRun {
                    name,
                    geometry: g.clone(),
                    xcache: graphpulse::run_xcache(&w, Some(g.clone())),
                    addr: graphpulse::run_address_cache(&w, Some(g)),
                    // A single-port hardwired coalescing queue (one event
                    // per cycle enters a bin), GraphPulse's dedicated
                    // structure.
                    baseline: graphpulse::run_baseline(&w, 1),
                }
            }
            DsaCluster::Spgemm(alg) => {
                let w = spgemm::SpgemmWorkload::paper_like(alg, scale, seed);
                let g = spgemm_geometry(scale);
                DsaRun {
                    name,
                    geometry: g.clone(),
                    xcache: spgemm::run_xcache(&w, Some(g.clone())),
                    addr: spgemm::run_address_cache(&w, Some(g.clone())),
                    baseline: spgemm::run_baseline(&w, Some(g)),
                }
            }
        };
        note_sim_cycles(run.sim_cycles());
        run
    }
}

/// The full DSA sweep as a scenario grid: every [`DsaCluster`] at
/// `scale`. Cells are independent, so the runner can execute them in
/// parallel.
#[must_use]
pub fn dsa_scenarios(scale: u32, seed: u64) -> Vec<Scenario<'static, DsaRun>> {
    DsaCluster::all()
        .into_iter()
        .map(|cluster| Scenario::new(cluster.name(), move || cluster.run(scale, seed)))
        .collect()
}

/// Runs every evaluated DSA in all three configurations at `scale`
/// (Figure 14's full sweep; Figures 15/16 reuse the reports). Cells run
/// through the [`Runner`], one per DSA cluster.
#[must_use]
pub fn run_all_dsas(scale: u32, seed: u64) -> Vec<DsaRun> {
    Runner::from_env().run(dsa_scenarios(scale, seed))
}

/// GraphPulse geometry scaled to a vertex count (direct-mapped, like
/// Table 3, sized so the working set fits with batching headroom).
#[must_use]
pub fn graphpulse_geometry(vertices: u32) -> XCacheConfig {
    let sets = (vertices as usize * 2).next_power_of_two().max(64);
    XCacheConfig {
        sets,
        ways: 1,
        data_sectors: sets,
        ..XCacheConfig::graphpulse()
    }
}

/// SpArch/Gamma geometry at harness scale.
#[must_use]
pub fn spgemm_geometry(scale: u32) -> XCacheConfig {
    let full = XCacheConfig::sparch();
    if scale <= 1 {
        return full;
    }
    let sets = (full.sets / scale as usize).next_power_of_two().max(32);
    XCacheConfig {
        sets,
        data_sectors: sets * full.ways * 4,
        ..full
    }
}

/// Geometric mean of an iterator of (positive) ratios; `0.0` when empty.
#[must_use]
pub fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = vals.fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The checked-out commit (short SHA), or `"unknown"` outside a git
/// checkout.
#[must_use]
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// Run metadata recorded in every JSON dump: enough to reproduce the run
/// (scale divisor, job count, commit) and to identify the format, plus the
/// timing fields (`wall_ms`, `sim_cycles`, `sim_cycles_per_sec`) of the
/// run that wrote it. `parallel_fallbacks` counts silent
/// `Par`-pool degradations to sequential execution — nonzero means the
/// run's wall times came from a machine that couldn't actually go
/// parallel, so its throughput numbers undersell the code. The timing
/// fields are machine-dependent; comparisons across runs must ignore the
/// meta line (it sits on its own line in the envelope precisely so
/// `grep -v '^"meta"'` drops it).
#[must_use]
pub fn meta_json(name: &str) -> String {
    let (wall_ms, sim_cycles) = timing_totals();
    let per_sec = sim_cycles
        .saturating_mul(1000)
        .checked_div(wall_ms)
        .unwrap_or(0);
    format!(
        "{{\"schema\":\"xcache-bench/3\",\"experiment\":\"{}\",\"scale\":{},\"jobs\":{},\"git_sha\":\"{}\",\"wall_ms\":{wall_ms},\"sim_cycles\":{sim_cycles},\"sim_cycles_per_sec\":{per_sec},\"parallel_fallbacks\":{}}}",
        json_escape(name),
        scale(),
        jobs_from_env(),
        json_escape(&git_sha()),
        xcache_sim::parallel_fallbacks()
    )
}

/// Writes `{"meta": ..., "<key>": <body>}` to `results/<name>.json` when
/// `XCACHE_JSON` is set. Every dump goes through here so all of them
/// carry the same self-describing metadata envelope.
fn write_results_json(name: &str, key: &str, body: &str) {
    if std::env::var("XCACHE_JSON").is_err() {
        return;
    }
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let out = format!(
        "{{\n\"meta\": {},\n\"{key}\": {body}\n}}\n",
        meta_json(name)
    );
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("(wrote {})", path.display());
    }
}

/// Writes a caller-rendered JSON `body` under `"<key>"` to
/// `results/<name>.json` when `XCACHE_JSON` is set, wrapped in the same
/// metadata envelope as every other dump. For binaries (the oracle
/// predictor, the cross-validation harness) whose body shape is neither a
/// table nor a [`DsaRun`] set.
pub fn maybe_dump_custom_json(name: &str, key: &str, body: &str) {
    write_results_json(name, key, body);
}

/// Serialises a rendered table (headers + rows) to `results/<name>.json`
/// when `XCACHE_JSON` is set — the machine-readable twin of what the
/// binary printed, wrapped in the metadata envelope.
pub fn maybe_dump_table_json(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut body = String::from("{\"headers\": [");
    for (i, h) in headers.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "\"{}\"", json_escape(h));
    }
    body.push_str("], \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str("  [");
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            let _ = write!(body, "\"{}\"", json_escape(cell));
        }
        let _ = write!(body, "]{}", if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    body.push_str("]}");
    write_results_json(name, "table", &body);
}

/// Renders `snap`'s counters as one JSON object in name order — the
/// counter map of every report rendering and JSON dump.
#[must_use]
pub fn counters_json(snap: &StatsSnapshot) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", json_escape(k));
    }
    out.push('}');
    out
}

/// Renders a [`RunReport`] as one JSON object: label, end cycle,
/// checksum and every counter.
#[must_use]
pub fn run_report_json(r: &RunReport) -> String {
    format!(
        "{{\"label\":\"{}\",\"cycles\":{},\"checksum\":{},\"counters\":{}}}",
        json_escape(&r.label),
        r.cycles,
        r.checksum,
        counters_json(&r.stats)
    )
}

/// Serialises a set of [`DsaRun`]s to `results/<name>.json` when
/// `XCACHE_JSON` is set — a machine-readable companion to the printed
/// tables (flat JSON, hand-rendered; the workspace has no serde_json).
/// The envelope always records run metadata (scale, jobs, git SHA) plus
/// an `aggregate` section with the X-Cache counters merged across runs.
pub fn maybe_dump_json(name: &str, runs: &[DsaRun]) {
    if std::env::var("XCACHE_JSON").is_err() {
        return;
    }
    let mut body = String::from("[\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            body,
            "  {{\"name\":\"{}\",\"xcache\":{},\"addr\":{},\"baseline\":{}}}{}",
            json_escape(&r.name),
            run_report_json(&r.xcache),
            run_report_json(&r.addr),
            run_report_json(&r.baseline),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    let aggregate = merge_snapshots(runs.iter().map(|r| &r.xcache.stats));
    let _ = write!(
        body,
        "],\n\"aggregate\": {{\"xcache_counters\": {}}}",
        counters_json(&aggregate)
    );
    // `body` already carries the closing bracket of `runs` plus the
    // aggregate key, so it slots into the envelope as `"runs": [...],
    // "aggregate": {...}`.
    write_results_json(name, "runs", &body);
}

/// Formats a ratio as `1.23x`.
#[must_use]
pub fn ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        "n/a".into()
    } else {
        format!("{:.2}x", num / den)
    }
}

/// Formats a fraction as `12.3%`.
#[must_use]
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        // Columns align: "value" and "1" start at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].chars().nth(col), Some('1'));
    }

    #[test]
    fn scale_defaults_to_ten() {
        // (Env not set in the test environment.)
        if std::env::var("XCACHE_SCALE").is_err() {
            assert_eq!(scale(), 10);
        }
    }

    #[test]
    fn widx_geometry_scales_down() {
        let g = widx_geometry(10);
        assert!(g.sets < XCacheConfig::widx().sets);
        assert!(g.sets.is_power_of_two());
        assert_eq!(g.data_sectors, g.sets * g.ways);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(17.0, 10.0), "1.70x");
        assert_eq!(ratio(1.0, 0.0), "n/a");
        assert_eq!(pct(0.123), "12.3%");
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert!((geomean([1.7].into_iter()) - 1.7).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn meta_json_is_self_describing() {
        let m = meta_json("figNN");
        for key in [
            "\"schema\"",
            "\"experiment\"",
            "\"scale\"",
            "\"jobs\"",
            "\"git_sha\"",
            "\"wall_ms\"",
            "\"sim_cycles\"",
            "\"sim_cycles_per_sec\"",
        ] {
            assert!(m.contains(key), "missing {key} in {m}");
        }
        assert!(m.contains("\"figNN\""));
    }

    /// Parallel and sequential execution of real simulator cells must
    /// produce byte-identical rows and identical merged stats — the
    /// property the whole harness relies on for `XCACHE_JOBS`.
    #[test]
    fn parallel_simulation_cells_match_sequential() {
        use xcache_dsa::widx;

        let grid = || {
            [1u64, 2, 3, 4]
                .into_iter()
                .map(|seed| {
                    Scenario::new(format!("seed {seed}"), move || {
                        let mut preset = QueryClass::Q19.preset().scaled_down(400);
                        preset.probes = 300;
                        let w = WidxWorkload::from_preset(&preset, seed);
                        let g = widx_geometry(40);
                        let r = widx::run_xcache(&w, Some(g));
                        (
                            vec![
                                seed.to_string(),
                                r.cycles.to_string(),
                                r.checksum.to_string(),
                            ],
                            r.stats,
                        )
                    })
                })
                .collect::<Vec<_>>()
        };
        let seq = Runner::with_jobs(1).run(grid());
        let par = Runner::with_jobs(4).run(grid());
        let rows = |v: &[(Vec<String>, xcache_sim::StatsSnapshot)]| {
            v.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>()
        };
        assert_eq!(rows(&seq), rows(&par));
        let headers = ["seed", "cycles", "checksum"];
        assert_eq!(
            render_table(&headers, &rows(&seq)),
            render_table(&headers, &rows(&par))
        );
        let merged_seq = merge_snapshots(seq.iter().map(|(_, s)| s));
        let merged_par = merge_snapshots(par.iter().map(|(_, s)| s));
        assert_eq!(merged_seq, merged_par);
    }
}
