//! # xcache-bench
//!
//! The experiment harness. [`paper::EXPERIMENTS`] registers every table,
//! figure and ablation of the evaluation, one entry per EXPERIMENTS.md
//! row, and the `xpaper` binary runs them by name (`xpaper all` runs
//! the whole set). [`checks::CHECKS`] registers the CI checks (fuzz,
//! chaos, cross-validation and shard smokes, and the oracle predictor),
//! which the `xcheck` binary runs the same way. Criterion
//! microbenchmarks live under `benches/`.
//!
//! Every experiment prints the same rows/series the paper reports.
//! Absolute numbers differ (our substrate is a Rust cycle simulator, not
//! the authors' RTL + DRAMsim2 testbed); EXPERIMENTS.md records
//! paper-vs-measured for each one.
//!
//! ## Scale and parallelism
//!
//! Experiments default to a reduced scale (divisor 10). Set
//! `XCACHE_SCALE=1` for paper-sized inputs or a larger divisor for
//! quicker smoke runs; [`Knobs::from_env`] reads it with every other
//! knob, once, before anything prints.
//!
//! Every experiment declares its parameter grid as [`Scenario`]s and
//! executes them through the [`Runner`], which parallelises across
//! independent cells (`XCACHE_JOBS` worker threads, default: all cores)
//! while keeping each simulation deterministic and the output order fixed
//! — the printed tables and JSON dumps are byte-identical at any job
//! count.
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
pub mod checks;
pub mod crossval;
pub mod fuzz;
pub mod paper;
pub mod registry;
pub mod runner;

pub use runner::{
    merge_snapshots, Cell, CellOutcome, CellStatus, CheckpointPolicy, CheckpointStore, MemStore,
    Runner, Scenario,
};

use std::fmt::{Debug, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use xcache_core::XCacheConfig;
use xcache_dsa::graphpulse::GraphPulseWorkload;
use xcache_dsa::spgemm;
use xcache_dsa::widx::WidxWorkload;
use xcache_dsa::RunReport;
use xcache_sim::{
    env_count, env_flag, env_parse, env_parse_map, exit2, sim_knobs, with_skip, EnvError,
    StatsSnapshot,
};
use xcache_workloads::{CsrMatrix, Graph, GraphPreset, QueryClass, SparsePattern};

static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);
static START: Mutex<Option<Instant>> = Mutex::new(None);

/// The wall-clock anchor for the meta envelope's `wall_ms`: set by
/// [`restart_timing`], or by the first caller otherwise. `Runner::run`
/// touches it, so the clock starts no later than a harness's first grid.
pub(crate) fn start_instant() -> Instant {
    *START
        .lock()
        .expect("start lock")
        .get_or_insert_with(Instant::now)
}

/// Restarts the meta envelope's timing fields: the wall clock starts now
/// and the simulated-cycle tally returns to zero. Each registry
/// experiment starts here, so a dump times only its own experiment.
pub(crate) fn restart_timing() {
    *START.lock().expect("start lock") = Some(Instant::now());
    SIM_CYCLES.store(0, Ordering::Relaxed);
}

/// Credits simulated cycles to the process-wide tally that the JSON meta
/// envelope reports as `sim_cycles` / `sim_cycles_per_sec`. Scenario cells
/// call this once per finished run.
pub fn note_sim_cycles(cycles: u64) {
    let _ = start_instant();
    SIM_CYCLES.fetch_add(cycles, Ordering::Relaxed);
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

/// Figure 18's two sweeps over [`FIG18_GRID`]: GraphPulse PageRank on
/// p2p-Gnutella08 and Widx on TPC-H-22.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig18Bench {
    /// GraphPulse on [`graphpulse_workload`].
    GraphPulse,
    /// Widx on the TPC-H-22 [`widx_workload`].
    Widx,
}

impl Fig18Bench {
    /// Both sweeps, in Figure 18's order.
    pub const ALL: [Fig18Bench; 2] = [Fig18Bench::GraphPulse, Fig18Bench::Widx];

    /// The sweep's short name: the prefix of its cell labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fig18Bench::GraphPulse => "graphpulse",
            Fig18Bench::Widx => "widx",
        }
    }

    /// The label of the cell at one sweep point, e.g. `graphpulse 4/1`.
    #[must_use]
    pub fn label(self, active: usize, exe: usize) -> String {
        format!("{} {active}/{exe}", self.name())
    }

    /// X-Cache cycles at one sweep point: the bench's workload at
    /// `scale` on its geometry with `#Active` and `#Exe` overridden.
    /// Credits them to [`note_sim_cycles`].
    #[must_use]
    pub fn cycles(self, scale: u32, seed: u64, active: usize, exe: usize) -> u64 {
        use xcache_dsa::{graphpulse, widx};

        let cycles = match self {
            Fig18Bench::GraphPulse => {
                let w = graphpulse_workload(scale, seed);
                let g = graphpulse_geometry(w.graph.vertices());
                graphpulse::run_xcache(&w, Some(XCacheConfig { active, exe, ..g })).cycles
            }
            Fig18Bench::Widx => {
                let w = widx_workload(QueryClass::Q22, scale, seed);
                let g = widx_geometry(scale);
                widx::run_xcache(&w, Some(XCacheConfig { active, exe, ..g })).cycles
            }
        };
        note_sim_cycles(cycles);
        cycles
    }
}

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
/// `scale` (Figure 14's sweep; Figures 15 and 16 run it too). Cells are
/// independent, so the runner can execute them in parallel.
#[must_use]
pub fn dsa_scenarios(scale: u32, seed: u64) -> Vec<Scenario<'static, DsaRun>> {
    DsaCluster::all()
        .into_iter()
        .map(|cluster| Scenario::new(cluster.name(), move || cluster.run(scale, seed)))
        .collect()
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

/// Every knob `xpaper` and `xcheck` read, parsed once before either
/// prints anything.
#[derive(Debug)]
pub struct Knobs {
    /// Workload scale divisor (`XCACHE_SCALE`, default 10); `1` =
    /// paper-sized.
    pub scale: u32,
    /// The runner every grid goes through: `XCACHE_JOBS` workers
    /// (default: one per core), reporting each cell when
    /// `XCACHE_VERBOSE` is on.
    pub runner: Runner,
    /// Whether [`dump`](Self::dump) writes `results/<name>.json`
    /// (`XCACHE_JSON`).
    pub(crate) json: bool,
    /// How many seeds a seeded check runs (`XCACHE_SEEDS`); `None` keeps
    /// each check's default.
    pub seed_count: Option<u64>,
    /// The first seed of a seeded check (`XCACHE_BASE_SEED`, default 0).
    pub base_seed: u64,
    /// The chaos check's fault seed (`XCACHE_FAULT_SEED`, default
    /// `0xFA01`), from the simulator's own knob parse.
    pub fault_seed: u64,
    /// The shard count of the sharded check (`XCACHE_SHARDS`, `1..=64`,
    /// default 4).
    pub shards: usize,
}

impl Knobs {
    /// Reads every knob, the simulator's included
    /// ([`xcache_sim::sim_knobs`]). A malformed value prints the
    /// structured error and exits 2.
    #[must_use]
    pub fn from_env() -> Knobs {
        exit2(Knobs::parse())
    }

    fn parse() -> Result<Knobs, EnvError> {
        let sim = sim_knobs()?;
        let jobs = env_count("XCACHE_JOBS", "worker count")?;
        let verbose = env_flag("XCACHE_VERBOSE")?.unwrap_or(false);
        Ok(Knobs {
            scale: env_count("XCACHE_SCALE", "scale divisor")?.unwrap_or(10),
            runner: Runner::new(jobs, verbose),
            json: env_flag("XCACHE_JSON")?.unwrap_or(false),
            seed_count: env_count("XCACHE_SEEDS", "seed count")?,
            base_seed: env_parse("XCACHE_BASE_SEED")?.unwrap_or(0),
            fault_seed: sim.fault_seed,
            shards: env_parse_map("XCACHE_SHARDS", |s| {
                let n: usize = s.parse().map_err(|e| format!("{e}"))?;
                if !(1..=64).contains(&n) {
                    return Err(format!("shard count {n} outside 1..=64"));
                }
                Ok(n)
            })?
            .unwrap_or(4),
        })
    }

    /// A seeded check's seeds: `XCACHE_SEEDS` of them (`default` when
    /// unset), counting up from `XCACHE_BASE_SEED` and wrapping past
    /// `u64::MAX`, so every requested seed runs.
    #[must_use]
    pub fn seeds(&self, default: u64) -> Vec<u64> {
        let count = self.seed_count.unwrap_or(default);
        (0..count).map(|i| self.base_seed.wrapping_add(i)).collect()
    }

    /// Run metadata recorded in every JSON dump: enough to reproduce the
    /// run (scale divisor, job count, commit) and to identify the format,
    /// plus the timing fields (`wall_ms`, `sim_cycles`,
    /// `sim_cycles_per_sec`) since the experiment (or harness) started.
    /// `parallel_fallbacks` counts silent `Par`-pool degradations to
    /// sequential execution — nonzero means the run's wall times came
    /// from a machine that couldn't actually go parallel, so its
    /// throughput numbers undersell the code. The timing fields are
    /// machine-dependent; comparisons across runs must ignore the meta
    /// line (it sits on its own line in the envelope precisely so
    /// `grep -v '^"meta"'` drops it).
    #[must_use]
    pub fn meta_json(&self, name: &str) -> String {
        let wall_ms = start_instant().elapsed().as_millis() as u64;
        let sim_cycles = SIM_CYCLES.load(Ordering::Relaxed);
        let per_sec = sim_cycles
            .saturating_mul(1000)
            .checked_div(wall_ms)
            .unwrap_or(0);
        format!(
            "{{\"schema\":\"xcache-bench/3\",\"experiment\":\"{}\",\"scale\":{},\"jobs\":{},\"git_sha\":\"{}\",\"wall_ms\":{wall_ms},\"sim_cycles\":{sim_cycles},\"sim_cycles_per_sec\":{per_sec},\"parallel_fallbacks\":{}}}",
            json_escape(name),
            self.scale,
            self.runner.jobs(),
            json_escape(&git_sha()),
            xcache_sim::parallel_fallbacks()
        )
    }

    /// Writes `{"meta": ..., "<key>": <body>}` to `results/<name>.json`
    /// when `XCACHE_JSON` is on. Every dump goes through here, so all of
    /// them carry the same self-describing metadata envelope.
    ///
    /// # Errors
    ///
    /// As for [`write_file`]: a requested dump that is missing fails the
    /// run.
    pub fn dump(&self, name: &str, key: &str, body: &str) -> Result<(), String> {
        if !self.json {
            return Ok(());
        }
        let out = format!(
            "{{\n\"meta\": {},\n\"{key}\": {body}\n}}\n",
            self.meta_json(name)
        );
        write_file(&Path::new("results").join(format!("{name}.json")), &out)
    }

    /// [`dump`](Self::dump)s a rendered table (headers + rows) under
    /// `"table"` — the machine-readable twin of what was printed.
    ///
    /// # Errors
    ///
    /// As for [`dump`](Self::dump).
    pub fn dump_table(
        &self,
        name: &str,
        headers: &[&str],
        rows: &[Vec<String>],
    ) -> Result<(), String> {
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
        self.dump(name, "table", &body)
    }
}

/// Writes `contents` to `path`, creating its directory first, and notes
/// the file on stderr: the one writer of dumps and check artifacts.
///
/// # Errors
///
/// `cannot write <path>: <reason>` when the directory cannot be created
/// or the file cannot be written.
pub fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("(wrote {})", path.display());
    Ok(())
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
            assert_eq!(Knobs::from_env().scale, 10);
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
        let m = Knobs::from_env().meta_json("figNN");
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
