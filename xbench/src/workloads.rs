//! The workloads: inputs built from explicit parameters, the operation
//! each one repeats, and the checks every operation's output must pass.
//!
//! Inputs are generated here from literal presets, dimensions and
//! geometries (never from the harness's scale helpers), so a change to
//! those helpers cannot silently change what is measured; the digest of
//! every seed-7 input is pinned in [`PINNED_SEED7`].

use std::rc::Rc;

use xcache_core::{WalkerDiscipline, XCache, XCacheConfig};
use xcache_dsa::graphpulse::GraphPulseWorkload;
use xcache_dsa::spgemm::{Algorithm, SpgemmWorkload};
use xcache_dsa::widx::WidxWorkload;
use xcache_dsa::{dasx, graphpulse, spgemm, widx, RunReport};
use xcache_isa::WalkerProgram;
use xcache_mem::{DramConfig, DramModel};
use xcache_sim::{prof_reset, prof_snapshot, with_par_mode, with_par_threads, ParMode};
use xcache_workloads::{CsrMatrix, Graph, QueryClass, SparsePattern, TpchPreset};

use crate::layers::StageTotals;
use crate::service::ServiceBench;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Widx on TPC-H Q19 probes whose hot keys stay resident.
    WidxHit,
    /// Widx on TPC-H Q22 probes against a 5%-resident cache.
    WidxMiss,
    /// Gamma (Gustavson) SpGEMM, A x A on an R-MAT matrix.
    Spgemm,
    /// GraphPulse PageRank on an R-MAT graph.
    Graphpulse,
    /// `WidxHit`'s input on two address-interleaved shards.
    WidxSharded,
    /// Figure 14's grid: five DSAs in all three storage configurations.
    PaperGrid,
    /// The scenario service: demo jobs over HTTP with a durable journal.
    Service,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 7] = [
        Workload::WidxHit,
        Workload::WidxMiss,
        Workload::Spgemm,
        Workload::Graphpulse,
        Workload::WidxSharded,
        Workload::PaperGrid,
        Workload::Service,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WidxHit => "widx_hit",
            Workload::WidxMiss => "widx_miss",
            Workload::Spgemm => "spgemm",
            Workload::Graphpulse => "graphpulse",
            Workload::WidxSharded => "widx_sharded",
            Workload::PaperGrid => "paper_grid",
            Workload::Service => "service",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input digests for `--seed 7`. A mismatch means the generators or the
/// parameters below changed, so results are no longer comparable with
/// earlier runs.
pub const PINNED_SEED7: [(Workload, u64); 7] = [
    (Workload::WidxHit, 0x29ae_d191_a906_8b0b),
    (Workload::WidxMiss, 0x2567_e162_dd39_ee8a),
    (Workload::Spgemm, 0x9760_1b06_a419_4275),
    (Workload::Graphpulse, 0x329a_803c_2f30_780a),
    (Workload::WidxSharded, 0x1bcd_0f7d_d56f_8629),
    (Workload::PaperGrid, 0x3e7b_abf2_c2bf_1d9a),
    (Workload::Service, 0x33a1_776f_9fd0_2874),
];

/// Simulator-visible counts of one operation, summed over its runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles of every run.
    pub sim_cycles: u64,
    /// Simulated cycles of the X-Cache runs only.
    pub xcache_cycles: u64,
    /// Meta-tag hits of loads and stores (`xcache.hit`, `xcache.store_hit`).
    pub hits: u64,
    /// Meta-tag misses of loads and stores.
    pub misses: u64,
    /// Walker launches (`xcache.walker_launch`).
    pub walker_launches: u64,
    /// DRAM reads plus writes.
    pub dram_accesses: u64,
}

/// What one operation produced; every operation of a simulation workload
/// must produce exactly the reference run's outcome.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// `(label, cycles, checksum)` of each simulated run, in order.
    pub runs: Vec<(String, u64, u64)>,
    /// Counts summed over the runs.
    pub counts: Counts,
}

impl Outcome {
    fn push(&mut self, r: &RunReport) {
        let c = &mut self.counts;
        c.sim_cycles += r.cycles;
        if r.label.starts_with("xcache") {
            c.xcache_cycles += r.cycles;
        }
        c.hits += r.stats.get("xcache.hit") + r.stats.get("xcache.store_hit");
        c.misses += r.stats.get("xcache.miss") + r.stats.get("xcache.store_miss");
        c.walker_launches += r.stats.get("xcache.walker_launch");
        c.dram_accesses += r.dram_accesses();
        self.runs.push((r.label.clone(), r.cycles, r.checksum));
    }
}

/// Runs simulations, recording each run's stage table when traced.
pub struct Tracer {
    traced: bool,
    /// Stage totals of the runs since the caller last took them.
    pub stages: StageTotals,
}

impl Tracer {
    /// A tracer; `traced` means this process has `XCACHE_PROF` armed.
    #[must_use]
    pub fn new(traced: bool) -> Tracer {
        Tracer {
            traced,
            stages: StageTotals::default(),
        }
    }

    fn run(&mut self, f: &dyn Fn() -> RunReport) -> RunReport {
        if self.traced {
            prof_reset();
        }
        let report = f();
        if self.traced {
            self.stages.add_run(&prof_snapshot());
        }
        report
    }
}

/// One workload, set up and ready to repeat its operation.
pub trait Bench {
    /// Runs untimed reference work the operations are checked against.
    ///
    /// # Errors
    ///
    /// A description of a reference that failed its own checks.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One operation.
    ///
    /// # Errors
    ///
    /// A description of a wrong or failed result.
    fn op(&mut self, tracer: &mut Tracer) -> Result<Outcome, String>;

    /// Digest of the generated inputs and geometries.
    fn digest(&self) -> u64;

    /// Builds, once, every walker program and controller instance that
    /// one operation builds; returns how many it built.
    fn build_once(&self) -> usize {
        0
    }

    /// Marks the start of the measured operations (after warm-up).
    fn start_measuring(&mut self) {}

    /// Runs untimed checks after the measured operations.
    ///
    /// # Errors
    ///
    /// A description of a failed check.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Workload-specific per-operation facts gathered since
    /// [`Bench::start_measuring`].
    fn facts(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Generates `workload`'s inputs for `seed`: the benchmark's set-up.
///
/// # Errors
///
/// A description of a set-up that could not complete (the service's
/// server failing to start).
pub fn setup(workload: Workload, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        Workload::WidxHit => Box::new(widx_bench(&WIDX_HIT_PRESET, WIDX_HIT_GEOMETRY, seed, None)),
        Workload::WidxMiss => Box::new(widx_bench(
            &WIDX_MISS_PRESET,
            WIDX_MISS_GEOMETRY,
            seed,
            None,
        )),
        Workload::Spgemm => {
            let w = spgemm_workload(Algorithm::Gustavson, SPGEMM_DIMS, seed);
            let mut d = Digest::new();
            d.geometry(&SPGEMM_GEOMETRY).matrix(&w.a);
            let mut bench = SimBench::new(d.finish(), None);
            bench.cell_with_build(
                move || spgemm::run_xcache(&w, Some(SPGEMM_GEOMETRY)),
                build_fn(SPGEMM_GEOMETRY, spgemm::walker),
            );
            Box::new(bench)
        }
        Workload::Graphpulse => {
            let (w, adjacency) = graphpulse_workload(GRAPHPULSE_DIMS, GRAPHPULSE_ITERATIONS, seed);
            let mut d = Digest::new();
            d.geometry(&GRAPHPULSE_GEOMETRY)
                .matrix(&adjacency)
                .word(GRAPHPULSE_ITERATIONS as u64);
            let mut bench = SimBench::new(d.finish(), None);
            bench.cell_with_build(
                move || graphpulse::run_xcache(&w, Some(GRAPHPULSE_GEOMETRY)),
                build_fn(GRAPHPULSE_GEOMETRY, graphpulse::walker),
            );
            Box::new(bench)
        }
        Workload::WidxSharded => Box::new(widx_bench(
            &WIDX_HIT_PRESET,
            WIDX_HIT_GEOMETRY,
            seed,
            Some(SHARDS),
        )),
        Workload::PaperGrid => Box::new(paper_grid(seed)),
        Workload::Service => Box::new(ServiceBench::start(seed)?),
    })
}

// ---------------------------------------------------------------------------
// Inputs. Every size and geometry is a literal.

/// A geometry literal: the fields Table 3 varies, with the controller's
/// fixed parameters spelled out.
const fn geometry(
    active: usize,
    exe: usize,
    ways: usize,
    sets: usize,
    words_per_sector: usize,
    data_sectors: usize,
) -> XCacheConfig {
    XCacheConfig {
        active,
        exe,
        ways,
        sets,
        words_per_sector,
        data_sectors,
        hit_latency: 3,
        hash_latency: 1,
        xregs_per_walker: 8,
        thread_context_regs: 32,
        discipline: WalkerDiscipline::Coroutine,
        params: Vec::new(),
        access_queue_depth: 16,
        resp_queue_depth: 64,
    }
}

/// TPC-H Q19 at half the simulation preset, with three probes per
/// preset probe: a skewed stream whose hot keys stay resident.
const WIDX_HIT_PRESET: TpchPreset = TpchPreset {
    class: QueryClass::Q19,
    index_keys: 10_000,
    load_factor: 2.0,
    probes: 45_000,
    zipf_alpha: 0.9,
    miss_rate: 0.03,
    hash_latency: 60,
};

/// Table 3's Widx geometry at half the sets.
const WIDX_HIT_GEOMETRY: XCacheConfig = geometry(16, 2, 8, 512, 4, 4096);

/// TPC-H Q22's index at a quarter of the preset, with 1.5 probes per
/// preset probe: cheap hash, mild skew.
const WIDX_MISS_PRESET: TpchPreset = TpchPreset {
    class: QueryClass::Q22,
    index_keys: 6_000,
    load_factor: 2.0,
    probes: 11_250,
    zipf_alpha: 0.6,
    miss_rate: 0.05,
    hash_latency: 6,
};

/// 128 sets x 2 ways with 128 data sectors: about 5% of the index is
/// resident, so nearly every probe walks to DRAM.
const WIDX_MISS_GEOMETRY: XCacheConfig = geometry(16, 2, 2, 128, 4, 128);

/// Shard count of `widx_sharded`; its pooled check run gives each shard a
/// thread.
const SHARDS: usize = 2;

/// p2p-Gnutella31's shape (N = 67K, NNZ = 147K) at 1/30.
const SPGEMM_DIMS: (u32, usize) = (2_233, 4_900);

/// SpArch/Gamma geometry (32 active, 4 exe, 8 ways) at 32 sets; rows span
/// up to four sectors.
const SPGEMM_GEOMETRY: XCacheConfig = geometry(32, 4, 8, 32, 4, 1024);

/// p2p-Gnutella08's shape (N = 6.3K, NNZ = 21K), full size.
const GRAPHPULSE_DIMS: (u32, usize) = (6_300, 21_000);

/// PageRank iterations per operation.
const GRAPHPULSE_ITERATIONS: usize = 6;

/// Direct-mapped GraphPulse geometry with 2x vertex headroom.
const GRAPHPULSE_GEOMETRY: XCacheConfig = geometry(16, 4, 1, 16_384, 8, 16_384);

fn spgemm_workload(algorithm: Algorithm, (n, nnz): (u32, usize), seed: u64) -> SpgemmWorkload {
    let a = CsrMatrix::generate(n, n, nnz, SparsePattern::RMat, seed);
    SpgemmWorkload {
        b: a.clone(),
        a,
        algorithm,
    }
}

fn graphpulse_workload(
    (n, e): (u32, usize),
    iterations: usize,
    seed: u64,
) -> (GraphPulseWorkload, CsrMatrix) {
    let adjacency = CsrMatrix::generate(n, n, e, SparsePattern::RMat, seed);
    let w = GraphPulseWorkload {
        graph: Graph::from_adjacency(adjacency.clone()),
        iterations,
    };
    (w, adjacency)
}

// ---------------------------------------------------------------------------
// Simulation workloads.

type RunFn = Box<dyn Fn() -> RunReport>;
type BuildFn = Box<dyn Fn()>;

/// A simulation workload: a fixed list of runs per operation.
pub struct SimBench {
    runs: Vec<RunFn>,
    builds: Vec<BuildFn>,
    /// For sharded runs, the worker-pool width of a run made after the
    /// measured operations, which must match the reference byte for byte.
    /// Timed operations use the sequential engine: on a shared 2-vCPU
    /// host, pooled runs of one input swing by a third from run to run,
    /// which no regression bound survives. The pooled run comes last so
    /// its worker's allocations stay out of `peak_rss_mb`.
    pool_threads: Option<usize>,
    expected: Option<Outcome>,
    digest: u64,
}

impl SimBench {
    fn new(digest: u64, pool_threads: Option<usize>) -> SimBench {
        SimBench {
            runs: Vec::new(),
            builds: Vec::new(),
            pool_threads,
            expected: None,
            digest,
        }
    }

    fn cell(&mut self, run: impl Fn() -> RunReport + 'static) {
        self.runs.push(Box::new(run));
    }

    fn cell_with_build(&mut self, run: impl Fn() -> RunReport + 'static, build: BuildFn) {
        self.cell(run);
        self.builds.push(build);
    }

    fn run_all(&self, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        for run in &self.runs {
            out.push(&tracer.run(run.as_ref()));
        }
        out
    }

    fn check(&self, out: &Outcome) -> Result<(), String> {
        match &self.expected {
            Some(expected) if expected != out => Err(describe_mismatch(expected, out)),
            _ => Ok(()),
        }
    }
}

impl Bench for SimBench {
    fn prepare(&mut self) -> Result<(), String> {
        let reference = with_par_mode(ParMode::Seq, || self.run_all(&mut Tracer::new(false)));
        self.expected = Some(reference);
        Ok(())
    }

    fn op(&mut self, tracer: &mut Tracer) -> Result<Outcome, String> {
        let out = with_par_mode(ParMode::Seq, || self.run_all(tracer));
        self.check(&out)?;
        Ok(out)
    }

    fn finish(&mut self) -> Result<(), String> {
        let Some(threads) = self.pool_threads else {
            return Ok(());
        };
        let pooled = with_par_mode(ParMode::Par, || {
            with_par_threads(threads, || self.run_all(&mut Tracer::new(false)))
        });
        self.check(&pooled)
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn build_once(&self) -> usize {
        for build in &self.builds {
            build();
        }
        self.builds.len()
    }
}

fn describe_mismatch(expected: &Outcome, got: &Outcome) -> String {
    let diff = expected
        .runs
        .iter()
        .zip(&got.runs)
        .find(|(a, b)| a != b)
        .map_or_else(
            || format!("counts {:?} vs {:?}", expected.counts, got.counts),
            |(a, b)| format!("run {a:?} vs {b:?}"),
        );
    format!("outcome differs from the reference run: {diff}")
}

/// A closure that builds `walker`'s program and one controller instance
/// of `geometry` — the isa/core construction every X-Cache run pays.
/// Parameter values do not affect construction, so they are zero.
fn build_fn(geometry: XCacheConfig, walker: fn() -> WalkerProgram) -> BuildFn {
    Box::new(move || {
        let program = walker();
        let cfg = geometry
            .clone()
            .with_params(vec![0; program.param_names.len()]);
        let xc = XCache::new(cfg, program, DramModel::new(DramConfig::default()))
            .expect("benchmark geometry builds");
        std::hint::black_box(xc);
    })
}

fn widx_bench(
    preset: &TpchPreset,
    geometry: XCacheConfig,
    seed: u64,
    shards: Option<usize>,
) -> SimBench {
    let w = WidxWorkload::from_preset(preset, seed);
    let mut d = Digest::new();
    d.geometry(&geometry).widx(&w);
    if let Some(s) = shards {
        d.word(s as u64);
    }
    let mut bench = SimBench::new(d.finish(), shards);
    match shards {
        None => {
            let build = build_fn(geometry.clone(), widx::walker);
            bench.cell_with_build(move || widx::run_xcache(&w, Some(geometry.clone())), build);
        }
        Some(shards) => {
            let shard = xcache_core::shard_geometry(&geometry, shards);
            bench.cell(move || widx::run_xcache_sharded(&w, Some(geometry.clone()), shards));
            for _ in 0..shards {
                bench.builds.push(build_fn(shard.clone(), widx::walker));
            }
        }
    }
    bench
}

/// A miniature of Figure 14's grid: Widx on Q19/Q20/Q22, DASX on Q22 and
/// GraphPulse on p2p-08 at 1/40 of the simulation presets (with half the
/// harness's probes), SpArch and Gamma on p2p-31 at 1/200; each as
/// X-Cache, the matched address cache and the hardwired baseline.
fn paper_grid(seed: u64) -> SimBench {
    const WIDX_GEOMETRY: XCacheConfig = geometry(16, 2, 8, 64, 4, 512);
    const DASX_GEOMETRY: XCacheConfig = geometry(16, 4, 8, 64, 4, 512);
    const GP_GEOMETRY: XCacheConfig = geometry(16, 4, 1, 512, 8, 512);
    const SP_GEOMETRY: XCacheConfig = geometry(32, 4, 8, 32, 4, 1024);
    let q = |class, index_keys, probes, zipf_alpha, miss_rate, hash_latency| TpchPreset {
        class,
        index_keys,
        load_factor: match class {
            QueryClass::Q20 => 2.5,
            _ => 2.0,
        },
        probes,
        zipf_alpha,
        miss_rate,
        hash_latency,
    };
    let widx_presets = [
        q(QueryClass::Q19, 500, 1_125, 0.9, 0.03, 60),
        q(QueryClass::Q20, 400, 900, 0.8, 0.05, 60),
        q(QueryClass::Q22, 600, 1_125, 0.6, 0.05, 6),
    ];

    let mut d = Digest::new();
    let mut bench = SimBench::new(0, None);
    for preset in &widx_presets {
        let w = Rc::new(WidxWorkload::from_preset(preset, seed));
        d.geometry(&WIDX_GEOMETRY).widx(&w);
        let (a, b, c) = (Rc::clone(&w), Rc::clone(&w), w);
        bench.cell_with_build(
            move || widx::run_xcache(&a, Some(WIDX_GEOMETRY)),
            build_fn(WIDX_GEOMETRY, widx::walker),
        );
        bench.cell(move || widx::run_address_cache(&b, Some(WIDX_GEOMETRY)));
        bench.cell(move || widx::run_baseline(&c, Some(WIDX_GEOMETRY)));
    }

    let dasx_w = Rc::new(dasx::DasxWorkload::from_preset(&widx_presets[2], seed));
    d.geometry(&DASX_GEOMETRY).widx(&dasx_w.0);
    let (a, b, c) = (Rc::clone(&dasx_w), Rc::clone(&dasx_w), dasx_w);
    bench.cell_with_build(
        move || dasx::run_xcache(&a, Some(DASX_GEOMETRY)),
        build_fn(DASX_GEOMETRY, widx::walker),
    );
    bench.cell(move || dasx::run_address_cache(&b, Some(DASX_GEOMETRY)));
    bench.cell(move || dasx::run_baseline(&c, Some(DASX_GEOMETRY)));

    let (gp_w, adjacency) = graphpulse_workload((157, 525), 2, seed);
    d.geometry(&GP_GEOMETRY).matrix(&adjacency).word(2);
    let gp_w = Rc::new(gp_w);
    let (a, b, c) = (Rc::clone(&gp_w), Rc::clone(&gp_w), gp_w);
    bench.cell_with_build(
        move || graphpulse::run_xcache(&a, Some(GP_GEOMETRY)),
        build_fn(GP_GEOMETRY, graphpulse::walker),
    );
    bench.cell(move || graphpulse::run_address_cache(&b, Some(GP_GEOMETRY)));
    // A single-port hardwired coalescing queue, GraphPulse's own design.
    bench.cell(move || graphpulse::run_baseline(&c, 1));

    for algorithm in [Algorithm::OuterProduct, Algorithm::Gustavson] {
        let w = Rc::new(spgemm_workload(algorithm, (335, 735), seed));
        d.geometry(&SP_GEOMETRY).matrix(&w.a).word(algorithm as u64);
        let (a, b, c) = (Rc::clone(&w), Rc::clone(&w), w);
        bench.cell_with_build(
            move || spgemm::run_xcache(&a, Some(SP_GEOMETRY)),
            build_fn(SP_GEOMETRY, spgemm::walker),
        );
        bench.cell(move || spgemm::run_address_cache(&b, Some(SP_GEOMETRY)));
        bench.cell(move || spgemm::run_baseline(&c, Some(SP_GEOMETRY)));
    }
    bench.digest = d.finish();
    bench
}

/// Figure 14's headline: geometric mean over the grid's seven clusters of
/// X-Cache's speedup over the matched address cache. `None` unless
/// `outcome` has the grid's shape (three runs per cluster).
#[must_use]
pub fn grid_geomean_speedup(outcome: &Outcome) -> Option<f64> {
    let runs = &outcome.runs;
    if runs.is_empty() || !runs.len().is_multiple_of(3) {
        return None;
    }
    let logs: Vec<f64> = runs
        .chunks(3)
        .map(|c| (c[1].1 as f64 / c[0].1.max(1) as f64).ln())
        .collect();
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

// ---------------------------------------------------------------------------
// Input digests.

/// FNV-1a over the bytes of generated inputs.
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    #[must_use]
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes in one word.
    pub fn word(&mut self, w: u64) -> &mut Digest {
        self.bytes(&w.to_le_bytes())
    }

    fn geometry(&mut self, g: &XCacheConfig) -> &mut Digest {
        self.bytes(format!("{g:?}").as_bytes())
    }

    fn widx(&mut self, w: &WidxWorkload) -> &mut Digest {
        self.word(w.hash_latency);
        for &p in &w.probes {
            self.word(p);
        }
        for (addr, bytes) in w.index.layout(0).segments {
            self.word(addr).bytes(&bytes);
        }
        self
    }

    fn matrix(&mut self, m: &CsrMatrix) -> &mut Digest {
        self.word(u64::from(m.rows)).word(u64::from(m.cols));
        for &x in m.row_ptr.iter().chain(&m.col_idx) {
            self.word(u64::from(x));
        }
        for &v in &m.values {
            self.word(v.to_bits());
        }
        self
    }

    /// The digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn literal_geometries_build_their_walkers() {
        for (g, walker) in [
            (WIDX_HIT_GEOMETRY, widx::walker as fn() -> WalkerProgram),
            (WIDX_MISS_GEOMETRY, widx::walker),
            (SPGEMM_GEOMETRY, spgemm::walker),
            (GRAPHPULSE_GEOMETRY, graphpulse::walker),
        ] {
            build_fn(g, walker)();
        }
    }

    /// An operation's simulated cycles are exactly a direct call's.
    #[test]
    fn op_cycles_equal_direct_dsa_calls() {
        let seed = 3;
        let hit = WidxWorkload::from_preset(&WIDX_HIT_PRESET, seed);
        let miss = WidxWorkload::from_preset(&WIDX_MISS_PRESET, seed);
        let sp = spgemm_workload(Algorithm::Gustavson, SPGEMM_DIMS, seed);
        let (gp, _) = graphpulse_workload(GRAPHPULSE_DIMS, GRAPHPULSE_ITERATIONS, seed);
        let direct = [
            (
                Workload::WidxHit,
                widx::run_xcache(&hit, Some(WIDX_HIT_GEOMETRY)),
            ),
            (
                Workload::WidxMiss,
                widx::run_xcache(&miss, Some(WIDX_MISS_GEOMETRY)),
            ),
            (
                Workload::Spgemm,
                spgemm::run_xcache(&sp, Some(SPGEMM_GEOMETRY)),
            ),
            (
                Workload::Graphpulse,
                graphpulse::run_xcache(&gp, Some(GRAPHPULSE_GEOMETRY)),
            ),
            (
                Workload::WidxSharded,
                widx::run_xcache_sharded(&hit, Some(WIDX_HIT_GEOMETRY), SHARDS),
            ),
        ];
        for (w, report) in direct {
            let mut bench = setup(w, seed).unwrap();
            bench.prepare().unwrap();
            let out = bench.op(&mut Tracer::new(false)).unwrap();
            assert_eq!(out.counts.sim_cycles, report.cycles, "{}", w.name());
            assert_eq!(
                out.runs,
                vec![(report.label, report.cycles, report.checksum)]
            );
        }
    }

    #[test]
    fn seed7_inputs_match_their_pinned_digests() {
        for (w, pinned) in PINNED_SEED7 {
            assert_eq!(setup(w, 7).unwrap().digest(), pinned, "{}", w.name());
        }
    }

    #[test]
    fn geomean_needs_the_grid_shape() {
        let mut o = Outcome::default();
        assert_eq!(grid_geomean_speedup(&o), None);
        for (label, cycles) in [("xcache", 100), ("addr-cache", 400), ("baseline", 1)] {
            o.runs.push((label.into(), cycles, 0));
        }
        assert_eq!(grid_geomean_speedup(&o), Some(4.0));
    }
}
