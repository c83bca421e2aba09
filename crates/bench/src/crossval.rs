//! Differential cross-validation: the cycle-level simulator against the
//! analytical `xcache-oracle` model.
//!
//! The two implementations share no code — the simulator executes walker
//! microcode over event-driven time; the oracle replays a pure access
//! stream against the documented replacement semantics. Agreement is
//! therefore evidence that *both* implement the spec, and a divergence
//! localises a bug to whichever side broke its contract.
//!
//! Two tolerance classes, declared per cell and enforced here:
//!
//! * **Exact** — serially-driven simulation (one access retired before
//!   the next is issued). With no concurrency there is nothing the
//!   oracle abstracts away, so *every* comparable counter must match
//!   exactly, for any replacement state: aggregate hits/misses, stores,
//!   meta allocations and evictions, and the per-set counters exported by
//!   `MetaTagArray`. The trace buffer is tapped as a third opinion on the
//!   same run.
//! * **Bounded** — pipelined driving (the real harnesses). Concurrency
//!   changes what the hit-side counters *mean*: an access arriving while
//!   a same-key walker is in flight attaches as a **waiter**
//!   (`xcache.waiter`), answered either inline (counted once) or by
//!   replaying through the front-end at retire (counted a second time as
//!   a hit) — under SpGEMM's column-sorted stream the waiter path takes
//!   the *majority* of loads. The miss side has no such ambiguity (one
//!   launch per counted miss), so bounded cells compare the miss/launch
//!   population and the walker-side structural counters (allocations,
//!   evictions, side-inserts, faults) under a declared tolerance
//!   fraction (budget `ceil(frac × loads)`); since the drivers answer
//!   every access exactly once, predicting the misses pins down the hits
//!   too. Residual divergence is real concurrency: waiters coalescing
//!   onto *faulting* walkers (the oracle re-misses each repeat) and
//!   replacement decisions reordered around resource stalls.
//!
//! The `crossval_smoke` check (`xcheck crossval_smoke`) runs fuzz seeds
//! (`XCACHE_SEEDS`, default 50) through both classes plus the paper's
//! Widx and SpGEMM scenario cells, and writes a per-cell disagreement
//! report to `results/crossval/disagreements.txt` on failure.

use std::fmt::Write as _;

use xcache_core::{MetaAccess, XCacheConfig};
use xcache_isa::effects;
use xcache_oracle::{CacheModel, MissPlan, OracleGeometry, OracleOp, Prediction, SideInsert};
use xcache_sim::{StatsSnapshot, TraceKind};

use crate::fuzz::{drive, fixture, program_and_stream};
use crate::runner::{Runner, Scenario};

/// How closely a cell's simulator counters must match the oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Every compared counter must match exactly (serial driving).
    Exact,
    /// Per-metric absolute disagreement up to `ceil(frac × loads)` is
    /// accepted (pipelined driving).
    Bounded {
        /// Accepted disagreement as a fraction of the replayed loads.
        frac: f64,
    },
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Metric name (the simulator counter it came from).
    pub metric: &'static str,
    /// Simulator value.
    pub sim: u64,
    /// Oracle prediction.
    pub oracle: u64,
}

/// Outcome of cross-validating one cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Cell label (stable; keys the disagreement artifact).
    pub name: String,
    /// Tolerance class the cell declared.
    pub tolerance: Tolerance,
    /// Loads replayed (the tolerance denominator).
    pub loads: u64,
    /// Every compared metric, in comparison order.
    pub comparisons: Vec<Comparison>,
    /// Tolerance violations; empty = the cell passes.
    pub disagreements: Vec<String>,
}

impl CellReport {
    fn new(name: impl Into<String>, tolerance: Tolerance, loads: u64) -> Self {
        CellReport {
            name: name.into(),
            tolerance,
            loads,
            comparisons: Vec::new(),
            disagreements: Vec::new(),
        }
    }

    /// Whether every compared metric was within tolerance.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// The per-metric disagreement budget this cell's tolerance allows.
    #[must_use]
    pub fn budget(&self) -> u64 {
        match self.tolerance {
            Tolerance::Exact => 0,
            Tolerance::Bounded { frac } => (frac * self.loads as f64).ceil() as u64,
        }
    }

    fn check(&mut self, metric: &'static str, sim: u64, oracle: u64) {
        let budget = self.budget();
        if sim.abs_diff(oracle) > budget {
            self.disagreements.push(format!(
                "{}: {metric} sim={sim} oracle={oracle} |Δ|={} > budget {budget}",
                self.name,
                sim.abs_diff(oracle)
            ));
        }
        self.comparisons.push(Comparison {
            metric,
            sim,
            oracle,
        });
    }

    /// Requires `sim == oracle` regardless of the cell's tolerance —
    /// for invariants that concurrency cannot perturb (conservation).
    fn check_invariant(&mut self, metric: &'static str, sim: u64, oracle: u64) {
        if sim != oracle {
            self.disagreements.push(format!(
                "{}: invariant {metric} sim={sim} oracle={oracle} (must match exactly)",
                self.name
            ));
        }
        self.comparisons.push(Comparison {
            metric,
            sim,
            oracle,
        });
    }

    /// Records a simulator run that hit its cycle bound as a disagreement.
    fn hung(&mut self, hang: Option<String>) {
        if let Some(h) = hang {
            self.disagreements
                .push(format!("{}: simulator run hung: {h}", self.name));
        }
    }

    /// Human-readable rendering (one line per metric plus the verdict) —
    /// what the disagreement artifact records.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "cell {} ({:?}, {} loads, budget {}):\n",
            self.name,
            self.tolerance,
            self.loads,
            self.budget()
        );
        for c in &self.comparisons {
            let _ = writeln!(
                out,
                "  {:<18} sim={:<8} oracle={:<8} |Δ|={}",
                c.metric,
                c.sim,
                c.oracle,
                c.sim.abs_diff(c.oracle)
            );
        }
        for d in &self.disagreements {
            let _ = writeln!(out, "  DISAGREE {d}");
        }
        out
    }
}

/// The oracle's prediction for `ops` on the geometry of a simulator
/// configuration (valid for the oracle whenever the simulator takes it).
#[must_use]
pub fn predict(cfg: &XCacheConfig, ops: &[OracleOp]) -> Prediction {
    let geom = OracleGeometry {
        sets: cfg.sets,
        ways: cfg.ways,
        data_sectors: cfg.data_sectors as u64,
    };
    CacheModel::replay(geom, ops).unwrap_or_else(|e| panic!("{e}"))
}

/// The oracle ops for fuzz seed `seed`: the generated program's install
/// size is read off its microcode by [`effects::extract`] — the analysis
/// refuses programs with register-sized fills, which the generator never
/// emits.
#[must_use]
pub fn fuzz_oracle_ops(seed: u64, accesses: usize) -> Vec<OracleOp> {
    let (program, stream) = program_and_stream(seed, accesses);
    let fx = effects::extract(&program);
    let sectors = u32::try_from(
        fx.install_sectors
            .expect("generated fill routines have immediate allocD sizes"),
    )
    .expect("sector count fits");
    assert!(
        !fx.has_side_inserts,
        "generated programs do not side-insert; the plan below would be wrong"
    );
    stream
        .iter()
        .map(|a| match a {
            MetaAccess::Load { key, .. } => OracleOp::Load {
                key: key.raw(),
                plan: MissPlan::install(sectors),
            },
            MetaAccess::Store { key, .. } => OracleOp::Store { key: key.raw() },
            MetaAccess::Take { key, .. } => OracleOp::Take { key: key.raw() },
        })
        .collect()
}

/// The oracle ops for a Widx workload: each probe's plan is derived by
/// walking [`xcache_workloads::HashIndex::chain`] exactly as the walker
/// does — side-insert every node visited before the match (one sector
/// each: a 32-byte node), install one sector on a match, fault on an
/// empty bucket (no side-inserts) or an exhausted chain (every node
/// side-inserted).
#[must_use]
pub fn widx_oracle_ops(w: &xcache_dsa::widx::WidxWorkload) -> Vec<OracleOp> {
    w.probes
        .iter()
        .map(|&key| {
            let chain = w.index.chain(key);
            let mut side_inserts = Vec::new();
            for &(node_key, _) in chain {
                if node_key == key {
                    return OracleOp::Load {
                        key,
                        plan: MissPlan::Install {
                            sectors: 1,
                            side_inserts,
                        },
                    };
                }
                side_inserts.push(SideInsert {
                    key: node_key,
                    sectors: 1,
                });
            }
            OracleOp::Load {
                key,
                plan: MissPlan::Fault { side_inserts },
            }
        })
        .collect()
}

/// The oracle ops for a SpGEMM workload under `cfg`: one load per
/// A-element in dataflow order, keyed by the B row it needs; the plan
/// mirrors the row walker's `setup` routine — fault on an empty row or
/// one at/above the bypass threshold, else install `ceil(row_bytes / 32)`
/// sectors.
#[must_use]
pub fn spgemm_oracle_ops(
    w: &xcache_dsa::spgemm::SpgemmWorkload,
    cfg: &XCacheConfig,
) -> Vec<OracleOp> {
    let sector_bytes = cfg.sector_bytes();
    let max_row_bytes = (cfg.data_capacity_bytes() / 8).max(sector_bytes * 4);
    w.element_stream()
        .iter()
        .map(|&(_, k, _)| {
            let (s, e) = w.b.row_range(k);
            let row_bytes = (e - s) as u64 * 16;
            let key = u64::from(k);
            if row_bytes == 0 || row_bytes >= max_row_bytes {
                OracleOp::Load {
                    key,
                    plan: MissPlan::fault(),
                }
            } else {
                OracleOp::Load {
                    key,
                    plan: MissPlan::install(
                        u32::try_from(row_bytes.div_ceil(sector_bytes)).expect("row fits"),
                    ),
                }
            }
        })
        .collect()
}

/// Everything the serial driver observes about one run.
struct SerialRun {
    stats: StatsSnapshot,
    per_set: Vec<xcache_core::SetCounters>,
    trace_hits: u64,
    trace_misses: u64,
    trace_dropped: u64,
    hang: Option<String>,
}

/// Drives fuzz seed `seed` strictly serially: the fixture and drive of
/// [`crate::fuzz::run_seed`] with one access in flight, so each response
/// is taken before the next access issues.
fn run_fuzz_serial(seed: u64, accesses: usize) -> SerialRun {
    let (mut xc, stream) = fixture(seed, accesses);
    // Every event kind lands in the buffer (yields, wakes, DRAM traffic,
    // retires — not just hits/misses), so size it generously: the tap is
    // only a valid hit/miss tally while nothing has been dropped.
    xc.enable_trace(accesses * 64 + 1024);
    let run = drive(&mut xc, &stream, 1, |_| {});
    let trace = xc.trace();
    SerialRun {
        stats: xc.stats().snapshot(),
        per_set: xc.meta_set_counters().to_vec(),
        trace_hits: trace.count_of_kind(TraceKind::Hit),
        trace_misses: trace.count_of_kind(TraceKind::Miss),
        trace_dropped: trace.dropped(),
        hang: run.hang,
    }
}

/// Cross-validates fuzz seed `seed` serially — the **Exact** class:
/// aggregate counters, the per-set export, and the trace tap must all
/// match the oracle prediction with zero tolerance.
#[must_use]
pub fn fuzz_serial_cell(seed: u64, accesses: usize) -> CellReport {
    let ops = fuzz_oracle_ops(seed, accesses);
    let oracle = predict(&XCacheConfig::test_tiny(), &ops);
    let sim = run_fuzz_serial(seed, accesses);

    let mut report = CellReport::new(
        format!("fuzz-serial seed {seed}"),
        Tolerance::Exact,
        oracle.loads,
    );
    report.hung(sim.hang);
    compare_common(&mut report, &sim.stats, &oracle);
    // Serial driving leaves nothing in flight when the next access
    // arrives, so the waiter path must never trigger.
    report.check_invariant("xcache.waiter", sim.stats.get("xcache.waiter"), 0);
    // Trace tap: a third opinion from the sim's own event stream.
    report.check_invariant("trace.dropped", sim.trace_dropped, 0);
    report.check("trace.hit", sim.trace_hits, oracle.hits);
    report.check("trace.miss", sim.trace_misses, oracle.misses);
    // Per-set counters: the oracle must predict the exact distribution.
    for (set, (s, o)) in sim.per_set.iter().zip(&oracle.per_set).enumerate() {
        if (s.hits, s.allocs, s.evictions) != (o.hits, o.allocs, o.evictions) {
            report.disagreements.push(format!(
                "{}: set {set} sim (h={},a={},e={}) oracle (h={},a={},e={})",
                report.name, s.hits, s.allocs, s.evictions, o.hits, o.allocs, o.evictions
            ));
        }
    }
    report
}

/// Compares the counters both sides define, honouring the cell tolerance.
fn compare_common(report: &mut CellReport, sim: &StatsSnapshot, oracle: &Prediction) {
    for (metric, predicted) in [
        ("xcache.hit", oracle.hits),
        ("xcache.miss", oracle.misses),
        ("xcache.store_hit", oracle.store_hits),
        ("xcache.store_miss", oracle.store_misses),
    ] {
        report.check(metric, sim.get(metric), predicted);
    }
    compare_walker_side(report, sim, oracle);
}

/// Compares the walker-side structural counters — meta allocations and
/// evictions, side-inserts, capacity evictions and faults — which both
/// tolerance classes check.
fn compare_walker_side(report: &mut CellReport, sim: &StatsSnapshot, oracle: &Prediction) {
    for (metric, predicted) in [
        ("xcache.meta_alloc", oracle.meta_allocs),
        ("xcache.meta_evict", oracle.meta_evictions),
        ("xcache.insertm", oracle.insertm),
        ("xcache.insertm_skip", oracle.insertm_skips),
        ("xcache.capacity_evict", oracle.capacity_evictions),
        ("xcache.walker_fault", oracle.walker_faults),
    ] {
        report.check(metric, sim.get(metric), predicted);
    }
}

/// Compares a pipelined run against the oracle.
///
/// The hit-side counters are not oracle-comparable under pipelining:
/// an access coalescing onto an in-flight same-key walker counts as
/// `xcache.waiter`, and a waiter still unanswered when its walker
/// retires *replays* through the front-end and counts a second time as
/// a hit — so `hit + waiter` systematically overcounts by however many
/// waiters replayed, which no counter isolates. (Exactly-once answering
/// is checked elsewhere: the Widx and SpGEMM drives return `Err` on a
/// response for an id they never issued or already answered, which the
/// checked runs these cells call turn into a panic, and the chaos
/// harness counts the fuzz drive's answers per access.) The miss side
/// has no such ambiguity — a walker launches exactly once per counted
/// miss — so the comparison anchors on the miss/launch population and
/// the walker-side structural counters, which also pin down the hit
/// side: the drivers answer every access exactly once, so predicting the
/// misses *is* predicting the hits.
fn compare_pipelined(report: &mut CellReport, sim: &StatsSnapshot, oracle: &Prediction) {
    let degraded = sim.get("xcache.degraded_load") + sim.get("xcache.degraded_store");
    report.check_invariant("degraded", degraded, 0);
    report.check(
        "miss-launched",
        sim.get("xcache.miss") + sim.get("xcache.store_miss") + sim.get("xcache.take_miss"),
        oracle.misses + oracle.store_misses + oracle.take_misses,
    );
    compare_walker_side(report, sim, oracle);
}

/// Tolerance for pipelined fuzz runs. The fuzz cells deliberately stress
/// divergence: a tiny cache (`test_tiny`), a ~32-key universe, and deep
/// pipelining mean coalescing routinely changes which keys get evicted,
/// so miss counts genuinely drift (measured ≤ 17.8% of loads over the CI
/// seed range — against < 0.2% on the realistically-sized paper cells).
/// The serial class carries the exact guarantee; this bound catches
/// gross regressions in either backend.
pub const FUZZ_PIPELINED_FRAC: f64 = 0.25;

/// Cross-validates fuzz seed `seed` through the *pipelined* driver
/// ([`crate::fuzz::run_seed`], the one the differential harnesses use) —
/// the **Bounded** class, plus exact conservation (generated programs
/// cannot fault, so every access is answered exactly once).
#[must_use]
pub fn fuzz_pipelined_cell(seed: u64, accesses: usize) -> CellReport {
    let ops = fuzz_oracle_ops(seed, accesses);
    let oracle = predict(&XCacheConfig::test_tiny(), &ops);
    let sim = crate::fuzz::run_seed(seed, accesses);

    let mut report = CellReport::new(
        format!("fuzz-pipelined seed {seed}"),
        Tolerance::Bounded {
            frac: FUZZ_PIPELINED_FRAC,
        },
        oracle.loads,
    );
    report.hung(sim.hang);
    compare_pipelined(&mut report, &sim.stats, &oracle);
    report
}

/// Tolerance for the pipelined Widx cell. Probes coalescing onto
/// faulting walkers re-miss in the oracle but not the sim, and
/// side-insert placement shifts with launch order; measured divergence
/// on the paper-shaped workload is 0.07% of probes.
pub const WIDX_FRAC: f64 = 0.01;

/// The Widx cross-validation fixture: a TPC-H Q19-shaped index with Zipf
/// probes, and a geometry small enough that capacity pressure exercises
/// evictions. Shared by the harness and the `bench_oracle` predictor.
#[must_use]
pub fn widx_fixture() -> (xcache_dsa::widx::WidxWorkload, XCacheConfig) {
    use xcache_workloads::QueryClass;

    let mut preset = QueryClass::Q19.preset().scaled_down(10);
    preset.probes = 9_000;
    preset.miss_rate = 0.05;
    let w = xcache_dsa::widx::WidxWorkload::from_preset(&preset, 7);
    let g = XCacheConfig {
        sets: 128,
        ways: 4,
        data_sectors: 512,
        ..XCacheConfig::widx()
    };
    (w, g)
}

/// Cross-validates the Widx scenario cell (TPC-H-shaped index, Zipf
/// probes) against the chain-walk oracle plan — **Bounded**.
#[must_use]
pub fn widx_cell() -> CellReport {
    let (w, g) = widx_fixture();
    let oracle = predict(&g, &widx_oracle_ops(&w));
    let sim = xcache_dsa::widx::run_xcache(&w, Some(g));

    let mut report = CellReport::new(
        "widx-q19",
        Tolerance::Bounded { frac: WIDX_FRAC },
        oracle.loads,
    );
    compare_pipelined(&mut report, &sim.stats, &oracle);
    report
}

/// Tolerance for the pipelined SpGEMM cells. Same-row repeats coalesce
/// onto in-flight walkers (nearly always, under the column-sorted
/// stream); repeats of *faulting* rows re-miss in the oracle but
/// coalesce in the sim. Measured divergence on the RMat test matrix is
/// ≤ 0.14% of loads.
pub const SPGEMM_FRAC: f64 = 0.01;

/// The SpGEMM cross-validation fixture: A×A on an RMat matrix (the
/// dsa-crate test shape) with a geometry small enough that oversized
/// rows hit the bypass threshold. Shared by the harness and the
/// `bench_oracle` predictor.
#[must_use]
pub fn spgemm_fixture(
    algorithm: xcache_dsa::spgemm::Algorithm,
) -> (xcache_dsa::spgemm::SpgemmWorkload, XCacheConfig) {
    use xcache_workloads::{CsrMatrix, SparsePattern};

    let a = CsrMatrix::generate(96, 96, 700, SparsePattern::RMat, 11);
    let w = xcache_dsa::spgemm::SpgemmWorkload {
        b: a.clone(),
        a,
        algorithm,
    };
    let g = XCacheConfig {
        sets: 32,
        ways: 4,
        active: 8,
        exe: 4,
        data_sectors: 512,
        ..XCacheConfig::sparch()
    };
    (w, g)
}

/// Cross-validates one SpGEMM scenario cell (A×A on an RMat matrix, the
/// dsa-crate test shape) against the row-walk oracle plan — **Bounded**.
#[must_use]
pub fn spgemm_cell(algorithm: xcache_dsa::spgemm::Algorithm) -> CellReport {
    let (w, g) = spgemm_fixture(algorithm);
    let oracle = predict(&g, &spgemm_oracle_ops(&w, &g));
    let sim = xcache_dsa::spgemm::run_xcache(&w, Some(g));

    let mut report = CellReport::new(
        format!("spgemm-{}", algorithm.name().to_lowercase()),
        Tolerance::Bounded { frac: SPGEMM_FRAC },
        oracle.loads,
    );
    compare_pipelined(&mut report, &sim.stats, &oracle);
    report
}

/// The full suite: every fuzz seed in `seeds` through both classes,
/// plus the paper's Widx and SpGEMM cells. Cells are independent and run
/// through `runner`.
#[must_use]
pub fn run_suite(runner: &Runner, seeds: &[u64], accesses: usize) -> Vec<CellReport> {
    use xcache_dsa::spgemm::Algorithm;

    let mut cells: Vec<Scenario<'static, CellReport>> = Vec::new();
    for &seed in seeds {
        cells.push(Scenario::new(
            format!("crossval fuzz-serial {seed}"),
            move || fuzz_serial_cell(seed, accesses),
        ));
        cells.push(Scenario::new(
            format!("crossval fuzz-pipelined {seed}"),
            move || fuzz_pipelined_cell(seed, accesses),
        ));
    }
    cells.push(Scenario::new("crossval widx-q19", widx_cell));
    cells.push(Scenario::new("crossval spgemm-gamma", || {
        spgemm_cell(Algorithm::Gustavson)
    }));
    cells.push(Scenario::new("crossval spgemm-sparch", || {
        spgemm_cell(Algorithm::OuterProduct)
    }));
    runner.run(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::FUZZ_BASE;
    use xcache_core::{splitmix64, XCache};
    use xcache_isa::gen;
    use xcache_mem::{DramConfig, DramModel};

    /// The oracle's Fibonacci set hash must be the simulator's — pinned
    /// across the crate boundary so neither side can drift silently.
    #[test]
    fn set_hash_pins_to_the_simulator() {
        let cfg = XCacheConfig::test_tiny().with_params(vec![FUZZ_BASE]);
        let sets = cfg.sets;
        let dram = DramModel::new(DramConfig::test_tiny());
        let xc = XCache::new(cfg, gen::generate(0), dram).expect("valid");
        let model = CacheModel::new(OracleGeometry {
            sets,
            ways: 2,
            data_sectors: 4,
        })
        .unwrap();
        let mut x = 0xD1CEu64;
        for _ in 0..1000 {
            x = splitmix64(x);
            assert_eq!(
                xc.meta_set_index(xcache_core::MetaKey::new(x)),
                model.set_index(x),
                "set hash diverged for key {x:#x}"
            );
        }
    }

    #[test]
    fn serial_fuzz_seeds_agree_exactly() {
        for seed in 0..8 {
            let r = fuzz_serial_cell(seed, 64);
            assert!(r.ok(), "{}", r.render());
        }
    }

    #[test]
    fn pipelined_fuzz_seeds_agree_within_tolerance() {
        for seed in 0..8 {
            let r = fuzz_pipelined_cell(seed, 64);
            assert!(r.ok(), "{}", r.render());
        }
    }

    #[test]
    fn widx_cell_agrees_within_tolerance() {
        let r = widx_cell();
        assert!(r.ok(), "{}", r.render());
        assert!(r.loads > 0);
    }

    #[test]
    fn spgemm_cells_agree_within_tolerance() {
        for alg in [
            xcache_dsa::spgemm::Algorithm::Gustavson,
            xcache_dsa::spgemm::Algorithm::OuterProduct,
        ] {
            let r = spgemm_cell(alg);
            assert!(r.ok(), "{}", r.render());
        }
    }

    #[test]
    fn widx_oracle_ops_mirror_the_chain_walk() {
        use xcache_workloads::HashIndex;
        let mut index = HashIndex::new(8);
        index.insert(1, 100);
        index.insert(2, 200);
        let w = xcache_dsa::widx::WidxWorkload {
            index,
            probes: vec![1, 3],
            hash_latency: 4,
        };
        let ops = widx_oracle_ops(&w);
        assert_eq!(ops.len(), 2);
        match &ops[0] {
            OracleOp::Load {
                key: 1,
                plan:
                    MissPlan::Install {
                        sectors: 1,
                        side_inserts,
                    },
            } => {
                // Probe 1 walks its chain; any non-matching head nodes
                // become side-inserts with one sector each.
                assert!(side_inserts.iter().all(|si| si.sectors == 1 && si.key != 1));
            }
            other => panic!("unexpected plan for resident key: {other:?}"),
        }
        match &ops[1] {
            OracleOp::Load {
                key: 3,
                plan: MissPlan::Fault { side_inserts },
            } => {
                assert!(side_inserts.iter().all(|si| si.key != 3));
            }
            other => panic!("missing key must fault: {other:?}"),
        }
    }

    #[test]
    fn report_budget_and_rendering() {
        let mut r = CellReport::new("demo", Tolerance::Bounded { frac: 0.1 }, 100);
        assert_eq!(r.budget(), 10);
        r.check("m", 105, 100); // within budget
        assert!(r.ok());
        r.check("m2", 120, 100); // over budget
        assert!(!r.ok());
        let text = r.render();
        assert!(text.contains("DISAGREE"));
        assert!(text.contains("m2"));
    }
}
