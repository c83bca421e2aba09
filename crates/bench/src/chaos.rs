//! Chaos harness: the generated-program runs and the DSA drives re-run
//! under seeded fault plans with a tightened watchdog budget.
//!
//! Two layers, both replayable byte-for-byte from `(seed, fault_seed)`:
//!
//! * **Fuzz-program chaos** ([`run_fuzz_chaos`]) — the generated walker
//!   programs, through the one fixture and drive of [`crate::fuzz`], run
//!   under the aggressive [`DEFAULT_CHAOS_SPEC`] (fill drops, delays, ECC
//!   flips, port/response stalls, meta-tag misfires). There is no
//!   functional oracle for a faulted run, so the checks are *liveness and
//!   conservation* invariants: the run terminates well inside its cycle
//!   bound (the watchdog converts stuck walks into retries or contained
//!   kills), the instance quiesces after the stream, every access is
//!   answered exactly once, and `walker_launch == walker_retire +
//!   walker_fault + walker_replay` at quiescence.
//!
//! * **DSA chaos cells** ([`run_dsa_chaos_cell`]) — the fig04 Widx
//!   workload (coroutine and blocking-thread disciplines, fig07's axis)
//!   under the timing-only [`DSA_TIMING_SPEC`]: delays and stalls may
//!   reshape the schedule but must not change what the walks compute, so
//!   the oracle checksum still binds and is checked. The GraphPulse cell
//!   runs the full [`DEFAULT_CHAOS_SPEC`]; its walker never touches DRAM
//!   (event payloads live on-chip), so most kinds are structurally inert
//!   there and the cell asserts termination under an armed plan. Three
//!   cells run the 4-shard topology under [`SHARD_CHAOS_SPEC`], which adds
//!   the bank-conflict-storm and crossbar link-delay kinds — still
//!   timing-only — so the differentials exercise fault determinism
//!   *through the parallel-time machinery*: sharded Widx (fig04 workload)
//!   and sharded SpGEMM (Gustavson), where the oracle checksum binds and
//!   is enforced, and sharded GraphPulse, where on-chip-only event state
//!   makes the checksum unenforceable and the cell asserts termination
//!   only. The Widx and SpGEMM drives also fail a run that answers a probe
//!   or element twice, or one they never issued, so their cells enforce
//!   exactly-once completion as well.
//!
//! Both layers render each run to a string, and the `chaos_smoke` check
//! (`xcheck chaos_smoke`) demands those renderings be byte-identical with
//! fast-forwarding on and off ([`crate::skip_differential`]) and at one
//! and two runner jobs ([`crate::jobs_differential`]) — with faults
//! armed, which is exactly when per-tick randomness would betray itself.
//! It drives both layers over `XCACHE_SEEDS` seeds in CI and dumps
//! violating runs (with their harvested
//! [`StallReport`](xcache_sim::StallReport)s) to
//! `results/chaos/violations.txt`.

use std::sync::Arc;

use xcache_core::{splitmix64, WalkerDiscipline};
use xcache_dsa::{graphpulse, widx, RunReport};
use xcache_mem::MemoryPort;
use xcache_sim::json::Value;
use xcache_sim::{with_fault_plan, with_watchdog_budget, FaultPlan, StatsSnapshot};
use xcache_workloads::QueryClass;

use crate::fuzz::{drive, fixture, merged_stats};
use crate::{
    counters_value, graphpulse_geometry, graphpulse_workload, json_object, note_sim_cycles,
    string_array, widx_geometry, widx_workload,
};

/// The aggressive spec for fuzz-program chaos: every fault kind armed at
/// rates that fire several times per 96-access run without drowning it.
pub const DEFAULT_CHAOS_SPEC: &str = "dram_drop=0.02,dram_delay=0.03:40,dram_ecc=0.01,\
     port_stall=0.02:6,resp_stall=0.02:24,meta_misfire=0.01";

/// Timing-only spec for the oracle-checked Widx cells: no drops, flips,
/// or misfires, so the faulted run must still compute the exact oracle
/// checksum — schedule perturbations may never change results.
pub const DSA_TIMING_SPEC: &str = "dram_delay=0.02:48,port_stall=0.02:4,resp_stall=0.02:24";

/// Timing-only spec for the sharded Widx cell: the single-instance
/// delays plus the sharded-topology kinds — `bank_conflict_storm`
/// inflates bank service latency, `link_delay` holds crossbar messages
/// on the wire. Neither changes data, so the oracle checksum binds.
pub const SHARD_CHAOS_SPEC: &str = "dram_delay=0.02:48,port_stall=0.02:4,resp_stall=0.02:24,\
     bank_conflict_storm=0.05:24,link_delay=0.08:8";

/// Shard count for the sharded chaos cell.
pub const CHAOS_SHARDS: usize = 4;

/// Watchdog budget for chaos runs: far above any legitimate wait in the
/// fuzz/DSA workloads (hundreds of cycles), far below the runs' cycle
/// bounds, so a dropped fill costs one retry round-trip instead of a
/// million-cycle default budget.
pub const CHAOS_WATCHDOG_BUDGET: u64 = 10_000;

/// Everything observable about one fault-injected fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Program/workload seed (as in [`crate::fuzz`]).
    pub seed: u64,
    /// Chaos seed the per-run [`FaultPlan`] derives from.
    pub fault_seed: u64,
    /// End cycle of the run (after the quiescence drain).
    pub cycles: u64,
    /// Order-independent fold of every response (found flag + payload).
    pub checksum: u64,
    /// Rendered [`StallReport`](xcache_sim::StallReport)s the watchdog
    /// emitted — expected non-empty whenever a fill was dropped.
    pub stall_reports: Vec<String>,
    /// Invariant violations; an empty list is a passing run.
    pub violations: Vec<String>,
    /// Merged controller + DRAM counters.
    pub stats: StatsSnapshot,
}

impl ChaosReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical JSON rendering — the byte string the differentials
    /// compare (stall-report text included, so report content is part of
    /// the determinism contract).
    #[must_use]
    pub fn stats_json(&self) -> String {
        json_object([
            ("seed", Value::from_u64(self.seed)),
            ("fault_seed", Value::from_u64(self.fault_seed)),
            ("cycles", Value::from_u64(self.cycles)),
            ("checksum", Value::from_u64(self.checksum)),
            ("stalls", string_array(&self.stall_reports)),
            ("violations", string_array(&self.violations)),
            ("counters", counters_value(&self.stats)),
        ])
        .render()
    }
}

/// The per-run fault plan: one spec, seeded from the chaos seed mixed
/// with a per-run salt so plans differ across runs of a batch while
/// staying fully reproducible from `(fault_seed, salt)`.
fn plan_for(spec: &str, fault_seed: u64, salt: u64) -> Arc<FaultPlan> {
    let seed = splitmix64(fault_seed ^ splitmix64(salt));
    Arc::new(FaultPlan::parse(spec, seed).expect("chaos spec parses"))
}

/// Runs the generated-program fixture for `seed` through the fuzz drive
/// (exactly [`crate::fuzz::run_seed`]'s run) under the
/// [`DEFAULT_CHAOS_SPEC`] fault plan and the chaos watchdog budget, then
/// checks liveness and conservation instead of a functional oracle: the
/// run ends inside its cycle bound, the instance quiesces, every access
/// is answered exactly once, and walker accounting balances.
///
/// The fault-plan and watchdog overrides are applied *inside* this
/// function, so it is safe to call from runner worker threads.
#[must_use]
pub fn run_fuzz_chaos(seed: u64, fault_seed: u64, accesses: usize) -> ChaosReport {
    let plan = plan_for(DEFAULT_CHAOS_SPEC, fault_seed, seed);
    with_fault_plan(Some(plan), || {
        with_watchdog_budget(CHAOS_WATCHDOG_BUDGET, || {
            let (mut xc, stream) = fixture(seed, accesses);
            let run = drive(&mut xc, &stream, usize::MAX, |_| {});
            let mut answers = run.answers;
            let mut violations: Vec<String> = run
                .hang
                .into_iter()
                .map(|h| format!("hung: {h} (watchdog failed to keep the run live)"))
                .collect();

            // Quiesce: no walk may outlive its access stream, and nothing
            // may answer twice. Single-stepped, so both skip modes drain
            // identically.
            let mut now = run.end;
            let mut spins = 0u32;
            while xc.busy() || xc.downstream().busy() {
                now = now.next();
                xc.tick(now);
                while let Some(resp) = xc.take_response(now) {
                    *answers.entry(resp.id).or_insert(0) += 1;
                    violations.push(format!(
                        "stray response for access {} after the stream completed",
                        resp.id
                    ));
                }
                spins += 1;
                if spins > 200_000 {
                    violations.push("instance never quiesced after the stream completed".into());
                    break;
                }
            }

            for (id, n) in answers.iter().filter(|&(_, &n)| n > 1) {
                violations.push(format!("access {id} answered {n} times"));
            }

            let launched = xc.stats().get("xcache.walker_launch");
            let retired = xc.stats().get("xcache.walker_retire");
            let faulted = xc.stats().get("xcache.walker_fault");
            let replayed = xc.stats().get("xcache.walker_replay");
            if launched != retired + faulted + replayed {
                violations.push(format!(
                    "walker conservation violated: {launched} launched != \
                     {retired} retired + {faulted} faulted + {replayed} replayed"
                ));
            }

            ChaosReport {
                seed,
                fault_seed,
                cycles: now.raw(),
                checksum: run.checksum,
                stall_reports: xc.stall_reports().iter().map(ToString::to_string).collect(),
                violations,
                stats: merged_stats(&xc),
            }
        })
    })
}

/// One DSA scenario run under chaos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosCell {
    /// The fig04 workload (Widx TPC-H Q19), coroutine discipline, under
    /// [`DSA_TIMING_SPEC`]; the oracle checksum is enforced.
    WidxFig04,
    /// The same workload under the blocking-thread discipline (fig07's
    /// ablation axis), same spec and oracle check.
    WidxBlockingThread,
    /// The fig14 GraphPulse PageRank cell under the full
    /// [`DEFAULT_CHAOS_SPEC`]; termination and determinism only.
    GraphPulse,
    /// The fig04 workload on the [`CHAOS_SHARDS`]-shard topology under
    /// [`SHARD_CHAOS_SPEC`] (bank conflict storms + crossbar link
    /// delays); timing-only, so the oracle checksum is enforced, and the
    /// drive fails on a probe answered twice or never issued.
    WidxSharded,
    /// SpGEMM (Gustavson) on the sharded topology under
    /// [`SHARD_CHAOS_SPEC`]. The product checksum folds exact small-int
    /// f64 MACs order-independently, so timing-only faults must leave it
    /// equal to the oracle — enforced, like the sharded Widx cell. The
    /// drive fails on an element answered twice or never issued, and
    /// finishes only when every element has retired, so each A-element's
    /// MACs are charged exactly once.
    SpgemmSharded,
    /// GraphPulse PageRank on the sharded topology under
    /// [`SHARD_CHAOS_SPEC`]. Event payloads live on-chip, so a watchdog
    /// kill legitimately drops in-flight upserts — the checksum does not
    /// bind (same rationale as the non-sharded GraphPulse cell); the cell
    /// asserts termination (the cycle bound and the requeue livelock
    /// bound) plus the skip/jobs byte-identity.
    GraphPulseSharded,
}

impl ChaosCell {
    /// Every cell, in declaration order. New cells append: the per-cell
    /// fault-plan salt is `cell as u64 + 1`, so insertion in the middle
    /// would silently reshuffle every later cell's fault schedule.
    pub const ALL: [ChaosCell; 6] = [
        ChaosCell::WidxFig04,
        ChaosCell::WidxBlockingThread,
        ChaosCell::GraphPulse,
        ChaosCell::WidxSharded,
        ChaosCell::SpgemmSharded,
        ChaosCell::GraphPulseSharded,
    ];

    /// Stable label (also the determinism-diff key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChaosCell::WidxFig04 => "widx-fig04",
            ChaosCell::WidxBlockingThread => "widx-blocking-thread",
            ChaosCell::GraphPulse => "graphpulse",
            ChaosCell::WidxSharded => "widx-sharded",
            ChaosCell::SpgemmSharded => "spgemm-sharded",
            ChaosCell::GraphPulseSharded => "graphpulse-sharded",
        }
    }
}

/// Whether a rendered cell (from [`run_dsa_chaos_cell`]) recorded any
/// violation.
#[must_use]
pub fn cell_has_violation(rendered: &str) -> bool {
    !rendered.contains("\"violations\":[]")
}

/// Runs one DSA scenario under its chaos plan and returns the canonical
/// rendering. Overrides are applied inside, so this is safe from runner
/// worker threads; determinism differentials compare the returned
/// strings byte-for-byte.
///
/// Each cell calls the unchecked drive that the checked `run_xcache*`
/// wrappers call, so a hang comes back as a violation instead of a
/// panic, and so does a response for a probe or element the Widx and
/// SpGEMM drives never issued or already answered.
#[must_use]
pub fn run_dsa_chaos_cell(cell: ChaosCell, scale: u32, seed: u64, fault_seed: u64) -> String {
    use xcache_dsa::spgemm::{self, Algorithm, SpgemmWorkload};

    match cell {
        ChaosCell::WidxFig04 | ChaosCell::WidxBlockingThread => {
            let w = widx_workload(QueryClass::Q19, scale, seed);
            let mut g = widx_geometry(scale);
            if cell == ChaosCell::WidxBlockingThread {
                g.discipline = WalkerDiscipline::BlockingThread;
            }
            let oracle = (w.oracle_checksum(), "results");
            chaos_cell(cell, DSA_TIMING_SPEC, fault_seed, Some(oracle), || {
                widx::drive_xcache(&w, Some(g), widx::walker())
            })
        }
        // The sharded cells arm the plan *outside* the horizon runner, so
        // worker threads inherit it through the parallel-time machinery —
        // exactly the path where a thread-dependent fault decision would
        // break byte-identity.
        ChaosCell::WidxSharded => {
            let w = widx_workload(QueryClass::Q19, scale, seed);
            let g = widx_geometry(scale);
            let oracle = (w.oracle_checksum(), "sharded results");
            chaos_cell(cell, SHARD_CHAOS_SPEC, fault_seed, Some(oracle), || {
                widx::drive_xcache_sharded(&w, Some(g), CHAOS_SHARDS)
            })
        }
        ChaosCell::SpgemmSharded => {
            let w = SpgemmWorkload::paper_like(Algorithm::Gustavson, scale, seed);
            let g = crate::spgemm_geometry(scale);
            let oracle = (w.oracle_checksum(), "sharded spgemm product");
            chaos_cell(cell, SHARD_CHAOS_SPEC, fault_seed, Some(oracle), || {
                spgemm::drive_xcache_sharded(&w, Some(g), CHAOS_SHARDS)
            })
        }
        ChaosCell::GraphPulse | ChaosCell::GraphPulseSharded => {
            let w = graphpulse_workload(scale, seed);
            let g = graphpulse_geometry(w.graph.vertices());
            if cell == ChaosCell::GraphPulse {
                chaos_cell(cell, DEFAULT_CHAOS_SPEC, fault_seed, None, || {
                    graphpulse::drive_xcache(&w, Some(g)).map(|(r, _)| r)
                })
            } else {
                chaos_cell(cell, SHARD_CHAOS_SPEC, fault_seed, None, || {
                    graphpulse::drive_xcache_sharded(&w, Some(g), CHAOS_SHARDS).map(|(r, _)| r)
                })
            }
        }
    }
}

/// Runs `drive` under `spec`'s plan for `cell` and the chaos watchdog
/// budget, and renders the outcome. `oracle` is the checksum timing-only
/// faults must leave alone, with what it checks; a cell without one
/// asserts termination only.
fn chaos_cell(
    cell: ChaosCell,
    spec: &str,
    fault_seed: u64,
    oracle: Option<(u64, &str)>,
    drive: impl FnOnce() -> Result<RunReport, String>,
) -> String {
    let plan = plan_for(spec, fault_seed, cell as u64 + 1);
    let out = with_fault_plan(Some(plan), || {
        with_watchdog_budget(CHAOS_WATCHDOG_BUDGET, drive)
    });
    let name = ("cell", Value::Str(cell.name().into()));
    let rendered = match out {
        Ok(r) => {
            note_sim_cycles(r.cycles);
            let violation =
                oracle
                    .filter(|&(expected, _)| r.checksum != expected)
                    .map(|(expected, what)| {
                        format!(
                            "timing-only faults changed {what}: checksum {} != oracle {expected}",
                            r.checksum
                        )
                    });
            json_object([
                name,
                ("cycles", Value::from_u64(r.cycles)),
                ("checksum", Value::from_u64(r.checksum)),
                ("violations", string_array(violation.as_slice())),
                ("counters", counters_value(&r.stats)),
            ])
        }
        Err(e) => json_object([name, ("violations", string_array(&[e]))]),
    };
    rendered.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::FuzzReport;
    use xcache_sim::json;

    /// Text that `Debug` and JSON spell differently, or that only JSON
    /// can carry: a quote, a backslash, a newline and a control byte.
    const AWKWARD: &str = "say \"hi\" \\ twice\nthen\u{1}stop";

    #[test]
    fn renderings_are_json_whatever_their_strings_hold() {
        let strings = |doc: &Value, key: &str| -> Vec<String> {
            let items = doc.get(key).and_then(Value::as_arr).expect("an array");
            items
                .iter()
                .map(|v| v.as_str().unwrap().to_owned())
                .collect()
        };
        let chaos = ChaosReport {
            seed: 1,
            fault_seed: 2,
            cycles: 3,
            checksum: 4,
            stall_reports: vec![AWKWARD.to_owned(), "plain".to_owned()],
            violations: vec![AWKWARD.to_owned()],
            stats: StatsSnapshot::default(),
        };
        let doc = json::parse(&chaos.stats_json()).expect("the chaos rendering parses");
        assert_eq!(strings(&doc, "stalls"), chaos.stall_reports);
        assert_eq!(strings(&doc, "violations"), chaos.violations);

        let fuzz = FuzzReport {
            seed: 1,
            cycles: 2,
            checksum: 3,
            stats: StatsSnapshot::default(),
            hang: Some(AWKWARD.to_owned()),
        };
        let doc = json::parse(&fuzz.stats_json()).expect("the fuzz rendering parses");
        assert_eq!(doc.get("hang").and_then(Value::as_str), Some(AWKWARD));
    }

    #[test]
    fn fuzz_chaos_runs_are_deterministic_and_clean() {
        let a = run_fuzz_chaos(3, 7, 48);
        let b = run_fuzz_chaos(3, 7, 48);
        assert_eq!(a, b);
        assert_eq!(a.stats_json(), b.stats_json());
        assert!(a.ok(), "violations: {:?}", a.violations);
        assert!(a.cycles > 0);
    }

    #[test]
    fn fault_seed_reaches_the_run() {
        // Across a handful of fault seeds the injected-fault counters
        // must differ somewhere — the plan is actually armed.
        let fired: Vec<u64> = (0..4)
            .map(|fs| {
                let r = run_fuzz_chaos(3, fs, 96);
                r.stats
                    .counters
                    .iter()
                    .filter(|(k, _)| k.contains(".fault."))
                    .map(|(_, v)| *v)
                    .sum()
            })
            .collect();
        assert!(
            fired.iter().any(|&n| n > 0),
            "no fault ever fired across fault seeds: {fired:?}"
        );
    }

    #[test]
    fn chaos_skip_differential_agrees() {
        let r = crate::skip_differential(
            "chaos seed 11",
            || run_fuzz_chaos(11, 5, 48),
            ChaosReport::stats_json,
        )
        .expect("skip modes agree under faults");
        assert!(r.ok(), "violations: {:?}", r.violations);
    }

    #[test]
    fn chaos_jobs_differential_agrees() {
        let out = crate::jobs_differential("chaos seed", &[1, 2, 3], |seed| {
            run_fuzz_chaos(seed, 9, 32).stats_json()
        })
        .expect("job counts agree");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn widx_chaos_cell_is_deterministic_and_oracle_clean() {
        let a = run_dsa_chaos_cell(ChaosCell::WidxFig04, 64, 1, 2);
        let b = run_dsa_chaos_cell(ChaosCell::WidxFig04, 64, 1, 2);
        assert_eq!(a, b);
        assert!(!cell_has_violation(&a), "cell violated: {a}");
    }

    #[test]
    fn sharded_chaos_cell_is_deterministic_across_par_modes() {
        use xcache_sim::{with_par_mode, with_par_threads, ParMode};
        let seq = with_par_mode(ParMode::Seq, || {
            run_dsa_chaos_cell(ChaosCell::WidxSharded, 64, 1, 2)
        });
        let par = with_par_mode(ParMode::Par, || {
            with_par_threads(2, || run_dsa_chaos_cell(ChaosCell::WidxSharded, 64, 1, 2))
        });
        assert_eq!(seq, par, "sharded chaos diverged between seq and par");
        assert!(!cell_has_violation(&seq), "cell violated: {seq}");
    }

    #[test]
    fn new_sharded_cells_terminate_exactly_once_under_chaos() {
        // SpGEMM: a clean run means every A-element was answered exactly
        // once (the sharded drive returns `Err`, rendered as a violation,
        // on a duplicate or unissued answer, and only finishes when all
        // retire); the product checksum must survive timing-only faults.
        let spgemm = run_dsa_chaos_cell(ChaosCell::SpgemmSharded, 64, 1, 2);
        assert!(!cell_has_violation(&spgemm), "cell violated: {spgemm}");
        assert!(
            spgemm.contains("\"cycles\":"),
            "run did not terminate: {spgemm}"
        );
        // GraphPulse: termination under the same spec; the checksum is
        // deliberately unenforced (on-chip-only upsert state), so a clean
        // cell is exactly "terminated with no violations recorded".
        let gp = run_dsa_chaos_cell(ChaosCell::GraphPulseSharded, 64, 1, 2);
        assert!(!cell_has_violation(&gp), "cell violated: {gp}");
        assert!(gp.contains("\"cycles\":"), "run did not terminate: {gp}");
    }

    #[test]
    fn sharded_chaos_faults_reach_bank_and_link() {
        // Across a handful of fault seeds the sharded-topology kinds
        // must fire somewhere — the spec actually arms them.
        let fired: Vec<(u64, u64)> = (0..4)
            .map(|fs| {
                let r = json::parse(&run_dsa_chaos_cell(ChaosCell::WidxSharded, 64, 1, fs))
                    .expect("a chaos cell renders JSON");
                let counters = r.get("counters").expect("a terminated run has counters");
                let grab = |key: &str| counters.get(key).and_then(Value::as_u64).unwrap_or(0);
                (
                    grab("bank.fault.conflict_storm"),
                    grab("shard.link_fault_delays"),
                )
            })
            .collect();
        assert!(
            fired.iter().any(|&(b, _)| b > 0),
            "no bank conflict storm ever fired: {fired:?}"
        );
        assert!(
            fired.iter().any(|&(_, l)| l > 0),
            "no link delay ever fired: {fired:?}"
        );
    }
}
