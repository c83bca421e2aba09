//! The parallel scenario runner every simulated experiment routes through.
//!
//! A figure or table is a *grid* of independent cells: each cell runs one
//! (deterministic, single-threaded) simulation and produces a row, a
//! report, or a cycle count. Experiments declare the grid as a list of
//! [`Scenario`]s; the [`Runner`] executes the cells — in parallel across
//! `XCACHE_JOBS` worker threads — and returns the results *in declaration
//! order*, so the rendered tables and JSON dumps are byte-identical
//! whatever the job count or completion order.
//!
//! Parallelism lives only here, between cells. No simulation is ever
//! split across threads, so per-cell results are bit-exact regardless of
//! scheduling.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use xcache_sim::StatsSnapshot;

/// One cell of an experiment grid: a label (for progress reporting) and
/// the closure that computes it.
///
/// The closure may borrow from the enclosing scope (shared workloads are
/// built once and borrowed by every cell); the runner executes it on a
/// scoped worker thread.
pub struct Scenario<'a, T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Scenario<'a, T> {
    /// Declares a cell.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'a) -> Self {
        Scenario {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The cell's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Executes a grid of [`Scenario`]s across a pool of worker threads.
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    verbose: bool,
}

impl Runner {
    /// A runner with `jobs` workers, or one per available core when
    /// `None` (the `XCACHE_JOBS` default); `verbose` reports each cell on
    /// stderr (`XCACHE_VERBOSE`).
    #[must_use]
    pub fn new(jobs: Option<usize>, verbose: bool) -> Self {
        let jobs = jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Runner {
            verbose,
            ..Runner::with_jobs(jobs)
        }
    }

    /// A quiet runner with an explicit worker count (clamped to at
    /// least 1).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            verbose: false,
        }
    }

    /// The worker count this runner was built with.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every cell and returns the results in declaration order.
    ///
    /// With one job the cells run inline on the calling thread; otherwise
    /// scoped workers pull cells from a shared index and store results by
    /// cell position, so the output order never depends on scheduling.
    /// A verbose runner prints a `[runner] i/n <label>` line per cell on
    /// stderr.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any cell.
    pub fn run<T: Send>(&self, cells: Vec<Scenario<'_, T>>) -> Vec<T> {
        let n = cells.len();
        let verbose = self.verbose;
        let jobs = self.jobs.min(n.max(1));
        if jobs <= 1 {
            return cells
                .into_iter()
                .enumerate()
                .map(|(i, c)| {
                    if verbose {
                        eprintln!("[runner] {}/{n} {}", i + 1, c.label);
                    }
                    (c.run)()
                })
                .collect();
        }
        let tasks: Vec<Mutex<Option<Scenario<'_, T>>>> =
            cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell = tasks[i]
                        .lock()
                        .expect("task lock")
                        .take()
                        .expect("each cell is claimed once");
                    if verbose {
                        eprintln!("[runner] {}/{n} {}", i + 1, cell.label);
                    }
                    let value = (cell.run)();
                    *slots[i].lock().expect("slot lock") = Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot lock")
                    .expect("every cell completed")
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Checkpointed execution: the durable-sweep path the scenario service
// (`crates/serve`) builds on.
// ---------------------------------------------------------------------------

/// One cell of a *checkpointed* sweep.
///
/// Unlike [`Scenario`], the closure is `Fn` (an attempt that times out,
/// panics, or returns an error can be retried) and the result is a JSON
/// payload string (cell results must serialize into the sweep journal).
/// Simulations are deterministic, so a retried attempt reproduces the
/// original payload byte for byte.
pub struct Cell<'a> {
    label: String,
    run: Box<dyn Fn() -> Result<String, String> + Send + Sync + 'a>,
}

impl<'a> Cell<'a> {
    /// Declares a restartable cell.
    pub fn new(
        label: impl Into<String>,
        run: impl Fn() -> Result<String, String> + Send + Sync + 'a,
    ) -> Self {
        Cell {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The cell's label — the journal key, unique within a sweep.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Terminal (or not-yet-terminal) state of one checkpointed cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell completed; the payload is its JSON result.
    Done(String),
    /// Every attempt failed; the reason is a structured description of
    /// the last failure. A failed cell does not poison the sweep.
    Failed(String),
    /// The cell was never completed this run (cancelled before it was
    /// claimed, or its last attempt was interrupted by a drain). Pending
    /// cells are *not* committed to the store, so a resumed run
    /// re-executes them.
    Pending,
}

/// Cell-granular result of a checkpointed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// Declaration position in the sweep grid.
    pub index: usize,
    /// The cell's label.
    pub label: String,
    /// Terminal state.
    pub status: CellStatus,
    /// Attempts made *by this process* (0 when reused from the store).
    pub attempts: u32,
    /// `true` when the result was replayed from the store instead of
    /// executed — the resume path.
    pub reused: bool,
}

impl CellOutcome {
    /// Whether the cell reached a terminal state (done or failed).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        !matches!(self.status, CellStatus::Pending)
    }
}

/// Durable completion log a checkpointed run replays from and commits
/// to. [`commit`](CheckpointStore::commit) may return before the
/// outcome is durable; [`flush`](CheckpointStore::flush) is the barrier
/// (the service's journal group-commits: one fsync covers every record
/// appended while the previous fsync ran). [`MemStore`] is the
/// in-memory stand-in for tests and overhead measurement.
pub trait CheckpointStore: Sync {
    /// The already-recorded terminal result for `label`, if any:
    /// `Ok(payload)` for a completed cell, `Err(reason)` for one that
    /// exhausted its retries in a previous run.
    fn lookup(&self, label: &str) -> Option<Result<String, String>>;

    /// Records a terminal outcome. Called at most once per cell per
    /// run. The store must not announce the outcome to anyone before it
    /// is durable, but it need not wait for that before returning.
    fn commit(&self, outcome: &CellOutcome);

    /// Blocks until every outcome committed so far is durable and
    /// published. `Runner::run_with_checkpoint` calls it before it
    /// returns, so whatever the caller does with the results comes
    /// strictly after the last cell is durable.
    fn flush(&self) {}

    /// Streaming hook: an attempt on `label` is starting.
    fn started(&self, _index: usize, _label: &str, _attempt: u32) {}
}

/// An in-memory [`CheckpointStore`]: a plain map, no durability. Used by
/// tests and by the checkpoint-overhead benchmark as the zero-cost
/// reference.
#[derive(Default)]
pub struct MemStore {
    cells: Mutex<std::collections::HashMap<String, Result<String, String>>>,
}

impl MemStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-populates a completed cell (simulating a previous run).
    pub fn preload(&self, label: &str, result: Result<String, String>) {
        self.cells
            .lock()
            .expect("mem store lock")
            .insert(label.to_owned(), result);
    }
}

impl CheckpointStore for MemStore {
    fn lookup(&self, label: &str) -> Option<Result<String, String>> {
        self.cells
            .lock()
            .expect("mem store lock")
            .get(label)
            .cloned()
    }

    fn commit(&self, outcome: &CellOutcome) {
        let result = match &outcome.status {
            CellStatus::Done(p) => Ok(p.clone()),
            CellStatus::Failed(r) => Err(r.clone()),
            CellStatus::Pending => return,
        };
        self.cells
            .lock()
            .expect("mem store lock")
            .insert(outcome.label.clone(), result);
    }
}

/// Per-cell robustness policy for a checkpointed run.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Extra attempts after the first (so `retries = 2` means up to
    /// three executions).
    pub retries: u32,
    /// Base backoff between attempts; doubles per retry, capped at 5 s.
    pub backoff_ms: u64,
    /// Wall-clock deadline per attempt (`XCACHE_CELL_TIMEOUT_MS` in the
    /// service). `None` = unbounded. The deadline is host-level only: it
    /// never reaches into the simulation, whose own liveness guard is
    /// the cycle watchdog.
    pub timeout_ms: Option<u64>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            retries: 2,
            backoff_ms: 50,
            timeout_ms: None,
        }
    }
}

/// Renders a panic payload into the structured failure reason.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("cell panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("cell panicked: {s}")
    } else {
        "cell panicked".into()
    }
}

impl Runner {
    /// Runs a sweep with durable per-cell checkpointing: cells already
    /// terminal in `store` are replayed without execution; the rest run
    /// across the worker pool with per-attempt wall deadlines, bounded
    /// retry with exponential backoff, and panic containment. Terminal
    /// outcomes are committed to `store` as they land and the store is
    /// flushed before the results are returned, so a process killed at
    /// any instant resumes by re-running exactly the cells whose
    /// completion never reached the store.
    ///
    /// Setting `cancel` drains the run: in-flight attempts finish (and
    /// commit), unclaimed cells come back [`CellStatus::Pending`].
    ///
    /// Results arrive in declaration order regardless of scheduling, so
    /// an output assembled from them — or from the store — is
    /// byte-identical to an uninterrupted run's.
    pub fn run_with_checkpoint(
        &self,
        cells: Vec<Cell<'_>>,
        store: &dyn CheckpointStore,
        policy: &CheckpointPolicy,
        cancel: &AtomicBool,
    ) -> Vec<CellOutcome> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::sync::Arc;
        use std::time::Duration;

        let n = cells.len();
        let jobs = self.jobs.min(n.max(1));
        let labels: Vec<String> = cells.iter().map(|c| c.label().to_owned()).collect();
        let tasks: Vec<Mutex<Option<Cell<'_>>>> =
            cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let slots: Vec<Mutex<Option<CellOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    if cancel.load(Ordering::SeqCst) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell = Arc::new(
                        tasks[i]
                            .lock()
                            .expect("task lock")
                            .take()
                            .expect("each cell is claimed once"),
                    );
                    let label = cell.label().to_owned();

                    // Resume path: a terminal result in the store is
                    // authoritative; never re-execute.
                    if let Some(prior) = store.lookup(&label) {
                        let status = match prior {
                            Ok(p) => CellStatus::Done(p),
                            Err(r) => CellStatus::Failed(r),
                        };
                        *slots[i].lock().expect("slot lock") = Some(CellOutcome {
                            index: i,
                            label,
                            status,
                            attempts: 0,
                            reused: true,
                        });
                        continue;
                    }

                    let mut attempts = 0u32;
                    let mut outcome: Option<CellOutcome> = None;
                    while attempts <= policy.retries {
                        attempts += 1;
                        store.started(i, &label, attempts);
                        let result = match policy.timeout_ms {
                            None => {
                                let cell = Arc::clone(&cell);
                                catch_unwind(AssertUnwindSafe(move || (cell.run)()))
                                    .unwrap_or_else(|p| Err(panic_reason(p)))
                            }
                            Some(ms) => {
                                // The attempt runs on its own thread so a
                                // wall-clock overrun can be abandoned; the
                                // Arc keeps the cell alive for any
                                // straggler still executing.
                                let (tx, rx) = mpsc::channel();
                                let runner = Arc::clone(&cell);
                                s.spawn(move || {
                                    let r = catch_unwind(AssertUnwindSafe(|| (runner.run)()))
                                        .unwrap_or_else(|p| Err(panic_reason(p)));
                                    let _ = tx.send(r);
                                });
                                match rx.recv_timeout(Duration::from_millis(ms)) {
                                    Ok(r) => r,
                                    Err(_) => {
                                        Err(format!("cell deadline exceeded ({ms} ms wall clock)"))
                                    }
                                }
                            }
                        };
                        match result {
                            Ok(payload) => {
                                outcome = Some(CellOutcome {
                                    index: i,
                                    label: label.clone(),
                                    status: CellStatus::Done(payload),
                                    attempts,
                                    reused: false,
                                });
                                break;
                            }
                            Err(reason) => {
                                if attempts > policy.retries {
                                    outcome = Some(CellOutcome {
                                        index: i,
                                        label: label.clone(),
                                        status: CellStatus::Failed(format!(
                                            "{reason} (after {attempts} attempts)"
                                        )),
                                        attempts,
                                        reused: false,
                                    });
                                    break;
                                }
                                if cancel.load(Ordering::SeqCst) {
                                    // Drain requested mid-retry: leave the
                                    // cell pending (uncommitted) so the
                                    // resumed run re-executes it.
                                    break;
                                }
                                let backoff = policy
                                    .backoff_ms
                                    .saturating_mul(1 << (attempts - 1).min(16))
                                    .min(5_000);
                                std::thread::sleep(Duration::from_millis(backoff));
                            }
                        }
                    }
                    if let Some(out) = outcome {
                        // The store announces the outcome once it is
                        // durable; the caller sees it only after the
                        // flush below.
                        store.commit(&out);
                        *slots[i].lock().expect("slot lock") = Some(out);
                    }
                });
            }
        });
        store.flush();

        slots
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                m.into_inner()
                    .expect("slot lock")
                    .unwrap_or_else(|| CellOutcome {
                        index: i,
                        label: labels[i].clone(),
                        status: CellStatus::Pending,
                        attempts: 0,
                        reused: false,
                    })
            })
            .collect()
    }
}

/// Merges per-cell counter snapshots into one suite-level snapshot
/// (counters add; derived histogram counters add too, which keeps
/// `.sum`/`.count` meaningful while `.p50`-style entries become sums —
/// use the per-cell snapshots for percentiles).
pub fn merge_snapshots<'a, I>(snaps: I) -> StatsSnapshot
where
    I: IntoIterator<Item = &'a StatsSnapshot>,
{
    let mut out = StatsSnapshot::default();
    for s in snaps {
        for (k, v) in &s.counters {
            *out.counters.entry(k.clone()).or_insert(0) += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic, order-sensitive per-cell computation: a SplitMix64
    /// chain seeded by the cell parameter.
    fn chain(seed: u64, steps: u64) -> u64 {
        let mut x = seed;
        let mut acc = 0u64;
        for _ in 0..steps {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc = acc.wrapping_add(z ^ (z >> 31));
        }
        acc
    }

    fn grid<'a>() -> Vec<Scenario<'a, Vec<String>>> {
        (0..16u64)
            .map(|i| {
                Scenario::new(format!("cell {i}"), move || {
                    vec![i.to_string(), chain(i, 10_000 + i * 997).to_string()]
                })
            })
            .collect()
    }

    #[test]
    fn results_follow_declaration_order() {
        let rows = Runner::with_jobs(4).run(grid());
        assert_eq!(rows.len(), 16);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], i.to_string());
        }
    }

    #[test]
    fn parallel_equals_sequential_byte_for_byte() {
        let seq = Runner::with_jobs(1).run(grid());
        let par = Runner::with_jobs(8).run(grid());
        assert_eq!(seq, par);
        // The rendered artefacts are identical too.
        let headers = ["cell", "value"];
        assert_eq!(
            crate::render_table(&headers, &seq),
            crate::render_table(&headers, &par)
        );
    }

    #[test]
    fn cells_may_borrow_shared_state() {
        let shared: Vec<u64> = (1..=100).collect();
        let cells: Vec<Scenario<'_, u64>> = (0..8usize)
            .map(|i| {
                Scenario::new(format!("sum {i}"), {
                    let shared = &shared;
                    move || shared.iter().skip(i).sum()
                })
            })
            .collect();
        let sums = Runner::with_jobs(3).run(cells);
        assert_eq!(sums[0], 5050);
        assert!(sums.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn jobs_clamp_to_one() {
        assert_eq!(Runner::with_jobs(0).jobs(), 1);
    }

    #[test]
    fn merge_snapshots_adds_counters() {
        let mut a = StatsSnapshot::default();
        a.counters.insert("x".into(), 3);
        a.counters.insert("y".into(), 1);
        let mut b = StatsSnapshot::default();
        b.counters.insert("x".into(), 4);
        let m = merge_snapshots([&a, &b]);
        assert_eq!(m.get("x"), 7);
        assert_eq!(m.get("y"), 1);
    }

    #[test]
    fn labels_are_kept() {
        let s = Scenario::new("hello", || 1u32);
        assert_eq!(s.label(), "hello");
    }

    #[test]
    fn checkpoint_run_commits_and_orders_results() {
        let store = MemStore::new();
        let cells: Vec<Cell<'_>> = (0..6u64)
            .map(|i| {
                Cell::new(format!("c{i}"), move || {
                    Ok(format!("{{\"v\":{}}}", chain(i, 500)))
                })
            })
            .collect();
        let outcomes = Runner::with_jobs(3).run_with_checkpoint(
            cells,
            &store,
            &CheckpointPolicy::default(),
            &AtomicBool::new(false),
        );
        assert_eq!(outcomes.len(), 6);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.label, format!("c{i}"));
            assert_eq!(o.attempts, 1);
            assert!(!o.reused);
            assert_eq!(
                o.status,
                CellStatus::Done(format!("{{\"v\":{}}}", chain(i as u64, 500)))
            );
            assert_eq!(
                store.lookup(&o.label),
                Some(Ok(format!("{{\"v\":{}}}", chain(i as u64, 500))))
            );
        }
    }

    #[test]
    fn checkpoint_resume_skips_completed_cells() {
        let store = MemStore::new();
        store.preload("c0", Ok("{\"v\":0}".into()));
        store.preload("c2", Err("prior failure".into()));
        let executed = AtomicUsize::new(0);
        let cells: Vec<Cell<'_>> = (0..4)
            .map(|i| {
                let executed = &executed;
                Cell::new(format!("c{i}"), move || {
                    executed.fetch_add(1, Ordering::SeqCst);
                    Ok(format!("{{\"v\":{i}}}"))
                })
            })
            .collect();
        let outcomes = Runner::with_jobs(2).run_with_checkpoint(
            cells,
            &store,
            &CheckpointPolicy::default(),
            &AtomicBool::new(false),
        );
        // Only the two cells absent from the store executed.
        assert_eq!(executed.load(Ordering::SeqCst), 2);
        assert!(outcomes[0].reused && outcomes[2].reused);
        assert_eq!(outcomes[0].status, CellStatus::Done("{\"v\":0}".into()));
        assert_eq!(
            outcomes[2].status,
            CellStatus::Failed("prior failure".into())
        );
        assert_eq!(outcomes[1].status, CellStatus::Done("{\"v\":1}".into()));
        assert_eq!(outcomes[3].status, CellStatus::Done("{\"v\":3}".into()));
    }

    #[test]
    fn checkpoint_retries_then_succeeds_and_exhausts() {
        let store = MemStore::new();
        let flaky_calls = AtomicUsize::new(0);
        let cells = vec![
            Cell::new("flaky", || {
                if flaky_calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("transient".into())
                } else {
                    Ok("{\"ok\":true}".into())
                }
            }),
            Cell::new("hopeless", || Err("always broken".into())),
            Cell::new("panicky", || panic!("boom {}", 42)),
        ];
        let policy = CheckpointPolicy {
            retries: 2,
            backoff_ms: 1,
            timeout_ms: None,
        };
        let outcomes = Runner::with_jobs(1).run_with_checkpoint(
            cells,
            &store,
            &policy,
            &AtomicBool::new(false),
        );
        assert_eq!(outcomes[0].status, CellStatus::Done("{\"ok\":true}".into()));
        assert_eq!(outcomes[0].attempts, 3);
        match &outcomes[1].status {
            CellStatus::Failed(r) => {
                assert!(r.contains("always broken"), "{r}");
                assert!(r.contains("3 attempts"), "{r}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        match &outcomes[2].status {
            CellStatus::Failed(r) => {
                assert!(r.contains("panicked") && r.contains("boom 42"), "{r}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
        // Failures are committed too — a resumed run must not retry a
        // cell that already exhausted its budget.
        assert!(store.lookup("hopeless").unwrap().is_err());
    }

    #[test]
    fn checkpoint_deadline_fails_slow_cells() {
        let store = MemStore::new();
        let cells = vec![
            Cell::new("slow", || {
                std::thread::sleep(std::time::Duration::from_millis(400));
                Ok("{}".into())
            }),
            Cell::new("fast", || Ok("{\"fast\":1}".into())),
        ];
        let policy = CheckpointPolicy {
            retries: 0,
            backoff_ms: 1,
            timeout_ms: Some(40),
        };
        let outcomes = Runner::with_jobs(2).run_with_checkpoint(
            cells,
            &store,
            &policy,
            &AtomicBool::new(false),
        );
        match &outcomes[0].status {
            CellStatus::Failed(r) => assert!(r.contains("deadline exceeded"), "{r}"),
            other => panic!("expected deadline failure, got {other:?}"),
        }
        assert_eq!(outcomes[1].status, CellStatus::Done("{\"fast\":1}".into()));
    }

    #[test]
    fn checkpoint_cancel_leaves_unclaimed_cells_pending() {
        let store = MemStore::new();
        let cancel = AtomicBool::new(false);
        let cells: Vec<Cell<'_>> = (0..5)
            .map(|i| {
                let cancel = &cancel;
                Cell::new(format!("c{i}"), move || {
                    // The first executed cell requests a drain; in-flight
                    // work still completes and commits.
                    cancel.store(true, Ordering::SeqCst);
                    Ok(format!("{{\"v\":{i}}}"))
                })
            })
            .collect();
        let outcomes = Runner::with_jobs(1).run_with_checkpoint(
            cells,
            &store,
            &CheckpointPolicy::default(),
            &cancel,
        );
        assert_eq!(outcomes[0].status, CellStatus::Done("{\"v\":0}".into()));
        assert!(store.lookup("c0").is_some());
        for o in &outcomes[1..] {
            assert_eq!(o.status, CellStatus::Pending, "{}", o.label);
            assert!(store.lookup(&o.label).is_none());
        }
    }
}
