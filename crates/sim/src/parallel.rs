//! Conservative parallel time for sharded simulations.
//!
//! A sharded topology is a set of cells (shard controller + its slice of
//! the memory system) that interact with the driver *only at horizon
//! boundaries*: the driver enqueues work into per-shard links, lets every
//! cell advance independently to an agreed target cycle, then drains
//! responses and picks the next target. Because no cell ever observes
//! another cell mid-horizon, any horizon length is conservative-safe; the
//! lookahead derived from the cells' `next_event` reports (see
//! [`fast_forward`](crate::fast_forward)) and
//! the interconnect's minimum link latency only bounds how *coarse* the
//! boundaries may be before driver feedback (e.g. bypass retries) lags.
//!
//! [`run_horizons`] is the execution engine for that pattern. It has two
//! modes, selected by `XCACHE_PAR`:
//!
//! * `par` (the default): cells advance on a pool of worker threads that
//!   meet at a spin barrier per horizon; the boundary callback always runs
//!   on the calling thread.
//! * `seq`: the reference path — the calling thread advances every cell in
//!   shard order.
//!
//! Both modes are byte-identical by construction: the boundary callback
//! runs single-threaded in a fixed order, cells never share mutable state,
//! and each cell's `advance` is a pure function of its own state and the
//! target cycle. Thread count therefore cannot affect any counter or end
//! cycle — the differential suite asserts this, it does not establish it.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::FaultPlan;
use crate::{skip_enabled, with_fault_plan, with_skip, Cycle};

/// Which engine drives a sharded run.
///
/// Both modes must produce byte-identical output; `Seq` is retained as the
/// reference implementation for differential testing and as an escape
/// hatch (`XCACHE_PAR=seq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParMode {
    /// Single-threaded reference: the caller advances every cell in shard
    /// order between boundaries.
    Seq,
    /// Worker-pool execution: cells advance concurrently inside each
    /// horizon (the default).
    Par,
}

thread_local! {
    static PAR_OVERRIDE: Cell<Option<ParMode>> = const { Cell::new(None) };
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The active engine on this thread: a [`with_par_mode`] override wins,
/// otherwise `XCACHE_PAR` (`seq` selects the reference path; anything
/// else, including unset, selects the worker pool).
#[must_use]
pub fn par_mode() -> ParMode {
    PAR_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(|| crate::env::exit2(crate::env::sim_knobs()).par)
}

/// Runs `f` with the engine forced for the current thread, restoring the
/// previous setting afterwards — what the seq-vs-par differential tests
/// use to compare both executions in one process.
pub fn with_par_mode<T>(mode: ParMode, f: impl FnOnce() -> T) -> T {
    let prev = PAR_OVERRIDE.with(|c| c.replace(Some(mode)));
    let out = f();
    PAR_OVERRIDE.with(|c| c.set(prev));
    out
}

fn env_par_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        crate::env::exit2(crate::env::sim_knobs())
            .par_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
    })
}

/// Worker-pool width for [`run_horizons`] in `Par` mode (including the
/// calling thread): a [`with_par_threads`] override wins, otherwise
/// `XCACHE_PAR_THREADS`, otherwise the machine's available parallelism.
/// The pool is additionally clamped to the cell count per run.
#[must_use]
pub fn par_threads() -> usize {
    THREADS_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(env_par_threads)
        .max(1)
}

/// Runs `f` with the pool width forced for the current thread, restoring
/// the previous setting afterwards.
pub fn with_par_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let prev = THREADS_OVERRIDE.with(|c| c.replace(Some(threads)));
    let out = f();
    THREADS_OVERRIDE.with(|c| c.set(prev));
    out
}

/// Process-global count of sharded runs that fell back to sequential
/// horizon execution because the requested pool was wider than the
/// machine (see [`run_horizons`]). Deliberately *not* a [`Stats`] counter:
/// whether the fallback fires depends on the host's core count, and cell
/// statistics must stay byte-identical across hosts and thread counts —
/// the bench harness surfaces this through its (diff-exempt) meta
/// envelope instead.
///
/// [`Stats`]: crate::Stats
static PAR_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Number of [`run_horizons`] calls so far that degraded an oversubscribed
/// `Par` pool to sequential execution (the `parallel.fallback` count).
#[must_use]
pub fn parallel_fallbacks() -> u64 {
    PAR_FALLBACKS.load(Ordering::Relaxed)
}

/// A cell that [`run_horizons`] can advance on a worker thread.
///
/// `advance(to)` must bring the cell's local clock exactly to `to`, doing
/// whatever internal stepping/fast-forwarding the cell needs, and must
/// depend only on the cell's own state and `to` (plus the thread-locals
/// `run_horizons` propagates: skip mode and fault plan) — the
/// determinism of parallel execution rests on that purity.
pub trait ParCell: Send {
    /// Advances the cell's local clock to `to`.
    fn advance(&mut self, to: Cycle);
}

/// A reusable sense-reversing spin barrier.
///
/// Horizons are short (tens of cycles of simulated work per cell), so a
/// run crosses the barrier tens of thousands of times; `std::sync::Barrier`
/// parks threads through a mutex/condvar and would dominate the horizon
/// cost. This one spins briefly and falls back to `yield_now` so
/// oversubscribed machines still make progress.
struct SpinBarrier {
    parties: usize,
    /// Spin iterations before falling back to `yield_now`. When the pool is
    /// wider than the machine (threads > cores), a waiter's spinning burns
    /// the very timeslice the straggler needs, turning each crossing into a
    /// scheduler round-trip — so oversubscribed barriers yield immediately.
    spin_limit: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        SpinBarrier {
            parties,
            spin_limit: if parties > cores { 0 } else { 10_000 },
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            if spins < self.spin_limit {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

fn lock<T>(cell: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    cell.lock().expect("shard cell poisoned")
}

/// Drives `cells` through horizon-synchronized time starting at `start`.
///
/// Per round: `boundary(&cells, t)` runs on the calling thread (drain
/// responses, enqueue work, decide the next target) and returns the next
/// boundary cycle, or `None` to finish; then every cell advances to that
/// target — in shard order on this thread (`Seq`, or a 1-wide pool) or
/// statically striped across the worker pool (`Par`). Returns the cells in
/// their original order.
///
/// The boundary callback sees the cells behind `Mutex`es in *both* modes
/// (uncontended locks in `Seq`), so the two engines pay identical
/// per-access overhead and wall-clock comparisons between them measure
/// only the parallelism.
///
/// # Panics
///
/// Panics if `boundary` returns a target not strictly after the current
/// boundary, or if a worker thread panics (poisoning a cell lock).
pub fn run_horizons<C: ParCell>(
    cells: Vec<C>,
    start: Cycle,
    mut boundary: impl FnMut(&[Mutex<C>], Cycle) -> Option<Cycle>,
) -> Vec<C> {
    let cells: Vec<Mutex<C>> = cells.into_iter().map(Mutex::new).collect();
    let threads = match par_mode() {
        ParMode::Seq => 1,
        ParMode::Par => par_threads().min(cells.len()).max(1),
    };
    // A pool wider than the machine cannot run its horizon legs
    // concurrently anyway: every barrier crossing degenerates into
    // scheduler round-trips between waiters and the straggler sharing a
    // core, which made `par` measurably *slower* than `seq` on small
    // hosts. Skip the barrier entirely and run the horizons sequentially
    // — byte-identical by construction — counting the degradation.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = if threads > 1 && threads > cores {
        PAR_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        1
    } else {
        threads
    };
    if threads == 1 {
        let mut t = start;
        while let Some(next) = boundary(&cells, t) {
            assert!(next > t, "horizon target {next} must advance past {t}");
            for cell in &cells {
                lock(cell).advance(next);
            }
            t = next;
        }
    } else {
        run_pooled(&cells, start, threads, &mut boundary);
    }
    cells
        .into_iter()
        .map(|m| m.into_inner().expect("shard cell poisoned"))
        .collect()
}

fn run_pooled<C: ParCell>(
    cells: &[Mutex<C>],
    start: Cycle,
    threads: usize,
    boundary: &mut impl FnMut(&[Mutex<C>], Cycle) -> Option<Cycle>,
) {
    let barrier = SpinBarrier::new(threads);
    let target = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // Workers inherit this thread's per-thread simulation configuration so
    // a cell advances identically regardless of which thread runs it.
    let skip = skip_enabled();
    let plan = FaultPlan::current();
    let advance_stripe = |worker: usize, to: Cycle| {
        let mut i = worker;
        while i < cells.len() {
            lock(&cells[i]).advance(to);
            i += threads;
        }
    };
    std::thread::scope(|scope| {
        for worker in 1..threads {
            let barrier = &barrier;
            let target = &target;
            let done = &done;
            let advance_stripe = &advance_stripe;
            let plan = plan.clone();
            scope.spawn(move || {
                with_skip(skip, || {
                    with_fault_plan(plan, || loop {
                        barrier.wait();
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        advance_stripe(worker, Cycle(target.load(Ordering::Acquire)));
                        barrier.wait();
                    });
                });
            });
        }
        let mut t = start;
        loop {
            match boundary(cells, t) {
                Some(next) => {
                    assert!(next > t, "horizon target {next} must advance past {t}");
                    target.store(next.raw(), Ordering::Release);
                    barrier.wait();
                    advance_stripe(0, next);
                    barrier.wait();
                    t = next;
                }
                None => {
                    done.store(true, Ordering::Release);
                    barrier.wait();
                    break;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        now: Cycle,
        steps: u64,
    }

    impl ParCell for Counter {
        fn advance(&mut self, to: Cycle) {
            while self.now < to {
                self.now = self.now.next();
                self.steps += 1;
            }
        }
    }

    /// Serializes the tests that run a `Par` pool: on a small host any of
    /// them may bump the process-global fallback counter, which
    /// `oversubscribed_pool_falls_back_to_seq` asserts on.
    static POOL_TESTS: Mutex<()> = Mutex::new(());

    fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
        POOL_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn drive(mode: ParMode, threads: usize) -> Vec<u64> {
        with_par_mode(mode, || {
            with_par_threads(threads, || {
                let cells = (0..5)
                    .map(|_| Counter {
                        now: Cycle(0),
                        steps: 0,
                    })
                    .collect();
                let mut rounds = 0;
                let cells = run_horizons(cells, Cycle(0), |cells, t| {
                    assert_eq!(cells.len(), 5);
                    rounds += 1;
                    (rounds <= 10).then(|| t + 7)
                });
                assert_eq!(rounds, 11);
                cells.iter().map(|c| c.steps).collect()
            })
        })
    }

    #[test]
    fn seq_and_par_agree_at_any_width() {
        let _pool = pool_lock();
        let reference = drive(ParMode::Seq, 1);
        assert_eq!(reference, vec![70; 5]);
        for threads in [1, 2, 4, 9] {
            assert_eq!(drive(ParMode::Par, threads), reference);
        }
    }

    #[test]
    fn boundary_sees_advanced_cells() {
        let _pool = pool_lock();
        with_par_mode(ParMode::Par, || {
            with_par_threads(3, || {
                let cells = (0..3)
                    .map(|_| Counter {
                        now: Cycle(0),
                        steps: 0,
                    })
                    .collect();
                let mut seen = Vec::new();
                run_horizons(cells, Cycle(0), |cells, t| {
                    for cell in cells {
                        seen.push(lock(cell).now);
                        assert_eq!(lock(cell).now, t);
                    }
                    (t < Cycle(6)).then(|| t + 3)
                });
                assert_eq!(seen.len(), 9);
            });
        });
    }

    #[test]
    fn oversubscribed_pool_falls_back_to_seq() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let width = cores + 1;
        let run = |mode: ParMode| {
            with_par_mode(mode, || {
                with_par_threads(width, || {
                    let cells = (0..width + 1)
                        .map(|_| Counter {
                            now: Cycle(0),
                            steps: 0,
                        })
                        .collect();
                    let mut rounds = 0;
                    let cells = run_horizons(cells, Cycle(0), |_, t| {
                        rounds += 1;
                        (rounds <= 4).then(|| t + 3)
                    });
                    cells.iter().map(|c| c.steps).collect::<Vec<_>>()
                })
            })
        };
        let _pool = pool_lock();
        let before = parallel_fallbacks();
        let par = run(ParMode::Par);
        assert!(
            parallel_fallbacks() > before,
            "a pool of {width} on {cores} cores must degrade to seq"
        );
        // Seq mode never counts a fallback, and both agree byte-for-byte.
        let mid = parallel_fallbacks();
        let seq = run(ParMode::Seq);
        assert_eq!(parallel_fallbacks(), mid);
        assert_eq!(par, seq);
    }

    #[test]
    fn overrides_nest_and_restore() {
        with_par_mode(ParMode::Seq, || {
            assert_eq!(par_mode(), ParMode::Seq);
            with_par_mode(ParMode::Par, || assert_eq!(par_mode(), ParMode::Par));
            assert_eq!(par_mode(), ParMode::Seq);
        });
        with_par_threads(2, || {
            assert_eq!(par_threads(), 2);
            with_par_threads(7, || assert_eq!(par_threads(), 7));
            assert_eq!(par_threads(), 2);
        });
    }

    #[test]
    fn workers_inherit_skip_override() {
        struct ModeProbe {
            saw_skip: bool,
        }
        impl ParCell for ModeProbe {
            fn advance(&mut self, _to: Cycle) {
                self.saw_skip = skip_enabled();
            }
        }
        // Two threads: a wider pool takes the seq fallback on small hosts
        // and never reaches a worker.
        let _pool = pool_lock();
        with_skip(false, || {
            with_par_mode(ParMode::Par, || {
                with_par_threads(2, || {
                    let cells = (0..4).map(|_| ModeProbe { saw_skip: true }).collect();
                    let mut fired = false;
                    let cells = run_horizons(cells, Cycle(0), |_, t| {
                        (!std::mem::replace(&mut fired, true)).then(|| t + 1)
                    });
                    assert!(cells.iter().all(|c| !c.saw_skip));
                });
            });
        });
    }
}
