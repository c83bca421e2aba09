//! Shared DSA-model infrastructure.
//!
//! Every evaluated configuration produces a [`RunReport`] (cycles +
//! merged statistics); the address-cache and hardwired-baseline variants
//! are expressed as [`ProbeTask`] state machines driven by the
//! [`ProbeEngine`], which models a DSA datapath with a fixed number of
//! concurrent walk units issuing memory transactions with zero-cost
//! ("ideal walker", §8) orchestration decisions.

use xcache_mem::{MainMemory, MemReq, MemoryPort};
use xcache_sim::{counter, Cycle, Stats, StatsSnapshot};

/// Copies layout segments into a simulated memory image.
pub fn apply_image(mem: &mut MainMemory, segments: &[(u64, Vec<u8>)]) {
    for (addr, bytes) in segments {
        mem.write(*addr, bytes);
    }
}

/// The outcome of one simulated configuration.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Configuration label (e.g. `"xcache"`, `"addr-cache"`, `"baseline"`).
    pub label: String,
    /// Total runtime in cycles.
    pub cycles: u64,
    /// Merged statistics from every component.
    pub stats: StatsSnapshot,
    /// Workload-specific result checksum (validated against the oracle by
    /// the caller).
    pub checksum: u64,
}

impl RunReport {
    /// Total DRAM transactions observed (reads + writes).
    #[must_use]
    pub fn dram_accesses(&self) -> u64 {
        self.stats.get("dram.reads") + self.stats.get("dram.writes")
    }

    /// Speedup of `self` relative to `other` (other.cycles / self.cycles).
    #[must_use]
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        other.cycles as f64 / self.cycles.max(1) as f64
    }
}

/// What a probe task wants to do next.
#[derive(Debug, Clone)]
pub enum TaskStep {
    /// Busy for `n` cycles (hash units, compute).
    Delay(u64),
    /// Read `len` bytes at `addr`; the data arrives in the next `advance`.
    Read {
        /// Byte address.
        addr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Finished, contributing `value` to the run checksum.
    Done(u64),
}

/// A single walk/probe expressed as a resumable state machine.
///
/// `advance` receives the data of the last [`TaskStep::Read`] (or `None`
/// on the first call / after a delay) and returns the next step.
pub trait ProbeTask {
    /// Advances the state machine.
    fn advance(&mut self, last_read: Option<&[u8]>) -> TaskStep;
}

enum Slot<T> {
    Ready(T, Cycle),
    Delayed(T, Cycle, Cycle), // (task, resume-at, started-at)
    Waiting(T, u64, Cycle),   // (task, expected request id, started-at)
}

/// Drives up to `parallelism` [`ProbeTask`]s concurrently over a
/// [`MemoryPort`], modelling a multi-walker DSA front-end whose decision
/// logic costs zero cycles.
pub struct ProbeEngine<D, T> {
    port: D,
    queue: std::collections::VecDeque<T>,
    active: Vec<Option<Slot<T>>>,
    arrivals: std::collections::HashMap<u64, Vec<u8>>,
    next_id: u64,
    checksum: u64,
    completed: usize,
    stats: Stats,
}

impl<D: MemoryPort, T: ProbeTask> ProbeEngine<D, T> {
    /// Creates an engine with `parallelism` concurrent walk units.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    #[must_use]
    pub fn new(port: D, tasks: Vec<T>, parallelism: usize) -> Self {
        assert!(parallelism > 0, "parallelism must be nonzero");
        ProbeEngine {
            port,
            queue: tasks.into(),
            active: (0..parallelism).map(|_| None).collect(),
            arrivals: std::collections::HashMap::new(),
            next_id: 1,
            checksum: 0,
            completed: 0,
            stats: Stats::new(),
        }
    }

    /// Number of completed tasks.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Appends a task (for callers that discover work incrementally, e.g.
    /// gated on a stream engine).
    pub fn push_task(&mut self, task: T) {
        self.queue.push_back(task);
    }

    /// Whether all tasks have finished.
    #[must_use]
    pub fn done(&self) -> bool {
        self.queue.is_empty() && self.active.iter().all(Option::is_none) && !self.port.busy()
    }

    /// Runs to completion, returning `(cycles, checksum)`.
    ///
    /// Idle stretches (every unit dormant on DRAM) are fast-forwarded to
    /// the next scheduled event; the cycle count and statistics are
    /// identical to single-stepping (set `XCACHE_NO_SKIP=1` to force it).
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `max_cycles` (deadlock guard).
    pub fn run(&mut self, max_cycles: u64) -> (u64, u64) {
        let mut now = Cycle(0);
        while !self.done() {
            self.tick(now);
            now = if self.done() {
                now.next() // same end-cycle as the single-stepped loop
            } else {
                xcache_sim::fast_forward(now, self.next_event(now))
            };
            assert!(
                now.raw() < max_cycles,
                "probe engine exceeded {max_cycles} cycles ({} done)",
                self.completed
            );
        }
        (now.raw(), self.checksum)
    }

    /// Earliest cycle strictly after `now` at which `tick` could do
    /// observable work (the `next_event` contract on
    /// [`fast_forward`](xcache_sim::fast_forward); queried after
    /// `tick(now)`).
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // Undelivered arrivals and refillable idle units act every cycle.
        if !self.arrivals.is_empty()
            || (!self.queue.is_empty() && self.active.iter().any(Option::is_none))
        {
            return Some(now.next());
        }
        let mut next = Cycle::NEVER;
        for slot in self.active.iter().flatten() {
            match slot {
                Slot::Ready(..) => return Some(now.next()),
                Slot::Delayed(_, until, _) => next = next.min((*until).max(now.next())),
                Slot::Waiting(..) => {}
            }
        }
        if let Some(t) = self.port.next_event(now) {
            next = next.min(t.max(now.next()));
        }
        if next == Cycle::NEVER {
            // Not done but nothing schedulable: single-step so the run
            // guard still catches deadlocks.
            return (!self.done()).then(|| now.next());
        }
        Some(next)
    }

    /// Advances one cycle.
    pub fn tick(&mut self, now: Cycle) {
        self.port.tick(now);
        while let Some(resp) = self.port.take_response(now) {
            self.arrivals.insert(resp.id.0, resp.data.to_vec());
        }
        for i in 0..self.active.len() {
            // Refill an idle unit.
            if self.active[i].is_none() {
                if let Some(t) = self.queue.pop_front() {
                    self.active[i] = Some(Slot::Ready(t, now));
                } else {
                    continue;
                }
            }
            // Progress the unit; each unit advances at most one step/cycle.
            let slot = self.active[i].take().expect("filled above");
            self.active[i] = match slot {
                Slot::Delayed(t, until, st) if until > now => Some(Slot::Delayed(t, until, st)),
                Slot::Delayed(t, _, st) => self.step(now, t, None, st),
                Slot::Waiting(t, id, st) => match self.arrivals.remove(&id) {
                    Some(data) => self.step(now, t, Some(&data), st),
                    None => Some(Slot::Waiting(t, id, st)),
                },
                Slot::Ready(t, st) => self.step(now, t, None, st),
            };
        }
    }

    fn step(
        &mut self,
        now: Cycle,
        mut task: T,
        data: Option<&[u8]>,
        started: Cycle,
    ) -> Option<Slot<T>> {
        match task.advance(data) {
            TaskStep::Delay(d) => {
                self.stats.add_id(counter!("engine.delay_cycles"), d);
                Some(Slot::Delayed(task, now + d, started))
            }
            TaskStep::Read { addr, len } => {
                let id = self.next_id;
                match self.port.try_request(now, MemReq::read(id, addr, len)) {
                    Ok(()) => {
                        self.next_id += 1;
                        self.stats.incr_id(counter!("engine.reads"));
                        Some(Slot::Waiting(task, id, started))
                    }
                    Err(_) => {
                        // Port busy: re-invoke the same step next cycle.
                        // Tasks are written peek-then-commit (state only
                        // changes when data arrives), so re-entry with the
                        // same inputs is safe.
                        self.stats.incr_id(counter!("engine.port_stall"));
                        Some(Slot::Delayed(task, now.next(), started))
                    }
                }
            }
            TaskStep::Done(v) => {
                self.checksum = self.checksum.wrapping_add(v);
                self.completed += 1;
                self.stats.incr_id(counter!("engine.done"));
                // Per-task latency: the addr-cache analogue of the
                // controller's load-to-use histogram (Figure 4).
                self.stats
                    .sample_id(counter!("engine.task_latency"), now.since(started).max(1));
                None
            }
        }
    }

    /// Probe-engine statistics.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The underlying port (to harvest downstream statistics).
    #[must_use]
    pub fn port(&self) -> &D {
        &self.port
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcache_mem::{DramConfig, DramModel};

    /// Walks a unary linked list of `hops` nodes starting at `start`.
    struct Chase {
        next: u64,
        hops_left: u32,
    }

    impl ProbeTask for Chase {
        fn advance(&mut self, last: Option<&[u8]>) -> TaskStep {
            if let Some(d) = last {
                self.next = u64::from_le_bytes(d[..8].try_into().expect("8 bytes"));
                self.hops_left -= 1;
            }
            if self.hops_left == 0 {
                return TaskStep::Done(self.next);
            }
            TaskStep::Read {
                addr: self.next,
                len: 8,
            }
        }
    }

    #[test]
    fn env_knobs_surface_structured_errors() {
        // The engine's only environment surface is the skip knob its
        // `run` loop consults through `xcache_sim::fast_forward`
        // (`XCACHE_NO_SKIP`) — a flag-shaped value routed through the
        // sim crate's env funnel. Pin the funnel's contract from this
        // side: a typo'd flag yields a structured error naming the
        // variable (unique name so parallel tests can't race on it),
        // never a silent coercion to "skip on".
        std::env::set_var("XCACHE_DSA_ENVTEST_FLAG", "fast");
        let err = xcache_sim::env_flag("XCACHE_DSA_ENVTEST_FLAG").unwrap_err();
        assert_eq!(err.var, "XCACHE_DSA_ENVTEST_FLAG");
        assert!(err.reason.contains("expected"), "{err}");
        std::env::set_var("XCACHE_DSA_ENVTEST_FLAG", "1");
        assert_eq!(
            xcache_sim::env_flag("XCACHE_DSA_ENVTEST_FLAG"),
            Ok(Some(true))
        );
    }

    #[test]
    fn chases_pointers_to_completion() {
        let mut dram = DramModel::new(DramConfig::test_tiny());
        // Chain: 0x100 -> 0x200 -> 0x300 -> 0 (value read at each hop).
        dram.memory_mut().write_u64(0x100, 0x200);
        dram.memory_mut().write_u64(0x200, 0x300);
        dram.memory_mut().write_u64(0x300, 0xdead);
        let tasks = vec![Chase {
            next: 0x100,
            hops_left: 3,
        }];
        let mut e = ProbeEngine::new(dram, tasks, 2);
        let (cycles, sum) = e.run(100_000);
        assert_eq!(sum, 0xdead);
        assert!(cycles > 3, "three serial DRAM hops take real time");
        assert_eq!(e.completed(), 1);
        assert_eq!(e.stats().get("engine.reads"), 3);
    }

    #[test]
    fn parallel_tasks_overlap() {
        let mk_dram = || {
            let mut dram = DramModel::new(DramConfig::test_tiny());
            for i in 0..16u64 {
                dram.memory_mut().write_u64(0x1000 + i * 0x100, 0);
            }
            dram
        };
        let mk_tasks = || {
            (0..8u64)
                .map(|i| Chase {
                    next: 0x1000 + i * 0x100,
                    hops_left: 1,
                })
                .collect::<Vec<_>>()
        };
        let (serial, _) = ProbeEngine::new(mk_dram(), mk_tasks(), 1).run(100_000);
        let (parallel, _) = ProbeEngine::new(mk_dram(), mk_tasks(), 8).run(100_000);
        assert!(
            parallel < serial,
            "8-wide engine ({parallel}) should beat 1-wide ({serial})"
        );
    }

    #[test]
    fn delays_cost_cycles() {
        struct Delayer(bool);
        impl ProbeTask for Delayer {
            fn advance(&mut self, _l: Option<&[u8]>) -> TaskStep {
                if self.0 {
                    TaskStep::Done(1)
                } else {
                    self.0 = true;
                    TaskStep::Delay(50)
                }
            }
        }
        let dram = DramModel::new(DramConfig::test_tiny());
        let mut e = ProbeEngine::new(dram, vec![Delayer(false)], 1);
        let (cycles, _) = e.run(10_000);
        assert!(cycles >= 50);
    }

    #[test]
    fn apply_image_writes_segments() {
        let mut mem = MainMemory::new();
        apply_image(&mut mem, &[(0x10, vec![1, 2, 3]), (0x100, vec![9])]);
        assert_eq!(mem.read_vec(0x10, 3), vec![1, 2, 3]);
        assert_eq!(mem.read_vec(0x100, 1), vec![9]);
    }

    #[test]
    fn report_helpers() {
        let mut s = Stats::new();
        s.add("dram.reads", 10);
        s.add("dram.writes", 5);
        let a = RunReport {
            label: "a".into(),
            cycles: 100,
            stats: s.snapshot(),
            checksum: 0,
        };
        let b = RunReport {
            label: "b".into(),
            cycles: 170,
            stats: StatsSnapshot::default(),
            checksum: 0,
        };
        assert_eq!(a.dram_accesses(), 15);
        assert!((a.speedup_over(&b) - 1.7).abs() < 1e-9);
    }
}
