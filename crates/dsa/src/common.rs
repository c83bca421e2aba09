//! Shared DSA-model infrastructure.
//!
//! Every evaluated configuration produces a [`RunReport`] (cycles +
//! merged statistics); the address-cache and hardwired-baseline variants
//! are expressed as [`ProbeTask`] state machines driven by the
//! [`ProbeEngine`], which models a DSA datapath with a fixed number of
//! concurrent walk units issuing memory transactions with zero-cost
//! ("ideal walker", §8) orchestration decisions.
//!
//! The engine hands each memory response straight to the one unit waiting
//! on its request id, and each cycle steps only the units that act (a
//! refill, a due delay or a delivered response); waiting units stay
//! parked in their slots, so a cycle costs no hashing and no allocation.

use bytes::Bytes;
use xcache_mem::{MainMemory, MemReq, MemResp, MemoryPort};
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
    Delayed(T, Cycle, Cycle), // (task, resume-at, started-at)
    Waiting(T, u64, Cycle),   // (task, expected request id, started-at)
    Arrived(T, Bytes, Cycle), // (task, response payload, started-at)
}

/// Drives up to `parallelism` [`ProbeTask`]s concurrently over a
/// [`MemoryPort`], modelling a multi-walker DSA front-end whose decision
/// logic costs zero cycles.
pub struct ProbeEngine<D, T> {
    port: D,
    queue: std::collections::VecDeque<T>,
    active: Vec<Option<Slot<T>>>,
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
        // Refillable idle units act every cycle.
        if !self.queue.is_empty() && self.active.iter().any(Option::is_none) {
            return Some(now.next());
        }
        let mut next = Cycle::NEVER;
        for slot in self.active.iter().flatten() {
            match slot {
                Slot::Arrived(..) => return Some(now.next()),
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
            self.deliver(resp);
        }
        // Units step in index order, each at most once per cycle; an idle
        // unit is refilled and steps in the same cycle. Waiting and
        // not-yet-due units stay parked in their slots.
        for i in 0..self.active.len() {
            let acts = match &self.active[i] {
                None => !self.queue.is_empty(),
                Some(Slot::Delayed(_, until, _)) => *until <= now,
                Some(Slot::Waiting(..)) => false,
                Some(Slot::Arrived(..)) => true,
            };
            if !acts {
                continue;
            }
            self.active[i] = match self.active[i].take() {
                None => self
                    .queue
                    .pop_front()
                    .and_then(|t| self.step(now, t, None, now)),
                Some(Slot::Delayed(t, _, st)) => self.step(now, t, None, st),
                Some(Slot::Arrived(t, data, st)) => self.step(now, t, Some(&data), st),
                parked @ Some(Slot::Waiting(..)) => parked,
            };
        }
    }

    /// Hands `resp` to the unit waiting on its request id. Ids are unique,
    /// so exactly one unit waits for each response.
    fn deliver(&mut self, resp: MemResp) {
        let slot = self
            .active
            .iter_mut()
            .find(|s| matches!(s, Some(Slot::Waiting(_, id, _)) if *id == resp.id.0));
        debug_assert!(slot.is_some(), "{} matches no waiting unit", resp.id);
        if let Some(slot) = slot {
            if let Some(Slot::Waiting(t, _, st)) = slot.take() {
                *slot = Some(Slot::Arrived(t, resp.data, st));
            }
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

        // Concurrent chains whose responses return out of issue order.
        // `test_tiny` maps 256-byte rows alternately to two banks. Chain 1
        // reads bank 0 row 0, then row 1 (a row conflict); chain 2 reads
        // bank 1 row 0 twice (the second a row hit), so its second
        // response overtakes chain 1's. Each chain's result is weighted by
        // its number, so any unit handed another unit's payload changes
        // the checksum.
        struct Tagged {
            chain: u64,
            chase: Chase,
            log: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        }
        impl ProbeTask for Tagged {
            fn advance(&mut self, last: Option<&[u8]>) -> TaskStep {
                if last.is_some() {
                    self.log.borrow_mut().push(self.chain);
                }
                match self.chase.advance(last) {
                    TaskStep::Done(v) => TaskStep::Done(v * self.chain),
                    step => step,
                }
            }
        }
        let mut dram = DramModel::new(DramConfig::test_tiny());
        let mem = dram.memory_mut();
        mem.write_u64(0x000, 0x200); // chain 1: bank 0 row 0 ...
        mem.write_u64(0x200, 0xa1); // ... then bank 0 row 1
        mem.write_u64(0x100, 0x108); // chain 2: bank 1 row 0 ...
        mem.write_u64(0x108, 0xb2); // ... then the same row again
        mem.write_u64(0x010, 0x310); // chain 3: bank 0 row 0, bank 1 row 1
        mem.write_u64(0x310, 0xc3);
        let log = std::rc::Rc::default();
        let tasks = [0x000, 0x100, 0x010]
            .into_iter()
            .zip(1..)
            .map(|(next, chain)| Tagged {
                chain,
                chase: Chase { next, hops_left: 2 },
                log: std::rc::Rc::clone(&log),
            })
            .collect();
        let mut e = ProbeEngine::new(dram, tasks, 3);
        let (_, sum) = e.run(100_000);
        // Both hops issue in chain order; chain 2's row hit returns first.
        assert_eq!(*log.borrow(), [1, 2, 3, 2, 1, 3], "delivery order");
        assert_eq!(sum, 0xa1 + 2 * 0xb2 + 3 * 0xc3);
        assert_eq!(e.completed(), 3);
        assert_eq!(e.stats().get("engine.reads"), 6);
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
