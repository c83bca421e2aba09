//! The programmable X-Cache controller (§4, Figure 8).
//!
//! The controller is a two-part pipeline, split across this module tree so
//! each stage is independently readable and testable:
//!
//! * [`trigger`] — the front-end ("the event loop"): monitors the datapath
//!   access queue, the DRAM response port and the internal event queue, and
//!   *wakes one walker per cycle*. Meta-tag hits bypass the walkers
//!   entirely through a dedicated read port with a pipelined `hit_latency`
//!   load-to-use.
//! * [`sched`] — lane scheduling: round-robin wakeup of dormant walkers and
//!   the walker *discipline* policy (§3.3 ablation), resolved once into a
//!   static occupancy charge and whether a yield holds the lane:
//!   coroutines release their lane at every yield; blocking threads hold
//!   a lane from launch to retirement, including all memory stalls
//!   (Figure 7).
//! * [`executor`] — the back-end: `#Exe` executor lanes run woken routines
//!   one action per lane per cycle; routines end by yielding (coroutine
//!   goes dormant, lane freed) or retiring.
//! * [`walker`] — walker lifecycle: per-walk context, datapath responses,
//!   retirement, faults, and abort-and-replay.
//!
//! The stages share the instance's statistics registry and trace hooks
//! and its structural state, all fields of [`XCache`] itself.

mod arena;
mod due;
mod executor;
mod liveness;
mod sched;
mod trigger;
mod walker;

use std::collections::VecDeque;
use std::sync::Arc;

use xcache_isa::verify::{verify_structure, verify_with, VerifyError, VerifyLimits};
use xcache_isa::{EventId, Operand, RoutineId, WalkerProgram};
use xcache_mem::MemoryPort;
use xcache_sim::{
    counter, watchdog_budget, Cycle, FaultPlan, FxHashMap, MsgQueue, StallReport, Stats,
    TraceBuffer,
};

use crate::{
    dataram::DataRam, metatag::MetaTagArray, xreg::XRegPool, MetaAccess, MetaKey, MetaResp,
    XCacheConfig,
};

use arena::WalkerArena;
use due::DueQueue;

/// A delayed internal event (a hash digest or a posted event): (slot,
/// generation, event, payload), queued in [`XCache::delayed`] by due cycle.
pub(crate) type DelayedEvent = (usize, u32, EventId, [u64; MSG_WORDS]);

/// Error constructing an [`XCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The geometry failed validation.
    BadConfig(String),
    /// The program needs more X-registers than the geometry provides.
    RegistersExceeded {
        /// Registers the program declares.
        needed: u8,
        /// Registers per walker in the geometry.
        available: usize,
    },
    /// The program references parameter `idx` but only `provided` exist.
    MissingParam {
        /// Referenced parameter index.
        idx: u8,
        /// Number of parameters configured.
        provided: usize,
    },
    /// The static verifier rejected the program: its structural pass, or
    /// under [`XCache::new`] also the §4.2 discipline, whose defects would
    /// otherwise surface as runtime faults or deadlocks mid-simulation.
    Verify(VerifyError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BadConfig(e) => write!(f, "invalid configuration: {e}"),
            BuildError::RegistersExceeded { needed, available } => write!(
                f,
                "program needs {needed} X-registers but the geometry provides {available}"
            ),
            BuildError::MissingParam { idx, provided } => write!(
                f,
                "program references param p{idx} but only {provided} parameter(s) configured"
            ),
            BuildError::Verify(e) => write!(f, "program rejected by the verifier: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A runtime protocol violation caught by the executor.
///
/// The static verifier rejects most defective programs at load time; the
/// few violations only observable dynamically (e.g. a `respond` with no
/// meta entry on this particular walk) surface as a `SimError` with full
/// context — slot, cycle, routine — instead of a panic. The offending
/// walker faults and the simulation continues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Walker slot the violation occurred in.
    pub slot: usize,
    /// Simulated cycle of the violation.
    pub cycle: Cycle,
    /// Name of the routine that was executing, when known.
    pub routine: Option<String>,
    /// What went wrong.
    pub context: String,
}

impl SimError {
    pub(crate) fn new(slot: usize, cycle: Cycle, context: impl Into<String>) -> Self {
        SimError {
            slot,
            cycle,
            routine: None,
            context: context.into(),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "walker slot {} @ cycle {}", self.slot, self.cycle.raw())?;
        if let Some(r) = &self.routine {
            write!(f, " in routine `{r}`")?;
        }
        write!(f, ": {}", self.context)
    }
}

impl std::error::Error for SimError {}

/// Number of payload words carried with an event.
pub(crate) const MSG_WORDS: usize = 4;

/// Cycles a lane may stall on a structural hazard before the walker faults
/// (deadlock backstop; counted in `xcache.walker_timeout`).
pub(crate) const STALL_LIMIT: u32 = 100_000;

/// Trigger-stage scheduling window: how many pending accesses the
/// front-end examines per cycle when the head cannot make progress.
pub(crate) const SCHED_WINDOW: usize = 8;

/// Cycles a routine may spin on an *allocation* hazard (a resource held by
/// another walker) before the walk is aborted and its access replayed
/// through the trigger stage. Allocation hazards are deadlock-prone — two
/// stalled routines can hold all executor lanes — so they resolve by
/// replay, unlike queue-full stalls which always drain.
pub(crate) const HAZARD_RETRY: u32 = 64;

/// Watchdog recovery ladder: a stuck walker is retried (abort + delayed
/// replay) this many times before it is killed and its slot contained.
pub(crate) const WALKER_RETRY_MAX: u32 = 3;

/// Base delay before a watchdog-aborted walk replays; doubles per retry
/// (exponential backoff rides out transient downstream faults).
pub(crate) const RETRY_BACKOFF_BASE: u64 = 64;

/// Meta-path health strikes within [`HEALTH_WINDOW`] cycles that trip
/// degraded mode.
pub(crate) const DEGRADE_STRIKES: u32 = 8;

/// Width of the sliding health window, in cycles.
pub(crate) const HEALTH_WINDOW: u64 = 4096;

/// How long degraded mode lasts once entered: loads/stores bypass the
/// meta-tag path (answered "not found" so the datapath walks the
/// structure directly) until the window expires.
pub(crate) const DEGRADE_PENALTY: u64 = 2048;

/// Retained [`StallReport`]s per instance (older reports still count in
/// `xcache.watchdog.*`, only the structured records are capped).
pub(crate) const STALL_REPORT_CAP: usize = 256;

/// Recycled response-data buffers kept per instance (see
/// [`XCache::recycle`]).
pub(crate) const DATA_POOL_CAP: usize = 64;

/// One executor lane: a routine in flight for the walker in `slot`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub(crate) slot: usize,
    pub(crate) routine: RoutineId,
    pub(crate) pc: usize,
    /// Thread discipline: lane is held while the walker waits for events.
    pub(crate) waiting: bool,
    pub(crate) stall_cycles: u32,
}

/// A generated domain-specific cache instance.
///
/// Generic over its miss-path memory level `D`: a
/// [`DramModel`](xcache_mem::DramModel) directly, an
/// [`AddressCache`](xcache_mem::AddressCache) (the MXA hierarchy of §6), or
/// a [`PortHandle`](xcache_mem::PortHandle) sharing DRAM with a stream
/// engine (MXS).
#[derive(Debug)]
pub struct XCache<D> {
    pub(crate) cfg: XCacheConfig,
    pub(crate) program: WalkerProgram,
    /// Direct-threaded dispatch table: `dispatch[r][pc]` pairs the
    /// pre-decoded action with its handler function pointer (mirrors
    /// `program.routines[r].actions[pc]`, built once after verification).
    pub(crate) dispatch: Vec<Box<[executor::OpEntry<D>]>>,
    pub(crate) tags: MetaTagArray,
    pub(crate) data: DataRam,
    pub(crate) xregs: XRegPool,
    pub(crate) access_q: MsgQueue<MetaAccess>,
    pub(crate) replay_q: VecDeque<MetaAccess>,
    /// The trigger-stage window (drained from `access_q`/`replay_q`).
    pub(crate) pending: VecDeque<MetaAccess>,
    pub(crate) resp_q: MsgQueue<MetaResp>,
    /// Overflow buffer for responses produced while `resp_q` is full
    /// (e.g. a walker answering many waiters at once); drained in FIFO
    /// order ahead of new responses, so nothing is ever dropped.
    pub(crate) resp_spill: VecDeque<(u64, MetaResp)>,
    /// Arena-allocated walker state (SoA hot columns + cold rows).
    pub(crate) arena: WalkerArena,
    /// key → walker slot, held from launch to retirement (prevents
    /// duplicate walkers; queues waiters).
    pub(crate) launching: FxHashMap<MetaKey, usize>,
    pub(crate) lanes: Vec<Option<Lane>>,
    /// Delayed internal events, by due cycle.
    pub(crate) delayed: DueQueue<DelayedEvent>,
    pub(crate) inflight: FxHashMap<u64, (usize, u32)>,
    pub(crate) issue_times: FxHashMap<u64, Cycle>,
    pub(crate) next_req_id: u64,
    pub(crate) wake_rr: usize,
    pub(crate) downstream: D,
    /// Cached `downstream.next_event` from its last tick: the downstream
    /// level is only ticked when this falls due or [`ds_dirty`] is set, so
    /// an idle memory level costs nothing per controller cycle. Sound
    /// because the `next_event` contract on
    /// [`fast_forward`](xcache_sim::fast_forward) already requires
    /// downstream ticks to tolerate gaps (skip mode exercises exactly
    /// that), and per-tick stall counters pin `next_event` to `now + 1`
    /// while they count.
    ///
    /// [`ds_dirty`]: XCache::ds_dirty
    pub(crate) ds_next: Option<Cycle>,
    /// The executor issued a downstream request since the last downstream
    /// tick; the cached [`ds_next`](XCache::ds_next) is stale.
    pub(crate) ds_dirty: bool,
    /// The instance's statistics registry, shared by all stages.
    pub(crate) stats: Stats,
    /// The instance's trace hooks (disabled until
    /// [`enable_trace`](XCache::enable_trace)).
    pub(crate) trace: TraceBuffer,
    /// Cycle of the last `tick`, for fast-forward-aware per-cycle charges
    /// (static occupancy, launch-stall backfill).
    pub(crate) last_tick: Option<Cycle>,
    /// What the refused head of the trigger window waits on. While the
    /// whole window is refused, every skipped cycle would have
    /// launch-stalled too.
    pub(crate) wait: trigger::WindowWait,
    /// Fault-injection plan captured at construction; `None` (the default)
    /// keeps every fault hook a single branch.
    pub(crate) fault: Option<Arc<FaultPlan>>,
    /// Per-walker liveness budget in cycles, captured at construction.
    pub(crate) wd_budget: u64,
    /// Lower bound on the earliest per-walker watchdog deadline
    /// (`last_progress + wd_budget` over live walkers). Progress only
    /// pushes deadlines later, so the bound stays sound between the exact
    /// recomputes the liveness scan performs when it fires; landing on a
    /// stale-early bound is a no-op tick.
    pub(crate) wd_earliest: Cycle,
    /// Static occupancy charge per cycle, resolved from the discipline at
    /// construction (zero for coroutines).
    pub(crate) occ_charge: u64,
    /// Whether a yield parks the walker's lane instead of freeing it
    /// (blocking threads), resolved from the discipline at construction.
    pub(crate) yield_holds_lane: bool,
    /// Cycle of the last globally observable forward progress (response,
    /// launch, retire, fill, dispatch, …).
    pub(crate) global_progress: Cycle,
    /// Structured liveness violations, newest last (see
    /// [`STALL_REPORT_CAP`]).
    pub(crate) stall_reports: Vec<StallReport>,
    /// Watchdog retries already spent per key (cleared on retire).
    pub(crate) retry_counts: FxHashMap<MetaKey, u32>,
    /// Accesses aborted by the watchdog, replaying at their due cycle
    /// (exponential backoff).
    pub(crate) delayed_replay: DueQueue<MetaAccess>,
    /// The trigger stage's last hazard-check tag lookup: `(key, where the
    /// way scan landed)`. The serve that immediately follows a successful
    /// hazard check reuses it via [`MetaTagArray::probe_at`] instead of
    /// re-scanning the set (set by `can_serve`, consumed by
    /// `serve_access`, always within one cycle).
    pub(crate) probe_cache: Option<(MetaKey, Option<crate::metatag::EntryRef>)>,
    /// Recycled response-data buffers (see [`recycle`](XCache::recycle)):
    /// the respond path draws from here so steady-state hits and walker
    /// completions allocate nothing.
    pub(crate) data_pool: Vec<Vec<u64>>,
    /// Meta-tag path degraded (bypassed) until this cycle.
    pub(crate) degraded_until: Cycle,
    /// Health strikes accumulated in the current window.
    pub(crate) health_strikes: u32,
    /// Start of the current health window.
    pub(crate) health_window_start: Cycle,
}

impl<D: MemoryPort> XCache<D> {
    /// Generates an X-Cache instance from a geometry, a compiled walker
    /// program, and the memory level below.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the geometry is invalid, the
    /// program's resource needs (X-registers, parameters) exceed what the
    /// geometry provides, or the static verifier rejects the program.
    pub fn new(
        cfg: XCacheConfig,
        program: WalkerProgram,
        downstream: D,
    ) -> Result<Self, BuildError> {
        Self::build(cfg, program, downstream, true)
    }

    /// Like [`new`](Self::new), but runs only the verifier's structural
    /// pass (the resource checks still run).
    ///
    /// For harnesses that need an intentionally defective program — e.g.
    /// a walker that parks forever to exercise the liveness watchdog —
    /// which the verifier would rightly reject.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for the same reasons as
    /// [`new`](Self::new), except findings outside the structural pass.
    pub fn new_unchecked(
        cfg: XCacheConfig,
        program: WalkerProgram,
        downstream: D,
    ) -> Result<Self, BuildError> {
        Self::build(cfg, program, downstream, false)
    }

    fn build(
        cfg: XCacheConfig,
        program: WalkerProgram,
        downstream: D,
        verify: bool,
    ) -> Result<Self, BuildError> {
        cfg.validate().map_err(BuildError::BadConfig)?;
        if usize::from(program.regs) > cfg.xregs_per_walker {
            return Err(BuildError::RegistersExceeded {
                needed: program.regs,
                available: cfg.xregs_per_walker,
            });
        }
        // Every referenced parameter must be configured.
        for r in &program.routines {
            for a in &r.actions {
                for op in a.operands() {
                    if let Operand::Param(i) = op {
                        if usize::from(i) >= cfg.params.len() {
                            return Err(BuildError::MissingParam {
                                idx: i,
                                provided: cfg.params.len(),
                            });
                        }
                    }
                }
            }
        }
        // Static verification against this instance's geometry: programs
        // whose defects would otherwise fault or deadlock mid-simulation
        // are rejected here with located diagnostics (warnings pass — the
        // error classes alone prove runtime safety). Unchecked builds run
        // only the structural pass, which predecode relies on.
        let report = if verify {
            let limits = VerifyLimits {
                data_sectors: u32::try_from(cfg.data_sectors).unwrap_or(u32::MAX),
                ..VerifyLimits::default()
            };
            verify_with(&program, &limits)
        } else {
            verify_structure(&program)
        };
        report.check(false).map_err(BuildError::Verify)?;
        // Coroutines charge only the walker's declared X-registers for its
        // lifetime; blocking threads additionally pay for their statically
        // allocated hardware contexts every cycle (see `tick`).
        let charged = usize::from(program.regs.max(1));
        let (occ_charge, yield_holds_lane) = sched::discipline(&cfg);
        // Pre-decode the (now verified) program into the direct-threaded
        // dispatch table the executor runs from.
        let decoded = xcache_isa::predecode::predecode(&program, &cfg.params, MSG_WORDS);
        let dispatch = executor::build_dispatch::<D>(&decoded);
        Ok(XCache {
            dispatch,
            tags: MetaTagArray::new(cfg.sets, cfg.ways),
            data: DataRam::new(cfg.data_sectors, cfg.words_per_sector),
            xregs: XRegPool::new(cfg.active, cfg.xregs_per_walker, charged),
            access_q: MsgQueue::new("xcache.access", cfg.access_queue_depth, 1),
            replay_q: VecDeque::new(),
            pending: VecDeque::new(),
            resp_q: MsgQueue::new("xcache.resp", cfg.resp_queue_depth, cfg.hit_latency.max(1)),
            resp_spill: VecDeque::new(),
            arena: WalkerArena::new(cfg.active),
            launching: FxHashMap::default(),
            lanes: vec![None; cfg.exe],
            delayed: DueQueue::new(),
            inflight: FxHashMap::default(),
            issue_times: FxHashMap::default(),
            next_req_id: 1,
            wake_rr: 0,
            downstream,
            ds_next: None,
            ds_dirty: true,
            stats: Stats::new(),
            trace: TraceBuffer::disabled(),
            last_tick: None,
            wait: trigger::WindowWait::default(),
            fault: FaultPlan::current(),
            wd_budget: watchdog_budget(),
            wd_earliest: Cycle::NEVER,
            occ_charge,
            yield_holds_lane,
            global_progress: Cycle::ZERO,
            stall_reports: Vec::new(),
            retry_counts: FxHashMap::default(),
            delayed_replay: DueQueue::new(),
            probe_cache: None,
            data_pool: Vec::new(),
            degraded_until: Cycle::ZERO,
            health_strikes: 0,
            health_window_start: Cycle::ZERO,
            program,
            cfg,
        })
    }

    /// The geometry in effect.
    #[must_use]
    pub fn config(&self) -> &XCacheConfig {
        &self.cfg
    }

    /// The loaded walker program.
    #[must_use]
    pub fn program(&self) -> &WalkerProgram {
        &self.program
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Per-set meta-tag hit/alloc/eviction counters (length = `sets`),
    /// exported for cross-validation against the analytical oracle.
    #[must_use]
    pub fn meta_set_counters(&self) -> &[crate::metatag::SetCounters] {
        self.tags.set_counters()
    }

    /// The meta-tag set `key` maps to (harness introspection; the oracle
    /// pins its reimplementation of the set hash against this).
    #[must_use]
    pub fn meta_set_index(&self, key: MetaKey) -> usize {
        self.tags.set_index(key)
    }

    /// The memory level below.
    #[must_use]
    pub fn downstream(&self) -> &D {
        &self.downstream
    }

    /// The memory level below, mutably (workload setup).
    pub fn downstream_mut(&mut self) -> &mut D {
        &mut self.downstream
    }

    /// Enables bounded tracing for debugging and the figure narratives.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceBuffer::with_capacity(capacity);
    }

    /// The trace buffer.
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Meta-tag hit ratio so far, or `None` before any access.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let h = self.stats.get("xcache.hit");
        let m = self.stats.get("xcache.miss");
        (h + m > 0).then(|| h as f64 / (h + m) as f64)
    }

    /// Whether [`try_access`](Self::try_access) would currently be
    /// accepted (the access queue has room). Polite drivers check this
    /// before offering work so a refusal is never charged as an
    /// `xcache.access_stall`.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        !self.access_q.is_full()
    }

    /// Offers a meta access from the datapath.
    ///
    /// # Errors
    ///
    /// Returns the access back when the queue is full this cycle.
    pub fn try_access(&mut self, now: Cycle, access: MetaAccess) -> Result<(), MetaAccess> {
        match self.access_q.push(now, access) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.stats.incr_id(counter!("xcache.access_stall"));
                Err(e.0)
            }
        }
    }

    /// Removes one datapath response ready at `now`, if any.
    pub fn take_response(&mut self, now: Cycle) -> Option<MetaResp> {
        self.resp_q.pop(now)
    }

    /// Returns a consumed response's data buffer to the internal pool.
    ///
    /// Optional — drivers that call this after reading a response let the
    /// respond path reuse the allocation, so steady-state hit/answer
    /// traffic performs no heap allocation at all.
    pub fn recycle(&mut self, resp: MetaResp) {
        self.give_buf(resp.data);
    }

    /// A cleared data buffer from the pool (or a fresh one).
    pub(crate) fn take_buf(&mut self) -> Vec<u64> {
        self.data_pool.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool (dropped when the pool is full).
    pub(crate) fn give_buf(&mut self, mut buf: Vec<u64>) {
        if buf.capacity() > 0 && self.data_pool.len() < DATA_POOL_CAP {
            buf.clear();
            self.data_pool.push(buf);
        }
    }

    /// Structured liveness violations observed so far (oldest first,
    /// capped at [`STALL_REPORT_CAP`]).
    #[must_use]
    pub fn stall_reports(&self) -> &[StallReport] {
        &self.stall_reports
    }

    /// Whether any work is outstanding anywhere in the instance.
    #[must_use]
    pub fn busy(&self) -> bool {
        !self.access_q.is_empty()
            || !self.replay_q.is_empty()
            || !self.pending.is_empty()
            || !self.resp_q.is_empty()
            || !self.resp_spill.is_empty()
            || !self.delayed.is_empty()
            || !self.delayed_replay.is_empty()
            || self.arena.live_count() > 0
            || self.downstream.busy()
    }

    /// Advances the instance (and its downstream level) one cycle: each
    /// pipeline stage runs once, in dependency order.
    ///
    /// Fast-forwarding: `tick` may be called with gaps in `now` (the
    /// driver jumped over cycles [`next_event`](Self::next_event) proved
    /// idle). Per-cycle charges are scaled by the elapsed gap so counters
    /// match a single-stepped run exactly.
    pub fn tick(&mut self, now: Cycle) {
        let elapsed = self.last_tick.map_or(1, |t| now.since(t));
        self.last_tick = Some(now);
        if self.occ_charge > 0 {
            self.stats.add_id(
                counter!("xcache.occupancy_reg_byte_cycles"),
                self.occ_charge * elapsed,
            );
        }
        if elapsed > 1 && self.window_blocked() {
            // Every cycle jumped over would have launch-stalled again (no
            // wake re-opened the window, so no verdict in it changed).
            self.stats
                .add_id(counter!("xcache.launch_stall"), elapsed - 1);
        }
        {
            xcache_sim::prof_scope!("xcache.downstream");
            if self.ds_dirty || self.ds_next.is_some_and(|t| t <= now) {
                self.downstream.tick(now);
                self.ds_dirty = false;
                self.ds_next = self.downstream.next_event(now);
            }
        }
        {
            xcache_sim::prof_scope!("xcache.fills");
            self.drain_resp_spill(now);
            self.collect_fills(now);
        }
        {
            xcache_sim::prof_scope!("xcache.delayed");
            self.deliver_delayed(now);
        }
        {
            xcache_sim::prof_scope!("xcache.liveness");
            self.check_liveness(now);
        }
        {
            xcache_sim::prof_scope!("xcache.trigger");
            let mut wake_budget = 1usize;
            self.process_access(now, &mut wake_budget);
            if wake_budget > 0 {
                self.wake_one(now);
            }
        }
        {
            xcache_sim::prof_scope!("xcache.execute");
            self.execute(now);
        }
    }

    /// Earliest cycle strictly after `now` at which `tick` could do
    /// observable work (the `next_event` contract on
    /// [`fast_forward`](xcache_sim::fast_forward); queried after
    /// `tick(now)`).
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        xcache_sim::prof_scope!("xcache.next_event");
        // Per-cycle activity that cannot be jumped over: an active lane
        // executes (and counts) one action every cycle; an undispatched
        // walker event is examined every cycle; spilled responses retry
        // every cycle; a trigger window that is not known refused may
        // serve another access next cycle.
        if self.lanes.iter().flatten().any(|l| !l.waiting)
            || self.arena.ready_events() > 0
            || !self.resp_spill.is_empty()
            || !self.replay_q.is_empty()
            || (!self.pending.is_empty() && !self.window_blocked())
        {
            return Some(now.next());
        }
        let mut next = Cycle::NEVER;
        let mut wake = |t: Cycle| next = next.min(t);
        for due in [self.delayed.next_due(), self.delayed_replay.next_due()]
            .into_iter()
            .flatten()
        {
            wake(due.max(now.next()));
        }
        // Watchdog deadlines are observable work (a stall report plus the
        // recovery ladder), so a fast-forwarded run must land no later
        // than the cycle a single-stepped run would fire on. `wd_earliest`
        // is a lower bound on the true earliest deadline: landing early
        // (or on a healthy deadline) is a no-op tick — all per-cycle
        // charges are linear in elapsed cycles, so the split leaves
        // counters byte-identical.
        if self.arena.live_count() > 0 {
            wake(self.wd_earliest.max(now.next()));
        }
        if self.has_local_work() {
            wake((self.global_progress + self.wd_budget.saturating_mul(2)).max(now.next()));
        }
        // The access queue only feeds the trigger window while it has
        // room; a full window drains through events covered above.
        if self.pending.len() < self.cfg.access_queue_depth {
            if let Some(ready) = self.access_q.next_ready() {
                wake(ready.max(now.next()));
            }
        }
        if let Some(ready) = self.resp_q.next_ready() {
            wake(ready.max(now.next()));
        }
        if self.ds_dirty {
            // A request went down since the last downstream tick; tick it
            // next cycle and recompute the cache.
            wake(now.next());
        } else if let Some(t) = self.ds_next {
            wake(t.max(now.next()));
        }
        if next == Cycle::NEVER {
            // Busy with no schedulable wake-up: single-step so deadlocks
            // still trip the drivers' cycle guards.
            return self.busy().then(|| now.next());
        }
        Some(next)
    }
}

/// `SplitMix64` — the deterministic stand-in for the DSA hash unit.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
