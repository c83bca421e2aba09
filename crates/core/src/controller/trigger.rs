//! Trigger stage (front-end, §4.1–§4.2).
//!
//! Monitors the DRAM response port, the delayed-event queue, and the
//! datapath access queue. Meta-tag hits are answered directly through the
//! dedicated read port; misses launch walkers, subject to the hazard
//! checks of §4.1 ③ ("routines are not triggered until all the hazard
//! conditions are eliminated").

use xcache_isa::{EventId, StateId};
use xcache_mem::MemoryPort;
use xcache_sim::{counter, Cycle, FaultKind, TraceKind};

use crate::metatag::EntryRef;
use crate::{MetaAccess, MetaKey};

use super::{XCache, MSG_WORDS, SCHED_WINDOW};

/// Why [`can_serve`](XCache::can_serve) refused an access: which changes
/// can turn the refusal into a serve. Neither field set means only a
/// walker ending can.
struct Hazard {
    /// A freed executor lane alone would let it serve.
    lane: bool,
    /// The meta-tag set whose state the verdict read.
    set: Option<u32>,
}

/// What the refused head of the trigger window waits on.
///
/// The trigger stage serves the first servable access of its window, so
/// the `known` entries ahead of the last serve (or the whole window, after
/// a scan that served nothing) were each refused by `can_serve`. A refused
/// access stays refused until an input of its verdict changes in its
/// favour, and serving an access only takes inputs away. So the next scan
/// resumes after them, and a window they fill launch-stalls without a
/// scan. Each site that frees an X-register file, a lane or a launching
/// claim, changes a set's tags or enters degraded mode calls one wake:
///
/// * [`wake_all`](Self::wake_all) where X-register files, launching claims
///   or degraded mode change (walker retire, fault, abort and backoff,
///   degraded-mode entry, watchdog recovery) and on a served take's hit;
/// * [`wake_lane`](Self::wake_lane) where a yield frees a lane;
/// * [`wake_set`](Self::wake_set) where `allocM`, `insertM`, `deallocM`,
///   `pinM` or idle eviction change a set's tags.
///
/// Debug builds re-check every entry the record holds refused.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WindowWait {
    /// Leading window entries known refused.
    known: usize,
    /// One of them waits only for a free executor lane.
    lane: bool,
    /// Meta-tag sets their verdicts read (the first `n_sets`; each refused
    /// entry adds at most one, so the window bounds them).
    sets: [u32; SCHED_WINDOW],
    n_sets: usize,
}

impl WindowWait {
    fn note(&mut self, hazard: Hazard) {
        self.lane |= hazard.lane;
        if let Some(set) = hazard.set {
            if !self.sets[..self.n_sets].contains(&set) {
                self.sets[self.n_sets] = set;
                self.n_sets += 1;
            }
        }
    }

    /// Re-opens the whole window: the next scan starts at its head.
    pub(crate) fn wake_all(&mut self) {
        self.known = 0;
        self.lane = false;
        self.n_sets = 0;
    }

    /// An executor lane was freed.
    pub(crate) fn wake_lane(&mut self) {
        if self.lane {
            self.wake_all();
        }
    }

    /// The tags of meta-tag set `set` changed.
    pub(crate) fn wake_set(&mut self, set: u32) {
        if self.sets[..self.n_sets].contains(&set) {
            self.wake_all();
        }
    }
}

impl<D: MemoryPort> XCache<D> {
    /// Collects DRAM responses into the owning walkers' event queues.
    pub(super) fn collect_fills(&mut self, now: Cycle) {
        while let Some(resp) = self.downstream.take_response(now) {
            let Some((slot, gen)) = self.inflight.remove(&resp.id.0) else {
                continue; // stale (walker faulted); drop
            };
            if !self.arena.is_live(slot) || self.arena.gen[slot] != gen {
                continue;
            }
            let mut payload = [0u64; MSG_WORDS];
            for (i, chunk) in resp.data.chunks(8).take(MSG_WORDS).enumerate() {
                let mut b = [0u8; 8];
                b[..chunk.len()].copy_from_slice(chunk);
                payload[i] = u64::from_le_bytes(b);
            }
            self.arena.cold[slot].fill_data = Some(resp.data);
            self.arena.push_event(slot, EventId::FILL, payload);
            self.arena.last_progress[slot] = now;
            self.global_progress = now;
            self.stats.incr_id(counter!("xcache.fill_resp"));
            self.trace
                .emit_with(now, TraceKind::DramResp, "xcache", || {
                    format!("slot {slot} addr {:#x}", resp.addr)
                });
        }
    }

    /// Delivers every delayed event (hash digest, posted event) due by
    /// `now`, in (due, schedule) order; one whose walker has ended since
    /// is dropped.
    pub(super) fn deliver_delayed(&mut self, now: Cycle) {
        while let Some((slot, gen, ev, payload)) = self.delayed.pop_due(now) {
            if self.arena.is_live(slot) && self.arena.gen[slot] == gen {
                self.arena.push_event(slot, ev, payload);
                self.arena.last_progress[slot] = now;
                self.global_progress = now;
            }
        }
    }

    /// Processes at most one datapath access per cycle.
    ///
    /// Meta hits are "handled by a dedicated read port … fully pipelined"
    /// (§4.2), so a miss that cannot launch a walker this cycle (no free
    /// X-register file) must not block younger hits. The trigger stage
    /// therefore scans a bounded window of the pending accesses and serves
    /// the first one that can make progress, never reordering two accesses
    /// to the same key. The scan starts after the entries the wait record
    /// holds refused ([`WindowWait`]).
    pub(super) fn process_access(&mut self, now: Cycle, wake_budget: &mut usize) {
        // Watchdog-aborted accesses whose backoff has elapsed re-enter
        // the replay queue first, in the order they were parked (their
        // dues feed `next_event`, so skip and step runs drain them on the
        // same cycles).
        while let Some(a) = self.delayed_replay.pop_due(now) {
            self.replay_q.push_back(a);
        }
        // Refill the trigger-stage window from the replay queue (waiters
        // released by a retiring walker) then the datapath queue. Refills
        // append, so the refused prefix stays in place.
        while self.pending.len() < self.cfg.access_queue_depth {
            if let Some(a) = self.replay_q.pop_front() {
                self.pending.push_back(a);
            } else if let Some(a) = self.access_q.pop(now) {
                self.pending.push_back(a);
            } else {
                break;
            }
        }

        let window = self.pending.len().min(SCHED_WINDOW);
        let known = self.wait.known;
        debug_assert!(known <= window, "refused prefix outgrew the window");
        #[cfg(debug_assertions)]
        self.assert_still_refused(now, known);
        if known == window {
            // Empty, or every candidate is known refused: a scan would
            // fail identically, so charge the stall without one.
            if window > 0 {
                self.stats.incr_id(counter!("xcache.launch_stall"));
            }
            return;
        }
        // Only the first access of each key in the window is a candidate
        // (per-key order). Rebuild the refused prefix's keys, then resume
        // the scan after it.
        let mut seen_keys = [MetaKey::new(0); SCHED_WINDOW];
        let mut seen = 0usize;
        self.probe_cache = None;
        for i in 0..window {
            let access = self.pending[i];
            let key = access.key();
            if seen_keys[..seen].contains(&key) {
                continue;
            }
            seen_keys[seen] = key;
            seen += 1;
            if i < known {
                continue;
            }
            match self.can_serve(now, &access) {
                Ok(()) => {
                    // Serving takes resources away, so the entries ahead
                    // stay refused unless the serve itself wakes them.
                    self.wait.known = i;
                    let access = self.pending.remove(i).expect("index in window");
                    self.serve_access(now, access, wake_budget);
                    return;
                }
                Err(hazard) => self.wait.note(hazard),
            }
        }
        self.wait.known = window;
        self.stats.incr_id(counter!("xcache.launch_stall"));
    }

    /// Every access in the non-empty trigger window is known refused: the
    /// stage launch-stalls each cycle until a wake re-opens it.
    pub(super) fn window_blocked(&self) -> bool {
        !self.pending.is_empty() && self.wait.known == self.pending.len().min(SCHED_WINDOW)
    }

    /// Debug builds re-check each first-of-its-key entry the wait record
    /// holds refused: a servable one means some hazard input changed
    /// without its wake. Restores `probe_cache`, so the check changes
    /// nothing.
    #[cfg(debug_assertions)]
    fn assert_still_refused(&mut self, now: Cycle, known: usize) {
        let saved = self.probe_cache;
        let mut seen_keys = [MetaKey::new(0); SCHED_WINDOW];
        let mut seen = 0usize;
        for i in 0..known {
            let access = self.pending[i];
            if seen_keys[..seen].contains(&access.key()) {
                continue;
            }
            seen_keys[seen] = access.key();
            seen += 1;
            debug_assert!(
                self.can_serve(now, &access).is_err(),
                "window entry {i} ({access:?}) is servable at cycle {} but recorded refused",
                now.raw()
            );
        }
        self.probe_cache = saved;
    }

    /// Whether `access` can make progress this cycle (trigger-stage hazard
    /// check — "routines are not triggered until all the hazard conditions
    /// are eliminated", §4.1 ③), and if not, what it waits on.
    ///
    /// The verdict reads only launching claims, free X-register files,
    /// free lanes, the key's meta-tag set, degraded mode and the misfire
    /// decision (pure in the access id). The launch's wake is always
    /// available here: the stage serves at most one access per cycle,
    /// before `wake_one`.
    fn can_serve(&mut self, now: Cycle, access: &MetaAccess) -> Result<(), Hazard> {
        let key = access.key();
        if self.launching.contains_key(&key) {
            // Loads attach as waiters (always possible); stores/takes must
            // wait for the walker to finish.
            return match access {
                MetaAccess::Load { .. } => Ok(()),
                _ => Err(Hazard {
                    lane: false,
                    set: None,
                }),
            };
        }
        // Degraded meta path: loads and stores are answered immediately
        // through the bypass (no walker, no tag dependence).
        if self.degraded(now) && !matches!(access, MetaAccess::Take { .. }) {
            return Ok(());
        }
        // A store always launches a walker: without an X-register file and
        // a lane its set cannot change the verdict, so skip the way scan.
        if matches!(access, MetaAccess::Store { .. }) {
            self.launch_hazard(true, None)?;
        }
        // One fused way scan answers residency, allocatability and
        // pinned-full-ness together (it used to be up to three scans of
        // the same set). Remember where it landed: if this access is the
        // one served, `serve_access` completes the lookup via `probe_at`
        // without re-scanning the set.
        let probe = self.tags.launch_probe(key);
        self.probe_cache = Some((key, probe.hit));
        let hit = match probe.hit {
            Some(r) => !self.misfires(access, self.tags.entry(r).pinned),
            None => false,
        };
        match access {
            MetaAccess::Load { .. } if hit => Ok(()),
            MetaAccess::Take { .. } => Ok(()), // hit or definitive not-found
            // Unless the walker will attach to an existing entry, it needs
            // an allocatable way in the key's set. Permanently
            // pinned-full sets still launch so the walker can fast-fault
            // and inform the datapath.
            _ => {
                let alloc_ok = hit || probe.can_alloc || probe.unevictable;
                self.launch_hazard(alloc_ok, Some(self.tags.set_index(key) as u32))
            }
        }
    }

    /// Whether a walker can launch: it needs an X-register file, a lane
    /// and `alloc_ok` (an allocatable way, as `set`'s tags read). A lane
    /// alone unblocks it only when the other two hold.
    fn launch_hazard(&self, alloc_ok: bool, set: Option<u32>) -> Result<(), Hazard> {
        if !self.xregs.has_free() {
            return Err(Hazard { lane: false, set });
        }
        if alloc_ok && self.free_lane().is_some() {
            return Ok(());
        }
        Err(Hazard {
            lane: alloc_ok,
            set,
        })
    }

    /// Whether the fault plan fires a meta-tag lookup misfire for this
    /// access: the probe result is suppressed, so a resident key walks
    /// again. Restricted to loads on unpinned entries — misfiring a take
    /// (or a pinned entry, whose data exists only on-chip) would strand
    /// state no later access can reach. Pure in the access id, so the
    /// hazard check and the serve see the same decision.
    fn misfires(&self, access: &MetaAccess, pinned: bool) -> bool {
        let Some(plan) = &self.fault else {
            return false;
        };
        !pinned
            && matches!(access, MetaAccess::Load { .. })
            && plan.decide(FaultKind::MetaMisfire, access.id()).is_some()
    }

    fn serve_access(&mut self, now: Cycle, access: MetaAccess, wake_budget: &mut usize) {
        let key = access.key();
        // Load-to-use is measured from dispatch (the trigger stage picked
        // the access) to response — matching how the probe-engine
        // baselines measure their per-walk latency.
        self.issue_times.insert(access.id(), now);
        if let Some(&slot) = self.launching.get(&key) {
            debug_assert!(self.arena.is_live(slot), "launching entry");
            self.arena.cold[slot].waiters.push(access);
            self.stats.incr_id(counter!("xcache.waiter"));
            return;
        }
        // Degraded meta path (can_serve agreed): answer "not found" so
        // the datapath walks the structure directly — correct, just
        // uncached — instead of relying on an unhealthy tag pipeline.
        if self.degraded(now) && !matches!(access, MetaAccess::Take { .. }) {
            match access {
                MetaAccess::Load { id, .. } => {
                    self.stats.incr_id(counter!("xcache.degraded_load"));
                    self.respond(now, id, key, false, Vec::new());
                }
                MetaAccess::Store { id, .. } => {
                    self.stats.incr_id(counter!("xcache.degraded_store"));
                    self.respond(now, id, key, false, Vec::new());
                }
                MetaAccess::Take { .. } => unreachable!("takes are not bypassed"),
            }
            return;
        }
        // One tag scan per served access: reuse the hazard check's way
        // scan when it was for this key (always, on the path through a
        // successful `can_serve` peek).
        let raw = match self.probe_cache.take() {
            Some((k, r)) if k == key => self.tags.probe_at(r, &mut self.stats),
            _ => self.tags.probe(key, &mut self.stats),
        };
        let probe = match raw {
            Some(r) if self.misfires(&access, self.tags.entry(r).pinned) => {
                self.stats.incr_id(counter!("xcache.fault.meta_misfire"));
                self.note_meta_strike(now);
                None
            }
            p => p,
        };
        match access {
            MetaAccess::Load { id, .. } => {
                if let Some(r) = probe {
                    let e = *self.tags.entry(r);
                    debug_assert!(!e.active, "active entry without launching record");
                    self.stats.incr_id(counter!("xcache.hit"));
                    let mut data = self.take_buf();
                    self.data.gather_into(
                        e.sector_start,
                        e.sector_count,
                        &mut data,
                        &mut self.stats,
                    );
                    self.respond(now, id, key, true, data);
                    self.trace
                        .emit_with(now, TraceKind::Hit, "xcache", || format!("{key}"));
                } else {
                    self.launch(
                        now,
                        access,
                        false,
                        None,
                        [0; MSG_WORDS],
                        EventId::MISS,
                        wake_budget,
                    );
                }
            }
            MetaAccess::Store { payload, .. } => {
                let mut msg = [0u64; MSG_WORDS];
                msg[0] = payload[0];
                msg[1] = payload[1];
                if let Some(r) = probe {
                    self.stats.incr_id(counter!("xcache.store_hit"));
                    self.launch(
                        now,
                        access,
                        true,
                        Some(r),
                        msg,
                        EventId::UPDATE,
                        wake_budget,
                    );
                } else {
                    self.stats.incr_id(counter!("xcache.store_miss"));
                    self.launch(now, access, false, None, msg, EventId::UPDATE, wake_budget);
                }
            }
            MetaAccess::Take { id, .. } => {
                if let Some(r) = probe {
                    let e = self.tags.invalidate(r, &mut self.stats);
                    // A freed way can let a refused launch allocate.
                    self.wait.wake_all();
                    self.stats.incr_id(counter!("xcache.take_hit"));
                    let mut data = self.take_buf();
                    self.data.gather_into(
                        e.sector_start,
                        e.sector_count,
                        &mut data,
                        &mut self.stats,
                    );
                    if e.sector_count > 0 {
                        self.data.free(e.sector_start, e.sector_count);
                    }
                    self.respond(now, id, key, true, data);
                } else {
                    self.stats.incr_id(counter!("xcache.take_miss"));
                    self.respond(now, id, key, false, Vec::new());
                }
            }
        }
    }

    /// Launches a walker for `access`; `can_serve` already checked the
    /// resources, so failure here is a logic error.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        now: Cycle,
        access: MetaAccess,
        probe_hit: bool,
        entry: Option<EntryRef>,
        msg: [u64; MSG_WORDS],
        event: EventId,
        wake_budget: &mut usize,
    ) {
        let file = self
            .xregs
            .alloc(now)
            .expect("can_serve checked a free file");
        let slot = usize::from(file.0);
        self.arena.gen[slot] = self.arena.gen[slot].wrapping_add(1);
        if let Some(r) = entry {
            self.tags.update_entry(r, |e| e.active = true);
        }
        let state = entry.map_or(StateId::DEFAULT, |r| self.tags.entry(r).state);
        let c = &mut self.arena.cold[slot];
        c.key = access.key();
        c.entry = entry;
        c.state = if event == EventId::MISS {
            StateId::DEFAULT
        } else {
            state
        };
        c.probe_hit = probe_hit;
        c.fill_data = None;
        c.origin = access;
        c.responded = false;
        c.owns_entry = false;
        debug_assert!(c.waiters.is_empty(), "stale waiters on launch");
        c.launched_at = now;
        c.last_routine = None;
        self.arena.msg[slot] = msg;
        self.arena.in_lane[slot] = false;
        self.arena.last_progress[slot] = now;
        self.arena.activate(slot);
        self.arena.push_event(slot, event, msg);
        self.wd_earliest = self.wd_earliest.min(now + self.wd_budget);
        self.launching.insert(access.key(), slot);
        self.global_progress = now;
        self.stats.incr_id(counter!("xcache.walker_launch"));
        if event == EventId::MISS {
            self.stats.incr_id(counter!("xcache.miss"));
            self.trace.emit_with(now, TraceKind::Miss, "xcache", || {
                format!("{}", access.key())
            });
        }
        // Launch consumes the cycle's wake: dispatch immediately.
        *wake_budget = 0;
        self.dispatch(now, slot);
    }
}

#[cfg(test)]
mod tests {
    use crate::{MetaAccess, MetaKey, WalkerDiscipline, XCache, XCacheConfig};
    use xcache_isa::asm::assemble;
    use xcache_mem::{DramConfig, DramModel};
    use xcache_sim::Cycle;

    fn array_walker() -> xcache_isa::WalkerProgram {
        assemble(
            r#"
            walker t
            states Default, Wait
            regs 2
            params base
            routine start {
                allocR
                allocM
                mul r0, key, 32
                add r0, r0, base
                dram_read r0, 32
                yield Wait
            }
            routine fill {
                allocD r1, 1
                filld r1, 4
                updatem r1, r1
                respond
                retire
            }
            on Default, Miss -> start
            on Wait, Fill -> fill
        "#,
        )
        .expect("valid")
    }

    fn tiny() -> XCache<DramModel> {
        let mut dram = DramModel::new(DramConfig::test_tiny());
        for k in 0..32u64 {
            dram.memory_mut().write_u64(0x1000 + k * 32, 9000 + k);
        }
        let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
        XCache::new(cfg, array_walker(), dram).expect("builds")
    }

    fn run_until_response(xc: &mut XCache<DramModel>, mut now: Cycle) -> (Cycle, crate::MetaResp) {
        loop {
            xc.tick(now);
            if let Some(r) = xc.take_response(now) {
                return (now, r);
            }
            now = now.next();
            assert!(now.raw() < 100_000, "trigger stage deadlocked");
        }
    }

    #[test]
    fn miss_launches_walker_then_hit_bypasses() {
        let mut xc = tiny();
        let a = MetaAccess::Load {
            id: 1,
            key: MetaKey::new(3),
        };
        xc.try_access(Cycle(0), a).expect("queue empty");
        let (now, r) = run_until_response(&mut xc, Cycle(0));
        assert!(r.found);
        assert_eq!(r.data[0], 9003);
        assert_eq!(xc.stats().get("xcache.miss"), 1);
        assert_eq!(xc.stats().get("xcache.walker_launch"), 1);

        // Second access to the same key: pure meta-tag hit, no walker.
        let a = MetaAccess::Load {
            id: 2,
            key: MetaKey::new(3),
        };
        xc.try_access(now.next(), a).expect("queue empty");
        let (_, r) = run_until_response(&mut xc, now.next());
        assert!(r.found);
        assert_eq!(r.data[0], 9003);
        assert_eq!(xc.stats().get("xcache.hit"), 1);
        assert_eq!(
            xc.stats().get("xcache.walker_launch"),
            1,
            "no second walker"
        );
    }

    /// Twelve distinct-key misses, one offered per cycle, each hash once
    /// and answer when the digest arrives. Every digest takes the same
    /// `hash_latency`, so the answers come one per cycle: a digest
    /// scheduled in the cycle another one is delivered must not hide the
    /// ones already queued before it.
    #[test]
    fn hash_digests_arrive_on_consecutive_cycles() {
        let program = assemble(
            r#"
            walker hasher
            states Default, Wait
            events HashDone
            regs 1
            routine start {
                allocR
                hash HashDone, key
                yield Wait
            }
            routine done {
                fault
            }
            on Default, Miss -> start
            on Wait, HashDone -> done
        "#,
        )
        .expect("valid");
        let cfg = XCacheConfig {
            active: 16,
            exe: 8,
            hash_latency: 10,
            ..XCacheConfig::test_tiny()
        };
        let dram = DramModel::new(DramConfig::test_tiny());
        let mut xc = XCache::new(cfg, program, dram).expect("builds");
        let mut answered = Vec::new();
        let mut now = Cycle(0);
        while answered.len() < 12 {
            if now.raw() < 12 {
                let a = MetaAccess::Load {
                    id: now.raw(),
                    key: MetaKey::new(now.raw()),
                };
                xc.try_access(now, a).expect("one access per cycle fits");
            }
            xc.tick(now);
            while let Some(r) = xc.take_response(now) {
                assert!(!r.found);
                answered.push(now.raw());
            }
            now = now.next();
            assert!(now.raw() < 1_000, "a digest was never delivered");
        }
        assert_eq!(answered, (16..28).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_key_loads_attach_as_waiters() {
        let mut xc = tiny();
        xc.try_access(
            Cycle(0),
            MetaAccess::Load {
                id: 1,
                key: MetaKey::new(5),
            },
        )
        .expect("queue empty");
        xc.try_access(
            Cycle(0),
            MetaAccess::Load {
                id: 2,
                key: MetaKey::new(5),
            },
        )
        .expect("queue has room");
        let mut now = Cycle(0);
        let mut got = Vec::new();
        while got.len() < 2 {
            xc.tick(now);
            while let Some(r) = xc.take_response(now) {
                got.push(r.id);
            }
            now = now.next();
            assert!(now.raw() < 100_000, "waiter never answered");
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(
            xc.stats().get("xcache.walker_launch"),
            1,
            "one walk serves both"
        );
        assert_eq!(xc.stats().get("xcache.waiter"), 1);
    }

    /// Wake-rule scenarios: one executor lane, `active` X-register files.
    /// A load miss fetches `base + key * 32`; its fill side-inserts key
    /// `key + 10` (`insertm`) before installing its own entry. A store
    /// installs its payload pinned.
    fn wake_cache(active: usize, discipline: WalkerDiscipline) -> XCache<DramModel> {
        wake_cache_with(WAKE_WALKER, active, discipline)
    }

    const WAKE_WALKER: &str = r#"
            walker wake
            states Default, Wait
            regs 2
            params base
            routine start {
                allocR
                allocM
                mul r0, key, 32
                add r0, r0, base
                dram_read r0, 32
                yield Wait
            }
            routine fill {
                add r0, key, 10
                insertm r0, 4
                allocD r1, 1
                filld r1, 4
                updatem r1, r1
                respond
                retire
            }
            routine upsert {
                allocR
                allocM
                allocD r0, 1
                writed r0, 0, msg0
                updatem r0, r0
                pinm
                retire
            }
            on Default, Miss -> start
            on Wait, Fill -> fill
            on Default, Update -> upsert
        "#;

    /// `WAKE_WALKER` without the side-insert, whose load miss frees its way
    /// (`deallocM`) right after allocating it and allocates again when the
    /// fill arrives.
    const DROP_WALKER: &str = r#"
            walker drop
            states Default, Wait
            regs 2
            params base
            routine start {
                allocR
                allocM
                deallocM
                mul r0, key, 32
                add r0, r0, base
                dram_read r0, 32
                yield Wait
            }
            routine fill {
                allocM
                allocD r1, 1
                filld r1, 4
                updatem r1, r1
                respond
                retire
            }
            routine upsert {
                allocR
                allocM
                allocD r0, 1
                writed r0, 0, msg0
                updatem r0, r0
                pinm
                retire
            }
            on Default, Miss -> start
            on Wait, Fill -> fill
            on Default, Update -> upsert
        "#;

    fn wake_cache_with(
        source: &str,
        active: usize,
        discipline: WalkerDiscipline,
    ) -> XCache<DramModel> {
        let program = assemble(source).expect("valid");
        let mut dram = DramModel::new(DramConfig::test_tiny());
        for k in 0..32u64 {
            dram.memory_mut().write_u64(0x1000 + k * 32, 9000 + k);
        }
        let cfg = XCacheConfig {
            exe: 1,
            active,
            discipline,
            ..XCacheConfig::test_tiny()
        }
        .with_params(vec![0x1000]);
        XCache::new(cfg, program, dram).expect("builds")
    }

    fn load(id: u64, key: u64) -> MetaAccess {
        MetaAccess::Load {
            id,
            key: MetaKey::new(key),
        }
    }

    /// One driven scenario: `(id, cycle, found)` per response, the
    /// `xcache.launch_stall` count, and the cycles after whose tick the
    /// whole trigger window was known refused.
    #[derive(Debug, PartialEq, Eq)]
    struct Outcome {
        resps: Vec<(u64, u64, bool)>,
        launch_stall: u64,
        refused: Vec<u64>,
    }

    /// Offers each `(cycle, access)` once its cycle arrives, ticking every
    /// cycle (calling `hook` after each tick) until the instance drains.
    fn run_script(
        xc: &mut XCache<DramModel>,
        script: &[(u64, MetaAccess)],
        mut hook: impl FnMut(&mut XCache<DramModel>, Cycle),
    ) -> Outcome {
        let mut next = 0;
        let mut resps = Vec::new();
        let mut refused = Vec::new();
        let mut now = Cycle(0);
        while next < script.len() || xc.busy() {
            while next < script.len() && script[next].0 <= now.raw() && xc.can_accept() {
                xc.try_access(now, script[next].1)
                    .expect("can_accept checked");
                next += 1;
            }
            xc.tick(now);
            hook(xc, now);
            if xc.window_blocked() {
                refused.push(now.raw());
            }
            while let Some(r) = xc.take_response(now) {
                resps.push((r.id, now.raw(), r.found));
            }
            now = now.next();
            assert!(now.raw() < 10_000, "scenario never drained");
        }
        Outcome {
            resps,
            launch_stall: xc.stats().get("xcache.launch_stall"),
            refused,
        }
    }

    /// Walker A (load 2, set 2) launches at cycle 1 and runs its start
    /// routine on the only lane until it yields at cycle 6; load 4 (set
    /// 5) is refused from cycle 2 for want of a lane.
    fn lane_script() -> Vec<(u64, MetaAccess)> {
        vec![(0, load(1, 2)), (0, load(2, 4))]
    }

    // The responses and stall counts below are the ones the controller
    // produced before the wait record replaced its one dirty flag.

    #[test]
    fn yield_freeing_a_lane_wakes_a_lane_refused_load() {
        let mut xc = wake_cache(2, WalkerDiscipline::Coroutine);
        let out = run_script(&mut xc, &lane_script(), |_, _| {});
        assert_eq!(
            out,
            Outcome {
                resps: vec![(1, 25, true), (2, 32, true)],
                launch_stall: 5,
                // A's yield at cycle 6 re-opens the window; load 4
                // launches at cycle 7.
                refused: vec![2, 3, 4, 5],
            }
        );
    }

    #[test]
    fn blocking_thread_yield_holds_its_lane_and_the_window_shut() {
        let mut xc = wake_cache(2, WalkerDiscipline::BlockingThread);
        let out = run_script(&mut xc, &lane_script(), |_, _| {});
        assert_eq!(
            out,
            Outcome {
                resps: vec![(1, 25, true), (2, 45, true)],
                launch_stall: 22,
                // The yield keeps the lane: only A's retire at cycle 23
                // frees it.
                refused: (2..=22).collect(),
            }
        );
    }

    #[test]
    fn insert_in_the_refused_set_wakes_it() {
        // One X-register file: A (load 2) holds it, so load 12 (set 1)
        // is refused until A's fill side-inserts key 12 at cycle 18 and
        // turns it into a hit.
        let mut xc = wake_cache(1, WalkerDiscipline::Coroutine);
        let out = run_script(&mut xc, &[(0, load(1, 2)), (0, load(2, 12))], |_, _| {});
        assert_eq!(
            out,
            Outcome {
                resps: vec![(2, 22, true), (1, 25, true)],
                launch_stall: 17,
                refused: (2..=17).collect(),
            }
        );
    }

    #[test]
    fn insert_in_another_set_leaves_the_window_shut() {
        // As above, but A (load 3) side-inserts key 13 (set 3), which
        // cannot help load 12 (set 1): only A's retire re-opens.
        let mut xc = wake_cache(1, WalkerDiscipline::Coroutine);
        let mut inserted_at = None;
        let out = run_script(&mut xc, &[(0, load(1, 3)), (0, load(2, 12))], |xc, now| {
            if inserted_at.is_none() && xc.stats().get("xcache.insertm") > 0 {
                inserted_at = Some(now.raw());
            }
        });
        assert_eq!(inserted_at, Some(18));
        assert_eq!(
            out,
            Outcome {
                resps: vec![(1, 25, true), (2, 48, true)],
                launch_stall: 22,
                refused: (2..=22).collect(),
            }
        );
    }

    #[test]
    fn walker_retire_wakes_an_xreg_refused_load() {
        // A (load 2) holds the only X-register file; neither its allocM
        // (set 2), its yield nor its side-insert (set 1) can help load 4
        // (set 5). Its retire at cycle 23 does.
        let mut xc = wake_cache(1, WalkerDiscipline::Coroutine);
        let out = run_script(&mut xc, &lane_script(), |_, _| {});
        assert_eq!(
            out,
            Outcome {
                resps: vec![(1, 25, true), (2, 45, true)],
                launch_stall: 22,
                refused: (2..=22).collect(),
            }
        );
    }

    #[test]
    fn served_take_wakes_a_load_refused_its_set() {
        // Store 1 pins key 1 in set 1; load 12 (set 1) is in flight from
        // cycle 11, so at cycle 19 set 1 has no allocatable way and load
        // 17 (set 1) is refused. The take of key 1 behind it serves in the
        // same cycle and frees a way: load 17 launches at cycle 20.
        let mut xc = wake_cache(3, WalkerDiscipline::Coroutine);
        let script = [
            (
                0,
                MetaAccess::Store {
                    id: 1,
                    key: MetaKey::new(1),
                    payload: [77, 0],
                },
            ),
            (10, load(2, 12)),
            (18, load(3, 17)),
            (
                18,
                MetaAccess::Take {
                    id: 4,
                    key: MetaKey::new(1),
                },
            ),
        ];
        let out = run_script(&mut xc, &script, |_, _| {});
        assert_eq!(
            out,
            Outcome {
                resps: vec![(1, 10, true), (4, 22, true), (2, 35, true), (3, 44, true)],
                launch_stall: 0,
                refused: vec![],
            }
        );
    }

    #[test]
    fn dealloc_in_the_refused_set_wakes_it() {
        // Store 1 pins key 1 in set 1. Load 12 (set 1) launches at cycle
        // 11 and holds the other way from its allocM (cycle 12) to its
        // deallocM (cycle 13), so load 17 (set 1) is refused for want of
        // a way at cycle 13. The deallocM re-opens it; from then on it
        // waits only for the lane, which 12's yield frees at cycle 17.
        let mut xc = wake_cache_with(DROP_WALKER, 3, WalkerDiscipline::Coroutine);
        let script = [
            (
                0,
                MetaAccess::Store {
                    id: 1,
                    key: MetaKey::new(1),
                    payload: [77, 0],
                },
            ),
            (10, load(2, 12)),
            (10, load(3, 17)),
        ];
        let out = run_script(&mut xc, &script, |_, _| {});
        assert_eq!(
            out,
            Outcome {
                resps: vec![(1, 10, true), (2, 35, true), (3, 42, true)],
                launch_stall: 6,
                refused: vec![14, 15, 16],
            }
        );
    }

    #[test]
    fn degraded_mode_entry_wakes_the_window() {
        // A (load 2) holds the only X-register file; load 4 is refused
        // from cycle 2. Enough meta-path strikes after cycle 3's tick put
        // the path in degraded mode, and load 4 is answered "not found"
        // through the bypass at cycle 4.
        let mut xc = wake_cache(1, WalkerDiscipline::Coroutine);
        let out = run_script(&mut xc, &lane_script(), |xc, now| {
            if now.raw() == 3 {
                for _ in 0..super::super::DEGRADE_STRIKES {
                    xc.note_meta_strike(now);
                }
            }
        });
        assert_eq!(
            out,
            Outcome {
                resps: vec![(2, 7, false), (1, 25, true)],
                launch_stall: 2,
                refused: vec![2],
            }
        );
    }

    #[test]
    fn take_miss_answers_not_found_without_walker() {
        let mut xc = tiny();
        xc.try_access(
            Cycle(0),
            MetaAccess::Take {
                id: 9,
                key: MetaKey::new(7),
            },
        )
        .expect("queue empty");
        let (_, r) = run_until_response(&mut xc, Cycle(0));
        assert!(!r.found);
        assert_eq!(xc.stats().get("xcache.take_miss"), 1);
        assert_eq!(xc.stats().get("xcache.walker_launch"), 0);
    }
}
