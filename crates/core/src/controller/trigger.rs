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
            self.ctx.stats.incr_id(counter!("xcache.fill_resp"));
            self.ctx
                .trace
                .emit_with(now, TraceKind::DramResp, "xcache", || {
                    format!("slot {slot} addr {:#x}", resp.addr)
                });
        }
    }

    /// Delivers due delayed events (hash results, posted events) from the
    /// timing wheel, in deterministic (due, schedule-order) order.
    pub(super) fn deliver_delayed(&mut self, now: Cycle) {
        if self.delayed.next_due().is_none_or(|d| d > now) {
            return;
        }
        let mut buf = std::mem::take(&mut self.delayed_buf);
        self.delayed.pop_due_into(now, &mut buf);
        for &(_, (slot, gen, ev, payload)) in &buf {
            if self.arena.is_live(slot) && self.arena.gen[slot] == gen {
                self.arena.push_event(slot, ev, payload);
                self.arena.last_progress[slot] = now;
                self.global_progress = now;
            }
        }
        buf.clear();
        self.delayed_buf = buf;
    }

    /// Processes at most one datapath access per cycle.
    ///
    /// Meta hits are "handled by a dedicated read port … fully pipelined"
    /// (§4.2), so a miss that cannot launch a walker this cycle (no free
    /// X-register file) must not block younger hits. The trigger stage
    /// therefore scans a bounded window of the pending accesses and serves
    /// the first one that can make progress, never reordering two accesses
    /// to the same key.
    pub(super) fn process_access(&mut self, now: Cycle, wake_budget: &mut usize) {
        // Watchdog-aborted accesses whose backoff has elapsed re-enter
        // the replay queue first (their dues are folded into
        // `next_event`, so skip and step runs drain them on the same
        // cycles, in the same order).
        let mut refilled = false;
        if !self.delayed_replay.is_empty() {
            let mut i = 0;
            while i < self.delayed_replay.len() {
                if self.delayed_replay[i].0 <= now {
                    let (_, a) = self.delayed_replay.swap_remove(i);
                    self.replay_q.push_back(a);
                    refilled = true;
                } else {
                    i += 1;
                }
            }
        }
        // Refill the trigger-stage window from the replay queue (waiters
        // released by a retiring walker) then the datapath queue.
        while self.pending.len() < self.cfg.access_queue_depth {
            if let Some(a) = self.replay_q.pop_front() {
                self.pending.push_back(a);
            } else if let Some(a) = self.access_q.pop(now) {
                self.pending.push_back(a);
            } else {
                break;
            }
            refilled = true;
        }

        // Dirty gate: `launch_stalled` means the last window scan failed
        // and nothing since has perturbed the hazard state. Every site
        // that frees a resource or mutates the tags clears the flag:
        // retire/fault/abort/backoff (X-regs, lanes, launching claims),
        // lane release on yield, AllocM/InsertM/DeallocM/PinM and idle
        // eviction (tag contents), degraded-mode entry and watchdog
        // recovery. Pure register/data/DRAM actions cannot change the
        // hazard checks, so a busy executor no longer forces a rescan
        // every cycle. If the window contents are also unchanged,
        // rescanning would fail identically — charge the stall and skip
        // the scan.
        if self.launch_stalled && !refilled {
            self.ctx.stats.incr_id(counter!("xcache.launch_stall"));
            return;
        }

        let Some(&head) = self.pending.front() else {
            self.launch_stalled = false;
            return;
        };
        // Head fast path: the window's first candidate is always
        // `pending[0]`, and on the vast majority of scans it serves —
        // skip the dedup-window build entirely for that case. `can_serve`
        // is deterministic and side-effect-free (its only write,
        // `probe_cache`, is key-validated by the consumer), so the slow
        // path below can also skip re-checking candidate 0.
        self.probe_cache = None;
        if self.can_serve(now, &head, wake_budget) {
            self.launch_stalled = false;
            let access = self.pending.pop_front().expect("head exists");
            self.serve_access(now, access, wake_budget);
            return;
        }
        let window = self.pending.len().min(SCHED_WINDOW);
        let mut seen_keys = [MetaKey::new(0); SCHED_WINDOW];
        seen_keys[0] = head.key();
        let mut seen = 1usize;
        let mut serve: Option<usize> = None;
        for i in 1..window {
            let access = self.pending[i];
            let key = access.key();
            if seen_keys[..seen].contains(&key) {
                continue; // per-key order preserved
            }
            seen_keys[seen] = key;
            seen += 1;
            if self.can_serve(now, &access, wake_budget) {
                serve = Some(i);
                break;
            }
        }
        let Some(i) = serve else {
            self.launch_stalled = true;
            self.ctx.stats.incr_id(counter!("xcache.launch_stall"));
            return;
        };
        self.launch_stalled = false;
        let access = self.pending.remove(i).expect("index in window");
        self.serve_access(now, access, wake_budget);
    }

    /// Whether `access` can make progress this cycle (trigger-stage hazard
    /// check — "routines are not triggered until all the hazard conditions
    /// are eliminated", §4.1 ③).
    fn can_serve(&mut self, now: Cycle, access: &MetaAccess, wake_budget: &usize) -> bool {
        let key = access.key();
        if let Some(_slot) = self.launching.get(&key) {
            // Loads attach as waiters (always possible); stores/takes must
            // wait for the walker to finish.
            return matches!(access, MetaAccess::Load { .. });
        }
        // Degraded meta path: loads and stores are answered immediately
        // through the bypass (no walker, no tag dependence).
        if self.degraded(now) && !matches!(access, MetaAccess::Take { .. }) {
            return true;
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
            MetaAccess::Load { .. } if hit => true,
            MetaAccess::Take { .. } => true, // hit or definitive not-found
            // Walker launch needs the cycle's wake, a lane, an X-reg file,
            // and — unless the walker will attach to an existing entry —
            // an allocatable way in the key's set ("routines are not
            // triggered until all the hazard conditions are eliminated").
            // Permanently pinned-full sets still launch so the walker can
            // fast-fault and inform the datapath.
            _ => {
                let alloc_ok = hit || probe.can_alloc || probe.unevictable;
                *wake_budget > 0 && self.xregs.has_free() && self.free_lane().is_some() && alloc_ok
            }
        }
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
            self.ctx.stats.incr_id(counter!("xcache.waiter"));
            return;
        }
        // Degraded meta path (can_serve agreed): answer "not found" so
        // the datapath walks the structure directly — correct, just
        // uncached — instead of relying on an unhealthy tag pipeline.
        if self.degraded(now) && !matches!(access, MetaAccess::Take { .. }) {
            match access {
                MetaAccess::Load { id, .. } => {
                    self.ctx.stats.incr_id(counter!("xcache.degraded_load"));
                    self.respond(now, id, key, false, Vec::new());
                }
                MetaAccess::Store { id, .. } => {
                    self.ctx.stats.incr_id(counter!("xcache.degraded_store"));
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
            Some((k, r)) if k == key => self.tags.probe_at(r, &mut self.ctx.stats),
            _ => self.tags.probe(key, &mut self.ctx.stats),
        };
        let probe = match raw {
            Some(r) if self.misfires(&access, self.tags.entry(r).pinned) => {
                self.ctx
                    .stats
                    .incr_id(counter!("xcache.fault.meta_misfire"));
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
                    self.ctx.stats.incr_id(counter!("xcache.hit"));
                    let mut data = self.take_buf();
                    self.data.gather_into(
                        e.sector_start,
                        e.sector_count,
                        &mut data,
                        &mut self.ctx.stats,
                    );
                    self.respond(now, id, key, true, data);
                    self.ctx
                        .trace
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
                    self.ctx.stats.incr_id(counter!("xcache.store_hit"));
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
                    self.ctx.stats.incr_id(counter!("xcache.store_miss"));
                    self.launch(now, access, false, None, msg, EventId::UPDATE, wake_budget);
                }
            }
            MetaAccess::Take { id, .. } => {
                if let Some(r) = probe {
                    let e = self.tags.invalidate(r, &mut self.ctx.stats);
                    self.ctx.stats.incr_id(counter!("xcache.take_hit"));
                    let mut data = self.take_buf();
                    self.data.gather_into(
                        e.sector_start,
                        e.sector_count,
                        &mut data,
                        &mut self.ctx.stats,
                    );
                    if e.sector_count > 0 {
                        self.data.free(e.sector_start, e.sector_count);
                    }
                    self.respond(now, id, key, true, data);
                } else {
                    self.ctx.stats.incr_id(counter!("xcache.take_miss"));
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
        self.ctx.stats.incr_id(counter!("xcache.walker_launch"));
        if event == EventId::MISS {
            self.ctx.stats.incr_id(counter!("xcache.miss"));
            self.ctx
                .trace
                .emit_with(now, TraceKind::Miss, "xcache", || {
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
    use crate::{MetaAccess, MetaKey, XCache, XCacheConfig};
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
