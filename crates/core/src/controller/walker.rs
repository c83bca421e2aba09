//! Walker lifecycle: per-walk context and completion paths.
//!
//! A walker is one in-flight structure walk: launched by the trigger
//! stage, advanced by the executor, and ended here — by retiring
//! (success), faulting (resources invalidated, datapath told "not
//! found"), or aborting with replay (lost an allocation race; the access
//! re-enters the trigger stage unanswered). Walker state lives in the
//! [`WalkerArena`](super::arena::WalkerArena); completion paths read the
//! slot's row, then [`deactivate`](super::arena::WalkerArena::deactivate)
//! it.

use xcache_isa::StateId;
use xcache_mem::MemoryPort;
use xcache_sim::{counter, Cycle, TraceKind};

use crate::{MetaKey, MetaResp};

use super::arena::WalkerCold;
use super::executor::Outcome;
use super::{SimError, XCache};

impl<D: MemoryPort> XCache<D> {
    /// The cold row of the live walker in `slot`, or a [`SimError`] when
    /// the slot is vacant (e.g. the walker faulted earlier this cycle).
    pub(super) fn wk(&self, slot: usize, now: Cycle) -> Result<&WalkerCold, SimError> {
        if self.arena.is_live(slot) {
            Ok(&self.arena.cold[slot])
        } else {
            Err(SimError::new(slot, now, "no walker in slot"))
        }
    }

    /// Mutable variant of [`wk`](Self::wk).
    pub(super) fn wk_mut(&mut self, slot: usize, now: Cycle) -> Result<&mut WalkerCold, SimError> {
        if self.arena.is_live(slot) {
            Ok(&mut self.arena.cold[slot])
        } else {
            Err(SimError::new(slot, now, "no walker in slot"))
        }
    }

    /// Moves spilled responses into the response queue as room appears.
    pub(super) fn drain_resp_spill(&mut self, now: Cycle) {
        while !self.resp_spill.is_empty() {
            if self.resp_q.is_full() {
                break;
            }
            let (extra, resp) = self.resp_spill.pop_front().expect("front exists");
            self.resp_q
                .push_after(now, extra, resp)
                .expect("checked not full");
        }
    }

    /// Sends a datapath response, spilling FIFO if the queue is full.
    pub(super) fn respond(
        &mut self,
        now: Cycle,
        id: u64,
        key: MetaKey,
        found: bool,
        data: Vec<u64>,
    ) {
        self.global_progress = now;
        let sectors = data.len().div_ceil(self.data.words_per_sector()).max(1) as u64;
        let resp = MetaResp {
            id,
            key,
            found,
            data,
        };
        if let Some(t) = self.issue_times.remove(&id) {
            self.stats.sample_id(
                counter!("xcache.load_to_use"),
                now.since(t) + self.cfg.hit_latency + sectors - 1,
            );
        }
        // Serial return of multi-sector elements (§5: "all blocks are
        // serially returned to compute datapath").
        let extra = sectors - 1;
        // FIFO order: once anything spilled, later responses follow it.
        if !self.resp_spill.is_empty() || self.resp_q.is_full() {
            self.stats.incr_id(counter!("xcache.resp_spill"));
            self.resp_spill.push_back((extra, resp));
            return;
        }
        self.resp_q
            .push_after(now, extra, resp)
            .expect("checked not full");
    }

    /// Successful completion: entry rests, waiters replay, resources free.
    pub(super) fn retire_walker(&mut self, now: Cycle, slot: usize) {
        debug_assert!(self.arena.is_live(slot), "retire on empty slot");
        self.global_progress = now;
        // Frees X-regs/lanes and removes the launching claim: a refused
        // trigger window may now make progress.
        self.wait.wake_all();
        let c = &mut self.arena.cold[slot];
        let key = c.key;
        let entry = c.entry;
        let responded = c.responded;
        let origin_id = c.origin.id();
        let launched_at = c.launched_at;
        let mut waiters = std::mem::take(&mut c.waiters);
        // A completed walk clears its watchdog retry history.
        self.retry_counts.remove(&key);
        self.launching.remove(&key);
        if let Some(r) = entry {
            self.tags.update_entry(r, |e| {
                e.active = false;
                // A completed entry rests in `Default`: future events on
                // it (e.g. a Store merge) dispatch from the resting
                // state, not from whatever mid-walk state the last yield
                // recorded.
                e.state = StateId::DEFAULT;
            });
        }
        if !responded {
            // Auto-acknowledge (stores / preloads that never Respond).
            self.respond(now, origin_id, key, true, Vec::new());
        }
        // Remaining waiters replay through the front-end and hit.
        for wa in waiters.drain(..) {
            self.replay_q.push_back(wa);
        }
        self.arena.cold[slot].waiters = waiters;
        self.arena.deactivate(slot);
        self.xregs
            .release(crate::xreg::XRegFile(slot as u16), now, &mut self.stats);
        self.stats.incr_id(counter!("xcache.walker_retire"));
        self.stats
            .sample_id(counter!("xcache.walk_latency"), now.since(launched_at));
        self.trace
            .emit_with(now, TraceKind::Retire, "xcache", || format!("slot {slot}"));
    }

    /// Failure: owned resources invalidated, origin and waiters answered
    /// "not found", lanes freed.
    pub(super) fn fault_walker(&mut self, now: Cycle, slot: usize) {
        if !self.arena.is_live(slot) {
            return;
        }
        self.global_progress = now;
        // Frees X-regs/lanes/tag claims: a refused trigger window may now
        // make progress, so it must be re-examined before fast-forwarding.
        self.wait.wake_all();
        let c = &mut self.arena.cold[slot];
        let key = c.key;
        let entry = c.entry.take();
        let owns_entry = c.owns_entry;
        let responded = c.responded;
        let origin_id = c.origin.id();
        let mut waiters = std::mem::take(&mut c.waiters);
        self.launching.remove(&key);
        if let Some(r) = entry {
            if owns_entry {
                let e = self.tags.invalidate(r, &mut self.stats);
                if e.sector_count > 0 {
                    self.data.free(e.sector_start, e.sector_count);
                }
            } else {
                // Attached to a pre-existing entry (store hit): the data
                // is still valid, just release the active claim.
                self.tags.update_entry(r, |e| e.active = false);
            }
        }
        if !responded {
            self.respond(now, origin_id, key, false, Vec::new());
        }
        for wa in waiters.drain(..) {
            self.respond(now, wa.id(), key, false, Vec::new());
        }
        self.arena.cold[slot].waiters = waiters;
        // Free any lane the walker held (thread discipline).
        for l in &mut self.lanes {
            if l.is_some_and(|l| l.slot == slot) {
                *l = None;
            }
        }
        self.arena.deactivate(slot);
        self.xregs
            .release(crate::xreg::XRegFile(slot as u16), now, &mut self.stats);
        self.stats.incr_id(counter!("xcache.walker_fault"));
    }

    /// Aborts a walker that lost an allocation race and replays its access
    /// (and waiters) through the trigger stage — no response is sent, so
    /// the datapath just sees a longer walk.
    pub(super) fn abort_and_replay(&mut self, now: Cycle, slot: usize) {
        if !self.arena.is_live(slot) {
            return;
        }
        self.global_progress = now;
        // Frees X-regs/lanes/tag claims like a fault does.
        self.wait.wake_all();
        let c = &mut self.arena.cold[slot];
        let key = c.key;
        let entry = c.entry.take();
        let owns_entry = c.owns_entry;
        let origin = c.origin;
        let mut waiters = std::mem::take(&mut c.waiters);
        self.launching.remove(&key);
        if let Some(r) = entry {
            if owns_entry {
                let e = self.tags.invalidate(r, &mut self.stats);
                if e.sector_count > 0 {
                    self.data.free(e.sector_start, e.sector_count);
                }
            } else {
                self.tags.update_entry(r, |e| e.active = false);
            }
        }
        self.replay_q.push_back(origin);
        for wa in waiters.drain(..) {
            self.replay_q.push_back(wa);
        }
        self.arena.cold[slot].waiters = waiters;
        for l in &mut self.lanes {
            if l.is_some_and(|l| l.slot == slot) {
                *l = None;
            }
        }
        self.arena.deactivate(slot);
        self.xregs
            .release(crate::xreg::XRegFile(slot as u16), now, &mut self.stats);
        self.stats.incr_id(counter!("xcache.walker_replay"));
    }

    /// Records a runtime protocol violation and faults the walker: the
    /// structured replacement for the executor's old panic paths.
    pub(super) fn runtime_error(&mut self, now: Cycle, err: &SimError) -> Outcome {
        self.stats.incr_id(counter!("xcache.walker_error"));
        self.trace
            .emit_with(now, TraceKind::Other, "xcache", || err.to_string());
        self.fault_walker(now, err.slot);
        Outcome::FreeLane
    }

    /// Evicts the idle, unpinned meta entry holding the fewest sectors
    /// (the first in scan order on a tie, see
    /// [`idle_victim`](crate::MetaTagArray::idle_victim)), freeing its
    /// sectors. Returns whether anything was evicted.
    pub(super) fn evict_one_idle(&mut self) -> bool {
        let Some(r) = self.tags.idle_victim() else {
            return false;
        };
        let e = self.tags.invalidate(r, &mut self.stats);
        // The set's tags changed: re-check refused accesses in it.
        self.wait.wake_set(r.set);
        self.data.free(e.sector_start, e.sector_count);
        self.stats.incr_id(counter!("xcache.capacity_evict"));
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::{MetaAccess, MetaKey, XCache, XCacheConfig};
    use xcache_isa::asm::assemble;
    use xcache_mem::{DramConfig, DramModel};
    use xcache_sim::Cycle;

    /// A walker that always faults — exercises the fault path end to end.
    fn faulting_walker() -> xcache_isa::WalkerProgram {
        assemble(
            r#"
            walker f
            states Default
            regs 1
            routine start {
                allocR
                fault
            }
            on Default, Miss -> start
        "#,
        )
        .expect("valid")
    }

    #[test]
    fn fault_answers_not_found_and_frees_resources() {
        let dram = DramModel::new(DramConfig::test_tiny());
        let cfg = XCacheConfig::test_tiny();
        let mut xc = XCache::new(cfg, faulting_walker(), dram).expect("builds");
        xc.try_access(
            Cycle(0),
            MetaAccess::Load {
                id: 4,
                key: MetaKey::new(1),
            },
        )
        .expect("queue empty");
        let mut now = Cycle(0);
        let r = loop {
            xc.tick(now);
            if let Some(r) = xc.take_response(now) {
                break r;
            }
            now = now.next();
            assert!(now.raw() < 10_000, "fault path deadlocked");
        };
        assert!(!r.found, "faulted walk must answer not-found");
        assert_eq!(xc.stats().get("xcache.walker_fault"), 1);
        // Resource conservation: everything released, instance quiescent.
        while xc.busy() {
            now = now.next();
            xc.tick(now);
            let _ = xc.take_response(now);
            assert!(now.raw() < 10_000, "never drained");
        }
        assert_eq!(
            xc.stats().get("xcache.walker_launch"),
            xc.stats().get("xcache.walker_retire") + xc.stats().get("xcache.walker_fault")
        );
    }
}
