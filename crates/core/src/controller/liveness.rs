//! Liveness watchdog and the recovery ladder.
//!
//! Every walker carries a `last_progress` cycle (updated on dispatch,
//! executed actions, fill arrival, and delayed-event delivery) and the
//! instance carries one `global_progress` for the controller as a whole.
//! [`check_liveness`](XCache::check_liveness) runs once per tick:
//!
//! 1. A walker whose age reaches the budget is *retried* — aborted with
//!    exponential backoff, its access replaying through the trigger stage
//!    — up to [`WALKER_RETRY_MAX`](super::WALKER_RETRY_MAX) times
//!    (`xcache.fault.retry`).
//! 2. Past the retry budget it is *killed*: faulted in place, so only its
//!    own slot answers "not found" (`xcache.watchdog.walker_kill`), and
//!    the meta path takes a health strike.
//! 3. If the whole controller makes no forward progress for twice the
//!    budget, all walkers are faulted and queued accesses are shed with
//!    "not found" (`xcache.watchdog.global_stall`,
//!    `xcache.watchdog.shed_access`) — the datapath drains instead of
//!    hanging.
//!
//! The per-walker scan is gated on `wd_earliest`, a lower bound on the
//! earliest per-walker deadline (`min(last_progress + budget)` over live
//! walkers). Progress only pushes deadlines later, so the bound is sound:
//! landing on it early just re-scans and tightens it. A scan that fires
//! nothing touches no stats, so the gate is observationally identical to
//! scanning every cycle.
//!
//! Enough health strikes within a window trip *degraded mode*
//! (`xcache.degraded_enter`): loads and stores bypass the unhealthy
//! meta-tag path entirely (answered "not found", so the datapath falls
//! back to walking the structure directly) until the penalty expires.
//! Takes still probe — a pinned entry's data exists only on-chip and
//! must remain reachable.

use xcache_mem::MemoryPort;
use xcache_sim::{counter, Cycle, StallReport, TraceKind};

use crate::MetaAccess;

use super::{
    XCache, DEGRADE_PENALTY, DEGRADE_STRIKES, HEALTH_WINDOW, RETRY_BACKOFF_BASE, STALL_REPORT_CAP,
    WALKER_RETRY_MAX,
};

impl<D: MemoryPort> XCache<D> {
    /// Work the controller itself is responsible for finishing (the
    /// global watchdog's scope; downstream components are excluded — an
    /// idle controller cannot be blamed for a busy DRAM).
    pub(super) fn has_local_work(&self) -> bool {
        !self.pending.is_empty()
            || !self.replay_q.is_empty()
            || !self.delayed_replay.is_empty()
            || self.arena.live_count() > 0
    }

    /// Runs the watchdog: per-walker budgets, then the global
    /// no-forward-progress check.
    pub(super) fn check_liveness(&mut self, now: Cycle) {
        let global_due = self.has_local_work()
            && now.since(self.global_progress) >= self.wd_budget.saturating_mul(2);
        if now < self.wd_earliest && !global_due {
            return;
        }
        if now >= self.wd_earliest {
            // Earliest deadline among walkers that survive this scan; the
            // next gate opens no later than this.
            let mut next_deadline = Cycle::NEVER;
            for slot in 0..self.arena.len() {
                if !self.arena.is_live(slot) {
                    continue;
                }
                let last = self.arena.last_progress[slot];
                let age = now.since(last);
                if age < self.wd_budget {
                    next_deadline = next_deadline.min(last + self.wd_budget);
                    continue;
                }
                let key = self.arena.cold[slot].key;
                let routine = self.arena.cold[slot]
                    .last_routine
                    .map(|r| self.program.routines[r.0 as usize].name.clone());
                let waiting_on = self.waiting_on(slot);
                let attempts = self.retry_counts.get(&key).copied().unwrap_or(0);
                let recovered = attempts < WALKER_RETRY_MAX;
                self.push_stall_report(
                    now,
                    StallReport {
                        cycle: now,
                        slot: Some(slot),
                        routine,
                        waiting_on,
                        age,
                        recovered,
                    },
                );
                self.stats.incr_id(counter!("xcache.watchdog.stall"));
                if recovered {
                    self.retry_counts.insert(key, attempts + 1);
                    self.stats.incr_id(counter!("xcache.fault.retry"));
                    // Exponential backoff: transient downstream faults (port
                    // stalls, delayed fills) clear while the walk is parked.
                    self.abort_with_backoff(now, slot, RETRY_BACKOFF_BASE << attempts);
                } else {
                    self.retry_counts.remove(&key);
                    self.stats.incr_id(counter!("xcache.watchdog.walker_kill"));
                    self.note_meta_strike(now);
                    // Containment: only this slot's origin and waiters are
                    // answered "not found"; siblings are untouched.
                    self.fault_walker(now, slot);
                }
                // The watchdog acting *is* forward progress.
                self.global_progress = now;
            }
            self.wd_earliest = next_deadline;
        }

        if self.has_local_work()
            && now.since(self.global_progress) >= self.wd_budget.saturating_mul(2)
        {
            self.global_stall(now);
        }
    }

    /// Global no-forward-progress recovery: fault every walker, shed all
    /// queued work with "not found", and report.
    fn global_stall(&mut self, now: Cycle) {
        let live = self.arena.live_count();
        let queued = self.pending.len() + self.replay_q.len() + self.delayed_replay.len();
        let age = now.since(self.global_progress);
        self.push_stall_report(
            now,
            StallReport {
                cycle: now,
                slot: None,
                routine: None,
                waiting_on: format!("{queued} queued access(es), {live} live walker(s)"),
                age,
                recovered: false,
            },
        );
        self.stats.incr_id(counter!("xcache.watchdog.global_stall"));
        for slot in 0..self.arena.len() {
            if self.arena.is_live(slot) {
                self.fault_walker(now, slot);
            }
        }
        let shed: Vec<MetaAccess> = self
            .pending
            .drain(..)
            .chain(self.replay_q.drain(..))
            .chain(self.delayed_replay.drain())
            .collect();
        for a in shed {
            self.stats.incr_id(counter!("xcache.watchdog.shed_access"));
            self.respond(now, a.id(), a.key(), false, Vec::new());
        }
        self.wait.wake_all();
        self.global_progress = now;
    }

    /// Aborts the walker in `slot` and schedules its access (and waiters)
    /// to replay `backoff` cycles from now. The watchdog's transient-fault
    /// rung: like `abort_and_replay`, but the replay is delayed so a
    /// congested or faulty downstream has time to drain.
    fn abort_with_backoff(&mut self, now: Cycle, slot: usize, backoff: u64) {
        if !self.arena.is_live(slot) {
            return;
        }
        self.wait.wake_all();
        let gen = self.arena.gen[slot];
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
        // Forget this walk's in-flight requests: a late (or injected-
        // delayed) fill must not wake the slot's next tenant. Generation
        // checks already drop them; pruning keeps the map from growing.
        self.inflight.retain(|_, &mut (s, g)| s != slot || g != gen);
        let due = now + backoff.max(1);
        self.delayed_replay.schedule(due, origin);
        for wa in waiters.drain(..) {
            self.delayed_replay.schedule(due, wa);
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

    /// A deterministic description of what `slot` is blocked on, for
    /// stall reports (minimum in-flight request id, never map order).
    fn waiting_on(&self, slot: usize) -> String {
        if !self.arena.is_live(slot) {
            return "nothing".into();
        }
        let gen = self.arena.gen[slot];
        if let Some(id) = self
            .inflight
            .iter()
            .filter(|&(_, &(s, g))| s == slot && g == gen)
            .map(|(&id, _)| id)
            .min()
        {
            return format!("dram fill (req #{id})");
        }
        if self.arena.has_events(slot) {
            return "an executor lane".into();
        }
        if self
            .lanes
            .iter()
            .flatten()
            .any(|l| l.slot == slot && l.waiting)
        {
            return "an event for its parked lane".into();
        }
        format!("an event in state {}", self.arena.cold[slot].state.0)
    }

    /// Records a meta-path health strike; enough strikes inside the
    /// window trip degraded mode.
    pub(super) fn note_meta_strike(&mut self, now: Cycle) {
        if now.since(self.health_window_start) > HEALTH_WINDOW {
            self.health_window_start = now;
            self.health_strikes = 0;
        }
        self.health_strikes += 1;
        if self.health_strikes >= DEGRADE_STRIKES && self.degraded_until <= now {
            self.degraded_until = now + DEGRADE_PENALTY;
            self.health_strikes = 0;
            self.stats.incr_id(counter!("xcache.degraded_enter"));
            // The hazard picture changed: pending loads/stores that were
            // refused can now be answered through the bypass.
            self.wait.wake_all();
        }
    }

    /// Whether the meta-tag path is currently bypassed.
    pub(super) fn degraded(&self, now: Cycle) -> bool {
        now < self.degraded_until
    }

    fn push_stall_report(&mut self, now: Cycle, report: StallReport) {
        self.trace
            .emit_with(now, TraceKind::Other, "xcache", || report.to_string());
        if self.stall_reports.len() < STALL_REPORT_CAP {
            self.stall_reports.push(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use xcache_isa::asm::assemble;
    use xcache_mem::{DramConfig, DramModel};
    use xcache_sim::{with_watchdog_budget, Cycle};

    use crate::{MetaAccess, MetaKey, MetaResp, XCache, XCacheConfig};

    /// A raw program the static verifier rejects: key 99 parks in a state
    /// with no outgoing transitions, so that walker never advances again.
    fn parking_walker() -> xcache_isa::WalkerProgram {
        assemble(
            r#"
            walker parker
            states Default, Park
            regs 1
            routine start {
                allocR
                beq key, 99, @stuck
                allocM
                retire
            stuck:
                yield Park
            }
            on Default, Miss -> start
        "#,
        )
        .expect("assembles")
    }

    fn drive(keys: &[u64], budget: u64) -> (XCache<DramModel>, Vec<MetaResp>) {
        with_watchdog_budget(budget, || {
            let dram = DramModel::new(DramConfig::test_tiny());
            let cfg = XCacheConfig::test_tiny();
            let mut xc =
                XCache::new_unchecked(cfg, parking_walker(), dram).expect("builds unchecked");
            let mut now = Cycle(0);
            let mut queue: Vec<MetaAccess> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| MetaAccess::Load {
                    id: i as u64 + 1,
                    key: MetaKey::new(k),
                })
                .collect();
            queue.reverse();
            let mut got = Vec::new();
            while got.len() < keys.len() {
                while xc.can_accept() {
                    let Some(a) = queue.pop() else { break };
                    xc.try_access(now, a).expect("can_accept checked");
                }
                xc.tick(now);
                while let Some(r) = xc.take_response(now) {
                    got.push(r);
                }
                now = now.next();
                assert!(
                    now.raw() < 200 * budget,
                    "watchdog failed to unwedge the parked walker"
                );
            }
            (xc, got)
        })
    }

    #[test]
    fn verifier_rejects_parking_program_but_unchecked_builds() {
        let dram = DramModel::new(DramConfig::test_tiny());
        let cfg = XCacheConfig::test_tiny();
        assert!(
            XCache::new(cfg, parking_walker(), dram).is_err(),
            "the park state must be a verifier error — this test bypasses it on purpose"
        );
    }

    #[test]
    fn unchecked_build_runs_only_the_structural_pass() {
        use xcache_isa::verify::DefectClass;
        use xcache_isa::{EventId, RoutineId, StateId, WalkerProgram};

        use crate::BuildError;

        let rejected = |program: WalkerProgram, checked: bool| {
            let (cfg, dram) = (
                XCacheConfig::test_tiny(),
                DramModel::new(DramConfig::test_tiny()),
            );
            let built = if checked {
                XCache::new(cfg, program, dram)
            } else {
                XCache::new_unchecked(cfg, program, dram)
            };
            match built {
                Err(BuildError::Verify(v)) => v.diagnostics.iter().map(|d| d.class).collect(),
                Err(other) => panic!("expected BuildError::Verify, got {other:?}"),
                Ok(_) => Vec::new(),
            }
        };
        // The parking walker is structurally sound: only the full
        // verifier rejects it, and only for its unwakeable yield.
        assert_eq!(rejected(parking_walker(), false), vec![]);
        let found = rejected(parking_walker(), true);
        assert!(
            !found.is_empty() && found.iter().all(|c| *c == DefectClass::UnhandledCompletion),
            "{found:?}"
        );

        let mut empty = parking_walker();
        empty.routines[0].actions.clear();
        assert_eq!(rejected(empty, false), vec![DefectClass::Terminator]);
        let mut dangling = parking_walker();
        dangling
            .table
            .set(StateId::DEFAULT, EventId::FILL, RoutineId(9));
        assert_eq!(rejected(dangling, false), vec![DefectClass::TableIntegrity]);
    }

    #[test]
    fn parked_walker_trips_watchdog_and_faults_only_its_slot() {
        let budget = 300;
        let (healthy, healthy_resps) = drive(&[1, 2, 3], budget);
        assert!(healthy.stall_reports().is_empty());
        assert_eq!(healthy.stats().get("xcache.walker_retire"), 3);

        let (xc, resps) = drive(&[1, 2, 3, 99], budget);
        // The parked walker produced structured stall reports: first the
        // bounded retries (recovered), finally the kill (contained).
        let reports = xc.stall_reports();
        assert!(!reports.is_empty(), "no StallReport emitted");
        assert!(reports.iter().all(|r| r.slot.is_some()));
        assert!(reports.iter().all(|r| r.age >= budget));
        assert!(reports.first().expect("nonempty").recovered);
        assert!(!reports.last().expect("nonempty").recovered);
        assert_eq!(
            xc.stats().get("xcache.fault.retry"),
            u64::from(super::WALKER_RETRY_MAX)
        );
        assert_eq!(xc.stats().get("xcache.watchdog.walker_kill"), 1);

        // Containment: only key 99 is answered "not found"; the sibling
        // walkers retire exactly as in the healthy run.
        for r in &resps {
            let healthy_r = healthy_resps.iter().find(|h| h.id == r.id);
            match healthy_r {
                Some(h) => {
                    assert_eq!(r.found, h.found, "sibling id {} diverged", r.id);
                    assert_eq!(r.data, h.data, "sibling id {} data diverged", r.id);
                }
                None => assert!(!r.found, "parked key must answer not-found"),
            }
        }
        assert_eq!(xc.stats().get("xcache.walker_retire"), 3);
        // Conservation: every launch ends in exactly one of retire /
        // fault / replay.
        assert_eq!(
            xc.stats().get("xcache.walker_launch"),
            xc.stats().get("xcache.walker_retire")
                + xc.stats().get("xcache.walker_fault")
                + xc.stats().get("xcache.walker_replay")
        );
    }

    /// A parked key's waiters replay in the order they arrived, however
    /// many backoff rounds the watchdog spends before the kill answers
    /// them.
    #[test]
    fn replayed_waiters_keep_their_order() {
        let (xc, resps) = drive(&[99, 99, 99], 300);
        assert_eq!(
            xc.stats().get("xcache.fault.retry"),
            u64::from(super::WALKER_RETRY_MAX)
        );
        assert_eq!(resps.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(resps.iter().all(|r| !r.found));
    }
}
