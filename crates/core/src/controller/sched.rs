//! Lane scheduling and the walker-discipline policy (§3.3).
//!
//! The §3.3 ablation contrasts two ways of binding walkers to executor
//! lanes. [`discipline`] resolves each into the two values the rest of
//! the pipeline reads, once at construction:
//!
//! * coroutines — a yield releases the lane; the walker goes dormant
//!   holding only its X-register file. Resources are allocated and freed
//!   at action granularity, so nothing is charged while idle.
//! * blocking threads — a yield parks the lane (`waiting`); the walker
//!   holds it from launch to retirement, including all memory stalls, and
//!   every statically partitioned thread context charges its full
//!   register file each cycle ("resources are allocated/freed at a coarse
//!   granularity").

use xcache_mem::MemoryPort;
use xcache_sim::{counter, Cycle, TraceKind};

use crate::config::{WalkerDiscipline, XCacheConfig};

use super::{Lane, XCache};

/// `cfg`'s discipline as its two values: the register-byte-cycles
/// statically charged every cycle regardless of activity, and whether a
/// yield holds the lane.
pub(super) fn discipline(cfg: &XCacheConfig) -> (u64, bool) {
    match cfg.discipline {
        WalkerDiscipline::Coroutine => (0, false),
        // Thread contexts are statically partitioned hardware: every
        // context's full register file is occupied every cycle, whether
        // walking or stalled.
        WalkerDiscipline::BlockingThread => {
            ((cfg.thread_context_regs * 8 * cfg.active) as u64, true)
        }
    }
}

impl<D: MemoryPort> XCache<D> {
    /// First free executor lane, if any.
    pub(super) fn free_lane(&self) -> Option<usize> {
        self.lanes.iter().position(Option::is_none)
    }

    /// Dispatches the next pending event of walker `slot` into a lane.
    pub(super) fn dispatch(&mut self, now: Cycle, slot: usize) -> bool {
        let Some((event, payload)) = self.arena.front_event(slot) else {
            return false;
        };
        let state = self.arena.cold[slot].state;
        // Thread discipline: reuse the walker's blocked lane if it has one.
        let lane_idx = if let Some(i) = self
            .lanes
            .iter()
            .position(|l| l.is_some_and(|l| l.slot == slot && l.waiting))
        {
            i
        } else if self.arena.in_lane[slot] {
            return false; // already running
        } else if let Some(i) = self.free_lane() {
            i
        } else {
            return false;
        };
        let Some(routine) = self.program.table.lookup(state, event) else {
            // Protocol error: no transition for (state, event).
            self.stats.incr_id(counter!("xcache.protocol_error"));
            self.arena.pop_event(slot);
            self.fault_walker(now, slot);
            return true;
        };
        self.arena.pop_event(slot);
        self.arena.msg[slot] = payload;
        self.arena.in_lane[slot] = true;
        self.arena.last_progress[slot] = now;
        self.arena.cold[slot].last_routine = Some(routine);
        self.global_progress = now;
        self.lanes[lane_idx] = Some(Lane {
            slot,
            routine,
            pc: 0,
            waiting: false,
            stall_cycles: 0,
        });
        self.stats.incr_id(counter!("xcache.wakeup"));
        self.trace.emit_with(now, TraceKind::Wake, "xcache", || {
            format!("slot {slot} event {event}")
        });
        true
    }

    /// Wakes one dormant walker with a pending event (round-robin).
    pub(super) fn wake_one(&mut self, now: Cycle) {
        if self.arena.ready_events() == 0 {
            return;
        }
        let n = self.arena.len();
        for off in 0..n {
            let slot = (self.wake_rr + off) % n;
            if !self.arena.is_live(slot) || !self.arena.has_events(slot) {
                continue;
            }
            let dispatchable = !self.arena.in_lane[slot]
                || self
                    .lanes
                    .iter()
                    .any(|l| l.is_some_and(|l| l.slot == slot && l.waiting));
            if dispatchable && self.dispatch(now, slot) {
                self.wake_rr = (slot + 1) % n;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(discipline: WalkerDiscipline) -> XCacheConfig {
        XCacheConfig {
            discipline,
            ..XCacheConfig::test_tiny()
        }
    }

    #[test]
    fn coroutine_discipline_is_free_when_idle() {
        assert_eq!(discipline(&with(WalkerDiscipline::Coroutine)), (0, false));
    }

    #[test]
    fn blocking_thread_discipline_charges_all_contexts() {
        let cfg = with(WalkerDiscipline::BlockingThread);
        let all_contexts = (cfg.thread_context_regs * 8 * cfg.active) as u64;
        assert_eq!(discipline(&cfg), (all_contexts, true));
    }

    #[test]
    fn disciplines_map_to_distinct_stages() {
        // The two policies must disagree on yield handling — that is the
        // entire §3.3 ablation.
        let (_, co) = discipline(&with(WalkerDiscipline::Coroutine));
        let (_, th) = discipline(&with(WalkerDiscipline::BlockingThread));
        assert_ne!(co, th);
    }
}
