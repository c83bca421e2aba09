//! Liveness watchdog primitives: the cycle budget and the structured
//! stall report.
//!
//! The controller tracks a last-progress cycle per walker (and one
//! globally); when `now - last_progress` reaches the budget it emits a
//! [`StallReport`] and runs its recovery ladder instead of hanging. The
//! budget plumbing lives here so every layer resolves it the same way:
//! a per-thread [`with_watchdog_budget`] override wins, else the
//! `XCACHE_WATCHDOG_CYCLES` environment variable (read once), else
//! [`DEFAULT_WATCHDOG_CYCLES`].
//!
//! Watchdog deadlines are folded into `next_event` by the components
//! that use them, so a fast-forwarded run observes an expiry on exactly
//! the same cycle as a single-stepped one.

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};

use crate::Cycle;

/// Default per-walker liveness budget. Far above any legitimate walk
/// (the longest DRAM-bound chains finish in thousands of cycles), so a
/// healthy run never trips it; chaos harnesses lower it per-thread.
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 1_000_000;

fn env_budget() -> u64 {
    crate::env::exit2(crate::env::sim_knobs()).watchdog_cycles
}

thread_local! {
    static BUDGET_OVERRIDE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The liveness budget in cycles for this thread: a
/// [`with_watchdog_budget`] override wins, otherwise
/// `XCACHE_WATCHDOG_CYCLES` (default [`DEFAULT_WATCHDOG_CYCLES`]).
#[must_use]
pub fn watchdog_budget() -> u64 {
    BUDGET_OVERRIDE.with(Cell::get).unwrap_or_else(env_budget)
}

/// Runs `f` with the watchdog budget forced to `budget` for the current
/// thread, restoring the previous setting afterwards. Like the fault
/// plan override, chaos scenarios apply this inside their closures so
/// it reaches runner worker threads.
pub fn with_watchdog_budget<T>(budget: u64, f: impl FnOnce() -> T) -> T {
    let prev = BUDGET_OVERRIDE.with(|c| c.replace(Some(budget.max(1))));
    let out = f();
    BUDGET_OVERRIDE.with(|c| c.set(prev));
    out
}

/// A structured description of one liveness violation — what the
/// watchdog emits instead of letting the simulation hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Cycle the watchdog fired.
    pub cycle: Cycle,
    /// Stuck walker slot; `None` for a global no-forward-progress stall.
    pub slot: Option<usize>,
    /// Last routine the walker dispatched into, when known.
    pub routine: Option<String>,
    /// What the stuck party was waiting on (in-flight fill, parked lane,
    /// an event that never arrived, …).
    pub waiting_on: String,
    /// Cycles since the last observed forward progress.
    pub age: u64,
    /// `true` when the recovery ladder retried the walk (transient-fault
    /// handling); `false` when it killed the walker / shed the work.
    pub recovered: bool,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {}] ", self.cycle.raw())?;
        match self.slot {
            Some(s) => write!(f, "walker slot {s}")?,
            None => write!(f, "global")?,
        }
        if let Some(r) = &self.routine {
            write!(f, " (routine `{r}`)")?;
        }
        write!(
            f,
            ": no forward progress for {} cycles, waiting on {} -> {}",
            self.age,
            self.waiting_on,
            if self.recovered {
                "retried with backoff"
            } else {
                "contained (slot faulted)"
            }
        )
    }
}

/// A wall-clock deadline for one *host-level* unit of work (a sweep
/// cell), complementing the simulated-cycle budget above.
///
/// The cycle watchdog keeps a *simulation* from hanging — it is part of
/// the deterministic model and fires on the same cycle in every replay.
/// A service hosting many sweeps additionally needs a wall-clock bound
/// per cell (`XCACHE_CELL_TIMEOUT_MS`): a cell that blows it is retried
/// with backoff and eventually marked failed, without poisoning the job.
/// The deadline is deliberately *outside* the simulation: it never
/// influences simulated behaviour, so resumed sweeps stay byte-identical.
#[derive(Debug, Clone, Copy)]
pub struct HostDeadline {
    expires: Option<Instant>,
}

impl HostDeadline {
    /// A deadline `timeout_ms` from now; `None` means unbounded.
    #[must_use]
    pub fn after_ms(timeout_ms: Option<u64>) -> Self {
        HostDeadline {
            expires: timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.expires.is_some_and(|t| Instant::now() >= t)
    }

    /// Time left before expiry; `None` when unbounded.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.expires
            .map(|t| t.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_deadline_expires_and_unbounded_never_does() {
        let unbounded = HostDeadline::after_ms(None);
        assert!(!unbounded.expired());
        assert!(unbounded.remaining().is_none());
        let instant = HostDeadline::after_ms(Some(0));
        assert!(instant.expired());
        let far = HostDeadline::after_ms(Some(60_000));
        assert!(!far.expired());
        assert!(far.remaining().unwrap() > Duration::from_secs(30));
    }

    #[test]
    fn override_wins_nests_and_restores() {
        let base = watchdog_budget();
        with_watchdog_budget(123, || {
            assert_eq!(watchdog_budget(), 123);
            with_watchdog_budget(7, || assert_eq!(watchdog_budget(), 7));
            assert_eq!(watchdog_budget(), 123);
        });
        assert_eq!(watchdog_budget(), base);
        // A zero budget is clamped rather than dividing time by nothing.
        with_watchdog_budget(0, || assert_eq!(watchdog_budget(), 1));
    }

    #[test]
    fn stall_report_renders_both_shapes() {
        let walker = StallReport {
            cycle: Cycle(400),
            slot: Some(2),
            routine: Some("check".into()),
            waiting_on: "dram fill (req #17)".into(),
            age: 250,
            recovered: true,
        };
        let s = walker.to_string();
        assert!(s.contains("slot 2"), "{s}");
        assert!(s.contains("`check`"), "{s}");
        assert!(s.contains("req #17"), "{s}");
        assert!(s.contains("retried"), "{s}");

        let global = StallReport {
            cycle: Cycle(9),
            slot: None,
            routine: None,
            waiting_on: "4 queued accesses".into(),
            age: 9,
            recovered: false,
        };
        let s = global.to_string();
        assert!(s.contains("global"), "{s}");
        assert!(s.contains("contained"), "{s}");
    }
}
