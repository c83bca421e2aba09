//! Idle-cycle fast-forwarding.
//!
//! Most simulated cycles do no work: walkers park on long-latency DRAM
//! fills and every model just re-checks empty queues. Models advertise
//! the earliest cycle at which their next `tick` could do observable work
//! through a `next_event` method (the contract is documented on
//! [`fast_forward`]), and tick loops jump simulated time straight there
//! with [`fast_forward`] instead of stepping one cycle at a time. The
//! contract is strict: skipping must leave every counter, histogram, and
//! end cycle byte-identical to single-stepping, so a model may only report
//! a wake-up later than `now + 1` when the intervening ticks would be
//! complete no-ops.
//!
//! Setting the environment variable `XCACHE_NO_SKIP=1` disables skipping
//! process-wide (the escape hatch for differential debugging); tests can
//! flip the behaviour per-thread with [`with_skip`].

use std::cell::Cell;
use std::sync::OnceLock;

use crate::Cycle;

fn env_no_skip() -> bool {
    static NO_SKIP: OnceLock<bool> = OnceLock::new();
    *NO_SKIP.get_or_init(|| crate::env::exit2(crate::env::sim_knobs()).no_skip)
}

thread_local! {
    static SKIP_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether fast-forwarding is active on this thread: a [`with_skip`]
/// override wins, otherwise skipping is on unless `XCACHE_NO_SKIP` is set.
#[must_use]
#[inline]
pub fn skip_enabled() -> bool {
    SKIP_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(|| !env_no_skip())
}

/// Runs `f` with fast-forwarding forced on or off for the current thread,
/// restoring the previous setting afterwards. This is what the differential
/// tests use to compare skip and no-skip executions in one process.
pub fn with_skip<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    let prev = SKIP_OVERRIDE.with(|c| c.replace(Some(enabled)));
    let out = f();
    SKIP_OVERRIDE.with(|c| c.set(prev));
    out
}

/// The next value of `now` for a tick loop: `next` (a model's reported
/// wake-up) when skipping is enabled and the report is a usable future
/// cycle, else `now + 1`.
///
/// `None` and [`Cycle::NEVER`] both fall back to single-stepping rather
/// than terminating the loop, so quiescence and deadlock detection stay
/// where they always were — in `busy()` checks and cycle limits.
///
/// # The `next_event` contract
///
/// Every clocked model (the controller, memory ports, streams, DSA
/// datapaths) exposes `next_event(&self, now) -> Option<Cycle>`: the
/// earliest cycle strictly after `now` at which its next `tick` could do
/// observable work, or `None` when it is idle with no scheduled wake-up.
/// It is queried *after* `tick(now)` has run; drivers fold the reports of
/// every model they tick with [`earliest`] and pass the result here.
///
/// The contract is strict: the driver jumps simulated time straight to
/// the reported wake-up, so every skipped tick must be a complete no-op —
/// no state change, no counter increment. A model that counts per-cycle
/// stalls or charges per-cycle occupancy must report `now + 1` while such
/// a charge is pending. `Some(now + 1)` is always safe: it reproduces
/// single-stepping.
#[must_use]
#[inline]
pub fn fast_forward(now: Cycle, next: Option<Cycle>) -> Cycle {
    if !skip_enabled() {
        return now.next();
    }
    match next {
        Some(t) if t > now && t != Cycle::NEVER => t,
        _ => now.next(),
    }
}

/// The earlier of two optional wake-ups; `None` means "nothing scheduled".
/// Drivers watching several components fold their reports with this before
/// handing the result to [`fast_forward`].
#[must_use]
#[inline]
pub fn earliest(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_to_future_event() {
        with_skip(true, || {
            assert_eq!(fast_forward(Cycle(10), Some(Cycle(50))), Cycle(50));
        });
    }

    #[test]
    fn clamps_stale_or_missing_reports_to_single_step() {
        with_skip(true, || {
            assert_eq!(fast_forward(Cycle(10), Some(Cycle(10))), Cycle(11));
            assert_eq!(fast_forward(Cycle(10), Some(Cycle(3))), Cycle(11));
            assert_eq!(fast_forward(Cycle(10), None), Cycle(11));
            assert_eq!(fast_forward(Cycle(10), Some(Cycle::NEVER)), Cycle(11));
        });
    }

    #[test]
    fn no_skip_always_single_steps() {
        with_skip(false, || {
            assert_eq!(fast_forward(Cycle(10), Some(Cycle(50))), Cycle(11));
        });
    }

    #[test]
    fn override_nests_and_restores() {
        with_skip(false, || {
            assert!(!skip_enabled());
            with_skip(true, || assert!(skip_enabled()));
            assert!(!skip_enabled());
        });
    }
}
