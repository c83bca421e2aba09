//! Self-profiling: per-stage wall-time attribution.
//!
//! Setting `XCACHE_PROF=1` arms lightweight wall-clock accounting around
//! the simulator's pipeline stages (the controller's trigger/wake/execute
//! stages, the downstream memory tick, event delivery, …). Totals
//! accumulate in a thread-local table ([`prof_snapshot`]), which
//! `xbench --trace 1` turns into per-layer shares, so a perf PR can see
//! where the wall is without external tooling.
//!
//! When the mode is off (the default) a [`prof_scope!`] costs one
//! predictable branch on a cached process-global flag — cheap enough to
//! leave in the per-cycle hot path permanently.
//!
//! Attribution is hierarchical by convention only: stage names are
//! dot-separated (`xcache.execute`, `xcache.trigger`) and shares are
//! computed by the consumer against the run's total wall time. Nested
//! scopes double-count their parent by design (the table holds raw
//! totals, not an exclusive-time tree), so instrument either a stage or
//! its substages, not both.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Whether `XCACHE_PROF` arms wall-time attribution for this process.
#[must_use]
#[inline]
pub fn prof_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| crate::env::exit2(crate::env::sim_knobs()).prof)
}

#[derive(Default)]
struct ProfTable {
    /// Stage name → (accumulated nanoseconds, enter count).
    entries: Vec<(&'static str, u64, u64)>,
}

thread_local! {
    static TABLE: RefCell<ProfTable> = RefCell::default();
}

/// Accumulates `nanos` under `name` (one `count`); called by the guard.
pub fn prof_record(name: &'static str, nanos: u64) {
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        // Linear scan: stage-name cardinality is ~a dozen, and the common
        // names converge to the front after the first few cycles.
        for e in &mut t.entries {
            if std::ptr::eq(e.0, name) || e.0 == name {
                e.1 += nanos;
                e.2 += 1;
                return;
            }
        }
        t.entries.push((name, nanos, 1));
    });
}

/// One accumulated profiling stage: name, total nanoseconds, enter count.
pub type ProfEntry = (&'static str, u64, u64);

/// Snapshot of this thread's accumulated stage totals, sorted by
/// descending time. Empty when profiling is disabled or nothing ran.
#[must_use]
pub fn prof_snapshot() -> Vec<ProfEntry> {
    TABLE.with(|t| {
        let mut v = t.borrow().entries.clone();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    })
}

/// Clears this thread's accumulated totals (start of a measured region).
pub fn prof_reset() {
    TABLE.with(|t| t.borrow_mut().entries.clear());
}

/// Scope guard that adds its lifetime to a stage total on drop.
pub struct ProfGuard {
    name: &'static str,
    start: Instant,
}

impl ProfGuard {
    /// Starts timing `name` (only constructed when profiling is armed).
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        ProfGuard {
            name,
            start: Instant::now(),
        }
    }
}

impl Drop for ProfGuard {
    fn drop(&mut self) {
        prof_record(self.name, self.start.elapsed().as_nanos() as u64);
    }
}

/// Times the rest of the enclosing scope under `name` when `XCACHE_PROF`
/// is set; a single cached-flag branch otherwise.
///
/// ```
/// use xcache_sim::prof_scope;
/// fn stage() {
///     prof_scope!("demo.stage");
///     // ... stage body ...
/// }
/// stage();
/// ```
#[macro_export]
macro_rules! prof_scope {
    ($name:expr) => {
        let _prof_guard = if $crate::prof_enabled() {
            Some($crate::ProfGuard::new($name))
        } else {
            None
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_accumulate() {
        prof_reset();
        prof_record("t.a", 10);
        prof_record("t.b", 50);
        prof_record("t.a", 5);
        let snap = prof_snapshot();
        let a = snap.iter().find(|e| e.0 == "t.a").unwrap();
        let b = snap.iter().find(|e| e.0 == "t.b").unwrap();
        assert_eq!((a.1, a.2), (15, 2));
        assert_eq!((b.1, b.2), (50, 1));
        // Sorted by descending total.
        assert!(snap.iter().position(|e| e.0 == "t.b") < snap.iter().position(|e| e.0 == "t.a"));
        prof_reset();
        assert!(prof_snapshot().is_empty());
    }

    #[test]
    fn guard_records_on_drop() {
        prof_reset();
        {
            let _g = ProfGuard::new("t.guard");
        }
        let snap = prof_snapshot();
        let g = snap.iter().find(|e| e.0 == "t.guard").unwrap();
        assert_eq!(g.2, 1);
        prof_reset();
    }
}
