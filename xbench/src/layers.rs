//! Per-layer host-time attribution from the simulator's existing stage
//! table (`XCACHE_PROF=1`, read through `prof_snapshot`).
//!
//! The table holds gross scope totals: every recorded interval includes
//! the timer's own cost, and scopes nest where the program nests them.
//! Both are corrected here rather than in the program: the timer floor is
//! calibrated on an empty guard and subtracted once per recorded call, and
//! spgemm's `driver.wake` scope — the only one that encloses another
//! (the controller's `next_event` query) — has the enclosed time removed.

use xcache_sim::{prof_reset, prof_snapshot, ProfEntry, ProfGuard};

use crate::stats::median;

/// Gross time one layer's scopes recorded and how many times they ran.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Recorded nanoseconds (gross of the timer floor).
    pub ns: f64,
    /// Recorded scope entries.
    pub calls: u64,
}

impl Stage {
    /// Nanoseconds net of `floor_ns` per recorded entry, never negative.
    #[must_use]
    pub fn net_ns(self, floor_ns: f64) -> f64 {
        (self.ns - self.calls as f64 * floor_ns).max(0.0)
    }

    fn add(&mut self, other: Stage) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// The fact name of each of [`StageTotals::stages`], in order.
pub const STAGE_NAMES: [&str; 7] = [
    "ns.trigger",
    "ns.execute",
    "ns.bookkeeping",
    "ns.next_event",
    "ns.dram",
    "ns.driver",
    "ns.other",
];

/// The stage table folded into the benchmark's layers.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StageTotals {
    /// `xcache.trigger`: access intake, meta-tag probe, walker wake.
    pub trigger: Stage,
    /// `xcache.execute`: walker routine dispatch.
    pub execute: Stage,
    /// `xcache.fills` + `xcache.delayed` + `xcache.liveness`.
    pub bookkeeping: Stage,
    /// `xcache.next_event`: the controller's idle-cycle query.
    pub next_event: Stage,
    /// `xcache.downstream`: the DRAM model's tick.
    pub dram: Stage,
    /// `driver.*`: the DSA drive loop's own scopes (spgemm only).
    pub driver: Stage,
    /// Any stage this table does not know (counted in coverage only).
    pub other: Stage,
}

impl StageTotals {
    /// Folds the stage table of one simulated run into the totals.
    pub fn add_run(&mut self, table: &[ProfEntry]) {
        let mut run = StageTotals::default();
        for &(name, ns, calls) in table {
            let stage = match name {
                "xcache.trigger" => &mut run.trigger,
                "xcache.execute" => &mut run.execute,
                "xcache.fills" | "xcache.delayed" | "xcache.liveness" => &mut run.bookkeeping,
                "xcache.next_event" => &mut run.next_event,
                "xcache.downstream" => &mut run.dram,
                n if n.starts_with("driver.") => &mut run.driver,
                _ => &mut run.other,
            };
            stage.add(Stage {
                ns: ns as f64,
                calls,
            });
        }
        if table.iter().any(|e| e.0 == "driver.wake") {
            run.driver.ns = (run.driver.ns - run.next_event.ns).max(0.0);
        }
        for (total, part) in self.stages_mut().into_iter().zip(run.stages()) {
            total.add(part);
        }
    }

    /// Every stage, in declaration order.
    #[must_use]
    pub fn stages(&self) -> [Stage; 7] {
        [
            self.trigger,
            self.execute,
            self.bookkeeping,
            self.next_event,
            self.dram,
            self.driver,
            self.other,
        ]
    }

    fn stages_mut(&mut self) -> [&mut Stage; 7] {
        [
            &mut self.trigger,
            &mut self.execute,
            &mut self.bookkeeping,
            &mut self.next_event,
            &mut self.dram,
            &mut self.driver,
            &mut self.other,
        ]
    }
}

/// Median recorded nanoseconds of an empty [`ProfGuard`]: what one scope
/// entry adds to a stage total on its own. Clears this thread's table.
#[must_use]
pub fn timer_floor_ns() -> f64 {
    const GUARDS: u64 = 20_000;
    let reps: Vec<f64> = (0..9)
        .map(|_| {
            prof_reset();
            for _ in 0..GUARDS {
                let _guard = ProfGuard::new("xbench.floor");
            }
            let table = prof_snapshot();
            let (_, ns, calls) = table
                .iter()
                .find(|e| e.0 == "xbench.floor")
                .copied()
                .expect("the calibration guard records itself");
            ns as f64 / calls as f64
        })
        .collect();
    prof_reset();
    median(&reps).expect("nine calibration reps")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(ns: f64, calls: u64) -> Stage {
        Stage { ns, calls }
    }

    #[test]
    fn stages_fold_into_layers_and_unnest_driver_wake() {
        let mut t = StageTotals::default();
        t.add_run(&[
            ("xcache.trigger", 100, 10),
            ("xcache.fills", 30, 10),
            ("xcache.liveness", 20, 10),
            ("xcache.next_event", 40, 4),
            ("driver.wake", 90, 9),
            ("driver.ports", 10, 9),
            ("mystery", 5, 1),
        ]);
        assert_eq!(t.trigger, stage(100.0, 10));
        assert_eq!(t.bookkeeping, stage(50.0, 20));
        // driver.wake encloses next_event: 90 + 10 - 40.
        assert_eq!(t.driver, stage(60.0, 18));
        assert_eq!(t.other, stage(5.0, 1));
        // A run without driver.wake leaves next_event where it is.
        t.add_run(&[("xcache.next_event", 8, 2), ("driver.resp", 3, 1)]);
        assert_eq!(t.driver, stage(63.0, 19));
        assert_eq!(t.next_event, stage(48.0, 6));
        assert_eq!(t.trigger.net_ns(2.0), 80.0);
        assert_eq!(t.trigger.net_ns(50.0), 0.0);
    }

    #[test]
    fn timer_floor_is_positive_and_small() {
        let f = timer_floor_ns();
        assert!(f > 0.0 && f < 10_000.0, "implausible timer floor {f} ns");
    }
}
