//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] decides — as a *pure function* of its seed and a
//! per-transaction salt — whether a given fault fires on a given
//! transaction. Nothing is rolled per tick: tick counts differ between
//! fast-forwarded and single-stepped runs, so any per-cycle randomness
//! would break the skip/no-skip byte-identity contract. Keying every
//! decision on a transaction-unique value (a request id, an access id)
//! instead makes the same plan produce the same faults at any job count,
//! with skipping on or off.
//!
//! Components capture `FaultPlan::current()` at construction. When no
//! plan is active (`XCACHE_FAULT_SPEC` unset and no [`with_fault_plan`]
//! override), `current()` is `None` and every hook reduces to an
//! `is_none()` check — zero cost, zero behaviour change.
//!
//! The spec grammar is `kind=prob[:magnitude]`, comma-separated:
//!
//! ```text
//! XCACHE_FAULT_SPEC="dram_drop=0.01,dram_delay=0.02:25,port_stall=0.01:8"
//! XCACHE_FAULT_SEED=42
//! ```
//!
//! `prob` is a per-transaction probability in `[0, 1]`; `magnitude` is a
//! kind-specific intensity (delay cycles, refusal count) with a sensible
//! default. Unknown kinds are a parse error, not silently ignored.

use std::cell::RefCell;
use std::sync::Arc;

/// One injectable fault class. Each maps to a specific component
/// boundary; the salt a component passes to [`FaultPlan::decide`] is the
/// transaction id observable at that boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A DRAM read completes but its response is never delivered.
    DramDropFill,
    /// A DRAM read's response is delayed by `magnitude` extra cycles.
    DramDelayFill,
    /// One bit of a DRAM read's payload is flipped before delivery.
    DramEccFlip,
    /// The DRAM request port accepts the request but holds it on the
    /// wire `magnitude` extra cycles before it becomes serviceable
    /// (`can_accept` stays honest for polite drivers).
    DramPortStall,
    /// The DRAM response path stalls `magnitude` cycles, as if the
    /// response queue had refused the push (backpressure).
    RespBackpressure,
    /// A meta-tag lookup for a `Load` misreports a resident key as
    /// absent (the flaky-lookup fault; destructive ops are exempt so an
    /// injected miss can never strand owned state).
    MetaMisfire,
    /// A banked-DRAM request lands in a pathologically contended bank and
    /// is staged `magnitude` extra cycles before entering the DRAM model
    /// (the sharded-topology analogue of a row-conflict storm).
    BankConflictStorm,
    /// A cross-shard interconnect message is held on its link `magnitude`
    /// extra cycles; delivery order on the link stays FIFO.
    LinkDelay,
}

impl FaultKind {
    /// Every kind, in spec/display order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::DramDropFill,
        FaultKind::DramDelayFill,
        FaultKind::DramEccFlip,
        FaultKind::DramPortStall,
        FaultKind::RespBackpressure,
        FaultKind::MetaMisfire,
        FaultKind::BankConflictStorm,
        FaultKind::LinkDelay,
    ];

    /// The spec-grammar name of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DramDropFill => "dram_drop",
            FaultKind::DramDelayFill => "dram_delay",
            FaultKind::DramEccFlip => "dram_ecc",
            FaultKind::DramPortStall => "port_stall",
            FaultKind::RespBackpressure => "resp_stall",
            FaultKind::MetaMisfire => "meta_misfire",
            FaultKind::BankConflictStorm => "bank_conflict_storm",
            FaultKind::LinkDelay => "link_delay",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::DramDropFill => 0,
            FaultKind::DramDelayFill => 1,
            FaultKind::DramEccFlip => 2,
            FaultKind::DramPortStall => 3,
            FaultKind::RespBackpressure => 4,
            FaultKind::MetaMisfire => 5,
            FaultKind::BankConflictStorm => 6,
            FaultKind::LinkDelay => 7,
        }
    }

    /// Magnitude used when the spec gives only a probability.
    fn default_magnitude(self) -> u64 {
        match self {
            FaultKind::DramDelayFill => 32,
            FaultKind::DramPortStall => 4,
            FaultKind::RespBackpressure => 16,
            FaultKind::BankConflictStorm => 24,
            FaultKind::LinkDelay => 8,
            _ => 1,
        }
    }
}

/// One armed fault class: firing probability (parts per million) and
/// intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rate {
    ppm: u32,
    magnitude: u64,
}

/// A positive fault decision: the spec magnitude plus an auxiliary hash
/// for kinds that need a second draw (e.g. which bit to flip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultHit {
    /// The `magnitude` configured for the kind (delay cycles, refusal
    /// count, …).
    pub magnitude: u64,
    /// A decision-unique hash for secondary choices (bit index, …).
    pub aux: u64,
}

/// A seeded fault schedule. Immutable once parsed; shared via `Arc` so
/// every component in a stack decides against the same plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rates: [Option<Rate>; 8],
}

/// splitmix64 finalizer — the workspace's standard cheap mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parses a `kind=prob[:magnitude]` comma-separated spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause: unknown kind,
    /// probability outside `[0, 1]`, or unparsable number.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut rates = [None; 8];
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not `kind=prob[:magnitude]`"))?;
            let kind = FaultKind::ALL
                .into_iter()
                .find(|k| k.name() == name.trim())
                .ok_or_else(|| format!("unknown fault kind `{}`", name.trim()))?;
            let (prob, magnitude) = match value.split_once(':') {
                Some((p, m)) => {
                    let mag: u64 = m
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad magnitude `{m}` in `{clause}`"))?;
                    (p, mag)
                }
                None => (value, kind.default_magnitude()),
            };
            let prob: f64 = prob
                .trim()
                .parse()
                .map_err(|_| format!("bad probability `{prob}` in `{clause}`"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("probability {prob} in `{clause}` outside [0, 1]"));
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let ppm = (prob * 1_000_000.0).round() as u32;
            rates[kind.index()] = Some(Rate { ppm, magnitude });
        }
        Ok(FaultPlan { seed, rates })
    }

    /// The plan's seed (recorded in chaos reports).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Pure fault decision: does `kind` fire for the transaction
    /// identified by `salt`? Calling this any number of times, on any
    /// thread, in any tick order, yields the same answer.
    #[must_use]
    pub fn decide(&self, kind: FaultKind, salt: u64) -> Option<FaultHit> {
        let rate = self.rates[kind.index()]?;
        if rate.ppm == 0 {
            return None;
        }
        let h =
            mix64(mix64(self.seed ^ (kind.index() as u64 + 1).wrapping_mul(0xA5A5_A5A5)) ^ salt);
        if h % 1_000_000 < u64::from(rate.ppm) {
            Some(FaultHit {
                magnitude: rate.magnitude,
                aux: mix64(h),
            })
        } else {
            None
        }
    }

    /// The plan active on this thread: a [`with_fault_plan`] override if
    /// one is in effect, else the process-wide plan parsed once from
    /// `XCACHE_FAULT_SPEC` / `XCACHE_FAULT_SEED`. `None` means fault
    /// injection is off (the default).
    ///
    /// The knobs are parsed by [`sim_knobs`](crate::env::sim_knobs),
    /// which every binary calls at startup; a malformed spec or seed
    /// there exits 2 — a configuration error, not an injected fault.
    #[must_use]
    pub fn current() -> Option<Arc<FaultPlan>> {
        if let Some(over) = PLAN_OVERRIDE.with(|c| c.borrow().clone()) {
            return over;
        }
        crate::env::exit2(crate::env::sim_knobs())
            .fault_plan
            .clone()
    }
}

thread_local! {
    // Outer Option: is an override in effect? Inner: the plan it forces
    // (possibly "no plan", shadowing the env).
    static PLAN_OVERRIDE: RefCell<Option<Option<Arc<FaultPlan>>>> = const { RefCell::new(None) };
}

/// Runs `f` with `plan` forced as the active fault plan for the current
/// thread (use `None` to force injection off), restoring the previous
/// setting afterwards. The chaos harness applies this *inside* each
/// scenario closure so the override reaches runner worker threads.
pub fn with_fault_plan<T>(plan: Option<Arc<FaultPlan>>, f: impl FnOnce() -> T) -> T {
    let prev = PLAN_OVERRIDE.with(|c| c.borrow_mut().replace(plan));
    let out = f();
    PLAN_OVERRIDE.with(|c| *c.borrow_mut() = prev);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_rates_and_defaults() {
        let p = FaultPlan::parse("dram_drop=0.5, dram_delay=0.25:40,meta_misfire=0", 7).unwrap();
        assert_eq!(p.seed(), 7);
        assert_eq!(
            p.rates[FaultKind::DramDropFill.index()],
            Some(Rate {
                ppm: 500_000,
                magnitude: 1
            })
        );
        assert_eq!(
            p.rates[FaultKind::DramDelayFill.index()],
            Some(Rate {
                ppm: 250_000,
                magnitude: 40
            })
        );
        // Unarmed kinds never fire; armed-at-zero kinds never fire.
        assert!(p.decide(FaultKind::DramEccFlip, 1).is_none());
        assert!(p.decide(FaultKind::MetaMisfire, 1).is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("bogus=0.1", 0).is_err());
        assert!(FaultPlan::parse("dram_drop", 0).is_err());
        assert!(FaultPlan::parse("dram_drop=1.5", 0).is_err());
        assert!(FaultPlan::parse("dram_drop=0.1:x", 0).is_err());
        assert!(FaultPlan::parse("", 0).is_ok());
    }

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a = FaultPlan::parse("dram_drop=0.3", 1).unwrap();
        let b = FaultPlan::parse("dram_drop=0.3", 2).unwrap();
        let mut diverged = false;
        for salt in 0..2_000u64 {
            assert_eq!(a.decide(FaultKind::DramDropFill, salt), {
                a.decide(FaultKind::DramDropFill, salt)
            });
            diverged |= a.decide(FaultKind::DramDropFill, salt).is_some()
                != b.decide(FaultKind::DramDropFill, salt).is_some();
        }
        assert!(diverged, "different seeds should produce different plans");
    }

    #[test]
    fn firing_rate_tracks_probability() {
        let p = FaultPlan::parse("port_stall=0.1:3", 99).unwrap();
        let fired = (0..100_000u64)
            .filter(|&s| p.decide(FaultKind::DramPortStall, s).is_some())
            .count();
        assert!((8_000..12_000).contains(&fired), "fired {fired}/100000");
        let hit = (0..u64::MAX)
            .find_map(|s| p.decide(FaultKind::DramPortStall, s))
            .unwrap();
        assert_eq!(hit.magnitude, 3);
    }

    #[test]
    fn shard_kinds_parse_with_defaults() {
        let p = FaultPlan::parse("bank_conflict_storm=1.0,link_delay=1.0", 3).unwrap();
        let storm = p.decide(FaultKind::BankConflictStorm, 0).unwrap();
        let delay = p.decide(FaultKind::LinkDelay, 0).unwrap();
        assert_eq!(storm.magnitude, 24);
        assert_eq!(delay.magnitude, 8);
        // The two kinds draw independently from the same seed.
        let q = FaultPlan::parse("bank_conflict_storm=0.5,link_delay=0.5", 3).unwrap();
        let diverged = (0..2_000u64).any(|s| {
            q.decide(FaultKind::BankConflictStorm, s).is_some()
                != q.decide(FaultKind::LinkDelay, s).is_some()
        });
        assert!(diverged);
    }

    #[test]
    fn override_wins_and_restores() {
        let plan = Arc::new(FaultPlan::parse("dram_drop=1.0", 5).unwrap());
        assert!(FaultPlan::current().is_none());
        with_fault_plan(Some(plan.clone()), || {
            assert_eq!(FaultPlan::current().as_deref(), Some(plan.as_ref()));
            with_fault_plan(None, || assert!(FaultPlan::current().is_none()));
            assert_eq!(FaultPlan::current().as_deref(), Some(plan.as_ref()));
        });
        assert!(FaultPlan::current().is_none());
    }
}
