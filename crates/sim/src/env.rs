//! Structured environment-knob parsing.
//!
//! Every `XCACHE_*` knob in the workspace used to be read ad hoc — some
//! readers silently fell back to a default on garbage, some panicked.
//! Both are wrong for a long-running service: a typo'd knob must be a
//! *rejectable, reportable* error, not a silent behaviour change or a
//! crash deep inside a simulation. [`env_parse`] is the one funnel: it
//! returns `Ok(None)` when the variable is unset (or empty — convenient
//! for CI scripting), `Ok(Some(value))` when it parses, and a structured
//! [`EnvError`] otherwise.
//!
//! Callers pick their failure policy explicitly:
//!
//! * CLIs wrap the result in [`exit2`] — print the error, exit with
//!   status 2 (the workspace's usage-error code, as `xasm` does).
//! * The scenario service (`xcache-serve`) keeps the `Result` and turns
//!   it into a refused startup, never a panic.
//!
//! The simulator's own seven knobs are parsed together by [`sim_knobs`],
//! once per process. Every binary calls it before it prints or listens,
//! so a malformed value fails at startup; the readers deep in the
//! simulator ([`skip_enabled`](crate::skip_enabled),
//! [`prof_enabled`](crate::prof_enabled), the fault plan, the watchdog
//! budget and the sharded engine) take their value from the same parse.

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use crate::{FaultPlan, ParMode, DEFAULT_WATCHDOG_CYCLES};

/// A malformed environment knob: which variable, what it held, and why
/// it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable name (e.g. `XCACHE_JOBS`).
    pub var: String,
    /// The offending value as found in the environment.
    pub value: String,
    /// Human-readable rejection reason.
    pub reason: String,
}

impl EnvError {
    /// Builds an error for `var` holding `value`.
    #[must_use]
    pub fn new(var: &str, value: &str, reason: impl Into<String>) -> Self {
        EnvError {
            var: var.to_owned(),
            value: value.to_owned(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}={:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for EnvError {}

/// Reads and parses `var` via [`FromStr`]. Unset or empty → `Ok(None)`;
/// unparsable → a structured [`EnvError`].
///
/// # Errors
///
/// Returns [`EnvError`] when the variable is set, non-empty, and fails
/// to parse as `T`.
pub fn env_parse<T: FromStr>(var: &str) -> Result<Option<T>, EnvError>
where
    T::Err: fmt::Display,
{
    env_parse_map(var, |s| s.parse::<T>().map_err(|e| e.to_string()))
}

/// [`env_parse`] with a caller-supplied parser/validator: `f` receives
/// the trimmed value and returns either the parsed knob or a rejection
/// reason.
///
/// # Errors
///
/// Returns [`EnvError`] carrying `f`'s rejection reason.
pub fn env_parse_map<T>(
    var: &str,
    f: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, EnvError> {
    let raw = match std::env::var(var) {
        Ok(v) => v,
        Err(_) => return Ok(None),
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match f(trimmed) {
        Ok(v) => Ok(Some(v)),
        Err(reason) => Err(EnvError::new(var, &raw, reason)),
    }
}

/// Reads a boolean knob: `1`/`true` enable, `0`/`false` disable, unset
/// or empty → `Ok(None)`. Anything else is a structured [`EnvError`] —
/// the flag-shaped knobs (`XCACHE_NO_SKIP`, `XCACHE_PROF`) funnel through
/// here so a typo'd value is rejected instead of silently coerced.
///
/// # Errors
///
/// Returns [`EnvError`] when the variable is set, non-empty, and is not
/// one of `0`, `1`, `true`, `false`.
pub fn env_flag(var: &str) -> Result<Option<bool>, EnvError> {
    env_parse_map(var, |s| match s {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!(
            "unknown flag value `{other}` (expected `0`, `1`, `true` or `false`)"
        )),
    })
}

/// Reads a count knob that must be at least 1: `what` names the
/// quantity in the rejection (`"worker count must be >= 1"`).
///
/// # Errors
///
/// Returns [`EnvError`] when the variable is set, non-empty, and is not
/// an integer of at least 1.
pub fn env_count<T>(var: &str, what: &str) -> Result<Option<T>, EnvError>
where
    T: FromStr + PartialOrd + From<u8>,
    T::Err: fmt::Display,
{
    env_parse_map(var, |s| {
        let v: T = s.parse().map_err(|e: T::Err| e.to_string())?;
        if v < T::from(1) {
            return Err(format!("{what} must be >= 1"));
        }
        Ok(v)
    })
}

/// The simulator's process-wide knobs, as [`sim_knobs`] parsed them.
#[derive(Debug)]
pub struct SimKnobs {
    /// `XCACHE_NO_SKIP`: idle-cycle fast-forwarding off.
    pub no_skip: bool,
    /// `XCACHE_PROF`: per-stage wall-time attribution armed.
    pub prof: bool,
    /// `XCACHE_PAR` (`seq` or `par`, default `par`): the engine of
    /// sharded runs.
    pub par: ParMode,
    /// `XCACHE_PAR_THREADS`: the sharded worker pool's width; `None`
    /// sizes it to the machine.
    pub par_threads: Option<usize>,
    /// `XCACHE_WATCHDOG_CYCLES` (default [`DEFAULT_WATCHDOG_CYCLES`]):
    /// the liveness budget.
    pub watchdog_cycles: u64,
    /// `XCACHE_FAULT_SEED` (default `0xFA01`): the seed of the fault
    /// plan, and of the chaos check's per-run plans.
    pub fault_seed: u64,
    /// `XCACHE_FAULT_SPEC`, parsed with `fault_seed`; `None` leaves fault
    /// injection off.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl SimKnobs {
    fn parse() -> Result<SimKnobs, EnvError> {
        let fault_seed = env_parse::<u64>("XCACHE_FAULT_SEED")?.unwrap_or(0xFA01);
        Ok(SimKnobs {
            no_skip: env_flag("XCACHE_NO_SKIP")?.unwrap_or(false),
            prof: env_flag("XCACHE_PROF")?.unwrap_or(false),
            par: env_parse_map("XCACHE_PAR", |s| match s {
                "seq" => Ok(ParMode::Seq),
                "par" => Ok(ParMode::Par),
                other => Err(format!("unknown mode `{other}` (expected `seq` or `par`)")),
            })?
            .unwrap_or(ParMode::Par),
            par_threads: env_count("XCACHE_PAR_THREADS", "thread count")?,
            watchdog_cycles: env_count("XCACHE_WATCHDOG_CYCLES", "watchdog budget")?
                .unwrap_or(DEFAULT_WATCHDOG_CYCLES),
            fault_seed,
            fault_plan: env_parse_map("XCACHE_FAULT_SPEC", |spec| {
                FaultPlan::parse(spec, fault_seed)
            })?
            .map(Arc::new),
        })
    }
}

/// Parses the seven simulator knobs the first time it is called and
/// returns that parse on every later call.
///
/// # Errors
///
/// The first malformed knob, as a structured [`EnvError`].
pub fn sim_knobs() -> Result<&'static SimKnobs, EnvError> {
    static KNOBS: OnceLock<Result<SimKnobs, EnvError>> = OnceLock::new();
    KNOBS
        .get_or_init(SimKnobs::parse)
        .as_ref()
        .map_err(Clone::clone)
}

/// CLI failure policy: unwraps an env-knob result, printing the
/// structured error and exiting with status 2 (usage error) on failure.
pub fn exit2<T>(r: Result<T, EnvError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own variable name so the process-global
    // environment never races between tests.

    #[test]
    fn unset_and_empty_are_none() {
        assert_eq!(env_parse::<u64>("XCACHE_ENVTEST_UNSET"), Ok(None));
        std::env::set_var("XCACHE_ENVTEST_EMPTY", "  ");
        assert_eq!(env_parse::<u64>("XCACHE_ENVTEST_EMPTY"), Ok(None));
    }

    #[test]
    fn valid_values_parse_trimmed() {
        std::env::set_var("XCACHE_ENVTEST_OK", " 42 ");
        assert_eq!(env_parse::<u64>("XCACHE_ENVTEST_OK"), Ok(Some(42)));
        std::env::set_var("XCACHE_ENVTEST_F64", "0.25");
        assert_eq!(env_parse::<f64>("XCACHE_ENVTEST_F64"), Ok(Some(0.25)));
    }

    #[test]
    fn malformed_values_are_structured_errors() {
        std::env::set_var("XCACHE_ENVTEST_BAD", "three");
        let err = env_parse::<u64>("XCACHE_ENVTEST_BAD").unwrap_err();
        assert_eq!(err.var, "XCACHE_ENVTEST_BAD");
        assert_eq!(err.value, "three");
        assert!(err.to_string().contains("XCACHE_ENVTEST_BAD"), "{err}");
        assert!(err.to_string().contains("three"), "{err}");
    }

    #[test]
    fn negative_and_overflow_are_errors_for_unsigned() {
        std::env::set_var("XCACHE_ENVTEST_NEG", "-3");
        assert!(env_parse::<u64>("XCACHE_ENVTEST_NEG").is_err());
        std::env::set_var("XCACHE_ENVTEST_HUGE", "99999999999999999999999999");
        assert!(env_parse::<u64>("XCACHE_ENVTEST_HUGE").is_err());
    }

    #[test]
    fn flag_values_parse_and_reject() {
        assert_eq!(env_flag("XCACHE_ENVTEST_FLAG_UNSET"), Ok(None));
        std::env::set_var("XCACHE_ENVTEST_FLAG_ON", "1");
        assert_eq!(env_flag("XCACHE_ENVTEST_FLAG_ON"), Ok(Some(true)));
        std::env::set_var("XCACHE_ENVTEST_FLAG_TRUE", "true");
        assert_eq!(env_flag("XCACHE_ENVTEST_FLAG_TRUE"), Ok(Some(true)));
        std::env::set_var("XCACHE_ENVTEST_FLAG_OFF", "0");
        assert_eq!(env_flag("XCACHE_ENVTEST_FLAG_OFF"), Ok(Some(false)));
        std::env::set_var("XCACHE_ENVTEST_FLAG_BAD", "yes");
        let err = env_flag("XCACHE_ENVTEST_FLAG_BAD").unwrap_err();
        assert_eq!(err.var, "XCACHE_ENVTEST_FLAG_BAD");
        assert!(err.reason.contains("expected"), "{err}");
    }

    #[test]
    fn count_rejects_zero_and_names_the_quantity() {
        std::env::set_var("XCACHE_ENVTEST_COUNT_ZERO", "0");
        let err = env_count::<usize>("XCACHE_ENVTEST_COUNT_ZERO", "widget count").unwrap_err();
        assert_eq!(err.reason, "widget count must be >= 1");
        std::env::set_var("XCACHE_ENVTEST_COUNT_OK", "3");
        assert_eq!(
            env_count::<u32>("XCACHE_ENVTEST_COUNT_OK", "n"),
            Ok(Some(3))
        );
        assert_eq!(
            env_count::<u64>("XCACHE_ENVTEST_COUNT_UNSET", "n"),
            Ok(None)
        );
    }

    #[test]
    fn sim_knobs_default_when_unset() {
        let seven = [
            "XCACHE_NO_SKIP",
            "XCACHE_PROF",
            "XCACHE_PAR",
            "XCACHE_PAR_THREADS",
            "XCACHE_WATCHDOG_CYCLES",
            "XCACHE_FAULT_SEED",
            "XCACHE_FAULT_SPEC",
        ];
        if seven.iter().any(|v| std::env::var_os(v).is_some()) {
            return;
        }
        let k = sim_knobs().expect("no malformed knob");
        assert!(!k.no_skip && !k.prof);
        assert_eq!(k.par, ParMode::Par);
        assert_eq!(k.watchdog_cycles, DEFAULT_WATCHDOG_CYCLES);
        assert_eq!(k.fault_seed, 0xFA01);
        assert!(k.fault_plan.is_none());
    }

    #[test]
    fn map_variant_carries_validator_reason() {
        std::env::set_var("XCACHE_ENVTEST_ZERO", "0");
        let err = env_parse_map("XCACHE_ENVTEST_ZERO", |s| {
            let v: u64 = s.parse().map_err(|e| format!("{e}"))?;
            if v == 0 {
                return Err("must be >= 1".into());
            }
            Ok(v)
        })
        .unwrap_err();
        assert_eq!(err.reason, "must be >= 1");
    }
}
