//! # xcache-sim
//!
//! Deterministic cycle-level simulation substrate for the X-Cache
//! reproduction (Sedaghati et al., ISCA 2022).
//!
//! The paper drives cycle-accurate RTL simulation through Verilator/TSIM;
//! this crate provides the equivalent foundation in pure Rust: a cycle
//! clock, latency-insensitive message queues (the paper's "parameterized
//! message bundles"), idle-cycle fast-forwarding, a timing wheel, a
//! statistics registry, and trace hooks. Every model in the workspace
//! (DRAM, address cache, the X-Cache controller, the DSA datapaths) is
//! built on these primitives, and all of them are fully deterministic: the
//! same inputs always produce the same cycle counts.
//!
//! ## Quick example
//!
//! ```
//! use xcache_sim::{Cycle, MsgQueue};
//!
//! // A 2-entry queue whose messages become visible 3 cycles after push.
//! let mut q: MsgQueue<u32> = MsgQueue::new("req", 2, 3);
//! assert!(q.push(Cycle(0), 7).is_ok());
//! assert_eq!(q.pop(Cycle(2)), None); // not yet ready
//! assert_eq!(q.pop(Cycle(3)), Some(7)); // ready at cycle 3
//! ```

mod clock;
mod context;
pub mod env;
mod fault;
mod fxhash;
mod parallel;
mod prof;
mod queue;
mod skip;
mod stats;
mod trace;
mod watchdog;
mod wheel;

pub use clock::Cycle;
pub use context::SimContext;
pub use env::{
    env_count, env_flag, env_parse, env_parse_map, exit2, sim_knobs, EnvError, SimKnobs,
};
pub use fault::{with_fault_plan, FaultHit, FaultKind, FaultPlan};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use parallel::{
    par_mode, par_threads, parallel_fallbacks, run_horizons, with_par_mode, with_par_threads,
    ParCell, ParMode,
};
pub use prof::{prof_enabled, prof_record, prof_reset, prof_snapshot, ProfEntry, ProfGuard};
pub use queue::{MsgQueue, PushError};
pub use skip::{earliest, fast_forward, skip_enabled, with_skip};
pub use stats::{CounterId, Histogram, Stats, StatsSnapshot};
pub use trace::{TraceBuffer, TraceEvent, TraceKind};
pub use watchdog::{
    watchdog_budget, with_watchdog_budget, HostDeadline, StallReport, DEFAULT_WATCHDOG_CYCLES,
};
pub use wheel::TimingWheel;
