//! # xcache-serve
//!
//! The durable scenario service: a std-only threaded HTTP/1.1 JSON
//! front end over the bench harness's `Runner`, with crash-recoverable
//! sweeps.
//!
//! A submitted job names a scenario grid (`fig18`, `fig14`, `demo`);
//! the service expands it into cells, runs them through
//! `Runner::run_with_checkpoint` against a per-job on-disk journal
//! (`XCACHE_STATE_DIR`), and assembles the final result from the
//! journal. Every terminal cell is checksummed and group-committed
//! (fsync'd in a batch) before it becomes visible, so a SIGKILL'd
//! server restarted on the same state dir resumes, re-runs only the
//! incomplete cells, and — because every simulation is deterministic —
//! produces output byte-identical to an uninterrupted run.
//!
//! Modules:
//! - [`json`] — dependency-free JSON parse/serialize.
//! - [`journal`] — the per-job manifest + append-only completion log.
//! - [`grids`] — job specs and the cell grids they expand into.
//! - [`http`] — minimal HTTP/1.1 server/client plumbing.
//! - [`service`] — job registry, admission control, worker, streaming.
//!
//! Binaries: `xcached` (the server) and `xcachectl` (submit/status/watch
//! client).

pub mod grids;
pub mod http;
pub mod journal;
pub mod json;
pub mod service;

pub use grids::{CellSpec, JobSpec};
pub use journal::{Journal, JournalError, ReplayStats};
pub use service::{addr_from_env, Config, Server};
