//! Seeded fuzz/differential harness over generated walker programs.
//!
//! [`gen::generate`](xcache_isa::gen::generate) produces verifier-clean
//! walker programs from a `u64` seed; this module executes them on a
//! synthetic workload and checks the simulator's two central invariances
//! against them:
//!
//! * **skip differential** — idle-cycle fast-forwarding on vs off must
//!   leave every observable byte-identical ([`skip_differential`]);
//! * **jobs differential** — running a batch of seeds through the
//!   [`Runner`] at one vs two worker threads must produce identical
//!   per-seed results ([`jobs_differential`]).
//!
//! "Byte-identical" is literal: each run is flattened to a canonical JSON
//! string ([`FuzzReport::stats_json`]) — seed, end cycle, response
//! checksum, and the full counter map — and the strings are compared.
//!
//! The shipped walkers only exercise the program shapes their DSAs need;
//! the generator covers the rest of the ISA envelope (hash prologues,
//! guarded hops, chained fills of varying width, store handlers), so this
//! is where event-driven-time or scheduling regressions that the curated
//! differential tests miss get caught. The `fuzz_smoke` binary runs the
//! same checks over `XCACHE_FUZZ_SEEDS` seeds (default 200) in CI.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xcache_core::{splitmix64, MetaAccess, MetaKey, XCache, XCacheConfig};
use xcache_isa::gen;
use xcache_isa::{EventId, StateId};
use xcache_mem::{DramConfig, DramModel, MainMemory};
use xcache_sim::{with_skip, Cycle, StatsSnapshot};

use crate::runner::{Runner, Scenario};

/// Base of the 64 KiB window bound to the generated program's `base`
/// parameter — every address a generated program can compute lands in
/// `[FUZZ_BASE, FUZZ_BASE + WINDOW_BYTES)`.
pub(crate) const FUZZ_BASE: u64 = 0x10_0000;
pub(crate) const WINDOW_BYTES: u64 = 64 * 1024;

/// Accesses per seed — enough to mix hits, misses, and (when the program
/// has an `Update` handler) stores, while keeping a 200-seed CI run fast.
pub const DEFAULT_ACCESSES: usize = 96;

/// Everything observable about one seeded run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// Generator seed the program and workload derive from.
    pub seed: u64,
    /// End cycle of the run.
    pub cycles: u64,
    /// Order-independent fold of every response (found flag + payload).
    pub checksum: u64,
    /// Merged controller + DRAM counters.
    pub stats: StatsSnapshot,
}

impl FuzzReport {
    /// Canonical JSON rendering — the byte string the differentials
    /// compare. Counters live in a `BTreeMap`, so the key order (and
    /// therefore the rendering) is deterministic.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let mut out = format!(
            "{{\"seed\":{},\"cycles\":{},\"checksum\":{},\"counters\":{{",
            self.seed, self.cycles, self.checksum
        );
        for (i, (k, v)) in self.stats.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("}}");
        out
    }
}

/// The synthetic workload for one seed: a key stream over a small
/// universe (so meta-tag hits occur) with stores mixed in when the
/// program declares an `Update` handler. Derived from `seed` through an
/// independent RNG stream so workload draws can't perturb program shape.
pub(crate) fn access_stream(seed: u64, accesses: usize, has_store: bool) -> Vec<MetaAccess> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xACCE_55ED);
    let universe = (accesses as u64 / 3).max(8);
    (0..accesses as u64)
        .map(|id| {
            let key = MetaKey::new(rng.gen_range(0..universe));
            if has_store && rng.gen_bool(0.25) {
                MetaAccess::Store {
                    id,
                    key,
                    payload: [rng.gen(), seed],
                }
            } else {
                MetaAccess::Load { id, key }
            }
        })
        .collect()
}

/// Runs the program generated from `seed` over its synthetic workload and
/// returns the full observable state of the run.
///
/// The memory window is filled with `splitmix64` words (also derived from
/// `seed`), so peeked fill payloads vary and hop chains fan out across
/// the window instead of collapsing onto address zero.
///
/// # Panics
///
/// Panics if the generated program is rejected by the load-time verifier
/// gate (the generator guarantees it is not) or the run deadlocks.
#[must_use]
pub fn run_seed(seed: u64, accesses: usize) -> FuzzReport {
    let program = gen::generate(seed);
    let has_store = program
        .table
        .lookup(StateId::DEFAULT, EventId::UPDATE)
        .is_some();
    let stream = access_stream(seed, accesses, has_store);

    let mut mem = MainMemory::new();
    let mut x = seed;
    for w in 0..WINDOW_BYTES / 8 {
        x = splitmix64(x);
        mem.write_u64(FUZZ_BASE + w * 8, x);
    }
    let dram = DramModel::with_memory(DramConfig::test_tiny(), mem);
    let cfg = XCacheConfig::test_tiny().with_params(vec![FUZZ_BASE]);
    let mut xc = XCache::new(cfg, program, dram).expect("generated program is verifier-clean");

    let mut now = Cycle(0);
    let mut next = 0usize;
    let mut done = 0usize;
    let mut checksum = 0u64;
    let total = stream.len();
    let max_cycles = 2_000 * total as u64 + 1_000_000;
    while done < total {
        while next < total && xc.can_accept() {
            xc.try_access(now, stream[next])
                .expect("can_accept checked");
            next += 1;
        }
        xc.tick(now);
        while let Some(resp) = xc.take_response(now) {
            checksum = checksum
                .wrapping_add(splitmix64(resp.id ^ u64::from(resp.found)))
                .wrapping_add(resp.data.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
            done += 1;
        }
        now = if done >= total {
            now.next()
        } else {
            let mut wake = xc.next_event(now);
            if next < total && xc.can_accept() {
                wake = Some(now.next());
            }
            xcache_sim::fast_forward(now, wake)
        };
        assert!(now.raw() < max_cycles, "fuzz seed {seed} deadlocked");
    }
    let mut stats = xc.stats().clone();
    stats.merge(xc.downstream().stats());
    FuzzReport {
        seed,
        cycles: now.raw(),
        checksum,
        stats: stats.snapshot(),
    }
}

/// Runs `seed` with fast-forwarding on and off and demands byte-identical
/// reports. Returns the (shared) canonical JSON on agreement, or a
/// description of the divergence.
///
/// `with_skip` is thread-local: call this on the thread that owns the
/// comparison (never through the multi-threaded [`Runner`]).
///
/// # Errors
///
/// Returns `Err` with both renderings when the runs diverge.
pub fn skip_differential(seed: u64, accesses: usize) -> Result<String, String> {
    let fast = with_skip(true, || run_seed(seed, accesses));
    let slow = with_skip(false, || run_seed(seed, accesses));
    let (fast, slow) = (fast.stats_json(), slow.stats_json());
    if fast == slow {
        Ok(fast)
    } else {
        Err(format!(
            "seed {seed}: skip and no-skip runs diverged\n  skip:    {fast}\n  no-skip: {slow}"
        ))
    }
}

/// Runs every seed through the [`Runner`] at one and two worker threads
/// and demands the per-seed JSON vectors agree. Returns the canonical
/// renderings on agreement.
///
/// # Errors
///
/// Returns `Err` naming the first diverging seed otherwise.
pub fn jobs_differential(seeds: &[u64], accesses: usize) -> Result<Vec<String>, String> {
    let grid = || {
        seeds
            .iter()
            .map(|&seed| {
                Scenario::new(format!("fuzz seed {seed}"), move || {
                    run_seed(seed, accesses).stats_json()
                })
            })
            .collect::<Vec<_>>()
    };
    let seq = Runner::with_jobs(1).run(grid());
    let par = Runner::with_jobs(2).run(grid());
    for ((s, p), seed) in seq.iter().zip(&par).zip(seeds) {
        if s != p {
            return Err(format!(
                "seed {seed}: jobs=1 and jobs=2 runs diverged\n  jobs=1: {s}\n  jobs=2: {p}"
            ));
        }
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_seed(3, 48);
        let b = run_seed(3, 48);
        assert_eq!(a, b);
        assert_eq!(a.stats_json(), b.stats_json());
        assert!(a.cycles > 0);
    }

    #[test]
    fn stream_mixes_loads_and_stores_only_when_supported() {
        let stores = |s: &[MetaAccess]| {
            s.iter()
                .filter(|a| matches!(a, MetaAccess::Store { .. }))
                .count()
        };
        assert_eq!(stores(&access_stream(1, 64, false)), 0);
        assert!(stores(&access_stream(1, 64, true)) > 4);
    }

    #[test]
    fn stats_json_is_flat_and_ordered() {
        let r = run_seed(5, 32);
        let j = r.stats_json();
        assert!(j.starts_with("{\"seed\":5,"));
        assert!(j.contains("\"counters\":{"));
        assert!(j.ends_with("}}"));
        // Counter keys appear in BTreeMap (sorted) order.
        let keys: Vec<&str> = r.stats.counters.keys().map(String::as_str).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
