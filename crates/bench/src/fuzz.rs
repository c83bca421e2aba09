//! Generated-program runs: the one fixture and drive behind the fuzz,
//! chaos and cross-validation harnesses.
//!
//! [`gen::generate`] produces verifier-clean walker programs from a
//! `u64` seed. `fixture` builds a seed's controller over a
//! splitmix64-filled memory window together with a synthetic access
//! stream, and `drive` runs the stream through it (or through any
//! `MetaPort`: `abl02_hierarchy` drives its composed hierarchies with
//! it). Three harnesses share the pair:
//!
//! * [`run_seed`] drives every seed pipelined and flattens the run to a
//!   canonical JSON string ([`FuzzReport::stats_json`]): seed, end cycle,
//!   response checksum and the full counter map. The `fuzz_smoke` check
//!   (`xcheck fuzz_smoke`) demands that string be byte-identical with
//!   fast-forwarding on and off ([`crate::skip_differential`]) and at one
//!   and two runner jobs ([`crate::jobs_differential`]), over
//!   `XCACHE_SEEDS` seeds (default 200) in CI.
//! * [`crate::chaos::run_fuzz_chaos`] runs the same fixture and drive
//!   under a fault plan, then checks quiescence, exactly-once answering
//!   and walker conservation.
//! * [`crate::crossval::fuzz_serial_cell`] drives one access at a time and
//!   compares the counters with the analytical oracle.
//!
//! The shipped walkers only exercise the program shapes their DSAs need;
//! the generator covers the rest of the ISA envelope (hash prologues,
//! guarded hops, chained fills of varying width, store handlers), so this
//! is where event-driven-time or scheduling regressions that the curated
//! differential tests miss get caught.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xcache_core::hierarchy::MetaPort;
use xcache_core::{splitmix64, MetaAccess, MetaKey, MetaResp, XCache, XCacheConfig};
use xcache_isa::{gen, EventId, StateId, WalkerProgram};
use xcache_mem::{DramConfig, DramModel, MainMemory};
use xcache_sim::json::Value;
use xcache_sim::{Cycle, StatsSnapshot};

use crate::counters_value;

/// Base of the 64 KiB window bound to the generated program's `base`
/// parameter — every address a generated program can compute lands in
/// `[FUZZ_BASE, FUZZ_BASE + WINDOW_BYTES)`.
pub(crate) const FUZZ_BASE: u64 = 0x10_0000;
const WINDOW_BYTES: u64 = 64 * 1024;

/// Accesses per seed — enough to mix hits, misses, and (when the program
/// has an `Update` handler) stores, while keeping a 200-seed CI run fast.
pub const DEFAULT_ACCESSES: usize = 96;

/// Everything observable about one seeded run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// Generator seed the program and workload derive from.
    pub seed: u64,
    /// End cycle of the run: one past the last response.
    pub cycles: u64,
    /// Order-independent fold of every response (found flag + payload).
    pub checksum: u64,
    /// Merged controller + DRAM counters.
    pub stats: StatsSnapshot,
    /// How far the run got when it hit its cycle bound; `None` when every
    /// access was answered.
    pub hang: Option<String>,
}

impl FuzzReport {
    /// Canonical JSON rendering — the byte string the differentials
    /// compare. Counters live in a `BTreeMap`, so the key order (and
    /// therefore the rendering) is deterministic. A `hang` key appears
    /// only in a run that hit its cycle bound.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let mut fields = vec![
            ("seed".to_owned(), Value::from_u64(self.seed)),
            ("cycles".to_owned(), Value::from_u64(self.cycles)),
            ("checksum".to_owned(), Value::from_u64(self.checksum)),
        ];
        if let Some(hang) = &self.hang {
            fields.push(("hang".to_owned(), Value::Str(hang.clone())));
        }
        fields.push(("counters".to_owned(), counters_value(&self.stats)));
        Value::Obj(fields).render()
    }
}

/// The synthetic workload for one seed: a key stream over a small
/// universe (so meta-tag hits occur) with stores mixed in when the
/// program declares an `Update` handler. Derived from `seed` through an
/// independent RNG stream so workload draws can't perturb program shape.
fn access_stream(seed: u64, accesses: usize, has_store: bool) -> Vec<MetaAccess> {
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

/// The program generated from `seed` and its access stream, which mixes
/// in stores when the program handles `Update`.
pub(crate) fn program_and_stream(seed: u64, accesses: usize) -> (WalkerProgram, Vec<MetaAccess>) {
    let program = gen::generate(seed);
    let has_store = program
        .table
        .lookup(StateId::DEFAULT, EventId::UPDATE)
        .is_some();
    let stream = access_stream(seed, accesses, has_store);
    (program, stream)
}

/// The generated-program fixture for `seed`: the program's controller
/// over `test_tiny` DRAM, with its access stream.
///
/// The memory window is filled with `splitmix64` words (also derived from
/// `seed`), so peeked fill payloads vary and hop chains fan out across
/// the window instead of collapsing onto address zero.
///
/// # Panics
///
/// Panics if the load-time verifier gate rejects the generated program
/// (the generator guarantees it does not).
pub(crate) fn fixture(seed: u64, accesses: usize) -> (XCache<DramModel>, Vec<MetaAccess>) {
    let (program, stream) = program_and_stream(seed, accesses);
    let mut mem = MainMemory::new();
    let mut x = seed;
    for w in 0..WINDOW_BYTES / 8 {
        x = splitmix64(x);
        mem.write_u64(FUZZ_BASE + w * 8, x);
    }
    let dram = DramModel::with_memory(DramConfig::test_tiny(), mem);
    let cfg = XCacheConfig::test_tiny().with_params(vec![FUZZ_BASE]);
    let xc = XCache::new(cfg, program, dram).expect("generated program is verifier-clean");
    (xc, stream)
}

/// What [`drive`] observed.
pub(crate) struct Drive {
    /// Cycle of the last response, or the cycle the bound stopped a hung
    /// run at.
    pub(crate) end: Cycle,
    /// Order-independent fold of every response (found flag + payload).
    pub(crate) checksum: u64,
    /// Responses per access id.
    pub(crate) answers: BTreeMap<u64, u64>,
    /// How far a run that hit its cycle bound got.
    pub(crate) hang: Option<String>,
}

/// Drives `stream` through `port` with at most `depth` accesses in
/// flight until every access is answered or the cycle bound passes,
/// handing each response to `on_response` as it is taken. Each access
/// issues as soon as the port accepts it, so a depth of one retires
/// every access before the next issues.
pub(crate) fn drive<P: MetaPort>(
    port: &mut P,
    stream: &[MetaAccess],
    depth: usize,
    mut on_response: impl FnMut(&MetaResp),
) -> Drive {
    let total = stream.len();
    let max_cycles = 2_000 * total as u64 + 1_000_000;
    let mut answers = BTreeMap::new();
    let mut hang = None;
    let mut now = Cycle(0);
    let (mut next, mut done, mut checksum) = (0usize, 0usize, 0u64);
    while done < total {
        while next < total && next.saturating_sub(done) < depth && port.can_accept() {
            port.try_access(now, stream[next])
                .expect("can_accept checked");
            next += 1;
        }
        port.tick(now);
        while let Some(resp) = port.take_response(now) {
            *answers.entry(resp.id).or_insert(0) += 1;
            checksum = checksum
                .wrapping_add(splitmix64(resp.id ^ u64::from(resp.found)))
                .wrapping_add(resp.data.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
            on_response(&resp);
            done += 1;
        }
        if done >= total {
            break;
        }
        let mut wake = port.next_event(now);
        if next < total && next.saturating_sub(done) < depth && port.can_accept() {
            wake = Some(now.next());
        }
        now = xcache_sim::fast_forward(now, wake);
        if now.raw() >= max_cycles {
            hang = Some(format!(
                "{done}/{total} accesses answered after {max_cycles} cycles"
            ));
            break;
        }
    }
    Drive {
        end: now,
        checksum,
        answers,
        hang,
    }
}

/// The controller's and its DRAM's counters, merged.
pub(crate) fn merged_stats(xc: &XCache<DramModel>) -> StatsSnapshot {
    let mut stats = xc.stats().clone();
    stats.merge(xc.downstream().stats());
    stats.snapshot()
}

/// Runs the program generated from `seed` over its synthetic workload,
/// pipelined, and returns the full observable state of the run.
#[must_use]
pub fn run_seed(seed: u64, accesses: usize) -> FuzzReport {
    let (mut xc, stream) = fixture(seed, accesses);
    let run = drive(&mut xc, &stream, usize::MAX, |_| {});
    FuzzReport {
        seed,
        cycles: run.end.next().raw(),
        checksum: run.checksum,
        stats: merged_stats(&xc),
        hang: run.hang,
    }
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
