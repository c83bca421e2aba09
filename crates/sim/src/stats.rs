//! Statistics registry.
//!
//! Every model in the workspace reports what it did through a [`Stats`]
//! instance: named monotonic counters plus named [`Histogram`]s. The energy
//! model (crate `xcache-energy`) converts these event counts into picojoules
//! using the paper's Table 4 constants, and the figure harnesses read them
//! to print memory-access and occupancy series.
//!
//! Counter names are interned once into a process-global registry; hot call
//! sites hold a dense [`CounterId`] and update a plain vector slot instead
//! of paying a `BTreeMap` lookup on every increment. The string-keyed
//! `incr`/`add`/`get` API remains as a thin wrapper over the same storage.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A fixed-bucket histogram for latency/occupancy distributions.
///
/// Buckets are power-of-two ranges: bucket *i* covers `[2^i, 2^(i+1))`,
/// except bucket 0 which covers `[0, 2)`. This is enough resolution for the
/// load-to-use and occupancy distributions in Figures 4 and 7 while staying
/// allocation-free after construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Number of buckets: `record` maps a `u64` to `63 - leading_zeros`, so the
/// largest reachable index is 63 (for samples ≥ 2^63, including `u64::MAX`).
const HIST_BUCKETS: usize = 64;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram covering the full `u64` range.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value < 2 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest sample, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate p-th percentile (0.0..=1.0) using bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = (p * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return Some(if i == 0 {
                    1
                } else {
                    (1u64 << i).saturating_mul(2) - 1
                });
            }
        }
        Some(self.max)
    }

    /// Iterates over `(bucket_lower_bound, count)` pairs for nonempty buckets.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_i, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }
}

struct Registry {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn registry() -> &'static RwLock<Registry> {
    static REGISTRY: OnceLock<RwLock<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        RwLock::new(Registry {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// A dense, process-global handle to a counter name.
///
/// Interning a name assigns it a small index that every [`Stats`] instance
/// uses as a direct vector offset, so `incr_id`/`add_id` are a bounds check
/// and an add — no tree walk, no hashing. Handles are cheap to copy and
/// stable for the lifetime of the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

impl CounterId {
    /// Interns `name`, returning its stable handle (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct names are interned.
    pub fn intern(name: &'static str) -> CounterId {
        if let Some(&id) = registry().read().expect("stats registry").by_name.get(name) {
            return CounterId(id);
        }
        let mut reg = registry().write().expect("stats registry");
        if let Some(&id) = reg.by_name.get(name) {
            return CounterId(id);
        }
        let id = u32::try_from(reg.names.len()).expect("counter registry overflow");
        reg.names.push(name);
        reg.by_name.insert(name, id);
        CounterId(id)
    }

    /// The interned name.
    #[must_use]
    pub fn name(self) -> &'static str {
        registry().read().expect("stats registry").names[self.0 as usize]
    }

    /// The handle for `name` if it was ever interned (by any thread).
    #[must_use]
    pub fn lookup(name: &str) -> Option<CounterId> {
        registry()
            .read()
            .expect("stats registry")
            .by_name
            .get(name)
            .copied()
            .map(CounterId)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns a counter name once and caches the [`CounterId`] in a hidden
/// static, so a hot call site pays one atomic load instead of a registry
/// lookup:
///
/// ```
/// use xcache_sim::{counter, Stats};
/// let mut s = Stats::new();
/// s.incr_id(counter!("metatag.hit"));
/// assert_eq!(s.get("metatag.hit"), 1);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static ID: ::std::sync::OnceLock<$crate::CounterId> = ::std::sync::OnceLock::new();
        *ID.get_or_init(|| $crate::CounterId::intern($name))
    }};
}

/// An immutable snapshot of a [`Stats`] registry, suitable for diffing and
/// serialisation in experiment outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
}

impl StatsSnapshot {
    /// Value of `name`, or zero when never incremented.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name starts with `prefix`.
    #[must_use]
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Registry of named counters and histograms.
///
/// Names are free-form; by convention they are dot-separated paths such as
/// `"metatag.hit"` or `"dram.row_miss"`, which lets consumers aggregate by
/// prefix. Counter storage is a dense vector indexed by [`CounterId`]; a
/// `None` slot means the counter was never touched by this instance, which
/// keeps snapshots identical to the old map-based representation (touched
/// zero-valued counters still appear).
///
/// ```
/// use xcache_sim::Stats;
/// let mut s = Stats::new();
/// s.incr("metatag.hit");
/// s.add("dram.bytes", 64);
/// assert_eq!(s.get("metatag.hit"), 1);
/// assert_eq!(s.snapshot().sum_prefix("dram."), 64);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stats {
    counters: Vec<Option<u64>>,
    histograms: Vec<Option<Histogram>>,
}

impl Stats {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to counter `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.add_id(CounterId::intern(name), 1);
    }

    /// Adds `delta` to counter `name`, creating it at zero if new.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        self.add_id(CounterId::intern(name), delta);
    }

    /// Adds one to the counter behind `id` — the hot-path equivalent of
    /// [`incr`](Stats::incr).
    #[inline]
    pub fn incr_id(&mut self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Adds `delta` to the counter behind `id` — the hot-path equivalent of
    /// [`add`](Stats::add).
    #[inline]
    pub fn add_id(&mut self, id: CounterId, delta: u64) {
        let idx = id.index();
        if idx >= self.counters.len() {
            self.counters.resize(idx + 1, None);
        }
        let slot = &mut self.counters[idx];
        *slot = Some(slot.unwrap_or(0) + delta);
    }

    /// Current value of counter `name` (zero if never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        CounterId::lookup(name).map_or(0, |id| self.get_id(id))
    }

    /// Current value of the counter behind `id` (zero if never touched).
    #[must_use]
    #[inline]
    pub fn get_id(&self, id: CounterId) -> u64 {
        self.counters
            .get(id.index())
            .copied()
            .flatten()
            .unwrap_or(0)
    }

    /// Records a histogram sample under `name`.
    pub fn sample(&mut self, name: &'static str, value: u64) {
        self.sample_id(CounterId::intern(name), value);
    }

    /// Records a histogram sample under `id` — the hot-path equivalent of
    /// [`sample`](Stats::sample). Histograms share the counter name registry,
    /// so the same `counter!` handle addresses both spaces.
    #[inline]
    pub fn sample_id(&mut self, id: CounterId, value: u64) {
        let idx = id.index();
        if idx >= self.histograms.len() {
            self.histograms.resize(idx + 1, None);
        }
        self.histograms[idx]
            .get_or_insert_with(Histogram::new)
            .record(value);
    }

    /// The histogram registered under `name`, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        let id = CounterId::lookup(name)?;
        self.histograms.get(id.index())?.as_ref()
    }

    /// Iterates over `(name, histogram)` for recorded histograms in name
    /// order (the order snapshots serialise them in).
    fn histograms_by_name(&self) -> Vec<(&'static str, &Histogram)> {
        let reg = registry().read().expect("stats registry");
        let mut named: Vec<(&'static str, &Histogram)> = self
            .histograms
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|h| (reg.names[i], h)))
            .collect();
        named.sort_unstable_by_key(|&(name, _)| name);
        named
    }

    /// Iterates over `(name, value)` for all touched counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let reg = registry().read().expect("stats registry");
        let mut named: Vec<(&'static str, u64)> = self
            .counters
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|v| (reg.names[i], v)))
            .collect();
        named.sort_unstable_by_key(|&(name, _)| name);
        named.into_iter()
    }

    /// Takes an owned snapshot of the counters. Histograms are summarised
    /// into derived counters (`<name>.count/.sum/.min/.max/.p50/.p95`) so
    /// downstream consumers (reports, the energy model) need only one
    /// representation.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters()
            .map(|(name, v)| (name.to_owned(), v))
            .collect();
        for (name, h) in self.histograms_by_name() {
            counters.insert(format!("{name}.count"), h.count());
            counters.insert(format!("{name}.sum"), h.sum());
            if let (Some(mn), Some(mx)) = (h.min(), h.max()) {
                counters.insert(format!("{name}.min"), mn);
                counters.insert(format!("{name}.max"), mx);
            }
            if let Some(p) = h.percentile(0.5) {
                counters.insert(format!("{name}.p50"), p);
            }
            if let Some(p) = h.percentile(0.95) {
                counters.insert(format!("{name}.p95"), p);
            }
        }
        StatsSnapshot { counters }
    }

    /// Merges another registry into this one (counters add, histograms are
    /// merged sample-count-wise via bucket addition).
    pub fn merge(&mut self, other: &Stats) {
        if other.counters.len() > self.counters.len() {
            self.counters.resize(other.counters.len(), None);
        }
        for (slot, theirs) in self.counters.iter_mut().zip(&other.counters) {
            if let Some(v) = theirs {
                *slot = Some(slot.unwrap_or(0) + v);
            }
        }
        if other.histograms.len() > self.histograms.len() {
            self.histograms.resize(other.histograms.len(), None);
        }
        for (slot, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            let Some(h) = theirs else { continue };
            let mine = slot.get_or_insert_with(Histogram::new);
            for (i, c) in h.buckets.iter().enumerate() {
                mine.buckets[i] += c;
            }
            mine.count += h.count;
            mine.sum = mine.sum.saturating_add(h.sum);
            if h.count > 0 {
                mine.min = mine.min.min(h.min);
                mine.max = mine.max.max(h.max);
            }
        }
    }

    /// Resets every counter and histogram to empty.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.counters() {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("a");
        s.incr("a");
        s.add("b", 10);
        assert_eq!(s.get("a"), 2);
        assert_eq!(s.get("b"), 10);
        assert_eq!(s.get("missing"), 0);
    }

    #[test]
    fn interned_ids_alias_string_api() {
        let mut s = Stats::new();
        let id = CounterId::intern("interned.hits");
        s.incr_id(id);
        s.add_id(id, 4);
        s.incr("interned.hits");
        assert_eq!(s.get("interned.hits"), 6);
        assert_eq!(s.get_id(id), 6);
        assert_eq!(id.name(), "interned.hits");
        assert_eq!(CounterId::intern("interned.hits"), id);
        assert_eq!(CounterId::lookup("interned.hits"), Some(id));
    }

    #[test]
    fn counter_macro_caches_handle() {
        let mut s = Stats::new();
        for _ in 0..3 {
            s.incr_id(counter!("macro.hits"));
        }
        assert_eq!(s.get("macro.hits"), 3);
        assert_eq!(counter!("macro.hits"), CounterId::intern("macro.hits"));
    }

    #[test]
    fn touched_zero_counter_appears_in_snapshot() {
        let mut s = Stats::new();
        s.add("touched.zero", 0);
        let snap = s.snapshot();
        assert!(snap.counters.contains_key("touched.zero"));
        assert!(!snap.counters.contains_key("never.touched"));
    }

    #[test]
    fn snapshot_prefix_sums() {
        let mut s = Stats::new();
        s.add("dram.read", 3);
        s.add("dram.write", 4);
        s.add("tag.read", 5);
        let snap = s.snapshot();
        assert_eq!(snap.sum_prefix("dram."), 7);
        assert_eq!(snap.get("tag.read"), 5);
    }

    #[test]
    fn histogram_basic_moments() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(p99 >= 512);
    }

    #[test]
    fn histogram_max_value_sample() {
        // The top bucket (index 63) must absorb the largest representable
        // samples without indexing past the end of the bucket array.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.min(), Some(1u64 << 63));
        assert_eq!(h.nonempty_buckets().collect::<Vec<_>>().len(), 1);
        assert_eq!(h.nonempty_buckets().next(), Some((1u64 << 63, 2)));
        assert!(h.percentile(1.0).is_some());
    }

    #[test]
    fn histogram_empty_is_none() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn merge_combines_both_kinds() {
        let mut a = Stats::new();
        a.incr("x");
        a.sample("lat", 4);
        let mut b = Stats::new();
        b.add("x", 2);
        b.sample("lat", 8);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        let h = a.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 12);
    }

    #[test]
    fn sample_via_stats() {
        let mut s = Stats::new();
        s.sample("q", 7);
        assert_eq!(s.histogram("q").unwrap().count(), 1);
        s.reset();
        assert!(s.histogram("q").is_none());
    }

    #[test]
    fn sample_id_aliases_string_api() {
        let mut s = Stats::new();
        let id = CounterId::intern("interned.lat");
        s.sample_id(id, 4);
        s.sample("interned.lat", 8);
        let h = s.histogram("interned.lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 12);
        let snap = s.snapshot();
        assert_eq!(snap.get("interned.lat.count"), 2);
    }

    #[test]
    fn nonempty_buckets_reports_lower_bounds() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        let buckets: Vec<_> = h.nonempty_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (4, 1)]);
    }
}
