//! The meta-tag array (§4.1 ① / ②).
//!
//! A set-associative array tagged by [`MetaKey`]s instead of addresses.
//! Each entry carries, alongside the tag: the walker *state* ("in X-Cache
//! the states represent the status of blocks in the walker"), the sector
//! span in the data RAM ("explicit pointers to start and end sectors"),
//! an *active* bit (the paper's bitmap of meta-tags with a live walker),
//! and a *pinned* bit for entries whose data exists only on-chip.

use xcache_isa::StateId;
use xcache_sim::{counter, Stats};

use crate::MetaKey;

/// One meta-tag entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaEntry {
    /// The domain-specific tag.
    pub key: MetaKey,
    /// Walker coroutine state recorded at the last yield.
    pub state: StateId,
    /// First data-RAM sector (valid when `sector_count > 0`).
    pub sector_start: u32,
    /// Number of sectors held.
    pub sector_count: u32,
    /// A walker is currently filling this entry.
    pub active: bool,
    /// Entry must never be evicted (on-chip-only data).
    pub pinned: bool,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: MetaEntry,
    valid: bool,
    last_used: u64,
}

/// The answers the trigger stage's launch gate needs about one key's
/// set, computed by [`MetaTagArray::launch_probe`] in a single way scan:
/// residency, allocatability, and permanent-unevictability. Field
/// definitions match [`peek`](MetaTagArray::peek),
/// [`can_alloc`](MetaTagArray::can_alloc) and
/// [`set_unevictable`](MetaTagArray::set_unevictable) exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchProbe {
    /// Where `key` resides, if present (as [`peek`](MetaTagArray::peek)).
    pub hit: Option<EntryRef>,
    /// Whether an allocation would succeed right now.
    pub can_alloc: bool,
    /// Whether every way is valid, pinned and idle — allocation can never
    /// succeed until something is explicitly taken.
    pub unevictable: bool,
}

/// Where a probe landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef {
    /// Set index.
    pub set: u32,
    /// Way index.
    pub way: u32,
}

/// Per-set counters for cross-validation against the analytical oracle
/// (`xcache-oracle`). Tracked outside [`Stats`] so the aggregate counter
/// JSON every harness emits is byte-identical to before they existed:
/// `hits` counts probe hits of any access type landing in the set,
/// `allocs`/`evictions` count `allocM` allocations and the valid victims
/// they displace. Capacity (data-RAM) evictions invalidate through
/// [`MetaTagArray::invalidate`] and are aggregate-only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetCounters {
    /// Probe hits landing in this set.
    pub hits: u64,
    /// `allocM` allocations in this set.
    pub allocs: u64,
    /// Valid entries displaced by those allocations.
    pub evictions: u64,
}

/// The set-associative meta-tag array.
#[derive(Debug)]
pub struct MetaTagArray {
    sets: usize,
    ways: usize,
    slots: Vec<Slot>,
    use_counter: u64,
    set_stats: Vec<SetCounters>,
    /// Slot-parallel packed copy of each slot's key, kept in sync by
    /// every mutation path. The launch gate probes every pending access
    /// each cycle; scanning one cache line of packed keys instead of
    /// `ways` 40-byte slots is the difference between the trigger stage
    /// and the tag array dominating the simulator profile.
    probe_keys: Vec<u64>,
    /// Slot-parallel packed flags: bit0 valid, bit1 active, bit2 pinned.
    probe_flags: Vec<u8>,
}

const PF_VALID: u8 = 1;
const PF_ACTIVE: u8 = 1 << 1;
const PF_PINNED: u8 = 1 << 2;

impl MetaTagArray {
    /// Creates an invalid-initialised array.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a nonzero power of two or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a nonzero power of two"
        );
        assert!(ways > 0, "ways must be nonzero");
        MetaTagArray {
            sets,
            ways,
            slots: vec![
                Slot {
                    entry: MetaEntry {
                        key: MetaKey(0),
                        state: StateId::DEFAULT,
                        sector_start: 0,
                        sector_count: 0,
                        active: false,
                        pinned: false,
                    },
                    valid: false,
                    last_used: 0,
                };
                sets * ways
            ],
            use_counter: 0,
            set_stats: vec![SetCounters::default(); sets],
            probe_keys: vec![0; sets * ways],
            probe_flags: vec![0; sets * ways],
        }
    }

    /// Re-derives slot `idx`'s packed probe-index words from the slot
    /// itself — every path that mutates a slot's key, validity, active
    /// or pinned bit funnels through here.
    #[inline]
    fn sync_probe_slot(&mut self, idx: usize) {
        let s = &self.slots[idx];
        self.probe_keys[idx] = s.entry.key.0;
        self.probe_flags[idx] = (u8::from(s.valid) * PF_VALID)
            | (u8::from(s.entry.active) * PF_ACTIVE)
            | (u8::from(s.entry.pinned) * PF_PINNED);
    }

    /// Number of entries (sets × ways).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no entry is valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.slots.iter().any(|s| s.valid)
    }

    /// Number of valid entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }

    fn set_of(&self, key: MetaKey) -> usize {
        // Fibonacci hashing spreads structured keys (row ids, packed
        // fields) across sets.
        ((key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.sets - 1)
    }

    /// The set `key` maps to. Public so the analytical oracle
    /// (`xcache-oracle`) can pin its reimplementation of the hash against
    /// this one in a cross-crate test.
    #[must_use]
    pub fn set_index(&self, key: MetaKey) -> usize {
        self.set_of(key)
    }

    /// Per-set hit/alloc/eviction counters (length = `sets`), for
    /// cross-validation against the analytical oracle.
    #[must_use]
    pub fn set_counters(&self) -> &[SetCounters] {
        &self.set_stats
    }

    fn slot_idx(&self, r: EntryRef) -> usize {
        r.set as usize * self.ways + r.way as usize
    }

    /// Where `key` resides in its (already computed) set, scanning only
    /// the packed probe index.
    #[inline]
    fn find_way(&self, set: usize, key: MetaKey) -> Option<usize> {
        let base = set * self.ways;
        (0..self.ways).find(|&way| {
            self.probe_flags[base + way] & PF_VALID != 0 && self.probe_keys[base + way] == key.0
        })
    }

    /// Looks up `key`, updating recency and the probe counter.
    pub fn probe(&mut self, key: MetaKey, stats: &mut Stats) -> Option<EntryRef> {
        stats.incr_id(counter!("xcache.tag_read"));
        let set = self.set_of(key);
        let way = self.find_way(set, key)?;
        self.use_counter += 1;
        self.slots[set * self.ways + way].last_used = self.use_counter;
        self.set_stats[set].hits += 1;
        Some(EntryRef {
            set: set as u32,
            way: way as u32,
        })
    }

    /// Completes a probe whose way scan [`peek`](Self::peek) already
    /// performed: counts the tag read and touches recency exactly like
    /// [`probe`](Self::probe), without re-scanning the set. The trigger
    /// stage batches its hazard-check lookup and its serve lookup this
    /// way — one scan, one modelled access.
    pub fn probe_at(&mut self, r: Option<EntryRef>, stats: &mut Stats) -> Option<EntryRef> {
        stats.incr_id(counter!("xcache.tag_read"));
        if let Some(r) = r {
            let idx = self.slot_idx(r);
            self.use_counter += 1;
            self.slots[idx].last_used = self.use_counter;
            self.set_stats[r.set as usize].hits += 1;
        }
        r
    }

    /// Looks up `key` without touching recency or statistics (harness
    /// introspection, not a modelled hardware access).
    #[must_use]
    pub fn peek(&self, key: MetaKey) -> Option<EntryRef> {
        let set = self.set_of(key);
        self.find_way(set, key).map(|way| EntryRef {
            set: set as u32,
            way: way as u32,
        })
    }

    /// Everything the trigger stage's launch gate needs from `key`'s set,
    /// gathered in one way scan (see [`LaunchProbe`]). Counts nothing and
    /// touches no recency — like [`peek`](Self::peek) it models the
    /// hazard pre-check, not the serve-path tag read, which still goes
    /// through [`probe_at`](Self::probe_at).
    ///
    /// Before this existed the launch gate made up to three separate
    /// passes over the same set (`peek` + `can_alloc` + `set_unevictable`);
    /// coalescing them is the PR 6 leftover micro-opt, visible in the
    /// `XCACHE_PROF=1` trigger-stage scope.
    #[must_use]
    pub fn launch_probe(&self, key: MetaKey) -> LaunchProbe {
        let set = self.set_of(key);
        let base = set * self.ways;
        let mut probe = LaunchProbe {
            hit: None,
            can_alloc: false,
            unevictable: true,
        };
        for way in 0..self.ways {
            let f = self.probe_flags[base + way];
            if f & PF_VALID == 0 {
                probe.can_alloc = true;
                probe.unevictable = false;
                continue;
            }
            let idle = f & PF_ACTIVE == 0;
            let pinned = f & PF_PINNED != 0;
            if idle && !pinned {
                probe.can_alloc = true;
            }
            if !(idle && pinned) {
                probe.unevictable = false;
            }
            if probe.hit.is_none() && self.probe_keys[base + way] == key.0 {
                probe.hit = Some(EntryRef {
                    set: set as u32,
                    way: way as u32,
                });
            }
        }
        probe
    }

    /// The entry at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a valid entry.
    #[must_use]
    pub fn entry(&self, r: EntryRef) -> &MetaEntry {
        let idx = self.slot_idx(r);
        assert!(self.slots[idx].valid, "entry({r:?}) on invalid slot");
        &self.slots[idx].entry
    }

    /// Mutates the entry at `r` through `f`, then re-syncs the packed
    /// probe index (the closure may flip `active`/`pinned`, which the
    /// launch gate reads from the index, not the slot). The only mutable
    /// entry access — a returned `&mut MetaEntry` could desync the index.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a valid entry.
    pub fn update_entry<R>(&mut self, r: EntryRef, f: impl FnOnce(&mut MetaEntry) -> R) -> R {
        let idx = self.slot_idx(r);
        assert!(self.slots[idx].valid, "update_entry({r:?}) on invalid slot");
        let out = f(&mut self.slots[idx].entry);
        self.sync_probe_slot(idx);
        out
    }

    /// Allocates an entry for `key` (the `allocM` action).
    ///
    /// Prefers an invalid way; otherwise evicts the LRU way that is
    /// neither active nor pinned, returning the victim so the caller can
    /// free its sectors. Returns `None` when every way is unevictable
    /// (structural stall — the access must retry).
    pub fn alloc(
        &mut self,
        key: MetaKey,
        state: StateId,
        stats: &mut Stats,
    ) -> Option<(EntryRef, Option<MetaEntry>)> {
        stats.incr_id(counter!("xcache.tag_write"));
        let set = self.set_of(key);
        // An idle, unpinned way already holding `key` is always the victim:
        // re-allocating over it keeps the key unique in its set. Reachable
        // only when a lookup was suppressed before the alloc (injected
        // meta-tag misfire) — a fault-free run probes first and never
        // allocates over a resident key.
        let mut victim: Option<(usize, u64)> = None;
        for way in 0..self.ways {
            let s = &self.slots[set * self.ways + way];
            if s.valid && s.entry.key == key && !s.entry.active && !s.entry.pinned {
                victim = Some((way, s.last_used));
                break;
            }
        }
        if victim.is_none() {
            for way in 0..self.ways {
                let idx = set * self.ways + way;
                let s = &self.slots[idx];
                if !s.valid {
                    victim = Some((way, 0));
                    break;
                }
                if s.entry.active || s.entry.pinned {
                    continue;
                }
                match victim {
                    Some((_, lu)) if lu <= s.last_used => {}
                    _ => victim = Some((way, s.last_used)),
                }
            }
        }
        let (way, _) = victim?;
        let idx = set * self.ways + way;
        let evicted = self.slots[idx].valid.then(|| {
            stats.incr_id(counter!("xcache.meta_evict"));
            self.set_stats[set].evictions += 1;
            self.slots[idx].entry
        });
        self.set_stats[set].allocs += 1;
        self.use_counter += 1;
        self.slots[idx] = Slot {
            entry: MetaEntry {
                key,
                state,
                sector_start: 0,
                sector_count: 0,
                active: true,
                pinned: false,
            },
            valid: true,
            last_used: self.use_counter,
        };
        self.sync_probe_slot(idx);
        stats.incr_id(counter!("xcache.meta_alloc"));
        Some((
            EntryRef {
                set: set as u32,
                way: way as u32,
            },
            evicted,
        ))
    }

    /// Whether an allocation for `key` would succeed right now: some way
    /// in its set is invalid or idle-and-unpinned.
    #[must_use]
    pub fn can_alloc(&self, key: MetaKey) -> bool {
        let set = self.set_of(key);
        let base = set * self.ways;
        (0..self.ways).any(|way| {
            let f = self.probe_flags[base + way];
            f & PF_VALID == 0 || f & (PF_ACTIVE | PF_PINNED) == 0
        })
    }

    /// Whether an allocation for `key` can never succeed until something
    /// is explicitly taken: every way in its set is valid, pinned and
    /// idle. (If any way is merely *active*, a retiring walker may free
    /// it, so the condition is transient.)
    #[must_use]
    pub fn set_unevictable(&self, key: MetaKey) -> bool {
        let set = self.set_of(key);
        let base = set * self.ways;
        (0..self.ways).all(|way| {
            let f = self.probe_flags[base + way];
            f & (PF_VALID | PF_ACTIVE | PF_PINNED) == (PF_VALID | PF_PINNED)
        })
    }

    /// Demotes the entry at `r` to least-recently-used priority: it will
    /// be the set's first eviction victim unless re-referenced. Used for
    /// speculative side-inserts so they cannot displace proven-hot keys.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a valid entry.
    pub fn demote(&mut self, r: EntryRef) {
        let idx = self.slot_idx(r);
        assert!(self.slots[idx].valid, "demote({r:?}) on invalid slot");
        self.slots[idx].last_used = 0;
    }

    /// Invalidates the entry at `r`, returning it (the `deallocM` action).
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a valid entry.
    pub fn invalidate(&mut self, r: EntryRef, stats: &mut Stats) -> MetaEntry {
        let idx = self.slot_idx(r);
        assert!(self.slots[idx].valid, "invalidate({r:?}) on invalid slot");
        stats.incr_id(counter!("xcache.tag_write"));
        self.slots[idx].valid = false;
        self.sync_probe_slot(idx);
        self.slots[idx].entry
    }

    /// Iterates over all valid entries (harness introspection).
    pub fn iter(&self) -> impl Iterator<Item = &MetaEntry> {
        self.slots.iter().filter(|s| s.valid).map(|s| &s.entry)
    }

    /// The capacity-eviction victim: the idle, unpinned entry holding the
    /// fewest data-RAM sectors, the first in scan order on a tie. The scan
    /// stops at the first one-sector candidate, since none holds fewer.
    #[must_use]
    pub fn idle_victim(&self) -> Option<EntryRef> {
        let mut best: Option<(usize, u32)> = None;
        for (idx, &flags) in self.probe_flags.iter().enumerate() {
            if flags != PF_VALID {
                continue; // invalid, active or pinned
            }
            let sectors = self.slots[idx].entry.sector_count;
            if sectors == 0 || best.is_some_and(|(_, fewest)| fewest <= sectors) {
                continue;
            }
            best = Some((idx, sectors));
            if sectors == 1 {
                break;
            }
        }
        best.map(|(idx, _)| EntryRef {
            set: (idx / self.ways) as u32,
            way: (idx % self.ways) as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Stats {
        Stats::new()
    }

    #[test]
    fn probe_miss_then_alloc_then_hit() {
        let mut a = MetaTagArray::new(4, 2);
        let mut s = stats();
        let k = MetaKey(42);
        assert!(a.probe(k, &mut s).is_none());
        let (r, evicted) = a.alloc(k, StateId(1), &mut s).unwrap();
        assert!(evicted.is_none());
        assert_eq!(a.entry(r).key, k);
        assert_eq!(a.entry(r).state, StateId(1));
        assert!(a.entry(r).active);
        let hit = a.probe(k, &mut s).unwrap();
        assert_eq!(hit, r);
        assert_eq!(s.get("xcache.tag_read"), 2);
    }

    #[test]
    fn alloc_evicts_lru_only_when_idle() {
        let mut a = MetaTagArray::new(1, 2);
        let mut s = stats();
        let (r1, _) = a.alloc(MetaKey(1), StateId::DEFAULT, &mut s).unwrap();
        let (r2, _) = a.alloc(MetaKey(2), StateId::DEFAULT, &mut s).unwrap();
        // Both active: set full, no victim.
        assert!(a.alloc(MetaKey(3), StateId::DEFAULT, &mut s).is_none());
        // Deactivate key 1 (walker retired); now it is the victim.
        a.update_entry(r1, |e| e.active = false);
        a.update_entry(r2, |e| e.active = false);
        // Touch key 2 so key 1 is LRU.
        let _ = a.probe(MetaKey(2), &mut s);
        let (_, evicted) = a.alloc(MetaKey(3), StateId::DEFAULT, &mut s).unwrap();
        assert_eq!(evicted.unwrap().key, MetaKey(1));
        assert_eq!(s.get("xcache.meta_evict"), 1);
    }

    #[test]
    fn pinned_entries_never_evicted() {
        let mut a = MetaTagArray::new(1, 1);
        let mut s = stats();
        let (r, _) = a.alloc(MetaKey(1), StateId::DEFAULT, &mut s).unwrap();
        a.update_entry(r, |e| e.active = false);
        a.update_entry(r, |e| e.pinned = true);
        assert!(a.alloc(MetaKey(2), StateId::DEFAULT, &mut s).is_none());
    }

    #[test]
    fn invalidate_frees_the_way() {
        let mut a = MetaTagArray::new(1, 1);
        let mut s = stats();
        let (r, _) = a.alloc(MetaKey(1), StateId::DEFAULT, &mut s).unwrap();
        let old = a.invalidate(r, &mut s);
        assert_eq!(old.key, MetaKey(1));
        assert!(a.probe(MetaKey(1), &mut s).is_none());
        assert!(a.alloc(MetaKey(2), StateId::DEFAULT, &mut s).is_some());
    }

    #[test]
    fn peek_does_not_count_or_touch() {
        let mut a = MetaTagArray::new(2, 1);
        let mut s = stats();
        let _ = a.alloc(MetaKey(5), StateId::DEFAULT, &mut s).unwrap();
        let reads_before = s.get("xcache.tag_read");
        assert!(a.peek(MetaKey(5)).is_some());
        assert!(a.peek(MetaKey(6)).is_none());
        assert_eq!(s.get("xcache.tag_read"), reads_before);
    }

    #[test]
    fn occupancy_and_iter() {
        let mut a = MetaTagArray::new(4, 2);
        let mut s = stats();
        assert!(a.is_empty());
        for k in 0..5u64 {
            let _ = a.alloc(MetaKey(k), StateId::DEFAULT, &mut s);
        }
        assert_eq!(a.occupancy(), 5);
        assert_eq!(a.iter().count(), 5);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn keys_spread_across_sets() {
        let a = MetaTagArray::new(64, 1);
        // Sequential row ids should not all collide in one set.
        let sets: std::collections::HashSet<usize> =
            (0..64u64).map(|k| a.set_of(MetaKey(k))).collect();
        assert!(sets.len() > 32, "hashing too weak: {} sets", sets.len());
    }

    #[test]
    fn launch_probe_matches_the_three_scans() {
        // Drive one set through every slot-state combination and check the
        // fused scan agrees with the three separate queries it replaces.
        let mut a = MetaTagArray::new(1, 3);
        let mut s = stats();
        for k in 0..3u64 {
            let _ = a.alloc(MetaKey(k), StateId::DEFAULT, &mut s).unwrap();
        }
        for mask in 0..64u32 {
            for way in 0..3u32 {
                a.update_entry(EntryRef { set: 0, way }, |e| {
                    e.active = mask & (1 << way) != 0;
                    e.pinned = mask & (1 << (way + 3)) != 0;
                });
            }
            for k in 0..4u64 {
                let key = MetaKey(k);
                let probe = a.launch_probe(key);
                assert_eq!(probe.hit, a.peek(key), "mask {mask} key {k}");
                assert_eq!(probe.can_alloc, a.can_alloc(key), "mask {mask} key {k}");
                assert_eq!(
                    probe.unevictable,
                    a.set_unevictable(key),
                    "mask {mask} key {k}"
                );
            }
        }
        // And with an invalid way in the set.
        let r = EntryRef { set: 0, way: 1 };
        a.update_entry(r, |e| e.active = false);
        a.update_entry(r, |e| e.pinned = false);
        let _ = a.invalidate(r, &mut s);
        for k in 0..4u64 {
            let key = MetaKey(k);
            let probe = a.launch_probe(key);
            assert_eq!(probe.hit, a.peek(key));
            assert_eq!(probe.can_alloc, a.can_alloc(key));
            assert_eq!(probe.unevictable, a.set_unevictable(key));
        }
        assert_eq!(
            s.get("xcache.tag_read"),
            0,
            "launch_probe must count nothing"
        );
    }

    #[test]
    fn per_set_counters_track_hits_allocs_evictions() {
        let mut a = MetaTagArray::new(4, 1);
        let mut s = stats();
        let k = MetaKey(42);
        let set = a.set_index(k);
        let (r, _) = a.alloc(k, StateId::DEFAULT, &mut s).unwrap();
        a.update_entry(r, |e| e.active = false);
        let _ = a.probe(k, &mut s); // counted hit
        let _ = a.probe_at(a.peek(k), &mut s); // counted hit
        let _ = a.probe_at(None, &mut s); // miss: not attributed to any set
        let _ = a.peek(k); // peek counts nothing
                           // Find a colliding key to force an eviction in the same set.
        let k2 = (0..1000u64)
            .map(MetaKey)
            .find(|&c| c != k && a.set_index(c) == set)
            .expect("some key collides");
        let _ = a.alloc(k2, StateId::DEFAULT, &mut s).unwrap();
        let c = a.set_counters()[set];
        assert_eq!((c.hits, c.allocs, c.evictions), (2, 2, 1));
        let other_sets: u64 = a
            .set_counters()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != set)
            .map(|(_, c)| c.hits + c.allocs + c.evictions)
            .sum();
        assert_eq!(other_sets, 0);
    }

    #[test]
    #[should_panic(expected = "invalid slot")]
    fn entry_on_invalid_slot_panics() {
        let a = MetaTagArray::new(1, 1);
        let _ = a.entry(EntryRef { set: 0, way: 0 });
    }

    #[test]
    fn realloc_same_key_reuses_the_resident_way() {
        let mut a = MetaTagArray::new(1, 2);
        let mut s = stats();
        let (r1, _) = a.alloc(MetaKey(1), StateId::DEFAULT, &mut s).unwrap();
        a.update_entry(r1, |e| e.active = false);
        // A suppressed lookup (meta-tag misfire) re-allocates key 1 while
        // it is still resident: the resident way must be the victim, so
        // the set never holds two entries with the same key.
        let (r2, evicted) = a.alloc(MetaKey(1), StateId::DEFAULT, &mut s).unwrap();
        assert_eq!(r2, r1);
        assert_eq!(evicted.unwrap().key, MetaKey(1));
        let copies = a.iter().filter(|e| e.key == MetaKey(1)).count();
        assert_eq!(copies, 1);
    }

    /// The way `idle_victim` picks in a one-set array (scan order is way
    /// order) whose ways hold `(sectors, kind)` entries, in order: kind
    /// `'i'` idle, `'a'` active, `'p'` pinned.
    fn victim_way(entries: &[(u32, char)]) -> Option<u32> {
        let mut a = MetaTagArray::new(1, 8);
        let mut s = stats();
        for (i, &(sectors, kind)) in entries.iter().enumerate() {
            let (r, _) = a
                .alloc(MetaKey(i as u64 + 1), StateId::DEFAULT, &mut s)
                .unwrap();
            assert_eq!(r.way as usize, i, "alloc fills invalid ways in order");
            a.update_entry(r, |e| {
                e.sector_count = sectors;
                e.active = kind == 'a';
                e.pinned = kind == 'p';
            });
        }
        a.idle_victim().map(|r| r.way)
    }

    #[test]
    fn idle_victim_is_the_first_idle_entry_with_the_fewest_sectors() {
        // A later entry holding fewer sectors beats an earlier one, and
        // the first of two tied fewest-sector entries wins.
        assert_eq!(
            victim_way(&[(3, 'i'), (2, 'i'), (4, 'i'), (2, 'i')]),
            Some(1)
        );
        // Two one-sector entries tie: the first one wins.
        assert_eq!(
            victim_way(&[(3, 'i'), (1, 'i'), (2, 'i'), (1, 'i')]),
            Some(1)
        );
        // Active, pinned and sectorless entries are never candidates.
        let skipped = [(1, 'a'), (1, 'p'), (0, 'i'), (2, 'i'), (1, 'i'), (1, 'i')];
        assert_eq!(victim_way(&skipped), Some(4));
        assert_eq!(victim_way(&[(1, 'a'), (0, 'i'), (1, 'p')]), None);
    }
}
