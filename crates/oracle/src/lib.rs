//! # xcache-oracle
//!
//! An *analytical* cache model for the X-Cache meta-tag array: it replays
//! a pure access stream (no timing, no walkers, no DRAM) and predicts
//! hit/miss/eviction counts per meta-tag set under the shipped replacement
//! policy. In the spirit of Gysi et al.'s fast analytical cache models,
//! it is the repo's first simulator-independent correctness oracle: the
//! cycle-level simulator and this model share *no* code, only the
//! documented replacement semantics, so agreement between the two is
//! evidence that both implement the spec.
//!
//! ## What is mirrored, exactly
//!
//! The model reproduces, operation for operation, the serialized
//! (one-access-at-a-time) semantics of `xcache-core`:
//!
//! * **Set index**: Fibonacci hashing,
//!   `((key × 0x9E37_79B9_7F4A_7C15) >> 32) & (sets − 1)` — pinned
//!   against `MetaTagArray::set_index` by a cross-crate test in the bench
//!   harness.
//! * **Victim selection** (`allocM`): an idle way already holding the key;
//!   else the first invalid way in scan order; else the least-recently-used
//!   idle way (first way wins ties). Recency is a global monotonic
//!   use-counter bumped by probes and allocations.
//! * **Side-inserts** (`insertM`): skip silently when the key is already
//!   resident; allocate data sectors first (evicting idle entries,
//!   smallest sector count first, scan order breaking ties) and count an
//!   `insertm_skip` when either the data RAM or the tag set refuses; on
//!   success the entry is *demoted* to LRU priority so speculative inserts
//!   cannot displace proven-hot keys.
//! * **Faults**: a walker that faults after allocating its own entry
//!   invalidates it (the `owns_entry` path of the simulator's
//!   `fault_walker`), after any side-inserts it performed.
//! * **Data-RAM pressure** (`allocD`): a sector pool with the simulator's
//!   `evict_one_idle` policy — evict the idle entry holding the fewest
//!   sectors until the allocation fits.
//!
//! ## What is deliberately *not* modelled
//!
//! Timing, and everything coupled to it: walker concurrency (waiter
//! coalescing, the trigger stage's window scheduling that lets young hits
//! bypass resource-stalled old misses), hazard retries, fault injection,
//! and watchdog recovery. A serially-driven simulation (one access
//! retired before the next is issued) must agree with this model
//! **exactly**; a pipelined run agrees within a tolerance that the
//! cross-validation harness (`xcache-bench/src/crossval.rs`) declares and
//! enforces per cell.

/// Geometry subset the analytical model needs (mirrors `XCacheConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleGeometry {
    /// Meta-tag sets (power of two).
    pub sets: usize,
    /// Meta-tag ways per set.
    pub ways: usize,
    /// Total data-RAM sectors.
    pub data_sectors: u64,
}

impl OracleGeometry {
    /// Checks the geometry.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err("sets must be a nonzero power of two".into());
        }
        if self.ways == 0 {
            return Err("ways must be nonzero".into());
        }
        if self.data_sectors == 0 {
            return Err("data_sectors must be nonzero".into());
        }
        Ok(())
    }
}

/// A speculative insert performed by a walker while servicing a miss
/// (the Widx chain walk side-caches every node it touches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideInsert {
    /// Meta key of the inserted entry.
    pub key: u64,
    /// Data sectors the insert carries.
    pub sectors: u32,
}

/// What a walker does when the keyed load misses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MissPlan {
    /// The walk succeeds: `sectors` are installed under the key, after
    /// `side_inserts` (in walk order).
    Install {
        /// Sectors installed for the missing key itself.
        sectors: u32,
        /// Speculative inserts performed along the walk, in order.
        side_inserts: Vec<SideInsert>,
    },
    /// The walk faults (key absent / empty bucket / oversized row): the
    /// walker's own entry is invalidated, but `side_inserts` performed
    /// before the fault survive.
    Fault {
        /// Speculative inserts performed before the fault, in order.
        side_inserts: Vec<SideInsert>,
    },
}

impl MissPlan {
    /// An install with no side-inserts (the common single-fetch walker).
    #[must_use]
    pub fn install(sectors: u32) -> Self {
        MissPlan::Install {
            sectors,
            side_inserts: Vec::new(),
        }
    }

    /// A fault with no side-inserts.
    #[must_use]
    pub fn fault() -> Self {
        MissPlan::Fault {
            side_inserts: Vec::new(),
        }
    }
}

/// One datapath access in the replayed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleOp {
    /// A keyed load; `plan` says what the walker would do on a miss.
    Load {
        /// Meta key probed.
        key: u64,
        /// Walker behaviour if the probe misses.
        plan: MissPlan,
    },
    /// A keyed store (the shipped store handlers acknowledge without
    /// installing: a hit touches recency, a miss changes nothing).
    Store {
        /// Meta key stored to.
        key: u64,
    },
    /// A keyed take: a hit invalidates the entry and frees its sectors.
    Take {
        /// Meta key taken.
        key: u64,
    },
}

/// Per-set counters, aligned with `MetaTagArray`'s per-set export:
/// `hits` counts probe hits of any access type, `allocs`/`evictions`
/// count `allocM` allocations and their valid victims. Capacity
/// (data-RAM) evictions are aggregate-only on both sides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetCounts {
    /// Probe hits landing in this set (loads, stores and takes).
    pub hits: u64,
    /// `allocM` allocations in this set.
    pub allocs: u64,
    /// Valid entries displaced by those allocations.
    pub evictions: u64,
}

/// Everything the model predicts for one replayed stream.
///
/// Counter names match the simulator's `xcache.*` statistics they are
/// compared against (see `crossval.rs` in `xcache-bench`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Prediction {
    /// Loads replayed (`= hits + misses`).
    pub loads: u64,
    /// Load probe hits (`xcache.hit`).
    pub hits: u64,
    /// Load probe misses (`xcache.miss`).
    pub misses: u64,
    /// Store probe hits (`xcache.store_hit`).
    pub store_hits: u64,
    /// Store probe misses (`xcache.store_miss`).
    pub store_misses: u64,
    /// Take probe hits (`xcache.take_hit`).
    pub take_hits: u64,
    /// Take probe misses (`xcache.take_miss`).
    pub take_misses: u64,
    /// Faulted walks (`xcache.walker_fault`).
    pub walker_faults: u64,
    /// Meta-tag allocations (`xcache.meta_alloc`).
    pub meta_allocs: u64,
    /// Valid entries displaced by allocations (`xcache.meta_evict`).
    pub meta_evictions: u64,
    /// Successful side-inserts (`xcache.insertm`).
    pub insertm: u64,
    /// Side-inserts refused by data or tag pressure
    /// (`xcache.insertm_skip`).
    pub insertm_skips: u64,
    /// Idle entries evicted for data-RAM space (`xcache.capacity_evict`).
    pub capacity_evictions: u64,
    /// Installs dropped because the data RAM could not fit them even
    /// after evicting every idle entry. Unreachable for the shipped
    /// walkers (row sizes are capped below capacity); counted rather than
    /// panicking so adversarial streams stay total.
    pub unsatisfiable_installs: u64,
    /// Per-set hit/alloc/eviction counts (length = `sets`).
    pub per_set: Vec<SetCounts>,
}

impl Prediction {
    /// Load hit rate in `[0, 1]` (zero when no loads were replayed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.hits as f64 / self.loads as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    sectors: u32,
    valid: bool,
    active: bool,
    last_used: u64,
}

/// The analytical model: a set-associative tag array plus a data-sector
/// pool, replayed one [`OracleOp`] at a time.
#[derive(Debug)]
pub struct CacheModel {
    sets: usize,
    ways: usize,
    data_capacity: u64,
    data_used: u64,
    use_counter: u64,
    slots: Vec<Slot>,
    p: Prediction,
}

impl CacheModel {
    /// Creates an empty model for `geom`.
    ///
    /// # Errors
    ///
    /// Returns the first [`OracleGeometry::validate`] failure.
    pub fn new(geom: OracleGeometry) -> Result<Self, String> {
        geom.validate()
            .map_err(|reason| format!("invalid OracleGeometry: {reason}"))?;
        Ok(CacheModel {
            sets: geom.sets,
            ways: geom.ways,
            data_capacity: geom.data_sectors,
            data_used: 0,
            use_counter: 0,
            slots: vec![Slot::default(); geom.sets * geom.ways],
            p: Prediction {
                per_set: vec![SetCounts::default(); geom.sets],
                ..Prediction::default()
            },
        })
    }

    /// Replays `ops` against a fresh model and returns the prediction.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new).
    pub fn replay(geom: OracleGeometry, ops: &[OracleOp]) -> Result<Prediction, String> {
        let mut m = CacheModel::new(geom)?;
        for op in ops {
            m.apply(op);
        }
        Ok(m.into_prediction())
    }

    /// The set `key` maps to — the same Fibonacci hash as
    /// `MetaTagArray::set_index` (pinned by a cross-crate test).
    #[must_use]
    pub fn set_index(&self, key: u64) -> usize {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.sets - 1)
    }

    /// The prediction accumulated so far.
    #[must_use]
    pub fn prediction(&self) -> &Prediction {
        &self.p
    }

    /// Consumes the model, returning its prediction.
    #[must_use]
    pub fn into_prediction(self) -> Prediction {
        self.p
    }

    /// Data sectors currently allocated (for tests and introspection).
    #[must_use]
    pub fn data_used(&self) -> u64 {
        self.data_used
    }

    fn find(&self, key: u64) -> Option<usize> {
        let base = self.set_index(key) * self.ways;
        (base..base + self.ways).find(|&i| self.slots[i].valid && self.slots[i].key == key)
    }

    fn touch_hit(&mut self, idx: usize) {
        self.use_counter += 1;
        self.slots[idx].last_used = self.use_counter;
        self.p.per_set[idx / self.ways].hits += 1;
    }

    /// `allocM`: victim selection mirrors `MetaTagArray::alloc` — an idle
    /// way already holding `key`, else the first invalid way, else the
    /// LRU idle way (first way wins ties). Returns `None` when every way
    /// is held by an active walker (unreachable in serialized replay of
    /// a load's own entry, reachable for side-inserts landing in the
    /// walking key's set).
    fn alloc_entry(&mut self, key: u64) -> Option<usize> {
        let set = self.set_index(key);
        let base = set * self.ways;
        let mut victim: Option<(usize, u64)> = None;
        for way in 0..self.ways {
            let s = &self.slots[base + way];
            if s.valid && s.key == key && !s.active {
                victim = Some((way, s.last_used));
                break;
            }
        }
        if victim.is_none() {
            for way in 0..self.ways {
                let s = &self.slots[base + way];
                if !s.valid {
                    victim = Some((way, 0));
                    break;
                }
                if s.active {
                    continue;
                }
                match victim {
                    Some((_, lu)) if lu <= s.last_used => {}
                    _ => victim = Some((way, s.last_used)),
                }
            }
        }
        let (way, _) = victim?;
        let idx = base + way;
        if self.slots[idx].valid {
            self.p.meta_evictions += 1;
            self.p.per_set[set].evictions += 1;
            self.data_used -= u64::from(self.slots[idx].sectors);
        }
        self.use_counter += 1;
        self.slots[idx] = Slot {
            key,
            sectors: 0,
            valid: true,
            active: true,
            last_used: self.use_counter,
        };
        self.p.meta_allocs += 1;
        self.p.per_set[set].allocs += 1;
        Some(idx)
    }

    /// `allocD`: grow `data_used` by `n`, evicting idle entries (fewest
    /// sectors first, scan order breaking ties — the simulator's
    /// `evict_one_idle`) until the allocation fits. Returns `false` when
    /// no evictable entry remains and the allocation still does not fit.
    fn data_alloc(&mut self, n: u64) -> bool {
        loop {
            if self.data_used + n <= self.data_capacity {
                self.data_used += n;
                return true;
            }
            if !self.evict_one_idle() {
                return false;
            }
        }
    }

    fn evict_one_idle(&mut self) -> bool {
        let mut best: Option<(usize, u32)> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if s.valid && !s.active && s.sectors > 0 {
                match best {
                    Some((_, sc)) if sc <= s.sectors => {}
                    _ => best = Some((i, s.sectors)),
                }
            }
        }
        let Some((idx, sectors)) = best else {
            return false;
        };
        self.slots[idx].valid = false;
        self.data_used -= u64::from(sectors);
        self.p.capacity_evictions += 1;
        true
    }

    /// `insertM`: silent skip when resident; data first, then tag; demote
    /// on success. Mirrors the executor's `h_insert_m` counter for
    /// counter: the resident skip is silent, resource refusals count.
    fn side_insert(&mut self, si: SideInsert) {
        if self.find(si.key).is_some() {
            return; // silent: the executor advances without counting
        }
        let n = u64::from(si.sectors);
        if !self.data_alloc(n) {
            self.p.insertm_skips += 1;
            return;
        }
        match self.alloc_entry(si.key) {
            Some(idx) => {
                self.slots[idx].sectors = si.sectors;
                self.slots[idx].active = false;
                self.slots[idx].last_used = 0; // demote: first victim unless re-referenced
                self.p.insertm += 1;
            }
            None => {
                self.data_used -= n;
                self.p.insertm_skips += 1;
            }
        }
    }

    /// Replays one access.
    pub fn apply(&mut self, op: &OracleOp) {
        match op {
            OracleOp::Load { key, plan } => {
                self.p.loads += 1;
                if let Some(idx) = self.find(*key) {
                    self.p.hits += 1;
                    self.touch_hit(idx);
                    return;
                }
                self.p.misses += 1;
                let Some(own) = self.alloc_entry(*key) else {
                    // Every way pinned/active: the simulator would stall
                    // and eventually abort; serialized replay cannot make
                    // progress either. Count it as a fault and move on.
                    self.p.walker_faults += 1;
                    return;
                };
                let (side_inserts, install) = match plan {
                    MissPlan::Install {
                        sectors,
                        side_inserts,
                    } => (side_inserts, Some(*sectors)),
                    MissPlan::Fault { side_inserts } => (side_inserts, None),
                };
                // Side-inserts cannot displace the walking key's own
                // entry (it is active), so `own` stays stable here.
                for si in side_inserts {
                    self.side_insert(*si);
                }
                match install {
                    Some(sectors) => {
                        if self.data_alloc(u64::from(sectors)) {
                            self.slots[own].sectors = sectors;
                        } else {
                            self.p.unsatisfiable_installs += 1;
                        }
                        self.slots[own].active = false; // retire
                    }
                    None => {
                        // fault_walker, owns_entry path: invalidate.
                        self.slots[own].valid = false;
                        self.p.walker_faults += 1;
                    }
                }
            }
            OracleOp::Store { key } => {
                if let Some(idx) = self.find(*key) {
                    self.p.store_hits += 1;
                    self.touch_hit(idx);
                } else {
                    self.p.store_misses += 1;
                }
            }
            OracleOp::Take { key } => {
                if let Some(idx) = self.find(*key) {
                    self.p.take_hits += 1;
                    self.touch_hit(idx);
                    self.data_used -= u64::from(self.slots[idx].sectors);
                    self.slots[idx].valid = false;
                } else {
                    self.p.take_misses += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(sets: usize, ways: usize, data: u64) -> OracleGeometry {
        OracleGeometry {
            sets,
            ways,
            data_sectors: data,
        }
    }

    fn load(key: u64) -> OracleOp {
        OracleOp::Load {
            key,
            plan: MissPlan::install(1),
        }
    }

    #[test]
    fn miss_then_hit() {
        let p = CacheModel::replay(geom(4, 2, 16), &[load(42), load(42)]).unwrap();
        assert_eq!((p.loads, p.hits, p.misses), (2, 1, 1));
        assert_eq!(p.meta_allocs, 1);
        assert_eq!(p.meta_evictions, 0);
        let set_hits: u64 = p.per_set.iter().map(|s| s.hits).sum();
        assert_eq!(set_hits, 1);
    }

    #[test]
    fn lru_eviction_prefers_least_recent_first_way_on_ties() {
        // One set, two ways: fill with A, B; touch A; insert C -> evicts B.
        let mut m = CacheModel::new(geom(1, 2, 16)).unwrap();
        m.apply(&load(1));
        m.apply(&load(2));
        m.apply(&load(1)); // touch A
        m.apply(&load(3)); // evicts B (LRU)
        m.apply(&load(1));
        let p = m.prediction();
        assert_eq!(p.hits, 2, "A must survive C's insertion");
        assert_eq!(p.meta_evictions, 1);
    }

    #[test]
    fn fault_plan_leaves_no_residue() {
        let ops = [
            OracleOp::Load {
                key: 9,
                plan: MissPlan::fault(),
            },
            OracleOp::Load {
                key: 9,
                plan: MissPlan::fault(),
            },
        ];
        let p = CacheModel::replay(geom(4, 1, 8), &ops).unwrap();
        assert_eq!(p.misses, 2, "a faulted walk installs nothing");
        assert_eq!(p.walker_faults, 2);
        assert_eq!(p.meta_allocs, 2, "the entry is allocated, then dropped");
    }

    #[test]
    fn side_inserts_install_demoted_and_skip_resident() {
        let si = SideInsert { key: 7, sectors: 1 };
        let ops = [
            OracleOp::Load {
                key: 1,
                plan: MissPlan::Install {
                    sectors: 1,
                    side_inserts: vec![si],
                },
            },
            // Resident side-insert is a silent no-op.
            OracleOp::Load {
                key: 2,
                plan: MissPlan::Install {
                    sectors: 1,
                    side_inserts: vec![si],
                },
            },
            load(7), // the side-inserted key hits
        ];
        let p = CacheModel::replay(geom(16, 2, 32), &ops).unwrap();
        assert_eq!(p.insertm, 1);
        assert_eq!(p.insertm_skips, 0);
        assert_eq!(p.hits, 1);
    }

    #[test]
    fn demoted_side_insert_is_first_victim() {
        // One set, two ways. Load A (miss, installs). Side-insert S rides
        // on B's miss... but B lands in the same set, so: A resident,
        // B allocates over the invalid way? Both ways fill; then load C
        // must evict the demoted S, not A or B.
        let mut m = CacheModel::new(geom(1, 3, 32)).unwrap();
        m.apply(&load(1));
        m.apply(&OracleOp::Load {
            key: 2,
            plan: MissPlan::Install {
                sectors: 1,
                side_inserts: vec![SideInsert { key: 5, sectors: 1 }],
            },
        });
        // Ways now: 1 (recency 1), 2 (recency 3, own alloc), 5 (demoted 0).
        m.apply(&load(6)); // evicts the demoted 5
        m.apply(&load(1));
        m.apply(&load(2));
        let p = m.prediction();
        assert_eq!(p.hits, 2, "1 and 2 must survive; demoted 5 was evicted");
    }

    #[test]
    fn capacity_eviction_frees_smallest_idle_entry() {
        // Data pool of 4 sectors; three 1-sector entries + one 2-sector
        // install forces an eviction of the smallest idle entry.
        let mut m = CacheModel::new(geom(16, 2, 4)).unwrap();
        m.apply(&load(1));
        m.apply(&load(2));
        m.apply(&load(3));
        assert_eq!(m.data_used(), 3);
        m.apply(&OracleOp::Load {
            key: 4,
            plan: MissPlan::install(2),
        });
        let p = m.prediction();
        assert_eq!(p.capacity_evictions, 1);
        assert_eq!(m.data_used(), 4);
    }

    #[test]
    fn store_and_take_semantics() {
        let mut m = CacheModel::new(geom(4, 2, 8)).unwrap();
        m.apply(&OracleOp::Store { key: 3 }); // miss: installs nothing
        m.apply(&load(3));
        m.apply(&OracleOp::Store { key: 3 }); // hit: touches only
        m.apply(&OracleOp::Take { key: 3 }); // hit: invalidates + frees
        m.apply(&load(3)); // misses again
        let p = m.prediction();
        assert_eq!((p.store_hits, p.store_misses), (1, 1));
        assert_eq!((p.take_hits, p.take_misses), (1, 0));
        assert_eq!(p.misses, 2);
        assert_eq!(m.data_used(), 1, "take freed the first install's sector");
    }

    #[test]
    fn take_miss_counts() {
        let p = CacheModel::replay(geom(4, 1, 4), &[OracleOp::Take { key: 11 }]).unwrap();
        assert_eq!(p.take_misses, 1);
    }

    #[test]
    fn per_set_counts_sum_to_aggregates() {
        let ops: Vec<OracleOp> = (0..64u64).map(|k| load(k % 13)).collect();
        let p = CacheModel::replay(geom(8, 2, 64), &ops).unwrap();
        let hits: u64 = p.per_set.iter().map(|s| s.hits).sum();
        let allocs: u64 = p.per_set.iter().map(|s| s.allocs).sum();
        let evicts: u64 = p.per_set.iter().map(|s| s.evictions).sum();
        assert_eq!(hits, p.hits, "loads only: per-set hits are load hits");
        assert_eq!(allocs, p.meta_allocs);
        assert_eq!(evicts, p.meta_evictions);
        assert_eq!(p.loads, p.hits + p.misses);
    }

    #[test]
    fn set_index_is_fibonacci_hash() {
        let m = CacheModel::new(geom(64, 1, 64)).unwrap();
        for k in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let expect = ((k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & 63;
            assert_eq!(m.set_index(k), expect);
        }
    }

    #[test]
    fn rejects_non_pow2_sets() {
        let err = CacheModel::new(geom(3, 1, 4)).expect_err("3 sets");
        assert!(err.starts_with("invalid OracleGeometry"), "{err}");
    }
}
