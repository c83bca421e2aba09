//! Widx — "Meet the Walkers" (Kocberber et al., MICRO'13), §5 of the
//! X-Cache paper.
//!
//! The data structure is a database hash index: a bucket array of chain
//! heads and 32-byte nodes `[key, rid, next, pad]`. Three configurations:
//!
//! * [`run_xcache`] — the X-Cache version: the datapath issues meta loads
//!   of the *keys*; hits skip both hashing (up to 60 cycles for TPC-H
//!   string keys) and the chain walk; misses run the [`walker`] coroutine.
//! * [`run_address_cache`] — the same-geometry address-based cache with an
//!   ideal (zero-cost) walker: every probe still hashes and chases the
//!   chain, but node accesses may hit in the cache.
//! * [`run_baseline`] — the hardwired Widx DSA: dedicated walker units in
//!   front of an address cache (the original design; it "relied on an
//!   address-based cache and, hence, always walked").

use xcache_core::{
    horizon_target, owner_of, MetaAccess, MetaKey, XCache, XCacheConfig, DEFAULT_HORIZON,
};
use xcache_isa::asm::assemble;
use xcache_isa::WalkerProgram;
use xcache_mem::{AddressCache, CacheConfig, DramConfig, DramModel, MainMemory};
use xcache_sim::{run_horizons, Cycle, Stats};
use xcache_workloads::hashidx::NODE_BYTES;
use xcache_workloads::{HashIndex, TpchPreset};

use crate::common::{
    apply_image, shard_cells, shard_stats, Answered, ProbeTask, RunReport, TaskStep,
};

/// A materialised Widx workload.
#[derive(Debug, Clone)]
pub struct WidxWorkload {
    /// The build-side hash index.
    pub index: HashIndex,
    /// Probe-side key stream.
    pub probes: Vec<u64>,
    /// Hash-unit latency for this key class (60 = string keys).
    pub hash_latency: u64,
}

impl WidxWorkload {
    /// Materialises a TPC-H preset.
    #[must_use]
    pub fn from_preset(preset: &TpchPreset, seed: u64) -> Self {
        let (index, probes) = preset.materialize(seed);
        WidxWorkload {
            index,
            probes,
            hash_latency: preset.hash_latency,
        }
    }

    /// Order-independent oracle checksum: sum of rids of present probes.
    #[must_use]
    pub fn oracle_checksum(&self) -> u64 {
        self.probes
            .iter()
            .filter_map(|&k| self.index.get(k))
            .fold(0u64, u64::wrapping_add)
    }
}

/// Base address of the index image in the simulated heap.
const IMAGE_BASE: u64 = 0x10_0000;

/// The Widx walker program (`walkers/widx.xw`): hash → bucket head →
/// chain chase → cache node.
///
/// States mirror Figure 10a: `IDX` (hash), `META` (bucket root), `DATA`
/// (node chase with `MATCH`).
#[must_use]
pub fn walker() -> WalkerProgram {
    assemble(include_str!("../../../walkers/widx.xw")).expect("widx walker is well-formed")
}

/// The Widx walker *without* chain-node side-caching: only the matched
/// node is installed. The `insertm` ablation's comparison point.
#[must_use]
pub fn walker_no_sideinsert() -> WalkerProgram {
    let mut p = walker();
    for r in &mut p.routines {
        // Map old action indices to new ones, then drop the inserts and
        // retarget branches across the removed slots.
        let removed: Vec<usize> = r
            .actions
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, xcache_isa::Action::InsertM { .. }))
            .map(|(i, _)| i)
            .collect();
        if removed.is_empty() {
            continue;
        }
        let new_index =
            |old: usize| -> u8 { (old - removed.iter().filter(|&&i| i < old).count()) as u8 };
        r.actions = r
            .actions
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, a)| match *a {
                xcache_isa::Action::Branch { cond, a, b, target } => xcache_isa::Action::Branch {
                    cond,
                    a,
                    b,
                    target: new_index(usize::from(target)),
                },
                other => other,
            })
            .collect();
    }
    p.name = "widx_no_sideinsert".into();
    p
}

fn memory_image(workload: &WidxWorkload) -> (MainMemory, u64, u64) {
    let layout = workload.index.layout(IMAGE_BASE);
    let mut mem = MainMemory::new();
    apply_image(&mut mem, &layout.segments);
    (mem, layout.bucket_base, layout.buckets - 1)
}

/// Runs the X-Cache configuration. `geometry` defaults to Table 3's Widx
/// row via [`XCacheConfig::widx`].
///
/// # Panics
///
/// Panics if [`drive_xcache`] fails or the checksum diverges from the
/// functional oracle.
#[must_use]
pub fn run_xcache(workload: &WidxWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    run_xcache_with_walker(workload, geometry, walker())
}

/// [`run_xcache`] with a caller-supplied walker program (used by the
/// `insertm` ablation, which runs a walker that skips side-caching).
///
/// # Panics
///
/// Panics if [`drive_xcache`] fails or the checksum diverges from the
/// functional oracle.
#[must_use]
pub fn run_xcache_with_walker(
    workload: &WidxWorkload,
    geometry: Option<XCacheConfig>,
    program: WalkerProgram,
) -> RunReport {
    let report = drive_xcache(workload, geometry, program).expect("widx x-cache run failed");
    assert_eq!(
        report.checksum,
        workload.oracle_checksum(),
        "x-cache run diverged from the functional oracle"
    );
    report
}

/// Drives the single-controller X-Cache topology without checking the
/// result: the datapath issues every probe as a meta load in stream order
/// and sums the rids of the found ones. Under an armed fault plan a
/// watchdog-killed walk legitimately answers "not found", so the chaos
/// harness calls this and judges the checksum itself.
///
/// # Errors
///
/// Returns `Err` when the controller cannot be built, answers a probe
/// twice or one never issued, or the run exceeds its cycle bound.
pub fn drive_xcache(
    workload: &WidxWorkload,
    geometry: Option<XCacheConfig>,
    program: WalkerProgram,
) -> Result<RunReport, String> {
    let (mem, bucket_base, mask) = memory_image(workload);
    let dram = DramModel::with_memory(DramConfig::default(), mem);
    let mut cfg = geometry.unwrap_or_else(XCacheConfig::widx);
    cfg.hash_latency = workload.hash_latency;
    cfg = cfg.with_params(vec![bucket_base, NODE_BYTES, mask]);
    let mut xc = XCache::new(cfg, program, dram).map_err(|e| e.to_string())?;

    let mut now = Cycle(0);
    let mut next = 0usize;
    let mut done = 0usize;
    let mut checksum = 0u64;
    let total = workload.probes.len();
    let mut answered = Answered::new(total);
    let max_cycles = 2_000 * total as u64 + 1_000_000;
    while done < total {
        // Issue as many probes as the access queue accepts this cycle.
        while next < total && xc.can_accept() {
            let access = MetaAccess::Load {
                id: next as u64,
                key: MetaKey::new(workload.probes[next]),
            };
            xc.try_access(now, access).expect("can_accept checked");
            next += 1;
        }
        xc.tick(now);
        while let Some(resp) = xc.take_response(now) {
            answered.record(resp.id, next)?;
            if resp.found {
                // Node layout: [key, rid, next, pad].
                checksum = checksum.wrapping_add(resp.data[1]);
            }
            xc.recycle(resp);
            done += 1;
        }
        // Done (preserve the single-stepped end cycle) or more probes
        // issuable next cycle: advance by one without querying the
        // comparatively expensive component next-event fold.
        now = if done >= total || (next < total && xc.can_accept()) {
            now.next()
        } else {
            xcache_sim::fast_forward(now, xc.next_event(now))
        };
        if now.raw() >= max_cycles {
            return Err(format!(
                "widx x-cache run exceeded {max_cycles} cycles with {done}/{total} probes answered"
            ));
        }
    }
    let mut stats = xc.stats().clone();
    stats.merge(xc.downstream().stats());
    Ok(RunReport {
        label: "xcache".into(),
        cycles: now.raw(),
        stats: stats.snapshot(),
        checksum,
    })
}

/// Runs the sharded X-Cache topology ([`drive_xcache_sharded`]) and checks
/// its checksum against the functional oracle.
///
/// # Panics
///
/// Panics if the drive fails or the checksum diverges from the functional
/// oracle.
#[must_use]
pub fn run_xcache_sharded(
    workload: &WidxWorkload,
    geometry: Option<XCacheConfig>,
    shards: usize,
) -> RunReport {
    let report =
        drive_xcache_sharded(workload, geometry, shards).expect("sharded widx x-cache run failed");
    assert_eq!(
        report.checksum,
        workload.oracle_checksum(),
        "sharded x-cache run diverged from the functional oracle"
    );
    report
}

/// Drives the sharded X-Cache topology without checking the result:
/// `shards` controller + meta-path instances, each owning an
/// address-interleaved slice of the probe key space over its
/// [`BankGroup`](xcache_mem::BankGroup) view of the shared banked DRAM, with the driver routing
/// probes over fixed-latency crossbar links. Execution is
/// horizon-synchronized ([`run_horizons`]) and byte-deterministic across
/// `XCACHE_PAR=seq|par` and any thread count.
///
/// # Errors
///
/// Returns `Err` when a shard cannot be built, a probe is answered twice
/// or was never issued, or the run exceeds its cycle bound.
pub fn drive_xcache_sharded(
    workload: &WidxWorkload,
    geometry: Option<XCacheConfig>,
    shards: usize,
) -> Result<RunReport, String> {
    let shards = shards.max(1);
    let (mem, bucket_base, mask) = memory_image(workload);
    let base = geometry.unwrap_or_else(XCacheConfig::widx);
    let mut cells = shard_cells(&base, shards, &mem, walker, |mut cfg| {
        cfg.hash_latency = workload.hash_latency;
        cfg.with_params(vec![bucket_base, NODE_BYTES, mask])
    })?;

    // Route every probe to its owner shard up front; the crossbar's
    // 1-message-per-cycle lanes pace actual delivery, so issue order per
    // shard is exactly the probe-stream order restricted to its keys.
    for (i, &key) in workload.probes.iter().enumerate() {
        let owner = owner_of(MetaKey::new(key), shards);
        cells[owner].send(
            Cycle::ZERO,
            MetaAccess::Load {
                id: i as u64,
                key: MetaKey::new(key),
            },
        );
    }

    let total = workload.probes.len();
    let max_cycles = 2_000 * total as u64 + 1_000_000;
    let mut answered = Answered::new(total);
    let mut done = 0usize;
    let mut checksum = 0u64;
    let mut end = Cycle::ZERO;
    let mut err = None;
    let cells = run_horizons(cells, Cycle::ZERO, |cells, t| {
        for cell in cells {
            let mut cell = cell.lock().expect("shard cell poisoned");
            while let Some((at, resp)) = cell.recv_response(t) {
                if let Err(e) = answered.record(resp.id, total) {
                    err = Some(e);
                    return None;
                }
                if resp.found {
                    // Node layout: [key, rid, next, pad].
                    checksum = checksum.wrapping_add(resp.data[1]);
                }
                // End of run is the last crossbar arrival, not the
                // boundary that happened to drain it — cadence-independent.
                end = end.max(at);
                done += 1;
            }
        }
        if done >= total {
            return None;
        }
        if t.raw() >= max_cycles {
            err = Some(format!(
                "sharded widx run exceeded {max_cycles} cycles with {done}/{total} probes answered"
            ));
            return None;
        }
        Some(horizon_target(cells, t, DEFAULT_HORIZON))
    });
    if let Some(e) = err {
        return Err(e);
    }
    Ok(RunReport {
        label: format!("xcache-sharded{shards}"),
        cycles: end.raw(),
        stats: shard_stats(&cells).snapshot(),
        checksum,
    })
}

/// One probe through hash + bucket + chain, for the address-based
/// configurations. Peek-then-commit per the [`ProbeTask`] contract.
struct WidxProbe {
    key: u64,
    bucket_base: u64,
    mask: u64,
    hash_latency: u64,
    /// Extra per-node delay (DASX models hash-coupled walking with this).
    per_node_delay: u64,
    state: ProbeState,
}

enum ProbeState {
    Hash,
    LoadBucket,
    LoadNode(u64),  // address, kept so port back-pressure can re-issue
    DelayThen(u64), // node address to fetch after the coupled delay
}

impl ProbeTask for WidxProbe {
    fn advance(&mut self, last: Option<&[u8]>) -> TaskStep {
        match self.state {
            ProbeState::Hash => {
                self.state = ProbeState::LoadBucket;
                TaskStep::Delay(self.hash_latency)
            }
            ProbeState::LoadBucket => match last {
                None => TaskStep::Read {
                    addr: self.bucket_base
                        + (xcache_workloads::hashidx::hash64(self.key) & self.mask) * 8,
                    len: 8,
                },
                Some(d) => {
                    let head = u64::from_le_bytes(d[..8].try_into().expect("ptr"));
                    if head == 0 {
                        return TaskStep::Done(0);
                    }
                    if self.per_node_delay > 0 {
                        self.state = ProbeState::DelayThen(head);
                        return TaskStep::Delay(self.per_node_delay);
                    }
                    self.state = ProbeState::LoadNode(head);
                    TaskStep::Read {
                        addr: head,
                        len: NODE_BYTES as u32,
                    }
                }
            },
            ProbeState::DelayThen(addr) => {
                self.state = ProbeState::LoadNode(addr);
                TaskStep::Read {
                    addr,
                    len: NODE_BYTES as u32,
                }
            }
            ProbeState::LoadNode(addr) => match last {
                // Re-entry after port back-pressure: re-issue the read.
                None => TaskStep::Read {
                    addr,
                    len: NODE_BYTES as u32,
                },
                Some(d) => {
                    let k = u64::from_le_bytes(d[0..8].try_into().expect("key"));
                    let rid = u64::from_le_bytes(d[8..16].try_into().expect("rid"));
                    let nxt = u64::from_le_bytes(d[16..24].try_into().expect("next"));
                    if k == self.key {
                        return TaskStep::Done(rid);
                    }
                    if nxt == 0 {
                        return TaskStep::Done(0);
                    }
                    if self.per_node_delay > 0 {
                        self.state = ProbeState::DelayThen(nxt);
                        return TaskStep::Delay(self.per_node_delay);
                    }
                    self.state = ProbeState::LoadNode(nxt);
                    TaskStep::Read {
                        addr: nxt,
                        len: NODE_BYTES as u32,
                    }
                }
            },
        }
    }
}

fn make_probes(
    workload: &WidxWorkload,
    bucket_base: u64,
    mask: u64,
    per_node_delay: u64,
) -> Vec<WidxProbe> {
    workload
        .probes
        .iter()
        .map(|&key| WidxProbe {
            key,
            bucket_base,
            mask,
            hash_latency: workload.hash_latency,
            per_node_delay,
            state: ProbeState::Hash,
        })
        .collect()
}

/// Derives an address cache of the *same data capacity* as an X-Cache
/// geometry (the paper keeps geometries identical across configurations,
/// §7.2), using 64-byte blocks.
#[must_use]
pub fn matched_address_cache_config(geometry: &XCacheConfig) -> CacheConfig {
    let capacity = geometry.data_capacity_bytes().max(1024);
    let ways = geometry.ways.max(1);
    let sets = ((capacity / (64 * ways as u64)).max(1) as usize).next_power_of_two();
    CacheConfig {
        sets,
        ways,
        block_bytes: 64,
        hit_latency: geometry.hit_latency,
        mshrs: geometry.active.max(4),
        policy: xcache_mem::ReplacementPolicy::Lru,
        ports: 1,
        prefetch_next: false,
    }
}

/// Shared probe-engine runner: `parallelism` ideal walk units over an
/// address cache configured by `cache_cfg`. The DASX model passes a
/// nonzero `per_node_delay` for its hash-coupled walking.
pub(crate) fn run_probe_engine_with(
    workload: &WidxWorkload,
    label: &str,
    cache_cfg: CacheConfig,
    parallelism: usize,
    per_node_delay: u64,
) -> RunReport {
    let (mem, bucket_base, mask) = memory_image(workload);
    let dram = DramModel::with_memory(DramConfig::default(), mem);
    let cache = AddressCache::new(cache_cfg, dram).expect("address-cache config is valid");
    let tasks = make_probes(workload, bucket_base, mask, per_node_delay);
    let total = tasks.len() as u64;
    let mut engine = crate::common::ProbeEngine::new(cache, tasks, parallelism);
    let (cycles, checksum) = engine.run(5_000 * total + 1_000_000);
    assert_eq!(
        checksum,
        workload.oracle_checksum(),
        "{label} run diverged from the functional oracle"
    );
    let mut stats = Stats::new();
    stats.merge(engine.stats());
    stats.merge(engine.port().stats());
    stats.merge(engine.port().downstream().stats());
    RunReport {
        label: label.into(),
        cycles,
        stats: stats.snapshot(),
        checksum,
    }
}

/// [`run_address_cache`] with an explicit cache configuration (the
/// replacement-policy ablation).
#[must_use]
pub fn run_address_cache_with_policy(
    workload: &WidxWorkload,
    geometry: &XCacheConfig,
    cache_cfg: CacheConfig,
) -> RunReport {
    run_probe_engine_with(workload, "addr-cache", cache_cfg, geometry.active, 0)
}

/// Runs the address-based cache with an ideal walker (§8.1): the same
/// memory-level parallelism as the X-Cache's `#Active`, zero decision
/// cost, but every probe hashes and walks. `geometry` (default Table 3)
/// sizes the cache to the same capacity as the X-Cache it is compared to.
#[must_use]
pub fn run_address_cache(workload: &WidxWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let g = geometry.unwrap_or_else(XCacheConfig::widx);
    run_probe_engine_with(
        workload,
        "addr-cache",
        matched_address_cache_config(&g),
        g.active,
        0,
    )
}

/// Runs the hardwired Widx baseline: eight dedicated walker units (the
/// original design scales to a handful of walkers per core) over its
/// same-capacity address cache.
#[must_use]
pub fn run_baseline(workload: &WidxWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let g = geometry.unwrap_or_else(XCacheConfig::widx);
    run_probe_engine_with(workload, "baseline", matched_address_cache_config(&g), 8, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcache_isa::verify::verify_structure;
    use xcache_workloads::QueryClass;

    /// Index ~4x the cache capacity, Zipf-skewed probes, and enough
    /// probes that compulsory misses amortise — the paper's regime
    /// (dataset >> on-chip storage, long-running join).
    fn small_workload(hash_latency: u64) -> WidxWorkload {
        let mut preset = QueryClass::Q19.preset().scaled_down(10);
        preset.hash_latency = hash_latency;
        preset.probes = 9_000;
        preset.miss_rate = 0.05;
        WidxWorkload::from_preset(&preset, 7)
    }

    fn small_geometry() -> XCacheConfig {
        XCacheConfig {
            sets: 128,
            ways: 4,
            data_sectors: 512,
            ..XCacheConfig::widx()
        }
    }

    #[test]
    fn xcache_run_matches_oracle() {
        let w = small_workload(12);
        let r = run_xcache(&w, Some(small_geometry()));
        assert_eq!(r.checksum, w.oracle_checksum());
        assert!(r.cycles > 0);
        assert!(
            r.stats.get("xcache.hit") > 0,
            "zipf stream must produce hits"
        );
    }

    #[test]
    fn sharded_run_matches_oracle_and_modes_agree() {
        use xcache_sim::{with_par_mode, with_par_threads, ParMode};
        let w = small_workload(12);
        let fingerprint = |r: &RunReport| (r.cycles, r.checksum, r.stats.clone());
        let seq = with_par_mode(ParMode::Seq, || {
            run_xcache_sharded(&w, Some(small_geometry()), 4)
        });
        assert!(seq.cycles > 0);
        assert!(
            seq.stats.get("xcache.hit") > 0,
            "zipf stream must produce hits"
        );
        assert!(
            seq.stats.get("bank.remote") > 0,
            "interleaved banks must see remote traffic"
        );
        for threads in [1usize, 2, 4] {
            let par = with_par_mode(ParMode::Par, || {
                with_par_threads(threads, || {
                    run_xcache_sharded(&w, Some(small_geometry()), 4)
                })
            });
            assert_eq!(
                fingerprint(&par),
                fingerprint(&seq),
                "par x{threads} diverged from seq"
            );
        }
    }

    #[test]
    fn address_cache_and_baseline_match_oracle() {
        let w = small_workload(12);
        let a = run_address_cache(&w, Some(small_geometry()));
        let b = run_baseline(&w, Some(small_geometry()));
        assert_eq!(a.checksum, w.oracle_checksum());
        assert_eq!(b.checksum, w.oracle_checksum());
    }

    #[test]
    fn xcache_beats_address_cache() {
        let w = small_workload(60);
        let x = run_xcache(&w, Some(small_geometry()));
        let a = run_address_cache(&w, Some(small_geometry()));
        let speedup = x.speedup_over(&a);
        assert!(
            speedup > 1.2,
            "x-cache should clearly beat the address cache (got {speedup:.2}x)"
        );
    }

    #[test]
    fn xcache_makes_fewer_dram_accesses() {
        let w = small_workload(12);
        let x = run_xcache(&w, Some(small_geometry()));
        let a = run_address_cache(&w, Some(small_geometry()));
        assert!(
            x.dram_accesses() < a.dram_accesses(),
            "meta-tags must cut DRAM traffic ({} vs {})",
            x.dram_accesses(),
            a.dram_accesses()
        );
    }

    #[test]
    fn string_keys_amplify_xcache_gain() {
        let cheap = small_workload(6);
        let expensive = small_workload(60);
        let g_cheap = run_xcache(&cheap, Some(small_geometry()))
            .speedup_over(&run_baseline(&cheap, Some(small_geometry())));
        let g_exp = run_xcache(&expensive, Some(small_geometry()))
            .speedup_over(&run_baseline(&expensive, Some(small_geometry())));
        assert!(
            g_exp > g_cheap,
            "60-cycle hashes should widen the gap ({g_exp:.2} vs {g_cheap:.2})"
        );
    }

    #[test]
    fn walker_program_is_valid_and_small() {
        let p = walker();
        assert!(verify_structure(&p).check(false).is_ok());
        assert!(p.microcode_words() < 40, "walker should stay compact");
        assert_eq!(p.state_names.len(), 3);
    }
}
