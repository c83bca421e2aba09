//! GraphPulse — event-driven asynchronous graph processing (Rahman et
//! al., MICRO'20), §5/§7.2 of the X-Cache paper.
//!
//! "The event queue is substituted by the X-Cache. The incoming events are
//! generated by the PEs. These events hold an id and a payload. The id
//! probes the meta-tag memory. If the id does not exist, we insert the
//! event by putting the payload in the data memory. Otherwise, we merge
//! the payload of the incoming event and the existing entry using an add
//! operation."
//!
//! The workload is PageRank. Ranks are `Q32.32` fixed-point so the
//! walker's integer `add` implements the merge exactly; the accumulated
//! result is checked against the functional [`Graph::pagerank`] oracle.
//!
//! Configurations:
//!
//! * [`run_xcache`] — events coalesce in the X-Cache (insert-or-merge
//!   walker, pinned entries, drained with `Take` accesses).
//! * [`run_address_cache`] — the event array lives in DRAM behind an
//!   address cache: every event is a read-modify-write of
//!   `event_base + vertex × 8`.
//! * [`run_baseline`] — GraphPulse's hardwired coalescing queue: a
//!   dedicated on-chip structure with fixed per-event occupancy and no
//!   programmability tax.

use std::collections::{HashSet, VecDeque};

use bytes::Bytes;

use xcache_core::{
    horizon_target, owner_of, shard_geometry, MetaAccess, MetaKey, MetaResp, ShardCell, XCache,
    XCacheConfig, DEFAULT_HORIZON,
};
use xcache_isa::asm::assemble;
use xcache_isa::WalkerProgram;
use xcache_mem::{AddressCache, BankGroup, DramConfig, DramModel, MainMemory, MemReq, MemoryPort};
use xcache_sim::{run_horizons, Cycle, Stats};
use xcache_workloads::{Graph, GraphPreset};

use crate::common::{shard_cells, shard_stats, RunReport};
use crate::widx::matched_address_cache_config;

/// Fixed-point scale for rank payloads (`Q32.32`).
const FIXED_ONE: f64 = 4_294_967_296.0;

/// PageRank damping factor.
const DAMPING: f64 = 0.85;

/// A GraphPulse workload: a graph and an iteration count.
#[derive(Debug, Clone)]
pub struct GraphPulseWorkload {
    /// The input graph.
    pub graph: Graph,
    /// Damped PageRank iterations (paper: PageRank on SNAP graphs).
    pub iterations: usize,
}

impl GraphPulseWorkload {
    /// Builds the paper's workload for a preset graph.
    #[must_use]
    pub fn new(preset: GraphPreset, iterations: usize, seed: u64) -> Self {
        GraphPulseWorkload {
            graph: Graph::generate(preset, seed),
            iterations,
        }
    }

    /// The functional oracle: reference PageRank.
    #[must_use]
    pub fn oracle(&self) -> Vec<f64> {
        self.graph.pagerank(self.iterations, DAMPING)
    }

    /// The X-Cache drives' bound on requeued inserts (see [`requeue`]).
    fn max_requeues(&self) -> u64 {
        1_000 + 100 * self.graph.edges() as u64 * self.iterations as u64
    }
}

/// The insert-or-merge walker (`walkers/graphpulse.xw`; runs on `Store`;
/// loads are never issued, so the `Miss` handler faults).
#[must_use]
pub fn walker() -> WalkerProgram {
    assemble(include_str!("../../../walkers/graphpulse.xw"))
        .expect("graphpulse walker is well-formed")
}

/// The PageRank state every variant iterates: the current ranks.
struct RankState {
    rank: Vec<f64>,
    n: usize,
}

impl RankState {
    fn new(n: usize) -> Self {
        RankState {
            rank: vec![1.0 / n as f64; n],
            n,
        }
    }

    fn base(&self) -> f64 {
        (1.0 - DAMPING) / self.n as f64
    }

    /// Calls `emit(dst, delta)` for every edge of `g` in source order: each
    /// vertex sends its damped rank, split evenly over its out-edges, as a
    /// `Q32.32` delta.
    fn emit_events(&self, g: &Graph, mut emit: impl FnMut(u32, u64)) {
        for src in 0..g.vertices() {
            let deg = g.out_degree(src);
            if deg == 0 {
                continue;
            }
            let delta = DAMPING * self.rank[src as usize] / deg as f64;
            let fixed = (delta * FIXED_ONE) as u64;
            for &dst in g.neighbors(src) {
                emit(dst, fixed);
            }
        }
    }
}

fn rank_close(actual: &[f64], oracle: &[f64]) -> bool {
    actual.iter().zip(oracle).all(|(a, o)| (a - o).abs() < 1e-4)
}

fn checksum(rank: &[f64]) -> u64 {
    rank.iter()
        .fold(0u64, |acc, r| acc.wrapping_add((r * FIXED_ONE) as u64))
}

/// Pops the longest prefix of `events` that touches at most `max_keys`
/// distinct vertices and returns it with those vertices in ascending
/// order. Bounding the live event keys to half the tag capacity keeps an
/// insert from livelocking on a full pinned set (the paper's binning plays
/// the same role).
fn next_batch(events: &mut VecDeque<(u32, u64)>, max_keys: usize) -> (Vec<(u32, u64)>, Vec<u32>) {
    let mut live: HashSet<u32> = HashSet::new();
    let mut batch = Vec::new();
    while let Some(&(dst, _)) = events.front() {
        if !live.contains(&dst) && live.len() >= max_keys {
            break;
        }
        live.insert(dst);
        batch.push(events.pop_front().expect("front exists"));
    }
    let mut keys: Vec<u32> = live.into_iter().collect();
    keys.sort_unstable();
    (batch, keys)
}

/// Counts one rejected insert the PE requeues. A pathological fault plan
/// could bounce the same event forever, so past `max` requeues this is a
/// livelock `Err`; healthy runs, including the paper's pinned-set-full
/// overflow, never come near it.
fn requeue(requeues: &mut u64, max: u64) -> Result<(), String> {
    *requeues += 1;
    if *requeues > max {
        return Err(format!(
            "graphpulse insert-reject requeue livelocked after {max} requeues"
        ));
    }
    Ok(())
}

/// One issue-tick-drain phase on a single controller: issues `access(i)`
/// for `i` in `0..len` in order as the controller accepts them, ticks
/// until every access is answered, and hands each response to `on_resp`.
///
/// Returns `Err` from `on_resp`, or when the phase runs `bound` cycles.
fn run_phase(
    xc: &mut XCache<DramModel>,
    now: &mut Cycle,
    len: usize,
    access: impl Fn(usize) -> MetaAccess,
    mut on_resp: impl FnMut(&MetaResp) -> Result<(), String>,
    bound: u64,
    phase: &str,
) -> Result<(), String> {
    let mut issued = 0usize;
    let mut outstanding = 0usize;
    let started = *now;
    while issued < len || outstanding > 0 {
        while issued < len && xc.can_accept() {
            xc.try_access(*now, access(issued))
                .expect("can_accept checked");
            issued += 1;
            outstanding += 1;
        }
        xc.tick(*now);
        while let Some(resp) = xc.take_response(*now) {
            outstanding -= 1;
            on_resp(&resp)?;
            xc.recycle(resp);
        }
        *now = if issued >= len && outstanding == 0 {
            now.next() // same end-cycle as the single-stepped loop
        } else {
            let mut wake = xc.next_event(*now);
            if issued < len && xc.can_accept() {
                wake = Some(now.next());
            }
            xcache_sim::fast_forward(*now, wake)
        };
        if now.since(started) >= bound {
            return Err(format!("{phase} phase exceeded {bound} cycles"));
        }
    }
    Ok(())
}

/// A single-controller instance of `program` over an empty DRAM.
fn instance(cfg: XCacheConfig, program: WalkerProgram) -> Result<XCache<DramModel>, String> {
    XCache::new(cfg, program, DramModel::new(DramConfig::default())).map_err(|e| e.to_string())
}

/// Runs the X-Cache configuration (Table 3 GraphPulse geometry by
/// default: direct-mapped, 131072 sets, 8-word sectors).
///
/// # Panics
///
/// Panics if [`drive_xcache`] fails or its ranks diverge from the
/// PageRank oracle.
#[must_use]
pub fn run_xcache(workload: &GraphPulseWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let (report, ranks) = drive_xcache(workload, geometry).expect("graphpulse x-cache run failed");
    assert!(
        rank_close(&ranks, &workload.oracle()),
        "x-cache PageRank diverged from the oracle"
    );
    report
}

/// Drives the single-controller X-Cache topology and returns the report
/// with the final ranks, unchecked: each round, PageRank events coalesce
/// in the cache in key-bounded batches, each stored and then drained with
/// `Take` accesses. Under an armed fault plan a watchdog-killed upsert
/// loses its on-chip-only events, so ranks legitimately drift; the chaos
/// harness calls this and leaves the oracle out.
///
/// # Errors
///
/// Returns `Err` when the controller cannot be built, a store or drain
/// phase exceeds its cycle bound, or the insert-reject requeue path stops
/// making progress.
pub fn drive_xcache(
    workload: &GraphPulseWorkload,
    geometry: Option<XCacheConfig>,
) -> Result<(RunReport, Vec<f64>), String> {
    let cfg = geometry.unwrap_or_else(XCacheConfig::graphpulse);
    let batch_keys = (cfg.meta_entries() / 2).max(8);
    let mut xc = instance(cfg, walker())?;

    let g = &workload.graph;
    let n = g.vertices() as usize;
    let mut state = RankState::new(n);
    let mut now = Cycle(0);
    let max_cycles_per_round = 4_000u64 * g.edges() as u64 + 1_000_000;
    let max_requeues = workload.max_requeues();
    let mut requeues = 0u64;

    for _round in 0..workload.iterations {
        let mut next = vec![state.base(); n];
        let mut remaining = VecDeque::new();
        state.emit_events(g, |dst, fixed| remaining.push_back((dst, fixed)));
        while !remaining.is_empty() {
            let (batch, keys) = next_batch(&mut remaining, batch_keys);
            // Issue the batch's stores; a `found: false` ack means the
            // insert was rejected (set of pinned events full) — the PE
            // requeues it for after the drain, GraphPulse's overflow path.
            run_phase(
                &mut xc,
                &mut now,
                batch.len(),
                |i| MetaAccess::Store {
                    id: i as u64,
                    key: MetaKey::new(u64::from(batch[i].0)),
                    payload: [batch[i].1, 0],
                },
                |resp| {
                    if !resp.found {
                        requeue(&mut requeues, max_requeues)?;
                        remaining.push_back(batch[resp.id as usize]);
                    }
                    Ok(())
                },
                max_cycles_per_round,
                "graphpulse store",
            )?;
            // Drain the batch's coalesced events.
            run_phase(
                &mut xc,
                &mut now,
                keys.len(),
                |i| MetaAccess::Take {
                    id: u64::from(keys[i]),
                    key: MetaKey::new(u64::from(keys[i])),
                },
                |resp| {
                    if resp.found && !resp.data.is_empty() {
                        next[resp.key.raw() as usize] += resp.data[0] as f64 / FIXED_ONE;
                    }
                    Ok(())
                },
                max_cycles_per_round,
                "graphpulse drain",
            )?;
        }
        state.rank = next;
    }

    let mut stats = xc.stats().clone();
    stats.merge(xc.downstream().stats());
    let report = RunReport {
        label: "xcache".into(),
        cycles: now.raw(),
        stats: stats.snapshot(),
        checksum: checksum(&state.rank),
    };
    Ok((report, state.rank))
}

/// Runs the sharded X-Cache topology ([`drive_xcache_sharded`]) and checks
/// its ranks against the PageRank oracle.
///
/// # Panics
///
/// Panics if the drive fails or its ranks diverge from the PageRank
/// oracle.
#[must_use]
pub fn run_xcache_sharded(
    workload: &GraphPulseWorkload,
    geometry: Option<XCacheConfig>,
    shards: usize,
) -> RunReport {
    let (report, ranks) = drive_xcache_sharded(workload, geometry, shards)
        .expect("sharded graphpulse x-cache run failed");
    assert!(
        rank_close(&ranks, &workload.oracle()),
        "sharded x-cache PageRank diverged from the oracle"
    );
    report
}

/// Drives the sharded X-Cache topology and returns the report with the
/// final ranks, unchecked: the vertex space is interleaved by
/// [`owner_of`] across `shards` event-queue instances, each coalescing its
/// own events on-chip; the PEs route events over crossbar links. Shards
/// run their store/drain batch cycles independently and meet only at the
/// per-iteration rank barrier.
///
/// # Errors
///
/// Returns `Err` when a shard cannot be built or answers while idle, the
/// run exceeds its cycle bound, or the insert-reject requeue path stops
/// making progress.
pub fn drive_xcache_sharded(
    workload: &GraphPulseWorkload,
    geometry: Option<XCacheConfig>,
    shards: usize,
) -> Result<(RunReport, Vec<f64>), String> {
    let shards = shards.max(1);
    let base = geometry.unwrap_or_else(XCacheConfig::graphpulse);
    let mut cells = shard_cells(&base, shards, &MainMemory::new(), walker, |cfg| cfg)?;
    let batch_keys = (shard_geometry(&base, shards).meta_entries() / 2).max(8);

    let g = &workload.graph;
    let n = g.vertices() as usize;
    let mut state = RankState::new(n);
    let max_requeues = workload.max_requeues();
    let max_cycles = (4_000u64 * g.edges() as u64 + 1_000_000) * workload.iterations.max(1) as u64;
    let mut requeues = 0u64;

    // One shard's batch cycle: issue the batch's stores, wait for the
    // acks, drain the batch's keys, start the next batch.
    enum Phase {
        StoreWait,
        DrainWait,
        Idle,
    }
    struct Drive {
        remaining: VecDeque<(u32, u64)>,
        queue: Vec<(u32, u64)>,
        keys: Vec<u32>,
        outstanding: usize,
        phase: Phase,
    }
    let mut drives: Vec<Drive> = (0..shards)
        .map(|_| Drive {
            remaining: VecDeque::new(),
            queue: Vec::new(),
            keys: Vec::new(),
            outstanding: 0,
            phase: Phase::Idle,
        })
        .collect();

    // Builds a shard's next key-bounded batch and sends its stores.
    let start_batch = |d: &mut Drive, cell: &mut ShardCell<BankGroup>, t: Cycle| {
        (d.queue, d.keys) = next_batch(&mut d.remaining, batch_keys);
        for (qi, &(dst, fixed)) in d.queue.iter().enumerate() {
            cell.send(
                t,
                MetaAccess::Store {
                    id: qi as u64,
                    key: MetaKey::new(u64::from(dst)),
                    payload: [fixed, 0],
                },
            );
        }
        d.outstanding = d.queue.len();
        d.phase = Phase::StoreWait;
    };
    // Routes a round's events to their owner shards.
    let emit_events = |state: &RankState, drives: &mut [Drive]| {
        state.emit_events(g, |dst, fixed| {
            let owner = owner_of(MetaKey::new(u64::from(dst)), shards);
            drives[owner].remaining.push_back((dst, fixed));
        });
    };

    let mut round = 0usize;
    let mut next = vec![state.base(); n];
    let mut end = Cycle::ZERO;
    let mut err: Option<String> = None;
    if workload.iterations > 0 {
        emit_events(&state, &mut drives);
        for (s, d) in drives.iter_mut().enumerate() {
            if !d.remaining.is_empty() {
                start_batch(d, &mut cells[s], Cycle::ZERO);
            }
        }
    }
    let cells = run_horizons(cells, Cycle::ZERO, |cells, t| {
        let mut all_idle = true;
        for (s, d) in drives.iter_mut().enumerate() {
            let mut cell = cells[s].lock().expect("shard cell poisoned");
            while let Some((at, resp)) = cell.recv_response(t) {
                d.outstanding -= 1;
                end = end.max(at);
                match d.phase {
                    Phase::StoreWait => {
                        if !resp.found {
                            // Insert rejected (pinned set full): requeue
                            // for after the drain — GraphPulse's overflow
                            // path.
                            if let Err(e) = requeue(&mut requeues, max_requeues) {
                                err = Some(e);
                            }
                            d.remaining.push_back(d.queue[resp.id as usize]);
                        }
                    }
                    Phase::DrainWait => {
                        if resp.found && !resp.data.is_empty() {
                            next[resp.key.raw() as usize] += resp.data[0] as f64 / FIXED_ONE;
                        }
                    }
                    Phase::Idle => {
                        err = Some(format!(
                            "idle shard {s} received a response for request {}",
                            resp.id
                        ));
                    }
                }
            }
            if err.is_some() {
                return None;
            }
            if d.outstanding == 0 {
                match d.phase {
                    Phase::StoreWait => {
                        // All acks in: drain the batch's coalesced events.
                        for &key in &d.keys {
                            cell.send(
                                t,
                                MetaAccess::Take {
                                    id: u64::from(key),
                                    key: MetaKey::new(u64::from(key)),
                                },
                            );
                        }
                        d.outstanding = d.keys.len();
                        d.phase = Phase::DrainWait;
                    }
                    Phase::DrainWait | Phase::Idle => {
                        if d.remaining.is_empty() {
                            d.phase = Phase::Idle;
                        } else {
                            start_batch(d, &mut cell, t);
                        }
                    }
                }
            }
            if !matches!(d.phase, Phase::Idle) || d.outstanding > 0 {
                all_idle = false;
            }
        }
        if all_idle {
            if workload.iterations == 0 {
                return None;
            }
            // Per-iteration rank barrier: every shard finished its slice.
            state.rank = std::mem::take(&mut next);
            round += 1;
            if round >= workload.iterations {
                return None;
            }
            next = vec![state.base(); n];
            emit_events(&state, &mut drives);
            for (s, d) in drives.iter_mut().enumerate() {
                if !d.remaining.is_empty() {
                    let mut cell = cells[s].lock().expect("shard cell poisoned");
                    start_batch(d, &mut cell, t);
                }
            }
        }
        if t.raw() >= max_cycles {
            err = Some(format!(
                "sharded graphpulse run exceeded {max_cycles} cycles in round {round}"
            ));
            return None;
        }
        Some(horizon_target(cells, t, DEFAULT_HORIZON))
    });
    if let Some(e) = err {
        return Err(e);
    }
    let report = RunReport {
        label: format!("xcache-sharded{shards}"),
        cycles: end.raw(),
        stats: shard_stats(&cells).snapshot(),
        checksum: checksum(&state.rank),
    };
    Ok((report, state.rank))
}

/// Runs the address-cache configuration: the event accumulator array is
/// DRAM-resident (`event_base + vertex × 8`) behind a same-capacity
/// address cache; every event is a read-modify-write, every drain a
/// read + reset.
///
/// # Panics
///
/// Panics on deadlock or divergence from the PageRank oracle.
#[must_use]
pub fn run_address_cache(
    workload: &GraphPulseWorkload,
    geometry: Option<XCacheConfig>,
) -> RunReport {
    let g_cfg = geometry.unwrap_or_else(XCacheConfig::graphpulse);
    let event_base = 0x100_0000u64;
    let dram = DramModel::new(DramConfig::default());
    let mut cache = AddressCache::new(matched_address_cache_config(&g_cfg), dram)
        .expect("matched address-cache config is valid");

    let g = &workload.graph;
    let n = g.vertices() as usize;
    let mut state = RankState::new(n);
    let mut now = Cycle(0);
    let mut next_id = 0u64;
    let max_cycles_per_round = 4_000u64 * g.edges() as u64 + 1_000_000;

    // Serialised read-modify-write per event with a small number of
    // in-flight RMWs (the PEs' ports), mirroring an ideal zero-cost
    // orchestrator: 4 concurrent RMW units.
    const UNITS: usize = 4;

    for _round in 0..workload.iterations {
        let mut next = vec![state.base(); n];
        // Emit all events: RMW accumulate into the DRAM array.
        let mut events: Vec<(u32, u64)> = Vec::new();
        state.emit_events(g, |dst, fixed| events.push((dst, fixed)));
        let mut touched: HashSet<u32> = HashSet::new();
        // Drive UNITS concurrent RMW state machines.
        let mut idx = 0usize;
        // (dst, delta, pending read id, write issued)
        type RmwUnit = (u32, u64, Option<u64>, bool);
        let mut units: Vec<Option<RmwUnit>> = vec![None; UNITS];
        let mut done_events = 0usize;
        let started = now;
        let mut busy_keys: HashSet<u32> = HashSet::new();
        while done_events < events.len() {
            for unit in &mut units {
                if unit.is_none() && idx < events.len() {
                    let (dst, delta) = events[idx];
                    // Per-key ordering: don't start a second RMW on a key
                    // already in flight.
                    if busy_keys.contains(&dst) {
                        continue;
                    }
                    idx += 1;
                    busy_keys.insert(dst);
                    touched.insert(dst);
                    *unit = Some((dst, delta, None, false));
                }
            }
            cache.tick(now);
            // Issue reads / writes for units.
            for unit in &mut units {
                let Some((dst, delta, pending, write_issued)) = unit.as_mut() else {
                    continue;
                };
                if pending.is_none() && !*write_issued && cache.can_accept() {
                    let id = next_id;
                    let addr = event_base + u64::from(*dst) * 8;
                    cache
                        .try_request(now, MemReq::read(id, addr, 8))
                        .expect("can_accept checked");
                    next_id += 1;
                    *pending = Some(id);
                }
                let _ = delta;
            }
            while let Some(resp) = cache.take_response(now) {
                if resp.data.is_empty() && resp.id.0 & (1 << 40) != 0 {
                    // Write ack: retire the unit.
                    let key = (resp.id.0 & 0xffff_ffff) as u32;
                    for unit in &mut units {
                        if unit.as_ref().is_some_and(|(d, _, _, w)| *d == key && *w) {
                            *unit = None;
                            busy_keys.remove(&key);
                            done_events += 1;
                            break;
                        }
                    }
                    continue;
                }
                // Read response: issue the write-back with the merged value.
                for unit in &mut units {
                    let Some((dst, delta, pending, write_issued)) = unit.as_mut() else {
                        continue;
                    };
                    if *pending == Some(resp.id.0) {
                        let old = u64::from_le_bytes(resp.data[..8].try_into().expect("8B"));
                        let new = old.wrapping_add(*delta);
                        let addr = event_base + u64::from(*dst) * 8;
                        let wid = (1 << 40) | u64::from(*dst);
                        // Retry until the write is accepted.
                        let mut w =
                            MemReq::write(wid, addr, Bytes::copy_from_slice(&new.to_le_bytes()));
                        loop {
                            match cache.try_request(now, w) {
                                Ok(()) => break,
                                Err(back) => {
                                    w = back;
                                    cache.tick(now);
                                }
                            }
                        }
                        *pending = None;
                        *write_issued = true;
                        break;
                    }
                }
            }
            now = if done_events >= events.len() {
                now.next() // same end-cycle as the single-stepped loop
            } else {
                let mut wake = cache.next_event(now);
                let refill_possible = idx < events.len() && units.iter().any(Option::is_none);
                let wants_read = units
                    .iter()
                    .flatten()
                    .any(|(_, _, p, w)| p.is_none() && !*w);
                if refill_possible || wants_read {
                    wake = Some(now.next());
                }
                xcache_sim::fast_forward(now, wake)
            };
            assert!(
                now.since(started) < max_cycles_per_round,
                "addr-cache event phase deadlocked"
            );
        }
        // Drain: read + zero each touched slot (through the cache).
        let mut keys: Vec<u32> = touched.into_iter().collect();
        keys.sort_unstable();
        for chunk in keys.chunks(UNITS) {
            let mut got = 0usize;
            let mut issued = 0usize;
            let started = now;
            while got < chunk.len() {
                while issued < chunk.len() && cache.can_accept() {
                    let dst = chunk[issued];
                    let id = (2 << 41) | u64::from(dst);
                    let addr = event_base + u64::from(dst) * 8;
                    cache
                        .try_request(now, MemReq::read(id, addr, 8))
                        .expect("can_accept checked");
                    issued += 1;
                }
                cache.tick(now);
                while let Some(resp) = cache.take_response(now) {
                    if resp.data.is_empty() {
                        continue; // write acks from the zeroing below
                    }
                    let dst = (resp.id.0 & 0xffff_ffff) as u32;
                    let v = u64::from_le_bytes(resp.data[..8].try_into().expect("8B"));
                    next[dst as usize] += v as f64 / FIXED_ONE;
                    // Zero the slot for the next round.
                    let addr = event_base + u64::from(dst) * 8;
                    let wid = (3 << 41) | u64::from(dst);
                    let mut w =
                        MemReq::write(wid, addr, Bytes::copy_from_slice(&0u64.to_le_bytes()));
                    loop {
                        match cache.try_request(now, w) {
                            Ok(()) => break,
                            Err(back) => {
                                w = back;
                                cache.tick(now);
                            }
                        }
                    }
                    got += 1;
                }
                now = if got >= chunk.len() {
                    now.next() // same end-cycle as the single-stepped loop
                } else {
                    let mut wake = cache.next_event(now);
                    if issued < chunk.len() && cache.can_accept() {
                        wake = Some(now.next());
                    }
                    xcache_sim::fast_forward(now, wake)
                };
                assert!(
                    now.since(started) < max_cycles_per_round,
                    "addr-cache drain phase deadlocked"
                );
            }
        }
        // Let the write-backs settle before the next round reads.
        while cache.busy() {
            cache.tick(now);
            let _ = cache.take_response(now);
            now = if cache.busy() {
                xcache_sim::fast_forward(now, cache.next_event(now))
            } else {
                now.next() // same end-cycle as the single-stepped loop
            };
        }
        state.rank = next;
    }

    let oracle = workload.oracle();
    assert!(
        rank_close(&state.rank, &oracle),
        "addr-cache PageRank diverged from the oracle"
    );
    let mut stats = Stats::new();
    stats.merge(cache.stats());
    stats.merge(cache.downstream().stats());
    RunReport {
        label: "addr-cache".into(),
        cycles: now.raw(),
        stats: stats.snapshot(),
        checksum: checksum(&state.rank),
    }
}

/// Runs the hardwired GraphPulse baseline: a dedicated on-chip coalescing
/// queue with `ports` event operations per cycle and no programmability
/// tax. Purely on-chip, so runtime is the port-limited event count.
#[must_use]
pub fn run_baseline(workload: &GraphPulseWorkload, ports: usize) -> RunReport {
    let g = &workload.graph;
    let n = g.vertices() as usize;
    let mut state = RankState::new(n);
    let mut cycles = 0u64;
    let mut ops = 0u64;
    for _ in 0..workload.iterations {
        let mut next = vec![state.base(); n];
        let mut touched: HashSet<u32> = HashSet::new();
        state.emit_events(g, |dst, fixed| {
            // Hardwired coalesce: fixed 1-op cost.
            next[dst as usize] += (fixed as f64) / FIXED_ONE;
            touched.insert(dst);
            ops += 1;
        });
        ops += touched.len() as u64; // drain ops
        state.rank = next;
    }
    cycles += ops.div_ceil(ports.max(1) as u64) + 20; // pipeline fill
    let oracle = workload.oracle();
    assert!(
        rank_close(&state.rank, &oracle),
        "baseline PageRank diverged from the oracle"
    );
    let mut stats = Stats::new();
    stats.add("baseline.event_ops", ops);
    RunReport {
        label: "baseline".into(),
        cycles,
        stats: stats.snapshot(),
        checksum: checksum(&state.rank),
    }
}

/// An alternative coalescing walker (`walkers/graphpulse_min.xw`):
/// **min-merge** instead of add-merge.
/// Used by the event-driven SSSP variant — the merge operator is pure
/// microcode, so changing the algorithm means reprogramming the routine,
/// not the hardware (the paper's reusability claim in one function).
#[must_use]
pub fn min_merge_walker() -> WalkerProgram {
    assemble(include_str!("../../../walkers/graphpulse_min.xw"))
        .expect("min-merge walker is well-formed")
}

/// Unreached vertices' SSSP distance.
const INF: u64 = u64::MAX / 4;

/// Event-driven single-source shortest paths through the X-Cache event
/// queue with the [`min_merge_walker`]: relaxations coalesce on-chip by
/// taking the minimum tentative distance per vertex.
///
/// Edge weights are the adjacency values (small positive integers from
/// the generator). Returns the distance vector, verified against a
/// functional Bellman–Ford oracle.
///
/// # Panics
///
/// Panics if the drive fails or its distances diverge from the oracle.
#[must_use]
pub fn run_sssp_xcache(
    workload: &GraphPulseWorkload,
    source: u32,
    geometry: Option<XCacheConfig>,
) -> (RunReport, Vec<u64>) {
    let (report, dist) =
        drive_sssp_xcache(workload, source, geometry).expect("sssp x-cache run failed");
    assert_eq!(
        dist,
        bellman_ford(&workload.graph, source),
        "sssp diverged from Bellman-Ford"
    );
    (report, dist)
}

fn drive_sssp_xcache(
    workload: &GraphPulseWorkload,
    source: u32,
    geometry: Option<XCacheConfig>,
) -> Result<(RunReport, Vec<u64>), String> {
    let cfg = geometry.unwrap_or_else(XCacheConfig::graphpulse);
    let batch_keys = (cfg.meta_entries() / 2).max(8);
    let mut xc = instance(cfg, min_merge_walker())?;

    let g = &workload.graph;
    let n = g.vertices() as usize;
    let adj = g.adjacency();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    let mut now = Cycle(0);
    let max_cycles_per_wave = 4_000u64 * g.edges() as u64 + 1_000_000;

    // Wave-by-wave relaxation (Bellman-Ford style): vertices improved in
    // the previous wave emit distance events to their neighbours; the
    // cache min-merges them; draining yields the next frontier.
    let mut frontier: Vec<u32> = vec![source];
    let mut waves = 0usize;
    while !frontier.is_empty() {
        waves += 1;
        if waves > n + 1 {
            return Err(format!("sssp still relaxing after {n} waves"));
        }
        let mut events: VecDeque<(u32, u64)> = VecDeque::new();
        for &v in &frontier {
            let (a, b) = adj.row_range(v);
            for i in a..b {
                let u = adj.col_idx[i];
                let w = adj.values[i] as u64;
                events.push_back((u, dist[v as usize] + w));
            }
        }
        let mut improved: Vec<u32> = Vec::new();
        while !events.is_empty() {
            let (batch, keys) = next_batch(&mut events, batch_keys);
            run_phase(
                &mut xc,
                &mut now,
                batch.len(),
                |i| MetaAccess::Store {
                    id: i as u64,
                    key: MetaKey::new(u64::from(batch[i].0)),
                    payload: [batch[i].1, 0],
                },
                |resp| {
                    if !resp.found {
                        events.push_back(batch[resp.id as usize]);
                    }
                    Ok(())
                },
                max_cycles_per_wave,
                "sssp store",
            )?;
            // Drain the coalesced minima.
            run_phase(
                &mut xc,
                &mut now,
                keys.len(),
                |i| MetaAccess::Take {
                    id: u64::from(keys[i]),
                    key: MetaKey::new(u64::from(keys[i])),
                },
                |resp| {
                    if resp.found && !resp.data.is_empty() {
                        let v = resp.key.raw() as usize;
                        if resp.data[0] < dist[v] {
                            dist[v] = resp.data[0];
                            improved.push(v as u32);
                        }
                    }
                    Ok(())
                },
                max_cycles_per_wave,
                "sssp drain",
            )?;
        }
        improved.sort_unstable();
        improved.dedup();
        frontier = improved;
    }

    let mut stats = xc.stats().clone();
    stats.merge(xc.downstream().stats());
    let report = RunReport {
        label: "xcache-sssp".into(),
        cycles: now.raw(),
        stats: stats.snapshot(),
        checksum: dist
            .iter()
            .map(|&d| if d >= INF { 0 } else { d })
            .fold(0u64, u64::wrapping_add),
    };
    Ok((report, dist))
}

/// The SSSP oracle: Bellman-Ford distances from `source` over `g`'s
/// adjacency weights.
fn bellman_ford(g: &Graph, source: u32) -> Vec<u64> {
    let adj = g.adjacency();
    let mut dist = vec![INF; g.vertices() as usize];
    dist[source as usize] = 0;
    loop {
        let mut changed = false;
        for v in 0..g.vertices() {
            if dist[v as usize] >= INF {
                continue;
            }
            let (a, b) = adj.row_range(v);
            for i in a..b {
                let u = adj.col_idx[i] as usize;
                let cand = dist[v as usize] + adj.values[i] as u64;
                if cand < dist[u] {
                    dist[u] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            return dist;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcache_isa::verify::verify_structure;

    fn tiny() -> GraphPulseWorkload {
        GraphPulseWorkload::new(GraphPreset::Tiny, 3, 5)
    }

    fn tiny_geometry() -> XCacheConfig {
        XCacheConfig {
            sets: 256,
            ways: 1,
            active: 8,
            exe: 4,
            words_per_sector: 8,
            data_sectors: 256,
            ..XCacheConfig::graphpulse()
        }
    }

    #[test]
    fn xcache_pagerank_matches_oracle() {
        let w = tiny();
        let r = run_xcache(&w, Some(tiny_geometry()));
        assert!(r.cycles > 0);
        assert!(r.stats.get("xcache.store_hit") > 0, "events must coalesce");
        assert!(r.stats.get("xcache.store_miss") > 0);
    }

    #[test]
    fn sharded_pagerank_matches_oracle_and_modes_agree() {
        use xcache_sim::{with_par_mode, with_par_threads, ParMode};
        let w = tiny();
        let fingerprint = |r: &RunReport| (r.cycles, r.checksum, r.stats.clone());
        let seq = with_par_mode(ParMode::Seq, || {
            run_xcache_sharded(&w, Some(tiny_geometry()), 4)
        });
        assert!(seq.cycles > 0);
        assert!(
            seq.stats.get("xcache.store_hit") > 0,
            "events must coalesce inside shards"
        );
        for threads in [2usize, 4] {
            let par = with_par_mode(ParMode::Par, || {
                with_par_threads(threads, || run_xcache_sharded(&w, Some(tiny_geometry()), 4))
            });
            assert_eq!(
                fingerprint(&par),
                fingerprint(&seq),
                "par x{threads} diverged from seq"
            );
        }
    }

    #[test]
    fn addr_cache_pagerank_matches_oracle_and_is_slower() {
        let w = tiny();
        let x = run_xcache(&w, Some(tiny_geometry()));
        let a = run_address_cache(&w, Some(tiny_geometry()));
        assert_eq!(
            x.checksum, a.checksum,
            "both variants computed the same ranks"
        );
        assert!(
            x.speedup_over(&a) > 1.2,
            "on-chip coalescing should beat DRAM-array RMW (got {:.2})",
            x.speedup_over(&a)
        );
    }

    #[test]
    fn baseline_is_competitive_with_xcache() {
        let w = tiny();
        let x = run_xcache(&w, Some(tiny_geometry()));
        let b = run_baseline(&w, 4);
        // Hardwired queue has no programmability tax: it should win, but
        // X-Cache must stay within a small factor (paper: "no performance
        // loss" at DSA level because DRAM dominates end-to-end runs).
        assert!(b.cycles <= x.cycles);
        assert!(
            x.cycles < b.cycles * 12,
            "x-cache event handling too slow: {} vs {}",
            x.cycles,
            b.cycles
        );
        assert_eq!(x.checksum, b.checksum);
    }

    #[test]
    fn batching_bounds_live_keys() {
        // A geometry smaller than the vertex count still completes thanks
        // to sub-batching + draining.
        let w = tiny(); // 64 vertices
        let g = XCacheConfig {
            sets: 32,
            ways: 1,
            active: 4,
            exe: 2,
            words_per_sector: 8,
            data_sectors: 48,
            ..XCacheConfig::graphpulse()
        };
        let r = run_xcache(&w, Some(g));
        assert!(r.cycles > 0);
    }

    #[test]
    fn sssp_min_merge_matches_bellman_ford() {
        let w = tiny();
        let (report, dist) = run_sssp_xcache(&w, 0, Some(tiny_geometry()));
        assert!(report.cycles > 0);
        assert_eq!(dist[0], 0);
        // Min-merges must actually have coalesced events.
        assert!(report.stats.get("xcache.store_hit") > 0);
        // The walker never touches DRAM: all relaxations are on-chip.
        assert_eq!(report.stats.get("dram.reads"), 0);
    }

    #[test]
    fn min_merge_walker_validates() {
        let p = min_merge_walker();
        assert!(verify_structure(&p).check(false).is_ok());
        assert!(p.microcode_words() < 20);
    }

    #[test]
    fn walker_program_shape() {
        let p = walker();
        assert!(verify_structure(&p).check(false).is_ok());
        // Insert path pins; merge path reads-modifies-writes.
        assert!(p.microcode_words() < 20);
    }
}
