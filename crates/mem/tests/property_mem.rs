//! Property tests for the memory substrate: the address cache must be a
//! transparent cache (functionally equal to raw memory) under arbitrary
//! access sequences, and the DRAM address mapping must partition the
//! address space.

use proptest::prelude::*;

use xcache_mem::{
    AddressCache, BankGroup, BankGroupConfig, CacheConfig, DramConfig, DramModel, MainMemory,
    MemReq, MemoryPort, ReplacementPolicy,
};
use xcache_sim::{with_skip, Cycle};

fn tiny_cache(policy: ReplacementPolicy) -> AddressCache<DramModel> {
    let cfg = CacheConfig {
        sets: 4,
        ways: 2,
        block_bytes: 32,
        hit_latency: 1,
        mshrs: 4,
        policy,
        prefetch_next: false,
    };
    AddressCache::new(cfg, DramModel::new(DramConfig::test_tiny())).expect("valid config")
}

/// Runs one request to completion and returns the response data.
fn run_req(cache: &mut AddressCache<DramModel>, now: &mut Cycle, req: MemReq) -> Vec<u8> {
    loop {
        match cache.try_request(*now, req.clone()) {
            Ok(()) => break,
            Err(_) => {
                cache.tick(*now);
                *now = now.next();
            }
        }
    }
    loop {
        cache.tick(*now);
        if let Some(r) = cache.take_response(*now) {
            return r.data.to_vec();
        }
        *now = now.next();
        assert!(now.raw() < 1_000_000, "cache deadlock");
    }
}

/// One observable of a DRAM run: `(completion cycle, request id, data)`.
type Observed = (u64, u64, u64);

/// `test_tiny` with refresh every 50 cycles and one-deep bank and
/// response queues, so refresh and both kinds of back-pressure fire. Its
/// two banks get a channel each: on one bus, completions are a transfer
/// apart and a one-deep response queue that is drained every cycle never
/// fills.
fn refresh_backpressure_config() -> DramConfig {
    DramConfig {
        channels: 2,
        t_refi: 50,
        t_rfc: 10,
        bank_queue_depth: 1,
        resp_queue_depth: 1,
        ..DramConfig::test_tiny()
    }
}

/// The configurations the skip-vs-step comparison drives.
fn dram_trace_config(sel: u8) -> DramConfig {
    match sel {
        0 => DramConfig::test_tiny(),
        1 => DramConfig::default(),
        _ => refresh_backpressure_config(),
    }
}

/// Drives a request schedule through a fresh `DramModel` built from
/// `cfg` and records every observable: each response's arrival cycle,
/// id, and payload, the final cycle, and the full counter snapshot. The
/// same driver serves both executions — `with_skip` decides whether the
/// wake computation fast-forwards or degenerates to single-stepping.
/// Slots are `row_bytes / 32` bytes apart, so the 512 slots span 16 rows
/// in any geometry.
fn run_dram_trace(
    cfg: &DramConfig,
    ops: &[(u64, u64, bool)], // (issue gap, slot, is_write)
    skip: bool,
) -> (u64, Vec<Observed>, xcache_sim::StatsSnapshot) {
    let stride = cfg.row_bytes / 32;
    with_skip(skip, || {
        let mut dram = DramModel::new(cfg.clone());
        for (i, &(_, slot, _)) in ops.iter().enumerate() {
            dram.memory_mut()
                .write_u64(slot * stride, i as u64 * 31 + 7);
        }
        let mut due = Vec::with_capacity(ops.len());
        let mut t = 0u64;
        for &(gap, ..) in ops {
            t += gap;
            due.push(Cycle(t));
        }
        let total = ops.len();
        let mut next_i = 0usize;
        let mut responses: Vec<Observed> = Vec::new();
        let mut now = Cycle(0);
        while responses.len() < total {
            while next_i < total && due[next_i] <= now && dram.can_accept() {
                let (_, slot, is_write) = ops[next_i];
                let req = if is_write {
                    let payload = (next_i as u64).wrapping_mul(0x9e37).to_le_bytes();
                    MemReq::write(
                        next_i as u64,
                        slot * stride,
                        bytes::Bytes::copy_from_slice(&payload),
                    )
                } else {
                    MemReq::read(next_i as u64, slot * stride, 8)
                };
                dram.try_request(now, req).expect("can_accept checked");
                next_i += 1;
            }
            dram.tick(now);
            while let Some(r) = dram.take_response(now) {
                let v = r
                    .data
                    .get(..8)
                    .map_or(0, |d| u64::from_le_bytes(d.try_into().expect("8 bytes")));
                responses.push((now.raw(), r.id.0, v));
            }
            now = if responses.len() >= total {
                now.next() // same end-cycle as the single-stepped loop
            } else {
                let mut wake = dram.next_event(now);
                if next_i < total {
                    if due[next_i] > now {
                        wake = xcache_sim::earliest(wake, Some(due[next_i]));
                    } else if dram.can_accept() {
                        wake = Some(now.next());
                    }
                }
                xcache_sim::fast_forward(now, wake)
            };
            assert!(now.raw() < 1_000_000, "dram trace deadlock");
        }
        (now.raw(), responses, dram.stats().snapshot())
    })
}

/// One fixed schedule through the skip-vs-step comparison that is known
/// to refresh, hold a retire behind the full response queue and stall
/// the input head behind a full bank queue: two reads start together on
/// separate banks (and buses) and complete on one cycle, two more queue
/// behind bank 0, and the tail runs past two refreshes.
#[test]
fn dram_skip_agrees_with_single_step_through_refresh_and_backpressure() {
    let cfg = refresh_backpressure_config();
    // (issue gap, slot, is_write); slots 0..32 map to bank 0, 32..64 to bank 1.
    let ops = [
        (0, 0, false),
        (0, 32, false),
        (0, 1, true),
        (0, 2, false),
        (45, 33, false),
        (0, 40, false),
        (10, 64, true),
        (50, 3, false),
        (0, 35, false),
    ];
    let fast = run_dram_trace(&cfg, &ops, true);
    let slow = run_dram_trace(&cfg, &ops, false);
    assert_eq!(fast, slow, "skipping and single-stepping diverged");
    let stats = &fast.2;
    for key in ["dram.refresh", "dram.resp_stall", "dram.bank_queue_stall"] {
        assert!(
            stats.get(key) > 0,
            "{key} never fired: {:?}",
            stats.counters
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast-forwarding to `DramModel::next_event` never skips past a state
    /// change: for any request schedule, the skipping and single-stepping
    /// executions agree on every observable — response order, arrival
    /// cycles, payloads, end cycle, and all counters.
    #[test]
    fn dram_next_event_skip_agrees_with_single_step(
        ops in prop::collection::vec(
            (0u64..200, 0u64..512, any::<bool>()), // (issue gap, slot, is_write)
            1..40
        ),
        cfg_sel in 0u8..3
    ) {
        let cfg = dram_trace_config(cfg_sel);
        let (fast_end, fast_obs, fast_stats) = run_dram_trace(&cfg, &ops, true);
        let (slow_end, slow_obs, slow_stats) = run_dram_trace(&cfg, &ops, false);
        prop_assert_eq!(fast_end, slow_end, "end cycle diverged");
        prop_assert_eq!(fast_obs, slow_obs, "response stream diverged");
        prop_assert_eq!(fast_stats, slow_stats, "counters diverged");
    }

    /// Under any serial mix of block-aligned reads and writes, the cache
    /// returns exactly what a flat shadow memory would.
    #[test]
    fn address_cache_is_functionally_transparent(
        ops in prop::collection::vec(
            (0u64..16, any::<bool>(), any::<u64>()), // (block index, is_write, value)
            1..60
        ),
        policy_sel in 0u8..3
    ) {
        let policy = match policy_sel {
            0 => ReplacementPolicy::Lru,
            1 => ReplacementPolicy::Fifo,
            _ => ReplacementPolicy::Random(9),
        };
        let mut cache = tiny_cache(policy);
        let mut shadow = MainMemory::new();
        let mut now = Cycle(0);
        for (i, (block, is_write, value)) in ops.into_iter().enumerate() {
            let addr = block * 32;
            if is_write {
                shadow.write_u64(addr, value);
                let req = MemReq::write(i as u64, addr, bytes::Bytes::copy_from_slice(&value.to_le_bytes()));
                let _ = run_req(&mut cache, &mut now, req);
            } else {
                let data = run_req(&mut cache, &mut now, MemReq::read(i as u64, addr, 8));
                let got = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
                prop_assert_eq!(got, shadow.read_u64(addr), "read of block {}", block);
            }
        }
        // Drain writebacks, then the DRAM image must match the shadow.
        while cache.busy() {
            cache.tick(now);
            let _ = cache.take_response(now);
            now = now.next();
        }
        // (Dirty lines may legitimately still live in the cache; flush by
        // reading conflicting blocks is unnecessary for this check — we
        // verify through the cache, which is the architectural view.)
    }

    /// Every address maps to exactly one (bank, row); addresses within one
    /// row never split across banks.
    #[test]
    fn dram_mapping_partitions_addresses(addr in 0u64..(1 << 30)) {
        let cfg = DramConfig::default();
        let bank = cfg.bank_of(addr);
        let row = cfg.row_of(addr);
        prop_assert!(bank < cfg.banks);
        // All bytes of the same row-in-bank share the mapping.
        let row_base = addr - (addr % cfg.row_bytes);
        for probe in [row_base, row_base + cfg.row_bytes - 1] {
            prop_assert_eq!(cfg.bank_of(probe), bank);
            prop_assert_eq!(cfg.row_of(probe), row);
        }
        // The next row (same bank) is one bank-stride away.
        let stride = cfg.row_bytes * cfg.banks as u64;
        prop_assert_eq!(cfg.bank_of(addr + stride), bank);
        prop_assert_eq!(cfg.row_of(addr + stride), row + 1);
    }

    /// DRAM reads always return the functional contents regardless of the
    /// request interleaving.
    #[test]
    fn dram_reads_match_functional_memory(
        writes in prop::collection::vec((0u64..4096, any::<u64>()), 1..20),
        reads in prop::collection::vec(0u64..4096, 1..20)
    ) {
        let mut dram = DramModel::new(DramConfig::test_tiny());
        let mut shadow = std::collections::HashMap::new();
        for (slot, v) in &writes {
            dram.memory_mut().write_u64(slot * 8, *v);
            shadow.insert(*slot, *v);
        }
        // Issue all reads, collect all responses.
        let mut now = Cycle(0);
        let mut pending: Vec<MemReq> = reads
            .iter()
            .enumerate()
            .map(|(i, slot)| MemReq::read(i as u64, slot * 8, 8))
            .collect();
        let mut got = 0usize;
        while got < reads.len() {
            pending.retain(|req| dram.try_request(now, req.clone()).is_err());
            dram.tick(now);
            while let Some(resp) = dram.take_response(now) {
                let slot = resp.addr / 8;
                let v = u64::from_le_bytes(resp.data[..8].try_into().expect("8 bytes"));
                prop_assert_eq!(v, shadow.get(&slot).copied().unwrap_or(0));
                got += 1;
            }
            now = now.next();
            prop_assert!(now.raw() < 1_000_000, "dram deadlock");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bank ownership partitions the address space: for any topology and
    /// any address, exactly one shard claims the bank holding it, and
    /// every shard agrees on who that owner is.
    #[test]
    fn bank_group_ownership_partitions_addresses(
        shards in 1usize..9,
        addrs in prop::collection::vec(0u64..(1 << 20), 1..32)
    ) {
        let groups: Vec<BankGroup> = (0..shards)
            .map(|shard_id| {
                BankGroup::new(
                    BankGroupConfig { shards, shard_id, ..BankGroupConfig::default() },
                    DramModel::new(DramConfig::test_tiny()),
                )
                .expect("valid config")
            })
            .collect();
        for &addr in &addrs {
            let owner = groups[0].owner_shard(addr);
            prop_assert!(owner < shards, "owner {owner} out of range");
            for (shard_id, g) in groups.iter().enumerate() {
                // The mapping is a pure function of the address and the
                // topology, not of which shard asks.
                prop_assert_eq!(g.owner_shard(addr), owner);
                let claims = g.owner_shard(addr) == shard_id;
                prop_assert_eq!(claims, shard_id == owner);
            }
        }
    }

    /// The ownership counters conserve traffic: every accepted request is
    /// counted under exactly one of `bank.local`/`bank.remote`, and every
    /// rejected one under `bank.stall` — no request is lost or counted
    /// twice, regardless of address mix or staging back-pressure.
    #[test]
    fn bank_group_local_remote_counters_conserve_accesses(
        shards in 1usize..5,
        shard_id_raw in 0usize..4,
        reqs in prop::collection::vec((0u64..(1 << 20), 0u64..30), 1..40)
    ) {
        let shard_id = shard_id_raw % shards;
        let mut g = BankGroup::new(
            BankGroupConfig { shards, shard_id, staging_depth: 4, ..BankGroupConfig::default() },
            DramModel::new(DramConfig::test_tiny()),
        )
        .expect("valid config");
        let mut now = Cycle(0);
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut expect_local = 0u64;
        let mut expect_remote = 0u64;
        let mut inflight = 0u64;
        for (i, &(addr, gap)) in reqs.iter().enumerate() {
            let addr = addr & !7;
            match g.try_request(now, MemReq::read(i as u64, addr, 8)) {
                Ok(()) => {
                    accepted += 1;
                    inflight += 1;
                    if g.owner_shard(addr) == shard_id {
                        expect_local += 1;
                    } else {
                        expect_remote += 1;
                    }
                }
                Err(_) => rejected += 1,
            }
            for _ in 0..gap {
                g.tick(now);
                if g.take_response(now).is_some() {
                    inflight -= 1;
                }
                now = now.next();
            }
        }
        while inflight > 0 {
            g.tick(now);
            if g.take_response(now).is_some() {
                inflight -= 1;
            }
            now = now.next();
            prop_assert!(now.raw() < 1_000_000, "bank group deadlock");
        }
        prop_assert_eq!(
            g.stats().get("bank.local") + g.stats().get("bank.remote"),
            accepted,
            "local+remote must equal accepted requests"
        );
        prop_assert_eq!(g.stats().get("bank.local"), expect_local);
        prop_assert_eq!(g.stats().get("bank.remote"), expect_remote);
        prop_assert_eq!(g.stats().get("bank.stall"), rejected);
    }
}
