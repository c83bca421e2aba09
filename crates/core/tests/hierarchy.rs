//! Tests of the §6 hierarchy compositions: MX (MetaL1 over XCache),
//! MXA (XCache over AddressCache), and MXS (XCache + stream on shared DRAM).

use xcache_core::hierarchy::{build_mx, MetaL1Config, MetaPort};
use xcache_core::{MetaAccess, MetaKey, StreamConfig, StreamReader, XCache, XCacheConfig};
use xcache_isa::asm::assemble;
use xcache_isa::WalkerProgram;
use xcache_mem::{AddressCache, CacheConfig, DramConfig, DramModel, SharedPort};
use xcache_sim::Cycle;

fn array_walker() -> WalkerProgram {
    assemble(
        r#"
        walker array
        states Default, Wait
        regs 2
        params base
        routine start {
            allocR
            allocM
            mul r0, key, 32
            add r0, r0, base
            dram_read r0, 32
            yield Wait
        }
        routine fill {
            allocD r1, 1
            filld r1, 4
            updatem r1, r1
            respond
            retire
        }
        on Default, Miss -> start
        on Wait, Fill -> fill
    "#,
    )
    .expect("valid walker")
}

fn dram_with_array(elems: u64, base: u64) -> DramModel {
    let mut dram = DramModel::new(DramConfig::test_tiny());
    for k in 0..elems {
        dram.memory_mut().write_u64(base + k * 32, 1000 + k);
    }
    dram
}

fn drain_port<P: MetaPort>(p: &mut P, now: &mut Cycle, want: usize) -> Vec<xcache_core::MetaResp> {
    let mut got = Vec::new();
    while got.len() < want {
        p.tick(*now);
        while let Some(r) = p.take_response(*now) {
            got.push(r);
        }
        *now = now.next();
        assert!(now.raw() < 1_000_000, "hierarchy deadlock");
    }
    got
}

#[test]
fn mx_l1_serves_repeated_loads_locally() {
    let mut mx = build_mx(
        MetaL1Config::default(),
        XCacheConfig::test_tiny().with_params(vec![0x1000]),
        array_walker(),
        dram_with_array(8, 0x1000),
    )
    .unwrap();
    let mut now = Cycle(0);

    // First load: L1 miss, L2 miss, walker fetch.
    mx.try_access(
        now,
        MetaAccess::Load {
            id: 1,
            key: MetaKey::new(3),
        },
    )
    .unwrap();
    let r = drain_port(&mut mx, &mut now, 1);
    assert_eq!(r[0].data[0], 1003);
    let t_cold = now.raw();

    // Second load of the same key: L1 hit, L2 untouched.
    let start = now;
    mx.try_access(
        now,
        MetaAccess::Load {
            id: 2,
            key: MetaKey::new(3),
        },
    )
    .unwrap();
    let r = drain_port(&mut mx, &mut now, 1);
    assert_eq!(r[0].data[0], 1003);
    let t_l1 = now.since(start);
    assert!(t_l1 < t_cold, "L1 hit {t_l1} !< cold {t_cold}");
    assert_eq!(mx.stats().get("metal1.hit"), 1);
    assert_eq!(mx.stats().get("metal1.miss"), 1);
    // Only one access reached the L2 X-Cache.
    assert_eq!(mx.downstream().stats().get("xcache.miss"), 1);
    assert_eq!(mx.downstream().stats().get("xcache.hit"), 0);
}

#[test]
fn mx_coalesces_concurrent_loads() {
    let mut mx = build_mx(
        MetaL1Config::default(),
        XCacheConfig::test_tiny().with_params(vec![0x1000]),
        array_walker(),
        dram_with_array(8, 0x1000),
    )
    .unwrap();
    let mut now = Cycle(0);
    for id in 0..3 {
        mx.try_access(
            now,
            MetaAccess::Load {
                id,
                key: MetaKey::new(5),
            },
        )
        .unwrap();
    }
    let rs = drain_port(&mut mx, &mut now, 3);
    for r in &rs {
        assert_eq!(r.data[0], 1005);
    }
    assert_eq!(mx.stats().get("metal1.coalesced"), 2);
    assert_eq!(mx.downstream().stats().get("xcache.walker_launch"), 1);
}

#[test]
fn mxa_walker_misses_filter_through_address_cache() {
    // Two keys in the same DRAM row: the second walker fetch hits in the
    // address cache below the X-Cache.
    let dram = dram_with_array(8, 0x1000);
    let l2 = AddressCache::new(
        CacheConfig {
            sets: 16,
            ways: 2,
            block_bytes: 64,
            hit_latency: 2,
            mshrs: 4,
            policy: xcache_mem::ReplacementPolicy::Lru,
            ports: 1,
            prefetch_next: false,
        },
        dram,
    )
    .unwrap();
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, array_walker(), l2).unwrap();
    let mut now = Cycle(0);

    // Key 0 (bytes 0x1000..0x1020) and key 1 (0x1020..0x1040) share the
    // 64-byte block 0x1000.
    xc.try_access(
        now,
        MetaAccess::Load {
            id: 1,
            key: MetaKey::new(0),
        },
    )
    .unwrap();
    let _ = drain_port(&mut xc, &mut now, 1);
    xc.try_access(
        now,
        MetaAccess::Load {
            id: 2,
            key: MetaKey::new(1),
        },
    )
    .unwrap();
    let r = drain_port(&mut xc, &mut now, 1);
    assert_eq!(r[0].data[0], 1001);
    let l2_stats = xc.downstream().stats();
    assert_eq!(l2_stats.get("cache.hits"), 1, "second walk hits in L2");
    // DRAM saw only the first block fill.
    assert_eq!(xc.downstream().downstream().stats().get("dram.reads"), 1);
}

#[test]
fn mxs_stream_and_xcache_share_dram() {
    // Matrix-A-style stream + X-Cache walks on the same DRAM.
    let mut dram = dram_with_array(8, 0x1000);
    for i in 0..64u64 {
        dram.memory_mut().write_u64(0x9000 + i * 8, i);
    }
    let shared = SharedPort::new(dram);
    let stream_port = shared.handle();
    let xc_port = shared.handle();

    let mut stream = StreamReader::new(
        StreamConfig {
            base: 0x9000,
            len: 64 * 8,
            chunk_bytes: 32,
            lookahead: 2,
        },
        stream_port,
    );
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, array_walker(), xc_port).unwrap();

    let mut now = Cycle(0);
    let mut streamed = Vec::new();
    let mut resp = None;
    xc.try_access(
        now,
        MetaAccess::Load {
            id: 1,
            key: MetaKey::new(2),
        },
    )
    .unwrap();
    while streamed.len() < 64 || resp.is_none() {
        stream.tick(now);
        xc.tick(now);
        while let Some(w) = stream.pop_word() {
            streamed.push(w);
        }
        if let Some(r) = xc.take_response(now) {
            resp = Some(r);
        }
        now = now.next();
        assert!(now.raw() < 1_000_000, "MXS deadlock");
    }
    assert_eq!(streamed, (0..64).collect::<Vec<u64>>());
    assert_eq!(resp.unwrap().data[0], 1002);
}

#[test]
fn mx_store_invalidates_stale_l1_copy() {
    // A store forwarded through the L1 must invalidate its local copy so
    // later loads observe the owning level's merge result.
    let program = assemble(
        r#"
        walker kv
        states Default, Wait
        regs 2
        params base
        routine start {
            allocR
            allocM
            mul r0, key, 32
            add r0, r0, base
            dram_read r0, 32
            yield Wait
        }
        routine fill {
            allocD r1, 1
            filld r1, 4
            updatem r1, r1
            respond
            retire
        }
        routine upsert {
            allocR
            bhit @merge
            allocM
            allocD r0, 1
            writed r0, 0, msg0
            updatem r0, r0
            retire
        merge:
            readd r1, sector, 0
            add r1, r1, msg0
            writed sector, 0, r1
            retire
        }
        on Default, Miss -> start
        on Default, Update -> upsert
        on Wait, Fill -> fill
    "#,
    )
    .expect("valid walker");
    let mut dram = DramModel::new(DramConfig::test_tiny());
    dram.memory_mut().write_u64(0x1000 + 3 * 32, 50);
    let cfg = xcache_core::XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let l2 = XCache::new(cfg, program, dram).unwrap();
    let mut mx = xcache_core::hierarchy::MetaL1::new(MetaL1Config::default(), l2);

    let mut now = Cycle(0);
    let key = MetaKey::new(3);
    // Load: fills both levels with value 50.
    mx.try_access(now, MetaAccess::Load { id: 1, key }).unwrap();
    let r = drain_port(&mut mx, &mut now, 1);
    assert_eq!(r[0].data[0], 50);
    // Store +7: forwarded to L2 (merge), L1 copy invalidated.
    mx.try_access(
        now,
        MetaAccess::Store {
            id: 2,
            key,
            payload: [7, 0],
        },
    )
    .unwrap();
    let _ = drain_port(&mut mx, &mut now, 1);
    assert!(mx.stats().get("metal1.inval") >= 1);
    // Re-load: must observe 57, refetched from the owning level.
    mx.try_access(now, MetaAccess::Load { id: 3, key }).unwrap();
    let r = drain_port(&mut mx, &mut now, 1);
    assert_eq!(r[0].data[0], 57, "stale L1 copy must not be served");
}

#[test]
fn store_merge_after_load_created_entry() {
    // Regression: an entry created by a *load* walker rests in Default
    // after retirement, so a later store-hit dispatches (Default, Update)
    // and merges — not a protocol error on the stale mid-walk state.
    let program = assemble(
        r#"
        walker kv
        states Default, Wait
        regs 2
        params base
        routine start {
            allocR
            allocM
            mul r0, key, 32
            add r0, r0, base
            dram_read r0, 32
            yield Wait
        }
        routine fill {
            allocD r1, 1
            filld r1, 4
            updatem r1, r1
            respond
            retire
        }
        routine upsert {
            allocR
            bhit @merge
            allocM
            allocD r0, 1
            writed r0, 0, msg0
            updatem r0, r0
            retire
        merge:
            readd r1, sector, 0
            add r1, r1, msg0
            writed sector, 0, r1
            retire
        }
        on Default, Miss -> start
        on Default, Update -> upsert
        on Wait, Fill -> fill
    "#,
    )
    .unwrap();
    let mut dram = DramModel::new(DramConfig::test_tiny());
    dram.memory_mut().write_u64(0x1000 + 3 * 32, 50);
    let cfg = xcache_core::XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, program, dram).unwrap();
    let mut now = Cycle(0);
    let key = MetaKey::new(3);
    xc.try_access(now, MetaAccess::Load { id: 1, key }).unwrap();
    let r = drain_port(&mut xc, &mut now, 1);
    assert_eq!(r[0].data[0], 50);
    xc.try_access(
        now,
        MetaAccess::Store {
            id: 2,
            key,
            payload: [7, 0],
        },
    )
    .unwrap();
    let _ = drain_port(&mut xc, &mut now, 1);
    xc.try_access(now, MetaAccess::Load { id: 3, key }).unwrap();
    let r = drain_port(&mut xc, &mut now, 1);
    assert_eq!(r[0].data[0], 57, "L2-alone merge");
}
