//! Behavioural tests of the X-Cache controller: coroutine multiplexing,
//! waiter coalescing, store insert/merge, hash events, faults, and the
//! coroutine-vs-thread occupancy ablation.

use xcache_core::{MetaAccess, MetaKey, WalkerDiscipline, XCache, XCacheConfig};
use xcache_isa::asm::assemble;
use xcache_isa::WalkerProgram;
use xcache_mem::{DramConfig, DramModel};
use xcache_sim::Cycle;

/// Walker fetching a 32-byte element at `base + key * 32`.
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

/// Hash-then-fetch walker (Widx-like): digest selects the bucket.
fn hash_walker() -> WalkerProgram {
    assemble(
        r#"
        walker hashed
        states Default, Wait
        events HashDone
        regs 2
        params base

        routine start {
            allocR
            allocM
            hash HashDone, key
            yield Default
        }
        routine agen {
            peek r0, 0
            and r0, r0, 7
            mul r0, r0, 32
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
        on Default, HashDone -> agen
        on Wait, Fill -> fill
    "#,
    )
    .expect("valid walker")
}

/// GraphPulse-style insert-or-merge walker (runs on Store).
fn merge_walker() -> WalkerProgram {
    assemble(
        r#"
        walker events
        states Default
        regs 2

        routine noop {
            allocR
            fault
        }
        routine upsert {
            allocR
            bhit @merge
            allocM
            allocD r0, 1
            writed r0, 0, msg0
            updatem r0, r0
            pinm
            retire
        merge:
            readd r1, sector, 0
            add r1, r1, msg0
            writed sector, 0, r1
            retire
        }

        on Default, Miss -> noop
        on Default, Update -> upsert
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

fn drain<D: xcache_mem::MemoryPort>(
    xc: &mut XCache<D>,
    now: &mut Cycle,
    want: usize,
) -> Vec<xcache_core::MetaResp> {
    let mut got = Vec::new();
    while got.len() < want {
        xc.tick(*now);
        while let Some(r) = xc.take_response(*now) {
            got.push(r);
        }
        *now = now.next();
        assert!(
            now.raw() < 1_000_000,
            "controller deadlock: {:?}",
            xc.stats()
        );
    }
    got
}

fn load(id: u64, key: u64) -> MetaAccess {
    MetaAccess::Load {
        id,
        key: MetaKey::new(key),
    }
}

#[test]
fn miss_then_hit_short_circuits() {
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, array_walker(), dram_with_array(8, 0x1000)).unwrap();
    let mut now = Cycle(0);
    xc.try_access(now, load(1, 3)).unwrap();
    let r = drain(&mut xc, &mut now, 1);
    assert!(r[0].found);
    assert_eq!(r[0].data[0], 1003);
    let t_miss = now.raw();

    let start = now;
    xc.try_access(now, load(2, 3)).unwrap();
    let r = drain(&mut xc, &mut now, 1);
    assert_eq!(r[0].data[0], 1003);
    let t_hit = now.since(start);
    assert!(
        t_hit < t_miss / 2,
        "hit ({t_hit}) should be much faster than miss ({t_miss})"
    );
    assert_eq!(xc.stats().get("xcache.hit"), 1);
    assert_eq!(xc.stats().get("xcache.miss"), 1);
    assert_eq!(xc.stats().get("xcache.dram_req"), 1);
}

#[test]
fn duplicate_loads_coalesce_on_one_walker() {
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, array_walker(), dram_with_array(8, 0x1000)).unwrap();
    let mut now = Cycle(0);
    xc.try_access(now, load(1, 5)).unwrap();
    xc.try_access(now, load(2, 5)).unwrap();
    xc.try_access(now, load(3, 5)).unwrap();
    let rs = drain(&mut xc, &mut now, 3);
    for r in &rs {
        assert!(r.found);
        assert_eq!(r.data[0], 1005);
    }
    // One walker, one DRAM transaction for all three.
    assert_eq!(xc.stats().get("xcache.walker_launch"), 1);
    assert_eq!(xc.stats().get("xcache.dram_req"), 1);
    assert_eq!(xc.stats().get("xcache.waiter"), 2);
}

#[test]
fn independent_keys_walk_in_parallel() {
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg.clone(), array_walker(), dram_with_array(16, 0x1000)).unwrap();
    let mut now = Cycle(0);
    for k in 0..4 {
        xc.try_access(now, load(k, k)).unwrap();
    }
    let rs = drain(&mut xc, &mut now, 4);
    assert_eq!(rs.len(), 4);
    let t_parallel = now.raw();
    assert_eq!(xc.stats().get("xcache.walker_launch"), 4);

    // Serial reference: one at a time.
    let mut xc2 = XCache::new(cfg, array_walker(), dram_with_array(16, 0x1000)).unwrap();
    let mut now2 = Cycle(0);
    for k in 10..14u64 {
        xc2.try_access(now2, load(k, k)).unwrap();
        let _ = drain(&mut xc2, &mut now2, 1);
    }
    let t_serial = now2.raw();
    assert!(
        t_parallel < t_serial,
        "4 concurrent walkers ({t_parallel}) should beat serial ({t_serial})"
    );
}

#[test]
fn hash_event_drives_multi_stage_walk() {
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x4000]);
    let mut dram = DramModel::new(DramConfig::test_tiny());
    for b in 0..8u64 {
        dram.memory_mut().write_u64(0x4000 + b * 32, 7000 + b);
    }
    let mut xc = XCache::new(cfg, hash_walker(), dram).unwrap();
    let mut now = Cycle(0);
    xc.try_access(now, load(1, 42)).unwrap();
    let r = drain(&mut xc, &mut now, 1);
    assert!(r[0].found);
    let bucket = xcache_core::splitmix64(42) & 7;
    assert_eq!(r[0].data[0], 7000 + bucket);
    assert_eq!(xc.stats().get("xcache.hash_issue"), 1);
    // The walk took at least the hash latency.
    assert!(now.raw() >= 4);
}

#[test]
fn store_insert_then_merge_then_take() {
    let cfg = XCacheConfig::test_tiny();
    let dram = DramModel::new(DramConfig::test_tiny());
    let mut xc = XCache::new(cfg, merge_walker(), dram).unwrap();
    let mut now = Cycle(0);

    // Insert 10 under key 9.
    xc.try_access(
        now,
        MetaAccess::Store {
            id: 1,
            key: MetaKey::new(9),
            payload: [10, 0],
        },
    )
    .unwrap();
    let r = drain(&mut xc, &mut now, 1);
    assert!(r[0].found);
    assert_eq!(xc.stats().get("xcache.store_miss"), 1);

    // Merge +32.
    xc.try_access(
        now,
        MetaAccess::Store {
            id: 2,
            key: MetaKey::new(9),
            payload: [32, 0],
        },
    )
    .unwrap();
    let _ = drain(&mut xc, &mut now, 1);
    assert_eq!(xc.stats().get("xcache.store_hit"), 1);

    // Drain the event: value must be 42 and the entry gone.
    xc.try_access(
        now,
        MetaAccess::Take {
            id: 3,
            key: MetaKey::new(9),
        },
    )
    .unwrap();
    let r = drain(&mut xc, &mut now, 1);
    assert!(r[0].found);
    assert_eq!(r[0].data[0], 42);

    xc.try_access(
        now,
        MetaAccess::Take {
            id: 4,
            key: MetaKey::new(9),
        },
    )
    .unwrap();
    let r = drain(&mut xc, &mut now, 1);
    assert!(!r[0].found, "entry must be gone after take");
}

#[test]
fn fault_answers_not_found() {
    // Walker that faults immediately on a miss.
    let program = assemble(
        r#"
        walker nf
        states Default
        regs 1
        routine start {
            allocR
            fault
        }
        on Default, Miss -> start
    "#,
    )
    .unwrap();
    let mut xc = XCache::new(
        XCacheConfig::test_tiny(),
        program,
        DramModel::new(DramConfig::test_tiny()),
    )
    .unwrap();
    let mut now = Cycle(0);
    xc.try_access(now, load(1, 77)).unwrap();
    let r = drain(&mut xc, &mut now, 1);
    assert!(!r[0].found);
    assert_eq!(xc.stats().get("xcache.walker_fault"), 1);
    // Nothing cached: a retry walks again.
    xc.try_access(now, load(2, 77)).unwrap();
    let r = drain(&mut xc, &mut now, 1);
    assert!(!r[0].found);
    assert_eq!(xc.stats().get("xcache.walker_fault"), 2);
}

#[test]
fn thread_discipline_inflates_occupancy() {
    let run = |discipline: WalkerDiscipline| {
        let cfg = XCacheConfig {
            discipline,
            ..XCacheConfig::test_tiny()
        }
        .with_params(vec![0x1000]);
        let mut xc = XCache::new(cfg, array_walker(), dram_with_array(64, 0x1000)).unwrap();
        let mut now = Cycle(0);
        let mut sent = 0u64;
        let mut recv = 0;
        while recv < 32 {
            if sent < 32 && xc.try_access(now, load(sent, sent)).is_ok() {
                sent += 1;
            }
            xc.tick(now);
            while xc.take_response(now).is_some() {
                recv += 1;
            }
            now = now.next();
            assert!(now.raw() < 1_000_000);
        }
        (
            xc.stats().get("xcache.occupancy_reg_byte_cycles"),
            now.raw(),
        )
    };
    let (occ_coro, t_coro) = run(WalkerDiscipline::Coroutine);
    let (occ_thread, t_thread) = run(WalkerDiscipline::BlockingThread);
    assert!(
        occ_thread > 4 * occ_coro,
        "thread occupancy {occ_thread} should dwarf coroutine {occ_coro}"
    );
    assert!(
        t_thread >= t_coro,
        "threads cannot be faster ({t_thread} vs {t_coro})"
    );
}

#[test]
fn active_limit_bounds_concurrency() {
    let cfg = XCacheConfig {
        active: 2,
        ..XCacheConfig::test_tiny()
    }
    .with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, array_walker(), dram_with_array(32, 0x1000)).unwrap();
    let mut now = Cycle(0);
    for k in 0..8 {
        // Queue depth is 16, all fit.
        xc.try_access(now, load(k, k)).unwrap();
    }
    let rs = drain(&mut xc, &mut now, 8);
    assert_eq!(rs.len(), 8);
    // With only 2 register files, launches had to stall at some point.
    assert!(xc.stats().get("xcache.launch_stall") > 0);
    assert_eq!(xc.stats().get("xcache.walker_retire"), 8);
}

#[test]
fn load_to_use_histogram_separates_hits_and_misses() {
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, array_walker(), dram_with_array(8, 0x1000)).unwrap();
    let mut now = Cycle(0);
    xc.try_access(now, load(1, 1)).unwrap();
    let _ = drain(&mut xc, &mut now, 1);
    for i in 0..4u64 {
        xc.try_access(now, load(10 + i, 1)).unwrap();
        let _ = drain(&mut xc, &mut now, 1);
    }
    let h = xc.stats().histogram("xcache.load_to_use").unwrap();
    assert_eq!(h.count(), 5);
    // Hits bounded by a small constant; the miss dominates the max.
    assert!(h.max().unwrap() > 2 * h.min().unwrap());
}

#[test]
fn respond_serialises_multi_sector_data() {
    // Walker that caches 4 sectors (128B) per element.
    let program = assemble(
        r#"
        walker wide
        states Default, Wait
        regs 2
        params base
        routine start {
            allocR
            allocM
            mul r0, key, 128
            add r0, r0, base
            dram_read r0, 128
            yield Wait
        }
        routine fill {
            allocD r1, 4
            filld r1, 16
            add r0, r1, 3
            updatem r1, r0
            respond
            retire
        }
        on Default, Miss -> start
        on Wait, Fill -> fill
    "#,
    )
    .unwrap();
    let mut dram = DramModel::new(DramConfig::test_tiny());
    for w in 0..16u64 {
        dram.memory_mut().write_u64(0x8000 + w * 8, w);
    }
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x8000]);
    let mut xc = XCache::new(cfg, program, dram).unwrap();
    let mut now = Cycle(0);
    xc.try_access(now, load(1, 0)).unwrap();
    let r = drain(&mut xc, &mut now, 1);
    assert_eq!(r[0].data.len(), 16);
    assert_eq!(r[0].data, (0..16).collect::<Vec<u64>>());
}

#[test]
fn build_rejects_bad_resources() {
    let program = array_walker(); // declares 2 regs, uses param 0
    let err = XCache::new(
        XCacheConfig {
            xregs_per_walker: 1,
            ..XCacheConfig::test_tiny()
        },
        program.clone(),
        DramModel::new(DramConfig::test_tiny()),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        xcache_core::BuildError::RegistersExceeded { .. }
    ));

    let err = XCache::new(
        XCacheConfig::test_tiny(), // no params
        program,
        DramModel::new(DramConfig::test_tiny()),
    )
    .unwrap_err();
    assert!(matches!(err, xcache_core::BuildError::MissingParam { .. }));

    // A parameter referenced only as an `insertm` operand must be
    // configured too; otherwise predecode would fold it to 0.
    let side_insert = assemble(
        r#"
        walker side
        states Default, Wait
        regs 2
        params base, extra

        routine start {
            allocR
            allocM
            mul r0, key, 32
            add r0, r0, base
            dram_read r0, 32
            yield Wait
        }
        routine fill {
            insertm extra, 4
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
    .expect("valid walker");
    let err = XCache::new(
        XCacheConfig::test_tiny().with_params(vec![0x1000]), // `extra` missing
        side_insert,
        DramModel::new(DramConfig::test_tiny()),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        xcache_core::BuildError::MissingParam {
            idx: 1,
            provided: 1
        }
    ));
}

#[test]
fn capacity_eviction_keeps_serving() {
    // Tiny cache: 8 sets x 2 ways but only 8 data sectors. Touch 32 keys.
    let cfg = XCacheConfig {
        data_sectors: 8,
        ..XCacheConfig::test_tiny()
    }
    .with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, array_walker(), dram_with_array(32, 0x1000)).unwrap();
    let mut now = Cycle(0);
    for k in 0..32u64 {
        xc.try_access(now, load(k, k)).unwrap();
        let r = drain(&mut xc, &mut now, 1);
        assert!(r[0].found);
        assert_eq!(r[0].data[0], 1000 + k);
    }
    assert!(xc.stats().get("xcache.capacity_evict") > 0);
}

#[test]
fn stats_action_categories_counted() {
    let cfg = XCacheConfig::test_tiny().with_params(vec![0x1000]);
    let mut xc = XCache::new(cfg, array_walker(), dram_with_array(4, 0x1000)).unwrap();
    let mut now = Cycle(0);
    xc.try_access(now, load(1, 1)).unwrap();
    let _ = drain(&mut xc, &mut now, 1);
    let s = xc.stats();
    assert!(s.get("xcache.action.agen") > 0);
    assert!(s.get("xcache.action.queue") > 0);
    assert!(s.get("xcache.action.metatag") > 0);
    assert!(s.get("xcache.action.control") > 0);
    assert!(s.get("xcache.action.dataram") > 0);
    assert_eq!(
        s.get("xcache.ucode_read"),
        s.get("xcache.action.agen")
            + s.get("xcache.action.queue")
            + s.get("xcache.action.metatag")
            + s.get("xcache.action.control")
            + s.get("xcache.action.dataram")
    );
}
