//! Heap-allocation budget for the steady-state hot path.
//!
//! After warm-up, serving meta-tag hits and ticking an idle controller
//! must not touch the allocator at all: response-data buffers come from
//! the recycle pool, stat counters are interned, and the controller's
//! queues, delayed-work heaps included, keep their capacity. This test pins that down
//! with a counting global allocator — a regression here silently taxes
//! every simulated cycle, which is exactly what the event-scheduled core
//! exists to avoid.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one test: a second test thread allocating during the measured window
//! would produce spurious counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xcache_core::{MetaAccess, MetaKey, XCache, XCacheConfig};
use xcache_isa::asm::assemble;
use xcache_isa::WalkerProgram;
use xcache_mem::{DramConfig, DramModel};
use xcache_sim::Cycle;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Walker fetching a 32-byte element at `base + key * 32` — the minimal
/// miss pipeline, enough to make every key resident during warm-up.
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

const BASE: u64 = 0x1000;
const KEYS: u64 = 8;

/// Issues one `Load` per key and runs the cache to completion, recycling
/// every response buffer back into the pool. Returns the end cycle.
fn sweep_loads(xc: &mut XCache<DramModel>, start: Cycle, first_id: u64) -> Cycle {
    let mut now = start;
    let mut next = 0u64;
    let mut done = 0u64;
    while done < KEYS {
        while next < KEYS && xc.can_accept() {
            xc.try_access(
                now,
                MetaAccess::Load {
                    id: first_id + next,
                    key: MetaKey::new(next),
                },
            )
            .expect("can_accept checked");
            next += 1;
        }
        xc.tick(now);
        while let Some(resp) = xc.take_response(now) {
            assert!(resp.found || done < KEYS, "lost a response");
            xc.recycle(resp);
            done += 1;
        }
        now = if done >= KEYS {
            now.next()
        } else {
            let mut wake = xc.next_event(now);
            if next < KEYS && xc.can_accept() {
                wake = Some(now.next());
            }
            xcache_sim::fast_forward(now, wake)
        };
        assert!(now.raw() < 1_000_000, "zero-alloc sweep deadlocked");
    }
    now
}

#[test]
fn steady_state_hit_serving_does_not_allocate() {
    let mut dram = DramModel::new(DramConfig::test_tiny());
    for k in 0..KEYS * 4 {
        dram.memory_mut().write_u64(BASE + k * 8, k * 31 + 7);
    }
    let cfg = XCacheConfig::test_tiny().with_params(vec![BASE]);
    let mut xc = XCache::new(cfg, array_walker(), dram).expect("verifier-clean walker");

    // Warm-up: make every key resident (walker launches, DRAM fills, data
    // RAM allocation) and then serve one full round of hits so every
    // lazily-grown structure — recycle pool, queues and delayed-work heaps,
    // interned counters, stat histograms — reaches its steady-state capacity.
    let mut now = sweep_loads(&mut xc, Cycle(0), 0);
    now = sweep_loads(&mut xc, now, KEYS);
    assert!(
        xc.stats().get("xcache.hit") >= KEYS,
        "warm-up did not reach the hit path"
    );

    // Measured window: another full round of hits plus a stretch of idle
    // ticks. The allocator must not be called at all.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    now = sweep_loads(&mut xc, now, KEYS * 2);
    for _ in 0..64 {
        xc.tick(now);
        assert!(xc.take_response(now).is_none());
        now = xcache_sim::fast_forward(now, xc.next_event(now));
    }
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state hit serving allocated {delta} times; the hot path \
         must run entirely out of pooled/preallocated storage"
    );
}
