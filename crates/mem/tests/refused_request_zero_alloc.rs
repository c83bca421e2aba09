//! A DRAM request refused by a full input queue must not touch the
//! allocator.
//!
//! A requester stalled on back-pressure rebuilds and re-offers its read
//! every cycle, so a refusal sits on the per-cycle path: building the
//! request (`MemReq::read` carries an empty `Bytes`), offering it and
//! dropping the returned copy. This test pins that path to zero heap
//! allocations with a counting global allocator.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one test: a second test thread allocating during the measured window
//! would produce spurious counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use xcache_mem::{DramConfig, DramModel, MemReq, MemoryPort};
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

#[test]
fn refused_reads_and_empty_buffers_allocate_nothing() {
    let cfg = DramConfig::test_tiny();
    let depth = cfg.input_queue_depth as u64;
    let mut dram = DramModel::new(cfg);
    let now = Cycle(0);
    for id in 0..depth {
        assert!(dram.try_request(now, MemReq::read(id, id * 64, 8)).is_ok());
    }
    // Warm-up: the first refusal interns the stall counter.
    assert!(dram.try_request(now, MemReq::read(depth, 0, 8)).is_err());

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for id in 0..1_000u64 {
        let refused = dram.try_request(now, MemReq::read(depth + 1 + id, id * 64, 8));
        assert!(refused.is_err());
        assert!(std::hint::black_box(Bytes::new()).is_empty());
    }
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(allocs, 0, "refused requests allocated {allocs} times");
    assert_eq!(dram.stats().get("dram.input_stall"), 1_001);
}
