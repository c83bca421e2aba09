//! Absolute timing pins for the address-cache and hardwired-baseline
//! runs, which `ProbeEngine` drives over an `AddressCache` and the DRAM
//! model.
//!
//! The differential suites only show that these runs are skip-invariant
//! and that X-Cache beats them; nothing else fixes their cycle counts.
//! Each test asserts the exact `cycles`, `checksum` and every `engine.*`,
//! `cache.*` and `dram.*` counter of one small cell, so a host-side
//! rewrite of the probe engine, the address cache or the DRAM request
//! path that moves any simulated number fails here.

use xcache_core::XCacheConfig;
use xcache_dsa::spgemm::{self, Algorithm, SpgemmWorkload};
use xcache_dsa::widx::{self, WidxWorkload};
use xcache_dsa::{dasx, RunReport};
use xcache_mem::{CacheConfig, ReplacementPolicy};
use xcache_workloads::{CsrMatrix, QueryClass, SparsePattern};

/// The expected outcome of one run.
struct Pin {
    cycles: u64,
    checksum: u64,
    /// Every `engine.*`, `cache.*` and `dram.*` counter, in name order.
    counters: &'static [(&'static str, u64)],
}

fn assert_pinned(r: &RunReport, pin: &Pin) {
    let counters: Vec<(&str, u64)> = r
        .stats
        .counters
        .iter()
        .filter(|(k, _)| {
            ["engine.", "cache.", "dram."]
                .iter()
                .any(|p| k.starts_with(p))
        })
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    assert_eq!(counters, pin.counters, "{} counters moved", r.label);
    assert_eq!(r.cycles, pin.cycles, "{} cycles moved", r.label);
    assert_eq!(r.checksum, pin.checksum, "{} checksum moved", r.label);
}

fn widx_cell() -> (WidxWorkload, XCacheConfig) {
    let mut preset = QueryClass::Q19.preset().scaled_down(10);
    preset.probes = 2_000;
    preset.miss_rate = 0.05;
    let g = XCacheConfig {
        sets: 128,
        ways: 4,
        data_sectors: 512,
        ..XCacheConfig::widx()
    };
    (WidxWorkload::from_preset(&preset, 7), g)
}

fn spgemm_cell(algorithm: Algorithm) -> (SpgemmWorkload, XCacheConfig) {
    let a = CsrMatrix::generate(96, 96, 700, SparsePattern::RMat, 11);
    let g = XCacheConfig {
        sets: 32,
        ways: 4,
        active: 8,
        exe: 4,
        data_sectors: 512,
        ..XCacheConfig::sparch()
    };
    (
        SpgemmWorkload {
            b: a.clone(),
            a,
            algorithm,
        },
        g,
    )
}

#[test]
fn widx_address_cache() {
    let (w, g) = widx_cell();
    let pin = Pin {
        cycles: 35_494,
        checksum: 601_035,
        counters: &[
            ("cache.data_reads", 6672),
            ("cache.evictions", 3222),
            ("cache.fills", 3478),
            ("cache.hits", 3074),
            ("cache.misses", 3598),
            ("cache.mshr_coalesced", 120),
            ("cache.tag_reads", 6672),
            ("dram.bus_busy_cycles", 27_824),
            ("dram.bytes", 222_592),
            ("dram.reads", 3478),
            ("dram.refresh", 4),
            ("dram.requests", 3478),
            ("dram.row_conflict", 2959),
            ("dram.row_hit", 479),
            ("dram.row_miss", 40),
            ("engine.delay_cycles", 120_000),
            ("engine.done", 2000),
            ("engine.reads", 6672),
            ("engine.task_latency.count", 2000),
            ("engine.task_latency.max", 1242),
            ("engine.task_latency.min", 64),
            ("engine.task_latency.p50", 255),
            ("engine.task_latency.p95", 1023),
            ("engine.task_latency.sum", 559_677),
        ],
    };
    assert_pinned(&widx::run_address_cache(&w, Some(g)), &pin);
}

#[test]
fn widx_baseline() {
    let (w, g) = widx_cell();
    let pin = Pin {
        cycles: 50_498,
        checksum: 601_035,
        counters: &[
            ("cache.data_reads", 6672),
            ("cache.evictions", 3259),
            ("cache.fills", 3515),
            ("cache.hits", 3113),
            ("cache.misses", 3559),
            ("cache.mshr_coalesced", 44),
            ("cache.tag_reads", 6672),
            ("dram.bus_busy_cycles", 28_120),
            ("dram.bytes", 224_960),
            ("dram.reads", 3515),
            ("dram.refresh", 6),
            ("dram.requests", 3515),
            ("dram.row_conflict", 2964),
            ("dram.row_hit", 495),
            ("dram.row_miss", 56),
            ("engine.delay_cycles", 120_000),
            ("engine.done", 2000),
            ("engine.reads", 6672),
            ("engine.task_latency.count", 2000),
            ("engine.task_latency.max", 768),
            ("engine.task_latency.min", 64),
            ("engine.task_latency.p50", 255),
            ("engine.task_latency.p95", 511),
            ("engine.task_latency.sum", 400_423),
        ],
    };
    assert_pinned(&widx::run_baseline(&w, Some(g)), &pin);
}

/// 32 walk units on a two-MSHR cache: the cache's input queue fills, so
/// most cycles refuse reads (`engine.port_stall`) and units are starved.
#[test]
fn widx_port_stalls() {
    let (w, g) = widx_cell();
    let wide = XCacheConfig { active: 32, ..g };
    let cfg = CacheConfig {
        mshrs: 2,
        policy: ReplacementPolicy::Fifo,
        ..widx::matched_address_cache_config(&wide)
    };
    let pin = Pin {
        cycles: 102_665,
        checksum: 601_035,
        counters: &[
            ("cache.data_reads", 6672),
            ("cache.evictions", 3498),
            ("cache.fills", 3754),
            ("cache.hits", 2898),
            ("cache.input_stall", 1_276_171),
            ("cache.misses", 3774),
            ("cache.mshr_coalesced", 20),
            ("cache.mshr_stall", 95_757),
            ("cache.tag_reads", 102_429),
            ("dram.bus_busy_cycles", 30_032),
            ("dram.bytes", 240_256),
            ("dram.reads", 3754),
            ("dram.refresh", 13),
            ("dram.requests", 3754),
            ("dram.row_conflict", 3087),
            ("dram.row_hit", 555),
            ("dram.row_miss", 112),
            ("engine.delay_cycles", 120_000),
            ("engine.done", 2000),
            ("engine.port_stall", 1_276_171),
            ("engine.reads", 6672),
            ("engine.task_latency.count", 2000),
            ("engine.task_latency.max", 102_599),
            ("engine.task_latency.min", 317),
            ("engine.task_latency.p50", 2047),
            ("engine.task_latency.p95", 4095),
            ("engine.task_latency.sum", 3_253_965),
        ],
    };
    assert_pinned(&widx::run_address_cache_with_policy(&w, &wide, cfg), &pin);
}

/// DASX couples a hash delay into every chain step.
#[test]
fn dasx_address_cache() {
    let mut preset = QueryClass::Q22.preset().scaled_down(10);
    preset.probes = 1_500;
    preset.miss_rate = 0.05;
    let w = dasx::DasxWorkload::from_preset(&preset, 3);
    let g = XCacheConfig {
        sets: 128,
        ways: 4,
        data_sectors: 512,
        ..XCacheConfig::dasx()
    };
    let pin = Pin {
        cycles: 27_899,
        checksum: 984_982,
        counters: &[
            ("cache.data_reads", 4198),
            ("cache.evictions", 2817),
            ("cache.fills", 3073),
            ("cache.hits", 1047),
            ("cache.misses", 3151),
            ("cache.mshr_coalesced", 78),
            ("cache.tag_reads", 4198),
            ("dram.bus_busy_cycles", 24_584),
            ("dram.bytes", 196_672),
            ("dram.reads", 3073),
            ("dram.refresh", 3),
            ("dram.requests", 3073),
            ("dram.row_conflict", 2689),
            ("dram.row_hit", 352),
            ("dram.row_miss", 32),
            ("engine.delay_cycles", 50_376),
            ("engine.done", 1500),
            ("engine.reads", 4198),
            ("engine.task_latency.count", 1500),
            ("engine.task_latency.max", 1035),
            ("engine.task_latency.min", 16),
            ("engine.task_latency.p50", 511),
            ("engine.task_latency.p95", 1023),
            ("engine.task_latency.sum", 440_359),
        ],
    };
    assert_pinned(&dasx::run_address_cache(&w, Some(g)), &pin);
}

#[test]
fn spgemm_gustavson_address_cache() {
    let (w, g) = spgemm_cell(Algorithm::Gustavson);
    let pin = Pin {
        cycles: 9506,
        checksum: 220_332_342_008_269_353,
        counters: &[
            ("cache.data_reads", 5006),
            ("cache.fills", 188),
            ("cache.hits", 4791),
            ("cache.misses", 215),
            ("cache.mshr_coalesced", 27),
            ("cache.tag_reads", 5006),
            ("dram.bank_queue_stall", 574),
            ("dram.bus_busy_cycles", 3608),
            ("dram.bytes", 28_832),
            ("dram.reads", 276),
            ("dram.refresh", 1),
            ("dram.requests", 276),
            ("dram.row_conflict", 50),
            ("dram.row_hit", 214),
            ("dram.row_miss", 12),
            ("engine.done", 700),
            ("engine.reads", 5006),
            ("engine.task_latency.count", 700),
            ("engine.task_latency.max", 2181),
            ("engine.task_latency.min", 11),
            ("engine.task_latency.p50", 63),
            ("engine.task_latency.p95", 511),
            ("engine.task_latency.sum", 74_661),
        ],
    };
    assert_pinned(&spgemm::run_address_cache(&w, Some(g)), &pin);
}

#[test]
fn spgemm_outer_product_address_cache() {
    let (w, g) = spgemm_cell(Algorithm::OuterProduct);
    let pin = Pin {
        cycles: 9180,
        checksum: 220_332_342_008_269_353,
        counters: &[
            ("cache.data_reads", 5006),
            ("cache.fills", 188),
            ("cache.hits", 3738),
            ("cache.misses", 1268),
            ("cache.mshr_coalesced", 1080),
            ("cache.tag_reads", 5006),
            ("dram.bus_busy_cycles", 3608),
            ("dram.bytes", 28_832),
            ("dram.reads", 276),
            ("dram.refresh", 1),
            ("dram.requests", 276),
            ("dram.row_conflict", 11),
            ("dram.row_hit", 254),
            ("dram.row_miss", 11),
            ("engine.done", 700),
            ("engine.reads", 5006),
            ("engine.task_latency.count", 700),
            ("engine.task_latency.max", 1133),
            ("engine.task_latency.min", 9),
            ("engine.task_latency.p50", 127),
            ("engine.task_latency.p95", 511),
            ("engine.task_latency.sum", 72_102),
        ],
    };
    assert_pinned(&spgemm::run_address_cache(&w, Some(g)), &pin);
}
