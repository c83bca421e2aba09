//! Absolute timing pins for the X-Cache drives: the single-controller and
//! sharded runs of Widx, GraphPulse and SpGEMM, plus GraphPulse's
//! address-cache, baseline and SSSP runs.
//!
//! The differential suites only show that these runs agree across skip,
//! job and thread modes and with the functional oracles; nothing else
//! fixes their cycle counts. Each test asserts the exact `cycles`,
//! `checksum` and every counter of one small cell, so a rewrite of a
//! drive loop that moves any simulated number fails here. On a mismatch
//! the assertion prints the run's actual pin.

use xcache_core::XCacheConfig;
use xcache_dsa::graphpulse::{self, GraphPulseWorkload};
use xcache_dsa::spgemm::{self, Algorithm, SpgemmWorkload};
use xcache_dsa::widx::{self, WidxWorkload};
use xcache_dsa::RunReport;
use xcache_workloads::{CsrMatrix, GraphPreset, QueryClass, SparsePattern};

/// The expected outcome of one run.
struct Pin {
    cycles: u64,
    checksum: u64,
    /// Every counter, in name order.
    counters: &'static [(&'static str, u64)],
}

fn render(r: &RunReport) -> String {
    let mut out = format!(
        "Pin {{\n    cycles: {},\n    checksum: {},\n    counters: &[\n",
        r.cycles, r.checksum
    );
    for (k, v) in &r.stats.counters {
        out.push_str(&format!("        (\"{k}\", {v}),\n"));
    }
    out.push_str("    ],\n}");
    out
}

fn assert_pinned(r: &RunReport, pin: &Pin) {
    let counters: Vec<(&str, u64)> = r
        .stats
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let matches = counters == pin.counters && r.cycles == pin.cycles && r.checksum == pin.checksum;
    assert!(matches, "{} moved; actual:\n{}", r.label, render(r));
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

fn graphpulse_cell() -> (GraphPulseWorkload, XCacheConfig) {
    let g = XCacheConfig {
        sets: 256,
        ways: 1,
        active: 8,
        exe: 4,
        words_per_sector: 8,
        data_sectors: 256,
        ..XCacheConfig::graphpulse()
    };
    (GraphPulseWorkload::new(GraphPreset::Tiny, 3, 5), g)
}

/// Fewer tag entries than vertices: batches are key-bounded and the
/// pinned set fills, so inserts are rejected and requeued.
fn graphpulse_small_cell() -> (GraphPulseWorkload, XCacheConfig) {
    let (w, g) = graphpulse_cell();
    let g = XCacheConfig {
        sets: 32,
        active: 4,
        exe: 2,
        data_sectors: 48,
        ..g
    };
    (w, g)
}

fn spgemm_workload(algorithm: Algorithm) -> SpgemmWorkload {
    let a = CsrMatrix::generate(96, 96, 700, SparsePattern::RMat, 11);
    SpgemmWorkload {
        b: a.clone(),
        a,
        algorithm,
    }
}

fn spgemm_geometry() -> XCacheConfig {
    XCacheConfig {
        sets: 32,
        ways: 4,
        active: 8,
        exe: 4,
        data_sectors: 512,
        ..XCacheConfig::sparch()
    }
}

/// A 4 KiB data RAM: rows over 32 pairs (16 per shard when split in
/// two) are refused, so walkers fault, the bypass port fetches those rows
/// and the row buffer serves repeats.
fn spgemm_bypass_geometry() -> XCacheConfig {
    XCacheConfig {
        data_sectors: 128,
        ..spgemm_geometry()
    }
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn widx_xcache() {
    let (w, g) = widx_cell();
    assert_pinned(
        &widx::run_xcache(&w, Some(g)),
        &Pin {
            cycles: 28839,
            checksum: 601035,
            counters: &[
                ("dram.bank_queue_stall", 1002),
                ("dram.bus_busy_cycles", 22224),
                ("dram.bytes", 68496),
                ("dram.reads", 2778),
                ("dram.refresh", 3),
                ("dram.requests", 2778),
                ("dram.row_conflict", 2186),
                ("dram.row_hit", 560),
                ("dram.row_miss", 32),
                ("xcache.action.agen", 4250),
                ("xcache.action.control", 8435),
                ("xcache.action.dataram", 1498),
                ("xcache.action.metatag", 2778),
                ("xcache.action.queue", 8334),
                ("xcache.data_alloc_sectors", 1757),
                ("xcache.data_read_sector", 1864),
                ("xcache.data_write_sector", 1757),
                ("xcache.dram_req", 2778),
                ("xcache.dram_req_bytes", 68496),
                ("xcache.fill_resp", 2778),
                ("xcache.hash_issue", 850),
                ("xcache.hit", 1115),
                ("xcache.insertm", 1008),
                ("xcache.launch_stall", 25959),
                ("xcache.load_to_use.count", 2000),
                ("xcache.load_to_use.max", 1575),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 3),
                ("xcache.load_to_use.p95", 1023),
                ("xcache.load_to_use.sum", 472184),
                ("xcache.meta_alloc", 1858),
                ("xcache.meta_evict", 1252),
                ("xcache.miss", 850),
                ("xcache.occupancy_reg_byte_cycles", 14531264),
                ("xcache.tag_read", 1965),
                ("xcache.tag_write", 2708),
                ("xcache.ucode_read", 25295),
                ("xcache.waiter", 35),
                ("xcache.wakeup", 4478),
                ("xcache.walk_latency.count", 749),
                ("xcache.walk_latency.max", 1573),
                ("xcache.walk_latency.min", 168),
                ("xcache.walk_latency.p50", 511),
                ("xcache.walk_latency.p95", 1023),
                ("xcache.walk_latency.sum", 403932),
                ("xcache.walker_fault", 101),
                ("xcache.walker_launch", 850),
                ("xcache.walker_lifetime.count", 850),
                ("xcache.walker_lifetime.max", 1573),
                ("xcache.walker_lifetime.min", 121),
                ("xcache.walker_lifetime.p50", 511),
                ("xcache.walker_lifetime.p95", 1023),
                ("xcache.walker_lifetime.sum", 454102),
                ("xcache.walker_retire", 749),
                ("xcache.xreg_read", 12711),
                ("xcache.xreg_write", 8106),
            ],
        },
    );
}

#[test]
fn widx_xcache_sharded() {
    let (w, g) = widx_cell();
    assert_pinned(
        &widx::run_xcache_sharded(&w, Some(g), 2),
        &Pin {
            cycles: 15185,
            checksum: 601035,
            counters: &[
                ("bank.local", 1398),
                ("bank.remote", 1407),
                ("dram.bank_queue_stall", 460),
                ("dram.bus_busy_cycles", 22440),
                ("dram.bytes", 69288),
                ("dram.reads", 2805),
                ("dram.refresh", 2),
                ("dram.requests", 2805),
                ("dram.row_conflict", 2236),
                ("dram.row_hit", 537),
                ("dram.row_miss", 32),
                ("shard.link_fault_delays", 0),
                ("shard.link_msgs", 4000),
                ("xcache.action.agen", 4265),
                ("xcache.action.control", 8516),
                ("xcache.action.dataram", 1504),
                ("xcache.action.metatag", 2805),
                ("xcache.action.queue", 8415),
                ("xcache.data_alloc_sectors", 1757),
                ("xcache.data_read_sector", 1815),
                ("xcache.data_write_sector", 1757),
                ("xcache.dram_req", 2805),
                ("xcache.dram_req_bytes", 69288),
                ("xcache.fill_resp", 2805),
                ("xcache.hash_issue", 853),
                ("xcache.hit", 1063),
                ("xcache.insertm", 1005),
                ("xcache.launch_stall", 25575),
                ("xcache.load_to_use.count", 2000),
                ("xcache.load_to_use.max", 1340),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 3),
                ("xcache.load_to_use.p95", 1023),
                ("xcache.load_to_use.sum", 487991),
                ("xcache.meta_alloc", 1858),
                ("xcache.meta_evict", 1257),
                ("xcache.miss", 853),
                ("xcache.occupancy_reg_byte_cycles", 14400384),
                ("xcache.tag_read", 1916),
                ("xcache.tag_write", 2711),
                ("xcache.ucode_read", 25505),
                ("xcache.waiter", 84),
                ("xcache.wakeup", 4511),
                ("xcache.walk_latency.count", 752),
                ("xcache.walk_latency.max", 1338),
                ("xcache.walk_latency.min", 169),
                ("xcache.walk_latency.p50", 511),
                ("xcache.walk_latency.p95", 1023),
                ("xcache.walk_latency.sum", 400255),
                ("xcache.walker_fault", 101),
                ("xcache.walker_launch", 853),
                ("xcache.walker_lifetime.count", 853),
                ("xcache.walker_lifetime.max", 1338),
                ("xcache.walker_lifetime.min", 129),
                ("xcache.walker_lifetime.p50", 511),
                ("xcache.walker_lifetime.p95", 1023),
                ("xcache.walker_lifetime.sum", 450012),
                ("xcache.walker_retire", 752),
                ("xcache.xreg_read", 12825),
                ("xcache.xreg_write", 8169),
            ],
        },
    );
}

#[test]
fn graphpulse_xcache() {
    let (w, g) = graphpulse_cell();
    assert_pinned(
        &graphpulse::run_xcache(&w, Some(g)),
        &Pin {
            cycles: 1407,
            checksum: 3033164280,
            counters: &[
                ("xcache.action.agen", 1398),
                ("xcache.action.control", 1536),
                ("xcache.action.dataram", 1536),
                ("xcache.action.metatag", 414),
                ("xcache.data_alloc_sectors", 138),
                ("xcache.data_read_sector", 138),
                ("xcache.data_read_word", 630),
                ("xcache.data_write_word", 768),
                ("xcache.launch_stall", 462),
                ("xcache.load_to_use.count", 906),
                ("xcache.load_to_use.max", 10),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 15),
                ("xcache.load_to_use.p95", 15),
                ("xcache.load_to_use.sum", 6834),
                ("xcache.meta_alloc", 138),
                ("xcache.occupancy_reg_byte_cycles", 65856),
                ("xcache.store_hit", 630),
                ("xcache.store_miss", 138),
                ("xcache.tag_read", 906),
                ("xcache.tag_write", 414),
                ("xcache.take_hit", 138),
                ("xcache.ucode_read", 4884),
                ("xcache.wakeup", 768),
                ("xcache.walk_latency.count", 768),
                ("xcache.walk_latency.max", 7),
                ("xcache.walk_latency.min", 5),
                ("xcache.walk_latency.p50", 7),
                ("xcache.walk_latency.p95", 7),
                ("xcache.walk_latency.sum", 4116),
                ("xcache.walker_launch", 768),
                ("xcache.walker_lifetime.count", 768),
                ("xcache.walker_lifetime.max", 7),
                ("xcache.walker_lifetime.min", 5),
                ("xcache.walker_lifetime.p50", 7),
                ("xcache.walker_lifetime.p95", 7),
                ("xcache.walker_lifetime.sum", 4116),
                ("xcache.walker_retire", 768),
                ("xcache.xreg_read", 1674),
                ("xcache.xreg_write", 1398),
            ],
        },
    );
}

#[test]
fn graphpulse_xcache_requeues() {
    let (w, g) = graphpulse_small_cell();
    assert_pinned(
        &graphpulse::run_xcache(&w, Some(g)),
        &Pin {
            cycles: 4086,
            checksum: 3033164280,
            counters: &[
                ("xcache.action.agen", 1062),
                ("xcache.action.control", 1623),
                ("xcache.action.dataram", 1536),
                ("xcache.action.metatag", 1770),
                ("xcache.data_alloc_sectors", 561),
                ("xcache.data_read_sector", 561),
                ("xcache.data_read_word", 207),
                ("xcache.data_write_word", 768),
                ("xcache.launch_stall", 2028),
                ("xcache.load_to_use.count", 1494),
                ("xcache.load_to_use.max", 10),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 15),
                ("xcache.load_to_use.p95", 15),
                ("xcache.load_to_use.sum", 9618),
                ("xcache.meta_alloc", 561),
                ("xcache.occupancy_reg_byte_cycles", 82176),
                ("xcache.set_pinned_full", 87),
                ("xcache.store_hit", 207),
                ("xcache.store_miss", 648),
                ("xcache.tag_read", 1494),
                ("xcache.tag_write", 1770),
                ("xcache.take_hit", 561),
                ("xcache.take_miss", 78),
                ("xcache.ucode_read", 5991),
                ("xcache.wakeup", 855),
                ("xcache.walk_latency.count", 768),
                ("xcache.walk_latency.max", 7),
                ("xcache.walk_latency.min", 5),
                ("xcache.walk_latency.p50", 7),
                ("xcache.walk_latency.p95", 7),
                ("xcache.walk_latency.sum", 4962),
                ("xcache.walker_fault", 87),
                ("xcache.walker_launch", 855),
                ("xcache.walker_lifetime.count", 855),
                ("xcache.walker_lifetime.max", 7),
                ("xcache.walker_lifetime.min", 2),
                ("xcache.walker_lifetime.p50", 7),
                ("xcache.walker_lifetime.p95", 7),
                ("xcache.walker_lifetime.sum", 5136),
                ("xcache.walker_retire", 768),
                ("xcache.xreg_read", 2097),
                ("xcache.xreg_write", 975),
            ],
        },
    );
}

#[test]
fn graphpulse_xcache_sharded() {
    let (w, g) = graphpulse_cell();
    assert_pinned(
        &graphpulse::run_xcache_sharded(&w, Some(g), 2),
        &Pin {
            cycles: 1307,
            checksum: 3033164280,
            counters: &[
                ("shard.link_fault_delays", 0),
                ("shard.link_msgs", 1812),
                ("xcache.action.agen", 1398),
                ("xcache.action.control", 1536),
                ("xcache.action.dataram", 1536),
                ("xcache.action.metatag", 414),
                ("xcache.data_alloc_sectors", 138),
                ("xcache.data_read_sector", 138),
                ("xcache.data_read_word", 630),
                ("xcache.data_write_word", 768),
                ("xcache.launch_stall", 474),
                ("xcache.load_to_use.count", 906),
                ("xcache.load_to_use.max", 10),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 15),
                ("xcache.load_to_use.p95", 15),
                ("xcache.load_to_use.sum", 6834),
                ("xcache.meta_alloc", 138),
                ("xcache.occupancy_reg_byte_cycles", 65856),
                ("xcache.store_hit", 630),
                ("xcache.store_miss", 138),
                ("xcache.tag_read", 906),
                ("xcache.tag_write", 414),
                ("xcache.take_hit", 138),
                ("xcache.ucode_read", 4884),
                ("xcache.wakeup", 768),
                ("xcache.walk_latency.count", 768),
                ("xcache.walk_latency.max", 7),
                ("xcache.walk_latency.min", 5),
                ("xcache.walk_latency.p50", 7),
                ("xcache.walk_latency.p95", 7),
                ("xcache.walk_latency.sum", 4116),
                ("xcache.walker_launch", 768),
                ("xcache.walker_lifetime.count", 768),
                ("xcache.walker_lifetime.max", 7),
                ("xcache.walker_lifetime.min", 5),
                ("xcache.walker_lifetime.p50", 7),
                ("xcache.walker_lifetime.p95", 7),
                ("xcache.walker_lifetime.sum", 4116),
                ("xcache.walker_retire", 768),
                ("xcache.xreg_read", 1674),
                ("xcache.xreg_write", 1398),
            ],
        },
    );
}

#[test]
fn graphpulse_xcache_sharded_requeues() {
    let (w, g) = graphpulse_small_cell();
    assert_pinned(
        &graphpulse::run_xcache_sharded(&w, Some(g), 2),
        &Pin {
            cycles: 12996,
            checksum: 3033164280,
            counters: &[
                ("dram.refresh", 2),
                ("shard.link_fault_delays", 0),
                ("shard.link_msgs", 3216),
                ("xcache.action.agen", 1134),
                ("xcache.action.control", 1692),
                ("xcache.action.dataram", 1536),
                ("xcache.action.metatag", 1842),
                ("xcache.data_alloc_sectors", 558),
                ("xcache.data_read_sector", 558),
                ("xcache.data_read_word", 210),
                ("xcache.data_write_word", 768),
                ("xcache.exec_stall", 12),
                ("xcache.launch_stall", 1941),
                ("xcache.load_to_use.count", 1608),
                ("xcache.load_to_use.max", 10),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 7),
                ("xcache.load_to_use.p95", 15),
                ("xcache.load_to_use.sum", 10104),
                ("xcache.meta_alloc", 558),
                ("xcache.occupancy_reg_byte_cycles", 84480),
                ("xcache.set_pinned_full", 156),
                ("xcache.store_hit", 210),
                ("xcache.store_miss", 714),
                ("xcache.tag_read", 1608),
                ("xcache.tag_write", 1842),
                ("xcache.take_hit", 558),
                ("xcache.take_miss", 126),
                ("xcache.ucode_read", 6204),
                ("xcache.wakeup", 924),
                ("xcache.walk_latency.count", 768),
                ("xcache.walk_latency.max", 7),
                ("xcache.walk_latency.min", 5),
                ("xcache.walk_latency.p50", 7),
                ("xcache.walk_latency.p95", 7),
                ("xcache.walk_latency.sum", 4956),
                ("xcache.walker_fault", 156),
                ("xcache.walker_launch", 924),
                ("xcache.walker_lifetime.count", 924),
                ("xcache.walker_lifetime.max", 7),
                ("xcache.walker_lifetime.min", 2),
                ("xcache.walker_lifetime.p50", 7),
                ("xcache.walker_lifetime.p95", 7),
                ("xcache.walker_lifetime.sum", 5280),
                ("xcache.walker_retire", 768),
                ("xcache.xreg_read", 2094),
                ("xcache.xreg_write", 978),
            ],
        },
    );
}

#[test]
fn graphpulse_address_cache() {
    let (w, g) = graphpulse_cell();
    assert_pinned(
        &graphpulse::run_address_cache(&w, Some(g)),
        &Pin {
            cycles: 2244,
            checksum: 3033164280,
            counters: &[
                ("cache.data_reads", 906),
                ("cache.data_writes", 906),
                ("cache.fills", 8),
                ("cache.hits", 1792),
                ("cache.misses", 20),
                ("cache.mshr_coalesced", 12),
                ("cache.tag_reads", 1812),
                ("dram.bus_busy_cycles", 64),
                ("dram.bytes", 512),
                ("dram.reads", 8),
                ("dram.requests", 8),
                ("dram.row_hit", 7),
                ("dram.row_miss", 1),
            ],
        },
    );
}

#[test]
fn graphpulse_baseline() {
    let (w, _) = graphpulse_cell();
    assert_pinned(
        &graphpulse::run_baseline(&w, 1),
        &Pin {
            cycles: 926,
            checksum: 3033164280,
            counters: &[("baseline.event_ops", 906)],
        },
    );
}

#[test]
fn graphpulse_sssp() {
    let (w, g) = graphpulse_small_cell();
    let (r, dist) = graphpulse::run_sssp_xcache(&w, 0, Some(g));
    assert_pinned(
        &r,
        &Pin {
            cycles: 1788,
            checksum: 3273,
            counters: &[
                ("xcache.action.agen", 363),
                ("xcache.action.control", 752),
                ("xcache.action.dataram", 606),
                ("xcache.action.metatag", 806),
                ("xcache.data_alloc_sectors", 255),
                ("xcache.data_read_sector", 255),
                ("xcache.data_read_word", 67),
                ("xcache.data_write_word", 284),
                ("xcache.launch_stall", 842),
                ("xcache.load_to_use.count", 654),
                ("xcache.load_to_use.max", 10),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 7),
                ("xcache.load_to_use.p95", 15),
                ("xcache.load_to_use.sum", 4126),
                ("xcache.meta_alloc", 255),
                ("xcache.occupancy_reg_byte_cycles", 34624),
                ("xcache.set_pinned_full", 41),
                ("xcache.store_hit", 67),
                ("xcache.store_miss", 296),
                ("xcache.tag_read", 654),
                ("xcache.tag_write", 806),
                ("xcache.take_hit", 255),
                ("xcache.take_miss", 36),
                ("xcache.ucode_read", 2527),
                ("xcache.wakeup", 363),
                ("xcache.walk_latency.count", 322),
                ("xcache.walk_latency.max", 7),
                ("xcache.walk_latency.min", 4),
                ("xcache.walk_latency.p50", 7),
                ("xcache.walk_latency.p95", 7),
                ("xcache.walk_latency.sum", 2082),
                ("xcache.walker_fault", 41),
                ("xcache.walker_launch", 363),
                ("xcache.walker_lifetime.count", 363),
                ("xcache.walker_lifetime.max", 7),
                ("xcache.walker_lifetime.min", 2),
                ("xcache.walker_lifetime.p50", 7),
                ("xcache.walker_lifetime.p95", 7),
                ("xcache.walker_lifetime.sum", 2164),
                ("xcache.walker_retire", 322),
                ("xcache.xreg_read", 832),
                ("xcache.xreg_write", 322),
            ],
        },
    );
    assert_eq!(fnv(dist), 10_006_014_459_347_726_112, "distances moved");
}

#[test]
fn spgemm_gustavson_xcache() {
    let w = spgemm_workload(Algorithm::Gustavson);
    assert_pinned(
        &spgemm::run_xcache(&w, Some(spgemm_geometry())),
        &Pin {
            cycles: 6957,
            checksum: 220332342008269353,
            counters: &[
                ("dram.bank_queue_stall", 622),
                ("dram.bus_busy_cycles", 4416),
                ("dram.bytes", 29200),
                ("dram.reads", 252),
                ("dram.requests", 252),
                ("dram.row_conflict", 54),
                ("dram.row_hit", 190),
                ("dram.row_miss", 8),
                ("stream.bytes", 16800),
                ("stream.fetch", 88),
                ("xcache.action.agen", 1108),
                ("xcache.action.control", 402),
                ("xcache.action.dataram", 156),
                ("xcache.action.metatag", 160),
                ("xcache.action.queue", 402),
                ("xcache.data_alloc_sectors", 364),
                ("xcache.data_read_sector", 6420),
                ("xcache.data_write_sector", 364),
                ("xcache.dram_req", 160),
                ("xcache.dram_req_bytes", 12336),
                ("xcache.fill_resp", 160),
                ("xcache.hit", 589),
                ("xcache.launch_stall", 4272),
                ("xcache.load_to_use.count", 700),
                ("xcache.load_to_use.max", 970),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 15),
                ("xcache.load_to_use.p95", 511),
                ("xcache.load_to_use.sum", 56525),
                ("xcache.meta_alloc", 82),
                ("xcache.miss", 82),
                ("xcache.occupancy_reg_byte_cycles", 1981488),
                ("xcache.tag_read", 671),
                ("xcache.tag_write", 164),
                ("xcache.ucode_read", 2228),
                ("xcache.waiter", 29),
                ("xcache.wakeup", 242),
                ("xcache.walk_latency.count", 78),
                ("xcache.walk_latency.max", 963),
                ("xcache.walk_latency.min", 247),
                ("xcache.walk_latency.p50", 511),
                ("xcache.walk_latency.p95", 1023),
                ("xcache.walk_latency.sum", 39691),
                ("xcache.walker_fault", 4),
                ("xcache.walker_launch", 82),
                ("xcache.walker_lifetime.count", 82),
                ("xcache.walker_lifetime.max", 963),
                ("xcache.walker_lifetime.min", 247),
                ("xcache.walker_lifetime.p50", 511),
                ("xcache.walker_lifetime.p95", 1023),
                ("xcache.walker_lifetime.sum", 41281),
                ("xcache.walker_retire", 78),
                ("xcache.xreg_read", 1892),
                ("xcache.xreg_write", 1268),
            ],
        },
    );
}

#[test]
fn spgemm_outer_product_xcache() {
    let w = spgemm_workload(Algorithm::OuterProduct);
    assert_pinned(
        &spgemm::run_xcache(&w, Some(spgemm_geometry())),
        &Pin {
            cycles: 5131,
            checksum: 220332342008269353,
            counters: &[
                ("dram.bus_busy_cycles", 4408),
                ("dram.bytes", 29184),
                ("dram.reads", 251),
                ("dram.requests", 251),
                ("dram.row_conflict", 18),
                ("dram.row_hit", 225),
                ("dram.row_miss", 8),
                ("stream.bytes", 16800),
                ("stream.fetch", 88),
                ("xcache.action.agen", 1104),
                ("xcache.action.control", 399),
                ("xcache.action.dataram", 156),
                ("xcache.action.metatag", 159),
                ("xcache.action.queue", 399),
                ("xcache.data_alloc_sectors", 364),
                ("xcache.data_read_sector", 364),
                ("xcache.data_write_sector", 364),
                ("xcache.dram_req", 159),
                ("xcache.dram_req_bytes", 12320),
                ("xcache.fill_resp", 159),
                ("xcache.launch_stall", 2245),
                ("xcache.load_to_use.count", 700),
                ("xcache.load_to_use.max", 632),
                ("xcache.load_to_use.min", 143),
                ("xcache.load_to_use.p50", 511),
                ("xcache.load_to_use.p95", 1023),
                ("xcache.load_to_use.sum", 273189),
                ("xcache.meta_alloc", 81),
                ("xcache.miss", 81),
                ("xcache.occupancy_reg_byte_cycles", 1449936),
                ("xcache.tag_read", 81),
                ("xcache.tag_write", 162),
                ("xcache.ucode_read", 2217),
                ("xcache.waiter", 619),
                ("xcache.wakeup", 240),
                ("xcache.walk_latency.count", 78),
                ("xcache.walk_latency.max", 629),
                ("xcache.walk_latency.min", 191),
                ("xcache.walk_latency.p50", 511),
                ("xcache.walk_latency.p95", 1023),
                ("xcache.walk_latency.sum", 29479),
                ("xcache.walker_fault", 3),
                ("xcache.walker_launch", 81),
                ("xcache.walker_lifetime.count", 81),
                ("xcache.walker_lifetime.max", 629),
                ("xcache.walker_lifetime.min", 140),
                ("xcache.walker_lifetime.p50", 511),
                ("xcache.walker_lifetime.p95", 1023),
                ("xcache.walker_lifetime.sum", 30207),
                ("xcache.walker_retire", 78),
                ("xcache.xreg_read", 1887),
                ("xcache.xreg_write", 1263),
            ],
        },
    );
}

#[test]
fn spgemm_gustavson_xcache_bypass() {
    let w = spgemm_workload(Algorithm::Gustavson);
    assert_pinned(
        &spgemm::run_xcache(&w, Some(spgemm_bypass_geometry())),
        &Pin {
            cycles: 13112,
            checksum: 220332342008269353,
            counters: &[
                ("dram.bank_queue_stall", 1150),
                ("dram.bus_busy_cycles", 10080),
                ("dram.bytes", 57392),
                ("dram.reads", 725),
                ("dram.refresh", 1),
                ("dram.requests", 725),
                ("dram.row_conflict", 51),
                ("dram.row_hit", 660),
                ("dram.row_miss", 14),
                ("stream.bytes", 16800),
                ("stream.fetch", 88),
                ("xcache.action.agen", 4241),
                ("xcache.action.control", 1656),
                ("xcache.action.dataram", 560),
                ("xcache.action.metatag", 625),
                ("xcache.action.queue", 1595),
                ("xcache.capacity_evict", 267),
                ("xcache.data_alloc_sectors", 1076),
                ("xcache.data_read_sector", 3183),
                ("xcache.data_write_sector", 1076),
                ("xcache.dram_req", 625),
                ("xcache.dram_req_bytes", 37968),
                ("xcache.fill_resp", 625),
                ("xcache.hit", 217),
                ("xcache.launch_stall", 12055),
                ("xcache.load_to_use.count", 700),
                ("xcache.load_to_use.max", 1109),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 255),
                ("xcache.load_to_use.p95", 511),
                ("xcache.load_to_use.sum", 128097),
                ("xcache.meta_alloc", 345),
                ("xcache.miss", 345),
                ("xcache.occupancy_reg_byte_cycles", 4948032),
                ("xcache.tag_read", 562),
                ("xcache.tag_write", 957),
                ("xcache.ucode_read", 8677),
                ("xcache.waiter", 138),
                ("xcache.wakeup", 970),
                ("xcache.walk_latency.count", 280),
                ("xcache.walk_latency.max", 1105),
                ("xcache.walk_latency.min", 183),
                ("xcache.walk_latency.p50", 255),
                ("xcache.walk_latency.p95", 1023),
                ("xcache.walk_latency.sum", 89180),
                ("xcache.walker_fault", 65),
                ("xcache.walker_launch", 345),
                ("xcache.walker_lifetime.count", 345),
                ("xcache.walker_lifetime.max", 1105),
                ("xcache.walker_lifetime.min", 139),
                ("xcache.walker_lifetime.p50", 255),
                ("xcache.walker_lifetime.p95", 1023),
                ("xcache.walker_lifetime.sum", 103084),
                ("xcache.walker_retire", 280),
                ("xcache.xreg_read", 7167),
                ("xcache.xreg_write", 4866),
            ],
        },
    );
}

/// The outer-product run on the 128-sector RAM: every waiter on a hub
/// column faults at once and the bypass port holds resolved row reads
/// while it drains the queued pointer reads.
#[test]
fn spgemm_outer_product_xcache_bypass() {
    let w = spgemm_workload(Algorithm::OuterProduct);
    assert_pinned(
        &spgemm::run_xcache(&w, Some(spgemm_bypass_geometry())),
        &Pin {
            cycles: 18506,
            checksum: 220332342008269353,
            counters: &[
                ("dram.bank_queue_stall", 14585),
                ("dram.bus_busy_cycles", 15352),
                ("dram.bytes", 108672),
                ("dram.input_stall", 40926),
                ("dram.reads", 494),
                ("dram.refresh", 2),
                ("dram.requests", 494),
                ("dram.row_conflict", 12),
                ("dram.row_hit", 467),
                ("dram.row_miss", 15),
                ("stream.bytes", 16800),
                ("stream.fetch", 88),
                ("stream.port_stall", 2205),
                ("xcache.action.agen", 1073),
                ("xcache.action.control", 399),
                ("xcache.action.dataram", 148),
                ("xcache.action.metatag", 156),
                ("xcache.action.queue", 39115),
                ("xcache.capacity_evict", 57),
                ("xcache.data_alloc_sectors", 285),
                ("xcache.data_read_sector", 285),
                ("xcache.data_write_sector", 285),
                ("xcache.dram_req", 156),
                ("xcache.dram_req_bytes", 9840),
                ("xcache.exec_stall", 38721),
                ("xcache.fill_resp", 156),
                ("xcache.launch_stall", 11687),
                ("xcache.load_to_use.count", 700),
                ("xcache.load_to_use.max", 9399),
                ("xcache.load_to_use.min", 47),
                ("xcache.load_to_use.p50", 1023),
                ("xcache.load_to_use.p95", 8191),
                ("xcache.load_to_use.sum", 1540210),
                ("xcache.meta_alloc", 82),
                ("xcache.miss", 82),
                ("xcache.occupancy_reg_byte_cycles", 5948688),
                ("xcache.tag_read", 82),
                ("xcache.tag_write", 221),
                ("xcache.ucode_read", 40891),
                ("xcache.waiter", 618),
                ("xcache.wakeup", 238),
                ("xcache.walk_latency.count", 74),
                ("xcache.walk_latency.max", 9392),
                ("xcache.walk_latency.min", 196),
                ("xcache.walk_latency.p50", 1023),
                ("xcache.walk_latency.p95", 8191),
                ("xcache.walk_latency.sum", 109287),
                ("xcache.walker_fault", 8),
                ("xcache.walker_launch", 82),
                ("xcache.walker_lifetime.count", 82),
                ("xcache.walker_lifetime.max", 9392),
                ("xcache.walker_lifetime.min", 44),
                ("xcache.walker_lifetime.p50", 1023),
                ("xcache.walker_lifetime.p95", 8191),
                ("xcache.walker_lifetime.sum", 123931),
                ("xcache.walker_retire", 74),
                ("xcache.xreg_read", 55167),
                ("xcache.xreg_write", 1229),
            ],
        },
    );
}

#[test]
fn spgemm_gustavson_xcache_sharded() {
    let w = spgemm_workload(Algorithm::Gustavson);
    assert_pinned(
        &spgemm::run_xcache_sharded(&w, Some(spgemm_geometry()), 2),
        &Pin {
            cycles: 4073,
            checksum: 220332342008269353,
            counters: &[
                ("bank.local", 78),
                ("bank.remote", 82),
                ("dram.bus_busy_cycles", 2312),
                ("dram.bytes", 12400),
                ("dram.reads", 164),
                ("dram.requests", 164),
                ("dram.row_hit", 151),
                ("dram.row_miss", 13),
                ("shard.link_fault_delays", 0),
                ("shard.link_msgs", 1400),
                ("xcache.action.agen", 1108),
                ("xcache.action.control", 402),
                ("xcache.action.dataram", 156),
                ("xcache.action.metatag", 160),
                ("xcache.action.queue", 402),
                ("xcache.data_alloc_sectors", 364),
                ("xcache.data_read_sector", 6195),
                ("xcache.data_write_sector", 364),
                ("xcache.dram_req", 160),
                ("xcache.dram_req_bytes", 12336),
                ("xcache.fill_resp", 160),
                ("xcache.hit", 535),
                ("xcache.launch_stall", 2055),
                ("xcache.load_to_use.count", 700),
                ("xcache.load_to_use.max", 545),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 31),
                ("xcache.load_to_use.p95", 511),
                ("xcache.load_to_use.sum", 41324),
                ("xcache.meta_alloc", 82),
                ("xcache.miss", 82),
                ("xcache.occupancy_reg_byte_cycles", 1089936),
                ("xcache.tag_read", 617),
                ("xcache.tag_write", 164),
                ("xcache.ucode_read", 2228),
                ("xcache.waiter", 83),
                ("xcache.wakeup", 242),
                ("xcache.walk_latency.count", 78),
                ("xcache.walk_latency.max", 527),
                ("xcache.walk_latency.min", 154),
                ("xcache.walk_latency.p50", 511),
                ("xcache.walk_latency.p95", 511),
                ("xcache.walk_latency.sum", 21961),
                ("xcache.walker_fault", 4),
                ("xcache.walker_launch", 82),
                ("xcache.walker_lifetime.count", 82),
                ("xcache.walker_lifetime.max", 527),
                ("xcache.walker_lifetime.min", 135),
                ("xcache.walker_lifetime.p50", 511),
                ("xcache.walker_lifetime.p95", 511),
                ("xcache.walker_lifetime.sum", 22707),
                ("xcache.walker_retire", 78),
                ("xcache.xreg_read", 1892),
                ("xcache.xreg_write", 1268),
            ],
        },
    );
}

#[test]
fn spgemm_outer_product_xcache_sharded_bypass() {
    let w = spgemm_workload(Algorithm::OuterProduct);
    assert_pinned(
        &spgemm::run_xcache_sharded(&w, Some(spgemm_bypass_geometry()), 2),
        &Pin {
            cycles: 27075,
            checksum: 220332342008269353,
            counters: &[
                ("bank.local", 75),
                ("bank.remote", 73),
                ("dram.bank_queue_stall", 26098),
                ("dram.bus_busy_cycles", 24032),
                ("dram.bytes", 165760),
                ("dram.reads", 760),
                ("dram.refresh", 9),
                ("dram.requests", 760),
                ("dram.row_hit", 736),
                ("dram.row_miss", 24),
                ("shard.link_fault_delays", 0),
                ("shard.link_msgs", 1400),
                ("xcache.action.agen", 1001),
                ("xcache.action.control", 391),
                ("xcache.action.dataram", 132),
                ("xcache.action.metatag", 148),
                ("xcache.action.queue", 378),
                ("xcache.capacity_evict", 41),
                ("xcache.data_alloc_sectors", 201),
                ("xcache.data_read_sector", 201),
                ("xcache.data_write_sector", 201),
                ("xcache.dram_req", 148),
                ("xcache.dram_req_bytes", 7200),
                ("xcache.fill_resp", 148),
                ("xcache.launch_stall", 1391),
                ("xcache.load_to_use.count", 700),
                ("xcache.load_to_use.max", 292),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 255),
                ("xcache.load_to_use.p95", 511),
                ("xcache.load_to_use.sum", 121685),
                ("xcache.meta_alloc", 82),
                ("xcache.miss", 82),
                ("xcache.occupancy_reg_byte_cycles", 820608),
                ("xcache.tag_read", 82),
                ("xcache.tag_write", 205),
                ("xcache.ucode_read", 2050),
                ("xcache.waiter", 618),
                ("xcache.wakeup", 230),
                ("xcache.walk_latency.count", 66),
                ("xcache.walk_latency.max", 290),
                ("xcache.walk_latency.min", 112),
                ("xcache.walk_latency.p50", 255),
                ("xcache.walk_latency.p95", 511),
                ("xcache.walk_latency.sum", 14895),
                ("xcache.walker_fault", 16),
                ("xcache.walker_launch", 82),
                ("xcache.walker_lifetime.count", 82),
                ("xcache.walker_lifetime.max", 290),
                ("xcache.walker_lifetime.min", 42),
                ("xcache.walker_lifetime.p50", 255),
                ("xcache.walker_lifetime.p95", 511),
                ("xcache.walker_lifetime.sum", 17096),
                ("xcache.walker_retire", 66),
                ("xcache.xreg_read", 1690),
                ("xcache.xreg_write", 1149),
            ],
        },
    );
}

#[test]
fn spgemm_gustavson_baseline() {
    let w = spgemm_workload(Algorithm::Gustavson);
    assert_pinned(
        &spgemm::run_baseline(&w, Some(spgemm_geometry())),
        &Pin {
            cycles: 6957,
            checksum: 220332342008269353,
            counters: &[
                ("dram.bank_queue_stall", 624),
                ("dram.bus_busy_cycles", 4416),
                ("dram.bytes", 29200),
                ("dram.reads", 252),
                ("dram.requests", 252),
                ("dram.row_conflict", 54),
                ("dram.row_hit", 190),
                ("dram.row_miss", 8),
                ("stream.bytes", 16800),
                ("stream.fetch", 88),
                ("xcache.action.agen", 1108),
                ("xcache.action.control", 402),
                ("xcache.action.dataram", 156),
                ("xcache.action.metatag", 160),
                ("xcache.action.queue", 402),
                ("xcache.data_alloc_sectors", 364),
                ("xcache.data_read_sector", 6420),
                ("xcache.data_write_sector", 364),
                ("xcache.dram_req", 160),
                ("xcache.dram_req_bytes", 12336),
                ("xcache.fill_resp", 160),
                ("xcache.hit", 589),
                ("xcache.launch_stall", 4270),
                ("xcache.load_to_use.count", 700),
                ("xcache.load_to_use.max", 970),
                ("xcache.load_to_use.min", 3),
                ("xcache.load_to_use.p50", 15),
                ("xcache.load_to_use.p95", 511),
                ("xcache.load_to_use.sum", 56533),
                ("xcache.meta_alloc", 82),
                ("xcache.miss", 82),
                ("xcache.occupancy_reg_byte_cycles", 1981872),
                ("xcache.tag_read", 671),
                ("xcache.tag_write", 164),
                ("xcache.ucode_read", 2228),
                ("xcache.waiter", 29),
                ("xcache.wakeup", 242),
                ("xcache.walk_latency.count", 78),
                ("xcache.walk_latency.max", 963),
                ("xcache.walk_latency.min", 247),
                ("xcache.walk_latency.p50", 511),
                ("xcache.walk_latency.p95", 1023),
                ("xcache.walk_latency.sum", 39699),
                ("xcache.walker_fault", 4),
                ("xcache.walker_launch", 82),
                ("xcache.walker_lifetime.count", 82),
                ("xcache.walker_lifetime.max", 963),
                ("xcache.walker_lifetime.min", 247),
                ("xcache.walker_lifetime.p50", 511),
                ("xcache.walker_lifetime.p95", 1023),
                ("xcache.walker_lifetime.sum", 41289),
                ("xcache.walker_retire", 78),
                ("xcache.xreg_read", 1892),
                ("xcache.xreg_write", 1268),
            ],
        },
    );
}
