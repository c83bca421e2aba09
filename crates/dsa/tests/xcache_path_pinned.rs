//! Absolute timing pins for every DSA drive: the X-Cache single-controller
//! and sharded runs of Widx, GraphPulse and SpGEMM, GraphPulse's SSSP
//! run, and the address-cache and hardwired-baseline runs, which
//! `ProbeEngine` drives over an `AddressCache` and the DRAM model.
//!
//! The differential suites only show that these runs agree across skip,
//! job and thread modes and with the functional oracles, and that X-Cache
//! beats the address cache; nothing else fixes their cycle counts. Each
//! test records one small cell as `cycles`, `checksum` and then one
//! `counter value` line per counter in name order, and checks it against
//! its snapshot under `tests/snapshots/xcache_path_pinned/`. A rewrite of
//! a drive loop, the probe engine, the address cache or the DRAM request
//! path that moves any simulated number fails here.

#[path = "../../../tests/support/snapshot.rs"]
mod snapshot;

use std::fmt::Write;

use xcache_core::XCacheConfig;
use xcache_dsa::graphpulse::{self, GraphPulseWorkload};
use xcache_dsa::spgemm::{self, Algorithm, SpgemmWorkload};
use xcache_dsa::widx::{self, WidxWorkload};
use xcache_dsa::{dasx, RunReport};
use xcache_mem::{CacheConfig, ReplacementPolicy};
use xcache_workloads::{CsrMatrix, GraphPreset, QueryClass, SparsePattern};

/// `r` as snapshot text: cycles, checksum, then every counter.
fn text(r: &RunReport) -> String {
    let mut out = format!("cycles {}\nchecksum {}\n", r.cycles, r.checksum);
    for (k, v) in &r.stats.counters {
        let _ = writeln!(out, "{k} {v}");
    }
    out
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

#[test]
fn widx_xcache() {
    let (w, g) = widx_cell();
    snapshot::check("widx_xcache", &text(&widx::run_xcache(&w, Some(g))));
}

#[test]
fn widx_xcache_sharded() {
    let (w, g) = widx_cell();
    let r = widx::run_xcache_sharded(&w, Some(g), 2);
    snapshot::check("widx_xcache_sharded", &text(&r));
}

#[test]
fn graphpulse_xcache() {
    let (w, g) = graphpulse_cell();
    let r = graphpulse::run_xcache(&w, Some(g));
    snapshot::check("graphpulse_xcache", &text(&r));
}

#[test]
fn graphpulse_xcache_requeues() {
    let (w, g) = graphpulse_small_cell();
    let r = graphpulse::run_xcache(&w, Some(g));
    snapshot::check("graphpulse_xcache_requeues", &text(&r));
}

#[test]
fn graphpulse_xcache_sharded() {
    let (w, g) = graphpulse_cell();
    let r = graphpulse::run_xcache_sharded(&w, Some(g), 2);
    snapshot::check("graphpulse_xcache_sharded", &text(&r));
}

#[test]
fn graphpulse_xcache_sharded_requeues() {
    let (w, g) = graphpulse_small_cell();
    let r = graphpulse::run_xcache_sharded(&w, Some(g), 2);
    snapshot::check("graphpulse_xcache_sharded_requeues", &text(&r));
}

#[test]
fn graphpulse_address_cache() {
    let (w, g) = graphpulse_cell();
    let r = graphpulse::run_address_cache(&w, Some(g));
    snapshot::check("graphpulse_address_cache", &text(&r));
}

#[test]
fn graphpulse_baseline() {
    let (w, _) = graphpulse_cell();
    let r = graphpulse::run_baseline(&w, 1);
    snapshot::check("graphpulse_baseline", &text(&r));
}

/// The report, then one `distance.<vertex> <distance>` line per vertex.
#[test]
fn graphpulse_sssp() {
    let (w, g) = graphpulse_small_cell();
    let (r, dist) = graphpulse::run_sssp_xcache(&w, 0, Some(g));
    let mut out = text(&r);
    for (v, d) in dist.iter().enumerate() {
        let _ = writeln!(out, "distance.{v} {d}");
    }
    snapshot::check("graphpulse_sssp", &out);
}

#[test]
fn spgemm_gustavson_xcache() {
    let w = spgemm_workload(Algorithm::Gustavson);
    let r = spgemm::run_xcache(&w, Some(spgemm_geometry()));
    snapshot::check("spgemm_gustavson_xcache", &text(&r));
}

#[test]
fn spgemm_outer_product_xcache() {
    let w = spgemm_workload(Algorithm::OuterProduct);
    let r = spgemm::run_xcache(&w, Some(spgemm_geometry()));
    snapshot::check("spgemm_outer_product_xcache", &text(&r));
}

#[test]
fn spgemm_gustavson_xcache_bypass() {
    let w = spgemm_workload(Algorithm::Gustavson);
    let r = spgemm::run_xcache(&w, Some(spgemm_bypass_geometry()));
    snapshot::check("spgemm_gustavson_xcache_bypass", &text(&r));
}

/// The outer-product run on the 128-sector RAM: every waiter on a hub
/// column faults at once and the bypass port holds resolved row reads
/// while it drains the queued pointer reads.
#[test]
fn spgemm_outer_product_xcache_bypass() {
    let w = spgemm_workload(Algorithm::OuterProduct);
    let r = spgemm::run_xcache(&w, Some(spgemm_bypass_geometry()));
    snapshot::check("spgemm_outer_product_xcache_bypass", &text(&r));
}

#[test]
fn spgemm_gustavson_xcache_sharded() {
    let w = spgemm_workload(Algorithm::Gustavson);
    let r = spgemm::run_xcache_sharded(&w, Some(spgemm_geometry()), 2);
    snapshot::check("spgemm_gustavson_xcache_sharded", &text(&r));
}

#[test]
fn spgemm_outer_product_xcache_sharded_bypass() {
    let w = spgemm_workload(Algorithm::OuterProduct);
    let r = spgemm::run_xcache_sharded(&w, Some(spgemm_bypass_geometry()), 2);
    snapshot::check("spgemm_outer_product_xcache_sharded_bypass", &text(&r));
}

#[test]
fn spgemm_gustavson_baseline() {
    let w = spgemm_workload(Algorithm::Gustavson);
    let r = spgemm::run_baseline(&w, Some(spgemm_geometry()));
    snapshot::check("spgemm_gustavson_baseline", &text(&r));
}

#[test]
fn widx_address_cache() {
    let (w, g) = widx_cell();
    let r = widx::run_address_cache(&w, Some(g));
    snapshot::check("widx_address_cache", &text(&r));
}

#[test]
fn widx_baseline() {
    let (w, g) = widx_cell();
    snapshot::check("widx_baseline", &text(&widx::run_baseline(&w, Some(g))));
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
    let r = widx::run_address_cache_with_policy(&w, &wide, cfg);
    snapshot::check("widx_port_stalls", &text(&r));
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
    let r = dasx::run_address_cache(&w, Some(g));
    snapshot::check("dasx_address_cache", &text(&r));
}

#[test]
fn spgemm_gustavson_address_cache() {
    let w = spgemm_workload(Algorithm::Gustavson);
    let r = spgemm::run_address_cache(&w, Some(spgemm_geometry()));
    snapshot::check("spgemm_gustavson_address_cache", &text(&r));
}

#[test]
fn spgemm_outer_product_address_cache() {
    let w = spgemm_workload(Algorithm::OuterProduct);
    let r = spgemm::run_address_cache(&w, Some(spgemm_geometry()));
    snapshot::check("spgemm_outer_product_address_cache", &text(&r));
}
