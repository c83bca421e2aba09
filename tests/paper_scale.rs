//! Paper-scale smoke runs: Table 3 geometries against unscaled (or
//! quarter-scale) inputs. All three take seconds in the test profile.

use xcache_core::XCacheConfig;
use xcache_dsa::{graphpulse, spgemm, widx};
use xcache_workloads::{GraphPreset, QueryClass};

#[test]
fn widx_paper_geometry_full_query() {
    // Full Table 3 geometry (1024 sets x 8 ways x 2 sectors x 32 B =
    // 512 KB) against the unscaled TPC-H-19 preset (20K keys, 90K probes).
    let mut preset = QueryClass::Q19.preset();
    preset.probes *= 3;
    let w = widx::WidxWorkload::from_preset(&preset, 7);
    let x = widx::run_xcache(&w, None);
    let a = widx::run_address_cache(&w, None);
    assert_eq!(x.checksum, w.oracle_checksum());
    // ~1.2x at this probe-to-key ratio (compulsory misses are a larger
    // share than in the amortised harness runs); the win must persist.
    assert!(
        x.speedup_over(&a) > 1.1,
        "paper-scale speedup degraded: {:.2}",
        x.speedup_over(&a)
    );
}

#[test]
fn graphpulse_p2p08_full_graph() {
    // The real p2p-Gnutella08 dimensions (6.3K vertices, 21K edges) on the
    // Table 3 geometry (131072 direct-mapped sets — everything coalesces).
    let w = graphpulse::GraphPulseWorkload::new(GraphPreset::P2pGnutella08, 2, 7);
    let r = graphpulse::run_xcache(&w, None);
    assert_eq!(r.stats.get("dram.reads"), 0);
    assert!(r.stats.get("xcache.store_hit") > 0);
}

#[test]
fn gamma_p2p31_quarter_scale() {
    // A quarter of p2p-Gnutella31 (16.7K x 16.7K, ~37K nnz) through the
    // Table 3 SpArch/Gamma geometry, verified against the exact product.
    let w = spgemm::SpgemmWorkload::paper_like(spgemm::Algorithm::Gustavson, 4, 7);
    let r = spgemm::run_xcache(&w, Some(XCacheConfig::gamma()));
    assert_eq!(r.checksum, w.oracle_checksum());
}
