//! DASX — a hardware iterator over software data structures (Kumar et
//! al., ICS'15), §5/§7.2 of the X-Cache paper.
//!
//! We model the hash-table workload the paper evaluates: DASX's collector
//! runs ahead of the compute unit, refilling a set of objects (keys) into
//! an object cache; compute then hits. "DASX is similar to the Widx,
//! except the hashing is coupled with walking, so X-Cache's gains are
//! higher" (§8.1) — in the baseline and address-cache variants every chain
//! step pays a hash-unit delay, whereas the X-Cache walker hashes once and
//! hits skip hashing entirely.
//!
//! The data structure, layouts and walker are shared with [`crate::widx`];
//! only the geometry (Table 3: 16/4/8/1024/4), the hash cost (cheap keys)
//! and the coupled-walk delay differ.

use xcache_core::XCacheConfig;
use xcache_workloads::TpchPreset;

use crate::common::RunReport;
use crate::widx::{self, WidxWorkload};

/// DASX's hash-unit latency (integer keys; coupled into every walk step).
pub const DASX_HASH_LATENCY: u64 = 12;

/// A materialised DASX workload (a hash-table iteration).
#[derive(Debug, Clone)]
pub struct DasxWorkload(pub WidxWorkload);

impl DasxWorkload {
    /// Materialises a TPC-H preset with DASX's hash cost.
    #[must_use]
    pub fn from_preset(preset: &TpchPreset, seed: u64) -> Self {
        let mut inner = WidxWorkload::from_preset(preset, seed);
        inner.hash_latency = DASX_HASH_LATENCY;
        DasxWorkload(inner)
    }

    /// Oracle checksum (sum of rids of present probes).
    #[must_use]
    pub fn oracle_checksum(&self) -> u64 {
        self.0.oracle_checksum()
    }
}

/// Runs the X-Cache configuration (Table 3 DASX geometry by default).
///
/// # Panics
///
/// Panics on deadlock or oracle divergence.
#[must_use]
pub fn run_xcache(workload: &DasxWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    widx::run_xcache(
        &workload.0,
        Some(geometry.unwrap_or_else(XCacheConfig::dasx)),
    )
}

/// Runs the matched address-based cache with an ideal walker. The walk is
/// hash-coupled: every chain step pays the hash latency again.
#[must_use]
pub fn run_address_cache(workload: &DasxWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let g = geometry.unwrap_or_else(XCacheConfig::dasx);
    widx::run_probe_engine_with(
        &workload.0,
        "addr-cache",
        widx::matched_address_cache_config(&g),
        g.active,
        DASX_HASH_LATENCY, // coupled hashing on every node step
    )
}

/// Runs the hardwired DASX baseline: the collector's eight walk units with
/// hash-coupled chain steps over the object (address) cache.
#[must_use]
pub fn run_baseline(workload: &DasxWorkload, geometry: Option<XCacheConfig>) -> RunReport {
    let g = geometry.unwrap_or_else(XCacheConfig::dasx);
    widx::run_probe_engine_with(
        &workload.0,
        "baseline",
        widx::matched_address_cache_config(&g),
        8,
        DASX_HASH_LATENCY,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcache_workloads::QueryClass;

    fn small() -> (DasxWorkload, XCacheConfig) {
        let mut preset = QueryClass::Q22.preset().scaled_down(10);
        preset.probes = 6_000;
        preset.miss_rate = 0.05;
        let w = DasxWorkload::from_preset(&preset, 3);
        let g = XCacheConfig {
            sets: 128,
            ways: 4,
            data_sectors: 512,
            ..XCacheConfig::dasx()
        };
        (w, g)
    }

    #[test]
    fn all_variants_match_oracle() {
        let (w, g) = small();
        let x = run_xcache(&w, Some(g.clone()));
        let a = run_address_cache(&w, Some(g.clone()));
        let b = run_baseline(&w, Some(g));
        assert_eq!(x.checksum, w.oracle_checksum());
        assert_eq!(a.checksum, w.oracle_checksum());
        assert_eq!(b.checksum, w.oracle_checksum());
    }

    #[test]
    fn coupled_hashing_widens_xcache_gain_vs_widx() {
        // Same workload shape, same hash cost: DASX couples the hash into
        // every chain step for the non-X-Cache designs, so X-Cache's
        // speedup must exceed the uncoupled (Widx-style) speedup.
        let (w, g) = small();
        let x = run_xcache(&w, Some(g.clone()));
        let dasx_speedup = x.speedup_over(&run_address_cache(&w, Some(g.clone())));
        let cache = widx::matched_address_cache_config(&g);
        let widx_addr = widx::run_probe_engine_with(&w.0, "addr", cache, g.active, 0);
        let widx_speedup = x.speedup_over(&widx_addr);
        assert!(
            dasx_speedup > widx_speedup,
            "coupled hashing should widen the gap ({dasx_speedup:.2} vs {widx_speedup:.2})"
        );
    }

    #[test]
    fn xcache_beats_baseline() {
        let (w, g) = small();
        let x = run_xcache(&w, Some(g.clone()));
        let b = run_baseline(&w, Some(g));
        assert!(
            x.speedup_over(&b) > 1.2,
            "x-cache should beat hardwired DASX (got {:.2})",
            x.speedup_over(&b)
        );
    }
}
