//! Ablations the paper does not run: the comparison address cache's
//! replacement policy and prefetcher, the §6 hierarchy compositions, and
//! the Widx walker's chain-node side-caching.

use xcache_core::hierarchy::{MetaL1, MetaL1Config, MetaPort};
use xcache_core::{MetaAccess, MetaKey, XCache, XCacheConfig};
use xcache_dsa::common::apply_image;
use xcache_dsa::{widx, RunReport};
use xcache_mem::{AddressCache, DramConfig, DramModel, MainMemory, ReplacementPolicy};
use xcache_workloads::hashidx::NODE_BYTES;
use xcache_workloads::QueryClass;

use super::query_cells;
use crate::fuzz::drive;
use crate::registry::Report;
use crate::{note_sim_cycles, pct, widx_geometry, widx_workload, Knobs, Scenario};

/// Ablation 1: replacement policy of the comparison address cache (LRU /
/// FIFO / random) on the Widx probe stream.
///
/// Not in the paper (it fixes LRU); this quantifies how much the §8
/// comparison depends on that choice.
pub(super) fn abl01_replacement(k: &Knobs) -> Result<Report, String> {
    const HEADERS: [&str; 4] = ["policy", "addr-cache cyc", "addr DRAM", "X-Cache speedup"];
    let scale = k.scale;
    let report = Report::titled(format!(
        "Ablation 1: address-cache replacement policy, Widx TPC-H-19 (scale 1/{scale})"
    ));
    let w = widx_workload(QueryClass::Q19, scale, 7);
    let g = widx_geometry(scale);

    // Cell 0 is the X-Cache reference; the rest sweep the policy.
    let policies = [
        ("LRU", ReplacementPolicy::Lru),
        ("FIFO", ReplacementPolicy::Fifo),
        ("Random", ReplacementPolicy::Random(42)),
    ];
    let mut cells = vec![Scenario::new("X-Cache reference", {
        let (w, g) = (&w, g.clone());
        move || widx::run_xcache(w, Some(g))
    })];
    for (label, policy) in policies {
        cells.push(Scenario::new(label, {
            let (w, g) = (&w, g.clone());
            move || {
                let mut cache_cfg = widx::matched_address_cache_config(&g);
                cache_cfg.policy = policy;
                widx::run_address_cache_with_policy(w, &g, cache_cfg)
            }
        }));
    }
    let mut results = k.runner.run(cells);
    note_sim_cycles(results.iter().map(|r| r.cycles).sum());
    let x = results.remove(0);
    let rows: Vec<Vec<String>> = policies
        .iter()
        .zip(&results)
        .map(|((label, _), a)| {
            vec![
                (*label).to_owned(),
                a.cycles.to_string(),
                a.dram_accesses().to_string(),
                format!("{:.2}x", x.speedup_over(a)),
            ]
        })
        .collect();
    Ok(report.table("", &HEADERS, rows).text(&format!(
        "\nX-Cache reference: {} cycles, {} DRAM accesses\n",
        x.cycles,
        x.dram_accesses()
    )))
}

/// Ablation 2: the §6 hierarchy compositions on the Widx workload —
/// plain X-Cache over DRAM, MXA (X-Cache over an address cache), and MX
/// (a walker-less MetaL1 over the X-Cache).
pub(super) fn abl02_hierarchy(k: &Knobs) -> Result<Report, String> {
    const HEADERS: [&str; 3] = ["hierarchy", "cycles", "vs plain"];
    const LABELS: [&str; 3] = [
        "X-Cache over DRAM",
        "MXA: X-Cache over A$",
        "MX: MetaL1 + X-Cache",
    ];
    let scale = k.scale;
    let report = Report::titled(format!(
        "Ablation 2: hierarchy compositions (Widx TPC-H-19, scale 1/{scale})"
    ));
    let w = widx_workload(QueryClass::Q19, scale, 7);
    let g = widx_geometry(scale);

    // Each composition is one independent cell; every cell builds its own
    // memory image from the same (deterministic) workload.
    let cells: Vec<Scenario<'_, Result<u64, String>>> = vec![
        // Plain X-Cache over DRAM (the Figure 14 configuration).
        Scenario::new(LABELS[0], {
            let (w, g) = (&w, g.clone());
            move || Ok(widx::run_xcache(w, Some(g)).cycles)
        }),
        // MXA: the walker's DRAM traffic filters through an address cache.
        Scenario::new(LABELS[1], {
            let (w, g) = (&w, g.clone());
            move || {
                let (cfg, dram) = composed_config(w, &g);
                let l2 = AddressCache::new(widx::matched_address_cache_config(&g), dram)
                    .expect("matched address-cache config is valid");
                let mut mxa = XCache::new(cfg, widx::walker(), l2).expect("mxa builds");
                run_probes(&mut mxa, w)
            }
        }),
        // MX: a small walker-less L1 in front of the X-Cache.
        Scenario::new(LABELS[2], {
            let (w, g) = (&w, g.clone());
            move || {
                let (cfg, dram) = composed_config(w, &g);
                let l2 = XCache::new(cfg, widx::walker(), dram).expect("l2 builds");
                let mut mx = MetaL1::new(
                    MetaL1Config {
                        sets: 32,
                        ways: 2,
                        words_per_sector: 4,
                        data_sectors: 64,
                        hit_latency: 1,
                        queue_depth: 16,
                    },
                    l2,
                );
                run_probes(&mut mx, w)
            }
        }),
    ];
    let cycles = k
        .runner
        .run(cells)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    note_sim_cycles(cycles.iter().sum());
    let rows: Vec<Vec<String>> = LABELS
        .iter()
        .zip(&cycles)
        .map(|(label, &c)| {
            vec![
                (*label).to_owned(),
                c.to_string(),
                format!("{:.2}x", cycles[0] as f64 / c as f64),
            ]
        })
        .collect();
    Ok(report
        .table("", &HEADERS, rows)
        .text("\n(MXA filters walker refetches; MX adds a 1-cycle hit level for hot keys)\n"))
}

/// The walker-ready X-Cache config plus a DRAM holding the workload's
/// index image, for the composed hierarchies.
fn composed_config(w: &widx::WidxWorkload, g: &XCacheConfig) -> (XCacheConfig, DramModel) {
    let layout = w.index.layout(0x10_0000);
    let mut mem = MainMemory::new();
    apply_image(&mut mem, &layout.segments);
    let mut cfg = g.clone();
    cfg.hash_latency = w.hash_latency;
    let cfg = cfg.with_params(vec![layout.bucket_base, NODE_BYTES, layout.buckets - 1]);
    (cfg, DramModel::with_memory(DramConfig::default(), mem))
}

/// Issues every Widx probe to `p` through the fuzz [`drive`], checks
/// the found rids against the functional oracle and returns the cycle
/// after the last response.
fn run_probes<P: MetaPort>(p: &mut P, w: &widx::WidxWorkload) -> Result<u64, String> {
    let stream: Vec<MetaAccess> = (0..)
        .zip(&w.probes)
        .map(|(id, &key)| MetaAccess::Load {
            id,
            key: MetaKey::new(key),
        })
        .collect();
    let mut checksum = 0u64;
    let run = drive(p, &stream, usize::MAX, |resp| {
        if resp.found {
            // Node layout: [key, rid, next, pad].
            checksum = checksum.wrapping_add(resp.data[1]);
        }
    });
    if let Some(hang) = run.hang {
        return Err(format!("hierarchy deadlock: {hang}"));
    }
    if checksum != w.oracle_checksum() {
        return Err("hierarchy run diverged from the functional oracle".into());
    }
    Ok(run.end.next().raw())
}

/// Ablation 3: chain-node side-caching (`insertm`) in the Widx walker.
///
/// "X-Cache caches the actual nodes in the hash table and tags them with
/// the hash keys" (§5) — our walker side-inserts every chain node it
/// touches under that node's own key, at LRU priority. This quantifies
/// the design choice by running the same workload with a walker that
/// only caches the matched node.
pub(super) fn abl03_insertm(k: &Knobs) -> Result<Report, String> {
    const HEADERS: [&str; 6] = [
        "query",
        "with insertm",
        "hit rate",
        "without",
        "hit rate",
        "insertm gain",
    ];
    let scale = k.scale;
    let report = Report::titled(format!(
        "Ablation 3: insertm chain-node side-caching (scale 1/{scale})"
    ));
    let cells = query_cells(scale, |w, g| {
        let with = widx::run_xcache(w, Some(g.clone()));
        let without = widx::run_xcache_with_walker(w, Some(g), widx::walker_no_sideinsert());
        note_sim_cycles(with.cycles + without.cycles);
        let hr = |r: &RunReport| {
            r.stats.get("xcache.hit") as f64
                / (r.stats.get("xcache.hit") + r.stats.get("xcache.miss")).max(1) as f64
        };
        vec![
            with.cycles.to_string(),
            pct(hr(&with)),
            without.cycles.to_string(),
            pct(hr(&without)),
            format!("{:.2}x", without.cycles as f64 / with.cycles as f64),
        ]
    });
    let rows = k.runner.run(cells);
    Ok(report.table("", &HEADERS, rows))
}

/// Ablation 4: does a next-line prefetcher rescue the address-based
/// cache?
///
/// The paper's comparison point is "the best-performing address-based
/// cache"; this adds a tagged next-line prefetcher to it and re-runs the
/// Widx comparison. Pointer-chasing walks have no sequential locality, so
/// the prefetcher should not close the meta-tag gap — which is the point
/// of measuring it.
pub(super) fn abl04_prefetch(k: &Knobs) -> Result<Report, String> {
    const HEADERS: [&str; 5] = [
        "query",
        "addr cyc",
        "addr+prefetch cyc",
        "prefetch gain",
        "X-Cache vs addr+pf",
    ];
    let scale = k.scale;
    let report = Report::titled(format!(
        "Ablation 4: next-line prefetch on the address cache (scale 1/{scale})"
    ));
    let cells = query_cells(scale, |w, g| {
        let x = widx::run_xcache(w, Some(g.clone()));
        let base_cfg = widx::matched_address_cache_config(&g);
        let plain = widx::run_address_cache_with_policy(w, &g, base_cfg.clone());
        let mut pf_cfg = base_cfg;
        pf_cfg.prefetch_next = true;
        let pf = widx::run_address_cache_with_policy(w, &g, pf_cfg);
        note_sim_cycles(x.cycles + plain.cycles + pf.cycles);
        vec![
            plain.cycles.to_string(),
            pf.cycles.to_string(),
            format!("{:.2}x", plain.cycles as f64 / pf.cycles as f64),
            format!("{:.2}x", x.speedup_over(&pf)),
        ]
    });
    let rows = k.runner.run(cells);
    Ok(report
        .table("", &HEADERS, rows)
        .text("\n(pointer chases have no next-line locality; the gap should persist)\n"))
}
