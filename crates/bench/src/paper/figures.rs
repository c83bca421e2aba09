//! The simulated figures: 4, 7 and 14–18.

use std::fmt::Write as _;

use xcache_core::{WalkerDiscipline, XCacheConfig};
use xcache_dsa::{spgemm, widx, RunReport};
use xcache_energy::EnergyModel;
use xcache_workloads::QueryClass;

use super::{emit, query_cells};
use crate::{
    counters_json, dsa_scenarios, geomean, json_escape, merge_snapshots, note_sim_cycles, pct,
    run_report_json, spgemm_geometry, widx_workload, DsaRun, Fig18Bench, Knobs, Scenario,
    FIG18_GRID,
};

/// Figure 4: load-to-use latency, address tags vs meta-tags.
///
/// Paper shape target: meta-tags give markedly lower load-to-use latency
/// — the address-tagged design walks (hash + bucket + chain) even when
/// the element is cache-resident.
pub(super) fn fig04_load_to_use(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 8] = [
        "Workload",
        "meta mean",
        "meta p50",
        "meta min",
        "addr mean",
        "addr p50",
        "addr min",
        "addr/meta",
    ];
    /// A table row's columns from one (X-Cache, address-cache) run pair.
    fn row(x: &RunReport, a: &RunReport) -> Vec<String> {
        note_sim_cycles(x.cycles + a.cycles);
        let x_mean = x.stats.get("xcache.load_to_use.sum") as f64
            / x.stats.get("xcache.load_to_use.count").max(1) as f64;
        let a_mean = a.stats.get("engine.task_latency.sum") as f64
            / a.stats.get("engine.task_latency.count").max(1) as f64;
        vec![
            format!("{x_mean:.0}"),
            x.stats.get("xcache.load_to_use.p50").to_string(),
            x.stats.get("xcache.load_to_use.min").to_string(),
            format!("{a_mean:.0}"),
            a.stats.get("engine.task_latency.p50").to_string(),
            a.stats.get("engine.task_latency.min").to_string(),
            format!("{:.2}x", a_mean / x_mean),
        ]
    }

    let scale = k.scale;
    println!("Figure 4: load-to-use latency, address tags vs meta-tags (scale 1/{scale})\n");
    let mut cells = query_cells(scale, |w, g| {
        let x = widx::run_xcache(w, Some(g.clone()));
        row(&x, &widx::run_address_cache(w, Some(g)))
    });
    // SpGEMM row fetch (the paper's other Figure 4 family): meta-tag =
    // row id vs row_ptr + per-block address walks.
    cells.push(Scenario::new("Gamma rows", move || {
        let w = spgemm::SpgemmWorkload::paper_like(
            spgemm::Algorithm::Gustavson,
            scale.saturating_mul(4),
            7,
        );
        let g = spgemm_geometry(scale);
        let x = spgemm::run_xcache(&w, Some(g.clone()));
        let a = spgemm::run_address_cache(&w, Some(g));
        [vec!["Gamma rows".to_owned()], row(&x, &a)].concat()
    }));
    let rows = k.runner.run(cells);
    emit(k, name, &HEADERS, &rows)?;
    println!("\n(latencies in cycles; the meta-tag min is the pipelined 3-cycle hit path)");
    Ok(())
}

/// Fixed power-of-two sets with associativity carrying the capacity, so
/// every sweep point of a residency sweep is distinct (ways need not be a
/// power of two): the Widx geometry sized to hold `resident_pct`% of
/// `keys`.
fn residency_geometry(keys: usize, resident_pct: u32) -> XCacheConfig {
    let resident = (keys as u64 * u64::from(resident_pct) / 100).max(16);
    let sets = 128usize;
    let ways = (resident as usize / sets).max(1);
    XCacheConfig {
        sets,
        ways,
        data_sectors: (sets * ways).max(64),
        ..XCacheConfig::widx()
    }
}

/// Figure 7: controller occupancy, coroutine vs blocking-thread walkers,
/// as the fraction of data residing off-chip grows.
///
/// Occupancy = #active-regs x size-bytes x lifetime-cycles. Paper shape
/// target: threads show orders-of-magnitude higher occupancy, growing
/// with the off-chip fraction (long-latency transactions pin whole
/// hardware contexts).
pub(super) fn fig07_occupancy(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 6] = [
        "off-chip",
        "coroutine occ (x1e4)",
        "thread occ (x1e4)",
        "thread/coro",
        "coro cyc",
        "thread cyc",
    ];
    let scale = k.scale;
    println!("Figure 7: walker occupancy, coroutine vs thread (scale 1/{scale})\n");
    let w = widx_workload(QueryClass::Q22, scale, 7);
    let keys = w.index.len();
    let cells: Vec<Scenario<'_, Vec<String>>> = [20u32, 40, 60, 80, 95]
        .into_iter()
        .map(|offchip_pct| {
            let w = &w;
            Scenario::new(format!("{offchip_pct}% off-chip"), move || {
                // Size the meta-tag array so (100 - offchip)% of the keys fit.
                let geometry = |discipline| XCacheConfig {
                    discipline,
                    ..residency_geometry(keys, 100 - offchip_pct)
                };
                let coro = widx::run_xcache(w, Some(geometry(WalkerDiscipline::Coroutine)));
                let thread = widx::run_xcache(w, Some(geometry(WalkerDiscipline::BlockingThread)));
                note_sim_cycles(coro.cycles + thread.cycles);
                let occ_c = coro.stats.get("xcache.occupancy_reg_byte_cycles");
                let occ_t = thread.stats.get("xcache.occupancy_reg_byte_cycles");
                vec![
                    format!("{offchip_pct}%"),
                    format!("{:.1}", occ_c as f64 / 1e4),
                    format!("{:.1}", occ_t as f64 / 1e4),
                    format!("{:.0}x", occ_t as f64 / occ_c.max(1) as f64),
                    coro.cycles.to_string(),
                    thread.cycles.to_string(),
                ]
            })
        })
        .collect();
    let rows = k.runner.run(cells);
    emit(k, name, &HEADERS, &rows)?;
    println!("\n(paper: threads ~1000x higher occupancy, growing with off-chip fraction)");
    Ok(())
}

/// Figure 14: X-Cache speedup over the hardwired DSA baselines and over
/// same-geometry address-based caches, plus the memory-access axis.
///
/// Paper shape targets: X-Cache competitive with every baseline DSA (up
/// to 1.54x on Widx); 1.7x average over address caches; 2-8x fewer
/// memory accesses (≈6.5x fewer DRAM accesses from nested walks).
pub(super) fn fig14_speedup(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 9] = [
        "DSA / input",
        "X-Cache cyc",
        "Baseline cyc",
        "AddrCache cyc",
        "vs base",
        "vs addr",
        "X$ DRAM",
        "A$ DRAM",
        "DRAM ratio",
    ];
    let scale = k.scale;
    println!("Figure 14: runtime and memory accesses (scale 1/{scale})\n");
    let runs = k.runner.run(dsa_scenarios(scale, 7));
    dump_runs(k, name, &runs)?;
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.xcache.cycles.to_string(),
                r.baseline.cycles.to_string(),
                r.addr.cycles.to_string(),
                format!("{:.2}x", r.speedup_vs_baseline()),
                format!("{:.2}x", r.speedup_vs_addr()),
                r.xcache.dram_accesses().to_string(),
                r.addr.dram_accesses().to_string(),
                format!("{:.2}x", r.dram_ratio()),
            ]
        })
        .collect();
    emit(k, &format!("{name}_table"), &HEADERS, &rows)?;
    let gmean_addr = geomean(runs.iter().map(DsaRun::speedup_vs_addr));
    let gmean_base = geomean(runs.iter().map(DsaRun::speedup_vs_baseline));
    println!();
    println!("Geomean speedup vs address cache : {gmean_addr:.2}x (paper: 1.7x)");
    println!(
        "Geomean speedup vs baseline DSA  : {gmean_base:.2}x (paper: ~1x, up to 1.54x on Widx)"
    );
    Ok(())
}

/// Dumps a set of [`DsaRun`]s under `"runs"`, every report with its full
/// counter map, plus an `aggregate` section with the X-Cache counters
/// merged across runs.
fn dump_runs(k: &Knobs, name: &str, runs: &[DsaRun]) -> Result<(), String> {
    if !k.json {
        return Ok(());
    }
    let mut body = String::from("[\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            body,
            "  {{\"name\":\"{}\",\"xcache\":{},\"addr\":{},\"baseline\":{}}}{}",
            json_escape(&r.name),
            run_report_json(&r.xcache),
            run_report_json(&r.addr),
            run_report_json(&r.baseline),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    let aggregate = merge_snapshots(runs.iter().map(|r| &r.xcache.stats));
    let _ = write!(
        body,
        "],\n\"aggregate\": {{\"xcache_counters\": {}}}",
        counters_json(&aggregate)
    );
    // `body` already carries the closing bracket of `runs` plus the
    // aggregate key, so it slots into the envelope as `"runs": [...],
    // "aggregate": {...}`.
    k.dump(name, "runs", &body)
}

/// Runs the Figure 14 sweep (Figures 15 and 16 each run their own) and
/// renders a row per cluster: its name, then `row`'s energy columns.
fn energy_rows(k: &Knobs, row: fn(&EnergyModel, &DsaRun) -> Vec<String>) -> Vec<Vec<String>> {
    let model = EnergyModel::new();
    let runs = k.runner.run(dsa_scenarios(k.scale, 7));
    runs.iter()
        .map(|r| [vec![r.name.clone()], row(&model, r)].concat())
        .collect()
}

/// Figure 15: total power, X-Cache vs address-based cache, per DSA.
///
/// Paper shape target: address-based caches consume 26-79% more power
/// than X-Cache (walking eliminated, fewer on-chip accesses).
pub(super) fn fig15_power_total(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 4] = [
        "DSA / input",
        "X-Cache [mW]",
        "AddrCache [mW]",
        "addr overhead",
    ];
    let scale = k.scale;
    println!("Figure 15: total power breakdown (scale 1/{scale}, lower is better)\n");
    let rows = energy_rows(k, |model, r| {
        let x = model.xcache_energy(&r.xcache.stats, &r.geometry);
        let a = model.address_cache_energy(&r.addr.stats, 64);
        let x_mw = x.avg_power_mw(r.xcache.cycles);
        let a_mw = a.avg_power_mw(r.addr.cycles);
        vec![
            format!("{:.3}", x_mw),
            format!("{:.3}", a_mw),
            pct((a_mw - x_mw) / x_mw),
        ]
    });
    emit(k, name, &HEADERS, &rows)?;
    println!("\n(paper: address caches consume 26-79% more power than X-Cache)");
    Ok(())
}

/// Figure 16: breakdown of RAM and controller power within X-Cache.
///
/// Paper shape targets: data storage dominates (66-89%); meta-tags are
/// 1.5-6.6% of the data RAM energy; the controller (walking + routines +
/// registers) is ~24% of the total; the routine RAM — the price of
/// programmability — is under 4.2%.
pub(super) fn fig16_power_breakdown(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 8] = [
        "DSA / input",
        "Data RAM",
        "Meta-tags",
        "Rtn RAM",
        "X-Reg",
        "Exec+AGEN",
        "Controller",
        "tags/data",
    ];
    let scale = k.scale;
    println!("Figure 16: X-Cache RAM + controller power breakdown (scale 1/{scale})\n");
    let rows = energy_rows(k, |model, r| {
        let b = model.xcache_energy(&r.xcache.stats, &r.geometry);
        vec![
            pct(b.fraction(b.data_ram_pj)),
            pct(b.fraction(b.meta_tag_pj)),
            pct(b.fraction(b.routine_ram_pj)),
            pct(b.fraction(b.xreg_pj)),
            pct(b.fraction(b.action_logic_pj + b.agen_pj)),
            pct(b.fraction(b.controller_pj())),
            pct(b.meta_tag_pj / b.data_ram_pj.max(1e-12)),
        ]
    });
    emit(k, name, &HEADERS, &rows)?;
    println!("\n(paper: data 66-89%; tags 1.5-6.6% of data; controller ~24%; routine RAM <4.2%)");
    Ok(())
}

/// Figure 17: X-Cache runtime vs the Widx baseline across on-chip data
/// residency (TPC-H-22).
///
/// Paper shape target: as the resident fraction (and hence hit rate)
/// rises, the meta-tag advantage grows — hits skip hashing and walking
/// entirely, while the baseline walks regardless.
pub(super) fn fig17_residency_sweep(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 5] = [
        "% on-chip",
        "hit rate",
        "X-Cache cyc",
        "Widx cyc",
        "speedup",
    ];
    let scale = k.scale;
    println!("Figure 17: runtime vs % data on-chip, Widx TPC-H-22 (scale 1/{scale})\n");
    // High join selectivity (2% absent probes): the sweep isolates the
    // residency effect, as in the paper's figure.
    let mut preset = QueryClass::Q22.preset().scaled_down(scale as usize);
    preset.probes = (preset.probes * 3).max(2_000);
    preset.miss_rate = 0.02;
    let w = widx::WidxWorkload::from_preset(&preset, 7);
    let keys = w.index.len();
    let cells: Vec<Scenario<'_, Vec<String>>> = [10u32, 25, 50, 75, 100]
        .into_iter()
        .map(|resident_pct| {
            let w = &w;
            Scenario::new(format!("{resident_pct}% resident"), move || {
                let g = residency_geometry(keys, resident_pct);
                let x = widx::run_xcache(w, Some(g.clone()));
                let b = widx::run_baseline(w, Some(g));
                note_sim_cycles(x.cycles + b.cycles);
                let hit_rate = x.stats.get("xcache.hit") as f64
                    / (x.stats.get("xcache.hit") + x.stats.get("xcache.miss")).max(1) as f64;
                vec![
                    format!("{resident_pct}%"),
                    pct(hit_rate),
                    x.cycles.to_string(),
                    b.cycles.to_string(),
                    format!("{:.2}x", x.speedup_over(&b)),
                ]
            })
        })
        .collect();
    let rows = k.runner.run(cells);
    emit(k, name, &HEADERS, &rows)?;
    println!("\n(paper: the meta-tag advantage grows with residency/hit rate)");
    Ok(())
}

/// Figure 18: sweeping #Active and #Exe for GraphPulse (p2p-Gnutella08)
/// and Widx (TPC-H-22).
///
/// Paper shape target: GraphPulse gains up to ~2x from more controller
/// parallelism (event handling is routine-throughput-bound); Widx gains
/// at most ~10% (DRAM-bound, and hits already bypass the walkers).
pub(super) fn fig18_param_sweep(k: &Knobs, name: &str) -> Result<(), String> {
    const HEADERS: [&str; 3] = ["#Active/#Exe", "cycles", "speedup vs 4/1"];
    let scale = k.scale;
    println!("Figure 18: sweeping #Active / #Exe (scale 1/{scale})\n");
    for bench in Fig18Bench::ALL {
        let cells: Vec<Scenario<'_, u64>> = FIG18_GRID
            .into_iter()
            .map(|(active, exe)| {
                Scenario::new(bench.label(active, exe), move || {
                    bench.cycles(scale, 7, active, exe)
                })
            })
            .collect();
        let cycles = k.runner.run(cells);
        // Cell 0 (4/1) is the speedup base.
        let rows: Vec<Vec<String>> = FIG18_GRID
            .iter()
            .zip(&cycles)
            .map(|(&(active, exe), &c)| {
                vec![
                    format!("{active}/{exe}"),
                    c.to_string(),
                    format!("{:.2}x", cycles[0] as f64 / c as f64),
                ]
            })
            .collect();
        match bench {
            Fig18Bench::GraphPulse => println!("GraphPulse p2p-Gnutella08:"),
            Fig18Bench::Widx => println!("\nWidx TPC-H-22:"),
        }
        emit(k, &format!("{name}_{}", bench.name()), &HEADERS, &rows)?;
    }
    println!("\n(paper: GraphPulse up to ~2x; Widx <=10%)");
    Ok(())
}
