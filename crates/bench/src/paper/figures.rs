//! The simulated figures: 4, 7 and 14–18.

use xcache_core::{WalkerDiscipline, XCacheConfig};
use xcache_dsa::{spgemm, widx, RunReport};
use xcache_energy::EnergyModel;
use xcache_workloads::QueryClass;

use super::query_cells;
use crate::registry::Report;
use crate::{
    geomean, note_sim_cycles, pct, spgemm_geometry, widx_workload, DsaRun, Fig18Bench, Knobs,
    Scenario, FIG18_GRID,
};

/// Figure 4: load-to-use latency, address tags vs meta-tags.
///
/// Paper shape target: meta-tags give markedly lower load-to-use latency
/// — the address-tagged design walks (hash + bucket + chain) even when
/// the element is cache-resident.
pub(super) fn fig04_load_to_use(k: &Knobs) -> Result<Report, String> {
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
    let report = Report::titled(format!(
        "Figure 4: load-to-use latency, address tags vs meta-tags (scale 1/{scale})"
    ));
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
    Ok(report
        .table("", &HEADERS, rows)
        .text("\n(latencies in cycles; the meta-tag min is the pipelined 3-cycle hit path)\n"))
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
pub(super) fn fig07_occupancy(k: &Knobs) -> Result<Report, String> {
    const HEADERS: [&str; 6] = [
        "off-chip",
        "coroutine occ (x1e4)",
        "thread occ (x1e4)",
        "thread/coro",
        "coro cyc",
        "thread cyc",
    ];
    let scale = k.scale;
    let report = Report::titled(format!(
        "Figure 7: walker occupancy, coroutine vs thread (scale 1/{scale})"
    ));
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
    Ok(report
        .table("", &HEADERS, rows)
        .text("\n(paper: threads ~1000x higher occupancy, growing with off-chip fraction)\n"))
}

/// Figure 14: X-Cache speedup over the hardwired DSA baselines and over
/// same-geometry address-based caches, plus the memory-access axis.
///
/// Paper shape targets: X-Cache competitive with every baseline DSA (up
/// to 1.54x on Widx); 1.7x average over address caches; 2-8x fewer
/// memory accesses (≈6.5x fewer DRAM accesses from nested walks).
pub(super) fn fig14_speedup(k: &Knobs) -> Result<Report, String> {
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
    let report = Report::titled(format!(
        "Figure 14: runtime and memory accesses (scale 1/{})",
        k.scale
    ));
    let runs = k.dsa_sweep();
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
    let gmean_addr = geomean(runs.iter().map(DsaRun::speedup_vs_addr));
    let gmean_base = geomean(runs.iter().map(DsaRun::speedup_vs_baseline));
    let mut report = report.table("_table", &HEADERS, rows).text(&format!(
        "\nGeomean speedup vs address cache : {gmean_addr:.2}x (paper: 1.7x)\n\
         Geomean speedup vs baseline DSA  : {gmean_base:.2}x (paper: ~1x, up to 1.54x on Widx)\n"
    ));
    report.runs = Some(runs.to_vec());
    Ok(report)
}

/// Figure 15: total power, X-Cache vs address-based cache, per DSA.
///
/// Paper shape target: address-based caches consume 26-79% more power
/// than X-Cache (walking eliminated, fewer on-chip accesses).
pub(super) fn fig15_power_total(k: &Knobs) -> Result<Report, String> {
    const HEADERS: [&str; 4] = [
        "DSA / input",
        "X-Cache [mW]",
        "AddrCache [mW]",
        "addr overhead",
    ];
    let report = Report::titled(format!(
        "Figure 15: total power breakdown (scale 1/{}, lower is better)",
        k.scale
    ));
    let model = EnergyModel::new();
    let rows = k
        .dsa_sweep()
        .iter()
        .map(|r| {
            let x = model.xcache_energy(&r.xcache.stats, &r.geometry);
            let a = model.address_cache_energy(&r.addr.stats, 64);
            let x_mw = x.avg_power_mw(r.xcache.cycles);
            let a_mw = a.avg_power_mw(r.addr.cycles);
            vec![
                r.name.clone(),
                format!("{:.3}", x_mw),
                format!("{:.3}", a_mw),
                pct((a_mw - x_mw) / x_mw),
            ]
        })
        .collect();
    Ok(report
        .table("", &HEADERS, rows)
        .text("\n(paper: address caches consume 26-79% more power than X-Cache)\n"))
}

/// Figure 16: breakdown of RAM and controller power within X-Cache.
///
/// Paper shape targets: data storage dominates (66-89%); meta-tags are
/// 1.5-6.6% of the data RAM energy; the controller (walking + routines +
/// registers) is ~24% of the total; the routine RAM — the price of
/// programmability — is under 4.2%.
pub(super) fn fig16_power_breakdown(k: &Knobs) -> Result<Report, String> {
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
    let report = Report::titled(format!(
        "Figure 16: X-Cache RAM + controller power breakdown (scale 1/{})",
        k.scale
    ));
    let model = EnergyModel::new();
    let rows = k
        .dsa_sweep()
        .iter()
        .map(|r| {
            let b = model.xcache_energy(&r.xcache.stats, &r.geometry);
            vec![
                r.name.clone(),
                pct(b.fraction(b.data_ram_pj)),
                pct(b.fraction(b.meta_tag_pj)),
                pct(b.fraction(b.routine_ram_pj)),
                pct(b.fraction(b.xreg_pj)),
                pct(b.fraction(b.action_logic_pj + b.agen_pj)),
                pct(b.fraction(b.controller_pj())),
                pct(b.meta_tag_pj / b.data_ram_pj.max(1e-12)),
            ]
        })
        .collect();
    Ok(report.table("", &HEADERS, rows).text(
        "\n(paper: data 66-89%; tags 1.5-6.6% of data; controller ~24%; routine RAM <4.2%)\n",
    ))
}

/// Figure 17: X-Cache runtime vs the Widx baseline across on-chip data
/// residency (TPC-H-22).
///
/// Paper shape target: as the resident fraction (and hence hit rate)
/// rises, the meta-tag advantage grows — hits skip hashing and walking
/// entirely, while the baseline walks regardless.
pub(super) fn fig17_residency_sweep(k: &Knobs) -> Result<Report, String> {
    const HEADERS: [&str; 5] = [
        "% on-chip",
        "hit rate",
        "X-Cache cyc",
        "Widx cyc",
        "speedup",
    ];
    let scale = k.scale;
    let report = Report::titled(format!(
        "Figure 17: runtime vs % data on-chip, Widx TPC-H-22 (scale 1/{scale})"
    ));
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
    Ok(report
        .table("", &HEADERS, rows)
        .text("\n(paper: the meta-tag advantage grows with residency/hit rate)\n"))
}

/// Figure 18: sweeping #Active and #Exe for GraphPulse (p2p-Gnutella08)
/// and Widx (TPC-H-22).
///
/// Paper shape target: GraphPulse gains up to ~2x from more controller
/// parallelism (event handling is routine-throughput-bound); Widx gains
/// at most ~10% (DRAM-bound, and hits already bypass the walkers).
pub(super) fn fig18_param_sweep(k: &Knobs) -> Result<Report, String> {
    const HEADERS: [&str; 3] = ["#Active/#Exe", "cycles", "speedup vs 4/1"];
    let scale = k.scale;
    let mut report = Report::titled(format!(
        "Figure 18: sweeping #Active / #Exe (scale 1/{scale})"
    ));
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
        report = report
            .text(match bench {
                Fig18Bench::GraphPulse => "GraphPulse p2p-Gnutella08:\n",
                Fig18Bench::Widx => "\nWidx TPC-H-22:\n",
            })
            .table(&format!("_{}", bench.name()), &HEADERS, rows);
    }
    Ok(report.text("\n(paper: GraphPulse up to ~2x; Widx <=10%)\n"))
}
