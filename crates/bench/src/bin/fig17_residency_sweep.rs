//! Figure 17: X-Cache runtime vs the Widx baseline across on-chip data
//! residency (TPC-H-22).
//!
//! Paper shape target: as the resident fraction (and hence hit rate)
//! rises, the meta-tag advantage grows — hits skip hashing and walking
//! entirely, while the baseline walks regardless.

use xcache_bench::{maybe_dump_table_json, pct, render_table, scale, Runner, Scenario};
use xcache_core::XCacheConfig;
use xcache_dsa::widx;
use xcache_workloads::QueryClass;

const HEADERS: [&str; 5] = [
    "% on-chip",
    "hit rate",
    "X-Cache cyc",
    "Widx cyc",
    "speedup",
];

fn main() {
    let scale = scale();
    println!("Figure 17: runtime vs % data on-chip, Widx TPC-H-22 (scale 1/{scale})\n");
    // High join selectivity (2% absent probes): the sweep isolates the
    // residency effect, as in the paper's figure.
    let mut preset = QueryClass::Q22.preset().scaled_down(scale as usize);
    preset.probes = (preset.probes * 3).max(2_000);
    preset.miss_rate = 0.02;
    let w = xcache_dsa::widx::WidxWorkload::from_preset(&preset, 7);
    let keys = w.index.len();
    let geometry_for = |resident_pct: u32| {
        let resident = (keys as u64 * u64::from(resident_pct) / 100).max(16);
        // Fixed power-of-two sets; associativity carries the capacity so
        // every sweep point is distinct (ways need not be a power of two).
        let sets = 128usize;
        let ways = (resident as usize / sets).max(1);
        XCacheConfig {
            sets,
            ways,
            data_sectors: (sets * ways).max(64),
            ..XCacheConfig::widx()
        }
    };
    let cells: Vec<Scenario<'_, Vec<String>>> = [10u32, 25, 50, 75, 100]
        .into_iter()
        .map(|resident_pct| {
            let w = &w;
            Scenario::new(format!("{resident_pct}% resident"), move || {
                let g = geometry_for(resident_pct);
                let x = widx::run_xcache(w, Some(g.clone()));
                let b = widx::run_baseline(w, Some(g));
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
    let rows = Runner::from_env().run(cells);
    print!("{}", render_table(&HEADERS, &rows));
    maybe_dump_table_json("fig17_residency_sweep", &HEADERS, &rows);
    println!("\n(paper: the meta-tag advantage grows with residency/hit rate)");
}
