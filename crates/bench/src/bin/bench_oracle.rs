//! Analytical predictions without simulation: replays the paper's
//! scenario cells (and a handful of fuzz seeds) through the
//! `xcache-oracle` model and prints the predicted hit/miss/eviction
//! profile per cell.
//!
//! With `XCACHE_JSON` set, the predictions are also written to
//! `results/bench_oracle.json` in the same self-describing metadata
//! envelope as every other bench dump, so oracle predictions diff
//! across commits exactly like measured results.
//!
//! ```text
//! XCACHE_JSON=1 cargo run --release --bin bench_oracle
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use xcache_bench::crossval::{
    fuzz_oracle_ops, oracle_geometry, spgemm_fixture, spgemm_oracle_ops, widx_fixture,
    widx_oracle_ops,
};
use xcache_bench::fuzz::DEFAULT_ACCESSES;
use xcache_bench::{maybe_dump_custom_json, render_table};
use xcache_core::XCacheConfig;
use xcache_dsa::spgemm::Algorithm;
use xcache_oracle::{CacheModel, Prediction};

struct Cell {
    name: String,
    p: Prediction,
}

fn main() {
    let started = Instant::now();
    let mut cells: Vec<Cell> = Vec::new();

    let (w, g) = widx_fixture();
    cells.push(Cell {
        name: "widx-q19".into(),
        p: CacheModel::replay(oracle_geometry(&g), &widx_oracle_ops(&w)),
    });
    for alg in [Algorithm::Gustavson, Algorithm::OuterProduct] {
        let (w, g) = spgemm_fixture(alg);
        cells.push(Cell {
            name: format!("spgemm-{}", alg.name().to_lowercase()),
            p: CacheModel::replay(oracle_geometry(&g), &spgemm_oracle_ops(&w, &g)),
        });
    }
    for seed in 0..8 {
        cells.push(Cell {
            name: format!("fuzz-{seed}"),
            p: CacheModel::replay(
                oracle_geometry(&XCacheConfig::test_tiny()),
                &fuzz_oracle_ops(seed, DEFAULT_ACCESSES),
            ),
        });
    }

    let headers = [
        "cell", "loads", "hits", "misses", "hit%", "allocs", "evicts", "faults", "insertm",
    ];
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.p.loads.to_string(),
                c.p.hits.to_string(),
                c.p.misses.to_string(),
                format!("{:.1}", c.p.hit_rate() * 100.0),
                c.p.meta_allocs.to_string(),
                c.p.meta_evictions.to_string(),
                c.p.walker_faults.to_string(),
                c.p.insertm.to_string(),
            ]
        })
        .collect();
    println!("analytical oracle predictions (no simulation)\n");
    print!("{}", render_table(&headers, &rows));
    println!(
        "\n{} cells predicted in {:.1} ms",
        cells.len(),
        started.elapsed().as_secs_f64() * 1000.0
    );

    let mut body = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            body,
            "  {{\"cell\":\"{}\",\"loads\":{},\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\"store_hits\":{},\"store_misses\":{},\"meta_allocs\":{},\"meta_evictions\":{},\"capacity_evictions\":{},\"walker_faults\":{},\"insertm\":{},\"insertm_skips\":{}}}{}",
            c.name,
            c.p.loads,
            c.p.hits,
            c.p.misses,
            c.p.hit_rate(),
            c.p.store_hits,
            c.p.store_misses,
            c.p.meta_allocs,
            c.p.meta_evictions,
            c.p.capacity_evictions,
            c.p.walker_faults,
            c.p.insertm,
            c.p.insertm_skips,
            if i + 1 < cells.len() { ",\n" } else { "\n" }
        );
    }
    body.push(']');
    maybe_dump_custom_json("bench_oracle", "predictions", &body);
}
