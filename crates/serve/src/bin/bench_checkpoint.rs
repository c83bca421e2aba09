//! Measures the durable-checkpoint overhead: the fig14 DSA grid run
//! through `Runner::run` (in-memory, the pre-service path) vs
//! `Runner::run_with_checkpoint` against a real fsync'd journal.
//!
//! The sweep is simulation-dominated, so journalling (one checksummed
//! append per cell, group-committed fsyncs off the cell path, plus
//! payload stringification) must stay in
//! the noise — the committed `BENCH_pr9.json` records it at under 2%.
//! Both paths execute identical cell closures and the payloads are
//! asserted equal, so the benchmark doubles as a differential check of
//! the checkpointed runner.
//!
//! Usage: `cargo run --release --bin bench_checkpoint [-- <output path>]`
//! `XCACHE_BENCH_REPS` (default 3) sets the best-of repetition count.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use xcache_bench::{env_u64_or, meta_json, CheckpointPolicy, Runner, Scenario};
use xcache_serve::journal::{manifest_value, Journal};
use xcache_serve::JobSpec;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr9.json".into());
    let reps = env_u64_or("XCACHE_BENCH_REPS", 3).max(1);
    let scale = xcache_bench::scale();

    let spec = JobSpec {
        id: None,
        grid: "fig14".into(),
        scale,
        seed: 7,
        cells: 0,
        fail_cells: Vec::new(),
        cell_sleep_ms: 0,
    };
    let cells = spec.build_cells();
    let runner = Runner::from_env();
    eprintln!(
        "bench_checkpoint: fig14 grid, {} cells, scale 1/{scale}, best of {reps}",
        cells.len()
    );

    // The two paths are interleaved rep-by-rep, alternating which goes
    // first, so slow machine drift cannot masquerade as overhead. Each
    // checkpoint rep gets a fresh journal (every cell executes and
    // commits; reuse would measure the resume path instead).
    let state = std::env::temp_dir().join(format!("xcache-bench-ckpt-{}", std::process::id()));
    let policy = CheckpointPolicy::default();
    let mut wall_ms_runner = f64::INFINITY;
    let mut wall_ms_checkpoint = f64::INFINITY;
    let mut reference: Vec<Result<String, String>> = Vec::new();
    let mut journalled: Vec<Result<String, String>> = Vec::new();

    let run_plain = |best: &mut f64| {
        let scenarios: Vec<Scenario<'_, Result<String, String>>> = cells
            .iter()
            .map(|c| {
                let f = std::sync::Arc::clone(&c.run);
                Scenario::new(c.label.clone(), move || f())
            })
            .collect();
        let start = Instant::now();
        let out = runner.run(scenarios);
        *best = best.min(start.elapsed().as_secs_f64() * 1000.0);
        out
    };
    let run_journalled = |rep: u64, best: &mut f64| {
        let dir = state.join(format!("rep{rep}"));
        let journal = Journal::create(&dir, &manifest_value("bench", &spec.normalized()))
            .expect("create bench journal");
        let start = Instant::now();
        let outcomes = journal.with_committer(|store| {
            runner.run_with_checkpoint(
                xcache_serve::grids::to_runner_cells(&cells),
                store,
                &policy,
                &AtomicBool::new(false),
            )
        });
        *best = best.min(start.elapsed().as_secs_f64() * 1000.0);
        outcomes
            .into_iter()
            .map(|o| match o.status {
                xcache_bench::CellStatus::Done(v) => Ok(v),
                xcache_bench::CellStatus::Failed(r) => Err(r),
                xcache_bench::CellStatus::Pending => Err("pending".into()),
            })
            .collect()
    };
    for rep in 0..reps {
        if rep % 2 == 0 {
            reference = run_plain(&mut wall_ms_runner);
            journalled = run_journalled(rep, &mut wall_ms_checkpoint);
        } else {
            journalled = run_journalled(rep, &mut wall_ms_checkpoint);
            reference = run_plain(&mut wall_ms_runner);
        }
    }
    let _ = std::fs::remove_dir_all(&state);

    assert_eq!(
        reference, journalled,
        "checkpointed run diverged from the in-memory runner"
    );

    let overhead_pct = (wall_ms_checkpoint - wall_ms_runner) / wall_ms_runner * 100.0;
    eprintln!(
        "runner {wall_ms_runner:.1} ms, checkpointed {wall_ms_checkpoint:.1} ms \
         ({overhead_pct:+.2}% overhead)"
    );

    let out = format!(
        "{{\n\"meta\": {},\n\"checkpoint_overhead\": {{\"grid\":\"fig14\",\"cells\":{},\"scale\":{scale},\"reps\":{reps},\"wall_ms_runner\":{wall_ms_runner:.3},\"wall_ms_checkpoint\":{wall_ms_checkpoint:.3},\"overhead_pct\":{overhead_pct:.3}}}\n}}\n",
        meta_json("bench_checkpoint"),
        cells.len()
    );
    std::fs::write(&out_path, out).expect("write bench json");
    eprintln!("(wrote {out_path})");
}
