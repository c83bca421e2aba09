//! Perf-trajectory baseline: runs a small *fixed* scenario set (immune to
//! `XCACHE_SCALE`) once with idle-cycle fast-forwarding and once without,
//! and writes `BENCH_baseline.json` with wall-clock times, simulated
//! cycles, and the skip/no-skip speedup per scenario. The committed copy
//! at the repo root gives future changes a perf record to compare against.
//!
//! Both modes run inline on the main thread (`with_skip` is thread-local)
//! and every observable is re-checked to agree between modes, so the file
//! doubles as one more differential check.
//!
//! Usage: `cargo run --release --bin bench_baseline [-- <output path>]
//!        [-- --check <committed baseline>]`
//!
//! With `--check`, the run additionally compares the controller-bound
//! scenarios' `cycles_per_sec_skip` against the committed baseline file
//! and exits nonzero on a >10% throughput regression. Absolute rates are
//! machine-dependent, so the check only guards against regressions, not
//! missed improvements.

use std::time::Instant;

use xcache_bench::{
    jobs_from_env, machine_factor, meta_json, note_sim_cycles, scale, widx_geometry, widx_workload,
};
use xcache_core::{shards_from_env, XCacheConfig};
use xcache_dsa::{graphpulse, spgemm, widx};
use xcache_mem::{DramConfig, DramModel, MemReq, MemoryPort};
use xcache_sim::{
    prof_reset, prof_snapshot, with_par_mode, with_par_threads, with_skip, Cycle, ParMode,
    ProfEntry,
};
use xcache_workloads::QueryClass;

/// Observables of one scenario run, compared across modes.
type Outcome = (u64, u64); // (cycles, checksum)

struct Measurement {
    name: &'static str,
    sim_cycles: u64,
    wall_ms_skip: f64,
    wall_ms_no_skip: f64,
    /// Per-stage wall-time attribution over the skip-mode runs; empty
    /// unless `XCACHE_PROF=1`.
    prof: Vec<ProfEntry>,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        if self.wall_ms_skip > 0.0 {
            self.wall_ms_no_skip / self.wall_ms_skip
        } else {
            0.0
        }
    }

    fn cycles_per_sec_skip(&self) -> u64 {
        if self.wall_ms_skip > 0.0 {
            (self.sim_cycles as f64 * 1000.0 / self.wall_ms_skip) as u64
        } else {
            0
        }
    }
}

/// Times `f` in one skip mode: best of `reps` runs (minimum wall time
/// rejects scheduler noise), plus the outcome for cross-mode comparison.
fn time_mode(skip: bool, reps: u32, f: &dyn Fn() -> Outcome) -> (f64, Outcome) {
    let mut best = f64::INFINITY;
    let mut outcome = (0, 0);
    for _ in 0..reps {
        let start = Instant::now();
        outcome = with_skip(skip, f);
        best = best.min(start.elapsed().as_secs_f64() * 1000.0);
    }
    (best, outcome)
}

fn measure(name: &'static str, f: &dyn Fn() -> Outcome) -> Measurement {
    prof_reset();
    let (wall_ms_skip, fast) = time_mode(true, 3, f);
    let prof = prof_snapshot();
    let (wall_ms_no_skip, slow) = time_mode(false, 3, f);
    assert_eq!(
        fast, slow,
        "{name}: skip and no-skip runs diverged — fast-forwarding is unsound"
    );
    note_sim_cycles(fast.0);
    eprintln!(
        "{name}: {} cycles, {wall_ms_skip:.2} ms skip vs {wall_ms_no_skip:.2} ms no-skip ({:.2}x)",
        fast.0,
        wall_ms_no_skip / wall_ms_skip.max(1e-9)
    );
    if !prof.is_empty() {
        let total: u64 = prof.iter().map(|e| e.1).sum();
        for &(stage, ns, calls) in &prof {
            eprintln!(
                "    {stage}: {:.1}% ({:.2} ms, {calls} calls)",
                ns as f64 * 100.0 / total.max(1) as f64,
                ns as f64 / 1e6
            );
        }
    }
    Measurement {
        name,
        sim_cycles: fast.0,
        wall_ms_skip,
        wall_ms_no_skip,
        prof,
    }
}

/// Per-scenario profiling attribution as a JSON fragment, or an empty
/// string when `XCACHE_PROF` is off (keeps the default output stable).
fn prof_json(prof: &[ProfEntry]) -> String {
    if prof.is_empty() {
        return String::new();
    }
    let total: u64 = prof.iter().map(|e| e.1).sum();
    let stages = prof
        .iter()
        .map(|&(stage, ns, calls)| {
            format!(
                "{{\"stage\":\"{stage}\",\"share\":{:.4},\"total_ns\":{ns},\"calls\":{calls}}}",
                ns as f64 / total.max(1) as f64
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(",\"prof\":[{stages}]")
}

/// A chain of dependent DRAM read round-trips: the canonical
/// DRAM-latency-bound loop where fast-forwarding pays the most (the
/// engine idles for the full access latency between events).
fn dram_roundtrips() -> Outcome {
    let mut dram = DramModel::new(DramConfig::default());
    for slot in 0..64u64 {
        dram.memory_mut().write_u64(slot * 8, slot * 31 + 7);
    }
    let mut now = Cycle(0);
    let mut checksum = 0u64;
    for i in 0..1_000u64 {
        dram.try_request(now, MemReq::read(i, (i % 64) * 8, 8))
            .expect("dram queue empty between round-trips");
        loop {
            dram.tick(now);
            if let Some(r) = dram.take_response(now) {
                let v = u64::from_le_bytes(r.data[..8].try_into().expect("8 bytes"));
                checksum = checksum.wrapping_mul(31).wrapping_add(v);
                break;
            }
            now = xcache_sim::fast_forward(now, dram.next_event(now));
        }
        now = now.next();
    }
    (now.raw(), checksum)
}

/// Scenarios whose wall time is dominated by controller work (trigger
/// scan, X-Routine dispatch, data RAM) rather than by the DRAM model —
/// the ones the perf-trajectory check guards.
const CONTROLLER_BOUND: [&str; 2] = ["widx_q19_xcache", "spgemm_gustavson_xcache"];

/// Extracts `cycles_per_sec_skip` for one scenario from a baseline JSON
/// file without a JSON dependency: the writer emits one object per line
/// with fixed key order, so a substring scan is reliable.
fn scenario_rate(json: &str, name: &str) -> Option<u64> {
    let tag = format!("\"name\":\"{name}\"");
    let rest = &json[json.find(&tag)? + tag.len()..];
    let key = "\"cycles_per_sec_skip\":";
    let rest = &rest[rest.find(key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Extracts the recorded `machine_factor` from a baseline's meta
/// envelope, `None` for baselines written before the field existed (the
/// check then falls back to comparing raw rates).
fn baseline_machine_factor(json: &str) -> Option<f64> {
    let key = "\"machine_factor\":";
    let rest = &json[json.find(key)? + key.len()..];
    let s: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    s.parse().ok()
}

fn main() {
    // The meta envelope reads these knobs only after every scenario has
    // run; resolve them first so a malformed value exits 2 before any
    // measuring.
    let _ = (jobs_from_env(), scale());
    let mut out_path = String::from("BENCH_baseline.json");
    let mut check_against: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--check" {
            check_against = Some(argv.next().unwrap_or_else(|| "BENCH_baseline.json".into()));
        } else {
            out_path = arg;
        }
    }

    let widx_q19 = widx_workload(QueryClass::Q19, 40, 7);
    let widx_geom = widx_geometry(40);
    // Fig 7's worst case: 95% of the index off-chip, so nearly every probe
    // waits out a DRAM access.
    let offchip = {
        let w = widx_workload(QueryClass::Q22, 40, 7);
        let resident = (w.index.len() as u64 * 5 / 100).max(16);
        let sets = 128usize;
        let g = XCacheConfig {
            sets,
            ways: (resident as usize / sets).max(1),
            data_sectors: 128,
            ..XCacheConfig::widx()
        };
        (w, g)
    };
    let spgemm_w = spgemm::SpgemmWorkload::paper_like(spgemm::Algorithm::Gustavson, 40, 7);
    let spgemm_g = xcache_bench::spgemm_geometry(40);
    let gp_w = graphpulse::GraphPulseWorkload {
        graph: xcache_workloads::Graph::from_adjacency(xcache_workloads::CsrMatrix::generate(
            256,
            256,
            1024,
            xcache_workloads::SparsePattern::RMat,
            5,
        )),
        iterations: 2,
    };
    let gp_g = xcache_bench::graphpulse_geometry(256);

    // Sharded topology rows: the same cells at `XCACHE_SHARDS` (default 4)
    // shards, once on the sequential reference engine and once on the
    // worker pool at 4 threads. Byte-identical outcomes between the two
    // are asserted below; the wall-clock ratio is the parallel speedup
    // (≥ 1 only when the host has that many physical cores).
    let shards = shards_from_env(4);
    let par_threads = 4usize;

    let report = |r: xcache_dsa::RunReport| (r.cycles, r.checksum);
    let measurements = [
        measure("dram_read_roundtrip_x1000", &dram_roundtrips),
        measure("widx_q19_xcache", &|| {
            report(widx::run_xcache(&widx_q19, Some(widx_geom.clone())))
        }),
        measure("widx_q22_offchip95_xcache", &|| {
            report(widx::run_xcache(&offchip.0, Some(offchip.1.clone())))
        }),
        measure("spgemm_gustavson_xcache", &|| {
            report(spgemm::run_xcache(&spgemm_w, Some(spgemm_g.clone())))
        }),
        measure("graphpulse_xcache", &|| {
            report(graphpulse::run_xcache(&gp_w, Some(gp_g.clone())))
        }),
        measure("widx_q19_sharded4_seq", &|| {
            report(with_par_mode(ParMode::Seq, || {
                widx::run_xcache_sharded(&widx_q19, Some(widx_geom.clone()), shards)
            }))
        }),
        measure("widx_q19_sharded4_par", &|| {
            report(with_par_mode(ParMode::Par, || {
                with_par_threads(par_threads, || {
                    widx::run_xcache_sharded(&widx_q19, Some(widx_geom.clone()), shards)
                })
            }))
        }),
        measure("spgemm_gustavson_sharded4_seq", &|| {
            report(with_par_mode(ParMode::Seq, || {
                spgemm::run_xcache_sharded(&spgemm_w, Some(spgemm_g.clone()), shards)
            }))
        }),
        measure("spgemm_gustavson_sharded4_par", &|| {
            report(with_par_mode(ParMode::Par, || {
                with_par_threads(par_threads, || {
                    spgemm::run_xcache_sharded(&spgemm_w, Some(spgemm_g.clone()), shards)
                })
            }))
        }),
        measure("graphpulse_sharded4_par", &|| {
            report(with_par_mode(ParMode::Par, || {
                with_par_threads(par_threads, || {
                    graphpulse::run_xcache_sharded(&gp_w, Some(gp_g.clone()), shards)
                })
            }))
        }),
    ];

    for (seq_name, par_name) in [
        ("widx_q19_sharded4_seq", "widx_q19_sharded4_par"),
        (
            "spgemm_gustavson_sharded4_seq",
            "spgemm_gustavson_sharded4_par",
        ),
    ] {
        let row = |n: &str| {
            measurements
                .iter()
                .find(|m| m.name == n)
                .expect("sharded row is measured")
        };
        let (s, p) = (row(seq_name), row(par_name));
        assert_eq!(
            s.sim_cycles, p.sim_cycles,
            "{seq_name} and {par_name} diverged — parallel time is not deterministic"
        );
        eprintln!(
            "sharded par-over-seq {}: {:.2}x at {par_threads} threads ({} host cores)",
            seq_name.trim_end_matches("_seq"),
            s.wall_ms_skip / p.wall_ms_skip.max(1e-9),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        );
    }

    let mut body = String::from("[\n");
    for (i, m) in measurements.iter().enumerate() {
        body.push_str(&format!(
            "  {{\"name\":\"{}\",\"sim_cycles\":{},\"wall_ms_skip\":{:.3},\"wall_ms_no_skip\":{:.3},\"speedup\":{:.2},\"cycles_per_sec_skip\":{}{}}}{}\n",
            m.name,
            m.sim_cycles,
            m.wall_ms_skip,
            m.wall_ms_no_skip,
            m.speedup(),
            m.cycles_per_sec_skip(),
            prof_json(&m.prof),
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    body.push(']');
    // Same envelope shape as `results/*.json`: meta on its own line so
    // diffs can drop the machine-dependent fields with `grep -v '^"meta"'`.
    let out = format!(
        "{{\n\"meta\": {},\n\"baseline\": {body}\n}}\n",
        meta_json("bench_baseline")
    );
    std::fs::write(&out_path, out).expect("write baseline json");
    eprintln!("(wrote {out_path})");

    // Guards that fast-forwarding still pays off where it should — a
    // DRAM-latency-bound loop is mostly idle cycles. The floor is 2x,
    // not higher: the ratio's denominator is the *busy*-cycle path, so
    // every busy-path optimization (thin LTO, memoized DRAM next_event)
    // legitimately compresses it while the skip-side absolute wall time
    // stays unchanged.
    let dram_bound = &measurements[0];
    assert!(
        dram_bound.speedup() >= 2.0,
        "expected >= 2x wall-clock speedup on the DRAM-latency-bound \
         scenario, measured {:.2}x",
        dram_bound.speedup()
    );

    if let Some(baseline_path) = check_against {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
        // Normalize both sides by their machine factor so a baseline
        // recorded on a faster or slower host doesn't turn into a phantom
        // regression (or mask a real one). Baselines that predate the
        // field are compared raw, as before.
        let (old_mf, new_mf) = match baseline_machine_factor(&baseline) {
            Some(mf) if mf > 0.0 => (mf, machine_factor()),
            _ => (1.0, 1.0),
        };
        let mut failed = false;
        for name in CONTROLLER_BOUND {
            let old = scenario_rate(&baseline, name)
                .unwrap_or_else(|| panic!("{baseline_path} has no cycles_per_sec_skip for {name}"));
            let new = measurements
                .iter()
                .find(|m| m.name == name)
                .expect("checked scenario is measured")
                .cycles_per_sec_skip();
            let ratio = (new as f64 / new_mf) / (old.max(1) as f64 / old_mf);
            eprintln!(
                "check {name}: {new} vs baseline {old} c/s \
                 ({ratio:.2}x machine-normalized, factors {new_mf:.3}/{old_mf:.3})"
            );
            if ratio < 0.9 {
                eprintln!("FAIL: {name} regressed more than 10% vs {baseline_path}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("(perf-trajectory check passed vs {baseline_path})");
    }
}
