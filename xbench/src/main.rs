//! `xbench`: the X-Cache simulator's end-to-end and per-layer host-time
//! benchmark (see `README.md` beside this crate).
//!
//! ```text
//! cargo run --release --manifest-path xbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The process re-executes itself for the measurement with a cleared
//! environment, so no `XCACHE_*` knob of the caller's shell can change
//! what runs; the only variable a child gets is `XCACHE_PROF=1` for the
//! traced run. `--trace 0` runs one untraced child for `--seconds` and
//! reports the end-to-end metrics. `--trace 1` runs an untraced and a
//! traced child for half the time each and reports the per-layer metrics.
//! Either way it prints one `workload metric value unit` line per metric,
//! then one JSON object, and writes every raw sample under the build
//! directory.

mod layers;
mod metrics;
mod run;
mod service;
mod stats;
mod workloads;

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use xcache_serve::json::Value;

use metrics::{Metric, END_TO_END, PER_LAYER};
use run::{num, ChildReport};
use workloads::Workload;

/// Wall-clock limit for the whole invocation; a measuring child still
/// running past it is killed and the invocation fails.
const BUDGET: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the re-executed measuring process.
    child: bool,
}

const USAGE: &str = "usage: xbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        child,
    })
}

/// Where raw results and scratch state go: beside the executable, inside
/// the build directory.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("xbench-out")))
        .unwrap_or_else(|| PathBuf::from("xbench-out"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.child {
        run::measure(args.workload, args.seed, args.seconds, args.trace).map(|r| {
            println!("{}", r.to_json());
            true
        })
    } else {
        drive(args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the measuring children, prints the metrics and writes the raw
/// results. `Ok(false)` when an operation or check failed.
fn drive(args: Args) -> Result<bool, String> {
    let deadline = Instant::now() + BUDGET;
    let share = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = run_child(args, false, share, deadline)?;
    let traced = if args.trace {
        Some(run_child(args, true, share, deadline)?)
    } else {
        None
    };
    let (list, values): (&[Metric], Vec<f64>) = match &traced {
        None => (&END_TO_END, metrics::end_to_end(&plain)),
        Some(t) => (&PER_LAYER, metrics::per_layer(&plain, t)),
    };
    let reports: Vec<&ChildReport> = std::iter::once(&plain).chain(&traced).collect();
    let attempted: f64 = reports.iter().map(|r| r.fact("attempted")).sum();
    let failed: f64 = reports.iter().map(|r| r.fact("failed")).sum();
    let correct = failed == 0.0
        && attempted > 0.0
        && reports
            .iter()
            .all(|r| r.errors.is_empty() && !r.op_ms.is_empty());
    let name = args.workload.name();
    for e in reports.iter().flat_map(|r| &r.errors) {
        eprintln!("xbench: {name}: {e}");
    }
    let q = |v: &[f64], p| stats::percentile(v, p).unwrap_or(0.0);
    let norm = plain.normalized_ms();
    eprintln!(
        "xbench: {name}: n={} untraced ops; normalised p25 {:.3} p50 {:.3} p90 {:.3} ms; wall p50 {:.3} p90 {:.3} ms; probe p50 {:.3} ms{}",
        plain.op_ms.len(),
        q(&norm, 0.25),
        q(&norm, 0.5),
        q(&norm, 0.9),
        q(&plain.op_ms, 0.5),
        q(&plain.op_ms, 0.9),
        q(&plain.probe_ms, 0.5),
        traced
            .as_ref()
            .map_or(String::new(), |t| format!("; n={} traced ops", t.op_ms.len()))
    );
    let geomean = plain.fact("fig14_geomean");
    if geomean > 0.0 {
        eprintln!(
            "xbench: {name}: Figure 14 geomean X-Cache speedup over the address cache {geomean:.3} \
             (paper 1.7, |error| {:.1}%; the model is unvalidated against hardware)",
            (geomean - 1.7).abs() / 1.7 * 100.0
        );
    }

    let metrics = Value::Obj(
        list.iter()
            .zip(&values)
            .map(|(m, &v)| {
                println!("{name} {} {v} {}", m.name, m.unit);
                let entry = Value::Obj(vec![
                    ("value".into(), num(v)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_owned(), entry)
            })
            .collect(),
    );
    write_raw(args, &plain, traced.as_ref(), list, &values);
    let summary = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::from_u64(attempted as u64)),
        ("failed".into(), Value::from_u64(failed as u64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", summary.render());
    Ok(correct)
}

/// Writes every raw sample of this invocation to `xbench-out/`, with the
/// metrics, their directions, and the quartiles of the untraced
/// operation times.
fn write_raw(
    args: Args,
    plain: &ChildReport,
    traced: Option<&ChildReport>,
    list: &[Metric],
    values: &[f64],
) {
    let dir = out_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let metrics = Value::Obj(
        list.iter()
            .zip(values)
            .map(|(m, &v)| {
                let entry = Value::Obj(vec![
                    ("value".into(), num(v)),
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("better".into(), Value::Str(m.better.as_str().into())),
                ]);
                (m.name.to_owned(), entry)
            })
            .collect(),
    );
    let (q1, q3) = stats::quartiles(&plain.normalized_ms()).unwrap_or_default();
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"ops\":{},\"op_ms_q1\":{},\"op_ms_q3\":{},\"metrics\":{},\"plain\":{},\"traced\":{}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        plain.op_ms.len(),
        num(q1).render(),
        num(q3).render(),
        metrics.render(),
        plain.to_json(),
        traced.map_or_else(|| "null".to_owned(), ChildReport::to_json),
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("xbench: could not write {}: {e}", path.display());
    }
}

/// Runs one measuring child and returns its report.
fn run_child(
    args: Args,
    traced: bool,
    seconds: f64,
    deadline: Instant,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
        "--child",
    ])
    .env_clear()
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if traced {
        cmd.env("XCACHE_PROF", "1");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err("measuring child exceeded the time budget".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let out = reader
        .join()
        .map_err(|_| "child reader panicked".to_owned())?
        .map_err(|e| format!("reading child output: {e}"))?;
    if !status.success() {
        return Err(format!("measuring child failed ({status})"));
    }
    let line = out
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("measuring child printed no report")?;
    ChildReport::from_json(line)
}

#[cfg(test)]
mod tests;
