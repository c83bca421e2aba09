//! One measured run of one workload, inside the child process: set-up,
//! warm-up, the closed loop of timed operations, and the facts the
//! metrics are computed from.
//!
//! The host is shared: other tenants' load slows everything here by up
//! to 1.7x for seconds at a time. Before every timed operation a fixed
//! probe ([`HostProbe`]) is timed, and each operation is reported
//! relative to it, in milliseconds of a host on which the probe takes
//! 1 ms. Raw wall times are kept beside the normalised ones.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use xcache_core::splitmix64;
use xcache_serve::json::{self, Value};

use crate::layers::{timer_floor_ns, STAGE_NAMES};
use crate::stats::median;
use crate::workloads::{self, Bench, Outcome, Tracer, Workload, PINNED_SEED7};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Timed operations after which `peak_rss_mb` is read, so that a workload
/// whose memory grows with the work done (the service keeps every job)
/// reports the same amount of work however many operations fit in a run.
const RSS_AFTER_OPS: usize = 50;

/// What a child run measured, sent to the parent as one JSON line.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ChildReport {
    /// Wall time of every successful measured operation, in ms.
    pub op_ms: Vec<f64>,
    /// The host probe's time just before each of those operations, in ms.
    pub probe_ms: Vec<f64>,
    /// Wall time of every set-up, in s.
    pub setup_s: Vec<f64>,
    /// The host probe's time just before each set-up, in ms.
    pub setup_probe_ms: Vec<f64>,
    /// Named per-run facts (`attempted`, `failed`, counts, layer times).
    pub facts: Vec<(String, f64)>,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

impl ChildReport {
    /// A fact by name; zero when the run did not record it.
    #[must_use]
    pub fn fact(&self, name: &str) -> f64 {
        self.facts
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn set(&mut self, name: &str, value: f64) {
        self.facts.push((name.to_owned(), value));
    }

    /// Operation times normalised to host speed: ms on a host where the
    /// probe takes 1 ms.
    #[must_use]
    pub fn normalized_ms(&self) -> Vec<f64> {
        per_probe(&self.op_ms, &self.probe_ms)
    }

    /// Set-up times normalised like [`ChildReport::normalized_ms`], in s.
    #[must_use]
    pub fn normalized_setup_s(&self) -> Vec<f64> {
        per_probe(&self.setup_s, &self.setup_probe_ms)
    }

    /// The report as one line of JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| num(x)).collect());
        Value::Obj(vec![
            ("op_ms".into(), nums(&self.op_ms)),
            ("probe_ms".into(), nums(&self.probe_ms)),
            ("setup_s".into(), nums(&self.setup_s)),
            ("setup_probe_ms".into(), nums(&self.setup_probe_ms)),
            (
                "facts".into(),
                Value::Obj(
                    self.facts
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
            (
                "errors".into(),
                Value::Arr(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
        ])
        .render()
    }

    /// Parses [`ChildReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// A description of malformed input.
    pub fn from_json(line: &str) -> Result<ChildReport, String> {
        let v = json::parse(line)?;
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("report has no {key}"))?
                .iter()
                .map(|x| x.as_f64().ok_or(format!("non-numeric {key}")))
                .collect()
        };
        let facts = match v.get("facts") {
            Some(Value::Obj(fields)) => fields
                .iter()
                .map(|(k, x)| Ok((k.clone(), x.as_f64().ok_or(format!("fact {k}"))?)))
                .collect::<Result<_, String>>()?,
            _ => return Err("report has no facts".into()),
        };
        let errors = v
            .get("errors")
            .and_then(Value::as_arr)
            .ok_or("report has no errors")?
            .iter()
            .filter_map(|e| e.as_str().map(str::to_owned))
            .collect();
        Ok(ChildReport {
            op_ms: nums("op_ms")?,
            probe_ms: nums("probe_ms")?,
            setup_s: nums("setup_s")?,
            setup_probe_ms: nums("setup_probe_ms")?,
            facts,
            errors,
        })
    }
}

/// Each value divided by the probe time taken just before it.
fn per_probe(values: &[f64], probes: &[f64]) -> Vec<f64> {
    values.iter().zip(probes).map(|(v, p)| v / p).collect()
}

/// A JSON number carrying every digit of `x` (non-finite becomes 0).
#[must_use]
pub fn num(x: f64) -> Value {
    let x = if x.is_finite() { x } else { 0.0 };
    Value::Num(x, format!("{x:?}"))
}

/// Two fixed kernels whose times track the host's current speed, each
/// about 0.8 ms on an idle 2-vCPU Xeon guest:
///
/// - hashed, data-dependent reads, branches and writes over a 256 KiB
///   table: the branchy integer work of the simulator's inner loop;
/// - building and joining a `BTreeMap` and a `HashMap`, formatting and
///   sorting strings: large-footprint library code that allocates, as the
///   simulator's set-up and bookkeeping do.
///
/// The probe time is their geometric mean. Each kernel alone cancelled
/// some of the host's slow periods that the other missed; of the kernels
/// tried (these two, an 8 MiB pointer chase, a pure hash chain), the pair
/// gave the lowest spread across the simulation workloads.
pub struct HostProbe {
    table: RefCell<Vec<u64>>,
    state: Cell<u64>,
}

impl HostProbe {
    const ENTRIES: usize = 1 << 15;
    const TABLE_STEPS: usize = 60_000;
    const LIBRARY_ITEMS: u64 = 3_600;

    /// A probe with its table filled.
    #[must_use]
    pub fn new() -> HostProbe {
        HostProbe {
            table: RefCell::new((0..Self::ENTRIES as u64).map(splitmix64).collect()),
            state: Cell::new(1),
        }
    }

    /// The faster of two timed passes, in ms: a pass the previous
    /// operation's leftover threads interrupted is discarded.
    #[must_use]
    pub fn measure(&self) -> f64 {
        let pass = || (self.table_kernel() * Self::library_kernel()).sqrt();
        pass().min(pass())
    }

    fn table_kernel(&self) -> f64 {
        let start = Instant::now();
        let mut table = self.table.borrow_mut();
        let mask = table.len() - 1;
        let (mut h, mut acc) = (self.state.get(), 0u64);
        for _ in 0..Self::TABLE_STEPS {
            h = splitmix64(h);
            let i = h as usize & mask;
            let v = table[i];
            acc = if v & 1 == 0 {
                acc.wrapping_add(v)
            } else if v & 2 == 0 {
                acc ^ v.rotate_left(7)
            } else {
                acc.wrapping_mul(v | 1)
            };
            table[(i + 1) & mask] = acc;
        }
        self.state.set(h);
        start.elapsed().as_secs_f64() * 1e3
    }

    fn library_kernel() -> f64 {
        let start = Instant::now();
        let mut ordered = BTreeMap::new();
        let mut hashed = HashMap::new();
        let mut names = Vec::new();
        let mut h = 7;
        for i in 0..Self::LIBRARY_ITEMS {
            h = splitmix64(h);
            ordered.insert(h % (Self::LIBRARY_ITEMS * 3), i);
            hashed.insert(h % (Self::LIBRARY_ITEMS * 2), i);
            if i % 3 == 0 {
                names.push(format!("{h:x}-{i}"));
            }
        }
        names.sort();
        let joined: u64 = ordered
            .iter()
            .filter_map(|(k, v)| hashed.get(k).map(|x| x ^ v))
            .sum();
        std::hint::black_box((joined, names));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Runs `workload` for `seconds` of timed operations. `traced` means this
/// process has `XCACHE_PROF` armed, so stage tables are recorded.
///
/// # Errors
///
/// A description of a set-up or reference run that failed, after which
/// no operation can be judged.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ChildReport, String> {
    let mut report = ChildReport::default();
    let host = HostProbe::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        report.setup_probe_ms.push(host.measure());
        let start = Instant::now();
        let fresh = workloads::setup(workload, seed)?;
        report.setup_s.push(start.elapsed().as_secs_f64());
        // The previous instance is torn down outside the timed region.
        bench = Some(fresh);
    }
    let mut bench = bench.expect("at least one set-up");
    let digest = bench.digest();
    if let Some(&(_, pinned)) = PINNED_SEED7.iter().find(|(w, _)| *w == workload) {
        if seed == 7 && digest != pinned {
            report.errors.push(format!(
                "seed-7 input digest {digest:#018x} differs from the pinned {pinned:#018x}"
            ));
        }
    }
    bench.prepare()?;
    let floor = if traced { timer_floor_ns() } else { 0.0 };
    let mut tracer = Tracer::new(traced);
    let mut tally = Tally::default();

    tally.record(timed_op(bench.as_mut(), &mut tracer).1, &mut report.errors);
    bench.start_measuring();
    tracer.stages = Default::default();
    // Net stage nanoseconds, each operation's scaled like its wall time.
    let mut stage_ns = [0.0; 7];
    let mut ticks = 0u64;
    let mut rss_mb = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let probe_ms = host.measure();
        let (ms, result) = timed_op(bench.as_mut(), &mut tracer);
        let stages = std::mem::take(&mut tracer.stages);
        if result.is_ok() {
            report.op_ms.push(ms);
            report.probe_ms.push(probe_ms);
            for (total, stage) in stage_ns.iter_mut().zip(stages.stages()) {
                *total += stage.net_ns(floor) / probe_ms;
            }
            ticks += stages.trigger.calls;
        }
        tally.record(result, &mut report.errors);
        if tally.attempted == RSS_AFTER_OPS + 1 {
            rss_mb = Some(peak_rss_mb());
        }
    }
    let rss_mb = rss_mb.unwrap_or_else(peak_rss_mb);
    if let Err(e) = bench.finish() {
        tally.record(Err(e), &mut report.errors);
    }

    let ops = report.op_ms.len().max(1) as f64;
    report.set("attempted", tally.attempted as f64);
    report.set("failed", tally.failed as f64);
    let last = tally.last.unwrap_or_default();
    let c = last.counts;
    for (name, value) in [
        ("sim_cycles", c.sim_cycles),
        ("xcache_cycles", c.xcache_cycles),
        ("hits", c.hits),
        ("misses", c.misses),
        ("walker_launches", c.walker_launches),
        ("dram_accesses", c.dram_accesses),
    ] {
        report.set(name, value as f64);
    }
    if workload == Workload::PaperGrid {
        if let Some(g) = workloads::grid_geomean_speedup(&last) {
            report.set("fig14_geomean", g);
        }
    }
    if traced {
        for (name, ns) in STAGE_NAMES.iter().zip(stage_ns) {
            report.set(name, ns / ops);
        }
        report.set("ticks", ticks as f64 / ops);
        report.set("timer_floor_ns", floor);
        let probe_ms = host.measure();
        report.set("build_ns", build_ns(bench.as_ref()) / probe_ms);
    }
    for (name, value) in bench.facts() {
        report.set(name, value);
    }
    report.set(
        "parallel_fallbacks",
        xcache_sim::parallel_fallbacks() as f64,
    );
    report.set("peak_rss_mb", rss_mb);
    Ok(report)
}

/// Host nanoseconds one operation spends building walker programs and
/// controller instances: the median of nine timed builds, or 0 for a
/// workload that builds none.
fn build_ns(bench: &dyn Bench) -> f64 {
    let mut built = 0;
    let reps: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            built = bench.build_once();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    if built == 0 {
        return 0.0;
    }
    median(&reps).unwrap_or(0.0)
}

/// One operation's wall time in ms and its result; a panic is a failed
/// result.
fn timed_op(bench: &mut dyn Bench, tracer: &mut Tracer) -> (f64, Result<Outcome, String>) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| bench.op(tracer)))
        .unwrap_or_else(|panic| Err(panic_message(panic.as_ref())));
    (start.elapsed().as_secs_f64() * 1e3, result)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let what = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into());
    format!("operation panicked: {what}")
}

/// Operation counts and the last good outcome.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    last: Option<Outcome>,
}

impl Tally {
    fn record(&mut self, result: Result<Outcome, String>, errors: &mut Vec<String>) {
        self.attempted += 1;
        match result {
            Ok(outcome) => self.last = Some(outcome),
            Err(e) => {
                self.failed += 1;
                if errors.len() < 5 {
                    errors.push(e);
                }
            }
        }
    }
}

/// This process's peak resident set (`VmHWM`) in MB; 0 where `/proc` is
/// unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panics on every third operation.
    struct Flaky(u32);

    impl Bench for Flaky {
        fn op(&mut self, _tracer: &mut Tracer) -> Result<Outcome, String> {
            self.0 += 1;
            assert!(!self.0.is_multiple_of(3), "injected failure");
            Ok(Outcome::default())
        }

        fn digest(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_panicking_op_is_counted_and_the_run_continues() {
        let mut bench = Flaky(0);
        let mut tracer = Tracer::new(false);
        let mut tally = Tally::default();
        let mut errors = Vec::new();
        for _ in 0..9 {
            tally.record(timed_op(&mut bench, &mut tracer).1, &mut errors);
        }
        assert_eq!((tally.attempted, tally.failed), (9, 3));
        assert!(tally.last.is_some());
        assert!(errors[0].contains("injected failure"), "{errors:?}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = ChildReport {
            op_ms: vec![1.5, 0.1 + 0.2],
            probe_ms: vec![0.5, 1.0],
            setup_s: vec![0.012_345_678_9],
            setup_probe_ms: vec![0.5],
            facts: vec![("attempted".into(), 3.0), ("ns.trigger".into(), 1e-7)],
            errors: vec!["bad \"cell\"".into()],
        };
        assert_eq!(ChildReport::from_json(&r.to_json()), Ok(r.clone()));
        assert_eq!(r.fact("attempted"), 3.0);
        assert_eq!(r.fact("missing"), 0.0);
        assert_eq!(r.normalized_ms(), vec![3.0, 0.1 + 0.2]);
        assert_eq!(r.normalized_setup_s(), vec![0.024_691_357_8]);
    }

    #[test]
    fn host_probe_times_a_fresh_pass() {
        let p = HostProbe::new();
        let before = p.state.get();
        assert!(p.measure() > 0.0);
        assert_ne!(p.state.get(), before);
    }
}
