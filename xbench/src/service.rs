//! The `service` workload: the scenario service (`xcache_serve::Server`,
//! the code behind `xcached`) started in this process on a loopback port
//! with a fresh journal directory, and driven over HTTP by one
//! closed-loop client.
//!
//! One operation is one job: submit a `demo` grid with a seed no earlier
//! job used (so nothing resumes from the journal), follow its NDJSON event
//! stream to `job_done`, and fetch the result. Demo cells are a short
//! splitmix chain, so HTTP, the runner and the fsync'd journal commits
//! dominate. Each result is checked against the chain computed here.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use xcache_bench::CheckpointPolicy;
use xcache_core::splitmix64;
use xcache_serve::http::{request, request_stream};
use xcache_serve::{Config, Server};

use crate::workloads::{Bench, Digest, Outcome, Tracer};

/// Cells per submitted job.
const CELLS_PER_JOB: u32 = 50;

/// Splitmix steps per demo cell (fixed by the service's demo grid).
const DEMO_CHAIN: usize = 1_000;

/// A running service and the client's position in its job sequence.
pub struct ServiceBench {
    server: Option<Server>,
    addr: String,
    state_dir: PathBuf,
    seed: u64,
    jobs: u64,
    measured_from: u64,
    base: Totals,
}

/// Cumulative `/metrics` counters.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    cell_wall_us: f64,
    cells: u64,
    fsyncs: u64,
}

impl ServiceBench {
    /// Starts the service and waits for its first `200 OK`: the
    /// workload's set-up.
    ///
    /// # Errors
    ///
    /// A description of a server that failed to start or answer.
    pub fn start(seed: u64) -> Result<ServiceBench, String> {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let state_dir = crate::out_dir().join(format!(
            "service-state-{}-{}",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&state_dir);
        let server = Server::spawn(config(state_dir.clone()), "127.0.0.1:0")
            .map_err(|e| format!("service failed to start: {e}"))?;
        let bench = ServiceBench {
            addr: server.addr().to_string(),
            server: Some(server),
            state_dir,
            seed,
            jobs: 0,
            measured_from: 0,
            base: Totals::default(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match request(&bench.addr, "GET", "/healthz", &[], None) {
                Ok((200, _)) => return Ok(bench),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("service never answered /healthz: {other:?}")),
            }
        }
    }

    fn totals(&self) -> Result<Totals, String> {
        let (status, body) = request(&self.addr, "GET", "/metrics", &[], None)?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let walls = field_values(&body, "wall_us");
        Ok(Totals {
            cell_wall_us: walls.iter().filter_map(|w| w.parse::<f64>().ok()).sum(),
            cells: walls.len() as u64,
            fsyncs: field_values(&body, "journal_fsyncs")
                .first()
                .and_then(|f| f.parse().ok())
                .ok_or("/metrics has no journal_fsyncs")?,
        })
    }
}

/// The raw value of every `"key":` field of a compact JSON document, in
/// document order, quotes stripped. The service's documents hold no
/// strings with commas or braces, so the scan is exact, and it stays
/// linear in the document's size: `/metrics` grows by one entry per
/// cell ever run, and `json::parse` takes quadratic time on it (18 s at
/// 35k cells).
fn field_values<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find(&pattern) {
        rest = &rest[at + pattern.len()..];
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        out.push(rest[..end].trim_matches('"'));
        rest = &rest[end..];
    }
    out
}

/// The service configuration, pinned: one cell worker, no rate limit and
/// no retries (a demo cell cannot fail, so a retry would hide a bug).
fn config(state_dir: PathBuf) -> Config {
    Config {
        state_dir,
        queue_depth: 8,
        rate_burst: 16,
        rate_per_sec: 0,
        policy: CheckpointPolicy {
            retries: 0,
            backoff_ms: 0,
            timeout_ms: None,
        },
        cell_jobs: Some(1),
    }
}

fn job_seed(seed: u64, job: u64) -> u64 {
    splitmix64(seed ^ splitmix64(job))
}

fn job_body(id: &str, seed: u64) -> String {
    format!("{{\"id\":\"{id}\",\"grid\":\"demo\",\"seed\":{seed},\"cells\":{CELLS_PER_JOB}}}")
}

/// The value the demo grid's cell `i` must return for `seed`.
fn demo_value(seed: u64, i: u64) -> u64 {
    (0..DEMO_CHAIN).fold(splitmix64(seed ^ i), |x, _| splitmix64(x))
}

/// Checks a job result: every cell done, in order, with the right value.
fn check_result(body: &str, seed: u64) -> Result<(), String> {
    let status = field_values(body, "status");
    let cell = field_values(body, "cell");
    let value = field_values(body, "v");
    let n = CELLS_PER_JOB as usize;
    if status.len() != n || cell.len() != n || value.len() != n {
        return Err(format!(
            "result of seed {seed} does not hold {n} cells: {body}"
        ));
    }
    for (i, ((status, cell), value)) in (0u64..).zip(status.iter().zip(&cell).zip(&value)) {
        let ok =
            *status == "done" && cell.parse() == Ok(i) && value.parse() == Ok(demo_value(seed, i));
        if !ok {
            return Err(format!(
                "cell {i} of seed {seed} is wrong: status {status}, cell {cell}, value {value}"
            ));
        }
    }
    Ok(())
}

impl Bench for ServiceBench {
    fn op(&mut self, _tracer: &mut Tracer) -> Result<Outcome, String> {
        let id = format!("xbench-{}", self.jobs);
        let seed = job_seed(self.seed, self.jobs);
        self.jobs += 1;
        let (status, body) = request(&self.addr, "POST", "/jobs", &[], Some(&job_body(&id, seed)))?;
        if status != 202 {
            return Err(format!("submit answered {status}: {body}"));
        }
        let mut done = None;
        let status = request_stream(&self.addr, &format!("/jobs/{id}/events"), |line| {
            if line.contains("\"job_done\"") {
                done = Some(line.to_owned());
            }
        })?;
        let done = done.ok_or_else(|| format!("event stream ({status}) ended without job_done"))?;
        let cells = CELLS_PER_JOB.to_string();
        if field_values(&done, "cells_done") != [cells.as_str()]
            || field_values(&done, "cells_failed") != ["0"]
        {
            return Err(format!("job finished incomplete: {done}"));
        }
        let (status, body) = request(&self.addr, "GET", &format!("/jobs/{id}/result"), &[], None)?;
        if status != 200 {
            return Err(format!("result answered {status}: {body}"));
        }
        check_result(&body, seed)?;
        Ok(Outcome::default())
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.bytes(format!("{:?}", config(PathBuf::new())).as_bytes());
        for job in 0..10 {
            d.bytes(job_body(&format!("xbench-{job}"), job_seed(self.seed, job)).as_bytes());
        }
        d.finish()
    }

    fn start_measuring(&mut self) {
        self.measured_from = self.jobs;
        self.base = self.totals().unwrap_or_default();
    }

    fn facts(&mut self) -> Vec<(&'static str, f64)> {
        let jobs = self.jobs - self.measured_from;
        let Ok(now) = self.totals() else {
            return Vec::new();
        };
        let cells = now.cells.saturating_sub(self.base.cells);
        if jobs == 0 || cells == 0 {
            return Vec::new();
        }
        vec![
            (
                "serve.cell_us",
                (now.cell_wall_us - self.base.cell_wall_us) / jobs as f64,
            ),
            (
                "serve.fsyncs_per_cell",
                now.fsyncs.saturating_sub(self.base.fsyncs) as f64 / cells as f64,
            ),
        ]
    }
}

impl Drop for ServiceBench {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.drain();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_check_accepts_the_demo_chain_and_rejects_a_wrong_cell() {
        let seed = 42;
        let cells: Vec<String> = (0..u64::from(CELLS_PER_JOB))
            .map(|i| {
                format!(
                    "{{\"label\":\"demo-{i:04}\",\"status\":\"done\",\"value\":{{\"cell\":{i},\"v\":{}}}}}",
                    demo_value(seed, i)
                )
            })
            .collect();
        let good = format!("{{\"cells\":[{}]}}", cells.join(","));
        assert_eq!(check_result(&good, seed), Ok(()));
        assert!(check_result(&good, seed + 1).is_err());
        assert!(check_result("{\"cells\":[]}", seed).is_err());
        let failed = good.replacen("\"done\"", "\"failed\"", 1);
        assert!(check_result(&failed, seed).is_err());
    }

    #[test]
    fn field_values_scan_in_document_order() {
        let doc = r#"{"a":1,"cells":[{"label":"x-1","wall_us":12},{"label":"x-2","wall_us":7}],"n":{"wall_us":3}}"#;
        assert_eq!(field_values(doc, "wall_us"), ["12", "7", "3"]);
        assert_eq!(field_values(doc, "label"), ["x-1", "x-2"]);
        assert!(field_values(doc, "missing").is_empty());
    }
}
