//! CI chaos smoke: seeded fault injection, watchdog recovery, and the
//! determinism contract under faults.
//!
//! For `XCACHE_CHAOS_SEEDS` generated walker programs (default 25), runs
//! each under its derived fault plan with the chaos watchdog budget and
//! checks the liveness/conservation invariants, then replays each seed
//! skip-vs-step and the whole batch at 1-vs-2 runner jobs demanding
//! byte-identical reports. The DSA chaos cells — Widx fig04 in both
//! disciplines, GraphPulse, and the sharded-topology trio (Widx, SpGEMM,
//! GraphPulse under bank-conflict storms and crossbar link delays) — run
//! the same two differentials; the Widx and SpGEMM cells additionally
//! enforce the functional oracle under timing-only faults, and the
//! sharded cells assert termination with exactly-once completion.
//!
//! On failure, violating runs — including every harvested `StallReport`
//! — are written under `results/chaos/` for artifact upload.
//!
//! Environment:
//!
//! * `XCACHE_CHAOS_SEEDS` — number of program seeds (default 25; 0 exits
//!   2).
//! * `XCACHE_CHAOS_BASE_SEED` — first seed (default 0).
//! * `XCACHE_FAULT_SEED` — chaos seed the per-run plans derive from
//!   (default `0xFA01`).
//! * `XCACHE_SCALE` — DSA cell scale divisor (as for the figure bins).
//! * `XCACHE_XCACHED_BIN` — path to the `xcached` binary for the
//!   service-level cell (defaults to a sibling of this binary; the cell
//!   is skipped with a notice when neither exists).

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

use xcache_bench::chaos::{
    cell_has_violation, run_dsa_chaos_cell, run_fuzz_chaos, ChaosCell, ChaosReport,
};
use xcache_bench::fuzz::DEFAULT_ACCESSES;
use xcache_bench::{jobs_differential, skip_differential};

fn main() -> ExitCode {
    let count = xcache_bench::seed_count("XCACHE_CHAOS_SEEDS", 25);
    let base = xcache_bench::env_u64_or("XCACHE_CHAOS_BASE_SEED", 0);
    let fault_seed = xcache_bench::env_u64_or("XCACHE_FAULT_SEED", 0xFA01);
    let scale = xcache_bench::scale();
    let seeds: Vec<u64> = (base..base + count).collect();
    println!(
        "chaos smoke: {count} seeded walker programs (seeds {base}..{}), fault seed \
         {fault_seed:#x}, {DEFAULT_ACCESSES} accesses each",
        base + count
    );

    let mut failures = 0usize;
    let mut artifact = String::new();

    // Per-seed invariants + skip differential (the skip run's report
    // carries the invariant verdict and the harvested stall reports).
    let mut stalls = 0usize;
    let mut clean = 0usize;
    for &seed in &seeds {
        let label = format!("chaos seed {seed} (fault seed {fault_seed})");
        let run = || run_fuzz_chaos(seed, fault_seed, DEFAULT_ACCESSES);
        match skip_differential(&label, run, ChaosReport::stats_json) {
            Ok(report) => {
                stalls += report.stall_reports.len();
                if report.ok() {
                    clean += 1;
                } else {
                    failures += 1;
                    for v in &report.violations {
                        eprintln!("FAIL seed {seed}: {v}");
                    }
                    let _ = writeln!(artifact, "seed {seed}: {}", report.stats_json());
                    for s in &report.stall_reports {
                        let _ = writeln!(artifact, "  stall: {s}");
                    }
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("FAIL {e}");
                let _ = writeln!(artifact, "{e}");
            }
        }
    }
    println!(
        "chaos invariants: {clean}/{count} seeds clean, skip-vs-step byte-identical, \
         {stalls} stall report(s) recovered by the watchdog"
    );

    match jobs_differential("chaos seed", &seeds, |seed| {
        run_fuzz_chaos(seed, fault_seed, DEFAULT_ACCESSES).stats_json()
    }) {
        Ok(_) => println!("chaos jobs=1 vs jobs=2 differential: {count}/{count} seeds agree"),
        Err(e) => {
            failures += 1;
            eprintln!("FAIL {e}");
            let _ = writeln!(artifact, "{e}");
        }
    }

    // DSA cells: skip differential (inline) + jobs differential.
    let dsa_cell = |cell| run_dsa_chaos_cell(cell, scale, 42, fault_seed);
    for cell in ChaosCell::ALL {
        match skip_differential(cell.name(), || dsa_cell(cell), String::clone) {
            Ok(rendered) if cell_has_violation(&rendered) => {
                failures += 1;
                eprintln!("FAIL dsa cell {}: {rendered}", cell.name());
                let _ = writeln!(artifact, "dsa cell {}: {rendered}", cell.name());
            }
            Ok(_) => println!("dsa chaos cell {}: clean, skip-vs-step agree", cell.name()),
            Err(e) => {
                failures += 1;
                eprintln!("FAIL {e}");
                let _ = writeln!(artifact, "{e}");
            }
        }
    }
    match jobs_differential("chaos cell", &ChaosCell::ALL, dsa_cell) {
        Ok(_) => println!("dsa chaos cells: jobs=1 vs jobs=2 agree"),
        Err(e) => {
            failures += 1;
            eprintln!("FAIL {e}");
            let _ = writeln!(artifact, "{e}");
        }
    }

    // Service-level cell: a small sweep through a real `xcached`
    // process with the fault plan armed. Failed cells must surface
    // structurally in the result and the job must terminate with
    // exactly one `job_done` event; the drained server must exit 0.
    match service_chaos_cell(scale, fault_seed) {
        Ok(Some(summary)) => println!("service chaos cell: {summary}"),
        Ok(None) => {
            println!("service chaos cell: skipped (xcached not built; set XCACHE_XCACHED_BIN)")
        }
        Err(e) => {
            failures += 1;
            eprintln!("FAIL service cell: {e}");
            let _ = writeln!(artifact, "service cell: {e}");
        }
    }

    if failures > 0 {
        if fs::create_dir_all("results/chaos").is_ok() {
            let path = "results/chaos/violations.txt";
            if fs::write(path, &artifact).is_ok() {
                eprintln!("chaos smoke: wrote failing runs to {path}");
            }
        }
        eprintln!("chaos smoke: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("chaos smoke: all invariants and differentials hold under injected faults");
    ExitCode::SUCCESS
}

/// Finds the `xcached` binary: `XCACHE_XCACHED_BIN`, else a sibling of
/// this binary (both live in `target/<profile>/`).
fn find_xcached() -> Option<std::path::PathBuf> {
    if let Ok(p) = std::env::var("XCACHE_XCACHED_BIN") {
        let p = std::path::PathBuf::from(p);
        return p.exists().then_some(p);
    }
    let sibling = std::env::current_exe().ok()?.with_file_name("xcached");
    sibling.exists().then_some(sibling)
}

/// One blocking HTTP/1.1 exchange (`Connection: close`); returns
/// `(status, body)`. Lives here because `xcache-serve` depends on this
/// crate — the smoke drives the server purely over the wire.
fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let b = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{b}",
        b.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)
        .map_err(|e| format!("recv: {e}"))?;
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad response: {}", resp.lines().next().unwrap_or("")))?;
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Submits a fig18 sweep (with one injected cell failure) to a real
/// `xcached` under the armed fault plan, checks structural failure
/// reporting and exactly-once termination, then drains the server and
/// requires exit status 0. `Ok(None)` when the binary is not built.
fn service_chaos_cell(scale: u32, fault_seed: u64) -> Result<Option<String>, String> {
    use std::io::BufRead as _;

    let Some(bin) = find_xcached() else {
        return Ok(None);
    };
    let state_dir = std::env::temp_dir().join(format!("xcache-chaos-svc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&state_dir);

    let mut child = std::process::Command::new(&bin)
        .env("XCACHE_ADDR", "127.0.0.1:0")
        .env("XCACHE_STATE_DIR", &state_dir)
        .env("XCACHE_FAULT_SPEC", "dram_delay=0.05:12,port_stall=0.02")
        .env("XCACHE_FAULT_SEED", fault_seed.to_string())
        .stderr(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;

    // The daemon prints its bound address (port 0 request) on stderr.
    let stderr = child.stderr.take().ok_or("no stderr pipe")?;
    let mut reader = std::io::BufReader::new(stderr);
    let mut first = String::new();
    reader
        .read_line(&mut first)
        .map_err(|e| format!("read xcached stderr: {e}"))?;
    let addr = first
        .split("listening on ")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .ok_or_else(|| format!("no listen address in `{}`", first.trim()))?
        .to_owned();
    // Keep the pipe drained so the child never blocks on stderr.
    std::thread::spawn(move || {
        let mut sink = String::new();
        use std::io::Read as _;
        let _ = reader.read_to_string(&mut sink);
    });

    let run = || -> Result<String, String> {
        let spec = format!(
            "{{\"id\":\"chaos\",\"grid\":\"fig18\",\"scale\":{},\"seed\":7,\"fail_cells\":[\"widx 8/2\"]}}",
            scale.max(20)
        );
        let (status, body) = http_call(&addr, "POST", "/jobs", Some(&spec))?;
        if status != 202 {
            return Err(format!("submit: HTTP {status}: {body}"));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
        let result = loop {
            let (status, body) = http_call(&addr, "GET", "/jobs/chaos/result", None)?;
            if status == 200 {
                break body;
            }
            if std::time::Instant::now() > deadline {
                return Err(format!("job did not finish (last: HTTP {status}: {body})"));
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
        };
        if !result.contains("\"label\":\"widx 8/2\",\"status\":\"failed\"")
            || !result.contains("injected failure")
        {
            return Err(format!(
                "injected cell failure not reported structurally: {result}"
            ));
        }
        let done_cells = result.matches("\"status\":\"done\"").count();
        if done_cells != 7 {
            return Err(format!(
                "expected 7 done cells alongside the failure, got {done_cells}: {result}"
            ));
        }

        // Event log: the job terminated exactly once, every cell
        // reported exactly once.
        let (status, events) = http_call(&addr, "GET", "/jobs/chaos/events?mode=updates", None)?;
        if status != 200 {
            return Err(format!("events: HTTP {status}"));
        }
        let job_done = events.matches("\"event\":\"job_done\"").count();
        if job_done != 1 {
            return Err(format!(
                "job_done emitted {job_done} times (want exactly 1)"
            ));
        }
        let cell_done = events.matches("\"event\":\"cell_done\"").count();
        if cell_done != 8 {
            return Err(format!("cell_done emitted {cell_done} times (want 8)"));
        }
        Ok(format!(
            "8-cell sweep under armed faults: 7 done, 1 structural failure, \
             job_done exactly once ({} events)",
            events.lines().count()
        ))
    };
    let outcome = run();

    let (drain_status, _) = http_call(&addr, "POST", "/drain", None).unwrap_or((0, String::new()));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let exit = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if std::time::Instant::now() > deadline => {
                let _ = child.kill();
                return Err("xcached did not exit within 30s of drain".into());
            }
            Ok(None) => std::thread::sleep(std::time::Duration::from_millis(100)),
            Err(e) => return Err(format!("wait xcached: {e}")),
        }
    };
    let _ = fs::remove_dir_all(&state_dir);

    let summary = outcome?;
    if drain_status != 200 {
        return Err(format!("drain: HTTP {drain_status}"));
    }
    if !exit.success() {
        return Err(format!("drained xcached exited with {exit}"));
    }
    Ok(Some(summary))
}
