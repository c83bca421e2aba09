//! `xcached` as a process: a malformed knob refuses startup, and a fig18
//! sweep under an armed fault plan reports its one injected cell failure
//! structurally, terminates exactly once and drains to exit 0.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use xcache_serve::http;

const XCACHED: &str = env!("CARGO_BIN_EXE_xcached");

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xcached-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Starts `xcached` on a free loopback port with its state under a fresh
/// directory, `env` set and stderr piped.
fn spawn(tag: &str, env: &[(&str, &str)]) -> (Child, PathBuf) {
    let state_dir = tmpdir(tag);
    let child = Command::new(XCACHED)
        .env("XCACHE_ADDR", "127.0.0.1:0")
        .env("XCACHE_STATE_DIR", &state_dir)
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("xcached starts");
    (child, state_dir)
}

/// Waits up to `limit` for `child` to exit; kills it and returns `None`
/// when it is still running.
fn wait_for_exit(child: &mut Child, limit: Duration) -> Option<ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("wait on xcached") {
            return Some(status);
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Kills the daemon if a failed assertion unwinds past it.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `xcached` with `var=value` and asserts it refuses to start:
/// exit 2, the variable named on stderr, and no `listening on` line.
fn assert_refuses(var: &str, value: &str) {
    let (mut child, state_dir) = spawn(&var.to_ascii_lowercase(), &[(var, value)]);
    let status = wait_for_exit(&mut child, Duration::from_secs(10));
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read xcached stderr");
    let _ = std::fs::remove_dir_all(&state_dir);
    let status = status.unwrap_or_else(|| panic!("{var}={value}: still running; stderr: {stderr}"));
    assert_eq!(status.code(), Some(2), "{var}={value}: stderr: {stderr}");
    assert!(stderr.contains(var), "{var}={value}: stderr: {stderr}");
    assert!(
        !stderr.contains("listening on"),
        "{var}={value}: listened before refusing: {stderr}"
    );
}

#[test]
fn refuses_zero_jobs() {
    assert_refuses("XCACHE_JOBS", "0");
}

#[test]
fn refuses_a_malformed_fault_spec() {
    assert_refuses("XCACHE_FAULT_SPEC", "bogus");
}

#[test]
fn refuses_an_unknown_no_skip_value() {
    assert_refuses("XCACHE_NO_SKIP", "yes");
}

#[test]
fn refuses_a_zero_watchdog_budget() {
    assert_refuses("XCACHE_WATCHDOG_CYCLES", "0");
}

#[test]
fn chaos_sweep_fails_one_cell_structurally_and_drains_cleanly() {
    let (child, state_dir) = spawn(
        "chaos",
        &[
            ("XCACHE_FAULT_SPEC", "dram_delay=0.05:12,port_stall=0.02"),
            ("XCACHE_FAULT_SEED", "64001"),
        ],
    );
    let mut daemon = Daemon(child);
    // The daemon prints its bound address (a port 0 request) on stderr.
    let mut stderr = BufReader::new(daemon.0.stderr.take().expect("stderr is piped"));
    let mut first = String::new();
    stderr.read_line(&mut first).expect("read xcached stderr");
    // Keep the pipe drained so the daemon never blocks on stderr.
    std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    let addr = first
        .split("listening on ")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listen address in `{}`", first.trim()))
        .to_owned();

    let spec = r#"{"id":"chaos","grid":"fig18","scale":20,"seed":7,"fail_cells":["widx 8/2"]}"#;
    let (status, body) = http::request(&addr, "POST", "/jobs", &[], Some(spec)).unwrap();
    assert_eq!(status, 202, "{body}");
    let deadline = Instant::now() + Duration::from_secs(300);
    let result = loop {
        let (status, body) = http::request(&addr, "GET", "/jobs/chaos/result", &[], None).unwrap();
        if status == 200 {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "job did not finish (last: HTTP {status}: {body})"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        result.contains(r#""label":"widx 8/2","status":"failed""#)
            && result.contains("injected failure"),
        "injected cell failure not reported structurally: {result}"
    );
    assert_eq!(
        result.matches(r#""status":"done""#).count(),
        7,
        "7 done cells beside the failure: {result}"
    );

    // The job terminated exactly once, and every cell reported once.
    let (status, events) =
        http::request(&addr, "GET", "/jobs/chaos/events?mode=updates", &[], None).unwrap();
    assert_eq!(status, 200, "{events}");
    assert_eq!(
        events.matches(r#""event":"job_done""#).count(),
        1,
        "{events}"
    );
    assert_eq!(
        events.matches(r#""event":"cell_done""#).count(),
        8,
        "{events}"
    );

    let (status, body) = http::request(&addr, "POST", "/drain", &[], None).unwrap();
    assert_eq!(status, 200, "{body}");
    let exit = wait_for_exit(&mut daemon.0, Duration::from_secs(30));
    let _ = std::fs::remove_dir_all(&state_dir);
    let exit = exit.expect("xcached exits within 30 s of a drain");
    assert!(exit.success(), "drained xcached exited with {exit}");
}
