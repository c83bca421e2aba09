//! End-to-end service tests over real sockets: submission, streaming,
//! admission control, graceful drain, and crash-resume byte-identity —
//! all in-process, against servers bound to ephemeral ports on
//! loopback.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use xcache_bench::{CellOutcome, CellStatus, CheckpointPolicy, CheckpointStore};
use xcache_serve::http;
use xcache_serve::journal::{manifest_value, Journal};
use xcache_serve::json::{self, Value};
use xcache_serve::{Config, JobSpec, Server};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xcache-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn test_config(state_dir: PathBuf) -> Config {
    Config {
        state_dir,
        queue_depth: 8,
        rate_burst: 16,
        rate_per_sec: 0,
        policy: CheckpointPolicy {
            retries: 1,
            backoff_ms: 1,
            timeout_ms: None,
        },
        cell_jobs: Some(1),
    }
}

fn spawn(cfg: Config) -> (Server, String) {
    let server = Server::spawn(cfg, "127.0.0.1:0").expect("spawn server");
    let addr = server.addr().to_string();
    (server, addr)
}

fn wait_done(addr: &str, id: &str, limit: Duration) -> String {
    let start = Instant::now();
    loop {
        let (status, body) =
            http::request(addr, "GET", &format!("/jobs/{id}"), &[], None).expect("status request");
        assert_eq!(status, 200, "{body}");
        let phase = json::parse(&body)
            .unwrap()
            .get("status")
            .and_then(Value::as_str)
            .unwrap()
            .to_owned();
        if phase == "done" {
            let (status, result) =
                http::request(addr, "GET", &format!("/jobs/{id}/result"), &[], None)
                    .expect("result request");
            assert_eq!(status, 200, "{result}");
            return result;
        }
        assert!(
            start.elapsed() < limit,
            "job {id} not done within {limit:?} (last: {body})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn submit_runs_job_and_serves_result() {
    let dir = tmpdir("basic");
    let (server, addr) = spawn(test_config(dir.clone()));

    let spec = r#"{"id":"basic","grid":"demo","cells":4,"seed":3,"fail_cells":["demo-0002"]}"#;
    let (status, body) = http::request(&addr, "POST", "/jobs", &[], Some(spec)).unwrap();
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"job\":\"basic\""));

    let result = wait_done(&addr, "basic", Duration::from_secs(10));
    let v = json::parse(&result).expect("result parses");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("xcache-result/1")
    );
    let cells = v.get("cells").and_then(Value::as_arr).expect("cells array");
    assert_eq!(cells.len(), 4);
    // The injected failure is structural, not poisonous.
    assert_eq!(
        cells[2].get("status").and_then(Value::as_str),
        Some("failed")
    );
    assert!(cells[2]
        .get("reason")
        .and_then(Value::as_str)
        .unwrap()
        .contains("injected failure"));
    for i in [0usize, 1, 3] {
        assert_eq!(cells[i].get("status").and_then(Value::as_str), Some("done"));
    }

    // Resubmitting the same spec attaches to the existing job.
    let (status, _) = http::request(&addr, "POST", "/jobs", &[], Some(spec)).unwrap();
    assert_eq!(status, 200);
    // Same id with a different spec conflicts.
    let (status, _) = http::request(
        &addr,
        "POST",
        "/jobs",
        &[],
        Some(r#"{"id":"basic","grid":"demo","cells":5}"#),
    )
    .unwrap();
    assert_eq!(status, 409);
    // A malformed spec is a structured 400.
    let (status, body) =
        http::request(&addr, "POST", "/jobs", &[], Some(r#"{"grid":"nope"}"#)).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown grid"));

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_reports_cells_sheds_and_fsyncs() {
    let dir = tmpdir("metrics");
    let (server, addr) = spawn(test_config(dir.clone()));

    let spec = r#"{"id":"met","grid":"demo","cells":3,"seed":9}"#;
    let (status, _) = http::request(&addr, "POST", "/jobs", &[], Some(spec)).unwrap();
    assert_eq!(status, 202);
    wait_done(&addr, "met", Duration::from_secs(10));

    let (status, body) = http::request(&addr, "GET", "/metrics", &[], None).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).expect("metrics parses");
    assert_eq!(v.get("queue_depth").and_then(Value::as_u64), Some(0));
    // Terminal cells fsync before they are visible, so a finished job
    // implies journal fsyncs.
    assert!(v.get("journal_fsyncs").and_then(Value::as_u64).unwrap() > 0);
    // Every executed cell reports a wall time under its label.
    let cells = v.get("cells").and_then(Value::as_arr).expect("cells");
    assert_eq!(cells.len(), 3);
    for c in cells {
        assert!(c
            .get("label")
            .and_then(Value::as_str)
            .unwrap()
            .starts_with("demo-"));
        assert!(c.get("wall_us").and_then(Value::as_u64).is_some());
    }
    let shed = v.get("shed").expect("shed object");
    assert_eq!(shed.get("rate_limited").and_then(Value::as_u64), Some(0));
    assert_eq!(shed.get("queue_full").and_then(Value::as_u64), Some(0));
    assert_eq!(shed.get("draining").and_then(Value::as_u64), Some(0));
    // Field order is stable: two consecutive reads are byte-identical
    // when nothing ran in between. `journal_fsyncs` counts process-wide,
    // so the other tests in this binary may move it; compare without it.
    let (_, body2) = http::request(&addr, "GET", "/metrics", &[], None).unwrap();
    let without_fsyncs = |b: &str| match json::parse(b).expect("metrics parses") {
        Value::Obj(mut fields) => {
            let before = fields.len();
            fields.retain(|(k, _)| k != "journal_fsyncs");
            assert_eq!(fields.len() + 1, before, "one fsync field");
            Value::Obj(fields).render()
        }
        other => panic!("metrics must be an object: {other:?}"),
    };
    assert_eq!(without_fsyncs(&body), without_fsyncs(&body2));

    // A submission during drain is counted as shed.
    server.drain();
    let (status, _) = http::request(
        &addr,
        "POST",
        "/jobs",
        &[],
        Some(r#"{"id":"met2","grid":"demo","cells":1}"#),
    )
    .unwrap();
    assert_eq!(status, 503);
    let (_, body) = http::request(&addr, "GET", "/metrics", &[], None).unwrap();
    let v = json::parse(&body).unwrap();
    assert_eq!(
        v.get("shed")
            .unwrap()
            .get("draining")
            .and_then(Value::as_u64),
        Some(1)
    );
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_stream_is_exactly_once() {
    let dir = tmpdir("events");
    let (server, addr) = spawn(test_config(dir.clone()));
    let spec = r#"{"id":"ev","grid":"demo","cells":3,"seed":5,"fail_cells":["demo-0001"]}"#;
    let (status, _) = http::request(&addr, "POST", "/jobs", &[], Some(spec)).unwrap();
    assert_eq!(status, 202);
    wait_done(&addr, "ev", Duration::from_secs(10));

    // Subscribe after completion: the full event log replays once.
    let mut lines = Vec::new();
    let status = http::request_stream(&addr, "/jobs/ev/events?mode=updates", |l| {
        lines.push(l.to_owned());
    })
    .unwrap();
    assert_eq!(status, 200);

    let mut done_per_label: HashMap<String, u32> = HashMap::new();
    let mut job_done = 0;
    let mut started = 0;
    for line in &lines {
        let v = json::parse(line).expect("event line parses");
        match v.get("event").and_then(Value::as_str).unwrap() {
            "cell_done" => {
                *done_per_label
                    .entry(v.get("label").and_then(Value::as_str).unwrap().to_owned())
                    .or_default() += 1;
            }
            "job_done" => job_done += 1,
            "cell_started" => started += 1,
            other => panic!("unexpected event {other}"),
        }
    }
    assert_eq!(job_done, 1, "job must terminate exactly once: {lines:?}");
    assert_eq!(done_per_label.len(), 3);
    assert!(
        done_per_label.values().all(|&n| n == 1),
        "{done_per_label:?}"
    );
    // The failing cell retried once (policy retries = 1): 2 attempts
    // plus 1 each for the two clean cells.
    assert_eq!(started, 4, "{lines:?}");

    // values mode coalesces into state snapshots, ending in the
    // terminal state.
    let mut snaps = Vec::new();
    let status = http::request_stream(&addr, "/jobs/ev/events?mode=values", |l| {
        snaps.push(l.to_owned());
    })
    .unwrap();
    assert_eq!(status, 200);
    let last = json::parse(snaps.last().expect("at least one snapshot")).unwrap();
    assert_eq!(last.get("event").and_then(Value::as_str), Some("state"));
    assert_eq!(last.get("status").and_then(Value::as_str), Some("done"));
    assert_eq!(last.get("cells_done").and_then(Value::as_u64), Some(2));
    assert_eq!(last.get("cells_failed").and_then(Value::as_u64), Some(1));

    let (status, _) = http::request(&addr, "GET", "/jobs/ev/events?mode=bogus", &[], None).unwrap();
    assert_eq!(status, 400);

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_saturation_sheds_with_retry_after() {
    let dir = tmpdir("saturate");
    let mut cfg = test_config(dir.clone());
    cfg.queue_depth = 2;
    let (server, addr) = spawn(cfg);

    // Job 1 occupies the worker; jobs 2-3 fill the queue (depth 2).
    let submit = |id: &str| {
        http::request(
            &addr,
            "POST",
            "/jobs",
            &[],
            Some(&format!(
                "{{\"id\":\"{id}\",\"grid\":\"demo\",\"cells\":2,\"cell_sleep_ms\":200,\"seed\":1}}"
            )),
        )
        .unwrap()
    };
    let (status, _) = submit("s1");
    assert_eq!(status, 202);
    // Let the worker claim s1 so the queue is empty before filling it.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(submit("s2").0, 202);
    assert_eq!(submit("s3").0, 202);

    // The queue is full: the next submission is shed with a retry hint.
    let (status, headers, body) = http::request_full(
        &addr,
        "POST",
        "/jobs",
        &[],
        Some(r#"{"id":"s4","grid":"demo","cells":2,"seed":1}"#),
    )
    .unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(
        headers
            .get("retry-after")
            .is_some_and(|v| v.parse::<u64>().is_ok()),
        "429 must carry Retry-After: {headers:?}"
    );
    // The shed job was never admitted.
    let (status, _) = http::request(&addr, "GET", "/jobs/s4", &[], None).unwrap();
    assert_eq!(status, 404);

    // Every accepted job still completes.
    for id in ["s1", "s2", "s3"] {
        wait_done(&addr, id, Duration::from_secs(30));
    }

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rate_limiter_sheds_per_client() {
    let dir = tmpdir("rate");
    let mut cfg = test_config(dir.clone());
    cfg.rate_burst = 2;
    cfg.rate_per_sec = 1;
    let (server, addr) = spawn(cfg);

    // Two requests fit the burst; the third is limited — independently
    // per client (admission happens before spec parsing, so malformed
    // bodies exercise it without queueing work).
    for client in ["alice", "bob"] {
        let post = || {
            http::request_full(&addr, "POST", "/jobs", &[("x-client", client)], Some("{}")).unwrap()
        };
        assert_eq!(post().0, 400);
        assert_eq!(post().0, 400);
        let (status, headers, _) = post();
        assert_eq!(status, 429, "client {client}");
        let retry: u64 = headers
            .get("retry-after")
            .expect("Retry-After present")
            .parse()
            .expect("Retry-After is seconds");
        assert!(retry >= 1);
    }

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Simulates a crash mid-sweep: a journal with only some cells
/// committed (as a SIGKILL would leave it), then a fresh server on the
/// same state dir. The job resumes, re-runs only the missing cells, and
/// the final bytes match an uninterrupted run exactly.
#[test]
fn resume_after_partial_journal_is_byte_identical() {
    // Reference: uninterrupted run.
    let ref_dir = tmpdir("resume-ref");
    let (ref_server, ref_addr) = spawn(test_config(ref_dir.clone()));
    let spec_doc = r#"{"id":"r","grid":"demo","cells":6,"seed":42,"fail_cells":["demo-0004"]}"#;
    let (status, _) = http::request(&ref_addr, "POST", "/jobs", &[], Some(spec_doc)).unwrap();
    assert_eq!(status, 202);
    let reference = wait_done(&ref_addr, "r", Duration::from_secs(10));
    ref_server.drain();
    ref_server.join();

    // Interrupted world: pre-commit the first three cells into a bare
    // journal, exactly what a killed server leaves behind.
    let cut_dir = tmpdir("resume-cut");
    let spec = JobSpec::from_value(&json::parse(spec_doc).unwrap()).unwrap();
    let job_dir = cut_dir.join("r");
    {
        let journal = Journal::create(&job_dir, &manifest_value("r", &spec.normalized())).unwrap();
        journal.with_committer(|store| {
            for (i, cell) in spec.build_cells().iter().take(3).enumerate() {
                let status = match (cell.run)() {
                    Ok(v) => CellStatus::Done(v),
                    Err(e) => CellStatus::Failed(e),
                };
                store.commit(&CellOutcome {
                    index: i,
                    label: cell.label.clone(),
                    status,
                    attempts: 1,
                    reused: false,
                });
            }
        });
    }
    let pre_log_len = std::fs::metadata(job_dir.join("cells.log")).unwrap().len();

    // Restarted server: recovery re-queues the job automatically.
    let (server, addr) = spawn(test_config(cut_dir.clone()));
    let resumed = wait_done(&addr, "r", Duration::from_secs(10));
    assert_eq!(
        resumed, reference,
        "resumed output must be byte-identical to the uninterrupted run"
    );
    let disk = std::fs::read_to_string(job_dir.join("result.json")).unwrap();
    assert_eq!(disk, reference);

    // Only the incomplete cells executed: no exec record for the three
    // pre-committed labels appears after the pre-kill log prefix.
    let log = std::fs::read_to_string(job_dir.join("cells.log")).unwrap();
    let tail = &log[usize::try_from(pre_log_len).unwrap()..];
    let mut executed = Vec::new();
    for line in tail.lines() {
        let payload = line.splitn(3, ' ').nth(2).expect("framed line");
        let v = json::parse(payload).unwrap();
        if v.get("t").and_then(Value::as_str) == Some("exec") {
            executed.push(v.get("label").and_then(Value::as_str).unwrap().to_owned());
        }
    }
    assert!(!executed.is_empty(), "the incomplete cells must execute");
    for done in ["demo-0000", "demo-0001", "demo-0002"] {
        assert!(
            !executed.iter().any(|l| l == done),
            "completed cell {done} re-executed after resume: {executed:?}"
        );
    }

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}

/// A drain mid-sweep lets the in-flight cell finish and commit, leaves
/// the rest pending, and a restart completes the job with bytes
/// identical to an undisturbed run.
#[test]
fn drain_checkpoints_and_restart_completes() {
    let ref_dir = tmpdir("drain-ref");
    let (ref_server, ref_addr) = spawn(test_config(ref_dir.clone()));
    let spec = r#"{"id":"d","grid":"demo","cells":5,"seed":9,"cell_sleep_ms":150}"#;
    let (status, _) = http::request(&ref_addr, "POST", "/jobs", &[], Some(spec)).unwrap();
    assert_eq!(status, 202);
    let reference = wait_done(&ref_addr, "d", Duration::from_secs(15));
    ref_server.drain();
    ref_server.join();

    let dir = tmpdir("drain-cut");
    let (server, addr) = spawn(test_config(dir.clone()));
    let (status, _) = http::request(&addr, "POST", "/jobs", &[], Some(spec)).unwrap();
    assert_eq!(status, 202);
    // Interrupt mid-sweep (5 cells x 150 ms, one worker).
    std::thread::sleep(Duration::from_millis(320));
    let (status, _) = http::request(&addr, "POST", "/drain", &[], None).unwrap();
    assert_eq!(status, 200);
    // Draining servers refuse new work.
    let (status, _) = http::request(
        &addr,
        "POST",
        "/jobs",
        &[],
        Some(r#"{"grid":"demo","cells":1}"#),
    )
    .unwrap();
    assert_eq!(status, 503);
    server.drain();
    server.join();

    // The drain checkpointed a strict subset of the sweep.
    let (_, journal, stats) = Journal::open(&dir.join("d")).unwrap();
    assert!(
        stats.cells >= 1 && stats.cells < 5,
        "expected a partial checkpoint, got {} cells",
        stats.cells
    );
    assert!(
        journal.read_result().is_none(),
        "no result for a drained job"
    );
    drop(journal);

    // Restart on the same state dir: the job resumes and finishes.
    let (server, addr) = spawn(test_config(dir.clone()));
    let resumed = wait_done(&addr, "d", Duration::from_secs(15));
    assert_eq!(resumed, reference);

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `XCACHE_CELL_TIMEOUT_MS` (the policy deadline): a cell that exceeds
/// its wall-clock budget fails with a structured reason; the rest of
/// the sweep is unaffected.
#[test]
fn cell_deadline_fails_structurally() {
    let dir = tmpdir("deadline");
    let mut cfg = test_config(dir.clone());
    cfg.policy = CheckpointPolicy {
        retries: 0,
        backoff_ms: 1,
        timeout_ms: Some(80),
    };
    let (server, addr) = spawn(cfg);

    // Every cell sleeps 400 ms against an 80 ms deadline — all fail
    // with the deadline reason, the job still terminates.
    let spec = r#"{"id":"t","grid":"demo","cells":2,"cell_sleep_ms":400,"seed":1}"#;
    let (status, _) = http::request(&addr, "POST", "/jobs", &[], Some(spec)).unwrap();
    assert_eq!(status, 202);
    let start = Instant::now();
    let result = loop {
        let (status, body) = http::request(&addr, "GET", "/jobs/t/result", &[], None).unwrap();
        if status == 200 {
            break body;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "job t stuck: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let v = json::parse(&result).unwrap();
    for cell in v.get("cells").and_then(Value::as_arr).unwrap() {
        assert_eq!(cell.get("status").and_then(Value::as_str), Some("failed"));
        assert!(
            cell.get("reason")
                .and_then(Value::as_str)
                .unwrap()
                .contains("deadline exceeded"),
            "{result}"
        );
    }

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-label `cell_done` counts in an event log, and whether every
/// `cell_done` precedes the (at most one) `job_done`.
fn cell_done_counts(lines: &[String]) -> (HashMap<String, u32>, usize, bool) {
    let mut counts: HashMap<String, u32> = HashMap::new();
    let mut job_done = 0;
    let mut ordered = true;
    for line in lines {
        let v = json::parse(line).expect("event line parses");
        match v.get("event").and_then(Value::as_str).unwrap() {
            "cell_done" => {
                ordered &= job_done == 0;
                *counts
                    .entry(v.get("label").and_then(Value::as_str).unwrap().to_owned())
                    .or_default() += 1;
            }
            "job_done" => job_done += 1,
            _ => {}
        }
    }
    (counts, job_done, ordered)
}

/// Follows a job's event stream from a new thread; `ready` fires once
/// `after` cells have been announced.
fn follow(
    addr: &str,
    id: &str,
    after: usize,
    ready: std::sync::mpsc::Sender<()>,
) -> std::thread::JoinHandle<Vec<String>> {
    let (addr, path) = (addr.to_owned(), format!("/jobs/{id}/events"));
    std::thread::spawn(move || {
        let mut lines = Vec::new();
        let mut done = 0;
        let status = http::request_stream(&addr, &path, |l| {
            lines.push(l.to_owned());
            if l.contains("\"cell_done\"") {
                done += 1;
                if done == after {
                    let _ = ready.send(());
                }
            }
        })
        .unwrap();
        assert_eq!(status, 200);
        lines
    })
}

/// Group commit publishes a cell only after the fsync that covers it,
/// from a thread other than the cell worker. Followed live, a 50-cell
/// job still announces each cell exactly once, before `job_done`. A
/// drain mid-job stops with every announced cell in the journal and no
/// result, and the restart announces each cell exactly once again
/// (`reused` for the journalled ones) and matches the undisturbed run.
/// The journal's debug assertions (no publication past the synced
/// length, no `result.json` before the final flush) run throughout.
#[test]
fn group_commit_announces_each_cell_once_across_a_drain() {
    let spec = r#"{"id":"g","grid":"demo","cells":50,"seed":13,"cell_sleep_ms":10}"#;

    let ref_dir = tmpdir("group-ref");
    let (server, addr) = spawn(test_config(ref_dir.clone()));
    assert_eq!(
        http::request(&addr, "POST", "/jobs", &[], Some(spec))
            .unwrap()
            .0,
        202
    );
    let (tx, _rx) = std::sync::mpsc::channel();
    let lines = follow(&addr, "g", 0, tx).join().unwrap();
    let (counts, job_done, ordered) = cell_done_counts(&lines);
    assert_eq!(job_done, 1, "{lines:?}");
    assert!(ordered, "a cell_done after job_done: {lines:?}");
    assert_eq!(counts.len(), 50);
    assert!(counts.values().all(|&n| n == 1), "{counts:?}");
    let reference = wait_done(&addr, "g", Duration::from_secs(10));
    assert_eq!(
        std::fs::read_to_string(ref_dir.join("g/result.json")).unwrap(),
        reference
    );
    server.drain();
    server.join();

    // Drain once five cells have been announced.
    let dir = tmpdir("group-drain");
    let (server, addr) = spawn(test_config(dir.clone()));
    assert_eq!(
        http::request(&addr, "POST", "/jobs", &[], Some(spec))
            .unwrap()
            .0,
        202
    );
    let (tx, rx) = std::sync::mpsc::channel();
    let follower = follow(&addr, "g", 5, tx);
    rx.recv_timeout(Duration::from_secs(10))
        .expect("five cells announced");
    server.drain();
    let lines = follower.join().unwrap();
    server.join();
    let (counts, job_done, _) = cell_done_counts(&lines);
    assert_eq!(job_done, 0, "{lines:?}");
    assert!(counts.values().all(|&n| n == 1), "{counts:?}");
    assert!(
        (5..50).contains(&counts.len()),
        "expected a partial run, got {} cells",
        counts.len()
    );
    // Announced is exactly journalled: the run flushed before the job
    // turned `interrupted`, so nothing durable went unannounced either.
    let (_, journal, stats) = Journal::open(&dir.join("g")).unwrap();
    assert_eq!(stats.cells, counts.len());
    for label in counts.keys() {
        assert!(
            journal.lookup(label).is_some(),
            "{label} announced, not journalled"
        );
    }
    assert!(journal.read_result().is_none());
    drop(journal);

    let (server, addr) = spawn(test_config(dir.clone()));
    let (tx, _rx) = std::sync::mpsc::channel();
    let lines = follow(&addr, "g", 0, tx).join().unwrap();
    let (resumed, job_done, ordered) = cell_done_counts(&lines);
    assert_eq!(job_done, 1, "{lines:?}");
    assert!(ordered, "a cell_done after job_done: {lines:?}");
    assert_eq!(resumed.len(), 50);
    assert!(resumed.values().all(|&n| n == 1), "{resumed:?}");
    let reused = lines
        .iter()
        .filter(|l| l.contains("\"reused\":true"))
        .count();
    assert_eq!(reused, counts.len());
    assert_eq!(wait_done(&addr, "g", Duration::from_secs(10)), reference);
    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
