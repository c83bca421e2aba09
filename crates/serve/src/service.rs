//! The scenario service: job registry, admission control, the sweep
//! worker, and progress streaming.
//!
//! One worker thread drains a bounded job queue; each job's cells run
//! through `Runner::run_with_checkpoint` against its on-disk journal,
//! whose group commit makes every terminal cell durable before it is
//! visible. Submission is guarded by a per-client token bucket and the
//! queue bound — both shed load with `429` + `Retry-After` rather than
//! queueing without limit. A drain (SIGTERM or `POST /drain`) lets in-flight cells
//! finish and commit, then exits; interrupted jobs resume from their
//! journals on the next start.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use xcache_bench::{CellOutcome, CellStatus, CheckpointPolicy, CheckpointStore, Runner};
use xcache_sim::{env_parse, env_parse_map, EnvError};

use crate::grids::{to_runner_cells, JobSpec};
use crate::http::{respond, start_ndjson, Request};
use crate::journal::{self, Committer, Journal, JournalError};
use crate::json::{self, json_str, Value};

/// Result schema version stamped into every final output.
pub const RESULT_SCHEMA: &str = "xcache-result/1";

/// Service configuration, sourced from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Root of the durable state (`XCACHE_STATE_DIR`).
    pub state_dir: PathBuf,
    /// Max queued (not yet running) jobs before shedding
    /// (`XCACHE_QUEUE_DEPTH`).
    pub queue_depth: usize,
    /// Token-bucket capacity per client (`XCACHE_RATE_BURST`).
    pub rate_burst: u32,
    /// Token refill per second (`XCACHE_RATE_RPS`); 0 disables rate
    /// limiting.
    pub rate_per_sec: u32,
    /// Per-cell retry/backoff/deadline policy (`XCACHE_CELL_RETRIES`,
    /// `XCACHE_CELL_BACKOFF_MS`, `XCACHE_CELL_TIMEOUT_MS`).
    pub policy: CheckpointPolicy,
    /// Worker threads per running job (`XCACHE_SERVE_JOBS`); `None`
    /// falls back to `XCACHE_JOBS` / available parallelism.
    pub cell_jobs: Option<usize>,
}

impl Config {
    /// Reads the configuration, validating every knob.
    ///
    /// # Errors
    ///
    /// The first malformed variable, as a structured [`EnvError`]
    /// (`xcached` exits 2 on it; tests keep the `Result`).
    pub fn from_env() -> Result<Config, EnvError> {
        let state_dir = std::env::var("XCACHE_STATE_DIR")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .map_or_else(|| PathBuf::from("xcache-state"), PathBuf::from);
        let queue_depth = env_parse_map("XCACHE_QUEUE_DEPTH", |s| {
            s.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "queue depth must be an integer >= 1".to_owned())
        })?
        .unwrap_or(8);
        let rate_burst = env_parse_map("XCACHE_RATE_BURST", |s| {
            s.parse::<u32>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "rate burst must be an integer >= 1".to_owned())
        })?
        .unwrap_or(16);
        let rate_per_sec = env_parse::<u32>("XCACHE_RATE_RPS")?.unwrap_or(0);
        let retries = env_parse::<u32>("XCACHE_CELL_RETRIES")?.unwrap_or(2);
        let backoff_ms = env_parse::<u64>("XCACHE_CELL_BACKOFF_MS")?.unwrap_or(50);
        let timeout_ms = env_parse_map("XCACHE_CELL_TIMEOUT_MS", |s| {
            s.parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "cell timeout must be an integer >= 1 (ms)".to_owned())
        })?;
        let cell_jobs = env_parse_map("XCACHE_SERVE_JOBS", |s| {
            s.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "worker count must be an integer >= 1".to_owned())
        })?;
        Ok(Config {
            state_dir,
            queue_depth,
            rate_burst,
            rate_per_sec,
            policy: CheckpointPolicy {
                retries,
                backoff_ms,
                timeout_ms,
            },
            cell_jobs,
        })
    }
}

/// Job lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    /// The run was drained before completion; the journal holds the
    /// finished cells and a restart resumes the rest.
    Interrupted,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Interrupted => "interrupted",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Interrupted)
    }
}

struct JobInner {
    phase: Phase,
    cells_done: usize,
    cells_failed: usize,
    /// Rendered event objects, in emission order; streams replay from
    /// any index, so a late subscriber sees every event exactly once.
    events: Vec<String>,
    result: Option<String>,
}

struct Job {
    id: String,
    spec: JobSpec,
    cells_total: usize,
    journal: Journal,
    inner: Mutex<JobInner>,
    cond: Condvar,
}

impl Job {
    fn new(
        id: String,
        spec: JobSpec,
        journal: Journal,
        phase: Phase,
        result: Option<String>,
    ) -> Job {
        let cells_total = spec.build_cells().len();
        Job {
            id,
            spec,
            cells_total,
            journal,
            inner: Mutex::new(JobInner {
                phase,
                cells_done: 0,
                cells_failed: 0,
                events: Vec::new(),
                result,
            }),
            cond: Condvar::new(),
        }
    }

    fn bump(&self, ok: bool) {
        let mut inner = self.inner.lock().expect("job lock");
        if ok {
            inner.cells_done += 1;
        } else {
            inner.cells_failed += 1;
        }
    }

    fn emit(&self, event: String) {
        let mut inner = self.inner.lock().expect("job lock");
        inner.events.push(event);
        self.cond.notify_all();
    }

    fn status_json(&self) -> String {
        let inner = self.inner.lock().expect("job lock");
        format!(
            "{{\"job\":{},\"status\":{},\"cells_total\":{},\"cells_done\":{},\"cells_failed\":{}}}",
            json_str(&self.id),
            json_str(inner.phase.as_str()),
            self.cells_total,
            inner.cells_done,
            inner.cells_failed
        )
    }
}

/// Operational counters surfaced by `GET /metrics`.
#[derive(Default)]
struct Metrics {
    /// Submissions shed by the token bucket (429 + `Retry-After`).
    shed_rate_limited: AtomicU64,
    /// Submissions shed because the job queue was full (429).
    shed_queue_full: AtomicU64,
    /// Submissions refused during a drain (503).
    shed_draining: AtomicU64,
    /// `(label, wall µs)` per cell executed by this process, in
    /// publication order (journal-reused cells don't run, so they don't
    /// appear). The wall time runs from the attempt's start to the
    /// journal append; the fsync is not on the cell's path. The order
    /// is deterministic only for sequential runners, so consumers treat
    /// this as an operational log, not a result artifact.
    cell_walls: Mutex<Vec<(String, u128)>>,
    /// Start stamps of in-flight cells, keyed by cell index.
    cell_started: Mutex<HashMap<usize, Instant>>,
}

/// Per-client token bucket.
struct Bucket {
    tokens: f64,
    last: Instant,
}

struct State {
    cfg: Config,
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cond: Condvar,
    draining: AtomicBool,
    cancel: AtomicBool,
    /// Set by `Server::join` once the worker has drained; only then
    /// does the accept loop exit (the API stays responsive during the
    /// drain window so clients can observe the 503 and job states).
    stop_accept: AtomicBool,
    buckets: Mutex<HashMap<String, Bucket>>,
    metrics: Metrics,
}

/// The checkpoint store a running job uses: the journal's committer
/// plus the job's events and metrics. A terminal cell is announced
/// (`cell_done`, counters, `/metrics` wall entry) by the committer once
/// its record is durable — durability before visibility.
struct EventingStore<'c, 'a> {
    commits: &'c Committer<'a>,
    job: &'a Job,
    metrics: &'a Metrics,
}

impl CheckpointStore for EventingStore<'_, '_> {
    fn lookup(&self, label: &str) -> Option<Result<String, String>> {
        let hit = self.job.journal.lookup(label)?;
        // A journal hit is the resume path: count it and announce it,
        // exactly once, without re-executing anything.
        self.job.bump(hit.is_ok());
        self.job.emit(format!(
            "{{\"event\":\"cell_done\",\"job\":{},\"label\":{},\"status\":{},\"reused\":true}}",
            json_str(&self.job.id),
            json_str(label),
            json_str(if hit.is_ok() { "done" } else { "failed" })
        ));
        Some(hit)
    }

    fn commit(&self, outcome: &CellOutcome) {
        let status = match &outcome.status {
            CellStatus::Done(_) => "done",
            CellStatus::Failed(_) => "failed",
            CellStatus::Pending => return,
        };
        let wall_us = self
            .metrics
            .cell_started
            .lock()
            .expect("metrics lock")
            .remove(&outcome.index)
            .map(|at| at.elapsed().as_micros());
        let (job, metrics) = (self.job, self.metrics);
        let (index, label) = (outcome.index, outcome.label.clone());
        self.commits.commit_then(
            outcome,
            Box::new(move || {
                let event = format!(
                    "{{\"event\":\"cell_done\",\"job\":{},\"index\":{index},\"label\":{},\"status\":{},\"reused\":false}}",
                    json_str(&job.id),
                    json_str(&label),
                    json_str(status)
                );
                if let Some(us) = wall_us {
                    metrics
                        .cell_walls
                        .lock()
                        .expect("metrics lock")
                        .push((label, us));
                }
                job.bump(status == "done");
                job.emit(event);
            }),
        );
    }

    fn flush(&self) {
        self.commits.flush();
    }

    fn started(&self, index: usize, label: &str, attempt: u32) {
        self.metrics
            .cell_started
            .lock()
            .expect("metrics lock")
            .insert(index, Instant::now());
        self.job.journal.started(index, label, attempt);
        self.job.emit(format!(
            "{{\"event\":\"cell_started\",\"job\":{},\"index\":{index},\"label\":{},\"attempt\":{attempt}}}",
            json_str(&self.job.id),
            json_str(label)
        ));
    }
}

/// Assembles the final output from terminal outcomes, in declaration
/// order. Contains no attempt counts, timings, or ids of this process'
/// run — the bytes depend only on the spec, so an interrupted-and-
/// resumed job matches an uninterrupted one exactly.
fn render_result(spec: &JobSpec, outcomes: &[CellOutcome]) -> String {
    let mut out = format!(
        "{{\"schema\":{},\"spec\":{},\"cells\":[",
        json_str(RESULT_SCHEMA),
        spec.normalized().render()
    );
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match &o.status {
            CellStatus::Done(v) => {
                out.push_str(&format!(
                    "{{\"label\":{},\"status\":\"done\",\"value\":{v}}}",
                    json_str(&o.label)
                ));
            }
            CellStatus::Failed(reason) => {
                out.push_str(&format!(
                    "{{\"label\":{},\"status\":\"failed\",\"reason\":{}}}",
                    json_str(&o.label),
                    json_str(reason)
                ));
            }
            CellStatus::Pending => {}
        }
    }
    out.push_str("]}");
    out
}

/// The running service: accept loop + worker thread over shared state.
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

enum Submit {
    Created(Arc<Job>),
    Existing(Arc<Job>),
    SpecMismatch,
    QueueFull,
    Draining,
    Bad(String),
}

impl State {
    /// Token-bucket admission for `client`; `Ok` admits, `Err(secs)`
    /// sheds with the retry hint.
    fn admit(&self, client: &str) -> Result<(), u64> {
        if self.cfg.rate_per_sec == 0 {
            return Ok(());
        }
        let mut buckets = self.buckets.lock().expect("bucket lock");
        let now = Instant::now();
        let b = buckets.entry(client.to_owned()).or_insert(Bucket {
            tokens: f64::from(self.cfg.rate_burst),
            last: now,
        });
        let refill = now.duration_since(b.last).as_secs_f64() * f64::from(self.cfg.rate_per_sec);
        b.tokens = (b.tokens + refill).min(f64::from(self.cfg.rate_burst));
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Err(((1.0 - b.tokens) / f64::from(self.cfg.rate_per_sec))
                .ceil()
                .max(1.0) as u64)
        }
    }

    fn submit(&self, body: &[u8]) -> Submit {
        if self.draining.load(Ordering::SeqCst) {
            return Submit::Draining;
        }
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Submit::Bad("body is not UTF-8".into()),
        };
        let value = match json::parse(text) {
            Ok(v) => v,
            Err(e) => return Submit::Bad(format!("bad JSON: {e}")),
        };
        let spec = match JobSpec::from_value(&value) {
            Ok(s) => s,
            Err(e) => return Submit::Bad(e),
        };
        let id = spec.job_id();

        let mut jobs = self.jobs.lock().expect("jobs lock");
        if let Some(job) = jobs.get(&id) {
            if job.spec.normalized().render() != spec.normalized().render() {
                return Submit::SpecMismatch;
            }
            return Submit::Existing(Arc::clone(job));
        }
        {
            let queue = self.queue.lock().expect("queue lock");
            if queue.len() >= self.cfg.queue_depth {
                return Submit::QueueFull;
            }
        }

        let dir = self.cfg.state_dir.join(&id);
        let normalized = spec.normalized();
        let journal = if dir.join("manifest.json").exists() {
            match Journal::open(&dir) {
                Ok((manifest, journal, stats)) => {
                    let same = manifest.get("spec").map(Value::render) == Some(normalized.render());
                    if same {
                        if stats.discarded > 0 {
                            eprintln!(
                                "xcached: job {id}: salvaged journal ({} cells kept, {} bytes discarded)",
                                stats.cells, stats.discarded
                            );
                        }
                        journal
                    } else {
                        return Submit::SpecMismatch;
                    }
                }
                Err(JournalError::Corrupt(why)) => {
                    // An untrustworthy journal restarts the job from
                    // scratch — more work, never a wrong resume.
                    eprintln!("xcached: job {id}: {why}; restarting from scratch");
                    match Journal::create(&dir, &journal::manifest_value(&id, &normalized)) {
                        Ok(j) => j,
                        Err(e) => return Submit::Bad(format!("state dir error: {e}")),
                    }
                }
                Err(JournalError::Io(e)) => {
                    return Submit::Bad(format!("state dir error: {e}"));
                }
            }
        } else {
            match Journal::create(&dir, &journal::manifest_value(&id, &normalized)) {
                Ok(j) => j,
                Err(e) => return Submit::Bad(format!("state dir error: {e}")),
            }
        };

        let job = Arc::new(Job::new(id.clone(), spec, journal, Phase::Queued, None));
        jobs.insert(id, Arc::clone(&job));
        drop(jobs);
        self.enqueue(Arc::clone(&job));
        Submit::Created(job)
    }

    fn enqueue(&self, job: Arc<Job>) {
        self.queue.lock().expect("queue lock").push_back(job);
        self.queue_cond.notify_one();
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.cancel.store(true, Ordering::SeqCst);
        self.queue_cond.notify_all();
        // Terminate event streams of jobs that will not run this
        // process lifetime.
        let jobs = self.jobs.lock().expect("jobs lock");
        for job in jobs.values() {
            let mut inner = job.inner.lock().expect("job lock");
            if !inner.phase.terminal() && inner.phase != Phase::Running {
                inner.phase = Phase::Interrupted;
                job.cond.notify_all();
            }
        }
    }

    /// The worker loop: pop a job, run its sweep against the journal,
    /// finalize. Exits when draining.
    fn worker(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue lock");
                loop {
                    if self.draining.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self.queue_cond.wait(queue).expect("queue wait");
                }
            };
            self.run_job(&job);
        }
    }

    fn run_job(&self, job: &Job) {
        {
            let mut inner = job.inner.lock().expect("job lock");
            if inner.phase.terminal() {
                return;
            }
            inner.phase = Phase::Running;
        }
        let cells = to_runner_cells(&job.spec.build_cells());
        let runner = self
            .cfg
            .cell_jobs
            .map_or_else(Runner::from_env, Runner::with_jobs);
        // The run flushes before it returns: every cell is durable and
        // announced before the result, `job_done` or `Interrupted`.
        let outcomes = job.journal.with_committer(|commits| {
            let store = EventingStore {
                commits,
                job,
                metrics: &self.metrics,
            };
            runner.run_with_checkpoint(cells, &store, &self.cfg.policy, &self.cancel)
        });

        let complete = outcomes.iter().all(CellOutcome::is_terminal);
        if complete {
            let result = render_result(&job.spec, &outcomes);
            if let Err(e) = job.journal.write_result(result.as_bytes()) {
                eprintln!("xcached: job {}: cannot write result: {e}", job.id);
            }
            let (done, failed) = {
                let mut inner = job.inner.lock().expect("job lock");
                inner.result = Some(result);
                inner.phase = Phase::Done;
                (inner.cells_done, inner.cells_failed)
            };
            // Exactly one terminal event per job per run.
            job.emit(format!(
                "{{\"event\":\"job_done\",\"job\":{},\"status\":\"done\",\"cells_done\":{done},\"cells_failed\":{failed}}}",
                json_str(&job.id)
            ));
        } else {
            let mut inner = job.inner.lock().expect("job lock");
            inner.phase = Phase::Interrupted;
            job.cond.notify_all();
        }
    }

    /// Reloads jobs from the state directory at startup: finished jobs
    /// become queryable, interrupted ones are re-queued to resume.
    fn recover(self: &Arc<Self>) {
        for (id, dir) in journal::list_jobs(&self.cfg.state_dir) {
            match Journal::open(&dir) {
                Ok((manifest, journal, stats)) => {
                    let Some(spec_v) = manifest.get("spec") else {
                        eprintln!("xcached: job {id}: manifest has no spec; skipping");
                        continue;
                    };
                    let spec = match JobSpec::from_value(spec_v) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("xcached: job {id}: bad manifest spec ({e}); skipping");
                            continue;
                        }
                    };
                    let result = journal.read_result();
                    let phase = if result.is_some() {
                        Phase::Done
                    } else {
                        Phase::Queued
                    };
                    if stats.discarded > 0 {
                        eprintln!(
                            "xcached: job {id}: salvaged journal ({} cells kept, {} bytes discarded)",
                            stats.cells, stats.discarded
                        );
                    }
                    let job = Arc::new(Job::new(id.clone(), spec, journal, phase, result));
                    let resume = phase == Phase::Queued;
                    if resume {
                        eprintln!(
                            "xcached: job {id}: resuming ({} of {} cells already recorded)",
                            stats.cells, job.cells_total
                        );
                    }
                    self.jobs
                        .lock()
                        .expect("jobs lock")
                        .insert(id, Arc::clone(&job));
                    if resume {
                        self.enqueue(job);
                    }
                }
                Err(e) => {
                    eprintln!("xcached: job {id}: unreadable journal ({e}); not resuming");
                }
            }
        }
    }
}

impl Server {
    /// Binds `bind_addr`, recovers persisted jobs, and starts the
    /// worker and accept threads.
    ///
    /// # Errors
    ///
    /// Bind/listen failures.
    pub fn spawn(cfg: Config, bind_addr: &str) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State {
            cfg,
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            draining: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            stop_accept: AtomicBool::new(false),
            buckets: Mutex::new(HashMap::new()),
            metrics: Metrics::default(),
        });
        state.recover();

        let worker_state = Arc::clone(&state);
        let worker = std::thread::Builder::new()
            .name("xcached-worker".into())
            .spawn(move || worker_state.worker())?;

        let accept_state = Arc::clone(&state);
        let acceptor = std::thread::Builder::new()
            .name("xcached-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_state.stop_accept.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_state = Arc::clone(&accept_state);
                    let _ = std::thread::Builder::new()
                        .name("xcached-conn".into())
                        .spawn(move || handle_connection(&conn_state, stream));
                }
            })?;

        Ok(Server {
            state,
            addr,
            threads: vec![worker, acceptor],
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful drain: stop admitting new jobs, let the
    /// in-flight cells finish and commit. The API keeps answering
    /// (submissions get 503) until [`join`](Self::join).
    pub fn drain(&self) {
        self.state.begin_drain();
    }

    /// Waits for the drain to complete: joins the worker (in-flight
    /// cells finish and checkpoint), then stops the accept loop.
    pub fn join(mut self) {
        let worker = self.threads.remove(0);
        let _ = worker.join();
        self.state.stop_accept.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Whether a drain has been initiated.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }
}

fn client_key(req: &Request, stream: &TcpStream) -> String {
    req.headers.get("x-client").cloned().unwrap_or_else(|| {
        stream
            .peer_addr()
            .map_or_else(|_| "unknown".into(), |a| a.ip().to_string())
    })
}

fn handle_connection(state: &Arc<State>, mut stream: TcpStream) {
    let req = match Request::read(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            respond(
                &mut stream,
                400,
                &[],
                &format!("{{\"error\":{}}}", json_str(&e)),
            );
            return;
        }
    };
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let draining = state.draining.load(Ordering::SeqCst);
            respond(
                &mut stream,
                200,
                &[],
                &format!("{{\"ok\":true,\"draining\":{draining}}}"),
            );
        }
        ("POST", ["jobs"]) => {
            let client = client_key(&req, &stream);
            if let Err(retry_secs) = state.admit(&client) {
                state
                    .metrics
                    .shed_rate_limited
                    .fetch_add(1, Ordering::Relaxed);
                respond(
                    &mut stream,
                    429,
                    &[("Retry-After", &retry_secs.to_string())],
                    "{\"error\":\"rate limited\"}",
                );
                return;
            }
            match state.submit(&req.body) {
                Submit::Created(job) => respond(&mut stream, 202, &[], &job.status_json()),
                Submit::Existing(job) => respond(&mut stream, 200, &[], &job.status_json()),
                Submit::SpecMismatch => respond(
                    &mut stream,
                    409,
                    &[],
                    "{\"error\":\"job id already exists with a different spec\"}",
                ),
                Submit::QueueFull => {
                    state
                        .metrics
                        .shed_queue_full
                        .fetch_add(1, Ordering::Relaxed);
                    respond(
                        &mut stream,
                        429,
                        &[("Retry-After", "1")],
                        "{\"error\":\"queue full\"}",
                    );
                }
                Submit::Draining => {
                    state.metrics.shed_draining.fetch_add(1, Ordering::Relaxed);
                    respond(&mut stream, 503, &[], "{\"error\":\"draining\"}");
                }
                Submit::Bad(e) => {
                    respond(
                        &mut stream,
                        400,
                        &[],
                        &format!("{{\"error\":{}}}", json_str(&e)),
                    );
                }
            }
        }
        ("GET", ["jobs"]) => {
            let jobs = state.jobs.lock().expect("jobs lock");
            let mut ids: Vec<&String> = jobs.keys().collect();
            ids.sort();
            let body = format!(
                "{{\"jobs\":[{}]}}",
                ids.iter()
                    .map(|id| jobs[*id].status_json())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            drop(jobs);
            respond(&mut stream, 200, &[], &body);
        }
        ("GET", ["jobs", id]) => match lookup_job(state, id) {
            Some(job) => respond(&mut stream, 200, &[], &job.status_json()),
            None => respond(&mut stream, 404, &[], "{\"error\":\"no such job\"}"),
        },
        ("GET", ["jobs", id, "result"]) => match lookup_job(state, id) {
            Some(job) => {
                let result = job.inner.lock().expect("job lock").result.clone();
                match result {
                    Some(r) => respond(&mut stream, 200, &[], &r),
                    None => respond(&mut stream, 409, &[], &job.status_json()),
                }
            }
            None => respond(&mut stream, 404, &[], "{\"error\":\"no such job\"}"),
        },
        ("GET", ["jobs", id, "events"]) => match lookup_job(state, id) {
            Some(job) => stream_events(&job, &req, stream),
            None => respond(&mut stream, 404, &[], "{\"error\":\"no such job\"}"),
        },
        ("GET", ["metrics"]) => {
            respond(&mut stream, 200, &[], &render_metrics(state));
        }
        ("POST", ["drain"]) => {
            respond(&mut stream, 200, &[], "{\"draining\":true}");
            state.begin_drain();
        }
        (_, ["healthz" | "jobs" | "drain" | "metrics", ..]) => {
            respond(&mut stream, 405, &[], "{\"error\":\"method not allowed\"}");
        }
        _ => respond(&mut stream, 404, &[], "{\"error\":\"no such endpoint\"}"),
    }
}

/// Operational metrics as order-preserving JSON: fields render in a
/// fixed order and the `cells` array keeps publication order, so two
/// reads differ only where the underlying counters moved.
fn render_metrics(state: &Arc<State>) -> String {
    let queue_depth = state.queue.lock().expect("queue lock").len();
    let walls = state.metrics.cell_walls.lock().expect("metrics lock");
    let mut cells = String::new();
    for (i, (label, us)) in walls.iter().enumerate() {
        if i > 0 {
            cells.push(',');
        }
        cells.push_str(&format!(
            "{{\"label\":{},\"wall_us\":{us}}}",
            json_str(label)
        ));
    }
    drop(walls);
    format!(
        "{{\"queue_depth\":{queue_depth},\"shed\":{{\"rate_limited\":{},\"queue_full\":{},\"draining\":{}}},\"journal_fsyncs\":{},\"cells\":[{cells}]}}",
        state.metrics.shed_rate_limited.load(Ordering::Relaxed),
        state.metrics.shed_queue_full.load(Ordering::Relaxed),
        state.metrics.shed_draining.load(Ordering::Relaxed),
        journal::fsync_count(),
    )
}

fn lookup_job(state: &Arc<State>, id: &str) -> Option<Arc<Job>> {
    state.jobs.lock().expect("jobs lock").get(id).cloned()
}

/// Streams job progress as NDJSON until the job reaches a terminal
/// phase. `?mode=updates` (default) emits every event exactly once;
/// `?mode=values` emits the full job state after each batch of events
/// (late subscribers start from the current state either way — the
/// event log is replayed from index 0).
fn stream_events(job: &Arc<Job>, req: &Request, mut stream: TcpStream) {
    let mode = req.query.get("mode").map_or("updates", String::as_str);
    if !matches!(mode, "updates" | "values") {
        respond(
            &mut stream,
            400,
            &[],
            "{\"error\":\"mode must be updates or values\"}",
        );
        return;
    }
    if start_ndjson(&mut stream).is_err() {
        return;
    }
    use std::io::Write as _;
    let mut idx = 0usize;
    loop {
        let (batch, terminal, snapshot) = {
            let mut inner = job.inner.lock().expect("job lock");
            while inner.events.len() == idx && !inner.phase.terminal() {
                inner = job.cond.wait(inner).expect("job wait");
            }
            (
                inner.events[idx..].to_vec(),
                inner.phase.terminal(),
                format!(
                    "{{\"event\":\"state\",\"job\":{},\"status\":{},\"cells_total\":{},\"cells_done\":{},\"cells_failed\":{}}}",
                    json_str(&job.id),
                    json_str(inner.phase.as_str()),
                    job.cells_total,
                    inner.cells_done,
                    inner.cells_failed
                ),
            )
        };
        idx += batch.len();
        let payload = match mode {
            "updates" => batch.iter().fold(String::new(), |mut acc, e| {
                acc.push_str(e);
                acc.push('\n');
                acc
            }),
            _ if !batch.is_empty() || terminal => format!("{snapshot}\n"),
            _ => String::new(),
        };
        if !payload.is_empty()
            && (stream.write_all(payload.as_bytes()).is_err() || stream.flush().is_err())
        {
            return;
        }
        if terminal && batch.is_empty() {
            return;
        }
        if terminal {
            // Drain any events emitted together with the phase change,
            // then exit on the next (empty) iteration.
            continue;
        }
    }
}
