//! Durable sweep journal: one directory per job under the state dir.
//!
//! Layout:
//!
//! ```text
//! <state_dir>/<job_id>/
//!   manifest.json   # schema, job spec, seed, env knobs, git SHA — written once, atomically
//!   cells.log       # append-only checksummed records, fsync'd per commit batch
//!   result.json     # final assembled output — written atomically when the job finishes
//! ```
//!
//! `cells.log` lines are `x1 <16-hex-checksum> <compact-json>\n`. Two
//! record kinds share the log: `{"t":"exec",...}` marks an execution
//! attempt starting (the cell-execution counter resume tests audit),
//! and `{"t":"cell",...}` is a terminal result.
//!
//! Terminal records are group-committed by a [`Committer`] that lives
//! for one run. A commit appends its record and returns, so the cell
//! worker moves straight on to the next cell. The committer thread
//! repeatedly takes every record appended so far, covers them all with
//! one `sync_all`, and only then runs their publish actions (events,
//! counters). A batch is whatever accumulated while the previous fsync
//! ran, so it sizes itself: one record when fsync is cheap, many when
//! it is slow. Nothing is published before it is durable, so a SIGKILL
//! can lose at most work no client has seen.
//!
//! Recovery replays the longest valid prefix: the first line that is
//! truncated, fails its checksum, or does not parse ends the replay,
//! and the file is truncated back to the last valid byte so appends
//! continue from a clean state. The replayed prefix is fsync'd before
//! any of it is announced: a record appended but not yet synced when
//! the previous process died is still in the page cache, and replay
//! must not publish what a power loss could take back. Simulations are
//! deterministic, so re-running the (few) cells past the salvage point
//! reproduces their payloads byte for byte — corruption costs work,
//! never correctness.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use xcache_bench::{CellOutcome, CellStatus, CheckpointStore};

use crate::json::{self, json_str, Value};

/// Journal schema version; a mismatch is an explicit error, never a
/// guessed resume.
pub const SCHEMA: &str = "xcache-journal/1";

/// Process-wide count of journal `sync_all` calls, surfaced by the
/// server's `/metrics` endpoint (durability work is the service's main
/// per-cell overhead, so operators want it visible).
static FSYNC_COUNT: AtomicU64 = AtomicU64::new(0);

fn note_fsync() {
    FSYNC_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// Number of journal fsyncs performed by this process so far.
#[must_use]
pub fn fsync_count() -> u64 {
    FSYNC_COUNT.load(Ordering::Relaxed)
}

/// Why a journal could not be opened.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The manifest is missing, unparseable, or has the wrong schema.
    /// The job directory cannot be trusted; the caller restarts from
    /// scratch (or surfaces the error) instead of resuming.
    Corrupt(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Corrupt(why) => write!(f, "journal corrupt: {why}"),
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What replaying `cells.log` recovered.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Terminal cell records recovered.
    pub cells: usize,
    /// Execution-attempt records seen.
    pub execs: usize,
    /// Bytes discarded past the last valid record (0 on a clean log).
    pub discarded: u64,
}

/// An open per-job journal. A run commits to it through a
/// [`Committer`] (see [`Journal::with_committer`]).
pub struct Journal {
    dir: PathBuf,
    log: Mutex<Log>,
    /// A second handle on `cells.log`, so an fsync never holds the
    /// append lock.
    sync_handle: File,
    /// Bytes of `cells.log` covered by the last completed `sync_all`.
    synced: AtomicU64,
    cells: Mutex<HashMap<String, Result<String, String>>>,
}

/// The append side of `cells.log`.
struct Log {
    file: File,
    /// End offset of the last appended record.
    len: u64,
}

/// splitmix64 folded over the record bytes — the workspace's standard
/// mixer, used here as a corruption (not adversary) detector.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15_u64;
    for &b in bytes {
        h = xcache_core::splitmix64(h ^ u64::from(b));
    }
    h
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("cells.log")
}

/// Atomically writes `bytes` to `dir/name` (temp file + fsync + rename
/// + directory fsync), so readers never observe a partial file.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        note_fsync();
    }
    fs::rename(&tmp, dir.join(name))?;
    File::open(dir)?.sync_all()?;
    note_fsync();
    Ok(())
}

fn encode_line(payload: &str) -> String {
    format!("x1 {:016x} {payload}\n", checksum(payload.as_bytes()))
}

/// Decodes one log line (without trailing newline); `None` if the
/// frame or checksum is invalid.
fn decode_line(line: &str) -> Option<Value> {
    let rest = line.strip_prefix("x1 ")?;
    let (hex, payload) = rest.split_at_checked(16)?;
    let payload = payload.strip_prefix(' ')?;
    let want = u64::from_str_radix(hex, 16).ok()?;
    if checksum(payload.as_bytes()) != want {
        return None;
    }
    json::parse(payload).ok()
}

impl Journal {
    /// Creates a fresh journal: job directory, manifest, empty log. The
    /// manifest must carry `"schema"` = [`SCHEMA`] (the caller builds it
    /// via [`manifest_value`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(dir: &Path, manifest: &Value) -> Result<Journal, JournalError> {
        fs::create_dir_all(dir)?;
        write_atomic(dir, "manifest.json", manifest.render().as_bytes())?;
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(log_path(dir))?;
        Journal::new(dir, file, 0, HashMap::new())
    }

    fn new(
        dir: &Path,
        file: File,
        len: u64,
        cells: HashMap<String, Result<String, String>>,
    ) -> Result<Journal, JournalError> {
        Ok(Journal {
            dir: dir.to_path_buf(),
            sync_handle: file.try_clone()?,
            log: Mutex::new(Log { file, len }),
            synced: AtomicU64::new(len),
            cells: Mutex::new(cells),
        })
    }

    /// Opens an existing journal for resume: validates the manifest,
    /// replays the valid prefix of `cells.log`, truncates any damaged
    /// tail, and positions the log for appends.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] when the manifest is missing/garbled or
    /// its schema does not match — the caller must not resume from it.
    pub fn open(dir: &Path) -> Result<(Value, Journal, ReplayStats), JournalError> {
        let manifest_raw = fs::read_to_string(manifest_path(dir))
            .map_err(|e| JournalError::Corrupt(format!("manifest unreadable: {e}")))?;
        let manifest = json::parse(&manifest_raw)
            .map_err(|e| JournalError::Corrupt(format!("manifest unparseable: {e}")))?;
        match manifest.get("schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            Some(other) => {
                return Err(JournalError::Corrupt(format!(
                    "schema mismatch: found `{other}`, need `{SCHEMA}`"
                )))
            }
            None => return Err(JournalError::Corrupt("manifest has no schema field".into())),
        }

        let mut raw = Vec::new();
        if let Ok(mut f) = File::open(log_path(dir)) {
            f.read_to_end(&mut raw)?;
        }
        let mut cells = HashMap::new();
        let mut stats = ReplayStats::default();
        let mut valid_len = 0usize;
        let mut at = 0usize;
        while at < raw.len() {
            // A record is only valid if its newline made it to disk —
            // a partial final line is torn, not trusted.
            let Some(nl) = raw[at..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let Ok(line) = std::str::from_utf8(&raw[at..at + nl]) else {
                break;
            };
            let Some(rec) = decode_line(line) else {
                break;
            };
            match rec.get("t").and_then(Value::as_str) {
                Some("exec") => stats.execs += 1,
                Some("cell") => {
                    let Some(label) = rec.get("label").and_then(Value::as_str) else {
                        break;
                    };
                    let result = match rec.get("status").and_then(Value::as_str) {
                        Some("done") => match rec.get("value") {
                            Some(v) => Ok(v.render()),
                            None => break,
                        },
                        Some("failed") => match rec.get("reason").and_then(Value::as_str) {
                            Some(r) => Err(r.to_owned()),
                            None => break,
                        },
                        _ => break,
                    };
                    // First record wins: a cell is committed at most
                    // once per run, and replay trusts the earliest.
                    if !cells.contains_key(label) {
                        cells.insert(label.to_owned(), result);
                        stats.cells += 1;
                    }
                }
                _ => break,
            }
            at += nl + 1;
            valid_len = at;
        }
        stats.discarded = (raw.len() - valid_len) as u64;

        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(log_path(dir))?;
        file.set_len(valid_len as u64)?;
        file.seek(std::io::SeekFrom::End(0))?;
        // The replayed records are announced as `reused` without ever
        // passing through a committer, and the previous process may
        // have died between appending them and syncing them. Sync them
        // (and any truncation) before they become visible.
        if !raw.is_empty() {
            file.sync_all()?;
            note_fsync();
        }
        let journal = Journal::new(dir, file, valid_len as u64, cells)?;
        Ok((manifest, journal, stats))
    }

    /// The job directory this journal lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of terminal cells currently recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.lock().expect("journal lock").len()
    }

    /// Whether no terminal cells are recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of `cells.log` covered by the last completed fsync.
    #[must_use]
    pub fn synced_len(&self) -> u64 {
        self.synced.load(Ordering::SeqCst)
    }

    /// Appends one framed record and returns the log's new end offset.
    fn append(&self, payload: &str) -> u64 {
        let line = encode_line(payload);
        let mut log = self.log.lock().expect("journal log lock");
        // A full disk degrades durability, not correctness: the cell
        // re-runs after restart and reproduces the same bytes.
        if log.file.write_all(line.as_bytes()).is_ok() {
            log.len += line.len() as u64;
        }
        log.len
    }

    /// Makes every record appended so far durable; returns the length
    /// now covered. The fsync runs on the cloned handle, so appends
    /// continue while it waits on the disk.
    fn sync(&self) -> u64 {
        let len = self.log.lock().expect("journal log lock").len;
        let _ = self.sync_handle.sync_all();
        note_fsync();
        self.synced.fetch_max(len, Ordering::SeqCst);
        len
    }

    /// Appends the terminal record for `outcome` and returns its end
    /// offset, or `None` for a pending outcome (never recorded).
    fn record(&self, outcome: &CellOutcome) -> Option<u64> {
        let (payload, result) = match &outcome.status {
            CellStatus::Done(v) => (
                // `v` is the cell's JSON payload; embed it raw so the
                // record (and the final output assembled from it) is
                // byte-identical to the uninterrupted run's.
                format!(
                    "{{\"t\":\"cell\",\"label\":{},\"status\":\"done\",\"value\":{v}}}",
                    json_str(&outcome.label)
                ),
                Ok(v.clone()),
            ),
            CellStatus::Failed(reason) => (
                format!(
                    "{{\"t\":\"cell\",\"label\":{},\"status\":\"failed\",\"reason\":{}}}",
                    json_str(&outcome.label),
                    json_str(reason)
                ),
                Err(reason.clone()),
            ),
            CellStatus::Pending => return None,
        };
        let end = self.append(&payload);
        self.cells
            .lock()
            .expect("journal lock")
            .insert(outcome.label.clone(), result);
        Some(end)
    }

    /// The recorded terminal result for `label`, if any.
    #[must_use]
    pub fn lookup(&self, label: &str) -> Option<Result<String, String>> {
        self.cells.lock().expect("journal lock").get(label).cloned()
    }

    /// Appends an execution-attempt marker. Exec markers are the resume
    /// audit trail ("did a completed cell re-execute?"); losing one to a
    /// crash only means the attempt is re-counted, so nothing waits for
    /// its fsync.
    pub fn started(&self, index: usize, label: &str, attempt: u32) {
        self.append(&format!(
            "{{\"t\":\"exec\",\"index\":{index},\"label\":{},\"attempt\":{attempt}}}",
            json_str(label)
        ));
    }

    /// Runs `run` with a [`Committer`] over this journal and a committer
    /// thread behind it. When `run` returns (or unwinds), every record
    /// committed through the committer is durable and published.
    pub fn with_committer<'a, R>(&'a self, run: impl FnOnce(&Committer<'a>) -> R) -> R {
        let committer = Committer {
            journal: self,
            queue: Mutex::new(Queue::default()),
            cond: Condvar::new(),
        };
        std::thread::scope(|s| {
            s.spawn(|| committer.sync_loop());
            // Also on unwind: the scope joins the committer thread, so
            // it must be told to stop.
            let _close = Defer(|| committer.update(|q| q.closed = true));
            run(&committer)
        })
    }

    /// Writes the final assembled job output atomically as
    /// `result.json`. Call it after the run's final flush: the result
    /// must never be durable while a record it summarises is not.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_result(&self, bytes: &[u8]) -> std::io::Result<()> {
        debug_assert_eq!(
            self.synced_len(),
            self.log.lock().expect("journal log lock").len,
            "result.json written before the final flush"
        );
        write_atomic(&self.dir, "result.json", bytes)
    }

    /// The final output written by [`write_result`](Self::write_result),
    /// if the job already finished.
    #[must_use]
    pub fn read_result(&self) -> Option<String> {
        fs::read_to_string(self.dir.join("result.json")).ok()
    }
}

/// What to do once a committed record is durable: announce the cell.
pub type Publish<'a> = Box<dyn FnOnce() + Send + 'a>;

/// The pipelined group commit of one run over one [`Journal`]. Commits
/// append and return; the committer thread fsyncs whole batches and
/// runs each record's [`Publish`] action only after the fsync that
/// covers it.
pub struct Committer<'a> {
    journal: &'a Journal,
    queue: Mutex<Queue<'a>>,
    cond: Condvar,
}

#[derive(Default)]
struct Queue<'a> {
    /// Appended records awaiting an fsync: end offset and publish action.
    waiting: Vec<(u64, Publish<'a>)>,
    /// Committed records not yet published (waiting plus the batch
    /// being synced).
    unpublished: usize,
    /// The run is over: drain what is waiting, then stop.
    closed: bool,
    /// The committer thread has exited; only a panic stops it while
    /// records are still unpublished.
    stopped: bool,
}

impl<'a> Committer<'a> {
    /// Appends the terminal record for `outcome` and returns at once;
    /// `publish` runs on the committer thread once the record is
    /// durable. A pending outcome is neither recorded nor published.
    pub fn commit_then(&self, outcome: &CellOutcome, publish: Publish<'a>) {
        let Some(end) = self.journal.record(outcome) else {
            return;
        };
        let mut queue = self.queue.lock().expect("commit queue lock");
        queue.waiting.push((end, publish));
        queue.unpublished += 1;
        self.cond.notify_all();
    }

    /// Locks the queue (even a poisoned one: this also runs during
    /// unwinds), applies `f`, and wakes every waiter.
    fn update(&self, f: impl FnOnce(&mut Queue<'a>)) {
        f(&mut self.queue.lock().unwrap_or_else(PoisonError::into_inner));
        self.cond.notify_all();
    }

    fn sync_loop(&self) {
        let _stopped = Defer(|| self.update(|q| q.stopped = true));
        let mut queue = self.queue.lock().expect("commit queue lock");
        loop {
            if queue.waiting.is_empty() {
                if queue.closed {
                    return;
                }
                queue = self.cond.wait(queue).expect("commit queue wait");
                continue;
            }
            let batch = std::mem::take(&mut queue.waiting);
            drop(queue);
            let synced = self.journal.sync();
            let n = batch.len();
            for (end, publish) in batch {
                debug_assert!(
                    end <= synced,
                    "record ending at byte {end} published with {synced} bytes durable"
                );
                publish();
            }
            queue = self.queue.lock().expect("commit queue lock");
            queue.unpublished -= n;
            self.cond.notify_all();
        }
    }
}

impl CheckpointStore for Committer<'_> {
    fn lookup(&self, label: &str) -> Option<Result<String, String>> {
        self.journal.lookup(label)
    }

    fn commit(&self, outcome: &CellOutcome) {
        self.commit_then(outcome, Box::new(|| {}));
    }

    fn flush(&self) {
        let mut queue = self.queue.lock().expect("commit queue lock");
        while queue.unpublished > 0 {
            assert!(!queue.stopped, "journal committer thread panicked");
            queue = self.cond.wait(queue).expect("commit queue wait");
        }
    }

    fn started(&self, index: usize, label: &str, attempt: u32) {
        self.journal.started(index, label, attempt);
    }
}

/// Runs its closure when dropped, including during an unwind.
struct Defer<F: FnMut()>(F);

impl<F: FnMut()> Drop for Defer<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// Builds the standard manifest object: schema version, job id, the
/// normalized job spec, and the environment fingerprint (git SHA plus
/// the env knobs that shape results).
#[must_use]
pub fn manifest_value(job_id: &str, spec: &Value) -> Value {
    let knobs = ["XCACHE_FAULT_SPEC", "XCACHE_FAULT_SEED", "XCACHE_PAR"]
        .iter()
        .filter_map(|k| {
            std::env::var(k)
                .ok()
                .map(|v| ((*k).to_owned(), Value::Str(v)))
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("job".into(), Value::Str(job_id.into())),
        ("spec".into(), spec.clone()),
        ("git_sha".into(), Value::Str(xcache_bench::git_sha())),
        ("env".into(), Value::Obj(knobs)),
    ])
}

/// Job directories under `state_dir`, sorted by name for deterministic
/// startup resume order.
#[must_use]
pub fn list_jobs(state_dir: &Path) -> Vec<(String, PathBuf)> {
    let Ok(entries) = fs::read_dir(state_dir) else {
        return Vec::new();
    };
    let mut jobs: Vec<(String, PathBuf)> = entries
        .flatten()
        .filter(|e| e.path().is_dir() && manifest_path(&e.path()).exists())
        .filter_map(|e| e.file_name().into_string().ok().map(|n| (n, e.path())))
        .collect();
    jobs.sort();
    jobs
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("cells", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcache_bench::CellStatus;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xcache-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn done(label: &str, value: &str) -> CellOutcome {
        CellOutcome {
            index: 0,
            label: label.into(),
            status: CellStatus::Done(value.into()),
            attempts: 1,
            reused: false,
        }
    }

    #[test]
    fn create_commit_reopen_replays() {
        let dir = tmpdir("roundtrip");
        let spec = json::parse(r#"{"grid":"fig18","seed":7}"#).unwrap();
        let j = Journal::create(&dir, &manifest_value("job-a", &spec)).unwrap();
        j.started(0, "c0", 1);
        j.with_committer(|c| {
            c.commit(&done("c0", r#"{"v":1}"#));
            c.commit(&CellOutcome {
                index: 1,
                label: "c1".into(),
                status: CellStatus::Failed("boom".into()),
                attempts: 3,
                reused: false,
            });
        });
        drop(j);

        let (manifest, j2, stats) = Journal::open(&dir).unwrap();
        assert_eq!(manifest.get("job").and_then(Value::as_str), Some("job-a"));
        assert_eq!(
            manifest
                .get("spec")
                .and_then(|s| s.get("grid"))
                .and_then(Value::as_str),
            Some("fig18")
        );
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.execs, 1);
        assert_eq!(stats.discarded, 0);
        assert_eq!(j2.lookup("c0"), Some(Ok(r#"{"v":1}"#.into())));
        assert_eq!(j2.lookup("c1"), Some(Err("boom".into())));
        assert_eq!(j2.lookup("c2"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_publishes_each_record_once_and_only_when_durable() {
        let dir = tmpdir("group");
        let spec = json::parse("{}").unwrap();
        let j = Journal::create(&dir, &manifest_value("job-g", &spec)).unwrap();
        let published = Mutex::new(Vec::new());
        // Where `label`'s terminal record ends in the log.
        let record_end = |label: &str| {
            let log = fs::read_to_string(log_path(&dir)).unwrap();
            let at = log.find(&format!("\"label\":\"{label}\"")).unwrap();
            (at + log[at..].find('\n').unwrap() + 1) as u64
        };
        j.with_committer(|c| {
            for i in 0..20 {
                let label = format!("c{i}");
                let (j, published, record_end) = (&j, &published, &record_end);
                c.commit_then(
                    &done(&label, "{}"),
                    Box::new(move || {
                        assert!(j.synced_len() >= record_end(&label));
                        published.lock().unwrap().push(label);
                    }),
                );
            }
            c.flush();
            assert_eq!(published.lock().unwrap().len(), 20);
        });
        let mut labels = published.into_inner().unwrap();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 20);
        assert_eq!(j.synced_len(), fs::metadata(log_path(&dir)).unwrap().len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = tmpdir("torn");
        let spec = json::parse("{}").unwrap();
        let j = Journal::create(&dir, &manifest_value("job-b", &spec)).unwrap();
        j.with_committer(|c| c.commit(&done("c0", r#"{"v":0}"#)));
        drop(j);
        // Simulate a crash mid-append: a torn final line.
        let mut f = OpenOptions::new()
            .append(true)
            .open(log_path(&dir))
            .unwrap();
        f.write_all(b"x1 0123456789abcdef {\"t\":\"cell\",\"label\":\"c1")
            .unwrap();
        drop(f);

        let (_, j2, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.cells, 1);
        assert!(stats.discarded > 0);
        assert_eq!(j2.lookup("c1"), None);
        // Appends land after the salvage point and replay cleanly.
        j2.with_committer(|c| c.commit(&done("c1", r#"{"v":1}"#)));
        drop(j2);
        let (_, j3, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.discarded, 0);
        assert_eq!(j3.lookup("c1"), Some(Ok(r#"{"v":1}"#.into())));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_ends_replay() {
        let dir = tmpdir("bitrot");
        let spec = json::parse("{}").unwrap();
        let j = Journal::create(&dir, &manifest_value("job-c", &spec)).unwrap();
        j.with_committer(|c| {
            c.commit(&done("c0", r#"{"v":0}"#));
            c.commit(&done("c1", r#"{"v":1}"#));
        });
        drop(j);
        // Flip a payload byte in the first record; both records must be
        // rejected (replay stops at the first bad line).
        let mut raw = fs::read(log_path(&dir)).unwrap();
        let pos = raw.iter().position(|&b| b == b'v').unwrap();
        raw[pos] = b'w';
        fs::write(log_path(&dir), &raw).unwrap();

        let (_, j2, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.cells, 0);
        assert!(stats.discarded > 0);
        assert!(j2.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_is_explicit_error() {
        let dir = tmpdir("schema");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            manifest_path(&dir),
            br#"{"schema":"xcache-journal/99","job":"x","spec":{}}"#,
        )
        .unwrap();
        match Journal::open(&dir) {
            Err(JournalError::Corrupt(why)) => assert!(why.contains("schema mismatch")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_manifest_is_explicit_error() {
        let dir = tmpdir("garble");
        fs::create_dir_all(&dir).unwrap();
        fs::write(manifest_path(&dir), b"{not json").unwrap();
        assert!(matches!(Journal::open(&dir), Err(JournalError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
