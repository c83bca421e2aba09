//! Exact journal fsync accounting. `journal::fsync_count()` is
//! process-wide, so these tests live in their own test binary and take a
//! shared lock: no other fsync can land inside a measured window.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use xcache_bench::{CellOutcome, CellStatus, CheckpointStore};
use xcache_serve::journal::{fsync_count, manifest_value, Journal};
use xcache_serve::json;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xcache-fsync-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn create(dir: &Path) -> Journal {
    let spec = json::parse("{}").unwrap();
    Journal::create(dir, &manifest_value("f", &spec)).unwrap()
}

fn done(i: usize) -> CellOutcome {
    CellOutcome {
        index: i,
        label: format!("c{i}"),
        status: CellStatus::Done(format!("{{\"v\":{i}}}")),
        attempts: 1,
        reused: false,
    }
}

/// Records appended but never synced (a SIGKILL between append and
/// group fsync) are replayed on resume and announced as reused, so
/// opening a non-empty log must sync it first, even when it is
/// undamaged. An empty log has nothing to announce and costs no fsync.
#[test]
fn resume_syncs_a_non_empty_log_before_replay() {
    let _serial = serial();

    let dir = tmpdir("resume");
    let journal = create(&dir);
    journal.with_committer(|store| {
        for i in 0..3 {
            store.commit(&done(i));
        }
    });
    drop(journal);
    let before = fsync_count();
    let (_, journal, stats) = Journal::open(&dir).unwrap();
    assert_eq!(fsync_count() - before, 1, "undamaged non-empty log");
    assert_eq!((stats.cells, stats.discarded), (3, 0));
    let log_len = std::fs::metadata(dir.join("cells.log")).unwrap().len();
    assert_eq!(journal.synced_len(), log_len);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmpdir("empty");
    drop(create(&dir));
    let before = fsync_count();
    let (_, _, stats) = Journal::open(&dir).unwrap();
    assert_eq!(fsync_count() - before, 0, "empty log");
    assert_eq!(stats.cells, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batch is whatever accumulated while the previous fsync (and its
/// publication) ran. Holding the first publication until 49 more cells
/// have committed forces those 49 into a single follow-up batch: 50
/// cells, at most two fsyncs, every cell published exactly once.
#[test]
fn commits_during_a_sync_share_the_next_fsync() {
    let _serial = serial();

    let dir = tmpdir("batch");
    let journal = create(&dir);
    let published = Mutex::new(Vec::new());
    let (release, hold) = mpsc::channel::<()>();
    let hold = Mutex::new(hold);
    let before = fsync_count();
    journal.with_committer(|commits| {
        let (published, hold) = (&published, &hold);
        commits.commit_then(
            &done(0),
            Box::new(move || {
                hold.lock().unwrap().recv().unwrap();
                published.lock().unwrap().push(0);
            }),
        );
        for i in 1..50 {
            commits.commit_then(
                &done(i),
                Box::new(move || published.lock().unwrap().push(i)),
            );
        }
        release.send(()).unwrap();
        commits.flush();
        assert_eq!(published.lock().unwrap().len(), 50);
    });
    let fsyncs = fsync_count() - before;
    assert!((1..=2).contains(&fsyncs), "{fsyncs} fsyncs for 50 cells");
    let mut seen = published.into_inner().unwrap();
    seen.sort_unstable();
    assert_eq!(seen, (0..50).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}
