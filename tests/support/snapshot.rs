//! The one check for every pinned simulated output.
//!
//! A suite renders a cell to text and calls [`check`], which compares it
//! with `tests/snapshots/<suite>/<name>.txt` at the workspace root, where
//! `<suite>` is the test binary's name. With `XCACHE_BLESS=1` it writes
//! the rendering there instead, so after a re-record
//! `git diff --word-diff tests/snapshots` is the table of moved values.
//! Suites under `crates/<crate>/tests/` include this file with `#[path]`.

use std::path::{Path, PathBuf};

/// The command that re-records every snapshot.
const BLESS: &str = "XCACHE_BLESS=1 cargo test -q --no-fail-fast";

/// The snapshot directory of the suite being compiled.
pub fn dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let root = root.expect("the suite's crate sits two levels below the workspace root");
    root.join("tests/snapshots").join(env!("CARGO_CRATE_NAME"))
}

/// Checks `actual` against snapshot `name`, or records it under
/// `XCACHE_BLESS=1`. A mismatch names the file and its first moved line.
pub fn check(name: &str, actual: &str) {
    let path = dir().join(format!("{name}.txt"));
    if std::env::var("XCACHE_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(dir()).expect("snapshot directory");
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; record it with `{BLESS}`", path.display()));
    if want == actual {
        return;
    }
    let (old, new): (Vec<_>, Vec<_>) = (want.split('\n').collect(), actual.split('\n').collect());
    let i = (0..)
        .find(|&i| old.get(i) != new.get(i))
        .expect("texts differ");
    let line = |v: &[&str]| v.get(i).map_or("end of file".into(), |l| format!("`{l}`"));
    panic!(
        "{}:{}: the snapshot has {}, this run gives {}; if the move is meant, \
         re-record with `{BLESS}` and list it in CHANGES.md",
        path.display(),
        i + 1,
        line(&old),
        line(&new)
    );
}
