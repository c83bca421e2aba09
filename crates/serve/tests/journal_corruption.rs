//! Journal corruption properties: any truncation or byte-garbling of
//! `cells.log` yields a clean salvage-and-re-run — never a panic and
//! never a silently wrong resume. The recovered run's final output is
//! byte-identical to an uninterrupted run's.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

use proptest::prelude::*;
use xcache_bench::{CellStatus, CheckpointPolicy, Runner, Scenario};
use xcache_serve::grids::to_runner_cells;
use xcache_serve::journal::{manifest_value, Journal};
use xcache_serve::json;
use xcache_serve::{JobSpec, JournalError};

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "xcache-corrupt-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn demo_spec(cells: u32, fail_one: bool) -> JobSpec {
    let doc = if fail_one {
        format!(
            "{{\"grid\":\"demo\",\"cells\":{cells},\"seed\":11,\"fail_cells\":[\"demo-0002\"]}}"
        )
    } else {
        format!("{{\"grid\":\"demo\",\"cells\":{cells},\"seed\":11}}")
    };
    JobSpec::from_value(&json::parse(&doc).unwrap()).unwrap()
}

/// Runs the spec's grid to completion against `journal` and returns the
/// per-cell terminal results in declaration order.
fn run_to_completion(spec: &JobSpec, journal: &Journal) -> Vec<Result<String, String>> {
    let policy = CheckpointPolicy {
        retries: 1,
        backoff_ms: 0,
        timeout_ms: None,
    };
    journal
        .with_committer(|store| {
            let outcomes = Runner::with_jobs(2).run_with_checkpoint(
                to_runner_cells(&spec.build_cells()),
                store,
                &policy,
                &AtomicBool::new(false),
            );
            // The run flushed before returning: the whole log is durable.
            let log_len = std::fs::metadata(journal.dir().join("cells.log"))
                .unwrap()
                .len();
            assert_eq!(journal.synced_len(), log_len);
            outcomes
        })
        .into_iter()
        .map(|o| match o.status {
            CellStatus::Done(v) => Ok(v),
            CellStatus::Failed(r) => Err(r),
            CellStatus::Pending => panic!("uncancelled run left a pending cell"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the log at any byte offset salvages a valid prefix:
    /// every replayed cell matches the original byte for byte, and a
    /// re-run over the salvaged journal reproduces the full result.
    #[test]
    fn truncation_salvages_a_prefix(cut_frac in 0u64..1001, case in 0u64..u64::MAX) {
        let spec = demo_spec(6, case % 2 == 0);
        let dir = tmpdir("trunc", case);
        let journal = Journal::create(&dir, &manifest_value("t", &spec.normalized())).unwrap();
        let reference = run_to_completion(&spec, &journal);
        drop(journal);

        let log = dir.join("cells.log");
        let bytes = std::fs::read(&log).unwrap();
        let cut = (bytes.len() as u64 * cut_frac / 1000) as usize;
        std::fs::write(&log, &bytes[..cut]).unwrap();

        let (_, journal, stats) = Journal::open(&dir).expect("truncation must not corrupt the manifest");
        // Salvaged cells are exact copies of the originals.
        for (i, r) in reference.iter().enumerate() {
            let label = format!("demo-{i:04}");
            if let Some(got) = journal.lookup(&label) {
                prop_assert_eq!(&got, r, "salvaged cell {} diverged", label);
            }
        }
        prop_assert!(stats.cells <= reference.len());
        // Re-running over the salvaged journal completes the job with
        // byte-identical results.
        let rerun = run_to_completion(&spec, &journal);
        prop_assert_eq!(rerun, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Garbling any single byte never panics and never produces a wrong
    /// payload: damaged records are dropped (checksum), intact prefixes
    /// survive, and the re-run converges to the reference output.
    #[test]
    fn garbling_never_yields_wrong_bytes(pos_frac in 0u64..1000, flip in 1u64..256, case in 0u64..u64::MAX) {
        let spec = demo_spec(5, false);
        let dir = tmpdir("garble", case);
        let journal = Journal::create(&dir, &manifest_value("g", &spec.normalized())).unwrap();
        let reference = run_to_completion(&spec, &journal);
        drop(journal);

        let log = dir.join("cells.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let pos = (bytes.len() as u64 * pos_frac / 1000) as usize;
        bytes[pos] ^= u8::try_from(flip).expect("flip < 256");
        std::fs::write(&log, &bytes).unwrap();

        let (_, journal, _) = Journal::open(&dir).expect("log damage must not corrupt the manifest");
        for (i, r) in reference.iter().enumerate() {
            let label = format!("demo-{i:04}");
            if let Some(got) = journal.lookup(&label) {
                prop_assert_eq!(&got, r, "garbled journal returned a wrong payload for {}", label);
            }
        }
        let rerun = run_to_completion(&spec, &journal);
        prop_assert_eq!(rerun, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A version-mismatched manifest is an explicit error (the service then
/// restarts the job from scratch), and a garbled one likewise — neither
/// resumes silently.
#[test]
fn manifest_damage_is_explicit() {
    for (tag, content) in [
        (
            "vers",
            &br#"{"schema":"xcache-journal/0","job":"x","spec":{"grid":"demo"}}"#[..],
        ),
        ("json", b"{\"schema\":"),
        ("empty", b""),
    ] {
        let dir = tmpdir(tag, 0);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), content).unwrap();
        std::fs::write(dir.join("cells.log"), b"").unwrap();
        match Journal::open(&dir) {
            Err(JournalError::Corrupt(_)) => {}
            other => panic!("{tag}: expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The full recovery chain: complete run → truncate mid-log → reopen →
/// finish → the on-disk result bytes match an untouched run's. An
/// untouched journalled run in turn matches the plain in-memory
/// `Runner::run` over the same cells, on a grid of DSA simulations.
#[test]
fn recovered_result_is_byte_identical() {
    let spec = demo_spec(8, true);

    let ref_dir = tmpdir("ref", 1);
    let journal = Journal::create(&ref_dir, &manifest_value("r", &spec.normalized())).unwrap();
    let reference = run_to_completion(&spec, &journal);
    drop(journal);

    let cut_dir = tmpdir("cut", 1);
    let journal = Journal::create(&cut_dir, &manifest_value("r", &spec.normalized())).unwrap();
    let _ = run_to_completion(&spec, &journal);
    drop(journal);
    let log = cut_dir.join("cells.log");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() / 2]).unwrap();

    let (_, journal, stats) = Journal::open(&cut_dir).unwrap();
    assert!(stats.cells < 8, "half the log should not hold all cells");
    let recovered = run_to_completion(&spec, &journal);
    assert_eq!(recovered, reference);

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&cut_dir);

    // fig18: GraphPulse and Widx cells. No injected failures: the
    // checkpointed runner adds the attempt count to a failure's reason.
    let spec =
        JobSpec::from_value(&json::parse(r#"{"grid":"fig18","scale":60,"seed":7}"#).unwrap())
            .unwrap();
    let plain = Runner::with_jobs(2).run(
        spec.build_cells()
            .into_iter()
            .map(|c| Scenario::new(c.label, move || (c.run)()))
            .collect(),
    );
    let dir = tmpdir("plain", 1);
    let journal = Journal::create(&dir, &manifest_value("p", &spec.normalized())).unwrap();
    assert_eq!(run_to_completion(&spec, &journal), plain);
    let _ = std::fs::remove_dir_all(&dir);
}
