//! Integration tests of the `xasm` CLI binary.

use std::process::Command;

const XASM: &str = env!("CARGO_BIN_EXE_xasm");

const VALID: &str = r"
walker t
states Default
regs 1
routine r {
    allocR
    retire
}
on Default, Miss -> r
";

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xasm-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let p = dir.join(name);
    std::fs::write(&p, content).expect("write");
    p
}

#[test]
fn check_accepts_valid_walker() {
    let src = write_tmp("valid.xw", VALID);
    let out = Command::new(XASM)
        .args(["check", src.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("walker `t`"));
    assert!(stdout.contains("2 microcode words"));
}

#[test]
fn check_rejects_invalid_walker() {
    let src = write_tmp(
        "invalid.xw",
        "walker t\nstates Default\nroutine r {\n allocR\n}\non Default, Miss -> r\n",
    );
    let out = Command::new(XASM)
        .args(["check", src.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("terminator"), "stderr: {stderr}");
}

#[test]
fn build_produces_decodable_image() {
    let src = write_tmp("build.xw", VALID);
    let out_path = write_tmp("build.bin", "");
    let out = Command::new(XASM)
        .args([
            "build",
            src.to_str().expect("utf8"),
            out_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let image = std::fs::read(&out_path).expect("image written");
    // Header: routine count (1), offset (0), then 2 actions x 2 words.
    let count = u64::from_le_bytes(image[0..8].try_into().expect("count"));
    assert_eq!(count, 1);
    let words: Vec<u64> = image[16..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("word")))
        .collect();
    let actions = xcache_isa::decode(&words).expect("decodes");
    assert_eq!(actions.len(), 2);
    assert!(actions[1].is_terminator());
}

#[test]
fn disasm_round_trips_through_check() {
    let src = write_tmp("rt.xw", VALID);
    let out = Command::new(XASM)
        .args(["disasm", src.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let canonical = String::from_utf8_lossy(&out.stdout).into_owned();
    let src2 = write_tmp("rt2.xw", &canonical);
    let out2 = Command::new(XASM)
        .args(["check", src2.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(out2.status.success());
}

#[test]
fn dump_shows_routine_table() {
    let src = write_tmp("dump.xw", VALID);
    let out = Command::new(XASM)
        .args(["dump", src.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("routine table"));
    assert!(stdout.contains("allocR"));
    assert!(stdout.contains("retire"));
}

#[test]
fn usage_on_bad_invocation() {
    let out = Command::new(XASM).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

// ---- error-path exit codes: 1 = load/parse, 2 = verify ------------------

#[test]
fn missing_file_exits_one() {
    let out = Command::new(XASM)
        .args(["check", "/nonexistent/nope.xw"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nope.xw"), "stderr: {stderr}");
}

#[test]
fn parse_error_exits_one() {
    let src = write_tmp("garbage.xw", "walker t\nroutine { this is not xasm\n");
    let out = Command::new(XASM)
        .args(["check", src.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
}

/// Assembles (the structural pass accepts it) but trips the verifier: the
/// launch entry issues a DRAM read and then retires, never consuming the
/// fill, and an AGEN action follows the issue without a yield.
const VERIFY_BAD: &str = r"
walker t
states Default
regs 1
routine r {
    allocR
    mov r0, key
    dram_read r0, 8
    add r0, r0, 1
    fault
}
on Default, Miss -> r
";

#[test]
fn verify_failure_exits_two_with_located_diagnostics() {
    let src = write_tmp("vbad.xw", VERIFY_BAD);
    let out = Command::new(XASM)
        .args(["check", "--verify", src.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[missed-yield]"), "stderr: {stderr}");
    assert!(stderr.contains("routine `r` @3"), "stderr: {stderr}");
    assert!(stderr.contains("verification failed"), "stderr: {stderr}");
}

#[test]
fn without_verify_flag_the_same_program_passes() {
    let src = write_tmp("vbad2.xw", VERIFY_BAD);
    let out = Command::new(XASM)
        .args(["check", src.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(out.status.success());
}

/// Clean except for an unreachable routine — a warning, so `--verify`
/// passes and `--verify --deny-warnings` exits 2.
const VERIFY_WARN: &str = r"
walker t
states Default
regs 1
routine r {
    allocR
    fault
}
routine orphan {
    retire
}
on Default, Miss -> r
";

#[test]
fn deny_warnings_escalates_warnings_to_exit_two() {
    let src = write_tmp("vwarn.xw", VERIFY_WARN);
    let ok = Command::new(XASM)
        .args(["check", "--verify", src.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stderr = String::from_utf8_lossy(&ok.stderr);
    assert!(stderr.contains("warning[unreachable]"), "stderr: {stderr}");

    let deny = Command::new(XASM)
        .args([
            "check",
            "--verify",
            "--deny-warnings",
            src.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert_eq!(deny.status.code(), Some(2));
}

#[test]
fn build_respects_verify_and_writes_nothing_on_failure() {
    let src = write_tmp("vbuild.xw", VERIFY_BAD);
    let out_path = std::env::temp_dir().join("xasm-tests/vbuild-should-not-exist.bin");
    let _ = std::fs::remove_file(&out_path);
    let out = Command::new(XASM)
        .args([
            "build",
            "--verify",
            src.to_str().expect("utf8"),
            out_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(!out_path.exists(), "no image may be written on failure");
}

#[test]
fn shipped_walkers_pass_verify_deny_warnings() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../walkers");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&dir).expect("walkers/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "xw") {
            continue;
        }
        let out = Command::new(XASM)
            .args([
                "check",
                "--verify",
                "--deny-warnings",
                path.to_str().expect("utf8"),
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        checked += 1;
    }
    assert_eq!(checked, 6);
}
