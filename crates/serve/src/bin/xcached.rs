//! `xcached` — the durable scenario service daemon.
//!
//! Reads every knob first ([`Config::from_env`]; a malformed one exits
//! 2 before it listens), binds `XCACHE_ADDR` (default `127.0.0.1:7878`),
//! recovers any incomplete jobs from `XCACHE_STATE_DIR`, and serves the
//! job API:
//!
//! ```text
//! POST /jobs                 submit a job spec (JSON body)
//! GET  /jobs                 list jobs
//! GET  /jobs/<id>            job status
//! GET  /jobs/<id>/result     final output (409 until done)
//! GET  /jobs/<id>/events     NDJSON progress stream (?mode=updates|values)
//! POST /drain                graceful drain (same as SIGTERM)
//! GET  /healthz              liveness
//! ```
//!
//! SIGTERM/SIGINT initiate a graceful drain: in-flight cells finish and
//! commit to the journal, queued jobs stay journalled for the next
//! start, and the process exits 0. SIGKILL loses at most in-flight
//! work — a restart on the same state dir resumes and produces output
//! byte-identical to an uninterrupted run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use xcache_serve::{Config, Server};

/// Set from the signal handler; only atomics are async-signal-safe.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT and SIGTERM via the C `signal`
/// entry point — std links libc, and the vendor policy rules out a
/// libc crate.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

fn main() {
    let (cfg, addr) = xcache_sim::exit2(Config::from_env());
    install_signal_handlers();

    let server = match Server::spawn(cfg.clone(), &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start xcached on {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "xcached: listening on {} (state dir: {})",
        server.addr(),
        cfg.state_dir.display()
    );

    loop {
        std::thread::sleep(Duration::from_millis(100));
        if SHUTDOWN.load(Ordering::SeqCst) || server.draining() {
            break;
        }
    }
    eprintln!("xcached: draining (in-flight cells finish and checkpoint)");
    server.drain();
    server.join();
    eprintln!("xcached: drained, exiting");
}
