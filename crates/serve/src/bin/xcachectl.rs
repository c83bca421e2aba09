//! `xcachectl` — command-line client for `xcached`.
//!
//! ```text
//! xcachectl submit '<spec-json>'       submit a job (or @file.json)
//! xcachectl jobs                       list jobs
//! xcachectl status <job>               one job's status
//! xcachectl result <job>               final output (fails until done)
//! xcachectl wait <job>                 poll until terminal, print result
//! xcachectl watch <job> [mode]         stream NDJSON events (updates|values)
//! xcachectl drain                      ask the server to drain
//! ```
//!
//! The server address comes from `XCACHE_ADDR` (default
//! `127.0.0.1:7878`). Exit codes: 0 success, 1 transport/HTTP error,
//! 2 usage error, 3 job ended interrupted.

use std::time::Duration;

use xcache_serve::json::{self, Value};
use xcache_serve::{addr_from_env, http};

fn usage() -> ! {
    eprintln!(
        "usage: xcachectl <submit <spec|@file> | jobs | status <job> | result <job> | wait <job> | watch <job> [mode] | drain>"
    );
    std::process::exit(2);
}

/// Runs a request and prints the body; exits 1 on transport failure or
/// a non-2xx status.
fn call(method: &str, path: &str, body: Option<&str>) -> String {
    match http::request(&addr_from_env(), method, path, &[], body) {
        Ok((status, body)) => {
            if (200..300).contains(&status) {
                println!("{body}");
                body
            } else {
                eprintln!("error: HTTP {status}: {body}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn job_status(id: &str) -> Result<(String, String), String> {
    let (status, body) = http::request(&addr_from_env(), "GET", &format!("/jobs/{id}"), &[], None)?;
    if status != 200 {
        return Err(format!("HTTP {status}: {body}"));
    }
    let v = json::parse(&body).map_err(|e| format!("bad status body: {e}"))?;
    let phase = v
        .get("status")
        .and_then(Value::as_str)
        .ok_or("status body has no status field")?
        .to_owned();
    Ok((phase, body))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["submit", spec] => {
            let body = if let Some(path) = spec.strip_prefix('@') {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("error: read {path}: {e}");
                    std::process::exit(2);
                })
            } else {
                (*spec).to_owned()
            };
            call("POST", "/jobs", Some(&body));
        }
        ["jobs"] => {
            call("GET", "/jobs", None);
        }
        ["status", id] => {
            call("GET", &format!("/jobs/{id}"), None);
        }
        ["result", id] => {
            call("GET", &format!("/jobs/{id}/result"), None);
        }
        ["wait", id] => loop {
            match job_status(id) {
                Ok((phase, body)) => match phase.as_str() {
                    "done" => {
                        call("GET", &format!("/jobs/{id}/result"), None);
                        return;
                    }
                    "interrupted" => {
                        eprintln!("job {id} interrupted: {body}");
                        std::process::exit(3);
                    }
                    _ => std::thread::sleep(Duration::from_millis(200)),
                },
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        },
        ["watch", id] => watch(id, "updates"),
        ["watch", id, mode] => watch(id, mode),
        ["drain"] => {
            call("POST", "/drain", None);
        }
        _ => usage(),
    }
}

fn watch(id: &str, mode: &str) {
    if !matches!(mode, "updates" | "values") {
        eprintln!("error: watch mode must be updates or values");
        std::process::exit(2);
    }
    match http::request_stream(
        &addr_from_env(),
        &format!("/jobs/{id}/events?mode={mode}"),
        |line| {
            println!("{line}");
        },
    ) {
        Ok(200) => {}
        Ok(status) => {
            eprintln!("error: HTTP {status}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
