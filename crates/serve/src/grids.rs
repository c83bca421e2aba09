//! Job specs and the scenario grids they expand into.
//!
//! A job spec is a small JSON object (`grid`, `scale`, `seed`, plus
//! test knobs) that expands deterministically into a vector of labelled
//! cells. The same spec always produces the same labels in the same
//! order with the same payloads — the property that makes resume "run
//! the incomplete subset" instead of "diff two worlds".
//!
//! Grids:
//! - `fig18` — the parameter sweep of the `fig18_param_sweep` experiment:
//!   GraphPulse and Widx across `#Active/#Exe` ∈ {4/1, 8/2, 16/4, 32/8},
//!   each cell run by the experiment's own `xcache_bench::Fig18Bench`.
//! - `fig14` — one cell per DSA cluster (Widx Q19/Q20/Q22, DASX,
//!   GraphPulse, SpArch, Gamma), each evaluated in all three storage
//!   configurations: `xcache_bench::DsaCluster`, as `dsa_scenarios` runs
//!   them.
//! - `demo` — a synthetic grid of cheap splitmix cells, for tests and
//!   saturation drills where simulation time would be noise.
//!
//! Test knobs (all grids): `fail_cells` lists labels that
//! deterministically fail every attempt (exercising retry exhaustion
//! without poisoning the job), and `cell_sleep_ms` adds wall-clock per
//! attempt (so kill-and-resume tests can interrupt mid-sweep). Neither
//! affects a cell's payload bytes.

use std::sync::Arc;

use xcache_bench::{Cell, DsaCluster, Fig18Bench, FIG18_GRID};
use xcache_core::splitmix64;

use crate::journal::checksum;
use crate::json::{json_str, Value};

/// A cell description: label plus a repeatable closure producing the
/// cell's JSON payload. `Arc`'d so the same spec can feed both the
/// checkpointed and the plain runner path.
#[derive(Clone)]
pub struct CellSpec {
    /// Unique label within the grid; the journal key.
    pub label: String,
    /// Produces the payload; deterministic across attempts/processes.
    pub run: Arc<dyn Fn() -> Result<String, String> + Send + Sync>,
}

/// A validated job spec.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Explicit id from the client, if any.
    pub id: Option<String>,
    /// Grid name (`fig18` | `fig14` | `demo`).
    pub grid: String,
    /// Harness scale divisor (fig grids).
    pub scale: u32,
    /// Workload seed.
    pub seed: u64,
    /// Cell count (demo grid only).
    pub cells: u32,
    /// Labels that fail deterministically (test knob).
    pub fail_cells: Vec<String>,
    /// Wall-clock sleep per attempt in ms (test knob).
    pub cell_sleep_ms: u64,
}

impl JobSpec {
    /// Parses and validates a job spec from its JSON form.
    ///
    /// # Errors
    ///
    /// A structured description of the first invalid field — the
    /// service turns this into a `400`, never a panic.
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        let obj_fields = match v {
            Value::Obj(f) => f,
            _ => return Err("job spec must be a JSON object".into()),
        };
        for (k, _) in obj_fields {
            if !matches!(
                k.as_str(),
                "id" | "grid" | "scale" | "seed" | "cells" | "fail_cells" | "cell_sleep_ms"
            ) {
                return Err(format!("unknown job spec field `{k}`"));
            }
        }
        let grid = v
            .get("grid")
            .and_then(Value::as_str)
            .ok_or("job spec needs a string `grid` field")?;
        if !matches!(grid, "fig18" | "fig14" | "demo") {
            return Err(format!(
                "unknown grid `{grid}` (expected fig18, fig14 or demo)"
            ));
        }
        let id = match v.get("id") {
            None => None,
            Some(Value::Str(s)) => {
                if s.is_empty()
                    || s.len() > 64
                    || !s
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
                {
                    return Err(format!(
                        "bad job id `{s}`: need 1-64 chars of [A-Za-z0-9._-]"
                    ));
                }
                Some(s.clone())
            }
            Some(_) => return Err("job `id` must be a string".into()),
        };
        let num = |field: &str, default: u64, min: u64, max: u64| -> Result<u64, String> {
            match v.get(field) {
                None => Ok(default),
                Some(n) => {
                    let n = n
                        .as_u64()
                        .ok_or_else(|| format!("`{field}` must be a non-negative integer"))?;
                    if n < min || n > max {
                        return Err(format!("`{field}` must be in {min}..={max}, got {n}"));
                    }
                    Ok(n)
                }
            }
        };
        let scale = u32::try_from(num("scale", 10, 1, 1 << 20)?).expect("bounded");
        let seed = num("seed", 7, 0, u64::MAX)?;
        let cells = u32::try_from(num("cells", 4, 1, 4096)?).expect("bounded");
        let cell_sleep_ms = num("cell_sleep_ms", 0, 0, 60_000)?;
        let fail_cells = match v.get("fail_cells") {
            None => Vec::new(),
            Some(Value::Arr(items)) => {
                let mut out = Vec::new();
                for it in items {
                    out.push(
                        it.as_str()
                            .ok_or("`fail_cells` entries must be strings")?
                            .to_owned(),
                    );
                }
                out
            }
            Some(_) => return Err("`fail_cells` must be an array of labels".into()),
        };
        Ok(JobSpec {
            id,
            grid: grid.to_owned(),
            scale,
            seed,
            cells,
            fail_cells,
            cell_sleep_ms,
        })
    }

    /// The canonical spec object: fixed key order, defaults filled in,
    /// job id excluded. Stored in the manifest and hashed for implicit
    /// job ids, so equal work → equal bytes → equal id.
    #[must_use]
    pub fn normalized(&self) -> Value {
        let mut fields = vec![
            ("grid".into(), Value::Str(self.grid.clone())),
            ("scale".into(), Value::from_u64(u64::from(self.scale))),
            ("seed".into(), Value::from_u64(self.seed)),
        ];
        if self.grid == "demo" {
            fields.push(("cells".into(), Value::from_u64(u64::from(self.cells))));
        }
        if !self.fail_cells.is_empty() {
            fields.push((
                "fail_cells".into(),
                Value::Arr(self.fail_cells.iter().cloned().map(Value::Str).collect()),
            ));
        }
        if self.cell_sleep_ms > 0 {
            fields.push(("cell_sleep_ms".into(), Value::from_u64(self.cell_sleep_ms)));
        }
        Value::Obj(fields)
    }

    /// The job id: explicit if the client gave one, otherwise a hash of
    /// the normalized spec (resubmitting identical work attaches to the
    /// existing job instead of duplicating it).
    #[must_use]
    pub fn job_id(&self) -> String {
        self.id
            .clone()
            .unwrap_or_else(|| format!("{:016x}", checksum(self.normalized().render().as_bytes())))
    }

    /// Expands the spec into its cell grid.
    #[must_use]
    pub fn build_cells(&self) -> Vec<CellSpec> {
        let raw = match self.grid.as_str() {
            "fig18" => fig18_cells(self.scale, self.seed),
            "fig14" => fig14_cells(self.scale, self.seed),
            _ => demo_cells(self.cells, self.seed),
        };
        let sleep = self.cell_sleep_ms;
        let fail: Arc<[String]> = self.fail_cells.clone().into();
        raw.into_iter()
            .map(|c| {
                let label = c.label.clone();
                let inner = c.run;
                let fail = Arc::clone(&fail);
                CellSpec {
                    label: c.label,
                    run: Arc::new(move || {
                        if sleep > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(sleep));
                        }
                        if fail.contains(&label) {
                            return Err(format!("injected failure (fail_cells: {label})"));
                        }
                        inner()
                    }),
                }
            })
            .collect()
    }
}

/// Adapts cell specs to the checkpointed runner's `Cell` type.
#[must_use]
pub fn to_runner_cells(specs: &[CellSpec]) -> Vec<Cell<'static>> {
    specs
        .iter()
        .map(|c| {
            let f = Arc::clone(&c.run);
            Cell::new(c.label.clone(), move || f())
        })
        .collect()
}

fn fig18_cells(scale: u32, seed: u64) -> Vec<CellSpec> {
    let mut out = Vec::new();
    for bench in Fig18Bench::ALL {
        for (active, exe) in FIG18_GRID {
            out.push(CellSpec {
                label: bench.label(active, exe),
                run: Arc::new(move || {
                    let cycles = bench.cycles(scale, seed, active, exe);
                    Ok(format!(
                        "{{\"bench\":\"{}\",\"active\":{active},\"exe\":{exe},\"cycles\":{cycles}}}",
                        bench.name()
                    ))
                }),
            });
        }
    }
    out
}

/// Serializes one DSA cluster result; fixed precision keeps the bytes
/// deterministic across runs.
fn dsa_payload(run: &xcache_bench::DsaRun) -> String {
    format!(
        "{{\"name\":{},\"speedup_vs_addr\":{:.6},\"speedup_vs_baseline\":{:.6},\"dram_ratio\":{:.6},\"sim_cycles\":{}}}",
        json_str(&run.name),
        run.speedup_vs_addr(),
        run.speedup_vs_baseline(),
        run.dram_ratio(),
        run.sim_cycles()
    )
}

fn fig14_cells(scale: u32, seed: u64) -> Vec<CellSpec> {
    DsaCluster::all()
        .into_iter()
        .map(|cluster| CellSpec {
            label: cluster.name(),
            run: Arc::new(move || Ok(dsa_payload(&cluster.run(scale, seed)))),
        })
        .collect()
}

fn demo_cells(cells: u32, seed: u64) -> Vec<CellSpec> {
    (0..cells)
        .map(|i| CellSpec {
            label: format!("demo-{i:04}"),
            run: Arc::new(move || {
                // A short splitmix chain: real (deterministic) work, but
                // cheap enough that service tests measure the service.
                let mut x = splitmix64(seed ^ u64::from(i));
                for _ in 0..1_000 {
                    x = splitmix64(x);
                }
                Ok(format!("{{\"cell\":{i},\"v\":{x}}}"))
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec(doc: &str) -> Result<JobSpec, String> {
        JobSpec::from_value(&json::parse(doc).unwrap())
    }

    #[test]
    fn parses_and_normalizes() {
        let s = spec(r#"{"grid":"demo","cells":3,"seed":1}"#).unwrap();
        assert_eq!(
            s.normalized().render(),
            r#"{"grid":"demo","scale":10,"seed":1,"cells":3}"#
        );
        // Implicit id is stable and spec-derived.
        assert_eq!(
            s.job_id(),
            spec(r#"{"seed":1,"cells":3,"grid":"demo"}"#)
                .unwrap()
                .job_id()
        );
        assert_ne!(
            s.job_id(),
            spec(r#"{"grid":"demo","cells":4,"seed":1}"#)
                .unwrap()
                .job_id()
        );
    }

    #[test]
    fn rejects_bad_specs() {
        for doc in [
            r#"{"grid":"fig99"}"#,
            r#"{"scale":4}"#,
            r#"{"grid":"demo","bogus":1}"#,
            r#"{"grid":"demo","cells":0}"#,
            r#"{"grid":"demo","id":"bad id"}"#,
            r#"{"grid":"demo","fail_cells":[3]}"#,
            r#"{"grid":"demo","scale":-1}"#,
            r#"[1]"#,
        ] {
            assert!(spec(doc).is_err(), "{doc} should be rejected");
        }
    }

    #[test]
    fn demo_cells_are_deterministic_and_fail_injection_works() {
        let s = spec(r#"{"grid":"demo","cells":3,"seed":9,"fail_cells":["demo-0001"]}"#).unwrap();
        let cells = s.build_cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].label, "demo-0000");
        let a = (cells[0].run)().unwrap();
        let b = (cells[0].run)().unwrap();
        assert_eq!(a, b);
        assert!((cells[1].run)().unwrap_err().contains("injected failure"));
        assert!((cells[2].run)().is_ok());
    }

    #[test]
    fn fig_grids_have_expected_labels() {
        let s = spec(r#"{"grid":"fig18"}"#).unwrap();
        let labels: Vec<_> = s.build_cells().iter().map(|c| c.label.clone()).collect();
        assert_eq!(labels.len(), 8);
        assert_eq!(labels[0], "graphpulse 4/1");
        assert_eq!(labels[7], "widx 32/8");

        let s = spec(r#"{"grid":"fig14"}"#).unwrap();
        let labels: Vec<_> = s.build_cells().iter().map(|c| c.label.clone()).collect();
        assert_eq!(labels.len(), 7);
        assert!(labels.contains(&"DASX".to_owned()));
        assert!(labels.contains(&"GraphPulse p2p-08".to_owned()));
    }
}
