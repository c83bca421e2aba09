//! Checks that tie the program to `BENCHMARK.json` and run every workload
//! once end to end.

use xcache_serve::json::{self, Value};

use crate::metrics::{self, Metric, END_TO_END, PER_LAYER};
use crate::run;
use crate::workloads::Workload;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Value, key: &str) -> Vec<(String, Option<String>, Option<String>)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Value::as_str).map(str::to_owned);
            (s("name").expect("named"), s("unit"), s("better"))
        })
        .collect()
}

fn table(list: &[Metric]) -> Vec<(String, Option<String>, Option<String>)> {
    list.iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Some(m.unit.to_owned()),
                Some(m.better.as_str().to_owned()),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_program_reports() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}

/// A one-operation round of every workload, untraced, yields a finite
/// value for every metric `BENCHMARK.json` lists, and no failures.
#[test]
fn one_op_round_per_workload_reports_every_metric() {
    for w in Workload::ALL {
        let report = run::measure(w, 11, 1e-3, false).expect("round completes");
        assert_eq!(
            report.fact("failed"),
            0.0,
            "{}: {:?}",
            w.name(),
            report.errors
        );
        assert!(
            report.errors.is_empty(),
            "{}: {:?}",
            w.name(),
            report.errors
        );
        assert!(!report.op_ms.is_empty(), "{} timed no operation", w.name());
        let e2e = metrics::end_to_end(&report);
        let layers = metrics::per_layer(&report, &report);
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(layers.len(), PER_LAYER.len());
        for v in e2e {
            assert!(
                v.is_finite() && v > 0.0,
                "{}: end-to-end value {v}",
                w.name()
            );
        }
        assert!(layers.iter().all(|v| v.is_finite()), "{}", w.name());
    }
}
