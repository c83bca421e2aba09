//! Schema regression for the bench JSON meta envelope.
//!
//! Every `results/*.json` dump carries the envelope rendered by
//! `xcache_bench::Knobs::meta_json`. Downstream tooling diffs those files across
//! commits by key, so the envelope is a wire format: fields must not be
//! renamed, re-typed, or reordered silently. This test parses it with the
//! workspace's JSON codec and pins the exact key sequence and each
//! field's JSON type; changing the envelope must come here and bump
//! `schema`.

use std::time::Duration;

use xcache_bench::Knobs;
use xcache_sim::json::{self, Value};

/// The envelope of entry `name`, parsed; its fields in document order.
fn meta(name: &str) -> Vec<(String, Value)> {
    let rendered = Knobs::from_env().meta_json(name, Duration::ZERO, 0);
    match json::parse(&rendered) {
        Ok(Value::Obj(fields)) => fields,
        other => panic!("the envelope must be a JSON object, got {other:?} from {rendered}"),
    }
}

#[test]
fn meta_envelope_key_order_and_types_are_pinned() {
    let fields = meta("schema-probe");

    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema",
            "experiment",
            "scale",
            "jobs",
            "git_sha",
            "wall_ms",
            "sim_cycles",
            "sim_cycles_per_sec",
            "parallel_fallbacks",
        ],
        "meta envelope keys drifted — bump the schema version before \
         changing this"
    );

    let value = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .expect("key present")
    };

    assert_eq!(value("schema").as_str(), Some("xcache-bench/3"));
    assert_eq!(value("experiment").as_str(), Some("schema-probe"));
    assert!(
        value("git_sha").as_str().is_some(),
        "git_sha must be a string"
    );
    for numeric in [
        "scale",
        "jobs",
        "wall_ms",
        "sim_cycles",
        "sim_cycles_per_sec",
        "parallel_fallbacks",
    ] {
        assert!(
            value(numeric).as_u64().is_some(),
            "{numeric} must be an unsigned integer, got {:?}",
            value(numeric)
        );
    }
}

#[test]
fn meta_envelope_escapes_experiment_names() {
    let fields = meta("quo\"te");
    assert_eq!(fields[1].0, "experiment");
    assert_eq!(
        fields[1].1.as_str(),
        Some("quo\"te"),
        "experiment names must be JSON-escaped"
    );
}
