//! Schema regression for the bench JSON meta envelope.
//!
//! Every `results/*.json` dump carries the envelope rendered by
//! `xcache_bench::Knobs::meta_json`. Downstream tooling diffs those files across
//! commits by key, so the envelope is a wire format: fields must not be
//! renamed, re-typed, or reordered silently. This test pins the exact key
//! sequence and each field's JSON shape; changing the envelope must come
//! here and bump `schema`.

use std::time::Duration;

use xcache_bench::Knobs;

fn meta_json(name: &str) -> String {
    Knobs::from_env().meta_json(name, Duration::ZERO, 0)
}

/// Splits a flat (non-nested) JSON object into `(key, raw value)` pairs
/// in document order. The envelope is flat by construction, so a
/// comma/colon scanner outside string literals is a complete parser.
fn fields(flat: &str) -> Vec<(String, String)> {
    let inner = flat
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .expect("envelope is a JSON object");
    let mut out = Vec::new();
    let mut depth_in_string = false;
    let mut escaped = false;
    let mut current = String::new();
    let mut parts: Vec<String> = Vec::new();
    for c in inner.chars() {
        if depth_in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                depth_in_string = false;
            }
            current.push(c);
            continue;
        }
        match c {
            '"' => {
                depth_in_string = true;
                current.push(c);
            }
            ',' => {
                parts.push(std::mem::take(&mut current));
            }
            '{' | '[' => panic!("envelope must stay flat, found nesting in {flat}"),
            _ => current.push(c),
        }
    }
    parts.push(current);
    for part in parts {
        let (k, v) = part.split_once(':').expect("key:value");
        let key = k
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .expect("quoted key")
            .to_string();
        out.push((key, v.trim().to_string()));
    }
    out
}

fn is_json_string(v: &str) -> bool {
    v.len() >= 2 && v.starts_with('"') && v.ends_with('"')
}

fn is_unsigned_integer(v: &str) -> bool {
    !v.is_empty() && v.chars().all(|c| c.is_ascii_digit())
}

#[test]
fn meta_envelope_key_order_and_types_are_pinned() {
    let meta = meta_json("schema-probe");
    let fields = fields(&meta);

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
            .map(|(_, v)| v.as_str())
            .expect("key present")
    };

    assert_eq!(value("schema"), "\"xcache-bench/3\"");
    assert_eq!(value("experiment"), "\"schema-probe\"");
    assert!(is_json_string(value("git_sha")), "git_sha must be a string");
    for numeric in [
        "scale",
        "jobs",
        "wall_ms",
        "sim_cycles",
        "sim_cycles_per_sec",
        "parallel_fallbacks",
    ] {
        assert!(
            is_unsigned_integer(value(numeric)),
            "{numeric} must be an unsigned integer, got {}",
            value(numeric)
        );
    }
}

#[test]
fn meta_envelope_escapes_experiment_names() {
    let meta = meta_json("quo\"te");
    assert!(
        meta.contains("\"experiment\":\"quo\\\"te\""),
        "experiment names must be JSON-escaped: {meta}"
    );
    // The envelope must still parse as a flat object afterwards.
    let fields = fields(&meta);
    assert_eq!(fields[1].0, "experiment");
}
