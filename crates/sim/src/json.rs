//! A minimal JSON value model: parser and writer.
//!
//! The workspace has no serde (vendor policy), so this is its one JSON
//! codec: the harness's `results/` dumps and fuzz/chaos renderings, the
//! service's responses, events and journal records are all written
//! through it, and job specs, journal records and the tests' reads of
//! every dump go through its parser. The parser is a straightforward
//! recursive-descent one over the full JSON grammar, with two deliberate
//! simplifications:
//! numbers are kept as `f64` plus the raw literal (so integers up to
//! 2^53 round-trip exactly and larger ones round-trip *textually*), and
//! object key order is preserved (insertion order), which keeps every
//! serialize→parse→serialize cycle byte-stable — the property the
//! journal's checksummed records rely on.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number: parsed value plus the exact source literal.
    Num(f64, String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds a number value from an integer.
    #[must_use]
    pub fn from_u64(v: u64) -> Value {
        #[allow(clippy::cast_precision_loss)]
        Value::Num(v as f64, v.to_string())
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(_, raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace). Key order and number
    /// literals are preserved, so `parse(s).render() == s` for any
    /// compact `s` this module produced.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(_, raw) => out.push_str(raw),
            Value::Str(s) => write_json_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes and quotes `s` as a JSON string literal.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience: a quoted JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_json_string(s, &mut out);
    out
}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns a byte offset and description of the first syntax error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let v = parse_value(input, &mut pos)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(s: &str, pos: &mut usize) -> Result<Value, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(s, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(s, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(s, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(s, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    let parsed: f64 = raw
        .parse()
        .map_err(|_| format!("bad number `{raw}` at byte {start}"))?;
    Ok(Value::Num(parsed, raw.to_owned()))
}

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote or backslash in one go.
        // Both are ASCII, so the run ends on a char boundary of the
        // already-valid input and needs no re-validation.
        let run = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(&s[run..*pos]);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            _ => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = s
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated or bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not reassembled; the
                        // workspace never emits them (all output is
                        // ASCII-escaped below 0x20 only).
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_compact_documents() {
        for doc in [
            r#"{"a":1,"b":[true,null,"x\"y"],"c":{"d":0.25,"e":-3}}"#,
            r#"[]"#,
            r#"{}"#,
            r#"{"big":18446744073709551615}"#,
            r#""plain""#,
            r#"[1,2,3]"#,
        ] {
            let v = parse(doc).unwrap();
            assert_eq!(v.render(), doc);
        }
    }

    #[test]
    fn accessors_work() {
        let v = parse(r#"{"grid":"fig18","scale":4,"frac":0.5,"cells":[1,2]}"#).unwrap();
        assert_eq!(v.get("grid").and_then(Value::as_str), Some("fig18"));
        assert_eq!(v.get("scale").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("frac").and_then(Value::as_f64), Some(0.5));
        assert_eq!(
            v.get("cells").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_garbage() {
        for doc in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "{\"a\":1}x",
            "\"unterminated",
        ] {
            assert!(parse(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let rendered = json_str(original);
        let back = parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn multibyte_text_survives_around_escapes() {
        let v = parse(r#"{"k":"héllo ✓\n→\u00e9"}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some("héllo ✓\n→é"));
        assert!(parse(r#""\é""#).is_err());
        assert!(parse(r#""\u00é""#).is_err());
    }

    /// String-heavy documents parse in linear time. The bound is loose
    /// (an unoptimised build parses both in well under a second); a
    /// parser that re-scans the rest of the input per character takes
    /// minutes on the first and tens of seconds on the second.
    #[test]
    fn large_documents_parse_quickly() {
        let start = std::time::Instant::now();

        let big = "x".repeat(1 << 20) + "é\"tail";
        let doc = format!("{{\"blob\":{}}}", json_str(&big));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("blob").and_then(Value::as_str), Some(big.as_str()));

        // `/metrics` after 35k cells.
        let cells: Vec<String> = (0..35_000)
            .map(|i| format!("{{\"label\":\"demo-{i:04}\",\"wall_us\":{}}}", 100 + i % 7))
            .collect();
        let doc = format!(
            "{{\"queue_depth\":0,\"shed\":{{\"rate_limited\":0,\"queue_full\":0,\"draining\":0}},\"journal_fsyncs\":9,\"cells\":[{}]}}",
            cells.join(",")
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.render(), doc);
        let cells = v.get("cells").and_then(Value::as_arr).unwrap();
        assert_eq!(cells.len(), 35_000);
        assert_eq!(
            cells[34_999].get("label").and_then(Value::as_str),
            Some("demo-34999")
        );

        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "took {:?}",
            start.elapsed()
        );
    }
}
