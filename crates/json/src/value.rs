//! The JSON value model and serializers.

use std::fmt::{self, Write as _};

/// A type-mismatch error from a mutation that expected a specific
/// variant (e.g. [`Json::set`] on a non-object).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonTypeError {
    /// The variant the operation needed.
    pub expected: &'static str,
    /// The variant it found.
    pub found: &'static str,
}

impl fmt::Display for JsonTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected a JSON {}, found a {}", self.expected, self.found)
    }
}

impl std::error::Error for JsonTypeError {}

/// A JSON value. Objects are stored as insertion-ordered `(key, value)`
/// vectors so serialization is deterministic — necessary for reproducing
/// the paper's Figure 3 payload byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64, like most dynamic JSON libraries).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with preserved key order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for an empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// Insert or replace a field on an object. On a non-object the value
    /// is left untouched and `Err` names the actual variant — callers
    /// often hold values parsed from external payloads (Redfish events,
    /// bus messages), where a scalar in an object position is a data
    /// error, not a programming error, and must not bring the process down.
    pub fn set(&mut self, key: impl Into<String>, value: Json) -> Result<(), JsonTypeError> {
        let Json::Object(fields) = self else {
            return Err(JsonTypeError { expected: "object", found: self.type_name() });
        };
        let key = key.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            fields.push((key, value));
        }
        Ok(())
    }

    /// The variant's name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// RFC 6901-flavoured pointer access: `/Events/0/Severity`.
    pub fn pointer(&self, ptr: &str) -> Option<&Json> {
        if ptr.is_empty() {
            return Some(self);
        }
        let mut cur = self;
        for token in ptr.trim_start_matches('/').split('/') {
            let token = token.replace("~1", "/").replace("~0", "~");
            cur = match cur {
                Json::Object(_) => cur.get(&token)?,
                Json::Array(_) => cur.idx(token.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array contents, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace), matching the paper's inline
    /// log-content strings.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with the given indent width.
    pub fn pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Write a number the way JSON expects: integers without a trailing
/// `.0`, others via the shortest roundtrip representation Rust provides,
/// and `null` for NaN and the infinities, which JSON cannot spell. The one
/// number formatter: [`Json::dump`] and hand-written payloads both use it.
pub fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Write `s` as a quoted JSON string. The one escaping routine:
/// [`Json::dump`] and hand-written payloads both use it. Runs that need no
/// escape are copied whole.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dump())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Number(n)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Number(n as f64)
    }
}
impl From<i32> for Json {
    fn from(n: i32) -> Self {
        Json::Number(n as f64)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Number(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Number(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::String(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::String(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Flatten a JSON value into `(key, scalar-as-string)` pairs the way Loki's
/// `json` stage does: nested object keys are joined with `_`, array
/// elements with their index, and scalar leaves are rendered as bare
/// strings (strings unquoted, numbers/bools in JSON form).
///
/// ```
/// use omni_json::{flatten, parse};
/// let v = parse(r#"{"a":{"b":1},"c":[true,"x"]}"#).unwrap();
/// assert_eq!(flatten(&v), vec![
///     ("a_b".to_string(), "1".to_string()),
///     ("c_0".to_string(), "true".to_string()),
///     ("c_1".to_string(), "x".to_string()),
/// ]);
/// ```
pub fn flatten(value: &Json) -> Vec<(String, String)> {
    let mut out = Vec::new();
    flatten_into("", value, &mut out);
    out
}

fn flatten_into(prefix: &str, value: &Json, out: &mut Vec<(String, String)>) {
    let join = |prefix: &str, key: &str| {
        if prefix.is_empty() {
            sanitize_label_name(key)
        } else {
            format!("{prefix}_{}", sanitize_label_name(key))
        }
    };
    match value {
        Json::Object(fields) => {
            for (k, v) in fields {
                flatten_into(&join(prefix, k), v, out);
            }
        }
        Json::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                // Array indices join without sanitization: `c[0]` -> `c_0`.
                let key = if prefix.is_empty() { format!("_{i}") } else { format!("{prefix}_{i}") };
                flatten_into(&key, v, out);
            }
        }
        Json::Null => {}
        Json::String(s) => out.push((prefix.to_string(), s.clone())),
        other => out.push((prefix.to_string(), other.dump())),
    }
}

/// Make a JSON key a valid Prometheus/Loki label name: non-alphanumeric
/// characters become `_`, and a leading digit is prefixed with `_`.
pub fn sanitize_label_name(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for (i, c) in key.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn get_set() {
        let mut v = Json::object();
        v.set("a", Json::from(1)).unwrap();
        v.set("a", Json::from(2)).unwrap();
        v.set("b", Json::from("x")).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn set_on_non_object_errors_without_panicking() {
        for mut v in [Json::Null, Json::from(3), Json::from("s"), Json::from(vec![1, 2])] {
            let before = v.clone();
            let err = v.set("k", Json::Null).unwrap_err();
            assert_eq!(err.expected, "object");
            assert_eq!(err.found, before.type_name());
            assert_eq!(v, before, "failed set must leave the value untouched");
        }
        assert_eq!(
            Json::from(3).set("k", Json::Null).unwrap_err().to_string(),
            "expected a JSON object, found a number"
        );
    }

    #[test]
    fn pointer_paths() {
        let v = parse(r#"{"Events":[{"Severity":"Warning"}],"a~b":{"x/y":3}}"#).unwrap();
        assert_eq!(v.pointer("/Events/0/Severity").and_then(Json::as_str), Some("Warning"));
        assert_eq!(v.pointer("/a~0b/x~1y").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.pointer("/nope"), None);
        assert_eq!(v.pointer(""), Some(&v));
    }

    #[test]
    fn dump_is_compact_and_ordered() {
        let v = parse(r#"{"z": 1, "a": [true, null]}"#).unwrap();
        assert_eq!(v.dump(), r#"{"z":1,"a":[true,null]}"#);
    }

    #[test]
    fn pretty_indents() {
        let v = parse(r#"{"a":[1]}"#).unwrap();
        assert_eq!(v.pretty(2), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(Json::from(42).dump(), "42");
        assert_eq!(Json::from(2.5).dump(), "2.5");
        assert_eq!(Json::from(-7i64).dump(), "-7");
        assert_eq!(Json::Number(f64::NAN).dump(), "null");
    }

    #[test]
    fn string_escaping() {
        let v = Json::from("a\"b\\c\nd\te\u{01}");
        assert_eq!(v.dump(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn flatten_matches_loki_json_stage() {
        let v = parse(r#"{"Severity":"Warning","Origin":{"@odata.id":"/redfish/v1"}}"#).unwrap();
        let flat = flatten(&v);
        assert_eq!(
            flat,
            vec![
                ("Severity".to_string(), "Warning".to_string()),
                ("Origin__odata_id".to_string(), "/redfish/v1".to_string()),
            ]
        );
    }

    #[test]
    fn flatten_skips_nulls() {
        let v = parse(r#"{"a":null,"b":1}"#).unwrap();
        assert_eq!(flatten(&v), vec![("b".to_string(), "1".to_string())]);
    }

    #[test]
    fn sanitize_label_names() {
        assert_eq!(sanitize_label_name("MessageId"), "MessageId");
        assert_eq!(sanitize_label_name("@odata.id"), "_odata_id");
        assert_eq!(sanitize_label_name("0bad"), "_0bad");
        assert_eq!(sanitize_label_name(""), "_");
    }
}
