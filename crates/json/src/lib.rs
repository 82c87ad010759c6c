//! From-scratch JSON support for the shasta-mon stack.
//!
//! The paper's pipeline is soaked in JSON: the Telemetry API publishes
//! Redfish events "in a nested JSON format" (Fig 2), the bridge clients
//! reshape them into Loki push payloads (Fig 3), and LogQL's `json` stage
//! re-parses log lines into labels at query time. This crate implements the
//! whole format without external dependencies:
//!
//! * [`Json`] — a value model whose objects preserve insertion order, so
//!   serialized output is stable and can be compared byte-for-byte against
//!   the paper's figures.
//! * [`parse`] — a strict recursive-descent parser (full escape handling,
//!   surrogate pairs, nesting-depth guard).
//! * [`scan::fields`] — a borrowed pull scanner over a document's
//!   top-level object fields, as strict as [`parse`] but building no tree.
//! * [`Json::dump`] / [`Json::pretty`] — compact and indented serializers,
//!   over the one escaping routine and number formatter ([`write_string`],
//!   [`write_number`]) that hand-written payloads use too.
//! * [`Json::pointer`] — RFC 6901-style path access.
//! * [`flatten`] — nested-object flattening with `_`-joined keys, matching
//!   the behaviour of Loki's `json` stage.

mod parse;
pub mod scan;
mod value;

pub use parse::{parse, JsonParseError};
pub use value::{flatten, write_number, write_string, Json, JsonTypeError};

/// Convenience macro for building [`Json`] literals.
///
/// ```
/// use omni_json::{jsonv, Json};
/// let v = jsonv!({
///     "Severity": "Warning",
///     "Count": 1,
///     "Args": ["A", "Front"],
/// });
/// assert_eq!(v.get("Count").and_then(Json::as_f64), Some(1.0));
/// ```
#[macro_export]
macro_rules! jsonv {
    (null) => { $crate::Json::Null };
    ([ $( $elem:tt ),* $(,)? ]) => {
        $crate::Json::Array(vec![ $( $crate::jsonv!($elem) ),* ])
    };
    ({ $( $key:literal : $val:tt ),* $(,)? }) => {
        $crate::Json::Object(vec![ $( ($key.to_string(), $crate::jsonv!($val)) ),* ])
    };
    ($other:expr) => { $crate::Json::from($other) };
}

#[cfg(test)]
mod macro_tests {
    use crate::Json;

    #[test]
    fn literal_builder() {
        let v = jsonv!({
            "a": 1,
            "b": [true, null, "x"],
            "c": {"d": 2.5},
        });
        assert_eq!(v.pointer("/b/0"), Some(&Json::Bool(true)));
        assert_eq!(v.pointer("/b/1"), Some(&Json::Null));
        assert_eq!(v.pointer("/c/d").and_then(Json::as_f64), Some(2.5));
    }
}
