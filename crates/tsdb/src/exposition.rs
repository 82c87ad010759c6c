//! The Prometheus text exposition format, read side: what vmagent parses
//! off an exporter's page.
//!
//! ```text
//! # HELP node_temp_celsius Node temperature.
//! # TYPE node_temp_celsius gauge
//! node_temp_celsius{sensor="t0",node="x1000c0s0b0n0"} 43.5
//! ```
//!
//! A sample line is its *series text* (`name{labels}`) and a value.
//! `split_sample` is the one line splitter: [`parse_exposition`] and the
//! scrape loop both call it, and only a series text the scrape cache has
//! not seen goes on to `parse_series`.

use omni_model::{LabelSet, MetricRecord, Sample};
use std::fmt;

/// Is `name` a valid Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
/// Shared by the renderer, the parser, and the `omni-lint` static
/// analyzer so every side agrees on what a registrable name is.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Exposition parse failure with line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpositionError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ExpositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exposition parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ExpositionError {}

/// Parse exposition text into metric records (timestamps left at 0; the
/// scraper stamps them).
pub fn parse_exposition(text: &str) -> Result<Vec<MetricRecord>, ExpositionError> {
    let mut out = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let err = |message: String| ExpositionError { line: ln + 1, message };
        let Some((series, value)) = split_sample(raw).map_err(err)? else {
            continue;
        };
        let labels = parse_series(series).map_err(err)?;
        out.push(MetricRecord { labels, sample: Sample::new(0, value) });
    }
    Ok(out)
}

/// One line of a page: `None` for a blank or `#` line, else the trimmed
/// line split at its last space into the series text and the parsed
/// value. The series text is checked by [`parse_series`], not here.
pub(crate) fn split_sample(raw: &str) -> Result<Option<(&str, f64)>, String> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    // name{labels} value  |  name value
    let Some(pos) = line.rfind(' ') else {
        return Err("missing value".to_string());
    };
    let value = match line[pos + 1..].trim() {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        s => s.parse::<f64>().map_err(|_| format!("bad value {s:?}"))?,
    };
    Ok(Some((&line[..pos], value)))
}

/// A series text's labels, `__name__` included.
pub(crate) fn parse_series(series: &str) -> Result<LabelSet, String> {
    let (name, mut labels) = if let Some(brace) = series.find('{') {
        let name = series[..brace].trim();
        let rest = series[brace..].trim();
        if !rest.ends_with('}') {
            return Err("unterminated label braces".to_string());
        }
        (name, parse_labels(&rest[1..rest.len() - 1])?)
    } else {
        (series.trim(), LabelSet::new())
    };
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    labels.insert("__name__", name);
    Ok(labels)
}

fn parse_labels(inner: &str) -> Result<LabelSet, String> {
    let mut labels = LabelSet::new();
    let b = inner.as_bytes();
    let mut i = 0;
    while i < b.len() {
        while i < b.len() && (b[i] == b',' || b[i] == b' ') {
            i += 1;
        }
        if i >= b.len() {
            break;
        }
        let key_start = i;
        while i < b.len() && b[i] != b'=' {
            i += 1;
        }
        if i >= b.len() {
            return Err("missing '=' in label".to_string());
        }
        let key = inner[key_start..i].trim();
        i += 1; // '='
        if i >= b.len() || b[i] != b'"' {
            return Err("label value must be quoted".to_string());
        }
        i += 1;
        let mut value = String::new();
        loop {
            if i >= b.len() {
                return Err("unterminated label value".to_string());
            }
            match b[i] {
                b'"' => {
                    i += 1;
                    break;
                }
                // Prometheus's rule: `\\`, `\"` and `\n` unescape; any
                // other escape keeps its backslash and the whole
                // character after it, so `i` stays on a char boundary.
                b'\\' => match b.get(i + 1) {
                    Some(b'n') => {
                        value.push('\n');
                        i += 2;
                    }
                    Some(&c @ (b'"' | b'\\')) => {
                        value.push(c as char);
                        i += 2;
                    }
                    Some(_) => {
                        value.push('\\');
                        i += 1;
                    }
                    None => return Err("trailing backslash".to_string()),
                },
                _ => {
                    let c = inner[i..].chars().next().expect("i is on a char boundary");
                    value.push(c);
                    i += c.len_utf8();
                }
            }
        }
        if key.is_empty() {
            return Err("empty label name".to_string());
        }
        labels.insert(key, value);
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_values() {
        let text = "m_nan NaN\nm_inf +Inf\nm_ninf -Inf\n";
        let records = parse_exposition(text).unwrap();
        assert!(records[0].sample.value.is_nan());
        assert_eq!(records[1].sample.value, f64::INFINITY);
        assert_eq!(records[2].sample.value, f64::NEG_INFINITY);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# HELP x y\n\n# TYPE x gauge\nx 1\n";
        assert_eq!(parse_exposition(text).unwrap().len(), 1);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "novalue",
            "1bad_name 3",
            "m{unterminated 3",
            "m{a=} 3",
            "m{a=\"x} 3",
            "m{=\"x\"} 3",
            "m not_a_number",
            "{a=\"b\"} 3",
            "m{a=\"x\\} 3",
        ] {
            assert!(parse_exposition(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn labels_carry_the_metric_name() {
        let records = parse_exposition("m{a=\"1\", b=\"2\"} 3\nn 4\n").unwrap();
        let want = |pairs: &[(&str, &str)]| LabelSet::from_pairs(pairs.iter().copied());
        assert_eq!(records[0].labels, want(&[("__name__", "m"), ("a", "1"), ("b", "2")]));
        assert_eq!(records[1].labels, want(&[("__name__", "n")]));
        assert_eq!(records[1].sample, Sample::new(0, 4.0));
    }

    #[test]
    fn a_backslash_before_a_non_ascii_character_keeps_both() {
        // Regression: an unknown escape pushed one byte of a multi-byte
        // character as a `char` and left the cursor inside it, so the
        // next slice panicked ("byte index 5 is not a char boundary").
        for (text, value) in [
            ("m{a=\"\\é\"} 1", "\\é"),
            ("m{a=\"\\日x\"} 1", "\\日x"),
            ("m{a=\"\\t\"} 1", "\\t"),
            ("m{a=\"x\\\\\\n\\\"\"} 1", "x\\\n\""),
        ] {
            let records = parse_exposition(text).unwrap();
            assert_eq!(records[0].labels.get("a"), Some(value), "{text:?}");
        }
    }
}
