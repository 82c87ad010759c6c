//! Log pipeline execution: one entry in, zero-or-one processed entry out.
//!
//! [`Pipeline::process`] is the one executor: log queries, the
//! shard-side metric map and the reference evaluators all run a query's
//! stages through it. It borrows. The entry it hands back points at the
//! caller's line and stream labels until a stage rewrites them:
//!
//! * the line becomes `Owned` only at `line_format`;
//! * the labels become `Owned` at the first label a stage inserts — a
//!   parser (`json`, `logfmt`, `pattern`, `regexp`) extracting one,
//!   `label_format`, or an `__error__` label.
//!
//! Line filters, label comparisons and a successful `unwrap` only read,
//! so the pipeline copies nothing for an entry they drop or keep, and
//! `Borrowed` labels are the stream's own set.

use crate::ast::{LabelFormatSrc, Stage};
use omni_model::{rules::render_template, LabelSet};
use std::borrow::Cow;

/// An entry after pipeline processing, borrowing the caller's line and
/// stream labels until a stage rewrites them.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessedEntry<'a> {
    /// The line; `Owned` once `line_format` rewrote it.
    pub line: Cow<'a, str>,
    /// Stream labels plus everything the stages extracted; `Owned` from
    /// the first label a stage inserts.
    pub labels: Cow<'a, LabelSet>,
    /// Value extracted by `| unwrap`, if any.
    pub unwrapped: Option<f64>,
}

/// Label Loki attaches when a parser stage fails; the entry survives so
/// operators can find broken lines.
pub const ERROR_LABEL: &str = "__error__";

/// A compiled pipeline: a view of a parsed query's stages.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline<'s> {
    stages: &'s [Stage],
}

impl<'s> Pipeline<'s> {
    /// Borrow parsed stages.
    pub fn new(stages: &'s [Stage]) -> Self {
        Self { stages }
    }

    /// Run the pipeline on one entry. `None` means a filter dropped it.
    /// The result borrows `line` and `stream_labels` until a stage
    /// rewrites them (the module doc lists which stages do).
    pub fn process<'a>(
        &self,
        line: &'a str,
        stream_labels: &'a LabelSet,
    ) -> Option<ProcessedEntry<'a>> {
        let mut line = Cow::Borrowed(line);
        let mut labels = Cow::Borrowed(stream_labels);
        let mut unwrapped = None;
        for stage in self.stages {
            match stage {
                Stage::LineContains(s) => {
                    if !line.contains(s.as_str()) {
                        return None;
                    }
                }
                Stage::LineNotContains(s) => {
                    if line.contains(s.as_str()) {
                        return None;
                    }
                }
                Stage::LineRegex(re) => {
                    if !re.is_match(&line) {
                        return None;
                    }
                }
                Stage::LineNotRegex(re) => {
                    if re.is_match(&line) {
                        return None;
                    }
                }
                Stage::Json => match omni_json::parse(&line) {
                    Ok(v) => {
                        for (k, val) in omni_json::flatten(&v) {
                            add_extracted(labels.to_mut(), &k, &val);
                        }
                    }
                    Err(_) => labels.to_mut().insert(ERROR_LABEL, "JSONParserErr"),
                },
                Stage::Logfmt => {
                    for (k, v) in parse_logfmt(&line) {
                        add_extracted(labels.to_mut(), &k, &v);
                    }
                }
                Stage::Pattern(p) => match p.extract(&line) {
                    Some(caps) => {
                        for (k, v) in caps {
                            add_extracted(labels.to_mut(), k, v);
                        }
                    }
                    None => labels.to_mut().insert(ERROR_LABEL, "PatternErr"),
                },
                Stage::Regexp(re) => match re.captures(&line) {
                    Some(caps) => {
                        for (k, v) in caps.named_pairs() {
                            add_extracted(labels.to_mut(), k, v);
                        }
                    }
                    None => labels.to_mut().insert(ERROR_LABEL, "RegexpErr"),
                },
                Stage::LabelCmpString { label, negated, value } => {
                    let actual = labels.get(label).unwrap_or("");
                    if (actual == value) == *negated {
                        return None;
                    }
                }
                Stage::LabelCmpRegex { label, negated, regex } => {
                    let actual = labels.get(label).unwrap_or("");
                    if regex.is_full_match(actual) == *negated {
                        return None;
                    }
                }
                Stage::LabelCmpNumeric { label, op, value } => {
                    let actual = labels.get(label).and_then(|v| v.parse::<f64>().ok())?;
                    if !op.apply(actual, *value) {
                        return None;
                    }
                }
                Stage::LineFormat(tpl) => line = Cow::Owned(render_template(tpl, &labels)),
                Stage::LabelFormat { dst, src } => {
                    let value = match src {
                        LabelFormatSrc::Rename(from) => {
                            labels.to_mut().remove(from).unwrap_or_default()
                        }
                        LabelFormatSrc::Template(tpl) => render_template(tpl, &labels),
                    };
                    labels.to_mut().insert(dst.as_str(), value);
                }
                Stage::Unwrap(label) => {
                    match labels.get(label).and_then(|v| v.parse::<f64>().ok()) {
                        Some(v) => unwrapped = Some(v),
                        None => labels.to_mut().insert(ERROR_LABEL, "UnwrapErr"),
                    }
                }
            }
        }
        Some(ProcessedEntry { line, labels, unwrapped })
    }
}

/// Insert an extracted label; on collision with an existing label the new
/// one gets Loki's `_extracted` suffix.
fn add_extracted(labels: &mut LabelSet, key: &str, value: &str) {
    if labels.contains(key) {
        labels.insert(format!("{key}_extracted"), value);
    } else {
        labels.insert(key, value);
    }
}

/// Minimal logfmt: `k=v` pairs separated by whitespace, values optionally
/// double-quoted.
fn parse_logfmt(line: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let b = line.as_bytes();
    let mut i = 0;
    while i < b.len() {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        let key_start = i;
        while i < b.len() && b[i] != b'=' && !b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= b.len() || b[i] != b'=' {
            continue; // bare word, skip
        }
        let key = &line[key_start..i];
        i += 1; // '='
        let value = if i < b.len() && b[i] == b'"' {
            i += 1;
            let vstart = i;
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\\' {
                    i += 1;
                }
                i += 1;
            }
            let v = line[vstart..i.min(line.len())].replace("\\\"", "\"");
            i += 1; // closing quote
            v
        } else {
            let vstart = i;
            while i < b.len() && !b[i].is_ascii_whitespace() {
                i += 1;
            }
            line[vstart..i].to_string()
        };
        if !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            out.push((key.to_string(), value));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_log_query;
    use omni_model::labels;

    /// The stages are leaked so a test can hold its pipeline by value.
    fn pipeline(q: &str) -> Pipeline<'static> {
        Pipeline::new(parse_log_query(q).unwrap().stages.leak())
    }

    #[test]
    fn line_filters() {
        let p = pipeline(r#"{a="b"} |= "leak" != "cleared""#);
        let l = labels!("a" => "b");
        assert!(p.process("a leak happened", &l).is_some());
        assert!(p.process("no problems", &l).is_none());
        assert!(p.process("leak cleared", &l).is_none());
    }

    #[test]
    fn json_stage_extracts_paper_labels() {
        let p = pipeline(r#"{data_type="redfish_event"} | json"#);
        let stream = labels!("data_type" => "redfish_event", "cluster" => "perlmutter");
        let line = r#"{"Severity":"Warning","MessageId":"CrayAlerts.1.0.CabinetLeakDetected","Message":"Sensor 'A' of the redundant leak sensors in the 'Front' cabinet zone has detected a leak."}"#;
        let e = p.process(line, &stream).unwrap();
        assert_eq!(e.labels.get("Severity"), Some("Warning"));
        assert_eq!(e.labels.get("MessageId"), Some("CrayAlerts.1.0.CabinetLeakDetected"));
        assert_eq!(e.labels.get("cluster"), Some("perlmutter"));
        assert!(e.labels.get("Message").unwrap().contains("detected a leak"));
    }

    #[test]
    fn json_stage_flags_bad_lines() {
        let p = pipeline(r#"{a="b"} | json"#);
        let stream = labels!("a" => "b");
        let e = p.process("not json at all", &stream).unwrap();
        assert_eq!(e.labels.get(ERROR_LABEL), Some("JSONParserErr"));
    }

    #[test]
    fn json_collision_gets_extracted_suffix() {
        let p = pipeline(r#"{cluster="perlmutter"} | json"#);
        let stream = labels!("cluster" => "perlmutter");
        let e = p.process(r#"{"cluster":"inner"}"#, &stream).unwrap();
        assert_eq!(e.labels.get("cluster"), Some("perlmutter"));
        assert_eq!(e.labels.get("cluster_extracted"), Some("inner"));
    }

    #[test]
    fn pattern_stage_on_paper_switch_line() {
        let p = pipeline(
            r#"{app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>""#,
        );
        let stream = labels!("app" => "fabric_manager_monitor", "cluster" => "perlmutter");
        let line = "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN";
        let e = p.process(line, &stream).unwrap();
        assert_eq!(e.labels.get("severity"), Some("critical"));
        assert_eq!(e.labels.get("problem"), Some("fm_switch_offline"));
        assert_eq!(e.labels.get("xname"), Some("x1002c1r7b0"));
        assert_eq!(e.labels.get("state"), Some("UNKNOWN"));
    }

    #[test]
    fn regexp_stage_named_captures() {
        let p = pipeline(r#"{a="b"} | regexp "user=(?P<user>\w+)""#);
        let stream = labels!("a" => "b");
        let e = p.process("login user=alice ok", &stream).unwrap();
        assert_eq!(e.labels.get("user"), Some("alice"));
    }

    #[test]
    fn logfmt_stage() {
        let p = pipeline(r#"{a="b"} | logfmt"#);
        let stream = labels!("a" => "b");
        let e = p.process(r#"level=warn msg="kafka retry" attempt=3"#, &stream).unwrap();
        assert_eq!(e.labels.get("level"), Some("warn"));
        assert_eq!(e.labels.get("msg"), Some("kafka retry"));
        assert_eq!(e.labels.get("attempt"), Some("3"));
    }

    #[test]
    fn label_filters_after_parsing() {
        let p = pipeline(r#"{a="b"} | json | level = "error""#);
        let l = labels!("a" => "b");
        assert!(p.process(r#"{"level":"error"}"#, &l).is_some());
        assert!(p.process(r#"{"level":"info"}"#, &l).is_none());
    }

    #[test]
    fn numeric_label_filter_drops_non_numeric() {
        let p = pipeline(r#"{a="b"} | json | dur_ms > 100"#);
        let l = labels!("a" => "b");
        assert!(p.process(r#"{"dur_ms":250}"#, &l).is_some());
        assert!(p.process(r#"{"dur_ms":50}"#, &l).is_none());
        assert!(p.process(r#"{"dur_ms":"soon"}"#, &l).is_none());
        assert!(p.process(r#"{}"#, &l).is_none());
    }

    #[test]
    fn unwrap_extracts_value() {
        let p = pipeline(r#"{a="b"} | json | unwrap bytes"#);
        let stream = labels!("a" => "b");
        let e = p.process(r#"{"bytes":1024}"#, &stream).unwrap();
        assert_eq!(e.unwrapped, Some(1024.0));
        let e = p.process(r#"{"bytes":"n/a"}"#, &stream).unwrap();
        assert_eq!(e.unwrapped, None);
        assert_eq!(e.labels.get(ERROR_LABEL), Some("UnwrapErr"));
    }

    #[test]
    fn line_format_rewrites() {
        let p = pipeline(r#"{a="b"} | json | line_format "{{.level}}: {{.msg}}""#);
        let stream = labels!("a" => "b");
        let e = p.process(r#"{"level":"warn","msg":"hi"}"#, &stream).unwrap();
        assert_eq!(e.line, "warn: hi");
    }

    #[test]
    fn label_format_rename_and_template() {
        let p = pipeline(r#"{a="b"} | json | label_format loc=Context"#);
        let stream = labels!("a" => "b");
        let e = p.process(r#"{"Context":"x1203c1b0"}"#, &stream).unwrap();
        assert_eq!(e.labels.get("loc"), Some("x1203c1b0"));
        assert_eq!(e.labels.get("Context"), None);

        let p = pipeline(r#"{a="b"} | json | label_format id="{{.x}}-{{.y}}""#);
        let e = p.process(r#"{"x":"1","y":"2"}"#, &stream).unwrap();
        assert_eq!(e.labels.get("id"), Some("1-2"));
    }

    /// The borrowing contract: a line stays the caller's until
    /// `line_format`, labels stay the stream's until a stage inserts one.
    #[test]
    fn borrowed_until_a_stage_rewrites() {
        let stream = labels!("a" => "b", "n" => "7");
        let borrowed = |q: &str, line: &str| {
            let e = pipeline(q).process(line, &stream).unwrap();
            (matches!(e.line, Cow::Borrowed(_)), matches!(e.labels, Cow::Borrowed(_)))
        };
        let reads_only = r#"{a="b"} |= "x" != "y" |~ "x+" !~ "z" | a = "b" | a =~ "b" | n > 1"#;
        assert_eq!(borrowed(reads_only, "x"), (true, true));
        assert_eq!(borrowed(r#"{a="b"} | unwrap n"#, "x"), (true, true));
        // A parser that extracts nothing inserts nothing.
        assert_eq!(borrowed(r#"{a="b"} | json | logfmt"#, "{}"), (true, true));
        assert_eq!(borrowed(r#"{a="b"} | json"#, r#"{"k":"v"}"#), (true, false));
        assert_eq!(borrowed(r#"{a="b"} | json"#, "not json"), (true, false));
        assert_eq!(borrowed(r#"{a="b"} | unwrap a"#, "x"), (true, false));
        assert_eq!(borrowed(r#"{a="b"} | label_format c=a"#, "x"), (true, false));
        assert_eq!(borrowed(r#"{a="b"} | line_format "{{.a}}""#, "x"), (false, true));
    }
}
