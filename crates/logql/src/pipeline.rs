//! Log pipeline execution: one entry in, zero-or-one processed entry out.

use crate::ast::{LabelFormatSrc, Stage};
use omni_model::{rules::render_template, LabelSet};

/// An entry after pipeline processing.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessedEntry {
    /// Possibly rewritten line (`line_format`).
    pub line: String,
    /// Stream labels plus everything the stages extracted.
    pub labels: LabelSet,
    /// Value extracted by `| unwrap`, if any.
    pub unwrapped: Option<f64>,
}

/// Label Loki attaches when a parser stage fails; the entry survives so
/// operators can find broken lines.
pub const ERROR_LABEL: &str = "__error__";

/// A compiled pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Build from parsed stages.
    pub fn new(stages: Vec<Stage>) -> Self {
        Self { stages }
    }

    /// Whether any stage extracts labels (forces per-line work even for
    /// count-style aggregations).
    pub fn has_parser_stage(&self) -> bool {
        self.stages.iter().any(|s| {
            matches!(s, Stage::Json | Stage::Logfmt | Stage::Pattern(_) | Stage::Regexp(_))
        })
    }

    /// Run the pipeline on one entry. `None` means a filter dropped it.
    pub fn process(&self, line: &str, stream_labels: &LabelSet) -> Option<ProcessedEntry> {
        let mut entry = ProcessedEntry {
            line: line.to_string(),
            labels: stream_labels.clone(),
            unwrapped: None,
        };
        for stage in &self.stages {
            match stage {
                Stage::LineContains(s) => {
                    if !entry.line.contains(s.as_str()) {
                        return None;
                    }
                }
                Stage::LineNotContains(s) => {
                    if entry.line.contains(s.as_str()) {
                        return None;
                    }
                }
                Stage::LineRegex(re) => {
                    if !re.is_match(&entry.line) {
                        return None;
                    }
                }
                Stage::LineNotRegex(re) => {
                    if re.is_match(&entry.line) {
                        return None;
                    }
                }
                Stage::Json => match omni_json::parse(&entry.line) {
                    Ok(v) => {
                        for (k, val) in omni_json::flatten(&v) {
                            add_extracted(&mut entry.labels, &k, &val);
                        }
                    }
                    Err(_) => entry.labels.insert(ERROR_LABEL, "JSONParserErr"),
                },
                Stage::Logfmt => {
                    for (k, v) in parse_logfmt(&entry.line) {
                        add_extracted(&mut entry.labels, &k, &v);
                    }
                }
                Stage::Pattern(p) => match p.extract(&entry.line) {
                    Some(caps) => {
                        for (k, v) in caps {
                            let (k, v) = (k.to_string(), v.to_string());
                            add_extracted(&mut entry.labels, &k, &v);
                        }
                    }
                    None => entry.labels.insert(ERROR_LABEL, "PatternErr"),
                },
                Stage::Regexp(re) => match re.captures(&entry.line) {
                    Some(caps) => {
                        let pairs: Vec<(String, String)> = caps
                            .named_pairs()
                            .into_iter()
                            .map(|(k, v)| (k.to_string(), v.to_string()))
                            .collect();
                        for (k, v) in pairs {
                            add_extracted(&mut entry.labels, &k, &v);
                        }
                    }
                    None => entry.labels.insert(ERROR_LABEL, "RegexpErr"),
                },
                Stage::LabelCmpString { label, negated, value } => {
                    let actual = entry.labels.get(label).unwrap_or("");
                    if (actual == value) == *negated {
                        return None;
                    }
                }
                Stage::LabelCmpRegex { label, negated, regex } => {
                    let actual = entry.labels.get(label).unwrap_or("");
                    if regex.is_full_match(actual) == *negated {
                        return None;
                    }
                }
                Stage::LabelCmpNumeric { label, op, value } => {
                    let actual = entry.labels.get(label).and_then(|v| v.parse::<f64>().ok())?;
                    if !op.apply(actual, *value) {
                        return None;
                    }
                }
                Stage::LineFormat(tpl) => {
                    entry.line = render_template(tpl, &entry.labels);
                }
                Stage::LabelFormat { dst, src } => {
                    let value = match src {
                        LabelFormatSrc::Rename(from) => {
                            let v = entry.labels.get(from).unwrap_or("").to_string();
                            entry.labels.remove(from);
                            v
                        }
                        LabelFormatSrc::Template(tpl) => render_template(tpl, &entry.labels),
                    };
                    entry.labels.insert(dst.as_str(), value);
                }
                Stage::Unwrap(label) => {
                    let Some(v) = entry.labels.get(label).and_then(|v| v.parse::<f64>().ok())
                    else {
                        entry.labels.insert(ERROR_LABEL, "UnwrapErr");
                        continue;
                    };
                    entry.unwrapped = Some(v);
                }
            }
        }
        Some(entry)
    }

    /// Numeric-compare helper exposed for rule evaluation.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
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

    fn pipeline(q: &str) -> Pipeline {
        Pipeline::new(parse_log_query(q).unwrap().stages)
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
        let e = p.process("not json at all", &labels!("a" => "b")).unwrap();
        assert_eq!(e.labels.get(ERROR_LABEL), Some("JSONParserErr"));
    }

    #[test]
    fn json_collision_gets_extracted_suffix() {
        let p = pipeline(r#"{cluster="perlmutter"} | json"#);
        let e = p.process(r#"{"cluster":"inner"}"#, &labels!("cluster" => "perlmutter")).unwrap();
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
        let e = p.process("login user=alice ok", &labels!("a" => "b")).unwrap();
        assert_eq!(e.labels.get("user"), Some("alice"));
    }

    #[test]
    fn logfmt_stage() {
        let p = pipeline(r#"{a="b"} | logfmt"#);
        let e =
            p.process(r#"level=warn msg="kafka retry" attempt=3"#, &labels!("a" => "b")).unwrap();
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
        let e = p.process(r#"{"bytes":1024}"#, &labels!("a" => "b")).unwrap();
        assert_eq!(e.unwrapped, Some(1024.0));
        let e = p.process(r#"{"bytes":"n/a"}"#, &labels!("a" => "b")).unwrap();
        assert_eq!(e.unwrapped, None);
        assert_eq!(e.labels.get(ERROR_LABEL), Some("UnwrapErr"));
    }

    #[test]
    fn line_format_rewrites() {
        let p = pipeline(r#"{a="b"} | json | line_format "{{.level}}: {{.msg}}""#);
        let e = p.process(r#"{"level":"warn","msg":"hi"}"#, &labels!("a" => "b")).unwrap();
        assert_eq!(e.line, "warn: hi");
    }

    #[test]
    fn label_format_rename_and_template() {
        let p = pipeline(r#"{a="b"} | json | label_format loc=Context"#);
        let e = p.process(r#"{"Context":"x1203c1b0"}"#, &labels!("a" => "b")).unwrap();
        assert_eq!(e.labels.get("loc"), Some("x1203c1b0"));
        assert_eq!(e.labels.get("Context"), None);

        let p = pipeline(r#"{a="b"} | json | label_format id="{{.x}}-{{.y}}""#);
        let e = p.process(r#"{"x":"1","y":"2"}"#, &labels!("a" => "b")).unwrap();
        assert_eq!(e.labels.get("id"), Some("1-2"));
    }

    #[test]
    fn has_parser_stage() {
        assert!(pipeline(r#"{a="b"} | json"#).has_parser_stage());
        assert!(!pipeline(r#"{a="b"} |= "x""#).has_parser_stage());
    }
}
