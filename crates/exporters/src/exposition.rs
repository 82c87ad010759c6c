//! The Prometheus text exposition format, write side: the page every
//! exporter renders and vmagent scrapes. The parser lives with its
//! reader, in `omni_tsdb::exposition`.
//!
//! Exporters write their pages in place, a `PageFamily` at a time: its
//! header, then its sample lines, straight into vmagent's buffer.
//! [`MetricFamily`] and [`render_exposition_into`] are the value-building
//! form the in-place writers are held to in tests.
//!
//! ```text
//! # HELP node_temp_celsius Node temperature.
//! # TYPE node_temp_celsius gauge
//! node_temp_celsius{sensor="t0",node="x1000c0s0b0n0"} 43.5
//! ```

use omni_model::LabelSet;
use omni_obs::Exemplar;
use omni_tsdb::valid_metric_name;
use std::fmt::Write;

/// One family of a page written in place: name, `# HELP` text and
/// `# TYPE`. [`PageFamily::head`] writes the header, then
/// [`PageFamily::sample`] one line per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PageFamily {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
}

impl PageFamily {
    /// A gauge family.
    pub(crate) const fn gauge(name: &'static str, help: &'static str) -> Self {
        Self { name, help, kind: "gauge" }
    }

    /// A counter family.
    pub(crate) const fn counter(name: &'static str, help: &'static str) -> Self {
        Self { name, help, kind: "counter" }
    }

    /// The family's name.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// The `# HELP` and `# TYPE` lines.
    pub(crate) fn head(&self, out: &mut String) {
        write_head(out, self.name, "", self.help, self.kind);
    }

    /// An empty [`MetricFamily`] of this name, help and type: the form
    /// the in-place writers are held to in tests.
    #[cfg(test)]
    pub(crate) fn reference(&self) -> MetricFamily {
        MetricFamily { kind: self.kind, ..MetricFamily::gauge(self.name, self.help) }
    }

    /// One sample line; `labels` in key order.
    pub(crate) fn sample(&self, out: &mut String, labels: &[(&str, &str)], value: f64) {
        write_series(out, self.name, labels.iter().copied());
        out.push(' ');
        write_value(out, value);
        out.push('\n');
    }
}

/// One metric family as a value: name, help, type and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Metric name.
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// `# TYPE` — gauge/counter/untyped.
    pub kind: &'static str,
    /// `(labels, value)` samples.
    pub samples: Vec<(LabelSet, f64)>,
    /// Exemplars keyed by sample labels, rendered as `# EXEMPLAR`
    /// comment lines after the matching sample so a latency bucket
    /// links to a sampled trace without breaking text-format parsers.
    pub exemplars: Vec<(LabelSet, Exemplar)>,
}

impl MetricFamily {
    /// A gauge family.
    pub fn gauge(name: &str, help: &str) -> Self {
        Self {
            name: name.to_string(),
            help: help.to_string(),
            kind: "gauge",
            samples: Vec::new(),
            exemplars: Vec::new(),
        }
    }

    /// A counter family.
    pub fn counter(name: &str, help: &str) -> Self {
        Self {
            name: name.to_string(),
            help: help.to_string(),
            kind: "counter",
            samples: Vec::new(),
            exemplars: Vec::new(),
        }
    }

    /// Add a sample.
    pub fn sample(&mut self, labels: LabelSet, value: f64) -> &mut Self {
        self.samples.push((labels, value));
        self
    }

    /// Attach an exemplar to the sample carrying `labels`.
    pub fn exemplar(&mut self, labels: LabelSet, exemplar: Exemplar) -> &mut Self {
        self.exemplars.push((labels, exemplar));
        self
    }
}

/// Render families to exposition text.
///
/// A family with an invalid metric name degrades to an error comment
/// instead of being rendered: one misnamed collector family would
/// otherwise produce an unparseable sample line and poison the *entire*
/// page for every conforming scraper.
pub fn render_exposition(families: &[MetricFamily]) -> String {
    let mut out = String::new();
    render_exposition_into(families, &mut out);
    out
}

/// [`render_exposition`], appended to `out`. It allocates nothing but
/// `out`'s growth: text is written in place, and a label value or help
/// string is escaped only when it holds a character that needs it.
pub fn render_exposition_into(families: &[MetricFamily], out: &mut String) {
    for f in families {
        if !valid_metric_name(&f.name) {
            write_dropped(out, &f.name);
            continue;
        }
        write_head(out, &f.name, "", &f.help, f.kind);
        for (labels, value) in &f.samples {
            write_series(out, &f.name, labels.iter());
            out.push(' ');
            write_value(out, *value);
            out.push('\n');
            // Exemplars ride as comment lines (parsers skip `#`), so a
            // page with exemplars stays valid classic text format.
            for (els, ex) in &f.exemplars {
                if els == labels {
                    write_exemplar(out, |out| write_series(out, &f.name, labels.iter()), ex);
                }
            }
        }
    }
}

/// The comment a family with an invalid metric name degrades to.
pub(crate) fn write_dropped(out: &mut String, name: &str) {
    // Writing into a `String` cannot fail.
    let _ =
        writeln!(out, "# omni-exporter error: dropped family with invalid metric name {name:?}");
}

/// The `# HELP` and `# TYPE` lines of the family `name` + `suffix`.
pub(crate) fn write_head(out: &mut String, name: &str, suffix: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push_str(suffix);
    out.push(' ');
    // `# HELP` escaping per the text-format spec: only backslash and
    // line feed (quotes stay literal, unlike label values). Without
    // it, a help string holding a newline splits the comment across
    // lines and corrupts the page for any conforming parser.
    escape_into(out, help, false);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push_str(suffix);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// `name{k="v",..}`, or the bare name for no pairs.
fn write_series<'a>(
    out: &mut String,
    name: &str,
    pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
) {
    out.push_str(name);
    let mut first = true;
    for (k, v) in pairs {
        write_pair(out, first, k, v);
        first = false;
    }
    if !first {
        out.push('}');
    }
}

/// One `k="v"` pair inside a series' braces, opening them before the
/// first pair; the caller closes them.
pub(crate) fn write_pair(out: &mut String, first: bool, key: &str, value: &str) {
    out.push(if first { '{' } else { ',' });
    out.push_str(key);
    out.push_str("=\"");
    escape_into(out, value, true);
    out.push('"');
}

/// An exemplar line: `# EXEMPLAR <series> trace_id=<16 hex> <value>`,
/// with the series text written by `series`.
pub(crate) fn write_exemplar(out: &mut String, series: impl FnOnce(&mut String), ex: &Exemplar) {
    out.push_str("# EXEMPLAR ");
    series(out);
    // `omni_obs::format_trace_id`'s spelling; writing into a `String`
    // cannot fail.
    let _ = write!(out, " trace_id={:016x} ", ex.trace_id);
    write_value(out, ex.value);
    out.push('\n');
}

pub(crate) fn write_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// `s` with backslash and line feed escaped, and `"` too in a label value.
pub(crate) fn escape_into(out: &mut String, s: &str, label_value: bool) {
    let special = |c: char| c == '\\' || c == '\n' || (label_value && c == '"');
    if !s.contains(special) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if label_value => out.push_str("\\\""),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_exposition;
    use omni_model::labels;

    #[test]
    fn render_and_parse_roundtrip() {
        let mut fam = MetricFamily::gauge("node_temp_celsius", "Node temperature.");
        fam.sample(labels!("sensor" => "t0", "node" => "x1000c0s0b0n0"), 43.5);
        fam.sample(LabelSet::new(), 20.0);
        let text = render_exposition(&[fam]);
        assert!(text.contains("# TYPE node_temp_celsius gauge"));
        let records = parse_exposition(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name(), Some("node_temp_celsius"));
        assert_eq!(records[0].labels.get("sensor"), Some("t0"));
        assert_eq!(records[0].sample.value, 43.5);
        assert_eq!(records[1].labels.len(), 1); // just __name__
    }

    #[test]
    fn escaped_label_values() {
        let mut fam = MetricFamily::gauge("m", "h");
        fam.sample(labels!("path" => "a\"b\\c\nd"), 1.0);
        let text = render_exposition(&[fam]);
        let records = parse_exposition(&text).unwrap();
        assert_eq!(records[0].labels.get("path"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn help_text_is_escaped() {
        // A newline in help must not split the comment line, and a
        // backslash must round-trip as '\\' — per the text-format spec.
        let mut fam = MetricFamily::gauge("m", "line one\nline two \\ done");
        fam.sample(LabelSet::new(), 1.0);
        let text = render_exposition(&[fam]);
        assert!(text.contains("# HELP m line one\\nline two \\\\ done\n"), "{text:?}");
        // Every non-sample line is still a comment: the page stays parseable.
        assert_eq!(parse_exposition(&text).unwrap().len(), 1);
        // Quotes are NOT escaped in help (only label values escape them).
        let mut fam = MetricFamily::gauge("q", "says \"hi\"");
        fam.sample(LabelSet::new(), 1.0);
        assert!(render_exposition(&[fam]).contains("# HELP q says \"hi\"\n"));
    }

    #[test]
    fn exemplars_render_as_comments_and_do_not_break_parsing() {
        let mut fam = MetricFamily::counter("omni_query_latency_seconds_bucket", "Latency.");
        fam.sample(labels!("le" => "0.5"), 3.0);
        fam.sample(labels!("le" => "+Inf"), 4.0);
        fam.exemplar(labels!("le" => "0.5"), Exemplar { trace_id: 0xabcd, value: 0.4 });
        let text = render_exposition(&[fam]);
        // The exemplar line follows its bucket, as a comment carrying
        // the 16-hex trace id the trace store's timeline parser accepts.
        assert!(
            text.contains(
                "omni_query_latency_seconds_bucket{le=\"0.5\"} 3\n\
                 # EXEMPLAR omni_query_latency_seconds_bucket{le=\"0.5\"} \
                 trace_id=000000000000abcd 0.4\n"
            ),
            "{text:?}"
        );
        // The un-exemplared bucket renders bare.
        assert!(!text.contains("# EXEMPLAR omni_query_latency_seconds_bucket{le=\"+Inf\"}"));
        // A conforming classic-format parser sees only the samples.
        let records = parse_exposition(&text).unwrap();
        assert_eq!(records.len(), 2);
        // Help escaping still holds on an exemplar-bearing family.
        let mut fam = MetricFamily::counter("m", "line one\nline two \\ done");
        fam.sample(labels!("le" => "1"), 1.0);
        fam.exemplar(labels!("le" => "1"), Exemplar { trace_id: 7, value: 0.9 });
        let text = render_exposition(&[fam]);
        assert!(text.contains("# HELP m line one\\nline two \\\\ done\n"), "{text:?}");
        assert_eq!(parse_exposition(&text).unwrap().len(), 1);
        // Exemplars never rescue an invalid family name: the whole
        // family (exemplars included) degrades to the error comment.
        let mut bad = MetricFamily::gauge("bad name", "h");
        bad.sample(LabelSet::new(), 1.0);
        bad.exemplar(LabelSet::new(), Exemplar { trace_id: 9, value: 1.0 });
        let text = render_exposition(&[bad]);
        assert!(!text.contains("EXEMPLAR"), "{text:?}");
        assert!(parse_exposition(&text).unwrap().is_empty());
    }

    #[test]
    fn invalid_family_name_cannot_poison_the_page() {
        // Pre-fix, an empty or malformed family name rendered a sample
        // line the parser chokes on — and because a scrape parses the
        // whole page or nothing, one bad collector blinded the entire
        // self-telemetry job. Bad families must degrade to a comment.
        let mut empty_name = MetricFamily::gauge("", "anonymous");
        empty_name.sample(LabelSet::new(), 1.0);
        let mut spaced = MetricFamily::gauge("has space", "spaced out");
        spaced.sample(LabelSet::new(), 2.0);
        let mut digit_led = MetricFamily::counter("9lives_total", "cats");
        digit_led.sample(LabelSet::new(), 9.0);
        let mut good = MetricFamily::gauge("good_metric", "Survives.");
        good.sample(labels!("ok" => "yes"), 3.0);

        let text = render_exposition(&[empty_name, spaced, digit_led, good]);
        assert_eq!(text.matches("invalid metric name").count(), 3, "{text:?}");
        let records = parse_exposition(&text).expect("page must stay parseable");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name(), Some("good_metric"));
        assert_eq!(records[0].sample.value, 3.0);
    }

    #[test]
    fn counter_kind_renders() {
        let mut fam = MetricFamily::counter("req_total", "Requests.");
        fam.sample(LabelSet::new(), 7.0);
        assert!(render_exposition(&[fam]).contains("# TYPE req_total counter"));
    }
}
