//! Property tests for the LogQL front end.

use omni_logql::{parse_expr, parse_log_query, Pipeline};
use omni_model::LabelSet;
use proptest::prelude::*;
use std::borrow::Cow;

/// Every stage kind, each behind a parser where it reads labels, so each
/// sees whatever a hostile line and stream produced; the last query
/// chains them all.
const EVERY_STAGE: &[&str] = &[
    r#"{a="b"} |= "=""#,
    r#"{a="b"} != "=""#,
    r#"{a="b"} |~ "x(y|z)+\d""#,
    r#"{a="b"} !~ "^[a-z ]*$""#,
    r#"{a="b"} | json"#,
    r#"{a="b"} | logfmt"#,
    r#"{a="b"} | pattern "<k>=<v> <_>""#,
    r#"{a="b"} | regexp "(?P<k>\w+)=(?P<v>\S*)""#,
    r#"{a="b"} | logfmt | level = "error""#,
    r#"{a="b"} | json | level != "info""#,
    r#"{a="b"} | logfmt | level =~ "err.*|warn""#,
    r#"{a="b"} | logfmt | a !~ "b+""#,
    r#"{a="b"} | logfmt | dur > 10"#,
    r#"{a="b"} | json | dur <= 1.5"#,
    r#"{a="b"} | logfmt | dur == 3"#,
    r#"{a="b"} | logfmt | dur != 3"#,
    r#"{a="b"} | logfmt | dur >= 10s"#,
    r#"{a="b"} | logfmt | line_format "{{.level}}: {{.msg}} {{.a}} {{.__error__}}""#,
    r#"{a="b"} | logfmt | label_format lvl=level"#,
    r#"{a="b"} | json | label_format a=a"#,
    r#"{a="b"} | logfmt | label_format id="{{.a}}-{{.level}}""#,
    r#"{a="b"} | logfmt | unwrap dur"#,
    r#"{a="b"} | json | unwrap v | label_format v="""#,
    r#"{a="b"} |= "=" !~ "zz" | json | logfmt | pattern "<k>=<v>" | regexp "(?P<n>\d+)" | k != "" | n > 0 | line_format "{{.k}}{{.n}}" | json | label_format k2=k | label_format id="{{.k2}}" | unwrap n"#,
];

/// Hostile lines: anything printable, and shapes that get deep into the
/// `json`, `logfmt` and `pattern` parsers.
fn hostile_line() -> impl Strategy<Value = String> {
    prop_oneof![
        "\\PC{0,200}",
        "[{}\\[\\]\":,a-z0-9 .eE+\\-\\\\]{0,80}",
        "[a-z_=\" \\\\0-9.]{0,80}",
        "[a-z]{1,5}=[0-9a-z\"é中]{0,6} [a-z]{1,5}=\"[a-z \\\\\"]{0,12}",
    ]
}

/// Arbitrary stream label sets, with names the stages also extract.
fn hostile_labels() -> impl Strategy<Value = LabelSet> {
    let name = prop_oneof![
        prop::sample::select(vec!["a", "level", "dur", "v", "k", "n", "__error__", "k_extracted"])
            .prop_map(String::from),
        "\\PC{0,8}",
    ];
    prop::collection::vec((name, "\\PC{0,16}"), 0..6).prop_map(LabelSet::from_pairs)
}

proptest! {
    #[test]
    fn parser_never_panics(q in "\\PC{0,120}") {
        let _ = parse_expr(&q);
    }

    #[test]
    fn parser_never_panics_querylike(
        q in "[{}()\\[\\]|=~!<>a-z0-9\", .]{0,80}"
    ) {
        let _ = parse_expr(&q);
    }

    #[test]
    fn valid_selectors_always_parse(
        names in prop::collection::vec("[a-z_][a-z0-9_]{0,8}", 1..4),
        values in prop::collection::vec("[a-zA-Z0-9 _.-]{0,12}", 1..4),
    ) {
        let n = names.len().min(values.len());
        let matchers: Vec<String> = (0..n)
            .map(|i| format!("{}=\"{}\"", names[i], values[i]))
            .collect();
        let q = format!("{{{}}}", matchers.join(", "));
        let parsed = parse_log_query(&q);
        prop_assert!(parsed.is_ok(), "query {q} failed: {:?}", parsed.err());
    }

    #[test]
    fn line_contains_filter_agrees_with_str_contains(
        needle in "[a-z]{1,6}",
        line in "[a-z ]{0,40}",
    ) {
        let q = format!(r#"{{app="x"}} |= "{needle}""#);
        let stages = parse_log_query(&q).unwrap().stages;
        let pipeline = Pipeline::new(&stages);
        let labels = LabelSet::from_pairs([("app", "x")]);
        let kept = pipeline.process(&line, &labels).is_some();
        prop_assert_eq!(kept, line.contains(&needle));
    }

    #[test]
    fn pipeline_never_panics_on_arbitrary_lines(
        line in hostile_line(),
        labels in hostile_labels(),
    ) {
        // Whatever comes back borrowed is the caller's own line or
        // label set, never a copy or a slice of it.
        for q in EVERY_STAGE {
            let stages = parse_log_query(q).unwrap().stages;
            let Some(p) = Pipeline::new(&stages).process(&line, &labels) else { continue };
            if let Cow::Borrowed(l) = p.line {
                prop_assert!(std::ptr::eq(l, line.as_str()), "{q}");
            }
            if let Cow::Borrowed(l) = p.labels {
                prop_assert!(std::ptr::eq(l, &labels), "{q}");
            }
        }
    }

    #[test]
    fn count_over_time_durations_parse(mins in 1u32..10_000) {
        let q = format!(r#"count_over_time({{a="b"}}[{mins}m])"#);
        prop_assert!(parse_expr(&q).is_ok());
    }
}
