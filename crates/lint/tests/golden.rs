//! Golden-file tests: the bad fixture produces exactly the pinned
//! findings (byte-identical across runs), and the real workspace plus
//! the shipped configuration produce none.

use omni_lint::{analyze, normalize, render_json, render_text, shipped_config, Catalog};
use std::path::Path;

fn crate_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn bad_fixture_matches_golden_findings_exactly() {
    let src = std::fs::read_to_string(crate_root().join("tests/fixtures/bad_source.rs"))
        .expect("fixture present");
    let golden = std::fs::read_to_string(crate_root().join("tests/fixtures/bad_source.golden"))
        .expect("golden present");

    // The fixture plays a hot-path crate so every rule applies.
    let findings = normalize(omni_lint::lint_source("tests/fixtures/bad_source.rs", "core", &src));
    let text = render_text(&findings);
    assert_eq!(text, golden, "fixture findings drifted from the golden file");

    // Byte-identical across renders, text and JSON alike.
    assert_eq!(render_text(&findings), text);
    assert_eq!(render_json(&findings), render_json(&findings));

    // Every finding survives the JSON round trip.
    let parsed = omni_json::parse(&render_json(&findings)).expect("report is valid JSON");
    let items = parsed.pointer("/findings").and_then(|f| f.as_array().map(|a| a.len()));
    assert_eq!(items, Some(findings.len()));
}

#[test]
fn real_workspace_is_clean() {
    // crates/lint/.. /.. == the workspace root.
    let root = crate_root().join("../..");
    let findings = omni_lint::lint_workspace(&root);
    assert!(findings.is_empty(), "workspace sources must lint clean:\n{}", render_text(&findings));
}

#[test]
fn shipped_configuration_is_clean() {
    let findings = analyze(&shipped_config());
    assert!(findings.is_empty(), "shipped config must lint clean:\n{}", render_text(&findings));
}

#[test]
fn broken_config_produces_exact_sorted_findings() {
    use omni_lint::{LintConfig, NamedQuery, QueryLang};

    let mut cfg = LintConfig::new(Catalog::shipped());
    // Three distinct defects, pushed out of order on purpose.
    let typo = omni_model::AlertRule {
        name: "Typo".into(),
        expr: "max by (xname) (shasta_temprature_celsius) > 90".into(),
        for_ns: 60_000_000_000,
        labels: Default::default(),
        annotations: vec![],
    };
    cfg.add_rules(QueryLang::PromQl, [typo]);
    cfg.queries.push(NamedQuery {
        source: "dashboard:X:bad-stream".into(),
        lang: QueryLang::LogQl,
        query: r#"{datatype="syslog"}"#.into(),
    });
    cfg.buckets.push(("stack:bad".into(), vec![1.0, 2.0, 2.0]));

    let findings = analyze(&cfg);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
    // Already normalized: sorted by (file, line, rule, message).
    assert_eq!(rules, vec!["unknown-label", "bucket-order", "unknown-metric"], "{findings:?}");
    assert_eq!(findings[0].file, "dashboard:X:bad-stream");
    assert_eq!(findings[1].file, "stack:bad");
    assert_eq!(findings[2].file, "vmalert:Typo");
    assert_eq!(analyze(&cfg), findings, "analysis must be deterministic");
}
