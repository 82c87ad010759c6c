//! omni-lint: promtool-style static validation for the shasta-mon stack.
//!
//! Two layers:
//!
//! 1. **Config analysis** ([`analyze`]): every LogQL query, PromQL alert
//!    rule, Alertmanager route tree and histogram bucket layout the stack
//!    wires is parsed with the *same* parsers the runtime uses, then
//!    cross-checked against a statically derived [`Catalog`] of
//!    everything the pipeline can emit — exporter families, the
//!    `omni_obs::SELF_FAMILIES` self-telemetry table, bridge-produced
//!    Loki stream labels. A typo'd
//!    metric name or an unreachable route is a boot-time error instead of
//!    an alert that silently never fires.
//! 2. **Source invariants** ([`lint_workspace`]): a hand-rolled Rust
//!    lexer sweeps `crates/**/*.rs` for wall-clock reads outside
//!    `crates/bench` (the simulation is virtual-time only), `unwrap` /
//!    `expect` / `panic!` in the hot-path crates, and malformed
//!    metric-name literals at registration sites.
//! 3. **Concurrency analysis** (`concurrency`, reported through
//!    [`lint_workspace`]): the same lexed token
//!    streams, assembled into a workspace model — lock classes from
//!    every `Mutex`/`RwLock`/`Ordered*` field, a call graph, and a
//!    may-hold-while-acquiring graph — checked for lock cycles,
//!    double-locks, guards held across blocking calls, nondeterministic
//!    hash iteration, and Relaxed atomics used for publication. The
//!    static half of the contract the runtime lock-order witness
//!    (`omni_model::lockwitness`) enforces in debug builds.
//!
//! Output is deterministic: findings sort by `(file, line, rule,
//! message)` and both the text and `--json` renderings are byte-identical
//! across runs. A `// lint:allow(<rule>)` comment on the offending line
//! or the line above suppresses a source finding; an allow that
//! suppresses nothing is itself reported (`unused-suppression`).

pub mod catalog;
mod concurrency;
pub mod config;
pub mod rustlint;
mod workspace;

pub use catalog::Catalog;
pub use config::{analyze, LintConfig, NamedQuery, QueryLang};
pub use rustlint::{lint_source, lint_workspace};

use omni_json::Json;

/// One defect found by either layer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative source path (layer 2) or a `kind:name` source tag
    /// like `vmalert:NodeTemperatureCritical` (layer 1).
    pub file: String,
    /// 1-based line for source findings; 0 for config findings.
    pub line: usize,
    /// Stable rule id, e.g. `unknown-metric` or `no-unwrap`.
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Build a config-layer finding (no source line).
    pub fn config(source: &str, rule: &str, message: impl Into<String>) -> Self {
        Self { file: source.to_string(), line: 0, rule: rule.to_string(), message: message.into() }
    }

    /// Build a source-layer finding.
    pub fn source(file: &str, line: usize, rule: &str, message: impl Into<String>) -> Self {
        Self { file: file.to_string(), line, rule: rule.to_string(), message: message.into() }
    }

    /// `error` gates CI; `warning` is advisory (style/hygiene rules whose
    /// violations are suspicious but not provably broken).
    pub fn severity(&self) -> &'static str {
        match self.rule.as_str() {
            "nondet-iter" | "unsynced-atomic" | "unused-suppression" | "lock-table-drift" => {
                "warning"
            }
            _ => "error",
        }
    }

    /// Which analysis layer produced the rule: 1 = config cross-check,
    /// 2 = per-file source invariants, 3 = workspace concurrency model.
    pub fn layer(&self) -> u8 {
        match self.rule.as_str() {
            "lock-cycle"
            | "double-lock"
            | "lock-held-across-call"
            | "lock-table-drift"
            | "nondet-iter"
            | "unsynced-atomic" => 3,
            "wall-clock" | "no-unwrap" | "metric-name" | "unused-suppression" | "io-error" => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Sort and deduplicate findings into the canonical reporting order.
pub fn normalize(mut findings: Vec<Finding>) -> Vec<Finding> {
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    findings.dedup();
    findings
}

/// Render findings as sorted text, one per line.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}

/// Render findings as the versioned JSON report (schema v2):
/// `{"version":2,"findings":[{"rule","file","line","severity","layer","message"},...]}`.
/// v2 adds `severity` (error|warning) and `layer` (1|2|3) to each
/// finding; v1 consumers that ignored unknown fields keep working.
pub fn render_json(findings: &[Finding]) -> String {
    let mut root = Json::object();
    let _ = root.set("version", Json::Number(2.0));
    let items = findings
        .iter()
        .map(|f| {
            let mut o = Json::object();
            let _ = o.set("rule", Json::String(f.rule.clone()));
            let _ = o.set("file", Json::String(f.file.clone()));
            let _ = o.set("line", Json::Number(f.line as f64));
            let _ = o.set("severity", Json::String(f.severity().to_string()));
            let _ = o.set("layer", Json::Number(f.layer() as f64));
            let _ = o.set("message", Json::String(f.message.clone()));
            o
        })
        .collect();
    let _ = root.set("findings", Json::Array(items));
    root.dump()
}

/// The lint configuration covering everything wired below `omni-core`:
/// the shipped vmalert rules, Loki ruler rules, the Alertmanager routing
/// tree and the default latency buckets, all validated against
/// [`Catalog::shipped`]. `core::stack` extends this with its dashboards
/// and extra histogram layouts at boot.
pub fn shipped_config() -> LintConfig {
    use omni_model::AlertRule;

    let mut cfg = LintConfig::new(Catalog::shipped());
    cfg.add_rules(
        QueryLang::PromQl,
        AlertRule::shipped_rules().into_iter().chain(AlertRule::slo_burn_rules()),
    );
    cfg.add_rules(QueryLang::LogQl, AlertRule::shipped_logql_rules());
    cfg.route = Some(omni_alertmanager::Route::shipped_tree());
    cfg.receivers = omni_alertmanager::Route::shipped_receivers();
    cfg.buckets
        .push(("obs:default-latency".to_string(), omni_obs::DEFAULT_LATENCY_BUCKETS.to_vec()));
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_sort_and_render_deterministically() {
        let raw = vec![
            Finding::source("b.rs", 2, "no-unwrap", "second"),
            Finding::source("a.rs", 9, "wall-clock", "first"),
            Finding::source("a.rs", 9, "wall-clock", "first"),
        ];
        let n = normalize(raw);
        assert_eq!(n.len(), 2);
        assert_eq!(n[0].file, "a.rs");
        let text = render_text(&n);
        assert_eq!(text, "a.rs:9: [wall-clock] first\nb.rs:2: [no-unwrap] second\n");
        assert_eq!(render_text(&n), text);
    }

    #[test]
    fn json_report_parses_back() {
        let findings = vec![Finding::config("vmalert:X", "unknown-metric", "no such metric")];
        let parsed = omni_json::parse(&render_json(&findings)).unwrap();
        assert_eq!(parsed.pointer("/version").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            parsed.pointer("/findings/0/rule").and_then(Json::as_str),
            Some("unknown-metric")
        );
        assert_eq!(parsed.pointer("/findings/0/line").and_then(Json::as_f64), Some(0.0));
        assert_eq!(parsed.pointer("/findings/0/severity").and_then(Json::as_str), Some("error"));
        assert_eq!(parsed.pointer("/findings/0/layer").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn severity_and_layer_classify_every_rule() {
        let err = Finding::source("a.rs", 1, "lock-cycle", "m");
        assert_eq!(err.severity(), "error");
        assert_eq!(err.layer(), 3);
        let warn = Finding::source("a.rs", 1, "nondet-iter", "m");
        assert_eq!(warn.severity(), "warning");
        assert_eq!(warn.layer(), 3);
        let l2 = Finding::source("a.rs", 1, "unused-suppression", "m");
        assert_eq!(l2.severity(), "warning");
        assert_eq!(l2.layer(), 2);
        let l1 = Finding::config("vmalert:X", "unknown-metric", "m");
        assert_eq!(l1.severity(), "error");
        assert_eq!(l1.layer(), 1);
    }

    #[test]
    fn shipped_config_is_clean() {
        assert_eq!(analyze(&shipped_config()), Vec::new());
    }
}
