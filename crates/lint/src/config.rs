//! Layer 1: static analysis of the stack's wired configuration — rules,
//! queries, routing, buckets — against the emittable catalog.

use crate::catalog::Catalog;
use crate::Finding;
use omni_alertmanager::{Route, RouteIssueKind};
use omni_logql::{
    ast::{CmpOp, Expr, GroupKind, Grouping, LogQuery, MetricQuery, RangeAggOp, Stage},
    MatchOp, Matcher, Selector,
};
use omni_model::AlertRule;
use omni_tsdb::promql::parse_promql;
use omni_tsdb::PromExpr;
use omni_xname::XName;
use std::collections::{BTreeMap, BTreeSet};

/// Which parser a query goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryLang {
    /// LogQL (log or metric form) — Grafana log panels, Loki ruler rules.
    LogQl,
    /// The PromQL subset — vmalert rules, Grafana metric panels.
    PromQl,
}

/// A non-alerting query the stack wires (dashboard panes).
#[derive(Debug, Clone)]
pub struct NamedQuery {
    /// Where it came from, e.g. `dashboard:leak-detection/Leak events`.
    pub source: String,
    /// Parser to use.
    pub lang: QueryLang,
    /// The query text.
    pub query: String,
}

/// Everything layer 1 validates in one pass.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// What the pipeline can emit.
    pub catalog: Catalog,
    /// Evaluation cadence rules are checked against: a `for:` hold
    /// shorter than this can never accumulate a second observation.
    pub scrape_interval_ns: i64,
    /// Dashboard / pane queries.
    pub queries: Vec<NamedQuery>,
    /// Alerting rules with the language each is written in: PromQL rules
    /// are vmalert's, LogQL rules the Loki ruler's.
    pub rules: Vec<(QueryLang, AlertRule)>,
    /// The Alertmanager routing tree.
    pub route: Option<Route>,
    /// Receivers with configured sinks.
    pub receivers: Vec<String>,
    /// Histogram bucket layouts, `(source, bounds)`.
    pub buckets: Vec<(String, Vec<f64>)>,
}

impl LintConfig {
    /// An empty config over a catalog; callers push what they wire.
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            scrape_interval_ns: 60 * omni_model::NANOS_PER_SEC,
            queries: Vec::new(),
            rules: Vec::new(),
            route: None,
            receivers: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Wire `rules`, all written in `lang`.
    pub fn add_rules(&mut self, lang: QueryLang, rules: impl IntoIterator<Item = AlertRule>) {
        self.rules.extend(rules.into_iter().map(|r| (lang, r)));
    }
}

/// Labels whose equality-matched values must be well-formed xnames.
const XNAME_LABELS: &[&str] = &["xname", "Context"];

/// Run every layer-1 check. Returns normalized (sorted, deduplicated)
/// findings; empty means the configuration is statically sound.
pub fn analyze(config: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for q in &config.queries {
        check_query(config, &q.source, q.lang, &q.query, &mut out);
    }
    // Alert name → the rule that claimed it first.
    let mut names: BTreeMap<&str, String> = BTreeMap::new();
    for (lang, r) in &config.rules {
        let source = match lang {
            QueryLang::LogQl => format!("ruler:{}", r.name),
            QueryLang::PromQl => format!("vmalert:{}", r.name),
        };
        check_query(config, &source, *lang, &r.expr, &mut out);
        if r.for_ns > 0 && r.for_ns < config.scrape_interval_ns {
            out.push(Finding::config(
                &source,
                "for-shorter-than-interval",
                format!(
                    "for: hold of {}s is shorter than the {}s evaluation interval; \
                     the hold can never observe a second evaluation",
                    r.for_ns / omni_model::NANOS_PER_SEC,
                    config.scrape_interval_ns / omni_model::NANOS_PER_SEC
                ),
            ));
        }
        // Both engines stamp `alertname` = the rule name, and Alertmanager
        // fingerprints on labels alone: two rules sharing a name alias
        // into one alert, and one resolving flaps the other's incident.
        if let Some(first) = names.get(r.name.as_str()) {
            out.push(Finding::config(
                &source,
                "duplicate-alertname",
                format!("alert name {:?} is already taken by {first}", r.name),
            ));
        } else {
            names.insert(&r.name, source);
        }
    }
    if let Some(route) = &config.route {
        let defined: Vec<&str> = config.receivers.iter().map(String::as_str).collect();
        for issue in route.validate(&defined) {
            let rule = match issue.kind {
                RouteIssueKind::UndefinedReceiver => "undefined-receiver",
                RouteIssueKind::ShadowedRoute => "unreachable-route",
            };
            out.push(Finding::config(&format!("route:{}", issue.path), rule, issue.detail));
        }
        check_route_matchers(route, "root", &mut out);
    }
    for (source, bounds) in &config.buckets {
        check_buckets(source, bounds, &mut out);
    }
    crate::normalize(out)
}

/// Histogram bounds must be finite and strictly increasing — a swapped
/// pair silently merges two buckets and skews every quantile estimate.
fn check_buckets(source: &str, bounds: &[f64], out: &mut Vec<Finding>) {
    for w in bounds.windows(2) {
        // partial_cmp: a NaN bound is both non-increasing and non-finite.
        if w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less) {
            out.push(Finding::config(
                source,
                "bucket-order",
                format!("bucket bounds not strictly increasing: {} then {}", w[0], w[1]),
            ));
        }
    }
    for b in bounds {
        if !b.is_finite() {
            out.push(Finding::config(
                source,
                "bucket-order",
                format!("non-finite bucket bound {b}"),
            ));
        }
    }
}

fn check_query(
    config: &LintConfig,
    source: &str,
    lang: QueryLang,
    text: &str,
    out: &mut Vec<Finding>,
) {
    match lang {
        QueryLang::LogQl => match omni_logql::parse_expr(text) {
            Ok(expr) => check_logql(config, source, &expr, out),
            Err(e) => out.push(Finding::config(source, "parse-logql", e.to_string())),
        },
        QueryLang::PromQl => match parse_promql(text) {
            Ok(expr) => check_promql(config, source, &expr, out),
            Err(e) => out.push(Finding::config(source, "parse-promql", e.to_string())),
        },
    }
}

// ---------------------------------------------------------------- LogQL

fn check_logql(config: &LintConfig, source: &str, expr: &Expr, out: &mut Vec<Finding>) {
    match expr {
        Expr::Log(q) => {
            check_log_query(config, source, q, out);
        }
        Expr::Metric(m) => check_logql_metric(config, source, m, out),
    }
}

fn check_logql_metric(config: &LintConfig, source: &str, m: &MetricQuery, out: &mut Vec<Finding>) {
    let labels = check_log_query(config, source, m.log_query(), out);
    check_logql_metric_inner(source, m, &labels, out);
    check_logql_vacuous(source, m, out);
}

/// Known labels after the pipeline ran: `None` means a dynamic extractor
/// (`json`/`logfmt`/`regexp`) makes the label set unknowable statically.
type KnownLabels = Option<BTreeSet<String>>;

fn check_logql_metric_inner(
    source: &str,
    m: &MetricQuery,
    labels: &KnownLabels,
    out: &mut Vec<Finding>,
) {
    match m {
        MetricQuery::RangeAgg { .. } => {}
        MetricQuery::VectorAgg { grouping, inner, .. } => {
            if let Some(g) = grouping {
                check_grouping(source, g, labels, out);
            }
            check_logql_metric_inner(source, inner, labels, out);
        }
        MetricQuery::Filter { inner, .. } => check_logql_metric_inner(source, inner, labels, out),
    }
}

fn check_grouping(source: &str, g: &Grouping, labels: &KnownLabels, out: &mut Vec<Finding>) {
    let Some(known) = labels else { return };
    if g.kind != GroupKind::By {
        return;
    }
    for l in &g.labels {
        if !known.contains(l) {
            out.push(Finding::config(
                source,
                "unknown-label",
                format!("grouping label {l:?} is not produced by the selector or its pipeline"),
            ));
        }
    }
}

/// Validate a log query; returns the statically known label set after
/// the pipeline (stream labels + pattern captures + label_format
/// destinations), or `None` once a dynamic extractor runs.
fn check_log_query(
    config: &LintConfig,
    source: &str,
    q: &LogQuery,
    out: &mut Vec<Finding>,
) -> KnownLabels {
    check_selector_stream_labels(config, source, &q.selector, out);
    let mut known: KnownLabels = Some(config.catalog.stream_labels().map(str::to_string).collect());
    for stage in &q.stages {
        match stage {
            Stage::Json | Stage::Logfmt | Stage::Regexp(_) => known = None,
            Stage::Pattern(p) => {
                if let Some(k) = known.as_mut() {
                    k.extend(p.capture_names().iter().map(|c| c.to_string()));
                }
            }
            Stage::LabelFormat { dst, .. } => {
                if let Some(k) = known.as_mut() {
                    k.insert(dst.clone());
                }
            }
            Stage::LabelCmpString { label, negated, value } => {
                require_label(source, label, &known, out);
                if !*negated && XNAME_LABELS.contains(&label.as_str()) {
                    check_xname_value(source, label, value, out);
                }
            }
            Stage::LabelCmpRegex { label, .. } | Stage::LabelCmpNumeric { label, .. } => {
                require_label(source, label, &known, out);
            }
            Stage::Unwrap(label) => require_label(source, label, &known, out),
            _ => {}
        }
    }
    known
}

fn require_label(source: &str, label: &str, known: &KnownLabels, out: &mut Vec<Finding>) {
    let Some(k) = known else { return };
    if !k.contains(label) {
        out.push(Finding::config(
            source,
            "unknown-label",
            format!("label {label:?} is not produced by the selector or its pipeline"),
        ));
    }
}

fn check_selector_stream_labels(
    config: &LintConfig,
    source: &str,
    selector: &Selector,
    out: &mut Vec<Finding>,
) {
    for m in &selector.matchers {
        if !config.catalog.is_stream_label(&m.name) {
            out.push(Finding::config(
                source,
                "unknown-label",
                format!("selector label {:?} is not a stream label the bridges produce", m.name),
            ));
        }
        check_matcher_xname(source, m, out);
    }
}

fn check_matcher_xname(source: &str, m: &Matcher, out: &mut Vec<Finding>) {
    if m.op == MatchOp::Eq && XNAME_LABELS.contains(&m.name.as_str()) {
        check_xname_value(source, &m.name, &m.value, out);
    }
}

fn check_xname_value(source: &str, label: &str, value: &str, out: &mut Vec<Finding>) {
    if value.parse::<XName>().is_err() {
        out.push(Finding::config(
            source,
            "invalid-xname",
            format!("label {label:?} matches {value:?}, which is not a well-formed xname"),
        ));
    }
}

/// Thresholds that are always (or never) satisfied on a non-negative
/// count-like aggregate: `count_over_time(...) >= 0` fires on every
/// series forever; `rate(...) < 0` never fires.
fn check_logql_vacuous(source: &str, m: &MetricQuery, out: &mut Vec<Finding>) {
    let MetricQuery::Filter { inner, op, scalar } = m else {
        if let MetricQuery::VectorAgg { inner, .. } = m {
            check_logql_vacuous(source, inner, out);
        }
        return;
    };
    check_logql_vacuous(source, inner, out);
    let count_like = matches!(
        bottom_range_op(inner),
        RangeAggOp::CountOverTime
            | RangeAggOp::Rate
            | RangeAggOp::BytesOverTime
            | RangeAggOp::BytesRate
    );
    if count_like {
        vacuous_on_nonnegative(source, *op, *scalar, out);
    }
}

fn bottom_range_op(m: &MetricQuery) -> RangeAggOp {
    match m {
        MetricQuery::RangeAgg { op, .. } => *op,
        MetricQuery::VectorAgg { inner, .. } => bottom_range_op(inner),
        MetricQuery::Filter { inner, .. } => bottom_range_op(inner),
    }
}

fn vacuous_on_nonnegative(source: &str, op: CmpOp, scalar: f64, out: &mut Vec<Finding>) {
    let verdict = match op {
        CmpOp::Gt if scalar < 0.0 => Some("always true"),
        CmpOp::Ge if scalar <= 0.0 => Some("always true"),
        CmpOp::Lt if scalar <= 0.0 => Some("never true"),
        CmpOp::Le if scalar < 0.0 => Some("never true"),
        _ => None,
    };
    if let Some(v) = verdict {
        out.push(Finding::config(
            source,
            "vacuous-threshold",
            format!("threshold `{op} {scalar}` on a non-negative aggregate is {v}"),
        ));
    }
}

// --------------------------------------------------------------- PromQL

fn check_promql(config: &LintConfig, source: &str, expr: &PromExpr, out: &mut Vec<Finding>) {
    match expr {
        PromExpr::Selector(s) | PromExpr::Absent(s) | PromExpr::RangeFn { selector: s, .. } => {
            check_prom_selector(config, source, s, out);
        }
        PromExpr::VectorAgg { grouping, inner, .. } => {
            if let Some(g) = grouping {
                check_prom_grouping(config, source, expr, g, out);
            }
            check_promql(config, source, inner, out);
        }
        PromExpr::Filter { inner, op, scalar } => {
            check_promql(config, source, inner, out);
            if prom_is_count_like(inner) {
                vacuous_on_nonnegative(source, *op, *scalar, out);
            }
        }
        PromExpr::BinOp { lhs, rhs, .. } => {
            check_promql(config, source, lhs, out);
            check_promql(config, source, rhs, out);
        }
    }
}

/// The metric name of a PromQL selector (stored as a `__name__` equality
/// matcher by the parser).
fn selector_name(s: &Selector) -> Option<&str> {
    s.matchers
        .iter()
        .find(|m| m.name == "__name__" && m.op == MatchOp::Eq)
        .map(|m| m.value.as_str())
}

fn check_prom_selector(config: &LintConfig, source: &str, s: &Selector, out: &mut Vec<Finding>) {
    let name = selector_name(s);
    let known_labels = match name {
        Some(n) => {
            if let Some(labels) = config.catalog.metric_labels(n) {
                Some(labels)
            } else {
                out.push(Finding::config(
                    source,
                    "unknown-metric",
                    format!("metric {n:?} is not emitted by any exporter, bridge or collector"),
                ));
                None
            }
        }
        None => None,
    };
    for m in &s.matchers {
        if m.name == "__name__" {
            continue;
        }
        if let Some(labels) = known_labels {
            if !labels.contains(&m.name) {
                out.push(Finding::config(
                    source,
                    "unknown-label",
                    format!("label {:?} never appears on metric {:?}", m.name, name.unwrap_or("?")),
                ));
            }
        }
        check_matcher_xname(source, m, out);
    }
}

fn check_prom_grouping(
    config: &LintConfig,
    source: &str,
    agg: &PromExpr,
    g: &Grouping,
    out: &mut Vec<Finding>,
) {
    if g.kind != GroupKind::By {
        return;
    }
    let Some(sel) = prom_bottom_selector(agg) else { return };
    let Some(name) = selector_name(sel) else { return };
    let Some(labels) = config.catalog.metric_labels(name) else { return };
    for l in &g.labels {
        if !labels.contains(l) {
            out.push(Finding::config(
                source,
                "unknown-label",
                format!("grouping label {l:?} never appears on metric {name:?}"),
            ));
        }
    }
}

fn prom_bottom_selector(expr: &PromExpr) -> Option<&Selector> {
    match expr {
        PromExpr::Selector(s) | PromExpr::Absent(s) | PromExpr::RangeFn { selector: s, .. } => {
            Some(s)
        }
        PromExpr::VectorAgg { inner, .. } | PromExpr::Filter { inner, .. } => {
            prom_bottom_selector(inner)
        }
        // Two bottoms — no single selector to attribute the grouping to.
        PromExpr::BinOp { .. } => None,
    }
}

fn prom_is_count_like(expr: &PromExpr) -> bool {
    use omni_tsdb::RangeFn;
    match expr {
        PromExpr::RangeFn { func, .. } => {
            matches!(func, RangeFn::Rate | RangeFn::Increase | RangeFn::CountOverTime)
        }
        PromExpr::VectorAgg { inner, .. } | PromExpr::Filter { inner, .. } => {
            prom_is_count_like(inner)
        }
        _ => false,
    }
}

// ---------------------------------------------------------------- misc

/// Route matchers guard alert labels; the only statically checkable ones
/// are xname-valued equality matchers.
fn check_route_matchers(route: &Route, path: &str, out: &mut Vec<Finding>) {
    for m in &route.matchers {
        check_matcher_xname(&format!("route:{path}"), m, out);
    }
    for (i, child) in route.routes.iter().enumerate() {
        check_route_matchers(child, &format!("{path}/{i}"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::NANOS_PER_SEC;

    fn cfg() -> LintConfig {
        LintConfig::new(Catalog::shipped())
    }

    fn rule(lang: QueryLang, expr: &str, for_ns: i64) -> (QueryLang, AlertRule) {
        let rule = AlertRule {
            name: format!("Test{lang:?}"),
            expr: expr.into(),
            for_ns,
            labels: Default::default(),
            annotations: vec![],
        };
        (lang, rule)
    }

    #[test]
    fn unknown_metric_flagged() {
        let mut c = cfg();
        c.rules.push(rule(QueryLang::PromQl, "max by (xname) (shasta_temprature_celsius) > 90", 0));
        let f = analyze(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unknown-metric");
    }

    #[test]
    fn unknown_prom_label_flagged() {
        let mut c = cfg();
        c.rules.push(rule(QueryLang::PromQl, "max by (node) (shasta_temperature_celsius) > 90", 0));
        let f = analyze(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unknown-label");
    }

    #[test]
    fn unknown_stream_label_flagged() {
        let mut c = cfg();
        c.queries.push(NamedQuery {
            source: "test:q".into(),
            lang: QueryLang::LogQl,
            query: r#"{datatype="syslog"}"#.into(),
        });
        let f = analyze(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unknown-label");
    }

    #[test]
    fn invalid_xname_flagged_valid_ok() {
        let mut c = cfg();
        c.queries.push(NamedQuery {
            source: "test:bad".into(),
            lang: QueryLang::PromQl,
            query: r#"shasta_leak_bool{xname="not-an-xname"}"#.into(),
        });
        c.queries.push(NamedQuery {
            source: "test:good".into(),
            lang: QueryLang::PromQl,
            query: r#"shasta_leak_bool{xname="x1000c2"}"#.into(),
        });
        let f = analyze(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "invalid-xname");
        assert_eq!(f[0].file, "test:bad");
    }

    #[test]
    fn vacuous_threshold_flagged() {
        let mut c = cfg();
        c.rules.push(rule(
            QueryLang::LogQl,
            r#"sum(count_over_time({data_type="syslog"} [5m])) by (cluster) >= 0"#,
            0,
        ));
        let f = analyze(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "vacuous-threshold");
    }

    #[test]
    fn short_for_hold_flagged() {
        let mut c = cfg();
        c.rules.push(rule(
            QueryLang::PromQl,
            "max by (xname) (shasta_temperature_celsius) > 90",
            5 * NANOS_PER_SEC,
        ));
        let f = analyze(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "for-shorter-than-interval");
    }

    #[test]
    fn zero_for_hold_is_intentional() {
        let mut c = cfg();
        c.rules.push(rule(QueryLang::PromQl, "max by (xname) (shasta_leak_bool) > 0", 0));
        assert!(analyze(&c).is_empty());
    }

    #[test]
    fn duplicate_alert_name_flagged_across_engines() {
        let mut c = cfg();
        c.add_rules(QueryLang::PromQl, AlertRule::shipped_rules());
        let mut copy = AlertRule::paper_switch_rule();
        copy.name = "LeakSensorWet".into();
        c.add_rules(QueryLang::LogQl, [AlertRule::paper_switch_rule(), copy]);
        let f = analyze(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "duplicate-alertname");
        assert_eq!(f[0].file, "ruler:LeakSensorWet");
        assert!(f[0].message.contains("vmalert:LeakSensorWet"), "{}", f[0].message);
    }

    #[test]
    fn parse_errors_reported_not_panicked() {
        let mut c = cfg();
        c.rules.push(rule(QueryLang::PromQl, "max by (", 0));
        c.rules.push(rule(QueryLang::LogQl, "{unclosed", 0));
        let f = analyze(&c);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == "parse-promql"));
        assert!(f.iter().any(|x| x.rule == "parse-logql"));
    }

    #[test]
    fn bad_buckets_flagged() {
        let mut c = cfg();
        c.buckets.push(("test:hist".into(), vec![1.0, 2.0, 2.0, 4.0]));
        let f = analyze(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "bucket-order");
    }

    #[test]
    fn route_issues_mapped_to_findings() {
        let mut c = cfg();
        let mut root = Route::default_route("slack");
        root.routes.push(Route::matching("pagerduty", vec![]));
        root.routes.push(Route::matching("slack", vec![Matcher::eq("severity", "warning")]));
        c.route = Some(root);
        c.receivers = vec!["slack".into()];
        let f = analyze(&c);
        assert!(f.iter().any(|x| x.rule == "undefined-receiver"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "unreachable-route"), "{f:?}");
    }

    #[test]
    fn pattern_captures_satisfy_grouping() {
        let mut c = cfg();
        c.rules.push(rule(
            QueryLang::LogQl,
            r#"sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>" [5m])) by (severity, problem, xname, state) > 0"#,
            0,
        ));
        assert!(analyze(&c).is_empty());
    }

    #[test]
    fn grouping_without_extractor_flagged() {
        let mut c = cfg();
        c.rules.push(rule(
            QueryLang::LogQl,
            r#"sum(count_over_time({app="fabric_manager_monitor"} [5m])) by (Severity) > 0"#,
            0,
        ));
        let f = analyze(&c);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unknown-label");
    }
}
