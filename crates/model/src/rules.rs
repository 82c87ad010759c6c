//! Alerting rules and the one pending → firing → resolved state machine.
//!
//! The paper draws the same box twice — `{ Ruler | vmalert } →
//! Alertmanager`, "a collection of configurable queries" that "execute an
//! action based on the outcome" (§III). Both are a [`RuleEngine`]; what
//! differs is the query language, which each store supplies as an
//! [`Evaluate`] (`omni_loki` for LogQL, `omni_tsdb` for PromQL).

use crate::{LabelSet, Timestamp};
use std::collections::HashMap;

/// What an alert reports about its series. Pending series are tracked
/// but not emitted, matching Prometheus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertStatus {
    /// Condition held for the rule's `for:`; the alert is active.
    Firing,
    /// Condition stopped being true; terminal notification.
    Resolved,
}

/// One alert, the same value from the rule that fires it to every
/// receiver (Alertmanager, Slack, ServiceNow).
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Identity labels (`alertname` + series + rule labels).
    pub labels: LabelSet,
    /// Rendered annotations.
    pub annotations: Vec<(String, String)>,
    /// Current status.
    pub status: AlertStatus,
    /// When its series became active.
    pub starts_at: Timestamp,
}

impl Alert {
    /// The `alertname` label (empty if missing).
    pub fn name(&self) -> &str {
        self.labels.get("alertname").unwrap_or("")
    }
}

/// One alerting rule, in the Prometheus shape (Figure 8).
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Alert name (`alert:` in the YAML).
    pub name: String,
    /// LogQL or PromQL expression, usually with a threshold filter.
    pub expr: String,
    /// Hold duration before firing (`for:`). The paper: "if the return
    /// value is greater than zero and it lasts more than one minutes, an
    /// alert will be generated".
    pub for_ns: i64,
    /// Extra labels attached to the alert (severity, category, ...).
    pub labels: LabelSet,
    /// Annotations; values are `{{.label}}` templates.
    pub annotations: Vec<(String, String)>,
}

/// A rule group evaluated on one interval (a rule file's `groups:` unit).
#[derive(Debug, Clone)]
pub struct RuleGroup {
    /// Group name.
    pub name: String,
    /// Evaluation interval; `0` evaluates on every call.
    pub interval_ns: i64,
    /// The rules.
    pub rules: Vec<AlertRule>,
}

/// The query language a [`RuleEngine`] evaluates its rules in.
pub trait Evaluate {
    /// A parsed rule expression.
    type Query;
    /// Why an expression failed to parse or a query to run.
    type Error;

    /// Parse a rule expression (once, when the rule is added).
    fn parse(&self, expr: &str) -> Result<Self::Query, Self::Error>;

    /// The series for which the expression holds at instant `at`, each with its value.
    fn instant(&self, q: &Self::Query, at: Timestamp) -> Result<Vec<(LabelSet, f64)>, Self::Error>;
}

/// One series a rule holds pending or firing.
struct Active {
    active_at: Timestamp,
    /// The series' alert, built when it first fires: its labels cannot
    /// change while it is held, so neither can its rendered annotations.
    alert: Option<Alert>,
    /// Sequence number of the last evaluation that returned the series.
    seen: u64,
}

struct GroupState<Q> {
    interval_ns: i64,
    last_eval: Option<Timestamp>,
    /// Each rule with its parsed expression and its active series.
    rules: Vec<(AlertRule, Q, HashMap<LabelSet, Active>)>,
}

/// Evaluates rule groups through an [`Evaluate`] and reports alert
/// transitions: the Loki Ruler over LogQL, vmalert over PromQL.
pub struct RuleEngine<E: Evaluate> {
    evaluator: E,
    groups: Vec<GroupState<E::Query>>,
    /// Evaluations so far; stamps the series each one returned.
    seq: u64,
}

impl<E: Evaluate> RuleEngine<E> {
    /// Attach an engine to the store it queries.
    pub fn new(evaluator: E) -> Self {
        Self { evaluator, groups: Vec::new(), seq: 0 }
    }

    /// Add a rule group, parsing every expression up front.
    pub fn add_group(&mut self, group: RuleGroup) -> Result<(), E::Error> {
        let mut rules = Vec::with_capacity(group.rules.len());
        for rule in group.rules {
            let query = self.evaluator.parse(&rule.expr)?;
            rules.push((rule, query, HashMap::new()));
        }
        self.groups.push(GroupState { interval_ns: group.interval_ns, last_eval: None, rules });
        Ok(())
    }

    /// Add one rule evaluated on every call (vmalert's shape).
    pub fn add_rule(&mut self, rule: AlertRule) -> Result<(), E::Error> {
        self.add_group(RuleGroup { name: rule.name.clone(), interval_ns: 0, rules: vec![rule] })
    }

    /// Evaluate every group whose interval elapsed at `now`. Per rule,
    /// returns one `Firing` alert per held series in evaluator order, then
    /// one `Resolved` per firing series that left the result, in series
    /// label order.
    pub fn evaluate(&mut self, now: Timestamp) -> Vec<Alert> {
        self.seq += 1;
        let seq = self.seq;
        let mut out = Vec::new();
        for group in &mut self.groups {
            if group.last_eval.is_some_and(|last| now.saturating_sub(last) < group.interval_ns) {
                continue;
            }
            group.last_eval = Some(now);
            for (rule, query, active) in &mut group.rules {
                // A query that failed is not a query that found nothing:
                // resolving on it would close an incident whose fault
                // persists, and dropping a pending series would restart
                // its `for:` clock. The rule keeps its state and sits
                // this cycle out (Prometheus' behaviour).
                let Ok(vector) = self.evaluator.instant(query, now) else { continue };
                out.reserve(vector.len());
                for (series, _) in vector {
                    let fresh = Active { active_at: now, alert: None, seen: seq };
                    let entry = active.entry(series.clone()).or_insert(fresh);
                    entry.seen = seq;
                    if entry.alert.is_none() && now.saturating_sub(entry.active_at) >= rule.for_ns {
                        entry.alert = Some(build(rule, &series, entry.active_at));
                    }
                    out.extend(entry.alert.clone());
                }
                let mut gone = Vec::new();
                active.retain(|series, a| {
                    if a.seen != seq {
                        gone.extend(a.alert.take().map(|alert| (series.clone(), alert)));
                    }
                    a.seen == seq
                });
                // Sorted: resolutions are output, hash order is not.
                gone.sort_by(|(a, _), (b, _)| a.cmp(b));
                out.extend(
                    gone.into_iter()
                        .map(|(_, alert)| Alert { status: AlertStatus::Resolved, ..alert }),
                );
            }
        }
        out
    }

    /// Number of currently active (pending or firing) series.
    pub fn active_count(&self) -> usize {
        self.groups.iter().flat_map(|g| &g.rules).map(|(_, _, active)| active.len()).sum()
    }
}

/// The alert `rule` fires for `series`: the rule's labels over the
/// series', `alertname`, and the annotations rendered against them.
fn build(rule: &AlertRule, series: &LabelSet, starts_at: Timestamp) -> Alert {
    let mut labels = series.merged_with(&rule.labels);
    labels.insert("alertname", rule.name.as_str());
    let render = |(k, tpl): &(String, String)| (k.clone(), render_template(tpl, &labels));
    let annotations = rule.annotations.iter().map(render).collect();
    Alert { labels, annotations, status: AlertStatus::Firing, starts_at }
}

/// Render a `{{.label}}` template against a label set; unknown labels
/// render empty.
pub fn render_template(tpl: &str, labels: &LabelSet) -> String {
    let mut out = String::with_capacity(tpl.len());
    let mut rest = tpl;
    while let Some((before, after)) = rest.split_once("{{") {
        // An unclosed `{{` is literal text, like everything after it.
        let Some((expr, tail)) = after.split_once("}}") else { break };
        out.push_str(before);
        if let Some(name) = expr.trim().strip_prefix('.') {
            out.push_str(labels.get(name.trim()).unwrap_or(""));
        }
        rest = tail;
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{labels, NANOS_PER_SEC};
    use std::cell::RefCell;
    use std::rc::Rc;

    const MINUTE: i64 = 60 * NANOS_PER_SEC;

    type Answer = Result<Vec<(LabelSet, f64)>, String>;

    /// An evaluator that answers every query with whatever the test last
    /// put in the shared cell.
    #[derive(Clone, Default)]
    struct Stub(Rc<RefCell<Option<Answer>>>);

    impl Stub {
        fn hot(&self, nodes: &[(&str, f64)]) {
            let vector = nodes.iter().map(|&(n, v)| (labels!("node" => n), v)).collect();
            *self.0.borrow_mut() = Some(Ok(vector));
        }

        fn fail(&self) {
            *self.0.borrow_mut() = Some(Err("over budget".into()));
        }
    }

    impl Evaluate for Stub {
        type Query = ();
        type Error = String;

        fn parse(&self, expr: &str) -> Result<(), String> {
            if expr.is_empty() {
                return Err("empty expression".into());
            }
            Ok(())
        }

        fn instant(&self, _: &(), _: Timestamp) -> Answer {
            self.0.borrow().clone().unwrap_or(Ok(Vec::new()))
        }
    }

    fn hot_node_rule(for_ns: i64) -> AlertRule {
        AlertRule {
            name: "NodeTooHot".into(),
            expr: "max by (node) (node_temp) > 90".into(),
            for_ns,
            labels: LabelSet::from_pairs([("severity", "critical")]),
            annotations: vec![("summary".into(), "node {{.node}} over 90C".into())],
        }
    }

    fn engine(for_ns: i64) -> (Stub, RuleEngine<Stub>) {
        let stub = Stub::default();
        let mut engine = RuleEngine::new(stub.clone());
        engine.add_rule(hot_node_rule(for_ns)).unwrap();
        (stub, engine)
    }

    #[test]
    fn fires_after_hold_and_resolves() {
        let (stub, mut engine) = engine(MINUTE);
        let t0 = 10 * MINUTE;
        stub.hot(&[("x9", 95.0)]);
        assert!(engine.evaluate(t0).is_empty(), "pending is not notified");
        assert_eq!(engine.active_count(), 1);
        stub.hot(&[("x9", 96.5)]);
        let notifs = engine.evaluate(t0 + MINUTE);
        assert_eq!(notifs.len(), 1);
        let n = &notifs[0];
        assert_eq!(n.status, AlertStatus::Firing);
        assert_eq!(n.starts_at, t0);
        let want = labels!("alertname" => "NodeTooHot", "node" => "x9", "severity" => "critical");
        assert_eq!(n.labels, want);
        assert_eq!(n.annotations, vec![("summary".to_string(), "node x9 over 90C".to_string())]);
        // Cooled down: the series leaves the vector -> resolved, once.
        stub.hot(&[]);
        let notifs = engine.evaluate(t0 + 2 * MINUTE);
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].status, AlertStatus::Resolved);
        assert_eq!(engine.active_count(), 0);
        assert!(engine.evaluate(t0 + 3 * MINUTE).is_empty());
    }

    #[test]
    fn zero_for_fires_immediately_and_pending_never_resolves() {
        let (stub, mut engine) = engine(0);
        stub.hot(&[("x1", 91.0), ("x2", 93.5)]);
        let notifs = engine.evaluate(MINUTE);
        let nodes: Vec<&str> = notifs.iter().map(|n| n.labels.get("node").unwrap()).collect();
        assert_eq!(nodes, ["x1", "x2"]);
        assert!(notifs.iter().all(|n| n.status == AlertStatus::Firing));

        // A series that clears while still pending leaves silently.
        let (stub, mut engine) = self::engine(MINUTE);
        stub.hot(&[("x1", 91.0)]);
        assert!(engine.evaluate(MINUTE).is_empty());
        stub.hot(&[]);
        assert!(engine.evaluate(MINUTE + 1).is_empty());
        assert_eq!(engine.active_count(), 0);
    }

    #[test]
    fn interval_gates_a_group_and_zero_interval_does_not() {
        let stub = Stub::default();
        let mut engine = RuleEngine::new(stub.clone());
        let group =
            RuleGroup { name: "g".into(), interval_ns: MINUTE, rules: vec![hot_node_rule(0)] };
        engine.add_group(group).unwrap();
        engine.add_rule(hot_node_rule(0)).unwrap();
        stub.hot(&[("x1", 95.0)]);
        assert_eq!(engine.evaluate(0).len(), 2, "a group's first evaluation is always due");
        assert_eq!(engine.evaluate(10 * NANOS_PER_SEC).len(), 1, "only the ungated rule is due");
        assert_eq!(engine.evaluate(MINUTE).len(), 2);
    }

    #[test]
    fn unparseable_rule_is_rejected_with_its_group() {
        let stub = Stub::default();
        let mut engine = RuleEngine::new(stub.clone());
        let mut bad = hot_node_rule(0);
        bad.expr.clear();
        let group =
            RuleGroup { name: "g".into(), interval_ns: 0, rules: vec![hot_node_rule(0), bad] };
        assert!(engine.add_group(group).is_err());
        stub.hot(&[("x1", 95.0)]);
        assert!(engine.evaluate(0).is_empty(), "nothing of a rejected group is kept");
    }

    #[test]
    fn evaluate_at_sentinel_now_does_not_overflow() {
        // Regression: `now - entry.starts_at` used to overflow when a rule
        // first activated at a negative timestamp and was re-evaluated at a
        // large one (the sentinel-start class PR5 fixed in the frontend).
        let (stub, mut engine) = engine(MINUTE);
        stub.hot(&[("x9", 95.0)]);
        assert!(engine.evaluate(i64::MIN / 2).is_empty()); // pending
        let notifs = engine.evaluate(i64::MAX / 2);
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].status, AlertStatus::Firing);
    }

    #[test]
    fn mass_resolution_order_is_deterministic() {
        // Ten series fire, then all clear at once. The sweep walks a
        // HashMap; resolutions must come out sorted, not in hash order.
        let names: Vec<String> = (0..10).rev().map(|i| format!("x{i}")).collect();
        let nodes: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 95.0)).collect();
        let (stub, mut engine) = engine(0);
        stub.hot(&nodes);
        let fired = engine.evaluate(MINUTE);
        let fired: Vec<&str> = fired.iter().map(|n| n.labels.get("node").unwrap()).collect();
        assert_eq!(fired, names, "firing notifications keep evaluator order");
        stub.hot(&[]);
        let resolved = engine.evaluate(2 * MINUTE);
        assert!(resolved.iter().all(|n| n.status == AlertStatus::Resolved));
        let resolved: Vec<&str> = resolved.iter().map(|n| n.labels.get("node").unwrap()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(resolved, sorted);
    }

    #[test]
    fn failed_query_neither_resolves_nor_restarts_the_hold() {
        let (stub, mut engine) = engine(2 * MINUTE);
        let t0 = 10 * MINUTE;
        stub.hot(&[("x9", 95.0)]);
        assert!(engine.evaluate(t0).is_empty());
        // Pending, then the query is rejected: the `for:` clock keeps running.
        stub.fail();
        assert!(engine.evaluate(t0 + MINUTE).is_empty());
        assert_eq!(engine.active_count(), 1);
        stub.hot(&[("x9", 97.0)]);
        let notifs = engine.evaluate(t0 + 2 * MINUTE);
        assert_eq!(notifs.len(), 1);
        assert_eq!((notifs[0].status, notifs[0].starts_at), (AlertStatus::Firing, t0));
        // Firing, then rejected: no resolution, nothing at all this cycle.
        stub.fail();
        assert!(engine.evaluate(t0 + 3 * MINUTE).is_empty());
        // Recovery resumes where it left off: still firing since t0, and
        // one resolution when the series really goes.
        stub.hot(&[("x9", 98.0)]);
        let notifs = engine.evaluate(t0 + 4 * MINUTE);
        assert_eq!(notifs.len(), 1);
        assert_eq!((notifs[0].status, notifs[0].starts_at), (AlertStatus::Firing, t0));
        stub.hot(&[]);
        let notifs = engine.evaluate(t0 + 5 * MINUTE);
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].status, AlertStatus::Resolved);
    }

    #[test]
    fn template_rendering_edge_cases() {
        let l = labels!("a" => "1");
        assert_eq!(render_template("{{.a}}", &l), "1");
        assert_eq!(render_template("{{.missing}}", &l), "");
        assert_eq!(render_template("plain", &l), "plain");
        assert_eq!(render_template("{{unclosed", &l), "{{unclosed");
        assert_eq!(render_template("{{ .a }}", &l), "1");
    }
}
