//! The Ruler: "a component that enables assessment of a collection of
//! configurable queries and execute an action based on the outcome, thus
//! aids in setting alerting rules along with configuring routing of the
//! resulting alerts from a Prometheus Alertmanager" (§III-A).
//!
//! Rules share the Prometheus alerting-rule shape: an expression, a `for:`
//! hold duration, extra labels, and annotations. Each evaluation ticks the
//! pending → firing state machine per result series; transitions out emit
//! resolved notifications.

use crate::{LokiCluster, QueryContext};
use omni_logql::{parse_expr, pipeline::render_template, Expr, MetricQuery, ParseError};
use omni_model::{LabelSet, Timestamp};
use std::collections::HashMap;

/// Lifecycle state of one alert series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition true, `for:` hold not yet satisfied.
    Pending,
    /// Condition held long enough; the alert is active.
    Firing,
    /// Condition stopped being true; terminal notification.
    Resolved,
}

impl AlertState {
    /// Wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One alerting rule (Figure 8's shape).
#[derive(Debug, Clone)]
pub struct AlertingRule {
    /// Alert name (`alert:` in the YAML).
    pub name: String,
    /// LogQL expression; must be a metric query.
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

impl AlertingRule {
    /// Build the Figure 8 leak-detection rule.
    pub fn paper_leak_rule() -> Self {
        Self {
            name: "PerlmutterCabinetLeak".into(),
            expr: r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (Severity, cluster, Context, MessageId, Message) > 0"#.into(),
            for_ns: 60 * 1_000_000_000,
            labels: LabelSet::from_pairs([("severity", "critical"), ("category", "facility")]),
            annotations: vec![
                ("summary".into(), "Cabinet leak detected at {{.Context}}".into()),
                ("description".into(), "{{.Message}}".into()),
            ],
        }
    }

    /// GPFS server-health rule — the §V future-work scenario, following
    /// the same pattern-extraction shape as the switch rule.
    pub fn gpfs_server_rule() -> Self {
        Self {
            name: "GpfsServerUnhealthy".into(),
            expr: r#"sum(count_over_time({app="gpfs_monitor"} |= "gpfs_server_state" | pattern "[<severity>] problem:<problem>, fs:<fs>, server:<server>, state:<state>" | state != "HEALTHY" [5m])) by (severity, fs, server, state) > 0"#.into(),
            for_ns: 60 * 1_000_000_000,
            labels: LabelSet::from_pairs([("severity", "critical"), ("category", "storage")]),
            annotations: vec![
                ("summary".into(), "GPFS server {{.server}} on {{.fs}} is {{.state}}".into()),
                ("description".into(), "filesystem {{.fs}} server {{.server}} state {{.state}}".into()),
            ],
        }
    }

    /// Build the Figure 8 switch-offline rule.
    pub fn paper_switch_rule() -> Self {
        Self {
            name: "PerlmutterSwitchOffline".into(),
            expr: r#"sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>" [5m])) by (severity, problem, xname, state) > 0"#.into(),
            for_ns: 60 * 1_000_000_000,
            labels: LabelSet::from_pairs([("severity", "critical"), ("category", "fabric")]),
            annotations: vec![
                ("summary".into(), "Switch {{.xname}} is {{.state}}".into()),
                ("description".into(), "problem={{.problem}} on {{.xname}}".into()),
            ],
        }
    }
}

/// A rule group evaluated on one interval (the Prometheus rule-file
/// `groups:` unit).
#[derive(Debug, Clone)]
pub struct RuleGroup {
    /// Group name.
    pub name: String,
    /// Evaluation interval.
    pub interval_ns: i64,
    /// The rules.
    pub rules: Vec<AlertingRule>,
}

/// A notification the Ruler hands to Alertmanager.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleNotification {
    /// `alertname` + rule labels + series labels.
    pub labels: LabelSet,
    /// Rendered annotations.
    pub annotations: Vec<(String, String)>,
    /// pending/firing/resolved.
    pub state: AlertState,
    /// When the series first became active.
    pub active_at: Timestamp,
    /// The expression's value at evaluation.
    pub value: f64,
}

#[derive(Debug, Clone)]
struct ActiveAlert {
    active_at: Timestamp,
    firing: bool,
    last_value: f64,
}

/// The Ruler: evaluates rule groups against a cluster and reports alert
/// transitions.
pub struct Ruler {
    cluster: LokiCluster,
    groups: Vec<(RuleGroup, Vec<MetricQuery>)>,
    /// (group, rule index, series labels) → state.
    active: HashMap<(usize, usize, LabelSet), ActiveAlert>,
    last_eval: HashMap<usize, Timestamp>,
}

impl Ruler {
    /// Attach a ruler to a cluster.
    pub fn new(cluster: LokiCluster) -> Self {
        Self { cluster, groups: Vec::new(), active: HashMap::new(), last_eval: HashMap::new() }
    }

    /// Add a rule group, parsing every expression up front.
    pub fn add_group(&mut self, group: RuleGroup) -> Result<(), ParseError> {
        let mut parsed = Vec::with_capacity(group.rules.len());
        for rule in &group.rules {
            match parse_expr(&rule.expr)? {
                Expr::Metric(m) => parsed.push(m),
                Expr::Log(_) => {
                    return Err(ParseError {
                        message: format!("rule {:?} must be a metric query", rule.name),
                    })
                }
            }
        }
        self.groups.push((group, parsed));
        Ok(())
    }

    /// Evaluate every group whose interval elapsed at `now`; returns the
    /// notifications produced by this pass (pending alerts are tracked but
    /// not notified, matching Prometheus).
    pub fn evaluate(&mut self, now: Timestamp) -> Vec<RuleNotification> {
        let mut out = Vec::new();
        for gi in 0..self.groups.len() {
            let due = match self.last_eval.get(&gi) {
                Some(&last) => now.saturating_sub(last) >= self.groups[gi].0.interval_ns,
                None => true,
            };
            if !due {
                continue;
            }
            self.last_eval.insert(gi, now);
            out.extend(self.evaluate_group(gi, now));
        }
        out
    }

    fn evaluate_group(&mut self, gi: usize, now: Timestamp) -> Vec<RuleNotification> {
        let mut out = Vec::new();
        let (group, parsed) = &self.groups[gi];
        let group_rules: Vec<AlertingRule> = group.rules.clone();
        let queries: Vec<MetricQuery> = parsed.clone();
        for (ri, (rule, query)) in group_rules.iter().zip(queries.iter()).enumerate() {
            // Rule queries go through the frontend so per-query limits
            // apply to the ruler too; a rejected query contributes no
            // series this cycle (the frontend counts the rejection).
            let ctx = QueryContext::anonymous(&self.cluster.limits);
            let vector = self
                .cluster
                .frontend()
                .run_instant_query(&self.cluster.shards(), &ctx, query, now)
                .map_or_else(|_| Vec::new(), |(v, _)| v);
            let mut seen: Vec<LabelSet> = Vec::new();
            for (series_labels, value) in vector {
                let key = (gi, ri, series_labels.clone());
                seen.push(series_labels.clone());
                let entry = self.active.entry(key).or_insert(ActiveAlert {
                    active_at: now,
                    firing: false,
                    last_value: value,
                });
                entry.last_value = value;
                if !entry.firing && now.saturating_sub(entry.active_at) >= rule.for_ns {
                    entry.firing = true;
                }
                let snapshot = entry.clone();
                if snapshot.firing {
                    out.push(self.notification(
                        rule,
                        &series_labels,
                        &snapshot,
                        AlertState::Firing,
                    ));
                }
            }
            // Series that disappeared: resolve them, in stable order —
            // resolution notifications are output.
            let mut stale: Vec<(usize, usize, LabelSet)> = self
                .active
                .keys()
                .filter(|(g, r, l)| *g == gi && *r == ri && !seen.contains(l))
                .cloned()
                .collect();
            stale.sort();
            for key in stale {
                let Some(entry) = self.active.remove(&key) else { continue };
                if entry.firing {
                    out.push(self.notification(rule, &key.2, &entry, AlertState::Resolved));
                }
            }
        }
        out
    }

    fn notification(
        &self,
        rule: &AlertingRule,
        series_labels: &LabelSet,
        entry: &ActiveAlert,
        state: AlertState,
    ) -> RuleNotification {
        let mut labels = series_labels.merged_with(&rule.labels);
        labels.insert("alertname", rule.name.as_str());
        let annotations = rule
            .annotations
            .iter()
            .map(|(k, tpl)| (k.clone(), render_template(tpl, &labels)))
            .collect();
        RuleNotification {
            labels,
            annotations,
            state,
            active_at: entry.active_at,
            value: entry.last_value,
        }
    }

    /// Number of currently active (pending or firing) series.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Limits, LokiCluster};
    use omni_model::{labels, SimClock, NANOS_PER_SEC};

    fn minute() -> i64 {
        60 * NANOS_PER_SEC
    }

    fn setup() -> (LokiCluster, Ruler) {
        let cluster = LokiCluster::new(2, Limits::default(), SimClock::starting_at(0));
        let ruler = Ruler::new(cluster.clone());
        (cluster, ruler)
    }

    fn switch_group() -> RuleGroup {
        RuleGroup {
            name: "fabric".into(),
            interval_ns: minute(),
            rules: vec![AlertingRule::paper_switch_rule()],
        }
    }

    #[test]
    fn rule_fires_after_for_hold() {
        let (cluster, mut ruler) = setup();
        ruler.add_group(switch_group()).unwrap();
        let t0 = 10 * minute();
        cluster
            .push(
                labels!("app" => "fabric_manager_monitor", "cluster" => "perlmutter"),
                t0,
                "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN",
            )
            .unwrap();
        // First evaluation right after the event: pending, no notification.
        assert!(ruler.evaluate(t0 + NANOS_PER_SEC).is_empty());
        assert_eq!(ruler.active_count(), 1);
        // One minute later: firing.
        let notifs = ruler.evaluate(t0 + minute() + 2 * NANOS_PER_SEC);
        assert_eq!(notifs.len(), 1);
        let n = &notifs[0];
        assert_eq!(n.state, AlertState::Firing);
        assert_eq!(n.labels.get("alertname"), Some("PerlmutterSwitchOffline"));
        assert_eq!(n.labels.get("xname"), Some("x1002c1r7b0"));
        assert_eq!(n.labels.get("state"), Some("UNKNOWN"));
        assert_eq!(n.value, 1.0);
        let summary = n.annotations.iter().find(|(k, _)| k == "summary").unwrap();
        assert_eq!(summary.1, "Switch x1002c1r7b0 is UNKNOWN");
    }

    #[test]
    fn rule_resolves_when_window_empties() {
        let (cluster, mut ruler) = setup();
        ruler.add_group(switch_group()).unwrap();
        let t0 = 10 * minute();
        cluster
            .push(
                labels!("app" => "fabric_manager_monitor"),
                t0,
                "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN",
            )
            .unwrap();
        ruler.evaluate(t0 + NANOS_PER_SEC);
        let firing = ruler.evaluate(t0 + 2 * minute());
        assert!(firing.iter().any(|n| n.state == AlertState::Firing));
        // After the 5m window slides past the event, the series vanishes
        // and a resolved notification goes out.
        let resolved = ruler.evaluate(t0 + 10 * minute());
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].state, AlertState::Resolved);
        assert_eq!(ruler.active_count(), 0);
    }

    #[test]
    fn interval_gates_evaluation() {
        let (cluster, mut ruler) = setup();
        ruler.add_group(switch_group()).unwrap();
        let t0 = 10 * minute();
        cluster
            .push(
                labels!("app" => "fabric_manager_monitor"),
                t0,
                "[critical] problem:fm_switch_offline, xname:x1, state:OFFLINE",
            )
            .unwrap();
        ruler.evaluate(t0);
        // 10 seconds later the group is not due yet; active set unchanged.
        let before = ruler.active_count();
        ruler.evaluate(t0 + 10 * NANOS_PER_SEC);
        assert_eq!(ruler.active_count(), before);
    }

    #[test]
    fn log_query_rules_rejected() {
        let (_, mut ruler) = setup();
        let bad = RuleGroup {
            name: "bad".into(),
            interval_ns: minute(),
            rules: vec![AlertingRule {
                name: "NotAMetric".into(),
                expr: r#"{app="x"}"#.into(),
                for_ns: 0,
                labels: LabelSet::new(),
                annotations: vec![],
            }],
        };
        assert!(ruler.add_group(bad).is_err());
    }

    #[test]
    fn zero_for_fires_immediately() {
        let (cluster, mut ruler) = setup();
        let mut rule = AlertingRule::paper_switch_rule();
        rule.for_ns = 0;
        ruler
            .add_group(RuleGroup { name: "g".into(), interval_ns: minute(), rules: vec![rule] })
            .unwrap();
        let t0 = 10 * minute();
        cluster
            .push(
                labels!("app" => "fabric_manager_monitor"),
                t0,
                "[critical] problem:fm_switch_offline, xname:x2, state:OFFLINE",
            )
            .unwrap();
        let notifs = ruler.evaluate(t0 + 1);
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].state, AlertState::Firing);
    }

    #[test]
    fn two_switches_fire_as_separate_series() {
        let (cluster, mut ruler) = setup();
        let mut rule = AlertingRule::paper_switch_rule();
        rule.for_ns = 0;
        ruler
            .add_group(RuleGroup { name: "g".into(), interval_ns: minute(), rules: vec![rule] })
            .unwrap();
        let t0 = 10 * minute();
        for xname in ["x1000c1r1b0", "x1001c2r3b0"] {
            cluster
                .push(
                    labels!("app" => "fabric_manager_monitor"),
                    t0,
                    format!("[critical] problem:fm_switch_offline, xname:{xname}, state:OFFLINE"),
                )
                .unwrap();
        }
        let notifs = ruler.evaluate(t0 + 1);
        assert_eq!(notifs.len(), 2);
        let mut xnames: Vec<&str> = notifs.iter().map(|n| n.labels.get("xname").unwrap()).collect();
        xnames.sort();
        assert_eq!(xnames, vec!["x1000c1r1b0", "x1001c2r3b0"]);
    }

    #[test]
    fn mass_resolution_order_is_deterministic() {
        // Eight switches fire, then the 5m window slides past all of
        // them at once. The stale sweep walks the `active` HashMap;
        // resolution notifications must come out sorted, not in hash
        // order.
        let run = || {
            let (cluster, mut ruler) = setup();
            ruler.add_group(switch_group()).unwrap();
            let t0 = 10 * minute();
            for i in 0..8 {
                cluster
                    .push(
                        labels!("app" => "fabric_manager_monitor"),
                        t0,
                        format!(
                            "[critical] problem:fm_switch_offline, xname:x10{i:02}c0r0b0, \
                             state:OFFLINE"
                        ),
                    )
                    .unwrap();
            }
            ruler.evaluate(t0 + NANOS_PER_SEC);
            ruler.evaluate(t0 + 2 * minute());
            ruler
                .evaluate(t0 + 10 * minute())
                .into_iter()
                .map(|n| n.labels.to_string())
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first.len(), 8);
        assert_eq!(first, run(), "resolution order must not depend on hash order");
    }
}
