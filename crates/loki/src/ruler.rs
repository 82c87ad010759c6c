//! The Ruler: "a component that enables assessment of a collection of
//! configurable queries and execute an action based on the outcome, thus
//! aids in setting alerting rules along with configuring routing of the
//! resulting alerts from a Prometheus Alertmanager" (§III-A).
//!
//! This module is the LogQL evaluator for [`omni_model::RuleEngine`], which
//! owns the rules, the intervals and the pending → firing → resolved state
//! machine (shared with vmalert).

use crate::{LokiCluster, QueryContext, QueryError};
use omni_logql::{parse_expr, Expr, InstantVector, MetricQuery};
use omni_model::{Evaluate, Timestamp};

impl Evaluate for LokiCluster {
    type Query = MetricQuery;
    type Error = QueryError;

    fn parse(&self, expr: &str) -> Result<MetricQuery, QueryError> {
        match parse_expr(expr)? {
            Expr::Metric(m) => Ok(m),
            Expr::Log(_) => Err(QueryError::WrongQueryKind("metric query")),
        }
    }

    /// Rule queries go through the frontend so per-query limits apply to
    /// the ruler too; the frontend counts a rejection, the engine holds
    /// the rule's state through it.
    fn instant(&self, query: &MetricQuery, now: Timestamp) -> Result<InstantVector, QueryError> {
        let ctx = QueryContext::anonymous(&self.limits);
        let (vector, _) = self.frontend().run_instant_query(&self.shards(), &ctx, query, now)?;
        Ok(vector)
    }
}

/// The Loki Ruler: a rule engine over LogQL. This alias and the re-exports
/// below are the names the read-only `omnibench/src/staged.rs` spells
/// (omnibench compat — remove with ROADMAP item 1).
pub type Ruler = omni_model::RuleEngine<LokiCluster>;
pub use omni_model::{AlertRule as AlertingRule, RuleGroup};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Limits;
    use omni_model::{
        labels, AlertRule, AlertStatus, RuleEngine, RuleGroup, SimClock, NANOS_PER_SEC,
    };

    const MINUTE: i64 = 60 * NANOS_PER_SEC;
    const SWITCH_LINE: &str =
        "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN";

    fn setup(limits: Limits) -> (LokiCluster, RuleEngine<LokiCluster>) {
        let cluster = LokiCluster::new(2, limits, SimClock::starting_at(0));
        let mut ruler = RuleEngine::new(cluster.clone());
        ruler
            .add_group(RuleGroup {
                name: "fabric".into(),
                interval_ns: MINUTE,
                rules: vec![AlertRule::paper_switch_rule()],
            })
            .unwrap();
        (cluster, ruler)
    }

    fn push_switch_line(cluster: &LokiCluster, ts: Timestamp) {
        cluster.push(labels!("app" => "fabric_manager_monitor"), ts, SWITCH_LINE).unwrap();
    }

    #[test]
    fn switch_rule_fires_after_hold_and_resolves_when_window_empties() {
        let (cluster, mut ruler) = setup(Limits::default());
        let t0 = 10 * MINUTE;
        push_switch_line(&cluster, t0);
        // First evaluation right after the event: pending, no notification.
        assert!(ruler.evaluate(t0 + NANOS_PER_SEC).is_empty());
        assert_eq!(ruler.active_count(), 1);
        // One minute later: firing.
        let notifs = ruler.evaluate(t0 + MINUTE + 2 * NANOS_PER_SEC);
        assert_eq!(notifs.len(), 1);
        let n = &notifs[0];
        assert_eq!(n.status, AlertStatus::Firing);
        assert_eq!(n.labels.get("alertname"), Some("PerlmutterSwitchOffline"));
        assert_eq!(n.labels.get("xname"), Some("x1002c1r7b0"));
        assert_eq!(n.labels.get("state"), Some("UNKNOWN"));
        let summary = n.annotations.iter().find(|(k, _)| k == "summary").unwrap();
        assert_eq!(summary.1, "Switch x1002c1r7b0 is UNKNOWN");
        // After the 5m window slides past the event, the series vanishes
        // and a resolved notification goes out.
        let resolved = ruler.evaluate(t0 + 10 * MINUTE);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].status, AlertStatus::Resolved);
        assert_eq!(ruler.active_count(), 0);
    }

    #[test]
    fn log_query_rules_rejected() {
        let (_, mut ruler) = setup(Limits::default());
        let mut rule = AlertRule::paper_switch_rule();
        rule.expr = r#"{app="x"}"#.into();
        let bad = RuleGroup { name: "bad".into(), interval_ns: MINUTE, rules: vec![rule] };
        assert!(matches!(ruler.add_group(bad), Err(QueryError::WrongQueryKind(_))));
    }

    #[test]
    fn rejected_rule_query_does_not_resolve_a_live_alert() {
        // Regression: a `QueryError` used to read as "no series", so a
        // scan budget an operator is expected to set closed the incident
        // of a switch that was still offline.
        let limits = Limits { max_bytes_scanned: 200, ..Default::default() };
        let (cluster, mut ruler) = setup(limits);
        let t0 = 10 * MINUTE;
        push_switch_line(&cluster, t0);
        assert!(ruler.evaluate(t0 + 1).is_empty());
        let fired = ruler.evaluate(t0 + MINUTE + 1);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].status, AlertStatus::Firing);
        // The switch stays offline; the repeats push the scan over budget.
        for i in 1..=5 {
            push_switch_line(&cluster, t0 + MINUTE + i * NANOS_PER_SEC);
        }
        assert_eq!(cluster.frontend().stats().rejected_total, 0);
        assert!(ruler.evaluate(t0 + 2 * MINUTE + 1).is_empty(), "no resolve, no re-fire");
        assert_eq!(cluster.frontend().stats().rejected_total, 1);
        assert_eq!(ruler.active_count(), 1, "the alert is held through the rejection");
    }
}
