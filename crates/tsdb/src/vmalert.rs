//! vmalert: "a component of VictoriaMetrics, that queries the database
//! based on predefined rules. When the return value matches, vmalert
//! sends an event to AlertManager." (§III)
//!
//! This module is the PromQL evaluator for [`omni_model::RuleEngine`], which
//! owns the rules and the pending → firing → resolved state machine
//! (shared with the Loki Ruler).

use crate::promql::{eval_instant, parse_promql, PromExpr, PromParseError};
use crate::storage::Tsdb;
use omni_logql::InstantVector;
use omni_model::{Evaluate, Timestamp};

impl Evaluate for Tsdb {
    type Query = PromExpr;
    type Error = PromParseError;

    fn parse(&self, expr: &str) -> Result<PromExpr, PromParseError> {
        parse_promql(expr)
    }

    fn instant(&self, query: &PromExpr, now: Timestamp) -> Result<InstantVector, PromParseError> {
        Ok(eval_instant(self, query, now))
    }
}

/// vmalert: a rule engine over PromQL. This alias and the re-export below
/// are the names the read-only `omnibench/src/staged.rs` spells (omnibench
/// compat — remove with ROADMAP item 1).
pub type VmAlert = omni_model::RuleEngine<Tsdb>;
pub use omni_model::AlertRule as MetricRule;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::TsdbConfig;
    use omni_model::{labels, AlertRule, AlertStatus, LabelSet, RuleEngine, NANOS_PER_SEC};

    const MINUTE: i64 = 60 * NANOS_PER_SEC;

    fn hot_node_rule() -> AlertRule {
        AlertRule {
            name: "NodeTooHot".into(),
            expr: "max by (node) (node_temp) > 90".into(),
            for_ns: MINUTE,
            labels: LabelSet::from_pairs([("severity", "critical")]),
            annotations: vec![("summary".into(), "node {{.node}} over 90C".into())],
        }
    }

    #[test]
    fn fires_after_hold_and_resolves() {
        let db = Tsdb::new(TsdbConfig::default());
        let mut va = RuleEngine::new(db.clone());
        va.add_rule(hot_node_rule()).unwrap();
        let t0 = 10 * MINUTE;
        db.ingest_sample("node_temp", labels!("node" => "x9"), t0, 95.0);
        assert!(va.evaluate(t0).is_empty()); // pending
        db.ingest_sample("node_temp", labels!("node" => "x9"), t0 + MINUTE, 96.0);
        let notifs = va.evaluate(t0 + MINUTE);
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].status, AlertStatus::Firing);
        assert_eq!(notifs[0].labels.get("alertname"), Some("NodeTooHot"));
        assert_eq!(notifs[0].annotations[0].1, "node x9 over 90C");
        // Cooled down: series leaves the vector -> resolved.
        db.ingest_sample("node_temp", labels!("node" => "x9"), t0 + 2 * MINUTE, 60.0);
        let notifs = va.evaluate(t0 + 2 * MINUTE);
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].status, AlertStatus::Resolved);
        assert_eq!(va.active_count(), 0);
    }

    #[test]
    fn bad_rule_rejected() {
        let mut va = RuleEngine::new(Tsdb::new(TsdbConfig::default()));
        let mut rule = hot_node_rule();
        rule.expr = "max by (".into();
        assert!(va.add_rule(rule).is_err());
    }
}
