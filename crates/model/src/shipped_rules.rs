//! The rule set the shipped stack evaluates — three LogQL rules for the
//! Loki Ruler (the paper's two case studies and the §V GPFS scenario),
//! three PromQL rules and the SLO burn-rate meta-alerts for vmalert.
//! Declared once: `core::stack` loads these and `omni-lint` validates the
//! same values statically against the emittable catalog.

use crate::{AlertRule, LabelSet, NANOS_PER_SEC};

const MINUTE: i64 = 60 * NANOS_PER_SEC;

impl AlertRule {
    /// The Figure 8 leak-detection rule (LogQL).
    pub fn paper_leak_rule() -> Self {
        Self {
            name: "PerlmutterCabinetLeak".into(),
            expr: r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (Severity, cluster, Context, MessageId, Message) > 0"#.into(),
            for_ns: MINUTE,
            labels: LabelSet::from_pairs([("severity", "critical"), ("category", "facility")]),
            annotations: vec![
                ("summary".into(), "Cabinet leak detected at {{.Context}}".into()),
                ("description".into(), "{{.Message}}".into()),
            ],
        }
    }

    /// The Figure 8 switch-offline rule (LogQL).
    pub fn paper_switch_rule() -> Self {
        Self {
            name: "PerlmutterSwitchOffline".into(),
            expr: r#"sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>" [5m])) by (severity, problem, xname, state) > 0"#.into(),
            for_ns: MINUTE,
            labels: LabelSet::from_pairs([("severity", "critical"), ("category", "fabric")]),
            annotations: vec![
                ("summary".into(), "Switch {{.xname}} is {{.state}}".into()),
                ("description".into(), "problem={{.problem}} on {{.xname}}".into()),
            ],
        }
    }

    /// GPFS server-health rule (LogQL) — the §V future-work scenario,
    /// following the same pattern-extraction shape as the switch rule.
    pub fn gpfs_server_rule() -> Self {
        Self {
            name: "GpfsServerUnhealthy".into(),
            expr: r#"sum(count_over_time({app="gpfs_monitor"} |= "gpfs_server_state" | pattern "[<severity>] problem:<problem>, fs:<fs>, server:<server>, state:<state>" | state != "HEALTHY" [5m])) by (severity, fs, server, state) > 0"#.into(),
            for_ns: MINUTE,
            labels: LabelSet::from_pairs([("severity", "critical"), ("category", "storage")]),
            annotations: vec![
                ("summary".into(), "GPFS server {{.server}} on {{.fs}} is {{.state}}".into()),
                ("description".into(), "filesystem {{.fs}} server {{.server}} state {{.state}}".into()),
            ],
        }
    }

    /// The three LogQL rules the Loki Ruler carries.
    pub fn shipped_logql_rules() -> Vec<Self> {
        vec![Self::paper_leak_rule(), Self::paper_switch_rule(), Self::gpfs_server_rule()]
    }

    /// The PromQL rules vmalert carries (thermal, GPFS waiters, leak
    /// sensors) — the metric side of the paper's case studies.
    pub fn shipped_rules() -> Vec<Self> {
        vec![
            Self {
                name: "NodeTemperatureCritical".into(),
                expr: "max by (xname) (shasta_temperature_celsius) > 90".into(),
                for_ns: MINUTE,
                labels: LabelSet::from_pairs([("severity", "critical")]),
                annotations: vec![("summary".into(), "node {{.xname}} above 90C".into())],
            },
            Self {
                name: "GpfsLongWaiters".into(),
                expr: "max by (fs, server) (gpfs_longest_waiter_seconds) > 300".into(),
                for_ns: MINUTE,
                labels: LabelSet::from_pairs([("severity", "critical")]),
                annotations: vec![(
                    "summary".into(),
                    "GPFS {{.fs}}/{{.server}} has waiters over 300s".into(),
                )],
            },
            Self {
                name: "LeakSensorWet".into(),
                expr: "max by (xname) (shasta_leak_bool) > 0".into(),
                for_ns: 0,
                labels: LabelSet::from_pairs([("severity", "warning")]),
                annotations: vec![("summary".into(), "leak sensor wet at {{.xname}}".into())],
            },
        ]
    }

    /// Multi-window burn-rate meta-alerts (PromQL) over the `omni_slo_*`
    /// gauges the registry exports: the monitor alerting on its own
    /// service levels. The fast window pages (critical → ServiceNow) on a
    /// budget-torching burn; the slow window warns on a sustained simmer.
    pub fn slo_burn_rules() -> Vec<Self> {
        vec![
            Self {
                name: "SloFastBurn".into(),
                expr: r#"max by (slo) (omni_slo_burn_rate{window="fast"}) > 14"#.into(),
                for_ns: MINUTE,
                labels: LabelSet::from_pairs([("severity", "critical")]),
                annotations: vec![(
                    "summary".into(),
                    "SLO {{.slo}} is burning error budget 14x too fast".into(),
                )],
            },
            Self {
                name: "SloSlowBurn".into(),
                expr: r#"max by (slo) (omni_slo_burn_rate{window="slow"}) > 2"#.into(),
                for_ns: 5 * MINUTE,
                labels: LabelSet::from_pairs([("severity", "warning")]),
                annotations: vec![(
                    "summary".into(),
                    "SLO {{.slo}} burn is sustained above 2x".into(),
                )],
            },
        ]
    }
}
