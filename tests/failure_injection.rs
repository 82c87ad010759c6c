//! Failure injection: the pipeline must degrade loudly-but-safely when
//! fed garbage, backlogged, or queried adversarially.

use shasta_mon::core::{MonitoringStack, StackConfig};
use shasta_mon::loki::{IngestError, Limits, LokiCluster};
use shasta_mon::model::{labels, SimClock, NANOS_PER_SEC};

const MINUTE: i64 = 60 * NANOS_PER_SEC;

#[test]
fn malformed_redfish_payloads_are_dropped_not_fatal() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    // Push garbage straight onto the resource-event topic.
    for garbage in ["not json", "{}", r#"{"metrics":{"messages":[{"Context":"bad!"}]}}"#] {
        stack
            .collector
            .publish_log(shasta_mon::redfish::topics::RESOURCE_EVENTS, "x0", garbage)
            .unwrap();
    }
    stack.step(MINUTE, 5, 5);
    // The pipeline survived; no redfish events were stored.
    let events =
        stack.pane.logs(r#"{data_type="redfish_event"}"#, 0, stack.clock.now(), 10).unwrap();
    assert!(events.is_empty());
    // And the healthy traffic still flowed.
    assert!(!stack
        .pane
        .logs(r#"{data_type="syslog"}"#, 0, stack.clock.now(), 10)
        .unwrap()
        .is_empty());
}

#[test]
fn out_of_order_entries_are_rejected_per_stream() {
    let loki = LokiCluster::new(2, Limits::default(), SimClock::starting_at(0));
    let l = labels!("app" => "skewed");
    loki.push(l.clone(), 1_000, "newer").unwrap();
    let err = loki.push(l.clone(), 500, "older").unwrap_err();
    assert!(matches!(err, IngestError::Append(_)));
    assert_eq!(loki.stats().rejected, 1);
    // Forward progress still fine.
    loki.push(l, 2_000, "newest").unwrap();
    assert_eq!(loki.stats().entries, 2);
}

#[test]
fn oversized_lines_rejected() {
    let limits = Limits { max_line_size: 128, ..Default::default() };
    let loki = LokiCluster::new(1, limits, SimClock::starting_at(0));
    let err = loki.push(labels!("a" => "1"), 1, "x".repeat(1_000)).unwrap_err();
    assert!(matches!(err, IngestError::Append(_)));
}

#[test]
fn label_explosion_capped_per_stream() {
    let limits = Limits { max_label_names_per_series: 5, ..Default::default() };
    let loki = LokiCluster::new(1, limits, SimClock::starting_at(0));
    let mut big = labels!("a" => "1");
    for i in 0..10 {
        big.insert(format!("l{i}"), "v");
    }
    assert!(matches!(loki.push(big, 1, "x"), Err(IngestError::TooManyLabels(11))));
}

#[test]
fn regex_bomb_in_query_fails_safe() {
    let loki = LokiCluster::new(1, Limits::default(), SimClock::starting_at(0));
    let line = format!("{}b", "a".repeat(60));
    loki.push(labels!("app" => "x"), 1, line).unwrap();
    // Pathological backtracking pattern: the engine's step budget turns it
    // into a non-match instead of a hang.
    let out = loki.query_logs(r#"{app="x"} |~ "(a+)+$""#, 0, 10, 10).unwrap();
    assert!(out.is_empty());
}

#[test]
fn scrape_failure_surfaces_as_up_zero_alert() {
    use shasta_mon::model::{AlertRule, AlertStatus, LabelSet, RuleEngine};
    use shasta_mon::tsdb::{Tsdb, TsdbConfig, VmAgent};
    let db = Tsdb::new(TsdbConfig::default());
    let mut agent = VmAgent::new(db.clone());
    agent.add_page_target("node-exporter", "dead-host", Box::new(|_, _| Err("refused".into())));
    let mut vmalert = RuleEngine::new(db);
    vmalert
        .add_rule(AlertRule {
            name: "TargetDown".into(),
            expr: "max by (instance) (up) < 1".into(),
            for_ns: 0,
            labels: LabelSet::from_pairs([("severity", "critical")]),
            annotations: vec![("summary".into(), "{{.instance}} unreachable".into())],
        })
        .unwrap();
    agent.scrape_once(MINUTE);
    let notifs = vmalert.evaluate(MINUTE);
    assert_eq!(notifs.len(), 1);
    assert_eq!(notifs[0].status, AlertStatus::Firing);
    assert_eq!(notifs[0].labels.get("instance"), Some("dead-host"));
}

#[test]
fn query_against_empty_store_is_clean() {
    let loki = LokiCluster::new(4, Limits::default(), SimClock::starting_at(0));
    assert!(loki.query_logs(r#"{any="thing"}"#, 0, i64::MAX / 2, 10).unwrap().is_empty());
    assert!(loki.query_instant(r#"sum(count_over_time({a="b"}[1h]))"#, MINUTE).unwrap().is_empty());
}

#[test]
fn alert_storm_does_not_wedge_the_stack() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    stack.step(MINUTE, 0, 0);
    // Break everything at once.
    let topo = stack.machine.topology().clone();
    for sw in topo.switches() {
        stack.take_switch_offline(*sw, shasta_mon::shasta::SwitchState::Offline);
    }
    for ch in topo.chassis().iter().take(4) {
        stack.inject_leak(*ch, 'A', shasta_mon::shasta::LeakZone::Front);
    }
    for _ in 0..8 {
        stack.step(MINUTE, 20, 10);
    }
    // The pipeline kept flowing and the storm was grouped, not dropped.
    let (received, notified, _) = stack.alertmanager_stats();
    assert!(received > 0);
    assert!(notified > 0);
    assert!(notified < received, "grouping must compress the storm");
    let (_, errors, _) = stack.bridge_stats();
    assert_eq!(errors, 0);
}
