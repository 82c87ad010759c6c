//! Experiments E5, E6, E7 — Figures 7, 8 and 9: the switch-offline case
//! study. The fabric-manager monitor's event line, the pattern-stage
//! extraction, the alerting rule's evaluation, and the Slack
//! notification.

use shasta_mon::core::{MonitoringStack, StackConfig};
use shasta_mon::logql::{parse_log_query, Pipeline};
use shasta_mon::model::{labels, AlertRule, NANOS_PER_SEC};
use shasta_mon::shasta::SwitchState;

const MINUTE: i64 = 60 * NANOS_PER_SEC;

/// Figure 7's exact event line.
const FIG7_LINE: &str = "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN";

#[test]
fn fig7_event_line_format_matches() {
    use shasta_mon::model::Severity;
    use shasta_mon::shasta::fabric::SwitchStateChange;
    let change = SwitchStateChange {
        xname: "x1002c1r7b0".parse().unwrap(),
        from: SwitchState::Online,
        to: SwitchState::Unknown,
        severity: Severity::Critical,
    };
    assert_eq!(change.to_event_line(), FIG7_LINE);
}

#[test]
fn fig7_pattern_extraction() {
    // The paper's pattern:
    // | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>"
    let q = parse_log_query(
        r#"{app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>""#,
    )
    .unwrap();
    let pipeline = Pipeline::new(&q.stages);
    let stream = labels!("app" => "fabric_manager_monitor", "cluster" => "perlmutter");
    let e = pipeline.process(FIG7_LINE, &stream).unwrap();
    assert_eq!(e.labels.get("severity"), Some("critical"));
    assert_eq!(e.labels.get("problem"), Some("fm_switch_offline"));
    assert_eq!(e.labels.get("xname"), Some("x1002c1r7b0"));
    assert_eq!(e.labels.get("state"), Some("UNKNOWN"));
    // The original two stream labels survive (Fig 7 shows app + cluster).
    assert_eq!(e.labels.get("app"), Some("fabric_manager_monitor"));
    assert_eq!(e.labels.get("cluster"), Some("perlmutter"));
}

#[test]
fn fig8_rule_fires_through_monitoring_stack() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    stack.step(MINUTE, 0, 0);
    let switch = stack.machine.topology().switches()[5];
    stack.take_switch_offline(switch, SwitchState::Unknown);
    // Monitor polls on the next step, Ruler holds 1 minute, group_wait
    // 10 s — three minutes covers it.
    let mut firing = false;
    for _ in 0..4 {
        let notifs = stack.step(MINUTE, 0, 0);
        firing |=
            notifs.iter().any(|n| n.alerts.iter().any(|a| a.name() == "PerlmutterSwitchOffline"));
    }
    assert!(firing, "switch-offline rule must fire");
}

#[test]
fn fig8_rule_shape_matches_paper() {
    let rule = AlertRule::paper_switch_rule();
    // The Figure 8 rule searches the offline-switch events and thresholds
    // on > 0 with a one-minute hold.
    assert!(rule.expr.contains(r#"{app="fabric_manager_monitor"}"#));
    assert!(rule.expr.contains(r#"|= "fm_switch_offline""#));
    assert!(rule.expr.contains("count_over_time"));
    assert!(rule.expr.ends_with("> 0"));
    assert_eq!(rule.for_ns, MINUTE);
}

#[test]
fn fig9_slack_notification_content() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    stack.step(MINUTE, 0, 0);
    let switch = stack.machine.topology().switches()[0];
    stack.take_switch_offline(switch, SwitchState::Unknown);
    for _ in 0..5 {
        stack.step(MINUTE, 0, 0);
    }
    let msgs = stack.slack.messages();
    let msg = msgs
        .iter()
        .find(|m| m.text.contains("PerlmutterSwitchOffline"))
        .expect("switch notification must reach Slack");
    assert!(msg.text.contains("[FIRING]"));
    assert!(msg.text.contains(&switch.to_string()));
    assert!(msg.text.contains("state:* UNKNOWN") || msg.text.contains("UNKNOWN"));
    assert!(msg.text.contains("fm_switch_offline"));
}

#[test]
fn recovered_switch_resolves() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    stack.step(MINUTE, 0, 0);
    let switch = stack.machine.topology().switches()[3];
    stack.take_switch_offline(switch, SwitchState::Offline);
    for _ in 0..4 {
        stack.step(MINUTE, 0, 0);
    }
    stack.take_switch_offline(switch, SwitchState::Online);
    for _ in 0..8 {
        stack.step(MINUTE, 0, 0);
    }
    assert!(
        stack.slack.messages().iter().any(|m| m.text.contains("[RESOLVED]")),
        "recovery must produce a resolved notification"
    );
}
