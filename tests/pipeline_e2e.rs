//! Whole-pipeline integration: Figure 1 wired end to end, both case
//! studies concurrently, plus data-path integrity checks.

use shasta_mon::core::{MonitoringStack, StackConfig};
use shasta_mon::model::NANOS_PER_SEC;
use shasta_mon::shasta::{LeakZone, SwitchState};

const MINUTE: i64 = 60 * NANOS_PER_SEC;

#[test]
fn both_case_studies_at_once() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    stack.step(MINUTE, 10, 5);

    let chassis = stack.machine.topology().chassis()[1];
    let switch = stack.machine.topology().switches()[2];
    stack.inject_leak(chassis, 'A', LeakZone::Front);
    stack.take_switch_offline(switch, SwitchState::Unknown);

    for _ in 0..6 {
        stack.step(MINUTE, 10, 5);
    }

    let texts: Vec<String> = stack.slack.messages().iter().map(|m| m.text.clone()).collect();
    assert!(texts.iter().any(|t| t.contains("PerlmutterCabinetLeak")), "{texts:?}");
    assert!(texts.iter().any(|t| t.contains("PerlmutterSwitchOffline")), "{texts:?}");
    // Both criticals opened incidents.
    assert!(stack.servicenow.incidents().len() >= 2);
}

#[test]
fn logs_and_metrics_flow_without_loss() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    let mut syslog_in = 0u64;
    for _ in 0..10 {
        stack.step(MINUTE, 25, 10);
        syslog_in += 25;
    }
    // Everything the generators produced arrived in Loki.
    let syslog_stored =
        stack.pane.logs(r#"{data_type="syslog"}"#, 0, stack.clock.now(), usize::MAX).unwrap().len()
            as u64;
    assert_eq!(syslog_stored, syslog_in);
    let container_stored = stack
        .pane
        .logs(r#"{data_type="container_log"}"#, 0, stack.clock.now(), usize::MAX)
        .unwrap()
        .len() as u64;
    assert_eq!(container_stored, 100);
    let (_, errors, _) = stack.bridge_stats();
    assert_eq!(errors, 0);
    // Metric side: one temperature series per node plus supply/return
    // loops per CDU.
    let v =
        stack.pane.metric_instant("count(shasta_temperature_celsius)", stack.clock.now()).unwrap();
    let nodes = stack.machine.topology().nodes().len() as f64;
    let cdus = stack.machine.topology().cdus().len() as f64;
    assert_eq!(v[0].1, nodes + 2.0 * cdus);
    // CDU flow telemetry flows through the new topic.
    let flow = stack.pane.metric_instant("count(shasta_flow_lpm)", stack.clock.now()).unwrap();
    assert_eq!(flow[0].1, cdus);
}

#[test]
fn grafana_style_label_browsing() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    for _ in 0..3 {
        stack.step(MINUTE, 10, 10);
    }
    let data_types = stack.omni.loki().label_values("data_type");
    assert!(data_types.contains(&"syslog".to_string()));
    assert!(data_types.contains(&"container_log".to_string()));
}

#[test]
fn vmagent_up_metric_covers_all_exporters() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    stack.step(MINUTE, 0, 0);
    let up = stack.pane.metric_instant("up", stack.clock.now()).unwrap();
    // node, kafka, blackbox, aruba, gpfs exporters + the self-scrape job.
    assert_eq!(up.len(), 6);
    assert!(up.iter().all(|(_, v)| *v == 1.0));
}

#[test]
fn deterministic_replay() {
    // The same seed produces the same stored data and the same alerts.
    let run = || {
        let mut stack = MonitoringStack::new(StackConfig::default());
        for _ in 0..5 {
            stack.step(MINUTE, 10, 5);
        }
        let chassis = stack.machine.topology().chassis()[0];
        stack.inject_leak(chassis, 'A', LeakZone::Front);
        for _ in 0..5 {
            stack.step(MINUTE, 10, 5);
        }
        (
            stack.omni.loki().stats().entries,
            stack.slack.messages().len(),
            stack.servicenow.incidents().len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn gpfs_failure_reaches_slack() {
    // The paper's §V future work, implemented: GPFS health monitoring
    // through the same Loki path.
    let mut stack = MonitoringStack::new(StackConfig::default());
    stack.step(MINUTE, 0, 0);
    stack.fail_gpfs_server("nsd03", shasta_mon::shasta::GpfsState::Failed);
    for _ in 0..6 {
        stack.step(MINUTE, 0, 0);
    }
    // The event line is in Loki...
    let logs = stack
        .pane
        .logs(r#"{app="gpfs_monitor"} |= "gpfs_server_state""#, 0, stack.clock.now(), 10)
        .unwrap();
    assert!(!logs.is_empty());
    assert!(logs[0].entry.line.contains("server:nsd03"));
    // ...the Ruler rule fired into Slack...
    assert!(
        stack.slack.messages().iter().any(|m| m.text.contains("GpfsServerUnhealthy")),
        "slack: {:?}",
        stack.slack.messages()
    );
    // ...and the long-waiter metric rule from vmalert follows.
    let waiters = stack
        .pane
        .metric_instant(
            r#"max by (server) (gpfs_longest_waiter_seconds{server="nsd03"})"#,
            stack.clock.now(),
        )
        .unwrap();
    assert!(waiters[0].1 > 300.0, "waiters = {:?}", waiters);
}

#[test]
fn kibana_style_discovery_over_bridge_traffic() {
    // Term discovery works over the traffic the bridges deliver, answered
    // by the store that holds it: Loki, no full-text tier beside it.
    let mut stack = MonitoringStack::new(StackConfig::default());
    for _ in 0..5 {
        stack.step(MINUTE, 20, 10);
    }
    let (messages, bytes) = stack.omni.ingest_totals();
    assert!(messages > 0, "bridge traffic must be metered through OMNI");
    assert!(bytes > 0);
    let now = stack.clock.now();
    let hits = stack.omni.discover("slurmd", 0, now).unwrap();
    assert!(!hits.is_empty(), "syslog terms must be discoverable");
    let confirmed = stack
        .omni
        .loki()
        .query_logs(r#"{} |= "slurmd""#, 0, now, usize::MAX)
        .unwrap()
        .iter()
        .filter(|r| shasta_mon::baseline::tokenize(&r.entry.line).iter().any(|t| t == "slurmd"))
        .count();
    assert_eq!(hits.len(), confirmed);
}

#[test]
fn chunks_offload_to_disk_tier_during_long_runs() {
    // "Chunks are first stored in memory, and then moved to disk": after
    // a few simulated hours the stack's hourly offload pass has moved
    // sealed chunks to the object store, and history stays queryable.
    let config = StackConfig {
        limits: shasta_mon::loki::Limits {
            chunk_target_bytes: 2 * 1024, // seal quickly
            ..Default::default()
        },
        ..Default::default()
    };
    let mut stack = MonitoringStack::new(config);
    for _ in 0..36 {
        stack.step(5 * MINUTE, 50, 20); // 3 simulated hours
    }
    let store = stack.omni.loki().chunk_store();
    assert!(
        store.objects().object_count() > 0,
        "sealed chunks older than an hour must move to the disk tier"
    );
    // Early entries live only in the disk tier now, yet still answer.
    let early = stack.pane.logs(r#"{data_type="syslog"}"#, 0, 30 * MINUTE, usize::MAX).unwrap();
    assert!(!early.is_empty(), "offloaded history must stay queryable");
}

#[test]
fn telemetry_api_gateways_balanced() {
    // The bridges pull by offset (at-least-once), so gateway load shows
    // up as served requests rather than held subscriptions.
    let mut stack = MonitoringStack::new(StackConfig::default());
    stack.step(MINUTE, 10, 10);
    let loads = stack.api.gateway_loads();
    assert_eq!(loads.len(), 4);
    let total: u64 = loads.iter().map(|l| l.total_requests).sum();
    assert!(total > 0, "bridge pulls must route through the gateways");
    let max = loads.iter().map(|l| l.total_requests).max().unwrap();
    let min = loads.iter().map(|l| l.total_requests).min().unwrap();
    assert!(max - min <= 1, "least-loaded balancing keeps spread tight: {loads:?}");
}
