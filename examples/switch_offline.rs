//! Case study B (§IV-B): switch offline detection and alerting —
//! Figures 7, 8 and 9, regenerated live.
//!
//! ```sh
//! cargo run --example switch_offline
//! ```

use shasta_mon::core::{MonitoringStack, StackConfig};
use shasta_mon::model::{format_iso8601, AlertRule, NANOS_PER_SEC};
use shasta_mon::shasta::SwitchState;

fn main() {
    let minute = 60 * NANOS_PER_SEC;
    let mut stack = MonitoringStack::new(StackConfig::default());

    // Warm up.
    for _ in 0..10 {
        stack.step(minute, 5, 3);
    }

    // A Rosetta switch loses contact with the fabric manager.
    let switch = stack.machine.topology().switches()[7];
    let blast_radius = stack.machine.topology().nodes_on_switch(&switch);
    println!(
        "switch {switch} serves {} compute nodes: {:?}\n",
        blast_radius.len(),
        blast_radius.iter().map(|x| x.to_string()).collect::<Vec<_>>()
    );
    stack.take_switch_offline(switch, SwitchState::Unknown);

    // The fabric-manager monitor polls, finds the change, and pushes the
    // event line to Loki; the Ruler fires after the 1-minute hold.
    for _ in 0..6 {
        stack.step(minute, 5, 3);
    }

    // ── Figure 7: the switch event in Grafana ──────────────────────────
    println!("── Figure 7: sample switch event ──");
    let logs = stack
        .pane
        .logs(r#"{app="fabric_manager_monitor"} |= "fm_switch_offline""#, 0, stack.clock.now(), 10)
        .expect("query parses");
    for r in &logs {
        println!("  {}  {}  {}", format_iso8601(r.entry.ts), r.labels, r.entry.line);
    }

    // ── The pattern stage extraction the paper shows ───────────────────
    println!("\n── pattern extraction ──");
    let extracted = stack
        .pane
        .logs(
            r#"{app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>""#,
            0,
            stack.clock.now(),
            10,
        )
        .expect("query parses");
    for r in &extracted {
        println!(
            "  severity={} problem={} xname={} state={}",
            r.labels.get("severity").unwrap_or("?"),
            r.labels.get("problem").unwrap_or("?"),
            r.labels.get("xname").unwrap_or("?"),
            r.labels.get("state").unwrap_or("?"),
        );
    }

    // ── Figure 8: the alerting rule ────────────────────────────────────
    let rule = AlertRule::paper_switch_rule();
    println!("\n── Figure 8: alerting rule querying offline switch events ──");
    println!("  alert: {}", rule.name);
    println!("  expr: {}", rule.expr);
    println!("  for: 1m");
    println!("  labels: {}", rule.labels);

    // ── Figure 9: the Slack notification ───────────────────────────────
    println!("\n── Figure 9: offline switch Slack notification by AlertManager ──");
    for msg in stack.slack.messages() {
        println!("[{}]\n{}", msg.channel, msg.text);
    }

    // Recovery: bring the switch back; the alert resolves.
    println!("── recovery ──");
    stack.take_switch_offline(switch, SwitchState::Online);
    for _ in 0..10 {
        stack.step(minute, 5, 3);
    }
    let resolved = stack.slack.messages().iter().filter(|m| m.text.contains("RESOLVED")).count();
    println!("resolved notifications posted: {resolved}");
}
