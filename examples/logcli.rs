//! LogCLI — "The queries can be executed and visualized using Grafana or
//! a command line interface, LogCLI" (§III-A).
//!
//! A self-contained command-line query tool: boots a monitoring stack,
//! replays twenty minutes of traffic plus both case-study faults, then
//! runs your LogQL query against the store.
//!
//! ```sh
//! cargo run --example logcli -- '{app="fabric_manager_monitor"} |= "fm_switch_offline"'
//! cargo run --example logcli -- 'sum(count_over_time({data_type="syslog"}[10m])) by (hostname)'
//! cargo run --example logcli -- --labels data_type
//! ```

use shasta_mon::core::{MonitoringStack, StackConfig};
use shasta_mon::logql::instant_vector_to_string;
use shasta_mon::loki::{Direction, QueryRequest, QueryShape};
use shasta_mon::model::{format_iso8601, NANOS_PER_SEC};
use shasta_mon::shasta::{LeakZone, SwitchState};

const MINUTE: i64 = 60 * NANOS_PER_SEC;

fn usage() -> ! {
    eprintln!("usage: logcli <logql-query>");
    eprintln!("       logcli --labels <label-name>");
    eprintln!();
    eprintln!("examples:");
    eprintln!(r#"  logcli '{{data_type="redfish_event"}} |= "CabinetLeakDetected""#);
    eprintln!(r#"  logcli 'sum(count_over_time({{data_type="syslog"}}[10m])) by (hostname)'"#);
    eprintln!("  logcli --labels data_type");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    // Boot and populate a demo store.
    eprintln!("(booting demo stack: 20 simulated minutes + both case-study faults)");
    let mut stack = MonitoringStack::new(StackConfig::default());
    for _ in 0..10 {
        stack.step(MINUTE, 20, 10);
    }
    let chassis = stack.machine.topology().chassis()[0];
    stack.inject_leak(chassis, 'A', LeakZone::Front);
    let switch = stack.machine.topology().switches()[0];
    stack.take_switch_offline(switch, SwitchState::Unknown);
    for _ in 0..10 {
        stack.step(MINUTE, 20, 10);
    }
    let now = stack.clock.now();

    if args[0] == "--labels" {
        let Some(name) = args.get(1) else { usage() };
        for v in stack.omni.loki().label_values(name) {
            println!("{v}");
        }
        return;
    }

    let query = args.join(" ");
    // Log query or metric query? Try logs first, fall back to metrics.
    let shape = QueryShape::Logs { start: 0, end: now, limit: 50, direction: Direction::default() };
    match stack.omni.loki().query(QueryRequest { tenant: None, query: &query, shape }) {
        Ok(resp) => {
            let (records, stats) = (resp.data.into_logs().unwrap_or_default(), resp.report.stats);
            eprintln!(
                "{} result(s) — scanned {} entries / {} bytes across {} streams",
                records.len(),
                stats.entries_scanned,
                stats.bytes_scanned,
                stats.streams_matched
            );
            for r in records {
                println!("{} {} {}", format_iso8601(r.entry.ts), r.labels, r.entry.line);
            }
        }
        Err(_) => match stack.pane.log_metric_instant(&query, now) {
            Ok(vector) => {
                eprintln!("instant vector at {}:", format_iso8601(now));
                print!("{}", instant_vector_to_string(&vector));
            }
            Err(e) => {
                eprintln!("query error: {e}");
                std::process::exit(1);
            }
        },
    }
}
