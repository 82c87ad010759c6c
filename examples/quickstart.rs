//! Quickstart: bring up the whole Figure-1 pipeline, let it run for a few
//! simulated minutes, and print the single-pane-of-glass dashboard.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use shasta_mon::core::{Dashboard, MonitoringStack, PaneQuery, Panel, StackConfig};
use shasta_mon::model::NANOS_PER_SEC;

fn main() {
    let minute = 60 * NANOS_PER_SEC;
    println!("Bringing up the Perlmutter monitoring stack (simulated)...\n");
    let mut stack = MonitoringStack::new(StackConfig::default());

    // Run ten quiet minutes of production traffic.
    for _ in 0..10 {
        stack.step(minute, 50, 25);
    }

    let (log_records, log_errors, metric_records) = stack.bridge_stats();
    let loki_stats = stack.omni.loki().stats();
    let (omni_msgs, omni_bytes) = stack.omni.ingest_totals();
    println!("pipeline state after 10 simulated minutes:");
    println!("  bridge log records pushed ... {log_records}");
    println!("  bridge push errors .......... {log_errors}");
    println!("  bridge metric records ....... {metric_records}");
    println!("  OMNI messages metered ....... {omni_msgs} ({omni_bytes} bytes)");
    println!("  loki entries accepted ....... {}", loki_stats.entries);
    println!("  loki streams ................ {}", stack.omni.loki().stream_count());
    println!("  loki chunks ................. {}", stack.omni.loki().chunk_count());
    println!("  tsdb series ................. {}", stack.omni.tsdb().series_count());

    // The paper's single pane of glass: logs and metrics on one screen.
    let dashboard = Dashboard {
        title: "Perlmutter Health — single pane of glass".into(),
        panels: vec![
            Panel {
                title: "Syslog (latest)".into(),
                query: PaneQuery::Logs(r#"{data_type="syslog"} |= "slurmd""#.into()),
            },
            Panel {
                title: "Redfish events over time".into(),
                query: PaneQuery::LogMetric(
                    r#"sum(count_over_time({data_type="redfish_event"}[60m])) by (Context)"#.into(),
                ),
            },
            Panel {
                title: "Hottest nodes (PromQL over the TSDB)".into(),
                query: PaneQuery::Metric("max by (xname) (shasta_temperature_celsius) > 50".into()),
            },
            Panel {
                title: "Kafka ingest per topic".into(),
                query: PaneQuery::Metric("max by (topic) (kafka_topic_messages_in_total)".into()),
            },
        ],
    };
    let now = stack.clock.now();
    let text = stack
        .pane
        .render_dashboard(&dashboard, 0, now, minute)
        .expect("dashboard queries are valid");
    println!("\n{text}");

    // Kibana-style discovery over the same traffic, answered by Loki.
    let hits = stack.omni.discover("lockup", 0, now).expect("a term is a valid line filter");
    println!(
        "discovery: {} lines mention \"lockup\" (term search as a Loki line filter)",
        hits.len()
    );

    println!(
        "alerts dispatched: {} (a healthy machine stays quiet)",
        stack.notifications_dispatched()
    );
}
