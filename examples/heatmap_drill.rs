//! Heatmap drill: fleet-wide event density as a component × time matrix.
//!
//! ```sh
//! cargo run --example heatmap_drill
//! ```
//!
//! One deterministic run demonstrates the aggregation-pushdown surface
//! end to end:
//!
//! 1. hours of Redfish and fabric traffic accumulate across the machine;
//! 2. the provisioned component-heatmap dashboard renders — Redfish
//!    event density rolled up to cabinets, switch-offline rate rolled up
//!    to chassis, one ASCII row per hardware ancestor;
//! 3. every panel query is a decomposable aggregation, so the refresh
//!    moves per-shard partial aggregates through the query frontend
//!    instead of shipping entries — the frontend's pushdown counters
//!    prove it;
//! 4. one render step later the window has slid by one step, and the
//!    refresh executes only that step: every older split is sliced from
//!    the step extents the first refresh cached, and the newest scans no
//!    more entries than the new step's own lookback.
//!
//! Everything derives from the stack seed and the virtual clock, so two
//! runs print byte-identical output.

use shasta_mon::core::{Dashboard, HeatmapSpec, MonitoringStack, StackConfig};
use shasta_mon::loki::{QueryRequest, QueryShape};
use shasta_mon::model::NANOS_PER_SEC;
use shasta_mon::shasta::{LeakZone, SwitchState};
use shasta_mon::xname::{ComponentKind, XName};

fn main() {
    let minute = 60 * NANOS_PER_SEC;
    println!("Heatmap drill: component × time rollups over pushed-down aggregations\n");

    let mut stack = MonitoringStack::new(StackConfig::default());

    // --- Part 1: hours of fleet traffic -------------------------------
    // Redfish leak events (carrying the reporting BMC's xname in
    // `Context`) fire from chassis across the machine at different
    // times, and two switches in different chassis drop off the fabric —
    // so both rollup panels have structure in both dimensions.
    let topology = stack.machine.topology();
    let chassis: Vec<XName> = topology.chassis().to_vec();
    let switches: Vec<XName> = topology.switches().to_vec();
    for _ in 0..12 {
        stack.step(5 * minute, 20, 8);
    }
    for (i, c) in chassis.iter().enumerate() {
        stack.inject_leak(*c, 'A', LeakZone::Front);
        if i % 2 == 0 {
            stack.inject_leak(*c, 'B', LeakZone::Rear);
        }
        stack.step(5 * minute, 20, 8);
    }
    stack.take_switch_offline(switches[1], SwitchState::Unknown);
    for _ in 0..6 {
        stack.step(5 * minute, 20, 8);
    }
    stack.take_switch_offline(switches[switches.len() - 1], SwitchState::Offline);
    for _ in 0..6 {
        stack.step(5 * minute, 20, 8);
    }
    let end = stack.clock.now();

    // --- Part 2: the provisioned dashboard ----------------------------
    let dashboard = Dashboard::component_heatmap();
    let rendered = stack
        .pane
        .render_dashboard(&dashboard, 0, end, 15 * minute)
        .expect("provisioned dashboard renders");
    println!("{rendered}");

    // The cabinet rollup really merged node-level Contexts into cabinet
    // rows: every row name parses as a cabinet xname.
    let spec = HeatmapSpec {
        expr: r#"sum by (Context) (count_over_time({data_type="redfish_event"}[15m]))"#.into(),
        label: "Context".into(),
        rollup: ComponentKind::Cabinet,
    };
    let heatmap = stack.pane.heatmap(&spec, 0, end, 15 * minute).expect("heatmap evaluates");
    assert!(!heatmap.rows.is_empty(), "redfish traffic must produce cabinet rows");
    for (name, _) in &heatmap.rows {
        let x: XName = name.parse().expect("rolled-up row names are xnames");
        assert_eq!(x.kind(), ComponentKind::Cabinet, "rollup must stop at the cabinet: {name}");
    }
    println!(
        "cabinet rollup: {} rows × {} buckets, peak cell {:.0} events",
        heatmap.rows.len(),
        heatmap.buckets.len(),
        heatmap.max_value()
    );
    assert!(heatmap.max_value() > 0.0, "the heatmap must light up");

    // --- Part 3: the refresh moved partials, not entries --------------
    let stats = stack.omni.loki().frontend().stats();
    println!(
        "\nfrontend pushdown: {} queries pushed down, \
         {} partials merged, {} entries never shipped",
        stats.pushdown_queries, stats.pushdown_partials, stats.pushdown_entries_saved,
    );
    assert!(stats.pushdown_queries > 0, "heatmap panels are decomposable — they must push down");
    assert!(stats.pushdown_partials > 0, "shards must contribute partial aggregates");
    assert!(stats.pushdown_entries_saved > 0, "pushdown must save shipping the matched entries");

    // --- Part 4: one render step later, only the new step executes ----
    // Fresh faults, so the new step has events of its own to scan.
    let step = 15 * minute;
    stack.inject_leak(chassis[0], 'A', LeakZone::Rear);
    stack.take_switch_offline(switches[0], SwitchState::Offline);
    for _ in 0..3 {
        stack.step(5 * minute, 20, 8);
    }
    let (start, later) = (step, stack.clock.now());
    let newest = start + (later - start) / step * step;
    let frontend = stack.omni.loki().frontend();
    frontend.take_query_records();
    stack.pane.render_dashboard(&dashboard, start, later, step).expect("the refresh renders");
    let records = frontend.take_query_records();
    assert_eq!(records.len(), dashboard.panels.len(), "one range query per panel");
    let (mut splits, mut hits, mut fresh, mut lookback) = (0, 0, 0, 0);
    for record in &records {
        let (_, older) = record.report.splits.split_last().expect("a range query plans splits");
        assert!(older.iter().all(|sp| sp.cached), "{}: an older split executed", record.query);
        // The newest step alone, evaluated as an instant: its lookback.
        let shape = QueryShape::Instant { at: newest };
        let instant =
            stack.omni.loki().query(QueryRequest { tenant: None, query: &record.query, shape });
        let step_scan = instant.expect("the panel query evaluates").report.stats.entries_scanned;
        let scanned: usize = record
            .report
            .splits
            .iter()
            .filter(|sp| !sp.cached)
            .map(|sp| sp.stats.entries_scanned)
            .sum();
        assert!(
            scanned <= step_scan,
            "{}: scanned {scanned} > the new step's {step_scan}",
            record.query
        );
        splits += record.report.splits.len();
        hits += record.report.cache_hits;
        fresh += scanned;
        lookback += step_scan;
    }
    println!(
        "sliding refresh: {hits} of {splits} splits from cache, \
         {fresh} entries scanned for the new step (its lookback holds {lookback})"
    );

    println!("\nheatmap drill: all assertions hold");
}
