//! Introspection drill: the monitor turned on itself.
//!
//! ```sh
//! cargo run --example introspection_drill
//! ```
//!
//! One deterministic run demonstrates the whole deep-introspection
//! surface:
//!
//! 1. a heavy log query lands in the self-ingested slow-query log — a
//!    JSON line in `{job="omni-self", component="slowlog"}` carrying its
//!    statistics and trace id, queryable with LogQL like any stream;
//! 2. that trace id resolves to a span tree: the `query` root with its
//!    per-split `split_execute` children (a lone query never queues at
//!    the fair scheduler, so it has no `queue_wait` child);
//! 3. the same trace rides the `omni_query_latency_seconds` histogram as
//!    an exemplar on the scraped `omni-self` page;
//! 4. a forced latency regression burns the `query-latency` SLO's error
//!    budget fast enough that the `SloFastBurn` burn-rate meta-alert
//!    fires through vmalert → Alertmanager → Slack/ServiceNow;
//! 5. tail sampling keeps the slow traces, samples the fast ones, and
//!    bounds retention under a flood of queries.
//!
//! Everything derives from the stack seed and the virtual clock, so two
//! runs print byte-identical output.

use shasta_mon::core::{MonitoringStack, StackConfig};
use shasta_mon::exporters::{Exporter, SelfExporter};
use shasta_mon::json::{parse, Json};
use shasta_mon::model::NANOS_PER_SEC;
use shasta_mon::obs::{format_trace_id, parse_trace_id, TailSampling};

fn main() {
    let minute = 60 * NANOS_PER_SEC;
    println!("Introspection drill: slow queries, span trees, exemplars, SLO burn\n");

    let config = StackConfig {
        // 0.2ms of modeled work marks a query slow — the warm-up load
        // makes the full-history query cross it while the probe queries
        // of part 5 stay under it.
        slow_query_threshold_ns: 200_000,
        // Aggressive tail sampling: keep slow traces, one in eight of
        // the fast ones, at most 64 overall.
        trace_sampling: TailSampling {
            latency_threshold_ns: 200_000,
            keep_one_in: 8,
            max_retained: 64,
        },
        ..StackConfig::default()
    };
    let mut stack = MonitoringStack::new(config);

    // --- Part 1: a slow query self-ingests ----------------------------
    // Three hours of background load so the history query has chunks,
    // blocks and multiple one-hour splits to chew through.
    for _ in 0..36 {
        stack.step(5 * minute, 30, 10);
    }
    let history = stack
        .pane
        .logs(r#"{data_type="syslog"}"#, 0, stack.clock.now(), 10_000)
        .expect("history query");
    println!("heavy query returned {} entries", history.len());
    assert!(history.len() > 1_000, "warm-up must produce a heavy scan");
    // The next step drains the frontend's query records into the
    // introspection surfaces.
    stack.step(minute, 5, 5);
    let slowlog = stack
        .pane
        .logs(r#"{job="omni-self", component="slowlog"}"#, 0, stack.clock.now(), 100)
        .expect("slowlog query");
    assert!(!slowlog.is_empty(), "the heavy query must land in the slow-query log");
    let line = &slowlog[0].entry.line;
    println!("slow-query log line:\n  {line}\n");
    let parsed = parse(line).expect("slow-query line is JSON");
    let latency_ms = parsed.pointer("/latency_ms").and_then(Json::as_f64).expect("latency_ms");
    assert!(latency_ms >= 0.2, "slow means over the 0.2ms threshold, got {latency_ms}");
    let trace_id = parsed
        .pointer("/trace_id")
        .and_then(Json::as_str)
        .and_then(parse_trace_id)
        .expect("slow-query line carries a trace id");

    // --- Part 2: the trace id resolves to a span tree -----------------
    let timeline = stack.traces().render_timeline(trace_id);
    println!("span tree for trace {}:\n{timeline}", format_trace_id(trace_id));
    for stage in ["query", "split_execute"] {
        assert!(timeline.contains(stage), "stage {stage} missing:\n{timeline}");
    }

    // --- Part 3: the exemplar links the same trace --------------------
    let page = SelfExporter::new(stack.registry().clone()).render();
    let exemplar = page
        .lines()
        .find(|l| {
            l.starts_with("# EXEMPLAR omni_query_latency_seconds_bucket")
                && l.contains(&format_trace_id(trace_id))
        })
        .expect("latency histogram must carry the slow query's trace as an exemplar");
    println!("exemplar on the omni-self page:\n  {exemplar}\n");

    // --- Part 4: a latency regression fires the burn-rate meta-alert --
    // Every step runs a full-history query with a fresh line filter, so
    // the results cache cannot absorb it and every run re-scans three
    // hours of chunks. Each is slow: the query-latency SLO sees only bad
    // events and its fast-window burn rate pins at 1/(1-0.95) = 20x —
    // over the 14x threshold of SloFastBurn.
    let mut fired_step = None;
    for i in 0..15 {
        let now = stack.clock.now();
        let regression = format!(r#"{{data_type="syslog"}} != "cache-buster-{i}""#);
        let _ = stack.pane.logs(&regression, 0, now, 10_000);
        let notifs = stack.step(minute, 5, 5);
        if notifs.iter().flat_map(|n| &n.alerts).any(|a| a.name() == "SloFastBurn") {
            fired_step = Some(i);
            break;
        }
    }
    let fired_step = fired_step.expect("SloFastBurn must fire within 15 minutes of regression");
    println!("SloFastBurn fired {} minutes into the regression", fired_step + 1);
    let snap = stack
        .slos()
        .snapshot(stack.clock.now())
        .into_iter()
        .find(|s| s.name == "query-latency")
        .expect("query-latency SLO registered");
    println!(
        "query-latency SLO: fast burn {:.1}x, slow burn {:.1}x, budget {:.0}% left",
        snap.fast_burn,
        snap.slow_burn,
        snap.budget_remaining * 100.0
    );
    assert!(snap.fast_burn > 14.0, "all-bad fast window must burn over threshold: {snap:?}");
    let slack = stack.slack.messages();
    assert!(
        slack.iter().any(|m| m.text.contains("SloFastBurn")),
        "the meta-alert must reach Slack: {slack:?}"
    );
    assert!(
        !stack.servicenow.incidents().is_empty(),
        "critical burn alerts open a ServiceNow incident"
    );

    // --- Part 5: tail sampling bounds retention under a query flood ---
    for _ in 0..150 {
        let now = stack.clock.now();
        // Cheap probes: a one-minute tail window stays under the slow
        // threshold, so these traces face the one-in-eight sampler.
        let _ = stack.pane.logs(r#"{data_type="syslog"}"#, now - minute, now, 100);
    }
    stack.step(minute, 5, 5);
    let stats = stack.traces().sample_stats();
    let retained = stack.traces().retained();
    println!(
        "\ntail sampling after the flood: {retained} retained \
         (kept {} slow, {} sampled; dropped {}, evicted {})",
        stats.kept_slow, stats.kept_sampled, stats.dropped, stats.evicted
    );
    assert!(retained <= 64, "max_retained must bound the store, got {retained}");
    assert!(stats.kept_slow > 0, "slow traces are always kept");
    assert!(stats.dropped > 0, "fast traces face the sampler");

    println!("\nintrospection drill: all assertions hold");
}
