//! One run: R identical replicas of the real `MonitoringStack` (after one
//! discarded warm-up), optionally the staged replicas, and the metrics
//! computed from them.

use crate::alloc_count::{self, AllocStats};
use crate::digest::Digest;
use crate::pipeline::{build_real, run_replica, Outcome};
use crate::procstat;
use crate::series::{median, noise_band, percentile, positionwise_min};
use crate::spans::{durations_ns, floor_trace, self_ns_by_layer, total_ns, Recorder, Span};
use crate::staged::{group_of, Group, LayerCounts, Staged};
use crate::workloads::{Workload, WARM_REPEATS};

/// End-to-end metrics, in the order they are printed. The same set on
/// every workload; `BENCHMARK.json` holds their bounds.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("msgs_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("refresh_cold_ms_p50", "ms"),
    ("refresh_warm_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_input_byte", "ratio"),
];

/// The crates a span can land in.
pub const LAYERS: [&str; 14] = [
    "shasta",
    "redfish",
    "bus",
    "telemetry",
    "bridge",
    "loki",
    "logql",
    "tsdb",
    "exporters",
    "alertmanager",
    "servicenow",
    "pane",
    "obs",
    "stack",
];

/// Timed staged replicas in a traced run; the trace is their span-wise
/// noise floor. Where the trace is compared with the real stack, the real
/// side is the floor over as many replicas, so both are equally deep.
const TRACED_REPLICAS: usize = 3;

/// Staged replicas run only to count allocations (two, so the counts can
/// be checked to repeat).
const COUNTED_REPLICAS: usize = 2;

/// Allocation counts of the traced replicas must repeat within this.
const ALLOC_TOLERANCE: f64 = 0.001;

/// `noise_band` above this prints a warning (never a failure).
const LOUD_NOISE_BAND: f64 = 0.25;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

pub struct StagedRun {
    pub spans: Vec<Span>,
    pub counts: LayerCounts,
    pub alloc: AllocStats,
}

pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    /// The measured replicas (the warm-up is not among them).
    pub outcomes: Vec<Outcome>,
    pub violations: Vec<String>,
    /// Main-thread `(on-CPU, run-queue wait)` ns over the measured replicas.
    pub sched_ns: (u64, u64),
    /// Process CPU seconds over the measured replicas.
    pub cpu_s: f64,
    pub staged: Option<StagedRun>,
}

impl Run {
    pub fn digest(&self) -> Digest {
        self.outcomes[0].digest
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    fn column(&self, pick: impl Fn(&Outcome) -> &Vec<u64>) -> Vec<Vec<u64>> {
        self.outcomes.iter().map(|o| pick(o).clone()).collect()
    }

    /// Noise-floor series of the step positions.
    fn step_floor(&self) -> Vec<u64> {
        positionwise_min(&self.column(|o| &o.step_ns))
    }
}

/// Execute a run: warm-up, `replicas` measured replicas, and with `trace`
/// the staged replicas.
pub fn execute(workload: Workload, seed: u64, replicas: usize, trace: bool) -> Run {
    let w = &workload;
    // Warm-up: page in the binary, grow the heap, fill lazy statics.
    let (stack, warmup) = run_replica(w, seed, || build_real(w, seed));
    drop(stack);

    let sched_before = procstat::main_thread_sched_ns();
    let cpu_before = procstat::process_cpu_s();
    let mut outcomes = Vec::with_capacity(replicas);
    for _ in 0..replicas {
        let (stack, outcome) = run_replica(w, seed, || build_real(w, seed));
        drop(stack);
        outcomes.push(outcome);
    }
    let sched_after = procstat::main_thread_sched_ns();
    let cpu_s = procstat::process_cpu_s() - cpu_before;

    let mut violations = outcomes[0].violations.clone();
    for (r, o) in outcomes.iter().enumerate() {
        if o.digest != warmup.digest || o.counts != warmup.counts {
            violations.push(format!(
                "replica {r} diverged from the warm-up: digest {} vs {}, counts {:?} vs {:?}",
                o.digest.hex(),
                warmup.digest.hex(),
                o.counts,
                warmup.counts
            ));
        }
    }

    let staged = trace.then(|| execute_staged(w, seed, &warmup, &mut violations));
    Run {
        workload,
        seed,
        outcomes,
        violations,
        sched_ns: (sched_after.0 - sched_before.0, sched_after.1 - sched_before.1),
        cpu_s,
        staged,
    }
}

fn execute_staged(
    w: &Workload,
    seed: u64,
    real: &Outcome,
    violations: &mut Vec<String>,
) -> StagedRun {
    // One staged replica; `probes` off is the allocation-counting kind.
    let replica = |probes: bool, violations: &mut Vec<String>| {
        let rec = Recorder::new();
        let (staged, outcome) =
            run_replica(w, seed, || Staged::build(w, seed, rec.clone(), probes));
        violations.extend(outcome.violations.iter().map(|v| format!("staged: {v}")));
        if outcome.digest != real.digest {
            violations.push(format!(
                "staged digest {:?} differs from the real stack's {:?}",
                outcome.digest, real.digest
            ));
        }
        if probes {
            // The probes must have fed the twin exactly what the bridges pushed.
            let mut twin = Digest::default();
            if let Err(e) = twin.add_delivered_entries(staged.twin_loki(), staged.omni_now()) {
                violations.push(format!("twin digest query failed: {e:?}"));
            }
            let live = outcome.digest;
            if (twin.entries, twin.entry_hash) != (live.entries, live.entry_hash) {
                violations.push(format!(
                    "twin Loki holds {} entries (hash {:016x}), the live one {} ({:016x})",
                    twin.entries, twin.entry_hash, live.entries, live.entry_hash
                ));
            }
        }
        let counts = staged.layer_counts();
        drop(staged);
        (rec.take(), counts)
    };

    // Allocations are counted on replicas of their own: the counters cost
    // a few atomics per allocation, which the timed trace must not pay.
    let allocs: Vec<AllocStats> = (0..COUNTED_REPLICAS)
        .map(|_| {
            alloc_count::start();
            replica(false, violations);
            alloc_count::stop()
        })
        .collect();
    let spread = |pick: fn(&AllocStats) -> u64| {
        let (lo, hi) =
            allocs.iter().map(pick).fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
        (hi - lo) as f64 / lo.max(1) as f64
    };
    if spread(|a| a.allocs) > ALLOC_TOLERANCE || spread(|a| a.bytes) > ALLOC_TOLERANCE {
        violations
            .push(format!("allocation counts do not repeat across traced replicas: {allocs:?}"));
    }

    let (traces, mut counts): (Vec<_>, Vec<_>) =
        (0..TRACED_REPLICAS).map(|_| replica(true, violations)).unzip();
    let spans = floor_trace(&traces).unwrap_or_else(|e| {
        violations.push(e);
        traces.into_iter().next().unwrap_or_default()
    });
    let counts = counts.pop().expect("TRACED_REPLICAS is at least one");
    StagedRun { spans, counts, alloc: allocs[0] }
}

const NS_PER_MS: f64 = 1e6;

fn ms(ns: u64) -> f64 {
    ns as f64 / NS_PER_MS
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The eight end-to-end metrics, all from the untraced real replicas.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let counts = run.outcomes[0].counts;
    let steps = run.step_floor();
    let setup: u64 = positionwise_min(&run.column(|o| &o.setup_ns)).iter().sum();
    let cold = positionwise_min(&run.column(|o| &o.cold_ns));
    let warm = positionwise_min(&run.column(|o| &o.warm_ns));
    let step_sum: u64 = steps.iter().sum();
    let p90 = percentile(&steps, 0.90).expect("S >= 100 leaves ten positions beyond p90");
    let values = [
        setup as f64 / 1e9,
        counts.accepted_timed as f64 / (step_sum as f64 / 1e9),
        ms(median(&steps)),
        ms(p90),
        ms(median(&cold)),
        ms(median(&warm)) / WARM_REPEATS as f64,
        procstat::peak_rss_mib(),
        counts.stored_bytes as f64 / counts.input_bytes as f64,
    ];
    END_TO_END.iter().zip(values).map(|(&(name, unit), v)| metric(name, v, unit)).collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let staged = run.staged.as_ref().expect("per-layer metrics need the staged replica");
    let (spans, c) = (&staged.spans, &staged.counts);
    let w = &run.workload;
    let all_steps = (w.preload_steps + w.steps) as f64;
    let total = |name: &str| total_ns(spans, name).0 as f64;
    let count = |name: &str| total_ns(spans, name).1 as f64;
    let per_step_ms = |name: &str| total(name) / NS_PER_MS / all_steps;
    let per_unit_us = |name: &str, units: f64| ratio(total(name) / 1e3, units);
    let p50_ms = |name: &str| ms(median(&durations_ns(spans, name)));
    let p90_ms = |name: &str| ms(percentile(&durations_ns(spans, name), 0.90).unwrap_or(0));

    let messages = c.bus_messages as f64;
    let log_records = c.loki_entries as f64;
    let bridge_samples = c.bridge_samples as f64;
    let real = run.outcomes[0].counts;
    let accepted_all = (c.loki_entries + c.tsdb_samples) as f64;
    let f = &c.frontend;
    let q = &c.cold_queries;

    // Timed steps only, for the comparison with the real stack.
    let step_roots: Vec<&Span> = spans.iter().filter(|s| s.name == "stack.step").collect();
    let timed_roots = &step_roots[w.preload_steps..];
    let staged_timed_ns: u64 = timed_roots.iter().map(|s| s.dur_ns()).sum();
    let first_timed = timed_roots.first().map_or(0, |s| s.start_ns);
    // Top-level spans of the timed region: direct children of a step or
    // refresh root, from the first timed step on (not the preload).
    let child_of = |s: &Span, root: &str| s.parent.is_some_and(|p| spans[p].name == root);
    let timed_top_level = |s: &&Span| {
        !s.probe
            && s.start_ns >= first_timed
            && ["stack.step", "stack.refresh_cold", "stack.refresh_warm"]
                .iter()
                .any(|root| child_of(s, root))
    };
    let staged_attributed_ns: u64 = spans
        .iter()
        .filter(timed_top_level)
        .filter(|s| child_of(s, "stack.step"))
        .map(Span::dur_ns)
        .sum();
    // The real side, as deep as the trace: the floor over as many replicas.
    let real_steps: Vec<Vec<u64>> =
        run.outcomes.iter().take(TRACED_REPLICAS).map(|o| o.step_ns.clone()).collect();
    let real_step_ns: u64 = positionwise_min(&real_steps).iter().sum();

    let mut group_ns = [0u64; 4];
    for s in spans.iter().filter(timed_top_level) {
        if let Some(g) = group_of(s.name) {
            group_ns[g as usize] += s.dur_ns();
        }
    }
    let grouped: u64 = group_ns.iter().sum();
    let cold_renders: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "pane.render_dashboard" && child_of(s, "stack.refresh_cold"))
        .map(Span::dur_ns)
        .collect();
    let alert_path_s = group_ns[Group::Alert as usize] as f64 / 1e9;
    let mut fills: Vec<f64> = c.loki_fill_ratios.clone();
    fills.sort_by(f64::total_cmp);

    let mut out = vec![
        metric("shasta.sample_ms_per_step", per_step_ms("shasta.sample_sensors"), "ms"),
        metric(
            "redfish.publish_us_per_msg",
            ratio(
                (total("redfish.publish_readings") + total("redfish.publish_logs")) / 1e3,
                messages,
            ),
            "us",
        ),
        metric("bus.produce_us_per_msg", per_unit_us("bus.produce", messages), "us"),
        metric("bus.fetch_us_per_msg", per_unit_us("bus.fetch", messages), "us"),
        metric("bus.bytes_per_msg", ratio(c.bus_bytes as f64, messages), "B"),
        metric("bus.consumer_lag_max", c.bus_consumer_lag_max as f64, "count"),
        metric("bus.produce_retries", c.bus_produce_retries as f64, "count"),
        metric("telemetry.fetch_us_per_msg", per_unit_us("telemetry.fetch", messages), "us"),
        metric("bridge.log_us_per_msg", per_unit_us("bridge.log_pump", log_records), "us"),
        metric("bridge.log_batch_size_p50", c.log_batch_size_p50, "count"),
        metric(
            "bridge.metric_us_per_sample",
            per_unit_us("bridge.metric_pump", bridge_samples),
            "us",
        ),
        metric("bridge.dead_lettered", c.bridge_dead_lettered as f64, "count"),
        metric("loki.push_us_per_entry", per_unit_us("loki.push", log_records), "us"),
        metric(
            "loki.wal_bytes_per_input_byte",
            ratio(c.loki_wal_bytes as f64, c.loki_input_bytes as f64),
            "ratio",
        ),
        metric(
            "loki.fp_cache_hit_ratio",
            ratio(c.loki_fp_cache.0 as f64, (c.loki_fp_cache.0 + c.loki_fp_cache.1) as f64),
            "ratio",
        ),
        metric("loki.tick_ms_p90", p90_ms("loki.tick"), "ms"),
        metric("loki.offload_ms_p90", p90_ms("loki.offload"), "ms"),
        metric("loki.compact_ms_total", total("loki.compact") / NS_PER_MS, "ms"),
        metric("loki.chunks_sealed", c.loki_chunks_sealed as f64, "count"),
        metric(
            "loki.chunk_fill_ratio_p50",
            fills.get(fills.len().saturating_sub(1) / 2).copied().unwrap_or(0.0),
            "ratio",
        ),
        metric(
            "loki.frontend_cache_hit_ratio",
            ratio(f.cache_hits as f64, (f.cache_hits + f.cache_misses) as f64),
            "ratio",
        ),
        metric("loki.splits_per_query", ratio(q.splits as f64, q.queries as f64), "count"),
        metric(
            "loki.blocks_decoded_per_query",
            ratio(q.blocks_decoded as f64, q.queries as f64),
            "count",
        ),
        metric(
            "loki.blocks_skipped_ratio",
            ratio(q.blocks_skipped as f64, (q.blocks_skipped + q.blocks_decoded) as f64),
            "ratio",
        ),
        metric(
            "loki.entries_scanned_per_result",
            ratio(q.entries_scanned as f64, q.entries_returned as f64),
            "ratio",
        ),
        metric(
            "loki.pushdown_ratio",
            ratio(f.pushdown_queries as f64, (f.pushdown_queries + f.pushdown_fallbacks) as f64),
            "ratio",
        ),
        metric(
            "loki.cold_chunks_per_query",
            ratio(q.cold_chunks as f64, q.queries as f64),
            "count",
        ),
        // Virtual time: the fair scheduler meters grant rounds on the SimClock.
        metric("loki.scheduler_wait_ms_p50", ms(median(&c.scheduler_waits_vns)), "ms"),
        metric("loki.query_range_ms_p50", p50_ms("loki.query_range"), "ms"),
        metric("loki.query_logs_ms_p50", p50_ms("loki.query_logs"), "ms"),
        metric(
            "logql.parse_us_p50",
            median(&durations_ns(spans, "logql.parse")) as f64 / 1e3,
            "us",
        ),
        metric("loki.ruler_eval_ms_per_step", per_step_ms("loki.ruler_evaluate"), "ms"),
        metric("tsdb.vmalert_eval_ms_per_step", per_step_ms("tsdb.vmalert_evaluate"), "ms"),
        metric("tsdb.append_us_per_sample", per_unit_us("tsdb.append", bridge_samples), "us"),
        metric("tsdb.bytes_per_sample", ratio(c.tsdb_bytes as f64, c.tsdb_samples as f64), "B"),
        metric("tsdb.series", c.tsdb_series as f64, "count"),
        metric("tsdb.scrape_ms_per_step", per_step_ms("tsdb.vmagent_scrape"), "ms"),
        metric(
            "exporters.render_ms_per_scrape",
            ratio(
                (total("exporters.render") + total("obs.self_render")) / NS_PER_MS,
                c.scrapes as f64,
            ),
            "ms",
        ),
        metric(
            "exporters.parse_ms_per_scrape",
            ratio(total("exporters.parse") / NS_PER_MS, c.scrapes as f64),
            "ms",
        ),
        metric("tsdb.promql_instant_ms_p50", p50_ms("tsdb.promql_instant"), "ms"),
        metric("tsdb.promql_range_ms_p50", p50_ms("tsdb.promql_range"), "ms"),
        metric(
            "alertmanager.receive_us_per_alert",
            per_unit_us("alertmanager.receive", c.alerts_received as f64),
            "us",
        ),
        metric("alertmanager.tick_ms_per_step", per_step_ms("alertmanager.tick"), "ms"),
        metric(
            "alertmanager.notifications_per_alert",
            ratio(c.notifications as f64, c.alerts_received as f64),
            "ratio",
        ),
        metric("alertmanager.alerts_per_s", ratio(c.alerts_received as f64, alert_path_s), "1/s"),
        metric(
            "alertmanager.delivery_pump_ms_per_step",
            per_step_ms("alertmanager.delivery_pump"),
            "ms",
        ),
        metric("alertmanager.delivery_retries", c.delivery.retried as f64, "count"),
        metric(
            "servicenow.receive_us_per_notification",
            per_unit_us(
                "servicenow.receive_notification",
                count("servicenow.receive_notification"),
            ),
            "us",
        ),
        metric(
            "servicenow.incidents_per_notification",
            ratio(c.incidents as f64, count("servicenow.receive_notification")),
            "ratio",
        ),
        metric(
            "pane.render_ms_per_dashboard",
            ratio(cold_renders.iter().sum::<u64>() as f64 / NS_PER_MS, cold_renders.len() as f64),
            "ms",
        ),
        metric("pane.heatmap_ms_p50", p50_ms("pane.heatmap"), "ms"),
        metric("obs.self_scrape_ms_per_step", per_step_ms("obs.self_render"), "ms"),
        // The real stack's page: its private collectors export most of it.
        metric("obs.registry_families", run.outcomes[0].registry_families as f64, "count"),
        metric(
            "stack.unattributed_ms_per_step",
            (real_step_ns as f64 - staged_attributed_ns as f64) / NS_PER_MS / w.steps as f64,
            "ms",
        ),
        metric("stack.allocs_per_msg", ratio(staged.alloc.allocs as f64, accepted_all), "count"),
        metric("stack.alloc_bytes_per_msg", ratio(staged.alloc.bytes as f64, accepted_all), "B"),
        metric(
            "stack.peak_live_mb",
            staged.alloc.peak_live_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        metric(
            "stack.cpu_s_per_mmsg",
            ratio(run.cpu_s, real.accepted_timed as f64 * run.outcomes.len() as f64 / 1e6),
            "s",
        ),
        metric(
            "stack.rq_wait_share",
            ratio(run.sched_ns.1 as f64, (run.sched_ns.0 + run.sched_ns.1) as f64),
            "ratio",
        ),
        metric("stack.noise_band", noise_band(&run.column(|o| &o.step_ns)), "ratio"),
        metric(
            "stack.tracing_overhead_ratio",
            ratio(staged_timed_ns as f64, real_step_ns as f64) - 1.0,
            "ratio",
        ),
    ];
    for g in Group::ALL {
        out.push(metric(
            format!("stack.{}_share", g.name()),
            ratio(group_ns[g as usize] as f64, grouped as f64),
            "ratio",
        ));
    }
    // The same over the timed steps alone (no query path there): what the
    // step metrics of this workload respond to.
    let in_steps = grouped - group_ns[Group::Query as usize];
    for g in [Group::Log, Group::Metric, Group::Alert] {
        out.push(metric(
            format!("stack.{}_step_share", g.name()),
            ratio(group_ns[g as usize] as f64, in_steps as f64),
            "ratio",
        ));
    }
    let by_layer = self_ns_by_layer(spans);
    for layer in LAYERS {
        let own = by_layer.get(layer).copied().unwrap_or(0);
        out.push(metric(format!("{layer}.self_ms_per_step"), ms(own) / all_steps, "ms"));
    }
    out
}

/// Human-readable lines for the run (printed before the JSON line).
pub fn describe(run: &Run, metrics: &[Metric]) -> String {
    let w = &run.workload;
    let counts = run.outcomes[0].counts;
    let band = noise_band(&run.column(|o| &o.step_ns));
    let mut out = format!(
        "workload {}: {}\nseed {} replicas {} steps {} refreshes {} preload {}\ndigest {} attempted {} failed {}\nnoise_band {band:.4} (sum of position-wise medians over sum of minima, minus one)\n",
        w.name,
        w.why,
        run.seed,
        run.outcomes.len(),
        w.steps,
        w.refreshes(),
        w.preload_steps,
        run.digest().hex(),
        counts.attempted(),
        counts.failed(),
    );
    if band > LOUD_NOISE_BAND {
        out.push_str(&format!(
            "warning: noise_band {band:.2} is above {LOUD_NOISE_BAND}: the machine was loud, read the numbers with care\n"
        ));
    }
    for m in metrics {
        out.push_str(&format!("{:<44} {:>16.6} {}\n", m.name, m.value, m.unit));
    }
    for v in &run.violations {
        out.push_str(&format!("violation: {v}\n"));
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(run: &Run, metrics: &[Metric]) -> String {
    let counts = run.outcomes[0].counts;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, json_number(m.value), m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        run.correct(),
        counts.attempted(),
        counts.failed(),
        body.join(", ")
    )
}

/// All the digits Rust's shortest round-trip formatting gives; JSON has
/// no NaN or infinity, so those become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(33000.0), "33000.0");
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(1e-7), "1e-7");
        assert!(omni_json::parse(&json_number(1e-7)).is_ok());
        assert!(omni_json::parse(&json_number(1.5e21)).is_ok());
    }
}
