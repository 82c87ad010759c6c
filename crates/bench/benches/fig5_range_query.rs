//! E3 — Figure 5: the `count_over_time ... | json [60m]` range query that
//! turns the leak event into a metric, evaluated as a Grafana graph
//! (range query at fixed steps).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use omni_bench::{corpus_end, loaded_cluster, quick_mode, syslog_corpus, write_report_section};
use omni_core::redfish_to_loki;
use omni_json::jsonv;
use omni_loki::chunk::SealedChunk;
use omni_loki::QueryStats;
use omni_model::{LogEntry, NANOS_PER_SEC};
use omni_redfish::RedfishEvent;
use std::collections::BTreeMap;
use std::time::Instant;

const FIG5_QUERY: &str = r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (Severity, cluster, Context, MessageId, Message)"#;

/// PR3 before/after: answer a narrow time window over sealed chunks by
/// decompressing every block and filtering afterwards (the old decode
/// path) versus `decode_range`, which reads the per-block min/max
/// headers and skips blocks outside the window. Owns the `range_query`
/// section of BENCH_PR3.json; quick mode shrinks the workload and only
/// prints.
fn pr3_range_report() {
    let quick = quick_mode();
    let n = if quick { 5_000 } else { 50_000 };
    let runs = if quick { 2 } else { 5 };
    // Few streams so each chunk is large enough to hold many blocks.
    let streams = 16;
    let mut per_stream: BTreeMap<String, Vec<LogEntry>> = BTreeMap::new();
    for r in syslog_corpus(n, streams) {
        // The corpus is globally time-ordered, so per-stream order holds.
        per_stream
            .entry(r.labels.get("stream").unwrap_or("?").to_string())
            .or_default()
            .push(LogEntry::new(r.entry.ts, r.entry.line));
    }
    let chunks: Vec<SealedChunk> =
        per_stream.into_values().map(|es| SealedChunk::from_entries(&es)).collect();
    let min_ts = chunks.iter().map(|c| c.min_ts).min().unwrap();
    let max_ts = chunks.iter().map(|c| c.max_ts).max().unwrap();
    // A two-second window in the middle of the corpus: the shape of the
    // Figure 5 drill-down, where most blocks fall outside the range.
    let start = min_ts + (max_ts - min_ts) / 2;
    let end = start + 2 * NANOS_PER_SEC;

    let best_secs = |count: &dyn Fn() -> usize| -> (f64, usize) {
        let mut best = f64::INFINITY;
        let mut hits = 0;
        for _ in 0..runs {
            let t = Instant::now();
            hits = black_box(count());
            best = best.min(t.elapsed().as_secs_f64());
        }
        (best, hits)
    };

    let (full_secs, full_hits) = best_secs(&|| {
        let mut hits = 0;
        for c in &chunks {
            if c.overlaps(start, end) {
                let entries = c.decode().unwrap();
                hits += entries.iter().filter(|e| e.ts > start && e.ts <= end).count();
            }
        }
        hits
    });
    let (skip_secs, skip_hits) = best_secs(&|| {
        let mut hits = 0;
        for c in chunks.iter().filter(|c| c.overlaps(start, end)) {
            hits += c.decode_range(start, end, &mut QueryStats::default()).unwrap().len();
        }
        hits
    });
    assert_eq!(full_hits, skip_hits, "block-skip decode must return the same entries");
    assert!(full_hits > 0, "the window must actually select entries");

    let blocks_total: usize =
        chunks.iter().filter(|c| c.overlaps(start, end)).map(|c| c.block_count()).sum();
    let mut stats = QueryStats::default();
    for c in &chunks {
        c.decode_range(start, end, &mut stats).unwrap();
    }
    let blocks_decoded = stats.blocks_decoded;
    let speedup = full_secs / skip_secs;
    println!(
        "pr3 range_query: full decode {full_secs:.4}s, block-skip {skip_secs:.4}s \
         ({speedup:.2}x, {blocks_decoded}/{blocks_total} blocks decompressed)"
    );
    if !quick {
        write_report_section(
            "BENCH_PR3.json",
            "range_query",
            jsonv!({
                "corpus_entries": (n),
                "streams": (streams),
                "window_seconds": 2,
                "entries_in_window": (full_hits),
                "runs_best_of": (runs),
                "full_decode_seconds": (full_secs),
                "block_skip_seconds": (skip_secs),
                "speedup": (speedup),
                "blocks_total": (blocks_total),
                "blocks_decoded": (blocks_decoded),
            }),
        );
    }
}

fn bench(c: &mut Criterion) {
    pr3_range_report();
    if quick_mode() {
        return;
    }

    let cluster = loaded_cluster(8, 50_000, 64);
    let event = RedfishEvent::paper_leak_event();
    let mut record = redfish_to_loki(&event, "perlmutter");
    record.entry.ts = corpus_end() / 2;
    cluster.push_record(record).unwrap();
    cluster.flush();

    let mut g = c.benchmark_group("fig5_logql_metric");
    g.sample_size(20);
    g.bench_function("instant_count_over_time_60m", |b| {
        b.iter(|| {
            let v = cluster
                .query_instant(black_box(FIG5_QUERY), corpus_end() / 2 + NANOS_PER_SEC)
                .unwrap();
            assert_eq!(v.len(), 1);
            black_box(v)
        });
    });
    g.bench_function("range_grafana_graph_24_steps", |b| {
        b.iter(|| {
            let m = cluster
                .query_range(black_box(FIG5_QUERY), 0, corpus_end(), corpus_end() / 24)
                .unwrap();
            black_box(m)
        });
    });
    g.bench_function("rate_over_syslog_stream", |b| {
        b.iter(|| {
            let v = cluster
                .query_instant(
                    black_box(r#"sum(rate({data_type="syslog"}[5m])) by (stream)"#),
                    corpus_end() / 2,
                )
                .unwrap();
            black_box(v)
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
