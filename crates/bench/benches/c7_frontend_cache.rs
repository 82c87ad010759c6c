//! C7b — query-frontend results cache: a Grafana dashboard refresh
//! re-issues the same panel queries every few seconds, and the paper's
//! operators keep several such dashboards open around the clock. With
//! split-aligned caching the second refresh should touch no chunks at
//! all.
//!
//! Measures a fixed "dashboard" (two range panels + one log panel) over a
//! pre-loaded cluster, cold cache vs warm cache, best-of-N. Also
//! cross-checks the split path against an unsplit cluster
//! (`split_interval_ns: 0`) loaded with the identical corpus — the
//! refresh results must be byte-identical. Owns the `frontend_cache`
//! section of BENCH_PR5.json; quick mode shrinks the corpus and only
//! prints.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use omni_bench::{corpus_end, quick_mode, syslog_corpus, write_report_section};
use omni_json::jsonv;
use omni_loki::{Limits, LokiCluster};
use omni_model::{LogRecord, SimClock, NANOS_PER_SEC};
use std::time::Instant;

/// The simulated dashboard: the panel mix of a pipeline-health board.
const RANGE_PANELS: &[&str] = &[
    r#"sum by (stream) (count_over_time({cluster="perlmutter"}[5m]))"#,
    r#"count_over_time({data_type="syslog"}[1m])"#,
];
const LOG_PANEL: &str = r#"{cluster="perlmutter"}"#;
const STEP_NS: i64 = 60 * NANOS_PER_SEC;

fn build_cluster(corpus: &[LogRecord], split_interval_ns: i64) -> LokiCluster {
    let clock = SimClock::starting_at(0);
    let limits = Limits { split_interval_ns, ..Default::default() };
    let cluster = LokiCluster::new(8, limits, clock.clone());
    for r in corpus {
        cluster.push_record(r.clone()).expect("corpus records are valid");
    }
    clock.advance_secs(3600);
    cluster.flush();
    cluster
}

/// One dashboard refresh: every panel query against the full corpus
/// window. Returns the results so callers can checksum them.
fn refresh(cluster: &LokiCluster) -> (Vec<omni_logql::Matrix>, Vec<omni_model::LogRecord>) {
    let end = corpus_end();
    let matrices = RANGE_PANELS
        .iter()
        .map(|q| cluster.query_range(q, 0, end, STEP_NS).expect("panel query parses"))
        .collect();
    let logs = cluster.query_logs(LOG_PANEL, 0, end, 200).expect("panel query parses");
    (matrices, logs)
}

fn pr5_frontend_cache_report() {
    let quick = quick_mode();
    let n = if quick { 8_000 } else { 50_000 };
    let runs = if quick { 2 } else { 5 };
    let corpus = syslog_corpus(n, 64);

    let split = build_cluster(&corpus, Limits::default().split_interval_ns);
    let unsplit = build_cluster(&corpus, 0);

    // Correctness cross-check first: splitting (and then caching) must be
    // invisible in the results.
    let from_split = refresh(&split);
    let from_unsplit = refresh(&unsplit);
    let split_equals_unsplit = from_split == from_unsplit;
    assert!(split_equals_unsplit, "split refresh diverged from unsplit refresh");
    let warm_equals_cold = refresh(&split) == from_split;
    assert!(warm_equals_cold, "warm refresh diverged from cold refresh");

    // Cold vs warm, best-of-N. `invalidate_all` restores a cold cache
    // without rebuilding the cluster.
    let mut cold = f64::INFINITY;
    let mut warm = f64::INFINITY;
    for _ in 0..runs {
        split.frontend().invalidate_all();
        let t = Instant::now();
        black_box(refresh(&split));
        cold = cold.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        black_box(refresh(&split));
        warm = warm.min(t.elapsed().as_secs_f64());
    }
    let speedup = cold / warm;
    let stats = split.frontend().stats();
    assert!(stats.cache_hits > 0, "warm refreshes never hit the cache");
    if !quick {
        assert!(
            speedup >= 5.0,
            "warm-cache dashboard refresh speedup {speedup:.2}x below the 5x floor"
        );
    }

    println!(
        "pr5 frontend_cache: cold {:.6}s, warm {:.6}s ({speedup:.1}x), \
         splits {}, hits {}, misses {}, split==unsplit {split_equals_unsplit}",
        cold, warm, stats.splits_total, stats.cache_hits, stats.cache_misses,
    );
    if !quick {
        write_report_section(
            "BENCH_PR5.json",
            "frontend_cache",
            jsonv!({
                "messages": (n),
                "runs_best_of": (runs),
                "range_panels": (RANGE_PANELS.len()),
                "log_panels": (1),
                "cold_refresh_seconds": (cold),
                "warm_refresh_seconds": (warm),
                "speedup": (speedup),
                "splits_total": (stats.splits_total),
                "cache_hits": (stats.cache_hits),
                "cache_misses": (stats.cache_misses),
                "split_equals_unsplit": (split_equals_unsplit),
            }),
        );
    }
}

fn bench(c: &mut Criterion) {
    pr5_frontend_cache_report();
    if quick_mode() {
        return;
    }

    let mut g = c.benchmark_group("c7_frontend_cache");
    g.sample_size(10);

    let corpus = syslog_corpus(50_000, 64);
    let cluster = build_cluster(&corpus, Limits::default().split_interval_ns);

    g.bench_function("dashboard_refresh_cold", |b| {
        b.iter(|| {
            cluster.frontend().invalidate_all();
            black_box(refresh(&cluster))
        });
    });
    g.bench_function("dashboard_refresh_warm", |b| {
        black_box(refresh(&cluster));
        b.iter(|| black_box(refresh(&cluster)));
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
