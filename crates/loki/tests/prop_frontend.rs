//! Property tests for the query frontend: splitting a query into
//! retention-aligned intervals, executing the splits in parallel, and
//! serving repeats from the results cache must all be invisible — the
//! frontend's answer is byte-identical to running the log engine (for
//! metric queries: the `omni_logql::eval` reference) directly over a
//! single unsharded ingester, cold or warm, before and after new data
//! lands inside a cached window.

mod common;

use common::reference_fetch;
use omni_logql::eval::eval_metric_range;
use omni_logql::{parse_expr, Expr, LogQuery, MetricQuery};
use omni_loki::{Direction, Ingester, Limits, LokiCluster};
use omni_model::{LabelSet, LogRecord, SimClock};
use proptest::prelude::*;
use std::sync::Arc;

/// Records spread over a handful of streams with non-decreasing
/// timestamps, spanning up to a few minutes so small split intervals
/// produce many sub-queries.
fn arb_records() -> impl Strategy<Value = Vec<LogRecord>> {
    prop::collection::vec((0usize..8, 0i64..2_000_000_000, "\\PC{0,40}"), 1..120).prop_map(
        |items| {
            let mut ts = 0i64;
            items
                .into_iter()
                .map(|(stream, dt, line)| {
                    ts += dt;
                    let labels = LabelSet::from_pairs([
                        ("app", "x".to_string()),
                        ("stream", format!("{stream}")),
                    ]);
                    LogRecord::new(labels, ts, line)
                })
                .collect()
        },
    )
}

fn log_query(text: &str) -> LogQuery {
    match parse_expr(text).unwrap() {
        Expr::Log(q) => q,
        Expr::Metric(_) => panic!("expected a log query"),
    }
}

fn metric_query(text: &str) -> MetricQuery {
    match parse_expr(text).unwrap() {
        Expr::Metric(m) => m,
        Expr::Log(_) => panic!("expected a metric query"),
    }
}

/// Build a sharded cluster (frontend path) and a single bare ingester
/// (direct engine path) holding the same records.
fn build_pair(records: &[LogRecord], split_interval_ns: i64) -> (LokiCluster, Arc<Ingester>) {
    let limits = Limits { chunk_target_bytes: 512, split_interval_ns, ..Default::default() };
    let cluster = LokiCluster::new(4, limits.clone(), SimClock::starting_at(0));
    let single = Arc::new(Ingester::new(limits));
    for r in records {
        cluster.push_record(r.clone()).unwrap();
        single.append(r.clone()).unwrap();
    }
    (cluster, single)
}

proptest! {
    /// Split + cached log queries equal the direct engine, cold and
    /// warm, for both directions and arbitrary limits — including after
    /// an append lands inside the cached window.
    #[test]
    fn frontend_log_query_equals_direct_engine(
        records in arb_records(),
        splits in 1i64..6,
        limit in prop::sample::select(vec![1usize, 3, 10, usize::MAX]),
        backward in any::<bool>(),
    ) {
        let end = records.iter().map(|r| r.entry.ts).max().unwrap() + 1;
        let interval = (end / splits).max(1);
        let (cluster, single) = build_pair(&records, interval);

        let direction = if backward { Direction::Backward } else { Direction::Forward };
        let text = r#"{app="x"}"#;
        let q = log_query(text);
        let (direct, _) = omni_loki::engine::run_log_query(
            std::slice::from_ref(&single), &q, 0, end, limit, direction,
        );

        let cold = cluster.query_logs_directed(text, 0, end, limit, direction).unwrap();
        prop_assert_eq!(&cold, &direct);

        // Warm pass: served from the results cache, still identical.
        let warm = cluster.query_logs_directed(text, 0, end, limit, direction).unwrap();
        prop_assert_eq!(&warm, &direct);
        prop_assert!(cluster.frontend().stats().cache_hits > 0);

        // New stream lands inside the cached window: the cache must
        // invalidate, and the refreshed answer must track the engine.
        let mid = LogRecord::new(
            LabelSet::from_pairs([("app", "x".to_string()), ("stream", "new".to_string())]),
            end / 2,
            "late arrival",
        );
        cluster.push_record(mid.clone()).unwrap();
        single.append(mid).unwrap();
        let refreshed = cluster.query_logs_directed(text, 0, end, limit, direction).unwrap();
        let (direct, _) = omni_loki::engine::run_log_query(
            &[single], &q, 0, end, limit, direction,
        );
        prop_assert_eq!(refreshed, direct);
    }

    /// Split + cached range queries equal the reference evaluation
    /// across random split intervals, steps, and lookback ranges.
    #[test]
    fn frontend_range_query_equals_reference(
        records in arb_records(),
        splits in 1i64..6,
        step_s in 1i64..45,
        range_s in prop::sample::select(vec![5i64, 30, 120]),
    ) {
        let end = records.iter().map(|r| r.entry.ts).max().unwrap() + 1;
        let interval = (end / splits).max(1);
        let (cluster, single) = build_pair(&records, interval);

        let text = format!(r#"sum by (stream) (count_over_time({{app="x"}}[{range_s}s]))"#);
        let m = metric_query(&text);
        let step_ns = step_s * 1_000_000_000;
        let reference = || {
            let mut fetch = reference_fetch(|sel, s, e| single.query_stats(sel, s, e).0);
            eval_metric_range(&m, 0, end, step_ns, &mut fetch)
        };
        let direct = reference();

        let cold = cluster.query_range(&text, 0, end, step_ns).unwrap();
        prop_assert_eq!(&cold, &direct);

        let warm = cluster.query_range(&text, 0, end, step_ns).unwrap();
        prop_assert_eq!(&warm, &direct);

        // An append inside a cached lookback window must invalidate the
        // overlapping splits and keep the refreshed matrix exact.
        let mid = LogRecord::new(
            LabelSet::from_pairs([("app", "x".to_string()), ("stream", "new".to_string())]),
            end / 2,
            "late arrival",
        );
        cluster.push_record(mid.clone()).unwrap();
        single.append(mid).unwrap();
        let refreshed = cluster.query_range(&text, 0, end, step_ns).unwrap();
        prop_assert_eq!(refreshed, reference());
    }
}
