//! Property tests for the query frontend: splitting a query into
//! retention-aligned intervals, executing the splits in parallel, and
//! serving repeats from the results cache must all be invisible — the
//! frontend's answer is byte-identical to running the log engine (for
//! metric queries: the `omni_logql::eval` reference) directly over a
//! single unsharded ingester, cold or warm, before and after new data
//! lands inside a cached window.
//!
//! The sliding-window property holds the range path's step extents to
//! the direct engine over op sequences a refreshing dashboard produces.
//! Mutations of `frontend.rs` shown to fail it:
//! * an extension executing from the extent's last step instead of the
//!   step after it (that step's samples appear twice);
//! * the grid phase dropped from the extent key (a window shifted by a
//!   fraction of a step is sliced from the other grid);
//! * an extension keeping the entry's old `end` (an append between the
//!   old and the new last step no longer invalidates it);
//! * `last >= e` → `last > e` in the coverage test (an immediate repeat
//!   executes again).

mod common;

use common::reference_fetch;
use omni_logql::eval::{eval_metric_range, step_grid, Matrix};
use omni_logql::{parse_expr, Expr, LogQuery, MetricQuery};
use omni_loki::{Direction, Ingester, Limits, LokiCluster, QueryRequest, QueryShape};
use omni_model::{LabelSet, LogRecord, SimClock, NANOS_PER_SEC};
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

const SEC: i64 = NANOS_PER_SEC;

/// The panels a sliding window refreshes: two lookbacks, a sum over
/// streams and an order-sensitive fold over unwrapped values.
const SLIDING_QUERIES: [&str; 2] = [
    r#"sum by (stream) (count_over_time({app="x"}[30s]))"#,
    r#"max_over_time({app="x"} | logfmt | unwrap v [45s])"#,
];

/// Refresh steps, each its own grid; 25 s does not divide the 60 s split
/// interval, so its runs start at a different offset in every bucket.
const STEPS: [i64; 3] = [10 * SEC, 15 * SEC, 25 * SEC];

/// A matrix with every value as its bit pattern: equality is exact.
fn bits(m: &Matrix) -> Vec<(LabelSet, Vec<(i64, u64)>)> {
    m.iter()
        .map(|(l, ss)| (l.clone(), ss.iter().map(|s| (s.ts, s.value.to_bits())).collect()))
        .collect()
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
            eval_metric_range(&m, 0, end, step_ns, &mut fetch).unwrap()
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

    /// Range windows that slide forward and back by whole and fractional
    /// steps, change grid and width and cross 60 s split buckets, between
    /// in-order and late-but-tolerated appends, retention passes and
    /// wholesale invalidation: after every op each panel's matrix equals
    /// the unsplit engine over a bare ingester holding the same records,
    /// bit for bit — and an immediate repeat executes nothing.
    ///
    /// An op is `(kind, x, y)`: kinds 0–2 append `v=y` to stream `x % 4`
    /// after moving the data head on by `y % 7` s, 3 appends it up to
    /// 25 s behind the head (inside the 20 s tolerance, or rejected on
    /// both sides alike); 4 enforces retention at `head + 40·(y % 4)` s
/// (or the clock, if that is later);
    /// 5 drops the cache; 6 picks grid `STEPS[x % 3]`, 7 a width; 8–10
    /// move the window end by move `x`.
    #[test]
    fn sliding_range_windows_equal_the_direct_engine_after_every_op(
        ops in prop::collection::vec((0u8..11, 0usize..8, 0i64..40), 1..80),
    ) {
        let limits = Limits {
            chunk_target_bytes: 256,
            split_interval_ns: 60 * SEC,
            out_of_order_tolerance_ns: 20 * SEC,
            retention_ns: 300 * SEC,
            ..Default::default()
        };
        let cluster = LokiCluster::new(2, limits.clone(), SimClock::starting_at(0));
        let single = Arc::new(Ingester::new(limits));
        let queries: Vec<MetricQuery> = SLIDING_QUERIES.iter().map(|q| metric_query(q)).collect();
        let mut head = 1_000 * SEC;
        let (mut end, mut width, mut step) = (head, 150 * SEC, STEPS[0]);
        for (i, &(kind, x, y)) in ops.iter().enumerate() {
            match kind {
                0..=3 => {
                    let ts = if kind == 3 {
                        head - (y % 26) * SEC
                    } else {
                        head += (y % 7) * SEC;
                        head
                    };
                    let labels = LabelSet::from_pairs([
                        ("app", "x".to_string()),
                        ("stream", format!("{}", x % 4)),
                    ]);
                    let r = LogRecord::new(labels, ts, format!("v={y}"));
                    prop_assert_eq!(cluster.push_record(r.clone()).is_ok(), single.append(r).is_ok());
                }
                4 => {
                    let now = cluster.clock().now().max(head + (y % 4) * 40 * SEC);
                    cluster.clock().set(now);
                    cluster.enforce_retention();
                    single.enforce_retention(now);
                }
                5 => cluster.frontend().invalidate_all(),
                6 => step = STEPS[x % STEPS.len()],
                7 => width = [45 * SEC, 150 * SEC, 200 * SEC][x % 3],
                _ => {
                    end = match x {
                        0 => head + (y % 3) * step, // catch up with the data
                        1 => end + step,
                        2 => end - step,
                        3 => end + 2 * step,
                        4 => end + step / 2,
                        5 => end - step / 3,
                        6 => end + 60 * SEC,
                        _ => end - 60 * SEC,
                    }
                }
            }
            let start = end - width;
            for (text, q) in SLIDING_QUERIES.iter().zip(&queries) {
                let (direct, _) = omni_loki::engine::run_range_query(
                    std::slice::from_ref(&single), q, &step_grid(start, end, step).unwrap(),
                );
                let shape = QueryShape::Range { start, end, step_ns: step };
                for pass in ["cold", "repeat"] {
                    let resp = cluster.query(QueryRequest { tenant: None, query: text, shape }).unwrap();
                    if pass == "repeat" {
                        prop_assert_eq!(resp.report.cache_misses, 0, "op {} {:?}: {} repeat", i, ops[i], text);
                    }
                    prop_assert_eq!(
                        bits(&resp.data.into_matrix().unwrap()), bits(&direct),
                        "op {} {:?}: {} ({}) over ({}, {}] step {}", i, ops[i], text, pass, start, end, step
                    );
                }
            }
        }
    }
}
