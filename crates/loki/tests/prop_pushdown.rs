//! Property tests for the metric evaluator: for every range
//! aggregation, evaluating per-shard partials and merging them at the
//! frontend must be indistinguishable from the reference — the central
//! single-pass `omni_logql::eval` over one unsharded ingester holding
//! the same records — across random stream shapes, tenants, time
//! splits, and cache states.
//!
//! Unwrapped values are integers, so every partial sum is exactly
//! representable and float association order cannot blur the
//! comparison — equality here is exact, not approximate.

mod common;

use common::reference_fetch;
use omni_logql::eval::{eval_metric_at, eval_metric_range};
use omni_logql::{parse_expr, Expr, Matrix, MetricQuery};
use omni_loki::{
    Ingester, Limits, LokiCluster, QueryReport, QueryRequest, QueryShape, TENANT_LABEL,
};
use omni_model::{LabelSet, LogRecord, SimClock, TenantId, Timestamp};
use proptest::prelude::*;

/// Records over a handful of streams with non-decreasing timestamps and
/// logfmt lines carrying an integer `v=` for the unwrap aggregations.
fn arb_records() -> impl Strategy<Value = Vec<LogRecord>> {
    prop::collection::vec((0usize..8, 0i64..2_000_000_000, 0i64..1_000, "[a-z]{0,8}"), 1..120)
        .prop_map(|items| {
            let mut ts = 0i64;
            items
                .into_iter()
                .map(|(stream, dt, value, word)| {
                    ts += dt;
                    let labels = LabelSet::from_pairs([
                        ("app", "x".to_string()),
                        ("stream", format!("{stream}")),
                    ]);
                    LogRecord::new(labels, ts, format!("v={value} msg={word}"))
                })
                .collect()
        })
}

/// All ten range aggregations (`avg_over_time` decomposed as
/// sum+count, `first`/`last_over_time` as timestamp-carrying partials),
/// with vector aggregations and filters above them.
const QUERIES: &[&str] = &[
    r#"sum by (stream) (count_over_time({app="x"}[RANGEs]))"#,
    r#"rate({app="x"}[RANGEs])"#,
    r#"bytes_over_time({app="x"}[RANGEs])"#,
    r#"sum(bytes_rate({app="x"}[RANGEs]))"#,
    r#"sum by (stream) (sum_over_time({app="x"} | logfmt | unwrap v [RANGEs]))"#,
    r#"min_over_time({app="x"} | logfmt | unwrap v [RANGEs])"#,
    r#"max(max_over_time({app="x"} | logfmt | unwrap v [RANGEs]))"#,
    r#"avg_over_time({app="x"} | logfmt | unwrap v [RANGEs])"#,
    r#"avg(count_over_time({app="x"}[RANGEs]))"#,
    r#"sum by (stream) (count_over_time({app="x"} |= "msg" [RANGEs])) > 1"#,
    r#"first_over_time({app="x"} | logfmt | unwrap v [RANGEs])"#,
    r#"sum by (stream) (last_over_time({app="x"} | logfmt | unwrap v [RANGEs]))"#,
    // Same, with each stream folded back into one group so that the
    // timestamp actually selects among several values.
    r#"first_over_time({app="x"} | logfmt | unwrap v | label_format v="" | label_format msg="" [RANGEs])"#,
    r#"last_over_time({app="x"} | logfmt | unwrap v | label_format v="" | label_format msg="" [RANGEs])"#,
];

fn metric_query(text: &str) -> MetricQuery {
    match parse_expr(text).unwrap() {
        Expr::Metric(m) => m,
        Expr::Log(_) => panic!("expected a metric query"),
    }
}

/// A sharded cluster and its single-shard twin holding identical
/// records.
fn build_pair(records: &[LogRecord], split_interval_ns: i64) -> (LokiCluster, Ingester) {
    let limits = Limits { chunk_target_bytes: 512, split_interval_ns, ..Default::default() };
    let cluster = LokiCluster::new(4, limits.clone(), SimClock::starting_at(0));
    let twin = Ingester::new(limits);
    for r in records {
        cluster.push_record(r.clone()).unwrap();
        twin.append(r.clone()).unwrap();
    }
    (cluster, twin)
}

/// The reference matrix: central evaluation over the twin.
fn reference_range(twin: &Ingester, m: &MetricQuery, end: Timestamp, step_ns: i64) -> Matrix {
    eval_metric_range(
        m,
        0,
        end,
        step_ns,
        &mut reference_fetch(|sel, s, e| twin.query_stats(sel, s, e).0),
    )
    .unwrap()
}

/// A range query through the door, with its report.
fn query_range(
    cluster: &LokiCluster,
    tenant: Option<&TenantId>,
    query: &str,
    end: Timestamp,
    step_ns: i64,
) -> (Matrix, QueryReport) {
    let shape = QueryShape::Range { start: 0, end, step_ns };
    let resp = cluster.query(QueryRequest { tenant, query, shape }).unwrap();
    (resp.data.into_matrix().unwrap(), resp.report)
}

proptest! {
    /// partials ≡ reference, for every aggregation, across random
    /// stream shapes, split intervals and steps — cold, warm, with
    /// interleaved warm/cold splits, and after an append invalidates
    /// part of the cache.
    #[test]
    fn partials_equal_reference(
        records in arb_records(),
        splits in 1i64..6,
        step_s in 1i64..45,
        range_s in prop::sample::select(vec![5i64, 30, 120]),
        query_idx in 0..QUERIES.len(),
    ) {
        let end = records.iter().map(|r| r.entry.ts).max().unwrap() + 1;
        let interval = (end / splits).max(1);
        let (cluster, twin) = build_pair(&records, interval);

        let text = QUERIES[query_idx].replace("RANGE", &range_s.to_string());
        let m = metric_query(&text);
        let step_ns = step_s * 1_000_000_000;
        let reference = reference_range(&twin, &m, end, step_ns);

        // Cold: merged partials agree with the unsplit, unsharded
        // central evaluation — and partials really are what moved.
        let (cold, report) = query_range(&cluster, None, &text, end, step_ns);
        prop_assert_eq!(&cold, &reference);
        prop_assert_eq!(report.stats.entries_shipped, 0);
        if !cold.is_empty() {
            prop_assert!(report.stats.partials_merged > 0);
        }

        // Warm: served from the results cache, still identical.
        let warm = cluster.query_range(&text, 0, end, step_ns).unwrap();
        prop_assert_eq!(&warm, &reference);

        // Instant evaluation reduces the same way.
        let at = end / 2;
        let instant = cluster.query_instant(&text, at).unwrap();
        let reference_instant =
            eval_metric_at(&m, at, &mut reference_fetch(|sel, s, e| twin.query_stats(sel, s, e).0));
        prop_assert_eq!(&instant, &reference_instant);

        // Cache interleaving: an append invalidates the splits whose
        // windows cover it, so the refresh mixes warm time-splits with
        // cold shard partials — the seam must be invisible.
        let mid = LogRecord::new(
            LabelSet::from_pairs([("app", "x".to_string()), ("stream", "new".to_string())]),
            end / 2,
            "v=7 msg=late",
        );
        cluster.push_record(mid.clone()).unwrap();
        twin.append(mid).unwrap();
        let refreshed = cluster.query_range(&text, 0, end, step_ns).unwrap();
        prop_assert_eq!(&refreshed, &reference_range(&twin, &m, end, step_ns));
    }

    /// Tenant-scoped evaluation: the injected tenant matcher threads
    /// through the shard-local evaluation, so a tenant sees exactly what
    /// the reference computes over its own streams — and never another
    /// tenant's data.
    #[test]
    fn tenant_scoped_partials_equal_reference(
        records in arb_records(),
        splits in 1i64..6,
        step_s in 1i64..45,
        query_idx in 0..QUERIES.len(),
    ) {
        let end = records.iter().map(|r| r.entry.ts).max().unwrap() + 1;
        let interval = (end / splits).max(1);
        let (cluster, _) = build_pair(&[], interval);
        let tenants = [TenantId::new("acme"), TenantId::new("rival")];
        // One twin per tenant, holding what the tenant's streams look
        // like in storage (the tenant label injected).
        let twins = [Ingester::new(Limits::default()), Ingester::new(Limits::default())];
        for (i, r) in records.iter().enumerate() {
            // Interleave two tenants over the same label shapes.
            let t = usize::from(i % 3 == 0);
            let frame = (r.labels.clone(), vec![r.entry.clone()]);
            prop_assert_eq!(cluster.push_frames(Some(&tenants[t]), [frame]), vec![Ok(())]);
            let mut scoped = r.clone();
            scoped.labels.insert(TENANT_LABEL, tenants[t].as_str());
            twins[t].append(scoped).unwrap();
        }

        let text = QUERIES[query_idx].replace("RANGE", "30");
        let m = metric_query(&text);
        let step_ns = step_s * 1_000_000_000;
        for (tenant, twin) in tenants.iter().zip(&twins) {
            let (matrix, _) = query_range(&cluster, Some(tenant), &text, end, step_ns);
            prop_assert_eq!(matrix, reference_range(twin, &m, end, step_ns));
        }
    }
}
