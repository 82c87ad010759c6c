//! The query engine: LogQL over the shard set, scanning shards in
//! parallel (map) and merging results (reduce).

use crate::ingester::Ingester;
pub use crate::reader::QueryStats;
use omni_logql::{
    eval::{grid_to_instant, grid_to_matrix, InstantVector, Matrix, SeriesGrid},
    pushdown, LogQuery, MetricQuery, Pipeline, Selector,
};
use omni_model::{LabelSet, LogEntry, LogRecord, Timestamp};
use std::borrow::Cow;
use std::sync::Arc;

/// The order in which a log query returns — and therefore limits — its
/// records (Loki's `direction` query parameter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Oldest records first (ascending timestamps).
    Forward,
    /// Newest records first (descending timestamps) — Loki's default,
    /// because a limited query from a dashboard wants the latest lines.
    #[default]
    Backward,
}

/// Run `scan` over every shard — on scoped threads when there is more
/// than one — and return the results in **shard-id order** (joining in
/// spawn order is what makes every reduce over them deterministic).
fn scan_shards<T: Send>(shards: &[Arc<Ingester>], scan: impl Fn(&Ingester) -> T + Sync) -> Vec<T> {
    if let [only] = shards {
        return vec![scan(only)];
    }
    let scan = &scan;
    std::thread::scope(|s| {
        let handles: Vec<_> = shards.iter().map(|shard| s.spawn(move || scan(shard))).collect();
        handles
            .into_iter()
            // Invariant: shard scans are read-only and must not panic; if
            // one does, the query result would be silently partial, so
            // propagating the panic is the correct behaviour here.
            .map(|h| h.join().expect("shard scan panicked")) // lint:allow(no-unwrap)
            .collect()
    })
}

/// Fetch the selector's streams in `(start, end]` from one shard: the
/// reader's stats plus the scan volume every query shape reports —
/// streams matched, entries scanned, line bytes scanned.
fn fetch(
    shard: &Ingester,
    selector: &Selector,
    start: Timestamp,
    end: Timestamp,
) -> (Vec<(LabelSet, Vec<LogEntry>)>, QueryStats) {
    let (streams, mut stats) = shard.query_stats(selector, start, end);
    stats.streams_matched = streams.len();
    for e in streams.iter().flat_map(|(_, entries)| entries) {
        stats.entries_scanned += 1;
        stats.bytes_scanned += e.line.len();
    }
    (streams, stats)
}

/// Run a log query over `(start, end]`, returning up to `limit` records
/// in `direction` order — `Backward` keeps the **newest** records when
/// the limit bites (ties broken by labels for determinism — `Backward`
/// is the exact reverse of the `Forward` total order) — plus execution
/// statistics.
pub fn run_log_query(
    shards: &[Arc<Ingester>],
    query: &LogQuery,
    start: Timestamp,
    end: Timestamp,
    limit: usize,
    direction: Direction,
) -> (Vec<LogRecord>, QueryStats) {
    let pipeline = Pipeline::new(&query.stages);
    let mut records = Vec::new();
    let mut stats = QueryStats::default();
    for (streams, read) in scan_shards(shards, |shard| fetch(shard, &query.selector, start, end)) {
        stats.absorb(read);
        for (labels, entries) in streams {
            for mut entry in entries {
                let Some(p) = pipeline.process(&entry.line, &labels) else { continue };
                let labels = p.labels.into_owned();
                // A borrowed line is the entry's own: keep it, copy nothing.
                if let Cow::Owned(line) = p.line {
                    entry.line = line;
                }
                records.push(LogRecord { labels, entry });
            }
        }
    }
    stats.entries_shipped = records.len();
    records.sort_by(|a, b| {
        let forward = a.entry.ts.cmp(&b.entry.ts).then_with(|| a.labels.cmp(&b.labels));
        match direction {
            Direction::Forward => forward,
            Direction::Backward => forward.reverse(),
        }
    });
    records.truncate(limit);
    stats.entries_returned = records.len();
    (records, stats)
}

/// Map/reduce evaluation of a metric query over the step grid,
/// series-major: every shard fetches the selector once for the whole
/// grid and evaluates the bottom range aggregation into one row of
/// per-step partials per label group (map, via [`scan_shards`]); the
/// shards' label-sorted rows, concatenated in **shard-id order**, merge
/// cell-wise in one linear pass at the reduce (so repeated runs fold
/// floats identically); the vector-aggregation tree then runs once over
/// the finished grid. Entries never leave their shard: `entries_shipped`
/// stays 0 and `partials_merged` counts the non-empty cells that moved
/// instead.
fn eval_grid(
    shards: &[Arc<Ingester>],
    query: &MetricQuery,
    steps: &[Timestamp],
) -> (SeriesGrid, QueryStats) {
    let mut stats = QueryStats::default();
    let Some((&first, &last)) = steps.first().zip(steps.last()) else {
        return (Vec::new(), stats);
    };
    let bottom = query.log_query();
    let op = pushdown::bottom_op(query);
    let range_ns = query.range_ns();
    // `first` may be a sentinel near `i64::MIN`.
    let fetch_start = first.saturating_sub(range_ns);

    let per_shard = scan_shards(shards, |shard| {
        let (streams, read) = fetch(shard, &bottom.selector, fetch_start, last);
        let (rows, matched) = pushdown::shard_rows(&bottom.stages, op, &streams, steps, range_ns);
        (rows, QueryStats { entries_returned: matched, ..read })
    });

    let mut rows = Vec::new();
    for (shard, st) in per_shard {
        stats.absorb(st);
        rows.extend(shard);
    }
    let (merged, partials) = pushdown::merge_rows(rows);
    stats.partials_merged += partials;
    (pushdown::reduce_rows(query, merged), stats)
}

/// Evaluate a metric query at the ascending `steps` of a range grid
/// (Grafana graphs; the frontend takes them from
/// [`step_grid`](omni_logql::eval::step_grid)) from per-shard partials;
/// the first step may be a sentinel near `i64::MIN`.
pub fn run_range_query(
    shards: &[Arc<Ingester>],
    query: &MetricQuery,
    steps: &[Timestamp],
) -> (Matrix, QueryStats) {
    let (grid, stats) = eval_grid(shards, query, steps);
    (grid_to_matrix(grid, steps), stats)
}

/// Evaluate a metric query at one instant: the same reduce over a
/// one-step grid.
pub fn run_instant_query(
    shards: &[Arc<Ingester>],
    query: &MetricQuery,
    at: Timestamp,
) -> (InstantVector, QueryStats) {
    let (grid, stats) = eval_grid(shards, query, &[at]);
    (grid_to_instant(grid), stats)
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
pub(crate) mod common;

#[cfg(test)]
mod tests {
    use super::common::reference_fetch;
    use super::*;
    use crate::limits::Limits;
    use omni_logql::eval::{eval_metric_at, eval_metric_range, step_grid};
    use omni_logql::{parse_expr, Expr, Selector};
    use omni_model::{labels, LabelSet, NANOS_PER_SEC};

    fn shard_with(n: i64) -> Vec<Arc<Ingester>> {
        let ing = Ingester::new(Limits::default());
        for i in 0..n {
            ing.append(LogRecord {
                labels: labels!("app" => "x", "stream" => format!("s{}", i % 2)),
                entry: LogEntry::new(i * NANOS_PER_SEC, format!("line {i}")),
            })
            .unwrap();
        }
        vec![Arc::new(ing)]
    }

    fn log_query(text: &str) -> LogQuery {
        match parse_expr(text).unwrap() {
            Expr::Log(q) => q,
            Expr::Metric(_) => panic!("expected a log query"),
        }
    }

    #[test]
    fn limited_backward_query_returns_newest_records() {
        // Regression: the engine used to sort ascending and then truncate,
        // so a limited query silently returned the *oldest* records.
        let shards = shard_with(100);
        let q = log_query(r#"{app="x"}"#);
        let (out, _) = run_log_query(&shards, &q, i64::MIN, i64::MAX, 10, Direction::Backward);
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0].entry.ts >= w[1].entry.ts), "newest first");
        assert_eq!(out[0].entry.ts, 99 * NANOS_PER_SEC, "limit keeps the newest records");
        assert_eq!(out[9].entry.ts, 90 * NANOS_PER_SEC);
    }

    #[test]
    fn forward_direction_returns_oldest_ascending() {
        let shards = shard_with(100);
        let q = log_query(r#"{app="x"}"#);
        let (out, _) = run_log_query(&shards, &q, i64::MIN, i64::MAX, 10, Direction::Forward);
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0].entry.ts <= w[1].entry.ts), "oldest first");
        assert_eq!(out[0].entry.ts, 0);
        assert_eq!(out[9].entry.ts, 9 * NANOS_PER_SEC);
    }

    #[test]
    fn backward_is_exact_reverse_of_forward() {
        // Ties (equal timestamps across streams) must stay deterministic:
        // backward is the reversal of the forward total order, not an
        // independent sort.
        let ing = Ingester::new(Limits::default());
        for stream in ["a", "b", "c"] {
            for i in 0..5i64 {
                ing.append(LogRecord {
                    labels: labels!("app" => "x", "stream" => stream),
                    entry: LogEntry::new(i * NANOS_PER_SEC, format!("{stream} {i}")),
                })
                .unwrap();
            }
        }
        let shards = vec![Arc::new(ing)];
        let q = log_query(r#"{app="x"}"#);
        let (fwd, _) =
            run_log_query(&shards, &q, i64::MIN, i64::MAX, usize::MAX, Direction::Forward);
        let (mut bwd, _) =
            run_log_query(&shards, &q, i64::MIN, i64::MAX, usize::MAX, Direction::Backward);
        bwd.reverse();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn entries_returned_counts_post_limit_records() {
        let shards = shard_with(100);
        let q = log_query(r#"{app="x"}"#);
        let (out, stats) = run_log_query(&shards, &q, i64::MIN, i64::MAX, 7, Direction::Backward);
        assert_eq!(out.len(), 7);
        assert_eq!(stats.entries_returned, 7, "returned = after the limit, not scanned");
        assert_eq!(stats.entries_scanned, 100);
    }

    fn metric_query(text: &str) -> MetricQuery {
        match parse_expr(text).unwrap() {
            Expr::Metric(m) => m,
            Expr::Log(_) => panic!("expected a metric query"),
        }
    }

    /// Two shards with disjoint streams plus one shard holding nothing.
    fn sharded_fleet() -> Vec<Arc<Ingester>> {
        let mk = |streams: &[&str]| {
            let ing = Ingester::new(Limits::default());
            for (si, s) in streams.iter().enumerate() {
                for i in 0..20i64 {
                    ing.append(LogRecord {
                        labels: labels!("app" => "x", "stream" => *s),
                        entry: LogEntry::new(
                            (i * 3 + si as i64) * NANOS_PER_SEC,
                            format!("v={} event {i}", i + 1),
                        ),
                    })
                    .unwrap();
                }
            }
            Arc::new(ing)
        };
        vec![mk(&["a", "b"]), mk(&["c"]), Arc::new(Ingester::new(Limits::default()))]
    }

    /// The reference scan: every shard's raw matches, concatenated in
    /// shard-id order — the order the reduce folds partials in.
    fn scan_all(
        shards: &[Arc<Ingester>],
    ) -> impl Fn(&Selector, Timestamp, Timestamp) -> Vec<(LabelSet, Vec<LogEntry>)> + '_ {
        |sel, s, e| shards.iter().flat_map(|shard| shard.query_stats(sel, s, e).0).collect()
    }

    #[test]
    fn partials_equal_reference_across_ops() {
        let shards = sharded_fleet();
        let (start, end, step) = (0, 70 * NANOS_PER_SEC, 10 * NANOS_PER_SEC);
        for q in [
            r#"count_over_time({app="x"}[30s])"#,
            r#"rate({app="x"}[30s])"#,
            r#"bytes_over_time({app="x"}[30s])"#,
            r#"bytes_rate({app="x"}[30s])"#,
            r#"sum by (stream) (rate({app="x"} |= "event" [30s]))"#,
            r#"sum(count_over_time({app="x"}[30s]))"#,
            r#"min(count_over_time({app="x"}[30s]))"#,
            r#"avg(sum_over_time({app="x"} | logfmt | unwrap v [30s]))"#,
            r#"avg_over_time({app="x"} | logfmt | unwrap v [30s])"#,
            r#"min_over_time({app="x"} | logfmt | unwrap v [30s])"#,
            r#"max_over_time({app="x"} | logfmt | unwrap v [30s])"#,
            r#"first_over_time({app="x"} | logfmt | unwrap v [30s])"#,
            r#"sum by (stream) (last_over_time({app="x"} | logfmt | unwrap v [30s]))"#,
            r#"topk(2, count_over_time({app="x"}[30s]))"#,
            r#"sum by (stream) (count_over_time({app="x"}[30s])) > 3"#,
        ] {
            let mq = metric_query(q);
            let mut fetch = reference_fetch(scan_all(&shards));
            let reference = eval_metric_range(&mq, start, end, step, &mut fetch).unwrap();
            let (matrix, stats) =
                run_range_query(&shards, &mq, &step_grid(start, end, step).unwrap());
            assert_eq!(matrix, reference, "{q}");
            assert!(!matrix.is_empty(), "{q}: the fleet has matching data");
            assert_eq!(stats.entries_shipped, 0, "{q}: metric queries must not ship entries");
            assert!(stats.partials_merged > 0, "{q}: partials must be accounted");
            assert_eq!(stats.entries_scanned, 60, "{q}: every entry scanned exactly once");
            // Instant evaluation reduces identically.
            let (vector, _) = run_instant_query(&shards, &mq, end);
            assert_eq!(vector, eval_metric_at(&mq, end, &mut fetch), "{q} (instant)");
        }
    }

    #[test]
    fn empty_shard_contributes_absence_not_identity_elements() {
        // Regression: a shard with no matching streams must merge as
        // *absent*. A `0` partial would poison `min()`/`avg()` above a
        // count, and a sentinel ±∞ partial would leak out of min/max
        // when every populated shard misses a window.
        let shards = sharded_fleet();
        let at = 65 * NANOS_PER_SEC;
        for q in [
            r#"min(count_over_time({app="x"}[30s]))"#,
            r#"avg(count_over_time({app="x"}[30s]))"#,
            r#"min_over_time({app="x"} | logfmt | unwrap v [30s])"#,
            r#"max_over_time({app="x"} | logfmt | unwrap v [30s])"#,
        ] {
            let mq = metric_query(q);
            let (pushed, _) = run_instant_query(&shards, &mq, at);
            let reference = eval_metric_at(&mq, at, &mut reference_fetch(scan_all(&shards)));
            assert_eq!(pushed, reference, "{q}");
            assert!(!pushed.is_empty(), "{q}: the populated shards do contribute");
            assert!(pushed.iter().all(|(_, v)| v.is_finite() && *v != 0.0), "{q}: {pushed:?}");
        }
        // A window past all data: every shard is "empty" — the result
        // must be the empty vector, not zeros or infinities.
        let mq = metric_query(r#"sum(count_over_time({app="x"}[30s]))"#);
        let far = 10_000 * NANOS_PER_SEC;
        assert!(run_instant_query(&shards, &mq, far).0.is_empty());
    }

    #[test]
    fn pushdown_reduce_is_deterministic_across_runs() {
        // Regression: partials merge in shard-id order, not scoped-thread
        // completion order, so repeated runs are byte-identical (floats
        // compared by bit pattern, not approximate equality).
        let shards = sharded_fleet();
        let mq = metric_query(r#"avg(avg_over_time({app="x"} | logfmt | unwrap v [30s]))"#);
        let bits = |m: &Matrix| -> Vec<(LabelSet, Vec<(i64, u64)>)> {
            m.iter()
                .map(|(l, ss)| (l.clone(), ss.iter().map(|s| (s.ts, s.value.to_bits())).collect()))
                .collect()
        };
        let steps = step_grid(0, 70 * NANOS_PER_SEC, 10 * NANOS_PER_SEC).unwrap();
        let (first, _) = run_range_query(&shards, &mq, &steps);
        for _ in 0..10 {
            let (again, _) = run_range_query(&shards, &mq, &steps);
            assert_eq!(bits(&first), bits(&again));
        }
    }

    #[test]
    fn range_query_with_sentinel_start_does_not_overflow() {
        // Regression: `start - range_ns` overflowed i64 for sentinel
        // starts near `i64::MIN` (debug builds panicked).
        let shards = shard_with(10);
        let mq = metric_query(r#"count_over_time({app="x"}[1m])"#);
        let start = i64::MIN + 1;
        let step = NANOS_PER_SEC;
        let steps = step_grid(start, start + 2 * step, step).unwrap();
        let (matrix, _) = run_range_query(&shards, &mq, &steps);
        assert!(matrix.is_empty(), "no data that far in the past");
    }
}
