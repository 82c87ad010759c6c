//! Aggregation pushdown: per-shard partial aggregates and the
//! frontend-side merge.
//!
//! A fleet-wide dashboard aggregate (`sum by (...) (rate({...}[5m]))`)
//! evaluated centrally ships every matching entry from every shard to
//! one reducer. Real Loki's query frontend instead *decomposes* such
//! queries: each sub-querier evaluates the bottom range aggregation over
//! its own shard (map) and returns one row of per-step partial scalars
//! per label group; the frontend merges the partials and applies the vector
//! aggregation tree on top (reduce). This module holds the pure pieces
//! of that split:
//!
//! * [`PartialAgg`] — the partial state one shard contributes for one
//!   label group. Every range aggregation has one: counts and sums
//!   merge by addition, `min`/`max` by fold, `avg_over_time` travels as
//!   its `sum`+`count` decomposition and divides only at
//!   [`PartialAgg::finish`], and `first`/`last_over_time` carry the
//!   timestamp that selected their value;
//! * [`shard_rows`] — the shard-side evaluator, series-major: raw stream
//!   entries in, each through the one executor [`Pipeline::process`], one
//!   [`PartialRow`] per label group out, holding one optional partial per
//!   step of the grid. A group's cells come from one forward sweep of
//!   its timestamp-sorted column ([`step_windows`]);
//! * [`merge_rows`] / [`reduce_rows`] — the frontend-side reduce: every
//!   shard's label-sorted rows, concatenated in shard-id order, merge in
//!   one linear pass ([`merge_runs`]: a stable sort, then each run of
//!   equal labels folded cell-wise in shard-id order), finish, and the
//!   tree above the range aggregation runs once over the whole grid,
//!   reconstructing exactly what the central evaluator would have built
//!   step by step.
//!
//! Identity discipline: a shard group with no contributing entries (or
//! no unwrapped values, for `unwrap` aggregations) emits **no** partial
//! — never a `0` for `sum`/`count` or a sentinel infinity for
//! `min`/`max` — matching the central evaluator, which skips empty
//! groups entirely.

use crate::ast::{MetricQuery, RangeAggOp, Stage};
use crate::eval::{filter_grid, merge_runs, step_windows, vector_agg_grid, SeriesGrid};
use crate::pipeline::Pipeline;
use omni_model::{LabelSet, LogEntry, Timestamp, NANOS_PER_SEC};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;

/// The range-aggregation operator at the bottom of the query tree.
pub fn bottom_op(mq: &MetricQuery) -> RangeAggOp {
    match mq {
        MetricQuery::RangeAgg { op, .. } => *op,
        MetricQuery::VectorAgg { inner, .. } => bottom_op(inner),
        MetricQuery::Filter { inner, .. } => bottom_op(inner),
    }
}

/// One shard's partial aggregate for one label group in one step window.
///
/// Rate-style ops travel *pre-division* (the raw count or byte sum);
/// dividing by the window seconds happens once in [`Self::finish`], so
/// the merged result is the same expression the central evaluator
/// computes — not a sum of per-shard quotients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartialAgg {
    /// Running sum: entry count (`count_over_time`/`rate`), byte sum
    /// (`bytes_over_time`/`bytes_rate`), or unwrapped-value sum
    /// (`sum_over_time`).
    Sum(f64),
    /// Running minimum over unwrapped values (`min_over_time`).
    Min(f64),
    /// Running maximum over unwrapped values (`max_over_time`).
    Max(f64),
    /// `avg_over_time` decomposed as its sum and count.
    SumCount {
        /// Sum of unwrapped values.
        sum: f64,
        /// Number of unwrapped values.
        count: f64,
    },
    /// `first_over_time`: the value at the smallest timestamp seen.
    First {
        /// Timestamp of the selected entry.
        ts: Timestamp,
        /// Its unwrapped value.
        v: f64,
    },
    /// `last_over_time`: the value at the largest timestamp seen.
    Last {
        /// Timestamp of the selected entry.
        ts: Timestamp,
        /// Its unwrapped value.
        v: f64,
    },
}

impl PartialAgg {
    /// Fold another shard's partial for the same label group into this
    /// one. Both sides always carry the same variant — the kind is a
    /// function of the (single) bottom operator of the query.
    pub fn merge(&mut self, other: PartialAgg) {
        match (self, other) {
            (PartialAgg::Sum(a), PartialAgg::Sum(b)) => *a += b,
            (PartialAgg::Min(a), PartialAgg::Min(b)) => *a = a.min(b),
            (PartialAgg::Max(a), PartialAgg::Max(b)) => *a = a.max(b),
            (
                PartialAgg::SumCount { sum: s, count: c },
                PartialAgg::SumCount { sum: os, count: oc },
            ) => {
                *s += os;
                *c += oc;
            }
            // Folded in arrival (then shard-id) order, these two are
            // `min_by_key` / `max_by_key` over the concatenation: a tied
            // timestamp keeps the earliest arrival for `first` and the
            // latest for `last`, as `eval_range_agg` documents.
            (PartialAgg::First { ts, v }, PartialAgg::First { ts: ots, v: ov }) => {
                if ots < *ts {
                    (*ts, *v) = (ots, ov);
                }
            }
            (PartialAgg::Last { ts, v }, PartialAgg::Last { ts: ots, v: ov }) => {
                if ots >= *ts {
                    (*ts, *v) = (ots, ov);
                }
            }
            _ => unreachable!("partials of one query share a single kind"),
        }
    }

    /// Produce the final value the central evaluator would have
    /// computed for this group: the identity for already-final sums,
    /// one division for the rate ops and for `avg_over_time`.
    pub fn finish(self, op: RangeAggOp, range_ns: i64) -> f64 {
        let secs = range_ns as f64 / NANOS_PER_SEC as f64;
        match (op, self) {
            (RangeAggOp::CountOverTime, PartialAgg::Sum(n)) => n,
            (RangeAggOp::Rate, PartialAgg::Sum(n)) => n / secs,
            (RangeAggOp::BytesOverTime, PartialAgg::Sum(b)) => b,
            (RangeAggOp::BytesRate, PartialAgg::Sum(b)) => b / secs,
            (RangeAggOp::SumOverTime, PartialAgg::Sum(s)) => s,
            (RangeAggOp::MinOverTime, PartialAgg::Min(v)) => v,
            (RangeAggOp::MaxOverTime, PartialAgg::Max(v)) => v,
            (RangeAggOp::AvgOverTime, PartialAgg::SumCount { sum, count }) => sum / count,
            (RangeAggOp::FirstOverTime, PartialAgg::First { v, .. }) => v,
            (RangeAggOp::LastOverTime, PartialAgg::Last { v, .. }) => v,
            _ => unreachable!("partial kind does not match the bottom operator"),
        }
    }
}

/// One label group's contribution from one shard over the whole step
/// grid: one optional partial per step. `None` is absence — never a `0`
/// or an infinity — and a row always has at least one `Some` cell.
pub type PartialRow = (LabelSet, Vec<Option<PartialAgg>>);

/// What one matched entry adds to its group's column: nothing but its
/// presence for the counting ops, its line bytes for the byte ops, its
/// unwrapped value for the rest — `None` when there is no such value,
/// and the entry then contributes to no window.
fn contribution(op: RangeAggOp, line_bytes: usize, unwrapped: Option<f64>) -> Option<f64> {
    match op {
        RangeAggOp::CountOverTime | RangeAggOp::Rate => Some(1.0),
        RangeAggOp::BytesOverTime | RangeAggOp::BytesRate => Some(line_bytes as f64),
        _ => unwrapped,
    }
}

/// Fill one group's row from its timestamp-sorted `(ts, contribution)`
/// column: the steps' windows `(t − range, t]` come from one forward
/// sweep ([`step_windows`]), and each is then a length (counts), a
/// prefix-sum difference (bytes — exact, the sums are integer-valued) or
/// a fold of the slice in column order (unwrapped values, one unit
/// partial per entry).
fn fill_row(
    op: RangeAggOp,
    column: &[(Timestamp, f64)],
    steps: &[Timestamp],
    range_ns: i64,
) -> Vec<Option<PartialAgg>> {
    let mut prefix = Vec::new();
    if matches!(op, RangeAggOp::BytesOverTime | RangeAggOp::BytesRate) {
        let mut run = 0.0;
        prefix.push(run);
        prefix.extend(column.iter().map(|&(_, bytes)| {
            run += bytes;
            run
        }));
    }
    step_windows(column, |&(ts, _)| ts, steps, range_ns)
        .map(|Range { start: lo, end: hi }| {
            if hi == lo {
                return None;
            }
            Some(match op {
                RangeAggOp::CountOverTime | RangeAggOp::Rate => PartialAgg::Sum((hi - lo) as f64),
                RangeAggOp::BytesOverTime | RangeAggOp::BytesRate => {
                    PartialAgg::Sum(prefix[hi] - prefix[lo])
                }
                _ => {
                    let unit = |&(ts, v): &(Timestamp, f64)| match op {
                        RangeAggOp::MinOverTime => PartialAgg::Min(v),
                        RangeAggOp::MaxOverTime => PartialAgg::Max(v),
                        RangeAggOp::AvgOverTime => PartialAgg::SumCount { sum: v, count: 1.0 },
                        RangeAggOp::FirstOverTime => PartialAgg::First { ts, v },
                        RangeAggOp::LastOverTime => PartialAgg::Last { ts, v },
                        _ => PartialAgg::Sum(v),
                    };
                    let mut acc = unit(&column[lo]);
                    column[lo + 1..hi].iter().for_each(|e| acc.merge(unit(e)));
                    acc
                }
            })
        })
        .collect()
}

/// Shard-side map step: the bottom range aggregation's partials for
/// every label group over the whole step grid, from one shard's matched
/// streams. `streams` is the raw per-stream scan result; `steps` the
/// (ascending) evaluation grid. Returns one row per contributing group,
/// in ascending label order, plus the number of entries the pipeline
/// kept.
///
/// Every entry goes through [`Pipeline::process`] once. While its labels
/// come back borrowed (or rewritten to an equal set) its group is the
/// stream's own label set, whose column is looked up once per stream;
/// other rewritten labels find their group by value, so a set equal to
/// another stream's own set joins that stream's row. Each group's column
/// is in arrival order, stably sorted by timestamp *after* grouping so
/// equal timestamps stay in arrival order (what `first`/`last_over_time`
/// tie-break on). All label work is per group; filling the cells then
/// touches only timestamps and numbers.
pub fn shard_rows(
    stages: &[Stage],
    op: RangeAggOp,
    streams: &[(LabelSet, Vec<LogEntry>)],
    steps: &[Timestamp],
    range_ns: i64,
) -> (Vec<PartialRow>, usize) {
    let pipeline = Pipeline::new(stages);
    let mut columns: BTreeMap<LabelSet, Vec<(Timestamp, f64)>> = BTreeMap::new();
    let mut matched = 0;
    for (labels, entries) in streams {
        let mut own = columns.remove(labels).unwrap_or_default();
        for e in entries {
            let Some(p) = pipeline.process(&e.line, labels) else { continue };
            matched += 1;
            let Some(c) = contribution(op, p.line.len(), p.unwrapped) else { continue };
            match p.labels {
                Cow::Owned(rewritten) if rewritten != *labels => {
                    columns.entry(rewritten).or_default().push((e.ts, c));
                }
                _ => own.push((e.ts, c)),
            }
        }
        if !own.is_empty() {
            columns.insert(labels.clone(), own);
        }
    }
    let rows = columns
        .into_iter()
        .filter_map(|(labels, mut column)| {
            column.sort_by_key(|&(ts, _)| ts);
            let cells = fill_row(op, &column, steps, range_ns);
            cells.iter().any(Option::is_some).then_some((labels, cells))
        })
        .collect();
    (rows, matched)
}

/// Reduce step, part 1: every shard's rows — each shard's label-sorted,
/// as [`shard_rows`] returns them, concatenated in **shard-id order** —
/// to one label-sorted row per group, its cells folded with
/// [`PartialAgg::merge`] in shard-id order, so repeated runs merge floats
/// identically (scoped-thread completion order is not deterministic;
/// the join order is, and [`merge_runs`]' stable sort keeps it). Returns
/// the merged rows and the number of partials (non-empty cells) merged.
pub fn merge_rows(rows: Vec<PartialRow>) -> (Vec<PartialRow>, usize) {
    let merged = rows.iter().map(|(_, cells)| cells.iter().flatten().count()).sum();
    let rows = merge_runs(rows, |acc: &mut Vec<Option<PartialAgg>>, cells| {
        for (into, cell) in acc.iter_mut().zip(cells) {
            match (into, cell) {
                (Some(a), Some(b)) => a.merge(b),
                (into @ None, cell) => *into = cell,
                (Some(_), None) => {}
            }
        }
    });
    (rows, merged)
}

/// Reduce step, part 2: finish every merged cell and evaluate the
/// vector-aggregation / filter tree *above* the bottom range aggregation,
/// once, over the whole grid. `rows` are [`merge_rows`]' output, in
/// ascending label order — the order `eval_range_agg` emits a step's
/// vector in — so everything above (folds, `topk` tie-breaking) sees
/// what the step-major evaluator would have.
pub fn reduce_rows(mq: &MetricQuery, rows: Vec<PartialRow>) -> SeriesGrid {
    match mq {
        MetricQuery::RangeAgg { op, range_ns, .. } => rows
            .into_iter()
            .map(|(labels, cells)| {
                (labels, cells.into_iter().map(|c| c.map(|p| p.finish(*op, *range_ns))).collect())
            })
            .collect(),
        MetricQuery::VectorAgg { op, grouping, inner } => {
            vector_agg_grid(*op, grouping.as_ref(), reduce_rows(inner, rows))
        }
        MetricQuery::Filter { inner, op, scalar } => {
            filter_grid(reduce_rows(inner, rows), *op, *scalar)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_range_agg, grid_to_instant, RangeEntry};
    use crate::parser::{parse_expr, parse_log_query};
    use crate::Expr;
    use omni_model::labels;

    fn metric(text: &str) -> MetricQuery {
        match parse_expr(text).unwrap() {
            Expr::Metric(m) => m,
            Expr::Log(_) => panic!("expected a metric query"),
        }
    }

    const ALL_OPS: [&str; 10] = [
        "count_over_time",
        "rate",
        "bytes_over_time",
        "bytes_rate",
        "sum_over_time",
        "avg_over_time",
        "min_over_time",
        "max_over_time",
        "first_over_time",
        "last_over_time",
    ];

    /// The pipeline the split/merge tests run: `logfmt` reads the group
    /// (`loc`) and the value (`v`) out of each line; blanking `v` after
    /// the unwrap leaves `loc` as the group identity.
    const UNWRAP_V: &str = r#"{app="x"} | logfmt | unwrap v | label_format v="""#;

    /// One shard holding one stream.
    fn shard(entries: &[(Timestamp, &str)]) -> Vec<(LabelSet, Vec<LogEntry>)> {
        vec![(labels!("app" => "x"), entries.iter().map(|&(ts, l)| LogEntry::new(ts, l)).collect())]
    }

    /// What the central evaluator is handed: every shard's entries, in
    /// shard order, through the pipeline.
    fn central(q: &MetricQuery, shards: &[Vec<(LabelSet, Vec<LogEntry>)>]) -> Vec<RangeEntry> {
        let pipeline = Pipeline::new(&q.log_query().stages);
        let mut out = Vec::new();
        for (labels, entries) in shards.iter().flatten() {
            for e in entries {
                if let Some(p) = pipeline.process(&e.line, labels) {
                    out.push(RangeEntry {
                        ts: e.ts,
                        line_bytes: p.line.len(),
                        labels: p.labels.into_owned(),
                        unwrapped: p.unwrapped,
                    });
                }
            }
        }
        out
    }

    /// Map every shard, merge in shard order.
    fn merged(
        q: &MetricQuery,
        shards: &[Vec<(LabelSet, Vec<LogEntry>)>],
        steps: &[Timestamp],
    ) -> Vec<PartialRow> {
        let mut rows = Vec::new();
        for streams in shards {
            let (shard, _) =
                shard_rows(&q.log_query().stages, bottom_op(q), streams, steps, q.range_ns());
            rows.extend(shard);
        }
        merge_rows(rows).0
    }

    /// Dealing entries across two "shards" in every order-preserving
    /// way, merging rows in shard order, and finishing must equal the
    /// central single-pass evaluation over the shard-order concatenation
    /// — including `first`/`last_over_time` on tied timestamps, where the
    /// tie-break is arrival order.
    #[test]
    fn split_merge_equals_central_for_every_op() {
        let entries = [
            (1, "loc=x1 v=4"),
            (1, "loc=x1 v=9 pad"),
            (2, "loc=x1 v=2 padding"),
            (3, "loc=x2 v=8"),
            (4, "loc=x1 unwrappable"),
            (5, "loc=x2 v=6 p"),
            (5, "loc=x2 v=1 pa"),
            (5, "loc=x1 v=3 pad"),
            (5, "loc=x1 v=7 padd"),
        ];
        for op in ALL_OPS {
            let q = metric(&format!("{op}({UNWRAP_V} [60s])"));
            // Bit `i` of the mask sends entry `i` to shard 1; mask 0 is
            // all-on-one-shard.
            for mask in 0u32..1 << entries.len() {
                let (mut left, mut right) = (Vec::new(), Vec::new());
                for (i, e) in entries.iter().enumerate() {
                    if mask >> i & 1 == 0 { &mut left } else { &mut right }.push(*e);
                }
                let shards = [shard(&left), shard(&right)];
                let grid = reduce_rows(&q, merged(&q, &shards, &[10]));
                assert_eq!(
                    grid_to_instant(grid),
                    eval_range_agg(bottom_op(&q), &central(&q, &shards), q.range_ns()),
                    "{op} mask {mask:#b}"
                );
            }
        }
    }

    /// The empty-shard identity bugfix: a shard matching nothing must
    /// contribute *absence*, not `0` (sum/count) or a sentinel infinity
    /// (min/max).
    #[test]
    fn empty_shard_merges_as_absent() {
        let populated = shard(&[(1, "loc=x1 v=5")]);
        for op in
            ["count_over_time", "sum_over_time", "min_over_time", "max_over_time", "avg_over_time"]
        {
            let q = metric(&format!("{op}({UNWRAP_V} [1s])"));
            let stages = &q.log_query().stages;
            // The empty shard yields no rows at all.
            assert!(
                shard_rows(stages, bottom_op(&q), &[], &[1], q.range_ns()).0.is_empty(),
                "{op}"
            );
            let shards = [populated.clone(), Vec::new()];
            let merged = grid_to_instant(reduce_rows(&q, merged(&q, &shards, &[1])));
            assert_eq!(
                merged,
                eval_range_agg(bottom_op(&q), &central(&q, &shards), q.range_ns()),
                "{op}"
            );
            assert_eq!(merged.len(), 1, "{op}");
            // No infinities or zeros leaked into the reduce.
            assert!(merged.iter().all(|(_, v)| v.is_finite()), "{op}");
        }
        // A group whose unwraps all failed is absent too — not 0.
        let failed = shard(&[(1, "loc=x1 nothing to unwrap")]);
        for op in ["sum_over_time", "min_over_time"] {
            let q = metric(&format!("{op}({UNWRAP_V} [1s])"));
            let (rows, matched) =
                shard_rows(&q.log_query().stages, bottom_op(&q), &failed, &[1], q.range_ns());
            assert!(rows.is_empty(), "{op}");
            assert_eq!(matched, 1, "{op}: scanned and matched, just valueless");
        }
    }

    #[test]
    fn rate_partials_ship_pre_division_counts() {
        // (n1 + n2) / secs, not n1/secs + n2/secs: with 3 entries on one
        // side and 4 on the other over a 7s window both orderings agree
        // here, but the invariant is that division happens exactly once.
        let l = labels!("app" => "x");
        let q = metric(r#"rate({app="x"}[7s])"#);
        let left: Vec<(Timestamp, &str)> = (1..4).map(|i| (i, "l")).collect();
        let right: Vec<(Timestamp, &str)> = (4..8).map(|i| (i, "r")).collect();
        let acc = merged(&q, &[shard(&left), shard(&right)], &[7]);
        assert_eq!(acc, vec![(l.clone(), vec![Some(PartialAgg::Sum(7.0))])], "pre-division count");
        assert_eq!(grid_to_instant(reduce_rows(&q, acc)), vec![(l, 1.0)]);
    }

    #[test]
    fn merge_rows_folds_equal_labels_in_shard_order_and_counts_partials() {
        let (a, b, c) = (labels!("x" => "a"), labels!("x" => "b"), labels!("x" => "c"));
        let first = |ts, v| Some(PartialAgg::First { ts, v });
        // Three shards' label-sorted rows, concatenated in shard-id order.
        let rows: Vec<PartialRow> = vec![
            (b.clone(), vec![first(5, 1.0), None]),
            (c.clone(), vec![None, first(1, 9.0)]),
            (a.clone(), vec![first(2, 3.0), None]),
            (b.clone(), vec![first(5, 2.0), first(7, 4.0)]),
            (b.clone(), vec![None, first(6, 6.0)]),
        ];
        let (merged, partials) = merge_rows(rows);
        assert_eq!(partials, 6);
        // The tie at ts 5 keeps shard 0's value; the earlier ts 6 from
        // shard 2 replaces shard 1's ts 7.
        assert_eq!(
            merged,
            vec![
                (a, vec![first(2, 3.0), None]),
                (b, vec![first(5, 1.0), first(6, 6.0)]),
                (c, vec![None, first(1, 9.0)]),
            ]
        );
        assert_eq!(merge_rows(Vec::new()), (Vec::new(), 0));
    }

    #[test]
    fn reduce_rows_applies_the_tree_above_the_range_agg() {
        let q = metric(r#"sum by (sev) (count_over_time({a="b"}[1m])) > 2"#);
        let inner: Vec<PartialRow> = vec![
            (labels!("sev" => "warn", "loc" => "x1"), vec![Some(PartialAgg::Sum(2.0)), None]),
            (labels!("sev" => "warn", "loc" => "x2"), vec![Some(PartialAgg::Sum(3.0)), None]),
            (labels!("sev" => "crit", "loc" => "x3"), vec![Some(PartialAgg::Sum(1.0)), None]),
        ];
        assert_eq!(
            reduce_rows(&q, inner.clone()),
            vec![(labels!("sev" => "warn"), vec![Some(5.0), None])]
        );
        // A bare range aggregation only finishes the cells.
        let bare = metric(r#"count_over_time({a="b"}[1m])"#);
        let finished = reduce_rows(&bare, inner);
        assert_eq!(finished.len(), 3);
        assert_eq!(finished[2], (labels!("sev" => "crit", "loc" => "x3"), vec![Some(1.0), None]));
    }

    #[test]
    fn filter_only_and_parsing_pipelines_fill_the_same_rows() {
        let stages = parse_log_query(r#"{a="b"} |= "keep""#).unwrap().stages;
        let s1 = labels!("a" => "b", "stream" => "1");
        let s2 = labels!("a" => "b", "stream" => "2");
        let streams = vec![
            (
                s1.clone(),
                vec![
                    LogEntry::new(NANOS_PER_SEC, "keep one"),
                    LogEntry::new(2 * NANOS_PER_SEC, "drop this"),
                    LogEntry::new(3 * NANOS_PER_SEC, "keep two"),
                ],
            ),
            (s2.clone(), vec![LogEntry::new(2 * NANOS_PER_SEC, "keep three")]),
        ];
        let steps = vec![2 * NANOS_PER_SEC, 4 * NANOS_PER_SEC];
        let range = 2 * NANOS_PER_SEC;
        let (rows, matched) =
            shard_rows(&stages, RangeAggOp::CountOverTime, &streams, &steps, range);
        assert_eq!(matched, 3);
        // Window (0, 2]: s1 has "keep one", s2 "keep three"; window
        // (2, 4]: only s1's "keep two".
        let one = Some(PartialAgg::Sum(1.0));
        assert_eq!(rows, vec![(s1, vec![one, one]), (s2, vec![one, None])]);
        // A stage set that is not filter-only (a label comparison that
        // always passes) must agree, bytes included.
        let mut parsing = stages.clone();
        parsing.push(Stage::LabelCmpString {
            label: "a".into(),
            negated: false,
            value: "b".into(),
        });
        for op in [RangeAggOp::CountOverTime, RangeAggOp::BytesOverTime] {
            let filtered = shard_rows(&stages, op, &streams, &steps, range);
            assert_eq!(shard_rows(&parsing, op, &streams, &steps, range), filtered, "{op:?}");
        }
    }

    #[test]
    fn unwrap_op_without_unwrap_stage_is_empty() {
        // `sum_over_time` with a filter-only pipeline can never unwrap a
        // value; the central evaluator returns nothing and so must we —
        // while still counting the matched entries.
        let streams =
            vec![(labels!("a" => "b"), vec![LogEntry::new(1, "x"), LogEntry::new(2, "y")])];
        let (rows, matched) =
            shard_rows(&[], RangeAggOp::SumOverTime, &streams, &[5], NANOS_PER_SEC);
        assert!(rows.is_empty());
        assert_eq!(matched, 2);
    }

    #[test]
    fn tied_timestamps_keep_arrival_order_within_a_group() {
        // Two streams fold into one post-pipeline group, out of order and
        // with equal timestamps: the column is sorted stably *after*
        // grouping, so among the ties `first` keeps the earliest arrival
        // and `last` the latest.
        let shards = [vec![
            (labels!("s" => "1"), vec![LogEntry::new(5, "v=1"), LogEntry::new(5, "v=2")]),
            (
                labels!("s" => "2"),
                vec![LogEntry::new(8, "v=4"), LogEntry::new(5, "v=3"), LogEntry::new(8, "v=5")],
            ),
        ]];
        for (op, expected) in [("first_over_time", 1.0), ("last_over_time", 5.0)] {
            let q = metric(&format!(
                r#"{op}({{s=~".+"}} | logfmt | unwrap v | label_format v="" | label_format s="" [10s])"#
            ));
            let got = grid_to_instant(reduce_rows(&q, merged(&q, &shards, &[9])));
            assert_eq!(got, eval_range_agg(bottom_op(&q), &central(&q, &shards), q.range_ns()));
            assert_eq!(got, vec![(labels!("s" => "", "v" => ""), expected)], "{op}");
        }
    }

    /// One group fed two ways: stream `{a="x", s="1", v="3"}`'s entries
    /// keep their labels borrowed (`{}` extracts nothing, and `v`, there
    /// for the unwrapping ops, comes from the stream), while stream
    /// `{a="x", v="3"}` rewrites its labels to an equal set (`{"s":"1"}`).
    /// Every op must see one row, not two with the same labels, and equal
    /// the central evaluation.
    #[test]
    fn borrowed_and_rewritten_labels_share_one_row() {
        let own = labels!("a" => "x", "s" => "1", "v" => "3");
        let shards = [vec![
            (own.clone(), vec![LogEntry::new(1, "{}"), LogEntry::new(4, "{}")]),
            (labels!("a" => "x", "v" => "3"), vec![LogEntry::new(2, r#"{"s":"1"}"#)]),
            (own.clone(), vec![LogEntry::new(3, "{}")]),
        ]];
        for op in ALL_OPS {
            let q = metric(&format!(r#"{op}({{a="x"}} | json | unwrap v [60s])"#));
            let stages = &q.log_query().stages;
            let pipeline = Pipeline::new(stages);
            let [(s0, e0), (s1, e1), _] = &shards[0][..] else { unreachable!() };
            let borrowed = pipeline.process(&e0[0].line, s0).unwrap().labels;
            assert!(matches!(borrowed, Cow::Borrowed(_)), "{op}");
            let rewritten = pipeline.process(&e1[0].line, s1).unwrap().labels;
            assert!(matches!(rewritten, Cow::Owned(l) if l == own), "{op}");

            let (rows, matched) =
                shard_rows(stages, bottom_op(&q), &shards[0], &[10], q.range_ns());
            assert_eq!(matched, 4, "{op}");
            assert_eq!(rows.len(), 1, "{op}: one row");
            assert_eq!(rows[0].0, own, "{op}");
            let grid = reduce_rows(&q, merged(&q, &shards, &[10]));
            assert_eq!(
                grid_to_instant(grid),
                eval_range_agg(bottom_op(&q), &central(&q, &shards), q.range_ns()),
                "{op}"
            );
        }
    }
}
