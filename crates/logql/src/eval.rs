//! Aggregation evaluation, in two shapes.
//!
//! **Step-major** — [`eval_range_agg`], [`eval_vector_agg`],
//! [`eval_filter`], [`eval_metric_at`], [`eval_metric_range`]: one
//! instant vector per step, the definition of what a query means. This
//! is the reference evaluator the property tests drive; production code
//! no longer calls it.
//!
//! **Series-major** — [`SeriesGrid`], [`vector_agg_grid`],
//! [`filter_grid`], [`grid_to_matrix`]: one row per label set holding one
//! optional cell per step, so label work (group keys, comparisons, map
//! inserts) happens once per row instead of once per cell. Loki's
//! pushdown reduce and the TSDB's PromQL evaluator both run on it. Every
//! grid operator folds a step's present members in input-row order with
//! the fold its step-major twin uses, so the two shapes agree bit for bit.
//!
//! Two routines keep the series-major path linear, and both engines
//! share them: [`merge_runs`] (with [`merge_series`] on top) combines
//! label-sorted rows — shard partials, grid rows, cached extents — in
//! one pass instead of re-sorting them through a map, and
//! [`step_windows`] sweeps every step's window `(t − reach, t]` over one
//! series with two forward cursors instead of two binary searches per
//! step.

use crate::ast::{CmpOp, GroupKind, Grouping, LogQuery, MetricQuery, RangeAggOp, VectorAggOp};
use omni_model::{LabelSet, Sample, Timestamp, NANOS_PER_SEC};
use std::collections::BTreeMap;
use std::ops::Range;

/// One pipeline-processed entry handed to a range aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeEntry {
    /// Entry timestamp.
    pub ts: Timestamp,
    /// Post-pipeline labels (grouping identity).
    pub labels: LabelSet,
    /// Line length in bytes (for `bytes_over_time`).
    pub line_bytes: usize,
    /// `| unwrap` value if the pipeline extracted one.
    pub unwrapped: Option<f64>,
}

/// An instant vector: one value per label set.
pub type InstantVector = Vec<(LabelSet, f64)>;

/// A range matrix: one series of samples per label set.
pub type Matrix = Vec<(LabelSet, Vec<Sample>)>;

/// Evaluate a range aggregation over the entries inside one window.
/// Entries are grouped by their post-pipeline labels, so multiple leaks in
/// different locations yield "multiple vectors with different labels
/// instead of one vector without labels" (§IV-A).
pub fn eval_range_agg(op: RangeAggOp, entries: &[RangeEntry], range_ns: i64) -> InstantVector {
    let mut groups: BTreeMap<LabelSet, Vec<&RangeEntry>> = BTreeMap::new();
    for e in entries {
        groups.entry(e.labels.clone()).or_default().push(e);
    }
    let secs = range_ns as f64 / NANOS_PER_SEC as f64;
    let mut out = Vec::with_capacity(groups.len());
    for (labels, group) in groups {
        let value = match op {
            RangeAggOp::CountOverTime => group.len() as f64,
            RangeAggOp::Rate => group.len() as f64 / secs,
            RangeAggOp::BytesOverTime => group.iter().map(|e| e.line_bytes as f64).sum(),
            RangeAggOp::BytesRate => group.iter().map(|e| e.line_bytes as f64).sum::<f64>() / secs,
            RangeAggOp::SumOverTime
            | RangeAggOp::AvgOverTime
            | RangeAggOp::MinOverTime
            | RangeAggOp::MaxOverTime
            | RangeAggOp::FirstOverTime
            | RangeAggOp::LastOverTime => {
                let values: Vec<(Timestamp, f64)> =
                    group.iter().filter_map(|e| e.unwrapped.map(|v| (e.ts, v))).collect();
                if values.is_empty() {
                    continue; // nothing unwrapped in this group
                }
                match op {
                    RangeAggOp::SumOverTime => values.iter().map(|&(_, v)| v).sum(),
                    RangeAggOp::AvgOverTime => {
                        values.iter().map(|&(_, v)| v).sum::<f64>() / values.len() as f64
                    }
                    RangeAggOp::MinOverTime => {
                        values.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min)
                    }
                    RangeAggOp::MaxOverTime => {
                        values.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max)
                    }
                    // Selected by timestamp, not arrival order: entries
                    // reach a window via per-chunk decodes and shard
                    // fan-out, so the slice is not guaranteed sorted.
                    // Ties keep the earliest (first) / latest (last)
                    // arrival, matching a stable sort by timestamp.
                    RangeAggOp::FirstOverTime => {
                        values.iter().copied().min_by_key(|&(ts, _)| ts).unwrap().1
                    }
                    RangeAggOp::LastOverTime => {
                        values.iter().copied().max_by_key(|&(ts, _)| ts).unwrap().1
                    }
                    _ => unreachable!(),
                }
            }
        };
        out.push((labels, value));
    }
    out
}

/// Apply a vector aggregation with optional grouping.
pub fn eval_vector_agg(
    op: VectorAggOp,
    grouping: Option<&Grouping>,
    input: InstantVector,
) -> InstantVector {
    // topk/bottomk keep original label sets; handle separately.
    if let VectorAggOp::Topk(k) | VectorAggOp::Bottomk(k) = op {
        let mut v = input;
        rank(op, &mut v, |e| e.1);
        v.truncate(k);
        v.sort_by(|a, b| a.0.cmp(&b.0));
        return v;
    }
    let mut groups: BTreeMap<LabelSet, Vec<f64>> = BTreeMap::new();
    for (labels, value) in input {
        groups.entry(group_key(grouping, &labels)).or_default().push(value);
    }
    groups.into_iter().map(|(labels, values)| (labels, fold_group(op, &values))).collect()
}

/// The output label set of `labels` under a grouping clause.
fn group_key(grouping: Option<&Grouping>, labels: &LabelSet) -> LabelSet {
    match grouping {
        Some(Grouping { kind: GroupKind::By, labels: keys }) => labels.project(keys),
        Some(Grouping { kind: GroupKind::Without, labels: keys }) => labels.without(keys),
        None => LabelSet::new(),
    }
}

/// Fold one non-empty group's member values, in member order.
fn fold_group(op: VectorAggOp, values: &[f64]) -> f64 {
    match op {
        VectorAggOp::Sum => values.iter().sum(),
        VectorAggOp::Min => values.iter().cloned().fold(f64::INFINITY, f64::min),
        VectorAggOp::Max => values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        VectorAggOp::Avg => values.iter().sum::<f64>() / values.len() as f64,
        VectorAggOp::Count => values.len() as f64,
        VectorAggOp::Topk(_) | VectorAggOp::Bottomk(_) => unreachable!("ranked, not folded"),
    }
}

/// Sort `items` best first for `topk` (descending by value) or `bottomk`
/// (ascending), every NaN after every number: as in Prometheus, a NaN is
/// picked only when fewer than `k` numbers are present. A total order,
/// so the sort cannot panic on NaN. Equal values keep the first item
/// ahead for `topk` and the last for `bottomk` (the items are reversed,
/// then stably sorted).
fn rank<T>(op: VectorAggOp, items: &mut [T], value: impl Fn(&T) -> f64) {
    let bottom = matches!(op, VectorAggOp::Bottomk(_));
    if bottom {
        items.reverse();
    }
    items.sort_by(|a, b| {
        let (a, b) = (value(a), value(b));
        match a.partial_cmp(&b) {
            Some(order) if bottom => order,
            Some(order) => order.reverse(),
            None => a.is_nan().cmp(&b.is_nan()),
        }
    });
}

/// Keep vector elements whose value satisfies `op scalar`.
pub fn eval_filter(input: InstantVector, op: CmpOp, scalar: f64) -> InstantVector {
    input.into_iter().filter(|(_, v)| op.apply(*v, scalar)).collect()
}

/// Evaluate a full metric query at one instant.
///
/// `fetch` is the storage callback: given the bottom log query and a
/// half-open window `(start, end]`, it returns the pipeline-processed
/// entries. The engine in the Loki crate supplies it; tests can fake it.
pub fn eval_metric_at<F>(mq: &MetricQuery, at: Timestamp, fetch: &mut F) -> InstantVector
where
    F: FnMut(&LogQuery, Timestamp, Timestamp) -> Vec<RangeEntry>,
{
    match mq {
        MetricQuery::RangeAgg { op, query, range_ns } => {
            // `at` may be a sentinel near `i64::MIN`; a plain subtraction
            // would overflow past the minimum.
            let entries = fetch(query, at.saturating_sub(*range_ns), at);
            eval_range_agg(*op, &entries, *range_ns)
        }
        MetricQuery::VectorAgg { op, grouping, inner } => {
            let input = eval_metric_at(inner, at, fetch);
            eval_vector_agg(*op, grouping.as_ref(), input)
        }
        MetricQuery::Filter { inner, op, scalar } => {
            let input = eval_metric_at(inner, at, fetch);
            eval_filter(input, *op, *scalar)
        }
    }
}

/// The most points a range query's step grid may hold — Prometheus's and
/// Loki's resolution limit ("exceeded maximum resolution of 11,000
/// points per timeseries").
pub const MAX_GRID_POINTS: usize = 11_000;

/// Why a range query's step grid was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// The step is zero or negative.
    NonPositiveStep(i64),
    /// The grid would hold this many points, more than
    /// [`MAX_GRID_POINTS`].
    TooManyPoints(u128),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::NonPositiveStep(step) => {
                write!(f, "range query step must be positive, got {step}ns")
            }
            GridError::TooManyPoints(points) => write!(
                f,
                "range query would evaluate {points} steps, the limit is {MAX_GRID_POINTS}; \
                 use a wider step"
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// The evaluation step grid `start, start+step, ..` while `<= end` —
/// where every range query, LogQL or PromQL, takes its steps from. The
/// step must be positive and the grid at most [`MAX_GRID_POINTS`] long;
/// both are checked before anything is allocated. Steps advance with
/// checked arithmetic: a grid whose tail approaches `i64::MAX`
/// terminates instead of overflowing.
pub fn step_grid(
    start: Timestamp,
    end: Timestamp,
    step_ns: i64,
) -> Result<Vec<Timestamp>, GridError> {
    if step_ns <= 0 {
        return Err(GridError::NonPositiveStep(step_ns));
    }
    // The span of two timestamps can exceed `i64`, never `i128`.
    let points = if start > end {
        0
    } else {
        ((i128::from(end) - i128::from(start)) / i128::from(step_ns) + 1) as u128
    };
    if points > MAX_GRID_POINTS as u128 {
        return Err(GridError::TooManyPoints(points));
    }
    let mut out = Vec::with_capacity(points as usize);
    let mut t = start;
    while t <= end {
        out.push(t);
        t = match t.checked_add(step_ns) {
            Some(next) => next,
            None => break,
        };
    }
    Ok(out)
}

/// Evaluate a metric query over `[start, end]` at `step_ns` intervals,
/// producing a matrix (the shape Grafana plots in Figure 5).
pub fn eval_metric_range<F>(
    mq: &MetricQuery,
    start: Timestamp,
    end: Timestamp,
    step_ns: i64,
    fetch: &mut F,
) -> Result<Matrix, GridError>
where
    F: FnMut(&LogQuery, Timestamp, Timestamp) -> Vec<RangeEntry>,
{
    let mut series: BTreeMap<LabelSet, Vec<Sample>> = BTreeMap::new();
    for t in step_grid(start, end, step_ns)? {
        for (labels, value) in eval_metric_at(mq, t, fetch) {
            series.entry(labels).or_default().push(Sample::new(t, value));
        }
    }
    Ok(series.into_iter().collect())
}

/// Stable-sort label-tagged rows by label and fold each run of equal
/// labels into the run's first row, in input order — the one way rows
/// are combined on the range path: shard partials at the reduce, grid
/// rows into a [`Matrix`], a cached extent and its fresh steps. The sort
/// is linear on rows that arrive label-sorted (one run) and a run merge
/// on concatenated sorted parts; stability is what keeps equal labels
/// folding in input order.
pub fn merge_runs<T>(
    mut rows: Vec<(LabelSet, T)>,
    mut fold: impl FnMut(&mut T, T),
) -> Vec<(LabelSet, T)> {
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(LabelSet, T)> = Vec::with_capacity(rows.len());
    for (labels, value) in rows {
        match out.last_mut() {
            Some((last, acc)) if *last == labels => fold(acc, value),
            _ => out.push((labels, value)),
        }
    }
    out
}

/// Label-tagged sample lists, each ascending by timestamp, to the
/// label-sorted [`Matrix`]: [`merge_runs`], merging a run's samples by
/// timestamp — a tie keeps input order — and dropping series left with
/// no sample. Rows with equal labels interleave step by step; parts
/// over disjoint ascending runs of one grid concatenate.
pub fn merge_series(rows: Matrix) -> Matrix {
    let mut out = merge_runs(rows, |acc, samples| {
        *acc = merge_samples(std::mem::take(acc), samples);
    });
    out.retain(|(_, samples)| !samples.is_empty());
    out
}

/// Two timestamp-ascending sample lists merged; on a tied timestamp
/// `a`'s samples come first. `b` starting at or after `a`'s end (parts
/// of one grid in order) appends without a copy of `a`.
fn merge_samples(mut a: Vec<Sample>, b: Vec<Sample>) -> Vec<Sample> {
    if a.last().zip(b.first()).is_none_or(|(x, y)| x.ts <= y.ts) {
        a.extend(b);
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut rest = &b[..];
    for x in a {
        let earlier = rest.iter().take_while(|y| y.ts < x.ts).count();
        out.extend_from_slice(&rest[..earlier]);
        rest = &rest[earlier..];
        out.push(x);
    }
    out.extend_from_slice(rest);
    out
}

/// Every step's window `(t − reach, t]` over `items`, ascending by
/// `ts`, as an index range — one per step, in step order. `steps` must
/// ascend; then both window ends only move forward, so the whole sweep
/// is two cursors over `items` instead of two binary searches per step.
/// `t − reach` saturates, so steps near `i64::MIN` are fine.
pub fn step_windows<'a, T>(
    items: &'a [T],
    ts: impl Fn(&T) -> Timestamp + 'a,
    steps: &'a [Timestamp],
    reach: i64,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let (mut lo, mut hi) = (0, 0);
    let mut prev = Timestamp::MIN;
    steps.iter().map(move |&t| {
        debug_assert!(prev <= t, "steps must ascend: {t} after {prev}");
        prev = t;
        let from = t.saturating_sub(reach);
        while lo < items.len() && ts(&items[lo]) <= from {
            lo += 1;
        }
        while hi < items.len() && ts(&items[hi]) <= t {
            hi += 1;
        }
        lo..hi.max(lo)
    })
}

/// A range result in series-major form: one row per label set, one cell
/// per step of the grid the row was evaluated over (`None` = the series
/// has no value at that step). A row whose cells are all `None` means
/// the same as no row. Rows are in the order the step-major evaluator
/// would list their elements in any one step's vector.
pub type SeriesGrid = Vec<(LabelSet, Vec<Option<f64>>)>;

fn drop_empty_rows(grid: &mut SeriesGrid) {
    grid.retain(|(_, cells)| cells.iter().any(Option::is_some));
}

/// [`eval_vector_agg`] over every step of a grid at once. The group key
/// is computed once per input row; per step, the present members are
/// folded in input-row order — [`eval_vector_agg`]'s own fold over the
/// vector it would have seen at that step. `topk`/`bottomk` rank each
/// step's present rows, blank the cells that lose, and return the
/// surviving rows sorted by label.
pub fn vector_agg_grid(
    op: VectorAggOp,
    grouping: Option<&Grouping>,
    input: SeriesGrid,
) -> SeriesGrid {
    let steps = input.first().map_or(0, |(_, cells)| cells.len());
    if let VectorAggOp::Topk(k) | VectorAggOp::Bottomk(k) = op {
        let mut out = input;
        let mut ranked: Vec<(usize, f64)> = Vec::new();
        for si in 0..steps {
            ranked.clear();
            ranked.extend(out.iter().enumerate().filter_map(|(ri, row)| Some((ri, row.1[si]?))));
            rank(op, &mut ranked, |r| r.1);
            for &(ri, _) in ranked.iter().skip(k) {
                out[ri].1[si] = None;
            }
        }
        drop_empty_rows(&mut out);
        // The next operator up folds in row order, and the step-major
        // evaluator hands it a label-sorted vector.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        return out;
    }
    let mut groups: BTreeMap<LabelSet, Vec<usize>> = BTreeMap::new();
    for (ri, (labels, _)) in input.iter().enumerate() {
        groups.entry(group_key(grouping, labels)).or_default().push(ri);
    }
    let mut members: Vec<f64> = Vec::new();
    let mut out: SeriesGrid = groups
        .into_iter()
        .map(|(key, rows)| {
            let cells = (0..steps)
                .map(|si| {
                    members.clear();
                    members.extend(rows.iter().filter_map(|&ri| input[ri].1[si]));
                    (!members.is_empty()).then(|| fold_group(op, &members))
                })
                .collect();
            (key, cells)
        })
        .collect();
    drop_empty_rows(&mut out);
    out
}

/// [`eval_filter`] over every cell of a grid.
pub fn filter_grid(mut input: SeriesGrid, op: CmpOp, scalar: f64) -> SeriesGrid {
    for (_, cells) in &mut input {
        for cell in cells {
            *cell = cell.filter(|v| op.apply(*v, scalar));
        }
    }
    drop_empty_rows(&mut input);
    input
}

/// The vector a one-step grid holds, in row order.
pub fn grid_to_instant(grid: SeriesGrid) -> InstantVector {
    grid.into_iter().filter_map(|(labels, cells)| Some((labels, (*cells.first()?)?))).collect()
}

/// Rows to the label-sorted [`Matrix`] that stitching per-step vectors
/// through a `BTreeMap` yields: each row's present cells become samples,
/// then [`merge_series`] — linear on the label-sorted rows every reduce
/// and `by` aggregation hands over. Rows with equal label sets (PromQL's
/// `{l="v"}` across two metric names, once `__name__` is stripped)
/// become one series whose samples interleave step by step, in row
/// order.
pub fn grid_to_matrix(grid: SeriesGrid, steps: &[Timestamp]) -> Matrix {
    let rows = grid.into_iter().map(|(labels, cells)| {
        let samples = steps.iter().zip(cells).filter_map(|(&t, c)| Some(Sample::new(t, c?)));
        (labels, samples.collect())
    });
    merge_series(rows.collect())
}

/// Debug/CLI rendering of an instant vector, one element per line:
/// `{a="b"} => 1`.
pub fn instant_vector_to_string(v: &InstantVector) -> String {
    let mut out = String::new();
    for (labels, value) in v {
        out.push_str(&format!("{labels} => {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::Expr;
    use omni_model::labels;

    fn entry(ts: Timestamp, labels: LabelSet, bytes: usize, unwrapped: Option<f64>) -> RangeEntry {
        RangeEntry { ts, labels, line_bytes: bytes, unwrapped }
    }

    #[test]
    fn count_over_time_groups_by_labels() {
        let a = labels!("loc" => "x1");
        let b = labels!("loc" => "x2");
        let entries = vec![
            entry(1, a.clone(), 10, None),
            entry(2, a.clone(), 10, None),
            entry(3, b.clone(), 10, None),
        ];
        let v = eval_range_agg(RangeAggOp::CountOverTime, &entries, 60 * NANOS_PER_SEC);
        assert_eq!(v, vec![(a, 2.0), (b, 1.0)]);
    }

    #[test]
    fn rate_divides_by_window_seconds() {
        let l = labels!("a" => "b");
        let entries: Vec<_> = (0..120).map(|i| entry(i, l.clone(), 1, None)).collect();
        let v = eval_range_agg(RangeAggOp::Rate, &entries, 60 * NANOS_PER_SEC);
        assert_eq!(v, vec![(l, 2.0)]);
    }

    #[test]
    fn bytes_over_time_sums_line_bytes() {
        let l = labels!("a" => "b");
        let entries = vec![entry(1, l.clone(), 100, None), entry(2, l.clone(), 50, None)];
        let v = eval_range_agg(RangeAggOp::BytesOverTime, &entries, NANOS_PER_SEC);
        assert_eq!(v, vec![(l, 150.0)]);
    }

    #[test]
    fn unwrapped_aggregations() {
        let l = labels!("a" => "b");
        let entries = vec![
            entry(1, l.clone(), 0, Some(10.0)),
            entry(2, l.clone(), 0, Some(30.0)),
            entry(3, l.clone(), 0, None), // unwrap failed; skipped
        ];
        assert_eq!(
            eval_range_agg(RangeAggOp::SumOverTime, &entries, NANOS_PER_SEC),
            vec![(l.clone(), 40.0)]
        );
        assert_eq!(
            eval_range_agg(RangeAggOp::AvgOverTime, &entries, NANOS_PER_SEC),
            vec![(l.clone(), 20.0)]
        );
        assert_eq!(
            eval_range_agg(RangeAggOp::MinOverTime, &entries, NANOS_PER_SEC),
            vec![(l.clone(), 10.0)]
        );
        assert_eq!(
            eval_range_agg(RangeAggOp::MaxOverTime, &entries, NANOS_PER_SEC),
            vec![(l.clone(), 30.0)]
        );
        assert_eq!(
            eval_range_agg(RangeAggOp::FirstOverTime, &entries, NANOS_PER_SEC),
            vec![(l.clone(), 10.0)]
        );
        assert_eq!(
            eval_range_agg(RangeAggOp::LastOverTime, &entries, NANOS_PER_SEC),
            vec![(l, 30.0)]
        );
    }

    #[test]
    fn first_and_last_over_time_select_by_timestamp_not_arrival_order() {
        // Shard fan-out and per-chunk decodes don't promise sorted input:
        // the same window can arrive in any permutation. first/last must
        // pick by timestamp regardless.
        let l = labels!("a" => "b");
        let shuffled = vec![
            entry(20, l.clone(), 0, Some(200.0)),
            entry(30, l.clone(), 0, Some(300.0)), // latest ts
            entry(10, l.clone(), 0, Some(100.0)), // earliest ts
            entry(25, l.clone(), 0, None),        // unwrap failed; ignored
        ];
        assert_eq!(
            eval_range_agg(RangeAggOp::FirstOverTime, &shuffled, NANOS_PER_SEC),
            vec![(l.clone(), 100.0)]
        );
        assert_eq!(
            eval_range_agg(RangeAggOp::LastOverTime, &shuffled, NANOS_PER_SEC),
            vec![(l.clone(), 300.0)]
        );
        // The order-selected aggregations must not depend on permutation:
        // every arrival order yields the same answer.
        let mut perm = shuffled.clone();
        perm.reverse();
        for op in [RangeAggOp::FirstOverTime, RangeAggOp::LastOverTime] {
            assert_eq!(
                eval_range_agg(op, &shuffled, NANOS_PER_SEC),
                eval_range_agg(op, &perm, NANOS_PER_SEC)
            );
        }
    }

    #[test]
    fn all_unwraps_failing_yields_empty() {
        let l = labels!("a" => "b");
        let entries = vec![entry(1, l, 0, None)];
        assert!(eval_range_agg(RangeAggOp::SumOverTime, &entries, NANOS_PER_SEC).is_empty());
    }

    #[test]
    fn vector_sum_by() {
        let input = vec![
            (labels!("sev" => "warn", "loc" => "x1"), 1.0),
            (labels!("sev" => "warn", "loc" => "x2"), 2.0),
            (labels!("sev" => "crit", "loc" => "x3"), 5.0),
        ];
        let g = Grouping { kind: GroupKind::By, labels: vec!["sev".into()] };
        let v = eval_vector_agg(VectorAggOp::Sum, Some(&g), input);
        assert_eq!(v, vec![(labels!("sev" => "crit"), 5.0), (labels!("sev" => "warn"), 3.0)]);
    }

    #[test]
    fn vector_without() {
        let input = vec![
            (labels!("sev" => "warn", "loc" => "x1"), 1.0),
            (labels!("sev" => "warn", "loc" => "x2"), 2.0),
        ];
        let g = Grouping { kind: GroupKind::Without, labels: vec!["loc".into()] };
        let v = eval_vector_agg(VectorAggOp::Max, Some(&g), input);
        assert_eq!(v, vec![(labels!("sev" => "warn"), 2.0)]);
    }

    #[test]
    fn vector_agg_without_grouping_collapses() {
        let input = vec![(labels!("a" => "1"), 1.0), (labels!("a" => "2"), 3.0)];
        let v = eval_vector_agg(VectorAggOp::Avg, None, input.clone());
        assert_eq!(v, vec![(LabelSet::new(), 2.0)]);
        let v = eval_vector_agg(VectorAggOp::Count, None, input);
        assert_eq!(v, vec![(LabelSet::new(), 2.0)]);
    }

    #[test]
    fn topk_keeps_original_labels() {
        let input = vec![
            (labels!("x" => "1"), 10.0),
            (labels!("x" => "2"), 30.0),
            (labels!("x" => "3"), 20.0),
        ];
        let v = eval_vector_agg(VectorAggOp::Topk(2), None, input.clone());
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|(l, _)| l.get("x") == Some("2")));
        assert!(v.iter().any(|(l, _)| l.get("x") == Some("3")));
        let v = eval_vector_agg(VectorAggOp::Bottomk(1), None, input);
        assert_eq!(v[0].1, 10.0);
    }

    #[test]
    fn filter_thresholds() {
        let input = vec![(labels!("a" => "1"), 0.0), (labels!("a" => "2"), 2.0)];
        let v = eval_filter(input, CmpOp::Gt, 0.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 2.0);
    }

    #[test]
    fn figure5_step_behaviour() {
        // The leak event happens at T. count_over_time(...[60m]) evaluated
        // across a range must step 0 -> 1 at T and back to 0 after T+60m.
        let event_ts = 3_600 * NANOS_PER_SEC;
        let q = match parse_expr(
            r#"sum(count_over_time({data_type="redfish_event"} [60m])) by (context)"#,
        )
        .unwrap()
        {
            Expr::Metric(m) => m,
            _ => panic!(),
        };
        let lbl = labels!("context" => "x1203c1b0", "data_type" => "redfish_event");
        let mut fetch = |_q: &LogQuery, start: Timestamp, end: Timestamp| {
            if start < event_ts && event_ts <= end {
                vec![entry(event_ts, lbl.clone(), 80, None)]
            } else {
                Vec::new()
            }
        };
        let step = 600 * NANOS_PER_SEC; // 10 min
        let m = eval_metric_range(&q, 0, 3 * 3_600 * NANOS_PER_SEC, step, &mut fetch).unwrap();
        assert_eq!(m.len(), 1);
        let (labels, samples) = &m[0];
        assert_eq!(labels.get("context"), Some("x1203c1b0"));
        for s in samples {
            let in_window = s.ts >= event_ts && s.ts < event_ts + 3_600 * NANOS_PER_SEC;
            assert_eq!(s.value, if in_window { 1.0 } else { 0.0 }, "at ts {}", s.ts);
        }
        // The vector agg sums to 1 exactly while the event is inside the
        // 60-minute lookback.
        assert!(samples.iter().any(|s| s.value == 1.0));
    }

    #[test]
    fn step_grid_near_i64_max_terminates() {
        // Regression: the range evaluator used to advance with an
        // unchecked `t += step`, which overflowed (debug panic) when a
        // collapsed sentinel window put the grid tail near `i64::MAX`.
        let start = i64::MAX - 5;
        let grid = step_grid(start, i64::MAX, 3).unwrap();
        assert_eq!(grid, vec![start, start + 3]);
        // The evaluator walks the same grid without overflowing.
        let q = match parse_expr(r#"count_over_time({a="b"}[1m])"#).unwrap() {
            Expr::Metric(m) => m,
            _ => panic!(),
        };
        let mut fetch = |_: &LogQuery, _: Timestamp, _: Timestamp| Vec::new();
        let m = eval_metric_range(&q, start, i64::MAX, 3, &mut fetch).unwrap();
        assert!(m.is_empty());
        // A step as wide as the whole timeline: three points, no overflow.
        assert_eq!(
            step_grid(i64::MIN + 1, i64::MAX, i64::MAX).unwrap(),
            vec![i64::MIN + 1, 0, i64::MAX]
        );
    }

    #[test]
    fn step_grid_off_grid_start_is_preserved() {
        // The grid is anchored at `start`, not rounded: start % step != 0
        // must yield start + k*step exactly.
        assert_eq!(step_grid(50, 350, 100).unwrap(), vec![50, 150, 250, 350]);
        assert_eq!(step_grid(-50, 150, 100).unwrap(), vec![-50, 50, 150]);
    }

    #[test]
    fn step_grid_refuses_a_bad_step_and_an_oversized_grid() {
        // Regression: a zero or negative step used to hit an `assert!`.
        assert_eq!(step_grid(0, 100, 0), Err(GridError::NonPositiveStep(0)));
        assert_eq!(step_grid(0, 100, -5), Err(GridError::NonPositiveStep(-5)));
        // The resolution limit: 11 000 points answer, one more is refused
        // before the grid is allocated — even over the whole timeline.
        let max = MAX_GRID_POINTS as i64;
        assert_eq!(step_grid(0, max - 1, 1).unwrap().len(), MAX_GRID_POINTS);
        assert_eq!(step_grid(0, max, 1), Err(GridError::TooManyPoints(max as u128 + 1)));
        assert_eq!(step_grid(i64::MIN, i64::MAX, 1), Err(GridError::TooManyPoints(1 << 64)));
        // An empty window is an empty grid, not an error.
        assert_eq!(step_grid(10, 9, 1), Ok(Vec::new()));
        let mut fetch = |_: &LogQuery, _: Timestamp, _: Timestamp| Vec::new();
        let q = match parse_expr(r#"count_over_time({a="b"}[1m])"#).unwrap() {
            Expr::Metric(m) => m,
            _ => panic!(),
        };
        assert_eq!(
            eval_metric_range(&q, 0, 100, 0, &mut fetch),
            Err(GridError::NonPositiveStep(0))
        );
        assert!(GridError::TooManyPoints(11_001).to_string().contains("11000"));
    }

    /// A grid of non-integer values with holes, rows in label order;
    /// every fifth row is NaN wherever present (an exposition `NaN`, or
    /// `| unwrap` of `"NaN"`).
    fn holed_grid(rows: usize, steps: usize) -> SeriesGrid {
        let mut state = 22u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64
        };
        (0..rows)
            .map(|r| {
                let labels = labels!("g" => format!("{}", r % 3), "row" => format!("{r:02}"));
                let cells = (0..steps)
                    .map(|_| {
                        let v = (next() % 4.0 != 0.0).then(|| (next() % 1000.0) / 7.0);
                        v.map(|v| if r % 5 == 4 { f64::NAN } else { v })
                    })
                    .collect();
                (labels, cells)
            })
            .collect()
    }

    /// The vector a grid holds at one step, in row order.
    fn column(grid: &SeriesGrid, si: usize) -> InstantVector {
        grid.iter().filter_map(|(l, cells)| Some((l.clone(), cells[si]?))).collect()
    }

    fn bits(v: &InstantVector) -> Vec<(LabelSet, u64)> {
        v.iter().map(|(l, v)| (l.clone(), v.to_bits())).collect()
    }

    #[test]
    fn grid_operators_equal_their_step_major_twins_at_every_step() {
        let steps = 9;
        let grid = holed_grid(11, steps);
        let by = |l: &str| Some(Grouping { kind: GroupKind::By, labels: vec![l.into()] });
        let without = Some(Grouping { kind: GroupKind::Without, labels: vec!["row".into()] });
        for grouping in [None, by("g"), by("row"), by("nope"), without] {
            for op in [
                VectorAggOp::Sum,
                VectorAggOp::Min,
                VectorAggOp::Max,
                VectorAggOp::Avg,
                VectorAggOp::Count,
                VectorAggOp::Topk(3),
                VectorAggOp::Bottomk(2),
                VectorAggOp::Topk(0),
            ] {
                let out = vector_agg_grid(op, grouping.as_ref(), grid.clone());
                assert!(out.iter().all(|(_, c)| c.len() == steps && c.iter().any(Option::is_some)));
                for si in 0..steps {
                    let reference = eval_vector_agg(op, grouping.as_ref(), column(&grid, si));
                    assert_eq!(bits(&column(&out, si)), bits(&reference), "{op:?} step {si}");
                }
            }
        }
        let filtered = filter_grid(grid.clone(), CmpOp::Gt, 70.0);
        for si in 0..steps {
            assert_eq!(column(&filtered, si), eval_filter(column(&grid, si), CmpOp::Gt, 70.0));
        }
        assert!(
            filter_grid(grid, CmpOp::Lt, -1.0).is_empty(),
            "rows left with no cell are dropped"
        );
    }

    #[test]
    fn topk_ties_rank_by_row_order_and_rows_come_back_label_sorted() {
        // Rows arrive out of label order (PromQL selectors list series by
        // metric name first); equal values tie-break on input position —
        // first wins for topk, last for bottomk — and the output is
        // label-sorted, as `eval_vector_agg` leaves a step's vector.
        let grid: SeriesGrid = vec![
            (labels!("x" => "c"), vec![Some(1.0), Some(5.0)]),
            (labels!("x" => "a"), vec![Some(1.0), None]),
            (labels!("x" => "b"), vec![Some(1.0), Some(9.0)]),
        ];
        for op in [VectorAggOp::Topk(2), VectorAggOp::Bottomk(2)] {
            let out = vector_agg_grid(op, None, grid.clone());
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "{op:?}: {out:?}");
            for si in 0..2 {
                assert_eq!(
                    column(&out, si),
                    eval_vector_agg(op, None, column(&grid, si)),
                    "{op:?}"
                );
            }
        }
    }

    #[test]
    fn topk_and_bottomk_rank_nan_after_every_number_without_panicking() {
        // Regression: the rank comparator called NaN equal to everything,
        // which is not a total order; at 64 rows with every third value
        // NaN both evaluators panicked inside `sort_by`.
        let rows = 64;
        let value = |r: usize| if r.is_multiple_of(3) { f64::NAN } else { ((r * 37) % 101) as f64 };
        let vector: InstantVector =
            (0..rows).map(|r| (labels!("row" => format!("{r:02}")), value(r))).collect();
        let grid: SeriesGrid = vector.iter().map(|(l, v)| (l.clone(), vec![Some(*v)])).collect();
        let numbers = (0..rows).filter(|r| !r.is_multiple_of(3)).count();
        for op in [
            VectorAggOp::Topk(3),
            VectorAggOp::Bottomk(3),
            VectorAggOp::Topk(numbers + 2),
            VectorAggOp::Bottomk(numbers + 2),
        ] {
            let k = match op {
                VectorAggOp::Topk(k) | VectorAggOp::Bottomk(k) => k,
                _ => unreachable!(),
            };
            let reference = eval_vector_agg(op, None, vector.clone());
            let grid_out = vector_agg_grid(op, None, grid.clone());
            assert_eq!(bits(&column(&grid_out, 0)), bits(&reference), "{op:?}");
            assert_eq!(reference.len(), k, "{op:?}");
            // A NaN is picked only when fewer than k numbers are present.
            let nans = reference.iter().filter(|(_, v)| v.is_nan()).count();
            assert_eq!(nans, k.saturating_sub(numbers), "{op:?}");
        }
        // The numbers are ranked as if the NaNs were not there.
        let mut sorted: Vec<f64> = (0..rows).map(value).filter(|v| !v.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let top = eval_vector_agg(VectorAggOp::Topk(3), None, vector.clone());
        let mut values: Vec<f64> = top.iter().map(|(_, v)| *v).collect();
        values.sort_by(f64::total_cmp);
        assert_eq!(values, sorted[sorted.len() - 3..]);
        let bottom = eval_vector_agg(VectorAggOp::Bottomk(1), None, vector);
        assert_eq!(bottom.iter().map(|(_, v)| *v).collect::<Vec<_>>(), sorted[..1]);
    }

    #[test]
    fn grid_to_matrix_sorts_rows_skips_holes_and_interleaves_equal_labels() {
        let steps = [10, 20, 30];
        let grid: SeriesGrid = vec![
            (labels!("x" => "b"), vec![Some(1.0), None, Some(3.0)]),
            (labels!("x" => "a"), vec![None, Some(5.0), Some(6.0)]),
            (labels!("x" => "b"), vec![Some(7.0), Some(8.0), None]),
            (labels!("x" => "gone"), vec![None, None, None]),
        ];
        // What stitching the three step vectors through a BTreeMap gives.
        let mut stitched: BTreeMap<LabelSet, Vec<Sample>> = BTreeMap::new();
        for (si, &t) in steps.iter().enumerate() {
            for (labels, v) in column(&grid, si) {
                stitched.entry(labels).or_default().push(Sample::new(t, v));
            }
        }
        let matrix = grid_to_matrix(grid.clone(), &steps);
        assert_eq!(matrix, stitched.into_iter().collect::<Matrix>());
        assert_eq!(
            matrix[1].1.iter().map(|s| (s.ts, s.value)).collect::<Vec<_>>(),
            [(10, 1.0), (10, 7.0), (20, 8.0), (30, 3.0)]
        );
        // One step: the instant vector keeps row order and duplicates.
        let one: SeriesGrid = grid.into_iter().map(|(l, c)| (l, vec![c[0]])).collect();
        assert_eq!(
            grid_to_instant(one),
            vec![(labels!("x" => "b"), 1.0), (labels!("x" => "b"), 7.0)]
        );
        assert!(grid_to_matrix(Vec::new(), &steps).is_empty());
    }

    #[test]
    fn render_instant_vector() {
        let v: InstantVector = vec![(labels!("a" => "b"), 1.0)];
        assert_eq!(instant_vector_to_string(&v), "{a=\"b\"} => 1\n");
    }
}
