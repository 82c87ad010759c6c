//! Properties for the range path's two linear routines, each held bit
//! for bit (`f64::to_bits`) to the code it replaced, kept here as the
//! reference:
//!
//! * [`merge_series`] (and [`merge_rows`], both on `merge_runs`) against
//!   the `BTreeMap` stitches — `grid_to_matrix`'s map of rows, the
//!   frontend's `join_series` over disjoint step runs, and `merge_rows`'
//!   accumulator — over rows with repeated label sets, same-timestamp
//!   samples and empty rows;
//! * [`step_windows`] against two `partition_point`s per step, over
//!   ascending timestamps with duplicates, steps before the first sample
//!   and after the last, reach 0, a reach wider than the data, and steps
//!   near `i64::MIN`, where `t − reach` saturates.
//!
//! Mutations shown to fail these properties: `<=` → `<` on either
//! cursor of `step_windows`; `merge_samples` taking `b`'s sample first on
//! a tied timestamp; `sort_by` → `sort_unstable_by` in `merge_runs`.

use omni_logql::eval::{grid_to_matrix, merge_series, step_grid, step_windows, Matrix, SeriesGrid};
use omni_logql::pushdown::{merge_rows, PartialAgg, PartialRow};
use omni_model::{LabelSet, Sample, Timestamp};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// One of a few label sets — the empty set included — so rows repeat.
fn label(i: usize) -> LabelSet {
    match i {
        0 => LabelSet::new(),
        _ => LabelSet::from_pairs([("s", format!("{}", i % 3)), ("k", format!("{}", i / 3))]),
    }
}

/// A sample value: mostly non-integer numbers, sometimes NaN or `-0.0`.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![-1e3f64..1e3, -1e3f64..1e3, Just(f64::NAN), Just(-0.0)]
}

/// Label-tagged sample lists, each ascending by timestamp with ties;
/// some rows are empty and label sets repeat.
fn arb_rows() -> impl Strategy<Value = Matrix> {
    let row = (0usize..7, 0i64..40, prop::collection::vec((0i64..3, value()), 0..8));
    // Up to 60 rows: past the lengths a small-slice sort keeps stable.
    prop::collection::vec(row, 0..60).prop_map(|rows| {
        rows.into_iter()
            .map(|(l, t0, samples)| {
                let mut ts = t0;
                let samples = samples
                    .into_iter()
                    .map(|(dt, v)| {
                        ts += dt;
                        Sample::new(ts, v)
                    })
                    .collect();
                (label(l), samples)
            })
            .collect()
    })
}

/// Most cells a generated grid row holds.
const MAX_STEPS: usize = 12;

/// A grid of [`MAX_STEPS`] cells per row, with holes, repeated labels
/// and rows left with no cell.
fn arb_grid() -> impl Strategy<Value = SeriesGrid> {
    let cell = prop_oneof![Just(None), value().prop_map(Some)];
    let row = (0usize..7, prop::collection::vec(cell, MAX_STEPS));
    prop::collection::vec(row, 0..10)
        .prop_map(|rows| rows.into_iter().map(|(l, cells)| (label(l), cells)).collect())
}

/// `(first step, step, number of steps)`: a grid of up to [`MAX_STEPS`].
fn arb_steps() -> impl Strategy<Value = Vec<Timestamp>> {
    (-50i64..50, 1i64..20, 0usize..MAX_STEPS + 1)
        .prop_map(|(start, step, n)| step_grid(start, start + step * n as i64 - 1, step).unwrap())
}

fn bits(m: &Matrix) -> Vec<(LabelSet, Vec<(Timestamp, u64)>)> {
    m.iter()
        .map(|(l, ss)| (l.clone(), ss.iter().map(|s| (s.ts, s.value.to_bits())).collect()))
        .collect()
}

/// Each label's samples concatenated in input order through a map, then
/// stably sorted by timestamp, empty series dropped.
fn stitch_reference(rows: Matrix) -> Matrix {
    let mut series: BTreeMap<LabelSet, Vec<Sample>> = BTreeMap::new();
    for (labels, samples) in rows {
        series.entry(labels).or_default().extend(samples);
    }
    series
        .into_iter()
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(labels, mut samples)| {
            samples.sort_by_key(|s| s.ts);
            (labels, samples)
        })
        .collect()
}

/// `grid_to_matrix` as it was: rows grouped through a map, then per step
/// every row's cell in row order.
fn grid_to_matrix_reference(grid: SeriesGrid, steps: &[Timestamp]) -> Matrix {
    let mut series: BTreeMap<LabelSet, Vec<Vec<Option<f64>>>> = BTreeMap::new();
    for (labels, cells) in grid {
        series.entry(labels).or_default().push(cells);
    }
    series
        .into_iter()
        .filter_map(|(labels, rows)| {
            let samples: Vec<Sample> = steps
                .iter()
                .enumerate()
                .flat_map(|(si, &t)| rows.iter().filter_map(move |r| Some(Sample::new(t, r[si]?))))
                .collect();
            (!samples.is_empty()).then_some((labels, samples))
        })
        .collect()
}

/// The frontend's `join_series` as it was: each series' samples appended
/// in part order through a map.
fn join_series_reference(parts: &[Matrix]) -> Matrix {
    let mut series: BTreeMap<LabelSet, Vec<Sample>> = BTreeMap::new();
    for part in parts {
        for (labels, samples) in part {
            series.entry(labels.clone()).or_default().extend(samples.iter().copied());
        }
    }
    series.into_iter().collect()
}

/// `merge_rows` as it was: shards folded into a map, cell by cell.
fn merge_rows_reference(shards: &[Vec<PartialRow>]) -> Vec<PartialRow> {
    let mut acc: BTreeMap<LabelSet, Vec<Option<PartialAgg>>> = BTreeMap::new();
    for rows in shards {
        for (labels, cells) in rows {
            let Some(into) = acc.get_mut(labels) else {
                acc.insert(labels.clone(), cells.clone());
                continue;
            };
            for (into, cell) in into.iter_mut().zip(cells) {
                match (into, cell) {
                    (Some(a), Some(b)) => a.merge(*b),
                    (into @ None, cell) => *into = *cell,
                    (Some(_), None) => {}
                }
            }
        }
    }
    acc.into_iter().collect()
}

/// The parent's window: two binary searches per step.
fn window_reference(ts: &[Timestamp], t: Timestamp, reach: i64) -> Range<usize> {
    let from = ts.partition_point(|&x| x <= t.saturating_sub(reach));
    let to = ts.partition_point(|&x| x <= t);
    from..to.max(from)
}

proptest! {
    /// Arbitrary rows: `merge_series` equals concatenating each label's
    /// samples through a map and stably sorting them by timestamp — so a
    /// tied timestamp keeps input order — and leaves one row per label.
    #[test]
    fn merge_series_equals_the_map_stitch(rows in arb_rows()) {
        let got = merge_series(rows.clone());
        prop_assert_eq!(bits(&got), bits(&stitch_reference(rows)));
        prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "label-sorted, unique");
    }

    /// A grid — holes, repeated labels, all-empty rows, NaN cells —
    /// converts to the matrix the map of rows built, equal labels
    /// interleaving step by step in row order.
    #[test]
    fn grid_to_matrix_equals_the_map_of_rows(grid in arb_grid(), steps in arb_steps()) {
        let grid: SeriesGrid = grid
            .into_iter()
            .map(|(l, mut cells)| {
                cells.truncate(steps.len());
                (l, cells)
            })
            .collect();
        prop_assert_eq!(
            bits(&grid_to_matrix(grid.clone(), &steps)),
            bits(&grid_to_matrix_reference(grid, &steps))
        );
    }

    /// One grid's matrix cut into parts over disjoint ascending runs of
    /// steps (what a query's splits, or a cached extent and its fresh
    /// steps, hold): merging the concatenated parts equals the map join,
    /// and both equal the uncut matrix.
    #[test]
    fn joining_disjoint_step_runs_equals_the_map_join(
        grid in arb_grid(),
        cuts in prop::collection::vec(0usize..MAX_STEPS, 0..4),
    ) {
        let steps = step_grid(0, (MAX_STEPS as i64 - 1) * 10, 10).unwrap();
        let whole = grid_to_matrix_reference(grid, &steps);
        let mut bounds = cuts;
        bounds.extend([0, MAX_STEPS]);
        bounds.sort_unstable();
        bounds.dedup();
        let parts: Vec<Matrix> = bounds
            .windows(2)
            .map(|w| {
                let run = steps[w[0]]..=steps[w[1] - 1];
                let part = whole.iter().map(|(l, ss)| {
                    (l.clone(), ss.iter().filter(|s| run.contains(&s.ts)).copied().collect())
                });
                part.filter(|(_, ss): &(LabelSet, Vec<Sample>)| !ss.is_empty()).collect()
            })
            .collect();
        let got = merge_series(parts.iter().flatten().cloned().collect());
        prop_assert_eq!(bits(&got), bits(&join_series_reference(&parts)));
        prop_assert_eq!(bits(&got), bits(&whole));
    }

    /// Shards' label-sorted partial rows, concatenated in shard order:
    /// `merge_rows` folds each group's cells in shard order exactly as
    /// the map accumulator did (float sums and tied `first` timestamps
    /// included), and counts every non-empty cell.
    #[test]
    fn merge_rows_equals_the_map_accumulator(
        shards in prop::collection::vec(
            prop::collection::vec(
                (0usize..7, prop::collection::vec((0u8..3, 0i64..4, -1e3f64..1e3), 3)),
                0..6,
            ),
            1..5,
        ),
    ) {
        // One partial kind per group, as one query's partials share one.
        let partial = |l: usize, (present, ts, v): (u8, i64, f64)| match present {
            0 => None,
            _ if l.is_multiple_of(2) => Some(PartialAgg::First { ts, v }),
            _ => Some(PartialAgg::Sum(v)),
        };
        let shards: Vec<Vec<PartialRow>> = shards
            .into_iter()
            .map(|rows| {
                // A shard emits one row per group, label-sorted.
                let rows: BTreeMap<LabelSet, Vec<Option<PartialAgg>>> = rows
                    .into_iter()
                    .map(|(l, cells)| (label(l), cells.into_iter().map(|c| partial(l, c)).collect()))
                    .collect();
                rows.into_iter().collect()
            })
            .collect();
        let (got, partials) = merge_rows(shards.concat());
        prop_assert_eq!(format!("{got:?}"), format!("{:?}", merge_rows_reference(&shards)));
        let cells: usize = shards.iter().flatten().map(|(_, c)| c.iter().flatten().count()).sum();
        prop_assert_eq!(partials, cells);
    }

    /// Ascending timestamps with duplicates, anywhere on the timeline
    /// (near `i64::MIN`, where `t − reach` saturates, included), and
    /// ascending steps from before the first sample to past the last:
    /// every window equals the two binary searches, for reach 0, small
    /// reaches, one wider than the data and `i64::MAX`.
    #[test]
    fn step_windows_equal_two_binary_searches(
        base in prop::sample::select(vec![i64::MIN, i64::MIN + 3, -500, 0, 1_000_000]),
        t0 in 0i64..40,
        dts in prop::collection::vec(0i64..4, 0..40),
        grid in (0i64..20, 1i64..20, 0i64..40),
        reach in prop::sample::select(vec![0i64, 1, 5, 30, 10_000, i64::MAX]),
    ) {
        let mut t = base + t0;
        let ts: Vec<Timestamp> = dts
            .into_iter()
            .map(|dt| {
                t += dt;
                t
            })
            .collect();
        let (s0, step, n) = grid;
        let steps: Vec<Timestamp> = (0..n).map(|k| base + s0 + k * step).collect();
        let got: Vec<Range<usize>> = step_windows(&ts, |&t| t, &steps, reach).collect();
        let want: Vec<Range<usize>> =
            steps.iter().map(|&t| window_reference(&ts, t, reach)).collect();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn step_windows_sweep_a_hand_worked_series() {
    let ts = [1, 3, 3, 5, 9];
    let windows = |steps: &[Timestamp], reach| -> Vec<Range<usize>> {
        step_windows(&ts, |&t| t, steps, reach).collect()
    };
    // (t − 2, t]: before, on, between and past the samples.
    assert_eq!(windows(&[0, 3, 4, 5, 8, 12], 2), [0..0, 1..3, 1..3, 3..4, 4..4, 5..5]);
    // Reach 0 is always empty; a reach wider than the data holds it all.
    assert_eq!(windows(&[3, 9], 0), [3..3, 5..5]);
    assert_eq!(windows(&[9, 10], 100), [0..5, 0..5]);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "steps must ascend")]
fn step_windows_refuse_descending_steps_in_debug_builds() {
    let _ = step_windows(&[1, 2], |&t| t, &[5, 4], 1).count();
}
