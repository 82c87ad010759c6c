//! Op-sequence property for the metric store: whatever the interleaving
//! of ingests (in and out of order, across series that share label values
//! and metric names), retention passes and queries, a [`Tsdb`] that seals
//! every 4 samples over 2 shards answers exactly what a naive model does —
//! a list of series, each a list of runs of plain samples, matched with
//! [`Selector::matches`] alone: no index, no codec, no shards.
//!
//! Mutations of `storage.rs` shown to fail it:
//! * open-run lower bound `s.ts <= start` → `s.ts < start` (a sample at
//!   `start` leaks into `(start, end]`);
//! * accepting `ts < newest` (the out-of-order drop removed);
//! * skipping `index.insert` for a new series (never found again);
//! * dropping the run instead of pushing the block at a seal;
//! * skipping `index.remove` at retirement (the next query that reaches
//!   the stale posting finds no series behind it);
//! * expiring the open run on its oldest sample instead of its newest;
//! * forgetting `newest` at a seal (an old sample accepted into the empty
//!   open run);
//!
//! and, in `omni_model::LabelIndex::candidates`, narrowing on an equality
//! with the empty value (`{__name__="temp", slot=""}` answers nothing).

use omni_logql::matcher::{MatchOp, Matcher, Selector};
use omni_model::{labels, LabelSet, MetricRecord, Sample, Timestamp};
use omni_tsdb::{Tsdb, TsdbConfig};
use proptest::prelude::*;

const BLOCK: usize = 4;
const RETENTION_NS: i64 = 100;
const NAMES: [&str; 2] = ["temp", "power"];
const NODES: [&str; 3] = ["x1", "x2", "x3"];
/// Clock movement per ingest; the clock is shared by all series, so a
/// step back is out of order for a series that saw the newer time and in
/// order for one that did not.
const DT: [i64; 7] = [-20, -1, 0, 1, 7, 10, 50];
/// `now` of a retention pass, relative to the clock: horizons behind every
/// run, inside the data, and (rarely survivable) ahead of it.
const RETAIN_AHEAD: [i64; 4] = [0, 40, 90, 160];

fn record(series: usize, ts: Timestamp, value: f64) -> MetricRecord {
    MetricRecord::new(NAMES[series % 2], labels!("node" => NODES[series / 2]), ts, value)
}

fn selectors() -> Vec<Selector> {
    let m = |name: &str, op, value: &str| Matcher::new(name, op, value).unwrap();
    vec![
        Selector::new(vec![m("__name__", MatchOp::Eq, "temp")]),
        Selector::new(vec![m("__name__", MatchOp::Eq, "temp"), m("node", MatchOp::Eq, "x2")]),
        Selector::new(vec![m("__name__", MatchOp::Eq, "power"), m("node", MatchOp::Re, "x[13]")]),
        Selector::new(vec![m("__name__", MatchOp::Eq, "power"), m("node", MatchOp::Neq, "x1")]),
        Selector::new(vec![m("__name__", MatchOp::Eq, "temp"), m("node", MatchOp::Eq, "x9")]),
        // No equality matcher: the index has nothing to intersect.
        Selector::new(vec![m("node", MatchOp::Re, "x[23]")]),
        // An equality on the empty value: every series lacks `slot`.
        Selector::new(vec![m("__name__", MatchOp::Eq, "temp"), m("slot", MatchOp::Eq, "")]),
    ]
}

/// The naive store. A series' last run is its open one (possibly empty).
#[derive(Default)]
struct Model {
    series: Vec<(LabelSet, Vec<Vec<Sample>>)>,
    ingested: u64,
}

impl Model {
    fn ingest(&mut self, r: &MetricRecord) {
        let at = self.series.iter().position(|(l, _)| *l == r.labels).unwrap_or_else(|| {
            self.series.push((r.labels.clone(), vec![Vec::new()]));
            self.series.len() - 1
        });
        let runs = &mut self.series[at].1;
        if runs.iter().flatten().any(|s| r.sample.ts < s.ts) {
            return;
        }
        runs.last_mut().unwrap().push(r.sample);
        if runs.last().unwrap().len() == BLOCK {
            runs.push(Vec::new());
        }
        self.ingested += 1;
    }

    /// A run expires when its newest sample is behind the horizon: a
    /// sealed run goes, the open run is emptied, a series left with
    /// nothing is forgotten. Returns runs expired.
    fn retain(&mut self, now: Timestamp) -> usize {
        let horizon = now - RETENTION_NS;
        let expired = |run: &Vec<Sample>| run.last().is_some_and(|s| s.ts < horizon);
        let mut dropped = 0;
        for (_, runs) in &mut self.series {
            dropped += runs.iter().filter(|run| expired(run)).count();
            let open = runs.pop().unwrap();
            runs.retain(|run| !expired(run));
            runs.push(if expired(&open) { Vec::new() } else { open });
        }
        self.series.retain(|(_, runs)| runs.iter().any(|run| !run.is_empty()));
        dropped
    }

    fn query(
        &self,
        sel: &Selector,
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<(LabelSet, Vec<Sample>)> {
        let mut out: Vec<(LabelSet, Vec<Sample>)> = self
            .series
            .iter()
            .filter(|(labels, _)| sel.matches(labels))
            .map(|(labels, runs)| {
                let hits = runs.iter().flatten().copied().filter(|s| s.ts > start && s.ts <= end);
                (labels.clone(), hits.collect())
            })
            .filter(|(_, samples): &(_, Vec<Sample>)| !samples.is_empty())
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

proptest! {
    /// An op is `(kind, series, a, b)`: `kind` 0–5 ingests into `series`
    /// after moving the clock by `DT[a]`; 6 is a retention pass at
    /// `clock + RETAIN_AHEAD[a]`; 7 adds a query window
    /// `(clock − 10·a − b, clock − 10·a]` to the three every op checks.
    #[test]
    fn the_store_answers_what_the_naive_model_answers_after_every_op(
        ops in prop::collection::vec((0u8..8, 0usize..6, 0usize..7, 0usize..40), 1..120),
    ) {
        let db = Tsdb::new(TsdbConfig {
            shards: 2,
            block_max_samples: BLOCK,
            retention_ns: RETENTION_NS,
        });
        let mut model = Model::default();
        let selectors = selectors();
        let mut clock: Timestamp = 1_000;
        for (i, &(kind, series, a, b)) in ops.iter().enumerate() {
            let mut probe = None;
            match kind {
                0..=5 => {
                    clock += DT[a];
                    let r = record(series, clock, i as f64 + 0.5);
                    db.ingest(&r);
                    model.ingest(&r);
                }
                6 => {
                    let now = clock + RETAIN_AHEAD[a % RETAIN_AHEAD.len()];
                    let (got, want) = (db.enforce_retention(now), model.retain(now));
                    prop_assert_eq!(got, want, "op {} {:?}: runs dropped", i, ops[i]);
                }
                _ => probe = Some((clock - 10 * a as i64 - b as i64, clock - 10 * a as i64)),
            }
            let windows = [
                Some((i64::MIN, i64::MAX)),      // all time
                Some((clock - 45, clock - 12)), // behind the open runs: cuts sealed blocks
                Some((clock - 8, clock)),       // the newest samples: inside the open runs
                probe,
            ];
            for sel in &selectors {
                for (start, end) in windows.into_iter().flatten() {
                    prop_assert_eq!(
                        db.query_series(sel, start, end),
                        model.query(sel, start, end),
                        "op {} {:?}: {} over ({}, {}]", i, ops[i], sel, start, end
                    );
                }
            }
            prop_assert_eq!(db.series_count(), model.series.len(), "op {} {:?}", i, ops[i]);
            prop_assert_eq!(db.samples_ingested(), model.ingested, "op {} {:?}", i, ops[i]);
        }
    }
}
