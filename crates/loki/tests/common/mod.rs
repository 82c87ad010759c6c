//! The reference the cluster's metric evaluation is checked against:
//! `omni_logql::eval` — one central, single-pass evaluator — fed by a
//! caller-supplied raw scan: `Ingester::query_stats` on a single-shard
//! twin holding the same records, or [`ReferenceStore::scan`], a `Vec` of
//! what was accepted. Shared by the property suites and by the crate's
//! unit tests; nothing in the crate's production code evaluates metrics
//! this way.

use omni_logql::eval::RangeEntry;
use omni_logql::{LogQuery, Pipeline, Selector};
use omni_model::{LabelSet, LogEntry, LogRecord, Timestamp};

/// The naive reference store: every accepted record, in arrival order.
/// No chunks, no tiers — what a query over any arrangement of them must
/// equal.
#[allow(dead_code)] // not every suite that includes this module keeps one
#[derive(Default)]
pub struct ReferenceStore(pub Vec<LogRecord>);

#[allow(dead_code)]
impl ReferenceStore {
    /// Matching streams (in first-arrival order) with their entries in
    /// `(start, end]`, in arrival order — the shape of a shard scan.
    pub fn scan(
        &self,
        selector: &Selector,
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<(LabelSet, Vec<LogEntry>)> {
        let mut out: Vec<(LabelSet, Vec<LogEntry>)> = Vec::new();
        for r in &self.0 {
            if r.entry.ts > start && r.entry.ts <= end && selector.matches(&r.labels) {
                match out.iter_mut().find(|(labels, _)| *labels == r.labels) {
                    Some((_, entries)) => entries.push(r.entry.clone()),
                    None => out.push((r.labels.clone(), vec![r.entry.clone()])),
                }
            }
        }
        out
    }

    /// What a forward log query without pipeline stages returns: ordered
    /// by timestamp, then labels, then arrival.
    pub fn logs_forward(
        &self,
        selector: &Selector,
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<LogRecord> {
        let mut out: Vec<LogRecord> = self
            .scan(selector, start, end)
            .into_iter()
            .flat_map(|(labels, es)| {
                es.into_iter().map(move |entry| LogRecord { labels: labels.clone(), entry })
            })
            .collect();
        out.sort_by(|a, b| a.entry.ts.cmp(&b.entry.ts).then_with(|| a.labels.cmp(&b.labels)));
        out
    }
}

/// The `fetch` callback `eval_metric_at` / `eval_metric_range` drive:
/// scan `(start, end]`, run the log pipeline over every entry, keep the
/// survivors in scan order.
pub fn reference_fetch(
    scan: impl Fn(&Selector, Timestamp, Timestamp) -> Vec<(LabelSet, Vec<LogEntry>)>,
) -> impl FnMut(&LogQuery, Timestamp, Timestamp) -> Vec<RangeEntry> {
    move |query, start, end| {
        let pipeline = Pipeline::new(&query.stages);
        let mut out = Vec::new();
        for (labels, entries) in scan(&query.selector, start, end) {
            for e in entries {
                if let Some(p) = pipeline.process(&e.line, &labels) {
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
}
