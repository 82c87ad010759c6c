//! The reference the cluster's metric evaluation is checked against:
//! `omni_logql::eval` — one central, single-pass evaluator — fed by a
//! caller-supplied raw scan (typically `Ingester::query` on a
//! single-shard twin holding the same records). Shared by the property
//! suites and by `engine.rs`'s unit tests; nothing in the crate's
//! production code evaluates metrics this way.

use omni_logql::eval::RangeEntry;
use omni_logql::{LogQuery, Pipeline, Selector};
use omni_model::{LabelSet, LogEntry, Timestamp};

/// The `fetch` callback `eval_metric_at` / `eval_metric_range` drive:
/// scan `(start, end]`, run the log pipeline over every entry, keep the
/// survivors in scan order.
pub fn reference_fetch(
    scan: impl Fn(&Selector, Timestamp, Timestamp) -> Vec<(LabelSet, Vec<LogEntry>)>,
) -> impl FnMut(&LogQuery, Timestamp, Timestamp) -> Vec<RangeEntry> {
    move |query, start, end| {
        let pipeline = Pipeline::new(query.stages.clone());
        let mut out = Vec::new();
        for (labels, entries) in scan(&query.selector, start, end) {
            for e in entries {
                if let Some(p) = pipeline.process(&e.line, &labels) {
                    out.push(RangeEntry {
                        ts: e.ts,
                        line_bytes: p.line.len(),
                        labels: p.labels,
                        unwrapped: p.unwrapped,
                    });
                }
            }
        }
        out
    }
}
