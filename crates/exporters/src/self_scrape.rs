//! The pipeline's own exporter: the monitor monitoring itself.
//!
//! [`SelfExporter`] writes an `omni-obs` [`Registry`] as a scrape page in
//! the same text exposition format every other exporter speaks, so the
//! simulated vmagent can scrape the pipeline's self-telemetry into the
//! TSDB exactly like node-exporter or kafka-exporter pages — queue
//! depths, consumer lag, WAL replays and stage-latency quantiles become
//! pane-queryable metrics.
//!
//! The page comes from one traversal of the registry
//! ([`Registry::visit`]) with no snapshot in between: no family value,
//! label set or string is built per sample. The traversal hands out
//! families as *runs* — an instrument family, one histogram series'
//! expansion, a collector's rows — in its own order, so each run is
//! drafted as text (its `# HELP`/`# TYPE` header, then its sample lines)
//! into a buffer the exporter keeps from scrape to scrape, beside its
//! name. The runs are then copied into the page in name order: the first
//! run of a name gives the family's header, later runs only their lines.
//! So the page holds each family once, in name order, labels sorted in
//! their braces and an exemplar right after its bucket; within a family,
//! lines keep traversal order (a histogram's buckets by ascending `le`,
//! series by series).

use crate::exposition::{write_dropped, write_exemplar, write_head, write_pair, write_value};
use crate::simulated::Exporter;
use omni_obs::{Exemplar, InstrumentKind, Labels, Registry, Sink};
use omni_tsdb::valid_metric_name;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Writes a metrics registry as a scrape page.
pub struct SelfExporter {
    registry: Registry,
    /// The last scrape's draft, its buffers kept for the next.
    draft: Mutex<Draft>,
}

impl SelfExporter {
    /// Wrap a registry.
    pub fn new(registry: Registry) -> Self {
        Self { registry, draft: Mutex::default() }
    }
}

impl Exporter for SelfExporter {
    fn job(&self) -> &str {
        "omni-self"
    }

    fn render_into(&self, out: &mut String) {
        // Taken out of its lock, so no lock is held while the registry
        // and its collectors take theirs.
        let mut draft =
            std::mem::take(&mut *self.draft.lock().unwrap_or_else(PoisonError::into_inner));
        draft.clear();
        self.registry.visit(&mut draft);
        draft.write_page(out);
        *self.draft.lock().unwrap_or_else(PoisonError::into_inner) = draft;
    }
}

/// The page in traversal order, a run at a time (module doc).
#[derive(Default)]
struct Draft {
    /// Every run's family name, back to back.
    names: String,
    /// Every run's header (or dropped-family comment) and lines, back to
    /// back.
    text: String,
    runs: Vec<Run>,
}

struct Run {
    /// The family name, in `names`.
    name: Range<usize>,
    /// The header and lines, in `text`.
    text: Range<usize>,
    /// Where the lines start.
    lines: usize,
    /// False for an invalid name: the header is the dropped-family
    /// comment and no line is written.
    valid: bool,
}

impl Draft {
    fn clear(&mut self) {
        self.names.clear();
        self.text.clear();
        self.runs.clear();
    }

    /// Append the runs to `out` in name order, each name's header once.
    fn write_page(&mut self, out: &mut String) {
        let Draft { names, text, runs } = self;
        // Ties keep traversal order: drafted text only grows.
        runs.sort_unstable_by(|a, b| {
            names[a.name.clone()].cmp(&names[b.name.clone()]).then(a.text.start.cmp(&b.text.start))
        });
        let mut last = None;
        for run in runs.iter() {
            let name = &names[run.name.clone()];
            if last == Some(name) {
                out.push_str(&text[run.lines..run.text.end]);
            } else {
                out.push_str(&text[run.text.clone()]);
                last = Some(name);
            }
        }
    }
}

impl Sink for Draft {
    fn family(&mut self, name: &str, suffix: &str, help: &str, kind: InstrumentKind) {
        let at = self.names.len();
        self.names.push_str(name);
        self.names.push_str(suffix);
        let full = &self.names[at..];
        let start = self.text.len();
        let valid = valid_metric_name(full);
        if valid {
            let kind = match kind {
                InstrumentKind::Counter => "counter",
                InstrumentKind::Gauge => "gauge",
            };
            write_head(&mut self.text, name, suffix, help, kind);
        } else {
            write_dropped(&mut self.text, full);
        }
        let end = self.text.len();
        self.runs.push(Run { name: at..self.names.len(), text: start..end, lines: end, valid });
    }

    fn sample(&mut self, labels: Labels<'_>, value: f64, exemplar: Option<Exemplar>) {
        let Some(run) = self.runs.last_mut().filter(|run| run.valid) else { return };
        let (name, out) = (&self.names[run.name.clone()], &mut self.text);
        write_series(out, name, &labels);
        out.push(' ');
        write_value(out, value);
        out.push('\n');
        if let Some(ex) = exemplar {
            write_exemplar(out, |out| write_series(out, name, &labels), &ex);
        }
        run.text.end = out.len();
    }
}

/// `name{k="v",..}`, or the bare name for no labels.
fn write_series(out: &mut String, name: &str, labels: &Labels<'_>) {
    out.push_str(name);
    let mut first = true;
    labels.for_each(|k, v| {
        write_pair(out, first, k, v);
        first = false;
    });
    if !first {
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_exposition;
    use omni_model::{labels, SimClock};

    #[test]
    fn registry_renders_and_parses_like_any_exporter() {
        let reg = Registry::new(SimClock::new());
        reg.counter("omni_bus_messages_in_total", "Messages produced.", labels!("topic" => "t"))
            .add(3);
        reg.gauge("omni_delivery_queue_depth", "Pending notifications.", labels!()).set(2.0);
        reg.histogram("omni_stage_seconds", "Stage latency.", labels!("stage" => "kafka"), &[1.0])
            .observe(0.5);
        let exporter = SelfExporter::new(reg);
        assert_eq!(exporter.job(), "omni-self");
        let page = exporter.render();
        assert!(page.contains("# TYPE omni_bus_messages_in_total counter"), "{page}");
        assert!(page.contains("omni_stage_seconds_bucket"), "{page}");
        let records = parse_exposition(&page).unwrap();
        let depth = records
            .iter()
            .find(|r| r.name() == Some("omni_delivery_queue_depth"))
            .expect("gauge present");
        assert_eq!(depth.sample.value, 2.0);
        // p50/p99 convenience gauges are on the page too.
        assert!(records.iter().any(|r| r.name() == Some("omni_stage_seconds_p99")));
    }

    #[test]
    fn exemplars_survive_the_self_scrape() {
        let reg = Registry::new(SimClock::new());
        reg.histogram("omni_query_latency_seconds", "Query latency.", labels!(), &[1.0])
            .observe_with_exemplar(0.5, 0xbeef);
        let page = SelfExporter::new(reg).render();
        assert!(page.contains("# EXEMPLAR omni_query_latency_seconds_bucket"), "{page}");
        assert!(page.contains("trace_id=000000000000beef 0.5"), "{page}");
        // The page is still plain classic text format to a scraper.
        parse_exposition(&page).unwrap();
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let reg = Registry::new(SimClock::new());
            for t in ["b", "a"] {
                reg.counter("omni_x_total", "X.", labels!("topic" => t)).inc();
            }
            SelfExporter::new(reg).render()
        };
        assert_eq!(build(), build());
    }
}
