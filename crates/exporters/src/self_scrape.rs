//! The pipeline's own exporter: the monitor monitoring itself.
//!
//! [`SelfExporter`] renders an `omni-obs` [`Registry`] snapshot in the
//! same text exposition format every other exporter speaks, so the
//! simulated vmagent can scrape the pipeline's self-telemetry into the
//! TSDB exactly like node-exporter or kafka-exporter pages — queue
//! depths, consumer lag, WAL replays and stage-latency quantiles become
//! pane-queryable metrics.

use crate::exposition::{render_exposition_into, MetricFamily};
use crate::simulated::Exporter;
use omni_obs::{InstrumentKind, Registry};

/// Renders a metrics registry as a scrape page.
pub struct SelfExporter {
    registry: Registry,
}

impl SelfExporter {
    /// Wrap a registry.
    pub fn new(registry: Registry) -> Self {
        Self { registry }
    }

    /// The gathered families as exposition-layer values.
    pub fn families(&self) -> Vec<MetricFamily> {
        self.registry
            .gather()
            .into_iter()
            .map(|snap| {
                let mut fam = match snap.kind {
                    InstrumentKind::Counter => MetricFamily::counter(&snap.name, &snap.help),
                    InstrumentKind::Gauge => MetricFamily::gauge(&snap.name, &snap.help),
                };
                for s in snap.samples {
                    fam.sample(s.labels, s.value);
                }
                for (labels, ex) in snap.exemplars {
                    fam.exemplar(labels, ex);
                }
                fam
            })
            .collect()
    }
}

impl Exporter for SelfExporter {
    fn job(&self) -> &str {
        "omni-self"
    }

    fn render_into(&self, out: &mut String) {
        render_exposition_into(&self.families(), out);
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
