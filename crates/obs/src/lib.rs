//! Self-telemetry for the monitoring stack: the monitor monitoring itself.
//!
//! The paper's pipeline is a "single pane of glass" over Perlmutter — but
//! the pipeline itself was a black box. This crate closes that loop with
//! two pieces:
//!
//! * [`Registry`] — a metrics registry on the shared
//!   [`omni_model::SimClock`]: counters, gauges and fixed-bucket
//!   histograms keyed by name + [`omni_model::LabelSet`], plus
//!   *collectors* that absorb the pre-existing ad-hoc stats structs
//!   (`bus::TopicStats`, bridge resilience counters, delivery stats, …)
//!   behind one API. One traversal ([`Registry::visit`]) reads it all
//!   into a [`Sink`]: `omni-exporters` writes it straight into a page in
//!   the Prometheus text exposition format, self-scraped by the
//!   simulated vmagent into the TSDB every tick, so pipeline health is
//!   queryable through the pane like any other metric;
//!   [`Registry::gather`] builds snapshots of it for tests. Which families
//!   the stack emits is declared once, in [`SELF_FAMILIES`]
//!   ([`families`]): the stack registers through its rows and
//!   `omni-lint` derives its catalog from them.
//! * [`TraceStore`] — end-to-end trace propagation: a [`TraceContext`]
//!   (trace id + span id, derived deterministically from the chaos seed,
//!   never from wall clock) rides each Redfish event through Kafka
//!   headers, the bridges, Loki entry labels and alert annotations.
//!   Every stage records an enter/exit span on the virtual clock, and
//!   [`TraceStore::render_timeline`] prints the life of any event from
//!   collector to ServiceNow incident.
//!
//! Determinism is the invariant everything here defends: ids come from
//! [`omni_model::fnv1a64`] over `(seed, sequence)`, timestamps from the
//! virtual clock, and iteration orders from sorted maps — the same seed
//! renders byte-identical timelines and exposition pages.

pub mod families;
pub mod registry;
pub mod slo;
pub mod trace;

pub use families::{Family, FamilyKind, Rows, SELF_FAMILIES};
pub use registry::{
    Counter, Exemplar, FamilySnapshot, Gauge, Histogram, InstrumentKind, Labels, MetricSample,
    Registry, Sink, DEFAULT_LATENCY_BUCKETS,
};
pub use slo::{Slo, SloBoard, SloSnapshot, SloTracker, FAST_WINDOW, SLOW_WINDOW};
pub use trace::{
    format_trace_id, parse_trace_id, SampleStats, Span, TailSampling, TraceContext, TraceStore,
    TRACE_HEADER,
};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use omni_model::{labels, LabelSet, SimClock};

    #[test]
    fn registry_and_traces_compose() {
        let clock = SimClock::new();
        let reg = Registry::new(clock.clone());
        let c = reg.counter("omni_events_total", "Events seen.", labels!("stage" => "bus"));
        c.inc();
        let traces = TraceStore::new(7);
        let ctx = traces.begin_trace("x1000c3s0b0", "leak", reg.now());
        traces.span(ctx.trace_id, "collect", 0, 5, "published");
        assert_eq!(reg.gather().len(), 1);
        assert!(traces.render_timeline(ctx.trace_id).contains("collect"));
        let _ = LabelSet::new();
    }
}
