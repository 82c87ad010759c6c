//! The emittable-metric catalog: every metric name and label key the
//! pipeline can produce, derived statically from the same constants the
//! runtime components use.
//!
//! Sources, in pipeline order:
//!
//! - the MetricBridge turns Redfish sensor readings into
//!   `shasta_<kind>_<unit>` series labelled `{xname, sensor, cluster}`
//!   (derived by iterating [`SensorKind`], exactly like
//!   `core::bridge` formats names at ingest);
//! - the exporter fleet's families come from
//!   [`omni_exporters::shipped_exporter_families`]; vmagent stamps every
//!   scraped sample with `job`/`instance` and synthesizes `up` per target;
//! - the self-telemetry registry's families are the rows of
//!   [`omni_obs::SELF_FAMILIES`] — the same table `core::stack` registers
//!   and collects through — scraped via the `omni-self` job, histogram
//!   rows expanded by [`omni_obs::Family::gathered`];
//! - the LogBridge's per-topic Loki stream labels, plus the `trace_id`
//!   label the tracing path attaches and the `restored` label the archive
//!   restore path adds.

use omni_redfish::SensorKind;
use std::collections::{BTreeMap, BTreeSet};

/// Labels vmagent adds to every scraped sample.
const SCRAPE_LABELS: &[&str] = &["job", "instance"];

/// What one registered metric family can carry.
#[derive(Debug, Clone)]
pub struct MetricInfo {
    /// Label keys the family's series may use.
    pub labels: BTreeSet<String>,
}

/// The statically derived catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    metrics: BTreeMap<String, MetricInfo>,
    stream_labels: BTreeSet<String>,
}

impl Catalog {
    /// An empty catalog (fixture tests build small ones by hand).
    pub fn empty() -> Self {
        Self { metrics: BTreeMap::new(), stream_labels: BTreeSet::new() }
    }

    /// Everything the shipped pipeline can emit.
    pub fn shipped() -> Self {
        let mut c = Self::empty();

        // MetricBridge: shasta_<kind>_<unit> with the bridge's labels
        // (direct TSDB ingest — never scraped, so no job/instance).
        const SENSOR_KINDS: &[SensorKind] = &[
            SensorKind::Temperature,
            SensorKind::Humidity,
            SensorKind::Power,
            SensorKind::FanSpeed,
            SensorKind::Leak,
            SensorKind::Flow,
        ];
        for kind in SENSOR_KINDS {
            c.add_metric(
                &format!("shasta_{}_{}", kind.as_str(), kind.unit()),
                &["xname", "sensor", "cluster"],
            );
        }

        // Exporter fleet, scraped by vmagent.
        for (name, labels) in omni_exporters::shipped_exporter_families() {
            c.add_scraped_metric(name, labels);
        }
        c.add_scraped_metric("up", &[]);

        // Self-telemetry registry families, scraped via the `omni-self`
        // job: whatever the one table declares.
        for row in omni_obs::SELF_FAMILIES {
            for (name, _, labels) in row.gathered() {
                c.add_scraped_metric(&name, &labels);
            }
        }

        // Loki stream labels the LogBridge (and the archive restore
        // path) can attach.
        for l in [
            "Context",
            "cluster",
            "data_type",
            "hostname",
            "pod",
            "app",
            "server",
            "trace_id",
            "restored",
            // Self-ingested telemetry streams (the slow-query log).
            "job",
            "component",
        ] {
            c.stream_labels.insert(l.to_string());
        }
        c
    }

    /// Register a directly ingested family.
    pub fn add_metric(&mut self, name: &str, labels: &[&str]) {
        let labels = labels.iter().map(|l| l.to_string()).collect();
        self.metrics.insert(name.to_string(), MetricInfo { labels });
    }

    /// Register a family that arrives via a vmagent scrape (gains
    /// `job`/`instance`).
    pub fn add_scraped_metric(&mut self, name: &str, labels: &[&str]) {
        let mut all: Vec<&str> = labels.to_vec();
        all.extend_from_slice(SCRAPE_LABELS);
        self.add_metric(name, &all);
    }

    /// Whether a metric family of this name can exist.
    pub fn has_metric(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// Label keys a known metric may carry.
    pub fn metric_labels(&self, name: &str) -> Option<&BTreeSet<String>> {
        self.metrics.get(name).map(|m| &m.labels)
    }

    /// Whether a label key can appear on a Loki stream.
    pub fn is_stream_label(&self, name: &str) -> bool {
        self.stream_labels.contains(name)
    }

    /// All registered metric names, sorted.
    pub fn metric_names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    /// All allowed stream labels, sorted.
    pub fn stream_labels(&self) -> impl Iterator<Item = &str> {
        self.stream_labels.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_catalog_covers_the_paper_surfaces() {
        let c = Catalog::shipped();
        assert!(c.has_metric("shasta_temperature_celsius"));
        assert!(c.has_metric("shasta_leak_bool"));
        assert!(c.has_metric("gpfs_longest_waiter_seconds"));
        assert!(c.has_metric("up"));
        assert!(c.has_metric("omni_event_to_incident_seconds_p99"));
        assert!(!c.has_metric("omni_event_to_incident_seconds"));
        let bucket = c.metric_labels("omni_ingest_batch_size_bucket").unwrap();
        assert!(bucket.contains("le"));
        assert!(c.metric_labels("omni_bus_consumer_lag").unwrap().contains("topic"));
        assert!(c.metric_labels("shasta_temperature_celsius").unwrap().contains("xname"));
        assert!(!c.metric_labels("shasta_temperature_celsius").unwrap().contains("job"));
        assert!(c.is_stream_label("data_type"));
        assert!(c.is_stream_label("trace_id"));
        assert!(!c.is_stream_label("Severity"));
        // Introspection families: SLO gauges, query statistics, and the
        // tenant queue-wait histogram (which must carry `tenant`).
        assert!(c.metric_labels("omni_slo_burn_rate").unwrap().contains("window"));
        assert!(c.has_metric("omni_query_slow_total"));
        // Compaction & tiered retention families.
        assert!(c.has_metric("omni_compactor_runs_total"));
        assert!(c.has_metric("omni_compactor_cold_objects"));
        assert!(c.has_metric("omni_query_cold_chunks_total"));
        assert!(c.has_metric("omni_query_latency_seconds_sum"));
        assert!(c
            .metric_labels("omni_tenant_query_wait_seconds_bucket")
            .unwrap()
            .contains("tenant"));
        assert!(c.is_stream_label("job") && c.is_stream_label("component"));
    }
}
