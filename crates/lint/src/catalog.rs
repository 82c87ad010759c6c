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
//! - the self-telemetry registry's families (registered in `core::stack`
//!   and its gather-time collectors) are scraped through the `omni-self`
//!   job, histograms expanding with [`omni_obs::HISTOGRAM_SUFFIXES`]
//!   (`_bucket` additionally carries `le`);
//! - the LogBridge's per-topic Loki stream labels, plus the `trace_id`
//!   label the tracing path attaches and the `restored` label the archive
//!   restore path adds.

use omni_obs::HISTOGRAM_SUFFIXES;
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

        // Self-telemetry registry families (scraped via the `omni-self`
        // job). Kept in lockstep with the registration sites in
        // `core::stack` by the `catalog-drift` source rule.
        for name in [
            "omni_steps_total",
            "omni_bus_unavailable",
            "omni_loki_shards_up",
            "omni_loki_shards_down",
            "omni_loki_crashes_total",
            "omni_loki_wal_replayed_total",
            "omni_loki_rerouted_total",
            "omni_loki_wal_records_total",
            "omni_delivery_enqueued_total",
            "omni_delivery_attempts_total",
            "omni_delivery_delivered_total",
            "omni_delivery_retried_total",
            "omni_delivery_failed_total",
            "omni_delivery_circuit_opens_total",
            "omni_delivery_circuit_closes_total",
            "omni_delivery_queue_depth",
            "omni_chaos_actions_total",
            "omni_chaos_flaky_rolls_total",
            "omni_chaos_flaky_failures_total",
            "omni_servicenow_events_total",
            "omni_servicenow_incidents",
            "omni_frontend_splits_total",
            "omni_frontend_cache_hits_total",
            "omni_frontend_cache_misses_total",
            "omni_frontend_rejected_total",
            "omni_frontend_cached_entries",
            // Aggregation pushdown (shard map / frontend reduce).
            "omni_frontend_pushdown_queries_total",
            "omni_frontend_pushdown_partials_total",
            "omni_frontend_pushdown_entries_saved_total",
            "omni_query_records_total",
            "omni_query_slow_total",
            "omni_query_chunks_touched_total",
            "omni_query_blocks_decoded_total",
            "omni_query_blocks_skipped_total",
            "omni_query_bytes_decompressed_total",
            "omni_query_cold_chunks_total",
            "omni_trace_kept_total",
            "omni_trace_dropped_total",
            // Compactor + tiered-storage telemetry.
            "omni_compactor_runs_total",
            "omni_compactor_chunks_merged_total",
            "omni_compactor_objects_written_total",
            "omni_compactor_duplicates_dropped_total",
            "omni_compactor_retention_deleted_total",
            "omni_compactor_hot_objects",
            "omni_compactor_cold_objects",
            "omni_compactor_cold_bytes",
            "omni_compactor_cold_transient_failures_total",
        ] {
            c.add_scraped_metric(name, &[]);
        }
        // SLO meta-telemetry: burn rates per evaluation window, the
        // objective itself, and the remaining error budget.
        c.add_scraped_metric("omni_slo_burn_rate", &["slo", "window"]);
        c.add_scraped_metric("omni_slo_objective", &["slo"]);
        c.add_scraped_metric("omni_slo_error_budget_remaining", &["slo"]);
        for name in [
            "omni_bus_messages_in_total",
            "omni_bus_bytes_out_total",
            "omni_bus_tail_drops_total",
            "omni_bus_produce_retries_total",
            "omni_bus_consumer_lag",
        ] {
            c.add_scraped_metric(name, &["topic"]);
        }
        // Per-tenant admission/fairness telemetry. Tenant-scoped
        // families MUST carry the `tenant` label (the tenant-label
        // source rule rejects an omni_tenant_* registration without it).
        for name in [
            "omni_tenant_ingest_offered_total",
            "omni_tenant_ingest_accepted_total",
            "omni_tenant_ingest_rejected_total",
            "omni_tenant_queries_offered_total",
            "omni_tenant_queries_rejected_total",
            "omni_tenant_active_streams",
            "omni_tenant_query_wait_rounds",
        ] {
            c.add_scraped_metric(name, &["tenant"]);
        }
        for name in [
            "omni_bridge_fetch_retries_total",
            "omni_bridge_resubscribes_total",
            "omni_bridge_ingest_retries_total",
            "omni_bridge_dead_letter_total",
            "omni_bridge_in_flight",
        ] {
            c.add_scraped_metric(name, &["bridge"]);
        }
        c.add_scraped_metric("omni_notifications_total", &["receiver"]);
        for name in [
            "omni_ingest_batch_size",
            "omni_chunk_fill_ratio",
            "omni_event_to_incident_seconds",
            "omni_frontend_bytes_saved",
            "omni_query_latency_seconds",
        ] {
            c.add_scraped_histogram(name, &[]);
        }
        // Per-tenant scheduler queue wait, in virtual-clock seconds.
        c.add_scraped_histogram("omni_tenant_query_wait_seconds", &["tenant"]);

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

    /// Register a scraped histogram: the base name expands to
    /// `_bucket`/`_sum`/`_count`/`_p50`/`_p99` at gather time, with
    /// `_bucket` carrying the extra `le` label.
    pub fn add_scraped_histogram(&mut self, name: &str, labels: &[&str]) {
        for suffix in HISTOGRAM_SUFFIXES {
            let mut all: Vec<&str> = labels.to_vec();
            if *suffix == "_bucket" {
                all.push("le");
            }
            self.add_scraped_metric(&format!("{name}{suffix}"), &all);
        }
    }

    /// Register an allowed Loki stream label.
    pub fn add_stream_label(&mut self, name: &str) {
        self.stream_labels.insert(name.to_string());
    }

    /// Whether a metric family of this name can exist.
    pub fn has_metric(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// Whether the base name of a histogram with this expanded name is
    /// registered (e.g. `omni_ingest_batch_size` for a lexically bare
    /// registration site — the expansion happens at gather time).
    pub fn has_histogram_base(&self, name: &str) -> bool {
        HISTOGRAM_SUFFIXES.iter().any(|s| self.metrics.contains_key(&format!("{name}{s}")))
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
        assert!(c.has_histogram_base("omni_event_to_incident_seconds"));
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
        assert!(c.has_histogram_base("omni_query_latency_seconds"));
        assert!(c.has_histogram_base("omni_tenant_query_wait_seconds"));
        assert!(c
            .metric_labels("omni_tenant_query_wait_seconds_bucket")
            .unwrap()
            .contains("tenant"));
        assert!(c.is_stream_label("job") && c.is_stream_label("component"));
    }
}
