//! The one declaration of the stack's self-telemetry: every `omni_*`
//! family the registry can hold, with its help text, kind (histograms
//! with their bucket layout) and label keys.
//!
//! Producer and consumer both read this table. `omni-core` registers
//! instruments and writes collector rows through a row
//! ([`Family::counter`], [`Family::histogram`], [`Rows::sample`])
//! instead of re-typing a name; `omni-lint` expands the rows
//! ([`Family::gathered`]) into its catalog of emittable metrics.
//! The conformance test (`tests/telemetry_conformance.rs`) drives a
//! stack and checks the gathered page against the table in both
//! directions, so a row nobody emits and an emission nobody declared
//! both fail.

use crate::registry::{
    Counter, Histogram, InstrumentKind, Labels, Registry, Sink, DEFAULT_LATENCY_BUCKETS,
    HISTOGRAM_EXPANSION,
};
use omni_model::LabelSet;

/// What a declared family measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FamilyKind {
    /// Monotonically increasing value.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Fixed-bucket histogram with these finite upper bounds.
    Histogram(&'static [f64]),
}

/// One row of the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Family {
    /// Family name (histograms: the base name the suffixes attach to).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Counter, gauge, or histogram with its buckets.
    pub kind: FamilyKind,
    /// Label keys every sample of the family carries.
    pub labels: &'static [&'static str],
}

impl Family {
    /// Get or create this counter in `registry`.
    pub fn counter(&self, registry: &Registry, labels: LabelSet) -> Counter {
        registry.counter(self.name, self.help, labels)
    }

    /// Get or create this histogram in `registry`, with the declared
    /// buckets. Panics if the row is not a histogram.
    pub fn histogram(&self, registry: &Registry, labels: LabelSet) -> Histogram {
        let FamilyKind::Histogram(bounds) = self.kind else {
            panic!("{} is not declared as a histogram", self.name)
        };
        registry.histogram(self.name, self.help, labels, bounds)
    }

    /// The kind a collector writes this counter or gauge row as. Panics
    /// on a histogram row: histograms are registered instruments, never
    /// collector output.
    fn collected_kind(&self) -> InstrumentKind {
        match self.kind {
            FamilyKind::Counter => InstrumentKind::Counter,
            FamilyKind::Gauge => InstrumentKind::Gauge,
            FamilyKind::Histogram(_) => panic!("{} is a histogram, not collected", self.name),
        }
    }

    /// The families this row produces when the registry is read, as `(name, kind,
    /// label keys)`: itself for a counter or gauge, the
    /// `_bucket`/`_sum`/`_count`/`_p50`/`_p99` expansion for a histogram
    /// (`_bucket` additionally carries `le`).
    pub fn gathered(&self) -> Vec<(String, InstrumentKind, Vec<&'static str>)> {
        let labels = self.labels.to_vec();
        match self.kind {
            FamilyKind::Counter => vec![(self.name.to_string(), InstrumentKind::Counter, labels)],
            FamilyKind::Gauge => vec![(self.name.to_string(), InstrumentKind::Gauge, labels)],
            FamilyKind::Histogram(_) => HISTOGRAM_EXPANSION
                .iter()
                .map(|&(suffix, kind)| {
                    let mut labels = labels.clone();
                    if suffix == "_bucket" {
                        labels.push("le");
                    }
                    (format!("{}{suffix}", self.name), kind, labels)
                })
                .collect(),
        }
    }
}

/// What a collector writes into: samples of table rows, passed on to the
/// registry's current [`Sink`] as they come.
pub struct Rows<'s> {
    sink: &'s mut dyn Sink,
    /// The row whose family the sink has open, `""` before the first.
    open: &'static str,
}

impl<'s> Rows<'s> {
    pub(crate) fn new(sink: &'s mut dyn Sink) -> Self {
        Self { sink, open: "" }
    }

    /// Start `row`'s family, so its `# HELP`/`# TYPE` header is on the
    /// page even if no sample of it follows.
    pub fn family(&mut self, row: &Family) {
        self.sink.family(row.name, "", row.help, row.collected_kind());
        self.open = row.name;
    }

    /// One sample of `row`: `labels` are the row's declared keys, in
    /// declared (key) order, with their values. Starts the row's family
    /// first unless it is the one open.
    pub fn sample(&mut self, row: &Family, labels: &[(&str, &str)], value: f64) {
        debug_assert!(
            labels.iter().map(|&(k, _)| k).eq(row.labels.iter().copied()),
            "{}: labels differ from the declared keys",
            row.name
        );
        if self.open != row.name {
            self.family(row);
        }
        self.sink.sample(Labels::pairs(labels), value, None);
    }
}

/// Declares one `pub const` per row plus [`SELF_FAMILIES`] listing them
/// all, so a row cannot exist without being in the table.
macro_rules! families {
    ($($id:ident: $kind:expr, $name:literal, [$($label:literal),*], $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $id: Family =
                Family { name: $name, help: $help, kind: $kind, labels: &[$($label),*] };
        )*
        /// Every self-telemetry family the stack can emit.
        pub const SELF_FAMILIES: &[Family] = &[$($id),*];
    };
}

use FamilyKind::{Counter as C, Gauge as G, Histogram as H};

/// Records per batched Loki push: powers of two up to the bridge's
/// fetch batch.
const INGEST_BATCH_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];

/// Uncompressed bytes at seal time over the configured chunk target.
/// Ratios near 1.0 are full, size-triggered seals; low ratios are
/// age-triggered seals.
const CHUNK_FILL_BUCKETS: &[f64] = &[0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0];

/// Line bytes a cached split avoided re-scanning: powers of four from
/// 1 KiB to 16 MiB.
const FRONTEND_BYTES_SAVED_BUCKETS: &[f64] =
    &[1_024.0, 4_096.0, 16_384.0, 65_536.0, 262_144.0, 1_048_576.0, 4_194_304.0, 16_777_216.0];

/// Modeled query latency (seconds): sub-millisecond to seconds, much
/// finer than the alert pipeline's [`DEFAULT_LATENCY_BUCKETS`].
const QUERY_LATENCY_BUCKETS: &[f64] = &[0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5];

/// Fair-scheduler queue wait (virtual-clock seconds): one grant round is
/// microseconds of virtual time, so the layout starts at 100µs.
const QUERY_WAIT_BUCKETS: &[f64] = &[0.000_1, 0.000_5, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0];

families! {
    // The step loop and its direct instruments.
    STEPS: C, "omni_steps_total", [], "Pipeline steps driven.";
    INGEST_BATCH_SIZE: H(INGEST_BATCH_BUCKETS), "omni_ingest_batch_size", [],
        "Records per batched Loki push from the log bridge.";
    CHUNK_FILL_RATIO: H(CHUNK_FILL_BUCKETS), "omni_chunk_fill_ratio", [],
        "Uncompressed size of sealed chunks relative to the chunk target.";
    FRONTEND_BYTES_SAVED: H(FRONTEND_BYTES_SAVED_BUCKETS), "omni_frontend_bytes_saved", [],
        "Line bytes a query-frontend cache hit avoided re-scanning.";
    NOTIFICATIONS: C, "omni_notifications_total", ["receiver"],
        "Alertmanager notifications dispatched, by receiver.";
    EVENT_TO_INCIDENT_SECONDS: H(DEFAULT_LATENCY_BUCKETS), "omni_event_to_incident_seconds", [],
        "End-to-end latency from hardware event to ServiceNow incident.";

    // Query introspection.
    TENANT_QUERY_WAIT_SECONDS: H(QUERY_WAIT_BUCKETS), "omni_tenant_query_wait_seconds", ["tenant"],
        "Fair-scheduler queue wait per split grant, by tenant (virtual-clock seconds).";
    QUERY_LATENCY_SECONDS: H(QUERY_LATENCY_BUCKETS), "omni_query_latency_seconds", [],
        "Modeled query latency priced from execution statistics.";
    QUERY_RECORDS: C, "omni_query_records_total", [],
        "Queries the frontend completed and recorded.";
    QUERY_CHUNKS_TOUCHED: C, "omni_query_chunks_touched_total", [],
        "Sealed chunks overlapping recorded query windows.";
    QUERY_BLOCKS_DECODED: C, "omni_query_blocks_decoded_total", [],
        "Chunk blocks decompressed for recorded queries.";
    QUERY_BLOCKS_SKIPPED: C, "omni_query_blocks_skipped_total", [],
        "Chunk blocks skipped via timestamp headers for recorded queries.";
    QUERY_BYTES_DECOMPRESSED: C, "omni_query_bytes_decompressed_total", [],
        "Uncompressed bytes produced by recorded queries' block decodes.";
    QUERY_COLD_CHUNKS: C, "omni_query_cold_chunks_total", [],
        "Cold-tier (compacted) chunks fetched for recorded queries.";
    QUERY_CHUNKS_CORRUPT: C, "omni_query_chunks_corrupt_total", [],
        "Chunks recorded queries failed to decode; their entries are missing from the results.";
    QUERY_SLOW: C, "omni_query_slow_total", [],
        "Recorded queries at or over the slow-query threshold.";

    // SLO board and trace store.
    SLO_BURN_RATE: G, "omni_slo_burn_rate", ["slo", "window"],
        "Error-budget burn rate relative to the objective, by SLO and window.";
    SLO_OBJECTIVE: G, "omni_slo_objective", ["slo"],
        "Configured good-fraction objective, by SLO.";
    SLO_ERROR_BUDGET_REMAINING: G, "omni_slo_error_budget_remaining", ["slo"],
        "Fraction of the slow-window error budget unspent, by SLO.";
    TRACE_KEPT: C, "omni_trace_kept_total", [],
        "Finished traces tail sampling retained (errored, slow, or sampled in).";
    TRACE_DROPPED: C, "omni_trace_dropped_total", [],
        "Finished traces tail sampling dropped, plus cap evictions.";

    // Bus.
    BUS_MESSAGES_IN: C, "omni_bus_messages_in_total", ["topic"], "Messages produced, by topic.";
    BUS_BYTES_OUT: C, "omni_bus_bytes_out_total", ["topic"],
        "Bytes fetched by consumers, by topic.";
    BUS_PRODUCE_RETRIES: C, "omni_bus_produce_retries_total", ["topic"],
        "Produces bounced by a brownout, by topic.";
    BUS_CONSUMER_LAG: G, "omni_bus_consumer_lag", ["topic"], "Worst consumer-group lag, by topic.";
    BUS_UNAVAILABLE: G, "omni_bus_unavailable", [],
        "1 while a brownout window is rejecting bus traffic.";

    // Loki ingesters and WAL.
    LOKI_SHARDS_UP: G, "omni_loki_shards_up", [], "Ingester shards currently up.";
    LOKI_SHARDS_DOWN: G, "omni_loki_shards_down", [], "Ingester shards currently down.";
    LOKI_CRASHES: C, "omni_loki_crashes_total", [], "Ingester crashes.";
    LOKI_WAL_REPLAYED: C, "omni_loki_wal_replayed_total", [],
        "Records replayed from the WAL after crashes.";
    LOKI_REROUTED: C, "omni_loki_rerouted_total", [], "Records rerouted around downed shards.";
    LOKI_WAL_RECORDS: C, "omni_loki_wal_records_total", [], "Records appended to the WAL.";
    LOKI_WAL_CORRUPT_SEGMENTS: C, "omni_loki_wal_corrupt_segments_total", [],
        "WAL segments that failed to decode during crash recovery and were skipped.";

    // Compactor and tiered storage.
    COMPACTOR_RUNS: C, "omni_compactor_runs_total", [], "Completed compaction runs.";
    COMPACTOR_CHUNKS_MERGED: C, "omni_compactor_chunks_merged_total", [],
        "Source sealed chunks merged into compacted objects.";
    COMPACTOR_OBJECTS_WRITTEN: C, "omni_compactor_objects_written_total", [],
        "Compacted objects written to the cold tier.";
    COMPACTOR_DUPLICATES_DROPPED: C, "omni_compactor_duplicates_dropped_total", [],
        "Byte-identical replayed chunks deduplicated away.";
    COMPACTOR_RETENTION_DELETED: C, "omni_compactor_retention_deleted_total", [],
        "Objects deleted by compactor-executed retention.";
    COMPACTOR_HOT_OBJECTS: G, "omni_compactor_hot_objects", [],
        "Objects currently in the hot (sealed) store tier.";
    COMPACTOR_COLD_OBJECTS: G, "omni_compactor_cold_objects", [],
        "Objects currently in the cold (compacted) tier.";
    COMPACTOR_COLD_BYTES: G, "omni_compactor_cold_bytes", [],
        "Bytes currently stored in the cold (compacted) tier.";
    COMPACTOR_COLD_TRANSIENT_FAILURES: C, "omni_compactor_cold_transient_failures_total", [],
        "Cold-tier GETs that failed transiently and were retried.";

    // Query frontend.
    FRONTEND_SPLITS: C, "omni_frontend_splits_total", [],
        "Sub-queries the query frontend planned.";
    FRONTEND_CACHE_HITS: C, "omni_frontend_cache_hits_total", [],
        "Query splits served from the results cache.";
    FRONTEND_CACHE_MISSES: C, "omni_frontend_cache_misses_total", [],
        "Query splits executed against the ingester shards.";
    FRONTEND_REJECTED: C, "omni_frontend_rejected_total", [],
        "Queries rejected by per-query limits.";
    FRONTEND_CACHED_ENTRIES: G, "omni_frontend_cached_entries", [],
        "Split results currently held in the cache.";
    FRONTEND_PUSHDOWN_QUERIES: C, "omni_frontend_pushdown_queries_total", [],
        "Metric queries whose aggregation was pushed down into the shards.";
    FRONTEND_PUSHDOWN_PARTIALS: C, "omni_frontend_pushdown_partials_total", [],
        "Per-shard partial aggregates merged by the frontend.";
    FRONTEND_PUSHDOWN_ENTRIES_SAVED: C, "omni_frontend_pushdown_entries_saved_total", [],
        "Entries pushdown queries did not ship to the frontend.";

    // Per-tenant admission ledger and fairness. `omni_tenant_` is the
    // reserved prefix for tenant-scoped telemetry: every such row
    // declares `tenant`, which is what lets one panel show who is being
    // shed and why.
    TENANT_INGEST_OFFERED: C, "omni_tenant_ingest_offered_total", ["tenant"],
        "Records offered for tenant admission, by tenant.";
    TENANT_INGEST_ACCEPTED: C, "omni_tenant_ingest_accepted_total", ["tenant"],
        "Records past tenant admission, by tenant.";
    TENANT_INGEST_REJECTED: C, "omni_tenant_ingest_rejected_total", ["tenant"],
        "Records shed by tenant admission control, by tenant.";
    TENANT_QUERIES_OFFERED: C, "omni_tenant_queries_offered_total", ["tenant"],
        "Queries offered for tenant admission, by tenant.";
    TENANT_QUERIES_REJECTED: C, "omni_tenant_queries_rejected_total", ["tenant"],
        "Queries shed by tenant admission control, by tenant.";
    TENANT_ACTIVE_STREAMS: G, "omni_tenant_active_streams", ["tenant"],
        "Active streams attributed to the tenant.";
    TENANT_QUERY_WAIT_ROUNDS: G, "omni_tenant_query_wait_rounds", ["tenant"],
        "Peak fair-scheduler queue wait (grant rounds), by tenant.";

    // Bridges.
    BRIDGE_FETCH_RETRIES: C, "omni_bridge_fetch_retries_total", ["bridge"],
        "Fetch rounds deferred by a brownout, by bridge.";
    BRIDGE_RESUBSCRIBES: C, "omni_bridge_resubscribes_total", ["bridge"],
        "Credential re-issues after an Unauthorized, by bridge.";
    BRIDGE_INGEST_RETRIES: C, "omni_bridge_ingest_retries_total", ["bridge"],
        "Transient ingest failures parked for retry, by bridge.";
    BRIDGE_DEAD_LETTER: C, "omni_bridge_dead_letter_total", ["bridge"],
        "Messages produced to the dead-letter topic, by bridge.";
    BRIDGE_IN_FLIGHT: G, "omni_bridge_in_flight", ["bridge"],
        "Records parked awaiting an ingest retry, by bridge.";

    // Notification delivery queue.
    DELIVERY_ENQUEUED: C, "omni_delivery_enqueued_total", [], "Notifications enqueued.";
    DELIVERY_ATTEMPTS: C, "omni_delivery_attempts_total", [], "Send attempts, retries included.";
    DELIVERY_DELIVERED: C, "omni_delivery_delivered_total", [], "Notifications delivered.";
    DELIVERY_RETRIED: C, "omni_delivery_retried_total", [], "Failed attempts re-queued.";
    DELIVERY_FAILED: C, "omni_delivery_failed_total", [],
        "Notifications dead-lettered after exhausting retries.";
    DELIVERY_CIRCUIT_OPENS: C, "omni_delivery_circuit_opens_total", [],
        "Receiver circuit-breaker opens.";
    DELIVERY_CIRCUIT_CLOSES: C, "omni_delivery_circuit_closes_total", [],
        "Successful half-open probes that closed a breaker.";
    DELIVERY_QUEUE_DEPTH: G, "omni_delivery_queue_depth", [],
        "Notifications waiting (due or backing off).";

    // Chaos engine (present only while one is installed).
    CHAOS_ACTIONS: C, "omni_chaos_actions_total", [], "Scheduled chaos actions fired.";
    CHAOS_FLAKY_ROLLS: C, "omni_chaos_flaky_rolls_total", [], "Flaky-receiver coin flips.";
    CHAOS_FLAKY_FAILURES: C, "omni_chaos_flaky_failures_total", [],
        "Coin flips that failed a send.";

    // ServiceNow.
    SERVICENOW_EVENTS: C, "omni_servicenow_events_total", [], "ServiceNow events received.";
    SERVICENOW_INCIDENTS: G, "omni_servicenow_incidents", [], "ServiceNow incidents ever opened.";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_every_histogram_layout_is_registrable() {
        let names: BTreeSet<&str> = SELF_FAMILIES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), SELF_FAMILIES.len(), "duplicate family name in the table");
        let registry = Registry::new(omni_model::SimClock::new());
        for row in SELF_FAMILIES {
            if matches!(row.kind, FamilyKind::Histogram(_)) {
                // `Registry::histogram` asserts non-empty, strictly increasing bounds.
                row.histogram(&registry, LabelSet::new());
            }
        }
    }

    #[test]
    fn histogram_rows_expand_to_what_gather_produces() {
        let registry = Registry::new(omni_model::SimClock::new());
        TENANT_QUERY_WAIT_SECONDS
            .histogram(&registry, omni_model::labels!("tenant" => "acme"))
            .observe(0.01);
        let declared = TENANT_QUERY_WAIT_SECONDS.gathered();
        let gathered = registry.gather();
        assert_eq!(gathered.len(), declared.len());
        for snap in gathered {
            let (_, kind, labels) =
                declared.iter().find(|(name, ..)| *name == snap.name).expect("declared");
            assert_eq!(snap.kind, *kind, "{}", snap.name);
            let seen: Vec<&str> = snap.samples[0].labels.iter().map(|(k, _)| k).collect();
            let want: BTreeSet<&str> = labels.iter().copied().collect();
            assert_eq!(seen.into_iter().collect::<BTreeSet<_>>(), want, "{}", snap.name);
        }
    }

    #[test]
    fn declared_label_keys_are_in_key_order() {
        // `Rows::sample` writes a row's pairs in declared order, and a
        // page writes labels sorted.
        for row in SELF_FAMILIES {
            assert!(row.labels.windows(2).all(|w| w[0] < w[1]), "{}", row.name);
        }
    }

    #[test]
    fn rows_start_a_family_once_and_keep_empty_ones() {
        let registry = Registry::new(omni_model::SimClock::new());
        registry.register_collector(|rows| {
            rows.family(&BUS_CONSUMER_LAG);
            for topic in ["b", "a"] {
                rows.sample(&BUS_MESSAGES_IN, &[("topic", topic)], 3.0);
            }
            rows.sample(&BUS_UNAVAILABLE, &[], 1.0);
        });
        let gathered = registry.gather();
        let names: Vec<&str> = gathered.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            ["omni_bus_consumer_lag", "omni_bus_messages_in_total", "omni_bus_unavailable"]
        );
        assert!(gathered[0].samples.is_empty());
        assert_eq!(gathered[0].kind, InstrumentKind::Gauge);
        assert_eq!(gathered[1].kind, InstrumentKind::Counter);
        let topics: Vec<&str> =
            gathered[1].samples.iter().map(|s| s.labels.get("topic").unwrap()).collect();
        assert_eq!(topics, ["a", "b"]);
        assert_eq!(gathered[2].samples[0].value, 1.0);
    }
}
