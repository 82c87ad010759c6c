//! Per-tenant limits and chunk-cutting policy.
//!
//! The paper's §IV-A design discussion — "the overuse of labels will
//! create a huge amount of small chunks in memory and on disk... Loki
//! prefers handling bigger but fewer chunks" — is encoded here: chunks cut
//! on a byte/age target, caps on label count and stream count, and
//! ordering enforcement.

use omni_model::NANOS_PER_SEC;

/// Ingestion limits and chunk policy.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Seal a head chunk when its uncompressed bytes reach this target.
    pub chunk_target_bytes: usize,
    /// Seal a head chunk when its oldest entry is older than this.
    pub chunk_max_age_ns: i64,
    /// Maximum labels per stream (Loki's `max_label_names_per_series`).
    pub max_label_names_per_series: usize,
    /// Maximum length of one log line.
    pub max_line_size: usize,
    /// Maximum number of active streams per ingester shard.
    pub max_streams_per_shard: usize,
    /// Reject entries older than the newest accepted entry of the stream
    /// minus this tolerance (out-of-order window).
    pub out_of_order_tolerance_ns: i64,
    /// Retention horizon; chunks whose max timestamp falls behind
    /// `now - retention_ns` are deleted. The paper keeps "up to two years".
    pub retention_ns: i64,
    /// The query frontend splits range/log queries into sub-queries of at
    /// most this many nanoseconds, aligned to absolute multiples so
    /// repeated dashboard refreshes share split boundaries — and with
    /// them cached splits and range step extents (Loki's
    /// `split_queries_by_interval`). `0` disables splitting.
    pub split_interval_ns: i64,
    /// Reject log queries requesting more than this many entries
    /// (Loki's `max_entries_limit_per_query`).
    pub max_entries_per_query: usize,
    /// Reject a query once its freshly executed splits have scanned more
    /// than this many line bytes (Loki's `max_query_bytes_read`); bytes
    /// served from the results cache do not count against the budget.
    pub max_bytes_scanned: usize,
    /// Per-query deadline on the shared virtual clock (Loki's
    /// `query_timeout`): a query is rejected once `now` reaches its
    /// arrival time plus this budget. The simulation's clock only
    /// advances between steps, so `0` rejects deterministically and any
    /// positive budget admits a same-tick query.
    pub query_timeout_ns: i64,
    /// How often the compactor runs on the virtual clock (Loki's
    /// `compaction_interval`). `0` disables the background cadence
    /// (explicit `compact()` calls still work).
    pub compaction_interval_ns: i64,
    /// Only sealed chunks whose newest entry is at least this old are
    /// compacted — younger ones may still gain same-window siblings, and
    /// recompacting a hot window churns objects for nothing.
    pub compact_after_ns: i64,
    /// Target uncompressed size of one compacted object ("Loki prefers
    /// handling bigger but fewer chunks", §IV-A).
    pub compacted_target_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            chunk_target_bytes: 256 * 1024,
            chunk_max_age_ns: 3_600 * NANOS_PER_SEC,
            max_label_names_per_series: 15,
            max_line_size: 64 * 1024,
            max_streams_per_shard: 100_000,
            out_of_order_tolerance_ns: 0,
            retention_ns: 2 * 365 * 86_400 * NANOS_PER_SEC, // two years
            split_interval_ns: 3_600 * NANOS_PER_SEC,       // Loki defaults to 1h
            max_entries_per_query: usize::MAX,
            max_bytes_scanned: usize::MAX,
            query_timeout_ns: i64::MAX,
            compaction_interval_ns: 600 * NANOS_PER_SEC, // Loki's 10m default
            compact_after_ns: 2 * 3_600 * NANOS_PER_SEC,
            compacted_target_bytes: 1024 * 1024,
        }
    }
}

impl Limits {
    /// The per-tenant limits a tenant without an override runs under,
    /// derived from the cluster limits (the `default → override`
    /// resolution order real Loki applies to its `overrides:` block).
    pub fn tenant_defaults(&self) -> TenantLimits {
        TenantLimits {
            max_entries_per_query: self.max_entries_per_query,
            max_bytes_scanned: self.max_bytes_scanned,
            retention_ns: self.retention_ns,
            ..TenantLimits::default()
        }
    }
}

/// Per-tenant override limits — the reproduction of Loki's per-tenant
/// `overrides:` block. Every field bounds one resource a noisy tenant
/// could otherwise monopolise; admission control sheds (typed, `429`
/// style) instead of panicking or silently dropping when a bound is hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLimits {
    /// Ingest token-bucket refill, in records per virtual second
    /// (`u64::MAX` = unmetered).
    pub ingest_rate_per_sec: u64,
    /// Ingest token-bucket capacity, in records.
    pub ingest_burst: u64,
    /// Cap on the tenant's concurrently active streams across the
    /// cluster (Loki's `max_global_streams_per_user`).
    pub max_active_streams: usize,
    /// Per-query entry cap for this tenant's queries.
    pub max_entries_per_query: usize,
    /// Per-query fresh-bytes-scanned budget for this tenant's queries.
    pub max_bytes_scanned: usize,
    /// Query admission rate, in queries per virtual second
    /// (`u64::MAX` = unmetered).
    pub query_rate_per_sec: u64,
    /// Query token-bucket capacity.
    pub query_burst: u64,
    /// Retention horizon for this tenant's streams.
    pub retention_ns: i64,
    /// Weight in the frontend's fair scheduler: a tenant with twice the
    /// weight gets twice the split-execution share under contention.
    pub query_weight: u32,
}

impl Default for TenantLimits {
    fn default() -> Self {
        Self {
            ingest_rate_per_sec: u64::MAX,
            ingest_burst: u64::MAX,
            max_active_streams: usize::MAX,
            max_entries_per_query: usize::MAX,
            max_bytes_scanned: usize::MAX,
            query_rate_per_sec: u64::MAX,
            query_burst: u64::MAX,
            retention_ns: 2 * 365 * 86_400 * NANOS_PER_SEC,
            query_weight: 1,
        }
    }
}

impl TenantLimits {
    /// A zero-limit tenant: every ingest and query is shed. The edge case
    /// operators use to hard-disable a tenant without deleting its data.
    pub fn zero() -> Self {
        Self {
            ingest_rate_per_sec: 0,
            ingest_burst: 0,
            query_rate_per_sec: 0,
            query_burst: 0,
            max_active_streams: 0,
            ..Default::default()
        }
    }
}
