//! Shared data model for the shasta-mon monitoring stack.
//!
//! Every subsystem in the reproduction (the bus, the Loki-like log store,
//! the VictoriaMetrics-like TSDB, Alertmanager, ServiceNow) exchanges data
//! in terms of a small set of common types:
//!
//! * [`Timestamp`] — nanoseconds since the Unix epoch, the unit Loki uses
//!   for log entries ("The timestamp in Loki is an unix epoch in
//!   nanoseconds", §IV-A of the paper).
//! * [`LabelSet`] — an ordered set of key/value labels, the Prometheus/Loki
//!   stream identity.
//! * [`LabelIndex`] — the label-only inverted index both stores resolve a
//!   selector's equality matchers through.
//! * [`SeriesTable`] — the slab both stores keep their streams and series
//!   in, found by label-set content and indexed by slot.
//! * [`RoundCache`] — the text-keyed cache evicted by rounds that vmagent
//!   and both bridges keep their resolved series and streams in.
//! * [`LogEntry`] / [`LogRecord`] — a timestamped log line, optionally
//!   paired with its stream labels.
//! * [`Sample`] — a timestamped float, the Prometheus metric sample.
//! * [`Severity`] — the Redfish/alert severity scale.
//! * [`SimClock`] — a virtual, thread-safe clock driving deterministic
//!   simulations.
//! * [`AlertRule`] / [`RuleEngine`] / [`Alert`] — alerting rules, the one
//!   pending → firing → resolved state machine both the Loki Ruler and
//!   vmalert run, and the one alert it hands to Alertmanager.

pub mod clock;
pub mod index;
pub mod labels;
pub mod lockwitness;
pub mod retry;
pub mod round_cache;
pub mod rules;
pub mod series;
pub mod severity;
mod shipped_rules;
pub mod tenant;
pub mod time;

pub use clock::SimClock;
pub use index::LabelIndex;
pub use labels::{LabelSet, LabelSetBuilder};
pub use retry::{CircuitBreaker, CircuitState, RetryPolicy, RetryState};
pub use round_cache::RoundCache;
pub use rules::{Alert, AlertRule, AlertStatus, Evaluate, RuleEngine, RuleGroup};
pub use series::{SeriesId, SeriesTable};
pub use severity::Severity;
pub use tenant::{TenantId, TokenBucket, ANONYMOUS_TENANT};
pub use time::{format_iso8601, parse_iso8601, Timestamp, NANOS_PER_SEC};

/// A single log line as stored by the log store: a nanosecond timestamp and
/// the raw line content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Nanoseconds since the Unix epoch.
    pub ts: Timestamp,
    /// The log line ("string" in the paper's terminology).
    pub line: String,
}

impl LogEntry {
    /// Create a new entry.
    pub fn new(ts: Timestamp, line: impl Into<String>) -> Self {
        Self { ts, line: line.into() }
    }

    /// Size in bytes of the line content (used for `bytes_over_time` and
    /// ingestion accounting).
    pub fn line_bytes(&self) -> usize {
        self.line.len()
    }
}

/// A log entry together with the labels of the stream it belongs to.
///
/// This is the unit a Loki push request carries and the unit query results
/// return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Stream identity.
    pub labels: LabelSet,
    /// The timestamped line.
    pub entry: LogEntry,
}

impl LogRecord {
    /// Create a record from labels, timestamp and line.
    pub fn new(labels: LabelSet, ts: Timestamp, line: impl Into<String>) -> Self {
        Self { labels, entry: LogEntry::new(ts, line) }
    }
}

/// A single metric sample: millisecond-resolution timestamps are enough for
/// Prometheus-model metrics, but we keep nanoseconds for uniformity with the
/// log path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Nanoseconds since the Unix epoch.
    pub ts: Timestamp,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// Create a new sample.
    pub fn new(ts: Timestamp, value: f64) -> Self {
        Self { ts, value }
    }
}

/// A named metric observation with labels, as scraped from an exporter or
/// pushed by a bridge client.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Full label set including the `__name__` label.
    pub labels: LabelSet,
    /// The sample.
    pub sample: Sample,
}

impl MetricRecord {
    /// Create a record, inserting `name` as the `__name__` label.
    pub fn new(name: &str, labels: LabelSet, ts: Timestamp, value: f64) -> Self {
        let mut labels = labels;
        labels.insert("__name__", name);
        Self { labels, sample: Sample::new(ts, value) }
    }

    /// Metric name (the `__name__` label), if present.
    pub fn name(&self) -> Option<&str> {
        self.labels.get("__name__")
    }
}

/// FNV-1a 64-bit hash, used for label fingerprints and shard placement.
///
/// Implemented here so every crate fingerprints identically without an
/// external hashing dependency.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash `h` over more bytes, so a caller can hash a
/// sequence of pieces without concatenating them first.
pub(crate) fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_entry_bytes() {
        let e = LogEntry::new(10, "hello");
        assert_eq!(e.line_bytes(), 5);
        assert_eq!(e.ts, 10);
    }

    #[test]
    fn metric_record_sets_name_label() {
        let r = MetricRecord::new("up", LabelSet::default(), 1, 1.0);
        assert_eq!(r.name(), Some("up"));
        assert_eq!(r.labels.get("__name__"), Some("up"));
    }

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_differs_on_content() {
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }
}
