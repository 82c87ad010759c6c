//! Kafka-like in-process message bus.
//!
//! In the paper's pipeline (Fig 1), Kafka sits between the Shasta data
//! producers and everything downstream: "The HMS collector pushes data to
//! Kafka, where Kafka stores data in different topics by categories and
//! serves them to possible consumers." This crate reproduces the slice of
//! Kafka the pipeline relies on:
//!
//! * named **topics** split into **partitions**, each an append-only,
//!   offset-addressed log;
//! * **producers** that route records by key hash (same key → same
//!   partition → per-key ordering, the property the Telemetry API needs to
//!   keep per-component event order);
//! * offset-addressed **fetch** plus committed **consumer-group cursors**,
//!   from which the broker meters each group's lag (the Telemetry API's
//!   subscription is the consumer; the bus only keeps its offsets);
//! * size/age **retention** enforcement and per-topic metering.

mod partition;
mod stats;

/// The payload type: a message's bytes, shared by reference count from
/// the producer's buffer to every consumer that holds the message.
pub use bytes::Bytes;
pub use partition::{Message, Partition};
pub use stats::{TopicStats, TopicStatsSnapshot};

use omni_model::lockwitness::{classes, OrderedMutex, OrderedRwLock};
use omni_model::{fnv1a64, SimClock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-topic configuration.
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Number of partitions.
    pub partitions: usize,
    /// Retention horizon: messages older than this (vs the broker clock)
    /// may be dropped by [`Broker::enforce_retention`]. `None` = keep all.
    pub retention_ns: Option<i64>,
    /// Cap on the total retained bytes per partition; oldest messages are
    /// dropped first. `None` = unbounded.
    pub max_partition_bytes: Option<usize>,
}

impl Default for TopicConfig {
    fn default() -> Self {
        Self { partitions: 4, retention_ns: None, max_partition_bytes: None }
    }
}

/// Bus errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// Topic does not exist.
    UnknownTopic(String),
    /// Topic already exists with a different configuration.
    TopicExists(String),
    /// Partition index out of range.
    UnknownPartition(usize),
    /// The broker is inside an injected brownout window; the operation was
    /// rejected and should be retried after backoff.
    Unavailable,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::UnknownTopic(t) => write!(f, "unknown topic {t:?}"),
            BusError::TopicExists(t) => write!(f, "topic {t:?} already exists"),
            BusError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            BusError::Unavailable => write!(f, "broker unavailable (brownout)"),
        }
    }
}

impl std::error::Error for BusError {}

struct Topic {
    partitions: Vec<Partition>,
    config: TopicConfig,
    stats: TopicStats,
    round_robin: AtomicU64,
}

/// Committed offsets per consumer group: (group, topic, partition) → next
/// offset to read.
type GroupOffsets = HashMap<(String, String, usize), u64>;

/// The broker: owner of all topics. Cheap to clone ([`Arc`] inside) and
/// safe to share across producer/consumer threads.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

/// One injected availability outage: operations inside `[from, until)`
/// (broker clock) fail with [`BusError::Unavailable`].
#[derive(Debug, Clone, Copy)]
struct Brownout {
    id: u64,
    from: i64,
    until: i64,
}

struct BrokerInner {
    topics: OrderedRwLock<HashMap<String, Arc<Topic>>>,
    offsets: OrderedMutex<GroupOffsets>,
    clock: SimClock,
    brownouts: OrderedMutex<Vec<Brownout>>,
    brownout_seq: AtomicU64,
}

impl Broker {
    /// Create a broker on the given virtual clock.
    pub fn new(clock: SimClock) -> Self {
        Self {
            inner: Arc::new(BrokerInner {
                topics: OrderedRwLock::new(&classes::BUS_TOPICS, HashMap::new()),
                offsets: OrderedMutex::new(&classes::BUS_OFFSETS, HashMap::new()),
                clock,
                brownouts: OrderedMutex::new(&classes::BUS_BROWNOUTS, Vec::new()),
                brownout_seq: AtomicU64::new(0),
            }),
        }
    }

    /// The broker's clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Schedule an availability outage: every produce/fetch whose broker
    /// clock falls in `[from_ns, until_ns)` fails with
    /// [`BusError::Unavailable`]. Windows may be scheduled ahead of time
    /// and overlap; expired windows are pruned lazily.
    pub fn inject_brownout(&self, from_ns: i64, until_ns: i64) {
        assert!(from_ns < until_ns, "brownout window must be non-empty");
        let id = self.inner.brownout_seq.fetch_add(1, Ordering::Relaxed);
        self.inner.brownouts.lock().push(Brownout { id, from: from_ns, until: until_ns });
    }

    /// Whether the broker is currently inside a brownout window.
    pub fn brownout_active(&self) -> bool {
        self.active_brownout().is_some()
    }

    /// The id of the brownout window covering the current clock, if any.
    fn active_brownout(&self) -> Option<u64> {
        let now = self.inner.clock.now();
        let mut windows = self.inner.brownouts.lock();
        windows.retain(|w| w.until > now);
        windows.iter().find(|w| w.from <= now).map(|w| w.id)
    }

    /// Create a topic. Errors if it already exists.
    pub fn create_topic(&self, name: &str, config: TopicConfig) -> Result<(), BusError> {
        assert!(config.partitions > 0, "topics need at least one partition");
        let mut topics = self.inner.topics.write();
        if topics.contains_key(name) {
            return Err(BusError::TopicExists(name.to_string()));
        }
        let topic = Topic {
            partitions: (0..config.partitions).map(|_| Partition::new()).collect(),
            config,
            stats: TopicStats::default(),
            round_robin: AtomicU64::new(0),
        };
        topics.insert(name.to_string(), Arc::new(topic));
        Ok(())
    }

    /// Create the topic if missing (idempotent convenience).
    pub fn ensure_topic(&self, name: &str, config: TopicConfig) {
        let _ = self.create_topic(name, config);
    }

    /// All topic names, sorted.
    pub fn topics(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.topics.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn topic(&self, name: &str) -> Result<Arc<Topic>, BusError> {
        self.inner
            .topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| BusError::UnknownTopic(name.to_string()))
    }

    /// Produce a record. Keyed records go to `hash(key) % partitions`
    /// (preserving per-key order); unkeyed records round-robin.
    /// Returns `(partition, offset)`.
    pub fn produce(
        &self,
        topic: &str,
        key: Option<&str>,
        payload: impl Into<Bytes>,
    ) -> Result<(usize, u64), BusError> {
        self.produce_with_headers(topic, key, payload, Vec::new())
    }

    /// [`Broker::produce`] with Kafka-style record headers attached — the
    /// carrier for cross-stage metadata such as the trace-propagation
    /// header, kept out of the payload so consumers that don't care never
    /// see it.
    pub fn produce_with_headers(
        &self,
        topic: &str,
        key: Option<&str>,
        payload: impl Into<Bytes>,
        headers: Vec<(String, String)>,
    ) -> Result<(usize, u64), BusError> {
        let t = self.topic(topic)?;
        if let Some(window) = self.active_brownout() {
            t.stats.record_produce_retry();
            t.stats.record_unavailable(window);
            return Err(BusError::Unavailable);
        }
        let payload: Bytes = payload.into();
        let part_idx = match key {
            Some(k) => (fnv1a64(k.as_bytes()) % t.partitions.len() as u64) as usize,
            None => {
                (t.round_robin.fetch_add(1, Ordering::Relaxed) % t.partitions.len() as u64) as usize
            }
        };
        let ts = self.inner.clock.now();
        let msg = Message {
            partition: part_idx,
            offset: 0, // assigned by the partition
            ts,
            key: key.map(str::to_string),
            payload,
            headers,
        };
        let (offset, bytes) = t.partitions[part_idx].append(msg);
        t.stats.record_in(bytes);
        // Enforce per-partition byte cap eagerly.
        if let Some(cap) = t.config.max_partition_bytes {
            t.partitions[part_idx].truncate_to_bytes(cap);
        }
        Ok((part_idx, offset))
    }

    /// Read up to `max` messages from one partition starting at `offset`.
    pub fn fetch(
        &self,
        topic: &str,
        partition: usize,
        offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, BusError> {
        let t = self.topic(topic)?;
        if let Some(window) = self.active_brownout() {
            t.stats.record_unavailable(window);
            return Err(BusError::Unavailable);
        }
        let p = t.partitions.get(partition).ok_or(BusError::UnknownPartition(partition))?;
        let msgs = p.read_from(offset, max);
        t.stats.record_out(msgs.iter().map(|m| m.payload.len()).sum());
        Ok(msgs)
    }

    /// Number of partitions of a topic.
    pub fn partition_count(&self, topic: &str) -> Result<usize, BusError> {
        Ok(self.topic(topic)?.partitions.len())
    }

    /// Next offset that would be assigned in a partition (the "log end").
    pub fn log_end(&self, topic: &str, partition: usize) -> Result<u64, BusError> {
        let t = self.topic(topic)?;
        let p = t.partitions.get(partition).ok_or(BusError::UnknownPartition(partition))?;
        Ok(p.log_end())
    }

    /// Committed cursor of a consumer group on a partition: the next
    /// offset the group would read (0 if never committed).
    pub fn committed(&self, group: &str, topic: &str, partition: usize) -> u64 {
        *self
            .inner
            .offsets
            .lock()
            .get(&(group.to_string(), topic.to_string(), partition))
            .unwrap_or(&0)
    }

    /// Commit a consumer group's cursor on a partition: `next` is the next
    /// offset the group will read. Offset-cursor clients (the bridges)
    /// commit here so the broker can meter their lag.
    pub fn commit(&self, group: &str, topic: &str, partition: usize, next: u64) {
        self.inner.offsets.lock().insert((group.to_string(), topic.to_string(), partition), next);
    }

    /// Consumer lag of one group on a topic: high-water mark (log end)
    /// minus committed cursor, summed over partitions. The key backlog
    /// signal for the offset-cursor bridges.
    pub fn group_lag(&self, group: &str, topic: &str) -> Result<u64, BusError> {
        let t = self.topic(topic)?;
        let offsets = self.inner.offsets.lock();
        let mut lag = 0u64;
        for (i, p) in t.partitions.iter().enumerate() {
            let committed = *offsets.get(&(group.to_string(), topic.to_string(), i)).unwrap_or(&0);
            lag += p.log_end().saturating_sub(committed);
        }
        Ok(lag)
    }

    /// Every consumer group that has committed a cursor on a topic, sorted.
    pub fn groups(&self, topic: &str) -> Vec<String> {
        let offsets = self.inner.offsets.lock();
        let mut groups: Vec<String> =
            offsets.keys().filter(|(_, t, _)| t == topic).map(|(g, _, _)| g.clone()).collect();
        groups.sort();
        groups.dedup();
        groups
    }

    /// Drop messages older than each topic's retention horizon, relative
    /// to the broker clock. Returns total messages dropped.
    pub fn enforce_retention(&self) -> usize {
        let now = self.inner.clock.now();
        let topics = self.inner.topics.read();
        // Topic-name order so the truncation sweep (and any tracing it
        // emits) replays deterministically across runs.
        let mut names: Vec<&String> = topics.keys().collect();
        names.sort_unstable();
        let mut dropped = 0;
        for name in names {
            let t = &topics[name];
            if let Some(ret) = t.config.retention_ns {
                let horizon = now.saturating_sub(ret);
                for p in &t.partitions {
                    dropped += p.truncate_before(horizon);
                }
            }
        }
        dropped
    }

    /// Metering snapshot for one topic, including the worst consumer-group
    /// lag (see [`TopicStatsSnapshot::consumer_lag`]).
    pub fn stats(&self, topic: &str) -> Result<stats::TopicStatsSnapshot, BusError> {
        let mut snap = self.topic(topic)?.stats.snapshot();
        snap.consumer_lag = self
            .groups(topic)
            .iter()
            .map(|g| self.group_lag(g, topic).unwrap_or(0))
            .max()
            .unwrap_or(0);
        Ok(snap)
    }

    /// Total messages currently retained in a topic across partitions.
    pub fn retained(&self, topic: &str) -> Result<usize, BusError> {
        let t = self.topic(topic)?;
        Ok(t.partitions.iter().map(|p| p.len()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::NANOS_PER_SEC;

    fn broker() -> Broker {
        Broker::new(SimClock::starting_at(1_000 * NANOS_PER_SEC))
    }

    #[test]
    fn produce_and_fetch_roundtrip() {
        let b = broker();
        b.create_topic("redfish-events", TopicConfig { partitions: 1, ..Default::default() })
            .unwrap();
        b.produce("redfish-events", None, &b"hello"[..]).unwrap();
        b.produce("redfish-events", None, &b"world"[..]).unwrap();
        let msgs = b.fetch("redfish-events", 0, 0, 10).unwrap();
        assert_eq!(msgs.len(), 2);
        assert_eq!(&msgs[0].payload[..], b"hello");
        assert_eq!(msgs[0].offset, 0);
        assert_eq!(msgs[1].offset, 1);
    }

    #[test]
    fn keyed_messages_keep_per_key_order_in_one_partition() {
        let b = broker();
        b.create_topic("t", TopicConfig { partitions: 8, ..Default::default() }).unwrap();
        let mut first_partition = None;
        for i in 0..50 {
            let (p, _) = b.produce("t", Some("x1000c0"), format!("{i}")).unwrap();
            let fp = *first_partition.get_or_insert(p);
            assert_eq!(p, fp, "same key must stay on one partition");
        }
        let p = first_partition.unwrap();
        let msgs = b.fetch("t", p, 0, 100).unwrap();
        let bodies: Vec<String> =
            msgs.iter().map(|m| String::from_utf8_lossy(&m.payload).into_owned()).collect();
        assert_eq!(bodies, (0..50).map(|i| i.to_string()).collect::<Vec<_>>());
    }

    #[test]
    fn unkeyed_round_robin_spreads() {
        let b = broker();
        b.create_topic("t", TopicConfig { partitions: 4, ..Default::default() }).unwrap();
        for _ in 0..40 {
            b.produce("t", None, &b"m"[..]).unwrap();
        }
        for p in 0..4 {
            assert_eq!(b.fetch("t", p, 0, 100).unwrap().len(), 10);
        }
    }

    #[test]
    fn unknown_topic_and_partition_error() {
        let b = broker();
        assert!(matches!(b.produce("nope", None, &b"x"[..]), Err(BusError::UnknownTopic(_))));
        b.create_topic("t", TopicConfig { partitions: 1, ..Default::default() }).unwrap();
        assert!(matches!(b.fetch("t", 5, 0, 1), Err(BusError::UnknownPartition(5))));
        assert!(matches!(
            b.create_topic("t", TopicConfig::default()),
            Err(BusError::TopicExists(_))
        ));
    }

    #[test]
    fn retention_by_age() {
        let b = broker();
        b.create_topic(
            "t",
            TopicConfig {
                partitions: 1,
                retention_ns: Some(10 * NANOS_PER_SEC),
                ..Default::default()
            },
        )
        .unwrap();
        b.produce("t", None, &b"old"[..]).unwrap();
        b.clock().advance_secs(60);
        b.produce("t", None, &b"new"[..]).unwrap();
        let dropped = b.enforce_retention();
        assert_eq!(dropped, 1);
        let msgs = b.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0].payload[..], b"new");
        // Offsets are preserved across truncation.
        assert_eq!(msgs[0].offset, 1);
    }

    #[test]
    fn retention_by_bytes() {
        let b = broker();
        b.create_topic(
            "t",
            TopicConfig { partitions: 1, max_partition_bytes: Some(10), ..Default::default() },
        )
        .unwrap();
        for _ in 0..10 {
            b.produce("t", None, &b"xxxx"[..]).unwrap(); // 4 bytes each
        }
        // 10-byte cap: at most 2 retained (8 bytes) plus the new one is
        // trimmed to fit.
        assert!(b.retained("t").unwrap() <= 3);
        let end = b.log_end("t", 0).unwrap();
        assert_eq!(end, 10);
    }

    #[test]
    fn concurrent_producers_assign_unique_offsets() {
        let b = broker();
        b.create_topic("t", TopicConfig { partitions: 1, ..Default::default() }).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        b.produce("t", None, &b"m"[..]).unwrap();
                    }
                });
            }
        });
        let msgs = b.fetch("t", 0, 0, 10_000).unwrap();
        assert_eq!(msgs.len(), 4_000);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.offset, i as u64);
        }
    }

    #[test]
    fn headers_ride_the_message() {
        let b = broker();
        b.create_topic("t", TopicConfig { partitions: 1, ..Default::default() }).unwrap();
        b.produce_with_headers(
            "t",
            Some("k"),
            &b"x"[..],
            vec![("omni-trace-id".into(), "00000000000000aa".into())],
        )
        .unwrap();
        let msgs = b.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(msgs[0].header("omni-trace-id"), Some("00000000000000aa"));
        // Plain produce carries no headers.
        b.produce("t", None, &b"y"[..]).unwrap();
        assert!(b.fetch("t", 0, 1, 1).unwrap()[0].headers.is_empty());
    }

    #[test]
    fn consumer_lag_tracks_commits() {
        let b = broker();
        b.create_topic("t", TopicConfig { partitions: 2, ..Default::default() }).unwrap();
        for i in 0..10 {
            b.produce("t", Some(&format!("k{i}")), &b"m"[..]).unwrap();
        }
        // No group has committed anything yet: no lag is reported because
        // no group exists.
        assert_eq!(b.stats("t").unwrap().consumer_lag, 0);
        // A group that committed part of one partition owes the rest.
        b.commit("bridge", "t", 0, 1);
        let total: u64 = (0..2).map(|p| b.log_end("t", p).unwrap()).sum();
        assert_eq!(b.group_lag("bridge", "t").unwrap(), total - 1);
        assert_eq!(b.stats("t").unwrap().consumer_lag, total - 1);
        // Fully caught up: zero lag.
        for p in 0..2 {
            b.commit("bridge", "t", p, b.log_end("t", p).unwrap());
        }
        assert_eq!(b.stats("t").unwrap().consumer_lag, 0);
        // The slowest group defines the reported lag.
        b.commit("slow", "t", 0, 0);
        assert_eq!(b.stats("t").unwrap().consumer_lag, total);
        assert_eq!(b.groups("t"), vec!["bridge".to_string(), "slow".to_string()]);
    }

    #[test]
    fn stats_metering() {
        let b = broker();
        b.create_topic("t", TopicConfig { partitions: 1, ..Default::default() }).unwrap();
        b.produce("t", None, &b"12345"[..]).unwrap();
        b.fetch("t", 0, 0, 10).unwrap();
        let s = b.stats("t").unwrap();
        assert_eq!(s.messages_in, 1);
        assert_eq!(s.bytes_in, 5);
        assert_eq!(s.bytes_out, 5);
    }
}
