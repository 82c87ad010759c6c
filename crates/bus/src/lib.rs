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
//! * size/age **retention** enforcement behind those cursors, and
//!   per-topic metering.

mod partition;
mod stats;

/// The payload type: a message's bytes, shared by reference count from
/// the producer's buffer to every consumer that holds the message.
pub use bytes::Bytes;
pub use partition::{Message, Partition};
pub use stats::{TopicStats, TopicStatsSnapshot};

use omni_model::lockwitness::{classes, OrderedMutex, OrderedRwLock};
use omni_model::{fnv1a64, SimClock, Timestamp};
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
    /// may be dropped by [`Broker::enforce_retention`], unless a consumer
    /// group has yet to read them. `None` = keep all.
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
    /// Committed cursors of every consumer group on the topic, sorted by
    /// group name: a commit or a lookup is a binary search, no key built.
    offsets: OrderedMutex<Vec<GroupCursors>>,
}

/// One consumer group's committed cursors on a topic.
struct GroupCursors {
    group: String,
    /// Per partition, the next offset the group will read.
    next: Vec<u64>,
}

impl Topic {
    /// A group's lag on the topic: log end minus committed cursor, summed
    /// over partitions.
    fn lag(&self, g: &GroupCursors) -> u64 {
        self.partitions.iter().zip(&g.next).map(|(p, &next)| p.log_end().saturating_sub(next)).sum()
    }

    /// Drop what is older than `horizon` on each partition, but nothing at
    /// or after the lowest cursor any group has committed there. The
    /// cursors stay locked across the sweep, so a group subscribing
    /// meanwhile finds its start offset still held.
    fn truncate_before(&self, horizon: Timestamp) -> usize {
        let offsets = self.offsets.lock();
        let mut dropped = 0;
        for (i, p) in self.partitions.iter().enumerate() {
            let floor = offsets.iter().map(|g| g.next[i]).min().unwrap_or(u64::MAX);
            dropped += p.truncate_before(horizon, floor);
        }
        dropped
    }
}

/// The position of `group` in a topic's sorted cursor list.
fn find_group(offsets: &[GroupCursors], group: &str) -> Result<usize, usize> {
    offsets.binary_search_by(|g| g.group.as_str().cmp(group))
}

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
            offsets: OrderedMutex::new(&classes::BUS_OFFSETS, Vec::new()),
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
        let Ok(t) = self.topic(topic) else { return 0 };
        let offsets = t.offsets.lock();
        let g = find_group(&offsets, group).ok().map(|i| &offsets[i]);
        g.and_then(|g| g.next.get(partition).copied()).unwrap_or(0)
    }

    /// Commit a consumer group's cursor on a partition: `next` is the next
    /// offset the group will read. Offset-cursor clients (the bridges)
    /// commit here so the broker can meter their lag, and retention keeps
    /// every message from the lowest committed cursor on. A group's first
    /// commit on a topic registers it there, at offset 0 on every other
    /// partition; a commit to an unknown topic or partition is ignored.
    pub fn commit(&self, group: &str, topic: &str, partition: usize, next: u64) {
        let Ok(t) = self.topic(topic) else { return };
        if partition >= t.partitions.len() {
            return;
        }
        let mut offsets = t.offsets.lock();
        let i = find_group(&offsets, group).unwrap_or_else(|i| {
            let cursors =
                GroupCursors { group: group.to_string(), next: vec![0; t.partitions.len()] };
            offsets.insert(i, cursors);
            i
        });
        offsets[i].next[partition] = next;
    }

    /// Consumer lag of one group on a topic: high-water mark (log end)
    /// minus committed cursor, summed over partitions. The key backlog
    /// signal for the offset-cursor bridges.
    pub fn group_lag(&self, group: &str, topic: &str) -> Result<u64, BusError> {
        let t = self.topic(topic)?;
        let offsets = t.offsets.lock();
        Ok(match find_group(&offsets, group) {
            Ok(i) => t.lag(&offsets[i]),
            Err(_) => t.partitions.iter().map(Partition::log_end).sum(),
        })
    }

    /// Drop messages older than each topic's retention horizon, relative
    /// to the broker clock, except those at or after a consumer group's
    /// committed cursor: a lagging or stalled group loses nothing, and the
    /// age bounds only what a group that has not yet subscribed can
    /// replay. Returns total messages dropped.
    pub fn enforce_retention(&self) -> usize {
        let now = self.inner.clock.now();
        let topics = self.inner.topics.read();
        topics
            .values()
            .filter_map(|t| Some(t.truncate_before(now.saturating_sub(t.config.retention_ns?))))
            .sum()
    }

    /// Metering snapshot for one topic, including the worst consumer-group
    /// lag (see [`TopicStatsSnapshot::consumer_lag`]).
    pub fn stats(&self, topic: &str) -> Result<stats::TopicStatsSnapshot, BusError> {
        let t = self.topic(topic)?;
        let mut snap = t.stats.snapshot();
        snap.consumer_lag = t.offsets.lock().iter().map(|g| t.lag(g)).max().unwrap_or(0);
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

    fn aged_topic(b: &Broker, partitions: usize) {
        let config = TopicConfig {
            partitions,
            retention_ns: Some(10 * NANOS_PER_SEC),
            ..Default::default()
        };
        b.create_topic("t", config).unwrap();
    }

    #[test]
    fn retention_keeps_what_a_lagging_group_has_not_read() {
        let b = broker();
        aged_topic(&b, 1);
        for i in 0..5 {
            b.produce("t", None, format!("{i}")).unwrap();
        }
        b.commit("bridge", "t", 0, 2);
        b.clock().advance_secs(3_600);
        assert_eq!(b.enforce_retention(), 2, "only what the group has read ages out");
        let msgs = b.fetch("t", 0, 2, 10).unwrap();
        assert_eq!(msgs.iter().map(|m| m.offset).collect::<Vec<_>>(), vec![2, 3, 4]);
        // Once the group catches up, the rest ages out too.
        b.commit("bridge", "t", 0, 5);
        assert_eq!(b.enforce_retention(), 3);
        assert_eq!(b.retained("t").unwrap(), 0);
    }

    #[test]
    fn retention_floor_is_the_slowest_group_per_partition() {
        let b = broker();
        aged_topic(&b, 2);
        for _ in 0..8 {
            b.produce("t", None, &b"m"[..]).unwrap(); // round-robin: 4 per partition
        }
        b.commit("fast", "t", 0, 4);
        b.commit("fast", "t", 1, 4);
        b.commit("slow", "t", 0, 1);
        b.clock().advance_secs(3_600);
        assert_eq!(b.enforce_retention(), 1);
        assert_eq!(b.fetch("t", 0, 0, 10).unwrap()[0].offset, 1, "slow holds partition 0");
        // `slow` never committed partition 1: it counts from offset 0 there.
        assert_eq!(b.fetch("t", 1, 0, 10).unwrap().len(), 4);
    }

    #[test]
    fn a_registered_group_that_never_read_keeps_every_partition() {
        let b = broker();
        aged_topic(&b, 3);
        for i in 0..30 {
            b.produce("t", Some(&format!("k{i}")), &b"m"[..]).unwrap();
        }
        // A subscriber commits its start cursors before reading anything.
        for p in 0..3 {
            b.commit("new-bridge", "t", p, 0);
        }
        b.clock().advance_secs(3_600);
        assert_eq!(b.enforce_retention(), 0);
        assert_eq!(b.retained("t").unwrap(), 30);
        assert_eq!(b.group_lag("new-bridge", "t").unwrap(), 30);
    }

    #[test]
    fn an_unconsumed_topic_ages_out_and_an_unbounded_one_keeps_all() {
        let b = broker();
        aged_topic(&b, 1);
        b.create_topic("dead-letter", TopicConfig { partitions: 1, ..Default::default() }).unwrap();
        for _ in 0..4 {
            b.produce("t", None, &b"m"[..]).unwrap();
            b.produce("dead-letter", None, &b"m"[..]).unwrap();
        }
        b.clock().advance_secs(5);
        b.produce("t", None, &b"young"[..]).unwrap();
        b.clock().advance_secs(6);
        // No group on `t`: the age alone decides, so the young one stays.
        assert_eq!(b.enforce_retention(), 4);
        assert_eq!(b.fetch("t", 0, 0, 10).unwrap()[0].offset, 4);
        // No retention on the dead-letter topic: it still reads from 0.
        assert_eq!(b.fetch("dead-letter", 0, 0, 10).unwrap().len(), 4);
    }

    #[test]
    fn cursor_commits_ignore_unknown_topics_and_partitions() {
        let b = broker();
        b.create_topic("t", TopicConfig { partitions: 1, ..Default::default() }).unwrap();
        b.commit("g", "nope", 0, 3);
        b.commit("g", "t", 7, 3);
        assert_eq!(b.committed("g", "nope", 0), 0);
        assert_eq!(b.committed("g", "t", 7), 0);
        assert_eq!(b.stats("t").unwrap().consumer_lag, 0, "no group registered");
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
        assert_eq!(b.group_lag("slow", "t").unwrap(), total);
        assert_eq!(b.committed("bridge", "t", 1), b.log_end("t", 1).unwrap());
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
