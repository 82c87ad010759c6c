//! The log bridge's label cache and borrowed push change nothing it
//! stores. A `LogBridge` and a reference bridge — the per-message path it
//! replaced (a lossy owned copy of every payload, a fresh `from_pairs`
//! label set per message, and `push_record_batch` of owned records, with
//! the same park / retry / dead-letter rules) behind its own subscription
//! — are fed the same messages on two identical rigs and must end every op
//! with identical Loki answers (every stream and line, oldest first),
//! identical dead-letter topics (key and payload: the bytes the bus
//! delivered, or a Redfish record's own Figure 3 line) and identical
//! `stats()` and `resilience()`.
//!
//! Op sequences cover hosts that vanish for a pump, or for longer than the
//! bridge keeps their labels, and return (eviction); all four keyed
//! topics; lines that are not UTF-8; an over-long line (`rejected-ingest`);
//! Redfish payloads of one event, of two, and bad ones; an outage of every
//! shard (records park, then retry in order or exhaust their retries); bus
//! brownouts; token revocation; and out-of-order rejects: from a firmware
//! clock that steps back (Redfish events carry their own timestamps), and
//! from one stream's messages spread over two partitions (keyless messages
//! go round-robin, and every fabric message is one stream whatever its
//! key).
//!
//! Mutations this catches: a cache key that leaves out the topic or the
//! key, an invalid line stored as something other than its lossy decode,
//! a dead letter carrying the decoded line, a Redfish record dead-lettered
//! as its whole payload, a fresh record pushed ahead of a parked one.

use omni_bus::{Broker, Bytes, Message, TopicConfig};
use omni_core::bridge::telemetry_payload_to_loki;
use omni_core::{BridgeResilience, LogBridge, Omni, DEAD_LETTER_TOPIC};
use omni_loki::{Direction, IngestError, Limits};
use omni_model::{
    LabelSet, LogRecord, RetryPolicy, RetryState, SimClock, Timestamp, NANOS_PER_SEC,
};
use omni_redfish::{topics, RedfishEvent};
use omni_telemetry::{Handler, Subscription, TelemetryApi};
use proptest::prelude::*;

const CLUSTER: &str = "perlmutter";
const SHARDS: usize = 2;
/// Longer than a Redfish event's Figure 3 line here, shorter than the
/// over-long line.
const MAX_LINE: usize = 64;

const LOG_TOPICS: [&str; 5] = [
    topics::RESOURCE_EVENTS,
    topics::SYSLOG,
    topics::CONTAINER_LOGS,
    topics::FABRIC_HEALTH,
    topics::GPFS_HEALTH,
];

const KEYED: [&str; 4] =
    [topics::SYSLOG, topics::CONTAINER_LOGS, topics::FABRIC_HEALTH, topics::GPFS_HEALTH];

/// Message keys; `None` is a keyless message (the `unknown` stream).
const KEYS: [Option<&str>; 5] = [Some("nid0001"), Some("nid0002"), Some("x1000c0"), Some(""), None];

const LINES: [&[u8]; 6] = [
    b"kernel: ok",
    b"slurmd: job 7 started",
    b"bad \xff byte",
    b"\xc3",
    b"an over-long line that Loki must refuse to store, whatever its stream",
    b"",
];

/// Pumps that find nothing on the bus, more than the log bridge keeps the
/// labels of a stream it has not seen: the next pump that handles a
/// message evicts every stream it does not see.
const QUIET_PUMPS: usize = 100;

/// Bus clock moves before a publish, in ns.
const DT: [i64; 5] = [0, 0, 1, 1, 1_000];

/// Firmware clock moves before a Redfish event, in seconds: back, none,
/// forward.
const EVENT_DT: [i64; 6] = [-30, -1, 0, 0, 1, 60];

/// The per-message bridge the label cache and borrowed push replaced.
struct ReferenceSink {
    omni: Omni,
    broker: Broker,
    now: Timestamp,
    queue: Vec<(LogRecord, Bytes, RetryState)>,
    dead_backlog: Vec<(&'static str, Bytes)>,
    policy: RetryPolicy,
    pushed: u64,
    errors: u64,
    ingest_retries: u64,
    dead_lettered: u64,
}

impl Handler for ReferenceSink {
    fn ready(&self) -> bool {
        self.queue.len() < 4_096
    }

    fn handle(&mut self, topic: &str, msg: Message) {
        let payload = String::from_utf8_lossy(&msg.payload).into_owned();
        if topic == topics::RESOURCE_EVENTS {
            let records = telemetry_payload_to_loki(&payload, CLUSTER);
            if records.is_empty() {
                self.dead_letter("malformed-redfish", msg.payload.clone());
            }
            for record in records {
                let line = Bytes::from(record.entry.line.clone());
                self.queue.push((record, line, RetryState::new()));
            }
            return;
        }
        let key = msg.key.as_deref().unwrap_or("unknown");
        let labels = match topic {
            t if t == topics::SYSLOG => LabelSet::from_pairs([
                ("cluster", CLUSTER),
                ("data_type", "syslog"),
                ("hostname", key),
            ]),
            t if t == topics::CONTAINER_LOGS => LabelSet::from_pairs([
                ("cluster", CLUSTER),
                ("data_type", "container_log"),
                ("pod", key),
            ]),
            t if t == topics::FABRIC_HEALTH => {
                LabelSet::from_pairs([("cluster", CLUSTER), ("app", "fabric_manager_monitor")])
            }
            t if t == topics::GPFS_HEALTH => LabelSet::from_pairs([
                ("cluster", CLUSTER),
                ("app", "gpfs_monitor"),
                ("server", key),
            ]),
            _ => return,
        };
        let record = LogRecord::new(labels, msg.ts, payload);
        self.queue.push((record, msg.payload.clone(), RetryState::new()));
    }

    fn round_done(&mut self) {
        self.flush();
    }
}

impl ReferenceSink {
    fn flush(&mut self) {
        let now = self.now;
        if !self.queue.first().is_some_and(|(_, _, state)| state.due(now)) {
            return;
        }
        let batch = std::mem::take(&mut self.queue);
        let records = batch.iter().map(|(record, _, _)| record.clone()).collect();
        let results = self.omni.loki().push_record_batch(records);
        for ((record, payload, mut state), result) in batch.into_iter().zip(results) {
            match result {
                Ok(()) => self.pushed += 1,
                Err(IngestError::AllShardsDown) => {
                    let salt = record.labels.fingerprint();
                    if state.record_failure(now, &self.policy, salt) {
                        self.ingest_retries += 1;
                        self.queue.push((record, payload, state));
                    } else {
                        self.dead_letter("retries-exhausted", payload);
                    }
                }
                Err(_) => {
                    self.errors += 1;
                    self.dead_letter("rejected-ingest", payload);
                }
            }
        }
    }

    fn dead_letter(&mut self, reason: &'static str, payload: Bytes) {
        self.dead_lettered += 1;
        if self.broker.produce(DEAD_LETTER_TOPIC, Some(reason), payload.clone()).is_err() {
            self.dead_backlog.push((reason, payload));
        }
    }

    fn flush_dead_backlog(&mut self) {
        for (reason, payload) in std::mem::take(&mut self.dead_backlog) {
            if self.broker.produce(DEAD_LETTER_TOPIC, Some(reason), payload.clone()).is_err() {
                self.dead_backlog.push((reason, payload));
            }
        }
    }
}

/// The reference sink behind its own subscription, with `LogBridge`'s
/// methods.
struct ReferenceBridge(Subscription, ReferenceSink);

/// What both bridges answer to.
trait Bridge {
    fn pump(&mut self, now: Timestamp);
    fn chaos_revoke_token(&self);
    fn stats(&self) -> (u64, u64);
    fn resilience(&self) -> BridgeResilience;
}

impl Bridge for LogBridge {
    fn pump(&mut self, now: Timestamp) {
        LogBridge::pump(self, now);
    }
    fn chaos_revoke_token(&self) {
        LogBridge::chaos_revoke_token(self);
    }
    fn stats(&self) -> (u64, u64) {
        LogBridge::stats(self)
    }
    fn resilience(&self) -> BridgeResilience {
        LogBridge::resilience(self)
    }
}

impl Bridge for ReferenceBridge {
    fn pump(&mut self, now: Timestamp) {
        let sink = &mut self.1;
        sink.now = now;
        sink.flush_dead_backlog();
        sink.flush();
        self.0.poll(sink);
        sink.flush();
    }
    fn chaos_revoke_token(&self) {
        self.0.revoke_token();
    }
    fn stats(&self) -> (u64, u64) {
        (self.1.pushed, self.1.errors)
    }
    fn resilience(&self) -> BridgeResilience {
        BridgeResilience {
            fetch_retries: self.0.fetch_retries(),
            resubscribes: self.0.resubscribes(),
            ingest_retries: self.1.ingest_retries,
            dead_lettered: self.1.dead_lettered,
            in_flight: self.1.queue.len(),
        }
    }
}

struct Rig {
    clock: SimClock,
    broker: Broker,
    omni: Omni,
    bridge: Box<dyn Bridge>,
}

fn rig(attach: impl FnOnce(&TelemetryApi, &Broker, &Omni) -> Box<dyn Bridge>) -> Rig {
    let clock = SimClock::starting_at(1_000_000);
    let broker = Broker::new(clock.clone());
    for t in topics::ALL {
        broker.ensure_topic(t, TopicConfig { partitions: 2, ..Default::default() });
    }
    broker.ensure_topic(DEAD_LETTER_TOPIC, TopicConfig { partitions: 1, ..Default::default() });
    let api = TelemetryApi::new(broker.clone(), 2);
    let limits = Limits { max_line_size: MAX_LINE, ..Limits::default() };
    let omni = Omni::new(SHARDS, limits, clock.clone());
    let bridge = attach(&api, &broker, &omni);
    Rig { clock, broker, omni, bridge }
}

fn rigs() -> (Rig, Rig) {
    let bridge = rig(|api, broker, omni| {
        let token = api.issue_token("log-bridge");
        Box::new(LogBridge::new(api, &token, omni.clone(), CLUSTER, broker).unwrap())
    });
    let reference = rig(|api, broker, omni| {
        let token = api.issue_token("reference-bridge");
        let sub = api.subscribe(&token, "reference-bridge", &LOG_TOPICS).unwrap();
        let sink = ReferenceSink {
            omni: omni.clone(),
            broker: broker.clone(),
            now: 0,
            queue: Vec::new(),
            dead_backlog: Vec::new(),
            policy: RetryPolicy::default(),
            pushed: 0,
            errors: 0,
            ingest_retries: 0,
            dead_lettered: 0,
        };
        Box::new(ReferenceBridge(sub, sink))
    });
    (bridge, reference)
}

/// Every stored stream and line, oldest first.
fn stored(omni: &Omni) -> Vec<(LabelSet, Timestamp, String)> {
    omni.loki()
        .query_logs_directed("{}", i64::MIN, i64::MAX, usize::MAX, Direction::Forward)
        .unwrap()
        .into_iter()
        .map(|r| (r.labels, r.entry.ts, r.entry.line))
        .collect()
}

fn dead_letters(broker: &Broker) -> Vec<(Option<String>, Vec<u8>)> {
    broker
        .fetch(DEAD_LETTER_TOPIC, 0, 0, usize::MAX)
        .unwrap()
        .into_iter()
        .map(|m| (m.key, m.payload.to_vec()))
        .collect()
}

/// Apply `f` to both rigs.
fn both(a: &mut Rig, b: &mut Rig, mut f: impl FnMut(&mut Rig)) {
    f(a);
    f(b);
}

fn pump(rig: &mut Rig) {
    let now = rig.clock.now();
    rig.bridge.pump(now);
}

fn set_shards(rig: &Rig, up: bool) {
    for shard in 0..SHARDS {
        if up {
            rig.omni.loki().recover_shard(shard);
        } else {
            rig.omni.loki().crash_shard(shard);
        }
    }
}

/// One Telemetry-API payload carrying the events of two single-event
/// payloads.
fn two_events(first: &str, second: &str) -> String {
    let messages = |payload: &str| {
        let json = omni_json::parse(payload).unwrap();
        json.pointer("/metrics/messages/0").unwrap().dump()
    };
    format!(r#"{{"metrics":{{"messages":[{},{}]}}}}"#, messages(first), messages(second))
}

proptest! {
    /// An op is `(kind, a, b, c)`: 0–4 publish `LINES[b]` on keyed topic
    /// `a % 4` under `KEYS[c]` after moving the clock by `DT[a]`; 5
    /// publishes under `KEYS[c]` a Redfish event moved by `EVENT_DT[b]`
    /// when `a` is 0 or 2, that event and one moved from it by
    /// `EVENT_DT[c]` in one payload when `a` is 4, else `LINES[b]` as its
    /// payload; 6–7 pump both
    /// bridges a moment later; 8 pumps through a brownout; 9 pumps through
    /// an outage of every shard; 10 pumps after a long quiet (parked
    /// records come due), then `QUIET_PUMPS` times more; 11 revokes both
    /// tokens.
    #[test]
    fn cached_bridge_stores_what_the_per_message_bridge_stores(
        ops in prop::collection::vec((0u8..12, 0usize..5, 0usize..6, 0usize..5), 1..80),
    ) {
        let (mut a, mut b) = rigs();
        let mut event = RedfishEvent::paper_leak_event();
        // A Figure 3 line short enough to store.
        (event.message_id, event.message) = ("Leak".into(), "A".into());
        for (i, &(kind, x, y, z)) in ops.iter().enumerate() {
            match kind {
                0..=4 => both(&mut a, &mut b, |rig| {
                    rig.clock.advance(DT[x]);
                    let (topic, key) = (KEYED[x % KEYED.len()], KEYS[z]);
                    rig.broker.produce(topic, key, LINES[y]).unwrap();
                }),
                5 => {
                    let payload = if x % 2 == 0 {
                        event.timestamp += EVENT_DT[y] * NANOS_PER_SEC;
                        let first = event.to_telemetry_json().dump();
                        if x < 4 {
                            first.into_bytes()
                        } else {
                            event.timestamp += EVENT_DT[z] * NANOS_PER_SEC;
                            two_events(&first, &event.to_telemetry_json().dump()).into_bytes()
                        }
                    } else {
                        LINES[y].to_vec()
                    };
                    both(&mut a, &mut b, |rig| {
                        rig.broker.produce(topics::RESOURCE_EVENTS, KEYS[z], payload.clone()).unwrap();
                    });
                }
                6 | 7 => both(&mut a, &mut b, |rig| {
                    rig.clock.advance(1_000);
                    pump(rig);
                }),
                8 => both(&mut a, &mut b, |rig| {
                    let now = rig.clock.advance(1_000);
                    rig.broker.inject_brownout(now, now + 500);
                    pump(rig);
                    rig.clock.advance(1_000);
                }),
                9 => both(&mut a, &mut b, |rig| {
                    rig.clock.advance(1_000);
                    set_shards(rig, false);
                    pump(rig);
                    set_shards(rig, true);
                }),
                10 => both(&mut a, &mut b, |rig| {
                    rig.clock.advance(600_000_000_000);
                    for _ in 0..=QUIET_PUMPS {
                        pump(rig);
                        rig.clock.advance(1_000);
                    }
                }),
                _ => both(&mut a, &mut b, |rig| rig.bridge.chaos_revoke_token()),
            }
            prop_assert_eq!(stored(&a.omni), stored(&b.omni), "op {} {:?}", i, ops[i]);
            prop_assert_eq!(dead_letters(&a.broker), dead_letters(&b.broker), "op {}", i);
            prop_assert_eq!(a.bridge.stats(), b.bridge.stats(), "op {}", i);
            prop_assert_eq!(a.bridge.resilience(), b.bridge.resilience(), "op {}", i);
        }
    }
}
