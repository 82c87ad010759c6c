//! The metric bridge's borrowed decode and series-ref cache change nothing
//! it stores. A `MetricBridge` and a reference bridge — the tree decode it
//! replaced (`parse` + `from_json`, a fresh `from_pairs` label set and
//! `ingest_sample` per reading) behind its own subscription — are fed the
//! same messages on two identical rigs and must end every op with
//! identical TSDBs (every series and sample bit, `series_count`,
//! `samples_ingested`), identical dead-letter topics (key and payload: the
//! bytes the bus delivered, invalid UTF-8 included) and identical
//! `stats()` and `resilience()`.
//!
//! Op sequences cover sensors that vanish and return (eviction), one
//! series under two spellings of its xname and an escaped one, malformed
//! payloads (bad JSON, an unknown kind, a bad xname, a `null` reading,
//! invalid UTF-8), bus brownouts, token revocation, a clock that steps
//! back (out-of-order drops), and retention at a 100 ns horizon between
//! pumps (a cached ref to a retired series).
//!
//! Mutations this catches: a `Retired` ref not re-resolved (samples lost
//! after retention), a cache key that leaves out the kind or the sensor,
//! labels built from the context text rather than the canonical xname, a
//! dead letter with the wrong key or a re-encoded payload.

use omni_bus::{Broker, Message, TopicConfig};
use omni_core::{BridgeResilience, MetricBridge, DEAD_LETTER_TOPIC};
use omni_logql::matcher::{MatchOp, Matcher, Selector};
use omni_model::{LabelSet, SimClock, Timestamp};
use omni_redfish::{topics, SensorKind, SensorReading};
use omni_telemetry::{Handler, Subscription, TelemetryApi};
use omni_tsdb::{Tsdb, TsdbConfig};
use proptest::prelude::*;

const METRIC_TOPICS: [&str; 6] = [
    topics::TELEMETRY_TEMPERATURE,
    topics::TELEMETRY_HUMIDITY,
    topics::TELEMETRY_POWER,
    topics::TELEMETRY_FAN,
    topics::TELEMETRY_LEAK,
    topics::TELEMETRY_FLOW,
];

const KINDS: [SensorKind; 6] = [
    SensorKind::Temperature,
    SensorKind::Humidity,
    SensorKind::Power,
    SensorKind::FanSpeed,
    SensorKind::Leak,
    SensorKind::Flow,
];

const XNAMES: [&str; 4] = ["x1000c0s0b0n0", "x1203c1b0", "x1002c1r7b0", "x1203"];
/// Other spellings of `XNAMES[0]`: leading zeros, and escapes on the wire.
const SPELLINGS: [&str; 2] = ["x01000c0s0b0n00", "\\u00781000c0s0b0n0"];
const SENSORS: [&str; 3] = ["t0", "A", "fan\"3\\"];
const VALUES: [f64; 5] = [42.5, -0.0, 1e300, 5e-324, 0.0];
const DT: [i64; 6] = [-30, -1, 0, 1, 10, 60];
const RETAIN_AHEAD: [i64; 3] = [0, 50, 150];

const MALFORMED: [&[u8]; 7] = [
    b"not json",
    br#"{"Context":"x1000c0s0b0n0","Sensor":"t0","PhysicalContext":"vibes","Reading":1,"Timestamp":1}"#,
    br#"{"Context":"y1000","Sensor":"t0","PhysicalContext":"power","Reading":1,"Timestamp":1}"#,
    br#"{"Context":"x1000c0s0b0n0","Sensor":"t0","PhysicalContext":"power","Reading":null,"Timestamp":1}"#,
    b"{\"Context\":\"x1000c0s0b0n0\",\"Sensor\":\"t\xff0\",\"PhysicalContext\":\"power\",\"Reading\":1,\"Timestamp\":1}",
    b"{\"Context\":\"x1000c0\xc3\",\"Sensor\":\"t0\",\"PhysicalContext\":\"power\",\"Reading\":1,\"Timestamp\":1}",
    br#"{"Context":"x1000c0s0b0n0","Sensor":"t0","PhysicalContext":"power","Reading":1,"Timestamp":1"#,
];

/// The tree decode the bridge used before it read payloads by scan and
/// appended by reference, kept as the reference.
struct ReferenceSink {
    tsdb: Tsdb,
    broker: Broker,
    pushed: u64,
    dead_lettered: u64,
}

impl Handler for ReferenceSink {
    fn handle(&mut self, _topic: &str, msg: Message) {
        let payload = String::from_utf8_lossy(&msg.payload).into_owned();
        match omni_json::parse(&payload).ok().as_ref().and_then(SensorReading::from_json) {
            Some(reading) => {
                let name = format!("shasta_{}_{}", reading.kind.as_str(), reading.kind.unit());
                let labels = LabelSet::from_pairs([
                    ("xname", reading.xname.to_string()),
                    ("sensor", reading.sensor_id.clone()),
                    ("cluster", "perlmutter".to_string()),
                ]);
                self.tsdb.ingest_sample(&name, labels, reading.ts, reading.value);
                self.pushed += 1;
            }
            None => {
                self.dead_lettered += 1;
                let dead = msg.payload.clone();
                let _ = self.broker.produce(DEAD_LETTER_TOPIC, Some("malformed-sensor"), dead);
            }
        }
    }
}

/// The reference sink behind its own subscription, with `MetricBridge`'s
/// methods.
struct ReferenceBridge(Subscription, ReferenceSink);

impl ReferenceBridge {
    fn pump(&mut self) {
        self.0.poll(&mut self.1);
    }
    fn chaos_revoke_token(&self) {
        self.0.revoke_token();
    }
    fn stats(&self) -> u64 {
        self.1.pushed
    }
    fn resilience(&self) -> BridgeResilience {
        BridgeResilience {
            fetch_retries: self.0.fetch_retries(),
            resubscribes: self.0.resubscribes(),
            ingest_retries: 0,
            dead_lettered: self.1.dead_lettered,
            in_flight: 0,
        }
    }
}

struct Rig<B> {
    clock: SimClock,
    broker: Broker,
    tsdb: Tsdb,
    bridge: B,
}

fn rig<B>(attach: impl FnOnce(&TelemetryApi, &Broker, &Tsdb) -> B) -> Rig<B> {
    let clock = SimClock::starting_at(0);
    let broker = Broker::new(clock.clone());
    for t in topics::ALL {
        broker.ensure_topic(t, TopicConfig { partitions: 2, ..Default::default() });
    }
    broker.ensure_topic(DEAD_LETTER_TOPIC, TopicConfig { partitions: 1, ..Default::default() });
    let api = TelemetryApi::new(broker.clone(), 2);
    let tsdb = Tsdb::new(TsdbConfig { shards: 2, block_max_samples: 4, retention_ns: 100 });
    let bridge = attach(&api, &broker, &tsdb);
    Rig { clock, broker, tsdb, bridge }
}

fn rigs() -> (Rig<MetricBridge>, Rig<ReferenceBridge>) {
    let bridge = rig(|api, broker, tsdb| {
        let token = api.issue_token("metric-bridge");
        MetricBridge::new(api, &token, tsdb.clone(), "perlmutter", broker).unwrap()
    });
    let reference = rig(|api, broker, tsdb| {
        let token = api.issue_token("reference-bridge");
        let sub = api.subscribe(&token, "reference-bridge", &METRIC_TOPICS).unwrap();
        let sink = ReferenceSink {
            tsdb: tsdb.clone(),
            broker: broker.clone(),
            pushed: 0,
            dead_lettered: 0,
        };
        ReferenceBridge(sub, sink)
    });
    (bridge, reference)
}

type Contents = Vec<(LabelSet, Vec<(Timestamp, u64)>)>;

fn contents(db: &Tsdb) -> Contents {
    let all = Selector::new(vec![Matcher::new("__name__", MatchOp::Re, ".+").unwrap()]);
    db.query_series(&all, i64::MIN, i64::MAX)
        .into_iter()
        .map(|(l, s)| (l, s.iter().map(|s| (s.ts, s.value.to_bits())).collect()))
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

/// The wire payload of sensor `(x, s, k)` at `ts`, its xname spelled
/// `spelling` (0 = canonical).
fn reading_payload(x: usize, s: usize, k: usize, ts: Timestamp, spelling: usize) -> Vec<u8> {
    let reading = SensorReading {
        xname: XNAMES[x].parse().unwrap(),
        sensor_id: SENSORS[s].to_string(),
        kind: KINDS[k],
        value: VALUES[(x + s + k) % VALUES.len()],
        ts,
    };
    let mut text = String::new();
    reading.write_wire(&mut text);
    if x == 0 && spelling > 0 {
        text = text.replacen(XNAMES[0], SPELLINGS[spelling - 1], 1);
    }
    text.into_bytes()
}

fn produce_both(a: &Broker, b: &Broker, topic: &str, payload: &[u8]) {
    for broker in [a, b] {
        broker.produce(topic, None, payload.to_vec()).unwrap();
    }
}

proptest! {
    /// An op is `(kind, a, b, c)`: 0–4 publish a reading of sensor
    /// `(a % 4, b % 3, c % 6)` (kind 4 under another xname spelling) after
    /// moving the reading clock by `DT[b]`; 5 publishes `MALFORMED[a]`;
    /// 6–7 pump both bridges; 8 pumps through a brownout; 9 a retention
    /// pass at `reading clock + RETAIN_AHEAD[a]`; 10 revokes both tokens.
    #[test]
    fn cached_bridge_stores_what_the_tree_decode_stores(
        ops in prop::collection::vec((0u8..11, 0usize..8, 0usize..6, 0usize..6), 1..80),
    ) {
        let (mut a, mut b) = rigs();
        let mut ts: Timestamp = 1_000;
        for (i, &(kind, x, y, z)) in ops.iter().enumerate() {
            match kind {
                0..=4 => {
                    ts += DT[y];
                    let spelling = if kind == 4 { 1 + x % SPELLINGS.len() } else { 0 };
                    let payload = reading_payload(x % 4, y % 3, z, ts, spelling);
                    produce_both(&a.broker, &b.broker, KINDS[z].topic(), &payload);
                }
                5 => {
                    let topic = KINDS[z].topic();
                    produce_both(&a.broker, &b.broker, topic, MALFORMED[x % MALFORMED.len()]);
                }
                6 | 7 => {
                    a.bridge.pump();
                    b.bridge.pump();
                }
                8 => {
                    let now = a.clock.advance(1_000);
                    b.clock.advance(1_000);
                    a.broker.inject_brownout(now, now + 500);
                    b.broker.inject_brownout(now, now + 500);
                    a.bridge.pump();
                    b.bridge.pump();
                    a.clock.advance(1_000);
                    b.clock.advance(1_000);
                }
                9 => {
                    let now = ts + RETAIN_AHEAD[x % RETAIN_AHEAD.len()];
                    prop_assert_eq!(a.tsdb.enforce_retention(now), b.tsdb.enforce_retention(now));
                }
                _ => {
                    a.bridge.chaos_revoke_token();
                    b.bridge.chaos_revoke_token();
                }
            }
            prop_assert_eq!(contents(&a.tsdb), contents(&b.tsdb), "op {} {:?}", i, ops[i]);
            prop_assert_eq!(a.tsdb.series_count(), b.tsdb.series_count());
            prop_assert_eq!(a.tsdb.samples_ingested(), b.tsdb.samples_ingested());
            prop_assert_eq!(dead_letters(&a.broker), dead_letters(&b.broker), "op {}", i);
            prop_assert_eq!(a.bridge.stats(), b.bridge.stats());
            prop_assert_eq!(a.bridge.resilience(), b.bridge.resilience());
        }
    }
}
