//! The bridge clients: "K3s python pods ... read data in different Kafka
//! topics via the Telemetry API and send them to either Victoriametrics
//! or Loki" (§III).
//!
//! [`redfish_to_loki`] is the paper's §IV-A data-cleaning recipe,
//! reproduced decision by decision:
//!
//! * the ISO 8601 `EventTimestamp` becomes a Unix epoch in nanoseconds;
//! * `OriginOfCondition` ("a link ... which is not useful") and
//!   `MessageArgs` ("duplicate information in the Message field") are
//!   removed;
//! * two labels are added: `cluster="perlmutter"` and
//!   `data_type="redfish_event"`;
//! * `Context` is "critical for filtering events from a specific
//!   location, so it should be sent as a label";
//! * `Severity`, `MessageId` and `Message` "describe what the event was
//!   and should be sent as log content", wrapped as a JSON string so
//!   Grafana's `json` stage can re-extract them.
//!
//! # Delivery semantics
//!
//! The bridges consume at-least-once through one
//! [`omni_telemetry::Subscription`] each: it owns the `(topic, partition)`
//! cursors and the fetch / re-issue / brownout / commit protocol, and a
//! cursor advances only past a message the bridge has handled, so a bus
//! brownout or a revoked API token simply pauses consumption — the next
//! pump picks up at the same offset. What is left here is what to do with
//! a message. Records that Loki rejects transiently (all shards down) park
//! in a bounded FIFO whose oldest record's exponential backoff gates every
//! push, so per stream Loki sees bus order; poison messages (unparseable
//! payloads, permanent ingest rejects, exhausted retries) are produced to
//! [`DEAD_LETTER_TOPIC`] instead of vanishing, as the bytes the bus
//! delivered — except a Redfish record, one of the events a payload may
//! carry, which settles on its own and is dead-lettered as its own
//! Figure 3 line.
//!
//! # One copy of a line
//!
//! A keyed log message (syslog, container, fabric, GPFS) becomes a record
//! without being copied: the record holds the message's payload, the
//! bus's reference-counted bytes, until its push settles — parked records
//! too. Its stream labels come from a [`RoundCache`] keyed by
//! `(topic, key)` that keeps a stream `STREAM_HORIZON` pumps after it
//! last saw it, so a stream the bridge has seen costs one reference
//! count, and the stores' series tables find it by pointer. The push
//! borrows each line, and Loki makes the one owned copy that lands in a
//! head chunk only for a record a shard serves. A payload that is not
//! UTF-8 is decoded lossily at the push.

use crate::omni::Omni;
use omni_bus::{Broker, Bytes, Message, TopicConfig};
use omni_json::jsonv;
use omni_loki::IngestError;
use omni_model::{LabelSet, LogRecord, RetryPolicy, RetryState, RoundCache, Sample, Timestamp};
use omni_obs::{format_trace_id, parse_trace_id, Histogram, TraceStore, TRACE_HEADER};
use omni_redfish::{topics, RedfishEvent, SensorReading, SensorWire};
use omni_telemetry::{ApiError, Handler, Subscription, TelemetryApi, Token};
use omni_tsdb::{SeriesRef, Tsdb};
use omni_xname::XName;
use std::borrow::Cow;

/// Topic where the bridges park poison messages: unparseable payloads,
/// records Loki permanently rejects, and retries that exhausted their
/// policy. The message key carries the reason.
pub const DEAD_LETTER_TOPIC: &str = "omni-bridge-dead-letter";

/// Resilience counters common to both bridges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BridgeResilience {
    /// Pumps cut short because the bus was browned out (the cursors stay
    /// put, so nothing is lost — just deferred).
    pub fetch_retries: u64,
    /// Times the bridge re-issued credentials after an `Unauthorized`.
    pub resubscribes: u64,
    /// Transient ingest failures re-queued into the in-flight buffer.
    pub ingest_retries: u64,
    /// Messages produced to [`DEAD_LETTER_TOPIC`].
    pub dead_lettered: u64,
    /// Records currently parked awaiting an ingest retry, or queued
    /// behind one that is.
    pub in_flight: usize,
}

/// Convert one Redfish event into the Loki record of Figure 3.
pub fn redfish_to_loki(event: &RedfishEvent, cluster: &str) -> LogRecord {
    let labels = LabelSet::from_pairs([
        ("Context", event.context.to_string()),
        ("cluster", cluster.to_string()),
        ("data_type", "redfish_event".to_string()),
    ]);
    let content = jsonv!({
        "Severity": (event.severity.as_str()),
        "MessageId": (event.message_id.clone()),
        "Message": (event.message.clone()),
    });
    LogRecord::new(labels, event.timestamp, content.dump())
}

/// Parse a Telemetry-API payload (possibly carrying several events) and
/// convert each into a Loki record.
pub fn telemetry_payload_to_loki(payload: &str, cluster: &str) -> Vec<LogRecord> {
    let Ok(json) = omni_json::parse(payload) else { return Vec::new() };
    let Ok(events) = RedfishEvent::from_telemetry_json(&json) else { return Vec::new() };
    events.iter().map(|e| redfish_to_loki(e, cluster)).collect()
}

/// A record on its way to Loki: fresh (`state.attempts == 0`), or parked
/// after a transient push failure and awaiting its backoff.
struct InFlight {
    labels: LabelSet,
    ts: Timestamp,
    /// The record's line, and what its dead letter carries: a keyed
    /// message's payload as the bus holds it, or the Figure 3 content the
    /// bridge wrote for a Redfish event.
    line: Bytes,
    /// The trace id of the message the record came from (a Redfish
    /// message carrying [`TRACE_HEADER`] while a tracer is attached).
    trace: Option<u64>,
    state: RetryState,
}

impl InFlight {
    /// The line to push, copied only if it is not UTF-8.
    fn line(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.line)
    }
}

/// The log-side bridge: pulls the log-bearing topics through the
/// Telemetry API into Loki via the OMNI facade, at-least-once.
pub struct LogBridge {
    sub: Subscription,
    sink: LogSink,
}

/// What the log bridge does with a message: Figure 3 transformation,
/// batched push, park / retry / dead-letter.
struct LogSink {
    cluster_name: String,
    omni: Omni,
    broker: Broker,
    tracer: Option<TraceStore>,
    batch_hist: Option<Histogram>,
    /// Virtual time of the pump in progress.
    now: Timestamp,
    /// Stream labels by `(topic, key)`, one pump a round, kept
    /// [`STREAM_HORIZON`] rounds.
    streams: RoundCache<LabelSet>,
    /// Every record taken off the bus and not yet settled, in bus order:
    /// parked records first, then the current fetch round's.
    queue: Vec<InFlight>,
    /// The buffer a flush swaps in for the queue, so a round reuses the
    /// last round's allocation.
    spare: Vec<InFlight>,
    /// Dead letters the bus refused (brownout): reason and payload.
    dead_backlog: Vec<(&'static str, Bytes)>,
    policy: RetryPolicy,
    max_in_flight: usize,
    pushed: u64,
    errors: u64,
    ingest_retries: u64,
    dead_lettered: u64,
}

/// Pumps the log bridge keeps a stream's labels after it last saw the
/// stream. A pump carries whichever hosts' lines the bus holds, not every
/// host's, so a one-pump cache misses most lines of a large machine with
/// a light log load; 64 pumps keep ~86 % of `sensor_sweep`'s lines and
/// ~95 % of `alert_storm`'s cached (against 24 % and 47 % at one), at one
/// entry per `(topic, key)` the window saw.
const STREAM_HORIZON: u64 = 64;

const LOG_TOPICS: &[&str] = &[
    topics::RESOURCE_EVENTS,
    topics::SYSLOG,
    topics::CONTAINER_LOGS,
    topics::FABRIC_HEALTH,
    topics::GPFS_HEALTH,
];

impl LogBridge {
    /// Attach to the log-bearing topics through the Telemetry API. The
    /// broker handle is for the dead-letter topic.
    pub fn new(
        api: &TelemetryApi,
        token: &Token,
        omni: Omni,
        cluster_name: &str,
        broker: &Broker,
    ) -> Result<Self, ApiError> {
        broker.ensure_topic(DEAD_LETTER_TOPIC, TopicConfig { partitions: 1, ..Default::default() });
        Ok(Self {
            sub: api.subscribe(token, "log-bridge", LOG_TOPICS)?,
            sink: LogSink {
                cluster_name: cluster_name.to_string(),
                omni,
                broker: broker.clone(),
                tracer: None,
                batch_hist: None,
                now: 0,
                streams: RoundCache::with_horizon(STREAM_HORIZON),
                queue: Vec::new(),
                spare: Vec::new(),
                dead_backlog: Vec::new(),
                policy: RetryPolicy::default(),
                max_in_flight: 4_096,
                pushed: 0,
                errors: 0,
                ingest_retries: 0,
                dead_lettered: 0,
            },
        })
    }

    /// Attach a trace store: Redfish messages carrying the
    /// [`TRACE_HEADER`] get a `kafka` span, a `trace_id` record label and
    /// a `loki_ingest` span that stretches across park/retry cycles.
    pub fn set_tracer(&mut self, tracer: TraceStore) {
        self.sink.tracer = Some(tracer);
    }

    /// Attach a histogram that observes the size of every batch pushed to
    /// Loki — the operator-facing view of how well the bridge amortises
    /// its ingest locking.
    pub fn set_batch_histogram(&mut self, hist: Histogram) {
        self.sink.batch_hist = Some(hist);
    }

    /// One consumption round at virtual time `now`: retry parked records
    /// if they are due, then pull every topic forward. Returns records
    /// pushed to Loki in this pump.
    ///
    /// Records converted from the fetched messages join the queue and go
    /// to Loki as one batch per `(topic, partition)` fetch round, so the
    /// ingesters take one lock per round instead of one per record.
    /// Outcomes stay per-record: each entry in the batch result is stored,
    /// parked, or dead-lettered on its own.
    pub fn pump(&mut self, now: Timestamp) -> u64 {
        let sink = &mut self.sink;
        let before = sink.pushed;
        sink.now = now;
        sink.flush_dead_backlog();
        // Parked records retry even when the bus has nothing new.
        sink.flush();
        self.sub.poll(sink);
        // A poll stopped mid-round leaves that round's records queued.
        sink.flush();
        sink.streams.end_round();
        sink.pushed - before
    }

    /// Revoke the bridge's current API token (chaos hook); the next pump
    /// hits `Unauthorized` and re-subscribes.
    pub fn chaos_revoke_token(&self) {
        self.sub.revoke_token();
    }

    /// `(records pushed, permanent push errors)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.sink.pushed, self.sink.errors)
    }

    /// Resilience counters.
    pub fn resilience(&self) -> BridgeResilience {
        BridgeResilience {
            fetch_retries: self.sub.fetch_retries(),
            resubscribes: self.sub.resubscribes(),
            ingest_retries: self.sink.ingest_retries,
            dead_lettered: self.sink.dead_lettered,
            in_flight: self.sink.queue.len(),
        }
    }
}

impl Handler for LogSink {
    /// Backpressure: stop consuming until retries drain.
    fn ready(&self) -> bool {
        self.queue.len() < self.max_in_flight
    }

    fn handle(&mut self, topic: &str, msg: Message) {
        if topic == topics::RESOURCE_EVENTS {
            self.handle_redfish(topic, msg);
            return;
        }
        let key = msg.key.as_deref().unwrap_or("unknown");
        let buf = self.streams.key();
        buf.push_str(topic);
        // A topic name holds no NUL, so the pair splits one way only.
        buf.push('\0');
        buf.push_str(key);
        let labels = match self.streams.hit() {
            Some(labels) => labels.clone(),
            None => {
                let Some(labels) = stream_labels(&self.cluster_name, topic, key) else { return };
                self.streams.insert(labels).clone()
            }
        };
        let state = RetryState::new();
        self.queue.push(InFlight { labels, ts: msg.ts, line: msg.payload, trace: None, state });
    }

    /// One batched push per fetch round keeps the queue bounded by the
    /// round size plus a few multi-event payloads (plus what is parked).
    fn round_done(&mut self) {
        self.flush();
    }
}

/// The stream labels of a keyed log topic's message, `None` for any other
/// topic.
fn stream_labels(cluster: &str, topic: &str, key: &str) -> Option<LabelSet> {
    Some(match topic {
        // Syslog: host key becomes the hostname label.
        t if t == topics::SYSLOG => {
            LabelSet::from_pairs([("cluster", cluster), ("data_type", "syslog"), ("hostname", key)])
        }
        // Container logs: pod name label.
        t if t == topics::CONTAINER_LOGS => LabelSet::from_pairs([
            ("cluster", cluster),
            ("data_type", "container_log"),
            ("pod", key),
        ]),
        // Fabric-manager monitor events (Figure 7's stream).
        t if t == topics::FABRIC_HEALTH => {
            LabelSet::from_pairs([("cluster", cluster), ("app", "fabric_manager_monitor")])
        }
        // GPFS monitor events (§V future work), keyed by NSD server.
        t if t == topics::GPFS_HEALTH => {
            LabelSet::from_pairs([("cluster", cluster), ("app", "gpfs_monitor"), ("server", key)])
        }
        _ => return None,
    })
}

impl LogSink {
    /// A Redfish message: the Figure 2 → Figure 3 transformation, one
    /// record per event.
    fn handle_redfish(&mut self, topic: &str, msg: Message) {
        let trace =
            self.tracer.as_ref().and_then(|_| msg.header(TRACE_HEADER)).and_then(parse_trace_id);
        if let (Some(tracer), Some(id)) = (&self.tracer, trace) {
            // Time spent on the bus: produced at msg.ts, fetched now.
            tracer.span_once(
                id,
                "kafka",
                msg.ts,
                self.now,
                &format!("{topic} offset {}", msg.offset),
            );
        }
        let records =
            telemetry_payload_to_loki(&String::from_utf8_lossy(&msg.payload), &self.cluster_name);
        if records.is_empty() {
            self.dead_letter("malformed-redfish", msg.payload);
            return;
        }
        for LogRecord { mut labels, entry } in records {
            // The trace id rides as a stream label, attached *after* the
            // byte-exact Figure 3 transformation.
            if let Some(id) = trace {
                labels.insert("trace_id", format_trace_id(id));
            }
            // A record of a multi-event payload settles on its own, so its
            // dead letter is its own line, not the whole payload.
            let line = entry.line.into();
            let state = RetryState::new();
            self.queue.push(InFlight { labels, ts: entry.ts, line, trace, state });
        }
    }

    /// The one place a push outcome is settled. The whole queue goes to
    /// Loki as one batch once its oldest record is due — a fresh record is
    /// due at once, a parked one after its backoff — and each result
    /// stores, re-parks or dead-letters its record. `AllShardsDown` is a
    /// property of the cluster, not of a record, so nothing is pushed
    /// while the head waits: a record never overtakes an older one of its
    /// stream, and Loki's per-stream ordering check sees bus order.
    fn flush(&mut self) {
        let now = self.now;
        if !self.queue.first().is_some_and(|head| head.state.due(now)) {
            return;
        }
        let spare = std::mem::take(&mut self.spare);
        let mut batch = std::mem::replace(&mut self.queue, spare);
        if let Some(hist) = &self.batch_hist {
            hist.observe(batch.len() as f64);
        }
        for item in &batch {
            if let (Some(tracer), Some(id)) = (&self.tracer, item.trace) {
                // Idempotent while open: a parked record keeps its
                // original start, so the closed span shows the full
                // retry window.
                tracer.begin_span(id, "loki_ingest", now, "");
            }
        }
        let lines: Vec<Cow<'_, str>> = batch.iter().map(InFlight::line).collect();
        let frames =
            batch.iter().zip(&lines).map(|(item, line)| (item.labels.clone(), item.ts, &**line));
        let results = self.omni.ingest_batch(frames);
        drop(lines);
        for (mut item, result) in batch.drain(..).zip(results) {
            match result {
                Ok(()) => {
                    self.pushed += 1;
                    if let (Some(tracer), Some(id)) = (&self.tracer, item.trace) {
                        let note =
                            if item.state.attempts == 0 { "stored" } else { "stored after retry" };
                        tracer.end_span(id, "loki_ingest", now, note);
                    }
                }
                Err(IngestError::AllShardsDown) => {
                    let salt = item.labels.fingerprint();
                    if item.state.record_failure(now, &self.policy, salt) {
                        self.ingest_retries += 1;
                        self.queue.push(item);
                    } else {
                        self.dead_letter("retries-exhausted", item.line);
                    }
                }
                Err(_) => {
                    self.errors += 1;
                    self.dead_letter("rejected-ingest", item.line);
                }
            }
        }
        self.spare = batch;
    }

    /// Produce `payload` — the bytes the bus delivered — to
    /// [`DEAD_LETTER_TOPIC`] under `reason`.
    fn dead_letter(&mut self, reason: &'static str, payload: Bytes) {
        self.dead_lettered += 1;
        if self.broker.produce(DEAD_LETTER_TOPIC, Some(reason), payload.clone()).is_err() {
            // Bus is browned out too: hold locally, re-produce next pump.
            self.dead_backlog.push((reason, payload));
        }
    }

    fn flush_dead_backlog(&mut self) {
        let backlog = std::mem::take(&mut self.dead_backlog);
        for (reason, payload) in backlog {
            if self.broker.produce(DEAD_LETTER_TOPIC, Some(reason), payload.clone()).is_err() {
                self.dead_backlog.push((reason, payload));
            }
        }
    }
}

const METRIC_TOPICS: &[&str] = &[
    topics::TELEMETRY_TEMPERATURE,
    topics::TELEMETRY_HUMIDITY,
    topics::TELEMETRY_POWER,
    topics::TELEMETRY_FAN,
    topics::TELEMETRY_LEAK,
    topics::TELEMETRY_FLOW,
];

/// The metric-side bridge: pulls sensor telemetry topics into the TSDB,
/// at-least-once (TSDB ingest cannot fail, so no in-flight buffer).
pub struct MetricBridge {
    sub: Subscription,
    sink: MetricSink,
}

/// What the metric bridge does with a message: one reading, one sample.
///
/// A reading is read by one borrowed scan ([`SensorReading::decode`]) and
/// appended by reference through its series cache: a sensor the bridge has
/// seen costs no xname parse, label set or series lookup.
struct MetricSink {
    cluster_name: String,
    tsdb: Tsdb,
    broker: Broker,
    /// A reading's wire identity → the [`SeriesRef`] its samples append to
    /// and the series' label set, one pump a round: the scrape cache
    /// vmagent keeps for a page target, on the bus path.
    ///
    /// - *Key.* Kind, context, a NUL, then sensor; a cached context is a
    ///   valid xname (no NUL), and a hit must match its context length
    ///   too, so a hostile context holding a NUL never lands on another
    ///   reading's entry.
    /// - *Generations.* A ref retention retired is refused ([`Retired`])
    ///   and the series is resolved again through its cached labels.
    /// - *Eviction.* A subscription poll drains every topic, so a live
    ///   sensor is hit every pump; a miss costs one resolve and never
    ///   changes what is stored.
    ///
    /// [`Retired`]: omni_tsdb::Retired
    series: RoundCache<CachedSeries>,
    pushed: u64,
    dead_lettered: u64,
}

struct CachedSeries {
    context_len: usize,
    series: SeriesRef,
    labels: LabelSet,
}

impl MetricBridge {
    /// Attach to every numeric telemetry topic.
    pub fn new(
        api: &TelemetryApi,
        token: &Token,
        tsdb: Tsdb,
        cluster_name: &str,
        broker: &Broker,
    ) -> Result<Self, ApiError> {
        broker.ensure_topic(DEAD_LETTER_TOPIC, TopicConfig { partitions: 1, ..Default::default() });
        Ok(Self {
            sub: api.subscribe(token, "metric-bridge", METRIC_TOPICS)?,
            sink: MetricSink {
                cluster_name: cluster_name.to_string(),
                tsdb,
                broker: broker.clone(),
                series: RoundCache::new(),
                pushed: 0,
                dead_lettered: 0,
            },
        })
    }

    /// Pull every telemetry topic into the TSDB. Returns samples pushed in
    /// this pump.
    pub fn pump(&mut self) -> u64 {
        let before = self.sink.pushed;
        self.sub.poll(&mut self.sink);
        self.sink.series.end_round();
        self.sink.pushed - before
    }

    /// Revoke the bridge's current API token (chaos hook).
    pub fn chaos_revoke_token(&self) {
        self.sub.revoke_token();
    }

    /// Records pushed so far.
    pub fn stats(&self) -> u64 {
        self.sink.pushed
    }

    /// Resilience counters (this bridge never parks records).
    pub fn resilience(&self) -> BridgeResilience {
        BridgeResilience {
            fetch_retries: self.sub.fetch_retries(),
            resubscribes: self.sub.resubscribes(),
            ingest_retries: 0,
            dead_lettered: self.sink.dead_lettered,
            in_flight: 0,
        }
    }
}

impl MetricSink {
    /// Append `wire`'s sample: by reference for a cached series, else
    /// through a fresh label set. `false` if `Context` is not an xname.
    fn append(&mut self, wire: &SensorWire<'_>) -> bool {
        let sample = Sample::new(wire.ts, wire.value);
        let key = self.series.key();
        key.push(char::from(b'0' + wire.kind as u8));
        key.push_str(&wire.context);
        key.push('\0');
        key.push_str(&wire.sensor);
        if let Some(entry) = self.series.hit().filter(|e| e.context_len == wire.context.len()) {
            if self.tsdb.append_ref(entry.series, sample).is_err() {
                entry.series = self.tsdb.ingest_ref(&entry.labels, sample);
            }
            return true;
        }
        let Ok(xname) = wire.context.parse::<XName>() else { return false };
        let labels = LabelSet::from_pairs([
            ("__name__", format!("shasta_{}_{}", wire.kind.as_str(), wire.kind.unit())),
            ("xname", xname.to_string()),
            ("sensor", wire.sensor.to_string()),
            ("cluster", self.cluster_name.clone()),
        ]);
        let series = self.tsdb.ingest_ref(&labels, sample);
        self.series.insert(CachedSeries { context_len: wire.context.len(), series, labels });
        true
    }
}

impl Handler for MetricSink {
    /// Metric names follow the `shasta_<kind>_<unit>` convention.
    fn handle(&mut self, _topic: &str, msg: Message) {
        let payload = String::from_utf8_lossy(&msg.payload);
        if SensorReading::decode(&payload).is_some_and(|wire| self.append(&wire)) {
            self.pushed += 1;
        } else {
            self.dead_lettered += 1;
            let _ = self.broker.produce(DEAD_LETTER_TOPIC, Some("malformed-sensor"), msg.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_json::Json;
    use omni_loki::Limits;
    use omni_model::{parse_iso8601, SimClock, NANOS_PER_SEC};
    use omni_redfish::HmsCollector;

    #[test]
    fn figure3_transformation_exact() {
        let event = RedfishEvent::paper_leak_event();
        let record = redfish_to_loki(&event, "perlmutter");
        // Labels: Context + cluster + data_type, exactly (Fig 3).
        assert_eq!(record.labels.len(), 3);
        assert_eq!(record.labels.get("Context"), Some("x1203c1b0"));
        assert_eq!(record.labels.get("cluster"), Some("perlmutter"));
        assert_eq!(record.labels.get("data_type"), Some("redfish_event"));
        // Timestamp: "an unix epoch in nanoseconds" (Fig 3 shows
        // 1646272077000000000).
        assert_eq!(record.entry.ts, 1_646_272_077_000_000_000);
        assert_eq!(record.entry.ts, parse_iso8601("2022-03-03T01:47:57+00:00").unwrap());
        // Content: Severity/MessageId/Message wrapped as JSON, nothing else.
        let content = omni_json::parse(&record.entry.line).unwrap();
        let fields = content.as_object().unwrap();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["Severity", "MessageId", "Message"]);
        assert_eq!(content.get("Severity").and_then(Json::as_str), Some("Warning"));
        assert_eq!(
            content.get("MessageId").and_then(Json::as_str),
            Some("CrayAlerts.1.0.CabinetLeakDetected")
        );
        assert_eq!(
            content.get("Message").and_then(Json::as_str),
            Some("Sensor 'A' of the redundant leak sensors in the 'Front' cabinet zone has detected a leak.")
        );
        // The dropped fields must not sneak into the content.
        assert!(content.get("OriginOfCondition").is_none());
        assert!(content.get("MessageArgs").is_none());
        assert!(content.get("EventTimestamp").is_none());
    }

    #[test]
    fn figure3_payload_text_matches_paper() {
        // The paper's Fig 3 content string, byte-for-byte.
        let record = redfish_to_loki(&RedfishEvent::paper_leak_event(), "perlmutter");
        assert_eq!(
            record.entry.line,
            r#"{"Severity":"Warning","MessageId":"CrayAlerts.1.0.CabinetLeakDetected","Message":"Sensor 'A' of the redundant leak sensors in the 'Front' cabinet zone has detected a leak."}"#
        );
    }

    #[test]
    fn telemetry_payload_roundtrip() {
        let event = RedfishEvent::paper_leak_event();
        let payload = event.to_telemetry_json().dump();
        let records = telemetry_payload_to_loki(&payload, "perlmutter");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], redfish_to_loki(&event, "perlmutter"));
    }

    #[test]
    fn malformed_payload_yields_nothing() {
        assert!(telemetry_payload_to_loki("not json", "perlmutter").is_empty());
        assert!(telemetry_payload_to_loki("{}", "perlmutter").is_empty());
    }

    fn rig() -> (SimClock, Broker, TelemetryApi, Omni, LogBridge) {
        let clock = SimClock::starting_at(0);
        let broker = Broker::new(clock.clone());
        for t in topics::ALL {
            broker.ensure_topic(t, TopicConfig { partitions: 2, ..Default::default() });
        }
        let api = TelemetryApi::new(broker.clone(), 2);
        let omni = Omni::new(2, Limits::default(), clock.clone());
        let token = api.issue_token("test-bridge");
        let bridge = LogBridge::new(&api, &token, omni.clone(), "perlmutter", &broker).unwrap();
        (clock, broker, api, omni, bridge)
    }

    fn count_syslog(omni: &Omni, now: Timestamp) -> usize {
        // Loki ranges are (start, end]: start at -1 to include ts=0.
        omni.loki().query_logs(r#"{data_type="syslog"}"#, -1, now + 1, usize::MAX).unwrap().len()
    }

    #[test]
    fn log_bridge_redelivers_after_brownout() {
        let (clock, broker, _api, omni, mut bridge) = rig();
        for i in 0..10 {
            broker.produce(topics::SYSLOG, Some("nid0001"), format!("line {i}")).unwrap();
        }
        // Brownout covers the first pump: nothing moves, nothing is lost.
        let now = clock.advance(NANOS_PER_SEC);
        broker.inject_brownout(now, now + 2 * NANOS_PER_SEC);
        assert_eq!(bridge.pump(now), 0);
        assert!(bridge.resilience().fetch_retries > 0);
        // Past the window the cursor resumes from offset 0.
        let later = clock.advance(5 * NANOS_PER_SEC);
        assert_eq!(bridge.pump(later), 10);
        assert_eq!(count_syslog(&omni, later), 10);
    }

    #[test]
    fn log_bridge_reissues_revoked_token() {
        let (clock, broker, _api, omni, mut bridge) = rig();
        broker.produce(topics::SYSLOG, Some("nid0001"), "hello".to_string()).unwrap();
        bridge.chaos_revoke_token();
        let now = clock.advance(NANOS_PER_SEC);
        assert_eq!(bridge.pump(now), 1);
        assert_eq!(bridge.resilience().resubscribes, 1);
        assert_eq!(count_syslog(&omni, now), 1);
    }

    #[test]
    fn poison_payload_lands_in_dead_letter_topic() {
        let (clock, broker, _api, _omni, mut bridge) = rig();
        broker.produce(topics::RESOURCE_EVENTS, Some("x0"), "not json at all".to_string()).unwrap();
        let now = clock.advance(NANOS_PER_SEC);
        assert_eq!(bridge.pump(now), 0);
        assert_eq!(bridge.resilience().dead_lettered, 1);
        let dead = broker.fetch(DEAD_LETTER_TOPIC, 0, 0, 10).unwrap();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].key.as_deref(), Some("malformed-redfish"));
        assert_eq!(dead[0].payload.as_ref(), b"not json at all");
    }

    /// Not UTF-8, not JSON: what a dead letter must carry byte for byte.
    const RAW_POISON: &[u8] = b"\xff\xfe not json";

    #[test]
    fn log_dead_letters_carry_the_bytes_the_bus_delivered() {
        let (clock, broker, _api, _omni, mut bridge) = rig();
        broker.produce(topics::RESOURCE_EVENTS, Some("x0"), RAW_POISON).unwrap();
        assert_eq!(bridge.pump(clock.advance(NANOS_PER_SEC)), 0);
        let dead = broker.fetch(DEAD_LETTER_TOPIC, 0, 0, 10).unwrap();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].key.as_deref(), Some("malformed-redfish"));
        assert_eq!(dead[0].payload.as_ref(), RAW_POISON);
    }

    #[test]
    fn metric_dead_letters_carry_the_bytes_the_bus_delivered() {
        let (broker, _collector, _tsdb, mut bridge) = metric_rig();
        broker.produce(topics::TELEMETRY_POWER, None, RAW_POISON).unwrap();
        assert_eq!(bridge.pump(), 0);
        let dead = broker.fetch(DEAD_LETTER_TOPIC, 0, 0, 10).unwrap();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].key.as_deref(), Some("malformed-sensor"));
        assert_eq!(dead[0].payload.as_ref(), RAW_POISON);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_stored_decoded_and_dead_lettered_raw() {
        let limits = Limits { max_line_size: 16, ..Limits::default() };
        let clock = SimClock::starting_at(0);
        let broker = Broker::new(clock.clone());
        for t in topics::ALL {
            broker.ensure_topic(t, TopicConfig { partitions: 2, ..Default::default() });
        }
        let api = TelemetryApi::new(broker.clone(), 2);
        let omni = Omni::new(2, limits, clock.clone());
        let token = api.issue_token("test-bridge");
        let mut bridge = LogBridge::new(&api, &token, omni.clone(), "perlmutter", &broker).unwrap();
        let long = b"\xffover sixteen bytes long";
        broker.produce(topics::SYSLOG, Some("nid0001"), &b"ok \xff"[..]).unwrap();
        broker.produce(topics::SYSLOG, Some("nid0001"), &long[..]).unwrap();
        let now = clock.advance(NANOS_PER_SEC);
        assert_eq!(bridge.pump(now), 1);
        assert_eq!(syslog_lines_oldest_first(&omni, now), ["ok \u{fffd}"]);
        let dead = broker.fetch(DEAD_LETTER_TOPIC, 0, 0, 10).unwrap();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].key.as_deref(), Some("rejected-ingest"));
        assert_eq!(dead[0].payload.as_ref(), long);
    }

    #[test]
    fn a_rejected_event_of_a_payload_is_dead_lettered_alone() {
        let (clock, broker, _api, omni, mut bridge) = rig();
        let mut event = RedfishEvent::paper_leak_event();
        let payload = event.to_telemetry_json().dump();
        broker.produce(topics::RESOURCE_EVENTS, Some("x0"), payload).unwrap();
        assert_eq!(bridge.pump(clock.advance(NANOS_PER_SEC)), 1);
        // One payload, two events of the stream: the first older than the
        // stored one (an out-of-order reject), the second newer.
        let message =
            |e: &RedfishEvent| e.to_telemetry_json().pointer("/metrics/messages/0").unwrap().dump();
        event.timestamp -= NANOS_PER_SEC;
        event.message = "late".into();
        let (late, late_line) = (message(&event), redfish_to_loki(&event, "perlmutter").entry.line);
        event.timestamp += 2 * NANOS_PER_SEC;
        let payload = format!(r#"{{"metrics":{{"messages":[{late},{}]}}}}"#, message(&event));
        broker.produce(topics::RESOURCE_EVENTS, Some("x0"), payload).unwrap();
        let now = clock.advance(NANOS_PER_SEC);
        assert_eq!(bridge.pump(now), 1);
        assert_eq!(bridge.stats(), (2, 1));
        let query = r#"{data_type="redfish_event"}"#;
        let stored = omni.loki().query_logs(query, 0, Timestamp::MAX, 10).unwrap();
        assert_eq!(stored.len(), 2);
        let dead = broker.fetch(DEAD_LETTER_TOPIC, 0, 0, 10).unwrap();
        assert_eq!(dead.len(), 1, "one dead letter, for the one rejected event");
        assert_eq!(dead[0].key.as_deref(), Some("rejected-ingest"));
        assert_eq!(dead[0].payload.as_ref(), late_line.as_bytes(), "the event's own line");
    }

    #[test]
    fn ingest_retry_buffer_drains_after_shards_recover() {
        let (clock, broker, _api, omni, mut bridge) = rig();
        broker.produce(topics::SYSLOG, Some("nid0001"), "parked line".to_string()).unwrap();
        // Every Loki shard down: the record parks instead of dropping.
        omni.loki().crash_shard(0);
        omni.loki().crash_shard(1);
        let now = clock.advance(NANOS_PER_SEC);
        assert_eq!(bridge.pump(now), 0);
        let r = bridge.resilience();
        assert_eq!((r.in_flight, r.ingest_retries), (1, 1));
        // Shards come back; once the backoff elapses the record lands.
        omni.loki().recover_shard(0);
        omni.loki().recover_shard(1);
        let later = clock.advance(120 * NANOS_PER_SEC);
        assert_eq!(bridge.pump(later), 1);
        assert_eq!(bridge.resilience().in_flight, 0);
        assert_eq!(count_syslog(&omni, later), 1);
        assert_eq!(bridge.stats(), (1, 0));
    }

    /// Crash every shard, pump at `now` (whatever is on the bus parks),
    /// bring the shards back.
    fn park_through_outage(omni: &Omni, bridge: &mut LogBridge, now: Timestamp) {
        omni.loki().crash_shard(0);
        omni.loki().crash_shard(1);
        assert_eq!(bridge.pump(now), 0);
        omni.loki().recover_shard(0);
        omni.loki().recover_shard(1);
    }

    fn syslog_lines_oldest_first(omni: &Omni, now: Timestamp) -> Vec<String> {
        omni.loki()
            .query_logs_directed(
                r#"{data_type="syslog"}"#,
                -1,
                now + 1,
                usize::MAX,
                omni_loki::Direction::Forward,
            )
            .unwrap()
            .into_iter()
            .map(|r| r.entry.line)
            .collect()
    }

    #[test]
    fn fresh_record_does_not_overtake_a_parked_one_of_its_stream() {
        let (clock, broker, _api, omni, mut bridge) = rig();
        broker.produce(topics::SYSLOG, Some("nid0001"), "a".to_string()).unwrap();
        park_through_outage(&omni, &mut bridge, clock.advance(NANOS_PER_SEC));
        assert_eq!(bridge.resilience().in_flight, 1);
        // "a" is still backing off when "b" arrives: "b" waits behind it
        // rather than reaching the stream first and making "a" out of order.
        broker.produce(topics::SYSLOG, Some("nid0001"), "b".to_string()).unwrap();
        bridge.pump(clock.advance(NANOS_PER_SEC / 10));
        let later = clock.advance(120 * NANOS_PER_SEC);
        bridge.pump(later);
        assert_eq!(syslog_lines_oldest_first(&omni, later), ["a", "b"]);
        assert_eq!(bridge.resilience().dead_lettered, 0);
        assert_eq!(bridge.stats(), (2, 0));
    }

    #[test]
    fn parked_records_of_one_stream_retry_oldest_first() {
        let (clock, broker, _api, omni, mut bridge) = rig();
        let lines: Vec<String> = (0..6).map(|i| format!("line {i}")).collect();
        for line in &lines {
            // Distinct timestamps: an inversion is an out-of-order reject.
            clock.advance(1_000_000);
            broker.produce(topics::SYSLOG, Some("nid0001"), line.clone()).unwrap();
        }
        park_through_outage(&omni, &mut bridge, clock.advance(NANOS_PER_SEC));
        assert_eq!(bridge.resilience().in_flight, 6);
        // Pump through the whole first backoff window in small steps: no
        // record may become due, and land, ahead of an older one.
        let mut now = clock.now();
        for _ in 0..100 {
            now = clock.advance(NANOS_PER_SEC / 100);
            bridge.pump(now);
        }
        assert_eq!(syslog_lines_oldest_first(&omni, now), lines);
        assert_eq!(bridge.resilience().dead_lettered, 0);
        assert_eq!(bridge.stats(), (6, 0));
    }

    #[test]
    fn bridge_commits_cursors_for_lag_metering() {
        let (clock, broker, _api, _omni, mut bridge) = rig();
        for i in 0..5 {
            broker.produce(topics::SYSLOG, Some("nid0001"), format!("line {i}")).unwrap();
        }
        let now = clock.advance(NANOS_PER_SEC);
        assert_eq!(bridge.pump(now), 5);
        // Everything consumed and committed: zero lag for the group.
        assert_eq!(broker.group_lag("log-bridge", topics::SYSLOG).unwrap(), 0);
        // New messages the bridge has not pumped yet show up as lag.
        broker.produce(topics::SYSLOG, Some("nid0001"), "late".to_string()).unwrap();
        assert_eq!(broker.group_lag("log-bridge", topics::SYSLOG).unwrap(), 1);
        assert_eq!(broker.stats(topics::SYSLOG).unwrap().consumer_lag, 1);
    }

    #[test]
    fn trace_header_becomes_spans_and_record_label() {
        let (clock, broker, _api, omni, mut bridge) = rig();
        let tracer = TraceStore::new(42);
        bridge.set_tracer(tracer.clone());
        let event = RedfishEvent::paper_leak_event();
        let ctx = tracer.begin_trace(&event.context.to_string(), &event.message_id, 0);
        broker
            .produce_with_headers(
                topics::RESOURCE_EVENTS,
                Some(&event.context.to_string()),
                event.to_telemetry_json().dump(),
                vec![(TRACE_HEADER.to_string(), ctx.encode())],
            )
            .unwrap();
        let now = clock.advance(NANOS_PER_SEC);
        assert_eq!(bridge.pump(now), 1);
        // Both bridge-side stages closed their spans.
        assert!(tracer.has_stage(ctx.trace_id, "kafka"));
        assert!(tracer.has_stage(ctx.trace_id, "loki_ingest"));
        // The stored record carries the trace id as a label, on top of
        // the exact Figure 3 labels.
        let got =
            omni.loki().query_logs(r#"{data_type="redfish_event"}"#, -1, i64::MAX, 10).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].labels.get("trace_id"), Some(ctx.encode().as_str()));
    }

    #[test]
    fn parked_record_stretches_ingest_span_across_retries() {
        let (clock, broker, _api, omni, mut bridge) = rig();
        let tracer = TraceStore::new(7);
        bridge.set_tracer(tracer.clone());
        let event = RedfishEvent::paper_leak_event();
        let ctx = tracer.begin_trace(&event.context.to_string(), &event.message_id, 0);
        broker
            .produce_with_headers(
                topics::RESOURCE_EVENTS,
                None,
                event.to_telemetry_json().dump(),
                vec![(TRACE_HEADER.to_string(), ctx.encode())],
            )
            .unwrap();
        omni.loki().crash_shard(0);
        omni.loki().crash_shard(1);
        let first = clock.advance(NANOS_PER_SEC);
        assert_eq!(bridge.pump(first), 0);
        assert!(!tracer.has_stage(ctx.trace_id, "loki_ingest"), "span must stay open");
        omni.loki().recover_shard(0);
        omni.loki().recover_shard(1);
        let later = clock.advance(120 * NANOS_PER_SEC);
        assert_eq!(bridge.pump(later), 1);
        let span = tracer
            .spans(ctx.trace_id)
            .into_iter()
            .find(|s| s.stage == "loki_ingest")
            .expect("span closed after retry");
        // The span covers the whole outage: first attempt to final store.
        assert_eq!((span.start, span.end), (first, later));
        assert_eq!(span.note, "stored after retry");
    }

    #[test]
    fn metric_bridge_survives_brownout_and_revocation() {
        let clock = SimClock::starting_at(0);
        let broker = Broker::new(clock.clone());
        for t in topics::ALL {
            broker.ensure_topic(t, TopicConfig { partitions: 2, ..Default::default() });
        }
        let api = TelemetryApi::new(broker.clone(), 2);
        let tsdb = Tsdb::default_config();
        let token = api.issue_token("test-metrics");
        let mut bridge = MetricBridge::new(&api, &token, tsdb, "perlmutter", &broker).unwrap();
        let reading = SensorReading {
            xname: "x1000c0s0b0n0".parse().unwrap(),
            sensor_id: "t0".into(),
            kind: omni_redfish::SensorKind::Temperature,
            value: 55.0,
            ts: 5,
        };
        broker
            .produce(topics::TELEMETRY_TEMPERATURE, Some("x1000c0s0b0n0"), reading.to_json().dump())
            .unwrap();
        let now = clock.advance(NANOS_PER_SEC);
        broker.inject_brownout(now, now + NANOS_PER_SEC);
        assert_eq!(bridge.pump(), 0);
        assert!(bridge.resilience().fetch_retries > 0);
        clock.advance(2 * NANOS_PER_SEC);
        bridge.chaos_revoke_token();
        assert_eq!(bridge.pump(), 1);
        assert_eq!(bridge.resilience().resubscribes, 1);
    }

    fn metric_rig() -> (Broker, HmsCollector, Tsdb, MetricBridge) {
        let broker = Broker::new(SimClock::starting_at(0));
        let collector = HmsCollector::new(broker.clone(), 2);
        let api = TelemetryApi::new(broker.clone(), 2);
        let tsdb = Tsdb::default_config();
        let token = api.issue_token("test-metrics");
        let bridge = MetricBridge::new(&api, &token, tsdb.clone(), "perlmutter", &broker).unwrap();
        (broker, collector, tsdb, bridge)
    }

    fn stored(tsdb: &Tsdb, name: &str) -> Vec<(LabelSet, Vec<(Timestamp, f64)>)> {
        let selector = omni_logql::parse_selector(&format!("{{__name__=\"{name}\"}}")).unwrap();
        tsdb.query_series(&selector, i64::MIN, i64::MAX)
            .into_iter()
            .map(|(l, s)| (l, s.iter().map(|s| (s.ts, s.value)).collect()))
            .collect()
    }

    #[test]
    fn sensor_timestamps_keep_their_nanoseconds_end_to_end() {
        let (_broker, collector, tsdb, mut bridge) = metric_rig();
        // 2022-03-03 plus 123 ns: above 2^53, where an `f64` rounds to 256.
        let ts = 1_646_272_077_000_000_123;
        let reading = SensorReading {
            xname: "x1203c1b0".parse().unwrap(),
            sensor_id: "A".into(),
            kind: omni_redfish::SensorKind::Leak,
            value: 1.0,
            ts,
        };
        collector.publish_reading(&reading).unwrap();
        assert_eq!(bridge.pump(), 1);
        let got = stored(&tsdb, "shasta_leak_bool");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, [(ts, 1.0)]);
        assert_eq!(got[0].0.get("xname"), Some("x1203c1b0"));
        assert_eq!(got[0].0.get("sensor"), Some("A"));
        assert_eq!(got[0].0.get("cluster"), Some("perlmutter"));
    }

    #[test]
    fn a_context_holding_a_nul_never_lands_on_a_cached_series() {
        let (broker, _collector, tsdb, mut bridge) = metric_rig();
        let payload = |context: &str, sensor: &str, ts: i64| {
            let mut p = String::from("{\"Context\":");
            omni_json::write_string(&mut p, context);
            p.push_str(",\"Sensor\":");
            omni_json::write_string(&mut p, sensor);
            p.push_str(&format!(
                ",\"PhysicalContext\":\"power\",\"Reading\":7,\"Timestamp\":{ts}}}"
            ));
            p
        };
        // Cached: context `x1000c0s0b0n0`, sensor `a\0b`. The hostile
        // reading's context `x1000c0s0b0n0\0a` with sensor `b` writes the
        // same cache key; it is no xname, so it must be dead-lettered.
        broker.produce(topics::TELEMETRY_POWER, None, payload("x1000c0s0b0n0", "a\0b", 1)).unwrap();
        assert_eq!(bridge.pump(), 1);
        let hostile = payload("x1000c0s0b0n0\0a", "b", 2);
        broker.produce(topics::TELEMETRY_POWER, None, hostile.clone()).unwrap();
        broker.produce(topics::TELEMETRY_POWER, None, payload("x1000c0s0b0n0", "a\0b", 3)).unwrap();
        assert_eq!(bridge.pump(), 1);
        assert_eq!(bridge.resilience().dead_lettered, 1);
        let dead = broker.fetch(DEAD_LETTER_TOPIC, 0, 0, 10).unwrap();
        assert_eq!(dead[0].key.as_deref(), Some("malformed-sensor"));
        assert_eq!(dead[0].payload.as_ref(), hostile.as_bytes());
        let got = stored(&tsdb, "shasta_power_watts");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, [(1, 7.0), (3, 7.0)]);
    }
}
