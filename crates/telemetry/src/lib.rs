//! The Shasta Telemetry API.
//!
//! "The telemetry API server acts as a middleman between Kafka and data
//! consumers and is responsible for authentication and balancing income
//! requests. The telemetry API client then sends a request to the API
//! server and creates a subscription to a Kafka topic. Kafka pushes data
//! to the client via the API." — §IV.
//!
//! The API fronts the bus with:
//!
//! * **token authentication** — clients must present a token issued by
//!   [`TelemetryApi::issue_token`];
//! * **gateway balancing** — every fetch lands on the least-loaded of the
//!   configured gateway servers (the paper's cluster runs 4 VM gateways);
//! * **one cursor subscription** — [`Subscription`] is the only way off
//!   the bus: per-`(topic, partition)` offset cursors, delivered
//!   at-least-once to a [`Handler`] and committed under the client id so
//!   the broker can meter the client's lag. [`TelemetryApi::fetch`] and
//!   [`TelemetryApi::commit`] are the primitives it runs on.

use omni_bus::{Broker, BusError, Message};
use omni_model::fnv1a64;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Messages fetched per `(topic, partition)` round.
const FETCH_BATCH: usize = 512;

/// An opaque bearer token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token(String);

impl Token {
    /// The wire form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Telemetry API errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// Token missing, revoked or unknown.
    Unauthorized,
    /// Underlying bus problem.
    Bus(BusError),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Unauthorized => write!(f, "unauthorized"),
            ApiError::Bus(e) => write!(f, "bus error: {e}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<BusError> for ApiError {
    fn from(e: BusError) -> Self {
        ApiError::Bus(e)
    }
}

/// Gateway load snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayLoad {
    /// Gateway index.
    pub gateway: usize,
    /// Requests handled since start.
    pub total_requests: u64,
}

struct ApiInner {
    broker: Broker,
    tokens: Mutex<HashMap<String, String>>, // token -> client id
    /// Requests served, per gateway server.
    gateways: Vec<AtomicU64>,
    token_counter: AtomicU64,
}

/// The API server (all gateways share one logical instance).
#[derive(Clone)]
pub struct TelemetryApi {
    inner: Arc<ApiInner>,
}

impl TelemetryApi {
    /// Front a broker with `gateways` gateway servers.
    pub fn new(broker: Broker, gateways: usize) -> Self {
        assert!(gateways > 0, "need at least one gateway");
        Self {
            inner: Arc::new(ApiInner {
                broker,
                tokens: Mutex::new(HashMap::new()),
                gateways: (0..gateways).map(|_| AtomicU64::new(0)).collect(),
                token_counter: AtomicU64::new(0),
            }),
        }
    }

    /// Issue a bearer token for a client.
    pub fn issue_token(&self, client_id: &str) -> Token {
        let n = self.inner.token_counter.fetch_add(1, Ordering::Relaxed);
        let raw = format!("sma-{:016x}-{n}", fnv1a64(client_id.as_bytes()));
        self.inner.tokens.lock().insert(raw.clone(), client_id.to_string());
        Token(raw)
    }

    /// Revoke a token.
    pub fn revoke_token(&self, token: &Token) {
        self.inner.tokens.lock().remove(&token.0);
    }

    fn authenticate(&self, token: &Token) -> Result<(), ApiError> {
        if self.inner.tokens.lock().contains_key(&token.0) {
            Ok(())
        } else {
            Err(ApiError::Unauthorized)
        }
    }

    /// Create a subscription for `client_id` on `topics`: one cursor per
    /// `(topic, partition)`, in the order given, each starting at offset 0.
    /// `client_id` is the identity a revoked token is re-issued under and
    /// the consumer group the cursors are committed to. The start cursors
    /// are committed here, so bus retention keeps everything the
    /// subscription has yet to read from the moment it exists.
    pub fn subscribe(
        &self,
        token: &Token,
        client_id: &str,
        topics: &[&str],
    ) -> Result<Subscription, ApiError> {
        self.authenticate(token)?;
        let mut cursors = Vec::new();
        for &topic in topics {
            for partition in 0..self.inner.broker.partition_count(topic)? {
                cursors.push(Cursor { topic: topic.to_string(), partition, next: 0, committed: 0 });
            }
        }
        // Only once every topic is known: a failed subscribe pins nothing.
        for c in &cursors {
            self.inner.broker.commit(client_id, &c.topic, c.partition, c.next);
        }
        Ok(Subscription {
            api: self.clone(),
            token: token.clone(),
            client_id: client_id.to_string(),
            cursors,
            fetch_retries: 0,
            resubscribes: 0,
        })
    }

    /// Offset-addressed read of one partition, served by the least-loaded
    /// gateway (fewest requests served, ties to the lowest index).
    pub fn fetch(
        &self,
        token: &Token,
        topic: &str,
        partition: usize,
        offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, ApiError> {
        self.authenticate(token)?;
        let gateway = self
            .inner
            .gateways
            .iter()
            .min_by_key(|g| g.load(Ordering::Relaxed))
            .expect("at least one gateway");
        gateway.fetch_add(1, Ordering::Relaxed);
        Ok(self.inner.broker.fetch(topic, partition, offset, max)?)
    }

    /// Commit an offset cursor on behalf of a consumer group, so the
    /// broker can meter the group's lag (high-water mark minus cursor).
    /// `next` is the next offset the group will read.
    pub fn commit(
        &self,
        token: &Token,
        group: &str,
        topic: &str,
        partition: usize,
        next: u64,
    ) -> Result<(), ApiError> {
        self.authenticate(token)?;
        self.inner.broker.commit(group, topic, partition, next);
        Ok(())
    }

    /// Load snapshot across gateways.
    pub fn gateway_loads(&self) -> Vec<GatewayLoad> {
        self.inner
            .gateways
            .iter()
            .enumerate()
            .map(|(gateway, g)| GatewayLoad { gateway, total_requests: g.load(Ordering::Relaxed) })
            .collect()
    }
}

/// What a subscriber does with the messages a [`Subscription::poll`]
/// delivers.
pub trait Handler {
    /// Whether the handler can take another message now. Asked before
    /// every fetch and before every message; `false` ends the poll with
    /// the cursor still in front of that message (backpressure).
    fn ready(&self) -> bool {
        true
    }

    /// Take one message of `topic`. The cursor moves past the message when
    /// this returns, so whatever the handler does with it — store, park,
    /// dead-letter — the message is its responsibility from here on.
    fn handle(&mut self, topic: &str, msg: Message);

    /// Every message of one fetch round has been handled.
    fn round_done(&mut self) {}
}

/// Consumption position in one partition.
struct Cursor {
    topic: String,
    partition: usize,
    /// Offset of the next unread message.
    next: u64,
    /// What the broker holds as this client's committed cursor.
    committed: u64,
}

/// A client's subscription: the at-least-once cursor consumer.
///
/// A cursor advances only past a message the handler has taken, so a bus
/// brownout, a revoked token or a handler that is not ready only pauses
/// consumption — the next poll resumes at the same offset.
pub struct Subscription {
    api: TelemetryApi,
    token: Token,
    client_id: String,
    /// Topic-then-partition order: the order a poll visits them in.
    cursors: Vec<Cursor>,
    fetch_retries: u64,
    resubscribes: u64,
}

impl Subscription {
    /// One consumption round: pull every partition forward in rounds of
    /// `FETCH_BATCH` messages until it is drained, the handler stops being
    /// [`Handler::ready`], or the bus browns out; then commit the cursors
    /// that moved under the client id as consumer group.
    pub fn poll(&mut self, handler: &mut impl Handler) {
        'poll: for c in &mut self.cursors {
            loop {
                if !handler.ready() {
                    break 'poll;
                }
                let msgs =
                    match self.api.fetch(&self.token, &c.topic, c.partition, c.next, FETCH_BATCH) {
                        Ok(msgs) => msgs,
                        Err(ApiError::Unauthorized) => {
                            // Credentials were revoked out from under us:
                            // re-issue and resume right away.
                            self.token = self.api.issue_token(&self.client_id);
                            self.resubscribes += 1;
                            continue;
                        }
                        Err(ApiError::Bus(BusError::Unavailable)) => {
                            // Brownout: the cursors stay put, so the next
                            // poll re-reads from here.
                            self.fetch_retries += 1;
                            break 'poll;
                        }
                        Err(ApiError::Bus(_)) => break,
                    };
                if msgs.is_empty() {
                    break;
                }
                for msg in msgs {
                    if !handler.ready() {
                        // Unconsumed messages re-fetch next poll.
                        break 'poll;
                    }
                    let next = msg.offset + 1;
                    handler.handle(&c.topic, msg);
                    c.next = next;
                }
                handler.round_done();
            }
        }
        for c in &mut self.cursors {
            if c.next != c.committed
                && self
                    .api
                    .commit(&self.token, &self.client_id, &c.topic, c.partition, c.next)
                    .is_ok()
            {
                c.committed = c.next;
            }
        }
    }

    /// Polls cut short by a bus brownout (nothing is lost — just deferred).
    pub fn fetch_retries(&self) -> u64 {
        self.fetch_retries
    }

    /// Times the token was re-issued after an `Unauthorized`.
    pub fn resubscribes(&self) -> u64 {
        self.resubscribes
    }

    /// Revoke the subscription's current token (chaos hook); the next poll
    /// hits `Unauthorized` and re-issues it.
    pub fn revoke_token(&self) {
        self.api.revoke_token(&self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_bus::TopicConfig;
    use omni_model::SimClock;

    const TOPIC: &str = "cray-dmtf-resource-event";

    fn api() -> TelemetryApi {
        let broker = Broker::new(SimClock::new());
        broker.ensure_topic(TOPIC, TopicConfig::default());
        TelemetryApi::new(broker, 4)
    }

    #[test]
    fn subscribe_requires_valid_token_and_known_topic() {
        let a = api();
        let bogus = Token("nope".to_string());
        assert_eq!(a.subscribe(&bogus, "bridge", &[TOPIC]).err(), Some(ApiError::Unauthorized));
        let t = a.issue_token("bridge");
        assert_eq!(a.subscribe(&t, "bridge", &[TOPIC]).unwrap().cursors.len(), 4);
        assert!(matches!(
            a.subscribe(&t, "bridge", &["nope"]),
            Err(ApiError::Bus(BusError::UnknownTopic(_)))
        ));
    }

    #[test]
    fn revoked_token_stops_working() {
        let a = api();
        let t = a.issue_token("bridge");
        a.revoke_token(&t);
        assert_eq!(a.fetch(&t, TOPIC, 0, 0, 1).err(), Some(ApiError::Unauthorized));
    }

    #[test]
    fn fetch_reads_history() {
        let a = api();
        let t = a.issue_token("bridge");
        for i in 0..5 {
            a.inner.broker.produce(TOPIC, Some("k"), format!("{i}")).unwrap();
        }
        let part = (0..4)
            .find(|&p| !a.inner.broker.fetch(TOPIC, p, 0, 1).unwrap().is_empty())
            .expect("keyed messages must land somewhere");
        let msgs = a.fetch(&t, TOPIC, part, 0, 3).unwrap();
        assert_eq!(msgs.len(), 3);
    }

    #[test]
    fn commit_requires_auth_and_reaches_the_broker() {
        let a = api();
        let t = a.issue_token("bridge");
        a.inner.broker.produce(TOPIC, Some("k"), "m").unwrap();
        let bogus = Token("nope".to_string());
        assert_eq!(a.commit(&bogus, "log-bridge", TOPIC, 0, 1).err(), Some(ApiError::Unauthorized));
        a.commit(&t, "log-bridge", TOPIC, 0, 1).unwrap();
        assert_eq!(a.inner.broker.committed("log-bridge", TOPIC, 0), 1);
    }

    #[test]
    fn a_subscription_holds_retention_back_before_its_first_poll() {
        let broker = Broker::new(SimClock::new());
        let config = TopicConfig { partitions: 2, retention_ns: Some(1), ..Default::default() };
        broker.ensure_topic(TOPIC, config);
        let a = TelemetryApi::new(broker.clone(), 1);
        for i in 0..6 {
            broker.produce(TOPIC, None, format!("{i}")).unwrap();
        }
        let t = a.issue_token("bridge");
        let mut sub = a.subscribe(&t, "bridge", &[TOPIC]).unwrap();
        broker.clock().advance_secs(60);
        assert_eq!(broker.enforce_retention(), 0, "the subscription has read nothing yet");
        struct Count(usize);
        impl Handler for Count {
            fn handle(&mut self, _: &str, _: Message) {
                self.0 += 1;
            }
        }
        let mut seen = Count(0);
        sub.poll(&mut seen);
        assert_eq!(seen.0, 6);
        assert_eq!(broker.enforce_retention(), 6, "read and committed: free to age out");
    }

    #[test]
    fn tokens_are_unique_per_issue() {
        let a = api();
        let t1 = a.issue_token("same");
        let t2 = a.issue_token("same");
        assert_ne!(t1, t2);
    }
}
