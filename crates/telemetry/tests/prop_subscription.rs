//! Property test for the one consumer: whatever the interleaving of
//! produces, brownout windows, token revocations and a handler that stops
//! mid-batch, a [`Subscription`] delivers every message at least once, in
//! offset order per partition, never past a stop, and after a full drain
//! the broker's committed cursor for the client equals the log end.

use omni_bus::{Broker, TopicConfig};
use omni_model::{SimClock, NANOS_PER_SEC};
use omni_telemetry::{Handler, Subscription, TelemetryApi};
use proptest::prelude::*;
use std::collections::BTreeMap;

const TOPICS: [&str; 2] = ["logs", "sensors"];
const CLIENT: &str = "prop-client";

/// Records what it is handed and stops being ready when `budget` runs out.
#[derive(Default)]
struct Recorder {
    budget: usize,
    /// Offsets handled so far, per `(topic, partition)`, in delivery order.
    seen: BTreeMap<(String, usize), Vec<u64>>,
    /// Messages handled since the last round boundary.
    open_round: usize,
}

impl Handler for Recorder {
    fn ready(&self) -> bool {
        self.budget > 0
    }

    fn handle(&mut self, topic: &str, msg: omni_bus::Message) {
        assert!(self.budget > 0, "handled a message past a stop");
        self.budget -= 1;
        self.open_round += 1;
        self.seen.entry((topic.to_string(), msg.partition)).or_default().push(msg.offset);
    }

    fn round_done(&mut self) {
        assert!(self.open_round > 0, "a round boundary without a round");
        self.open_round = 0;
    }
}

impl Recorder {
    /// Every partition's deliveries are the dense prefix `0, 1, 2, …`:
    /// in order, nothing skipped, nothing duplicated within one
    /// subscription's lifetime.
    fn assert_dense(&self) {
        for (at, offsets) in &self.seen {
            for (i, &o) in offsets.iter().enumerate() {
                assert_eq!(o, i as u64, "{at:?} delivered out of order: {offsets:?}");
            }
        }
    }

    fn handled(&self, topic: &str, partition: usize) -> u64 {
        self.seen.get(&(topic.to_string(), partition)).map_or(0, |v| v.len() as u64)
    }
}

/// The bus, one subscription on it, and what the test expects of both.
struct Rig {
    clock: SimClock,
    broker: Broker,
    partitions: usize,
    sub: Subscription,
    rec: Recorder,
    /// A revocation no poll has met yet.
    revoked: bool,
    expect_fetch_retries: u64,
    expect_resubscribes: u64,
}

impl Rig {
    fn new(partitions: usize) -> Self {
        let clock = SimClock::starting_at(0);
        let broker = Broker::new(clock.clone());
        for t in TOPICS {
            broker.create_topic(t, TopicConfig { partitions, ..Default::default() }).unwrap();
        }
        let api = TelemetryApi::new(broker.clone(), 2);
        let sub = api.subscribe(&api.issue_token("someone-else"), CLIENT, &TOPICS).unwrap();
        Self {
            clock,
            broker,
            partitions,
            sub,
            rec: Recorder::default(),
            revoked: false,
            expect_fetch_retries: 0,
            expect_resubscribes: 0,
        }
    }

    /// One poll whose handler stops after `budget` messages, then the
    /// invariants that hold after every poll.
    fn poll(&mut self, budget: usize) {
        self.rec.budget = budget;
        self.rec.open_round = 0;
        if budget > 0 {
            // A ready handler reaches the API: a pending revocation is met
            // (and repaired) first, then a brownout ends the poll.
            self.expect_resubscribes += u64::from(std::mem::take(&mut self.revoked));
            self.expect_fetch_retries += u64::from(self.broker.brownout_active());
        }
        self.sub.poll(&mut self.rec);
        self.rec.assert_dense();
        // Exactly what was handled is committed, under the client id.
        for t in TOPICS {
            for p in 0..self.partitions {
                assert_eq!(self.broker.committed(CLIENT, t, p), self.rec.handled(t, p));
            }
        }
        assert_eq!(self.sub.fetch_retries(), self.expect_fetch_retries);
        assert_eq!(self.sub.resubscribes(), self.expect_resubscribes);
    }
}

proptest! {
    #[test]
    fn at_least_once_in_order_never_past_a_stop(
        ops in prop::collection::vec((0u8..5, 0usize..1_400), 1..40),
        partitions in 1usize..4,
    ) {
        let mut rig = Rig::new(partitions);
        let mut key = 0u64;
        for (op, arg) in ops {
            match op {
                // Produce a burst (often more than one fetch round's worth);
                // inside a brownout the bus refuses it and nothing is owed.
                0 => {
                    for _ in 0..arg {
                        key += 1;
                        let _ = rig.broker.produce(TOPICS[arg % 2], Some(&format!("k{key}")), "m");
                    }
                }
                1 => {
                    let now = rig.clock.now();
                    rig.broker.inject_brownout(now, now + (1 + arg as i64 % 3) * NANOS_PER_SEC);
                }
                2 => {
                    rig.sub.revoke_token();
                    rig.revoked = true;
                }
                3 => rig.poll(arg),
                _ => {
                    rig.clock.advance(NANOS_PER_SEC);
                }
            }
        }

        // Past every brownout, an unbounded handler drains the bus.
        rig.clock.advance(10 * NANOS_PER_SEC);
        rig.poll(usize::MAX);
        for t in TOPICS {
            for p in 0..partitions {
                let end = rig.broker.log_end(t, p).unwrap();
                prop_assert_eq!(rig.rec.handled(t, p), end, "{}/{} not fully delivered", t, p);
                prop_assert_eq!(rig.broker.committed(CLIENT, t, p), end);
            }
        }
    }
}
