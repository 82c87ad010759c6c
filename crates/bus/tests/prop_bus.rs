//! Property tests for the bus invariants the pipeline depends on.

use omni_bus::{Broker, BusError, TopicConfig};
use omni_model::{SimClock, NANOS_PER_SEC};
use proptest::prelude::*;

/// Brownout windows reject produce and fetch while active, meter
/// `produce_retries` per rejected produce and `unavailable_windows` once
/// per window, and nothing produced outside the window is lost.
#[test]
fn brownout_rejects_then_recovers_with_counters() {
    let clock = SimClock::starting_at(0);
    let broker = Broker::new(clock.clone());
    broker.create_topic("t", TopicConfig { partitions: 1, ..Default::default() }).unwrap();

    broker.produce("t", None, &b"before"[..]).unwrap();
    broker.inject_brownout(10 * NANOS_PER_SEC, 20 * NANOS_PER_SEC);
    assert!(!broker.brownout_active());

    clock.advance_secs(10);
    assert!(broker.brownout_active());
    for _ in 0..3 {
        assert_eq!(broker.produce("t", None, &b"lost"[..]), Err(BusError::Unavailable));
    }
    assert_eq!(broker.fetch("t", 0, 0, 10), Err(BusError::Unavailable));

    clock.advance_secs(10);
    assert!(!broker.brownout_active());
    broker.produce("t", None, &b"after"[..]).unwrap();

    let s = broker.stats("t").unwrap();
    assert_eq!(s.produce_retries, 3);
    assert_eq!(s.unavailable_windows, 1);
    let msgs = broker.fetch("t", 0, 0, 10).unwrap();
    assert_eq!(msgs.len(), 2);
    assert_eq!(&msgs[0].payload[..], b"before");
    assert_eq!(&msgs[1].payload[..], b"after");

    // A second, separate window bumps the window counter once more.
    broker.inject_brownout(30 * NANOS_PER_SEC, 31 * NANOS_PER_SEC);
    clock.advance_secs(10);
    assert_eq!(broker.produce("t", None, &b"x"[..]), Err(BusError::Unavailable));
    assert_eq!(broker.produce("t", None, &b"x"[..]), Err(BusError::Unavailable));
    let s = broker.stats("t").unwrap();
    assert_eq!(s.produce_retries, 5);
    assert_eq!(s.unavailable_windows, 2);
}

proptest! {
    /// Per-key ordering: however producers interleave keys, each key's
    /// messages come back in production order (this is what keeps one
    /// xname's Redfish events ordered through the pipeline).
    #[test]
    fn per_key_order_preserved(
        keys in prop::collection::vec(0u8..8, 1..200),
        partitions in 1usize..8,
    ) {
        let broker = Broker::new(SimClock::new());
        broker
            .create_topic("t", TopicConfig { partitions, ..Default::default() })
            .unwrap();
        let mut per_key_seq: Vec<Vec<u32>> = vec![Vec::new(); 8];
        for (i, &k) in keys.iter().enumerate() {
            broker.produce("t", Some(&format!("key{k}")), format!("{i}")).unwrap();
            per_key_seq[k as usize].push(i as u32);
        }
        // Drain every partition and reassemble per-key sequences.
        let mut got: Vec<Vec<u32>> = vec![Vec::new(); 8];
        for p in 0..partitions {
            for m in broker.fetch("t", p, 0, usize::MAX).unwrap() {
                let k: usize = m.key.as_ref().unwrap()[3..].parse().unwrap();
                let i: u32 = std::str::from_utf8(&m.payload).unwrap().parse().unwrap();
                got[k].push(i);
            }
        }
        for k in 0..8 {
            prop_assert_eq!(&got[k], &per_key_seq[k], "key {} out of order", k);
        }
    }

    /// Offsets are dense and monotone per partition, and fetch(from)
    /// returns exactly the suffix.
    #[test]
    fn offsets_dense_and_fetch_suffix(
        n in 0usize..300,
        from in 0u64..400,
    ) {
        let broker = Broker::new(SimClock::new());
        broker.create_topic("t", TopicConfig { partitions: 1, ..Default::default() }).unwrap();
        for i in 0..n {
            broker.produce("t", None, format!("{i}")).unwrap();
        }
        let all = broker.fetch("t", 0, 0, usize::MAX).unwrap();
        prop_assert_eq!(all.len(), n);
        for (i, m) in all.iter().enumerate() {
            prop_assert_eq!(m.offset, i as u64);
        }
        let suffix = broker.fetch("t", 0, from, usize::MAX).unwrap();
        prop_assert_eq!(suffix.len(), n.saturating_sub(from as usize));
        if let Some(first) = suffix.first() {
            prop_assert_eq!(first.offset, from);
        }
    }
}
