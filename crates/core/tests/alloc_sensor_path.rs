//! Heap allocations of the sensor path. A reading of a series the metric
//! bridge has cached is decoded by a borrowed scan and appended by
//! reference, so the bridge allocates nothing for it beyond what the bus
//! fetch allocates; and publishing a reading costs one buffer (payload
//! and key together) beyond what the bus allocates to store a message.
//! Both baselines are measured in the same test, on the same messages.

use omni_bus::{Broker, Message, TopicConfig};
use omni_core::MetricBridge;
use omni_model::SimClock;
use omni_redfish::{topics, HmsCollector, SensorKind, SensorReading};
use omni_telemetry::{Handler, TelemetryApi};
use omni_tsdb::Tsdb;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the thread-local beside it never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Takes every message and does nothing with it: what a poll costs
/// without a bridge behind it.
struct Discard;

impl Handler for Discard {
    fn handle(&mut self, _topic: &str, _msg: Message) {}
}

/// `n` distinct sensors across every kind, each reading at `ts`.
fn readings(n: usize, ts: i64) -> Vec<SensorReading> {
    const KINDS: [SensorKind; 6] = [
        SensorKind::Temperature,
        SensorKind::Humidity,
        SensorKind::Power,
        SensorKind::FanSpeed,
        SensorKind::Leak,
        SensorKind::Flow,
    ];
    (0..n)
        .map(|i| SensorReading {
            xname: format!("x1000c{}s{}b0n{}", i % 8, i / 8 % 8, i / 64).parse().unwrap(),
            sensor_id: format!("t{i}"),
            kind: KINDS[i % KINDS.len()],
            value: i as f64 / 4.0,
            ts,
        })
        .collect()
}

/// Allocations of a metric-bridge pump over `n` readings of cached series,
/// net of a bare poll over the same messages.
fn cached_pump_allocations(n: usize) -> isize {
    let broker = Broker::new(SimClock::starting_at(0));
    let collector = HmsCollector::new(broker.clone(), 4);
    let api = TelemetryApi::new(broker.clone(), 2);
    let tsdb = Tsdb::default_config();
    let token = api.issue_token("metric-bridge");
    let mut bridge = MetricBridge::new(&api, &token, tsdb.clone(), "perlmutter", &broker).unwrap();
    let metric_topics = [
        topics::TELEMETRY_TEMPERATURE,
        topics::TELEMETRY_HUMIDITY,
        topics::TELEMETRY_POWER,
        topics::TELEMETRY_FAN,
        topics::TELEMETRY_LEAK,
        topics::TELEMETRY_FLOW,
    ];
    let mut bare = api.subscribe(&token, "bare-poll", &metric_topics).unwrap();
    // Warm-up: every series is created and cached, and both consumers
    // have polled once. A new series' sample vector holds four samples,
    // so the measured round below appends without growing it.
    for r in readings(n, 1) {
        collector.publish_reading(&r).unwrap();
    }
    assert_eq!(bridge.pump(), n as u64);
    bare.poll(&mut Discard);
    for r in readings(n, 2) {
        collector.publish_reading(&r).unwrap();
    }
    let pump = allocations(|| assert_eq!(bridge.pump(), n as u64));
    let poll = allocations(|| bare.poll(&mut Discard));
    assert_eq!(tsdb.samples_ingested(), 2 * n as u64);
    assert_eq!(tsdb.series_count(), n);
    pump as isize - poll as isize
}

#[test]
fn a_cached_reading_is_decoded_and_appended_without_allocating() {
    assert_eq!(cached_pump_allocations(100), 0);
    assert_eq!(cached_pump_allocations(1_000), 0);
}

#[test]
fn publishing_a_reading_costs_one_buffer_beyond_the_bus() {
    let n = 200;
    let published = Broker::new(SimClock::starting_at(0));
    let collector = HmsCollector::new(published.clone(), 4);
    let produced = Broker::new(SimClock::starting_at(0));
    for t in topics::ALL {
        produced.ensure_topic(t, TopicConfig { partitions: 4, ..Default::default() });
    }
    let batch = readings(n, 1_646_272_077_000_000_123);
    // The same messages, built before the count starts.
    let prebuilt: Vec<(String, String)> = batch
        .iter()
        .map(|r| {
            let mut payload = String::new();
            r.write_wire(&mut payload);
            (r.xname.to_string(), payload)
        })
        .collect();
    let publish = allocations(|| {
        for r in &batch {
            collector.publish_reading(r).unwrap();
        }
    });
    let produce = allocations(|| {
        for (r, (key, payload)) in batch.iter().zip(&prebuilt) {
            produced.produce(r.kind.topic(), Some(key), payload.as_str()).unwrap();
        }
    });
    assert!(publish <= produce + n, "publish {publish}, bus alone {produce}, {n} readings");
    // Both brokers hold the same bytes.
    for r in &batch[..3] {
        let topic = r.kind.topic();
        let got: Vec<_> = (0..4).flat_map(|p| published.fetch(topic, p, 0, n).unwrap()).collect();
        let want: Vec<_> = (0..4).flat_map(|p| produced.fetch(topic, p, 0, n).unwrap()).collect();
        let bytes = |m: &Message| (m.key.clone(), m.payload.to_vec());
        assert_eq!(
            got.iter().map(bytes).collect::<Vec<_>>(),
            want.iter().map(bytes).collect::<Vec<_>>()
        );
    }
}
