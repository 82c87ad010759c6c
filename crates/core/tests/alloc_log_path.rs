//! Heap allocations of the log path. A keyed log message of a stream the
//! log bridge has cached is queued as the bus's bytes under a cached label
//! set and pushed borrowed, so the one buffer the bridge and Loki allocate
//! for it is the owned line Loki keeps in the stream's head chunk. Beyond
//! that, a pump costs a constant per fetch round plus the doubling growth
//! of the push's three per-shard tables, net of what a bare poll over the
//! same messages allocates. Two batch sizes pin the per-message slope at
//! one.

use omni_bus::{Broker, Message, TopicConfig};
use omni_core::{LogBridge, Omni};
use omni_loki::Limits;
use omni_model::{SimClock, NANOS_PER_SEC};
use omni_redfish::{topics, HmsCollector};
use omni_telemetry::{Handler, TelemetryApi};
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

/// What a fetch round that pushes allocates beyond one line per message
/// and the growth of its shard's tables, whatever its size: the
/// borrowed-line list, the door's result list, the distributor's shard
/// list and the ingester's result list.
const PER_ROUND: usize = 4;

/// The tables a serving shard fills one frame at a time in a push: runs,
/// entries and result indices.
const SHARD_TABLES: usize = 3;

/// Allocations a `Vec` makes while `len` words are pushed into it one by
/// one, as each shard table grows (their elements are all word-sized or
/// larger, so they grow alike).
fn growth(len: usize) -> usize {
    allocations(|| {
        let mut table = Vec::new();
        for i in 0..len {
            table.push(std::hint::black_box(i));
        }
        std::hint::black_box(table);
    })
}

/// What a pump of `n` cached lines may allocate beyond a bare poll: each
/// fetch round's constant and its shard's table growth, one line each.
fn bound(n: usize) -> usize {
    n + ROUNDS * (PER_ROUND + SHARD_TABLES * growth(n / ROUNDS))
}

/// Fetch rounds that push: one per syslog partition.
const ROUNDS: usize = 2;

const LOG_TOPICS: [&str; 5] = [
    topics::RESOURCE_EVENTS,
    topics::SYSLOG,
    topics::CONTAINER_LOGS,
    topics::FABRIC_HEALTH,
    topics::GPFS_HEALTH,
];

/// Allocations of a log-bridge pump over `n` syslog lines of cached
/// streams (one line per host), net of a bare poll over the same messages.
fn cached_pump_allocations(n: usize) -> usize {
    let clock = SimClock::starting_at(0);
    let broker = Broker::new(clock.clone());
    let collector = HmsCollector::new(broker.clone(), 2);
    broker.ensure_topic(topics::SYSLOG, TopicConfig { partitions: 2, ..Default::default() });
    let api = TelemetryApi::new(broker.clone(), 2);
    let omni = Omni::new(1, Limits::default(), clock.clone());
    let token = api.issue_token("log-bridge");
    let mut bridge = LogBridge::new(&api, &token, omni.clone(), "perlmutter", &broker).unwrap();
    let mut bare = api.subscribe(&token, "bare-poll", &LOG_TOPICS).unwrap();
    let publish = |round: usize| {
        for host in 0..n {
            let line = format!("nid{host:06} kernel: round {round} ok");
            collector.publish_log(topics::SYSLOG, &format!("nid{host:06}"), line).unwrap();
        }
    };
    // Warm-up: every stream is created and its labels cached, and both
    // consumers have polled once. A new head chunk has room for four
    // entries, so the measured round appends without growing one.
    publish(1);
    assert_eq!(bridge.pump(clock.advance(NANOS_PER_SEC)), n as u64);
    bare.poll(&mut Discard);
    publish(2);
    let now = clock.advance(NANOS_PER_SEC);
    let pump = allocations(|| assert_eq!(bridge.pump(now), n as u64));
    let poll = allocations(|| bare.poll(&mut Discard));
    assert_eq!(omni.ingest_totals().0, 2 * n as u64);
    assert_eq!(omni.loki().query_logs("{}", -1, now + 1, usize::MAX).unwrap().len(), 2 * n);
    pump - poll
}

#[test]
fn a_cached_line_costs_its_head_chunk_copy_and_nothing_else() {
    let (small, large) = (50, 400);
    let (at_small, at_large) = (cached_pump_allocations(small), cached_pump_allocations(large));
    for (n, net) in [(small, at_small), (large, at_large)] {
        assert!(n <= net && net <= bound(n), "{net} allocations for {n} lines");
    }
    let rounds = bound(large) - large - (bound(small) - small);
    assert_eq!(at_large - at_small, large - small + rounds, "one allocation per line, no more");
}
