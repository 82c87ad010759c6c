//! Heap allocations of one step, attributed to its stages in place: a
//! `StepObserver` reads a counting allocator before and after every stage
//! of `omni_core::stack::STAGES`, on the real step rather than a copy of
//! it. The per-stage counts must add up to the whole `step_observed`
//! call's count exactly, so nothing the step does runs outside a stage,
//! and the counts themselves are pinned, so a change that moves an
//! allocation from one layer to another shows here by name.
//!
//! The config is the default `StackConfig` (tiny topology, 8 shards),
//! warmed for three steps of 20 syslog and 10 container lines each; then
//! one leak is injected and six more steps carry it through the `for:`
//! hold and the group wait to Slack and ServiceNow.
//!
//! The counts are this thread's, taken under the test harness's output
//! capture: see the table with `-- --show-output`. Under `--nocapture` each
//! thread the ruler's shard scans spawn costs this thread two allocations
//! fewer, and `loki.ruler_evaluate` reads lower.

use omni_core::stack::{Stage, StepObserver, STAGES};
use omni_core::{MonitoringStack, StackConfig};
use omni_model::NANOS_PER_SEC;
use omni_shasta::LeakZone;
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

fn allocated() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Adds each stage's allocations to its slot; allocates nothing itself
/// between a `before` and the matching `after`.
struct PerStage {
    counts: Vec<usize>,
    next: usize,
    mark: usize,
}

impl StepObserver for PerStage {
    fn before(&mut self, _: &Stage) {
        self.mark = allocated();
    }

    fn after(&mut self, stage: &Stage) {
        let spent = allocated() - self.mark;
        assert_eq!(STAGES[self.next].name, stage.name, "stages run in table order");
        self.counts[self.next] += spent;
        self.next = (self.next + 1) % STAGES.len();
    }
}

const MINUTE: i64 = 60 * NANOS_PER_SEC;

/// Allocations per stage over the six steps that carry the leak, in
/// `STAGES` order.
const PINNED: &[(&str, usize)] = &[
    ("obs.count_step", 12),
    ("stack.chaos", 0),
    ("redfish.replay_backlog", 0),
    ("shasta.sample_sensors", 642),
    ("redfish.publish_readings", 1904),
    ("shasta.syslog_batch", 270),
    ("shasta.container_batch", 126),
    ("shasta.fabric_poll", 6),
    ("shasta.gpfs_poll", 162),
    ("redfish.publish_logs", 373),
    ("bridge.log_pump", 1194),
    ("bridge.metric_pump", 1141),
    ("tsdb.vmagent_scrape", 15306),
    ("loki.tick", 6),
    ("obs.loki_histograms", 30),
    ("loki.offload", 6),
    ("loki.compact", 0),
    ("obs.introspect_queries", 90),
    ("loki.ruler_evaluate", 1017),
    ("tsdb.vmalert_evaluate", 6349),
    ("obs.correlate_alert", 39),
    ("alertmanager.receive", 112),
    ("alertmanager.tick", 31),
    ("obs.trace_notifications", 32),
    ("stack.remediate", 0),
    ("alertmanager.enqueue", 24),
    ("alertmanager.delivery_pump", 74),
];

#[test]
fn stage_allocations_add_up_to_the_step() {
    let mut stack = MonitoringStack::new(StackConfig::default());
    for _ in 0..3 {
        stack.step(MINUTE, 20, 10);
    }
    let chassis = stack.machine.topology().chassis()[3];
    stack.inject_leak(chassis, 'A', LeakZone::Front);

    let mut obs = PerStage { counts: vec![0; STAGES.len()], next: 0, mark: 0 };
    let mut whole = 0;
    for _ in 0..6 {
        let before = allocated();
        stack.step_observed(MINUTE, 20, 10, &mut obs);
        whole += allocated() - before;
    }
    assert!(!stack.slack.is_empty(), "the leak reached Slack");
    assert_eq!(stack.servicenow.incident_count(), 1, "the leak opened one incident");

    let per_stage: Vec<(&str, usize)> =
        STAGES.iter().zip(&obs.counts).map(|(s, &n)| (s.name, n)).collect();
    for (name, n) in &per_stage {
        println!("{name:<28} {n:>7}");
    }
    println!("{:<28} {whole:>7}", "step_observed");
    assert_eq!(obs.counts.iter().sum::<usize>(), whole, "every allocation is inside a stage");
    assert_eq!(per_stage, PINNED);
}
