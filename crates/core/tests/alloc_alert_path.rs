//! Heap allocations of the alert path, counted rather than timed: the
//! steps that carry a leak from its Redfish event to a ServiceNow
//! incident allocate the same with 10 incidents already open as with
//! 10 000. A delivery reads the incident its own alert is bound to and an
//! incident is found by its number, so nothing on the step path copies or
//! scans the instance's history.
//!
//! The counts are chosen away from the growth boundaries of the
//! instance's incident vector (capacity 16 at 10 incidents, 16 384 at
//! 10 000) and of its SN Alert map (11 of 14 usable slots, and 10 001 of
//! 14 336, once the leak's alert is in), so the incident and SN Alert the
//! leak adds fit without growing either. The self-metrics page renders
//! the incident count ("10" or "10000") into a buffer it already holds, so
//! the digit width costs no allocation. Before incidents were found by
//! number, the delivering step copied every incident (four strings each
//! here: number, description, assignment group, alert number) and the
//! 10 000-incident run allocated about 40 000 more in that one step.

use omni_core::{MonitoringStack, StackConfig};
use omni_model::NANOS_PER_SEC;
use omni_servicenow::SnEvent;
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

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const MINUTE: i64 = 60 * NANOS_PER_SEC;

/// Steps after the leak: enough for the rule's one-minute hold, the
/// group wait and the delivery.
const STEPS: usize = 6;

/// Per-step allocations from a leak to its ServiceNow delivery, with
/// `prior` incidents opened first on distinct keys.
fn alert_path_allocations(prior: usize) -> Vec<usize> {
    let mut stack = MonitoringStack::new(StackConfig::default());
    for i in 0..prior {
        let event = SnEvent {
            source: "seed".into(),
            node: format!("seed{i}"),
            metric_type: "Seed".into(),
            resource: "infrastructure".into(),
            severity: 1,
            message_key: format!("Seed:seed{i}"),
            description: "seeded".into(),
        };
        stack.servicenow.process_event(event, 0);
    }
    assert_eq!(stack.servicenow.incident_count(), prior);
    stack.step(MINUTE, 0, 0);
    let chassis = stack.machine.topology().chassis()[3];
    stack.inject_leak(chassis, 'A', LeakZone::Front);
    let counts = (0..STEPS)
        .map(|_| {
            allocations(|| {
                stack.step(MINUTE, 0, 0);
            })
        })
        .collect();
    assert_eq!(stack.servicenow.incident_count(), prior + 1, "the leak opened one incident");
    assert!(stack.servicenow.events_received() > prior as u64, "ServiceNow was delivered to");
    counts
}

#[test]
fn the_alert_path_allocates_the_same_whatever_the_history() {
    let few = alert_path_allocations(10);
    let many = alert_path_allocations(10_000);
    assert_eq!(many, few, "per step, with 10 000 prior incidents and with 10");
}
