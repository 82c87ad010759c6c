//! Heap allocations of a held alert, counted rather than timed: a rule
//! re-emits every firing series on every evaluation (Prometheus's
//! contract), so what one evaluation and one `receive` of an unchanged
//! alert cost is paid per held series per step.
//!
//! A stub evaluator returns N firing series (3 labels each) for one
//! critical rule (2 labels, 2 annotations) on the shipped route tree,
//! which sends a critical alert to ServiceNow and, by `continue`, to
//! Slack. Once every series fired and its groups flushed:
//!
//! - One `evaluate` allocates 1 output vector, plus per held alert only
//!   its annotation copy: 5 (the vector and the key and value of each of
//!   the 2 annotations). The alert was built once, when its series first
//!   fired; its labels are shared, not copied. The stub's own clone of its
//!   answer is counted apart and subtracted.
//! - One `receive` of that alert allocates 11 and copies no route: 1 for
//!   the vector of matched routes, then per matched route (2) the group
//!   key, that is 1 receiver name and 4 for the projected group labels
//!   (the shared set, its pair vector, and the `alertname` key and value).
//!   The group holds an equal alert, so the alert is not copied into it.
//!
//! Before the alert was built once, an evaluation rebuilt it (labels
//! merged, `alertname` inserted, annotations rendered: 21 per alert), a
//! conversion copied it into Alertmanager's own alert type, and `receive`
//! copied the receiver and `group_by` of each matched route and the alert
//! into each group (29 per alert).

use omni_alertmanager::{Alertmanager, Route};
use omni_model::{labels, AlertRule, Evaluate, LabelSet, RuleEngine, Timestamp, NANOS_PER_SEC};
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

/// Allocations `f` makes on this thread, and what it returned.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Answers every query with the same N series.
#[derive(Clone)]
struct Held(Vec<(LabelSet, f64)>);

impl Evaluate for Held {
    type Query = ();
    type Error = ();

    fn parse(&self, _: &str) -> Result<(), ()> {
        Ok(())
    }

    fn instant(&self, _: &(), _: Timestamp) -> Result<Vec<(LabelSet, f64)>, ()> {
        Ok(self.0.clone())
    }
}

fn leak_rule() -> AlertRule {
    AlertRule {
        name: "PerlmutterCabinetLeak".into(),
        expr: "leak".into(),
        for_ns: 0,
        labels: labels!("severity" => "critical", "category" => "facility"),
        annotations: vec![
            ("summary".into(), "Leak in {{.Context}}".into()),
            ("description".into(), "{{.Context}} reported by {{.job}}".into()),
        ],
    }
}

/// `(evaluate, receive)` allocations per held alert, with N held series,
/// once every series fired and its groups flushed.
fn held_alert_allocations(n: usize) -> (usize, usize) {
    let series = (0..n)
        .map(|i| {
            let context = format!("x1203c{i}b0");
            (labels!("Context" => context, "job" => "redfish", "instance" => "hms:9090"), 1.0)
        })
        .collect();
    let stub = Held(series);
    let mut engine = RuleEngine::new(stub.clone());
    engine.add_rule(leak_rule()).unwrap();
    let mut am = Alertmanager::new(Route::shipped_tree());
    let minute = 60 * NANOS_PER_SEC;
    for alert in engine.evaluate(minute) {
        am.receive(alert, minute);
    }
    assert_eq!(am.tick(2 * minute).len(), 2, "one group per receiver");

    let (stub_cost, _) = allocations(|| stub.instant(&(), 3 * minute));
    let (cost, fired) = allocations(|| engine.evaluate(3 * minute));
    assert_eq!(fired.len(), n);
    let evaluate = cost - stub_cost - 1;
    assert_eq!(evaluate % n, 0, "every held alert costs the same");

    let mut receive = Vec::new();
    for alert in fired {
        let (cost, ()) = allocations(|| am.receive(alert, 3 * minute));
        receive.push(cost);
    }
    assert!(receive.iter().all(|&c| c == receive[0]), "every receive costs the same");
    assert!(am.tick(4 * minute).is_empty(), "nothing changed");
    (evaluate / n, receive[0])
}

#[test]
fn a_held_alert_is_built_once_and_received_without_a_route_copy() {
    for n in [10, 1_000] {
        assert_eq!(held_alert_allocations(n), (5, 11), "N = {n}");
    }
}
