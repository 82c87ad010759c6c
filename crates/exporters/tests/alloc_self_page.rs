//! A warm self-scrape page costs a fixed number of allocations, however
//! many series the registry holds.
//!
//! The page is written from one traversal of the registry into buffers
//! the exporter keeps between scrapes, so once those buffers and the page
//! buffer have grown to size, a scrape allocates nothing per sample: the
//! count with a thousand more labelled counters and ten more histograms
//! (exemplars included) is the count without them.

use omni_exporters::{Exporter, SelfExporter};
use omni_model::{labels, LabelSet, SimClock};
use omni_obs::{families, Registry};
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

/// Allocations of one scrape into `page`, after two scrapes that warm the
/// exporter's buffers and the page's.
fn warm_render_allocations(exporter: &SelfExporter, page: &mut String) -> usize {
    for _ in 0..2 {
        page.clear();
        exporter.render_into(page);
    }
    page.clear();
    let before = ALLOCATIONS.with(Cell::get);
    exporter.render_into(page);
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_warm_self_render_allocates_the_same_with_more_series() {
    let registry = Registry::new(SimClock::new());
    registry.counter("omni_base_total", "Base.", LabelSet::new()).inc();
    registry
        .histogram("omni_base_seconds", "Base.", labels!("stage" => "a"), &[0.1, 1.0])
        .observe_with_exemplar(0.5, 0xbeef);
    registry.register_collector(|rows| {
        for topic in ["a", "b"] {
            rows.sample(&families::BUS_MESSAGES_IN, &[("topic", topic)], 1.0);
        }
        rows.sample(&families::BUS_UNAVAILABLE, &[], 0.0);
    });
    let exporter = SelfExporter::new(registry.clone());
    let mut page = String::new();
    let small = warm_render_allocations(&exporter, &mut page);
    let small_lines = page.lines().count();

    for i in 0..1000 {
        let labels = labels!("shard" => (i % 7).to_string(), "stream" => i.to_string());
        registry.counter("omni_extra_total", "Extra.", labels).add(i);
    }
    for i in 0..10 {
        let h = registry.histogram(
            "omni_extra_seconds",
            "Extra.",
            labels!("stage" => i.to_string()),
            &[0.001, 0.01, 0.1, 1.0, 10.0],
        );
        h.observe(0.05);
        h.observe_with_exemplar(2.0, 0x1000 + i);
    }
    let large = warm_render_allocations(&exporter, &mut page);
    let large_lines = page.lines().count();

    println!(
        "warm self render: {small} allocations for {small_lines} lines, {large} for {large_lines}"
    );
    assert!(large_lines > small_lines + 1000, "{small_lines} → {large_lines} lines");
    assert_eq!(
        large, small,
        "a warm scrape allocates per series: {small} allocations for {small_lines} lines, \
         {large} for {large_lines}"
    );
}
