//! Heap allocations of the one log-pipeline executor. `Pipeline::process`
//! borrows the caller's line and stream labels until a stage rewrites
//! them, so a pipeline of line filters allocates nothing for a line it
//! keeps or drops, and a parser behind a `|=` costs nothing for a line
//! the `|=` drops.

use omni_logql::{parse_log_query, Pipeline};
use omni_model::labels;
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

/// Run `process` on `line` under `query`'s pipeline: whether the line
/// survived, and how many allocations the call made on this thread.
fn process(query: &str, line: &str) -> (bool, usize) {
    let stages = parse_log_query(query).unwrap().stages;
    let pipeline = Pipeline::new(&stages);
    let stream = labels!("app" => "x", "cluster" => "perlmutter");
    let before = ALLOCATIONS.with(Cell::get);
    let kept = pipeline.process(line, &stream).is_some();
    (kept, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn line_filters_allocate_nothing_for_kept_or_dropped_lines() {
    // The `!~` regex has a required literal, so a line without it is
    // rejected by a substring scan; a line containing it runs regexlite's
    // backtracking VM, whose frames are that crate's allocation, not the
    // pipeline's.
    let q = r#"{app="x"} |= "error" !~ "level=debug""#;
    assert_eq!(process(q, "level=warn error: disk full"), (true, 0));
    assert_eq!(process(q, "level=info all fine"), (false, 0));
    assert_eq!(process(q, ""), (false, 0));
}

#[test]
fn a_parser_behind_a_dropping_filter_allocates_nothing() {
    let q = r#"{app="x"} |= "x" | json"#;
    assert_eq!(process(q, r#"{"level":"info","msg":"no match"}"#), (false, 0));
    // The counter does see the parser's work once the filter keeps a line.
    let (kept, allocations) = process(q, r#"{"level":"info","msg":"x"}"#);
    assert!(kept && allocations > 0, "{allocations}");
}
