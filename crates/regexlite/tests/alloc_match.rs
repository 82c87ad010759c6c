//! Matching is bounded in bytes, not only in steps.
//!
//! `STEP_BUDGET` caps the steps of one search, but when every
//! backtracking entry carried its own copy of the capture and progress
//! slots, memory grew with groups × line length: `(a)` a hundred times
//! followed by `(?:a|b)*c`, on a line of 60 100 `a`s, peaked at about
//! 194 MiB before running out of steps. The slots are now shared and a
//! write is undone from the stack, so an entry costs 8 bytes whatever the
//! group count.

use omni_regexlite::{MatchError, Regex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tracks each thread's live heap bytes and their high-water mark.
struct Peak;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static HIGH: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    HIGH.with(|h| h.set(h.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|l| l.set(l.get().saturating_sub(bytes)));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the thread-locals beside it never touch the memory.
unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Peak = Peak;

/// Peak live bytes `f` adds on this thread above what was live before it.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.with(Cell::get);
    HIGH.with(|h| h.set(base));
    let out = f();
    (HIGH.with(Cell::get) - base, out)
}

#[test]
fn a_hundred_groups_on_a_long_line_stay_small() {
    let pattern = format!("{}(?:a|b)*c", "(a)".repeat(100));
    let re = Regex::new(&pattern).expect("pattern compiles");
    let line = "a".repeat(60_100);
    let (peak, result) = peak_bytes(|| re.try_captures(&line).map(|c| c.is_some()));
    assert_eq!(result, Err(MatchError::BudgetExhausted));
    assert!(peak < 4 << 20, "matching peaked at {} KiB", peak >> 10);

    // The same pattern still matches, with its captures, where it can.
    let line = format!("{}c", "a".repeat(60_000));
    let (peak, caps) =
        peak_bytes(|| re.try_captures(&line).map(|c| c.map(|c| (c.get(0), c.get(100)))));
    assert_eq!(caps, Ok(Some((Some((0, 60_001)), Some((99, 100))))));
    assert!(peak < 4 << 20, "matching peaked at {} KiB", peak >> 10);
}
