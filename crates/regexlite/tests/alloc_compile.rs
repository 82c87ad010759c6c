//! Compiling a pattern is bounded in bytes, not only in instructions.
//!
//! `MAX_PROGRAM` caps the instruction count, so a `{n}` repeat of a
//! character class compiles at most 65 536 copies of it. When each copy
//! owned its class's items, a 514-character pattern — one class of 500
//! CJK characters, repeated 1 000 times inside a group repeated 60 times —
//! compiled `Ok` and peaked at about 461 MiB. A copy now shares the
//! class's items, so it costs one instruction.

use omni_regexlite::Regex;
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
fn a_repeated_class_costs_a_pointer_per_copy() {
    let class: String = (0..500u32).filter_map(|i| char::from_u32(0x4e00 + i)).collect();
    let pattern = format!("([{class}]{{1000}}){{60}}");
    assert_eq!(pattern.chars().count(), 514);
    let (peak, compiled) = peak_bytes(|| Regex::new(&pattern));
    let re = compiled.expect("60 000 class copies fit the program limit");
    assert!(peak < 16 << 20, "compiling peaked at {} KiB", peak >> 10);
    // What compiles still matches: 60 000 characters from the class.
    let text: String = class.chars().cycle().take(60_000).collect();
    assert!(re.is_full_match(&text));
    assert!(!re.is_full_match(&text[..text.len() - 3]));
}
