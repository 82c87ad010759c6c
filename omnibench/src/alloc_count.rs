//! Counting global allocator, in the bench binary only.
//!
//! Counting sits behind a relaxed `AtomicBool` that is off while replicas
//! are timed and on during the traced replica, so the end-to-end metrics
//! pay one predictable branch per allocation and nothing else. The
//! counters publish no other data, hence `Relaxed` throughout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters beside it never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            note_alloc(layout.size() as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            note_free(layout.size() as u64);
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            note_alloc(layout.size() as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            note_free(layout.size() as u64);
            note_alloc(new_size as u64);
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note_alloc(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK_LIVE.fetch_max(live, Relaxed);
}

fn note_free(size: u64) {
    // Memory allocated while counting was off may be freed while it is
    // on; the live gauge floors at zero instead of wrapping.
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |live| Some(live.saturating_sub(size)));
}

/// What was counted since [`start`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

/// Zero the counters and start counting.
pub fn start() {
    for c in [&ALLOCS, &BYTES, &LIVE, &PEAK_LIVE] {
        c.store(0, Relaxed);
    }
    ON.store(true, Relaxed);
}

/// Stop counting and read the counters.
pub fn stop() -> AllocStats {
    ON.store(false, Relaxed);
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Relaxed),
    }
}
