//! A counting allocator: the `alloc` layer's metrics.
//!
//! The `bench` binary installs [`Counting`] as its global allocator. It
//! forwards every request to the system allocator and, only while
//! [`counting`] is switched on (the traced pass and the replay), adds
//! to two counters. The tracer switches it off around its own
//! bookkeeping, so the counts are the program's and repeat exactly.
//! In a process that does not install it (the tests), counts stay 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: nothing is published through these, and the
// benchmark is single-threaded, so `Relaxed` is enough.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two counters in front of it.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// memory the allocator hands out and never allocate themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; both are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note(size: usize) {
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Switches counting on or off; returns the previous setting.
pub fn counting(on: bool) -> bool {
    ON.swap(on, Ordering::Relaxed)
}

/// Runs `f` with counting off (the tracer's own bookkeeping).
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = counting(false);
    let r = f();
    counting(was);
    r
}

/// `(allocations, bytes requested)` counted so far.
pub fn totals() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
