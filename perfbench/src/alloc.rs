//! A counting global allocator: the system allocator plus a count of
//! allocation calls, read around a call to attribute its allocations.
//!
//! Only `alloc` and `alloc_zeroed` count. A `realloc` grows an existing
//! allocation, and how often a buffer regrows can depend on the length of
//! a printed number, so counting it would make the figures less exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

// A statistic that publishes no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no
// bearing on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls made by this process so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
