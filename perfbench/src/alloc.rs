//! A counting global allocator: forwards to the system allocator and
//! counts allocation calls, so each layer's allocations can be read as
//! an exact, host-independent work counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) since start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a call counter.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls made so far by the whole process. The benchmark is
/// single-threaded, so differences around a call are that call's
/// allocations; the count publishes no other data, hence `Relaxed`.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
