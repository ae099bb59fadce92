//! A counting global allocator for the allocation-census tests: every
//! `alloc` and `realloc` in the process is counted, with the bytes it asks
//! for. Each census lives in its own test binary, because the count is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Census;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// touch no allocator state.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown buffer may be moved whole: count all of it.
        count(new_size);
        // SAFETY: as `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Census = Census;

/// (bytes, calls) allocated so far, process-wide.
pub fn census() -> (u64, u64) {
    (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed))
}
