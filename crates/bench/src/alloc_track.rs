//! A counting global allocator for the allocation-gated benches.
//!
//! Compiled only with the `alloc-count` feature: a thin shim over the
//! system allocator that bumps a relaxed atomic counter on every
//! `alloc`/`realloc`. No external dependencies, and the counting
//! overhead is one relaxed `fetch_add` per call — cheap
//! enough to leave on for a whole bench run, precise enough to assert
//! an exact **zero** over a measured region.
//!
//! Install it from the bench binary:
//!
//! ```ignore
//! #[global_allocator]
//! static A: urpsm_bench::alloc_track::CountingAllocator =
//!     urpsm_bench::alloc_track::CountingAllocator;
//! ```
//!
//! and measure deltas with [`allocations`] or [`measure`]. Counters
//! are process-global: keep measured regions single-threaded (every
//! planner plans on the calling thread, so the zero-allocation gate's
//! measured regions are).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Zero-sized; all state is in module-level
/// atomics so the counters work from a `static`.
pub struct CountingAllocator;

// The one unsafe surface of the workspace's bench tooling: a pure
// pass-through to `System` with counter bumps. Safety obligations are
// exactly those of `System`'s own methods, which are forwarded intact.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh acquisition from the hot path's point of
        // view: growing a buffer mid-request is exactly what the gate
        // exists to catch.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Total allocation count so far (allocs + reallocs since process
/// start). Subtract two snapshots to count a region.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result plus the number of allocations it
/// performed (including reallocs).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}
