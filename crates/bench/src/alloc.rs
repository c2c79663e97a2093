//! A counting global allocator for allocation-budget tests.
//!
//! Install in a *binary* (never in this library — a global allocator in a
//! lib would leak into every consumer):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: edison_bench::CountingAlloc = edison_bench::CountingAlloc;
//! ```
//!
//! The wrapper delegates every call to [`std::alloc::System`] and counts
//! allocation events and requested bytes in relaxed atomics, so a test
//! binary (`tests/alloc_budget*.rs`) can pin allocations per engine event.
//! Counts are process-global and monotone; snapshot with
//! [`alloc_counts`] before and after the region of interest and subtract.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper around the system allocator (see module docs).
pub struct CountingAlloc;

/// A snapshot of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocation events (`alloc` + `realloc` calls) since process start.
    pub allocs: u64,
    /// Bytes requested across those events.
    pub bytes: u64,
}

/// Read the counters. Zero forever unless a binary installed
/// [`CountingAlloc`] as its `#[global_allocator]`.
pub fn alloc_counts() -> AllocCounts {
    AllocCounts { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}

// `GlobalAlloc` is an unsafe trait; this impl adds two relaxed counter
// bumps and otherwise forwards to `System` verbatim, preserving its
// entire contract.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(u64::try_from(layout.size()).unwrap_or(u64::MAX), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(u64::try_from(new_size).unwrap_or(u64::MAX), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
