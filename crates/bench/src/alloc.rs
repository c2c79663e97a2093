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
//! allocation events, requested bytes and live bytes in relaxed atomics,
//! so a test binary (`tests/alloc_budget*.rs`) can pin allocations per
//! engine event and the peak heap of a run. Event and byte counts are
//! process-global and monotone; snapshot with [`alloc_counts`] before and
//! after the region of interest and subtract. The peak of live bytes
//! restarts at [`reset_peak`] and reads back with [`peak_live_bytes`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

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

/// Restart the peak from the bytes live now, and return them (the
/// baseline a later [`peak_live_bytes`] is read against).
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most heap bytes held live at once, process-wide, since the last
/// [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

fn to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// `bytes` more are live: raise the peak if the live count passes it.
fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// `GlobalAlloc` is an unsafe trait; this impl adds relaxed counter
// updates and otherwise forwards to `System` verbatim, preserving its
// entire contract.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(to_u64(layout.size()), Ordering::Relaxed);
        grow(to_u64(layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(to_u64(layout.size()));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(to_u64(new_size), Ordering::Relaxed);
        // live bytes move by `new − old`
        let (new, old) = (to_u64(new_size), to_u64(layout.size()));
        if new >= old {
            grow(new - old);
        } else {
            shrink(old - new);
        }
        System.realloc(ptr, layout, new_size)
    }
}
