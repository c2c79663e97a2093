//! A counting global allocator: exact allocation counts and the peak of
//! live heap bytes over the calls the benchmark brackets.
//!
//! The counters are per thread and plain (no atomic read-modify-write on
//! the allocation path), which is exact here because the benchmark runs
//! every simulation on its main thread. `edison-bench` has an atomic
//! counting wrapper, but depending on it would pull `edison-core` and
//! every experiment into this benchmark's build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting on the calling thread.
pub struct Counting;

/// Allocation calls (`alloc` + `realloc`) and bytes requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl Counts {
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

thread_local! {
    // const-initialised and without a destructor, so the allocator may
    // touch them at any point of the thread's life without allocating
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// This thread's counters now; subtract two readings to count a region.
pub fn counts() -> Counts {
    Counts {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Heap bytes this thread holds live now.
pub fn live_bytes() -> u64 {
    LIVE.with(Cell::get)
}

/// Restart the peak from the bytes live now.
pub fn reset_peak() {
    PEAK.with(|peak| peak.set(live_bytes()));
}

/// The most heap bytes this thread has held live at once since the last
/// [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.with(Cell::get)
}

fn grow(requested: usize, freed: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + requested as u64));
    let _ = LIVE.try_with(|live| {
        let now = (live.get() + requested as u64).saturating_sub(freed as u64);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(freed: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(freed as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size(), 0);
        // SAFETY: the caller's guarantees for `alloc` pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size(), 0);
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size, layout.size());
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
