//! Exact allocation counts from a serial counting pass.
//!
//! The binary's global allocator forwards to the system allocator, and to
//! `fnr_bench::alloc_track::CountingAllocator` only while a counting pass
//! is open, so the timed runs pay one relaxed load per allocation and no
//! counting. The pass pins the `fnr_par` width to 1 (the pool then runs
//! inline and allocates nothing of its own), which makes the counts exact
//! and independent of the machine; it runs after every timed call, with
//! no other thread of the benchmark alive.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use fnr_bench::alloc_track::{self, CountingAllocator};

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Counts through [`CountingAllocator`] while [`count`] runs.
pub struct GatedCounter;

// SAFETY: every method forwards to `System` or to `CountingAllocator`
// (itself a pass-through to `System`), so each block is allocated and
// freed by the same underlying allocator whichever way the gate stood.
unsafe impl GlobalAlloc for GatedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

/// Runs `f` serially (pool width 1) and returns its result with the
/// number of allocations it made.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let width = fnr_par::current_num_threads();
    fnr_par::set_num_threads(1);
    COUNTING.store(true, Ordering::SeqCst);
    let before = alloc_track::snapshot();
    let out = f();
    let after = alloc_track::snapshot();
    COUNTING.store(false, Ordering::SeqCst);
    fnr_par::set_num_threads(width);
    (out, after.since(before).count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_allocations_of_the_closure() {
        // Other tests allocate concurrently, so only a lower bound holds here.
        let (v, n) = count(|| (0..100).map(Box::new).collect::<Vec<Box<u32>>>());
        assert_eq!(v.len(), 100);
        assert!(n >= 101, "100 boxes and the vector: {n}");
        assert!(
            !COUNTING.load(Ordering::SeqCst),
            "the gate closes after the pass"
        );
    }
}
