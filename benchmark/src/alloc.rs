//! A counting global allocator.
//!
//! [`CountingAlloc`] forwards to the system allocator and counts every
//! heap allocation (`alloc`, `alloc_zeroed`, `realloc`) in one process-
//! wide counter. Only the bench binary and the allocator test install
//! it as `#[global_allocator]`; the repository's crates never see it.
//! Without it installed, [`allocations`] stays 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations made through [`CountingAlloc`] since process start. A
/// statistic that publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// The only unsafe code in the benchmark: implementing `GlobalAlloc` is
// an unsafe trait impl by definition. Every method forwards its
// arguments unchanged to `System`.
#[allow(unsafe_code, reason = "GlobalAlloc is an unsafe trait")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // (non-zero-size layout); it is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by this allocator, i.e. by
        // `System`, with `layout`; the caller upholds the size rules.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations counted so far (0 unless [`CountingAlloc`] is the
/// global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
