//! The counting global allocator: the one place in this crate that needs
//! `unsafe` (the crate denies it everywhere else).
//!
//! Every allocation made by the current thread bumps a thread-local
//! counter before delegating to the system allocator, so a measured
//! region's allocation count is `allocs()` after minus before. The
//! counters are thread-local plain cells rather than shared atomics: a
//! `lock`-prefixed add per allocation would itself cost a few percent on
//! the allocation-heavy paths this benchmark exists to measure, and the
//! simulator workloads are single-threaded anyway. Allocations made by
//! other threads (the loopback servers) are not attributed to the caller.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructor: reading these inside the
    // allocator can neither allocate nor observe a torn-down slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is bumping two
// thread-local `Cell<u64>`s, which does not allocate, unwind or touch the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations are passed on as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from `System` through this wrapper;
        // `new_size` is the caller's obligation, passed on as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made by the
/// calling thread since it started.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes requested by the calling thread since it started.
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let (a0, b0) = (allocs(), bytes());
        let v: Vec<u8> = Vec::with_capacity(100);
        let (a1, b1) = (allocs(), bytes());
        assert_eq!(a1 - a0, 1);
        assert_eq!(b1 - b0, 100);
        drop(v);
        assert_eq!(allocs(), a1, "frees are not counted");
    }
}
