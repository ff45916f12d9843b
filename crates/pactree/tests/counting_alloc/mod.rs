//! A counting `#[global_allocator]` for the test binaries that weigh an
//! operation by the bytes it allocates. The counter is per thread, so a
//! tree's background updater and the harness's other threads cannot
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// SAFETY: every operation is `System`'s; the bookkeeping is one const-init
// thread-local cell (no lazy initialisation, so no allocation of its own).
// `realloc` keeps its default, which calls `alloc`; `alloc_zeroed` stays
// `System`'s so pool images keep their demand-zero pages.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        // SAFETY: the caller keeps `alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        // SAFETY: the caller keeps `alloc_zeroed`'s contract, which is `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller keeps `dealloc`'s contract, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bytes this thread allocated while `f` ran.
pub fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}
