//! Allocation guard for the always-on tracing path: a request that
//! [`trace::stamp`] does not sample — and every span, stall and root call
//! made under its context — allocates nothing.
//!
//! Its own test binary because it installs a counting `#[global_allocator]`.
//! The counter is per thread, so the test harness's own threads cannot
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obsv::trace::{self, SpanKind, StallKind, TraceOutcome};

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// SAFETY: every operation is `System`'s; the bookkeeping is one const-init
// thread-local cell (no lazy initialisation, so no allocation of its own).
// `realloc` and `alloc_zeroed` keep their defaults, which call `alloc`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        // SAFETY: the caller keeps `alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller keeps `dealloc`'s contract, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One request's worth of tracing calls, the way `pacsrv` makes them.
fn traced_request() -> trace::TraceCtx {
    let ctx = trace::stamp();
    let t0 = obsv::clock::now_ns();
    trace::record_span(ctx, SpanKind::Queue, 0, t0, t0 + 1);
    {
        let _op = trace::span(ctx, SpanKind::IndexOp, 0);
        let _smo = trace::span_here(SpanKind::Smo, 0);
        trace::add_stall(StallKind::Flush, 100);
    }
    trace::finish_root(ctx, t0, TraceOutcome::Ok);
    ctx
}

#[test]
fn unsampled_requests_allocate_nothing() {
    const ROUNDS: usize = 100;
    let period = 1usize << trace::TRACE_SAMPLE_SHIFT;
    let (mut unsampled, mut bytes) = (0usize, 0usize);
    for _ in 0..period * ROUNDS {
        let before = ALLOCATED.with(Cell::get);
        let ctx = traced_request();
        if !ctx.is_sampled() {
            unsampled += 1;
            bytes += ALLOCATED.with(Cell::get) - before;
        }
    }
    assert_eq!(unsampled, (period - 1) * ROUNDS, "1 in {period} sampled");
    assert_eq!(bytes, 0, "{unsampled} unsampled requests");
}
