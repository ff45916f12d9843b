//! Span-based, tail-sampled request tracing.
//!
//! A [`TraceCtx`] is stamped at admission (or carried in from the wire) and
//! follows one request through every layer: admission, shard-queue sojourn,
//! batch formation, index execution, and the SMO/epoch critical sections
//! inside the index. `pmem::model` attributes injected NVM latency and
//! token-bucket throttle stalls to whichever span is active on the thread,
//! so a slow request shows *which* NVM effect bit it.
//!
//! Completed spans land in per-thread bounded rings (`Mutex`-protected,
//! uncontended except during a harvest; an exited thread's ring, spans
//! intact, passes to the next new thread), and retention is **tail-based** —
//! when a root span finishes, its trace is kept only if the root latency
//! exceeds [`keep_threshold_ns`] or the outcome is an error class
//! ([`TraceOutcome::Overloaded`] / [`TraceOutcome::DeadlineExceeded`] /
//! [`TraceOutcome::Aborted`] / [`TraceOutcome::Error`]). Everything else
//! rots in the rings and is overwritten. One trace id holds at most
//! [`MAX_TRACE_SPANS`] spans across all its retained fragments (the rest
//! are counted in [`RetainedTrace::dropped_spans`]; per-operation spans
//! stop at half that, so the tree's skeleton always fits), and the store
//! at most [`RETAIN_SPAN_BUDGET`], evicting its oldest traces first, so
//! memory stays bounded no matter the request rate or the request size.
//!
//! Cost discipline:
//!
//! * un-sampled request — [`stamp`] pays one TLS countdown decrement (no
//!   clock read, no allocation), and every other entry point returns after
//!   one check of the context or of a TLS `Cell` (no active span);
//! * sampled request — clock reads at span edges plus one ring write per
//!   completed span; the harvest walk over all rings happens only for
//!   *retained* (slow/errored) traces.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Wire-carried trace context: which trace a request belongs to and the
/// span id its server-side spans should parent to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Nonzero for a real trace; 0 means untraced.
    pub trace_id: u64,
    /// The root span id allocated at [`stamp`] time; spans recorded for
    /// this request parent to it.
    pub parent_span: u32,
    /// Whether this request is in the trace sample. Untraced requests
    /// never record anything.
    pub sampled: bool,
    /// Which node's spans this context attributes to: 0 is the stamping
    /// process (router or single node); a router fan-out stamps each
    /// outbound copy with the target endpoint's 1-based ordinal in the
    /// sorted endpoint list, so stitched spans name their node.
    pub node: u16,
    /// Network hops this context has taken (0 = stamped locally). A node
    /// that receives `hop > 0` is serving a fragment of a remote trace and
    /// must not record a second root span; each router resend (bounce)
    /// bumps it, so stitched traces show retry depth.
    pub hop: u8,
}

impl TraceCtx {
    /// The context of a request nobody is tracing.
    pub const UNTRACED: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span: 0,
        sampled: false,
        node: 0,
        hop: 0,
    };

    /// Whether spans should be recorded for this context.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.sampled && self.trace_id != 0
    }

    /// Whether this context was stamped on another node (carried in over
    /// the wire with at least one hop).
    #[inline]
    pub fn is_remote(&self) -> bool {
        self.hop > 0
    }

    /// The context as sent to node `node` (1-based endpoint ordinal):
    /// attribution switches to that node and the hop counter bumps.
    #[inline]
    pub fn forwarded_to(self, node: u16) -> TraceCtx {
        TraceCtx {
            node,
            hop: self.hop.saturating_add(1),
            ..self
        }
    }
}

/// What a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// Admission to last reply (whole request, recorded by the reply set).
    Root = 0,
    /// Admission control in the submitter: lifecycle gate, shard routing.
    Admission = 1,
    /// Shard-queue sojourn: enqueue to batch drain.
    Queue = 2,
    /// Batch serialization: drain to this operation's execution start
    /// (time spent behind batch predecessors).
    Batch = 3,
    /// The index operation itself.
    IndexOp = 4,
    /// A structural modification (PACTree leaf split/merge, ART node
    /// replacement) on the request path.
    Smo = 5,
    /// Epoch-reclamation critical section (advance/collect).
    Epoch = 6,
    /// Router-side bracket around one endpoint's wire call (send to recv);
    /// detail is the endpoint's 1-based ordinal. Its wall clock is the
    /// stitching anchor for that node's spans.
    RpcCall = 7,
    /// Router-side partition-map refresh after a bounce or send failure.
    MapRefresh = 8,
    /// Router-side resend round after a `WrongPartition` bounce; detail is
    /// the resend attempt number.
    BounceResend = 9,
    /// One migration phase on the source node; detail is the
    /// `cluster::PHASE_*` constant (bulk/delta/seal/flip).
    MigratePhase = 10,
    /// Node-side bracket of a remote trace fragment (admission to last
    /// reply on this node); detail is the node's 1-based ordinal. Stands
    /// in for the root, which only the stamping process records.
    Remote = 11,
}

impl SpanKind {
    /// Short stable name (used in exports).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Root => "root",
            SpanKind::Admission => "admission",
            SpanKind::Queue => "queue",
            SpanKind::Batch => "batch",
            SpanKind::IndexOp => "index_op",
            SpanKind::Smo => "smo",
            SpanKind::Epoch => "epoch",
            SpanKind::RpcCall => "rpc_call",
            SpanKind::MapRefresh => "map_refresh",
            SpanKind::BounceResend => "bounce_resend",
            SpanKind::MigratePhase => "migrate_phase",
            SpanKind::Remote => "remote",
        }
    }

    /// Inverse of `self as u8` (wire span dumps).
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::Root,
            1 => SpanKind::Admission,
            2 => SpanKind::Queue,
            3 => SpanKind::Batch,
            4 => SpanKind::IndexOp,
            5 => SpanKind::Smo,
            6 => SpanKind::Epoch,
            7 => SpanKind::RpcCall,
            8 => SpanKind::MapRefresh,
            9 => SpanKind::BounceResend,
            10 => SpanKind::MigratePhase,
            11 => SpanKind::Remote,
            _ => return None,
        })
    }

    /// Whether a request records one of these per operation (so their
    /// number grows with the batch size) rather than per request, wire
    /// call or phase.
    pub fn is_per_op(&self) -> bool {
        matches!(
            self,
            SpanKind::Queue | SpanKind::Batch | SpanKind::IndexOp | SpanKind::Smo | SpanKind::Epoch
        )
    }
}

/// Which NVM effect stalled the active span (see `pmem::model`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum StallKind {
    /// Injected media-read latency (XPLine misses, remote reads).
    MediaRead = 0,
    /// Injected flush latency (clwb to the XPBuffer, non-eADR).
    Flush = 1,
    /// Injected fence latency (sfence drain).
    Fence = 2,
    /// Wall-clock time spent waiting out token-bucket bandwidth debt.
    Throttle = 3,
}

/// Number of stall kinds (array dimension in [`SpanRecord`]).
pub const STALL_KINDS: usize = 4;

/// How a traced request ended; error classes force retention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Every operation executed.
    Ok,
    /// At least one operation was shed at admission.
    Overloaded,
    /// At least one operation expired in-queue.
    DeadlineExceeded,
    /// At least one operation was abandoned by a killed server.
    Aborted,
    /// At least one operation failed some other way (e.g. malformed).
    Error,
}

impl TraceOutcome {
    /// Short stable name (used in exports).
    pub fn name(&self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Overloaded => "overloaded",
            TraceOutcome::DeadlineExceeded => "deadline_exceeded",
            TraceOutcome::Aborted => "aborted",
            TraceOutcome::Error => "error",
        }
    }

    /// Whether this outcome forces tail retention regardless of latency.
    pub fn is_error(&self) -> bool {
        !matches!(self, TraceOutcome::Ok)
    }
}

/// One completed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace_id: u64,
    pub span_id: u32,
    /// Parent span id (0 for the root).
    pub parent: u32,
    pub kind: SpanKind,
    /// Kind-dependent detail: batch size for [`SpanKind::Batch`], op-kind
    /// ordinal for [`SpanKind::IndexOp`], 0/1 split/merge for
    /// [`SpanKind::Smo`].
    pub detail: u32,
    /// Small per-thread ordinal (export track id), not an OS tid.
    pub tid: u32,
    /// [`crate::clock::now_ns`] timestamps (process-relative).
    pub start_ns: u64,
    pub end_ns: u64,
    /// Stall nanoseconds attributed while this span was the innermost
    /// active frame on its thread, indexed by `StallKind as usize`.
    pub stall_ns: [u64; STALL_KINDS],
}

/// A trace that survived tail-based retention.
#[derive(Clone, Debug)]
pub struct RetainedTrace {
    pub trace_id: u64,
    pub outcome: TraceOutcome,
    /// Root latency (admission to last reply).
    pub root_ns: u64,
    /// The spans harvested for this trace, root (or remote bracket) first,
    /// then by start time. A span an earlier retained fragment of the same
    /// trace already holds is not repeated here.
    pub spans: Vec<SpanRecord>,
    /// Spans this fragment's harvest found but left out because the trace
    /// had reached its cap ([`MAX_TRACE_SPANS`], or [`MAX_TRACE_OP_SPANS`]
    /// for per-operation kinds): nonzero means the trace is truncated.
    /// Each fragment counts what it finds still in the rings, so a span
    /// left out by an earlier fragment can be counted again. A fragment
    /// with no room at all adds its count to the trace's newest one.
    pub dropped_spans: u64,
}

impl RetainedTrace {
    /// Total stall ns across all spans, by kind.
    pub fn stall_totals(&self) -> [u64; STALL_KINDS] {
        let mut tot = [0u64; STALL_KINDS];
        for s in &self.spans {
            for (t, v) in tot.iter_mut().zip(s.stall_ns.iter()) {
                *t += v;
            }
        }
        tot
    }

    /// Root wall time no direct child of the root covers (children clipped
    /// to the root's interval, overlapping siblings counted once) — what
    /// the root's owner spent outside any span.
    pub fn root_unattributed_ns(&self) -> u64 {
        let root = &self.spans[0];
        let mut ivals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == root.span_id && s.span_id != root.span_id)
            .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        ivals.sort_unstable();
        let (mut covered, mut cursor) = (0u64, root.start_ns);
        for (a, b) in ivals {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        self.root_ns.saturating_sub(covered)
    }

    /// Fraction of the root's wall time its direct children cover.
    pub fn root_coverage(&self) -> f64 {
        if self.root_ns == 0 {
            1.0
        } else {
            1.0 - self.root_unattributed_ns() as f64 / self.root_ns as f64
        }
    }
}

/// Completed spans kept per thread; older spans are overwritten.
pub const SPAN_RING_CAPACITY: usize = 2048;

/// Spans the retained store holds across all its traces; the oldest traces
/// are evicted to make room for a new one.
pub const RETAIN_SPAN_BUDGET: usize = 8192;

/// Spans one trace id holds across all its retained fragments (remote
/// brackets, migration chunks, the root); harvesting stops there and
/// counts the rest as dropped. The last slot is the root's, so fragments
/// that finish before it never crowd it out.
pub const MAX_TRACE_SPANS: usize = 1024;

/// Per-operation spans ([`SpanKind::is_per_op`]) stop once the trace holds
/// this many spans: the rest of [`MAX_TRACE_SPANS`] stays free for the
/// spans that give the tree its shape (brackets, rpc calls, phases), which
/// a large migration would otherwise finish after its cap was full.
pub const MAX_TRACE_OP_SPANS: usize = MAX_TRACE_SPANS / 2;

/// Trace 1 in 2^6 = 64 stamped requests.
pub const TRACE_SAMPLE_SHIFT: u32 = 6;
/// Default tail threshold: keep traces with root latency >= 1 ms.
pub const DEFAULT_KEEP_THRESHOLD_NS: u64 = 1_000_000;

static KEEP_THRESHOLD_NS: AtomicU64 = AtomicU64::new(DEFAULT_KEEP_THRESHOLD_NS);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Sets the tail-retention threshold: a finished trace is kept if its
/// root latency is >= `ns` (or its outcome is an error class).
pub fn set_keep_threshold_ns(ns: u64) {
    KEEP_THRESHOLD_NS.store(ns, Ordering::Relaxed);
}

/// Current tail-retention threshold.
pub fn keep_threshold_ns() -> u64 {
    KEEP_THRESHOLD_NS.load(Ordering::Relaxed)
}

fn next_span_id() -> u32 {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    if id == 0 {
        NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        id
    }
}

/// An active (not yet completed) span on this thread's stack.
struct Frame {
    trace_id: u64,
    span_id: u32,
    parent: u32,
    kind: SpanKind,
    detail: u32,
    start_ns: u64,
    stall_ns: [u64; STALL_KINDS],
}

struct SpanRing {
    buf: Vec<SpanRecord>,
    next: usize,
}

impl SpanRing {
    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() < SPAN_RING_CAPACITY {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
        }
        self.next = (self.next + 1) % SPAN_RING_CAPACITY;
    }
}

type SharedRing = Arc<Mutex<SpanRing>>;

/// Every span ring handed out so far, and the ones whose thread exited.
/// A harvest walks `all`, so spans a thread recorded before it exited stay
/// visible; a new thread adopts a `free` ring before it makes one, so the
/// directory grows to the peak number of live recording threads, not to
/// the number of threads that ever recorded.
struct RingDirectory {
    all: Vec<SharedRing>,
    free: Vec<SharedRing>,
}

static RINGS: Mutex<RingDirectory> = Mutex::new(RingDirectory {
    all: Vec::new(),
    free: Vec::new(),
});

fn rings() -> std::sync::MutexGuard<'static, RingDirectory> {
    RINGS
        .lock()
        .expect("nothing panics while holding the ring directory")
}

/// A thread's claim on one ring; the ring goes back on the free list, its
/// contents intact, when the thread exits.
struct RingClaim(SharedRing);

impl RingClaim {
    fn adopt() -> RingClaim {
        let mut dir = rings();
        let ring = dir.free.pop().unwrap_or_else(|| {
            let ring = Arc::new(Mutex::new(SpanRing {
                buf: Vec::new(),
                next: 0,
            }));
            dir.all.push(Arc::clone(&ring));
            ring
        });
        RingClaim(ring)
    }
}

impl Drop for RingClaim {
    fn drop(&mut self) {
        // No panic in a destructor: a poisoned directory just keeps the
        // ring out of reuse.
        if let Ok(mut dir) = RINGS.lock() {
            dir.free.push(Arc::clone(&self.0));
        }
    }
}

/// The retained traces, oldest first, and the spans they hold in total.
struct Store {
    traces: VecDeque<RetainedTrace>,
    spans: usize,
}

/// How many spans of its trace the store may already hold for a span of
/// `kind` to be kept.
fn span_cap(kind: SpanKind) -> usize {
    match kind {
        SpanKind::Root => MAX_TRACE_SPANS,
        k if k.is_per_op() => MAX_TRACE_OP_SPANS,
        _ => MAX_TRACE_SPANS - 1,
    }
}

impl Store {
    fn drain(&mut self) -> Vec<RetainedTrace> {
        self.spans = 0;
        self.traces.drain(..).collect()
    }

    /// Adds a harvested fragment, evicting the oldest traces until it fits
    /// in [`RETAIN_SPAN_BUDGET`]. A fragment of the same trace may have
    /// been admitted since the harvest counted it, so the trace's spans
    /// are recounted and the fragment trimmed to its cap.
    fn admit(&mut self, mut t: RetainedTrace) {
        let id = t.trace_id;
        let mine = self.traces.iter().filter(|o| o.trace_id == id);
        let held: usize = mine.map(|o| o.spans.len()).sum();
        let room = t.spans.first().map_or(0, |b| span_cap(b.kind));
        let room = room.saturating_sub(held);
        if t.spans.len() > room {
            t.dropped_spans += (t.spans.len() - room) as u64;
            t.spans.truncate(room);
        }
        if t.spans.is_empty() {
            // Not even the bracket fits: the trace's newest fragment
            // carries the count.
            if let Some(last) = self.traces.iter_mut().rev().find(|o| o.trace_id == id) {
                last.dropped_spans += t.dropped_spans;
            }
            return;
        }
        // The budget counts spans, so hold no spare capacity behind them.
        t.spans.shrink_to_fit();
        while self.spans + t.spans.len() > RETAIN_SPAN_BUDGET {
            let Some(old) = self.traces.pop_front() else {
                break;
            };
            self.spans -= old.spans.len();
        }
        self.spans += t.spans.len();
        self.traces.push_back(t);
    }
}

static RETAINED: Mutex<Store> = Mutex::new(Store {
    traces: VecDeque::new(),
    spans: 0,
});

fn retained() -> std::sync::MutexGuard<'static, Store> {
    RETAINED
        .lock()
        .expect("nothing panics while holding the retained-trace store")
}

thread_local! {
    /// Countdown to the next sampled stamp (0 = sample now, like
    /// `OpTimer`'s countdown; the first stamp on a thread samples).
    static STAMP_COUNTDOWN: Cell<u32> = const { Cell::new(0) };
    /// Number of active frames — the one-TLS-check gate for
    /// [`add_stall`] / [`span_here`] on untraced threads.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Small export-track ordinal for this thread.
    static MY_TID: Cell<u32> = const { Cell::new(0) };
    static MY_SPANS: RingClaim = RingClaim::adopt();
}

fn my_tid() -> u32 {
    MY_TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

fn push_record(rec: SpanRecord) {
    // `try_with`: a span closing in another thread-local's destructor,
    // after this thread's claim was returned, is dropped, not a panic.
    let _ = MY_SPANS.try_with(|r| {
        r.0.lock()
            .expect("nothing panics while holding a span ring")
            .push(rec)
    });
}

/// Stamps a fresh context for a request entering the system: 1 in
/// 2^[`TRACE_SAMPLE_SHIFT`] stamps is sampled (gets a trace id and a
/// root span id); the rest are [`TraceCtx::UNTRACED`].
#[inline]
pub fn stamp() -> TraceCtx {
    STAMP_COUNTDOWN.with(|c| {
        let left = c.get();
        if left > 0 {
            c.set(left - 1);
            TraceCtx::UNTRACED
        } else {
            c.set((1u32 << TRACE_SAMPLE_SHIFT) - 1);
            stamp_forced()
        }
    })
}

/// Stamps a context that is always sampled (tests, forced-slow probes).
pub fn stamp_forced() -> TraceCtx {
    TraceCtx {
        trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
        parent_span: next_span_id(),
        sampled: true,
        node: 0,
        hop: 0,
    }
}

/// An active span; completes (writes its record) on drop. Guards must
/// drop in LIFO order on a thread — natural with scoped `let` guards.
pub struct SpanGuard {
    active: bool,
}

/// Opens a span under `ctx` (parenting to `ctx.parent_span`) with the
/// start clocked now. Inert if `ctx` is unsampled.
#[inline]
pub fn span(ctx: TraceCtx, kind: SpanKind, detail: u32) -> SpanGuard {
    if !ctx.is_sampled() {
        return SpanGuard { active: false };
    }
    open_frame(ctx.trace_id, ctx.parent_span, kind, detail)
}

/// Opens a span under whatever span is active on this thread —
/// how deep layers (index SMO paths, epoch advance) attach to the
/// request without any API threading. Inert when nothing is active.
#[inline]
pub fn span_here(kind: SpanKind, detail: u32) -> SpanGuard {
    if DEPTH.with(|d| d.get()) == 0 {
        return SpanGuard { active: false };
    }
    let (trace_id, parent) = STACK.with(|s| {
        let s = s.borrow();
        let top = s.last().expect("DEPTH > 0 implies a frame");
        (top.trace_id, top.span_id)
    });
    open_frame(trace_id, parent, kind, detail)
}

/// Opens a span under `ctx` and returns, alongside the guard, a derived
/// context whose `parent_span` is the new span — how the router hands a
/// node a parent to attach its spans to. Returns `ctx` unchanged when
/// unsampled.
#[inline]
pub fn span_ctx(ctx: TraceCtx, kind: SpanKind, detail: u32) -> (SpanGuard, TraceCtx) {
    if !ctx.is_sampled() {
        return (SpanGuard { active: false }, ctx);
    }
    let span_id = next_span_id();
    let guard = open_frame_with_id(ctx.trace_id, ctx.parent_span, span_id, kind, detail);
    (
        guard,
        TraceCtx {
            parent_span: span_id,
            ..ctx
        },
    )
}

fn open_frame(trace_id: u64, parent: u32, kind: SpanKind, detail: u32) -> SpanGuard {
    open_frame_with_id(trace_id, parent, next_span_id(), kind, detail)
}

fn open_frame_with_id(
    trace_id: u64,
    parent: u32,
    span_id: u32,
    kind: SpanKind,
    detail: u32,
) -> SpanGuard {
    let frame = Frame {
        trace_id,
        span_id,
        parent,
        kind,
        detail,
        start_ns: crate::clock::now_ns(),
        stall_ns: [0; STALL_KINDS],
    };
    STACK.with(|s| s.borrow_mut().push(frame));
    DEPTH.with(|d| d.set(d.get() + 1));
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let frame = STACK.with(|s| s.borrow_mut().pop().expect("span stack underflow"));
        DEPTH.with(|d| d.set(d.get() - 1));
        push_record(SpanRecord {
            trace_id: frame.trace_id,
            span_id: frame.span_id,
            parent: frame.parent,
            kind: frame.kind,
            detail: frame.detail,
            tid: my_tid(),
            start_ns: frame.start_ns,
            end_ns: crate::clock::now_ns(),
            stall_ns: frame.stall_ns,
        });
    }
}

/// A span kept off this thread's frame stack: it completes on drop
/// like a [`SpanGuard`], but in any order, so siblings opened on one
/// thread may overlap in time (the router's scattered `rpc_call`s).
/// The price is no stall attribution.
pub struct DetachedSpan {
    /// The span's own context (`parent_span` = its id).
    ctx: TraceCtx,
    parent: u32,
    kind: SpanKind,
    detail: u32,
    start_ns: u64,
}

/// [`span_ctx`] for a [`DetachedSpan`].
#[inline]
pub fn span_detached(ctx: TraceCtx, kind: SpanKind, detail: u32) -> (DetachedSpan, TraceCtx) {
    let (child, start_ns) = if ctx.is_sampled() {
        let child = TraceCtx {
            parent_span: next_span_id(),
            ..ctx
        };
        (child, crate::clock::now_ns())
    } else {
        (ctx, 0)
    };
    let span = DetachedSpan {
        ctx: child,
        parent: ctx.parent_span,
        kind,
        detail,
        start_ns,
    };
    (span, child)
}

impl Drop for DetachedSpan {
    fn drop(&mut self) {
        if !self.ctx.is_sampled() {
            return;
        }
        push_record(SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.parent_span,
            parent: self.parent,
            kind: self.kind,
            detail: self.detail,
            tid: my_tid(),
            start_ns: self.start_ns,
            end_ns: crate::clock::now_ns(),
            stall_ns: [0; STALL_KINDS],
        });
    }
}

/// Records a span over an already-measured interval (queue sojourn,
/// batch wait) without frame bookkeeping. No-op for unsampled `ctx`.
#[inline]
pub fn record_span(ctx: TraceCtx, kind: SpanKind, detail: u32, start_ns: u64, end_ns: u64) {
    if !ctx.is_sampled() {
        return;
    }
    push_record(SpanRecord {
        trace_id: ctx.trace_id,
        span_id: next_span_id(),
        parent: ctx.parent_span,
        kind,
        detail,
        tid: my_tid(),
        start_ns,
        end_ns: end_ns.max(start_ns),
        stall_ns: [0; STALL_KINDS],
    });
}

/// Attributes `ns` of NVM stall to the innermost active span on this
/// thread (only the innermost, so per-trace stall totals never double
/// count). One TLS read when no span is active.
#[inline]
pub fn add_stall(kind: StallKind, ns: u64) {
    if DEPTH.with(|d| d.get()) == 0 || ns == 0 {
        return;
    }
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.stall_ns[kind as usize] += ns;
        }
    });
}

/// Finishes the root span of `ctx` (started at `start_ns`) and applies
/// the tail-retention rule: the trace's spans are harvested from every
/// thread ring into the retained store iff the root latency is over
/// [`keep_threshold_ns`] or `outcome` is an error class. The harvest skips
/// spans the store already holds for this trace, stops once the trace's
/// fragments together hold [`MAX_TRACE_SPANS`] ([`MAX_TRACE_OP_SPANS`]
/// for per-operation kinds), and evicts the oldest traces until the store
/// fits in [`RETAIN_SPAN_BUDGET`].
///
/// A remote fragment (`ctx.hop > 0`) does not own the trace's root —
/// the stamping process does — so it records a [`SpanKind::Remote`]
/// bracket instead: a fresh span id parented to `ctx.parent_span` (the
/// router's rpc_call span), covering admission to last reply on this
/// node. [`stitch`] uses that bracket to align the node's clock.
///
/// All spans of the trace must be ring-visible before this runs; in
/// pacsrv that ordering comes free from the `ReplySet` mutex (workers
/// record spans before completing their slot, and the final completion
/// runs this).
pub fn finish_root(ctx: TraceCtx, start_ns: u64, outcome: TraceOutcome) {
    if !ctx.is_sampled() {
        return;
    }
    let end_ns = crate::clock::now_ns();
    let root_ns = end_ns.saturating_sub(start_ns);
    if root_ns < keep_threshold_ns() && !outcome.is_error() {
        return; // Fast and fine: let its spans rot in the rings.
    }
    let bracket = if ctx.is_remote() {
        SpanRecord {
            trace_id: ctx.trace_id,
            span_id: next_span_id(),
            parent: ctx.parent_span,
            kind: SpanKind::Remote,
            detail: ctx.node as u32,
            tid: my_tid(),
            start_ns,
            end_ns,
            stall_ns: [0; STALL_KINDS],
        }
    } else {
        SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.parent_span,
            parent: 0,
            kind: SpanKind::Root,
            detail: 0,
            tid: my_tid(),
            start_ns,
            end_ns,
            stall_ns: [0; STALL_KINDS],
        }
    };
    // Spans earlier fragments of this trace retained (another node in this
    // process, an earlier chunk of a migration) stay there and count
    // toward its cap. The ring walk runs without the store lock: a
    // fragment admitted meanwhile can at worst repeat a span (`stitch`
    // drops repeats), and `Store::admit` re-checks the cap.
    let mut seen: Vec<u32> = retained()
        .traces
        .iter()
        .filter(|t| t.trace_id == ctx.trace_id)
        .flat_map(|t| t.spans.iter().map(|s| s.span_id))
        .collect();
    seen.sort_unstable();
    let mut spans = Vec::new();
    let mut dropped_spans = 0u64;
    let mut keep = |s: SpanRecord| {
        if seen.len() + spans.len() < span_cap(s.kind) {
            spans.push(s);
        } else {
            dropped_spans += 1;
        }
    };
    keep(bracket);
    let all: Vec<SharedRing> = rings().all.clone();
    for ring in all {
        let ring = ring.lock().unwrap();
        let mine = ring.buf.iter().filter(|r| r.trace_id == ctx.trace_id);
        for r in mine.filter(|r| seen.binary_search(&r.span_id).is_err()) {
            keep(*r);
        }
    }
    if let Some(rest) = spans.get_mut(1..) {
        rest.sort_by_key(|s| s.start_ns);
    }
    retained().admit(RetainedTrace {
        trace_id: ctx.trace_id,
        outcome,
        root_ns,
        spans,
        dropped_spans,
    });
}

/// Snapshot of the retained traces (oldest first).
pub fn retained_traces() -> Vec<RetainedTrace> {
    retained().traces.iter().cloned().collect()
}

/// Drains the retained traces (oldest first).
pub fn take_retained() -> Vec<RetainedTrace> {
    retained().drain()
}

/// Clears the retained store (tests, between bench phases).
pub fn clear_retained() {
    retained().drain();
}

/// Every span of every retained trace, one per line as 12 space-separated
/// integers (`trace_id span_id parent kind detail tid start_ns end_ns
/// stall_read stall_flush stall_fence stall_throttle`) — the page a health
/// listener serves on `GET /spans`, read back by [`parse_span_dump`] and
/// joined across nodes by [`stitch`].
pub fn span_dump() -> String {
    let store = retained();
    let mut out = String::new();
    for s in store.traces.iter().flat_map(|t| &t.spans) {
        let [r, f, fe, th] = s.stall_ns;
        out.push_str(&format!(
            "{} {} {} {} {} {} {} {} {r} {f} {fe} {th}\n",
            s.trace_id, s.span_id, s.parent, s.kind as u8, s.detail, s.tid, s.start_ns, s.end_ns
        ));
    }
    out
}

/// Parses a [`span_dump`] page back into span records. Lines that are not
/// 12 integers, or whose fields overflow a span's, and unknown span kinds
/// are skipped.
pub fn parse_span_dump(text: &str) -> Vec<SpanRecord> {
    text.lines()
        .filter_map(|line| {
            let n: Vec<u64> = line
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?;
            let [trace_id, span_id, parent, kind, detail, tid, start_ns, end_ns, r, f, fe, th] =
                n[..]
            else {
                return None;
            };
            let narrow = |v: u64| u32::try_from(v).ok();
            Some(SpanRecord {
                trace_id,
                span_id: narrow(span_id)?,
                parent: narrow(parent)?,
                kind: SpanKind::from_u8(u8::try_from(kind).ok()?)?,
                detail: narrow(detail)?,
                tid: narrow(tid)?,
                start_ns,
                end_ns,
                stall_ns: [r, f, fe, th],
            })
        })
        .collect()
}

/// Stitches per-node span dumps into one trace tree.
///
/// `parts[0]` should be the stamping process's spans (it owns the single
/// [`SpanKind::Root`]); later parts are remote fragments. Every span must
/// belong to `trace_id` (mismatches are an error — dumps from an unrelated
/// trace must not silently graft on). Spans appearing in several parts
/// (in-process clusters share one retained store) are deduplicated by span
/// id, first occurrence wins.
///
/// Clock alignment: node clocks need not share an epoch with the router's.
/// Each fragment carries a [`SpanKind::Remote`] bracket (admission to last
/// reply on that node) parented to the router's [`SpanKind::RpcCall`] span,
/// whose wall clock brackets the same interval plus the network round trip.
/// If a fragment's bracket falls outside its parent's interval, the whole
/// fragment is shifted so the bracket sits centered inside it — the error
/// is bounded by the round-trip time, and intra-fragment durations are
/// exact because one offset moves the whole fragment.
pub fn stitch(trace_id: u64, parts: &[Vec<SpanRecord>]) -> Result<RetainedTrace, String> {
    for s in parts.iter().flatten() {
        if s.trace_id != trace_id {
            return Err(format!(
                "span {} belongs to trace {}, not {}",
                s.span_id, s.trace_id, trace_id
            ));
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut spans: Vec<SpanRecord> = Vec::new();
    for part in parts {
        let mut shift: i64 = 0;
        if let Some(r) = part.iter().find(|s| s.kind == SpanKind::Remote) {
            if let Some(p) = spans.iter().find(|s| s.span_id == r.parent) {
                if r.start_ns < p.start_ns || r.end_ns > p.end_ns {
                    let r_dur = r.end_ns.saturating_sub(r.start_ns);
                    let p_dur = p.end_ns.saturating_sub(p.start_ns);
                    let target = p.start_ns + p_dur.saturating_sub(r_dur.min(p_dur)) / 2;
                    shift = target as i64 - r.start_ns as i64;
                }
            }
        }
        for s in part {
            if !seen.insert(s.span_id) {
                continue;
            }
            let mut s = *s;
            s.start_ns = s.start_ns.saturating_add_signed(shift);
            s.end_ns = s.end_ns.saturating_add_signed(shift);
            spans.push(s);
        }
    }
    let roots: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == SpanKind::Root)
        .map(|(i, _)| i)
        .collect();
    let [root_at] = roots.as_slice() else {
        return Err(format!(
            "expected exactly one root span, found {}",
            roots.len()
        ));
    };
    let root = spans.remove(*root_at);
    spans.sort_by_key(|s| s.start_ns);
    let root_ns = root.end_ns.saturating_sub(root.start_ns);
    let mut all = vec![root];
    all.append(&mut spans);
    Ok(RetainedTrace {
        trace_id,
        outcome: TraceOutcome::Ok,
        root_ns,
        spans: all,
        dropped_spans: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the global trace config/retained store.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn find(traces: &[RetainedTrace], id: u64) -> Option<RetainedTrace> {
        traces.iter().find(|t| t.trace_id == id).cloned()
    }

    #[test]
    fn stamp_honors_countdown() {
        // Any 128 consecutive stamps on a thread at 1-in-64 sample exactly
        // two, whatever the countdown's phase; each gets fresh ids.
        let ctxs: Vec<TraceCtx> = (0..128).map(|_| stamp()).collect();
        let sampled: Vec<&TraceCtx> = ctxs.iter().filter(|c| c.is_sampled()).collect();
        assert_eq!(sampled.len(), 2, "1-in-64 sampling over 128 stamps");
        for ctx in &sampled {
            assert_ne!(ctx.trace_id, 0);
            assert_ne!(ctx.parent_span, 0);
        }
        assert_ne!(sampled[0].trace_id, sampled[1].trace_id);
    }

    #[test]
    fn fragments_of_one_trace_retain_each_span_once() {
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(0);
        let root = stamp_forced();
        let remote = root.forwarded_to(1);
        let t0 = crate::clock::now_ns();
        for detail in 0..2 {
            record_span(remote, SpanKind::IndexOp, detail, t0, t0 + 1);
            finish_root(remote, t0, TraceOutcome::Ok);
        }
        finish_root(root, t0, TraceOutcome::Ok);
        let parts: Vec<RetainedTrace> = retained_traces()
            .into_iter()
            .filter(|t| t.trace_id == root.trace_id)
            .collect();
        let sizes: Vec<usize> = parts.iter().map(|t| t.spans.len()).collect();
        assert_eq!(
            sizes,
            [2, 2, 1],
            "bracket + its new op twice, then the root"
        );
        let all: Vec<SpanRecord> = parts.into_iter().flat_map(|t| t.spans).collect();
        assert_eq!(
            stitch(root.trace_id, &[all]).expect("stitched").spans.len(),
            5
        );
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }

    #[test]
    fn retained_store_is_bounded_in_spans() {
        const TRACES: usize = 300;
        const WRITERS: usize = 3;
        // 5100 spans per trace: more than one ring holds, so three threads.
        const PER_WRITER: usize = 1700;
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(0);
        clear_retained();
        let ctxs: Vec<TraceCtx> = (0..TRACES).map(|_| stamp_forced()).collect();
        let recorded = std::sync::Barrier::new(WRITERS + 1);
        let harvested = std::sync::Barrier::new(WRITERS + 1);
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    for ctx in &ctxs {
                        for i in 0..PER_WRITER as u64 {
                            record_span(*ctx, SpanKind::IndexOp, 0, i, i + 1);
                        }
                        recorded.wait();
                        harvested.wait();
                    }
                });
            }
            for ctx in &ctxs {
                recorded.wait();
                finish_root(*ctx, crate::clock::now_ns(), TraceOutcome::Ok);
                harvested.wait();
            }
        });
        let traces = retained_traces();
        let held: usize = traces.iter().map(|t| t.spans.len()).sum();
        assert!(held <= RETAIN_SPAN_BUDGET, "{held} spans retained");
        assert_eq!(traces.len(), RETAIN_SPAN_BUDGET / MAX_TRACE_OP_SPANS);
        let newest = traces.last().expect("kept").trace_id;
        assert_eq!(newest, ctxs[TRACES - 1].trace_id, "oldest evicted first");
        for t in &traces {
            let ctx = ctxs.iter().find(|c| c.trace_id == t.trace_id).unwrap();
            assert_eq!(t.spans[0].kind, SpanKind::Root);
            assert_eq!(t.spans[0].span_id, ctx.parent_span);
            assert_eq!(t.spans.len(), MAX_TRACE_OP_SPANS);
            let seen = t.spans.len() as u64 - 1 + t.dropped_spans;
            assert_eq!(seen, (WRITERS * PER_WRITER) as u64);
        }
        let dropped = WRITERS * PER_WRITER - (MAX_TRACE_OP_SPANS - 1);
        assert!(traces.iter().all(|t| t.dropped_spans == dropped as u64));
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }

    #[test]
    fn a_many_fragment_trace_keeps_its_skeleton_and_evicts_no_other() {
        const CHUNKS: u64 = 40;
        const OPS: u64 = 128;
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(0);
        clear_retained();
        let t0 = crate::clock::now_ns();
        let other = stamp_forced();
        finish_root(other, t0, TraceOutcome::Ok);
        // A migration's shape: chunk fragments full of per-op spans on
        // the target, a phase span that finishes after them, the root last.
        let root = stamp_forced();
        let chunk = root.forwarded_to(2);
        for _ in 0..CHUNKS {
            for i in 0..OPS {
                record_span(chunk, SpanKind::IndexOp, 0, t0 + i, t0 + i + 1);
            }
            finish_root(chunk, t0, TraceOutcome::Ok);
        }
        let source = root.forwarded_to(1);
        record_span(source, SpanKind::MigratePhase, 1, t0, t0 + 1);
        finish_root(source, t0, TraceOutcome::Ok);
        finish_root(root, t0, TraceOutcome::Ok);

        let traces = retained_traces();
        assert!(
            find(&traces, other.trace_id).is_some(),
            "other trace evicted"
        );
        let parts: Vec<&RetainedTrace> = traces
            .iter()
            .filter(|t| t.trace_id == root.trace_id)
            .collect();
        let held: usize = parts.iter().map(|t| t.spans.len()).sum();
        assert!(held <= MAX_TRACE_SPANS, "{held} spans for one trace");
        assert!(
            parts.iter().any(|t| t.dropped_spans > 0),
            "truncation counted"
        );
        let all: Vec<SpanRecord> = parts.iter().flat_map(|t| t.spans.clone()).collect();
        let ops = all.iter().filter(|s| s.kind.is_per_op()).count();
        assert!(ops < MAX_TRACE_OP_SPANS, "{ops} per-op spans");
        let tree = stitch(root.trace_id, &[all]).expect("root kept");
        let count = |k: SpanKind| tree.spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(
            count(SpanKind::Remote),
            CHUNKS as usize + 1,
            "every bracket"
        );
        assert_eq!(count(SpanKind::MigratePhase), 1, "the late phase span");
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }

    #[test]
    fn tail_retention_keeps_slow_and_errored_only() {
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(u64::MAX);
        // Fast + ok: dropped.
        let fast = stamp_forced();
        finish_root(fast, crate::clock::now_ns(), TraceOutcome::Ok);
        // Fast + errored: kept.
        let errored = stamp_forced();
        finish_root(
            errored,
            crate::clock::now_ns(),
            TraceOutcome::DeadlineExceeded,
        );
        // Slow + ok: kept (threshold 0 makes everything "slow").
        set_keep_threshold_ns(0);
        let slow = stamp_forced();
        finish_root(slow, crate::clock::now_ns(), TraceOutcome::Ok);
        let traces = retained_traces();
        assert!(find(&traces, fast.trace_id).is_none());
        let e = find(&traces, errored.trace_id).expect("errored trace kept");
        assert_eq!(e.outcome, TraceOutcome::DeadlineExceeded);
        assert!(find(&traces, slow.trace_id).is_some());
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }

    #[test]
    fn spans_nest_and_stalls_go_to_innermost() {
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(0);
        let ctx = stamp_forced();
        let t0 = crate::clock::now_ns();
        {
            let _op = span(ctx, SpanKind::IndexOp, 7);
            add_stall(StallKind::MediaRead, 100);
            {
                let _smo = span_here(SpanKind::Smo, 0);
                add_stall(StallKind::Flush, 40);
                add_stall(StallKind::Flush, 2);
            }
            add_stall(StallKind::Fence, 5);
        }
        // No active span: must be a cheap no-op, not a panic.
        add_stall(StallKind::Throttle, 999);
        finish_root(ctx, t0, TraceOutcome::Ok);
        let t = find(&retained_traces(), ctx.trace_id).expect("kept");
        assert_eq!(t.spans[0].kind, SpanKind::Root);
        assert_eq!(t.spans[0].span_id, ctx.parent_span);
        let op = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::IndexOp)
            .expect("index op span");
        assert_eq!(op.parent, ctx.parent_span);
        assert_eq!(op.detail, 7);
        assert_eq!(op.stall_ns[StallKind::MediaRead as usize], 100);
        assert_eq!(op.stall_ns[StallKind::Fence as usize], 5);
        assert_eq!(op.stall_ns[StallKind::Flush as usize], 0, "child took it");
        let smo = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Smo)
            .expect("smo span");
        assert_eq!(smo.parent, op.span_id);
        assert_eq!(smo.stall_ns[StallKind::Flush as usize], 42);
        assert_eq!(t.stall_totals(), [100, 42, 5, 0]);
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }

    #[test]
    fn harvest_collects_spans_from_other_threads() {
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(0);
        let ctx = stamp_forced();
        let t0 = crate::clock::now_ns();
        std::thread::spawn(move || {
            record_span(ctx, SpanKind::Queue, 3, t0, t0 + 500);
            let _op = span(ctx, SpanKind::IndexOp, 1);
        })
        .join()
        .unwrap();
        finish_root(ctx, t0, TraceOutcome::Ok);
        let t = find(&retained_traces(), ctx.trace_id).expect("kept");
        assert!(t.spans.iter().any(|s| s.kind == SpanKind::Queue));
        assert!(t.spans.iter().any(|s| s.kind == SpanKind::IndexOp));
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }

    #[test]
    fn exited_threads_hand_their_rings_on() {
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(0);
        let before = rings().all.len();
        let ctxs: Vec<TraceCtx> = (0..500)
            .map(|_| {
                let ctx = stamp_forced();
                std::thread::spawn(move || {
                    let _op = span(ctx, SpanKind::IndexOp, 1);
                })
                .join()
                .unwrap();
                ctx
            })
            .collect();
        // One of these threads was live at a time; the slack is for the
        // threads of tests running alongside.
        let grown = rings().all.len() - before;
        assert!(grown <= 8, "500 sequential threads added {grown} rings");
        // A recycled ring keeps what its earlier owners recorded.
        for ctx in [ctxs[0], ctxs[499]] {
            finish_root(ctx, crate::clock::now_ns(), TraceOutcome::Ok);
            let t = find(&retained_traces(), ctx.trace_id).expect("kept");
            assert!(t.spans.iter().any(|s| s.kind == SpanKind::IndexOp));
        }
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }

    #[test]
    fn unsampled_paths_are_inert() {
        let ctx = TraceCtx::UNTRACED;
        let _g = span(ctx, SpanKind::IndexOp, 0);
        record_span(ctx, SpanKind::Queue, 0, 1, 2);
        finish_root(ctx, 0, TraceOutcome::Error);
        let _h = span_here(SpanKind::Smo, 0); // no active frame
        add_stall(StallKind::MediaRead, 10);
    }

    #[test]
    fn remote_fragment_records_bracket_not_root() {
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(0);
        let ctx = TraceCtx {
            node: 2,
            hop: 1,
            ..stamp_forced()
        };
        let t0 = crate::clock::now_ns();
        {
            let _op = span(ctx, SpanKind::IndexOp, 1);
        }
        finish_root(ctx, t0, TraceOutcome::Ok);
        let t = find(&retained_traces(), ctx.trace_id).expect("kept");
        assert!(
            !t.spans.iter().any(|s| s.kind == SpanKind::Root),
            "remote fragments must not mint a second root"
        );
        let rem = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Remote)
            .expect("remote bracket");
        assert_eq!(rem.parent, ctx.parent_span);
        assert_eq!(rem.detail, 2, "bracket names its node");
        assert_ne!(rem.span_id, ctx.parent_span, "fresh id, no collision");
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }

    #[test]
    fn span_ctx_derives_child_parentage() {
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(0);
        let ctx = stamp_forced();
        let t0 = crate::clock::now_ns();
        let child = {
            let (_g, child) = span_ctx(ctx, SpanKind::RpcCall, 3);
            let _inner = span(child, SpanKind::IndexOp, 0);
            child
        };
        assert_eq!(child.trace_id, ctx.trace_id);
        assert_ne!(child.parent_span, ctx.parent_span);
        finish_root(ctx, t0, TraceOutcome::Ok);
        let t = find(&retained_traces(), ctx.trace_id).expect("kept");
        let rpc = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::RpcCall)
            .expect("rpc span");
        assert_eq!(rpc.parent, ctx.parent_span);
        assert_eq!(rpc.span_id, child.parent_span);
        let op = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::IndexOp)
            .expect("op span");
        assert_eq!(op.parent, rpc.span_id);
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }

    #[test]
    fn span_dump_round_trips_through_parse() {
        let _g = TEST_LOCK.lock().unwrap();
        set_keep_threshold_ns(0);
        clear_retained();
        let ctx = stamp_forced();
        record_span(ctx, SpanKind::IndexOp, 9, 10, 20);
        finish_root(ctx, crate::clock::now_ns(), TraceOutcome::Ok);
        let kept = find(&retained_traces(), ctx.trace_id).expect("kept").spans;
        let parsed: Vec<SpanRecord> = parse_span_dump(&span_dump())
            .into_iter()
            .filter(|s| s.trace_id == ctx.trace_id)
            .collect();
        assert_eq!(parsed, kept);
        set_keep_threshold_ns(DEFAULT_KEEP_THRESHOLD_NS);
        clear_retained();
    }
}

#[cfg(test)]
mod stitch_tests {
    use super::*;

    fn rec(
        trace_id: u64,
        span_id: u32,
        parent: u32,
        kind: SpanKind,
        detail: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent,
            kind,
            detail,
            tid: 1,
            start_ns,
            end_ns,
            stall_ns: [0; STALL_KINDS],
        }
    }

    #[test]
    fn stitch_rejects_mismatched_trace_ids() {
        let router = vec![rec(7, 1, 0, SpanKind::Root, 0, 0, 1000)];
        let alien = vec![rec(8, 9, 1, SpanKind::Remote, 1, 100, 200)];
        let err = stitch(7, &[router, alien]).unwrap_err();
        assert!(err.contains("trace 8"), "names the offender: {err}");
    }

    #[test]
    fn stitch_requires_exactly_one_root() {
        let none = vec![rec(7, 2, 1, SpanKind::RpcCall, 1, 0, 10)];
        assert!(stitch(7, &[none]).is_err());
        let two = vec![
            rec(7, 1, 0, SpanKind::Root, 0, 0, 10),
            rec(7, 2, 0, SpanKind::Root, 0, 0, 10),
        ];
        assert!(stitch(7, &[two]).is_err());
    }

    #[test]
    fn stitch_aligns_skewed_fragment_onto_rpc_bracket() {
        let router = vec![
            rec(7, 1, 0, SpanKind::Root, 0, 0, 1000),
            rec(7, 2, 1, SpanKind::RpcCall, 1, 100, 900),
        ];
        // Node clock is ~1 ms ahead of the router's.
        let node = vec![
            rec(7, 10, 2, SpanKind::Remote, 1, 1_000_100, 1_000_700),
            rec(7, 11, 2, SpanKind::IndexOp, 0, 1_000_300, 1_000_500),
        ];
        let t = stitch(7, &[router, node]).expect("stitched");
        assert_eq!(t.spans[0].kind, SpanKind::Root);
        assert_eq!(t.root_ns, 1000);
        let rem = t.spans.iter().find(|s| s.kind == SpanKind::Remote).unwrap();
        assert!(
            rem.start_ns >= 100 && rem.end_ns <= 900,
            "bracket shifted inside its rpc_call parent: {}..{}",
            rem.start_ns,
            rem.end_ns
        );
        assert_eq!(rem.end_ns - rem.start_ns, 600, "durations preserved");
        let op = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::IndexOp)
            .unwrap();
        assert!(op.start_ns >= rem.start_ns && op.end_ns <= rem.end_ns);
    }

    #[test]
    fn stitch_dedupes_shared_retained_stores() {
        let root = rec(7, 1, 0, SpanKind::Root, 0, 0, 1000);
        let rpc = rec(7, 2, 1, SpanKind::RpcCall, 1, 100, 900);
        let rem = rec(7, 10, 2, SpanKind::Remote, 1, 150, 850);
        // In-process cluster: both dumps see every span.
        let t = stitch(7, &[vec![root, rpc, rem], vec![rem, rpc, root]]).expect("stitched");
        assert_eq!(t.spans.len(), 3);
    }

    #[test]
    fn parse_span_dump_decodes_rows_and_skips_junk() {
        let text = concat!(
            "7 1 0 0 0 1 5 1005 1 2 3 4\n",
            "7 2 1 7 3 1 100 900 0 0 0 0\n",
            "7 3 1 250 0 1 0 0 0 0 0 0\n",
            "7 4 1 7 3 1 100 900 0 0 0\n",
            "not a span\n",
        );
        let spans = parse_span_dump(text);
        assert_eq!(spans.len(), 2, "unknown kind 250 and the short row skipped");
        assert_eq!(spans[0].kind, SpanKind::Root);
        assert_eq!(spans[0].stall_ns, [1, 2, 3, 4]);
        assert_eq!(spans[1].kind, SpanKind::RpcCall);
        assert_eq!(spans[1].detail, 3);
        assert!(parse_span_dump("").is_empty());
    }
}
