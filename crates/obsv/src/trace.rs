//! Span-based, tail-sampled request tracing.
//!
//! A [`TraceCtx`] is stamped at admission (or carried in from the wire) and
//! follows one request through every layer: admission, shard-queue sojourn,
//! batch formation, index execution, and the SMO/epoch critical sections
//! inside the index. `pmem::model` attributes injected NVM latency and
//! token-bucket throttle stalls to whichever span is active on the thread,
//! so a slow request shows *which* NVM effect bit it.
//!
//! Discipline mirrors [`crate::flight`]: completed spans land in per-thread
//! bounded rings (`Mutex`-protected, uncontended except during a harvest),
//! and retention is **tail-based** — when a root span finishes, its trace is
//! kept only if the root latency exceeds [`keep_threshold_ns`] or the
//! outcome is an error class ([`TraceOutcome::Overloaded`] /
//! [`TraceOutcome::DeadlineExceeded`] / [`TraceOutcome::Aborted`] /
//! [`TraceOutcome::Error`]). Everything else rots in the rings and is
//! overwritten, so memory stays bounded no matter the request rate.
//!
//! Cost discipline:
//!
//! * not compiled (`trace` feature off) — every entry point is an empty
//!   inline function;
//! * compiled, un-sampled request — [`stamp`] pays one TLS countdown
//!   decrement (no clock read, no allocation), and [`add_stall`] on any
//!   thread with no active span is a single TLS `Cell` read;
//! * sampled request — clock reads at span edges plus one ring write per
//!   completed span; the harvest walk over all rings happens only for
//!   *retained* (slow/errored) traces.
//!
//! The context/record types below are defined unconditionally so the wire
//! codec and the exporters work in every build; only the recording
//! machinery is feature-gated.

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
    /// Admission control in the submitter: lifecycle gate, ingress token
    /// bucket, shard routing.
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

/// Per-kind names, indexed by `StallKind as usize`.
pub const STALL_NAMES: [&str; STALL_KINDS] = ["read", "flush", "fence", "throttle"];

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
#[derive(Clone, Copy, Debug)]
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
    /// All spans harvested for this trace, root first, then by start time.
    pub spans: Vec<SpanRecord>,
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

/// Retained (slow/errored) traces kept; older traces are dropped.
pub const RETAIN_CAPACITY: usize = 256;

#[cfg(feature = "trace")]
mod imp {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    /// Default: trace 1 in 2^6 = 64 requests.
    pub const DEFAULT_TRACE_SAMPLE_SHIFT: u32 = 6;
    /// Default tail threshold: keep traces with root latency >= 1 ms.
    pub const DEFAULT_KEEP_THRESHOLD_NS: u64 = 1_000_000;

    static TRACE_SAMPLE_SHIFT: AtomicU32 = AtomicU32::new(DEFAULT_TRACE_SAMPLE_SHIFT);
    static KEEP_THRESHOLD_NS: AtomicU64 = AtomicU64::new(DEFAULT_KEEP_THRESHOLD_NS);
    static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
    static NEXT_SPAN_ID: AtomicU32 = AtomicU32::new(1);
    static NEXT_TID: AtomicU32 = AtomicU32::new(1);

    /// Sets the trace sampling period to 1 in 2^`shift` stamped requests
    /// (0 = trace everything; clamped to 2^16).
    pub fn set_trace_sample_shift(shift: u32) {
        TRACE_SAMPLE_SHIFT.store(shift.min(16), Ordering::Relaxed);
    }

    /// Current log2 trace-sampling period.
    pub fn trace_sample_shift() -> u32 {
        TRACE_SAMPLE_SHIFT.load(Ordering::Relaxed)
    }

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

    type RingDirectory = Mutex<Vec<Arc<Mutex<SpanRing>>>>;

    fn rings() -> &'static RingDirectory {
        static RINGS: OnceLock<RingDirectory> = OnceLock::new();
        RINGS.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn retained() -> &'static Mutex<VecDeque<RetainedTrace>> {
        static RETAINED: OnceLock<Mutex<VecDeque<RetainedTrace>>> = OnceLock::new();
        RETAINED.get_or_init(|| Mutex::new(VecDeque::new()))
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
        static MY_SPANS: Arc<Mutex<SpanRing>> = {
            let ring = Arc::new(Mutex::new(SpanRing { buf: Vec::new(), next: 0 }));
            rings().lock().unwrap().push(ring.clone());
            ring
        };
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
        MY_SPANS.with(|r| r.lock().unwrap().push(rec));
    }

    /// Whether tracing machinery is compiled into this build.
    pub const fn compiled() -> bool {
        true
    }

    /// Stamps a fresh context for a request entering the system: 1 in
    /// 2^[`trace_sample_shift`] stamps is sampled (gets a trace id and a
    /// root span id); the rest — and everything while
    /// [`crate::enabled()`] is off — are [`TraceCtx::UNTRACED`].
    #[inline]
    pub fn stamp() -> TraceCtx {
        if !crate::enabled() {
            return TraceCtx::UNTRACED;
        }
        STAMP_COUNTDOWN.with(|c| {
            let left = c.get();
            if left > 0 {
                c.set(left - 1);
                TraceCtx::UNTRACED
            } else {
                c.set((1u32 << trace_sample_shift()) - 1);
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
    /// [`keep_threshold_ns`] or `outcome` is an error class.
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
        let mut spans = vec![bracket];
        let dirs: Vec<Arc<Mutex<SpanRing>>> = rings().lock().unwrap().clone();
        for ring in dirs {
            let ring = ring.lock().unwrap();
            spans.extend(
                ring.buf
                    .iter()
                    .filter(|r| r.trace_id == ctx.trace_id)
                    .copied(),
            );
        }
        spans[1..].sort_by_key(|s| s.start_ns);
        let mut store = retained().lock().unwrap();
        if store.len() >= RETAIN_CAPACITY {
            store.pop_front();
        }
        store.push_back(RetainedTrace {
            trace_id: ctx.trace_id,
            outcome,
            root_ns,
            spans,
        });
    }

    /// Snapshot of the retained traces (oldest first).
    pub fn retained_traces() -> Vec<RetainedTrace> {
        retained().lock().unwrap().iter().cloned().collect()
    }

    /// Drains the retained traces (oldest first).
    pub fn take_retained() -> Vec<RetainedTrace> {
        retained().lock().unwrap().drain(..).collect()
    }

    /// Clears the retained store (tests, between bench phases).
    pub fn clear_retained() {
        retained().lock().unwrap().clear();
    }

    /// Bounded JSON digest of the retained traces for the live stats
    /// endpoint: counts plus the most recent 16 traces' summaries.
    pub fn digest_json() -> String {
        let store = retained().lock().unwrap();
        let mut out = format!(
            "{{\"compiled\":true,\"retained\":{},\"keep_threshold_ns\":{},\"sample_shift\":{},\"traces\":[",
            store.len(),
            keep_threshold_ns(),
            trace_sample_shift()
        );
        let skip = store.len().saturating_sub(16);
        for (i, t) in store.iter().skip(skip).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let stall = t.stall_totals();
            out.push_str(&format!(
                "{{\"trace_id\":{},\"outcome\":\"{}\",\"root_ns\":{},\"spans\":{},\"stall_ns\":{{",
                t.trace_id,
                t.outcome.name(),
                t.root_ns,
                t.spans.len()
            ));
            for (k, name) in STALL_NAMES.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\":{}", stall[k]));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Every span of every retained trace as a compact JSON array of
    /// integer rows (`[trace_id, span_id, parent, kind, detail, tid,
    /// start_ns, end_ns, stall_read, stall_flush, stall_fence,
    /// stall_throttle]`) — the wire form `trace-report` fetches from each
    /// node's stats endpoint and feeds to [`parse_span_dump`]/[`stitch`].
    pub fn span_dump_json() -> String {
        let store = retained().lock().unwrap();
        let mut out = String::from("[");
        let mut first = true;
        for t in store.iter() {
            for s in &t.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "[{},{},{},{},{},{},{},{},{},{},{},{}]",
                    s.trace_id,
                    s.span_id,
                    s.parent,
                    s.kind as u8,
                    s.detail,
                    s.tid,
                    s.start_ns,
                    s.end_ns,
                    s.stall_ns[0],
                    s.stall_ns[1],
                    s.stall_ns[2],
                    s.stall_ns[3]
                ));
            }
        }
        out.push(']');
        out
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::*;

    /// Default: trace 1 in 2^6 = 64 requests (when compiled in).
    pub const DEFAULT_TRACE_SAMPLE_SHIFT: u32 = 6;

    /// Default tail-retention threshold: keep traces slower than 1 ms.
    pub const DEFAULT_KEEP_THRESHOLD_NS: u64 = 1_000_000;

    /// Disabled-build guard; every constructor returns this inert value.
    /// The no-op `Drop` keeps early `drop(span)` call sites meaningful in
    /// both build configurations.
    pub struct SpanGuard;

    impl Drop for SpanGuard {
        fn drop(&mut self) {}
    }

    /// Whether tracing machinery is compiled into this build.
    pub const fn compiled() -> bool {
        false
    }

    #[inline(always)]
    pub fn stamp() -> TraceCtx {
        TraceCtx::UNTRACED
    }

    #[inline(always)]
    pub fn stamp_forced() -> TraceCtx {
        TraceCtx::UNTRACED
    }

    #[inline(always)]
    pub fn span(_ctx: TraceCtx, _kind: SpanKind, _detail: u32) -> SpanGuard {
        SpanGuard
    }

    #[inline(always)]
    pub fn span_here(_kind: SpanKind, _detail: u32) -> SpanGuard {
        SpanGuard
    }

    #[inline(always)]
    pub fn span_ctx(ctx: TraceCtx, _kind: SpanKind, _detail: u32) -> (SpanGuard, TraceCtx) {
        (SpanGuard, ctx)
    }

    /// Disabled-build [`span_detached`] guard, inert like [`SpanGuard`].
    pub struct DetachedSpan;

    impl Drop for DetachedSpan {
        fn drop(&mut self) {}
    }

    #[inline(always)]
    pub fn span_detached(ctx: TraceCtx, _kind: SpanKind, _detail: u32) -> (DetachedSpan, TraceCtx) {
        (DetachedSpan, ctx)
    }

    #[inline(always)]
    pub fn record_span(_ctx: TraceCtx, _kind: SpanKind, _detail: u32, _start: u64, _end: u64) {}

    #[inline(always)]
    pub fn add_stall(_kind: StallKind, _ns: u64) {}

    #[inline(always)]
    pub fn finish_root(_ctx: TraceCtx, _start_ns: u64, _outcome: TraceOutcome) {}

    pub fn set_trace_sample_shift(_shift: u32) {}

    pub fn trace_sample_shift() -> u32 {
        0
    }

    pub fn set_keep_threshold_ns(_ns: u64) {}

    pub fn keep_threshold_ns() -> u64 {
        0
    }

    pub fn retained_traces() -> Vec<RetainedTrace> {
        Vec::new()
    }

    pub fn take_retained() -> Vec<RetainedTrace> {
        Vec::new()
    }

    pub fn clear_retained() {}

    pub fn digest_json() -> String {
        "{\"compiled\":false,\"retained\":0,\"traces\":[]}".to_string()
    }

    pub fn span_dump_json() -> String {
        "[]".to_string()
    }
}

pub use imp::{
    add_stall, clear_retained, compiled, digest_json, finish_root, keep_threshold_ns, record_span,
    retained_traces, set_keep_threshold_ns, set_trace_sample_shift, span, span_ctx, span_detached,
    span_dump_json, span_here, stamp, stamp_forced, take_retained, trace_sample_shift,
    DetachedSpan, SpanGuard, DEFAULT_KEEP_THRESHOLD_NS, DEFAULT_TRACE_SAMPLE_SHIFT,
};

/// Parses a [`span_dump_json`] array back into span records. Scans `json`
/// for the `"span_dump":[...]` key (so a whole node stats document can be
/// passed as-is) and decodes each 12-integer row; malformed rows and
/// unknown span kinds are skipped. Returns empty when the key is absent.
pub fn parse_span_dump(json: &str) -> Vec<SpanRecord> {
    const KEY: &str = "\"span_dump\":[";
    let Some(pos) = json.find(KEY) else {
        return Vec::new();
    };
    let mut rest = &json[pos + KEY.len()..];
    let mut out = Vec::new();
    while let Some(open) = rest.find('[') {
        // The outer array's closing bracket before the next row ends it.
        if rest[..open].contains(']') {
            break;
        }
        let Some(close) = rest[open..].find(']') else {
            break;
        };
        let nums: Vec<u64> = rest[open + 1..open + close]
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect();
        if nums.len() == 12 {
            if let Some(kind) = SpanKind::from_u8(nums[3] as u8) {
                out.push(SpanRecord {
                    trace_id: nums[0],
                    span_id: nums[1] as u32,
                    parent: nums[2] as u32,
                    kind,
                    detail: nums[4] as u32,
                    tid: nums[5] as u32,
                    start_ns: nums[6],
                    end_ns: nums[7],
                    stall_ns: [nums[8], nums[9], nums[10], nums[11]],
                });
            }
        }
        rest = &rest[open + close + 1..];
    }
    out
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
    })
}

/// Escapes `s` for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders retained traces as a Chrome trace-event JSON document (the
/// `traceEvents` array format Perfetto and `chrome://tracing` load). Each
/// trace becomes one "process" (pid = its 1-based index), each recording
/// thread one track; timestamps are microseconds relative to the earliest
/// root start. The extra top-level `schema` key is ignored by viewers and
/// consumed by `scripts/validate_obsv_json.py`.
pub fn chrome_trace_json(traces: &[RetainedTrace]) -> String {
    let t0 = traces
        .iter()
        .flat_map(|t| t.spans.first())
        .map(|s| s.start_ns)
        .min()
        .unwrap_or(0);
    let mut out = String::from(
        "{\"schema\":\"trace_chrome/v1\",\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
    );
    let mut first = true;
    for (i, t) in traces.iter().enumerate() {
        let pid = i + 1;
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"trace {} ({}, {} us)\"}}}}",
            t.trace_id,
            t.outcome.name(),
            t.root_ns / 1000
        ));
        for s in &t.spans {
            let ts = (s.start_ns.saturating_sub(t0)) as f64 / 1000.0;
            let dur = (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1000.0;
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"pacsrv\",\"ph\":\"X\",\"ts\":{ts:.3},\
                 \"dur\":{dur:.3},\"pid\":{pid},\"tid\":{},\"args\":{{\
                 \"trace_id\":{},\"span_id\":{},\"parent\":{},\"detail\":{}",
                s.kind.name(),
                s.tid,
                s.trace_id,
                s.span_id,
                s.parent,
                s.detail
            ));
            for (k, name) in STALL_NAMES.iter().enumerate() {
                out.push_str(&format!(",\"stall_{name}_ns\":{}", s.stall_ns[k]));
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

/// Renders one retained trace as a single JSON line for the JSONL summary
/// export (`schema` tag `trace_summary/v1` on every line). Span times are
/// relative to the root start.
pub fn summary_json_line(t: &RetainedTrace) -> String {
    let t0 = t.spans.first().map(|s| s.start_ns).unwrap_or(0);
    let stall = t.stall_totals();
    let mut out = format!(
        "{{\"schema\":\"trace_summary/v1\",\"trace_id\":{},\"outcome\":\"{}\",\"root_ns\":{},\"stall_ns\":{{",
        t.trace_id,
        t.outcome.name(),
        t.root_ns
    );
    for (k, name) in STALL_NAMES.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{}", stall[k]));
    }
    out.push_str("},\"spans\":[");
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let span_stall: u64 = s.stall_ns.iter().sum();
        out.push_str(&format!(
            "{{\"kind\":\"{}\",\"span_id\":{},\"parent\":{},\"tid\":{},\"start_ns\":{},\"dur_ns\":{},\"detail\":{},\"stall_ns\":{span_stall}}}",
            s.kind.name(),
            s.span_id,
            s.parent,
            s.tid,
            s.start_ns.saturating_sub(t0),
            s.end_ns.saturating_sub(s.start_ns),
            s.detail
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the global trace config/retained store.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn find(traces: &[RetainedTrace], id: u64) -> Option<RetainedTrace> {
        traces.iter().find(|t| t.trace_id == id).cloned()
    }

    #[test]
    fn stamp_honors_countdown_and_enabled() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        assert!(!stamp().is_sampled());
        crate::set_enabled(true);
        set_trace_sample_shift(2);
        let sampled = (0..8).filter(|_| stamp().is_sampled()).count();
        assert_eq!(sampled, 2, "1-in-4 sampling over 8 stamps");
        set_trace_sample_shift(0);
        let ctx = stamp();
        assert!(ctx.is_sampled());
        assert_ne!(ctx.trace_id, 0);
        assert_ne!(ctx.parent_span, 0);
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
        set_keep_threshold_ns(imp::DEFAULT_KEEP_THRESHOLD_NS);
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
        set_keep_threshold_ns(imp::DEFAULT_KEEP_THRESHOLD_NS);
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
        // Exports are well-formed on real data.
        let chrome = chrome_trace_json(std::slice::from_ref(&t));
        assert!(chrome.starts_with("{\"schema\":\"trace_chrome/v1\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        let line = summary_json_line(&t);
        assert!(line.starts_with("{\"schema\":\"trace_summary/v1\""));
        assert!(line.ends_with("]}"));
        set_keep_threshold_ns(imp::DEFAULT_KEEP_THRESHOLD_NS);
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
        set_keep_threshold_ns(imp::DEFAULT_KEEP_THRESHOLD_NS);
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
        set_keep_threshold_ns(imp::DEFAULT_KEEP_THRESHOLD_NS);
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
        let doc = concat!(
            "{\"schema\":\"pacsrv_stats/v1\",\"span_dump\":[",
            "[7,1,0,0,0,1,5,1005,1,2,3,4],",
            "[7,2,1,7,3,1,100,900,0,0,0,0],",
            "[7,3,1,250,0,1,0,0,0,0,0,0]",
            "],\"other\":1}"
        );
        let spans = parse_span_dump(doc);
        assert_eq!(spans.len(), 2, "unknown kind 250 skipped");
        assert_eq!(spans[0].kind, SpanKind::Root);
        assert_eq!(spans[0].stall_ns, [1, 2, 3, 4]);
        assert_eq!(spans[1].kind, SpanKind::RpcCall);
        assert_eq!(spans[1].detail, 3);
        assert!(parse_span_dump("{\"no_dump\":true}").is_empty());
        assert!(parse_span_dump("{\"span_dump\":[]}").is_empty());
    }
}
