//! Event trace for crash-state model checking.
//!
//! While a session is recording, the persistence layer appends one event per flushed cache line, per fence and
//! per allocator operation into per-thread bounded rings. Crucially, each
//! flush event carries the *pre-image* — the media content of the line just
//! before the flush overwrote it. This lets a checker rewind the media image
//! of a finished run to any earlier fence boundary and re-materialize every
//! intermediate durable state from a single execution, instead of stopping
//! the workload at each crash point.
//!
//! The hooks are always compiled in, and [`recording`] is their only gate:
//! with no session recording, each costs one relaxed atomic load and a
//! branch, so the lock-free persist fast path stays lock-free.
//!
//! Sequence numbers come from one global counter, so events from different
//! threads interleave in a total order. Pre-image capture and the media copy
//! of a flush are not one atomic step, so the order is only exact when a
//! single thread mutates a given pool — which is how the checker runs its
//! workloads. [`start`] resets the counter, making sequences deterministic
//! per session.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::pool::{PmemPool, PoolId};
use crate::CACHE_LINE;

/// One traced persistence event.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A cache line reached media via `persist()`. `line` is the line-aligned
    /// pool offset; `pre` is the media content the flush overwrote.
    Flush {
        seq: u64,
        pool: PoolId,
        line: u64,
        pre: [u8; CACHE_LINE],
    },
    /// An ordering fence (`sfence` equivalent).
    Fence { seq: u64 },
    /// The allocator handed out `[offset, offset + size)`.
    Alloc {
        seq: u64,
        pool: PoolId,
        offset: u64,
        size: u64,
    },
    /// The allocator reclaimed `[offset, offset + size)`.
    Free {
        seq: u64,
        pool: PoolId,
        offset: u64,
        size: u64,
    },
}

impl TraceEvent {
    /// Global sequence number of this event.
    pub fn seq(&self) -> u64 {
        match *self {
            TraceEvent::Flush { seq, .. }
            | TraceEvent::Fence { seq }
            | TraceEvent::Alloc { seq, .. }
            | TraceEvent::Free { seq, .. } => seq,
        }
    }
}

/// A completed trace session: events in global sequence order.
#[derive(Debug, Default)]
pub struct Trace {
    /// All retained events, sorted by sequence number.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow (oldest-first). When non-zero, only the
    /// suffix of the run is rewindable.
    pub dropped: u64,
}

struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    start: usize,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static SESSION_EPOCH: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(1 << 18);

fn registry() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: std::sync::OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = std::sync::OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn session_mutex() -> &'static Mutex<()> {
    static SESSION: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
    SESSION.get_or_init(|| Mutex::new(()))
}

thread_local! {
    /// (session epoch, this thread's ring for that session).
    static MY_RING: RefCell<(u64, Option<Arc<Mutex<Ring>>>)> = const { RefCell::new((u64::MAX, None)) };
}

/// Serializes trace sessions: hold the guard across `start()`..`stop()` so
/// concurrent tests/campaigns in one process cannot interleave recordings.
pub fn session() -> MutexGuard<'static, ()> {
    session_mutex().lock()
}

/// Starts recording with the given per-thread ring capacity (in events).
/// Resets the global sequence counter, so sequences are deterministic.
///
/// # Panics
///
/// Panics if a session is already recording (use [`session`] to serialize).
pub fn start(per_thread_capacity: usize) {
    assert!(
        !RECORDING.swap(true, Ordering::SeqCst),
        "a trace session is already recording"
    );
    registry().lock().clear();
    CAPACITY.store(per_thread_capacity.max(16), Ordering::SeqCst);
    SESSION_EPOCH.fetch_add(1, Ordering::SeqCst);
    SEQ.store(0, Ordering::SeqCst);
}

/// Stops recording and returns the merged trace.
pub fn stop() -> Trace {
    RECORDING.store(false, Ordering::SeqCst);
    let rings = std::mem::take(&mut *registry().lock());
    let mut trace = Trace::default();
    for ring in rings {
        let mut ring = ring.lock();
        trace.dropped += ring.dropped;
        let start = ring.start;
        let buf = std::mem::take(&mut ring.buf);
        // Oldest-first: [start..] then [..start].
        trace.events.extend_from_slice(&buf[start..]);
        trace.events.extend_from_slice(&buf[..start]);
    }
    trace.events.sort_by_key(TraceEvent::seq);
    trace
}

/// Whether a session is currently recording.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Current value of the global sequence counter. Used by checkers to bracket
/// operations: all events recorded so far have `seq < current_seq()`.
#[inline]
pub fn current_seq() -> u64 {
    SEQ.load(Ordering::SeqCst)
}

fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::SeqCst)
}

fn record(ev: TraceEvent) {
    let epoch = SESSION_EPOCH.load(Ordering::Relaxed);
    MY_RING.with(|cell| {
        let mut cell = cell.borrow_mut();
        if cell.0 != epoch {
            let ring = Arc::new(Mutex::new(Ring {
                buf: Vec::new(),
                start: 0,
                capacity: CAPACITY.load(Ordering::Relaxed),
                dropped: 0,
            }));
            registry().lock().push(Arc::clone(&ring));
            *cell = (epoch, Some(ring));
        }
        cell.1
            .as_ref()
            .expect("ring installed above")
            .lock()
            .push(ev);
    });
}

/// Hook: `persist()` is about to copy `[offset, offset + len)` of `pool` to
/// media. Records one [`TraceEvent::Flush`] per covered cache line with its
/// pre-image. Must run *before* the media copy.
#[inline]
pub(crate) fn record_flush(pool: &PmemPool, offset: u64, len: usize) {
    if !recording() {
        return;
    }
    if !pool.crash_sim() {
        return; // no media image: nothing to rewind
    }
    let id = pool.id();
    let start = offset & !(CACHE_LINE as u64 - 1);
    let end = (offset + len as u64).next_multiple_of(CACHE_LINE as u64);
    let mut line = start;
    while line < end {
        if let Some(pre) = pool.media_line(line) {
            record(TraceEvent::Flush {
                seq: next_seq(),
                pool: id,
                line,
                pre,
            });
        }
        line += CACHE_LINE as u64;
    }
}

/// Hook: an ordering fence was issued.
#[inline]
pub(crate) fn on_fence() {
    if !recording() {
        return;
    }
    record(TraceEvent::Fence { seq: next_seq() });
}

/// Hook: the allocator handed out a block.
#[inline]
pub(crate) fn on_alloc(pool: PoolId, offset: u64, size: u64) {
    if !recording() {
        return;
    }
    record(TraceEvent::Alloc {
        seq: next_seq(),
        pool,
        offset,
        size,
    });
}

/// Hook: the allocator reclaimed a block.
#[inline]
pub(crate) fn on_free(pool: PoolId, offset: u64, size: u64) {
    if !recording() {
        return;
    }
    record(TraceEvent::Free {
        seq: next_seq(),
        pool,
        offset,
        size,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use crate::pool::{destroy_pool, PoolConfig};

    #[test]
    fn flush_records_pre_image_per_line() {
        let _session = session();
        let pool = PmemPool::create(PoolConfig::durable("t-trace-pre", 1 << 20)).unwrap();
        let off = pool.allocator().alloc(128).unwrap().offset();
        // Establish a known media state for both lines.
        // SAFETY: freshly allocated 128 bytes.
        unsafe { pool.at(off).write_bytes(0xAA, 128) };
        persist::persist(pool.at(off), 128);
        persist::fence();

        start(1 << 12);
        // SAFETY: same allocation.
        unsafe { pool.at(off).write_bytes(0xBB, 128) };
        persist::persist(pool.at(off), 128);
        persist::fence();
        let trace = stop();

        let flushes: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Flush { line, pre, .. } => Some((*line, *pre)),
                _ => None,
            })
            .collect();
        assert_eq!(flushes.len(), 2, "two cache lines flushed");
        for (_, pre) in &flushes {
            assert!(pre.iter().all(|&b| b == 0xAA), "pre-image is old media");
        }
        assert!(matches!(
            trace.events.last(),
            Some(TraceEvent::Fence { .. })
        ));
        destroy_pool(pool.id());
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let _session = session();
        let pool = PmemPool::create(PoolConfig::durable("t-trace-ring", 1 << 20)).unwrap();
        let off = pool.allocator().alloc(64).unwrap().offset();
        start(16);
        for i in 0..100u8 {
            // SAFETY: allocated 64 bytes.
            unsafe { pool.at(off).write_bytes(i, 64) };
            persist::persist(pool.at(off), 64);
        }
        let trace = stop();
        assert_eq!(trace.events.len(), 16);
        assert_eq!(trace.dropped, 84);
        // Retained events are the newest, in order.
        let seqs: Vec<u64> = trace.events.iter().map(TraceEvent::seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*seqs.last().unwrap(), 99);
        destroy_pool(pool.id());
    }

    #[test]
    fn not_recording_costs_nothing_visible() {
        let _session = session();
        let pool = PmemPool::create(PoolConfig::durable("t-trace-off", 1 << 20)).unwrap();
        let off = pool.allocator().alloc(64).unwrap().offset();
        // SAFETY: allocated 64 bytes.
        unsafe { pool.at(off).write_bytes(0x11, 64) };
        persist::persist(pool.at(off), 64);
        persist::fence();
        start(16);
        let trace = stop();
        assert!(trace.events.is_empty());
        destroy_pool(pool.id());
    }
}
