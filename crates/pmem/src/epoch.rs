//! Epoch-based memory reclamation (EBMR) with the two-epoch rule.
//!
//! PACTree §5.6 frees a merged data node only after two epochs: the first
//! epoch guarantees no *new* references can be created (the node is gone
//! from the search layer), the second guarantees every reference created
//! before the first epoch has finished. This module implements the classic
//! scheme: a global epoch counter, per-thread participant records announcing
//! activity, and per-epoch garbage bins.
//!
//! Pinning follows crossbeam-epoch's protocol. Only the owning thread
//! writes its participant record, so a nested pin is a plain load and store;
//! an outer pin announces the epoch it read, marks itself active and issues
//! one `SeqCst` fence, which pairs with the fence [`Collector::try_advance`]
//! issues before it reads the participants: either the advancer sees the
//! pin, or the pinned thread sees every unlink that preceded the advance.
//! Unpinning is a single `Release` store. A [`Guard`] therefore borrows its
//! thread's record and is `!Send`:
//!
//! ```compile_fail
//! fn send<T: Send>(_: T) {}
//! let collector = pmem::epoch::Collector::new();
//! send(collector.pin()); // a Guard must unpin on the thread that pinned
//! ```
//!
//! # Example
//!
//! ```
//! let collector = pmem::epoch::Collector::new();
//! let guard = collector.pin();
//! // ... read shared persistent structures ...
//! collector.defer(&guard, || { /* free the node here */ });
//! drop(guard);
//! collector.try_advance(); // eventually runs the deferred closure
//! ```

use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// How many epochs a deferred item must age before it runs (the paper's
/// two-epoch rule).
const GRACE_EPOCHS: u64 = 2;

/// A per-thread participant record. The collector's list holds one `Arc`
/// and its owner — a thread's [`TLS_PARTICIPANTS`] entry or an
/// [`OwnedPin`] — the other; once the owner is gone the collector's is the
/// last, and [`Collector::try_advance`] prunes the record.
struct Participant {
    /// Epoch the thread observed when it pinned; only meaningful while active.
    local_epoch: AtomicU64,
    /// Pin nesting depth; non-zero means inside a critical section. Written
    /// only by the owning thread (or, for an [`OwnedPin`], at its creation
    /// and drop); advancers read it.
    depth: AtomicU64,
}

impl Participant {
    fn new(depth: u64) -> Arc<Participant> {
        Arc::new(Participant {
            local_epoch: AtomicU64::new(0),
            depth: AtomicU64::new(depth),
        })
    }
}

type Deferred = Box<dyn FnOnce() + Send>;

/// Garbage deferred at a given epoch.
struct Bin {
    epoch: u64,
    items: Vec<Deferred>,
}

/// An epoch collector shared by all threads touching one structure.
pub struct Collector {
    /// Never reused, unlike the collector's address: keys the calling
    /// thread's participant record (see [`TLS_PARTICIPANTS`]).
    id: u64,
    global_epoch: AtomicU64,
    participants: Mutex<Vec<Arc<Participant>>>,
    bins: Mutex<Vec<Bin>>,
    /// Deferred items executed so far (for tests and stats).
    executed: AtomicU64,
    /// Deferred items queued so far.
    queued: AtomicU64,
    /// When the current backlog episode started ([`obsv::clock::now_ns`],
    /// clamped ≥ 1); 0 while fully drained. Diagnostic only: a backlog
    /// that keeps aging means nothing is advancing the epoch.
    backlog_since_ns: AtomicU64,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

/// Source of [`Collector`] ids.
static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's participant record in each collector it has
    /// pinned, keyed by collector id. An entry whose `Arc` is the last one
    /// left belongs to a dropped collector and is pruned when the next entry
    /// is added.
    static TLS_PARTICIPANTS: std::cell::RefCell<Vec<(u64, Arc<Participant>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector {
            id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
            global_epoch: AtomicU64::new(GRACE_EPOCHS + 1),
            participants: Mutex::new(Vec::new()),
            bins: Mutex::new(Vec::new()),
            executed: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            backlog_since_ns: AtomicU64::new(0),
        }
    }

    /// The calling thread's participant record in this collector, created
    /// and registered on first use. The thread's entry keeps it alive, and
    /// the entry outlives every [`Guard`] of this collector on this thread:
    /// entries are only pruned once their collector is gone.
    fn me(&self) -> *const Participant {
        TLS_PARTICIPANTS.with(|v| {
            let mut v = v.borrow_mut();
            if let Some((_, p)) = v.iter().find(|(id, _)| *id == self.id) {
                return Arc::as_ptr(p);
            }
            v.retain(|(_, p)| Arc::strong_count(p) > 1);
            let p = Participant::new(0);
            self.participants.lock().push(Arc::clone(&p));
            let ptr = Arc::as_ptr(&p);
            v.push((self.id, p));
            ptr
        })
    }

    /// Marks the calling thread as inside a read-side critical section.
    ///
    /// The returned [`Guard`] unpins on drop. Pins nest: inner pins reuse
    /// the outermost announcement and touch only the thread's own depth.
    pub fn pin(&self) -> Guard<'_> {
        let participant = self.me();
        // SAFETY: the thread's participant list keeps the record alive (see
        // `me`).
        let me = unsafe { &*participant };
        let depth = me.depth.load(Ordering::Relaxed);
        if depth == 0 {
            // A stale epoch is harmless: an advancer that sees the pin at an
            // older epoch refuses to move on.
            let e = self.global_epoch.load(Ordering::Relaxed);
            me.local_epoch.store(e, Ordering::Relaxed);
            me.depth.store(1, Ordering::Relaxed);
            // Pairs with the fence in `try_advance`: either its scan sees
            // this announcement, or every load below sees the stores that
            // preceded that advance.
            fence(Ordering::SeqCst);
        } else {
            me.depth.store(depth + 1, Ordering::Relaxed);
        }
        Guard {
            collector: self,
            participant,
        }
    }

    /// Pins the collector with an *owned*, `Send` guard that is not tied to
    /// the calling thread.
    ///
    /// Snapshot handles hold one of these for their whole lifetime: while an
    /// [`OwnedPin`] is live the epoch cannot advance past it, so no memory
    /// retired after the pin was taken can be freed — the versioned nodes a
    /// snapshot may still reach stay allocated. Unlike [`pin`](Self::pin),
    /// the pin uses a dedicated participant record (not the thread-local
    /// one), so it may be created on one thread and dropped on another, and
    /// it does not nest with the calling thread's own pins.
    pub fn pin_owned(&self) -> OwnedPin {
        let p = Participant::new(1);
        p.local_epoch
            .store(self.global_epoch.load(Ordering::Relaxed), Ordering::Relaxed);
        self.participants.lock().push(Arc::clone(&p));
        // The same pairing as `pin`'s.
        fence(Ordering::SeqCst);
        OwnedPin { participant: p }
    }

    /// Defers `f` until two epochs have passed (so no concurrent reader can
    /// still hold a reference derived from the current epoch).
    pub fn defer(&self, _guard: &Guard<'_>, f: impl FnOnce() + Send + 'static) {
        // Orders the caller's unlink before the epoch read, so a reader
        // that can still reach the item pinned no later than this epoch.
        fence(Ordering::SeqCst);
        let epoch = self.global_epoch.load(Ordering::Relaxed);
        self.queued.fetch_add(1, Ordering::Relaxed);
        // Stamp the start of a backlog episode (drained -> backlogged).
        let _ = self.backlog_since_ns.compare_exchange(
            0,
            obsv::clock::now_ns().max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        let mut bins = self.bins.lock();
        match bins.last_mut() {
            Some(bin) if bin.epoch == epoch => bin.items.push(Box::new(f)),
            _ => bins.push(Bin {
                epoch,
                items: vec![Box::new(f)],
            }),
        }
    }

    /// Attempts to advance the global epoch and run sufficiently aged
    /// garbage. Returns the number of deferred items executed.
    pub fn try_advance(&self) -> usize {
        // Attaches to the active request span when an advance runs on the
        // request path (e.g. PDL-ART maintenance inside a traced batch);
        // inert otherwise.
        let _epoch_span = obsv::trace::span_here(obsv::trace::SpanKind::Epoch, 0);
        let epoch = self.global_epoch.load(Ordering::Relaxed);
        // Pairs with the fence of an outer pin (see `pin`).
        fence(Ordering::SeqCst);
        {
            let mut parts = self.participants.lock();
            // A record nobody else holds belongs to an exited thread or a
            // dropped owned pin: no one can pin through it again.
            parts.retain(|p| Arc::strong_count(p) > 1);
            for p in parts.iter() {
                if p.depth.load(Ordering::Relaxed) > 0
                    && p.local_epoch.load(Ordering::Relaxed) != epoch
                {
                    // Someone is still reading in an older epoch.
                    return self.collect(epoch);
                }
            }
        }
        // Synchronizes with the `Release` unpins the scan observed: their
        // critical sections happen before anything this advance frees.
        fence(Ordering::Acquire);
        let _ = self.global_epoch.compare_exchange(
            epoch,
            epoch + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.collect(epoch + 1)
    }

    /// Runs garbage older than `current - GRACE_EPOCHS`.
    fn collect(&self, current: u64) -> usize {
        let ready: Vec<Bin> = {
            let mut bins = self.bins.lock();
            let mut ready = Vec::new();
            bins.retain_mut(|bin| {
                if bin.epoch + GRACE_EPOCHS <= current {
                    ready.push(Bin {
                        epoch: bin.epoch,
                        items: std::mem::take(&mut bin.items),
                    });
                    false
                } else {
                    true
                }
            });
            ready
        };
        let mut n = 0;
        for bin in ready {
            for f in bin.items {
                f();
                n += 1;
            }
        }
        self.executed.fetch_add(n as u64, Ordering::Relaxed);
        if n > 0 && self.executed.load(Ordering::Relaxed) == self.queued.load(Ordering::Relaxed) {
            self.backlog_since_ns.store(0, Ordering::Relaxed);
        }
        n
    }

    /// Repeatedly advances until all currently queued garbage has run.
    ///
    /// Must only be called while no thread holds a [`Guard`]; used on
    /// shutdown and in tests.
    pub fn flush(&self) {
        for _ in 0..(GRACE_EPOCHS + 2) {
            self.try_advance();
        }
    }

    /// Drops all queued garbage *without executing it*.
    ///
    /// Used when the memory the deferred closures would touch has been
    /// invalidated wholesale — e.g. after a simulated crash remounted the
    /// pools from their media image, pending frees refer to pre-crash state
    /// and must not run. Returns the number of discarded items.
    pub fn discard_all(&self) -> usize {
        let bins: Vec<Bin> = std::mem::take(&mut *self.bins.lock());
        self.backlog_since_ns.store(0, Ordering::Relaxed);
        bins.into_iter().map(|b| b.items.len()).sum()
    }

    /// Deferred items executed so far.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Deferred items queued so far.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Current global epoch (for diagnostics).
    pub fn epoch(&self) -> u64 {
        self.global_epoch.load(Ordering::Relaxed)
    }

    /// Age (ns) of the current backlog episode: how long deferred garbage
    /// has been waiting since the backlog last became non-empty. 0 while
    /// fully drained. A continuously growing age means nothing is
    /// advancing the epoch (stuck pin or missing maintenance), long
    /// before memory pressure shows.
    pub fn backlog_age_ns(&self) -> u64 {
        let since = self.backlog_since_ns.load(Ordering::Relaxed);
        if since == 0 {
            0
        } else {
            obsv::clock::now_ns().saturating_sub(since)
        }
    }
}

/// RAII token proving the thread is pinned. Borrows the thread's
/// participant record, so it is `!Send`: it must unpin where it pinned.
pub struct Guard<'c> {
    collector: &'c Collector,
    participant: *const Participant,
}

impl Guard<'_> {
    /// The collector this guard pins.
    pub fn collector(&self) -> &Collector {
        self.collector
    }
}

/// Zero-sized proof that a [`Guard`] is pinned for `'g`, made only by
/// borrowing one: what [`Ref::load`] takes, and what a handle keeps to load
/// its node's links under the same pin.
///
/// [`Ref::load`]: crate::handle::Ref::load
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pinned<'g>(PhantomData<&'g Guard<'g>>);

impl<'g> From<&'g Guard<'_>> for Pinned<'g> {
    #[inline]
    fn from(_guard: &'g Guard<'_>) -> Pinned<'g> {
        Pinned(PhantomData)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        // SAFETY: the record outlives the guard (see `Collector::me`).
        let me = unsafe { &*self.participant };
        match me.depth.load(Ordering::Relaxed) {
            // Orders the critical section's reads before the unpin.
            1 => me.depth.store(0, Ordering::Release),
            d => me.depth.store(d - 1, Ordering::Relaxed),
        }
    }
}

/// An owned, `Send` epoch pin (see [`Collector::pin_owned`]). Dropping it
/// unpins and releases its dedicated participant record, which the next
/// `try_advance` prunes.
pub struct OwnedPin {
    participant: Arc<Participant>,
}

impl Drop for OwnedPin {
    fn drop(&mut self) {
        self.participant.depth.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn defer_runs_after_two_epochs() {
        let c = Collector::new();
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let g = c.pin();
            let r = Arc::clone(&ran);
            c.defer(&g, move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        // One advance is not enough (two-epoch rule).
        c.try_advance();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        c.try_advance();
        c.try_advance();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(c.executed(), 1);
    }

    #[test]
    fn backlog_age_tracks_episodes() {
        let c = Collector::new();
        assert_eq!(c.backlog_age_ns(), 0, "fresh collector is drained");
        {
            let g = c.pin();
            c.defer(&g, || {});
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.backlog_age_ns() > 0, "pending garbage ages");
        c.flush();
        assert_eq!(c.executed(), c.queued());
        assert_eq!(c.backlog_age_ns(), 0, "drain resets the episode");
        // A new episode restarts the clock from ~zero.
        {
            let g = c.pin();
            c.defer(&g, || {});
        }
        assert!(c.backlog_age_ns() < 1_000_000_000, "age restarted");
    }

    #[test]
    fn active_reader_blocks_advance() {
        let c = Arc::new(Collector::new());
        let ran = Arc::new(AtomicUsize::new(0));

        // A reader pinned in another thread parks in the old epoch.
        let c2 = Arc::clone(&c);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (tx2, rx2) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let _g = c2.pin();
            tx.send(()).unwrap();
            rx2.recv().unwrap(); // hold the pin until told
        });
        rx.recv().unwrap();

        {
            let g = c.pin();
            let r = Arc::clone(&ran);
            c.defer(&g, move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..10 {
            c.try_advance();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "reader still pinned");

        tx2.send(()).unwrap();
        h.join().unwrap();
        c.flush();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn owned_pin_blocks_reclamation_across_threads() {
        let c = Arc::new(Collector::new());
        let ran = Arc::new(AtomicUsize::new(0));

        let pin = c.pin_owned();
        {
            let g = c.pin();
            let r = Arc::clone(&ran);
            c.defer(&g, move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..10 {
            c.try_advance();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "owned pin holds the epoch");

        // The pin is Send: move it to another thread and drop it there.
        let h = std::thread::spawn(move || drop(pin));
        h.join().unwrap();
        c.flush();
        assert_eq!(ran.load(Ordering::SeqCst), 1);

        // The dedicated participant is pruned once released: only this
        // thread's own record is left.
        assert_eq!(c.participants.lock().len(), 1);
    }

    #[test]
    fn exited_threads_leave_no_records() {
        let c = Arc::new(Collector::new());
        for _ in 0..256 {
            let c = Arc::clone(&c);
            std::thread::spawn(move || drop(c.pin())).join().unwrap();
        }
        c.try_advance();
        assert_eq!(c.participants.lock().len(), 0, "exited threads' records");
    }

    #[test]
    fn nested_pins_on_two_collectors() {
        let (a, b) = (Collector::new(), Collector::new());
        let ran = Arc::new(AtomicUsize::new(0));
        let outer_a = a.pin();
        let outer_b = b.pin();
        {
            let inner_a = a.pin();
            let r = Arc::clone(&ran);
            a.defer(&inner_a, move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Dropping the inner pin left the outer one announced.
        for _ in 0..10 {
            a.try_advance();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "outer pin on `a` holds");
        // `b` is independent: its epoch advances under `a`'s pins...
        drop(outer_b);
        let e = b.epoch();
        b.try_advance();
        assert_eq!(b.epoch(), e + 1);
        // ...and `a`'s advances once the outer pin goes.
        drop(outer_a);
        a.flush();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn outer_pin_holds_across_remote_advances() {
        let c = Arc::new(Collector::new());
        let ran = Arc::new(AtomicUsize::new(0));
        let g = c.pin();
        {
            let r = Arc::clone(&ran);
            c.defer(&g, move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        let c2 = Arc::clone(&c);
        std::thread::spawn(move || {
            for _ in 0..1000 {
                c2.try_advance();
            }
        })
        .join()
        .unwrap();
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "pinned reader blocks reclamation"
        );
        drop(g);
        c.flush();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    /// Regression: a thread's participant records used to be keyed by the
    /// collector's address. A collector allocated where a dropped one lived
    /// then found the dead collector's record, which its own `try_advance`
    /// never scans, and ran deferred frees under a live pin.
    #[test]
    fn collector_at_a_reused_address_sees_the_pin() {
        let a = Box::new(Collector::new());
        drop(a.pin());
        drop(a);
        // The allocator usually hands the same block back.
        let b = Box::new(Collector::new());
        let ran = Arc::new(AtomicUsize::new(0));
        let g = b.pin();
        {
            let r = Arc::clone(&ran);
            b.defer(&g, move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..4 {
            b.try_advance();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "deferred ran while pinned");
        drop(g);
        b.flush();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn many_threads_churn() {
        let c = Arc::new(Collector::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let g = c.pin();
                    let k = Arc::clone(&counter);
                    c.defer(&g, move || {
                        k.fetch_add(1, Ordering::Relaxed);
                    });
                    drop(g);
                    c.try_advance();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        c.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 500);
        assert_eq!(c.queued(), 8 * 500);
        assert_eq!(c.executed(), 8 * 500);
    }
}
