//! The background search-layer updater thread (paper §4.3, §5.6).
//!
//! PACTree's defining concurrency trick: splits and merges finish their
//! data-layer work and return; a single background thread replays the
//! SMO log in timestamp order, inserting new anchors into (and
//! removing merged anchors from) the PDL-ART search layer. The updater runs
//! a pass every 2 ms, which also advances the epoch collector, and sooner
//! when nudged.
//!
//! **Writers nudge once every 16 SMOs.** After an SMO a writer calls
//! [`Updater::note_smo`] with the entry's timestamp, which nudges only when
//! the timestamp is a multiple of `WAKE_EVERY`. Waking on every SMO made
//! each split of a bulk load find the updater parked and pay a mutex, a
//! futex wake and a context switch, so asynchronous replay ran slower than
//! inline replay. Waking every 8, 16, 32 or 128 SMOs measured alike (median
//! of five 1M-key preloads); never waking from writers was as fast, but
//! merge frees then waited for the periodic pass and a write-heavy mix kept
//! about 0.5% more space. A smaller backlog waits at most one 2 ms period,
//! which bounds how far the search layer lags the data layer; the
//! 1 024-entry log cannot fill between two nudges. `quiesce` and `stop`
//! still wake the updater at once.
//!
//! `quiesce` waits on passes, not on a clock: `Updater::wait_pass`
//! nudges and sleeps on `done`, its own condvar (a nudge's `notify_one` on
//! `cv` must wake the updater, never a quiescer), until the pass count moves.
//!
//! A nudge is a flag store: writers set `pending` and take the mutex to
//! notify only when the updater has parked. `pending` and `parked` form a
//! Dekker pair (both `SeqCst`): the updater sets `parked` before it
//! re-checks `pending`, a writer sets `pending` before it checks `parked`,
//! so at least one side sees the other and no nudge is lost.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::tree::PacTree;

/// Writers nudge the updater after every `WAKE_EVERY`-th SMO (by log
/// timestamp); the periodic pass drains the entries in between.
const WAKE_EVERY: u64 = 16;

struct Shared {
    stop: AtomicBool,
    /// Set by [`Updater::nudge`], taken by the updater before each pass.
    pending: AtomicBool,
    /// Set while the updater is (about to be) waiting on `cv`.
    parked: AtomicBool,
    /// Passes finished. Bumped and compared under `lock`, so a waiter that
    /// sees it move also sees the pass's replay.
    passes: AtomicU64,
    lock: Mutex<()>,
    /// Wakes the updater.
    cv: Condvar,
    /// Wakes [`Updater::wait_pass`] after each pass and on stop.
    done: Condvar,
}

/// Handle owning the updater thread.
pub struct Updater {
    shared: Arc<Shared>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Default for Updater {
    fn default() -> Self {
        Self::new()
    }
}

impl Updater {
    /// Creates a stopped updater.
    pub fn new() -> Updater {
        Updater {
            shared: Arc::new(Shared {
                stop: AtomicBool::new(false),
                pending: AtomicBool::new(false),
                parked: AtomicBool::new(false),
                passes: AtomicU64::new(0),
                lock: Mutex::new(()),
                cv: Condvar::new(),
                done: Condvar::new(),
            }),
            handle: Mutex::new(None),
        }
    }

    /// Starts the background thread against a weak tree handle (weak so the
    /// updater never keeps a dropped tree alive).
    pub fn start(&self, tree: Weak<PacTree>) {
        let shared = Arc::clone(&self.shared);
        shared.stop.store(false, Ordering::Release);
        let handle = std::thread::Builder::new()
            .name("pactree-updater".into())
            .spawn(move || loop {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let Some(t) = tree.upgrade() else { break };
                // An RMW, so the pass sees every log entry written before
                // the nudges it consumes.
                shared.pending.swap(false, Ordering::SeqCst);
                t.replay_pending_smos();
                drop(t);
                let mut guard = shared.lock.lock();
                shared.passes.fetch_add(1, Ordering::Relaxed);
                shared.done.notify_all();
                shared.parked.store(true, Ordering::SeqCst);
                if !shared.pending.load(Ordering::SeqCst) && !shared.stop.load(Ordering::SeqCst) {
                    // Periodic wakeup keeps the epoch collector advancing
                    // even without SMO traffic.
                    shared.cv.wait_for(&mut guard, Duration::from_millis(2));
                }
                shared.parked.store(false, Ordering::SeqCst);
            })
            .expect("spawn updater");
        *self.handle.lock() = Some(handle);
    }

    /// Called by a writer right after it finished SMO `seq` (the log
    /// entry's timestamp): nudges the updater once every `WAKE_EVERY`
    /// SMOs and otherwise leaves the entry to the next periodic pass.
    pub fn note_smo(&self, seq: u64) {
        if seq.is_multiple_of(WAKE_EVERY) {
            self.nudge();
        }
    }

    /// Wakes the updater now (`quiesce`, and every `WAKE_EVERY`-th SMO).
    /// Costs a flag store and a load while the updater is awake.
    pub fn nudge(&self) {
        self.shared.pending.store(true, Ordering::SeqCst);
        if self.shared.parked.load(Ordering::SeqCst) {
            let _guard = self.shared.lock.lock();
            self.shared.cv.notify_one();
        }
    }

    /// Nudges the updater and waits until it finishes a pass. Returns
    /// `false` when the updater is stopped or `deadline` passes first.
    pub(crate) fn wait_pass(&self, deadline: Instant) -> bool {
        let shared = &*self.shared;
        let seen = shared.passes.load(Ordering::Relaxed);
        self.nudge();
        let mut guard = shared.lock.lock();
        loop {
            if shared.passes.load(Ordering::Relaxed) != seen {
                return true;
            }
            let now = Instant::now();
            if shared.stop.load(Ordering::SeqCst) || now >= deadline {
                return false;
            }
            shared.done.wait_for(&mut guard, deadline - now);
        }
    }

    /// Stops and joins the thread (idempotent).
    ///
    /// The updater holds a strong handle while it replays, so when the
    /// owner's last handle is dropped mid-replay the tree is dropped — and
    /// this called — on the updater thread itself. It cannot join itself;
    /// the stop flag ends its loop on return.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            // Unconditional: the updater checks `stop` under this lock
            // before it waits.
            let _guard = self.shared.lock.lock();
            self.shared.cv.notify_one();
            self.shared.done.notify_all();
        }
        if let Some(h) = self.handle.lock().take() {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Updater {
    fn drop(&mut self) {
        self.stop();
    }
}
