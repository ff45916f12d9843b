//! The background search-layer updater thread (paper §4.3, §5.6).
//!
//! PACTree's defining concurrency trick: splits and merges finish their
//! data-layer work and return; a single background thread replays the
//! SMO log in timestamp order, inserting new anchors into (and
//! removing merged anchors from) the PDL-ART search layer. Writers *nudge*
//! the updater after logging an SMO; the updater also wakes periodically to
//! advance the epoch collector.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::tree::PacTree;

struct Shared {
    stop: AtomicBool,
    work: Mutex<bool>,
    cv: Condvar,
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
                work: Mutex::new(false),
                cv: Condvar::new(),
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
                t.replay_pending_smos();
                drop(t);
                let mut work = shared.work.lock();
                if !*work {
                    // Periodic wakeup keeps the epoch collector advancing
                    // even without SMO traffic.
                    shared.cv.wait_for(&mut work, Duration::from_millis(2));
                }
                *work = false;
            })
            .expect("spawn updater");
        *self.handle.lock() = Some(handle);
    }

    /// Wakes the updater (called by writers right after logging an SMO).
    pub fn nudge(&self) {
        let mut work = self.shared.work.lock();
        *work = true;
        self.shared.cv.notify_one();
    }

    /// Stops and joins the thread (idempotent).
    ///
    /// The updater holds a strong handle while it replays, so when the
    /// owner's last handle is dropped mid-replay the tree is dropped — and
    /// this called — on the updater thread itself. It cannot join itself;
    /// the stop flag ends its loop on return.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.nudge();
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
