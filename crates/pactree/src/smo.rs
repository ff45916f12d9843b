//! The persistent SMO (structural modification operation) log (paper §4.3,
//! §5.6).
//!
//! When an insert splits a data node, or a delete merges two, the writer
//! records the fact in the SMO log *before* touching the data layer and
//! returns without updating the search layer; the background updater thread
//! replays log entries in timestamp order to synchronize the search layer
//! (asynchronous SMO, the paper's core GC2 mechanism).
//!
//! A log entry also serves as the crash-consistency anchor of the whole
//! split/merge protocol (§5.9): the new node of a split is allocated with
//! *malloc-to* semantics directly into the entry's placeholder field, so a
//! crash anywhere in the protocol either finds enough state in the entry to
//! complete the operation or proves it never started.
//!
//! **One array, claimed by CAS.** The paper gives each thread its own log
//! (§4.3) so writers never share a cache line. Here the log is one array of
//! [`LOG_ENTRIES`] cache-line entries (64 KiB), and a writer claims an entry
//! with a compare-and-swap from free to a volatile *claimed* state. Each
//! thread starts probing at its own *home* entry, [`HOME_STRIDE`] entries
//! from the next thread's, so writers still fill disjoint lines in the
//! common case; a busy thread spills into its neighbours' ranges instead of
//! waiting on a ring of its own, and a thread that shares a home (every
//! sixteenth) can never take an entry another thread holds.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pmem::persist;
use pmem::pool::PmemPool;
use pmem::pptr::PmPtr;
use pmem::Result;

/// SMO kinds recorded in a log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum SmoKind {
    /// `node` split; the new right node lives in `aux`.
    Split = 1,
    /// `aux` (the right node) merged into `node` (the left node).
    Merge = 2,
}

/// Entry states.
const STATE_FREE: u64 = 0;
/// The data-layer part is (being) executed; the search layer may lag.
const STATE_PENDING: u64 = 1;
/// Claimed by a writer that is still filling the entry in. Never persisted
/// on purpose (a neighbouring flush can leak it to media): it names no work,
/// since `append` returns before any data-layer write, and attaching resets
/// it to free.
const STATE_CLAIMED: u64 = 2;

/// 8-byte words per entry: `[seq, kind, node, aux, state, pad, pad, pad]`
/// (padded to a cache line so entries flush independently).
const ENTRY_WORDS: usize = 8;
const W_SEQ: usize = 0;
const W_KIND: usize = 1;
const W_NODE: usize = 2;
const W_AUX: usize = 3;
const W_STATE: usize = 4;

/// Entries in the log.
pub const LOG_ENTRIES: usize = 1024;

/// Entries between the home entries of two consecutive threads.
const HOME_STRIDE: usize = 64;

/// Bytes of the whole log area.
pub const LOG_AREA_SIZE: usize = LOG_ENTRIES * ENTRY_WORDS * 8;

static NEXT_SMO_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SMO_THREAD_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn smo_thread_slot() -> usize {
    SMO_THREAD_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SMO_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        s.get()
    })
}

/// The entry thread slot `slot` starts probing at.
fn home_entry(slot: usize) -> usize {
    slot.wrapping_mul(HOME_STRIDE) % LOG_ENTRIES
}

/// A decoded, pending SMO log entry.
#[derive(Debug, Clone, Copy)]
pub struct SmoRecord {
    pub seq: u64,
    pub kind: SmoKind,
    /// The split/left node.
    pub node: u64,
    /// The new node (split) or merged-away victim (merge).
    pub aux: u64,
    /// The entry, for clearing.
    pub index: usize,
}

/// Handle over the persistent SMO log area of one tree.
pub struct SmoLog {
    /// Raw `PmPtr` to the log area.
    area: PmPtr<AtomicU64>,
    /// Global timestamp source.
    seq: AtomicU64,
}

impl SmoLog {
    /// Creates (or attaches to) the log area anchored at root-directory cell
    /// `cell` of `pool`. Attaching frees every entry a writer had claimed
    /// but not yet published.
    pub fn create(pool: &PmemPool, cell: &AtomicU64) -> Result<SmoLog> {
        if cell.load(Ordering::Acquire) == 0 {
            pool.allocator().malloc_to(LOG_AREA_SIZE, cell, |raw| {
                // SAFETY: fresh allocation of LOG_AREA_SIZE bytes.
                unsafe { raw.write_bytes(0, LOG_AREA_SIZE) };
            })?;
        }
        let area = PmPtr::<AtomicU64>::from_raw(cell.load(Ordering::Acquire));
        let log = SmoLog {
            area,
            seq: AtomicU64::new(1),
        };
        for index in 0..LOG_ENTRIES {
            let state = log.word(index, W_STATE);
            if state.load(Ordering::Acquire) == STATE_CLAIMED {
                state.store(STATE_FREE, Ordering::Release);
                persist::persist_obj_fenced(state);
            }
        }
        // Resume the timestamp above any surviving entry.
        let max_seq = log.pending().iter().map(|r| r.seq).max().unwrap_or(0);
        log.seq.store(max_seq + 1, Ordering::Release);
        Ok(log)
    }

    fn word(&self, index: usize, w: usize) -> &AtomicU64 {
        debug_assert!(index < LOG_ENTRIES && w < ENTRY_WORDS);
        let off = ((index * ENTRY_WORDS + w) * 8) as u64;
        // SAFETY: in bounds of the LOG_AREA_SIZE allocation; 8-byte aligned.
        unsafe { &*self.area.byte_add(off).as_ptr() }
    }

    /// Claims a free entry, probing from the calling thread's home entry,
    /// and records a split or merge intention; returns the entry handle.
    /// Spins (with the caller expected to be rare) when every entry is taken
    /// — natural back-pressure on writers when the updater falls behind.
    pub fn append(&self, kind: SmoKind, node: u64) -> SmoTicket<'_> {
        self.append_from(home_entry(smo_thread_slot()), kind, node)
    }

    /// [`append`](Self::append), probing from entry `home`. The claim's
    /// `Acquire` pairs with the `Release` of the [`clear`](Self::clear) that
    /// freed the entry.
    fn append_from(&self, home: usize, kind: SmoKind, node: u64) -> SmoTicket<'_> {
        loop {
            for i in 0..LOG_ENTRIES {
                let index = (home + i) % LOG_ENTRIES;
                let state = self.word(index, W_STATE);
                if state.load(Ordering::Relaxed) != STATE_FREE
                    || state
                        .compare_exchange(
                            STATE_FREE,
                            STATE_CLAIMED,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_err()
                {
                    continue;
                }
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                self.word(index, W_SEQ).store(seq, Ordering::Relaxed);
                self.word(index, W_KIND)
                    .store(kind as u64, Ordering::Relaxed);
                self.word(index, W_NODE).store(node, Ordering::Relaxed);
                self.word(index, W_AUX).store(0, Ordering::Relaxed);
                state.store(STATE_PENDING, Ordering::Release);
                persist::persist(
                    self.word(index, 0) as *const AtomicU64 as *const u8,
                    ENTRY_WORDS * 8,
                );
                persist::fence();
                return SmoTicket {
                    log: self,
                    index,
                    seq,
                };
            }
            std::thread::yield_now();
        }
    }

    /// Clears an entry (the SMO is fully reflected in the search layer).
    pub fn clear(&self, index: usize) {
        self.word(index, W_STATE)
            .store(STATE_FREE, Ordering::Release);
        persist::persist_obj_fenced(self.word(index, W_STATE));
    }

    /// Snapshot of all pending entries, sorted by timestamp (the updater's
    /// replay order, §5.6). Claimed entries are still being filled in and
    /// are skipped, as are torn ones.
    pub fn pending(&self) -> Vec<SmoRecord> {
        let mut out = Vec::new();
        for i in 0..LOG_ENTRIES {
            let Some(kind) = self.pending_kind(i) else {
                continue;
            };
            out.push(SmoRecord {
                seq: self.word(i, W_SEQ).load(Ordering::Acquire),
                kind,
                node: self.word(i, W_NODE).load(Ordering::Acquire),
                aux: self.word(i, W_AUX).load(Ordering::Acquire),
                index: i,
            });
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Entry `index`'s `node` and `aux` words: the links a replay loads the
    /// nodes the entry names from.
    pub fn links(&self, index: usize) -> [&AtomicU64; 2] {
        [self.word(index, W_NODE), self.word(index, W_AUX)]
    }

    /// Number of pending entries (diagnostics, back-pressure tests,
    /// `quiesce`'s poll), counted in place: the length of
    /// [`pending`](Self::pending) without building it.
    pub fn pending_count(&self) -> usize {
        (0..LOG_ENTRIES)
            .filter(|&i| self.pending_kind(i).is_some())
            .count()
    }

    /// Entry `index`'s kind if it is pending; `None` for a free, claimed or
    /// torn entry (the state is persisted last, so a torn one is skipped).
    fn pending_kind(&self, index: usize) -> Option<SmoKind> {
        if self.word(index, W_STATE).load(Ordering::Acquire) != STATE_PENDING {
            return None;
        }
        match self.word(index, W_KIND).load(Ordering::Acquire) {
            1 => Some(SmoKind::Split),
            2 => Some(SmoKind::Merge),
            _ => None,
        }
    }
}

/// A claimed, persisted SMO log entry being executed by a writer.
pub struct SmoTicket<'a> {
    log: &'a SmoLog,
    pub index: usize,
    pub seq: u64,
}

impl SmoTicket<'_> {
    /// The entry's `aux` cell — the malloc-to destination for a split's new
    /// node, or the victim pointer cell for a merge.
    pub fn aux_cell(&self) -> &AtomicU64 {
        self.log.word(self.index, W_AUX)
    }

    /// Records the merge victim (persisted immediately).
    pub fn set_aux(&self, raw: u64) {
        self.aux_cell().store(raw, Ordering::Release);
        persist::persist_obj_fenced(self.aux_cell());
    }

    /// Abandons the ticket (the SMO turned out unnecessary): frees the slot.
    pub fn cancel(self) {
        self.log.clear(self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::pool::{destroy_pool, PmemPool, PoolConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn append_pending_clear_cycle() {
        let pool = PmemPool::create(PoolConfig::volatile("smo-basic", 64 << 20)).unwrap();
        let log = SmoLog::create(&pool, pool.allocator().root(0)).unwrap();
        assert_eq!(log.pending_count(), 0);
        let t1 = log.append(SmoKind::Split, 111);
        let t2 = log.append(SmoKind::Merge, 222);
        t2.set_aux(333);
        let pending = log.pending();
        assert_eq!(pending.len(), 2);
        assert!(pending[0].seq < pending[1].seq, "sorted by timestamp");
        assert_eq!(pending[0].kind, SmoKind::Split);
        assert_eq!(pending[0].node, 111);
        assert_eq!(pending[1].aux, 333);
        log.clear(t1.index);
        log.clear(t2.index);
        assert_eq!(log.pending_count(), 0);
        destroy_pool(pool.id());
    }

    #[test]
    fn survives_crash_and_resumes_seq() {
        let pool = PmemPool::create(PoolConfig::durable("smo-crash", 64 << 20)).unwrap();
        let log = SmoLog::create(&pool, pool.allocator().root(0)).unwrap();
        let t = log.append(SmoKind::Split, 42);
        let seq_before = t.seq;
        pool.simulate_crash(false);
        // Reattach.
        let log2 = SmoLog::create(&pool, pool.allocator().root(0)).unwrap();
        let pending = log2.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].node, 42);
        assert_eq!(pending[0].seq, seq_before);
        // New timestamps continue above the survivor.
        let t2 = log2.append(SmoKind::Merge, 1);
        assert!(t2.seq > seq_before);
        destroy_pool(pool.id());
    }

    #[test]
    fn cancel_frees_slot() {
        let pool = PmemPool::create(PoolConfig::volatile("smo-cancel", 64 << 20)).unwrap();
        let log = SmoLog::create(&pool, pool.allocator().root(0)).unwrap();
        let t = log.append(SmoKind::Split, 7);
        t.cancel();
        assert_eq!(log.pending_count(), 0);
        destroy_pool(pool.id());
    }

    /// A claimed entry that reached media (a neighbouring line's flush can
    /// carry it) names no work: it is not pending before or after the crash,
    /// and attaching frees it, durably, for the next append.
    #[test]
    fn claimed_entry_is_freed_on_attach() {
        let pool = PmemPool::create(PoolConfig::durable("smo-claimed", 64 << 20)).unwrap();
        let log = SmoLog::create(&pool, pool.allocator().root(0)).unwrap();
        let forged = 5;
        log.word(forged, W_KIND)
            .store(SmoKind::Split as u64, Ordering::Relaxed);
        log.word(forged, W_NODE).store(99, Ordering::Relaxed);
        log.word(forged, W_STATE)
            .store(STATE_CLAIMED, Ordering::Release);
        persist::persist(log.word(forged, 0) as *const AtomicU64 as *const u8, 64);
        persist::fence();
        assert_eq!(log.pending_count(), 0, "claimed is not pending");
        pool.simulate_crash(false);
        let state = |log: &SmoLog| log.word(forged, W_STATE).load(Ordering::Acquire);
        assert_eq!(state(&log), STATE_CLAIMED, "the claim reached media");
        let log2 = SmoLog::create(&pool, pool.allocator().root(0)).unwrap();
        assert_eq!(state(&log2), STATE_FREE);
        assert_eq!(log2.pending_count(), 0);
        // The reset is durable: a crash right after attach keeps it.
        pool.simulate_crash(false);
        assert_eq!(state(&log2), STATE_FREE);
        let t = log2.append_from(forged, SmoKind::Merge, 1);
        assert_eq!(t.index, forged, "the freed entry is reused");
        destroy_pool(pool.id());
    }

    /// Eight threads probing from one home entry, each holding several
    /// entries at a time: no entry is ever held twice.
    #[test]
    fn concurrent_appends_never_share_an_entry() {
        let pool = PmemPool::create(PoolConfig::volatile("smo-cas", 64 << 20)).unwrap();
        let log = SmoLog::create(&pool, pool.allocator().root(0)).unwrap();
        let held: Vec<AtomicBool> = (0..LOG_ENTRIES).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (log, held) = (&log, &held);
                s.spawn(move || {
                    for round in 0..500u64 {
                        let tickets: Vec<SmoTicket<'_>> = (0..3)
                            .map(|_| log.append_from(0, SmoKind::Split, (t << 32) | round))
                            .collect();
                        for tk in &tickets {
                            assert!(!held[tk.index].swap(true, Ordering::AcqRel), "{}", tk.index);
                        }
                        for tk in tickets {
                            held[tk.index].store(false, Ordering::Release);
                            tk.cancel();
                        }
                    }
                });
            }
        });
        assert_eq!(log.pending_count(), 0);
        destroy_pool(pool.id());
    }

    /// Thread slots 16 apart share a home entry; probing by CAS still gives
    /// every append of either thread its own entry.
    #[test]
    fn threads_sharing_a_home_get_distinct_entries() {
        let (a, b) = (3, 3 + LOG_ENTRIES / HOME_STRIDE);
        assert_eq!(home_entry(a), home_entry(b));
        let pool = PmemPool::create(PoolConfig::volatile("smo-home", 64 << 20)).unwrap();
        let log = SmoLog::create(&pool, pool.allocator().root(0)).unwrap();
        let start = Barrier::new(2);
        let got: [Vec<usize>; 2] = std::thread::scope(|s| {
            [a, b]
                .map(|slot| {
                    let (log, start) = (&log, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..32)
                            .map(|_| log.append_from(home_entry(slot), SmoKind::Split, 1).index)
                            .collect()
                    })
                })
                .map(|h| h.join().unwrap())
        });
        let mut all: Vec<usize> = got.concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64, "every append got its own entry");
        assert_eq!(log.pending_count(), 64);
        destroy_pool(pool.id());
    }
}
