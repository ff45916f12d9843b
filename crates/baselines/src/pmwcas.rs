//! PMwCAS: persistent multi-word compare-and-swap (Wang et al., ICDE'18) —
//! the lock-free primitive BzTree is built on (PACTree §2.2.1).
//!
//! A descriptor records up to four `(address, expected, new)` word triples.
//! Threads install a marked descriptor pointer into each target word with
//! single-word CAS (helping any descriptor already present), decide the
//! outcome with a CAS on the descriptor's status word, and then replace the
//! marked pointers with the final values. Every installed word and the
//! status word are flushed — the flush storm the PACTree paper measures
//! (BzTree: ≥15 flushes per insert, GA4).
//!
//! Target words must keep bit 0 clear (aligned pointers and shifted packed
//! fields do); descriptor pointers are tagged with bit 0. Descriptors are
//! NVM allocations reclaimed through the epoch collector, so readers never
//! chase freed descriptors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem::epoch::{Collector, Guard};
use pmem::handle::{ByEpoch, Node};
use pmem::persist;
use pmem::pool::PmemPool;
use pmem::pptr::PmPtr;
use pmem::{Ref, Result};

/// Maximum words per descriptor.
pub const MAX_WORDS: usize = 4;

const ST_UNDECIDED: u64 = 0;
const ST_SUCCEEDED: u64 = 2;
const ST_FAILED: u64 = 4;

const MARK: u64 = 1;

/// A PMwCAS descriptor (lives in NVM).
#[repr(C)]
struct Descriptor {
    status: AtomicU64,
    count: AtomicU64,
    /// `[addr, expected, new]` per word; `addr` is the raw pointer value of
    /// the target `AtomicU64`.
    words: [[AtomicU64; 3]; MAX_WORDS],
}

// SAFETY: a target word names a descriptor by its marked word, installed
// only after `execute` wrote, persisted and fenced the descriptor. A
// descriptor is freed through the runner's collector two epochs after
// `execute`'s `help` replaced its marked word in every target. Every field
// is an atomic.
unsafe impl Node for Descriptor {
    type Freed = ByEpoch;
    const MARKED: bool = true;
}

const DESC_SIZE: usize = std::mem::size_of::<Descriptor>();

/// The target word a descriptor entry records by raw address.
fn target(addr: &AtomicU64) -> &AtomicU64 {
    // SAFETY: `execute` records the addresses of target words its caller
    // borrowed; they live in nodes that outlive the operation, and every
    // reader of the descriptor is epoch-pinned.
    unsafe { &*(addr.load(Ordering::Acquire) as *const AtomicU64) }
}

/// Executes PMwCAS operations against one pool, reclaiming descriptors
/// through the shared epoch collector.
pub struct PmwCasRunner {
    pool: Arc<PmemPool>,
    collector: Arc<Collector>,
}

impl PmwCasRunner {
    /// Creates a runner over `pool`.
    pub fn new(pool: Arc<PmemPool>, collector: Arc<Collector>) -> PmwCasRunner {
        PmwCasRunner { pool, collector }
    }

    /// Atomically and persistently applies `entries` (up to [`MAX_WORDS`]
    /// `(target, expected, new)` triples). Returns true on success.
    ///
    /// # Panics
    ///
    /// Panics if any `new`/`expected` value has bit 0 set, or more than
    /// [`MAX_WORDS`] entries are passed.
    pub fn execute(&self, guard: &Guard<'_>, entries: &[(&AtomicU64, u64, u64)]) -> Result<bool> {
        assert!(entries.len() <= MAX_WORDS && !entries.is_empty());
        for &(_, old, new) in entries {
            assert_eq!(old & MARK, 0, "expected value uses the mark bit");
            assert_eq!(new & MARK, 0, "new value uses the mark bit");
        }
        let ptr = self.pool.allocator().alloc(DESC_SIZE)?;
        // SAFETY: fresh DESC_SIZE allocation.
        let desc = unsafe {
            let raw = ptr.as_mut_ptr();
            raw.write_bytes(0, DESC_SIZE);
            &*(raw as *const Descriptor)
        };
        desc.count.store(entries.len() as u64, Ordering::Relaxed);
        for (i, &(addr, old, new)) in entries.iter().enumerate() {
            desc.words[i][0].store(addr as *const AtomicU64 as u64, Ordering::Relaxed);
            desc.words[i][1].store(old, Ordering::Relaxed);
            desc.words[i][2].store(new, Ordering::Relaxed);
        }
        persist::persist(ptr.as_ptr(), DESC_SIZE);
        persist::fence();
        let marked = ptr.raw() | MARK;
        let ok = help(desc, marked, guard);
        // Retire the descriptor after two epochs: concurrent readers may
        // still hold the marked pointer.
        let pool = Arc::clone(&self.pool);
        self.collector.defer(guard, move || {
            pool.allocator()
                .free(PmPtr::from_raw(marked & !MARK), DESC_SIZE);
        });
        Ok(ok)
    }
}

/// Reads a PMwCAS-managed word, helping complete any in-flight descriptor
/// found there.
pub fn read_word(cell: &AtomicU64, guard: &Guard<'_>) -> u64 {
    loop {
        let v = cell.load(Ordering::Acquire);
        if v & MARK == 0 {
            return v;
        }
        help_at(cell, guard);
    }
}

/// Helps the descriptor installed in `cell`, if one still is.
fn help_at(cell: &AtomicU64, guard: &Guard<'_>) {
    if let Some(desc) = Ref::<Descriptor>::load(cell, guard) {
        help(&desc, desc.raw() | MARK, guard);
    }
}

/// Drives a descriptor to completion (any thread may call this — the
/// helping protocol). Returns true iff the PMwCAS succeeded.
fn help(desc: &Descriptor, marked: u64, guard: &Guard<'_>) -> bool {
    let count = desc.count.load(Ordering::Acquire) as usize;
    // Phase 1: install the descriptor into every target word.
    let mut status_goal = ST_SUCCEEDED;
    'install: for i in 0..count {
        let cell = target(&desc.words[i][0]);
        let expected = desc.words[i][1].load(Ordering::Acquire);
        loop {
            if desc.status.load(Ordering::Acquire) != ST_UNDECIDED {
                break 'install; // someone already decided
            }
            let cur = cell.load(Ordering::Acquire);
            if cur == marked {
                break; // already installed
            }
            if cur & MARK != 0 {
                // Another descriptor is in flight here: help it first.
                help_at(cell, guard);
                continue;
            }
            if cur != expected {
                status_goal = ST_FAILED;
                break 'install;
            }
            match cell.compare_exchange_weak(cur, marked, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    persist::persist_obj(cell);
                    break;
                }
                Err(_) => continue,
            }
        }
    }
    persist::fence();
    // Decide.
    let _ = desc.status.compare_exchange(
        ST_UNDECIDED,
        status_goal,
        Ordering::AcqRel,
        Ordering::Acquire,
    );
    persist::persist_obj_fenced(&desc.status);
    let succeeded = desc.status.load(Ordering::Acquire) == ST_SUCCEEDED;

    // Phase 2: replace installed pointers with the final values.
    for i in 0..count {
        let cell = target(&desc.words[i][0]);
        let expected = desc.words[i][1].load(Ordering::Acquire);
        let new = desc.words[i][2].load(Ordering::Acquire);
        let finalv = if succeeded { new } else { expected };
        if cell
            .compare_exchange(marked, finalv, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            persist::persist_obj(cell);
        }
    }
    persist::fence();
    succeeded
}

/// Post-crash scrub of one PMwCAS-managed word: if the word holds a marked
/// descriptor pointer, roll it forward (descriptor decided `SUCCEEDED`) or
/// back (undecided/failed) to a plain value, persist, and return it.
///
/// Sound against crash states reachable between fences: the descriptor is
/// fully persisted and fenced *before* any marked pointer is installed, and
/// a descriptor is only retired (and its memory possibly reused) two epochs
/// after phase 2 replaced every marked pointer — whose replacement stores
/// are flushed and fenced immediately. So any marked pointer found on media
/// after a crash refers to a descriptor whose media content is intact.
/// Descriptor pointers that could not name a descriptor of `pool`
/// (impossible by that argument, but crash images are adversarial) degrade
/// to storing 0 rather than faulting.
///
/// Only valid before new PMwCAS traffic starts and while pool base addresses
/// are unchanged since the crash: descriptors record target cells by raw
/// address.
pub fn recover_word(pool: &PmemPool, cell: &AtomicU64) -> u64 {
    let v = cell.load(Ordering::Acquire);
    if v & MARK == 0 {
        return v;
    }
    let mut final_v = 0;
    if let Some(desc) = Ref::<Descriptor>::checked(v & !MARK, pool) {
        let succeeded = desc.status.load(Ordering::Acquire) == ST_SUCCEEDED;
        let count = (desc.count.load(Ordering::Acquire) as usize).min(MAX_WORDS);
        let addr = cell as *const AtomicU64 as u64;
        for i in 0..count {
            if desc.words[i][0].load(Ordering::Acquire) == addr {
                final_v = desc.words[i][if succeeded { 2 } else { 1 }].load(Ordering::Acquire);
                break;
            }
        }
    }
    cell.store(final_v, Ordering::Release);
    persist::persist_obj(cell);
    final_v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::pool::{destroy_pool, PoolConfig};

    fn mk(name: &str) -> (Arc<PmemPool>, PmwCasRunner, Arc<Collector>) {
        let pool = PmemPool::create(PoolConfig::volatile(name, 64 << 20)).unwrap();
        let collector = Arc::new(Collector::new());
        let runner = PmwCasRunner::new(Arc::clone(&pool), Arc::clone(&collector));
        (pool, runner, collector)
    }

    /// Allocates an AtomicU64 cell inside the pool (PMwCAS targets must be
    /// stable addresses).
    fn cell(pool: &PmemPool, init: u64) -> &'static AtomicU64 {
        let p = pool.allocator().alloc(8).unwrap();
        // SAFETY: fresh 8-byte aligned allocation; pool lives for the test.
        unsafe {
            (p.as_mut_ptr() as *mut u64).write(init);
            &*(p.as_ptr() as *const AtomicU64)
        }
    }

    #[test]
    fn two_word_success_and_failure() {
        let (pool, runner, collector) = mk("pmwcas-basic");
        let a = cell(&pool, 10);
        let b = cell(&pool, 20);
        let g = collector.pin();
        assert!(runner.execute(&g, &[(a, 10, 12), (b, 20, 22)]).unwrap());
        assert_eq!(read_word(a, &g), 12);
        assert_eq!(read_word(b, &g), 22);
        // Second attempt with stale expected values fails atomically.
        assert!(!runner.execute(&g, &[(a, 10, 14), (b, 22, 24)]).unwrap());
        assert_eq!(read_word(a, &g), 12);
        assert_eq!(read_word(b, &g), 24 - 2, "b must be rolled back to 22");
        drop(g);
        destroy_pool(pool.id());
    }

    #[test]
    #[should_panic(expected = "mark bit")]
    fn odd_values_rejected() {
        let (pool, runner, collector) = mk("pmwcas-odd");
        let a = cell(&pool, 0);
        let g = collector.pin();
        let _ = runner.execute(&g, &[(a, 0, 3)]);
        drop(g);
        destroy_pool(pool.id());
    }

    #[test]
    fn concurrent_counter_increments() {
        let (pool, runner, collector) = mk("pmwcas-conc");
        let a = cell(&pool, 0);
        let b = cell(&pool, 0);
        let runner = Arc::new(runner);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let runner = Arc::clone(&runner);
            let collector = Arc::clone(&collector);
            let (a, b) = (a, b);
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                while done < 500 {
                    let g = collector.pin();
                    let va = read_word(a, &g);
                    let vb = read_word(b, &g);
                    // Both words advance together by 2 (keeping bit 0 clear).
                    if runner
                        .execute(&g, &[(a, va, va + 2), (b, vb, vb + 2)])
                        .unwrap()
                    {
                        done += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let g = collector.pin();
        assert_eq!(read_word(a, &g), 8 * 500 * 2);
        assert_eq!(
            read_word(a, &g),
            read_word(b, &g),
            "words always move together"
        );
        drop(g);
        collector.flush();
        destroy_pool(pool.id());
    }

    #[test]
    fn flush_traffic_is_substantial() {
        // The GA4 point: each PMwCAS flushes every target word twice plus
        // the descriptor and status.
        pmem::model::set_config(pmem::model::NvmModelConfig::accounting());
        let (pool, runner, collector) = mk("pmwcas-flush");
        let a = cell(&pool, 0);
        let b = cell(&pool, 0);
        let before = pmem::stats::global().snapshot();
        let g = collector.pin();
        runner.execute(&g, &[(a, 0, 2), (b, 0, 2)]).unwrap();
        drop(g);
        let d = pmem::stats::global().snapshot().since(&before);
        pmem::model::set_config(pmem::model::NvmModelConfig::disabled());
        assert!(d.flushes >= 6, "expected >=6 flushes, got {}", d.flushes);
        destroy_pool(pool.id());
    }
}
