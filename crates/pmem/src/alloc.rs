//! Crash-consistent NVM allocation (paper GS1, GA3, §5.1(3)).
//!
//! The allocator manages the space of one [`crate::pool::PmemPool`] with a
//! persistent bump cursor plus volatile segregated free lists. It supports
//! two modes:
//!
//! * [`AllocMode::CrashConsistent`] — the PMDK-like mode: the bump cursor is
//!   persisted before memory is handed out, and *malloc-to* allocations go
//!   through a persistent allocation log so that a crash between "allocate"
//!   and "link into the data structure" can never leak persistent memory.
//!   Each allocation/free performs the flush/fence traffic the paper
//!   attributes to PMDK (~6 flushes per alloc/free pair).
//! * [`AllocMode::Transient`] — the modified-jemalloc mode of Figure 3: same
//!   placement logic, no crash-consistency work at all.
//!
//! Free lists are volatile and rebuilt empty on remount; blocks freed before
//! a crash but never reused are reclaimed by an offline reachability sweep
//! (out of scope for the allocator; see DESIGN.md).
//!
//! # Pool layout
//!
//! ```text
//! 0x0000  header: magic, size, mode, persistent bump cursor
//! 0x0100  root directory: 32 persistent 8-byte root slots
//! 0x0400  allocation log: LOG_SLOTS x 32-byte entries
//! 0x10000 data space (bump + free lists)
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::persist;
use crate::pool::{PmemPool, PoolId};
use crate::pptr::PmPtr;
use crate::stats;
use crate::{PmemError, Result, XPLINE};

/// Allocator crash-consistency mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// PMDK-like: persistent cursor, allocation logs, full flush traffic.
    CrashConsistent,
    /// Jemalloc-like: no crash-consistency work (Figure 3's baseline).
    Transient,
}

const MAGIC: u64 = 0x5041_4354_5245_4531; // "PACTREE1"

/// Number of allocation-log slots (one per concurrently allocating thread).
pub const LOG_SLOTS: usize = 1024;

/// Number of persistent root slots in the root directory.
pub const ROOT_SLOTS: usize = 32;

const HDR_MAGIC: u64 = 0;
const HDR_SIZE: u64 = 8;
const HDR_MODE: u64 = 16;
const HDR_BUMP: u64 = 24;
const ROOT_DIR: u64 = 0x100;
const LOG_BASE: u64 = 0x400;
const LOG_ENTRY_SIZE: u64 = 32;
/// First byte of the data space.
pub const DATA_START: u64 = 0x10000;

/// Larger requests are bump-allocated at their own size, reused first-fit.
const MAX_CLASS_SIZE: usize = 16 << 10;
const CLASS_COUNT: usize = 3 + MAX_CLASS_SIZE / XPLINE;

/// The size class serving `size` bytes, or `None` for a large block: 32,
/// 64, 128, then every multiple of [`XPLINE`] — the media's access unit — up
/// to 16 KiB (a 3312-byte data node takes 3328 bytes, not 4096).
pub fn class_of(size: usize) -> Option<usize> {
    match size {
        0..=32 => Some(0),
        33..=64 => Some(1),
        65..=128 => Some(2),
        _ if size <= MAX_CLASS_SIZE => Some(2 + size.div_ceil(XPLINE)),
        _ => None,
    }
}

/// Bytes a block of class `cls` occupies.
pub fn class_size(cls: usize) -> usize {
    debug_assert!(cls < CLASS_COUNT);
    match cls {
        0..=2 => 32 << cls,
        _ => (cls - 2) * XPLINE,
    }
}

/// Start alignment of a block of `size` bytes (its class size, if any).
fn align_of(size: usize) -> u64 {
    size.min(XPLINE) as u64
}

/// A persistent allocation-log entry (malloc-to semantics, §5.1(3)).
///
/// Protocol: (1) write `dest`+`size`, persist; (2) allocate, write `ptr`,
/// persist; (3) store `ptr` into `*dest`, persist; (4) zero the entry,
/// persist. Recovery frees `ptr` whenever `*dest != ptr`.
#[repr(C)]
struct LogEntry {
    dest: AtomicU64,
    size: AtomicU64,
    ptr: AtomicU64,
    _pad: AtomicU64,
}

thread_local! {
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

fn my_slot() -> usize {
    THREAD_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % LOG_SLOTS);
        }
        s.get()
    })
}

/// The allocator for one pool.
pub struct PmemAllocator {
    pool_id: PoolId,
    pool_size: usize,
    mode: AllocMode,
    /// Volatile mirror of the persistent bump cursor.
    bump: AtomicU64,
    /// Highest cursor value a remount has rewound from, or end of the data of
    /// a loaded crash image; with `bump` it gives the touched extent.
    touched: AtomicU64,
    /// Per-size-class volatile free lists of offsets.
    freelists: Vec<Mutex<Vec<u64>>>,
    /// Free lists for large (non-class) blocks: (offset, size).
    large_free: Mutex<Vec<(u64, usize)>>,
}

impl PmemAllocator {
    /// Smallest usable pool: header + logs + some data space.
    pub const MIN_POOL_SIZE: usize = 1 << 20;

    pub(crate) fn new(pool_id: PoolId, pool_size: usize, mode: AllocMode) -> Self {
        PmemAllocator {
            pool_id,
            pool_size,
            mode,
            bump: AtomicU64::new(DATA_START),
            touched: AtomicU64::new(DATA_START),
            freelists: (0..CLASS_COUNT).map(|_| Mutex::new(Vec::new())).collect(),
            large_free: Mutex::new(Vec::new()),
        }
    }

    /// Writes a fresh persistent header into a just-created pool.
    pub(crate) fn format(&self, pool: &PmemPool) {
        // SAFETY: header offsets are in bounds of any MIN_POOL_SIZE pool and
        // 8-byte aligned; the pool is freshly zeroed and not yet shared.
        unsafe {
            (pool.at(HDR_MAGIC) as *mut u64).write(MAGIC);
            (pool.at(HDR_SIZE) as *mut u64).write(self.pool_size as u64);
            (pool.at(HDR_MODE) as *mut u64).write(self.mode as u64);
            (pool.at(HDR_BUMP) as *mut u64).write(DATA_START);
        }
        // Persist the header directly: `create` calls this before the pool
        // is registered (and while holding the registry lock), so the global
        // address-based `persist::persist` would neither find the pool nor
        // be safe to call here.
        pool.persist_range(0, DATA_START as usize);
        persist::fence();
    }

    /// Rebuilds volatile state from the persistent header after a remount.
    pub(crate) fn remount(&self, pool: &PmemPool) {
        // SAFETY: header was formatted at create; offsets in bounds, aligned.
        let (magic, bump) = unsafe {
            (
                (pool.at(HDR_MAGIC) as *const u64).read(),
                (pool.at(HDR_BUMP) as *const AtomicU64)
                    .as_ref()
                    .expect("non-null")
                    .load(Ordering::Relaxed),
            )
        };
        assert_eq!(magic, MAGIC, "remounted pool has no valid header");
        // A Transient-mode header still says `DATA_START`: the cursor rewinds
        // below bytes this process wrote, which the extent must keep covering.
        self.note_touched(self.bump.load(Ordering::Relaxed));
        self.bump.store(bump.max(DATA_START), Ordering::Release);
        for fl in &self.freelists {
            fl.lock().clear();
        }
        self.large_free.lock().clear();
    }

    /// Pool this allocator serves.
    pub fn pool_id(&self) -> PoolId {
        self.pool_id
    }

    /// Current crash-consistency mode.
    pub fn mode(&self) -> AllocMode {
        self.mode
    }

    /// Bytes of data space ever bump-allocated (high-water mark).
    pub fn high_water(&self) -> u64 {
        self.bump.load(Ordering::Relaxed) - DATA_START
    }

    /// End of the pool prefix that may hold non-zero bytes: the highest
    /// value the bump cursor has ever reached in this process, rounded up to
    /// a cache line. Monotone — a remount that rewinds the cursor does not
    /// lower it. No block beyond it was ever handed out, so every image of
    /// the pool is all-zero from here on and whole-pool copies stop here.
    pub(crate) fn touched_extent(&self) -> u64 {
        let cursor = self.bump.load(Ordering::Relaxed);
        let reached = cursor.max(self.touched.load(Ordering::Relaxed));
        // Clamped first: a remount takes the cursor from the header of
        // whatever image was loaded (the pool size is itself a multiple of
        // the line size).
        reached
            .min(self.pool_size as u64)
            .next_multiple_of(crate::CACHE_LINE as u64)
    }

    /// Raises the touched extent to cover `[0, end)`.
    pub(crate) fn note_touched(&self, end: u64) {
        self.touched.fetch_max(end, Ordering::Relaxed);
    }

    fn header_bump(&self) -> &AtomicU64 {
        let base = crate::pool::base_of(self.pool_id);
        debug_assert!(!base.is_null());
        // SAFETY: HDR_BUMP is in bounds and 8-byte aligned in every pool.
        unsafe { &*(base.add(HDR_BUMP as usize) as *const AtomicU64) }
    }

    fn log_entry(&self, slot: usize) -> &LogEntry {
        debug_assert!(slot < LOG_SLOTS);
        let base = crate::pool::base_of(self.pool_id);
        debug_assert!(!base.is_null());
        // SAFETY: the log area is in bounds and entries are 8-byte aligned.
        unsafe {
            &*(base.add((LOG_BASE + slot as u64 * LOG_ENTRY_SIZE) as usize) as *const LogEntry)
        }
    }

    /// Returns the persistent root slot `idx` (an 8-byte cell applications
    /// use to store their top-level persistent pointers).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= ROOT_SLOTS`.
    pub fn root(&self, idx: usize) -> &AtomicU64 {
        assert!(idx < ROOT_SLOTS);
        let base = crate::pool::base_of(self.pool_id);
        assert!(!base.is_null(), "pool unregistered");
        // SAFETY: the root directory is in bounds and 8-byte aligned.
        unsafe { &*(base.add((ROOT_DIR + idx as u64 * 8) as usize) as *const AtomicU64) }
    }

    /// Carves `size` bytes off the cursor at the next multiple of
    /// [`align_of`]`(size)`; the padding skipped is never handed out. The
    /// cursor only moves to the end of a block that fits.
    fn bump_alloc(&self, size: usize) -> Result<u64> {
        let align = align_of(size);
        let size = size.next_multiple_of(8) as u64;
        let off = self
            .bump
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.next_multiple_of(align) + size).filter(|&end| end <= self.pool_size as u64)
            })
            .map_err(|_| PmemError::OutOfMemory)?
            .next_multiple_of(align);
        if self.mode == AllocMode::CrashConsistent {
            // The cursor must be durable before the block is used, otherwise
            // a crash could hand the same bytes out twice.
            let hdr = self.header_bump();
            hdr.fetch_max(off + size, Ordering::Relaxed);
            persist::persist_obj_fenced(hdr);
        }
        Ok(off)
    }

    /// Allocates `size` bytes: XPLine-aligned from one XPLine up, else
    /// aligned to its 32-, 64- or 128-byte class.
    ///
    /// Prefer [`malloc_to`](Self::malloc_to) when the result will be linked
    /// into a persistent structure — plain `alloc` offers no leak protection
    /// across crashes.
    pub fn alloc(&self, size: usize) -> Result<PmPtr<u8>> {
        if size == 0 {
            return Err(PmemError::InvalidAllocation(size));
        }
        let t0 = Instant::now();
        let off = match class_of(size) {
            Some(cls) => {
                let reused = self.freelists[cls].lock().pop();
                match reused {
                    Some(off) => off,
                    None => self.bump_alloc(class_size(cls))?,
                }
            }
            None => {
                let reused = {
                    let mut lf = self.large_free.lock();
                    lf.iter()
                        .position(|&(_, s)| s >= size)
                        .map(|i| lf.swap_remove(i).0)
                };
                match reused {
                    Some(off) => off,
                    None => self.bump_alloc(size)?,
                }
            }
        };
        if self.mode == AllocMode::CrashConsistent {
            // PMDK-style heap-metadata consistency cost: pmemobj_alloc's
            // undo/redo logging performs several flush+fence pairs per
            // allocation (six per alloc/free pair, §GS1).
            let base = crate::pool::base_of(self.pool_id);
            // SAFETY: header line 0 is always in bounds.
            for _ in 0..3 {
                persist::persist(base, 8);
                persist::fence();
            }
        }
        let stats_scope = |s: &stats::PoolStats| {
            let s = s.local();
            s.allocs.fetch_add(1, Ordering::Relaxed);
            s.alloc_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        };
        stats_scope(stats::global());
        stats_scope(crate::pool::stats_of(self.pool_id));
        #[cfg(feature = "trace")]
        crate::trace::on_alloc(self.pool_id, off, size as u64);
        Ok(PmPtr::new(self.pool_id, off))
    }

    /// Crash-consistent allocate-and-link (the paper's *malloc-to*, §5.1(3)
    /// and §5.6): allocates `size` bytes, calls `init` on the uninitialized
    /// block, persists it, then atomically and persistently stores the new
    /// pointer into `*dest`.
    ///
    /// If a crash happens anywhere in between, [`recover_logs`](Self::recover_logs)
    /// frees the block, so persistent memory can never leak.
    pub fn malloc_to(
        &self,
        size: usize,
        dest: &AtomicU64,
        init: impl FnOnce(*mut u8),
    ) -> Result<PmPtr<u8>> {
        let slot = my_slot();
        let entry = self.log_entry(slot);
        let logging = self.mode == AllocMode::CrashConsistent;
        if logging {
            let (dpool, doff) = crate::pool::lookup_addr(dest as *const AtomicU64 as *const u8)
                .ok_or(PmemError::Corruption("malloc_to destination not in a pool"))?;
            entry
                .dest
                .store(PmPtr::<u8>::new(dpool, doff).raw(), Ordering::Relaxed);
            entry.size.store(size as u64, Ordering::Relaxed);
            entry.ptr.store(0, Ordering::Relaxed);
            persist::persist_obj_fenced(entry);
        }
        let ptr = self.alloc(size)?;
        if logging {
            entry.ptr.store(ptr.raw(), Ordering::Relaxed);
            persist::persist_obj_fenced(entry);
        }
        init(ptr.as_mut_ptr());
        persist::persist(ptr.as_ptr(), size);
        persist::fence();
        dest.store(ptr.raw(), Ordering::Release);
        persist::persist_obj_fenced(dest);
        if logging {
            entry.dest.store(0, Ordering::Relaxed);
            entry.ptr.store(0, Ordering::Relaxed);
            persist::persist_obj_fenced(entry);
        }
        Ok(ptr)
    }

    /// Returns `size` bytes at `ptr` to the allocator.
    ///
    /// # Safety contract (not enforced)
    ///
    /// `ptr`/`size` must describe a block previously returned by this
    /// allocator with the same size request.
    pub fn free(&self, ptr: PmPtr<u8>, size: usize) {
        debug_assert_eq!(ptr.pool_id(), self.pool_id);
        debug_assert!(!ptr.is_null());
        let t0 = Instant::now();
        let cls = class_of(size);
        // Another size would file the block in the wrong list (overlaps later).
        debug_assert!(
            ptr.offset()
                .is_multiple_of(align_of(cls.map_or(size, class_size))),
            "free({size}) of offset {:#x}, which no block of that size starts at",
            ptr.offset()
        );
        match cls {
            Some(cls) => self.freelists[cls].lock().push(ptr.offset()),
            None => self.large_free.lock().push((ptr.offset(), size)),
        }
        if self.mode == AllocMode::CrashConsistent {
            // Free-side heap-metadata logging cost.
            let base = crate::pool::base_of(self.pool_id);
            persist::persist(base, 8);
            persist::fence();
            persist::persist(base, 8);
            persist::fence();
        }
        let stats_scope = |s: &stats::PoolStats| {
            let s = s.local();
            s.frees.fetch_add(1, Ordering::Relaxed);
            s.alloc_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        };
        stats_scope(stats::global());
        stats_scope(crate::pool::stats_of(self.pool_id));
        #[cfg(feature = "trace")]
        crate::trace::on_free(self.pool_id, ptr.offset(), size as u64);
    }

    /// Replays pending allocation-log entries after a crash, freeing every
    /// block that was allocated but never linked to its destination.
    ///
    /// Returns the number of orphaned blocks reclaimed.
    pub fn recover_logs(&self) -> usize {
        let mut reclaimed = 0;
        for slot in 0..LOG_SLOTS {
            let entry = self.log_entry(slot);
            let ptr_raw = entry.ptr.load(Ordering::Relaxed);
            let dest_raw = entry.dest.load(Ordering::Relaxed);
            if dest_raw == 0 && ptr_raw == 0 {
                continue;
            }
            if ptr_raw != 0 {
                let ptr = PmPtr::<u8>::from_raw(ptr_raw);
                let dest = PmPtr::<AtomicU64>::from_raw(dest_raw);
                // The destination may live in a *different* pool, and that
                // pool may have been destroyed (or never remounted) by the
                // time recovery runs; dereferencing it would fault. Resolve
                // it defensively and treat an unreachable destination as
                // not-linked, which reclaims the block.
                let linked = dest_cell_resolvable(dest)
                    // SAFETY: resolvable ⇒ the cell is an in-bounds, 8-byte
                    // aligned word of a registered pool; recovery runs
                    // single-threaded after a crash.
                    && unsafe { dest.deref() }.load(Ordering::Relaxed) == ptr_raw;
                if !linked {
                    self.free(ptr, entry.size.load(Ordering::Relaxed) as usize);
                    reclaimed += 1;
                }
            }
            entry.dest.store(0, Ordering::Relaxed);
            entry.ptr.store(0, Ordering::Relaxed);
            entry.size.store(0, Ordering::Relaxed);
            persist::persist_obj(entry);
        }
        persist::fence();
        reclaimed
    }
}

/// Whether a logged `malloc_to` destination can be dereferenced: non-null,
/// its pool is currently registered, and the 8-byte cell is in bounds.
fn dest_cell_resolvable(dest: PmPtr<AtomicU64>) -> bool {
    if dest.is_null() {
        return false;
    }
    if crate::pool::base_of(dest.pool_id()).is_null() {
        return false;
    }
    crate::pool::pool_by_id(dest.pool_id())
        .is_some_and(|p| dest.offset() + 8 <= p.size() as u64 && dest.offset().is_multiple_of(8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{destroy_pool, PmemPool, PoolConfig};

    #[test]
    fn alloc_free_reuse() {
        let pool = PmemPool::create(PoolConfig::volatile("t-alloc", 1 << 20)).unwrap();
        let a = pool.allocator().alloc(100).unwrap();
        let b = pool.allocator().alloc(100).unwrap();
        assert_ne!(a, b);
        assert!(a.offset() >= DATA_START);
        pool.allocator().free(a, 100);
        let c = pool.allocator().alloc(100).unwrap();
        assert_eq!(a, c, "freed block is reused");
        destroy_pool(pool.id());
    }

    #[test]
    fn concurrent_random_blocks_are_disjoint_and_aligned() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let pool = PmemPool::create(PoolConfig::volatile("t-alloc-rand", 256 << 20)).unwrap();
        let (id, alloc) = (pool.id(), pool.allocator());
        let mut blocks: Vec<(u64, usize)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(t);
                        let mut mine: Vec<(u64, usize)> = Vec::new();
                        for _ in 0..3000 {
                            if !mine.is_empty() && rng.gen_bool(0.45) {
                                let (off, size) = mine.swap_remove(rng.gen_range(0..mine.len()));
                                alloc.free(PmPtr::new(id, off), size);
                                continue;
                            }
                            // Every class and the large path (> 16 KiB).
                            let size =
                                (rng.gen_range(1..40_000usize) >> rng.gen_range(0..12u32)).max(1);
                            let off = alloc.alloc(size).unwrap().offset();
                            let align = if size > 128 {
                                XPLINE
                            } else {
                                size.next_power_of_two().max(32)
                            };
                            assert!(off.is_multiple_of(align as u64), "{size} B at {off:#x}");
                            mine.push((off, size));
                        }
                        mine
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        blocks.sort();
        assert!(blocks.len() > 1000);
        for w in blocks.windows(2) {
            assert!(w[0].0 + w[0].1 as u64 <= w[1].0, "blocks overlap: {w:?}");
        }
        destroy_pool(id);
    }

    #[test]
    fn classes_are_pow2_below_an_xpline_and_whole_xplines_above() {
        let sizes: Vec<usize> = (0..CLASS_COUNT).map(class_size).collect();
        assert_eq!(sizes[..4], [32, 64, 128, 256]);
        assert_eq!(*sizes.last().unwrap(), MAX_CLASS_SIZE);
        assert!(sizes[3..].windows(2).all(|w| w[1] - w[0] == XPLINE));
        for size in 1..=MAX_CLASS_SIZE + 1 {
            let fit = class_of(size).map(class_size);
            let tight = sizes.iter().copied().find(|&c| c >= size);
            assert_eq!(fit, tight, "class of {size} bytes");
        }
    }

    #[test]
    fn padding_is_counted_and_a_failed_bump_moves_nothing() {
        let pool = PmemPool::create(PoolConfig::volatile("t-alloc-pad", 1 << 20)).unwrap();
        let alloc = pool.allocator();
        assert_eq!(alloc.alloc(40).unwrap().offset(), DATA_START);
        let big = alloc.alloc(300).unwrap();
        assert_eq!(big.offset(), DATA_START + XPLINE as u64, "XPLine-aligned");
        // 64 + 192 padding + 512 (two XPLines for 300 bytes).
        assert_eq!(alloc.high_water(), 3 * XPLINE as u64);
        assert!(alloc.alloc(1 << 20).is_err());
        assert_eq!(alloc.high_water(), 3 * XPLINE as u64);
        destroy_pool(pool.id());
    }

    #[test]
    fn zero_size_rejected() {
        let pool = PmemPool::create(PoolConfig::volatile("t-alloc-zero", 1 << 20)).unwrap();
        assert!(matches!(
            pool.allocator().alloc(0),
            Err(PmemError::InvalidAllocation(0))
        ));
        destroy_pool(pool.id());
    }

    #[test]
    fn out_of_memory_reported() {
        let pool = PmemPool::create(PoolConfig::volatile("t-alloc-oom", 1 << 20)).unwrap();
        // The pool has ~1 MiB of data space; a 2 MiB request must fail.
        assert!(matches!(
            pool.allocator().alloc(2 << 20),
            Err(PmemError::OutOfMemory)
        ));
        destroy_pool(pool.id());
    }

    #[test]
    fn malloc_to_links_and_survives_crash() {
        let pool = PmemPool::create(PoolConfig::durable("t-mto", 1 << 20)).unwrap();
        let dest = pool.allocator().root(0);
        let p = pool
            .allocator()
            .malloc_to(64, dest, |raw| {
                // SAFETY: 64 freshly allocated bytes.
                unsafe { raw.write_bytes(0x7E, 64) };
            })
            .unwrap();
        assert_eq!(dest.load(Ordering::Relaxed), p.raw());
        pool.simulate_crash(false);
        let linked = PmPtr::<u8>::from_raw(pool.allocator().root(0).load(Ordering::Relaxed));
        assert_eq!(linked, p);
        // SAFETY: block persisted by malloc_to before linking.
        unsafe { assert_eq!(*linked.as_ptr(), 0x7E) };
        assert_eq!(pool.allocator().recover_logs(), 0);
        destroy_pool(pool.id());
    }

    #[test]
    fn recovery_frees_unlinked_block() {
        let pool = PmemPool::create(PoolConfig::durable("t-mto-leak", 1 << 20)).unwrap();
        let alloc = pool.allocator();
        // Simulate the crash window: log written and block allocated, but the
        // destination store never persisted.
        let dest = alloc.root(1);
        let slot = my_slot();
        let entry = alloc.log_entry(slot);
        let (dpool, doff) =
            crate::pool::lookup_addr(dest as *const AtomicU64 as *const u8).unwrap();
        entry
            .dest
            .store(PmPtr::<u8>::new(dpool, doff).raw(), Ordering::Relaxed);
        entry.size.store(64, Ordering::Relaxed);
        let block = alloc.alloc(64).unwrap();
        entry.ptr.store(block.raw(), Ordering::Relaxed);
        persist::persist_obj_fenced(entry);
        pool.simulate_crash(false);

        let freed = alloc.recover_logs();
        assert_eq!(freed, 1, "orphaned block reclaimed");
        // The reclaimed block is reusable.
        let again = alloc.alloc(64).unwrap();
        assert_eq!(again, block);
        destroy_pool(pool.id());
    }

    #[test]
    fn bump_cursor_durable_in_cc_mode() {
        let pool = PmemPool::create(PoolConfig::durable("t-bump", 1 << 20)).unwrap();
        let a = pool.allocator().alloc(64).unwrap();
        pool.simulate_crash(false);
        // After remount the cursor must not hand out `a` again.
        let b = pool.allocator().alloc(64).unwrap();
        assert_ne!(a, b);
        assert!(b.offset() > a.offset());
        destroy_pool(pool.id());
    }

    #[test]
    fn transient_mode_skips_flushes() {
        let pool = PmemPool::create(
            PoolConfig::volatile("t-transient", 1 << 20).with_alloc_mode(AllocMode::Transient),
        )
        .unwrap();
        crate::model::set_config(crate::model::NvmModelConfig::accounting());
        let before = pool.stats().snapshot();
        let _ = pool.allocator().alloc(64).unwrap();
        let d = pool.stats().snapshot().since(&before);
        crate::model::set_config(crate::model::NvmModelConfig::disabled());
        assert_eq!(d.flushes, 0, "transient alloc must not flush");
        destroy_pool(pool.id());
    }
}
