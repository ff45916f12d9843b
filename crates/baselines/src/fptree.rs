//! FPTree: a DRAM-NVM hybrid B+tree baseline (SIGMOD'16, PACTree §2.2.1).
//!
//! Reproduced traits:
//!
//! * **DRAM internal nodes** — reconstructable, so only leaves live in NVM
//!   (fast, but rebuilt at every restart; the recovery cost GC2 mentions).
//! * **Fingerprinted unsorted NVM leaves** — one-byte hashes filter key
//!   comparisons; scans must sort and filter each leaf (FPTree's Figure 13
//!   scan tail-latency problem).
//! * **HTM concurrency** — every operation runs as a simulated hardware
//!   transaction ([`crate::htm`]); capacity aborts grow with data-set size
//!   and thread count, and the global-lock fallback serializes everything
//!   (Figure 6).
//! * **Integer keys only** — like the authors' binary used in the paper.
//!
//! Splits happen synchronously in the critical path (GC2's critique), under
//! an inner-structure write lock inside the transaction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use pactree::lock::VersionLock;
use parking_lot::{RwLock, RwLockReadGuard};
use pmem::handle::{Node, WithPool};
use pmem::persist;
use pmem::pool::{self, PmemPool, PoolConfig};
use pmem::{AllocMode, PmemError, Ref, Result};

use crate::htm::{Conflict, Htm};

/// Key-value slots per NVM leaf.
pub const FP_LEAF_CAP: usize = 32;

/// An NVM leaf: version lock, validity bitmap, fingerprints, unsorted pairs.
#[repr(C)]
struct FpLeaf {
    lock: VersionLock,
    bitmap: AtomicU64,
    next: AtomicU64,
    fingerprints: [AtomicU8; FP_LEAF_CAP],
    entries: [[AtomicU64; 2]; FP_LEAF_CAP],
}

// SAFETY: a link — the head cell, a leaf's `next`, a value of the DRAM
// inner map — holds 0 or a leaf `alloc_leaf` wrote and persisted before it
// was stored there. Leaves are never freed (no merges), and every field is
// an atomic.
unsafe impl Node for FpLeaf {
    type Freed = WithPool;
}

const LEAF_SIZE: usize = std::mem::size_of::<FpLeaf>();

#[inline]
fn fp_of(key: u64) -> u8 {
    pactree::key::fingerprint_of(&key.to_be_bytes())
}

impl FpLeaf {
    fn live(&self) -> u64 {
        self.bitmap.load(Ordering::Acquire)
    }

    fn find(&self, key: u64) -> Option<usize> {
        // The same compiled-in fingerprint kernel PACTree's data
        // nodes use (32-slot variant), so the baseline comparison stays
        // honest. Candidates are key-verified; callers hold the leaf lock
        // or validate its version afterwards.
        let fp = fp_of(key);
        let mut candidates =
            u64::from(pactree::simd::fingerprint_match32(&self.fingerprints, fp)) & self.live();
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            if self.entries[i][0].load(Ordering::Acquire) == key {
                return Some(i);
            }
        }
        None
    }

    fn free_slot(&self) -> Option<usize> {
        let bm = self.live();
        (0..FP_LEAF_CAP).find(|i| bm & (1 << i) == 0)
    }

    /// Upserts under the leaf lock, requiring a free slot: existing keys get
    /// the FPTree out-of-place update (new slot + atomic bitmap swap); new
    /// keys get a plain slot insert. Returns the previous value.
    fn upsert(&self, key: u64, value: u64) -> Option<u64> {
        let slot = self.free_slot().expect("caller guarantees a free slot");
        if let Some(i) = self.find(key) {
            let old = self.entries[i][1].load(Ordering::Acquire);
            self.entries[slot][0].store(key, Ordering::Relaxed);
            self.entries[slot][1].store(value, Ordering::Relaxed);
            self.fingerprints[slot].store(fp_of(key), Ordering::Release);
            persist::persist(self.entries[slot].as_ptr() as *const u8, 16);
            persist::persist_obj(&self.fingerprints[slot]);
            persist::fence();
            let bm = self.bitmap.load(Ordering::Acquire);
            self.bitmap
                .store((bm & !(1 << i)) | (1 << slot), Ordering::Release);
            persist::persist_obj_fenced(&self.bitmap);
            Some(old)
        } else {
            self.insert_at(slot, key, value);
            None
        }
    }

    /// Writes and publishes a pair (caller holds the leaf lock).
    fn insert_at(&self, slot: usize, key: u64, value: u64) {
        self.entries[slot][0].store(key, Ordering::Relaxed);
        self.entries[slot][1].store(value, Ordering::Relaxed);
        self.fingerprints[slot].store(fp_of(key), Ordering::Release);
        persist::persist(self.entries[slot].as_ptr() as *const u8, 16);
        persist::persist_obj(&self.fingerprints[slot]);
        persist::fence();
        self.bitmap.fetch_or(1 << slot, Ordering::AcqRel);
        persist::persist_obj_fenced(&self.bitmap);
    }
}

/// The DRAM inner structure: separator (a leaf's lower bound) → link to the
/// leaf.
type InnerMap = BTreeMap<u64, AtomicU64>;

/// The read-locked inner structure and the leaf it located.
type Locked<'a> = std::result::Result<(RwLockReadGuard<'a, InnerMap>, Ref<'a, FpLeaf>), Conflict>;

/// The FPTree (integer keys only).
pub struct FpTree {
    pool: Arc<PmemPool>,
    /// The HTM facility (stats feed Figure 6).
    pub htm: Htm,
    /// DRAM inner structure.
    inner: RwLock<InnerMap>,
    approx_len: AtomicUsize,
}

impl FpTree {
    /// Creates an FPTree in a fresh pool; `crash_sim` keeps a media image
    /// (dual-image NVM emulation) so the tree can be crash-tested and
    /// recovered. The head leaf's root cell is persisted either way, so
    /// [`recover`](Self::recover) finds the chain after any restart.
    pub fn create(name: &str, pool_size: usize, crash_sim: bool) -> Result<Arc<FpTree>> {
        let pool = PmemPool::create(PoolConfig {
            name: name.to_string(),
            size: pool_size,
            numa_node: pmem::numa::current_node(),
            crash_sim,
            alloc_mode: AllocMode::CrashConsistent,
        })?;
        let tree = FpTree {
            htm: Htm::new(),
            inner: RwLock::new(BTreeMap::new()),
            approx_len: AtomicUsize::new(0),
            pool,
        };
        let head = tree.alloc_leaf(&[], None)?;
        tree.inner.write().insert(0, AtomicU64::new(head));
        tree.pool.allocator().root(0).store(head, Ordering::Release);
        persist::persist_obj_fenced(tree.pool.allocator().root(0));
        Ok(Arc::new(tree))
    }

    /// Reattaches to an existing pool after a restart, rebuilding the DRAM
    /// inner structure by walking the persistent leaf chain — the startup
    /// cost the PACTree paper's GC2 discussion attributes to DRAM-hybrid
    /// indexes ("the internal nodes have to be rebuilt at every startup").
    pub fn recover(name: &str) -> Result<Arc<FpTree>> {
        pactree::lock::bump_global_generation();
        let pool =
            pool::pool_by_name(name).ok_or_else(|| PmemError::PoolNotFound(name.to_string()))?;
        pool.allocator().recover_logs();
        let tree = FpTree {
            htm: Htm::new(),
            inner: RwLock::new(BTreeMap::new()),
            approx_len: AtomicUsize::new(0),
            pool,
        };
        let chain = tree.chain();
        tree.complete_torn_splits(&chain);
        {
            let mut inner = tree.inner.write();
            let mut total = 0usize;
            for (pos, leaf) in chain.iter().enumerate() {
                // Separator = the smallest live key (head keeps separator 0).
                let mut min_key = u64::MAX;
                let bm = leaf.live();
                for i in 0..FP_LEAF_CAP {
                    if bm & (1 << i) != 0 {
                        min_key = min_key.min(leaf.entries[i][0].load(Ordering::Acquire));
                        total += 1;
                    }
                }
                let sep = if pos == 0 { 0 } else { min_key };
                if sep != u64::MAX || pos == 0 {
                    inner.insert(sep, AtomicU64::new(leaf.raw()));
                }
            }
            tree.approx_len.store(total, Ordering::Relaxed);
        }
        Ok(Arc::new(tree))
    }

    /// Completes splits a crash tore in half (FPTree's µlog recovery duty).
    ///
    /// A split persists the new leaf, links it via `next`, and only then
    /// clears the moved slots from the old leaf's bitmap — three separately
    /// fenced steps. A crash between the link and the bitmap clear leaves
    /// the moved keys live in *both* leaves, which breaks scan order and
    /// duplicates lookups. The chain invariant is that every key in a leaf
    /// is smaller than every live key downstream, so walking the chain from
    /// the tail with a running suffix-minimum and clearing any slot at or
    /// above it finishes exactly the interrupted splits (the downstream
    /// copy is the split's destination and carries the newest value) and is
    /// a no-op on a consistent chain.
    fn complete_torn_splits(&self, chain: &[Ref<'_, FpLeaf>]) {
        let mut suffix_min = u64::MAX;
        for leaf in chain.iter().rev() {
            let bm = leaf.live();
            let mut stale = 0u64;
            // Slots within one leaf are unsorted peers: compare them only
            // against the *downstream* minimum, never against each other.
            let mut my_min = u64::MAX;
            for i in 0..FP_LEAF_CAP {
                if bm & (1 << i) != 0 {
                    let k = leaf.entries[i][0].load(Ordering::Acquire);
                    if k >= suffix_min {
                        stale |= 1 << i;
                    } else {
                        my_min = my_min.min(k);
                    }
                }
            }
            if stale != 0 {
                leaf.bitmap.store(bm & !stale, Ordering::Release);
                persist::persist_obj_fenced(&leaf.bitmap);
            }
            suffix_min = suffix_min.min(my_min);
        }
    }

    /// The backing pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Unregisters the backing pool.
    pub fn destroy(self: Arc<Self>) {
        let id = self.pool.id();
        drop(self);
        pool::destroy_pool(id);
    }

    /// The persistent leaf chain, head first.
    fn chain(&self) -> Vec<Ref<'_, FpLeaf>> {
        let mut chain = Vec::new();
        let mut next = Ref::<FpLeaf>::load_in(self.pool.allocator().root(0), &self.pool);
        while let Some(leaf) = next {
            chain.push(leaf);
            next = Ref::load_in(&leaf.next, &self.pool);
        }
        chain
    }

    /// Allocates a leaf and returns its raw pointer, persisted once: empty,
    /// or, for a split, which passes the leaf's `next` link, holding the
    /// `(key, value, slot)` pairs it `moved` and the link. Nothing can reach
    /// the leaf before this returns, so it needs no flush while still empty.
    fn alloc_leaf(&self, moved: &[(u64, u64, usize)], next: Option<u64>) -> Result<u64> {
        let ptr = self.pool.allocator().alloc(LEAF_SIZE)?;
        // SAFETY: fresh LEAF_SIZE allocation, ours alone until it is linked;
        // zero is a valid initial state except the lock, which needs the
        // current generation.
        let leaf = unsafe {
            ptr.as_mut_ptr().write_bytes(0, LEAF_SIZE);
            let leaf = &mut *(ptr.as_mut_ptr() as *mut FpLeaf);
            leaf.lock = VersionLock::new();
            &*leaf
        };
        if let Some(next) = next {
            for (j, &(k, v, _)) in moved.iter().enumerate() {
                leaf.entries[j][0].store(k, Ordering::Relaxed);
                leaf.entries[j][1].store(v, Ordering::Relaxed);
                leaf.fingerprints[j].store(fp_of(k), Ordering::Relaxed);
            }
            leaf.bitmap
                .store((1u64 << moved.len()) - 1, Ordering::Release);
            leaf.next.store(next, Ordering::Release);
        }
        persist::persist(ptr.as_ptr(), LEAF_SIZE);
        persist::fence();
        Ok(ptr.raw())
    }

    /// Estimated transaction footprint in bytes: inner-path cache lines plus
    /// leaf plus cold-miss amplification growing with the data-set size
    /// (calibrated so Figure 6's 10M-vs-64M shapes reproduce).
    fn footprint(&self) -> usize {
        let len = self.approx_len.load(Ordering::Relaxed).max(1);
        1024 + (180.0 * (len as f64).cbrt()) as usize
    }

    /// Read-locks the DRAM inner structure — waiting in the fallback
    /// path, conflicting inside a transaction — and locates `key`'s leaf.
    fn read_locate(&self, in_fallback: bool, key: u64) -> Locked<'_> {
        let inner = if in_fallback {
            self.inner.read()
        } else {
            self.inner.try_read().ok_or(Conflict)?
        };
        let leaf = self.locate(&inner, key);
        Ok((inner, leaf))
    }

    /// Floor lookup in the DRAM inner structure.
    fn locate(&self, map: &InnerMap, key: u64) -> Ref<'_, FpLeaf> {
        let (_, link) = map
            .range(..=key)
            .next_back()
            .expect("separator 0 always present");
        Ref::load_in(link, &self.pool).expect("the inner map links every leaf")
    }

    /// Point lookup.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.htm.run(self.footprint(), |in_fallback| {
            let (_inner, leaf) = self.read_locate(in_fallback, key)?;
            leaf.charge_read(192);
            let token = leaf.lock.read_begin().ok_or(Conflict)?;
            let res = leaf
                .find(key)
                .map(|i| leaf.entries[i][1].load(Ordering::Acquire));
            if !leaf.lock.read_validate(token) {
                return Err(Conflict);
            }
            Ok(res)
        })
    }

    /// Inserts or updates; returns the previous value if present.
    pub fn insert(&self, key: u64, value: u64) -> Result<Option<u64>> {
        // Fast path: room in the leaf, upsert under the leaf lock.
        let fast: Option<Option<u64>> = self.htm.run(self.footprint(), |in_fallback| {
            let (_inner, leaf) = self.read_locate(in_fallback, key)?;
            let g = leaf.lock.try_write_lock().ok_or(Conflict)?;
            let res = if leaf.free_slot().is_some() {
                Some(leaf.upsert(key, value))
            } else {
                None // full: take the split path
            };
            drop(g);
            Ok(res)
        });
        if let Some(old) = fast {
            if old.is_none() {
                self.approx_len.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(old);
        }

        // Split path: synchronous split in the critical path (GC2).
        let old = self.htm.run(self.footprint() * 2, |in_fallback| {
            let mut inner = if in_fallback {
                self.inner.write()
            } else {
                self.inner.try_write().ok_or(Conflict)?
            };
            let leaf = self.locate(&inner, key);
            let g = leaf.lock.try_write_lock().ok_or(Conflict)?;
            if leaf.free_slot().is_some() {
                // Raced: space appeared via a concurrent split.
                let old = leaf.upsert(key, value);
                drop(g);
                return Ok(old);
            }
            // Split: move the upper half to a new leaf.
            let mut pairs: Vec<(u64, u64, usize)> = Vec::with_capacity(FP_LEAF_CAP);
            for i in 0..FP_LEAF_CAP {
                if leaf.live() & (1 << i) != 0 {
                    pairs.push((
                        leaf.entries[i][0].load(Ordering::Acquire),
                        leaf.entries[i][1].load(Ordering::Acquire),
                        i,
                    ));
                }
            }
            pairs.sort_unstable();
            let mid = pairs.len() / 2;
            let sep = pairs[mid].0;
            let next = leaf.next.load(Ordering::Acquire);
            let new_raw = self
                .alloc_leaf(&pairs[mid..], Some(next))
                .map_err(|_| Conflict)?;
            leaf.next.store(new_raw, Ordering::Release);
            persist::persist_obj_fenced(&leaf.next);
            let new_leaf = Ref::<FpLeaf>::load_in(&leaf.next, &self.pool).expect("just linked");
            let clear: u64 = pairs[mid..].iter().map(|&(_, _, i)| 1u64 << i).sum();
            let bm = leaf.bitmap.load(Ordering::Acquire);
            leaf.bitmap.store(bm & !clear, Ordering::Release);
            persist::persist_obj_fenced(&leaf.bitmap);
            inner.insert(sep, AtomicU64::new(new_raw));
            // Upsert the pending key into the correct half.
            let old = if key >= sep {
                let ng = new_leaf.lock.try_write_lock().ok_or(Conflict)?;
                let old = new_leaf.upsert(key, value);
                drop(ng);
                old
            } else {
                leaf.upsert(key, value)
            };
            drop(g);
            Ok(old)
        });
        if old.is_none() {
            self.approx_len.fetch_add(1, Ordering::Relaxed);
        }
        Ok(old)
    }

    /// Removes `key`; returns its value if present.
    pub fn remove(&self, key: u64) -> Result<Option<u64>> {
        let res = self.htm.run(self.footprint(), |in_fallback| {
            let (_inner, leaf) = self.read_locate(in_fallback, key)?;
            let g = leaf.lock.try_write_lock().ok_or(Conflict)?;
            let res = leaf.find(key).map(|i| {
                let old = leaf.entries[i][1].load(Ordering::Acquire);
                leaf.bitmap.fetch_and(!(1 << i), Ordering::AcqRel);
                persist::persist_obj_fenced(&leaf.bitmap);
                old
            });
            drop(g);
            Ok(res)
        });
        if res.is_some() {
            self.approx_len.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(res)
    }

    /// Ordered scan: walks the leaf chain, sorting and filtering each leaf
    /// (FPTree's scan overhead, Figure 13).
    pub fn scan(&self, start: u64, count: usize) -> Vec<(u64, u64)> {
        self.htm
            .run(self.footprint() + count.min(65_536) * 16, |in_fallback| {
                let (inner, leaf) = self.read_locate(in_fallback, start)?;
                drop(inner);
                let mut next = Some(leaf);
                let mut out: Vec<(u64, u64)> = Vec::with_capacity(count.min(4096));
                while let Some(leaf) = next {
                    leaf.charge_read(LEAF_SIZE);
                    let token = leaf.lock.read_begin().ok_or(Conflict)?;
                    let mut page: Vec<(u64, u64)> = Vec::new();
                    let bm = leaf.live();
                    for i in 0..FP_LEAF_CAP {
                        if bm & (1 << i) != 0 {
                            let k = leaf.entries[i][0].load(Ordering::Acquire);
                            if k >= start {
                                page.push((k, leaf.entries[i][1].load(Ordering::Acquire)));
                            }
                        }
                    }
                    next = Ref::load_in(&leaf.next, &self.pool);
                    if !leaf.lock.read_validate(token) {
                        return Err(Conflict);
                    }
                    page.sort_unstable();
                    for p in page {
                        out.push(p);
                        if out.len() >= count {
                            return Ok(out);
                        }
                    }
                }
                Ok(out)
            })
    }

    /// Live pairs — O(n), tests only.
    pub fn len(&self) -> usize {
        self.scan(0, usize::MAX >> 1).len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn crud_model_check() {
        let t = FpTree::create("fp-crud", 256 << 20, false).unwrap();
        let mut model = BTreeMap::new();
        let mut x = 3u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let k = x % 8000;
            let old = t.insert(k, i).unwrap();
            assert_eq!(old, model.insert(k, i), "insert {k}");
        }
        for (&k, &v) in &model {
            assert_eq!(t.lookup(k), Some(v), "lookup {k}");
        }
        assert_eq!(t.len(), model.len());
        t.destroy();
    }

    #[test]
    fn scan_sorted_across_leaves() {
        let t = FpTree::create("fp-scan", 128 << 20, false).unwrap();
        for i in (0..2000u64).rev() {
            t.insert(i * 2, i).unwrap();
        }
        let got: Vec<u64> = t.scan(100, 10).iter().map(|&(k, _)| k).collect();
        assert_eq!(got, (50..60).map(|i| i * 2).collect::<Vec<_>>());
        t.destroy();
    }

    #[test]
    fn removals() {
        let t = FpTree::create("fp-del", 128 << 20, false).unwrap();
        for i in 0..1000u64 {
            t.insert(i, i).unwrap();
        }
        for i in (0..1000u64).step_by(2) {
            assert_eq!(t.remove(i).unwrap(), Some(i));
        }
        for i in 0..1000u64 {
            assert_eq!(t.lookup(i), (i % 2 == 1).then_some(i));
        }
        t.destroy();
    }

    #[test]
    fn concurrent_mixed() {
        let t = FpTree::create("fp-conc", 256 << 20, false).unwrap();
        for i in 0..2000u64 {
            t.insert(i, i).unwrap();
        }
        let mut handles = Vec::new();
        for tid in 0..6u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let k = 10_000 + tid * 100_000 + i;
                    t.insert(k, k).unwrap();
                    assert_eq!(t.lookup(k), Some(k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..2000u64 {
            assert_eq!(t.lookup(i), Some(i));
        }
        assert_eq!(t.len(), 2000 + 6 * 2000);
        // HTM stats were collected.
        assert!(t.htm.stats.transactions.load(Ordering::Relaxed) > 0);
        t.destroy();
    }
}
