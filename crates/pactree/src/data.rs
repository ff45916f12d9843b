//! The PACTree data layer: slotted data nodes (paper §5.2, Figure 8).
//!
//! The data layer is a doubly linked list of fixed-size *data nodes*, each
//! holding up to 64 unsorted key-value pairs plus:
//!
//! * an **anchor key** — the smallest key of the node when it was created;
//!   immutable for the node's lifetime (splits move the upper half out);
//! * an 8-byte **validity bitmap** — the single-atomic-store linearization
//!   point for every insert/update/delete (§5.5);
//! * a **fingerprint array** (one byte per slot) filtering full key
//!   comparisons on lookup;
//! * a **permutation array** giving sorted order for scans — deliberately
//!   *not* persisted (§4.4 selective persistence): it is rebuilt on demand
//!   and versioned against the node's lock;
//! * an optimistic persistent **version lock** (§5.7) and sibling pointers.
//!
//! Keys up to 32 bytes are stored inline (one 48-byte slot); longer keys
//! spill to an out-of-node allocation, matching the paper's variable-length
//! key handling.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use pmem::persist;
use pmem::pool::PmemPool;
use pmem::pptr::PmPtr;
use pmem::Result;

use crate::key::fingerprint_of;
use crate::lock::VersionLock;
use crate::simd;

/// Key-value slots per data node (64 so the bitmap is one atomic word and
/// the fingerprint/permutation arrays are exactly one cache line, §5.2).
pub const NODE_SLOTS: usize = 64;

/// A delete that leaves `live(node) + live(right) <= MERGE_THRESHOLD`
/// triggers a merge (half the key-array capacity, §5.6).
pub const MERGE_THRESHOLD: usize = 32;

/// Key bytes stored inline in a slot.
pub const INLINE_KEY: usize = 32;

/// 8-byte words per slot: `[klen, value, key0..key3]`.
const ENTRY_WORDS: usize = 6;

/// Packed permutation metadata: `(version << 16) | (count << 8) | valid`.
#[inline]
fn pack_perm_meta(version: u32, count: u8) -> u64 {
    ((version as u64) << 16) | ((count as u64) << 8) | 1
}

#[inline]
fn unpack_perm_meta(m: u64) -> Option<(u32, u8)> {
    if m & 1 == 0 {
        return None;
    }
    Some(((m >> 16) as u32, (m >> 8) as u8))
}

/// One data node. Allocated from a data-layer pool; the total size fits the
/// 4 KiB allocator class.
#[repr(C)]
pub struct DataNode {
    /// Optimistic persistent version lock (§5.7).
    pub lock: VersionLock,
    /// Validity bitmap: bit i set ⇔ slot i holds a live pair. The single
    /// atomic linearization point of all common-case writes (§5.5).
    pub bitmap: AtomicU64,
    /// Right sibling (raw `PmPtr`), 0 at the tail.
    pub next: AtomicU64,
    /// Left sibling (raw `PmPtr`), 0 at the head.
    pub prev: AtomicU64,
    /// Logical-deletion mark set by merges (§5.6).
    pub deleted: AtomicU64,
    /// Anchor key length.
    anchor_len: u32,
    _pad0: u32,
    /// Anchor bytes (inline part).
    anchor_inline: [u8; INLINE_KEY],
    /// Overflow allocation for anchors longer than [`INLINE_KEY`].
    anchor_overflow: AtomicU64,
    /// Permutation metadata (version + count + valid bit); *not* persisted.
    perm_meta: AtomicU64,
    /// Fingerprints, one byte per slot (exactly one cache line).
    pub fingerprints: [AtomicU8; NODE_SLOTS],
    /// Permutation array: slot indices in sorted key order; *not* persisted.
    perm: [AtomicU8; NODE_SLOTS],
    /// MVCC era stamp: the version-counter value current when this node's
    /// live state last changed under a live snapshot; *never* persisted
    /// (snapshots are process-lifetime objects — see `mvcc_effective_ver`
    /// for why stale post-crash values are harmless).
    mvcc_ver: AtomicU64,
    /// Process generation that wrote `mvcc_ver` (see
    /// [`crate::lock::global_generation`]); guards against stale stamps
    /// surviving a crash via adjacent-cache-line flushes.
    mvcc_gen: AtomicU64,
    /// Key-value slots.
    entries: [[AtomicU64; ENTRY_WORDS]; NODE_SLOTS],
}

/// Bytes to allocate for a data node.
pub const DATA_NODE_SIZE: usize = std::mem::size_of::<DataNode>();

/// A slot's decoded key-value pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pair {
    pub key: Vec<u8>,
    pub value: u64,
}

impl DataNode {
    /// Initializes a fresh node in place.
    ///
    /// Long anchors allocate their overflow from `pool`. The node starts
    /// *write-locked* when `locked` is set (splits hand the new node to the
    /// world only after they finish, §5.6).
    ///
    /// # Safety
    ///
    /// `raw` must be an exclusive, 8-byte-aligned allocation of at least
    /// [`DATA_NODE_SIZE`] bytes.
    pub unsafe fn init(raw: *mut u8, anchor: &[u8], pool: &PmemPool, locked: bool) -> Result<()> {
        // SAFETY: exclusive fresh allocation per caller contract; zero is a
        // valid initial bit pattern for the whole struct.
        unsafe {
            raw.write_bytes(0, DATA_NODE_SIZE);
            let node = &mut *(raw as *mut DataNode);
            node.lock = VersionLock::new();
            if locked {
                let guard = node.lock.try_write_lock().expect("fresh lock is free");
                // Released explicitly via `unlock_initial` when the split
                // completes.
                std::mem::forget(guard);
            }
            node.anchor_len = anchor.len() as u32;
            if anchor.len() <= INLINE_KEY {
                node.anchor_inline[..anchor.len()].copy_from_slice(anchor);
            } else {
                node.anchor_inline.copy_from_slice(&anchor[..INLINE_KEY]);
                let ov = pool.allocator().alloc(anchor.len())?;
                std::ptr::copy_nonoverlapping(anchor.as_ptr(), ov.as_mut_ptr(), anchor.len());
                persist::persist(ov.as_ptr(), anchor.len());
                node.anchor_overflow = AtomicU64::new(ov.raw());
            }
        }
        Ok(())
    }

    /// Releases the construction-time lock taken by [`init`](Self::init)
    /// with `locked = true`.
    pub fn unlock_initial(&self) {
        debug_assert!(self.lock.is_locked());
        self.lock.force_unlock();
    }

    /// The node's anchor key.
    pub fn anchor(&self) -> Vec<u8> {
        let len = self.anchor_len as usize;
        if len <= INLINE_KEY {
            self.anchor_inline[..len].to_vec()
        } else {
            let ov = PmPtr::<u8>::from_raw(self.anchor_overflow.load(Ordering::Acquire));
            debug_assert!(!ov.is_null());
            // SAFETY: overflow block of `len` bytes written during init;
            // anchors are immutable.
            unsafe { std::slice::from_raw_parts(ov.as_ptr(), len) }.to_vec()
        }
    }

    /// Whether `key` is below this node's anchor (i.e. left of its range).
    pub fn key_below_anchor(&self, key: &[u8]) -> bool {
        let len = self.anchor_len as usize;
        if len <= INLINE_KEY {
            key < &self.anchor_inline[..len]
        } else {
            key < self.anchor().as_slice()
        }
    }

    /// Whether `key` is at or above this node's anchor.
    pub fn key_in_or_after(&self, key: &[u8]) -> bool {
        !self.key_below_anchor(key)
    }

    /// Number of live pairs.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.bitmap.load(Ordering::Acquire).count_ones() as usize
    }

    /// Lowest free slot index, if any.
    #[inline]
    pub fn free_slot(&self) -> Option<usize> {
        let bm = self.bitmap.load(Ordering::Acquire);
        if bm == u64::MAX {
            None
        } else {
            Some(bm.trailing_ones() as usize)
        }
    }

    // -- Slot access --------------------------------------------------------

    /// Reads a slot's key into `buf`. All loads are atomic (seqlock
    /// discipline: optimistic readers validate the node version afterwards).
    pub fn read_key(&self, slot: usize, buf: &mut Vec<u8>) {
        buf.clear();
        let words = &self.entries[slot];
        let klen = words[0].load(Ordering::Acquire) as usize;
        if klen <= INLINE_KEY {
            for w in 0..4 {
                let v = words[2 + w].load(Ordering::Acquire).to_le_bytes();
                buf.extend_from_slice(&v);
            }
            buf.truncate(klen);
        } else {
            let ov = PmPtr::<u8>::from_raw(words[2].load(Ordering::Acquire));
            if ov.is_null() {
                return; // torn read; version validation will catch it
            }
            // SAFETY: overflow blocks are immutable once the slot is
            // published, and epoch protection prevents reuse under readers.
            buf.extend_from_slice(unsafe { std::slice::from_raw_parts(ov.as_ptr(), klen) });
        }
    }

    /// Whether a slot's key equals `key` (atomic reads, caller validates).
    fn key_eq(&self, slot: usize, key: &[u8]) -> bool {
        let words = &self.entries[slot];
        let klen = words[0].load(Ordering::Acquire) as usize;
        if klen != key.len() {
            return false;
        }
        if klen <= INLINE_KEY {
            let mut padded = [0u8; INLINE_KEY];
            padded[..klen].copy_from_slice(key);
            for w in 0..4 {
                let want = u64::from_le_bytes(padded[w * 8..w * 8 + 8].try_into().unwrap());
                if words[2 + w].load(Ordering::Acquire) != want {
                    return false;
                }
            }
            true
        } else {
            let ov = PmPtr::<u8>::from_raw(words[2].load(Ordering::Acquire));
            if ov.is_null() {
                return false;
            }
            // SAFETY: see `read_key`.
            let stored = unsafe { std::slice::from_raw_parts(ov.as_ptr(), klen) };
            stored == key
        }
    }

    /// A slot's value word.
    #[inline]
    pub fn value_at(&self, slot: usize) -> u64 {
        self.entries[slot][1].load(Ordering::Acquire)
    }

    /// Decodes one slot into an owned pair.
    pub fn pair_at(&self, slot: usize) -> Pair {
        let mut key = Vec::new();
        self.read_key(slot, &mut key);
        Pair {
            key,
            value: self.value_at(slot),
        }
    }

    /// Finds the live slot holding `key`, fingerprint-filtered (§5.3).
    pub fn find(&self, key: &[u8]) -> Option<usize> {
        self.find_counting(key).0
    }

    /// [`find`](Self::find) plus the number of fingerprint *false hits*:
    /// candidate slots whose fingerprint matched but whose full key did not
    /// (probe-quality signal for the `fp.false_hit_ratio` gauge).
    pub fn find_counting(&self, key: &[u8]) -> (Option<usize>, u32) {
        let fp = fingerprint_of(key);
        let bm = self.bitmap.load(Ordering::Acquire);
        let mut candidates = fingerprint_matches(&self.fingerprints, fp) & bm;
        let mut false_hits = 0u32;
        while candidates != 0 {
            let slot = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            if self.key_eq(slot, key) {
                return (Some(slot), false_hits);
            }
            false_hits += 1;
        }
        (None, false_hits)
    }

    /// Writes `key`/`value` into a free slot and persists the payload and
    /// fingerprint; the caller publishes via [`publish`](Self::publish).
    /// Long keys allocate overflow from `pool`.
    ///
    /// Requires the node's write lock.
    pub fn write_slot(&self, slot: usize, key: &[u8], value: u64, pool: &PmemPool) -> Result<()> {
        debug_assert_eq!(self.bitmap.load(Ordering::Relaxed) & (1 << slot), 0);
        let words = &self.entries[slot];
        if key.len() <= INLINE_KEY {
            let mut padded = [0u8; INLINE_KEY];
            padded[..key.len()].copy_from_slice(key);
            for w in 0..4 {
                words[2 + w].store(
                    u64::from_le_bytes(padded[w * 8..w * 8 + 8].try_into().unwrap()),
                    Ordering::Relaxed,
                );
            }
        } else {
            let ov = pool.allocator().alloc(key.len())?;
            // SAFETY: fresh allocation of `key.len()` bytes.
            unsafe {
                std::ptr::copy_nonoverlapping(key.as_ptr(), ov.as_mut_ptr(), key.len());
            }
            persist::persist(ov.as_ptr(), key.len());
            words[2].store(ov.raw(), Ordering::Relaxed);
        }
        words[1].store(value, Ordering::Relaxed);
        words[0].store(key.len() as u64, Ordering::Release);
        self.fingerprints[slot].store(fingerprint_of(key), Ordering::Release);
        persist::persist(words.as_ptr() as *const u8, ENTRY_WORDS * 8);
        persist::persist_obj(&self.fingerprints[slot]);
        Ok(())
    }

    /// Copies an already-published slot of `src` into a free slot of `self`
    /// (split/merge data movement; overflow ownership transfers with the
    /// pointer).
    ///
    /// Requires write locks on (or exclusivity over) both nodes.
    pub fn copy_slot_from(&self, slot: usize, src: &DataNode, src_slot: usize) {
        self.store_slot_from(slot, src, src_slot);
        persist::persist(self.entries[slot].as_ptr() as *const u8, ENTRY_WORDS * 8);
        persist::persist_obj(&self.fingerprints[slot]);
    }

    /// The stores of [`copy_slot_from`](Self::copy_slot_from), unflushed.
    fn store_slot_from(&self, slot: usize, src: &DataNode, src_slot: usize) {
        let d = &self.entries[slot];
        let s = &src.entries[src_slot];
        for w in 0..ENTRY_WORDS {
            d[w].store(s[w].load(Ordering::Acquire), Ordering::Relaxed);
        }
        self.fingerprints[slot].store(
            src.fingerprints[src_slot].load(Ordering::Acquire),
            Ordering::Release,
        );
    }

    /// Fills slots `0..src_slots.len()` of a node *under construction* with
    /// copies of `src`'s slots and marks them live — plain stores, nothing
    /// flushed: the node is not reachable yet, and the `malloc_to` building
    /// it persists and fences the whole allocation before the store that
    /// links it, which is the one flush these lines need (a split's right
    /// half, §5.6). Copying into a live node must use
    /// [`copy_slot_from`](Self::copy_slot_from) instead.
    pub fn adopt_slots(&self, src: &DataNode, src_slots: &[usize]) {
        for (i, &src_slot) in src_slots.iter().enumerate() {
            self.store_slot_from(i, src, src_slot);
        }
        let mask = (1u64 << src_slots.len()) - 1;
        self.bitmap.store(mask, Ordering::Release);
    }

    /// Publishes slot changes with one atomic bitmap store + persist: sets
    /// the bits of `set`, clears the bits of `clear` (the §5.5 linearization
    /// point). Requires the node's write lock.
    pub fn publish(&self, set: u64, clear: u64) {
        persist::fence();
        let bm = self.bitmap.load(Ordering::Acquire);
        self.bitmap.store((bm & !clear) | set, Ordering::Release);
        persist::persist_obj_fenced(&self.bitmap);
    }

    /// Returns a cleared slot's overflow key allocation, if any (callers
    /// defer the free through the epoch collector).
    pub fn overflow_of(&self, slot: usize) -> Option<(PmPtr<u8>, usize)> {
        let words = &self.entries[slot];
        let klen = words[0].load(Ordering::Acquire) as usize;
        if klen > INLINE_KEY {
            let ov = PmPtr::<u8>::from_raw(words[2].load(Ordering::Acquire));
            (!ov.is_null()).then_some((ov, klen))
        } else {
            None
        }
    }

    // -- Permutation array (§5.4) -------------------------------------------

    /// Returns slots in sorted key order, using the cached permutation array
    /// when its version matches `lock_version` and rebuilding it otherwise.
    ///
    /// The permutation array is volatile data living in NVM: it is never
    /// persisted (selective persistence, §4.4) unless `persist_perm` is set
    /// (the Figure 12 factor-analysis ablation flips this).
    pub fn sorted_slots(&self, lock_version: u32, persist_perm: bool) -> Vec<usize> {
        // Cached fast path, seqlock-style: the meta word must be valid with
        // the right version both before and after reading the slot bytes, so
        // a concurrent (possibly stale) rebuilder can never hand us mixed
        // content.
        let m1 = self.perm_meta.load(Ordering::Acquire);
        if let Some((ver, count)) = unpack_perm_meta(m1) {
            if ver == lock_version {
                let mut out = Vec::with_capacity(count as usize);
                for i in 0..count as usize {
                    out.push(self.perm[i].load(Ordering::Acquire) as usize);
                }
                if self.perm_meta.load(Ordering::Acquire) == m1 {
                    return out;
                }
            }
        }
        // Rebuild: invalidate, write, publish. The caller always gets the
        // locally computed order, so even a lost publish race is harmless.
        let order = self.sorted_live_slots();
        self.perm_meta.store(0, Ordering::Release);
        for (i, slot) in order.iter().enumerate() {
            self.perm[i].store(*slot as u8, Ordering::Relaxed);
        }
        self.perm_meta.store(
            pack_perm_meta(lock_version, order.len() as u8),
            Ordering::Release,
        );
        if persist_perm {
            persist::persist(self.perm.as_ptr() as *const u8, NODE_SLOTS);
            persist::persist_obj_fenced(&self.perm_meta);
        }
        order
    }

    // -- MVCC era stamps (see `crate::mvcc`) --------------------------------

    /// The version era this node's live state has been current since, or 0
    /// ("since the beginning") when the stamp was written by a previous
    /// process incarnation. The fields are never deliberately persisted, but
    /// a crash can leak them to media via adjacent-line flushes; the
    /// generation check makes any such leak read as 0, which is correct
    /// because snapshots never survive the process that created them.
    #[inline]
    pub fn mvcc_effective_ver(&self) -> u64 {
        if self.mvcc_gen.load(Ordering::Acquire) != u64::from(crate::lock::global_generation()) {
            return 0;
        }
        self.mvcc_ver.load(Ordering::Acquire)
    }

    /// Stamps the node as "live state current since era `ver`". Requires the
    /// node's write lock (or construction-time exclusivity).
    #[inline]
    pub fn mvcc_stamp(&self, ver: u64) {
        self.mvcc_gen.store(
            u64::from(crate::lock::global_generation()),
            Ordering::Release,
        );
        self.mvcc_ver.store(ver, Ordering::Release);
    }

    /// Live `(key, value)` pairs in sorted key order, fully materialized
    /// (MVCC freeze capture; the caller holds the lock or is inside a
    /// validated seqlock read).
    pub fn sorted_pairs_owned(&self) -> Vec<(Vec<u8>, u64)> {
        self.sorted_pairs_raw()
            .into_iter()
            .map(|(k, slot)| {
                let v = self.value_at(slot);
                (k, v)
            })
            .collect()
    }

    /// Live `(key, slot)` pairs in sorted order (recovery and MVCC capture;
    /// the caller holds the lock or has exclusivity).
    pub fn sorted_pairs_raw(&self) -> Vec<(Vec<u8>, usize)> {
        let mut buf = Vec::new();
        self.sorted_live_slots()
            .into_iter()
            .map(|slot| {
                self.read_key(slot, &mut buf);
                (buf.clone(), slot)
            })
            .collect()
    }

    /// Live slots in sorted key order (split, permutation rebuild; the
    /// caller holds the lock or is inside a validated seqlock read).
    ///
    /// When every live key is inline, the sort runs on SIMD-gathered
    /// byte-swapped key words ([`simd::Kernels::key_rank`]) and no key is
    /// materialized: inline keys are stored zero-padded as little-endian
    /// words, so (bswap word 2, …, bswap word 5, klen) compares exactly
    /// like the raw bytes — a shorter key that is a prefix pads with zeros,
    /// which only the klen tie-break can order. Any overflow key falls back
    /// to the materialize-and-sort path.
    pub fn sorted_live_slots(&self) -> Vec<usize> {
        let bm = self.bitmap.load(Ordering::Acquire);
        let mut slots = [0u8; NODE_SLOTS];
        let mut lens = [0u64; NODE_SLOTS];
        let mut n = 0usize;
        let mut all_inline = true;
        let mut bits = bm;
        while bits != 0 {
            let slot = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            slots[n] = slot as u8;
            lens[n] = self.entries[slot][0].load(Ordering::Acquire);
            all_inline &= lens[n] as usize <= INLINE_KEY;
            n += 1;
        }
        if all_inline {
            let kernels = simd::active();
            let base = self.entries.as_ptr() as *const u8;
            let mut ranks = [[0u64; NODE_SLOTS]; 4];
            for (w, rank) in ranks.iter_mut().enumerate() {
                // SAFETY: `base` spans NODE_SLOTS aligned ENTRY_WORDS-u64
                // entries and every slot id is < NODE_SLOTS, so each
                // addressed word is in bounds; this method requires the
                // lock (or exclusivity), satisfying the tearing contract.
                unsafe {
                    kernels.key_rank(base, ENTRY_WORDS * 8, (2 + w) * 8, &slots[..n], rank);
                }
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&i| {
                (ranks[0][i], ranks[1][i], ranks[2][i], ranks[3][i], lens[i])
            });
            for i in order.iter_mut() {
                *i = slots[*i] as usize;
            }
            return order;
        }
        let mut keyed = Vec::with_capacity(n);
        let mut buf = Vec::new();
        for &slot in &slots[..n] {
            self.read_key(slot as usize, &mut buf);
            keyed.push((buf.clone(), slot as usize));
        }
        keyed.sort();
        keyed.into_iter().map(|(_, slot)| slot).collect()
    }
}

/// Fingerprint matcher: returns a 64-bit mask of slots whose fingerprint
/// byte equals `fp` — the paper's single AVX512 comparison over the 64-byte
/// fingerprint array (§5.2), served by the runtime-dispatched
/// [`crate::simd`] kernels (SSE2/AVX2/NEON, SWAR fallback).
#[inline]
pub fn fingerprint_matches(fps: &[AtomicU8; NODE_SLOTS], fp: u8) -> u64 {
    crate::simd::fingerprint_match64(fps, fp)
}

/// Dereferences a raw data-node pointer.
///
/// # Safety
///
/// `raw` must point to an initialized `DataNode` that outlives the returned
/// reference (epoch protection or exclusivity).
#[inline]
pub unsafe fn node_ref<'a>(raw: u64) -> &'a DataNode {
    debug_assert_ne!(raw, 0);
    // SAFETY: per caller contract.
    unsafe { &*(PmPtr::<DataNode>::from_raw(raw).as_ptr()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::pool::{destroy_pool, PoolConfig};
    use std::sync::Arc;

    fn mk_node(name: &str) -> (Arc<PmemPool>, u64) {
        let pool = PmemPool::create(PoolConfig::volatile(name, 16 << 20)).unwrap();
        let ptr = pool.allocator().alloc(DATA_NODE_SIZE).unwrap();
        // SAFETY: fresh allocation of DATA_NODE_SIZE bytes.
        unsafe { DataNode::init(ptr.as_mut_ptr(), b"anchor", &pool, false).unwrap() };
        (pool, ptr.raw())
    }

    #[test]
    fn node_size_fits_allocator_class() {
        const {
            assert!(DATA_NODE_SIZE <= 4096, "node too big for allocator class");
            assert!(DATA_NODE_SIZE >= 3000, "node unexpectedly small");
        }
    }

    #[test]
    fn insert_find_roundtrip() {
        let (pool, raw) = mk_node("dn-basic");
        // SAFETY: node just initialized; pool alive.
        let node = unsafe { node_ref(raw) };
        let g = node.lock.write_lock();
        let slot = node.free_slot().unwrap();
        node.write_slot(slot, b"hello", 42, &pool).unwrap();
        node.publish(1 << slot, 0);
        drop(g);
        assert_eq!(node.find(b"hello"), Some(slot));
        assert_eq!(node.value_at(slot), 42);
        assert_eq!(node.find(b"world"), None);
        assert_eq!(node.live_count(), 1);
        destroy_pool(pool.id());
    }

    #[test]
    fn fills_to_capacity() {
        let (pool, raw) = mk_node("dn-full");
        // SAFETY: initialized node.
        let node = unsafe { node_ref(raw) };
        let _g = node.lock.write_lock();
        for i in 0..NODE_SLOTS {
            let slot = node.free_slot().expect("has space");
            node.write_slot(slot, &(i as u64).to_be_bytes(), i as u64, &pool)
                .unwrap();
            node.publish(1 << slot, 0);
        }
        assert_eq!(node.free_slot(), None);
        assert_eq!(node.live_count(), NODE_SLOTS);
        for i in 0..NODE_SLOTS {
            let s = node.find(&(i as u64).to_be_bytes()).unwrap();
            assert_eq!(node.value_at(s), i as u64);
        }
        destroy_pool(pool.id());
    }

    #[test]
    fn update_swaps_slots_atomically() {
        let (pool, raw) = mk_node("dn-update");
        // SAFETY: initialized node.
        let node = unsafe { node_ref(raw) };
        let _g = node.lock.write_lock();
        node.write_slot(0, b"k", 1, &pool).unwrap();
        node.publish(1, 0);
        // Update protocol (§5.5): write the new pair to a free slot, then
        // flip both bits in one atomic store.
        node.write_slot(1, b"k", 2, &pool).unwrap();
        node.publish(1 << 1, 1);
        assert_eq!(node.find(b"k"), Some(1));
        assert_eq!(node.value_at(1), 2);
        assert_eq!(node.live_count(), 1);
        destroy_pool(pool.id());
    }

    #[test]
    fn long_keys_overflow() {
        let (pool, raw) = mk_node("dn-longkey");
        // SAFETY: initialized node.
        let node = unsafe { node_ref(raw) };
        let _g = node.lock.write_lock();
        let long_key = vec![9u8; 200];
        node.write_slot(0, &long_key, 7, &pool).unwrap();
        node.publish(1, 0);
        assert_eq!(node.find(&long_key), Some(0));
        assert_eq!(node.pair_at(0).key, long_key);
        assert!(node.overflow_of(0).is_some());
        let mut other = long_key.clone();
        other[199] = 8;
        assert_eq!(node.find(&other), None);
        destroy_pool(pool.id());
    }

    #[test]
    fn long_anchor_overflow() {
        let pool = PmemPool::create(PoolConfig::volatile("dn-longanchor", 16 << 20)).unwrap();
        let ptr = pool.allocator().alloc(DATA_NODE_SIZE).unwrap();
        let anchor = vec![3u8; 100];
        // SAFETY: fresh allocation.
        unsafe { DataNode::init(ptr.as_mut_ptr(), &anchor, &pool, false).unwrap() };
        // SAFETY: initialized node.
        let node = unsafe { node_ref(ptr.raw()) };
        assert_eq!(node.anchor(), anchor);
        assert!(!node.key_below_anchor(&anchor));
        let mut below = anchor.clone();
        below[99] = 2;
        assert!(node.key_below_anchor(&below));
        destroy_pool(pool.id());
    }

    #[test]
    fn init_locked_for_splits() {
        let pool = PmemPool::create(PoolConfig::volatile("dn-locked", 16 << 20)).unwrap();
        let ptr = pool.allocator().alloc(DATA_NODE_SIZE).unwrap();
        // SAFETY: fresh allocation.
        unsafe { DataNode::init(ptr.as_mut_ptr(), b"a", &pool, true).unwrap() };
        // SAFETY: initialized node.
        let node = unsafe { node_ref(ptr.raw()) };
        assert!(node.lock.is_locked());
        node.unlock_initial();
        assert!(!node.lock.is_locked());
        destroy_pool(pool.id());
    }

    #[test]
    fn fingerprint_swar_matches_scalar() {
        let (pool, raw) = mk_node("dn-swar");
        // SAFETY: initialized node.
        let node = unsafe { node_ref(raw) };
        for i in 0..NODE_SLOTS {
            node.fingerprints[i].store((i % 7) as u8 * 3, Ordering::Relaxed);
        }
        for fp in 0..32u8 {
            let mask = fingerprint_matches(&node.fingerprints, fp);
            for i in 0..NODE_SLOTS {
                let expect = node.fingerprints[i].load(Ordering::Relaxed) == fp;
                assert_eq!(mask & (1 << i) != 0, expect, "fp {fp} slot {i}");
            }
        }
        destroy_pool(pool.id());
    }

    #[test]
    fn sorted_slots_and_caching() {
        let (pool, raw) = mk_node("dn-perm");
        // SAFETY: initialized node.
        let node = unsafe { node_ref(raw) };
        let g = node.lock.write_lock();
        for (i, k) in [b"delta", b"alpha", b"gamma", b"bravo"].iter().enumerate() {
            node.write_slot(i, *k, i as u64, &pool).unwrap();
            node.publish(1 << i, 0);
        }
        drop(g);
        let v = node.lock.version();
        let order = node.sorted_slots(v, false);
        let keys: Vec<Vec<u8>> = order.iter().map(|&s| node.pair_at(s).key).collect();
        assert_eq!(
            keys,
            vec![
                b"alpha".to_vec(),
                b"bravo".to_vec(),
                b"delta".to_vec(),
                b"gamma".to_vec()
            ]
        );
        // Cached path returns the same order.
        assert_eq!(node.sorted_slots(v, false), order);
        // A write invalidates the cache (version moves on).
        let g = node.lock.write_lock();
        node.write_slot(4, b"aaaa", 9, &pool).unwrap();
        node.publish(1 << 4, 0);
        drop(g);
        let v2 = node.lock.version();
        assert_ne!(v2, v);
        let order2 = node.sorted_slots(v2, false);
        assert_eq!(order2.len(), 5);
        assert_eq!(node.pair_at(order2[0]).key, b"aaaa".to_vec());
        destroy_pool(pool.id());
    }

    // Differential check of the SIMD-ranked sorted-slot build against the
    // naive materialize-and-sort: random distinct keys of mixed lengths,
    // covering the all-inline fast path (≤ 32 bytes) and the overflow
    // fallback (> 32 bytes) in the same sweep.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        #[test]
        fn sorted_pairs_raw_matches_naive_sort(
            keys in proptest::collection::btree_set(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 1..40),
                1..NODE_SLOTS,
            ),
        ) {
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let name = format!("dn-sortprop-{}", CASE.fetch_add(1, Ordering::Relaxed));
            let (pool, raw) = mk_node(&name);
            // SAFETY: initialized node.
            let node = unsafe { node_ref(raw) };
            {
                let _g = node.lock.write_lock();
                for (i, k) in keys.iter().enumerate() {
                    node.write_slot(i, k, i as u64, &pool).unwrap();
                    node.publish(1 << i, 0);
                }
                let got = node.sorted_pairs_raw();
                let mut want: Vec<(Vec<u8>, usize)> =
                    keys.iter().enumerate().map(|(i, k)| (k.clone(), i)).collect();
                want.sort();
                proptest::prop_assert_eq!(&got, &want);
            }
            destroy_pool(pool.id());
        }
    }

    #[test]
    fn publish_set_and_clear_is_one_store() {
        let (pool, raw) = mk_node("dn-pub");
        // SAFETY: initialized node.
        let node = unsafe { node_ref(raw) };
        let _g = node.lock.write_lock();
        node.write_slot(0, b"a", 1, &pool).unwrap();
        node.publish(1, 0);
        node.write_slot(1, b"b", 2, &pool).unwrap();
        node.publish(0b10, 0b01);
        assert_eq!(node.bitmap.load(Ordering::Relaxed), 0b10);
        destroy_pool(pool.id());
    }
}
