//! The PACTree data layer: slotted data nodes (paper §5.2, Figure 8).
//!
//! The data layer is a doubly linked list of *data nodes*, each holding up
//! to 64 unsorted key-value pairs plus:
//!
//! * an **anchor key** — the smallest key of the node when it was created;
//!   immutable for the node's lifetime (splits move the upper half out);
//! * an 8-byte **validity bitmap** — the single-atomic-store linearization
//!   point for every insert and delete (§5.5); an update of an existing key
//!   linearizes at the atomic store of its slot's value word instead
//!   ([`DataNode::store_value`]);
//! * a **fingerprint array** (one byte per slot) filtering full key
//!   comparisons on lookup;
//! * a **key-length array** (one `u16` per slot, its top bit marking a
//!   spilled key);
//! * a **permutation array** giving sorted order for scans — deliberately
//!   *not* persisted (§4.4 selective persistence): it is rebuilt on demand
//!   and versioned against the node's lock;
//! * an optimistic persistent **version lock** (§5.7) and sibling pointers.
//!
//! The header is six cache lines (384 bytes): the lock, bitmap, links and
//! metadata; the fingerprints; two lines of key lengths; the permutation;
//! the anchor bytes and MVCC stamps. So the bitmap, fingerprints and key
//! lengths a lookup probes share the node's first XPLine, and the slots
//! start on a cache line.
//!
//! Each slot is `[value, key words…]`. A node's header records how many key
//! words its slots hold, its *width*, 1 to [`MAX_KEY_WORDS`]: a node of
//! width `w` has `(1 + w) × 8`-byte slots and takes [`node_size`]`(w)` bytes
//! (1408, 1920, 2432 or 2944). It also records an immutable *prefix length*
//! `p`: every key the node's range can hold starts with its anchor's first
//! `p` bytes, so a slot stores only `key[p..]`. A key whose remaining bytes
//! fit `8 × width` is stored inline; a longer one spills whole to an
//! out-of-node allocation, matching the paper's variable-length key
//! handling, and its length entry carries a spill flag.
//!
//! Width and prefix are per node. The head is born undecided (width 0,
//! prefix 0) and its first key fixes its width ([`key_words_for`] its
//! length); a split's new node takes [`DataNode::split_shape`]. Most nodes of
//! a million 23-byte keys so hold 16-byte suffixes (width 2), while 8-byte
//! keys keep width 1 and no prefix everywhere.

use std::sync::atomic::{AtomicU16, AtomicU64, AtomicU8, Ordering};

use pmem::handle::{ByEpoch, Node};
use pmem::persist;
use pmem::pool::{self, PmemPool};
use pmem::pptr::PmPtr;
use pmem::{PmemError, Ref, Result};

use crate::key::fingerprint_of;
use crate::lock::VersionLock;

/// Key-value slots per data node (64 so the bitmap is one atomic word, the
/// fingerprint and permutation arrays one cache line each, and the key
/// lengths two, §5.2).
pub const NODE_SLOTS: usize = 64;

/// A delete that leaves `live(node) + live(right) <= MERGE_THRESHOLD`
/// triggers a merge (half the key-array capacity, §5.6).
pub const MERGE_THRESHOLD: usize = 32;

/// Key words per slot of the widest node (keys up to 32 bytes inline). The
/// head node, allocated before its first key picks its width, is allocated
/// at this width.
pub const MAX_KEY_WORDS: usize = 4;

/// The width a node whose first key is `len` bytes long takes: the key's
/// word count, at least 1 and at most [`MAX_KEY_WORDS`] (a longer first key
/// spills, like any key longer than its node's width).
pub fn key_words_for(len: usize) -> usize {
    len.div_ceil(8).clamp(1, MAX_KEY_WORDS)
}

/// Anchor bytes stored inline in the header.
const INLINE_ANCHOR: usize = 32;

/// Top bit of a `klens` entry: the slot's key is spilled, and its first key
/// word points at a block holding the whole key. Keys are at most
/// `SPILLED - 1` bytes long.
const SPILLED: u16 = 1 << 15;

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

/// One data node: this 384-byte header, followed in the same allocation by
/// [`NODE_SLOTS`] slots of `1 + key_words` words, `key_words` being the
/// node's own width of 1 to [`MAX_KEY_WORDS`] (see [`node_size`]). Aligned to a
/// cache line, which the allocator's XPLine-aligned node classes satisfy.
#[repr(C, align(64))]
pub(crate) struct DataNode {
    // Line 0.
    /// Optimistic persistent version lock (§5.7).
    pub lock: VersionLock,
    /// Validity bitmap: bit i set ⇔ slot i holds a live pair. The single
    /// atomic linearization point of inserts and deletes (§5.5).
    pub bitmap: AtomicU64,
    /// Right sibling (raw `PmPtr`), 0 at the tail.
    pub next: AtomicU64,
    /// Left sibling (raw `PmPtr`), 0 at the head.
    pub prev: AtomicU64,
    /// Logical-deletion mark set by merges (§5.6).
    pub deleted: AtomicU64,
    /// Anchor key length.
    anchor_len: u32,
    /// Key words per slot, 1 to [`MAX_KEY_WORDS`], or 0 while the head node
    /// holds no key yet. Set once, persisted.
    key_words: AtomicU16,
    /// Leading anchor bytes every key of the node shares and no slot stores.
    /// Set at init, persisted with the node; 0 on the head.
    prefix_len: u16,
    /// Overflow allocation for anchors longer than [`INLINE_ANCHOR`].
    anchor_overflow: AtomicU64,
    /// Permutation metadata (version + count + valid bit); *not* persisted.
    perm_meta: AtomicU64,
    /// Line 1: fingerprints, one byte per slot.
    pub fingerprints: [AtomicU8; NODE_SLOTS],
    /// Lines 2–3: each slot's full key length, or'ed with [`SPILLED`] when
    /// the key lives in an overflow block. Persisted with the slot; a rewrite
    /// of the same entry leaves it (and its line) untouched.
    klens: [AtomicU16; NODE_SLOTS],
    /// Line 4: slot indices in sorted key order; *not* persisted.
    perm: [AtomicU8; NODE_SLOTS],
    /// Line 5: anchor bytes (inline part).
    anchor_inline: [u8; INLINE_ANCHOR],
    /// MVCC era stamp: the version-counter value current when this node's
    /// live state last changed under a live snapshot; *never* persisted
    /// (snapshots are process-lifetime objects — see `mvcc_effective_ver`
    /// for why stale post-crash values are harmless).
    mvcc_ver: AtomicU64,
    /// Process generation that wrote `mvcc_ver` (see
    /// [`crate::lock::global_generation`]); guards against stale stamps
    /// surviving a crash via adjacent-cache-line flushes.
    mvcc_gen: AtomicU64,
}

/// Bytes of a data node whose slots hold `key_words` key words: 1408, 1920,
/// 2432 or 2944 for widths 1 to 4, which the data pool's allocator serves
/// from its 1536-, 2048-, 2560- and 3072-byte classes (6, 8, 10 and 12
/// XPLines). Each node has its own width (see [`DataNode::split_shape`]);
/// the head node, born before its width is known, is allocated at
/// [`MAX_KEY_WORDS`].
pub const fn node_size(key_words: usize) -> usize {
    std::mem::size_of::<DataNode>() + NODE_SLOTS * (1 + key_words) * 8
}

/// An inline key suffix's encoding: its bytes zero-padded to
/// [`MAX_KEY_WORDS`] little-endian words, of which a node stores its first
/// `key_words`. `suffix` is at most `8 × MAX_KEY_WORDS` bytes.
#[inline]
fn inline_words(suffix: &[u8]) -> [u64; MAX_KEY_WORDS] {
    let mut b = [0u8; 8 * MAX_KEY_WORDS];
    b[..suffix.len()].copy_from_slice(suffix);
    std::array::from_fn(|w| u64::from_le_bytes(b[8 * w..8 * w + 8].try_into().unwrap()))
}

/// The `len` key bytes a spilled slot's first key word points at, or `None`
/// when the word does not resolve to `len` bytes inside a registered pool:
/// a torn optimistic read (the slot was reused under the reader and the
/// word holds another key's inline bytes) that the caller's version
/// validation retries.
fn spilled_key(keys: &[AtomicU64], len: usize) -> Option<&[u8]> {
    let ov = PmPtr::<u8>::from_raw(keys.first()?.load(Ordering::Acquire));
    if ov.is_null() {
        return None;
    }
    let p = pool::resolve_checked(ov.pool_id(), ov.offset(), len)?;
    // SAFETY: the `len` bytes lie inside a registered pool. Overflow blocks
    // are immutable once published, and epoch protection keeps them
    // allocated under readers; a torn word that still lands inside a pool
    // reads bytes the caller's validation discards.
    Some(unsafe { std::slice::from_raw_parts(p, len) })
}

/// A slot's decoded key-value pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pair {
    pub key: Vec<u8>,
    pub value: u64,
}

impl DataNode {
    /// Initializes a fresh node in place, with `key_words` key words per
    /// slot, leaving the first `prefix_len` anchor bytes out of every slot: a
    /// split passes [`split_shape`](Self::split_shape)'s pair, the head node
    /// `(0, 0)` (width undecided until its first key, see [`write_slot`](Self::write_slot)).
    ///
    /// An anchor longer than [`INLINE_ANCHOR`] keeps its tail in `spill`,
    /// the block [`spill_anchor`](Self::spill_anchor) wrote (0 otherwise).
    /// The node starts *write-locked* when `locked` is set (splits hand the
    /// new node to the world only after they finish, §5.6).
    ///
    /// Returns the node: the construction form of [`DataRef::load`].
    ///
    /// # Safety
    ///
    /// `raw` must be an exclusive, 64-byte-aligned allocation of at least
    /// [`node_size`]`(key_words)` bytes, or of [`node_size`]`(`
    /// [`MAX_KEY_WORDS`]`)` when `key_words` is 0, that outlives `'a`.
    pub unsafe fn init<'a>(
        raw: *mut u8,
        anchor: &[u8],
        spill: u64,
        locked: bool,
        key_words: usize,
        prefix_len: usize,
    ) -> &'a DataNode {
        debug_assert!(key_words <= MAX_KEY_WORDS && prefix_len <= anchor.len());
        debug_assert!(raw.cast::<DataNode>().is_aligned());
        // SAFETY: exclusive fresh allocation per caller contract; zero is a
        // valid initial bit pattern for the header. Slots are written whole
        // before their bitmap bit is set, so they need no zeroing.
        unsafe {
            raw.write_bytes(0, std::mem::size_of::<DataNode>());
            let node = &mut *(raw as *mut DataNode);
            node.lock = VersionLock::new();
            if locked {
                let guard = node.lock.try_write_lock().expect("fresh lock is free");
                // Released explicitly via `unlock_initial` when the split
                // completes.
                std::mem::forget(guard);
            }
            node.key_words = AtomicU16::new(key_words as u16);
            node.prefix_len = prefix_len as u16;
            node.anchor_len = anchor.len() as u32;
            if anchor.len() <= INLINE_ANCHOR {
                node.anchor_inline[..anchor.len()].copy_from_slice(anchor);
            } else {
                debug_assert_ne!(spill, 0, "a long anchor needs its spilled block");
                node.anchor_inline.copy_from_slice(&anchor[..INLINE_ANCHOR]);
                node.anchor_overflow = AtomicU64::new(spill);
            }
            node
        }
    }

    /// The overflow block [`init`](Self::init) needs for `anchor`: a copy of
    /// it in `pool`, persisted, or 0 when the anchor fits inline. Allocated
    /// before the node, so a full pool fails the split before it publishes
    /// anything.
    pub fn spill_anchor(anchor: &[u8], pool: &PmemPool) -> Result<u64> {
        if anchor.len() <= INLINE_ANCHOR {
            return Ok(0);
        }
        let ov = pool.allocator().alloc(anchor.len())?;
        // SAFETY: a fresh allocation of `anchor.len()` bytes, ours alone.
        unsafe { std::ptr::copy_nonoverlapping(anchor.as_ptr(), ov.as_mut_ptr(), anchor.len()) };
        persist::persist(ov.as_ptr(), anchor.len());
        Ok(ov.raw())
    }

    /// Releases the construction-time lock taken by [`init`](Self::init)
    /// with `locked = true`.
    pub fn unlock_initial(&self) {
        debug_assert!(self.lock.is_locked());
        self.lock.force_unlock();
    }

    /// The node's anchor key, borrowed from the header or its overflow block.
    pub fn anchor_bytes(&self) -> &[u8] {
        let len = self.anchor_len as usize;
        if len <= INLINE_ANCHOR {
            &self.anchor_inline[..len]
        } else {
            let ov = PmPtr::<u8>::from_raw(self.anchor_overflow.load(Ordering::Acquire));
            debug_assert!(!ov.is_null());
            // SAFETY: overflow block of `len` bytes written during init;
            // anchors are immutable and live as long as their node.
            unsafe { std::slice::from_raw_parts(ov.as_ptr(), len) }
        }
    }

    /// The key bytes every slot of this node leaves out: the anchor's first
    /// `prefix_len` bytes.
    #[inline]
    pub fn prefix(&self) -> &[u8] {
        &self.anchor_bytes()[..self.prefix_len as usize]
    }

    /// Whether `key` is below this node's anchor (i.e. left of its range).
    pub fn key_below_anchor(&self, key: &[u8]) -> bool {
        key < self.anchor_bytes()
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

    /// Starts fetching the lines a probe of this node reads: the
    /// fingerprints, both lines of key lengths and, for an `insert`, the
    /// line of the lowest free slot, where a new key's pair goes (an update
    /// writes the found slot's value word, unknown until the probe).
    /// Callers issue it before they take the node's lock: a prefetch is not
    /// held back by the lock's locked instruction, so these misses overlap
    /// the lock and the range checks. Only a hint: the bitmap read here may
    /// be stale.
    #[inline]
    pub fn prefetch_probe(&self, insert: bool) {
        crate::simd::prefetch_read(self.fingerprints.as_ptr());
        crate::simd::prefetch_read(self.klens.as_ptr());
        crate::simd::prefetch_read(self.klens[NODE_SLOTS / 2..].as_ptr());
        if insert {
            let bm = self.bitmap.load(Ordering::Relaxed);
            if bm != u64::MAX {
                let slot = bm.trailing_ones() as usize;
                let stride = 1 + self.key_words();
                crate::simd::prefetch_read(self.slot_region().wrapping_add(slot * stride));
            }
        }
    }

    // -- Slot access --------------------------------------------------------

    /// Key words per slot, 1 to [`MAX_KEY_WORDS`], or 0 while the head
    /// node's width is undecided.
    #[inline]
    pub fn key_words(&self) -> usize {
        self.key_words.load(Ordering::Acquire) as usize
    }

    /// Bytes from the node's start through its last slot: what a whole-node
    /// read touches and, for every node but the head, what it was allocated
    /// (and is freed) at.
    #[inline]
    pub fn size(&self) -> usize {
        node_size(self.key_words())
    }

    /// Start of the slot region, right after the header.
    #[inline]
    fn slot_region(&self) -> *const AtomicU64 {
        (self as *const DataNode).wrapping_add(1).cast()
    }

    /// Slot `i`'s words: `[value, key words…]`.
    #[inline]
    fn slot(&self, i: usize) -> &[AtomicU64] {
        assert!(i < NODE_SLOTS, "slot {i} out of range");
        let stride = 1 + self.key_words();
        // SAFETY: the header is 64-byte aligned and a multiple of 64 bytes
        // long, and the slot region after it spans NODE_SLOTS strides of the
        // node's width: every node is allocated at `node_size` of the width
        // it is born with, and the only width that ever changes is the
        // head's, once, from 0 to 1..=MAX_KEY_WORDS, and the head is
        // allocated at MAX_KEY_WORDS. So slot `i < NODE_SLOTS` lies inside
        // the allocation. Slot words are only ever accessed atomically.
        unsafe { std::slice::from_raw_parts(self.slot_region().add(i * stride), stride) }
    }

    /// Reads a slot's key, prefix included, into `buf`. All loads are atomic
    /// (seqlock discipline: optimistic readers validate the node version
    /// afterwards); a torn spilled key reads as empty.
    pub fn read_key(&self, slot: usize, buf: &mut Vec<u8>) {
        buf.clear();
        let (klen, spilled) = self.klen(slot);
        let keys = &self.slot(slot)[1..];
        if !spilled {
            buf.extend_from_slice(self.prefix());
            for w in keys {
                buf.extend_from_slice(&w.load(Ordering::Acquire).to_le_bytes());
            }
            buf.truncate(klen);
        } else if let Some(stored) = spilled_key(keys, klen) {
            buf.extend_from_slice(stored);
        }
    }

    /// Whether a slot's key equals `key` (atomic reads, caller validates).
    /// The caller has range-checked `key` against this node, so it starts
    /// with the prefix and only its suffix is compared with an inline slot.
    fn key_eq(&self, slot: usize, key: &[u8]) -> bool {
        let (klen, spilled) = self.klen(slot);
        if klen != key.len() {
            return false;
        }
        let keys = &self.slot(slot)[1..];
        if spilled {
            return spilled_key(keys, klen).is_some_and(|stored| stored == key);
        }
        match key.get(self.prefix_len as usize..) {
            Some(suffix) if suffix.len() <= 8 * keys.len() => keys
                .iter()
                .zip(inline_words(suffix))
                .all(|(word, want)| word.load(Ordering::Acquire) == want),
            _ => false, // a torn length
        }
    }

    /// A slot's full key length and whether the key is spilled (an atomic
    /// load; optimistic readers validate).
    #[inline]
    fn klen(&self, slot: usize) -> (usize, bool) {
        let e = self.klens[slot].load(Ordering::Acquire);
        ((e & !SPILLED) as usize, e & SPILLED != 0)
    }

    /// A slot's value word.
    #[inline]
    pub fn value_at(&self, slot: usize) -> u64 {
        self.slot(slot)[0].load(Ordering::Acquire)
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
    /// (probe-quality signal for `TreeStats::false_hit_ratio`).
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

    /// Writes `key`/`value` into a free slot and persists the payload,
    /// fingerprint and key length; the caller publishes via
    /// [`publish`](Self::publish). The key length's store and flush are
    /// skipped when the slot already records that entry: the write that set
    /// it flushed it ahead of its own publish. `key` lies in the node's range,
    /// so it starts with the prefix; a key whose suffix is longer than the
    /// node's inline width spills whole to overflow allocated from `pool`.
    /// Keys of 32 768 bytes or more are refused. The first key written
    /// into an undecided (head) node fixes its width ([`key_words_for`] its
    /// length) and persists it ahead of the publish.
    ///
    /// Requires the node's write lock.
    pub fn write_slot(&self, slot: usize, key: &[u8], value: u64, pool: &PmemPool) -> Result<()> {
        debug_assert_eq!(self.bitmap.load(Ordering::Relaxed) & (1 << slot), 0);
        debug_assert!(
            key.starts_with(self.prefix()),
            "key outside the node's range"
        );
        if key.len() >= SPILLED as usize {
            return Err(PmemError::InvalidAllocation(key.len()));
        }
        let mut klen = key.len() as u16;
        if self.key_words() == 0 {
            let kw = key_words_for(key.len());
            self.key_words.store(kw as u16, Ordering::Release);
            persist::persist_obj(&self.key_words);
        }
        let words = self.slot(slot);
        let keys = &words[1..];
        let suffix = &key[self.prefix_len as usize..];
        if suffix.len() <= 8 * keys.len() {
            for (word, v) in keys.iter().zip(inline_words(suffix)) {
                word.store(v, Ordering::Relaxed);
            }
        } else {
            klen |= SPILLED;
            let ov = pool.allocator().alloc(key.len())?;
            // SAFETY: fresh allocation of `key.len()` bytes.
            unsafe {
                std::ptr::copy_nonoverlapping(key.as_ptr(), ov.as_mut_ptr(), key.len());
            }
            persist::persist(ov.as_ptr(), key.len());
            keys[0].store(ov.raw(), Ordering::Relaxed);
        }
        words[0].store(value, Ordering::Relaxed);
        self.fingerprints[slot].store(fingerprint_of(key), Ordering::Release);
        self.persist_slot(slot, klen);
        Ok(())
    }

    /// Update protocol: stores `value` into live slot `slot`'s value word
    /// and persists it — one line flushed, one fence. The slot, its key and
    /// the bitmap stay as they are; the atomic store is the update's
    /// linearization point. Requires the node's write lock, so optimistic
    /// readers see the store only after it is durable.
    pub fn store_value(&self, slot: usize, value: u64) {
        let word = &self.slot(slot)[0];
        word.store(value, Ordering::Release);
        persist::persist_obj_fenced(word);
    }

    /// Records `klen` as slot `slot`'s key length and flushes the slot's
    /// words, its fingerprint and — only when it changed — its length.
    fn persist_slot(&self, slot: usize, klen: u16) {
        let words = self.slot(slot);
        persist::persist(words.as_ptr() as *const u8, words.len() * 8);
        persist::persist_obj(&self.fingerprints[slot]);
        if self.klens[slot].load(Ordering::Relaxed) != klen {
            self.klens[slot].store(klen, Ordering::Release);
            persist::persist_obj(&self.klens[slot]);
        }
    }

    /// Merge data movement (§5.6): copies each live pair of `victim` whose
    /// key this node lacks into a free slot, overflow ownership moving with
    /// the pointer, and publishes them all with one bitmap store. Skipping
    /// present keys makes a redo after a crash idempotent. Returns `None`,
    /// publishing nothing, when this node runs out of free slots. The keys
    /// must fit `self` (see [`can_absorb`](Self::can_absorb)).
    ///
    /// Requires write locks on (or exclusivity over) both nodes.
    pub fn absorb(&self, victim: &DataNode) -> Option<()> {
        let mut set = 0u64;
        let mut bits = victim.bitmap.load(Ordering::Acquire);
        let mut buf = Vec::new();
        while bits != 0 {
            let src = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            victim.read_key(src, &mut buf);
            if self.find(&buf).is_some() {
                continue;
            }
            let dst = (self.bitmap.load(Ordering::Acquire) | set).trailing_ones() as usize;
            if dst >= NODE_SLOTS {
                return None;
            }
            self.store_slot_from(dst, victim, src);
            self.persist_slot(dst, victim.klens[src].load(Ordering::Acquire));
            set |= 1 << dst;
        }
        self.publish(set, 0);
        Some(())
    }

    /// The stores that copy a slot of `src` into slot `slot`, but the key
    /// length's, unflushed. A spilled key keeps its block by pointer; an
    /// inline one is re-encoded for `self`'s prefix and width.
    fn store_slot_from(&self, slot: usize, src: &DataNode, src_slot: usize) {
        let (d, s) = (self.slot(slot), src.slot(src_slot));
        d[0].store(s[0].load(Ordering::Acquire), Ordering::Relaxed);
        match src.klen(src_slot) {
            (_, true) => d[1].store(s[1].load(Ordering::Acquire), Ordering::Relaxed),
            (klen, false) => {
                let p = self.prefix_len as usize;
                let fits = klen >= p && klen - p <= 8 * (d.len() - 1);
                assert!(fits, "moved key does not fit the target node");
                for (d, v) in d[1..].iter().zip(src.inline_words_from(src_slot, p)) {
                    d.store(v, Ordering::Relaxed);
                }
            }
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
    /// [`absorb`](Self::absorb) instead.
    pub fn adopt_slots(&self, src: &DataNode, src_slots: &[usize]) {
        for (i, &src_slot) in src_slots.iter().enumerate() {
            self.store_slot_from(i, src, src_slot);
            let klen = src.klens[src_slot].load(Ordering::Acquire);
            self.klens[i].store(klen, Ordering::Relaxed);
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

    /// An inline slot's key from byte `from` on, encoded as slot words: how
    /// the key moves into a node whose prefix is `from` bytes long.
    fn inline_words_from(&self, slot: usize, from: usize) -> [u64; MAX_KEY_WORDS] {
        let mut stored = [0u8; 8 * MAX_KEY_WORDS];
        for (b, w) in stored.chunks_exact_mut(8).zip(&self.slot(slot)[1..]) {
            b.copy_from_slice(&w.load(Ordering::Acquire).to_le_bytes());
        }
        let key = self.prefix().iter().chain(&stored).take(self.klen(slot).0);
        let mut out = [0u8; 8 * MAX_KEY_WORDS];
        for (b, k) in out.iter_mut().zip(key.skip(from)) {
            *b = *k;
        }
        inline_words(&out)
    }

    /// Returns a cleared slot's overflow key allocation, if any (callers
    /// defer the free through the epoch collector).
    pub fn overflow_of(&self, slot: usize) -> Option<(PmPtr<u8>, usize)> {
        let (klen, spilled) = self.klen(slot);
        let ov = PmPtr::<u8>::from_raw(self.slot(slot)[1].load(Ordering::Acquire));
        (spilled && !ov.is_null()).then_some((ov, klen))
    }

    /// Each live slot's key length and whether it is spilled.
    fn live_klens(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        let bm = self.bitmap.load(Ordering::Acquire);
        (0..NODE_SLOTS)
            .filter(move |&s| bm & (1 << s) != 0)
            .map(|s| self.klen(s))
    }

    /// The `(width, prefix length)` of the node a split of this full node
    /// creates, whose anchor is `anchor` and whose upper fence is `upper`'s
    /// anchor (`None` at the tail). The new node's range lies inside both
    /// fences' common prefix `p`; it keeps `p` when that narrows its width
    /// for this node's longest inline key `l`, or when `l` is too long to
    /// sit inline without it, and stores `l − p` bytes per key. An inline
    /// key of this node then always fits the new one (spilled keys move by
    /// pointer and need no room), and a tree of 8-byte keys keeps width 1
    /// with no prefix.
    pub fn split_shape(&self, anchor: &[u8], upper: Option<&DataNode>) -> (usize, usize) {
        let inline = self.live_klens().filter(|&(_, spilled)| !spilled);
        let l = inline.map(|(len, _)| len).max().unwrap_or(0);
        let lcp = upper.map_or(0, |u| {
            let lcp = anchor.iter().zip(u.anchor_bytes());
            lcp.take_while(|(a, b)| a == b).count()
        });
        // `lcp` exceeds `l` only when every moved key is spilled.
        let keep = key_words_for(l.saturating_sub(lcp)) < key_words_for(l) || l > 8 * MAX_KEY_WORDS;
        let p = if keep { lcp } else { 0 };
        (key_words_for(l.saturating_sub(p)), p)
    }

    /// Whether `right`, this node's right neighbour, can merge into it by
    /// copying: the merged range, up to `upper`'s anchor (`None` at the
    /// tail), must keep this node's prefix, and each of `right`'s inline
    /// keys must fit this node's width after it. Spilled keys move by
    /// pointer. Requires both nodes' write locks.
    pub fn can_absorb(&self, right: &DataNode, upper: Option<&DataNode>) -> bool {
        let p = self.prefix();
        let fence_ok = upper.map_or(p.is_empty(), |u| u.anchor_bytes().starts_with(p));
        fence_ok
            && (right.live_klens())
                .all(|(klen, spilled)| spilled || klen - p.len() <= 8 * self.key_words())
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

    /// Whether any live key is at or above `bound`: one pass over the
    /// bitmap through one key buffer (the updater's check for keys a split
    /// moved out; the caller holds the lock or validates a seqlock read).
    pub fn any_key_at_or_above(&self, bound: &[u8]) -> bool {
        let mut buf = Vec::new();
        let mut bits = self.bitmap.load(Ordering::Acquire);
        while bits != 0 {
            let slot = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.read_key(slot, &mut buf);
            if buf.as_slice() >= bound {
                return true;
            }
        }
        false
    }

    /// Live slots in sorted key order (split, permutation rebuild; the
    /// caller holds the lock or is inside a validated seqlock read).
    ///
    /// When every live key is inline, the sort runs on byte-swapped key
    /// words, loaded straight from the slots, and no key is materialized:
    /// inline suffixes are stored zero-padded as little-endian words, and
    /// every key of the node shares the prefix, so (bswap key word 0, …,
    /// bswap last key word, key length) compares exactly like the full keys
    /// on every platform — a shorter key that is a prefix pads with zeros,
    /// which only the length tie-break (from the `klens` array) can order.
    /// Any spilled key falls back to the materialize-and-sort path.
    pub fn sorted_live_slots(&self) -> Vec<usize> {
        let bm = self.bitmap.load(Ordering::Acquire);
        let mut slots = [0u8; NODE_SLOTS];
        let mut lens = [0usize; NODE_SLOTS];
        let mut n = 0usize;
        let mut all_inline = true;
        let mut bits = bm;
        while bits != 0 {
            let slot = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            slots[n] = slot as u8;
            let spilled;
            (lens[n], spilled) = self.klen(slot);
            all_inline &= !spilled;
            n += 1;
        }
        if all_inline {
            let mut ranks = [[0u64; MAX_KEY_WORDS]; NODE_SLOTS];
            for (rank, &slot) in ranks.iter_mut().zip(&slots[..n]) {
                let words = self.slot(slot as usize);
                for (r, word) in rank.iter_mut().zip(&words[1..]) {
                    *r = word.load(Ordering::Acquire).swap_bytes();
                }
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&i| (ranks[i], lens[i]));
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
/// fingerprint array (§5.2), served by the [`crate::simd`] kernel compiled
/// for the target (SSE2 on x86_64, NEON on aarch64, scalar elsewhere).
#[inline]
pub fn fingerprint_matches(fps: &[AtomicU8; NODE_SLOTS], fp: u8) -> u64 {
    crate::simd::fingerprint_match64(fps, fp)
}

/// A data node reached through a link — a sibling pointer, the head cell, a
/// search-layer leaf's value word, an SMO-log word or a snapshot's frozen
/// copy of a sibling pointer — while an epoch guard is pinned. It derefs to
/// the node for `'g` and carries the raw pointer for relinking and identity.
pub(crate) type DataRef<'g> = Ref<'g, DataNode>;

// SAFETY: a link holds 0 or a node `init` wrote and persisted before
// `malloc_to` (or a split's store) published it. A node is freed through
// the tree's collector two epochs after it is unlinked (§5.6), so the
// links of a node unlinked after a pin still name nodes linked then; an
// SMO-log entry's node outlives the entry, and a frozen link was copied
// after the pin of a snapshot still reading it. Every field is an integer
// or an atomic.
unsafe impl Node for DataNode {
    type Freed = ByEpoch;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::pool::{destroy_pool, PoolConfig};
    use std::sync::Arc;

    /// A node of undecided width, allocated at the widest size like the head
    /// node: the first key a test writes fixes its width.
    fn mk_node(name: &str) -> (Arc<PmemPool>, &'static DataNode) {
        let pool = PmemPool::create(PoolConfig::volatile(name, 16 << 20)).unwrap();
        let node = mk_shaped(&pool, b"anchor", 0, 0);
        (pool, node)
    }

    /// A node of width `kw` whose anchor is `anchor` and whose slots leave
    /// out its first `prefix_len` bytes, in `pool`.
    fn mk_shaped(
        pool: &PmemPool,
        anchor: &[u8],
        kw: usize,
        prefix_len: usize,
    ) -> &'static DataNode {
        let ptr = pool.allocator().alloc(node_size(MAX_KEY_WORDS)).unwrap();
        let spill = DataNode::spill_anchor(anchor, pool).unwrap();
        // SAFETY: fresh allocation of the widest node's bytes; the pool
        // outlives every use in the test that made it.
        unsafe { DataNode::init(ptr.as_mut_ptr(), anchor, spill, false, kw, prefix_len) }
    }

    /// The shared key prefix the prefixed-node tests cut from.
    const PREFIX: &[u8] = b"user00000-";

    #[test]
    fn node_size_fits_allocator_class() {
        for (kw, want) in [
            (1, (1408, Some(1536))),
            (2, (1920, Some(2048))),
            (3, (2432, Some(2560))),
            (MAX_KEY_WORDS, (2944, Some(3072))),
        ] {
            let size = node_size(kw);
            let class = pmem::alloc::class_of(size).map(pmem::alloc::class_size);
            assert_eq!((size, class), want);
        }
    }

    /// What a lookup probes — bitmap, fingerprints, key lengths — lies in
    /// the node's first XPLine; the fingerprints fill one cache line and the
    /// slots start on one.
    #[test]
    fn header_layout_is_pinned() {
        use std::mem::{offset_of, size_of};
        assert_eq!(offset_of!(DataNode, fingerprints) % 64, 0);
        for end in [
            offset_of!(DataNode, bitmap) + 8,
            offset_of!(DataNode, fingerprints) + NODE_SLOTS,
            offset_of!(DataNode, klens) + 2 * NODE_SLOTS,
        ] {
            assert!(end <= 256, "header field ends at byte {end}");
        }
        assert_eq!(size_of::<DataNode>() % 64, 0);
        assert_eq!(size_of::<DataNode>(), 384);
    }

    /// First-key length → width; a key longer than `8 × width` spills.
    #[test]
    fn first_key_fixes_the_width() {
        for (len, kw) in [(0, 1), (8, 1), (9, 2), (17, 3), (24, 3), (25, 4), (33, 4)] {
            let (pool, node) = mk_node("dn-width");
            let _g = node.lock.write_lock();
            assert_eq!(node.key_words(), 0);
            let key = vec![b'k'; len];
            node.write_slot(0, &key, 1, &pool).unwrap();
            node.publish(1, 0);
            node.write_slot(1, &[5u8; 100], 2, &pool).unwrap();
            node.publish(1 << 1, 0);
            assert_eq!(
                (node.key_words(), node.size()),
                (kw, node_size(kw)),
                "{len} B"
            );
            assert_eq!(node.find(&key), Some(0));
            assert_eq!(node.pair_at(0).key, key);
            assert_eq!(node.pair_at(1).key, vec![5u8; 100]);
            assert_eq!(node.overflow_of(0).is_some(), len > 8 * kw, "{len} B");
            assert!(node.overflow_of(1).is_some());
            destroy_pool(pool.id());
        }
    }

    /// A lookup that loaded the bitmap before a delete freed slot 0 probes
    /// it while an insert reuses it: it can see the old spilled entry (length
    /// and [`SPILLED`] flag) with the new key's inline bytes in the first key
    /// word. Resolving those bytes as a pointer must report a torn slot (a
    /// miss, an empty key), whether their pool id is past the registry,
    /// unregistered, or their range runs past the pool's end. The entry
    /// lives in the header, on another line than the key words, so the
    /// opposite tear — a new spilled entry over an old inline key that starts
    /// with those bytes — must read the same way. And an inline entry over a
    /// spilled slot's pointer word reads the pointer as key bytes, which
    /// never equal a key too long for the node's slots.
    #[test]
    fn torn_spilled_slot_reads_as_a_miss() {
        let (pool, node) = mk_node("dn-torn");
        let _g = node.lock.write_lock();
        let key = [7u8; 40];
        node.write_slot(0, &key, 1, &pool).unwrap();
        node.publish(1, 0);
        assert_eq!(node.find(&key), Some(0));
        let spilled = key.len() as u16 | SPILLED;
        assert_eq!(node.klens[0].load(Ordering::Relaxed), spilled);
        let past_end = PmPtr::<u8>::new(pool.id(), pool.size() as u64 - 8).raw();
        for (i, torn) in [
            u64::from_le_bytes(*b"inline\xff\xff"),
            (200 << 48) | 4096,
            past_end,
        ]
        .into_iter()
        .enumerate()
        {
            node.slot(0)[1].store(torn, Ordering::Release);
            assert_eq!(node.find(&key), None, "{torn:#x}");
            let mut buf = vec![1];
            node.read_key(0, &mut buf);
            assert!(buf.is_empty(), "{torn:#x}");

            let slot = 1 + i;
            let mut inline = [0u8; 8 * MAX_KEY_WORDS];
            inline[..8].copy_from_slice(&torn.to_le_bytes());
            node.write_slot(slot, &inline, 2, &pool).unwrap();
            node.publish(1 << slot, 0);
            assert_eq!(node.klens[slot].load(Ordering::Relaxed) & SPILLED, 0);
            node.klens[slot].store(spilled, Ordering::Release);
            node.fingerprints[slot].store(fingerprint_of(&key), Ordering::Release);
            assert_eq!(node.find(&key), None, "{torn:#x}");
            buf.push(1);
            node.read_key(slot, &mut buf);
            assert!(buf.is_empty(), "{torn:#x}");
        }
        let ptr_word = node.slot(4)[1].load(Ordering::Relaxed);
        node.write_slot(4, &key, 3, &pool).unwrap();
        node.publish(1 << 4, 0);
        node.klens[4].store(key.len() as u16, Ordering::Release);
        assert_eq!(node.find(&key), None);
        assert_ne!(ptr_word, node.slot(4)[1].load(Ordering::Relaxed));
        destroy_pool(pool.id());
    }

    /// Rewriting a slot with a key of the length it already records skips
    /// the key length's store and flush: one line fewer than a new length.
    #[test]
    fn same_length_rewrite_flushes_one_line_fewer() {
        use pmem::model::{self, NvmModelConfig};
        let (pool, node) = mk_node("dn-klen-flush");
        let _g = node.lock.write_lock();
        node.write_slot(0, b"aaaaaaaa", 1, &pool).unwrap();
        node.publish(1, 0);
        let flushes = |slot: usize, key: &[u8]| {
            let before = pool::stats_of(pool.id()).snapshot();
            node.write_slot(slot, key, 2, &pool).unwrap();
            pool::stats_of(pool.id()).snapshot().since(&before).flushes
        };
        model::set_config(NvmModelConfig::accounting());
        let new_len = flushes(1, b"bbbbbbbb");
        node.publish(1 << 1, 1);
        let same_len = flushes(0, b"cccccccc");
        model::set_config(NvmModelConfig::disabled());
        assert_eq!(
            (new_len, same_len),
            (3, 2),
            "slot words, fingerprint, length"
        );
        destroy_pool(pool.id());
    }

    #[test]
    fn insert_find_roundtrip() {
        let (pool, node) = mk_node("dn-basic");
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
        let (pool, node) = mk_node("dn-full");
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
    fn store_value_changes_only_the_value() {
        let (pool, node) = mk_node("dn-update");
        let _g = node.lock.write_lock();
        node.write_slot(0, b"k", 1, &pool).unwrap();
        node.write_slot(1, b"j", 1, &pool).unwrap();
        node.publish(0b11, 0);
        let key_state = || {
            let words = node.slot(0)[1..].iter().map(|w| w.load(Ordering::Relaxed));
            (
                node.bitmap.load(Ordering::Relaxed),
                node.klen(0),
                words.collect::<Vec<_>>(),
            )
        };
        let before = key_state();
        node.store_value(0, 2);
        assert_eq!((node.value_at(0), node.value_at(1)), (2, 1));
        assert_eq!(key_state(), before, "bitmap, key length and key words");
        assert_eq!(node.find(b"k"), Some(0));
        destroy_pool(pool.id());
    }

    #[test]
    fn long_keys_overflow() {
        let (pool, node) = mk_node("dn-longkey");
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
        // A length entry keeps its top bit for the spill flag, so a key is
        // at most 32 767 bytes; a longer one is refused before anything is
        // stored.
        let max = vec![6u8; SPILLED as usize - 1];
        node.write_slot(1, &max, 8, &pool).unwrap();
        node.publish(1 << 1, 0);
        assert_eq!(node.pair_at(1).key, max);
        assert!(node
            .write_slot(2, &[6u8; SPILLED as usize], 9, &pool)
            .is_err());
        assert_eq!(node.klen(2), (0, false));
        destroy_pool(pool.id());
    }

    #[test]
    fn long_anchor_overflow() {
        let pool = PmemPool::create(PoolConfig::volatile("dn-longanchor", 16 << 20)).unwrap();
        let anchor = vec![3u8; 100];
        let node = mk_shaped(&pool, &anchor, MAX_KEY_WORDS, 0);
        assert_eq!(node.anchor_bytes(), anchor);
        assert!(!node.key_below_anchor(&anchor));
        let mut below = anchor.clone();
        below[99] = 2;
        assert!(node.key_below_anchor(&below));
        destroy_pool(pool.id());
    }

    #[test]
    fn init_locked_for_splits() {
        let pool = PmemPool::create(PoolConfig::volatile("dn-locked", 16 << 20)).unwrap();
        let ptr = pool.allocator().alloc(node_size(1)).unwrap();
        // SAFETY: fresh allocation of a width-1 node.
        let node = unsafe { DataNode::init(ptr.as_mut_ptr(), b"a", 0, true, 1, 0) };
        assert!(node.lock.is_locked());
        node.unlock_initial();
        assert!(!node.lock.is_locked());
        destroy_pool(pool.id());
    }

    #[test]
    fn fingerprint_matches_agrees_with_a_byte_loop() {
        let (pool, node) = mk_node("dn-fp-probe");
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
        let (pool, node) = mk_node("dn-perm");
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

    /// Every key length from 0 to `8 × width + 9` suffix bytes round-trips
    /// through a node leaving out a 0-, 7- or 9-byte prefix, at every width:
    /// suffixes up to `8 × width` bytes inline, longer keys spilled whole.
    #[test]
    fn prefixed_slots_round_trip() {
        let pool = PmemPool::create(PoolConfig::volatile("dn-prefix-rt", 16 << 20)).unwrap();
        for p in [0, 7, 9] {
            for kw in 1..=MAX_KEY_WORDS {
                let node = mk_shaped(&pool, &PREFIX[..p], kw, p);
                assert_eq!((node.prefix(), node.key_words()), (&PREFIX[..p], kw));
                let _g = node.lock.write_lock();
                let keys: Vec<Vec<u8>> = (0..=8 * kw + 9)
                    .map(|n| [&PREFIX[..p], &vec![b'a' + n as u8; n][..]].concat())
                    .collect();
                for (slot, key) in keys.iter().enumerate() {
                    node.write_slot(slot, key, slot as u64, &pool).unwrap();
                    node.publish(1 << slot, 0);
                }
                for (slot, key) in keys.iter().enumerate() {
                    let spilled = key.len() - p > 8 * kw;
                    assert_eq!(node.find(key), Some(slot), "p {p} w {kw} slot {slot}");
                    assert_eq!(
                        node.pair_at(slot),
                        Pair {
                            key: key.clone(),
                            value: slot as u64
                        }
                    );
                    assert_eq!(node.klen(slot), (key.len(), spilled));
                    assert_eq!(node.overflow_of(slot).is_some(), spilled);
                }
            }
        }
        destroy_pool(pool.id());
    }

    /// Slots moving between nodes of other shapes: inline keys are
    /// re-encoded for the target's prefix and width, by a split's
    /// `adopt_slots` (longer prefix, narrower slots) and a merge's `absorb`
    /// (shorter prefix). A spilled key keeps its block by
    /// pointer, and still reads back through it where it would now fit
    /// inline.
    #[test]
    fn moved_slots_reencode_and_spilled_keys_keep_their_block() {
        let pool = PmemPool::create(PoolConfig::volatile("dn-move", 16 << 20)).unwrap();
        let key = |s: &str| [PREFIX, s.as_bytes()].concat();
        let (short, long) = (key("0123456"), key("0123456789abcdefghijklmnopq"));
        let src = mk_shaped(&pool, PREFIX, 1, 0);
        let _g = src.lock.write_lock();
        for (slot, k) in [&short, &long].into_iter().enumerate() {
            src.write_slot(slot, k, slot as u64, &pool).unwrap();
            src.publish(1 << slot, 0);
        }
        assert_eq!(src.klen(0), (short.len(), true));
        let block = src.overflow_of(0).unwrap();

        let split = mk_shaped(&pool, PREFIX, 3, 9);
        split.adopt_slots(src, &[0, 1]);
        let merged = mk_shaped(&pool, &PREFIX[..7], 4, 7);
        assert_eq!(merged.absorb(split), Some(()));
        for node in [split, merged] {
            assert_eq!(node.overflow_of(0), Some(block));
            assert_eq!(node.overflow_of(1), Some(src.overflow_of(1).unwrap()));
            for (slot, k) in [&short, &long].into_iter().enumerate() {
                assert_eq!(node.find(k), Some(slot));
                assert_eq!(node.pair_at(slot).key, *k);
            }
        }

        let inline = key("abc");
        let src = mk_shaped(&pool, PREFIX, 2, 0);
        let _g = src.lock.write_lock();
        src.write_slot(0, &inline, 2, &pool).unwrap();
        src.publish(1, 0);
        let narrow = mk_shaped(&pool, PREFIX, 1, 10);
        narrow.adopt_slots(src, &[0]);
        let wide = mk_shaped(&pool, PREFIX, 2, 0);
        assert_eq!(wide.absorb(narrow), Some(()));
        for node in [narrow, wide] {
            assert_eq!(node.klen(0), (inline.len(), false));
            assert_eq!(
                (node.find(&inline), node.pair_at(0).key),
                (Some(0), inline.clone())
            );
        }
        destroy_pool(pool.id());
    }

    /// A merge's copy skips the keys the target already holds (so a redo
    /// after a crash copies nothing twice) and, when the target runs out of
    /// free slots, publishes nothing.
    #[test]
    fn absorb_skips_present_keys_and_publishes_nothing_when_full() {
        let pool = PmemPool::create(PoolConfig::volatile("dn-absorb", 16 << 20)).unwrap();
        let filled = |keys: std::ops::Range<u64>| {
            let node = mk_shaped(&pool, b"", 1, 0);
            for (slot, k) in keys.enumerate() {
                node.write_slot(slot, &k.to_be_bytes(), k + 1, &pool)
                    .unwrap();
                node.publish(1 << slot, 0);
            }
            node
        };
        let left = filled(0..62);
        assert_eq!(left.absorb(filled(61..64)), Some(()));
        assert_eq!(left.live_count(), NODE_SLOTS);
        assert_eq!(
            left.find(&63u64.to_be_bytes()).map(|s| left.value_at(s)),
            Some(64)
        );
        let left = filled(0..63);
        assert_eq!(left.absorb(filled(100..102)), None);
        assert_eq!(left.live_count(), 63);
        destroy_pool(pool.id());
    }

    /// The split rule: a new node keeps its fences' common prefix only where
    /// that narrows its slots for the longest inline key, or where that key
    /// is too long to sit inline without it; at the tail it keeps whole keys.
    /// In the last case the prefix is what lets a 40-byte inline key move:
    /// unprefixed, it would not fit even width 4. A spilled key, however
    /// long, does not widen the new node.
    #[test]
    fn split_shape_keeps_a_prefix_only_where_it_pays() {
        let pool = PmemPool::create(PoolConfig::volatile("dn-shape", 16 << 20)).unwrap();
        let filled = |anchor: &[u8], kw: usize, p: usize, keys: &[Vec<u8>]| {
            let node = mk_shaped(&pool, anchor, kw, p);
            for (slot, k) in keys.iter().enumerate() {
                node.write_slot(slot, k, slot as u64, &pool).unwrap();
                node.publish(1 << slot, 0);
            }
            node
        };
        let ints: Vec<Vec<u8>> = (0..4u64)
            .map(|i| (256 + i).to_be_bytes().to_vec())
            .collect();
        let node = filled(&ints[0], 1, 0, &ints);
        let upper = mk_shaped(&pool, &512u64.to_be_bytes(), 1, 0);
        assert_eq!(node.split_shape(&ints[2], Some(upper)), (1, 0));
        node.write_slot(4, &[1; 200], 4, &pool).unwrap();
        node.publish(1 << 4, 0);
        assert_eq!(node.klen(4), (200, true));
        assert_eq!(node.split_shape(&ints[2], Some(upper)), (1, 0));

        let strs: Vec<Vec<u8>> = (100..104)
            .map(|i| format!("user{i:019}").into_bytes())
            .collect();
        let node = filled(&strs[0], 3, 0, &strs);
        let upper = mk_shaped(&pool, b"user0000000000000000200", 3, 0);
        assert_eq!(node.split_shape(&strs[2], Some(upper)), (1, 20));
        assert_eq!(node.split_shape(&strs[2], None), (3, 0));
        let upper = mk_shaped(&pool, b"user1", 3, 0);
        assert_eq!(
            node.split_shape(&strs[2], Some(upper)),
            (3, 0),
            "4 shared bytes"
        );

        let p = b"user0000000";
        let long = [
            [&p[..], &[b'1'; 29]].concat(),
            [&p[..], &[b'2'; 40]].concat(),
        ];
        let node = filled(p, MAX_KEY_WORDS, 11, &long);
        assert_eq!(node.klen(0), (40, false));
        assert_eq!(node.klen(1), (51, true));
        let upper = mk_shaped(&pool, b"user00000009", 3, 0);
        let (kw, plen) = node.split_shape(&long[0], Some(upper));
        assert_eq!((kw, plen), (MAX_KEY_WORDS, 11));
        let right = mk_shaped(&pool, &long[0], kw, plen);
        right.adopt_slots(node, &[0, 1]);
        for (slot, k) in long.iter().enumerate() {
            assert_eq!(right.pair_at(slot).key, *k);
        }
        destroy_pool(pool.id());
    }

    // Differential check of the key-word-ranked sorted-slot build against the
    // naive materialize-and-sort: random distinct keys of up to 39 bytes,
    // cut to `8 × width` bytes for a random width of 1 to 4, covering the
    // all-inline fast path and the overflow fallback at every width (the
    // first key fixes the node's width from its length).
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        #[test]
        fn sorted_pairs_raw_matches_naive_sort(
            width in 1..MAX_KEY_WORDS + 1,
            keys in proptest::collection::btree_set(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 1..40),
                1..NODE_SLOTS,
            ),
        ) {
            let keys: std::collections::BTreeSet<Vec<u8>> = keys
                .into_iter()
                .map(|k| k[..k.len().min(8 * width)].to_vec())
                .collect();
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let name = format!("dn-sortprop-{}", CASE.fetch_add(1, Ordering::Relaxed));
            let (pool, node) = mk_node(&name);
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

        // The same on prefixed nodes: suffixes of 0 to 8 × width + 7 bytes
        // after a 0-, 7- or 9-byte prefix, so the ranks cover suffix words
        // only and the longest keys spill into the fallback.
        #[test]
        fn prefixed_sorted_slots_match_naive_sort(
            width in 1..MAX_KEY_WORDS + 1,
            pick in 0..3usize,
            suffixes in proptest::collection::btree_set(
                proptest::collection::vec(0u8..4, 0..40),
                1..NODE_SLOTS,
            ),
        ) {
            let p = [0, 7, 9][pick];
            let keys: std::collections::BTreeSet<Vec<u8>> = suffixes
                .into_iter()
                .map(|s| [&PREFIX[..p], &s[..s.len().min(8 * width + 7)]].concat())
                .collect();
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let name = format!("dn-prefixsort-{}", CASE.fetch_add(1, Ordering::Relaxed));
            let pool = PmemPool::create(PoolConfig::volatile(&name, 16 << 20)).unwrap();
            let node = mk_shaped(&pool, &PREFIX[..p], width, p);
            {
                let _g = node.lock.write_lock();
                for (i, k) in keys.iter().enumerate() {
                    node.write_slot(i, k, i as u64, &pool).unwrap();
                    node.publish(1 << i, 0);
                }
                let got: Vec<Vec<u8>> =
                    node.sorted_live_slots().into_iter().map(|s| node.pair_at(s).key).collect();
                proptest::prop_assert_eq!(got, keys.into_iter().collect::<Vec<_>>());
            }
            destroy_pool(pool.id());
        }
    }

    // The updater's stale-key check against the sorted answer it replaced,
    // on nodes of every width leaving out a 0-, 7- or 9-byte prefix, with
    // suffixes long enough to spill and every other slot cleared: bounds
    // are each key, each key's successor and predecessor, the bare prefix
    // and random suffixes.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        #[test]
        fn any_key_at_or_above_matches_sorted_pairs_raw(
            width in 1..MAX_KEY_WORDS + 1,
            pick in 0..3usize,
            suffixes in proptest::collection::btree_set(
                proptest::collection::vec(0u8..4, 0..40),
                1..NODE_SLOTS,
            ),
            extra in proptest::collection::vec(proptest::collection::vec(0u8..5, 0..40), 8),
        ) {
            let p = [0, 7, 9][pick];
            let keys: Vec<Vec<u8>> = suffixes
                .iter()
                .map(|s| [&PREFIX[..p], &s[..s.len().min(8 * width + 7)]].concat())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let name = format!("dn-atorabove-{}", CASE.fetch_add(1, Ordering::Relaxed));
            let pool = PmemPool::create(PoolConfig::volatile(&name, 16 << 20)).unwrap();
            let node = mk_shaped(&pool, &PREFIX[..p], width, p);
            {
                let _g = node.lock.write_lock();
                for (i, k) in keys.iter().enumerate() {
                    node.write_slot(i, k, i as u64, &pool).unwrap();
                    node.publish(1 << i, 0);
                }
                node.publish(0, 0x5555_5555_5555_5555 & !1);
                let mut bounds = vec![PREFIX[..p].to_vec()];
                for k in &keys {
                    bounds.push(k.clone());
                    bounds.push([&k[..], &[0]].concat());
                    if let Some((&last, head)) = k.split_last() {
                        bounds.push([head, &[last.wrapping_sub(1)]].concat());
                    }
                }
                bounds.extend(extra.iter().map(|s| [&PREFIX[..p], &s[..]].concat()));
                let live = node.sorted_pairs_raw();
                for b in &bounds {
                    let want = live.iter().any(|(k, _)| k.as_slice() >= b.as_slice());
                    proptest::prop_assert_eq!(node.any_key_at_or_above(b), want, "bound {:?}", b);
                }
            }
            destroy_pool(pool.id());
        }
    }

    #[test]
    fn publish_set_and_clear_is_one_store() {
        let (pool, node) = mk_node("dn-pub");
        let _g = node.lock.write_lock();
        node.write_slot(0, b"a", 1, &pool).unwrap();
        node.publish(1, 0);
        node.write_slot(1, b"b", 2, &pool).unwrap();
        node.publish(0b10, 0b01);
        assert_eq!(node.bitmap.load(Ordering::Relaxed), 0b10);
        destroy_pool(pool.id());
    }
}
