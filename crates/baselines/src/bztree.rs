//! BzTree: a lock-free persistent B+tree on PMwCAS (VLDB'18, PACTree §2.2.1).
//!
//! Faithful to the traits the PACTree paper measures:
//!
//! * **Lock-free**: every structural change goes through [`crate::pmwcas`];
//!   readers never block and never write lock state.
//! * **Append-only leaves**: an insert reserves a record slot with a 2-word
//!   PMwCAS (status word + record metadata), writes the record, then makes
//!   it visible — a descriptor allocation plus ≥15 flushes per insert (GA4),
//!   and, for string keys, another allocation per key (GA3: ~40% of time in
//!   the allocator).
//! * **Copy-on-write internal changes**: consolidation/split builds new
//!   nodes and swaps one child pointer with PMwCAS; internal keys are
//!   immutable (only child pointer words change in place). Each inner node
//!   carries a version word that the same PMwCAS bumps (child swapped in
//!   place) or freezes (node replaced by its copy), so a copy taken while a
//!   sibling leaf was being swapped, or a swap aimed at an already replaced
//!   parent, fails instead of dropping acknowledged inserts.
//! * **Scan snapshotting**: scans snapshot and sort each leaf (the paper's
//!   explanation of BzTree's poor range performance).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem::epoch::{Collector, Guard};
use pmem::persist;
use pmem::pool::{self, PmemPool, PoolConfig};
use pmem::pptr::PmPtr;
use pmem::{AllocMode, PmemError, Result};

use crate::fastfair::KeyMode;
use crate::pmwcas::{read_word, PmwCasRunner};

/// Records per leaf node.
pub const LEAF_CAP: usize = 64;
/// Separators per internal node.
pub const INNER_CAP: usize = 32;
/// Consolidation that still leaves more than this many live records splits
/// the leaf in two.
const SPLIT_THRESHOLD: usize = LEAF_CAP * 3 / 4;

// Status word layout (bit 0 always clear — PMwCAS targets):
//   bits 1..8  : record count
//   bit  8     : frozen
#[inline]
fn st_count(s: u64) -> usize {
    ((s >> 1) & 0x7F) as usize
}
#[inline]
fn st_frozen(s: u64) -> bool {
    s & (1 << 8) != 0
}
#[inline]
fn st_with_count(s: u64, c: usize) -> u64 {
    (s & !(0x7F << 1)) | ((c as u64) << 1)
}
const ST_FROZEN_BIT: u64 = 1 << 8;

// Record metadata word (bit 0 clear):
const META_RESERVED: u64 = 1 << 1;
const META_VISIBLE: u64 = 1 << 2;
const META_DELETED: u64 = 1 << 3;

/// Node kind tag (first word of both node types).
const KIND_LEAF: u64 = 1;
const KIND_INNER: u64 = 2;

/// A leaf: status word + per-record (meta, key word, value) triples.
#[repr(C)]
struct Leaf {
    kind: u64,
    status: AtomicU64,
    records: [[AtomicU64; 3]; LEAF_CAP],
}

/// An internal node: immutable sorted keys, mutable child pointer words.
#[repr(C)]
struct Inner {
    kind: u64,
    count: u64,
    /// Structure version (PMwCAS target): every in-place child-pointer swap
    /// bumps it by [`INNER_VERSION_STEP`] in the same PMwCAS, and the PMwCAS
    /// that unlinks this node for its copy-on-write replacement sets
    /// [`INNER_FROZEN_BIT`] on the version the copy was taken at — so a copy
    /// is installed only if no child pointer moved since it was read, and a
    /// replaced node never accepts another swap.
    version: AtomicU64,
    keys: [u64; INNER_CAP],
    /// children[i] covers keys < keys[i]; children[count] is the rightmost.
    children: [AtomicU64; INNER_CAP + 1],
}

const INNER_FROZEN_BIT: u64 = 1 << 1;
const INNER_VERSION_STEP: u64 = 1 << 2;

/// What a consolidation puts in a node's place.
enum Replacement {
    One(u64),
    /// `(left, separator, right)`.
    Split(u64, u64, u64),
}

const LEAF_SIZE: usize = std::mem::size_of::<Leaf>();
const INNER_SIZE: usize = std::mem::size_of::<Inner>();

/// Dereferences the node-kind tag.
///
/// # Safety
///
/// `raw` must point to an initialized node.
unsafe fn kind_of(raw: u64) -> u64 {
    // SAFETY: both node types start with the kind word.
    unsafe { *(PmPtr::<u64>::from_raw(raw).as_ptr()) }
}

/// # Safety: `raw` must be an initialized leaf.
unsafe fn leaf_of<'a>(raw: u64) -> &'a Leaf {
    // SAFETY: per caller contract.
    unsafe { &*(PmPtr::<Leaf>::from_raw(raw).as_ptr()) }
}

/// # Safety: `raw` must be an initialized inner node.
unsafe fn inner_of<'a>(raw: u64) -> &'a Inner {
    // SAFETY: per caller contract.
    unsafe { &*(PmPtr::<Inner>::from_raw(raw).as_ptr()) }
}

/// The BzTree.
pub struct BzTree {
    pool: Arc<PmemPool>,
    mode: KeyMode,
    collector: Arc<Collector>,
    mwcas: PmwCasRunner,
    /// Per-operation latency histograms (obsv recorder).
    ops: obsv::OpHistograms,
}

impl BzTree {
    /// Creates a BzTree in a fresh pool.
    pub fn create(name: &str, pool_size: usize, mode: KeyMode) -> Result<Arc<BzTree>> {
        let pool = PmemPool::create(PoolConfig {
            name: name.to_string(),
            size: pool_size,
            numa_node: pmem::numa::current_node(),
            crash_sim: false,
            alloc_mode: AllocMode::CrashConsistent,
        })?;
        let collector = Arc::new(Collector::new());
        let tree = BzTree {
            mwcas: PmwCasRunner::new(Arc::clone(&pool), Arc::clone(&collector)),
            pool,
            mode,
            collector,
            ops: obsv::OpHistograms::new(),
        };
        let root = tree.alloc_leaf()?;
        tree.pool.allocator().root(0).store(root, Ordering::Release);
        persist::persist_obj_fenced(tree.pool.allocator().root(0));
        Ok(Arc::new(tree))
    }

    /// Creates a BzTree in a fresh pool with crash simulation enabled.
    pub fn create_durable(name: &str, pool_size: usize, mode: KeyMode) -> Result<Arc<BzTree>> {
        let pool = PmemPool::create(PoolConfig {
            name: name.to_string(),
            size: pool_size,
            numa_node: pmem::numa::current_node(),
            crash_sim: true,
            alloc_mode: AllocMode::CrashConsistent,
        })?;
        let collector = Arc::new(Collector::new());
        let tree = BzTree {
            mwcas: PmwCasRunner::new(Arc::clone(&pool), Arc::clone(&collector)),
            pool,
            mode,
            collector,
            ops: obsv::OpHistograms::new(),
        };
        let root = tree.alloc_leaf()?;
        tree.pool.allocator().root(0).store(root, Ordering::Release);
        persist::persist_obj_fenced(tree.pool.allocator().root(0));
        Ok(Arc::new(tree))
    }

    /// Reattaches to a crashed-and-remounted pool, completing every PMwCAS
    /// the crash interrupted: any word still holding a marked descriptor
    /// pointer is rolled forward (status `SUCCEEDED`) or back (undecided or
    /// failed) via [`crate::pmwcas::recover_word`]. Descriptors that never
    /// finished are abandoned in place (their space leaks until an offline
    /// sweep, like pre-crash freelist contents — see DESIGN.md).
    pub fn recover(name: &str, mode: KeyMode) -> Result<Arc<BzTree>> {
        let pool =
            pool::pool_by_name(name).ok_or_else(|| PmemError::PoolNotFound(name.to_string()))?;
        pool.allocator().recover_logs();
        let collector = Arc::new(Collector::new());
        let tree = BzTree {
            mwcas: PmwCasRunner::new(Arc::clone(&pool), Arc::clone(&collector)),
            pool,
            mode,
            collector,
            ops: obsv::OpHistograms::new(),
        };
        tree.scrub_descriptors();
        Ok(Arc::new(tree))
    }

    /// Walks the tree scrubbing every PMwCAS-managed word (root cell, inner
    /// child pointers, leaf status and record metadata). Defensive against
    /// torn crash images: node pointers are bounds-checked, counts clamped.
    fn scrub_descriptors(&self) {
        let root = crate::pmwcas::recover_word(&self.pool, self.root_cell());
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(raw) = stack.pop() {
            if raw == 0 || !seen.insert(raw) {
                continue;
            }
            match self.checked_kind(raw) {
                Some(KIND_LEAF) => {
                    // SAFETY: bounds-checked by `checked_kind`.
                    let leaf = unsafe { leaf_of(raw) };
                    crate::pmwcas::recover_word(&self.pool, &leaf.status);
                    for i in 0..LEAF_CAP {
                        crate::pmwcas::recover_word(&self.pool, &leaf.records[i][0]);
                    }
                }
                Some(KIND_INNER) => {
                    // SAFETY: bounds-checked by `checked_kind`.
                    let inner = unsafe { inner_of(raw) };
                    let n = (inner.count as usize).min(INNER_CAP);
                    crate::pmwcas::recover_word(&self.pool, &inner.version);
                    for i in 0..=n {
                        stack.push(crate::pmwcas::recover_word(&self.pool, &inner.children[i]));
                    }
                }
                _ => {} // garbage pointer or torn node: unreachable data
            }
        }
        persist::fence();
    }

    /// Reads a node's kind tag if `raw` points at a plausible node of this
    /// pool (either node type fits in bounds).
    fn checked_kind(&self, raw: u64) -> Option<u64> {
        let p = PmPtr::<u64>::from_raw(raw);
        if p.is_null() || p.pool_id() != self.pool.id() {
            return None;
        }
        let off = p.offset();
        let max = LEAF_SIZE.max(INNER_SIZE) as u64;
        if !off.is_multiple_of(8) || off + max > self.pool.size() as u64 {
            return None;
        }
        // SAFETY: bounds-checked above.
        Some(unsafe { *p.as_ptr() })
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

    fn root_cell(&self) -> &AtomicU64 {
        self.pool.allocator().root(0)
    }

    fn alloc_leaf(&self) -> Result<u64> {
        let ptr = self.pool.allocator().alloc(LEAF_SIZE)?;
        // SAFETY: fresh LEAF_SIZE allocation.
        unsafe {
            ptr.as_mut_ptr().write_bytes(0, LEAF_SIZE);
            (ptr.as_mut_ptr() as *mut u64).write(KIND_LEAF);
        }
        persist::persist(ptr.as_ptr(), LEAF_SIZE);
        persist::fence();
        Ok(ptr.raw())
    }

    // -- Key encoding (same scheme as FastFair) ------------------------------

    fn encode_key(&self, key: &[u8]) -> Result<u64> {
        match self.mode {
            KeyMode::Integer => {
                let arr: [u8; 8] = key
                    .try_into()
                    .map_err(|_| PmemError::Corruption("integer mode needs 8-byte keys"))?;
                let v = u64::from_be_bytes(arr);
                if v >= u64::MAX - 1 {
                    return Err(PmemError::Corruption("key too large for encoding"));
                }
                Ok((v + 1) << 1) // keep bit 0 clear for PMwCAS-adjacent words
            }
            KeyMode::String => {
                let ptr = self.pool.allocator().alloc(4 + key.len())?;
                // SAFETY: fresh allocation.
                unsafe {
                    (ptr.as_mut_ptr() as *mut u32).write(key.len() as u32);
                    std::ptr::copy_nonoverlapping(key.as_ptr(), ptr.as_mut_ptr().add(4), key.len());
                }
                persist::persist(ptr.as_ptr(), 4 + key.len());
                Ok(ptr.raw())
            }
        }
    }

    fn cmp_key(&self, word: u64, key: &[u8]) -> std::cmp::Ordering {
        match self.mode {
            KeyMode::Integer => {
                let stored = ((word >> 1) - 1).to_be_bytes();
                stored.as_slice().cmp(key)
            }
            KeyMode::String => {
                let p = PmPtr::<u8>::from_raw(word);
                pmem::model::on_read(p.pool_id(), p.offset(), 64);
                // SAFETY: key blocks are immutable.
                let len = unsafe { *(p.as_ptr() as *const u32) } as usize;
                // SAFETY: block is len + 4 bytes.
                let bytes = unsafe { std::slice::from_raw_parts(p.as_ptr().add(4), len) };
                bytes.cmp(key)
            }
        }
    }

    fn decode_key(&self, word: u64) -> Vec<u8> {
        match self.mode {
            KeyMode::Integer => ((word >> 1) - 1).to_be_bytes().to_vec(),
            KeyMode::String => {
                let p = PmPtr::<u8>::from_raw(word);
                // SAFETY: immutable key block.
                let len = unsafe { *(p.as_ptr() as *const u32) } as usize;
                // SAFETY: block is len + 4 bytes.
                unsafe { std::slice::from_raw_parts(p.as_ptr().add(4), len) }.to_vec()
            }
        }
    }

    // -- Traversal ------------------------------------------------------------

    /// Descends to the leaf covering `key`, recording `(inner, child_idx)`
    /// along the way.
    fn descend(&self, _guard: &Guard<'_>, key: &[u8]) -> (Vec<(u64, usize)>, u64) {
        let mut path = Vec::new();
        let mut raw = read_word(self.root_cell());
        loop {
            pmem::model::on_read(
                PmPtr::<u8>::from_raw(raw).pool_id(),
                PmPtr::<u8>::from_raw(raw).offset(),
                512,
            );
            // SAFETY: nodes reached through PMwCAS-read words are live
            // (epoch-pinned).
            if unsafe { kind_of(raw) } == KIND_LEAF {
                return (path, raw);
            }
            // SAFETY: inner node.
            let inner = unsafe { inner_of(raw) };
            let n = inner.count as usize;
            let mut idx = n;
            for i in 0..n {
                if self.cmp_key(inner.keys[i], key) == std::cmp::Ordering::Greater {
                    idx = i;
                    break;
                }
            }
            path.push((raw, idx));
            raw = read_word(&inner.children[idx]);
        }
    }

    /// Finds the newest visible record for `key` in a leaf.
    fn leaf_find(&self, leaf: &Leaf, key: &[u8]) -> Option<(usize, u64)> {
        let s = read_word(&leaf.status);
        let n = st_count(s);
        for i in (0..n).rev() {
            let meta = leaf.records[i][0].load(Ordering::Acquire);
            if meta & META_VISIBLE == 0 {
                continue;
            }
            let kw = leaf.records[i][1].load(Ordering::Acquire);
            if self.cmp_key(kw, key) == std::cmp::Ordering::Equal {
                if meta & META_DELETED != 0 {
                    return None; // newest record is a tombstone-marked one
                }
                return Some((i, leaf.records[i][2].load(Ordering::Acquire)));
            }
        }
        None
    }

    // -- Public operations ------------------------------------------------------

    /// Point lookup (lock-free).
    pub fn lookup(&self, key: &[u8]) -> Option<u64> {
        let timer = obsv::OpTimer::start();
        let result = self.lookup_inner(key);
        self.ops.finish(obsv::OpKind::Lookup, timer, 0);
        result
    }

    fn lookup_inner(&self, key: &[u8]) -> Option<u64> {
        let guard = self.collector.pin();
        let (_, leaf_raw) = self.descend(&guard, key);
        // SAFETY: live leaf.
        let leaf = unsafe { leaf_of(leaf_raw) };
        self.leaf_find(leaf, key).map(|(_, v)| v)
    }

    /// Inserts or updates; returns the previous value if present.
    pub fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        let timer = obsv::OpTimer::start();
        let result = self.insert_inner(key, value);
        self.ops.finish(obsv::OpKind::Insert, timer, 0);
        result
    }

    fn insert_inner(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        let guard = self.collector.pin();
        loop {
            let (path, leaf_raw) = self.descend(&guard, key);
            // SAFETY: live leaf.
            let leaf = unsafe { leaf_of(leaf_raw) };
            let s = read_word(&leaf.status);
            if st_frozen(s) {
                self.consolidate(&guard, &path, leaf_raw)?;
                continue;
            }
            let old = self.leaf_find(leaf, key).map(|(_, v)| v);
            let n = st_count(s);
            if n == LEAF_CAP {
                self.freeze_and_consolidate(&guard, &path, leaf_raw, s)?;
                continue;
            }
            // Reserve slot n with a 2-word PMwCAS (status count bump +
            // metadata reservation).
            let s2 = st_with_count(s, n + 1);
            if !self.mwcas.execute(
                &guard,
                &[
                    (&leaf.status, s, s2),
                    (&leaf.records[n][0], 0, META_RESERVED),
                ],
            )? {
                continue;
            }
            // Write the record payload, persist, then publish.
            let kw = self.encode_key(key)?;
            leaf.records[n][1].store(kw, Ordering::Release);
            leaf.records[n][2].store(value, Ordering::Release);
            persist::persist(leaf.records[n].as_ptr() as *const u8, 24);
            persist::fence();
            leaf.records[n][0].store(META_VISIBLE, Ordering::Release);
            persist::persist_obj_fenced(&leaf.records[n][0]);
            // Freeze race: a concurrent consolidation may have collected the
            // records before our publish and missed this one. Re-execute the
            // upsert in that case (duplicates are newest-wins, so a benign
            // re-insert of the same value is safe).
            if st_frozen(read_word(&leaf.status)) {
                continue;
            }
            return Ok(old);
        }
    }

    /// Removes `key`; returns its value if present (tombstones the newest
    /// visible record; space is reclaimed at consolidation).
    pub fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        let timer = obsv::OpTimer::start();
        let result = self.remove_inner(key);
        self.ops.finish(obsv::OpKind::Remove, timer, 0);
        result
    }

    fn remove_inner(&self, key: &[u8]) -> Result<Option<u64>> {
        let guard = self.collector.pin();
        loop {
            let (_, leaf_raw) = self.descend(&guard, key);
            // SAFETY: live leaf.
            let leaf = unsafe { leaf_of(leaf_raw) };
            let s = read_word(&leaf.status);
            if st_frozen(s) {
                // A consolidation is in flight; retry against the new leaf.
                std::thread::yield_now();
                continue;
            }
            let Some((slot, value)) = self.leaf_find(leaf, key) else {
                return Ok(None);
            };
            let meta = leaf.records[slot][0].load(Ordering::Acquire);
            if meta & META_DELETED != 0 {
                return Ok(None);
            }
            if leaf.records[slot][0]
                .compare_exchange(
                    meta,
                    meta | META_DELETED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                persist::persist_obj_fenced(&leaf.records[slot][0]);
                return Ok(Some(value));
            }
        }
    }

    /// Ordered scan: snapshots and sorts each leaf (the paper's BzTree scan
    /// overhead).
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let timer = obsv::OpTimer::start();
        let guard = self.collector.pin();
        let mut out = Vec::with_capacity(count.min(4096));
        let root = read_word(self.root_cell());
        self.scan_rec(&guard, root, start, count, &mut out);
        out.truncate(count);
        self.ops.finish(obsv::OpKind::Scan, timer, 0);
        out
    }

    // `guard` witnesses that the caller holds an epoch pin for the whole
    // recursive descent; it is only threaded through, hence the allow.
    #[allow(clippy::only_used_in_recursion)]
    fn scan_rec(
        &self,
        guard: &Guard<'_>,
        raw: u64,
        start: &[u8],
        count: usize,
        out: &mut Vec<(Vec<u8>, u64)>,
    ) -> bool {
        if out.len() >= count {
            return false;
        }
        // SAFETY: live node (epoch-pinned).
        if unsafe { kind_of(raw) } == KIND_LEAF {
            // SAFETY: leaf.
            let leaf = unsafe { leaf_of(raw) };
            pmem::model::on_read(
                PmPtr::<u8>::from_raw(raw).pool_id(),
                PmPtr::<u8>::from_raw(raw).offset(),
                LEAF_SIZE,
            );
            // Snapshot: newest-wins dedup, then sort.
            let s = read_word(&leaf.status);
            let n = st_count(s);
            let mut seen: Vec<(Vec<u8>, Option<u64>)> = Vec::new();
            for i in (0..n).rev() {
                let meta = leaf.records[i][0].load(Ordering::Acquire);
                if meta & META_VISIBLE == 0 {
                    continue;
                }
                let k = self.decode_key(leaf.records[i][1].load(Ordering::Acquire));
                if seen.iter().any(|(sk, _)| sk == &k) {
                    continue;
                }
                let v =
                    (meta & META_DELETED == 0).then(|| leaf.records[i][2].load(Ordering::Acquire));
                seen.push((k, v));
            }
            seen.sort();
            for (k, v) in seen {
                if k.as_slice() >= start {
                    if let Some(v) = v {
                        out.push((k, v));
                        if out.len() >= count {
                            return false;
                        }
                    }
                }
            }
            return true;
        }
        // SAFETY: inner node.
        let inner = unsafe { inner_of(raw) };
        let n = inner.count as usize;
        // First child that can contain keys >= start: the one covering the
        // slot where `start` would land (same rule as `descend`).
        let mut idx = n;
        for i in 0..n {
            if self.cmp_key(inner.keys[i], start) == std::cmp::Ordering::Greater {
                idx = i;
                break;
            }
        }
        for j in idx..=n {
            let child = read_word(&inner.children[j]);
            if !self.scan_rec(guard, child, start, count, out) {
                return false;
            }
        }
        true
    }

    // -- Consolidation and splits -------------------------------------------------

    fn freeze_and_consolidate(
        &self,
        guard: &Guard<'_>,
        path: &[(u64, usize)],
        leaf_raw: u64,
        s: u64,
    ) -> Result<()> {
        // SAFETY: live leaf.
        let leaf = unsafe { leaf_of(leaf_raw) };
        // Freeze with a 1-word PMwCAS; losing the race is fine (someone else
        // froze it).
        let _ = self
            .mwcas
            .execute(guard, &[(&leaf.status, s, s | ST_FROZEN_BIT)])?;
        self.consolidate(guard, path, leaf_raw)
    }

    /// Rebuilds a frozen leaf into one or two compacted leaves and swaps the
    /// parent child pointer via PMwCAS.
    fn consolidate(&self, guard: &Guard<'_>, path: &[(u64, usize)], leaf_raw: u64) -> Result<()> {
        // SAFETY: live (frozen) leaf.
        let leaf = unsafe { leaf_of(leaf_raw) };
        let s = read_word(&leaf.status);
        if !st_frozen(s) {
            return Ok(()); // already replaced by a helper
        }
        // Collect live records: newest wins, tombstones drop out.
        let n = st_count(s);
        // Newest record wins per key; deleted newest drops the key.
        // Key bytes -> Some((key word, value)) for live, None for tombstoned.
        type Newest = Vec<(Vec<u8>, Option<(u64, u64)>)>;
        let mut newest: Newest = Vec::new();
        for i in (0..n).rev() {
            let meta = leaf.records[i][0].load(Ordering::Acquire);
            if meta & META_VISIBLE == 0 {
                continue;
            }
            let kw = leaf.records[i][1].load(Ordering::Acquire);
            let k = self.decode_key(kw);
            if newest.iter().any(|(lk, _)| lk == &k) {
                continue;
            }
            let payload = (meta & META_DELETED == 0)
                .then(|| (kw, leaf.records[i][2].load(Ordering::Acquire)));
            newest.push((k, payload));
        }
        let mut live: Vec<(Vec<u8>, u64, u64)> = newest
            .into_iter()
            .filter_map(|(k, p)| p.map(|(kw, v)| (k, kw, v)))
            .collect();
        live.sort();

        let (new, fresh) = if live.len() > SPLIT_THRESHOLD {
            // Two new leaves + separator into the parent.
            let mid = live.len() / 2;
            let left = self.build_leaf(&live[..mid])?;
            let right = self.build_leaf(&live[mid..])?;
            (
                Replacement::Split(left, live[mid].1, right),
                vec![left, right],
            )
        } else {
            let newleaf = self.build_leaf(&live)?;
            (Replacement::One(newleaf), vec![newleaf])
        };
        self.install(guard, path, leaf_raw, None, new, fresh)
    }

    fn build_leaf(&self, records: &[(Vec<u8>, u64, u64)]) -> Result<u64> {
        let raw = self.alloc_leaf()?;
        // SAFETY: fresh private leaf.
        let leaf = unsafe { leaf_of(raw) };
        for (i, (_, kw, v)) in records.iter().enumerate() {
            leaf.records[i][0].store(META_VISIBLE, Ordering::Relaxed);
            leaf.records[i][1].store(*kw, Ordering::Relaxed);
            leaf.records[i][2].store(*v, Ordering::Relaxed);
        }
        leaf.status
            .store(st_with_count(0, records.len()), Ordering::Release);
        persist::persist(PmPtr::<u8>::from_raw(raw).as_ptr(), LEAF_SIZE);
        persist::fence();
        Ok(raw)
    }

    /// Puts `new` in the place of `old` — a frozen leaf, or an inner node
    /// read at version `old_ver` — with one PMwCAS, or gives up having
    /// published nothing (the caller's operation re-descends and retries).
    /// `fresh` lists the nodes built for `new`: freed on a loss, as every
    /// node a success unlinks is retired.
    ///
    /// A split pair is first turned into a single replacement one level up
    /// (a copy of the parent with the separator added). The PMwCAS then
    /// swaps the child pointer (or root cell), bumps the version of the node
    /// holding that pointer, and freezes each replaced inner node at the
    /// version its content was read at. So it fails if any child pointer of
    /// a copied node moved after the copy was read, or if the node holding
    /// the pointer was itself replaced meanwhile: a stale copy would drop a
    /// sibling's newer leaf, a swap into an unlinked node would go nowhere —
    /// either loses acknowledged inserts.
    fn install(
        &self,
        guard: &Guard<'_>,
        path: &[(u64, usize)],
        old: u64,
        old_ver: Option<u64>,
        new: Replacement,
        mut fresh: Vec<u64>,
    ) -> Result<()> {
        let mut replaced = vec![old];
        if self.try_install(guard, path, old, old_ver, new, &mut fresh, &mut replaced)? {
            for raw in replaced {
                self.retire_node(guard, raw);
            }
        } else {
            for raw in fresh {
                self.free_node_now(raw);
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn try_install(
        &self,
        guard: &Guard<'_>,
        path: &[(u64, usize)],
        old: u64,
        old_ver: Option<u64>,
        new: Replacement,
        fresh: &mut Vec<u64>,
        replaced: &mut Vec<u64>,
    ) -> Result<bool> {
        // SAFETY: only called on `old` when `old_ver` is given — exactly
        // when it is an inner node — and on inner nodes of the path, which
        // are live (epoch-pinned).
        let freeze =
            |raw: u64, v: u64| (&unsafe { inner_of(raw) }.version, v, v | INNER_FROZEN_BIT);
        let mut words = Vec::with_capacity(crate::pmwcas::MAX_WORDS);
        words.extend(old_ver.map(|v| freeze(old, v)));
        let (path, old, node) = match (new, path.split_last()) {
            (Replacement::One(node), _) => (path, old, node),
            (Replacement::Split(left, sep, right), None) => {
                let root = self.build_inner(&[sep], &[left, right])?;
                fresh.push(root);
                (path, old, root)
            }
            (Replacement::Split(left, sep, right), Some((&(parent_raw, idx), rest))) => {
                // SAFETY: inner nodes on the path are live (epoch-pinned).
                let parent = unsafe { inner_of(parent_raw) };
                let pv = read_word(&parent.version);
                if pv & INNER_FROZEN_BIT != 0 || read_word(&parent.children[idx]) != old {
                    return Ok(false);
                }
                let n = parent.count as usize;
                if n == INNER_CAP {
                    // No room for the separator: split the parent as a step
                    // of its own (one PMwCAS holds four words, which covers
                    // two copied levels, not a cascade) and have the caller
                    // retry against the halves.
                    self.split_inner(guard, rest, parent_raw, pv)?;
                    return Ok(false);
                }
                let mut keys = parent.keys[..n].to_vec();
                let mut children: Vec<u64> =
                    (0..=n).map(|i| read_word(&parent.children[i])).collect();
                keys.insert(idx, sep);
                children[idx] = left;
                children.insert(idx + 1, right);
                let copy = self.build_inner(&keys, &children)?;
                fresh.push(copy);
                // `old` needs no word of its own: the copy leaves it out,
                // and the parent's version proves the slot still held it.
                words.push(freeze(parent_raw, pv));
                replaced.push(parent_raw);
                (rest, parent_raw, copy)
            }
        };
        match path.last() {
            None => words.push((self.root_cell(), old, node)),
            Some(&(holder_raw, idx)) => {
                // SAFETY: as above.
                let holder = unsafe { inner_of(holder_raw) };
                let hv = read_word(&holder.version);
                if hv & INNER_FROZEN_BIT != 0 {
                    return Ok(false);
                }
                words.push((&holder.version, hv, hv + INNER_VERSION_STEP));
                words.push((&holder.children[idx], old, node));
            }
        }
        self.mwcas.execute(guard, &words)
    }

    /// Splits the full inner node `raw` (read at version `ver`) in two.
    fn split_inner(
        &self,
        guard: &Guard<'_>,
        path: &[(u64, usize)],
        raw: u64,
        ver: u64,
    ) -> Result<()> {
        // SAFETY: live inner node (epoch-pinned).
        let inner = unsafe { inner_of(raw) };
        let n = inner.count as usize;
        let children: Vec<u64> = (0..=n).map(|i| read_word(&inner.children[i])).collect();
        let mid = n / 2;
        let left = self.build_inner(&inner.keys[..mid], &children[..=mid])?;
        let right = self.build_inner(&inner.keys[mid + 1..n], &children[mid + 1..])?;
        let new = Replacement::Split(left, inner.keys[mid], right);
        self.install(guard, path, raw, Some(ver), new, vec![left, right])
    }

    fn build_inner(&self, keys: &[u64], children: &[u64]) -> Result<u64> {
        assert!(keys.len() <= INNER_CAP && children.len() == keys.len() + 1);
        let ptr = self.pool.allocator().alloc(INNER_SIZE)?;
        // SAFETY: fresh INNER_SIZE allocation.
        unsafe {
            ptr.as_mut_ptr().write_bytes(0, INNER_SIZE);
            let inner = &mut *(ptr.as_mut_ptr() as *mut Inner);
            inner.kind = KIND_INNER;
            inner.count = keys.len() as u64;
            inner.keys[..keys.len()].copy_from_slice(keys);
            for (i, &c) in children.iter().enumerate() {
                inner.children[i] = AtomicU64::new(c);
            }
        }
        persist::persist(ptr.as_ptr(), INNER_SIZE);
        persist::fence();
        Ok(ptr.raw())
    }

    fn retire_node(&self, guard: &Guard<'_>, raw: u64) {
        // SAFETY: node was reachable; size from its kind tag.
        let size = if unsafe { kind_of(raw) } == KIND_LEAF {
            LEAF_SIZE
        } else {
            INNER_SIZE
        };
        let pool = Arc::clone(&self.pool);
        self.collector.defer(guard, move || {
            pool.allocator().free(PmPtr::from_raw(raw), size);
        });
    }

    fn free_node_now(&self, raw: u64) {
        // SAFETY: never published — exclusively ours.
        let size = if unsafe { kind_of(raw) } == KIND_LEAF {
            LEAF_SIZE
        } else {
            INNER_SIZE
        };
        self.pool.allocator().free(PmPtr::from_raw(raw), size);
    }

    /// Live pairs — O(n), tests only.
    pub fn len(&self) -> usize {
        self.scan(b"", usize::MAX >> 1).len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl obsv::OpRecorder for BzTree {
    fn op_histograms(&self) -> &obsv::OpHistograms {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn integer_crud() {
        let t = BzTree::create("bz-int", 512 << 20, KeyMode::Integer).unwrap();
        let mut model = BTreeMap::new();
        let mut x = 7u64;
        for i in 0..15_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = x % 6000;
            let old = t.insert(&k.to_be_bytes(), i).unwrap();
            assert_eq!(old, model.insert(k, i), "insert {k} at step {i}");
        }
        for (&k, &v) in &model {
            assert_eq!(t.lookup(&k.to_be_bytes()), Some(v), "lookup {k}");
        }
        assert_eq!(t.len(), model.len());
        t.destroy();
    }

    #[test]
    fn remove_tombstones() {
        let t = BzTree::create("bz-del", 256 << 20, KeyMode::Integer).unwrap();
        for i in 0..500u64 {
            t.insert(&i.to_be_bytes(), i).unwrap();
        }
        for i in (0..500u64).step_by(3) {
            assert_eq!(t.remove(&i.to_be_bytes()).unwrap(), Some(i));
            assert_eq!(
                t.remove(&i.to_be_bytes()).unwrap(),
                None,
                "double delete {i}"
            );
        }
        for i in 0..500u64 {
            let expect = (i % 3 != 0).then_some(i);
            assert_eq!(t.lookup(&i.to_be_bytes()), expect, "key {i}");
        }
        // Reinsert over tombstones.
        for i in (0..500u64).step_by(3) {
            assert_eq!(t.insert(&i.to_be_bytes(), i + 1000).unwrap(), None);
            assert_eq!(t.lookup(&i.to_be_bytes()), Some(i + 1000));
        }
        t.destroy();
    }

    #[test]
    fn scan_sorted() {
        let t = BzTree::create("bz-scan", 256 << 20, KeyMode::Integer).unwrap();
        for i in (0..800u64).rev() {
            t.insert(&(i * 2).to_be_bytes(), i).unwrap();
        }
        let got: Vec<u64> = t
            .scan(&100u64.to_be_bytes(), 10)
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(got, (50..60).map(|i| i * 2).collect::<Vec<_>>());
        t.destroy();
    }

    #[test]
    fn string_mode() {
        let t = BzTree::create("bz-str", 256 << 20, KeyMode::String).unwrap();
        let mut model = BTreeMap::new();
        for i in 0..3000u64 {
            let k = format!("user{:07}", (i * 131) % 4000);
            let old = t.insert(k.as_bytes(), i).unwrap();
            assert_eq!(old, model.insert(k, i));
        }
        for (k, &v) in &model {
            assert_eq!(t.lookup(k.as_bytes()), Some(v));
        }
        let got = t.scan(b"user0002000", 5);
        let expect: Vec<(Vec<u8>, u64)> = model
            .range("user0002000".to_string()..)
            .take(5)
            .map(|(k, v)| (k.clone().into_bytes(), *v))
            .collect();
        assert_eq!(got, expect);
        t.destroy();
    }

    // Looped: one acknowledged insert in ~12 000 used to vanish in about one
    // run in twenty, when a parent copied for a split replaced a parent in
    // which a sibling leaf had been swapped meanwhile (see `try_install`).
    #[test]
    fn concurrent_disjoint_inserts() {
        for round in 0..200 {
            let t = BzTree::create("bz-conc", 512 << 20, KeyMode::Integer).unwrap();
            let mut handles = Vec::new();
            for tid in 0..6u64 {
                let t = Arc::clone(&t);
                handles.push(std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        let k = tid * 100_000 + i;
                        t.insert(&k.to_be_bytes(), k).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            for tid in 0..6u64 {
                for i in (0..2000u64).step_by(17) {
                    let k = tid * 100_000 + i;
                    assert_eq!(t.lookup(&k.to_be_bytes()), Some(k), "round {round}");
                }
            }
            assert_eq!(t.len(), 12_000, "round {round}");
            t.destroy();
        }
    }
}
