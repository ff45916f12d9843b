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
use pmem::handle::{Cast, Family};
use pmem::persist;
use pmem::pool::{self, PmemPool, PoolConfig};
use pmem::pptr::PmPtr;
use pmem::{AllocMode, PmemError, Ref, Result};

use crate::fastfair::{cmp_string_key, decode_string_key, encode_string_key, KeyMode};
use crate::pmwcas::{read_word, recover_word, PmwCasRunner};

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

/// What both node layouts start with: the kind tag.
#[repr(C)]
struct BzNode {
    kind: u64,
}

/// A leaf: status word + per-record (meta, key word, value) triples; status
/// and meta words are PMwCAS targets, read with [`read_word`].
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
const _: () = assert!(LEAF_SIZE >= INNER_SIZE);

/// A node as the layout its kind names.
#[derive(Clone, Copy)]
enum Kind<'g> {
    Leaf(&'g Leaf),
    Inner(&'g Inner),
}

impl<'g> Kind<'g> {
    fn leaf(self) -> &'g Leaf {
        let Kind::Leaf(leaf) = self else {
            panic!("an inner node is not a leaf")
        };
        leaf
    }

    fn inner(self) -> &'g Inner {
        let Kind::Inner(inner) = self else {
            panic!("a leaf is not an inner node")
        };
        inner
    }
}

// SAFETY: both layouts are `#[repr(C)]`, start with the kind word and are
// made of integers and atomics; the kind is written before a node is
// linked and never changes while it is allocated. A link (the root cell or
// an inner node's child) holds a node built and persisted before the
// PMwCAS that stored it, or a marked descriptor, which names no node. A
// node is freed through the tree's collector two epochs after the PMwCAS
// that unlinked it; a replaced inner node is frozen, so its child links
// still name nodes linked when it was. `SPAN` is the larger layout, a leaf.
unsafe impl Family for BzNode {
    type View<'g> = Kind<'g>;
    const SPAN: usize = LEAF_SIZE;

    fn view(node: Cast<'_, BzNode>) -> Kind<'_> {
        if node.head().kind == KIND_LEAF {
            Kind::Leaf(node.to())
        } else {
            Kind::Inner(node.to())
        }
    }
}

/// The node a PMwCAS-managed link names, after helping any descriptor
/// installed there.
fn load<'g>(link: &AtomicU64, guard: &'g Guard<'_>) -> Ref<'g, BzNode> {
    loop {
        if let Some(node) = Ref::load(link, guard) {
            return node;
        }
        assert_ne!(read_word(link, guard), 0, "a BzTree link is never empty");
    }
}

/// A step of a root-to-leaf descent: an inner node and the index of the
/// child taken.
type Step<'g> = (Ref<'g, BzNode>, usize);

/// The BzTree.
pub struct BzTree {
    pool: Arc<PmemPool>,
    mode: KeyMode,
    collector: Arc<Collector>,
    mwcas: PmwCasRunner,
}

impl BzTree {
    /// Creates a BzTree in a fresh pool; `crash_sim` keeps a media image so
    /// the tree can be crash-tested and recovered.
    pub fn create(
        name: &str,
        pool_size: usize,
        mode: KeyMode,
        crash_sim: bool,
    ) -> Result<Arc<BzTree>> {
        let pool = PmemPool::create(PoolConfig {
            name: name.to_string(),
            size: pool_size,
            numa_node: pmem::numa::current_node(),
            crash_sim,
            alloc_mode: AllocMode::CrashConsistent,
        })?;
        let collector = Arc::new(Collector::new());
        let tree = BzTree {
            mwcas: PmwCasRunner::new(Arc::clone(&pool), Arc::clone(&collector)),
            pool,
            mode,
            collector,
        };
        let root = tree.alloc_leaf(None)?;
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
        };
        tree.scrub_descriptors();
        Ok(Arc::new(tree))
    }

    /// Walks the tree scrubbing every PMwCAS-managed word (root cell, inner
    /// child pointers, leaf status and record metadata). Defensive against
    /// torn crash images: node pointers are checked against the pool,
    /// counts clamped.
    fn scrub_descriptors(&self) {
        let root = recover_word(&self.pool, self.root_cell());
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(raw) = stack.pop() {
            if raw == 0 || !seen.insert(raw) {
                continue;
            }
            let Some(node) = Ref::<BzNode>::checked(raw, &self.pool) else {
                continue;
            };
            match node.kind {
                KIND_LEAF => {
                    let leaf = node.view().leaf();
                    recover_word(&self.pool, &leaf.status);
                    for i in 0..LEAF_CAP {
                        recover_word(&self.pool, &leaf.records[i][0]);
                    }
                }
                KIND_INNER => {
                    let inner = node.view().inner();
                    let n = (inner.count as usize).min(INNER_CAP);
                    recover_word(&self.pool, &inner.version);
                    for i in 0..=n {
                        stack.push(recover_word(&self.pool, &inner.children[i]));
                    }
                }
                _ => {} // torn node: unreachable data
            }
        }
        persist::fence();
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

    /// Allocates a leaf and returns its raw pointer, persisted once: empty,
    /// or, for a consolidation, holding its surviving `records` (sorted).
    /// Nothing can reach the leaf before this returns, so it needs no flush
    /// while still empty.
    fn alloc_leaf(&self, records: Option<&[(Vec<u8>, u64, u64)]>) -> Result<u64> {
        let ptr = self.pool.allocator().alloc(LEAF_SIZE)?;
        // SAFETY: fresh LEAF_SIZE allocation, ours alone until it is linked.
        let leaf = unsafe {
            ptr.as_mut_ptr().write_bytes(0, LEAF_SIZE);
            (ptr.as_mut_ptr() as *mut u64).write(KIND_LEAF);
            &*(ptr.as_ptr() as *const Leaf)
        };
        if let Some(records) = records {
            for (i, (_, kw, v)) in records.iter().enumerate() {
                leaf.records[i][0].store(META_VISIBLE, Ordering::Relaxed);
                leaf.records[i][1].store(*kw, Ordering::Relaxed);
                leaf.records[i][2].store(*v, Ordering::Relaxed);
            }
            leaf.status
                .store(st_with_count(0, records.len()), Ordering::Release);
        }
        persist::persist(ptr.as_ptr(), LEAF_SIZE);
        persist::fence();
        Ok(ptr.raw())
    }

    // -- Key encoding ---------------------------------------------------------

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
            KeyMode::String => encode_string_key(&self.pool, key),
        }
    }

    fn cmp_key(&self, word: u64, key: &[u8]) -> std::cmp::Ordering {
        match self.mode {
            KeyMode::Integer => {
                let stored = ((word >> 1) - 1).to_be_bytes();
                stored.as_slice().cmp(key)
            }
            KeyMode::String => cmp_string_key(word, key),
        }
    }

    fn decode_key(&self, word: u64) -> Vec<u8> {
        match self.mode {
            KeyMode::Integer => ((word >> 1) - 1).to_be_bytes().to_vec(),
            KeyMode::String => decode_string_key(word),
        }
    }

    // -- Traversal ------------------------------------------------------------

    /// Descends to the leaf covering `key`, recording `(inner, child_idx)`
    /// along the way.
    fn descend<'g>(&self, guard: &'g Guard<'_>, key: &[u8]) -> (Vec<Step<'g>>, Ref<'g, BzNode>) {
        let mut path = Vec::new();
        let mut node = load(self.root_cell(), guard);
        loop {
            node.charge_read(512);
            let Kind::Inner(inner) = node.view() else {
                return (path, node);
            };
            let idx = self.child_index(inner, key);
            path.push((node, idx));
            node = load(&inner.children[idx], guard);
        }
    }

    /// The child of `inner` covering `key`: the first whose separator is
    /// above it.
    fn child_index(&self, inner: &Inner, key: &[u8]) -> usize {
        let keys = &inner.keys[..inner.count as usize];
        keys.iter()
            .position(|&k| self.cmp_key(k, key) == std::cmp::Ordering::Greater)
            .unwrap_or(keys.len())
    }

    /// Finds the newest visible record for `key` in a leaf.
    fn leaf_find(&self, leaf: &Leaf, key: &[u8], guard: &Guard<'_>) -> Option<(usize, u64)> {
        let s = read_word(&leaf.status, guard);
        let n = st_count(s);
        for i in (0..n).rev() {
            let meta = read_word(&leaf.records[i][0], guard);
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
        let guard = self.collector.pin();
        let (_, leaf) = self.descend(&guard, key);
        self.leaf_find(leaf.view().leaf(), key, &guard)
            .map(|(_, v)| v)
    }

    /// Inserts or updates; returns the previous value if present.
    pub fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        let guard = self.collector.pin();
        loop {
            let (path, node) = self.descend(&guard, key);
            let leaf = node.view().leaf();
            let s = read_word(&leaf.status, &guard);
            if st_frozen(s) {
                self.consolidate(&guard, &path, node)?;
                continue;
            }
            let old = self.leaf_find(leaf, key, &guard).map(|(_, v)| v);
            let n = st_count(s);
            if n == LEAF_CAP {
                self.freeze_and_consolidate(&guard, &path, node, s)?;
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
            if st_frozen(read_word(&leaf.status, &guard)) {
                continue;
            }
            return Ok(old);
        }
    }

    /// Removes `key`; returns its value if present (tombstones the newest
    /// visible record; space is reclaimed at consolidation).
    pub fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        let guard = self.collector.pin();
        loop {
            let (_, node) = self.descend(&guard, key);
            let leaf = node.view().leaf();
            let s = read_word(&leaf.status, &guard);
            if st_frozen(s) {
                // A consolidation is in flight; retry against the new leaf.
                std::thread::yield_now();
                continue;
            }
            let Some((slot, value)) = self.leaf_find(leaf, key, &guard) else {
                return Ok(None);
            };
            let meta = read_word(&leaf.records[slot][0], &guard);
            if meta & META_DELETED != 0 {
                return Ok(None);
            }
            if self.tombstone(&guard, leaf, s, slot, meta)? {
                return Ok(Some(value));
            }
        }
    }

    /// Marks record `slot` deleted in the same PMwCAS that expects the status
    /// word still at `s`: marking it alone could hit a record a freeze since
    /// then had copied, losing the remove; this fails and the caller retries.
    fn tombstone(
        &self,
        guard: &Guard<'_>,
        leaf: &Leaf,
        s: u64,
        slot: usize,
        meta: u64,
    ) -> Result<bool> {
        self.mwcas.execute(
            guard,
            &[
                (&leaf.status, s, s),
                (&leaf.records[slot][0], meta, meta | META_DELETED),
            ],
        )
    }

    /// Ordered scan: snapshots and sorts each leaf (the paper's BzTree scan
    /// overhead).
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let guard = self.collector.pin();
        let mut out = Vec::with_capacity(count.min(4096));
        let root = load(self.root_cell(), &guard);
        self.scan_rec(&guard, root, start, count, &mut out);
        out.truncate(count);
        out
    }

    fn scan_rec(
        &self,
        guard: &Guard<'_>,
        node: Ref<'_, BzNode>,
        start: &[u8],
        count: usize,
        out: &mut Vec<(Vec<u8>, u64)>,
    ) -> bool {
        if out.len() >= count {
            return false;
        }
        let inner = match node.view() {
            Kind::Inner(inner) => inner,
            Kind::Leaf(leaf) => {
                node.charge_read(LEAF_SIZE);
                // Snapshot: newest-wins dedup, then sort.
                let s = read_word(&leaf.status, guard);
                let n = st_count(s);
                let mut seen: Vec<(Vec<u8>, Option<u64>)> = Vec::new();
                for i in (0..n).rev() {
                    let meta = read_word(&leaf.records[i][0], guard);
                    if meta & META_VISIBLE == 0 {
                        continue;
                    }
                    let k = self.decode_key(leaf.records[i][1].load(Ordering::Acquire));
                    if seen.iter().any(|(sk, _)| sk == &k) {
                        continue;
                    }
                    let v = (meta & META_DELETED == 0)
                        .then(|| leaf.records[i][2].load(Ordering::Acquire));
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
        };
        // First child that can contain keys >= start: the one covering the
        // slot where `start` would land (same rule as `descend`).
        for j in self.child_index(inner, start)..=inner.count as usize {
            let child = load(&inner.children[j], guard);
            if !self.scan_rec(guard, child, start, count, out) {
                return false;
            }
        }
        true
    }

    // -- Consolidation and splits -------------------------------------------------

    fn freeze_and_consolidate<'g>(
        &self,
        guard: &'g Guard<'_>,
        path: &[Step<'g>],
        node: Ref<'g, BzNode>,
        s: u64,
    ) -> Result<()> {
        // Freeze with a 1-word PMwCAS; losing the race is fine (someone else
        // froze it).
        let _ = self
            .mwcas
            .execute(guard, &[(&node.view().leaf().status, s, s | ST_FROZEN_BIT)])?;
        self.consolidate(guard, path, node)
    }

    /// Rebuilds a frozen leaf into one or two compacted leaves and swaps the
    /// parent child pointer via PMwCAS.
    fn consolidate<'g>(
        &self,
        guard: &'g Guard<'_>,
        path: &[Step<'g>],
        node: Ref<'g, BzNode>,
    ) -> Result<()> {
        let leaf = node.view().leaf();
        let s = read_word(&leaf.status, guard);
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
            let meta = read_word(&leaf.records[i][0], guard);
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
            let left = self.alloc_leaf(Some(&live[..mid]))?;
            let right = self.alloc_leaf(Some(&live[mid..]))?;
            (
                Replacement::Split(left, live[mid].1, right),
                vec![(left, LEAF_SIZE), (right, LEAF_SIZE)],
            )
        } else {
            let newleaf = self.alloc_leaf(Some(&live))?;
            (Replacement::One(newleaf), vec![(newleaf, LEAF_SIZE)])
        };
        self.install(guard, path, node, None, new, fresh)
    }

    /// Puts `new` in the place of `old` — a frozen leaf, or an inner node
    /// read at version `old_ver` — with one PMwCAS, or gives up having
    /// published nothing (the caller's operation re-descends and retries).
    /// `fresh` lists the nodes built for `new`, with their sizes: freed on a
    /// loss, as every node a success unlinks is retired.
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
    fn install<'g>(
        &self,
        guard: &'g Guard<'_>,
        path: &[Step<'g>],
        old: Ref<'g, BzNode>,
        old_ver: Option<u64>,
        new: Replacement,
        mut fresh: Vec<(u64, usize)>,
    ) -> Result<()> {
        let mut replaced = vec![old];
        if self.try_install(guard, path, old, old_ver, new, &mut fresh, &mut replaced)? {
            for node in replaced {
                let size = if node.kind == KIND_LEAF {
                    LEAF_SIZE
                } else {
                    INNER_SIZE
                };
                let (pool, raw) = (Arc::clone(&self.pool), node.raw());
                self.collector.defer(guard, move || {
                    pool.allocator().free(PmPtr::from_raw(raw), size);
                });
            }
        } else {
            for (raw, size) in fresh {
                self.pool.allocator().free(PmPtr::from_raw(raw), size);
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn try_install<'g>(
        &self,
        guard: &'g Guard<'_>,
        path: &[Step<'g>],
        old: Ref<'g, BzNode>,
        old_ver: Option<u64>,
        new: Replacement,
        fresh: &mut Vec<(u64, usize)>,
        replaced: &mut Vec<Ref<'g, BzNode>>,
    ) -> Result<bool> {
        // Only called on `old` when `old_ver` is given — exactly when it is
        // an inner node — and on inner nodes of the path.
        let freeze =
            |node: Ref<'g, BzNode>, v: u64| (&node.view().inner().version, v, v | INNER_FROZEN_BIT);
        let mut words = Vec::with_capacity(crate::pmwcas::MAX_WORDS);
        words.extend(old_ver.map(|v| freeze(old, v)));
        let (path, old, node) = match (new, path.split_last()) {
            (Replacement::One(node), _) => (path, old.raw(), node),
            (Replacement::Split(left, sep, right), None) => {
                let root = self.build_inner(&[sep], &[left, right])?;
                fresh.push((root, INNER_SIZE));
                (path, old.raw(), root)
            }
            (Replacement::Split(left, sep, right), Some((&(parent_node, idx), rest))) => {
                let parent = parent_node.view().inner();
                let pv = read_word(&parent.version, guard);
                if pv & INNER_FROZEN_BIT != 0
                    || read_word(&parent.children[idx], guard) != old.raw()
                {
                    return Ok(false);
                }
                let n = parent.count as usize;
                if n == INNER_CAP {
                    // No room for the separator: split the parent as a step
                    // of its own (one PMwCAS holds four words, which covers
                    // two copied levels, not a cascade) and have the caller
                    // retry against the halves.
                    self.split_inner(guard, rest, parent_node, pv)?;
                    return Ok(false);
                }
                let mut keys = parent.keys[..n].to_vec();
                let mut children: Vec<u64> = (0..=n)
                    .map(|i| read_word(&parent.children[i], guard))
                    .collect();
                keys.insert(idx, sep);
                children[idx] = left;
                children.insert(idx + 1, right);
                let copy = self.build_inner(&keys, &children)?;
                fresh.push((copy, INNER_SIZE));
                // `old` needs no word of its own: the copy leaves it out,
                // and the parent's version proves the slot still held it.
                words.push(freeze(parent_node, pv));
                replaced.push(parent_node);
                (rest, parent_node.raw(), copy)
            }
        };
        match path.last() {
            None => words.push((self.root_cell(), old, node)),
            Some(&(holder, idx)) => {
                let holder = holder.view().inner();
                let hv = read_word(&holder.version, guard);
                if hv & INNER_FROZEN_BIT != 0 {
                    return Ok(false);
                }
                words.push((&holder.version, hv, hv + INNER_VERSION_STEP));
                words.push((&holder.children[idx], old, node));
            }
        }
        self.mwcas.execute(guard, &words)
    }

    /// Splits the full inner `node` (read at version `ver`) in two.
    fn split_inner<'g>(
        &self,
        guard: &'g Guard<'_>,
        path: &[Step<'g>],
        node: Ref<'g, BzNode>,
        ver: u64,
    ) -> Result<()> {
        let inner = node.view().inner();
        let n = inner.count as usize;
        let children: Vec<u64> = (0..=n)
            .map(|i| read_word(&inner.children[i], guard))
            .collect();
        let mid = n / 2;
        let left = self.build_inner(&inner.keys[..mid], &children[..=mid])?;
        let right = self.build_inner(&inner.keys[mid + 1..n], &children[mid + 1..])?;
        let new = Replacement::Split(left, inner.keys[mid], right);
        let fresh = vec![(left, INNER_SIZE), (right, INNER_SIZE)];
        self.install(guard, path, node, Some(ver), new, fresh)
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

    /// Live pairs — O(n), tests only.
    pub fn len(&self) -> usize {
        self.scan(b"", usize::MAX >> 1).len()
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
    fn integer_crud() {
        let t = BzTree::create("bz-int", 512 << 20, KeyMode::Integer, false).unwrap();
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
        let t = BzTree::create("bz-del", 256 << 20, KeyMode::Integer, false).unwrap();
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
        let t = BzTree::create("bz-scan", 256 << 20, KeyMode::Integer, false).unwrap();
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
        let t = BzTree::create("bz-str", 256 << 20, KeyMode::String, false).unwrap();
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

    /// The race of `removes_survive_racing_consolidations`, interleaved by
    /// hand: a consolidation lands between a remove's reads and its
    /// tombstone.
    #[test]
    fn remove_interrupted_by_a_consolidation_retries_on_the_new_leaf() {
        let t = BzTree::create("bz-rm-freeze", 16 << 20, KeyMode::Integer, false).unwrap();
        for k in 0..8u64 {
            t.insert(&k.to_be_bytes(), k).unwrap();
        }
        let key = 3u64.to_be_bytes();
        let guard = t.collector.pin();
        // The pin keeps the leaf allocated after it is replaced.
        let (path, node) = t.descend(&guard, &key);
        let leaf = node.view().leaf();
        let s = read_word(&leaf.status, &guard);
        let (slot, _) = t.leaf_find(leaf, &key, &guard).unwrap();
        let meta = read_word(&leaf.records[slot][0], &guard);
        t.freeze_and_consolidate(&guard, &path, node, s).unwrap();
        assert!(
            !t.tombstone(&guard, leaf, s, slot, meta).unwrap(),
            "tombstoned a record the consolidation had already copied"
        );
        drop(guard);
        assert_eq!(t.lookup(&key), Some(3));
        assert_eq!(t.remove(&key).unwrap(), Some(3));
        assert_eq!(t.lookup(&key), None);
        t.destroy();
    }

    // Looped: removers take out preloaded keys while an inserter fills the
    // same leaves with the keys between them, so leaves freeze and
    // consolidate under the removes.
    #[test]
    fn removes_survive_racing_consolidations() {
        const KEYS: u64 = 1024;
        let present = |t: &BzTree, k: u64| t.lookup(&k.to_be_bytes()) == Some(k);
        for round in 0..200 {
            let t = BzTree::create("bz-rm-race", 64 << 20, KeyMode::Integer, false).unwrap();
            for k in (0..KEYS).step_by(2) {
                t.insert(&k.to_be_bytes(), k).unwrap();
            }
            let removed: Vec<u64> = std::thread::scope(|s| {
                s.spawn(|| {
                    for k in (1..KEYS).step_by(2) {
                        t.insert(&k.to_be_bytes(), k).unwrap();
                    }
                });
                let removers = [0, 2].map(|first| {
                    let t = &t;
                    s.spawn(move || {
                        (first..KEYS)
                            .step_by(4)
                            .filter(|&k| t.remove(&k.to_be_bytes()).unwrap() == Some(k))
                            .collect::<Vec<_>>()
                    })
                });
                removers
                    .into_iter()
                    .flat_map(|r| r.join().unwrap())
                    .collect()
            });
            assert_eq!(removed.len() as u64, KEYS / 2, "round {round}");
            for k in removed {
                assert!(!present(&t, k), "round {round}: removed key {k} is back");
            }
            for k in (1..KEYS).step_by(2) {
                assert!(present(&t, k), "round {round}: inserted key {k} is missing");
            }
            t.destroy();
        }
    }

    // Looped: one acknowledged insert in ~12 000 used to vanish in about one
    // run in twenty, when a parent copied for a split replaced a parent in
    // which a sibling leaf had been swapped meanwhile (see `try_install`).
    #[test]
    fn concurrent_disjoint_inserts() {
        for round in 0..200 {
            let t = BzTree::create("bz-conc", 512 << 20, KeyMode::Integer, false).unwrap();
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
