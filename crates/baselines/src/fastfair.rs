//! FastFair: a lock-based persistent B+tree baseline (FAST'18, PACTree §2.2.1).
//!
//! Characteristics this reimplementation preserves (they drive every
//! comparison in the paper's evaluation):
//!
//! * **Sorted nodes with failure-atomic shift inserts**: inserting into a
//!   node shifts entries one by one, persisting each 8-byte store in order —
//!   logless crash consistency paid for with extra NVM writes per insert.
//! * **Embedded integer pairs**: 8-byte keys and values live inside the leaf
//!   (lowest allocation pressure — GA3's winner; fast sequential scans —
//!   GA5's winner). String keys are stored *out of node* behind a pointer,
//!   which costs an extra dereference per comparison (the §6.1 3x collapse
//!   for string keys).
//! * **Synchronous SMOs in the critical path**: splits propagate up the tree
//!   under a whole-path write lock — the blocking the paper's GC2 targets.
//! * **Reader-visible lock state in NVM**: readers take a shared spinlock
//!   whose count word lives in the node (NVM), generating the GA2 write
//!   traffic the paper measured (1.4 GB of writes in read-only YCSB-C).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem::handle::WithPool;
use pmem::model;
use pmem::persist;
use pmem::pool::{self, PmemPool, PoolConfig};
use pmem::pptr::PmPtr;
use pmem::{AllocMode, PmemError, Ref, Result};

/// Entries per node ("FastFair embeds 30 8B-key and 8B-value pairs in a
/// node", PACTree §3.3).
pub const FF_SLOTS: usize = 30;

/// Key representation mode, fixed at tree creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMode {
    /// Keys are exactly 8 bytes, embedded in the node (big-endian order).
    Integer,
    /// Keys are arbitrary byte strings stored out of node behind a pointer.
    String,
}

// -- String keys (FastFair and BzTree): a key word points at a block of the
// key's length (`u32`) and bytes, written before the word is published and
// never freed.

/// Writes `key` to a fresh block of `pool`, persisted but not fenced, and
/// returns its word.
pub(crate) fn encode_string_key(pool: &PmemPool, key: &[u8]) -> Result<u64> {
    let ptr = pool.allocator().alloc(4 + key.len())?;
    // SAFETY: fresh allocation of 4 + len bytes, 8-byte aligned.
    unsafe {
        (ptr.as_mut_ptr() as *mut u32).write(key.len() as u32);
        std::ptr::copy_nonoverlapping(key.as_ptr(), ptr.as_mut_ptr().add(4), key.len());
    }
    persist::persist(ptr.as_ptr(), 4 + key.len());
    Ok(ptr.raw())
}

/// Runs `f` on the bytes of the key block `word` points at.
fn with_string_key<R>(word: u64, f: impl FnOnce(&[u8]) -> R) -> R {
    let p = PmPtr::<u8>::from_raw(word).as_ptr();
    // SAFETY: a key word points at a block `encode_string_key` wrote and
    // persisted before publishing the word, immutable and never freed.
    f(unsafe { std::slice::from_raw_parts(p.add(4), *(p as *const u32) as usize) })
}

/// Compares the key block `word` points at with `key`, charging the
/// pointer chase (an extra NVM read, the §6.1 string-key penalty).
pub(crate) fn cmp_string_key(word: u64, key: &[u8]) -> std::cmp::Ordering {
    let p = PmPtr::<u8>::from_raw(word);
    model::on_read(p.pool_id(), p.offset(), 64);
    with_string_key(word, |bytes| bytes.cmp(key))
}

/// The key block `word` points at, as owned bytes.
pub(crate) fn decode_string_key(word: u64) -> Vec<u8> {
    with_string_key(word, <[u8]>::to_vec)
}

/// A reader-writer spinlock whose state lives in NVM.
///
/// Readers increment the shared count — an NVM store (charged to the model
/// as dirty-line traffic) exactly reproducing the paper's GA2 finding.
/// [`read`](Self::read) and [`write`](Self::write) lock a node's lock and
/// hand out a [`NodeGuard`]; dropping the guard unlocks. Taking and
/// releasing each charge a store to the node's lock word.
#[repr(C)]
struct NvmRwLock {
    /// Bit 63 = writer; low bits = reader count.
    state: AtomicU64,
}

const WRITER: u64 = 1 << 63;

/// Charges a store to the lock word of the node at `node`.
fn dirty(node: u64) {
    let p = PmPtr::<u8>::from_raw(node);
    model::on_dirty(p.pool_id(), p.offset(), 8);
}

impl NvmRwLock {
    /// Spins until the writer bit is clear and `next(state)` is swapped in.
    fn claim(&self, next: impl Fn(u64) -> u64) {
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & WRITER == 0
                && self
                    .state
                    .compare_exchange_weak(s, next(s), Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Takes `node`'s lock shared.
    fn read(node: Ref<'_, Node>) -> NodeGuard<'_> {
        node.lock.claim(|s| s + 1);
        dirty(node.raw());
        NodeGuard {
            node,
            exclusive: false,
        }
    }

    /// Takes `node`'s lock exclusive.
    fn write(node: Ref<'_, Node>) -> NodeGuard<'_> {
        // Claim the writer bit, then wait out the readers.
        node.lock.claim(|s| s | WRITER);
        while node.lock.state.load(Ordering::Acquire) != WRITER {
            std::thread::yield_now();
        }
        dirty(node.raw());
        NodeGuard {
            node,
            exclusive: true,
        }
    }
}

/// A node whose [`NvmRwLock`] this thread holds, shared or exclusive.
/// Dropping it unlocks, on every path out of an operation, errors included.
struct NodeGuard<'a> {
    node: Ref<'a, Node>,
    exclusive: bool,
}

impl<'a> std::ops::Deref for NodeGuard<'a> {
    type Target = Ref<'a, Node>;

    fn deref(&self) -> &Ref<'a, Node> {
        &self.node
    }
}

impl Drop for NodeGuard<'_> {
    fn drop(&mut self) {
        let state = &self.node.lock.state;
        if self.exclusive {
            state.store(0, Ordering::Release);
        } else {
            state.fetch_sub(1, Ordering::AcqRel);
        }
        dirty(self.node.raw());
    }
}

/// A root-to-leaf path of exclusive guards, released leaf first.
struct LockedPath<'a>(Vec<NodeGuard<'a>>);

impl Drop for LockedPath<'_> {
    fn drop(&mut self) {
        while self.0.pop().is_some() {}
    }
}

/// One B+tree node (leaf or internal).
///
/// Layout: `[lock][meta][leftmost][sibling][entries: (key_word, value); 30]`.
/// `key_word` is the big-endian integer key or a `PmPtr` to out-of-node key
/// bytes `{len: u32, bytes...}`. Entries are sorted; a zero key_word marks
/// the end (keys are never the zero word: integer keys are stored +1).
#[repr(C)]
struct Node {
    lock: NvmRwLock,
    /// Bit 0: is_leaf. Upper bits: entry count.
    meta: AtomicU64,
    /// Leftmost child (internal nodes only).
    leftmost: AtomicU64,
    /// Right sibling.
    sibling: AtomicU64,
    entries: [[AtomicU64; 2]; FF_SLOTS],
}

// SAFETY: a link — the root cell, an inner node's leftmost or child entry,
// a sibling pointer — holds 0 or a node `malloc_root` or `split_node` wrote
// and persisted before `malloc_to` or a split's store linked it. Nodes are
// never freed (no merges), and every field is an atomic.
unsafe impl pmem::handle::Node for Node {
    type Freed = WithPool;
}

const NODE_SIZE: usize = std::mem::size_of::<Node>();

impl Node {
    fn count(&self) -> usize {
        (self.meta.load(Ordering::Acquire) >> 1) as usize
    }

    fn is_leaf(&self) -> bool {
        self.meta.load(Ordering::Acquire) & 1 == 1
    }

    fn set_count(&self, n: usize) {
        let leaf = self.meta.load(Ordering::Relaxed) & 1;
        self.meta.store(((n as u64) << 1) | leaf, Ordering::Release);
        persist::persist_obj(&self.meta);
    }

    fn key_word(&self, i: usize) -> u64 {
        self.entries[i][0].load(Ordering::Acquire)
    }

    fn value(&self, i: usize) -> u64 {
        self.entries[i][1].load(Ordering::Acquire)
    }
}

/// Binary search over a node's key words: `Ok(i)` where `cmp` says equal,
/// else `Err(i)`, the insertion point.
fn search(
    node: &Node,
    cmp: impl Fn(u64) -> std::cmp::Ordering,
) -> std::result::Result<usize, usize> {
    let (mut lo, mut hi) = (0, node.count());
    while lo < hi {
        let mid = (lo + hi) / 2;
        match cmp(node.key_word(mid)) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// The FastFair persistent B+tree.
pub struct FastFair {
    pool: Arc<PmemPool>,
    mode: KeyMode,
}

impl FastFair {
    /// Creates a FastFair tree in a fresh pool; `crash_sim` keeps a media
    /// image so the tree can be crash-tested and recovered.
    pub fn create(
        name: &str,
        pool_size: usize,
        mode: KeyMode,
        crash_sim: bool,
    ) -> Result<Arc<FastFair>> {
        let pool = PmemPool::create(PoolConfig {
            name: name.to_string(),
            size: pool_size,
            numa_node: pmem::numa::current_node(),
            crash_sim,
            alloc_mode: AllocMode::CrashConsistent,
        })?;
        let tree = FastFair { pool, mode };
        tree.malloc_root(true, |_| ())?;
        Ok(Arc::new(tree))
    }

    /// Reattaches to a crashed-and-remounted pool.
    ///
    /// FastFair keeps its reader/writer lock word *inside* the NVM node, so
    /// a crash can leave persisted lock words non-zero; recovery walks the
    /// tree and clears them (the FAST/FAIR paper's "lock initialization
    /// during recovery"), after replaying the allocation logs.
    pub fn recover(name: &str, mode: KeyMode) -> Result<Arc<FastFair>> {
        let pool =
            pool::pool_by_name(name).ok_or_else(|| PmemError::PoolNotFound(name.to_string()))?;
        pool.allocator().recover_logs();
        let tree = FastFair { pool, mode };
        tree.clear_locks();
        Ok(Arc::new(tree))
    }

    /// Clears every reachable node's lock word after a crash. The walk is
    /// defensive: a torn crash image may hold garbage child pointers, so
    /// every pointer is checked against the pool and counts are clamped.
    fn clear_locks(&self) {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![self.pool.allocator().root(0).load(Ordering::Acquire)];
        while let Some(raw) = stack.pop() {
            if raw == 0 || !seen.insert(raw) {
                continue;
            }
            let Some(node) = Ref::<Node>::checked(raw, &self.pool) else {
                continue;
            };
            node.lock.state.store(0, Ordering::Release);
            persist::persist_obj(&node.lock.state);
            stack.push(node.sibling.load(Ordering::Acquire));
            if !node.is_leaf() {
                stack.push(node.leftmost.load(Ordering::Acquire));
                for i in 0..node.count().min(FF_SLOTS) {
                    stack.push(node.value(i));
                }
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

    /// The node `link` names, or `None` for an empty link.
    fn load<'a>(&'a self, link: &AtomicU64) -> Option<Ref<'a, Node>> {
        Ref::load_in(link, &self.pool)
    }

    /// Links a fresh node through the root cell with `malloc_to`, so a
    /// crash cannot leak it: zeroed, marked a leaf or not, then `fill`ed.
    /// The construction form of a root.
    fn malloc_root(&self, is_leaf: bool, fill: impl FnOnce(&Node)) -> Result<()> {
        let cell = self.pool.allocator().root(0);
        self.pool.allocator().malloc_to(NODE_SIZE, cell, |raw| {
            // SAFETY: a fresh NODE_SIZE allocation, ours until `malloc_to`
            // links it; zero is a valid node.
            let node = unsafe {
                raw.write_bytes(0, NODE_SIZE);
                &*(raw as *const Node)
            };
            node.meta.store(is_leaf as u64, Ordering::Relaxed);
            fill(node);
        })?;
        Ok(())
    }

    fn root(&self) -> Ref<'_, Node> {
        self.load(self.pool.allocator().root(0))
            .expect("the root cell holds a node")
    }

    // -- Key encoding --------------------------------------------------------

    /// Encodes a key into its in-node word. Integer mode maps the 8 big-
    /// endian bytes to `value + 1` so the zero word stays an end marker.
    fn encode_key(&self, key: &[u8]) -> Result<u64> {
        match self.mode {
            KeyMode::Integer => {
                let arr: [u8; 8] = key
                    .try_into()
                    .map_err(|_| PmemError::Corruption("integer mode needs 8-byte keys"))?;
                let v = u64::from_be_bytes(arr);
                if v == u64::MAX {
                    return Err(PmemError::Corruption("u64::MAX key unsupported"));
                }
                Ok(v + 1)
            }
            KeyMode::String => encode_string_key(&self.pool, key),
        }
    }

    /// Compares a search key against an encoded key word. String mode
    /// dereferences the out-of-node key (an extra NVM read, charged).
    fn cmp_key(&self, word: u64, key: &[u8]) -> std::cmp::Ordering {
        match self.mode {
            KeyMode::Integer => {
                let stored = (word - 1).to_be_bytes();
                stored.as_slice().cmp(key)
            }
            KeyMode::String => cmp_string_key(word, key),
        }
    }

    /// Decodes an encoded key word into owned bytes.
    fn decode_key(&self, word: u64) -> Vec<u8> {
        match self.mode {
            KeyMode::Integer => (word - 1).to_be_bytes().to_vec(),
            KeyMode::String => decode_string_key(word),
        }
    }

    // -- Traversal -------------------------------------------------------------

    /// Descends to the leaf covering `key`, taking read locks hand-over-hand.
    /// Returns the leaf, read-locked.
    fn find_leaf_shared(&self, key: &[u8]) -> NodeGuard<'_> {
        let mut node = NvmRwLock::read(self.root());
        loop {
            node.charge_read(NODE_SIZE.min(512));
            if node.is_leaf() {
                return node;
            }
            node = NvmRwLock::read(self.child_for(&node, key));
        }
    }

    /// Binary search for the child covering `key` in an internal node.
    fn child_for(&self, node: &Node, key: &[u8]) -> Ref<'_, Node> {
        let n = node.count();
        // Charge the binary-search key comparisons (GA1: a B+tree pays a
        // full key comparison per probe).
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.cmp_key(node.key_word(mid), key) {
                std::cmp::Ordering::Greater => hi = mid,
                _ => lo = mid + 1,
            }
        }
        let link = if lo == 0 {
            &node.leftmost
        } else {
            &node.entries[lo - 1][1]
        };
        self.load(link).expect("an inner node links every child")
    }

    /// Position of `key` in a node: `Ok(i)` exact, `Err(i)` insertion point.
    fn search_node(&self, node: &Node, key: &[u8]) -> std::result::Result<usize, usize> {
        search(node, |word| self.cmp_key(word, key))
    }

    // -- Public operations -------------------------------------------------------

    /// Point lookup.
    pub fn lookup(&self, key: &[u8]) -> Option<u64> {
        let leaf = self.find_leaf_shared(key);
        self.search_node(&leaf, key).ok().map(|i| leaf.value(i))
    }

    /// Range scan: up to `count` pairs with keys ≥ `start`, using the
    /// sibling chain (sequential embedded reads for integer keys — GA5).
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let mut out = Vec::with_capacity(count.min(4096));
        let mut leaf = self.find_leaf_shared(start);
        loop {
            leaf.charge_read(NODE_SIZE);
            let from = match self.search_node(&leaf, start) {
                Ok(i) => i,
                Err(i) => i,
            };
            for i in from..leaf.count() {
                let pair = (self.decode_key(leaf.key_word(i)), leaf.value(i));
                // FAST readers ignore duplicates: an interrupted shift (or a
                // crash between a split's copy and the count update) can
                // leave the same entry twice, adjacent in key order, and
                // that is tolerated rather than repaired (FAST'18 §4.1).
                if out.last().map(|p: &(Vec<u8>, u64)| &p.0) == Some(&pair.0) {
                    continue;
                }
                out.push(pair);
                if out.len() >= count {
                    return out;
                }
            }
            let Some(sib) = self.load(&leaf.sibling) else {
                return out;
            };
            leaf = NvmRwLock::read(sib);
        }
    }

    /// Inserts or updates; returns the previous value if the key existed.
    ///
    /// Splits are synchronous: the whole root-to-leaf path is write-locked
    /// while the split cascades (the paper's GC2 critique).
    pub fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        // Optimistic single-leaf attempt under the write lock.
        let leaf = self.find_leaf_write(key);
        match self.search_node(&leaf, key) {
            Ok(i) => {
                let old = leaf.value(i);
                leaf.entries[i][1].store(value, Ordering::Release);
                persist::persist_obj_fenced(&leaf.entries[i][1]);
                Ok(Some(old))
            }
            Err(pos) => {
                if leaf.count() < FF_SLOTS {
                    let word = self.encode_key(key)?;
                    self.shift_insert(&leaf, pos, word, value);
                    return Ok(None);
                }
                // Full: release and redo with a full-path write descent.
                drop(leaf);
                self.insert_with_split(key, value)
            }
        }
    }

    /// Removes `key`; returns its value if present. Underflow is tolerated
    /// (no merges), like common FastFair artifacts; YCSB has no deletes.
    pub fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        let leaf = self.find_leaf_write(key);
        Ok(match self.search_node(&leaf, key) {
            Ok(i) => {
                let old = leaf.value(i);
                let n = leaf.count();
                // Failure-atomic left shift: each store persisted in order.
                for j in i..n - 1 {
                    leaf.entries[j][0].store(leaf.key_word(j + 1), Ordering::Release);
                    leaf.entries[j][1].store(leaf.value(j + 1), Ordering::Release);
                    persist::persist(leaf.entries[j].as_ptr() as *const u8, 16);
                }
                persist::fence();
                leaf.set_count(n - 1);
                persist::fence();
                Some(old)
            }
            Err(_) => None,
        })
    }

    // -- Write internals -----------------------------------------------------

    /// Descends to the leaf with read crabbing, then write-locks the leaf.
    fn find_leaf_write(&self, key: &[u8]) -> NodeGuard<'_> {
        loop {
            // Upgrade by re-acquiring: release shared, take exclusive,
            // re-validate that this leaf still covers the key (the tree may
            // have split meanwhile), else restart the descent.
            let leaf = *self.find_leaf_shared(key);
            let leaf = NvmRwLock::write(leaf);
            if self.leaf_covers(&leaf, key) {
                return leaf;
            }
        }
    }

    /// Whether a locked leaf still covers `key` (checks the sibling bound).
    fn leaf_covers(&self, leaf: &Node, key: &[u8]) -> bool {
        // The sibling's first key is its lower bound.
        match self.load(&leaf.sibling) {
            Some(s) if s.count() > 0 => {
                self.cmp_key(s.key_word(0), key) == std::cmp::Ordering::Greater
            }
            _ => true,
        }
    }

    /// FAST shift insert: moves entries right one by one, persisting each
    /// 16-byte pair store in order, then bumps the count (8-byte atomic).
    fn shift_insert(&self, node: &Node, pos: usize, word: u64, value: u64) {
        let n = node.count();
        debug_assert!(n < FF_SLOTS);
        for j in (pos..n).rev() {
            node.entries[j + 1][0].store(node.key_word(j), Ordering::Release);
            node.entries[j + 1][1].store(node.value(j), Ordering::Release);
            persist::persist(node.entries[j + 1].as_ptr() as *const u8, 16);
        }
        node.entries[pos][0].store(word, Ordering::Release);
        node.entries[pos][1].store(value, Ordering::Release);
        persist::persist(node.entries[pos].as_ptr() as *const u8, 16);
        persist::fence();
        node.set_count(n + 1);
        persist::fence();
    }

    /// Full-path write-locked insert performing synchronous cascading splits;
    /// returns the previous value if the key existed.
    fn insert_with_split(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        // Lock the whole path exclusively, root first (simple and blocking —
        // faithfully pessimistic).
        let mut path = LockedPath(Vec::new());
        let mut node = self.root();
        loop {
            path.0.push(NvmRwLock::write(node));
            if node.is_leaf() {
                break;
            }
            node = self.child_for(&node, key);
        }

        // The root may have split since the optimistic attempt; if the leaf
        // no longer covers the key, retry from the top.
        let leaf = node;
        if !self.leaf_covers(&leaf, key) {
            drop(path);
            return self.insert(key, value);
        }
        if let Ok(i) = self.search_node(&leaf, key) {
            let old = leaf.value(i);
            leaf.entries[i][1].store(value, Ordering::Release);
            persist::persist_obj_fenced(&leaf.entries[i][1]);
            return Ok(Some(old));
        }

        // Split the leaf, then insert, then cascade separators upward.
        let word = self.encode_key(key)?;
        let mut level = path.0.len() - 1;
        let mut carry: Option<(u64, u64)> = Some((word, value)); // into current node
        let mut pending_sep: Option<(u64, u64)> = None; // separator for parent
        loop {
            let node = *path.0[level];
            if let Some((sw, sv)) = pending_sep.take() {
                carry = Some((sw, sv));
            }
            let Some((cw, cv)) = carry.take() else { break };
            if node.count() < FF_SLOTS {
                let pos = match self.search_node_word(&node, cw) {
                    Ok(p) | Err(p) => p,
                };
                self.shift_insert(&node, pos, cw, cv);
                break;
            }
            // Split: upper half to a new sibling. The separator is the
            // middle key (promoted out of internal nodes, duplicated for
            // leaves).
            let sep_word = node.key_word(node.count() / 2);
            let new_node = self.split_node(&node)?;
            // Insert the carried entry into the correct half.
            let target = if self.cmp_word(cw, sep_word) == std::cmp::Ordering::Less {
                node
            } else {
                new_node
            };
            let pos = match self.search_node_word(&target, cw) {
                Ok(p) | Err(p) => p,
            };
            self.shift_insert(&target, pos, cw, cv);

            if level == 0 {
                // Split the root: allocate a new root.
                let (old_root, new_raw) = (node.raw(), new_node.raw());
                self.malloc_root(false, |r| {
                    r.leftmost.store(old_root, Ordering::Relaxed);
                    r.entries[0][0].store(sep_word, Ordering::Relaxed);
                    r.entries[0][1].store(new_raw, Ordering::Relaxed);
                    r.meta.store(1 << 1, Ordering::Relaxed);
                })?;
                break;
            }
            // Cascade: the separator goes into the parent as (sep, new node).
            pending_sep = Some((sep_word, new_node.raw()));
            level -= 1;
        }
        Ok(None)
    }

    /// Word-level comparison (avoids decode for separators).
    fn cmp_word(&self, a: u64, b: u64) -> std::cmp::Ordering {
        match self.mode {
            KeyMode::Integer => a.cmp(&b),
            KeyMode::String => {
                let kb = self.decode_key(b);
                self.cmp_key(a, &kb)
            }
        }
    }

    /// Position of an encoded word in a node.
    fn search_node_word(&self, node: &Node, word: u64) -> std::result::Result<usize, usize> {
        search(node, |w| self.cmp_word(w, word))
    }

    /// Splits `node`, moving its upper half to a new right sibling; returns
    /// the sibling. Persistence order: new node fully persisted, then linked
    /// via the sibling pointer, then the count shrink (FAIR).
    ///
    /// For internal nodes the first upper-half key is promoted as separator:
    /// its child becomes the new node's leftmost child.
    fn split_node(&self, node: &Node) -> Result<Ref<'_, Node>> {
        let n = node.count();
        let half = n / 2;
        let is_leaf = node.is_leaf();
        let old_sibling = node.sibling.load(Ordering::Acquire);
        let ptr = self.pool.allocator().alloc(NODE_SIZE)?;
        // SAFETY: a fresh NODE_SIZE allocation, ours until it is linked;
        // zero is a valid node.
        let newn = unsafe {
            ptr.as_mut_ptr().write_bytes(0, NODE_SIZE);
            &*(ptr.as_ptr() as *const Node)
        };
        let src_start = if is_leaf { half } else { half + 1 };
        for (j, i) in (src_start..n).enumerate() {
            newn.entries[j][0].store(node.key_word(i), Ordering::Relaxed);
            newn.entries[j][1].store(node.value(i), Ordering::Relaxed);
        }
        if !is_leaf {
            newn.leftmost.store(node.value(half), Ordering::Relaxed);
        }
        newn.sibling.store(old_sibling, Ordering::Relaxed);
        let cnt = (n - src_start) as u64;
        newn.meta
            .store((cnt << 1) | is_leaf as u64, Ordering::Relaxed);
        persist::persist(ptr.as_ptr(), NODE_SIZE);
        persist::fence();
        node.sibling.store(ptr.raw(), Ordering::Release);
        persist::persist_obj_fenced(&node.sibling);
        node.set_count(half);
        persist::fence();
        Ok(self.load(&node.sibling).expect("just linked"))
    }

    /// Live pairs — O(n), tests only.
    pub fn len(&self) -> usize {
        self.scan(&[], usize::MAX >> 1).len()
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
    fn integer_crud_and_scan() {
        let t = FastFair::create("ff-int", 256 << 20, KeyMode::Integer, false).unwrap();
        let mut model = BTreeMap::new();
        let mut x = 99u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 10_000;
            let old = t.insert(&k.to_be_bytes(), i).unwrap();
            assert_eq!(old, model.insert(k, i), "insert {k}");
        }
        for (&k, &v) in &model {
            assert_eq!(t.lookup(&k.to_be_bytes()), Some(v), "lookup {k}");
        }
        assert_eq!(t.len(), model.len());
        // Scan check.
        let got: Vec<u64> = t
            .scan(&500u64.to_be_bytes(), 25)
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        let expect: Vec<u64> = model.range(500..).take(25).map(|(&k, _)| k).collect();
        assert_eq!(got, expect);
        t.destroy();
    }

    #[test]
    fn string_mode_roundtrip() {
        let t = FastFair::create("ff-str", 256 << 20, KeyMode::String, false).unwrap();
        let keys: Vec<String> = (0..2000)
            .map(|i| format!("user{:06}", i * 7 % 3000))
            .collect();
        let mut model = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            let old = t.insert(k.as_bytes(), i as u64).unwrap();
            assert_eq!(old, model.insert(k.clone(), i as u64));
        }
        for (k, &v) in &model {
            assert_eq!(t.lookup(k.as_bytes()), Some(v));
        }
        let got = t.scan(b"user000100", 10);
        let expect: Vec<(Vec<u8>, u64)> = model
            .range("user000100".to_string()..)
            .take(10)
            .map(|(k, v)| (k.clone().into_bytes(), *v))
            .collect();
        assert_eq!(got, expect);
        t.destroy();
    }

    #[test]
    fn remove_shifts_left() {
        let t = FastFair::create("ff-del", 64 << 20, KeyMode::Integer, false).unwrap();
        for i in 0..100u64 {
            t.insert(&i.to_be_bytes(), i).unwrap();
        }
        for i in (0..100u64).step_by(2) {
            assert_eq!(t.remove(&i.to_be_bytes()).unwrap(), Some(i));
        }
        for i in 0..100u64 {
            let expect = (i % 2 == 1).then_some(i);
            assert_eq!(t.lookup(&i.to_be_bytes()), expect);
        }
        assert_eq!(t.len(), 50);
        t.destroy();
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let t = FastFair::create("ff-conc", 256 << 20, KeyMode::Integer, false).unwrap();
        let mut handles = Vec::new();
        for tid in 0..6u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..4000u64 {
                    let k = tid * 100_000 + i;
                    t.insert(&k.to_be_bytes(), k).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for tid in 0..6u64 {
            for i in (0..4000u64).step_by(13) {
                let k = tid * 100_000 + i;
                assert_eq!(t.lookup(&k.to_be_bytes()), Some(k));
            }
        }
        assert_eq!(t.len(), 24_000);
        t.destroy();
    }

    /// A refused insert releases every lock it took, in the leaf-only path
    /// and in the full-path split: later operations on the leaf, from
    /// another thread, finish.
    #[test]
    fn refused_insert_releases_its_locks() {
        let t = FastFair::create("ff-refused", 32 << 20, KeyMode::Integer, false).unwrap();
        let key = |k: u64| k.to_be_bytes();
        let next_ops_finish = |k: u64| {
            let (tx, rx) = std::sync::mpsc::channel();
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                t.insert(&key(k), k).unwrap();
                tx.send(t.lookup(&key(k))).unwrap();
            });
            rx.recv_timeout(std::time::Duration::from_secs(10))
        };
        t.insert(&key(1), 1).unwrap();
        assert!(
            t.insert(&key(u64::MAX), 0).is_err(),
            "u64::MAX has no key word"
        );
        assert_eq!(next_ops_finish(2), Ok(Some(2)), "leaf lock released");
        for k in 3..=FF_SLOTS as u64 {
            t.insert(&key(k), k).unwrap();
        }
        assert!(
            t.insert(&key(u64::MAX), 0).is_err(),
            "refused on a full leaf"
        );
        assert_eq!(next_ops_finish(0), Ok(Some(0)), "path locks released");
        t.destroy();
    }
}
