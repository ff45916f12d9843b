//! PDL-ART: Persistent Durable-Linearizable Adaptive Radix Tree (paper §5.1).
//!
//! This is PACTree's search layer and, wrapped by the `pdl-art` crate, the
//! standalone PDL-ART baseline index. It maps byte-string keys to non-zero
//! 8-byte values (PACTree stores data-node pointers).
//!
//! Design properties, following the paper:
//!
//! * **Optimistic persistent version locks** instead of ROWEX: readers never
//!   write NVM (GA2) and writers release a node's lock only after persisting
//!   their update, so a validated read never observes unpersisted data —
//!   durable linearizability.
//! * **Log-free crash consistency**: inside a node, payload stores are
//!   persisted before the single-atomic-word metadata store that makes them
//!   visible; across nodes, new subtrees are fully persisted before the
//!   single pointer store that links them.
//! * **Allocation logs**: every node allocated during an operation is first
//!   recorded in a persistent per-thread log and the log is cleared after
//!   the linearizing link; recovery frees logged nodes that are not
//!   reachable from the root (leak freedom, §5.1(3)).
//! * **Generation ids** (see [`crate::lock`]) make all lock words
//!   self-resetting across restarts.
//! * **Immutable prefixes**: operations that would rewrite a node's
//!   compressed prefix copy the node instead (see [`node`]), so every
//!   reachable node is self-consistent at any crash point.
//! * **Optimistic lock coupling**: a descent enters every inner node through
//!   [`read_node`] (read_begin, meta word, prefix copy, validate) and only
//!   after validating the parent it read the child pointer from. A writer
//!   that replaces or unlinks an inner node (prefix split, grow, shrink,
//!   splice, promote, husk unlink) holds that node's write lock and hands the
//!   guard to [`Art::retire`], which never releases it. The held lock is the
//!   obsolete mark: "locked" already means "restart from the root" on every
//!   path here and none of them spins on a node lock, so an operation that
//!   reached the old copy before it was unlinked fails its next
//!   `read_begin`, validate or upgrade on it and re-descends to the
//!   replacement. No lock bit beyond the version's odd bit is needed; a freed
//!   block gets a fresh lock from [`init_inner`] when it is reused.

pub mod node;

mod floor;
mod insert;
mod lookup;
mod remove;
mod scan;

#[cfg(test)]
mod tests;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use pmem::epoch::{Collector, Guard};
use pmem::persist;
use pmem::pool::PmemPool;
use pmem::pptr::PmPtr;
use pmem::{PmemError, Result};

use crate::lock::{ReadToken, VersionLock, WriteGuard};
use node::{
    inner_alloc_size, pack_meta, ArtLeaf, ArtRef, Node48, NodeHeader, NodeRef, NodeType, N48_EMPTY,
    PREFIX_CAP,
};

/// Per-thread allocation-log capacity (covers the deepest prefix chain a
/// maximum-length key can create, plus slack).
const OPLOG_ENTRIES: usize = 48;
/// Number of per-thread allocation-log slots: the most threads that can
/// record at once (see [`art_thread_slot`]).
const OPLOG_THREADS: usize = 256;
const OPLOG_ENTRY_BYTES: usize = 16; // ptr + size

/// Operations restart this many times before declaring livelock (debug aid).
const MAX_RESTARTS: usize = 100_000_000;

/// Escalating backoff for optimistic-retry loops: spin briefly, then yield,
/// then sleep — so contenders don't burn the host CPU while a lock holder
/// sleeps through time-dilated NVM stalls.
pub(crate) struct Backoff(u32);

impl Backoff {
    pub(crate) fn new() -> Backoff {
        Backoff(0)
    }

    pub(crate) fn pause(&mut self) {
        self.0 = self.0.saturating_add(1);
        match self.0 {
            0..=8 => std::hint::spin_loop(),
            9..=64 => std::thread::yield_now(),
            _ => std::thread::sleep(std::time::Duration::from_micros(50)),
        }
    }
}

/// Allocation-log slots in use, one bit each: a thread leases the lowest
/// free slot on its first logged allocation and returns it when it exits
/// ([`pmem::alloc::lease_slot`]).
static ART_SLOTS_IN_USE: [AtomicU64; OPLOG_THREADS / 64] =
    [const { AtomicU64::new(0) }; OPLOG_THREADS / 64];

thread_local! {
    static ART_THREAD_SLOT: std::cell::OnceCell<pmem::alloc::SlotLease> =
        const { std::cell::OnceCell::new() };
}

fn art_thread_slot() -> usize {
    ART_THREAD_SLOT.with(|s| {
        s.get_or_init(|| pmem::alloc::lease_slot(&ART_SLOTS_IN_USE))
            .slot()
    })
}

/// The persistent adaptive radix tree.
pub struct Art {
    pool: Arc<PmemPool>,
    /// Allocator root-directory slot holding the root node pointer.
    root_slot: usize,
    /// Allocator root-directory slot holding the allocation-log area pointer.
    log_slot: usize,
    /// Volatile lock guarding replacement of the root node pointer.
    root_lock: VersionLock,
    collector: Arc<Collector>,
}

/// One optimistic attempt: `None` is a version conflict, and [`retry`]
/// starts the operation over from the root.
type Attempt<T> = Option<T>;

/// The one restart loop: runs `attempt` until it does not conflict,
/// backing off between attempts.
fn retry<T>(mut attempt: impl FnMut() -> Attempt<T>) -> T {
    let mut backoff = Backoff::new();
    for _ in 0..MAX_RESTARTS {
        if let Some(done) = attempt() {
            return done;
        }
        backoff.pause();
    }
    unreachable!("search-layer operation livelocked");
}

/// The pointer slot a descent came through: the owning node (`None` for the
/// root cell, whose lock is the tree's volatile root lock), the read token
/// taken on that node, the slot itself, and the key byte it hangs under.
#[derive(Clone, Copy)]
struct ParentCtx<'a> {
    lock: &'a VersionLock,
    token: ReadToken,
    slot: &'a AtomicU64,
    node: Option<ArtRef<'a>>,
    byte: u8,
}

/// One validated optimistic read of an inner node: the node, its token,
/// arity, child count and a copy of its compressed prefix (see
/// [`read_node`]).
#[derive(Clone, Copy)]
struct NodeView<'a> {
    node: ArtRef<'a>,
    hdr: &'a NodeHeader,
    token: ReadToken,
    ty: NodeType,
    count: u16,
    plen: usize,
    prefix: [u8; PREFIX_CAP],
}

impl<'a> NodeView<'a> {
    fn prefix(&self) -> &[u8] {
        &self.prefix[..self.plen]
    }

    /// Re-validates the token after a further read of the node.
    fn check(&self) -> Attempt<()> {
        self.hdr.lock.read_validate(self.token).then_some(())
    }

    /// The node's end child, read under the token.
    fn end_child(&self) -> Attempt<Option<ArtRef<'a>>> {
        let ec = self.node.follow(&self.hdr.end_child);
        self.check()?;
        Some(ec)
    }
}

/// The one way a descent enters an inner node: `read_begin`, the meta word,
/// the prefix copy, validate. Conflicts while a writer holds the node, and
/// for good once the node was replaced: its writer's lock is never released
/// ([`Art::retire`]). The token travels with the handle in the view, so every
/// later read of the node is checked against this one.
#[inline(always)]
fn read_node(node: ArtRef<'_>) -> Attempt<NodeView<'_>> {
    let hdr = node.header();
    let token = hdr.lock.read_begin()?;
    let (ty, count, plen) = hdr.meta3();
    let view = NodeView {
        node,
        hdr,
        token,
        ty,
        count,
        plen: plen as usize,
        // The whole fixed-size array: a few register moves where copying
        // `plen` bytes is a `memcpy` call.
        prefix: hdr.prefix,
    };
    view.check()?;
    Some(view)
}

impl Art {
    /// Creates a new empty tree in `pool`, anchoring its persistent state at
    /// root-directory slots `root_slot` (root pointer) and `root_slot + 1`
    /// (allocation-log area). If the slots are already populated (remount),
    /// attaches to the existing tree instead.
    pub fn create(pool: Arc<PmemPool>, root_slot: usize, collector: Arc<Collector>) -> Result<Art> {
        let art = Art {
            pool,
            root_slot,
            log_slot: root_slot + 1,
            root_lock: VersionLock::new(),
            collector,
        };
        if art.root_cell().load(Ordering::Acquire) == 0 {
            // Allocation-log area first.
            let log_size = OPLOG_THREADS * OPLOG_ENTRIES * OPLOG_ENTRY_BYTES;
            let alloc = art.pool.allocator();
            alloc.malloc_to(log_size, art.log_cell(), |raw| {
                // SAFETY: fresh `log_size`-byte allocation.
                unsafe { raw.write_bytes(0, log_size) };
            })?;
            // Empty Node4 root.
            alloc.malloc_to(inner_alloc_size(NodeType::Node4), art.root_cell(), |raw| {
                // SAFETY: fresh Node4-sized allocation, 8-byte aligned.
                unsafe { init_inner(raw, NodeType::Node4, &[], 0) };
            })?;
        }
        Ok(art)
    }

    /// The persistent cell holding the root node pointer.
    fn root_cell(&self) -> &AtomicU64 {
        self.pool.allocator().root(self.root_slot)
    }

    /// The root node: the root cell never holds 0 once created.
    fn root<'g>(&self, guard: &'g Guard<'_>) -> ArtRef<'g> {
        ArtRef::load(self.root_cell(), guard).expect("the root cell holds a node")
    }

    /// The persistent cell holding the allocation-log area pointer.
    fn log_cell(&self) -> &AtomicU64 {
        self.pool.allocator().root(self.log_slot)
    }

    /// The epoch collector reclaiming replaced nodes.
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// The pool this tree lives in.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    // -- Allocation log ----------------------------------------------------

    /// Starts a logged allocation scope for the calling thread.
    fn oplog(&self) -> OpLog<'_> {
        OpLog {
            art: self,
            thread: art_thread_slot(),
            used: 0,
            committed: false,
        }
    }

    /// A thread's log entry: its `[ptr, size]` words.
    fn log_entry(&self, thread: usize, idx: usize) -> &[AtomicU64; 2] {
        let area = PmPtr::<[AtomicU64; 2]>::from_raw(self.log_cell().load(Ordering::Acquire));
        debug_assert!(!area.is_null());
        let off = ((thread * OPLOG_ENTRIES + idx) * OPLOG_ENTRY_BYTES) as u64;
        // SAFETY: in bounds of the log area allocation; 8-byte aligned.
        unsafe { &*(area.byte_add(off).as_ptr()) }
    }

    // -- Node constructors (all go through an OpLog) -----------------------

    /// Allocates and initializes a leaf; returns its raw pointer.
    fn new_leaf(&self, oplog: &mut OpLog<'_>, key: &[u8], value: u64) -> Result<u64> {
        let size = ArtLeaf::alloc_size(key.len());
        let ptr = oplog.alloc(size)?;
        // SAFETY: fresh allocation of `size` bytes, 8-byte aligned: the leaf
        // struct, then its key bytes.
        unsafe {
            let leaf = &mut *(ptr.as_mut_ptr() as *mut ArtLeaf);
            leaf.meta = AtomicU64::new(pack_meta(NodeType::Leaf, 0, 0));
            leaf.value = AtomicU64::new(value);
            leaf.key_len = key.len() as u32;
            let base = ptr.as_mut_ptr().add(std::mem::size_of::<ArtLeaf>());
            std::ptr::copy_nonoverlapping(key.as_ptr(), base, key.len());
        }
        persist::persist(ptr.as_ptr(), size);
        Ok(ptr.raw())
    }

    /// Builds the chain of single-child Node4s that consumes `span` before
    /// reaching `bottom` (used when a compressed run exceeds [`PREFIX_CAP`]).
    fn wrap_with_span(&self, oplog: &mut OpLog<'_>, span: &[u8], bottom: u64) -> Result<u64> {
        let mut raw = bottom;
        let mut s = span;
        while !s.is_empty() {
            let take = s.len().min(PREFIX_CAP + 1);
            let chunk = &s[s.len() - take..];
            let entry = [(chunk[take - 1], raw)];
            raw = self.alloc_inner_with(oplog, NodeType::Node4, &chunk[..take - 1], entry, 0)?;
            s = &s[..s.len() - take];
        }
        Ok(raw)
    }

    /// Builds the subtree joining an existing leaf and a new key that share
    /// the span `common` below `depth` (both key slices are *full* keys).
    ///
    /// Returns the subtree root to be linked where the existing leaf was.
    fn build_join(
        &self,
        oplog: &mut OpLog<'_>,
        existing: ArtRef<'_>,
        new_key: &[u8],
        new_value: u64,
        depth: usize,
    ) -> Result<u64> {
        let (existing_key, existing_raw) = (existing.leaf().key(), existing.raw());
        let a = &existing_key[depth..];
        let b = &new_key[depth..];
        let lcp = lcp_len(a, b);
        debug_assert!(a.len() != b.len() || a != b, "equal keys handled earlier");
        let new_leaf = self.new_leaf(oplog, new_key, new_value)?;

        // Bottom node carries the tail of the common span as its prefix.
        let tail_len = lcp.min(PREFIX_CAP);
        let tail = &a[lcp - tail_len..lcp];
        let mut entries: [(u8, u64); 2] = [(0, 0); 2];
        let mut n = 0;
        let mut end_child = 0u64;
        if a.len() == lcp {
            end_child = existing_raw;
        } else {
            entries[n] = (a[lcp], existing_raw);
            n += 1;
        }
        if b.len() == lcp {
            debug_assert_eq!(end_child, 0);
            end_child = new_leaf;
        } else {
            entries[n] = (b[lcp], new_leaf);
            n += 1;
        }
        let entries = entries[..n].iter().copied();
        let bottom = self.alloc_inner_with(oplog, NodeType::Node4, tail, entries, end_child)?;
        self.wrap_with_span(oplog, &a[..lcp - tail_len], bottom)
    }

    /// Copies a write-locked inner node into a (possibly different-arity)
    /// fresh node, optionally with a different prefix. The copy is
    /// persisted.
    fn copy_node(
        &self,
        oplog: &mut OpLog<'_>,
        old: ArtRef<'_>,
        new_type: NodeType,
        new_prefix: &[u8],
    ) -> Result<u64> {
        let children = old.children();
        let end_child = old.header().end_child.load(Ordering::Acquire);
        assert!(
            children.len() <= new_type.capacity(),
            "copy target too small: {} > {:?}",
            children.len(),
            new_type
        );
        let entries = children.into_iter().map(|(b, c)| (b, c.raw()));
        if new_prefix.len() > PREFIX_CAP {
            // Long prefix: bottom node + chain.
            let tail_len = PREFIX_CAP;
            let tail = &new_prefix[new_prefix.len() - tail_len..];
            let bottom = self.alloc_inner_with(oplog, new_type, tail, entries, end_child)?;
            return self.wrap_with_span(oplog, &new_prefix[..new_prefix.len() - tail_len], bottom);
        }
        self.alloc_inner_with(oplog, new_type, new_prefix, entries, end_child)
    }

    /// Allocates an inner node of `ty` populated with `entries`.
    fn alloc_inner_with(
        &self,
        oplog: &mut OpLog<'_>,
        ty: NodeType,
        prefix: &[u8],
        entries: impl IntoIterator<Item = (u8, u64)>,
        end_child: u64,
    ) -> Result<u64> {
        debug_assert!(prefix.len() <= PREFIX_CAP);
        let size = inner_alloc_size(ty);
        let ptr = oplog.alloc(size)?;
        // SAFETY: fresh `size`-byte allocation for node type `ty`, owned by
        // the oplog until it is linked.
        let node = unsafe { init_inner(ptr.as_mut_ptr(), ty, prefix, end_child) };
        for (b, child) in entries {
            insert_child_unsynced(node, b, child);
        }
        persist::persist(ptr.as_ptr(), size);
        Ok(ptr.raw())
    }

    /// Links `child` into `slot` with the paper's persistence order: the
    /// child subtree is already persisted; the single pointer store is the
    /// linearization point and is persisted immediately after.
    fn link(&self, slot: &AtomicU64, child: u64) {
        persist::fence();
        slot.store(child, Ordering::Release);
        persist::persist_obj_fenced(slot);
    }

    /// Retires an inner node that was just replaced or unlinked, taking its
    /// write guard: the lock is never released, so every later descent that
    /// reaches this copy conflicts on it and restarts (the lock-coupling
    /// rule in the module docs). The node is freed after two epochs.
    fn retire(&self, node: ArtRef<'_>, lock: WriteGuard<'_>, guard: &Guard<'_>) {
        std::mem::forget(lock);
        self.retire_leaf(node, guard);
    }

    /// Frees an unlinked node after two epochs. A leaf needs nothing more:
    /// it has no lock, and every write to it happens under its owning
    /// node's lock.
    fn retire_leaf(&self, node: ArtRef<'_>, guard: &Guard<'_>) {
        let pool = Arc::clone(&self.pool);
        let (raw, size) = (node.raw(), node.alloc_size());
        self.collector.defer(guard, move || {
            pool.allocator().free(PmPtr::from_raw(raw), size);
        });
    }

    // -- Recovery ----------------------------------------------------------

    /// Post-crash recovery: frees every logged allocation that is not
    /// reachable from the root, then clears the logs. Returns the number of
    /// reclaimed nodes. Single-threaded by contract.
    pub fn recover(&self) -> usize {
        let mut logged = Vec::new();
        for t in 0..OPLOG_THREADS {
            for i in 0..OPLOG_ENTRIES {
                let [e, s] = self.log_entry(t, i);
                let raw = e.load(Ordering::Relaxed);
                if raw != 0 {
                    logged.push((raw, s.load(Ordering::Relaxed) as usize));
                }
            }
        }
        if logged.is_empty() {
            return 0;
        }
        let guard = self.collector.pin();
        let reachable: HashSet<u64> = self.reachable(&guard).iter().map(|n| n.raw()).collect();
        let mut freed = 0;
        for (raw, size) in logged {
            if !reachable.contains(&raw) {
                self.pool.allocator().free(PmPtr::from_raw(raw), size);
                freed += 1;
            }
        }
        for t in 0..OPLOG_THREADS {
            for i in 0..OPLOG_ENTRIES {
                for w in self.log_entry(t, i) {
                    w.store(0, Ordering::Relaxed);
                }
            }
        }
        persist::fence();
        freed
    }

    /// Every node reachable from the root — O(n), for recovery, tests and
    /// diagnostics.
    fn reachable<'g>(&self, guard: &'g Guard<'_>) -> HashSet<ArtRef<'g>> {
        let mut set = HashSet::new();
        collect_reachable(self.root(guard), &mut set);
        set
    }

    /// Census of reachable nodes by kind — O(n), for tests and diagnostics.
    /// Returns `(leaves, node4, node16, node48, node256)`.
    pub fn node_census(&self) -> (usize, usize, usize, usize, usize) {
        let guard = self.collector.pin();
        let mut c = (0, 0, 0, 0, 0);
        for node in self.reachable(&guard) {
            match node.classify() {
                NodeRef::Leaf(_) => c.0 += 1,
                NodeRef::N4(_) => c.1 += 1,
                NodeRef::N16(_) => c.2 += 1,
                NodeRef::N48(_) => c.3 += 1,
                NodeRef::N256(_) => c.4 += 1,
            }
        }
        c
    }

    /// Counts live entries (leaves) — O(n), for tests and diagnostics.
    pub fn count_entries(&self) -> usize {
        let guard = self.collector.pin();
        self.reachable(&guard)
            .iter()
            .filter(|n| n.is_leaf())
            .count()
    }
}

/// RAII allocation-log scope: allocations are recorded persistently; on
/// [`commit`](OpLog::commit) the records are cleared (the structure now owns
/// the nodes); on drop without commit every allocation is freed (the
/// operation restarted or failed before linking anything).
struct OpLog<'a> {
    art: &'a Art,
    thread: usize,
    used: usize,
    committed: bool,
}

impl OpLog<'_> {
    fn alloc(&mut self, size: usize) -> Result<PmPtr<u8>> {
        if self.used >= OPLOG_ENTRIES {
            return Err(PmemError::InvalidAllocation(size));
        }
        let ptr = self.art.pool.allocator().alloc(size)?;
        let [e, s] = self.art.log_entry(self.thread, self.used);
        e.store(ptr.raw(), Ordering::Relaxed);
        s.store(size as u64, Ordering::Relaxed);
        persist::persist_obj(e);
        persist::persist_obj(s);
        persist::fence();
        self.used += 1;
        Ok(ptr)
    }

    /// Clears the log: the allocations are now owned by the tree.
    fn commit(mut self) {
        for i in 0..self.used {
            for w in self.art.log_entry(self.thread, i) {
                w.store(0, Ordering::Relaxed);
            }
        }
        if self.used > 0 {
            persist::fence();
        }
        self.committed = true;
    }
}

impl Drop for OpLog<'_> {
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        // Aborted attempt: nothing was linked, free eagerly.
        for i in (0..self.used).rev() {
            let [e, s] = self.art.log_entry(self.thread, i);
            let raw = e.load(Ordering::Relaxed);
            if raw != 0 {
                self.art
                    .pool
                    .allocator()
                    .free(PmPtr::from_raw(raw), s.load(Ordering::Relaxed) as usize);
            }
            e.store(0, Ordering::Relaxed);
            s.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Free node-level helpers (callers hold the needed locks or exclusivity)
// ---------------------------------------------------------------------------

/// Length of the longest common prefix of two byte slices.
#[inline]
pub(crate) fn lcp_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Initializes an inner node in place (no children, count 0) and returns
/// its typed view: the construction form of [`ArtRef`].
///
/// # Safety
///
/// `raw` must point to a fresh, exclusive allocation of the node's size
/// that outlives `'a`.
unsafe fn init_inner<'a>(raw: *mut u8, ty: NodeType, prefix: &[u8], end_child: u64) -> NodeRef<'a> {
    debug_assert!(prefix.len() <= PREFIX_CAP);
    // SAFETY: zeroing the whole struct is a valid initial state for every
    // node type (atomics are plain integers); the layout is `ty`'s.
    unsafe {
        raw.write_bytes(0, inner_alloc_size(ty));
        let hdr = &mut *(raw as *mut NodeHeader);
        hdr.meta = AtomicU64::new(pack_meta(ty, 0, prefix.len() as u8));
        hdr.lock = VersionLock::new();
        hdr.end_child = AtomicU64::new(end_child);
        hdr.prefix[..prefix.len()].copy_from_slice(prefix);
        match ty {
            NodeType::Node4 => NodeRef::N4(&*raw.cast()),
            NodeType::Node16 => NodeRef::N16(&*raw.cast()),
            NodeType::Node48 => {
                let n = &*raw.cast::<Node48>();
                for i in &n.child_index {
                    i.store(N48_EMPTY, Ordering::Relaxed);
                }
                NodeRef::N48(n)
            }
            NodeType::Node256 => NodeRef::N256(&*raw.cast()),
            NodeType::Leaf => unreachable!("leaves are not inner nodes"),
        }
    }
}

/// Inserts a child into a not-yet-shared node without synchronization or
/// persistence (used while building copies). The node needs spare capacity.
fn insert_child_unsynced(node: NodeRef<'_>, b: u8, child: u64) {
    match node {
        NodeRef::N4(n) => {
            let (_, count, _) = n.header.meta3();
            n.keys[count as usize].store(b, Ordering::Relaxed);
            n.children[count as usize].store(child, Ordering::Relaxed);
            bump_count(&n.header, 1);
        }
        NodeRef::N16(n) => {
            let (_, count, _) = n.header.meta3();
            n.keys[count as usize].store(b, Ordering::Relaxed);
            n.children[count as usize].store(child, Ordering::Relaxed);
            bump_count(&n.header, 1);
        }
        NodeRef::N48(n) => {
            let slot = (0..48)
                .find(|&i| n.children[i].load(Ordering::Relaxed) == 0)
                .expect("Node48 has a free slot");
            n.children[slot].store(child, Ordering::Relaxed);
            n.child_index[b as usize].store(slot as u8, Ordering::Relaxed);
            bump_count(&n.header, 1);
        }
        NodeRef::N256(n) => {
            n.children[b as usize].store(child, Ordering::Relaxed);
            bump_count(&n.header, 1);
        }
        NodeRef::Leaf(_) => unreachable!("cannot insert child into a leaf"),
    }
}

fn bump_count(hdr: &NodeHeader, delta: i32) {
    let m = hdr.meta.load(Ordering::Relaxed);
    let (ty, count, plen) = node::unpack_meta(m);
    let new_count = (count as i32 + delta) as u16;
    hdr.meta
        .store(pack_meta(ty, new_count, plen), Ordering::Release);
}

impl<'g> ArtRef<'g> {
    /// The node's children as `(key byte, child)` pairs in byte order. For a
    /// consistent snapshot the caller holds the node's lock or validates its
    /// version afterwards.
    pub(crate) fn children(self) -> Vec<(u8, ArtRef<'g>)> {
        let count = self.header().meta3().1 as usize;
        let mut out = Vec::with_capacity(count);
        let mut unsorted = |keys: &[AtomicU8], children: &'g [AtomicU64]| {
            for (k, c) in keys.iter().zip(children).take(count) {
                if let Some(c) = self.follow(c) {
                    out.push((k.load(Ordering::Acquire), c));
                }
            }
            // Slots are append-ordered, not byte-ordered.
            out.sort_unstable_by_key(|&(b, _)| b);
        };
        match self.classify() {
            NodeRef::N4(n) => unsorted(&n.keys, &n.children),
            NodeRef::N16(n) => unsorted(&n.keys, &n.children),
            NodeRef::N48(n) => {
                // One vectorized pass over the 256-byte index instead of 256
                // individual probes; only occupied slots are then chased, in
                // ascending byte order. A byte flipping concurrently with the
                // wide load is caught by the caller's lock/validation, same
                // as every SIMD probe.
                let occ = crate::simd::node48_occupied(&n.child_index);
                for (w, word) in occ.iter().enumerate() {
                    let mut bits = *word;
                    while bits != 0 {
                        let b = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let idx = n.child_index[b].load(Ordering::Acquire);
                        if idx != N48_EMPTY {
                            if let Some(c) = self.follow(&n.children[idx as usize]) {
                                out.push((b as u8, c));
                            }
                        }
                    }
                }
            }
            NodeRef::N256(n) => {
                for (b, c) in n.children.iter().enumerate() {
                    if let Some(c) = self.follow(c) {
                        out.push((b as u8, c));
                    }
                }
            }
            NodeRef::Leaf(_) => unreachable!("leaves have no children"),
        }
        out
    }

    /// The child for byte `b` and the slot it hangs in; the caller
    /// validates the node's version before following it.
    fn find_child(self, b: u8) -> Option<(ArtRef<'g>, &'g AtomicU64)> {
        // The first live child among the slots of `mask`.
        let first = |mut mask: u32, children: &'g [AtomicU64]| {
            while mask != 0 {
                let slot = &children[mask.trailing_zeros() as usize];
                mask &= mask - 1;
                if let Some(c) = self.follow(slot) {
                    return Some((c, slot));
                }
            }
            None
        };
        let at = |slot: &'g AtomicU64| self.follow(slot).map(|c| (c, slot));
        match self.classify() {
            NodeRef::N4(n) => {
                let (_, count, _) = n.header.meta3();
                // Compare all four key bytes branch-free (the constant-trip
                // loop unrolls), then walk the count-bounded candidate mask.
                let mut m = 0u32;
                for i in 0..4 {
                    m |= u32::from(n.keys[i].load(Ordering::Acquire) == b) << i;
                }
                first(m & ((1u32 << (count as usize).min(4)) - 1), &n.children)
            }
            NodeRef::N16(n) => {
                let (_, count, _) = n.header.meta3();
                // One splat-compare-movemask over the 16-byte key array
                // (validated by the caller's token).
                let m = crate::simd::node16_match(&n.keys, b, count as usize);
                first(m, &n.children)
            }
            NodeRef::N48(n) => match n.child_index[b as usize].load(Ordering::Acquire) {
                N48_EMPTY => None,
                idx => at(&n.children[idx as usize]),
            },
            NodeRef::N256(n) => at(&n.children[b as usize]),
            NodeRef::Leaf(_) => None,
        }
    }
}

/// DFS collecting every reachable node (recovery-time, single threaded, or
/// under a pin).
fn collect_reachable<'g>(node: ArtRef<'g>, out: &mut HashSet<ArtRef<'g>>) {
    if !out.insert(node) || node.is_leaf() {
        return;
    }
    if let Some(ec) = node.follow(&node.header().end_child) {
        collect_reachable(ec, out);
    }
    for (_, c) in node.children() {
        collect_reachable(c, out);
    }
}
