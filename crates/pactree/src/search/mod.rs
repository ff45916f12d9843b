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

pub mod node;

mod cow;
mod floor;
mod insert;
mod lookup;
mod remove;
mod scan;

#[cfg(test)]
mod tests;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use pmem::epoch::Collector;
use pmem::model;
use pmem::persist;
use pmem::pool::PmemPool;
use pmem::pptr::PmPtr;
use pmem::{PmemError, Result};

use crate::lock::{ReadToken, VersionLock};
use node::{
    classify, header_of, inner_alloc_size, pack_meta, ArtLeaf, Node4, Node48, NodeHeader, NodeRef,
    NodeType, N48_EMPTY, PREFIX_CAP,
};

/// Per-thread allocation-log capacity (covers the deepest prefix chain a
/// maximum-length key can create, plus slack).
const OPLOG_ENTRIES: usize = 48;
/// Number of per-thread allocation-log slots.
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

static NEXT_ART_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ART_THREAD_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn art_thread_slot() -> usize {
    ART_THREAD_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_ART_THREAD.fetch_add(1, Ordering::Relaxed) % OPLOG_THREADS);
        }
        s.get()
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
    /// Live tree-snapshot count (PACTree MVCC, DESIGN.md §13): while > 0,
    /// mutations switch to copy-on-write path copying (see [`cow`]).
    cow_active: AtomicU64,
    /// In-flight in-place mutations; COW mutations drain this to zero
    /// before touching the tree, so the two modes never overlap.
    inplace_ops: AtomicU64,
    /// Serializes COW mutations against each other and against the flag
    /// dropping to zero mid-mutation (see [`Art::cow_exit`]).
    cow_mutex: parking_lot::Mutex<()>,
    /// Total nodes replaced by COW copies (obsv gauge).
    cow_copied: AtomicU64,
}

/// Decrements an op counter on scope exit (panic-safe sign-out).
struct OpCount<'a>(&'a AtomicU64);

impl Drop for OpCount<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Result alias used by internal restartable steps.
enum Step<T> {
    Done(T),
    Restart,
}

/// Context of the pointer slot we descended through: the owning node's lock,
/// the read token taken on it, and the raw slot address.
#[derive(Clone, Copy)]
struct ParentCtx<'a> {
    lock: &'a VersionLock,
    token: ReadToken,
    slot: &'a AtomicU64,
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
            cow_active: AtomicU64::new(0),
            inplace_ops: AtomicU64::new(0),
            cow_mutex: parking_lot::Mutex::new(()),
            cow_copied: AtomicU64::new(0),
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

    /// The persistent cell holding the allocation-log area pointer.
    fn log_cell(&self) -> &AtomicU64 {
        self.pool.allocator().root(self.log_slot)
    }

    /// The epoch collector reclaiming replaced nodes.
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    // -- Copy-on-write mode (PACTree snapshots, DESIGN.md §13) -------------

    /// Raises the COW flag: mutations serialized after this call copy
    /// their root→mutation path instead of editing nodes in place, so a
    /// root captured *after* the call denotes an immutable tree (modulo
    /// in-place mutations already in flight, which are legal concurrent
    /// operations for a snapshot being taken).
    pub fn cow_enter(&self) {
        self.cow_active.fetch_add(1, Ordering::SeqCst);
    }

    /// Lowers the COW flag. Takes the COW mutex so the flag cannot reach
    /// zero while a COW mutation is mid-flight — an in-place mutation
    /// could otherwise start and race its tail.
    pub fn cow_exit(&self) {
        let _serial = self.cow_mutex.lock();
        let prev = self.cow_active.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "cow_exit without cow_enter");
    }

    /// Waits until no in-place mutation is in flight. Callable only with
    /// the COW flag raised (otherwise new in-place ops keep signing in and
    /// the wait need not terminate). After this returns, a captured root
    /// denotes a fully immutable tree — used by standalone PDL-ART
    /// snapshots, which have no data-layer backstop to absorb stragglers.
    pub fn quiesce_inplace(&self) {
        debug_assert!(
            self.cow_active.load(Ordering::SeqCst) > 0,
            "quiesce_inplace without cow_enter"
        );
        let _serial = self.cow_mutex.lock();
        while self.inplace_ops.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
    }

    /// Total nodes replaced by COW copies so far.
    pub fn cow_copied(&self) -> u64 {
        self.cow_copied.load(Ordering::Relaxed)
    }

    /// The current root node pointer (captured by snapshot registration).
    pub fn current_root(&self) -> u64 {
        self.root_cell().load(Ordering::Acquire)
    }

    /// Runs a mutation in the mode the COW flag dictates, with mutual
    /// exclusion between the modes:
    ///
    /// * **in-place** (flag 0): sign in to `inplace_ops`, re-check the flag
    ///   (a registering snapshot may have raced the sign-in), run;
    /// * **COW** (flag > 0): take the COW mutex, re-check the flag (the
    ///   last snapshot may have been released while queueing), drain
    ///   in-place stragglers — none can newly sign in while the flag is
    ///   raised, so the drain terminates — then run exclusively.
    ///
    /// The result: at any instant the tree is mutated either by in-place
    /// operations (all of which signed in under flag 0) or by one COW
    /// operation, never both.
    fn run_mutation<T>(
        &self,
        inplace: impl Fn() -> Result<T>,
        cow: impl Fn() -> Result<T>,
    ) -> Result<T> {
        loop {
            if self.cow_active.load(Ordering::SeqCst) == 0 {
                self.inplace_ops.fetch_add(1, Ordering::SeqCst);
                let signed_in = OpCount(&self.inplace_ops);
                if self.cow_active.load(Ordering::SeqCst) != 0 {
                    // A snapshot registered while we signed in: a COW
                    // mutation may already be draining — yield to it.
                    drop(signed_in);
                    continue;
                }
                return inplace();
            }
            let serial = self.cow_mutex.lock();
            if self.cow_active.load(Ordering::SeqCst) == 0 {
                drop(serial);
                continue;
            }
            while self.inplace_ops.load(Ordering::SeqCst) > 0 {
                std::thread::yield_now();
            }
            return cow();
        }
    }

    /// The pool this tree lives in.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Charges a node visit to the NVM performance model.
    #[inline]
    fn charge_read(&self, raw: u64, approx: usize) {
        let p = PmPtr::<u8>::from_raw(raw);
        model::on_read(p.pool_id(), p.offset(), approx);
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

    /// Raw pointer to a thread's log entry `(ptr, size)` pair.
    fn log_entry(&self, thread: usize, idx: usize) -> &AtomicU64 {
        let area = PmPtr::<AtomicU64>::from_raw(self.log_cell().load(Ordering::Acquire));
        debug_assert!(!area.is_null());
        let off = ((thread * OPLOG_ENTRIES + idx) * OPLOG_ENTRY_BYTES) as u64;
        // SAFETY: in bounds of the log area allocation; 8-byte aligned.
        unsafe { &*(area.byte_add(off).as_ptr()) }
    }

    fn log_entry_size(&self, thread: usize, idx: usize) -> &AtomicU64 {
        let area = PmPtr::<AtomicU64>::from_raw(self.log_cell().load(Ordering::Acquire));
        let off = ((thread * OPLOG_ENTRIES + idx) * OPLOG_ENTRY_BYTES + 8) as u64;
        // SAFETY: in bounds of the log area allocation; 8-byte aligned.
        unsafe { &*(area.byte_add(off).as_ptr()) }
    }

    // -- Node constructors (all go through an OpLog) -----------------------

    /// Allocates and initializes a leaf; returns its raw pointer.
    fn new_leaf(&self, oplog: &mut OpLog<'_>, key: &[u8], value: u64) -> Result<u64> {
        let size = ArtLeaf::alloc_size(key.len());
        let ptr = oplog.alloc(size)?;
        // SAFETY: fresh allocation of `size` bytes, 8-byte aligned.
        unsafe {
            let leaf = &mut *(ptr.as_mut_ptr() as *mut ArtLeaf);
            leaf.meta = AtomicU64::new(pack_meta(NodeType::Leaf, 0, 0));
            leaf.value = AtomicU64::new(value);
            leaf.write_key(key);
        }
        persist::persist(ptr.as_ptr(), size);
        Ok(ptr.raw())
    }

    /// Allocates a Node4 with the given prefix, children, and end child.
    fn new_node4(
        &self,
        oplog: &mut OpLog<'_>,
        prefix: &[u8],
        entries: &[(u8, u64)],
        end_child: u64,
    ) -> Result<u64> {
        debug_assert!(prefix.len() <= PREFIX_CAP);
        debug_assert!(entries.len() <= 4);
        let size = inner_alloc_size(NodeType::Node4);
        let ptr = oplog.alloc(size)?;
        // SAFETY: fresh Node4-sized allocation, 8-byte aligned.
        unsafe {
            init_inner(ptr.as_mut_ptr(), NodeType::Node4, prefix, end_child);
            let n = &*(ptr.as_ptr() as *const Node4);
            for (i, &(b, child)) in entries.iter().enumerate() {
                n.keys[i].store(b, Ordering::Relaxed);
                n.children[i].store(child, Ordering::Relaxed);
            }
            n.header.meta.store(
                pack_meta(NodeType::Node4, entries.len() as u16, prefix.len() as u8),
                Ordering::Relaxed,
            );
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
            raw = self.new_node4(oplog, &chunk[..take - 1], &[(chunk[take - 1], raw)], 0)?;
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
        existing_key: &[u8],
        existing_raw: u64,
        new_key: &[u8],
        new_value: u64,
        depth: usize,
    ) -> Result<u64> {
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
        let bottom = self.new_node4(oplog, tail, &entries[..n], end_child)?;
        self.wrap_with_span(oplog, &a[..lcp - tail_len], bottom)
    }

    /// Copies an inner node into a (possibly different-arity) fresh node,
    /// optionally with a different prefix. The copy is persisted.
    fn copy_node(
        &self,
        oplog: &mut OpLog<'_>,
        old_raw: u64,
        new_type: NodeType,
        new_prefix: &[u8],
    ) -> Result<u64> {
        // Collect live children from the old node (lock must be held by caller).
        let mut entries: Vec<(u8, u64)> = Vec::with_capacity(new_type.capacity());
        // SAFETY: caller guarantees `old_raw` is a live, locked inner node.
        let (children, end_child) = unsafe {
            let hdr = header_of(old_raw);
            (
                collect_children(old_raw),
                hdr.end_child.load(Ordering::Acquire),
            )
        };
        entries.extend(children);
        assert!(
            entries.len() <= new_type.capacity(),
            "copy target too small: {} > {:?}",
            entries.len(),
            new_type
        );
        if new_prefix.len() > PREFIX_CAP {
            // Long prefix: bottom node + chain.
            let tail_len = PREFIX_CAP;
            let tail = &new_prefix[new_prefix.len() - tail_len..];
            let bottom = self.alloc_inner_with(oplog, new_type, tail, &entries, end_child)?;
            return self.wrap_with_span(oplog, &new_prefix[..new_prefix.len() - tail_len], bottom);
        }
        self.alloc_inner_with(oplog, new_type, new_prefix, &entries, end_child)
    }

    /// Allocates an inner node of `ty` populated with `entries`.
    fn alloc_inner_with(
        &self,
        oplog: &mut OpLog<'_>,
        ty: NodeType,
        prefix: &[u8],
        entries: &[(u8, u64)],
        end_child: u64,
    ) -> Result<u64> {
        debug_assert!(prefix.len() <= PREFIX_CAP);
        let size = inner_alloc_size(ty);
        let ptr = oplog.alloc(size)?;
        // SAFETY: fresh `size`-byte allocation for node type `ty`.
        unsafe {
            init_inner(ptr.as_mut_ptr(), ty, prefix, end_child);
            let raw_node = ptr.raw();
            for &(b, child) in entries {
                insert_child_unsynced(raw_node, b, child);
            }
            header_of(raw_node).meta.store(
                pack_meta(ty, entries.len() as u16, prefix.len() as u8),
                Ordering::Relaxed,
            );
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

    /// Retires a node: frees it after two epochs.
    fn retire(&self, raw: u64, guard: &pmem::epoch::Guard<'_>) {
        let pool = Arc::clone(&self.pool);
        // SAFETY: `raw` points to an initialized node; reading its tag to
        // compute the allocation size is safe while epoch-protected.
        let size = unsafe { node_alloc_size(raw) };
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
                let raw = self.log_entry(t, i).load(Ordering::Relaxed);
                if raw != 0 {
                    let size = self.log_entry_size(t, i).load(Ordering::Relaxed) as usize;
                    logged.push((raw, size));
                }
            }
        }
        if logged.is_empty() {
            return 0;
        }
        let mut reachable = std::collections::HashSet::new();
        let root = self.root_cell().load(Ordering::Relaxed);
        if root != 0 {
            collect_reachable(root, &mut reachable);
        }
        let mut freed = 0;
        for (raw, size) in logged {
            if !reachable.contains(&raw) {
                self.pool.allocator().free(PmPtr::from_raw(raw), size);
                freed += 1;
            }
        }
        for t in 0..OPLOG_THREADS {
            for i in 0..OPLOG_ENTRIES {
                self.log_entry(t, i).store(0, Ordering::Relaxed);
                self.log_entry_size(t, i).store(0, Ordering::Relaxed);
            }
        }
        persist::fence();
        freed
    }

    /// Census of reachable nodes by kind — O(n), for tests and diagnostics.
    /// Returns `(leaves, node4, node16, node48, node256)`.
    pub fn node_census(&self) -> (usize, usize, usize, usize, usize) {
        let mut set = std::collections::HashSet::new();
        let root = self.root_cell().load(Ordering::Acquire);
        if root == 0 {
            return (0, 0, 0, 0, 0);
        }
        collect_reachable(root, &mut set);
        let mut c = (0, 0, 0, 0, 0);
        for &raw in &set {
            // SAFETY: reachable pointers are initialized nodes.
            match unsafe { classify(raw) } {
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
        let mut set = std::collections::HashSet::new();
        let root = self.root_cell().load(Ordering::Acquire);
        if root == 0 {
            return 0;
        }
        collect_reachable(root, &mut set);
        set.iter()
            // SAFETY: reachable pointers are initialized nodes.
            .filter(|&&raw| unsafe { node::is_leaf(raw) })
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
        let e = self.art.log_entry(self.thread, self.used);
        let s = self.art.log_entry_size(self.thread, self.used);
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
            self.art
                .log_entry(self.thread, i)
                .store(0, Ordering::Relaxed);
            self.art
                .log_entry_size(self.thread, i)
                .store(0, Ordering::Relaxed);
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
            let e = self.art.log_entry(self.thread, i);
            let s = self.art.log_entry_size(self.thread, i);
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

/// Initializes an inner node in place (no children, count 0).
///
/// # Safety
///
/// `raw` must point to a fresh, exclusive allocation of the node's size.
unsafe fn init_inner(raw: *mut u8, ty: NodeType, prefix: &[u8], end_child: u64) {
    debug_assert!(prefix.len() <= PREFIX_CAP);
    // SAFETY: zeroing the whole struct is a valid initial state for every
    // node type (atomics are plain integers).
    unsafe {
        raw.write_bytes(0, inner_alloc_size(ty));
        let hdr = &mut *(raw as *mut NodeHeader);
        hdr.meta = AtomicU64::new(pack_meta(ty, 0, prefix.len() as u8));
        hdr.lock = VersionLock::new();
        hdr.end_child = AtomicU64::new(end_child);
        hdr.prefix[..prefix.len()].copy_from_slice(prefix);
        if ty == NodeType::Node48 {
            let n = &*(raw as *const Node48);
            for i in 0..256 {
                n.child_index[i].store(N48_EMPTY, Ordering::Relaxed);
            }
        }
    }
}

/// Inserts a child into a not-yet-shared node without synchronization or
/// persistence (used while building copies).
///
/// # Safety
///
/// `raw` must be an exclusive, initialized inner node with spare capacity.
unsafe fn insert_child_unsynced(raw: u64, b: u8, child: u64) {
    // SAFETY: exclusivity per caller contract.
    unsafe {
        match classify(raw) {
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
                let (_, count, _) = n.header.meta3();
                let slot = (0..48)
                    .find(|&i| n.children[i].load(Ordering::Relaxed) == 0)
                    .expect("Node48 has a free slot");
                n.children[slot].store(child, Ordering::Relaxed);
                n.child_index[b as usize].store(slot as u8, Ordering::Relaxed);
                let _ = count;
                bump_count(&n.header, 1);
            }
            NodeRef::N256(n) => {
                n.children[b as usize].store(child, Ordering::Relaxed);
                bump_count(&n.header, 1);
            }
            NodeRef::Leaf(_) => unreachable!("cannot insert child into a leaf"),
        }
    }
}

fn bump_count(hdr: &NodeHeader, delta: i32) {
    let m = hdr.meta.load(Ordering::Relaxed);
    let (ty, count, plen) = node::unpack_meta(m);
    let new_count = (count as i32 + delta) as u16;
    hdr.meta
        .store(pack_meta(ty, new_count, plen), Ordering::Release);
}

/// Snapshot of an inner node's children as `(key byte, child ptr)` pairs in
/// byte order.
///
/// # Safety
///
/// `raw` must be an initialized inner node; for a consistent snapshot the
/// caller must hold the node's lock or validate its version afterwards.
pub(crate) unsafe fn collect_children(raw: u64) -> Vec<(u8, u64)> {
    // SAFETY: per caller contract.
    let count = unsafe { header_of(raw) }.meta3().1 as usize;
    let mut out = Vec::with_capacity(count);
    // SAFETY: per caller contract.
    unsafe {
        match classify(raw) {
            NodeRef::N4(n) => {
                for i in 0..count {
                    let c = n.children[i].load(Ordering::Acquire);
                    if c != 0 {
                        out.push((n.keys[i].load(Ordering::Acquire), c));
                    }
                }
                // Slots are append-ordered, not byte-ordered.
                out.sort_unstable_by_key(|&(b, _)| b);
            }
            NodeRef::N16(n) => {
                for i in 0..count {
                    let c = n.children[i].load(Ordering::Acquire);
                    if c != 0 {
                        out.push((n.keys[i].load(Ordering::Acquire), c));
                    }
                }
                out.sort_unstable_by_key(|&(b, _)| b);
            }
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
                            let c = n.children[idx as usize].load(Ordering::Acquire);
                            if c != 0 {
                                out.push((b as u8, c));
                            }
                        }
                    }
                }
            }
            NodeRef::N256(n) => {
                for b in 0..256usize {
                    let c = n.children[b].load(Ordering::Acquire);
                    if c != 0 {
                        out.push((b as u8, c));
                    }
                }
            }
            NodeRef::Leaf(_) => unreachable!("leaves have no children"),
        }
    }
    out
}

/// Finds the child slot for byte `b`; returns `(child raw, slot address)`.
///
/// # Safety
///
/// `raw` must be an initialized inner node. The returned slot reference is
/// valid while the node's allocation is (epoch-protected by the caller).
unsafe fn find_child<'a>(raw: u64, b: u8) -> Option<(u64, &'a AtomicU64)> {
    // SAFETY: per caller contract.
    unsafe {
        match classify(raw) {
            NodeRef::N4(n) => {
                let (_, count, _) = n.header.meta3();
                // Compare all four key bytes branch-free (the constant-trip
                // loop unrolls), then walk the count-bounded candidate mask.
                let mut m = 0u32;
                for i in 0..4 {
                    m |= u32::from(n.keys[i].load(Ordering::Acquire) == b) << i;
                }
                m &= (1u32 << (count as usize).min(4)) - 1;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let c = n.children[i].load(Ordering::Acquire);
                    if c != 0 {
                        let slot = &*(&n.children[i] as *const AtomicU64);
                        return Some((c, slot));
                    }
                }
                None
            }
            NodeRef::N16(n) => {
                let (_, count, _) = n.header.meta3();
                // One splat-compare-movemask over the 16-byte key array
                // (runtime-dispatched; validated by the caller's token).
                let mut m = crate::simd::node16_match(&n.keys, b, count as usize);
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let c = n.children[i].load(Ordering::Acquire);
                    if c != 0 {
                        let slot = &*(&n.children[i] as *const AtomicU64);
                        return Some((c, slot));
                    }
                }
                None
            }
            NodeRef::N48(n) => {
                let idx = n.child_index[b as usize].load(Ordering::Acquire);
                if idx == N48_EMPTY {
                    return None;
                }
                let c = n.children[idx as usize].load(Ordering::Acquire);
                if c == 0 {
                    return None;
                }
                let slot = &*(&n.children[idx as usize] as *const AtomicU64);
                Some((c, slot))
            }
            NodeRef::N256(n) => {
                let c = n.children[b as usize].load(Ordering::Acquire);
                if c == 0 {
                    return None;
                }
                let slot = &*(&n.children[b as usize] as *const AtomicU64);
                Some((c, slot))
            }
            NodeRef::Leaf(_) => None,
        }
    }
}

/// Allocation size of any node (leaf or inner) from its tag.
///
/// # Safety
///
/// `raw` must be an initialized node.
unsafe fn node_alloc_size(raw: u64) -> usize {
    // SAFETY: per caller contract.
    unsafe {
        match classify(raw) {
            NodeRef::Leaf(l) => ArtLeaf::alloc_size(l.key_len as usize),
            NodeRef::N4(_) => inner_alloc_size(NodeType::Node4),
            NodeRef::N16(_) => inner_alloc_size(NodeType::Node16),
            NodeRef::N48(_) => inner_alloc_size(NodeType::Node48),
            NodeRef::N256(_) => inner_alloc_size(NodeType::Node256),
        }
    }
}

/// DFS collecting every reachable node pointer (recovery-time, single
/// threaded).
fn collect_reachable(raw: u64, out: &mut std::collections::HashSet<u64>) {
    if raw == 0 || !out.insert(raw) {
        return;
    }
    // SAFETY: recovery runs single-threaded over a consistent image.
    unsafe {
        if node::is_leaf(raw) {
            return;
        }
        let hdr = header_of(raw);
        let ec = hdr.end_child.load(Ordering::Relaxed);
        collect_reachable(ec, out);
        for (_, c) in collect_children(raw) {
            collect_reachable(c, out);
        }
    }
}
