//! Multi-version state for PACTree: O(1) snapshots and snapshot-isolated
//! reads over the data layer (DESIGN.md §13).
//!
//! # Design
//!
//! A tree-wide **version counter** advances on every snapshot
//! registration. Every data node carries an *era stamp*
//! (`DataNode::mvcc_ver`): the counter value current when its live state
//! last changed **while a snapshot was live**. A writer about to mutate a
//! node under its write lock calls [`MvccState::prepare_mutation`]:
//!
//! * **no snapshot live (fast path)** — one atomic load and a branch;
//!   nothing is stamped, nothing is copied;
//! * **a snapshot might still need the node's current state** (its version
//!   ≥ the node's era stamp) — the state is **frozen**: pairs, `next` link
//!   and the deleted flag are materialized into a DRAM-side [`FrozenNode`]
//!   pushed onto the node's *version chain*, and the node is stamped with
//!   the current era. Each node freezes at most once per snapshot era, so
//!   the copy cost amortizes to one node capture per mutated node per
//!   snapshot — `snapshot()` itself copies nothing and is O(1).
//!
//! Reads at version `v` resolve a node with [`MvccState::resolve_shared`]: if
//! the node's era stamp ≤ `v` the *live* state is the answer (read under
//! the node's seqlock); otherwise the chain holds the newest frozen state
//! with version ≤ `v`. The frozen `next` pointers of the states resolved at
//! `v` reconstruct exactly the data-node list as it existed at `v`, because
//! every list mutation happens under the owning node's write lock *after*
//! the freeze captured the pre-mutation link.
//!
//! Frozen chains live in DRAM, keyed by the node's raw `PmPtr` — they hold
//! owned key bytes and no NVM host pointers, so crash consistency is
//! trivial: snapshots (and their chains) simply die with the process, and
//! the durable state is exactly the live tree, which the existing recovery
//! path already proves durably linearizable. The per-node era stamps are
//! never flushed; a stale stamp leaking to media through an adjacent-line
//! flush is neutralized by the process-generation check in
//! `DataNode::mvcc_effective_ver`.
//!
//! # The registration race
//!
//! Writers decide "freeze or not" from two loads (`version`, then
//! `max_snap`); registration stores a *pending* marker (`u64::MAX`) into
//! `max_snap` before bumping the counter and finalizing. With all four
//! accesses SeqCst, a writer that misses a registering snapshot in
//! `max_snap` must have loaded the counter before the snapshot's bump — so
//! its mutation stamps an era ≤ the snapshot's version and is *included*
//! in the snapshot, which is the legal outcome for an operation concurrent
//! with `snapshot()`. A writer that starts after `snapshot()` returns
//! always sees the registered (or pending) `max_snap` and freezes first,
//! so acked-then-snapshotted state can never be lost.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use pmem::epoch::OwnedPin;

use crate::data::DataRef;

/// One captured (immutable) data-node state.
#[derive(Debug)]
pub struct FrozenNode {
    /// Era this state became current (validity starts here; it ends where
    /// the next-newer chain entry or the live stamp begins).
    pub version: u64,
    /// Right sibling at capture time (raw `PmPtr`), 0 at the tail: a
    /// frozen link, loaded like a live one.
    pub next: AtomicU64,
    /// Whether the node was already logically deleted at capture time.
    pub deleted: bool,
    /// Live pairs at capture time, sorted by key, fully owned.
    pub pairs: Vec<(Vec<u8>, u64)>,
}

/// A registered snapshot. A snapshot read holds it (an `Arc` from
/// [`MvccState::snap_info`]) for its whole walk, so the pin outlives a
/// concurrent release.
pub(crate) struct SnapEntry {
    id: u64,
    version: u64,
    /// Set by [`MvccState::release`] before it prunes the chains.
    released: AtomicBool,
    /// Epoch pin keeping every node the snapshot may reach allocated.
    _pin: OwnedPin,
}

impl SnapEntry {
    /// The snapshot's version.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Whether the snapshot has been released. Release prunes chain
    /// entries only this snapshot still needed, so a walk that sees this
    /// at its end may have resolved a node through a pruned chain and must
    /// discard its result.
    pub(crate) fn released(&self) -> bool {
        self.released.load(Ordering::SeqCst)
    }
}

/// A node state resolved at some snapshot version, which exposes
/// *sharing*: when two versions resolve the same node to the same state —
/// the same frozen capture, or both to the live state — a structural diff
/// can step over the whole node without touching its pairs. Derefs to the
/// state either way, like a `Cow`.
#[derive(Debug)]
pub enum Resolved {
    /// The live state, read under the node's seqlock.
    Live(FrozenNode),
    Frozen(Arc<FrozenNode>),
}

impl std::ops::Deref for Resolved {
    type Target = FrozenNode;

    fn deref(&self) -> &FrozenNode {
        match self {
            Resolved::Live(s) => s,
            Resolved::Frozen(f) => f,
        }
    }
}

impl Resolved {
    /// Whether two aligned resolutions (same node, one per diffed version)
    /// denote the same state. `Frozen`/`Frozen` compares capture identity.
    /// `Live`/`Live` is sound because both versions are held live by the
    /// diff: any writer mutating the node between the two seqlock reads
    /// must freeze-and-stamp it past both versions (`max_snap` covers
    /// them), which would have turned the second resolution `Frozen`.
    pub fn same_state(&self, other: &Resolved) -> bool {
        match (self, other) {
            (Resolved::Live(_), Resolved::Live(_)) => true,
            (Resolved::Frozen(a), Resolved::Frozen(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// One entry of a [`diff`](crate::PacTree::diff) between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffEntry {
    /// Present at `v2` but not `v1`.
    Added(Vec<u8>, u64),
    /// Present at `v1` but not `v2`.
    Removed(Vec<u8>, u64),
    /// Present at both with different values (`old`, `new`).
    Changed(Vec<u8>, u64, u64),
}

/// The versioning subsystem state, shared by one tree.
pub struct MvccState {
    /// Monotone version counter; the *next* era. Starts at 1 so era 0 can
    /// mean "since the beginning".
    version: AtomicU64,
    /// Highest live snapshot version; 0 = none, `u64::MAX` = registration
    /// pending (writers freeze conservatively).
    max_snap: AtomicU64,
    /// Live snapshots.
    snaps: Mutex<Vec<Arc<SnapEntry>>>,
    /// Frozen version chains, newest first, keyed by node raw pointer.
    chains: RwLock<HashMap<u64, Vec<Arc<FrozenNode>>>>,
    next_id: AtomicU64,
    /// Total data-node states frozen so far.
    frozen_total: AtomicU64,
}

impl Default for MvccState {
    fn default() -> Self {
        Self::new()
    }
}

impl MvccState {
    pub fn new() -> Self {
        MvccState {
            version: AtomicU64::new(1),
            max_snap: AtomicU64::new(0),
            snaps: Mutex::new(Vec::new()),
            chains: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            frozen_total: AtomicU64::new(0),
        }
    }

    /// Current era (diagnostics).
    pub fn current_version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Number of live snapshots.
    pub fn live_snapshots(&self) -> usize {
        self.snaps.lock().len()
    }

    /// Total frozen data-node captures so far.
    pub fn frozen_nodes(&self) -> u64 {
        self.frozen_total.load(Ordering::Relaxed)
    }

    /// Frozen chain entries currently retained.
    pub fn chain_entries(&self) -> usize {
        self.chains.read().values().map(|c| c.len()).sum()
    }

    /// Length of the longest retained frozen version chain (0 with none).
    /// Structural health: chains that only grow mean live snapshots are
    /// pinning ever more frozen node states — degradation that surfaces
    /// here long before throughput moves.
    pub fn chain_max(&self) -> usize {
        self.chains
            .read()
            .values()
            .map(|c| c.len())
            .max()
            .unwrap_or(0)
    }

    /// Registers a snapshot: O(1) — no tree walk, no copying. Returns
    /// `(id, version)`.
    ///
    /// The pending-marker protocol (module docs) closes the race against
    /// concurrent writers deciding whether to freeze.
    pub fn register(&self, pin: OwnedPin) -> (u64, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut snaps = self.snaps.lock();
        self.max_snap.store(u64::MAX, Ordering::SeqCst);
        let version = self.version.fetch_add(1, Ordering::SeqCst);
        snaps.push(Arc::new(SnapEntry {
            id,
            version,
            released: AtomicBool::new(false),
            _pin: pin,
        }));
        let ms = snaps.iter().map(|s| s.version).max().unwrap_or(0);
        self.max_snap.store(ms, Ordering::SeqCst);
        (id, version)
    }

    /// Releases a snapshot by id; prunes chain entries no remaining
    /// snapshot can reach. Returns false for an unknown id.
    pub fn release(&self, id: u64) -> bool {
        let live: Vec<u64>;
        {
            let mut snaps = self.snaps.lock();
            let Some(at) = snaps.iter().position(|s| s.id == id) else {
                return false;
            };
            // Before `max_snap` drops and before any pruning: a walk that
            // saw either sees this at its end.
            let entry = snaps.swap_remove(at);
            entry.released.store(true, Ordering::SeqCst);
            let ms = snaps.iter().map(|s| s.version).max().unwrap_or(0);
            self.max_snap.store(ms, Ordering::SeqCst);
            live = snaps.iter().map(|s| s.version).collect();
            // The entry's OwnedPin drops here, releasing the epoch, unless
            // a walk still holds the entry.
        }
        let mut chains = self.chains.write();
        if live.is_empty() {
            chains.clear();
        } else {
            chains.retain(|_, chain| {
                prune_chain(chain, &live);
                !chain.is_empty()
            });
        }
        true
    }

    /// Looks up a live snapshot; holding the entry keeps its pin alive.
    pub(crate) fn snap_info(&self, id: u64) -> Option<Arc<SnapEntry>> {
        self.snaps.lock().iter().find(|s| s.id == id).cloned()
    }

    /// Called by a writer holding `node`'s write lock, *before its first
    /// visible mutation*. Freezes the node's current state if any live
    /// snapshot can still reach it, then stamps the node with the current
    /// era. The load order (counter first, then `max_snap`) is what makes
    /// skipping safe — see the module docs.
    #[inline]
    pub(crate) fn prepare_mutation(&self, node: DataRef<'_>) {
        let cur = self.version.load(Ordering::SeqCst);
        let ms = self.max_snap.load(Ordering::SeqCst);
        if ms == 0 {
            return;
        }
        let nv = node.mvcc_effective_ver();
        if ms < nv {
            return;
        }
        self.freeze(node, nv, cur);
    }

    /// Cold path of [`prepare_mutation`]: capture + stamp.
    fn freeze(&self, node: DataRef<'_>, nv: u64, cur: u64) {
        let frozen = Arc::new(FrozenNode {
            version: nv,
            next: AtomicU64::new(node.next.load(Ordering::Acquire)),
            deleted: node.deleted.load(Ordering::Acquire) != 0,
            pairs: node.sorted_pairs_owned(),
        });
        {
            let mut chains = self.chains.write();
            let chain = chains.entry(node.raw()).or_default();
            chain.insert(0, frozen);
            let live: Vec<u64> = self.snaps.lock().iter().map(|s| s.version).collect();
            if !live.is_empty() {
                prune_chain(chain, &live);
            }
        }
        self.frozen_total.fetch_add(1, Ordering::Relaxed);
        // Stamp *after* the chain entry is visible: a reader that observes
        // the new era (and therefore goes to the chain) is ordered after
        // the chain insert via the node's seqlock release/acquire.
        node.mvcc_stamp(cur);
    }

    /// Drops the chain of a node whose memory is about to be freed (merge
    /// victims). Must run inside the same deferred-free closure as the
    /// free itself so a reused raw can never alias a stale chain.
    pub fn forget_node(&self, raw: u64) {
        self.chains.write().remove(&raw);
    }

    /// Resolves `node` at snapshot version `v`, exposing state identity for
    /// structural-sharing checks. `None` means the node did not exist at
    /// `v` (born in a later era).
    ///
    /// The caller must hold the snapshot for `v` (its [`SnapEntry`]):
    /// the entry's pin keeps the node allocated, and a release during the
    /// call, which may prune the chain entries needed here, shows in
    /// [`SnapEntry::released`] afterwards.
    pub(crate) fn resolve_shared(&self, node: DataRef<'_>, v: u64) -> Option<Resolved> {
        loop {
            let Some(token) = node.lock.read_begin() else {
                std::hint::spin_loop();
                continue;
            };
            let nv = node.mvcc_effective_ver();
            if nv <= v {
                // Live state is the state at `v`: read it under the seqlock.
                let pairs = node.sorted_pairs_owned();
                let next = node.next.load(Ordering::Acquire);
                let deleted = node.deleted.load(Ordering::Acquire) != 0;
                if node.lock.read_validate(token) {
                    return Some(Resolved::Live(FrozenNode {
                        version: nv,
                        next: AtomicU64::new(next),
                        deleted,
                        pairs,
                    }));
                }
                continue;
            }
            // Era is newer than `v`: the chain has every state back to the
            // one visible at `v` (each mutation under a live snapshot froze
            // its predecessor). Validate the era read before trusting it.
            if !node.lock.read_validate(token) {
                continue;
            }
            let chains = self.chains.read();
            return chains
                .get(&node.raw())
                .and_then(|chain| chain.iter().find(|f| f.version <= v))
                .cloned()
                .map(Resolved::Frozen);
        }
    }
}

/// Keeps only chain entries some live snapshot can still resolve. Entry `i`
/// (newest first) is visible to versions in `[chain[i].version,
/// chain[i-1].version)`; the newest entry's window is open-ended here
/// (conservative — its true end is the node's live era stamp).
fn prune_chain(chain: &mut Vec<Arc<FrozenNode>>, live: &[u64]) {
    let mut upper = u64::MAX;
    chain.retain(|f| {
        let needed = live.iter().any(|&v| f.version <= v && v < upper);
        upper = f.version;
        needed
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frozen(version: u64) -> Arc<FrozenNode> {
        Arc::new(FrozenNode {
            version,
            next: AtomicU64::new(0),
            deleted: false,
            pairs: Vec::new(),
        })
    }

    #[test]
    fn prune_keeps_only_reachable_windows() {
        // Chain (newest first): states valid from eras 30, 20, 10.
        let mut chain = vec![frozen(30), frozen(20), frozen(10)];
        // Snapshots at 25 and 12: windows [20,30) and [10,20) are needed;
        // [30,∞) is needed by nothing ≥ 30.
        prune_chain(&mut chain, &[25, 12]);
        let versions: Vec<u64> = chain.iter().map(|f| f.version).collect();
        assert_eq!(versions, vec![20, 10]);

        // A snapshot beyond every state keeps only the newest entry.
        let mut chain = vec![frozen(30), frozen(20), frozen(10)];
        prune_chain(&mut chain, &[99]);
        let versions: Vec<u64> = chain.iter().map(|f| f.version).collect();
        assert_eq!(versions, vec![30]);

        // A snapshot older than every state keeps nothing.
        let mut chain = vec![frozen(30), frozen(20)];
        prune_chain(&mut chain, &[5]);
        assert!(chain.is_empty());
    }

    #[test]
    fn register_release_roundtrip() {
        let c = pmem::epoch::Collector::new();
        let m = MvccState::new();
        assert_eq!(m.live_snapshots(), 0);
        let (id1, v1) = m.register(c.pin_owned());
        let (id2, v2) = m.register(c.pin_owned());
        assert!(v2 > v1, "versions are strictly ordered");
        assert_ne!(id1, id2);
        assert_eq!(m.live_snapshots(), 2);
        let held = m.snap_info(id1).unwrap();
        assert_eq!(held.version(), v1);
        assert!(!held.released());
        assert!(m.release(id1));
        assert!(held.released(), "a held entry learns of its release");
        assert!(m.snap_info(id1).is_none());
        assert!(!m.release(id1), "double release is rejected");
        assert_eq!(m.live_snapshots(), 1);
        assert!(m.release(id2));
        assert_eq!(m.max_snap.load(Ordering::SeqCst), 0);
        assert_eq!(m.chain_entries(), 0);
    }
}
