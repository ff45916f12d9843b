//! PDL-ART floor (predecessor) search.
//!
//! PACTree's search layer must find the data node whose anchor-key range
//! covers a search key, i.e. the *greatest anchor key ≤ search key* (§5.3).
//! This module implements that predecessor lookup directly on the trie:
//! descend matching the key; wherever the key diverges, either the whole
//! subtree is smaller (take its maximum leaf) or larger (backtrack to the
//! largest smaller sibling, or the node's end child).
//!
//! The result is used as a *jump node* hint: PACTree tolerates a slightly
//! stale answer (the data layer walk corrects it), but the returned leaf is
//! always one that was reachable during the call.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use super::insert::leaf_ref;
use super::node::{classify, is_leaf, NodeRef, N48_EMPTY};
use super::{find_child, read_node, retry, Art, Attempt, NodeView};

/// The predecessor step: the largest live child of `raw` whose key byte is
/// below `bound` (`256` = no bound), as `(byte, child)`.
///
/// `Node4`/`Node16` keep their keys unsorted and tombstoned, so one pass
/// over the `count` used slots picks the maximum; `Node48` and `Node256`
/// walk their byte-indexed arrays down from `bound - 1`, which in a node
/// dense enough to have that arity ends after a few slots.
///
/// # Safety
///
/// `raw` must be an initialized inner node; the caller validates the node's
/// version after the call (a torn answer is discarded, never followed).
unsafe fn pred_child(raw: u64, bound: usize) -> Option<(u8, u64)> {
    fn max_unsorted(
        keys: &[AtomicU8],
        children: &[AtomicU64],
        count: u16,
        bound: usize,
    ) -> Option<(u8, u64)> {
        let slots = keys.iter().zip(children).take(count as usize);
        slots
            .map(|(k, c)| (k.load(Ordering::Acquire), c.load(Ordering::Acquire)))
            .filter(|&(b, c)| c != 0 && (b as usize) < bound)
            .max_by_key(|&(b, _)| b)
    }
    // SAFETY: per caller contract.
    match unsafe { classify(raw) } {
        NodeRef::N4(n) => max_unsorted(&n.keys, &n.children, n.header.meta3().1, bound),
        NodeRef::N16(n) => max_unsorted(&n.keys, &n.children, n.header.meta3().1, bound),
        NodeRef::N48(n) => (0..bound).rev().find_map(|b| {
            let idx = n.child_index[b].load(Ordering::Acquire);
            if idx == N48_EMPTY {
                return None;
            }
            let c = n.children[idx as usize].load(Ordering::Acquire);
            (c != 0).then_some((b as u8, c))
        }),
        NodeRef::N256(n) => (0..bound).rev().find_map(|b| {
            let c = n.children[b].load(Ordering::Acquire);
            (c != 0).then_some((b as u8, c))
        }),
        NodeRef::Leaf(_) => None,
    }
}

impl Art {
    /// Returns the value of the greatest key ≤ `key`, if any; the key is
    /// never materialised.
    pub fn floor(&self, key: &[u8]) -> Option<u64> {
        let _guard = self.collector().pin();
        let leaf = self.floor_leaf(key)?;
        // SAFETY: leaf reached through validated reads and kept allocated
        // by the epoch pin; the value is atomic.
        Some(unsafe { leaf_ref(leaf) }.value.load(Ordering::Acquire))
    }

    /// Returns `(key, value)` of the greatest key ≤ `key`, if any.
    pub fn floor_entry(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let _guard = self.collector().pin();
        // SAFETY: as in `floor`.
        self.floor_leaf(key).map(|leaf| unsafe { leaf_entry(leaf) })
    }

    /// Returns the entry with the greatest key in the tree, if any.
    pub fn max_entry(&self) -> Option<(Vec<u8>, u64)> {
        let _guard = self.collector().pin();
        let leaf = retry(|| self.max_leaf(self.root_cell().load(Ordering::Acquire)));
        // SAFETY: as in `floor`.
        leaf.map(|leaf| unsafe { leaf_entry(leaf) })
    }

    /// The floor leaf of `key`, re-reading the root cell per attempt. The
    /// caller holds the epoch pin that keeps the leaf alive.
    fn floor_leaf(&self, key: &[u8]) -> Option<u64> {
        retry(|| self.floor_rec(self.root_cell().load(Ordering::Acquire), key, 0))
    }

    /// The floor leaf of `key` in the subtree at `raw` (`None` inside: no
    /// key ≤ `key` there).
    fn floor_rec(&self, raw: u64, key: &[u8], depth: usize) -> Attempt<Option<u64>> {
        if raw == 0 {
            return Some(None);
        }
        self.charge_read(raw, 128);
        // SAFETY: reachable node, epoch-pinned by the public entry points.
        if unsafe { is_leaf(raw) } {
            // SAFETY: leaf keys are immutable.
            let lkey = unsafe { leaf_ref(raw).key() };
            return Some((lkey <= key).then_some(raw));
        }
        // SAFETY: inner node read under its parent's validated token.
        let node = unsafe { read_node(raw) }?;
        let rest = &key[depth..];
        let l = node.plen.min(rest.len());
        match node.prefix()[..l].cmp(&rest[..l]) {
            // Every key below this node is smaller than the bound.
            CmpOrdering::Less => self.max_leaf(raw),
            CmpOrdering::Greater => Some(None),
            // The bound is a proper prefix of every key below here, so every
            // key below here is greater.
            CmpOrdering::Equal if rest.len() < node.plen => Some(None),
            // The bound ends exactly at this node: only its end child (the
            // key equal to the bound) can qualify.
            CmpOrdering::Equal if rest.len() == node.plen => Some(nonzero(node.end_child()?)),
            CmpOrdering::Equal => {
                let b = rest[node.plen];
                // SAFETY: live inner node.
                let found = unsafe { find_child(raw, b) };
                node.check()?;
                if let Some((child, _)) = found {
                    if let Some(leaf) = self.floor_rec(child, key, depth + node.plen + 1)? {
                        return Some(Some(leaf));
                    }
                }
                // The key's own branch holds nothing ≤ it: fall back to the
                // largest sibling strictly below `b`.
                self.max_below(&node, b as usize)
            }
        }
    }

    /// Maximum (rightmost) leaf in the subtree.
    fn max_leaf(&self, raw: u64) -> Attempt<Option<u64>> {
        if raw == 0 {
            return Some(None);
        }
        self.charge_read(raw, 128);
        // SAFETY: reachable node, epoch-pinned by callers.
        if unsafe { is_leaf(raw) } {
            return Some(Some(raw));
        }
        // SAFETY: inner node read under its parent's validated token.
        let node = unsafe { read_node(raw) }?;
        self.max_below(&node, 256)
    }

    /// Maximum leaf among the children of `node` with key byte below
    /// `bound`, else the node's end child (the key ending at this node sorts
    /// before every child). Each [`pred_child`] step is validated before its
    /// answer is followed, and a child whose subtree turns out to be a husk
    /// lowers the bound to its byte, so the walk visits live children in
    /// descending order exactly once.
    fn max_below(&self, node: &NodeView<'_>, mut bound: usize) -> Attempt<Option<u64>> {
        loop {
            // SAFETY: live inner node (read under `node.token`).
            let step = unsafe { pred_child(node.raw, bound) };
            node.check()?;
            let Some((b, child)) = step else {
                return Some(nonzero(node.end_child()?));
            };
            match self.max_leaf(child)? {
                None => bound = b as usize, // husk subtree
                found => return Some(found),
            }
        }
    }
}

/// A child pointer as an option (0 is no child).
fn nonzero(raw: u64) -> Option<u64> {
    (raw != 0).then_some(raw)
}

/// A leaf's key and value, copied out.
///
/// # Safety
///
/// `raw` must be a leaf kept allocated by the caller's epoch pin.
unsafe fn leaf_entry(raw: u64) -> (Vec<u8>, u64) {
    // SAFETY: per caller contract; leaf keys are immutable.
    let leaf = unsafe { leaf_ref(raw) };
    // SAFETY: as above.
    (
        unsafe { leaf.key() }.to_vec(),
        leaf.value.load(Ordering::Acquire),
    )
}
