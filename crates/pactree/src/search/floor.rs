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
use super::node::{classify, header_of, is_leaf, NodeHeader, NodeRef, N48_EMPTY};
use super::{find_child, Art, MAX_RESTARTS};
use crate::lock::ReadToken;

/// Internal outcome of a floor descent.
enum FloorOut {
    /// Found the floor leaf (raw pointer).
    Found(u64),
    /// No key ≤ the bound exists in this subtree.
    Empty,
    /// Version conflict: restart the whole query.
    Restart,
}

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
    /// Returns the value of the greatest key ≤ `key`, if any.
    pub fn floor(&self, key: &[u8]) -> Option<u64> {
        self.floor_value(None, key)
    }

    /// Returns `(key, value)` of the greatest key ≤ `key`, if any.
    pub fn floor_entry(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let _guard = self.collector().pin();
        let leaf = self.floor_leaf(None, key)?;
        // SAFETY: as in `floor_value`; leaf keys are immutable.
        let leaf = unsafe { leaf_ref(leaf) };
        // SAFETY: initialized leaf.
        let k = unsafe { leaf.key() }.to_vec();
        Some((k, leaf.value.load(Ordering::Acquire)))
    }

    /// Floor lookup against a *captured* root (a PACTree snapshot).
    ///
    /// Identical descent to [`floor`](Art::floor), but starting from `root`
    /// instead of the live root cell — so the answer reflects the tree as it
    /// was when `root` was captured. The caller must hold an epoch pin that
    /// predates the capture (a snapshot's `OwnedPin`): nodes of the captured
    /// tree are then retired-but-not-freed, and COW mutations never modify
    /// them, so the descent sees immutable, allocated nodes throughout.
    /// Version validation still runs (some captured nodes may also still be
    /// live and mutated in place before the first COW freeze).
    pub fn floor_from(&self, root: u64, key: &[u8]) -> Option<u64> {
        if root == 0 {
            return None;
        }
        self.floor_value(Some(root), key)
    }

    /// The floor leaf's value below `root` (the live root when `None`); the
    /// key is never materialised.
    fn floor_value(&self, root: Option<u64>, key: &[u8]) -> Option<u64> {
        let _guard = self.collector().pin();
        let leaf = self.floor_leaf(root, key)?;
        // SAFETY: leaf reached through validated reads and kept allocated
        // by the epoch pin (a captured root's by the snapshot's own pin);
        // the value is atomic.
        Some(unsafe { leaf_ref(leaf) }.value.load(Ordering::Acquire))
    }

    /// Returns the entry with the greatest key in the tree, if any.
    pub fn max_entry(&self) -> Option<(Vec<u8>, u64)> {
        let _guard = self.collector().pin();
        let mut backoff = super::Backoff::new();
        for _ in 0..MAX_RESTARTS {
            let root = self.root_cell().load(Ordering::Acquire);
            match self.max_leaf(root) {
                FloorOut::Found(leaf_raw) => {
                    // SAFETY: as in `floor_entry`.
                    let leaf = unsafe { leaf_ref(leaf_raw) };
                    // SAFETY: initialized leaf.
                    let k = unsafe { leaf.key() }.to_vec();
                    return Some((k, leaf.value.load(Ordering::Acquire)));
                }
                FloorOut::Empty => return None,
                FloorOut::Restart => backoff.pause(),
            }
        }
        unreachable!("max livelocked");
    }

    /// The restart loop shared by the floor entry points: the floor leaf of
    /// `key` below `root` (the live root cell, re-read per attempt, when
    /// `None`). The caller holds the epoch pin that keeps the leaf alive.
    fn floor_leaf(&self, root: Option<u64>, key: &[u8]) -> Option<u64> {
        let mut backoff = super::Backoff::new();
        for _ in 0..MAX_RESTARTS {
            let root = root.unwrap_or_else(|| self.root_cell().load(Ordering::Acquire));
            match self.floor_rec(root, key, 0) {
                FloorOut::Found(leaf_raw) => return Some(leaf_raw),
                FloorOut::Empty => return None,
                FloorOut::Restart => backoff.pause(),
            }
        }
        unreachable!("floor livelocked");
    }

    fn floor_rec(&self, raw: u64, key: &[u8], depth: usize) -> FloorOut {
        if raw == 0 {
            return FloorOut::Empty;
        }
        self.charge_read(raw, 128);
        // SAFETY: reachable node, epoch-pinned by the public entry points.
        if unsafe { is_leaf(raw) } {
            // SAFETY: leaf keys are immutable.
            let lkey = unsafe { leaf_ref(raw).key() };
            return if lkey <= key {
                FloorOut::Found(raw)
            } else {
                FloorOut::Empty
            };
        }
        // SAFETY: inner node.
        let hdr = unsafe { header_of(raw) };
        let Some(token) = hdr.lock.read_begin() else {
            return FloorOut::Restart;
        };
        let (_, _, plen) = hdr.meta3();
        let plen = plen as usize;
        let mut prefix = [0u8; super::node::PREFIX_CAP];
        prefix[..plen].copy_from_slice(&hdr.prefix[..plen]);
        if !hdr.lock.read_validate(token) {
            return FloorOut::Restart;
        }
        let prefix = &prefix[..plen];
        let rest = &key[depth..];
        let l = plen.min(rest.len());

        match prefix[..l].cmp(&rest[..l]) {
            CmpOrdering::Less => {
                // Every key below this node is smaller than the bound.
                self.max_leaf(raw)
            }
            CmpOrdering::Greater => FloorOut::Empty,
            CmpOrdering::Equal => {
                if rest.len() < plen {
                    // The bound is a proper prefix of every key below here,
                    // so every key below here is greater.
                    return FloorOut::Empty;
                }
                let depth2 = depth + plen;
                if depth2 == key.len() {
                    // The bound ends exactly at this node: only its end
                    // child (the key equal to the bound) can qualify.
                    return Self::end_child_of(hdr, token);
                }
                let b = key[depth2];
                // SAFETY: live inner node.
                let found = unsafe { find_child(raw, b) };
                if !hdr.lock.read_validate(token) {
                    return FloorOut::Restart;
                }
                if let Some((child, _)) = found {
                    match self.floor_rec(child, key, depth2 + 1) {
                        FloorOut::Empty => {}
                        out => return out,
                    }
                }
                // The key's own branch holds nothing ≤ it: fall back to the
                // largest sibling strictly below `b`.
                self.max_below(raw, hdr, token, b as usize)
            }
        }
    }

    /// Maximum (rightmost) leaf in the subtree.
    fn max_leaf(&self, raw: u64) -> FloorOut {
        if raw == 0 {
            return FloorOut::Empty;
        }
        self.charge_read(raw, 128);
        // SAFETY: reachable node, epoch-pinned by callers.
        if unsafe { is_leaf(raw) } {
            return FloorOut::Found(raw);
        }
        // SAFETY: inner node.
        let hdr = unsafe { header_of(raw) };
        let Some(token) = hdr.lock.read_begin() else {
            return FloorOut::Restart;
        };
        self.max_below(raw, hdr, token, 256)
    }

    /// Maximum leaf among the children of `raw` with key byte below `bound`,
    /// else the node's end child (the key ending at this node sorts before
    /// every child). Each [`pred_child`] step is validated against `token`
    /// before its answer is followed, and a child whose subtree turns out
    /// to be a husk lowers the bound to its byte, so the walk visits live
    /// children in descending order exactly once.
    fn max_below(
        &self,
        raw: u64,
        hdr: &NodeHeader,
        token: ReadToken,
        mut bound: usize,
    ) -> FloorOut {
        loop {
            // SAFETY: live inner node (callers read its header under `token`).
            let step = unsafe { pred_child(raw, bound) };
            if !hdr.lock.read_validate(token) {
                return FloorOut::Restart;
            }
            let Some((b, child)) = step else {
                return Self::end_child_of(hdr, token);
            };
            match self.max_leaf(child) {
                FloorOut::Empty => bound = b as usize, // husk subtree
                out => return out,
            }
        }
    }

    /// The node's end child, read under `token`.
    fn end_child_of(hdr: &NodeHeader, token: ReadToken) -> FloorOut {
        let ec = hdr.end_child.load(Ordering::Acquire);
        if !hdr.lock.read_validate(token) {
            FloorOut::Restart
        } else if ec != 0 {
            FloorOut::Found(ec)
        } else {
            FloorOut::Empty
        }
    }
}
