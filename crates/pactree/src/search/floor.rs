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

use pmem::epoch::Guard;

use super::node::{ArtLeaf, ArtRef, NodeRef, N48_EMPTY};
use super::{read_node, retry, Art, Attempt, NodeView};

impl<'g> ArtRef<'g> {
    /// The predecessor step: the largest live child whose key byte is below
    /// `bound` (`256` = no bound), as `(byte, child)`.
    ///
    /// `Node4`/`Node16` keep their keys unsorted and tombstoned, so one pass
    /// over the `count` used slots picks the maximum; `Node48` and `Node256`
    /// walk their byte-indexed arrays down from `bound - 1`, which in a node
    /// dense enough to have that arity ends after a few slots. The caller
    /// validates the node's version after the call (a torn answer is
    /// discarded, never followed).
    fn pred_child(self, bound: usize) -> Option<(u8, ArtRef<'g>)> {
        let max_unsorted = |keys: &[AtomicU8], children: &'g [AtomicU64], count: u16| {
            let slots = keys.iter().zip(children).take(count as usize);
            slots
                .filter_map(|(k, c)| Some((k.load(Ordering::Acquire), self.follow(c)?)))
                .filter(|&(b, _)| (b as usize) < bound)
                .max_by_key(|&(b, _)| b)
        };
        match self.classify() {
            NodeRef::N4(n) => max_unsorted(&n.keys, &n.children, n.header.meta3().1),
            NodeRef::N16(n) => max_unsorted(&n.keys, &n.children, n.header.meta3().1),
            NodeRef::N48(n) => (0..bound).rev().find_map(|b| {
                let idx = n.child_index[b].load(Ordering::Acquire);
                if idx == N48_EMPTY {
                    return None;
                }
                Some((b as u8, self.follow(&n.children[idx as usize])?))
            }),
            NodeRef::N256(n) => (0..bound)
                .rev()
                .find_map(|b| Some((b as u8, self.follow(&n.children[b])?))),
            NodeRef::Leaf(_) => None,
        }
    }
}

impl Art {
    /// Returns the value of the greatest key ≤ `key`, if any; the key is
    /// never materialised.
    pub fn floor(&self, key: &[u8]) -> Option<u64> {
        let guard = self.collector().pin();
        Some(self.floor_leaf(key, &guard)?.value.load(Ordering::Acquire))
    }

    /// Returns `(key, value)` of the greatest key ≤ `key`, if any.
    pub fn floor_entry(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let guard = self.collector().pin();
        let leaf = self.floor_leaf(key, &guard)?;
        Some((leaf.key().to_vec(), leaf.value.load(Ordering::Acquire)))
    }

    /// The leaf of the greatest key ≤ `key`, if any, borrowed for as long
    /// as `guard` pins this tree's collector. A reference to a node cannot
    /// outlive the pin that keeps the node allocated:
    ///
    /// ```compile_fail,E0597
    /// # use std::sync::Arc;
    /// # use pactree::search::Art;
    /// # use pmem::pool::{PmemPool, PoolConfig};
    /// # let pool = PmemPool::create(PoolConfig::volatile("doc-leaf", 1 << 20)).unwrap();
    /// let art = Art::create(pool, 0, Arc::new(pmem::epoch::Collector::new())).unwrap();
    /// art.insert(b"k", 1).unwrap();
    /// let leaf = {
    ///     let guard = art.collector().pin();
    ///     art.floor_leaf(b"z", &guard).unwrap()
    /// };
    /// assert_eq!(leaf.key(), b"k");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `guard` pins another collector.
    pub fn floor_leaf<'g>(&self, key: &[u8], guard: &'g Guard<'_>) -> Option<&'g ArtLeaf> {
        assert!(std::ptr::eq(guard.collector(), &*self.collector));
        let leaf = retry(|| self.floor_rec(self.root(guard), key, 0));
        leaf.map(ArtRef::leaf)
    }

    /// The floor leaf of `key` in the subtree at `node` (`None` inside: no
    /// key ≤ `key` there).
    fn floor_rec<'g>(
        &self,
        node: ArtRef<'g>,
        key: &[u8],
        depth: usize,
    ) -> Attempt<Option<ArtRef<'g>>> {
        node.charge_read(128);
        if let NodeRef::Leaf(leaf) = node.classify() {
            return Some((leaf.key() <= key).then_some(node));
        }
        let view = read_node(node)?;
        let rest = &key[depth..];
        let l = view.plen.min(rest.len());
        match view.prefix()[..l].cmp(&rest[..l]) {
            // Every key below this node is smaller than the bound.
            CmpOrdering::Less => self.max_below(&view, 256),
            CmpOrdering::Greater => Some(None),
            // The bound is a proper prefix of every key below here, so every
            // key below here is greater.
            CmpOrdering::Equal if rest.len() < view.plen => Some(None),
            // The bound ends exactly at this node: only its end child (the
            // key equal to the bound) can qualify.
            CmpOrdering::Equal if rest.len() == view.plen => view.end_child(),
            CmpOrdering::Equal => {
                let b = rest[view.plen];
                let found = node.find_child(b);
                view.check()?;
                if let Some((child, _)) = found {
                    if let Some(leaf) = self.floor_rec(child, key, depth + view.plen + 1)? {
                        return Some(Some(leaf));
                    }
                }
                // The key's own branch holds nothing ≤ it: fall back to the
                // largest sibling strictly below `b`.
                self.max_below(&view, b as usize)
            }
        }
    }

    /// Maximum (rightmost) leaf in the subtree.
    fn max_leaf<'g>(&self, node: ArtRef<'g>) -> Attempt<Option<ArtRef<'g>>> {
        node.charge_read(128);
        if node.is_leaf() {
            return Some(Some(node));
        }
        self.max_below(&read_node(node)?, 256)
    }

    /// Maximum leaf among the children of `node` with key byte below
    /// `bound`, else the node's end child (the key ending at this node sorts
    /// before every child). Each [`pred_child`](ArtRef::pred_child) step is
    /// validated before its answer is followed, and a child whose subtree
    /// turns out to be a husk lowers the bound to its byte, so the walk
    /// visits live children in descending order exactly once.
    fn max_below<'g>(&self, node: &NodeView<'g>, mut bound: usize) -> Attempt<Option<ArtRef<'g>>> {
        loop {
            let step = node.node.pred_child(bound);
            node.check()?;
            let Some((b, child)) = step else {
                return node.end_child();
            };
            match self.max_leaf(child)? {
                None => bound = b as usize, // husk subtree
                found => return Some(found),
            }
        }
    }
}
