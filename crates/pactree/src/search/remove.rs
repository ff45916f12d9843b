//! PDL-ART removal, with best-effort structural maintenance.
//!
//! Removal linearizes on a *single* atomic store (nulling a child slot,
//! clearing a Node48 index byte, or clearing the end-child pointer), which
//! is persisted immediately — there is no intermediate state a crash could
//! expose (paper §5.1(2)). Slots are tombstoned rather than compacted in
//! place; compaction happens copy-on-write during later growth/shrink, so
//! reachable nodes are never rearranged under readers.
//!
//! After a removal the operation opportunistically maintains the tree
//! (shrinking oversized nodes, splicing single-child nodes, deleting empty
//! husks). Maintenance requires the parent lock; if it cannot be taken
//! without blocking it is simply skipped — a later operation will redo it.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use pmem::epoch::Guard;
use pmem::persist;
use pmem::Result;

use super::lookup::{Descent, Landing};
use super::node::{ArtRef, NodeRef, NodeType, N48_EMPTY};
use super::{retry, Art, Attempt, NodeView, ParentCtx};
use crate::lock::WriteGuard;

impl ArtRef<'_> {
    /// Tombstones the child for byte `b`: a single persisted atomic store.
    /// Requires the node's write lock; the child exists.
    fn remove_child_persist(self, b: u8) {
        let tombstone = |keys: &[AtomicU8], children: &[AtomicU64]| {
            let live = |(k, c): &(&AtomicU8, &AtomicU64)| {
                k.load(Ordering::Relaxed) == b && c.load(Ordering::Relaxed) != 0
            };
            let (_, c) = keys
                .iter()
                .zip(children)
                .find(live)
                .expect("the child exists");
            c.store(0, Ordering::Release);
            persist::persist_obj_fenced(c);
        };
        match self.classify() {
            NodeRef::N4(n) => tombstone(&n.keys[..n.header.meta3().1 as usize], &n.children),
            NodeRef::N16(n) => tombstone(&n.keys[..n.header.meta3().1 as usize], &n.children),
            NodeRef::N48(n) => {
                let idx = n.child_index[b as usize].load(Ordering::Relaxed);
                debug_assert_ne!(idx, N48_EMPTY);
                // Index clear is the linearization point; then release the
                // child slot for reuse and fix the count.
                n.child_index[b as usize].store(N48_EMPTY, Ordering::Release);
                persist::persist_obj(&n.child_index[b as usize]);
                persist::fence();
                n.children[idx as usize].store(0, Ordering::Release);
                persist::persist_obj_fenced(&n.children[idx as usize]);
                super::bump_count(&n.header, -1);
                persist::persist_obj_fenced(&n.header.meta);
            }
            NodeRef::N256(n) => {
                n.children[b as usize].store(0, Ordering::Release);
                persist::persist_obj_fenced(&n.children[b as usize]);
                super::bump_count(&n.header, -1);
                persist::persist_obj_fenced(&n.header.meta);
            }
            NodeRef::Leaf(_) => unreachable!("leaf has no children"),
        }
    }
}

/// Shrink target for a live-child count, if the node is oversized.
fn shrink_target(ty: NodeType, live: usize) -> Option<NodeType> {
    match ty {
        NodeType::Node256 if live <= 40 => Some(NodeType::Node48),
        NodeType::Node48 if live <= 12 => Some(NodeType::Node16),
        NodeType::Node16 if live <= 3 => Some(NodeType::Node4),
        _ => None,
    }
}

impl Art {
    /// Removes `key`; returns its value if it was present.
    pub fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        let guard = self.collector().pin();
        Ok(retry(|| self.try_remove(key, &guard)))
    }

    fn try_remove(&self, key: &[u8], guard: &Guard<'_>) -> Attempt<Option<u64>> {
        let Descent {
            node,
            parent,
            landing,
            ..
        } = self.descend(key, guard)?;
        let (leaf, byte) = match landing {
            Landing::End(None) | Landing::Diverge(_) | Landing::Vacant(_) => return Some(None),
            Landing::End(Some(leaf)) => (leaf, None),
            // Leaf keys are immutable.
            Landing::Leaf { b, leaf, .. } if leaf.leaf().key() == key => (leaf, Some(b)),
            Landing::Leaf { .. } => return Some(None),
        };
        let ng = node.hdr.lock.try_upgrade(node.token)?;
        let old = leaf.leaf().value.load(Ordering::Acquire);
        match byte {
            Some(b) => node.node.remove_child_persist(b),
            None => {
                node.hdr.end_child.store(0, Ordering::Release);
                persist::persist_obj_fenced(&node.hdr.end_child);
            }
        }
        self.retire_leaf(leaf, guard);
        self.try_maintain(&node, &parent, ng, guard);
        Some(Some(old))
    }

    /// Best-effort structural cleanup of `node` after a removal, under its
    /// write lock `ng`. Takes the parent's lock opportunistically and skips
    /// (returns `None`, releasing every lock) when it, a child's lock or an
    /// allocation cannot be had. A node it replaces or unlinks is retired
    /// with its lock held.
    fn try_maintain(
        &self,
        node: &NodeView<'_>,
        parent: &ParentCtx<'_>,
        ng: WriteGuard<'_>,
        guard: &Guard<'_>,
    ) -> Option<()> {
        // Write lock held: a stable snapshot.
        let children = node.node.children();
        let end = node.hdr.end_child.load(Ordering::Acquire);
        let is_root = parent.node.is_none();
        if is_root && children.is_empty() && end == 0 {
            return None; // the empty tree keeps its root node
        }
        // The root node, and a node with more than one entry, can only
        // shrink; any other node is unlinked, promoted or spliced away.
        let shrink = if is_root || children.len() + usize::from(end != 0) > 1 {
            Some(shrink_target(node.ty, children.len())?)
        } else {
            None
        };
        let _pg = parent.lock.try_upgrade(parent.token)?;
        let mut oplog = self.oplog();
        let mut spliced = None;
        let replacement = match (shrink, children.first()) {
            (Some(target), _) => {
                let entries = children.iter().map(|&(b, c)| (b, c.raw()));
                let prefix = node.prefix();
                self.alloc_inner_with(&mut oplog, target, prefix, entries, end)
                    .ok()?
            }
            (None, None) if end == 0 => {
                // Dead husk: unlink from the parent node, under its write
                // lock; this node hangs at `parent.byte`.
                let husk_parent = parent.node.expect("the root node is never unlinked");
                husk_parent.remove_child_persist(parent.byte);
                self.retire(node.node, ng, guard);
                return Some(());
            }
            // Only the end child remains: promote the leaf into the parent
            // slot (leaves carry full keys, so the prefix is expendable).
            (None, None) => end,
            (None, Some(&(_, child))) if child.is_leaf() => child.raw(),
            (None, Some(&(cb, child))) => {
                // Splice: concatenate prefixes into a copy of the child.
                let child_hdr = child.header();
                let cg = child_hdr.lock.try_write_lock()?;
                let (cty, _, cplen) = child_hdr.meta3();
                let mut new_prefix = node.prefix().to_vec();
                new_prefix.push(cb);
                new_prefix.extend_from_slice(&child_hdr.prefix[..cplen as usize]);
                let merged = self.copy_node(&mut oplog, child, cty, &new_prefix).ok()?;
                spliced = Some((child, cg));
                merged
            }
        };
        self.link(parent.slot, replacement);
        self.retire(node.node, ng, guard);
        if let Some((child, cg)) = spliced {
            self.retire(child, cg, guard);
        }
        oplog.commit();
        Some(())
    }
}
