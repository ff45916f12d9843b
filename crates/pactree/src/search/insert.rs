//! PDL-ART insert (upsert) with optimistic lock coupling.
//!
//! Crash-consistency invariants upheld here (paper §5.1(2)):
//!
//! * new leaves and subtrees are fully persisted *before* the single atomic
//!   pointer store that links them (and that store is persisted right away);
//! * in-node child additions persist the payload (key byte + child pointer)
//!   first, then publish with the atomic meta-word store;
//! * nodes are never mutated in ways a crashed reader could misparse —
//!   prefix changes and arity changes copy the node and swap the parent
//!   pointer.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use pmem::epoch::Guard;
use pmem::persist;
use pmem::Result;

use super::lookup::{Descent, Landing};
use super::node::{pack_meta, ArtLeaf, ArtRef, NodeHeader, NodeRef, NodeType};
use super::{retry, Art, Attempt};
use crate::lock::WriteGuard;

/// Next-larger node arity for growth.
fn grown(ty: NodeType) -> NodeType {
    match ty {
        NodeType::Node4 => NodeType::Node16,
        NodeType::Node16 => NodeType::Node48,
        NodeType::Node48 => NodeType::Node256,
        _ => unreachable!("Node256 never grows"),
    }
}

impl ArtRef<'_> {
    /// Adds a child with the crash-safe persist order (payload first,
    /// meta-word publish last). Requires the node's write lock and spare
    /// capacity, with no existing child for `b`.
    fn insert_child_persist(self, b: u8, child: u64) {
        let append = |hdr: &NodeHeader, keys: &[AtomicU8], children: &[AtomicU64]| {
            let (ty, count, plen) = hdr.meta3();
            let i = count as usize;
            keys[i].store(b, Ordering::Relaxed);
            children[i].store(child, Ordering::Relaxed);
            persist::persist_obj(&keys[i]);
            persist::persist_obj(&children[i]);
            persist::fence();
            hdr.meta
                .store(pack_meta(ty, count + 1, plen), Ordering::Release);
            persist::persist_obj_fenced(&hdr.meta);
        };
        match self.classify() {
            NodeRef::N4(n) => append(&n.header, &n.keys, &n.children),
            NodeRef::N16(n) => append(&n.header, &n.keys, &n.children),
            NodeRef::N48(n) => {
                let slot = (0..48)
                    .find(|&i| n.children[i].load(Ordering::Relaxed) == 0)
                    .expect("caller checked capacity");
                n.children[slot].store(child, Ordering::Relaxed);
                persist::persist_obj(&n.children[slot]);
                persist::fence();
                // The index store is the visibility (linearization) point.
                n.child_index[b as usize].store(slot as u8, Ordering::Release);
                persist::persist_obj(&n.child_index[b as usize]);
                persist::fence();
                super::bump_count(&n.header, 1);
                persist::persist_obj_fenced(&n.header.meta);
            }
            NodeRef::N256(n) => {
                n.children[b as usize].store(child, Ordering::Release);
                persist::persist_obj(&n.children[b as usize]);
                persist::fence();
                super::bump_count(&n.header, 1);
                persist::persist_obj_fenced(&n.header.meta);
            }
            NodeRef::Leaf(_) => unreachable!("cannot add child to leaf"),
        }
    }
}

impl Art {
    /// Inserts or updates `key -> value`; returns the previous value if the
    /// key was present.
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero (reserved as the empty marker).
    pub fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        assert_ne!(value, 0, "value 0 is reserved");
        let guard = self.collector().pin();
        retry(|| self.try_insert(key, value, &guard))
    }

    /// Descends and takes the write locks the landing needs: the node's,
    /// and its parent's too when the node is replaced (a split inside its
    /// prefix, or growth of a full node).
    fn try_insert(
        &self,
        key: &[u8],
        value: u64,
        guard: &Guard<'_>,
    ) -> Attempt<Result<Option<u64>>> {
        let at = self.descend(key, guard)?;
        let replaced = match at.landing {
            Landing::Diverge(_) => true,
            Landing::Vacant(_) => usize::from(at.node.count) == at.node.ty.capacity(),
            _ => false,
        };
        let parent = &at.parent;
        let _pg = if replaced {
            Some(parent.lock.try_upgrade(parent.token)?)
        } else {
            None
        };
        let ng = at.node.hdr.lock.try_upgrade(at.node.token)?;
        Some(self.insert_at(&at, ng, key, value, guard))
    }

    /// The insert's action where the descent landed, under the locks
    /// [`try_insert`](Self::try_insert) took.
    fn insert_at(
        &self,
        at: &Descent<'_>,
        ng: WriteGuard<'_>,
        key: &[u8],
        value: u64,
        guard: &Guard<'_>,
    ) -> Result<Option<u64>> {
        let (node, depth) = (&at.node, at.depth);
        let mut oplog = self.oplog();
        match at.landing {
            // The leaf is the node's child under the held lock; leaf keys
            // are immutable.
            Landing::End(Some(leaf)) | Landing::Leaf { leaf, .. } if leaf.leaf().key() == key => {
                return Ok(Some(upsert_leaf(leaf.leaf(), value)));
            }
            Landing::End(_) => {
                let leaf = self.new_leaf(&mut oplog, key, value)?;
                self.link(&node.hdr.end_child, leaf);
            }
            Landing::Leaf { leaf, slot, .. } => {
                let sub = self.build_join(&mut oplog, leaf, key, value, depth + node.plen + 1)?;
                self.link(slot, sub);
            }
            Landing::Vacant(b) if usize::from(node.count) < node.ty.capacity() => {
                let leaf = self.new_leaf(&mut oplog, key, value)?;
                // Capacity checked under the token the lock was upgraded
                // from.
                node.node.insert_child_persist(b, leaf);
            }
            Landing::Vacant(b) => {
                // Full node: grow by copying into the next arity. An ART
                // structural modification on the request path — spans under
                // the active request trace (detail 2 = node grow), for
                // PACTree's search layer and PDL-ART alike; inert when
                // untraced.
                let _smo_span = obsv::trace::span_here(obsv::trace::SpanKind::Smo, 2);
                let leaf = self.new_leaf(&mut oplog, key, value)?;
                let entries = node.node.children().into_iter();
                let entries = entries.map(|(b, c)| (b, c.raw()));
                let end = node.hdr.end_child.load(Ordering::Acquire);
                let bigger = self.alloc_inner_with(
                    &mut oplog,
                    grown(node.ty),
                    node.prefix(),
                    entries.chain([(b, leaf)]),
                    end,
                )?;
                self.link(at.parent.slot, bigger);
                self.retire(node.node, ng, guard);
            }
            Landing::Diverge(m) => {
                // Diverge inside the compressed prefix: copy-on-write split.
                let prefix = node.prefix();
                let node2 = self.copy_node(&mut oplog, node.node, node.ty, &prefix[m + 1..])?;
                let leaf = self.new_leaf(&mut oplog, key, value)?;
                let split = (prefix[m], node2);
                let new_parent = if depth + m == key.len() {
                    // The key ends inside the prefix: it becomes the split
                    // node's end child.
                    self.alloc_inner_with(&mut oplog, NodeType::Node4, &prefix[..m], [split], leaf)?
                } else {
                    let entries = [split, (key[depth + m], leaf)];
                    self.alloc_inner_with(&mut oplog, NodeType::Node4, &prefix[..m], entries, 0)?
                };
                self.link(at.parent.slot, new_parent);
                self.retire(node.node, ng, guard);
            }
        }
        oplog.commit();
        Ok(None)
    }
}

/// In-place value update on a leaf (8-byte atomic store is the
/// linearization point; persisted before the caller releases the owning
/// node's lock, preserving durable linearizability).
fn upsert_leaf(leaf: &ArtLeaf, value: u64) -> u64 {
    let old = leaf.value.load(Ordering::Acquire);
    leaf.value.store(value, Ordering::Release);
    persist::persist_obj_fenced(&leaf.value);
    old
}
