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

use std::sync::atomic::{AtomicU64, Ordering};

use pmem::persist;
use pmem::Result;

use super::insert::leaf_ref;
use super::node::{classify, header_of, is_leaf, NodeRef, NodeType, N48_EMPTY};
use super::{collect_children, find_child, lcp_len, Art, OpLog, Step, MAX_RESTARTS};
use crate::lock::{ReadToken, VersionLock};

/// Parent context extended with the parent node identity (for husk removal).
#[derive(Clone, Copy)]
struct ParentCtx2<'a> {
    lock: &'a VersionLock,
    token: ReadToken,
    slot: &'a AtomicU64,
    /// Raw pointer of the parent *node*; 0 when the parent is the root cell.
    raw: u64,
    /// Key byte under which the current node hangs in the parent.
    byte: u8,
}

/// Tombstones the child for byte `b`: a single persisted atomic store.
///
/// # Safety
///
/// Caller holds the node's write lock and the child exists.
unsafe fn remove_child_persist(raw: u64, b: u8) {
    // SAFETY: exclusive access per caller contract.
    unsafe {
        match classify(raw) {
            NodeRef::N4(n) => {
                let (_, count, _) = n.header.meta3();
                for i in 0..count as usize {
                    if n.keys[i].load(Ordering::Relaxed) == b
                        && n.children[i].load(Ordering::Relaxed) != 0
                    {
                        n.children[i].store(0, Ordering::Release);
                        persist::persist_obj_fenced(&n.children[i]);
                        return;
                    }
                }
                unreachable!("child {b} not found in Node4");
            }
            NodeRef::N16(n) => {
                let (_, count, _) = n.header.meta3();
                for i in 0..count as usize {
                    if n.keys[i].load(Ordering::Relaxed) == b
                        && n.children[i].load(Ordering::Relaxed) != 0
                    {
                        n.children[i].store(0, Ordering::Release);
                        persist::persist_obj_fenced(&n.children[i]);
                        return;
                    }
                }
                unreachable!("child {b} not found in Node16");
            }
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
        let mut backoff = super::Backoff::new();
        for _ in 0..MAX_RESTARTS {
            match self.try_remove(key, &guard)? {
                Step::Done(old) => return Ok(old),
                Step::Restart => backoff.pause(),
            }
        }
        unreachable!("remove livelocked");
    }

    fn try_remove(&self, key: &[u8], guard: &pmem::epoch::Guard<'_>) -> Result<Step<Option<u64>>> {
        let mut oplog = self.oplog();
        let root_cell = self.root_cell();
        let root_token = match self.root_lock.read_begin() {
            Some(t) => t,
            None => return Ok(Step::Restart),
        };
        let mut parent = ParentCtx2 {
            lock: &self.root_lock,
            token: root_token,
            slot: root_cell,
            raw: 0,
            byte: 0,
        };
        let mut raw = root_cell.load(Ordering::Acquire);
        if !self.root_lock.read_validate(root_token) {
            return Ok(Step::Restart);
        }
        let mut depth = 0usize;

        loop {
            self.charge_read(raw, 128);
            // SAFETY: reachable inner node, epoch-pinned.
            let hdr = unsafe { header_of(raw) };
            let token = match hdr.lock.read_begin() {
                Some(t) => t,
                None => return Ok(Step::Restart),
            };
            let (_, _, plen) = hdr.meta3();
            let plen = plen as usize;
            let mut prefix = [0u8; super::node::PREFIX_CAP];
            prefix[..plen].copy_from_slice(&hdr.prefix[..plen]);
            if !hdr.lock.read_validate(token) {
                return Ok(Step::Restart);
            }
            let rest = &key[depth..];
            if lcp_len(&prefix[..plen], rest) < plen {
                return Ok(Step::Done(None));
            }
            depth += plen;

            if depth == key.len() {
                let ec = hdr.end_child.load(Ordering::Acquire);
                if !hdr.lock.read_validate(token) {
                    return Ok(Step::Restart);
                }
                if ec == 0 {
                    return Ok(Step::Done(None));
                }
                let Some(ng) = hdr.lock.try_upgrade(token) else {
                    return Ok(Step::Restart);
                };
                // SAFETY: leaf alive under epoch pin; we hold the node lock.
                let old = unsafe { leaf_ref(ec) }.value.load(Ordering::Acquire);
                hdr.end_child.store(0, Ordering::Release);
                persist::persist_obj_fenced(&hdr.end_child);
                self.retire(ec, guard);
                self.try_maintain(&parent, raw, &ng, &mut oplog, guard)?;
                drop(ng);
                oplog.commit();
                return Ok(Step::Done(Some(old)));
            }

            let b = key[depth];
            // SAFETY: live inner node, epoch-pinned.
            let found = unsafe { find_child(raw, b) };
            if !hdr.lock.read_validate(token) {
                return Ok(Step::Restart);
            }
            let Some((child, slot)) = found else {
                return Ok(Step::Done(None));
            };
            // SAFETY: child read under validated token, epoch-pinned.
            if unsafe { is_leaf(child) } {
                // SAFETY: leaf keys are immutable.
                if unsafe { leaf_ref(child).key() } != key {
                    if !hdr.lock.read_validate(token) {
                        return Ok(Step::Restart);
                    }
                    return Ok(Step::Done(None));
                }
                let Some(ng) = hdr.lock.try_upgrade(token) else {
                    return Ok(Step::Restart);
                };
                // SAFETY: validated leaf, node lock held.
                let old = unsafe { leaf_ref(child) }.value.load(Ordering::Acquire);
                // SAFETY: node write lock held; child exists.
                unsafe { remove_child_persist(raw, b) };
                self.retire(child, guard);
                self.try_maintain(&parent, raw, &ng, &mut oplog, guard)?;
                drop(ng);
                oplog.commit();
                return Ok(Step::Done(Some(old)));
            }
            parent = ParentCtx2 {
                lock: &hdr.lock,
                token,
                slot,
                raw,
                byte: b,
            };
            raw = child;
            depth += 1;
        }
    }

    /// Best-effort structural cleanup of `raw` after a removal. Requires the
    /// node's write lock (witnessed by `_ng`); takes the parent lock
    /// opportunistically and silently skips when it cannot.
    fn try_maintain(
        &self,
        parent: &ParentCtx2<'_>,
        raw: u64,
        _ng: &crate::lock::WriteGuard<'_>,
        oplog: &mut OpLog<'_>,
        guard: &pmem::epoch::Guard<'_>,
    ) -> Result<()> {
        // SAFETY: we hold the node's write lock.
        let hdr = unsafe { header_of(raw) };
        let (ty, _, plen) = hdr.meta3();
        // SAFETY: write lock held: stable snapshot.
        let children = unsafe { collect_children(raw) };
        let live = children.len();
        let end = hdr.end_child.load(Ordering::Acquire);
        let is_root_node = parent.raw == 0;

        if live == 0 && end == 0 {
            if is_root_node {
                return Ok(()); // empty tree keeps its root node
            }
            // Dead husk: unlink from the parent node.
            let Some(_pg) = parent.lock.try_upgrade(parent.token) else {
                return Ok(());
            };
            // SAFETY: parent write lock held; this node hangs at
            // `parent.byte`.
            unsafe { remove_child_persist(parent.raw, parent.byte) };
            self.retire(raw, guard);
            return Ok(());
        }

        if live == 0 && end != 0 && !is_root_node {
            // Only the end child remains: promote the leaf into the parent
            // slot (leaves carry full keys, so the prefix is expendable).
            let Some(_pg) = parent.lock.try_upgrade(parent.token) else {
                return Ok(());
            };
            self.link(parent.slot, end);
            self.retire(raw, guard);
            return Ok(());
        }

        if live == 1 && end == 0 && !is_root_node {
            let (cb, child) = children[0];
            let Some(_pg) = parent.lock.try_upgrade(parent.token) else {
                return Ok(());
            };
            // SAFETY: child read under our write lock; epoch-pinned.
            if unsafe { is_leaf(child) } {
                self.link(parent.slot, child);
                self.retire(raw, guard);
                return Ok(());
            }
            // Splice: concatenate prefixes into a copy of the child.
            let Some(_cg) = unsafe { header_of(child) }.lock.try_write_lock() else {
                return Ok(());
            };
            // SAFETY: child write lock held.
            let child_hdr = unsafe { header_of(child) };
            let (cty, _, cplen) = child_hdr.meta3();
            let mut new_prefix = Vec::with_capacity(plen as usize + 1 + cplen as usize);
            new_prefix.extend_from_slice(&hdr.prefix[..plen as usize]);
            new_prefix.push(cb);
            new_prefix.extend_from_slice(&child_hdr.prefix[..cplen as usize]);
            let merged = self.copy_node(oplog, child, cty, &new_prefix)?;
            self.link(parent.slot, merged);
            self.retire(raw, guard);
            self.retire(child, guard);
            return Ok(());
        }

        if let Some(target) = shrink_target(ty, live) {
            let Some(_pg) = parent.lock.try_upgrade(parent.token) else {
                return Ok(());
            };
            let smaller =
                self.alloc_inner_with(oplog, target, &hdr.prefix[..plen as usize], &children, end)?;
            self.link(parent.slot, smaller);
            self.retire(raw, guard);
        }
        Ok(())
    }
}
