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

use std::sync::atomic::Ordering;

use pmem::persist;
use pmem::Result;

use super::node::{classify, header_of, is_leaf, ArtLeaf, NodeRef, NodeType};
use super::{collect_children, find_child, lcp_len, Art, ParentCtx, Step, MAX_RESTARTS};

/// Next-larger node arity for growth.
fn grown(ty: NodeType) -> NodeType {
    match ty {
        NodeType::Node4 => NodeType::Node16,
        NodeType::Node16 => NodeType::Node48,
        NodeType::Node48 => NodeType::Node256,
        _ => unreachable!("Node256 never grows"),
    }
}

/// Returns a shared reference to a leaf.
///
/// # Safety
///
/// `raw` must point to an initialized, epoch-protected leaf.
pub(super) unsafe fn leaf_ref<'a>(raw: u64) -> &'a ArtLeaf {
    debug_assert!(unsafe { is_leaf(raw) });
    // SAFETY: per caller contract.
    unsafe { &*(pmem::pptr::PmPtr::<ArtLeaf>::from_raw(raw).as_ptr()) }
}

/// Adds a child to a node that has spare capacity, with the crash-safe
/// persist order (payload first, meta-word publish last).
///
/// # Safety
///
/// The caller must hold the node's write lock, and the node must have spare
/// capacity with no existing child for `b`.
pub(super) unsafe fn insert_child_persist(raw: u64, b: u8, child: u64) {
    // SAFETY: exclusive access per caller contract.
    unsafe {
        match classify(raw) {
            NodeRef::N4(n) => {
                let (ty, count, plen) = n.header.meta3();
                let i = count as usize;
                n.keys[i].store(b, Ordering::Relaxed);
                n.children[i].store(child, Ordering::Relaxed);
                persist::persist_obj(&n.keys[i]);
                persist::persist_obj(&n.children[i]);
                persist::fence();
                n.header.meta.store(
                    super::node::pack_meta(ty, count + 1, plen),
                    Ordering::Release,
                );
                persist::persist_obj_fenced(&n.header.meta);
            }
            NodeRef::N16(n) => {
                let (ty, count, plen) = n.header.meta3();
                let i = count as usize;
                n.keys[i].store(b, Ordering::Relaxed);
                n.children[i].store(child, Ordering::Relaxed);
                persist::persist_obj(&n.keys[i]);
                persist::persist_obj(&n.children[i]);
                persist::fence();
                n.header.meta.store(
                    super::node::pack_meta(ty, count + 1, plen),
                    Ordering::Release,
                );
                persist::persist_obj_fenced(&n.header.meta);
            }
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
        let mut backoff = super::Backoff::new();
        for _ in 0..MAX_RESTARTS {
            match self.try_insert(key, value, &guard)? {
                Step::Done(old) => return Ok(old),
                Step::Restart => backoff.pause(),
            }
        }
        unreachable!("insert livelocked");
    }

    fn try_insert(
        &self,
        key: &[u8],
        value: u64,
        guard: &pmem::epoch::Guard<'_>,
    ) -> Result<Step<Option<u64>>> {
        let mut oplog = self.oplog();
        let root_cell = self.root_cell();
        let root_token = match self.root_lock.read_begin() {
            Some(t) => t,
            None => return Ok(Step::Restart),
        };
        let mut parent = ParentCtx {
            lock: &self.root_lock,
            token: root_token,
            slot: root_cell,
        };
        let mut raw = root_cell.load(Ordering::Acquire);
        if !self.root_lock.read_validate(root_token) {
            return Ok(Step::Restart);
        }
        debug_assert_ne!(raw, 0, "root always exists");
        let mut depth = 0usize;

        loop {
            self.charge_read(raw, 128);
            // SAFETY: `raw` is a reachable inner node (we never descend into
            // leaves) and we are epoch-pinned.
            let hdr = unsafe { header_of(raw) };
            let token = match hdr.lock.read_begin() {
                Some(t) => t,
                None => return Ok(Step::Restart),
            };
            let (ty, count, plen) = hdr.meta3();
            let plen = plen as usize;
            let mut prefix = [0u8; super::node::PREFIX_CAP];
            prefix[..plen].copy_from_slice(&hdr.prefix[..plen]);
            if !hdr.lock.read_validate(token) {
                return Ok(Step::Restart);
            }
            let prefix = &prefix[..plen];
            let rest = &key[depth..];
            let m = lcp_len(prefix, rest);

            if m < plen {
                // Diverge inside the compressed prefix: copy-on-write split.
                let Some(_pg) = parent.lock.try_upgrade(parent.token) else {
                    return Ok(Step::Restart);
                };
                let Some(_ng) = hdr.lock.try_upgrade(token) else {
                    return Ok(Step::Restart);
                };
                let node2 = self.copy_node(&mut oplog, raw, ty, &prefix[m + 1..])?;
                let leaf = self.new_leaf(&mut oplog, key, value)?;
                let new_parent = if depth + m == key.len() {
                    // The key ends inside the prefix: it becomes the split
                    // node's end child.
                    self.new_node4(&mut oplog, &prefix[..m], &[(prefix[m], node2)], leaf)?
                } else {
                    self.new_node4(
                        &mut oplog,
                        &prefix[..m],
                        &[(prefix[m], node2), (key[depth + m], leaf)],
                        0,
                    )?
                };
                self.link(parent.slot, new_parent);
                self.retire(raw, guard);
                oplog.commit();
                return Ok(Step::Done(None));
            }

            depth += plen;
            if depth == key.len() {
                // Key ends at this node: end-child slot.
                let ec = hdr.end_child.load(Ordering::Acquire);
                if !hdr.lock.read_validate(token) {
                    return Ok(Step::Restart);
                }
                let Some(_ng) = hdr.lock.try_upgrade(token) else {
                    return Ok(Step::Restart);
                };
                if ec != 0 {
                    let old = self.upsert_leaf(ec, value);
                    oplog.commit();
                    return Ok(Step::Done(Some(old)));
                }
                let leaf = self.new_leaf(&mut oplog, key, value)?;
                self.link(&hdr.end_child, leaf);
                oplog.commit();
                return Ok(Step::Done(None));
            }

            let b = key[depth];
            // SAFETY: `raw` is a live inner node; slot references stay valid
            // while we are epoch-pinned.
            let found = unsafe { find_child(raw, b) };
            if !hdr.lock.read_validate(token) {
                return Ok(Step::Restart);
            }

            match found {
                Some((child, slot)) => {
                    // SAFETY: `child` was read under a validated token and we
                    // are epoch-pinned, so it is initialized and not freed.
                    if unsafe { is_leaf(child) } {
                        // SAFETY: see above; leaf keys are immutable.
                        let lkey = unsafe { leaf_ref(child).key() }.to_vec();
                        if !hdr.lock.read_validate(token) {
                            return Ok(Step::Restart);
                        }
                        let Some(_ng) = hdr.lock.try_upgrade(token) else {
                            return Ok(Step::Restart);
                        };
                        if lkey == key {
                            let old = self.upsert_leaf(child, value);
                            oplog.commit();
                            return Ok(Step::Done(Some(old)));
                        }
                        let sub =
                            self.build_join(&mut oplog, &lkey, child, key, value, depth + 1)?;
                        self.link(slot, sub);
                        oplog.commit();
                        return Ok(Step::Done(None));
                    }
                    parent = ParentCtx {
                        lock: &hdr.lock,
                        token,
                        slot,
                    };
                    raw = child;
                    depth += 1;
                }
                None => {
                    if (count as usize) < ty.capacity() {
                        let Some(_ng) = hdr.lock.try_upgrade(token) else {
                            return Ok(Step::Restart);
                        };
                        let leaf = self.new_leaf(&mut oplog, key, value)?;
                        // SAFETY: write lock held; capacity re-checked under
                        // the unchanged version.
                        unsafe { insert_child_persist(raw, b, leaf) };
                        oplog.commit();
                        return Ok(Step::Done(None));
                    }
                    // Full node: grow by copying into the next arity.
                    // An ART structural modification on the request path —
                    // spans under the active request trace (detail 2 =
                    // node grow), for PACTree's search layer and PDL-ART
                    // alike; inert when untraced.
                    let _smo_span = obsv::trace::span_here(obsv::trace::SpanKind::Smo, 2);
                    let Some(_pg) = parent.lock.try_upgrade(parent.token) else {
                        return Ok(Step::Restart);
                    };
                    let Some(_ng) = hdr.lock.try_upgrade(token) else {
                        return Ok(Step::Restart);
                    };
                    let leaf = self.new_leaf(&mut oplog, key, value)?;
                    // SAFETY: node write lock held.
                    let mut entries = unsafe { collect_children(raw) };
                    entries.push((b, leaf));
                    let end = hdr.end_child.load(Ordering::Acquire);
                    let bigger =
                        self.alloc_inner_with(&mut oplog, grown(ty), prefix, &entries, end)?;
                    self.link(parent.slot, bigger);
                    self.retire(raw, guard);
                    oplog.commit();
                    return Ok(Step::Done(None));
                }
            }
        }
    }

    /// In-place value update on a leaf (8-byte atomic store is the
    /// linearization point; persisted before the caller releases the node
    /// lock, preserving durable linearizability).
    fn upsert_leaf(&self, leaf_raw: u64, value: u64) -> u64 {
        // SAFETY: caller holds the owning node's write lock and is pinned.
        let leaf = unsafe { leaf_ref(leaf_raw) };
        let old = leaf.value.load(Ordering::Acquire);
        leaf.value.store(value, Ordering::Release);
        persist::persist_obj_fenced(&leaf.value);
        old
    }
}
