//! PDL-ART point descent and exact lookup.
//!
//! [`Art::descend`] is the one walk behind `get`, `insert` and `remove`:
//! each of them is only its action on the node where the walk stops.
//! Readers never write NVM (GA2): traversal is fully optimistic with
//! per-node version validation, restarting on any conflict. A validated
//! read can only have observed data a writer already persisted (writers
//! persist before unlocking), which is what makes lookups durably
//! linearizable.

use std::sync::atomic::{AtomicU64, Ordering};

use pmem::pptr::PmPtr;

use super::insert::leaf_ref;
use super::node::is_leaf;
use super::{find_child, lcp_len, read_node, retry, Art, Attempt, NodeView, ParentCtx};

/// Where a key's path ends at the node a descent stopped at.
#[derive(Clone, Copy)]
pub(super) enum Landing<'a> {
    /// The key leaves the node's prefix after `m` matching bytes.
    Diverge(usize),
    /// The key ends at the node; its end child (0 if none).
    End(u64),
    /// The node's child for the key's next byte `b` is a leaf, in `slot`.
    Leaf {
        b: u8,
        leaf: u64,
        slot: &'a AtomicU64,
    },
    /// The node has no child for the key's next byte.
    Vacant(u8),
}

/// A point descent's stop: the node, read under `node.token`, the slot it
/// hangs in, the key bytes consumed above it, and the landing.
pub(super) struct Descent<'a> {
    pub(super) node: NodeView<'a>,
    pub(super) parent: ParentCtx<'a>,
    pub(super) depth: usize,
    pub(super) landing: Landing<'a>,
}

impl Art {
    /// Walks from the root along `key` and stops where its path ends. Every
    /// node is entered through [`read_node`] after its parent validated the
    /// child pointer, so a node replaced meanwhile conflicts. The caller
    /// holds the epoch pin.
    pub(super) fn descend(&self, key: &[u8]) -> Attempt<Descent<'_>> {
        let root_token = self.root_lock.read_begin()?;
        let slot = self.root_cell();
        let mut raw = slot.load(Ordering::Acquire);
        self.root_lock.read_validate(root_token).then_some(())?;
        let mut parent = ParentCtx {
            lock: &self.root_lock,
            token: root_token,
            slot,
            raw: 0,
            byte: 0,
        };
        let mut depth = 0usize;
        loop {
            self.charge_read(raw, 128);
            // SAFETY: `raw` was read from a slot under a validated token and
            // is an inner node (descents never enter leaves); epoch-pinned.
            let node = unsafe { read_node(raw) }?;
            let m = lcp_len(node.prefix(), &key[depth..]);
            let at = depth + node.plen;
            let landing = if m < node.plen {
                Landing::Diverge(m)
            } else if at == key.len() {
                Landing::End(node.end_child()?)
            } else {
                let b = key[at];
                // SAFETY: live inner node; slot references stay valid while
                // we are epoch-pinned.
                let found = unsafe { find_child(raw, b) };
                if let Some((child, _)) = found {
                    // Start fetching the child's header line while the
                    // version check completes (the jump-chase prefetch).
                    crate::simd::prefetch_read(PmPtr::<u8>::from_raw(child).as_ptr());
                }
                node.check()?;
                match found {
                    None => Landing::Vacant(b),
                    // SAFETY: child read under the validated token.
                    Some((leaf, slot)) if unsafe { is_leaf(leaf) } => {
                        Landing::Leaf { b, leaf, slot }
                    }
                    Some((child, slot)) => {
                        parent = ParentCtx {
                            lock: &node.hdr.lock,
                            token: node.token,
                            slot,
                            raw,
                            byte: b,
                        };
                        raw = child;
                        depth = at + 1;
                        continue;
                    }
                }
            };
            return Some(Descent {
                node,
                parent,
                depth,
                landing,
            });
        }
    }

    /// Looks up `key`; returns its value if present.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let _guard = self.collector().pin();
        retry(|| self.try_get(key))
    }

    fn try_get(&self, key: &[u8]) -> Attempt<Option<u64>> {
        let Descent { node, landing, .. } = self.descend(key)?;
        let (leaf, matches) = match landing {
            Landing::End(0) | Landing::Diverge(_) | Landing::Vacant(_) => return Some(None),
            Landing::End(leaf) => (leaf, true),
            Landing::Leaf { leaf, .. } => {
                self.charge_read(leaf, 64 + key.len());
                // SAFETY: read under the validated token, epoch-pinned; leaf
                // keys are immutable.
                (leaf, unsafe { leaf_ref(leaf).key() } == key)
            }
        };
        // SAFETY: as above.
        let value = unsafe { leaf_ref(leaf) }.value.load(Ordering::Acquire);
        node.check()?;
        Some(matches.then_some(value))
    }
}
