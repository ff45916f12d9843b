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

use pmem::epoch::Guard;

use super::node::ArtRef;
use super::{lcp_len, read_node, retry, Art, Attempt, NodeView, ParentCtx};

/// Where a key's path ends at the node a descent stopped at.
#[derive(Clone, Copy)]
pub(super) enum Landing<'a> {
    /// The key leaves the node's prefix after `m` matching bytes.
    Diverge(usize),
    /// The key ends at the node; its end child, if any.
    End(Option<ArtRef<'a>>),
    /// The node's child for the key's next byte `b` is a leaf, in `slot`.
    Leaf {
        b: u8,
        leaf: ArtRef<'a>,
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
    /// child pointer, so a node replaced meanwhile conflicts.
    pub(super) fn descend<'a>(&'a self, key: &[u8], guard: &'a Guard<'_>) -> Attempt<Descent<'a>> {
        let root_token = self.root_lock.read_begin()?;
        let slot = self.root_cell();
        let mut node = ArtRef::load(slot, guard).expect("the root cell holds a node");
        self.root_lock.read_validate(root_token).then_some(())?;
        let mut parent = ParentCtx {
            lock: &self.root_lock,
            token: root_token,
            slot,
            node: None,
            byte: 0,
        };
        let mut depth = 0usize;
        loop {
            node.charge_read(128);
            let view = read_node(node)?;
            let m = lcp_len(view.prefix(), &key[depth..]);
            let at = depth + view.plen;
            let landing = if m < view.plen {
                Landing::Diverge(m)
            } else if at == key.len() {
                Landing::End(view.end_child()?)
            } else {
                let b = key[at];
                let found = node.find_child(b);
                if let Some((child, _)) = found {
                    // Start fetching the child's header line while the
                    // version check completes (the jump-chase prefetch).
                    child.prefetch();
                }
                view.check()?;
                match found {
                    None => Landing::Vacant(b),
                    Some((leaf, slot)) if leaf.is_leaf() => Landing::Leaf { b, leaf, slot },
                    Some((child, slot)) => {
                        parent = ParentCtx {
                            lock: &view.hdr.lock,
                            token: view.token,
                            slot,
                            node: Some(node),
                            byte: b,
                        };
                        node = child;
                        depth = at + 1;
                        continue;
                    }
                }
            };
            return Some(Descent {
                node: view,
                parent,
                depth,
                landing,
            });
        }
    }

    /// Looks up `key`; returns its value if present.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let guard = self.collector().pin();
        retry(|| self.try_get(key, &guard))
    }

    fn try_get(&self, key: &[u8], guard: &Guard<'_>) -> Attempt<Option<u64>> {
        let Descent { node, landing, .. } = self.descend(key, guard)?;
        let leaf = match landing {
            Landing::End(None) | Landing::Diverge(_) | Landing::Vacant(_) => return Some(None),
            Landing::End(Some(leaf)) => leaf.leaf(),
            Landing::Leaf { leaf, .. } => {
                leaf.charge_read(64 + key.len());
                leaf.leaf()
            }
        };
        let matches = matches!(landing, Landing::End(_)) || leaf.key() == key;
        let value = leaf.value.load(Ordering::Acquire);
        node.check()?;
        Some(matches.then_some(value))
    }
}
