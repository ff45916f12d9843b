//! PDL-ART ordered range scans.
//!
//! Scans collect up to `limit` entries with keys ≥ `start` in key order.
//! Each scan is optimistic: per-node version validation, with a coarse
//! whole-scan restart on conflict (scans in the standalone PDL-ART baseline
//! are exactly the "multiple random NVM reads" the paper's GA5 analysis
//! criticizes — one pointer chase per leaf).

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::Ordering;

use super::node::{ArtRef, NodeRef};
use super::{read_node, retry, Art, Attempt};

impl Art {
    /// Collects up to `limit` `(key, value)` entries with `key >= start`,
    /// in ascending key order.
    pub fn scan(&self, start: &[u8], limit: usize) -> Vec<(Vec<u8>, u64)> {
        let guard = self.collector().pin();
        if limit == 0 {
            return Vec::new();
        }
        retry(|| {
            let mut out = Vec::with_capacity(limit.min(4096));
            self.walk(self.root(&guard), Some(start), 0, limit, &mut out)?;
            Some(out)
        })
    }

    /// In-order walk that stops once `out` holds `limit` entries. `bound` is
    /// `Some(start)` while the start key still constrains the subtree,
    /// `None` once the whole subtree qualifies.
    fn walk(
        &self,
        node: ArtRef<'_>,
        bound: Option<&[u8]>,
        depth: usize,
        limit: usize,
        out: &mut Vec<(Vec<u8>, u64)>,
    ) -> Attempt<()> {
        node.charge_read(128);
        if let NodeRef::Leaf(leaf) = node.classify() {
            // Leaf keys are immutable, the value atomic.
            let k = leaf.key();
            node.charge_read(64 + k.len());
            if bound.is_none_or(|s| k >= s) {
                out.push((k.to_vec(), leaf.value.load(Ordering::Acquire)));
            }
            return Some(());
        }
        let view = read_node(node)?;
        let children = node.children();
        let ec = view.end_child()?;
        // Warm the first few child lines before the in-order visits chase
        // them one random NVM read at a time (GA5's criticism of this path).
        for &(_, c) in children.iter().take(8) {
            c.prefetch();
        }
        let prefix = view.prefix();
        let plen = view.plen;

        // Work out how the bound constrains this subtree.
        let mut sub_bound: Option<&[u8]> = None;
        let mut start_byte: Option<u8> = None;
        let mut include_end = true;
        if let Some(s) = bound {
            let rest = &s[depth..];
            let l = plen.min(rest.len());
            match prefix[..l].cmp(&rest[..l]) {
                CmpOrdering::Less => return Some(()), // subtree < start
                CmpOrdering::Greater => {}            // subtree > start: all in
                CmpOrdering::Equal => {
                    if rest.len() <= plen {
                        // start is a (proper or full) prefix of the subtree
                        // path: every key here is >= start.
                    } else {
                        sub_bound = Some(s);
                        start_byte = Some(rest[plen]);
                        include_end = false; // a key ending here is shorter < start
                    }
                }
            }
        }

        if let Some(ec) = ec.filter(|_| include_end) {
            self.walk(ec, None, 0, limit, out)?;
            if out.len() >= limit {
                return Some(());
            }
        }
        let depth2 = depth + plen;
        for &(b, c) in &children {
            let (child_bound, child_depth) = match start_byte {
                Some(sb) if b < sb => continue,
                Some(sb) if b == sb => (sub_bound, depth2 + 1),
                _ => (None, 0),
            };
            self.walk(c, child_bound, child_depth, limit, out)?;
            if out.len() >= limit {
                return Some(());
            }
        }
        // Validate once more so the collected snapshot of this node's
        // children was stable across the subtree visits.
        view.check()
    }
}
