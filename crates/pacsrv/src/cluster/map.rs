//! Partition-map logic: key routing, validation, ownership flips.
//!
//! The data types ([`PartitionMap`], [`Partition`]) live in [`crate::wire`]
//! because they travel in frames; this module gives them behavior. A map
//! is a sorted list of start keys covering the whole key space: key `k`
//! belongs to the last partition whose `start <= k` (ranges are half-open,
//! `[start, next.start)`, the last one unbounded above). The epoch number
//! fences stale routers — every ownership change increments it, and a node
//! only ever adopts a map with a strictly newer epoch.

use crate::wire::{Partition, PartitionMap};

impl PartitionMap {
    /// An even split of the 8-byte big-endian `u64` key space over
    /// `endpoints`, one partition per endpoint, at epoch 1. Partition 0
    /// starts at the empty key so every possible key (including short or
    /// string keys) has an owner.
    pub fn split_u64(endpoints: &[String]) -> PartitionMap {
        assert!(!endpoints.is_empty(), "cannot split over zero endpoints");
        let n = endpoints.len() as u64;
        let stride = u64::MAX / n;
        let parts = endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| Partition {
                id: i as u32,
                start: if i == 0 {
                    Vec::new()
                } else {
                    (stride.saturating_mul(i as u64)).to_be_bytes().to_vec()
                },
                endpoint: ep.clone(),
            })
            .collect();
        PartitionMap { epoch: 1, parts }
    }

    /// Structural checks: at least one partition, the first starting at the
    /// empty key, starts strictly increasing, ids unique, endpoints
    /// non-empty. Every map a node installs passes through this.
    pub fn validate(&self) -> Result<(), String> {
        if self.parts.is_empty() {
            return Err("partition map has no partitions".to_string());
        }
        if !self.parts[0].start.is_empty() {
            return Err("first partition must start at the empty key".to_string());
        }
        let mut ids = std::collections::BTreeSet::new();
        for (i, p) in self.parts.iter().enumerate() {
            if p.endpoint.is_empty() {
                return Err(format!("partition {} has an empty endpoint", p.id));
            }
            if !ids.insert(p.id) {
                return Err(format!("duplicate partition id {}", p.id));
            }
            if i > 0 && self.parts[i - 1].start >= p.start {
                return Err(format!(
                    "partition starts not strictly increasing at index {i}"
                ));
            }
        }
        Ok(())
    }

    /// The partition owning `key`: the last one with `start <= key`.
    /// A validated map always has one (the first start is empty).
    pub fn owner_of(&self, key: &[u8]) -> &Partition {
        &self.parts[self.owner_index(key)]
    }

    /// [`owner_of`](Self::owner_of) as a position in `parts`.
    pub(crate) fn owner_index(&self, key: &[u8]) -> usize {
        let idx = self.parts.partition_point(|p| p.start.as_slice() <= key);
        idx.saturating_sub(1)
    }

    /// The partition with this id.
    pub fn partition(&self, id: u32) -> Option<&Partition> {
        self.parts.iter().find(|p| p.id == id)
    }

    /// The exclusive upper bound of partition `id`'s key range: the next
    /// partition's start, or `None` if `id` is last (unbounded above).
    pub fn end_of(&self, id: u32) -> Option<&[u8]> {
        let pos = self.parts.iter().position(|p| p.id == id)?;
        self.parts.get(pos + 1).map(|p| p.start.as_slice())
    }

    /// A successor map with partition `id` reassigned to `endpoint` and
    /// the epoch incremented — what a completed migration installs.
    pub fn with_owner(&self, id: u32, endpoint: &str) -> PartitionMap {
        let mut next = self.clone();
        next.epoch += 1;
        for p in &mut next.parts {
            if p.id == id {
                p.endpoint = endpoint.to_string();
            }
        }
        next
    }

    /// Every distinct endpoint in the map, sorted.
    pub fn endpoints(&self) -> Vec<&str> {
        let mut eps: Vec<&str> = self.parts.iter().map(|p| p.endpoint.as_str()).collect();
        eps.sort_unstable();
        eps.dedup();
        eps
    }
}

/// Whether `key` falls inside `[start, end)` (`end = None` = unbounded).
pub(crate) fn in_range(key: &[u8], start: &[u8], end: Option<&[u8]>) -> bool {
    key >= start && end.is_none_or(|e| key < e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_way() -> PartitionMap {
        PartitionMap::split_u64(&["a:1".to_string(), "b:2".to_string(), "c:3".to_string()])
    }

    #[test]
    fn split_covers_the_key_space() {
        let map = three_way();
        map.validate().expect("valid");
        assert_eq!(map.epoch, 1);
        assert_eq!(map.parts.len(), 3);
        assert_eq!(map.owner_of(b"").id, 0);
        assert_eq!(map.owner_of(&0u64.to_be_bytes()).id, 0);
        assert_eq!(map.owner_of(&u64::MAX.to_be_bytes()).id, 2);
        // A boundary key belongs to the partition it starts.
        let boundary = map.parts[1].start.clone();
        assert_eq!(map.owner_of(&boundary).id, 1);
        // Just below the boundary still belongs to partition 0.
        let mut below = boundary.clone();
        *below.last_mut().unwrap() = below.last().unwrap().wrapping_sub(1);
        assert_eq!(map.owner_of(&below).id, 0);
    }

    #[test]
    fn end_of_is_the_next_start() {
        let map = three_way();
        assert_eq!(map.end_of(0), Some(map.parts[1].start.as_slice()));
        assert_eq!(map.end_of(1), Some(map.parts[2].start.as_slice()));
        assert_eq!(map.end_of(2), None);
        assert_eq!(map.end_of(99), None);
    }

    #[test]
    fn with_owner_bumps_the_epoch() {
        let map = three_way();
        let next = map.with_owner(1, "d:4");
        assert_eq!(next.epoch, map.epoch + 1);
        assert_eq!(next.partition(1).unwrap().endpoint, "d:4");
        assert_eq!(next.partition(0).unwrap().endpoint, "a:1");
        next.validate().expect("still valid");
    }

    #[test]
    fn validate_rejects_broken_maps() {
        assert!(PartitionMap {
            epoch: 1,
            parts: vec![]
        }
        .validate()
        .is_err());
        // First partition not starting at the empty key.
        assert!(PartitionMap {
            epoch: 1,
            parts: vec![Partition {
                id: 0,
                start: vec![1],
                endpoint: "a".into()
            }]
        }
        .validate()
        .is_err());
        // Duplicate ids.
        let mut dup = three_way();
        dup.parts[2].id = 0;
        assert!(dup.validate().is_err());
        // Non-increasing starts.
        let mut unsorted = three_way();
        unsorted.parts[2].start = unsorted.parts[1].start.clone();
        assert!(unsorted.validate().is_err());
        // Empty endpoint.
        let mut noep = three_way();
        noep.parts[1].endpoint.clear();
        assert!(noep.validate().is_err());
    }

    #[test]
    fn in_range_is_half_open() {
        assert!(in_range(b"b", b"b", Some(b"c")));
        assert!(!in_range(b"c", b"b", Some(b"c")));
        assert!(!in_range(b"a", b"b", Some(b"c")));
        assert!(in_range(b"zzz", b"b", None));
    }
}
