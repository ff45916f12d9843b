//! Shared fixtures for the pacsrv integration tests.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use ycsb::RangeIndex;

pub mod cluster;

/// An in-memory index with an optional artificial per-op delay, so tests
/// can dial in an exact sustainable service rate. Snapshots are clones of
/// the whole map — O(n), fine for tests — which gives the cluster tests a
/// full MVCC surface (`scan_pairs_at` / `diff_pairs`) without persistent
/// memory pools.
type SnapStore = Arc<Mutex<HashMap<u64, BTreeMap<Vec<u8>, u64>>>>;

#[derive(Clone)]
pub struct MapIndex {
    map: Arc<RwLock<BTreeMap<Vec<u8>, u64>>>,
    snaps: SnapStore,
    next_snap: Arc<AtomicU64>,
    pub op_delay: Option<Duration>,
    /// When false, the snapshot methods keep the trait's "unsupported"
    /// defaults — for the tests that cover graceful degradation on
    /// unversioned indexes.
    pub versioned: bool,
}

impl Default for MapIndex {
    fn default() -> MapIndex {
        MapIndex {
            map: Arc::default(),
            snaps: Arc::default(),
            next_snap: Arc::default(),
            op_delay: None,
            versioned: true,
        }
    }
}

// Each integration test compiles its own copy of this module; not all of
// them use every constructor.
#[allow(dead_code)]
impl MapIndex {
    pub fn slow(op_delay: Duration) -> MapIndex {
        MapIndex {
            op_delay: Some(op_delay),
            ..MapIndex::default()
        }
    }

    pub fn unversioned() -> MapIndex {
        MapIndex {
            versioned: false,
            ..MapIndex::default()
        }
    }

    fn dally(&self) {
        if let Some(d) = self.op_delay {
            std::thread::sleep(d);
        }
    }
}

impl RangeIndex for MapIndex {
    fn name(&self) -> &'static str {
        "map"
    }
    fn insert(&self, key: &[u8], value: u64) {
        self.dally();
        self.map.write().unwrap().insert(key.to_vec(), value);
    }
    fn lookup(&self, key: &[u8]) -> Option<u64> {
        self.dally();
        self.map.read().unwrap().get(key).copied()
    }
    fn remove(&self, key: &[u8]) -> Option<u64> {
        self.dally();
        self.map.write().unwrap().remove(key)
    }
    fn scan(&self, start: &[u8], count: usize) -> usize {
        self.dally();
        self.map
            .read()
            .unwrap()
            .range(start.to_vec()..)
            .take(count)
            .count()
    }

    fn snapshot(&self) -> Option<u64> {
        if !self.versioned {
            return None;
        }
        let id = self.next_snap.fetch_add(1, Ordering::Relaxed) + 1;
        let frozen = self.map.read().unwrap().clone();
        self.snaps.lock().unwrap().insert(id, frozen);
        Some(id)
    }

    fn release_snapshot(&self, snap: u64) -> bool {
        self.snaps.lock().unwrap().remove(&snap).is_some()
    }

    fn scan_at(&self, snap: u64, start: &[u8], count: usize) -> Option<usize> {
        self.scan_pairs_at(snap, start, count).map(|p| p.len())
    }

    fn scan_pairs_at(&self, snap: u64, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        let snaps = self.snaps.lock().unwrap();
        let frozen = snaps.get(&snap)?;
        Some(
            frozen
                .range(start.to_vec()..)
                .take(count)
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        )
    }

    fn diff_pairs(&self, a: u64, b: u64) -> Option<Vec<ycsb::index::DiffPair>> {
        let snaps = self.snaps.lock().unwrap();
        let old = snaps.get(&a)?;
        let new = snaps.get(&b)?;
        let mut out = Vec::new();
        for (k, v) in new {
            match old.get(k) {
                None => out.push((k.clone(), None, Some(*v))),
                Some(ov) if ov != v => out.push((k.clone(), Some(*ov), Some(*v))),
                Some(_) => {}
            }
        }
        for (k, v) in old {
            if !new.contains_key(k) {
                out.push((k.clone(), Some(*v), None));
            }
        }
        out.sort_by(|x, y| x.0.cmp(&y.0));
        Some(out)
    }
}
