//! PDL-ART as a standalone persistent key-value range index.
//!
//! This is the paper's *PDL-ART* baseline (§3, §5.1): the persistent
//! durable-linearizable adaptive radix tree used as PACTree's search layer,
//! here exposed directly as an index over byte keys and 8-byte values.
//!
//! Its performance profile is exactly what the paper's analysis (GA3, GA5)
//! predicts:
//!
//! * lookups consume little NVM read bandwidth — partial-key comparisons in
//!   packed trie nodes (Figure 4's winner);
//! * every insert performs an NVM allocation for an out-of-node leaf — high
//!   allocator pressure (Figure 3, the GA3 experiment);
//! * scans chase one pointer per key — random NVM reads (Figure 5's loser).
//!
//! # Example
//!
//! ```
//! use pdl_art::{PdlArt, PdlArtConfig};
//!
//! let idx = PdlArt::create(PdlArtConfig::named("pdlart-doc")).unwrap();
//! idx.insert(b"key", 7).unwrap();
//! assert_eq!(idx.lookup(b"key"), Some(7));
//! assert_eq!(idx.scan(b"a", 10).len(), 1);
//! ```

use std::sync::Arc;

use pactree::search::Art;
use pmem::epoch::Collector;
use pmem::pool::{self, PmemPool, PoolConfig};
use pmem::{AllocMode, PmemError, Result};

/// Configuration for creating a [`PdlArt`] index.
#[derive(Debug, Clone)]
pub struct PdlArtConfig {
    /// Pool name (a single pool backs the index).
    pub name: String,
    /// Pool size in bytes.
    pub pool_size: usize,
    /// Keep a media image for crash simulation.
    pub crash_sim: bool,
    /// Allocator crash-consistency mode (the Figure 3 experiment toggles
    /// this between PMDK-like and jemalloc-like behaviour).
    pub alloc_mode: AllocMode,
}

impl PdlArtConfig {
    /// Defaults for tests and examples.
    pub fn named(name: &str) -> Self {
        PdlArtConfig {
            name: name.to_string(),
            pool_size: 256 << 20,
            crash_sim: false,
            alloc_mode: AllocMode::Transient,
        }
    }

    /// Durable configuration (crash simulation + crash-consistent allocator).
    pub fn durable(name: &str) -> Self {
        PdlArtConfig {
            crash_sim: true,
            alloc_mode: AllocMode::CrashConsistent,
            ..Self::named(name)
        }
    }

    /// Sets the pool size.
    pub fn with_pool_size(mut self, bytes: usize) -> Self {
        self.pool_size = bytes;
        self
    }

    /// Sets the allocator mode.
    pub fn with_alloc_mode(mut self, mode: AllocMode) -> Self {
        self.alloc_mode = mode;
        self
    }
}

/// A standalone PDL-ART index mapping byte keys to `u64` values.
///
/// Values are stored in out-of-node leaves (one NVM allocation per insert,
/// the paper's PDL-ART allocation profile). All `u64` values except
/// `u64::MAX` are supported (the internal encoding reserves one word).
pub struct PdlArt {
    pool: Arc<PmemPool>,
    art: Art,
    collector: Arc<Collector>,
}

// Internal encoding: ART reserves raw value 0 for "empty", so shift by one.
#[inline]
fn encode(v: u64) -> Result<u64> {
    if v == u64::MAX {
        return Err(PmemError::InvalidAllocation(usize::MAX));
    }
    Ok(v + 1)
}

#[inline]
fn decode(raw: u64) -> u64 {
    raw - 1
}

impl PdlArt {
    /// Creates a fresh index (or attaches to an existing pool's tree after
    /// recovery).
    pub fn create(config: PdlArtConfig) -> Result<Arc<PdlArt>> {
        let pool = PmemPool::create(PoolConfig {
            name: config.name.clone(),
            size: config.pool_size,
            numa_node: pmem::numa::current_node(),
            crash_sim: config.crash_sim,
            alloc_mode: config.alloc_mode,
        })?;
        Self::attach(pool)
    }

    /// Attaches to an existing pool (recovery path): bumps the lock
    /// generation and reclaims leaked allocations.
    pub fn recover(name: &str) -> Result<Arc<PdlArt>> {
        pactree::lock::bump_global_generation();
        let pool =
            pool::pool_by_name(name).ok_or_else(|| PmemError::PoolNotFound(name.to_string()))?;
        pool.allocator().recover_logs();
        let idx = Self::attach(pool)?;
        idx.art.recover();
        Ok(idx)
    }

    fn attach(pool: Arc<PmemPool>) -> Result<Arc<PdlArt>> {
        let collector = Arc::new(Collector::new());
        let art = Art::create(Arc::clone(&pool), 0, Arc::clone(&collector))?;
        Ok(Arc::new(PdlArt {
            pool,
            art,
            collector,
        }))
    }

    /// The epoch collector (exposed so batch processors can hold one pin
    /// across a run of operations; pins nest).
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// The backing pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Inserts or updates; returns the previous value if present.
    pub fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        Ok(self.art.insert(key, encode(value)?)?.map(decode))
    }

    /// Updates an existing key only; returns the previous value, or `None`
    /// (and does nothing) if absent.
    pub fn update(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        // ART insert is an upsert; emulate update-only with a pre-check.
        // A racing remove can still turn this into an insert — acceptable
        // for the YCSB-style workloads this baseline exists for.
        if self.art.get(key).is_none() {
            return Ok(None);
        }
        self.insert(key, value)
    }

    /// Point lookup.
    pub fn lookup(&self, key: &[u8]) -> Option<u64> {
        self.art.get(key).map(decode)
    }

    /// Removes `key`; returns its value if present.
    pub fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        Ok(self.art.remove(key)?.map(decode))
    }

    /// Ordered scan of up to `count` pairs with keys ≥ `start`. Each pair
    /// costs a random NVM leaf read (the paper's GA5 point).
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        self.art
            .scan(start, count)
            .into_iter()
            .map(|(k, v)| (k, decode(v)))
            .collect()
    }

    /// Greatest entry with key ≤ `key` (predecessor/floor query — the trie
    /// descent PACTree uses for anchor lookup).
    pub fn floor(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        self.art.floor_entry(key).map(|(k, v)| (k, decode(v)))
    }

    /// Smallest entry with key ≥ `key` (successor/ceiling query).
    pub fn ceil(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        self.scan(key, 1).into_iter().next()
    }

    /// Advances epoch reclamation (periodic maintenance).
    ///
    /// Under request tracing (`obsv::trace`), an advance that runs inside a
    /// traced request records an `epoch` span (via
    /// `pmem::epoch::Collector::try_advance`), and ART node growth inside
    /// [`insert`](Self::insert) records an `smo` span — so PDL-ART's
    /// structural and reclamation work is attributed per request exactly
    /// like PACTree's.
    pub fn maintain(&self) {
        self.collector.try_advance();
    }

    /// Number of live keys — O(n), tests only.
    pub fn len(&self) -> usize {
        self.art.count_entries()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unregisters the backing pool, invalidating the index.
    pub fn destroy(self: Arc<Self>) {
        let id = self.pool.id();
        drop(self);
        pool::destroy_pool(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let idx = PdlArt::create(PdlArtConfig::named("pdlart-basic")).unwrap();
        assert_eq!(idx.insert(b"a", 0).unwrap(), None);
        assert_eq!(idx.lookup(b"a"), Some(0));
        assert_eq!(idx.insert(b"a", 5).unwrap(), Some(0));
        assert_eq!(idx.remove(b"a").unwrap(), Some(5));
        assert_eq!(idx.lookup(b"a"), None);
        idx.destroy();
    }

    #[test]
    fn max_value_rejected() {
        let idx = PdlArt::create(PdlArtConfig::named("pdlart-max")).unwrap();
        assert!(idx.insert(b"k", u64::MAX).is_err());
        idx.destroy();
    }

    #[test]
    fn update_only_semantics() {
        let idx = PdlArt::create(PdlArtConfig::named("pdlart-upd")).unwrap();
        assert_eq!(idx.update(b"ghost", 1).unwrap(), None);
        assert_eq!(idx.lookup(b"ghost"), None);
        idx.insert(b"real", 1).unwrap();
        assert_eq!(idx.update(b"real", 2).unwrap(), Some(1));
        assert_eq!(idx.lookup(b"real"), Some(2));
        idx.destroy();
    }

    #[test]
    fn scan_ordering() {
        let idx = PdlArt::create(PdlArtConfig::named("pdlart-scan")).unwrap();
        for i in (0..100u64).rev() {
            idx.insert(&i.to_be_bytes(), i).unwrap();
        }
        let got = idx.scan(&50u64.to_be_bytes(), 10);
        let keys: Vec<u64> = got
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(keys, (50..60).collect::<Vec<_>>());
        idx.destroy();
    }

    #[test]
    fn floor_and_ceil() {
        let idx = PdlArt::create(PdlArtConfig::named("pdlart-floorceil")).unwrap();
        for v in [10u64, 20, 30] {
            idx.insert(&v.to_be_bytes(), v).unwrap();
        }
        let fk = |r: Option<(Vec<u8>, u64)>| r.map(|(_, v)| v);
        assert_eq!(fk(idx.floor(&15u64.to_be_bytes())), Some(10));
        assert_eq!(fk(idx.floor(&20u64.to_be_bytes())), Some(20));
        assert_eq!(fk(idx.floor(&5u64.to_be_bytes())), None);
        assert_eq!(fk(idx.ceil(&15u64.to_be_bytes())), Some(20));
        assert_eq!(fk(idx.ceil(&30u64.to_be_bytes())), Some(30));
        assert_eq!(fk(idx.ceil(&31u64.to_be_bytes())), None);
        idx.destroy();
    }

    #[test]
    fn crash_recovery() {
        let idx = PdlArt::create(PdlArtConfig::durable("pdlart-crash")).unwrap();
        for i in 0..500u64 {
            idx.insert(&i.to_be_bytes(), i).unwrap();
        }
        let pool = Arc::clone(idx.pool());
        drop(idx);
        pool.simulate_crash(false);
        pool.allocator().recover_logs();
        let idx2 = PdlArt::recover("pdlart-crash").unwrap();
        for i in 0..500u64 {
            assert_eq!(idx2.lookup(&i.to_be_bytes()), Some(i));
        }
        idx2.destroy();
    }
}
