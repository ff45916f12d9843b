//! The common index interface the driver runs against, and the roster of
//! the five indexes behind it.
//!
//! Update handling follows the paper: "since most of the prior indexes do
//! not support the update operation, we replace the update operation with
//! insert" — the default [`RangeIndex::update`] forwards to insert; PACTree
//! overrides it with its native update protocol.
//!
//! [`IndexKind`] lists PACTree, PDL-ART, BzTree, FastFair and FPTree once:
//! the evaluation (`figures`), the crash-state checker and the
//! cross-index tests create, recover and drive every index through it and
//! its [`AnyIndex`] handle.

use std::sync::Arc;

use baselines::bztree::BzTree;
use baselines::fastfair::{FastFair, KeyMode};
use baselines::fptree::FpTree;
use pactree::{PacTree, PacTreeConfig};
use pdl_art::{PdlArt, PdlArtConfig};
use pmem::pool::PmemPool;
use pmem::Result;

use crate::keys::KeySpace;

/// One [`RangeIndex::diff_pairs`] entry: `(key, old value, new value)` —
/// `old` is `None` for additions, `new` is `None` for removals, both
/// `Some` for changes.
pub type DiffPair = (Vec<u8>, Option<u64>, Option<u64>);

/// A key-value range index driven by the YCSB executor.
///
/// The index does its operation and returns its error (pool exhaustion, a
/// key it cannot store); it times nothing. The harness that reads latency
/// records it: the driver per run, a pacsrv service per service.
pub trait RangeIndex: Send + Sync {
    /// Index name for reports.
    fn name(&self) -> &'static str;

    /// Inserts (upserts) a pair; returns the previous value.
    fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>>;

    /// Updates a key; returns the previous value. Default substitutes
    /// insert (paper §6).
    fn update(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        self.insert(key, value)
    }

    /// Point lookup.
    fn lookup(&self, key: &[u8]) -> Option<u64>;

    /// Removes a key; returns its value.
    fn remove(&self, key: &[u8]) -> Result<Option<u64>>;

    /// Scans up to `count` pairs from `start`; returns how many were seen.
    fn scan(&self, start: &[u8], count: usize) -> usize;

    /// Whether variable-length string keys are supported (FPTree's authors'
    /// binary does not support them; neither does our reimplementation).
    fn supports_strings(&self) -> bool {
        true
    }

    /// Runs `f` inside any per-batch acceleration the index offers. The
    /// pacsrv shard workers wrap each drained batch in this call; the
    /// epoch-based indexes hold one epoch pin across the batch so the
    /// per-operation pins inside reuse the outermost announcement instead
    /// of re-announcing per op. Default: no batch state, just run.
    fn with_batch(&self, f: &mut dyn FnMut()) {
        f();
    }

    /// Finishes background work (SMO replay, epoch reclamation) so a
    /// graceful shutdown leaves nothing pending; returns whether the index
    /// fully drained within `timeout`. Default: nothing to drain.
    fn drain(&self, _timeout: std::time::Duration) -> bool {
        true
    }

    // -- Multi-version reads (PACTree MVCC; defaults = unsupported) --------

    /// Captures an O(1) point-in-time view of the index and returns its
    /// id, or `None` if the index has no multi-version support.
    fn snapshot(&self) -> Option<u64> {
        None
    }

    /// Releases a captured view so its pinned epochs and frozen state can
    /// be reclaimed; returns whether the id named a live snapshot.
    fn release_snapshot(&self, _snap: u64) -> bool {
        false
    }

    /// Scans up to `count` pairs from `start` as of snapshot `snap`,
    /// isolated from concurrent writers — what a `ScanAt` request answers
    /// and what partition migration pages the source through. Returns
    /// `None` if snapshots are unsupported or `snap` is unknown/released.
    fn scan_at(&self, _snap: u64, _start: &[u8], _count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        None
    }

    /// The differences between two snapshots, as [`DiffPair`] rows.
    /// Returns `None` if either snapshot is unknown or diffing is
    /// unsupported.
    fn diff_pairs(&self, _a: u64, _b: u64) -> Option<Vec<DiffPair>> {
        None
    }
}

impl RangeIndex for Arc<PacTree> {
    fn name(&self) -> &'static str {
        "PACTree"
    }

    fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        PacTree::insert(self, key, value)
    }

    fn update(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        // Native update path (§5.5); inserts if the key vanished.
        match PacTree::update(self, key, value)? {
            None => PacTree::insert(self, key, value),
            old => Ok(old),
        }
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        PacTree::lookup(self, key)
    }

    fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        PacTree::remove(self, key)
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        PacTree::scan(self, start, count).len()
    }

    fn with_batch(&self, f: &mut dyn FnMut()) {
        let _pin = self.collector().pin();
        f();
    }

    fn drain(&self, timeout: std::time::Duration) -> bool {
        self.quiesce(timeout)
    }

    fn snapshot(&self) -> Option<u64> {
        Some(PacTree::snapshot(self))
    }

    fn release_snapshot(&self, snap: u64) -> bool {
        PacTree::release_snapshot(self, snap)
    }

    fn scan_at(&self, snap: u64, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        PacTree::scan_at(self, snap, start, count)
            .map(|pairs| pairs.into_iter().map(|p| (p.key, p.value)).collect())
    }

    fn diff_pairs(&self, a: u64, b: u64) -> Option<Vec<DiffPair>> {
        use pactree::mvcc::DiffEntry;
        PacTree::diff(self, a, b).map(|entries| {
            entries
                .into_iter()
                .map(|e| match e {
                    DiffEntry::Added(k, v) => (k, None, Some(v)),
                    DiffEntry::Removed(k, v) => (k, Some(v), None),
                    DiffEntry::Changed(k, old, new) => (k, Some(old), Some(new)),
                })
                .collect()
        })
    }
}

impl RangeIndex for Arc<PdlArt> {
    fn name(&self) -> &'static str {
        "PDL-ART"
    }

    fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        PdlArt::insert(self, key, value)
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        PdlArt::lookup(self, key)
    }

    fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        PdlArt::remove(self, key)
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        PdlArt::scan(self, start, count).len()
    }

    fn with_batch(&self, f: &mut dyn FnMut()) {
        let _pin = self.collector().pin();
        f();
    }

    fn drain(&self, _timeout: std::time::Duration) -> bool {
        self.maintain();
        true
    }
}

impl RangeIndex for Arc<FastFair> {
    fn name(&self) -> &'static str {
        "FastFair"
    }

    fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        FastFair::insert(self, key, value)
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        FastFair::lookup(self, key)
    }

    fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        FastFair::remove(self, key)
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        FastFair::scan(self, start, count).len()
    }
}

impl RangeIndex for Arc<BzTree> {
    fn name(&self) -> &'static str {
        "BzTree"
    }

    fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        BzTree::insert(self, key, value)
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        BzTree::lookup(self, key)
    }

    fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        BzTree::remove(self, key)
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        BzTree::scan(self, start, count).len()
    }
}

fn as_u64(key: &[u8]) -> u64 {
    u64::from_be_bytes(key.try_into().expect("FPTree needs 8-byte integer keys"))
}

impl RangeIndex for Arc<FpTree> {
    fn name(&self) -> &'static str {
        "FPTree"
    }

    fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        FpTree::insert(self, as_u64(key), value)
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        FpTree::lookup(self, as_u64(key))
    }

    fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        FpTree::remove(self, as_u64(key))
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        FpTree::scan(self, as_u64(start), count).len()
    }

    fn supports_strings(&self) -> bool {
        false
    }
}

/// The five indexes of the paper's evaluation, in its figures' order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    PacTree,
    PdlArt,
    BzTree,
    FastFair,
    FpTree,
}

impl IndexKind {
    /// Every index, in the figures' order (Figure 10's integer-key lineup).
    pub fn all() -> [IndexKind; 5] {
        [
            IndexKind::PacTree,
            IndexKind::PdlArt,
            IndexKind::BzTree,
            IndexKind::FastFair,
            IndexKind::FpTree,
        ]
    }

    /// Display name, as the figures print it.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::PacTree => "PACTree",
            IndexKind::PdlArt => "PDL-ART",
            IndexKind::BzTree => "BzTree",
            IndexKind::FastFair => "FastFair",
            IndexKind::FpTree => "FPTree",
        }
    }

    /// Stable lowercase name: CLI arguments, replay files, JSON, pool names.
    pub fn slug(self) -> &'static str {
        match self {
            IndexKind::PacTree => "pactree",
            IndexKind::PdlArt => "pdl-art",
            IndexKind::BzTree => "bztree",
            IndexKind::FastFair => "fastfair",
            IndexKind::FpTree => "fptree",
        }
    }

    /// Parses a [`slug`](Self::slug) back to a kind.
    pub fn parse(s: &str) -> Option<IndexKind> {
        IndexKind::all().into_iter().find(|k| k.slug() == s)
    }

    /// Creates a fresh index backed by pools named after `name`.
    ///
    /// `durable = false` is the evaluation's configuration: no media image,
    /// PACTree with one data pool per NUMA node and asynchronous SMOs.
    /// `durable = true` is the crash checker's: crash-simulating pools, the
    /// crash-consistent allocator, one data pool and synchronous SMOs, so a
    /// single-threaded run is deterministic.
    pub fn create(
        self,
        name: &str,
        pool_size: usize,
        space: KeySpace,
        durable: bool,
    ) -> Result<AnyIndex> {
        let mode = match space {
            KeySpace::Integer => KeyMode::Integer,
            KeySpace::String => KeyMode::String,
        };
        Ok(match self {
            IndexKind::PacTree => {
                AnyIndex::Pac(PacTree::create(pactree_config(name, pool_size, durable))?)
            }
            IndexKind::PdlArt => {
                let config = if durable {
                    PdlArtConfig::durable(name)
                } else {
                    PdlArtConfig::named(name)
                };
                AnyIndex::Pdl(PdlArt::create(config.with_pool_size(pool_size))?)
            }
            IndexKind::BzTree => AnyIndex::Bz(BzTree::create(name, pool_size, mode, durable)?),
            IndexKind::FastFair => AnyIndex::Ff(FastFair::create(name, pool_size, mode, durable)?),
            IndexKind::FpTree => AnyIndex::Fp(FpTree::create(name, pool_size, durable)?),
        })
    }

    /// Re-attaches to the pools of an index [`create`](Self::create)d durable
    /// with integer keys, running the index's own recovery procedure — the
    /// code path a real restart runs — in the crash checker's configuration.
    pub fn recover(self, name: &str, pool_size: usize) -> Result<AnyIndex> {
        Ok(match self {
            IndexKind::PacTree => {
                AnyIndex::Pac(PacTree::recover(pactree_config(name, pool_size, true))?)
            }
            IndexKind::PdlArt => AnyIndex::Pdl(PdlArt::recover(name)?),
            IndexKind::BzTree => AnyIndex::Bz(BzTree::recover(name, KeyMode::Integer)?),
            IndexKind::FastFair => AnyIndex::Ff(FastFair::recover(name, KeyMode::Integer)?),
            IndexKind::FpTree => AnyIndex::Fp(FpTree::recover(name)?),
        })
    }
}

fn pactree_config(name: &str, pool_size: usize, durable: bool) -> PacTreeConfig {
    let config = if durable {
        PacTreeConfig::durable(name)
            .with_numa_pools(1)
            .with_async_smo(false)
    } else {
        PacTreeConfig::named(name).with_numa_pools(pmem::numa::nodes())
    };
    config.with_pool_size(pool_size)
}

/// A handle on any index of the roster (cloneable for the driver).
#[derive(Clone)]
pub enum AnyIndex {
    Pac(Arc<PacTree>),
    Pdl(Arc<PdlArt>),
    Bz(Arc<BzTree>),
    Ff(Arc<FastFair>),
    Fp(Arc<FpTree>),
}

impl AnyIndex {
    /// The index as the driver trait; every [`RangeIndex`] method of the
    /// handle forwards through it.
    fn index(&self) -> &dyn RangeIndex {
        match self {
            AnyIndex::Pac(t) => t,
            AnyIndex::Pdl(t) => t,
            AnyIndex::Bz(t) => t,
            AnyIndex::Ff(t) => t,
            AnyIndex::Fp(t) => t,
        }
    }

    /// Every pool backing the index, in a stable order.
    pub fn pools(&self) -> Vec<Arc<PmemPool>> {
        match self {
            AnyIndex::Pac(t) => t.pools(),
            AnyIndex::Pdl(t) => vec![Arc::clone(t.pool())],
            AnyIndex::Bz(t) => vec![Arc::clone(t.pool())],
            AnyIndex::Ff(t) => vec![Arc::clone(t.pool())],
            AnyIndex::Fp(t) => vec![Arc::clone(t.pool())],
        }
    }

    /// Destroys the index and unregisters its pools.
    pub fn destroy(self) {
        match self {
            AnyIndex::Pac(t) => t.destroy(),
            AnyIndex::Pdl(t) => t.destroy(),
            AnyIndex::Bz(t) => t.destroy(),
            AnyIndex::Ff(t) => t.destroy(),
            AnyIndex::Fp(t) => t.destroy(),
        }
    }

    /// The PACTree handle, when this is one (factor analysis, skew,
    /// jump-distance experiments).
    pub fn as_pactree(&self) -> Option<&Arc<PacTree>> {
        match self {
            AnyIndex::Pac(t) => Some(t),
            _ => None,
        }
    }

    /// The FPTree handle, when this is one (HTM statistics).
    pub fn as_fptree(&self) -> Option<&Arc<FpTree>> {
        match self {
            AnyIndex::Fp(t) => Some(t),
            _ => None,
        }
    }

    /// Up to `count` pairs with keys ≥ `start`, in key order. The empty key
    /// scans from the first pair on every index (FPTree: from integer 0).
    pub fn scan_pairs(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        match self {
            AnyIndex::Pac(t) => PacTree::scan(t, start, count)
                .into_iter()
                .map(|p| (p.key, p.value))
                .collect(),
            AnyIndex::Pdl(t) => PdlArt::scan(t, start, count),
            AnyIndex::Bz(t) => BzTree::scan(t, start, count),
            AnyIndex::Ff(t) => FastFair::scan(t, start, count),
            AnyIndex::Fp(t) => {
                FpTree::scan(t, if start.is_empty() { 0 } else { as_u64(start) }, count)
                    .into_iter()
                    .map(|(k, v)| (k.to_be_bytes().to_vec(), v))
                    .collect()
            }
        }
    }
}

impl RangeIndex for AnyIndex {
    fn name(&self) -> &'static str {
        self.index().name()
    }

    fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        self.index().insert(key, value)
    }

    fn update(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        self.index().update(key, value)
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        self.index().lookup(key)
    }

    fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        self.index().remove(key)
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        self.index().scan(start, count)
    }

    fn supports_strings(&self) -> bool {
        self.index().supports_strings()
    }

    fn with_batch(&self, f: &mut dyn FnMut()) {
        self.index().with_batch(f)
    }

    fn drain(&self, timeout: std::time::Duration) -> bool {
        self.index().drain(timeout)
    }

    fn snapshot(&self) -> Option<u64> {
        self.index().snapshot()
    }

    fn release_snapshot(&self, snap: u64) -> bool {
        self.index().release_snapshot(snap)
    }

    fn scan_at(&self, snap: u64, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        self.index().scan_at(snap, start, count)
    }

    fn diff_pairs(&self, a: u64, b: u64) -> Option<Vec<DiffPair>> {
        self.index().diff_pairs(a, b)
    }
}
