//! The common index interface the driver runs against.
//!
//! Update handling follows the paper: "since most of the prior indexes do
//! not support the update operation, we replace the update operation with
//! insert" — the default [`RangeIndex::update`] forwards to insert; PACTree
//! overrides it with its native update protocol.

use std::sync::Arc;

use baselines::bztree::BzTree;
use baselines::fastfair::FastFair;
use baselines::fptree::FpTree;
use pactree::PacTree;
use pdl_art::PdlArt;

/// One [`RangeIndex::diff_pairs`] entry: `(key, old value, new value)` —
/// `old` is `None` for additions, `new` is `None` for removals, both
/// `Some` for changes.
pub type DiffPair = (Vec<u8>, Option<u64>, Option<u64>);

/// A key-value range index driven by the YCSB executor.
pub trait RangeIndex: Send + Sync {
    /// Index name for reports.
    fn name(&self) -> &'static str;

    /// Inserts (upserts) a pair.
    fn insert(&self, key: &[u8], value: u64);

    /// Updates a key; default substitutes insert (paper §6).
    fn update(&self, key: &[u8], value: u64) {
        self.insert(key, value);
    }

    /// Point lookup.
    fn lookup(&self, key: &[u8]) -> Option<u64>;

    /// Removes a key; returns its value.
    fn remove(&self, key: &[u8]) -> Option<u64>;

    /// Scans up to `count` pairs from `start`; returns how many were seen.
    fn scan(&self, start: &[u8], count: usize) -> usize;

    /// Whether variable-length string keys are supported (FPTree's authors'
    /// binary does not support them; neither does our reimplementation).
    fn supports_strings(&self) -> bool {
        true
    }

    /// The index's per-operation latency histograms, when it records any.
    /// The driver snapshots these around each measured phase so reports can
    /// attach per-op percentiles without a sampling side channel.
    fn op_histograms(&self) -> Option<&obsv::OpHistograms> {
        None
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
    fn scan_pairs_at(
        &self,
        _snap: u64,
        _start: &[u8],
        _count: usize,
    ) -> Option<Vec<(Vec<u8>, u64)>> {
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

    fn insert(&self, key: &[u8], value: u64) {
        PacTree::insert(self, key, value).expect("pactree insert");
    }

    fn update(&self, key: &[u8], value: u64) {
        // Native update path (§5.5); inserts if the key vanished.
        if PacTree::update(self, key, value)
            .expect("pactree update")
            .is_none()
        {
            PacTree::insert(self, key, value).expect("pactree insert");
        }
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        PacTree::lookup(self, key)
    }

    fn remove(&self, key: &[u8]) -> Option<u64> {
        PacTree::remove(self, key).expect("pactree remove")
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        PacTree::scan(self, start, count).len()
    }

    fn op_histograms(&self) -> Option<&obsv::OpHistograms> {
        Some(obsv::OpRecorder::op_histograms(self.as_ref()))
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

    fn scan_pairs_at(&self, snap: u64, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
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

    fn insert(&self, key: &[u8], value: u64) {
        PdlArt::insert(self, key, value).expect("pdl-art insert");
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        PdlArt::lookup(self, key)
    }

    fn remove(&self, key: &[u8]) -> Option<u64> {
        PdlArt::remove(self, key).expect("pdl-art remove")
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        PdlArt::scan(self, start, count).len()
    }

    fn op_histograms(&self) -> Option<&obsv::OpHistograms> {
        Some(obsv::OpRecorder::op_histograms(self.as_ref()))
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

    fn insert(&self, key: &[u8], value: u64) {
        FastFair::insert(self, key, value).expect("fastfair insert");
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        FastFair::lookup(self, key)
    }

    fn remove(&self, key: &[u8]) -> Option<u64> {
        FastFair::remove(self, key).expect("fastfair remove")
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        FastFair::scan(self, start, count).len()
    }

    fn op_histograms(&self) -> Option<&obsv::OpHistograms> {
        Some(obsv::OpRecorder::op_histograms(self.as_ref()))
    }
}

impl RangeIndex for Arc<BzTree> {
    fn name(&self) -> &'static str {
        "BzTree"
    }

    fn insert(&self, key: &[u8], value: u64) {
        BzTree::insert(self, key, value).expect("bztree insert");
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        BzTree::lookup(self, key)
    }

    fn remove(&self, key: &[u8]) -> Option<u64> {
        BzTree::remove(self, key).expect("bztree remove")
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        BzTree::scan(self, start, count).len()
    }

    fn op_histograms(&self) -> Option<&obsv::OpHistograms> {
        Some(obsv::OpRecorder::op_histograms(self.as_ref()))
    }
}

fn as_u64(key: &[u8]) -> u64 {
    u64::from_be_bytes(key.try_into().expect("FPTree needs 8-byte integer keys"))
}

impl RangeIndex for Arc<FpTree> {
    fn name(&self) -> &'static str {
        "FPTree"
    }

    fn insert(&self, key: &[u8], value: u64) {
        FpTree::insert(self, as_u64(key), value).expect("fptree insert");
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        FpTree::lookup(self, as_u64(key))
    }

    fn remove(&self, key: &[u8]) -> Option<u64> {
        FpTree::remove(self, as_u64(key)).expect("fptree remove")
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        FpTree::scan(self, as_u64(start), count).len()
    }

    fn supports_strings(&self) -> bool {
        false
    }

    fn op_histograms(&self) -> Option<&obsv::OpHistograms> {
        Some(obsv::OpRecorder::op_histograms(self.as_ref()))
    }
}
