//! Per-operation-type latency recording.
//!
//! An [`OpHistograms`] holds one striped [`Histogram`] per [`OpKind`]. The
//! harness that calls the index owns one (the YCSB driver per run,
//! a pacsrv service per service) and times each call from outside the
//! index: take an [`crate::OpTimer`] before the call and pass it to
//! [`OpHistograms::finish`] after it. An unsampled timer reads no clock,
//! and `finish` is then a single branch.

use crate::hist::{HistSnapshot, Histogram};
use crate::{OpTimer, TimerStop};

/// Number of operation kinds.
pub const OP_KINDS: usize = 5;

/// The operation types every range index exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpKind {
    Lookup = 0,
    Insert = 1,
    Update = 2,
    Scan = 3,
    Remove = 4,
}

impl OpKind {
    pub const ALL: [OpKind; OP_KINDS] = [
        OpKind::Lookup,
        OpKind::Insert,
        OpKind::Update,
        OpKind::Scan,
        OpKind::Remove,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Lookup => "lookup",
            OpKind::Insert => "insert",
            OpKind::Update => "update",
            OpKind::Scan => "scan",
            OpKind::Remove => "remove",
        }
    }
}

/// One latency histogram per operation kind.
pub struct OpHistograms {
    per: [Histogram; OP_KINDS],
}

impl Default for OpHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl OpHistograms {
    pub fn new() -> Self {
        OpHistograms {
            per: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// The histogram for one operation kind.
    #[inline]
    pub fn hist(&self, kind: OpKind) -> &Histogram {
        &self.per[kind as usize]
    }

    /// Records one completed operation.
    #[inline]
    pub fn record(&self, kind: OpKind, latency_ns: u64) {
        self.per[kind as usize].record(latency_ns);
    }

    /// Stops `timer` and records the outcome: every operation is counted
    /// exactly; latency-sampled ones (see [`crate::sample_shift`]) also
    /// enter the histogram with their sampling weight.
    #[inline]
    pub fn finish(&self, kind: OpKind, timer: OpTimer) {
        match timer.stop() {
            TimerStop::Counted => self.per[kind as usize].count_op(),
            TimerStop::Sampled { ns, weight } => {
                self.per[kind as usize].record_weighted(ns, weight)
            }
        }
    }

    /// Point-in-time snapshot of all kinds.
    pub fn snapshot(&self) -> OpSetSnapshot {
        OpSetSnapshot {
            per: std::array::from_fn(|i| self.per[i].snapshot()),
        }
    }

    /// Resets every histogram (between measurement runs, not mid-run).
    pub fn reset(&self) {
        for h in &self.per {
            h.reset();
        }
    }
}

/// Snapshots of all five op histograms at one instant. Plain data:
/// mergeable across threads/indexes and subtractable for per-phase deltas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpSetSnapshot {
    per: [HistSnapshot; OP_KINDS],
}

impl Default for OpSetSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl OpSetSnapshot {
    pub fn empty() -> Self {
        OpSetSnapshot {
            per: std::array::from_fn(|_| HistSnapshot::empty()),
        }
    }

    #[inline]
    pub fn get(&self, kind: OpKind) -> &HistSnapshot {
        &self.per[kind as usize]
    }

    /// Total operations across all kinds.
    pub fn total_count(&self) -> u64 {
        self.per.iter().map(|h| h.count()).sum()
    }

    /// All kinds merged into a single distribution.
    pub fn merged(&self) -> HistSnapshot {
        let mut out = HistSnapshot::empty();
        for h in &self.per {
            out.merge(h);
        }
        out
    }

    /// Merges `other` in, kind by kind.
    pub fn merge(&mut self, other: &OpSetSnapshot) {
        for (a, b) in self.per.iter_mut().zip(other.per.iter()) {
            a.merge(b);
        }
    }

    /// Per-kind delta `self - earlier`: the ops completed between the two
    /// snapshots.
    pub fn since(&self, earlier: &OpSetSnapshot) -> OpSetSnapshot {
        OpSetSnapshot {
            per: std::array::from_fn(|i| self.per[i].since(&earlier.per[i])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_per_kind() {
        let ops = OpHistograms::new();
        ops.record(OpKind::Lookup, 100);
        ops.record(OpKind::Lookup, 200);
        ops.record(OpKind::Scan, 5_000);
        let snap = ops.snapshot();
        assert_eq!(snap.get(OpKind::Lookup).count(), 2);
        assert_eq!(snap.get(OpKind::Scan).count(), 1);
        assert_eq!(snap.get(OpKind::Remove).count(), 0);
        assert_eq!(snap.total_count(), 3);
        assert_eq!(snap.merged().count(), 3);
    }

    #[test]
    fn since_gives_phase_delta() {
        let ops = OpHistograms::new();
        ops.record(OpKind::Insert, 50);
        let before = ops.snapshot();
        ops.record(OpKind::Insert, 70);
        ops.record(OpKind::Update, 90);
        let delta = ops.snapshot().since(&before);
        assert_eq!(delta.get(OpKind::Insert).count(), 1);
        assert_eq!(delta.get(OpKind::Update).count(), 1);
        assert_eq!(delta.total_count(), 2);
    }
}
