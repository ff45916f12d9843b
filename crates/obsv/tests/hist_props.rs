//! Property tests for the histogram's two documented guarantees:
//!
//! * **Mergeability** — recording a value stream into N histograms and
//!   merging their snapshots is indistinguishable from recording the whole
//!   stream into one histogram (bucket-exact, any split, any order).
//! * **Bounded relative error** — any reconstructed statistic (quantile,
//!   min, max) is within [`obsv::RELATIVE_ERROR_BOUND`] of the recorded
//!   value, for the full recordable range.

use obsv::hist::{bucket_low, bucket_mid, bucket_of, MAX_VALUE};
use obsv::{HistSnapshot, Histogram, OpHistograms, OpKind, RELATIVE_ERROR_BOUND};
use proptest::prelude::*;

fn record_all(values: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn merge_equals_single_recording(
        values in proptest::collection::vec(0u64..(1u64 << 40), 0..200),
        split in 0usize..201,
    ) {
        let split = split.min(values.len());
        let (a, b) = values.split_at(split);
        let mut merged = record_all(a);
        merged.merge(&record_all(b));
        prop_assert_eq!(merged, record_all(&values));
    }

    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(0u64..(1u64 << 40), 0..100),
        b in proptest::collection::vec(0u64..(1u64 << 40), 0..100),
    ) {
        let (sa, sb) = (record_all(&a), record_all(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn since_inverts_merge(
        a in proptest::collection::vec(0u64..(1u64 << 40), 0..100),
        b in proptest::collection::vec(0u64..(1u64 << 40), 0..100),
    ) {
        let (sa, sb) = (record_all(&a), record_all(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        prop_assert_eq!(ab.since(&sa), sb);
    }

    #[test]
    fn since_then_merge_rebuilds_the_superset(
        a in proptest::collection::vec(0u64..(1u64 << 40), 0..100),
        b in proptest::collection::vec(0u64..(1u64 << 40), 0..100),
    ) {
        // The per-phase delta contract the YCSB driver relies on: for cumulative
        // snapshots old ⊆ new, merging new.since(old) back onto old is the
        // identity — subtraction loses nothing and never goes negative.
        let (sa, sb) = (record_all(&a), record_all(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let delta = ab.since(&sa);
        let mut rebuilt = sa.clone();
        rebuilt.merge(&delta);
        prop_assert_eq!(rebuilt, ab);
    }

    #[test]
    fn opset_since_then_merge_roundtrips(
        ops in proptest::collection::vec((0usize..5, 1u64..(1u64 << 40)), 0..150),
        split in 0usize..151,
    ) {
        let split = split.min(ops.len());
        let h = OpHistograms::new();
        for &(k, v) in &ops[..split] {
            h.record(OpKind::ALL[k], v);
        }
        let old = h.snapshot();
        for &(k, v) in &ops[split..] {
            h.record(OpKind::ALL[k], v);
        }
        let new = h.snapshot();
        let delta = new.since(&old);
        prop_assert_eq!(delta.total_count(), (ops.len() - split) as u64);
        let mut rebuilt = old.clone();
        rebuilt.merge(&delta);
        prop_assert_eq!(rebuilt, new);
    }

    #[test]
    fn bucket_midpoint_within_documented_bound(v in 1u64..MAX_VALUE) {
        let mid = bucket_mid(bucket_of(v));
        let err = (mid as f64 - v as f64).abs() / v as f64;
        prop_assert!(
            err <= RELATIVE_ERROR_BOUND,
            "v={v} mid={mid} err={err} bound={RELATIVE_ERROR_BOUND}"
        );
    }

    #[test]
    fn single_value_quantiles_within_bound(v in 1u64..MAX_VALUE) {
        let h = Histogram::new();
        h.record(v);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let got = s.quantile(q);
            let err = (got as f64 - v as f64).abs() / v as f64;
            prop_assert!(err <= RELATIVE_ERROR_BOUND, "q={q} v={v} got={got}");
        }
        // min uses the bucket's lower edge: never above the recorded value.
        prop_assert!(s.min() <= v);
        prop_assert!(bucket_low(bucket_of(v)) <= v);
    }

    #[test]
    fn weighted_recording_matches_repeated_recording(
        pairs in proptest::collection::vec((1u64..(1u64 << 40), 1u64..17), 0..50),
    ) {
        // record_weighted(v, w) puts the same mass in the same buckets as
        // w plain record(v) calls; only the exact op count differs (one
        // sampled op vs w unsampled ones).
        let (weighted, repeated) = (Histogram::new(), Histogram::new());
        for &(v, w) in &pairs {
            weighted.record_weighted(v, w);
            for _ in 0..w {
                repeated.record(v);
            }
        }
        let (sw, sr) = (weighted.snapshot(), repeated.snapshot());
        prop_assert_eq!(sw.count(), pairs.len() as u64);
        prop_assert_eq!(sw.weight(), pairs.iter().map(|&(_, w)| w).sum::<u64>());
        prop_assert_eq!(sw.weight(), sr.weight());
        prop_assert_eq!(sw.sum(), sr.sum());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(sw.quantile(q), sr.quantile(q));
        }
        prop_assert_eq!(sw.min(), sr.min());
        prop_assert_eq!(sw.max(), sr.max());
    }

    #[test]
    fn opset_merge_matches_single(
        ops in proptest::collection::vec((0usize..5, 1u64..(1u64 << 40)), 0..200),
        split in 0usize..201,
    ) {
        let split = split.min(ops.len());
        let single = OpHistograms::new();
        let (ha, hb) = (OpHistograms::new(), OpHistograms::new());
        for (i, &(k, v)) in ops.iter().enumerate() {
            let kind = OpKind::ALL[k];
            single.record(kind, v);
            if i < split { ha.record(kind, v) } else { hb.record(kind, v) }
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, single.snapshot());
    }
}

/// Windowed subtraction under concurrent recording — the contract behind
/// per-phase deltas taken while writers run: one reader taking sequential snapshots
/// of a histogram under full write load sees per-(stripe,bucket) counters
/// that only grow, so every window delta is exactly non-negative
/// (`old.merge(delta) == new`, which `saturating_sub` clamping would
/// break) and the windows partition the total.
#[test]
fn concurrent_recording_yields_nonnegative_exact_window_deltas() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let h = Histogram::new();
    let ops = OpHistograms::new();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (h, ops, stop) = (&h, &ops, &stop);
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(t * 1000 + i % 977);
                    ops.record(OpKind::ALL[(i % 5) as usize], i % 977 + 1);
                    i += 1;
                }
            });
        }

        let first = h.snapshot();
        let ops_first = ops.snapshot();
        let mut prev = first.clone();
        let mut ops_prev = ops_first.clone();
        let mut windows = Vec::new();
        for _ in 0..100 {
            let cur = h.snapshot();
            let delta = cur.since(&prev);
            // Merging the delta back onto the older snapshot must rebuild
            // the newer one exactly: any clamped-to-zero (i.e. "negative")
            // bucket, sum, or count would make this fail.
            let mut rebuilt = prev.clone();
            rebuilt.merge(&delta);
            assert_eq!(rebuilt, cur);

            let ops_cur = ops.snapshot();
            let ops_delta = ops_cur.since(&ops_prev);
            let mut ops_rebuilt = ops_prev.clone();
            ops_rebuilt.merge(&ops_delta);
            assert_eq!(ops_rebuilt, ops_cur);

            windows.push(delta);
            prev = cur;
            ops_prev = ops_cur;
        }
        stop.store(true, Ordering::Relaxed);

        // The windows partition the covered span: merging them equals
        // last - first.
        let total = prev.since(&first);
        let mut acc = HistSnapshot::empty();
        for w in &windows {
            acc.merge(w);
        }
        assert_eq!(acc, total);
        assert!(total.count() > 0, "writers made progress under the reader");
    });
}

#[test]
fn counts_survive_arbitrary_split_counts() {
    // Deterministic spot-check across many shard-crossing counts (the
    // striped implementation sums 16 stripes; make sure nothing is lost).
    let h = Histogram::new();
    for i in 0..10_000u64 {
        h.record(i * 37);
    }
    assert_eq!(h.snapshot().count(), 10_000);
}
