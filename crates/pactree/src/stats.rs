//! PACTree operation statistics.
//!
//! Tracks the jump-node distance distribution (paper §6.7: how far the data
//! layer must be walked when the search layer lags behind), SMO counts, and
//! retry counters. Cheap relaxed atomics; aggregated per tree.
//!
//! The counters every operation bumps (`record_jump`, `record_fp`) are
//! *striped* like `pmem::stats`: each thread increments its own
//! cache-line-padded stripe and readers sum the stripes, so the per-op path
//! never write-shares a line between threads (GA1). The SMO and retry
//! counters are cold and stay plain public atomics.

use std::sync::atomic::{AtomicU64, Ordering};

use pmem::stats::{my_shard, STAT_SHARDS};

/// Distance histogram buckets: 0 hops (direct hit), 1, 2, 3, ≥4.
const BUCKETS: usize = 5;

/// One thread stripe of the per-op counters: exactly one cache line.
#[repr(align(64))]
#[derive(Default, Debug)]
struct OpStripe {
    /// Data-layer hop distance from jump node to target node, per locate.
    jump_hops: [AtomicU64; BUCKETS],
    /// Fingerprint-candidate key verifications during data-node probes.
    fp_checks: AtomicU64,
    /// Verifications whose full key mismatched (fingerprint false hits).
    fp_false_hits: AtomicU64,
}

/// Per-tree counters.
#[derive(Default, Debug)]
pub struct TreeStats {
    /// Per-op counters, one stripe per `pmem::stats::my_shard` index.
    stripes: [OpStripe; STAT_SHARDS],
    /// Splits executed (data layer).
    pub splits: AtomicU64,
    /// Merges executed (data layer).
    pub merges: AtomicU64,
    /// SMO log entries replayed into the search layer.
    pub smo_replayed: AtomicU64,
    /// Optimistic retries in lookup/insert paths.
    pub retries: AtomicU64,
}

impl TreeStats {
    /// Sums one counter over every stripe.
    fn sum(&self, counter: impl Fn(&OpStripe) -> &AtomicU64) -> u64 {
        self.stripes
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Records a locate that needed `hops` data-layer hops.
    #[inline]
    pub fn record_jump(&self, hops: usize) {
        self.stripes[my_shard()].jump_hops[hops.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// The hop histogram as `(hops, count)` with the last bucket meaning
    /// "this many or more".
    pub fn jump_histogram(&self) -> Vec<(usize, u64)> {
        (0..BUCKETS)
            .map(|i| (i, self.sum(|s| &s.jump_hops[i])))
            .collect()
    }

    /// Fraction of locates that hit the target node directly (the paper
    /// reports 68% under heavy churn, §6.7).
    pub fn direct_hit_ratio(&self) -> f64 {
        let h = self.jump_histogram();
        let total: u64 = h.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 1.0;
        }
        h[0].1 as f64 / total as f64
    }

    /// Records one data-node probe: `false_hits` fingerprint candidates
    /// whose key verification failed, plus the hit itself when found.
    #[inline]
    pub fn record_fp(&self, false_hits: u32, hit: bool) {
        let stripe = &self.stripes[my_shard()];
        let checks = false_hits as u64 + u64::from(hit);
        if checks != 0 {
            stripe.fp_checks.fetch_add(checks, Ordering::Relaxed);
        }
        if false_hits != 0 {
            stripe
                .fp_false_hits
                .fetch_add(false_hits as u64, Ordering::Relaxed);
        }
    }

    /// Fraction of fingerprint-candidate key verifications that mismatched.
    /// Expected value: a probe of a node with `L` live slots yields about
    /// `L/256` false candidates, so with ~50 live slots roughly 0.2 false
    /// verifications ride along per hit — a ratio around 0.2. A ratio
    /// drifting toward 1.0 with unchanged occupancy means the filter (or a
    /// probe kernel's mask) broke.
    pub fn false_hit_ratio(&self) -> f64 {
        let checks = self.sum(|s| &s.fp_checks);
        if checks == 0 {
            return 0.0;
        }
        self.sum(|s| &s.fp_false_hits) as f64 / checks as f64
    }

    /// Resets every counter.
    pub fn reset(&self) {
        for s in &self.stripes {
            for c in s.jump_hops.iter().chain([&s.fp_checks, &s.fp_false_hits]) {
                c.store(0, Ordering::Relaxed);
            }
        }
        self.splits.store(0, Ordering::Relaxed);
        self.merges.store(0, Ordering::Relaxed);
        self.smo_replayed.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_ratio() {
        let s = TreeStats::default();
        assert_eq!(s.direct_hit_ratio(), 1.0, "no samples means no misses");
        for _ in 0..68 {
            s.record_jump(0);
        }
        for _ in 0..30 {
            s.record_jump(1);
        }
        s.record_jump(2);
        s.record_jump(9); // lands in the >=4 bucket
        let h = s.jump_histogram();
        assert_eq!(h[0].1, 68);
        assert_eq!(h[1].1, 30);
        assert_eq!(h[2].1, 1);
        assert_eq!(h[4].1, 1);
        assert!((s.direct_hit_ratio() - 0.68).abs() < 0.01);
        s.reset();
        assert_eq!(s.jump_histogram()[0].1, 0);
    }

    #[test]
    fn fp_false_hit_ratio() {
        let s = TreeStats::default();
        assert_eq!(s.false_hit_ratio(), 0.0, "no probes, no false hits");
        s.record_fp(0, true); // clean hit
        s.record_fp(0, false); // clean miss: no candidates at all
        assert_eq!(s.false_hit_ratio(), 0.0);
        s.record_fp(1, true); // one collision before the hit
        assert!((s.false_hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
        s.record_fp(2, false); // two collisions, key absent
        assert!((s.false_hit_ratio() - 3.0 / 5.0).abs() < 1e-9);
        s.reset();
        assert_eq!(s.false_hit_ratio(), 0.0);
    }

    #[test]
    fn stripes_sum_exactly_and_reset_zeroes_every_stripe() {
        const THREADS: u64 = 8;
        const N: u64 = 5_000;
        let s = TreeStats::default();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..N {
                        s.record_jump((i % 7) as usize);
                        s.record_fp((t % 3) as u32, i % 2 == 0);
                    }
                });
            }
        });
        // Per thread: hops i%7 over 0..5000 → 715 each for 0 and 1, 714 for
        // 2 and 3, and 714 × 3 for the clamped 4, 5, 6.
        let want = [715, 715, 714, 714, 2142].map(|c| c * THREADS);
        let got: Vec<u64> = s.jump_histogram().into_iter().map(|(_, c)| c).collect();
        assert_eq!(got, want);
        // Threads t = 0..8 carry t%3 false hits per probe: 0,1,2,0,1,2,0,1.
        let false_hits = 7 * N;
        assert_eq!(s.sum(|st| &st.fp_false_hits), false_hits);
        assert_eq!(s.sum(|st| &st.fp_checks), false_hits + THREADS * N / 2);
        assert!(
            s.stripes
                .iter()
                .filter(|st| st.fp_checks.load(Ordering::Relaxed) != 0)
                .count()
                > 1,
            "eight threads must not share one stripe"
        );
        assert_eq!(std::mem::size_of::<OpStripe>(), 64);

        // Unsigned counters: a zero sum means every stripe reads zero.
        s.reset();
        assert!(s.jump_histogram().iter().all(|&(_, c)| c == 0));
        assert_eq!(s.sum(|st| &st.fp_checks) + s.sum(|st| &st.fp_false_hits), 0);
    }
}
