//! Order statistics and the input hash — the arithmetic every reported
//! number goes through, kept apart so `cargo test` can pin it down.

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `q` of the samples at or below it. Empty input reads 0.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median`: how far apart a run's own slices are. A spread
/// above a metric's bound means the run cannot resolve a change of that
/// size.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// A timed metric as reported: median over the measured slices, with the
/// slices' own spread beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStat {
    pub median: f64,
    pub spread: f64,
}

impl SliceStat {
    /// Summarises per-slice values after dropping the warm-up slice 0.
    pub fn of_measured(per_slice: &[f64]) -> SliceStat {
        let measured = per_slice.get(1..).unwrap_or(&[]);
        SliceStat {
            median: median(measured),
            spread: spread(measured),
        }
    }
}

/// FNV-1a, the hash printed for each workload's tape so two runs can prove
/// they were given identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 0.99), 7);
        assert_eq!(percentile::<u32>(&[], 0.5), 0);
        // 10 samples: p99 is the maximum, p50 the 5th.
        let w: Vec<u32> = (10..20).collect();
        assert_eq!(percentile(&w, 0.99), 19);
        assert_eq!(percentile(&w, 0.5), 14);
    }

    #[test]
    fn median_and_spread_over_measured_slices() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        // Slice 0 is warm-up: a 25%-low first slice must not move anything.
        let s = SliceStat::of_measured(&[75.0, 100.0, 102.0, 98.0, 101.0, 99.0]);
        assert_eq!(s.median, 100.0);
        assert!((s.spread - 0.04).abs() < 1e-12);
        assert_eq!(SliceStat::of_measured(&[5.0]).median, 0.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
