//! Differential property tests for the SIMD probe kernels: the kernels this
//! target compiles in (`simd::active()`) must agree with the naive per-byte
//! reference (`simd::scalar`) on random arrays, probe bytes (half of them
//! taken from the array, so masks are rarely empty) and `Node16` count
//! bounds. The safe API takes any `&[AtomicU8; N]`, so every case also puts
//! its array at a random byte offset 0–15 of a cache-line-aligned buffer:
//! the vector loads must be right at every misalignment. The exhaustive
//! all-256-probe-bytes sweep lives in the module's unit tests; these shake
//! the input space.

use std::sync::atomic::AtomicU8;

use pactree::simd;
use proptest::collection::vec;
use proptest::prelude::*;

/// A cache-line-aligned buffer, so `at::<N>(buf, off)` puts an array at a
/// known misalignment `off`.
#[repr(align(64))]
struct Buf([AtomicU8; 256 + 64]);

fn buf(bytes: &[u8], off: usize) -> Buf {
    Buf(std::array::from_fn(|i| {
        AtomicU8::new(
            i.checked_sub(off)
                .and_then(|j| bytes.get(j))
                .copied()
                .unwrap_or(0xA5),
        )
    }))
}

fn at<const N: usize>(b: &Buf, off: usize) -> &[AtomicU8; N] {
    let a: &[AtomicU8; N] = b.0[off..off + N].try_into().unwrap();
    assert_eq!(a.as_ptr() as usize % 64, off);
    a
}

/// `Node48` index bytes weighted toward 0xFF (a freshly-grown Node48 is
/// mostly empty), with 0xFE lanes probing the compare's exactness one bit
/// off empty.
fn n48_bytes(sel: &[u8], slots: &[u8]) -> Vec<u8> {
    sel.iter()
        .zip(slots)
        .map(|(&s, &slot)| match s {
            0..=3 => 0xFF,
            4 => slot,
            _ => 0xFE,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fp_match64_matches_scalar(
        bytes in vec(any::<u8>(), 64),
        fp in any::<u8>(),
        pick in 0usize..128,
        off in 0usize..16,
    ) {
        let b = buf(&bytes, off);
        let fp = bytes.get(pick).copied().unwrap_or(fp);
        let fps = at::<64>(&b, off);
        prop_assert_eq!(
            simd::fingerprint_match64(fps, fp),
            simd::scalar::fingerprint_match64(fps, fp),
            "kernel {}", simd::active().name()
        );
    }

    #[test]
    fn fp_match32_matches_scalar(
        bytes in vec(any::<u8>(), 32),
        fp in any::<u8>(),
        pick in 0usize..64,
        off in 0usize..16,
    ) {
        let b = buf(&bytes, off);
        let fp = bytes.get(pick).copied().unwrap_or(fp);
        let fps = at::<32>(&b, off);
        prop_assert_eq!(
            simd::fingerprint_match32(fps, fp),
            simd::scalar::fingerprint_match32(fps, fp),
            "kernel {}", simd::active().name()
        );
    }

    #[test]
    fn node16_match_matches_scalar(
        bytes in vec(any::<u8>(), 16),
        b in any::<u8>(),
        pick in 0usize..32,
        count in 0usize..21,
        off in 0usize..16,
    ) {
        let bf = buf(&bytes, off);
        let b = bytes.get(pick).copied().unwrap_or(b);
        let keys = at::<16>(&bf, off);
        prop_assert_eq!(
            simd::node16_match(keys, b, count),
            simd::scalar::node16_match(keys, b, count),
            "kernel {}", simd::active().name()
        );
    }

    /// `Node48` occupancy walks: the kernel must flag exactly the bytes that
    /// differ from `0xFF`, for both sparse and near-full indexes.
    #[test]
    fn n48_occupied_matches_scalar(
        sel in vec(0u8..6, 256),
        slots in vec(0u8..48, 256),
        off in 0usize..16,
    ) {
        let bytes = n48_bytes(&sel, &slots);
        let b = buf(&bytes, off);
        let index = at::<256>(&b, off);
        let want = simd::scalar::node48_occupied(index);
        for (w, word) in want.iter().enumerate() {
            for bit in 0..64 {
                let flagged = (word >> bit) & 1 == 1;
                prop_assert_eq!(flagged, bytes[w * 64 + bit] != 0xFF, "word {} bit {}", w, bit);
            }
        }
        prop_assert_eq!(simd::node48_occupied(index), want, "kernel {}", simd::active().name());
    }

    /// Duplicate-heavy arrays (few distinct byte values): adjacent equal and
    /// off-by-one bytes are exactly where an inexact compare tears.
    #[test]
    fn fp_match64_dense_duplicates(
        seed in vec(0u8..4, 64),
        base in any::<u8>(),
        fp_off in 0u8..4,
        off in 0usize..16,
    ) {
        let bytes: Vec<u8> = seed.iter().map(|&s| base.wrapping_add(s)).collect();
        let b = buf(&bytes, off);
        let fps = at::<64>(&b, off);
        let fp = base.wrapping_add(fp_off);
        prop_assert_eq!(
            simd::fingerprint_match64(fps, fp),
            simd::scalar::fingerprint_match64(fps, fp),
            "kernel {}", simd::active().name()
        );
    }
}
