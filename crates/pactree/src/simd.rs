//! SIMD kernels for the hot probe paths (paper §5.2), one set per target,
//! picked by the compiler from `target_arch`:
//!
//! | target | kernel set |
//! |---|---|
//! | x86_64 | `sse2` — part of the x86_64 baseline, so no feature detection |
//! | aarch64 | `neon` |
//! | anything else | `scalar`, the per-byte reference |
//!
//! The paper's data-node probe is *one* AVX-512 comparison over the 64-byte
//! fingerprint array; here every probe is built on one primitive, `eq_mask`
//! (16-byte compare + movemask per chunk, one result bit per equal byte):
//!
//! * [`fingerprint_match64`] — the PACTree data-node probe (64 slots);
//! * [`fingerprint_match32`] — the FPTree-baseline leaf probe (32 slots);
//! * [`node16_match`] — PDL-ART `Node16` child search (splat + compare +
//!   movemask, bounded by the node's live count);
//! * [`node48_occupied`] — PDL-ART `Node48` child-index walk;
//! * [`prefetch_read`] — best-effort software prefetch for pointer chases.
//!
//! The entry points call their target's kernel directly, so they inline into
//! their callers.
//!
//! # Safety: wide loads over `AtomicU8` arrays
//!
//! The vector kernels read 16 bytes at a time from arrays declared as
//! `[AtomicU8; N]`, i.e. wider than the declared atomic granule and
//! non-atomically. This is sound because every caller sits inside a
//! seqlock-style optimistic read protocol (`read_begin` / `read_validate` on
//! the owning node's version lock) or holds the node's write lock outright,
//! so a value computed from a torn or stale load is discarded by the failed
//! validation and never acted upon. The bytes themselves are always
//! initialized (nodes are zero-initialized at allocation), so the loads
//! cannot read uninitialized memory — the worst case is a stale/mixed
//! snapshot, which validation rejects. The loads are unaligned (`loadu`,
//! `vld1q`), so an array at any address is fine. See DESIGN.md §12 for the
//! full argument.

use std::sync::atomic::AtomicU8;

/// The kernel set compiled for this target; see [`active`].
#[derive(Debug)]
pub struct KernelSet;

impl KernelSet {
    /// Kernel-set name: `"sse2"`, `"neon"` or `"scalar"`.
    #[inline]
    pub fn name(&self) -> &'static str {
        target::NAME
    }
}

/// The kernel set the entry points run, fixed at compile time by
/// `target_arch` (results artifacts record its name).
#[inline]
pub fn active() -> KernelSet {
    KernelSet
}

/// The naive per-byte reference kernels: the differential tests' oracle,
/// and what targets without a vector set run.
#[doc(hidden)]
pub mod scalar {
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Bit `i` set iff `bytes[i] == b`, for `bytes.len() <= 64`.
    pub fn eq_mask(bytes: &[AtomicU8], b: u8) -> u64 {
        debug_assert!(bytes.len() <= 64);
        bytes.iter().enumerate().fold(0, |mask, (i, x)| {
            mask | u64::from(x.load(Ordering::Acquire) == b) << i
        })
    }

    pub fn fingerprint_match64(fps: &[AtomicU8; 64], fp: u8) -> u64 {
        eq_mask(fps, fp)
    }

    pub fn fingerprint_match32(fps: &[AtomicU8; 32], fp: u8) -> u32 {
        eq_mask(fps, fp) as u32
    }

    pub fn node16_match(keys: &[AtomicU8; 16], b: u8, count: usize) -> u32 {
        eq_mask(&keys[..count.min(16)], b) as u32
    }

    pub fn node48_occupied(index: &[AtomicU8; 256]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (i, x) in index.iter().enumerate() {
            out[i / 64] |= u64::from(x.load(Ordering::Acquire) != 0xFF) << (i % 64);
        }
        out
    }
}

#[cfg(target_arch = "x86_64")]
mod target {
    use std::arch::x86_64::*;
    use std::sync::atomic::AtomicU8;

    pub const NAME: &str = "sse2";

    /// One 16-byte compare + movemask per chunk: bit `i` set iff
    /// `bytes[i] == b`, for a length that is a multiple of 16, at most 64.
    #[inline(always)]
    pub fn eq_mask(bytes: &[AtomicU8], b: u8) -> u64 {
        debug_assert!(bytes.len() <= 64 && bytes.len().is_multiple_of(16));
        let mut mask = 0u64;
        for (i, chunk) in bytes.chunks_exact(16).enumerate() {
            // SAFETY: `chunk` is 16 readable, initialized bytes and `loadu`
            // has no alignment requirement (module docs: wide loads).
            let eq = unsafe {
                let v = _mm_loadu_si128(chunk.as_ptr().cast());
                _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(b as i8)))
            };
            mask |= u64::from(eq as u16) << (i * 16);
        }
        mask
    }

    #[inline(always)]
    pub fn prefetch(p: *const u8) {
        // SAFETY: prefetch is a hint; it never faults, for any address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) }
    }
}

#[cfg(target_arch = "aarch64")]
mod target {
    use std::arch::aarch64::*;
    use std::sync::atomic::AtomicU8;

    pub const NAME: &str = "neon";

    /// One 16-byte compare per chunk. NEON lacks movemask: narrow each
    /// 16-bit lane pair by 4 (`vshrn`) to get one nibble per byte lane, then
    /// gather the nibbles' low bits.
    #[inline(always)]
    pub fn eq_mask(bytes: &[AtomicU8], b: u8) -> u64 {
        debug_assert!(bytes.len() <= 64 && bytes.len().is_multiple_of(16));
        let mut mask = 0u64;
        for (i, chunk) in bytes.chunks_exact(16).enumerate() {
            // SAFETY: `chunk` is 16 readable, initialized bytes and `vld1q`
            // has no alignment requirement (module docs: wide loads).
            let nibbles = unsafe {
                let eq = vceqq_u8(vld1q_u8(chunk.as_ptr().cast()), vdupq_n_u8(b));
                let nib = vshrn_n_u16::<4>(vreinterpretq_u16_u8(eq));
                vget_lane_u64::<0>(vreinterpret_u64_u8(nib))
            };
            for j in 0..16 {
                mask |= ((nibbles >> (4 * j)) & 1) << (i * 16 + j);
            }
        }
        mask
    }

    #[inline(always)]
    pub fn prefetch(p: *const u8) {
        // SAFETY: prfm is a hint; it never faults and writes nothing.
        unsafe {
            std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p,
                            options(nostack, preserves_flags, readonly))
        }
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod target {
    pub use super::scalar::eq_mask;

    pub const NAME: &str = "scalar";

    #[inline(always)]
    pub fn prefetch(_: *const u8) {}
}

/// Probes a 64-slot fingerprint array (the PACTree data-node probe, §5.2):
/// bit i of the result is set iff `fps[i] == fp`.
#[inline]
pub fn fingerprint_match64(fps: &[AtomicU8; 64], fp: u8) -> u64 {
    target::eq_mask(fps, fp)
}

/// Probes a 32-slot fingerprint array (the FPTree-baseline leaf probe).
#[inline]
pub fn fingerprint_match32(fps: &[AtomicU8; 32], fp: u8) -> u32 {
    target::eq_mask(fps, fp) as u32
}

/// Probes a `Node16` key array for `b`; mask bits at or beyond `count` are
/// cleared.
#[inline]
pub fn node16_match(keys: &[AtomicU8; 16], b: u8, count: usize) -> u32 {
    target::eq_mask(keys, b) as u32 & ((1u32 << count.min(16)) - 1)
}

/// Walks a `Node48` child index in one pass: returns a 256-bit occupancy
/// bitmap (`[u64; 4]`, bit `i % 64` of word `i / 64` set iff slot `i` maps
/// to a live child, i.e. `index[i] != N48_EMPTY`). Callers iterate set bits
/// instead of testing all 256 bytes individually.
#[inline]
pub fn node48_occupied(index: &[AtomicU8; 256]) -> [u64; 4] {
    std::array::from_fn(|w| !target::eq_mask(&index[w * 64..][..64], 0xFF))
}

/// Best-effort L1 prefetch of the cache line holding `p`, for pointer
/// chases whose next dereference is a few dozen cycles away. A no-op on
/// targets without a prefetch hint.
#[inline]
pub fn prefetch_read<T>(p: *const T) {
    target::prefetch(p.cast())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn mk64(seed: u64) -> [AtomicU8; 64] {
        let mut x = seed | 1;
        std::array::from_fn(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            AtomicU8::new((x >> 33) as u8)
        })
    }

    fn prefix<const N: usize>(a: &[AtomicU8; 64]) -> [AtomicU8; N] {
        std::array::from_fn(|i| AtomicU8::new(a[i].load(Ordering::Relaxed)))
    }

    #[test]
    fn all_kernel_sets_agree_on_all_probe_bytes() {
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            let a64 = mk64(seed);
            let a32: [AtomicU8; 32] = prefix(&mk64(seed ^ 0x55));
            let a16: [AtomicU8; 16] = prefix(&mk64(seed ^ 0xAA));
            for fp in 0..=255u8 {
                let name = active().name();
                assert_eq!(
                    fingerprint_match64(&a64, fp),
                    scalar::fingerprint_match64(&a64, fp),
                    "{name} fp64 fp={fp}"
                );
                assert_eq!(
                    fingerprint_match32(&a32, fp),
                    scalar::fingerprint_match32(&a32, fp),
                    "{name} fp32 fp={fp}"
                );
                for count in 0..=16 {
                    assert_eq!(
                        node16_match(&a16, fp, count),
                        scalar::node16_match(&a16, fp, count),
                        "{name} match16 fp={fp} count={count}"
                    );
                }
            }
        }
    }

    fn mk256(seed: u64, density: u64) -> [AtomicU8; 256] {
        // `density`/16 of the slots occupied (byte != 0xFF), rest empty.
        let mut x = seed | 1;
        std::array::from_fn(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = if (x >> 33) % 16 < density {
                ((x >> 41) % 48) as u8
            } else {
                0xFF
            };
            AtomicU8::new(b)
        })
    }

    #[test]
    fn all_kernel_sets_agree_on_n48_occupancy() {
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            for density in [0, 1, 8, 15, 16] {
                let a = mk256(seed, density);
                let want = scalar::node48_occupied(&a);
                // Cross-check the reference against a trivial re-derivation.
                for (w, word) in want.iter().enumerate() {
                    for bit in 0..64 {
                        let occupied = a[w * 64 + bit].load(Ordering::Relaxed) != 0xFF;
                        assert_eq!((word >> bit) & 1 == 1, occupied, "word {w} bit {bit}");
                    }
                }
                assert_eq!(node48_occupied(&a), want, "seed={seed} density={density}");
            }
        }
    }

    #[test]
    fn n48_occupancy_edges() {
        let empty: [AtomicU8; 256] = std::array::from_fn(|_| AtomicU8::new(0xFF));
        let full: [AtomicU8; 256] = std::array::from_fn(|i| AtomicU8::new((i % 48) as u8));
        let alternating: [AtomicU8; 256] =
            std::array::from_fn(|i| AtomicU8::new(if i % 2 == 0 { 3 } else { 0xFF }));
        // 0xFE (one bit off empty) must still read as occupied.
        let near: [AtomicU8; 256] =
            std::array::from_fn(|i| AtomicU8::new(if i == 200 { 0xFE } else { 0xFF }));
        let mut near_want = [0u64; 4];
        near_want[200 / 64] = 1 << (200 % 64);
        for n48 in [scalar::node48_occupied, node48_occupied] {
            assert_eq!(n48(&empty), [0u64; 4], "empty");
            assert_eq!(n48(&full), [u64::MAX; 4], "full");
            assert_eq!(
                n48(&alternating),
                [0x5555_5555_5555_5555u64; 4],
                "alternating"
            );
            assert_eq!(n48(&near), near_want, "near-empty byte");
        }
    }

    #[test]
    fn match16_respects_count_bound() {
        let keys: [AtomicU8; 16] = std::array::from_fn(|_| AtomicU8::new(9));
        for match16 in [scalar::node16_match, node16_match] {
            assert_eq!(match16(&keys, 9, 0), 0);
            assert_eq!(match16(&keys, 9, 4), 0b1111);
            assert_eq!(match16(&keys, 9, 16), 0xFFFF);
            // Out-of-range counts clamp rather than shift past the lane.
            assert_eq!(match16(&keys, 9, 64), 0xFFFF);
        }
    }

    #[test]
    fn prefetch_is_safe_on_arbitrary_pointers() {
        let v = [0u8; 64];
        prefetch_read(v.as_ptr());
        prefetch_read(std::ptr::null::<u8>());
    }
}
