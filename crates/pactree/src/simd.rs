//! Runtime-dispatched SIMD kernels for the hot probe paths (paper §5.2).
//!
//! The paper's data-node probe is *one* AVX-512 comparison over the 64-byte
//! fingerprint array. This module provides the closest thing each host
//! supports — SSE2/AVX2 on x86_64, NEON on aarch64 — plus the portable SWAR
//! fallback, selected **once** per process behind a function-pointer table:
//!
//! * [`fingerprint_match64`] — the PACTree data-node probe (64 slots);
//! * [`fingerprint_match32`] — the FPTree-baseline leaf probe (32 slots);
//! * [`node16_match`] — PDL-ART `Node16` child search (splat + compare +
//!   movemask, bounded by the node's live count);
//! * [`Kernels::key_rank`] — gather + byte-swap of one inline-key word per
//!   live slot, the rank extraction behind the data node's sorted-slot
//!   build (lexicographic byte order becomes plain integer order);
//! * [`prefetch_read`] — best-effort software prefetch for pointer chases.
//!
//! Setting `PACTREE_NO_SIMD=1` forces the SWAR kernels (and disables
//! software prefetch), which is how CI runs the whole test suite on the
//! fallback path.
//!
//! # Safety: wide loads over `AtomicU8` arrays
//!
//! Every kernel reads 8/16/32 bytes at a time from arrays declared as
//! `[AtomicU8; N]`, i.e. wider than the declared atomic granule and (for the
//! vector kernels) non-atomically. This is sound for the same reason the
//! pre-existing `AtomicU64`-at-a-time SWAR trick was: every caller sits
//! inside a seqlock-style optimistic read protocol (`read_begin` /
//! `read_validate` on the owning node's version lock) or holds the node's
//! write lock outright, so a value computed from a torn or stale load is
//! discarded by the failed validation and never acted upon. The bytes
//! themselves are always initialized (nodes are zero-initialized at
//! allocation), so the loads cannot read uninitialized memory — the worst
//! case is a stale/mixed snapshot, which validation rejects. See DESIGN.md
//! §12 for the full argument.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// One set of probe kernels. Obtain via [`active`] (runtime-dispatched),
/// or [`swar`]/[`best`]/[`scalar`] for A/B harnesses and tests.
pub struct Kernels {
    name: &'static str,
    id: u8,
    /// 64-byte fingerprint probe → one mask bit per matching slot.
    fp_match64: unsafe fn(*const u8, u8) -> u64,
    /// 32-byte fingerprint probe → one mask bit per matching slot.
    fp_match32: unsafe fn(*const u8, u8) -> u32,
    /// 16-byte key probe, mask truncated to the first `count` slots.
    key_match16: unsafe fn(*const u8, u8, usize) -> u32,
    /// 256-byte `Node48` index walk → occupancy bitmap (bit i of word i/64
    /// set iff byte i != `N48_EMPTY`).
    n48_occupied: unsafe fn(*const u8) -> [u64; 4],
    /// Strided gather + per-lane byte swap: one 8-byte key word per listed
    /// slot (base, stride, offset, slots, n, out).
    key_rank: unsafe fn(*const u8, usize, usize, *const u8, usize, *mut u64),
    /// Whether [`prefetch_read`] issues a real prefetch instruction.
    prefetch: bool,
}

impl Kernels {
    /// Kernel-set name (`"scalar"`, `"swar"`, `"sse2"`, `"avx2"`, `"neon"`).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stable numeric id for gauges/JSON (0 swar, 1 sse2, 2 avx2, 3 neon,
    /// 255 scalar reference).
    #[inline]
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Probes a 64-slot fingerprint array for `fp`.
    #[inline]
    pub fn fp64(&self, fps: &[AtomicU8; 64], fp: u8) -> u64 {
        // SAFETY: the reference guarantees 64 readable, initialized bytes.
        // `[AtomicU8; N]` only promises 1-byte alignment; each kernel copes
        // on its own — SWAR checks at runtime and falls back to the scalar
        // per-byte path when misaligned, the vector kernels use unaligned
        // loads. See module docs for why wide loads are sound here.
        unsafe { (self.fp_match64)(fps.as_ptr() as *const u8, fp) }
    }

    /// Probes a 32-slot fingerprint array for `fp`.
    #[inline]
    pub fn fp32(&self, fps: &[AtomicU8; 32], fp: u8) -> u32 {
        // SAFETY: as for `fp64`, with 32 bytes.
        unsafe { (self.fp_match32)(fps.as_ptr() as *const u8, fp) }
    }

    /// Probes a `Node16` key array for `b`, bounded by `count`.
    #[inline]
    pub fn match16(&self, keys: &[AtomicU8; 16], b: u8, count: usize) -> u32 {
        // SAFETY: as for `fp64`, with 16 bytes.
        unsafe { (self.key_match16)(keys.as_ptr() as *const u8, b, count.min(16)) }
    }

    /// Walks a `Node48` child index: occupancy bitmap over all 256 bytes,
    /// bit `i % 64` of word `i / 64` set iff byte `i` is not `0xFF`.
    #[inline]
    pub fn n48(&self, index: &[AtomicU8; 256]) -> [u64; 4] {
        // SAFETY: as for `fp64`, with 256 bytes.
        unsafe { (self.n48_occupied)(index.as_ptr() as *const u8) }
    }

    /// Extracts the big-endian rank of one inline-key word for each listed
    /// slot: `out[i] = bswap(load_u64(base + slots[i] * stride + offset))`.
    /// Inline keys are stored zero-padded as little-endian words, so the
    /// byte-swapped word compares like the raw key bytes — the data node's
    /// sorted-slot build sorts on these ranks instead of materialized keys.
    ///
    /// # Safety
    ///
    /// For every `i < slots.len()`, `base + slots[i] * stride + offset`
    /// must point to 8 readable, initialized bytes at an 8-byte-aligned
    /// address. The wide-load caveats of the module docs apply: callers
    /// sit behind the owning node's lock (or a validated seqlock read), so
    /// a torn gather is never acted upon.
    pub unsafe fn key_rank(
        &self,
        base: *const u8,
        stride: usize,
        offset: usize,
        slots: &[u8],
        out: &mut [u64],
    ) {
        assert!(out.len() >= slots.len());
        // SAFETY: per this method's contract.
        unsafe {
            (self.key_rank)(
                base,
                stride,
                offset,
                slots.as_ptr(),
                slots.len(),
                out.as_mut_ptr(),
            )
        }
    }
}

// -- SWAR (portable fallback) -----------------------------------------------

/// Bytes of `x` that are zero, flagged in their high bit. The carry-free
/// form (not the classic `(x - 0x01…) & !x & 0x80…`, whose borrow out of a
/// zero byte false-flags a `0x01` byte above it): `(x & 0x7F…) + 0x7F…`
/// sets a byte's high bit iff its low seven bits are nonzero and cannot
/// carry across bytes, so or-ing `x` back in and inverting flags exactly
/// the zero bytes.
#[inline]
fn zero_byte_flags(x: u64) -> u64 {
    !(((x & 0x7F7F_7F7F_7F7F_7F7F) + 0x7F7F_7F7F_7F7F_7F7F) | x | 0x7F7F_7F7F_7F7F_7F7F)
}

/// Folds per-byte high-bit flags into one bit per byte (bit i set ⇔ byte i
/// flagged): a single multiply gathers the eight flag bits into the top
/// byte. Collision-free: flag bits sit at positions 8i, the multiplier has
/// bits at 56-7j, and 8i-7j ∈ 0..8 only for i == j.
#[inline]
fn movemask8(flags: u64) -> u64 {
    ((flags >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// One 8-byte SWAR probe step: matching bytes of the word at `p` → low mask
/// bits. Loaded as a single `AtomicU64` (the original seqlock-friendly
/// trick — 8 declared atomics observed in one wider atomic load).
///
/// # Safety
///
/// `p` must point to 8 readable bytes at an 8-byte-aligned address.
#[inline]
unsafe fn swar_step(p: *const u8, broadcast: u64) -> u64 {
    debug_assert_eq!(p as usize % 8, 0);
    // SAFETY: per caller contract.
    let word = unsafe { (*(p as *const AtomicU64)).load(Ordering::Acquire) };
    movemask8(zero_byte_flags(word ^ broadcast))
}

unsafe fn fp_match64_swar(p: *const u8, fp: u8) -> u64 {
    if !(p as usize).is_multiple_of(8) {
        // Every in-tree array is 8-aligned by node layout; a stray unaligned
        // caller (e.g. a stack array in tests) gets the per-byte path rather
        // than a misaligned atomic load.
        // SAFETY: forwards the caller's 64-byte contract.
        return unsafe { fp_match64_scalar(p, fp) };
    }
    let broadcast = 0x0101_0101_0101_0101u64.wrapping_mul(fp as u64);
    let mut mask = 0u64;
    for chunk in 0..8 {
        // SAFETY: 64 readable aligned bytes per the kernel contract.
        mask |= unsafe { swar_step(p.add(chunk * 8), broadcast) } << (chunk * 8);
    }
    mask
}

unsafe fn fp_match32_swar(p: *const u8, fp: u8) -> u32 {
    if !(p as usize).is_multiple_of(8) {
        // SAFETY: forwards the caller's 32-byte contract.
        return unsafe { fp_match32_scalar(p, fp) };
    }
    let broadcast = 0x0101_0101_0101_0101u64.wrapping_mul(fp as u64);
    let mut mask = 0u32;
    for chunk in 0..4 {
        // SAFETY: 32 readable aligned bytes per the kernel contract.
        mask |= (unsafe { swar_step(p.add(chunk * 8), broadcast) } as u32) << (chunk * 8);
    }
    mask
}

unsafe fn key_match16_swar(p: *const u8, b: u8, count: usize) -> u32 {
    if !(p as usize).is_multiple_of(8) {
        // SAFETY: forwards the caller's 16-byte contract.
        return unsafe { key_match16_scalar(p, b, count) };
    }
    let broadcast = 0x0101_0101_0101_0101u64.wrapping_mul(b as u64);
    // SAFETY: 16 readable aligned bytes per the kernel contract.
    let mask = unsafe { swar_step(p, broadcast) | (swar_step(p.add(8), broadcast) << 8) };
    mask as u32 & ((1u32 << count.min(16)) - 1)
}

unsafe fn n48_occupied_swar(p: *const u8) -> [u64; 4] {
    if !(p as usize).is_multiple_of(8) {
        // SAFETY: forwards the caller's 256-byte contract.
        return unsafe { n48_occupied_scalar(p) };
    }
    // A byte is *empty* iff it equals N48_EMPTY (0xFF), i.e. `byte ^ 0xFF`
    // is zero — so the existing zero-byte probe finds the empties and the
    // complement (within each 8-bit lane group) is the occupancy mask.
    let mut out = [0u64; 4];
    for (w, word_mask) in out.iter_mut().enumerate() {
        let mut empty = 0u64;
        for chunk in 0..8 {
            // SAFETY: 256 readable aligned bytes per the kernel contract.
            empty |= unsafe { swar_step(p.add(w * 64 + chunk * 8), u64::MAX) } << (chunk * 8);
        }
        *word_mask = !empty;
    }
    out
}

// -- Scalar reference (tests and the microbench baseline only) --------------

unsafe fn fp_match64_scalar(p: *const u8, fp: u8) -> u64 {
    let mut mask = 0u64;
    for i in 0..64 {
        // SAFETY: 64 readable bytes per the kernel contract.
        let byte = unsafe { (*(p.add(i) as *const AtomicU8)).load(Ordering::Acquire) };
        mask |= u64::from(byte == fp) << i;
    }
    mask
}

unsafe fn fp_match32_scalar(p: *const u8, fp: u8) -> u32 {
    let mut mask = 0u32;
    for i in 0..32 {
        // SAFETY: 32 readable bytes per the kernel contract.
        let byte = unsafe { (*(p.add(i) as *const AtomicU8)).load(Ordering::Acquire) };
        mask |= u32::from(byte == fp) << i;
    }
    mask
}

unsafe fn key_match16_scalar(p: *const u8, b: u8, count: usize) -> u32 {
    let mut mask = 0u32;
    for i in 0..count.min(16) {
        // SAFETY: 16 readable bytes per the kernel contract.
        let byte = unsafe { (*(p.add(i) as *const AtomicU8)).load(Ordering::Acquire) };
        mask |= u32::from(byte == b) << i;
    }
    mask
}

unsafe fn n48_occupied_scalar(p: *const u8) -> [u64; 4] {
    let mut out = [0u64; 4];
    for i in 0..256 {
        // SAFETY: 256 readable bytes per the kernel contract.
        let byte = unsafe { (*(p.add(i) as *const AtomicU8)).load(Ordering::Acquire) };
        out[i / 64] |= u64::from(byte != 0xFF) << (i % 64);
    }
    out
}

/// One aligned atomic load + `swap_bytes` per slot. The stored word is
/// `u64::from_le_bytes(key bytes)`, so `swap_bytes` yields the big-endian
/// rank on every platform. Also the shared tail/fallback for the vector
/// gathers — a per-word loop the compiler turns into load+`bswap` pairs,
/// which is already close to memory-bound; only AVX2's hardware gather
/// buys more.
unsafe fn key_rank_scalar(
    base: *const u8,
    stride: usize,
    offset: usize,
    slots: *const u8,
    n: usize,
    out: *mut u64,
) {
    for i in 0..n {
        // SAFETY: `n` readable slot ids and out words, and an aligned
        // readable u64 per addressed entry, per the kernel contract.
        unsafe {
            let s = *slots.add(i) as usize;
            let q = base.add(s * stride + offset) as *const AtomicU64;
            *out.add(i) = (*q).load(Ordering::Acquire).swap_bytes();
        }
    }
}

// -- x86_64 vector kernels ---------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// 4×16B compare + movemask (SSE2 is part of the x86_64 baseline).
    pub unsafe fn fp_match64_sse2(p: *const u8, fp: u8) -> u64 {
        // SAFETY: 64 readable bytes per the kernel contract; loadu has no
        // alignment requirement.
        unsafe {
            let needle = _mm_set1_epi8(fp as i8);
            let mut mask = 0u64;
            for i in 0..4 {
                let v = _mm_loadu_si128(p.add(i * 16) as *const __m128i);
                let eq = _mm_movemask_epi8(_mm_cmpeq_epi8(v, needle));
                mask |= ((eq as u32) as u64) << (i * 16);
            }
            mask
        }
    }

    pub unsafe fn fp_match32_sse2(p: *const u8, fp: u8) -> u32 {
        // SAFETY: 32 readable bytes per the kernel contract.
        unsafe {
            let needle = _mm_set1_epi8(fp as i8);
            let lo = _mm_loadu_si128(p as *const __m128i);
            let hi = _mm_loadu_si128(p.add(16) as *const __m128i);
            let ml = _mm_movemask_epi8(_mm_cmpeq_epi8(lo, needle)) as u32;
            let mh = _mm_movemask_epi8(_mm_cmpeq_epi8(hi, needle)) as u32;
            ml | (mh << 16)
        }
    }

    /// The classic ART `Node16` probe: one splat-compare-movemask.
    pub unsafe fn key_match16_sse2(p: *const u8, b: u8, count: usize) -> u32 {
        // SAFETY: 16 readable bytes per the kernel contract.
        unsafe {
            let needle = _mm_set1_epi8(b as i8);
            let v = _mm_loadu_si128(p as *const __m128i);
            let eq = _mm_movemask_epi8(_mm_cmpeq_epi8(v, needle)) as u32;
            eq & ((1u32 << count.min(16)) - 1)
        }
    }

    /// 16×16B compare-against-0xFF + movemask, inverted per 64-byte group.
    pub unsafe fn n48_occupied_sse2(p: *const u8) -> [u64; 4] {
        // SAFETY: 256 readable bytes per the kernel contract.
        unsafe {
            let empty = _mm_set1_epi8(-1);
            let mut out = [0u64; 4];
            for (w, word_mask) in out.iter_mut().enumerate() {
                let mut m = 0u64;
                for i in 0..4 {
                    let v = _mm_loadu_si128(p.add(w * 64 + i * 16) as *const __m128i);
                    let eq = _mm_movemask_epi8(_mm_cmpeq_epi8(v, empty));
                    m |= ((eq as u32) as u64) << (i * 16);
                }
                *word_mask = !m;
            }
            out
        }
    }

    /// 2×32B compare + movemask.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fp_match64_avx2(p: *const u8, fp: u8) -> u64 {
        // SAFETY: 64 readable bytes per the kernel contract; the dispatcher
        // verified AVX2 support.
        unsafe {
            let needle = _mm256_set1_epi8(fp as i8);
            let lo = _mm256_loadu_si256(p as *const __m256i);
            let hi = _mm256_loadu_si256(p.add(32) as *const __m256i);
            let ml = _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, needle)) as u32 as u64;
            let mh = _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, needle)) as u32 as u64;
            // Dirty upper YMM state slows every legacy-SSE instruction that
            // follows (compiler-generated SSE in the tree code is non-VEX);
            // clear it before returning to scalar code.
            _mm256_zeroupper();
            ml | (mh << 32)
        }
    }

    /// One 32B compare + movemask.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fp_match32_avx2(p: *const u8, fp: u8) -> u32 {
        // SAFETY: 32 readable bytes per the kernel contract; AVX2 verified.
        unsafe {
            let needle = _mm256_set1_epi8(fp as i8);
            let v = _mm256_loadu_si256(p as *const __m256i);
            let m = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)) as u32;
            _mm256_zeroupper();
            m
        }
    }

    /// 4-lane hardware gather of the strided key words + in-register
    /// byte swap (`_mm256_shuffle_epi8` with a per-lane reversal pattern).
    /// Byte offsets are formed scalar (AVX2 has no 64-bit multiply) and
    /// fed to a scale-1 gather; x86_64 is little-endian, so the gathered
    /// lane bytes are the raw key bytes and the reversal is the rank.
    #[target_feature(enable = "avx2")]
    pub unsafe fn key_rank_avx2(
        base: *const u8,
        stride: usize,
        offset: usize,
        slots: *const u8,
        n: usize,
        out: *mut u64,
    ) {
        // SAFETY: per the kernel contract (each addressed word readable);
        // gathers have no alignment requirement, AVX2 verified by dispatch.
        unsafe {
            let rev = _mm256_setr_epi8(
                7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, //
                7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8,
            );
            let mut i = 0;
            while i + 4 <= n {
                let at = |j: usize| (*slots.add(i + j) as usize * stride + offset) as i64;
                let idx = _mm256_setr_epi64x(at(0), at(1), at(2), at(3));
                let g = _mm256_i64gather_epi64::<1>(base as *const i64, idx);
                _mm256_storeu_si256(out.add(i) as *mut __m256i, _mm256_shuffle_epi8(g, rev));
                i += 4;
            }
            _mm256_zeroupper();
            super::key_rank_scalar(base, stride, offset, slots.add(i), n - i, out.add(i));
        }
    }

    /// 8×32B compare-against-0xFF + movemask, inverted per 64-byte group.
    #[target_feature(enable = "avx2")]
    pub unsafe fn n48_occupied_avx2(p: *const u8) -> [u64; 4] {
        // SAFETY: 256 readable bytes per the kernel contract; AVX2 verified.
        unsafe {
            let empty = _mm256_set1_epi8(-1);
            let mut out = [0u64; 4];
            for (w, word_mask) in out.iter_mut().enumerate() {
                let lo = _mm256_loadu_si256(p.add(w * 64) as *const __m256i);
                let hi = _mm256_loadu_si256(p.add(w * 64 + 32) as *const __m256i);
                let ml = _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, empty)) as u32 as u64;
                let mh = _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, empty)) as u32 as u64;
                *word_mask = !(ml | (mh << 32));
            }
            _mm256_zeroupper();
            out
        }
    }
}

// -- aarch64 vector kernels --------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// NEON lacks movemask; narrow each 16-bit lane pair by 4 (`vshrn`) to
    /// get one nibble per byte lane, then gather nibble low bits.
    #[inline]
    unsafe fn movemask16(eq: uint8x16_t) -> u32 {
        // SAFETY: pure register ops.
        unsafe {
            let nib = vshrn_n_u16::<4>(vreinterpretq_u16_u8(eq));
            let packed: u64 = vget_lane_u64::<0>(vreinterpret_u64_u8(nib));
            let mut mask = 0u32;
            let mut i = 0;
            while i < 16 {
                mask |= (((packed >> (4 * i)) & 1) as u32) << i;
                i += 1;
            }
            mask
        }
    }

    pub unsafe fn fp_match64_neon(p: *const u8, fp: u8) -> u64 {
        // SAFETY: 64 readable bytes per the kernel contract.
        unsafe {
            let needle = vdupq_n_u8(fp);
            let mut mask = 0u64;
            let mut i = 0;
            while i < 4 {
                let v = vld1q_u8(p.add(i * 16));
                mask |= (movemask16(vceqq_u8(v, needle)) as u64) << (i * 16);
                i += 1;
            }
            mask
        }
    }

    pub unsafe fn fp_match32_neon(p: *const u8, fp: u8) -> u32 {
        // SAFETY: 32 readable bytes per the kernel contract.
        unsafe {
            let needle = vdupq_n_u8(fp);
            let lo = movemask16(vceqq_u8(vld1q_u8(p), needle));
            let hi = movemask16(vceqq_u8(vld1q_u8(p.add(16)), needle));
            lo | (hi << 16)
        }
    }

    pub unsafe fn key_match16_neon(p: *const u8, b: u8, count: usize) -> u32 {
        // SAFETY: 16 readable bytes per the kernel contract.
        unsafe {
            let eq = movemask16(vceqq_u8(vld1q_u8(p), vdupq_n_u8(b)));
            let count = count.min(16);
            let lim = if count >= 16 {
                0xFFFF
            } else {
                (1u32 << count) - 1
            };
            eq & lim
        }
    }

    /// 16×16B compare-against-0xFF, inverted per 64-byte group.
    pub unsafe fn n48_occupied_neon(p: *const u8) -> [u64; 4] {
        // SAFETY: 256 readable bytes per the kernel contract.
        unsafe {
            let empty = vdupq_n_u8(0xFF);
            let mut out = [0u64; 4];
            for (w, word_mask) in out.iter_mut().enumerate() {
                let mut m = 0u64;
                let mut i = 0;
                while i < 4 {
                    let v = vld1q_u8(p.add(w * 64 + i * 16));
                    m |= (movemask16(vceqq_u8(v, empty)) as u64) << (i * 16);
                    i += 1;
                }
                *word_mask = !m;
            }
            out
        }
    }
}

// -- Kernel sets and dispatch ------------------------------------------------

static SCALAR: Kernels = Kernels {
    name: "scalar",
    id: 255,
    fp_match64: fp_match64_scalar,
    fp_match32: fp_match32_scalar,
    key_match16: key_match16_scalar,
    n48_occupied: n48_occupied_scalar,
    key_rank: key_rank_scalar,
    prefetch: false,
};

static SWAR: Kernels = Kernels {
    name: "swar",
    id: 0,
    fp_match64: fp_match64_swar,
    fp_match32: fp_match32_swar,
    key_match16: key_match16_swar,
    n48_occupied: n48_occupied_swar,
    key_rank: key_rank_scalar,
    prefetch: false,
};

#[cfg(target_arch = "x86_64")]
static SSE2: Kernels = Kernels {
    name: "sse2",
    id: 1,
    fp_match64: x86::fp_match64_sse2,
    fp_match32: x86::fp_match32_sse2,
    key_match16: x86::key_match16_sse2,
    n48_occupied: x86::n48_occupied_sse2,
    key_rank: key_rank_scalar,
    prefetch: true,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    name: "avx2",
    id: 2,
    fp_match64: x86::fp_match64_avx2,
    fp_match32: x86::fp_match32_avx2,
    key_match16: x86::key_match16_sse2,
    n48_occupied: x86::n48_occupied_avx2,
    key_rank: x86::key_rank_avx2,
    prefetch: true,
};

#[cfg(target_arch = "aarch64")]
static NEON: Kernels = Kernels {
    name: "neon",
    id: 3,
    fp_match64: neon::fp_match64_neon,
    fp_match32: neon::fp_match32_neon,
    key_match16: neon::key_match16_neon,
    n48_occupied: neon::n48_occupied_neon,
    key_rank: key_rank_scalar,
    prefetch: true,
};

/// The naive per-byte reference kernels (differential-test baseline).
pub fn scalar() -> &'static Kernels {
    &SCALAR
}

/// The portable SWAR kernels (the forced-fallback dispatch target).
pub fn swar() -> &'static Kernels {
    &SWAR
}

/// The best kernel set this host supports, ignoring the env override.
pub fn best() -> &'static Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            &AVX2
        } else {
            &SSE2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        &NEON
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        &SWAR
    }
}

/// Whether `PACTREE_NO_SIMD` requests the SWAR fallback (any value but `0`
/// or empty counts as set).
fn forced_fallback() -> bool {
    std::env::var("PACTREE_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0")
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
static KERNEL_GAUGE: OnceLock<obsv::Registration> = OnceLock::new();

/// The process-wide kernel set: chosen once, on first use, honoring
/// `PACTREE_NO_SIMD=1`. The choice is exported as the obsv gauge
/// `pactree.simd.kernel.<name>` (value = kernel id) so every results
/// artifact records which ISA actually ran.
pub fn active() -> &'static Kernels {
    ACTIVE.get_or_init(|| {
        let k = if forced_fallback() { &SWAR } else { best() };
        let gauge_name = format!("pactree.simd.kernel.{}", k.name);
        let id = k.id;
        let _ = KERNEL_GAUGE.set(
            obsv::registry::global()
                .register_gauge(gauge_name.clone(), move || Some(f64::from(id))),
        );
        // Observability must not be able to abort the data path, so this is
        // a debug-only check rather than a hard assert.
        debug_assert!(
            obsv::registry::global()
                .sample()
                .gauges
                .contains_key(&gauge_name),
            "dispatched SIMD kernel must be visible as an obsv gauge"
        );
        k
    })
}

// -- Safe entry points -------------------------------------------------------

/// Probes a 64-slot fingerprint array (the PACTree data-node probe, §5.2):
/// bit i of the result is set iff `fps[i] == fp`.
#[inline]
pub fn fingerprint_match64(fps: &[AtomicU8; 64], fp: u8) -> u64 {
    active().fp64(fps, fp)
}

/// Probes a 32-slot fingerprint array (the FPTree-baseline leaf probe).
#[inline]
pub fn fingerprint_match32(fps: &[AtomicU8; 32], fp: u8) -> u32 {
    active().fp32(fps, fp)
}

/// Probes a `Node16` key array for `b`; mask bits at or beyond `count` are
/// cleared.
#[inline]
pub fn node16_match(keys: &[AtomicU8; 16], b: u8, count: usize) -> u32 {
    active().match16(keys, b, count)
}

/// Walks a `Node48` child index in one pass: returns a 256-bit occupancy
/// bitmap (`[u64; 4]`, bit `i % 64` of word `i / 64` set iff slot `i` maps
/// to a live child, i.e. `index[i] != N48_EMPTY`). Callers iterate set bits
/// instead of testing all 256 bytes individually.
#[inline]
pub fn node48_occupied(index: &[AtomicU8; 256]) -> [u64; 4] {
    active().n48(index)
}

/// Best-effort L1 prefetch of the cache line holding `p`, for pointer
/// chases whose next dereference is a few dozen cycles away. A no-op on the
/// SWAR fallback (so `PACTREE_NO_SIMD=1` A/B runs isolate the whole
/// module's effect) and on architectures without a prefetch hint.
#[inline]
pub fn prefetch_read<T>(p: *const T) {
    if !active().prefetch {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never faults, for any address.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    };
    #[cfg(target_arch = "aarch64")]
    // SAFETY: prfm is a hint; it never faults and writes nothing.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p as *const u8,
                        options(nostack, preserves_flags, readonly))
    };
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8-aligned like every in-tree fingerprint/key array, so the tests
    /// exercise the SWAR word path rather than its unaligned fallback.
    #[repr(align(8))]
    struct Aligned<T>(T);

    fn mk64(seed: u64) -> Aligned<[AtomicU8; 64]> {
        let mut x = seed | 1;
        Aligned(std::array::from_fn(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            AtomicU8::new((x >> 33) as u8)
        }))
    }

    fn mk16(seed: u64) -> Aligned<[AtomicU8; 16]> {
        let a = mk64(seed);
        Aligned(std::array::from_fn(|i| {
            AtomicU8::new(a.0[i].load(Ordering::Relaxed))
        }))
    }

    fn mk32(seed: u64) -> Aligned<[AtomicU8; 32]> {
        let a = mk64(seed);
        Aligned(std::array::from_fn(|i| {
            AtomicU8::new(a.0[i].load(Ordering::Relaxed))
        }))
    }

    #[test]
    fn all_kernel_sets_agree_on_all_probe_bytes() {
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            let (a64, a32, a16) = (mk64(seed), mk32(seed ^ 0x55), mk16(seed ^ 0xAA));
            let (a64, a32, a16) = (&a64.0, &a32.0, &a16.0);
            for fp in 0..=255u8 {
                let want64 = scalar().fp64(a64, fp);
                let want32 = scalar().fp32(a32, fp);
                for k in [swar(), best(), active()] {
                    assert_eq!(k.fp64(a64, fp), want64, "{} fp64 fp={fp}", k.name());
                    assert_eq!(k.fp32(a32, fp), want32, "{} fp32 fp={fp}", k.name());
                    for count in 0..=16 {
                        assert_eq!(
                            k.match16(a16, fp, count),
                            scalar().match16(a16, fp, count),
                            "{} match16 fp={fp} count={count}",
                            k.name()
                        );
                    }
                }
            }
        }
    }

    fn mk256(seed: u64, density: u64) -> Aligned<[AtomicU8; 256]> {
        // `density`/16 of the slots occupied (byte != 0xFF), rest empty.
        let mut x = seed | 1;
        Aligned(std::array::from_fn(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = if (x >> 33) % 16 < density {
                ((x >> 41) % 48) as u8
            } else {
                0xFF
            };
            AtomicU8::new(b)
        }))
    }

    #[test]
    fn all_kernel_sets_agree_on_n48_occupancy() {
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            for density in [0, 1, 8, 15, 16] {
                let a = mk256(seed, density);
                let a = &a.0;
                let want = scalar().n48(a);
                // Cross-check the reference against a trivial re-derivation.
                for (w, word) in want.iter().enumerate() {
                    for bit in 0..64 {
                        let occupied = a[w * 64 + bit].load(Ordering::Relaxed) != 0xFF;
                        assert_eq!((word >> bit) & 1 == 1, occupied, "word {w} bit {bit}");
                    }
                }
                for k in [swar(), best(), active()] {
                    assert_eq!(k.n48(a), want, "{} seed={seed} density={density}", k.name());
                }
            }
        }
    }

    #[test]
    fn n48_occupancy_edges() {
        let empty: Aligned<[AtomicU8; 256]> = Aligned(std::array::from_fn(|_| AtomicU8::new(0xFF)));
        let full: Aligned<[AtomicU8; 256]> =
            Aligned(std::array::from_fn(|i| AtomicU8::new((i % 48) as u8)));
        let alternating: Aligned<[AtomicU8; 256]> = Aligned(std::array::from_fn(|i| {
            AtomicU8::new(if i % 2 == 0 { 3 } else { 0xFF })
        }));
        for k in [scalar(), swar(), best()] {
            assert_eq!(k.n48(&empty.0), [0u64; 4], "{} empty", k.name());
            assert_eq!(k.n48(&full.0), [u64::MAX; 4], "{} full", k.name());
            assert_eq!(
                k.n48(&alternating.0),
                [0x5555_5555_5555_5555u64; 4],
                "{} alternating",
                k.name()
            );
        }
        // 0xFE (one bit off empty) must still read as occupied.
        let near: Aligned<[AtomicU8; 256]> = Aligned(std::array::from_fn(|i| {
            AtomicU8::new(if i == 200 { 0xFE } else { 0xFF })
        }));
        for k in [scalar(), swar(), best()] {
            let mut want = [0u64; 4];
            want[200 / 64] = 1 << (200 % 64);
            assert_eq!(k.n48(&near.0), want, "{} near-empty byte", k.name());
        }
    }

    #[test]
    fn match16_respects_count_bound() {
        let keys: [AtomicU8; 16] = std::array::from_fn(|_| AtomicU8::new(9));
        for k in [scalar(), swar(), best()] {
            assert_eq!(k.match16(&keys, 9, 0), 0, "{}", k.name());
            assert_eq!(k.match16(&keys, 9, 4), 0b1111, "{}", k.name());
            assert_eq!(k.match16(&keys, 9, 16), 0xFFFF, "{}", k.name());
            // Out-of-range counts clamp rather than shift past the lane.
            assert_eq!(k.match16(&keys, 9, 64), 0xFFFF, "{}", k.name());
        }
    }

    #[test]
    fn movemask8_folds_every_flag_pattern() {
        // Every subset of flagged bytes must map to exactly its bit set.
        for pat in 0..256u64 {
            let mut flags = 0u64;
            for i in 0..8 {
                if pat & (1 << i) != 0 {
                    flags |= 0x80 << (8 * i);
                }
            }
            assert_eq!(movemask8(flags), pat, "pattern {pat:#x}");
        }
    }

    #[test]
    fn dispatch_registers_kernel_gauge() {
        let k = active();
        let sample = obsv::registry::global().sample();
        let name = format!("pactree.simd.kernel.{}", k.name());
        assert_eq!(sample.gauges.get(&name).copied(), Some(f64::from(k.id())));
    }

    #[test]
    fn prefetch_is_safe_on_arbitrary_pointers() {
        let v = [0u8; 64];
        prefetch_read(v.as_ptr());
        prefetch_read(std::ptr::null::<u8>());
    }
}
