//! Persistence primitives: `clwb`/`sfence` equivalents.
//!
//! In ADR mode (paper §2.1) CPU caches are volatile, so stores become
//! durable only after an explicit cache-line flush, and ordering between
//! flushed groups requires a fence. These functions are the emulated
//! equivalents:
//!
//! * [`persist`] flushes the cache lines covering a byte range — in
//!   crash-simulation pools this copies the lines into the media image, and
//!   it feeds the performance model. With the model off and no pool keeping
//!   a media image, nothing consumes a flush and it returns at once.
//! * [`fence`] orders prior flushes (a real `SeqCst` fence plus model cost).
//! * [`persist_obj`] / [`persist_range_fenced`] are convenience wrappers.
//!
//! Every index in this workspace performs durability exclusively through
//! this module, so flush/fence counts in [`crate::stats`] are complete.

use std::sync::atomic::{fence as cpu_fence, Ordering};

use crate::model;
use crate::pool;

/// Flushes the cache lines covering `[ptr, ptr + len)` (clwb equivalent).
///
/// Safe to call on any address; bytes outside registered pools are ignored
/// (they are ordinary DRAM and need no flush). Returns right after the
/// barrier while the NVM model is off and no registered pool keeps a media
/// image: then neither a media copy, a trace event nor a model counter
/// would record the flush.
#[inline]
pub fn persist(ptr: *const u8, len: usize) {
    if len == 0 {
        return;
    }
    // Compiler barrier standing in for the store->clwb ordering.
    cpu_fence(Ordering::Release);
    if !model::enabled() && pool::media_pool_count() == 0 {
        return;
    }
    if let Some((id, offset)) = pool::lookup_addr(ptr) {
        // Lock-free steady state: `with_pool` resolves the handle through a
        // per-thread cache instead of the registry mutex.
        pool::with_pool(id, |p| {
            // Pre-image capture must happen before the media copy.
            crate::trace::record_flush(p, offset, len);
            p.persist_range(offset, len)
        });
        model::on_flush(id, offset, len);
    }
}

/// Flushes an object's bytes.
#[inline]
pub fn persist_obj<T>(obj: &T) {
    persist(obj as *const T as *const u8, std::mem::size_of::<T>());
}

/// Ordering fence between persisted groups (sfence equivalent).
#[inline]
pub fn fence() {
    cpu_fence(Ordering::SeqCst);
    crate::trace::on_fence();
    model::on_fence();
}

/// Flush followed by a fence: the common "make durable now" idiom.
#[inline]
pub fn persist_range_fenced(ptr: *const u8, len: usize) {
    persist(ptr, len);
    fence();
}

/// Flush + fence for one object.
#[inline]
pub fn persist_obj_fenced<T>(obj: &T) {
    persist_obj(obj);
    fence();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{destroy_pool, PmemPool, PoolConfig};

    #[test]
    fn persist_copies_to_media() {
        let pool = PmemPool::create(PoolConfig::durable("t-persist", 1 << 20)).unwrap();
        let pptr = pool.allocator().alloc(16).unwrap();
        let raw = pptr.as_mut_ptr();
        // SAFETY: 16 freshly allocated bytes.
        unsafe { raw.write_bytes(0x5A, 16) };
        persist(raw, 16);
        fence();
        pool.simulate_crash(false);
        // SAFETY: same allocation, remounted in place.
        unsafe { assert_eq!(*pool.at(pptr.offset()), 0x5A) };
        destroy_pool(pool.id());
    }

    #[test]
    fn persist_outside_pools_is_noop() {
        let x = 42u64;
        persist_obj(&x); // DRAM address: must not panic or account anything
        fence();
    }

    #[test]
    fn unflushed_neighbour_line_lost() {
        let pool = PmemPool::create(PoolConfig::durable("t-persist2", 1 << 20)).unwrap();
        let a = pool.allocator().alloc(64).unwrap();
        let b = pool.allocator().alloc(64).unwrap();
        // SAFETY: two distinct 64-byte allocations.
        unsafe {
            a.as_mut_ptr().write_bytes(0xAA, 64);
            b.as_mut_ptr().write_bytes(0xBB, 64);
        }
        persist(a.as_ptr(), 64); // only `a`
        fence();
        pool.simulate_crash(false);
        // SAFETY: offsets still valid after in-place remount.
        unsafe {
            assert_eq!(*pool.at(a.offset()), 0xAA);
            assert_eq!(*pool.at(b.offset()), 0x00);
        }
        destroy_pool(pool.id());
    }
}
