//! Crash-injection harness (paper §6.8).
//!
//! The paper validates recovery by killing the process 100 times and
//! checking that every previously written key survives. We cannot `SIGKILL`
//! a thread mid-operation and keep the test process alive, so we simulate at
//! the persistence layer instead: a *crash point* discards every byte that
//! was never explicitly persisted (see [`crate::pool::PmemPool::simulate_crash`]),
//! which is exactly what an ADR-mode power failure does to CPU caches.
//!
//! Two ingredients make the simulated crash adversarial:
//!
//! * [`CrashScheduler`] — a countdown that triggers a simulated crash after
//!   a randomized number of persist operations, so crashes land *inside*
//!   multi-step protocols (split, merge, malloc-to), not just between ops.
//! * random cache evictions — [`evict_random_lines`] persists arbitrary
//!   cache lines the program never flushed, modelling spontaneous cache
//!   writebacks that real hardware performs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rand::Rng;

use crate::pool::PmemPool;

/// A countdown-based crash trigger.
///
/// Register it with `arm`, then call [`tick`](Self::tick) at interesting
/// instants (the PACTree test-suite ticks on every persist). When the
/// countdown hits zero the scheduler flips to *tripped* and the harness
/// performs the actual pool crash at a safe join point.
#[derive(Debug, Default)]
pub struct CrashScheduler {
    countdown: AtomicU64,
    armed: AtomicBool,
    tripped: AtomicBool,
}

impl CrashScheduler {
    /// Creates a disarmed scheduler.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arms the scheduler to trip after `after_ticks` ticks.
    pub fn arm(&self, after_ticks: u64) {
        self.countdown.store(after_ticks, Ordering::SeqCst);
        self.tripped.store(false, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Disarms without tripping.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Advances the countdown; returns true exactly once when it fires.
    pub fn tick(&self) -> bool {
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        let prev = self.countdown.fetch_sub(1, Ordering::SeqCst);
        if prev == 1 {
            self.armed.store(false, Ordering::SeqCst);
            self.tripped.store(true, Ordering::SeqCst);
            return true;
        }
        if prev == 0 {
            // Raced past zero; restore and report not-fired.
            self.countdown.store(0, Ordering::SeqCst);
        }
        false
    }

    /// Whether the scheduler has fired since the last arm.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }
}

/// Persists `count` random cache lines of the pool, simulating spontaneous
/// CPU cache evictions before a crash.
///
/// Lines are drawn from the pool's touched extent — the part that can hold
/// dirty data. Evicting a line of the untouched tail is a no-op, and over the
/// whole reservation most draws would land there.
pub fn evict_random_lines(pool: &PmemPool, count: usize, rng: &mut impl Rng) {
    let lines = pool.touched_extent() / crate::CACHE_LINE;
    for _ in 0..count {
        let line = rng.gen_range(0..lines) as u64;
        pool.evict_line(line * crate::CACHE_LINE as u64);
    }
}

/// Crashes a set of pools together (a whole-machine power failure) and
/// remounts them, optionally at moved base addresses.
///
/// Ordering matters: *every* pool is crashed and remounted before *any*
/// pool's allocation logs are replayed. A pool's log replay dereferences
/// cross-pool `PmPtr` destinations (see `PmemAllocator::malloc_to`), so
/// recovering pool 1 before pool 2 has remounted would let pool 1's
/// recovery observe pool 2's pre-crash volatile image — e.g. a destination
/// cell that looks linked even though the link never reached media — and
/// wrongly keep an orphaned block. After a real power failure no such state
/// exists anywhere; the two-phase order reproduces that. The
/// `cross_pool_orphan_reclaimed_after_crash_all` test locks this in, and
/// `recover_logs` itself tolerates destinations whose pool is gone entirely.
pub fn crash_all(pools: &[Arc<PmemPool>], move_base: bool) {
    for p in pools {
        p.simulate_crash(move_base);
    }
    for p in pools {
        p.allocator().recover_logs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{destroy_pool, PoolConfig};
    use rand::SeedableRng;

    #[test]
    fn scheduler_fires_once() {
        let s = CrashScheduler::new();
        s.arm(3);
        assert!(!s.tick());
        assert!(!s.tick());
        assert!(s.tick());
        assert!(s.tripped());
        assert!(!s.tick(), "fires exactly once");
    }

    #[test]
    fn disarm_prevents_fire() {
        let s = CrashScheduler::new();
        s.arm(2);
        s.disarm();
        assert!(!s.tick());
        assert!(!s.tick());
        assert!(!s.tripped());
    }

    #[test]
    fn random_evictions_persist_data() {
        let pool = PmemPool::create(PoolConfig::durable("t-evict-rand", 1 << 20)).unwrap();
        let off = pool.allocator().alloc(64).unwrap().offset();
        // SAFETY: freshly allocated 64 bytes.
        unsafe { pool.at(off).write_bytes(0x99, 64) };
        // Evict every line; the written one must reach media.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        evict_random_lines(&pool, pool.size() / crate::CACHE_LINE * 4, &mut rng);
        pool.simulate_crash(false);
        // SAFETY: offset in bounds after remount.
        unsafe { assert_eq!(*pool.at(off), 0x99) };
        destroy_pool(pool.id());
    }

    /// Byte offset of allocation-log slot `slot` (layout documented in
    /// `crate::alloc`: log base 0x400, 32-byte entries `dest,size,ptr,pad`).
    fn log_entry_off(slot: u64) -> u64 {
        0x400 + slot * 32
    }

    /// Plants a mid-`malloc_to` log entry in `pool`'s media: block allocated
    /// and logged, destination not yet durably linked.
    fn plant_pending_log(pool: &PmemPool, slot: u64, dest_raw: u64, ptr_raw: u64, size: u64) {
        let off = log_entry_off(slot);
        // SAFETY: the log area is in bounds of every pool and 8-byte aligned.
        unsafe {
            (pool.at(off) as *mut u64).write(dest_raw);
            (pool.at(off + 8) as *mut u64).write(size);
            (pool.at(off + 16) as *mut u64).write(ptr_raw);
        }
        pool.persist_range(off, 32);
    }

    /// Regression: `crash_all` must remount *every* pool before *any* log
    /// replay runs. Pool A's pending log points at a destination cell in
    /// pool B that is linked only in B's volatile image; if A's recovery ran
    /// before B's remount it would read the stale link and leak the block.
    #[test]
    fn cross_pool_orphan_reclaimed_after_crash_all() {
        use crate::pptr::PmPtr;
        let a = PmemPool::create(PoolConfig::durable("t-ca-cross-a", 1 << 20)).unwrap();
        let b = PmemPool::create(PoolConfig::durable("t-ca-cross-b", 1 << 20)).unwrap();
        let block = a.allocator().alloc(64).unwrap();
        let dest = b.allocator().root(0);
        let doff = b
            .offset_of(dest as *const std::sync::atomic::AtomicU64 as *const u8)
            .unwrap();
        plant_pending_log(&a, 0, PmPtr::<u8>::new(b.id(), doff).raw(), block.raw(), 64);
        // Volatile-only link: never persisted, so it must not survive.
        dest.store(block.raw(), std::sync::atomic::Ordering::Relaxed);

        crash_all(&[a.clone(), b.clone()], false);

        assert_eq!(
            dest.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "unpersisted link must be lost"
        );
        let again = a.allocator().alloc(64).unwrap();
        assert_eq!(again, block, "orphaned block was reclaimed and reused");
        destroy_pool(a.id());
        destroy_pool(b.id());
    }

    /// Regression: log replay must tolerate a destination whose pool has
    /// been destroyed (dangling cross-pool `PmPtr`) instead of faulting.
    #[test]
    fn recover_logs_tolerates_dangling_dest_pool() {
        use crate::pptr::PmPtr;
        let a = PmemPool::create(PoolConfig::durable("t-ca-dang-a", 1 << 20)).unwrap();
        let b = PmemPool::create(PoolConfig::durable("t-ca-dang-b", 1 << 20)).unwrap();
        let block = a.allocator().alloc(64).unwrap();
        let dest = b.allocator().root(0);
        let doff = b
            .offset_of(dest as *const std::sync::atomic::AtomicU64 as *const u8)
            .unwrap();
        plant_pending_log(&a, 1, PmPtr::<u8>::new(b.id(), doff).raw(), block.raw(), 64);
        destroy_pool(b.id());

        a.simulate_crash(false);
        let reclaimed = a.allocator().recover_logs();
        assert_eq!(reclaimed, 1, "block behind a dangling destination is freed");
        destroy_pool(a.id());
    }

    #[test]
    fn crash_all_recovers_logs() {
        let p1 = PmemPool::create(PoolConfig::durable("t-ca-1", 1 << 20)).unwrap();
        let p2 = PmemPool::create(PoolConfig::durable("t-ca-2", 1 << 20)).unwrap();
        crash_all(&[p1.clone(), p2.clone()], false);
        assert_eq!(p1.crash_count(), 1);
        assert_eq!(p2.crash_count(), 1);
        destroy_pool(p1.id());
        destroy_pool(p2.id());
    }
}
