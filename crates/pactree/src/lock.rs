//! Optimistic persistent version lock (paper §5.7).
//!
//! An 8-byte word composed of a 4-byte *generation id* and a 4-byte
//! *version number*. An odd version means write-locked. Readers never write
//! the word (GA2: reads must not consume NVM write bandwidth); they sample
//! the version before and after the optimistic read and retry on mismatch.
//!
//! The generation id makes recovery O(1): the process-wide
//! [`global_generation`] is bumped on every restart, which logically resets
//! every lock at once — a lock word whose generation differs from the global
//! one is treated as *free* and lazily reinitialized by the next thread that
//! touches it, so crashed lock holders can never wedge the index.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Process-wide generation id, bumped on every index (re)start.
static GLOBAL_GENERATION: AtomicU32 = AtomicU32::new(1);

/// Current global generation id.
#[inline]
pub fn global_generation() -> u32 {
    GLOBAL_GENERATION.load(Ordering::Acquire)
}

/// Bumps the global generation, logically resetting every persistent lock.
/// Returns the new generation. Called once per recovery (§5.9).
pub fn bump_global_generation() -> u32 {
    GLOBAL_GENERATION.fetch_add(1, Ordering::AcqRel) + 1
}

/// Test-only gate over the process-wide generation, which every test of
/// this binary shares: a bump voids every held lock (that is its job), so a
/// lock held by a *concurrently running* test then fails to unlock. Tests
/// that bump take [`bumping`](generation_gate::bumping); tests that keep
/// locks busy for long (writer threads, thousands of inserts) take
/// [`lock_holding`](generation_gate::lock_holding).
#[cfg(test)]
pub(crate) mod generation_gate {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    static GATE: RwLock<()> = RwLock::new(());

    pub(crate) fn bumping() -> RwLockWriteGuard<'static, ()> {
        GATE.write().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_holding() -> RwLockReadGuard<'static, ()> {
        GATE.read().unwrap_or_else(|e| e.into_inner())
    }
}

#[inline]
fn pack(generation: u32, version: u32) -> u64 {
    ((generation as u64) << 32) | version as u64
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// The result of a successful optimistic read begin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadToken {
    version: u32,
}

impl ReadToken {
    /// The version observed at read begin (used to tag derived caches such
    /// as the data-node permutation array, §5.4).
    #[inline]
    pub fn version_hint(&self) -> u32 {
        self.version
    }
}

/// An 8-byte optimistic persistent version lock, stored in NVM.
///
/// The lock word itself is *not* flushed on every transition: lock state
/// need not survive a crash (the generation bump invalidates it), which is
/// exactly why the paper pairs version locks with generation ids (GA4 —
/// don't persist what recovery can reconstruct).
#[repr(transparent)]
#[derive(Debug)]
pub struct VersionLock {
    word: AtomicU64,
}

impl Default for VersionLock {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionLock {
    /// A fresh, unlocked lock in the current generation.
    pub fn new() -> Self {
        VersionLock {
            word: AtomicU64::new(pack(global_generation(), 0)),
        }
    }

    /// Loads the word, lazily resetting it if its generation is stale.
    ///
    /// Returns the *current-generation* word value.
    #[inline]
    fn load_fresh(&self) -> u64 {
        let gen = global_generation();
        loop {
            let w = self.word.load(Ordering::Acquire);
            let (g, _) = unpack(w);
            if g == gen {
                return w;
            }
            // Stale generation: the previous holder died in a crash. Reset
            // to unlocked in the current generation (§5.7).
            let fresh = pack(gen, 0);
            match self
                .word
                .compare_exchange_weak(w, fresh, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return fresh,
                Err(_) => continue,
            }
        }
    }

    /// Begins an optimistic read; returns `None` while a writer holds the
    /// lock (caller should back off and retry).
    #[inline]
    pub fn read_begin(&self) -> Option<ReadToken> {
        let (_, v) = unpack(self.load_fresh());
        if v & 1 == 1 {
            return None;
        }
        Some(ReadToken { version: v })
    }

    /// Validates an optimistic read: true iff no writer intervened.
    #[inline]
    pub fn read_validate(&self, token: ReadToken) -> bool {
        std::sync::atomic::fence(Ordering::Acquire);
        let w = self.word.load(Ordering::Acquire);
        let (g, v) = unpack(w);
        g == global_generation() && v == token.version
    }

    /// Attempts to acquire the write lock; returns a guard token on success.
    #[inline]
    pub fn try_write_lock(&self) -> Option<WriteGuard<'_>> {
        let w = self.load_fresh();
        let (g, v) = unpack(w);
        if v & 1 == 1 {
            return None;
        }
        let locked = pack(g, v.wrapping_add(1));
        self.word
            .compare_exchange(w, locked, Ordering::AcqRel, Ordering::Acquire)
            .ok()
            .map(|_| WriteGuard { lock: self })
    }

    /// Spins until the write lock is acquired.
    #[inline]
    pub fn write_lock(&self) -> WriteGuard<'_> {
        let mut spins = 0u32;
        loop {
            if let Some(g) = self.try_write_lock() {
                return g;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Upgrades an optimistic read to a write lock, failing if any writer
    /// intervened since `token` was taken.
    #[inline]
    pub fn try_upgrade(&self, token: ReadToken) -> Option<WriteGuard<'_>> {
        let g = global_generation();
        let cur = pack(g, token.version);
        let locked = pack(g, token.version.wrapping_add(1));
        self.word
            .compare_exchange(cur, locked, Ordering::AcqRel, Ordering::Acquire)
            .ok()
            .map(|_| WriteGuard { lock: self })
    }

    /// Current version (for permutation-array version checks, §5.4).
    #[inline]
    pub fn version(&self) -> u32 {
        unpack(self.load_fresh()).1
    }

    /// Whether a writer currently holds the lock.
    #[inline]
    pub fn is_locked(&self) -> bool {
        unpack(self.load_fresh()).1 & 1 == 1
    }

    fn unlock(&self) {
        let w = self.word.load(Ordering::Relaxed);
        let (g, v) = unpack(w);
        debug_assert_eq!(v & 1, 1, "unlocking an unlocked lock");
        self.word
            .store(pack(g, v.wrapping_add(1)), Ordering::Release);
    }

    /// Releases a lock whose guard was intentionally leaked (split-created
    /// nodes start life locked, §5.6).
    ///
    /// # Panics
    ///
    /// Debug-panics if the lock is not currently held.
    pub fn force_unlock(&self) {
        self.unlock();
    }
}

/// RAII write guard; releases (version bump to even) on drop.
#[must_use = "dropping the guard releases the lock"]
pub struct WriteGuard<'a> {
    lock: &'a VersionLock,
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn optimistic_read_validates_when_quiet() {
        let l = VersionLock::new();
        let t = l.read_begin().unwrap();
        assert!(l.read_validate(t));
    }

    #[test]
    fn write_invalidates_concurrent_read() {
        let l = VersionLock::new();
        let t = l.read_begin().unwrap();
        {
            let _g = l.write_lock();
            assert!(!l.read_validate(t), "held lock invalidates");
        }
        assert!(!l.read_validate(t), "version moved on");
        let t2 = l.read_begin().unwrap();
        assert!(l.read_validate(t2));
    }

    #[test]
    fn read_blocked_while_locked() {
        let l = VersionLock::new();
        let _g = l.write_lock();
        assert!(l.read_begin().is_none());
        assert!(l.is_locked());
    }

    #[test]
    fn try_lock_fails_under_contention() {
        let l = VersionLock::new();
        let g = l.write_lock();
        assert!(l.try_write_lock().is_none());
        drop(g);
        assert!(l.try_write_lock().is_some());
    }

    #[test]
    fn upgrade_succeeds_only_without_intervening_writer() {
        let l = VersionLock::new();
        let t = l.read_begin().unwrap();
        let g = l.try_upgrade(t).expect("clean upgrade");
        drop(g);
        // Stale token now: a write happened.
        assert!(l.try_upgrade(t).is_none());
    }

    #[test]
    fn generation_bump_frees_stale_lock() {
        let _gate = generation_gate::bumping();
        let l = VersionLock::new();
        let g = l.write_lock();
        std::mem::forget(g); // simulate a crash with the lock held
        assert!(l.read_begin().is_none());
        bump_global_generation();
        // The stale lock resets lazily; readers and writers proceed.
        assert!(l.read_begin().is_some());
        let _w = l
            .try_write_lock()
            .expect("lock usable after generation bump");
    }

    #[test]
    fn writers_are_mutually_exclusive() {
        let l = Arc::new(VersionLock::new());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    let _g = l.write_lock();
                    // Non-atomic RMW protected by the lock.
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80_000);
    }
}
