//! Compact persistent pointers (PACTree §5.8).
//!
//! A [`PmPtr`] packs a 16-bit pool id and a 48-bit pool offset into one
//! 8-byte word, so it can be stored in NVM, updated with a single atomic
//! store, and resolved to a raw address after remounting pools at different
//! virtual addresses.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pool::{self, PoolId};

const OFFSET_BITS: u32 = 48;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// A position-independent pointer into a registered pool.
///
/// The all-zero representation is the null pointer (pool 0 never hands out
/// offset 0 — it is occupied by the pool header).
pub struct PmPtr<T> {
    raw: u64,
    _marker: PhantomData<*mut T>,
}

impl<T> Clone for PmPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PmPtr<T> {}

impl<T> PartialEq for PmPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for PmPtr<T> {}

impl<T> std::hash::Hash for PmPtr<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl<T> std::fmt::Debug for PmPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_null() {
            write!(f, "PmPtr(null)")
        } else {
            write!(
                f,
                "PmPtr(pool={}, off={:#x})",
                self.pool_id(),
                self.offset()
            )
        }
    }
}

// SAFETY: A `PmPtr` is just a pool id + offset; it confers no access by
// itself (all dereferences are `unsafe` or go through typed wrappers), so
// sending/sharing it across threads is sound.
unsafe impl<T> Send for PmPtr<T> {}
// SAFETY: See above.
unsafe impl<T> Sync for PmPtr<T> {}

impl<T> PmPtr<T> {
    /// The null persistent pointer.
    pub const NULL: PmPtr<T> = PmPtr {
        raw: 0,
        _marker: PhantomData,
    };

    /// Builds a pointer from a pool id and byte offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit in 48 bits.
    #[inline]
    pub fn new(pool: PoolId, offset: u64) -> Self {
        assert!(offset <= OFFSET_MASK, "offset exceeds 48 bits");
        PmPtr {
            raw: ((pool as u64) << OFFSET_BITS) | offset,
            _marker: PhantomData,
        }
    }

    /// Reconstructs a pointer from its raw 8-byte representation.
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        PmPtr {
            raw,
            _marker: PhantomData,
        }
    }

    /// The raw 8-byte representation (what gets stored in NVM).
    #[inline]
    pub fn raw(self) -> u64 {
        self.raw
    }

    /// Whether this is the null pointer.
    #[inline]
    pub fn is_null(self) -> bool {
        self.raw == 0
    }

    /// The pool id component.
    #[inline]
    pub fn pool_id(self) -> PoolId {
        (self.raw >> OFFSET_BITS) as PoolId
    }

    /// The offset component.
    #[inline]
    pub fn offset(self) -> u64 {
        self.raw & OFFSET_MASK
    }

    /// Resolves to a raw mutable pointer via the global base-address table.
    ///
    /// Returns a dangling-but-null pointer for [`PmPtr::NULL`]; callers must
    /// check [`is_null`](Self::is_null) first.
    #[inline]
    pub fn as_mut_ptr(self) -> *mut T {
        if self.is_null() {
            return std::ptr::null_mut();
        }
        let base = pool::base_of(self.pool_id());
        debug_assert!(!base.is_null(), "dangling PmPtr into unregistered pool");
        // SAFETY: offset was produced by the pool's allocator, hence in
        // bounds of the registered region.
        unsafe { base.add(self.offset() as usize) as *mut T }
    }

    /// Resolves to a raw const pointer.
    #[inline]
    pub fn as_ptr(self) -> *const T {
        self.as_mut_ptr() as *const T
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointee must be a live, initialized `T` inside a registered pool,
    /// and the caller must uphold Rust aliasing rules for the returned
    /// reference's lifetime.
    #[inline]
    pub unsafe fn deref<'a>(self) -> &'a T {
        debug_assert!(!self.is_null());
        // SAFETY: Guaranteed by the caller.
        unsafe { &*self.as_ptr() }
    }

    /// Mutably dereferences the pointer.
    ///
    /// # Safety
    ///
    /// Same as [`deref`](Self::deref), plus exclusivity of the returned
    /// reference.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn deref_mut<'a>(self) -> &'a mut T {
        debug_assert!(!self.is_null());
        // SAFETY: Guaranteed by the caller.
        unsafe { &mut *self.as_mut_ptr() }
    }

    /// Reinterprets the pointee type.
    #[inline]
    pub fn cast<U>(self) -> PmPtr<U> {
        PmPtr::from_raw(self.raw)
    }

    /// Byte-offset arithmetic within the same pool.
    ///
    /// # Panics
    ///
    /// Panics if the result leaves the 48-bit offset space.
    #[inline]
    pub fn byte_add(self, bytes: u64) -> PmPtr<T> {
        PmPtr::new(self.pool_id(), self.offset() + bytes)
    }
}

/// An 8-byte atomic cell holding a [`PmPtr`], suitable for placement in NVM.
///
/// Stores/loads are single atomic word operations, making an update a valid
/// linearization point in the paper's crash-consistency protocols.
#[repr(transparent)]
pub struct AtomicPmPtr<T> {
    cell: AtomicU64,
    _marker: PhantomData<*mut T>,
}

// SAFETY: Same reasoning as `PmPtr`; the atomic cell adds synchronization.
unsafe impl<T> Send for AtomicPmPtr<T> {}
// SAFETY: See above.
unsafe impl<T> Sync for AtomicPmPtr<T> {}

impl<T> AtomicPmPtr<T> {
    /// Creates a cell holding null.
    pub const fn null() -> Self {
        AtomicPmPtr {
            cell: AtomicU64::new(0),
            _marker: PhantomData,
        }
    }

    /// Creates a cell holding `ptr`.
    pub fn new(ptr: PmPtr<T>) -> Self {
        AtomicPmPtr {
            cell: AtomicU64::new(ptr.raw()),
            _marker: PhantomData,
        }
    }

    /// Atomically loads the pointer.
    #[inline]
    pub fn load(&self, order: Ordering) -> PmPtr<T> {
        PmPtr::from_raw(self.cell.load(order))
    }

    /// Atomically stores the pointer.
    #[inline]
    pub fn store(&self, ptr: PmPtr<T>, order: Ordering) {
        self.cell.store(ptr.raw(), order);
    }

    /// Atomic compare-exchange on the pointer value.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: PmPtr<T>,
        new: PmPtr<T>,
        success: Ordering,
        failure: Ordering,
    ) -> std::result::Result<PmPtr<T>, PmPtr<T>> {
        self.cell
            .compare_exchange(current.raw(), new.raw(), success, failure)
            .map(PmPtr::from_raw)
            .map_err(PmPtr::from_raw)
    }
}

impl<T> Default for AtomicPmPtr<T> {
    fn default() -> Self {
        Self::null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{destroy_pool, PmemPool, PoolConfig};

    #[test]
    fn pack_unpack_roundtrip() {
        let p = PmPtr::<u64>::new(42, 0x1234_5678_9ABC);
        assert_eq!(p.pool_id(), 42);
        assert_eq!(p.offset(), 0x1234_5678_9ABC);
        assert_eq!(PmPtr::<u64>::from_raw(p.raw()), p);
        assert!(!p.is_null());
        assert!(PmPtr::<u64>::NULL.is_null());
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn offset_overflow_panics() {
        let _ = PmPtr::<u8>::new(0, 1 << 48);
    }

    #[test]
    fn resolves_through_registry() {
        let pool = PmemPool::create(PoolConfig::volatile("t-pptr", 1 << 20)).unwrap();
        let pp = pool.allocator().alloc(8).unwrap().cast::<u64>();
        // SAFETY: freshly allocated, 8-byte aligned, in-bounds.
        unsafe { pp.as_mut_ptr().write(77) };
        // SAFETY: the word just written, inside the live pool.
        assert_eq!(unsafe { *pp.deref() }, 77);
        assert_eq!(pp.pool_id(), pool.id());
        destroy_pool(pool.id());
    }

    #[test]
    fn atomic_cell_cas() {
        let a = AtomicPmPtr::<u8>::null();
        let p = PmPtr::new(1, 64);
        assert!(a
            .compare_exchange(PmPtr::NULL, p, Ordering::AcqRel, Ordering::Acquire)
            .is_ok());
        assert_eq!(a.load(Ordering::Acquire), p);
        assert!(a
            .compare_exchange(PmPtr::NULL, p, Ordering::AcqRel, Ordering::Acquire)
            .is_err());
    }
}
