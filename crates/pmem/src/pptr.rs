//! Compact persistent pointers (PACTree §5.8).
//!
//! A [`PmPtr`] packs a 16-bit pool id and a 48-bit pool offset into one
//! 8-byte word, so it can be stored in NVM, updated with a single atomic
//! store, and resolved to a raw address after remounting pools at different
//! virtual addresses. A [`Ref`](crate::handle::Ref) loads one into a reference.

use std::marker::PhantomData;

use crate::pool::{self, PoolId};

const OFFSET_BITS: u32 = 48;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// A position-independent pointer into a registered pool.
///
/// The all-zero representation is the null pointer (pool 0 never hands out
/// offset 0 — it is occupied by the pool header).
///
/// It grants no access by itself, so it is `Send` and `Sync` whatever `T`
/// is: a reference to its pointee comes only from a [`Ref`](crate::handle::Ref).
pub struct PmPtr<T> {
    raw: u64,
    _marker: PhantomData<fn() -> T>,
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
        assert_eq!(unsafe { *pp.as_ptr() }, 77);
        assert_eq!(pp.pool_id(), pool.id());
        destroy_pool(pool.id());
    }
}
