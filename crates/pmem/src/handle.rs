//! Guard-scoped handles to persistent nodes (PACTree §5.6, §5.8).
//!
//! Every index links its nodes by [`PmPtr`] words stored in `AtomicU64`s.
//! [`Ref`] is the one safe way to turn such a word into a reference, and
//! [`Ref::get`] holds the one argument why the reference is valid; each node
//! type states what that argument needs once, in its `unsafe impl` of
//! [`Node`] (or of [`Family`], for types with several layouts). Implement
//! them only for types private to their crate: a load trusts its caller to
//! pass a link of `T`, and only code that can name `T` can call it.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::epoch::Pinned;
use crate::pool::{self, PmemPool};
use crate::pptr::PmPtr;

/// The bit a link word sets to name no node of an unmarked type, and to
/// name a node of a marked one (see [`Node::MARKED`]).
const MARK: u64 = 1;

/// Nodes freed through an epoch collector, two epochs after they were
/// unlinked: a reader loads them under a pin ([`Ref::load`]).
pub enum ByEpoch {}

/// Nodes never freed while their pool is registered: a reader loads them
/// under a borrow of the pool ([`Ref::load_in`]).
pub enum WithPool {}

/// A node type stored in a persistent pool and reached through links.
///
/// # Safety
///
/// Implementing `Node` promises that:
///
/// 1. every link this crate hands to [`Ref::load`] or [`Ref::load_in`] for
///    `Self` holds 0, a word that names no node (see
///    [`MARKED`](Self::MARKED)), or the word of a `Self` that was
///    initialized and persisted before the word was stored in the link;
/// 2. a `Self` is freed only as [`Freed`](Self::Freed) says. [`ByEpoch`]:
///    through the collector every pin passed to `Ref::load` for `Self`
///    belongs to, two epochs after it was unlinked; and a node unlinked
///    after a reader pinned keeps naming, in its links, only nodes that
///    were linked then. [`WithPool`]: never while the pool passed to
///    `Ref::load_in`, which the node lives in, is registered;
/// 3. any bit pattern of [`SPAN`](Self::SPAN) bytes is a valid `Self`, and
///    `Self` is at most `SPAN` bytes.
pub unsafe trait Node: Sized {
    /// [`ByEpoch`] or [`WithPool`].
    type Freed;

    /// Whether a link names a `Self` by its word with bit 0 set (a PMwCAS
    /// descriptor installed in a target word) and a plain value by any
    /// other word. Otherwise bit 0 set names no node.
    const MARKED: bool = false;

    /// Bytes a [`checked`](Ref::checked) load finds inside the pool.
    const SPAN: usize = std::mem::size_of::<Self>();
}

/// A family of node layouts that start with the same head, `Self`, whose
/// content names the layout a node has: an ART's leaves and inner nodes, a
/// BzTree's leaves and inner nodes. A family's nodes are freed by epoch, and
/// implementing `Family` makes the head a [`Node`].
///
/// # Safety
///
/// [`Node`]'s promises 1 and 2 hold for the family's nodes with
/// [`ByEpoch`]; every layout starts with `Self` at its address; every
/// layout at most [`SPAN`](Self::SPAN) bytes long is valid for any bit
/// pattern; and [`view`](Self::view) casts a node whose head names a layout
/// to that layout only. A head that names none is torn, which only a
/// checked load can see: its node may be cast to any layout of at most
/// `SPAN` bytes.
pub unsafe trait Family: Sized {
    /// A node as one of its layouts.
    type View<'g>
    where
        Self: 'g;

    /// Bytes a [`checked`](Ref::checked) load finds inside the pool: the
    /// largest layout, or `usize::MAX` to refuse checked loads.
    const SPAN: usize;

    /// Reads `node`'s head and casts it to the layout the head names.
    fn view(node: Cast<'_, Self>) -> Self::View<'_>;
}

// SAFETY: `Family`'s contract is `Node`'s for `ByEpoch` nodes, with `SPAN`
// covering every layout a view casts to.
unsafe impl<F: Family> Node for F {
    type Freed = ByEpoch;
    const SPAN: usize = F::SPAN;
}

/// A [`Family`] node while [`Family::view`] tells its layout; only a
/// [`Ref`] makes one.
pub struct Cast<'g, F> {
    node: &'g F,
}

impl<'g, F: Family> Cast<'g, F> {
    /// The node's head.
    #[inline]
    pub fn head(&self) -> &'g F {
        self.node
    }

    /// The node as layout `U`.
    #[inline]
    pub fn to<U>(self) -> &'g U {
        // SAFETY: `Family`'s contract: `view`, the only code handed a
        // `Cast`, names the layout the head names, which starts at the
        // head's address (or, for a torn head, one within the checked span).
        unsafe { &*(self.node as *const F).cast::<U>() }
    }
}

/// A persistent node loaded from a link, valid while its anchor lives: the
/// pin it was loaded under, or the pool.
///
/// The reference cannot outlive the pin:
///
/// ```compile_fail,E0597
/// use std::sync::atomic::AtomicU64;
/// use pmem::handle::{ByEpoch, Node, Ref};
///
/// struct Counter(AtomicU64);
/// // SAFETY: the link below is always 0.
/// unsafe impl Node for Counter {
///     type Freed = ByEpoch;
/// }
///
/// let collector = pmem::epoch::Collector::new();
/// let link = AtomicU64::new(0);
/// let counter: Option<&Counter> = {
///     let guard = collector.pin();
///     Ref::load(&link, &guard).map(Ref::get)
/// }; // `guard` dropped here while still borrowed
/// drop(counter);
/// ```
pub struct Ref<'g, T> {
    raw: u64,
    _anchor: PhantomData<&'g T>,
}

impl<T> Clone for Ref<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Ref<'_, T> {}

impl<T> PartialEq for Ref<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Ref<'_, T> {}

impl<T> std::hash::Hash for Ref<'_, T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl<'g, T: Node> Ref<'g, T> {
    /// Loads the node `link` names, under the pin `'g`; `None` when it
    /// names none.
    #[inline]
    pub fn load(link: &AtomicU64, _pin: impl Into<Pinned<'g>>) -> Option<Self>
    where
        T: Node<Freed = ByEpoch>,
    {
        Self::read(link)
    }

    /// Loads the node `link` names, for as long as `pool` is borrowed;
    /// `None` when it names none.
    #[inline]
    pub fn load_in(link: &AtomicU64, pool: &'g PmemPool) -> Option<Self>
    where
        T: Node<Freed = WithPool>,
    {
        let node = Self::read(link)?;
        debug_assert_eq!(PmPtr::<T>::from_raw(node.raw).pool_id(), pool.id());
        Some(node)
    }

    /// Accepts `raw`, a word read from a crash image or optimistically, if
    /// it could name a node of `pool`: non-null, in `pool`, aligned for `T`,
    /// with [`SPAN`](Node::SPAN) bytes inside the pool. What the node holds
    /// may be garbage, which any bit pattern of a `T` tolerates: the caller
    /// clamps counts and checks tags, and runs alone (recovery) or
    /// validates what it read.
    pub fn checked(raw: u64, pool: &'g PmemPool) -> Option<Self> {
        let p = PmPtr::<T>::from_raw(raw);
        let ok = !p.is_null()
            && p.pool_id() == pool.id()
            && p.offset().is_multiple_of(std::mem::align_of::<T>() as u64)
            && pool::resolve_checked(p.pool_id(), p.offset(), T::SPAN).is_some();
        let _anchor = PhantomData;
        ok.then_some(Ref { raw, _anchor })
    }

    #[inline]
    fn read(link: &AtomicU64) -> Option<Self> {
        let word = link.load(Ordering::Acquire);
        let raw = word & !MARK;
        let _anchor = PhantomData;
        (word & MARK == T::MARKED as u64 && raw != 0).then_some(Ref { raw, _anchor })
    }

    /// Charges a read of the node's first `bytes` to the NVM model.
    #[inline]
    pub fn charge_read(self, bytes: usize) {
        let p = PmPtr::<u8>::from_raw(self.raw);
        crate::model::on_read(p.pool_id(), p.offset(), bytes);
    }

    /// The node's raw persistent pointer (unmarked).
    #[inline]
    pub fn raw(self) -> u64 {
        self.raw
    }

    /// The node, for all of `'g`.
    #[inline]
    pub fn get(self) -> &'g T {
        // SAFETY: the workspace's one conversion of a persistent pointer
        // into a reference. A `Ref` is made only by `read`, from a link
        // that, by `T`'s `Node` contract, names a `T` initialized and
        // persisted before the word was stored there, while `'g` borrows
        // what keeps that node allocated: a pin taken before the load,
        // which the node's collector honours for two epochs after it is
        // unlinked (so a node still linked when the link was read, or
        // linked from a node unlinked after the pin, stays allocated), or
        // the pool it lives in, which never frees it. Or it is made by
        // `checked`, whose `SPAN` bytes lie inside the borrowed, registered
        // pool, where any bit pattern is a valid `T`.
        unsafe { &*PmPtr::<T>::from_raw(self.raw).as_ptr() }
    }
}

impl<'g, T: Family> Ref<'g, T> {
    /// The node as the layout its head names.
    #[inline]
    pub fn view(self) -> T::View<'g> {
        T::view(Cast { node: self.get() })
    }
}

impl<T: Node> std::ops::Deref for Ref<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        (*self).get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{destroy_pool, PoolConfig, MAX_POOLS};

    struct Block {
        _words: [AtomicU64; 4],
    }
    // SAFETY: a test type of atomics; only checked loads make it.
    unsafe impl Node for Block {
        type Freed = WithPool;
    }

    #[test]
    fn checked_accepts_only_words_that_fit_the_pool() {
        let pool = PmemPool::create(PoolConfig::volatile("t-handle", 1 << 20)).unwrap();
        let checked = |raw| Ref::<Block>::checked(raw, &pool).map(Ref::raw);
        let word = |id: u16, off: u64| PmPtr::<u8>::new(id, off).raw();
        let (id, size) = (pool.id(), pool.size() as u64);
        let valid = pool.allocator().alloc(32).unwrap().raw();
        assert_eq!(checked(valid), Some(valid), "a valid word comes back whole");
        assert_eq!(
            checked(word(id, size - 32)),
            Some(word(id, size - 32)),
            "ends at the end"
        );
        for (raw, what) in [
            (0, "null"),
            (word(id.wrapping_add(1), 64), "another pool's id"),
            (word(MAX_POOLS as u16 + 1, 64), "an id past MAX_POOLS"),
            (valid + 4, "a misaligned offset"),
            (word(id, size - 16), "a block straddling the pool's end"),
        ] {
            assert_eq!(checked(raw), None, "{what}");
        }
        destroy_pool(id);
        assert_eq!(checked(valid), None, "an unregistered pool");
    }
}
