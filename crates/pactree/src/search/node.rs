//! PDL-ART node layouts.
//!
//! The adaptive radix tree stores four inner-node arities (4, 16, 48, 256)
//! plus out-of-node leaves carrying the full key and an 8-byte value. All
//! nodes live in NVM and begin with a common [`NodeHeader`] whose `meta`
//! word (type, child count, prefix length) is an 8-byte atomic — updating it
//! is the linearization point for in-node structural changes (paper §5.1's
//! "stores modifying multiple cache lines" rule).
//!
//! Path compression is *pessimistic*: every inner node stores its complete
//! compressed prefix (up to [`PREFIX_CAP`] bytes; longer runs become chains
//! of single-child nodes). Prefix bytes are immutable after node creation —
//! operations that would change a prefix (split inside a prefix, splice
//! merges) copy the node instead, which keeps every reachable node
//! self-consistent at any crash point.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use pmem::pptr::PmPtr;

use crate::lock::VersionLock;

/// Maximum compressed-prefix bytes stored in one inner node.
pub const PREFIX_CAP: usize = 30;

/// Node kinds, stored in the `meta` word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeType {
    Leaf = 1,
    Node4 = 4,
    Node16 = 16,
    Node48 = 48,
    Node256 = 255,
}

impl NodeType {
    /// Decodes from the meta byte.
    ///
    /// # Panics
    ///
    /// Panics on an invalid tag (would indicate corruption).
    pub fn from_tag(tag: u8) -> NodeType {
        match tag {
            1 => NodeType::Leaf,
            4 => NodeType::Node4,
            16 => NodeType::Node16,
            48 => NodeType::Node48,
            255 => NodeType::Node256,
            other => panic!("corrupt ART node tag {other}"),
        }
    }

    /// Inner-node fan-out capacity (0 for leaves).
    pub fn capacity(self) -> usize {
        match self {
            NodeType::Leaf => 0,
            NodeType::Node4 => 4,
            NodeType::Node16 => 16,
            NodeType::Node48 => 48,
            NodeType::Node256 => 256,
        }
    }
}

/// Packs the atomic meta word: type, child count, prefix length.
#[inline]
pub fn pack_meta(ty: NodeType, count: u16, prefix_len: u8) -> u64 {
    ((ty as u64) << 32) | ((count as u64) << 8) | prefix_len as u64
}

/// Unpacks the meta word.
#[inline]
pub fn unpack_meta(meta: u64) -> (NodeType, u16, u8) {
    (
        NodeType::from_tag((meta >> 32) as u8),
        (meta >> 8) as u16,
        meta as u8,
    )
}

/// Common header of every inner node.
///
/// `end_child` points to the leaf whose key is fully consumed at this node
/// (the trie equivalent of a string terminator), so keys may be prefixes of
/// one another.
#[repr(C)]
pub struct NodeHeader {
    /// Atomic meta word: see [`pack_meta`]. Linearization point for in-node
    /// structural changes.
    pub meta: AtomicU64,
    /// Optimistic persistent version lock (§5.7).
    pub lock: VersionLock,
    /// Leaf for the key ending exactly at this node (null if none).
    pub end_child: AtomicU64,
    /// Compressed prefix bytes; immutable after creation.
    pub prefix: [u8; PREFIX_CAP],
    _pad: [u8; 2],
}

impl NodeHeader {
    /// Reads type, count and prefix length in one atomic load.
    #[inline]
    pub fn meta3(&self) -> (NodeType, u16, u8) {
        unpack_meta(self.meta.load(Ordering::Acquire))
    }

    /// The node's compressed prefix.
    #[inline]
    pub fn prefix_bytes(&self) -> &[u8] {
        let (_, _, plen) = self.meta3();
        &self.prefix[..plen as usize]
    }
}

/// A leaf: full key bytes plus an 8-byte value, allocated out of node
/// (exactly the PDL-ART trait the paper's GA3/GA5 analysis calls out).
#[repr(C)]
pub struct ArtLeaf {
    /// Meta word with `NodeType::Leaf`; count/prefix fields unused.
    pub meta: AtomicU64,
    /// The value; an atomic 8-byte store to it is the in-place update
    /// linearization point.
    pub value: AtomicU64,
    /// Key length in bytes.
    pub key_len: u32,
    _pad: u32,
    // key bytes follow inline (dynamically sized).
}

impl ArtLeaf {
    /// Bytes to allocate for a leaf holding `key_len` key bytes.
    pub fn alloc_size(key_len: usize) -> usize {
        std::mem::size_of::<ArtLeaf>() + key_len
    }

    /// The leaf's key bytes.
    ///
    /// # Safety
    ///
    /// `self` must be a fully initialized leaf inside a pool allocation of
    /// at least [`alloc_size`](Self::alloc_size)`(self.key_len)` bytes.
    #[inline]
    pub unsafe fn key(&self) -> &[u8] {
        let base = (self as *const ArtLeaf).add(1) as *const u8;
        // SAFETY: key bytes were written inline right after the struct.
        unsafe { std::slice::from_raw_parts(base, self.key_len as usize) }
    }

    /// Writes key bytes inline (used during initialization only).
    ///
    /// # Safety
    ///
    /// Same allocation requirement as [`key`](Self::key); the leaf must not
    /// be shared yet.
    pub unsafe fn write_key(&mut self, key: &[u8]) {
        self.key_len = key.len() as u32;
        let base = (self as *mut ArtLeaf).add(1) as *mut u8;
        // SAFETY: allocation is large enough by the caller's contract.
        unsafe { std::ptr::copy_nonoverlapping(key.as_ptr(), base, key.len()) };
    }
}

/// Inner node with up to 4 children: parallel unsorted key/child arrays.
#[repr(C)]
pub struct Node4 {
    pub header: NodeHeader,
    pub keys: [AtomicU8; 4],
    _pad: [u8; 4],
    pub children: [AtomicU64; 4],
}

/// Inner node with up to 16 children: parallel unsorted key/child arrays.
#[repr(C)]
pub struct Node16 {
    pub header: NodeHeader,
    pub keys: [AtomicU8; 16],
    pub children: [AtomicU64; 16],
}

/// Index byte marking "no child" in [`Node48::child_index`].
pub const N48_EMPTY: u8 = 0xFF;

/// Inner node with up to 48 children: a 256-entry index into a child array.
#[repr(C)]
pub struct Node48 {
    pub header: NodeHeader,
    pub child_index: [AtomicU8; 256],
    pub children: [AtomicU64; 48],
}

/// Inner node with direct 256-way dispatch.
#[repr(C)]
pub struct Node256 {
    pub header: NodeHeader,
    pub children: [AtomicU64; 256],
}

/// A typed view over an untyped node pointer.
pub enum NodeRef<'a> {
    Leaf(&'a ArtLeaf),
    N4(&'a Node4),
    N16(&'a Node16),
    N48(&'a Node48),
    N256(&'a Node256),
}

/// Classifies a raw node pointer by reading its meta tag.
///
/// # Safety
///
/// `raw` must be a non-null `PmPtr` to an initialized ART node.
#[inline]
pub unsafe fn classify<'a>(raw: u64) -> NodeRef<'a> {
    debug_assert_ne!(raw, 0);
    let p = PmPtr::<AtomicU64>::from_raw(raw);
    // SAFETY: every node starts with its atomic meta word.
    let meta = unsafe { p.deref() }.load(Ordering::Acquire);
    let (ty, _, _) = unpack_meta(meta);
    let base = p.as_ptr() as *const u8;
    // SAFETY: the tag identifies the layout; nodes are initialized before
    // they become reachable.
    unsafe {
        match ty {
            NodeType::Leaf => NodeRef::Leaf(&*(base as *const ArtLeaf)),
            NodeType::Node4 => NodeRef::N4(&*(base as *const Node4)),
            NodeType::Node16 => NodeRef::N16(&*(base as *const Node16)),
            NodeType::Node48 => NodeRef::N48(&*(base as *const Node48)),
            NodeType::Node256 => NodeRef::N256(&*(base as *const Node256)),
        }
    }
}

/// Returns the header of an inner node pointer.
///
/// # Safety
///
/// `raw` must point to an initialized *inner* node (not a leaf).
#[inline]
pub unsafe fn header_of<'a>(raw: u64) -> &'a NodeHeader {
    // SAFETY: all inner nodes start with a NodeHeader.
    unsafe { &*(PmPtr::<NodeHeader>::from_raw(raw).as_ptr()) }
}

/// Whether a raw node pointer refers to a leaf.
///
/// # Safety
///
/// `raw` must point to an initialized ART node.
#[inline]
pub unsafe fn is_leaf(raw: u64) -> bool {
    let p = PmPtr::<AtomicU64>::from_raw(raw);
    // SAFETY: meta word is the first field of every node kind.
    let meta = unsafe { p.deref() }.load(Ordering::Acquire);
    unpack_meta(meta).0 == NodeType::Leaf
}

/// Allocation size of each inner node type.
pub fn inner_alloc_size(ty: NodeType) -> usize {
    match ty {
        NodeType::Leaf => unreachable!("leaves are sized by key length"),
        NodeType::Node4 => std::mem::size_of::<Node4>(),
        NodeType::Node16 => std::mem::size_of::<Node16>(),
        NodeType::Node48 => std::mem::size_of::<Node48>(),
        NodeType::Node256 => std::mem::size_of::<Node256>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        for ty in [
            NodeType::Leaf,
            NodeType::Node4,
            NodeType::Node16,
            NodeType::Node48,
            NodeType::Node256,
        ] {
            let m = pack_meta(ty, 37, 21);
            assert_eq!(unpack_meta(m), (ty, 37, 21));
        }
    }

    #[test]
    fn layout_sizes_are_reasonable() {
        // Header: 8 (meta) + 8 (lock) + 8 (end_child) + 30 (prefix) + pad.
        assert_eq!(std::mem::size_of::<NodeHeader>() % 8, 0);
        assert_eq!(std::mem::align_of::<Node48>(), 8);
        // Every node type, and the data node, wastes less than an XPLine of
        // the allocator class it lands in.
        let inner = [
            NodeType::Node4,
            NodeType::Node16,
            NodeType::Node48,
            NodeType::Node256,
        ]
        .map(inner_alloc_size);
        for size in inner.into_iter().chain([crate::data::DATA_NODE_SIZE]) {
            let class = pmem::alloc::class_of(size).map(pmem::alloc::class_size);
            let class = class.expect("node types are class-sized");
            assert!(class - size < pmem::XPLINE, "{size} B lands in {class}");
        }
    }

    #[test]
    #[should_panic(expected = "corrupt")]
    fn bad_tag_panics() {
        let _ = NodeType::from_tag(99);
    }
}
