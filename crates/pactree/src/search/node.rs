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

use pmem::epoch::{Guard, Pinned};
use pmem::handle::{Cast, Family};
use pmem::pptr::PmPtr;
use pmem::Ref;

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
    #[inline]
    pub fn key(&self) -> &[u8] {
        let base = (self as *const ArtLeaf).wrapping_add(1).cast::<u8>();
        // SAFETY: an `ArtLeaf` is only ever borrowed from a leaf allocation
        // of `alloc_size(key_len)` bytes (it has a private field, so no other
        // can be made), whose key bytes follow the struct and never change.
        unsafe { std::slice::from_raw_parts(base, self.key_len as usize) }
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

/// A typed view of a node.
#[derive(Clone, Copy)]
pub enum NodeRef<'a> {
    Leaf(&'a ArtLeaf),
    N4(&'a Node4),
    N16(&'a Node16),
    N48(&'a Node48),
    N256(&'a Node256),
}

/// What every ART node starts with: its meta word, whose tag names the
/// node's layout.
#[repr(C)]
pub(crate) struct ArtNode {
    meta: AtomicU64,
}

// SAFETY: every layout is `#[repr(C)]`, starts with its meta word and is
// made of integers and atomics. The tag is written before the node is
// linked and never changes while it is allocated, and `view` casts to the
// layout it names. A link holds 0 or a node initialized and persisted
// before it was stored there, and a node is freed through the tree's
// collector two epochs after it is unlinked; a replaced node keeps its
// write lock until freed, so its links freeze with it. A leaf's key bytes
// follow it, so no span bounds every view: checked loads are refused.
unsafe impl Family for ArtNode {
    type View<'g> = NodeRef<'g>;
    const SPAN: usize = usize::MAX;

    #[inline]
    fn view(node: Cast<'_, ArtNode>) -> NodeRef<'_> {
        match unpack_meta(node.head().meta.load(Ordering::Acquire)).0 {
            NodeType::Leaf => NodeRef::Leaf(node.to()),
            NodeType::Node4 => NodeRef::N4(node.to()),
            NodeType::Node16 => NodeRef::N16(node.to()),
            NodeType::Node48 => NodeRef::N48(node.to()),
            NodeType::Node256 => NodeRef::N256(node.to()),
        }
    }
}

/// An ART node reached through a link — a child slot, an end-child cell or
/// the root cell — while an epoch guard is pinned. Every reference it hands
/// out lives for `'g`; it keeps the pin's proof, so the node's own links
/// load under the same pin, and the raw pointer rides along for relinking
/// and retiring.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ArtRef<'g> {
    node: Ref<'g, ArtNode>,
    pin: Pinned<'g>,
}

// Descents copy handles by value: one word, like the raw pointer.
const _: () = assert!(std::mem::size_of::<ArtRef<'_>>() == 8);

impl<'g> ArtRef<'g> {
    /// Loads the node `link` points to; `None` for an empty link.
    #[inline]
    pub(crate) fn load(link: &AtomicU64, guard: &'g Guard<'_>) -> Option<ArtRef<'g>> {
        let pin = guard.into();
        Some(ArtRef {
            node: Ref::load(link, pin)?,
            pin,
        })
    }

    /// Loads a link of a node reached under the same pin.
    #[inline]
    pub(super) fn follow(self, link: &AtomicU64) -> Option<ArtRef<'g>> {
        Some(ArtRef {
            node: Ref::load(link, self.pin)?,
            ..self
        })
    }

    /// Charges a visit of the node's first `bytes` to the NVM model.
    #[inline]
    pub(super) fn charge_read(self, bytes: usize) {
        self.node.charge_read(bytes);
    }

    /// The raw persistent pointer.
    #[inline]
    pub(crate) fn raw(self) -> u64 {
        self.node.raw()
    }

    /// The node's typed view, by its meta tag.
    #[inline]
    pub(crate) fn classify(self) -> NodeRef<'g> {
        self.node.view()
    }

    /// Whether the node is a leaf.
    #[inline]
    pub(crate) fn is_leaf(self) -> bool {
        matches!(self.classify(), NodeRef::Leaf(_))
    }

    /// The header of an inner node.
    ///
    /// # Panics
    ///
    /// Panics on a leaf.
    #[inline]
    pub(crate) fn header(self) -> &'g NodeHeader {
        match self.classify() {
            NodeRef::N4(n) => &n.header,
            NodeRef::N16(n) => &n.header,
            NodeRef::N48(n) => &n.header,
            NodeRef::N256(n) => &n.header,
            NodeRef::Leaf(_) => panic!("a leaf has no header"),
        }
    }

    /// The node as a leaf.
    ///
    /// # Panics
    ///
    /// Panics on an inner node.
    #[inline]
    pub(crate) fn leaf(self) -> &'g ArtLeaf {
        match self.classify() {
            NodeRef::Leaf(leaf) => leaf,
            _ => panic!("an inner node is not a leaf"),
        }
    }

    /// Starts fetching the node's first line.
    #[inline]
    pub(crate) fn prefetch(self) {
        crate::simd::prefetch_read(PmPtr::<u8>::from_raw(self.raw()).as_ptr());
    }

    /// Allocation size of the node, from its tag.
    pub(crate) fn alloc_size(self) -> usize {
        match self.classify() {
            NodeRef::Leaf(l) => ArtLeaf::alloc_size(l.key_len as usize),
            NodeRef::N4(_) => inner_alloc_size(NodeType::Node4),
            NodeRef::N16(_) => inner_alloc_size(NodeType::Node16),
            NodeRef::N48(_) => inner_alloc_size(NodeType::Node48),
            NodeRef::N256(_) => inner_alloc_size(NodeType::Node256),
        }
    }
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
        // Every node type, and the data node at every width, wastes less
        // than an XPLine of the allocator class it lands in.
        let inner = [
            NodeType::Node4,
            NodeType::Node16,
            NodeType::Node48,
            NodeType::Node256,
        ]
        .map(inner_alloc_size);
        let data = (1..=crate::data::MAX_KEY_WORDS).map(crate::data::node_size);
        for size in inner.into_iter().chain(data) {
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
