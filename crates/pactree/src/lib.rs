//! PACTree: a high-performance persistent range index following the PAC
//! (Packed, Asynchronous Concurrency) guidelines — a Rust reproduction of
//! the SOSP 2021 paper.
//!
//! PACTree is a hybrid persistent index:
//!
//! * the **search layer** ([`search`]) is PDL-ART, a persistent
//!   durable-linearizable adaptive radix tree that packs partial keys into
//!   internal nodes (GA1: lookups consume minimal NVM bandwidth);
//! * the **data layer** ([`data`]) is a doubly linked list of B+-tree-style
//!   slotted *data nodes* holding 64 key-value pairs each, with fingerprint
//!   and permutation arrays (GA3: writes amortize NVM allocation; GA5: scans
//!   are sequential and prefetch-friendly);
//! * the two layers are **decoupled**: structural modifications log their
//!   effect to the SMO log ([`smo`]) and a background updater thread
//!   ([`updater`]) replays them into the search layer asynchronously (GC2:
//!   SMOs never block the critical path). Lookups tolerate the resulting
//!   *ephemeral inconsistency* by range-checking anchors and walking the
//!   data-layer list.
//!
//! The top-level handle is [`PacTree`].
//!
//! # Example
//!
//! ```
//! use pactree::{PacTree, PacTreeConfig};
//!
//! let tree = PacTree::create(PacTreeConfig::named("doc-example")).unwrap();
//! tree.insert(&42u64.to_be_bytes(), 420).unwrap();
//! assert_eq!(tree.lookup(&42u64.to_be_bytes()), Some(420));
//! let scanned = tree.scan(&0u64.to_be_bytes(), 10);
//! assert_eq!(scanned.len(), 1);
//! ```

pub mod data;
pub mod key;
pub mod lock;
pub mod mvcc;
pub mod search;
pub mod simd;
pub mod smo;
pub mod stats;
pub mod tree;
pub mod updater;

pub use key::Key;

pub use tree::{PacTree, PacTreeConfig};
