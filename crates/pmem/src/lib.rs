//! Emulated persistent-memory (NVM) substrate for the PACTree reproduction.
//!
//! Real PACTree runs on Intel Optane DCPMM exposed through DAX `mmap`. This
//! crate provides the closest synthetic equivalent that exercises the same
//! code paths:
//!
//! * [`pool`] — persistent memory *pools*: large, stable-address regions that
//!   optionally keep a second "media" image so that a simulated crash can
//!   discard everything that was never explicitly persisted.
//! * [`pptr`] — compact persistent pointers (16-bit pool id + 48-bit offset),
//!   mirroring PACTree §5.8.
//! * [`handle`] — [`Ref`], the one safe way any index turns a persistent
//!   pointer loaded from a link into a reference, scoped by an epoch pin or
//!   by the pool.
//! * [`persist`] — `clwb`/`sfence` equivalents. In crash-simulation mode a
//!   flush copies the affected cache lines into the media image; in fast mode
//!   it only feeds the performance model.
//! * [`model`] — an Optane performance model: XPLine-granular media
//!   accounting with an XPBuffer write-combining simulation, per-NUMA
//!   bandwidth throttling, latency injection, and directory-vs-snoop cache
//!   coherence accounting.
//! * [`stats`] — PMWatch-equivalent media counters.
//! * [`alloc`] — a crash-consistent NVM allocator with *malloc-to* semantics
//!   and allocation logs for persistent-leak freedom (PACTree §5.1(3)).
//! * [`numa`] — a logical NUMA topology: threads carry a node id, pools
//!   belong to a node, and cross-node access is charged remote cost.
//! * [`epoch`] — epoch-based memory reclamation with the two-epoch rule that
//!   PACTree §5.6 relies on for safely freeing merged data nodes.
//! * [`crash`] — the crash-injection and remount harness used by recovery
//!   tests (PACTree §6.8).
//!
//! # Example
//!
//! ```
//! use pmem::pool::{PoolConfig, PmemPool};
//!
//! let pool = PmemPool::create(PoolConfig::volatile("example", 1 << 20)).unwrap();
//! let pptr = pool.allocator().alloc(64).unwrap();
//! let raw: *mut u8 = pptr.as_mut_ptr();
//! // SAFETY: `raw` points to 64 freshly allocated bytes inside the pool.
//! unsafe { raw.write_bytes(0xAB, 64) };
//! pmem::persist::persist(raw, 64);
//! pmem::persist::fence();
//! ```

pub mod alloc;
pub mod crash;
pub mod epoch;
pub mod handle;
pub mod model;
pub mod numa;
pub mod persist;
pub mod pool;
pub mod pptr;
pub mod stats;
pub mod trace;

pub use alloc::{AllocMode, PmemAllocator};
pub use handle::Ref;
pub use model::{CoherenceMode, NvmModelConfig};
pub use pool::{PmemPool, PoolConfig, PoolId};
pub use pptr::PmPtr;

/// Size of a CPU cache line in bytes; the unit of persistence in ADR mode.
pub const CACHE_LINE: usize = 64;

/// Size of an Optane XPLine in bytes; the media access granularity.
pub const XPLINE: usize = 256;

/// Errors produced by the persistent-memory substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmemError {
    /// The pool is out of space.
    OutOfMemory,
    /// A pool with the requested id or name already exists.
    PoolExists(String),
    /// The requested pool was not found in the registry.
    PoolNotFound(String),
    /// The pool registry is full (more than `MAX_POOLS` pools).
    TooManyPools,
    /// An allocation request was invalid (zero size or over the large-object limit).
    InvalidAllocation(usize),
    /// Recovery found a corrupted or impossible persistent state.
    Corruption(&'static str),
}

impl std::fmt::Display for PmemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmemError::OutOfMemory => write!(f, "persistent pool out of memory"),
            PmemError::PoolExists(name) => write!(f, "pool `{name}` already exists"),
            PmemError::PoolNotFound(name) => write!(f, "pool `{name}` not found"),
            PmemError::TooManyPools => write!(f, "pool registry is full"),
            PmemError::InvalidAllocation(sz) => write!(f, "invalid allocation size {sz}"),
            PmemError::Corruption(what) => write!(f, "persistent state corruption: {what}"),
        }
    }
}

impl std::error::Error for PmemError {}

/// Result alias for substrate operations.
pub type Result<T> = std::result::Result<T, PmemError>;
