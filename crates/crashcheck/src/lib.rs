//! Trace-driven crash-state model checking for the workspace's persistent
//! indexes.
//!
//! The paper validates recovery by killing a process at ~100 random points
//! (§6.8). That samples crash states thinly: the dangerous states are
//! *specific subsets* of unflushed cache lines around a fence, and random
//! process kills rarely land on them. This crate enumerates those states
//! systematically from a **single traced execution**:
//!
//! 1. [`pmem::trace`] records every flushed cache line
//!    with its media pre-image, every fence, and allocator ops.
//! 2. [`enumerate`] rewinds the final media image backwards fence by
//!    fence; inside each window, any subset of flushed lines may have
//!    reached media, each at one of its point-in-time snapshots —
//!    exhaustive when the product is small, seeded sampling beyond.
//! 3. Every candidate image is loaded into the pools, the index's own
//!    recovery runs ([`IndexKind::recover`]), and [`oracle`]
//!    checks durable linearizability against the [`journal`] of
//!    acknowledged operations.
//! 4. Failing states are [`shrink`]-minimized and serialized to replay
//!    files that [`campaign::run_replay`] reproduces deterministically.
//!
//! [`campaign::run_campaign`] packages all of it into a seeded,
//! time-budgeted run with a one-line JSON summary.
//!
//! Indexes come from the workspace's roster ([`ycsb::IndexKind`]) in its
//! durable configuration, driven as [`ycsb::AnyIndex`] with big-endian
//! `u64` keys, so integer order and byte order agree.

pub mod campaign;
pub mod enumerate;
pub mod journal;
pub mod oracle;
pub mod shrink;
pub mod workload;

pub use campaign::{run_campaign, run_replay, CampaignOpts, CampaignSummary};
pub use shrink::Replay;
pub use workload::WorkloadSpec;
pub use ycsb::IndexKind;
