//! YCSB workload generation and driving (the paper's index-microbench
//! equivalent, §6 "Workload configuration").
//!
//! * [`zipfian`] — Gray et al. Zipfian generator plus a scrambled variant.
//! * [`keys`] — 8-byte integer keys and ~23-byte string keys
//!   (`user` + zero-padded scrambled id, like index-microbench).
//! * [`workload`] — the paper's mixes: Load A (insert-only), A (50/50
//!   read/update), B (95/5), C (read-only), E (95% scans of up to 100
//!   keys plus 5% inserts). As in the paper, *update* operations are
//!   replaced by inserts for indexes without native update support, and
//!   PACTree's own update path is exercised where available.
//! * [`index`] — the [`index::RangeIndex`] trait adapting every index in the
//!   workspace to the driver.
//! * [`driver`] — a multithreaded executor with per-operation latency
//!   sampling (10%, like the paper's §6.4) and percentile reporting.

pub mod driver;
pub mod index;
pub mod keys;
pub mod workload;
pub mod zipfian;

pub use driver::{run_workload, DriverConfig, Report};
pub use index::RangeIndex;
pub use keys::KeySpace;
pub use workload::{Distribution, HotPartition, Mix, Workload};
