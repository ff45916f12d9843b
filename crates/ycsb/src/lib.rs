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
//!   workspace to the driver, and the roster of the five indexes
//!   ([`IndexKind`], [`AnyIndex`]) that creates and recovers them.
//! * [`driver`] — a multithreaded executor that times every index call it
//!   makes (1 in 2^[`obsv::sample_shift`], every call for Fig 13) and
//!   reports per-op latency histograms.

pub mod driver;
pub mod index;
pub mod keys;
pub mod workload;
pub mod zipfian;

pub use driver::{run_workload, DriverConfig, Report};
pub use index::{AnyIndex, IndexKind, RangeIndex};
pub use keys::KeySpace;
pub use workload::{Distribution, HotPartition, Mix, Workload};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_index_roundtrip_every_kind() {
        for kind in IndexKind::all() {
            assert_eq!(IndexKind::parse(kind.slug()), Some(kind));
            let name = format!("ycsb-any-{}", kind.slug());
            let idx = kind
                .create(&name, 32 << 20, KeySpace::Integer, false)
                .expect("create");
            assert_eq!(idx.name(), kind.name());
            let k = 77u64.to_be_bytes();
            assert_eq!(idx.insert(&k, 1).expect("insert"), None);
            assert_eq!(idx.lookup(&k), Some(1), "{}", kind.name());
            assert_eq!(idx.update(&k, 2).expect("update"), Some(1));
            assert_eq!(idx.lookup(&k), Some(2));
            assert_eq!(RangeIndex::scan(&idx, &k, 10), 1);
            assert_eq!(idx.scan_pairs(&k, 10), vec![(k.to_vec(), 2)]);
            assert_eq!(idx.remove(&k).expect("remove"), Some(2));
            assert_eq!(idx.remove(&k).expect("remove again"), None);
            assert_eq!(idx.lookup(&k), None);
            idx.destroy();
        }
    }
}
