//! The multithreaded YCSB executor.
//!
//! Populates an index, then runs a workload from N threads (spread
//! round-robin across logical NUMA nodes, like the paper's `numactl -i`),
//! reporting throughput, NVM media traffic deltas, and per-op latency
//! histograms. The driver is the one place an index call is timed: each
//! run owns one [`obsv::OpHistograms`] and wraps every call it makes in an
//! [`obsv::OpTimer`], so latencies are sampled 1 in 2^[`obsv::sample_shift`]
//! like the rest of the workspace.
//!
//! When the NVM model runs time-dilated (see
//! `pmem::model::NvmModelConfig::optane_dilated`), throughput is corrected
//! back to model time by the dilation factor.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use obsv::{OpHistograms, OpKind, OpTimer};
use pmem::stats::{self, StatsSnapshot};

use crate::index::RangeIndex;
use crate::keys::KeySpace;
use crate::workload::{Op, Workload};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Worker threads.
    pub threads: usize,
    /// Total operations across all threads.
    pub ops: u64,
    /// Time-dilation factor of the active NVM model (1.0 = none); measured
    /// wall-clock times are divided by this for reporting.
    pub dilation: f64,
    /// RNG seed (per-thread seeds derive from it).
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            threads: 1,
            ops: 100_000,
            dilation: 1.0,
            seed: 42,
        }
    }
}

/// Result of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    pub index: &'static str,
    pub mix: &'static str,
    pub threads: usize,
    pub ops: u64,
    /// Model-time seconds (wall time / dilation).
    pub seconds: f64,
    /// Million operations per second (model time).
    pub mops: f64,
    /// Media counter deltas over the run.
    pub stats: StatsSnapshot,
    /// Per-operation latencies of the run, as the driver timed them.
    pub hist: obsv::OpSetSnapshot,
}

/// Loads `n` keys (ids `0..n`) into the index from `threads` workers.
pub fn populate(
    index: &(impl RangeIndex + Clone + 'static),
    space: KeySpace,
    n: u64,
    threads: usize,
) {
    let threads = threads.max(1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let index = index.clone();
            s.spawn(move || {
                if threads > 1 {
                    pmem::numa::pin_thread_round_robin();
                }
                let name = index.name();
                let mut i = t as u64;
                while i < n {
                    index.insert(&space.encode(i), i + 1).expect(name);
                    i += threads as u64;
                }
            });
        }
    });
}

/// Runs `workload` against `index` and reports.
pub fn run_workload(
    index: &(impl RangeIndex + Clone + 'static),
    workload: &Workload,
    space: KeySpace,
    cfg: &DriverConfig,
) -> Report {
    assert!(
        space.is_integer() || index.supports_strings(),
        "{} does not support string keys",
        index.name()
    );
    let threads = cfg.threads.max(1);
    let ops_per_thread = cfg.ops / threads as u64;
    let hist = OpHistograms::new();
    let before = stats::global().snapshot();
    let start = Instant::now();

    std::thread::scope(|s| {
        for t in 0..threads {
            let index = index.clone();
            let workload = workload.clone();
            let hist = &hist;
            s.spawn(move || {
                if threads > 1 {
                    pmem::numa::pin_thread_round_robin();
                }
                let name = index.name();
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9E37));
                // Fresh insert ids: disjoint per-thread ranges above the
                // populated space.
                let mut next_insert =
                    workload.populated + t as u64 * (u64::MAX / 2 / threads as u64);
                for _ in 0..ops_per_thread {
                    let op = workload.next_op(&mut rng, &mut || {
                        next_insert += 1;
                        next_insert
                    });
                    let (Op::Read(id) | Op::Insert(id) | Op::Update(id) | Op::Scan(id, _)) = op;
                    let key = space.encode(id);
                    let value = if matches!(op, Op::Update(_)) {
                        rng.gen()
                    } else {
                        id
                    };
                    let timer = OpTimer::start();
                    let kind = match op {
                        Op::Read(_) => {
                            std::hint::black_box(index.lookup(&key));
                            OpKind::Lookup
                        }
                        Op::Insert(_) => {
                            index.insert(&key, value).expect(name);
                            OpKind::Insert
                        }
                        Op::Update(_) => {
                            index.update(&key, value).expect(name);
                            OpKind::Update
                        }
                        Op::Scan(_, len) => {
                            std::hint::black_box(index.scan(&key, len));
                            OpKind::Scan
                        }
                    };
                    hist.finish(kind, timer);
                }
            });
        }
    });

    let wall = start.elapsed().as_secs_f64();
    let seconds = wall / cfg.dilation.max(1.0);
    let total_ops = ops_per_thread * threads as u64;

    Report {
        index: index.name(),
        mix: workload.mix.short_name(),
        threads,
        ops: total_ops,
        seconds,
        mops: total_ops as f64 / seconds / 1e6,
        stats: stats::global().snapshot().since(&before),
        hist: hist.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Mix;
    use pactree::{PacTree, PacTreeConfig};

    #[test]
    fn populate_and_run_all_mixes() {
        let tree =
            PacTree::create(PacTreeConfig::named("ycsb-driver-test").with_pool_size(64 << 20))
                .unwrap();
        populate(&tree, KeySpace::Integer, 5000, 2);
        assert_eq!(tree.count_pairs(), 5000);
        for mix in Mix::all() {
            let w = Workload::zipfian(mix, 5000);
            let cfg = DriverConfig {
                threads: 2,
                ops: 2000,
                ..Default::default()
            };
            let r = run_workload(&tree, &w, KeySpace::Integer, &cfg);
            assert_eq!(r.ops, 2000);
            assert!(r.mops > 0.0, "{mix:?} made progress");
            assert_eq!(r.hist.total_count(), 2000, "{mix:?} histogram");
        }
        tree.destroy();
    }

    #[test]
    fn string_keys_rejected_for_fptree() {
        let t = baselines::fptree::FpTree::create("ycsb-fp-guard", 32 << 20, false).unwrap();
        let w = Workload::uniform(Mix::C, 10);
        let cfg = DriverConfig::default();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_workload(&t, &w, KeySpace::String, &cfg)
        }));
        assert!(res.is_err(), "string keys must be rejected");
        t.destroy();
    }

    #[test]
    fn lookups_find_populated_values() {
        let tree =
            PacTree::create(PacTreeConfig::named("ycsb-driver-vals").with_pool_size(64 << 20))
                .unwrap();
        populate(&tree, KeySpace::String, 1000, 1);
        for i in 0..1000u64 {
            assert_eq!(tree.lookup(&KeySpace::String.encode(i)), Some(i + 1));
        }
        tree.destroy();
    }
}
