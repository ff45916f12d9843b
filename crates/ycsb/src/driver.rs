//! The multithreaded YCSB executor.
//!
//! Populates an index, then runs a workload from N threads (spread
//! round-robin across logical NUMA nodes, like the paper's `numactl -i`),
//! sampling 10% of operation latencies (paper §6.4) and reporting
//! throughput, percentile latencies, and NVM media traffic deltas.
//!
//! When the NVM model runs time-dilated (see
//! `pmem::model::NvmModelConfig::optane_dilated`), throughput and latencies
//! are corrected back to model time by the dilation factor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    /// Fraction of operations whose latency is sampled (paper: 0.1).
    pub sample_rate: f64,
    /// Spread worker threads over logical NUMA nodes.
    pub numa_spread: bool,
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
            sample_rate: 0.1,
            numa_spread: true,
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
    /// Sampled latency percentiles in microseconds (model time):
    /// (label, value).
    pub latency_us: Vec<(&'static str, f64)>,
    /// Media counter deltas over the run.
    pub stats: StatsSnapshot,
    /// Per-operation latency histogram deltas over the run (from the
    /// index's always-on obsv recorder), when the index records them.
    /// Unlike `latency_us` (10% sampling of whole driver iterations),
    /// these come from every operation, measured inside the index.
    pub hist: Option<obsv::OpSetSnapshot>,
}

impl Report {
    /// Latency at a labelled percentile, if sampled.
    pub fn latency(&self, label: &str) -> Option<f64> {
        self.latency_us
            .iter()
            .find(|(l, _)| *l == label)
            .map(|&(_, v)| v)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<9} {:<4} t={:<3} {:>8.3} Mops/s  p50={:>7.1}us p99={:>8.1}us p99.99={:>9.1}us  [{}]",
            self.index,
            self.mix,
            self.threads,
            self.mops,
            self.latency("p50").unwrap_or(f64::NAN),
            self.latency("p99").unwrap_or(f64::NAN),
            self.latency("p99.99").unwrap_or(f64::NAN),
            self.stats,
        )
    }
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
                let mut i = t as u64;
                while i < n {
                    index.insert(&space.encode(i), i + 1);
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
    let before = stats::global().snapshot();
    let hist_before = index.op_histograms().map(|h| h.snapshot());
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    let mut all_samples: Vec<Vec<u64>> = Vec::new();

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let index = index.clone();
            let workload = workload.clone();
            let completed = &completed;
            handles.push(s.spawn(move || {
                if cfg.numa_spread && threads > 1 {
                    pmem::numa::pin_thread_round_robin();
                }
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9E37));
                // Fresh insert ids: disjoint per-thread ranges above the
                // populated space.
                let mut next_insert =
                    workload.populated + t as u64 * (u64::MAX / 2 / threads as u64);
                let sample_every = if cfg.sample_rate > 0.0 {
                    (1.0 / cfg.sample_rate) as u64
                } else {
                    u64::MAX
                };
                let mut samples =
                    Vec::with_capacity((ops_per_thread / sample_every.max(1) + 1) as usize);
                for i in 0..ops_per_thread {
                    let op = workload.next_op(&mut rng, &mut || {
                        next_insert += 1;
                        next_insert
                    });
                    let sampled = i % sample_every == 0;
                    let t0 = sampled.then(Instant::now);
                    match op {
                        Op::Read(id) => {
                            std::hint::black_box(index.lookup(&space.encode(id)));
                        }
                        Op::Insert(id) => index.insert(&space.encode(id), id),
                        Op::Update(id) => index.update(&space.encode(id), rng.gen()),
                        Op::Scan(id, len) => {
                            std::hint::black_box(index.scan(&space.encode(id), len));
                        }
                    }
                    if let Some(t0) = t0 {
                        samples.push(t0.elapsed().as_nanos() as u64);
                    }
                }
                completed.fetch_add(ops_per_thread, Ordering::Relaxed);
                samples
            }));
        }
        for h in handles {
            all_samples.push(h.join().expect("worker panicked"));
        }
    });

    let wall = start.elapsed().as_secs_f64();
    let seconds = wall / cfg.dilation.max(1.0);
    let total_ops = completed.load(Ordering::Relaxed);
    let mut samples: Vec<u64> = all_samples.into_iter().flatten().collect();
    samples.sort_unstable();
    let pct = |p: f64| -> f64 {
        if samples.is_empty() {
            return f64::NAN;
        }
        let idx = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len()) - 1;
        samples[idx] as f64 / 1000.0 / cfg.dilation.max(1.0)
    };
    let latency_us = vec![
        ("p50", pct(0.50)),
        ("p90", pct(0.90)),
        ("p99", pct(0.99)),
        ("p99.9", pct(0.999)),
        ("p99.99", pct(0.9999)),
    ];

    Report {
        index: index.name(),
        mix: workload.mix.short_name(),
        threads,
        ops: total_ops,
        seconds,
        mops: total_ops as f64 / seconds / 1e6,
        latency_us,
        stats: stats::global().snapshot().since(&before),
        hist: hist_before.map(|b| {
            index
                .op_histograms()
                .expect("histograms present before the run")
                .snapshot()
                .since(&b)
        }),
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
            assert!(r.latency("p50").unwrap() >= 0.0);
            let hist = r.hist.as_ref().expect("pactree records op histograms");
            assert_eq!(hist.total_count(), 2000, "{mix:?} histogram delta");
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
