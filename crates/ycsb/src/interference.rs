//! Scan/writer interference (the MVCC evaluation's scan-heavy scenario).
//!
//! YCSB-E measures a scan-heavy mix on its own; what it cannot show is what
//! long scans *cost the writers* sharing the tree. This harness runs writer
//! threads (insert/update mix) concurrently with scanner threads doing long
//! range scans, in three modes: no scanners at all (the baseline), live
//! scans against the shared tree, and snapshot scans (`scan_at` against an
//! O(1) snapshot captured per scan). The headline is writer throughput
//! retention: how much of the baseline the writers keep in each mode.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::index::RangeIndex;
use crate::keys::KeySpace;

/// What the scanner threads do while the writers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// No scanners: the writer-only baseline.
    None,
    /// Live range scans against the shared tree.
    Live,
    /// Capture a snapshot, `scan_at` it, release it — per scan.
    Snapshot,
}

impl ScanMode {
    /// Stable name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ScanMode::None => "baseline",
            ScanMode::Live => "live-scan",
            ScanMode::Snapshot => "snapshot-scan",
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct InterferenceConfig {
    /// Writer threads (each runs `ops_per_writer` operations).
    pub writers: usize,
    /// Scanner threads (each loops until the writers finish).
    pub scanners: usize,
    /// Keys per scan — long scans, not YCSB-E's 1..=100.
    pub scan_len: usize,
    /// Operations per writer thread (80% updates, 20% fresh inserts).
    pub ops_per_writer: u64,
    /// NVM-model time dilation (1.0 = none).
    pub dilation: f64,
    /// RNG seed.
    pub seed: u64,
}

/// One mode's measurement.
#[derive(Debug, Clone)]
pub struct InterferenceReport {
    pub mode: ScanMode,
    /// Writer operations completed.
    pub writer_ops: u64,
    /// Writer throughput in model-time Mops/s.
    pub writer_mops: f64,
    /// Scans completed across all scanner threads.
    pub scans: u64,
    /// Pairs those scans returned.
    pub scanned_pairs: u64,
    /// Model-time seconds the writers ran.
    pub seconds: f64,
}

/// Runs one mode: writers to completion, scanners until the writers stop.
/// The writers (and the clock) start only once every scanner has completed
/// its first scan, so the measured window always has scanners in it — on a
/// loaded or single-CPU box the writers could otherwise finish before a
/// scanner was ever scheduled.
///
/// `populated` is the pre-loaded key-id range scans and updates draw from.
/// In [`ScanMode::Snapshot`] the index must support snapshots (the harness
/// panics otherwise — a silent fallback to live scans would report a
/// retention number that measured the wrong thing).
pub fn run_interference(
    index: &(impl RangeIndex + Clone + 'static),
    space: KeySpace,
    populated: u64,
    mode: ScanMode,
    cfg: &InterferenceConfig,
) -> InterferenceReport {
    let writers = cfg.writers.max(1);
    let scanners = match mode {
        ScanMode::None => 0,
        _ => cfg.scanners.max(1),
    };
    if mode == ScanMode::Snapshot {
        // Checked here, not in a scanner: a scanner that panicked before
        // reaching the start barrier would leave everyone else parked at it.
        let snap = index
            .snapshot()
            .expect("snapshot-scan mode needs an MVCC index");
        index.release_snapshot(snap);
    }
    let stop = AtomicBool::new(false);
    let scans = AtomicU64::new(0);
    let scanned_pairs = AtomicU64::new(0);
    let writer_ops = AtomicU64::new(0);
    // Writers, scanners and the timing thread below.
    let ready = Barrier::new(writers + scanners + 1);
    let mut writer_seconds = 0.0;

    std::thread::scope(|s| {
        let mut writer_handles = Vec::new();
        for t in 0..writers {
            let index = index.clone();
            let (writer_ops, ready) = (&writer_ops, &ready);
            writer_handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9E37));
                let mut next_insert = populated + t as u64 * (u64::MAX / 2 / writers as u64);
                ready.wait();
                for _ in 0..cfg.ops_per_writer {
                    if rng.gen_range(0u32..10) < 8 {
                        let id = rng.gen_range(0..populated.max(1));
                        index.update(&space.encode(id), rng.gen());
                    } else {
                        next_insert += 1;
                        index.insert(&space.encode(next_insert), next_insert);
                    }
                }
                writer_ops.fetch_add(cfg.ops_per_writer, Ordering::Relaxed);
            }));
        }
        for t in 0..scanners {
            let index = index.clone();
            let (stop, scans, scanned_pairs) = (&stop, &scans, &scanned_pairs);
            let ready = &ready;
            s.spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(cfg.seed ^ 0x5CA4 ^ (t as u64).wrapping_mul(0x51F1));
                let mut scan_once = || {
                    let start_key = space.encode(rng.gen_range(0..populated.max(1)));
                    let n = match mode {
                        ScanMode::None => unreachable!("no scanners in baseline mode"),
                        ScanMode::Live => index.scan(&start_key, cfg.scan_len),
                        ScanMode::Snapshot => {
                            let snap = index.snapshot().expect("checked before spawning");
                            let n = index
                                .scan_at(snap, &start_key, cfg.scan_len)
                                .expect("snapshot vanished while held by its taker");
                            index.release_snapshot(snap);
                            n
                        }
                    };
                    scans.fetch_add(1, Ordering::Relaxed);
                    scanned_pairs.fetch_add(n as u64, Ordering::Relaxed);
                };
                scan_once();
                ready.wait();
                while !stop.load(Ordering::Relaxed) {
                    scan_once();
                }
            });
        }
        ready.wait();
        let start = Instant::now();
        for h in writer_handles {
            h.join().expect("writer panicked");
        }
        writer_seconds = start.elapsed().as_secs_f64() / cfg.dilation.max(1.0);
        stop.store(true, Ordering::Relaxed);
    });

    let writer_ops = writer_ops.load(Ordering::Relaxed);
    InterferenceReport {
        mode,
        writer_ops,
        writer_mops: writer_ops as f64 / writer_seconds / 1e6,
        scans: scans.load(Ordering::Relaxed),
        scanned_pairs: scanned_pairs.load(Ordering::Relaxed),
        seconds: writer_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pactree::{PacTree, PacTreeConfig};

    #[test]
    fn all_three_modes_make_progress() {
        let tree =
            PacTree::create(PacTreeConfig::named("ycsb-interference").with_pool_size(128 << 20))
                .unwrap();
        crate::driver::populate(&tree, KeySpace::Integer, 3000, 2);
        let cfg = InterferenceConfig {
            writers: 2,
            scanners: 1,
            scan_len: 200,
            ops_per_writer: 2000,
            dilation: 1.0,
            seed: 11,
        };
        for mode in [ScanMode::None, ScanMode::Live, ScanMode::Snapshot] {
            let r = run_interference(&tree, KeySpace::Integer, 3000, mode, &cfg);
            assert_eq!(r.writer_ops, 4000, "{}", mode.name());
            assert!(r.writer_mops > 0.0);
            if mode == ScanMode::None {
                assert_eq!(r.scans, 0);
            } else {
                assert!(r.scans > 0, "{} scanners idle", mode.name());
                assert!(r.scanned_pairs > 0);
            }
        }
        // Scanners released every snapshot they took.
        assert_eq!(tree.mvcc().live_snapshots(), 0);
        tree.destroy();
    }
}
