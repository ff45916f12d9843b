//! Crash-injection recovery tests (paper §6.8).
//!
//! The paper injects 100 SIGKILLs and verifies every previously written key
//! survives. We simulate power failures at the persistence layer instead
//! (see `pmem::crash`): crash all pools (discarding everything never
//! persisted), remount, run PACTree recovery, and check the durable
//! linearizability contract — every *completed* operation survives; the
//! index is fully consistent and writable.

use std::sync::{Arc, Mutex, MutexGuard};

use pactree::{PacTree, PacTreeConfig};
use pmem::crash;
use pmem::pool::PmemPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `PacTree::recover` bumps the process-wide lock generation, which releases
/// every version lock in the process — as after a real power failure, where
/// no writer is left alive. A test recovering its tree while another test's
/// writer holds a lock would release that lock under it, so the tests of
/// this binary run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn durable_cfg(name: &str) -> PacTreeConfig {
    let mut c = PacTreeConfig::durable(name);
    c.numa_pools = 1;
    c.pool_size = 128 << 20;
    c
}

/// Evict a batch of random cache lines before crashing so the media image
/// diverges from the volatile one: without noise, a workload that fences
/// eagerly leaves both images identical and the crash tests nothing. The
/// seed is fixed per test so failures reproduce deterministically.
fn evict_noise(pools: &[Arc<PmemPool>], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for p in pools {
        crash::evict_random_lines(p, 64, &mut rng);
    }
}

#[test]
fn simple_crash_recovery() {
    let _serial = serial();
    let cfg = durable_cfg("cr-simple");
    let t = PacTree::create(cfg.clone()).unwrap();
    for i in 0..2000u64 {
        t.insert(&i.to_be_bytes(), i * 10).unwrap();
    }
    let pools = t.pools();
    // Not `drop` alone: if the updater is mid-replay it holds a handle of
    // its own, and would outlive this one into the crash.
    t.stop_updater();
    drop(t);
    evict_noise(&pools, 0xA11CE);
    crash::crash_all(&pools, false);

    let t2 = PacTree::recover(cfg).unwrap();
    for i in 0..2000u64 {
        assert_eq!(t2.lookup(&i.to_be_bytes()), Some(i * 10), "key {i} lost");
    }
    t2.check_invariants();
    // Still writable after recovery.
    t2.insert(b"post", 1).unwrap();
    assert_eq!(t2.lookup(b"post"), Some(1));
    t2.destroy();
}

#[test]
fn crash_with_moved_base_addresses() {
    let _serial = serial();
    let cfg = durable_cfg("cr-move");
    let t = PacTree::create(cfg.clone()).unwrap();
    for i in 0..1000u64 {
        t.insert(&(i * 3).to_be_bytes(), i).unwrap();
    }
    let pools = t.pools();
    t.stop_updater();
    drop(t);
    evict_noise(&pools, 0xB0B);
    crash::crash_all(&pools, true); // remount at different addresses

    let t2 = PacTree::recover(cfg).unwrap();
    for i in 0..1000u64 {
        assert_eq!(t2.lookup(&(i * 3).to_be_bytes()), Some(i));
    }
    t2.check_invariants();
    t2.destroy();
}

#[test]
fn crash_mid_churn_preserves_acknowledged_writes() {
    let _serial = serial();
    // Crash while SMOs may be pending in the log: acknowledged writes must
    // survive even though the search layer lags.
    let cfg = durable_cfg("cr-churn");
    let t = PacTree::create(cfg.clone()).unwrap();
    let mut acknowledged = Vec::new();
    for i in 0..3000u64 {
        t.insert(&i.to_be_bytes(), i + 7).unwrap();
        acknowledged.push(i);
    }
    // Delete a slice (also acknowledged).
    for i in 500..700u64 {
        t.remove(&i.to_be_bytes()).unwrap();
    }
    let pools = t.pools();
    // Stop the pre-crash instance's threads, then crash with whatever SMOs
    // are still pending in the persistent log.
    t.stop_updater();
    evict_noise(&pools, 0xC4A2);
    crash::crash_all(&pools, false);
    drop(t);

    let t2 = PacTree::recover(cfg).unwrap();
    for i in 0..3000u64 {
        let expect = if (500..700).contains(&i) {
            None
        } else {
            Some(i + 7)
        };
        assert_eq!(t2.lookup(&i.to_be_bytes()), expect, "key {i}");
    }
    t2.check_invariants();
    t2.destroy();
}

#[test]
fn repeated_random_crashes() {
    let _serial = serial();
    // The paper's experiment: many crash/recover cycles with progress in
    // between; all acknowledged data survives every cycle.
    let cfg = durable_cfg("cr-repeat");
    let mut t = PacTree::create(cfg.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut model = std::collections::BTreeMap::new();
    let rounds = std::env::var("PAC_CRASH_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12usize);

    for round in 0..rounds {
        // Mutate.
        for _ in 0..400 {
            let k: u64 = rng.gen_range(0..5000);
            let kb = k.to_be_bytes();
            if rng.gen_bool(0.75) {
                let v: u64 = rng.gen();
                t.insert(&kb, v).unwrap();
                model.insert(k, v);
            } else {
                t.remove(&kb).unwrap();
                model.remove(&k);
            }
        }
        // Random cache evictions make the crash state richer.
        for p in t.pools() {
            crash::evict_random_lines(&p, 64, &mut rng);
        }
        let pools = t.pools();
        t.stop_updater();
        crash::crash_all(&pools, round % 3 == 0);
        drop(t);
        t = PacTree::recover(cfg.clone()).unwrap();
        for (k, v) in &model {
            assert_eq!(
                t.lookup(&k.to_be_bytes()),
                Some(*v),
                "round {round}: key {k} lost"
            );
        }
        t.check_invariants();
    }
    t.destroy();
}

#[test]
fn recovery_replays_pending_split_smo() {
    let _serial = serial();
    // Force a pending split SMO across the crash: disable the async updater
    // so entries stay in the log, split, then crash.
    let mut cfg = durable_cfg("cr-smo");
    cfg.async_smo = true;
    let t = PacTree::create(cfg.clone()).unwrap();
    // Fill one node to force splits.
    for i in 0..300u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    let pools = t.pools();
    t.stop_updater(); // freeze the pre-crash instance (possibly behind)
    evict_noise(&pools, 0x5310);
    crash::crash_all(&pools, false);
    drop(t);
    let t2 = PacTree::recover(cfg).unwrap();
    assert_eq!(t2.pending_smo_count(), 0, "recovery drained the SMO log");
    for i in 0..300u64 {
        assert_eq!(t2.lookup(&i.to_be_bytes()), Some(i));
    }
    t2.check_invariants();
    t2.destroy();
}

/// Regression: a split whose new node a later merge folded back into its
/// left neighbour, with both SMO entries still in the log. Replaying the
/// split entry used to "finish" it — trim every key at or above the new
/// node's anchor from the left node (the pairs the merge had just copied
/// there: acknowledged writes lost) and, when the merge entry had already
/// cleared, link the deleted node back in (walkers then bounce between the
/// two nodes forever). The updater is stopped first, so the log holds both
/// entries whatever the timing.
#[test]
fn split_superseded_by_merge_replays_as_nothing() {
    let _serial = serial();
    let mut cfg = durable_cfg("cr-split-merge");
    cfg.async_smo = true;
    let t = PacTree::create(cfg.clone()).unwrap();
    t.stop_updater();
    // 65 ascending keys: the 65th splits the head node.
    for i in 0..65u64 {
        t.insert(&i.to_be_bytes(), i + 100).unwrap();
    }
    assert_eq!(t.node_count(), 2);
    // Thin both halves until the delete path merges them again.
    let mut kept = Vec::new();
    for i in 0..65u64 {
        if i % 4 == 0 {
            kept.push(i);
        } else {
            t.remove(&i.to_be_bytes()).unwrap();
        }
    }
    assert_eq!(t.node_count(), 1, "the halves merged back");
    assert_eq!(
        t.pending_smo_count(),
        2,
        "split and merge both still logged"
    );

    let pools = t.pools();
    evict_noise(&pools, 0x5B11);
    crash::crash_all(&pools, false);
    drop(t);
    let t2 = PacTree::recover(cfg).unwrap();
    assert_eq!(t2.pending_smo_count(), 0);
    for &i in &kept {
        assert_eq!(t2.lookup(&i.to_be_bytes()), Some(i + 100), "key {i} lost");
    }
    assert_eq!(t2.count_pairs(), kept.len());
    t2.check_invariants();
    t2.destroy();
}

#[test]
fn torn_insert_never_visible() {
    let _serial = serial();
    // An insert that never published (bitmap not persisted) must vanish; the
    // write path persists payload before the bitmap, so a crash between the
    // two leaves the slot invisible. We approximate by crashing right after
    // a batch: unpersisted data would surface as corruption in lookups.
    let cfg = durable_cfg("cr-torn");
    let t = Arc::clone(&PacTree::create(cfg.clone()).unwrap());
    for i in 0..1000u64 {
        t.insert(&i.to_be_bytes(), u64::MAX - i).unwrap();
    }
    let pools = t.pools();
    t.stop_updater();
    evict_noise(&pools, 0x7021);
    crash::crash_all(&pools, false);
    drop(t);
    let t2 = PacTree::recover(cfg).unwrap();
    // Every visible pair must decode consistently (no torn keys/values).
    let all = t2.scan(b"", 10_000);
    for p in &all {
        let k = u64::from_be_bytes(p.key.as_slice().try_into().expect("torn key"));
        assert_eq!(p.value, u64::MAX - k, "torn value for key {k}");
    }
    assert_eq!(all.len(), 1000);
    t2.destroy();
}
