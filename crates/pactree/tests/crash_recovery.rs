//! Crash-injection recovery tests (paper §6.8).
//!
//! The paper injects 100 SIGKILLs and verifies every previously written key
//! survives. We simulate power failures at the persistence layer instead
//! (see `pmem::crash`): crash all pools (discarding everything never
//! persisted), remount, run PACTree recovery, and check the durable
//! linearizability contract — every *completed* operation survives; the
//! index is fully consistent and writable.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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

/// Key encoders for three key lengths: 8-byte integers (width 1, 16-byte
/// slots), 23-byte `user…` strings (width 3, 32-byte slots, where a split
/// node keeps them whole) and 32-byte strings (width 4). Ascending `i` walks
/// the ids below 3001 in a scattered order, so splits land mid-list, where a
/// new node's fences share a long prefix: the string keys' nodes then drop
/// it and store their keys in width-1 slots.
type KeyFn = fn(u64) -> Vec<u8>;
const KEY_WIDTHS: [(&str, KeyFn); 3] = [
    ("int", |i| scatter(i).to_be_bytes().to_vec()),
    ("str", |i| format!("user{:019}", scatter(i)).into_bytes()),
    ("str32", |i| format!("user{:028}", scatter(i)).into_bytes()),
];

/// A bijection on the ids below 3001 (a prime) that scatters ascending ids.
fn scatter(i: u64) -> u64 {
    i * 7919 % 3001
}

/// Whether the churn test deletes `key(i)`: one contiguous range of key
/// values, so the nodes inside it empty out and merge.
fn churn_deletes(i: u64) -> bool {
    (500..700).contains(&scatter(i))
}

/// The number of data nodes that store their keys without a prefix: the
/// string trees must have some before the crash, and the integer tree none.
fn assert_truncation(t: &PacTree, width: &str) -> usize {
    let shapes = t.node_shapes();
    let truncated = shapes.iter().filter(|&&(_, p)| p > 0).count();
    assert_eq!(truncated > 0, width != "int", "{width}: {shapes:?}");
    truncated
}

#[test]
fn crash_mid_churn_preserves_acknowledged_writes() {
    let _serial = serial();
    // Crash while SMOs may be pending in the log: acknowledged writes must
    // survive even though the search layer lags.
    for (width, key) in KEY_WIDTHS {
        let cfg = durable_cfg(&format!("cr-churn-{width}"));
        let t = PacTree::create(cfg.clone()).unwrap();
        for i in 0..3000u64 {
            t.insert(&key(i), i + 7).unwrap();
        }
        let truncated = assert_truncation(&t, width);
        // Delete a slice (also acknowledged), merging the nodes it empties:
        // in the string trees, prefixed nodes merge into prefixed nodes.
        for i in (0..3000u64).filter(|&i| churn_deletes(i)) {
            t.remove(&key(i)).unwrap();
        }
        let merges = t.stats().merges.load(Ordering::Relaxed);
        assert!(merges > 0, "{width}: no merge before the crash");
        if width != "int" {
            assert!(assert_truncation(&t, width) < truncated, "{width}");
        }
        let pools = t.pools();
        // Stop the pre-crash instance's threads, then crash with whatever
        // SMOs are still pending in the persistent log.
        t.stop_updater();
        evict_noise(&pools, 0xC4A2);
        crash::crash_all(&pools, false);
        drop(t);

        let t2 = PacTree::recover(cfg).unwrap();
        for i in 0..3000u64 {
            let expect = if churn_deletes(i) { None } else { Some(i + 7) };
            assert_eq!(t2.lookup(&key(i)), expect, "{width} key {i}");
        }
        t2.check_invariants();
        t2.destroy();
    }
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
    for (width, key) in KEY_WIDTHS {
        let mut cfg = durable_cfg(&format!("cr-smo-{width}"));
        cfg.async_smo = true;
        let t = PacTree::create(cfg.clone()).unwrap();
        // Fill one node to force splits.
        for i in 0..300u64 {
            t.insert(&key(i), i).unwrap();
        }
        assert_truncation(&t, width);
        let pools = t.pools();
        t.stop_updater(); // freeze the pre-crash instance (possibly behind)
        evict_noise(&pools, 0x5310);
        crash::crash_all(&pools, false);
        drop(t);
        let t2 = PacTree::recover(cfg).unwrap();
        assert_eq!(t2.pending_smo_count(), 0, "recovery drained the SMO log");
        for i in 0..300u64 {
            assert_eq!(t2.lookup(&key(i)), Some(i), "{width} key {i}");
        }
        t2.check_invariants();
        t2.destroy();
    }
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

/// A width-1 tree (its first key is 8 bytes) then given keys of every length
/// from 0 to 200 bytes: all but the shortest spill out of the 16-byte slots,
/// and a spilled key does not widen the nodes split off the head.
/// Lookups, scan order, the free of a spilled key's block on update and
/// remove, a split, a merge, a snapshot scan and a crash with recovery all
/// hold as in a tree of one key length.
#[test]
fn mixed_key_lengths_in_a_narrow_tree() {
    let _serial = serial();
    let cfg = durable_cfg("cr-mixed").with_async_smo(false);
    let t = PacTree::create(cfg.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x31DE);
    let mut model = std::collections::BTreeMap::new();
    t.insert(b"8 bytes!", 0).unwrap();
    model.insert(b"8 bytes!".to_vec(), 0);
    for v in 1..600u64 {
        let len = rng.gen_range(0..=200usize);
        let k: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        t.insert(&k, v).unwrap();
        model.insert(k, v);
    }
    assert!(t.stats().splits.load(Ordering::Relaxed) > 0, "no split");
    assert!(
        t.node_shapes().iter().all(|&s| s == (1, 0)),
        "a node widened"
    );
    let check = |t: &PacTree, model: &std::collections::BTreeMap<Vec<u8>, u64>| {
        for (k, v) in model {
            assert_eq!(t.lookup(k), Some(*v), "key of {} bytes", k.len());
        }
        let all: Vec<(Vec<u8>, u64)> = t
            .scan(b"", usize::MAX)
            .into_iter()
            .map(|p| (p.key, p.value))
            .collect();
        assert_eq!(all, model.clone().into_iter().collect::<Vec<_>>());
    };
    check(&t, &model);

    // An update of a spilled key stores its value in place: it allocates
    // nothing, and the key reads back through its old block. A remove of
    // one frees its block, beside the one node block per merge the remove
    // may cause.
    let data_pool = t.pools()[1].id();
    let allocs = || pmem::pool::stats_of(data_pool).snapshot().allocs;
    let frees = || pmem::pool::stats_of(data_pool).snapshot().frees;
    let mut spilled = model.keys().filter(|k| k.len() > 8).cloned();
    let (k1, k2) = (spilled.next().unwrap(), spilled.next().unwrap());
    let (a0, f0, m0) = (allocs(), frees(), t.stats().merges.load(Ordering::Relaxed));
    assert_eq!(t.update(&k1, 1_000).unwrap(), model.get(&k1).copied());
    assert_eq!(allocs(), a0, "an update allocates no block");
    assert_eq!(t.lookup(&k1), Some(1_000));
    model.insert(k1, 1_000);
    t.remove(&k2).unwrap();
    model.remove(&k2);
    assert!(t.quiesce(Duration::from_secs(10)));
    let merged = t.stats().merges.load(Ordering::Relaxed) - m0;
    assert_eq!(frees() - f0, 1 + merged);

    // Thin the tree under a snapshot until nodes merge; the snapshot still
    // reads the pre-churn pairs in order.
    let before = model.clone();
    let snap = t.snapshot();
    let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
    for (i, k) in keys.iter().enumerate() {
        if i % 4 != 0 {
            t.remove(k).unwrap();
            model.remove(k);
        } else if i % 8 == 0 {
            t.update(k, i as u64).unwrap();
            model.insert(k.clone(), i as u64);
        }
    }
    assert!(t.stats().merges.load(Ordering::Relaxed) > 0, "no merge");
    let at_snap: Vec<(Vec<u8>, u64)> = t
        .scan_at(snap, b"", usize::MAX)
        .unwrap()
        .into_iter()
        .map(|p| (p.key, p.value))
        .collect();
    assert_eq!(at_snap, before.into_iter().collect::<Vec<_>>());
    assert!(t.release_snapshot(snap));
    check(&t, &model);

    let pools = t.pools();
    t.stop_updater();
    evict_noise(&pools, 0x31DE);
    crash::crash_all(&pools, false);
    drop(t);
    let t2 = PacTree::recover(cfg).unwrap();
    check(&t2, &model);
    t2.check_invariants();
    t2.destroy();
}
