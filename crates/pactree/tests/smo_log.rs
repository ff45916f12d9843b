//! SMO log behaviour under pressure: back-pressure when the updater lags,
//! ordering guarantees, and updater liveness.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pactree::{PacTree, PacTreeConfig};

#[test]
fn smo_log_drains_under_sustained_split_pressure() {
    // Hammer inserts from several threads so splits outpace the updater for
    // a while; the ring must absorb the burst (or back-pressure writers)
    // and fully drain afterwards.
    let t =
        PacTree::create(PacTreeConfig::named("smo-pressure").with_pool_size(512 << 20)).unwrap();
    let mut handles = Vec::new();
    for tid in 0..4u64 {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            for i in 0..10_000u64 {
                let k = tid * 1_000_000 + i;
                t.insert(&k.to_be_bytes(), k).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every insert acknowledged; splits recorded.
    assert_eq!(t.count_pairs(), 40_000);
    let splits = t.stats().splits.load(Ordering::Relaxed);
    assert!(splits > 100, "sustained split pressure: {splits}");
    // Drain.
    for _ in 0..2000 {
        if t.pending_smo_count() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(t.pending_smo_count(), 0);
    assert_eq!(
        t.stats().smo_replayed.load(Ordering::Relaxed),
        splits + t.stats().merges.load(Ordering::Relaxed),
        "every SMO replayed exactly once"
    );
    // After drain, all data reachable through the search layer directly.
    t.stats().reset();
    for tid in 0..4u64 {
        for i in (0..10_000u64).step_by(97) {
            let k = tid * 1_000_000 + i;
            assert_eq!(t.lookup(&k.to_be_bytes()), Some(k));
        }
    }
    assert!(
        t.stats().direct_hit_ratio() > 0.95,
        "{}",
        t.stats().direct_hit_ratio()
    );
    t.check_invariants();
    t.destroy();
}

#[test]
fn interleaved_split_and_merge_of_same_region() {
    // Insert/delete waves over the same key range force splits and merges
    // whose anchors collide; timestamp-ordered replay must keep the search
    // layer consistent with the data layer.
    let t = PacTree::create(PacTreeConfig::named("smo-waves").with_pool_size(256 << 20)).unwrap();
    for wave in 0..6u64 {
        for i in 0..4000u64 {
            t.insert(&i.to_be_bytes(), wave * 10_000 + i).unwrap();
        }
        for i in 0..4000u64 {
            if i % 4 != wave % 4 {
                t.remove(&i.to_be_bytes()).unwrap();
            }
        }
        // Mid-wave reads stay correct during churn.
        for i in (0..4000u64).step_by(211) {
            let expect = (i % 4 == wave % 4).then_some(wave * 10_000 + i);
            assert_eq!(t.lookup(&i.to_be_bytes()), expect, "wave {wave} key {i}");
        }
    }
    for _ in 0..1000 {
        if t.pending_smo_count() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    t.check_invariants();
    assert!(t.stats().merges.load(Ordering::Relaxed) > 0);
    t.destroy();
}

/// Writers' nudges are flag stores that notify only a parked updater; none
/// may be lost. After the last insert nothing nudges again (no `quiesce`),
/// so the log drains only if the updater saw every nudge or wakes on its
/// own.
#[test]
fn updater_drains_without_a_final_nudge() {
    let t =
        PacTree::create(PacTreeConfig::named("smo-no-nudge").with_pool_size(256 << 20)).unwrap();
    let handles: Vec<_> = (0..2u64)
        .map(|tid| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    let k = (i << 1 | tid).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    t.insert(&k.to_be_bytes(), i).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(t.stats().splits.load(Ordering::Relaxed) > 100);
    let start = std::time::Instant::now();
    while t.pending_smo_count() > 0 && start.elapsed() < std::time::Duration::from_secs(1) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(t.pending_smo_count(), 0, "drained within 1 s");
    t.check_invariants();
    t.destroy();
}

/// Writers nudge the updater only once every 16 SMOs; a smaller backlog
/// drains on the updater's periodic pass, with no `quiesce` and no further
/// write.
#[test]
fn backlog_below_the_wake_batch_drains_on_the_period() {
    let t = PacTree::create(PacTreeConfig::named("smo-period")).unwrap();
    let mut k = 0u64;
    while t.stats().splits.load(Ordering::Relaxed) == 0 {
        t.insert(&k.to_be_bytes(), k).unwrap();
        k += 1;
    }
    assert_eq!(t.stats().splits.load(Ordering::Relaxed), 1);
    let start = std::time::Instant::now();
    while t.pending_smo_count() > 0 && start.elapsed() < std::time::Duration::from_millis(100) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(t.pending_smo_count(), 0, "drained within 100 ms");
    assert_eq!(t.stats().smo_replayed.load(Ordering::Relaxed), 1);
    t.check_invariants();
    t.destroy();
}

/// `stop` wakes a parked updater rather than waiting out its period, and
/// joins it.
#[test]
fn stop_returns_promptly_while_the_updater_is_parked() {
    let t = PacTree::create(PacTreeConfig::named("smo-park-stop")).unwrap();
    for i in 0..1000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    assert!(t.quiesce(std::time::Duration::from_secs(10)));
    // Idle: the updater parks between its periodic passes.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let start = std::time::Instant::now();
    t.stop_updater();
    let took = start.elapsed();
    assert!(
        took < std::time::Duration::from_millis(100),
        "stop took {took:?}"
    );
    t.destroy();
}

/// With the updater stopped nothing can drain the log: `quiesce` says so
/// at once instead of waiting out its timeout.
#[test]
fn quiesce_gives_up_at_once_when_the_updater_is_stopped() {
    let t = PacTree::create(PacTreeConfig::named("smo-stopped-quiesce")).unwrap();
    t.stop_updater();
    let mut k = 0u64;
    while t.pending_smo_count() == 0 {
        t.insert(&k.to_be_bytes(), k).unwrap();
        k += 1;
    }
    let start = std::time::Instant::now();
    assert!(!t.quiesce(std::time::Duration::from_secs(10)));
    let took = start.elapsed();
    assert!(
        took < std::time::Duration::from_millis(100),
        "quiesce took {took:?}"
    );
    t.destroy();
}
