//! Multi-version PACTree: snapshot isolation, frozen version chains, and
//! diff semantics (DESIGN.md §13), checked against `BTreeMap` shadows.

mod counting_alloc;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use counting_alloc::allocated_by;
use pactree::mvcc::DiffEntry;
use pactree::{PacTree, PacTreeConfig};
use proptest::prelude::*;

fn mk(name: &str) -> Arc<PacTree> {
    PacTree::create(PacTreeConfig::named(name)).unwrap()
}

fn shadow_of(t: &PacTree) -> BTreeMap<Vec<u8>, u64> {
    t.scan(b"", usize::MAX >> 1)
        .into_iter()
        .map(|p| (p.key, p.value))
        .collect()
}

fn scan_at_all(t: &PacTree, snap: u64) -> Vec<(Vec<u8>, u64)> {
    t.scan_at(snap, b"", usize::MAX >> 1)
        .unwrap()
        .into_iter()
        .map(|p| (p.key, p.value))
        .collect()
}

#[test]
fn snapshot_of_empty_tree() {
    let t = mk("mv-empty");
    let s = t.snapshot();
    assert_eq!(t.mvcc().live_snapshots(), 1);
    t.insert(b"after", 1).unwrap();
    assert!(scan_at_all(&t, s).is_empty());
    assert_eq!(t.lookup(b"after"), Some(1));
    assert!(t.release_snapshot(s));
    assert!(!t.release_snapshot(s), "double release is rejected");
    assert_eq!(t.mvcc().live_snapshots(), 0);
    t.destroy();
}

#[test]
fn writes_after_snapshot_are_invisible() {
    let t = mk("mv-isolation");
    for i in 0..500u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    let expect = shadow_of(&t);
    let s = t.snapshot();

    // Mutate heavily: overwrite, delete, insert new keys.
    for i in 0..500u64 {
        match i % 3 {
            0 => {
                t.insert(&i.to_be_bytes(), i + 10_000).unwrap();
            }
            1 => {
                t.remove(&i.to_be_bytes()).unwrap();
            }
            _ => {}
        }
    }
    for i in 500..900u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }

    let got: BTreeMap<Vec<u8>, u64> = scan_at_all(&t, s).into_iter().collect();
    assert_eq!(got, expect, "snapshot view drifted");
    // Live view reflects the mutations.
    assert_eq!(t.lookup(&0u64.to_be_bytes()), Some(10_000));
    assert_eq!(t.lookup(&1u64.to_be_bytes()), None);
    assert!(t.release_snapshot(s));
    t.check_invariants();
    t.destroy();
}

#[test]
fn snapshot_survives_splits_and_merges() {
    let t = mk("mv-smo");
    for i in 0..200u64 {
        t.insert(&(i * 10).to_be_bytes(), i).unwrap();
    }
    let expect = shadow_of(&t);
    let s = t.snapshot();
    // Force splits (dense inserts) and merges (mass deletes) under the
    // live snapshot.
    for i in 0..4000u64 {
        t.insert(&(i * 3 + 1).to_be_bytes(), i).unwrap();
    }
    for i in 0..4000u64 {
        t.remove(&(i * 3 + 1).to_be_bytes()).unwrap();
    }
    let got: BTreeMap<Vec<u8>, u64> = scan_at_all(&t, s).into_iter().collect();
    assert_eq!(got, expect, "snapshot corrupted by splits/merges");
    assert!(t.release_snapshot(s));
    t.check_invariants();
    t.destroy();
}

/// `scan_at` positions through the *live* search layer, which after the
/// snapshot indexes nodes born later (splits) and has dropped nodes merged
/// away. Starts that land on a post-snapshot node must step left to one
/// that resolves at the snapshot's version and still return exactly the
/// frozen range.
#[test]
fn scan_at_positions_through_the_live_search_layer() {
    let t = mk("mv-position");
    let key = |i: u64| (i * 8).to_be_bytes();
    let mut model = BTreeMap::new();
    for i in 0..2000u64 {
        t.insert(&key(i), i).unwrap();
        model.insert(key(i).to_vec(), i);
    }
    assert!(t.quiesce(Duration::from_secs(30)));
    let s = t.snapshot();
    let frozen = model;

    // Splits after the snapshot in the low half, merges in the high half.
    for i in 0..1000u64 {
        for d in 1..8 {
            t.insert(&(i * 8 + d).to_be_bytes(), d).unwrap();
        }
    }
    for i in (1000..2000u64).filter(|i| i % 8 != 0) {
        t.remove(&key(i)).unwrap();
    }
    // The live snapshot pins the epoch, so `quiesce` cannot drain the
    // reclamation backlog; it still replays every pending SMO into the
    // search layer, which is what this test needs.
    let deadline = Instant::now() + Duration::from_secs(30);
    while t.pending_smo_count() > 0 {
        assert!(Instant::now() < deadline, "SMOs never drained");
        t.quiesce(Duration::from_millis(10));
    }

    let retries = || t.stats().retries.load(Ordering::Relaxed);
    let before = retries();
    for j in 0..200u64 {
        let start = (j * 80 + j % 8).to_be_bytes();
        let got: Vec<(Vec<u8>, u64)> = t
            .scan_at(s, &start, 7)
            .unwrap()
            .into_iter()
            .map(|p| (p.key, p.value))
            .collect();
        let want: Vec<(Vec<u8>, u64)> = frozen
            .range(start.to_vec()..)
            .take(7)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(got, want, "scan_at from {}", u64::from_be_bytes(start));
    }
    assert!(
        retries() > before,
        "no start landed on a node born after the snapshot"
    );
    assert!(t.release_snapshot(s));
    t.check_invariants();
    t.destroy();
}

#[test]
fn multiple_snapshots_independent_views() {
    let t = mk("mv-multi");
    t.insert(b"k", 1).unwrap();
    let s1 = t.snapshot();
    t.insert(b"k", 2).unwrap();
    t.insert(b"k2", 20).unwrap();
    let s2 = t.snapshot();
    t.insert(b"k", 3).unwrap();
    t.remove(b"k2").unwrap();

    assert_eq!(scan_at_all(&t, s1), vec![(b"k".to_vec(), 1)]);
    assert_eq!(
        scan_at_all(&t, s2),
        vec![(b"k".to_vec(), 2), (b"k2".to_vec(), 20)]
    );
    assert_eq!(t.lookup(b"k"), Some(3));
    // Release out of order.
    assert!(t.release_snapshot(s1));
    assert_eq!(
        scan_at_all(&t, s2),
        vec![(b"k".to_vec(), 2), (b"k2".to_vec(), 20)]
    );
    assert!(t.release_snapshot(s2));
    assert!(t.scan_at(s1, b"", 1).is_none(), "released id is unknown");
    t.destroy();
}

#[test]
fn scan_at_range_and_count_semantics() {
    let t = mk("mv-range");
    for i in 0..300u64 {
        t.insert(&(i * 2).to_be_bytes(), i).unwrap();
    }
    let s = t.snapshot();
    for i in 0..300u64 {
        t.insert(&(i * 2 + 1).to_be_bytes(), 999).unwrap();
    }
    // Count cap.
    let got = t.scan_at(s, &100u64.to_be_bytes(), 10).unwrap();
    assert_eq!(got.len(), 10);
    let keys: Vec<u64> = got
        .iter()
        .map(|p| u64::from_be_bytes(p.key.as_slice().try_into().unwrap()))
        .collect();
    assert_eq!(keys, (50..60).map(|i| i * 2).collect::<Vec<u64>>());
    // Start past the end.
    assert!(t
        .scan_at(s, &10_000u64.to_be_bytes(), 5)
        .unwrap()
        .is_empty());
    // Zero count.
    assert!(t.scan_at(s, b"", 0).unwrap().is_empty());
    assert!(t.release_snapshot(s));
    t.destroy();
}

#[test]
fn snapshot_is_o1() {
    // O(1) creation, counted rather than timed: snapshot()+release copies
    // nothing of the tree, so it allocates the same bytes (its epoch pin's
    // record) on a 100-key tree as on a 10 000-key one. The cheapest of a
    // few rounds skips the rounds where a shared vector happened to grow.
    let cost = |t: &PacTree| {
        (0..8)
            .map(|_| {
                allocated_by(|| {
                    let s = t.snapshot();
                    assert!(t.release_snapshot(s));
                })
            })
            .min()
            .unwrap()
    };
    let mut bytes = Vec::new();
    for (name, keys) in [("mv-o1-small", 100u64), ("mv-o1-big", 10_000)] {
        let t = mk(name);
        for i in 0..keys {
            t.insert(&i.to_be_bytes(), i).unwrap();
        }
        bytes.push(cost(&t));
        t.destroy();
    }
    assert_eq!(
        bytes[0], bytes[1],
        "snapshot()+release allocates by tree size: 100 keys {} B, 10 000 keys {} B",
        bytes[0], bytes[1]
    );
}

#[test]
fn zero_snapshots_leave_no_residue() {
    let t = mk("mv-residue");
    for i in 0..1000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    let s = t.snapshot();
    for i in 0..1000u64 {
        t.insert(&i.to_be_bytes(), i + 1).unwrap();
    }
    let frozen = t.mvcc().frozen_nodes();
    assert!(frozen > 0, "writers froze under snapshot");
    // A node freezes once per snapshot era: rewriting every key again under
    // the same snapshot copies nothing more, and no chain grows past one.
    for i in 0..1000u64 {
        t.insert(&i.to_be_bytes(), i + 3).unwrap();
    }
    assert_eq!(t.mvcc().frozen_nodes(), frozen, "second pass froze again");
    assert_eq!(t.mvcc().chain_max(), 1, "a chain outgrew one capture");
    t.release_snapshot(s);
    // After release, new mutations take the plain fast path: no freezing.
    let frozen = t.mvcc().frozen_nodes();
    for i in 0..1000u64 {
        t.insert(&i.to_be_bytes(), i + 2).unwrap();
    }
    assert_eq!(
        t.mvcc().frozen_nodes(),
        frozen,
        "mutations froze nodes with no live snapshot"
    );
    t.destroy();
}

#[test]
fn diff_reports_adds_removes_changes() {
    let t = mk("mv-diff");
    for i in 0..100u64 {
        t.insert(&(i * 2).to_be_bytes(), i).unwrap();
    }
    let a = t.snapshot();
    t.insert(&7u64.to_be_bytes(), 70).unwrap(); // add
    t.remove(&4u64.to_be_bytes()).unwrap(); // remove (key 4 = i 2)
    t.insert(&10u64.to_be_bytes(), 555).unwrap(); // change (key 10 = i 5)
    let b = t.snapshot();

    let d = t.diff(a, b).unwrap();
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let mut changed = Vec::new();
    for e in d {
        match e {
            DiffEntry::Added(k, v) => added.push((k, v)),
            DiffEntry::Removed(k, v) => removed.push((k, v)),
            DiffEntry::Changed(k, o, n) => changed.push((k, o, n)),
        }
    }
    assert_eq!(added, vec![(7u64.to_be_bytes().to_vec(), 70)]);
    assert_eq!(removed, vec![(4u64.to_be_bytes().to_vec(), 2)]);
    assert_eq!(changed, vec![(10u64.to_be_bytes().to_vec(), 5, 555)]);
    // Diff with self is empty, both directions invert.
    assert!(t.diff(a, a).unwrap().is_empty());
    assert!(t.diff(b, b).unwrap().is_empty());
    let rev = t.diff(b, a).unwrap();
    assert_eq!(rev.len(), 3);
    t.release_snapshot(a);
    t.release_snapshot(b);
    t.destroy();
}

#[test]
fn diff_matches_shadow_models() {
    let t = mk("mv-diff-model");
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..2000 {
        let k = step() % 700;
        t.insert(&k.to_be_bytes(), step()).unwrap();
    }
    let ma = shadow_of(&t);
    let a = t.snapshot();
    for _ in 0..2000 {
        let k = step() % 900;
        if step() % 4 == 0 {
            t.remove(&k.to_be_bytes()).unwrap();
        } else {
            t.insert(&k.to_be_bytes(), step()).unwrap();
        }
    }
    let mb = shadow_of(&t);
    let b = t.snapshot();

    let mut expect: BTreeMap<Vec<u8>, DiffEntry> = BTreeMap::new();
    for (k, v) in &ma {
        match mb.get(k) {
            None => {
                expect.insert(k.clone(), DiffEntry::Removed(k.clone(), *v));
            }
            Some(n) if n != v => {
                expect.insert(k.clone(), DiffEntry::Changed(k.clone(), *v, *n));
            }
            _ => {}
        }
    }
    for (k, v) in &mb {
        if !ma.contains_key(k) {
            expect.insert(k.clone(), DiffEntry::Added(k.clone(), *v));
        }
    }
    let got: BTreeMap<Vec<u8>, DiffEntry> = t
        .diff(a, b)
        .unwrap()
        .into_iter()
        .map(|e| {
            let k = match &e {
                DiffEntry::Added(k, _) | DiffEntry::Removed(k, _) | DiffEntry::Changed(k, _, _) => {
                    k.clone()
                }
            };
            (k, e)
        })
        .collect();
    assert_eq!(got, expect);
    t.release_snapshot(a);
    t.release_snapshot(b);
    t.destroy();
}

#[test]
fn concurrent_writers_never_corrupt_pinned_version() {
    let t = mk("mv-conc");
    for i in 0..3000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    let expect: Arc<BTreeMap<Vec<u8>, u64>> = Arc::new(shadow_of(&t));
    let s = t.snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    // Writers churn while verifiers repeatedly re-read the snapshot.
    for tid in 0..4u64 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let k = (tid * 1_000 + i * 7) % 6000;
                if i % 3 == 2 {
                    t.remove(&k.to_be_bytes()).unwrap();
                } else {
                    t.insert(&k.to_be_bytes(), i).unwrap();
                }
                i += 1;
            }
        }));
    }
    for _ in 0..2 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        let expect = Arc::clone(&expect);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let got: BTreeMap<Vec<u8>, u64> = scan_at_all(&t, s).into_iter().collect();
                assert_eq!(&got, expect.as_ref(), "pinned version corrupted");
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(600));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert!(t.release_snapshot(s));
    t.check_invariants();
    t.destroy();
}

/// A snapshot released while readers walk it: every `scan_at` result is
/// `None` or exactly the snapshot's pairs, while writers split and merge
/// and the releasing thread is neither a reader nor a writer.
#[test]
fn release_during_scan_never_yields_a_wrong_view() {
    let t = mk("mv-release-race");
    for i in 0..4000u64 {
        t.insert(&(i * 2).to_be_bytes(), i).unwrap();
    }
    // Writers hold the read side per operation; a round takes the write
    // side, so the live scan it records is exactly the snapshot's view.
    let gate = Arc::new(std::sync::RwLock::new(()));
    type Current = Option<(u64, Arc<BTreeMap<Vec<u8>, u64>>)>;
    let current: Arc<std::sync::Mutex<Current>> = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for tid in 0..2u64 {
        let (t, gate, stop) = (Arc::clone(&t), Arc::clone(&gate), Arc::clone(&stop));
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Each writer sweeps its half of the preloaded keys,
                // removing all of them (nodes empty out and merge), then
                // inserting them back (nodes split).
                let k = tid * 4000 + (i % 2000) * 2;
                let _g = gate.read().unwrap();
                if (i / 2000).is_multiple_of(2) {
                    t.remove(&k.to_be_bytes()).unwrap();
                } else {
                    t.insert(&k.to_be_bytes(), i).unwrap();
                }
                i += 1;
            }
        }));
    }
    let reader = {
        let (t, current, stop) = (Arc::clone(&t), Arc::clone(&current), Arc::clone(&stop));
        std::thread::spawn(move || {
            let (mut some, mut none) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let Some((s, expect)) = current.lock().unwrap().clone() else {
                    continue;
                };
                match t.scan_at(s, b"", usize::MAX >> 1) {
                    Some(got) => {
                        let got: BTreeMap<Vec<u8>, u64> =
                            got.into_iter().map(|p| (p.key, p.value)).collect();
                        assert_eq!(&got, expect.as_ref(), "snapshot {s} view wrong");
                        some += 1;
                    }
                    None => none += 1,
                }
            }
            (some, none)
        })
    };
    for round in 0..12u64 {
        {
            let _w = gate.write().unwrap();
            let expect = Arc::new(shadow_of(&t));
            let s = t.snapshot();
            *current.lock().unwrap() = Some((s, expect));
        }
        std::thread::sleep(Duration::from_millis(15 + round * 3));
        let s = current.lock().unwrap().as_ref().unwrap().0;
        assert!(t.release_snapshot(s));
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let (some, none) = reader.join().unwrap();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        some > 0,
        "no scan finished on a live snapshot ({none} voided)"
    );
    assert!(t.stats().splits.load(Ordering::Relaxed) > 0);
    assert!(t.stats().merges.load(Ordering::Relaxed) > 0);
    assert_eq!(t.mvcc().live_snapshots(), 0);
    t.check_invariants();
    t.destroy();
}

#[test]
fn snapshot_taken_mid_churn_is_consistent() {
    // A snapshot taken *while* writers run must still be a consistent cut:
    // every key it shows must have held that exact value at some point, and
    // writer-local keys written before the snapshot call returns by the
    // same thread... keep it simpler: single-writer keys are monotone, so
    // the snapshot of key k must be a value the writer actually wrote.
    let t = mk("mv-cut");
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for tid in 0..4u64 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 1u64;
            while !stop.load(Ordering::Relaxed) {
                // Monotone values per key; value encodes (tid, i).
                let k = tid * 100 + (i % 50);
                t.insert(&k.to_be_bytes(), i).unwrap();
                i += 1;
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut snaps = Vec::new();
    for _ in 0..5 {
        let s = t.snapshot();
        snaps.push((s, scan_at_all(&t, s)));
        std::thread::sleep(std::time::Duration::from_millis(30));
    }
    // Repeated reads of the same snapshot are stable even under churn.
    for (s, first) in &snaps {
        assert_eq!(&scan_at_all(&t, *s), first, "snapshot view not stable");
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Later snapshots dominate earlier ones (monotone per-key values).
    for w in snaps.windows(2) {
        let early: BTreeMap<_, _> = w[0].1.iter().cloned().collect();
        let late: BTreeMap<_, _> = w[1].1.iter().cloned().collect();
        for (k, v) in &early {
            assert!(
                late.get(k).is_some_and(|lv| lv >= v),
                "later snapshot regressed key"
            );
        }
    }
    for (s, _) in &snaps {
        assert!(t.release_snapshot(*s));
    }
    t.check_invariants();
    t.destroy();
}

#[test]
fn gauges_registered() {
    let t = mk("mv-gauges");
    let prefix = "pactree.mv-gauges";
    let get = |name: &str| {
        let sample = obsv::global().sample();
        *sample
            .gauges
            .get(name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
    };
    let s = t.snapshot();
    for i in 0..500u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    assert_eq!(get(&format!("{prefix}.mvcc.live_snapshots")), 1.0);
    assert!(get(&format!("{prefix}.mvcc.frozen_nodes")) > 0.0);
    assert!(get(&format!("{prefix}.mvcc.pinned_backlog")) >= 0.0);
    t.release_snapshot(s);
    assert_eq!(get(&format!("{prefix}.mvcc.live_snapshots")), 0.0);
    t.destroy();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Writes after `snapshot()` are invisible to `scan_at`, for arbitrary
    /// op interleavings and snapshot points.
    #[test]
    fn prop_snapshot_isolation(
        pre in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..24), any::<u64>()), 0..150),
        post in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..24), 0..3u8, any::<u64>()), 0..150),
        seed in any::<u32>(),
    ) {
        let name = format!("mv-prop-{seed}-{}-{}", pre.len(), post.len());
        let t = mk(&name);
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (k, v) in pre {
            t.insert(&k, v).unwrap();
            model.insert(k, v);
        }
        let s = t.snapshot();
        let frozen_model = model.clone();
        for (k, op, v) in post {
            match op {
                0 | 1 => {
                    let old = t.insert(&k, v).unwrap();
                    prop_assert_eq!(old, model.insert(k, v));
                }
                _ => {
                    let old = t.remove(&k).unwrap();
                    prop_assert_eq!(old, model.remove(&k));
                }
            }
        }
        // Snapshot sees exactly the pre-state.
        let got: BTreeMap<Vec<u8>, u64> = scan_at_all(&t, s).into_iter().collect();
        prop_assert_eq!(&got, &frozen_model);
        // Live tree sees exactly the post-state.
        let live: BTreeMap<Vec<u8>, u64> = shadow_of(&t).into_iter().collect();
        prop_assert_eq!(&live, &model);
        // Partial scans agree with the shadow's ranges.
        if let Some(mid) = frozen_model.keys().nth(frozen_model.len() / 2) {
            let part: Vec<(Vec<u8>, u64)> = t.scan_at(s, mid, 7).unwrap()
                .into_iter().map(|p| (p.key, p.value)).collect();
            let expect: Vec<(Vec<u8>, u64)> = frozen_model
                .range(mid.clone()..).take(7)
                .map(|(k, v)| (k.clone(), *v)).collect();
            prop_assert_eq!(part, expect);
        }
        prop_assert!(t.release_snapshot(s));
        t.destroy();
    }
}
