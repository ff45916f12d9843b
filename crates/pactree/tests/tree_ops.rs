//! PACTree end-to-end behaviour: CRUD, splits/merges, async SMOs, scans,
//! concurrency, and model checks against `BTreeMap`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use pactree::{PacTree, PacTreeConfig};
use proptest::prelude::*;

fn mk(name: &str) -> Arc<PacTree> {
    PacTree::create(PacTreeConfig::named(name)).unwrap()
}

#[test]
fn empty_tree() {
    let t = mk("pt-empty");
    assert_eq!(t.lookup(b"nope"), None);
    assert!(t.scan(b"", 10).is_empty());
    assert_eq!(t.remove(b"nope").unwrap(), None);
    assert_eq!(t.update(b"nope", 1).unwrap(), None);
    assert_eq!(t.count_pairs(), 0);
    assert_eq!(t.node_count(), 1, "head node always exists");
    t.destroy();
}

#[test]
fn basic_crud() {
    let t = mk("pt-crud");
    assert_eq!(t.insert(b"alpha", 1).unwrap(), None);
    assert_eq!(t.insert(b"beta", 2).unwrap(), None);
    assert_eq!(t.lookup(b"alpha"), Some(1));
    assert_eq!(t.lookup(b"beta"), Some(2));
    assert_eq!(t.lookup(b"gamma"), None);
    // Upsert.
    assert_eq!(t.insert(b"alpha", 10).unwrap(), Some(1));
    assert_eq!(t.lookup(b"alpha"), Some(10));
    // Update-only.
    assert_eq!(t.update(b"beta", 20).unwrap(), Some(2));
    assert_eq!(t.update(b"missing", 9).unwrap(), None);
    assert_eq!(t.lookup(b"missing"), None);
    // Remove.
    assert_eq!(t.remove(b"alpha").unwrap(), Some(10));
    assert_eq!(t.lookup(b"alpha"), None);
    assert_eq!(t.remove(b"alpha").unwrap(), None);
    assert_eq!(t.count_pairs(), 1);
    t.destroy();
}

#[test]
fn value_zero_is_legal() {
    let t = mk("pt-zero");
    t.insert(b"z", 0).unwrap();
    assert_eq!(t.lookup(b"z"), Some(0));
    t.destroy();
}

#[test]
fn splits_create_nodes_and_search_layer_catches_up() {
    let t = mk("pt-split");
    for i in 0..1000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    assert!(
        t.node_count() > 8,
        "splits happened: {} nodes",
        t.node_count()
    );
    assert!(t.stats().splits.load(Ordering::Relaxed) >= 8);
    for i in 0..1000u64 {
        assert_eq!(t.lookup(&i.to_be_bytes()), Some(i));
    }
    // Give the updater a moment, then the SMO log should drain.
    for _ in 0..100 {
        if t.pending_smo_count() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(t.pending_smo_count(), 0, "updater drained the SMO log");
    t.check_invariants();
    t.destroy();
}

/// The data pool holds data nodes and nothing else, each in a 3328-byte
/// block (13 XPLines) with no padding between them. One thread preloads, so
/// the splits, and with them the figure, repeat exactly.
#[test]
fn data_pool_footprint_is_its_nodes_in_xpline_classes() {
    let t = mk("pt-footprint");
    for i in 0..50_000u64 {
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        t.insert(&k.to_be_bytes(), i).unwrap();
    }
    assert!(t.quiesce(std::time::Duration::from_secs(30)));
    let pools = t.pools();
    let data_pools = &pools[1..pools.len() - 1];
    let used: u64 = data_pools.iter().map(|p| p.allocator().high_water()).sum();
    assert_eq!(used, t.node_count() as u64 * 3328);
    t.destroy();
}

#[test]
fn synchronous_smo_mode() {
    let t = PacTree::create(PacTreeConfig::named("pt-sync").with_async_smo(false)).unwrap();
    for i in 0..1000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    assert_eq!(t.pending_smo_count(), 0, "sync mode leaves no pending SMOs");
    for i in 0..1000u64 {
        assert_eq!(t.lookup(&i.to_be_bytes()), Some(i));
    }
    t.check_invariants();
    t.destroy();
}

#[test]
fn deletes_trigger_merges() {
    let t = mk("pt-merge");
    for i in 0..2000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    let nodes_before = t.node_count();
    for i in 0..2000u64 {
        if i % 8 != 0 {
            assert_eq!(t.remove(&i.to_be_bytes()).unwrap(), Some(i), "key {i}");
        }
    }
    // Wait for merges to be replayed and reclaimed.
    for _ in 0..200 {
        if t.pending_smo_count() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(
        t.stats().merges.load(Ordering::Relaxed) > 0,
        "merges happened"
    );
    assert!(t.node_count() < nodes_before, "list shrank");
    for i in 0..2000u64 {
        let expect = (i % 8 == 0).then_some(i);
        assert_eq!(t.lookup(&i.to_be_bytes()), expect, "key {i}");
    }
    t.check_invariants();
    t.destroy();
}

#[test]
fn scan_sorted_across_nodes() {
    let t = mk("pt-scan");
    for i in (0..500u64).rev() {
        t.insert(&(i * 2).to_be_bytes(), i * 2).unwrap();
    }
    let got = t.scan(&100u64.to_be_bytes(), 20);
    assert_eq!(got.len(), 20);
    let keys: Vec<u64> = got
        .iter()
        .map(|p| u64::from_be_bytes(p.key.as_slice().try_into().unwrap()))
        .collect();
    let expect: Vec<u64> = (50..70).map(|i| i * 2).collect();
    assert_eq!(keys, expect);
    // Scan past the end.
    let tail = t.scan(&990u64.to_be_bytes(), 100);
    assert_eq!(tail.len(), 5);
    // Full scan is fully sorted.
    let all = t.scan(b"", 10_000);
    assert_eq!(all.len(), 500);
    assert!(all.windows(2).all(|w| w[0].key < w[1].key));
    t.destroy();
}

#[test]
fn string_keys_and_long_keys() {
    let t = mk("pt-strings");
    let mut model = BTreeMap::new();
    for i in 0..300u64 {
        let key = format!(
            "user{:08}additional-padding-{}",
            i * 37 % 1000,
            "x".repeat((i % 50) as usize)
        );
        model.insert(key.clone().into_bytes(), i);
        t.insert(key.as_bytes(), i).unwrap();
    }
    for (k, v) in &model {
        assert_eq!(t.lookup(k), Some(*v));
    }
    let start = b"user0000".to_vec();
    let expect: Vec<_> = model
        .range(start.clone()..)
        .take(10)
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let got: Vec<_> = t
        .scan(&start, 10)
        .into_iter()
        .map(|p| (p.key, p.value))
        .collect();
    assert_eq!(got, expect);
    t.destroy();
}

#[test]
fn model_check_random_ops() {
    let t = mk("pt-model");
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x = 88172645463325252u64;
    for step in 0..30_000u64 {
        // xorshift
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 5000;
        let kb = key.to_be_bytes();
        match x % 10 {
            0..=5 => {
                let old = t.insert(&kb, step).unwrap();
                assert_eq!(old, model.insert(key, step), "insert {key}");
            }
            6..=7 => {
                let old = t.remove(&kb).unwrap();
                assert_eq!(old, model.remove(&key), "remove {key}");
            }
            8 => {
                assert_eq!(t.lookup(&kb), model.get(&key).copied(), "lookup {key}");
            }
            _ => {
                let got: Vec<u64> = t
                    .scan(&kb, 5)
                    .into_iter()
                    .map(|p| u64::from_be_bytes(p.key.as_slice().try_into().unwrap()))
                    .collect();
                let expect: Vec<u64> = model.range(key..).take(5).map(|(k, _)| *k).collect();
                assert_eq!(got, expect, "scan {key}");
            }
        }
    }
    assert_eq!(t.count_pairs(), model.len());
    t.check_invariants();
    t.destroy();
}

#[test]
fn concurrent_inserts_disjoint_ranges() {
    let t = mk("pt-conc-ins");
    let mut handles = Vec::new();
    for tid in 0..8u64 {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            for i in 0..3000u64 {
                let k = tid * 1_000_000 + i;
                t.insert(&k.to_be_bytes(), k).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for tid in 0..8u64 {
        for i in (0..3000u64).step_by(7) {
            let k = tid * 1_000_000 + i;
            assert_eq!(t.lookup(&k.to_be_bytes()), Some(k));
        }
    }
    assert_eq!(t.count_pairs(), 8 * 3000);
    t.check_invariants();
    t.destroy();
}

#[test]
fn concurrent_mixed_workload() {
    let t = mk("pt-conc-mix");
    for i in 0..5000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    // Writers churn the upper range.
    for tid in 0..4u64 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let k = 100_000 + tid * 10_000 + (i % 2000);
                t.insert(&k.to_be_bytes(), i).unwrap();
                if i % 2 == 1 {
                    t.remove(&k.to_be_bytes()).unwrap();
                }
                i += 1;
            }
        }));
    }
    // Readers check the stable lower range.
    for _ in 0..4 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        let errors = Arc::clone(&errors);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for i in (0..5000u64).step_by(113) {
                    if t.lookup(&i.to_be_bytes()) != Some(i) {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let s = t.scan(&1000u64.to_be_bytes(), 50);
                if s.len() != 50 {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "readers saw inconsistent data"
    );
    for i in 0..5000u64 {
        assert_eq!(t.lookup(&i.to_be_bytes()), Some(i));
    }
    t.check_invariants();
    t.destroy();
}

#[test]
fn jump_distance_stats_recorded() {
    let t = mk("pt-jump");
    for i in 0..5000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    // During a sequential fill the tail node splits faster than the updater
    // replays, so hop counts are recorded (possibly many per locate).
    let total: u64 = t.stats().jump_histogram().iter().map(|&(_, c)| c).sum();
    assert!(total > 0, "locates were recorded");
    // Once the SMO log drains, lookups reach their target directly.
    for _ in 0..500 {
        if t.pending_smo_count() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    t.stats().reset();
    for i in (0..5000u64).step_by(13) {
        assert_eq!(t.lookup(&i.to_be_bytes()), Some(i));
    }
    assert!(
        t.stats().direct_hit_ratio() > 0.95,
        "drained search layer gives direct hits: {}",
        t.stats().direct_hit_ratio()
    );
    t.destroy();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_pactree_matches_btreemap(
        ops in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..40), 0..4u8, any::<u64>()), 1..400),
        seed in any::<u32>(),
    ) {
        let name = format!("pt-prop-{seed}-{}", ops.len());
        let t = mk(&name);
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (key, op, value) in ops {
            match op {
                0 | 1 => {
                    let old = t.insert(&key, value).unwrap();
                    prop_assert_eq!(old, model.insert(key, value));
                }
                2 => {
                    let old = t.remove(&key).unwrap();
                    prop_assert_eq!(old, model.remove(&key));
                }
                _ => {
                    prop_assert_eq!(t.lookup(&key), model.get(&key).copied());
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(t.lookup(k), Some(*v));
        }
        let all: Vec<_> = t.scan(b"", usize::MAX >> 1).into_iter().map(|p| (p.key, p.value)).collect();
        let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(all, expect);
        t.destroy();
    }
}

#[test]
fn range_first_last_api() {
    let t = mk("pt-range-api");
    assert!(t.first().is_none());
    assert!(t.last().is_none());
    assert!(t.is_empty());
    for i in (10..5000u64).step_by(10) {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    assert!(!t.is_empty());
    let first = t.first().unwrap();
    assert_eq!(
        u64::from_be_bytes(first.key.as_slice().try_into().unwrap()),
        10
    );
    let last = t.last().unwrap();
    assert_eq!(
        u64::from_be_bytes(last.key.as_slice().try_into().unwrap()),
        4990
    );

    let r = t.range(&100u64.to_be_bytes(), &200u64.to_be_bytes(), 1000);
    let keys: Vec<u64> = r
        .iter()
        .map(|p| u64::from_be_bytes(p.key.as_slice().try_into().unwrap()))
        .collect();
    assert_eq!(keys, (100..200).step_by(10).collect::<Vec<u64>>());
    // Limit applies before the end bound.
    assert_eq!(
        t.range(&0u64.to_be_bytes(), &10_000u64.to_be_bytes(), 7)
            .len(),
        7
    );
    // Empty range.
    assert!(t
        .range(&300u64.to_be_bytes(), &300u64.to_be_bytes(), 10)
        .is_empty());
    t.destroy();
}

/// Regression: a `create` that fails part-way (here the `-data0` name is
/// taken) used to leave the `-search` pool it had already made registered
/// forever, so the tree's name could never be used again.
#[test]
fn failed_create_unregisters_its_pools() {
    use pmem::pool::{self, PmemPool, PoolConfig};
    let squatter = PmemPool::create(PoolConfig::volatile("pt-halfmade-data0", 1 << 20)).unwrap();
    let err = PacTree::create(PacTreeConfig::named("pt-halfmade")).err();
    assert!(
        matches!(err, Some(pmem::PmemError::PoolExists(_))),
        "{err:?}"
    );
    pool::destroy_pool(squatter.id());
    for suffix in ["search", "data0", "log"] {
        assert!(
            pool::pool_by_name(&format!("pt-halfmade-{suffix}")).is_none(),
            "-{suffix} left registered"
        );
    }
    let t = mk("pt-halfmade");
    t.insert(b"k", 1).unwrap();
    assert_eq!(t.lookup(b"k"), Some(1));
    t.destroy();
}
