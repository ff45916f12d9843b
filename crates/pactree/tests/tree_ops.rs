//! PACTree end-to-end behaviour: CRUD, splits/merges, async SMOs, scans,
//! concurrency, and model checks against `BTreeMap`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// The data pool holds data nodes and nothing else, in XPLine size classes
/// with no padding between them. The head, allocated before its first key
/// chose its width, takes 3072 bytes (12 XPLines); every other node takes
/// its own width's class. 8-byte keys share no prefix worth dropping, so
/// every node is width 1 (1536 B, 6 XPLines). A node of 23- or 32-byte keys
/// is narrower than a whole key needs (3 or 4 words) where its fences share
/// enough leading bytes: here, 50 000 scattered keys leave ~5% of the
/// 23-byte nodes at width 2 and most 32-byte ones at width 3; a million
/// leave most 23-byte nodes at width 2. One thread preloads, so the splits,
/// and with them the figures, repeat exactly: 1024 nodes each, since a node
/// splits at 64 pairs whatever its width.
#[test]
fn data_pool_footprint_is_its_nodes_in_xpline_classes() {
    let class = |w: usize| {
        let size = pactree::data::node_size(w);
        pmem::alloc::class_size(pmem::alloc::class_of(size).unwrap()) as u64
    };
    let (used, shapes) = preloaded_footprint("pt-footprint-int", |k| k.to_be_bytes().to_vec());
    let n = shapes.len() as u64;
    assert_eq!(used, 3072 + (n - 1) * 1536);
    assert!(shapes.iter().all(|&s| s == (1, 0)), "{shapes:?}");
    for (name, full_width, key) in [
        (
            "pt-footprint-str",
            3,
            (|k| format!("user{:019}", k >> 1).into_bytes()) as KeyOf,
        ),
        ("pt-footprint-str32", 4, |k| {
            format!("user{:028}", k >> 1).into_bytes()
        }),
    ] {
        let (used, shapes) = preloaded_footprint(name, key);
        assert_eq!(shapes.len(), 1024, "{name}");
        let rest: u64 = shapes[1..].iter().map(|&(w, _)| class(w)).sum();
        assert_eq!(used, 3072 + rest, "{name}");
        assert!(shapes.iter().all(|&(w, _)| w <= full_width), "{name}");
        assert!(shapes.iter().any(|&(w, _)| w < full_width), "{name}");
    }
}

type KeyOf = fn(u64) -> Vec<u8>;

/// Data-pool bytes handed out, and each data node's `(width, prefix
/// length)`, after one thread preloads 50 000 scattered keys.
fn preloaded_footprint(name: &str, key: KeyOf) -> (u64, Vec<(usize, usize)>) {
    let t = mk(name);
    for i in 0..50_000u64 {
        t.insert(&key(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), i)
            .unwrap();
    }
    assert!(t.quiesce(std::time::Duration::from_secs(30)));
    let pools = t.pools();
    let data_pools = &pools[1..pools.len() - 1];
    let used = data_pools.iter().map(|p| p.allocator().high_water()).sum();
    let shapes = t.node_shapes();
    t.destroy();
    (used, shapes)
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

// Mixed-length keys (1–40 bytes) drawn from a few shared prefixes over a
// small alphabet, so split nodes drop prefixes of several lengths, spill
// some keys, and merge across prefix boundaries (or skip such merges).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_prefixed_keys_match_btreemap(
        ops in proptest::collection::vec(
            (0..4usize, proptest::collection::vec(b'0'..b'4', 0..40), 0..6u8, any::<u64>()),
            1..900),
        seed in any::<u32>(),
    ) {
        const PREFIXES: [&[u8]; 4] = [b"", b"user", b"user0000000", b"zz/aaaaaaaaaaaa/"];
        let name = format!("pt-prefixprop-{seed}-{}", ops.len());
        let t = mk(&name);
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (prefix, suffix, op, value) in ops {
            let mut key = [PREFIXES[prefix], &suffix[..]].concat();
            key.truncate(40);
            if key.is_empty() {
                key.push(b'0');
            }
            match op {
                0..=2 => prop_assert_eq!(t.insert(&key, value).unwrap(), model.insert(key, value)),
                3 => {
                    let want = model.get_mut(&key).map(|v| std::mem::replace(v, value));
                    prop_assert_eq!(t.update(&key, value).unwrap(), want);
                }
                4 => prop_assert_eq!(t.remove(&key).unwrap(), model.remove(&key)),
                _ => {
                    let got: Vec<_> = t.scan(&key, 8).into_iter().map(|p| (p.key, p.value)).collect();
                    let want: Vec<_> = model.range(key..).take(8).map(|(k, v)| (k.clone(), *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        // Thin the tree until nodes merge, then write into the merged nodes.
        let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        for (i, k) in keys.iter().enumerate() {
            if i % 8 != 0 {
                prop_assert_eq!(t.remove(k).unwrap(), model.remove(k));
            }
        }
        for (i, k) in keys.iter().enumerate().filter(|(i, _)| i % 4 == 1) {
            prop_assert_eq!(t.insert(k, i as u64).unwrap(), model.insert(k.clone(), i as u64));
        }
        for (k, v) in &model {
            prop_assert_eq!(t.lookup(k), Some(*v));
        }
        let all: Vec<_> = t.scan(b"", usize::MAX >> 1).into_iter().map(|p| (p.key, p.value)).collect();
        let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(all, expect);
        t.check_invariants();
        t.destroy();
    }
}

/// Deletes on 23-byte keys: a merge is skipped when the merged range would
/// not keep the left node's prefix, and goes ahead when it does.
///
/// Inserting ids 127 down to 0 splits the head twice: first into the tail
/// `[96, ∞)`, which has no upper fence and so keeps whole keys, then into
/// `[64, 96)`, whose fences share 21 bytes and whose keys so keep 2 bytes
/// each (width 1). Thinning those two nodes to four keys never merges them:
/// the merged range would reach past any prefix. Thinning the head then
/// merges the prefixed node into it, and then the tail.
#[test]
fn deletes_merge_only_where_the_left_prefix_holds() {
    let t = PacTree::create(PacTreeConfig::named("pt-prefix-merge").with_async_smo(false)).unwrap();
    let key = |i: u64| format!("user{i:019}").into_bytes();
    for i in (0..128u64).rev() {
        t.insert(&key(i), i).unwrap();
    }
    assert_eq!(t.node_shapes(), [(3, 0), (1, 21), (3, 0)]);
    let mut live: BTreeMap<u64, u64> = (0..128).map(|i| (i, i)).collect();
    let check = |live: &BTreeMap<u64, u64>| {
        for i in 0..128u64 {
            assert_eq!(t.lookup(&key(i)), live.get(&i).copied(), "key {i}");
        }
        let all: Vec<_> = t.scan(b"", 1000).into_iter().map(|p| p.value).collect();
        assert_eq!(all, live.values().copied().collect::<Vec<_>>());
        t.check_invariants();
    };
    let merges = || t.stats().merges.load(Ordering::Relaxed);
    for i in (66..96).chain(98..128) {
        assert_eq!(t.remove(&key(i)).unwrap(), live.remove(&i));
    }
    assert_eq!(
        (merges(), t.node_count()),
        (0, 3),
        "prefixed node merged with the tail"
    );
    check(&live);
    for i in 2..64 {
        assert_eq!(t.remove(&key(i)).unwrap(), live.remove(&i));
    }
    assert_eq!((merges(), t.node_shapes()), (2, vec![(3, 0)]));
    check(&live);
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

/// In-place updates race readers and SMOs. Two writers each own every
/// eighth key and raise its value monotonically through `update`; a third
/// thread inserts and removes the six keys between them, so the nodes holding
/// the writers' keys split and merge under the value stores. Readers
/// (`lookup` and `scan`) check that no key's value ever goes down and none
/// exceeds the last value its writer attempted.
#[test]
fn in_place_updates_race_readers_and_smos() {
    const KEYS: u64 = 16_000;
    const WRITERS: u64 = 2;
    let owned = |k: &u64| k % 8 < WRITERS;
    let t = mk("pt-inplace-race");
    for k in (0..KEYS).filter(owned) {
        t.insert(&k.to_be_bytes(), 0).unwrap();
    }
    let stats = t.stats();
    let smos = || {
        (
            stats.splits.load(Ordering::Relaxed),
            stats.merges.load(Ordering::Relaxed),
        )
    };
    let before = smos();
    // attempted[k]: the highest value k's writer has started to store.
    let attempted: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let (tree, attempted, stop) = (&t, &attempted, &stop);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            s.spawn(move || {
                for v in 1.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    for k in (w..KEYS).step_by(8) {
                        attempted[k as usize].store(v, Ordering::SeqCst);
                        assert_eq!(tree.update(&k.to_be_bytes(), v).unwrap(), Some(v - 1));
                    }
                }
            });
        }
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for k in (0..KEYS).filter(|k| !owned(k)) {
                    tree.insert(&k.to_be_bytes(), k).unwrap();
                }
                for k in (0..KEYS).filter(|k| !owned(k)) {
                    tree.remove(&k.to_be_bytes()).unwrap();
                }
            }
        });
        for r in 0..2u64 {
            s.spawn(move || {
                let mut seen = vec![0u64; KEYS as usize];
                let mut check = |k: u64, v: u64| {
                    let limit = attempted[k as usize].load(Ordering::SeqCst);
                    assert!(seen[k as usize] <= v && v <= limit, "key {k} read {v}");
                    seen[k as usize] = v;
                };
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    i += 7919;
                    let k = i % KEYS;
                    if owned(&k) {
                        check(k, tree.lookup(&k.to_be_bytes()).expect("owned key"));
                    }
                    for p in tree.scan(&k.to_be_bytes(), 32) {
                        let k = u64::from_be_bytes(p.key.as_slice().try_into().unwrap());
                        if owned(&k) {
                            check(k, p.value);
                        }
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(800));
        stop.store(true, Ordering::Relaxed);
    });
    let after = smos();
    assert!(
        after.0 > before.0 && after.1 > before.1,
        "SMOs {before:?} -> {after:?}"
    );
    for k in (0..KEYS).filter(owned) {
        let last = attempted[k as usize].load(Ordering::SeqCst);
        assert_eq!(t.lookup(&k.to_be_bytes()), Some(last));
    }
    t.check_invariants();
    t.destroy();
}

/// A split that cannot allocate refuses the insert and leaves nothing
/// behind: no SMO log entry, so `quiesce` still drains, and every
/// acknowledged key reads back.
#[test]
fn full_pool_refuses_inserts_and_leaves_no_smo_entry() {
    let config = PacTreeConfig::named("pt-full").with_pool_size(2 << 20);
    let t = PacTree::create(config).unwrap();
    let mut acked = 0u64;
    let err = loop {
        match t.insert(&acked.to_be_bytes(), acked) {
            Ok(_) => acked += 1,
            Err(e) => break e,
        }
        assert!(acked < 1 << 22, "the pool never filled");
    };
    assert!(matches!(err, pmem::PmemError::OutOfMemory), "{err:?}");
    assert!(
        t.quiesce(std::time::Duration::from_secs(10)),
        "the drain stalled"
    );
    assert_eq!(t.pending_smo_count(), 0, "the failed split left its entry");
    for k in 0..acked {
        assert_eq!(t.lookup(&k.to_be_bytes()), Some(k), "acknowledged key {k}");
    }
    t.destroy();
}
