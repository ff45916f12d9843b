//! PDL-ART unit and property tests, checked against `BTreeMap` models.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pmem::epoch::Collector;
use pmem::pool::{destroy_pool, PmemPool, PoolConfig};
use proptest::prelude::*;

use super::Art;

fn mk_art(name: &str) -> (Arc<PmemPool>, Art) {
    let pool = PmemPool::create(PoolConfig::volatile(name, 64 << 20)).unwrap();
    let art = Art::create(Arc::clone(&pool), 0, Arc::new(Collector::new())).unwrap();
    (pool, art)
}

fn mk_art_durable(name: &str) -> (Arc<PmemPool>, Art) {
    let pool = PmemPool::create(PoolConfig::durable(name, 64 << 20)).unwrap();
    let art = Art::create(Arc::clone(&pool), 0, Arc::new(Collector::new())).unwrap();
    (pool, art)
}

#[test]
fn empty_tree_behaviour() {
    let (pool, art) = mk_art("art-empty");
    assert_eq!(art.get(b"missing"), None);
    assert_eq!(art.floor(b"anything"), None);
    assert_eq!(art.max_entry(), None);
    assert!(art.scan(b"", 10).is_empty());
    assert_eq!(art.remove(b"missing").unwrap(), None);
    assert_eq!(art.count_entries(), 0);
    destroy_pool(pool.id());
}

#[test]
fn insert_get_roundtrip() {
    let (pool, art) = mk_art("art-basic");
    assert_eq!(art.insert(b"hello", 1).unwrap(), None);
    assert_eq!(art.insert(b"help", 2).unwrap(), None);
    assert_eq!(art.insert(b"he", 3).unwrap(), None);
    assert_eq!(art.insert(b"world", 4).unwrap(), None);
    assert_eq!(art.get(b"hello"), Some(1));
    assert_eq!(art.get(b"help"), Some(2));
    assert_eq!(art.get(b"he"), Some(3));
    assert_eq!(art.get(b"world"), Some(4));
    assert_eq!(art.get(b"hel"), None);
    assert_eq!(art.get(b"hello!"), None);
    assert_eq!(art.get(b""), None);
    assert_eq!(art.count_entries(), 4);
    destroy_pool(pool.id());
}

#[test]
fn empty_key_is_legal() {
    let (pool, art) = mk_art("art-empty-key");
    assert_eq!(art.insert(b"", 42).unwrap(), None);
    assert_eq!(art.get(b""), Some(42));
    assert_eq!(
        art.floor(b"anything"),
        Some(42),
        "empty key floors everything"
    );
    assert_eq!(art.remove(b"").unwrap(), Some(42));
    assert_eq!(art.get(b""), None);
    destroy_pool(pool.id());
}

#[test]
fn upsert_returns_old_value() {
    let (pool, art) = mk_art("art-upsert");
    assert_eq!(art.insert(b"k", 1).unwrap(), None);
    assert_eq!(art.insert(b"k", 2).unwrap(), Some(1));
    assert_eq!(art.insert(b"k", 3).unwrap(), Some(2));
    assert_eq!(art.get(b"k"), Some(3));
    assert_eq!(art.count_entries(), 1);
    destroy_pool(pool.id());
}

#[test]
fn node_growth_through_all_arities() {
    let (pool, art) = mk_art("art-grow");
    // 256 distinct first bytes forces Node4 -> 16 -> 48 -> 256 growth.
    for b in 0..=255u8 {
        art.insert(&[b, 1], (b as u64) + 1).unwrap();
    }
    for b in 0..=255u8 {
        assert_eq!(art.get(&[b, 1]), Some((b as u64) + 1), "byte {b}");
    }
    assert_eq!(art.count_entries(), 256);
    destroy_pool(pool.id());
}

#[test]
fn removal_and_shrink() {
    let (pool, art) = mk_art("art-shrink");
    for b in 0..=255u8 {
        art.insert(&[b], (b as u64) + 1).unwrap();
    }
    for b in 0..=255u8 {
        assert_eq!(art.remove(&[b]).unwrap(), Some((b as u64) + 1));
        assert_eq!(art.get(&[b]), None);
    }
    assert_eq!(art.count_entries(), 0);
    // Tree still usable afterwards.
    art.insert(b"again", 7).unwrap();
    assert_eq!(art.get(b"again"), Some(7));
    destroy_pool(pool.id());
}

#[test]
fn long_common_prefixes_chain() {
    let (pool, art) = mk_art("art-longprefix");
    let base = vec![7u8; 200];
    let mut k1 = base.clone();
    k1.push(1);
    let mut k2 = base.clone();
    k2.push(2);
    art.insert(&k1, 11).unwrap();
    art.insert(&k2, 22).unwrap();
    assert_eq!(art.get(&k1), Some(11));
    assert_eq!(art.get(&k2), Some(22));
    assert_eq!(art.get(&base), None);
    // A third key diverging mid-prefix.
    let mut k3 = base[..100].to_vec();
    k3.push(9);
    art.insert(&k3, 33).unwrap();
    assert_eq!(art.get(&k3), Some(33));
    assert_eq!(art.get(&k1), Some(11));
    destroy_pool(pool.id());
}

#[test]
fn key_prefix_of_other_key() {
    let (pool, art) = mk_art("art-prefixkeys");
    art.insert(b"a", 1).unwrap();
    art.insert(b"ab", 2).unwrap();
    art.insert(b"abc", 3).unwrap();
    art.insert(b"abcd", 4).unwrap();
    for (k, v) in [(b"a" as &[u8], 1), (b"ab", 2), (b"abc", 3), (b"abcd", 4)] {
        assert_eq!(art.get(k), Some(v));
    }
    assert_eq!(art.remove(b"ab").unwrap(), Some(2));
    assert_eq!(art.get(b"a"), Some(1));
    assert_eq!(art.get(b"abc"), Some(3));
    destroy_pool(pool.id());
}

#[test]
fn floor_semantics() {
    let (pool, art) = mk_art("art-floor");
    for v in [10u64, 20, 30, 40] {
        art.insert(&v.to_be_bytes(), v).unwrap();
    }
    assert_eq!(art.floor(&5u64.to_be_bytes()), None);
    assert_eq!(art.floor(&10u64.to_be_bytes()), Some(10), "exact match");
    assert_eq!(art.floor(&15u64.to_be_bytes()), Some(10));
    assert_eq!(art.floor(&30u64.to_be_bytes()), Some(30));
    assert_eq!(art.floor(&99u64.to_be_bytes()), Some(40));
    assert_eq!(art.max_entry().map(|(_, v)| v), Some(40));
    destroy_pool(pool.id());
}

#[test]
fn scan_in_order_from_bound() {
    let (pool, art) = mk_art("art-scan");
    for v in (0..100u64).rev() {
        art.insert(&(v * 3).to_be_bytes(), v * 3 + 1).unwrap();
    }
    let got = art.scan(&10u64.to_be_bytes(), 5);
    let keys: Vec<u64> = got
        .iter()
        .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
        .collect();
    assert_eq!(keys, vec![12, 15, 18, 21, 24]);
    for (k, v) in &got {
        let kk = u64::from_be_bytes(k.as_slice().try_into().unwrap());
        assert_eq!(*v, kk + 1);
    }
    // Scan beyond the end.
    assert!(art.scan(&1000u64.to_be_bytes(), 5).is_empty());
    // Scan everything.
    assert_eq!(art.scan(b"", 1000).len(), 100);
    destroy_pool(pool.id());
}

#[test]
fn dense_u64_keys_model_check() {
    let (pool, art) = mk_art("art-dense");
    let mut model = BTreeMap::new();
    for i in 0..4096u64 {
        let k = (i * 2654435761) % 8192; // pseudo-random with collisions
        let kb = k.to_be_bytes();
        let old_m = model.insert(k, i + 1);
        let old_a = art.insert(&kb, i + 1).unwrap();
        assert_eq!(old_a, old_m, "upsert old value for key {k}");
    }
    for (&k, &v) in &model {
        assert_eq!(art.get(&k.to_be_bytes()), Some(v));
    }
    assert_eq!(art.count_entries(), model.len());
    destroy_pool(pool.id());
}

#[test]
fn concurrent_disjoint_inserts() {
    let _gate = crate::lock::generation_gate::lock_holding();
    let (pool, art) = mk_art("art-conc-ins");
    let art = Arc::new(art);
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let art = Arc::clone(&art);
        handles.push(std::thread::spawn(move || {
            for i in 0..2000u64 {
                let k = (t << 32) | i;
                art.insert(&k.to_be_bytes(), k + 1).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..8u64 {
        for i in 0..2000u64 {
            let k = (t << 32) | i;
            assert_eq!(art.get(&k.to_be_bytes()), Some(k + 1));
        }
    }
    assert_eq!(art.count_entries(), 16000);
    destroy_pool(pool.id());
}

#[test]
fn concurrent_mixed_readers_writers() {
    let _gate = crate::lock::generation_gate::lock_holding();
    let (pool, art) = mk_art("art-conc-mix");
    let art = Arc::new(art);
    for i in 0..1000u64 {
        art.insert(&i.to_be_bytes(), i + 1).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    // Writers churn a disjoint key range.
    for t in 0..4u64 {
        let art = Arc::clone(&art);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let k = 10_000 + (t << 20) + (i % 500);
                art.insert(&k.to_be_bytes(), k + 1).unwrap();
                if i.is_multiple_of(3) {
                    art.remove(&k.to_be_bytes()).unwrap();
                }
                i += 1;
            }
        }));
    }
    // Readers verify the stable range remains intact.
    for _ in 0..4 {
        let art = Arc::clone(&art);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rounds = 0;
            while !stop.load(Ordering::Relaxed) {
                for i in (0..1000u64).step_by(37) {
                    assert_eq!(art.get(&i.to_be_bytes()), Some(i + 1));
                    let f = art.floor(&i.to_be_bytes());
                    assert_eq!(f, Some(i + 1));
                }
                rounds += 1;
                if rounds > 50 {
                    break;
                }
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    for i in 0..1000u64 {
        assert_eq!(art.get(&i.to_be_bytes()), Some(i + 1));
    }
    art.collector().flush();
    destroy_pool(pool.id());
}

#[test]
fn crash_recovery_preserves_persisted_inserts() {
    let _gate = crate::lock::generation_gate::bumping();
    let (pool, art) = mk_art_durable("art-crash1");
    for i in 0..500u64 {
        art.insert(&i.to_be_bytes(), i + 1).unwrap();
    }
    pool.simulate_crash(false);
    crate::lock::bump_global_generation();
    pool.allocator().recover_logs();
    let art2 = Art::create(Arc::clone(&pool), 0, Arc::new(Collector::new())).unwrap();
    art2.recover();
    for i in 0..500u64 {
        assert_eq!(art2.get(&i.to_be_bytes()), Some(i + 1), "key {i} lost");
    }
    destroy_pool(pool.id());
}

#[test]
fn crash_recovery_after_moved_base() {
    let _gate = crate::lock::generation_gate::bumping();
    let (pool, art) = mk_art_durable("art-crash2");
    for i in 0..300u64 {
        art.insert(&(i * 7).to_be_bytes(), i + 1).unwrap();
    }
    pool.simulate_crash(true); // remount at a different address
    crate::lock::bump_global_generation();
    pool.allocator().recover_logs();
    let art2 = Art::create(Arc::clone(&pool), 0, Arc::new(Collector::new())).unwrap();
    art2.recover();
    for i in 0..300u64 {
        assert_eq!(art2.get(&(i * 7).to_be_bytes()), Some(i + 1));
    }
    // And the tree is still writable.
    art2.insert(b"post-crash", 9).unwrap();
    assert_eq!(art2.get(b"post-crash"), Some(9));
    destroy_pool(pool.id());
}

// ---------------------------------------------------------------------------
// Property tests against a BTreeMap model
// ---------------------------------------------------------------------------

static PROP_POOL_ID: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn fresh_name(prefix: &str) -> String {
    format!(
        "{prefix}-{}",
        PROP_POOL_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_matches_btreemap(ops in proptest::collection::vec(
        (proptest::collection::vec(any::<u8>(), 0..12), 1..4u8), 1..300)
    ) {
        let (pool, art) = mk_art(&fresh_name("art-prop"));
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut val = 1u64;
        for (key, op) in ops {
            match op {
                1 | 3 => {
                    val += 1;
                    let old_a = art.insert(&key, val).unwrap();
                    let old_m = model.insert(key, val);
                    prop_assert_eq!(old_a, old_m);
                }
                _ => {
                    let old_a = art.remove(&key).unwrap();
                    let old_m = model.remove(&key);
                    prop_assert_eq!(old_a, old_m);
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(art.get(k), Some(*v));
        }
        prop_assert_eq!(art.count_entries(), model.len());
        destroy_pool(pool.id());
    }

    #[test]
    fn prop_floor_matches_btreemap(
        keys in proptest::collection::btree_set(
            proptest::collection::vec(any::<u8>(), 0..10), 1..100),
        queries in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..10), 1..50),
    ) {
        let (pool, art) = mk_art(&fresh_name("art-prop-floor"));
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
            model.insert(k.clone(), i as u64 + 1);
        }
        for q in &queries {
            let expect = model.range::<Vec<u8>, _>(..=q.clone()).next_back()
                .map(|(k, v)| (k.clone(), *v));
            let got = art.floor_entry(q);
            prop_assert_eq!(got, expect, "floor({:?})", q);
        }
        destroy_pool(pool.id());
    }

    #[test]
    fn prop_scan_matches_btreemap(
        keys in proptest::collection::btree_set(
            proptest::collection::vec(any::<u8>(), 0..8), 1..120),
        start in proptest::collection::vec(any::<u8>(), 0..8),
        limit in 1..40usize,
    ) {
        let (pool, art) = mk_art(&fresh_name("art-prop-scan"));
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
            model.insert(k.clone(), i as u64 + 1);
        }
        let expect: Vec<(Vec<u8>, u64)> = model
            .range::<Vec<u8>, _>(start.clone()..)
            .take(limit)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let got = art.scan(&start, limit);
        prop_assert_eq!(got, expect);
        destroy_pool(pool.id());
    }
}

// ---------------------------------------------------------------------------
// Structural tests: arity transitions, shrink, splice, husk cleanup
// ---------------------------------------------------------------------------

#[test]
fn census_tracks_growth_and_shrink() {
    let (pool, art) = mk_art("art-census");
    // 200 children under the root forces Node4 -> 16 -> 48 -> 256.
    for b in 0..200u8 {
        art.insert(&[b, 0], b as u64 + 1).unwrap();
    }
    let (leaves, _, _, _, n256) = art.node_census();
    assert_eq!(leaves, 200);
    assert!(n256 >= 1, "root should have grown to Node256");
    // Remove most children: shrink transitions bring the arity back down.
    for b in 0..195u8 {
        art.remove(&[b, 0]).unwrap();
    }
    art.collector().flush();
    let (leaves, n4, n16, _, n256) = art.node_census();
    assert_eq!(leaves, 5);
    assert_eq!(n256, 0, "Node256 must have shrunk away");
    assert!(n4 + n16 >= 1);
    destroy_pool(pool.id());
}

#[test]
fn splice_removes_single_child_chains() {
    let (pool, art) = mk_art("art-splice");
    // Two keys with a long shared prefix create an inner node; removing one
    // leaves a single-child node that must be spliced away.
    art.insert(b"shared-prefix-alpha", 1).unwrap();
    art.insert(b"shared-prefix-beta", 2).unwrap();
    let before = art.node_census();
    art.remove(b"shared-prefix-beta").unwrap();
    art.collector().flush();
    let after = art.node_census();
    assert_eq!(after.0, 1, "one leaf left");
    // The inner node joining the two keys must be gone (leaf promoted).
    assert!(
        after.1 + after.2 + after.3 + after.4 < before.1 + before.2 + before.3 + before.4,
        "inner nodes must shrink: {before:?} -> {after:?}"
    );
    assert_eq!(art.get(b"shared-prefix-alpha"), Some(1));
    destroy_pool(pool.id());
}

#[test]
fn oplog_abort_frees_orphans() {
    // A failed optimistic attempt must free its trial allocations: churn
    // under contention and verify the allocator balance afterwards.
    let (pool, art) = mk_art("art-oplog-balance");
    let art = Arc::new(art);
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let art = Arc::clone(&art);
        handles.push(std::thread::spawn(move || {
            // Overlapping key ranges maximize conflicts (and thus aborted
            // attempts with allocated-but-unlinked nodes).
            for i in 0..3000u64 {
                let k = (i % 512).to_be_bytes();
                art.insert(&k, t * 10_000 + i + 1).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    art.collector().flush();
    // Recovery sweep finds nothing to reclaim: every logged allocation was
    // either linked or freed by its OpLog.
    assert_eq!(art.recover(), 0, "no leaked trial allocations");
    for i in 0..512u64 {
        assert!(art.get(&i.to_be_bytes()).is_some());
    }
    destroy_pool(pool.id());
}

#[test]
fn node48_index_paths() {
    let (pool, art) = mk_art("art-n48");
    // Fill to Node48 range (17..=48 children), then delete and reinsert to
    // exercise index tombstones and slot reuse.
    for b in 0..40u8 {
        art.insert(&[b], b as u64 + 1).unwrap();
    }
    let (_, _, _, n48, _) = art.node_census();
    assert!(n48 >= 1, "root should be a Node48");
    for b in (0..40u8).step_by(2) {
        assert_eq!(art.remove(&[b]).unwrap(), Some(b as u64 + 1));
    }
    for b in (0..40u8).step_by(2) {
        art.insert(&[b], b as u64 + 100).unwrap();
    }
    for b in 0..40u8 {
        let expect = if b % 2 == 0 {
            b as u64 + 100
        } else {
            b as u64 + 1
        };
        assert_eq!(art.get(&[b]), Some(expect), "byte {b}");
    }
    destroy_pool(pool.id());
}

// ---------------------------------------------------------------------------
// Predecessor descent: `floor` against `BTreeMap::range(..=k).next_back()`
// ---------------------------------------------------------------------------

/// xorshift64*: the proptest stand-in has no `prop_map`, so structured keys
/// are derived from a generated seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Keys that put a Node4, a Node16, a Node48 and a Node256 under one root
/// (four top-level branches with fan-outs 3/12/40/200), with keys that are
/// proper prefixes of other keys at every level (`end_child`), plus a run
/// of integer keys and a run of 23-byte string keys.
fn arity_keys(rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut keys = Vec::new();
    for (branch, fanout) in [(0x10u8, 3u64), (0x20, 12), (0x30, 40), (0x40, 200)] {
        keys.push(vec![branch]); // prefix of everything below: end child
        let step = 255 / fanout;
        for i in 0..fanout {
            let b = (1 + i * step) as u8;
            keys.push(vec![branch, b, rng.below(256) as u8, rng.below(256) as u8]);
            if rng.below(3) == 0 {
                keys.push(vec![branch, b]); // end child one level down
            }
        }
    }
    let base = rng.next() | (0x50 << 56);
    let stride = [1, 3, 257, 65_537][rng.below(4) as usize];
    keys.extend((0..300u64).map(|i| {
        (base.wrapping_add(i * stride) | (0x50 << 56))
            .to_be_bytes()
            .to_vec()
    }));
    let id0 = rng.below(1 << 40);
    keys.extend(
        (0..150).map(|i| format!("user{:019}", id0 + i * (1 + rng.below(50))).into_bytes()),
    );
    keys
}

/// Queries around `keys`: hits, near misses on either side, shorter and
/// longer relatives, and the two ends of the key space.
fn floor_queries(rng: &mut Rng, keys: &[Vec<u8>], n: usize) -> Vec<Vec<u8>> {
    let mut out = vec![vec![], vec![0], vec![0xFF; 24]];
    for _ in 0..n {
        let mut q = keys[rng.below(keys.len() as u64) as usize].clone();
        match rng.below(6) {
            0 => {}
            1 => q.truncate(rng.below(q.len() as u64 + 1) as usize),
            2 => q.push(rng.below(256) as u8),
            3 | 4 if !q.is_empty() => {
                let i = rng.below(q.len() as u64) as usize;
                q[i] = q[i].wrapping_add(if rng.below(2) == 0 { 1 } else { 0xFF });
            }
            _ => q = (0..rng.below(10)).map(|_| rng.below(256) as u8).collect(),
        }
        out.push(q);
    }
    out
}

fn assert_floors_match(
    art: &Art,
    root: Option<u64>,
    model: &BTreeMap<Vec<u8>, u64>,
    qs: &[Vec<u8>],
) {
    for q in qs {
        let want = model.range::<Vec<u8>, _>(..=q).next_back();
        match root {
            None => {
                assert_eq!(art.floor(q), want.map(|(_, v)| *v), "floor({q:?})");
                let want = want.map(|(k, v)| (k.clone(), *v));
                assert_eq!(art.floor_entry(q), want, "floor_entry({q:?})");
            }
            Some(root) => {
                assert_eq!(
                    art.floor_from(root, q),
                    want.map(|(_, v)| *v),
                    "floor_from({q:?})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_floor_all_arities_husks_and_cow_roots(seed in any::<u64>()) {
        let _gate = crate::lock::generation_gate::lock_holding();
        let mut rng = Rng(seed | 1);
        let (pool, art) = mk_art(&fresh_name("art-prop-pred"));
        let keys = arity_keys(&mut rng);
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
            model.insert(k.clone(), i as u64 + 1);
        }
        let (_, n4, n16, n48, n256) = art.node_census();
        prop_assert!(n4 > 0 && n16 > 0 && n48 > 0 && n256 > 0,
            "census {:?}", art.node_census());
        assert_floors_match(&art, None, &model, &floor_queries(&mut rng, &keys, 400));

        // Remove one whole branch (its nodes empty out to husks and
        // tombstoned slots that `floor` must step over) and a random third
        // of everything else.
        let doomed = [0x10u8, 0x20, 0x30, 0x40][rng.below(4) as usize];
        for k in &keys {
            if k[0] == doomed || rng.below(3) == 0 {
                prop_assert_eq!(art.remove(k).unwrap(), model.remove(k));
            }
        }
        assert_floors_match(&art, None, &model, &floor_queries(&mut rng, &keys, 400));

        // Capture a COW root, keep mutating the live tree, and check both
        // views: the captured root answers as of the capture.
        art.cow_enter();
        let pin = art.collector().pin_owned();
        art.quiesce_inplace();
        let root = art.current_root();
        let frozen = model.clone();
        for (i, k) in keys.iter().enumerate() {
            match rng.below(4) {
                0 => {
                    art.insert(k, 10_000 + i as u64).unwrap();
                    model.insert(k.clone(), 10_000 + i as u64);
                }
                1 => prop_assert_eq!(art.remove(k).unwrap(), model.remove(k)),
                _ => {}
            }
        }
        let qs = floor_queries(&mut rng, &keys, 400);
        assert_floors_match(&art, Some(root), &frozen, &qs);
        assert_floors_match(&art, None, &model, &qs);
        art.cow_exit();
        drop(pin);
        destroy_pool(pool.id());
    }
}

/// Readers race writers that insert and remove keys of a known universe;
/// every answer must be a universe key that is ≤ the query (`floor` may be
/// stale under concurrency, never wrong about order or invented).
#[test]
fn concurrent_floor_returns_inserted_predecessors() {
    let _gate = crate::lock::generation_gate::lock_holding();
    const UNIVERSE: u64 = 4096;
    const WRITERS: u64 = 3;
    const READERS: usize = 3;
    // Spread over the low two bytes so churn reshapes Node48/Node256 nodes.
    let key_of = |id: u64| (id * 37).to_be_bytes();
    let (pool, art) = mk_art("art-conc-floor");
    art.insert(&key_of(0), 1).unwrap(); // permanent minimum: floor is never None
    let start = std::sync::Barrier::new(WRITERS as usize + READERS);
    let writers_left = std::sync::atomic::AtomicU64::new(WRITERS);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (art, start, writers_left) = (&art, &start, &writers_left);
            s.spawn(move || {
                // Signs out even if this writer panics, so the readers stop
                // and the scope reports the panic instead of spinning.
                struct SignOut<'a>(&'a std::sync::atomic::AtomicU64);
                impl Drop for SignOut<'_> {
                    fn drop(&mut self) {
                        self.0.fetch_sub(1, Ordering::Release);
                    }
                }
                let _sign_out = SignOut(writers_left);
                let mut rng = Rng(0x9E37_79B9 + w);
                start.wait();
                for _ in 0..40_000 {
                    let id = 1 + rng.below(UNIVERSE - 1);
                    if rng.below(2) == 0 {
                        art.insert(&key_of(id), id + 1).unwrap();
                    } else {
                        art.remove(&key_of(id)).unwrap();
                    }
                }
            });
        }
        for r in 0..READERS {
            let (art, start, writers_left) = (&art, &start, &writers_left);
            s.spawn(move || {
                let mut rng = Rng(0xC0FF_EE00 + r as u64);
                start.wait();
                while writers_left.load(Ordering::Acquire) != 0 {
                    let q = rng.below(UNIVERSE * 37 + 100).to_be_bytes();
                    let (k, v) = art.floor_entry(&q).expect("minimum key is permanent");
                    assert!(k.as_slice() <= q.as_slice(), "floor({q:?}) = {k:?}");
                    assert!(v >= 1 && v <= UNIVERSE, "value {v} was never inserted");
                    assert_eq!(k, key_of(v - 1), "leaf key and value disagree");
                }
            });
        }
    });
    art.collector().flush();
    destroy_pool(pool.id());
}
