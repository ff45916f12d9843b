//! Allocation guard for the per-operation paths: a warm `Art::floor`, a
//! warm `PacTree::lookup` and a warm `PacTree::update` allocate nothing.
//!
//! Its own test binary because it installs a counting `#[global_allocator]`.

mod counting_alloc;

use std::sync::Arc;

use counting_alloc::allocated_by;
use pactree::search::Art;
use pactree::{PacTree, PacTreeConfig};
use pmem::epoch::Collector;
use pmem::pool::{destroy_pool, PmemPool, PoolConfig};

const OPS: u64 = 10_000;

/// 8-byte integer keys and `len`-byte `user…` string keys, scattered like
/// the YCSB key spaces. 40-byte keys make 40-byte anchors, longer than a
/// data node holds in its header.
fn key(id: u64, len: usize) -> Vec<u8> {
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if len == 8 {
        h.to_be_bytes().to_vec()
    } else {
        format!("user{:0w$}", h >> 1, w = len - 4).into_bytes()
    }
}

#[test]
fn warm_art_floor_allocates_nothing() {
    let pool = PmemPool::create(PoolConfig::volatile("zero-alloc-art", 64 << 20)).unwrap();
    let art = Art::create(Arc::clone(&pool), 0, Arc::new(Collector::new())).unwrap();
    for len in [8, 23] {
        // Every fourth id is an "anchor"; the rest are queries that diverge
        // from the trie and take the predecessor path.
        for id in (0..4 * OPS).step_by(4) {
            art.insert(&key(id, len), id + 1).unwrap();
        }
        let queries: Vec<Vec<u8>> = (0..OPS).map(|i| key(4 * i + 1 + i % 3, len)).collect();
        let run = || queries.iter().filter(|q| art.floor(q).is_some()).count();
        let warm = run();
        let mut hits = 0;
        let bytes = allocated_by(|| hits = run());
        assert_eq!(hits, warm);
        assert!(hits > queries.len() / 2, "queries must mostly have a floor");
        assert_eq!(bytes, 0, "{OPS} warm Art::floor calls ({len}-byte keys)");
    }
    destroy_pool(pool.id());
}

#[test]
fn warm_pactree_lookup_allocates_nothing() {
    let tree = PacTree::create(PacTreeConfig::named("zero-alloc-tree")).unwrap();
    for len in [8, 23, 40] {
        for id in 0..OPS {
            tree.insert(&key(id, len), id + 1).unwrap();
        }
        assert!(tree.quiesce(std::time::Duration::from_secs(30)));
        // Present and absent keys alike.
        let queries: Vec<Vec<u8>> = (0..OPS).map(|i| key(i + i % 2 * OPS, len)).collect();
        let run = || queries.iter().filter(|q| tree.lookup(q).is_some()).count();
        let warm = run();
        let mut hits = 0;
        let bytes = allocated_by(|| hits = run());
        assert_eq!(hits, warm);
        assert_eq!(hits as u64, OPS / 2);
        assert_eq!(
            bytes, 0,
            "{OPS} warm PacTree::lookup calls ({len}-byte keys)"
        );
    }
    tree.destroy();
}

#[test]
fn warm_pactree_update_allocates_nothing() {
    let tree = PacTree::create(PacTreeConfig::named("zero-alloc-update")).unwrap();
    let keys: Vec<Vec<u8>> = (0..OPS).map(|id| key(id, 8)).collect();
    for (i, k) in keys.iter().enumerate() {
        tree.insert(k, i as u64).unwrap();
    }
    assert!(tree.quiesce(std::time::Duration::from_secs(30)));
    let run = |round: u64| {
        let updated = keys
            .iter()
            .filter(|k| tree.update(k, round).unwrap().is_some());
        updated.count()
    };
    let mut updated = 0;
    let bytes = allocated_by(|| updated = run(1));
    assert_eq!(updated, keys.len());
    assert_eq!(bytes, 0, "{OPS} warm PacTree::update calls (8-byte keys)");
    tree.destroy();
}
