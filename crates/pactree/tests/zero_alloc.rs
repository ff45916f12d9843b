//! Allocation guard for the per-operation read path: a warm `Art::floor`
//! and a warm `PacTree::lookup` allocate nothing.
//!
//! Its own test binary because it installs a counting `#[global_allocator]`.
//! The counter is per thread, so the tree's background updater and the test
//! harness's own threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pactree::search::Art;
use pactree::{PacTree, PacTreeConfig};
use pmem::epoch::Collector;
use pmem::pool::{destroy_pool, PmemPool, PoolConfig};

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// SAFETY: every operation is `System`'s; the bookkeeping is one const-init
// thread-local cell (no lazy initialisation, so no allocation of its own).
// `realloc` and `alloc_zeroed` keep their defaults, which call `alloc`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Bytes this thread allocated while `f` ran.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

const OPS: u64 = 10_000;

/// 8-byte integer keys and 23-byte string keys (both ≤ 32 bytes, so data
/// nodes hold them inline), scattered like the YCSB key spaces.
fn key(id: u64, string: bool) -> Vec<u8> {
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if string {
        format!("user{:019}", h >> 1).into_bytes()
    } else {
        h.to_be_bytes().to_vec()
    }
}

#[test]
fn warm_art_floor_allocates_nothing() {
    let pool = PmemPool::create(PoolConfig::volatile("zero-alloc-art", 64 << 20)).unwrap();
    let art = Art::create(Arc::clone(&pool), 0, Arc::new(Collector::new())).unwrap();
    for string in [false, true] {
        // Every fourth id is an "anchor"; the rest are queries that diverge
        // from the trie and take the predecessor path.
        for id in (0..4 * OPS).step_by(4) {
            art.insert(&key(id, string), id + 1).unwrap();
        }
        let queries: Vec<Vec<u8>> = (0..OPS).map(|i| key(4 * i + 1 + i % 3, string)).collect();
        let run = || queries.iter().filter(|q| art.floor(q).is_some()).count();
        let warm = run();
        let mut hits = 0;
        let bytes = allocated_by(|| hits = run());
        assert_eq!(hits, warm);
        assert!(hits > queries.len() / 2, "queries must mostly have a floor");
        assert_eq!(bytes, 0, "{OPS} warm Art::floor calls (string = {string})");
    }
    destroy_pool(pool.id());
}

#[test]
fn warm_pactree_lookup_allocates_nothing() {
    let tree = PacTree::create(PacTreeConfig::named("zero-alloc-tree")).unwrap();
    for string in [false, true] {
        for id in 0..OPS {
            tree.insert(&key(id, string), id + 1).unwrap();
        }
        assert!(tree.quiesce(std::time::Duration::from_secs(30)));
        // Present and absent keys alike.
        let queries: Vec<Vec<u8>> = (0..OPS).map(|i| key(i + i % 2 * OPS, string)).collect();
        let run = || queries.iter().filter(|q| tree.lookup(q).is_some()).count();
        let warm = run();
        let mut hits = 0;
        let bytes = allocated_by(|| hits = run());
        assert_eq!(hits, warm);
        assert_eq!(hits as u64, OPS / 2);
        assert_eq!(
            bytes, 0,
            "{OPS} warm PacTree::lookup calls (string = {string})"
        );
    }
    tree.destroy();
}
