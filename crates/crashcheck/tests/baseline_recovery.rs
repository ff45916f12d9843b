//! First crash-recovery coverage for the baseline indexes (FastFair,
//! BzTree, FPTree): insert through the roster's durable configuration,
//! crash every backing pool
//! with random cache-eviction noise, remount + recover, and verify every
//! acknowledged key, scan order, and post-recovery writability.
//!
//! PACTree and PDL-ART get the same treatment here for symmetry, though
//! they also have deeper coverage in `crates/pactree/tests/crash_recovery.rs`.

use std::sync::{Mutex, MutexGuard};

use crashcheck::IndexKind;
use pmem::crash::{crash_all, evict_random_lines};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ycsb::KeySpace::Integer;
use ycsb::RangeIndex;

/// Recovering a PACTree or PDL-ART bumps the process-wide lock generation,
/// which releases every version lock in the process; a sibling test's
/// writer mid-split would lose its lock under it. One test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn insert_crash_recover_verify(kind: IndexKind, seed: u64) {
    let _serial = serial();
    let name = format!("bl-rec-{}", kind.slug());
    let idx = kind.create(&name, 4 << 20, Integer, true).expect("create");
    let keys: Vec<u64> = (1..=200u64).collect();
    for &k in &keys {
        idx.insert(&k.to_be_bytes(), k * 2).expect("insert");
    }
    let pools = idx.pools();
    drop(idx);
    pmem::persist::fence();

    // Spontaneous cache writebacks before the power failure: persists lines
    // the program never flushed, so recovery must tolerate them.
    let mut rng = StdRng::seed_from_u64(seed);
    for p in &pools {
        evict_random_lines(p, 64, &mut rng);
    }
    crash_all(&pools, false);

    let rec = kind.recover(&name, 4 << 20).expect("recover");
    for &k in &keys {
        let got = rec.lookup(&k.to_be_bytes());
        assert_eq!(got, Some(k * 2), "{}: key {k}", kind.name());
    }
    let scan = rec.scan_pairs(&[], 1024);
    assert_eq!(scan.len(), keys.len(), "{}: scan count", kind.name());
    assert!(
        scan.windows(2).all(|w| w[0].0 < w[1].0),
        "{}: scan sorted",
        kind.name()
    );
    // The recovered index accepts new writes.
    let k = 10_000u64.to_be_bytes();
    rec.insert(&k, 7).expect("post-recovery insert");
    assert_eq!(rec.lookup(&k), Some(7));
    rec.destroy();
}

#[test]
fn fastfair_insert_crash_recover() {
    insert_crash_recover_verify(IndexKind::FastFair, 11);
}

#[test]
fn bztree_insert_crash_recover() {
    insert_crash_recover_verify(IndexKind::BzTree, 12);
}

#[test]
fn fptree_insert_crash_recover() {
    insert_crash_recover_verify(IndexKind::FpTree, 13);
}

#[test]
fn pactree_insert_crash_recover() {
    insert_crash_recover_verify(IndexKind::PacTree, 14);
}

#[test]
fn pdl_art_insert_crash_recover() {
    insert_crash_recover_verify(IndexKind::PdlArt, 15);
}

/// Recovery after a crash with *no* surviving unflushed data: a fresh
/// index crashed immediately after setup must come back empty and usable.
#[test]
fn recover_empty_index() {
    let _serial = serial();
    for kind in IndexKind::all() {
        let name = format!("bl-empty-{}", kind.slug());
        let idx = kind.create(&name, 2 << 20, Integer, true).expect("create");
        let pools = idx.pools();
        drop(idx);
        pmem::persist::fence();
        crash_all(&pools, false);
        let rec = kind.recover(&name, 2 << 20).expect("recover");
        assert_eq!(rec.scan_pairs(&[], 16), vec![], "{}", kind.name());
        rec.insert(&1u64.to_be_bytes(), 2)
            .expect("insert after empty recovery");
        assert_eq!(rec.lookup(&1u64.to_be_bytes()), Some(2));
        rec.destroy();
    }
}
