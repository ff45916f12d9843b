//! Behavioural tests for PACTree's configuration space: every Figure 12
//! ablation knob must keep the index correct, and the structural guarantees
//! behind each knob must be observable.

use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};

use pactree::{PacTree, PacTreeConfig};
use pmem::model::{self, NvmModelConfig};

/// The NVM model's configuration and the global counters are process-wide:
/// a test that turns accounting on counts the flushes of every test running
/// beside it, and one that turns it off blinds the others. The tests of this
/// binary run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn check_roundtrip(cfg: PacTreeConfig, tag: &str) {
    let t = PacTree::create(cfg).unwrap();
    for i in 0..3000u64 {
        t.insert(&i.to_be_bytes(), i + 1).unwrap();
    }
    for i in 0..3000u64 {
        assert_eq!(t.lookup(&i.to_be_bytes()), Some(i + 1), "{tag}: key {i}");
    }
    let all = t.scan(b"", 10_000);
    assert_eq!(all.len(), 3000, "{tag}");
    assert!(all.windows(2).all(|w| w[0].key < w[1].key), "{tag}: sorted");
    for i in (0..3000u64).step_by(3) {
        assert_eq!(t.remove(&i.to_be_bytes()).unwrap(), Some(i + 1), "{tag}");
    }
    t.check_invariants();
    t.destroy();
}

#[test]
fn per_numa_pools_variant() {
    let _serial = serial();
    pmem::numa::set_topology(2);
    check_roundtrip(
        PacTreeConfig::named("cfg-numa2")
            .with_pool_size(128 << 20)
            .with_numa_pools(2),
        "numa2",
    );
}

#[test]
fn sync_smo_variant() {
    let _serial = serial();
    check_roundtrip(
        PacTreeConfig::named("cfg-sync")
            .with_pool_size(128 << 20)
            .with_async_smo(false),
        "sync",
    );
}

#[test]
fn persist_permutation_variant() {
    let _serial = serial();
    let mut cfg = PacTreeConfig::named("cfg-permpersist").with_pool_size(128 << 20);
    cfg.persist_permutation = true;
    check_roundtrip(cfg, "perm-persist");
}

#[test]
fn dram_search_layer_variant() {
    let _serial = serial();
    let mut cfg = PacTreeConfig::named("cfg-dram").with_pool_size(128 << 20);
    cfg.search_layer_dram = true;
    check_roundtrip(cfg, "dram-search");
}

#[test]
fn dram_search_layer_is_not_charged() {
    let _serial = serial();
    let mut cfg = PacTreeConfig::named("cfg-dram-charge").with_pool_size(128 << 20);
    cfg.search_layer_dram = true;
    let t = PacTree::create(cfg).unwrap();
    for i in 0..2000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    // With the accounting model on, search-layer reads must not appear in
    // the search pool's media counters.
    model::set_config(NvmModelConfig::accounting());
    for i in 0..2000u64 {
        assert_eq!(t.lookup(&i.to_be_bytes()), Some(i));
    }
    model::set_config(NvmModelConfig::disabled());
    let search_pool = &t.pools()[0];
    assert_eq!(
        search_pool.stats().snapshot().media_read_bytes,
        0,
        "DRAM search layer must not be charged"
    );
    t.destroy();
}

#[test]
fn selective_persistence_saves_flushes() {
    let _serial = serial();
    // Scans with persist_permutation=false must flush strictly less than
    // with it on (the §4.4/Figure 12 claim).
    let flushes_with = scan_flushes("cfg-sp-on", true);
    let flushes_without = scan_flushes("cfg-sp-off", false);
    assert!(
        flushes_without < flushes_with,
        "selective persistence must reduce flushes: {flushes_without} vs {flushes_with}"
    );
}

fn scan_flushes(name: &str, persist_perm: bool) -> u64 {
    let mut cfg = PacTreeConfig::named(name).with_pool_size(128 << 20);
    cfg.persist_permutation = persist_perm;
    let t = PacTree::create(cfg).unwrap();
    for i in 0..2000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    // The updater's replay of the inserts' splits flushes too.
    assert!(t.quiesce(std::time::Duration::from_secs(10)));
    model::set_config(NvmModelConfig::accounting());
    let before = pmem::stats::global().snapshot();
    for i in (0..2000u64).step_by(50) {
        let _ = t.scan(&i.to_be_bytes(), 100);
    }
    let d = pmem::stats::global().snapshot().since(&before);
    model::set_config(NvmModelConfig::disabled());
    t.destroy();
    d.flushes
}

#[test]
fn long_keys_through_the_full_tree() {
    let _serial = serial();
    let t =
        PacTree::create(PacTreeConfig::named("cfg-longkeys").with_pool_size(256 << 20)).unwrap();
    // Keys above the 32-byte inline limit spill to overflow blocks; splits
    // must carry them correctly and anchors may themselves overflow.
    let key = |i: u64| -> Vec<u8> {
        format!("long-prefix-{}-{}", "x".repeat(60), i * 37 % 1000).into_bytes()
    };
    let mut model = std::collections::BTreeMap::new();
    for i in 0..1000u64 {
        let k = key(i);
        model.insert(k.clone(), i);
        t.insert(&k, i).unwrap();
    }
    for (k, v) in &model {
        assert_eq!(t.lookup(k), Some(*v));
    }
    let got: Vec<Vec<u8>> = t.scan(b"long", 10_000).into_iter().map(|p| p.key).collect();
    let expect: Vec<Vec<u8>> = model.keys().cloned().collect();
    assert_eq!(got, expect);
    // Remove half, forcing merges that move overflow keys between nodes.
    for (i, k) in model.keys().enumerate() {
        if i % 2 == 0 {
            t.remove(k).unwrap();
        }
    }
    t.check_invariants();
    t.destroy();
}

#[test]
fn updater_drains_on_nudge() {
    let _serial = serial();
    let t = PacTree::create(PacTreeConfig::named("cfg-updater").with_pool_size(128 << 20)).unwrap();
    for i in 0..5000u64 {
        t.insert(&i.to_be_bytes(), i).unwrap();
    }
    // The async updater should converge quickly once writes stop.
    let mut waited = 0;
    while t.pending_smo_count() > 0 && waited < 1000 {
        std::thread::sleep(std::time::Duration::from_millis(2));
        waited += 1;
    }
    assert_eq!(t.pending_smo_count(), 0, "updater drained");
    assert!(t.stats().smo_replayed.load(Ordering::Relaxed) > 0);
    // After drain, every lookup is a direct hit via the search layer.
    t.stats().reset();
    for i in (0..5000u64).step_by(7) {
        assert_eq!(t.lookup(&i.to_be_bytes()), Some(i));
    }
    assert!(
        t.direct_hit_ratio() > 0.95,
        "drained search layer gives direct hits: {}",
        t.direct_hit_ratio()
    );
    t.destroy();
}

#[test]
fn update_protocol_is_out_of_place() {
    let _serial = serial();
    // §5.5: an update writes a *new* slot and swaps the bitmap — the old
    // slot's value must remain untouched until the swap (we verify the
    // visible effect: version changes and value is replaced atomically).
    let t = PacTree::create(PacTreeConfig::named("cfg-update").with_pool_size(64 << 20)).unwrap();
    t.insert(b"k", 1).unwrap();
    for i in 2..100u64 {
        assert_eq!(t.update(b"k", i).unwrap(), Some(i - 1));
        assert_eq!(t.lookup(b"k"), Some(i));
    }
    // The node never grows beyond one pair.
    assert_eq!(t.count_pairs(), 1);
    t.destroy();
}
