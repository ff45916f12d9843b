//! Executable checks of the PAC guidelines' measurable claims (§3): the
//! model + index combinations must reproduce each *directional* finding the
//! paper derives its design from.

use std::sync::{Mutex, MutexGuard};

use pmem::model::{self, CoherenceMode, NvmModelConfig};
use pmem::stats;
use ycsb::{driver, DriverConfig, KeySpace, Mix, RangeIndex, Workload};

/// The model's configuration and the counters the drivers report are
/// process-wide: a test measuring with accounting on also counts the traffic
/// of any test populating beside it, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn accounting() {
    model::set_config(NvmModelConfig::accounting());
}

fn off() {
    model::set_config(NvmModelConfig::disabled());
}

/// GA1: a trie lookup consumes less NVM read bandwidth than a B+tree lookup
/// for string keys (partial-key comparisons vs full-key probes).
#[test]
fn ga1_trie_reads_less_than_btree() {
    let _serial = serial();
    let keys = 30_000u64;
    let ff = baselines::fastfair::FastFair::create(
        "ga1-ff",
        512 << 20,
        baselines::fastfair::KeyMode::String,
        false,
    )
    .unwrap();
    let art =
        pdl_art::PdlArt::create(pdl_art::PdlArtConfig::named("ga1-art").with_pool_size(512 << 20))
            .unwrap();
    driver::populate(&ff, KeySpace::String, keys, 2);
    driver::populate(&art, KeySpace::String, keys, 2);

    let w = Workload::uniform(Mix::C, keys);
    let cfg = DriverConfig {
        threads: 2,
        ops: 20_000,
        ..Default::default()
    };
    accounting();
    let r_ff = driver::run_workload(&ff, &w, KeySpace::String, &cfg);
    let r_art = driver::run_workload(&art, &w, KeySpace::String, &cfg);
    off();
    assert!(
        r_ff.stats.media_read_bytes > r_art.stats.media_read_bytes * 3 / 2,
        "B+tree should read substantially more: ff={} art={}",
        r_ff.stats.media_read_bytes,
        r_art.stats.media_read_bytes
    );
    ff.destroy();
    art.destroy();
}

/// GA2: FastFair's reader-visible lock state generates NVM write traffic on
/// a read-only workload; PACTree's optimistic version locks generate none.
#[test]
fn ga2_reader_locks_cost_write_bandwidth() {
    let _serial = serial();
    let keys = 10_000u64;
    let ff = baselines::fastfair::FastFair::create(
        "ga2-ff",
        256 << 20,
        baselines::fastfair::KeyMode::Integer,
        false,
    )
    .unwrap();
    let pac = pactree::PacTree::create(
        pactree::PacTreeConfig::named("ga2-pac").with_pool_size(256 << 20),
    )
    .unwrap();
    driver::populate(&ff, KeySpace::Integer, keys, 2);
    driver::populate(&pac, KeySpace::Integer, keys, 2);
    // Let the async updater drain before measuring.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let w = Workload::uniform(Mix::C, keys);
    let cfg = DriverConfig {
        threads: 2,
        ops: 20_000,
        ..Default::default()
    };
    accounting();
    let r_ff = driver::run_workload(&ff, &w, KeySpace::Integer, &cfg);
    let r_pac = driver::run_workload(&pac, &w, KeySpace::Integer, &cfg);
    off();
    assert!(
        r_ff.stats.media_write_bytes > 1_000_000,
        "FastFair readers should dirty lock lines: {}",
        r_ff.stats.media_write_bytes
    );
    assert!(
        r_pac.stats.media_write_bytes < r_ff.stats.media_write_bytes / 10,
        "PACTree readers must not write: pac={} ff={}",
        r_pac.stats.media_write_bytes,
        r_ff.stats.media_write_bytes
    );
    ff.destroy();
    pac.destroy();
}

/// GA3: per-insert allocation counts — PDL-ART and BzTree allocate per
/// insert; PACTree and FastFair amortize over node capacity.
#[test]
fn ga3_allocation_profiles() {
    let _serial = serial();
    let n = 5_000u64;
    let alloc_per_op = |name: &str, f: &dyn Fn(u64)| -> f64 {
        let before = stats::global().snapshot();
        for i in 0..n {
            f(i);
        }
        let d = stats::global().snapshot().since(&before);
        let per_op = d.allocs as f64 / n as f64;
        println!("{name}: {per_op:.3} allocs/op");
        per_op
    };

    let pac = pactree::PacTree::create(
        pactree::PacTreeConfig::named("ga3-pac").with_pool_size(256 << 20),
    )
    .unwrap();
    let pac_rate = alloc_per_op("pactree", &|i| {
        pac.insert(&i.to_be_bytes(), i).unwrap();
    });
    pac.destroy();

    let art =
        pdl_art::PdlArt::create(pdl_art::PdlArtConfig::named("ga3-art").with_pool_size(256 << 20))
            .unwrap();
    let art_rate = alloc_per_op("pdl-art", &|i| {
        art.insert(&i.to_be_bytes(), i).unwrap();
    });
    art.destroy();

    let bz = baselines::bztree::BzTree::create(
        "ga3-bz",
        512 << 20,
        baselines::fastfair::KeyMode::Integer,
        false,
    )
    .unwrap();
    let bz_rate = alloc_per_op("bztree", &|i| {
        bz.insert(&i.to_be_bytes(), i).unwrap();
    });
    bz.destroy();

    assert!(art_rate >= 0.9, "PDL-ART allocates a leaf per insert");
    assert!(bz_rate >= 0.9, "BzTree allocates a descriptor per insert");
    assert!(
        pac_rate < art_rate / 3.0,
        "PACTree amortizes allocation: {pac_rate} vs {art_rate}"
    );
}

/// GA4: BzTree's PMwCAS-heavy insert flushes far more than PACTree's.
#[test]
fn ga4_flushes_per_insert() {
    let _serial = serial();
    let n = 3_000u64;
    let flushes = |f: &dyn Fn(u64)| -> f64 {
        accounting();
        let before = stats::global().snapshot();
        for i in 0..n {
            f(i);
        }
        let d = stats::global().snapshot().since(&before);
        off();
        d.flushes as f64 / n as f64
    };

    let pac = pactree::PacTree::create(
        pactree::PacTreeConfig::named("ga4-pac").with_pool_size(256 << 20),
    )
    .unwrap();
    let pac_f = flushes(&|i| {
        pac.insert(&i.to_be_bytes(), i).unwrap();
    });
    pac.destroy();

    let bz = baselines::bztree::BzTree::create(
        "ga4-bz",
        512 << 20,
        baselines::fastfair::KeyMode::Integer,
        false,
    )
    .unwrap();
    let bz_f = flushes(&|i| {
        bz.insert(&i.to_be_bytes(), i).unwrap();
    });
    bz.destroy();

    println!("flushes/insert: pactree {pac_f:.1}, bztree {bz_f:.1}");
    assert!(bz_f >= 10.0, "BzTree flush storm: {bz_f}");
    assert!(
        pac_f < bz_f / 2.0,
        "PACTree flushes less: {pac_f} vs {bz_f}"
    );
}

/// FH5: directory coherence turns remote reads into media writes.
#[test]
fn fh5_directory_meltdown() {
    let _serial = serial();
    pmem::numa::set_topology(2);
    let pool =
        pmem::pool::PmemPool::create(pmem::pool::PoolConfig::volatile("fh5", 32 << 20).on_node(1))
            .unwrap();
    let mut cfg = NvmModelConfig::accounting();
    cfg.coherence = CoherenceMode::Directory;
    cfg.cpu_cache_lines = 0;
    model::set_config(cfg);
    pmem::numa::pin_thread(0);
    let before = pool.stats().snapshot();
    for i in 0..10_000u64 {
        model::on_read(pool.id(), (i * 64) % (32 << 20), 64);
    }
    let d = pool.stats().snapshot().since(&before);
    off();
    assert_eq!(d.directory_write_bytes, 10_000 * 64);
    assert!(d.media_read_bytes > 0);
    pmem::pool::destroy_pool(pool.id());
}

/// GC3: HTM aborts grow with data-set size.
#[test]
fn gc3_htm_aborts_grow_with_data() {
    let _serial = serial();
    let rate = |keys: u64, name: &str| -> f64 {
        let fp = baselines::fptree::FpTree::create(name, 512 << 20, false).unwrap();
        driver::populate(&fp, KeySpace::Integer, keys, 2);
        fp.htm.stats.reset();
        let w = Workload::uniform(Mix::ReadInsert, keys);
        let cfg = DriverConfig {
            threads: 4,
            ops: 10_000,
            ..Default::default()
        };
        let _ = driver::run_workload(&fp, &w, KeySpace::Integer, &cfg);
        let rate = fp.htm.stats.aborts_per_op();
        fp.destroy();
        rate
    };
    let small = rate(5_000, "gc3-small");
    let large = rate(500_000, "gc3-large");
    println!("aborts/op: small {small:.3}, large {large:.3}");
    assert!(
        large > small * 2.0,
        "aborts must grow with data size: {small} -> {large}"
    );
}
