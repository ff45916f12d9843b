//! Recovery-time comparison (the paper's §1/§4.2 "near-instant recovery"
//! claim): PACTree keeps even its search layer on NVM, so restart is log
//! replay plus a generation bump — O(pending SMOs). DRAM-hybrid designs
//! like FPTree must rebuild their entire inner structure by walking every
//! persistent leaf — O(data).

use std::time::Instant;

use baselines::fptree::FpTree;
use pactree::{PacTree, PacTreeConfig};
use ycsb::{driver, KeySpace};

fn main() {
    let keys: u64 = std::env::var("PAC_KEYS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    println!("== recovery time after loading {keys} keys");

    // PACTree: drop the instance, recover from the pools.
    let mut cfg = PacTreeConfig::named("rt-pac");
    cfg.pool_size = 1 << 30;
    let t = PacTree::create(cfg.clone()).unwrap();
    driver::populate(&t, KeySpace::Integer, keys, 4);
    t.stop_updater();
    drop(t);
    let t0 = Instant::now();
    let t = PacTree::recover(cfg).unwrap();
    let pac_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        t.lookup(&KeySpace::Integer.encode(keys / 2)),
        Some(keys / 2 + 1)
    );
    t.destroy();

    // FPTree: same data volume, inner structure rebuilt from the leaf chain.
    let fp = FpTree::create("rt-fp", 1 << 30).unwrap();
    driver::populate(&fp, KeySpace::Integer, keys, 4);
    let pool_name = "rt-fp";
    drop(fp);
    let t0 = Instant::now();
    let fp = FpTree::recover(pool_name).unwrap();
    let fp_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        fp.lookup(u64::from_be_bytes(
            KeySpace::Integer.encode(keys / 2).try_into().unwrap()
        )),
        Some(keys / 2 + 1)
    );
    fp.destroy();

    println!("PACTree recover: {pac_ms:8.2} ms (NVM search layer: replay + generation bump)");
    println!("FPTree  recover: {fp_ms:8.2} ms (DRAM inner rebuild: walks every leaf)");
    println!(
        "-- FPTree pays {:.1}x more, growing with data size",
        fp_ms / pac_ms.max(1e-6)
    );
}
