//! Node-probe kernel microbenchmark plus an end-to-end A/B of the SIMD
//! dispatch (ISSUE 6 acceptance: ≥2× single-node probe speedup SIMD vs
//! SWAR, ≥10% YCSB-C lookup throughput).
//!
//! Three layers:
//!
//! * **Floor**: ns per PDL-ART `floor` on random non-anchor keys against ns
//!   per exact `get` on present keys, over the ~22k 8-byte anchors a
//!   1M-key PACTree's search layer holds. `floor` is the call every tree
//!   operation makes; the ratio (box speed cancels) must stay ≤ 3 or the
//!   binary exits nonzero — the predecessor step degrading to a per-node
//!   scan reads 7.9 here.
//! * **Micro**: ns-per-probe of the three kernel sets (naive scalar, SWAR
//!   fallback, best vector set for this host) on the two shapes the tree
//!   actually probes — the 64-byte data-node fingerprint array and the
//!   Node16 child-key array — over a rotating pool of 8-aligned arrays so
//!   the SWAR word path (not its misalignment fallback) is what's timed.
//! * **End-to-end**: YCSB-C (100% uniform reads) and a range-scan pass on
//!   a real PACTree, once per dispatch arm. The dispatcher latches its
//!   choice in a `OnceLock` at first use, so each arm runs in a child
//!   process (`--ycsb-arm`) of this same binary: the parent sets or clears
//!   `PACTREE_NO_SIMD` in the child's environment and parses one
//!   `ARM_RESULT ...` line from its stdout. Both arms run DRAM-speed
//!   (NVM model disabled, dilation 1): modeled media stalls would bury a
//!   CPU-kernel delta.
//!
//! Emits `results/bench_node_search.json` (schema `bench_node_search/v2`,
//! stamped with the git commit and workload scale). `--quick` shrinks
//! everything for the CI smoke job.

use std::sync::atomic::AtomicU8;
use std::time::Instant;

use bench::{stamp_json, Scale};
use pactree::search::Art;
use pactree::{simd, PacTree, PacTreeConfig};
use pmem::model::{self, NvmModelConfig};
use pmem::pool::{destroy_pool, PmemPool, PoolConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use ycsb::{driver, Distribution, DriverConfig, KeySpace, Mix, RangeIndex, Workload};

/// 8-aligned like the in-tree `#[repr(C)]` node layouts, so the SWAR arm
/// takes its word path instead of the misalignment fallback.
#[repr(align(8))]
struct Aligned<const N: usize>([AtomicU8; N]);

fn filled<const N: usize>(seed: u64) -> Aligned<N> {
    let mut x = seed | 1;
    Aligned(std::array::from_fn(|_| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        AtomicU8::new((x >> 33) as u8)
    }))
}

/// ns per probe of `f` over a rotating pool of arrays (stays in L1; the
/// tree's hot probes are cache-resident too, that is the regime to time).
fn time_probe<const N: usize>(
    pool: &[Aligned<N>],
    iters: u64,
    mut f: impl FnMut(&[AtomicU8; N], u8) -> u64,
) -> f64 {
    let mut acc = 0u64;
    // Warmup pass outside the timed region.
    for i in 0..iters / 8 {
        let a = &pool[(i as usize) & (pool.len() - 1)];
        acc ^= f(&a.0, i as u8);
    }
    let t0 = Instant::now();
    for i in 0..iters {
        let a = &pool[(i as usize) & (pool.len() - 1)];
        acc ^= f(&a.0, (i as u8).wrapping_mul(0x9E));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    ns / iters as f64
}

struct MicroRow {
    scalar_ns: f64,
    swar_ns: f64,
    simd_ns: f64,
}

fn micro(iters: u64) -> (MicroRow, MicroRow) {
    let pool64: Vec<Aligned<64>> = (0..8).map(|i| filled(0xF1E2 + i)).collect();
    let pool16: Vec<Aligned<16>> = (0..8).map(|i| filled(0xA5A5 + i)).collect();
    let (scalar, swar, best) = (simd::scalar(), simd::swar(), simd::best());
    let fp64 = MicroRow {
        scalar_ns: time_probe(&pool64, iters, |a, b| scalar.fp64(a, b)),
        swar_ns: time_probe(&pool64, iters, |a, b| swar.fp64(a, b)),
        simd_ns: time_probe(&pool64, iters, |a, b| best.fp64(a, b)),
    };
    let n16 = MicroRow {
        scalar_ns: time_probe(&pool16, iters, |a, b| u64::from(scalar.match16(a, b, 16))),
        swar_ns: time_probe(&pool16, iters, |a, b| u64::from(swar.match16(a, b, 16))),
        simd_ns: time_probe(&pool16, iters, |a, b| u64::from(best.match16(a, b, 16))),
    };
    (fp64, n16)
}

/// Anchors in the search layer of a 1M-key PACTree (one per data node).
const FLOOR_ANCHORS: usize = 22_300;
/// Gate on ns/floor ÷ ns/lookup.
const FLOOR_RATIO_BOUND: f64 = 3.0;

/// `(ns per get of a present key, ns per floor of a random key)` over a
/// PDL-ART holding [`FLOOR_ANCHORS`] uniformly random 8-byte keys, at DRAM
/// speed, one thread.
fn floor_vs_lookup(queries: usize) -> (f64, f64) {
    model::set_config(NvmModelConfig::disabled());
    let pool = PmemPool::create(PoolConfig::volatile("bench-node-search-art", 64 << 20))
        .expect("create pool");
    let collector = std::sync::Arc::new(pmem::epoch::Collector::new());
    let art = Art::create(std::sync::Arc::clone(&pool), 0, collector).expect("create art");
    let mut rng = StdRng::seed_from_u64(0xF100);
    let anchors: Vec<[u8; 8]> = (0..FLOOR_ANCHORS)
        .map(|_| rng.gen::<u64>().to_be_bytes())
        .collect();
    for (i, a) in anchors.iter().enumerate() {
        art.insert(a, i as u64 + 1).expect("insert anchor");
    }
    let present: Vec<[u8; 8]> = (0..queries)
        .map(|_| anchors[rng.gen_range(0..anchors.len())])
        .collect();
    let random: Vec<[u8; 8]> = (0..queries)
        .map(|_| rng.gen::<u64>().to_be_bytes())
        .collect();
    fn ns_per_op(keys: &[[u8; 8]], f: impl Fn(&[u8]) -> Option<u64>) -> f64 {
        let pass = || keys.iter().filter_map(|k| f(k)).fold(0, u64::wrapping_add);
        std::hint::black_box(pass()); // warm-up
        let t0 = Instant::now();
        std::hint::black_box(pass());
        t0.elapsed().as_nanos() as f64 / keys.len() as f64
    }
    let lookup_ns = ns_per_op(&present, |k| art.get(k));
    let floor_ns = ns_per_op(&random, |k| art.floor(k));
    drop(art);
    destroy_pool(pool.id());
    (lookup_ns, floor_ns)
}

/// Child-process body: builds a PACTree at DRAM speed, runs YCSB-C and a
/// scan pass under whatever kernel set the environment dispatches, and
/// prints one machine-readable result line.
fn run_arm(quick: bool, scale: &Scale) {
    let keys = if quick { 20_000 } else { scale.keys };
    let ops = if quick { 10_000 } else { scale.ops };
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if quick { 2 } else { host.min(4) };

    pmem::numa::set_topology(1);
    model::set_config(NvmModelConfig::disabled());
    let tree =
        PacTree::create(PacTreeConfig::named("bench-node-search").with_pool_size(scale.pool_size))
            .expect("create pactree");
    driver::populate(&tree, KeySpace::Integer, keys, 4);

    let w = Workload::new(Mix::C, Distribution::Uniform, keys);
    let cfg = DriverConfig {
        threads,
        ops,
        dilation: 1.0,
        ..Default::default()
    };
    // One unmeasured pass to warm caches and the dispatcher before timing.
    driver::run_workload(&tree, &w, KeySpace::Integer, &cfg);
    let report = driver::run_workload(&tree, &w, KeySpace::Integer, &cfg);

    // Range-scan bandwidth: fixed-length scans from random starts, single
    // thread (the jump-chase prefetch targets the per-scan pointer walk).
    let scans = if quick { 500 } else { (ops / 4).max(2_000) };
    let mut rng = StdRng::seed_from_u64(0x5CA7);
    let mut got = 0u64;
    let t0 = Instant::now();
    for _ in 0..scans {
        let start = rng.gen_range(0..keys);
        got += RangeIndex::scan(&tree, &KeySpace::Integer.encode(start), 100) as u64;
    }
    let scan_mkeys = got as f64 * 1e3 / t0.elapsed().as_nanos() as f64;

    println!(
        "ARM_RESULT kernel={} ycsb_c_mops={:.4} scan_mkeys={:.4}",
        simd::active().name(),
        report.mops,
        scan_mkeys
    );
    tree.destroy();
}

struct ArmOut {
    kernel: String,
    mops: f64,
    scan_mkeys: f64,
}

/// Re-execs this binary as `--ycsb-arm`, with `PACTREE_NO_SIMD` forced on
/// (`forced_swar`) or scrubbed, and parses its `ARM_RESULT` line.
fn spawn_arm(quick: bool, forced_swar: bool) -> ArmOut {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--ycsb-arm");
    if quick {
        cmd.arg("--quick");
    }
    if forced_swar {
        cmd.env("PACTREE_NO_SIMD", "1");
    } else {
        cmd.env_remove("PACTREE_NO_SIMD");
    }
    let out = cmd.output().expect("spawn arm");
    assert!(
        out.status.success(),
        "arm failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("ARM_RESULT "))
        .expect("arm printed no ARM_RESULT line");
    let field = |key: &str| -> String {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in {line:?}"))
            .to_string()
    };
    ArmOut {
        kernel: field("kernel"),
        mops: field("ycsb_c_mops").parse().expect("mops"),
        scan_mkeys: field("scan_mkeys").parse().expect("scan_mkeys"),
    }
}

fn pct_delta(simd: f64, swar: f64) -> f64 {
    if swar == 0.0 {
        return 0.0;
    }
    (simd - swar) / swar * 100.0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale::from_env();
    if args.iter().any(|a| a == "--ycsb-arm") {
        run_arm(quick, &scale);
        return;
    }

    let active = simd::active();
    println!("== bench_node_search: probe kernels + dispatch A/B");
    println!(
        "   active kernel set: {} (id {}), PACTREE_NO_SIMD={}",
        active.name(),
        active.id(),
        std::env::var("PACTREE_NO_SIMD").unwrap_or_default()
    );

    let iters = if quick { 200_000 } else { 5_000_000 };
    let (fp64, n16) = micro(iters);
    let speedup = fp64.swar_ns / fp64.simd_ns;
    println!("-- micro (ns/probe, pool of 8 aligned arrays)");
    println!(
        "   {:<22} {:>8} {:>8} {:>8}",
        "shape", "scalar", "swar", "simd"
    );
    println!(
        "   {:<22} {:>8.2} {:>8.2} {:>8.2}",
        "fingerprint fp64", fp64.scalar_ns, fp64.swar_ns, fp64.simd_ns
    );
    println!(
        "   {:<22} {:>8.2} {:>8.2} {:>8.2}",
        "node16 child search", n16.scalar_ns, n16.swar_ns, n16.simd_ns
    );
    println!("   fp64 speedup simd vs swar: {speedup:.2}x (bound: >=2x)");

    let (lookup_ns, floor_ns) = floor_vs_lookup(if quick { 200_000 } else { 2_000_000 });
    let floor_ratio = floor_ns / lookup_ns;
    println!("-- PDL-ART over {FLOOR_ANCHORS} anchors (ns/op, one thread)");
    println!(
        "   lookup (present) {lookup_ns:.1}   floor (random) {floor_ns:.1}   \
         ratio {floor_ratio:.2} (bound: <={FLOOR_RATIO_BOUND})"
    );

    println!("-- end-to-end arms (DRAM speed, YCSB-C uniform + scan pass)");
    let swar_arm = spawn_arm(quick, true);
    let simd_arm = spawn_arm(quick, false);
    let ycsb_delta = pct_delta(simd_arm.mops, swar_arm.mops);
    let scan_delta = pct_delta(simd_arm.scan_mkeys, swar_arm.scan_mkeys);
    println!(
        "   swar arm ({}): ycsb-c {:.3} Mops, scan {:.3} Mkeys/s",
        swar_arm.kernel, swar_arm.mops, swar_arm.scan_mkeys
    );
    println!(
        "   simd arm ({}): ycsb-c {:.3} Mops ({:+.1}%), scan {:.3} Mkeys/s ({:+.1}%)",
        simd_arm.kernel, simd_arm.mops, ycsb_delta, simd_arm.scan_mkeys, scan_delta
    );
    assert_eq!(swar_arm.kernel, "swar", "forced arm must dispatch swar");

    std::fs::create_dir_all("results").expect("mkdir results");
    let json = format!(
        concat!(
            "{{\"schema\":\"bench_node_search/v2\",\"kernel\":\"{}\",\"quick\":{},",
            "\"micro_ns_per_probe\":{{",
            "\"fp64\":{{\"scalar\":{:.3},\"swar\":{:.3},\"simd\":{:.3}}},",
            "\"node16\":{{\"scalar\":{:.3},\"swar\":{:.3},\"simd\":{:.3}}}}},",
            "\"fp64_speedup_simd_vs_swar\":{:.3},",
            "\"floor\":{{\"anchors\":{},\"lookup_ns\":{:.1},\"floor_ns\":{:.1},\"ratio\":{:.3}}},",
            "\"ycsb_c\":{{\"swar_mops\":{:.4},\"simd_mops\":{:.4},\"delta_pct\":{:.2}}},",
            "\"scan\":{{\"swar_mkeys\":{:.4},\"simd_mkeys\":{:.4},\"delta_pct\":{:.2}}},",
            "\"stamp\":{}}}\n"
        ),
        active.name(),
        quick,
        fp64.scalar_ns,
        fp64.swar_ns,
        fp64.simd_ns,
        n16.scalar_ns,
        n16.swar_ns,
        n16.simd_ns,
        speedup,
        FLOOR_ANCHORS,
        lookup_ns,
        floor_ns,
        floor_ratio,
        swar_arm.mops,
        simd_arm.mops,
        ycsb_delta,
        swar_arm.scan_mkeys,
        simd_arm.scan_mkeys,
        scan_delta,
        stamp_json(&scale)
    );
    std::fs::write("results/bench_node_search.json", json).expect("write results json");
    println!("-- wrote results/bench_node_search.json");
    if floor_ratio > FLOOR_RATIO_BOUND {
        eprintln!("FAIL: floor/lookup {floor_ratio:.2} > {FLOOR_RATIO_BOUND}");
        std::process::exit(1);
    }
}
