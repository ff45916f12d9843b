//! Microbenchmark of the always-on observability layer's own cost.
//!
//! Every index operation pays one `obsv::OpTimer` pair (two TSC reads)
//! plus one relaxed striped `fetch_add` into a latency histogram. This
//! binary quantifies that cost on the path where it is proportionally
//! largest: uniform random lookups on PACTree with the NVM model disabled
//! (no modeled stalls to hide behind).
//!
//! Method: the run is split into many short slices; recording is toggled
//! (`obsv::set_enabled`) at barrier-synchronized slice boundaries. The
//! overhead estimate is the **median of per-pair ratios**: each adjacent
//! (on, off) slice pair executes within a few ms of each other and so
//! shares the host's noise regime, the order within a pair alternates
//! pair by pair (a fixed on-first order measurably biased "on" by ~2pp),
//! and the median discards the pairs where a scheduler stall landed
//! inside just one slice. Per-arm aggregates (plain sums, then
//! 20%-trimmed means) were tried first and still showed 3–18%
//! run-to-run spread on this 1-vCPU shared VM; coarse round-interleaving
//! was worse at ±30%. The bound (<5%) applies to the default sampling
//! config
//! (`obsv::DEFAULT_SAMPLE_SHIFT`, latency timed 1-in-16 with exact
//! counts); the full-fidelity config (`sample_shift = 0`, every op pays
//! the clock pair) is measured and reported too, for the record. A third
//! config wraps every lookup in the request-tracing path
//! (`stamp`/`span`/`finish_root` at the default 1-in-64 tail sampling) and
//! compares it against the recording-on baseline (bound: <5% vs the
//! pre-tracing observability baseline). Results feed the EXPERIMENTS.md
//! observability section.
//!
//! A fourth arm measures the **time-series scrape loop** (`obsv::Scraper`
//! into `obsv::Tsdb`): both sides keep recording on, and the toggle is a
//! background scraper sampling the whole global registry — every gauge
//! callback (including PACTree's O(n) occupancy walk) plus a full
//! histogram snapshot per tick. Scrapes at the production 1 s cadence
//! would land in almost no ~ms slice, so the arm scrapes at a deliberately
//! brutal `PAC_OBSV_SCRAPE_MS` interval (default 10 ms, 100x production)
//! and reports both the raw overhead at that cadence and the number
//! linearly rescaled to the 1 s production interval, which is what the
//! <1% acceptance bound applies to. Scraping is a whole-arm toggle (the
//! scraper runs across slice boundaries), so this arm pairs trimmed
//! per-arm means from back-to-back runs instead of adjacent slices, with
//! the arm order alternating per trial.
//!
//! Results are stamped into `results/obsv_overhead.json` (schema
//! `obsv_overhead/v1`).
//!
//! Env knobs: `PAC_KEYS` (default 50k), `PAC_OBSV_OPS` (lookups per
//! thread per slice, default 2k), `PAC_OBSV_SLICES` (default 240),
//! `PAC_OBSV_THREADS` (default: host parallelism, capped at 4),
//! `PAC_OBSV_SCRAPE_MS` (default 10).
//! `--quick` shrinks everything for the CI smoke job.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use obsv::trace::{self, SpanKind, TraceOutcome};
use pactree::{PacTree, PacTreeConfig};
use pmem::model::{self, NvmModelConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use ycsb::{driver, KeySpace};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `slices` barrier-synchronized lookup slices, toggling the
/// measured feature between slices (even = on, odd = off). With
/// `traced = false` the toggle is histogram recording
/// (`obsv::set_enabled`); with `traced = true` recording stays on in
/// both arms and the toggle is the per-op tracing wrapper
/// (`stamp`/`span`/`finish_root` around every lookup), so the "off" arm
/// is exactly the pre-tracing observability baseline. Returns per-slice
/// wall-clock nanoseconds per arm: `(on_slices, off_slices)`.
fn run_sliced(
    tree: &PacTree,
    keys: u64,
    threads: usize,
    slice_ops: u64,
    slices: u64,
    traced: bool,
) -> (Vec<u64>, Vec<u64>) {
    let start_barrier = Barrier::new(threads + 1);
    let end_barrier = Barrier::new(threads + 1);
    let arm_on = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (start_barrier, end_barrier, arm_on) = (&start_barrier, &end_barrier, &arm_on);
            s.spawn(move || {
                pmem::numa::pin_thread_round_robin();
                let mut rng = StdRng::seed_from_u64(0xB0B ^ (t as u64).wrapping_mul(0x9E37));
                for _ in 0..slices {
                    start_barrier.wait();
                    if traced && arm_on.load(Ordering::Relaxed) {
                        for _ in 0..slice_ops {
                            let id = rng.gen_range(0..keys);
                            let ctx = trace::stamp();
                            let t0 = if ctx.is_sampled() {
                                obsv::clock::now_ns()
                            } else {
                                0
                            };
                            {
                                let _g = trace::span(ctx, SpanKind::IndexOp, 0);
                                std::hint::black_box(tree.lookup(&KeySpace::Integer.encode(id)));
                            }
                            trace::finish_root(ctx, t0, TraceOutcome::Ok);
                        }
                    } else {
                        for _ in 0..slice_ops {
                            let id = rng.gen_range(0..keys);
                            std::hint::black_box(tree.lookup(&KeySpace::Integer.encode(id)));
                        }
                    }
                    end_barrier.wait();
                }
            });
        }
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for slice in 0..slices {
            // Adjacent slices form an (on, off) pair; the order within
            // the pair alternates pair by pair so first-slot effects
            // (barrier wake pattern, steal-quantum phase) cancel instead
            // of biasing one arm.
            let enabled = (slice % 2 == 0) ^ ((slice / 2) % 2 == 1);
            if traced {
                arm_on.store(enabled, Ordering::Relaxed);
            } else {
                obsv::set_enabled(enabled);
            }
            start_barrier.wait();
            let t0 = Instant::now();
            end_barrier.wait();
            let ns = t0.elapsed().as_nanos() as u64;
            if enabled { &mut on } else { &mut off }.push(ns);
        }
        obsv::set_enabled(true);
        (on, off)
    })
}

/// Runs `slices` barrier-paced lookup slices with recording enabled
/// throughout (nothing toggles between slices) and returns per-slice wall
/// nanoseconds — one arm of the scraper measurement.
fn run_plain_slices(
    tree: &PacTree,
    keys: u64,
    threads: usize,
    slice_ops: u64,
    slices: u64,
) -> Vec<u64> {
    let start_barrier = Barrier::new(threads + 1);
    let end_barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (start_barrier, end_barrier) = (&start_barrier, &end_barrier);
            s.spawn(move || {
                pmem::numa::pin_thread_round_robin();
                let mut rng = StdRng::seed_from_u64(0xACE ^ (t as u64).wrapping_mul(0x9E37));
                for _ in 0..slices {
                    start_barrier.wait();
                    for _ in 0..slice_ops {
                        let id = rng.gen_range(0..keys);
                        std::hint::black_box(tree.lookup(&KeySpace::Integer.encode(id)));
                    }
                    end_barrier.wait();
                }
            });
        }
        let mut ns = Vec::with_capacity(slices as usize);
        for _ in 0..slices {
            start_barrier.wait();
            let t0 = Instant::now();
            end_barrier.wait();
            ns.push(t0.elapsed().as_nanos() as u64);
        }
        ns
    })
}

/// One scraper trial: the same slice workload once with a background
/// [`obsv::Scraper`] pulling the global registry every `interval`, once
/// without (order given by `scraper_first`). Returns
/// `(on_mops, off_mops, overhead_pct)` from the trimmed per-arm means.
fn measure_scraper(
    tree: &PacTree,
    keys: u64,
    threads: usize,
    slice_ops: u64,
    slices: u64,
    interval: std::time::Duration,
    scraper_first: bool,
) -> (f64, f64, f64) {
    let run_arm = |scraping: bool| -> Vec<u64> {
        if scraping {
            let tsdb = obsv::Tsdb::with_retention(interval, std::time::Duration::from_secs(60));
            let scraper = obsv::Scraper::start(tsdb, interval, None);
            let ns = run_plain_slices(tree, keys, threads, slice_ops, slices);
            scraper.stop();
            ns
        } else {
            run_plain_slices(tree, keys, threads, slice_ops, slices)
        }
    };
    let (on, off) = if scraper_first {
        let on = run_arm(true);
        (on, run_arm(false))
    } else {
        let off = run_arm(false);
        (run_arm(true), off)
    };
    let slice_total_ops = (threads as u64 * slice_ops) as f64;
    let on_ns = trimmed_mean_ns(&on);
    let off_ns = trimmed_mean_ns(&off);
    (
        slice_total_ops * 1e3 / on_ns,
        slice_total_ops * 1e3 / off_ns,
        (on_ns - off_ns) / off_ns * 100.0,
    )
}

/// Mean of the middle 60% of `slices` (20% trimmed from each end); used
/// only for the displayed per-arm throughputs.
fn trimmed_mean_ns(slices: &[u64]) -> f64 {
    let mut v = slices.to_vec();
    v.sort_unstable();
    let trim = v.len() / 5;
    let mid = &v[trim..v.len() - trim];
    mid.iter().sum::<u64>() as f64 / mid.len() as f64
}

/// One measured configuration at the current sampling config: returns
/// `(on_mops, off_mops, overhead_pct)` where the overhead is the median
/// of per-adjacent-pair slowdown ratios `(on_i - off_i) / off_i`.
fn measure(
    tree: &PacTree,
    keys: u64,
    threads: usize,
    slice_ops: u64,
    slices: u64,
    traced: bool,
) -> (f64, f64, f64) {
    let (on, off) = run_sliced(tree, keys, threads, slice_ops, slices, traced);
    let slice_total_ops = (threads as u64 * slice_ops) as f64;
    let on_mops = slice_total_ops * 1e3 / trimmed_mean_ns(&on);
    let off_mops = slice_total_ops * 1e3 / trimmed_mean_ns(&off);
    let mut ratios: Vec<f64> = on
        .iter()
        .zip(off.iter())
        .map(|(&a, &b)| (a as f64 - b as f64) / b as f64 * 100.0)
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead = ratios[ratios.len() / 2];
    (on_mops, off_mops, overhead)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let keys = if quick {
        10_000
    } else {
        env_u64("PAC_KEYS", 50_000)
    };
    let slice_ops = if quick {
        1_500
    } else {
        env_u64("PAC_OBSV_OPS", 2_000)
    };
    let slices = if quick {
        40
    } else {
        env_u64("PAC_OBSV_SLICES", 240)
    };
    // Match the host's real parallelism: unlike the figure binaries this
    // bench measures *cost*, and oversubscribing a small VM (this box
    // often exposes 1 vCPU) only adds scheduler churn to both arms. Its
    // own knob, so run_figures.sh's PAC_THREADS scale doesn't apply.
    let host = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let threads = env_u64("PAC_OBSV_THREADS", host.min(4)) as usize;

    println!("== obsv overhead: uniform lookups, model disabled");
    println!(
        "   {keys} keys, {threads} threads, {slices} alternating slices x {slice_ops} ops/thread"
    );

    pmem::numa::set_topology(1);
    model::set_config(NvmModelConfig::disabled());
    let tree =
        PacTree::create(PacTreeConfig::named("bench-obsv-ovh").with_pool_size((256usize) << 20))
            .expect("create pactree");
    driver::populate(&tree, KeySpace::Integer, keys, 4);

    // Warmup: one unmeasured pass (touches every leaf; fills caches and
    // spins the VM/cpufreq up before either arm is timed).
    run_sliced(&tree, keys, threads, slice_ops, 8, false);

    // Three configs: the default always-on one (exact counts every op,
    // latency sampled 1-in-2^DEFAULT_SAMPLE_SHIFT) that the <5% bound
    // applies to, full fidelity (every op pays the clock pair, what
    // fig13_tail opts into) reported for the record, and per-op request
    // tracing at the default 1-in-64 tail sampling, measured against the
    // recording-on baseline (its off arm keeps recording enabled). Three
    // interleaved trials per config, medianed: noise regimes on a shared
    // VM last tens of seconds, so a single trial can land entirely inside
    // one.
    const TRIALS: usize = 3;
    let configs = [
        (obsv::DEFAULT_SAMPLE_SHIFT, false, "sampled 1/16 (default)"),
        (0u32, false, "full fidelity (shift 0)"),
        (obsv::DEFAULT_SAMPLE_SHIFT, true, "tracing (tail-sampled)"),
    ];
    let mut results = [const { Vec::new() }; 3];
    for _trial in 0..TRIALS {
        for (i, &(shift, traced, _)) in configs.iter().enumerate() {
            obsv::set_sample_shift(shift);
            results[i].push(measure(&tree, keys, threads, slice_ops, slices, traced));
            if traced {
                trace::clear_retained();
            }
        }
    }
    obsv::set_sample_shift(obsv::DEFAULT_SAMPLE_SHIFT);

    println!(
        "{:<26} {:>10} {:>10} {:>9}  trials",
        "config", "on Mops/s", "off Mops/s", "overhead"
    );
    let mut medians = [0.0f64; 3];
    for (i, &(_, _, label)) in configs.iter().enumerate() {
        let trials = &mut results[i];
        trials.sort_by(|a, b| a.2.total_cmp(&b.2));
        let (on_mops, off_mops, overhead) = trials[TRIALS / 2];
        medians[i] = overhead;
        let all = trials
            .iter()
            .map(|t| format!("{:.2}%", t.2))
            .collect::<Vec<_>>()
            .join(" ");
        println!("{label:<26} {on_mops:>10.3} {off_mops:>10.3} {overhead:>8.2}%  [{all}]");
    }
    let overhead = medians[0];
    println!("-- overhead {overhead:.2}% (median of {TRIALS} trials, default sampling)");
    println!(
        "-- verdict: {} (bound: <5% at default sampling)",
        if overhead < 5.0 { "PASS" } else { "FAIL" }
    );
    println!(
        "-- tracing verdict: {} (bound: <5% vs recording-on baseline at default tail sampling)",
        if medians[2] < 5.0 { "PASS" } else { "FAIL" }
    );

    // Fourth arm: the tsdb scrape loop, at a deliberately brutal cadence,
    // then rescaled to the production 1 s interval for the verdict.
    let scrape_ms = env_u64("PAC_OBSV_SCRAPE_MS", 10).max(1);
    let interval = std::time::Duration::from_millis(scrape_ms);
    let mut scraper_trials: Vec<(f64, f64, f64)> = (0..TRIALS)
        .map(|t| {
            measure_scraper(
                &tree,
                keys,
                threads,
                slice_ops,
                slices,
                interval,
                t % 2 == 0,
            )
        })
        .collect();
    scraper_trials.sort_by(|a, b| a.2.total_cmp(&b.2));
    let (s_on, s_off, s_raw) = scraper_trials[TRIALS / 2];
    let scaled = s_raw * scrape_ms as f64 / 1000.0;
    let s_all = scraper_trials
        .iter()
        .map(|t| format!("{:.2}%", t.2))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "{:<26} {s_on:>10.3} {s_off:>10.3} {s_raw:>8.2}%  [{s_all}]",
        format!("scraper ({scrape_ms}ms interval)")
    );
    println!(
        "-- scrape loop: {s_raw:.2}% at {scrape_ms}ms = {scaled:.4}% rescaled to the 1s production interval"
    );
    let scraper_pass = scaled < 1.0;
    println!(
        "-- scraper verdict: {} (bound: <1% at the 1s interval)",
        if scraper_pass { "PASS" } else { "FAIL" }
    );

    let json = format!(
        concat!(
            "{{\"schema\":\"obsv_overhead/v1\",\"git_commit\":\"{}\",",
            "\"keys\":{},\"threads\":{},\"slices\":{},\"slice_ops\":{},\"trials\":{},",
            "\"sampled_pct\":{:.4},\"full_fidelity_pct\":{:.4},",
            "\"tracing_pct\":{:.4},",
            "\"scraper\":{{\"interval_ms\":{},\"raw_pct\":{:.4},\"scaled_1s_pct\":{:.6},",
            "\"on_mops\":{:.4},\"off_mops\":{:.4}}},",
            "\"verdict\":\"{}\",\"scraper_verdict\":\"{}\"}}"
        ),
        bench::git_commit(),
        keys,
        threads,
        slices,
        slice_ops,
        TRIALS,
        medians[0],
        medians[1],
        medians[2],
        scrape_ms,
        s_raw,
        scaled,
        s_on,
        s_off,
        if overhead < 5.0 { "PASS" } else { "FAIL" },
        if scraper_pass { "PASS" } else { "FAIL" },
    );
    std::fs::create_dir_all("results").ok();
    match std::fs::write("results/obsv_overhead.json", &json) {
        Ok(()) => println!("wrote results/obsv_overhead.json"),
        Err(e) => eprintln!("could not write results/obsv_overhead.json: {e}"),
    }
    tree.destroy();
}
