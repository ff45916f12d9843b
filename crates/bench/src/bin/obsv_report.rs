//! obsv-report: exercises the whole observability layer end to end and
//! renders a summary table.
//!
//! Runs a write-heavy YCSB-A phase against PACTree with the full metrics
//! registry wired — pmem gauges (XPBuffer hit rate, throttle stall, media
//! counters), per-tree gauges (SMO replay lag, epoch backlog, jump-hop
//! distribution, retries), and per-op latency histograms — sampling the
//! registry during the run. Output:
//!
//! * `results/obsv_report.json` (schema `obsv_report/v1`): the sampled
//!   time series plus a post-quiesce final sample;
//! * `results/obsv_timeseries.jsonl`: the newest minute of a background
//!   [`obsv::Scraper`]'s 100 ms samples, dumped from its [`obsv::Tsdb`];
//! * a human-readable gauge + percentile table on stdout.
//!
//! `--quick` shrinks the workload for the CI smoke job.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{banner, row, AnyIndex, Kind, Scale};
use obsv::OpKind;
use pmem::model::{self, CoherenceMode, NvmModelConfig};
use ycsb::{driver, DriverConfig, KeySpace, Mix, Workload};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    pmem::numa::set_topology(2);
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let threads = scale.max_threads().min(56);
    banner("obsv-report", "observability layer end-to-end", &scale);

    // Wall-clock ns -> model-time µs for every histogram we print/emit.
    let us = 1e-3 / scale.dilation.max(1.0);

    let _pmem_gauges = pmem::stats::install_obsv_gauges();
    let idx = AnyIndex::create(Kind::PacTree, "obsv-report", KeySpace::Integer, &scale);
    driver::populate(&idx, KeySpace::Integer, scale.keys, 4);

    std::fs::create_dir_all("results").ok();
    // 600 whole-registry samples (tens of KB each) bound the ring's memory.
    let scrape_every = Duration::from_millis(100);
    let tsdb = obsv::Tsdb::with_retention(scrape_every, Duration::from_secs(60));
    let scraper = obsv::Scraper::start(Arc::clone(&tsdb), scrape_every, None);

    // Sample the registry while the workload runs in a worker thread.
    model::set_config(NvmModelConfig::optane_dilated(
        CoherenceMode::Snoop,
        scale.dilation,
    ));
    let mut samples: Vec<String> = Vec::new();
    let report = std::thread::scope(|s| {
        let idx_ref = &idx;
        let worker = s.spawn(move || {
            let w = Workload::uniform(Mix::A, scale.keys);
            let cfg = DriverConfig {
                threads,
                ops: scale.ops,
                dilation: scale.dilation,
                ..Default::default()
            };
            driver::run_workload(idx_ref, &w, KeySpace::Integer, &cfg)
        });
        // Hold a snapshot across part of the write-heavy phase and scan
        // through it, so the MVCC gauges (`<tree>.mvcc.chain_max/chain_mean`,
        // snapshot counters) move in the sampled series instead of sitting
        // at their idle values.
        let tree = idx_ref.as_pactree().expect("obsv-report runs PACTree");
        let snap = tree.snapshot();
        let t0 = Instant::now();
        let mut scanned_at = 0usize;
        while !worker.is_finished() && t0.elapsed() < Duration::from_secs(600) {
            if let Some(pairs) = tree.scan_at(snap, &KeySpace::Integer.encode(0), 64) {
                scanned_at += pairs.len();
            }
            samples.push(obsv::global().sample().to_json(us));
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(tree.release_snapshot(snap), "snapshot survived the run");
        println!("-- mvcc: scanned {scanned_at} pairs through snapshot {snap} during the run");
        worker.join().expect("workload worker")
    });
    model::set_config(NvmModelConfig::disabled());

    // Quiesce: drain pending SMOs and the epoch backlog, then take the
    // final sample — the drain-to-zero the gauges should show.
    let drained = idx
        .as_pactree()
        .expect("obsv-report runs PACTree")
        .quiesce(Duration::from_secs(30));
    let final_sample = obsv::global().sample();
    samples.push(final_sample.to_json(us));
    scraper.stop();
    if let Err(e) = std::fs::write("results/obsv_timeseries.jsonl", tsdb.dump_jsonl(us)) {
        eprintln!("could not write results/obsv_timeseries.jsonl: {e}");
    }

    let json = format!(
        "{{\"schema\":\"obsv_report/v1\",\"stamp\":{},\"keys\":{},\"ops\":{},\"threads\":{},\"dilation\":{},\"unit\":\"us_model_time\",\"drained\":{},\"samples\":[{}]}}",
        bench::stamp_json(&scale),
        scale.keys,
        scale.ops,
        threads,
        scale.dilation,
        drained,
        samples.join(",")
    );
    match std::fs::write("results/obsv_report.json", &json) {
        Ok(()) => println!("wrote results/obsv_report.json ({} samples)", samples.len()),
        Err(e) => eprintln!("could not write results/obsv_report.json: {e}"),
    }

    println!("-- gauges (final, post-quiesce; drained={drained})");
    for (name, value) in &final_sample.gauges {
        row(name, &[format!("{value:.4}")]);
    }

    println!("-- op latency (model-time µs, YCSB-A measured phase)");
    row(
        "source.op",
        &[
            "count".into(),
            "mean".into(),
            "p50".into(),
            "p99".into(),
            "p99.9".into(),
            "max".into(),
        ],
    );
    for (source, set) in &final_sample.hists {
        for kind in OpKind::ALL {
            let h = set.get(kind);
            if h.count() == 0 {
                continue;
            }
            row(
                &format!("{source}.{}", kind.name()),
                &[
                    h.count().to_string(),
                    format!("{:.1}", h.mean() * us),
                    format!("{:.1}", h.quantile(0.50) as f64 * us),
                    format!("{:.1}", h.quantile(0.99) as f64 * us),
                    format!("{:.1}", h.quantile(0.999) as f64 * us),
                    format!("{:.1}", h.max() as f64 * us),
                ],
            );
        }
    }
    println!(
        "-- driver view: {:.3} Mops/s over {} ops",
        report.mops, report.ops
    );
    idx.destroy();
}
