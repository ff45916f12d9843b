//! health-demo: the observability stack end to end, with a verdict.
//!
//! Boots a full serving stack — PACTree behind a [`pacsrv::PacService`],
//! a plain-TCP health listener, a time-series scraper
//! ([`obsv::Scraper`] + [`obsv::Tsdb`]), and an [`obsv::SloEngine`] with a
//! shed-rate objective on scaled-down alerting windows — then drives a
//! three-phase load shape and asserts the alerting pipeline reacts:
//!
//! 1. **baseline** — traffic paced below the service's admission limit;
//!    the SLO must stay quiet;
//! 2. **overload** — open-loop submission paced at 2x the admission limit
//!    (made deterministic by the ingress token bucket): the service sheds
//!    roughly half of the offered load, the shed-rate burn crosses
//!    threshold on both windows, and the SLO must fire within one fast
//!    window (plus scrape slack); while firing, the health endpoint is
//!    scraped over plain HTTP into `results/health_scrape.txt`;
//! 3. **cooldown** — load stops; once the fast window no longer covers
//!    the episode the alert must clear.
//!
//! Artifacts: `results/health_scrape.txt` (Prometheus text, captured
//! while firing), `results/slo_events.jsonl` (schema `slo_events/v1`, the
//! fire/clear transitions), `results/health_timeseries.jsonl` (the tsdb
//! ring dump — the alert episode is visible as the `slo.*.firing` gauge
//! going 0 -> 1 -> 0 across samples). Exits nonzero if the alert never
//! fires, never clears, or the episode is missing from the time series.
//!
//! Flags: `--port N` binds the health listener to a fixed port (default
//! ephemeral), `--hold-secs N` keeps serving (with light background load)
//! for N seconds after the verdict so external scrapers — `curl`,
//! `pacsrv-top` — can poll a live endpoint; the CI health-smoke job uses
//! both.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{AnyIndex, Kind, Scale};
use pacsrv::wire::Request;
use pacsrv::{HealthServer, PacService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ycsb::{driver, KeySpace};

const SCRAPE_INTERVAL: Duration = Duration::from_millis(200);
const FAST_WINDOW: Duration = Duration::from_secs(2);
const SLOW_WINDOW: Duration = Duration::from_secs(8);
const SLO_NAME: &str = "demo.shed_rate";

/// The service's admission limit: the ingress bucket refills at this
/// rate, making "overloaded" a configuration fact instead of a guess
/// about host speed.
const INGRESS_RATE: u64 = 50_000;
/// Baseline offered load: comfortably under the admission limit.
const BASE_RATE: f64 = 20_000.0;
/// Overload offered load: 2x the admission limit, so roughly half of it
/// is shed regardless of how fast the host executes lookups.
const OVERLOAD_RATE: f64 = 2.0 * INGRESS_RATE as f64;

/// Drives Get batches at `ops_per_sec` total from `clients` threads until
/// `stop`. Closed mode waits for every reply set before pacing on (clean
/// baseline traffic); open mode leaves replies pending like an external
/// load generator, so the offered rate holds even when the service sheds.
/// Returns total ops submitted.
fn drive(
    service: &Arc<PacService<AnyIndex>>,
    keys: u64,
    clients: usize,
    ops_per_sec: f64,
    closed: bool,
    stop: &AtomicBool,
) -> u64 {
    let per_client = ops_per_sec / clients as f64;
    let submitted = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..clients {
            let submitted = &submitted;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xFEED ^ (c as u64).wrapping_mul(0x9E37));
                let start = Instant::now();
                let mut issued = 0u64;
                let mut pending = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let reqs: Vec<Request> = (0..8)
                        .map(|_| Request::Get {
                            key: KeySpace::Integer.encode(rng.gen_range(0..keys)),
                        })
                        .collect();
                    issued += reqs.len() as u64;
                    submitted.fetch_add(reqs.len() as u64, Ordering::Relaxed);
                    let rs = service.submit(reqs, Some(Duration::from_millis(250)));
                    if closed {
                        rs.wait();
                    } else {
                        pending.push(rs);
                        if pending.len() >= 64 {
                            pending.retain(|rs| !rs.is_done());
                        }
                    }
                    let due = Duration::from_secs_f64(issued as f64 / per_client);
                    if let Some(sleep) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(sleep);
                    }
                }
                for rs in pending {
                    rs.wait();
                }
            });
        }
    });
    submitted.load(Ordering::Relaxed)
}

fn fail(msg: &str) -> ! {
    println!("health-demo: FAIL ({msg})");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let port = opt("--port").unwrap_or(0);
    let hold_secs = opt("--hold-secs").unwrap_or(0);

    pmem::numa::set_topology(1);
    pmem::model::set_config(pmem::model::NvmModelConfig::disabled());
    let scale = Scale {
        keys: 20_000,
        ops: 0, // phases are time-driven, not op-counted
        threads: vec![2],
        dilation: 1.0,
        pool_size: 256 << 20,
    };
    let keys = scale.keys;
    println!("== health-demo: SLO fire/clear episode against a live pacsrv");

    let idx = AnyIndex::create(Kind::PacTree, "health-demo", KeySpace::Integer, &scale);
    driver::populate(&idx, KeySpace::Integer, keys, 4);

    // The ingress bucket is the overload knob: offered load above
    // INGRESS_RATE sheds at admission, deterministically.
    let service = PacService::start(
        idx.clone(),
        ServiceConfig {
            shards: 2,
            queue_capacity: 1024,
            batch_max: 8,
            ingress_rate: Some(INGRESS_RATE),
            ingress_burst: 512,
            numa_pin: false,
            ..ServiceConfig::named("pacsrv-demo", 2)
        },
    );

    // Observability stack: tsdb ring + scraper + SLO engine + health TCP.
    std::fs::create_dir_all("results").ok();
    let tsdb = obsv::Tsdb::with_retention(SCRAPE_INTERVAL, Duration::from_secs(120));
    let spec = obsv::SloSpec::ratio(
        SLO_NAME,
        "pacsrv-demo.shed.total",
        "pacsrv-demo.admitted.total",
        0.01, // objective: <1% of submissions shed
    )
    .with_windows(FAST_WINDOW.as_nanos() as u64, SLOW_WINDOW.as_nanos() as u64);
    let engine = obsv::SloEngine::new(Arc::clone(&tsdb), vec![spec]);
    engine.set_event_sink(Box::new(
        std::fs::File::create("results/slo_events.jsonl").expect("create slo_events.jsonl"),
    ));
    // The engine's own firing/burn gauges join the registry, so the alert
    // episode lands in the scraped time series alongside the service
    // metrics it was computed from.
    let _slo_gauges = engine.register_gauges(obsv::global());
    service.set_slo_engine(Arc::clone(&engine));
    let scraper = obsv::Scraper::start(
        Arc::clone(&tsdb),
        SCRAPE_INTERVAL,
        Some(Arc::clone(&engine)),
    );
    let health = HealthServer::start(Arc::clone(&service), format!("127.0.0.1:{port}"))
        .expect("bind health listener");
    println!("   health endpoint: http://{}/metrics", health.local_addr());

    // Phase 1: baseline — paced under the admission limit, closed loop.
    let baseline_for = Duration::from_millis(2_500);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let submitted = std::thread::scope(|s| {
        let h = s.spawn(|| drive(&service, keys, 2, BASE_RATE, true, &stop));
        std::thread::sleep(baseline_for);
        stop.store(true, Ordering::Relaxed);
        h.join().expect("baseline drivers")
    });
    println!(
        "-- baseline: {submitted} ops in {:?} ({:.0} offered, {INGRESS_RATE} admitted limit), slo quiet: {}",
        t0.elapsed(),
        BASE_RATE,
        !engine.any_firing()
    );
    if engine.any_firing() {
        fail("SLO fired under clean baseline load");
    }

    // Phase 2: overload at 2x the admission limit, open loop. The alert
    // must fire within one fast window plus scrape slack.
    let overload_budget = FAST_WINDOW + Duration::from_secs(3);
    let stop = AtomicBool::new(false);
    let fired_after = std::thread::scope(|s| {
        let driver = s.spawn(|| drive(&service, keys, 2, OVERLOAD_RATE, false, &stop));
        let t0 = Instant::now();
        let mut fired = None;
        while t0.elapsed() < overload_budget {
            if engine.any_firing() {
                fired = Some(t0.elapsed());
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        if fired.is_some() {
            // Capture the exposition while the alert is live.
            let addr = health.local_addr().to_string();
            match obsv::fleet::fetch_metrics(&addr, Duration::from_secs(5)) {
                Ok(text) => {
                    if let Err(e) = std::fs::write("results/health_scrape.txt", &text) {
                        eprintln!("could not write health_scrape.txt: {e}");
                    }
                }
                Err(e) => eprintln!("mid-episode scrape failed: {e}"),
            }
            // Keep the overload up one more beat so the episode spans
            // several samples in the time series.
            std::thread::sleep(SCRAPE_INTERVAL * 3);
        }
        stop.store(true, Ordering::Relaxed);
        driver.join().expect("overload drivers");
        fired
    });
    let Some(fired_after) = fired_after else {
        fail(&format!(
            "shed-rate SLO did not fire within {overload_budget:?} of 2x overload"
        ));
    };
    let status = &engine.status()[0];
    println!(
        "-- overload: SLO fired after {fired_after:?} (burn fast {:.2} / slow {:.2}, threshold {:.1})",
        status.burn_fast, status.burn_slow, status.burn_threshold
    );

    // Phase 3: cooldown — the fast window must drain and the alert clear.
    let clear_budget = FAST_WINDOW + Duration::from_secs(4);
    let t0 = Instant::now();
    while engine.any_firing() && t0.elapsed() < clear_budget {
        std::thread::sleep(Duration::from_millis(50));
    }
    if engine.any_firing() {
        fail(&format!(
            "SLO still firing {clear_budget:?} after load stopped"
        ));
    }
    println!("-- cooldown: SLO cleared after {:?}", t0.elapsed());

    // Persist the time series and verify the episode is visible in it.
    let series = tsdb.gauge_series(&format!("slo.{SLO_NAME}.firing"), u64::MAX);
    let saw_fire = series.iter().any(|&(_, v)| v > 0.5);
    let cleared_last = series.last().is_some_and(|&(_, v)| v < 0.5);
    if let Err(e) = std::fs::write("results/health_timeseries.jsonl", tsdb.dump_jsonl(1.0)) {
        eprintln!("could not write health_timeseries.jsonl: {e}");
    }
    println!(
        "-- time series: {} samples, episode visible: {}",
        tsdb.len(),
        saw_fire && cleared_last
    );
    if !(saw_fire && cleared_last) {
        fail("alert episode not visible in the scraped time series");
    }

    println!(
        "wrote results/health_scrape.txt results/slo_events.jsonl results/health_timeseries.jsonl"
    );
    println!("health-demo: PASS (fired {fired_after:?} into overload, cleared on cooldown)");

    // Optional hold phase for external scrapers (CI curls + runs
    // pacsrv-top against this endpoint). Light paced load keeps the
    // counters moving between their polls.
    if hold_secs > 0 {
        println!("-- holding endpoint open {hold_secs}s for external scrapes");
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| drive(&service, keys, 1, BASE_RATE / 4.0, true, &stop));
            std::thread::sleep(Duration::from_secs(hold_secs));
            stop.store(true, Ordering::Relaxed);
        });
    }

    health.stop();
    scraper.stop();
    service.shutdown(Duration::from_secs(10));
    drop(service);
    idx.destroy();
}
