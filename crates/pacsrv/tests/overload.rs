//! Backpressure under 2x sustainable load.
//!
//! The index is rate-limited by an artificial per-op delay, so the
//! sustainable throughput is known exactly; the test drives twice that in
//! open loop and asserts the service sheds explicitly (`Overloaded`),
//! keeps its queues bounded, and completes everything it admitted. The
//! ingress bucket makes the limit a configuration fact instead, which is
//! what the shed-rate SLO episode at the end runs against.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::MapIndex;
use pacsrv::wire::{Request, Response};
use pacsrv::{PacService, ServiceConfig};

#[test]
fn overload_sheds_and_stays_bounded() {
    // 2 shards x (1 op / 500us) = ~4000 ops/s sustainable.
    let index = MapIndex::slow(Duration::from_micros(500));
    let cfg = ServiceConfig {
        shards: 2,
        queue_capacity: 64,
        batch_max: 16,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-overload", 2)
    };
    let capacity_bound = cfg.shards * cfg.queue_capacity;
    let service = PacService::start(index, cfg);

    // Open loop at ~2x sustainable for one second: submit without waiting.
    let target_ops = 8_000u64;
    let interval = Duration::from_secs(1).div_f64(target_ops as f64);
    let started = Instant::now();
    let mut pending = Vec::new();
    let mut max_depth = 0usize;
    for i in 0..target_ops {
        let key = (i % 1024).to_be_bytes().to_vec();
        pending.push(service.submit(vec![Request::Put { key, value: i }], None));
        max_depth = max_depth.max(service.queue_depth());
        // Pace the open loop; fall behind silently if submission is slow.
        let due = interval * (i as u32 + 1);
        if let Some(sleep) = due.checked_sub(started.elapsed()) {
            std::thread::sleep(sleep);
        }
    }

    let mut shed = 0u64;
    let mut done = 0u64;
    for rs in pending {
        for resp in rs.wait() {
            match resp {
                Response::Ok => done += 1,
                Response::Overloaded => shed += 1,
                other => panic!("unexpected reply under overload: {other:?}"),
            }
        }
    }

    // Every submission was answered one way or the other.
    assert_eq!(shed + done, target_ops);
    // 2x load must shed a real fraction, and must not shed everything.
    assert!(shed > target_ops / 20, "expected real shedding, got {shed}");
    assert!(done > target_ops / 20, "expected real progress, got {done}");
    // Bounded queues: depth never exceeded shards * capacity.
    assert!(
        max_depth <= capacity_bound,
        "queue depth {max_depth} exceeded bound {capacity_bound}"
    );
    // Metrics agree with the replies we counted.
    let m = service.metrics();
    assert_eq!(m.shed.load(std::sync::atomic::Ordering::Relaxed), shed);
    assert_eq!(m.completed.load(std::sync::atomic::Ordering::Relaxed), done);
    assert!(m.shed_rate() > 0.0);

    // The service recovers once load stops: a fresh call succeeds.
    assert!(matches!(
        service.call(Request::Get {
            key: 0u64.to_be_bytes().to_vec()
        }),
        Response::Value(_)
    ));
    assert!(service.shutdown(Duration::from_secs(5)));
}

#[test]
fn ingress_bucket_sheds_at_rate_limit() {
    // Fast index, tight ingress rate: the bucket (not the queues) sheds.
    let index = MapIndex::default();
    let cfg = ServiceConfig {
        shards: 2,
        queue_capacity: 4096,
        ingress_rate: Some(1),
        ingress_burst: 100,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-bucket-overload", 2)
    };
    let service = PacService::start(index, cfg);

    let mut pending = Vec::new();
    for i in 0..1_000u64 {
        let key = i.to_be_bytes().to_vec();
        pending.push(service.submit(vec![Request::Put { key, value: i }], None));
    }
    let mut shed = 0u64;
    let mut done = 0u64;
    for rs in pending {
        for resp in rs.wait() {
            match resp {
                Response::Ok => done += 1,
                Response::Overloaded => shed += 1,
                other => panic!("unexpected reply: {other:?}"),
            }
        }
    }
    // Burst of 100 admits ~100; a 1 op/s refill admits at most a handful
    // more over the test's runtime.
    assert!(done >= 100, "burst should admit at least 100, got {done}");
    assert!(done <= 150, "rate limit leaked: {done} admitted");
    assert_eq!(shed + done, 1_000);
    assert!(service.shutdown(Duration::from_secs(5)));
}

/// The episode's admission limit: the ingress bucket refills at this rate.
const LIMIT: f64 = 5_000.0;
/// Ops per submitted batch.
const BATCH: usize = 8;

/// Submits `BATCH`-op Get batches at `ops_per_sec` until `stop`, open loop:
/// replies are collected, not awaited. A late tick moves the schedule on
/// instead of sending the missed batches at once, so the offered load
/// never bursts above its rate.
fn drive(service: &PacService<MapIndex>, ops_per_sec: f64, stop: &AtomicBool) {
    let period = Duration::from_secs_f64(BATCH as f64 / ops_per_sec);
    let mut next = Instant::now();
    let mut pending = Vec::new();
    for i in 0u64.. {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let reqs = (0..BATCH as u64)
            .map(|j| Request::Get {
                key: ((i * BATCH as u64 + j) % 1024).to_be_bytes().to_vec(),
            })
            .collect();
        pending.push(service.submit(reqs, None));
        if pending.len() >= 64 {
            pending.retain(|rs| !rs.is_done());
        }
        next += period;
        let now = Instant::now();
        match next.checked_duration_since(now) {
            Some(wait) => std::thread::sleep(wait),
            None => next = now,
        }
    }
    for rs in pending {
        rs.wait();
    }
}

/// Polls `cond` every 10 ms for up to `budget`; returns how long it took
/// to hold, or `None` if it never did.
fn within(budget: Duration, cond: impl Fn() -> bool) -> Option<Duration> {
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        if cond() {
            return Some(t0.elapsed());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

#[test]
fn shed_rate_slo_fires_at_twice_the_limit_and_clears() {
    let fast = Duration::from_millis(500);
    let slow = Duration::from_secs(2);
    let name = "pacsrv-slo-episode";
    let service = PacService::start(
        MapIndex::default(),
        ServiceConfig {
            shards: 2,
            ingress_rate: Some(LIMIT as u64),
            numa_pin: false,
            ..ServiceConfig::named(name, 2)
        },
    );
    // Objective: under 1% of submitted ops shed.
    let spec = obsv::SloSpec::ratio(
        "shed",
        format!("{name}.shed.total"),
        format!("{name}.admitted.total"),
        0.01,
    )
    .with_windows(fast.as_nanos() as u64, slow.as_nanos() as u64);
    let tsdb = obsv::Tsdb::new(256);
    let engine = obsv::SloEngine::new(Arc::clone(&tsdb), vec![spec]);
    let scraper = obsv::Scraper::start(tsdb, Duration::from_millis(50), Some(Arc::clone(&engine)));
    let firing = || engine.status()[0].firing;

    // Half the limit, for longer than the slow window: the alert stays
    // quiet throughout.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| drive(&service, LIMIT / 2.0, &stop));
        let fired = within(slow + fast, firing);
        stop.store(true, Ordering::Relaxed);
        assert_eq!(
            fired,
            None,
            "fired at half the limit: {:?}",
            engine.status()
        );
    });
    let m = service.metrics();
    assert!(m.admitted.load(Ordering::Relaxed) > 0);

    // Twice the limit: about half the offered ops shed, and the alert
    // fires within the fast window plus scrape and scheduling slack.
    let stop = AtomicBool::new(false);
    let budget = fast + Duration::from_millis(1500);
    std::thread::scope(|s| {
        s.spawn(|| drive(&service, 2.0 * LIMIT, &stop));
        let fired = within(budget, firing);
        stop.store(true, Ordering::Relaxed);
        assert!(
            fired.is_some(),
            "not firing {budget:?} into 2x overload: {:?}",
            engine.status()
        );
    });
    assert!(m.shed.load(Ordering::Relaxed) > 0);

    // Load stops: once the fast window holds no shedding the alert clears.
    let cleared = within(fast + Duration::from_millis(1500), || !firing());
    assert!(cleared.is_some(), "still firing: {:?}", engine.status());

    scraper.stop();
    assert!(service.shutdown(Duration::from_secs(5)));
}
