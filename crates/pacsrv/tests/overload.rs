//! Backpressure under 2x sustainable load.
//!
//! The index is rate-limited by an artificial per-op delay, so the
//! sustainable throughput is known exactly; the test drives twice that in
//! open loop and asserts the service sheds explicitly (`Overloaded`),
//! keeps its queues bounded, and completes everything it admitted.

mod common;

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
    assert_eq!(m.ops.snapshot().total_count(), done);
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
