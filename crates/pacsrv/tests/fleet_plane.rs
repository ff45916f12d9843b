//! The fleet plane over a live rebalance: three cluster nodes, each with a
//! health endpoint, under hot-partition traffic through routers while
//! partition 0 migrates from node 0 to node 1.
//!
//! * Convergence: every node and a refreshed router reach epoch 2, a
//!   sweep after the refresh bounces nothing, and no client call fails.
//! * Latency: the migration window's p99 stays within 3× the steady
//!   window's (floored at 200 µs, so a loopback p99 of a few µs does not
//!   turn one scheduler hiccup into a failure).
//! * The fleet merge: the p99 rebuilt from three scraped pages matches a
//!   direct merge of the registry's histograms within the histogram's
//!   reconstruction bound.
//! * Partition heat: the counters alone name partition 0 the hottest.
//! * Alerting: with a 1 ms stuck-migration bound, the migration yields
//!   exactly one `slo_events/v1` fire line and one clear line. The bulk
//!   phase waits for the fire, so the episode cannot fall between polls.
//!
//! Its own test binary: the direct merge reads the process-wide registry,
//! which sibling tests would add their services to.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use common::cluster::start_cluster;
use obsv::fleet::FleetScraper;
use obsv::hist::{HistSnapshot, RELATIVE_ERROR_BOUND};
use pacsrv::cluster::{RouterClient, PHASE_BULK};
use pacsrv::wire::{MigrateOp, Request, Response};
use pacsrv::TcpClient;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ycsb::HotPartition;

const NODES: usize = 3;
const KEYS: u64 = 6_000;
const CLIENTS: usize = 4;
const HOT_PARTITION: u32 = 0;
const HOT_FRACTION: f64 = 0.8;
const P99_RATIO_LIMIT: f64 = 3.0;
const P99_FLOOR_US: f64 = 200.0;
const STUCK_BOUND_NS: u64 = 1_000_000;

const WIN_STEADY: u8 = 0;
const WIN_MIGRATION: u8 = 1;
const WIN_POST: u8 = 2;
const WIN_STOP: u8 = 3;

fn p99(lat_us: &mut [u64]) -> f64 {
    lat_us.sort_unstable();
    let i = ((lat_us.len() as f64 - 1.0) * 0.99).round() as usize;
    lat_us[i] as f64
}

#[test]
fn fleet_plane_follows_a_live_rebalance() {
    let cluster = start_cluster("fleet", NODES);
    let endpoints = cluster.endpoints.clone();
    let (health, health_eps) = cluster.start_health();

    // The scraper polls through the whole run; the bulk phase holds until
    // it has seen the stuck alert fire.
    let fired = Arc::new(AtomicBool::new(false));
    cluster.nodes[0].set_migration_hook({
        let (fired, held_since) = (Arc::clone(&fired), OnceLock::new());
        move |phase| {
            if phase != PHASE_BULK {
                return;
            }
            let deadline = *held_since.get_or_init(Instant::now) + Duration::from_secs(10);
            while !fired.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = std::thread::spawn({
        let (stop, fired, eps) = (
            Arc::clone(&scrape_stop),
            Arc::clone(&fired),
            health_eps.clone(),
        );
        move || {
            let mut scraper = FleetScraper::new(eps, STUCK_BOUND_NS);
            let mut events = Vec::new();
            loop {
                let last = stop.load(Ordering::Acquire);
                scraper.poll(obsv::clock::now_ns());
                events.extend(scraper.take_events());
                if events.iter().any(|e| e.contains("\"event\":\"fire\"")) {
                    fired.store(true, Ordering::Release);
                }
                if last {
                    return events;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    });

    // Load: 80% of ids pinned to partition 0.
    let hp = HotPartition::new(NODES as u64, HOT_PARTITION as u64, HOT_FRACTION);
    let mut loader = RouterClient::connect(&endpoints).expect("router");
    for chunk in (0..KEYS).collect::<Vec<u64>>().chunks(128) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|&id| Request::Put {
                key: hp.key(id).to_be_bytes().to_vec(),
                value: id,
            })
            .collect();
        let resps = loader.call(reqs).expect("load batch");
        assert!(resps.iter().all(|r| *r == Response::Ok), "load put failed");
    }

    // Closed-loop 80/20 gets/puts through per-thread routers, each op
    // tagged with the window it started in: steady, migration (the
    // blocking Migrate call plus 200 ms of post-flip bounces), post.
    let window = AtomicU8::new(WIN_STEADY);
    let errors = AtomicU64::new(0);
    let mut lat: [Vec<u64>; 3] = Default::default();
    let migrated = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (window, errors, endpoints) = (&window, &errors, &endpoints);
                s.spawn(move || {
                    let mut router = RouterClient::connect(endpoints).expect("router");
                    let mut rng = StdRng::seed_from_u64(0xc1a5 ^ (c as u64).wrapping_mul(0x9E37));
                    let mut lat: [Vec<u64>; 3] = Default::default();
                    loop {
                        let win = window.load(Ordering::Acquire);
                        if win == WIN_STOP {
                            return lat;
                        }
                        let id = rng.gen_range(0..KEYS);
                        let key = hp.key(id).to_be_bytes().to_vec();
                        let req = if rng.gen_range(0..100) < 80 {
                            Request::Get { key }
                        } else {
                            Request::Put { key, value: id }
                        };
                        let start = Instant::now();
                        match router.call(vec![req]) {
                            Ok(resps) if resps.iter().all(Response::executed) => {
                                lat[win as usize].push(start.elapsed().as_micros() as u64);
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();

        // No assertion until the clients have stopped: a panic here would
        // leave them running and the scope waiting on them.
        std::thread::sleep(Duration::from_millis(400));
        window.store(WIN_MIGRATION, Ordering::Release);
        let migrated = TcpClient::connect(endpoints[0].as_str()).and_then(|mut ctl| {
            ctl.migrate(MigrateOp::Start {
                partition: HOT_PARTITION,
                target: endpoints[1].clone(),
            })
        });
        std::thread::sleep(Duration::from_millis(200));
        window.store(WIN_POST, Ordering::Release);
        std::thread::sleep(Duration::from_millis(300));
        window.store(WIN_STOP, Ordering::Release);
        for h in clients {
            for (all, mine) in lat.iter_mut().zip(h.join().expect("client")) {
                all.extend(mine);
            }
        }
        migrated
    });
    let (ok, detail) = migrated.expect("migrate rpc");
    assert!(ok, "migration failed: {detail}");
    assert!(detail.contains("\"new_epoch\":2"), "{detail}");
    scrape_stop.store(true, Ordering::Release);
    let events = scraper.join().expect("scraper");

    // Convergence.
    for (i, node) in cluster.nodes.iter().enumerate() {
        assert_eq!(node.map_epoch(), 2, "node {i} never installed epoch 2");
    }
    loader.refresh_map().expect("refresh");
    assert_eq!(loader.map_epoch(), 2, "router never saw epoch 2");
    let before = loader.wrong_partition_seen();
    for chunk in (0..2_000).collect::<Vec<u64>>().chunks(128) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|&id| Request::Get {
                key: hp.key(id).to_be_bytes().to_vec(),
            })
            .collect();
        loader.call(reqs).expect("sweep");
    }
    assert_eq!(loader.wrong_partition_seen(), before, "sweep bounced");
    assert_eq!(errors.load(Ordering::Relaxed), 0, "client calls failed");

    // Latency through the migration.
    assert!(lat.iter().all(|w| !w.is_empty()), "an empty window");
    let [steady, migration, _] = &mut lat;
    let (steady_p99, migration_p99) = (p99(steady), p99(migration));
    let ratio = migration_p99 / steady_p99.max(P99_FLOOR_US);
    println!("p99 steady {steady_p99} us, migration {migration_p99} us: ratio {ratio:.2}");
    assert!(
        ratio <= P99_RATIO_LIMIT,
        "migration p99 {migration_p99} us vs steady {steady_p99} us: ratio {ratio:.2}"
    );

    // The fleet merge over the wire equals the registry's own merge.
    let mut gate = FleetScraper::new(health_eps, u64::MAX);
    let view = gate.poll(obsv::clock::now_ns());
    assert_eq!(view.nodes, NODES);
    let fleet_p99 = view.merged_total().quantile(0.99);
    let mut direct = HistSnapshot::empty();
    for set in obsv::registry::global().sample().hists.values() {
        direct.merge(&set.merged());
    }
    let direct_p99 = direct.quantile(0.99);
    let diff = (fleet_p99 as f64 - direct_p99 as f64).abs() / direct_p99.max(1) as f64;
    assert!(
        diff <= RELATIVE_ERROR_BOUND,
        "fleet p99 {fleet_p99} ns vs direct {direct_p99} ns: {diff:.4}"
    );

    // Partition heat, summed across the nodes that owned each partition.
    let mut ops = [0u64; NODES];
    for node in &cluster.nodes {
        for (pid, (n, _, _)) in node.partition_heat().into_iter().enumerate() {
            ops[pid] += n;
        }
    }
    let hottest = (0..NODES).max_by_key(|&p| ops[p]).unwrap();
    assert_eq!(hottest, HOT_PARTITION as usize, "partition ops {ops:?}");

    // One stuck-migration episode: fire, then clear.
    assert_eq!(events.len(), 2, "{events:?}");
    for (line, event) in events.iter().zip(["fire", "clear"]) {
        assert!(line.starts_with("{\"schema\":\"slo_events/v1\""), "{line}");
        assert!(line.contains("\"slo\":\"fleet.migration.stuck."), "{line}");
        assert!(line.contains(&format!("\"event\":\"{event}\"")), "{line}");
    }

    drop(health);
    cluster.stop();
}
