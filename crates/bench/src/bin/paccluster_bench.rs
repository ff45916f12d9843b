//! paccluster-bench: rebalance latency for the partitioned pacsrv cluster.
//!
//! Builds a 3-node in-process cluster (three PACTrees behind three
//! `ClusterNode`/`TcpServer` pairs on loopback), loads a hot-partition
//! key distribution (`ycsb::HotPartition`, 80% of ids pinned to
//! partition 0), then measures client-observed latency through the smart
//! `RouterClient` across three windows:
//!
//! 1. **steady** — closed-loop gets/puts against the initial map;
//! 2. **migration** — the same traffic while partition 0 live-migrates
//!    from node 0 to node 1 (bulk copy + delta replay + seal + flip);
//! 3. **post** — traffic after the epoch flip has converged.
//!
//! The headline is the migration-window p99 vs steady-state p99: the
//! acceptance gate is `migration p99 <= 3 x max(steady p99, 200us)`.
//! The 200us floor keeps the ratio meaningful on loopback, where a
//! steady-state p99 of a few microseconds would make any scheduling
//! hiccup look like a regression.
//!
//! Latencies here are wall-clock (real TCP round trips), not NVM
//! model-time — the figure under test is routing and migration overhead,
//! not media latency.
//!
//! Writes `results/paccluster_bench.json` (schema `paccluster_bench/v1`,
//! stamped with git commit + configuration). `--quick` shrinks the run
//! for the CI cluster-smoke job.
//!
//! The fleet plane rides along: an [`obsv::fleet::FleetScraper`] polls
//! every node's health endpoint through the whole run (stuck-migration
//! bound configurable via `PACSRV_STUCK_MIGRATION_MS`, default 30 000),
//! its `slo_events/v1` transitions land in `results/fleet_events.jsonl`,
//! the merged page in `results/fleet_merged.txt`, and the per-partition
//! heat counters — with the rebalance-advisor verdict and the
//! fleet-merged-vs-direct p99 gate — in `results/fleet_heat.json`
//! (schema `fleet_heat/v1`). A short A/B window reports the traced-cluster
//! overhead at the default 1-in-64 sampling (advisory, target <= 5%).

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{banner, row, stamp_json, Scale};
use obsv::fleet::{FleetScraper, FleetSloConfig, DEFAULT_STUCK_MIGRATION_BOUND_NS};
use obsv::hist::{HistSnapshot, RELATIVE_ERROR_BOUND};
use pacsrv::cluster::{ClusterNode, RouterClient};
use pacsrv::wire::{MigrateOp, PartitionMap, Request, Response};
use pacsrv::{HealthServer, PacService, ServiceConfig, TcpClient, TcpServer};
use pactree::tree::{PacTree, PacTreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ycsb::HotPartition;

const NODES: usize = 3;
const HOT_PARTITION: u32 = 0;
const HOT_FRACTION: f64 = 0.8;
const P99_RATIO_LIMIT: f64 = 3.0;
/// Anti-flake floor for the steady-state p99 used in the ratio gate.
const P99_FLOOR_US: f64 = 200.0;

const WIN_STEADY: u8 = 0;
const WIN_MIGRATION: u8 = 1;
const WIN_POST: u8 = 2;
const WIN_STOP: u8 = 3;

struct Window {
    label: &'static str,
    lat_us: Vec<u64>,
}

impl Window {
    fn quantile(&mut self, q: f64) -> f64 {
        if self.lat_us.is_empty() {
            return 0.0;
        }
        self.lat_us.sort_unstable();
        let i = ((self.lat_us.len() as f64 - 1.0) * q).round() as usize;
        self.lat_us[i] as f64
    }
}

/// Pulls `"field":<int>` out of the migration report JSON without a JSON
/// parser (the report is machine-written by `MigrationReport::to_json`).
fn json_u64(detail: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let Some(at) = detail.find(&needle) else {
        return 0;
    };
    detail[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        Scale {
            keys: 6_000,
            ops: 0, // windows are time-based, not op-counted
            threads: vec![4],
            dilation: 1.0,
            pool_size: 96 << 20,
        }
    } else {
        Scale {
            pool_size: 256 << 20,
            dilation: 1.0,
            ..Scale::from_env()
        }
    };
    let clients = scale.max_threads().clamp(2, 8);
    let (steady_ms, migration_extra_ms, post_ms) = if quick {
        (400, 200, 300)
    } else {
        (2_000, 500, 1_000)
    };
    banner(
        "paccluster-bench",
        "3-node cluster: latency through a live partition-0 migration",
        &scale,
    );

    // Bind listeners first so the partition map can name real endpoints
    // before any node exists.
    let listeners: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let endpoints: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    let map = PartitionMap::split_u64(&endpoints);
    println!("cluster endpoints: {}", endpoints.join(","));

    let mut nodes = Vec::new();
    let mut servers = Vec::new();
    let mut health = Vec::new();
    let mut trees = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let name = format!("paccluster-bench-{i}");
        let tree = PacTree::create(
            PacTreeConfig::named(&name)
                .with_pool_size(scale.pool_size / NODES)
                .with_numa_pools(1),
        )
        .expect("create pactree");
        let service = PacService::start(
            Arc::clone(&tree),
            ServiceConfig {
                shards: 2,
                numa_pin: false,
                ..ServiceConfig::named(&name, 2)
            },
        );
        let node = ClusterNode::start(service, &endpoints[i], map.clone()).expect("node");
        health.push(HealthServer::start(node.clone(), "127.0.0.1:0").expect("health"));
        servers.push(TcpServer::serve(node.clone(), listener).expect("serve"));
        nodes.push(node);
        trees.push(tree);
    }
    // The CI smoke job scrapes the live nodes (pacsrv-top --endpoints)
    // while the bench holds them open at the end (PACCLUSTER_HOLD_MS).
    let health_eps: Vec<String> = health.iter().map(|h| h.local_addr().to_string()).collect();
    println!("health endpoints: {}", health_eps.join(","));

    // Fleet plane: poll every health endpoint through the whole run. The
    // stuck-migration bound is wall clock in one non-idle phase;
    // PACSRV_STUCK_MIGRATION_MS lets the CI smoke job force a fire/clear
    // episode through a deliberately slowed migration.
    let stuck_bound_ns = std::env::var("PACSRV_STUCK_MIGRATION_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(|ms| ms * 1_000_000)
        .unwrap_or(DEFAULT_STUCK_MIGRATION_BOUND_NS);
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper_thread = std::thread::spawn({
        let stop = Arc::clone(&scrape_stop);
        let eps = health_eps.clone();
        move || {
            let mut scraper = FleetScraper::new(
                eps,
                FleetSloConfig {
                    p99_objective_ns: None,
                    stuck_migration_bound_ns: stuck_bound_ns,
                },
            );
            let mut polls = 0u64;
            while !stop.load(Ordering::Acquire) {
                scraper.poll(obsv::clock::now_ns());
                polls += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
            scraper.poll(obsv::clock::now_ns());
            (polls + 1, scraper.take_events())
        }
    });

    // An optional hook slow-down (CI: guarantees the scraper observes a
    // non-idle migration phase and the stuck alert episode). Only the
    // bulk phase is stretched — it copies from a snapshot while clients
    // keep being served, so the p99-ratio gate is unaffected.
    if let Some(ms) = std::env::var("PACSRV_MIGRATION_SLOW_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|ms| *ms > 0)
    {
        nodes[0].set_migration_hook(move |phase| {
            if phase == pacsrv::cluster::PHASE_BULK {
                std::thread::sleep(Duration::from_millis(ms));
            }
        });
    }

    // Load: every id placed by the hot-partition model, 80% on partition 0.
    let hp = HotPartition::new(NODES as u64, HOT_PARTITION as u64, HOT_FRACTION);
    let mut loader = RouterClient::connect(&endpoints).expect("router");
    for chunk in (0..scale.keys).collect::<Vec<u64>>().chunks(128) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|id| Request::Put {
                key: hp.key(*id).to_be_bytes().to_vec(),
                value: *id,
            })
            .collect();
        for resp in loader.call(reqs).expect("load batch") {
            assert_eq!(resp, Response::Ok, "load put failed");
        }
    }

    // Measured traffic: closed-loop 80/20 get/put through per-thread
    // routers, each op tagged with the window it *started* in.
    let window = AtomicU8::new(WIN_STEADY);
    let errors = AtomicU64::new(0);
    let mut windows: Vec<Window> = Vec::new();
    let mut rebalance_ms = 0u64;
    let mut report_detail = String::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let (window, errors) = (&window, &errors);
            let endpoints = endpoints.clone();
            handles.push(s.spawn(move || {
                let mut router = RouterClient::connect(&endpoints).expect("router");
                let mut rng = StdRng::seed_from_u64(0xc1a5 ^ (c as u64).wrapping_mul(0x9E37));
                let mut lat: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
                loop {
                    let win = window.load(Ordering::Acquire);
                    if win == WIN_STOP {
                        break;
                    }
                    let id = rng.gen_range(0..scale.keys.max(1));
                    let key = hp.key(id).to_be_bytes().to_vec();
                    let req = if rng.gen_range(0..100) < 80 {
                        Request::Get { key }
                    } else {
                        Request::Put { key, value: id }
                    };
                    let start = Instant::now();
                    match router.call(vec![req]) {
                        Ok(resps) if resps.iter().all(|r| r.executed()) => {
                            lat[win as usize].push(start.elapsed().as_micros() as u64);
                        }
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                (
                    lat,
                    router.refreshes(),
                    router.wrong_partition_seen(),
                    router.retried_reads(),
                )
            }));
        }

        // Steady window, then the migration (blocking: the Migrate frame
        // replies only once the whole state machine has run), then post.
        std::thread::sleep(Duration::from_millis(steady_ms));
        window.store(WIN_MIGRATION, Ordering::Release);
        let mut ctl = TcpClient::connect(endpoints[0].as_str()).expect("ctl");
        let mig_start = Instant::now();
        let (ok, detail) = ctl
            .migrate(MigrateOp::Start {
                partition: HOT_PARTITION,
                target: endpoints[1].clone(),
            })
            .expect("migrate rpc");
        rebalance_ms = mig_start.elapsed().as_millis() as u64;
        assert!(ok, "migration failed: {detail}");
        report_detail = detail;
        // Keep the migration window open a little past the flip so the
        // routers' WrongPartition-and-refresh hops are measured too.
        std::thread::sleep(Duration::from_millis(migration_extra_ms));
        window.store(WIN_POST, Ordering::Release);
        std::thread::sleep(Duration::from_millis(post_ms));
        window.store(WIN_STOP, Ordering::Release);

        let mut merged: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let (mut refreshes, mut wrong, mut retried) = (0u64, 0u64, 0u64);
        for h in handles {
            let (lat, r, w, rr) = h.join().expect("client panicked");
            for (m, l) in merged.iter_mut().zip(lat) {
                m.extend(l);
            }
            refreshes += r;
            wrong += w;
            retried += rr;
        }
        windows = vec![
            Window {
                label: "steady",
                lat_us: std::mem::take(&mut merged[0]),
            },
            Window {
                label: "migration",
                lat_us: std::mem::take(&mut merged[1]),
            },
            Window {
                label: "post",
                lat_us: std::mem::take(&mut merged[2]),
            },
        ];
        windows.push(Window {
            label: "",
            lat_us: vec![refreshes, wrong, retried],
        });
    });
    let counters = windows.pop().expect("router counters");
    let (refreshes, wrong_seen, retried) =
        (counters.lat_us[0], counters.lat_us[1], counters.lat_us[2]);

    scrape_stop.store(true, Ordering::Release);
    let (fleet_polls, fleet_events) = scraper_thread.join().expect("fleet scraper");

    // Convergence: every node must have installed epoch 2, and a freshly
    // refreshed router must complete a sweep with zero new bounces.
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(node.map_epoch(), 2, "node {i} never installed epoch 2");
    }
    loader.refresh_map().expect("refresh");
    assert_eq!(loader.map_epoch(), 2, "router never saw epoch 2");
    let wrong_before_sweep = loader.wrong_partition_seen();
    for chunk in (0..scale.keys.min(2_000)).collect::<Vec<u64>>().chunks(128) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|id| Request::Get {
                key: hp.key(*id).to_be_bytes().to_vec(),
            })
            .collect();
        loader.call(reqs).expect("sweep");
    }
    let sweep_bounces = loader.wrong_partition_seen() - wrong_before_sweep;
    let wrong_partition_total: Vec<u64> = nodes.iter().map(|n| n.wrong_partition_total()).collect();

    let moved_pairs = json_u64(&report_detail, "moved_pairs");
    let delta_pairs = json_u64(&report_detail, "delta_pairs");
    let seal_ms = json_u64(&report_detail, "seal_ms");
    let new_epoch = json_u64(&report_detail, "new_epoch");

    // Report.
    println!("-- client latency through the router (wall-clock us, {clients} clients)");
    row("window", &["ops".into(), "p50".into(), "p99".into()]);
    let mut p99 = [0.0f64; 3];
    let mut counts = [0usize; 3];
    for (i, w) in windows.iter_mut().enumerate() {
        counts[i] = w.lat_us.len();
        let p50 = w.quantile(0.50);
        p99[i] = w.quantile(0.99);
        row(
            w.label,
            &[
                counts[i].to_string(),
                format!("{p50:.0}"),
                format!("{:.0}", p99[i]),
            ],
        );
    }
    let steady_p99 = p99[0].max(P99_FLOOR_US);
    let ratio = p99[1] / steady_p99;
    println!(
        "-- migration: rebalance {rebalance_ms} ms (seal {seal_ms} ms), \
         {moved_pairs} bulk + {delta_pairs} delta pairs, epoch -> {new_epoch}"
    );
    println!(
        "-- router: {refreshes} refreshes, {wrong_seen} WrongPartition bounces, \
         {retried} retried reads; post-refresh sweep bounces: {sweep_bounces}"
    );

    // Fleet gate: the p99 reconstructed through the wire (scrape ->
    // parse -> bucket merge) must match a direct in-process merge of the
    // registry's histograms within the documented reconstruction bound.
    let mut gate = FleetScraper::new(health_eps.clone(), FleetSloConfig::default());
    let fleet_view = gate.poll(obsv::clock::now_ns());
    let fleet_p99 = fleet_view.merged_total().quantile(0.99);
    let mut direct = HistSnapshot::empty();
    for set in obsv::registry::global().sample().hists.values() {
        direct.merge(&set.merged());
    }
    let direct_p99 = direct.quantile(0.99);
    let fleet_diff = (fleet_p99 as f64 - direct_p99 as f64).abs() / direct_p99.max(1) as f64;
    let fleet_ok = fleet_view.nodes == NODES && fleet_diff <= RELATIVE_ERROR_BOUND;
    println!(
        "-- fleet: {} node(s), {fleet_polls} polls, {} slo event(s); merged p99 {} ns \
         vs direct merge {} ns (diff {:.4} <= bound {RELATIVE_ERROR_BOUND})",
        fleet_view.nodes,
        fleet_events.len(),
        fleet_p99,
        direct_p99,
        fleet_diff
    );
    std::fs::create_dir_all("results").ok();
    if !fleet_events.is_empty() {
        let mut jsonl = fleet_events.join("\n");
        jsonl.push('\n');
        match std::fs::write("results/fleet_events.jsonl", jsonl) {
            Ok(()) => println!("wrote results/fleet_events.jsonl"),
            Err(e) => eprintln!("could not write results/fleet_events.jsonl: {e}"),
        }
    }
    let merged_page = obsv::fleet::render_fleet_prom(&fleet_view, &gate.statuses());
    match std::fs::write("results/fleet_merged.txt", merged_page) {
        Ok(()) => println!("wrote results/fleet_merged.txt"),
        Err(e) => eprintln!("could not write results/fleet_merged.txt: {e}"),
    }

    // Partition heat: frame-boundary op/byte counters summed across
    // nodes (ownership moved mid-run, so both owners contributed), batch
    // p99 from the busiest owner. The rebalance advisor must rediscover
    // the configured hot spot from the counters alone.
    let mut heat: Vec<(u64, u64, u64)> = vec![(0, 0, 0); NODES];
    let mut busiest_owner_ops: Vec<u64> = vec![0; NODES];
    for node in &nodes {
        for (pid, (ops, bytes, p99)) in node.partition_heat().into_iter().enumerate() {
            heat[pid].0 += ops;
            heat[pid].1 += bytes;
            if ops > busiest_owner_ops[pid] {
                busiest_owner_ops[pid] = ops;
                heat[pid].2 = p99;
            }
        }
    }
    let hottest = heat
        .iter()
        .enumerate()
        .max_by_key(|(_, (ops, _, _))| *ops)
        .map_or(0, |(i, _)| i);
    let advisor_ok = hottest == HOT_PARTITION as usize && heat[hottest].0 > 0;
    println!("-- partition heat (ops / bytes / batch p99 us, summed across nodes)");
    row(
        "partition",
        &["ops".into(), "bytes".into(), "p99 us".into()],
    );
    for (pid, (ops, bytes, p99)) in heat.iter().enumerate() {
        row(
            &format!("p{pid}"),
            &[
                ops.to_string(),
                bytes.to_string(),
                format!("{:.0}", *p99 as f64 / 1e3),
            ],
        );
    }
    println!(
        "-- rebalance-advisor: partition {hottest} is hottest ({} ops), expected {HOT_PARTITION}: {}",
        heat[hottest].0,
        if advisor_ok { "OK" } else { "WRONG" }
    );

    // Traced-cluster overhead (advisory): closed-loop gets through one
    // router, sampling at its 1-in-65 536 floor vs the default 1-in-64 —
    // the steady-state cost of leaving tracing on across the cluster.
    let ab_ms = if quick { 250 } else { 500 };
    let mut ab_router = RouterClient::connect(&endpoints).expect("router");
    let mut measure = |ms: u64, seed: u64| -> u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let deadline = Instant::now() + Duration::from_millis(ms);
        let mut n = 0u64;
        while Instant::now() < deadline {
            let id = rng.gen_range(0..scale.keys.max(1));
            let ok = ab_router
                .call(vec![Request::Get {
                    key: hp.key(id).to_be_bytes().to_vec(),
                }])
                .is_ok();
            n += u64::from(ok);
        }
        n
    };
    obsv::trace::set_trace_sample_shift(16); // the clamp: 1 in 65 536
    measure(100, 0xabab); // warm both arms' connections
    let off_ops = measure(ab_ms, 0xc0de);
    obsv::trace::set_trace_sample_shift(obsv::trace::DEFAULT_TRACE_SAMPLE_SHIFT);
    let on_ops = measure(ab_ms, 0xc0df);
    let overhead_pct = (off_ops.saturating_sub(on_ops)) as f64 / off_ops.max(1) as f64 * 100.0;
    println!(
        "-- traced-cluster overhead: {off_ops} ops at 1/65536 vs {on_ops} at 1/{} \
         sampling in {ab_ms} ms: {overhead_pct:.1}% (advisory target <= 5%)",
        1u64 << obsv::trace::DEFAULT_TRACE_SAMPLE_SHIFT
    );

    let errors = errors.load(Ordering::Relaxed);
    let clean = new_epoch == 2
        && sweep_bounces == 0
        && errors == 0
        && counts.iter().all(|c| *c > 0)
        && ratio <= P99_RATIO_LIMIT
        && fleet_ok
        && advisor_ok;

    let json = format!(
        concat!(
            "{{\"schema\":\"paccluster_bench/v1\",\"stamp\":{},",
            "\"nodes\":{},\"partitions\":{},\"hot_partition\":{},\"hot_fraction\":{:.2},",
            "\"clients\":{},",
            "\"steady\":{{\"ops\":{},\"p50_us\":{:.1},\"p99_us\":{:.1}}},",
            "\"migration\":{{\"ops\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},",
            "\"rebalance_ms\":{},\"seal_ms\":{},\"moved_pairs\":{},\"delta_pairs\":{}}},",
            "\"post\":{{\"ops\":{},\"p50_us\":{:.1},\"p99_us\":{:.1}}},",
            "\"p99_ratio\":{:.4},\"p99_ratio_limit\":{:.1},\"p99_floor_us\":{:.1},",
            "\"router\":{{\"final_epoch\":{},\"refreshes\":{},\"wrong_partition_seen\":{},",
            "\"retried_reads\":{},\"sweep_bounces\":{}}},",
            "\"wrong_partition_total\":[{}],\"errors\":{},\"clean\":{}}}"
        ),
        stamp_json(&scale),
        NODES,
        NODES,
        HOT_PARTITION,
        HOT_FRACTION,
        clients,
        counts[0],
        windows[0].quantile(0.50),
        p99[0],
        counts[1],
        windows[1].quantile(0.50),
        p99[1],
        rebalance_ms,
        seal_ms,
        moved_pairs,
        delta_pairs,
        counts[2],
        windows[2].quantile(0.50),
        p99[2],
        ratio,
        P99_RATIO_LIMIT,
        P99_FLOOR_US,
        loader.map_epoch(),
        refreshes,
        wrong_seen,
        retried,
        sweep_bounces,
        wrong_partition_total
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(","),
        errors,
        clean,
    );
    std::fs::create_dir_all("results").ok();
    match std::fs::write("results/paccluster_bench.json", &json) {
        Ok(()) => println!("wrote results/paccluster_bench.json"),
        Err(e) => eprintln!("could not write results/paccluster_bench.json: {e}"),
    }

    let heat_json = format!(
        concat!(
            "{{\"schema\":\"fleet_heat/v1\",\"stamp\":{},\"hot_partition\":{},",
            "\"partitions\":[{}],",
            "\"advisor\":{{\"hottest\":{},\"expected\":{},\"ok\":{}}},",
            "\"fleet\":{{\"nodes\":{},\"p99_ns\":{},\"direct_p99_ns\":{},",
            "\"rel_error_bound\":{},\"polls\":{},\"events\":{}}},",
            "\"traced_overhead_pct\":{:.2}}}"
        ),
        stamp_json(&scale),
        HOT_PARTITION,
        heat.iter()
            .enumerate()
            .map(|(pid, (ops, bytes, p99))| format!(
                "{{\"id\":{pid},\"ops\":{ops},\"bytes\":{bytes},\"p99_ns\":{p99}}}"
            ))
            .collect::<Vec<_>>()
            .join(","),
        hottest,
        HOT_PARTITION,
        advisor_ok,
        fleet_view.nodes,
        fleet_p99,
        direct_p99,
        RELATIVE_ERROR_BOUND,
        fleet_polls,
        fleet_events.len(),
        overhead_pct,
    );
    match std::fs::write("results/fleet_heat.json", &heat_json) {
        Ok(()) => println!("wrote results/fleet_heat.json"),
        Err(e) => eprintln!("could not write results/fleet_heat.json: {e}"),
    }

    // Keep the cluster scrapeable for an external observer (the CI job
    // runs pacsrv-top --endpoints against it inside this window).
    if let Some(hold) = std::env::var("PACCLUSTER_HOLD_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|ms| *ms > 0)
    {
        println!("holding cluster open for {hold} ms");
        std::thread::sleep(Duration::from_millis(hold));
    }
    for h in health {
        h.stop();
    }
    for server in servers {
        server.stop();
    }
    for node in &nodes {
        node.service().shutdown(Duration::from_secs(10));
    }
    drop(nodes);
    for tree in trees {
        tree.destroy();
    }

    // The CI cluster-smoke job greps for this line.
    println!(
        "paccluster-bench: {} (epoch {new_epoch}, p99 ratio {ratio:.2}, \
         sweep bounces {sweep_bounces}, errors {errors})",
        if clean { "CLEAN" } else { "DIRTY" },
    );
    if !clean {
        std::process::exit(1);
    }
}
