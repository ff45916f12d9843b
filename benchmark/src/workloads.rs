//! Running one named workload end to end: set its system up (several times,
//! for a steady `setup_s`), drive it closed-loop from its client threads
//! through six equal slices of a fixed number of requests, verify every
//! reply, and reduce the slices to the scoreboard. Every timed value is what
//! the wall clock saw. No spans are recorded here: end-to-end numbers are
//! taken with tracing off.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use pmem::PmemPool;

use crate::catalogue::{Path, WorkloadDef};
use crate::client::{Client, Library, LibraryClient, Route, ServiceClient};
use crate::stats::{median, percentile, spread, SliceStat};
use crate::systems::{self, Cluster, Scale, Served};
use crate::tape::{tape_hash, Tape};

/// Slices per run; slice 0 is warm-up and discarded.
pub const SLICES: usize = 6;

/// On the library path one operation in this many is timed (two clock reads
/// per sample are about 1% of the operations between them). Service requests
/// are round trips of 100 us and more, so each one is timed.
const EMBEDDED_SAMPLE_EVERY: u64 = 16;

/// Seconds of a run at the issue's sizing: `WorkloadDef::slice_requests`
/// is the work of one slice of such a run.
const SIZED_FOR_SECONDS: f64 = 24.0;

/// Everything the scoreboard says about one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub name: &'static str,
    pub tape_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_s: SliceStat,
    /// Throughput of every slice, warm-up first: what `.spread` summarises.
    pub ops_per_s_slices: [f64; SLICES],
    pub p50_us: SliceStat,
    pub p99_us: SliceStat,
    /// Latency samples in one slice.
    pub samples: usize,
    /// Median over the run's set-ups, with their spread.
    pub setup_s: SliceStat,
    /// Every set-up's time, in order: what `setup_s.spread` summarises.
    pub setup_s_rounds: Vec<f64>,
    pub rss_mb: f64,
    pub space_amp: f64,
}

enum System {
    Embedded(systems::Tree),
    Tcp(Served),
    Router(Cluster),
}

impl System {
    fn pools(&self) -> Vec<Arc<PmemPool>> {
        match self {
            System::Embedded(tree) => tree.pools(),
            System::Tcp(served) => served.tree.pools(),
            System::Router(cluster) => cluster.pools(),
        }
    }

    /// Clients must already be gone (connection threads end at EOF).
    fn tear_down(self) {
        match self {
            System::Embedded(tree) => systems::destroy_tree(tree),
            System::Tcp(served) => systems::destroy_tree(served.stop()),
            System::Router(cluster) => cluster.stop().into_iter().for_each(systems::destroy_tree),
        }
    }
}

type Clients = Vec<Box<dyn Client + Send>>;

/// Create pools, preload, quiesce, connect: what `setup_s` times.
fn set_up(def: &WorkloadDef, scale: &Scale, round: usize) -> (System, Clients) {
    let name = format!("{}-{round}", def.name);
    let boxed = |c: ServiceClient| Box::new(c) as Box<dyn Client + Send>;
    match def.path {
        Path::Embedded => {
            let tree = systems::create_tree(&name, scale.pool_bytes);
            systems::preload(&tree, def.space, scale.keys, def.clients as u64);
            let clients = (0..def.clients)
                .map(|_| {
                    let index = Library::Tree(Arc::clone(&tree));
                    Box::new(LibraryClient::new(index, def.space)) as Box<dyn Client + Send>
                })
                .collect();
            (System::Embedded(tree), clients)
        }
        Path::Tcp => {
            let tree = systems::create_tree(&name, scale.pool_bytes);
            systems::preload(&tree, def.space, scale.keys, def.clients as u64);
            let served = Served::start(tree, &name);
            let clients = (0..def.clients)
                .map(|_| boxed(ServiceClient::new(Route::Tcp(served.connect()), def.space)))
                .collect();
            (System::Tcp(served), clients)
        }
        Path::Router => {
            assert_eq!(def.clients, 1, "the cluster is loaded by its one router");
            let cluster = Cluster::start(&name, scale.node_pool_bytes);
            let mut router = cluster.connect();
            cluster.load(&mut router, scale.keys);
            let clients = vec![boxed(ServiceClient::new(Route::Router(router), def.space))];
            (System::Router(cluster), clients)
        }
    }
}

struct SliceLog {
    begin: Instant,
    end: Instant,
    ops: u64,
    failed: u64,
    lat_ns: Vec<u32>,
}

/// One client's closed loop over its tape: `requests` requests per slice,
/// every client starting each slice together.
fn drive(
    client: &mut dyn Client,
    tape: &mut Tape,
    def: &WorkloadDef,
    requests: u64,
    slice_start: &Barrier,
) -> Vec<SliceLog> {
    let sample_every = match def.path {
        Path::Embedded => EMBEDDED_SAMPLE_EVERY,
        Path::Tcp | Path::Router => 1,
    };
    let mut ops = Vec::with_capacity(def.batch);
    let mut logs = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        slice_start.wait();
        let begin = Instant::now();
        let (mut done, mut failed) = (0, 0);
        let mut lat_ns = Vec::with_capacity((requests / sample_every) as usize + 1);
        for r in 0..requests {
            ops.clear();
            ops.extend((0..def.batch).map(|_| tape.next_op()));
            client.prepare(&ops);
            if r % sample_every == 0 {
                let t0 = Instant::now();
                client.issue(&ops);
                lat_ns.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            } else {
                client.issue(&ops);
            }
            done += ops.len() as u64;
            failed += client.verify(&ops);
        }
        logs.push(SliceLog {
            begin,
            end: Instant::now(),
            ops: done,
            failed,
            lat_ns,
        });
    }
    logs
}

/// Resident set of this process, which holds clients and servers alike.
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line");
    kb / 1024.0
}

pub fn run(def: &'static WorkloadDef, scale: &Scale, seed: u64, seconds: f64) -> Outcome {
    pmem::model::set_config(pmem::NvmModelConfig::disabled());

    let mut setup_times = Vec::new();
    let mut live: Option<(System, Clients)> = None;
    for round in 0..scale.setups {
        if let Some((system, clients)) = live.take() {
            drop(clients);
            system.tear_down();
        }
        let t0 = Instant::now();
        live = Some(set_up(def, scale, round));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let (system, clients) = live.expect("at least one set-up");

    // The same work on every commit: the issue's request counts, scaled by
    // the run length asked for.
    let share = seconds / SIZED_FOR_SECONDS;
    let requests = ((def.slice_requests as f64 * share) as u64 / def.clients as u64).max(1);
    let slice_start = Barrier::new(clients.len());
    let mut tapes: Vec<Tape> = Vec::new();
    let mut logs: Vec<Vec<SliceLog>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                let slice_start = &slice_start;
                s.spawn(move || {
                    let mut tape = Tape::new(def, scale.keys, seed, i);
                    let log = drive(client.as_mut(), &mut tape, def, requests, slice_start);
                    (tape, log)
                })
            })
            .collect();
        for h in handles {
            let (tape, log) = h.join().expect("client thread");
            tapes.push(tape);
            logs.push(log);
        }
    });
    // End of the measured phase, before anything is torn down.
    let rss_mb = rss_mb();

    // A slice lasts from its first client's start to its last client's end.
    let mut ops_per_s = [0.0; SLICES];
    let mut p50_us = [0.0; SLICES];
    let mut p99_us = [0.0; SLICES];
    let mut samples = 0;
    for k in 0..SLICES {
        let slice = || logs.iter().map(|client| &client[k]);
        let begin = slice().map(|l| l.begin).min().expect("a client");
        let end = slice().map(|l| l.end).max().expect("a client");
        let ops: u64 = slice().map(|l| l.ops).sum();
        ops_per_s[k] = ops as f64 / (end - begin).as_secs_f64();
        let mut lat_ns: Vec<u32> = slice().flat_map(|l| l.lat_ns.iter().copied()).collect();
        lat_ns.sort_unstable();
        p50_us[k] = f64::from(percentile(&lat_ns, 0.50)) / 1e3;
        p99_us[k] = f64::from(percentile(&lat_ns, 0.99)) / 1e3;
        samples = lat_ns.len();
    }
    let all = logs.iter().flatten();
    let (attempted, failed) = all.fold((0, 0), |(a, f), l| (a + l.ops, f + l.failed));
    let live_delta: i64 = tapes.iter().map(|t| t.live_delta).sum();
    let live_keys = (scale.keys as i64 + live_delta) as u64;
    let space_amp = systems::space_amp(&system.pools(), live_keys, def.space);
    system.tear_down();

    Outcome {
        name: def.name,
        tape_hash: tape_hash(def, scale.keys, seed),
        attempted,
        failed,
        ops_per_s: SliceStat::of_measured(&ops_per_s),
        ops_per_s_slices: ops_per_s,
        p50_us: SliceStat::of_measured(&p50_us),
        p99_us: SliceStat::of_measured(&p99_us),
        samples,
        setup_s: SliceStat {
            median: median(&setup_times),
            spread: spread(&setup_times),
        },
        setup_s_rounds: setup_times,
        rss_mb,
        space_amp,
    }
}
