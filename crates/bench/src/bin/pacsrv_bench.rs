//! pacsrv-bench: service-mode vs embedded YCSB, closed and open loop.
//!
//! Three measured phases over one populated PACTree:
//!
//! 1. **embedded** — the plain library path: `ycsb::driver` drives the
//!    index from T threads (the baseline every other figure uses);
//! 2. **service closed-loop** — the same mix through a `pacsrv` service
//!    with T shard workers, T clients submitting batches over the
//!    zero-copy in-process transport and waiting for each reply set; the
//!    headline is the service/embedded throughput ratio (target >= 0.70)
//!    plus the service-side sojourn percentiles (p50/p99/p999);
//! 3. **service open-loop at 2x** — paced submission at twice the
//!    closed-loop rate with a per-op deadline: demonstrates admission
//!    control (explicit `Overloaded` sheds, `DeadlineExceeded` drops,
//!    bounded queues) instead of queue collapse;
//! 4. **scan interference** — writer clients pushing Puts while scanner
//!    clients run long scans through the service, first live (`Scan`) and
//!    then snapshot-isolated (`Snapshot`/`ScanAt`/`ReleaseSnapshot`);
//!    reported as writer-throughput retention vs a
//!    no-scanner baseline.
//!
//! Writes `results/pacsrv_bench.json` (schema `pacsrv_bench/v2`, stamped
//! with git commit + configuration). `--quick` shrinks everything for the
//! CI smoke job and skips nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{banner, mops, row, stamp_json, AnyIndex, Kind, Scale};
use obsv::OpKind;
use pacsrv::wire::{Request, Response};
use pacsrv::{PacService, ServiceConfig};
use pmem::model::{self, CoherenceMode, NvmModelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ycsb::interference::ScanMode;
use ycsb::workload::Op;
use ycsb::{driver, DriverConfig, KeySpace, Mix, Workload};

fn to_request(op: Op, space: KeySpace, rng_value: u64) -> Request {
    match op {
        Op::Read(id) => Request::Get {
            key: space.encode(id),
        },
        Op::Insert(id) => Request::Put {
            key: space.encode(id),
            value: id,
        },
        Op::Update(id) => Request::Put {
            key: space.encode(id),
            value: rng_value,
        },
        Op::Scan(id, len) => Request::Scan {
            start: space.encode(id),
            count: len as u32,
        },
    }
}

struct LoopOutcome {
    ok: u64,
    shed: u64,
    timeout: u64,
    /// Model-time seconds.
    seconds: f64,
}

impl LoopOutcome {
    fn mops(&self) -> f64 {
        self.ok as f64 / self.seconds / 1e6
    }
    fn rate(&self, n: u64) -> f64 {
        let total = self.ok + self.shed + self.timeout;
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    }
}

fn tally(resp: Response, ok: &AtomicU64, shed: &AtomicU64, timeout: &AtomicU64) {
    match resp {
        Response::Overloaded | Response::Aborted => shed.fetch_add(1, Ordering::Relaxed),
        Response::DeadlineExceeded => timeout.fetch_add(1, Ordering::Relaxed),
        _ => ok.fetch_add(1, Ordering::Relaxed),
    };
}

/// One client-side load configuration for [`drive_service`].
struct Drive {
    total_ops: u64,
    clients: usize,
    batch: usize,
    /// Per-client pacing rate for the open loop; 0 means closed loop
    /// (wait for each reply set before submitting the next batch).
    pace_ops_per_sec: f64,
    deadline: Option<Duration>,
    dilation: f64,
}

/// Runs `d.total_ops` of `workload` through the service from `d.clients`
/// threads.
fn drive_service(
    service: &Arc<PacService<AnyIndex>>,
    workload: &Workload,
    space: KeySpace,
    d: &Drive,
) -> LoopOutcome {
    let Drive {
        total_ops,
        clients,
        batch,
        pace_ops_per_sec,
        deadline,
        dilation,
    } = *d;
    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let timeout = AtomicU64::new(0);
    let per_client = total_ops / clients as u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (ok, shed, timeout) = (&ok, &shed, &timeout);
            let workload = workload.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xbeef ^ (c as u64).wrapping_mul(0x9E37));
                let mut next_insert =
                    workload.populated + (c as u64 + 1) * (u64::MAX / 4 / clients as u64);
                let client_start = Instant::now();
                let mut open_pending = Vec::new();
                let mut issued = 0u64;
                while issued < per_client {
                    let n = (batch as u64).min(per_client - issued) as usize;
                    let reqs: Vec<Request> = (0..n)
                        .map(|i| {
                            let op = workload.next_op(&mut rng, &mut || {
                                next_insert += 1;
                                next_insert
                            });
                            to_request(op, space, issued + i as u64)
                        })
                        .collect();
                    issued += n as u64;
                    let rs = service.submit(reqs, deadline);
                    if pace_ops_per_sec > 0.0 {
                        open_pending.push(rs);
                        // Pace to the target rate; drain finished sets
                        // opportunistically to bound memory. Every drained
                        // set is tallied — dropping completed sets uncounted
                        // would bias the sample toward slow batches (shed
                        // batches complete instantly and would vanish).
                        let due = Duration::from_secs_f64(issued as f64 / pace_ops_per_sec);
                        if let Some(sleep) = due.checked_sub(client_start.elapsed()) {
                            std::thread::sleep(sleep);
                        }
                        if open_pending.len() >= 64 {
                            for rs in std::mem::take(&mut open_pending) {
                                if rs.is_done() {
                                    for resp in rs.wait() {
                                        tally(resp, ok, shed, timeout);
                                    }
                                } else {
                                    open_pending.push(rs);
                                }
                            }
                        }
                    } else {
                        for resp in rs.wait() {
                            tally(resp, ok, shed, timeout);
                        }
                    }
                }
                for rs in open_pending {
                    for resp in rs.wait() {
                        tally(resp, ok, shed, timeout);
                    }
                }
            });
        }
    });
    LoopOutcome {
        ok: ok.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        timeout: timeout.load(Ordering::Relaxed),
        seconds: start.elapsed().as_secs_f64() / dilation.max(1.0),
    }
}

/// One phase-4 measurement: writer clients pushing Put batches closed-loop
/// while scanner clients run long scans through the service.
struct ScanPhase {
    /// Writer throughput, model-time Mops/s.
    writer_mops: f64,
    /// Scans the scanner clients completed.
    scans: u64,
}

#[allow(clippy::too_many_arguments)]
fn scan_interference(
    service: &Arc<PacService<AnyIndex>>,
    space: KeySpace,
    populated: u64,
    writer_ops: u64,
    writers: usize,
    scanners: usize,
    scan_len: u32,
    dilation: f64,
    mode: ScanMode,
) -> ScanPhase {
    let stop = AtomicBool::new(false);
    let scans = AtomicU64::new(0);
    let per_writer = writer_ops / writers.max(1) as u64;
    let start = Instant::now();
    let mut seconds = 0.0;
    std::thread::scope(|s| {
        let mut writer_handles = Vec::new();
        for c in 0..writers.max(1) {
            writer_handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xd00d ^ (c as u64).wrapping_mul(0x9E37));
                let mut issued = 0u64;
                while issued < per_writer {
                    let n = 16.min(per_writer - issued) as usize;
                    let reqs: Vec<Request> = (0..n)
                        .map(|_| Request::Put {
                            key: space.encode(rng.gen_range(0..populated.max(1))),
                            value: rng.gen(),
                        })
                        .collect();
                    issued += n as u64;
                    service.submit(reqs, None).wait();
                }
            }));
        }
        let scanner_count = if mode == ScanMode::None {
            0
        } else {
            scanners.max(1)
        };
        for c in 0..scanner_count {
            let (stop, scans) = (&stop, &scans);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5ca9 ^ (c as u64).wrapping_mul(0x51F1));
                while !stop.load(Ordering::Relaxed) {
                    let start_key = space.encode(rng.gen_range(0..populated.max(1)));
                    match mode {
                        ScanMode::None => unreachable!("no scanners in baseline mode"),
                        ScanMode::Live => {
                            service
                                .submit(
                                    vec![Request::Scan {
                                        start: start_key,
                                        count: scan_len,
                                    }],
                                    None,
                                )
                                .wait();
                        }
                        ScanMode::Snapshot => {
                            let resps = service.submit(vec![Request::Snapshot], None).wait();
                            let Some(Response::Snapshot(snap)) = resps.into_iter().next() else {
                                continue; // shed under load; retry
                            };
                            service
                                .submit(
                                    vec![Request::ScanAt {
                                        snap,
                                        start: start_key,
                                        count: scan_len,
                                    }],
                                    None,
                                )
                                .wait();
                            service
                                .submit(vec![Request::ReleaseSnapshot { snap }], None)
                                .wait();
                        }
                    }
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for h in writer_handles {
            h.join().expect("writer client panicked");
        }
        seconds = start.elapsed().as_secs_f64() / dilation.max(1.0);
        stop.store(true, Ordering::Relaxed);
    });
    ScanPhase {
        writer_mops: (per_writer * writers.max(1) as u64) as f64 / seconds / 1e6,
        scans: scans.load(Ordering::Relaxed),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    pmem::numa::set_topology(2);
    let scale = if quick {
        Scale {
            keys: 8_000,
            ops: 8_000,
            threads: vec![4],
            dilation: 32.0,
            pool_size: 256 << 20,
        }
    } else {
        Scale::from_env()
    };
    let threads = scale.max_threads().min(56);
    banner("pacsrv-bench", "service mode vs embedded (YCSB-B)", &scale);

    // Wall ns -> model-time µs for histogram reporting.
    let us = 1e-3 / scale.dilation.max(1.0);
    let space = KeySpace::Integer;
    let mix = Mix::B;

    let idx = AnyIndex::create(Kind::PacTree, "pacsrv-bench", space, &scale);
    driver::populate(&idx, space, scale.keys, 4);
    let workload = Workload::zipfian(mix, scale.keys);

    // Phase 1: embedded baseline.
    model::set_config(NvmModelConfig::optane_dilated(
        CoherenceMode::Snoop,
        scale.dilation,
    ));
    let embedded = driver::run_workload(
        &idx,
        &workload,
        space,
        &DriverConfig {
            threads,
            ops: scale.ops,
            dilation: scale.dilation,
            ..Default::default()
        },
    );
    model::set_config(NvmModelConfig::disabled());

    // Phase 2: the same mix through the service, closed loop.
    let cfg = ServiceConfig {
        shards: threads,
        queue_capacity: 1024,
        batch_max: 32,
        ..ServiceConfig::named("pacsrv-bench", threads)
    };
    let service = PacService::start(idx.clone(), cfg);
    model::set_config(NvmModelConfig::optane_dilated(
        CoherenceMode::Snoop,
        scale.dilation,
    ));
    let closed = drive_service(
        &service,
        &workload,
        space,
        &Drive {
            total_ops: scale.ops,
            clients: threads,
            batch: 16,
            pace_ops_per_sec: 0.0,
            deadline: None,
            dilation: scale.dilation,
        },
    );
    model::set_config(NvmModelConfig::disabled());
    let sojourn = service.metrics().ops.snapshot();
    let ratio = closed.mops() / embedded.mops.max(1e-12);

    // Phase 3: open loop at 2x the closed-loop rate, with a deadline.
    let closed_wall_rate = closed.ok as f64 / (closed.seconds * scale.dilation.max(1.0));
    let per_client_rate = 2.0 * closed_wall_rate / threads as f64;
    let deadline = Duration::from_millis(if quick { 200 } else { 500 });
    model::set_config(NvmModelConfig::optane_dilated(
        CoherenceMode::Snoop,
        scale.dilation,
    ));
    let open = drive_service(
        &service,
        &workload,
        space,
        &Drive {
            total_ops: scale.ops,
            clients: threads,
            batch: 16,
            pace_ops_per_sec: per_client_rate,
            deadline: Some(deadline),
            dilation: scale.dilation,
        },
    );
    model::set_config(NvmModelConfig::disabled());

    // Phase 4: scan interference — long scans through the service while
    // writer clients keep pushing Puts, live vs snapshot-isolated.
    let s_writers = (threads / 2).max(1);
    let s_scanners = (threads / 4).max(1);
    let scan_len: u32 = if quick { 200 } else { 1000 };
    let phase_ops = (scale.ops / 2).max(s_writers as u64);
    model::set_config(NvmModelConfig::optane_dilated(
        CoherenceMode::Snoop,
        scale.dilation,
    ));
    let run_phase = |mode| {
        scan_interference(
            &service,
            space,
            scale.keys,
            phase_ops,
            s_writers,
            s_scanners,
            scan_len,
            scale.dilation,
            mode,
        )
    };
    let s_base = run_phase(ScanMode::None);
    let s_live = run_phase(ScanMode::Live);
    let s_snap = run_phase(ScanMode::Snapshot);
    model::set_config(NvmModelConfig::disabled());
    let live_ret = s_live.writer_mops / s_base.writer_mops.max(1e-12);
    let snap_ret = s_snap.writer_mops / s_base.writer_mops.max(1e-12);

    let drained = service.shutdown(Duration::from_secs(30));

    // Report.
    println!("-- throughput (model-time Mops/s, W-B zipfian, t={threads})");
    row("mode", &["Mops".into(), "ratio".into()]);
    row("embedded", &[mops(embedded.mops), "1.000".into()]);
    row(
        "service closed-loop",
        &[mops(closed.mops()), format!("{ratio:.3}")],
    );
    println!("-- service sojourn latency (model-time µs, admission -> completion)");
    row(
        "op",
        &["count".into(), "p50".into(), "p99".into(), "p99.9".into()],
    );
    for kind in OpKind::ALL {
        let h = sojourn.get(kind);
        if h.count() == 0 {
            continue;
        }
        row(
            kind.name(),
            &[
                h.count().to_string(),
                format!("{:.1}", h.quantile(0.50) as f64 * us),
                format!("{:.1}", h.quantile(0.99) as f64 * us),
                format!("{:.1}", h.quantile(0.999) as f64 * us),
            ],
        );
    }
    println!(
        "-- open loop at 2x: ok {:.3} Mops/s, shed {:.1}%, timeout {:.1}% (deadline {:?})",
        open.mops(),
        open.rate(open.shed) * 100.0,
        open.rate(open.timeout) * 100.0,
        deadline,
    );
    println!(
        "-- scan interference ({s_writers} writers, {s_scanners} scanners, {scan_len}-key scans)"
    );
    row(
        "mode",
        &["writer Mops".into(), "retention".into(), "scans".into()],
    );
    row(
        "no scanners",
        &[mops(s_base.writer_mops), "1.000".into(), "0".into()],
    );
    row(
        "live scans",
        &[
            mops(s_live.writer_mops),
            format!("{live_ret:.3}"),
            s_live.scans.to_string(),
        ],
    );
    row(
        "snapshot scans",
        &[
            mops(s_snap.writer_mops),
            format!("{snap_ret:.3}"),
            s_snap.scans.to_string(),
        ],
    );
    println!("-- drained: {drained}");

    let overall = sojourn.merged();
    let json = format!(
        concat!(
            "{{\"schema\":\"pacsrv_bench/v2\",\"stamp\":{},\"mix\":\"{}\",\"threads\":{},",
            "\"embedded\":{{\"mops\":{:.6}}},",
            "\"service\":{{\"mops\":{:.6},\"ratio\":{:.4},\"shed\":{},\"timeout\":{},",
            "\"p50_us\":{:.2},\"p99_us\":{:.2},\"p999_us\":{:.2}}},",
            "\"overload_2x\":{{\"mops\":{:.6},\"shed_rate\":{:.4},\"timeout_rate\":{:.4}}},",
            "\"scan_interference\":{{\"writers\":{},\"scanners\":{},\"scan_len\":{},",
            "\"baseline_mops\":{:.6},",
            "\"live_mops\":{:.6},\"live_retention\":{:.4},\"live_scans\":{},",
            "\"snapshot_mops\":{:.6},\"snapshot_retention\":{:.4},\"snapshot_scans\":{}}},",
            "\"drained\":{}}}"
        ),
        stamp_json(&scale),
        mix.short_name(),
        threads,
        embedded.mops,
        closed.mops(),
        ratio,
        closed.shed,
        closed.timeout,
        overall.quantile(0.50) as f64 * us,
        overall.quantile(0.99) as f64 * us,
        overall.quantile(0.999) as f64 * us,
        open.mops(),
        open.rate(open.shed),
        open.rate(open.timeout),
        s_writers,
        s_scanners,
        scan_len,
        s_base.writer_mops,
        s_live.writer_mops,
        live_ret,
        s_live.scans,
        s_snap.writer_mops,
        snap_ret,
        s_snap.scans,
        drained,
    );
    std::fs::create_dir_all("results").ok();
    match std::fs::write("results/pacsrv_bench.json", &json) {
        Ok(()) => println!("wrote results/pacsrv_bench.json"),
        Err(e) => eprintln!("could not write results/pacsrv_bench.json: {e}"),
    }

    // The CI smoke job greps for this line: closed-loop service traffic
    // must be error-free and the drain must complete.
    let clean = drained && closed.shed == 0 && closed.timeout == 0;
    println!(
        "pacsrv-bench: {} (ratio {ratio:.3}, closed-loop errors {})",
        if clean { "CLEAN" } else { "DIRTY" },
        closed.shed + closed.timeout,
    );
    drop(service);
    idx.destroy();
    if !clean {
        std::process::exit(1);
    }
}
