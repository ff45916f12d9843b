//! Three-node cluster end to end: smart routing, live migration with
//! concurrent writers, epoch convergence, `WrongPartition` bounces, and the
//! transparent read-reconnect satellite.

mod common;

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use common::cluster::{p0_key, spread_key, start_cluster};
use common::MapIndex;
use pacsrv::cluster::{RouterClient, PHASE_BULK};
use pacsrv::wire::{decode_frame, MigrateOp, PartitionMap, Request, Response, WireError};
use pacsrv::{PacService, ServiceConfig, TcpClient};
use ycsb::RangeIndex;

#[test]
fn router_routes_across_partitions() {
    let cluster = start_cluster("route", 3);
    let mut router = RouterClient::connect(&cluster.endpoints[..1]).expect("router");
    assert_eq!(router.map_epoch(), 1);

    // One batch mixing all three partitions: the router splits it, the
    // replies come back in request order.
    let reqs: Vec<Request> = (0..60u64)
        .map(|i| Request::Put {
            key: spread_key(i),
            value: i,
        })
        .collect();
    let resps = router.call(reqs).expect("puts");
    assert!(resps.iter().all(|r| *r == Response::Ok));
    for i in 0..60u64 {
        let resps = router
            .call(vec![Request::Get { key: spread_key(i) }])
            .expect("get");
        assert_eq!(resps, vec![Response::Value(Some(i))], "key {i}");
    }
    // A fresh map never bounces.
    assert_eq!(router.wrong_partition_seen(), 0);
    assert_eq!(router.refreshes(), 0);

    // Cross-partition range scan: all 60 pairs, starting from the empty key.
    assert_eq!(router.scan(&[], 1000).expect("scan"), 60);

    cluster.stop();
}

#[test]
fn live_migration_with_concurrent_writers_loses_nothing() {
    let cluster = start_cluster("migrate", 3);
    let seeds = cluster.endpoints.clone();
    let mut router = RouterClient::connect(&seeds).expect("router");

    // Preload partition 0 (and some spread keys for realism).
    let preload: Vec<Request> = (0..400u64)
        .map(|i| Request::Put {
            key: p0_key(i * 7919),
            value: i,
        })
        .collect();
    assert!(router
        .call(preload)
        .expect("preload")
        .iter()
        .all(|r| *r == Response::Ok));

    // Move partition 0 from node 0 to node 1 while a writer hammers it.
    let src = cluster.endpoints[0].clone();
    let target = cluster.endpoints[1].clone();
    let mig = std::thread::spawn(move || {
        let mut ctl = TcpClient::connect(src.as_str()).expect("ctl connect");
        ctl.migrate(MigrateOp::Start {
            partition: 0,
            target,
        })
        .expect("migrate rpc")
    });
    let writer_seeds = seeds.clone();
    let writer = std::thread::spawn(move || {
        let mut w = RouterClient::connect(&writer_seeds).expect("writer router");
        let mut acked = Vec::new();
        for i in 0..300u64 {
            let key = p0_key(1_000_000 + i * 131);
            match w.call(vec![Request::Put {
                key: key.clone(),
                value: i,
            }]) {
                Ok(resps) if resps == vec![Response::Ok] => acked.push((key, i)),
                other => panic!("write not acked: {other:?}"),
            }
        }
        (acked, w.wrong_partition_seen())
    });

    let (ok, detail) = mig.join().expect("migration thread");
    assert!(ok, "migration failed: {detail}");
    assert!(detail.contains("\"new_epoch\":2"), "{detail}");
    let (acked, writer_bounces) = writer.join().expect("writer thread");
    assert_eq!(acked.len(), 300);

    // Every acked write (and the preload) reads back through a fresh
    // router — zero acked-write loss across the handoff.
    let mut check = RouterClient::connect(&seeds).expect("check router");
    assert_eq!(check.map_epoch(), 2, "fresh router sees the flipped map");
    for (key, v) in &acked {
        let resps = check
            .call(vec![Request::Get { key: key.clone() }])
            .expect("get");
        assert_eq!(resps, vec![Response::Value(Some(*v))]);
    }

    // Epochs converged everywhere (node 2 learned via gossip).
    for node in &cluster.nodes {
        assert_eq!(node.map_epoch(), 2, "node {}", node.endpoint());
    }

    // The stale router refreshes once and stops bouncing: after the next
    // call lands, further traffic adds no WrongPartition replies.
    let before_refresh = router.map_epoch();
    assert_eq!(before_refresh, 1);
    let resps = router
        .call(vec![Request::Get {
            key: acked[0].0.clone(),
        }])
        .expect("stale router get");
    assert_eq!(resps, vec![Response::Value(Some(acked[0].1))]);
    assert_eq!(router.map_epoch(), 2);
    let settled = router.wrong_partition_seen();
    for (key, v) in acked.iter().take(50) {
        let resps = router
            .call(vec![Request::Get { key: key.clone() }])
            .expect("settled get");
        assert_eq!(resps, vec![Response::Value(Some(*v))]);
    }
    assert_eq!(
        router.wrong_partition_seen(),
        settled,
        "no WrongPartition storm after the refresh"
    );
    if writer_bounces > 0 {
        // The writer raced the seal window at least once and recovered.
        assert!(check.map_epoch() == 2);
    }

    // The source retired its copy: a local scan of the whole space on
    // node 0 sees only what it still owns.
    let n0_scan = cluster.nodes[0]
        .service()
        .index()
        .scan(&[], usize::MAX >> 1);
    assert_eq!(n0_scan, 0, "node 0 still holds migrated pairs");

    // Stale maps are fenced: replaying the epoch-1 map is refused.
    let mut ctl = TcpClient::connect(cluster.endpoints[2].as_str()).expect("ctl");
    let old_map = PartitionMap::split_u64(&seeds);
    let (ok, _) = ctl
        .migrate(MigrateOp::Install { map: old_map })
        .expect("rpc");
    assert!(!ok, "stale epoch must be rejected");
    assert_eq!(cluster.nodes[2].map_epoch(), 2);

    cluster.stop();
}

/// A node asked for a key it does not own answers `WrongPartition` with
/// its installed map's epoch (what a router needs for its refresh), and
/// counts the bounce.
#[test]
fn unowned_key_answers_wrong_partition_with_map_epoch() {
    let cluster = start_cluster("unowned", 3);
    // A key owned by node 2, asked of node 0.
    let key = u64::MAX.to_be_bytes().to_vec();
    let mut client = TcpClient::connect(cluster.endpoints[0].as_str()).expect("connect");
    let resps = client.call(vec![Request::Get { key }]).expect("call");
    assert_eq!(resps, vec![Response::WrongPartition { map_epoch: 1 }]);
    assert_eq!(cluster.nodes[0].wrong_partition_total(), 1);
    cluster.stop();
}

/// An aborted import clears importing mode and wipes the partial copy:
/// the target stops accepting the partition and holds none of its keys.
#[test]
fn import_abort_clears_mode_and_wipes_partial_copy() {
    let cluster = start_cluster("abort", 2);
    let target = cluster.endpoints[1].clone();
    let mut ctl = TcpClient::connect(target.as_str()).expect("ctl");
    let (ok, _) = ctl
        .migrate(MigrateOp::ImportBegin { partition: 0 })
        .expect("rpc");
    assert!(ok, "target must accept the import");

    // A partial "bulk copy" lands on the target while importing.
    let key = p0_key(42);
    let resps = ctl
        .call(vec![Request::Put {
            key: key.clone(),
            value: 7,
        }])
        .expect("import put");
    assert_eq!(
        resps,
        vec![Response::Ok],
        "importing target accepts the copy"
    );

    // The migration fails; the source aborts the import.
    let (ok, _) = ctl
        .migrate(MigrateOp::ImportAbort { partition: 0 })
        .expect("rpc");
    assert!(ok);
    // The partial copy is gone and the partition bounces again.
    assert_eq!(
        cluster.nodes[1]
            .service()
            .index()
            .scan(&[], usize::MAX >> 1),
        0
    );
    let resps = ctl
        .call(vec![Request::Put { key, value: 8 }])
        .expect("post-abort put");
    assert_eq!(resps, vec![Response::WrongPartition { map_epoch: 1 }]);
    // Nonsense imports are refused outright.
    let (ok, detail) = ctl
        .migrate(MigrateOp::ImportBegin { partition: 1 })
        .expect("rpc");
    assert!(
        !ok,
        "importing an owned partition must be refused: {detail}"
    );
    let (ok, _) = ctl
        .migrate(MigrateOp::ImportBegin { partition: 99 })
        .expect("rpc");
    assert!(!ok, "importing an unknown partition must be refused");
    cluster.stop();
}

/// A key bulk-copied by a *failed* migration attempt and then deleted on
/// the source must not be resurrected by a later successful migration:
/// `ImportBegin` wipes the stale partial copy before the fresh one.
#[test]
fn retried_migration_does_not_resurrect_stale_keys() {
    let cluster = start_cluster("retry", 2);
    let seeds = cluster.endpoints.clone();
    let mut router = RouterClient::connect(&seeds).expect("router");

    let stale = p0_key(1000);
    let live = p0_key(2000);
    let resps = router
        .call(vec![
            Request::Put {
                key: stale.clone(),
                value: 1,
            },
            Request::Put {
                key: live.clone(),
                value: 2,
            },
        ])
        .expect("preload");
    assert!(resps.iter().all(|r| *r == Response::Ok));

    // A previous migration attempt got as far as copying `stale` to the
    // target, then its source died without sending ImportAbort.
    let mut ctl = TcpClient::connect(cluster.endpoints[1].as_str()).expect("ctl");
    let (ok, _) = ctl
        .migrate(MigrateOp::ImportBegin { partition: 0 })
        .expect("rpc");
    assert!(ok);
    let resps = ctl
        .call(vec![Request::Put {
            key: stale.clone(),
            value: 1,
        }])
        .expect("partial copy");
    assert_eq!(resps, vec![Response::Ok]);

    // The source deletes the key before the retry.
    let resps = router
        .call(vec![Request::Delete { key: stale.clone() }])
        .expect("delete");
    assert_eq!(resps, vec![Response::Removed(Some(1))]);

    // The retried migration succeeds; the deleted key must stay deleted.
    let report = cluster.nodes[0]
        .migrate_out(0, &cluster.endpoints[1])
        .expect("retried migration");
    assert_eq!(report.new_epoch, 2);
    let mut check = RouterClient::connect(&seeds).expect("check router");
    assert_eq!(
        check.call(vec![Request::Get { key: stale }]).expect("get"),
        vec![Response::Value(None)],
        "stale partial-copy key was resurrected by the retry"
    );
    assert_eq!(
        check.call(vec![Request::Get { key: live }]).expect("get"),
        vec![Response::Value(Some(2))]
    );
    cluster.stop();
}

/// Only one migration runs per source node: a second `migrate_out` fails
/// fast instead of racing the first one to a divergent same-epoch map.
#[test]
fn concurrent_migrations_are_mutually_excluded() {
    let cluster = start_cluster("mutex", 2);
    let resps = RouterClient::connect(&cluster.endpoints)
        .expect("router")
        .call(
            (0..64u64)
                .map(|i| Request::Put {
                    key: p0_key(i * 37),
                    value: i,
                })
                .collect(),
        )
        .expect("preload");
    assert!(resps.iter().all(|r| *r == Response::Ok));

    // Park the first migration inside its first bulk chunk.
    let (reached_tx, reached_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let release_rx = std::sync::Mutex::new(release_rx);
    let fired = std::sync::atomic::AtomicBool::new(false);
    cluster.nodes[0].set_migration_hook(move |phase| {
        if phase == PHASE_BULK && !fired.swap(true, std::sync::atomic::Ordering::AcqRel) {
            let _ = reached_tx.send(());
            let _ = release_rx.lock().unwrap().recv();
        }
    });
    let node = cluster.nodes[0].clone();
    let target = cluster.endpoints[1].clone();
    let first = std::thread::spawn(move || node.migrate_out(0, &target));
    reached_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("first migration never reached bulk");

    // The second migration is rejected while the first is in flight.
    let err = cluster.nodes[0]
        .migrate_out(0, &cluster.endpoints[1])
        .expect_err("concurrent migration must be rejected");
    assert!(err.contains("already in progress"), "{err}");

    release_tx.send(()).expect("release");
    let report = first.join().expect("join").expect("first migration");
    assert_eq!(report.new_epoch, 2);
    cluster.stop();
}

/// A target that fences the handoff map (its epoch is already newer)
/// refuses `ImportEnd`; the source rolls back cleanly — unsealed, still
/// serving — and the target's partial copy is aborted and wiped.
#[test]
fn refused_handoff_rolls_back_and_source_keeps_serving() {
    let cluster = start_cluster("refuse", 2);
    let seeds = cluster.endpoints.clone();
    let mut router = RouterClient::connect(&seeds).expect("router");
    let key = p0_key(5);
    let resps = router
        .call(vec![Request::Put {
            key: key.clone(),
            value: 50,
        }])
        .expect("preload");
    assert_eq!(resps, vec![Response::Ok]);

    // The target holds a (divergent) newer map with the same ownership, so
    // it accepts the import but fences the epoch-2 handoff map.
    let mut newer = PartitionMap::split_u64(&seeds);
    newer.epoch = 9;
    let mut ctl = TcpClient::connect(cluster.endpoints[1].as_str()).expect("ctl");
    let (ok, _) = ctl.migrate(MigrateOp::Install { map: newer }).expect("rpc");
    assert!(ok);

    let err = cluster.nodes[0]
        .migrate_out(0, &cluster.endpoints[1])
        .expect_err("the fenced handoff must fail");
    assert!(err.contains("refused handoff"), "{err}");

    // Source: unsealed, still the owner, still serving the partition.
    let mut direct = TcpClient::connect(cluster.endpoints[0].as_str()).expect("direct");
    assert_eq!(
        direct.call(vec![Request::Get { key }]).expect("get"),
        vec![Response::Value(Some(50))],
        "the source must keep serving after a refused handoff"
    );
    // Target: import aborted, partial copy wiped.
    assert_eq!(
        cluster.nodes[1]
            .service()
            .index()
            .scan(&[], usize::MAX >> 1),
        0
    );
    cluster.stop();
}

/// A server that answers exactly one frame per connection, then closes it:
/// the worst polite cycler a client-side connection cache can meet.
fn one_shot_server(
    service: Arc<PacService<MapIndex>>,
) -> (std::net::SocketAddr, Arc<std::sync::atomic::AtomicBool>) {
    use std::io::{Read as _, Write as _};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = stop.clone();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop2.load(std::sync::atomic::Ordering::Acquire) {
                break;
            }
            let Ok(mut sock) = conn else { break };
            let mut acc = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                match decode_frame(&acc) {
                    Ok((_, used)) => {
                        let reply = service.handle_frame(&acc[..used]);
                        let _ = sock.write_all(&reply);
                        break; // close the connection after one frame
                    }
                    Err(WireError::Incomplete { .. }) => match sock.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => acc.extend_from_slice(&buf[..n]),
                    },
                    Err(_) => break,
                }
            }
        }
    });
    (addr, stop)
}

#[test]
fn idempotent_reads_reconnect_once_and_surface_it() {
    let cfg = ServiceConfig {
        shards: 1,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-flaky", 1)
    };
    let service = PacService::start(MapIndex::default(), cfg);
    service.index().insert(&7u64.to_be_bytes(), 70);
    let (addr, stop) = one_shot_server(service.clone());

    let mut client = TcpClient::connect(addr).expect("connect");
    // First read rides the fresh connection: no retry needed.
    let (resps, retried) = client
        .call_idempotent(vec![Request::Get {
            key: 7u64.to_be_bytes().to_vec(),
        }])
        .expect("first read");
    assert_eq!(resps, vec![Response::Value(Some(70))]);
    assert!(!retried);
    // The server closed that connection; the next read reconnects
    // transparently, exactly once, and says so.
    let (resps, retried) = client
        .call_idempotent(vec![Request::Get {
            key: 7u64.to_be_bytes().to_vec(),
        }])
        .expect("retried read");
    assert_eq!(resps, vec![Response::Value(Some(70))]);
    assert!(retried, "the reconnect must be surfaced as RetriedOnce");

    // A write on the now-dead connection surfaces the transport error —
    // never a silent resend (the op may or may not have executed).
    let err = client
        .call(vec![Request::Put {
            key: 8u64.to_be_bytes().to_vec(),
            value: 80,
        }])
        .expect_err("write must surface the broken connection");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::WriteZero
        ),
        "{err:?}"
    );
    // Mixed batches containing a write take the non-idempotent path too.
    client.reconnect().expect("manual reconnect");
    let (resps, retried) = client
        .call_idempotent(vec![
            Request::Get {
                key: 7u64.to_be_bytes().to_vec(),
            },
            Request::Put {
                key: 9u64.to_be_bytes().to_vec(),
                value: 90,
            },
        ])
        .expect("mixed batch on a fresh connection");
    assert_eq!(resps.len(), 2);
    assert!(!retried, "a batch with a write is never auto-retried");

    stop.store(true, std::sync::atomic::Ordering::Release);
    let _ = std::net::TcpStream::connect(addr); // unblock the accept loop
    assert!(service.shutdown(Duration::from_secs(5)));
}
