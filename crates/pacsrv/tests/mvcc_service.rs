//! End-to-end multi-version reads through the service layer: the snapshot
//! operations (`Snapshot`/`ScanAt`/`ReleaseSnapshot`) served by a real
//! PACTree behind `PacService`, alone and under concurrent writers, and
//! unversioned indexes answering them gracefully.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use common::MapIndex;
use obsv::trace::TraceCtx;
use pacsrv::wire::{decode_frame, encode_frame, Frame, Request, Response};
use pacsrv::{FrameHandler, PacService, ServiceConfig};
use pactree::{PacTree, PacTreeConfig};

fn put(i: u64) -> Request {
    Request::Put {
        key: i.to_be_bytes().to_vec(),
        value: i,
    }
}

#[test]
fn snapshot_ops_end_to_end_through_service() {
    let tree = PacTree::create(PacTreeConfig::named("pacsrv-mvcc")).expect("create");
    let cfg = ServiceConfig {
        shards: 2,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-mvcc-svc", 2)
    };
    let service = PacService::start(Arc::clone(&tree), cfg);

    for i in 0..100u64 {
        assert_eq!(service.call(put(i)), Response::Ok);
    }
    let snap = match service.call(Request::Snapshot) {
        Response::Snapshot(id) => id,
        other => panic!("expected snapshot id, got {other:?}"),
    };

    // Writes after the capture: more keys, plus deletions of captured ones.
    for i in 100..150u64 {
        assert_eq!(service.call(put(i)), Response::Ok);
    }
    for i in 0..20u64 {
        assert_eq!(
            service.call(Request::Delete {
                key: i.to_be_bytes().to_vec(),
            }),
            Response::Removed(Some(i))
        );
    }

    // The snapshot still sees exactly the 100 captured keys; the live
    // index sees the mutated state (130 keys).
    assert_eq!(
        service.call(Request::ScanAt {
            snap,
            start: Vec::new(),
            count: 1000,
        }),
        Response::ScanCount(100)
    );
    assert_eq!(
        service.call(Request::Scan {
            start: Vec::new(),
            count: 1000,
        }),
        Response::ScanCount(130)
    );
    // A bounded ScanAt respects its count and start key.
    assert_eq!(
        service.call(Request::ScanAt {
            snap,
            start: 90u64.to_be_bytes().to_vec(),
            count: 1000,
        }),
        Response::ScanCount(10)
    );

    // Unknown ids answer UnknownSnapshot, release is idempotent-visible.
    assert_eq!(
        service.call(Request::ScanAt {
            snap: snap + 999,
            start: Vec::new(),
            count: 10,
        }),
        Response::UnknownSnapshot
    );
    assert_eq!(
        service.call(Request::ReleaseSnapshot { snap }),
        Response::Released(true)
    );
    assert_eq!(
        service.call(Request::ReleaseSnapshot { snap }),
        Response::Released(false)
    );
    assert_eq!(
        service.call(Request::ScanAt {
            snap,
            start: Vec::new(),
            count: 10,
        }),
        Response::UnknownSnapshot
    );

    assert!(service.shutdown(Duration::from_secs(10)));
    drop(service);
    tree.destroy();
}

#[test]
fn snapshot_scans_under_concurrent_writers() {
    const KEYS: u64 = 2_000;
    const SCANS_PER_SCANNER: usize = 25;
    let tree = PacTree::create(PacTreeConfig::named("pacsrv-mvcc-conc")).expect("create");
    let service = PacService::start(
        Arc::clone(&tree),
        ServiceConfig {
            shards: 2,
            numa_pin: false,
            ..ServiceConfig::named("pacsrv-mvcc-conc-svc", 2)
        },
    );
    for chunk in (0..KEYS).collect::<Vec<u64>>().chunks(64) {
        let resps = service.submit(chunk.iter().map(|&i| put(i)).collect(), None);
        assert!(resps.wait().iter().all(|r| *r == Response::Ok));
    }

    // Writers overwrite existing keys only, so every consistent cut holds
    // exactly KEYS keys while scanners snapshot, scan and release.
    let stop = AtomicBool::new(false);
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let (service, stop, start) = (&service, &stop, &start);
            s.spawn(move || {
                start.wait();
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let reqs: Vec<Request> = (0..16)
                        .map(|j| Request::Put {
                            key: ((i * 16 + j) % KEYS).to_be_bytes().to_vec(),
                            value: i,
                        })
                        .collect();
                    assert!(service
                        .submit(reqs, None)
                        .wait()
                        .iter()
                        .all(|r| *r == Response::Ok));
                    i += 2;
                }
            });
        }
        let scanners: Vec<_> = (0..2)
            .map(|_| {
                let (service, start) = (&service, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..SCANS_PER_SCANNER {
                        let snap = match service.call(Request::Snapshot) {
                            Response::Snapshot(id) => id,
                            other => panic!("expected snapshot id, got {other:?}"),
                        };
                        let scan = service.call(Request::ScanAt {
                            snap,
                            start: Vec::new(),
                            count: 2 * KEYS as u32,
                        });
                        assert_eq!(scan, Response::ScanCount(KEYS as u32));
                        assert_eq!(
                            service.call(Request::ReleaseSnapshot { snap }),
                            Response::Released(true)
                        );
                    }
                })
            })
            .collect();
        // Stop the writers before a failed scanner's panic propagates.
        let scanned: Vec<_> = scanners.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        for result in scanned {
            result.expect("scanner");
        }
    });
    assert_eq!(tree.mvcc().live_snapshots(), 0);

    assert!(service.shutdown(Duration::from_secs(10)));
    drop(service);
    tree.destroy();
}

#[test]
fn snapshot_ops_against_unversioned_index_answer_gracefully() {
    let service = PacService::start(
        MapIndex::unversioned(),
        ServiceConfig {
            shards: 1,
            numa_pin: false,
            ..ServiceConfig::named("pacsrv-mvcc-map", 1)
        },
    );
    assert_eq!(service.call(Request::Snapshot), Response::UnknownSnapshot);
    assert_eq!(
        service.call(Request::ScanAt {
            snap: 1,
            start: Vec::new(),
            count: 10,
        }),
        Response::UnknownSnapshot
    );
    assert_eq!(
        service.call(Request::ReleaseSnapshot { snap: 1 }),
        Response::Released(false)
    );
    // The same answers come back through the frame path.
    let mut buf = Vec::new();
    encode_frame(
        &Frame::Request {
            id: 99,
            trace: TraceCtx::UNTRACED,
            reqs: vec![Request::Snapshot, Request::ReleaseSnapshot { snap: 5 }],
        },
        &mut buf,
    );
    let (reply, _) = decode_frame(&service.handle_frame(&buf)).expect("reply decodes");
    assert_eq!(
        reply,
        Frame::Reply {
            id: 99,
            resps: vec![Response::UnknownSnapshot, Response::Released(false)],
        }
    );
    service.shutdown(Duration::from_secs(5));
}
