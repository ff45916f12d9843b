//! The router's scatter/gather fan-out: endpoints overlap in time, a
//! failed round leaves no stale reply behind, the single read retry
//! survives the split call, replies keep request order, and connections
//! to endpoints that left the map are dropped.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::cluster::{start_cluster, start_cluster_behind, Cluster};
use common::MapIndex;
use pacsrv::cluster::{ClusterNode, RouterClient};
use pacsrv::wire::{decode_frame, Frame, Request, Response};
use pacsrv::{FrameHandler, TcpServer};

/// One key per partition of a three-way `split_u64` map, offset by `i`.
fn key_on(node: u64, i: u64) -> Vec<u8> {
    (u64::MAX / 3 * node + 1 + i).to_be_bytes().to_vec()
}

fn put(key: Vec<u8>, value: u64) -> Request {
    Request::Put { key, value }
}

fn get(key: Vec<u8>) -> Request {
    Request::Get { key }
}

/// Closes every open connection of node `i` while the node keeps serving:
/// its listener is stopped and restarted on the same address.
fn reset_conns(cluster: &mut Cluster, i: usize) {
    cluster.servers.remove(i).stop();
    let server = TcpServer::start(cluster.nodes[i].clone(), cluster.endpoints[i].as_str());
    cluster.servers.insert(i, server.expect("rebind"));
}

/// Serves a node with every `Request` frame held up for `DELAY` first.
struct Slow(Arc<ClusterNode<MapIndex>>);

const DELAY: Duration = Duration::from_millis(40);

impl FrameHandler for Slow {
    fn handle_frame(&self, bytes: &[u8]) -> Vec<u8> {
        if matches!(decode_frame(bytes), Ok((Frame::Request { .. }, _))) {
            std::thread::sleep(DELAY);
        }
        self.0.handle_frame(bytes)
    }

    fn health_text(&self) -> String {
        self.0.health_text()
    }
}

#[test]
fn a_batch_costs_its_slowest_endpoint_not_the_sum() {
    let cluster = start_cluster_behind("overlap", 3, |node| Arc::new(Slow(node)));
    let mut router = RouterClient::connect(&cluster.endpoints).expect("router");
    let batch = |v: u64| (0..3).map(|n| put(key_on(n, 0), v)).collect::<Vec<_>>();
    // The first call also opens the connections; time the second.
    router.call(batch(1)).expect("warm-up");
    let t0 = Instant::now();
    let resps = router.call(batch(2)).expect("timed batch");
    let took = t0.elapsed();
    assert_eq!(resps, vec![Response::Ok; 3]);
    assert!(took >= DELAY, "{took:?}: the delay was not served");
    assert!(
        took < 2 * DELAY,
        "{took:?} for three {DELAY:?} endpoints: they did not overlap"
    );
    cluster.stop();
}

#[test]
fn a_failed_round_leaves_no_stale_reply_behind() {
    let mut cluster = start_cluster("stale", 3);
    let mut router = RouterClient::connect(&cluster.endpoints).expect("router");
    let seeded: Vec<Request> = (0..3).map(|n| put(key_on(n, 0), 10 + n)).collect();
    assert_eq!(router.call(seeded).expect("seed"), vec![Response::Ok; 3]);

    // Kill the node whose reply is gathered first (groups go in endpoint
    // order), so the other two are in flight, unread, when the call fails.
    let dead = (0..3)
        .min_by_key(|&i| &cluster.endpoints[i])
        .expect("three nodes");
    cluster.servers.remove(dead).stop();
    let writes: Vec<Request> = (0..3).map(|n| put(key_on(n, 1), 20 + n)).collect();
    let err = router.call(writes).expect_err("a node is down");
    assert!(
        err.to_string().contains(&cluster.endpoints[dead]),
        "the error must name the dead endpoint: {err}"
    );

    // The survivors' connections were sent a frame whose reply was never
    // read: a router that kept them would now read that reply instead of
    // this call's and fail its id check ("unexpected reply").
    let alive: Vec<u64> = (0..3).filter(|&n| n as usize != dead).collect();
    let reads: Vec<Request> = alive.iter().map(|&n| get(key_on(n, 0))).collect();
    let want: Vec<Response> = alive
        .iter()
        .map(|&n| Response::Value(Some(10 + n)))
        .collect();
    assert_eq!(router.call(reads).expect("survivors answer"), want);
    cluster.stop();
}

#[test]
fn one_read_retry_per_group_and_none_for_writes() {
    let mut cluster = start_cluster("retry", 3);
    let mut router = RouterClient::connect(&cluster.endpoints).expect("router");
    let seeded: Vec<Request> = (0..3).map(|n| put(key_on(n, 0), 10 + n)).collect();
    assert_eq!(router.call(seeded).expect("seed"), vec![Response::Ok; 3]);
    let reads = || (0..3).map(|n| get(key_on(n, 0))).collect::<Vec<_>>();
    let want: Vec<Response> = (0..3).map(|n| Response::Value(Some(10 + n))).collect();

    // A read-only batch rides out one node's broken connection.
    reset_conns(&mut cluster, 1);
    assert_eq!(router.retried_reads(), 0);
    assert_eq!(router.call(reads()).expect("retried reads"), want);
    assert_eq!(router.retried_reads(), 1);

    // One write in that node's group and the same break is an error —
    // the write may or may not have executed.
    reset_conns(&mut cluster, 1);
    let mut mixed = reads();
    mixed.push(put(key_on(1, 1), 99));
    let err = router.call(mixed).expect_err("a write is never resent");
    assert!(err.to_string().contains(&cluster.endpoints[1]), "{err}");
    assert_eq!(router.retried_reads(), 1);
    // The router recovers on its own: the next call dials afresh.
    assert_eq!(router.call(reads()).expect("after the error"), want);
    cluster.stop();
}

#[test]
fn replies_keep_request_order_and_per_key_program_order() {
    let cluster = start_cluster("order", 3);
    let mut router = RouterClient::connect(&cluster.endpoints[..1]).expect("router");
    let (k, j0, j2) = (key_on(1, 0), key_on(0, 0), key_on(2, 0));
    let resps = router
        .call(vec![
            put(k.clone(), 1),
            put(j0.clone(), 7),
            put(k.clone(), 2),
            get(k.clone()),
            put(j2.clone(), 8),
            Request::Delete { key: k.clone() },
            get(j0),
            get(k),
            get(j2),
        ])
        .expect("mixed batch");
    assert_eq!(
        resps,
        vec![
            Response::Ok,
            Response::Ok,
            Response::Ok,
            Response::Value(Some(2)),
            Response::Ok,
            Response::Removed(Some(2)),
            Response::Value(Some(7)),
            Response::Value(None),
            Response::Value(Some(8)),
        ]
    );
    cluster.stop();
}

#[test]
fn connections_to_endpoints_that_left_the_map_are_dropped() {
    let cluster = start_cluster("prune", 3);
    let gone = cluster.endpoints[2].clone();
    let touch_all = || (0..3).map(|n| get(key_on(n, 0))).collect::<Vec<_>>();
    let mut router = RouterClient::connect(&cluster.endpoints[..1]).expect("router");
    let mut seeded = RouterClient::connect(&cluster.endpoints).expect("seeded router");
    router.call(touch_all()).expect("fan-out");
    seeded.call(touch_all()).expect("fan-out");
    assert!(router.connected_to(&gone) && seeded.connected_to(&gone));
    assert_eq!(cluster.servers[2].open_conns(), 2);

    // Node 2 hands its only partition to node 1 and leaves the map.
    cluster.nodes[2]
        .migrate_out(2, &cluster.endpoints[1])
        .expect("migration");
    assert!(router.refresh_map().expect("refresh"));
    assert!(seeded.refresh_map().expect("refresh"));
    assert!(!router.map().endpoints().contains(&gone.as_str()));
    assert!(!router.connected_to(&gone), "a non-seed connection is kept");
    assert!(seeded.connected_to(&gone), "seeds stay connected");

    // The node's handler thread for the dropped connection ends at EOF.
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.servers[2].open_conns() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(cluster.servers[2].open_conns(), 1);
    assert_eq!(router.call(touch_all()).expect("still routes").len(), 3);
    cluster.stop();
}
