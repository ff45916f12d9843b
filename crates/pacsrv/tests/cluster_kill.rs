//! Crash-and-recover through the *cluster* boundary: live migration with a
//! mid-flight kill, checked by the durable-linearizability oracle.
//!
//! Two scenarios bracket the migration's commit point (the target acking
//! `ImportEnd`):
//!
//! * **Kill before the flip** — the source dies mid-bulk-copy. The map
//!   still names the source, so the recovered source must hold every
//!   write it acked (including writes acked *during* the frozen
//!   migration); the target's partial copy is fenced garbage.
//! * **Kill after the flip** — the target dies right after taking
//!   ownership. The recovered target must hold every migrated pair and
//!   every post-flip write it acked.

mod common;

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::MapIndex;
use crashcheck::journal::Expectation;
use crashcheck::{adapter, oracle, IndexKind};
use pacsrv::cluster::{ClusterNode, PHASE_BULK};
use pacsrv::wire::{PartitionMap, Request, Response};
use pacsrv::{PacService, ServiceConfig, TcpClient, TcpServer};
use pactree::tree::{PacTree, PacTreeConfig};
use pmem::crash::{crash_all, evict_random_lines};
use pmem::AllocMode;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POOL_SIZE: usize = 48 << 20;

fn crash_sim_config(name: &str) -> PacTreeConfig {
    PacTreeConfig {
        crash_sim: true,
        alloc_mode: AllocMode::CrashConsistent,
        ..PacTreeConfig::named(name)
    }
    .with_pool_size(POOL_SIZE)
    .with_numa_pools(1)
    .with_async_smo(false)
}

fn service_cfg(name: &str) -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        numa_pin: false,
        ..ServiceConfig::named(name, 2)
    }
}

/// Acks `keys` through `client` in batches and records them as strict
/// oracle expectations (`value = key * 10 + 1`).
fn ack_puts(client: &mut TcpClient, keys: impl Iterator<Item = u64>, expect: &mut Expectation) {
    let keys: Vec<u64> = keys.collect();
    for chunk in keys.chunks(64) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|k| Request::Put {
                key: k.to_be_bytes().to_vec(),
                value: k * 10 + 1,
            })
            .collect();
        let resps = client.call(reqs).expect("put batch");
        for (k, resp) in chunk.iter().zip(resps) {
            assert_eq!(resp, Response::Ok, "acked put {k} failed");
            expect.strict.insert(*k, Some(k * 10 + 1));
            expect.allowed.insert(*k, vec![Some(k * 10 + 1)]);
        }
    }
}

#[test]
fn mid_migration_source_kill_loses_no_acked_writes() {
    let name = "paccluster-kill-src";
    let tree = PacTree::create(crash_sim_config(name)).expect("create pactree");
    let pools = tree.pools();

    // Two nodes: the source serves the PACTree on crash-sim pools, the
    // target is a throwaway in-memory index (only the source crashes).
    let src_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let dst_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoints = vec![
        src_listener.local_addr().expect("addr").to_string(),
        dst_listener.local_addr().expect("addr").to_string(),
    ];
    let map = PartitionMap::split_u64(&endpoints);

    let src_service = PacService::start(Arc::clone(&tree), service_cfg("paccluster-kill-src-svc"));
    let src_node =
        ClusterNode::start(src_service.clone(), &endpoints[0], map.clone()).expect("src node");
    let src_server = TcpServer::serve(src_node.clone(), src_listener).expect("serve src");

    let dst_service =
        PacService::start(MapIndex::default(), service_cfg("paccluster-kill-dst-svc"));
    let dst_node = ClusterNode::start(dst_service.clone(), &endpoints[1], map).expect("dst node");
    let dst_server = TcpServer::serve(dst_node, dst_listener).expect("serve dst");

    // Phase 1: acked writes into partition 0 (all of 0..1500 sits in the
    // lower half of the u64 space, i.e. on the source).
    let mut expect = Expectation::default();
    let mut client = TcpClient::connect(endpoints[0].as_str()).expect("connect src");
    ack_puts(&mut client, 0..1500u64, &mut expect);

    // Freeze the migration after its first bulk chunk: the hook parks the
    // migration thread forever, leaving the handoff half-done.
    let frozen = Arc::new(AtomicBool::new(false));
    let bulk_fires = Arc::new(AtomicU64::new(0));
    {
        let frozen = frozen.clone();
        let bulk_fires = bulk_fires.clone();
        src_node.set_migration_hook(move |phase| {
            if phase == PHASE_BULK && bulk_fires.fetch_add(1, Ordering::AcqRel) + 1 == 2 {
                frozen.store(true, Ordering::Release);
                loop {
                    std::thread::park();
                }
            }
        });
    }
    let mig_node = src_node.clone();
    let mig_target = endpoints[1].clone();
    // Leaked on purpose: it is parked inside the hook and never touches
    // the crashed memory again.
    std::thread::spawn(move || {
        let _ = mig_node.migrate_out(0, &mig_target);
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while !frozen.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "migration never reached bulk");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Phase 2: writes acked *while the migration is mid-bulk* — the
    // partition is not sealed, the source still owns it.
    ack_puts(&mut client, 2000..2200u64, &mut expect);

    // Phase 3: in-flight writes the kill races.
    let mut inflight = Vec::new();
    for key in 3000..3064u64 {
        inflight.push(src_service.submit(
            vec![Request::Put {
                key: key.to_be_bytes().to_vec(),
                value: key * 10 + 1,
            }],
            None,
        ));
        expect.allowed.insert(key, vec![None, Some(key * 10 + 1)]);
    }

    // Abrupt source death mid-migration.
    src_service.kill();
    for rs in inflight {
        assert!(rs.is_done(), "kill left an in-flight slot unanswered");
        for resp in rs.wait() {
            assert!(
                matches!(resp, Response::Ok | Response::Aborted),
                "unexpected in-flight reply: {resp:?}"
            );
        }
    }
    drop(client);
    src_server.stop();
    dst_server.stop();
    dst_service.shutdown(Duration::from_secs(5));
    drop(src_node);
    drop(src_service);
    tree.stop_updater();
    drop(tree);

    // Simulated power loss on the source's media.
    let mut rng = StdRng::seed_from_u64(0x9ac7);
    for p in &pools {
        evict_random_lines(p, (p.size() / pmem::CACHE_LINE) * 4, &mut rng);
    }
    crash_all(&pools, false);

    // The map never flipped (the migration died pre-commit), so the
    // recovered source must hold every acked write.
    let recovered = IndexKind::PacTree
        .recover(name, POOL_SIZE)
        .expect("recover pactree");
    recovered.quiesce();
    if let Err(v) = oracle::check(recovered.as_ref(), &expect) {
        panic!("durable-linearizability violation after mid-migration kill: {v:?}");
    }
    for key in (0..1500u64).chain(2000..2200) {
        assert_eq!(recovered.lookup(key), Some(key * 10 + 1), "key {key}");
    }
    adapter::destroy_pools(&recovered.pools());
}

#[test]
fn post_flip_target_kill_keeps_migrated_pairs() {
    let name = "paccluster-flip-dst";
    let tree = PacTree::create(crash_sim_config(name)).expect("create pactree");
    let pools = tree.pools();

    // The source is in-memory this time; the PACTree is the migration
    // *target* and it is the one that crashes — after the flip.
    let src_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let dst_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoints = vec![
        src_listener.local_addr().expect("addr").to_string(),
        dst_listener.local_addr().expect("addr").to_string(),
    ];
    let map = PartitionMap::split_u64(&endpoints);

    let src_service =
        PacService::start(MapIndex::default(), service_cfg("paccluster-flip-src-svc"));
    let src_node =
        ClusterNode::start(src_service.clone(), &endpoints[0], map.clone()).expect("src node");
    let src_server = TcpServer::serve(src_node.clone(), src_listener).expect("serve src");

    let dst_service = PacService::start(Arc::clone(&tree), service_cfg("paccluster-flip-dst-svc"));
    let dst_node = ClusterNode::start(dst_service.clone(), &endpoints[1], map).expect("dst node");
    let dst_server = TcpServer::serve(dst_node.clone(), dst_listener).expect("serve dst");

    // Acked writes into partition 0 on the source; after the migration
    // these must live durably on the target.
    let mut expect = Expectation::default();
    let mut client = TcpClient::connect(endpoints[0].as_str()).expect("connect src");
    ack_puts(&mut client, 0..800u64, &mut expect);

    let report = src_node.migrate_out(0, &endpoints[1]).expect("migration");
    assert_eq!(report.new_epoch, 2);
    assert_eq!(report.moved_pairs, 800);
    assert_eq!(dst_node.map_epoch(), 2);

    // Post-flip acked writes land on the target (the new owner).
    let mut dst_client = TcpClient::connect(endpoints[1].as_str()).expect("connect dst");
    ack_puts(&mut dst_client, 800..900u64, &mut expect);

    // Kill the new owner and crash its media.
    dst_service.kill();
    drop(client);
    drop(dst_client);
    src_server.stop();
    dst_server.stop();
    src_service.shutdown(Duration::from_secs(5));
    drop(dst_node);
    drop(dst_service);
    tree.stop_updater();
    drop(tree);

    let mut rng = StdRng::seed_from_u64(0x9ac8);
    for p in &pools {
        evict_random_lines(p, (p.size() / pmem::CACHE_LINE) * 4, &mut rng);
    }
    crash_all(&pools, false);

    let recovered = IndexKind::PacTree
        .recover(name, POOL_SIZE)
        .expect("recover pactree");
    recovered.quiesce();
    if let Err(v) = oracle::check(recovered.as_ref(), &expect) {
        panic!("durable-linearizability violation after post-flip kill: {v:?}");
    }
    for key in 0..900u64 {
        assert_eq!(recovered.lookup(key), Some(key * 10 + 1), "key {key}");
    }
    adapter::destroy_pools(&recovered.pools());
}
