//! Crash-and-recover through the service boundary.
//!
//! A PACTree instance on crash-simulating pools is put behind a
//! `PacService`; a client stream of Puts is acked through the service;
//! then the server is killed abruptly (queued work abandoned, no drain),
//! the pools crash with random cache-line eviction, and recovery runs the
//! same `PacTree::recover` path the crashcheck campaigns exercise. The
//! durable-linearizability oracle must find every acked write and may see
//! in-flight writes either way — zero acked-write loss.

use std::sync::Arc;
use std::time::Duration;

use crashcheck::journal::Expectation;
use crashcheck::{adapter, oracle, IndexKind};
use pacsrv::wire::{Request, Response};
use pacsrv::{PacService, ServiceConfig};
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

#[test]
fn killed_server_recovers_with_zero_acked_write_loss() {
    let name = "pacsrv-kill-recovery";
    let tree = PacTree::create(crash_sim_config(name)).expect("create pactree");
    let pools = tree.pools();

    let cfg = ServiceConfig {
        shards: 2,
        queue_capacity: 256,
        batch_max: 8,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-kill", 2)
    };
    let service = PacService::start(Arc::clone(&tree), cfg);

    // Phase 1: acked writes — submit and wait for the Ok reply. Replies
    // only arrive after the index op (and its persist fences) returned, so
    // these are durably acked.
    let mut expect = Expectation::default();
    for key in 0..200u64 {
        let resp = service.call(Request::Put {
            key: key.to_be_bytes().to_vec(),
            value: key * 10 + 1,
        });
        assert_eq!(resp, Response::Ok, "acked put {key} failed");
        // The oracle consults `allowed`; a single admissible state makes
        // the key "determined" (must survive exactly).
        expect.strict.insert(key, Some(key * 10 + 1));
        expect.allowed.insert(key, vec![Some(key * 10 + 1)]);
    }

    // Phase 2: in-flight writes — submitted but the server is killed before
    // we look at the replies. Each may or may not have reached the index.
    let mut inflight = Vec::new();
    for key in 200..264u64 {
        inflight.push(service.submit(
            vec![Request::Put {
                key: key.to_be_bytes().to_vec(),
                value: key * 10 + 1,
            }],
            None,
        ));
        expect.allowed.insert(key, vec![None, Some(key * 10 + 1)]);
    }

    // Abrupt server death: queued jobs are abandoned (answered `Aborted`,
    // never executed), nothing drains.
    service.kill();
    // kill() fills every admitted slot before returning, so no client
    // thread can be left hanging in wait(): each in-flight put either
    // executed before the kill (Ok, durably acked) or was abandoned.
    let mut aborted = 0u64;
    for (i, rs) in inflight.into_iter().enumerate() {
        assert!(rs.is_done(), "kill left an in-flight slot unanswered");
        let key = 200 + i as u64;
        for resp in rs.wait() {
            match resp {
                Response::Ok => {}
                Response::Aborted => aborted += 1,
                other => panic!("unexpected reply for in-flight put {key}: {other:?}"),
            }
        }
    }
    // (aborted counts queued-at-kill jobs; the exact split between
    // executed and abandoned is racy, so don't assert a value.)
    let _ = aborted;
    drop(service);
    tree.stop_updater();
    drop(tree);

    // Simulated power loss on the surviving media.
    let mut rng = StdRng::seed_from_u64(0x9ac5);
    for p in &pools {
        evict_random_lines(p, (p.size() / pmem::CACHE_LINE) * 4, &mut rng);
    }
    crash_all(&pools, false);

    // Restart path: the same recovery the crashcheck campaigns run.
    let recovered = IndexKind::PacTree
        .recover(name, POOL_SIZE)
        .expect("recover pactree");
    recovered.quiesce();

    if let Err(v) = oracle::check(recovered.as_ref(), &expect) {
        panic!("durable-linearizability violation after kill: {v:?}");
    }

    // Sanity: the oracle really had teeth — all 200 acked keys survive.
    for key in 0..200u64 {
        assert_eq!(recovered.lookup(key), Some(key * 10 + 1));
    }
    adapter::destroy_pools(&recovered.pools());
}

#[test]
fn graceful_shutdown_drains_then_recovers_cleanly() {
    let name = "pacsrv-drain-recovery";
    let tree = PacTree::create(crash_sim_config(name)).expect("create pactree");
    let pools = tree.pools();

    let cfg = ServiceConfig {
        shards: 2,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-drain", 2)
    };
    let service = PacService::start(Arc::clone(&tree), cfg);

    let mut expect = Expectation::default();
    let mut pending = Vec::new();
    for key in 0..300u64 {
        pending.push(service.submit(
            vec![Request::Put {
                key: key.to_be_bytes().to_vec(),
                value: key + 7,
            }],
            None,
        ));
    }
    // Graceful shutdown waits for every queued op, then drains the index.
    assert!(service.shutdown(Duration::from_secs(30)), "drain timed out");
    for (key, rs) in pending.into_iter().enumerate() {
        assert_eq!(rs.wait(), vec![Response::Ok], "put {key} not drained");
        expect.strict.insert(key as u64, Some(key as u64 + 7));
        expect
            .allowed
            .insert(key as u64, vec![Some(key as u64 + 7)]);
    }
    drop(service);
    tree.stop_updater();
    drop(tree);

    // Even a post-drain crash must keep every drained write.
    let mut rng = StdRng::seed_from_u64(0x9ac6);
    for p in &pools {
        evict_random_lines(p, (p.size() / pmem::CACHE_LINE) * 4, &mut rng);
    }
    crash_all(&pools, false);

    let recovered = IndexKind::PacTree
        .recover(name, POOL_SIZE)
        .expect("recover pactree");
    recovered.quiesce();
    if let Err(v) = oracle::check(recovered.as_ref(), &expect) {
        panic!("durable-linearizability violation after drain: {v:?}");
    }
    adapter::destroy_pools(&recovered.pools());
}
