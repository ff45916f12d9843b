//! Cross-node trace stitching end to end: a traced request fans across
//! several nodes while a traced migration runs, each node's span dump is
//! fetched from its health listener (`GET /spans`), and
//! [`obsv::trace::stitch`] reassembles each trace into a single tree — one
//! root, per-endpoint rpc spans, per-node remote brackets, and the four
//! migration phases.
//!
//! Retention is process-global, so tests serialize on a mutex and filter
//! span dumps down to their own trace ids before stitching.

mod common;

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

use common::cluster::{p0_key, spread_key, start_cluster};
use obsv::fleet::http_get;
use obsv::trace::{self, SpanKind, SpanRecord, TraceOutcome};
use pacsrv::cluster::{RouterClient, PHASE_BULK, PHASE_DELTA, PHASE_FLIP, PHASE_SEAL};
use pacsrv::wire::{MigrateOp, Request, Response};
use pacsrv::TcpClient;

/// Traced fan-outs the coverage gate takes the best of.
const FANOUTS: u64 = 5;

/// Serializes tests that touch the global retained-trace buffer.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Fetches every node's span dump from its health listener and keeps only
/// `trace_id`'s spans, as a client stitching a cluster-wide trace does.
fn fetch_parts(health_eps: &[String], trace_id: u64) -> Vec<Vec<SpanRecord>> {
    health_eps
        .iter()
        .map(|ep| {
            let dump = http_get(ep, "/spans", Duration::from_secs(5)).expect("span dump");
            trace::parse_span_dump(&dump)
                .into_iter()
                .filter(|s| s.trace_id == trace_id)
                .collect()
        })
        .collect()
}

#[test]
fn traced_fanout_during_migration_stitches_to_single_trees() {
    let _g = TRACE_LOCK.lock().unwrap();
    trace::set_keep_threshold_ns(0);
    trace::clear_retained();

    let cluster = start_cluster("trace", 3);
    let endpoints = cluster.endpoints.clone();
    let (health, health_eps) = cluster.start_health();
    let mut router = RouterClient::connect(&endpoints[..1]).expect("router");

    // Preload partition 0 so the migration has chunks to copy.
    let preload: Vec<Request> = (0..64)
        .map(|i| Request::Put {
            key: p0_key(i),
            value: i,
        })
        .collect();
    assert!(router
        .call(preload)
        .expect("preload")
        .iter()
        .all(|r| *r == Response::Ok));

    // Widen the migration window so the traced fan-out overlaps it.
    cluster.nodes[0].set_migration_hook(|_phase| std::thread::sleep(Duration::from_millis(1)));

    // Traced migration, driven as a controller would: stamp a forced ctx,
    // forward it to the source node (ordinal 1), and mint the
    // controller-side root once the Start call returns.
    let mig_target = endpoints[1].clone();
    let mig_ep = endpoints[0].clone();
    let mig = std::thread::spawn(move || {
        let mut ctl = TcpClient::connect(&mig_ep).expect("ctl conn");
        let mctx = trace::stamp_forced();
        ctl.set_trace(mctx.forwarded_to(1));
        let t0 = obsv::clock::now_ns();
        let (ok, detail) = ctl
            .migrate(MigrateOp::Start {
                partition: 0,
                target: mig_target,
            })
            .expect("migrate rpc");
        trace::finish_root(mctx, t0, TraceOutcome::Ok);
        (ok, detail, mctx.trace_id)
    });

    // Traced requests fanning across all three partitions mid-migration.
    let trace_ids: Vec<u64> = (0..FANOUTS)
        .map(|round| {
            let rctx = trace::stamp_forced();
            router.set_trace(rctx);
            let reqs: Vec<Request> = (100..140)
                .map(|i| Request::Put {
                    key: spread_key(round * 1000 + i),
                    value: i,
                })
                .collect();
            let resps = router.call(reqs).expect("traced fan-out");
            assert!(resps.iter().all(|r| *r == Response::Ok), "{resps:?}");
            rctx.trace_id
        })
        .collect();

    let (mig_ok, mig_detail, mig_trace_id) = mig.join().expect("migration thread");
    assert!(mig_ok, "migration failed: {mig_detail}");

    // Stitch each request trace from the per-node span dumps.
    let mut trees = Vec::new();
    for trace_id in trace_ids {
        let parts = fetch_parts(&health_eps, trace_id);
        assert!(parts.iter().any(|p| !p.is_empty()), "no spans dumped");
        let tree = trace::stitch(trace_id, &parts).expect("stitch request trace");
        assert_eq!(tree.spans[0].kind, SpanKind::Root);

        // The fan-out names at least two distinct endpoints, and at least
        // two node-side remote fragments came back under the same trace id.
        let rpc_eps: BTreeSet<u32> = tree
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::RpcCall)
            .map(|s| s.detail)
            .collect();
        assert!(rpc_eps.len() >= 2, "rpc endpoints: {rpc_eps:?}");
        let remote_nodes: BTreeSet<u32> = tree
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Remote)
            .map(|s| s.detail)
            .collect();
        assert!(remote_nodes.len() >= 2, "remote nodes: {remote_nodes:?}");
        trees.push(tree);
    }

    // The root's direct children account for >= 90% of its wall time. What
    // they leave is the router's own unspanned work — a few constant
    // microseconds, so one preemption there sinks a single short request's
    // ratio: the gate judges the best of the traced fan-outs.
    let best = trees
        .into_iter()
        .max_by(|a, b| a.root_coverage().total_cmp(&b.root_coverage()))
        .expect("FANOUTS > 0");
    let (coverage, spare_us) = (best.root_coverage(), best.root_unattributed_ns() / 1000);
    assert!(
        coverage >= 0.90,
        "best root coverage {coverage:.3} < 0.90 ({spare_us} us unattributed)"
    );

    // Stitch the migration trace: all four phases under one root.
    let mparts = fetch_parts(&health_eps, mig_trace_id);
    let mtree = trace::stitch(mig_trace_id, &mparts).expect("stitch migration trace");
    assert_eq!(mtree.spans[0].kind, SpanKind::Root);
    let phases: BTreeSet<u32> = mtree
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::MigratePhase)
        .map(|s| s.detail)
        .collect();
    for want in [PHASE_BULK, PHASE_DELTA, PHASE_SEAL, PHASE_FLIP] {
        assert!(
            phases.contains(&(want as u32)),
            "phase {want} missing from {phases:?}"
        );
    }

    trace::set_keep_threshold_ns(trace::DEFAULT_KEEP_THRESHOLD_NS);
    drop(health);
    cluster.stop();
}

#[test]
fn bounce_resend_keeps_the_original_trace() {
    let _g = TRACE_LOCK.lock().unwrap();
    trace::set_keep_threshold_ns(0);
    trace::clear_retained();

    let cluster = start_cluster("bounce", 3);
    let endpoints = cluster.endpoints.clone();
    let (health, health_eps) = cluster.start_health();

    // Connect the router first so its cached map predates the migration.
    let mut router = RouterClient::connect(&endpoints[..1]).expect("router");
    let mut ctl = TcpClient::connect(&endpoints[0]).expect("ctl");
    let (ok, detail) = ctl
        .migrate(MigrateOp::Start {
            partition: 0,
            target: endpoints[1].clone(),
        })
        .expect("migrate rpc");
    assert!(ok, "{detail}");

    // First traced send hits the stale owner, bounces, refreshes, resends —
    // all under the one original trace id (satellite: bounce continuity).
    let ctx = trace::stamp_forced();
    router.set_trace(ctx);
    let resps = router
        .call(vec![Request::Put {
            key: p0_key(7),
            value: 7,
        }])
        .expect("bounced call");
    assert_eq!(resps, vec![Response::Ok]);

    let parts = fetch_parts(&health_eps, ctx.trace_id);
    let tree = trace::stitch(ctx.trace_id, &parts).expect("stitch bounced trace");
    let kinds: Vec<SpanKind> = tree.spans.iter().map(|s| s.kind).collect();
    assert!(
        kinds.contains(&SpanKind::BounceResend),
        "no bounce span: {kinds:?}"
    );
    assert!(
        kinds.contains(&SpanKind::MapRefresh),
        "no map-refresh span: {kinds:?}"
    );
    assert!(
        kinds.contains(&SpanKind::Remote),
        "no node fragment: {kinds:?}"
    );

    trace::set_keep_threshold_ns(trace::DEFAULT_KEEP_THRESHOLD_NS);
    drop(health);
    cluster.stop();
}

#[test]
fn stitch_rejects_spans_from_another_trace() {
    let mine = SpanRecord {
        trace_id: 7,
        span_id: 1,
        parent: 0,
        kind: SpanKind::Root,
        detail: 0,
        tid: 0,
        start_ns: 10,
        end_ns: 90,
        stall_ns: [0; trace::STALL_KINDS],
    };
    let foreign = SpanRecord {
        trace_id: 8,
        span_id: 2,
        parent: 1,
        kind: SpanKind::RpcCall,
        detail: 1,
        tid: 0,
        start_ns: 20,
        end_ns: 30,
        stall_ns: [0; trace::STALL_KINDS],
    };
    let err = trace::stitch(7, &[vec![mine, foreign]]).expect_err("must reject");
    assert!(err.contains("trace 8"), "{err}");

    // And a dump with no (or several) roots is rejected too.
    let orphan = SpanRecord {
        kind: SpanKind::RpcCall,
        ..mine
    };
    let err = trace::stitch(7, &[vec![orphan]]).expect_err("no root");
    assert!(err.contains("root"), "{err}");
}
