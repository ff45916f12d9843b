//! End-to-end trace test: a sampled request submitted through
//! [`PacService`] leaves a retained trace whose span tree covers admission
//! -> queue sojourn -> batch drain -> per-op index execution, and tail
//! sampling keeps only slow/errored traces.
//!
//! Runs single-threaded per test binary: retention is process-global, so
//! these tests serialize on a mutex and work with their own trace ids.

mod common;

use std::sync::Mutex;
use std::time::Duration;

use common::MapIndex;
use obsv::trace::{self, SpanKind, TraceOutcome};
use pacsrv::wire::{Request, Response};
use pacsrv::{PacService, ServiceConfig};

/// Serializes tests that touch the global retained-trace buffer.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn spans_of_kind(tr: &trace::RetainedTrace, kind: SpanKind) -> usize {
    tr.spans.iter().filter(|s| s.kind == kind).count()
}

#[test]
fn sampled_request_retains_full_span_tree() {
    let _g = TRACE_LOCK.lock().unwrap();
    // Keep everything: threshold 0 retains every finished sampled trace.
    trace::set_keep_threshold_ns(0);
    trace::clear_retained();

    let svc = PacService::start(
        MapIndex::default(),
        ServiceConfig {
            shards: 2,
            numa_pin: false,
            ..ServiceConfig::named("trace-e2e", 2)
        },
    );
    let ctx = trace::stamp_forced();
    assert!(ctx.is_sampled());
    let reqs = vec![
        Request::Put {
            key: b"t1".to_vec(),
            value: 1,
        },
        Request::Get {
            key: b"t1".to_vec(),
        },
        Request::Scan {
            start: b"t".to_vec(),
            count: 8,
        },
    ];
    let resps = svc.submit_traced(reqs, None, ctx).wait();
    assert_eq!(resps[0], Response::Ok);

    let retained = trace::take_retained();
    let tr = retained
        .iter()
        .find(|t| t.trace_id == ctx.trace_id)
        .expect("trace retained at threshold 0");
    assert_eq!(tr.outcome, TraceOutcome::Ok);
    // Root + admission once, queue/batch/index-op once per operation.
    assert_eq!(spans_of_kind(tr, SpanKind::Root), 1, "{tr:?}");
    assert_eq!(spans_of_kind(tr, SpanKind::Admission), 1, "{tr:?}");
    assert_eq!(spans_of_kind(tr, SpanKind::Queue), 3, "{tr:?}");
    assert_eq!(spans_of_kind(tr, SpanKind::Batch), 3, "{tr:?}");
    assert_eq!(spans_of_kind(tr, SpanKind::IndexOp), 3, "{tr:?}");
    // Every span fits inside the root window and parents to the trace.
    let root = &tr.spans[0];
    assert_eq!(root.kind, SpanKind::Root);
    for s in &tr.spans[1..] {
        assert!(s.start_ns >= root.start_ns, "{s:?} starts before root");
        assert!(s.end_ns <= root.end_ns, "{s:?} ends after root");
        assert_eq!(s.trace_id, ctx.trace_id);
        assert_eq!(s.parent, root.span_id, "{s:?} not parented to root");
    }
    assert_eq!(tr.root_ns, root.end_ns - root.start_ns);

    trace::set_keep_threshold_ns(trace::DEFAULT_KEEP_THRESHOLD_NS);
    assert!(svc.shutdown(Duration::from_secs(5)));
}

#[test]
fn fast_ok_traces_are_dropped_by_tail_sampling() {
    let _g = TRACE_LOCK.lock().unwrap();
    // An hour-long threshold: nothing in this test is slow enough to keep.
    trace::set_keep_threshold_ns(3_600_000_000_000);
    trace::clear_retained();

    let svc = PacService::start(
        MapIndex::default(),
        ServiceConfig {
            shards: 1,
            numa_pin: false,
            ..ServiceConfig::named("trace-tail", 1)
        },
    );
    let ctx = trace::stamp_forced();
    let resps = svc
        .submit_traced(
            vec![Request::Put {
                key: b"f".to_vec(),
                value: 9,
            }],
            None,
            ctx,
        )
        .wait();
    assert_eq!(resps, vec![Response::Ok]);
    assert!(
        !trace::retained_traces()
            .iter()
            .any(|t| t.trace_id == ctx.trace_id),
        "fast Ok trace must be tail-dropped"
    );

    // ...but an errored trace is kept regardless of latency: shut down and
    // submit again, which sheds with Overloaded.
    assert!(svc.shutdown(Duration::from_secs(5)));
    let ctx2 = trace::stamp_forced();
    let resps = svc
        .submit_traced(vec![Request::Get { key: b"f".to_vec() }], None, ctx2)
        .wait();
    assert_eq!(resps, vec![Response::Overloaded]);
    let retained = trace::take_retained();
    let tr = retained
        .iter()
        .find(|t| t.trace_id == ctx2.trace_id)
        .expect("errored trace kept despite fast root");
    assert_eq!(tr.outcome, TraceOutcome::Overloaded);
    // The shed path still records the admission span.
    assert_eq!(spans_of_kind(tr, SpanKind::Admission), 1, "{tr:?}");
    assert_eq!(spans_of_kind(tr, SpanKind::IndexOp), 0, "{tr:?}");

    trace::set_keep_threshold_ns(trace::DEFAULT_KEEP_THRESHOLD_NS);
}

#[test]
fn index_stalls_attribute_to_the_op_span() {
    let _g = TRACE_LOCK.lock().unwrap();
    trace::set_keep_threshold_ns(0);
    trace::clear_retained();

    let svc = PacService::start(
        MapIndex::default(),
        ServiceConfig {
            shards: 1,
            numa_pin: false,
            ..ServiceConfig::named("trace-stall", 1)
        },
    );
    // Prime the key so the traced op takes the in-place-update path.
    svc.call(Request::Put {
        key: b"s".to_vec(),
        value: 1,
    });
    let ctx = trace::stamp_forced();
    let resps = svc
        .submit_traced(
            vec![Request::Put {
                key: b"s".to_vec(),
                value: 2,
            }],
            None,
            ctx,
        )
        .wait();
    assert_eq!(resps, vec![Response::Ok]);
    let retained = trace::take_retained();
    let tr = retained
        .iter()
        .find(|t| t.trace_id == ctx.trace_id)
        .expect("retained");
    // MapIndex never touches pmem, so stall totals must be zero — the
    // accumulators exist but nothing feeds them. (Nonzero attribution is
    // obsv's `spans_nest_and_stalls_go_to_innermost`.)
    assert_eq!(tr.stall_totals(), [0u64; trace::STALL_KINDS]);

    trace::set_keep_threshold_ns(trace::DEFAULT_KEEP_THRESHOLD_NS);
    assert!(svc.shutdown(Duration::from_secs(5)));
}
