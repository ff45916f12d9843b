//! The sharded request-processing service ("pacd" core).
//!
//! A [`PacService`] fronts any [`RangeIndex`] with `shards` worker threads,
//! each owning one bounded [`BatchQueue`]. Requests route to shards by key
//! hash (scans by start key), so per-key ordering is preserved: two
//! operations on the same key land in the same FIFO queue and execute in
//! submission order.
//!
//! Admission control happens *before* a request touches a queue, in the
//! submitter's thread:
//!
//! 1. lifecycle gate — a draining/stopped service sheds immediately;
//! 2. bounded queue — each shard admits the prefix of the batch's ops
//!    for it that fits, and sheds the rest.
//!
//! Shedding is an explicit [`Response::Overloaded`] reply, never an
//! unbounded queue: total buffered work is capped at
//! `shards * queue_capacity` regardless of offered load. Admitted
//! operations carry an absolute deadline; a worker that dequeues an
//! already-expired operation drops it with [`Response::DeadlineExceeded`]
//! without executing it, so queue time cannot silently turn into index
//! load during overload (the paper-adjacent tail-latency failure mode).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use obsv::clock;
use obsv::trace::{self, SpanKind, TraceCtx};
use ycsb::RangeIndex;

use crate::metrics::ServiceMetrics;
use crate::queue::{BatchQueue, PopStatus};
use crate::reply::ReplySet;
use crate::wire::{Request, Response};

/// No deadline sentinel.
const NO_DEADLINE: u64 = u64::MAX;

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads / request queues (thread-per-core sizing).
    pub shards: usize,
    /// Per-shard queue bound; the backpressure limit.
    pub queue_capacity: usize,
    /// Maximum operations a worker drains per wakeup.
    pub batch_max: usize,
    /// Metric-name prefix; also names the worker threads.
    pub name: String,
    /// Pin worker threads round-robin over NUMA nodes.
    pub numa_pin: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            queue_capacity: 1024,
            batch_max: 32,
            name: "pacsrv".to_string(),
            numa_pin: true,
        }
    }
}

impl ServiceConfig {
    /// A config named `name` with `shards` workers.
    pub fn named(name: &str, shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards: shards.max(1),
            name: name.to_string(),
            ..Default::default()
        }
    }
}

/// One queued operation.
struct Job {
    req: Request,
    /// The batch's trace context; unsampled for untraced submissions, so
    /// workers pay one branch per op.
    trace: TraceCtx,
    enqueue_ns: u64,
    deadline_ns: u64,
    slot: usize,
    done: Arc<ReplySet>,
}

/// Lifecycle states.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// The sharded, batched request service.
pub struct PacService<I: RangeIndex + Clone + 'static> {
    index: I,
    cfg: ServiceConfig,
    shards: Arc<Vec<Arc<BatchQueue<Job>>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    metrics: Arc<ServiceMetrics>,
    state: AtomicU8,
    /// Correlation ids for [`LocalClient::call`](crate::LocalClient::call) frames.
    next_id: AtomicU64,
    _registrations: Vec<obsv::Registration>,
}

/// The context a wire request executes under: the client's if it is
/// sampled (the server's spans then parent to the client's root),
/// otherwise a fresh stamp, exactly like local submits.
pub(crate) fn request_ctx(trace: TraceCtx) -> TraceCtx {
    if trace.is_sampled() {
        trace
    } else {
        trace::stamp()
    }
}

fn shard_of(key: &[u8], shards: usize) -> usize {
    // FNV-1a; cheap, stable, and good enough spread for short keys.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards as u64) as usize
}

fn op_kind(req: &Request) -> obsv::OpKind {
    match req {
        Request::Get { .. } => obsv::OpKind::Lookup,
        Request::Put { .. } => obsv::OpKind::Insert,
        Request::Delete { .. } => obsv::OpKind::Remove,
        Request::Scan { .. } | Request::ScanAt { .. } => obsv::OpKind::Scan,
        // Snapshot lifecycle ops are O(1) control operations; account them
        // with the cheap point-op bucket rather than a new histogram row.
        Request::Snapshot | Request::ReleaseSnapshot { .. } => obsv::OpKind::Lookup,
    }
}

/// The `detail` value of an index-op span (which operation ran).
fn op_detail(req: &Request) -> u32 {
    match req {
        Request::Get { .. } => 0,
        Request::Put { .. } => 1,
        Request::Delete { .. } => 2,
        Request::Scan { .. } => 3,
        Request::Snapshot => 4,
        Request::ScanAt { .. } => 5,
        Request::ReleaseSnapshot { .. } => 6,
    }
}

fn execute<I: RangeIndex>(index: &I, req: &Request) -> Response {
    match req {
        Request::Get { key } => Response::Value(index.lookup(key)),
        Request::Put { key, value } => index
            .insert(key, *value)
            .map_or(Response::Failed, |_| Response::Ok),
        Request::Delete { key } => index
            .remove(key)
            .map_or(Response::Failed, Response::Removed),
        Request::Scan { start, count } => {
            Response::ScanCount(index.scan(start, *count as usize) as u32)
        }
        Request::Snapshot => match index.snapshot() {
            Some(id) => Response::Snapshot(id),
            None => Response::UnknownSnapshot,
        },
        Request::ScanAt { snap, start, count } => {
            match index.scan_at(*snap, start, *count as usize) {
                Some(pairs) => Response::ScanCount(pairs.len() as u32),
                None => Response::UnknownSnapshot,
            }
        }
        Request::ReleaseSnapshot { snap } => Response::Released(index.release_snapshot(*snap)),
    }
}

impl<I: RangeIndex + Clone + 'static> PacService<I> {
    /// Starts the service: spawns one worker per shard and registers the
    /// obsv gauges/histograms under `cfg.name`.
    pub fn start(index: I, cfg: ServiceConfig) -> Arc<PacService<I>> {
        let cfg = ServiceConfig {
            shards: cfg.shards.max(1),
            batch_max: cfg.batch_max.max(1),
            ..cfg
        };
        let shards: Arc<Vec<Arc<BatchQueue<Job>>>> = Arc::new(
            (0..cfg.shards)
                .map(|_| Arc::new(BatchQueue::new(cfg.queue_capacity)))
                .collect(),
        );
        let metrics = Arc::new(ServiceMetrics::default());
        let registrations = ServiceMetrics::register(&cfg.name, &metrics, &shards, |q| q.len());

        let mut workers = Vec::with_capacity(cfg.shards);
        for (i, queue) in shards.iter().enumerate() {
            let index = index.clone();
            let queue = Arc::clone(queue);
            let metrics = Arc::clone(&metrics);
            let batch_max = cfg.batch_max;
            let numa_pin = cfg.numa_pin;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("{}-shard{i}", cfg.name))
                    .spawn(move || {
                        if numa_pin {
                            pmem::numa::pin_thread_round_robin();
                        }
                        worker_loop(&index, &queue, &metrics, batch_max);
                    })
                    .expect("spawn shard worker"),
            );
        }

        Arc::new(PacService {
            index,
            cfg,
            shards,
            workers: Mutex::new(workers),
            metrics,
            state: AtomicU8::new(RUNNING),
            next_id: AtomicU64::new(1),
            _registrations: registrations,
        })
    }

    /// The service's metrics (shed/timeout counters, sojourn histograms,
    /// batch-size distribution).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The config the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Total queued operations across all shards right now.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|q| q.len()).sum()
    }

    /// Submits a batch. Never blocks: every operation is either enqueued
    /// or instantly answered `Overloaded`. The returned [`ReplySet`] is
    /// complete once all operations have replies.
    ///
    /// `deadline` (`None` = none) is measured from admission: queue time
    /// plus execution must fit in it.
    ///
    /// Stamps a fresh trace context (1 in 64 is sampled, and only slow or
    /// errored traces are retained). Transports that carry a context on
    /// the wire use [`submit_traced`](Self::submit_traced) instead.
    pub fn submit(&self, reqs: Vec<Request>, deadline: Option<Duration>) -> Arc<ReplySet> {
        self.submit_traced(reqs, deadline, trace::stamp())
    }

    /// [`submit`](Self::submit) with a caller-provided trace context (e.g.
    /// decoded from a wire frame). If `ctx` is sampled, the batch's
    /// admission, queue sojourn, batch drain, and index execution all
    /// record spans under it, and the root span closes when the last
    /// operation replies — kept only if slow or errored (tail sampling).
    pub fn submit_traced(
        &self,
        reqs: Vec<Request>,
        deadline: Option<Duration>,
        ctx: TraceCtx,
    ) -> Arc<ReplySet> {
        let n = reqs.len();
        let rs = ReplySet::new(n);
        if n == 0 {
            return rs;
        }
        let traced = ctx.is_sampled();
        let admit_ns = if traced { clock::now_ns() } else { 0 };
        if traced {
            // Before any complete() can run: the last complete closes the
            // root span, and sheds below complete synchronously.
            rs.set_trace(ctx, admit_ns);
        }
        if self.state.load(Ordering::Acquire) != RUNNING {
            self.metrics.shed.fetch_add(n as u64, Ordering::Relaxed);
            if traced {
                trace::record_span(
                    ctx,
                    SpanKind::Admission,
                    n as u32,
                    admit_ns,
                    clock::now_ns(),
                );
            }
            for slot in 0..n {
                rs.complete(slot, Response::Overloaded);
            }
            return rs;
        }
        let now = clock::now_ns();
        if traced {
            // Covers the lifecycle gate; recorded before the first push so
            // the harvest (triggered by the last complete, possibly on a
            // worker thread) cannot miss it.
            trace::record_span(ctx, SpanKind::Admission, n as u32, admit_ns, now);
        }
        let deadline_ns = deadline
            .map(|d| now.saturating_add(d.as_nanos() as u64))
            .unwrap_or(NO_DEADLINE);
        // One group per shard, in submission order: each shard's lock is
        // taken once per batch, and same-key operations stay in order.
        let mut groups: Vec<Vec<Job>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (slot, req) in reqs.into_iter().enumerate() {
            groups[shard_of(req.key(), self.shards.len())].push(Job {
                req,
                trace: ctx,
                enqueue_ns: now,
                deadline_ns,
                slot,
                done: Arc::clone(&rs),
            });
        }
        for (queue, mut group) in self.shards.iter().zip(groups) {
            let admitted = queue.push(&mut group);
            self.metrics
                .admitted
                .fetch_add(admitted as u64, Ordering::Relaxed);
            self.metrics
                .shed
                .fetch_add(group.len() as u64, Ordering::Relaxed);
            for job in group {
                job.done.complete(job.slot, Response::Overloaded);
            }
        }
        rs
    }

    /// Convenience: submit one operation and wait for its reply.
    pub fn call(&self, req: Request) -> Response {
        self.submit(vec![req], None).wait()[0]
    }

    /// The page the plain-HTTP health listener serves on `GET /metrics`:
    /// a live metrics-registry sample in Prometheus text exposition format.
    pub fn health_text(&self) -> String {
        obsv::prom::render(&obsv::global().sample())
    }

    /// A fresh correlation id (transports that multiplex need them unique
    /// per in-flight frame).
    pub fn next_frame_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Graceful shutdown: stop admitting, drain every queue (queued
    /// operations still execute and reply), join workers, then drain the
    /// index itself (SMO replay, epoch reclamation) within `timeout`.
    /// Returns whether the index reported a complete drain. Idempotent.
    pub fn shutdown(&self, timeout: Duration) -> bool {
        if self
            .state
            .compare_exchange(RUNNING, DRAINING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return self.state.load(Ordering::Acquire) == STOPPED;
        }
        for q in self.shards.iter() {
            q.close();
        }
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        let drained = self.index.drain(timeout);
        self.state.store(STOPPED, Ordering::Release);
        drained
    }

    /// Abrupt shutdown simulating a process kill: workers stop at their
    /// next wakeup, queued-but-unexecuted operations never reach the index,
    /// and the index is not drained or quiesced. Used by the kill-recovery
    /// test; a real deployment calls [`shutdown`](Self::shutdown).
    ///
    /// The abandoned operations are answered [`Response::Aborted`] (the
    /// index never executed them, so nothing was acked), which unblocks any
    /// thread waiting in [`ReplySet::wait`] or [`call`](Self::call) —
    /// `wait` has no timeout, so leaving the slots unfilled would deadlock
    /// concurrent callers forever.
    pub fn kill(&self) {
        self.state.store(DRAINING, Ordering::Release);
        let mut abandoned = Vec::new();
        for q in self.shards.iter() {
            abandoned.extend(q.kill());
        }
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        // Workers are gone: every job is either completed (executed,
        // timed out, or shed at admission) or in `abandoned` — fill those
        // slots so no waiter hangs.
        for job in abandoned {
            job.done.complete(job.slot, Response::Aborted);
        }
        self.state.store(STOPPED, Ordering::Release);
    }

    /// The index this service fronts. Migration drives snapshot reads
    /// (`snapshot`/`scan_at`/`diff_pairs`) directly against it —
    /// those are read-only against frozen views, so they don't race the
    /// shard workers.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Waits until every operation enqueued before this call has executed:
    /// pushes one no-op marker through each shard's FIFO and waits for all
    /// of them. Because each queue is FIFO and workers drain in order, the
    /// markers' completion implies every earlier op's completion.
    ///
    /// Returns `false` if the service stopped running before all markers
    /// executed (the barrier guarantee then comes from the shutdown/kill
    /// path instead: workers are joined).
    pub fn drain_barrier(&self) -> bool {
        let n = self.shards.len();
        let rs = ReplySet::new(n);
        let now = clock::now_ns();
        for (i, queue) in self.shards.iter().enumerate() {
            let mut marker = vec![Job {
                req: Request::Scan {
                    start: Vec::new(),
                    count: 0,
                },
                trace: TraceCtx::UNTRACED,
                enqueue_ns: now,
                deadline_ns: NO_DEADLINE,
                slot: i,
                done: Arc::clone(&rs),
            }];
            while queue.push(&mut marker) == 0 {
                if self.state.load(Ordering::Acquire) != RUNNING {
                    // Closed or killed queue: the marker can never land;
                    // answer its slot so the wait terminates.
                    rs.complete(i, Response::Aborted);
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            if marker.is_empty() {
                self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
            }
        }
        rs.wait()
            .iter()
            .all(|r| matches!(r, Response::ScanCount(_)))
    }
}

impl<I: RangeIndex + Clone + 'static> Drop for PacService<I> {
    fn drop(&mut self) {
        // Defensive: a service dropped without an explicit shutdown still
        // stops its workers (graceful, so queued work is answered).
        if self.state.load(Ordering::Acquire) == RUNNING {
            self.state.store(DRAINING, Ordering::Release);
            for q in self.shards.iter() {
                q.close();
            }
        }
        for h in self.workers.get_mut().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// The shard worker: drain a batch, execute it under the index's batch
/// guard, reply. One `clock::now_ns` read per operation (the completion
/// stamp doubles as the next op's deadline check), amortized across the
/// batch instead of a start/stop pair per op.
fn worker_loop<I: RangeIndex>(
    index: &I,
    queue: &BatchQueue<Job>,
    metrics: &ServiceMetrics,
    batch_max: usize,
) {
    let mut batch: Vec<Job> = Vec::with_capacity(batch_max);
    loop {
        batch.clear();
        if queue.pop_batch(batch_max, &mut batch) == PopStatus::Done {
            return;
        }
        metrics.batch_sizes.record(batch.len() as u64);
        let batch_len = batch.len() as u32;
        let jobs = &mut batch;
        index.with_batch(&mut || {
            let mut now = clock::now_ns();
            let drain_ns = now;
            for job in jobs.drain(..) {
                let traced = job.trace.is_sampled();
                if traced {
                    // Queue sojourn: admission stamp to batch drain. Spans
                    // are recorded before the op's complete() so the root
                    // harvest (under the ReplySet mutex) sees them.
                    trace::record_span(
                        job.trace,
                        SpanKind::Queue,
                        job.slot as u32,
                        job.enqueue_ns,
                        drain_ns,
                    );
                }
                if job.deadline_ns < now {
                    metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    job.done.complete(job.slot, Response::DeadlineExceeded);
                    continue;
                }
                let resp = if traced {
                    let _op_span = trace::span(job.trace, SpanKind::IndexOp, op_detail(&job.req));
                    execute(index, &job.req)
                } else {
                    execute(index, &job.req)
                };
                now = clock::now_ns();
                if traced {
                    // Batch residency: drain to this op's completion, with
                    // the batch size as detail (head-of-line time within
                    // the batch is the gap to the nested index-op span).
                    trace::record_span(job.trace, SpanKind::Batch, batch_len, drain_ns, now);
                }
                metrics
                    .ops
                    .record(op_kind(&job.req), now.saturating_sub(job.enqueue_ns));
                job.done.complete(job.slot, resp);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::RwLock;

    /// A tiny in-memory index for service-layer unit tests (the real
    /// indexes are exercised by the integration tests and the bench).
    #[derive(Clone, Default)]
    struct MapIndex {
        map: Arc<RwLock<BTreeMap<Vec<u8>, u64>>>,
        /// Artificial per-op latency, to make overload reproducible.
        op_delay: Option<Duration>,
    }

    impl RangeIndex for MapIndex {
        fn name(&self) -> &'static str {
            "MapIndex"
        }
        fn insert(&self, key: &[u8], value: u64) -> pmem::Result<Option<u64>> {
            if let Some(d) = self.op_delay {
                std::thread::sleep(d);
            }
            Ok(self.map.write().unwrap().insert(key.to_vec(), value))
        }
        fn lookup(&self, key: &[u8]) -> Option<u64> {
            if let Some(d) = self.op_delay {
                std::thread::sleep(d);
            }
            self.map.read().unwrap().get(key).copied()
        }
        fn remove(&self, key: &[u8]) -> pmem::Result<Option<u64>> {
            Ok(self.map.write().unwrap().remove(key))
        }
        fn scan(&self, start: &[u8], count: usize) -> usize {
            self.map
                .read()
                .unwrap()
                .range(start.to_vec()..)
                .take(count)
                .count()
        }
    }

    #[test]
    fn basic_ops_roundtrip_through_service() {
        let svc = PacService::start(MapIndex::default(), ServiceConfig::named("svc-basic", 2));
        assert_eq!(
            svc.call(Request::Put {
                key: b"a".to_vec(),
                value: 1
            }),
            Response::Ok
        );
        assert_eq!(
            svc.call(Request::Get { key: b"a".to_vec() }),
            Response::Value(Some(1))
        );
        assert_eq!(
            svc.call(Request::Scan {
                start: b"".to_vec(),
                count: 10
            }),
            Response::ScanCount(1)
        );
        assert_eq!(
            svc.call(Request::Delete { key: b"a".to_vec() }),
            Response::Removed(Some(1))
        );
        assert_eq!(
            svc.call(Request::Get { key: b"a".to_vec() }),
            Response::Value(None)
        );
        assert!(svc.shutdown(Duration::from_secs(5)));
        // Idempotent, and post-shutdown submissions shed.
        assert!(svc.shutdown(Duration::from_secs(5)));
        assert_eq!(
            svc.call(Request::Get { key: b"a".to_vec() }),
            Response::Overloaded
        );
    }

    #[test]
    fn batch_replies_preserve_operation_order() {
        let svc = PacService::start(MapIndex::default(), ServiceConfig::named("svc-order", 4));
        let reqs: Vec<Request> = (0..64u64)
            .map(|i| Request::Put {
                key: i.to_be_bytes().to_vec(),
                value: i,
            })
            .collect();
        assert!(svc
            .submit(reqs, None)
            .wait()
            .iter()
            .all(|r| *r == Response::Ok));
        let gets: Vec<Request> = (0..64u64)
            .map(|i| Request::Get {
                key: i.to_be_bytes().to_vec(),
            })
            .collect();
        let replies = svc.submit(gets, None).wait();
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(*r, Response::Value(Some(i as u64)), "slot {i}");
        }
        svc.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn same_key_operations_execute_in_submission_order() {
        let svc = PacService::start(
            MapIndex::default(),
            ServiceConfig::named("svc-key-order", 4),
        );
        let key = b"hot".to_vec();
        let mut last = None;
        for v in 0..200u64 {
            svc.submit(
                vec![Request::Put {
                    key: key.clone(),
                    value: v,
                }],
                None,
            );
            last = Some(v);
        }
        // All puts routed to one shard FIFO: after the queue drains the
        // final value must be the last submitted one.
        assert!(svc.shutdown(Duration::from_secs(5)));
        let map = svc.index.map.read().unwrap();
        assert_eq!(map.get(&key).copied(), last);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let svc = PacService::start(
            MapIndex {
                op_delay: Some(Duration::from_millis(5)),
                ..Default::default()
            },
            ServiceConfig {
                shards: 1,
                queue_capacity: 2,
                ..ServiceConfig::named("svc-shed", 1)
            },
        );
        let reqs: Vec<Request> = (0..50u64)
            .map(|i| Request::Put {
                key: i.to_be_bytes().to_vec(),
                value: i,
            })
            .collect();
        let replies = svc.submit(reqs, None).wait();
        let shed = replies
            .iter()
            .filter(|r| **r == Response::Overloaded)
            .count();
        assert!(shed > 0, "2-deep queue must shed a 50-op burst");
        assert!(
            replies
                .iter()
                .all(|r| matches!(r, Response::Ok | Response::Overloaded)),
            "{replies:?}"
        );
        assert_eq!(svc.metrics().shed.load(Ordering::Relaxed), shed as u64);
        svc.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn a_shard_admits_the_prefix_that_fits_and_sheds_the_rest() {
        const ROOM: usize = 6;
        let svc = PacService::start(
            MapIndex::default(),
            ServiceConfig {
                shards: 2,
                queue_capacity: ROOM,
                numa_pin: false,
                ..ServiceConfig::named("svc-partial", 2)
            },
        );
        // 40 puts over 5 keys, each key written 8 times with rising values.
        let reqs: Vec<Request> = (0..40u64)
            .map(|i| Request::Put {
                key: vec![(i % 5) as u8],
                value: i,
            })
            .collect();
        let shard: Vec<usize> = reqs.iter().map(|r| shard_of(r.key(), 2)).collect();
        // Fresh queues hold nothing: each shard's first ROOM slots are in.
        let admitted_slots: Vec<bool> = (0..reqs.len())
            .map(|i| shard[..i].iter().filter(|&&s| s == shard[i]).count() < ROOM)
            .collect();
        let replies = svc.submit(reqs, None).wait();
        for (i, r) in replies.iter().enumerate() {
            let want = if admitted_slots[i] {
                Response::Ok
            } else {
                Response::Overloaded
            };
            assert_eq!(*r, want, "slot {i} on shard {}", shard[i]);
        }
        let m = svc.metrics();
        let (admitted, shed) = (
            m.admitted.load(Ordering::Relaxed),
            m.shed.load(Ordering::Relaxed),
        );
        assert_eq!(
            admitted,
            admitted_slots.iter().filter(|&&a| a).count() as u64
        );
        assert_eq!(admitted + shed, 40);
        // Per-key FIFO: each key holds its last admitted value.
        assert!(svc.shutdown(Duration::from_secs(5)));
        let map = svc.index.map.read().unwrap();
        for k in 0..5u64 {
            let last = (0..40u64).rfind(|&i| i % 5 == k && admitted_slots[i as usize]);
            assert_eq!(map.get(&vec![k as u8]).copied(), last, "key {k}");
        }
    }

    #[test]
    fn expired_deadline_is_dropped_not_executed() {
        let svc = PacService::start(
            MapIndex {
                op_delay: Some(Duration::from_millis(20)),
                ..Default::default()
            },
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::named("svc-deadline", 1)
            },
        );
        // First op occupies the worker; the rest expire in-queue.
        let reqs: Vec<Request> = (0..5u64)
            .map(|i| Request::Put {
                key: i.to_be_bytes().to_vec(),
                value: i,
            })
            .collect();
        let replies = svc.submit(reqs, Some(Duration::from_millis(1))).wait();
        assert!(replies.contains(&Response::DeadlineExceeded), "{replies:?}");
        let timeouts = svc.metrics().timeouts.load(Ordering::Relaxed);
        assert!(timeouts > 0);
        // A timed-out put must not have reached the index.
        let executed = svc.index.map.read().unwrap().len();
        assert_eq!(
            executed as u64 + timeouts,
            5,
            "every op either executed or timed out"
        );
        svc.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn kill_answers_abandoned_work_with_aborted() {
        let svc = PacService::start(
            MapIndex {
                op_delay: Some(Duration::from_millis(10)),
                ..Default::default()
            },
            ServiceConfig {
                shards: 1,
                batch_max: 1,
                queue_capacity: 64,
                ..ServiceConfig::named("svc-kill", 1)
            },
        );
        // The first op occupies the worker; the rest sit in the queue.
        let sets: Vec<_> = (0..16u64)
            .map(|i| {
                svc.submit(
                    vec![Request::Put {
                        key: i.to_be_bytes().to_vec(),
                        value: i,
                    }],
                    None,
                )
            })
            .collect();
        svc.kill();
        // kill() must fill every admitted slot before returning, so these
        // waits return instead of hanging forever (`wait` has no timeout).
        let mut aborted = 0;
        for rs in sets {
            assert!(rs.is_done(), "kill left a slot unanswered");
            for r in rs.wait() {
                match r {
                    Response::Ok => {}
                    Response::Aborted => aborted += 1,
                    other => panic!("unexpected reply after kill: {other:?}"),
                }
            }
        }
        assert!(aborted > 0, "kill with a busy worker must abandon work");
        // Post-kill calls shed immediately instead of blocking.
        assert_eq!(
            svc.call(Request::Get { key: b"x".to_vec() }),
            Response::Overloaded
        );
    }

    #[test]
    fn handle_frame_roundtrip_and_malformed() {
        use crate::transport::FrameHandler;
        use crate::wire::{decode_frame, encode_frame, Frame};
        let svc = PacService::start(MapIndex::default(), ServiceConfig::named("svc-frame", 2));
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Request {
                id: 42,
                trace: TraceCtx::UNTRACED,
                reqs: vec![
                    Request::Put {
                        key: b"k".to_vec(),
                        value: 5,
                    },
                    Request::Get { key: b"k".to_vec() },
                ],
            },
            &mut buf,
        );
        let out = svc.handle_frame(&buf);
        let (reply, _) = decode_frame(&out).unwrap();
        assert_eq!(
            reply,
            Frame::Reply {
                id: 42,
                resps: vec![Response::Ok, Response::Value(Some(5))]
            }
        );
        // Ping -> Pong.
        buf.clear();
        encode_frame(&Frame::Ping { id: 9 }, &mut buf);
        let (pong, _) = decode_frame(&svc.handle_frame(&buf)).unwrap();
        assert_eq!(pong, Frame::Pong { id: 9 });
        // Garbage -> Malformed reply, id 0.
        let (mal, _) =
            decode_frame(&svc.handle_frame(b"garbage-bytes-here-longer-than-header")).unwrap();
        assert_eq!(
            mal,
            Frame::Reply {
                id: 0,
                resps: vec![Response::Malformed]
            }
        );
        svc.shutdown(Duration::from_secs(5));
    }

    /// A write the index refuses (a PACTree whose pool is full) is answered
    /// `Failed`, and the shard that ran it keeps serving.
    #[test]
    fn refused_write_is_answered_and_the_shard_keeps_serving() {
        let config = pactree::PacTreeConfig::named("svc-full").with_pool_size(2 << 20);
        let tree = pactree::PacTree::create(config).unwrap();
        let mut refused = 0u64;
        while tree.insert(&refused.to_be_bytes(), refused).is_ok() {
            refused += 1;
        }
        let svc = PacService::start(Arc::clone(&tree), ServiceConfig::named("svc-full", 1));
        let wait = Duration::from_secs(10);
        let call = |req| svc.submit(vec![req], None).wait_timeout(wait);
        let put = Request::Put {
            key: refused.to_be_bytes().to_vec(),
            value: 1,
        };
        assert_eq!(call(put), Some(vec![Response::Failed]));
        let get = Request::Get {
            key: 0u64.to_be_bytes().to_vec(),
        };
        assert_eq!(call(get), Some(vec![Response::Value(Some(0))]));
        assert!(svc.shutdown(wait), "the refused write left work pending");
        drop(svc);
        tree.destroy();
    }
}
