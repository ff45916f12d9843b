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
//! 2. ingress token bucket (optional) — sustained-rate throttle reusing
//!    `pmem`'s debt-based [`TokenBucket`] in non-blocking mode;
//! 3. bounded queue — a full shard queue sheds that operation.
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
use std::time::{Duration, Instant};

use obsv::clock;
use obsv::trace::{self, SpanKind, TraceCtx};
use pmem::model::TokenBucket;
use ycsb::RangeIndex;

use crate::metrics::ServiceMetrics;
use crate::queue::{BatchQueue, PopStatus};
use crate::reply::ReplySet;
use crate::wire::{Frame, Request, Response};

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
    /// Sustained admission rate in ops/sec (`None` = queue bound only).
    pub ingress_rate: Option<u64>,
    /// Burst allowance of the ingress bucket, in ops. Admission requires
    /// the balance to cover a whole submitted batch, so this must be at
    /// least the largest batch size a client submits in one call — a
    /// larger batch is always shed.
    pub ingress_burst: u64,
    /// Default per-op deadline applied at admission (`None` = none).
    pub default_deadline: Option<Duration>,
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
            ingress_rate: None,
            ingress_burst: 256,
            default_deadline: None,
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
    bucket: Option<TokenBucket>,
    origin: Instant,
    state: AtomicU8,
    /// Correlation ids for [`handle_frame`](Self::handle_frame) replies.
    next_id: AtomicU64,
    /// SLO engine whose alert states the health endpoint exposes
    /// (none until [`set_slo_engine`](Self::set_slo_engine)).
    slo: Mutex<Option<Arc<obsv::SloEngine>>>,
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

fn kind_of(req: &Request) -> obsv::OpKind {
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
        Request::Put { key, value } => {
            index.insert(key, *value);
            Response::Ok
        }
        Request::Delete { key } => Response::Removed(index.remove(key)),
        Request::Scan { start, count } => {
            Response::ScanCount(index.scan(start, *count as usize) as u32)
        }
        Request::Snapshot => match index.snapshot() {
            Some(id) => Response::Snapshot(id),
            None => Response::UnknownSnapshot,
        },
        Request::ScanAt { snap, start, count } => {
            match index.scan_at(*snap, start, *count as usize) {
                Some(n) => Response::ScanCount(n as u32),
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

        let bucket = cfg
            .ingress_rate
            .map(|rate| TokenBucket::with_burst(rate, cfg.ingress_burst));
        Arc::new(PacService {
            index,
            cfg,
            shards,
            workers: Mutex::new(workers),
            metrics,
            bucket,
            origin: Instant::now(),
            state: AtomicU8::new(RUNNING),
            next_id: AtomicU64::new(1),
            slo: Mutex::new(None),
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
    /// `deadline` overrides the config default for this batch; it is
    /// measured from admission (queue time + execution must fit).
    ///
    /// Stamps a fresh trace context (tail-sampled; a no-op unless the
    /// `trace` feature is compiled in). Transports that carry a context on
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
        if let Some(bucket) = &self.bucket {
            if !bucket.try_acquire(n as u64, &self.origin) {
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
        }
        let now = clock::now_ns();
        if traced {
            // Covers the lifecycle gate + token bucket; recorded before the
            // first push so the harvest (triggered by the last complete,
            // possibly on a worker thread) cannot miss it.
            trace::record_span(ctx, SpanKind::Admission, n as u32, admit_ns, now);
        }
        let deadline_ns = deadline
            .or(self.cfg.default_deadline)
            .map(|d| now.saturating_add(d.as_nanos() as u64))
            .unwrap_or(NO_DEADLINE);
        for (slot, req) in reqs.into_iter().enumerate() {
            let shard = shard_of(req.key(), self.shards.len());
            let job = Job {
                req,
                trace: ctx,
                enqueue_ns: now,
                deadline_ns,
                slot,
                done: Arc::clone(&rs),
            };
            match self.shards[shard].try_push(job) {
                Ok(()) => {
                    self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
                }
                Err(job) => {
                    self.metrics.shed.fetch_add(1, Ordering::Relaxed);
                    job.done.complete(job.slot, Response::Overloaded);
                }
            }
        }
        rs
    }

    /// Convenience: submit one operation and wait for its reply.
    pub fn call(&self, req: Request) -> Response {
        self.submit(vec![req], None).wait()[0]
    }

    /// The shared frame path of every transport: decode, submit, wait,
    /// encode. A malformed buffer gets a `Reply` with one `Malformed`
    /// status (correlation id 0 if the header never decoded).
    ///
    /// Requests execute under [`request_ctx`] of the frame's trace block.
    pub fn handle_frame(&self, bytes: &[u8]) -> Vec<u8> {
        self.handle_frame_with(bytes, Err)
    }

    /// [`handle_frame`](Self::handle_frame) for a front-end that answers
    /// some frames itself: `claim` returns `Ok(reply)` for a frame it
    /// handles, or gives the frame back as `Err` for the service to answer.
    pub(crate) fn handle_frame_with(
        &self,
        bytes: &[u8],
        claim: impl FnOnce(Frame) -> Result<Frame, Frame>,
    ) -> Vec<u8> {
        let reply = match crate::wire::decode_frame(bytes) {
            Ok((frame, _)) => claim(frame).unwrap_or_else(|frame| match frame {
                Frame::Request { id, trace, reqs } => Frame::Reply {
                    id,
                    resps: self.submit_traced(reqs, None, request_ctx(trace)).wait(),
                },
                Frame::Ping { id } => Frame::Pong { id },
                Frame::Stats { id } => Frame::StatsReply {
                    id,
                    json: self.stats_json(),
                },
                Frame::Health { id } => Frame::HealthReply {
                    id,
                    text: self.health_text(),
                },
                other => Frame::Reply {
                    id: other.id(),
                    resps: vec![Response::Malformed],
                },
            }),
            Err(_) => Frame::Reply {
                id: 0,
                resps: vec![Response::Malformed],
            },
        };
        let mut out = Vec::new();
        crate::wire::encode_frame(&reply, &mut out);
        out
    }

    /// The live-stats document answered to a [`crate::wire::Frame::Stats`]
    /// request: service counters, a full metrics-registry sample, the
    /// retained-trace digest, and a flight-recorder dump — one JSON object,
    /// assembled without stopping the server.
    pub fn stats_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":\"pacsrv_stats/v1\",\"ts_ns\":{},\"name\":\"{}\",",
                "\"queue_depth\":{},\"admitted\":{},\"shed\":{},\"completed\":{},",
                "\"timeouts\":{},\"registry\":{},\"traces\":{},\"span_dump\":{},",
                "\"flight\":\"{}\"}}"
            ),
            clock::now_ns(),
            trace::json_escape(&self.cfg.name),
            self.queue_depth(),
            self.metrics.admitted.load(Ordering::Relaxed),
            self.metrics.shed.load(Ordering::Relaxed),
            self.metrics.completed.load(Ordering::Relaxed),
            self.metrics.timeouts.load(Ordering::Relaxed),
            obsv::global().sample().to_json(1.0),
            trace::digest_json(),
            trace::span_dump_json(),
            trace::json_escape(&obsv::flight::dump_now()),
        )
    }

    /// Attaches an SLO engine: its alert states (firing flags and
    /// burn rates) are appended to every health scrape from now on. The
    /// engine is typically also registered as registry gauges and driven
    /// by an [`obsv::Scraper`], so the states appear in sampled time
    /// series too; this hook is what puts them on the wire.
    pub fn set_slo_engine(&self, engine: Arc<obsv::SloEngine>) {
        *self.slo.lock().unwrap() = Some(engine);
    }

    /// The health document answered to a [`crate::wire::Frame::Health`]
    /// request and served by the plain-TCP health listener: a live
    /// metrics-registry sample plus any attached SLO alert states,
    /// rendered in Prometheus text exposition format.
    pub fn health_text(&self) -> String {
        let slo_status = self
            .slo
            .lock()
            .unwrap()
            .as_ref()
            .map(|e| e.status())
            .unwrap_or_default();
        obsv::prom::render(&obsv::global().sample(), &slo_status)
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

    /// Whether the service still admits requests.
    pub fn is_running(&self) -> bool {
        self.state.load(Ordering::Acquire) == RUNNING
    }

    /// The index this service fronts. Migration drives snapshot reads
    /// (`snapshot`/`scan_pairs_at`/`diff_pairs`) directly against it —
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
            let mut job = Job {
                req: Request::Scan {
                    start: Vec::new(),
                    count: 0,
                },
                trace: TraceCtx::UNTRACED,
                enqueue_ns: now,
                deadline_ns: NO_DEADLINE,
                slot: i,
                done: Arc::clone(&rs),
            };
            loop {
                match queue.try_push(job) {
                    Ok(()) => {
                        self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(j) => {
                        if self.state.load(Ordering::Acquire) != RUNNING {
                            // Closed or killed queue: the marker can never
                            // land; answer its slot so the wait terminates.
                            j.done.complete(j.slot, Response::Aborted);
                            break;
                        }
                        job = j;
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
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
                    .record(kind_of(&job.req), now.saturating_sub(job.enqueue_ns), 0);
                metrics.completed.fetch_add(1, Ordering::Relaxed);
                job.done.complete(job.slot, resp);
            }
        });
        // Batch boundary: advance the index's version counter so snapshot
        // versions align with batch edges (a snapshot taken between two
        // batches never splits either). No-op for unversioned indexes.
        index.advance_version();
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
        fn insert(&self, key: &[u8], value: u64) {
            if let Some(d) = self.op_delay {
                std::thread::sleep(d);
            }
            self.map.write().unwrap().insert(key.to_vec(), value);
        }
        fn lookup(&self, key: &[u8]) -> Option<u64> {
            if let Some(d) = self.op_delay {
                std::thread::sleep(d);
            }
            self.map.read().unwrap().get(key).copied()
        }
        fn remove(&self, key: &[u8]) -> Option<u64> {
            self.map.write().unwrap().remove(key)
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
    fn ingress_bucket_sheds_beyond_burst() {
        let svc = PacService::start(
            MapIndex::default(),
            ServiceConfig {
                ingress_rate: Some(1), // ~no refill during the test
                ingress_burst: 8,
                ..ServiceConfig::named("svc-bucket", 2)
            },
        );
        let mut admitted = 0;
        for i in 0..100u64 {
            let r = svc.call(Request::Put {
                key: i.to_be_bytes().to_vec(),
                value: i,
            });
            if r == Response::Ok {
                admitted += 1;
            } else {
                assert_eq!(r, Response::Overloaded);
            }
        }
        assert!((1..=16).contains(&admitted), "admitted {admitted}");
        assert!(svc.metrics().shed.load(Ordering::Relaxed) >= 84);
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

    #[test]
    fn stats_frame_answers_with_live_json() {
        use crate::wire::{decode_frame, encode_frame, Frame};
        let svc = PacService::start(MapIndex::default(), ServiceConfig::named("svc-stats", 1));
        svc.call(Request::Put {
            key: b"s".to_vec(),
            value: 1,
        });
        let mut buf = Vec::new();
        encode_frame(&Frame::Stats { id: 77 }, &mut buf);
        let (reply, _) = decode_frame(&svc.handle_frame(&buf)).unwrap();
        match reply {
            Frame::StatsReply { id, json } => {
                assert_eq!(id, 77);
                assert!(
                    json.starts_with("{\"schema\":\"pacsrv_stats/v1\""),
                    "{json}"
                );
                assert!(json.contains("\"name\":\"svc-stats\""), "{json}");
                assert!(json.contains("\"completed\":1"), "{json}");
                assert!(json.contains("\"traces\":{"), "{json}");
            }
            other => panic!("expected stats reply, got {other:?}"),
        }
        svc.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn health_frame_answers_with_prometheus_text() {
        use crate::wire::{decode_frame, encode_frame, Frame};
        let svc = PacService::start(MapIndex::default(), ServiceConfig::named("svc-health", 1));
        svc.call(Request::Put {
            key: b"h".to_vec(),
            value: 1,
        });
        let mut buf = Vec::new();
        encode_frame(&Frame::Health { id: 31 }, &mut buf);
        let (reply, _) = decode_frame(&svc.handle_frame(&buf)).unwrap();
        match reply {
            Frame::HealthReply { id, text } => {
                assert_eq!(id, 31);
                assert!(
                    text.contains("# TYPE obsv_scrape_timestamp_ns gauge"),
                    "{text}"
                );
                assert!(text.contains("svc_health_queue_depth"), "{text}");
                // No SLO engine attached: no slo families yet.
                assert!(!text.contains("slo_firing"), "{text}");
            }
            other => panic!("expected health reply, got {other:?}"),
        }
        // Attach an SLO engine; its states join the scrape.
        let tsdb = obsv::Tsdb::new(16);
        let engine = obsv::SloEngine::new(
            tsdb,
            vec![obsv::SloSpec::ratio(
                "svc-health-shed",
                "svc-health.shed.total",
                "svc-health.admitted.total",
                0.01,
            )],
        );
        svc.set_slo_engine(engine);
        let (reply, _) = decode_frame(&svc.handle_frame(&buf)).unwrap();
        match reply {
            Frame::HealthReply { text, .. } => {
                assert!(
                    text.contains("slo_firing{slo=\"svc-health-shed\"} 0"),
                    "{text}"
                );
                assert!(
                    text.contains("slo_burn_rate{slo=\"svc-health-shed\",window=\"fast\"}"),
                    "{text}"
                );
            }
            other => panic!("expected health reply, got {other:?}"),
        }
        svc.shutdown(Duration::from_secs(5));
    }
}
