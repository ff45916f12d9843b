//! The cluster layer: range-partitioned multi-node pacsrv.
//!
//! One process = one [`ClusterNode`] wrapping one [`PacService`]. The node
//! holds the locally installed [`PartitionMap`] and enforces ownership at
//! the frame boundary: an operation whose key routes to a partition this
//! node does not own is answered [`Response::WrongPartition`] with the
//! installed map's epoch — **without executing it** — so a
//! [`RouterClient`] can refresh its cached map and resend safely.
//!
//! Ownership is per partition, with two modifiers:
//!
//! * **sealed** — a partition mid-migration on its source: still named in
//!   the map, but the source has stopped accepting writes for it (the
//!   final delta is being drained). Sealed-window operations bounce with
//!   the *current* epoch, telling routers "back off and retry" (the flip
//!   is imminent).
//! * **importing** — a partition mid-migration on its target: not yet
//!   named in the map, but the target accepts the bulk copy and delta
//!   replay (and any early-routed client writes) for it.
//!
//! Live migration ([`migrate`]) moves a partition between nodes with no
//! acked-write loss; the state machine and its crash points are documented
//! in DESIGN.md §15.

pub mod map;
pub mod migrate;
pub mod router;

pub use migrate::MigrationReport;
pub use router::RouterClient;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use obsv::trace;
use obsv::Histogram;
use ycsb::RangeIndex;

use crate::service::{request_ctx, PacService};
use crate::transport::FrameHandler;
use crate::wire::{Frame, MigrateOp, PartitionMap, Request, Response};

/// Migration phase gauge values (`<name>.cluster.migration.phase`).
pub const PHASE_IDLE: u8 = 0;
/// Bulk-copying a frozen snapshot of the partition to the target.
pub const PHASE_BULK: u8 = 1;
/// Replaying the writes that landed during the bulk copy.
pub const PHASE_DELTA: u8 = 2;
/// Partition sealed; draining in-flight ops and shipping the final delta.
pub const PHASE_SEAL: u8 = 3;
/// Installing and gossiping the flipped map.
pub const PHASE_FLIP: u8 = 4;

/// A migration phase observer (test hook): called with each phase gauge
/// value as the state machine enters it.
pub type PhaseHook = Arc<dyn Fn(u8) + Send + Sync>;

/// Per-partition load counters, maintained at the frame boundary for every
/// locally executed operation (bounced ops are not heat — they cost the
/// node a map lookup, not index work). Indexed by partition id; the
/// partition *count* is fixed for a map lineage (migrations move
/// ownership, they never split), so the vector never resizes.
struct HeatCell {
    ops: Arc<AtomicU64>,
    /// Approximate payload bytes: key length plus a fixed 9 (8-byte value
    /// word + op tag) per operation.
    bytes: Arc<AtomicU64>,
    /// Batch service latency observed by ops of this partition (each op
    /// records its whole batch's frame-boundary wall time — an upper
    /// bound, exact for single-partition batches).
    hist: Arc<Histogram>,
}

/// One partition's heat reading: `(ops, approx_bytes, p99_ns)`.
pub type PartitionHeat = (u64, u64, u64);

/// A partition-aware front for one [`PacService`] instance.
pub struct ClusterNode<I: RangeIndex + Clone + 'static> {
    service: Arc<PacService<I>>,
    endpoint: String,
    map: RwLock<Arc<PartitionMap>>,
    /// Source-side: partitions we still own in the map but no longer
    /// accept operations for (mid-migration seal window).
    sealed: Mutex<BTreeSet<u32>>,
    /// Target-side: partitions we accept operations for ahead of the map
    /// naming us (mid-migration import).
    importing: Mutex<BTreeSet<u32>>,
    /// Source-side: held for the whole of `migrate_out` so concurrent
    /// `MigrateOp::Start`s cannot build divergent same-epoch successor
    /// maps from one base (the second caller errs instead of racing).
    pub(crate) migrating: Mutex<()>,
    // Gauge cells, shared with the registry closures.
    epoch_gauge: Arc<AtomicU64>,
    owned_gauge: Arc<AtomicU64>,
    phase_gauge: Arc<AtomicU64>,
    handoff_lag: Arc<AtomicU64>,
    wrong_partition: Arc<AtomicU64>,
    /// Per-partition heat telemetry (`cluster.partition.<i>.*` gauges).
    heat: Vec<HeatCell>,
    /// Test hook observing migration phase transitions (runs on the
    /// migration thread; it may block to freeze the state machine).
    hook: Mutex<Option<PhaseHook>>,
    _registrations: Vec<obsv::Registration>,
}

impl<I: RangeIndex + Clone + 'static> ClusterNode<I> {
    /// Wraps `service` as the cluster node at `endpoint` (the address its
    /// wire listener is reachable at — must match the map's entries) with
    /// `map` installed. Registers per-partition gauges under the service's
    /// metric name.
    pub fn start(
        service: Arc<PacService<I>>,
        endpoint: &str,
        map: PartitionMap,
    ) -> Result<Arc<ClusterNode<I>>, String> {
        map.validate()?;
        let name = service.config().name.clone();
        let epoch_gauge = Arc::new(AtomicU64::new(map.epoch));
        let owned_gauge = Arc::new(AtomicU64::new(0));
        let phase_gauge = Arc::new(AtomicU64::new(PHASE_IDLE as u64));
        let handoff_lag = Arc::new(AtomicU64::new(0));
        let wrong_partition = Arc::new(AtomicU64::new(0));
        let reg = obsv::global();
        let cells: [(&str, &Arc<AtomicU64>); 5] = [
            ("cluster.map_epoch", &epoch_gauge),
            ("cluster.partitions.owned", &owned_gauge),
            ("cluster.migration.phase", &phase_gauge),
            ("cluster.migration.handoff_lag", &handoff_lag),
            ("cluster.wrong_partition.total", &wrong_partition),
        ];
        let mut registrations: Vec<obsv::Registration> = cells
            .iter()
            .map(|(suffix, cell)| {
                let w = Arc::downgrade(cell);
                reg.register_gauge(format!("{name}.{suffix}"), move || {
                    w.upgrade().map(|c| c.load(Ordering::Relaxed) as f64)
                })
            })
            .collect();
        let heat: Vec<HeatCell> = (0..map.parts.len())
            .map(|_| HeatCell {
                ops: Arc::new(AtomicU64::new(0)),
                bytes: Arc::new(AtomicU64::new(0)),
                hist: Arc::new(Histogram::new()),
            })
            .collect();
        for (i, cell) in heat.iter().enumerate() {
            let counters = [("ops", &cell.ops), ("bytes", &cell.bytes)];
            for (kind, c) in counters {
                let w = Arc::downgrade(c);
                registrations.push(
                    reg.register_gauge(format!("{name}.cluster.partition.{i}.{kind}"), move || {
                        w.upgrade().map(|c| c.load(Ordering::Relaxed) as f64)
                    }),
                );
            }
            let w = Arc::downgrade(&cell.hist);
            registrations.push(
                reg.register_gauge(format!("{name}.cluster.partition.{i}.p99"), move || {
                    w.upgrade().map(|h| h.snapshot().quantile(0.99) as f64)
                }),
            );
        }
        let node = Arc::new(ClusterNode {
            service,
            endpoint: endpoint.to_string(),
            map: RwLock::new(Arc::new(map)),
            sealed: Mutex::new(BTreeSet::new()),
            importing: Mutex::new(BTreeSet::new()),
            migrating: Mutex::new(()),
            epoch_gauge,
            owned_gauge,
            phase_gauge,
            handoff_lag,
            wrong_partition,
            heat,
            hook: Mutex::new(None),
            _registrations: registrations,
        });
        node.refresh_owned_gauge();
        Ok(node)
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<PacService<I>> {
        &self.service
    }

    /// The endpoint this node answers at.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The currently installed map (cheap: an `Arc` clone).
    pub fn map(&self) -> Arc<PartitionMap> {
        Arc::clone(&self.map.read().unwrap())
    }

    /// The installed map's epoch.
    pub fn map_epoch(&self) -> u64 {
        self.map.read().unwrap().epoch
    }

    /// Operations bounced with `WrongPartition` so far.
    pub fn wrong_partition_total(&self) -> u64 {
        self.wrong_partition.load(Ordering::Relaxed)
    }

    /// Per-partition heat readings, indexed by partition id:
    /// `(ops served, approximate bytes, p99 batch latency in ns)`.
    /// Partitions this node never served read `(0, 0, 0)`.
    pub fn partition_heat(&self) -> Vec<PartitionHeat> {
        self.heat
            .iter()
            .map(|c| {
                (
                    c.ops.load(Ordering::Relaxed),
                    c.bytes.load(Ordering::Relaxed),
                    c.hist.snapshot().quantile(0.99),
                )
            })
            .collect()
    }

    /// Installs `new` if its epoch is strictly newer than the installed
    /// one (epoch fencing: replayed or stale maps are ignored). Seals for
    /// partitions this node no longer owns under the new map are dropped.
    pub fn install_map(&self, new: PartitionMap) -> bool {
        self.install_map_when(new, None)
    }

    /// [`install_map`](Self::install_map) with an epoch compare-and-swap:
    /// additionally requires the installed epoch to still be `expected`.
    /// `false` means a concurrent install won the race — the caller must
    /// re-derive its successor map from the new current map instead of
    /// publishing one built from a stale base.
    pub(crate) fn install_map_cas(&self, expected: u64, new: PartitionMap) -> bool {
        self.install_map_when(new, Some(expected))
    }

    fn install_map_when(&self, new: PartitionMap, expected: Option<u64>) -> bool {
        if new.validate().is_err() {
            return false;
        }
        {
            let mut cur = self.map.write().unwrap();
            if new.epoch <= cur.epoch || expected.is_some_and(|e| cur.epoch != e) {
                return false;
            }
            self.epoch_gauge.store(new.epoch, Ordering::Relaxed);
            let owned: BTreeSet<u32> = new
                .parts
                .iter()
                .filter(|p| p.endpoint == self.endpoint)
                .map(|p| p.id)
                .collect();
            self.sealed.lock().unwrap().retain(|id| owned.contains(id));
            *cur = Arc::new(new);
        }
        self.refresh_owned_gauge();
        true
    }

    /// Observes migration phase transitions; see [`migrate`] for when it
    /// fires. Test-only in spirit (the kill test freezes mid-bulk with it).
    pub fn set_migration_hook(&self, f: impl Fn(u8) + Send + Sync + 'static) {
        *self.hook.lock().unwrap() = Some(Arc::new(f));
    }

    pub(crate) fn enter_phase(&self, phase: u8) {
        self.phase_gauge.store(phase as u64, Ordering::Relaxed);
        // Clone out of the lock before calling: a hook that parks its
        // thread (the kill test does) must not hold the mutex and
        // deadlock every other phase transition on the node.
        let hook = self.hook.lock().unwrap().clone();
        if let Some(f) = hook {
            f(phase);
        }
    }

    pub(crate) fn set_handoff_lag(&self, pairs: u64) {
        self.handoff_lag.store(pairs, Ordering::Relaxed);
    }

    pub(crate) fn add_handoff_lag(&self, pairs: u64) {
        self.handoff_lag.fetch_add(pairs, Ordering::Relaxed);
    }

    pub(crate) fn seal(&self, partition: u32) {
        self.sealed.lock().unwrap().insert(partition);
        self.refresh_owned_gauge();
    }

    pub(crate) fn unseal(&self, partition: u32) {
        self.sealed.lock().unwrap().remove(&partition);
        self.refresh_owned_gauge();
    }

    fn refresh_owned_gauge(&self) {
        let map = self.map();
        let sealed = self.sealed.lock().unwrap();
        let importing = self.importing.lock().unwrap();
        let owned = map
            .parts
            .iter()
            .filter(|p| p.endpoint == self.endpoint && !sealed.contains(&p.id))
            .count()
            + importing.len();
        self.owned_gauge.store(owned as u64, Ordering::Relaxed);
    }

    /// Executes one decoded request batch with ownership enforcement:
    /// owned operations go to the service as one sub-batch (preserving
    /// their relative order, hence per-key FIFO), unowned slots are
    /// answered `WrongPartition` with the installed map's epoch.
    ///
    /// The ownership check and the service enqueue happen atomically
    /// under the `sealed`/`importing` locks (the wait does not):
    /// [`seal`](Self::seal) takes the same lock, so a migration's
    /// seal + drain barrier cannot slip between an op passing the check
    /// and reaching the shard queues. Every op that passed is enqueued
    /// before `seal` returns, hence flushed by the drain barrier and
    /// captured by the final-delta snapshot — no acked write can land
    /// after the handoff's last diff.
    fn dispatch(&self, reqs: Vec<Request>, ctx: trace::TraceCtx) -> Vec<Response> {
        let map = self.map();
        let epoch = map.epoch;
        let n = reqs.len();
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        let mut slots = Vec::with_capacity(n);
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        let t0 = obsv::clock::now_ns();
        let pending = {
            let sealed = self.sealed.lock().unwrap();
            let importing = self.importing.lock().unwrap();
            let mut local = Vec::with_capacity(n);
            for (i, req) in reqs.into_iter().enumerate() {
                // Snapshot lifecycle ops carry no key: always local (and
                // not partition heat — they touch node state, not a range).
                let owned = match &req {
                    Request::Snapshot | Request::ReleaseSnapshot { .. } => true,
                    other => {
                        let p = map.owner_of(other.key());
                        let owned = (p.endpoint == self.endpoint && !sealed.contains(&p.id))
                            || importing.contains(&p.id);
                        if owned {
                            if let Some(cell) = self.heat.get(p.id as usize) {
                                cell.ops.fetch_add(1, Ordering::Relaxed);
                                cell.bytes
                                    .fetch_add(other.key().len() as u64 + 9, Ordering::Relaxed);
                                touched.insert(p.id);
                            }
                        }
                        owned
                    }
                };
                if owned {
                    slots.push(i);
                    local.push(req);
                } else {
                    self.wrong_partition.fetch_add(1, Ordering::Relaxed);
                    out[i] = Some(Response::WrongPartition { map_epoch: epoch });
                }
            }
            if local.is_empty() {
                None
            } else {
                // submit_traced never blocks (full queues shed), so the
                // locks are held for a bounded enqueue, not for service
                // time.
                Some(self.service.submit_traced(local, None, ctx))
            }
        };
        if let Some(rs) = pending {
            for (slot, resp) in slots.into_iter().zip(rs.wait()) {
                out[slot] = Some(resp);
            }
            let dt = obsv::clock::now_ns().saturating_sub(t0);
            for pid in touched {
                if let Some(cell) = self.heat.get(pid as usize) {
                    cell.hist.record(dt);
                }
            }
        }
        out.into_iter().map(Option::unwrap).collect()
    }

    /// Handles one migration control operation. `ctx` is the trace context
    /// off the `Migrate` frame: a controller that stamps (and forwards) a
    /// sampled context gets the migration's four phase spans recorded
    /// under its trace id — stitched by `trace-report` from this node's
    /// span dump.
    fn migrate_ctl(&self, op: MigrateOp, ctx: trace::TraceCtx) -> (bool, String) {
        match op {
            MigrateOp::Start { partition, target } => {
                let t0 = obsv::clock::now_ns();
                let (ok, detail) = match self.migrate_out_traced(partition, &target, ctx) {
                    Ok(report) => (true, report.to_json()),
                    Err(e) => (false, e),
                };
                // Harvest the phase spans into the retained store so the
                // stats span dump carries them. With a forwarded (hop > 0)
                // context this records a Remote bracket, never a second
                // root; an error outcome forces retention past the tail
                // threshold.
                trace::finish_root(
                    ctx,
                    t0,
                    if ok {
                        trace::TraceOutcome::Ok
                    } else {
                        trace::TraceOutcome::Error
                    },
                );
                (ok, detail)
            }
            MigrateOp::ImportBegin { partition } => {
                let map = self.map();
                let Some(part) = map.partition(partition) else {
                    return (false, format!("unknown partition {partition}"));
                };
                if part.endpoint == self.endpoint {
                    return (false, format!("already the owner of partition {partition}"));
                }
                // Discard fenced garbage left by a previous failed import
                // before accepting a fresh copy: the bulk copy only
                // re-sends keys live at its snapshot, so a leftover key
                // meanwhile deleted on the source would otherwise be
                // resurrected by the flip.
                let start = part.start.clone();
                let end = map.end_of(partition).map(<[u8]>::to_vec);
                self.retire_range(&start, end.as_deref());
                self.importing.lock().unwrap().insert(partition);
                self.refresh_owned_gauge();
                (true, String::new())
            }
            MigrateOp::ImportEnd { partition, map } => {
                let adopted = self.install_map(map);
                self.importing.lock().unwrap().remove(&partition);
                self.refresh_owned_gauge();
                (
                    adopted,
                    if adopted {
                        String::new()
                    } else {
                        "stale or invalid handoff map".to_string()
                    },
                )
            }
            MigrateOp::ImportAbort { partition } => {
                self.importing.lock().unwrap().remove(&partition);
                let map = self.map();
                // Wipe the partial copy — unless the map meanwhile made
                // this node the owner (an Install raced the abort): then
                // the range is live data, not garbage.
                if let Some(part) = map.partition(partition) {
                    if part.endpoint != self.endpoint {
                        let start = part.start.clone();
                        let end = map.end_of(partition).map(<[u8]>::to_vec);
                        self.retire_range(&start, end.as_deref());
                    }
                }
                self.refresh_owned_gauge();
                (true, String::new())
            }
            MigrateOp::Install { map } => (self.install_map(map), String::new()),
        }
    }
}

impl<I: RangeIndex + Clone + 'static> FrameHandler for ClusterNode<I> {
    /// The node answers what it adds — ownership-checked requests, map
    /// fetches, migration control — and leaves every other frame to the
    /// service's frame path.
    fn handle_frame(&self, bytes: &[u8]) -> Vec<u8> {
        self.service.handle_frame_with(bytes, |frame| match frame {
            Frame::Request { id, trace, reqs } => Ok(Frame::Reply {
                id,
                resps: self.dispatch(reqs, request_ctx(trace)),
            }),
            Frame::MapFetch { id, trace } => {
                // Attribute the fetch to the router's map_refresh span
                // when it rides a traced request (inert otherwise).
                let _span = trace::span(trace, trace::SpanKind::MapRefresh, 0);
                Ok(Frame::MapReply {
                    id,
                    map: (*self.map()).clone(),
                })
            }
            Frame::Migrate { id, trace, op } => {
                let (ok, detail) = self.migrate_ctl(op, trace);
                Ok(Frame::MigrateReply { id, ok, detail })
            }
            other => Err(other),
        })
    }

    fn health_text(&self) -> String {
        self.service.health_text()
    }
}
