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
    /// Migration phase gauge cell, shared with its registry closure.
    phase_gauge: Arc<AtomicU64>,
    /// Operations answered `WrongPartition`.
    wrong_partition: AtomicU64,
    /// Test hook observing migration phase transitions (runs on the
    /// migration thread; it may block to freeze the state machine).
    hook: Mutex<Option<PhaseHook>>,
    _registration: obsv::Registration,
}

impl<I: RangeIndex + Clone + 'static> ClusterNode<I> {
    /// Wraps `service` as the cluster node at `endpoint` (the address its
    /// wire listener is reachable at — must match the map's entries) with
    /// `map` installed. Registers the migration phase gauge under the
    /// service's metric name.
    pub fn start(
        service: Arc<PacService<I>>,
        endpoint: &str,
        map: PartitionMap,
    ) -> Result<Arc<ClusterNode<I>>, String> {
        map.validate()?;
        let phase_gauge = Arc::new(AtomicU64::new(PHASE_IDLE as u64));
        let w = Arc::downgrade(&phase_gauge);
        let registration = obsv::global().register_gauge(
            format!("{}.cluster.migration.phase", service.config().name),
            move || w.upgrade().map(|c| c.load(Ordering::Relaxed) as f64),
        );
        Ok(Arc::new(ClusterNode {
            service,
            endpoint: endpoint.to_string(),
            map: RwLock::new(Arc::new(map)),
            sealed: Mutex::new(BTreeSet::new()),
            importing: Mutex::new(BTreeSet::new()),
            migrating: Mutex::new(()),
            phase_gauge,
            wrong_partition: AtomicU64::new(0),
            hook: Mutex::new(None),
            _registration: registration,
        }))
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
        let mut cur = self.map.write().unwrap();
        if new.epoch <= cur.epoch || expected.is_some_and(|e| cur.epoch != e) {
            return false;
        }
        let owned: BTreeSet<u32> = new
            .parts
            .iter()
            .filter(|p| p.endpoint == self.endpoint)
            .map(|p| p.id)
            .collect();
        self.sealed.lock().unwrap().retain(|id| owned.contains(id));
        *cur = Arc::new(new);
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

    pub(crate) fn seal(&self, partition: u32) {
        self.sealed.lock().unwrap().insert(partition);
    }

    pub(crate) fn unseal(&self, partition: u32) {
        self.sealed.lock().unwrap().remove(&partition);
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
        let pending = {
            let sealed = self.sealed.lock().unwrap();
            let importing = self.importing.lock().unwrap();
            let mut local = Vec::with_capacity(n);
            for (i, req) in reqs.into_iter().enumerate() {
                // Snapshot lifecycle ops carry no key: always local.
                let owned = match &req {
                    Request::Snapshot | Request::ReleaseSnapshot { .. } => true,
                    other => {
                        let p = map.owner_of(other.key());
                        (p.endpoint == self.endpoint && !sealed.contains(&p.id))
                            || importing.contains(&p.id)
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
        }
        out.into_iter().map(Option::unwrap).collect()
    }

    /// Handles one migration control operation. `ctx` is the trace context
    /// off the `Migrate` frame: a controller that stamps (and forwards) a
    /// sampled context gets the migration's four phase spans recorded
    /// under its trace id, which [`obsv::trace::stitch`] joins from this
    /// node's span dump.
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
                if let Err(e) = self.retire_range(&start, end.as_deref()) {
                    return (false, e);
                }
                self.importing.lock().unwrap().insert(partition);
                (true, String::new())
            }
            MigrateOp::ImportEnd { partition, map } => {
                let adopted = self.install_map(map);
                self.importing.lock().unwrap().remove(&partition);
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
                        if let Err(e) = self.retire_range(&start, end.as_deref()) {
                            return (false, e);
                        }
                    }
                }
                (true, String::new())
            }
            MigrateOp::Install { map } => (self.install_map(map), String::new()),
        }
    }
}

impl<I: RangeIndex + Clone + 'static> FrameHandler for ClusterNode<I> {
    /// The node answers what it adds — ownership-checked requests, map
    /// fetches, migration control — and leaves every other frame to its
    /// service.
    fn answer(&self, frame: Frame) -> Frame {
        match frame {
            Frame::Request { id, trace, reqs } => Frame::Reply {
                id,
                resps: self.dispatch(reqs, request_ctx(trace)),
            },
            Frame::MapFetch { id, trace } => {
                // Attribute the fetch to the router's map_refresh span
                // when it rides a traced request (inert otherwise).
                let _span = trace::span(trace, trace::SpanKind::MapRefresh, 0);
                Frame::MapReply {
                    id,
                    map: (*self.map()).clone(),
                }
            }
            Frame::Migrate { id, trace, op } => {
                let (ok, detail) = self.migrate_ctl(op, trace);
                Frame::MigrateReply { id, ok, detail }
            }
            other => self.service.answer(other),
        }
    }

    fn health_text(&self) -> String {
        self.service.health_text()
    }
}
