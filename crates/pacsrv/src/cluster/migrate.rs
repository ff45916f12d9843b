//! Live partition migration, driven by the source node.
//!
//! `migrate_out` moves one partition to a target node while both keep
//! serving, in four phases (gauge `<name>.cluster.migration.phase`):
//!
//! 1. **Bulk** — capture an O(1) MVCC snapshot and page the partition's
//!    range through `scan_pairs_at`, bulk-loading the target with acked
//!    `Put` batches. Writers keep landing on the source.
//! 2. **Delta** — capture a second snapshot and replay
//!    `diff_pairs(snap1, snap2)` (restricted to the range) on the target:
//!    everything that changed during the bulk copy.
//! 3. **Seal** — stop accepting the partition (new ops bounce with
//!    `WrongPartition` at the current epoch), run the service's drain
//!    barrier so every already-admitted op has executed, then ship the
//!    final `diff(snap2, snap3)`. After this the target is byte-identical
//!    for the range.
//! 4. **Flip** — derive the successor map from the *current* map
//!    (epoch+1, target owns the partition), send it to the target as
//!    `ImportEnd` (acked — the commit point), install it locally with an
//!    epoch compare-and-swap, and gossip it best-effort to every other
//!    node. Finally the source retires its local copy of the range — the
//!    new map fences point operations away from it, but leftover pairs
//!    would pollute local scans and hold memory.
//!
//! At most one migration runs per source node (`migrate_out` holds the
//! node's migration mutex for its whole run): two concurrent `Start` ops
//! would otherwise both derive epoch+1 from the same base and publish
//! divergent same-epoch maps that epoch fencing cannot reconcile.
//!
//! Failure paths: every error after `ImportBegin` but before the commit
//! point sends a best-effort `ImportAbort` so the target drops import
//! mode and wipes its partial copy (`ImportBegin` wipes the range again
//! on the next attempt regardless, covering a source that died without
//! aborting). If the `ImportEnd` connection breaks mid-call the outcome
//! is resolved by re-reading the target's installed map; if the target
//! is unreachable the outcome is unknown and the partition **stays
//! sealed** — unsealing could split-brain acked writes — until a retried
//! migration resolves it either way.
//!
//! Crash safety (the crashcheck oracle's contract): every client-acked
//! write is durable on whichever node acked it. A crash before the flip
//! leaves the map naming the source, which holds every write it acked
//! (sealed-window bounces were never acked); the target's partial copy is
//! garbage, aborted or wiped on the next import. A crash after the flip
//! leaves the target owning the range, and every pair it holds was acked
//! durable by its own index before `ImportEnd` was sent. There is no
//! window where an acked write lives only on a node the map does not (or
//! will not) name.

use std::time::{Duration, Instant};

use obsv::trace::{self, SpanKind, TraceCtx};
use ycsb::RangeIndex;

use super::map::in_range;
use super::{ClusterNode, PHASE_BULK, PHASE_DELTA, PHASE_FLIP, PHASE_IDLE, PHASE_SEAL};
use crate::transport::TcpClient;
use crate::wire::{MigrateOp, Request};

/// Pairs per bulk-copy / delta-replay batch. Kept small so foreground
/// client ops never queue behind a long migration batch on either node's
/// shard workers (the migration-window p99 gate in `tests/fleet_plane.rs`).
const CHUNK: usize = 128;

/// Pause between bulk-copy chunks: yields both services' queues to
/// foreground traffic. Stretches the (fully available) bulk phase a
/// little; the sealed window is never paced.
const BULK_PACE: Duration = Duration::from_millis(1);

/// What a completed migration measured; also the `detail` JSON of the
/// `MigrateReply` answering `MigrateOp::Start`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationReport {
    pub partition: u32,
    /// Pairs bulk-copied from the frozen snapshot.
    pub moved_pairs: u64,
    /// Pairs replayed from the two delta rounds.
    pub delta_pairs: u64,
    /// Unavailability window: seal to flip, in milliseconds.
    pub seal_ms: u64,
    /// Whole migration, in milliseconds.
    pub total_ms: u64,
    /// The flipped map's epoch.
    pub new_epoch: u64,
}

impl MigrationReport {
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"partition\":{},\"moved_pairs\":{},\"delta_pairs\":{},",
                "\"seal_ms\":{},\"total_ms\":{},\"new_epoch\":{}}}"
            ),
            self.partition,
            self.moved_pairs,
            self.delta_pairs,
            self.seal_ms,
            self.total_ms,
            self.new_epoch
        )
    }
}

/// Releases every snapshot taken during a migration when it ends, on both
/// the success and every error path.
struct SnapGuard<'a, I: RangeIndex> {
    index: &'a I,
    ids: Vec<u64>,
}

impl<'a, I: RangeIndex> SnapGuard<'a, I> {
    fn take(&mut self) -> Result<u64, String> {
        let id = self
            .index
            .snapshot()
            .ok_or_else(|| "index has no snapshot support".to_string())?;
        self.ids.push(id);
        Ok(id)
    }
}

impl<I: RangeIndex> Drop for SnapGuard<'_, I> {
    fn drop(&mut self) {
        for id in self.ids.drain(..) {
            self.index.release_snapshot(id);
        }
    }
}

/// Sends `batch` to the target and insists every op executed. Ops the
/// target shed (`Overloaded`/`DeadlineExceeded` — never executed, safe to
/// resend verbatim) are retried with backoff; persistent shedding fails
/// the migration rather than silently dropping pairs.
fn apply_batch(client: &mut TcpClient, mut batch: Vec<Request>) -> Result<(), String> {
    for attempt in 0..10u32 {
        if batch.is_empty() {
            return Ok(());
        }
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(5u64 << attempt.min(4)));
        }
        let resps = client
            .call(batch.clone())
            .map_err(|e| format!("apply to target: {e}"))?;
        if resps.len() != batch.len() {
            return Err("target reply length mismatch".to_string());
        }
        batch = batch
            .into_iter()
            .zip(&resps)
            .filter(|(_, r)| !r.executed())
            .map(|(req, _)| req)
            .collect();
    }
    Err("target kept shedding the migration batch".to_string())
}

/// Whether the node at `target` shows an installed map naming it the
/// owner of `partition` at `epoch` or newer — the post-hoc resolution for
/// an `ImportEnd` whose connection broke mid-call. `None` when the target
/// cannot be reached (the outcome stays unknown).
fn target_adopted(target: &str, partition: u32, epoch: u64) -> Option<bool> {
    let mut c = TcpClient::connect(target).ok()?;
    let map = c.fetch_map().ok()?;
    Some(
        map.epoch >= epoch
            && map
                .partition(partition)
                .is_some_and(|p| p.endpoint == target),
    )
}

impl<I: RangeIndex + Clone + 'static> ClusterNode<I> {
    /// Migrates `partition` from this node to `target`, returning the
    /// report on success. On error the partition is unsealed (unless the
    /// handoff may have committed — see the module docs), the target is
    /// told to abort the import, and all snapshots are released, so the
    /// source keeps serving it. At most one migration runs per node;
    /// a concurrent call fails fast instead of racing the epoch.
    pub fn migrate_out(&self, partition: u32, target: &str) -> Result<MigrationReport, String> {
        self.migrate_out_traced(partition, target, TraceCtx::UNTRACED)
    }

    /// [`migrate_out`](Self::migrate_out) under a trace context: each of
    /// the four phases records a [`SpanKind::MigratePhase`] span (detail =
    /// the phase gauge value) parented to `ctx`, and the wire frames sent
    /// to the target carry the forwarded context.
    pub fn migrate_out_traced(
        &self,
        partition: u32,
        target: &str,
        ctx: TraceCtx,
    ) -> Result<MigrationReport, String> {
        let _guard = match self.migrating.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                return Err("a migration is already in progress on this node".to_string());
            }
        };
        let out = self.migrate_run(partition, target, ctx);
        self.enter_phase(PHASE_IDLE);
        out
    }

    /// Best-effort `ImportAbort` to the target after a failed migration:
    /// without it the target sits in importing mode forever, and a later
    /// successful migration could resurrect stale keys from the partial
    /// copy (the bulk copy only re-sends keys live at its snapshot).
    fn abort_import(&self, client: &mut TcpClient, target: &str, partition: u32) {
        if matches!(
            client.migrate(MigrateOp::ImportAbort { partition }),
            Ok((true, _))
        ) {
            return;
        }
        // The primary connection may be the thing that failed.
        if let Ok(mut c) = TcpClient::connect(target) {
            let _ = c.migrate(MigrateOp::ImportAbort { partition });
        }
    }

    fn migrate_run(
        &self,
        partition: u32,
        target: &str,
        ctx: TraceCtx,
    ) -> Result<MigrationReport, String> {
        let t0 = Instant::now();
        let map = self.map();
        let part = map
            .partition(partition)
            .ok_or_else(|| format!("unknown partition {partition}"))?;
        if part.endpoint != self.endpoint() {
            return Err(format!(
                "not the owner of partition {partition} ({} is)",
                part.endpoint
            ));
        }
        if target == self.endpoint() {
            return Err("target is the source".to_string());
        }
        let range_start = part.start.clone();
        let range_end: Option<Vec<u8>> = map.end_of(partition).map(<[u8]>::to_vec);
        let mut snaps = SnapGuard {
            index: self.service().index(),
            ids: Vec::new(),
        };

        let mut client =
            TcpClient::connect(target).map_err(|e| format!("connect {target}: {e}"))?;
        // Forward the migration's trace context to the target: its import
        // work (bulk Puts, delta replays, the handoff ops) shows up under
        // the same trace id, node-stamped with the target's ordinal.
        let tgt_ord = map
            .endpoints()
            .iter()
            .position(|e| *e == target)
            .map_or(0, |i| i as u16 + 1);
        client.set_trace(ctx.forwarded_to(tgt_ord));
        match client.migrate(MigrateOp::ImportBegin { partition }) {
            Ok((true, _)) => {}
            Ok((false, detail)) => return Err(format!("target refused import: {detail}")),
            Err(e) => return Err(format!("import-begin: {e}")),
        }

        // Phase 1: bulk-copy a frozen view of the range. Writers keep
        // landing on the source; the snapshot does not see them.
        // Phase 2: replay what landed during the bulk copy.
        self.enter_phase(PHASE_BULK);
        let copy_run: Result<(u64, u64, u64), String> = (|| {
            let snap1 = snaps.take()?;
            let bulk_span = trace::span(ctx, SpanKind::MigratePhase, PHASE_BULK as u32);
            let moved = self.copy_range(&mut client, snap1, &range_start, range_end.as_deref())?;
            drop(bulk_span);
            self.enter_phase(PHASE_DELTA);
            let _delta_span = trace::span(ctx, SpanKind::MigratePhase, PHASE_DELTA as u32);
            let snap2 = snaps.take()?;
            let d1 = self.apply_diff(
                &mut client,
                snap1,
                snap2,
                &range_start,
                range_end.as_deref(),
            )?;
            Ok((moved, d1, snap2))
        })();
        let (moved_pairs, d1, snap2) = match copy_run {
            Ok(v) => v,
            Err(e) => {
                self.abort_import(&mut client, target, partition);
                return Err(e);
            }
        };

        // Phase 3: seal (new ops bounce un-acked), drain what was already
        // admitted, ship the final delta. This is the unavailability
        // window; it covers only writes that raced the seal.
        let t_seal = Instant::now();
        self.seal(partition);
        self.enter_phase(PHASE_SEAL);
        let sealed_run: Result<u64, String> = (|| {
            let _seal_span = trace::span(ctx, SpanKind::MigratePhase, PHASE_SEAL as u32);
            self.service().drain_barrier();
            let snap3 = snaps.take()?;
            self.apply_diff(
                &mut client,
                snap2,
                snap3,
                &range_start,
                range_end.as_deref(),
            )
        })();
        let d2 = match sealed_run {
            Ok(d) => d,
            Err(e) => {
                self.unseal(partition);
                self.abort_import(&mut client, target, partition);
                return Err(e);
            }
        };

        // Phase 4: flip. The successor is derived from the *current* map,
        // not the one captured at the start — a newer map may have been
        // installed mid-migration, and a successor built from a stale base
        // would fork the epoch lineage. The target adopting the new map
        // (acked) is the commit point; installing locally drops our seal
        // because the partition is no longer ours.
        self.enter_phase(PHASE_FLIP);
        let flip_span = trace::span(ctx, SpanKind::MigratePhase, PHASE_FLIP as u32);
        let flip_base = self.map();
        if flip_base
            .partition(partition)
            .is_none_or(|p| p.endpoint != self.endpoint())
        {
            self.unseal(partition);
            self.abort_import(&mut client, target, partition);
            return Err(format!(
                "lost ownership of partition {partition} mid-migration (map epoch {})",
                flip_base.epoch
            ));
        }
        let mut new_map = flip_base.with_owner(partition, target);
        match client.migrate(MigrateOp::ImportEnd {
            partition,
            map: new_map.clone(),
        }) {
            Ok((true, _)) => {}
            Ok((false, detail)) => {
                // Definitely not adopted: roll back cleanly.
                self.unseal(partition);
                self.abort_import(&mut client, target, partition);
                return Err(format!("target refused handoff: {detail}"));
            }
            Err(e) => {
                // The connection broke mid-ImportEnd: the target may or
                // may not have adopted. Resolve by re-reading its
                // installed map on a fresh connection.
                match target_adopted(target, partition, new_map.epoch) {
                    Some(true) => {} // committed: fall through to the install
                    Some(false) => {
                        self.unseal(partition);
                        self.abort_import(&mut client, target, partition);
                        return Err(format!("import-end: {e}"));
                    }
                    None => {
                        // Unknown outcome: unsealing could split-brain
                        // acked writes (the target may already own the
                        // partition). Stay sealed; a retried migration to
                        // the same target resolves it either way.
                        return Err(format!(
                            "import-end outcome unknown (target unreachable): {e}; \
                             partition {partition} stays sealed pending a retry"
                        ));
                    }
                }
            }
        }
        let seal_ms = t_seal.elapsed().as_millis() as u64;
        // Local install with an epoch CAS: if a gossiped map slipped in
        // between the derive and here, re-derive the successor from it so
        // the published lineage stays single-parented.
        if !self.install_map_cas(flip_base.epoch, new_map.clone()) {
            let mut installed = false;
            for _ in 0..4 {
                let base = self.map();
                match base.partition(partition) {
                    Some(p) if p.endpoint == self.endpoint() => {
                        let next = base.with_owner(partition, target);
                        if self.install_map_cas(base.epoch, next.clone()) {
                            new_map = next;
                            installed = true;
                            break;
                        }
                    }
                    _ => {
                        // The concurrent map already moved the partition
                        // off this node (e.g. our flip gossiped back):
                        // nothing left to install.
                        new_map = (*base).clone();
                        installed = true;
                        break;
                    }
                }
            }
            if !installed {
                return Err(format!(
                    "handoff of partition {partition} committed on the target but the \
                     local map install kept losing epoch races"
                ));
            }
        }
        // Best-effort gossip to every other node, the target included (on
        // the re-derive and unknown-outcome paths the map it adopted may
        // be stale); routers bouncing off stale nodes learn the epoch on
        // their next refresh anyway.
        for ep in new_map.endpoints() {
            if ep != self.endpoint() {
                if let Ok(mut c) = TcpClient::connect(ep) {
                    let _ = c.migrate(MigrateOp::Install {
                        map: new_map.clone(),
                    });
                }
            }
        }
        // Retire the source's copy: unreachable through the new map, but
        // it would overcount local scans and pin memory. A crash here is
        // benign — the pairs are already fenced garbage either way.
        drop(flip_span);
        self.retire_range(&range_start, range_end.as_deref());
        Ok(MigrationReport {
            partition,
            moved_pairs,
            delta_pairs: d1 + d2,
            seal_ms,
            total_ms: t0.elapsed().as_millis() as u64,
            new_epoch: new_map.epoch,
        })
    }

    /// Pages `[start, end)` out of snapshot `snap` in `CHUNK`-sized acked
    /// `Put` batches. Fires the phase hook after every chunk, so a kill
    /// test can freeze the migration mid-bulk.
    fn copy_range(
        &self,
        client: &mut TcpClient,
        snap: u64,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<u64, String> {
        let mut cursor = start.to_vec();
        let mut moved = 0u64;
        loop {
            let pairs = self
                .service()
                .index()
                .scan_pairs_at(snap, &cursor, CHUNK)
                .ok_or_else(|| "snapshot scan unsupported or released".to_string())?;
            let scanned = pairs.len();
            let in_part: Vec<(Vec<u8>, u64)> = pairs
                .into_iter()
                .filter(|(k, _)| in_range(k, start, end))
                .collect();
            // Crossed the range end, or exhausted the whole index.
            let done = in_part.len() < scanned || scanned < CHUNK;
            if let Some((last, _)) = in_part.last() {
                // The scan is inclusive of its start key: resume from the
                // lexicographic successor (append one zero byte).
                cursor = last.clone();
                cursor.push(0);
            }
            if !in_part.is_empty() {
                moved += in_part.len() as u64;
                let batch: Vec<Request> = in_part
                    .into_iter()
                    .map(|(key, value)| Request::Put { key, value })
                    .collect();
                apply_batch(client, batch)?;
            }
            self.enter_phase(PHASE_BULK);
            if done {
                return Ok(moved);
            }
            std::thread::sleep(BULK_PACE);
        }
    }

    /// Removes every local pair in `[start, end)` after a completed
    /// handoff — and, on the target side, before accepting an import or
    /// after aborting one (a stale partial copy must never survive into a
    /// later successful flip). Best-effort: pages the range through a
    /// fresh snapshot (isolated from its own removals) and deletes
    /// directly on the index.
    pub(super) fn retire_range(&self, start: &[u8], end: Option<&[u8]>) {
        let index = self.service().index();
        let Some(snap) = index.snapshot() else { return };
        let mut cursor = start.to_vec();
        while let Some(pairs) = index.scan_pairs_at(snap, &cursor, CHUNK) {
            let scanned = pairs.len();
            let keys: Vec<Vec<u8>> = pairs
                .into_iter()
                .map(|(k, _)| k)
                .filter(|k| in_range(k, start, end))
                .collect();
            let done = keys.len() < scanned || scanned < CHUNK;
            if let Some(last) = keys.last() {
                cursor = last.clone();
                cursor.push(0);
            }
            for k in &keys {
                index.remove(k);
            }
            if done {
                break;
            }
        }
        index.release_snapshot(snap);
    }

    /// Replays `diff_pairs(a, b)` restricted to `[start, end)` on the
    /// target: additions/changes as `Put`, removals as `Delete`.
    fn apply_diff(
        &self,
        client: &mut TcpClient,
        a: u64,
        b: u64,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<u64, String> {
        let entries = self
            .service()
            .index()
            .diff_pairs(a, b)
            .ok_or_else(|| "snapshot diff unsupported or released".to_string())?;
        let batch: Vec<Request> = entries
            .into_iter()
            .filter(|(k, _, _)| in_range(k, start, end))
            .map(|(key, _old, new)| match new {
                Some(value) => Request::Put { key, value },
                None => Request::Delete { key },
            })
            .collect();
        let n = batch.len() as u64;
        for chunk in batch.chunks(CHUNK) {
            apply_batch(client, chunk.to_vec())?;
        }
        Ok(n)
    }
}
