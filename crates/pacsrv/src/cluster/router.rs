//! The map-caching smart router.
//!
//! A [`RouterClient`] bootstraps its [`PartitionMap`] from any reachable
//! seed node and thereafter routes every operation client-side: group the
//! batch by owning endpoint, scatter one wire batch to every owner, then
//! gather the replies and stitch them back into request order — a round
//! costs its slowest endpoint, not the sum. The map is refreshed only when a node
//! disagrees — a [`Response::WrongPartition`] bounce carries the node's
//! installed epoch, the router re-fetches (adopting the highest epoch any
//! node reports) and resends just the bounced slots. Bounced operations
//! were **not executed**, so the resend is safe even for writes.
//!
//! During a migration's seal window the source bounces at the *current*
//! epoch (the flip has not happened yet); the router backs off between
//! rounds so the handful of writes racing the seal land on the target
//! right after the flip instead of hot-looping.
//!
//! # Tracing
//!
//! The router is where a cross-node trace is rooted. Each [`call`]
//! stamps (or adopts, after [`set_trace`]) a context and records:
//!
//! * one `rpc_call` span per endpoint group, bracketing that group's own
//!   send-to-reply (siblings overlap in time) — the stitcher aligns that
//!   node's clock inside this bracket;
//! * a `map_refresh` span around every bounce-triggered refresh;
//! * a `bounce_resend` span around every retry round (backoff included),
//!   so resent work stays attributed to the original trace.
//!
//! The context put on the wire is the *router's* stamped context,
//! node-stamped via [`obsv::trace::TraceCtx::forwarded_to`] with the hop
//! counter bumped once per resend round — nodes keep a sampled incoming
//! context instead of re-stamping, which is what makes one trace id span
//! the whole fan-out.
//!
//! [`call`]: RouterClient::call
//! [`set_trace`]: RouterClient::set_trace

use std::collections::HashMap;
use std::io;
use std::time::Duration;

use obsv::clock;
use obsv::trace::{self, SpanKind, TraceCtx, TraceOutcome};

use crate::transport::TcpClient;
use crate::wire::{Frame, PartitionMap, Request, Response};

/// Routing rounds before giving up on a batch (each round after a bounce
/// refreshes the map and backs off exponentially, capped at 64ms).
const MAX_ATTEMPTS: u32 = 12;

/// One endpoint's share of a routing round, sent and not yet answered.
struct InFlight {
    ep: usize,
    slots: Vec<usize>,
    frame: Frame,
    _span: trace::DetachedSpan,
}

/// `map`'s distinct endpoints, sorted, and each `map.parts` entry's index
/// into them: routing groups by that dense index, not by endpoint string.
fn routing_index(map: &PartitionMap) -> (Vec<String>, Vec<usize>) {
    let eps: Vec<String> = map.endpoints().into_iter().map(String::from).collect();
    let part_ep = map
        .parts
        .iter()
        .map(|p| eps.binary_search(&p.endpoint).expect("listed above"))
        .collect();
    (eps, part_ep)
}

/// A cluster client that caches the partition map and routes per key.
pub struct RouterClient {
    map: PartitionMap,
    /// [`routing_index`] of `map`, rebuilt wherever `map` is assigned. An
    /// endpoint's position in `eps`, plus one, is its trace ordinal (stable
    /// while the membership is): the node stamp of forwarded contexts and
    /// the `rpc_call` span detail.
    eps: Vec<String>,
    part_ep: Vec<usize>,
    conns: HashMap<String, TcpClient>,
    seeds: Vec<String>,
    refreshes: u64,
    wrong_partition_seen: u64,
    retried_reads: u64,
    trace: TraceCtx,
}

impl RouterClient {
    /// Fetches the partition map from the first reachable seed.
    pub fn connect(seeds: &[String]) -> io::Result<RouterClient> {
        let mut last_err = None;
        for seed in seeds {
            let fetched =
                TcpClient::connect(seed.as_str()).and_then(|mut c| c.fetch_map().map(|m| (c, m)));
            match fetched {
                Ok((client, map)) => {
                    if let Err(e) = map.validate() {
                        last_err = Some(io::Error::new(io::ErrorKind::InvalidData, e));
                        continue;
                    }
                    let (eps, part_ep) = routing_index(&map);
                    return Ok(RouterClient {
                        map,
                        eps,
                        part_ep,
                        conns: HashMap::from([(seed.clone(), client)]),
                        seeds: seeds.to_vec(),
                        refreshes: 0,
                        wrong_partition_seen: 0,
                        retried_reads: 0,
                        trace: TraceCtx::UNTRACED,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, "no seed endpoints given")
        }))
    }

    /// The cached map's epoch.
    pub fn map_epoch(&self) -> u64 {
        self.map.epoch
    }

    /// The cached map.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Map refreshes performed (bootstrap excluded).
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// `WrongPartition` bounces observed.
    pub fn wrong_partition_seen(&self) -> u64 {
        self.wrong_partition_seen
    }

    /// Read batches that went through a transparent single-retry reconnect
    /// (`RetriedOnce` surfaced by [`TcpClient::call_idempotent`]).
    pub fn retried_reads(&self) -> u64 {
        self.retried_reads
    }

    /// Whether the router holds a connection to `ep`.
    pub fn connected_to(&self, ep: &str) -> bool {
        self.conns.contains_key(ep)
    }

    /// Trace context adopted by subsequent [`call`](Self::call)s instead
    /// of the router's own ambient-rate stamping. Use
    /// [`obsv::trace::stamp_forced`] to trace a specific batch across the
    /// whole cluster; reset with [`TraceCtx::UNTRACED`].
    pub fn set_trace(&mut self, ctx: TraceCtx) {
        self.trace = ctx;
    }

    /// The cached (or fresh) connection to `ep`.
    fn conn<'a>(
        conns: &'a mut HashMap<String, TcpClient>,
        ep: &str,
    ) -> io::Result<&'a mut TcpClient> {
        if !conns.contains_key(ep) {
            conns.insert(ep.to_string(), TcpClient::connect(ep)?);
        }
        Ok(conns.get_mut(ep).expect("just inserted"))
    }

    /// Re-fetches the map from every known endpoint (cached map's nodes
    /// plus the seeds) and adopts the highest valid epoch seen. `Ok(true)`
    /// if the epoch advanced; `Err` only if no endpoint was reachable.
    pub fn refresh_map(&mut self) -> io::Result<bool> {
        self.refresh_map_traced(TraceCtx::UNTRACED, 0)
    }

    /// [`refresh_map`](Self::refresh_map) under a trace context: the whole
    /// sweep is one `map_refresh` span (detail = the routing attempt that
    /// triggered it) and each `MapFetch` frame carries the forwarded
    /// context, so refreshes triggered inside a traced request stay
    /// attributed to it.
    fn refresh_map_traced(&mut self, ctx: TraceCtx, attempt: u32) -> io::Result<bool> {
        let (_span, child) = trace::span_ctx(ctx, SpanKind::MapRefresh, attempt);
        let mut candidates = self.eps.clone();
        candidates.extend(self.seeds.iter().cloned());
        candidates.sort_unstable();
        candidates.dedup();
        let mut best: Option<PartitionMap> = None;
        let mut reached = false;
        for ep in candidates {
            // 0: a seed the map no longer names.
            let ord = self.eps.binary_search(&ep).map_or(0, |i| i as u16 + 1);
            let Ok(conn) = Self::conn(&mut self.conns, &ep) else {
                continue;
            };
            conn.set_trace(child.forwarded_to(ord));
            match conn.fetch_map() {
                Ok(m) => {
                    reached = true;
                    if m.validate().is_ok() && best.as_ref().is_none_or(|b| m.epoch > b.epoch) {
                        best = Some(m);
                    }
                }
                Err(_) => {
                    // A stale connection is worthless; reconnect lazily.
                    self.conns.remove(&ep);
                }
            }
        }
        if !reached {
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "no cluster endpoint reachable for a map refresh",
            ));
        }
        self.refreshes += 1;
        let advanced = best.as_ref().is_some_and(|b| b.epoch > self.map.epoch);
        if let Some(b) = best.filter(|_| advanced) {
            (self.eps, self.part_ep) = routing_index(&b);
            self.map = b;
            // A connection to a non-seed endpoint that left the map only
            // pins a socket here and a handler thread on that node.
            let (eps, seeds) = (&self.eps, &self.seeds);
            self.conns
                .retain(|ep, _| eps.contains(ep) || seeds.contains(ep));
        }
        Ok(advanced)
    }

    /// Executes a batch against the cluster, routing each operation to its
    /// owner and resending `WrongPartition` bounces after a map refresh.
    /// Replies come back in request order. Keyless operations (`Snapshot`,
    /// `ReleaseSnapshot`) route to partition 0's owner — snapshots are
    /// per-node, so a caller wanting cluster-wide snapshot reads should
    /// talk to one node directly.
    ///
    /// # Partial execution on error
    ///
    /// A batch spanning several nodes is sent as one wire batch per node,
    /// all of a round's batches in flight at once. `Err` means one of
    /// those calls failed (the error names the endpoint) — but **any
    /// group of the round may have executed**, and its effects (including
    /// writes) stand; the responses are discarded with the error and every
    /// connection still owed a reply is dropped, so a later call never
    /// reads a stale one. This mirrors single-node semantics, where a
    /// transport error mid-call also leaves the batch's outcome unknown:
    /// on any `Err`, a caller that needs certainty must re-read. Callers
    /// wanting all-or-nothing dispatch should keep a batch within one
    /// partition.
    pub fn call(&mut self, reqs: Vec<Request>) -> io::Result<Vec<Response>> {
        // Adopt a forced context, else stamp at the ambient trace rate:
        // the router is the natural root of a cross-node trace.
        let ctx = if self.trace.is_sampled() {
            self.trace
        } else {
            trace::stamp()
        };
        let t0 = clock::now_ns();
        let out = self.call_routed(reqs, ctx);
        // The router owns the trace root unless the caller forwarded a
        // remote context (then whoever stamped it finishes it).
        if !ctx.is_remote() {
            trace::finish_root(
                ctx,
                t0,
                if out.is_ok() {
                    TraceOutcome::Ok
                } else {
                    TraceOutcome::Error
                },
            );
        }
        out
    }

    fn call_routed(&mut self, reqs: Vec<Request>, ctx: TraceCtx) -> io::Result<Vec<Response>> {
        let n = reqs.len();
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<(usize, Request)> = reqs.into_iter().enumerate().collect();
        for attempt in 0..MAX_ATTEMPTS {
            if pending.is_empty() {
                break;
            }
            // Resend rounds are one `bounce_resend` span each — backoff
            // and refresh included, so the root's wall time stays covered.
            let (_round, round_ctx) = if attempt > 0 {
                let (guard, round_ctx) = trace::span_ctx(ctx, SpanKind::BounceResend, attempt);
                // A bounce during a seal window clears only after the
                // flip: back off, then chase the new epoch.
                std::thread::sleep(Duration::from_millis(2u64 << attempt.min(5)));
                let _ = self.refresh_map_traced(round_ctx, attempt);
                (guard, round_ctx)
            } else {
                (
                    trace::span(TraceCtx::UNTRACED, SpanKind::BounceResend, 0),
                    ctx,
                )
            };
            let mut groups: Vec<(Vec<usize>, Vec<Request>)> = Vec::new();
            groups.resize_with(self.eps.len(), Default::default);
            for (slot, req) in pending.drain(..) {
                let group = &mut groups[self.part_ep[self.map.owner_index(req.key())]];
                group.0.push(slot);
                group.1.push(req);
            }
            // Scatter: every frame goes out before any reply is awaited.
            let mut flights: Vec<InFlight> = Vec::with_capacity(groups.len());
            for (ep, (slots, batch)) in groups.into_iter().enumerate() {
                if slots.is_empty() {
                    continue;
                }
                let ord = ep as u16 + 1;
                // The rpc_call span is the send-to-reply clock bracket the
                // stitcher aligns this node's spans inside; the wire
                // context is node-stamped with the hop bumped once per
                // resend round (bounce continuity: a resent op carries the
                // original trace id, never a fresh stamp).
                let (_span, child) = trace::span_detached(round_ctx, SpanKind::RpcCall, ord as u32);
                let mut wire_ctx = child.forwarded_to(ord);
                wire_ctx.hop = wire_ctx.hop.saturating_add(attempt.min(250) as u8);
                let sent = Self::conn(&mut self.conns, &self.eps[ep]).and_then(|conn| {
                    conn.set_trace(wire_ctx);
                    let frame = conn.request(batch);
                    conn.send_request(&frame).map(|()| frame)
                });
                match sent {
                    Ok(frame) => flights.push(InFlight {
                        ep,
                        slots,
                        frame,
                        _span,
                    }),
                    Err(e) => return Err(self.fail(ep, flights, e)),
                }
            }
            // Gather, in group order.
            let mut flights = flights.into_iter();
            while let Some(f) = flights.next() {
                // Writes must surface transport errors — the op may or
                // may not have executed.
                let conn = self.conns.get_mut(&self.eps[f.ep]).expect("sent on it");
                let (resps, retried) = match conn.recv_replies(&f.frame) {
                    Ok(r) => r,
                    Err(e) => {
                        let ep = f.ep;
                        return Err(self.fail(ep, std::iter::once(f).chain(flights), e));
                    }
                };
                self.retried_reads += u64::from(retried);
                let Frame::Request { reqs: sent, .. } = f.frame else {
                    unreachable!("TcpClient::request builds a Request frame")
                };
                if resps.len() != sent.len() {
                    let e = io::Error::new(io::ErrorKind::InvalidData, "reply length mismatch");
                    return Err(self.fail(f.ep, flights, e));
                }
                for ((slot, req), resp) in f.slots.into_iter().zip(sent).zip(resps) {
                    match resp {
                        Response::WrongPartition { .. } => {
                            // Not executed: safe to resend once the map
                            // catches up.
                            self.wrong_partition_seen += 1;
                            pending.push((slot, req));
                        }
                        r => out[slot] = Some(r),
                    }
                }
            }
        }
        if !pending.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "partition map did not converge (ops still bouncing)",
            ));
        }
        Ok(out.into_iter().map(|r| r.expect("slot filled")).collect())
    }

    /// The round's error, naming endpoint `ep`. Evicts the connection of
    /// every flight in `unread` — sent a frame, reply not fully read — so
    /// no later call reads a stale reply and fails its id check.
    fn fail(
        &mut self,
        ep: usize,
        unread: impl IntoIterator<Item = InFlight>,
        e: io::Error,
    ) -> io::Error {
        for f in unread {
            self.conns.remove(&self.eps[f.ep]);
        }
        let ep = &self.eps[ep];
        io::Error::new(
            e.kind(),
            format!("cluster call to {ep} failed (operations routed to other nodes in this batch may have executed): {e}"),
        )
    }

    /// Routes a range scan across partitions: starts at the owner of
    /// `start` and, while the count is unsatisfied and that node's data is
    /// exhausted, continues from the next partition boundary. Exact when
    /// every node's owned partitions are contiguous in key order (always
    /// true for `split_u64` maps and single-partition migrations); a node
    /// owning disjoint ranges may count pairs from its later range early,
    /// because the server-side scan is count-bounded, not range-bounded.
    pub fn scan(&mut self, start: &[u8], count: u32) -> io::Result<u32> {
        let mut total = 0u32;
        let mut cursor = start.to_vec();
        loop {
            let remaining = count - total;
            if remaining == 0 {
                return Ok(total);
            }
            let owner_id = self.map.owner_of(&cursor).id;
            let resps = self.call(vec![Request::Scan {
                start: cursor.clone(),
                count: remaining,
            }])?;
            match resps[0] {
                Response::ScanCount(got) => total += got.min(remaining),
                ref other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected scan reply: {other:?}"),
                    ));
                }
            }
            // This owner ran out of local pairs; hop to the next
            // partition's range (if any) owned by a different node.
            let mut next = None;
            let mut id = owner_id;
            while let Some(end) = self.map.end_of(id) {
                let end = end.to_vec();
                let p = self.map.owner_of(&end);
                if p.endpoint != self.map.partition(owner_id).expect("owner exists").endpoint {
                    next = Some(end);
                    break;
                }
                id = p.id;
            }
            match next {
                Some(boundary) if total < count => cursor = boundary,
                _ => return Ok(total),
            }
        }
    }
}
