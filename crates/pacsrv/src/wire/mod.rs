//! The pacsrv binary wire codec.
//!
//! One frame = a 20-byte header plus a length-prefixed payload. All
//! integers are little-endian.
//!
//! | offset | size | field                                                  |
//! |--------|------|--------------------------------------------------------|
//! | 0      | 2    | magic `0xAC51`                                         |
//! | 2      | 1    | protocol version: [`VERSION`], anything else is refused |
//! | 3      | 1    | frame kind (the payload sections below)                |
//! | 4      | 8    | correlation id (echoed verbatim in the reply)          |
//! | 12     | 4    | payload length in bytes (at most [`MAX_PAYLOAD`])      |
//! | 16     | 4    | CRC32 over bytes `0..16` plus the payload              |
//! | 20     | n    | payload                                                |
//!
//! Payload fields: a *key* is a `u16` length plus that many bytes; a
//! *string* is a key whose bytes are UTF-8; a *trace block* is the 16-byte
//! [`TraceCtx`] the receiver records spans under — `trace_id: u64`,
//! `parent_span: u32`, `flags: u8` (bit 0 = sampled), `node: u16` (whose
//! spans the context attributes to: the router stamps each fan-out copy
//! with the target endpoint's 1-based ordinal), `hop: u8` (network hops
//! taken; bumped per bounce resend). Bytes left over after a payload's
//! last field make it malformed.
//!
//! ## `Request` (kind 1) and `Reply` (kind 2)
//!
//! A request is a trace block, a `u32` operation count (at most
//! [`MAX_BATCH`]) and that many operations; the reply is a `u32` count and
//! one status per operation, in operation order. Batching is therefore
//! first-class: a frame with `count > 1` is the batch.
//!
//! | op tag | [`Request`]       | fields after the tag                    |
//! |--------|-------------------|-----------------------------------------|
//! | 1      | `Get`             | key                                     |
//! | 2      | `Put`             | key, `value: u64`                       |
//! | 3      | `Delete`          | key                                     |
//! | 4      | `Scan`            | start key, `count: u32`                 |
//! | 5      | `Snapshot`        | —                                       |
//! | 6      | `ScanAt`          | `snap: u64`, start key, `count: u32`    |
//! | 7      | `ReleaseSnapshot` | `snap: u64`                             |
//!
//! | status tag | [`Response`]                             | fields        |
//! |------------|------------------------------------------|---------------|
//! | 1          | `Ok`                                     | —             |
//! | 2 / 3      | `Value(Some(v))` / `Value(None)`         | `v: u64` / —  |
//! | 4 / 5      | `Removed(Some(v))` / `Removed(None)`     | `v: u64` / —  |
//! | 6          | `ScanCount`                              | `n: u32`      |
//! | 7, 8       | `Overloaded`, `DeadlineExceeded`         | —             |
//! | 9, 10      | `Malformed`, `Aborted`                   | —             |
//! | 11         | `Snapshot`                               | `id: u64`     |
//! | 12         | `Released`                               | `0` or `1`    |
//! | 13         | `UnknownSnapshot`                        | —             |
//! | 14         | `WrongPartition`                         | `map_epoch: u64` |
//!
//! ## `Ping` (kind 3) and `Pong` (kind 4)
//!
//! Liveness probe and answer; both payloads are empty.
//!
//! ## Kinds 5 to 8: retired
//!
//! Kinds 5 and 6 carried a JSON stats document and 7 and 8 a Prometheus
//! scrape; the plain-HTTP health listener serves both instead
//! (`GET /metrics`, `GET /spans`). They decode as an unknown kind and are
//! never reassigned, so no frame from an older build means something else.
//!
//! ## `MapFetch` (kind 9) and `MapReply` (kind 10)
//!
//! A router bootstraps or refreshes its cached [`PartitionMap`] from any
//! node. The fetch is a trace block, so a refresh made in the middle of a
//! traced request records under that request's trace. The reply is the
//! map: `epoch: u64`, a `u32` partition count (at most [`MAX_PARTS`]),
//! then per partition `id: u32`, start key, endpoint string.
//!
//! ## `Migrate` (kind 11) and `MigrateReply` (kind 12)
//!
//! The migration control plane: a trace block (the source node records its
//! migration-phase spans under the initiator's trace), then one
//! [`MigrateOp`]; answered with `ok: u8` (0 or 1) and a detail string.
//!
//! | op tag | [`MigrateOp`] | fields after the tag               |
//! |--------|---------------|------------------------------------|
//! | 1      | `Start`       | `partition: u32`, target string    |
//! | 2      | `ImportBegin` | `partition: u32`                   |
//! | 3      | `ImportEnd`   | `partition: u32`, map              |
//! | 4      | `Install`     | map                                |
//! | 5      | `ImportAbort` | `partition: u32`                   |

mod control;
mod data;
mod frame;
#[cfg(test)]
mod tests;

pub use frame::{crc32, decode_frame, encode_frame};

use obsv::trace::TraceCtx;

/// The protocol version: the only one this build encodes or accepts.
pub const VERSION: u8 = 4;

/// Frame magic (bytes `0x51 0xAC` on the wire).
pub const MAGIC: u16 = 0xAC51;

/// Header bytes before the payload.
pub const HEADER_LEN: usize = 20;

/// Upper bound on a payload: a decoder must be able to reject a corrupt
/// length field without attempting a giant allocation.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Upper bound on operations per frame.
pub const MAX_BATCH: usize = 1 << 16;

/// Upper bound on partitions in a wire-encoded [`PartitionMap`]: a decoder
/// must be able to reject a corrupt count without a giant allocation.
pub const MAX_PARTS: usize = 4096;

/// One entry of a [`PartitionMap`]: the half-open key range
/// `[start, next.start)` (the last partition is unbounded above) owned by
/// the node at `endpoint`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Stable partition id — survives ownership changes.
    pub id: u32,
    /// Inclusive lower bound of the partition's key range; the first
    /// partition's start is the empty key.
    pub start: Vec<u8>,
    /// `host:port` of the owning node's wire listener.
    pub endpoint: String,
}

/// A versioned assignment of the whole key space to node endpoints.
///
/// Entries are sorted by `start`; the key `k` belongs to the last
/// partition with `start <= k`. The `epoch` increments on every ownership
/// change and fences stale routers: a node answering `WrongPartition`
/// reports its epoch so the router knows whether refreshing can help.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionMap {
    pub epoch: u64,
    pub parts: Vec<Partition>,
}

/// A migration control operation (`Migrate` frame payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MigrateOp {
    /// Sent to the **source** node: move `partition` to the node at
    /// `target`, driving the whole bulk/delta/seal/flip state machine.
    Start { partition: u32, target: String },
    /// Source → target: accept writes for `partition` from now on (the
    /// bulk copy and delta replay arrive as ordinary `Put`/`Delete`).
    ImportBegin { partition: u32 },
    /// Source → target: the handoff is complete; adopt `map` (whose epoch
    /// names the target as the new owner) and drop import mode.
    ImportEnd { partition: u32, map: PartitionMap },
    /// Source → target: the migration failed before the handoff committed;
    /// drop import mode and discard the partial copy of the partition's
    /// range (it is fenced garbage a later retry must not resurrect).
    ImportAbort { partition: u32 },
    /// Best-effort map gossip to any node: adopt `map` if its epoch is
    /// newer than the locally installed one.
    Install { map: PartitionMap },
}

/// One client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get { key: Vec<u8> },
    /// Upsert.
    Put { key: Vec<u8>, value: u64 },
    /// Delete.
    Delete { key: Vec<u8> },
    /// Range scan of up to `count` pairs from `start`.
    Scan { start: Vec<u8>, count: u32 },
    /// Capture an O(1) point-in-time view of the index.
    Snapshot,
    /// Range scan served from a captured view instead of the live index:
    /// snapshot-isolated from concurrent writers.
    ScanAt {
        snap: u64,
        start: Vec<u8>,
        count: u32,
    },
    /// Release a captured view so its pinned epochs and frozen nodes can
    /// be reclaimed.
    ReleaseSnapshot { snap: u64 },
}

impl Request {
    /// The key the request routes by (scans route by their start key;
    /// snapshot lifecycle ops carry no key and route to a fixed shard).
    pub fn key(&self) -> &[u8] {
        match self {
            Request::Get { key } | Request::Put { key, .. } | Request::Delete { key } => key,
            Request::Scan { start, .. } | Request::ScanAt { start, .. } => start,
            Request::Snapshot | Request::ReleaseSnapshot { .. } => &[],
        }
    }
}

/// One per-operation reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Response {
    /// Put acknowledged (the write is durable in the index).
    Ok,
    /// Get result.
    Value(Option<u64>),
    /// Delete result (the removed value, if the key existed).
    Removed(Option<u64>),
    /// Number of pairs a scan observed.
    ScanCount(u32),
    /// Shed at admission: queue full or service not running. The
    /// operation was never executed; the client may retry with backoff.
    Overloaded,
    /// The operation's deadline passed while it sat in a queue; it was
    /// dropped without executing.
    DeadlineExceeded,
    /// The server was killed while the operation sat in a queue; it was
    /// never executed. Distinct from `Overloaded` so a client can tell
    /// "retry with backoff" from "the server is gone".
    Aborted,
    /// The server could not decode the operation.
    Malformed,
    /// A captured view's id, answering [`Request::Snapshot`].
    Snapshot(u64),
    /// Whether a [`Request::ReleaseSnapshot`] found and released its view.
    Released(bool),
    /// A [`Request::ScanAt`] named a snapshot id that was never issued or
    /// was already released. The operation executed; there was simply no
    /// view to serve it from.
    UnknownSnapshot,
    /// The node does not own the key's partition under the partition map
    /// epoch it reports. Like `Overloaded`, the operation was **never
    /// executed**: the client should refresh its map (at least to
    /// `map_epoch`) and re-route — resending is safe, even for writes.
    WrongPartition { map_epoch: u64 },
}

impl Response {
    /// Whether this reply means the operation executed against the index.
    pub fn executed(&self) -> bool {
        !matches!(
            self,
            Response::Overloaded
                | Response::DeadlineExceeded
                | Response::Aborted
                | Response::Malformed
                | Response::WrongPartition { .. }
        )
    }
}

/// A decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A batch of operations to execute in order. `trace` is the request's
    /// trace context ([`TraceCtx::UNTRACED`] when nobody is tracing: the
    /// service then stamps its own, exactly as for local submissions).
    Request {
        id: u64,
        trace: TraceCtx,
        reqs: Vec<Request>,
    },
    /// The batch's replies, one per operation, in operation order.
    Reply { id: u64, resps: Vec<Response> },
    /// Liveness probe.
    Ping { id: u64 },
    /// Liveness answer.
    Pong { id: u64 },
    /// Partition-map fetch request. `trace` ties a router's mid-request
    /// map refresh to the request's trace ([`TraceCtx::UNTRACED`] for
    /// untraced control traffic).
    MapFetch { id: u64, trace: TraceCtx },
    /// The node's currently installed partition map.
    MapReply { id: u64, map: PartitionMap },
    /// A migration control operation. `trace` lets the source node record
    /// its migration-phase spans under the initiator's trace.
    Migrate {
        id: u64,
        trace: TraceCtx,
        op: MigrateOp,
    },
    /// The migration answer: success plus a human/machine detail string.
    MigrateReply { id: u64, ok: bool, detail: String },
}

impl Frame {
    /// The correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Frame::Request { id, .. }
            | Frame::Reply { id, .. }
            | Frame::Ping { id }
            | Frame::Pong { id }
            | Frame::MapFetch { id, .. }
            | Frame::MapReply { id, .. }
            | Frame::Migrate { id, .. }
            | Frame::MigrateReply { id, .. } => *id,
        }
    }
}

/// Why a buffer failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Not enough bytes yet; `need` more would allow progress. Stream
    /// transports keep reading; datagram-style callers treat it as a
    /// truncated frame.
    Incomplete { need: usize },
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// The version byte is not [`VERSION`].
    BadVersion { got: u8 },
    /// The CRC32 did not match: the frame was corrupted in flight.
    BadChecksum,
    /// Structurally invalid (unknown kind/op tag, length field out of
    /// bounds, payload/count mismatch).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Incomplete { need } => write!(f, "incomplete frame: need {need} more bytes"),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::BadVersion { got } => write!(f, "unsupported version {got}"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}
