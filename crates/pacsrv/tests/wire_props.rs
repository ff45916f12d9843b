//! Property tests for the wire codec: round-trip identity, truncation and
//! single-bit corruption rejection over randomized frames of every kind,
//! and hostile payloads behind a valid header and checksum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use obsv::trace::TraceCtx;
use pacsrv::wire::{
    crc32, decode_frame, encode_frame, Frame, MigrateOp, Partition, PartitionMap, Request,
    Response, WireError, HEADER_LEN, MAGIC, VERSION,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Materializes a trace context from a generated raw tuple.
fn build_trace((trace_id, parent_span, sampled, node, hop): (u64, u32, bool, u16, u8)) -> TraceCtx {
    TraceCtx {
        trace_id,
        parent_span,
        sampled,
        node,
        hop,
    }
}

/// Materializes a request list from generated raw tuples.
fn build_requests(raw: Vec<(u8, Vec<u8>, u64)>) -> Vec<Request> {
    raw.into_iter()
        .map(|(op, key, value)| match op % 7 {
            0 => Request::Get { key },
            1 => Request::Put { key, value },
            2 => Request::Delete { key },
            3 => Request::Scan {
                start: key,
                count: (value % 10_000) as u32,
            },
            4 => Request::Snapshot,
            5 => Request::ScanAt {
                snap: value,
                start: key,
                count: (value % 10_000) as u32,
            },
            _ => Request::ReleaseSnapshot { snap: value },
        })
        .collect()
}

/// Materializes a response list from generated raw tuples.
fn build_responses(raw: Vec<(u8, u64, bool)>) -> Vec<Response> {
    raw.into_iter()
        .map(|(tag, v, some)| {
            let opt = if some { Some(v) } else { None };
            match tag % 13 {
                0 => Response::Ok,
                1 => Response::Value(opt),
                2 => Response::Removed(opt),
                3 => Response::ScanCount((v % 100_000) as u32),
                4 => Response::Overloaded,
                5 => Response::DeadlineExceeded,
                6 => Response::Aborted,
                7 => Response::Malformed,
                8 => Response::Snapshot(v),
                9 => Response::Released(some),
                10 => Response::UnknownSnapshot,
                11 => Response::Failed,
                _ => Response::WrongPartition { map_epoch: v },
            }
        })
        .collect()
}

/// Maps arbitrary bytes onto a printable ASCII string (the vendored
/// proptest has no string strategies).
fn ascii(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b'!' + (b % 94)) as char).collect()
}

/// Materializes a partition map from generated raw parts. The codec does
/// not validate map semantics (sortedness, coverage) — that is
/// `PartitionMap::validate`'s job at install time — so arbitrary parts
/// must round-trip.
fn build_map(epoch: u64, raw: Vec<(Vec<u8>, Vec<u8>)>) -> PartitionMap {
    let parts = raw
        .into_iter()
        .enumerate()
        .map(|(i, (start, endpoint))| Partition {
            id: i as u32,
            start,
            endpoint: ascii(&endpoint),
        })
        .collect();
    PartitionMap { epoch, parts }
}

/// Materializes a migration control op from generated raw parts.
fn build_op(tag: u8, partition: u32, target: &[u8], map: PartitionMap) -> MigrateOp {
    match tag % 5 {
        0 => MigrateOp::Start {
            partition,
            target: ascii(target),
        },
        1 => MigrateOp::ImportBegin { partition },
        2 => MigrateOp::ImportEnd { partition, map },
        3 => MigrateOp::ImportAbort { partition },
        _ => MigrateOp::Install { map },
    }
}

/// Materializes a frame of any of the eight kinds from one bag of raw
/// parts (keys double as map starts, endpoints and detail text).
fn build_frame(kind: u8, id: u64, trace: TraceCtx, raw: Vec<(u8, Vec<u8>, u64)>) -> Frame {
    let text = ascii(&raw.iter().flat_map(|r| r.1.clone()).collect::<Vec<u8>>());
    let map = build_map(id, raw.iter().map(|r| (r.1.clone(), r.1.clone())).collect());
    match kind % 8 {
        0 => Frame::Request {
            id,
            trace,
            reqs: build_requests(raw),
        },
        1 => Frame::Reply {
            id,
            resps: build_responses(
                raw.iter()
                    .map(|r| (r.0, r.2, r.2.is_multiple_of(2)))
                    .collect(),
            ),
        },
        2 => Frame::Ping { id },
        3 => Frame::Pong { id },
        4 => Frame::MapFetch { id, trace },
        5 => Frame::MapReply { id, map },
        6 => Frame::Migrate {
            id,
            trace,
            op: build_op(raw[0].0, id as u32, text.as_bytes(), map),
        },
        _ => Frame::MigrateReply {
            id,
            ok: id.is_multiple_of(2),
            detail: text,
        },
    }
}

/// Wraps `payload` in a valid header and checksum, so decoding gets past
/// the frame checks and into the payload fields.
fn wrap(kind: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&[VERSION, kind]);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32(&[&buf, payload]);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Records the largest single allocation, so a property can show that a
/// rejected frame never reserved memory in proportion to a count it claimed.
struct PeakAlloc;

static PEAK: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

// SAFETY: every operation is `System`'s; the bookkeeping is one atomic.
// `realloc` and `alloc_zeroed` keep their defaults, which call `alloc`.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller keeps `alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller keeps `dealloc`'s contract, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_frames_round_trip(
        id in any::<u64>(),
        raw_trace in (any::<u64>(), any::<u32>(), any::<bool>(), any::<u16>(), any::<u8>()),
        raw in vec((any::<u8>(), vec(any::<u8>(), 0..40), any::<u64>()), 0..24),
    ) {
        let trace = build_trace(raw_trace);
        let frame = Frame::Request { id, trace, reqs: build_requests(raw) };
        let mut buf = Vec::new();
        let n = encode_frame(&frame, &mut buf);
        prop_assert_eq!(n, buf.len());
        let (decoded, consumed) = decode_frame(&buf).expect("round trip");
        prop_assert_eq!(consumed, n);
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn reply_frames_round_trip(
        id in any::<u64>(),
        raw in vec((any::<u8>(), any::<u64>(), any::<bool>()), 0..48),
    ) {
        let frame = Frame::Reply { id, resps: build_responses(raw) };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let (decoded, consumed) = decode_frame(&buf).expect("round trip");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, frame);
    }

    /// A frame of any kind cut anywhere short of its end asks for exactly
    /// the missing bytes.
    #[test]
    fn truncated_frames_ask_for_more(
        kind in any::<u8>(),
        id in any::<u64>(),
        raw_trace in (any::<u64>(), any::<u32>(), any::<bool>(), any::<u16>(), any::<u8>()),
        raw in vec((any::<u8>(), vec(any::<u8>(), 0..24), any::<u64>()), 1..12),
        cut_seed in any::<u64>(),
    ) {
        let mut buf = Vec::new();
        let n = encode_frame(&build_frame(kind, id, build_trace(raw_trace), raw), &mut buf);
        let cut = (cut_seed % n as u64) as usize;
        match decode_frame(&buf[..cut]) {
            Err(WireError::Incomplete { need }) => {
                prop_assert!(need > 0);
                // `need` never asks past the true frame end once the
                // header is visible; before that it asks for the header.
                if cut >= HEADER_LEN {
                    prop_assert_eq!(cut + need, n);
                } else {
                    prop_assert_eq!(cut + need, HEADER_LEN);
                }
            }
            other => panic!("truncated frame at {cut}/{n} decoded as {other:?}"),
        }
    }

    #[test]
    fn corrupted_frames_never_decode(
        kind in any::<u8>(),
        id in any::<u64>(),
        raw_trace in (any::<u64>(), any::<u32>(), any::<bool>(), any::<u16>(), any::<u8>()),
        raw in vec((any::<u8>(), vec(any::<u8>(), 0..24), any::<u64>()), 1..12),
        flip in (any::<u64>(), 0..8u32),
    ) {
        let mut buf = Vec::new();
        let n = encode_frame(&build_frame(kind, id, build_trace(raw_trace), raw), &mut buf);
        let (pos, bit) = ((flip.0 % n as u64) as usize, flip.1);
        buf[pos] ^= 1 << bit;
        // A single flipped bit must never yield a successful decode:
        // magic/version/structure checks or the CRC must catch it (a flip
        // that grows the length field parks as Incomplete, which a stream
        // transport treats as "wait for bytes that never come").
        prop_assert!(decode_frame(&buf).is_err(), "bit {bit} at byte {pos} went undetected");
    }

    /// Arbitrary payload bytes behind a valid header and checksum — the
    /// bytes a corruption property never gets past the CRC — decode or are
    /// refused as malformed; nothing panics.
    #[test]
    fn hostile_payloads_never_panic(
        kind in any::<u8>(),
        id in any::<u64>(),
        payload in vec(any::<u8>(), 0..512),
    ) {
        // `kind % 13` keeps most cases on kinds that have a payload codec.
        for kind in [kind, kind % 13] {
            let buf = wrap(kind, id, &payload);
            match decode_frame(&buf) {
                Ok((frame, n)) => prop_assert_eq!((frame.id(), n), (id, buf.len())),
                Err(WireError::Malformed(_)) => {}
                Err(other) => panic!("kind {kind}: intact frame refused with {other:?}"),
            }
        }
    }

    /// A count field claiming `u32::MAX` entries over a short payload is
    /// refused before anything is reserved for the entries it claims.
    #[test]
    fn hostile_counts_reserve_nothing(id in any::<u64>(), tail in vec(any::<u8>(), 0..64)) {
        // (kind, bytes before the count): request ops after the trace
        // block, reply statuses, the two documents, a map's partitions
        // after its epoch, and the maps inside ImportEnd and Install.
        let import_end = [&[0u8; 16][..], &[3, 0, 0, 0, 0], &[0; 8]].concat();
        let install = [&[0u8; 16][..], &[4], &[0; 8]].concat();
        let sites: [(u8, &[u8]); 7] = [
            (1, &[0; 16]), (2, &[]), (6, &[]), (8, &[]), (10, &[0; 8]),
            (11, &import_end), (11, &install),
        ];
        for (kind, prefix) in sites {
            let payload = [prefix, &u32::MAX.to_le_bytes(), &tail].concat();
            let buf = wrap(kind, id, &payload);
            PEAK.store(0, Ordering::Relaxed);
            let got = decode_frame(&buf);
            let peak = PEAK.load(Ordering::Relaxed);
            prop_assert!(matches!(got, Err(WireError::Malformed(_))), "kind {kind}: {got:?}");
            prop_assert!(peak < 1 << 20, "kind {kind}: a {peak}-byte allocation");
        }
    }

    /// `MapFetch`/`MapReply` round-trip for arbitrary maps, including
    /// empty ones and unsorted/duplicate parts (the codec carries, the
    /// installer validates). The fetch's trace block round-trips for
    /// arbitrary contexts.
    #[test]
    fn v4_map_frames_round_trip(
        id in any::<u64>(),
        epoch in any::<u64>(),
        raw_trace in (any::<u64>(), any::<u32>(), any::<bool>(), any::<u16>(), any::<u8>()),
        raw in vec((vec(any::<u8>(), 0..24), vec(any::<u8>(), 0..16)), 0..12),
    ) {
        let fetch = Frame::MapFetch { id, trace: build_trace(raw_trace) };
        let mut buf = Vec::new();
        let n = encode_frame(&fetch, &mut buf);
        let (decoded, consumed) = decode_frame(&buf).expect("map fetch");
        prop_assert_eq!(consumed, n);
        prop_assert_eq!(decoded, fetch);

        let reply = Frame::MapReply { id, map: build_map(epoch, raw) };
        let mut buf = Vec::new();
        let n = encode_frame(&reply, &mut buf);
        let (decoded, consumed) = decode_frame(&buf).expect("map reply");
        prop_assert_eq!(consumed, n);
        prop_assert_eq!(decoded, reply);
    }

    /// `Migrate`/`MigrateReply` round-trip for every control op, with an
    /// arbitrary trace block.
    #[test]
    fn v4_migrate_frames_round_trip(
        id in any::<u64>(),
        tag in any::<u8>(),
        partition in any::<u32>(),
        target in vec(any::<u8>(), 0..24),
        epoch in any::<u64>(),
        raw_trace in (any::<u64>(), any::<u32>(), any::<bool>(), any::<u16>(), any::<u8>()),
        raw in vec((vec(any::<u8>(), 0..16), vec(any::<u8>(), 0..12)), 0..8),
        ok in any::<bool>(),
        detail in vec(any::<u8>(), 0..48),
    ) {
        let frame = Frame::Migrate { id, trace: build_trace(raw_trace), op: build_op(tag, partition, &target, build_map(epoch, raw)) };
        let mut buf = Vec::new();
        let n = encode_frame(&frame, &mut buf);
        let (decoded, consumed) = decode_frame(&buf).expect("migrate");
        prop_assert_eq!(consumed, n);
        prop_assert_eq!(decoded, frame);

        let reply = Frame::MigrateReply { id, ok, detail: ascii(&detail) };
        let mut buf = Vec::new();
        encode_frame(&reply, &mut buf);
        let (decoded, _) = decode_frame(&buf).expect("migrate reply");
        prop_assert_eq!(decoded, reply);
    }

    /// `WrongPartition` mixes into reply batches and round-trips its epoch.
    #[test]
    fn v4_wrong_partition_round_trips(
        id in any::<u64>(),
        raw in vec((any::<u8>(), any::<u64>(), any::<bool>()), 0..24),
        epochs in vec(any::<u64>(), 1..8),
    ) {
        let mut resps = build_responses(raw);
        for e in epochs {
            resps.push(Response::WrongPartition { map_epoch: e });
        }
        let frame = Frame::Reply { id, resps };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let (decoded, consumed) = decode_frame(&buf).expect("round trip");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, frame);
    }
}
