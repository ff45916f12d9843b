use super::frame::{put_u32, put_u64};
use super::*;

fn roundtrip(frame: Frame) {
    let mut buf = Vec::new();
    let n = encode_frame(&frame, &mut buf);
    assert_eq!(n, buf.len());
    assert_eq!(decode_frame(&buf), Ok((frame, n)));
}

#[test]
fn roundtrip_every_frame_kind() {
    roundtrip(Frame::Ping { id: 7 });
    roundtrip(Frame::Pong { id: u64::MAX });
    roundtrip(Frame::Request {
        id: 1,
        trace: TraceCtx::UNTRACED,
        reqs: vec![
            Request::Get {
                key: b"k1".to_vec(),
            },
            Request::Put {
                key: vec![],
                value: u64::MAX,
            },
            Request::Delete {
                key: vec![0xFF; 300],
            },
            Request::Scan {
                start: b"a".to_vec(),
                count: 100,
            },
        ],
    });
    roundtrip(Frame::Reply {
        id: 2,
        resps: vec![
            Response::Ok,
            Response::Value(Some(0)),
            Response::Value(None),
            Response::Removed(Some(9)),
            Response::Removed(None),
            Response::ScanCount(42),
            Response::Overloaded,
            Response::DeadlineExceeded,
            Response::Aborted,
            Response::Malformed,
        ],
    });
}

#[test]
#[should_panic(expected = "u16 limit")]
fn encode_rejects_oversize_key() {
    let mut buf = Vec::new();
    encode_frame(
        &Frame::Request {
            id: 1,
            trace: TraceCtx::UNTRACED,
            reqs: vec![Request::Get {
                key: vec![0; u16::MAX as usize + 1],
            }],
        },
        &mut buf,
    );
}

#[test]
#[should_panic(expected = "MAX_BATCH")]
fn encode_rejects_oversize_batch() {
    let mut buf = Vec::new();
    encode_frame(
        &Frame::Request {
            id: 1,
            trace: TraceCtx::UNTRACED,
            reqs: vec![Request::Get { key: vec![] }; MAX_BATCH + 1],
        },
        &mut buf,
    );
}

#[test]
fn two_frames_back_to_back() {
    let mut buf = Vec::new();
    encode_frame(&Frame::Ping { id: 1 }, &mut buf);
    let n1 = buf.len();
    encode_frame(
        &Frame::Request {
            id: 2,
            trace: TraceCtx::UNTRACED,
            reqs: vec![Request::Get { key: b"x".to_vec() }],
        },
        &mut buf,
    );
    assert_eq!(decode_frame(&buf), Ok((Frame::Ping { id: 1 }, n1)));
    let (f2, n2) = decode_frame(&buf[n1..]).unwrap();
    assert_eq!(f2.id(), 2);
    assert_eq!(n1 + n2, buf.len());
}

#[test]
fn rejects_corruption_truncation_and_bad_header() {
    let mut buf = Vec::new();
    encode_frame(
        &Frame::Request {
            id: 3,
            trace: TraceCtx::UNTRACED,
            reqs: vec![Request::Put {
                key: b"key".to_vec(),
                value: 11,
            }],
        },
        &mut buf,
    );
    // Truncation at every length short of the full frame.
    for cut in 0..buf.len() {
        assert!(
            matches!(decode_frame(&buf[..cut]), Err(WireError::Incomplete { .. })),
            "cut={cut}"
        );
    }
    // Any single flipped payload byte trips the checksum.
    for i in HEADER_LEN..buf.len() {
        let mut bad = buf.clone();
        bad[i] ^= 0x40;
        assert_eq!(decode_frame(&bad), Err(WireError::BadChecksum), "byte {i}");
    }
    // Bad magic and every version byte other than VERSION are rejected
    // before the checksum runs (the stored CRC no longer matches either).
    let mut bad = buf.clone();
    bad[0] = 0;
    assert_eq!(decode_frame(&bad), Err(WireError::BadMagic));
    for got in [0, 1, 2, 3, 5, 255] {
        let mut bad = buf.clone();
        bad[2] = got;
        assert_eq!(decode_frame(&bad), Err(WireError::BadVersion { got }));
    }
}

#[test]
fn roundtrip_stats_frames() {
    roundtrip(Frame::Stats { id: 99 });
    roundtrip(Frame::StatsReply {
        id: 99,
        json: r#"{"schema":"pacsrv_stats/v1","queue_depth":3}"#.to_string(),
    });
    roundtrip(Frame::StatsReply {
        id: 0,
        json: String::new(),
    });
}

#[test]
fn roundtrip_sampled_trace_context() {
    roundtrip(Frame::Request {
        id: 5,
        trace: TraceCtx {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            parent_span: 0x1234_5678,
            sampled: true,
            node: 3,
            hop: 2,
        },
        reqs: vec![Request::Get { key: b"k".to_vec() }],
    });
}

#[test]
fn roundtrip_snapshot_ops() {
    roundtrip(Frame::Request {
        id: 21,
        trace: TraceCtx::UNTRACED,
        reqs: vec![
            Request::Snapshot,
            Request::ScanAt {
                snap: 7,
                start: b"m".to_vec(),
                count: 64,
            },
            Request::ReleaseSnapshot { snap: 7 },
        ],
    });
    roundtrip(Frame::Reply {
        id: 21,
        resps: vec![
            Response::Snapshot(7),
            Response::ScanCount(64),
            Response::UnknownSnapshot,
            Response::Released(true),
            Response::Released(false),
        ],
    });
}

#[test]
fn roundtrip_health_frames() {
    roundtrip(Frame::Health { id: 77 });
    roundtrip(Frame::HealthReply {
        id: 77,
        text: "# TYPE pacsrv_queue_depth gauge\npacsrv_queue_depth 3\n".to_string(),
    });
    roundtrip(Frame::HealthReply {
        id: 0,
        text: String::new(),
    });
}

fn sample_map() -> PartitionMap {
    PartitionMap {
        epoch: 3,
        parts: vec![
            Partition {
                id: 0,
                start: vec![],
                endpoint: "127.0.0.1:7000".to_string(),
            },
            Partition {
                id: 1,
                start: 500u64.to_be_bytes().to_vec(),
                endpoint: "127.0.0.1:7001".to_string(),
            },
        ],
    }
}

#[test]
fn roundtrip_cluster_frames() {
    let traced = TraceCtx {
        trace_id: 77,
        parent_span: 5,
        sampled: true,
        node: 2,
        hop: 1,
    };
    for trace in [TraceCtx::UNTRACED, traced] {
        roundtrip(Frame::MapFetch { id: 40, trace });
        for op in [
            MigrateOp::Start {
                partition: 1,
                target: "10.0.0.2:7000".to_string(),
            },
            MigrateOp::ImportBegin { partition: 1 },
            MigrateOp::ImportEnd {
                partition: 1,
                map: sample_map(),
            },
            MigrateOp::Install { map: sample_map() },
            MigrateOp::ImportAbort { partition: 1 },
        ] {
            roundtrip(Frame::Migrate { id: 42, trace, op });
        }
    }
    let empty = PartitionMap {
        epoch: 0,
        parts: vec![],
    };
    for map in [sample_map(), empty] {
        roundtrip(Frame::MapReply { id: 41, map });
    }
    for (ok, detail) in [(true, r#"{"moved_pairs":128}"#), (false, "not the owner")] {
        let detail = detail.to_string();
        roundtrip(Frame::MigrateReply { id: 46, ok, detail });
    }
}

#[test]
fn roundtrip_wrong_partition_status() {
    roundtrip(Frame::Reply {
        id: 50,
        resps: vec![
            Response::Ok,
            Response::WrongPartition { map_epoch: 9 },
            Response::Value(None),
        ],
    });
}

/// Wraps `payload` as a `MapReply` (kind 10) frame with a valid header
/// and CRC, bypassing the encoder's own checks.
fn map_reply_with(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&[VERSION, 10]);
    buf.extend_from_slice(&1u64.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32(&[&buf[..16], payload]);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

#[test]
fn oversize_partition_count_is_malformed() {
    // A map claiming MAX_PARTS+1 entries must be rejected before any
    // attempt to materialize them.
    let mut payload = Vec::new();
    put_u64(&mut payload, 1); // epoch
    put_u32(&mut payload, (MAX_PARTS + 1) as u32); // count
    assert_eq!(
        decode_frame(&map_reply_with(&payload)),
        Err(WireError::Malformed("partition count over MAX_PARTS"))
    );
}

#[test]
fn non_utf8_endpoint_is_malformed() {
    let mut payload = Vec::new();
    put_u64(&mut payload, 1); // epoch
    put_u32(&mut payload, 1); // count
    put_u32(&mut payload, 0); // partition id
    payload.extend_from_slice(&[0, 0, 2, 0]); // empty start key, endpoint length 2
    payload.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8
    assert_eq!(
        decode_frame(&map_reply_with(&payload)),
        Err(WireError::Malformed("string field is not UTF-8"))
    );
}

#[test]
fn crc32_matches_known_vector() {
    // IEEE CRC32 of "123456789" is 0xCBF43926.
    assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
    assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
}
