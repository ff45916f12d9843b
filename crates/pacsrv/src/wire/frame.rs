//! Framing: the header, the checksum, the field primitives every payload
//! is built from, and the frame-kind table that ties a kind byte to its
//! payload codec in [`data`] or [`control`].

use obsv::trace::TraceCtx;

use super::{control, data, Frame, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};

/// CRC32 (IEEE, reflected) slicing-by-8 tables, built at compile time:
/// `CRC_TABLES[0]` is the classic byte table, and `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = t[k - 1][i];
            t[k][i] = (c >> 8) ^ t[0][(c & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 of `parts` concatenated (IEEE polynomial, as used by gzip),
/// eight bytes per step.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

// `#[inline]` on the field primitives: their per-operation callers are in
// `data` and `control`, which are other codegen units (see EXPERIMENTS.md).
#[inline]
pub(super) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
#[inline]
pub(super) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a key (or a string's bytes) with its `u16` length prefix,
/// refusing a length the prefix cannot represent (a truncated length would
/// checksum fine and then mis-parse on decode, far from the bug that
/// caused it).
#[inline]
pub(super) fn put_key(out: &mut Vec<u8>, key: &[u8]) {
    assert!(
        key.len() <= u16::MAX as usize,
        "key length {} exceeds the wire format's u16 limit",
        key.len()
    );
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
}

/// `flags` bit of a trace block: the context is sampled.
const TRACE_FLAG_SAMPLED: u8 = 1;

/// Writes the 16-byte trace block.
pub(super) fn put_trace(out: &mut Vec<u8>, trace: &TraceCtx) {
    put_u64(out, trace.trace_id);
    put_u32(out, trace.parent_span);
    out.push(if trace.sampled { TRACE_FLAG_SAMPLED } else { 0 });
    out.extend_from_slice(&trace.node.to_le_bytes());
    out.push(trace.hop);
}

/// The unread rest of an immutable payload; every read is bounds-checked.
pub(super) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    #[inline]
    pub(super) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::Malformed("payload shorter than its fields"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
    #[inline]
    pub(super) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    pub(super) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    #[inline]
    pub(super) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    #[inline]
    pub(super) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(super) fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte is not 0/1")),
        }
    }
    #[inline]
    pub(super) fn key(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u16()? as usize;
        Ok(self.take(len)?.to_vec())
    }
    pub(super) fn str16(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.key()?)
            .map_err(|_| WireError::Malformed("string field is not UTF-8"))
    }
    /// Reads a trace block, mirroring [`put_trace`].
    pub(super) fn trace(&mut self) -> Result<TraceCtx, WireError> {
        Ok(TraceCtx {
            trace_id: self.u64()?,
            parent_span: self.u32()?,
            sampled: self.u8()? & TRACE_FLAG_SAMPLED != 0,
            node: self.u16()?,
            hop: self.u8()?,
        })
    }
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Request { .. } => 1,
            Frame::Reply { .. } => 2,
            Frame::Ping { .. } => 3,
            Frame::Pong { .. } => 4,
            // 5 to 8 are retired (see the module docs): never reuse them.
            Frame::MapFetch { .. } => 9,
            Frame::MapReply { .. } => 10,
            Frame::Migrate { .. } => 11,
            Frame::MigrateReply { .. } => 12,
        }
    }
}

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Request { trace, reqs, .. } => {
            put_trace(out, trace);
            data::put_requests(out, reqs);
        }
        Frame::Reply { resps, .. } => data::put_responses(out, resps),
        Frame::MapFetch { trace, .. } => put_trace(out, trace),
        Frame::MapReply { map, .. } => control::put_map(out, map),
        Frame::Migrate { trace, op, .. } => {
            put_trace(out, trace);
            control::put_migrate_op(out, op);
        }
        Frame::MigrateReply { ok, detail, .. } => {
            out.push(u8::from(*ok));
            put_key(out, detail.as_bytes());
        }
        Frame::Ping { .. } | Frame::Pong { .. } => {}
    }
}

/// Appends the encoded frame to `out` and returns the encoded length.
///
/// # Panics
///
/// If the frame is unrepresentable on the wire — a key longer than
/// `u16::MAX` bytes or more than [`MAX_BATCH`](super::MAX_BATCH)
/// operations/statuses per frame. These mirror the decoder's structural
/// checks; encoding such a frame would otherwise produce bytes whose CRC
/// validates but whose payload mis-parses, so the caller's bug is surfaced
/// here instead.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(frame.kind());
    out.extend_from_slice(&frame.id().to_le_bytes());
    let len_at = out.len();
    put_u32(out, 0); // payload length, patched below
    let crc_at = out.len();
    put_u32(out, 0); // crc, patched below
    let payload_at = out.len();
    encode_payload(frame, out);
    let payload_len = (out.len() - payload_at) as u32;
    out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    let crc = {
        let (head, rest) = out[start..].split_at(crc_at - start);
        crc32(&[head, &rest[4..]])
    };
    out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    out.len() - start
}

fn decode_payload(kind: u8, id: u64, payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader(payload);
    let frame = match kind {
        1 => Frame::Request {
            id,
            trace: r.trace()?,
            reqs: data::read_requests(&mut r)?,
        },
        2 => Frame::Reply {
            id,
            resps: data::read_responses(&mut r)?,
        },
        3 => Frame::Ping { id },
        4 => Frame::Pong { id },
        9 => Frame::MapFetch {
            id,
            trace: r.trace()?,
        },
        10 => Frame::MapReply {
            id,
            map: control::read_map(&mut r)?,
        },
        11 => Frame::Migrate {
            id,
            trace: r.trace()?,
            op: control::read_migrate_op(&mut r)?,
        },
        12 => Frame::MigrateReply {
            id,
            ok: r.flag()?,
            detail: r.str16()?,
        },
        _ => return Err(WireError::Malformed("unknown frame kind")),
    };
    if !r.0.is_empty() {
        return Err(WireError::Malformed("trailing bytes after payload fields"));
    }
    Ok(frame)
}

/// Decodes one frame from the front of `buf`, returning it and the number
/// of bytes consumed. [`WireError::Incomplete`] means "read more and call
/// again" for stream transports.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Incomplete {
            need: HEADER_LEN - buf.len(),
        });
    }
    if u16::from_le_bytes([buf[0], buf[1]]) != MAGIC {
        return Err(WireError::BadMagic);
    }
    if buf[2] != VERSION {
        return Err(WireError::BadVersion { got: buf[2] });
    }
    let kind = buf[3];
    let id = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let payload_len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Malformed("payload length over MAX_PAYLOAD"));
    }
    let total = HEADER_LEN + payload_len;
    if buf.len() < total {
        return Err(WireError::Incomplete {
            need: total - buf.len(),
        });
    }
    let crc_stored = u32::from_le_bytes(buf[16..20].try_into().unwrap());
    let payload = &buf[HEADER_LEN..total];
    if crc32(&[&buf[..16], payload]) != crc_stored {
        return Err(WireError::BadChecksum);
    }
    Ok((decode_payload(kind, id, payload)?, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{MigrateOp, Partition, PartitionMap, Request, Response};
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    /// The CRC one bit at a time, straight from the polynomial.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Parts of 0-40 bytes cover every remainder length and every
        /// place a part boundary can fall within an eight-byte step.
        #[test]
        fn crc32_matches_the_bitwise_reference(
            parts in vec(vec(any::<u8>(), 0..41), 1..5),
        ) {
            let whole: Vec<u8> = parts.concat();
            let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(crc32(&slices), bitwise_crc32(&whole));
        }
    }

    /// The wire format is frozen: these three frames must encode to
    /// exactly these bytes (and decode back from them), whatever the
    /// codec's internals look like.
    #[test]
    fn golden_bytes_are_frozen() {
        let key = |i: u8| vec![b'k', i];
        let mut reqs = Vec::new();
        for i in 0..3u8 {
            reqs.push(Request::Get { key: key(i) });
            reqs.push(Request::Put {
                key: key(i),
                value: 0x0102_0304_0506_0708 + u64::from(i),
            });
            reqs.push(Request::Delete { key: key(i) });
            reqs.push(Request::Scan {
                start: key(i),
                count: 10 + u32::from(i),
            });
            reqs.push(Request::ScanAt {
                snap: 7 + u64::from(i),
                start: key(i),
                count: 20 + u32::from(i),
            });
        }
        reqs.push(Request::Get { key: vec![] });
        assert_eq!(reqs.len(), 16);
        let map = PartitionMap {
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
        };
        let cases = [
            (
                Frame::Request {
                    id: 0x1122_3344_5566_7788,
                    trace: TraceCtx {
                        trace_id: 0xDEAD_BEEF_CAFE_F00D,
                        parent_span: 0x1234_5678,
                        sampled: true,
                        node: 3,
                        hop: 2,
                    },
                    reqs,
                },
                concat!(
                    "51ac04018877665544332211aa000000b17780c6",
                    "0df0fecaefbeadde7856341201030002100000000102006b000202006b000807",
                    "0605040302010302006b000402006b000a00000006070000000000000002006b",
                    "00140000000102006b010202006b0109070605040302010302006b010402006b",
                    "010b00000006080000000000000002006b01150000000102006b020202006b02",
                    "0a070605040302010302006b020402006b020c00000006090000000000000002",
                    "006b0216000000010000",
                ),
            ),
            (
                Frame::Reply {
                    id: 2,
                    resps: vec![
                        Response::Ok,
                        Response::Value(Some(0x1111)),
                        Response::Value(None),
                        Response::Removed(Some(0x2222)),
                        Response::Removed(None),
                        Response::ScanCount(42),
                        Response::Overloaded,
                        Response::DeadlineExceeded,
                        Response::Malformed,
                        Response::Aborted,
                        Response::Snapshot(7),
                        Response::Released(true),
                        Response::UnknownSnapshot,
                        Response::WrongPartition { map_epoch: 9 },
                    ],
                },
                concat!(
                    "51ac04020200000000000000370000003ca08d30",
                    "0e000000010211110000000000000304222200000000000005062a0000000708",
                    "090a0b07000000000000000c010d0e0900000000000000",
                ),
            ),
            (
                Frame::Migrate {
                    id: 44,
                    trace: TraceCtx::UNTRACED,
                    op: MigrateOp::ImportEnd { partition: 1, map },
                },
                concat!(
                    "51ac040b2c0000000000000055000000133d1afa",
                    "0000000000000000000000000000000003010000000300000000000000020000",
                    "000000000000000e003132372e302e302e313a37303030010000000800000000",
                    "00000001f40e003132372e302e302e313a37303031",
                ),
            ),
        ];
        for (frame, want) in cases {
            assert_frozen(frame, want);
        }
    }

    /// A reply whose index refused the write, pinned apart from the three
    /// frames above so adding it changed none of their bytes.
    #[test]
    fn failed_reply_bytes_are_frozen() {
        let frame = Frame::Reply {
            id: 3,
            resps: vec![Response::Failed, Response::Ok],
        };
        assert_frozen(
            frame,
            "51ac0402030000000000000006000000cfc45e2e020000000f01",
        );
    }

    fn assert_frozen(frame: Frame, want: &str) {
        let mut got = Vec::new();
        encode_frame(&frame, &mut got);
        let hex: String = got.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, want, "encoding of {frame:?} changed");
        assert_eq!(decode_frame(&got), Ok((frame, got.len())));
    }
}
