//! Control-plane payloads: the stats and health documents, the
//! [`PartitionMap`] and the [`MigrateOp`] of a `Migrate` frame.

use super::frame::{put_key, put_u32, put_u64, Reader};
use super::{MigrateOp, Partition, PartitionMap, WireError, MAX_PARTS, MAX_PAYLOAD};

/// Writes a stats or health document: a `u32` byte length plus the text.
pub(super) fn put_doc(out: &mut Vec<u8>, doc: &str) {
    assert!(
        doc.len() <= MAX_PAYLOAD - 8,
        "document of {} bytes exceeds MAX_PAYLOAD",
        doc.len()
    );
    put_u32(out, doc.len() as u32);
    out.extend_from_slice(doc.as_bytes());
}

/// Reads a document, mirroring [`put_doc`].
pub(super) fn read_doc(r: &mut Reader<'_>) -> Result<String, WireError> {
    let len = r.u32()? as usize;
    std::str::from_utf8(r.take(len)?)
        .map(str::to_string)
        .map_err(|_| WireError::Malformed("document is not UTF-8"))
}

pub(super) fn put_map(out: &mut Vec<u8>, map: &PartitionMap) {
    assert!(
        map.parts.len() <= MAX_PARTS,
        "map of {} partitions exceeds MAX_PARTS ({MAX_PARTS})",
        map.parts.len()
    );
    put_u64(out, map.epoch);
    put_u32(out, map.parts.len() as u32);
    for p in &map.parts {
        put_u32(out, p.id);
        put_key(out, &p.start);
        put_key(out, p.endpoint.as_bytes());
    }
}

/// Reads a [`PartitionMap`], mirroring [`put_map`].
pub(super) fn read_map(r: &mut Reader<'_>) -> Result<PartitionMap, WireError> {
    let epoch = r.u64()?;
    let count = r.u32()? as usize;
    if count > MAX_PARTS {
        return Err(WireError::Malformed("partition count over MAX_PARTS"));
    }
    let mut parts = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        parts.push(Partition {
            id: r.u32()?,
            start: r.key()?,
            endpoint: r.str16()?,
        });
    }
    Ok(PartitionMap { epoch, parts })
}

pub(super) fn put_migrate_op(out: &mut Vec<u8>, op: &MigrateOp) {
    match op {
        MigrateOp::Start { partition, target } => {
            out.push(1);
            put_u32(out, *partition);
            put_key(out, target.as_bytes());
        }
        MigrateOp::ImportBegin { partition } => {
            out.push(2);
            put_u32(out, *partition);
        }
        MigrateOp::ImportEnd { partition, map } => {
            out.push(3);
            put_u32(out, *partition);
            put_map(out, map);
        }
        MigrateOp::Install { map } => {
            out.push(4);
            put_map(out, map);
        }
        MigrateOp::ImportAbort { partition } => {
            out.push(5);
            put_u32(out, *partition);
        }
    }
}

pub(super) fn read_migrate_op(r: &mut Reader<'_>) -> Result<MigrateOp, WireError> {
    Ok(match r.u8()? {
        1 => MigrateOp::Start {
            partition: r.u32()?,
            target: r.str16()?,
        },
        2 => MigrateOp::ImportBegin {
            partition: r.u32()?,
        },
        3 => MigrateOp::ImportEnd {
            partition: r.u32()?,
            map: read_map(r)?,
        },
        4 => MigrateOp::Install { map: read_map(r)? },
        5 => MigrateOp::ImportAbort {
            partition: r.u32()?,
        },
        _ => return Err(WireError::Malformed("unknown migrate op tag")),
    })
}
