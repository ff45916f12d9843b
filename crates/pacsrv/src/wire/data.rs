//! Data-plane payloads: the operation list of a `Request` frame and the
//! status list of a `Reply` frame.

use super::frame::{put_key, put_u32, put_u64, Reader};
use super::{Request, Response, WireError, MAX_BATCH};

pub(super) fn put_requests(out: &mut Vec<u8>, reqs: &[Request]) {
    assert!(
        reqs.len() <= MAX_BATCH,
        "batch of {} requests exceeds MAX_BATCH ({MAX_BATCH})",
        reqs.len()
    );
    put_u32(out, reqs.len() as u32);
    for r in reqs {
        match r {
            Request::Get { key } => {
                out.push(1);
                put_key(out, key);
            }
            Request::Put { key, value } => {
                out.push(2);
                put_key(out, key);
                put_u64(out, *value);
            }
            Request::Delete { key } => {
                out.push(3);
                put_key(out, key);
            }
            Request::Scan { start, count } => {
                out.push(4);
                put_key(out, start);
                put_u32(out, *count);
            }
            Request::Snapshot => out.push(5),
            Request::ScanAt { snap, start, count } => {
                out.push(6);
                put_u64(out, *snap);
                put_key(out, start);
                put_u32(out, *count);
            }
            Request::ReleaseSnapshot { snap } => {
                out.push(7);
                put_u64(out, *snap);
            }
        }
    }
}

/// Reads the `u32` count heading an operation or status list. The cap
/// bounds what a hostile count can make the decoder reserve.
fn read_count(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let count = r.u32()? as usize;
    if count > MAX_BATCH {
        return Err(WireError::Malformed("batch count over MAX_BATCH"));
    }
    Ok(count)
}

pub(super) fn read_requests(r: &mut Reader<'_>) -> Result<Vec<Request>, WireError> {
    let count = read_count(r)?;
    let mut reqs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        reqs.push(match r.u8()? {
            1 => Request::Get { key: r.key()? },
            2 => Request::Put {
                key: r.key()?,
                value: r.u64()?,
            },
            3 => Request::Delete { key: r.key()? },
            4 => Request::Scan {
                start: r.key()?,
                count: r.u32()?,
            },
            5 => Request::Snapshot,
            6 => Request::ScanAt {
                snap: r.u64()?,
                start: r.key()?,
                count: r.u32()?,
            },
            7 => Request::ReleaseSnapshot { snap: r.u64()? },
            _ => return Err(WireError::Malformed("unknown request op tag")),
        });
    }
    Ok(reqs)
}

pub(super) fn put_responses(out: &mut Vec<u8>, resps: &[Response]) {
    assert!(
        resps.len() <= MAX_BATCH,
        "batch of {} responses exceeds MAX_BATCH ({MAX_BATCH})",
        resps.len()
    );
    put_u32(out, resps.len() as u32);
    for r in resps {
        match r {
            Response::Ok => out.push(1),
            Response::Value(Some(v)) => {
                out.push(2);
                put_u64(out, *v);
            }
            Response::Value(None) => out.push(3),
            Response::Removed(Some(v)) => {
                out.push(4);
                put_u64(out, *v);
            }
            Response::Removed(None) => out.push(5),
            Response::ScanCount(n) => {
                out.push(6);
                put_u32(out, *n);
            }
            Response::Overloaded => out.push(7),
            Response::DeadlineExceeded => out.push(8),
            Response::Malformed => out.push(9),
            Response::Aborted => out.push(10),
            Response::Snapshot(id) => {
                out.push(11);
                put_u64(out, *id);
            }
            Response::Released(found) => {
                out.push(12);
                out.push(u8::from(*found));
            }
            Response::UnknownSnapshot => out.push(13),
            Response::WrongPartition { map_epoch } => {
                out.push(14);
                put_u64(out, *map_epoch);
            }
        }
    }
}

pub(super) fn read_responses(r: &mut Reader<'_>) -> Result<Vec<Response>, WireError> {
    let count = read_count(r)?;
    let mut resps = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        resps.push(match r.u8()? {
            1 => Response::Ok,
            2 => Response::Value(Some(r.u64()?)),
            3 => Response::Value(None),
            4 => Response::Removed(Some(r.u64()?)),
            5 => Response::Removed(None),
            6 => Response::ScanCount(r.u32()?),
            7 => Response::Overloaded,
            8 => Response::DeadlineExceeded,
            9 => Response::Malformed,
            10 => Response::Aborted,
            11 => Response::Snapshot(r.u64()?),
            12 => Response::Released(r.flag()?),
            13 => Response::UnknownSnapshot,
            14 => Response::WrongPartition {
                map_epoch: r.u64()?,
            },
            _ => return Err(WireError::Malformed("unknown response status tag")),
        });
    }
    Ok(resps)
}
