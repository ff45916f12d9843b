//! One closed-loop client per public surface of the system. Every request
//! goes through the same three steps — `prepare` (turn tape operations into
//! what the surface takes), `issue` (the call being measured, and nothing
//! else), `verify` (check every reply against the tape) — so the end-to-end
//! workloads and the per-layer rungs time exactly the same thing.

use std::sync::Arc;

use pacsrv::wire::{Request, Response};
use pacsrv::{LocalClient, RouterClient, TcpClient};
use pactree::data::Pair;
use pactree::PacTree;
use pdl_art::PdlArt;
use ycsb::KeySpace;

use crate::tape::{Kind, TapeOp};

pub trait Client {
    fn prepare(&mut self, ops: &[TapeOp]);
    /// The call being measured. `ops` is what `prepare` was given.
    fn issue(&mut self, ops: &[TapeOp]);
    /// Number of `ops` whose reply was wrong, refused, shed or missing.
    fn verify(&mut self, ops: &[TapeOp]) -> u64;
}

/// A scan reply is right when it is sorted, starts at the start key (every
/// scan on a tape starts at a preloaded key, and those are never removed)
/// and returns between one pair and the requested count.
fn scan_ok(pairs: &[Pair], start: &[u8], count: u64) -> bool {
    !pairs.is_empty()
        && pairs.len() as u64 <= count
        && pairs[0].key == start
        && pairs.windows(2).all(|w| w[0].key < w[1].key)
}

/// The two indexes callable as a library.
pub enum Library {
    Tree(Arc<PacTree>),
    /// Standalone PDL-ART: the search layer's structure as its own index.
    Art(Arc<PdlArt>),
}

pub struct LibraryClient {
    index: Library,
    space: KeySpace,
    keys: Vec<Vec<u8>>,
    replies: Vec<LibraryReply>,
}

enum LibraryReply {
    Previous(Option<u64>),
    Pairs(Vec<Pair>),
}

impl LibraryClient {
    pub fn new(index: Library, space: KeySpace) -> LibraryClient {
        LibraryClient {
            index,
            space,
            keys: Vec::new(),
            replies: Vec::new(),
        }
    }
}

impl Client for LibraryClient {
    fn prepare(&mut self, ops: &[TapeOp]) {
        self.keys.clear();
        self.keys
            .extend(ops.iter().map(|op| self.space.encode(op.id)));
        self.replies.clear();
    }

    fn issue(&mut self, ops: &[TapeOp]) {
        use LibraryReply::{Pairs, Previous};
        for (op, key) in ops.iter().zip(&self.keys) {
            self.replies.push(match (&self.index, op.kind) {
                (Library::Tree(t), Kind::Lookup) => Previous(t.lookup(key)),
                (Library::Tree(t), Kind::Update) => {
                    Previous(t.update(key, op.arg).expect("pool space"))
                }
                (Library::Tree(t), Kind::Insert) => {
                    Previous(t.insert(key, op.arg).expect("pool space"))
                }
                (Library::Tree(t), Kind::Remove) => Previous(t.remove(key).expect("pool space")),
                (Library::Tree(t), Kind::Scan) => Pairs(t.scan(key, op.arg as usize)),
                (Library::Art(a), Kind::Lookup) => Previous(a.lookup(key)),
                (Library::Art(a), Kind::Insert) => {
                    Previous(a.insert(key, op.arg).expect("pool space"))
                }
                (Library::Art(_), other) => unreachable!("no {other:?} on the PDL-ART rungs"),
            });
        }
    }

    fn verify(&mut self, ops: &[TapeOp]) -> u64 {
        let mut failed = ops.len().saturating_sub(self.replies.len()) as u64;
        for ((op, key), reply) in ops.iter().zip(&self.keys).zip(&self.replies) {
            let ok = match reply {
                LibraryReply::Previous(prev) => *prev == op.expect,
                LibraryReply::Pairs(pairs) => scan_ok(pairs, key, op.arg),
            };
            failed += u64::from(!ok);
        }
        failed
    }
}

/// The four ways a request batch reaches a `PacService`, bottom rung first.
pub enum Route {
    /// `LocalClient::call_direct`: queues, batching and reply wake only.
    Direct(LocalClient<Arc<PacTree>>),
    /// `LocalClient::call`: the above plus the wire codec.
    Codec(LocalClient<Arc<PacTree>>),
    /// `TcpClient::call`: the above plus a loopback socket round trip.
    Tcp(TcpClient),
    /// `RouterClient::call`: one such round trip per owning node.
    Router(RouterClient),
}

pub struct ServiceClient {
    pub route: Route,
    space: KeySpace,
    reqs: Vec<Request>,
    reply: std::io::Result<Vec<Response>>,
}

impl ServiceClient {
    pub fn new(route: Route, space: KeySpace) -> ServiceClient {
        ServiceClient {
            route,
            space,
            reqs: Vec::new(),
            reply: Ok(Vec::new()),
        }
    }
}

/// The wire request a tape operation becomes.
pub fn to_request(op: &TapeOp, space: KeySpace) -> Request {
    let key = space.encode(op.id);
    match op.kind {
        Kind::Lookup => Request::Get { key },
        Kind::Update | Kind::Insert => Request::Put { key, value: op.arg },
        Kind::Remove => Request::Delete { key },
        Kind::Scan => Request::Scan {
            start: key,
            count: op.arg as u32,
        },
    }
}

/// Whether `resp` is the reply `op` must get over the wire.
pub fn reply_ok(op: &TapeOp, resp: &Response) -> bool {
    match (op.kind, resp) {
        (Kind::Lookup, Response::Value(v)) => *v == op.expect,
        (Kind::Update | Kind::Insert, Response::Ok) => true,
        (Kind::Remove, Response::Removed(v)) => *v == op.expect,
        (Kind::Scan, Response::ScanCount(n)) => (1..=op.arg).contains(&u64::from(*n)),
        _ => false,
    }
}

impl Client for ServiceClient {
    fn prepare(&mut self, ops: &[TapeOp]) {
        self.reqs.clear();
        self.reqs
            .extend(ops.iter().map(|op| to_request(op, self.space)));
    }

    fn issue(&mut self, _ops: &[TapeOp]) {
        let reqs = std::mem::take(&mut self.reqs);
        self.reply = match &mut self.route {
            Route::Direct(c) => Ok(c.call_direct(reqs)),
            Route::Codec(c) => Ok(c.call(reqs)),
            Route::Tcp(c) => c.call(reqs),
            Route::Router(c) => c.call(reqs),
        };
    }

    fn verify(&mut self, ops: &[TapeOp]) -> u64 {
        match &self.reply {
            Ok(resps) if resps.len() == ops.len() => {
                let pairs = ops.iter().zip(resps);
                pairs.filter(|(op, resp)| !reply_ok(op, resp)).count() as u64
            }
            _ => ops.len() as u64,
        }
    }
}
