//! Transports: zero-copy in-process and TCP over `std::net`.
//!
//! Both feed the same [`PacService`] submission path, and the TCP path
//! reuses the exact bytes the in-process codec path produces, so the cost
//! ladder is measurable in isolation:
//!
//! 1. [`LocalClient::call_direct`] — no codec, no socket: request structs
//!    move straight into the shard queues (the zero-copy transport);
//! 2. [`LocalClient::call`] — encode + checksum + decode, no socket
//!    (protocol cost);
//! 3. [`TcpClient::call`] — the same frames over a loopback/real socket
//!    (protocol + network cost).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use obsv::trace::TraceCtx;
use ycsb::RangeIndex;

use crate::service::PacService;
use crate::wire::{
    decode_frame, encode_frame, Frame, MigrateOp, PartitionMap, Request, Response, WireError,
};

/// The server-side contract a TCP front-end serves: one wire frame in, one
/// reply frame out (both as raw bytes). [`PacService`] answers directly;
/// [`crate::cluster::ClusterNode`] wraps a service with partition-ownership
/// checks before delegating. `health_text` feeds the plain-HTTP
/// [`HealthServer`].
pub trait FrameHandler: Send + Sync + 'static {
    /// Decodes `bytes`, executes, and returns the encoded reply frame.
    fn handle_frame(&self, bytes: &[u8]) -> Vec<u8>;

    /// The Prometheus text document the health endpoint serves.
    fn health_text(&self) -> String;
}

impl<I: RangeIndex + Clone + 'static> FrameHandler for PacService<I> {
    fn handle_frame(&self, bytes: &[u8]) -> Vec<u8> {
        PacService::handle_frame(self, bytes)
    }

    fn health_text(&self) -> String {
        PacService::health_text(self)
    }
}

impl<H: FrameHandler> FrameHandler for Arc<H> {
    fn handle_frame(&self, bytes: &[u8]) -> Vec<u8> {
        H::handle_frame(self, bytes)
    }

    fn health_text(&self) -> String {
        H::health_text(self)
    }
}

/// In-process client: submits to the service on the caller's thread.
pub struct LocalClient<I: RangeIndex + Clone + 'static> {
    service: Arc<PacService<I>>,
    buf: Vec<u8>,
}

impl<I: RangeIndex + Clone + 'static> LocalClient<I> {
    pub fn new(service: Arc<PacService<I>>) -> Self {
        LocalClient {
            service,
            buf: Vec::with_capacity(4096),
        }
    }

    /// Zero-copy path: no encode/decode, requests move into the queues.
    pub fn call_direct(&self, reqs: Vec<Request>) -> Vec<Response> {
        self.service.submit(reqs, None).wait()
    }

    /// Codec path: the request batch is encoded to wire bytes, handed to
    /// the server's shared frame handler, and the reply frame is decoded —
    /// everything a TCP round-trip does except the socket.
    pub fn call(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        self.buf.clear();
        let id = self.service.next_frame_id();
        // Untraced on the wire: the service stamps its own context, the
        // same as call_direct (tracing covers both transports equally).
        encode_frame(
            &Frame::Request {
                id,
                trace: TraceCtx::UNTRACED,
                reqs,
            },
            &mut self.buf,
        );
        let out = self.service.handle_frame(&self.buf);
        match decode_frame(&out) {
            Ok((Frame::Reply { id: rid, resps }, _)) if rid == id => resps,
            _ => vec![Response::Malformed],
        }
    }
}

/// A TCP front-end for a service: an accept loop plus one handler thread
/// per connection (the heavy lifting stays in the shard workers).
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

/// Joins (and drops) every finished handle in `conns`, keeping the live
/// ones. Called by the accept loop before each new connection so handles
/// of long-gone connections don't accumulate for the server's lifetime.
fn reap_finished(conns: &Mutex<Vec<std::thread::JoinHandle<()>>>) {
    let mut conns = conns.lock().unwrap();
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn start<H: FrameHandler>(
        service: Arc<H>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<TcpServer> {
        TcpServer::serve(service, TcpListener::bind(addr)?)
    }

    /// Starts accepting on an already-bound listener. Lets callers learn an
    /// ephemeral port before constructing the frame handler — the cluster
    /// fixtures bind first, build the partition map from the bound
    /// addresses, then attach the nodes.
    pub fn serve<H: FrameHandler>(
        service: Arc<H>,
        listener: TcpListener,
    ) -> std::io::Result<TcpServer> {
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let conns2 = Arc::clone(&conns);
        let accept_thread = std::thread::Builder::new()
            .name("pacsrv-accept".to_string())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // Reap before growing: the handle list stays
                            // proportional to *live* connections, not to
                            // every connection ever accepted.
                            reap_finished(&conns2);
                            let service = Arc::clone(&service);
                            let stop = Arc::clone(&stop2);
                            let h = std::thread::Builder::new()
                                .name("pacsrv-conn".to_string())
                                .spawn(move || {
                                    let _ = handle_conn(stream, &service, &stop);
                                })
                                .expect("spawn conn handler");
                            conns2.lock().unwrap().push(h);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for h in conns2.lock().unwrap().drain(..) {
                    let _ = h.join();
                }
            })?;
        Ok(TcpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Handler threads whose connections are still open (reaps finished
    /// ones first). Primarily for tests and the stats endpoint.
    pub fn open_conns(&self) -> usize {
        reap_finished(&self.conns);
        self.conns.lock().unwrap().len()
    }

    /// Stops accepting and joins the accept loop (open connections finish
    /// their current frame, then see EOF/closed sockets).
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Per-connection loop: accumulate bytes, peel off complete frames, answer
/// each through the shared frame path. Returns on EOF, socket error, or
/// server stop.
fn handle_conn<H: FrameHandler>(
    mut stream: TcpStream,
    service: &H,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut acc: Vec<u8> = Vec::with_capacity(8192);
    let mut chunk = [0u8; 8192];
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // EOF
            Ok(n) => acc.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) => return Err(e),
        }
        let mut consumed = 0;
        while consumed < acc.len() {
            match decode_frame(&acc[consumed..]) {
                Ok((_, n)) => {
                    let reply = service.handle_frame(&acc[consumed..consumed + n]);
                    stream.write_all(&reply)?;
                    consumed += n;
                }
                Err(WireError::Incomplete { .. }) => break,
                Err(_) => {
                    // Unrecoverable framing error: answer once, drop the
                    // connection (we cannot resynchronize a corrupt stream).
                    let reply = service.handle_frame(&acc[consumed..]);
                    stream.write_all(&reply)?;
                    return Ok(());
                }
            }
        }
        acc.drain(..consumed);
    }
}

/// A plain-TCP health endpoint speaking just enough HTTP that `curl`
/// and Prometheus can scrape a running server without the binary wire
/// protocol: any request line starting with `GET` is answered with a
/// `200 OK` carrying [`PacService::health_text`] in the Prometheus text
/// exposition format, then the connection closes (HTTP/1.0 style).
/// Anything else gets a `400`. One scrape = one connection; handled
/// inline on the accept thread, which is fine at scrape cadence.
pub struct HealthServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl HealthServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts answering scrapes.
    pub fn start<H: FrameHandler>(
        service: Arc<H>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<HealthServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("pacsrv-health".to_string())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let _ = answer_scrape(stream, &service);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(HealthServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins the accept thread.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HealthServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Answers one HTTP-style scrape on `stream` and closes it. Reads until
/// the request's blank line (tolerating a bare `GET /metrics` with no
/// headers from hand-rolled pollers) under a short timeout, so a stalled
/// client cannot wedge the accept loop for long.
fn answer_scrape<H: FrameHandler>(mut stream: TcpStream, service: &H) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut req = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        // Enough to classify: a full request line plus optional headers.
        if req.windows(2).any(|w| w == b"\n\n") || req.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if req.len() >= 8192 {
            break; // refuse to buffer an unbounded request
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => req.extend_from_slice(&chunk[..n]),
            // A poller that sends `GET /metrics\n` and then just waits for
            // the reply never sends a blank line: answer on timeout too.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if req.contains(&b'\n') {
                    break;
                }
                return Ok(()); // nothing readable at all: drop it
            }
            Err(e) => return Err(e),
        }
    }
    let reply = if req.starts_with(b"GET") {
        let body = service.health_text();
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        "HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_string()
    };
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

/// A blocking TCP client with one frame in flight *per connection*: a call
/// is a send half and a receive half, run back to back by everything except
/// the cluster router, which sends on several connections before it
/// receives on any (`cluster::router`).
pub struct TcpClient {
    stream: TcpStream,
    /// The resolved peer address, kept for transparent reconnects.
    addr: SocketAddr,
    /// Reply bytes: `acc[..filled]` is received data, the rest is spare
    /// room the socket reads straight into.
    acc: Vec<u8>,
    filled: usize,
    /// Encode buffer, reused across frames.
    enc: Vec<u8>,
    /// Whether the request in flight has spent its one retry.
    retried: bool,
    next_id: u64,
    trace: TraceCtx,
}

impl TcpClient {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(TcpClient {
            stream,
            addr,
            acc: vec![0; 8192],
            filled: 0,
            enc: Vec::with_capacity(256),
            retried: false,
            next_id: 1,
            trace: TraceCtx::UNTRACED,
        })
    }

    /// The peer this client dials (and re-dials on reconnect).
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the broken stream with a fresh connection to the same
    /// peer, discarding any half-received reply bytes.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.filled = 0;
        Ok(())
    }

    /// Trace context stamped into subsequent [`call`](Self::call)s. Use
    /// [`obsv::trace::stamp_forced`] to trace a specific request
    /// end-to-end.
    pub fn set_trace(&mut self, ctx: TraceCtx) {
        self.trace = ctx;
    }

    /// Send half: writes `frame`. Its reply must be [`recv`](Self::recv)ed
    /// before the next send.
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.enc.clear();
        encode_frame(frame, &mut self.enc);
        self.stream.write_all(&self.enc)
    }

    /// Receive half: blocks until one whole reply frame has arrived.
    fn recv(&mut self) -> std::io::Result<Frame> {
        loop {
            match decode_frame(&self.acc[..self.filled]) {
                Ok((reply, n)) => {
                    self.acc.copy_within(n..self.filled, 0);
                    self.filled -= n;
                    return Ok(reply);
                }
                Err(WireError::Incomplete { .. }) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("bad reply frame: {e}"),
                    ))
                }
            }
            if self.filled == self.acc.len() {
                self.acc.resize(self.filled * 2, 0);
            }
            let n = self.stream.read(&mut self.acc[self.filled..])?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.filled += n;
        }
    }

    fn roundtrip(&mut self, frame: &Frame) -> std::io::Result<Frame> {
        self.send(frame)?;
        self.recv()
    }

    /// The next request frame: a fresh id, the client's trace context.
    pub(crate) fn request(&mut self, reqs: Vec<Request>) -> Frame {
        let (id, trace) = (self.next_id, self.trace);
        self.next_id += 1;
        Frame::Request { id, trace, reqs }
    }

    /// Sends one request batch and waits for its replies.
    pub fn call(&mut self, reqs: Vec<Request>) -> std::io::Result<Vec<Response>> {
        let frame = self.request(reqs);
        let reply = self.roundtrip(&frame)?;
        Self::expect_reply(reply, frame.id())
    }

    /// Whether a connection failure mid-call may hide a half-delivered
    /// request (vs. definitely-broken-before or definitely-broken-after).
    fn is_conn_broken(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
                | ErrorKind::UnexpectedEof
        )
    }

    /// The single-retry rule both halves of a call share: after a broken
    /// connection, a frame of **only idempotent reads** (`Get`/`Scan`/
    /// `ScanAt`) is resent on a fresh one, once per call (`self.retried`).
    /// Anything else surfaces `e` — a write is NEVER silently resent: the
    /// server may or may not have executed it.
    fn retry(&mut self, frame: &Frame, e: std::io::Error) -> std::io::Result<()> {
        let idempotent = matches!(frame, Frame::Request { reqs, .. } if reqs.iter().all(|r| {
            matches!(r, Request::Get { .. } | Request::Scan { .. } | Request::ScanAt { .. })
        }));
        if self.retried || !idempotent || !Self::is_conn_broken(&e) {
            return Err(e);
        }
        self.retried = true;
        self.reconnect()?;
        self.send(frame)
    }

    /// [`send`](Self::send) for a [`request`](Self::request) frame, under
    /// the single-retry rule for idempotent reads.
    pub(crate) fn send_request(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.retried = false;
        self.send(frame).or_else(|e| self.retry(frame, e))
    }

    /// [`recv`](Self::recv) for the replies to the frame
    /// [`send_request`](Self::send_request) sent, under the same rule. The
    /// flag is `true` iff either half spent the retry (`RetriedOnce`), so
    /// callers can count failovers.
    pub(crate) fn recv_replies(&mut self, frame: &Frame) -> std::io::Result<(Vec<Response>, bool)> {
        let reply = match self.recv() {
            Err(e) => self.retry(frame, e).and_then(|()| self.recv())?,
            Ok(reply) => reply,
        };
        Self::expect_reply(reply, frame.id()).map(|resps| (resps, self.retried))
    }

    /// Like [`call`](Self::call), but a batch of idempotent reads survives
    /// one broken connection; the flag says whether it had to.
    pub fn call_idempotent(
        &mut self,
        reqs: Vec<Request>,
    ) -> std::io::Result<(Vec<Response>, bool)> {
        let frame = self.request(reqs);
        self.send_request(&frame)?;
        self.recv_replies(&frame)
    }

    fn expect_reply(reply: Frame, id: u64) -> std::io::Result<Vec<Response>> {
        match reply {
            Frame::Reply { id: rid, resps } if rid == id => Ok(resps),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Fetches the node's currently installed partition map.
    /// Carries the client's trace context so a map refresh triggered inside
    /// a traced request stays attributed to that trace.
    pub fn fetch_map(&mut self) -> std::io::Result<PartitionMap> {
        let id = self.next_id;
        self.next_id += 1;
        let trace = self.trace;
        match self.roundtrip(&Frame::MapFetch { id, trace })? {
            Frame::MapReply { id: rid, map } if rid == id => Ok(map),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected map reply {other:?}"),
            )),
        }
    }

    /// Sends one migration control operation and returns
    /// the node's `(ok, detail)` answer.
    pub fn migrate(&mut self, op: MigrateOp) -> std::io::Result<(bool, String)> {
        let id = self.next_id;
        self.next_id += 1;
        let trace = self.trace;
        match self.roundtrip(&Frame::Migrate { id, trace, op })? {
            Frame::MigrateReply {
                id: rid,
                ok,
                detail,
            } if rid == id => Ok((ok, detail)),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected migrate reply {other:?}"),
            )),
        }
    }

    /// Fetches the server's live-stats JSON document.
    pub fn stats(&mut self) -> std::io::Result<String> {
        let id = self.next_id;
        self.next_id += 1;
        match self.roundtrip(&Frame::Stats { id })? {
            Frame::StatsReply { id: rid, json } if rid == id => Ok(json),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected stats reply {other:?}"),
            )),
        }
    }

    /// Fetches the server's health document — a Prometheus-text-format
    /// metrics scrape with SLO alert states.
    pub fn health(&mut self) -> std::io::Result<String> {
        let id = self.next_id;
        self.next_id += 1;
        match self.roundtrip(&Frame::Health { id })? {
            Frame::HealthReply { id: rid, text } if rid == id => Ok(text),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected health reply {other:?}"),
            )),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> std::io::Result<()> {
        let id = self.next_id;
        self.next_id += 1;
        match self.roundtrip(&Frame::Ping { id })? {
            Frame::Pong { id: rid } if rid == id => Ok(()),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected pong {other:?}"),
            )),
        }
    }
}
