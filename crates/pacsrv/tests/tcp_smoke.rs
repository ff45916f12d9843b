//! End-to-end TCP loopback: multiple clients, mixed batches, clean stop.

mod common;

use std::io::{Read as _, Write as _};
use std::time::Duration;

use common::MapIndex;
use obsv::trace::{self, SpanKind, TraceCtx};
use pacsrv::wire::{crc32, decode_frame, encode_frame, Frame, Request, Response, HEADER_LEN};
use pacsrv::{HealthServer, PacService, ServiceConfig, TcpClient, TcpServer};

#[test]
fn tcp_loopback_roundtrip() {
    let cfg = ServiceConfig {
        shards: 2,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-tcp", 2)
    };
    let service = PacService::start(MapIndex::default(), cfg);
    let server = TcpServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                client.ping().expect("ping");
                for i in 0..50u64 {
                    let key = (c * 1000 + i).to_be_bytes().to_vec();
                    let resps = client
                        .call(vec![
                            Request::Put {
                                key: key.clone(),
                                value: i,
                            },
                            Request::Get { key: key.clone() },
                            Request::Scan {
                                start: key.clone(),
                                count: 4,
                            },
                            Request::Delete { key: key.clone() },
                            Request::Get { key },
                        ])
                        .expect("call");
                    assert_eq!(resps.len(), 5);
                    assert_eq!(resps[0], Response::Ok);
                    assert_eq!(resps[1], Response::Value(Some(i)));
                    assert!(matches!(resps[2], Response::ScanCount(n) if n >= 1));
                    assert_eq!(resps[3], Response::Removed(Some(i)));
                    assert_eq!(resps[4], Response::Value(None));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    server.stop();
    assert!(service.shutdown(Duration::from_secs(5)));
}

#[test]
fn finished_connection_handles_are_reaped() {
    let cfg = ServiceConfig {
        shards: 1,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-tcp-reap", 1)
    };
    let service = PacService::start(MapIndex::default(), cfg);
    let server = TcpServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Sequential connect/ping/drop cycles: without reaping, every one of
    // these would leave a joinable handle behind for the server's lifetime.
    for _ in 0..8 {
        let mut client = TcpClient::connect(addr).expect("connect");
        client.ping().expect("ping");
        drop(client);
    }
    // Dropped sockets EOF their handlers; give them a moment to exit, then
    // the reap in open_conns must bring the list (close to) empty. The
    // accept loop also reaps, so the bound holds without calling
    // open_conns in between.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let open = server.open_conns();
        if open <= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{open} connection handles still unreaped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    server.stop();
    assert!(service.shutdown(Duration::from_secs(5)));
}

#[test]
fn foreign_version_frame_gets_one_malformed_reply() {
    let cfg = ServiceConfig {
        shards: 1,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-tcp-version", 1)
    };
    let service = PacService::start(MapIndex::default(), cfg);
    let server = TcpServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // A frame stamped with any other protocol version — here an otherwise
    // valid v1 request — is answered once (at VERSION: nothing else
    // decodes) and hung up on.
    let mut frame = Vec::new();
    encode_frame(
        &Frame::Request {
            id: 7,
            trace: TraceCtx::UNTRACED,
            reqs: vec![Request::Get {
                key: 3u64.to_be_bytes().to_vec(),
            }],
        },
        &mut frame,
    );
    frame[2] = 1;
    let crc = crc32(&[&frame[..16], &frame[HEADER_LEN..]]);
    frame[16..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    raw.write_all(&frame).expect("send v1 frame");
    let mut answer = Vec::new();
    raw.read_to_end(&mut answer).expect("read until EOF");
    assert_eq!(
        decode_frame(&answer),
        Ok((
            Frame::Reply {
                id: 0,
                resps: vec![Response::Malformed],
            },
            answer.len()
        )),
        "exactly one reply frame before EOF"
    );

    server.stop();
    assert!(service.shutdown(Duration::from_secs(5)));
}

/// A one-`Get` request frame with correlation id `id`.
fn get_frame(id: u64) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(
        &Frame::Request {
            id,
            trace: TraceCtx::UNTRACED,
            reqs: vec![Request::Get {
                key: id.to_be_bytes().to_vec(),
            }],
        },
        &mut frame,
    );
    frame
}

#[test]
fn bad_checksum_gets_one_malformed_reply_then_eof() {
    let cfg = ServiceConfig {
        shards: 1,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-tcp-crc", 1)
    };
    let service = PacService::start(MapIndex::default(), cfg);
    let server = TcpServer::start(service.clone(), "127.0.0.1:0").expect("bind");

    let mut frame = get_frame(5);
    *frame.last_mut().unwrap() ^= 0x10; // one payload bit: the CRC no longer matches
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.write_all(&frame).expect("send corrupt frame");
    let mut answer = Vec::new();
    raw.read_to_end(&mut answer).expect("read until EOF");
    assert_eq!(
        decode_frame(&answer),
        Ok((
            Frame::Reply {
                id: 0,
                resps: vec![Response::Malformed],
            },
            answer.len()
        )),
        "exactly one reply frame before EOF"
    );

    server.stop();
    assert!(service.shutdown(Duration::from_secs(5)));
}

#[test]
fn frames_in_one_write_get_replies_in_order() {
    let cfg = ServiceConfig {
        shards: 1,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-tcp-pair", 1)
    };
    let service = PacService::start(MapIndex::default(), cfg);
    let server = TcpServer::start(service.clone(), "127.0.0.1:0").expect("bind");

    let mut both = get_frame(21);
    both.extend_from_slice(&get_frame(22));
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.write_all(&both).expect("send two frames");
    let mut acc = Vec::new();
    let mut ids = Vec::new();
    while ids.len() < 2 {
        match decode_frame(&acc) {
            Ok((Frame::Reply { id, resps }, n)) => {
                assert_eq!(resps, vec![Response::Value(None)]);
                ids.push(id);
                acc.drain(..n);
            }
            Ok((other, _)) => panic!("unexpected frame {other:?}"),
            Err(_) => {
                let mut chunk = [0u8; 256];
                let n = raw.read(&mut chunk).expect("read replies");
                assert!(n > 0, "EOF after {} replies", ids.len());
                acc.extend_from_slice(&chunk[..n]);
            }
        }
    }
    assert_eq!(ids, vec![21, 22], "one reply per frame, in order");

    server.stop();
    assert!(service.shutdown(Duration::from_secs(5)));
}

#[test]
fn health_scrapes_over_plain_http() {
    // Every op takes 2 ms, so a traced request outlives the 1 ms keep
    // threshold and its spans are retained.
    let cfg = ServiceConfig {
        shards: 2,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-tcp-health", 2)
    };
    let service = PacService::start(MapIndex::slow(Duration::from_millis(2)), cfg);
    let server = TcpServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let health = HealthServer::start(service.clone(), "127.0.0.1:0").expect("bind health");

    let mut client = TcpClient::connect(server.local_addr()).expect("connect");
    for i in 0..10u64 {
        client
            .call(vec![Request::Put {
                key: i.to_be_bytes().to_vec(),
                value: i,
            }])
            .expect("call");
    }

    // Exactly what `curl http://addr/<path>` sends; returns the reply.
    let get = |request: &str| {
        let mut sock = std::net::TcpStream::connect(health.local_addr()).expect("connect http");
        sock.write_all(format!("{request} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .expect("send request");
        let mut reply = String::new();
        sock.read_to_string(&mut reply).expect("read reply");
        reply
    };
    let reply = get("GET /metrics");
    assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "{reply}");
    assert!(reply.contains("Content-Type: text/plain"), "{reply}");
    let body = reply.split("\r\n\r\n").nth(1).expect("body");
    assert!(
        body.contains("# TYPE pacsrv_tcp_health_queue_depth gauge"),
        "{body}"
    );
    assert!(body.contains("pacsrv_tcp_health_admitted_total"), "{body}");
    assert!(
        body.contains("# TYPE pacsrv_tcp_health_shed_total gauge"),
        "{body}"
    );
    // The service's op histograms, as a summary with exact bucket lines.
    assert!(
        body.contains("# TYPE pacsrv_tcp_health_latency_ns summary"),
        "{body}"
    );
    assert!(
        body.contains("pacsrv_tcp_health_latency_ns_count{op="),
        "{body}"
    );
    assert!(
        body.contains("# TYPE obsv_scrape_timestamp_ns gauge"),
        "{body}"
    );

    // A forced-trace slow request: `/spans` serves its root.
    let ctx = trace::stamp_forced();
    client.set_trace(ctx);
    client
        .call(vec![Request::Get {
            key: 3u64.to_be_bytes().to_vec(),
        }])
        .expect("traced call");
    let reply = get("GET /spans");
    assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "{reply}");
    let dump = reply.split("\r\n\r\n").nth(1).expect("body");
    let spans = trace::parse_span_dump(dump);
    assert!(
        spans
            .iter()
            .any(|s| s.trace_id == ctx.trace_id && s.kind == SpanKind::Root),
        "{dump}"
    );

    // Other paths are not found; non-GET requests are refused.
    assert!(get("GET /stats").starts_with("HTTP/1.0 404"));
    let reply = get("POST /metrics");
    assert!(reply.starts_with("HTTP/1.0 400"), "{reply}");

    health.stop();
    server.stop();
    assert!(service.shutdown(Duration::from_secs(5)));
}
