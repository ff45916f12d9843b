//! End-to-end TCP loopback: multiple clients, mixed batches, clean stop.

mod common;

use std::io::{Read as _, Write as _};
use std::time::Duration;

use common::MapIndex;
use obsv::trace::TraceCtx;
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
fn stats_endpoint_answers_over_tcp() {
    let cfg = ServiceConfig {
        shards: 2,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-tcp-stats", 2)
    };
    let service = PacService::start(MapIndex::default(), cfg);
    let server = TcpServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut client = TcpClient::connect(addr).expect("connect");
    for i in 0..10u64 {
        let resps = client
            .call(vec![Request::Put {
                key: i.to_be_bytes().to_vec(),
                value: i,
            }])
            .expect("call");
        assert_eq!(resps, vec![Response::Ok]);
    }
    let json = client.stats().expect("stats");
    assert!(
        json.starts_with("{\"schema\":\"pacsrv_stats/v1\""),
        "{json}"
    );
    assert!(json.contains("\"name\":\"pacsrv-tcp-stats\""), "{json}");
    assert!(json.contains("\"queue_depth\":"), "{json}");
    assert!(json.contains("\"registry\":{"), "{json}");
    assert!(json.contains("\"traces\":{"), "{json}");
    assert!(json.contains("\"flight\":\""), "{json}");

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

#[test]
fn health_scrapes_over_wire_frame_and_plain_http() {
    let cfg = ServiceConfig {
        shards: 2,
        numa_pin: false,
        ..ServiceConfig::named("pacsrv-tcp-health", 2)
    };
    let service = PacService::start(MapIndex::default(), cfg);
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

    // Wire-frame scrape (Health/HealthReply).
    let text = client.health().expect("health frame");
    assert!(
        text.contains("# TYPE pacsrv_tcp_health_queue_depth gauge"),
        "{text}"
    );
    assert!(text.contains("pacsrv_tcp_health_admitted_total"), "{text}");

    // Plain-HTTP scrape, exactly what `curl http://addr/metrics` sends.
    let mut sock = std::net::TcpStream::connect(health.local_addr()).expect("connect http");
    sock.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        .expect("send request");
    let mut reply = String::new();
    sock.read_to_string(&mut reply).expect("read reply");
    assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "{reply}");
    assert!(reply.contains("Content-Type: text/plain"), "{reply}");
    let body = reply.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("pacsrv_tcp_health_admitted_total"), "{body}");
    assert!(
        body.contains("# TYPE obsv_scrape_timestamp_ns gauge"),
        "{body}"
    );

    // Non-GET requests are refused, connection still answered.
    let mut sock = std::net::TcpStream::connect(health.local_addr()).expect("connect http");
    sock.write_all(b"POST /metrics HTTP/1.0\r\n\r\n")
        .expect("send request");
    let mut reply = String::new();
    sock.read_to_string(&mut reply).expect("read reply");
    assert!(reply.starts_with("HTTP/1.0 400"), "{reply}");

    health.stop();
    server.stop();
    assert!(service.shutdown(Duration::from_secs(5)));
}
