//! The in-process cluster fixture the cluster tests share: `n`
//! [`ClusterNode`]s over [`MapIndex`]es, each behind a real [`TcpServer`].

// Each integration test compiles its own copy; not all use every item.
#![allow(dead_code)]

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use pacsrv::cluster::ClusterNode;
use pacsrv::wire::PartitionMap;
use pacsrv::{FrameHandler, PacService, ServiceConfig, TcpServer};

use super::MapIndex;

pub struct Cluster {
    pub nodes: Vec<Arc<ClusterNode<MapIndex>>>,
    pub servers: Vec<TcpServer>,
    pub endpoints: Vec<String>,
}

/// Binds `n` listeners first (so the map can name real ephemeral ports),
/// then attaches one service + cluster node per listener.
pub fn start_cluster(tag: &str, n: usize) -> Cluster {
    start_cluster_behind(tag, n, |node| node)
}

/// [`start_cluster`] with every node served through `wrap(node)` — how a
/// test puts a delay or a fault between the sockets and the nodes.
pub fn start_cluster_behind<H: FrameHandler>(
    tag: &str,
    n: usize,
    wrap: impl Fn(Arc<ClusterNode<MapIndex>>) -> Arc<H>,
) -> Cluster {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let endpoints: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    let map = PartitionMap::split_u64(&endpoints);
    let mut nodes = Vec::new();
    let mut servers = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let cfg = ServiceConfig {
            shards: 2,
            numa_pin: false,
            ..ServiceConfig::named(&format!("pacsrv-{tag}-{i}"), 2)
        };
        let service = PacService::start(MapIndex::default(), cfg);
        let node = ClusterNode::start(service, &endpoints[i], map.clone()).expect("cluster node");
        servers.push(TcpServer::serve(wrap(node.clone()), listener).expect("serve"));
        nodes.push(node);
    }
    Cluster {
        nodes,
        servers,
        endpoints,
    }
}

impl Cluster {
    pub fn stop(self) {
        for s in self.servers {
            s.stop();
        }
        for n in self.nodes {
            n.service().shutdown(Duration::from_secs(5));
        }
    }
}

/// A key in the first third of the u64 key space (partition 0 of 3).
pub fn p0_key(i: u64) -> Vec<u8> {
    let stride = u64::MAX / 3;
    (i % stride).to_be_bytes().to_vec()
}

/// A key anywhere in the u64 key space.
pub fn spread_key(i: u64) -> Vec<u8> {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes().to_vec()
}
