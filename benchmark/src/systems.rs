//! Building and tearing down the systems under test, in the one fixed
//! configuration every timed number is taken in: NVM model disabled
//! (wall-clock measures the program, not injected spins), the code's own
//! persist/fence calls, `crash_sim` off, crash-consistent allocator, async
//! SMO replay, one data pool, no pinning, service defaults with one worker
//! per shard.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use pacsrv::wire::{PartitionMap, Request, Response};
use pacsrv::{ClusterNode, PacService, RouterClient, ServiceConfig, TcpClient, TcpServer};
use pactree::{PacTree, PacTreeConfig};
use pmem::{AllocMode, PmemPool};
use ycsb::KeySpace;

use crate::tape::preload_value;

pub type Tree = Arc<PacTree>;
pub type Service = Arc<PacService<Tree>>;

/// How large a run is. Two sizes exist: the one every reported number is
/// taken at, and a 1/20 smoke size that only proves the harness works.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Keys preloaded into each workload's own fresh tree(s).
    pub keys: u64,
    /// Bytes per pool of a single-node tree (a tree has three pools). Pool
    /// creation zero-fills, and that is most of `setup_s`: sized tightly.
    pub pool_bytes: usize,
    /// Bytes per pool of each cluster node's tree.
    pub node_pool_bytes: usize,
    /// Set-ups per run; `setup_s` is their median, the last one is used.
    pub setups: usize,
    /// Acknowledged inserts of the durability pass.
    pub durable_inserts: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        keys: 1_000_000,
        pool_bytes: 256 << 20,
        node_pool_bytes: 64 << 20,
        setups: 3,
        durable_inserts: 20_000,
    };
    pub const SMOKE: Scale = Scale {
        keys: 50_000,
        pool_bytes: 32 << 20,
        node_pool_bytes: 16 << 20,
        setups: 1,
        durable_inserts: 1_000,
    };
}

/// How long set-up and tear-down wait for background work to drain.
pub const DRAIN: Duration = Duration::from_secs(60);

const NODES: usize = 3;

/// Puts per batch while loading a cluster through its router: split three
/// ways (683 each, give or take 25) this stays under a shard queue's
/// 1024-operation bound, so no load request is ever shed.
const LOAD_BATCH: usize = 2048;

pub fn create_tree(name: &str, pool_bytes: usize) -> Tree {
    let mut cfg = PacTreeConfig::named(name).with_pool_size(pool_bytes);
    cfg.alloc_mode = AllocMode::CrashConsistent;
    PacTree::create(cfg).expect("create tree pools")
}

/// Inserts ids `0..keys` from `threads` threads (thread `t` takes the ids
/// congruent to `t`), then drains the updater so no set-up work leaks into
/// the measured phase. One thread gives a tree whose shape repeats exactly.
pub fn preload(tree: &Tree, space: KeySpace, keys: u64, threads: u64) {
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                for id in (t..keys).step_by(threads as usize) {
                    let prev = tree.insert(&space.encode(id), preload_value(id));
                    assert_eq!(prev.expect("pool space"), None, "preload id {id} twice");
                }
            });
        }
    });
    assert!(tree.quiesce(DRAIN), "updater did not drain after preload");
}

/// Bytes the trees' allocators have ever handed out, over the bytes of user
/// data they hold: the space leg of the read/write/space trade.
pub fn space_amp(pools: &[Arc<PmemPool>], live_keys: u64, space: KeySpace) -> f64 {
    let used: u64 = pools.iter().map(|p| p.allocator().high_water()).sum();
    used as f64 / (live_keys * (space.key_len() as u64 + 8)) as f64
}

pub fn destroy_tree(tree: Tree) {
    // The updater takes a reference while it works; `destroy` frees the
    // pools under anyone still holding one.
    tree.stop_updater();
    assert_eq!(
        Arc::strong_count(&tree),
        1,
        "tree still shared at tear-down"
    );
    tree.destroy();
}

fn start_service(tree: &Tree, name: &str, shards: usize) -> Service {
    PacService::start(
        Arc::clone(tree),
        ServiceConfig {
            numa_pin: false,
            ..ServiceConfig::named(name, shards)
        },
    )
}

fn stop_service(service: Service) {
    assert!(service.shutdown(DRAIN), "service did not drain");
    assert_eq!(Arc::strong_count(&service), 1, "service still shared");
}

/// One `PacService` (2 shards) behind a `TcpServer` on loopback.
pub struct Served {
    pub tree: Tree,
    pub service: Service,
    server: TcpServer,
}

impl Served {
    pub fn start(tree: Tree, name: &str) -> Served {
        let service = start_service(&tree, name, 2);
        let server = TcpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
        Served {
            tree,
            service,
            server,
        }
    }

    pub fn connect(&self) -> TcpClient {
        TcpClient::connect(self.server.local_addr()).expect("connect loopback")
    }

    /// Every client must be dropped first: connection threads end at EOF.
    pub fn stop(self) -> Tree {
        self.server.stop();
        stop_service(self.service);
        self.tree
    }
}

/// Three `ClusterNode`s (one shard each, own tree) behind `TcpServer`s,
/// with `PartitionMap::split_u64` installed. `KeySpace::Integer` keys are
/// FNV-scattered, so each of the three ranges gets a third of them.
pub struct Cluster {
    pub trees: Vec<Tree>,
    pub nodes: Vec<Arc<ClusterNode<Tree>>>,
    servers: Vec<TcpServer>,
    endpoints: Vec<String>,
}

impl Cluster {
    pub fn start(name: &str, pool_bytes: usize) -> Cluster {
        // Bind first: the map must name real endpoints before a node exists.
        let listeners: Vec<TcpListener> = (0..NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let endpoints: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("bound address").to_string())
            .collect();
        let map = PartitionMap::split_u64(&endpoints);
        let mut cluster = Cluster {
            trees: Vec::new(),
            nodes: Vec::new(),
            servers: Vec::new(),
            endpoints,
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let name = format!("{name}-n{i}");
            let tree = create_tree(&name, pool_bytes);
            let service = start_service(&tree, &name, 1);
            let node = ClusterNode::start(service, &cluster.endpoints[i], map.clone())
                .expect("valid partition map");
            cluster
                .servers
                .push(TcpServer::serve(Arc::clone(&node), listener).expect("serve"));
            cluster.nodes.push(node);
            cluster.trees.push(tree);
        }
        cluster
    }

    pub fn connect(&self) -> RouterClient {
        RouterClient::connect(&self.endpoints).expect("fetch partition map")
    }

    /// Loads ids `0..keys` through `router`; every put must be acknowledged.
    pub fn load(&self, router: &mut RouterClient, keys: u64) {
        for start in (0..keys).step_by(LOAD_BATCH) {
            let end = (start + LOAD_BATCH as u64).min(keys);
            let reqs: Vec<Request> = (start..end)
                .map(|id| Request::Put {
                    key: KeySpace::Integer.encode(id),
                    value: preload_value(id),
                })
                .collect();
            let sent = reqs.len();
            let resps = router.call(reqs).expect("cluster load");
            assert!(
                resps.len() == sent && resps.iter().all(|r| *r == Response::Ok),
                "cluster load: a put was not acknowledged"
            );
        }
        for tree in &self.trees {
            assert!(tree.quiesce(DRAIN), "updater did not drain after load");
        }
    }

    pub fn pools(&self) -> Vec<Arc<PmemPool>> {
        self.trees.iter().flat_map(|t| t.pools()).collect()
    }

    /// The router must be dropped first: connection threads end at EOF.
    pub fn stop(self) -> Vec<Tree> {
        for server in self.servers {
            server.stop();
        }
        for node in self.nodes {
            let service = Arc::clone(node.service());
            drop(node);
            stop_service(service);
        }
        self.trees
    }
}
