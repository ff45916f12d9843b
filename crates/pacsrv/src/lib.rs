//! pacsrv — a sharded, batched request service ("pacd") for the PAC indexes.
//!
//! The embedded benchmarks drive indexes as libraries; real deployments put
//! an index behind a service boundary. This crate is that boundary, built to
//! keep the PAC guidelines intact end to end:
//!
//! * **Sharding** ([`service`]) — thread-per-core workers, requests routed
//!   by key hash so per-key FIFO order is preserved and shard state stays
//!   core-local.
//! * **Batching** ([`queue`]) — bounded per-shard queues drained up to a
//!   configurable batch size per wakeup; one epoch pin and one clock read
//!   per operation are amortized across the drained batch.
//! * **Admission control** — bounded queues; overload answers [`wire::Response::Overloaded`]
//!   immediately instead of letting queues grow, and per-op deadlines drop
//!   expired work with [`wire::Response::DeadlineExceeded`].
//! * **Wire codec** ([`wire`]) — compact, checksummed binary frames in one
//!   frozen format, usable over TCP or in process.
//! * **Transports** ([`transport`]) — a zero-copy in-process client, a
//!   codec-path in-process client, and a `std::net` TCP server/client pair
//!   sharing one frame handler.
//! * **Health exposition** — a plain-HTTP [`transport::HealthServer`],
//!   the one way telemetry leaves a node: `GET /metrics` answers the live
//!   registry in Prometheus text format, so `curl` or [`obsv::fleet`] can
//!   scrape a running server, and `GET /spans` the retained trace spans
//!   that [`obsv::trace::stitch`] joins across nodes.
//! * **Lifecycle** — graceful drain-on-shutdown via the index's `drain`
//!   hook, or [`service::PacService::kill`] to simulate an abrupt crash for
//!   recovery testing.
//!
//! * **Clustering** ([`cluster`]) — a range-partitioned key space across
//!   multiple nodes: a versioned [`wire::PartitionMap`] with an epoch
//!   number, per-node ownership enforcement answering
//!   [`wire::Response::WrongPartition`], a map-caching
//!   [`cluster::RouterClient`], and live partition migration built on the
//!   MVCC snapshot/diff primitives.
//!
//! Metrics ([`metrics`]) feed the always-on `obsv` registry, so `pacsrv`
//! runs show up in the same report pipeline as embedded runs, and
//! 1 in 64 submitted requests is traced ([`obsv::trace`]).

pub mod cluster;
pub mod metrics;
pub mod queue;
pub mod reply;
pub mod service;
pub mod transport;
pub mod wire;

pub use cluster::{ClusterNode, MigrationReport, RouterClient};
pub use metrics::ServiceMetrics;
pub use queue::{BatchQueue, PopStatus};
pub use reply::ReplySet;
pub use service::{PacService, ServiceConfig};
pub use transport::{FrameHandler, HealthServer, LocalClient, TcpClient, TcpServer};
pub use wire::{
    decode_frame, encode_frame, Frame, MigrateOp, Partition, PartitionMap, Request, Response,
    WireError,
};
