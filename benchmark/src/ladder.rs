//! The per-layer pass (`--trace 1`): one generator thread
//! climbs the stack rung by rung — pmem, PDL-ART, the tree, then the same
//! 16-operation batches through `call_direct`, the codec, loopback TCP and
//! the cluster router — timing each call from outside and recording spans
//! around it. A layer's self time is its rung's median minus the rung below.
//!
//! Two passes share the first tree. The *counting pass* runs first, under
//! `NvmModelConfig::accounting()`, on a tree loaded by one thread with fixed
//! operation counts and the updater drained between phases: its counts must
//! repeat exactly. The *timing pass* then runs with the model disabled, each
//! rung for an equal share of the asked time, as the wall clock saw it.
//!
//! The ladder replays its own seeded tapes, so its numbers do not depend on
//! which workload a traced run names. Successive rungs consume successive
//! stretches of one tape rather than literally the same requests: each
//! stretch leaves writes behind that the next must expect.

use std::hint::black_box;
use std::sync::atomic::AtomicU8;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pacsrv::wire::{decode_frame, encode_frame, Frame};
use pacsrv::LocalClient;
use pactree::data::NODE_SLOTS;
use pdl_art::{PdlArt, PdlArtConfig};
use pmem::pool::PoolConfig;
use pmem::stats::StatsSnapshot;
use pmem::{AllocMode, NvmModelConfig, PmemPool};
use ycsb::{Distribution, KeySpace, Mix};

use crate::catalogue::{Ops, Path, WorkloadDef, LADDER, ZIPF};
use crate::client::{to_request, Client, Library, LibraryClient, Route, ServiceClient};
use crate::span::{self_times, Recorder, NO_PARENT};
use crate::stats::median;
use crate::systems::{self, Cluster, Scale, Served, DRAIN};
use crate::tape::{preload_value, Kind, Tape, TapeOp, ONLY_SCAN_COUNT};

/// Operations per request on every rung: the service paths' wire batch, and
/// on the library rungs enough calls per clock read that the clock (about
/// 25 ns) stays under 2 ns per operation.
const BATCH: usize = 16;

/// Requests per rung whose spans are kept for `trace.json`; every request is
/// timed, but a second of 100 ns calls would be millions of spans.
const SPANS_KEPT: u64 = 256;

/// Rungs that share the asked time equally.
const TIMED_RUNGS: f64 = 24.0;

/// Requests per phase of the counting pass (x16 operations each).
const COUNTED_REQUESTS: u64 = 2048;

/// Batches behind the exact wire-size and fan-out counts.
const COUNTED_BATCHES: usize = 4096;

/// Tapes of the ladder: one client, batches of 16, the mix switched per rung.
const fn ladder_def(name: &'static str, space: KeySpace) -> WorkloadDef {
    WorkloadDef {
        name,
        why: "",
        path: Path::Embedded,
        ops: Ops::Only(Kind::Lookup),
        distribution: Distribution::Uniform,
        space,
        clients: 1,
        batch: BATCH,
        slice_requests: 0,
    }
}
const INT_TREE: WorkloadDef = ladder_def("ladder.int", KeySpace::Integer);
const STR_TREE: WorkloadDef = ladder_def("ladder.str", KeySpace::String);
const INT_ART: WorkloadDef = ladder_def("ladder.art", KeySpace::Integer);
const STR_ART: WorkloadDef = ladder_def("ladder.art_str", KeySpace::String);
const CLUSTER: WorkloadDef = ladder_def("ladder.cluster", KeySpace::Integer);

/// What a rung measured.
struct Rung {
    /// Median duration of the measured call, per request.
    call_ns: f64,
    /// Requests completed per second.
    per_s: f64,
}

pub struct Ladder {
    rec: Recorder,
    next_request: u64,
    budget: Duration,
    values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The fingerprint-probe kernel the runtime dispatch picked.
    pub kernel: &'static str,
}

impl Ladder {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LADDER.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.values.push((name, value));
    }

    /// Times `client.issue` over requests drawn by `fill` until `budget` is
    /// spent or `fill` has no more. With `spans` off nothing is timed per
    /// request (the tracing-overhead baseline).
    fn rung(
        &mut self,
        name: &'static str,
        client: &mut dyn Client,
        fill: &mut dyn FnMut(&mut Vec<TapeOp>) -> bool,
        budget: Duration,
        spans: bool,
        after_each: &mut dyn FnMut(),
    ) -> Rung {
        let mut ops: Vec<TapeOp> = Vec::with_capacity(BATCH);
        let mut calls: Vec<f64> = Vec::new();
        let (mut requests, mut done, mut failed) = (0u64, 0u64, 0u64);
        let begin = self.rec.now_ns();
        let spent_ns = loop {
            let t0 = self.rec.now_ns();
            ops.clear();
            if !fill(&mut ops) {
                break t0 - begin;
            }
            client.prepare(&ops);
            let end = if spans {
                let t1 = self.rec.now_ns();
                client.issue(&ops);
                let t2 = self.rec.now_ns();
                failed += client.verify(&ops);
                let t3 = self.rec.now_ns();
                calls.push((t2 - t1) as f64);
                if requests < SPANS_KEPT {
                    let id = self.next_request;
                    self.next_request += 1;
                    let root = self.rec.record("request", t0, t3, NO_PARENT, id);
                    self.rec.record("ycsb.gen", t0, t1, root, id);
                    self.rec.record(name, t1, t2, root, id);
                    self.rec.record("verify", t2, t3, root, id);
                }
                t3
            } else {
                client.issue(&ops);
                failed += client.verify(&ops);
                self.rec.now_ns()
            };
            requests += 1;
            done += ops.len() as u64;
            after_each();
            if u128::from(end - begin) >= budget.as_nanos() {
                break end - begin;
            }
        };
        self.attempted += done;
        self.failed += failed;
        Rung {
            call_ns: median(&calls),
            per_s: requests as f64 / (spent_ns as f64 / 1e9),
        }
    }

    /// A rung over `tape` in mix `ops`, spans on.
    fn tape_rung(
        &mut self,
        name: &'static str,
        client: &mut dyn Client,
        tape: &mut Tape,
        ops: Ops,
        distribution: Distribution,
    ) -> Rung {
        tape.switch(ops, distribution);
        let mut fill = |buf: &mut Vec<TapeOp>| {
            // A remove rung ends when the inserts it consumes run out.
            if ops == Ops::Only(Kind::Remove) && tape.own_inserts() < BATCH {
                return false;
            }
            buf.extend((0..BATCH).map(|_| tape.next_op()));
            true
        };
        let budget = self.budget;
        self.rung(name, client, &mut fill, budget, true, &mut || {})
    }

    /// A fixed number of untimed requests (the counting pass).
    fn counted(&mut self, client: &mut dyn Client, tape: &mut Tape, kind: Kind) -> u64 {
        tape.switch(Ops::Only(kind), Distribution::Uniform);
        let mut ops = Vec::with_capacity(BATCH);
        for _ in 0..COUNTED_REQUESTS {
            ops.clear();
            ops.extend((0..BATCH).map(|_| tape.next_op()));
            client.prepare(&ops);
            client.issue(&ops);
            self.failed += client.verify(&ops);
        }
        self.attempted += COUNTED_REQUESTS * BATCH as u64;
        COUNTED_REQUESTS * BATCH as u64
    }

    /// Times `calls` back-to-back invocations of `f` per clock read, for
    /// layers whose single call is shorter than the clock. Returns ns/call.
    fn micro(&mut self, name: &'static str, calls: u64, mut f: impl FnMut()) -> f64 {
        let share = self.budget / 2;
        let mut blocks: Vec<f64> = Vec::new();
        let begin = self.rec.now_ns();
        loop {
            let t0 = self.rec.now_ns();
            for _ in 0..calls {
                f();
            }
            let t1 = self.rec.now_ns();
            blocks.push((t1 - t0) as f64);
            if (blocks.len() as u64) <= SPANS_KEPT {
                let id = self.next_request;
                self.next_request += 1;
                let root = self.rec.record("request", t0, t1, NO_PARENT, id);
                self.rec.record(name, t0, t1, root, id);
            }
            if t1 - begin >= share.as_nanos() as u64 {
                break;
            }
        }
        median(&blocks) / calls as f64
    }
}

/// The media counters of every pool together. Only the counted tree is
/// alive during the counting pass, and fences are counted nowhere else.
fn media() -> StatsSnapshot {
    pmem::stats::global().snapshot()
}

pub fn run(scale: &Scale, seed: u64, seconds: f64) -> Ladder {
    pmem::model::set_config(NvmModelConfig::disabled());
    let mut l = Ladder {
        rec: Recorder::new(),
        next_request: 0,
        budget: Duration::from_secs_f64(seconds / TIMED_RUNGS),
        values: Vec::new(),
        attempted: 0,
        failed: 0,
        kernel: pactree::simd::active().name(),
    };
    pmem_rungs(&mut l);
    small_rungs(&mut l, scale, seed);
    let (tree, tape) = int_tree_rungs(&mut l, scale, seed);
    service_rungs(&mut l, tree, tape);
    str_tree_rung(&mut l, scale, seed);
    art_rungs(&mut l, scale, seed);
    cluster_rungs(&mut l, scale, seed);
    l
}

impl Ladder {
    /// Every rung, in catalogue order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        LADDER
            .iter()
            .map(|m| {
                let found = self.values.iter().find(|(n, _)| *n == m.name);
                (
                    m.name,
                    found.unwrap_or_else(|| panic!("{} not measured", m.name)).1,
                )
            })
            .collect()
    }

    pub fn trace_json(&self) -> String {
        self.rec.chrome_json()
    }

    /// Per span name: how many were kept, their median duration and their
    /// median self time (duration minus what child spans cover), in ns.
    pub fn span_summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.rec.spans();
        let own = self_times(spans);
        let mut names: Vec<&'static str> = Vec::new();
        for s in spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let (mut durations, mut selves) = (Vec::new(), Vec::new());
                for (s, own) in spans.iter().zip(&own).filter(|(s, _)| s.name == name) {
                    durations.push(s.dur_ns() as f64);
                    selves.push(*own as f64);
                }
                (name, durations.len(), median(&durations), median(&selves))
            })
            .collect()
    }
}

/// `pmem`: one line persisted and fenced; one 256-byte allocate/free pair.
fn pmem_rungs(l: &mut Ladder) {
    let pool = PmemPool::create(
        PoolConfig::volatile("ladder-pmem", 32 << 20).with_alloc_mode(AllocMode::CrashConsistent),
    )
    .expect("create pool");
    let line = pool.allocator().alloc(64).expect("alloc");
    let raw: *mut u8 = line.as_mut_ptr();
    let mut n = 0u8;
    let ns = l.micro("pmem.persist_fence", 256, || {
        n = n.wrapping_add(1);
        // SAFETY: `raw` points at 64 bytes allocated from `pool`, which
        // lives until `destroy_pool` below; only this thread touches them.
        unsafe { raw.write_bytes(n, 64) };
        pmem::persist::persist(raw, 64);
        pmem::persist::fence();
    });
    l.set("pmem.persist_fence_ns", ns);
    let ns = l.micro("pmem.alloc_free", 256, || {
        let p = pool.allocator().alloc(256).expect("alloc");
        pool.allocator().free(black_box(p), 256);
    });
    l.set("pmem.alloc_free_ns", ns);
    let id = pool.id();
    drop(pool);
    pmem::pool::destroy_pool(id);
}

/// Rungs that need no index: the probe kernel, request generation, the wire
/// codec and histogram recording.
fn small_rungs(l: &mut Ladder, scale: &Scale, seed: u64) {
    let fps: [AtomicU8; NODE_SLOTS] = std::array::from_fn(|i| AtomicU8::new((i * 37 + 11) as u8));
    let mut fp = 0u8;
    let ns = l.micro("pactree.data.fp_probe", 1024, || {
        fp = fp.wrapping_add(1);
        black_box(pactree::data::fingerprint_matches(black_box(&fps), fp));
    });
    l.set("pactree.data.fp_probe_ns", ns);

    let srv = crate::catalogue::workload("srv_tcp").expect("srv_tcp");
    let mut tape = Tape::new(srv, scale.keys, seed, 0);
    let ns = l.micro("ycsb.gen", 256, || {
        black_box(to_request(&tape.next_op(), srv.space));
    });
    l.set("ycsb.gen_ns", ns);

    // The b16 Get/Put frames srv_tcp sends, from the head of its tape.
    let mut tape = Tape::new(srv, scale.keys, seed, 0);
    let frames: Vec<Frame> = (0..COUNTED_BATCHES as u64)
        .map(|id| Frame::Request {
            id,
            trace: obsv::trace::TraceCtx::UNTRACED,
            reqs: (0..BATCH)
                .map(|_| to_request(&tape.next_op(), srv.space))
                .collect(),
        })
        .collect();
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut bytes = Vec::new();
            encode_frame(f, &mut bytes);
            bytes
        })
        .collect();
    let mut buf = Vec::with_capacity(1024);
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    l.set(
        "pacsrv.wire.bytes_per_op",
        bytes as f64 / (frames.len() * BATCH) as f64,
    );
    let mut i = 0;
    let ns = l.micro("pacsrv.wire.encode", 64, || {
        buf.clear();
        encode_frame(black_box(&frames[i % frames.len()]), &mut buf);
        black_box(&buf);
        i += 1;
    });
    l.set("pacsrv.wire.encode_ns_per_op", ns / BATCH as f64);
    let mut i = 0;
    let ns = l.micro("pacsrv.wire.decode", 64, || {
        black_box(decode_frame(black_box(&encoded[i % encoded.len()])).expect("own frame"));
        i += 1;
    });
    l.set("pacsrv.wire.decode_ns_per_op", ns / BATCH as f64);

    let hist = obsv::Histogram::new();
    let mut v = 1u64;
    let ns = l.micro("obsv.hist_record", 1024, || {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        hist.record(black_box(v >> 44));
    });
    l.set("obsv.hist_record_ns", ns);
}

/// `pactree` on 8-byte keys: the counting pass, then each operation kind
/// timed apart. Returns the tree for the service rungs.
fn int_tree_rungs(l: &mut Ladder, scale: &Scale, seed: u64) -> (systems::Tree, Tape) {
    let t0 = Instant::now();
    let tree = systems::create_tree("ladder-int", scale.pool_bytes);
    let gib = (3 * scale.pool_bytes) as f64 / (1u64 << 30) as f64;
    l.set(
        "pmem.pool_create_s_per_gib",
        t0.elapsed().as_secs_f64() / gib,
    );
    // One loader thread: the tree's shape, and so every count, repeats.
    systems::preload(&tree, KeySpace::Integer, scale.keys, 1);
    let mut tape = Tape::new(&INT_TREE, scale.keys, seed, 0);
    let mut client = LibraryClient::new(Library::Tree(Arc::clone(&tree)), KeySpace::Integer);

    pmem::model::set_config(NvmModelConfig::accounting());
    tree.stats().reset();
    let before = media();
    let reads = l.counted(&mut client, &mut tape, Kind::Lookup);
    let d = media().since(&before);
    l.set(
        "pmem.media_read_bytes_per_read",
        d.media_read_bytes as f64 / reads as f64,
    );
    l.set(
        "pactree.tree.direct_hit_ratio",
        tree.stats().direct_hit_ratio(),
    );
    l.set(
        "pactree.tree.fp_false_hit_ratio",
        tree.stats().false_hit_ratio(),
    );

    let before = media();
    let scans = l.counted(&mut client, &mut tape, Kind::Scan);
    let d = media().since(&before);
    l.set(
        "pmem.media_read_bytes_per_scan_key",
        d.media_read_bytes as f64 / (scans * ONLY_SCAN_COUNT) as f64,
    );

    tree.stats().reset();
    let before = media();
    let mut writes = 0;
    for kind in [Kind::Update, Kind::Insert, Kind::Remove] {
        writes += l.counted(&mut client, &mut tape, kind);
        assert!(tree.quiesce(DRAIN), "updater did not drain");
    }
    let d = media().since(&before);
    l.set("pmem.flushes_per_write", d.flushes as f64 / writes as f64);
    l.set("pmem.fences_per_write", d.fences as f64 / writes as f64);
    l.set(
        "pmem.media_write_bytes_per_write",
        d.media_write_bytes as f64 / writes as f64,
    );
    l.set("pmem.xpbuffer_hit_ratio", d.xpbuffer_hit_rate());
    let relaxed = std::sync::atomic::Ordering::Relaxed;
    let stats = tree.stats();
    l.set("pactree.tree.splits", stats.splits.load(relaxed) as f64);
    l.set("pactree.tree.merges", stats.merges.load(relaxed) as f64);
    l.set("pactree.tree.retries", stats.retries.load(relaxed) as f64);
    l.set(
        "pactree.smo.replayed",
        stats.smo_replayed.load(relaxed) as f64,
    );
    pmem::model::set_config(NvmModelConfig::disabled());

    let uniform = Distribution::Uniform;
    let per_op = |r: &Rung| r.call_ns / BATCH as f64;
    let r = l.tape_rung(
        "pactree.tree.lookup",
        &mut client,
        &mut tape,
        Ops::Only(Kind::Lookup),
        uniform,
    );
    l.set("pactree.tree.lookup_ns", per_op(&r));
    let r = l.tape_rung(
        "pactree.tree.scan",
        &mut client,
        &mut tape,
        Ops::Only(Kind::Scan),
        uniform,
    );
    l.set(
        "pactree.tree.scan_ns_per_key",
        per_op(&r) / ONLY_SCAN_COUNT as f64,
    );
    let r = l.tape_rung(
        "pactree.tree.update",
        &mut client,
        &mut tape,
        Ops::Only(Kind::Update),
        uniform,
    );
    l.set("pactree.tree.update_ns", per_op(&r));

    // The insert rung is where splits queue work for the updater: sample
    // its backlog after every request, then time the drain.
    tape.switch(Ops::Only(Kind::Insert), uniform);
    let mut pending_max = 0;
    let r = {
        let mut fill = |buf: &mut Vec<TapeOp>| {
            buf.extend((0..BATCH).map(|_| tape.next_op()));
            true
        };
        let mut sample = || pending_max = pending_max.max(tree.pending_smo_count());
        let budget = l.budget;
        l.rung(
            "pactree.tree.insert",
            &mut client,
            &mut fill,
            budget,
            true,
            &mut sample,
        )
    };
    let t0 = Instant::now();
    assert!(tree.quiesce(DRAIN), "updater did not drain");
    l.set("pactree.smo.quiesce_ms", t0.elapsed().as_secs_f64() * 1e3);
    l.set("pactree.smo.pending_max", pending_max as f64);
    l.set("pactree.tree.insert_ns", per_op(&r));
    let r = l.tape_rung(
        "pactree.tree.remove",
        &mut client,
        &mut tape,
        Ops::Only(Kind::Remove),
        uniform,
    );
    l.set("pactree.tree.remove_ns", per_op(&r));
    assert!(tree.quiesce(DRAIN), "updater did not drain");
    (tree, tape)
}

/// The same YCSB-B batches of 16 executed on the tree itself, then through
/// `call_direct`, the codec, and loopback TCP: each rung minus the one below
/// is that layer's self time.
fn service_rungs(l: &mut Ladder, tree: systems::Tree, mut tape: Tape) {
    let space = KeySpace::Integer;
    let mix = Ops::Ycsb(Mix::B);
    let us = |r: &Rung| r.call_ns / 1e3;

    let mut on_tree = LibraryClient::new(Library::Tree(Arc::clone(&tree)), space);
    let tree_batch = l.tape_rung("pactree.tree.batch", &mut on_tree, &mut tape, mix, ZIPF);
    drop(on_tree);

    let served = Served::start(tree, "ladder-int");
    let local = || LocalClient::new(Arc::clone(&served.service));
    let mut direct = ServiceClient::new(Route::Direct(local()), space);
    let call_direct = l.tape_rung(
        "pacsrv.service.call_direct",
        &mut direct,
        &mut tape,
        mix,
        ZIPF,
    );
    l.set("pacsrv.service.call_direct_us", us(&call_direct));
    l.set("pacsrv.service.self_us", us(&call_direct) - us(&tree_batch));
    drop(direct);

    let mut codec = ServiceClient::new(Route::Codec(local()), space);
    let local_call = l.tape_rung(
        "pacsrv.transport.local_call",
        &mut codec,
        &mut tape,
        mix,
        ZIPF,
    );
    l.set("pacsrv.transport.local_call_us", us(&local_call));
    l.set(
        "pacsrv.transport.codec_self_us",
        us(&local_call) - us(&call_direct),
    );
    drop(codec);

    let mut tcp = ServiceClient::new(Route::Tcp(served.connect()), space);
    let tcp_call = l.tape_rung("pacsrv.transport.tcp_call", &mut tcp, &mut tape, mix, ZIPF);
    l.set("pacsrv.transport.tcp_call_us", us(&tcp_call));
    l.set(
        "pacsrv.transport.tcp_self_us",
        us(&tcp_call) - us(&local_call),
    );

    // The same rung with this harness's spans off: what tracing costs.
    let mut fill = |buf: &mut Vec<TapeOp>| {
        buf.extend((0..BATCH).map(|_| tape.next_op()));
        true
    };
    let budget = l.budget;
    let untraced = l.rung("untraced", &mut tcp, &mut fill, budget, false, &mut || {});
    l.set(
        "bench.trace_overhead_ratio",
        untraced.per_s / tcp_call.per_s,
    );

    // Batch of one: the pure hop cost.
    let mut fill = |buf: &mut Vec<TapeOp>| {
        buf.push(tape.next_op());
        true
    };
    let b1 = l.rung(
        "pacsrv.transport.tcp_b1_call",
        &mut tcp,
        &mut fill,
        budget,
        true,
        &mut || {},
    );
    l.set("pacsrv.transport.tcp_b1_call_us", us(&b1));
    drop(tcp);

    let relaxed = std::sync::atomic::Ordering::Relaxed;
    let metrics = served.service.metrics();
    l.set(
        "pacsrv.service.batch_mean",
        metrics.batch_sizes.snapshot().mean(),
    );
    l.set(
        "pacsrv.service.shed_total",
        metrics.shed.load(relaxed) as f64,
    );
    l.set(
        "pacsrv.service.timeouts_total",
        metrics.timeouts.load(relaxed) as f64,
    );
    systems::destroy_tree(served.stop());
}

/// `pactree` on 23-byte string keys (the paper's Fig 9 key type).
fn str_tree_rung(l: &mut Ladder, scale: &Scale, seed: u64) {
    let tree = systems::create_tree("ladder-str", scale.pool_bytes);
    systems::preload(&tree, KeySpace::String, scale.keys, 2);
    let mut tape = Tape::new(&STR_TREE, scale.keys, seed, 0);
    let mut client = LibraryClient::new(Library::Tree(Arc::clone(&tree)), KeySpace::String);
    let r = l.tape_rung(
        "pactree.tree.lookup_str",
        &mut client,
        &mut tape,
        Ops::Only(Kind::Lookup),
        Distribution::Uniform,
    );
    l.set("pactree.tree.lookup_str_ns", r.call_ns / BATCH as f64);
    drop(client);
    systems::destroy_tree(tree);
}

/// Standalone PDL-ART: inserts timed while loading, then lookups, for both
/// key types.
fn art_rungs(l: &mut Ladder, scale: &Scale, seed: u64) {
    for (def, space, pool) in [
        (&INT_ART, KeySpace::Integer, "ladder-art"),
        (&STR_ART, KeySpace::String, "ladder-art-str"),
    ] {
        let cfg = PdlArtConfig::named(pool)
            .with_pool_size(scale.pool_bytes)
            .with_alloc_mode(AllocMode::CrashConsistent);
        let art = PdlArt::create(cfg).expect("create art pool");
        let mut client = LibraryClient::new(Library::Art(Arc::clone(&art)), space);
        let mut next = 0u64;
        let mut fill = |buf: &mut Vec<TapeOp>| {
            let end = (next + BATCH as u64).min(scale.keys);
            buf.extend((next..end).map(|id| TapeOp {
                kind: Kind::Insert,
                id,
                arg: preload_value(id),
                expect: None,
            }));
            next = end;
            !buf.is_empty()
        };
        // Loading runs to the last key, whatever a rung's time share is.
        let load = l.rung(
            "pdl_art.insert",
            &mut client,
            &mut fill,
            Duration::MAX,
            true,
            &mut || {},
        );
        let mut tape = Tape::new(def, scale.keys, seed, 0);
        let lookups = l.tape_rung(
            "pdl_art.lookup",
            &mut client,
            &mut tape,
            Ops::Only(Kind::Lookup),
            Distribution::Uniform,
        );
        if space == KeySpace::Integer {
            l.set("pdl_art.insert_ns", load.call_ns / BATCH as f64);
            l.set("pdl_art.lookup_ns", lookups.call_ns / BATCH as f64);
        } else {
            l.set("pdl_art.lookup_str_ns", lookups.call_ns / BATCH as f64);
        }
        drop(client);
        assert_eq!(Arc::strong_count(&art), 1);
        art.destroy();
    }
}

/// The headline path: the same batches through a `RouterClient` over three
/// nodes, against the single-node TCP rung.
fn cluster_rungs(l: &mut Ladder, scale: &Scale, seed: u64) {
    let cluster = Cluster::start("ladder-cluster", scale.node_pool_bytes);
    let mut router = cluster.connect();
    cluster.load(&mut router, scale.keys);

    // Fan-out of the first batches of the tape, from the router's own map.
    let mut tape = Tape::new(&CLUSTER, scale.keys, seed, 0);
    tape.switch(Ops::Ycsb(Mix::B), ZIPF);
    let mut endpoints = 0usize;
    for _ in 0..COUNTED_BATCHES {
        let mut owners: Vec<&str> = (0..BATCH)
            .map(|_| {
                let key = KeySpace::Integer.encode(tape.next_op().id);
                router.map().owner_of(&key).endpoint.as_str()
            })
            .collect();
        owners.sort_unstable();
        owners.dedup();
        endpoints += owners.len();
    }
    l.set(
        "pacsrv.cluster.endpoints_per_batch",
        endpoints as f64 / COUNTED_BATCHES as f64,
    );

    let mut tape = Tape::new(&CLUSTER, scale.keys, seed, 0);
    let mut client = ServiceClient::new(Route::Router(router), KeySpace::Integer);
    let r = l.tape_rung(
        "pacsrv.cluster.router_call",
        &mut client,
        &mut tape,
        Ops::Ycsb(Mix::B),
        ZIPF,
    );
    let router_us = r.call_ns / 1e3;
    let tcp_us = l
        .values
        .iter()
        .find(|(n, _)| *n == "pacsrv.transport.tcp_call_us")
        .expect("the TCP rung runs first")
        .1;
    l.set("pacsrv.cluster.router_call_us", router_us);
    l.set("pacsrv.cluster.router_self_us", router_us - tcp_us);
    let Route::Router(router) = &client.route else {
        unreachable!()
    };
    l.set("pacsrv.cluster.map_refreshes", router.refreshes() as f64);
    let bounced: u64 = cluster
        .nodes
        .iter()
        .map(|n| n.wrong_partition_total())
        .sum();
    l.set("pacsrv.cluster.wrong_partition_total", bounced as f64);
    drop(client);
    cluster.stop().into_iter().for_each(systems::destroy_tree);
}
