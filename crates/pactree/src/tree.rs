//! The PACTree index (paper §4-§5).
//!
//! [`PacTree`] glues the layers together:
//!
//! * **locate** — traverse the PDL-ART search layer to a *jump node*, then
//!   walk the data-layer doubly linked list, comparing anchor keys, until
//!   the node whose range covers the key is found (§5.3). The walk distance
//!   is recorded for the §6.7 experiment.
//! * **lookup/scan** — optimistic reads against data nodes (§5.3-§5.4).
//! * **insert/update/delete** — write-locked data-node slot protocols with
//!   the bitmap as linearization point (§5.5), triggering asynchronous
//!   split/merge SMOs (§5.6).
//! * **recovery** — generation bump, allocator and PDL-ART log recovery,
//!   and idempotent SMO log replay (§5.9).
//!
//! Pools: the search layer, data layer, and logs each get their own pool
//! set, with one data pool per logical NUMA node (§5.8); allocation is
//! NUMA-local.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use obsv::{OpKind, OpTimer};

use pmem::epoch::Collector;
use pmem::model;
use pmem::persist;
use pmem::pool::{self, PmemPool, PoolConfig, PoolId};
use pmem::pptr::PmPtr;
use pmem::{AllocMode, PmemError, Result};

use crate::data::{node_ref, DataNode, Pair, DATA_NODE_SIZE, MERGE_THRESHOLD, NODE_SLOTS};
use crate::mvcc::{DiffEntry, MvccState, Resolved};
use crate::search::Art;
use crate::smo::{SmoKind, SmoLog, SmoRecord};
use crate::stats::TreeStats;
use crate::updater::Updater;

/// Escalating backoff for the optimistic retry loops: free on the first
/// pass, then spins, yields, and finally sleeps, so retries don't burn the
/// host CPU while a lock holder sleeps through time-dilated NVM stalls.
struct RetryBackoff(u32);

impl RetryBackoff {
    fn new() -> RetryBackoff {
        RetryBackoff(0)
    }

    fn pause_if_retrying(&mut self) {
        let n = self.0;
        self.0 = self.0.saturating_add(1);
        match n {
            0 => {}
            1..=8 => std::hint::spin_loop(),
            9..=64 => std::thread::yield_now(),
            _ => std::thread::sleep(std::time::Duration::from_micros(50)),
        }
    }
}

/// Returns a block to its pool's allocator, if the pool still exists; the
/// body of the deferred frees. Not through `pool::with_pool`: a
/// crash-consistent `free` persists, and `persist` itself runs inside
/// `with_pool`, which must not be reentered.
fn free_in_pool(pool_id: PoolId, ptr: PmPtr<u8>, len: usize) {
    if let Some(p) = pool::pool_by_id(pool_id) {
        p.allocator().free(ptr, len);
    }
}

/// Root-directory slots used by PACTree inside its pools.
const ROOT_ART: usize = 0; // search pool: ART root (slot 1 = ART alloc log)
const ROOT_HEAD: usize = 0; // data pool 0: head data node
const ROOT_SMO: usize = 0; // log pool: SMO log area

/// Configuration for creating or recovering a [`PacTree`].
#[derive(Debug, Clone)]
pub struct PacTreeConfig {
    /// Pool name prefix (pools are `{name}-search`, `{name}-data{n}`,
    /// `{name}-log`).
    pub name: String,
    /// Data pool count = logical NUMA nodes to spread over (GS2).
    pub numa_pools: u16,
    /// Size of each pool in bytes. A reservation, not a cost: pool images
    /// are demand-zero, so a pool occupies memory (and crash/remount takes
    /// time) in proportion to what the tree has allocated from it.
    pub pool_size: usize,
    /// Keep media images for crash simulation.
    pub crash_sim: bool,
    /// Allocator mode for all pools.
    pub alloc_mode: AllocMode,
    /// Replay SMOs in a background thread (the paper's asynchronous
    /// search-layer update). When false, writers replay synchronously in
    /// the critical path (the Figure 12 "+Async Update" ablation's off
    /// state).
    pub async_smo: bool,
    /// Persist the permutation array on rebuild (paper: *off* — selective
    /// persistence §4.4; the Figure 12 ablation turns it on to measure).
    pub persist_permutation: bool,
    /// Place the search layer in emulated DRAM (no NVM model charging),
    /// like FPTree-style hybrids; the paper measures <10% gain (§6.3).
    pub search_layer_dram: bool,
}

impl PacTreeConfig {
    /// Reasonable defaults for tests and examples: one NUMA pool, crash
    /// simulation off, asynchronous SMOs on.
    pub fn named(name: &str) -> Self {
        PacTreeConfig {
            name: name.to_string(),
            numa_pools: 1,
            pool_size: 256 << 20,
            crash_sim: false,
            alloc_mode: AllocMode::Transient,
            async_smo: true,
            persist_permutation: false,
            search_layer_dram: false,
        }
    }

    /// Paper-faithful durable configuration: crash simulation, crash
    /// consistent allocation, per-NUMA data pools.
    pub fn durable(name: &str) -> Self {
        PacTreeConfig {
            crash_sim: true,
            alloc_mode: AllocMode::CrashConsistent,
            numa_pools: pmem::numa::nodes(),
            ..Self::named(name)
        }
    }

    /// Sets the per-pool size.
    pub fn with_pool_size(mut self, bytes: usize) -> Self {
        self.pool_size = bytes;
        self
    }

    /// Sets the number of per-NUMA data pools.
    pub fn with_numa_pools(mut self, n: u16) -> Self {
        self.numa_pools = n.max(1);
        self
    }

    /// Toggles asynchronous SMO replay.
    pub fn with_async_smo(mut self, on: bool) -> Self {
        self.async_smo = on;
        self
    }
}

/// The PACTree persistent range index. Thread-safe; share via `Arc`.
pub struct PacTree {
    config: PacTreeConfig,
    search_pool: Arc<PmemPool>,
    data_pools: Vec<Arc<PmemPool>>,
    log_pool: Arc<PmemPool>,
    pub(crate) art: Art,
    pub(crate) smo: SmoLog,
    /// Versioning subsystem (DESIGN.md §13): snapshot registry, frozen
    /// data-node chains, era counter.
    mvcc: Arc<MvccState>,
    collector: Arc<Collector>,
    stats: TreeStats,
    /// Per-operation latency histograms (obsv recorder).
    ops: obsv::OpHistograms,
    /// Registry guards for this tree's gauges; dropped (and the gauges
    /// unregistered) with the tree.
    obsv_guards: OnceLock<Vec<obsv::Registration>>,
    updater: Updater,
    /// Sum of pool crash counts at assembly; used to detect that a crash
    /// was simulated underneath this instance (its deferred frees are then
    /// invalid and must be discarded, not run).
    birth_crash_count: u64,
}

impl PacTree {
    /// Creates a fresh PACTree (fails if pools with these names exist).
    pub fn create(config: PacTreeConfig) -> Result<Arc<PacTree>> {
        // A pool that cannot be created (its name is taken, say) must not
        // leave the ones made before it registered: their names, and so this
        // tree's, could never be used again.
        let mut made: Vec<PoolId> = Vec::new();
        let mut mk = |suffix: &str, node: u16, dram: bool| {
            let mut pc = PoolConfig {
                name: format!("{}-{}", config.name, suffix),
                size: config.pool_size,
                numa_node: node,
                crash_sim: config.crash_sim,
                alloc_mode: config.alloc_mode,
            };
            if dram {
                pc.crash_sim = false;
                pc.alloc_mode = AllocMode::Transient;
            }
            let p = PmemPool::create(pc)
                .inspect_err(|_| made.iter().for_each(|&id| pool::destroy_pool(id)))?;
            if dram {
                pool::set_dram(p.id(), true);
            }
            made.push(p.id());
            Ok(p)
        };
        let search_pool = mk("search", 0, config.search_layer_dram)?;
        let mut data_pools = Vec::new();
        for n in 0..config.numa_pools {
            data_pools.push(mk(&format!("data{n}"), n, false)?);
        }
        let log_pool = mk("log", 0, false)?;
        Self::assemble(config, search_pool, data_pools, log_pool, true)
    }

    /// Reattaches to existing pools after a (simulated) crash: bumps the
    /// lock generation, recovers allocator and ART allocation logs, replays
    /// pending SMO log entries, and resumes (§5.9).
    pub fn recover(config: PacTreeConfig) -> Result<Arc<PacTree>> {
        crate::lock::bump_global_generation();
        let get = |suffix: &str| {
            pool::pool_by_name(&format!("{}-{}", config.name, suffix))
                .ok_or_else(|| PmemError::PoolNotFound(format!("{}-{}", config.name, suffix)))
        };
        let search_pool = get("search")?;
        let mut data_pools = Vec::new();
        for n in 0..config.numa_pools {
            data_pools.push(get(&format!("data{n}"))?);
        }
        let log_pool = get("log")?;
        for p in std::iter::once(&search_pool)
            .chain(data_pools.iter())
            .chain(std::iter::once(&log_pool))
        {
            p.allocator().recover_logs();
        }
        Self::assemble(config, search_pool, data_pools, log_pool, false)
    }

    fn assemble(
        config: PacTreeConfig,
        search_pool: Arc<PmemPool>,
        data_pools: Vec<Arc<PmemPool>>,
        log_pool: Arc<PmemPool>,
        fresh: bool,
    ) -> Result<Arc<PacTree>> {
        let collector = Arc::new(Collector::new());
        let art = Art::create(Arc::clone(&search_pool), ROOT_ART, Arc::clone(&collector))?;
        let smo = SmoLog::create(&log_pool, log_pool.allocator().root(ROOT_SMO))?;

        if fresh {
            // The head data node covers the whole key space with the empty
            // anchor and is indexed by the search layer from the start, so
            // `locate` always finds a jump node.
            let head_cell = data_pools[0].allocator().root(ROOT_HEAD);
            let dp = Arc::clone(&data_pools[0]);
            data_pools[0]
                .allocator()
                .malloc_to(DATA_NODE_SIZE, head_cell, |raw| {
                    // SAFETY: fresh DATA_NODE_SIZE allocation.
                    unsafe {
                        DataNode::init(raw, b"", &dp, false).expect("head node init");
                    }
                })?;
            art.insert(b"", head_cell.load(Ordering::Acquire))?;
        } else {
            art.recover();
        }

        let birth_crash_count = std::iter::once(&search_pool)
            .chain(data_pools.iter())
            .chain(std::iter::once(&log_pool))
            .map(|p| p.crash_count())
            .sum();
        let tree = Arc::new(PacTree {
            config,
            search_pool,
            data_pools,
            log_pool,
            art,
            smo,
            mvcc: Arc::new(MvccState::new()),
            collector,
            stats: TreeStats::default(),
            ops: obsv::OpHistograms::new(),
            obsv_guards: OnceLock::new(),
            updater: Updater::new(),
            birth_crash_count,
        });

        if !fresh {
            tree.replay_pending_smos_inner(false);
        }
        if tree.config.async_smo {
            tree.updater.start(Arc::downgrade(&tree));
        }
        tree.register_obsv_gauges();
        Ok(tree)
    }

    /// Registers this tree's pipeline gauges (SMO log occupancy and replay
    /// lag, epoch-reclamation backlog, jump-hop histogram, retry count) and
    /// its per-op latency histograms with the global [`obsv::registry`],
    /// under `pactree.<name>.*`. Callbacks capture a `Weak`, so registration
    /// never extends the tree's lifetime; once the tree drops, the gauges
    /// report nothing and the guards unregister them.
    fn register_obsv_gauges(self: &Arc<Self>) {
        let reg = obsv::registry::global();
        let prefix = format!("pactree.{}", self.config.name);
        let mut guards = Vec::new();
        let gauge = |guards: &mut Vec<obsv::Registration>,
                     name: String,
                     f: Box<dyn Fn(&PacTree) -> f64 + Send + Sync>| {
            let w = Arc::downgrade(self);
            guards.push(reg.register_gauge(name, move || w.upgrade().map(|t| f(&t))));
        };
        gauge(
            &mut guards,
            format!("{prefix}.smo.pending"),
            Box::new(|t| t.smo.replay_lag().0 as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.smo.replay_lag_max_slot"),
            Box::new(|t| t.smo.replay_lag().1 as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.epoch.backlog"),
            Box::new(|t| t.collector.queued().saturating_sub(t.collector.executed()) as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.epoch.current"),
            Box::new(|t| t.collector.epoch() as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.jump.direct_hit_ratio"),
            Box::new(|t| t.stats.direct_hit_ratio()),
        );
        for (bucket, label) in ["h0", "h1", "h2", "h3", "h4plus"].into_iter().enumerate() {
            gauge(
                &mut guards,
                format!("{prefix}.jump_hops.{label}"),
                Box::new(move |t| t.stats.jump_histogram()[bucket].1 as f64),
            );
        }
        gauge(
            &mut guards,
            format!("{prefix}.retries"),
            Box::new(|t| t.stats.retries.load(Ordering::Relaxed) as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.fp.false_hit_ratio"),
            Box::new(|t| t.stats.false_hit_ratio()),
        );
        gauge(
            &mut guards,
            format!("{prefix}.mvcc.live_snapshots"),
            Box::new(|t| t.mvcc.live_snapshots() as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.mvcc.cow_nodes"),
            Box::new(|t| (t.mvcc.frozen_nodes() + t.art.cow_copied()) as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.epoch.backlog_age_ns"),
            Box::new(|t| t.collector.backlog_age_ns() as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.mvcc.chain_max"),
            Box::new(|t| t.mvcc.chain_stats().0 as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.mvcc.chain_mean"),
            Box::new(|t| t.mvcc.chain_stats().1),
        );
        // Structural health of the data layer: one O(n) epoch-pinned walk
        // per sample. Only scrape threads pay it (gauges run on sample(),
        // never on an index hot path).
        gauge(
            &mut guards,
            format!("{prefix}.node.count"),
            Box::new(|t| t.occupancy().0 as f64),
        );
        gauge(
            &mut guards,
            format!("{prefix}.node.occupancy"),
            Box::new(|t| {
                let (nodes, live) = t.occupancy();
                if nodes == 0 {
                    0.0
                } else {
                    live as f64 / (nodes * NODE_SLOTS) as f64
                }
            }),
        );
        gauge(
            &mut guards,
            format!("{prefix}.mvcc.pinned_backlog"),
            Box::new(|t| {
                // Reclamation work deferred behind snapshot epoch pins;
                // reads zero whenever no snapshot is live.
                if t.mvcc.live_snapshots() == 0 {
                    0.0
                } else {
                    t.collector.queued().saturating_sub(t.collector.executed()) as f64
                }
            }),
        );
        let w = Arc::downgrade(self);
        guards.push(reg.register_hists(prefix, move || w.upgrade().map(|t| t.ops.snapshot())));
        let _ = self.obsv_guards.set(guards);
    }

    /// The tree's configuration.
    pub fn config(&self) -> &PacTreeConfig {
        &self.config
    }

    /// Operation statistics (jump distances, SMO counts).
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// The epoch collector (exposed for tests).
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// SMO log entries not yet replayed into the search layer.
    pub fn pending_smo_count(&self) -> usize {
        self.smo.pending_count()
    }

    /// Stops the background updater without draining the SMO log. Crash
    /// tests call this before simulating a power failure so no thread of the
    /// pre-crash instance touches the remounted pools (a real crash kills
    /// the process; a simulated one cannot kill threads).
    pub fn stop_updater(&self) {
        self.updater.stop();
    }

    /// Drains the background pipelines after the workload has stopped
    /// issuing operations: waits until the SMO log is empty (nudging the
    /// updater, or replaying inline when `async_smo` is off) and until the
    /// epoch-reclamation backlog has fully executed, so the
    /// `pactree.*.smo.pending` and `pactree.*.epoch.backlog` gauges read
    /// zero. Returns `false` if `timeout` elapsed first (e.g. the updater
    /// was stopped while entries were pending).
    pub fn quiesce(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.pending_smo_count() > 0 {
            if self.config.async_smo {
                self.updater.nudge();
            } else {
                // No background thread exists to race with: replay inline.
                self.replay_pending_smos();
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        // Two-epoch rule: deferred frees need the epoch to advance past
        // their birth epoch plus the grace window, so keep advancing.
        while self.collector.queued() != self.collector.executed() {
            self.collector.try_advance();
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        true
    }

    /// Fraction of locates that reached the target node directly (§6.7).
    pub fn direct_hit_ratio(&self) -> f64 {
        self.stats.direct_hit_ratio()
    }

    /// All pools backing this tree (search, data..., log).
    pub fn pools(&self) -> Vec<Arc<PmemPool>> {
        let mut v = vec![Arc::clone(&self.search_pool)];
        v.extend(self.data_pools.iter().cloned());
        v.push(Arc::clone(&self.log_pool));
        v
    }

    /// Stops the updater and unregisters every pool. Consumes the tree
    /// handle; persistent pointers into the pools dangle afterwards.
    pub fn destroy(self: Arc<Self>) {
        self.updater.stop();
        let ids: Vec<_> = self.pools().iter().map(|p| p.id()).collect();
        drop(self);
        for id in ids {
            pool::destroy_pool(id);
        }
    }

    /// NUMA-local data pool for the calling thread (GS2).
    fn my_data_pool(&self) -> &Arc<PmemPool> {
        let node = pmem::numa::current_node() as usize;
        &self.data_pools[node % self.data_pools.len()]
    }

    fn head_raw(&self) -> u64 {
        self.data_pools[0]
            .allocator()
            .root(ROOT_HEAD)
            .load(Ordering::Acquire)
    }

    // -- Locate (§5.3) -------------------------------------------------------

    /// Finds the data node whose range covers `key`: search-layer floor to a
    /// jump node, then an anchor-guided walk of the data-layer list.
    fn locate(&self, key: &[u8]) -> u64 {
        let jump = self.art.floor(key).unwrap_or_else(|| self.head_raw());
        let mut raw = jump;
        let mut hops = 0usize;
        loop {
            // SAFETY: data nodes are epoch-protected; callers pin before
            // calling locate.
            let node = unsafe { node_ref(raw) };
            if node.deleted.load(Ordering::Acquire) != 0 {
                // Merged away: its prev pointer still leads back into the
                // list (§5.6).
                let prev = node.prev.load(Ordering::Acquire);
                raw = if prev != 0 { prev } else { self.head_raw() };
                hops += 1;
                continue;
            }
            if node.key_below_anchor(key) {
                let prev = node.prev.load(Ordering::Acquire);
                if prev == 0 {
                    break; // head node covers everything below
                }
                raw = prev;
                hops += 1;
                continue;
            }
            let next = node.next.load(Ordering::Acquire);
            if next != 0 {
                // SAFETY: sibling pointers lead to initialized nodes.
                let next_node = unsafe { node_ref(next) };
                if next_node.key_in_or_after(key) {
                    // key >= next.anchor: target is further right. Warm its
                    // fingerprint line while the chase re-checks anchors.
                    crate::simd::prefetch_read(next_node.fingerprints.as_ptr());
                    raw = next;
                    hops += 1;
                    continue;
                }
            }
            break;
        }
        self.stats.record_jump(hops);
        raw
    }

    /// Charges a data-node read to the NVM model.
    #[inline]
    fn charge_node_read(&self, raw: u64, bytes: usize) {
        let p = PmPtr::<u8>::from_raw(raw);
        model::on_read(p.pool_id(), p.offset(), bytes);
    }

    // -- Reads ---------------------------------------------------------------

    /// Counts one optimistic retry, both in the per-tree counter and the
    /// per-operation count fed to the flight recorder.
    #[inline]
    fn note_retry(&self, retries: &mut u32) {
        *retries += 1;
        self.stats.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Point lookup (§5.3).
    pub fn lookup(&self, key: &[u8]) -> Option<u64> {
        let timer = OpTimer::start();
        let mut retries = 0u32;
        let result = self.lookup_inner(key, &mut retries);
        self.ops.finish(OpKind::Lookup, timer, retries);
        result
    }

    fn lookup_inner(&self, key: &[u8], retries: &mut u32) -> Option<u64> {
        let _g = self.collector.pin();
        let mut backoff = RetryBackoff::new();
        loop {
            backoff.pause_if_retrying();
            let raw = self.locate(key);
            // SAFETY: epoch-pinned.
            let node = unsafe { node_ref(raw) };
            // Warm the fingerprint line while the range checks run (§5.3
            // touches the header and sibling anchors before probing).
            crate::simd::prefetch_read(node.fingerprints.as_ptr());
            let Some(token) = node.lock.read_begin() else {
                self.note_retry(retries);
                continue;
            };
            // Range re-check under the token: a concurrent split may have
            // moved the key range.
            if node.deleted.load(Ordering::Acquire) != 0 || node.key_below_anchor(key) {
                self.note_retry(retries);
                continue;
            }
            let next = node.next.load(Ordering::Acquire);
            if next != 0 {
                // SAFETY: epoch-pinned sibling.
                if !unsafe { node_ref(next) }.key_below_anchor(key) {
                    // key >= next anchor: the locate result was stale —
                    // every relocate is a retry, whether or not the version
                    // also moved (the token tells us nothing extra here).
                    self.note_retry(retries);
                    continue;
                }
            }
            // Header + fingerprint line + a couple of candidate slots.
            self.charge_node_read(raw, 192 + key.len().min(64));
            let (slot, false_hits) = node.find_counting(key);
            let result = slot.map(|slot| node.value_at(slot));
            if node.lock.read_validate(token) {
                // Only validated probes feed the quality gauge — a torn
                // read could report phantom mismatches.
                self.stats.record_fp(false_hits, slot.is_some());
                return result;
            }
            self.note_retry(retries);
        }
    }

    /// Range scan: up to `count` pairs with keys ≥ `start`, sorted (§5.4).
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<Pair> {
        let timer = OpTimer::start();
        let mut retries = 0u32;
        let result = self.scan_inner(start, count, &mut retries);
        self.ops.finish(OpKind::Scan, timer, retries);
        result
    }

    fn scan_inner(&self, start: &[u8], count: usize, retries: &mut u32) -> Vec<Pair> {
        let _g = self.collector.pin();
        let mut out: Vec<Pair> = Vec::with_capacity(count.min(4096));
        if count == 0 {
            return out;
        }
        'relocate: loop {
            out.clear();
            let mut raw = self.locate(start);
            loop {
                // SAFETY: epoch-pinned.
                let node = unsafe { node_ref(raw) };
                let Some(token) = node.lock.read_begin() else {
                    self.note_retry(retries);
                    continue 'relocate;
                };
                if node.deleted.load(Ordering::Acquire) != 0 {
                    self.note_retry(retries);
                    continue 'relocate;
                }
                // Whole-node sequential read (GA5): data nodes scan at
                // XPLine-friendly granularity.
                self.charge_node_read(raw, DATA_NODE_SIZE);
                let next = node.next.load(Ordering::Acquire);
                if next != 0 {
                    // Stream the next sorted data node in while this one is
                    // ordered and copied out (§5.4 sequential scans).
                    let np = PmPtr::<u8>::from_raw(next).as_ptr();
                    crate::simd::prefetch_read(np);
                    crate::simd::prefetch_read(np.wrapping_add(64));
                }
                let order =
                    node.sorted_slots(token.version_hint(), self.config.persist_permutation);
                let mut page: Vec<Pair> = Vec::with_capacity(order.len());
                for slot in order {
                    let p = node.pair_at(slot);
                    if p.key.as_slice() >= start {
                        page.push(p);
                    }
                }
                if !node.lock.read_validate(token) {
                    self.note_retry(retries);
                    continue 'relocate;
                }
                for p in page {
                    out.push(p);
                    if out.len() >= count {
                        return out;
                    }
                }
                if next == 0 {
                    return out;
                }
                raw = next;
            }
        }
    }

    // -- Writes (§5.5) --------------------------------------------------------

    /// Inserts or updates `key -> value`; returns the previous value if the
    /// key existed.
    pub fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        let timer = OpTimer::start();
        let mut retries = 0u32;
        let result = self.write_op(key, value, true, &mut retries);
        self.ops.finish(OpKind::Insert, timer, retries);
        result
    }

    /// Updates an existing key; returns the previous value, or `None` if the
    /// key is absent (no insertion happens).
    pub fn update(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        let timer = OpTimer::start();
        let mut retries = 0u32;
        let result = self.write_op(key, value, false, &mut retries);
        self.ops.finish(OpKind::Update, timer, retries);
        result
    }

    fn write_op(
        &self,
        key: &[u8],
        value: u64,
        insert_if_absent: bool,
        retries: &mut u32,
    ) -> Result<Option<u64>> {
        let guard = self.collector.pin();
        let mut backoff = RetryBackoff::new();
        loop {
            backoff.pause_if_retrying();
            let raw = self.locate(key);
            // SAFETY: epoch-pinned.
            let node = unsafe { node_ref(raw) };
            let Some(wg) = node.lock.try_write_lock() else {
                self.note_retry(retries);
                std::thread::yield_now();
                continue;
            };
            if node.deleted.load(Ordering::Acquire) != 0 || node.key_below_anchor(key) {
                drop(wg);
                self.note_retry(retries);
                continue;
            }
            let next = node.next.load(Ordering::Acquire);
            if next != 0 {
                // SAFETY: epoch-pinned sibling; anchors immutable.
                if !unsafe { node_ref(next) }.key_below_anchor(key) {
                    drop(wg);
                    self.note_retry(retries);
                    continue;
                }
            }
            self.charge_node_read(raw, 192 + key.len().min(64));

            let (existing, false_hits) = node.find_counting(key);
            self.stats.record_fp(false_hits, existing.is_some());
            if let Some(old_slot) = existing {
                let old_value = node.value_at(old_slot);
                // Update protocol (§5.5): new pair into a free slot, then
                // one atomic bitmap store swaps old for new.
                let Some(slot) = node.free_slot() else {
                    // Full node: split first, then retry against the halves.
                    self.split(raw, node, &wg, &guard)?;
                    drop(wg);
                    continue;
                };
                self.mvcc.prepare_mutation(raw, node);
                node.write_slot(slot, key, value, self.my_data_pool())?;
                node.publish(1 << slot, 1 << old_slot);
                self.defer_overflow_free(node, old_slot, &guard);
                drop(wg);
                return Ok(Some(old_value));
            }
            if !insert_if_absent {
                drop(wg);
                return Ok(None);
            }
            let Some(slot) = node.free_slot() else {
                self.split(raw, node, &wg, &guard)?;
                drop(wg);
                continue;
            };
            self.mvcc.prepare_mutation(raw, node);
            node.write_slot(slot, key, value, self.my_data_pool())?;
            node.publish(1 << slot, 0);
            drop(wg);
            return Ok(None);
        }
    }

    /// Removes `key`; returns its value if it was present.
    pub fn remove(&self, key: &[u8]) -> Result<Option<u64>> {
        let timer = OpTimer::start();
        let mut retries = 0u32;
        let result = self.remove_inner(key, &mut retries);
        self.ops.finish(OpKind::Remove, timer, retries);
        result
    }

    fn remove_inner(&self, key: &[u8], retries: &mut u32) -> Result<Option<u64>> {
        let guard = self.collector.pin();
        let mut backoff = RetryBackoff::new();
        loop {
            backoff.pause_if_retrying();
            let raw = self.locate(key);
            // SAFETY: epoch-pinned.
            let node = unsafe { node_ref(raw) };
            let Some(wg) = node.lock.try_write_lock() else {
                self.note_retry(retries);
                std::thread::yield_now();
                continue;
            };
            if node.deleted.load(Ordering::Acquire) != 0 || node.key_below_anchor(key) {
                drop(wg);
                self.note_retry(retries);
                continue;
            }
            let next = node.next.load(Ordering::Acquire);
            if next != 0 {
                // SAFETY: epoch-pinned sibling.
                if !unsafe { node_ref(next) }.key_below_anchor(key) {
                    drop(wg);
                    self.note_retry(retries);
                    continue;
                }
            }
            self.charge_node_read(raw, 192 + key.len().min(64));
            let (found, false_hits) = node.find_counting(key);
            self.stats.record_fp(false_hits, found.is_some());
            let Some(slot) = found else {
                drop(wg);
                return Ok(None);
            };
            let old = node.value_at(slot);
            // Delete protocol (§5.5): one atomic bitmap clear.
            self.mvcc.prepare_mutation(raw, node);
            node.publish(0, 1 << slot);
            self.defer_overflow_free(node, slot, &guard);

            // Merge check (§5.6): combined occupancy at most half capacity.
            // Try the right neighbour first (keeps the rightward lock
            // order), then opportunistically the left one.
            let mut merged = false;
            if next != 0 {
                // SAFETY: epoch-pinned sibling.
                let right = unsafe { node_ref(next) };
                if node.live_count() + right.live_count() <= MERGE_THRESHOLD {
                    // Lock order is strictly rightward: we hold `node`.
                    if let Some(rg) = right.lock.try_write_lock() {
                        if right.deleted.load(Ordering::Acquire) == 0
                            && node.next.load(Ordering::Acquire) == next
                        {
                            self.merge(raw, node, next, right)?;
                            merged = true;
                        }
                        drop(rg);
                    }
                }
            }
            let prev = node.prev.load(Ordering::Acquire);
            if !merged && prev != 0 {
                // SAFETY: epoch-pinned sibling.
                let left = unsafe { node_ref(prev) };
                if left.live_count() + node.live_count() <= MERGE_THRESHOLD {
                    // Left-of-held-lock acquisition must stay non-blocking
                    // (all writers use try-locks, so no deadlock — a failed
                    // try just skips the merge).
                    if let Some(lg) = left.lock.try_write_lock() {
                        if left.deleted.load(Ordering::Acquire) == 0
                            && left.next.load(Ordering::Acquire) == raw
                        {
                            // `node` becomes the merge victim.
                            self.merge(prev, left, raw, node)?;
                        }
                        drop(lg);
                    }
                }
            }
            drop(wg);
            return Ok(Some(old));
        }
    }

    fn defer_overflow_free(&self, node: &DataNode, slot: usize, guard: &pmem::epoch::Guard<'_>) {
        if let Some((ov, len)) = node.overflow_of(slot) {
            let pool_id = ov.pool_id();
            self.collector
                .defer(guard, move || free_in_pool(pool_id, ov, len));
        }
    }

    // -- Split (§5.6) ---------------------------------------------------------

    /// Splits a full, write-locked data node. On return the data layer holds
    /// both halves; the search-layer update is deferred to the SMO log.
    fn split(
        &self,
        raw: u64,
        node: &DataNode,
        _wg: &crate::lock::WriteGuard<'_>,
        _guard: &pmem::epoch::Guard<'_>,
    ) -> Result<()> {
        // Attaches to the active request span when a traced request pays
        // for the split inline; inert otherwise (detail 0 = split).
        let _smo_span = obsv::trace::span_here(obsv::trace::SpanKind::Smo, 0);
        // 1. Persist the split intention.
        let ticket = self.smo.append(SmoKind::Split, raw);

        // 2. Allocate the new right node via malloc-to into the log entry's
        //    placeholder (leak freedom): it is born locked and fully
        //    populated with the upper half — by plain stores, since
        //    malloc-to persists the whole node before publishing it.
        let sorted = node.sorted_live_slots();
        debug_assert_eq!(sorted.len(), NODE_SLOTS);
        let moved = &sorted[NODE_SLOTS / 2..];
        let mut anchor = Vec::new();
        node.read_key(moved[0], &mut anchor);
        let pool = self.my_data_pool();
        let old_next = node.next.load(Ordering::Acquire);
        pool.allocator()
            .malloc_to(DATA_NODE_SIZE, ticket.aux_cell(), |ptr| {
                // SAFETY: fresh DATA_NODE_SIZE allocation.
                unsafe {
                    DataNode::init(ptr, &anchor, pool, true).expect("split node init");
                    let new_node = &*(ptr as *const DataNode);
                    new_node.adopt_slots(node, moved);
                    new_node.next.store(old_next, Ordering::Release);
                    new_node.prev.store(raw, Ordering::Release);
                }
            })?;
        let new_raw = ticket.aux_cell().load(Ordering::Acquire);
        // SAFETY: just initialized by malloc_to.
        let new_node = unsafe { node_ref(new_raw) };

        // Versioning (§13): read the era *before* the freeze decision, so a
        // snapshot registering in between sees either a fully-included or a
        // fully-excluded split; freeze the pre-split left state for any live
        // snapshot; stamp the new node into the current era so no older
        // snapshot resolves it as live (its pairs are still present in the
        // left node's frozen capture).
        let era = self.mvcc.current_version();
        self.mvcc.prepare_mutation(raw, node);
        new_node.mvcc_stamp(era);

        // 3. Link the new node to the right of the splitting node; this is
        //    the point where it becomes reachable.
        node.next.store(new_raw, Ordering::Release);
        persist::persist_obj_fenced(&node.next);

        // 4. Drop the moved pairs from the splitting node with one atomic
        //    bitmap update.
        let clear_mask: u64 = moved.iter().map(|&s| 1u64 << s).sum();
        node.publish(0, clear_mask);

        // 5. Fix the right neighbour's back pointer.
        if old_next != 0 {
            // SAFETY: epoch-pinned sibling.
            let right = unsafe { node_ref(old_next) };
            right.prev.store(new_raw, Ordering::Release);
            persist::persist_obj_fenced(&right.prev);
        }

        // 6. Open the new node for business; the SMO log entry stays until
        //    the updater inserts the anchor into the search layer.
        new_node.unlock_initial();
        self.stats.splits.fetch_add(1, Ordering::Relaxed);

        if self.config.async_smo {
            self.updater.nudge();
        } else {
            self.art.insert(&anchor, new_raw)?;
            self.smo.clear(ticket.thread, ticket.index);
            self.stats.smo_replayed.fetch_add(1, Ordering::Relaxed);
        }
        // Entry ownership moved to the updater; forget keeps that explicit even
        // though the ticket has no Drop today.
        #[allow(clippy::forget_non_drop)]
        std::mem::forget(ticket);
        Ok(())
    }

    // -- Merge (§5.6) ----------------------------------------------------------

    /// Merges `right` (locked) into `node` (locked): copies live pairs,
    /// marks `right` logically deleted, unlinks it, and defers the
    /// search-layer removal and physical free to the SMO log/updater.
    fn merge(&self, raw: u64, node: &DataNode, right_raw: u64, right: &DataNode) -> Result<()> {
        // As in `split`: spans the merge when a traced request pays for it
        // inline (detail 1 = merge).
        let _smo_span = obsv::trace::span_here(obsv::trace::SpanKind::Smo, 1);
        // 1. Persist the merge intention.
        let ticket = self.smo.append(SmoKind::Merge, raw);
        ticket.set_aux(right_raw);

        // Versioning (§13): both write locks are held; freeze both
        // pre-merge states — the left node's pair set and the victim's
        // liveness and link both change below.
        self.mvcc.prepare_mutation(raw, node);
        self.mvcc.prepare_mutation(right_raw, right);

        // 2. Copy the right node's live pairs into free slots, publish all
        //    of them with one bitmap update.
        let mut set_mask = 0u64;
        let bm = right.bitmap.load(Ordering::Acquire);
        let mut bits = bm;
        let mut buf = Vec::new();
        while bits != 0 {
            let src = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            right.read_key(src, &mut buf);
            if node.find(&buf).is_some() {
                continue; // idempotent re-copy during recovery
            }
            let dst = (node.bitmap.load(Ordering::Acquire) | set_mask).trailing_ones() as usize;
            debug_assert!(dst < NODE_SLOTS, "merge target has room by precondition");
            node.copy_slot_from(dst, right, src);
            set_mask |= 1 << dst;
        }
        node.publish(set_mask, 0);

        // 3. Logically delete the right node.
        right.deleted.store(1, Ordering::Release);
        persist::persist_obj_fenced(&right.deleted);

        // 4. Unlink it from the list.
        let rr = right.next.load(Ordering::Acquire);
        node.next.store(rr, Ordering::Release);
        persist::persist_obj_fenced(&node.next);
        if rr != 0 {
            // SAFETY: epoch-pinned sibling.
            let rr_node = unsafe { node_ref(rr) };
            rr_node.prev.store(raw, Ordering::Release);
            persist::persist_obj_fenced(&rr_node.prev);
        }
        self.stats.merges.fetch_add(1, Ordering::Relaxed);

        // 5. Search-layer removal + physical free via the updater.
        if self.config.async_smo {
            self.updater.nudge();
        } else {
            self.finish_merge_smo(right_raw)?;
            self.smo.clear(ticket.thread, ticket.index);
            self.stats.smo_replayed.fetch_add(1, Ordering::Relaxed);
        }
        #[allow(clippy::forget_non_drop)]
        std::mem::forget(ticket);
        Ok(())
    }

    /// Removes the merged node's anchor from the search layer and defers its
    /// physical free by two epochs (§5.6).
    fn finish_merge_smo(&self, victim_raw: u64) -> Result<()> {
        // SAFETY: victim is logically deleted but not freed (we free it
        // below, after two epochs).
        let victim = unsafe { node_ref(victim_raw) };
        let anchor = victim.anchor();
        self.art.remove(&anchor)?;
        let guard = self.collector.pin();
        let ptr = PmPtr::<u8>::from_raw(victim_raw);
        let pool_id = ptr.pool_id();
        let mvcc = Arc::clone(&self.mvcc);
        self.collector.defer(&guard, move || {
            // The frozen chain must die in the same closure as the node: a
            // reallocated raw must never alias a stale version chain. Any
            // snapshot that could still resolve the victim pinned an epoch
            // before this free was queued, so the free (and this drop)
            // cannot run while that snapshot lives.
            mvcc.forget_node(victim_raw);
            free_in_pool(pool_id, ptr, DATA_NODE_SIZE);
        });
        Ok(())
    }

    // -- SMO replay (updater thread & recovery, §5.6/§5.9) ---------------------

    /// Replays every pending SMO log entry in timestamp order. Called by the
    /// background updater (`live = true`) and during single-threaded
    /// recovery (`live = false`). Returns entries processed.
    pub(crate) fn replay_pending_smos_inner(&self, live: bool) -> usize {
        let pending = self.smo.pending();
        let n = pending.len();
        // New nodes of split entries this pass leaves in the log. The merge
        // of such a node waits for them: replaying it queues the node's
        // free, and once the block is reused the split entry would trim and
        // index a stranger.
        let mut unfinished_splits: Vec<u64> = Vec::new();
        for rec in pending {
            if rec.kind == SmoKind::Merge && unfinished_splits.contains(&rec.aux) {
                continue;
            }
            let done = match self.replay_one(&rec, live) {
                Ok(done) => done, // false: in flight; a later pass retries silently
                Err(e) => {
                    if !live {
                        eprintln!("pactree: SMO recovery deferred: {e}");
                    }
                    false
                }
            };
            if done {
                self.smo.clear(rec.thread, rec.index);
                self.stats.smo_replayed.fetch_add(1, Ordering::Relaxed);
            } else if rec.kind == SmoKind::Split {
                unfinished_splits.push(rec.aux);
            }
        }
        self.collector.try_advance();
        n
    }

    /// Live-updater entry point.
    pub(crate) fn replay_pending_smos(&self) -> usize {
        self.replay_pending_smos_inner(true)
    }

    /// Returns `Ok(true)` when the entry is fully reflected and may be
    /// cleared, `Ok(false)` when the owning writer is still executing the
    /// SMO (live mode only).
    fn replay_one(&self, rec: &SmoRecord, live: bool) -> Result<bool> {
        match rec.kind {
            SmoKind::Split => {
                if rec.aux == 0 {
                    // Live: the writer persisted the intent but has not yet
                    // allocated the new node — still in flight, do not touch
                    // the entry. Recovery: the split never happened and the
                    // insert was never acknowledged — discard.
                    return Ok(!live);
                }
                // SAFETY: aux was published by malloc_to, so the node is
                // fully initialized; it is reachable or about to be.
                let new_node = unsafe { node_ref(rec.aux) };
                if live && new_node.lock.is_locked() {
                    // The writer still holds the construction lock: the
                    // data-layer steps are not finished. Wait for the next
                    // pass.
                    return Ok(false);
                }
                if new_node.deleted.load(Ordering::Acquire) != 0 {
                    // A later merge already folded the new node back into
                    // its left neighbour; that merge's own entry unlinks and
                    // frees it. "Finishing" the split now would undo the
                    // merge: the trim below would clear the pairs it copied
                    // left (they sit at or above the new anchor), the relink
                    // would put a deleted node back into the list, and the
                    // search layer would index a node about to be freed.
                    return Ok(true);
                }
                // SAFETY: the splitting node is never freed by a split.
                let old_node = unsafe { node_ref(rec.node) };
                // Recovery path: complete any unfinished data-layer steps
                // idempotently (§5.9). Never live: an unlocked new node
                // means its writer finished linking, so a mismatch here is
                // a *later* split of the old node caught between its link
                // and its neighbour's back-pointer fix — "relinking" would
                // cut that split's node out of the list, inserts for its
                // range would land in the old node, and its own replay
                // would then trim them away.
                if !live
                    && old_node.next.load(Ordering::Acquire) != rec.aux
                    && new_node.prev.load(Ordering::Acquire) == rec.node
                    && old_node.deleted.load(Ordering::Acquire) == 0
                {
                    // Crash between allocation and linking.
                    old_node.next.store(rec.aux, Ordering::Release);
                    persist::persist_obj_fenced(&old_node.next);
                }
                // Trim moved keys from the old node (idempotent: clears the
                // bits of keys at or above the new anchor). The mask must be
                // computed under the node's write lock — a concurrent writer
                // could be rewriting a reused slot, and a torn key read here
                // would clear a live pair. The optimistic pre-check keeps
                // the common (nothing to trim) path lock-free.
                let anchor = new_node.anchor();
                let stale = {
                    let Some(token) = old_node.lock.read_begin() else {
                        return Err(PmemError::Corruption("split node busy"));
                    };
                    let any = old_node
                        .sorted_pairs_raw()
                        .iter()
                        .any(|(k, _)| k.as_slice() >= anchor.as_slice());
                    if !old_node.lock.read_validate(token) {
                        return Err(PmemError::Corruption("split node contended"));
                    }
                    any
                };
                if stale {
                    let Some(g) = old_node.lock.try_write_lock() else {
                        return Err(PmemError::Corruption("split node busy"));
                    };
                    self.mvcc.prepare_mutation(rec.node, old_node);
                    let mut clear = 0u64;
                    for (k, slot) in old_node.sorted_pairs_raw() {
                        if k.as_slice() >= anchor.as_slice() {
                            clear |= 1 << slot;
                        }
                    }
                    if clear != 0 {
                        old_node.publish(0, clear);
                    }
                    drop(g);
                }
                // Fix the right neighbour's back pointer.
                let rr = new_node.next.load(Ordering::Acquire);
                if rr != 0 {
                    // SAFETY: epoch-protected sibling.
                    let rr_node = unsafe { node_ref(rr) };
                    if rr_node.prev.load(Ordering::Acquire) == rec.node {
                        rr_node.prev.store(rec.aux, Ordering::Release);
                        persist::persist_obj_fenced(&rr_node.prev);
                    }
                }
                if new_node.lock.is_locked() {
                    // Crash while the split held the construction lock; the
                    // generation bump already voided it, nothing to do.
                }
                // Finally make it reachable from the search layer.
                self.art.insert(&anchor, rec.aux)?;
                Ok(true)
            }
            SmoKind::Merge => {
                if rec.aux == 0 {
                    // Same in-flight rule as splits.
                    return Ok(!live);
                }
                // SAFETY: the victim is freed only after this entry clears.
                let victim = unsafe { node_ref(rec.aux) };
                // SAFETY: left node outlives the merge.
                let left = unsafe { node_ref(rec.node) };
                if live && victim.deleted.load(Ordering::Acquire) == 0 {
                    // The writer is still mid-merge (it holds both node
                    // locks until the protocol completes).
                    return Ok(false);
                }
                if victim.deleted.load(Ordering::Acquire) == 0 {
                    // Crash mid-copy (recovery path): redo the copy under
                    // locks, then finish the protocol.
                    if let Some(lg) = left.lock.try_write_lock() {
                        // Snapshots never survive a crash, so this freeze is
                        // a no-op on the recovery path that reaches here; it
                        // documents (and keeps) the mutate-under-lock rule.
                        self.mvcc.prepare_mutation(rec.node, left);
                        let mut set_mask = 0u64;
                        let mut buf = Vec::new();
                        let mut bits = victim.bitmap.load(Ordering::Acquire);
                        while bits != 0 {
                            let src = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            victim.read_key(src, &mut buf);
                            if left.find(&buf).is_some() {
                                continue;
                            }
                            let dst = (left.bitmap.load(Ordering::Acquire) | set_mask)
                                .trailing_ones() as usize;
                            if dst >= NODE_SLOTS {
                                // No room (writers raced in): abandon the
                                // merge; the entry clears and the victim
                                // stays live.
                                drop(lg);
                                return Ok(true);
                            }
                            left.copy_slot_from(dst, victim, src);
                            set_mask |= 1 << dst;
                        }
                        left.publish(set_mask, 0);
                        victim.deleted.store(1, Ordering::Release);
                        persist::persist_obj_fenced(&victim.deleted);
                        drop(lg);
                    } else {
                        return Err(PmemError::Corruption("merge left node busy"));
                    }
                }
                // Unlink idempotently.
                if left.next.load(Ordering::Acquire) == rec.aux {
                    let rr = victim.next.load(Ordering::Acquire);
                    left.next.store(rr, Ordering::Release);
                    persist::persist_obj_fenced(&left.next);
                    if rr != 0 {
                        // SAFETY: epoch-protected sibling.
                        let rr_node = unsafe { node_ref(rr) };
                        if rr_node.prev.load(Ordering::Acquire) == rec.aux {
                            rr_node.prev.store(rec.node, Ordering::Release);
                            persist::persist_obj_fenced(&rr_node.prev);
                        }
                    }
                }
                self.finish_merge_smo(rec.aux)?;
                Ok(true)
            }
        }
    }

    // -- Snapshots & versioning (DESIGN.md §13) --------------------------------

    /// The versioning subsystem (gauges, tests, diagnostics).
    pub fn mvcc(&self) -> &MvccState {
        &self.mvcc
    }

    /// Current era counter value.
    pub fn current_version(&self) -> u64 {
        self.mvcc.current_version()
    }

    /// Advances the era counter; pacsrv calls this at batch boundaries so
    /// snapshot versions align with acknowledged batches.
    pub fn advance_version(&self) -> u64 {
        self.mvcc.advance_version()
    }

    /// Takes an O(1) snapshot of the current state and returns its id.
    ///
    /// No tree walk, no copying: the snapshot pins the reclamation epoch
    /// (nothing it may reach is freed while it lives), captures the
    /// search-layer root (subsequent search-layer mutations copy-on-write
    /// around it), and registers its version so writers freeze data-node
    /// states on first mutation. Cost is independent of tree size.
    ///
    /// Note: a live snapshot holds the epoch, so [`quiesce`](Self::quiesce)
    /// cannot drain the reclamation backlog until it is released.
    pub fn snapshot(&self) -> u64 {
        // Enter COW mode *before* capturing the root: any search-layer
        // mutation serialized after the flip copies its path instead of
        // editing nodes the captured root can reach.
        self.art.cow_enter();
        let pin = self.collector.pin_owned();
        let root = self.art.current_root();
        let (id, _version) = self.mvcc.register(root, pin);
        id
    }

    /// Releases a snapshot; returns `false` for an unknown id.
    pub fn release_snapshot(&self, id: u64) -> bool {
        if self.mvcc.release(id) {
            self.art.cow_exit();
            true
        } else {
            false
        }
    }

    /// Snapshot-isolated range scan: up to `count` pairs with keys ≥
    /// `start`, exactly as of snapshot `snap`'s version. Returns `None`
    /// for an unknown (or already released) snapshot id.
    pub fn scan_at(&self, snap: u64, start: &[u8], count: usize) -> Option<Vec<Pair>> {
        let timer = OpTimer::start();
        let mut retries = 0u32;
        let result = self.scan_at_inner(snap, start, count, &mut retries);
        self.ops.finish(OpKind::Scan, timer, retries);
        result
    }

    fn scan_at_inner(
        &self,
        snap: u64,
        start: &[u8],
        count: usize,
        retries: &mut u32,
    ) -> Option<Vec<Pair>> {
        let (v, root) = self.mvcc.snap_info(snap)?;
        let _g = self.collector.pin();
        let mut out: Vec<Pair> = Vec::with_capacity(count.min(4096));
        if count == 0 {
            return Some(out);
        }
        // Position via the *captured* search layer: its floor yields a node
        // whose immutable anchor is ≤ start. Nodes that don't resolve at
        // `v` (merged away, or stale jumps) are corrected by stepping left
        // over live prev links — the head always resolves and anchors "".
        let mut raw = if root != 0 {
            self.art
                .floor_from(root, start)
                .unwrap_or_else(|| self.head_raw())
        } else {
            self.head_raw()
        };
        let mut state = loop {
            match self.mvcc.resolve_at(raw, v) {
                Some(s) if !s.deleted => break s,
                _ => {
                    self.note_retry(retries);
                    // SAFETY: epoch-pinned, and the snapshot's own pin keeps
                    // everything its version can reach allocated.
                    let prev = unsafe { node_ref(raw) }.prev.load(Ordering::Acquire);
                    raw = if prev != 0 { prev } else { self.head_raw() };
                }
            }
        };
        loop {
            self.charge_node_read(raw, DATA_NODE_SIZE);
            if !state.deleted {
                for (k, val) in &state.pairs {
                    if k.as_slice() >= start {
                        out.push(Pair {
                            key: k.clone(),
                            value: *val,
                        });
                        if out.len() >= count {
                            return Some(out);
                        }
                    }
                }
            }
            if state.next == 0 {
                return Some(out);
            }
            raw = state.next;
            state = match self.mvcc.resolve_at(raw, v) {
                Some(s) => s,
                // Defensive: the version-`v` list cannot reach a node born
                // after `v`; stop rather than mix eras.
                None => return Some(out),
            };
        }
    }

    /// Structural diff from snapshot `a` to snapshot `b`: pairs added,
    /// removed, or changed. Shared structure is skipped wholesale — while
    /// both version walks sit on the same data node and resolve it to the
    /// same state (the same frozen capture, or both live), the node is
    /// stepped over without touching its pairs. This is the seed of
    /// incremental backup: unchanged regions cost one resolution each.
    pub fn diff(&self, a: u64, b: u64) -> Option<Vec<DiffEntry>> {
        let (va, _) = self.mvcc.snap_info(a)?;
        let (vb, _) = self.mvcc.snap_info(b)?;
        let _g = self.collector.pin();
        let head = self.head_raw();
        let mut out = Vec::new();
        // One cursor per side: current node raw (0 = past the tail) plus
        // pairs from visited nodes not yet matched against the other side.
        let (mut ra, mut rb) = (head, head);
        let mut pa: VecDeque<(Vec<u8>, u64)> = VecDeque::new();
        let mut pb: VecDeque<(Vec<u8>, u64)> = VecDeque::new();
        while ra != 0 || rb != 0 {
            if ra != 0 && ra == rb && pa.is_empty() && pb.is_empty() {
                // Aligned on one node with nothing pending: the only place
                // sharing is detectable.
                match (
                    self.mvcc.resolve_shared(ra, va),
                    self.mvcc.resolve_shared(rb, vb),
                ) {
                    (Some(sa), Some(sb)) if sa.same_state(&sb) => {
                        ra = sa.next();
                        rb = sb.next();
                        continue;
                    }
                    (sa, sb) => {
                        diff_step(&mut ra, &mut pa, sa);
                        diff_step(&mut rb, &mut pb, sb);
                    }
                }
            } else {
                // Advance whichever side is behind in anchor order (anchors
                // are immutable, so reading them needs no lock).
                // SAFETY: epoch-pinned; the snapshots' pins keep every node
                // either version can reach allocated.
                let a_behind = rb == 0
                    || (ra != 0
                        && unsafe { node_ref(ra) }.anchor() <= unsafe { node_ref(rb) }.anchor());
                if a_behind {
                    let s = self.mvcc.resolve_shared(ra, va);
                    diff_step(&mut ra, &mut pa, s);
                } else {
                    let s = self.mvcc.resolve_shared(rb, vb);
                    diff_step(&mut rb, &mut pb, s);
                }
            }
            drain_diff(&mut pa, &mut pb, ra == 0, rb == 0, &mut out);
        }
        drain_diff(&mut pa, &mut pb, true, true, &mut out);
        Some(out)
    }

    // -- Convenience API ---------------------------------------------------------

    /// Scans the half-open key range `[start, end)`, up to `limit` pairs.
    pub fn range(&self, start: &[u8], end: &[u8], limit: usize) -> Vec<Pair> {
        let mut out = self.scan(start, limit);
        if let Some(cut) = out.iter().position(|p| p.key.as_slice() >= end) {
            out.truncate(cut);
        }
        out
    }

    /// The smallest pair in the index, if any.
    pub fn first(&self) -> Option<Pair> {
        self.scan(b"", 1).into_iter().next()
    }

    /// The largest pair in the index, if any (walks the data-layer list to
    /// the tail; O(nodes), intended for diagnostics and tail consumers).
    pub fn last(&self) -> Option<Pair> {
        let _g = self.collector.pin();
        loop {
            // Jump near the tail via the search layer's maximum anchor.
            let mut raw = self
                .art
                .max_entry()
                .map(|(_, v)| v)
                .unwrap_or_else(|| self.head_raw());
            // Walk right to the true tail, then take the last sorted pair of
            // the rightmost non-empty node.
            let mut best: Option<Pair> = None;
            loop {
                // SAFETY: epoch-pinned list walk.
                let node = unsafe { node_ref(raw) };
                let Some(token) = node.lock.read_begin() else {
                    break;
                };
                if node.deleted.load(Ordering::Acquire) != 0 {
                    break;
                }
                let pairs = node.sorted_pairs_raw();
                let next = node.next.load(Ordering::Acquire);
                if !node.lock.read_validate(token) {
                    break;
                }
                if let Some((k, slot)) = pairs.last() {
                    best = Some(Pair {
                        key: k.clone(),
                        value: node.value_at(*slot),
                    });
                }
                if next == 0 {
                    return best;
                }
                raw = next;
            }
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the index holds no pairs — O(nodes).
    pub fn is_empty(&self) -> bool {
        self.count_pairs() == 0
    }

    // -- Diagnostics -----------------------------------------------------------

    /// One epoch-pinned data-layer walk returning `(nodes, live_pairs)` —
    /// the basis of the `node.count` / `node.occupancy` health gauges.
    /// O(n): meant for scrape threads and tests, never hot paths.
    pub fn occupancy(&self) -> (usize, usize) {
        let _g = self.collector.pin();
        let mut raw = self.head_raw();
        let (mut nodes, mut live) = (0usize, 0usize);
        while raw != 0 {
            // SAFETY: epoch-pinned list walk.
            let node = unsafe { node_ref(raw) };
            nodes += 1;
            live += node.live_count();
            raw = node.next.load(Ordering::Acquire);
        }
        (nodes, live)
    }

    /// Walks the data layer counting live pairs (O(n); tests only).
    pub fn count_pairs(&self) -> usize {
        let _g = self.collector.pin();
        let mut raw = self.head_raw();
        let mut n = 0;
        while raw != 0 {
            // SAFETY: epoch-pinned list walk.
            let node = unsafe { node_ref(raw) };
            n += node.live_count();
            raw = node.next.load(Ordering::Acquire);
        }
        n
    }

    /// Number of data nodes in the list (tests only).
    pub fn node_count(&self) -> usize {
        let _g = self.collector.pin();
        let mut raw = self.head_raw();
        let mut n = 0;
        while raw != 0 {
            n += 1;
            // SAFETY: epoch-pinned list walk.
            raw = unsafe { node_ref(raw) }.next.load(Ordering::Acquire);
        }
        n
    }

    /// Verifies data-layer invariants (anchors ascending, pairs in range,
    /// back pointers consistent); panics on violation. Tests only.
    pub fn check_invariants(&self) {
        let _g = self.collector.pin();
        let mut raw = self.head_raw();
        let mut prev_raw = 0u64;
        let mut prev_anchor: Option<Vec<u8>> = None;
        while raw != 0 {
            // SAFETY: epoch-pinned walk.
            let node = unsafe { node_ref(raw) };
            assert_eq!(
                node.deleted.load(Ordering::Acquire),
                0,
                "live list has deleted node"
            );
            let anchor = node.anchor();
            if let Some(pa) = &prev_anchor {
                assert!(pa < &anchor, "anchors must ascend");
            }
            assert_eq!(
                node.prev.load(Ordering::Acquire),
                prev_raw,
                "prev link broken"
            );
            for (k, _) in node.sorted_pairs_raw() {
                assert!(k >= anchor, "pair below anchor");
            }
            let next = node.next.load(Ordering::Acquire);
            if next != 0 {
                // SAFETY: epoch-pinned.
                let na = unsafe { node_ref(next) }.anchor();
                for (k, _) in node.sorted_pairs_raw() {
                    assert!(k < na, "pair at or above next anchor");
                }
            }
            prev_anchor = Some(anchor);
            prev_raw = raw;
            raw = next;
        }
    }
}

/// Feeds one resolved node into a diff cursor: queues its live pairs and
/// advances the cursor along the version's own next chain.
fn diff_step(raw: &mut u64, pending: &mut VecDeque<(Vec<u8>, u64)>, s: Option<Resolved>) {
    match s {
        Some(s) => {
            if !s.deleted() {
                pending.extend(s.pairs().iter().cloned());
            }
            *raw = s.next();
        }
        // A version walk never reaches a node born after it; stop the side
        // defensively if it somehow does.
        None => *raw = 0,
    }
}

/// Merges the two pending pair streams (both ascending) into diff entries.
/// A side's sole pending pair can only be classified once the other side
/// has a pair beyond it or its walk has finished.
fn drain_diff(
    pa: &mut VecDeque<(Vec<u8>, u64)>,
    pb: &mut VecDeque<(Vec<u8>, u64)>,
    a_done: bool,
    b_done: bool,
    out: &mut Vec<DiffEntry>,
) {
    loop {
        match (pa.front(), pb.front()) {
            (Some(a), Some(b)) => match a.0.cmp(&b.0) {
                std::cmp::Ordering::Equal => {
                    let (k, va) = pa.pop_front().expect("front checked");
                    let (_, vb) = pb.pop_front().expect("front checked");
                    if va != vb {
                        out.push(DiffEntry::Changed(k, va, vb));
                    }
                }
                std::cmp::Ordering::Less => {
                    let (k, v) = pa.pop_front().expect("front checked");
                    out.push(DiffEntry::Removed(k, v));
                }
                std::cmp::Ordering::Greater => {
                    let (k, v) = pb.pop_front().expect("front checked");
                    out.push(DiffEntry::Added(k, v));
                }
            },
            (Some(_), None) if b_done => {
                let (k, v) = pa.pop_front().expect("front checked");
                out.push(DiffEntry::Removed(k, v));
            }
            (None, Some(_)) if a_done => {
                let (k, v) = pb.pop_front().expect("front checked");
                out.push(DiffEntry::Added(k, v));
            }
            _ => return,
        }
    }
}

impl obsv::OpRecorder for PacTree {
    fn op_histograms(&self) -> &obsv::OpHistograms {
        &self.ops
    }
}

impl Drop for PacTree {
    fn drop(&mut self) {
        self.updater.stop();
        // Pending SMOs are deliberately left in the log: the next
        // [`PacTree::recover`] replays them, exactly like restart after a
        // real crash (§5.9).
        let now: u64 = self.pools().iter().map(|p| p.crash_count()).sum();
        if now != self.birth_crash_count {
            // A crash was simulated underneath this instance: deferred
            // frees refer to pre-crash state the remount resurrected.
            self.collector.discard_all();
        } else {
            self.collector.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The updater can reach an old split entry of a node while a *newer*
    /// split of that node sits between its link (`old.next = new`) and its
    /// neighbour's back-pointer fix. Replaying the old entry then must leave
    /// the list alone: treating the mismatch as "crash before linking" cut
    /// the newer node out, inserts for its range landed in the old node, and
    /// the newer entry's own replay trimmed them away (acknowledged inserts
    /// lost, about one preload in a thousand).
    #[test]
    fn live_replay_of_an_old_split_keeps_a_newer_split_linked() {
        let _gate = crate::lock::generation_gate::lock_holding();
        let tree = PacTree::create(PacTreeConfig::named("replay-relink")).unwrap();
        // With the updater stopped, entries stay pending until replayed by
        // hand. Descending keys all land in the head node: it splits twice.
        tree.stop_updater();
        let key = |i: u64| (10_000 - i).to_be_bytes();
        let mut n = 0u64;
        while tree.pending_smo_count() < 2 {
            assert_eq!(tree.insert(&key(n), n).unwrap(), None);
            n += 1;
        }
        let pending = tree.smo.pending();
        let (older, newer) = (pending[0], pending[1]);
        assert_eq!(older.node, newer.node, "both splits are of the head");
        // SAFETY: nodes of a live tree; nothing else runs.
        let (head, older_new) = unsafe { (node_ref(older.node), node_ref(older.aux)) };
        assert_eq!(head.next.load(Ordering::Acquire), newer.aux);
        assert_eq!(older_new.prev.load(Ordering::Acquire), newer.aux);
        assert_eq!(tree.count_pairs() as u64, n);

        // Rewind the newer split to just before its back-pointer fix and let
        // the updater's replay of the older entry run there.
        older_new.prev.store(older.node, Ordering::Release);
        assert!(tree.replay_one(&older, true).unwrap());
        assert_eq!(head.next.load(Ordering::Acquire), newer.aux);
        assert_eq!(tree.count_pairs() as u64, n, "the newer node stays linked");

        // The newer split finishes; both entries replay; nothing is lost.
        older_new.prev.store(newer.aux, Ordering::Release);
        tree.replay_pending_smos();
        assert_eq!(tree.pending_smo_count(), 0);
        for i in 0..n {
            assert_eq!(tree.lookup(&key(i)), Some(i));
        }
        assert_eq!(tree.scan(b"", usize::MAX >> 1).len() as u64, n);
        tree.destroy();
    }
}
