//! Optane NVM performance model.
//!
//! We do not have DCPMM hardware, so this module models the performance
//! properties the paper's analysis (§2.1, §3.1) depends on:
//!
//! * **XPLine granularity** — media traffic is accounted in 256-byte units;
//!   a 64-byte cache-line access costs a full XPLine on the media.
//! * **XPBuffer write combining** — a small LRU of XPLine tags per NUMA
//!   node; flushing adjacent cache lines back-to-back combines into one
//!   media write (sequential writes are cheap, random writes amplify).
//! * **CPU cache filtering** — a per-thread direct-mapped cache of line tags
//!   decides which logical reads actually reach the media.
//! * **Bandwidth throttling** — token buckets per NUMA node for read and
//!   write traffic produce the paper's plateauing scalability curves once
//!   the (write-first) bandwidth saturates.
//! * **Latency injection** — calibrated spin delays for media reads,
//!   flushes, fences, and remote access.
//! * **Coherence modes** — in [`CoherenceMode::Directory`] every remote read
//!   issues a 64-byte directory write to the media (the paper's FH5 finding,
//!   the root cause of the cross-NUMA bandwidth meltdown); in
//!   [`CoherenceMode::Snoop`] remote reads only pay extra latency.
//!
//! Indexes report accesses at node granularity via [`on_read`]; writes are
//! charged at [`crate::persist::persist`] time via [`on_flush`]. The model is
//! disabled by default so unit tests run at full speed.
//!
//! The hooks sit on every modeled memory access of every index, so their
//! steady state takes **no locks**: the runtime is snapshotted per thread
//! and revalidated with one epoch load ([`with_runtime`]), counters are
//! striped per thread ([`crate::stats`]), pool metadata comes from lock-free
//! static tables ([`crate::pool::stats_of`]/[`crate::pool::node_of`]), and
//! the XPBuffer is a lock-free set-associative tag cache. Locks remain only
//! on cold paths ([`set_config`], pool create/destroy).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::RwLock;

use crate::numa::{self, MAX_NODES};
use crate::pool::{self, PoolId};
use crate::stats;
use crate::{CACHE_LINE, XPLINE};

/// Cache coherence protocol across NUMA domains (paper §3.1.1, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Directory protocol: remote reads write directory state to the media.
    Directory,
    /// Snoop protocol: remote reads pay latency but no media writes.
    Snoop,
}

/// Configuration of the NVM performance model.
#[derive(Debug, Clone)]
pub struct NvmModelConfig {
    /// Master switch; when false every hook is a no-op.
    pub enabled: bool,
    /// Inject real wall-clock delays (spin) for modeled latencies.
    pub inject_latency: bool,
    /// Enforce bandwidth limits with token buckets.
    pub throttle: bool,
    /// Media read latency per XPLine miss, in nanoseconds.
    pub read_ns: u64,
    /// Cost of a cache-line flush reaching the WPQ, in nanoseconds.
    pub flush_ns: u64,
    /// Cost of an ordering fence, in nanoseconds.
    pub fence_ns: u64,
    /// Extra latency for crossing a NUMA boundary, in nanoseconds.
    pub remote_extra_ns: u64,
    /// Per-node media read bandwidth, bytes/second.
    pub read_bw: u64,
    /// Per-node media write bandwidth, bytes/second.
    pub write_bw: u64,
    /// Coherence protocol.
    pub coherence: CoherenceMode,
    /// XPBuffer entries (XPLines) per NUMA node.
    pub xpbuffer_lines: usize,
    /// Per-thread simulated CPU cache size, in cache lines (power of two);
    /// 0 disables read filtering (every read hits the media).
    pub cpu_cache_lines: usize,
    /// eADR mode (paper §3.5): CPU caches are part of the persistence
    /// domain, so cache-line flushes cost no synchronous latency (the store
    /// traffic still reaches the media eventually and consumes write
    /// bandwidth). Crash-consistency semantics are unchanged in the
    /// emulation: persists still mark data durable.
    pub eadr: bool,
    /// Time dilation factor: all injected latencies are multiplied by this
    /// and bandwidth is divided by it. With dilation large enough that
    /// stalls exceed the OS sleep granularity, waits become `thread::sleep`
    /// so *concurrent threads overlap their modeled NVM stalls even on a
    /// single-core host* — this is what makes thread-sweep scalability
    /// curves meaningful in an emulated environment.
    pub time_dilation: f64,
}

impl NvmModelConfig {
    /// Model fully disabled (the default; unit tests run with this).
    pub fn disabled() -> Self {
        NvmModelConfig {
            enabled: false,
            inject_latency: false,
            throttle: false,
            read_ns: 0,
            flush_ns: 0,
            fence_ns: 0,
            remote_extra_ns: 0,
            read_bw: u64::MAX,
            write_bw: u64::MAX,
            coherence: CoherenceMode::Snoop,
            xpbuffer_lines: 16,
            cpu_cache_lines: 1 << 14,
            eadr: false,
            time_dilation: 1.0,
        }
    }

    /// Accounting only: media counters are maintained but no delays are
    /// injected and no throttling happens. Used by the bandwidth figures
    /// (Figures 4, 5) and unit tests of the model itself.
    pub fn accounting() -> Self {
        NvmModelConfig {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// The paper's default two-socket Optane machine (§6), scaled for an
    /// emulated environment: latency and bandwidth ratios follow the Optane
    /// characterizations cited by the paper (read ~300 ns, write-combined
    /// flush ~200 ns, 3-5x read/write bandwidth asymmetry).
    pub fn optane(coherence: CoherenceMode) -> Self {
        NvmModelConfig {
            enabled: true,
            inject_latency: true,
            throttle: true,
            read_ns: 300,
            flush_ns: 200,
            fence_ns: 80,
            remote_extra_ns: 250,
            read_bw: 12_000_000_000,
            write_bw: 3_500_000_000,
            coherence,
            xpbuffer_lines: 16,
            cpu_cache_lines: 1 << 14,
            eadr: false,
            time_dilation: 1.0,
        }
    }

    /// eADR variant of the Optane model: flush/fence latency disappears from
    /// the critical path, but media write bandwidth is still consumed.
    pub fn optane_eadr_dilated(coherence: CoherenceMode, dilation: f64) -> Self {
        let mut c = Self::optane_dilated(coherence, dilation);
        c.eadr = true;
        c
    }

    /// Time-dilated Optane model for thread-sweep benchmarks: latencies are
    /// stretched until they exceed the OS sleep granularity, so modeled NVM
    /// stalls are spent sleeping and N worker threads genuinely overlap
    /// their stalls regardless of host core count. Bandwidth shrinks by the
    /// same factor, preserving the latency/bandwidth balance. Throughputs
    /// measured under this config are reported after multiplying by the
    /// dilation factor.
    pub fn optane_dilated(coherence: CoherenceMode, dilation: f64) -> Self {
        let mut c = Self::optane(coherence);
        c.time_dilation = dilation;
        c
    }

    /// The low-bandwidth second evaluation machine (§6.2): about 3x less
    /// cumulative NVM bandwidth than the default platform.
    pub fn low_bandwidth() -> Self {
        let mut c = Self::optane(CoherenceMode::Snoop);
        c.read_bw /= 3;
        c.write_bw /= 3;
        c
    }
}

impl Default for NvmModelConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A token bucket enforcing a byte/second rate: the NVM model's media
/// bandwidth throttle.
pub struct TokenBucket {
    tokens: AtomicI64,
    last_refill_ns: AtomicU64,
    rate_per_ns: f64,
    burst: i64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_bytes_per_sec` with a ~1 ms burst
    /// allowance (floored at 64 KiB so tiny rates still make progress).
    pub fn new(rate_bytes_per_sec: u64) -> Self {
        let burst = (rate_bytes_per_sec / 1000).max(64 * 1024) as i64; // ~1 ms worth
        TokenBucket {
            tokens: AtomicI64::new(burst),
            last_refill_ns: AtomicU64::new(0),
            rate_per_ns: rate_bytes_per_sec as f64 / 1e9,
            burst,
        }
    }

    /// Consumes `bytes` tokens, blocking until the balance is repaid.
    ///
    /// Debt-based: the cost is subtracted unconditionally (one `fetch_sub`,
    /// no CAS loop) and a negative balance is bandwidth debt the thread
    /// waits out at the refill rate. This also handles requests larger than
    /// the burst size, which a "wait until the balance covers the request"
    /// scheme can never satisfy.
    ///
    /// Waiting backs off in tiers — brief spin, then `yield_now`, then a
    /// sleep sized to the remaining debt — so a throttled thread does not
    /// monopolize a core (essential on hosts with fewer cores than worker
    /// threads).
    pub fn acquire(&self, bytes: u64, origin: &Instant) {
        if self.rate_per_ns >= 1e9 {
            return; // effectively unlimited
        }
        let need = bytes as i64;
        self.refill(origin);
        if self.tokens.fetch_sub(need, Ordering::Relaxed) - need >= 0 {
            return;
        }
        // Slow path: we are stalled on bandwidth. Account the wall-clock
        // wait so the throttle-stall gauge can expose it.
        let stall_start = origin.elapsed().as_nanos() as u64;
        let mut rounds = 0u32;
        loop {
            self.refill(origin);
            let balance = self.tokens.load(Ordering::Relaxed);
            if balance >= 0 {
                let stalled = (origin.elapsed().as_nanos() as u64).saturating_sub(stall_start);
                stats::global()
                    .local()
                    .throttle_stall_ns
                    .fetch_add(stalled, Ordering::Relaxed);
                obsv::trace::add_stall(obsv::trace::StallKind::Throttle, stalled);
                return;
            }
            rounds += 1;
            if rounds <= 16 {
                std::hint::spin_loop();
            } else if rounds <= 64 {
                std::thread::yield_now();
            } else {
                // Sleep off (most of) the remaining debt; capped so refill
                // keeps being called and wakeups stay responsive.
                let debt_ns = ((-balance) as f64 / self.rate_per_ns) as u64;
                let ns = debt_ns.clamp(1_000, 1_000_000);
                std::thread::sleep(std::time::Duration::from_nanos(ns));
            }
        }
    }

    fn refill(&self, origin: &Instant) {
        let now = origin.elapsed().as_nanos() as u64;
        let last = self.last_refill_ns.load(Ordering::Relaxed);
        if now <= last {
            return;
        }
        if self
            .last_refill_ns
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            let add = ((now - last) as f64 * self.rate_per_ns) as i64;
            let cur = self.tokens.load(Ordering::Relaxed);
            let new = (cur + add).min(self.burst);
            if new > cur {
                self.tokens.fetch_add(new - cur, Ordering::Relaxed);
            }
        }
    }
}

/// A small set of XPLine tags modeling the write-combining XPBuffer.
///
/// Lock-free and set-associative: tags live in `AtomicU64` cells grouped
/// into power-of-two sets of up to [`XpBuffer::WAYS`] ways, with per-way
/// LRU stamps drawn from a shared relaxed clock. All accesses are relaxed
/// atomics with no CAS loop; racing threads may occasionally both miss on
/// the same tag or evict each other's fresh entry, slightly *over*-charging
/// media writes — an accepted modeling error (bounded by the race window,
/// see the calibration test) in exchange for a hot path with zero locks.
struct XpBuffer {
    /// `sets * ways` tag cells; `u64::MAX` = empty.
    tags: Vec<AtomicU64>,
    /// LRU stamp per tag cell.
    stamps: Vec<AtomicU64>,
    clock: AtomicU64,
    ways: usize,
    set_mask: u64,
}

impl XpBuffer {
    /// Maximum associativity per set.
    const WAYS: usize = 4;

    fn new(lines: usize) -> Self {
        let lines = lines.max(1).next_power_of_two();
        let ways = Self::WAYS.min(lines);
        let sets = (lines / ways).max(1);
        XpBuffer {
            tags: (0..sets * ways).map(|_| AtomicU64::new(u64::MAX)).collect(),
            stamps: (0..sets * ways).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(0),
            ways,
            set_mask: sets as u64 - 1,
        }
    }

    /// Returns true if the XPLine was already buffered (write combined).
    fn touch(&self, tag: u64) -> bool {
        // Fibonacci-hash the tag so strided flush patterns spread over sets.
        let set = ((tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.set_mask) as usize;
        let base = set * self.ways;
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for i in base..base + self.ways {
            if self.tags[i].load(Ordering::Relaxed) == tag {
                self.stamps[i].store(stamp, Ordering::Relaxed);
                return true;
            }
            let s = self.stamps[i].load(Ordering::Relaxed);
            if s < victim_stamp {
                victim_stamp = s;
                victim = i;
            }
        }
        self.tags[victim].store(tag, Ordering::Relaxed);
        self.stamps[victim].store(stamp, Ordering::Relaxed);
        false
    }
}

/// Per-NUMA-node model state.
///
/// Aligned away from neighbouring nodes' state so one node's token-bucket
/// and XPBuffer traffic never false-shares with another's.
#[repr(align(128))]
struct NodeState {
    read_bucket: TokenBucket,
    write_bucket: TokenBucket,
    xpbuffer: XpBuffer,
}

/// The live model runtime built from a config.
struct Runtime {
    config: NvmModelConfig,
    nodes: Vec<NodeState>,
    origin: Instant,
    epoch: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RUNTIME: OnceLock<RwLock<Arc<Runtime>>> = OnceLock::new();
/// Epoch of the currently installed runtime; validates [`RT_CACHE`].
static EPOCH: AtomicU64 = AtomicU64::new(0);

fn runtime_cell() -> &'static RwLock<Arc<Runtime>> {
    RUNTIME.get_or_init(|| RwLock::new(Arc::new(build_runtime(NvmModelConfig::disabled(), 0))))
}

fn build_runtime(config: NvmModelConfig, epoch: u64) -> Runtime {
    // Normalize sizes the fast path masks/indexes with: the CPU-cache sim
    // requires a power of two, and the set-associative XPBuffer rounds up
    // internally. Round up rather than reject so "human" sizes like 1000
    // lines keep working.
    let mut config = config;
    config.cpu_cache_lines = match config.cpu_cache_lines {
        0 => 0,
        n => n.next_power_of_two(),
    };
    config.xpbuffer_lines = config.xpbuffer_lines.max(1).next_power_of_two();
    let dilation = config.time_dilation.max(1.0);
    let read_bw = (config.read_bw as f64 / dilation) as u64;
    let write_bw = (config.write_bw as f64 / dilation) as u64;
    let nodes = (0..MAX_NODES)
        .map(|_| NodeState {
            read_bucket: TokenBucket::new(read_bw.max(1)),
            write_bucket: TokenBucket::new(write_bw.max(1)),
            xpbuffer: XpBuffer::new(config.xpbuffer_lines),
        })
        .collect();
    Runtime {
        config,
        nodes,
        origin: Instant::now(),
        epoch,
    }
}

/// Installs a new model configuration (replaces the previous one globally).
pub fn set_config(config: NvmModelConfig) {
    ENABLED.store(config.enabled, Ordering::Release);
    // Allocate the epoch and publish EPOCH *inside* the write lock so
    // install order always matches epoch order; otherwise two racing
    // `set_config`s could leave EPOCH pointing at a runtime that was
    // overwritten, and every thread's cache would miss forever.
    let mut guard = runtime_cell().write();
    let epoch = EPOCH.load(Ordering::Relaxed) + 1;
    *guard = Arc::new(build_runtime(config, epoch));
    EPOCH.store(epoch, Ordering::Release);
}

/// Returns a copy of the active configuration.
pub fn config() -> NvmModelConfig {
    runtime_cell().read().config.clone()
}

/// Whether the model currently does anything.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

thread_local! {
    /// Per-thread snapshot of the runtime, revalidated against [`EPOCH`].
    static RT_CACHE: RefCell<Option<Arc<Runtime>>> = const { RefCell::new(None) };
}

/// Runs `f` against the current runtime.
///
/// Steady state is one relaxed-ish atomic load (the epoch check) plus a TLS
/// access — no lock, no `Arc` refcount traffic. The global `RwLock` is only
/// taken when this thread's snapshot is stale (first use, or after a
/// [`set_config`]).
///
/// `f` must not reenter `with_runtime` on the same thread (the hook slow
/// paths never do).
#[inline]
fn with_runtime<R>(f: impl FnOnce(&Runtime) -> R) -> R {
    RT_CACHE.with(|c| {
        let mut c = c.borrow_mut();
        let epoch = EPOCH.load(Ordering::Acquire);
        match c.as_ref() {
            Some(rt) if rt.epoch == epoch => f(rt),
            _ => {
                let rt = c.insert(runtime_cell().read().clone());
                f(rt)
            }
        }
    })
}

// Per-thread direct-mapped CPU cache simulation: tag array indexed by line id.
thread_local! {
    static CPU_CACHE: RefCell<CpuCache> = const { RefCell::new(CpuCache::empty()) };
}

struct CpuCache {
    tags: Vec<u64>,
    mask: u64,
    epoch: u64,
}

impl CpuCache {
    const fn empty() -> Self {
        CpuCache {
            tags: Vec::new(),
            mask: 0,
            epoch: 0,
        }
    }

    fn ensure(&mut self, lines: usize, epoch: u64) {
        if self.tags.len() != lines || self.epoch != epoch {
            self.tags = vec![u64::MAX; lines];
            self.mask = lines as u64 - 1;
            self.epoch = epoch;
        }
    }

    /// The one slot a pool-qualified line id maps to, through a full mix
    /// (MurmurHash3's `fmix64`): the masked raw offset aliased pools at equal
    /// offsets and 4 KiB node strides, and a Fibonacci hash still does
    /// (DESIGN.md §5, "The CPU-cache sim hashes its slot").
    #[inline]
    fn slot(&self, global_line: u64) -> usize {
        let mut x = global_line;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^= x >> 33;
        (x & self.mask) as usize
    }

    /// Returns true on hit.
    fn access(&mut self, global_line: u64) -> bool {
        let idx = self.slot(global_line);
        if self.tags[idx] == global_line {
            true
        } else {
            self.tags[idx] = global_line;
            false
        }
    }

    /// Evicts the line if it is cached.
    fn invalidate(&mut self, global_line: u64) {
        let idx = self.slot(global_line);
        if self.tags[idx] == global_line {
            self.tags[idx] = u64::MAX;
        }
    }
}

/// Busy-waits approximately `ns` nanoseconds.
#[inline]
pub fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Minimum dilated wait that is worth a real `thread::sleep` (below this the
/// OS timer slack dominates).
const SLEEP_THRESHOLD_NS: u64 = 100_000;

thread_local! {
    /// Accumulated dilated stall not yet slept (time-dilated mode).
    static PENDING_STALL_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Waits `ns` nanoseconds of *model time* and returns the stall to
/// attribute to the active trace span.
///
/// Without dilation this spins and returns the *measured* wall time of the
/// spin: on an oversubscribed host the spin overshoots its target whenever
/// the thread is descheduled mid-wait, and that overshoot is genuinely part
/// of the stall — attributing only the requested `ns` would leave it
/// unaccounted in the span. With dilation, stalls accumulate per thread
/// and are paid as real `thread::sleep`s once they exceed the OS timer
/// granularity — so every modeled stall costs proportional wall time (cost
/// ratios stay exact) while concurrent threads genuinely overlap their
/// stalls even on a single-core host; there the returned attribution is the
/// model-time `ns`, matching the cost the model charges rather than the
/// batched dilated sleep. The deferral window is bounded by
/// [`SLEEP_THRESHOLD_NS`] of wall time.
#[inline]
fn model_wait(cfg: &NvmModelConfig, ns: u64) -> u64 {
    if ns == 0 {
        return 0;
    }
    let dilation = cfg.time_dilation.max(1.0);
    if dilation <= 1.0 {
        let start = Instant::now();
        spin_ns(ns);
        return (start.elapsed().as_nanos() as u64).max(ns);
    }
    let dilated = (ns as f64 * dilation) as u64;
    PENDING_STALL_NS.with(|p| {
        let total = p.get() + dilated;
        if total >= SLEEP_THRESHOLD_NS {
            p.set(0);
            std::thread::sleep(std::time::Duration::from_nanos(total));
        } else {
            p.set(total);
        }
    });
    ns
}

/// Reports that the running thread read `len` bytes starting at `offset` of
/// pool `pool`.
///
/// Charges media reads for XPLines missed by the simulated CPU cache,
/// directory writes in [`CoherenceMode::Directory`] when the access is
/// remote, throttles against the node's read bandwidth, and injects read
/// latency.
#[inline]
pub fn on_read(pool: PoolId, offset: u64, len: usize) {
    if !enabled() || len == 0 || pool::is_dram(pool) {
        return;
    }
    on_read_slow(pool, offset, len);
}

#[cold]
fn on_read_slow(pool: PoolId, offset: u64, len: usize) {
    with_runtime(|rt| {
        let cfg = &rt.config;
        let pool_node = pool::node_of(pool) as usize;
        let my_node = numa::current_node() as usize;
        let remote = pool_node != my_node;

        // Count distinct cache lines and XPLines missed by the CPU cache.
        let first_line = offset / CACHE_LINE as u64;
        let last_line = (offset + len as u64 - 1) / CACHE_LINE as u64;
        let mut missed_lines = 0u64;
        let mut missed_xplines = 0u64;
        let mut last_xp = u64::MAX;
        CPU_CACHE.with(|c| {
            let mut c = c.borrow_mut();
            if cfg.cpu_cache_lines > 0 {
                c.ensure(cfg.cpu_cache_lines, rt.epoch);
            }
            for line in first_line..=last_line {
                let global_line = ((pool as u64) << 48) | line;
                let hit = cfg.cpu_cache_lines > 0 && c.access(global_line);
                if !hit {
                    missed_lines += 1;
                    let xp = line / (XPLINE / CACHE_LINE) as u64;
                    if xp != last_xp {
                        missed_xplines += 1;
                        last_xp = xp;
                    }
                }
            }
        });
        if missed_lines == 0 {
            return;
        }

        let read_bytes = missed_xplines * XPLINE as u64;
        let pstats = pool::stats_of(pool).local();
        let gstats = stats::global().local();
        pstats
            .media_read_bytes
            .fetch_add(read_bytes, Ordering::Relaxed);
        gstats
            .media_read_bytes
            .fetch_add(read_bytes, Ordering::Relaxed);

        // FH5: directory coherence turns remote reads into media writes.
        let mut dir_bytes = 0;
        if remote && cfg.coherence == CoherenceMode::Directory {
            dir_bytes = missed_lines * CACHE_LINE as u64;
            pstats
                .directory_write_bytes
                .fetch_add(dir_bytes, Ordering::Relaxed);
            gstats
                .directory_write_bytes
                .fetch_add(dir_bytes, Ordering::Relaxed);
        }

        if cfg.throttle {
            let node = &rt.nodes[pool_node.min(MAX_NODES - 1)];
            node.read_bucket.acquire(read_bytes, &rt.origin);
            if dir_bytes > 0 {
                node.write_bucket.acquire(dir_bytes, &rt.origin);
            }
        }
        if cfg.inject_latency {
            let mut ns = cfg.read_ns * missed_xplines;
            if remote {
                ns += cfg.remote_extra_ns;
            }
            let waited = model_wait(cfg, ns);
            obsv::trace::add_stall(obsv::trace::StallKind::MediaRead, waited);
        }
    });
}

/// Reports a cache-line flush of `[offset, offset+len)` in pool `pool`
/// (called from [`crate::persist::persist`]).
#[inline]
pub fn on_flush(pool: PoolId, offset: u64, len: usize) {
    if !enabled() || len == 0 || pool::is_dram(pool) {
        return;
    }
    on_flush_slow(pool, offset, len);
}

#[cold]
fn on_flush_slow(pool: PoolId, offset: u64, len: usize) {
    with_runtime(|rt| {
        let cfg = &rt.config;
        let pool_node = pool::node_of(pool) as usize;
        let my_node = numa::current_node() as usize;
        let remote = pool_node != my_node;

        let first_line = offset / CACHE_LINE as u64;
        let last_line = (offset + len as u64 - 1) / CACHE_LINE as u64;
        let n_lines = last_line - first_line + 1;

        // The current-generation clwb also invalidates the line (FH4): the
        // next read of it will miss. Model by evicting from the CPU cache sim.
        if cfg.cpu_cache_lines > 0 {
            CPU_CACHE.with(|c| {
                let mut c = c.borrow_mut();
                c.ensure(cfg.cpu_cache_lines, rt.epoch);
                for line in first_line..=last_line {
                    c.invalidate(((pool as u64) << 48) | line);
                }
            });
        }

        // XPBuffer write combining: count XPLines not already buffered.
        let node = &rt.nodes[pool_node.min(MAX_NODES - 1)];
        let mut media_lines = 0u64;
        let first_xp = first_line / (XPLINE / CACHE_LINE) as u64;
        let last_xp = last_line / (XPLINE / CACHE_LINE) as u64;
        let xp_touched = last_xp - first_xp + 1;
        for xp in first_xp..=last_xp {
            let tag = ((pool as u64) << 48) | xp;
            if !node.xpbuffer.touch(tag) {
                media_lines += 1;
            }
        }
        let write_bytes = media_lines * XPLINE as u64;
        let xp_hits = xp_touched - media_lines;

        let pstats = pool::stats_of(pool).local();
        let gstats = stats::global().local();
        pstats.xpbuffer_hits.fetch_add(xp_hits, Ordering::Relaxed);
        pstats
            .xpbuffer_misses
            .fetch_add(media_lines, Ordering::Relaxed);
        gstats.xpbuffer_hits.fetch_add(xp_hits, Ordering::Relaxed);
        gstats
            .xpbuffer_misses
            .fetch_add(media_lines, Ordering::Relaxed);
        pstats.flushes.fetch_add(n_lines, Ordering::Relaxed);
        pstats
            .media_write_bytes
            .fetch_add(write_bytes, Ordering::Relaxed);
        gstats.flushes.fetch_add(n_lines, Ordering::Relaxed);
        gstats
            .media_write_bytes
            .fetch_add(write_bytes, Ordering::Relaxed);

        if cfg.throttle && write_bytes > 0 {
            node.write_bucket.acquire(write_bytes, &rt.origin);
        }
        if cfg.inject_latency && !cfg.eadr {
            let mut ns = cfg.flush_ns * n_lines;
            if remote {
                ns += cfg.remote_extra_ns;
            }
            let waited = model_wait(cfg, ns);
            obsv::trace::add_stall(obsv::trace::StallKind::Flush, waited);
        }
    });
}

/// Reports a store that dirties NVM without an explicit flush (e.g. lock
/// state mutated by readers, GA2): the line will be written back by cache
/// eviction eventually, consuming write bandwidth but adding no synchronous
/// latency.
#[inline]
pub fn on_dirty(pool: PoolId, offset: u64, len: usize) {
    if !enabled() || len == 0 || pool::is_dram(pool) {
        return;
    }
    on_dirty_slow(pool, offset, len);
}

#[cold]
fn on_dirty_slow(pool: PoolId, offset: u64, len: usize) {
    with_runtime(|rt| {
        let cfg = &rt.config;
        let pool_node = pool::node_of(pool) as usize;
        let node = &rt.nodes[pool_node.min(MAX_NODES - 1)];
        let first_xp = offset / XPLINE as u64;
        let last_xp = (offset + len as u64 - 1) / XPLINE as u64;
        let mut media_lines = 0u64;
        for xp in first_xp..=last_xp {
            if !node.xpbuffer.touch(((pool as u64) << 48) | xp) {
                media_lines += 1;
            }
        }
        let xp_hits = (last_xp - first_xp + 1) - media_lines;
        let pstats = pool::stats_of(pool).local();
        let gstats = stats::global().local();
        pstats.xpbuffer_hits.fetch_add(xp_hits, Ordering::Relaxed);
        pstats
            .xpbuffer_misses
            .fetch_add(media_lines, Ordering::Relaxed);
        gstats.xpbuffer_hits.fetch_add(xp_hits, Ordering::Relaxed);
        gstats
            .xpbuffer_misses
            .fetch_add(media_lines, Ordering::Relaxed);
        let bytes = media_lines * XPLINE as u64;
        if bytes == 0 {
            return;
        }
        pstats.media_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        gstats.media_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        if cfg.throttle {
            node.write_bucket.acquire(bytes, &rt.origin);
        }
    });
}

/// Reports an ordering fence (`sfence` equivalent).
#[inline]
pub fn on_fence() {
    if !enabled() {
        return;
    }
    stats::global()
        .local()
        .fences
        .fetch_add(1, Ordering::Relaxed);
    with_runtime(|rt| {
        if rt.config.inject_latency && !rt.config.eadr {
            let waited = model_wait(&rt.config, rt.config.fence_ns);
            obsv::trace::add_stall(obsv::trace::StallKind::Fence, waited);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{destroy_pool, PmemPool, PoolConfig};

    /// Serializes tests that mutate the global model configuration; without
    /// it, concurrently running tests trample each other's configs.
    static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    fn with_accounting<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock();
        set_config(NvmModelConfig::accounting());
        let r = f();
        set_config(NvmModelConfig::disabled());
        r
    }

    #[test]
    fn read_charges_xpline_granularity() {
        with_accounting(|| {
            let pool = PmemPool::create(PoolConfig::volatile("t-model-read", 1 << 20)).unwrap();
            let before = stats::global().snapshot();
            on_read(pool.id(), 4096, 64); // one cold cache line
            let after = stats::global().snapshot();
            assert_eq!(after.since(&before).media_read_bytes, XPLINE as u64);
            // Second read of the same line hits the simulated CPU cache.
            let before = stats::global().snapshot();
            on_read(pool.id(), 4096, 64);
            let after = stats::global().snapshot();
            assert_eq!(after.since(&before).media_read_bytes, 0);
            // A flush evicts the line from the slot the read cached it in.
            on_flush(pool.id(), 4096, 64);
            let before = stats::global().snapshot();
            on_read(pool.id(), 4096, 64);
            let after = stats::global().snapshot();
            assert_eq!(after.since(&before).media_read_bytes, XPLINE as u64);
            destroy_pool(pool.id());
        });
    }

    /// Lines `first..first + n` of pool `pool`, as the CPU-cache sim keys them.
    fn lines(pool: u64, first: u64, n: u64) -> impl Iterator<Item = u64> {
        (first..first + n).map(move |l| (pool << 48) | l)
    }

    fn hits(c: &mut CpuCache, lines: impl Iterator<Item = u64>) -> usize {
        lines.filter(|&l| c.access(l)).count()
    }

    fn cold_cache() -> CpuCache {
        let mut c = CpuCache::empty();
        c.ensure(NvmModelConfig::accounting().cpu_cache_lines, 1);
        c
    }

    #[test]
    fn pools_at_equal_offsets_stay_resident_together() {
        let mut c = cold_cache();
        hits(&mut c, lines(1, 0, 64));
        hits(&mut c, lines(2, 0, 64));
        // Indexed by the raw offset, each pool evicted the other: 0 hits.
        let resident = hits(&mut c, lines(1, 0, 64)) + hits(&mut c, lines(2, 0, 64));
        assert!(
            resident >= 120,
            "only {resident} of 128 lines stayed cached"
        );
    }

    #[test]
    fn node_stride_does_not_decide_what_stays_cached() {
        // A fixed 64-line working set (a search layer's hot lines) is read
        // before and after a sweep that reads the first 200 bytes of each of
        // 2048 nodes in another pool; summed over 16 working-set pools.
        // Indexed by the raw offset, 4096-byte nodes left 960 hits and
        // 3328-byte nodes 576; a Fibonacci hash left 691 and 513.
        let kept = |stride: u64| -> usize {
            (1..=16u64)
                .map(|ws_pool| {
                    let mut c = cold_cache();
                    hits(&mut c, lines(ws_pool, 16, 64));
                    for node in 0..2048u64 {
                        let first = node * stride / CACHE_LINE as u64;
                        let last = (node * stride + 199) / CACHE_LINE as u64;
                        hits(&mut c, lines(100, first, last - first + 1));
                    }
                    hits(&mut c, lines(ws_pool, 16, 64))
                })
                .sum()
        };
        let (pow2, xpline) = (kept(4096), kept(3328));
        assert!(
            pow2.abs_diff(xpline) * 10 <= pow2.max(xpline),
            "working-set hits differ by more than 10%: {pow2} (4096-byte stride) vs {xpline} (3328)"
        );
    }

    #[test]
    fn sequential_flushes_write_combine() {
        with_accounting(|| {
            let pool = PmemPool::create(PoolConfig::volatile("t-model-wc", 1 << 20)).unwrap();
            let before = pool.stats().snapshot();
            // Four consecutive cache lines inside one XPLine: one media write.
            for i in 0..4u64 {
                on_flush(pool.id(), 8192 + i * 64, 64);
            }
            let d = pool.stats().snapshot().since(&before);
            assert_eq!(d.media_write_bytes, XPLINE as u64);
            assert_eq!(d.flushes, 4);
            destroy_pool(pool.id());
        });
    }

    #[test]
    fn scattered_flushes_amplify() {
        with_accounting(|| {
            let pool = PmemPool::create(PoolConfig::volatile("t-model-amp", 1 << 20)).unwrap();
            let before = pool.stats().snapshot();
            // 64 lines spread over 64 distinct XPLines, far enough apart to
            // defeat the 16-entry XPBuffer.
            for i in 0..64u64 {
                on_flush(pool.id(), i * 4096, 64);
            }
            let d = pool.stats().snapshot().since(&before);
            assert_eq!(d.media_write_bytes, 64 * XPLINE as u64);
            destroy_pool(pool.id());
        });
    }

    #[test]
    fn directory_mode_charges_remote_reads() {
        let _guard = TEST_LOCK.lock();
        let mut cfg = NvmModelConfig::accounting();
        cfg.coherence = CoherenceMode::Directory;
        cfg.cpu_cache_lines = 0; // every read reaches the media
        set_config(cfg);
        let pool =
            PmemPool::create(PoolConfig::volatile("t-model-dir", 1 << 20).on_node(1)).unwrap();
        numa::pin_thread(0); // thread on node 0, pool on node 1 => remote
        let before = pool.stats().snapshot();
        on_read(pool.id(), 0, 64);
        let d = pool.stats().snapshot().since(&before);
        assert_eq!(d.media_read_bytes, XPLINE as u64);
        assert_eq!(d.directory_write_bytes, CACHE_LINE as u64);
        set_config(NvmModelConfig::disabled());
        destroy_pool(pool.id());
    }

    #[test]
    fn token_bucket_enforces_rate() {
        let origin = Instant::now();
        let bucket = TokenBucket::new(1_000_000_000); // 1 GB/s => 1 byte/ns
        let start = Instant::now();
        // Drain the burst, then 2 MB more must take ~2 ms. 2 MB exceeds the
        // burst size, which the pre-debt-model acquire could never satisfy
        // (it hung here); the debt model pays it off at the refill rate.
        bucket.acquire(bucket.burst as u64, &origin);
        bucket.acquire(2_000_000, &origin);
        bucket.acquire(1, &origin); // must wait out the remaining debt
        assert!(
            start.elapsed().as_micros() >= 1500,
            "throttle too permissive"
        );
    }

    #[test]
    fn spin_ns_waits() {
        let t = Instant::now();
        spin_ns(100_000);
        assert!(t.elapsed().as_nanos() >= 100_000);
    }

    #[test]
    fn config_sizes_normalized_to_pow2() {
        let _guard = TEST_LOCK.lock();
        let mut cfg = NvmModelConfig::accounting();
        cfg.cpu_cache_lines = 1000; // not a power of two
        cfg.xpbuffer_lines = 20; // not a power of two
        set_config(cfg);
        let active = config();
        assert_eq!(active.cpu_cache_lines, 1024);
        assert_eq!(active.xpbuffer_lines, 32);
        // The CPU-cache sim masks with `lines - 1`; a non-pow2 size would
        // alias incorrectly. Exercise the path to prove it works.
        let pool = PmemPool::create(PoolConfig::volatile("t-model-pow2", 1 << 20)).unwrap();
        let before = pool.stats().snapshot();
        on_read(pool.id(), 0, 64);
        on_read(pool.id(), 0, 64); // second read must hit the 1024-line cache
        let d = pool.stats().snapshot().since(&before);
        assert_eq!(d.media_read_bytes, XPLINE as u64);
        // cpu_cache_lines = 0 stays 0 (read filtering disabled).
        let mut cfg = NvmModelConfig::accounting();
        cfg.cpu_cache_lines = 0;
        set_config(cfg);
        assert_eq!(config().cpu_cache_lines, 0);
        set_config(NvmModelConfig::disabled());
        destroy_pool(pool.id());
    }

    /// Reference implementation of the seed's fully-associative LRU
    /// XPBuffer, used to calibrate the lock-free set-associative version.
    struct RefLru {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl RefLru {
        fn new(lines: usize) -> Self {
            RefLru {
                tags: vec![u64::MAX; lines],
                stamps: vec![0; lines],
                clock: 0,
            }
        }

        fn touch(&mut self, tag: u64) -> bool {
            self.clock += 1;
            let mut victim = 0;
            let mut victim_stamp = u64::MAX;
            for i in 0..self.tags.len() {
                if self.tags[i] == tag {
                    self.stamps[i] = self.clock;
                    return true;
                }
                if self.stamps[i] < victim_stamp {
                    victim_stamp = self.stamps[i];
                    victim = i;
                }
            }
            self.tags[victim] = tag;
            self.stamps[victim] = self.clock;
            false
        }
    }

    #[test]
    fn xpbuffer_calibrated_against_lru_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let _guard = TEST_LOCK.lock();
        let mut cfg = NvmModelConfig::accounting();
        cfg.xpbuffer_lines = 16;
        set_config(cfg);
        let pool = PmemPool::create(PoolConfig::volatile("t-model-calib", 1 << 22)).unwrap();
        let id = pool.id();
        let lines_per_xp = (XPLINE / CACHE_LINE) as u64;

        // Sequential flush stream: 1024 consecutive cache lines.
        let seq: Vec<u64> = (0..1024).collect();
        // Random flush stream: 4096 lines over a 1024-XPLine span.
        let mut rng = StdRng::seed_from_u64(42);
        let rand: Vec<u64> = (0..4096)
            .map(|_| rng.gen_range(0..1024 * lines_per_xp))
            .collect();

        for (name, lines) in [("sequential", &seq), ("random", &rand)] {
            set_config({
                let mut c = NvmModelConfig::accounting();
                c.xpbuffer_lines = 16;
                c
            }); // fresh runtime => empty XPBuffer for each pattern
            let mut reference = RefLru::new(16);
            let ref_misses: u64 = lines
                .iter()
                .map(|&l| {
                    let tag = ((id as u64) << 48) | (l / lines_per_xp);
                    u64::from(!reference.touch(tag))
                })
                .sum();
            let before = pool.stats().snapshot();
            for &l in lines {
                on_flush(id, l * CACHE_LINE as u64, CACHE_LINE);
            }
            let got = pool.stats().snapshot().since(&before).media_write_bytes;
            let want = ref_misses * XPLINE as u64;
            let tolerance = want / 10;
            assert!(
                got.abs_diff(want) <= tolerance,
                "{name}: set-associative XPBuffer drifted from LRU reference: \
                 got {got} media-write bytes, reference {want} (±{tolerance})"
            );
        }
        set_config(NvmModelConfig::disabled());
        destroy_pool(id);
    }

    #[test]
    fn striped_totals_exact_under_config_churn() {
        let _guard = TEST_LOCK.lock();
        set_config(NvmModelConfig::accounting());
        let pool = PmemPool::create(PoolConfig::volatile("t-model-churn", 1 << 22)).unwrap();
        let id = pool.id();
        const THREADS: u64 = 4;
        const OPS: u64 = 20_000;
        let span = (1u64 << 22) / CACHE_LINE as u64;
        let before = pool.stats().snapshot();
        let fences_before = stats::global().snapshot().fences;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..OPS {
                        let line = (t * OPS + i) % span;
                        on_flush(id, line * CACHE_LINE as u64, CACHE_LINE);
                        on_fence();
                    }
                });
            }
            // Churn the runtime while workers are accounting: every install
            // must atomically swap the epoch so no hook ever panics, loses
            // its event, or sticks to a stale runtime.
            for i in 0..50 {
                let mut c = NvmModelConfig::accounting();
                c.xpbuffer_lines = if i % 2 == 0 { 16 } else { 64 };
                set_config(c);
                std::thread::yield_now();
            }
        });
        let d = pool.stats().snapshot().since(&before);
        assert_eq!(
            d.flushes,
            THREADS * OPS,
            "striped per-pool flush count must aggregate exactly"
        );
        assert!(
            stats::global().snapshot().fences - fences_before >= THREADS * OPS,
            "global fence count lost increments"
        );
        assert!(d.media_write_bytes > 0);
        set_config(NvmModelConfig::disabled());
        destroy_pool(id);
    }
}
