//! PMWatch-equivalent media counters.
//!
//! The paper measures NVM media traffic (e.g. Figures 4 and 5 report "total
//! NVM read (GB)") with Intel PMWatch. Our [`crate::model`] feeds the same
//! kind of counters: media-level reads/writes at XPLine granularity, plus
//! persistence-instruction counts and allocator activity.
//!
//! Counters are *striped*: a [`PoolStats`] is a bank of cache-line-padded
//! [`StatShard`]s, and each thread increments only its own shard (picked
//! round-robin on first use), so the model's hot path never write-shares a
//! cache line between threads. Readers aggregate with [`PoolStats::snapshot`];
//! all reporting (figure binaries, the YCSB driver) goes through snapshots,
//! so striping is invisible outside this module.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter stripes per [`PoolStats`].
///
/// Threads map onto stripes round-robin, so this only needs to be large
/// enough that concurrently *hot* threads rarely collide; collisions cost
/// cache-line bouncing, not correctness.
pub const STAT_SHARDS: usize = 32;

/// One cache-line-padded stripe of media counters.
///
/// Padded to 128 bytes (two cache lines) so adjacent-stripe writes never
/// false-share, including on CPUs that prefetch line pairs.
#[repr(align(128))]
#[derive(Default, Debug)]
pub struct StatShard {
    /// Bytes read from the media (XPLine granularity).
    pub media_read_bytes: AtomicU64,
    /// Bytes written to the media (XPLine granularity, after XPBuffer
    /// write combining).
    pub media_write_bytes: AtomicU64,
    /// Directory-coherence bookkeeping writes caused by remote reads.
    pub directory_write_bytes: AtomicU64,
    /// Number of cache-line flush instructions (`clwb` equivalents).
    pub flushes: AtomicU64,
    /// Number of ordering fences (`sfence` equivalents).
    pub fences: AtomicU64,
    /// Allocations served.
    pub allocs: AtomicU64,
    /// Frees served.
    pub frees: AtomicU64,
    /// Nanoseconds spent inside the allocator (for the GA3 experiment).
    pub alloc_ns: AtomicU64,
    /// Flush/dirty accesses absorbed by the XPBuffer (write combining hit).
    pub xpbuffer_hits: AtomicU64,
    /// Flush/dirty accesses that evicted or installed a new XPBuffer line
    /// (and therefore cost media traffic).
    pub xpbuffer_misses: AtomicU64,
    /// Nanoseconds spent stalled in the bandwidth token bucket's slow path.
    pub throttle_stall_ns: AtomicU64,
}

impl StatShard {
    const fn new() -> Self {
        StatShard {
            media_read_bytes: AtomicU64::new(0),
            media_write_bytes: AtomicU64::new(0),
            directory_write_bytes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            fences: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            alloc_ns: AtomicU64::new(0),
            xpbuffer_hits: AtomicU64::new(0),
            xpbuffer_misses: AtomicU64::new(0),
            throttle_stall_ns: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        self.media_read_bytes.store(0, Ordering::Relaxed);
        self.media_write_bytes.store(0, Ordering::Relaxed);
        self.directory_write_bytes.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
        self.fences.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
        self.frees.store(0, Ordering::Relaxed);
        self.alloc_ns.store(0, Ordering::Relaxed);
        self.xpbuffer_hits.store(0, Ordering::Relaxed);
        self.xpbuffer_misses.store(0, Ordering::Relaxed);
        self.throttle_stall_ns.store(0, Ordering::Relaxed);
    }
}

/// Stripe index of the calling thread, in `0..STAT_SHARDS`.
///
/// Assigned round-robin from a global counter the first time a thread
/// touches any counter, then cached in TLS: the steady state is one plain
/// TLS read. Public so other per-thread-striped counters in the stack
/// (PACTree's `TreeStats`) share this one assignment.
#[inline]
pub fn my_shard() -> usize {
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            idx = NEXT.fetch_add(1, Ordering::Relaxed) % STAT_SHARDS;
            s.set(idx);
        }
        idx
    })
}

/// A monotonically increasing, striped set of media counters.
///
/// One instance exists per pool slot ([`crate::pool::stats_of`]) and one
/// global instance aggregates everything ([`global`]).
#[derive(Default, Debug)]
pub struct PoolStats {
    shards: [StatShard; STAT_SHARDS],
}

impl PoolStats {
    /// A zeroed counter bank, const so it can live in statics.
    pub const fn new() -> Self {
        PoolStats {
            shards: [const { StatShard::new() }; STAT_SHARDS],
        }
    }

    /// The calling thread's stripe; increment counters through this.
    #[inline]
    pub fn local(&self) -> &StatShard {
        &self.shards[my_shard()]
    }

    /// Takes a point-in-time snapshot (sums all stripes).
    ///
    /// Counters are monotonic between [`reset`](Self::reset)s, so a snapshot
    /// taken concurrently with writers is a consistent lower bound per field.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for shard in &self.shards {
            s.media_read_bytes += shard.media_read_bytes.load(Ordering::Relaxed);
            s.media_write_bytes += shard.media_write_bytes.load(Ordering::Relaxed);
            s.directory_write_bytes += shard.directory_write_bytes.load(Ordering::Relaxed);
            s.flushes += shard.flushes.load(Ordering::Relaxed);
            s.fences += shard.fences.load(Ordering::Relaxed);
            s.allocs += shard.allocs.load(Ordering::Relaxed);
            s.frees += shard.frees.load(Ordering::Relaxed);
            s.alloc_ns += shard.alloc_ns.load(Ordering::Relaxed);
            s.xpbuffer_hits += shard.xpbuffer_hits.load(Ordering::Relaxed);
            s.xpbuffer_misses += shard.xpbuffer_misses.load(Ordering::Relaxed);
            s.throttle_stall_ns += shard.throttle_stall_ns.load(Ordering::Relaxed);
        }
        s
    }

    /// Resets every counter to zero (not atomic with concurrent writers,
    /// same as the pre-striping behaviour — reset between measurement runs).
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.reset();
        }
    }
}

/// An owned copy of the counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub media_read_bytes: u64,
    pub media_write_bytes: u64,
    pub directory_write_bytes: u64,
    pub flushes: u64,
    pub fences: u64,
    pub allocs: u64,
    pub frees: u64,
    pub alloc_ns: u64,
    pub xpbuffer_hits: u64,
    pub xpbuffer_misses: u64,
    pub throttle_stall_ns: u64,
}

impl StatsSnapshot {
    /// Counter deltas `self - earlier` (saturating).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            media_read_bytes: self
                .media_read_bytes
                .saturating_sub(earlier.media_read_bytes),
            media_write_bytes: self
                .media_write_bytes
                .saturating_sub(earlier.media_write_bytes),
            directory_write_bytes: self
                .directory_write_bytes
                .saturating_sub(earlier.directory_write_bytes),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            fences: self.fences.saturating_sub(earlier.fences),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            alloc_ns: self.alloc_ns.saturating_sub(earlier.alloc_ns),
            xpbuffer_hits: self.xpbuffer_hits.saturating_sub(earlier.xpbuffer_hits),
            xpbuffer_misses: self.xpbuffer_misses.saturating_sub(earlier.xpbuffer_misses),
            throttle_stall_ns: self
                .throttle_stall_ns
                .saturating_sub(earlier.throttle_stall_ns),
        }
    }

    /// Fraction of flush/dirty accesses absorbed by the XPBuffer, or 0
    /// before any traffic.
    pub fn xpbuffer_hit_rate(&self) -> f64 {
        let total = self.xpbuffer_hits + self.xpbuffer_misses;
        if total == 0 {
            0.0
        } else {
            self.xpbuffer_hits as f64 / total as f64
        }
    }

    /// Media reads in GiB.
    pub fn read_gib(&self) -> f64 {
        self.media_read_bytes as f64 / (1u64 << 30) as f64
    }

    /// Media writes (including directory writes) in GiB.
    pub fn write_gib(&self) -> f64 {
        (self.media_write_bytes + self.directory_write_bytes) as f64 / (1u64 << 30) as f64
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read {:.3} GiB, write {:.3} GiB (dir {:.3} GiB), {} flushes, {} fences, {} allocs, {} frees",
            self.read_gib(),
            self.media_write_bytes as f64 / (1u64 << 30) as f64,
            self.directory_write_bytes as f64 / (1u64 << 30) as f64,
            self.flushes,
            self.fences,
            self.allocs,
            self.frees,
        )
    }
}

/// Global counters aggregated across all pools.
pub fn global() -> &'static PoolStats {
    static GLOBAL: PoolStats = PoolStats::new();
    &GLOBAL
}

/// Registers the substrate's pipeline gauges with the global
/// [`obsv::registry`]: XPBuffer hit rate (write-combining effectiveness)
/// and token-bucket stall time (bandwidth throttling), plus the raw media
/// counters behind them. Idempotent per returned guard set — hold the
/// `Registration`s for as long as the gauges should be visible.
pub fn install_obsv_gauges() -> Vec<obsv::Registration> {
    let reg = obsv::registry::global();
    let snap = || global().snapshot();
    vec![
        reg.register_gauge("pmem.xpbuffer.hit_rate", move || {
            Some(snap().xpbuffer_hit_rate())
        }),
        reg.register_gauge("pmem.xpbuffer.hits", move || {
            Some(snap().xpbuffer_hits as f64)
        }),
        reg.register_gauge("pmem.xpbuffer.misses", move || {
            Some(snap().xpbuffer_misses as f64)
        }),
        reg.register_gauge("pmem.throttle.stall_ns", move || {
            Some(snap().throttle_stall_ns as f64)
        }),
        reg.register_gauge("pmem.media.read_bytes", move || {
            Some(snap().media_read_bytes as f64)
        }),
        reg.register_gauge("pmem.media.write_bytes", move || {
            Some(snap().media_write_bytes as f64)
        }),
        reg.register_gauge("pmem.flushes", move || Some(snap().flushes as f64)),
        reg.register_gauge("pmem.fences", move || Some(snap().fences as f64)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let s = PoolStats::new();
        s.local().media_read_bytes.store(100, Ordering::Relaxed);
        let a = s.snapshot();
        s.local().media_read_bytes.fetch_add(400, Ordering::Relaxed);
        s.local().flushes.fetch_add(3, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.media_read_bytes, 400);
        assert_eq!(d.flushes, 3);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn stripes_aggregate_across_threads() {
        let s = PoolStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.local().flushes.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().flushes, 8000);
    }

    #[test]
    fn shard_is_padded() {
        assert!(std::mem::size_of::<StatShard>() >= 128);
        assert_eq!(std::mem::align_of::<StatShard>(), 128);
    }
}
