//! Always-on observability for the PACTree workspace.
//!
//! Four pieces, layered so everything below the bench binaries can report
//! without dependency cycles (this crate is std-only; `pmem` depends on it,
//! everything else depends on `pmem`):
//!
//! * [`hist`] — lock-free, thread-striped, log-bucketed latency histograms
//!   with bounded relative error and mergeable/subtractable snapshots.
//! * [`recorder`] — per-operation-kind histogram sets and the shared
//!   [`OpRecorder`] trait implemented by every index.
//! * [`registry`] — process-global registry of named gauges (SMO replay
//!   lag, epoch backlog, XPBuffer hit rate, throttle stall time, ...) and
//!   per-index histogram sources, pulled into JSON [`registry::Sample`]s.
//! * [`flight`] — feature-gated heavier machinery: bounded per-thread
//!   rings of recent ops dumped on panic.
//! * [`trace`] — feature-gated span-based request tracer with tail-based
//!   retention (only slow/errored traces are kept) and NVM stall
//!   attribution; context/export types are always available so the wire
//!   codec works in every build.
//! * [`tsdb`] / [`slo`] / [`prom`] — continuous telemetry: a fixed-memory
//!   ring of periodic registry samples with read-side delta/rate
//!   derivation, a multi-window error-budget SLO engine over it, and the
//!   Prometheus text renderer the health endpoints serve.
//! * [`fleet`] — the cluster plane: a scraper that polls every node's
//!   metrics page, rebuilds and merges histogram snapshots into exact
//!   fleet-wide percentiles, and evaluates cluster-level SLOs
//!   (fleet p99, stuck migrations, migration-window burn).
//!
//! Hot-path cost when enabled is one relaxed striped `fetch_add` for the
//! exact per-op count, plus — on a deterministic 1-in-2^[`sample_shift`]
//! sample of operations (default 1/16) — one [`clock::now_ns`] pair and a
//! weighted histogram update. Sampled latencies carry their sampling
//! period as a bucket weight, so quantiles/means stay unbiased while
//! counts stay exact. [`set_sample_shift`]`(0)` records every operation
//! (full-fidelity mode, used by the tail-latency experiments); cost is
//! quantified by `bench_obsv_overhead`. When disabled via
//! [`set_enabled`]`(false)` the whole path is two predictable branches.

pub mod clock;
pub mod fleet;
pub mod flight;
pub mod hist;
pub mod prom;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod trace;
pub mod tsdb;

pub use fleet::{FleetScraper, FleetSloConfig, FleetView};
pub use hist::{HistSnapshot, Histogram, RELATIVE_ERROR_BOUND};
pub use recorder::{OpHistograms, OpKind, OpRecorder, OpSetSnapshot};
pub use registry::{global, MetricsRegistry, Registration, Sample};
pub use slo::{Objective, SloEngine, SloSpec, SloStatus};
pub use tsdb::{Scraper, Tsdb};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Observability is on by default; `bench_obsv_overhead` (and anyone
/// wanting the last few ns) can turn the timed hot path off at runtime.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables/disables hot-path recording (timers + histograms +
/// flight recorder). Registry gauges keep working either way — they read
/// counters maintained by the code under observation, not by us.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether hot-path recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Default latency sampling: time 1 in 2^4 = 16 operations.
pub const DEFAULT_SAMPLE_SHIFT: u32 = 4;
const MAX_SAMPLE_SHIFT: u32 = 16;

/// log2 of the latency sampling period. Every operation is *counted*
/// exactly; only 1 in 2^shift pays the clock pair, and its latency enters
/// the histogram with weight 2^shift so the distribution stays unbiased.
static SAMPLE_SHIFT: AtomicU32 = AtomicU32::new(DEFAULT_SAMPLE_SHIFT);

/// Sets the latency sampling period to 1 in 2^`shift` operations
/// (clamped to 2^16). `0` means every operation is timed — full-fidelity
/// mode for tail-latency experiments where per-op cost doesn't matter.
pub fn set_sample_shift(shift: u32) {
    SAMPLE_SHIFT.store(shift.min(MAX_SAMPLE_SHIFT), Ordering::Relaxed);
}

/// Current log2 sampling period (see [`set_sample_shift`]).
#[inline]
pub fn sample_shift() -> u32 {
    SAMPLE_SHIFT.load(Ordering::Relaxed)
}

thread_local! {
    /// Per-thread countdown to the next timed operation. Starts at 0 so
    /// the first operation on every thread is always sampled.
    static SAMPLE_COUNTDOWN: Cell<u32> = const { Cell::new(0) };
}

/// Outcome of [`OpTimer::stop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerStop {
    /// Observability was disabled at start time: record nothing.
    Disabled,
    /// The operation was not in the latency sample: count it, no latency.
    Counted,
    /// A sampled operation: `ns` elapsed, representing `weight` ops.
    Sampled { ns: u64, weight: u64 },
}

/// A started operation timer. `Copy` and one word; on the common
/// (unsampled) path neither `start()` nor `stop()` reads a clock — the
/// cost is one TLS countdown decrement.
#[derive(Clone, Copy, Debug)]
pub struct OpTimer {
    start_ns: u64,
}

const DISABLED: u64 = u64::MAX;
const UNSAMPLED: u64 = u64::MAX - 1;

impl OpTimer {
    /// Starts timing. Reads the clock only when this operation falls on
    /// the thread's 1-in-2^[`sample_shift`] latency sample.
    #[inline]
    pub fn start() -> OpTimer {
        if !enabled() {
            return OpTimer { start_ns: DISABLED };
        }
        SAMPLE_COUNTDOWN.with(|c| {
            let left = c.get();
            if left > 0 {
                c.set(left - 1);
                OpTimer {
                    start_ns: UNSAMPLED,
                }
            } else {
                c.set((1u32 << sample_shift()) - 1);
                OpTimer {
                    start_ns: clock::now_ns(),
                }
            }
        })
    }

    /// Stops the timer, reading the clock again only if this operation
    /// was sampled.
    #[inline]
    pub fn stop(self) -> TimerStop {
        match self.start_ns {
            DISABLED => TimerStop::Disabled,
            UNSAMPLED => TimerStop::Counted,
            start => TimerStop::Sampled {
                ns: clock::now_ns().saturating_sub(start),
                weight: 1u64 << sample_shift(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_respects_enable_flag_and_sampling() {
        assert!(enabled());
        set_sample_shift(0);
        let t = OpTimer::start();
        assert!(matches!(t.stop(), TimerStop::Sampled { weight: 1, .. }));

        set_enabled(false);
        let t = OpTimer::start();
        assert_eq!(t.stop(), TimerStop::Disabled);
        set_enabled(true);

        // With a 1-in-4 sample, the countdown yields exactly one Sampled
        // stop (weight 4) per four starts.
        set_sample_shift(2);
        let stops: Vec<TimerStop> = (0..8).map(|_| OpTimer::start().stop()).collect();
        let sampled = stops
            .iter()
            .filter(|s| matches!(s, TimerStop::Sampled { weight: 4, .. }))
            .count();
        let counted = stops.iter().filter(|&&s| s == TimerStop::Counted).count();
        assert_eq!(sampled, 2, "{stops:?}");
        assert_eq!(counted, 6, "{stops:?}");
        set_sample_shift(DEFAULT_SAMPLE_SHIFT);
    }
}
