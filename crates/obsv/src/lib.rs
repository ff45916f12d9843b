//! Always-on observability for the PACTree workspace.
//!
//! The pieces are layered so everything below the bench binaries can report
//! without dependency cycles (this crate is std-only; `pmem` depends on it,
//! everything else depends on `pmem`):
//!
//! * [`hist`] — lock-free, thread-striped, log-bucketed latency histograms
//!   with bounded relative error and mergeable/subtractable snapshots.
//! * [`recorder`] — per-operation-kind histogram sets, owned by the
//!   harness that times index calls (the YCSB driver, a pacsrv service).
//! * [`registry`] — process-global registry of named gauges (SMO replay
//!   lag, epoch backlog, XPBuffer hit rate, throttle stall time, ...) and
//!   per-index histogram sources, pulled into [`registry::Sample`]s.
//! * [`trace`] — span-based request tracer with tail-based retention (only
//!   slow/errored traces are kept, in a store bounded in spans) and NVM
//!   stall attribution. Always compiled in; 1 in 64 stamped
//!   requests records spans, and the rest cost one TLS countdown.
//! * [`prom`] — the Prometheus text renderer behind the health listener's
//!   `GET /metrics`; `GET /spans` serves [`trace::span_dump`]. Those two
//!   pages are the only way telemetry leaves a process.
//! * [`fleet`] — the cluster plane on the health endpoints: a scraper that
//!   polls every node's metrics page, rebuilds and merges histogram
//!   snapshots into exact fleet-wide percentiles, and raises the
//!   stuck-migration alert.
//!
//! Hot-path cost is one relaxed striped `fetch_add` for the exact per-op
//! count, plus — on a deterministic 1-in-2^[`sample_shift`] sample of
//! operations (default 1/16) — one [`clock::now_ns`] pair and a weighted
//! histogram update. Sampled latencies carry their sampling period as a
//! bucket weight, so quantiles/means stay unbiased while counts stay
//! exact. [`set_sample_shift`]`(0)` records every operation
//! (full-fidelity mode, used by the tail-latency experiments); cost is
//! pacbench's `obsv.hist_record_ns` rung.

pub mod clock;
pub mod fleet;
pub mod hist;
pub mod prom;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use fleet::{FleetScraper, FleetView};
pub use hist::{HistSnapshot, Histogram, RELATIVE_ERROR_BOUND};
pub use recorder::{OpHistograms, OpKind, OpSetSnapshot};
pub use registry::{global, MetricsRegistry, Registration, Sample};

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};

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

const UNSAMPLED: u64 = u64::MAX;

impl OpTimer {
    /// Starts timing. Reads the clock only when this operation falls on
    /// the thread's 1-in-2^[`sample_shift`] latency sample.
    #[inline]
    pub fn start() -> OpTimer {
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
    fn timer_samples_one_in_2_pow_shift() {
        // At the default 1-in-16 sample, any 32 consecutive starts on a
        // thread yield exactly two Sampled stops (weight 16), whatever the
        // countdown's phase.
        assert_eq!(sample_shift(), DEFAULT_SAMPLE_SHIFT);
        let stops: Vec<TimerStop> = (0..32).map(|_| OpTimer::start().stop()).collect();
        let sampled = stops
            .iter()
            .filter(|s| matches!(s, TimerStop::Sampled { weight: 16, .. }))
            .count();
        let counted = stops.iter().filter(|&&s| s == TimerStop::Counted).count();
        assert_eq!(sampled, 2, "{stops:?}");
        assert_eq!(counted, 30, "{stops:?}");
    }
}
