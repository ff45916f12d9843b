//! Fixed-memory time-series store over registry samples.
//!
//! A [`Tsdb`] is a bounded ring of [`Sample`]s pulled from a
//! [`MetricsRegistry`](crate::MetricsRegistry). Writers (the scraper
//! thread) only append; every derivation — counter deltas and
//! windowed histogram subtraction — happens on the reader side against the
//! monotone snapshots PR 3's histograms already provide, so the index hot
//! paths gain **no new locks and no new instructions**: the only cost of
//! continuous telemetry is the periodic `registry.sample()` walk on the
//! scraper thread (last measured in EXPERIMENTS.md's observability
//! section).
//!
//! Retention is fixed-memory by construction: `capacity` samples, oldest
//! evicted on overflow.
//!
//! [`Scraper`] is the background pump: every `interval` it samples the
//! global registry into the ring and (optionally) re-evaluates an
//! [`SloEngine`](crate::slo::SloEngine). Deterministic tests skip the
//! thread and call [`Tsdb::scrape_global`] / [`Tsdb::record`]
//! directly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::recorder::OpSetSnapshot;
use crate::registry::{self, Sample};

/// A bounded ring of registry samples with windowed read-side derivation.
pub struct Tsdb {
    ring: Mutex<VecDeque<Sample>>,
    capacity: usize,
}

impl Tsdb {
    /// A ring retaining the last `capacity` samples (min 2 — windowed
    /// queries need two points).
    pub fn new(capacity: usize) -> Arc<Tsdb> {
        let capacity = capacity.max(2);
        Arc::new(Tsdb {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        })
    }

    /// Number of currently retained samples.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Whether no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one sample, evicting the oldest at capacity.
    pub fn record(&self, sample: Sample) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(sample);
    }

    /// Samples the global registry into the ring; returns the sample's
    /// timestamp.
    pub fn scrape_global(&self) -> u64 {
        let s = registry::global().sample();
        let ts = s.ts_ns;
        self.record(s);
        ts
    }

    /// Timestamp of the newest retained sample.
    pub fn latest_ts_ns(&self) -> Option<u64> {
        self.ring.lock().unwrap().back().map(|s| s.ts_ns)
    }

    /// Runs `f` on the (newest, oldest-in-window) sample pair. `None` when
    /// fewer than two samples fall inside the window — a delta needs two
    /// distinct points.
    fn with_window<R>(&self, window_ns: u64, f: impl FnOnce(&Sample, &Sample) -> R) -> Option<R> {
        let ring = self.ring.lock().unwrap();
        let newest = ring.back()?;
        let start = newest.ts_ns.saturating_sub(window_ns);
        let oldest = ring.iter().find(|s| s.ts_ns >= start)?;
        if oldest.ts_ns == newest.ts_ns {
            return None;
        }
        Some(f(newest, oldest))
    }

    /// Windowed delta of a monotone counter gauge, clamped at 0, plus the
    /// span actually covered (ns).
    pub fn counter_delta(&self, name: &str, window_ns: u64) -> Option<(f64, u64)> {
        self.with_window(window_ns, |newest, oldest| {
            let a = oldest.gauges.get(name).copied()?;
            let b = newest.gauges.get(name).copied()?;
            Some(((b - a).max(0.0), newest.ts_ns - oldest.ts_ns))
        })?
    }

    /// Windowed per-kind histogram delta for `source` (the ops completed
    /// inside the window), plus the span covered (ns). Subtraction happens
    /// here, on the reader.
    pub fn hist_delta(&self, source: &str, window_ns: u64) -> Option<(OpSetSnapshot, u64)> {
        self.with_window(window_ns, |newest, oldest| {
            let a = oldest.hists.get(source)?;
            let b = newest.hists.get(source)?;
            Some((b.since(a), newest.ts_ns - oldest.ts_ns))
        })?
    }
}

/// Background scrape pump: every `interval`, samples the global registry
/// into a [`Tsdb`] and then re-evaluates an optional SLO engine against
/// the ring, the new sample included. Deadline-driven with 10 ms ticks so
/// `stop()` returns promptly; missed deadlines are skipped, not replayed.
/// Stops and joins on drop.
pub struct Scraper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Scraper {
    /// Starts the scrape thread (`obsv-tsdb`).
    pub fn start(
        tsdb: Arc<Tsdb>,
        interval: Duration,
        slo: Option<Arc<crate::slo::SloEngine>>,
    ) -> Scraper {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obsv-tsdb".into())
            .spawn(move || {
                let tick = interval
                    .min(Duration::from_millis(10))
                    .max(Duration::from_micros(100));
                let mut next = Instant::now() + interval;
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    let now = Instant::now();
                    if now < next {
                        continue;
                    }
                    while next <= now {
                        next += interval;
                    }
                    tsdb.scrape_global();
                    if let Some(engine) = &slo {
                        engine.evaluate();
                    }
                }
                // A final scrape + evaluate so even shorter-than-interval
                // runs leave a closing data point.
                tsdb.scrape_global();
                if let Some(engine) = &slo {
                    engine.evaluate();
                }
            })
            .expect("spawn obsv-tsdb thread");
        Scraper {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the scrape thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Scraper {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{OpHistograms, OpKind};
    use std::collections::BTreeMap;

    fn sample_at(ts_ns: u64, gauges: &[(&str, f64)]) -> Sample {
        Sample {
            ts_ns,
            gauges: gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect::<BTreeMap<_, _>>(),
            hists: BTreeMap::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let db = Tsdb::new(3);
        for i in 0..10u64 {
            db.record(sample_at(i * 1_000, &[("c", i as f64)]));
        }
        assert_eq!(db.len(), 3);
        assert_eq!(db.latest_ts_ns(), Some(9_000));
        // Oldest retained is ts=7000: a full-ring window sees 7000..9000.
        let (delta, dt) = db.counter_delta("c", u64::MAX).unwrap();
        assert_eq!(delta, 2.0);
        assert_eq!(dt, 2_000);
    }

    #[test]
    fn counter_delta_is_windowed() {
        let db = Tsdb::new(16);
        // 4 samples 1s apart: 100, 200, 300, 400.
        for i in 0..4u64 {
            db.record(sample_at(
                i * 1_000_000_000,
                &[("ops", 100.0 * (i + 1) as f64)],
            ));
        }
        // Full window: 300 ops over 3 s.
        let (delta, dt) = db.counter_delta("ops", u64::MAX).unwrap();
        assert_eq!((delta, dt), (300.0, 3_000_000_000));
        // 1.5 s window: only the last two samples qualify (dt = 1 s).
        let (delta, dt) = db.counter_delta("ops", 1_500_000_000).unwrap();
        assert_eq!(delta, 100.0);
        assert_eq!(dt, 1_000_000_000);
        // Window too narrow for two samples: no delta.
        assert!(db.counter_delta("ops", 1).is_none());
        // Unknown gauge: no delta.
        assert!(db.counter_delta("nope", u64::MAX).is_none());
    }

    #[test]
    fn counter_delta_clamps_resets_to_zero() {
        let db = Tsdb::new(8);
        db.record(sample_at(0, &[("c", 500.0)]));
        db.record(sample_at(1_000, &[("c", 10.0)])); // counter reset
        let (delta, _) = db.counter_delta("c", u64::MAX).unwrap();
        assert_eq!(delta, 0.0);
    }

    #[test]
    fn hist_delta_subtracts_window_edges() {
        let ops = OpHistograms::new();
        ops.record(OpKind::Lookup, 100);
        let snap_a = ops.snapshot();
        ops.record(OpKind::Lookup, 200);
        ops.record(OpKind::Scan, 999);
        let snap_b = ops.snapshot();

        let db = Tsdb::new(8);
        let mk = |ts, snap: OpSetSnapshot| Sample {
            ts_ns: ts,
            gauges: BTreeMap::new(),
            hists: [("idx".to_string(), snap)].into_iter().collect(),
        };
        db.record(mk(1_000, snap_a));
        db.record(mk(2_000, snap_b));

        let (delta, dt) = db.hist_delta("idx", u64::MAX).unwrap();
        assert_eq!(dt, 1_000);
        assert_eq!(delta.get(OpKind::Lookup).count(), 1);
        assert_eq!(delta.get(OpKind::Scan).count(), 1);
        assert_eq!(delta.total_count(), 2);
    }

    #[test]
    fn scraper_thread_records_and_stops() {
        let db = Tsdb::new(64);
        let scraper = Scraper::start(Arc::clone(&db), Duration::from_millis(5), None);
        let deadline = Instant::now() + Duration::from_secs(5);
        while db.len() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        scraper.stop();
        assert!(db.len() >= 3, "scraper recorded {} samples", db.len());
    }
}
