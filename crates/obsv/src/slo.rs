//! Declarative SLOs with multi-window error-budget burn-rate alerting.
//!
//! An [`SloSpec`] names an objective over the time series in a
//! [`Tsdb`](crate::tsdb::Tsdb):
//!
//! * [`Objective::Latency`] — "`quantile(q)` of `source`/`kind` stays
//!   below `threshold_ns`". The error budget is the `1-q` fraction of
//!   operations allowed to exceed the threshold (a p99 objective budgets
//!   1% slow ops); the *burn rate* is the observed slow fraction divided
//!   by that budget.
//! * [`Objective::Ratio`] — "`bad/(bad+good)` stays below `max_ratio`"
//!   over windowed deltas of two monotone counter gauges (e.g. shed rate
//!   from `pacsrv.shed.total` vs `pacsrv.admitted.total`); burn rate is
//!   the observed bad fraction divided by `max_ratio`.
//!
//! Alerting follows the SRE multi-window recipe: an alert **fires** only
//! when both a fast window (default 1 m — quick detection) and a slow
//! window (default 10 m — burst suppression) burn above
//! `burn_threshold`, and **clears** as soon as the fast window drops back
//! under it. [`SloEngine::status`] is the live state; a service that holds
//! an engine renders it on its metrics page as the `slo_firing` /
//! `slo_burn_rate` families ([`crate::prom::render`]).
//!
//! The engine holds no references into the indexes and touches no hot
//! path: [`SloEngine::evaluate`] runs on the scraper thread against
//! already-collected samples.

use std::sync::{Arc, Mutex};

use crate::recorder::OpKind;
use crate::tsdb::Tsdb;

/// Default fast alerting window: 1 minute.
pub const DEFAULT_FAST_WINDOW_NS: u64 = 60 * 1_000_000_000;
/// Default slow alerting window: 10 minutes.
pub const DEFAULT_SLOW_WINDOW_NS: u64 = 600 * 1_000_000_000;

/// What an SLO measures.
#[derive(Clone, Debug)]
pub enum Objective {
    /// `quantile(q)` of the `source` histogram for `kind` must stay below
    /// `threshold_ns`: at most a `1-q` fraction of ops may exceed it.
    Latency {
        source: String,
        kind: OpKind,
        q: f64,
        threshold_ns: u64,
    },
    /// `bad/(bad+good)` over windowed counter-gauge deltas must stay
    /// below `max_ratio`.
    Ratio {
        bad: String,
        good: String,
        max_ratio: f64,
    },
}

/// One declarative objective plus its alerting windows.
#[derive(Clone, Debug)]
pub struct SloSpec {
    pub name: String,
    pub objective: Objective,
    pub fast_window_ns: u64,
    pub slow_window_ns: u64,
    /// Burn-rate multiple above which the alert fires (1.0 = budget is
    /// being consumed exactly as fast as it accrues).
    pub burn_threshold: f64,
}

impl SloSpec {
    /// A latency-quantile objective (e.g. `lookup p99 < 5 µs over 60 s`)
    /// with default windows and threshold.
    pub fn latency(
        name: impl Into<String>,
        source: impl Into<String>,
        kind: OpKind,
        q: f64,
        threshold_ns: u64,
    ) -> SloSpec {
        SloSpec {
            name: name.into(),
            objective: Objective::Latency {
                source: source.into(),
                kind,
                q,
                threshold_ns,
            },
            fast_window_ns: DEFAULT_FAST_WINDOW_NS,
            slow_window_ns: DEFAULT_SLOW_WINDOW_NS,
            burn_threshold: 1.0,
        }
    }

    /// A bad-fraction objective over two monotone counter gauges (e.g.
    /// `shed_rate < 1%`) with default windows and threshold.
    pub fn ratio(
        name: impl Into<String>,
        bad: impl Into<String>,
        good: impl Into<String>,
        max_ratio: f64,
    ) -> SloSpec {
        SloSpec {
            name: name.into(),
            objective: Objective::Ratio {
                bad: bad.into(),
                good: good.into(),
                max_ratio,
            },
            fast_window_ns: DEFAULT_FAST_WINDOW_NS,
            slow_window_ns: DEFAULT_SLOW_WINDOW_NS,
            burn_threshold: 1.0,
        }
    }

    /// Overrides both alerting windows (demos and tests scale them down).
    pub fn with_windows(mut self, fast_ns: u64, slow_ns: u64) -> Self {
        self.fast_window_ns = fast_ns;
        self.slow_window_ns = slow_ns;
        self
    }

    /// Burn rate over one window: budget-consumption multiple in [0, ∞).
    /// 0.0 when the window holds no data — an idle service burns no
    /// budget.
    fn burn(&self, tsdb: &Tsdb, window_ns: u64) -> f64 {
        match &self.objective {
            Objective::Latency {
                source,
                kind,
                q,
                threshold_ns,
            } => {
                let Some((delta, _)) = tsdb.hist_delta(source, window_ns) else {
                    return 0.0;
                };
                let h = delta.get(*kind);
                let weight = h.weight();
                if weight == 0 {
                    return 0.0;
                }
                let bad = h.weight_above(*threshold_ns);
                let budget = (1.0 - *q).max(1e-9);
                (bad as f64 / weight as f64) / budget
            }
            Objective::Ratio {
                bad,
                good,
                max_ratio,
            } => {
                let Some((bad_delta, _)) = tsdb.counter_delta(bad, window_ns) else {
                    return 0.0;
                };
                let good_delta = tsdb
                    .counter_delta(good, window_ns)
                    .map(|(d, _)| d)
                    .unwrap_or(0.0);
                let total = bad_delta + good_delta;
                if total <= 0.0 {
                    return 0.0;
                }
                (bad_delta / total) / max_ratio.max(1e-9)
            }
        }
    }
}

/// Point-in-time alert state of one SLO.
#[derive(Clone, Debug)]
pub struct SloStatus {
    pub name: String,
    pub firing: bool,
    pub burn_fast: f64,
    pub burn_slow: f64,
    pub burn_threshold: f64,
}

#[derive(Clone, Copy, Debug, Default)]
struct State {
    firing: bool,
    burn_fast: f64,
    burn_slow: f64,
}

/// Evaluates a set of [`SloSpec`]s against a [`Tsdb`] after each scrape.
pub struct SloEngine {
    tsdb: Arc<Tsdb>,
    specs: Vec<SloSpec>,
    states: Mutex<Vec<State>>,
}

impl SloEngine {
    pub fn new(tsdb: Arc<Tsdb>, specs: Vec<SloSpec>) -> Arc<SloEngine> {
        let states = vec![State::default(); specs.len()];
        Arc::new(SloEngine {
            tsdb,
            specs,
            states: Mutex::new(states),
        })
    }

    /// Re-evaluates every SLO against the current time series; returns
    /// the number of fire/clear transitions. Called by the scraper after
    /// each scrape (or directly, in deterministic tests).
    pub fn evaluate(&self) -> usize {
        let mut transitions = 0;
        let mut states = self.states.lock().unwrap();
        for (spec, st) in self.specs.iter().zip(states.iter_mut()) {
            st.burn_fast = spec.burn(&self.tsdb, spec.fast_window_ns);
            st.burn_slow = spec.burn(&self.tsdb, spec.slow_window_ns);
            let th = spec.burn_threshold;
            if !st.firing && st.burn_fast >= th && st.burn_slow >= th {
                st.firing = true;
                transitions += 1;
            } else if st.firing && st.burn_fast < th {
                st.firing = false;
                transitions += 1;
            }
        }
        transitions
    }

    /// Current state of every SLO, in spec order.
    pub fn status(&self) -> Vec<SloStatus> {
        let states = self.states.lock().unwrap();
        self.specs
            .iter()
            .zip(states.iter())
            .map(|(spec, st)| SloStatus {
                name: spec.name.clone(),
                firing: st.firing,
                burn_fast: st.burn_fast,
                burn_slow: st.burn_slow,
                burn_threshold: spec.burn_threshold,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{OpHistograms, OpSetSnapshot};
    use crate::registry::Sample;
    use std::collections::BTreeMap;

    fn counter_sample(ts_ns: u64, bad: f64, good: f64) -> Sample {
        Sample {
            ts_ns,
            gauges: [("s.bad".to_string(), bad), ("s.good".to_string(), good)]
                .into_iter()
                .collect(),
            hists: BTreeMap::new(),
        }
    }

    fn hist_sample(ts_ns: u64, snap: OpSetSnapshot) -> Sample {
        Sample {
            ts_ns,
            gauges: BTreeMap::new(),
            hists: [("idx".to_string(), snap)].into_iter().collect(),
        }
    }

    #[test]
    fn ratio_slo_fires_on_both_windows_and_clears_on_fast() {
        let db = Tsdb::new(64);
        // shed_rate < 1%, fast window 2 ticks, slow window 4 ticks
        // (1 tick = 1s).
        let spec = SloSpec::ratio("shed", "s.bad", "s.good", 0.01)
            .with_windows(2_000_000_000, 4_000_000_000);
        let engine = SloEngine::new(Arc::clone(&db), vec![spec]);
        let sec = 1_000_000_000u64;

        let firing = || engine.status()[0].firing;
        let mut transitions = 0;

        // Healthy traffic: 1000 good/s, no shed.
        for i in 0..5u64 {
            db.record(counter_sample(i * sec, 0.0, 1000.0 * i as f64));
            transitions += engine.evaluate();
        }
        assert!(!firing());

        // Overload: 200 bad + 800 good per second (20% shed = 20x burn).
        let mut bad = 0.0;
        let mut good = 4000.0;
        let mut fired_at = None;
        for i in 5..10u64 {
            bad += 200.0;
            good += 800.0;
            db.record(counter_sample(i * sec, bad, good));
            transitions += engine.evaluate();
            if firing() && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        // Must fire within one fast window (2 ticks) of overload onset.
        assert!(matches!(fired_at, Some(at) if at <= 7), "{fired_at:?}");
        let status = &engine.status()[0];
        assert!(
            status.burn_fast > 1.0 && status.burn_slow > 1.0,
            "{status:?}"
        );

        // Load drops: pure good traffic again; fast window recovers first
        // and the alert clears even while the slow window still burns.
        let mut cleared_at = None;
        for i in 10..18u64 {
            good += 1000.0;
            db.record(counter_sample(i * sec, bad, good));
            transitions += engine.evaluate();
            if !firing() && cleared_at.is_none() {
                cleared_at = Some(i);
            }
        }
        assert!(matches!(cleared_at, Some(at) if at <= 13), "{cleared_at:?}");
        // One fire and one clear: no flapping in between.
        assert_eq!(transitions, 2);
    }

    #[test]
    fn latency_slo_burn_is_bad_fraction_over_budget() {
        let db = Tsdb::new(8);
        let ops = OpHistograms::new();
        // Baseline snapshot, empty.
        db.record(hist_sample(0, ops.snapshot()));
        // 90 fast ops + 10 slow ops: 10% above threshold, p99 budget 1%
        // => burn 10x.
        for _ in 0..90 {
            ops.record(OpKind::Lookup, 1_000);
        }
        for _ in 0..10 {
            ops.record(OpKind::Lookup, 1_000_000);
        }
        db.record(hist_sample(1_000_000_000, ops.snapshot()));

        let spec = SloSpec::latency("lat", "idx", OpKind::Lookup, 0.99, 100_000)
            .with_windows(2_000_000_000, 2_000_000_000);
        let engine = SloEngine::new(Arc::clone(&db), vec![spec]);
        engine.evaluate();
        let st = &engine.status()[0];
        assert!((st.burn_fast - 10.0).abs() < 0.5, "{st:?}");
        assert!(st.firing);
    }

    #[test]
    fn idle_windows_burn_nothing() {
        let db = Tsdb::new(8);
        let spec = SloSpec::ratio("shed", "s.bad", "s.good", 0.01);
        let engine = SloEngine::new(Arc::clone(&db), vec![spec]);
        assert_eq!(engine.evaluate(), 0);
        let st = &engine.status()[0];
        assert_eq!(st.burn_fast, 0.0);
        assert!(!st.firing);
    }
}
