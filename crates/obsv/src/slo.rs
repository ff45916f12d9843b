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
//! under it. Transitions are appended to a bounded in-memory event log
//! (and an optional JSONL sink, schema `slo_events/v1`); live states are
//! exportable as registry gauges (`slo.<name>.firing` / `.burn_fast` /
//! `.burn_slow`) so alert episodes land in the scraped time series
//! themselves.
//!
//! The engine holds no references into the indexes and touches no hot
//! path: [`SloEngine::evaluate`] runs on the scraper thread against
//! already-collected samples.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::recorder::OpKind;
use crate::registry::{MetricsRegistry, Registration};
use crate::tsdb::Tsdb;

/// Default fast alerting window: 1 minute.
pub const DEFAULT_FAST_WINDOW_NS: u64 = 60 * 1_000_000_000;
/// Default slow alerting window: 10 minutes.
pub const DEFAULT_SLOW_WINDOW_NS: u64 = 600 * 1_000_000_000;
/// Bounded in-memory event log length.
const EVENT_CAP: usize = 1024;

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
    transitions: u64,
}

/// One `slo_events/v1` line: `event` (`fire` or `clear`) of the SLO
/// `slo` at `ts_ns`, with the burns that caused it. Every alert source
/// (this engine, [`crate::fleet::FleetScraper`]) writes through here.
pub(crate) fn event_line(
    ts_ns: u64,
    slo: &str,
    event: &str,
    burn_fast: f64,
    burn_slow: f64,
    burn_threshold: f64,
) -> String {
    format!(
        "{{\"schema\":\"slo_events/v1\",\"ts_ns\":{ts_ns},\"slo\":\"{slo}\",\"event\":\"{event}\",\"burn_fast\":{burn_fast:.4},\"burn_slow\":{burn_slow:.4},\"burn_threshold\":{burn_threshold:.4}}}"
    )
}

struct EventLog {
    recent: VecDeque<String>,
    sink: Option<Box<dyn Write + Send>>,
}

/// Evaluates a set of [`SloSpec`]s against a [`Tsdb`] after each scrape.
pub struct SloEngine {
    tsdb: Arc<Tsdb>,
    specs: Vec<SloSpec>,
    states: Mutex<Vec<State>>,
    events: Mutex<EventLog>,
}

impl SloEngine {
    pub fn new(tsdb: Arc<Tsdb>, specs: Vec<SloSpec>) -> Arc<SloEngine> {
        let states = vec![State::default(); specs.len()];
        Arc::new(SloEngine {
            tsdb,
            specs,
            states: Mutex::new(states),
            events: Mutex::new(EventLog {
                recent: VecDeque::new(),
                sink: None,
            }),
        })
    }

    /// Routes a copy of every transition event (JSONL, schema
    /// `slo_events/v1`) to `sink`, flushed per line.
    pub fn set_event_sink(&self, sink: Box<dyn Write + Send>) {
        self.events.lock().unwrap().sink = Some(sink);
    }

    /// Re-evaluates every SLO against the current time series; returns
    /// the number of fire/clear transitions. Called by the scraper after
    /// each scrape (or directly, in deterministic tests).
    pub fn evaluate(&self) -> usize {
        let ts_ns = self.tsdb.latest_ts_ns().unwrap_or(0);
        let mut transitions = 0;
        let mut states = self.states.lock().unwrap();
        for (spec, st) in self.specs.iter().zip(states.iter_mut()) {
            st.burn_fast = spec.burn(&self.tsdb, spec.fast_window_ns);
            st.burn_slow = spec.burn(&self.tsdb, spec.slow_window_ns);
            let th = spec.burn_threshold;
            if !st.firing && st.burn_fast >= th && st.burn_slow >= th {
                st.firing = true;
                st.transitions += 1;
                transitions += 1;
                self.emit(ts_ns, spec, st, "fire");
            } else if st.firing && st.burn_fast < th {
                st.firing = false;
                st.transitions += 1;
                transitions += 1;
                self.emit(ts_ns, spec, st, "clear");
            }
        }
        transitions
    }

    fn emit(&self, ts_ns: u64, spec: &SloSpec, st: &State, event: &str) {
        let line = event_line(
            ts_ns,
            &spec.name,
            event,
            st.burn_fast,
            st.burn_slow,
            spec.burn_threshold,
        );
        let mut log = self.events.lock().unwrap();
        if log.recent.len() == EVENT_CAP {
            log.recent.pop_front();
        }
        log.recent.push_back(line.clone());
        if let Some(sink) = &mut log.sink {
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
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

    /// Whether any SLO is currently firing.
    pub fn any_firing(&self) -> bool {
        self.states.lock().unwrap().iter().any(|s| s.firing)
    }

    /// Total fire+clear transitions across all SLOs since creation.
    pub fn transition_count(&self) -> u64 {
        self.states
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.transitions)
            .sum()
    }

    /// Copies of the most recent transition events (JSONL lines, oldest
    /// first, bounded).
    pub fn recent_events(&self) -> Vec<String> {
        self.events.lock().unwrap().recent.iter().cloned().collect()
    }

    /// Exports every SLO's live state as gauges (`slo.<name>.firing`,
    /// `.burn_fast`, `.burn_slow`) so alert episodes appear in scraped
    /// samples. Gauges hold only a `Weak` to the engine.
    pub fn register_gauges(self: &Arc<Self>, reg: &MetricsRegistry) -> Vec<Registration> {
        let mut guards = Vec::with_capacity(self.specs.len() * 3);
        for (i, spec) in self.specs.iter().enumerate() {
            let w = Arc::downgrade(self);
            guards.push(
                reg.register_gauge(format!("slo.{}.firing", spec.name), move || {
                    w.upgrade().map(|e| {
                        if e.states.lock().unwrap()[i].firing {
                            1.0
                        } else {
                            0.0
                        }
                    })
                }),
            );
            let w = Arc::downgrade(self);
            guards.push(
                reg.register_gauge(format!("slo.{}.burn_fast", spec.name), move || {
                    w.upgrade().map(|e| e.states.lock().unwrap()[i].burn_fast)
                }),
            );
            let w = Arc::downgrade(self);
            guards.push(
                reg.register_gauge(format!("slo.{}.burn_slow", spec.name), move || {
                    w.upgrade().map(|e| e.states.lock().unwrap()[i].burn_slow)
                }),
            );
        }
        guards
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

        // Healthy traffic: 1000 good/s, no shed.
        for i in 0..5u64 {
            db.record(counter_sample(i * sec, 0.0, 1000.0 * i as f64));
            engine.evaluate();
        }
        assert!(!engine.any_firing());

        // Overload: 200 bad + 800 good per second (20% shed = 20x burn).
        let mut bad = 0.0;
        let mut good = 4000.0;
        let mut fired_at = None;
        for i in 5..10u64 {
            bad += 200.0;
            good += 800.0;
            db.record(counter_sample(i * sec, bad, good));
            engine.evaluate();
            if engine.any_firing() && fired_at.is_none() {
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
            engine.evaluate();
            if !engine.any_firing() && cleared_at.is_none() {
                cleared_at = Some(i);
            }
        }
        assert!(matches!(cleared_at, Some(at) if at <= 13), "{cleared_at:?}");
        assert_eq!(engine.transition_count(), 2);

        // The episode left a fire and a clear event, in order.
        let events = engine.recent_events();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(events[0].contains("\"event\":\"fire\""), "{}", events[0]);
        assert!(events[1].contains("\"event\":\"clear\""), "{}", events[1]);
        assert!(events[0].contains("\"schema\":\"slo_events/v1\""));
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

    #[test]
    fn gauges_export_state_and_drop_with_engine() {
        let db = Tsdb::new(8);
        let reg = MetricsRegistry::new();
        let engine = SloEngine::new(db, vec![SloSpec::ratio("x", "b", "g", 0.01)]);
        let guards = engine.register_gauges(&reg);
        assert_eq!(guards.len(), 3);
        let s = reg.sample();
        assert_eq!(s.gauges.get("slo.x.firing"), Some(&0.0));
        assert_eq!(s.gauges.get("slo.x.burn_fast"), Some(&0.0));
        drop(engine);
        assert!(reg.sample().gauges.is_empty());
        drop(guards);
    }
}
