//! Process-wide metrics registry: named gauges and per-op histogram sets.
//!
//! Components register callbacks (typically capturing a `Weak` to their
//! owner so registration never extends an index's lifetime); readers call
//! [`MetricsRegistry::sample`] to pull a point-in-time [`Sample`]. A
//! callback returning `None` (owner dropped) is skipped. Registration is
//! RAII: dropping the returned [`Registration`] unregisters.
//!
//! Names should be unique per process (prefix with the pool/index name);
//! `sample()` keeps the last writer on duplicates so JSON objects stay
//! well-formed.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::recorder::OpSetSnapshot;

type GaugeFn = Box<dyn Fn() -> Option<f64> + Send + Sync>;
type HistFn = Box<dyn Fn() -> Option<OpSetSnapshot> + Send + Sync>;

struct Inner {
    gauges: Vec<(u64, String, GaugeFn)>,
    hists: Vec<(u64, String, HistFn)>,
    next_id: u64,
}

/// Registry of live metric sources.
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(Mutex::new(Inner {
                gauges: Vec::new(),
                hists: Vec::new(),
                next_id: 0,
            })),
        }
    }

    /// Registers a named scalar gauge. The callback runs on every
    /// `sample()`; return `None` once the underlying owner is gone.
    pub fn register_gauge(
        &self,
        name: impl Into<String>,
        f: impl Fn() -> Option<f64> + Send + Sync + 'static,
    ) -> Registration {
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.gauges.push((id, name.into(), Box::new(f)));
        Registration {
            inner: Arc::downgrade(&self.inner),
            id,
        }
    }

    /// Registers a named per-op histogram source (one per pacsrv service).
    pub fn register_hists(
        &self,
        name: impl Into<String>,
        f: impl Fn() -> Option<OpSetSnapshot> + Send + Sync + 'static,
    ) -> Registration {
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.hists.push((id, name.into(), Box::new(f)));
        Registration {
            inner: Arc::downgrade(&self.inner),
            id,
        }
    }

    /// Pulls every live metric at one instant. Dead sources (callback
    /// returned `None`) are omitted.
    pub fn sample(&self) -> Sample {
        let inner = self.inner.lock().unwrap();
        let mut gauges = BTreeMap::new();
        for (_, name, f) in &inner.gauges {
            if let Some(v) = f() {
                gauges.insert(name.clone(), v);
            }
        }
        let mut hists = BTreeMap::new();
        for (_, name, f) in &inner.hists {
            if let Some(s) = f() {
                hists.insert(name.clone(), s);
            }
        }
        Sample {
            ts_ns: crate::clock::now_ns(),
            gauges,
            hists,
        }
    }

    /// Number of registered gauge sources (live or dead), for tests.
    pub fn gauge_count(&self) -> usize {
        self.inner.lock().unwrap().gauges.len()
    }
}

/// The process-global registry every layer reports into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// RAII guard: unregisters its metric on drop. Holds only a `Weak` to the
/// registry, so guards outliving the registry (test registries) are fine.
pub struct Registration {
    inner: Weak<Mutex<Inner>>,
    id: u64,
}

impl Drop for Registration {
    fn drop(&mut self) {
        if let Some(m) = self.inner.upgrade() {
            let mut inner = m.lock().unwrap();
            inner.gauges.retain(|(id, _, _)| *id != self.id);
            inner.hists.retain(|(id, _, _)| *id != self.id);
        }
    }
}

/// A point-in-time pull of every live metric.
#[derive(Clone)]
pub struct Sample {
    /// Process-relative timestamp ([`crate::clock::now_ns`]).
    pub ts_ns: u64,
    pub gauges: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, OpSetSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{OpHistograms, OpKind};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn gauge_lifecycle_and_sampling() {
        let reg = MetricsRegistry::new();
        let counter = Arc::new(AtomicU64::new(7));
        let c2 = Arc::downgrade(&counter);
        let guard = reg.register_gauge("test.counter", move || {
            c2.upgrade().map(|c| c.load(Ordering::Relaxed) as f64)
        });
        let s = reg.sample();
        assert_eq!(s.gauges.get("test.counter"), Some(&7.0));

        // Owner dropped: gauge disappears from samples but stays registered.
        drop(counter);
        assert!(!reg.sample().gauges.contains_key("test.counter"));
        assert_eq!(reg.gauge_count(), 1);

        // Guard dropped: unregistered.
        drop(guard);
        assert_eq!(reg.gauge_count(), 0);
    }

    #[test]
    fn hist_sources_join_the_sample() {
        let reg = MetricsRegistry::new();
        let ops = Arc::new(OpHistograms::new());
        ops.record(OpKind::Lookup, 123);
        let w = Arc::downgrade(&ops);
        let _guard = reg.register_hists("idx", move || w.upgrade().map(|o| o.snapshot()));
        let _g2 = reg.register_gauge("g", || Some(1.5));
        let s = reg.sample();
        assert_eq!(s.hists["idx"].get(OpKind::Lookup).count(), 1);
        assert_eq!(s.gauges.get("g"), Some(&1.5));
    }

    #[test]
    fn registration_outliving_registry_is_harmless() {
        let reg = MetricsRegistry::new();
        let guard = reg.register_gauge("x", || Some(0.0));
        drop(reg);
        drop(guard); // must not panic
    }
}
