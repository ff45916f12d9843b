//! Service metrics wired into the `obsv` registry.
//!
//! All counters are plain relaxed atomics bumped by submitters and shard
//! workers; the registry pulls them through `Weak`-captured gauges so a
//! dropped service vanishes from samples instead of dangling. Registered
//! names (prefix = the service's configured name):
//!
//! * `{name}.queue.depth` — operations queued across all shards;
//! * `{name}.shed.total` — operations answered `Overloaded` at admission;
//! * `{name}.admitted.total` — operations accepted into a shard queue;
//! * `{name}.batch.mean` — mean drained-batch size;
//! * hist source `{name}` — per-op-kind *sojourn* latency (admission to
//!   completion, i.e. queue time + execution), the service-level
//!   distribution the tail experiments read p50/p99/p999 from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use obsv::hist::Histogram;
use obsv::{OpHistograms, Registration};

/// Counters and distributions of one service instance.
#[derive(Default)]
pub struct ServiceMetrics {
    /// Per-op-kind sojourn latency (admission -> completion), exact counts.
    pub ops: OpHistograms,
    /// Sizes of batches drained by shard workers.
    pub batch_sizes: Histogram,
    /// Operations accepted into a shard queue.
    pub admitted: AtomicU64,
    /// Operations shed at admission (full queue or not running).
    pub shed: AtomicU64,
    /// Operations dropped because their deadline expired in-queue.
    pub timeouts: AtomicU64,
}

impl ServiceMetrics {
    /// Shed fraction of all admission decisions so far:
    /// `shed / (shed + admitted)`. Deadline timeouts are *not* included —
    /// a timed-out op was admitted (it is in the denominator) and is
    /// counted separately in [`timeouts`](Self::timeouts).
    pub fn shed_rate(&self) -> f64 {
        let shed = self.shed.load(Ordering::Relaxed) as f64;
        let total = shed + self.admitted.load(Ordering::Relaxed) as f64;
        if total == 0.0 {
            0.0
        } else {
            shed / total
        }
    }

    /// Registers every gauge/histogram of this service in the global obsv
    /// registry. `queue_len` extracts the live depth from one shard queue;
    /// the gauge sums it over `shards`. Returns the RAII registrations
    /// (drop = unregister).
    pub fn register<Q: Send + Sync + 'static>(
        name: &str,
        metrics: &Arc<ServiceMetrics>,
        shards: &Arc<Vec<Arc<Q>>>,
        queue_len: impl Fn(&Q) -> usize + Send + Sync + Copy + 'static,
    ) -> Vec<Registration> {
        let reg = obsv::global();
        let mut out = Vec::new();
        let shards_w: Weak<Vec<Arc<Q>>> = Arc::downgrade(shards);
        out.push(reg.register_gauge(format!("{name}.queue.depth"), move || {
            shards_w
                .upgrade()
                .map(|s| s.iter().map(|q| queue_len(q)).sum::<usize>() as f64)
        }));
        type Field = fn(&ServiceMetrics) -> &AtomicU64;
        let counters: [(&str, Field); 2] = [
            ("shed.total", |m| &m.shed),
            ("admitted.total", |m| &m.admitted),
        ];
        for (suffix, field) in counters {
            let w = Arc::downgrade(metrics);
            out.push(reg.register_gauge(format!("{name}.{suffix}"), move || {
                w.upgrade()
                    .map(|m| field(&m).load(Ordering::Relaxed) as f64)
            }));
        }
        let w = Arc::downgrade(metrics);
        out.push(reg.register_gauge(format!("{name}.batch.mean"), move || {
            w.upgrade().map(|m| m.batch_sizes.snapshot().mean())
        }));
        let w = Arc::downgrade(metrics);
        out.push(reg.register_hists(name.to_string(), move || {
            w.upgrade().map(|m| m.ops.snapshot())
        }));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_register_and_vanish_with_owner() {
        let metrics = Arc::new(ServiceMetrics::default());
        let shards: Arc<Vec<Arc<AtomicU64>>> = Arc::new(vec![
            Arc::new(AtomicU64::new(3)),
            Arc::new(AtomicU64::new(4)),
        ]);
        let regs = ServiceMetrics::register("pacsrv-test-metrics", &metrics, &shards, |q| {
            q.load(Ordering::Relaxed) as usize
        });
        metrics.shed.fetch_add(2, Ordering::Relaxed);
        metrics.batch_sizes.record(8);
        let s = obsv::global().sample();
        assert_eq!(s.gauges.get("pacsrv-test-metrics.queue.depth"), Some(&7.0));
        assert_eq!(s.gauges.get("pacsrv-test-metrics.shed.total"), Some(&2.0));
        assert!(s.gauges.contains_key("pacsrv-test-metrics.batch.mean"));
        assert!(s.hists.contains_key("pacsrv-test-metrics"));
        drop(regs);
        let s = obsv::global().sample();
        assert!(!s.gauges.contains_key("pacsrv-test-metrics.queue.depth"));
    }

    #[test]
    fn shed_rate_math() {
        let m = ServiceMetrics::default();
        assert_eq!(m.shed_rate(), 0.0);
        m.admitted.store(75, Ordering::Relaxed);
        m.shed.store(25, Ordering::Relaxed);
        assert!((m.shed_rate() - 0.25).abs() < 1e-9);
    }
}
