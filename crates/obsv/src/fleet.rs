//! Fleet-wide metrics aggregation over per-node health endpoints.
//!
//! A [`FleetScraper`] polls every node's plain-TCP `GET /metrics` surface
//! (the same Prometheus text page [`crate::prom::render`] produces),
//! parses each page back into [`HistSnapshot`]s via the invertible
//! `_bucket`/`_count`/`_sum` lines, and merges them into one
//! [`FleetView`]: fleet-wide **exact** percentiles (bucket-wise histogram
//! merge is lossless, so the documented
//! [`RELATIVE_ERROR_BOUND`](crate::hist::RELATIVE_ERROR_BOUND) = 3.125%
//! reconstruction bound is the *only* error, identical to a single-node
//! quantile), plus deduplicated gauges.
//!
//! Deduplication rule: several endpoints of one process serve the same
//! process-global registry, so a `(family, op)` histogram or a gauge seen
//! on multiple endpoints is the *same* counter scraped twice — merging
//! would double count. The scraper keeps the highest-count copy per
//! `(family, op)` (counters are monotone, so highest = latest) and then
//! merges across *distinct* families (one per node service). This is
//! correct for both in-process test clusters (N endpoints, one registry)
//! and real deployments (N endpoints, N disjoint registries).
//!
//! On top of the merged view the scraper evaluates cluster-level SLOs and
//! appends `slo_events/v1` transitions (same line format as
//! [`crate::slo::SloEngine`]):
//!
//! * `fleet.p99` — the fleet-merged all-op p99 stays under a configured
//!   objective; burn is the observed/objective ratio.
//! * `fleet.migration.stuck` — a `*_cluster_migration_phase` gauge stays
//!   non-idle longer than a configurable bound (default 30 s); a stuck or
//!   sealed partition otherwise degrades silently.
//! * `fleet.migration.burn` — the p99 objective is burning *while* a
//!   migration is in flight, separating rebalance-induced tail pain from
//!   steady-state pain.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::time::Duration;

use crate::hist::HistSnapshot;
use crate::slo::SloStatus;

/// Default stuck-migration alert bound: 30 s of wall clock in one
/// non-idle `cluster.migration.phase`.
pub const DEFAULT_STUCK_MIGRATION_BOUND_NS: u64 = 30 * 1_000_000_000;

/// Gauge-name suffix (post-sanitization) identifying a node's migration
/// phase gauge.
pub const MIGRATION_PHASE_SUFFIX: &str = "_cluster_migration_phase";

/// One node's parsed `/metrics` page.
#[derive(Clone, Debug, Default)]
pub struct NodeScrape {
    /// The page's `obsv_scrape_timestamp_ns` value.
    pub ts_ns: u64,
    /// Scalar gauges by sanitized name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by `(family, op)` — family is the summary name as
    /// rendered (e.g. `node0_latency_ns`), op the kind label.
    pub hists: BTreeMap<(String, String), HistSnapshot>,
}

/// Parses one Prometheus text page back into gauges and histogram
/// snapshots. The inverse of [`crate::prom::render`] for everything that
/// renderer emits losslessly: summary quantile lines are skipped (they
/// are recomputed after merging), `slo_*` families are skipped (per-node
/// alert state does not merge), malformed lines are ignored.
pub fn parse_prom_text(text: &str) -> NodeScrape {
    #[derive(Default)]
    struct Acc {
        rows: Vec<(u64, u64)>, // (bucket low edge, cumulative weight)
        ops: u64,
        sum: u64,
    }
    let mut ts_ns = 0u64;
    let mut gauges = BTreeMap::new();
    let mut accs: BTreeMap<(String, String), Acc> = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some((head, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Some((name, labels)) = head.split_once('{') {
            let labels = labels.trim_end_matches('}');
            let label = |key: &str| {
                labels.split(',').find_map(|kv| {
                    let (k, v) = kv.split_once('=')?;
                    (k == key).then(|| v.trim_matches('"').to_string())
                })
            };
            let Some(op) = label("op") else {
                continue; // slo_* and other non-op families
            };
            if let Some(base) = name.strip_suffix("_bucket") {
                let Some(le) = label("le") else { continue };
                if le == "+Inf" {
                    continue; // redundant with the last edge row
                }
                if let (Ok(low), Ok(cum)) = (le.parse::<u64>(), value.parse::<u64>()) {
                    accs.entry((base.to_string(), op))
                        .or_default()
                        .rows
                        .push((low, cum));
                }
            } else if let Some(base) = name.strip_suffix("_count") {
                accs.entry((base.to_string(), op)).or_default().ops = value.parse().unwrap_or(0);
            } else if let Some(base) = name.strip_suffix("_sum") {
                accs.entry((base.to_string(), op)).or_default().sum = value.parse().unwrap_or(0);
            }
            // Bare summary quantile lines fall through: recomputed later.
        } else if head == "obsv_scrape_timestamp_ns" {
            ts_ns = value.parse().unwrap_or(0);
        } else if let Ok(v) = value.parse::<f64>() {
            gauges.insert(head.to_string(), v);
        }
    }
    let hists = accs
        .into_iter()
        .map(|(key, acc)| {
            let mut prev = 0u64;
            let rows: Vec<(u64, u64)> = acc
                .rows
                .iter()
                .map(|&(low, cum)| {
                    let d = cum.saturating_sub(prev);
                    prev = cum;
                    (low, d)
                })
                .collect();
            (key, HistSnapshot::from_bucket_rows(&rows, acc.ops, acc.sum))
        })
        .collect();
    NodeScrape {
        ts_ns,
        gauges,
        hists,
    }
}

/// The fleet at one instant: deduplicated node scrapes, mergeable on
/// demand.
#[derive(Clone, Debug, Default)]
pub struct FleetView {
    /// Latest page timestamp across nodes.
    pub ts_ns: u64,
    /// Number of endpoints that answered.
    pub nodes: usize,
    /// Gauges deduplicated by name (highest value wins — same-name gauges
    /// across endpoints are the same registry cell, and counters are
    /// monotone).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms deduplicated by `(family, op)` (highest count wins).
    pub hists: BTreeMap<(String, String), HistSnapshot>,
}

impl FleetView {
    /// Folds node scrapes into one view under the dedup rules above.
    pub fn from_scrapes(scrapes: &[NodeScrape]) -> FleetView {
        let mut view = FleetView {
            nodes: scrapes.len(),
            ..FleetView::default()
        };
        for s in scrapes {
            view.ts_ns = view.ts_ns.max(s.ts_ns);
            for (name, &v) in &s.gauges {
                let e = view.gauges.entry(name.clone()).or_insert(v);
                if v > *e {
                    *e = v;
                }
            }
            for (key, h) in &s.hists {
                match view.hists.get_mut(key) {
                    Some(have) if have.count() >= h.count() => {}
                    Some(have) => *have = h.clone(),
                    None => {
                        view.hists.insert(key.clone(), h.clone());
                    }
                }
            }
        }
        view
    }

    /// Fleet-wide per-op snapshots: every family's histogram for that op
    /// merged bucket-wise (exact — equivalent to one histogram having
    /// recorded every node's stream).
    pub fn merged_by_op(&self) -> BTreeMap<String, HistSnapshot> {
        let mut out: BTreeMap<String, HistSnapshot> = BTreeMap::new();
        for ((_, op), h) in &self.hists {
            out.entry(op.clone())
                .or_insert_with(HistSnapshot::empty)
                .merge(h);
        }
        out
    }

    /// Fleet-wide all-op snapshot.
    pub fn merged_total(&self) -> HistSnapshot {
        let mut total = HistSnapshot::empty();
        for h in self.hists.values() {
            total.merge(h);
        }
        total
    }

    /// Sum of every deduplicated gauge whose name ends with `suffix`
    /// (e.g. queue depth across nodes).
    pub fn gauge_sum(&self, suffix: &str) -> f64 {
        self.gauges
            .iter()
            .filter(|(n, _)| n.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Every node's migration-phase gauge `(name, phase)`.
    pub fn migration_phases(&self) -> Vec<(String, f64)> {
        self.gauges
            .iter()
            .filter(|(n, _)| n.ends_with(MIGRATION_PHASE_SUFFIX))
            .map(|(n, &v)| (n.clone(), v))
            .collect()
    }
}

/// Fetches one endpoint's metrics page over plain TCP (`GET /metrics`,
/// HTTP/1.0) and returns the body.
pub fn fetch_metrics(addr: &str, timeout: Duration) -> std::io::Result<String> {
    let mut conn = std::net::TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Ok(raw),
    }
}

/// Cluster-level SLO configuration for [`FleetScraper`].
#[derive(Clone, Debug)]
pub struct FleetSloConfig {
    /// Objective for the fleet-merged all-op p99 (None = not evaluated).
    pub p99_objective_ns: Option<u64>,
    /// Non-idle migration-phase dwell above which `fleet.migration.stuck`
    /// fires.
    pub stuck_migration_bound_ns: u64,
}

impl Default for FleetSloConfig {
    fn default() -> Self {
        FleetSloConfig {
            p99_objective_ns: None,
            stuck_migration_bound_ns: DEFAULT_STUCK_MIGRATION_BOUND_NS,
        }
    }
}

#[derive(Default)]
struct StuckState {
    nonidle_since_ns: Option<u64>,
    fired: bool,
}

/// Polls a set of health endpoints, merges them into [`FleetView`]s, and
/// evaluates cluster-level SLOs. Event lines follow `slo_events/v1` with
/// strict fire/clear alternation per SLO name, same as
/// [`crate::slo::SloEngine`]'s sink.
pub struct FleetScraper {
    endpoints: Vec<String>,
    cfg: FleetSloConfig,
    stuck: BTreeMap<String, StuckState>,
    p99_firing: bool,
    p99_burn: f64,
    burn_firing: bool,
    events: Vec<String>,
    last: Option<FleetView>,
}

impl FleetScraper {
    /// A scraper over `endpoints` (host:port of each node's metrics
    /// listener).
    pub fn new(endpoints: Vec<String>, cfg: FleetSloConfig) -> FleetScraper {
        FleetScraper {
            endpoints,
            cfg,
            stuck: BTreeMap::new(),
            p99_firing: false,
            p99_burn: 0.0,
            burn_firing: false,
            events: Vec::new(),
            last: None,
        }
    }

    /// The configured endpoints.
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// Fetches every endpoint and folds the answers into a view; `now_ns`
    /// is the caller's monotone clock (event timestamps, stuck timers).
    /// Unreachable endpoints are skipped — a dead node must not take the
    /// fleet plane down with it.
    pub fn poll(&mut self, now_ns: u64) -> FleetView {
        let texts: Vec<String> = self
            .endpoints
            .clone()
            .iter()
            .filter_map(|ep| fetch_metrics(ep, Duration::from_secs(2)).ok())
            .collect();
        self.observe(&texts, now_ns)
    }

    /// Same as [`poll`](Self::poll) over pre-fetched pages (tests, and
    /// callers that already hold scrape bodies).
    pub fn observe(&mut self, texts: &[String], now_ns: u64) -> FleetView {
        let scrapes: Vec<NodeScrape> = texts.iter().map(|t| parse_prom_text(t)).collect();
        let view = FleetView::from_scrapes(&scrapes);
        self.evaluate(&view, now_ns);
        self.last = Some(view.clone());
        view
    }

    fn emit(&mut self, now_ns: u64, slo: &str, fire: bool, burn: f64, threshold: f64) {
        self.events.push(format!(
            "{{\"schema\":\"slo_events/v1\",\"ts_ns\":{now_ns},\"slo\":\"{slo}\",\"event\":\"{}\",\"burn_fast\":{burn:.4},\"burn_slow\":{burn:.4},\"burn_threshold\":{threshold:.4}}}",
            if fire { "fire" } else { "clear" }
        ));
    }

    fn evaluate(&mut self, view: &FleetView, now_ns: u64) {
        let bound = self.cfg.stuck_migration_bound_ns.max(1);
        let mut any_migrating = false;
        for (name, phase) in view.migration_phases() {
            if phase != 0.0 {
                any_migrating = true;
            }
            let st = self.stuck.entry(name.clone()).or_default();
            if phase != 0.0 {
                let since = *st.nonidle_since_ns.get_or_insert(now_ns);
                let dwell = now_ns.saturating_sub(since);
                if !st.fired && dwell >= bound {
                    st.fired = true;
                    let burn = dwell as f64 / bound as f64;
                    self.emit(
                        now_ns,
                        &format!("fleet.migration.stuck.{name}"),
                        true,
                        burn,
                        1.0,
                    );
                }
            } else {
                let was_fired = st.fired;
                st.fired = false;
                st.nonidle_since_ns = None;
                if was_fired {
                    self.emit(
                        now_ns,
                        &format!("fleet.migration.stuck.{name}"),
                        false,
                        0.0,
                        1.0,
                    );
                }
            }
        }
        if let Some(obj) = self.cfg.p99_objective_ns {
            let total = view.merged_total();
            let burn = if total.weight() == 0 {
                0.0
            } else {
                total.quantile(0.99) as f64 / obj.max(1) as f64
            };
            self.p99_burn = burn;
            if burn > 1.0 && !self.p99_firing {
                self.p99_firing = true;
                self.emit(now_ns, "fleet.p99", true, burn, 1.0);
            } else if burn <= 1.0 && self.p99_firing {
                self.p99_firing = false;
                self.emit(now_ns, "fleet.p99", false, burn, 1.0);
            }
            if any_migrating && burn > 1.0 && !self.burn_firing {
                self.burn_firing = true;
                self.emit(now_ns, "fleet.migration.burn", true, burn, 1.0);
            } else if self.burn_firing && (!any_migrating || burn <= 1.0) {
                self.burn_firing = false;
                self.emit(now_ns, "fleet.migration.burn", false, burn, 1.0);
            }
        }
    }

    /// Live SLO states for export (merged prom page, `pacsrv-top` row).
    pub fn statuses(&self) -> Vec<SloStatus> {
        let mut out = vec![SloStatus {
            name: "fleet.p99".to_string(),
            firing: self.p99_firing,
            burn_fast: self.p99_burn,
            burn_slow: self.p99_burn,
            burn_threshold: 1.0,
        }];
        out.push(SloStatus {
            name: "fleet.migration.burn".to_string(),
            firing: self.burn_firing,
            burn_fast: if self.burn_firing { self.p99_burn } else { 0.0 },
            burn_slow: if self.burn_firing { self.p99_burn } else { 0.0 },
            burn_threshold: 1.0,
        });
        for (name, st) in &self.stuck {
            out.push(SloStatus {
                name: format!("fleet.migration.stuck.{name}"),
                firing: st.fired,
                burn_fast: 0.0,
                burn_slow: 0.0,
                burn_threshold: 1.0,
            });
        }
        out
    }

    /// Drains accumulated `slo_events/v1` lines (oldest first).
    pub fn take_events(&mut self) -> Vec<String> {
        std::mem::take(&mut self.events)
    }

    /// The most recent view, if any poll has completed.
    pub fn last_view(&self) -> Option<&FleetView> {
        self.last.as_ref()
    }
}

/// Renders a merged fleet page in Prometheus text format: scrape
/// timestamp, node count, the fleet-merged per-op latency summary (values
/// in ns, exact bucket-merge percentiles), and the cluster SLO states.
pub fn render_fleet_prom(view: &FleetView, slo: &[SloStatus]) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("# TYPE obsv_scrape_timestamp_ns gauge\n");
    out.push_str(&format!("obsv_scrape_timestamp_ns {}\n", view.ts_ns));
    out.push_str("# TYPE fleet_nodes gauge\n");
    out.push_str(&format!("fleet_nodes {}\n", view.nodes));
    out.push_str("# TYPE fleet_latency_ns summary\n");
    for (op, h) in view.merged_by_op() {
        if h.count() == 0 {
            continue;
        }
        for (q, label) in crate::prom::QUANTILES {
            out.push_str(&format!(
                "fleet_latency_ns{{op=\"{op}\",quantile=\"{label}\"}} {}\n",
                h.quantile(q)
            ));
        }
        out.push_str(&format!(
            "fleet_latency_ns_count{{op=\"{op}\"}} {}\n",
            h.count()
        ));
        out.push_str(&format!(
            "fleet_latency_ns_sum{{op=\"{op}\"}} {}\n",
            h.sum()
        ));
    }
    if !slo.is_empty() {
        out.push_str("# TYPE slo_firing gauge\n");
        out.push_str("# TYPE slo_burn_rate gauge\n");
        for s in slo {
            out.push_str(&format!(
                "slo_firing{{slo=\"{}\"}} {}\n",
                s.name,
                u8::from(s.firing)
            ));
            out.push_str(&format!(
                "slo_burn_rate{{slo=\"{}\",window=\"fast\"}} {:.6}\n",
                s.name, s.burn_fast
            ));
            out.push_str(&format!(
                "slo_burn_rate{{slo=\"{}\",window=\"slow\"}} {:.6}\n",
                s.name, s.burn_slow
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{OpHistograms, OpKind};
    use crate::registry::Sample;

    fn node_page(name: &str, ts_ns: u64, latencies: &[u64], extra: &[(&str, f64)]) -> String {
        let ops = OpHistograms::new();
        for &v in latencies {
            ops.record(OpKind::Lookup, v);
        }
        let mut gauges: std::collections::BTreeMap<String, f64> =
            extra.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        gauges.insert(format!("{name}.queue.depth"), 2.0);
        let sample = Sample {
            ts_ns,
            gauges,
            hists: [(name.to_string(), ops.snapshot())].into_iter().collect(),
        };
        crate::prom::render(&sample, &[])
    }

    #[test]
    fn parse_inverts_render_for_hists_and_gauges() {
        let ops = OpHistograms::new();
        for v in [700u64, 3_000, 90_000, 1_500_000] {
            ops.record(OpKind::Lookup, v);
            ops.record(OpKind::Insert, v / 2);
        }
        let snap = ops.snapshot();
        let sample = Sample {
            ts_ns: 99,
            gauges: [("n0.queue.depth".to_string(), 4.0)].into_iter().collect(),
            hists: [("n0".to_string(), snap.clone())].into_iter().collect(),
        };
        let page = crate::prom::render(&sample, &[]);
        let parsed = parse_prom_text(&page);
        assert_eq!(parsed.ts_ns, 99);
        assert_eq!(parsed.gauges.get("n0_queue_depth"), Some(&4.0));
        let lookup = parsed
            .hists
            .get(&("n0_latency_ns".to_string(), "lookup".to_string()))
            .expect("lookup family parsed");
        assert_eq!(lookup, snap.get(OpKind::Lookup), "wire round trip exact");
    }

    #[test]
    fn fleet_merge_matches_direct_snapshot_merge() {
        // Two distinct nodes: merged percentiles must equal a direct
        // bucket merge of the per-node snapshots (zero extra error).
        let a = OpHistograms::new();
        let b = OpHistograms::new();
        for v in [500u64, 900, 40_000, 2_000_000] {
            a.record(OpKind::Lookup, v);
        }
        for v in [700u64, 60_000, 888_888, 9_999_999] {
            b.record(OpKind::Lookup, v);
        }
        let pages = vec![
            {
                let sample = Sample {
                    ts_ns: 1,
                    gauges: BTreeMap::new(),
                    hists: [("n0".to_string(), a.snapshot())].into_iter().collect(),
                };
                crate::prom::render(&sample, &[])
            },
            {
                let sample = Sample {
                    ts_ns: 2,
                    gauges: BTreeMap::new(),
                    hists: [("n1".to_string(), b.snapshot())].into_iter().collect(),
                };
                crate::prom::render(&sample, &[])
            },
        ];
        let mut scraper = FleetScraper::new(Vec::new(), FleetSloConfig::default());
        let view = scraper.observe(&pages, 10);
        let mut direct = a.snapshot().get(OpKind::Lookup).clone();
        direct.merge(b.snapshot().get(OpKind::Lookup));
        let fleet = view.merged_total();
        assert_eq!(fleet.quantile(0.99), direct.quantile(0.99));
        assert_eq!(fleet.quantile(0.50), direct.quantile(0.50));
        assert_eq!(fleet.count(), direct.count());
        // And the merged page is well-formed prom text.
        let page = render_fleet_prom(&view, &scraper.statuses());
        assert!(page.contains("obsv_scrape_timestamp_ns 2\n"));
        assert!(page.contains("fleet_nodes 2\n"));
        assert!(page.contains("fleet_latency_ns{op=\"lookup\",quantile=\"0.99\"}"));
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let (head, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(!head.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn duplicate_endpoints_do_not_double_count() {
        // In-process cluster: both endpoints serve the same registry.
        let page = node_page("n0", 5, &[1_000, 2_000, 3_000], &[]);
        let mut scraper = FleetScraper::new(Vec::new(), FleetSloConfig::default());
        let view = scraper.observe(&[page.clone(), page], 10);
        assert_eq!(view.nodes, 2);
        assert_eq!(view.merged_total().count(), 3, "deduped, not doubled");
        assert_eq!(view.gauge_sum("_queue_depth"), 2.0);
    }

    #[test]
    fn stuck_migration_fires_then_clears() {
        let sec = 1_000_000_000u64;
        let cfg = FleetSloConfig {
            p99_objective_ns: None,
            stuck_migration_bound_ns: 2 * sec,
        };
        let mut scraper = FleetScraper::new(Vec::new(), cfg);
        let busy = node_page("n0", 1, &[1000], &[("n0.cluster.migration.phase", 3.0)]);
        let idle = node_page("n0", 2, &[1000], &[("n0.cluster.migration.phase", 0.0)]);
        scraper.observe(std::slice::from_ref(&busy), sec);
        assert!(scraper.take_events().is_empty(), "not stuck yet");
        scraper.observe(std::slice::from_ref(&busy), 2 * sec);
        assert!(scraper.take_events().is_empty(), "dwell 1s < bound 2s");
        scraper.observe(std::slice::from_ref(&busy), 4 * sec);
        let fired = scraper.take_events();
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert!(fired[0].contains("\"slo\":\"fleet.migration.stuck.n0_cluster_migration_phase\""));
        assert!(fired[0].contains("\"event\":\"fire\""));
        // Still stuck: no duplicate fire.
        scraper.observe(std::slice::from_ref(&busy), 5 * sec);
        assert!(scraper.take_events().is_empty());
        scraper.observe(std::slice::from_ref(&idle), 6 * sec);
        let cleared = scraper.take_events();
        assert_eq!(cleared.len(), 1, "{cleared:?}");
        assert!(cleared[0].contains("\"event\":\"clear\""));
        assert!(scraper.statuses().iter().all(|s| !s.firing));
    }

    #[test]
    fn fleet_p99_objective_fires_under_migration_burn() {
        let cfg = FleetSloConfig {
            p99_objective_ns: Some(10_000),
            stuck_migration_bound_ns: DEFAULT_STUCK_MIGRATION_BOUND_NS,
        };
        let mut scraper = FleetScraper::new(Vec::new(), cfg);
        let slow_migrating = node_page(
            "n0",
            1,
            &[1_000_000, 2_000_000, 3_000_000],
            &[("n0.cluster.migration.phase", 1.0)],
        );
        scraper.observe(std::slice::from_ref(&slow_migrating), 100);
        let events = scraper.take_events();
        assert!(
            events
                .iter()
                .any(|e| e.contains("\"slo\":\"fleet.p99\"") && e.contains("fire")),
            "{events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.contains("\"slo\":\"fleet.migration.burn\"") && e.contains("fire")),
            "{events:?}"
        );
        let fast_idle = node_page("n0", 2, &[100], &[("n0.cluster.migration.phase", 0.0)]);
        // Fresh scraper state keeps the merged view only per observe call,
        // so a fast page alone drops the merged p99 under the objective.
        scraper.observe(std::slice::from_ref(&fast_idle), 200);
        let events = scraper.take_events();
        assert!(
            events
                .iter()
                .any(|e| e.contains("\"slo\":\"fleet.p99\"") && e.contains("clear")),
            "{events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.contains("\"slo\":\"fleet.migration.burn\"") && e.contains("clear")),
            "{events:?}"
        );
    }
}
