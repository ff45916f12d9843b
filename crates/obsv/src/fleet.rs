//! The fleet-wide view of the health endpoints' metrics pages.
//!
//! A [`FleetScraper`] scrapes each node's health listener (`GET /metrics`),
//! parses the Prometheus text page [`crate::prom::render`] produced back
//! into gauges and [`HistSnapshot`]s rebuilt from the invertible
//! `_bucket`/`_count`/`_sum` lines, and merges the pages into one
//! [`FleetView`]: fleet-wide **exact** percentiles
//! (bucket-wise histogram merge is lossless, so the documented
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
//! On top of the merged view the scraper raises one cluster-level alert,
//! `fleet.migration.stuck.<gauge>`: a `*_cluster_migration_phase` gauge
//! that stays non-idle longer than a bound, since a stuck or sealed
//! partition otherwise degrades silently. Its fire/clear transitions are
//! `slo_events/v1` JSON lines.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

use crate::hist::HistSnapshot;

/// Gauge-name suffix (post-sanitization) identifying a node's migration
/// phase gauge.
const MIGRATION_PHASE_SUFFIX: &str = "_cluster_migration_phase";

/// One node's parsed `/metrics` page.
#[derive(Clone, Debug, Default)]
struct NodeScrape {
    /// The page's `obsv_scrape_timestamp_ns` value.
    ts_ns: u64,
    /// Scalar gauges by sanitized name.
    gauges: BTreeMap<String, f64>,
    /// Histograms by `(family, op)` — family is the summary name as
    /// rendered (e.g. `node0_latency_ns`), op the kind label.
    hists: BTreeMap<(String, String), HistSnapshot>,
}

/// Parses one Prometheus text page back into gauges and histogram
/// snapshots. The inverse of [`crate::prom::render`] for everything that
/// renderer emits losslessly: summary quantile lines are skipped (the
/// rebuilt snapshot yields the same quantiles), and so are malformed lines.
fn parse_prom_text(text: &str) -> NodeScrape {
    #[derive(Default)]
    struct Acc {
        rows: Vec<(u64, u64)>, // (bucket low edge, cumulative weight)
        ops: u64,
        sum: u64,
    }
    let mut page = NodeScrape::default();
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
                continue;
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
            page.ts_ns = value.parse().unwrap_or(0);
        } else if let Ok(v) = value.parse::<f64>() {
            page.gauges.insert(head.to_string(), v);
        }
    }
    page.hists = accs
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
    page
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
    fn from_scrapes<'a>(scrapes: impl IntoIterator<Item = &'a NodeScrape>) -> FleetView {
        let mut view = FleetView::default();
        for s in scrapes {
            view.nodes += 1;
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

    /// Fleet-wide all-op snapshot: every family's histograms merged
    /// bucket-wise (exact — equivalent to one histogram having recorded
    /// every node's stream).
    pub fn merged_total(&self) -> HistSnapshot {
        let mut total = HistSnapshot::empty();
        for h in self.hists.values() {
            total.merge(h);
        }
        total
    }

    /// Every node's migration-phase gauge `(name, phase)`.
    fn migration_phases(&self) -> Vec<(String, f64)> {
        self.gauges
            .iter()
            .filter(|(n, _)| n.ends_with(MIGRATION_PHASE_SUFFIX))
            .map(|(n, &v)| (n.clone(), v))
            .collect()
    }
}

/// Fetches one page of a health listener over plain TCP (`GET <path>`,
/// HTTP/1.0) and returns the body: `/metrics` for the Prometheus page,
/// `/spans` for the retained span dump. Anything but a `200` reply is an
/// `InvalidData` error naming the status line.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut conn = std::net::TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    conn.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        _ => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("non-200 reply: {}", raw.lines().next().unwrap_or("<empty>")),
        )),
    }
}

/// One `slo_events/v1` line: `event` (`fire` or `clear`) of the alert
/// `slo` at `ts_ns`, at `burn` times its bound on both windows.
fn event_line(ts_ns: u64, slo: &str, event: &str, burn: f64) -> String {
    format!(
        "{{\"schema\":\"slo_events/v1\",\"ts_ns\":{ts_ns},\"slo\":\"{slo}\",\"event\":\"{event}\",\"burn_fast\":{burn:.4},\"burn_slow\":{burn:.4},\"burn_threshold\":1.0000}}"
    )
}

#[derive(Default)]
struct StuckState {
    nonidle_since_ns: Option<u64>,
    fired: bool,
}

/// Polls a set of health endpoints, merges them into [`FleetView`]s, and
/// raises the stuck-migration alert. Event lines follow `slo_events/v1`
/// with strict fire/clear alternation per gauge.
pub struct FleetScraper {
    endpoints: Vec<String>,
    stuck_bound_ns: u64,
    stuck: BTreeMap<String, StuckState>,
    events: Vec<String>,
}

impl FleetScraper {
    /// A scraper over `endpoints` (host:port of each node's metrics
    /// listener) whose stuck-migration alert fires once a migration-phase
    /// gauge has been non-idle for `stuck_bound_ns`.
    pub fn new(endpoints: Vec<String>, stuck_bound_ns: u64) -> FleetScraper {
        FleetScraper {
            endpoints,
            stuck_bound_ns: stuck_bound_ns.max(1),
            stuck: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// Fetches every endpoint and folds the answers into a view; `now_ns`
    /// is the caller's monotone clock (event timestamps, stuck timers).
    /// Unreachable endpoints are skipped — a dead node must not take the
    /// fleet plane down with it.
    pub fn poll(&mut self, now_ns: u64) -> FleetView {
        let texts: Vec<String> = self
            .endpoints
            .iter()
            .filter_map(|ep| http_get(ep, "/metrics", Duration::from_secs(2)).ok())
            .collect();
        self.observe(&texts, now_ns)
    }

    /// Same as [`poll`](Self::poll) over pre-fetched pages (tests, and
    /// callers that already hold scrape bodies).
    pub fn observe(&mut self, texts: &[String], now_ns: u64) -> FleetView {
        let scrapes: Vec<NodeScrape> = texts.iter().map(|t| parse_prom_text(t)).collect();
        let view = FleetView::from_scrapes(&scrapes);
        self.evaluate(&view, now_ns);
        view
    }

    fn evaluate(&mut self, view: &FleetView, now_ns: u64) {
        for (name, phase) in view.migration_phases() {
            let st = self.stuck.entry(name.clone()).or_default();
            let slo = format!("fleet.migration.stuck.{name}");
            if phase != 0.0 {
                let since = *st.nonidle_since_ns.get_or_insert(now_ns);
                let dwell = now_ns.saturating_sub(since);
                if !st.fired && dwell >= self.stuck_bound_ns {
                    st.fired = true;
                    let burn = dwell as f64 / self.stuck_bound_ns as f64;
                    self.events.push(event_line(now_ns, &slo, "fire", burn));
                }
            } else {
                let was_fired = st.fired;
                *st = StuckState::default();
                if was_fired {
                    self.events.push(event_line(now_ns, &slo, "clear", 0.0));
                }
            }
        }
    }

    /// Drains accumulated `slo_events/v1` lines (oldest first).
    pub fn take_events(&mut self) -> Vec<String> {
        std::mem::take(&mut self.events)
    }
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
        crate::prom::render(&sample)
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
        let page = crate::prom::render(&sample);
        let parsed = parse_prom_text(&page);
        assert_eq!(parsed.ts_ns, 99);
        assert_eq!(parsed.gauges.get("n0_queue_depth"), Some(&4.0));
        let lookup = parsed
            .hists
            .get(&("n0_latency_ns".to_string(), "lookup".to_string()))
            .expect("lookup family parsed");
        assert_eq!(lookup, snap.get(OpKind::Lookup), "wire round trip exact");
        // The page's one gauge and two op histograms are all the parse keeps.
        assert_eq!(
            (parsed.gauges.len(), parsed.hists.len()),
            (1, 2),
            "{parsed:?}"
        );
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
                crate::prom::render(&sample)
            },
            {
                let sample = Sample {
                    ts_ns: 2,
                    gauges: BTreeMap::new(),
                    hists: [("n1".to_string(), b.snapshot())].into_iter().collect(),
                };
                crate::prom::render(&sample)
            },
        ];
        let mut scraper = FleetScraper::new(Vec::new(), u64::MAX);
        let view = scraper.observe(&pages, 10);
        assert_eq!((view.nodes, view.ts_ns), (2, 2));
        let mut direct = a.snapshot().get(OpKind::Lookup).clone();
        direct.merge(b.snapshot().get(OpKind::Lookup));
        let fleet = view.merged_total();
        assert_eq!(fleet.quantile(0.99), direct.quantile(0.99));
        assert_eq!(fleet.quantile(0.50), direct.quantile(0.50));
        assert_eq!(fleet.count(), direct.count());
    }

    #[test]
    fn duplicate_endpoints_do_not_double_count() {
        // In-process cluster: both endpoints serve the same registry.
        let page = node_page("n0", 5, &[1_000, 2_000, 3_000], &[]);
        let mut scraper = FleetScraper::new(Vec::new(), u64::MAX);
        let view = scraper.observe(&[page.clone(), page], 10);
        assert_eq!(view.nodes, 2);
        assert_eq!(view.merged_total().count(), 3, "deduped, not doubled");
        assert_eq!(view.gauges.get("n0_queue_depth"), Some(&2.0));
    }

    #[test]
    fn fetch_returns_a_200_body_and_refuses_anything_else() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for reply in ["HTTP/1.0 200 OK\r\n\r\nup 1\n", "HTTP/1.0 503 Busy\r\n\r\n"] {
                let (mut conn, _) = listener.accept().unwrap();
                let mut req = [0u8; 64];
                let _ = conn.read(&mut req).unwrap();
                conn.write_all(reply.as_bytes()).unwrap();
            }
        });
        let timeout = Duration::from_secs(5);
        assert_eq!(http_get(&addr, "/metrics", timeout).unwrap(), "up 1\n");
        let err = http_get(&addr, "/spans", timeout).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "non-200 reply: HTTP/1.0 503 Busy");
        server.join().unwrap();
    }

    #[test]
    fn stuck_migration_fires_then_clears() {
        let sec = 1_000_000_000u64;
        let mut scraper = FleetScraper::new(Vec::new(), 2 * sec);
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
        assert!(fired[0].contains("\"burn_fast\":1.5000"), "{}", fired[0]);
        // Still stuck: no duplicate fire.
        scraper.observe(std::slice::from_ref(&busy), 5 * sec);
        assert!(scraper.take_events().is_empty());
        scraper.observe(std::slice::from_ref(&idle), 6 * sec);
        let cleared = scraper.take_events();
        assert_eq!(cleared.len(), 1, "{cleared:?}");
        assert!(cleared[0].contains("\"event\":\"clear\""));
        // Idle again: a later episode starts its dwell from scratch.
        scraper.observe(std::slice::from_ref(&busy), 7 * sec);
        assert!(scraper.take_events().is_empty());
    }
}
