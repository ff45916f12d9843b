//! pacsrv-top: a terminal dashboard over a running pacsrv's health
//! endpoint.
//!
//! Polls the plain-TCP health listener ([`pacsrv::HealthServer`], the same
//! endpoint `curl` scrapes) at a fixed interval through [`obsv::fleet`]'s
//! scrape client and parser, once per endpoint per poll, and renders
//! per-service liveness: throughput (from
//! completed-counter deltas between polls), queue depth, shed/timeout
//! rates, sojourn p50/p99, and any SLO alert states with their error-
//! budget burn rates.
//!
//! ```text
//! pacsrv-top --addr 127.0.0.1:9100            # live dashboard, 1s refresh
//! pacsrv-top --addr 127.0.0.1:9100 --once     # one scrape, plain print, exit
//! pacsrv-top --addr 127.0.0.1:9100 --interval-ms 250
//! pacsrv-top --endpoints 127.0.0.1:9100,127.0.0.1:9101   # whole cluster
//! ```
//!
//! `--endpoints` takes a comma-separated list of health addresses (one per
//! cluster node) and renders one per-service section per endpoint, plus a
//! cluster row (map epoch, owned partitions, migration phase) whenever the
//! node exports the `*_cluster_*` gauges. Multi-endpoint frames open with
//! a fleet header row: nodes answering, fleet-merged op count and exact
//! merged p50/p99 (via [`obsv::fleet`]'s lossless bucket merge), and how
//! many nodes are mid-migration.
//!
//! `--once` is the CI smoke mode: exit 0 iff every scrape parses and
//! carries at least one metric family. The single-address `--once` output
//! (`pacsrv-top: OK (N metrics from ADDR)`) is grepped by CI — keep it
//! stable.

use std::time::{Duration, Instant};

use obsv::fleet::{fetch_metrics, parse_prom_text, FleetView, NodeScrape};

/// How long one scrape may take before the endpoint counts as down.
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed page from `addr`, refusing a page that carries no series.
fn poll(addr: &str) -> Result<NodeScrape, String> {
    let page = fetch_metrics(addr, FETCH_TIMEOUT)
        .map(|body| parse_prom_text(&body))
        .map_err(|e| format!("{addr}: {e}"))?;
    if page.series() == 0 {
        return Err(format!("{addr}: scrape parsed to zero metrics"));
    }
    Ok(page)
}

/// The fleet header row: all answering pages merged through
/// [`obsv::fleet`] — exact bucket-merged percentiles (duplicate
/// registries deduplicated, distinct nodes summed) and the count of
/// nodes currently mid-migration.
fn render_fleet<'a>(pages: impl IntoIterator<Item = &'a NodeScrape>) -> String {
    let view = FleetView::from_scrapes(pages);
    let total = view.merged_total();
    let migrating = view
        .migration_phases()
        .iter()
        .filter(|(_, phase)| *phase != 0.0)
        .count();
    let header = format!(
        "{:<18} {:>10} {:>8} {:>8} {:>9} {:>9}\n",
        "fleet", "nodes", "ops", "migr", "p50 us", "p99 us"
    );
    header
        + &format!(
            "{:<18} {:>10} {:>8} {:>8} {:>9.1} {:>9.1}\n",
            "(merged)",
            view.nodes,
            total.count(),
            migrating,
            total.quantile(0.50) as f64 / 1e3,
            total.quantile(0.99) as f64 / 1e3,
        )
}

/// Service names, discovered as the prefixes of `*_queue_depth` gauges.
fn services(m: &NodeScrape) -> Vec<String> {
    m.gauges
        .keys()
        .filter_map(|k| k.strip_suffix("_queue_depth"))
        .map(|s| s.to_string())
        .collect()
}

fn get(m: &NodeScrape, key: &str) -> f64 {
    m.gauges.get(key).copied().unwrap_or(0.0)
}

/// Quantile `q` of `prefix`'s sojourn latency, from the busiest op kind
/// (most counted), in microseconds. The histogram is the page's own,
/// rebuilt from its bucket lines, so this is the rendered quantile.
fn latency_us(m: &NodeScrape, prefix: &str, q: f64) -> Option<f64> {
    let family = format!("{prefix}_latency_ns");
    m.hists
        .iter()
        .filter(|((f, _), _)| *f == family)
        .max_by_key(|(_, h)| h.count())
        .map(|(_, h)| h.quantile(q) as f64 / 1e3)
}

/// Renders one dashboard frame from this poll and (for rates) the last.
fn render(now: &NodeScrape, last: Option<&(NodeScrape, Instant)>, poll_dt: Duration) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>10} {:>8} {:>8} {:>8} {:>9} {:>9}\n",
        "service", "ops/s", "queue", "shed/s", "t/o-s/s", "p50 us", "p99 us"
    ));
    for svc in services(now) {
        let (mut rate, mut shed_rate, mut timeout_rate) = (f64::NAN, f64::NAN, f64::NAN);
        if let Some((prev, at)) = last {
            let dt = at.elapsed().as_secs_f64().max(1e-9);
            let delta = |k: &str| (get(now, k) - get(prev, k)).max(0.0) / dt;
            rate = delta(&format!("{svc}_completed_total"));
            shed_rate = delta(&format!("{svc}_shed_total"));
            timeout_rate = delta(&format!("{svc}_timeout_total"));
        }
        let fmt = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{v:.0}")
            }
        };
        out.push_str(&format!(
            "{:<18} {:>10} {:>8.0} {:>8} {:>8} {:>9} {:>9}\n",
            svc,
            fmt(rate),
            get(now, &format!("{svc}_queue_depth")),
            fmt(shed_rate),
            fmt(timeout_rate),
            latency_us(now, &svc, 0.50).map_or("-".into(), |v| format!("{v:.1}")),
            latency_us(now, &svc, 0.99).map_or("-".into(), |v| format!("{v:.1}")),
        ));
    }
    // Cluster state, one row per service that exports the cluster gauges.
    let clustered: Vec<String> = services(now)
        .into_iter()
        .filter(|svc| now.gauges.contains_key(&format!("{svc}_cluster_map_epoch")))
        .collect();
    if !clustered.is_empty() {
        out.push_str(&format!(
            "{:<18} {:>10} {:>8} {:>8} {:>9} {:>9}\n",
            "cluster", "epoch", "owned", "phase", "lag", "bounced"
        ));
        for svc in clustered {
            let phase = match get(now, &format!("{svc}_cluster_migration_phase")) as u8 {
                0 => "idle",
                1 => "bulk",
                2 => "delta",
                3 => "seal",
                4 => "flip",
                _ => "?",
            };
            out.push_str(&format!(
                "{:<18} {:>10.0} {:>8.0} {:>8} {:>9.0} {:>9.0}\n",
                svc,
                get(now, &format!("{svc}_cluster_map_epoch")),
                get(now, &format!("{svc}_cluster_partitions_owned")),
                phase,
                get(now, &format!("{svc}_cluster_migration_handoff_lag")),
                get(now, &format!("{svc}_cluster_wrong_partition_total")),
            ));
        }
    }
    // SLO alert states, one row per objective.
    if !now.slos.is_empty() {
        out.push_str(&format!(
            "{:<18} {:>10} {:>12} {:>12}\n",
            "slo", "state", "burn(fast)", "burn(slow)"
        ));
        for (slo, st) in &now.slos {
            out.push_str(&format!(
                "{:<18} {:>10} {:>12.3} {:>12.3}\n",
                slo,
                if st.firing { "FIRING" } else { "ok" },
                st.burn_fast,
                st.burn_slow,
            ));
        }
    }
    out.push_str(&format!(
        "{} metrics, next poll in {:?}\n",
        now.series(),
        poll_dt
    ));
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // `--endpoints a,b,c` scrapes a whole cluster; plain `--addr` stays
    // the single-node path with byte-stable `--once` output.
    let addrs: Vec<String> = match opt("--endpoints") {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
        None => vec![opt("--addr").unwrap_or_else(|| "127.0.0.1:9100".to_string())],
    };
    if addrs.is_empty() {
        eprintln!("pacsrv-top: --endpoints parsed to an empty list");
        std::process::exit(1);
    }
    let once = flag("--once");
    let interval = Duration::from_millis(
        opt("--interval-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1000),
    );

    if once {
        let mut pages: Vec<NodeScrape> = Vec::new();
        for addr in &addrs {
            match poll(addr) {
                Ok(page) => pages.push(page),
                Err(e) => {
                    eprintln!("pacsrv-top: scrape failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        if addrs.len() > 1 {
            print!("{}", render_fleet(&pages));
        }
        let mut total = 0usize;
        for (addr, page) in addrs.iter().zip(&pages) {
            if addrs.len() > 1 {
                println!("== {addr}");
            }
            print!("{}", render(page, None, interval));
            total += page.series();
            println!("pacsrv-top: OK ({} metrics from {addr})", page.series());
        }
        if addrs.len() > 1 {
            println!(
                "pacsrv-top: OK ({total} metrics from {} endpoints)",
                addrs.len()
            );
        }
        return;
    }

    let mut last: Vec<Option<(NodeScrape, Instant)>> = vec![None; addrs.len()];
    let mut failures = 0u32;
    loop {
        // Scrape the whole fleet first so the merged header reflects the
        // same frame the per-endpoint sections render.
        let polled: Vec<Result<NodeScrape, String>> = addrs.iter().map(|a| poll(a)).collect();
        let fleet = render_fleet(polled.iter().filter_map(|r| r.as_ref().ok()));
        let mut scraped = 0usize;
        let mut frame = String::new();
        for (i, result) in polled.into_iter().enumerate() {
            let addr = &addrs[i];
            match result {
                Ok(page) => {
                    scraped += 1;
                    // Clear screen + home, like top(1) — once per frame.
                    if scraped == 1 {
                        print!("\x1b[2J\x1b[H");
                        if addrs.len() > 1 {
                            print!("{fleet}");
                        }
                    }
                    println!("{frame}pacsrv-top — {addr}");
                    frame = String::new();
                    print!("{}", render(&page, last[i].as_ref(), interval));
                    last[i] = Some((page, Instant::now()));
                }
                Err(e) => {
                    frame.push_str(&format!("pacsrv-top — scrape failed: {e}\n"));
                    last[i] = None;
                }
            }
        }
        if scraped == 0 {
            failures += 1;
            eprint!("{frame}");
            eprintln!("pacsrv-top: no endpoint answered ({failures})");
            if failures >= 5 {
                eprintln!("pacsrv-top: giving up after {failures} consecutive failures");
                std::process::exit(1);
            }
        } else {
            failures = 0;
            print!("{frame}");
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pacsrv::cluster::ClusterNode;
    use pacsrv::wire::PartitionMap;
    use pacsrv::{HealthServer, PacService, ServiceConfig};
    use pactree::{PacTree, PacTreeConfig};

    use super::*;

    #[test]
    fn endpoints_render_the_fleet_header_and_cluster_rows() {
        // The map names each node's wire endpoint; a scrape needs only
        // the health listeners, so nothing serves those addresses.
        let endpoints: Vec<String> = (1..=3).map(|i| format!("127.0.0.1:{i}")).collect();
        let map = PartitionMap::split_u64(&endpoints);
        let (mut trees, mut nodes, mut health) = (Vec::new(), Vec::new(), Vec::new());
        for (i, endpoint) in endpoints.iter().enumerate() {
            let name = format!("top-node-{i}");
            let tree = PacTree::create(PacTreeConfig::named(&name)).unwrap();
            let config = ServiceConfig {
                numa_pin: false,
                ..ServiceConfig::named(&name, 1)
            };
            let service = PacService::start(Arc::clone(&tree), config);
            let node = ClusterNode::start(service, endpoint, map.clone()).unwrap();
            health.push(HealthServer::start(Arc::clone(&node), "127.0.0.1:0").unwrap());
            nodes.push(node);
            trees.push(tree);
        }

        let pages: Vec<NodeScrape> = health
            .iter()
            .map(|h| poll(&h.local_addr().to_string()).unwrap())
            .collect();
        let fleet = render_fleet(&pages);
        let header: Vec<Vec<&str>> = fleet
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert!(header[0].starts_with(&["fleet", "nodes", "ops"]), "{fleet}");
        assert!(header[1].starts_with(&["(merged)", "3"]), "{fleet}");
        // One process, one registry: every page carries all three nodes.
        let frame = render(&pages[0], None, Duration::from_secs(1));
        let rows: Vec<Vec<&str>> = frame
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert!(
            rows.iter().any(|r| r.starts_with(&["cluster", "epoch"])),
            "{frame}"
        );
        for i in 0..3 {
            let row = [&*format!("top_node_{i}"), "1", "1", "idle", "0", "0"];
            assert!(rows.iter().any(|r| r[..] == row), "no {row:?} in\n{frame}");
        }

        drop(health);
        for node in nodes {
            node.service().shutdown(Duration::from_secs(5));
        }
        for tree in trees {
            tree.destroy();
        }
    }
}
