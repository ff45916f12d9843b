//! The gauge catalogue in DESIGN.md §9 is the whole `/metrics` page: with
//! every component that registers metrics up in one process, each family
//! the page serves has a catalogue row, each row is served, and each row
//! names a consumer (a family nothing reads is deleted, not catalogued).

use std::net::TcpListener;
use std::time::Duration;

use pacsrv::cluster::ClusterNode;
use pacsrv::wire::PartitionMap;
use pacsrv::{HealthServer, PacService, ServiceConfig};
use pactree::{PacTree, PacTreeConfig};

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// The §9 catalogue's rows as `(family, consumer)`, the family as the page
/// names it: dots become underscores, a histogram row gains its summary's
/// `_latency_ns` suffix, and `<...>` placeholders stay.
fn catalogue() -> Vec<(String, String)> {
    let section = DESIGN.split("\n## 9.").nth(1).expect("DESIGN.md has a §9");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| {
            // | `name` | kind | unit | meaning | consumer |
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let name = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
            let suffix = if *cells.get(2)? == "histogram" {
                "_latency_ns"
            } else {
                ""
            };
            let family = format!("{}{suffix}", name.replace('.', "_"));
            Some((family, cells.get(5)?.to_string()))
        })
        .collect()
}

/// Whether `family` is an instance of `row`: each `<...>` placeholder
/// stands for one or more ASCII letters or digits (the instance names below
/// have no separators, so a placeholder never swallows a name's structure).
fn matches(row: &str, family: &str) -> bool {
    let Some(open) = row.find('<') else {
        return row == family;
    };
    let Some(family) = family.strip_prefix(&row[..open]) else {
        return false;
    };
    let rest = &row[open + row[open..].find('>').expect("closed placeholder") + 1..];
    let hole = family.bytes().take_while(u8::is_ascii_alphanumeric).count();
    (1..=hole).any(|n| matches(rest, &family[n..]))
}

#[test]
fn every_family_on_the_page_is_catalogued_and_every_row_is_served() {
    let tree = PacTree::create(PacTreeConfig::named("cattree")).expect("tree");
    let _pmem_gauges = pmem::stats::install_obsv_gauges();
    let cfg = ServiceConfig {
        numa_pin: false,
        ..ServiceConfig::named("catsvc", 1)
    };
    let service = PacService::start(tree.clone(), cfg);
    let wire = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = wire.local_addr().expect("addr").to_string();
    let map = PartitionMap::split_u64(std::slice::from_ref(&endpoint));
    let node = ClusterNode::start(service, &endpoint, map).expect("cluster node");
    let health = HealthServer::start(node.clone(), "127.0.0.1:0").expect("health");

    let page = obsv::fleet::http_get(
        &health.local_addr().to_string(),
        "/metrics",
        Duration::from_secs(5),
    )
    .expect("scrape");
    let families: Vec<&str> = page
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .filter(|&f| f != "obsv_scrape_timestamp_ns")
        .collect();
    let rows = catalogue();
    let unread: Vec<&String> = rows
        .iter()
        .filter(|(_, consumer)| consumer == "none")
        .map(|(row, _)| row)
        .collect();
    assert!(
        unread.is_empty(),
        "DESIGN.md §9 rows with no consumer: {unread:?}"
    );
    let uncatalogued: Vec<&&str> = families
        .iter()
        .filter(|f| !rows.iter().any(|(r, _)| matches(r, f)))
        .collect();
    assert!(
        uncatalogued.is_empty(),
        "families missing from DESIGN.md §9: {uncatalogued:?}"
    );
    let unserved: Vec<&String> = rows
        .iter()
        .map(|(row, _)| row)
        .filter(|r| !families.iter().any(|f| matches(r, f)))
        .collect();
    assert!(
        unserved.is_empty(),
        "DESIGN.md §9 rows nothing registers: {unserved:?}"
    );

    health.stop();
    assert!(node.service().shutdown(Duration::from_secs(5)));
    drop(node);
    tree.destroy();
}
