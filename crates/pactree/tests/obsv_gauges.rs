//! The observability pipeline gauges against a real write-heavy run with
//! a snapshot held across it: after release and `quiesce()` the SMO,
//! epoch-backlog and MVCC gauges must drain to zero, and the node gauges
//! must describe a populated tree. The tree registers no latency
//! histogram: whoever calls it times its operations.

use std::sync::Arc;
use std::time::Duration;

use pactree::{PacTree, PacTreeConfig};

fn gauge(sample: &obsv::Sample, name: &str) -> f64 {
    *sample
        .gauges
        .get(name)
        .unwrap_or_else(|| panic!("gauge {name} registered; have {:?}", sample.gauges.keys()))
}

#[test]
fn smo_and_epoch_gauges_drain_to_zero_after_quiesce() {
    let name = "pt-obsv-drain";
    let _pmem_gauges = pmem::stats::install_obsv_gauges();
    let t = PacTree::create(PacTreeConfig::named(name)).unwrap();
    let threads = 4;
    let per_thread = 1500u64;
    let preload = 100u64;

    // Write-heavy phase under a live snapshot: concurrent inserts force
    // leaf splits (SMO log traffic), removes queue epoch reclamation work,
    // and writers freeze the preloaded node the snapshot still reads.
    for i in 0..preload {
        t.insert(&(threads * per_thread + i).to_be_bytes(), i)
            .unwrap();
    }
    let snap = t.snapshot();
    std::thread::scope(|s| {
        for w in 0..threads {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for i in 0..per_thread {
                    let k = (w * per_thread + i).to_be_bytes();
                    t.insert(&k, i).unwrap();
                    if i % 3 == 0 {
                        t.remove(&k).unwrap();
                    }
                }
            });
        }
    });

    let prefix = format!("pactree.{name}");
    let mid = obsv::global().sample();
    // The gauges exist while the tree is alive (values are race-y mid-run;
    // only existence and non-negativity are asserted here).
    assert!(gauge(&mid, &format!("{prefix}.smo.pending")) >= 0.0);
    assert!(gauge(&mid, &format!("{prefix}.epoch.backlog")) >= 0.0);
    assert_eq!(gauge(&mid, &format!("{prefix}.mvcc.live_snapshots")), 1.0);
    assert!(gauge(&mid, &format!("{prefix}.mvcc.chain_max")) > 0.0);

    assert!(t.release_snapshot(snap), "snapshot survived the run");
    assert!(
        t.quiesce(Duration::from_secs(60)),
        "quiesce timed out with work pending"
    );

    let done = obsv::global().sample();
    for drained in [
        "smo.pending",
        "epoch.backlog",
        "epoch.backlog_age_ns",
        "mvcc.live_snapshots",
        "mvcc.chain_max",
    ] {
        assert_eq!(
            gauge(&done, &format!("{prefix}.{drained}")),
            0.0,
            "{drained}"
        );
    }
    assert!(gauge(&done, &format!("{prefix}.node.count")) > 0.0);
    let occupancy = gauge(&done, &format!("{prefix}.node.occupancy"));
    assert!(occupancy > 0.0 && occupancy <= 1.0, "occupancy {occupancy}");
    assert!(
        done.gauges.keys().any(|k| k.starts_with("pmem.")),
        "no pmem gauge in {:?}",
        done.gauges.keys()
    );

    assert!(
        !done.hists.contains_key(&prefix),
        "the tree registers no histogram source"
    );

    // Jump-hop gauges: every locate lands somewhere, so the hop-count
    // distribution is registered and sums to a positive count.
    let hops: f64 = ["h0", "h1", "h2", "h3", "h4plus"]
        .iter()
        .map(|b| gauge(&done, &format!("{prefix}.jump_hops.{b}")))
        .sum();
    assert!(hops > 0.0, "jump-hop histogram populated");

    t.destroy();
}

#[test]
fn gauges_vanish_when_tree_is_destroyed() {
    let name = "pt-obsv-vanish";
    let t = PacTree::create(PacTreeConfig::named(name)).unwrap();
    t.insert(b"k", 1).unwrap();
    let prefix = format!("pactree.{name}");
    assert!(obsv::global()
        .sample()
        .gauges
        .contains_key(&format!("{prefix}.smo.pending")));
    t.destroy();
    // Weak-captured callbacks return None once the tree is gone: the
    // sample must not contain stale sources.
    let after = obsv::global().sample();
    assert!(!after.gauges.contains_key(&format!("{prefix}.smo.pending")));
}
