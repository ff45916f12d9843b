//! End-to-end campaign smoke tests: short seeded campaigns must explore
//! crash states without oracle violations for the PAC indexes, and replay
//! files must round-trip deterministically.

use std::time::Duration;

use crashcheck::{run_campaign, CampaignOpts, IndexKind};

/// The smoke campaigns stop at this many states, so what they explore
/// depends only on the seed. The wall-clock budget is a safety cap, not a
/// bound: a debug build on an idle 2-vCPU host needs 5-16 s per campaign.
const SMOKE_STATES: u64 = 400;

fn smoke_opts(kind: IndexKind, seed: u64) -> CampaignOpts {
    let mut opts = CampaignOpts::new(kind, seed);
    opts.budget = Duration::from_secs(600);
    opts.target_states = SMOKE_STATES;
    opts.ops = 60;
    opts.keyspace = 24;
    opts
}

fn assert_clean(kind: IndexKind, seed: u64) {
    let summary = run_campaign(&smoke_opts(kind, seed)).expect("campaign");
    assert!(
        summary.states >= SMOKE_STATES,
        "{}: only {} states explored",
        kind.name(),
        summary.states
    );
    assert!(
        summary.windows > 10,
        "{}: too few crash points",
        kind.name()
    );
    assert!(
        summary.violations.is_empty(),
        "{}: oracle violations: {}",
        kind.name(),
        summary.violations[0].replay.violation
    );
}

#[test]
fn pactree_campaign_is_clean() {
    assert_clean(IndexKind::PacTree, 1001);
}

/// The version-chain campaign: snapshots every 16 ops keep data-node
/// freezes live across the whole workload, so the enumerated crash
/// states land mid-freeze. The traced run also verifies
/// every snapshot's view against a shadow model (a panic there fails the
/// campaign before any crash state is tested), and the oracle then holds
/// recovery to the same durable-linearizability bar as the plain campaign.
#[test]
fn pactree_version_chain_campaign_is_clean() {
    let mut opts = smoke_opts(IndexKind::PacTree, 1004);
    opts.snapshot_every = 16;
    let summary = run_campaign(&opts).expect("campaign");
    assert!(
        summary.states >= SMOKE_STATES,
        "only {} states explored",
        summary.states
    );
    assert!(
        summary.violations.is_empty(),
        "version-chain oracle violations: {}",
        summary.violations[0].replay.violation
    );
}

/// FastFair's unfenced cross-line shift is a known durable-linearizability
/// gap (the RECIPE/Witcher class of finding): when the campaign flags it,
/// the shrunk replay must reproduce the violation deterministically.
#[test]
fn fastfair_findings_replay_deterministically() {
    let mut opts = CampaignOpts::new(IndexKind::FastFair, 7);
    opts.budget = Duration::from_secs(30);
    opts.target_states = 1500;
    opts.max_violations = 1;
    let summary = run_campaign(&opts).expect("campaign");
    let Some(found) = summary.violations.first() else {
        return; // clean at this seed: nothing to replay
    };
    let reproduced = crashcheck::run_replay(&found.replay).expect("replay machinery");
    assert!(
        reproduced.is_some(),
        "shrunk replay failed to reproduce: {}",
        found.replay.violation
    );
}

#[test]
fn pdl_art_campaign_is_clean() {
    assert_clean(IndexKind::PdlArt, 1002);
}

#[test]
fn fptree_campaign_is_clean() {
    assert_clean(IndexKind::FpTree, 1003);
}
