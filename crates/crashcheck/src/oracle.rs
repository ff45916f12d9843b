//! Durable-linearizability oracle.
//!
//! Given a recovered index and the [`Expectation`] induced by the journal
//! at the crash point, checks:
//!
//! 1. **Recovery completes** — the caller wraps recovery in `catch_unwind`;
//!    a panic or error is reported as a violation before the oracle runs.
//! 2. **Acked survival / no torn values** — for every key any journalled op
//!    touched, the recovered value is one of the admissible ones; keys with
//!    a uniquely determined state must match exactly.
//! 3. **Scan frontier consistency** — a full scan is strictly sorted,
//!    duplicate-free, contains every determined-present key, and reports
//!    only admissible pairs (no phantom keys, no resurrected removes).
//! 4. **Writability** — the recovered index accepts and serves a fresh
//!    insert on a probe key outside the workload keyspace.

use ycsb::{AnyIndex, RangeIndex};

use crate::journal::Expectation;

/// A single oracle violation (the first one found).
#[derive(Clone, Debug)]
pub struct Violation {
    /// Short machine-readable category.
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    fn err(kind: &'static str, detail: String) -> Result<(), Violation> {
        Err(Violation { kind, detail })
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// Probe key for the writability check: far outside any workload keyspace.
pub const PROBE_KEY: u64 = 1 << 40;

/// Decodes byte-keyed scan output; a key that is not 8 bytes maps to
/// `u64::MAX` so the oracle flags it as a phantom instead of panicking.
pub(crate) fn decode_pairs(pairs: Vec<(Vec<u8>, u64)>) -> Vec<(u64, u64)> {
    let decode = |k: &[u8]| k.try_into().map_or(u64::MAX, u64::from_be_bytes);
    pairs.into_iter().map(|(k, v)| (decode(&k), v)).collect()
}

/// Runs every check against a recovered index.
pub fn check(idx: &AnyIndex, expect: &Expectation) -> Result<(), Violation> {
    // Point lookups over the touched keyspace.
    for &key in expect.allowed.keys() {
        let got = idx.lookup(&key.to_be_bytes());
        if !expect.admits(key, got) {
            return Violation::err(
                "torn-value",
                format!(
                    "lookup({key}) = {got:?}, admissible: {:?}",
                    expect.allowed[&key]
                ),
            );
        }
    }

    // Scan frontier.
    let cap = expect.allowed.len() * 4 + 64;
    let scan = decode_pairs(idx.scan_pairs(&[], cap));
    for pair in scan.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Violation::err(
                "scan-order",
                format!("scan not strictly sorted: {:?} then {:?}", pair[0], pair[1]),
            );
        }
    }
    for &(key, value) in &scan {
        if !expect.admits(key, Some(value)) {
            return Violation::err(
                "scan-phantom",
                format!(
                    "scan reports ({key}, {value}), admissible: {:?}",
                    expect.allowed.get(&key)
                ),
            );
        }
    }
    for (key, value) in expect.determined() {
        if let Some(v) = value {
            if !scan.contains(&(key, v)) {
                return Violation::err(
                    "scan-lost",
                    format!("acked pair ({key}, {v}) missing from scan"),
                );
            }
        }
    }

    // Scan/lookup agreement on scanned keys.
    for &(key, value) in &scan {
        let got = idx.lookup(&key.to_be_bytes());
        if got != Some(value) && !expect.admits(key, got) {
            return Violation::err(
                "scan-lookup-divergence",
                format!("scan has ({key}, {value}) but lookup({key}) = {got:?}"),
            );
        }
    }

    // Writability probe.
    match idx.insert(&PROBE_KEY.to_be_bytes(), 2) {
        Err(e) => {
            return Violation::err(
                "post-recovery-insert",
                format!("probe insert failed: {e:?}"),
            )
        }
        Ok(_) => {
            if idx.lookup(&PROBE_KEY.to_be_bytes()) != Some(2) {
                return Violation::err(
                    "post-recovery-insert",
                    "probe insert not visible to lookup".to_string(),
                );
            }
        }
    }

    Ok(())
}
