//! Deterministic single-threaded workloads and traced execution.
//!
//! The checker's power comes from replaying one execution many ways, so the
//! execution itself must be reproducible: one thread, seeded ops, no
//! background SMO replay (the roster's durable configuration creates
//! indexes with synchronous SMOs). Given the same seed the op sequence, the
//! trace sequence numbers and the media images are all bit-identical —
//! which is what makes replay files work.

use std::sync::Arc;

use pmem::pool::PmemPool;
use pmem::{persist, trace, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ycsb::{AnyIndex, IndexKind, KeySpace, RangeIndex};

use crate::journal::{JournalEntry, Op};
use crate::oracle;

/// Everything that defines one traced execution. Serialized into replay
/// files; two runs with equal specs produce equal traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Seed for the op generator.
    pub seed: u64,
    /// Keys are drawn from `1..=keyspace`.
    pub keyspace: u64,
    /// Number of operations.
    pub ops: usize,
    /// Size of every backing pool.
    pub pool_size: usize,
    /// Take an MVCC snapshot every this many ops (0 = never). Snapshots
    /// exercise the version chain: every mutation under a live snapshot
    /// runs the data-node freeze path, so the enumerated crash states cover
    /// crashes mid-freeze. Each snapshot's view is also verified against a
    /// shadow model during the traced run. Only indexes
    /// with snapshot support participate; others ignore the field.
    pub snapshot_every: usize,
}

impl WorkloadSpec {
    /// Small, dense default: enough overwrites and removes to exercise
    /// multi-step protocols, small enough that one execution traces and
    /// snapshots in well under a millisecond-scale budget slice.
    pub fn default_for(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            keyspace: 48,
            ops: 160,
            pool_size: 2 << 20,
            snapshot_every: 0,
        }
    }
}

/// Generates the deterministic op sequence for a spec.
///
/// Values are even and unique per op index (`(i + 1) * 2`), so every torn
/// or phantom value is attributable to a specific op, and the encodings of
/// all five indexes accept them (no `u64::MAX`, no low tag bits, < 2^62).
pub fn gen_ops(spec: &WorkloadSpec) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.ops)
        .map(|i| {
            let key = rng.gen_range(1..=spec.keyspace);
            if rng.gen_range(0u32..10) < 7 {
                Op::Insert {
                    key,
                    value: (i as u64 + 1) * 2,
                }
            } else {
                Op::Remove { key }
            }
        })
        .collect()
}

/// The artifacts of one traced execution.
pub struct RunArtifacts {
    /// The pools backing the (now dropped) index, in [`AnyIndex::pools`] order.
    pub pools: Vec<Arc<PmemPool>>,
    /// Acknowledged ops with their trace-sequence brackets.
    pub journal: Vec<JournalEntry>,
    /// The merged event trace.
    pub trace: trace::Trace,
    /// Final media image of each pool (same order as `pools`), taken after
    /// the closing fence — i.e. the fully durable end state.
    pub snapshots: Vec<Vec<u8>>,
}

/// Creates the index, runs the spec's ops under tracing, and returns the
/// artifacts. The caller must hold [`trace::session`].
///
/// Index creation runs *before* tracing starts: the setup prologue is fully
/// fenced, so it is durable at every enumerated crash point and the oracle
/// never blames it.
pub fn run_traced(kind: IndexKind, name: &str, spec: &WorkloadSpec) -> Result<RunArtifacts> {
    let ops = gen_ops(spec);
    let idx = kind.create(name, spec.pool_size, KeySpace::Integer, true)?;
    let pools = idx.pools();
    persist::fence();

    trace::start(1 << 20);
    let mut journal = Vec::with_capacity(ops.len());
    // Version-chain mode: a shadow model per live snapshot, verified and
    // released during the run (at most two live at once, so the chain gets
    // both the freeze-under-one-snapshot and the multi-window prune paths).
    let mut shadow: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut live_snaps: Vec<(u64, std::collections::BTreeMap<u64, u64>)> = Vec::new();
    let verify_release =
        |idx: &AnyIndex, snap: u64, model: &std::collections::BTreeMap<u64, u64>| {
            let got = idx
                .scan_at(snap, &[], usize::MAX >> 1)
                .map(oracle::decode_pairs)
                .expect("snapshot vanished while live");
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(
                got, want,
                "snapshot-isolation violation: snapshot {snap} diverged from its shadow model"
            );
            assert!(
                idx.release_snapshot(snap),
                "release of live snapshot {snap}"
            );
        };
    let mut run = || -> Result<()> {
        for (i, op) in ops.iter().enumerate() {
            if spec.snapshot_every != 0 && i % spec.snapshot_every == 0 {
                if let Some(snap) = idx.snapshot() {
                    live_snaps.push((snap, shadow.clone()));
                    if live_snaps.len() > 2 {
                        let (old, model) = live_snaps.remove(0);
                        verify_release(&idx, old, &model);
                    }
                }
            }
            let start_seq = trace::current_seq();
            match *op {
                Op::Insert { key, value } => {
                    idx.insert(&key.to_be_bytes(), value)?;
                    shadow.insert(key, value);
                }
                Op::Remove { key } => {
                    idx.remove(&key.to_be_bytes())?;
                    shadow.remove(&key);
                }
            }
            journal.push(JournalEntry {
                op: *op,
                start_seq,
                end_seq: trace::current_seq(),
            });
        }
        Ok(())
    };
    let res = run();
    // Verify and release the stragglers so the final fence sees a tree
    // with no pinned epochs.
    for (snap, model) in live_snaps.drain(..) {
        verify_release(&idx, snap, &model);
    }
    drop(idx);
    persist::fence();
    let trace = trace::stop();
    res?;

    let snapshots = pools
        .iter()
        .map(|p| p.media_snapshot().expect("checker pools are crash_sim"))
        .collect();
    Ok(RunArtifacts {
        pools,
        journal,
        trace,
        snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_generation_is_deterministic() {
        let spec = WorkloadSpec::default_for(7);
        let a = gen_ops(&spec);
        let b = gen_ops(&spec);
        assert_eq!(a, b);
        assert!(a.iter().any(|o| matches!(o, Op::Remove { .. })));
        assert!(a.iter().all(|o| {
            let k = o.key();
            k >= 1 && k <= spec.keyspace
        }));
    }
}
