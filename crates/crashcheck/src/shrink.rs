//! Shrinking failing crash states and serializing them for replay.
//!
//! A failing state is a choice vector over the window's lines. The shrinker
//! greedily reverts each line to its *fully flushed* option (the benign
//! default) and keeps the reversion whenever the violation still
//! reproduces, converging on a minimal set of deliberately stale lines —
//! usually the one or two cache lines whose ordering the index got wrong.
//!
//! The replay file is a small line-oriented text format; everything needed
//! to reproduce deterministically is in it: the index, the workload spec
//! (ops are regenerated from the seed), the crash window's fence sequence
//! and the per-line option choices.

use crate::enumerate::Window;
use crate::workload::WorkloadSpec;

/// Reverts choices toward fully flushed while `fails` keeps returning true.
/// Returns the shrunk choice vector; `fails` is called O(lines · passes).
pub fn shrink(window: &Window, choices: &[u32], mut fails: impl FnMut(&[u32]) -> bool) -> Vec<u32> {
    let last = window.last_choices();
    let mut cur = choices.to_vec();
    loop {
        let mut changed = false;
        for i in 0..cur.len() {
            if cur[i] == last[i] {
                continue;
            }
            let saved = cur[i];
            cur[i] = last[i];
            if fails(&cur) {
                changed = true;
            } else {
                cur[i] = saved;
            }
        }
        if !changed {
            return cur;
        }
    }
}

/// A serialized failing crash state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replay {
    /// [`IndexKind::slug`](ycsb::IndexKind::slug) of the index.
    pub index: String,
    /// The workload that produced the trace.
    pub spec: WorkloadSpec,
    /// Start-fence sequence of the crash window.
    pub fence_seq: u64,
    /// `(pool index, line offset, option index)` for every line whose
    /// chosen option differs from fully flushed.
    pub stale: Vec<(usize, u64, u32)>,
    /// The violation message the state produced.
    pub violation: String,
}

impl Replay {
    /// Serializes to the replay text format.
    pub fn serialize(&self) -> String {
        let mut s = String::new();
        s.push_str("crashcheck-replay v1\n");
        s.push_str(&format!("index {}\n", self.index));
        s.push_str(&format!("seed {}\n", self.spec.seed));
        s.push_str(&format!("keyspace {}\n", self.spec.keyspace));
        s.push_str(&format!("ops {}\n", self.spec.ops));
        s.push_str(&format!("pool_size {}\n", self.spec.pool_size));
        // Emitted only when set, so version-chain-free replays stay
        // readable by older checkers.
        if self.spec.snapshot_every != 0 {
            s.push_str(&format!("snapshot_every {}\n", self.spec.snapshot_every));
        }
        s.push_str(&format!("fence_seq {}\n", self.fence_seq));
        for &(pool, line, opt) in &self.stale {
            s.push_str(&format!("stale {pool} {line} {opt}\n"));
        }
        s.push_str(&format!(
            "violation {}\n",
            self.violation.replace('\n', " ")
        ));
        s
    }

    /// Parses the replay text format.
    pub fn parse(text: &str) -> Result<Replay, String> {
        let mut lines = text.lines();
        if lines.next() != Some("crashcheck-replay v1") {
            return Err("not a crashcheck-replay v1 file".to_string());
        }
        let mut index = None;
        let mut seed = None;
        let mut keyspace = None;
        let mut ops = None;
        let mut pool_size = None;
        let mut snapshot_every = 0usize;
        let mut fence_seq = None;
        let mut stale = Vec::new();
        let mut violation = String::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (field, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{field}: {e}"));
            match field {
                "index" => index = Some(rest.to_string()),
                "seed" => seed = Some(num(rest)?),
                "keyspace" => keyspace = Some(num(rest)?),
                "ops" => ops = Some(num(rest)? as usize),
                "pool_size" => pool_size = Some(num(rest)? as usize),
                "snapshot_every" => snapshot_every = num(rest)? as usize,
                "fence_seq" => fence_seq = Some(num(rest)?),
                "stale" => {
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    if parts.len() != 3 {
                        return Err(format!("malformed stale line: {line}"));
                    }
                    stale.push((
                        num(parts[0])? as usize,
                        num(parts[1])?,
                        num(parts[2])? as u32,
                    ));
                }
                "violation" => violation = rest.to_string(),
                other => return Err(format!("unknown field: {other}")),
            }
        }
        let missing = |f: &str| format!("missing field: {f}");
        Ok(Replay {
            index: index.ok_or_else(|| missing("index"))?,
            spec: WorkloadSpec {
                seed: seed.ok_or_else(|| missing("seed"))?,
                keyspace: keyspace.ok_or_else(|| missing("keyspace"))?,
                ops: ops.ok_or_else(|| missing("ops"))?,
                pool_size: pool_size.ok_or_else(|| missing("pool_size"))?,
                snapshot_every,
            },
            fence_seq: fence_seq.ok_or_else(|| missing("fence_seq"))?,
            stale,
            violation,
        })
    }

    /// Converts a full choice vector into the sparse stale list.
    pub fn stale_from_choices(window: &Window, choices: &[u32]) -> Vec<(usize, u64, u32)> {
        let last = window.last_choices();
        window
            .lines
            .iter()
            .zip(choices)
            .zip(&last)
            .filter(|&((_, &c), &l)| c != l)
            .map(|((line, &c), _)| (line.pool, line.line, c))
            .collect()
    }

    /// Expands the sparse stale list back into a full choice vector for
    /// `window`; errors if a stale line does not exist in the window.
    pub fn choices_for(&self, window: &Window) -> Result<Vec<u32>, String> {
        let mut choices = window.last_choices();
        for &(pool, line, opt) in &self.stale {
            let i = window
                .lines
                .iter()
                .position(|l| l.pool == pool && l.line == line)
                .ok_or_else(|| {
                    format!("stale line (pool {pool}, offset {line}) not in crash window")
                })?;
            if opt as usize >= window.lines[i].options.len() {
                return Err(format!(
                    "option {opt} out of range for line (pool {pool}, offset {line})"
                ));
            }
            choices[i] = opt;
        }
        Ok(choices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_roundtrip() {
        let r = Replay {
            index: "pactree".to_string(),
            spec: WorkloadSpec {
                seed: 42,
                keyspace: 48,
                ops: 160,
                pool_size: 2 << 20,
                snapshot_every: 0,
            },
            fence_seq: 1234,
            stale: vec![(0, 4096, 0), (2, 64, 1)],
            violation: "torn-value: lookup(3) = None".to_string(),
        };
        let text = r.serialize();
        assert!(!text.contains("snapshot_every"));
        assert_eq!(Replay::parse(&text).unwrap(), r);

        let versioned = Replay {
            spec: WorkloadSpec {
                snapshot_every: 16,
                ..r.spec
            },
            ..r
        };
        let text = versioned.serialize();
        assert!(text.contains("snapshot_every 16\n"));
        assert_eq!(Replay::parse(&text).unwrap(), versioned);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Replay::parse("hello").is_err());
        assert!(Replay::parse("crashcheck-replay v1\nindex x\n").is_err());
        assert!(Replay::parse("crashcheck-replay v1\nbogus 1\n").is_err());
    }
}
