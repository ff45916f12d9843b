//! Request tapes: the only thing `--seed` drives.
//!
//! A tape is the deterministic stream of operations one client issues,
//! together with the reply each must get. The expected reply comes from a
//! shadow model kept while generating (last acknowledged write wins, removed
//! keys miss), which is sound because every client is closed-loop and owns a
//! disjoint slice of the key ids: id `i` belongs to client `i % clients`, so
//! no other client can change what this one must read back.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ycsb::{Distribution, Mix, Workload};

use crate::catalogue::{Ops, WorkloadDef};
use crate::stats::Fnv;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Update,
    Insert,
    Remove,
    Scan,
}

/// One operation and the reply it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeOp {
    pub kind: Kind,
    /// Logical key id; the driver encodes it with the workload's `KeySpace`.
    pub id: u64,
    /// The value to write (update/insert) or the pair count (scan).
    pub arg: u64,
    /// The value the index holds for `id` before this operation: what a
    /// lookup returns and what update/insert/remove report as previous.
    pub expect: Option<u64>,
}

/// The value preloading stores under `id` (what `ycsb::populate` stores).
pub fn preload_value(id: u64) -> u64 {
    id + 1
}

/// Values written during a run start here, above every preload value.
const WRITTEN_BASE: u64 = 1 << 40;

pub struct Tape {
    ops: Ops,
    workload: Workload,
    rng: StdRng,
    client: u64,
    clients: u64,
    populated: u64,
    /// Current value of each preloaded id this client owns, by local index.
    shadow: Vec<u64>,
    /// Fresh ids handed out so far (local sequence).
    fresh: u64,
    /// This client's own live inserts, oldest first: what removes consume
    /// (kept for the harness's own mixes; YCSB mixes never remove).
    own: VecDeque<(u64, u64)>,
    written: u64,
    /// Inserts minus removes issued so far.
    pub live_delta: i64,
}

impl Tape {
    pub fn new(def: &WorkloadDef, populated: u64, seed: u64, client: usize) -> Tape {
        let clients = def.clients as u64;
        let client = client as u64;
        assert!(client < clients && populated >= clients);
        let local = (populated - client).div_ceil(clients);
        let mut stream = Fnv::new();
        stream.bytes(def.name.as_bytes());
        stream.u64(seed);
        stream.u64(client);
        Tape {
            ops: def.ops,
            workload: key_source(def.ops, def.distribution, local),
            rng: StdRng::seed_from_u64(stream.0),
            client,
            clients,
            populated,
            shadow: (0..local)
                .map(|l| preload_value(l * clients + client))
                .collect(),
            fresh: 0,
            own: VecDeque::new(),
            written: 0,
            live_delta: 0,
        }
    }

    /// Continues this tape with another mix over the same shadow model, so
    /// successive rungs on one tree keep expecting what earlier rungs wrote.
    pub fn switch(&mut self, ops: Ops, distribution: Distribution) {
        self.workload = key_source(ops, distribution, self.shadow.len() as u64);
        self.ops = ops;
    }

    /// This client's own live inserts, which `Kind::Remove` consumes.
    pub fn own_inserts(&self) -> usize {
        self.own.len()
    }

    /// A key of the preloaded population, drawn from the distribution.
    fn draw_local(&mut self) -> u64 {
        match self.workload.next_op(&mut self.rng, &mut || 0) {
            ycsb::workload::Op::Read(l) => l,
            other => unreachable!("Mix::C draws reads only, got {other:?}"),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.populated + self.fresh * self.clients + self.client;
        self.fresh += 1;
        id
    }

    fn next_value(&mut self) -> u64 {
        self.written += 1;
        WRITTEN_BASE + self.written * self.clients + self.client
    }

    fn lookup(&self, local: u64) -> TapeOp {
        TapeOp {
            kind: Kind::Lookup,
            id: local * self.clients + self.client,
            arg: 0,
            expect: Some(self.shadow[local as usize]),
        }
    }

    fn update(&mut self, local: u64) -> TapeOp {
        let value = self.next_value();
        let old = std::mem::replace(&mut self.shadow[local as usize], value);
        TapeOp {
            kind: Kind::Update,
            id: local * self.clients + self.client,
            arg: value,
            expect: Some(old),
        }
    }

    fn insert(&mut self) -> TapeOp {
        let (id, value) = (self.fresh_id(), self.next_value());
        if !matches!(self.ops, Ops::Ycsb(_)) {
            self.own.push_back((id, value));
        }
        self.live_delta += 1;
        TapeOp {
            kind: Kind::Insert,
            id,
            arg: value,
            expect: None,
        }
    }

    fn scan(&self, local: u64, count: u64) -> TapeOp {
        TapeOp {
            kind: Kind::Scan,
            id: local * self.clients + self.client,
            arg: count,
            expect: None,
        }
    }

    /// Removes this client's oldest own insert; inserts when there is none
    /// (the start of a churn tape).
    fn remove_oldest(&mut self) -> TapeOp {
        let Some((id, value)) = self.own.pop_front() else {
            return self.insert();
        };
        self.live_delta -= 1;
        TapeOp {
            kind: Kind::Remove,
            id,
            arg: 0,
            expect: Some(value),
        }
    }

    pub fn next_op(&mut self) -> TapeOp {
        match self.ops {
            Ops::Ycsb(_) => {
                // `next_op` wants a source of fresh local sequence numbers;
                // ids are assigned here so they stay client-disjoint.
                let mut wants_fresh = || 0;
                match self.workload.next_op(&mut self.rng, &mut wants_fresh) {
                    ycsb::workload::Op::Read(l) => self.lookup(l),
                    ycsb::workload::Op::Update(l) => self.update(l),
                    ycsb::workload::Op::Insert(_) => self.insert(),
                    ycsb::workload::Op::Scan(l, count) => self.scan(l, count as u64),
                }
            }
            Ops::Churn => {
                let p: u32 = self.rng.gen_range(0..100);
                if p < 50 {
                    let local = self.draw_local();
                    self.update(local)
                } else if p < 75 {
                    self.insert()
                } else {
                    self.remove_oldest()
                }
            }
            Ops::Only(kind) => match kind {
                Kind::Lookup => {
                    let local = self.draw_local();
                    self.lookup(local)
                }
                Kind::Update => {
                    let local = self.draw_local();
                    self.update(local)
                }
                Kind::Insert => self.insert(),
                Kind::Remove => self.remove_oldest(),
                Kind::Scan => {
                    let local = self.draw_local();
                    self.scan(local, ONLY_SCAN_COUNT)
                }
            },
        }
    }
}

/// Pairs asked of every scan of an `Ops::Only(Kind::Scan)` tape (the middle
/// of YCSB-E's 1-100), fixed so time per returned key is one division.
pub const ONLY_SCAN_COUNT: u64 = 50;

/// The `ycsb::Workload` a tape draws through: the mix itself for YCSB
/// mixes, and a read-only one (key draws only) for the harness's own mixes.
fn key_source(ops: Ops, distribution: Distribution, local: u64) -> Workload {
    let mix = match ops {
        Ops::Ycsb(mix) => mix,
        Ops::Churn | Ops::Only(_) => Mix::C,
    };
    Workload::new(mix, distribution, local)
}

/// Operations per client folded into [`tape_hash`].
const HASHED_OPS: usize = 4096;

/// FNV-1a over the head of every client's tape: equal hashes mean two runs
/// were handed the same inputs.
pub fn tape_hash(def: &WorkloadDef, populated: u64, seed: u64) -> u64 {
    let mut h = Fnv::new();
    for client in 0..def.clients {
        let mut tape = Tape::new(def, populated, seed, client);
        for _ in 0..HASHED_OPS {
            let op = tape.next_op();
            h.u64(op.kind as u64);
            h.u64(op.id);
            h.u64(op.arg);
            h.u64(op.expect.map_or(0, |v| v + 1));
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::WORKLOADS;
    use std::collections::HashMap;

    #[test]
    fn same_seed_same_tape_other_seed_other_tape() {
        for def in &WORKLOADS {
            let a = tape_hash(def, 10_000, 42);
            assert_eq!(a, tape_hash(def, 10_000, 42), "{}", def.name);
            assert_ne!(a, tape_hash(def, 10_000, 1337), "{}", def.name);
        }
    }

    /// Replays each tape against a plain map: the expectations a tape
    /// carries are exactly what a correct index would answer.
    #[test]
    fn expectations_follow_last_write_wins() {
        for def in &WORKLOADS {
            let populated = 5_000u64;
            let mut model: HashMap<u64, u64> =
                (0..populated).map(|id| (id, preload_value(id))).collect();
            let mut tapes: Vec<Tape> = (0..def.clients)
                .map(|c| Tape::new(def, populated, 7, c))
                .collect();
            // Interleave clients: disjoint ownership makes any order valid.
            for step in 0..40_000 {
                let c = step % def.clients;
                let op = tapes[c].next_op();
                assert_eq!(op.id % def.clients as u64, c as u64, "ownership");
                match op.kind {
                    Kind::Lookup => assert_eq!(model.get(&op.id).copied(), op.expect),
                    Kind::Update | Kind::Insert => {
                        assert_eq!(model.insert(op.id, op.arg), op.expect)
                    }
                    Kind::Remove => assert_eq!(model.remove(&op.id), op.expect),
                    Kind::Scan => assert!((1..=100).contains(&op.arg)),
                }
            }
            let delta: i64 = tapes.iter().map(|t| t.live_delta).sum();
            assert_eq!(model.len() as i64, populated as i64 + delta, "{}", def.name);
        }
    }

    #[test]
    fn churn_keeps_the_tree_level() {
        let def = crate::catalogue::workload("embed_write").unwrap();
        let mut tape = Tape::new(def, 1_000, 1, 0);
        let mut counts = [0u32; 5];
        for _ in 0..100_000 {
            counts[tape.next_op().kind as usize] += 1;
        }
        let share = |k: Kind| f64::from(counts[k as usize]) / 100_000.0;
        assert!((share(Kind::Update) - 0.50).abs() < 0.01);
        assert!((share(Kind::Insert) - 0.25).abs() < 0.01);
        assert!((share(Kind::Remove) - 0.25).abs() < 0.01);
        assert!(tape.live_delta.abs() < 2_000, "drift {}", tape.live_delta);
    }
}
