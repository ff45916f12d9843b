//! Cross-index equivalence: every index in the workspace must agree with a
//! `BTreeMap` (and therefore with each other) on identical operation
//! sequences — the strongest cheap correctness check we have across five
//! very different implementations. Each check compares what the index
//! returns: an insert's previous value, a removal's value, a lookup, and
//! the pairs a scan yields, in order.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ycsb::{AnyIndex, IndexKind, KeySpace, RangeIndex};

const POOL: usize = 512 << 20;

/// `model`'s pairs from `start` on, at most `len` of them, as byte keys.
fn model_pairs(model: &BTreeMap<u64, u64>, start: u64, len: usize) -> Vec<(Vec<u8>, u64)> {
    let pairs = model.range(start..).take(len);
    pairs.map(|(k, &v)| (k.to_be_bytes().to_vec(), v)).collect()
}

/// One of each roster index, in the figures' configuration.
fn indexes(tag: &str) -> Vec<AnyIndex> {
    let create = |k: IndexKind| {
        let name = format!("xidx-{tag}-{}", k.slug());
        k.create(&name, POOL, KeySpace::Integer, false).unwrap()
    };
    IndexKind::all().into_iter().map(create).collect()
}

#[test]
fn all_indexes_agree_with_model() {
    let idxs = indexes("agree");
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0xABCD);

    for step in 0..8_000u64 {
        let k: u64 = rng.gen_range(1..4000);
        let kb = k.to_be_bytes();
        match rng.gen_range(0..10) {
            0..=5 => {
                let expect = model.insert(k, step);
                for idx in &idxs {
                    let prev = idx.insert(&kb, step).expect("insert");
                    assert_eq!(prev, expect, "{} insert {k}", idx.name());
                }
            }
            6..=7 => {
                let expect = model.remove(&k);
                for idx in &idxs {
                    let removed = idx.remove(&kb).expect("remove");
                    assert_eq!(removed, expect, "{} remove {k}", idx.name());
                }
            }
            _ => {
                let expect = model.get(&k).copied();
                for idx in &idxs {
                    assert_eq!(idx.lookup(&kb), expect, "{} lookup {k}", idx.name());
                }
            }
        }
    }
    // Final sweep: every key agrees; a full scan yields the model's pairs.
    for (&k, &v) in &model {
        for idx in &idxs {
            assert_eq!(idx.lookup(&k.to_be_bytes()), Some(v), "{}", idx.name());
        }
    }
    let all = model_pairs(&model, 0, usize::MAX);
    for idx in &idxs {
        let got = idx.scan_pairs(&0u64.to_be_bytes(), usize::MAX >> 1);
        assert!(
            got == all,
            "{} full scan differs from the model",
            idx.name()
        );
    }
    for idx in idxs {
        idx.destroy();
    }
}

#[test]
fn scan_windows_agree() {
    let idxs = indexes("scanwin");
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..3000u64 {
        let k = i * 7 % 5000;
        let expect = model.insert(k, i);
        for idx in &idxs {
            let prev = idx.insert(&k.to_be_bytes(), i).expect("insert");
            assert_eq!(prev, expect, "{} insert {k}", idx.name());
        }
    }
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..200 {
        let start: u64 = rng.gen_range(0..5000);
        let len: usize = rng.gen_range(1..100);
        let expect = model_pairs(&model, start, len);
        for idx in &idxs {
            let what = format!("{} scan from {start} len {len}", idx.name());
            assert_eq!(idx.scan(&start.to_be_bytes(), len), expect.len(), "{what}");
            assert_eq!(idx.scan_pairs(&start.to_be_bytes(), len), expect, "{what}");
        }
    }
    for idx in idxs {
        idx.destroy();
    }
}
