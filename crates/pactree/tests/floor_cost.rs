//! Cost guard for the search layer's per-operation path: a PDL-ART `floor`
//! of a random key costs at most 3× an exact `get` of a present one.
//!
//! `floor` is the call every tree operation makes, over ~22k 8-byte anchors
//! in a 1M-key PACTree (one per data node). With its one predecessor step
//! per arity it reads 1.3–1.5× a lookup; scanning and sorting each node it
//! diverges in reads 8–13×. A ratio, so machine speed cancels; the arms
//! interleave and each keeps its fastest trial, so a stall that lands in
//! one trial does not decide the verdict.
//!
//! Its own test binary so no sibling test shares the CPU while it times.

use std::sync::Arc;
use std::time::Instant;

use pactree::search::Art;
use pmem::epoch::Collector;
use pmem::pool::{destroy_pool, PmemPool, PoolConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Anchors in the search layer of a 1M-key PACTree.
const ANCHORS: usize = 22_300;
const QUERIES: usize = 20_000;
const TRIALS: usize = 5;
const FLOOR_RATIO_BOUND: f64 = 3.0;

/// ns per call of `f` over `keys`, after one warm-up pass.
fn ns_per_op(keys: &[[u8; 8]], f: impl Fn(&[u8]) -> Option<u64>) -> f64 {
    let pass = || keys.iter().filter_map(|k| f(k)).fold(0, u64::wrapping_add);
    std::hint::black_box(pass());
    let t0 = Instant::now();
    std::hint::black_box(pass());
    t0.elapsed().as_nanos() as f64 / keys.len() as f64
}

#[test]
fn floor_costs_at_most_three_lookups() {
    let pool = PmemPool::create(PoolConfig::volatile("floor-cost-art", 64 << 20)).unwrap();
    let art = Art::create(Arc::clone(&pool), 0, Arc::new(Collector::new())).unwrap();
    let mut rng = StdRng::seed_from_u64(0xF100);
    let anchors: Vec<[u8; 8]> = (0..ANCHORS)
        .map(|_| rng.gen::<u64>().to_be_bytes())
        .collect();
    for (i, a) in anchors.iter().enumerate() {
        art.insert(a, i as u64 + 1).unwrap();
    }
    let present: Vec<[u8; 8]> = (0..QUERIES)
        .map(|_| anchors[rng.gen_range(0..ANCHORS)])
        .collect();
    let random: Vec<[u8; 8]> = (0..QUERIES)
        .map(|_| rng.gen::<u64>().to_be_bytes())
        .collect();

    let (mut lookup_ns, mut floor_ns) = (f64::MAX, f64::MAX);
    for _ in 0..TRIALS {
        lookup_ns = lookup_ns.min(ns_per_op(&present, |k| art.get(k)));
        floor_ns = floor_ns.min(ns_per_op(&random, |k| art.floor(k)));
    }
    let ratio = floor_ns / lookup_ns;
    println!("floor {floor_ns:.1} ns / lookup {lookup_ns:.1} ns = {ratio:.2}");
    assert!(
        ratio <= FLOOR_RATIO_BOUND,
        "floor {floor_ns:.1} ns is {ratio:.2}x lookup {lookup_ns:.1} ns (bound {FLOOR_RATIO_BOUND})"
    );
    drop(art);
    destroy_pool(pool.id());
}
