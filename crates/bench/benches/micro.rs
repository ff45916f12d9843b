//! Criterion micro-benchmarks: single-operation costs per index
//! (lookup / insert / scan), model disabled — raw implementation overhead.

use bench::{AnyIndex, Kind, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ycsb::{KeySpace, RangeIndex};

fn op_benches(c: &mut Criterion) {
    let scale = Scale::quick();
    let space = KeySpace::Integer;
    let mut group = c.benchmark_group("micro");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(200));

    for kind in Kind::all() {
        let idx = AnyIndex::create(kind, &format!("micro-{}", kind.name()), space, &scale);
        for i in 0..scale.keys {
            idx.insert(&space.encode(i), i);
        }
        let mut next = scale.keys;

        group.bench_function(BenchmarkId::new("lookup", kind.name()), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 7919) % scale.keys;
                std::hint::black_box(idx.lookup(&space.encode(i)))
            })
        });
        group.bench_function(BenchmarkId::new("insert", kind.name()), |b| {
            b.iter(|| {
                // Wrap within a bounded key space so long criterion runs
                // cannot exhaust the pool (wrapped inserts become updates).
                next = scale.keys + (next + 1) % 200_000;
                idx.insert(&space.encode(next), next)
            })
        });
        group.bench_function(BenchmarkId::new("scan100", kind.name()), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 7919) % scale.keys;
                std::hint::black_box(RangeIndex::scan(&idx, &space.encode(i), 100))
            })
        });
        idx.destroy();
    }
    group.finish();
}

criterion_group!(benches, op_benches);
criterion_main!(benches);
