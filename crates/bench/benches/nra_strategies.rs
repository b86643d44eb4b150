//! Remark 8.7 ablation, timed: NRA's two bookkeeping strategies. Both run
//! the same incremental engine and differ only in how they break `W` ties
//! at the `T_k` boundary — `Exhaustive` re-ranks the tied group by `B` (the
//! paper's rule), `LazyHeap` by object id — so this bench reports what the
//! faithful tie-break costs in wall-clock. The `experiments e12` table
//! reports the bookkeeping volume.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fagin_bench::run;
use fagin_core::aggregation::Average;
use fagin_core::algorithms::{BookkeepingStrategy, Nra};
use fagin_middleware::AccessPolicy;
use fagin_workloads::random;

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("nra-bookkeeping");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let db = random::uniform(n, 3, 0x12a);
        group.bench_with_input(BenchmarkId::new("exhaustive", n), &db, |b, db| {
            b.iter(|| {
                black_box(run(
                    db,
                    AccessPolicy::no_random_access(),
                    &Nra::new(),
                    &Average,
                    10,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("lazy-heap", n), &db, |b, db| {
            b.iter(|| {
                black_box(run(
                    db,
                    AccessPolicy::no_random_access(),
                    &Nra::with_strategy(BookkeepingStrategy::LazyHeap),
                    &Average,
                    10,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
