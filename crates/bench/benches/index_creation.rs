//! Criterion bench: index creation cost (Figure 5a / Table 6) — building
//! each of the three index designs over the 1x and 5x RCC tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use domd_bench::util::scaled_dataset;
use domd_index::{
    project_dataset, FlatAvlIndex, IntervalTreeIndex, LogicalTimeIndex, NaiveJoinIndex,
};
use std::hint::black_box;

fn bench_index_creation(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_creation");
    group.sample_size(10);
    for scale in [1u32, 5] {
        let ds = scaled_dataset(scale);
        let projected = project_dataset(&ds);
        group.bench_with_input(BenchmarkId::new("naive-join", scale), &projected, |b, p| {
            b.iter(|| black_box(NaiveJoinIndex::build_from_dataset(&ds, p)))
        });
        group.bench_with_input(BenchmarkId::new("interval-tree", scale), &projected, |b, p| {
            b.iter(|| black_box(IntervalTreeIndex::build(p)))
        });
        group.bench_with_input(BenchmarkId::new("avl", scale), &projected, |b, p| {
            b.iter(|| black_box(FlatAvlIndex::build(p)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index_creation);
criterion_main!(benches);
