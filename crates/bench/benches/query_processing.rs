//! Criterion bench: Status Query processing cost (Figure 5b) — the
//! 11-step timeline workload, per-step rescans (naive / interval tree)
//! against the incremental StatStructure sweep on the dual-AVL index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use domd_bench::util::scaled_dataset;
use domd_index::{
    project_dataset, sweep_from_scratch, sweep_incremental, FlatAvlIndex, IntervalTreeIndex,
    LogicalTimeIndex, NaiveJoinIndex, RowColumns,
};
use std::hint::black_box;

fn bench_query_processing(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_processing");
    group.sample_size(10);
    for scale in [1u32, 5] {
        let ds = scaled_dataset(scale);
        let projected = project_dataset(&ds);
        let amounts: Vec<f64> = ds.rccs().iter().map(|r| r.amount).collect();
        let durations: Vec<f64> =
            ds.rccs().iter().map(|r| f64::from(r.duration_days())).collect();
        let groups: Vec<usize> = ds
            .rccs()
            .iter()
            .map(|r| r.rcc_type.index() * 10 + r.swlin.digit(1) as usize)
            .collect();
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };
        let grid: Vec<f64> = (0..=10).map(|i| f64::from(i) * 10.0).collect();

        let naive = NaiveJoinIndex::build_from_dataset(&ds, &projected);
        group.bench_with_input(BenchmarkId::new("naive-rescan", scale), &(), |b, ()| {
            b.iter(|| black_box(sweep_from_scratch(&naive, cols, 30, &grid, |_, _, _| {})))
        });
        let itree = IntervalTreeIndex::build(&projected);
        group.bench_with_input(BenchmarkId::new("interval-rescan", scale), &(), |b, ()| {
            b.iter(|| black_box(sweep_from_scratch(&itree, cols, 30, &grid, |_, _, _| {})))
        });
        let avl = FlatAvlIndex::build(&projected);
        group.bench_with_input(BenchmarkId::new("avl-incremental", scale), &(), |b, ()| {
            b.iter(|| black_box(sweep_incremental(&avl, cols, 30, &grid, |_, _, _| {})))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_processing);
criterion_main!(benches);
