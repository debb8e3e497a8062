//! Criterion bench: Status Query aggregate latency for single queries of
//! the paper's Figure 3 shape — the GROUP BY rows probed for their status
//! at `t*` and folded — as the pipeline repeats them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use domd_bench::util::scaled_dataset;
use domd_data::rcc::{RccStatus, RccType};
use domd_index::{RccArena, StatusQuery, StatusView};
use std::hint::black_box;

fn bench_status_query(c: &mut Criterion) {
    let ds = scaled_dataset(1);
    let view = StatusView::from_arena(std::sync::Arc::new(RccArena::from_dataset(&ds)));
    let mut group = c.benchmark_group("status_query");
    group.sample_size(20);

    let cases = [
        ("type-only", StatusQuery {
            rcc_type: Some(RccType::Growth),
            swlin_prefix: None,
            status: RccStatus::Settled,
            t_star: 50.0,
        }),
        ("subsystem-only", StatusQuery {
            rcc_type: None,
            swlin_prefix: Some((4, 1)),
            status: RccStatus::Active,
            t_star: 50.0,
        }),
        ("type-and-module", StatusQuery {
            rcc_type: Some(RccType::NewGrowth),
            swlin_prefix: Some((43, 2)),
            status: RccStatus::Created,
            t_star: 75.0,
        }),
        ("ungrouped", StatusQuery {
            rcc_type: None,
            swlin_prefix: None,
            status: RccStatus::Created,
            t_star: 100.0,
        }),
    ];
    for (name, q) in cases {
        group.bench_with_input(BenchmarkId::new("aggregate", name), &q, |b, q| {
            b.iter(|| black_box(view.aggregate(q)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_status_query);
criterion_main!(benches);
