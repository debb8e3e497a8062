//! Status Query scalability scenario: build all three index designs over
//! increasingly scaled RCC tables and compare creation time, memory, and
//! query latency — a command-line miniature of Section 5.1 (the `repro`
//! binary regenerates the full Table 6 / Figure 5 grids).
//!
//! Run with:
//! ```text
//! cargo run --release --example index_scaling
//! ```

use std::time::Instant;

use domd::data::{generate, GeneratorConfig};
use domd::index::{
    project_dataset, sweep_from_scratch, sweep_incremental, FlatAvlIndex, HeapSize,
    IntervalTreeIndex, LogicalTimeIndex, NaiveJoinIndex, RowColumns,
};

fn main() {
    println!("scale |      rccs | index     | build ms | memory MB | 11-step sweep ms");
    println!("------+-----------+-----------+----------+-----------+-----------------");
    for scale in [1u32, 5, 10] {
        let ds = generate(&GeneratorConfig { scale, ..GeneratorConfig::default() });
        let projected = project_dataset(&ds);
        let rccs = ds.rccs();
        let amounts: Vec<f64> = rccs.iter().map(|r| r.amount).collect();
        let durations: Vec<f64> = rccs.iter().map(|r| f64::from(r.duration_days())).collect();
        let groups: Vec<usize> =
            rccs.iter().map(|r| r.rcc_type.index() * 10 + r.swlin.digit(1) as usize).collect();
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };
        let grid: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();

        // Naive join: from-scratch sweep (full scan per grid point).
        let t0 = Instant::now();
        let naive = NaiveJoinIndex::build_from_dataset(&ds, &projected);
        let naive_build = t0.elapsed();
        let t0 = Instant::now();
        sweep_from_scratch(&naive, cols, 30, &grid, |_, _, _| {});
        let naive_query = t0.elapsed();
        print_row(scale, projected.len(), "naive", naive_build, naive.heap_bytes(), naive_query);

        // Interval tree: from-scratch sweep.
        let t0 = Instant::now();
        let itree = IntervalTreeIndex::build(&projected);
        let itree_build = t0.elapsed();
        let t0 = Instant::now();
        sweep_from_scratch(&itree, cols, 30, &grid, |_, _, _| {});
        let itree_query = t0.elapsed();
        print_row(scale, projected.len(), "interval", itree_build, itree.heap_bytes(), itree_query);

        // Dual AVL: incremental sweep (the paper's winning combination).
        let t0 = Instant::now();
        let avl = FlatAvlIndex::build(&projected);
        let avl_build = t0.elapsed();
        let t0 = Instant::now();
        sweep_incremental(&avl, cols, 30, &grid, |_, _, _| {});
        let avl_query = t0.elapsed();
        print_row(scale, projected.len(), "avl+incr", avl_build, avl.heap_bytes(), avl_query);
        println!("------+-----------+-----------+----------+-----------+-----------------");
    }
    println!("\nShape to expect (paper, Table 6 / Figure 5): the dual-AVL index");
    println!("uses about half the memory of the materialized join, and the");
    println!("incremental sweep beats per-step rescans by a widening factor as");
    println!("the RCC table grows.");
}

fn print_row(
    scale: u32,
    n: usize,
    name: &str,
    build: std::time::Duration,
    bytes: usize,
    query: std::time::Duration,
) {
    println!(
        "{:>5} | {:>9} | {:<9} | {:>8.1} | {:>9.1} | {:>15.1}",
        format!("{scale}x"),
        n,
        name,
        build.as_secs_f64() * 1e3,
        bytes as f64 / (1024.0 * 1024.0),
        query.as_secs_f64() * 1e3,
    );
}
