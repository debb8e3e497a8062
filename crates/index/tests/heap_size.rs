//! Heap-size regression tests for every Table 6 contender plus the
//! columnar layouts (arena, sorted event arrays, flat dual AVL) and the
//! serving snapshot's Status-Query view.
//!
//! Each design has a stable per-row heap footprint; the ceilings below are
//! ~25% above the measured values at 10k rows, so an accidental layout
//! regression (a forgotten column, a per-node allocation creeping back in)
//! fails loudly instead of silently inflating the Table 6 numbers.

use domd_data::{generate, GeneratorConfig};
use domd_index::{
    project_dataset, FlatAvlIndex, HeapSize, IntervalTreeIndex, LogicalTimeIndex, NaiveJoinIndex,
    RccArena, SortedArrayIndex, StatusView,
};
use std::sync::Arc;

fn per_row(bytes: usize, n: usize) -> f64 {
    bytes as f64 / n as f64
}

#[test]
fn per_row_footprint_of_every_contender_stays_in_band() {
    let ds = generate(&GeneratorConfig { n_avails: 40, target_rccs: 10_000, scale: 1, seed: 5 });
    let p = project_dataset(&ds);
    let n = p.len();
    assert!(n > 5_000, "dataset too small to be representative");

    let naive = NaiveJoinIndex::build_from_dataset(&ds, &p);
    let itree = IntervalTreeIndex::build(&p);
    let sa = SortedArrayIndex::build(&p);
    let favl = FlatAvlIndex::build(&p);
    let arena = RccArena::from_projected(&ds, &p);
    let view = StatusView::from_arena(Arc::new(arena.clone()));

    // Absolute ceilings (bytes/row): measured 120 / 48 / 40 / 59 / 46 at
    // 10k rows (chunked columns round up to whole 1024-slot chunks).
    assert!(per_row(naive.heap_bytes(), n) < 150.0, "naive {}", per_row(naive.heap_bytes(), n));
    assert!(per_row(itree.heap_bytes(), n) < 61.0, "itree {}", per_row(itree.heap_bytes(), n));
    assert!(per_row(sa.heap_bytes(), n) < 50.0, "sorted {}", per_row(sa.heap_bytes(), n));
    assert!(per_row(favl.heap_bytes(), n) < 73.0, "flat-avl {}", per_row(favl.heap_bytes(), n));
    assert!(per_row(arena.heap_bytes(), n) < 58.0, "arena {}", per_row(arena.heap_bytes(), n));
    // The serving snapshot's view (arena, group trees and the per-type
    // run directories), measured 67: an index added to it would push it
    // past the AVL's 59 on top.
    assert!(per_row(view.heap_bytes(), n) < 73.0, "view {}", per_row(view.heap_bytes(), n));

    // Relative orderings Table 6 depends on.
    let (naive_b, favl_b, sa_b) = (naive.heap_bytes(), favl.heap_bytes(), sa.heap_bytes());
    assert!(favl_b < naive_b, "trees beat the materialized join");
    assert!(sa_b < favl_b, "sorted array is the static-layout floor");

    // Every accounting is non-trivial.
    for (name, b) in [
        ("naive", naive_b),
        ("itree", itree.heap_bytes()),
        ("sorted", sa_b),
        ("flat-avl", favl_b),
        ("arena", arena.heap_bytes()),
    ] {
        assert!(b > n * 8, "{name} accounting must cover at least one column");
    }
}
