//! Heap-size regression tests for every Table 6 contender plus the PR-3
//! layouts (arena, Eytzinger, flat AVL) and the snapshot cache.
//!
//! Each design has a stable per-row heap footprint; the ceilings below are
//! ~25% above the measured values at 10k rows, so an accidental layout
//! regression (a forgotten column, a per-node allocation creeping back in)
//! fails loudly instead of silently inflating the Table 6 numbers.

use domd_data::{generate, GeneratorConfig};
use domd_index::{
    project_dataset, AvlIndex, CachedStatusQueryEngine, EytzingerIndex, FlatAvlIndex, HeapSize,
    IntervalTreeIndex, LogicalTimeIndex, NaiveJoinIndex, RccArena, SortedArrayIndex, StatusQuery,
};

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
    let ey = EytzingerIndex::build(&p);
    let avl = AvlIndex::build(&p);
    let favl = FlatAvlIndex::build(&p);
    let arena = RccArena::from_projected(&ds, &p);

    // Absolute ceilings (bytes/row): measured 120 / 48 / 40 / 56 / 64 /
    // 59 / 46 at 10k rows (chunked columns round up to whole 1024-slot
    // chunks).
    assert!(per_row(naive.heap_bytes(), n) < 150.0, "naive {}", per_row(naive.heap_bytes(), n));
    assert!(per_row(itree.heap_bytes(), n) < 61.0, "itree {}", per_row(itree.heap_bytes(), n));
    assert!(per_row(sa.heap_bytes(), n) < 50.0, "sorted {}", per_row(sa.heap_bytes(), n));
    assert!(per_row(ey.heap_bytes(), n) < 70.0, "eytzinger {}", per_row(ey.heap_bytes(), n));
    assert!(per_row(avl.heap_bytes(), n) < 80.0, "avl {}", per_row(avl.heap_bytes(), n));
    assert!(per_row(favl.heap_bytes(), n) < 73.0, "flat-avl {}", per_row(favl.heap_bytes(), n));
    assert!(per_row(arena.heap_bytes(), n) < 58.0, "arena {}", per_row(arena.heap_bytes(), n));

    // Relative orderings Table 6 depends on.
    let (naive_b, avl_b, favl_b, sa_b, ey_b) =
        (naive.heap_bytes(), avl.heap_bytes(), favl.heap_bytes(), sa.heap_bytes(), ey.heap_bytes());
    assert!(avl_b < naive_b, "trees beat the materialized join");
    assert!(favl_b <= avl_b, "arena-backed AVL must not exceed pointer AVL");
    assert!(sa_b < ey_b, "Eytzinger trades bytes (rank column) for locality");
    assert!(sa_b < favl_b, "sorted array is the static-layout floor");

    // Every accounting is non-trivial.
    for (name, b) in [
        ("naive", naive_b),
        ("itree", itree.heap_bytes()),
        ("sorted", sa_b),
        ("eytzinger", ey_b),
        ("avl", avl_b),
        ("flat-avl", favl_b),
        ("arena", arena.heap_bytes()),
    ] {
        assert!(b > n * 8, "{name} accounting must cover at least one column");
    }
}

#[test]
fn snapshot_cache_heap_grows_with_entries_and_is_accounted() {
    let ds = generate(&GeneratorConfig { n_avails: 20, target_rccs: 2_000, scale: 1, seed: 11 });
    let p = project_dataset(&ds);
    let mut eng = CachedStatusQueryEngine::<AvlIndex>::build(&ds, &p, 256);
    let empty = eng.heap_bytes();
    for t in 0..64 {
        eng.aggregate_cached(&StatusQuery {
            rcc_type: None,
            swlin_prefix: None,
            status: domd_data::rcc::RccStatus::Created,
            t_star: f64::from(t) * 1.5,
        });
    }
    let warm = eng.heap_bytes();
    assert!(warm > empty, "memoized snapshots must be accounted ({empty} -> {warm})");
    // 64 snapshot entries cost well under a megabyte.
    assert!(warm - empty < 1 << 20, "cache overhead out of band: {}", warm - empty);
}
