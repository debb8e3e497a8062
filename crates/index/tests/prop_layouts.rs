//! Property-based agreement tests for the columnar layouts: the RCC arena
//! and the column-stored indexes (dual AVL, sorted event arrays) must be
//! observationally identical to the paper's naive join — the from-scratch
//! oracle — and the incremental sweep to from-scratch recomputation, cold
//! and across dynamic-maintenance epoch bumps.

use domd_data::{generate, AvailId, GeneratorConfig};
use domd_index::{
    project_dataset, sweep_from_scratch, sweep_incremental, FlatAvlIndex, IntervalTreeIndex,
    LogicalTimeIndex, NaiveJoinIndex, RccArena, RowColumns, SortedArrayIndex,
};
use proptest::prelude::*;

/// Strategy: a set of logical intervals with positive width.
fn intervals(max_n: usize) -> impl Strategy<Value = Vec<domd_index::LogicalRcc>> {
    prop::collection::vec((0.0f64..110.0, 0.1f64..60.0), 1..max_n).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (s, w))| domd_index::LogicalRcc {
                id: i as u32,
                avail: AvailId(1),
                start: s,
                end: s + w,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The column-stored indexes answer all four retrieval sets exactly
    /// like the naive join over the same rows, on arbitrary interval sets.
    #[test]
    fn flat_layouts_agree_with_reference_indexes(rccs in intervals(120), t in -10.0f64..200.0) {
        let naive = NaiveJoinIndex::build(&rccs);
        let want =
            (naive.active_at(t), naive.settled_by(t), naive.created_by(t), naive.not_created_by(t));
        let favl = FlatAvlIndex::build(&rccs);
        let sa = SortedArrayIndex::build(&rccs);
        let itree = IntervalTreeIndex::build(&rccs);
        for (name, idx) in [
            ("flat-avl", &favl as &dyn LogicalTimeIndex),
            ("sorted-array", &sa as &dyn LogicalTimeIndex),
            ("interval", &itree as &dyn LogicalTimeIndex),
        ] {
            prop_assert_eq!(idx.active_at(t), want.0.clone(), "{} active", name);
            prop_assert_eq!(idx.settled_by(t), want.1.clone(), "{} settled", name);
            prop_assert_eq!(idx.created_by(t), want.2.clone(), "{} created", name);
            prop_assert_eq!(idx.not_created_by(t), want.3.clone(), "{} not-created", name);
        }
    }

    /// The incremental sweep over the dual AVL matches from-scratch
    /// recomputation over the same index at every grid point.
    #[test]
    fn flat_avl_sweep_matches_from_scratch(
        rccs in intervals(100),
        mut grid in prop::collection::vec(0.0f64..150.0, 1..12),
    ) {
        grid.sort_by(f64::total_cmp);
        let n = rccs.len();
        let amounts: Vec<f64> = (0..n).map(|i| 100.0 + i as f64).collect();
        let durations: Vec<f64> = rccs.iter().map(|r| r.end - r.start).collect();
        let groups: Vec<usize> = (0..n).map(|i| i % 5).collect();
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };
        let favl = FlatAvlIndex::build(&rccs);

        let mut flat = Vec::new();
        sweep_incremental(&favl, cols, 5, &grid, |_, _, st| flat.push(st.clone()));
        let mut scratch = Vec::new();
        sweep_from_scratch(&favl, cols, 5, &grid, |_, _, st| scratch.push(st.clone()));
        prop_assert_eq!(flat.len(), scratch.len());
        for (a, b) in flat.iter().zip(&scratch) {
            for g in 0..5 {
                prop_assert!((a.active[g].count - b.active[g].count).abs() < 1e-9);
                prop_assert!((a.settled[g].count - b.settled[g].count).abs() < 1e-9);
            }
        }
    }

    /// Dynamic maintenance on the flat AVL: inserts then removes restore
    /// previous answers exactly, and every successful mutation bumps the
    /// epoch.
    #[test]
    fn flat_avl_maintenance_restores_answers_and_bumps_epoch(
        rccs in intervals(80),
        t in 0.0f64..120.0,
    ) {
        let mut favl = FlatAvlIndex::build(&rccs);
        let epoch0 = favl.epoch();
        let before = (favl.active_at(t), favl.settled_by(t), favl.created_by(t));
        let extras: Vec<domd_index::LogicalRcc> = (0..10)
            .map(|i| domd_index::LogicalRcc {
                id: 10_000 + i,
                avail: AvailId(2),
                start: f64::from(i) * 9.0,
                end: f64::from(i) * 9.0 + 20.0,
            })
            .collect();
        for e in &extras {
            prop_assert!(favl.insert(e));
        }
        prop_assert_eq!(favl.epoch(), epoch0 + 10, "each insert bumps the epoch");
        for e in &extras {
            prop_assert!(favl.remove(e));
        }
        prop_assert_eq!(favl.epoch(), epoch0 + 20, "each remove bumps the epoch");
        prop_assert_eq!((favl.active_at(t), favl.settled_by(t), favl.created_by(t)), before);
    }

    /// The arena's struct-of-arrays columns round-trip the projected rows:
    /// every row id reads back the interval it was built from.
    #[test]
    fn arena_columns_round_trip_projection(seed in 0u64..64) {
        let ds = generate(&GeneratorConfig { n_avails: 6, target_rccs: 400, scale: 1, seed });
        let projected = project_dataset(&ds);
        let arena = RccArena::from_projected(&ds, &projected);
        prop_assert_eq!(arena.len(), projected.len());
        for (i, (want, rcc)) in projected.iter().zip(ds.rccs()).enumerate() {
            let got = arena.logical(i as u32);
            prop_assert_eq!(got.id, want.id);
            prop_assert_eq!(got.avail, want.avail);
            prop_assert_eq!(got.start.to_bits(), want.start.to_bits());
            prop_assert_eq!(got.end.to_bits(), want.end.to_bits());
            prop_assert_eq!(arena.amount(i as u32).to_bits(), rcc.amount.to_bits());
            prop_assert_eq!(arena.rcc_type(i as u32), rcc.rcc_type);
            prop_assert_eq!(arena.swlin(i as u32), rcc.swlin);
        }
    }
}
