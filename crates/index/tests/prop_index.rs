//! Property-based tests: all three index designs agree with brute force
//! and with each other on arbitrary interval sets; incremental equals
//! from-scratch computation; dynamic maintenance preserves query results.

use domd_data::AvailId;
use domd_index::{
    sweep_from_scratch, sweep_incremental, FlatAvlIndex, IntervalTreeIndex, LogicalTimeIndex,
    NaiveJoinIndex, RowColumns, SwlinTree,
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

fn brute_force(
    rccs: &[domd_index::LogicalRcc],
    t: f64,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut active = vec![];
    let mut settled = vec![];
    let mut created = vec![];
    let mut not_created = vec![];
    for r in rccs {
        if r.start > t {
            not_created.push(r.id);
        } else if r.end <= t {
            settled.push(r.id);
            created.push(r.id);
        } else {
            active.push(r.id);
            created.push(r.id);
        }
    }
    (active, settled, created, not_created)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_indexes_agree_with_brute_force(rccs in intervals(120), t in -10.0f64..200.0) {
        let (want_a, want_s, want_c, want_n) = brute_force(&rccs, t);
        let avl = FlatAvlIndex::build(&rccs);
        let itree = IntervalTreeIndex::build(&rccs);
        let naive = NaiveJoinIndex::build(&rccs);
        for (name, idx) in [
            ("avl", &avl as &dyn LogicalTimeIndex),
            ("interval", &itree as &dyn LogicalTimeIndex),
            ("naive", &naive as &dyn LogicalTimeIndex),
        ] {
            prop_assert_eq!(idx.active_at(t), want_a.clone(), "{} active", name);
            prop_assert_eq!(idx.settled_by(t), want_s.clone(), "{} settled", name);
            prop_assert_eq!(idx.created_by(t), want_c.clone(), "{} created", name);
            prop_assert_eq!(idx.not_created_by(t), want_n.clone(), "{} not-created", name);
        }
    }

    #[test]
    fn incremental_matches_from_scratch_on_random_grids(
        rccs in intervals(100),
        mut grid in prop::collection::vec(0.0f64..150.0, 1..12),
    ) {
        grid.sort_by(f64::total_cmp);
        let n = rccs.len();
        let amounts: Vec<f64> = (0..n).map(|i| 100.0 + i as f64).collect();
        let durations: Vec<f64> = rccs.iter().map(|r| r.end - r.start).collect();
        let groups: Vec<usize> = (0..n).map(|i| i % 5).collect();
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };
        let avl = FlatAvlIndex::build(&rccs);

        let mut inc = Vec::new();
        sweep_incremental(&avl, cols, 5, &grid, |_, _, st| inc.push(st.clone()));
        let mut scratch = Vec::new();
        sweep_from_scratch(&avl, cols, 5, &grid, |_, _, st| scratch.push(st.clone()));
        for (a, b) in inc.iter().zip(&scratch) {
            for g in 0..5 {
                prop_assert!((a.active[g].count - b.active[g].count).abs() < 1e-9);
                prop_assert!((a.active[g].sum_amount - b.active[g].sum_amount).abs() < 1e-6);
                prop_assert!((a.settled[g].count - b.settled[g].count).abs() < 1e-9);
                prop_assert!((a.created[g].sum_duration - b.created[g].sum_duration).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn avl_remove_restores_previous_answers(rccs in intervals(80), t in 0.0f64..120.0) {
        let mut avl = FlatAvlIndex::build(&rccs);
        let before = (avl.active_at(t), avl.settled_by(t), avl.created_by(t));
        // Insert a batch of extra intervals, then remove them again.
        let extras: Vec<domd_index::LogicalRcc> = (0..10)
            .map(|i| domd_index::LogicalRcc {
                id: 10_000 + i,
                avail: AvailId(2),
                start: f64::from(i) * 9.0,
                end: f64::from(i) * 9.0 + 20.0,
            })
            .collect();
        for e in &extras {
            prop_assert!(avl.insert(e));
        }
        for e in &extras {
            prop_assert!(avl.remove(e));
        }
        prop_assert_eq!((avl.active_at(t), avl.settled_by(t), avl.created_by(t)), before);
    }

    #[test]
    fn created_is_union_and_complement_partition(rccs in intervals(100), t in 0.0f64..150.0) {
        let avl = FlatAvlIndex::build(&rccs);
        let mut union = avl.active_at(t);
        union.extend(avl.settled_by(t));
        union.sort_unstable();
        prop_assert_eq!(avl.created_by(t), union);
        let mut everything = avl.created_by(t);
        everything.extend(avl.not_created_by(t));
        everything.sort_unstable();
        let all: Vec<u32> = (0..rccs.len() as u32).collect();
        prop_assert_eq!(everything, all);
    }

    #[test]
    fn swlin_tree_prefix_matches_filter(
        codes in prop::collection::vec(0u32..100_000_000, 1..200),
        prefix_len in 1u32..=8,
    ) {
        let swlins: Vec<domd_data::Swlin> =
            codes.iter().map(|&c| domd_data::Swlin::from_packed(c).unwrap()).collect();
        let tree = SwlinTree::build(swlins.iter().enumerate().map(|(i, w)| (*w, i as u32)));
        // Query the prefix of the first code at the chosen depth.
        let prefix = swlins[0].prefix(prefix_len);
        let got = tree.ids_for_prefix(prefix, prefix_len);
        let mut want: Vec<u32> = swlins
            .iter()
            .enumerate()
            .filter(|(_, w)| w.has_prefix(prefix, prefix_len))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
