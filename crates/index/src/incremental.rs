//! Incremental Status Query computation over the logical timeline
//! (Section 4.3).
//!
//! Answering a DoMD query means running Status Queries at every grid point
//! `0, x, 2x, …, t*`. A naive executor recomputes each point from scratch —
//! O(steps × |RCC|). The incremental `StatStructure` instead carries the
//! running per-group aggregates forward: advancing from `j·x` to `(j+1)·x`
//! only touches RCCs whose creation or settlement falls inside the window
//! `(j·x, (j+1)·x]`, which the dual-AVL index enumerates in
//! O(log n + Δ) via pruned range scans.
//!
//! Group assignment is pluggable (a dense `RowId → group` map), so the same
//! sweeper serves both the scalability study (groups = RCC type × SWLIN
//! first digit) and feature engineering (groups = avail × type × subsystem).

use crate::flat_avl::FlatAvlIndex;
use crate::traits::LogicalTimeIndex;
use crate::types::{HeapSize, RowId};

/// Running aggregates of one (group × status) cell. Supports removal
/// (needed for the active set, which RCCs leave when they settle), so only
/// sum-based statistics are maintained here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accum {
    /// Row count.
    pub count: f64,
    /// Sum of settled amounts.
    pub sum_amount: f64,
    /// Sum of squared settled amounts (for variance features).
    pub sum_amount_sq: f64,
    /// Sum of durations (days).
    pub sum_duration: f64,
    /// Sum of squared durations.
    pub sum_duration_sq: f64,
}

impl Accum {
    /// Adds one row's contribution.
    pub fn add(&mut self, amount: f64, duration: f64) {
        self.count += 1.0;
        self.sum_amount += amount;
        self.sum_amount_sq += amount * amount;
        self.sum_duration += duration;
        self.sum_duration_sq += duration * duration;
    }

    /// Folds another accumulator into this one (used to roll cells up the
    /// type / SWLIN hierarchies).
    pub fn merge(&mut self, other: &Accum) {
        self.count += other.count;
        self.sum_amount += other.sum_amount;
        self.sum_amount_sq += other.sum_amount_sq;
        self.sum_duration += other.sum_duration;
        self.sum_duration_sq += other.sum_duration_sq;
    }

    /// Removes one row's contribution (exact inverse of [`Accum::add`]).
    pub fn sub(&mut self, amount: f64, duration: f64) {
        self.count -= 1.0;
        self.sum_amount -= amount;
        self.sum_amount_sq -= amount * amount;
        self.sum_duration -= duration;
        self.sum_duration_sq -= duration * duration;
    }

    /// Mean amount (0 when empty).
    pub fn avg_amount(&self) -> f64 {
        if self.count <= 0.0 {
            0.0
        } else {
            self.sum_amount / self.count
        }
    }

    /// Mean duration (0 when empty).
    pub fn avg_duration(&self) -> f64 {
        if self.count <= 0.0 {
            0.0
        } else {
            self.sum_duration / self.count
        }
    }

    /// Population standard deviation of amounts (0 when count < 2).
    pub fn std_amount(&self) -> f64 {
        if self.count < 2.0 {
            return 0.0;
        }
        let mean = self.sum_amount / self.count;
        (self.sum_amount_sq / self.count - mean * mean).max(0.0).sqrt()
    }

    /// Population standard deviation of durations (0 when count < 2).
    pub fn std_duration(&self) -> f64 {
        if self.count < 2.0 {
            return 0.0;
        }
        let mean = self.sum_duration / self.count;
        (self.sum_duration_sq / self.count - mean * mean).max(0.0).sqrt()
    }
}

/// The `StatStructure(t*_xj)` of Section 4.3: per-group running aggregates
/// for the active / settled / created sets at the last processed timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct StatStructure {
    /// Last processed logical timestamp.
    pub t_star: f64,
    /// Active aggregates per group.
    pub active: Vec<Accum>,
    /// Settled aggregates per group (insert-only: rows never leave).
    pub settled: Vec<Accum>,
    /// Created aggregates per group (insert-only).
    pub created: Vec<Accum>,
}

impl StatStructure {
    /// An empty structure positioned before the timeline origin.
    pub fn new(n_groups: usize) -> Self {
        StatStructure {
            t_star: f64::NEG_INFINITY,
            active: vec![Accum::default(); n_groups],
            settled: vec![Accum::default(); n_groups],
            created: vec![Accum::default(); n_groups],
        }
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.active.len()
    }
}

impl HeapSize for StatStructure {
    fn heap_bytes(&self) -> usize {
        (self.active.capacity() + self.settled.capacity() + self.created.capacity())
            * std::mem::size_of::<Accum>()
    }
}

/// Row attribute columns consulted by the sweepers.
#[derive(Debug, Clone, Copy)]
pub struct RowColumns<'a> {
    /// Settled amount per row id.
    pub amounts: &'a [f64],
    /// Duration (days) per row id.
    pub durations: &'a [f64],
    /// Dense group index per row id.
    pub groups: &'a [usize],
}

/// Incremental sweeper over a logical-time grid backed by the dual-AVL
/// index. Calls `visit(step, t*, &stats)` once per grid point, after the
/// structure has been advanced to it.
pub fn sweep_incremental<F: FnMut(usize, f64, &StatStructure)>(
    index: &FlatAvlIndex,
    cols: RowColumns<'_>,
    n_groups: usize,
    grid: &[f64],
    mut visit: F,
) -> StatStructure {
    let mut st = StatStructure::new(n_groups);
    let mut prev = f64::NEG_INFINITY;
    for (step, &t) in grid.iter().enumerate() {
        debug_assert!(t >= prev, "grid must ascend");
        // Rows created inside (prev, t] enter the created and active sets.
        index.for_each_created_in(prev, t, |_s, _e, id| {
            let (g, a, d) = row(cols, id);
            st.created[g].add(a, d);
            st.active[g].add(a, d);
        });
        // Rows settled inside (prev, t] move from active to settled.
        index.for_each_settled_in(prev, t, |s, _e, id| {
            let (g, a, d) = row(cols, id);
            // A row both created and settled inside the window was just
            // added to active above; rows created before `prev` were added
            // in an earlier step. Either way it is in active now — unless it
            // settled before it was created, which projection forbids.
            debug_assert!(s <= t, "settle implies created");
            st.active[g].sub(a, d);
            st.settled[g].add(a, d);
        });
        st.t_star = t;
        visit(step, t, &st);
        prev = t;
    }
    st
}

/// From-scratch counterpart: recomputes every grid point independently with
/// full index queries. Same output as [`sweep_incremental`]; used as the
/// baseline in the Figure 5b comparison and as a correctness oracle.
pub fn sweep_from_scratch<I, F>(
    index: &I,
    cols: RowColumns<'_>,
    n_groups: usize,
    grid: &[f64],
    mut visit: F,
) -> StatStructure
where
    I: LogicalTimeIndex + ?Sized,
    F: FnMut(usize, f64, &StatStructure),
{
    let mut last = StatStructure::new(n_groups);
    for (step, &t) in grid.iter().enumerate() {
        let mut st = StatStructure::new(n_groups);
        st.t_star = t;
        for id in index.active_at(t) {
            let (g, a, d) = row(cols, id);
            st.active[g].add(a, d);
            st.created[g].add(a, d);
        }
        for id in index.settled_by(t) {
            let (g, a, d) = row(cols, id);
            st.settled[g].add(a, d);
            st.created[g].add(a, d);
        }
        visit(step, t, &st);
        last = st;
    }
    last
}

#[inline]
fn row(cols: RowColumns<'_>, id: RowId) -> (usize, f64, f64) {
    let i = id as usize;
    (cols.groups[i], cols.amounts[i], cols.durations[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LogicalRcc;
    use domd_data::AvailId;

    fn rcc(id: RowId, start: f64, end: f64) -> LogicalRcc {
        LogicalRcc { id, avail: AvailId(1), start, end }
    }

    fn setup(n: usize, seed: u64) -> (Vec<LogicalRcc>, Vec<f64>, Vec<f64>, Vec<usize>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let rs: Vec<LogicalRcc> = (0..n as u32)
            .map(|i| {
                let s: f64 = rng.gen_range(0.0..100.0);
                rcc(i, s, s + rng.gen_range(0.5..30.0))
            })
            .collect();
        let amounts: Vec<f64> = (0..n).map(|_| rng.gen_range(100.0..9000.0)).collect();
        let durations: Vec<f64> = rs.iter().map(|r| r.end - r.start).collect();
        let groups: Vec<usize> = (0..n).map(|i| i % 7).collect();
        (rs, amounts, durations, groups)
    }

    #[test]
    fn accum_add_sub_roundtrip() {
        let mut a = Accum::default();
        a.add(10.0, 2.0);
        a.add(30.0, 4.0);
        assert_eq!(a.count, 2.0);
        assert!((a.avg_amount() - 20.0).abs() < 1e-12);
        assert!((a.std_amount() - 10.0).abs() < 1e-9);
        a.sub(10.0, 2.0);
        assert_eq!(a.count, 1.0);
        assert!((a.avg_amount() - 30.0).abs() < 1e-12);
        assert_eq!(a.std_amount(), 0.0);
    }

    #[test]
    fn incremental_equals_from_scratch() {
        let (rs, amounts, durations, groups) = setup(800, 21);
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };
        let avl = FlatAvlIndex::build(&rs);
        let grid: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();

        let mut inc_snapshots = Vec::new();
        sweep_incremental(&avl, cols, 7, &grid, |_, t, st| {
            inc_snapshots.push((t, st.clone()));
        });
        let mut scratch_snapshots = Vec::new();
        sweep_from_scratch(&avl, cols, 7, &grid, |_, t, st| {
            scratch_snapshots.push((t, st.clone()));
        });
        assert_eq!(inc_snapshots.len(), scratch_snapshots.len());
        for ((t1, a), (t2, b)) in inc_snapshots.iter().zip(&scratch_snapshots) {
            assert_eq!(t1, t2);
            for g in 0..7 {
                assert!((a.active[g].count - b.active[g].count).abs() < 1e-9, "active count at {t1} g{g}");
                assert!((a.active[g].sum_amount - b.active[g].sum_amount).abs() < 1e-6);
                assert!((a.settled[g].count - b.settled[g].count).abs() < 1e-9);
                assert!((a.settled[g].sum_duration - b.settled[g].sum_duration).abs() < 1e-6);
                assert!((a.created[g].count - b.created[g].count).abs() < 1e-9);
                assert!((a.created[g].sum_amount - b.created[g].sum_amount).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn final_state_counts_everything_created() {
        let (rs, amounts, durations, groups) = setup(300, 3);
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };
        let avl = FlatAvlIndex::build(&rs);
        // All generated starts are < 100, ends < 130.
        let st = sweep_incremental(&avl, cols, 7, &[150.0], |_, _, _| {});
        let created: f64 = st.created.iter().map(|a| a.count).sum();
        let settled: f64 = st.settled.iter().map(|a| a.count).sum();
        let active: f64 = st.active.iter().map(|a| a.count).sum();
        assert_eq!(created, 300.0);
        assert_eq!(settled, 300.0);
        assert_eq!(active, 0.0);
    }

    #[test]
    fn created_equals_active_plus_settled_invariant() {
        let (rs, amounts, durations, groups) = setup(500, 9);
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };
        let avl = FlatAvlIndex::build(&rs);
        let grid: Vec<f64> = (0..=20).map(|i| i as f64 * 5.0).collect();
        sweep_incremental(&avl, cols, 7, &grid, |_, t, st| {
            for g in 0..7 {
                let lhs = st.created[g].count;
                let rhs = st.active[g].count + st.settled[g].count;
                assert!((lhs - rhs).abs() < 1e-9, "invariant broken at t={t} g={g}");
                let lhs_amt = st.created[g].sum_amount;
                let rhs_amt = st.active[g].sum_amount + st.settled[g].sum_amount;
                assert!((lhs_amt - rhs_amt).abs() < 1e-6);
            }
        });
    }

    #[test]
    fn row_created_and_settled_within_one_window() {
        // An RCC entirely inside one grid window must land directly in
        // settled without corrupting active.
        let rs = [rcc(0, 12.0, 14.0)];
        let amounts = [500.0];
        let durations = [2.0];
        let groups = [0usize];
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };
        let avl = FlatAvlIndex::build(&rs);
        let st = sweep_incremental(&avl, cols, 1, &[0.0, 10.0, 20.0], |_, _, _| {});
        assert_eq!(st.active[0].count, 0.0);
        assert_eq!(st.settled[0].count, 1.0);
        assert_eq!(st.created[0].count, 1.0);
    }
}
