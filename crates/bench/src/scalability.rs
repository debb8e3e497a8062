//! Scalability experiments of Section 5.1: index creation cost (Figure 5a,
//! Table 6), query processing cost (Figure 5b), and total cost (Figure 5c)
//! across RCC scaling factors.
//!
//! The workload per scale is the pipeline's own access pattern: advance the
//! logical timeline 0%..100% in 10% windows maintaining per-(RCC type ×
//! SWLIN first digit) aggregates of active / settled / created RCCs — the
//! Status Queries Algorithm StatusQ answers. The naive and interval-tree
//! arms recompute each grid point from scratch; the AVL arm runs the
//! incremental `StatStructure` computation of Section 4.3.

use crate::util::{mb, mean_time_ms, scaled_dataset};
use domd_data::Dataset;
use domd_index::{
    project_dataset, sweep_from_scratch, sweep_incremental, FlatAvlIndex, HeapSize,
    IntervalTreeIndex, LogicalTimeIndex, NaiveJoinIndex, RowColumns, SortedArrayIndex,
};

/// The scaling factors of Table 6 / Figure 5.
pub const SCALES: [u32; 5] = [1, 5, 10, 15, 20];

/// Number of timed repetitions (the paper averages 3 runs).
pub const RUNS: usize = 3;

/// Arm name of the materialized-join baseline.
pub const NAIVE_ARM: &str = "naive-join";

/// Arm name of the dual AVL with incremental computation.
pub const AVL_ARM: &str = "avl+incremental";

/// One index arm: `(name, creation ms, memory MB, query ms)`.
pub type Arm = (String, f64, f64, f64);

/// One measurement row.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Scaling factor.
    pub scale: u32,
    /// RCC count at this scale.
    pub n_rccs: usize,
    /// Per-index `(name, creation ms, memory MB, query ms)`.
    pub arms: Vec<Arm>,
}

impl ScaleRow {
    /// The arm called `name`, if measured.
    pub fn arm(&self, name: &str) -> Option<&Arm> {
        self.arms.iter().find(|a| a.0 == name)
    }
}

/// Workload columns shared by all arms at one scale.
struct Workload {
    projected: Vec<domd_index::LogicalRcc>,
    amounts: Vec<f64>,
    durations: Vec<f64>,
    groups: Vec<usize>,
    grid: Vec<f64>,
}

impl Workload {
    fn build(ds: &Dataset) -> Self {
        let projected = project_dataset(ds);
        let rccs = ds.rccs();
        Workload {
            projected,
            amounts: rccs.iter().map(|r| r.amount).collect(),
            durations: rccs.iter().map(|r| f64::from(r.duration_days())).collect(),
            groups: rccs
                .iter()
                .map(|r| r.rcc_type.index() * 10 + r.swlin.digit(1) as usize)
                .collect(),
            grid: (0..=10).map(|i| f64::from(i) * 10.0).collect(),
        }
    }

    fn cols(&self) -> RowColumns<'_> {
        RowColumns { amounts: &self.amounts, durations: &self.durations, groups: &self.groups }
    }
}

/// Times one arm: the mean of [`RUNS`] builds, the kept index's heap, and
/// the mean of [`RUNS`] timeline sweeps over it.
fn time_arm<I: HeapSize>(name: &str, build: impl Fn() -> I, sweep: impl Fn(&I)) -> Arm {
    let index = build();
    let build_ms = mean_time_ms(RUNS, &build);
    let query_ms = mean_time_ms(RUNS, || sweep(&index));
    (name.to_string(), build_ms, mb(index.heap_bytes()), query_ms)
}

/// Measures every index design at every scale in `scales`.
pub fn measure(scales: &[u32]) -> Vec<ScaleRow> {
    scales
        .iter()
        .map(|&scale| {
            let ds = scaled_dataset(scale);
            let w = Workload::build(&ds);
            let from_scratch = |index: &dyn LogicalTimeIndex| {
                sweep_from_scratch(index, w.cols(), 30, &w.grid, |_, _, _| {});
            };
            let arms = vec![
                // Naive materialized join (Pandas-merge baseline): creation
                // is the join itself; queries rescan per grid point.
                time_arm(
                    NAIVE_ARM,
                    || NaiveJoinIndex::build_from_dataset(&ds, &w.projected),
                    |i| from_scratch(i),
                ),
                // Centered interval tree: from-scratch queries.
                time_arm("interval-tree", || IntervalTreeIndex::build(&w.projected), |i| {
                    from_scratch(i)
                }),
                // Sorted event arrays (extension arm: the static-workload
                // optimum the trees trade against dynamic maintenance).
                time_arm("sorted-array", || SortedArrayIndex::build(&w.projected), |i| {
                    from_scratch(i)
                }),
                // Dual AVL + incremental computation (the paper's winner).
                time_arm(AVL_ARM, || FlatAvlIndex::build(&w.projected), |i| {
                    sweep_incremental(i, w.cols(), 30, &w.grid, |_, _, _| {});
                }),
            ];
            ScaleRow { scale, n_rccs: w.projected.len(), arms }
        })
        .collect()
}

fn render(rows: &[ScaleRow], col: impl Fn(&Arm) -> f64, unit: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>6} | {:>9}", "scale", "rccs"));
    for (name, ..) in &rows[0].arms {
        out.push_str(&format!(" | {name:>15}"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(19 + 18 * rows[0].arms.len()));
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:>5}x | {:>9}", r.scale, r.n_rccs));
        for arm in &r.arms {
            out.push_str(&format!(" | {:>13.1}{unit}", col(arm)));
        }
        out.push('\n');
    }
    out
}

/// Table 6: index construction memory.
pub fn table6(rows: &[ScaleRow]) -> String {
    format!(
        "Table 6 — index construction cost, space (paper @20x: naive 1090 MB, AVL 556, interval 579)\n{}",
        render(rows, |a| a.2, "MB")
    )
}

/// Figure 5a: index creation time.
pub fn fig5a(rows: &[ScaleRow]) -> String {
    format!("Figure 5a — index creation time\n{}", render(rows, |a| a.1, "ms"))
}

/// Figure 5b: query processing time over the 11-step timeline workload.
pub fn fig5b(rows: &[ScaleRow]) -> String {
    let mut out = format!("Figure 5b — query processing time\n{}", render(rows, |a| a.3, "ms"));
    if let Some((r, naive, avl)) =
        rows.last().and_then(|r| Some((r, r.arm(NAIVE_ARM)?, r.arm(AVL_ARM)?)))
    {
        out.push_str(&format!(
            "speedup of {AVL_ARM} over naive rescan at {}x: {:.1}x (paper reports ~5x)\n",
            r.scale,
            naive.3 / avl.3
        ));
    }
    out
}

/// Figure 5c: creation + query total time.
pub fn fig5c(rows: &[ScaleRow]) -> String {
    format!("Figure 5c — index creation + query processing total\n{}", render(rows, |a| a.1 + a.3, "ms"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_have_expected_shape() {
        let rows = measure(&[1]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.arms.len(), 4);
        let get = |name: &str| r.arm(name).unwrap_or_else(|| panic!("missing arm {name}"));
        // Memory ordering of Table 6: both trees well under the join.
        let naive_mb = get(NAIVE_ARM).2;
        let itree_mb = get("interval-tree").2;
        let avl_mb = get(AVL_ARM).2;
        assert!(avl_mb < naive_mb * 0.7, "AVL {avl_mb} vs naive {naive_mb}");
        assert!(itree_mb < naive_mb * 0.7, "interval {itree_mb} vs naive {naive_mb}");
        // The sorted array is the static-layout floor under the AVL.
        assert!(get("sorted-array").2 < avl_mb, "sorted array must beat the dual AVL");
        // Incremental queries beat per-step rescans.
        assert!(get(AVL_ARM).3 < get(NAIVE_ARM).3, "incremental must beat naive rescan");
    }

    #[test]
    fn renderers_include_labels() {
        let rows = measure(&[1]);
        assert!(table6(&rows).contains("Table 6"));
        assert!(fig5a(&rows).contains("creation"));
        assert!(fig5b(&rows).contains("speedup"));
        assert!(fig5c(&rows).contains("total"));
    }
}
