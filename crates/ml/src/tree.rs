//! Regression trees with second-order (Newton) split finding — the base
//! learner of the gradient-boosted ensemble.
//!
//! Split quality follows the XGBoost objective: with gradient sum `G` and
//! hessian sum `H` per side and L2 leaf regularization `lambda`, a split's
//! gain is `0.5 * (G_L^2/(H_L+λ) + G_R^2/(H_R+λ) − G^2/(H+λ)) − γ` and the
//! optimal leaf weight is `−G/(H+λ)`.
//!
//! Split finding is exact greedy: it enumerates every boundary between
//! sorted feature values, and it sorts once per fit, not once per node
//! (XGBoost's column blocks). Every column is ranked once (`ColumnRanks`,
//! shared by all trees of an ensemble), each tree orders its root rows
//! once per offered feature by a stable counting sort of those ranks, and
//! a split stable-partitions the orders instead of re-sorting them, so
//! every node's segment *is* its stable sorted order.
//!
//! The sort order puts NaN after every number, whatever its sign bit, and
//! orders numbers by [`f64::total_cmp`]. A boundary is a candidate only
//! when its left value is a number and differs (`!=`) from the next one,
//! and its threshold always separates the two sides (see
//! `split_threshold`), so a split sends exactly the rows its gain was
//! computed on to each child.

use crate::matrix::DenseMatrix;

/// Structural hyperparameters of a single tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (0 = a single leaf).
    pub max_depth: usize,
    /// Minimum hessian sum per child (XGBoost's `min_child_weight`).
    pub min_child_weight: f64,
    /// L2 regularization on leaf weights (λ).
    pub lambda: f64,
    /// Minimum gain to accept a split (γ).
    pub gamma: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 4, min_child_weight: 1.0, lambda: 1.0, gamma: 0.0 }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    Split { feature: u32, threshold: f64, left: u32, right: u32 },
    Leaf { value: f64 },
}

/// A trained regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    /// Total split gain attributed to each feature (importance).
    gains: Vec<f64>,
}

struct Builder<'a> {
    x: &'a DenseMatrix,
    grad: &'a [f64],
    hess: &'a [f64],
    features: &'a [usize],
    params: TreeParams,
    sorted: Presorted,
    /// Scratch for the stable partition of a node's rows.
    row_buf: Vec<usize>,
    nodes: Vec<Node>,
    gains: Vec<f64>,
}

/// Dense per-column ranks of a training matrix under the split search's
/// sort order: values that compare equal share a rank, and ranks ascend
/// with the order, so a stable counting sort by rank is a stable sort by
/// value.
pub(crate) struct ColumnRanks {
    /// `ranks[f][row]`, each below the row count.
    ranks: Vec<Vec<u32>>,
}

impl ColumnRanks {
    /// Ranks every column of `x`: one sort per column.
    pub(crate) fn build(x: &DenseMatrix) -> Self {
        assert!(u32::try_from(x.n_rows()).is_ok(), "row ids must fit u32");
        ColumnRanks { ranks: (0..x.n_cols()).map(|f| rank_column(x, f)).collect() }
    }
}

/// Sort key of `v`: [`f64::total_cmp`]'s order for numbers, and one key
/// after every number for every NaN, whatever its sign bit. A split sends
/// NaN right, so NaN must sort after every boundary's left side.
fn sort_key(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Dense ranks of column `f` of `x`.
fn rank_column(x: &DenseMatrix, f: usize) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> =
        (0..x.n_rows()).map(|i| (sort_key(x.get(i, f)), i as u32)).collect();
    keyed.sort_unstable();
    let mut ranks = vec![0u32; keyed.len()];
    let mut rank = 0u32;
    for (j, &(key, row)) in keyed.iter().enumerate() {
        if j > 0 && key != keyed[j - 1].0 {
            rank += 1;
        }
        ranks[row as usize] = rank;
    }
    ranks
}

/// One tree's sorted orders. A *position* indexes the root's row list.
/// Segment `i` lists the root's positions in the stable sorted order of
/// feature `features[i]`, and a node owns `[lo, hi)` of every segment:
/// splits stable-partition the segments, so that range is always the
/// node's own stable sorted order.
struct Presorted {
    /// Root row count: the length of every segment.
    m: usize,
    /// `features.len()` segments of `m` positions.
    order: Vec<u32>,
    /// Feature values by position, one `m`-long column per segment.
    vals: Vec<f64>,
    /// Gradient and hessian by position.
    grad: Vec<f64>,
    hess: Vec<f64>,
    /// Per position, whether the split being applied sends it left.
    left: Vec<bool>,
    /// Scratch for the stable partition of a segment.
    buf: Vec<u32>,
}

impl Presorted {
    /// Orders the root `rows` once per offered feature by a stable counting
    /// sort of positions by rank: the stable sort of `rows` by value, ties
    /// in list order, for any `rows` (subsets, shuffles, duplicates).
    fn new(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        ranks: &ColumnRanks,
    ) -> Self {
        let m = rows.len();
        assert!(u32::try_from(m).is_ok(), "root positions must fit u32");
        let mut order = vec![0u32; features.len() * m];
        let mut vals = Vec::with_capacity(features.len() * m);
        let mut next: Vec<usize> = Vec::new();
        for (seg, &f) in order.chunks_exact_mut(m).zip(features) {
            let rank = &ranks.ranks[f];
            // next[k] = first slot of rank k: the count of smaller ranks.
            next.clear();
            next.resize(x.n_rows() + 1, 0);
            for &r in rows {
                next[rank[r] as usize + 1] += 1;
            }
            for k in 1..next.len() {
                next[k] += next[k - 1];
            }
            for (p, &r) in rows.iter().enumerate() {
                let slot = &mut next[rank[r] as usize];
                seg[*slot] = p as u32;
                *slot += 1;
            }
            vals.extend(rows.iter().map(|&r| x.get(r, f)));
        }
        Presorted {
            m,
            order,
            vals,
            grad: rows.iter().map(|&r| grad[r]).collect(),
            hess: rows.iter().map(|&r| hess[r]).collect(),
            left: vec![false; m],
            buf: Vec::with_capacity(m),
        }
    }

    /// Applies the split `feature[slot] <= threshold` to the node `[lo, hi)`
    /// by stable-partitioning every segment with the predicate that
    /// partitions the node's rows: each child's range is again its own
    /// stable sorted order.
    fn split(&mut self, lo: usize, hi: usize, slot: usize, threshold: f64, n_left: usize) {
        let base = slot * self.m;
        let vals = &self.vals[base..base + self.m];
        for &p in &self.order[base + lo..base + hi] {
            self.left[p as usize] = vals[p as usize] <= threshold;
        }
        for seg in self.order.chunks_exact_mut(self.m) {
            let k = partition(&mut seg[lo..hi], |&p| self.left[p as usize], &mut self.buf);
            debug_assert_eq!(k, n_left, "every segment must split like the rows");
        }
    }
}

impl RegressionTree {
    /// Fits a tree to the current gradients/hessians over the rows `rows`
    /// of `x`, considering only the columns in `features` (column
    /// subsampling is the caller's job). Ranks the columns of `x` itself;
    /// the ensemble trainers rank once and share the ranks across their
    /// trees.
    pub fn fit(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
    ) -> Self {
        RegressionTree::fit_with(x, grad, hess, rows, features, params, &ColumnRanks::build(x))
    }

    /// Fits with the column `ranks` an ensemble built once for all its
    /// trees.
    pub(crate) fn fit_with(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
        ranks: &ColumnRanks,
    ) -> Self {
        assert_eq!(grad.len(), x.n_rows());
        assert_eq!(hess.len(), x.n_rows());
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        let mut b = Builder {
            x,
            grad,
            hess,
            features,
            params,
            sorted: Presorted::new(x, grad, hess, rows, features, ranks),
            row_buf: Vec::with_capacity(rows.len()),
            nodes: Vec::new(),
            gains: vec![0.0; x.n_cols()],
        };
        let mut rows = rows.to_vec();
        b.build(&mut rows, 0, 0);
        RegressionTree { nodes: b.nodes, gains: b.gains }
    }

    /// Predicted value for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut n = 0u32;
        loop {
            match self.nodes[n as usize] {
                Node::Leaf { value } => return value,
                Node::Split { feature, threshold, left, right } => {
                    n = if row[feature as usize] <= threshold { left } else { right };
                }
            }
        }
    }

    /// Per-feature accumulated split gain.
    pub fn feature_gains(&self) -> &[f64] {
        &self.gains
    }

    /// Node count (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node pool, for compilation into the branchless kernel
    /// (`flat::FlatForest` re-encodes these into its SoA layout).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Depth of the tree (diagnostics; 0 = single leaf).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], n: u32) -> usize {
            match nodes[n as usize] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, left).max(rec(nodes, right)),
            }
        }
        rec(&self.nodes, 0)
    }
}

/// The threshold of the boundary between `v` and the next larger value
/// `v_next` (`v < v_next`, `v` a number): the midpoint, which generalizes
/// better than the left value, when it lies in `[v, v_next)`, and `v`
/// itself when the midpoint does not — it is `+inf` past `f64::MAX` or
/// when `v_next = +inf`, NaN for `(-inf, +inf)` or a NaN `v_next`, and
/// rounds up to `v_next` between adjacent floats. Either way
/// `x <= threshold` holds for exactly the values at or below `v`.
fn split_threshold(v: f64, v_next: f64) -> f64 {
    let mid = 0.5 * (v + v_next);
    if v <= mid && mid < v_next {
        mid
    } else {
        v
    }
}

struct BestSplit {
    /// Index into the tree's offered `features`.
    slot: usize,
    threshold: f64,
    gain: f64,
}

impl Builder<'_> {
    /// Builds the subtree over `rows`, which sit at `[lo, lo + rows.len())`
    /// of every presorted segment, returning its node index.
    fn build(&mut self, rows: &mut [usize], lo: usize, depth: usize) -> u32 {
        let (g_sum, h_sum) = self.sums(rows);
        let leaf_value = -g_sum / (h_sum + self.params.lambda);

        if depth >= self.params.max_depth || rows.len() < 2 {
            return self.push(Node::Leaf { value: leaf_value });
        }
        let Some(best) = self.best_split(lo, lo + rows.len(), g_sum, h_sum) else {
            return self.push(Node::Leaf { value: leaf_value });
        };

        let feature = self.features[best.slot];
        self.gains[feature] += best.gain;
        // Partition rows in place around the threshold.
        let x = self.x;
        let mid = partition(rows, |&r| x.get(r, feature) <= best.threshold, &mut self.row_buf);
        debug_assert!(mid > 0 && mid < rows.len(), "split must separate rows");
        // Children at the depth cap are leaves and scan nothing.
        if depth + 1 < self.params.max_depth {
            self.sorted.split(lo, lo + rows.len(), best.slot, best.threshold, mid);
        }
        let slot = self.push(Node::Split {
            feature: feature as u32,
            threshold: best.threshold,
            left: 0,
            right: 0,
        });
        let (l_rows, r_rows) = rows.split_at_mut(mid);
        let left = self.build(l_rows, lo, depth + 1);
        let right = self.build(r_rows, lo + mid, depth + 1);
        if let Node::Split { left: l, right: r, .. } = &mut self.nodes[slot as usize] {
            *l = left;
            *r = right;
        }
        slot
    }

    fn push(&mut self, n: Node) -> u32 {
        self.nodes.push(n);
        (self.nodes.len() - 1) as u32
    }

    fn sums(&self, rows: &[usize]) -> (f64, f64) {
        let mut g = 0.0;
        let mut h = 0.0;
        for &r in rows {
            g += self.grad[r];
            h += self.hess[r];
        }
        (g, h)
    }

    /// The best admissible split of the node `[lo, hi)`. Features reduce in
    /// order with a strict-improvement rule, so the earliest feature wins
    /// ties.
    fn best_split(&self, lo: usize, hi: usize, g_sum: f64, h_sum: f64) -> Option<BestSplit> {
        let mut best: Option<BestSplit> = None;
        for slot in 0..self.features.len() {
            let Some(cand) = self.scan(slot, lo, hi, g_sum, h_sum) else { continue };
            if best.as_ref().is_none_or(|b| cand.gain > b.gain) {
                best = Some(cand);
            }
        }
        best
    }

    /// Exact greedy scan of feature `features[slot]` over the node
    /// `[lo, hi)`, walking its presorted segment, returning the feature's
    /// best admissible split.
    fn scan(&self, slot: usize, lo: usize, hi: usize, g_sum: f64, h_sum: f64) -> Option<BestSplit> {
        let sorted = &self.sorted;
        let lambda = self.params.lambda;
        let parent_score = g_sum * g_sum / (h_sum + lambda);
        let mut best: Option<BestSplit> = None;
        let base = slot * sorted.m;
        let order = &sorted.order[base + lo..base + hi];
        let vals = &sorted.vals[base..base + sorted.m];

        let mut gl = 0.0;
        let mut hl = 0.0;
        for w in 0..order.len() - 1 {
            let p = order[w] as usize;
            gl += sorted.grad[p];
            hl += sorted.hess[p];
            let v = vals[p];
            if v.is_nan() {
                break; // NaN sorts last: no boundary from here on has a number on its left
            }
            let v_next = vals[order[w + 1] as usize];
            if v == v_next {
                continue; // cannot separate equal values
            }
            let gr = g_sum - gl;
            let hr = h_sum - hl;
            // Child support: hessian mass (XGBoost semantics) *or*
            // sample count (LightGBM's min_child_samples). Robust
            // losses have near-zero hessians on large residuals; a
            // hessian-only constraint would forbid every split that
            // isolates the outlier group, structurally preventing
            // pseudo-Huber/Huber from ever fitting a heavy tail.
            let nl = (w + 1) as f64;
            let nr = (order.len() - w - 1) as f64;
            let mcw = self.params.min_child_weight;
            if (hl < mcw && nl < mcw) || (hr < mcw && nr < mcw) {
                continue;
            }
            let gain = 0.5
                * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                - self.params.gamma;
            if gain > 0.0 && best.as_ref().is_none_or(|b| gain > b.gain) {
                best = Some(BestSplit { slot, threshold: split_threshold(v, v_next), gain });
            }
        }
        best
    }
}

/// Stable in-place partition; returns the number of elements satisfying
/// `pred` (moved to the front). `buf` is scratch for the rest.
fn partition<T: Copy, F: Fn(&T) -> bool>(xs: &mut [T], pred: F, buf: &mut Vec<T>) -> usize {
    buf.clear();
    let mut k = 0;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs[k] = xs[i];
            k += 1;
        } else {
            buf.push(xs[i]);
        }
    }
    xs[k..].copy_from_slice(buf);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fits a tree to plain squared loss over targets `y` (grad = pred−y
    /// with pred = 0, hess = 1), the simplest regression reduction.
    fn fit_plain(x: &DenseMatrix, y: &[f64], params: TreeParams) -> RegressionTree {
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; y.len()];
        let rows: Vec<usize> = (0..y.len()).collect();
        let feats: Vec<usize> = (0..x.n_cols()).collect();
        RegressionTree::fit(x, &grad, &hess, &rows, &feats, params)
    }

    #[test]
    fn partition_stable() {
        let mut v = [5, 2, 8, 1, 9, 4];
        let k = partition(&mut v, |&x| x < 5, &mut Vec::new());
        assert_eq!(k, 3);
        assert_eq!(&v[..3], &[2, 1, 4]);
        assert_eq!(&v[3..], &[5, 8, 9]);
    }

    #[test]
    fn single_leaf_predicts_regularized_mean() {
        let x = DenseMatrix::from_rows(vec![0.0, 1.0, 2.0, 3.0], 4, 1);
        let y = [10.0, 10.0, 10.0, 10.0];
        let t = fit_plain(&x, &y, TreeParams { max_depth: 0, lambda: 0.0, ..Default::default() });
        assert_eq!(t.n_nodes(), 1);
        assert!((t.predict_row(&[0.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn lambda_shrinks_leaves() {
        let x = DenseMatrix::from_rows(vec![0.0, 1.0], 2, 1);
        let y = [10.0, 10.0];
        let t = fit_plain(&x, &y, TreeParams { max_depth: 0, lambda: 2.0, ..Default::default() });
        // -G/(H+λ) = 20/(2+2) = 5.
        assert!((t.predict_row(&[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_step_function() {
        let x = DenseMatrix::from_rows((0..20).map(|i| i as f64).collect(), 20, 1);
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { -5.0 } else { 5.0 }).collect();
        let t = fit_plain(&x, &y, TreeParams { max_depth: 2, lambda: 0.0, min_child_weight: 1.0, gamma: 0.0 });
        assert!(t.depth() >= 1);
        assert!((t.predict_row(&[3.0]) + 5.0).abs() < 0.5);
        assert!((t.predict_row(&[15.0]) - 5.0).abs() < 0.5);
        // All gain sits on the single feature.
        assert!(t.feature_gains()[0] > 0.0);
    }

    #[test]
    fn splits_on_informative_feature_only() {
        // Feature 0 is noise, feature 1 defines the target.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i * 7 % 11) as f64, if i % 2 == 0 { 0.0 } else { 1.0 }])
            .collect();
        let x = DenseMatrix::from_vec_of_rows(&rows);
        let y: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { -3.0 } else { 3.0 }).collect();
        let t = fit_plain(&x, &y, TreeParams { max_depth: 1, ..Default::default() });
        assert_eq!(t.depth(), 1);
        assert!(t.feature_gains()[1] > 0.0);
        assert_eq!(t.feature_gains()[0], 0.0);
        assert!((t.predict_row(&[5.0, 0.0]) + 3.0).abs() < 0.5);
        assert!((t.predict_row(&[5.0, 1.0]) - 3.0).abs() < 0.5);
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let x = DenseMatrix::from_rows((0..10).map(|i| i as f64).collect(), 10, 1);
        // Tiny signal: gain exists but is small.
        let y: Vec<f64> = (0..10).map(|i| if i < 5 { 0.0 } else { 0.1 }).collect();
        let strict = fit_plain(&x, &y, TreeParams { gamma: 10.0, ..Default::default() });
        assert_eq!(strict.n_nodes(), 1, "gamma must prune the weak split");
        let loose = fit_plain(&x, &y, TreeParams { gamma: 0.0, lambda: 0.0, ..Default::default() });
        assert!(loose.n_nodes() > 1);
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let x = DenseMatrix::from_rows((0..6).map(|i| i as f64).collect(), 6, 1);
        let y = [0.0, 0.0, 0.0, 0.0, 0.0, 100.0];
        let t = fit_plain(
            &x,
            &y,
            TreeParams { min_child_weight: 2.0, max_depth: 3, lambda: 0.0, gamma: 0.0 },
        );
        // The lone outlier cannot be isolated: every leaf holds >= 2 rows.
        // Its best cut is 4-2 or similar, so the prediction at the outlier
        // is pulled toward its neighbour.
        assert!(t.predict_row(&[5.0]) < 100.0);
    }

    #[test]
    fn every_split_separates_the_rows_its_gain_was_computed_on() {
        // 1 + EPSILON has an odd last mantissa bit, so its midpoint with
        // the next float rounds up onto that float.
        let odd = 1.0 + f64::EPSILON;
        let cases: [(&str, [f64; 3]); 6] = [
            ("v_next = +inf", [0.0, 1.0, f64::INFINITY]),
            ("v + v_next overflows", [0.0, 1e308, 1.7e308]),
            ("midpoint rounds up to v_next", [0.0, odd, odd + f64::EPSILON]),
            ("v_next = NaN", [0.0, 1.0, f64::NAN]),
            ("(-inf, +inf)", [f64::NEG_INFINITY, f64::NEG_INFINITY, f64::INFINITY]),
            ("sign-bit-set NaN", [0.0, 1.0, -f64::NAN]),
        ];
        for (name, col) in cases {
            let x = DenseMatrix::from_rows(col.to_vec(), 3, 1);
            let params = TreeParams { max_depth: 1, min_child_weight: 1.0, lambda: 0.0, gamma: 0.0 };
            let t = fit_plain(&x, &[0.0, 0.0, 10.0], params);
            assert_eq!(t.n_nodes(), 3, "{name}: expected one split");
            // Both leaves hold training rows: the first two rows predict
            // their own mean, the third its own target.
            let preds: Vec<f64> = col.iter().map(|&v| t.predict_row(&[v])).collect();
            assert_eq!(preds, [0.0, 0.0, 10.0], "{name}");
        }
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = DenseMatrix::from_rows(vec![3.0; 8], 8, 1);
        let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let t = fit_plain(&x, &y, TreeParams::default());
        assert_eq!(t.n_nodes(), 1, "no separable values => leaf");
    }

    #[test]
    fn respects_feature_subset() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (29 - i) as f64]).collect();
        let x = DenseMatrix::from_vec_of_rows(&rows);
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; 30];
        let all: Vec<usize> = (0..30).collect();
        let t = RegressionTree::fit(&x, &grad, &hess, &all, &[1], TreeParams::default());
        assert_eq!(t.feature_gains()[0], 0.0, "feature 0 was not offered");
        assert!(t.feature_gains()[1] > 0.0);
    }
}

// --- persistence -----------------------------------------------------------

#[allow(clippy::items_after_test_module)] // persistence lives with its type
impl RegressionTree {
    /// Serializes the tree (see `crate::persist` for the format contract).
    pub fn write_text(&self, out: &mut String) {
        use crate::persist::{fmt_f64, put_line};
        put_line(out, "tree", &[self.nodes.len().to_string(), self.gains.len().to_string()]);
        for n in &self.nodes {
            match *n {
                Node::Leaf { value } => put_line(out, "L", &[fmt_f64(value)]),
                Node::Split { feature, threshold, left, right } => put_line(
                    out,
                    "S",
                    &[
                        feature.to_string(),
                        fmt_f64(threshold),
                        left.to_string(),
                        right.to_string(),
                    ],
                ),
            }
        }
        put_line(out, "gains", &self.gains.iter().map(|g| fmt_f64(*g)).collect::<Vec<_>>());
    }

    /// Parses a tree previously written by [`RegressionTree::write_text`].
    pub fn read_text(r: &mut crate::persist::Reader<'_>) -> Result<Self, crate::persist::PersistError> {
        let head = r.tagged("tree")?;
        let head = r.exactly(&head, 2)?;
        let n_nodes: usize = r.parse(head[0], "node count")?;
        let n_gains: usize = r.parse(head[1], "gain count")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let l = r.line()?;
            let toks: Vec<&str> = l.split_whitespace().collect();
            match toks.first() {
                Some(&"L") => {
                    let t = r.exactly(&toks[1..], 1)?;
                    nodes.push(Node::Leaf { value: r.parse(t[0], "leaf value")? });
                }
                Some(&"S") => {
                    let t = r.exactly(&toks[1..], 4)?;
                    let feature: u32 = r.parse(t[0], "feature")?;
                    let threshold: f64 = r.parse(t[1], "threshold")?;
                    let left: u32 = r.parse(t[2], "left")?;
                    let right: u32 = r.parse(t[3], "right")?;
                    if left as usize >= n_nodes || right as usize >= n_nodes {
                        return Err(r.err("child index out of range"));
                    }
                    // Predicting indexes the row by the feature id, so it
                    // must lie inside the width the tree records.
                    if feature as usize >= n_gains {
                        return Err(r.err(format!(
                            "split feature {feature} out of range for {n_gains} features"
                        )));
                    }
                    nodes.push(Node::Split { feature, threshold, left, right });
                }
                _ => return Err(r.err("expected node line (L or S)")),
            }
        }
        if nodes.is_empty() {
            return Err(r.err("tree must have at least one node"));
        }
        let toks = r.tagged("gains")?;
        let toks = r.exactly(&toks, n_gains)?;
        let gains: Vec<f64> = r.parse_all(toks, "gain")?;
        Ok(RegressionTree { nodes, gains })
    }
}
