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
//! (XGBoost's column blocks). One sort per column (`ColumnRanks`, shared
//! by all trees of an ensemble) yields its ranks, its row order and a
//! column-major copy of its values. A tree whose root is every row in
//! order copies those orders; any other root list (a shuffled subsample,
//! a bootstrap) orders its rows once per offered feature by a stable
//! counting sort of the ranks. A split stable-partitions the orders,
//! branch-free, instead of re-sorting them, so every node's segment *is*
//! its stable sorted order.
//!
//! A node's search runs in three passes over its segments: one walk per
//! feature accumulates the left sums in order and keeps the admissible
//! boundaries, a branch-free pass computes their gains (the divisions,
//! which dominate, run independent of each other), and a last pass keeps
//! the first strict maximum, so the earliest feature and then the earliest
//! boundary win ties.
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
    features: &'a [usize],
    params: TreeParams,
    sorted: Presorted,
    /// Scratch for the admissible boundaries of the node being searched.
    cands: Candidates,
    nodes: Vec<Node>,
    gains: Vec<f64>,
}

/// The fit-wide column blocks of a training matrix, one per column.
pub(crate) struct ColumnRanks {
    cols: Vec<Column>,
}

/// One column, from one sort: dense ranks under the split search's sort
/// order (values that compare equal share a rank, and ranks ascend with
/// the order, so a stable counting sort by rank is a stable sort by
/// value), every row in that order, and the values.
struct Column {
    /// Rank by row, each below the row count.
    ranks: Vec<u32>,
    /// Every row by ascending rank, ties by row id: the stable sort of the
    /// row list `0..n` by this column.
    order: Vec<u32>,
    /// Value by row.
    vals: Vec<f64>,
}

impl ColumnRanks {
    /// Sorts every column of `x` once.
    pub(crate) fn build(x: &DenseMatrix) -> Self {
        assert!(u32::try_from(x.n_rows()).is_ok(), "row ids must fit u32");
        ColumnRanks { cols: (0..x.n_cols()).map(|f| rank_column(x.col(f))).collect() }
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

/// The block of the column `vals`, from one sort of `(key, row)` pairs.
fn rank_column(vals: Vec<f64>) -> Column {
    let mut keyed: Vec<(u64, u32)> =
        vals.iter().enumerate().map(|(i, &v)| (sort_key(v), i as u32)).collect();
    keyed.sort_unstable();
    let mut ranks = vec![0u32; keyed.len()];
    let mut rank = 0u32;
    for (j, &(key, row)) in keyed.iter().enumerate() {
        if j > 0 && key != keyed[j - 1].0 {
            rank += 1;
        }
        ranks[row as usize] = rank;
    }
    Column { ranks, order: keyed.into_iter().map(|(_, row)| row).collect(), vals }
}

/// One tree's sorted orders. A *position* indexes the root's row list.
/// Segment `i` lists the root's positions in the stable sorted order of
/// feature `features[i]`, and a node owns `[lo, hi)` of every segment and
/// of `pos`: splits stable-partition them, so that range of a segment is
/// always the node's own stable sorted order, and that range of `pos`
/// its positions in list order.
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
    /// Every position, in list order within each node.
    pos: Vec<u32>,
    /// Per position, whether the split being applied sends it left.
    left: Vec<bool>,
    /// Scratch for the stable partition of a segment: `m` long.
    buf: Vec<u32>,
}

impl Presorted {
    /// Orders the root `rows` once per offered feature: the stable sort of
    /// `rows` by value, ties in list order, for any `rows` (subsets,
    /// shuffles, duplicates). When `rows` is every row in order, a
    /// position is a row and the fit-wide orders are that sort, so they
    /// are copied; any other list takes a stable counting sort of its
    /// positions by rank.
    fn new(
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        cols: &ColumnRanks,
    ) -> Self {
        let m = rows.len();
        assert!(u32::try_from(m).is_ok(), "root positions must fit u32");
        let n = grad.len();
        let mut order = Vec::with_capacity(features.len() * m);
        let mut vals = Vec::with_capacity(features.len() * m);
        if m == n && rows.iter().enumerate().all(|(p, &r)| p == r) {
            for &f in features {
                order.extend_from_slice(&cols.cols[f].order);
                vals.extend_from_slice(&cols.cols[f].vals);
            }
        } else {
            order.resize(features.len() * m, 0);
            let mut next: Vec<usize> = Vec::new();
            for (seg, &f) in order.chunks_exact_mut(m).zip(features) {
                let Column { ranks: rank, vals: col, .. } = &cols.cols[f];
                // next[k] = first slot of rank k: the count of smaller ranks.
                next.clear();
                next.resize(n + 1, 0);
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
                vals.extend(rows.iter().map(|&r| col[r]));
            }
        }
        Presorted {
            m,
            order,
            vals,
            grad: rows.iter().map(|&r| grad[r]).collect(),
            hess: rows.iter().map(|&r| hess[r]).collect(),
            pos: (0..m as u32).collect(),
            left: vec![false; m],
            buf: vec![0; m],
        }
    }

    /// Gradient and hessian sums of the node `[lo, hi)`, in list order.
    fn sums(&self, lo: usize, hi: usize) -> (f64, f64) {
        let mut g = 0.0;
        let mut h = 0.0;
        for &p in &self.pos[lo..hi] {
            g += self.grad[p as usize];
            h += self.hess[p as usize];
        }
        (g, h)
    }

    /// Applies the split `feature[slot] <= threshold` to the node `[lo, hi)`
    /// and returns its left child's size. It stable-partitions the node's
    /// positions and, when `segments` is set, every segment with the same
    /// predicate: each child's range is again its own stable sorted order.
    /// Children at the depth cap scan nothing, so their parent passes
    /// `segments = false`.
    fn split(
        &mut self,
        lo: usize,
        hi: usize,
        slot: usize,
        threshold: f64,
        segments: bool,
    ) -> usize {
        let base = slot * self.m;
        let vals = &self.vals[base..base + self.m];
        for &p in &self.pos[lo..hi] {
            self.left[p as usize] = vals[p as usize] <= threshold;
        }
        let n_left = partition(&mut self.pos[lo..hi], &self.left, &mut self.buf);
        if segments {
            for seg in self.order.chunks_exact_mut(self.m) {
                let k = partition(&mut seg[lo..hi], &self.left, &mut self.buf);
                debug_assert_eq!(k, n_left, "every segment must split like the rows");
            }
        }
        n_left
    }

    /// Pass 1 of a scan: walks segment `slot`'s node range `[lo, hi)` once,
    /// accumulating the left sums in order, and keeps each admissible
    /// boundary in `c`: a number on its left (the walk stops at the first
    /// NaN, which sorts last), a different value (`!=`) on its right, and
    /// enough support on both sides. Returns how many it kept. Up to the
    /// NaN stop it is branch-free: every boundary is written at the
    /// cursor, and only an admissible one advances it.
    fn admissible(
        &self,
        slot: usize,
        lo: usize,
        hi: usize,
        h_sum: f64,
        mcw: f64,
        c: &mut Candidates,
    ) -> usize {
        let base = slot * self.m;
        let order = &self.order[base + lo..base + hi];
        let vals = &self.vals[base..base + self.m];
        let mut k = 0;
        let mut gl = 0.0;
        let mut hl = 0.0;
        // Row counts on each side, counted in floats (exact below 2^53):
        // a `usize` to `f64` conversion per boundary costs more.
        let mut nl = 0.0;
        let mut nr = order.len() as f64;
        let mut v = vals[order[0] as usize];
        for (w, pair) in order.windows(2).enumerate() {
            let p = pair[0] as usize;
            gl += self.grad[p];
            hl += self.hess[p];
            if v.is_nan() {
                break;
            }
            let v_next = vals[pair[1] as usize];
            nl += 1.0;
            nr -= 1.0;
            // Child support: hessian mass (XGBoost semantics) *or*
            // sample count (LightGBM's min_child_samples). Robust
            // losses have near-zero hessians on large residuals; a
            // hessian-only constraint would forbid every split that
            // isolates the outlier group, structurally preventing
            // pseudo-Huber/Huber from ever fitting a heavy tail.
            let hr = h_sum - hl;
            let thin = ((hl < mcw) & (nl < mcw)) | ((hr < mcw) & (nr < mcw));
            c.gl[k] = gl;
            c.hl[k] = hl;
            c.at[k] = w as u32;
            k += ((v != v_next) & !thin) as usize;
            v = v_next;
        }
        k
    }
}

/// One feature's admissible boundaries at a node: the left sums at each,
/// then its gain. Every buffer is the root's row count long.
struct Candidates {
    gl: Vec<f64>,
    hl: Vec<f64>,
    gain: Vec<f64>,
    /// Offset of the boundary's left side in its node range.
    at: Vec<u32>,
}

impl Candidates {
    fn new(m: usize) -> Self {
        Candidates { gl: vec![0.0; m], hl: vec![0.0; m], gain: vec![0.0; m], at: vec![0; m] }
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
        let sorted = Presorted::new(grad, hess, rows, features, ranks);
        let mut b = Builder {
            features,
            params,
            cands: Candidates::new(sorted.m),
            sorted,
            nodes: Vec::new(),
            gains: vec![0.0; x.n_cols()],
        };
        b.build(0, rows.len(), 0);
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
    /// Builds the subtree over the node `[lo, hi)` of the presorted
    /// positions, returning its node index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let (g_sum, h_sum) = self.sorted.sums(lo, hi);
        let leaf_value = -g_sum / (h_sum + self.params.lambda);

        if depth >= self.params.max_depth || hi - lo < 2 {
            return self.push(Node::Leaf { value: leaf_value });
        }
        let Some(best) = self.best_split(lo, hi, g_sum, h_sum) else {
            return self.push(Node::Leaf { value: leaf_value });
        };

        let feature = self.features[best.slot];
        self.gains[feature] += best.gain;
        let segments = depth + 1 < self.params.max_depth;
        let mid = lo + self.sorted.split(lo, hi, best.slot, best.threshold, segments);
        debug_assert!(mid > lo && mid < hi, "split must separate rows");
        let slot = self.push(Node::Split {
            feature: feature as u32,
            threshold: best.threshold,
            left: 0,
            right: 0,
        });
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
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

    /// The best admissible split of the node `[lo, hi)`: the first strict
    /// maximum of the gain over every offered feature's boundaries, in
    /// feature order and then boundary order, so the earliest feature and
    /// the earliest boundary win ties. Three passes per feature:
    /// `Presorted::admissible` keeps its admissible boundaries, a
    /// branch-free pass scores them, and a last pass keeps a gain only if
    /// it beats every earlier one.
    fn best_split(&mut self, lo: usize, hi: usize, g_sum: f64, h_sum: f64) -> Option<BestSplit> {
        let TreeParams { min_child_weight, lambda, gamma, .. } = self.params;
        let parent_score = g_sum * g_sum / (h_sum + lambda);
        let c = &mut self.cands;
        let mut best: Option<BestSplit> = None;
        // Only a positive gain splits.
        let mut best_gain = 0.0;
        for slot in 0..self.features.len() {
            let n = self.sorted.admissible(slot, lo, hi, h_sum, min_child_weight, c);
            let (gl, hl, gain) = (&c.gl[..n], &c.hl[..n], &mut c.gain[..n]);
            for (gain, (&gl, &hl)) in gain.iter_mut().zip(gl.iter().zip(hl)) {
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                *gain = 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                    - gamma;
            }
            let mut win = None;
            for (i, &gain) in gain.iter().enumerate() {
                if gain > best_gain {
                    best_gain = gain;
                    win = Some(i);
                }
            }
            if let Some(i) = win {
                let base = slot * self.sorted.m + lo + c.at[i] as usize;
                let order = &self.sorted.order[base..base + 2];
                let vals = &self.sorted.vals[slot * self.sorted.m..];
                let threshold = split_threshold(vals[order[0] as usize], vals[order[1] as usize]);
                best = Some(BestSplit { slot, threshold, gain: best_gain });
            }
        }
        best
    }
}

/// Stable in-place partition of `xs` by each element's `left` flag;
/// returns the number flagged, which move to the front. Branch-free: every
/// element is written both at the front cursor and into the scratch `buf`
/// (at least `xs.len()` long), and its flag picks which cursor advances.
fn partition(xs: &mut [u32], left: &[bool], buf: &mut [u32]) -> usize {
    let mut k = 0;
    let mut j = 0;
    for i in 0..xs.len() {
        let x = xs[i];
        let l = usize::from(left[x as usize]);
        xs[k] = x;
        buf[j] = x;
        k += l;
        j += 1 - l;
    }
    xs[k..].copy_from_slice(&buf[..j]);
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
        let left: Vec<bool> = (0..10).map(|x| x < 5).collect();
        let k = partition(&mut v, &left, &mut [0; 6]);
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
