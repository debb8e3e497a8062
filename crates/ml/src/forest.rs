//! Random-forest regression (bagged trees) — a third base-model family for
//! the Section 5.2.2 comparison's "etc." (`repro model-ablation`).
//!
//! Each tree fits an independent bootstrap sample of the rows under
//! squared loss with per-tree feature subsampling; predictions average the
//! trees. Against the boosted ensemble this isolates what boosting itself
//! contributes beyond tree bagging on this data.

use crate::flat::{Combine, FlatForest};
use crate::matrix::DenseMatrix;
use crate::tree::{ColumnRanks, RegressionTree, TreeParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth (forests like deep trees).
    pub max_depth: usize,
    /// Minimum samples (or hessian mass) per child.
    pub min_child_weight: f64,
    /// Fraction of features offered to each tree, in (0, 1].
    pub max_features: f64,
    /// Bootstrap sample size as a fraction of the training rows.
    pub sample_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 200,
            max_depth: 10,
            min_child_weight: 2.0,
            // Regression forests keep all features per tree by default
            // (sklearn's RandomForestRegressor convention): with few
            // columns, feature bagging starves whole trees of the signal
            // and the averaged prediction shrinks toward the mean.
            max_features: 1.0,
            sample_fraction: 1.0,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct ForestModel {
    trees: Vec<RegressionTree>,
    gains: Vec<f64>,
    /// Branchless compilation of `trees` (derived state, built at fit time).
    flat: FlatForest,
}

/// Decorrelates per-tree RNG streams derived from `seed + tree index`
/// (splitmix64 finalizer): adjacent seeds must not yield overlapping
/// bootstrap sequences.
fn mix_seed(seed: u64, tree: u64) -> u64 {
    let mut z = seed ^ tree.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ForestModel {
    /// Fits the forest on `x` against targets `y` with the process-wide
    /// worker cap ([`domd_runtime::threads`]). The columns are ranked once
    /// and the ranks shared by every tree; each tree orders its bootstrap
    /// rows from the ranks. Trees are independent given their per-tree RNG
    /// stream, so pooled fitting is bit-identical to sequential for every
    /// thread count.
    pub fn fit(x: &DenseMatrix, y: &[f64], params: &ForestParams) -> Self {
        ForestModel::fit_threaded(x, y, params, domd_runtime::threads())
    }

    /// As [`ForestModel::fit`] with an explicit worker cap.
    pub fn fit_threaded(x: &DenseMatrix, y: &[f64], params: &ForestParams, threads: usize) -> Self {
        assert_eq!(x.n_rows(), y.len(), "x and y row counts differ");
        assert!(x.n_rows() > 0, "cannot fit on an empty matrix");
        assert!(params.max_features > 0.0 && params.max_features <= 1.0);
        assert!(params.sample_fraction > 0.0 && params.sample_fraction <= 1.0);

        let n = x.n_rows();
        let p = x.n_cols();
        // Squared loss around zero: grad = -y, hess = 1; each leaf then
        // stores (approximately) the mean target of its rows.
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; n];
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_child_weight: params.min_child_weight,
            lambda: 0.0,
            gamma: 0.0,
        };
        let n_sample = ((n as f64 * params.sample_fraction).round() as usize).clamp(1, n);
        let n_feats = ((p as f64 * params.max_features).round() as usize).clamp(1, p);

        // One ranking pass serves every tree.
        let ranks = ColumnRanks::build(x);

        // Each tree draws from its own seeded stream (rather than one RNG
        // threaded through the loop), making trees independent work items:
        // the pooled and sequential fits produce identical forests.
        let tree_ids: Vec<u64> = (0..params.n_trees as u64).collect();
        let trees: Vec<RegressionTree> = domd_runtime::par_map(threads, &tree_ids, |_, &k| {
            let mut rng = SmallRng::seed_from_u64(mix_seed(params.seed, k));
            // Bootstrap rows (with replacement).
            let rows: Vec<usize> = (0..n_sample).map(|_| rng.gen_range(0..n)).collect();
            // Feature subset (without replacement).
            let mut feat_pool: Vec<usize> = (0..p).collect();
            for i in 0..n_feats {
                let j = rng.gen_range(i..p);
                feat_pool.swap(i, j);
            }
            let mut feats: Vec<usize> = feat_pool[..n_feats].to_vec();
            feats.sort_unstable();
            RegressionTree::fit_with(x, &grad, &hess, &rows, &feats, tree_params, &ranks)
        });
        // Gains merge in tree order, so the sum sees one float sequence.
        let mut gains = vec![0.0; p];
        for tree in &trees {
            for (j, g) in tree.feature_gains().iter().enumerate() {
                gains[j] += g;
            }
        }
        let flat = FlatForest::from_trees(&trees, Combine::Averaged);
        ForestModel { trees, gains, flat }
    }

    /// Prediction for one feature row (mean over trees; branchless kernel).
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.flat.predict_one(row)
    }

    /// Predictions for every row of `x` (branchless kernel).
    pub fn predict(&self, x: &DenseMatrix) -> Vec<f64> {
        self.flat.predict(x)
    }

    /// Reference prediction via the pointer walker (bit-identity gates).
    pub fn predict_row_pointer(&self, row: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict_row(row)).sum();
        sum / self.trees.len() as f64
    }

    /// Batch form of [`ForestModel::predict_row_pointer`].
    pub fn predict_pointer(&self, x: &DenseMatrix) -> Vec<f64> {
        (0..x.n_rows()).map(|i| self.predict_row_pointer(x.row(i))).collect()
    }

    /// The compiled inference kernel.
    pub fn flat(&self) -> &FlatForest {
        &self.flat
    }

    /// Gain-based feature importance summed over trees.
    pub fn feature_importance(&self) -> &[f64] {
        &self.gains
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_xy(n: usize, seed: u64) -> (DenseMatrix, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-3.0..3.0);
            let b: f64 = rng.gen_range(-3.0..3.0);
            rows.push(vec![a, b, rng.gen_range(-3.0..3.0)]);
            y.push(3.0 * a + a * b + rng.gen_range(-0.3..0.3));
        }
        (DenseMatrix::from_vec_of_rows(&rows), y)
    }

    fn mae(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
    }

    #[test]
    fn fits_nonlinear_signal() {
        let (xtr, ytr) = make_xy(500, 1);
        let (xte, yte) = make_xy(200, 2);
        let m = ForestModel::fit(&xtr, &ytr, &ForestParams::default());
        let baseline = mae(&vec![0.0; yte.len()], &yte);
        let err = mae(&m.predict(&xte), &yte);
        assert!(err < baseline * 0.4, "forest MAE {err} vs baseline {baseline}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = make_xy(100, 3);
        let p = ForestParams { n_trees: 30, ..Default::default() };
        assert_eq!(
            ForestModel::fit(&x, &y, &p).predict(&x),
            ForestModel::fit(&x, &y, &p).predict(&x)
        );
        let other = ForestModel::fit(&x, &y, &ForestParams { seed: 9, ..p }).predict(&x);
        assert_ne!(ForestModel::fit(&x, &y, &p).predict(&x), other);
    }

    #[test]
    fn more_trees_do_not_hurt() {
        let (xtr, ytr) = make_xy(300, 4);
        let (xte, yte) = make_xy(150, 5);
        let small = ForestModel::fit(&xtr, &ytr, &ForestParams { n_trees: 5, ..Default::default() });
        let big = ForestModel::fit(&xtr, &ytr, &ForestParams { n_trees: 150, ..Default::default() });
        let e_small = mae(&small.predict(&xte), &yte);
        let e_big = mae(&big.predict(&xte), &yte);
        assert!(e_big <= e_small * 1.05, "variance should shrink with trees ({e_small} -> {e_big})");
    }

    #[test]
    fn importance_finds_signal_features() {
        let (x, y) = make_xy(400, 6);
        let m = ForestModel::fit(&x, &y, &ForestParams::default());
        let imp = m.feature_importance();
        assert!(imp[0] > imp[2], "signal must outrank noise: {imp:?}");
        assert_eq!(m.n_trees(), 200);
    }
}
