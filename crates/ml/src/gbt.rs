//! Gradient-boosted regression trees (the paper's XGBoost stand-in).
//!
//! Newton boosting: each round fits a [`RegressionTree`](crate::tree) to
//! the per-row gradients and hessians of the configured loss at the current
//! predictions, then adds its (shrunken) leaf values to the ensemble.
//! Row subsampling and per-tree column subsampling provide the usual
//! variance control; gain-based feature importance powers both RFE feature
//! selection and the top-k contribution explanations the paper's SMEs
//! review.
//!
//! Fitting compiles the finished ensemble into a [`FlatForest`]
//! (see [`crate::flat`]) that `predict`/`predict_row` route through; the
//! pointer walker survives as [`GbtModel::predict_pointer`] /
//! [`GbtModel::predict_row_pointer`], the reference arm of the
//! bit-identity gates. Split finding is exact greedy over orders sorted
//! once per fit: one sort per column gives its ranks, its row order and a
//! column-major copy of its values. A round on every row (`subsample = 1`,
//! every shipped pipeline) copies each offered feature's order; a
//! subsampled round orders its shuffled rows by a stable counting sort of
//! the ranks. Nodes partition those orders (see [`crate::tree`]).

use crate::flat::{Combine, FlatForest};
use crate::loss::Loss;
use crate::matrix::DenseMatrix;
use crate::tree::{ColumnRanks, RegressionTree, TreeParams};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters of the boosted ensemble. The tunable subset matches the
/// AutoHPT search space of Section 3.2.4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbtParams {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage per round (η).
    pub learning_rate: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum child hessian weight.
    pub min_child_weight: f64,
    /// L2 leaf regularization (λ).
    pub lambda: f64,
    /// Minimum split gain (γ).
    pub gamma: f64,
    /// Row subsample fraction per round, in (0, 1].
    pub subsample: f64,
    /// Column subsample fraction per tree, in (0, 1].
    pub colsample_bytree: f64,
    /// Training loss.
    pub loss: Loss,
    /// Seed for row/column subsampling.
    pub seed: u64,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_estimators: 250,
            learning_rate: 0.1,
            max_depth: 4,
            min_child_weight: 2.0,
            lambda: 1.0,
            gamma: 0.0,
            subsample: 1.0,
            colsample_bytree: 0.9,
            loss: Loss::Squared,
            seed: 0,
        }
    }
}

/// A trained boosted ensemble.
#[derive(Debug, Clone)]
pub struct GbtModel {
    base_score: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
    gains: Vec<f64>,
    /// Branchless compilation of `trees`, built at fit/load time (derived
    /// state: never serialized, recompiled by `read_text`).
    flat: FlatForest,
}

impl GbtModel {
    /// Fits the ensemble on `x` (rows = instances) against targets `y`.
    /// The columns are sorted once and shared by every round.
    /// Boosting rounds are inherently sequential, and so is each round.
    pub fn fit(x: &DenseMatrix, y: &[f64], params: &GbtParams) -> Self {
        assert_eq!(x.n_rows(), y.len(), "x and y row counts differ");
        assert!(x.n_rows() > 0, "cannot fit on an empty matrix");
        assert!(params.subsample > 0.0 && params.subsample <= 1.0);
        assert!(params.colsample_bytree > 0.0 && params.colsample_bytree <= 1.0);

        // Robust base score: the mean is the argmin for l2; the median is a
        // better anchor for the robust losses.
        let base_score = match params.loss {
            Loss::Squared => crate::stats::mean(y),
            Loss::Quantile(q) => crate::stats::quantile(y, q),
            _ => crate::stats::quantile(y, 0.5),
        };

        let n = x.n_rows();
        let p = x.n_cols();
        let mut preds = vec![base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_child_weight: params.min_child_weight,
            lambda: params.lambda,
            gamma: params.gamma,
        };
        let all_rows: Vec<usize> = (0..n).collect();
        let all_cols: Vec<usize> = (0..p).collect();
        let n_sub_rows = ((n as f64 * params.subsample).round() as usize).clamp(1, n);
        let n_sub_cols = ((p as f64 * params.colsample_bytree).round() as usize).clamp(1, p);

        let mut trees = Vec::with_capacity(params.n_estimators);
        let mut gains = vec![0.0; p];
        let mut row_pool = all_rows.clone();
        let mut col_pool = all_cols.clone();
        // One sort per column serves every round and node.
        let ranks = ColumnRanks::build(x);

        for _ in 0..params.n_estimators {
            for i in 0..n {
                let (g, h) = params.loss.grad_hess(y[i], preds[i]);
                grad[i] = g;
                hess[i] = h;
            }
            let rows: &[usize] = if n_sub_rows < n {
                row_pool.shuffle(&mut rng);
                &row_pool[..n_sub_rows]
            } else {
                &all_rows
            };
            let cols: &[usize] = if n_sub_cols < p {
                col_pool.shuffle(&mut rng);
                col_pool[..n_sub_cols].sort_unstable();
                &col_pool[..n_sub_cols]
            } else {
                &all_cols
            };
            let tree = RegressionTree::fit_with(x, &grad, &hess, rows, cols, tree_params, &ranks);
            // Refresh predictions through the branchless kernel: compile
            // the one new tree and read its raw leaf values directly. The
            // per-row arithmetic (`+= lr * value`) is unchanged from the
            // pointer walk, so the predictions are bit-identical to it.
            let round = FlatForest::from_trees(
                std::slice::from_ref(&tree),
                Combine::Boosted { base_score: 0.0, learning_rate: 1.0 },
            );
            for (i, p) in preds.iter_mut().enumerate() {
                *p += params.learning_rate * round.tree_value(0, x.row(i));
            }
            for (j, g) in tree.feature_gains().iter().enumerate() {
                gains[j] += g;
            }
            trees.push(tree);
        }

        let flat = FlatForest::from_trees(
            &trees,
            Combine::Boosted { base_score, learning_rate: params.learning_rate },
        );
        GbtModel { base_score, learning_rate: params.learning_rate, trees, gains, flat }
    }

    /// Prediction for one feature row (branchless kernel).
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.flat.predict_one(row)
    }

    /// Predictions for every row of `x` (branchless kernel, tree-at-a-time
    /// over row blocks).
    pub fn predict(&self, x: &DenseMatrix) -> Vec<f64> {
        self.flat.predict(x)
    }

    /// Reference prediction via the pointer walker — the baseline arm of
    /// the bit-identity gates (`prop_flat`, `bench_gbt`). Identical output
    /// to [`GbtModel::predict_row`] for every input.
    pub fn predict_row_pointer(&self, row: &[f64]) -> f64 {
        let mut out = self.base_score;
        for t in &self.trees {
            out += self.learning_rate * t.predict_row(row);
        }
        out
    }

    /// Batch form of [`GbtModel::predict_row_pointer`].
    pub fn predict_pointer(&self, x: &DenseMatrix) -> Vec<f64> {
        (0..x.n_rows()).map(|i| self.predict_row_pointer(x.row(i))).collect()
    }

    /// The compiled inference kernel.
    pub fn flat(&self) -> &FlatForest {
        &self.flat
    }

    /// Gain-based feature importance, summed over all trees.
    pub fn feature_importance(&self) -> &[f64] {
        &self.gains
    }

    /// Indices of the `k` highest-gain features, descending by gain — the
    /// "top contributing features" surfaced to SMEs (Section 5.2.5).
    pub fn top_features(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.gains.len()).collect();
        idx.sort_by(|&a, &b| self.gains[b].total_cmp(&self.gains[a]).then(a.cmp(&b)));
        idx.truncate(k);
        idx
    }

    /// Number of boosted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_xy(n: usize, noise: f64, seed: u64) -> (DenseMatrix, Vec<f64>) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-3.0..3.0);
            let b: f64 = rng.gen_range(-3.0..3.0);
            let c: f64 = rng.gen_range(-3.0..3.0); // pure noise feature
            rows.push(vec![a, b, c]);
            // Nonlinear with interaction: hard for a linear model.
            y.push(2.0 * a + a * b + (b * 2.0).sin() * 3.0 + noise * rng.gen_range(-1.0..1.0));
        }
        (DenseMatrix::from_vec_of_rows(&rows), y)
    }

    fn mae(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
    }

    #[test]
    fn overfits_noise_free_training_data() {
        let (x, y) = make_xy(120, 0.0, 1);
        let m = GbtModel::fit(
            &x,
            &y,
            &GbtParams { n_estimators: 400, learning_rate: 0.1, subsample: 1.0, colsample_bytree: 1.0, ..Default::default() },
        );
        let pred = m.predict(&x);
        assert!(mae(&pred, &y) < 0.3, "training MAE {}", mae(&pred, &y));
    }

    #[test]
    fn generalizes_to_fresh_sample() {
        let (xtr, ytr) = make_xy(400, 0.2, 2);
        let (xte, yte) = make_xy(200, 0.0, 3);
        let m = GbtModel::fit(&xtr, &ytr, &GbtParams::default());
        let pred = m.predict(&xte);
        let baseline = mae(&vec![crate::stats::mean(&ytr); yte.len()], &yte);
        let err = mae(&pred, &yte);
        assert!(err < baseline * 0.35, "test MAE {err} vs baseline {baseline}");
    }

    #[test]
    fn noise_feature_gets_least_importance() {
        let (x, y) = make_xy(400, 0.1, 4);
        let m = GbtModel::fit(&x, &y, &GbtParams::default());
        let imp = m.feature_importance();
        assert!(imp[0] > imp[2] && imp[1] > imp[2], "importances {imp:?}");
        let top = m.top_features(2);
        assert!(!top.contains(&2), "noise feature must not rank top-2: {top:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = make_xy(100, 0.3, 5);
        let p = GbtParams { subsample: 0.7, colsample_bytree: 0.7, ..Default::default() };
        let a = GbtModel::fit(&x, &y, &p).predict(&x);
        let b = GbtModel::fit(&x, &y, &p).predict(&x);
        assert_eq!(a, b);
        let c =
            GbtModel::fit(&x, &y, &GbtParams { seed: 9, ..p }).predict(&x);
        assert_ne!(a, c, "different seed must change subsampling");
    }

    #[test]
    fn robust_loss_resists_label_outliers() {
        // Clean linear signal with a few wild labels.
        let (x, mut y) = make_xy(300, 0.1, 6);
        let truth = y.clone();
        for i in (0..300).step_by(29) {
            y[i] += 500.0;
        }
        let l2 = GbtModel::fit(&x, &y, &GbtParams { loss: Loss::Squared, ..Default::default() });
        let ph = GbtModel::fit(
            &x,
            &y,
            &GbtParams { loss: Loss::PseudoHuber(18.0), ..Default::default() },
        );
        let clean_rows: Vec<usize> = (0..300).filter(|i| i % 29 != 0).collect();
        let e_l2: f64 = clean_rows.iter().map(|&i| (l2.predict_row(x.row(i)) - truth[i]).abs()).sum::<f64>()
            / clean_rows.len() as f64;
        let e_ph: f64 = clean_rows.iter().map(|&i| (ph.predict_row(x.row(i)) - truth[i]).abs()).sum::<f64>()
            / clean_rows.len() as f64;
        assert!(e_ph < e_l2, "pseudo-huber ({e_ph}) must beat l2 ({e_l2}) under outliers");
    }

    #[test]
    fn boosting_separates_infinite_values() {
        // The boundary (2, +inf) has an infinite midpoint; its split must
        // still send the finite rows left and the infinite ones right.
        let x = DenseMatrix::from_rows(vec![0.0, 1.0, 2.0, f64::INFINITY, f64::INFINITY], 5, 1);
        let y = [0.0, 0.0, 0.0, 50.0, 50.0];
        let m = GbtModel::fit(&x, &y, &GbtParams { n_estimators: 20, ..Default::default() });
        let p = m.predict(&x);
        assert!(p[..3].iter().all(|&v| v < 10.0), "finite rows {p:?}");
        assert!(p[3..].iter().all(|&v| v > 40.0), "infinite rows {p:?}");
    }

    #[test]
    fn zero_rounds_predicts_base_score() {
        let (x, y) = make_xy(50, 0.0, 7);
        let m = GbtModel::fit(&x, &y, &GbtParams { n_estimators: 0, ..Default::default() });
        assert_eq!(m.n_trees(), 0);
        let expected = crate::stats::mean(&y);
        assert!(m.predict(&x).iter().all(|p| (p - expected).abs() < 1e-12));
    }

    #[test]
    fn quantile_models_bracket_the_distribution() {
        // Heteroscedastic data: spread grows with the feature.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..500 {
            use rand::Rng;
            let a: f64 = rng.gen_range(0.0..4.0);
            rows.push(vec![a]);
            y.push(10.0 * a + (1.0 + a) * rng.gen_range(-10.0..10.0f64));
        }
        let x = DenseMatrix::from_vec_of_rows(&rows);
        let lo = GbtModel::fit(&x, &y, &GbtParams { loss: Loss::Quantile(0.1), ..Default::default() });
        let hi = GbtModel::fit(&x, &y, &GbtParams { loss: Loss::Quantile(0.9), ..Default::default() });
        let p_lo = lo.predict(&x);
        let p_hi = hi.predict(&x);
        // The band is ordered and covers roughly the right mass.
        let ordered = p_lo.iter().zip(&p_hi).filter(|(l, h)| l <= h).count();
        assert!(ordered as f64 / 500.0 > 0.95, "bands crossed too often");
        let below_hi = y.iter().zip(&p_hi).filter(|(t, p)| *t <= *p).count() as f64 / 500.0;
        let below_lo = y.iter().zip(&p_lo).filter(|(t, p)| *t <= *p).count() as f64 / 500.0;
        assert!((0.80..=0.99).contains(&below_hi), "P90 coverage {below_hi}");
        assert!((0.01..=0.25).contains(&below_lo), "P10 coverage {below_lo}");
    }

    #[test]
    fn nan_rows_get_their_own_leaf_in_a_large_fit() {
        // 512 NaN rows with target 100 beside 3,584 finite rows with
        // target 0: the best split sends NaN right on its own, so one
        // unshrunk depth-1 round recovers both targets exactly.
        let n = 4096;
        let col: Vec<f64> = (0..n).map(|i| if i < 512 { f64::NAN } else { i as f64 }).collect();
        let y: Vec<f64> = (0..n).map(|i| if i < 512 { 100.0 } else { 0.0 }).collect();
        let x = DenseMatrix::from_rows(col, n, 1);
        let params = GbtParams {
            n_estimators: 1,
            learning_rate: 1.0,
            max_depth: 1,
            min_child_weight: 1.0,
            lambda: 0.0,
            gamma: 0.0,
            subsample: 1.0,
            colsample_bytree: 1.0,
            ..Default::default()
        };
        let p = GbtModel::fit(&x, &y, &params).predict(&x);
        assert!(p[..512].iter().all(|v| (v - 100.0).abs() < 1e-9), "NaN rows predict {}", p[0]);
        assert!(p[512..].iter().all(|v| v.abs() < 1e-9), "finite rows predict {}", p[512]);
    }

    #[test]
    fn read_text_refuses_trees_that_index_past_the_ensemble() {
        let (x, y) = make_xy(60, 0.0, 8);
        let m = GbtModel::fit(&x, &y, &GbtParams { n_estimators: 3, ..Default::default() });
        let mut text = String::new();
        m.write_text(&mut text);
        let parse = |t: &str| GbtModel::read_text(&mut crate::persist::Reader::new(t));
        assert!(parse(&text).is_ok());
        // A split on feature 3 of a 3-feature tree.
        let split = text.lines().find(|l| l.starts_with("S ")).expect("a split");
        let mut toks: Vec<&str> = split.split(' ').collect();
        toks[1] = "3";
        assert!(parse(&text.replacen(split, &toks.join(" "), 1)).is_err(), "split feature");
        // Trees one feature wider than the ensemble's gains.
        let gains = text.lines().find(|l| l.starts_with("gbt-gains ")).expect("gains");
        let narrower = gains.rsplit_once(' ').expect("3 gains").0;
        assert!(parse(&text.replacen(gains, narrower, 1)).is_err(), "gain count");
    }

    #[test]
    fn l1_base_score_is_median() {
        let x = DenseMatrix::from_rows(vec![0.0; 5], 5, 1);
        let y = [0.0, 0.0, 1.0, 10.0, 100.0];
        let m = GbtModel::fit(
            &x,
            &y,
            &GbtParams { n_estimators: 0, loss: Loss::Absolute, ..Default::default() },
        );
        assert_eq!(m.predict_row(&[0.0]), 1.0);
    }
}

// --- persistence -----------------------------------------------------------

#[allow(clippy::items_after_test_module)] // persistence lives with its type
impl GbtModel {
    /// Serializes the fitted ensemble.
    pub fn write_text(&self, out: &mut String) {
        use crate::persist::{fmt_f64, put_line};
        put_line(
            out,
            "gbt",
            &[
                fmt_f64(self.base_score),
                fmt_f64(self.learning_rate),
                self.trees.len().to_string(),
            ],
        );
        for t in &self.trees {
            t.write_text(out);
        }
        put_line(out, "gbt-gains", &self.gains.iter().map(|g| fmt_f64(*g)).collect::<Vec<_>>());
    }

    /// Parses an ensemble previously written by [`GbtModel::write_text`].
    pub fn read_text(
        r: &mut crate::persist::Reader<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        let head = r.tagged("gbt")?;
        let head = r.exactly(&head, 3)?;
        let base_score: f64 = r.parse(head[0], "base score")?;
        let learning_rate: f64 = r.parse(head[1], "learning rate")?;
        let n_trees: usize = r.parse(head[2], "tree count")?;
        let trees: Vec<RegressionTree> =
            (0..n_trees).map(|_| RegressionTree::read_text(r)).collect::<Result<_, _>>()?;
        let toks = r.tagged("gbt-gains")?;
        let gains: Vec<f64> = r.parse_all(&toks, "gain")?;
        // Every tree must test features of the ensemble's own width, the
        // width a caller checks its rows against.
        if let Some(t) = trees.iter().position(|t| t.feature_gains().len() != gains.len()) {
            return Err(r.err(format!(
                "tree {t} records {} features, the ensemble {}",
                trees[t].feature_gains().len(),
                gains.len()
            )));
        }
        // The flat kernel is derived state: recompiled on load so v1/v2
        // artifacts written before it existed pick it up transparently.
        let flat = FlatForest::from_trees(&trees, Combine::Boosted { base_score, learning_rate });
        Ok(GbtModel { base_score, learning_rate, trees, gains, flat })
    }
}
