//! Property-based tests for the ML substrate: metric identities,
//! correlation bounds, loss-function analytic properties, model sanity on
//! arbitrary data, and the presorted exact-greedy tree builder against the
//! per-node sort it replaced.

use domd_ml::stats::{pearson, ranks, spearman};
use domd_ml::{
    mae, mse, percentile_mae, r2, rmse, DenseMatrix, ElasticNetModel, ElasticNetParams, GbtModel,
    GbtParams, Loss, RegressionTree, TreeParams,
};
use proptest::prelude::*;

fn finite_vec(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1000.0f64..1000.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metric_identities(y in finite_vec(1..50)) {
        prop_assert_eq!(mae(&y, &y), 0.0);
        prop_assert_eq!(mse(&y, &y), 0.0);
        // Perfect fit explains all variance, unless truth is constant.
        let constant = y.iter().all(|v| *v == y[0]);
        prop_assert_eq!(r2(&y, &y), if constant { 0.0 } else { 1.0 });
    }

    #[test]
    fn rmse_is_sqrt_mse(t in finite_vec(1..40), shift in -50.0f64..50.0) {
        let p: Vec<f64> = t.iter().map(|v| v + shift).collect();
        prop_assert!((rmse(&t, &p).powi(2) - mse(&t, &p)).abs() < 1e-6);
        prop_assert!((mae(&t, &p) - shift.abs()).abs() < 1e-9);
    }

    #[test]
    fn percentile_mae_is_monotone_in_pct(t in finite_vec(2..40), noise in finite_vec(2..40)) {
        let n = t.len().min(noise.len());
        let t = &t[..n];
        let p: Vec<f64> = t.iter().zip(&noise[..n]).map(|(a, b)| a + b * 0.1).collect();
        let m50 = percentile_mae(t, &p, 0.5);
        let m80 = percentile_mae(t, &p, 0.8);
        let m100 = percentile_mae(t, &p, 1.0);
        prop_assert!(m50 <= m80 + 1e-12);
        prop_assert!(m80 <= m100 + 1e-12);
        prop_assert!((m100 - mae(t, &p)).abs() < 1e-12);
    }

    #[test]
    fn correlations_are_bounded_and_scale_invariant(
        x in finite_vec(3..30),
        y in finite_vec(3..30),
        a in 0.1f64..10.0,
        b in -100.0f64..100.0,
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let r = pearson(x, y);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        let rho = spearman(x, y);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rho));
        // Positive affine transforms preserve both.
        let xs: Vec<f64> = x.iter().map(|v| a * v + b).collect();
        prop_assert!((pearson(&xs, y) - r).abs() < 1e-6);
        prop_assert!((spearman(&xs, y) - rho).abs() < 1e-6);
    }

    #[test]
    fn ranks_are_a_permutation_weighting(x in finite_vec(1..50)) {
        let r = ranks(&x);
        let n = x.len() as f64;
        // Rank sums are preserved under ties: total = n(n+1)/2.
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
        prop_assert!(r.iter().all(|v| *v >= 1.0 && *v <= n));
    }

    #[test]
    fn losses_are_nonnegative_and_zero_at_truth(y in -500.0f64..500.0, p in -500.0f64..500.0) {
        for l in [Loss::Squared, Loss::Absolute, Loss::Huber(18.0), Loss::PseudoHuber(18.0)] {
            prop_assert!(l.value(y, p) >= 0.0);
            prop_assert_eq!(l.value(y, y), 0.0);
            let (g, h) = l.grad_hess(y, p);
            // Gradient sign follows the residual; hessian stays positive.
            if p > y {
                prop_assert!(g >= 0.0);
            } else if p < y {
                prop_assert!(g <= 0.0);
            }
            prop_assert!(h > 0.0);
        }
    }

    #[test]
    fn pseudo_huber_gradient_is_bounded_by_delta(r in -5000.0f64..5000.0, d in 1.0f64..100.0) {
        let (g, _) = Loss::PseudoHuber(d).grad_hess(0.0, r);
        prop_assert!(g.abs() <= d + 1e-9);
    }

    #[test]
    fn tree_depth_respects_max_depth(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3), 4..40),
        max_depth in 0usize..5,
    ) {
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + r[1]).collect();
        let x = DenseMatrix::from_vec_of_rows(&rows);
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; y.len()];
        let all: Vec<usize> = (0..y.len()).collect();
        let feats = vec![0, 1, 2];
        let t = RegressionTree::fit(&x, &grad, &hess, &all, &feats,
            TreeParams { max_depth, ..Default::default() });
        prop_assert!(t.depth() <= max_depth);
        // Predictions are finite everywhere.
        prop_assert!(rows.iter().all(|r| t.predict_row(r).is_finite()));
    }

    #[test]
    fn gbt_predictions_finite_on_arbitrary_data(
        rows in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 4), 5..30),
        seed in 0u64..50,
    ) {
        let y: Vec<f64> = rows.iter().map(|r| r[0] - r[3]).collect();
        let x = DenseMatrix::from_vec_of_rows(&rows);
        let m = GbtModel::fit(&x, &y, &GbtParams {
            n_estimators: 20,
            subsample: 0.8,
            colsample_bytree: 0.8,
            seed,
            ..Default::default()
        });
        prop_assert!(m.predict(&x).iter().all(|p| p.is_finite()));
        prop_assert!(m.feature_importance().iter().all(|g| g.is_finite() && *g >= 0.0));
    }

    #[test]
    fn elastic_net_zeroes_constant_columns(
        vals in prop::collection::vec(-10.0f64..10.0, 6..30),
        constant in -5.0f64..5.0,
    ) {
        let rows: Vec<Vec<f64>> = vals.iter().map(|&v| vec![v, constant]).collect();
        let y: Vec<f64> = vals.iter().map(|v| 3.0 * v).collect();
        let x = DenseMatrix::from_vec_of_rows(&rows);
        let m = ElasticNetModel::fit(&x, &y, &ElasticNetParams::default());
        prop_assert_eq!(m.coefficients()[1], 0.0);
        prop_assert!(m.predict(&x).iter().all(|p| p.is_finite()));
    }
}

/// The exact-greedy builder that sorts every node's rows for every offered
/// feature (a stable `sort_by`, ties in list order), with the split
/// search's NaN-last order and separating threshold rule. It writes the
/// `RegressionTree::write_text` format, so the presorted builder must
/// reproduce it byte for byte.
mod reference {
    use domd_ml::{DenseMatrix, TreeParams};
    use std::cmp::Ordering;
    use std::fmt::Write as _;

    enum Node {
        Split {
            feature: usize,
            threshold: f64,
            left: usize,
            right: usize,
        },
        Leaf(f64),
    }

    struct Builder<'a> {
        x: &'a DenseMatrix,
        grad: &'a [f64],
        hess: &'a [f64],
        features: &'a [usize],
        params: TreeParams,
        nodes: Vec<Node>,
        gains: Vec<f64>,
    }

    /// NaN after every number whatever its sign, `total_cmp` otherwise.
    fn nan_last(a: f64, b: f64) -> Ordering {
        match (a.is_nan(), b.is_nan()) {
            (false, false) => a.total_cmp(&b),
            (a_nan, b_nan) => a_nan.cmp(&b_nan),
        }
    }

    fn threshold(v: f64, v_next: f64) -> f64 {
        let mid = 0.5 * (v + v_next);
        if v <= mid && mid < v_next {
            mid
        } else {
            v
        }
    }

    /// Fits one tree and returns its `write_text` form.
    pub fn fit_text(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
    ) -> String {
        let mut b = Builder {
            x,
            grad,
            hess,
            features,
            params,
            nodes: Vec::new(),
            gains: vec![0.0; x.n_cols()],
        };
        b.build(&mut rows.to_vec(), 0);
        let mut out = format!("tree {} {}\n", b.nodes.len(), b.gains.len());
        for n in &b.nodes {
            match *n {
                Node::Leaf(v) => writeln!(out, "L {v}"),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    writeln!(out, "S {feature} {threshold} {left} {right}")
                }
            }
            .unwrap();
        }
        out.push_str("gains");
        for g in &b.gains {
            write!(out, " {g}").unwrap();
        }
        out.push('\n');
        out
    }

    impl Builder<'_> {
        fn build(&mut self, rows: &mut [usize], depth: usize) -> usize {
            let (mut g_sum, mut h_sum) = (0.0, 0.0);
            for &r in rows.iter() {
                g_sum += self.grad[r];
                h_sum += self.hess[r];
            }
            let leaf = Node::Leaf(-g_sum / (h_sum + self.params.lambda));
            if depth >= self.params.max_depth || rows.len() < 2 {
                self.nodes.push(leaf);
                return self.nodes.len() - 1;
            }
            let mut best: Option<(usize, f64, f64)> = None;
            for &f in self.features {
                if let Some(cand) = self.scan(f, rows, g_sum, h_sum) {
                    if best.is_none_or(|b| cand.2 > b.2) {
                        best = Some(cand);
                    }
                }
            }
            let Some((feature, thr, gain)) = best else {
                self.nodes.push(leaf);
                return self.nodes.len() - 1;
            };
            self.gains[feature] += gain;
            let (l, r): (Vec<usize>, Vec<usize>) =
                rows.iter().partition(|&&r| self.x.get(r, feature) <= thr);
            let mid = l.len();
            assert!(mid > 0 && mid < rows.len(), "split must separate rows");
            rows[..mid].copy_from_slice(&l);
            rows[mid..].copy_from_slice(&r);
            let slot = self.nodes.len();
            self.nodes.push(Node::Split {
                feature,
                threshold: thr,
                left: 0,
                right: 0,
            });
            let (l_rows, r_rows) = rows.split_at_mut(mid);
            let left = self.build(l_rows, depth + 1);
            let right = self.build(r_rows, depth + 1);
            self.nodes[slot] = Node::Split {
                feature,
                threshold: thr,
                left,
                right,
            };
            slot
        }

        fn scan(
            &self,
            f: usize,
            rows: &[usize],
            g_sum: f64,
            h_sum: f64,
        ) -> Option<(usize, f64, f64)> {
            let lambda = self.params.lambda;
            let parent_score = g_sum * g_sum / (h_sum + lambda);
            let mut order = rows.to_vec();
            order.sort_by(|&a, &b| nan_last(self.x.get(a, f), self.x.get(b, f)));
            let mut best: Option<(usize, f64, f64)> = None;
            let (mut gl, mut hl) = (0.0, 0.0);
            for w in 0..order.len() - 1 {
                gl += self.grad[order[w]];
                hl += self.hess[order[w]];
                let v = self.x.get(order[w], f);
                let v_next = self.x.get(order[w + 1], f);
                if v.is_nan() || v == v_next {
                    continue;
                }
                let (gr, hr) = (g_sum - gl, h_sum - hl);
                let nl = (w + 1) as f64;
                let nr = (order.len() - w - 1) as f64;
                let mcw = self.params.min_child_weight;
                if (hl < mcw && nl < mcw) || (hr < mcw && nr < mcw) {
                    continue;
                }
                let gain = 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                    - self.params.gamma;
                if gain > 0.0 && best.is_none_or(|b| gain > b.2) {
                    best = Some((f, threshold(v, v_next), gain));
                }
            }
            best
        }
    }
}

/// SplitMix64: the tie-heavy matrices below are drawn from one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A cell of a test matrix: mostly a handful of small values (heavy
/// ties), sometimes a special value, sometimes a continuous draw.
fn cell(rng: &mut Mix) -> f64 {
    const SPECIAL: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        1e308,
        f64::MAX,
    ];
    match rng.below(10) {
        0 => SPECIAL[rng.below(SPECIAL.len())],
        1..=6 => rng.below(5) as f64 - 2.0,
        _ => rng.unit() * 8.0 - 4.0,
    }
}

/// Root row-list kinds: the identity `0..n` is the only one a tree may
/// order by copying the fit-wide column orders; every other kind takes
/// the stable counting sort, ties in list order.
const ROOT_KINDS: [&str; 5] = [
    "identity",
    "shuffled 70% subsample",
    "bootstrap with duplicates",
    "every row, shuffled",
    "ascending proper subset",
];

/// A random problem: matrix, gradients, hessians, a root row list of the
/// given kind (an index into `ROOT_KINDS`) and a shuffled feature subset.
fn problem(
    rng: &mut Mix,
    n: usize,
    p: usize,
    kind: usize,
) -> (DenseMatrix, Vec<f64>, Vec<f64>, Vec<usize>, Vec<usize>) {
    let x = DenseMatrix::from_rows((0..n * p).map(|_| cell(rng)).collect(), n, p);
    let grad: Vec<f64> = (0..n).map(|_| rng.unit() * 20.0 - 10.0).collect();
    let hess: Vec<f64> = (0..n).map(|_| 0.05 + rng.unit() * 2.0).collect();
    let mut shuffled: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        shuffled.swap(i, rng.below(i + 1));
    }
    let rows = match kind {
        0 => (0..n).collect(),
        1 => shuffled[..(n * 7).div_ceil(10)].to_vec(),
        2 => (0..n).map(|_| rng.below(n)).collect(),
        3 => {
            // Every row, but never in order: a shuffle that drew the
            // identity swaps its first two rows.
            if shuffled.iter().enumerate().all(|(i, &r)| i == r) {
                shuffled.swap(0, 1);
            }
            shuffled
        }
        _ => {
            let mut subset = shuffled[..(n * 7).div_ceil(10).min(n - 1)].to_vec();
            subset.sort_unstable();
            subset
        }
    };
    let mut features: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        features.swap(i, rng.below(i + 1));
    }
    features.truncate(1 + rng.below(p));
    (x, grad, hess, rows, features)
}

fn tree_text(t: &RegressionTree) -> String {
    let mut out = String::new();
    t.write_text(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn presorted_search_equals_the_per_node_sort(
        seed in 0u64..u64::MAX,
        n in 2usize..120,
        p in 1usize..6,
        kind in 0usize..ROOT_KINDS.len(),
        max_depth in 0usize..7,
        mcw_i in 0usize..4,
        gamma_i in 0usize..2,
        lambda_i in 0usize..3,
    ) {
        let mut rng = Mix(seed);
        let (x, grad, hess, rows, features) = problem(&mut rng, n, p, kind);
        let params = TreeParams {
            max_depth,
            min_child_weight: [0.0, 1.0, 2.0, 5.0][mcw_i],
            gamma: [0.0, 0.5][gamma_i],
            lambda: [0.0, 1.0, 3.0][lambda_i],
        };
        let want = reference::fit_text(&x, &grad, &hess, &rows, &features, params);
        let got = tree_text(&RegressionTree::fit(&x, &grad, &hess, &rows, &features, params));
        prop_assert_eq!(got, want, "seed {} n {} kind {} params {:?}", seed, n, ROOT_KINDS[kind], params);
    }
}

#[test]
fn presorted_search_equals_the_per_node_sort_at_1500_rows() {
    // The property above stays below 120 rows. This checks the same
    // identity on long segments, once per root row kind.
    for (kind, name) in ROOT_KINDS.iter().enumerate() {
        let mut rng = Mix(0xFA_0000 + kind as u64);
        let (x, grad, hess, rows, _) = problem(&mut rng, 1500, 12, kind);
        let features: Vec<usize> = (0..12).collect();
        let params = TreeParams {
            max_depth: 5,
            min_child_weight: 1.0,
            lambda: 1.0,
            gamma: 0.0,
        };
        let want = reference::fit_text(&x, &grad, &hess, &rows, &features, params);
        let t = RegressionTree::fit(&x, &grad, &hess, &rows, &features, params);
        assert_eq!(tree_text(&t), want, "row kind {name}");
    }
}
