//! Property tests for the branchless flat-forest kernel: arbitrary random
//! forests (depth 0–8, wildly skewed thresholds) compiled to the flat
//! layout must predict `to_bits`-identically to the pointer walker on
//! every row — including ±∞ feature values — through the single-row and
//! batch descent paths; and persisted ensembles must recompile to the
//! same kernel on load.
//!
//! Trees are generated *structurally* (crafted `tree` artifacts parsed by
//! `RegressionTree::read_text`) rather than fitted, so shapes no fitter
//! would emit — lopsided chains, duplicate thresholds across nodes,
//! subnormal cuts — are all on the menu.

use domd_ml::{
    Combine, DenseMatrix, FlatForest, GbtModel, GbtParams, Reader, RegressionTree,
};
use proptest::prelude::*;

/// SplitMix64: one deterministic value stream per proptest-drawn seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Heavily skewed magnitudes: sign · mantissa · 10^e with e ∈ [−30, 30],
    /// plus occasional exact zeros — thresholds real fits would never pick.
    fn skewed(&mut self) -> f64 {
        if self.next().is_multiple_of(16) {
            return 0.0;
        }
        let sign = if self.next().is_multiple_of(2) { 1.0 } else { -1.0 };
        let exp = (self.next() % 61) as i32 - 30;
        sign * (0.1 + self.unit()) * 10f64.powi(exp)
    }
}

/// Node shapes for the crafted artifact.
enum Spec {
    Leaf(f64),
    Split { f: u32, thr: f64, l: u32, r: u32 },
}

/// Random tree of depth ≤ `max_depth` over `p` features, pre-order with
/// backpatched child slots (the artifact format's only requirement is
/// in-range indices).
fn gen_nodes(rng: &mut Mix, depth: usize, max_depth: usize, p: u32, nodes: &mut Vec<Spec>) -> u32 {
    let leaf_now = depth >= max_depth || rng.next().is_multiple_of(4);
    if leaf_now {
        nodes.push(Spec::Leaf(rng.skewed()));
        return (nodes.len() - 1) as u32;
    }
    let slot = nodes.len();
    nodes.push(Spec::Leaf(f64::NAN)); // placeholder, overwritten below
    let f = (rng.next() % u64::from(p)) as u32;
    let thr = rng.skewed();
    let l = gen_nodes(rng, depth + 1, max_depth, p, nodes);
    let r = gen_nodes(rng, depth + 1, max_depth, p, nodes);
    nodes[slot] = Spec::Split { f, thr, l, r };
    slot as u32
}

/// Renders the node list as a `tree` artifact and parses it back — the
/// only door into `RegressionTree` that doesn't go through a fitter.
fn craft_tree(seed: u64, max_depth: usize, p: u32) -> RegressionTree {
    let mut rng = Mix(seed);
    let mut nodes = Vec::new();
    gen_nodes(&mut rng, 0, max_depth, p, &mut nodes);
    let mut text = format!("tree {} {}\n", nodes.len(), p);
    for n in &nodes {
        match n {
            Spec::Leaf(v) => text.push_str(&format!("L {v:?}\n")),
            Spec::Split { f, thr, l, r } => text.push_str(&format!("S {f} {thr:?} {l} {r}\n")),
        }
    }
    text.push_str("gains");
    for _ in 0..p {
        text.push_str(" 0");
    }
    text.push('\n');
    let mut r = Reader::new(&text);
    RegressionTree::read_text(&mut r).expect("crafted artifact must parse")
}

/// Probe rows with skewed finite values and a sprinkling of ±∞ (NaN-free;
/// NaN routing has its own deterministic test in `flat::tests`).
fn probe_rows(rng: &mut Mix, n: usize, p: usize) -> DenseMatrix {
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(
            (0..p)
                .map(|_| match rng.next() % 12 {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    _ => rng.skewed(),
                })
                .collect::<Vec<f64>>(),
        );
    }
    DenseMatrix::from_vec_of_rows(&rows)
}

/// Pointer-walker reference for an arbitrary tree list + combine rule.
fn pointer_predict(trees: &[RegressionTree], combine: Combine, row: &[f64]) -> f64 {
    match combine {
        Combine::Boosted { base_score, learning_rate } => {
            let mut out = base_score;
            for t in trees {
                out += learning_rate * t.predict_row(row);
            }
            out
        }
        Combine::Averaged => {
            let sum: f64 = trees.iter().map(|t| t.predict_row(row)).sum();
            sum / trees.len() as f64
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_matches_pointer_row_for_row(
        seed in 0u64..u64::MAX / 2,
        max_depth in 0usize..=8,
        n_trees in 1usize..5,
        p in 1u32..6,
        boosted in 0u64..2,
        base in -100.0f64..100.0,
        lr in 0.01f64..1.0,
    ) {
        let trees: Vec<RegressionTree> = (0..n_trees as u64)
            .map(|k| craft_tree(seed ^ (k + 1), max_depth, p))
            .collect();
        let combine = if boosted == 1 {
            Combine::Boosted { base_score: base, learning_rate: lr }
        } else {
            Combine::Averaged
        };
        let flat = FlatForest::from_trees(&trees, combine);
        prop_assert_eq!(flat.n_trees(), trees.len());

        let x = probe_rows(&mut Mix(seed ^ 0xABCD), 24, p as usize);
        let want: Vec<f64> = (0..x.n_rows())
            .map(|i| pointer_predict(&trees, combine, x.row(i)))
            .collect();

        // Single-row and blocked-batch descent.
        for (i, w) in want.iter().enumerate() {
            prop_assert_eq!(flat.predict_one(x.row(i)).to_bits(), w.to_bits());
        }
        let batch = flat.predict(&x);
        for (got, w) in batch.iter().zip(&want) {
            prop_assert_eq!(got.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn persisted_ensemble_recompiles_identically(
        seed in 0u64..1000,
        n_estimators in 1usize..20,
    ) {
        // A fitted ensemble round-tripped through its text artifact must
        // rebuild a kernel with the same bits — `read_text` recompiles the
        // flat forest rather than persisting it.
        let mut rng = Mix(seed);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..3).map(|_| rng.unit() * 8.0 - 4.0).collect())
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 - r[1]).collect();
        let x = DenseMatrix::from_vec_of_rows(&rows);
        let m = GbtModel::fit(&x, &y, &GbtParams {
            n_estimators,
            seed,
            subsample: 0.9,
            colsample_bytree: 0.9,
            ..Default::default()
        });
        let mut text = String::new();
        m.write_text(&mut text);
        let mut r = Reader::new(&text);
        let reloaded = GbtModel::read_text(&mut r).expect("round-trip must parse");

        let probe = probe_rows(&mut rng, 16, 3);
        let a = m.predict(&probe);
        let b = reloaded.predict(&probe);
        let c = reloaded.predict_pointer(&probe);
        for i in 0..probe.n_rows() {
            prop_assert_eq!(a[i].to_bits(), b[i].to_bits());
            prop_assert_eq!(b[i].to_bits(), c[i].to_bits());
        }
    }
}
