//! Determinism contract of the pooled forest trainer: its fits must be
//! bit-identical for every worker cap. Trees are the forest's work items,
//! so the pooled fit runs several trees at once.

use domd_ml::{DenseMatrix, ForestModel, ForestParams};

fn synthetic_xy(n: usize, p: usize, seed: u64) -> (DenseMatrix, Vec<f64>) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut data = Vec::with_capacity(n * p);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..p).map(|_| next() * 6.0 - 3.0).collect();
        y.push(2.0 * row[0] + row[1] * row[2] + (row[3] * 2.0).sin() * 3.0 + next() * 0.2);
        data.extend_from_slice(&row);
    }
    (DenseMatrix::from_rows(data, n, p), y)
}

fn assert_bits_eq(a: &[f64], b: &[f64], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: prediction {i}: {x} vs {y}");
    }
}

#[test]
fn forest_pooled_trees_are_bit_identical() {
    let (x, y) = synthetic_xy(300, 6, 21);
    for seed in [0u64, 5] {
        let params = ForestParams {
            n_trees: 24,
            max_depth: 6,
            max_features: 0.7,
            sample_fraction: 0.9,
            seed,
            ..ForestParams::default()
        };
        let seq = ForestModel::fit_threaded(&x, &y, &params, 1);
        let reference = seq.predict(&x);
        for threads in [2usize, 4, 24] {
            let pooled = ForestModel::fit_threaded(&x, &y, &params, threads);
            assert_bits_eq(
                &reference,
                &pooled.predict(&x),
                &format!("forest seed {seed} threads {threads}"),
            );
            assert_bits_eq(
                seq.feature_importance(),
                pooled.feature_importance(),
                &format!("forest gains seed {seed} threads {threads}"),
            );
        }
    }
}

#[test]
fn forest_seeds_still_decorrelate_trees() {
    // The per-tree seeding refactor must keep different forest seeds
    // producing different forests (and identical seeds identical ones).
    let (x, y) = synthetic_xy(200, 4, 33);
    let base = ForestParams { n_trees: 10, ..ForestParams::default() };
    let a = ForestModel::fit(&x, &y, &base).predict(&x);
    let b = ForestModel::fit(&x, &y, &base).predict(&x);
    assert_eq!(a, b, "same seed must reproduce");
    let c = ForestModel::fit(&x, &y, &ForestParams { seed: 1, ..base }).predict(&x);
    assert_ne!(a, c, "adjacent seeds must differ");
}
