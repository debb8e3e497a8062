//! `bench_gbt` — batch-predict throughput of the branchless flat-forest
//! kernel versus the pointer walker, plus the cost of exact-greedy
//! training at fleet scale on both ways a tree orders its root rows:
//! `model_fit_ms` (the bench model, `subsample 0.9`, so every round's
//! shuffled rows take the stable counting sort) and `exact_fit_ms` (one
//! tree on every row in order, which copies the fit-wide column orders).
//!
//! One boosted ensemble is trained, then two inference arms score the
//! same row matrices at growing scales: `pointer` walks the enum trees
//! row-by-row (`GbtModel::predict_pointer`, the pre-kernel code path) and
//! `flat` runs the compiled pool tree-at-a-time over row blocks
//! (`GbtModel::predict`). Both arms are gated on `to_bits`-identical
//! predictions before any timing counts.
//!
//! Per-arm columns report minima over `--runs` interleaved rounds (the
//! interference-free floor on a shared container); the headline speedup
//! is the *median of per-round paired ratios*, where both arms of a
//! ratio saw the same container load phase. The acceptance target is a
//! ≥5x flat-vs-pointer speedup at the largest scale.
//!
//! ```text
//! bench_gbt [--scales 1,4,20] [--runs 3] [--trees 600] [--depth 10]
//!           [--rows 2048] [--train-rows 16384] [--out FILE]
//! ```
//!
//! The default model (600 trees × depth 10, trained on 16384 rows) is the
//! fleet-scale regime the kernel exists for: the pointer ensemble's node
//! pool is tens of MB, so its per-row full-model sweep chases dependent
//! pointers through cold cache, while the flat kernel streams each tree's
//! contiguous pool once per row block.

use domd_bench::util::time_ms;
use domd_ml::{DenseMatrix, GbtModel, GbtParams, RegressionTree, TreeParams};

/// Deterministic SplitMix64 stream for the synthetic matrices.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Feature count of every matrix in this bench (the paper's pipelines
/// assemble ~2 static + ~20 RCC columns; 24 matches that regime).
const N_FEATURES: usize = 24;

fn synthetic_xy(n: usize, seed: u64) -> (DenseMatrix, Vec<f64>) {
    let mut rng = Mix(seed);
    let mut data = Vec::with_capacity(n * N_FEATURES);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..N_FEATURES).map(|_| rng.unit() * 6.0 - 3.0).collect();
        y.push(2.0 * row[0] + row[1] * row[2] + (row[3] * 2.0).sin() * 3.0 + rng.unit() * 0.2);
        data.extend_from_slice(&row);
    }
    (DenseMatrix::from_rows(data, n, N_FEATURES), y)
}

fn identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

struct ScaleResult {
    scale: u32,
    n_rows: usize,
    pointer_ms: f64,
    flat_ms: f64,
    flat_speedup: f64,
}

impl ScaleResult {
    fn json(&self) -> String {
        format!(
            "{{\"scale\":{},\"n_rows\":{},\"pointer_ms\":{:.3},\"flat_ms\":{:.3},\"flat_speedup\":{:.2},\"bit_identical\":true}}",
            self.scale, self.n_rows, self.pointer_ms, self.flat_ms, self.flat_speedup
        )
    }
}

fn bench_scale(model: &GbtModel, base_rows: usize, scale: u32, runs: usize) -> ScaleResult {
    let n = base_rows * scale as usize;
    let (x, _) = synthetic_xy(n, 0xBEEF ^ u64::from(scale));

    // Bit-identity gate: the flat arm must reproduce the pointer walker's
    // exact bits before any timing is reported.
    let want = model.predict_pointer(&x);
    assert!(identical(&want, &model.predict(&x)), "flat arm diverged at scale {scale}");

    // Interleaved rounds: per-arm minima + median of per-round paired
    // ratios (both sides of a ratio see the same container load phase).
    let mut pointer_ms = f64::INFINITY;
    let mut flat_ms = f64::INFINITY;
    let mut flat_ratios = Vec::with_capacity(runs);
    for _ in 0..runs {
        let (_, p_ms) = time_ms(|| model.predict_pointer(&x));
        let (_, f_ms) = time_ms(|| model.predict(&x));
        pointer_ms = pointer_ms.min(p_ms);
        flat_ms = flat_ms.min(f_ms);
        flat_ratios.push(p_ms / f_ms);
    }

    ScaleResult { scale, n_rows: n, pointer_ms, flat_ms, flat_speedup: median(flat_ratios) }
}

struct TrainResult {
    rows: usize,
    exact_ms: f64,
    exact_mse: f64,
}

impl TrainResult {
    fn json(&self) -> String {
        format!(
            "{{\"rows\":{},\"exact_fit_ms\":{:.3},\"exact_train_mse\":{:.4}}}",
            self.rows, self.exact_ms, self.exact_mse
        )
    }
}

/// One exact-greedy tree fit (squared loss, depth 6) over every row and
/// feature, column ranking included: the per-tree cost of a fit at this
/// row count. Its root is every row in order, so the tree copies the
/// orders the column sort produced. Reports the minimum over `runs`.
fn bench_training(rows: usize, runs: usize) -> TrainResult {
    let (x, y) = synthetic_xy(rows, 0x7EA1);
    let grad: Vec<f64> = y.iter().map(|v| -v).collect();
    let hess = vec![1.0; rows];
    let all_rows: Vec<usize> = (0..rows).collect();
    let feats: Vec<usize> = (0..N_FEATURES).collect();
    let params = TreeParams { max_depth: 6, ..TreeParams::default() };

    let mut exact_ms = f64::INFINITY;
    let mut tree = None;
    for _ in 0..runs {
        let (t, ms) = time_ms(|| RegressionTree::fit(&x, &grad, &hess, &all_rows, &feats, params));
        exact_ms = exact_ms.min(ms);
        tree = Some(t);
    }
    let tree = tree.expect("--runs is at least 1");
    let exact_mse =
        (0..rows).map(|i| (tree.predict_row(x.row(i)) - y[i]).powi(2)).sum::<f64>() / rows as f64;
    TrainResult { rows, exact_ms, exact_mse }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|v| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
    };
    let scales: Vec<u32> = get("--scales")
        .unwrap_or_else(|| "1,4,20".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("--scales takes comma-separated integers"))
        .collect();
    let runs: usize = get("--runs").map(|v| v.parse().expect("--runs takes a number")).unwrap_or(3);
    let trees: usize =
        get("--trees").map(|v| v.parse().expect("--trees takes a number")).unwrap_or(600);
    let depth: usize =
        get("--depth").map(|v| v.parse().expect("--depth takes a number")).unwrap_or(10);
    let base_rows: usize =
        get("--rows").map(|v| v.parse().expect("--rows takes a number")).unwrap_or(2048);
    let train_rows: usize = get("--train-rows")
        .map(|v| v.parse().expect("--train-rows takes a number"))
        .unwrap_or(16384);
    let out_path = get("--out");

    eprintln!(
        "bench_gbt: scales={scales:?}, runs={runs}, trees={trees}, depth={depth}, rows={base_rows}, train_rows={train_rows}"
    );
    let (x_train, y_train) = synthetic_xy(train_rows, 0x5EED);
    let params = GbtParams {
        n_estimators: trees,
        max_depth: depth,
        subsample: 0.9,
        colsample_bytree: 0.9,
        ..GbtParams::default()
    };
    let (model, fit_ms) = time_ms(|| GbtModel::fit(&x_train, &y_train, &params));
    eprintln!("  trained {} trees on {train_rows} rows in {fit_ms:.0} ms", model.n_trees());

    let training = bench_training(train_rows * 4, runs);
    eprintln!(
        "  tree fit @ {} rows: exact {:>8.1} ms  mse {:.3}",
        training.rows, training.exact_ms, training.exact_mse
    );

    let mut blocks = Vec::new();
    let largest = scales.iter().copied().max().unwrap_or(1);
    for &scale in &scales {
        let r = bench_scale(&model, base_rows, scale, runs);
        eprintln!(
            "  scale {:>2}x ({:>6} rows)  pointer {:>8.1} ms  flat {:>7.1} ms ({:.1}x)",
            r.scale, r.n_rows, r.pointer_ms, r.flat_ms, r.flat_speedup
        );
        if scale == largest && r.flat_speedup < 5.0 {
            eprintln!(
                "  WARNING: flat speedup {:.2}x misses the 5x acceptance target at {scale}x",
                r.flat_speedup
            );
        }
        blocks.push(r.json());
    }
    let json = format!(
        "{{\"bench\":\"gbt_flat_kernel\",\"cpu\":{{\"model\":\"{}\"}},\"runs\":{},\"trees\":{},\"depth\":{},\"train_rows\":{},\"model_fit_ms\":{:.0},\"training\":{},\"scales\":[{}]}}\n",
        cpu_model().replace('"', "'"),
        runs,
        trees,
        depth,
        train_rows,
        fit_ms,
        training.json(),
        blocks.join(",")
    );
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("writing bench output");
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
