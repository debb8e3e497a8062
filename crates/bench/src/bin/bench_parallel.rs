//! `bench_parallel` — wall-clock benchmark of the deterministic parallel
//! execution layer across its four hot paths (sharded feature sweep, pooled
//! step training, per-step batch prediction, batch Status Queries), at 1x
//! and 4x RCC scale.
//!
//! Every parallel run is checked bit-for-bit against its sequential
//! counterpart before the timing is reported, so the numbers can never come
//! from a diverged code path. Output is machine-readable JSON (see
//! `scripts/bench.sh`, which writes `BENCH_pr2.json`).
//!
//! ```text
//! bench_parallel [--threads N] [--scales 1,4] [--out FILE]
//! ```

use domd_bench::util::time_ms;
use domd_core::{PipelineConfig, PipelineInputs, TrainedPipeline};
use domd_data::{generate, Dataset, GeneratorConfig};
use domd_features::FeatureEngine;
use domd_index::{RccArena, StatusQuery, StatusView};

/// Best of `runs` timed repetitions (discards scheduler noise, which only
/// ever slows a run down).
fn best_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = time_ms(&mut f);
    for _ in 1..runs {
        let (o, ms) = time_ms(&mut f);
        if ms < best {
            best = ms;
            out = o;
        }
    }
    (out, best)
}

struct PathResult {
    name: &'static str,
    seq_ms: f64,
    par_ms: f64,
    identical: bool,
}

impl PathResult {
    fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"seq_ms\":{:.3},\"par_ms\":{:.3},\"speedup\":{:.3},\"identical\":{}}}",
            self.name,
            self.seq_ms,
            self.par_ms,
            self.seq_ms / self.par_ms.max(1e-9),
            self.identical
        )
    }
}

fn grid() -> Vec<f64> {
    (0..=10).map(|i| f64::from(i) * 10.0).collect()
}

fn quick_config() -> PipelineConfig {
    let mut c = PipelineConfig::default0();
    c.k = 12;
    c.grid_step = 25.0; // 5 timeline models
    c.gbt.n_estimators = 40;
    c
}

fn bench_scale(scale: u32, threads: usize, runs: usize) -> Vec<PathResult> {
    let ds: Dataset =
        generate(&GeneratorConfig { n_avails: 60, target_rccs: 9000, scale, seed: 0xD0_4D });
    let ids: Vec<_> = ds.avails().iter().map(|a| a.id).collect();
    let engine = FeatureEngine::default();
    let grid = grid();
    let mut out = Vec::new();

    // Path 1: sharded incremental feature sweep.
    let (t_seq, seq_ms) =
        best_ms(runs, || engine.generate_tensor_threaded(&ds, &ids, &grid, 1));
    let (t_par, par_ms) =
        best_ms(runs, || engine.generate_tensor_threaded(&ds, &ids, &grid, threads));
    let identical = (0..t_seq.n_steps()).all(|s| {
        t_seq.slice(s).as_slice().iter().zip(t_par.slice(s).as_slice()).all(|(a, b)| {
            a.to_bits() == b.to_bits()
        })
    });
    out.push(PathResult { name: "feature_sweep", seq_ms, par_ms, identical });

    // Paths 2 and 4: pooled step training and per-step batch prediction.
    let inputs = PipelineInputs::build(&ds, 25.0);
    let split = ds.split(1);
    let cfg = quick_config();
    let (p_seq, seq_ms) =
        best_ms(runs, || TrainedPipeline::fit_threaded(&inputs, &split.train, &cfg, 1));
    let (p_par, par_ms) =
        best_ms(runs, || TrainedPipeline::fit_threaded(&inputs, &split.train, &cfg, threads));
    let identical = domd_core::save_pipeline(&p_seq) == domd_core::save_pipeline(&p_par);
    out.push(PathResult { name: "step_training", seq_ms, par_ms, identical });

    let (pr_seq, seq_ms) = best_ms(runs, || p_seq.predict_steps_threaded(&inputs, &ids, 1));
    let (pr_par, par_ms) =
        best_ms(runs, || p_seq.predict_steps_threaded(&inputs, &ids, threads));
    let identical = pr_seq
        .as_slice()
        .iter()
        .zip(pr_par.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    out.push(PathResult { name: "predict_steps", seq_ms, par_ms, identical });

    // Path 3: batch Status Query aggregates over the arena and group trees.
    let sq = StatusView::from_arena(std::sync::Arc::new(RccArena::from_dataset(&ds)));
    let mut queries = Vec::new();
    for t in 0..200u32 {
        for status in domd_data::rcc::RccStatus::FEATURE_STATUSES {
            queries.push(StatusQuery {
                rcc_type: None,
                swlin_prefix: Some((1 + t % 9, 1)),
                status,
                t_star: f64::from(t % 101),
            });
        }
    }
    let (a_seq, seq_ms) = best_ms(runs, || sq.aggregate_batch(&queries, 1));
    let (a_par, par_ms) = best_ms(runs, || sq.aggregate_batch(&queries, threads));
    let identical = a_seq == a_par;
    out.push(PathResult { name: "batch_query", seq_ms, par_ms, identical });

    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
    };
    let threads: usize = get("--threads")
        .map(|v| v.parse().expect("--threads takes a number"))
        .filter(|&t| t > 0)
        .unwrap_or_else(domd_runtime::available_threads);
    let scales: Vec<u32> = get("--scales")
        .unwrap_or_else(|| "1,4".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("--scales takes comma-separated integers"))
        .collect();
    let runs: usize = get("--runs").map(|v| v.parse().expect("--runs takes a number")).unwrap_or(2);
    let out_path = get("--out");

    eprintln!(
        "bench_parallel: threads={threads} (available={}), scales={scales:?}, runs={runs}",
        domd_runtime::available_threads()
    );
    let mut scale_blocks = Vec::new();
    for &scale in &scales {
        eprintln!("-- scale {scale}x --");
        let results = bench_scale(scale, threads, runs);
        for r in &results {
            eprintln!(
                "  {:<18} seq {:>9.1} ms  par {:>9.1} ms  speedup {:>5.2}x  identical={}",
                r.name,
                r.seq_ms,
                r.par_ms,
                r.seq_ms / r.par_ms.max(1e-9),
                r.identical
            );
            assert!(r.identical, "{} diverged from sequential output", r.name);
        }
        let paths: Vec<String> = results.iter().map(PathResult::json).collect();
        scale_blocks
            .push(format!("{{\"scale\":{},\"paths\":[{}]}}", scale, paths.join(",")));
    }
    let json = format!(
        "{{\"bench\":\"pr2_parallel_runtime\",\"threads\":{},\"available_threads\":{},\"runs\":{},\"scales\":[{}]}}\n",
        threads,
        domd_runtime::available_threads(),
        runs,
        scale_blocks.join(",")
    );
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("writing bench output");
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
