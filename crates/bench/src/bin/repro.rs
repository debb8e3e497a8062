//! `repro` — regenerates every table and figure of the paper's evaluation
//! (Section 5) from the synthetic NMD.
//!
//! ```text
//! repro <experiment> [--quick]
//!
//! experiments:
//!   swlin    Figure 1  — SWLIN hierarchy walk
//!   fig2     Figure 2  — delay distribution
//!   table5   Table 5   — dataset statistics
//!   table6   Table 6   — index construction memory
//!   fig5a    Figure 5a — index creation time
//!   fig5b    Figure 5b — query processing time
//!   fig5c    Figure 5c — total time
//!   fig5     all of Table 6 + Figures 5a-5c in one measurement pass
//!   fig6a-f  Figure 6  — pipeline design studies (one per letter)
//!   table7   Table 7   — test-set quality with the paper-final config
//!   pipeline full greedy optimization (Tasks 2-6) + Table 7 on its output
//!   fusion-ablation   extended fusion operators (paper future work)
//!   delta-sweep       pseudo-Huber delta sensitivity around 18
//!   dynamic-index     streaming AVL insert/delete maintenance
//!   incremental       incremental vs from-scratch on the same index
//!   backtest          rolling-origin deployment replay (extension)
//!   groupby-depth     Status Query latency by GROUP BY (unfiltered, type, SWLIN depth; 1x/4x/20x)
//!   model-ablation    GBT vs random forest vs elastic net
//!   feature-depth     subsystem (1490) vs module (5810) feature catalogs
//!   all      everything above, in paper order
//!
//! `--quick` shrinks the scaling factors and search grids so the full suite
//! finishes quickly (useful for CI smoke runs).
//! ```

use domd_bench::modeling::{self, ModelingContext};
use domd_bench::{dataset_exp, scalability};
use domd_core::{OptimizerSettings, PipelineConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_default();

    let scales: &[u32] = if quick { &[1, 5] } else { &scalability::SCALES };
    let settings = if quick {
        OptimizerSettings {
            k_grid: vec![20, 60],
            trial_grid: vec![5, 10],
            chosen_trials: 10,
            ..OptimizerSettings::default()
        }
    } else {
        OptimizerSettings::default()
    };
    let base = if quick {
        let mut c = PipelineConfig::default0();
        c.gbt.n_estimators = 60;
        c
    } else {
        PipelineConfig::default0()
    };
    // Figures 6b-6f assume Task 2's outcome (pearson, k = 60), so they can
    // be regenerated individually without re-running the whole greedy pass.
    let after_task2 = PipelineConfig { k: if quick { 20 } else { 60 }, ..base.clone() };

    match what.as_str() {
        "swlin" => print!("{}", dataset_exp::swlin_hierarchy()),
        "fig2" => print!("{}", dataset_exp::fig2()),
        "table5" => print!("{}", dataset_exp::table5()),
        "table6" | "fig5a" | "fig5b" | "fig5c" | "fig5" => {
            let rows = scalability::measure(scales);
            match what.as_str() {
                "table6" => print!("{}", scalability::table6(&rows)),
                "fig5a" => print!("{}", scalability::fig5a(&rows)),
                "fig5b" => print!("{}", scalability::fig5b(&rows)),
                "fig5c" => print!("{}", scalability::fig5c(&rows)),
                _ => print!(
                    "{}\n{}\n{}\n{}",
                    scalability::table6(&rows),
                    scalability::fig5a(&rows),
                    scalability::fig5b(&rows),
                    scalability::fig5c(&rows)
                ),
            }
        }
        "fig6a" => with_ctx(|ctx| print!("{}", modeling::fig6a(ctx, &settings, &base))),
        "fig6b" => with_ctx(|ctx| print!("{}", modeling::fig6b(ctx, &after_task2))),
        "fig6c" => with_ctx(|ctx| print!("{}", modeling::fig6c(ctx, &after_task2))),
        "fig6d" => with_ctx(|ctx| print!("{}", modeling::fig6d(ctx, &settings, &after_task2))),
        "fig6e" => {
            let tuned = PipelineConfig {
                loss: domd_ml::Loss::PseudoHuber(18.0),
                ..after_task2.clone()
            };
            with_ctx(|ctx| print!("{}", modeling::fig6e(ctx, &settings, &tuned)))
        }
        "fig6f" => {
            let tuned = PipelineConfig {
                loss: domd_ml::Loss::PseudoHuber(18.0),
                ..after_task2.clone()
            };
            with_ctx(|ctx| print!("{}", modeling::fig6f(ctx, &tuned)))
        }
        "fusion-ablation" => {
            let tuned = PipelineConfig {
                loss: domd_ml::Loss::PseudoHuber(18.0),
                ..after_task2.clone()
            };
            with_ctx(|ctx| print!("{}", domd_bench::ablations::fusion_ablation(ctx, &tuned)))
        }
        "delta-sweep" => {
            with_ctx(|ctx| print!("{}", domd_bench::ablations::delta_sweep(ctx, &after_task2)))
        }
        "dynamic-index" => print!("{}", domd_bench::ablations::dynamic_index()),
        "backtest" => {
            let ds = domd_bench::util::standard_dataset();
            let mut cfg = domd_core::BacktestConfig::default();
            if quick {
                cfg.pipeline.gbt.n_estimators = 60;
                cfg.pipeline.grid_step = 25.0;
                cfg.eval_every_days = 365;
            }
            eprintln!("replaying the deployment loop (retrain at each as-of date)...");
            let points = domd_core::backtest(&ds, &cfg);
            print!("{}", domd_core::backtest::render(&points));
        }
        "groupby-depth" => print!("{}", domd_bench::ablations::groupby_depth_ablation()),
        "model-ablation" => {
            with_ctx(|ctx| print!("{}", domd_bench::ablations::model_ablation(ctx, &after_task2)))
        }
        "feature-depth" => with_ctx(|ctx| {
            print!("{}", domd_bench::ablations::feature_depth_ablation(ctx, &after_task2))
        }),
        "incremental" => print!("{}", domd_bench::ablations::incremental_ablation()),
        "table7" => {
            with_ctx(|ctx| print!("{}", modeling::table7(ctx, &PipelineConfig::paper_final())))
        }
        "pipeline" => with_ctx(|ctx| {
            eprintln!("running greedy optimization (Tasks 2-6)...");
            let report = modeling::full_optimization(ctx, &settings, &base);
            print!("{}", modeling::render_final_config(&report.final_config));
            print!("{}", modeling::table7(ctx, &report.final_config));
        }),
        "all" => {
            print!("{}", dataset_exp::swlin_hierarchy());
            println!();
            print!("{}", dataset_exp::fig2());
            println!();
            print!("{}", dataset_exp::table5());
            println!();
            let rows = scalability::measure(scales);
            print!("{}", scalability::table6(&rows));
            println!();
            print!("{}", scalability::fig5a(&rows));
            println!();
            print!("{}", scalability::fig5b(&rows));
            println!();
            print!("{}", scalability::fig5c(&rows));
            println!();
            let ctx = ModelingContext::standard();
            print!("{}", modeling::fig6a(&ctx, &settings, &base));
            println!();
            eprintln!("running greedy optimization (Tasks 2-6)...");
            let report = modeling::full_optimization(&ctx, &settings, &base);
            print!("{}", modeling::fig6b(&ctx, &report.final_config));
            println!();
            print!("{}", modeling::fig6c(&ctx, &report.final_config));
            println!();
            print!("{}", modeling::fig6d(&ctx, &settings, &report.final_config));
            println!();
            print!("{}", modeling::fig6e(&ctx, &settings, &report.final_config));
            println!();
            print!("{}", modeling::fig6f(&ctx, &report.final_config));
            println!();
            print!("{}", modeling::render_final_config(&report.final_config));
            println!();
            print!("{}", modeling::table7(&ctx, &report.final_config));
        }
        other => {
            eprintln!("unknown experiment {other:?}\n");
            eprintln!(
                "usage: repro <swlin|fig2|table5|table6|fig5a|fig5b|fig5c|fig5|fig6a|fig6b|fig6c|fig6d|fig6e|fig6f|table7|pipeline|fusion-ablation|delta-sweep|dynamic-index|incremental|groupby-depth|model-ablation|feature-depth|backtest|all> [--quick]"
            );
            std::process::exit(2);
        }
    }
}

fn with_ctx(f: impl FnOnce(&ModelingContext)) {
    let ctx = ModelingContext::standard();
    f(&ctx);
}
