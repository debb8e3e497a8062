//! Ablation studies beyond the paper's figures:
//!
//! * **fusion-ablation** — the extended fusion set (median,
//!   recency-weighted) the paper leaves as future work (Task 6);
//! * **delta-sweep** — sensitivity of the pseudo-Huber threshold δ around
//!   the paper's tuned value of 18 (Section 5.2.2 reports tuning δ);
//! * **dynamic-index** — streaming insert/delete maintenance cost of the
//!   dual-AVL index (Section 4.1 motivates O(log n) dynamic updates);
//! * **incremental-ablation** — the Section 4.3 claim isolated: identical
//!   index, identical queries, incremental vs from-scratch processing.

use crate::modeling::ModelingContext;
use crate::util::{mean_time_ms, scaled_dataset};
use domd_core::{timeline_mae_series, Fusion, PipelineConfig, TrainedPipeline};
use domd_index::{
    project_dataset, sweep_from_scratch, sweep_incremental, FlatAvlIndex, LogicalTimeIndex,
    NaiveJoinIndex, RccArena, RowColumns, StatusQuery, StatusView,
};
use domd_data::rcc::{RccStatus, RccType};
use domd_ml::{
    DenseMatrix, ElasticNetModel, ElasticNetParams, ForestModel, ForestParams, GbtModel,
    GbtParams, Loss, SelectionMethod,
};

/// Extended fusion comparison (one training run, five fusion operators).
pub fn fusion_ablation(ctx: &ModelingContext, config: &PipelineConfig) -> String {
    let p = TrainedPipeline::fit(&ctx.inputs, &ctx.split().train, config);
    let mut out = String::from(
        "Ablation — extended fusion set (validation mean MAE; median & recency are\nthis repo's implementations of the paper's future-work ensembling)\n",
    );
    for fusion in Fusion::EXTENDED {
        let mut p2 = p.clone();
        p2.config.fusion = fusion;
        let series = timeline_mae_series(&p2, &ctx.inputs, &ctx.split().validation);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        out.push_str(&format!("  {:<14} {:>8.2}\n", fusion.name(), mean));
    }
    out
}

/// Pseudo-Huber δ sensitivity around the paper's tuned δ = 18.
pub fn delta_sweep(ctx: &ModelingContext, config: &PipelineConfig) -> String {
    let mut out = String::from(
        "Ablation — pseudo-Huber delta sweep (validation mean MAE; paper tunes delta to 18)\n",
    );
    for delta in [6.0, 12.0, 18.0, 30.0, 60.0, 120.0] {
        let c = PipelineConfig { loss: Loss::PseudoHuber(delta), ..config.clone() };
        let p = TrainedPipeline::fit(&ctx.inputs, &ctx.split().train, &c);
        let series = timeline_mae_series(&p, &ctx.inputs, &ctx.split().validation);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        out.push_str(&format!("  delta = {delta:>5.0}: {mean:>8.2}\n"));
    }
    out
}

/// Streaming maintenance: time to insert / remove a 10% batch of RCCs into
/// a live dual-AVL index, with correctness spot-checks.
pub fn dynamic_index() -> String {
    let ds = scaled_dataset(1);
    let projected = project_dataset(&ds);
    let n = projected.len();
    let split = n - n / 10;
    let (bulk, stream) = projected.split_at(split);

    let mut out = String::from(
        "Ablation — dynamic maintenance of the dual-AVL index (Section 4.1's O(log n)\ninsert/delete story; the batch is 10% of the RCC table)\n",
    );
    let insert_ms = mean_time_ms(3, || {
        let mut idx = FlatAvlIndex::build(bulk);
        for r in stream {
            idx.insert(r);
        }
        idx
    }) - mean_time_ms(3, || FlatAvlIndex::build(bulk));
    let mut idx = FlatAvlIndex::build(bulk);
    for r in stream {
        idx.insert(r);
    }
    // Queries over the streamed index match a naive join over everything.
    let full = NaiveJoinIndex::build(&projected);
    for t in [10.0, 50.0, 90.0] {
        assert_eq!(idx.active_at(t), full.active_at(t), "stream/naive divergence at {t}");
    }
    let remove_ms = mean_time_ms(3, || {
        let mut idx2 = idx.clone();
        for r in stream {
            idx2.remove(r);
        }
        idx2
    });
    out.push_str(&format!(
        "  incremental insert of {} RCCs: {:.1} ms ({:.2} us/insert)\n",
        stream.len(),
        insert_ms.max(0.0),
        insert_ms.max(0.0) * 1e3 / stream.len() as f64,
    ));
    out.push_str(&format!(
        "  remove of the same batch:      {:.1} ms ({:.2} us/remove)\n",
        remove_ms,
        remove_ms * 1e3 / stream.len() as f64,
    ));
    out.push_str("  streamed index answers identical to a naive join over all rows: verified\n");
    out
}

/// Incremental vs from-scratch processing on the *same* AVL index — the
/// Section 4.3 effect isolated from the index-design comparison.
pub fn incremental_ablation() -> String {
    let mut out = String::from(
        "Ablation — incremental StatStructure vs from-scratch on the same AVL index\n scale |  incremental ms | from-scratch ms | speedup\n",
    );
    for scale in [1u32, 5, 10] {
        let ds = scaled_dataset(scale);
        let projected = project_dataset(&ds);
        let amounts: Vec<f64> = ds.rccs().iter().map(|r| r.amount).collect();
        let durations: Vec<f64> =
            ds.rccs().iter().map(|r| f64::from(r.duration_days())).collect();
        let groups: Vec<usize> = ds
            .rccs()
            .iter()
            .map(|r| r.rcc_type.index() * 10 + r.swlin.digit(1) as usize)
            .collect();
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };
        let grid: Vec<f64> = (0..=10).map(|i| f64::from(i) * 10.0).collect();
        let avl = FlatAvlIndex::build(&projected);
        let inc = mean_time_ms(3, || sweep_incremental(&avl, cols, 30, &grid, |_, _, _| {}));
        let scr = mean_time_ms(3, || sweep_from_scratch(&avl, cols, 30, &grid, |_, _, _| {}));
        out.push_str(&format!(
            "{:>5}x | {:>14.1} | {:>14.1} | {:>6.1}x\n",
            scale,
            inc,
            scr,
            scr / inc
        ));
    }
    out
}

/// Base-model family ablation beyond Figure 6b's pair: random forest joins
/// the comparison (the paper's candidate set M is open-ended — "Linear
/// Regression, Gradient Boosted Trees, etc."). Evaluated at the 50% model
/// with the paper's Pearson-k selection, averaged over the split panel.
pub fn model_ablation(ctx: &ModelingContext, config: &PipelineConfig) -> String {
    let step = ctx.inputs.grid().len() / 2;
    let mut sums = [0.0f64; 3];
    for split in &ctx.splits {
        let train_rows = ctx.inputs.rows_for(&split.train);
        let val_rows = ctx.inputs.rows_for(&split.validation);
        let y_train = ctx.inputs.targets_of(&train_rows);
        let y_val = ctx.inputs.targets_of(&val_rows);
        let slice_train = ctx.inputs.tensor.slice(step).select_rows(&train_rows);
        let slice_val = ctx.inputs.tensor.slice(step).select_rows(&val_rows);
        let selected =
            SelectionMethod::Pearson.select(&slice_train, &y_train, config.k, config.seed);
        let x_train: DenseMatrix = ctx
            .inputs
            .statics
            .select_rows(&train_rows)
            .hstack(&slice_train.select_cols(&selected));
        let x_val: DenseMatrix = ctx
            .inputs
            .statics
            .select_rows(&val_rows)
            .hstack(&slice_val.select_cols(&selected));

        let gbt = GbtModel::fit(&x_train, &y_train, &GbtParams {
            loss: Loss::PseudoHuber(18.0),
            seed: config.seed,
            ..config.gbt
        });
        sums[0] += domd_ml::mae(&y_val, &gbt.predict(&x_val));
        let forest = ForestModel::fit(&x_train, &y_train, &ForestParams {
            seed: config.seed,
            ..Default::default()
        });
        sums[1] += domd_ml::mae(&y_val, &forest.predict(&x_val));
        let enet = ElasticNetModel::fit(&x_train, &y_train, &ElasticNetParams::default());
        sums[2] += domd_ml::mae(&y_val, &enet.predict(&x_val));
    }
    let n = ctx.splits.len() as f64;
    format!(
        "Ablation — base model families at the 50% model (validation MAE, split panel)
  gbt (pseudo-huber)   {:>8.2}
  random-forest        {:>8.2}
  elastic-net          {:>8.2}
(the paper's M contains GBT and linear regression; the forest isolates what
boosting adds over bagging here)
",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
    )
}

/// Feature-catalog depth ablation: does descending one SWLIN level (the
/// extended 5810-feature catalog) beat the paper's 1490 subsystem-level
/// features? Evaluated with the paper's selection protocol at the 50%
/// model over the split panel.
pub fn feature_depth_ablation(ctx: &ModelingContext, config: &PipelineConfig) -> String {
    use domd_features::{static_matrix, FeatureCatalog, FeatureEngine};
    let mut out = String::from(
        "Ablation — feature catalog depth at the 50% model (validation MAE, split panel)
",
    );
    for (label, catalog) in [
        ("subsystem (1490 features)", FeatureCatalog::standard()),
        ("module    (5810 features)", FeatureCatalog::extended()),
    ] {
        let engine = FeatureEngine::new(catalog);
        let ids: Vec<domd_data::AvailId> =
            ctx.dataset.closed_avails().map(|a| a.id).collect();
        let tensor = engine.generate_tensor(&ctx.dataset, &ids, &[50.0]);
        let statics = static_matrix(&ctx.dataset, &ids);
        let row_of = |id: &domd_data::AvailId| tensor.row_of(*id).expect("closed avail");
        let mut total = 0.0;
        for split in &ctx.splits {
            let train_rows: Vec<usize> = split.train.iter().map(row_of).collect();
            let val_rows: Vec<usize> = split.validation.iter().map(row_of).collect();
            let delay = |rows: &[usize]| -> Vec<f64> {
                rows.iter()
                    .map(|&r| {
                        let id = tensor.avail_ids()[r];
                        f64::from(ctx.dataset.avail(id).unwrap().delay().expect("closed"))
                    })
                    .collect()
            };
            let y_train = delay(&train_rows);
            let y_val = delay(&val_rows);
            let slice_train = tensor.slice(0).select_rows(&train_rows);
            let slice_val = tensor.slice(0).select_rows(&val_rows);
            let selected = SelectionMethod::Pearson
                .select(&slice_train, &y_train, config.k, config.seed);
            let x_train =
                statics.select_rows(&train_rows).hstack(&slice_train.select_cols(&selected));
            let x_val = statics.select_rows(&val_rows).hstack(&slice_val.select_cols(&selected));
            let m = GbtModel::fit(&x_train, &y_train, &GbtParams {
                loss: Loss::PseudoHuber(18.0),
                seed: config.seed,
                ..config.gbt
            });
            total += domd_ml::mae(&y_val, &m.predict(&x_val));
        }
        out.push_str(&format!("  {label}  {:>8.2}
", total / ctx.splits.len() as f64));
    }
    out.push_str(
        "(both pick the same k; deeper groups only help if module-level spend carries
signal the subsystem totals hide)
",
    );
    out
}

/// Status Query latency by GROUP BY, at 1x, 4x and 20x: the unfiltered
/// query and the three RCC types (the heavy groups, answered from the
/// per-type run directories), then the SWLIN hierarchy nodes at each
/// depth (Figure 3 groups by `SWLIN_Level_no`; each node's rows are
/// walked and tested against the arena). Every group is asked each of
/// the three statuses over the 11-step `t*` grid; the heavy rows repeat
/// that set [`HEAVY_PASSES`] times so their totals are long enough to
/// time.
pub fn groupby_depth_ablation() -> String {
    groupby_depth_ablation_at(&[1, 4, 20], 4)
}

/// Repetitions of the heavy rows' query set.
const HEAVY_PASSES: usize = 50;

/// As [`groupby_depth_ablation`] over `scales`, descending to `max_depth`
/// (tests use one scale and a shallow sweep).
pub fn groupby_depth_ablation_at(scales: &[u32], max_depth: u32) -> String {
    let grid: Vec<f64> = (0..=10).map(|i| f64::from(i) * 10.0).collect();
    let mut out = String::from(
        "Ablation — Status Query latency by GROUP BY (3 statuses x 11-step grid per group)\n \
         scale |      rows | group      | groups |  queries | total ms | us/query\n",
    );
    for &scale in scales {
        let ds = scaled_dataset(scale);
        let view = StatusView::from_arena(std::sync::Arc::new(RccArena::from_dataset(&ds)));
        type Group = (Option<RccType>, Option<(u32, u32)>);
        let mut rows: Vec<(String, Vec<Group>, usize)> = vec![
            ("unfiltered".into(), vec![(None, None)], HEAVY_PASSES),
            ("type".into(), RccType::ALL.iter().map(|&t| (Some(t), None)).collect(), HEAVY_PASSES),
        ];
        let mut nodes = vec![(0u32, 0u32)]; // (prefix, len); start at root
        for depth in 1..=max_depth {
            nodes = nodes
                .iter()
                .flat_map(|&(p, l)| view.swlin_children(p, l).into_iter().map(move |c| (c, l + 1)))
                .collect();
            let groups = nodes.iter().map(|&n| (None, Some(n))).collect();
            rows.push((format!("SWLIN d{depth}"), groups, 1));
        }
        for (label, groups, passes) in rows {
            let mut queries = Vec::with_capacity(grid.len() * groups.len() * 3);
            for &t_star in &grid {
                for &(rcc_type, swlin_prefix) in &groups {
                    for status in RccStatus::FEATURE_STATUSES {
                        queries.push(StatusQuery { rcc_type, swlin_prefix, status, t_star });
                    }
                }
            }
            let ms = mean_time_ms(3, || {
                let mut acc = 0.0;
                for _ in 0..passes {
                    for q in &queries {
                        acc += view.aggregate(q).sum_amount;
                    }
                }
                std::hint::black_box(acc)
            });
            let n_queries = queries.len() * passes;
            out.push_str(&format!(
                "{:>5}x | {:>9} | {:<10} | {:>6} | {:>8} | {:>8.1} | {:>8.2}\n",
                scale,
                ds.rccs().len(),
                label,
                groups.len(),
                n_queries,
                ms,
                ms * 1e3 / n_queries as f64,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_core::PipelineInputs;
    use domd_data::{generate, GeneratorConfig};

    fn tiny_ctx() -> ModelingContext {
        let dataset =
            generate(&GeneratorConfig { n_avails: 30, target_rccs: 2000, scale: 1, seed: 4 });
        let inputs = PipelineInputs::build(&dataset, 50.0);
        let splits = vec![dataset.split(1)];
        ModelingContext { dataset, inputs, splits }
    }

    fn tiny_cfg() -> PipelineConfig {
        let mut c = PipelineConfig::default0();
        c.gbt.n_estimators = 25;
        c.k = 6;
        c.grid_step = 50.0;
        c
    }

    #[test]
    fn fusion_ablation_lists_all_five() {
        let s = fusion_ablation(&tiny_ctx(), &tiny_cfg());
        for name in ["none", "min", "average", "median", "recency(0.7)"] {
            assert!(s.contains(name), "missing {name} in:\n{s}");
        }
    }

    #[test]
    fn delta_sweep_covers_paper_value() {
        let s = delta_sweep(&tiny_ctx(), &tiny_cfg());
        assert!(s.contains("delta =    18"));
        assert_eq!(s.matches("delta =").count(), 6);
    }

    #[test]
    fn groupby_depth_renders_requested_rows() {
        let s = groupby_depth_ablation_at(&[1], 2);
        for label in ["unfiltered", "type", "SWLIN d1", "SWLIN d2"] {
            assert!(s.contains(label), "missing {label} in:\n{s}");
        }
        assert_eq!(s.lines().count(), 2 + 4, "{s}");
    }

    #[test]
    fn incremental_ablation_reports_speedup() {
        // Only check the renderer at scale 1 via the public function would
        // regenerate the full dataset; keep it to a format check on a
        // stripped-down call.
        let s = incremental_ablation();
        assert!(s.contains("speedup"));
        assert!(s.contains("1x"));
    }
}
