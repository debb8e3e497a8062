//! Cross-crate integration tests: the full generate → index → featurize →
//! train → evaluate → query path at reduced scale.

use domd::core::{
    explain, optimize, DomdQueryEngine, EvalTable, Fusion, OptimizerSettings, PipelineConfig,
    PipelineInputs, TrainedPipeline,
};
use domd::data::{censor_ongoing, generate, GeneratorConfig};
use domd::index::{project_dataset, FlatAvlIndex, LogicalTimeIndex, StatusQueryEngine};

fn small_dataset() -> domd::data::Dataset {
    generate(&GeneratorConfig { n_avails: 100, target_rccs: 9000, scale: 1, seed: 99 })
}

fn small_config() -> PipelineConfig {
    let mut c = PipelineConfig::paper_final();
    c.gbt.n_estimators = 120;
    c.k = 15;
    c.grid_step = 20.0;
    c
}

#[test]
fn full_pipeline_beats_baselines_on_test_set() {
    let ds = small_dataset();
    let split = ds.split(1);
    let inputs = PipelineInputs::build(&ds, 20.0);
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &small_config());
    let table = EvalTable::compute(&pipeline, &inputs, &split.test);

    let rows = inputs.rows_for(&split.test);
    let truth = inputs.targets_of(&rows);
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let baseline_mae = domd::ml::mae(&truth, &vec![mean; truth.len()]);

    assert!(table.average.mae_100 < baseline_mae, "must beat predict-the-mean");
    assert!(table.average.r2 > 0.0, "must explain some variance (r2 = {})", table.average.r2);
    // Late-timeline models see more information than the 0% model.
    let first = table.rows.first().unwrap().quality.mae_100;
    let last = table.rows.last().unwrap().quality.mae_100;
    assert!(last <= first * 1.1, "error should not grow along the timeline ({first} -> {last})");
}

#[test]
fn status_query_engine_consistent_with_feature_tensor() {
    // The total created-RCC count feature must equal a Status Query count.
    let ds = small_dataset();
    let projected = project_dataset(&ds);
    let engine = StatusQueryEngine::<FlatAvlIndex>::build(&ds, &projected);
    let features = domd::features::FeatureEngine::default();
    let a = ds.avails()[0].id;

    for t_star in [25.0, 50.0, 75.0] {
        let feats = features.features_for_avail_at(&ds, a, t_star);
        let names = features.catalog().names();
        let col = names.iter().position(|n| n == "ALLALL-COUNT_CRE").unwrap();
        // Count this avail's created RCCs through the query engine.
        let q = domd::index::StatusQuery {
            rcc_type: None,
            swlin_prefix: None,
            status: domd::data::RccStatus::Created,
            t_star,
        };
        let ids = engine.execute(&q);
        let count = ids
            .iter()
            .filter(|&&id| ds.rccs()[id as usize].avail == a)
            .count();
        assert_eq!(feats[col] as usize, count, "at t* = {t_star}");
    }
}

#[test]
fn greedy_optimization_end_to_end_quick() {
    // Smaller than the other tests: the greedy pass trains dozens of
    // timelines, and this test only checks wiring, not accuracy.
    let ds = generate(&GeneratorConfig { n_avails: 40, target_rccs: 3000, scale: 1, seed: 99 });
    let split = ds.split(2);
    let inputs = PipelineInputs::build(&ds, 25.0);
    let mut base = small_config();
    base.grid_step = 25.0;
    base.gbt.n_estimators = 40;
    let report = optimize(&inputs, std::slice::from_ref(&split), &OptimizerSettings::quick(), &base);
    // A final config was assembled from the candidate sets.
    let c = &report.final_config;
    assert!(c.k == 10 || c.k == 20);
    assert!(!report.task6.is_empty());
    // And it trains + evaluates.
    let p = TrainedPipeline::fit(&inputs, &split.train, c);
    let table = EvalTable::compute(&p, &inputs, &split.test);
    assert!(table.average.mae_100.is_finite());
}

#[test]
fn live_query_workflow_with_censored_data() {
    let ds = small_dataset();
    let split = ds.split(3);
    let inputs = PipelineInputs::build(&ds, 20.0);
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &small_config());

    // Take two test avails "live" at 40% of planned duration.
    let watched: Vec<_> = split.test.iter().take(2).copied().collect();
    let a0 = ds.avail(watched[0]).unwrap();
    // A day of margin keeps integer date rounding from landing at 39.x%.
    let as_of = a0.actual_start + (a0.planned_duration() * 2 / 5 + 1);
    let (live, truths) = censor_ongoing(&ds, &watched, as_of);
    assert_eq!(truths.len(), 2);

    let engine = DomdQueryEngine::new(&live, &pipeline);
    let ans = engine.query_at(watched[0], as_of).expect("avail started");
    assert!(!ans.estimates.is_empty());
    // Grid is 0,20,40,...: at t*=40% exactly 3 anchors are reached.
    assert_eq!(ans.estimates.len(), 3);
    assert!(ans.estimates.iter().all(|e| e.estimated_delay.is_finite()));
}

#[test]
fn explanations_surface_known_drivers() {
    let ds = small_dataset();
    let split = ds.split(4);
    let inputs = PipelineInputs::build(&ds, 50.0);
    let mut cfg = small_config();
    cfg.grid_step = 50.0;
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &cfg);
    // Explain every test avail's final-step prediction; at least some
    // explanations should cite the generator's true drivers (NG dollars,
    // prior delay history, growth spend).
    let mut driver_hits = 0;
    for &a in &split.test {
        let e = explain(&pipeline, &inputs, &split.train, a, 2, 5);
        assert_eq!(e.top.len(), 5);
        if e.top.iter().any(|c| {
            c.name.contains("NG") || c.name.contains("PRIOR_AVG_DELAY") || c.name.starts_with('G')
        }) {
            driver_hits += 1;
        }
    }
    assert!(
        driver_hits * 2 >= split.test.len(),
        "true drivers should appear in most explanations ({driver_hits}/{})",
        split.test.len()
    );
}

#[test]
fn fusion_changes_only_combination_not_models() {
    let ds = small_dataset();
    let split = ds.split(5);
    let inputs = PipelineInputs::build(&ds, 25.0);
    let mut cfg = small_config();
    cfg.grid_step = 25.0;
    cfg.fusion = Fusion::None;
    let p_none = TrainedPipeline::fit(&inputs, &split.train, &cfg);
    cfg.fusion = Fusion::Average;
    let p_avg = TrainedPipeline::fit(&inputs, &split.train, &cfg);
    // Same raw step predictions; different fused outputs after step 0.
    let raw_none = p_none.predict_steps(&inputs, &split.test);
    let raw_avg = p_avg.predict_steps(&inputs, &split.test);
    assert_eq!(raw_none.as_slice(), raw_avg.as_slice());
    let f_none = p_none.predict_fused(&inputs, &split.test, 3);
    let f_avg = p_avg.predict_fused(&inputs, &split.test, 3);
    assert_ne!(f_none, f_avg);
}

#[test]
fn scaled_dataset_preserves_modeling_targets() {
    // RCC scaling (Section 5.1) multiplies index workload, not delays.
    let base = generate(&GeneratorConfig { n_avails: 30, target_rccs: 2000, scale: 1, seed: 8 });
    let scaled = generate(&GeneratorConfig { n_avails: 30, target_rccs: 2000, scale: 4, seed: 8 });
    assert_eq!(base.avails(), scaled.avails());
    assert_eq!(scaled.rccs().len(), base.rccs().len() * 4);
    let idx = FlatAvlIndex::build(&project_dataset(&scaled));
    assert_eq!(idx.len(), scaled.rccs().len());
}
