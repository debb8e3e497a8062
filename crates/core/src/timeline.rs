//! Timeline model training: the `1 + ceil(100/x)` supervised models of
//! Problem 1, one per logical-time grid point, each trained on the tensor
//! slice at its anchor plus the static features.
//!
//! Two architectures (Section 3.2.2, Figure 4):
//! * **non-stacked** — statics and selected RCC features enter one model;
//! * **stacked** — a static-only base model produces a "base prediction",
//!   which the per-step timeline models consume alongside the selected RCC
//!   features.
//!
//! Online prediction (a DoMD query on a live avail) runs three stages:
//! a feature stage that evaluates, per avail, only each reached step
//! model's `selected` catalog columns at the step's anchor, from one read
//! of the avail's RCC partition ([`FeatureEngine::project_for_avail`]);
//! a model stage in which each reached step predicts every avail of the
//! request as one block; and a per-avail repair of non-finite steps
//! followed by fusion. An alert runs them over all ongoing avails at once
//! ([`TrainedPipeline::predict_online_batch`]); a single predict, in
//! `domd serve` and `domd query` alike, is the one-avail case
//! ([`TrainedPipeline::predict_online_checked`]). No feature row is
//! memoized: every answer is computed from the dataset it is asked of.

use crate::config::{ModelFamily, PipelineConfig};
use domd_data::dataset::Dataset;
use domd_data::logical_time::TimeGrid;
use domd_data::{Avail, AvailId};
use domd_features::{static_matrix, FeatureEngine, FeatureTensor, N_STATIC, STATIC_FEATURE_NAMES};
use domd_ml::{DenseMatrix, GbtParams, ModelSpec, TrainedModel};
use domd_runtime::Cancelled;

/// Everything the pipeline needs to train and evaluate: the feature tensor,
/// the static matrix, and the delay targets for a fixed avail ordering.
#[derive(Debug, Clone)]
pub struct PipelineInputs {
    /// RCC-feature tensor (rows follow `avail_ids`).
    pub tensor: FeatureTensor,
    /// Static feature matrix (same row order).
    pub statics: DenseMatrix,
    /// True delays in days (same row order).
    pub delays: Vec<f64>,
}

impl PipelineInputs {
    /// Materializes inputs for all *closed* avails of `dataset` over the
    /// grid implied by `grid_step`.
    pub fn build(dataset: &Dataset, grid_step: f64) -> Self {
        let ids: Vec<AvailId> = dataset.closed_avails().map(|a| a.id).collect();
        PipelineInputs::build_for(dataset, &ids, grid_step)
    }

    /// Materializes inputs for a chosen set of closed avails (the rolling
    /// backtest trains on growing historical prefixes).
    pub fn build_for(dataset: &Dataset, ids: &[AvailId], grid_step: f64) -> Self {
        let grid = TimeGrid::new(grid_step);
        let engine = FeatureEngine::default();
        let tensor = engine.generate_tensor(dataset, ids, grid.points());
        let statics = static_matrix(dataset, ids);
        let delays = ids
            .iter()
            // domd-lint: allow(no-panic) — training ids are drawn from the dataset's closed avails by every caller
            .map(|id| f64::from(dataset.avail(*id).unwrap().delay().expect("closed")))
            .collect();
        PipelineInputs { tensor, statics, delays }
    }

    /// The avail ordering of the rows.
    pub fn avail_ids(&self) -> &[AvailId] {
        self.tensor.avail_ids()
    }

    /// Row indices of the given avails (panics when one is missing).
    pub fn rows_for(&self, ids: &[AvailId]) -> Vec<usize> {
        ids.iter()
            .map(|id| {
                // domd-lint: allow(no-panic) — documented panic contract: callers pass ids of this same tensor
                self.tensor.row_of(*id).unwrap_or_else(|| panic!("avail {id} not in inputs"))
            })
            .collect()
    }

    /// Targets of the given rows.
    pub fn targets_of(&self, rows: &[usize]) -> Vec<f64> {
        rows.iter().map(|&r| self.delays[r]).collect()
    }

    /// The logical grid.
    pub fn grid(&self) -> &[f64] {
        self.tensor.grid()
    }
}

/// The artifacts of one per-step model.
#[derive(Debug, Clone)]
pub struct StepModel {
    /// Anchor logical time of this model.
    pub t_star: f64,
    /// Selected RCC-feature column indices (into the tensor), ascending.
    pub selected: Vec<usize>,
    /// The fitted model.
    pub model: TrainedModel,
}

/// The result of a degradation-aware online prediction: the fused
/// estimates per reached grid point, plus one warning per serving-time
/// repair. An empty warning list means the pipeline served at full
/// fidelity; a non-empty one marks the answer as degraded.
#[derive(Debug, Clone)]
pub struct OnlinePrediction {
    /// `(grid point, fused estimate)` pairs, every estimate finite.
    pub estimates: Vec<(f64, f64)>,
    /// What had to be repaired to serve this answer.
    pub warnings: Vec<String>,
}

/// A fully trained timeline pipeline.
#[derive(Debug, Clone)]
pub struct TrainedPipeline {
    /// The configuration used.
    pub config: PipelineConfig,
    /// The static-only base model (stacked architecture only).
    pub static_model: Option<TrainedModel>,
    /// One model per grid point.
    pub steps: Vec<StepModel>,
    /// Feature names of the tensor columns (for explanations).
    pub feature_names: Vec<String>,
}

fn model_spec(config: &PipelineConfig, step_seed: u64) -> ModelSpec {
    match config.family {
        ModelFamily::Gbt => ModelSpec::Gbt(GbtParams {
            loss: config.loss,
            seed: config.seed ^ step_seed,
            ..config.gbt
        }),
        ModelFamily::ElasticNet => ModelSpec::ElasticNet(config.enet),
    }
}

impl TrainedPipeline {
    /// Trains the pipeline on the `train_ids` rows of `inputs`.
    ///
    /// Feature selection runs per step on the training rows only (no
    /// leakage); statics are always included, bypassing selection. The
    /// per-step models are independent given the (sequentially trained)
    /// static base model, so they train on the shared bounded worker pool
    /// ([`domd_runtime`]); per-step seeding keeps the result identical to
    /// the sequential order for every thread count.
    pub fn fit(inputs: &PipelineInputs, train_ids: &[AvailId], config: &PipelineConfig) -> Self {
        TrainedPipeline::fit_threaded(inputs, train_ids, config, domd_runtime::threads())
    }

    /// As [`TrainedPipeline::fit`] with an explicit worker cap (`1` =
    /// fully sequential).
    pub fn fit_threaded(
        inputs: &PipelineInputs,
        train_ids: &[AvailId],
        config: &PipelineConfig,
        threads: usize,
    ) -> Self {
        let rows = inputs.rows_for(train_ids);
        let y = inputs.targets_of(&rows);
        let statics_train = inputs.statics.select_rows(&rows);

        let static_model = if config.stacked {
            Some(model_spec(config, 0xBA5E).fit(&statics_train, &y))
        } else {
            None
        };
        let static_preds: Option<Vec<f64>> =
            static_model.as_ref().map(|m| m.predict(&statics_train));

        let fit_step = |s: usize, t_star: f64| -> StepModel {
            let slice_train = inputs.tensor.slice(s).select_rows(&rows);
            let selected =
                config.selection.select(&slice_train, &y, config.k, config.seed ^ (s as u64));
            let rcc_train = slice_train.select_cols(&selected);
            let x = assemble(
                &statics_train,
                static_preds.as_deref(),
                &rcc_train,
                config.stacked,
            );
            let model = model_spec(config, s as u64).fit(&x, &y);
            StepModel { t_star, selected, model }
        };

        // Bounded pool instead of one thread per grid point: a fine grid
        // (e.g. `--grid-step 1` = 101 models) no longer spawns 101 threads.
        let grid = inputs.grid();
        let steps: Vec<StepModel> =
            domd_runtime::par_map(threads, grid, |s, &t_star| fit_step(s, t_star));

        TrainedPipeline {
            config: config.clone(),
            static_model,
            steps,
            feature_names: inputs.tensor.names().to_vec(),
        }
    }

    /// Raw per-step predictions for the given avails: a matrix with one row
    /// per avail and one column per grid point. Steps evaluate on the
    /// shared worker pool; see [`TrainedPipeline::predict_steps_threaded`].
    pub fn predict_steps(&self, inputs: &PipelineInputs, ids: &[AvailId]) -> DenseMatrix {
        self.predict_steps_threaded(inputs, ids, domd_runtime::threads())
    }

    /// As [`TrainedPipeline::predict_steps`] with an explicit worker cap.
    /// Each step's predictions are independent; columns merge back in step
    /// order, so the matrix is bit-identical to sequential evaluation.
    pub fn predict_steps_threaded(
        &self,
        inputs: &PipelineInputs,
        ids: &[AvailId],
        threads: usize,
    ) -> DenseMatrix {
        let rows = inputs.rows_for(ids);
        let statics = inputs.statics.select_rows(&rows);
        let static_preds: Option<Vec<f64>> =
            self.static_model.as_ref().map(|m| m.predict(&statics));
        let cols: Vec<Vec<f64>> = domd_runtime::par_map(threads, &self.steps, |s, step| {
            let rcc = inputs.tensor.slice(s).select_rows(&rows).select_cols(&step.selected);
            let x = assemble(&statics, static_preds.as_deref(), &rcc, self.config.stacked);
            // Batch predict hits the flat kernel's tree-at-a-time block
            // sweep (bit-identical to per-row calls, far fewer cold loads).
            step.model.predict(&x)
        });
        let mut out = DenseMatrix::zeros(ids.len(), self.steps.len());
        for (s, col) in cols.iter().enumerate() {
            for (i, v) in col.iter().enumerate() {
                out.set(i, s, *v);
            }
        }
        out
    }

    /// Fused predictions at grid index `upto_step` (inclusive) using the
    /// configured fusion — the estimate a DoMD query reports at that point
    /// of the timeline.
    pub fn predict_fused(
        &self,
        inputs: &PipelineInputs,
        ids: &[AvailId],
        upto_step: usize,
    ) -> Vec<f64> {
        self.fuse_matrix(&self.predict_steps(inputs, ids), upto_step)
    }

    /// Applies the configured fusion to precomputed per-step predictions.
    pub fn fuse_matrix(&self, step_preds: &DenseMatrix, upto_step: usize) -> Vec<f64> {
        assert!(upto_step < self.steps.len());
        (0..step_preds.n_rows())
            .map(|i| self.config.fusion.fuse(&step_preds.row(i)[..=upto_step]))
            .collect()
    }

    /// Predicts for one (possibly ongoing) avail directly from the dataset
    /// at an arbitrary logical time, fusing across the reached grid points.
    /// Returns `(grid point, fused estimate)` pairs per Problem 1.
    ///
    /// Convenience wrapper over [`TrainedPipeline::predict_online_checked`]
    /// that discards the degradation warnings.
    pub fn predict_online(
        &self,
        dataset: &Dataset,
        engine: &FeatureEngine,
        avail: AvailId,
        t_star: f64,
    ) -> Vec<(f64, f64)> {
        self.predict_online_checked(dataset, engine, avail, t_star).estimates
    }

    /// As [`TrainedPipeline::predict_online`], but degradation-aware: a
    /// serving-time fault never panics and never leaks a non-finite
    /// estimate. Instead the answer is repaired and each repair recorded:
    ///
    /// * a stacked pipeline whose static base model is missing (or
    ///   produces a non-finite base prediction) serves with a `0.0` base
    ///   prediction;
    /// * a step whose model emits NaN/±Inf is replaced by the nearest
    ///   (by grid index) step that produced a finite prediction;
    /// * when *every* reached step is non-finite, or the pipeline has no
    ///   step models at all, the answer carries no estimates.
    ///
    /// The one-avail case of [`TrainedPipeline::predict_online_batch`].
    pub fn predict_online_checked(
        &self,
        dataset: &Dataset,
        engine: &FeatureEngine,
        avail: AvailId,
        t_star: f64,
    ) -> OnlinePrediction {
        let reached = self.reached_steps(t_star);
        let rows = [project_steps(dataset, engine, avail, reached)];
        self.predict_projected(dataset, &[avail], reached, &rows).swap_remove(0)
    }

    /// Online prediction for every avail of `avails` at one `t_star`,
    /// answer for answer equal to
    /// [`TrainedPipeline::predict_online_checked`] on each avail.
    ///
    /// * **Feature stage** — each avail's projected rows of every reached
    ///   step, fanned over at most `threads` workers with `cancel` polled
    ///   before every avail; results merge in input order, so the output
    ///   is identical for every thread count. When `cancel` fires, the
    ///   call returns `Err(Cancelled)` and predicts nothing.
    /// * **Model stage** — each reached step predicts all avails with one
    ///   [`TrainedModel::predict`] over a block (the flat kernel's lockstep
    ///   sweep, bit-identical to per-row descents); a stacked pipeline's
    ///   base model predicts all statics the same way.
    /// * **Repair and fusion** — per avail, as documented on
    ///   [`TrainedPipeline::predict_online_checked`].
    pub fn predict_online_batch(
        &self,
        dataset: &Dataset,
        engine: &FeatureEngine,
        avails: &[AvailId],
        t_star: f64,
        threads: usize,
        cancel: impl Fn() -> bool + Sync,
    ) -> Result<Vec<OnlinePrediction>, Cancelled> {
        let reached = self.reached_steps(t_star);
        let rows = domd_runtime::par_map_cancellable(threads, avails, cancel, |_, &avail| {
            project_steps(dataset, engine, avail, reached)
        })?;
        Ok(self.predict_projected(dataset, avails, reached, &rows))
    }

    /// The steps an online prediction at `t_star` reaches: the first step,
    /// then every later one up to the first anchored past `t_star` (a NaN
    /// `t_star` reaches them all).
    fn reached_steps(&self, t_star: f64) -> &[StepModel] {
        let end = self
            .steps
            .iter()
            .enumerate()
            .position(|(s, step)| s > 0 && step.t_star > t_star)
            .unwrap_or(self.steps.len());
        &self.steps[..end]
    }

    /// Model stage, repair and fusion of every online predict. `rows[i]`
    /// holds `avails[i]`'s feature-stage output: each reached step's
    /// `selected` columns at the step's anchor, in step order.
    fn predict_projected(
        &self,
        dataset: &Dataset,
        avails: &[AvailId],
        reached: &[StepModel],
        rows: &[Vec<f64>],
    ) -> Vec<OnlinePrediction> {
        let found: Vec<Option<&Avail>> = avails.iter().map(|&id| dataset.avail(id)).collect();
        // The avails the models see, as (position in `avails`, avail).
        let live: Vec<(usize, &Avail)> = if self.steps.is_empty() {
            Vec::new()
        } else {
            found.iter().enumerate().filter_map(|(i, a)| Some((i, (*a)?))).collect()
        };
        let mut statics = DenseMatrix::zeros(live.len(), N_STATIC);
        for (r, (_, a)) in live.iter().enumerate() {
            statics.row_mut(r).copy_from_slice(&domd_features::static_row(a));
        }
        let mut warnings: Vec<Vec<String>> = vec![Vec::new(); avails.len()];
        let base: Option<Vec<f64>> = self.config.stacked.then(|| match &self.static_model {
            Some(m) => m
                .predict(&statics)
                .into_iter()
                .zip(&live)
                .map(|(p, &(i, _))| {
                    if p.is_finite() {
                        return p;
                    }
                    warnings[i].push(format!(
                        "static base model produced a non-finite prediction ({p}); \
                         serving with 0.0 base prediction"
                    ));
                    0.0
                })
                .collect(),
            None => {
                for &(i, _) in &live {
                    warnings[i].push(
                        "stacked pipeline is missing its static base model; \
                         serving with 0.0 base prediction"
                            .to_string(),
                    );
                }
                vec![0.0; live.len()]
            }
        });

        // Raw per-step predictions: one block per reached step.
        let lead = if base.is_some() { 1 } else { N_STATIC };
        let mut raw: Vec<Vec<f64>> =
            avails.iter().map(|_| Vec::with_capacity(reached.len())).collect();
        let mut off = 0;
        for step in reached {
            let cols = off..off + step.selected.len();
            let mut x = DenseMatrix::zeros(live.len(), lead + cols.len());
            for (r, &(i, _)) in live.iter().enumerate() {
                let row = x.row_mut(r);
                match &base {
                    Some(b) => row[0] = b[r],
                    None => row[..lead].copy_from_slice(statics.row(r)),
                }
                row[lead..].copy_from_slice(&rows[i][cols.clone()]);
            }
            for (p, &(i, _)) in step.model.predict(&x).into_iter().zip(&live) {
                raw[i].push(p);
            }
            off = cols.end;
        }

        avails
            .iter()
            .zip(found)
            .zip(warnings.into_iter().zip(raw))
            .map(|((&avail, a), (warnings, raw))| {
                if a.is_none() {
                    return OnlinePrediction {
                        estimates: Vec::new(),
                        warnings: vec![format!("avail {avail} is not in the bound dataset")],
                    };
                }
                if self.steps.is_empty() {
                    return OnlinePrediction {
                        estimates: Vec::new(),
                        warnings: vec!["pipeline has no trained step models".to_string()],
                    };
                }
                self.repair_and_fuse(reached, warnings, raw)
            })
            .collect()
    }

    /// Repairs non-finite step predictions from the nearest finite
    /// neighbour, then fuses each reached prefix.
    fn repair_and_fuse(
        &self,
        reached: &[StepModel],
        mut warnings: Vec<String>,
        mut raw: Vec<f64>,
    ) -> OnlinePrediction {
        let finite: Vec<usize> =
            raw.iter().enumerate().filter(|(_, v)| v.is_finite()).map(|(i, _)| i).collect();
        if finite.is_empty() {
            warnings.push(format!(
                "all {} reached step predictions were non-finite; no estimate available",
                raw.len()
            ));
            return OnlinePrediction { estimates: Vec::new(), warnings };
        }
        if finite.len() < raw.len() {
            for i in 0..raw.len() {
                if !raw[i].is_finite() {
                    let nearest =
                        // domd-lint: allow(no-panic) — the all-non-finite case returned early above
                        *finite.iter().min_by_key(|&&j| i.abs_diff(j)).expect("finite non-empty");
                    warnings.push(format!(
                        "step t*={} produced a non-finite prediction; \
                         substituted nearest trained step t*={}",
                        reached[i].t_star, reached[nearest].t_star
                    ));
                    raw[i] = raw[nearest];
                }
            }
        }

        let estimates = (0..raw.len())
            .map(|s| (reached[s].t_star, self.config.fusion.fuse(&raw[..=s])))
            .collect();
        OnlinePrediction { estimates, warnings }
    }

    /// Human-readable names of the features offered to the model at `step`:
    /// statics (or the base prediction) followed by the selected RCC
    /// features, matching the model's input column order.
    pub fn step_input_names(&self, step: usize) -> Vec<String> {
        let mut names: Vec<String> = if self.config.stacked {
            vec!["STATIC_BASE_PREDICTION".to_string()]
        } else {
            STATIC_FEATURE_NAMES.iter().map(|s| s.to_string()).collect()
        };
        names.extend(self.steps[step].selected.iter().map(|&j| self.feature_names[j].clone()));
        names
    }
}

/// Feature stage of one avail: each reached step's `selected` columns at
/// the step's anchor, concatenated in step order (empty for an avail that
/// is not in `dataset`). The avail's partition is read once.
fn project_steps(
    dataset: &Dataset,
    engine: &FeatureEngine,
    avail: AvailId,
    reached: &[StepModel],
) -> Vec<f64> {
    let Some(a) = dataset.avail(avail) else {
        return Vec::new();
    };
    let mut row = Vec::with_capacity(reached.iter().map(|step| step.selected.len()).sum());
    let anchors = reached.iter().map(|step| (step.t_star, step.selected.as_slice()));
    engine.project_for_avail(dataset, a, anchors, &mut row);
    row
}

/// Assembles the model input matrix for one architecture.
fn assemble(
    statics: &DenseMatrix,
    static_preds: Option<&[f64]>,
    rcc: &DenseMatrix,
    stacked: bool,
) -> DenseMatrix {
    if stacked {
        // domd-lint: allow(no-panic) — stacked callers always compute base predictions first
        let preds = static_preds.expect("stacked needs base predictions");
        let base = DenseMatrix::from_rows(preds.to_vec(), preds.len(), 1);
        base.hstack(rcc)
    } else {
        statics.hstack(rcc)
    }
}

/// Per-step validation error of fused predictions, summed over the
/// timeline — the inner objective of every greedy optimization task
/// (Equation 2's `sum over t*` of validation absolute error, reported as
/// the mean MAE across steps).
pub fn timeline_validation_mae(
    pipeline: &TrainedPipeline,
    inputs: &PipelineInputs,
    val_ids: &[AvailId],
) -> f64 {
    let rows = inputs.rows_for(val_ids);
    let truth = inputs.targets_of(&rows);
    let step_preds = pipeline.predict_steps(inputs, val_ids);
    let n_steps = pipeline.steps.len();
    let mut total = 0.0;
    for s in 0..n_steps {
        let fused = pipeline.fuse_matrix(&step_preds, s);
        total += domd_ml::mae(&truth, &fused);
    }
    total / n_steps as f64
}

/// As [`timeline_validation_mae`] but returning the per-step series (used
/// by the figures that plot MAE over the planned duration).
pub fn timeline_mae_series(
    pipeline: &TrainedPipeline,
    inputs: &PipelineInputs,
    ids: &[AvailId],
) -> Vec<f64> {
    let rows = inputs.rows_for(ids);
    let truth = inputs.targets_of(&rows);
    let step_preds = pipeline.predict_steps(inputs, ids);
    (0..pipeline.steps.len())
        .map(|s| domd_ml::mae(&truth, &pipeline.fuse_matrix(&step_preds, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_data::{generate, GeneratorConfig};
    use domd_ml::Loss;

    fn quick_config() -> PipelineConfig {
        let mut c = PipelineConfig::default0();
        c.k = 12;
        c.grid_step = 25.0; // 5 models
        c.gbt.n_estimators = 40;
        c
    }

    fn setup() -> (domd_data::Dataset, PipelineInputs) {
        let ds = generate(&GeneratorConfig { n_avails: 60, target_rccs: 6000, scale: 1, seed: 2 });
        let inputs = PipelineInputs::build(&ds, 25.0);
        (ds, inputs)
    }

    #[test]
    fn inputs_shapes() {
        let (ds, inputs) = setup();
        assert_eq!(inputs.avail_ids().len(), 60);
        assert_eq!(inputs.grid(), &[0.0, 25.0, 50.0, 75.0, 100.0]);
        assert_eq!(inputs.statics.n_cols(), 8);
        assert_eq!(inputs.delays.len(), 60);
        let a0 = inputs.avail_ids()[0];
        assert_eq!(inputs.delays[0], f64::from(ds.avail(a0).unwrap().delay().unwrap()));
    }

    #[test]
    fn fit_and_predict_non_stacked() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let p = TrainedPipeline::fit(&inputs, &split.train, &quick_config());
        assert_eq!(p.steps.len(), 5);
        assert!(p.static_model.is_none());
        for s in &p.steps {
            assert_eq!(s.selected.len(), 12);
        }
        let preds = p.predict_steps(&inputs, &split.validation);
        assert_eq!(preds.n_rows(), split.validation.len());
        assert_eq!(preds.n_cols(), 5);
        assert!(preds.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_error_beats_mean_baseline() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let mut cfg = quick_config();
        cfg.gbt.n_estimators = 150;
        let p = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        let rows = inputs.rows_for(&split.train);
        let truth = inputs.targets_of(&rows);
        let fused = p.predict_fused(&inputs, &split.train, 4);
        let mean = domd_ml::stats::mean(&truth);
        let base = domd_ml::mae(&truth, &vec![mean; truth.len()]);
        let fit_err = domd_ml::mae(&truth, &fused);
        assert!(fit_err < base * 0.5, "fit {fit_err} vs baseline {base}");
    }

    #[test]
    fn stacked_architecture_has_base_model() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let mut cfg = quick_config();
        cfg.stacked = true;
        let p = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        assert!(p.static_model.is_some());
        let preds = p.predict_steps(&inputs, &split.validation);
        assert!(preds.as_slice().iter().all(|v| v.is_finite()));
        let names = p.step_input_names(0);
        assert_eq!(names[0], "STATIC_BASE_PREDICTION");
        assert_eq!(names.len(), 1 + 12);
    }

    #[test]
    fn non_stacked_input_names_start_with_statics() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let p = TrainedPipeline::fit(&inputs, &split.train, &quick_config());
        let names = p.step_input_names(2);
        assert_eq!(&names[..8], &STATIC_FEATURE_NAMES.map(String::from));
        assert_eq!(names.len(), 8 + 12);
    }

    #[test]
    fn online_prediction_matches_offline_for_closed_avail() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let mut cfg = quick_config();
        cfg.fusion = crate::config::Fusion::Average;
        let p = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        let engine = FeatureEngine::default();
        let victim = split.validation[0];
        let online = p.predict_online(&ds, &engine, victim, 100.0);
        assert_eq!(online.len(), 5);
        let step_preds = p.predict_steps(&inputs, &[victim]);
        for (s, (t, fused)) in online.iter().enumerate() {
            assert_eq!(*t, inputs.grid()[s]);
            let offline = p.fuse_matrix(&step_preds, s)[0];
            assert!(
                (fused - offline).abs() < 1e-6 * (1.0 + offline.abs()),
                "step {s}: online {fused} offline {offline}"
            );
        }
    }

    #[test]
    fn online_prediction_respects_horizon() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let p = TrainedPipeline::fit(&inputs, &split.train, &quick_config());
        let engine = FeatureEngine::default();
        let online = p.predict_online(&ds, &engine, split.validation[0], 55.0);
        // Grid 0,25,50,75,100: points reached by t*=55 are 0,25,50.
        assert_eq!(online.len(), 3);
        assert_eq!(online.last().unwrap().0, 50.0);
    }

    #[test]
    fn validation_mae_is_positive_and_finite() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let p = TrainedPipeline::fit(&inputs, &split.train, &quick_config());
        let mae = timeline_validation_mae(&p, &inputs, &split.validation);
        assert!(mae.is_finite() && mae > 0.0);
        let series = timeline_mae_series(&p, &inputs, &split.validation);
        assert_eq!(series.len(), 5);
        let avg = series.iter().sum::<f64>() / 5.0;
        assert!((avg - mae).abs() < 1e-9);
    }

    /// A model that predicts NaN for any input row: elastic net fit on a
    /// NaN target keeps zero coefficients and a NaN intercept.
    fn nan_model() -> TrainedModel {
        let x = DenseMatrix::from_vec_of_rows(std::slice::from_ref(&vec![1.0]));
        ModelSpec::ElasticNet(domd_ml::ElasticNetParams::default()).fit(&x, &[f64::NAN])
    }

    #[test]
    fn degraded_serving_repairs_non_finite_step_from_nearest_neighbour() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let mut cfg = quick_config();
        cfg.fusion = crate::config::Fusion::Average;
        let mut p = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        p.steps[2].model = nan_model();
        let engine = FeatureEngine::default();
        let victim = split.validation[0];
        let out = p.predict_online_checked(&ds, &engine, victim, 100.0);
        assert_eq!(out.estimates.len(), 5);
        assert!(out.estimates.iter().all(|(_, e)| e.is_finite()), "{:?}", out.estimates);
        assert_eq!(out.warnings.len(), 1, "{:?}", out.warnings);
        assert!(out.warnings[0].contains("t*=50"), "{:?}", out.warnings);
        assert!(out.warnings[0].contains("nearest trained step"), "{:?}", out.warnings);
        // The healthy steps are untouched: estimate at step 0 matches the
        // unrepaired pipeline's.
        let healthy = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        let clean = healthy.predict_online_checked(&ds, &engine, victim, 100.0);
        assert!(clean.warnings.is_empty());
        assert_eq!(out.estimates[0], clean.estimates[0]);
    }

    #[test]
    fn degraded_serving_survives_missing_base_model() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let mut cfg = quick_config();
        cfg.stacked = true;
        let mut p = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        p.static_model = None;
        let engine = FeatureEngine::default();
        let out = p.predict_online_checked(&ds, &engine, split.validation[0], 100.0);
        assert_eq!(out.estimates.len(), 5);
        assert!(out.estimates.iter().all(|(_, e)| e.is_finite()));
        assert!(out.warnings.iter().any(|w| w.contains("base model")), "{:?}", out.warnings);
    }

    #[test]
    fn degraded_serving_with_all_steps_broken_returns_no_estimates() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        let mut p = TrainedPipeline::fit(&inputs, &split.train, &quick_config());
        for s in &mut p.steps {
            s.model = nan_model();
        }
        let engine = FeatureEngine::default();
        let out = p.predict_online_checked(&ds, &engine, split.validation[0], 100.0);
        assert!(out.estimates.is_empty());
        assert!(out.warnings.iter().any(|w| w.contains("non-finite")), "{:?}", out.warnings);
        // Unknown avail: warning instead of panic.
        let missing = p.predict_online_checked(&ds, &engine, AvailId(424242), 50.0);
        assert!(missing.estimates.is_empty());
        assert!(!missing.warnings.is_empty());
    }

    /// Asserts two answer lists equal: estimates `to_bits`, warnings
    /// string for string.
    fn assert_same_answers(got: &[OnlinePrediction], want: &[OnlinePrediction], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let bits = |p: &OnlinePrediction| -> Vec<(u64, u64)> {
                p.estimates.iter().map(|(t, e)| (t.to_bits(), e.to_bits())).collect()
            };
            assert_eq!(bits(g), bits(w), "{ctx}, answer {i}: {g:?} vs {w:?}");
            assert_eq!(g.warnings, w.warnings, "{ctx}, answer {i}");
        }
    }

    #[test]
    fn batch_online_prediction_matches_the_full_row_path_to_the_bit() {
        let (ds, inputs) = setup();
        let split = ds.split(1);
        // Censor six avails mid-flight so ongoing avails, some not yet
        // started, sit beside closed ones.
        let victims: Vec<AvailId> = split.validation.iter().take(6).copied().collect();
        let as_of = ds.avail(victims[0]).unwrap().actual_start + 60;
        let (live, _) = domd_data::censor_ongoing(&ds, &victims, as_of);
        let mut ids: Vec<AvailId> = live.avails().iter().map(|a| a.id).collect();
        ids.insert(7, AvailId(424242)); // unknown to the dataset
        let engine = FeatureEngine::default();

        let plain = TrainedPipeline::fit(&inputs, &split.train, &quick_config());
        let mut cfg = quick_config();
        cfg.stacked = true;
        let stacked = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        let mut nan_step = plain.clone();
        nan_step.steps[2].model = nan_model();
        let mut stacked_nan_step = stacked.clone();
        stacked_nan_step.steps[1].model = nan_model();
        let mut no_base = stacked.clone();
        no_base.static_model = None;
        let mut nan_base = stacked.clone();
        nan_base.static_model = Some(nan_model());
        let mut all_nan = plain.clone();
        for s in &mut all_nan.steps {
            s.model = nan_model();
        }
        let mut no_steps = plain.clone();
        no_steps.steps.clear();

        let pipelines = [
            ("non-stacked", &plain),
            ("stacked", &stacked),
            ("one NaN step", &nan_step),
            ("stacked, one NaN step", &stacked_nan_step),
            ("missing base model", &no_base),
            ("NaN base model", &nan_base),
            ("all steps NaN", &all_nan),
            ("no steps", &no_steps),
        ];
        for (name, p) in pipelines {
            for t in [-5.0, 0.0, 25.0, 55.0, 100.0, 150.0] {
                // The full-row path: every reached anchor's whole catalog
                // row from the reference scan, indexed by the step's
                // columns, then the same model stage, repair and fusion.
                let reached = p.reached_steps(t);
                let rows: Vec<Vec<f64>> = ids
                    .iter()
                    .map(|&id| match live.avail(id) {
                        Some(_) => reached
                            .iter()
                            .flat_map(|step| {
                                let full = engine.features_for_avail_at(&live, id, step.t_star);
                                step.selected.iter().map(move |&j| full[j])
                            })
                            .collect(),
                        None => Vec::new(),
                    })
                    .collect();
                let want = p.predict_projected(&live, &ids, reached, &rows);
                for threads in [1, 2] {
                    let got = p
                        .predict_online_batch(&live, &engine, &ids, t, threads, || false)
                        .expect("a cancel that never fires");
                    let ctx = format!("{name}, t*={t}, {threads} thread(s)");
                    assert_same_answers(&got, &want, &ctx);
                }
                let single: Vec<OnlinePrediction> =
                    ids.iter().map(|&id| p.predict_online_checked(&live, &engine, id, t)).collect();
                assert_same_answers(&single, &want, &format!("{name}, t*={t}, one avail"));
            }
        }

        // An oracle that shares no serving code: the per-anchor loop with
        // a full catalog row and one `predict_row` descent per step.
        for p in [&plain, &stacked] {
            for t in [-5.0, 25.0, 55.0, 150.0] {
                for a in live.avails() {
                    let statics = domd_features::static_row(a);
                    let base = p.static_model.as_ref().map(|m| m.predict_row(&statics));
                    let (mut raw, mut want) = (Vec::new(), Vec::new());
                    for step in &p.steps {
                        if step.t_star > t && !raw.is_empty() {
                            break;
                        }
                        let full = engine.features_for_avail_at(&live, a.id, step.t_star);
                        let mut row = base.map_or(statics.to_vec(), |b| vec![b]);
                        row.extend(step.selected.iter().map(|&j| full[j]));
                        raw.push(step.model.predict_row(&row));
                        want.push((step.t_star.to_bits(), p.config.fusion.fuse(&raw).to_bits()));
                    }
                    let got: Vec<(u64, u64)> = p
                        .predict_online_checked(&live, &engine, a.id, t)
                        .estimates
                        .iter()
                        .map(|(t, e)| (t.to_bits(), e.to_bits()))
                        .collect();
                    assert_eq!(got, want, "avail {} at t*={t}", a.id);
                }
            }
        }

        // The degraded cases really degrade, and a healthy answer is clean.
        let answer = |p: &TrainedPipeline| p.predict_online_checked(&live, &engine, ids[0], 100.0);
        assert!(answer(&plain).warnings.is_empty());
        for p in [&nan_step, &stacked_nan_step, &no_base, &nan_base, &all_nan, &no_steps] {
            assert!(!answer(p).warnings.is_empty());
        }

        // A cancel that fires abandons the batch at every thread count.
        for threads in [1, 2] {
            let cancelled =
                plain.predict_online_batch(&live, &engine, &ids, 55.0, threads, || true);
            assert!(cancelled.is_err(), "{threads} thread(s)");
        }
        let empty = plain.predict_online_batch(&live, &engine, &[], 55.0, 2, || true);
        assert!(empty.expect("nothing to cancel").is_empty());
    }

    #[test]
    fn loss_flows_into_gbt_spec() {
        let mut cfg = quick_config();
        cfg.loss = Loss::PseudoHuber(18.0);
        match model_spec(&cfg, 3) {
            ModelSpec::Gbt(p) => assert_eq!(p.loss, Loss::PseudoHuber(18.0)),
            _ => panic!("expected GBT"),
        }
    }
}
