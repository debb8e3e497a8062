//! DoMD queries (Problem 1): given a physical timestamp `t`, a model gap
//! interval `x`, and a set of avails, report delay estimates at every `x%`
//! of planned duration from the start of maintenance up to the current
//! logical time — the query an SMDII user issues against ongoing or future
//! avails.

use crate::timeline::TrainedPipeline;
use domd_data::dataset::Dataset;
use domd_data::{AvailId, Date};
use domd_features::FeatureEngine;

/// One estimate in a DoMD answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomdEstimate {
    /// Logical anchor of the estimate (percent of planned duration).
    pub t_star: f64,
    /// Fused delay estimate in days.
    pub estimated_delay: f64,
}

/// The answer for one avail.
#[derive(Debug, Clone)]
pub struct DomdAnswer {
    /// The avail queried.
    pub avail: AvailId,
    /// The avail's logical time at the query timestamp.
    pub t_star_now: f64,
    /// Estimates at `0, x, 2x, …` up to `t_star_now` (clamped to 100%).
    pub estimates: Vec<DomdEstimate>,
    /// True when the pipeline had to repair a serving-time fault (missing
    /// base model, non-finite step prediction) to produce this answer.
    /// Degraded answers are still served — the operator sees a number with
    /// a caveat instead of an outage — but should be treated as lower
    /// confidence.
    pub degraded: bool,
    /// One message per repair; empty when `degraded` is false.
    pub warnings: Vec<String>,
}

impl DomdAnswer {
    /// The most recent estimate (the headline number for the UI).
    pub fn latest(&self) -> Option<DomdEstimate> {
        self.estimates.last().copied()
    }
}

/// The query engine: a trained pipeline bound to a dataset snapshot.
/// Every answer takes the projected online path
/// ([`TrainedPipeline::predict_online_checked`]) on the bound dataset.
pub struct DomdQueryEngine<'a> {
    dataset: &'a Dataset,
    pipeline: &'a TrainedPipeline,
    features: FeatureEngine,
}

impl<'a> DomdQueryEngine<'a> {
    /// Binds `pipeline` to `dataset` (the censored, live view of NMD).
    pub fn new(dataset: &'a Dataset, pipeline: &'a TrainedPipeline) -> Self {
        DomdQueryEngine::with_engine(dataset, pipeline, FeatureEngine::default())
    }

    /// As [`DomdQueryEngine::new`] with a caller-provided feature engine
    /// (reused across retrains in the backtest loop).
    pub fn with_engine(
        dataset: &'a Dataset,
        pipeline: &'a TrainedPipeline,
        features: FeatureEngine,
    ) -> Self {
        DomdQueryEngine { dataset, pipeline, features }
    }

    /// Answers a DoMD query for one avail at physical time `t`.
    /// Returns `None` when the avail is unknown or has not started by `t`.
    pub fn query_at(&self, avail: AvailId, t: Date) -> Option<DomdAnswer> {
        let a = self.dataset.avail(avail)?;
        if t < a.actual_start {
            return None;
        }
        let t_star_now = a.logical_time_of(t);
        self.query_logical(avail, t_star_now)
    }

    /// Answers a DoMD query at a logical timestamp directly. Returns
    /// `None` when the avail is not in the bound dataset. Serving-time
    /// faults degrade the answer (see [`DomdAnswer::degraded`]) rather
    /// than panicking or dropping the query.
    pub fn query_logical(&self, avail: AvailId, t_star: f64) -> Option<DomdAnswer> {
        self.dataset.avail(avail)?;
        let online =
            self.pipeline.predict_online_checked(self.dataset, &self.features, avail, t_star);
        let estimates = online
            .estimates
            .into_iter()
            .map(|(t, e)| DomdEstimate { t_star: t, estimated_delay: e })
            .collect();
        Some(DomdAnswer {
            avail,
            t_star_now: t_star,
            estimates,
            degraded: !online.warnings.is_empty(),
            warnings: online.warnings,
        })
    }

    /// Answers a query for a whole set `A_q` of avails at physical time
    /// `t`, skipping avails that have not started.
    pub fn query_set(&self, avails: &[AvailId], t: Date) -> Vec<DomdAnswer> {
        avails.iter().filter_map(|&a| self.query_at(a, t)).collect()
    }

    /// The explicit degraded-mode serving path: the same answer as
    /// [`DomdQueryEngine::query_logical`], marked degraded with `reason`
    /// as its first warning.
    ///
    /// This is the route a tripped circuit breaker takes: the checked
    /// predictor repairs serving-time faults inline (the behaviour the
    /// breaker is protecting callers from depending on silently), and the
    /// flag tells the caller the tenant is quarantined.
    pub fn query_logical_degraded(
        &self,
        avail: AvailId,
        t_star: f64,
        reason: &str,
    ) -> Option<DomdAnswer> {
        self.dataset.avail(avail)?;
        let online =
            self.pipeline.predict_online_checked(self.dataset, &self.features, avail, t_star);
        let mut warnings = Vec::with_capacity(1 + online.warnings.len());
        warnings.push(reason.to_string());
        warnings.extend(online.warnings);
        let estimates = online
            .estimates
            .into_iter()
            .map(|(t, e)| DomdEstimate { t_star: t, estimated_delay: e })
            .collect();
        Some(DomdAnswer { avail, t_star_now: t_star, estimates, degraded: true, warnings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::timeline::PipelineInputs;
    use domd_data::{censor_ongoing, generate, GeneratorConfig};

    fn setup() -> (Dataset, TrainedPipeline) {
        let ds = generate(&GeneratorConfig { n_avails: 40, target_rccs: 3000, scale: 1, seed: 12 });
        let inputs = PipelineInputs::build(&ds, 25.0);
        let split = ds.split(5);
        let mut cfg = PipelineConfig::paper_final();
        cfg.gbt.n_estimators = 50;
        cfg.k = 10;
        cfg.grid_step = 25.0;
        let p = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        (ds, p)
    }

    #[test]
    fn paper_example_six_estimates_at_55_percent_with_x10() {
        // With x = 10% and t* in [50, 60), the paper's example produces 6
        // estimates (0..50). Our setup uses x = 25: t* = 55 reaches 0,25,50.
        let (ds, p) = setup();
        let engine = DomdQueryEngine::new(&ds, &p);
        let a = ds.avails()[0].id;
        let ans = engine.query_logical(a, 55.0).expect("known avail");
        assert_eq!(ans.estimates.len(), 3);
        assert_eq!(ans.estimates[0].t_star, 0.0);
        assert_eq!(ans.latest().unwrap().t_star, 50.0);
    }

    #[test]
    fn query_at_physical_time() {
        let (ds, p) = setup();
        let engine = DomdQueryEngine::new(&ds, &p);
        let a = &ds.avails()[3];
        let mid = a.actual_start + a.planned_duration() / 2;
        let ans = engine.query_at(a.id, mid).expect("avail started");
        assert!((ans.t_star_now - 50.0).abs() < 1.0);
        assert!(!ans.estimates.is_empty());
        // Before start: no answer.
        assert!(engine.query_at(a.id, a.actual_start + (-10)).is_none());
        // Unknown avail: no answer.
        assert!(engine.query_at(AvailId(9999), mid).is_none());
    }

    #[test]
    fn ongoing_avail_estimates_are_reasonable() {
        let (ds, p) = setup();
        // Censor one avail at 60% of its planned duration.
        let victim = ds.avails()[5].clone();
        let as_of = victim.actual_start + victim.planned_duration() * 6 / 10;
        let (live, truths) = censor_ongoing(&ds, &[victim.id], as_of);
        let engine = DomdQueryEngine::new(&live, &p);
        let ans = engine.query_at(victim.id, as_of).expect("started");
        let est = ans.latest().unwrap().estimated_delay;
        let truth = truths[0].1 as f64;
        // Not a tight bound — just sanity that the estimate is in the same
        // regime as the truth rather than wild.
        assert!(est.is_finite());
        assert!((est - truth).abs() < 400.0, "estimate {est} vs truth {truth}");
    }

    #[test]
    fn healthy_answers_are_not_degraded() {
        let (ds, p) = setup();
        let engine = DomdQueryEngine::new(&ds, &p);
        let ans = engine.query_logical(ds.avails()[0].id, 55.0).expect("known avail");
        assert!(!ans.degraded);
        assert!(ans.warnings.is_empty());
    }

    #[test]
    fn broken_base_model_degrades_but_still_answers() {
        let ds = generate(&GeneratorConfig { n_avails: 40, target_rccs: 3000, scale: 1, seed: 12 });
        let inputs = PipelineInputs::build(&ds, 25.0);
        let split = ds.split(5);
        let mut cfg = PipelineConfig::paper_final();
        cfg.gbt.n_estimators = 50;
        cfg.k = 10;
        cfg.grid_step = 25.0;
        cfg.stacked = true;
        let mut p = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        p.static_model = None; // a mangled artifact lost the base model
        let engine = DomdQueryEngine::new(&ds, &p);
        let ans = engine.query_logical(ds.avails()[0].id, 55.0).expect("known avail");
        assert!(ans.degraded);
        assert!(!ans.warnings.is_empty());
        assert!(!ans.estimates.is_empty());
        assert!(ans.estimates.iter().all(|e| e.estimated_delay.is_finite()));
    }

    #[test]
    fn degraded_route_is_bit_identical_to_checked_and_flagged() {
        let (ds, p) = setup();
        let engine = DomdQueryEngine::new(&ds, &p);
        let a = ds.avails()[0].id;
        let healthy = engine.query_logical(a, 55.0).expect("known");
        let degraded =
            engine.query_logical_degraded(a, 55.0, "circuit open: probing").expect("known");
        assert!(degraded.degraded);
        assert_eq!(degraded.warnings.first().map(String::as_str), Some("circuit open: probing"));
        // Same numbers — degraded mode changes confidence labelling and
        // routing, never the estimates themselves on a healthy pipeline.
        assert_eq!(healthy.estimates.len(), degraded.estimates.len());
        for (h, d) in healthy.estimates.iter().zip(&degraded.estimates) {
            assert_eq!(h.estimated_delay.to_bits(), d.estimated_delay.to_bits());
        }
        assert!(engine.query_logical_degraded(AvailId(9999), 55.0, "x").is_none());
    }

    #[test]
    fn query_set_filters_unstarted() {
        let (ds, p) = setup();
        let engine = DomdQueryEngine::new(&ds, &p);
        let ids: Vec<AvailId> = ds.avails().iter().take(5).map(|a| a.id).collect();
        // Pick a date before one avail's start.
        let t = ds.avails()[0].actual_start;
        let answers = engine.query_set(&ids, t);
        assert!(answers.len() <= 5);
        assert!(answers.iter().all(|a| !a.estimates.is_empty()));
    }
}
