//! Synthetic Navy Maintenance Data (NMD) generator.
//!
//! The real NMD is Controlled Unclassified Information and cannot be shared
//! (paper, footnote 1), so this module produces a seeded synthetic dataset
//! that reproduces the published structure:
//!
//! * ~200 avails, ~52,959 RCCs (Table 5), scalable x-fold for the
//!   scalability study (Section 5.1) while keeping the temporal distribution
//!   of RCCs intact — only counts grow, exactly as the paper's synthetic
//!   scaling does;
//! * a heavy-tailed delay distribution from slightly-early to multi-year
//!   (Figure 2), including exact on-time completions;
//! * G / NW / NG RCC types with hierarchical 8-digit SWLIN codes (Figure 1);
//! * a ground-truth delay process that is a function of the static and RCC
//!   attributes plus noise and outliers, so the modeling experiments face
//!   the same qualitative problem the paper describes: small-n, wide,
//!   outlier-heavy, with information revealed progressively over the
//!   logical timeline.
//!
//! The ground-truth process (documented here because EXPERIMENTS.md refers
//! to it): a latent per-avail "trouble factor" `z ~ N(0,1)` drives both the
//! RCC volume and the delay; the delay combines additive static effects
//! (ship class, RMC, age, planned duration), concave per-(type × subsystem)
//! contributions of settled RCC dollars (`sqrt` of group totals — monotone,
//! so correlation-based feature selection works; nonlinear, so boosted trees
//! beat the linear baseline), one age × growth-spend interaction, a small
//! early-completion effect, Gaussian noise, and an exponential outlier
//! mixture that produces the multi-year tail.

use crate::avail::{Avail, AvailId, ShipId, StaticAttrs};
use crate::dataset::Dataset;
use crate::date::Date;
use crate::distributions::{beta, categorical, gamma, log_normal, normal};
use crate::rcc::{Rcc, RccId, RccType, Swlin};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`generate`].
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of avails to generate (paper: ~200).
    pub n_avails: usize,
    /// Target total RCC count across all avails (paper: 52,959).
    pub target_rccs: usize,
    /// RCC multiplication factor for the scalability study; `1` is the
    /// original dataset, `x > 1` replicates every RCC `x` times (new ids,
    /// jittered amounts, identical dates/type/SWLIN) so the temporal
    /// distribution is kept intact.
    pub scale: u32,
    /// RNG seed; equal configs with equal seeds generate identical data.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig { n_avails: 200, target_rccs: 52_959, scale: 1, seed: 0xD0_4D }
    }
}

/// Per-(RCC type × SWLIN first digit) dollar-to-delay coefficients for
/// Growth and New Work in the ground-truth process. Columns are SWLIN first
/// digits 0..=9. Units: delay days per sqrt(k$) of group settled amount —
/// concave, so the relationship is monotone (correlation-based selection
/// works) but nonlinear (boosted trees beat the linear baseline).
const SQRT_COEF: [[f64; 10]; 2] = [
    // Growth
    [0.03, 0.10, 0.08, 0.06, 0.07, 0.03, 0.03, 0.04, 0.05, 0.08],
    // New Work
    [0.05, 0.13, 0.11, 0.09, 0.06, 0.04, 0.05, 0.08, 0.07, 0.12],
];

/// New Growth delay coefficients, *linear* in group settled k$. Unplanned
/// new-growth work — especially in hull/propulsion/electrical subsystems
/// (digits 1–3) — is the dominant, directly-proportional delay driver; the
/// multi-year tail of Figure 2 comes from large NG clusters, which makes the
/// tail predictable from RCC features rather than pure noise (the paper's
/// test-set R² of 0.88 requires exactly that).
const NG_LIN_COEF: [f64; 10] =
    [0.008, 0.006, 0.008, 0.007, 0.012, 0.008, 0.010, 0.014, 0.012, 0.018];

/// Re-baselining regimes: cumulative heavy-subsystem NG spend thresholds
/// (k$) and the additional delay (days) each regime adds. Once unplanned
/// new growth in hull/propulsion/electrical exceeds a yard's absorption
/// capacity, the schedule re-baselines in discrete jumps — a regime
/// structure trees capture with single splits, linear fits cannot, and
/// bounded enough that a robust loss still reaches every level.
const NG_REGIMES: [(f64, f64); 4] =
    [(1500.0, 60.0), (4000.0, 80.0), (9000.0, 100.0), (16_000.0, 110.0)];

/// Additive delay effect (days) of each ship class in the ground truth.
const CLASS_EFFECT: [f64; 6] = [0.0, 5.0, 10.0, 15.0, 20.0, 30.0];

/// Additive delay effect (days) of each Regional Maintenance Center.
/// Deliberately non-monotone in the id: yard capacity is a property of the
/// yard, not of its numbering, so models that treat `rmc_id` as a numeric
/// scale (the linear baseline) are misspecified while tree splits recover
/// it exactly (part of what Figure 6b shows).
const RMC_EFFECT: [f64; 8] = [0.0, 12.0, -15.0, 25.0, 18.0, -20.0, 35.0, 5.0];

/// SWLIN first-digit popularity weights (digit 0 is unused by convention:
/// real SWLINs start at 1).
const SWLIN_DIGIT_WEIGHTS: [f64; 10] = [0.0, 1.5, 1.2, 1.0, 1.4, 0.8, 0.6, 0.7, 0.9, 1.1];

/// RCC type mixture: G 60%, NW 25%, NG 15%.
const TYPE_WEIGHTS: [f64; 3] = [0.60, 0.25, 0.15];

/// Generates a synthetic NMD instance plus the ground-truth metadata needed
/// to reason about it in tests and experiments.
pub fn generate(config: &GeneratorConfig) -> Dataset {
    generate_with_truth(config).0
}

/// Ground-truth quantities the generator used; exposed for tests and for
/// experiment harnesses that need the latent signal (never used by models).
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Latent trouble factor `z` per avail (same order as `Dataset::avails`).
    pub trouble: Vec<f64>,
    /// Noiseless delay signal per avail before noise/outliers, in days.
    pub signal: Vec<f64>,
}

/// As [`generate`], also returning the latent ground truth.
pub fn generate_with_truth(config: &GeneratorConfig) -> (Dataset, GroundTruth) {
    assert!(config.n_avails > 0, "need at least one avail");
    assert!(config.scale >= 1, "scale factor must be >= 1");
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // --- Avail skeletons -------------------------------------------------
    let n = config.n_avails;
    let mut trouble = Vec::with_capacity(n);
    let mut avails = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    // domd-lint: allow(no-panic) — constant, known-valid calendar date
    let epoch_2015 = Date::from_ymd(2015, 1, 6).expect("valid date");

    for i in 0..n {
        let z = normal(&mut rng, 0.0, 1.0);
        trouble.push(z);
        let ship_class = categorical(&mut rng, &[0.25, 0.22, 0.18, 0.15, 0.12, 0.08]) as u8;
        let rmc_id = rng.gen_range(0..RMC_EFFECT.len()) as u8;
        let ship_age = rng.gen_range(3.0..40.0);
        let planned_duration = rng.gen_range(120..=700);
        // Planned starts spread over ~8 years so "30% most recent" is
        // well defined.
        let plan_start = epoch_2015 + rng.gen_range(0..(365 * 8));
        // 15% of avails start late (Table 1 row 5 pattern); irrelevant to the
        // duration-based delay but realistic for logical-time bookkeeping.
        let late_start = if rng.gen::<f64>() < 0.15 { rng.gen_range(5..45) } else { 0 };
        // Every hull has at least one prior avail; its delay history leaks
        // most of z. This is what lets the paper's 0% model already reach
        // R^2 ~ 0.88: chronic-trouble ships are identifiable from their
        // planning-time record before any RCC is raised.
        let prior_avail_count = rng.gen_range(1..7u32);
        let prior_avg_delay = (25.0 + 20.0 * z + normal(&mut rng, 0.0, 3.0)).max(-30.0);
        avails.push(Avail {
            id: AvailId(i as u32 + 1),
            ship: ShipId(rng.gen_range(1..2000)),
            plan_start,
            plan_end: plan_start + planned_duration,
            actual_start: plan_start + late_start,
            actual_end: None, // filled in after the delay is known
            statics: StaticAttrs {
                ship_class,
                rmc_id,
                ship_age_years: ship_age,
                prior_avail_count,
                prior_avg_delay,
            },
        });
        // RCC volume weight: trouble and long plans attract contract changes.
        weights.push((0.45 * z).exp() * (0.4 + planned_duration as f64 / 500.0));
    }

    // --- RCCs -------------------------------------------------------------
    let weight_sum: f64 = weights.iter().sum();
    let mut rccs = Vec::with_capacity(config.target_rccs * config.scale as usize + n);
    let mut signal = Vec::with_capacity(n);
    let mut next_rcc_id = 1u32;

    for (idx, avail) in avails.iter_mut().enumerate() {
        let planned = avail.planned_duration();
        let z = trouble[idx];
        let lambda = config.target_rccs as f64 * weights[idx] / weight_sum;
        let n_rcc = lambda.round().max(1.0) as usize;
        // Group totals in k$, indexed [type][first digit].
        let mut group_ksum = [[0.0f64; 10]; 3];

        let push_rcc = |rng: &mut SmallRng,
                            group_ksum: &mut [[f64; 10]; 3],
                            rccs: &mut Vec<Rcc>,
                            next_rcc_id: &mut u32,
                            avail: &Avail,
                            t: RccType,
                            d1: u32,
                            amount: f64,
                            create_frac: f64| {
            let rest = rng.gen_range(0..10_000_000u32);
            // domd-lint: allow(no-panic) — d1 ∈ 1..=9 and rest < 10^7 always pack to 8 digits
            let swlin = Swlin::from_packed(d1 * 10_000_000 + rest).expect("8 digits");
            // Open duration: gamma, typically 5–40% of planned duration.
            let dur_frac = (0.02 + gamma(rng, 2.0, 0.06)).min(0.9);
            let created = avail.actual_start + (create_frac * planned as f64).round() as i32;
            let settled = created + ((dur_frac * planned as f64).round() as i32).max(1);
            group_ksum[t.index()][d1 as usize] += amount / 1000.0;
            rccs.push(Rcc {
                id: RccId(*next_rcc_id),
                avail: avail.id,
                rcc_type: t,
                swlin,
                created,
                settled,
                amount,
            });
            *next_rcc_id += 1;
        };

        for _ in 0..n_rcc {
            let t = RccType::ALL[categorical(&mut rng, &TYPE_WEIGHTS)];
            let d1 = categorical(&mut rng, &SWLIN_DIGIT_WEIGHTS) as u32;
            // Amounts: log-normal, scale differs per type (NW jobs largest).
            let amount = match t {
                RccType::Growth => log_normal(&mut rng, 9.0, 1.0),   // median ~8.1k$
                RccType::NewWork => log_normal(&mut rng, 10.6, 0.9), // median ~40k$
                RccType::NewGrowth => log_normal(&mut rng, 10.0, 1.0), // median ~22k$
            };
            // Creation spread over the planned duration with mid-avail mass;
            // a small fraction appears just past 100% (late paperwork).
            let create_frac = beta(&mut rng, 1.6, 1.4) * 1.05;
            push_rcc(
                &mut rng,
                &mut group_ksum,
                &mut rccs,
                &mut next_rcc_id,
                avail,
                t,
                d1,
                amount,
                create_frac,
            );
        }

        // Catastrophic new-growth event: chronic-trouble ships (z above a
        // threshold) develop a cluster of large NG RCCs in the
        // hull/propulsion subsystems whose size scales with severity. The
        // Figure 2 multi-year tail is therefore predictable twice over —
        // from the planning-time history (severity is a function of z,
        // which prior delays leak) and, once raised, directly from the NG
        // dollar features. Both are required to reproduce the paper's
        // R^2 ~ 0.88 at every logical time including 0%.
        let severity = (z - 1.2).max(0.0);
        if severity > 0.0 {
            let n_extra = 10 + (severity * 25.0).round() as usize;
            let center = 0.2 + 0.6 * beta(&mut rng, 2.0, 2.0);
            for _ in 0..n_extra {
                let d1 = [1u32, 2, 3][categorical(&mut rng, &[1.0, 1.5, 1.2])];
                let amount = log_normal(&mut rng, 12.8, 0.6); // median ~360k$
                let create_frac = (center + normal(&mut rng, 0.0, 0.08)).clamp(0.02, 1.05);
                push_rcc(
                    &mut rng,
                    &mut group_ksum,
                    &mut rccs,
                    &mut next_rcc_id,
                    avail,
                    RccType::NewGrowth,
                    d1,
                    amount,
                    create_frac,
                );
            }
        }

        // --- Ground-truth delay -------------------------------------------
        let s = &avail.statics;
        let mut mean_delay = CLASS_EFFECT[s.ship_class as usize]
            + RMC_EFFECT[s.rmc_id as usize]
            + 0.8 * (s.ship_age_years - 20.0)
            + 0.04 * (planned as f64 - 400.0);
        let mut growth_total_k = 0.0;
        for (ti, row) in SQRT_COEF.iter().enumerate() {
            for (di, coef) in row.iter().enumerate() {
                let ks = group_ksum[ti][di];
                mean_delay += coef * ks.sqrt();
                if ti == RccType::Growth.index() {
                    growth_total_k += ks;
                }
            }
        }
        for (di, coef) in NG_LIN_COEF.iter().enumerate() {
            mean_delay += coef * group_ksum[RccType::NewGrowth.index()][di];
        }
        let ng = &group_ksum[RccType::NewGrowth.index()];
        let ng_heavy = ng[1] + ng[2] + ng[3];
        for (threshold, jump) in NG_REGIMES {
            if ng_heavy > threshold {
                mean_delay += jump;
            }
        }
        // Interaction: old ships absorb growth work badly (a term no additive
        // linear model can represent, separating GBT from the elastic net).
        mean_delay += 0.05 * (s.ship_age_years - 20.0).max(0.0) * growth_total_k.sqrt();
        signal.push(mean_delay);

        let mut delay = mean_delay + normal(&mut rng, 0.0, 12.0);
        if rng.gen::<f64>() < 0.06 {
            // Unforecastable administrative shock (contracting disputes,
            // dry-dock conflicts): invisible to both static and RCC
            // features.
            delay += gamma(&mut rng, 1.0, 80.0);
        }
        if rng.gen::<f64>() < 0.08 {
            // Early completion pressure.
            delay -= rng.gen_range(10.0..60.0);
        }
        let delay = delay.round().max(-40.0) as i32;
        // ~8% of avails land exactly on time (Figure 2 has a spike at 0).
        let delay = if rng.gen::<f64>() < 0.08 { 0 } else { delay };
        avail.actual_end = Some(avail.actual_start + planned + delay);
    }

    // --- Optional x-fold scaling (Section 5.1) ----------------------------
    if config.scale > 1 {
        let original = rccs.clone();
        for copy in 1..config.scale {
            for r in &original {
                let mut r2 = r.clone();
                r2.id = RccId(next_rcc_id);
                next_rcc_id += 1;
                // Amounts jitter a few percent so copies are not bit-equal
                // rows; dates / type / SWLIN stay fixed to preserve the
                // temporal distribution, as the paper specifies.
                r2.amount *= 1.0 + 0.02 * normal(&mut rng, 0.0, 1.0);
                let _ = copy;
                rccs.push(r2);
            }
        }
    }

    (Dataset::new(avails, rccs), GroundTruth { trouble, signal })
}

/// Hides the future of selected avails to simulate ongoing maintenance: the
/// actual end date is removed and every RCC created after `as_of` is dropped,
/// exactly the information horizon an SMDII user has when issuing a DoMD
/// query (Problem 1). Returns the censored dataset plus the true delays of
/// the censored avails (for harness evaluation only).
pub fn censor_ongoing(
    dataset: &Dataset,
    ongoing: &[AvailId],
    as_of: Date,
) -> (Dataset, Vec<(AvailId, i32)>) {
    let mut truths = Vec::with_capacity(ongoing.len());
    let avails: Vec<Avail> = dataset
        .avails()
        .iter()
        .map(|a| {
            if ongoing.contains(&a.id) {
                if let Some(d) = a.delay() {
                    truths.push((a.id, d));
                }
                let mut c = a.clone();
                c.actual_end = None;
                c
            } else {
                a.clone()
            }
        })
        .collect();
    let censored = dataset.with_rows_retained(avails, ongoing, |r| r.created <= as_of);
    (censored, truths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avail::AvailStatus;

    fn small_config() -> GeneratorConfig {
        GeneratorConfig { n_avails: 40, target_rccs: 4000, scale: 1, seed: 7 }
    }

    #[test]
    fn default_matches_table5_cardinalities() {
        let ds = generate(&GeneratorConfig::default());
        let st = ds.stats();
        assert_eq!(st.n_avails, 200);
        // RCC count is target +/- rounding and catastrophe clusters.
        assert!(
            (st.n_rccs as i64 - 52_959).unsigned_abs() < 2000,
            "got {} RCCs",
            st.n_rccs
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.avails(), b.avails());
        assert_eq!(a.rccs(), b.rccs());
        let mut other = small_config();
        other.seed = 8;
        let c = generate(&other);
        assert_ne!(a.avails(), c.avails());
    }

    #[test]
    fn all_avails_closed_and_valid() {
        let ds = generate(&small_config());
        for a in ds.avails() {
            assert_eq!(a.status(), AvailStatus::Closed);
            assert!(a.planned_duration() >= 120);
            assert!(a.delay().unwrap() >= -40);
            assert!(a.actual_start >= a.plan_start);
        }
    }

    #[test]
    fn rccs_reference_existing_avails_and_have_positive_durations() {
        let ds = generate(&small_config());
        for r in ds.rccs() {
            assert!(ds.avail(r.avail).is_some());
            assert!(r.duration_days() >= 1);
            assert!(r.amount > 0.0);
        }
    }

    #[test]
    fn delay_distribution_shape_matches_figure2() {
        let ds = generate(&GeneratorConfig::default());
        let delays: Vec<i32> = ds.closed_avails().filter_map(|a| a.delay()).collect();
        let n = delays.len() as f64;
        let tardy = delays.iter().filter(|d| **d > 0).count() as f64 / n;
        let early = delays.iter().filter(|d| **d < 0).count() as f64 / n;
        let on_time = delays.iter().filter(|d| **d == 0).count() as f64 / n;
        let long_tail = delays.iter().filter(|d| **d > 365).count();
        assert!(tardy > 0.6, "most avails are tardy (got {tardy})");
        assert!(early > 0.02 && early < 0.30, "some early finishes (got {early})");
        assert!(on_time > 0.02, "visible on-time spike (got {on_time})");
        assert!(long_tail >= 1, "multi-year tail exists");
        let max = *delays.iter().max().unwrap();
        assert!(max > 400, "tail reaches past a year (max {max})");
    }

    #[test]
    fn trouble_factor_correlates_with_delay() {
        let (ds, truth) = generate_with_truth(&GeneratorConfig::default());
        let delays: Vec<f64> = ds
            .avails()
            .iter()
            .map(|a| a.delay().unwrap() as f64)
            .collect();
        let n = delays.len() as f64;
        let mz = truth.trouble.iter().sum::<f64>() / n;
        let md = delays.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vz = 0.0;
        let mut vd = 0.0;
        for (z, d) in truth.trouble.iter().zip(&delays) {
            cov += (z - mz) * (d - md);
            vz += (z - mz).powi(2);
            vd += (d - md).powi(2);
        }
        let r = cov / (vz.sqrt() * vd.sqrt());
        assert!(r > 0.2, "latent trouble must drive delay (r = {r})");
    }

    #[test]
    fn scaling_multiplies_counts_and_keeps_dates() {
        let base = generate(&small_config());
        let mut cfg5 = small_config();
        cfg5.scale = 5;
        let scaled = generate(&cfg5);
        assert_eq!(scaled.rccs().len(), base.rccs().len() * 5);
        assert_eq!(scaled.avails(), base.avails());
        // Per-(created,settled) date histogram is exactly 5x the original.
        use std::collections::HashMap;
        let mut h_base: HashMap<(i32, i32), usize> = HashMap::new();
        for r in base.rccs() {
            *h_base.entry((r.created.days(), r.settled.days())).or_default() += 1;
        }
        let mut h_scaled: HashMap<(i32, i32), usize> = HashMap::new();
        for r in scaled.rccs() {
            *h_scaled.entry((r.created.days(), r.settled.days())).or_default() += 1;
        }
        assert_eq!(h_base.len(), h_scaled.len());
        for (k, v) in &h_base {
            assert_eq!(h_scaled[k], v * 5, "temporal distribution preserved");
        }
    }

    #[test]
    fn rcc_ids_unique() {
        let mut cfg = small_config();
        cfg.scale = 3;
        let ds = generate(&cfg);
        let mut ids: Vec<u32> = ds.rccs().iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ds.rccs().len());
    }

    #[test]
    fn censor_ongoing_hides_future() {
        let ds = generate(&small_config());
        let victim = ds.avails()[0].clone();
        let as_of = victim.actual_start + victim.planned_duration() / 2;
        let (censored, truths) = censor_ongoing(&ds, &[victim.id], as_of);
        let c = censored.avail(victim.id).unwrap();
        assert_eq!(c.status(), AvailStatus::Ongoing);
        assert!(censored.rccs_of(victim.id).iter().all(|r| r.created <= as_of));
        assert!(censored.rccs_of(victim.id).len() <= ds.rccs_of(victim.id).len());
        assert_eq!(truths.len(), 1);
        assert_eq!(truths[0].0, victim.id);
        assert_eq!(truths[0].1, victim.delay().unwrap());
        // Other avails untouched.
        let other = ds.avails()[1].id;
        assert_eq!(censored.rccs_of(other).len(), ds.rccs_of(other).len());
    }
}
