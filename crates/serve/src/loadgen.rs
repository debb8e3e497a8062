//! Deterministic open-loop load generation.
//!
//! The generator is seeded end-to-end: the same [`LoadGenConfig`] always
//! yields the same arrival schedule, tenant choices, and operation mix,
//! so a bench or chaos run is replayable from its seed alone. Arrivals
//! are *open-loop* — scheduled at fixed ticks regardless of completions —
//! because closed-loop clients implicitly apply backpressure and hide
//! overload, which is exactly what the serve bench must not do.
//!
//! Tenant selection is Zipf-skewed (rank-`r` tenant drawn with weight
//! `1/(r+1)^s`), modelling the few-hot-many-cold tenancy of real fleets;
//! the skew drives one tenant's circuit breaker much harder than the
//! rest.

use domd_data::rcc::RccStatus;
use domd_data::{AvailId, Dataset};
use domd_index::StatusQuery;
use rand::prelude::*;

use crate::clock::Ticks;
use crate::request::{IngestRow, Op, Request};

/// Relative weights of the operation mix.
#[derive(Debug, Clone, Copy)]
pub struct TrafficMix {
    /// Status Query aggregates.
    pub status: u32,
    /// DoMD predictions.
    pub predict: u32,
    /// Risk-ranked alert queries.
    pub alert: u32,
    /// Ingest mutations.
    pub ingest: u32,
}

impl Default for TrafficMix {
    fn default() -> Self {
        // Read-heavy with a steady mutation trickle: the regime the
        // snapshot-isolation design targets.
        TrafficMix { status: 50, predict: 30, alert: 10, ingest: 10 }
    }
}

/// Load-generator tuning.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// RNG seed; equal configs with equal seeds emit identical schedules.
    pub seed: u64,
    /// Number of tenants addressed.
    pub tenants: usize,
    /// Zipf skew exponent `s` (0 = uniform).
    pub zipf_s: f64,
    /// Requests in the schedule.
    pub requests: usize,
    /// Mean inter-arrival gap in ticks (arrivals jitter around it).
    pub mean_gap: f64,
    /// Deadline budget stamped on every request.
    pub budget: Ticks,
    /// Operation mix weights.
    pub mix: TrafficMix,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            seed: 0xD0_4D,
            tenants: 4,
            zipf_s: 1.1,
            requests: 200,
            mean_gap: 4.0,
            budget: 200,
            mix: TrafficMix::default(),
        }
    }
}

/// Cumulative Zipf weights over `n` ranks with exponent `s`.
fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut out = Vec::with_capacity(n.max(1));
    for rank in 0..n.max(1) {
        acc += 1.0 / ((rank + 1) as f64).powf(s);
        out.push(acc);
    }
    out
}

fn pick_weighted(cumulative: &[f64], rng: &mut SmallRng) -> usize {
    let total = cumulative.last().copied().unwrap_or(1.0);
    let x = rng.gen_range(0.0..total);
    cumulative.iter().position(|&c| x < c).unwrap_or(cumulative.len() - 1)
}

/// Generates the seeded open-loop schedule: `(arrival_tick, request)`
/// pairs ordered by arrival. `datasets[t]` is tenant `t`'s dataset (avail
/// ids and ongoing avails are drawn from it).
pub fn generate_schedule(config: &LoadGenConfig, datasets: &[&Dataset]) -> Vec<(Ticks, Request)> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let tenants = config.tenants.min(datasets.len()).max(1);
    let zipf = zipf_cumulative(tenants, config.zipf_s);
    let mix = [
        (config.mix.status as f64),
        (config.mix.status + config.mix.predict) as f64,
        (config.mix.status + config.mix.predict + config.mix.alert) as f64,
        (config.mix.status + config.mix.predict + config.mix.alert + config.mix.ingest) as f64,
    ];
    let statuses =
        [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated];

    let mut at: Ticks = 0;
    let mut out = Vec::with_capacity(config.requests);
    for seq in 0..config.requests {
        // Jittered inter-arrival gap in [0.5, 1.5) of the mean.
        let gap = config.mean_gap * rng.gen_range(0.5f64..1.5);
        at += gap.max(0.0) as Ticks;
        let tenant = pick_weighted(&zipf, &mut rng);
        let ds = datasets[tenant];
        let avails = ds.avails();
        let avail = avails[rng.gen_range(0..avails.len())].id;
        let t_star = rng.gen_range(5.0..120.0);
        let op = match rng.gen_range(0.0..mix[3].max(1.0)) {
            x if x < mix[0] => Op::Status(StatusQuery {
                rcc_type: None,
                swlin_prefix: None,
                status: statuses[rng.gen_range(0..statuses.len())],
                t_star,
            }),
            x if x < mix[1] => Op::Predict { avail, t_star },
            x if x < mix[2] => Op::Alerts {
                t_star,
                k: rng.gen_range(1..16),
                min_delay: rng.gen_range(-10.0..30.0),
            },
            _ => ingest_op(ds, avail, &mut rng),
        };
        let req = Request { seq: seq as u64, tenant, submitted: at, budget: config.budget, op };
        out.push((at, req));
    }
    out
}

fn ingest_op(ds: &Dataset, avail: AvailId, rng: &mut SmallRng) -> Op {
    // Batches of 1–3 rows: most ingests stay single-row (the pre-batching
    // regime), with enough multi-row batches to exercise the atomic
    // batch-publish path under chaos traffic.
    let n_rows = match rng.gen_range(0..4u32) {
        0 | 1 => 1,
        2 => 2,
        _ => 3,
    };
    let types = [
        domd_data::RccType::Growth,
        domd_data::RccType::NewWork,
        domd_data::RccType::NewGrowth,
    ];
    let rows = (0..n_rows)
        .map(|_| {
            // domd-lint: allow(no-panic) — generate_schedule indexes avails from the same dataset, so the id resolves
            let a = ds.avail(avail).expect("avail drawn from this dataset");
            let offset = rng.gen_range(0..a.planned_duration().max(2));
            let duration = rng.gen_range(1..30);
            let packed = rng.gen_range(0..100_000_000u32);
            // domd-lint: allow(no-panic) — every u32 below 100_000_000 packs into 8 SWLIN digits
            let swlin = domd_data::Swlin::from_packed(packed).expect("8-digit packed SWLIN");
            IngestRow {
                avail,
                rcc_type: types[rng.gen_range(0..3usize)],
                swlin,
                created: a.actual_start + offset,
                settled: a.actual_start + offset + duration,
                amount: rng.gen_range(1.0..5_000.0),
            }
        })
        .collect();
    Op::Ingest { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_data::{generate, GeneratorConfig};

    fn ds() -> Dataset {
        generate(&GeneratorConfig { n_avails: 10, target_rccs: 500, scale: 1, seed: 9 })
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let d = ds();
        let sets = [&d, &d, &d, &d];
        let cfg = LoadGenConfig::default();
        let a = generate_schedule(&cfg, &sets);
        let b = generate_schedule(&cfg, &sets);
        assert_eq!(a.len(), b.len());
        for ((ta, ra), (tb, rb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(ra.tenant, rb.tenant);
            assert_eq!(ra.op.name(), rb.op.name());
        }
        let c = generate_schedule(&LoadGenConfig { seed: 1, ..cfg }, &sets);
        assert!(
            a.iter().zip(&c).any(|((ta, ra), (tc, rc))| ta != tc || ra.op.name() != rc.op.name()),
            "different seeds must differ"
        );
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let d = ds();
        let sets = [&d, &d, &d, &d];
        let cfg = LoadGenConfig { requests: 2000, zipf_s: 1.2, ..LoadGenConfig::default() };
        let schedule = generate_schedule(&cfg, &sets);
        let mut counts = [0usize; 4];
        for (_, r) in &schedule {
            counts[r.tenant] += 1;
        }
        assert!(counts[0] > counts[3] * 2, "rank 0 must dominate rank 3: {counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "every tenant sees traffic: {counts:?}");
    }

    #[test]
    fn arrivals_are_open_loop_monotone() {
        let d = ds();
        let sets = [&d];
        let cfg = LoadGenConfig { tenants: 1, ..LoadGenConfig::default() };
        let schedule = generate_schedule(&cfg, &sets);
        for pair in schedule.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }
}
