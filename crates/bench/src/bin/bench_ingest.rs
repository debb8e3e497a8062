//! `bench_ingest` — ingest-to-queryable latency of the delta-maintained
//! path versus the full rebuild it replaced.
//!
//! Each batch of fresh RCC rows must become visible to Status Queries and
//! to the feature path (the dataset predictions read) before the next
//! epoch can publish. Both arms build what a `TenantSnapshot` holds: a
//! dataset and a Status-Query view (arena + group-by trees). The `full`
//! arm pays what the pre-delta serving code paid: re-sort the dataset
//! (`Dataset::new`) and build the view from scratch. The `delta` arm pays
//! what `TenantSnapshot::ingest_batch` pays now: clone the standing view
//! copy-on-write (chunk pointers, not rows), apply the batch as a typed
//! [`RccDelta`] stream (each insert copies only the arena chunks and
//! group-tree runs its appends land in), and merge the dataset by copying
//! the unchanged runs between fresh rows (`Dataset::with_rccs_merged`).
//!
//! Before any timing counts, every batch is gated on bit-identity: the
//! maintained view's aggregates must equal a from-scratch
//! `StatusView::from_arena_rows` over the same arena to the bit.
//!
//! Per-arm columns report minima over `--runs` interleaved rounds; the
//! headline speedup is the *median of per-round paired ratios* (both arms
//! of a ratio saw the same container load phase). The acceptance target
//! is a ≥10x delta-vs-full speedup at the largest scale.
//!
//! ```text
//! bench_ingest [--scales 1,2,4] [--batches 6] [--batch-rows 8]
//!              [--runs 3] [--out FILE]
//! ```

use std::sync::Arc;

use domd_bench::util::time_ms;
use domd_data::rcc::{Rcc, RccId, RccStatus, RccType};
use domd_data::{generate, AvailId, Dataset, GeneratorConfig};
use domd_index::{RccArena, RccDelta, RowId, StatusQuery, StatusView};

/// Deterministic SplitMix64 stream for batch synthesis.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Fresh RCC rows for the batch, templated off each touched avail's own
/// rows so types and SWLINs stay in-distribution.
fn batch_rows(
    rng: &mut Mix,
    ds: &Dataset,
    touched: &[AvailId],
    n: usize,
    next_id: &mut u32,
) -> Vec<Rcc> {
    (0..n)
        .map(|i| {
            let avail = touched[i % touched.len()];
            let pool = ds.rccs_of(avail);
            let template = &pool[rng.below(pool.len() as u64) as usize];
            let start = ds.avail(avail).expect("touched avails exist").actual_start;
            let created = start + rng.below(70) as i32;
            *next_id += 1;
            Rcc {
                id: RccId(*next_id),
                avail,
                rcc_type: template.rcc_type,
                swlin: template.swlin,
                created,
                settled: created + 1 + rng.below(80) as i32,
                amount: 40.0 + rng.below(4000) as f64,
            }
        })
        .collect()
}

/// The probe set both engines must agree on to the bit: every status at
/// three timestamps, plus one type-filtered group.
fn probe_queries() -> Vec<StatusQuery> {
    let mut qs = Vec::new();
    for status in [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated]
    {
        for t_star in [25.0, 60.0, 110.0] {
            qs.push(StatusQuery { rcc_type: None, swlin_prefix: None, status, t_star });
            qs.push(StatusQuery {
                rcc_type: Some(RccType::NewWork),
                swlin_prefix: None,
                status,
                t_star,
            });
        }
    }
    qs
}

/// Bit-identity gate: the maintained view against a from-scratch build
/// over the same arena (same ascending-id aggregation order).
fn assert_view_matches_scratch(view: &StatusView, scale: u32, batch: usize) {
    let live: Vec<RowId> = (0..view.arena().len() as RowId).collect();
    let scratch = StatusView::from_arena_rows(Arc::clone(view.arena()), &live);
    for q in probe_queries() {
        let (a, b) = (view.aggregate(&q), scratch.aggregate(&q));
        assert_eq!(a.count, b.count, "scale {scale} batch {batch}: count diverged on {q:?}");
        assert_eq!(
            a.sum_amount.to_bits(),
            b.sum_amount.to_bits(),
            "scale {scale} batch {batch}: sum_amount diverged on {q:?}"
        );
        assert_eq!(
            a.sum_duration.to_bits(),
            b.sum_duration.to_bits(),
            "scale {scale} batch {batch}: sum_duration diverged on {q:?}"
        );
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

struct ScaleResult {
    scale: u32,
    n_rccs: usize,
    n_avails: usize,
    full_ms: f64,
    delta_ms: f64,
    engine_ms: f64,
    merge_ms: f64,
    speedup: f64,
}

impl ScaleResult {
    fn json(&self) -> String {
        format!(
            "{{\"scale\":{},\"n_rccs\":{},\"n_avails\":{},\"full_ms\":{:.3},\"delta_ms\":{:.3},\"engine_ms\":{:.3},\"merge_ms\":{:.3},\"speedup\":{:.2},\"bit_identical\":true}}",
            self.scale,
            self.n_rccs,
            self.n_avails,
            self.full_ms,
            self.delta_ms,
            self.engine_ms,
            self.merge_ms,
            self.speedup
        )
    }
}

fn bench_scale(scale: u32, batches: usize, rows_per_batch: usize, runs: usize) -> ScaleResult {
    let mut rng = Mix(0x001A_6E57 ^ u64::from(scale));
    let ds0 = generate(&GeneratorConfig {
        n_avails: 120,
        target_rccs: 12_000,
        scale,
        seed: 0xD0_4D,
    });
    let all: Vec<AvailId> = ds0.avails().iter().map(|a| a.id).collect();
    let mut next_id = ds0.rccs().iter().map(|r| r.id.0).max().unwrap_or(0);

    // Standing state the delta arm maintains across batches.
    let mut ds = Arc::new(ds0);
    let mut view = StatusView::from_arena(Arc::new(RccArena::from_dataset(&ds)));

    let mut full_total = 0.0;
    let mut delta_total = 0.0;
    // Delta-arm stage minima summed over batches: [engine, merge].
    let mut stage_totals = [0.0f64; 2];
    let mut ratios = Vec::with_capacity(batches * runs);
    for batch in 0..batches {
        // 1–3 distinct touched avails, rows spread round-robin.
        let mut touched: Vec<AvailId> = (0..1 + rng.below(3))
            .map(|_| all[rng.below(all.len() as u64) as usize])
            .collect();
        touched.sort_unstable_by_key(|a| a.0);
        touched.dedup();
        let fresh = batch_rows(&mut rng, &ds, &touched, rows_per_batch, &mut next_id);
        let deltas: Vec<RccDelta> = fresh
            .iter()
            .map(|rcc| RccDelta::Insert {
                rcc: rcc.clone(),
                avail: ds.avail(rcc.avail).expect("touched avails exist").clone(),
            })
            .collect();

        // The delta arm pays the whole copy-on-write epoch build, staged:
        // clone the standing view and apply the stream, then merge.
        let delta_epoch = || {
            let (next_view, e_ms) = time_ms(|| {
                let mut next_view = view.clone();
                next_view.apply_deltas(&deltas);
                next_view
            });
            let (next_ds, m_ms) = time_ms(|| Arc::new(ds.with_rccs_merged(fresh.clone())));
            (next_view, next_ds, [e_ms, m_ms])
        };
        // The full arm pays what the pre-delta code paid for the same
        // visibility: re-sort, rebuild.
        let avail_vec = ds.avails().to_vec();
        let full_epoch = || {
            let mut rccs = ds.rccs().to_vec();
            rccs.extend(fresh.iter().cloned());
            let next_ds = Dataset::new(avail_vec.clone(), rccs);
            let next_view = StatusView::from_arena(Arc::new(RccArena::from_dataset(&next_ds)));
            (next_view, next_ds)
        };

        // Bit-identity gate before any timing counts.
        let (next_view, next_ds, _) = delta_epoch();
        assert_view_matches_scratch(&next_view, scale, batch);

        // Interleaved rounds: per-arm minima + paired per-round ratios.
        // The delta arm is additionally timed per stage (view clone +
        // delta application / dataset merge) so a regression in one
        // stage is visible in the report.
        let mut full_min = f64::INFINITY;
        let mut delta_min = f64::INFINITY;
        let mut stage_min = [f64::INFINITY; 2];
        for _ in 0..runs {
            let (_, f_ms) = time_ms(full_epoch);
            let ((_, _, stages), d_ms) = time_ms(delta_epoch);
            full_min = full_min.min(f_ms);
            delta_min = delta_min.min(d_ms);
            for (acc, s) in stage_min.iter_mut().zip(stages) {
                *acc = acc.min(s);
            }
            ratios.push(f_ms / d_ms);
        }
        full_total += full_min;
        delta_total += delta_min;
        for (acc, s) in stage_totals.iter_mut().zip(stage_min) {
            *acc += s;
        }

        // Commit the batch: the next batch mutates the grown state.
        view = next_view;
        ds = next_ds;
    }

    ScaleResult {
        scale,
        n_rccs: ds.rccs().len(),
        n_avails: all.len(),
        full_ms: full_total,
        delta_ms: delta_total,
        engine_ms: stage_totals[0],
        merge_ms: stage_totals[1],
        speedup: median(ratios),
    }
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
        .unwrap_or_else(|| "1,2,4".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("--scales takes comma-separated integers"))
        .collect();
    let batches: usize =
        get("--batches").map(|v| v.parse().expect("--batches takes a number")).unwrap_or(6);
    let rows_per_batch: usize =
        get("--batch-rows").map(|v| v.parse().expect("--batch-rows takes a number")).unwrap_or(8);
    let runs: usize = get("--runs").map(|v| v.parse().expect("--runs takes a number")).unwrap_or(3);
    let out_path = get("--out");

    eprintln!(
        "bench_ingest: scales={scales:?}, batches={batches}, batch_rows={rows_per_batch}, runs={runs}"
    );
    let largest = scales.iter().copied().max().unwrap_or(1);
    let mut blocks = Vec::new();
    for &scale in &scales {
        let r = bench_scale(scale, batches, rows_per_batch, runs);
        eprintln!(
            "  scale {:>2}x ({:>6} rccs, {} avails)  full {:>8.1} ms  delta {:>6.1} ms ({:.1}x; engine {:.2} merge {:.2})",
            r.scale, r.n_rccs, r.n_avails, r.full_ms, r.delta_ms, r.speedup, r.engine_ms,
            r.merge_ms
        );
        if scale == largest && r.speedup < 10.0 {
            eprintln!(
                "  WARNING: delta speedup {:.2}x misses the 10x acceptance target at {scale}x",
                r.speedup
            );
        }
        blocks.push(r.json());
    }
    let json = format!(
        "{{\"bench\":\"ingest_delta\",\"cpu\":{{\"model\":\"{}\"}},\"runs\":{},\"batches\":{},\"batch_rows\":{},\"scales\":[{}]}}\n",
        cpu_model().replace('"', "'"),
        runs,
        batches,
        rows_per_batch,
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
