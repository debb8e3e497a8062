//! Chaos suite for the serving core: seeded fault scenarios covering
//! slow handlers, mid-request epoch swaps, queue-full storms, deadline
//! races, and storage faults during startup recovery.
//!
//! Scenario count: 160 general serve-loop storms + 40 swap-heavy
//! mid-request mutation runs + 16 batched-ingest storms + 48
//! corrupted-startup recoveries = 264 seeded scenarios, past the 200 the
//! robustness bar asks for.
//!
//! Every scenario asserts the four serving invariants:
//!
//! 1. **Never panic** — scenarios run under `catch_unwind`; any panic
//!    fails the suite naming the reproducing seed.
//! 2. **Typed shedding only** — every refused request carries
//!    `Overloaded` or `DeadlineExceeded`; nothing is silently dropped
//!    (responses == requests) and nothing fails with an untyped error.
//! 3. **Bounded memory** — the admission queue's high-water mark never
//!    exceeds its configured capacity, no matter the storm.
//! 4. **No torn reads** — every answered request reports a publication
//!    epoch no later than the store's final epoch, and ingest epochs are
//!    dense (each applied mutation published exactly once).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use domd_core::{PipelineConfig, PipelineInputs, TrainedPipeline};
use domd_data::rcc::{RccType, Swlin};
use domd_data::{corrupt_bytes, generate, Dataset, GeneratorConfig};
use domd_features::FeatureEngine;
use domd_index::{project_dataset, DurableIndex};
use domd_serve::{
    announce_recovery, generate_schedule, LoadGenConfig, ManualClock, Op, Request, Response,
    ServeConfig, ServeCore, SharedModel, Stage, TenantSnapshot,
};
use rand::prelude::*;

fn base_dataset() -> Dataset {
    generate(&GeneratorConfig { n_avails: 8, target_rccs: 500, scale: 1, seed: 23 })
}

fn model() -> SharedModel {
    static PIPELINE: OnceLock<Arc<TrainedPipeline>> = OnceLock::new();
    let pipeline = Arc::clone(PIPELINE.get_or_init(|| {
        let ds = base_dataset();
        let inputs = PipelineInputs::build(&ds, 50.0);
        let split = ds.split(1);
        let mut cfg = PipelineConfig::default0();
        cfg.k = 6;
        cfg.grid_step = 50.0;
        cfg.gbt.n_estimators = 10;
        Arc::new(TrainedPipeline::fit(&inputs, &split.train, &cfg))
    }));
    SharedModel { pipeline, features: FeatureEngine::default() }
}

/// Runs `f`, converting a panic into a failure naming the scenario.
fn assert_no_panic<T>(scenario: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("{scenario} panicked: {msg}");
        }
    }
}

/// The shared invariant bundle checked after every serve run.
fn assert_serve_invariants(
    scenario: &str,
    core: &ServeCore,
    requests: &[Request],
    responses: &[Response],
) {
    assert_eq!(
        responses.len(),
        requests.len(),
        "{scenario}: every request must be answered (no silent drops)"
    );
    // Bounded memory: the queue never grew past its hard capacity.
    let capacity = core.config().queue_capacity.max(1);
    assert!(
        core.queue().peak_depth() <= capacity,
        "{scenario}: queue peak {} exceeded capacity {capacity}",
        core.queue().peak_depth()
    );
    // Typed shedding only: the traffic is valid by construction, so the
    // only acceptable errors are the two retryable shedding refusals.
    let mut applied_epochs: Vec<u64> = Vec::new();
    for resp in responses {
        match &resp.outcome {
            Ok(reply) => {
                let epoch = resp.epoch.unwrap_or_else(|| {
                    panic!("{scenario}: seq {} answered without an epoch", resp.seq)
                });
                if let domd_serve::Reply::Ingested { epoch: published, .. } = reply {
                    assert!(
                        *published <= core.tenant_store(resp.tenant).map(|s| s.epoch()).unwrap_or(0)
                            && *published > epoch,
                        "{scenario}: seq {} published epoch {published} inconsistent with pin {epoch}",
                        resp.seq
                    );
                    applied_epochs.push(*published);
                }
            }
            Err(e) => {
                assert!(
                    e.is_retryable(),
                    "{scenario}: seq {} failed with untyped/unexpected error: {e}",
                    resp.seq
                );
            }
        }
    }
    // No torn publication: applied ingests hold distinct epochs.
    applied_epochs.sort_unstable();
    applied_epochs.dedup();
    let mut distinct = applied_epochs.clone();
    distinct.dedup();
    assert_eq!(applied_epochs, distinct, "{scenario}: two ingests claimed one epoch");
    // Every answered pin is at or before the final epoch of its tenant.
    for resp in responses {
        if let (Ok(_), Some(epoch)) = (&resp.outcome, resp.epoch) {
            let fin = core.tenant_store(resp.tenant).map(|s| s.epoch()).unwrap_or(0);
            assert!(
                epoch <= fin,
                "{scenario}: seq {} pinned epoch {epoch} after final {fin}",
                resp.seq
            );
        }
    }
    // Metric conservation: each response bumped exactly one terminal
    // counter, so the four of them partition the response set.
    let m = core.metrics();
    assert_eq!(
        m.completed_ok + m.failed + m.shed_queue_full + m.shed_deadline,
        responses.len() as u64,
        "{scenario}: metrics do not partition the responses: {m:?}"
    );
    assert_eq!(m.submitted, requests.len() as u64, "{scenario}: submissions miscounted");
}

/// One general chaos scenario: seed-derived workers/capacity/budget and
/// seed-derived clock advances injected at stage boundaries (slow
/// handlers → deadline races), over seeded mixed traffic pushed through
/// the queue as fast as admission allows (queue-full storms).
fn run_general_scenario(seed: u64) {
    let scenario = format!("general seed {seed}");
    let mut rng = SmallRng::seed_from_u64(seed);
    let workers = rng.gen_range(1..5usize);
    let capacity = rng.gen_range(2..12usize);
    let budget = rng.gen_range(4..400u64);
    let advance_admit = rng.gen_range(0..8u64);
    let advance_pinned = rng.gen_range(0..20u64);
    let advance_presweep = rng.gen_range(0..40u64);

    let ds = base_dataset();
    let traffic = generate_schedule(
        &LoadGenConfig {
            seed: seed ^ 0x5EED,
            tenants: 2,
            requests: 24,
            budget,
            ..LoadGenConfig::default()
        },
        &[&ds, &ds],
    );
    let requests: Vec<Request> = traffic.into_iter().map(|(_, r)| r).collect();

    let clock = ManualClock::new();
    let hook = {
        let clock = Arc::clone(&clock);
        Arc::new(move |stage: Stage, _req: &Request| {
            match stage {
                Stage::Admitted => clock.advance(advance_admit),
                Stage::Pinned => clock.advance(advance_pinned),
                Stage::PreSweep => clock.advance(advance_presweep),
                Stage::Done => 0,
            };
        })
    };
    let core = ServeCore::new(
        ServeConfig {
            workers,
            queue_capacity: capacity,
            default_budget: budget,
            ..ServeConfig::default()
        },
        clock,
        model(),
        vec![
            TenantSnapshot::from_dataset(ds.clone()),
            TenantSnapshot::from_dataset(ds.clone()),
        ],
    )
    .with_hook(hook);

    let responses = assert_no_panic(&scenario, || core.run_batch(&requests));
    assert_serve_invariants(&scenario, &core, &requests, &responses);
}

/// One swap-heavy scenario: on top of the general chaos, the stage hook
/// publishes an epoch through the tenant-0 store at seed-chosen pin
/// boundaries — every read races a mutation that lands mid-request.
fn run_swap_scenario(seed: u64) {
    let scenario = format!("swap seed {seed}");
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let workers = rng.gen_range(2..5usize);
    let capacity = rng.gen_range(4..16usize);
    let budget = rng.gen_range(50..2_000u64);
    let swap_every = rng.gen_range(1..4u64);
    let advance_pinned = rng.gen_range(0..6u64);

    let ds = base_dataset();
    let traffic = generate_schedule(
        &LoadGenConfig {
            seed: seed ^ 0xA1B2,
            tenants: 1,
            requests: 20,
            budget,
            ..LoadGenConfig::default()
        },
        &[&ds],
    );
    let requests: Vec<Request> = traffic.into_iter().map(|(_, r)| r).collect();

    let clock = ManualClock::new();
    let core = ServeCore::new(
        ServeConfig {
            workers,
            queue_capacity: capacity,
            default_budget: budget,
            ..ServeConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn domd_serve::Clock>,
        model(),
        vec![TenantSnapshot::from_dataset(ds.clone())],
    );
    let store = core.tenant_store(0).expect("tenant 0 exists");
    let a0 = ds.avails()[0].clone();
    // domd-lint: allow(no-panic) — fixed valid literal
    let swlin: Swlin = "55-66-777".parse().unwrap_or_else(|_| Swlin::from_packed(0).unwrap());
    let pins = Arc::new(AtomicU64::new(0));
    let hook = {
        let store = Arc::clone(&store);
        let pins = Arc::clone(&pins);
        let a0 = a0.clone();
        Arc::new(move |stage: Stage, _req: &Request| {
            if stage == Stage::Pinned {
                clock.advance(advance_pinned);
                if pins.fetch_add(1, Ordering::Relaxed).is_multiple_of(swap_every) {
                    store.update(|snap| {
                        snap.ingest(
                            a0.id,
                            RccType::Growth,
                            swlin,
                            a0.actual_start + 1,
                            a0.actual_start + 5,
                            31.0,
                        )
                        .expect("hook ingest against a valid avail")
                    });
                }
            }
        })
    };
    let core = core.with_hook(hook);

    let responses = assert_no_panic(&scenario, || core.run_batch(&requests));
    assert_serve_invariants(&scenario, &core, &requests, &responses);
    // The hook really did race swaps against the in-flight requests.
    let executed = responses.iter().filter(|r| r.epoch.is_some()).count() as u64;
    if executed > 0 {
        assert!(
            store.epoch() > 0,
            "{scenario}: swap hook never published despite {executed} executed requests"
        );
    }
}

/// One batched-ingest chaos scenario: ingest-heavy seeded traffic whose
/// batches carry 1–3 rows each (the loadgen mix), racing slow-handler
/// clock advances, with a durable store attached so WAL-before-apply
/// covers whole batches. On top of the four serving invariants, batch
/// accounting must hold: every ack covers its whole batch, each acked
/// batch published exactly one (dense) epoch, `rows_ingested` equals the
/// sum of acked batch sizes, and every acked row reached the WAL.
fn run_batched_ingest_scenario(seed: u64) {
    let scenario = format!("batched-ingest seed {seed}");
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x0B47_C4ED));
    let workers = rng.gen_range(1..5usize);
    let capacity = rng.gen_range(4..16usize);
    let advance_pinned = rng.gen_range(0..10u64);

    let ds = base_dataset();
    let traffic = generate_schedule(
        &LoadGenConfig {
            seed: seed ^ 0xBA7C,
            tenants: 1,
            requests: 24,
            budget: 5_000,
            mix: domd_serve::TrafficMix { status: 10, predict: 10, alert: 0, ingest: 80 },
            ..LoadGenConfig::default()
        },
        &[&ds],
    );
    let requests: Vec<Request> = traffic.into_iter().map(|(_, r)| r).collect();
    assert!(
        requests
            .iter()
            .any(|r| matches!(&r.op, Op::Ingest { rows } if rows.len() > 1)),
        "{scenario}: traffic must carry multi-row batches"
    );

    let clock = ManualClock::new();
    let hook = {
        let clock = Arc::clone(&clock);
        Arc::new(move |stage: Stage, _req: &Request| {
            if stage == Stage::Pinned {
                clock.advance(advance_pinned);
            }
        })
    };
    let dir = chaos_dir(&format!("batch{seed}"));
    let projected = project_dataset(&ds);
    let di = DurableIndex::create(&dir, &projected).expect("create store");
    let rows_before = di.len();
    let core = ServeCore::new(
        ServeConfig {
            workers,
            queue_capacity: capacity,
            default_budget: 5_000,
            ..ServeConfig::default()
        },
        clock,
        model(),
        vec![TenantSnapshot::from_dataset(ds.clone())],
    )
    .with_durable(0, di)
    .expect("tenant 0 exists")
    .with_hook(hook);

    let responses = assert_no_panic(&scenario, || core.run_batch(&requests));
    assert_serve_invariants(&scenario, &core, &requests, &responses);

    let (mut acked_batches, mut acked_rows) = (0u64, 0u64);
    for resp in &responses {
        if let Ok(domd_serve::Reply::Ingested { rows, .. }) = &resp.outcome {
            acked_batches += 1;
            acked_rows += u64::from(*rows);
            let Op::Ingest { rows: sent } = &requests[resp.seq as usize].op else {
                panic!("{scenario}: ingest ack for a non-ingest request");
            };
            assert_eq!(
                *rows as usize,
                sent.len(),
                "{scenario}: seq {} ack must cover the whole batch",
                resp.seq
            );
        }
    }
    let m = core.metrics();
    assert_eq!(m.epochs_published, acked_batches, "{scenario}: one epoch per acked batch");
    assert_eq!(m.rows_ingested, acked_rows, "{scenario}: rows_ingested counts acked rows");
    // The traffic is valid by construction, so the store's epoch counter
    // equals the acked batches: batch publication keeps epochs dense.
    assert_eq!(
        core.tenant_store(0).map(|s| s.epoch()),
        Some(acked_batches),
        "{scenario}: batched publication must keep epochs dense"
    );
    assert_eq!(
        core.durable_rows(0),
        Some(rows_before + acked_rows as usize),
        "{scenario}: every acked row must reach the WAL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_storms_hold_invariants_under_slow_handlers_and_tight_queues() {
    for seed in 0..160u64 {
        run_general_scenario(seed);
    }
}

#[test]
fn batched_ingest_storms_hold_batch_accounting_and_invariants() {
    for seed in 0..16u64 {
        run_batched_ingest_scenario(seed);
    }
}

#[test]
fn mid_request_epoch_swaps_never_tear_reads() {
    for seed in 0..40u64 {
        run_swap_scenario(seed);
    }
}

/// The serving core predicts through forests compiled at train time, and
/// an epoch swap must republish against them: the predict after an
/// ingest pins the new epoch (never a stale one), and both before and
/// after the swap the served answer is bit-identical to a reference
/// computed on a fresh pin of the same store.
#[test]
fn epoch_swaps_republish_compiled_forests_and_served_matches_a_fresh_pin() {
    let ds = base_dataset();
    let shared = model();
    let a0 = ds.avails()[0].clone();

    // Every boosted step serves through a forest compiled when the model
    // was fitted — bit-identical to the pointer walker before any
    // request touches it, so no request ever pays a compile.
    let mut gbt_steps = 0usize;
    for (i, step) in shared.pipeline.steps.iter().enumerate() {
        if let domd_ml::TrainedModel::Gbt(m) = &step.model {
            gbt_steps += 1;
            assert!(m.flat().n_trees() > 0, "step {i}: no compiled forest");
            let width = shared.pipeline.step_input_names(i).len();
            for probe in 0..4 {
                let row: Vec<f64> = (0..width)
                    .map(|j| (j as f64).mul_add(0.37, f64::from(probe) - 1.5))
                    .collect();
                assert_eq!(
                    m.predict_row(&row).to_bits(),
                    m.predict_row_pointer(&row).to_bits(),
                    "step {i}: compiled forest diverged from the pointer walker"
                );
            }
        }
    }
    assert!(gbt_steps > 0, "pipeline has no boosted steps to compile");

    let core = ServeCore::new(
        ServeConfig { workers: 1, queue_capacity: 8, ..ServeConfig::default() },
        ManualClock::new(),
        model(),
        vec![TenantSnapshot::from_dataset(ds.clone())],
    );
    let store = core.tenant_store(0).expect("tenant 0 exists");
    let served_estimates = |resp: &Response| -> Vec<(u64, u64)> {
        match &resp.outcome {
            Ok(domd_serve::Reply::Predict { estimates, .. }) => estimates
                .iter()
                .map(|e| (e.t_star.to_bits(), e.estimated_delay.to_bits()))
                .collect(),
            other => panic!("expected a predict reply, got {other:?}"),
        }
    };
    let fresh_pin_reference = || -> Vec<(u64, u64)> {
        let pinned = store.pin();
        shared
            .pipeline
            .predict_online_checked(&pinned.dataset, &shared.features, a0.id, 40.0)
            .estimates
            .iter()
            .map(|(t, e)| (t.to_bits(), e.to_bits()))
            .collect()
    };

    // Epoch 0: the served answer matches the fresh-pin reference.
    // Requests go through `execute` directly (`run_batch` consumes the
    // core's queue) so each predict brackets the swap deterministically.
    let before = core.execute(core.stamp(0, 0, Op::Predict { avail: a0.id, t_star: 40.0 }));
    assert_eq!(before.epoch, Some(0), "first predict must pin epoch 0");
    assert_eq!(
        served_estimates(&before),
        fresh_pin_reference(),
        "serving diverged from the fresh-pin reference before the swap"
    );

    // Swap: ingest builds and publishes epoch 1.
    let swlin = Swlin::from_packed(556_677).expect("valid packed swlin");
    let ingest = core.execute(core.stamp(
        1,
        0,
        Op::ingest_one(
            a0.id,
            RccType::Growth,
            swlin,
            a0.actual_start + 1,
            a0.actual_start + 5,
            31.0,
        ),
    ));
    match &ingest.outcome {
        Ok(domd_serve::Reply::Ingested { epoch, .. }) => {
            assert_eq!(*epoch, 1, "ingest must publish epoch 1");
        }
        other => panic!("expected an ingested reply, got {other:?}"),
    }
    assert_eq!(core.metrics().epochs_published, 1, "swap must count as a publication");

    // Epoch 1: the next predict pins the republished epoch — never the
    // stale one the first predict read — and recomputes through the
    // compiled kernel to the same bits as a fresh read of the new epoch.
    let after = core.execute(core.stamp(2, 0, Op::Predict { avail: a0.id, t_star: 40.0 }));
    assert_eq!(after.epoch, Some(1), "stale epoch served after the swap");
    assert_eq!(
        served_estimates(&after),
        fresh_pin_reference(),
        "serving diverged from the fresh-pin reference after the swap"
    );
}

fn chaos_dir(label: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("domd-serve-chaos-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Startup chaos: a serve core must come up through `DurableIndex`
/// recovery even when the WAL took byte-level damage — announcing the
/// damage — or refuse with a typed storage error; it must never panic,
/// and a core that does come up must serve (including WAL-before-apply
/// ingests into the recovered store).
#[test]
fn startup_recovery_over_damaged_stores_never_panics_and_serves() {
    let ds = base_dataset();
    let projected = project_dataset(&ds);
    let a0 = ds.avails()[0].clone();
    let mut recovered_ok = 0usize;
    for seed in 0..48u64 {
        let scenario = format!("startup seed {seed}");
        let dir = chaos_dir(&format!("s{seed}"));
        {
            let mut di = DurableIndex::create(&dir, &projected).expect("create store");
            // A few WAL records past the checkpoint so the tail is live.
            for k in 0..4u32 {
                let mut rcc = projected[k as usize % projected.len()];
                rcc.id = projected.len() as u32 + k;
                di.insert(&rcc).expect("seed insert");
            }
        }
        // Damage the WAL deterministically.
        let wal = dir.join("wal.log");
        let good = std::fs::read(&wal).expect("read wal");
        let (bad, kind) = corrupt_bytes(&good, seed, None);
        std::fs::write(&wal, &bad).expect("write damaged wal");

        let outcome = assert_no_panic(&scenario, || DurableIndex::recover(&dir));
        match outcome {
            Err(e) => {
                // A typed refusal is a legal startup outcome; the CLI maps
                // it to the Corrupt exit code.
                assert!(!format!("{e}").is_empty(), "{scenario} ({kind}): empty error");
            }
            Ok((di, report)) => {
                recovered_ok += 1;
                // The operator sees the damage before traffic starts.
                let mut announced = Vec::new();
                announce_recovery(&mut announced, &report);
                let text = String::from_utf8_lossy(&announced);
                assert!(
                    text.contains("recovered store at checkpoint epoch"),
                    "{scenario} ({kind}): missing recovery banner: {text}"
                );
                if report.quarantined_tail.is_some() {
                    assert!(
                        text.contains("quarantined"),
                        "{scenario} ({kind}): quarantined tail not announced: {text}"
                    );
                }
                // The recovered store serves, and ingests reach its WAL.
                let rows_before = di.len();
                let core = ServeCore::new(
                    ServeConfig { workers: 2, queue_capacity: 8, ..ServeConfig::default() },
                    ManualClock::new(),
                    model(),
                    vec![TenantSnapshot::from_dataset(ds.clone())],
                )
                .with_durable(0, di)
                .expect("tenant 0 exists");
                let requests: Vec<Request> = (0..6u64)
                    .map(|i| {
                        core.stamp(
                            i,
                            0,
                            if i % 2 == 0 {
                                Op::Predict { avail: a0.id, t_star: 30.0 }
                            } else {
                                Op::ingest_one(
                                    a0.id,
                                    RccType::NewWork,
                                    Swlin::from_packed(777 + seed as u32)
                                        .expect("valid packed swlin"),
                                    a0.actual_start + 2,
                                    a0.actual_start + 9,
                                    12.5,
                                )
                            },
                        )
                    })
                    .collect();
                let responses = assert_no_panic(&scenario, || core.run_batch(&requests));
                assert_serve_invariants(&scenario, &core, &requests, &responses);
                let ingested = responses
                    .iter()
                    .filter(|r| matches!(r.outcome, Ok(domd_serve::Reply::Ingested { .. })))
                    .count();
                assert_eq!(ingested, 3, "{scenario} ({kind}): ingests must apply after recovery");
                // WAL-before-apply means *reach the WAL*, even though the
                // recovered store already holds row ids the snapshot's
                // arena length would collide with: every acked ingest must
                // be live in the durable store, never silently dropped.
                assert_eq!(
                    core.durable_rows(0),
                    Some(rows_before + ingested),
                    "{scenario} ({kind}): acked ingests missing from the durable store"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The corpus must exercise the recovered-and-serving path, not only
    // refusals (recovery is designed to survive most tail damage).
    assert!(recovered_ok >= 10, "only {recovered_ok}/48 damaged stores recovered");
}
