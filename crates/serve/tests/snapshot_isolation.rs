//! Snapshot-isolation property suite for the serving core.
//!
//! The contract under test: a read that pins epoch `e` answers from
//! epoch `e` — all of it and nothing else — no matter how many epochs
//! ingest publishes while the read is in flight. "Answers from epoch
//! `e`" is checked the strong way: every read response is recomputed
//! *from scratch* (a fresh [`TenantSnapshot`] built by replaying exactly
//! the ingests that had published by `e`) and compared `to_bits`, at
//! every worker count the pool can take.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use domd_core::{PipelineConfig, PipelineInputs, TrainedPipeline};
use domd_data::rcc::{RccStatus, RccType, Swlin};
use domd_data::{generate, Dataset, GeneratorConfig};
use domd_features::FeatureEngine;
use domd_index::StatusQuery;
use domd_serve::{
    IngestRow, ManualClock, Op, Reply, Request, Response, ServeConfig, ServeCore, SharedModel,
    Stage, TenantSnapshot,
};

fn base_dataset() -> Dataset {
    generate(&GeneratorConfig { n_avails: 10, target_rccs: 700, scale: 1, seed: 17 })
}

/// One small pipeline shared by every test in the binary (training
/// dominates runtime; the serving contract does not depend on size).
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

/// A deterministic read/ingest mix: every third request mutates (with
/// alternating one- and two-row batches, so batched publication is under
/// the bit-identity contract too), the rest split between Status Queries
/// and predictions.
fn mixed_requests(ds: &Dataset, n: usize) -> Vec<Request> {
    let avails = ds.avails();
    let statuses =
        [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated];
    (0..n)
        .map(|i| {
            let a = &avails[i % avails.len()];
            let op = match i % 3 {
                0 => Op::Status(StatusQuery {
                    rcc_type: None,
                    swlin_prefix: None,
                    status: statuses[i % statuses.len()],
                    t_star: 10.0 + (i as f64) * 3.0,
                }),
                1 => Op::Predict { avail: a.id, t_star: 15.0 + (i as f64) * 2.0 },
                _ => {
                    let row = |j: usize| IngestRow {
                        avail: avails[(i + j) % avails.len()].id,
                        rcc_type: [RccType::Growth, RccType::NewWork, RccType::NewGrowth]
                            [(i + j) % 3],
                        swlin: Swlin::from_packed(((i + 13 * j) as u32 * 1_037) % 100_000_000)
                            .unwrap(),
                        created: avails[(i + j) % avails.len()].actual_start + (i as i32 % 5),
                        settled: avails[(i + j) % avails.len()].actual_start
                            + (i as i32 % 5)
                            + 3
                            + (i as i32 % 7),
                        amount: 100.0 + (i + 17 * j) as f64,
                    };
                    Op::Ingest { rows: (0..1 + (i / 3) % 2).map(row).collect() }
                }
            };
            Request { seq: i as u64, tenant: 0, submitted: 0, budget: u64::MAX / 2, op }
        })
        .collect()
}

/// Rebuilds the tenant snapshot as it stood at publication epoch
/// `epoch`, by replaying the ingests whose responses reported an epoch
/// at or below it, in publication order.
fn snapshot_at(base: &Dataset, applied: &[(u64, Op)], epoch: u64) -> TenantSnapshot {
    let mut s = TenantSnapshot::from_dataset(base.clone());
    let mut upto: Vec<&(u64, Op)> = applied.iter().filter(|(e, _)| *e <= epoch).collect();
    upto.sort_by_key(|(e, _)| *e);
    for (_, op) in upto {
        let Op::Ingest { rows } = op else {
            panic!("replay log holds a non-ingest op");
        };
        // Replay row-by-row through the single-row path: the batch path
        // must be bit-identical to it (that's the equivalence under test).
        for r in rows {
            s.ingest(r.avail, r.rcc_type, r.swlin, r.created, r.settled, r.amount)
                .expect("replayed ingest was valid when served");
        }
    }
    s
}

/// Checks one read response against a from-scratch recompute of its
/// pinned epoch. Predictions compare estimate-by-estimate `to_bits`;
/// Status Queries compare the whole aggregate `to_bits`.
fn assert_matches_recompute(
    scenario: &str,
    model: &SharedModel,
    req: &Request,
    resp: &Response,
    recomputed: &TenantSnapshot,
) {
    let epoch = resp.epoch.expect("read responses carry their pinned epoch");
    let reply = resp
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("{scenario}: read seq {} failed: {e}", resp.seq));
    match (&req.op, reply) {
        (Op::Status(query), Reply::Status(got)) => {
            let want = recomputed.engine.aggregate(query);
            assert_eq!(got.count, want.count, "{scenario}: seq {} epoch {epoch} count", resp.seq);
            assert_eq!(
                got.sum_amount.to_bits(),
                want.sum_amount.to_bits(),
                "{scenario}: seq {} epoch {epoch} sum_amount",
                resp.seq
            );
            assert_eq!(
                got.sum_duration.to_bits(),
                want.sum_duration.to_bits(),
                "{scenario}: seq {} epoch {epoch} sum_duration",
                resp.seq
            );
        }
        (Op::Predict { avail, t_star }, Reply::Predict { estimates, .. }) => {
            let want = model.pipeline.predict_online_checked(
                &recomputed.dataset,
                &model.features,
                *avail,
                *t_star,
            );
            assert_eq!(
                estimates.len(),
                want.estimates.len(),
                "{scenario}: seq {} epoch {epoch} estimate count",
                resp.seq
            );
            for (got, (wt, we)) in estimates.iter().zip(&want.estimates) {
                assert_eq!(
                    got.t_star.to_bits(),
                    wt.to_bits(),
                    "{scenario}: seq {} epoch {epoch} grid point",
                    resp.seq
                );
                assert_eq!(
                    got.estimated_delay.to_bits(),
                    we.to_bits(),
                    "{scenario}: seq {} epoch {epoch} estimate",
                    resp.seq
                );
            }
        }
        (op, reply) => panic!("{scenario}: seq {} op/reply mismatch: {op:?} vs {reply:?}", resp.seq),
    }
}

/// The ingest publication log: `(epoch, op)` in publication order.
type PublicationLog = Vec<(u64, Op)>;

/// Splits responses into the ingest publication log and the reads.
fn split_responses<'a>(
    requests: &'a [Request],
    responses: &'a [Response],
) -> (PublicationLog, Vec<(&'a Request, &'a Response)>) {
    let mut applied = Vec::new();
    let mut reads = Vec::new();
    for resp in responses {
        let req = &requests[resp.seq as usize];
        if req.op.is_mutation() {
            let Ok(Reply::Ingested { epoch, .. }) = &resp.outcome else {
                panic!("ingest seq {} did not apply: {:?}", resp.seq, resp.outcome);
            };
            applied.push((*epoch, req.op.clone()));
        } else {
            reads.push((req, resp));
        }
    }
    (applied, reads)
}

#[test]
fn concurrent_reads_match_from_scratch_recompute_at_every_worker_count() {
    let ds = base_dataset();
    let model = model();
    for workers in [1usize, 2, 3, 8] {
        let scenario = format!("workers={workers}");
        let requests = mixed_requests(&ds, 36);
        let core = ServeCore::new(
            ServeConfig { workers, queue_capacity: 64, ..ServeConfig::default() },
            ManualClock::new(),
            model.clone(),
            vec![TenantSnapshot::from_dataset(ds.clone())],
        );
        let responses = core.run_batch(&requests);
        assert_eq!(responses.len(), requests.len(), "{scenario}: every request answered");

        let (applied, reads) = split_responses(&requests, &responses);
        // Every valid ingest published exactly one epoch.
        let mut epochs: Vec<u64> = applied.iter().map(|(e, _)| *e).collect();
        epochs.sort_unstable();
        assert_eq!(
            epochs,
            (1..=applied.len() as u64).collect::<Vec<_>>(),
            "{scenario}: publication epochs are dense"
        );

        for (req, resp) in reads {
            let epoch = resp.epoch.expect("reads carry their epoch");
            let recomputed = snapshot_at(&ds, &applied, epoch);
            assert_matches_recompute(&scenario, &model, req, resp, &recomputed);
        }
    }
}

#[test]
fn reads_pinned_before_a_swap_answer_from_the_old_epoch() {
    // Deterministic single-request variant: a hook publishes a new epoch
    // *between* the request's pin and its execution, so the swap is
    // guaranteed mid-request — the strictest possible race.
    let ds = base_dataset();
    let model = model();
    let a0 = ds.avails()[0].clone();
    let core = ServeCore::new(
        ServeConfig::default(),
        ManualClock::new(),
        model.clone(),
        vec![TenantSnapshot::from_dataset(ds.clone())],
    );
    let store = core.tenant_store(0).expect("tenant 0 exists");
    let swlin: Swlin = "123-45-678".parse().unwrap();
    let swaps = Arc::new(AtomicU64::new(0));
    let hook = {
        let store = Arc::clone(&store);
        let swaps = Arc::clone(&swaps);
        let a0 = a0.clone();
        Arc::new(move |stage: Stage, req: &Request| {
            if stage == Stage::Pinned && !req.op.is_mutation() {
                store.update(|snap| {
                    snap.ingest(
                        a0.id,
                        RccType::Growth,
                        swlin,
                        a0.actual_start + 1,
                        a0.actual_start + 4,
                        250.0,
                    )
                    .expect("hook ingest is valid")
                });
                swaps.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let core = core.with_hook(hook);

    let query = StatusQuery {
        rcc_type: None,
        swlin_prefix: None,
        status: RccStatus::Created,
        t_star: f64::INFINITY,
    };
    let baseline = TenantSnapshot::from_dataset(ds.clone());
    for i in 0..5u64 {
        let req = core.stamp(i, 0, Op::Status(query));
        let resp = core.serve_one(req);
        // The read pinned epoch `i` (i swaps had landed before it), and
        // the i+1'th swap fired after its pin — the answer must match a
        // recompute of epoch i, not i+1.
        assert_eq!(resp.epoch, Some(i), "read {i} pinned the pre-swap epoch");
        let Ok(Reply::Status(got)) = &resp.outcome else {
            panic!("read {i} failed: {:?}", resp.outcome);
        };
        let mut want = baseline.clone();
        for _ in 0..i {
            want.ingest(
                a0.id,
                RccType::Growth,
                swlin,
                a0.actual_start + 1,
                a0.actual_start + 4,
                250.0,
            )
            .expect("replayed hook ingest");
        }
        let want = want.engine.aggregate(&query);
        assert_eq!(got.count, want.count, "read {i}: count from pinned epoch");
        assert_eq!(
            got.sum_amount.to_bits(),
            want.sum_amount.to_bits(),
            "read {i}: amount from pinned epoch"
        );
    }
    assert_eq!(swaps.load(Ordering::Relaxed), 5, "one mid-request swap per read");
    // After all the mid-read swaps, a fresh pin sees every ingest.
    let store = core.tenant_store(0).expect("tenant 0");
    assert_eq!(store.epoch(), 5);
}

#[test]
fn served_predictions_match_a_recompute_of_their_epoch_across_ingests() {
    // Serving the same (avail, t_star) repeatedly — with epoch swaps in
    // between that change the avail's rows — always bit-matches a
    // recompute on a snapshot rebuilt for the epoch the answer pinned.
    let ds = base_dataset();
    let model = model();
    let a = ds.avails()[1].clone();
    let core = ServeCore::new(
        ServeConfig::default(),
        ManualClock::new(),
        model.clone(),
        vec![TenantSnapshot::from_dataset(ds.clone())],
    );
    let store = core.tenant_store(0).expect("tenant 0");
    let swlin: Swlin = "00900800".parse().unwrap();
    let mut applied: Vec<(u64, Op)> = Vec::new();
    for round in 0..4u64 {
        for rep in 0..3u64 {
            let t_star = 20.0 + round as f64 * 7.0;
            let req = core.stamp(round * 10 + rep, 0, Op::Predict { avail: a.id, t_star });
            let resp = core.serve_one(req);
            let Ok(Reply::Predict { estimates, .. }) = &resp.outcome else {
                panic!("predict failed: {:?}", resp.outcome);
            };
            let recomputed = snapshot_at(&ds, &applied, resp.epoch.expect("epoch"));
            let want = model.pipeline.predict_online_checked(
                &recomputed.dataset,
                &model.features,
                a.id,
                t_star,
            );
            assert_eq!(estimates.len(), want.estimates.len(), "round {round} rep {rep}");
            for (got, (wt, we)) in estimates.iter().zip(&want.estimates) {
                assert_eq!(got.t_star.to_bits(), wt.to_bits(), "round {round} rep {rep}");
                assert_eq!(
                    got.estimated_delay.to_bits(),
                    we.to_bits(),
                    "round {round} rep {rep}: serving diverged from recompute"
                );
            }
        }
        // Publish a new epoch directly through the store; the next round's
        // reads must see it and re-agree with the recompute.
        let op = Op::ingest_one(
            a.id,
            RccType::NewWork,
            swlin,
            a.actual_start + 2,
            a.actual_start + 6,
            77.0 + round as f64,
        );
        let (epoch, _) = store.update(|snap| {
            snap.ingest(a.id, RccType::NewWork, swlin, a.actual_start + 2, a.actual_start + 6, 77.0 + round as f64)
                .expect("direct ingest is valid")
        });
        applied.push((epoch, op));
    }
}
