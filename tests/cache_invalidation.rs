//! Recompute-after-ingest check for online predictions. No serving path
//! memoizes feature rows: a predict computes its projected columns from
//! the epoch it pins. So after an ingest into one avail, that avail's
//! served answer is the projected recompute on the new epoch, and every
//! other avail keeps its answer bit for bit. `domd query`'s engine gives
//! the served answer on either epoch.

use std::sync::Arc;

use domd::core::{DomdEstimate, DomdQueryEngine, PipelineConfig, PipelineInputs, TrainedPipeline};
use domd::data::{generate, AvailId, Dataset, GeneratorConfig, RccType, Swlin};
use domd::features::FeatureEngine;
use domd::serve::{
    IngestRow, ManualClock, Op, Reply, ServeConfig, ServeCore, SharedModel, TenantSnapshot,
};

const T_STAR: f64 = 75.0;

fn setup() -> (Dataset, TrainedPipeline) {
    let ds = generate(&GeneratorConfig { n_avails: 12, target_rccs: 1_200, scale: 1, seed: 12 });
    let split = ds.split(7);
    let inputs = PipelineInputs::build(&ds, 25.0);
    let mut config = PipelineConfig::default0();
    config.grid_step = 25.0;
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &config);
    (ds, pipeline)
}

/// `(t*, estimate)` bits of one answer.
type Bits = Vec<(u64, u64)>;

fn bits(estimates: &[DomdEstimate]) -> Bits {
    estimates.iter().map(|e| (e.t_star.to_bits(), e.estimated_delay.to_bits())).collect()
}

fn served(core: &ServeCore, seq: u64, avail: AvailId) -> Bits {
    let resp = core.serve_one(core.stamp(seq, 0, Op::Predict { avail, t_star: T_STAR }));
    match resp.outcome {
        Ok(Reply::Predict { estimates, .. }) => bits(&estimates),
        other => panic!("predict of avail {avail} failed: {other:?}"),
    }
}

/// A one-tenant core over `ds`, every avail's served answer, then the
/// same after a batch of RCCs ingested into `ds`'s first avail: the
/// pipeline, both epochs' datasets and both rounds of answers.
struct Served {
    pipeline: TrainedPipeline,
    touched: AvailId,
    before: (Dataset, Vec<Bits>),
    after: (Dataset, Vec<Bits>),
}

fn serve_across_an_ingest() -> Served {
    let (ds, pipeline) = setup();
    let pipeline_arc = Arc::new(pipeline.clone());
    let model = SharedModel { pipeline: pipeline_arc, features: FeatureEngine::default() };
    let core = ServeCore::new(
        ServeConfig::default(),
        ManualClock::new(),
        model,
        vec![TenantSnapshot::from_dataset(ds.clone())],
    );
    let store = core.tenant_store(0).expect("tenant 0");
    let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
    let mut seq = 0;
    let round = |seq: &mut u64| -> (Dataset, Vec<Bits>) {
        let answers = ids
            .iter()
            .map(|&id| {
                *seq += 1;
                served(&core, *seq, id)
            })
            .collect();
        (Dataset::clone(&store.pin().dataset), answers)
    };
    let before = round(&mut seq);

    // Rows of every type across SWLIN subsystems, all created before the
    // queried anchor: they change the touched avail's feature rows.
    let a = ds.avails()[0].clone();
    let rows: Vec<IngestRow> = (0..12u32)
        .map(|i| IngestRow {
            avail: a.id,
            rcc_type: RccType::ALL[i as usize % 3],
            swlin: Swlin::from_packed(10_000_000 * (i % 10) + 345_678).expect("8-digit swlin"),
            created: a.actual_start + (2 + i as i32),
            settled: a.actual_start + (30 + 5 * i as i32),
            amount: 2_500.0 + 250.0 * f64::from(i),
        })
        .collect();
    seq += 1;
    let ack = core.serve_one(core.stamp(seq, 0, Op::Ingest { rows }));
    assert!(matches!(ack.outcome, Ok(Reply::Ingested { epoch: 1, .. })), "{:?}", ack.outcome);
    let after = round(&mut seq);
    Served { pipeline, touched: a.id, before, after }
}

#[test]
fn served_predict_after_an_ingest_recomputes_only_the_touched_avail() {
    let Served { pipeline, touched, before, after } = serve_across_an_ingest();
    let engine = FeatureEngine::default();
    let (old, new) = (&before.0, &after.0);
    assert_ne!(
        engine.features_for_avail_at(old, touched, T_STAR),
        engine.features_for_avail_at(new, touched, T_STAR),
        "the ingest must change the touched avail's feature row"
    );
    for (i, a) in new.avails().iter().enumerate() {
        let want = |ds: &Dataset| -> Bits {
            let online = pipeline.predict_online_checked(ds, &engine, a.id, T_STAR);
            online.estimates.iter().map(|(t, e)| (t.to_bits(), e.to_bits())).collect()
        };
        assert_eq!(before.1[i], want(old), "avail {} on epoch 0", a.id);
        assert_eq!(after.1[i], want(new), "avail {} on epoch 1", a.id);
        if a.id == touched {
            assert_ne!(after.1[i], before.1[i], "the touched avail's answer must be recomputed");
        } else {
            assert_eq!(after.1[i], before.1[i], "avail {} must keep its bits", a.id);
        }
    }
}

#[test]
fn query_engine_gives_the_served_answer_on_either_epoch() {
    let Served { pipeline, before, after, .. } = serve_across_an_ingest();
    for (epoch, (ds, answers)) in [before, after].iter().enumerate() {
        let engine = DomdQueryEngine::new(ds, &pipeline);
        for (a, served) in ds.avails().iter().zip(answers) {
            let got = engine.query_logical(a.id, T_STAR).expect("known avail");
            assert_eq!(&bits(&got.estimates), served, "avail {} on epoch {epoch}", a.id);
        }
    }
}
