//! Regression suite for the serve loop's durability and overload-input
//! contracts:
//!
//! * **Acked means logged** — an ingest answered `Reply::Ingested` is
//!   live in the tenant's durable store, across restarts (where the
//!   serving arena resets to the extracts while prior ingests stay live
//!   in the store) and across tenants (each tenant owns its own store,
//!   so per-store row ids can never collide). An ingest whose RCC ids
//!   would pass `u32::MAX` is refused before it reaches the WAL.
//! * **Client errors never trip the breaker** — a misconfigured client
//!   hammering an unknown avail must not force degraded serving onto
//!   every other client of the tenant.
//! * **Client-supplied budgets never overflow** — `budget=u64::MAX`
//!   means "no deadline", not a debug panic or an instant wrap-around
//!   deadline.
//! * **Protocol seqs are unique** — malformed lines consume their own
//!   sequence number, so clients matching responses by seq never see a
//!   collision.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use domd_core::{PipelineConfig, PipelineInputs, TrainedPipeline};
use domd_data::rcc::{RccId, RccType, Swlin};
use domd_data::{generate, Dataset, GeneratorConfig};
use domd_features::FeatureEngine;
use domd_index::{project_dataset, DurableIndex};
use domd_serve::{
    run_session, ManualClock, Op, Reply, ServeConfig, ServeCore, SharedModel, TenantSnapshot,
};

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

fn store_dir(label: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("domd-serve-dur-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn core_for(ds: &Dataset, tenants: usize) -> ServeCore {
    let snapshots = (0..tenants).map(|_| TenantSnapshot::from_dataset(ds.clone())).collect();
    ServeCore::new(
        ServeConfig { workers: 2, queue_capacity: 16, ..ServeConfig::default() },
        ManualClock::new(),
        model(),
        snapshots,
    )
}

fn ingest_op(ds: &Dataset, salt: u32) -> Op {
    let a = &ds.avails()[0];
    Op::ingest_one(
        a.id,
        RccType::NewWork,
        Swlin::from_packed(1_000 + salt).expect("valid packed swlin"),
        a.actual_start + 2,
        a.actual_start + 9,
        12.5,
    )
}

/// Runs `n` ingests through `serve_one` on tenant `t`, asserting each is
/// acked, and returns how many were acked.
fn ack_ingests(core: &ServeCore, ds: &Dataset, t: usize, n: u32, salt: u32) -> usize {
    let mut acked = 0;
    for i in 0..n {
        let req = core.stamp(u64::from(i), t, ingest_op(ds, salt + i));
        let resp = core.serve_one(req);
        match resp.outcome {
            Ok(Reply::Ingested { .. }) => acked += 1,
            other => panic!("ingest {i} on tenant {t} not acked: {other:?}"),
        }
    }
    acked
}

/// The high-severity regression: after a restart, the serving snapshot is
/// rebuilt from the extracts (its arena length resets) while the store
/// still holds the previous session's ingests. Durable row ids are
/// allocated by the store — past its own max — so the new session's
/// ingests must land in the WAL instead of colliding with live ids and
/// being silently dropped while still acked.
#[test]
fn acked_ingests_reach_the_wal_across_restarts() {
    let ds = base_dataset();
    let projected = project_dataset(&ds);
    let n = projected.len();
    let dir = store_dir("restart");

    // Session 1: fresh store initialized from the extracts' projection.
    {
        let di = DurableIndex::create(&dir, &projected).expect("create store");
        let core = core_for(&ds, 1).with_durable(0, di).expect("tenant 0");
        let acked = ack_ingests(&core, &ds, 0, 2, 0);
        assert_eq!(core.durable_rows(0), Some(n + acked), "session 1 acks must be logged");
        core.sync_durable().expect("sync");
    }

    // Restart: the store kept the ingests; the snapshot did not.
    let (di, report) = DurableIndex::recover(&dir).expect("recover");
    assert_eq!(report.rows, n + 2, "session 1 ingests survive the restart");
    {
        let core = core_for(&ds, 1).with_durable(0, di).expect("tenant 0");
        let acked = ack_ingests(&core, &ds, 0, 2, 100);
        assert_eq!(
            core.durable_rows(0),
            Some(n + 2 + acked),
            "session 2 acks must be logged even though the arena length resets"
        );
        core.sync_durable().expect("sync");
    }

    // Every ingested row is live under its own id: the four ingests got
    // the four ids past the projection, in order.
    let (di, _) = DurableIndex::recover(&dir).expect("recover again");
    let ids: Vec<u32> = di.entries().iter().map(|r| r.id).skip(n).collect();
    let n = n as u32;
    assert_eq!(ids, vec![n, n + 1, n + 2, n + 3]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two tenants project identical arena lengths from their identical
/// extracts; with one store per tenant their durable row ids live in
/// separate namespaces, so every tenant's acked ingests are logged.
#[test]
fn per_tenant_stores_keep_every_tenants_acks() {
    let ds = base_dataset();
    let projected = project_dataset(&ds);
    let n = projected.len();
    let dirs: Vec<PathBuf> = (0..2).map(|t| store_dir(&format!("tenant{t}"))).collect();

    let mut core = core_for(&ds, 2);
    for (t, dir) in dirs.iter().enumerate() {
        let di = DurableIndex::create(dir, &projected).expect("create store");
        core = core.with_durable(t, di).expect("tenant exists");
    }
    for t in 0..2 {
        let acked = ack_ingests(&core, &ds, t, 3, 10 * t as u32);
        assert_eq!(
            core.durable_rows(t),
            Some(n + acked),
            "tenant {t}: acked ingests missing from its own store"
        );
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The extracts with their last RCC relabelled to id `max`, the largest
/// id in the table. Extract validation puts no bound on RCC ids.
fn dataset_with_max_rcc_id(max: u32) -> Dataset {
    let ds = base_dataset();
    let mut rows = ds.rccs().to_vec();
    rows.last_mut().expect("extracts have rows").id = RccId(max);
    Dataset::new(ds.avails().to_vec(), rows)
}

/// A durable core over `ds` whose store holds the extracts' projection.
fn durable_core(ds: &Dataset, dir: &Path) -> ServeCore {
    let di = DurableIndex::create(dir, &project_dataset(ds)).expect("create store");
    core_for(ds, 1).with_durable(0, di).expect("tenant 0")
}

/// RCC ids are `u32`: an ingest whose ids would pass `u32::MAX` is a
/// typed config refusal made before any row reaches the WAL, never an
/// overflow panic or a wrap back to id 0.
#[test]
fn an_ingest_past_the_last_rcc_id_is_refused_before_the_wal() {
    let ds = dataset_with_max_rcc_id(u32::MAX - 1);
    let n = ds.rccs().len();
    let dir = store_dir("rcc-id-last");
    let core = durable_core(&ds, &dir);
    assert_eq!(ack_ingests(&core, &ds, 0, 1, 0), 1, "id u32::MAX is still free");
    let pinned = core.tenant_store(0).expect("tenant 0").pin();
    assert!(pinned.dataset.rccs().iter().any(|r| r.id == RccId(u32::MAX)));
    assert_eq!(core.durable_rows(0), Some(n + 1));
    let refused = core.serve_one(core.stamp(1, 0, ingest_op(&ds, 1))).outcome;
    assert_eq!(refused.expect_err("no RCC id is left").kind(), "config");
    assert_eq!(core.durable_rows(0), Some(n + 1), "a refused ingest must not reach the WAL");
    assert_eq!(core.tenant_store(0).expect("tenant 0").pin().dataset.rccs().len(), n + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn extracts_holding_rcc_id_u32_max_load_and_refuse_every_ingest() {
    let ds = dataset_with_max_rcc_id(u32::MAX);
    let snap = TenantSnapshot::from_dataset(ds.clone());
    assert_eq!(snap.rcc_ids_for(1).expect_err("no RCC id is left").kind(), "config");
    let n = ds.rccs().len();
    let dir = store_dir("rcc-id-max");
    let core = durable_core(&ds, &dir);
    let refused = core.serve_one(core.stamp(0, 0, ingest_op(&ds, 0))).outcome;
    assert_eq!(refused.expect_err("no RCC id is left").kind(), "config");
    assert_eq!(core.durable_rows(0), Some(n), "a refused ingest must not reach the WAL");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attaching_a_store_to_an_unknown_tenant_is_a_typed_error() {
    let ds = base_dataset();
    let dir = store_dir("unknown-tenant");
    let di = DurableIndex::create(&dir, &project_dataset(&ds)).expect("create store");
    match core_for(&ds, 1).with_durable(7, di) {
        Err(err) => assert_eq!(err.kind(), "config"),
        Ok(_) => panic!("attaching a store to tenant 7 of 1 must be refused"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A misconfigured client repeatedly asking for an unknown avail is a
/// client error, not pipeline ill health: the breaker never trips and
/// other clients keep getting non-degraded answers.
#[test]
fn unknown_avail_predicts_never_trip_the_breaker() {
    let ds = base_dataset();
    let core = core_for(&ds, 1);
    let known = ds.avails()[0].id;
    for i in 0..40u64 {
        let req = core.stamp(i, 0, Op::Predict { avail: domd_data::AvailId(9_999), t_star: 40.0 });
        let resp = core.serve_one(req);
        let err = resp.outcome.expect_err("unknown avail must be refused");
        assert_eq!(err.kind(), "config", "refusal must be client-shaped");
    }
    assert_eq!(core.metrics().breaker_trips, 0, "client errors tripped the breaker");
    let req = core.stamp(100, 0, Op::Predict { avail: known, t_star: 40.0 });
    match core.serve_one(req).outcome {
        Ok(Reply::Predict { degraded, .. }) => {
            assert!(!degraded, "healthy tenant forced into degraded serving")
        }
        other => panic!("valid predict failed: {other:?}"),
    }
}

/// `budget=u64::MAX` from a client means "no deadline": the deadline
/// arithmetic saturates instead of overflowing (a debug panic / an
/// instant release-mode deadline), and the request completes.
#[test]
fn maximal_budgets_saturate_instead_of_overflowing() {
    let ds = base_dataset();
    let clock = ManualClock::new();
    let core = ServeCore::new(
        ServeConfig { workers: 2, queue_capacity: 16, ..ServeConfig::default() },
        Arc::clone(&clock) as Arc<dyn domd_serve::Clock>,
        model(),
        vec![TenantSnapshot::from_dataset(ds.clone())],
    );
    // A nonzero submission tick is what makes `submitted + budget` wrap.
    clock.advance(10);
    for op in [
        Op::Alerts { t_star: 60.0, k: 4, min_delay: 0.0 },
        Op::Predict { avail: ds.avails()[0].id, t_star: 40.0 },
    ] {
        let mut req = core.stamp(0, 0, op);
        req.budget = u64::MAX;
        let resp = core.serve_one(req);
        assert!(resp.outcome.is_ok(), "maximal budget must serve: {:?}", resp.outcome);
    }
    // The same arithmetic on the request side saturates too: a wrapped
    // deadline (10 + MAX == 9) would leave no budget at tick 20.
    let mut req = core.stamp(1, 0, Op::Alerts { t_star: 60.0, k: 1, min_delay: 0.0 });
    req.budget = u64::MAX;
    assert_eq!(req.remaining(20), u64::MAX - 20, "remaining must saturate, not wrap");
}

/// Clients match responses by seq, so every request-bearing line —
/// parsed or malformed — must consume a unique sequence number.
#[test]
fn session_seqs_are_unique_across_malformed_lines() {
    let ds = base_dataset();
    let core = core_for(&ds, 1);
    let avail = ds.avails()[0].id;
    let input = format!(
        "frobnicate\nstatus t=55 status=active\nstatus t=55 stray-token\n\
         predict avail={} t=40\nalert t=80 k=2 min=0\nquit\n",
        avail.0
    );
    let mut out = Vec::new();
    let stats = run_session(&core, std::io::Cursor::new(input.into_bytes()), &mut out);
    assert_eq!((stats.requests, stats.malformed), (3, 2));
    let text = String::from_utf8(out).expect("utf8 output");
    let mut seqs: Vec<u64> = text
        .lines()
        .map(|line| {
            let field = line
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix("seq="))
                .unwrap_or_else(|| panic!("response line without seq: {line}"));
            field.parse().expect("numeric seq")
        })
        .collect();
    assert_eq!(seqs.len(), 5, "one response per request-bearing line:\n{text}");
    seqs.sort_unstable();
    assert_eq!(seqs, vec![0, 1, 2, 3, 4], "seqs must be unique and dense:\n{text}");
    // The leading malformed line answered with seq 0 and the first parsed
    // request with seq 1 — no collision at the session's very first line.
    assert!(
        text.lines().next().is_some_and(|l| l.starts_with("err seq=0")),
        "malformed first line must own seq 0:\n{text}"
    );
}
