//! Kill–restart chaos harness: `domd serve` must be restart-survivable
//! from the store alone.
//!
//! The contract under test, at every seeded kill point:
//!
//! * **Acked ⇒ visible** — an ingest answered `Reply::Ingested` under
//!   fsync-on-ack ([`ServeConfig::sync_each_ingest`]) survives a kill at
//!   *any* later WAL byte offset: after restart the row is served again.
//! * **A restart serves what the acking epoch served** — a restart that
//!   recovered `k` acked rows is checked against the live epoch pinned
//!   right after the `k`-th ack: the dataset row by row and field by
//!   field (amount bits included), every RCC's arena columns, every
//!   probe query's count and sums (as bits), and `next_rcc`. The live
//!   epoch numbers ingested rows in arrival order and a restart in table
//!   order; sums are exact, so the order does not reach their bits.
//! * **Rebuild is bit-identical to a from-scratch build** over the
//!   recovered rows ([`TenantSnapshot::from_dataset`]): dataset order,
//!   arena logical positions, and engine aggregates compare equal down
//!   to the `f64` bit patterns.
//! * **Damage degrades to a prefix, never to garbage** — a bit-flipped
//!   or torn WAL recovers the longest valid prefix, and the restart
//!   matches the epoch that acked that prefix.
//! * **Pre-v2 stores still recover unmigrated** — projection-only rows
//!   resolve against the extracts when they provably match, and refuse
//!   with a `migrate-store`-naming error when they do not.
//!
//! The kill itself is simulated at the storage layer: the serving core
//! runs with fsync-on-ack, the process "dies" by dropping the core
//! without the clean-shutdown sync, and the store directory is then
//! truncated / damaged at a chosen byte — exactly the on-disk states a
//! `kill -9` mid-append can leave behind.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use domd_core::{PipelineConfig, PipelineInputs, TrainedPipeline};
use domd_data::rcc::{RccStatus, RccType, Swlin};
use domd_data::{corrupt_bytes, generate, AvailId, Dataset, Date, GeneratorConfig};
use domd_features::FeatureEngine;
use domd_index::{project_dataset, DurableIndex, Pinned, RccArena, RowId, StatusQuery};
use domd_serve::{
    rebuild_tenant, Op, Reply, ServeConfig, ServeCore, SharedModel, TenantSnapshot,
};
use domd_storage::RECORD_LEN_V2;

fn base_dataset() -> Dataset {
    generate(&GeneratorConfig { n_avails: 8, target_rccs: 400, scale: 1, seed: 23 })
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

fn scratch(label: &str) -> PathBuf {
    let d =
        std::env::temp_dir().join(format!("domd-serve-restart-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A serving core in the durable configuration under test: fsync-on-ack,
/// so an ack is a durability promise a kill cannot revoke.
fn durable_core(snapshot: TenantSnapshot, index: DurableIndex) -> ServeCore {
    ServeCore::new(
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            sync_each_ingest: true,
            ..ServeConfig::default()
        },
        domd_serve::ManualClock::new(),
        model(),
        vec![snapshot],
    )
    .with_durable(0, index)
    .expect("tenant 0")
}

/// An ingest into the table's first avail, which a restart files ahead
/// of every extract row while the live epoch appends it. Its amount
/// fills the significand, so a sum that depended on row order would
/// round differently after a restart.
fn ingest_op(ds: &Dataset, salt: u32) -> Op {
    let a = &ds.avails()[0];
    Op::ingest_one(
        a.id,
        RccType::NewWork,
        Swlin::from_packed(1_000 + salt).expect("valid packed swlin"),
        a.actual_start + 2,
        a.actual_start + 9,
        1_234.567_890_123 + 0.1 * f64::from(salt),
    )
}

/// Tenant 0's current epoch.
fn pin_tenant(core: &ServeCore) -> Pinned<TenantSnapshot> {
    core.tenant_store(0).expect("tenant 0").pin()
}

/// Runs `n` ingests, panicking unless every one is acked, and returns the
/// epoch pinned right after each ack.
fn ack_ingests(core: &ServeCore, ds: &Dataset, n: u32, salt: u32) -> Vec<Pinned<TenantSnapshot>> {
    (0..n)
        .map(|i| {
            let req = core.stamp(u64::from(i), 0, ingest_op(ds, salt + i));
            match core.serve_one(req).outcome {
                Ok(Reply::Ingested { .. }) => pin_tenant(core),
                other => panic!("ingest {i} not acked: {other:?}"),
            }
        })
        .collect()
}

/// Copies a (flat) store directory — the restart starts from this copy,
/// so one acked session can be killed at many different byte offsets.
fn copy_store(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create store copy");
    for entry in std::fs::read_dir(src).expect("read store dir") {
        let entry = entry.expect("store dir entry");
        if entry.path().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
        }
    }
}

/// From-scratch reference snapshot over exactly the recovered store's
/// rows: every live row must carry its full payload (the store alone
/// suffices). This is the same `from_dataset(Dataset::new(..))` build a
/// restart runs, so [`assert_matches_acking_epoch`] is the check that
/// reaches past it, to the live path.
fn reference_for(ds: &Dataset, index: &DurableIndex) -> TenantSnapshot {
    let rccs = index
        .entries_full()
        .into_iter()
        .map(|s| s.rcc.expect("recovered row carries a full payload"))
        .collect();
    TenantSnapshot::from_dataset(Dataset::new(ds.avails().to_vec(), rccs))
}

/// Bit-level equivalence of two snapshots: dataset rows, arena logical
/// positions, and engine aggregates across statuses and `t*` values.
fn assert_bit_identical(rebuilt: &TenantSnapshot, reference: &TenantSnapshot, ctx: &str) {
    assert_eq!(rebuilt.next_rcc(), reference.next_rcc(), "{ctx}: next_rcc");
    assert_eq!(rebuilt.dataset.rccs().len(), reference.dataset.rccs().len(), "{ctx}: rows");
    for (x, y) in rebuilt.dataset.rccs().iter().zip(reference.dataset.rccs()) {
        assert_eq!(x.id, y.id, "{ctx}: dataset order");
        assert_eq!(x.amount.to_bits(), y.amount.to_bits(), "{ctx}: amount bits");
        assert_eq!(x.swlin, y.swlin, "{ctx}: swlin");
    }
    assert_eq!(rebuilt.engine.arena().len(), reference.engine.arena().len(), "{ctx}: arena");
    for row in 0..rebuilt.engine.arena().len() as RowId {
        let (a, b) = (rebuilt.engine.arena().logical(row), reference.engine.arena().logical(row));
        assert_eq!(a.id, b.id, "{ctx}: arena order at {row}");
        assert_eq!(a.start.to_bits(), b.start.to_bits(), "{ctx}: start bits at {row}");
        assert_eq!(a.end.to_bits(), b.end.to_bits(), "{ctx}: end bits at {row}");
    }
    for status in [RccStatus::Active, RccStatus::Settled, RccStatus::Created] {
        for t in [0.0, 25.0, 60.0, 110.0] {
            let q = StatusQuery { rcc_type: None, swlin_prefix: None, status, t_star: t };
            let (x, y) = (rebuilt.engine.aggregate(&q), reference.engine.aggregate(&q));
            assert_eq!(x.count, y.count, "{ctx}: count @{status:?} t={t}");
            assert_eq!(x.sum_amount.to_bits(), y.sum_amount.to_bits(), "{ctx}: sum bits");
            assert_eq!(
                x.sum_duration.to_bits(),
                y.sum_duration.to_bits(),
                "{ctx}: duration bits"
            );
        }
    }
}

/// Every probe query: each status, unfiltered and per group (each RCC
/// type, the SWLIN node the ingested rows fall in and one they do not),
/// at four values of `t*`.
fn probe_queries() -> Vec<StatusQuery> {
    let statuses =
        [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated];
    let groups = [(None, None), (None, Some((0, 1))), (None, Some((4, 1)))]
        .into_iter()
        .chain(RccType::ALL.into_iter().map(|t| (Some(t), None)));
    let mut queries = Vec::new();
    for (rcc_type, swlin_prefix) in groups {
        for status in statuses {
            for t_star in [0.0, 25.0, 60.0, 110.0] {
                queries.push(StatusQuery { rcc_type, swlin_prefix, status, t_star });
            }
        }
    }
    queries
}

/// One RCC's arena columns, floats as bits.
type ArenaColumns = (u64, u64, u64, RccType, Swlin, Date, Date, AvailId);

/// Each RCC id's arena columns: the two arenas order their rows
/// differently (ingest appends, a restart fills in table order).
fn arena_by_rcc(arena: &RccArena) -> BTreeMap<u32, ArenaColumns> {
    (0..arena.len() as RowId)
        .map(|r| {
            let columns = (
                arena.start(r).to_bits(),
                arena.end(r).to_bits(),
                arena.amount(r).to_bits(),
                arena.rcc_type(r),
                arena.swlin(r),
                arena.created(r),
                arena.settled(r),
                arena.avail(r),
            );
            (arena.rcc_id(r), columns)
        })
        .collect()
}

/// A restart against the live epoch that acked the same rows: dataset
/// rows field by field, every RCC's arena columns, every probe query's
/// count and sum bits, and `next_rcc`.
fn assert_matches_acking_epoch(rebuilt: &TenantSnapshot, live: &TenantSnapshot, ctx: &str) {
    assert_eq!(rebuilt.next_rcc(), live.next_rcc(), "{ctx}: next_rcc");
    let (a, b) = (rebuilt.dataset.rccs(), live.dataset.rccs());
    assert_eq!(a.len(), b.len(), "{ctx}: dataset rows");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!((x.id, x.avail), (y.id, y.avail), "{ctx}: dataset order");
        assert_eq!((x.rcc_type, x.swlin), (y.rcc_type, y.swlin), "{ctx}: row {:?}", x.id);
        assert_eq!((x.created, x.settled), (y.created, y.settled), "{ctx}: row {:?}", x.id);
        assert_eq!(x.amount.to_bits(), y.amount.to_bits(), "{ctx}: row {:?} amount", x.id);
    }
    let (ra, la) = (rebuilt.engine.arena(), live.engine.arena());
    assert_eq!(ra.len(), la.len(), "{ctx}: arena rows");
    let (rebuilt_cols, live_cols) = (arena_by_rcc(ra), arena_by_rcc(la));
    assert_eq!(rebuilt_cols.len(), ra.len(), "{ctx}: RCC ids are unique");
    assert_eq!(rebuilt_cols, live_cols, "{ctx}: arena columns per RCC id");
    for q in probe_queries() {
        let (x, y) = (rebuilt.engine.aggregate(&q), live.engine.aggregate(&q));
        assert_eq!(x.count, y.count, "{ctx}: count of {q:?}");
        assert_eq!(x.sum_amount.to_bits(), y.sum_amount.to_bits(), "{ctx}: amount of {q:?}");
        assert_eq!(x.sum_duration.to_bits(), y.sum_duration.to_bits(), "{ctx}: days of {q:?}");
    }
}

/// One acked durable session: initializes a full-payload store, acks
/// `ingests` rows under fsync-on-ack, and "dies" (no clean-shutdown
/// sync). Returns the extract row count and the epochs the session
/// served: entry `k` is the one pinned after the `k`-th ack (entry 0,
/// before any).
fn acked_session(ds: &Dataset, dir: &Path, ingests: u32) -> (usize, Vec<Pinned<TenantSnapshot>>) {
    let projected = project_dataset(ds);
    let index = DurableIndex::create_full(
        dir,
        projected.iter().copied().zip(ds.rccs().iter().cloned()),
    )
    .expect("create full store");
    let core = durable_core(TenantSnapshot::from_dataset(ds.clone()), index);
    let mut epochs = vec![pin_tenant(&core)];
    epochs.extend(ack_ingests(&core, ds, ingests, 0));
    (projected.len(), epochs)
}

/// The tentpole sweep: kill the process at **every WAL byte offset** of
/// an acked session, restart from the store alone, and hold the whole
/// contract — every fully-appended record's row is visible, the restart
/// matches the epoch that acked those rows, and it is bit-identical to a
/// from-scratch build over the recovered rows.
#[test]
fn kill_at_every_wal_byte_offset_is_survivable() {
    let ds = base_dataset();
    let dir = scratch("sweep");
    const INGESTS: u32 = 6;
    let (n, epochs) = acked_session(&ds, &dir, INGESTS);

    let wal = std::fs::read(dir.join("wal.log")).expect("read wal");
    assert_eq!(wal.len(), INGESTS as usize * RECORD_LEN_V2, "all acked records are v2");

    let kill = scratch("sweep-kill");
    for cut in 0..=wal.len() {
        copy_store(&dir, &kill);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(kill.join("wal.log"))
            .expect("open wal copy");
        f.set_len(cut as u64).expect("truncate wal at kill point");
        drop(f);

        let (index, report) = DurableIndex::recover(&kill).expect("recover from kill point");
        let survived = cut / RECORD_LEN_V2;
        assert_eq!(
            index.len(),
            n + survived,
            "kill at byte {cut}: every fully-appended acked row is visible"
        );
        assert_eq!(report.replayed_v2, survived, "kill at byte {cut}: replay counts v2");
        assert_eq!(report.full_rows, n + survived, "kill at byte {cut}: store is v2-complete");

        let (rebuilt, summary) = rebuild_tenant(&ds, &index).expect("rebuild from store");
        assert_eq!(summary.from_store, n + survived, "store alone rebuilds every row");
        assert_eq!(summary.from_extracts, 0);
        for salt in 0..survived as u32 {
            let swlin = Swlin::from_packed(1_000 + salt).expect("valid");
            assert!(
                rebuilt.dataset.rccs().iter().any(|r| r.swlin == swlin),
                "kill at byte {cut}: acked row salt={salt} missing after restart"
            );
        }
        let ctx = format!("cut={cut}");
        assert_matches_acking_epoch(&rebuilt, &epochs[survived], &ctx);
        assert_bit_identical(&rebuilt, &reference_for(&ds, &index), &ctx);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&kill);
}

/// Seeded damage storm: a bit-flipped / torn / duplicated WAL tail
/// (every `corrupt_bytes` fault class) recovers to a *prefix* of the
/// acked rows — contiguous ids, no holes — and the restart matches the
/// epoch that acked that prefix and a from-scratch build over it.
#[test]
fn seeded_damage_storm_recovers_a_bit_identical_prefix() {
    let ds = base_dataset();
    let dir = scratch("storm");
    const INGESTS: u32 = 6;
    let (n, epochs) = acked_session(&ds, &dir, INGESTS);
    let good = std::fs::read(dir.join("wal.log")).expect("read wal");

    let kill = scratch("storm-kill");
    for seed in 0..48u64 {
        copy_store(&dir, &kill);
        let (bad, _fault) = corrupt_bytes(&good, seed, Some(RECORD_LEN_V2));
        std::fs::write(kill.join("wal.log"), &bad).expect("write damaged wal");

        let (index, _report) = DurableIndex::recover(&kill).expect("damage must degrade, not fail");
        let survived = index.len() - n;
        assert!(survived <= INGESTS as usize, "seed {seed}: rows invented from damage");
        // The survivors are a dense id prefix of the acked ingests: WAL
        // replay stops at the first damaged record, never skips over one.
        let mut new_ids: Vec<RowId> =
            index.entries().iter().map(|r| r.id).filter(|&id| id >= n as RowId).collect();
        new_ids.sort_unstable();
        let expect: Vec<RowId> = (0..survived as RowId).map(|i| n as RowId + i).collect();
        assert_eq!(new_ids, expect, "seed {seed}: survivors must be a contiguous prefix");

        let (rebuilt, _) = rebuild_tenant(&ds, &index).expect("rebuild from damaged store");
        let ctx = format!("seed={seed}");
        assert_matches_acking_epoch(&rebuilt, &epochs[survived], &ctx);
        assert_bit_identical(&rebuilt, &reference_for(&ds, &index), &ctx);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&kill);
}

/// Restart storm: several serve "processes" in sequence, each acking a
/// few ingests under fsync-on-ack and then dying with a torn in-flight
/// append on the WAL tail. Every restart rebuilds from the store alone,
/// matches the epoch that acked the previous session's last row, and
/// continues ingesting — the lifecycle `domd serve --store` runs in
/// production.
#[test]
fn restart_storm_keeps_every_acked_row_across_sessions() {
    let ds = base_dataset();
    let projected = project_dataset(&ds);
    let n = projected.len();
    let dir = scratch("sessions");
    const SESSIONS: u32 = 6;
    const PER_SESSION: u32 = 3;

    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut last_acked: Option<Pinned<TenantSnapshot>> = None;
    for session in 0..SESSIONS {
        let (snapshot, index) = if session == 0 {
            let index = DurableIndex::create_full(
                &dir,
                projected.iter().copied().zip(ds.rccs().iter().cloned()),
            )
            .expect("create full store");
            (TenantSnapshot::from_dataset(ds.clone()), index)
        } else {
            let (index, _) = DurableIndex::recover(&dir).expect("recover at session start");
            let expected = n + (session * PER_SESSION) as usize;
            assert_eq!(index.len(), expected, "session {session}: an acked row went missing");
            let (rebuilt, summary) = rebuild_tenant(&ds, &index).expect("rebuild");
            assert_eq!(summary.from_store, expected, "store alone carries every session");
            let ctx = format!("session={session}");
            let acked = last_acked.as_ref().expect("an earlier session acked rows");
            assert_matches_acking_epoch(&rebuilt, acked, &ctx);
            assert_bit_identical(&rebuilt, &reference_for(&ds, &index), &ctx);
            (rebuilt, index)
        };
        let core = durable_core(snapshot, index);
        last_acked = ack_ingests(&core, &ds, PER_SESSION, 100 * session).pop();
        drop(core); // the "kill": no clean-shutdown sync

        // A torn in-flight (never-acked) append on the tail: 0..65 junk
        // bytes that recovery must trim without touching acked records.
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let torn = (lcg >> 33) as usize % RECORD_LEN_V2;
        let wal_path = dir.join("wal.log");
        let mut wal = std::fs::read(&wal_path).expect("read wal");
        wal.extend(std::iter::repeat_n(0xAB, torn));
        std::fs::write(&wal_path, &wal).expect("append torn tail");
    }

    // Final restart: all sessions' acks are visible with their payloads.
    let (index, _) = DurableIndex::recover(&dir).expect("final recover");
    assert_eq!(index.len(), n + (SESSIONS * PER_SESSION) as usize);
    let (rebuilt, _) = rebuild_tenant(&ds, &index).expect("final rebuild");
    for session in 0..SESSIONS {
        for i in 0..PER_SESSION {
            let swlin = Swlin::from_packed(1_000 + 100 * session + i).expect("valid");
            assert!(
                rebuilt.dataset.rccs().iter().any(|r| r.swlin == swlin),
                "row from session {session} lost after {SESSIONS} restarts"
            );
        }
    }
    let acked = last_acked.as_ref().expect("the last session acked rows");
    assert_matches_acking_epoch(&rebuilt, acked, "final");
    assert_bit_identical(&rebuilt, &reference_for(&ds, &index), "final");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pre-v2 (projection-only) store still recovers and serves without
/// migration when its rows provably match the extracts — and refuses
/// with a `migrate-store`-naming error once a v1 mutation has moved a
/// row away from what the extracts can vouch for.
#[test]
fn v1_store_recovers_unmigrated_and_diverged_v1_refuses() {
    let ds = base_dataset();
    let projected = project_dataset(&ds);
    let dir = scratch("v1");
    {
        let _ = DurableIndex::create(&dir, &projected).expect("create v1 store");
    }
    let (index, report) = DurableIndex::recover(&dir).expect("recover v1");
    assert_eq!(report.full_rows, 0, "a v1 store carries no payloads");
    let (rebuilt, summary) = rebuild_tenant(&ds, &index).expect("v1 rebuild via extracts");
    assert_eq!(summary.from_extracts, projected.len());
    assert_eq!(summary.from_store, 0);
    assert!(summary.matches_extracts);
    assert_bit_identical(&rebuilt, &TenantSnapshot::from_dataset(ds.clone()), "v1");

    // A v1 settle moves a row's logical end with no payload to re-log:
    // the row no longer matches the extracts and must refuse, not guess.
    let mut index = index;
    let victim = projected[0];
    index
        .settle(victim.id, (victim.end * 0.5).max(victim.start))
        .expect("v1 settle");
    index.sync().expect("sync");
    drop(index);
    let (index, report) = DurableIndex::recover(&dir).expect("recover mutated");
    assert_eq!(report.replayed_v1, 1, "the settle replays as a v1 record");
    let err = rebuild_tenant(&ds, &index).expect_err("diverged v1 row must refuse");
    assert_eq!(err.kind(), "corrupt");
    assert!(err.to_string().contains("migrate-store"), "refusal names the repair: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
