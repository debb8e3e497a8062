//! Crash-recovery property suite: a crash at *any* byte offset of the
//! durability path must leave a store that recovers without panicking,
//! never serves torn state, and answers queries bit-identically to an
//! engine that never crashed.
//!
//! The suite drives the whole tentpole contract:
//!
//! * **every WAL prefix** — a crash can cut the log at any byte; recovery
//!   must land on exactly the state after the last *complete* record;
//! * **seeded storage faults** — torn writes, truncation, bit-flips, and
//!   duplicated tail records (`domd::data::fault::corrupt_bytes`) on both
//!   the WAL and the newest checkpoint generation;
//! * **bit-identity** — the recovered rows, the retrieval sets of a dual
//!   AVL built over them, Status Query aggregates, and DoMD artifact
//!   answers, compared `to_bits`-exact against the uncrashed baseline;
//! * **property tests** — arbitrary truncation/bit-flip offsets drawn by
//!   proptest never panic the frame, artifact, or WAL replay layers.

use domd::data::{corrupt_bytes, generate, GeneratorConfig, StorageFault};
use domd::index::{
    project_dataset, DurableIndex, FlatAvlIndex, LogicalRcc, LogicalTimeIndex, NaiveJoinIndex,
    StatusQuery, StatusQueryEngine,
};
use domd::storage::RECORD_LEN;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn test_dir(label: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("domd-recovery-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_dataset() -> domd::data::Dataset {
    generate(&GeneratorConfig { n_avails: 12, target_rccs: 500, scale: 1, seed: 41 })
}

/// A deterministic mutation script over the projected dataset: inserts,
/// settles, removes, and reopens in a fixed interleaving. Returns the
/// expected entry set after each prefix of the script (`states[k]` =
/// entries once `k` mutations applied), computed independently of the
/// durability layer.
fn run_script(
    di: &mut DurableIndex,
    projected: &[LogicalRcc],
) -> Vec<Vec<LogicalRcc>> {
    let n = projected.len() as u32;
    let mut model: BTreeMap<u32, LogicalRcc> = projected.iter().map(|r| (r.id, *r)).collect();
    let mut states = vec![model.values().copied().collect::<Vec<_>>()];
    let push = |model: &BTreeMap<u32, LogicalRcc>, states: &mut Vec<Vec<LogicalRcc>>| {
        states.push(model.values().copied().collect());
    };
    for step in 0..12u32 {
        match step % 4 {
            0 => {
                let rcc = LogicalRcc {
                    id: n + step,
                    avail: projected[step as usize % projected.len()].avail,
                    start: f64::from(step) * 3.5,
                    end: f64::from(step) * 3.5 + 42.0,
                };
                assert!(di.insert(&rcc).unwrap());
                model.insert(rcc.id, rcc);
            }
            1 => {
                let id = step * 7 % n;
                let new_end = f64::from(step) + 11.25;
                assert!(di.settle(id, new_end).unwrap());
                let e = model.get_mut(&id).unwrap();
                e.end = new_end;
            }
            2 => {
                let id = step * 13 % n;
                assert!(di.remove(id).unwrap());
                model.remove(&id);
            }
            _ => {
                let id = (step * 11 % n) + 1;
                match model.entry(id) {
                    Entry::Occupied(mut e) => {
                        let new_end = f64::from(step) * 20.0 + 150.0;
                        assert!(di.reopen(id, new_end).unwrap());
                        e.get_mut().end = new_end;
                    }
                    Entry::Vacant(slot) => {
                        let rcc =
                            LogicalRcc { id, avail: projected[0].avail, start: 0.5, end: 60.0 };
                        assert!(di.insert(&rcc).unwrap());
                        slot.insert(rcc);
                    }
                }
            }
        }
        push(&model, &mut states);
    }
    states
}

/// Asserts that the paper's dual AVL, built over the recovered rows,
/// answers the active, settled and created retrieval sets exactly like
/// the naive join (the from-scratch oracle) over the `expected` rows of
/// the uncrashed history.
fn assert_queries_match(recovered: &DurableIndex, expected: &[LogicalRcc], scenario: &str) {
    let rebuilt = FlatAvlIndex::build(&recovered.entries());
    let oracle = NaiveJoinIndex::build(expected);
    for t in [0.0, 12.5, 40.0, 77.7, 100.0, 160.0] {
        assert_eq!(rebuilt.active_at(t), oracle.active_at(t), "{scenario} t={t}");
        assert_eq!(rebuilt.settled_by(t), oracle.settled_by(t), "{scenario} t={t}");
        assert_eq!(rebuilt.created_by(t), oracle.created_by(t), "{scenario} t={t}");
    }
}

#[test]
fn crash_at_every_wal_byte_recovers_the_last_complete_record() {
    let d = test_dir("every-offset");
    let ds = small_dataset();
    let projected = project_dataset(&ds);
    let mut di = DurableIndex::create(&d, &projected).unwrap();
    di.set_checkpoint_every(None);
    let states = run_script(&mut di, &projected);
    di.sync().unwrap();
    let wal_path = d.join("wal.log");
    let wal = std::fs::read(&wal_path).unwrap();
    assert_eq!(wal.len(), 12 * RECORD_LEN, "script wrote 12 records");
    drop(di);

    for cut in 0..=wal.len() {
        std::fs::write(&wal_path, &wal[..cut]).unwrap();
        let scenario = format!("crash at wal byte {cut}");
        let (rec, report) = catch_unwind(AssertUnwindSafe(|| DurableIndex::recover(&d)))
            .unwrap_or_else(|_| panic!("{scenario}: recovery panicked"))
            .unwrap_or_else(|e| panic!("{scenario}: recovery failed: {e}"));
        // Exactly the complete-record prefix survives — never a torn
        // record, never a lost complete one.
        let complete = cut / RECORD_LEN;
        assert_eq!(report.replayed, complete, "{scenario}");
        assert_eq!(rec.entries(), states[complete], "{scenario}");
        assert_eq!(report.discarded_bytes as usize, cut - complete * RECORD_LEN, "{scenario}");
        if cut % RECORD_LEN != 0 {
            assert!(report.tail_fault.is_some(), "{scenario}: torn tail not diagnosed");
        }
        if cut % (4 * RECORD_LEN) == 0 {
            assert_queries_match(&rec, &states[complete], &scenario);
        }
    }
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn seeded_wal_storage_faults_never_panic_and_never_serve_torn_state() {
    let d = test_dir("wal-faults");
    let ds = small_dataset();
    let projected = project_dataset(&ds);
    let mut di = DurableIndex::create(&d, &projected).unwrap();
    di.set_checkpoint_every(None);
    let states = run_script(&mut di, &projected);
    di.sync().unwrap();
    let wal_path = d.join("wal.log");
    let wal = std::fs::read(&wal_path).unwrap();
    drop(di);

    let mut kinds_seen = std::collections::HashSet::new();
    for seed in 0..120u64 {
        let (bad, kind) = corrupt_bytes(&wal, seed, Some(RECORD_LEN));
        kinds_seen.insert(kind);
        std::fs::write(&wal_path, &bad).unwrap();
        let scenario = format!("wal fault seed {seed} ({kind})");
        let (rec, report) = catch_unwind(AssertUnwindSafe(|| DurableIndex::recover(&d)))
            .unwrap_or_else(|_| panic!("{scenario}: recovery panicked"))
            .unwrap_or_else(|e| panic!("{scenario}: recovery failed: {e}"));
        // Whatever the fault, the recovered state is *some* exact prefix
        // of the mutation history — never a blend, never a torn record.
        assert_eq!(rec.entries(), states[report.replayed], "{scenario}");
        match kind {
            // A duplicated tail record must be rejected by epoch
            // contiguity, not applied twice.
            StorageFault::DuplicateTail => {
                assert_eq!(report.replayed, states.len() - 1, "{scenario}");
                let fault = report.tail_fault.as_deref().unwrap_or_default();
                assert!(fault.contains("epoch"), "{scenario}: {fault}");
            }
            StorageFault::BitFlip => {
                assert!(
                    report.replayed < states.len() || report.tail_fault.is_none(),
                    "{scenario}: flip both applied and diagnosed"
                );
            }
            StorageFault::TornWrite | StorageFault::Truncate => {
                assert!(report.replayed < states.len(), "{scenario}");
            }
        }
        assert_queries_match(&rec, &states[report.replayed], &scenario);
    }
    assert_eq!(kinds_seen.len(), 4, "all four storage-fault families must be drawn");
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn damaged_newest_checkpoint_falls_back_without_serving_it() {
    let d = test_dir("ckpt-faults");
    let ds = small_dataset();
    let projected = project_dataset(&ds);
    let mut di = DurableIndex::create(&d, &projected).unwrap();
    di.set_checkpoint_every(None);
    let states = run_script(&mut di, &projected);
    di.checkpoint().unwrap();
    let newest = d.join(format!("checkpoint.{:020}.ckpt", di.epoch()));
    let epoch = di.epoch();
    drop(di);
    let good = std::fs::read(&newest).unwrap();

    for seed in 0..60u64 {
        let (bad, kind) = corrupt_bytes(&good, seed, None);
        if bad == good {
            continue; // zero-length truncation of an empty tail etc.
        }
        std::fs::write(&newest, &bad).unwrap();
        let scenario = format!("checkpoint fault seed {seed} ({kind})");
        let (rec, report) = catch_unwind(AssertUnwindSafe(|| DurableIndex::recover(&d)))
            .unwrap_or_else(|_| panic!("{scenario}: recovery panicked"))
            .unwrap_or_else(|e| panic!("{scenario}: recovery failed: {e}"));
        // The damaged generation is never served: recovery falls back to
        // the epoch-0 generation (the WAL beyond it was compacted away, so
        // the recovered state is the initial snapshot).
        assert_eq!(report.checkpoint_epoch, 0, "{scenario}");
        assert_eq!(report.generations_tried, 2, "{scenario}");
        assert_eq!(report.damaged_generations.len(), 1, "{scenario}");
        assert_eq!(rec.entries(), states[0], "{scenario}");
        // Put the good generation back for the next seed.
        std::fs::write(&newest, &good).unwrap();
    }

    // With the newest generation intact again, recovery serves it.
    let (rec, report) = DurableIndex::recover(&d).unwrap();
    assert_eq!(report.checkpoint_epoch, epoch);
    assert_eq!(rec.entries(), *states.last().unwrap());
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn recovered_status_query_engine_is_bit_identical_to_uncrashed() {
    let d = test_dir("bit-identity");
    let ds = small_dataset();
    let projected = project_dataset(&ds);
    let mut di = DurableIndex::create(&d, &projected).unwrap();
    di.set_checkpoint_every(None);
    // Settle/reopen only: row ids stay dense, so both entry sets describe
    // the same RCC table and can drive full Status Query engines.
    let n = projected.len() as u32;
    for step in 0..20u32 {
        let id = step * 17 % n;
        if step % 2 == 0 {
            assert!(di.settle(id, f64::from(step) * 4.0 + 8.0).unwrap());
        } else {
            assert!(di.reopen(id, f64::from(step) * 9.0 + 30.0).unwrap());
        }
    }
    di.sync().unwrap();
    let baseline = di.entries();
    drop(di); // crash after sync, before any checkpoint

    let (rec, report) = DurableIndex::recover(&d).unwrap();
    assert_eq!(report.replayed, 20);
    assert_eq!(rec.entries(), baseline);

    let uncrashed: StatusQueryEngine<FlatAvlIndex> = StatusQueryEngine::build(&ds, &baseline);
    let recovered: StatusQueryEngine<FlatAvlIndex> =
        StatusQueryEngine::build(&ds, &rec.entries());
    let mut checked = 0usize;
    for status in [
        domd::data::RccStatus::Active,
        domd::data::RccStatus::Settled,
        domd::data::RccStatus::Created,
        domd::data::RccStatus::NotCreated,
    ] {
        for t_star in [0.0, 10.0, 33.3, 50.0, 88.8, 100.0, 130.0] {
            let q = StatusQuery { rcc_type: None, swlin_prefix: None, status, t_star };
            assert_eq!(uncrashed.execute(&q), recovered.execute(&q), "{status:?} t*={t_star}");
            let (a, b) = (uncrashed.aggregate(&q), recovered.aggregate(&q));
            assert_eq!(a.count, b.count, "{status:?} t*={t_star}");
            assert_eq!(
                a.sum_amount.to_bits(),
                b.sum_amount.to_bits(),
                "{status:?} t*={t_star}: aggregates must be bit-identical"
            );
            assert_eq!(a.sum_duration.to_bits(), b.sum_duration.to_bits(), "{status:?}");
            checked += 1;
        }
    }
    assert_eq!(checked, 28);
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn artifact_write_is_atomic_and_answers_survive_bit_identical() {
    let d = test_dir("artifact");
    std::fs::create_dir_all(&d).unwrap();
    let ds = small_dataset();
    let inputs = domd::core::PipelineInputs::build(&ds, 50.0);
    let split = ds.split(3);
    let mut cfg = domd::core::PipelineConfig::paper_final();
    cfg.gbt.n_estimators = 8;
    cfg.k = 4;
    cfg.grid_step = 50.0;
    let pipeline = domd::core::TrainedPipeline::fit(&inputs, &split.train, &cfg);

    let path = d.join("pipeline.domd");
    domd::core::write_pipeline_file(&path, &pipeline).unwrap();
    let reloaded = domd::core::read_pipeline_file(&path).unwrap();

    // DoMD answers from the persisted artifact are bit-identical to the
    // in-memory pipeline's.
    let live = domd::core::DomdQueryEngine::new(&ds, &pipeline);
    let persisted = domd::core::DomdQueryEngine::new(&ds, &reloaded);
    let mut compared = 0usize;
    for a in ds.avails().iter().take(6) {
        for t_star in [25.0, 50.0, 100.0] {
            match (live.query_logical(a.id, t_star), persisted.query_logical(a.id, t_star)) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.estimates.len(), y.estimates.len());
                    for (ex, ey) in x.estimates.iter().zip(&y.estimates) {
                        assert_eq!(
                            ex.estimated_delay.to_bits(),
                            ey.estimated_delay.to_bits(),
                            "avail {} t*={t_star}",
                            a.id
                        );
                    }
                    compared += 1;
                }
                _ => panic!("presence differs for avail {} t*={t_star}", a.id),
            }
        }
    }
    assert!(compared > 0, "no answers compared");

    // A crash mid-replacement leaves a torn tempfile *next to* the
    // artifact; the artifact itself still serves the previous state.
    let good = std::fs::read(&path).unwrap();
    std::fs::write(d.join(".pipeline.domd.tmp.99.7"), &good[..good.len() / 3]).unwrap();
    assert!(domd::core::read_pipeline_file(&path).is_ok(), "torn sibling must not matter");

    // Damage to the artifact itself is a typed error, never a panic, and
    // maps to the corruption exit class the runbook documents.
    for seed in 0..40u64 {
        let (bad, kind) = corrupt_bytes(&good, seed, None);
        if bad == good {
            continue;
        }
        std::fs::write(&path, &bad).unwrap();
        let scenario = format!("artifact fault seed {seed} ({kind})");
        let err = catch_unwind(AssertUnwindSafe(|| domd::core::read_pipeline_file(&path)))
            .unwrap_or_else(|_| panic!("{scenario}: read panicked"))
            .expect_err(&scenario);
        assert!(
            matches!(err.kind(), "corrupt" | "artifact" | "parse"),
            "{scenario}: unexpected class {}: {err}",
            err.kind()
        );
    }
    std::fs::remove_dir_all(&d).unwrap();
}

mod prop {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One framed artifact + one WAL byte stream shared across cases.
    fn fixtures() -> &'static (Vec<u8>, Vec<u8>) {
        static FIX: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
        FIX.get_or_init(|| {
            let ds = small_dataset();
            let inputs = domd::core::PipelineInputs::build(&ds, 50.0);
            let split = ds.split(3);
            let mut cfg = domd::core::PipelineConfig::paper_final();
            cfg.gbt.n_estimators = 4;
            cfg.k = 3;
            cfg.grid_step = 50.0;
            let pipeline = domd::core::TrainedPipeline::fit(&inputs, &split.train, &cfg);
            let artifact = domd::core::save_pipeline_framed(&pipeline);

            let d = test_dir("proptest");
            let projected = project_dataset(&ds);
            let mut di = DurableIndex::create(&d, &projected).unwrap();
            di.set_checkpoint_every(None);
            run_script(&mut di, &projected);
            di.sync().unwrap();
            let wal = std::fs::read(d.join("wal.log")).unwrap();
            drop(di);
            let _ = std::fs::remove_dir_all(&d);
            (artifact, wal)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn truncated_or_flipped_artifact_never_panics(
            cut in 0usize..100_000,
            flip_byte in 0usize..100_000,
            flip_bit in 0u32..8,
        ) {
            let (artifact, _) = fixtures();
            let cut = cut % (artifact.len() + 1);
            let mut bad = artifact[..cut].to_vec();
            if !bad.is_empty() {
                let b = flip_byte % bad.len();
                bad[b] ^= 1 << flip_bit;
            }
            // Typed result, never a panic; a truncated-and-flipped frame
            // can only load if the cut removed nothing (CRC covers all).
            let r = domd::core::load_pipeline_bytes(&bad, "prop");
            if cut < artifact.len() {
                prop_assert!(r.is_err());
            }
        }

        #[test]
        fn wal_replay_of_arbitrary_damage_never_panics(
            cut in 0usize..100_000,
            flip_byte in 0usize..100_000,
            flip_bit in 0u32..8,
            checkpoint_epoch in 0u64..20,
        ) {
            let (_, wal) = fixtures();
            let cut = cut % (wal.len() + 1);
            let mut bad = wal[..cut].to_vec();
            if !bad.is_empty() {
                let b = flip_byte % bad.len();
                bad[b] ^= 1 << flip_bit;
            }
            let replayed = domd::storage::replay(&bad, checkpoint_epoch);
            prop_assert!(replayed.valid_len <= bad.len());
            // The valid prefix is always whole records.
            prop_assert_eq!(replayed.valid_len % RECORD_LEN, 0);
            prop_assert!(replayed.records.len() + replayed.skipped <= replayed.valid_len / RECORD_LEN);
        }
    }
}
