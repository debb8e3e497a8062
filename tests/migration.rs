//! v1 → v2 store migration regressions.
//!
//! Two guarantees around `domd migrate-store`:
//!
//! * **Property** — for any generated dataset, a projection-only (v1)
//!   store migrated in place replays `to_bits`-identically: recovery
//!   after the migration checkpoint reproduces every row — logical
//!   projection and full payload — bit for bit, across both the
//!   checkpoint path and the WAL-replay path, and the store then
//!   rebuilds the serving snapshot without the extracts.
//! * **Literal fixture** — a store hand-written in the exact pre-v2 byte
//!   layout (version-1 checkpoint payload, raw 41-byte WAL records)
//!   still recovers unmigrated, reports its record versions, and
//!   upgrades to full v2 payloads.

use std::path::PathBuf;

use domd::data::{generate, logical_time, Dataset, GeneratorConfig};
use domd::index::{project_dataset, DurableIndex, StoredRow};
use domd::serve::{rebuild_tenant, resolve_v1_row, TenantSnapshot};
use domd::storage::{
    write_framed_atomic, Store, WalOp, WalRecord, CHECKPOINT_VERSION, CHECKPOINT_VERSION_V1,
};
use proptest::prelude::*;

fn scratch(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "domd-migration-{label}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Bit-level equality of two stored-row sets: logical projections and
/// full payloads compare down to the `f64` bit patterns.
fn assert_rows_bit_identical(got: &[StoredRow], want: &[StoredRow]) {
    assert_eq!(got.len(), want.len(), "row counts diverge");
    for (x, y) in got.iter().zip(want) {
        assert_eq!(x.logical.id, y.logical.id);
        assert_eq!(x.logical.avail, y.logical.avail);
        assert_eq!(x.logical.start.to_bits(), y.logical.start.to_bits());
        assert_eq!(x.logical.end.to_bits(), y.logical.end.to_bits());
        match (&x.rcc, &y.rcc) {
            (Some(p), Some(q)) => {
                assert_eq!(p.id, q.id);
                assert_eq!(p.avail, q.avail);
                assert_eq!(p.rcc_type, q.rcc_type);
                assert_eq!(p.swlin, q.swlin);
                assert_eq!(p.created, q.created);
                assert_eq!(p.settled, q.settled);
                assert_eq!(p.amount.to_bits(), q.amount.to_bits());
            }
            (None, None) => {}
            other => panic!("payload presence diverges at row {}: {other:?}", x.logical.id),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Create a v1 store, migrate it, mutate some migrated rows through
    /// the dated (payload-re-logging) path, then recover: every row
    /// replays bit-identically whether the mutations were checkpointed
    /// or left in the WAL, and the store rebuilds serving state alone.
    #[test]
    fn migrated_store_replays_to_bits_identical(
        seed in 0u64..1_000,
        n_avails in 3usize..7,
        target_rccs in 60usize..160,
        settles in proptest::collection::vec(0usize..1_000, 0..5),
        compact_after in 0u8..2,
    ) {
        let compact_after = compact_after == 1;
        let ds = generate(&GeneratorConfig { n_avails, target_rccs, scale: 1, seed });
        let projected = project_dataset(&ds);
        prop_assert!(!projected.is_empty(), "generator always emits rows at these sizes");
        let dir = scratch("prop");
        {
            let _ = DurableIndex::create(&dir, &projected).expect("create v1 store");
        }

        // Migrate: every row matches the extracts, so all upgrade.
        let (mut index, _) = DurableIndex::recover(&dir).expect("recover v1 store");
        let upgraded = index
            .migrate_full(|l| resolve_v1_row(&ds, &projected, l))
            .expect("migrate");
        prop_assert_eq!(upgraded, projected.len());
        index.checkpoint().expect("migration checkpoint");

        // Dated settles re-log the moved payload as v2 records.
        for s in settles {
            let row = projected[s % projected.len()];
            let a = ds.avail(row.avail).expect("row's avail exists");
            let planned = a.planned_duration().max(1);
            let settled = a.actual_start + (planned / 2).max(1);
            let end = logical_time(settled, a.actual_start, planned).max(row.start);
            index.settle_dated(row.id, end, settled).expect("dated settle");
        }
        if compact_after {
            index.checkpoint().expect("post-mutation checkpoint");
        } else {
            index.sync().expect("sync");
        }
        let expected = index.entries_full();
        drop(index);

        let (index, report) = DurableIndex::recover(&dir).expect("recover migrated store");
        prop_assert_eq!(report.replayed_v1, 0, "a migrated store has no v1 records left");
        prop_assert_eq!(report.full_rows, expected.len());
        assert_rows_bit_identical(&index.entries_full(), &expected);

        // The extracts are no longer load-bearing: everything rebuilds
        // from the store's own payloads.
        let (_snap, summary) = rebuild_tenant(&ds, &index).expect("rebuild");
        prop_assert_eq!(summary.from_store, expected.len());
        prop_assert_eq!(summary.from_extracts, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn fixture_dataset() -> Dataset {
    generate(&GeneratorConfig { n_avails: 4, target_rccs: 60, scale: 1, seed: 77 })
}

/// A store in the literal pre-v2 byte layout: version-1 checkpoint
/// payload (24-byte entries) and raw 41-byte v1 WAL records, written by
/// hand rather than through today's encoder. It must recover
/// unmigrated, report its record versions, and migrate to full v2.
#[test]
fn literal_v1_fixture_recovers_and_migrates() {
    let ds = fixture_dataset();
    let projected = project_dataset(&ds);
    let dir = scratch("fixture");
    let store = Store::open(&dir).expect("open store dir");

    // The v1 checkpoint payload, byte for byte: tag, version 1, epoch 0,
    // entry count, then 24-byte (id, avail, start, end) entries.
    let mut payload = Vec::with_capacity(36 + projected.len() * 24);
    payload.extend_from_slice(b"domd-checkpoint\0");
    payload.extend_from_slice(&CHECKPOINT_VERSION_V1.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&(projected.len() as u64).to_le_bytes());
    for l in &projected {
        payload.extend_from_slice(&l.id.to_le_bytes());
        payload.extend_from_slice(&l.avail.0.to_le_bytes());
        payload.extend_from_slice(&l.start.to_bits().to_le_bytes());
        payload.extend_from_slice(&l.end.to_bits().to_le_bytes());
    }
    write_framed_atomic(&store.checkpoint_path(0), &payload).expect("write v1 checkpoint");

    // Two raw v1 records: a settle that moves row 0's end, and the
    // reopen that moves it back to the extract's own projection.
    let r0 = projected[0];
    let mut wal = Vec::new();
    wal.extend(
        WalRecord {
            epoch: 1,
            op: WalOp::Settle,
            id: r0.id,
            avail: r0.avail.0,
            start: r0.start,
            end: r0.start,
            full: None,
        }
        .encode(),
    );
    wal.extend(
        WalRecord {
            epoch: 2,
            op: WalOp::Reopen,
            id: r0.id,
            avail: r0.avail.0,
            start: r0.start,
            end: r0.end,
            full: None,
        }
        .encode(),
    );
    std::fs::write(store.wal_path(), &wal).expect("write v1 wal");

    // Unmigrated recovery: the fixture's versions are reported exactly.
    let (mut index, report) = DurableIndex::recover(&dir).expect("recover literal v1 store");
    assert_eq!(report.checkpoint_version, CHECKPOINT_VERSION_V1);
    assert_eq!((report.replayed_v1, report.replayed_v2), (2, 0));
    assert_eq!(report.full_rows, 0);
    assert_eq!(index.len(), projected.len());

    // The reopen restored row 0 to the extracts' projection, so every
    // row resolves and the store migrates completely.
    let upgraded = index
        .migrate_full(|l| resolve_v1_row(&ds, &projected, l))
        .expect("migrate fixture");
    assert_eq!(upgraded, projected.len());
    index.checkpoint().expect("migration checkpoint");
    drop(index);

    let (index, report) = DurableIndex::recover(&dir).expect("recover migrated fixture");
    assert_eq!(report.checkpoint_version, CHECKPOINT_VERSION);
    assert_eq!(report.full_rows, projected.len());
    let (snap, summary) = rebuild_tenant(&ds, &index).expect("rebuild migrated fixture");
    assert_eq!(summary.from_store, projected.len());
    assert_eq!(summary.from_extracts, 0);

    // The rebuilt snapshot is the from-extracts snapshot, bit for bit.
    let reference = TenantSnapshot::from_dataset(ds.clone());
    assert_eq!(snap.dataset.rccs().len(), reference.dataset.rccs().len());
    for (x, y) in snap.dataset.rccs().iter().zip(reference.dataset.rccs()) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.amount.to_bits(), y.amount.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Migration is idempotent and honest: re-running on an already-migrated
/// store upgrades zero rows, and a row the extracts cannot vouch for is
/// left projection-only (reported, not guessed at).
#[test]
fn migration_is_idempotent_and_never_guesses() {
    let ds = fixture_dataset();
    let mut projected = project_dataset(&ds);
    let dir = scratch("partial");
    // Row 2's stored projection is perturbed away from the extracts
    // before it reaches the store: migration must leave it v1.
    projected[2].end = (projected[2].end * 0.25).max(projected[2].start);
    {
        let _ = DurableIndex::create(&dir, &projected).expect("create store");
    }
    let clean = project_dataset(&ds);
    let (mut index, _) = DurableIndex::recover(&dir).expect("recover");
    let upgraded =
        index.migrate_full(|l| resolve_v1_row(&ds, &clean, l)).expect("first migration");
    assert_eq!(upgraded, clean.len() - 1, "the diverged row must stay projection-only");
    assert_eq!(index.full_rows(), clean.len() - 1);
    let again =
        index.migrate_full(|l| resolve_v1_row(&ds, &clean, l)).expect("second migration");
    assert_eq!(again, 0, "re-migration upgrades nothing new");
    let _ = std::fs::remove_dir_all(&dir);
}
