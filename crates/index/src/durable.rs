//! Crash-safe dynamic maintenance: a write-ahead-logged store of live
//! RCC rows, the durable system of record behind `domd serve --store`.
//!
//! Section 4.1's O(log n) insert/remove keeps the Status-Query structures
//! current as RCCs stream in from the Navy environment, but in-memory
//! state evaporates on crash and a half-written snapshot is worse than
//! none. [`DurableIndex`] makes every mutation durable *before* it is
//! applied:
//!
//! 1. **WAL-before-apply** — each insert/remove/settle/reopen builds an
//!    epoch-stamped, CRC-framed [`WalRecord`], appends it to the store's
//!    log (group-commit batched; durable at [`DurableIndex::sync`] and
//!    checkpoint boundaries), then applies that same record through the
//!    one function replay uses. A live store therefore holds, by
//!    construction, the state its log replays to. A crash can only lose
//!    an unsynced *suffix* of mutations — never reorder them — and a crash
//!    mid-write leaves a torn tail that replay provably discards.
//! 2. **Checkpoint compaction** — [`DurableIndex::checkpoint`] snapshots
//!    the live entry set into a checksummed checkpoint generation and
//!    truncates the WAL. Rolling generations ([`KEPT_GENERATIONS`]) mean a
//!    crash *during* checkpointing still leaves the previous generation
//!    intact.
//! 3. **Recovery** — [`DurableIndex::recover`] rebuilds from the newest
//!    intact checkpoint, replays the longest valid epoch-contiguous WAL
//!    prefix onto it, and compacts the damaged tail out of the live log
//!    (quarantining the removed bytes to `wal.<n>.damaged`, since a tail
//!    stranded beyond a fallen-back checkpoint generation can hold
//!    fsync-acknowledged records). The recovered rows are exactly the
//!    uncrashed store's, and an index built over them answers every
//!    Status Query bit-identically (asserted by `tests/recovery.rs`).
//!
//! The store wraps no tree. Its `entries` — a [`BTreeMap`] of live
//! [`StoredRow`]s, each a [`LogicalRcc`] plus, for v2 rows, the full RCC
//! that checkpoints and log-only rebuilds need — are the system of record,
//! and every decision the store makes reads them. A reader that wants the
//! paper's dual AVL trees builds them from [`DurableIndex::entries`];
//! serving rebuilds a `StatusView` from [`DurableIndex::rebuild_rows`]. The
//! *durable epoch* counts logged mutations and survives recovery.

use crate::delta::RccDelta;
use crate::flat_avl::FlatAvlIndex;
use crate::types::{LogicalRcc, RowId};
use domd_data::avail::{Avail, AvailId};
use domd_data::date::Date;
use domd_data::rcc::{amount_admitted, Rcc, RccId, RccType, Swlin};
use domd_storage::{CheckpointEntry, FullRcc, Store, StorageError, WalOp, WalRecord, WalWriter};
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Mutations applied between automatic checkpoint compactions. Small
/// enough that replay after a crash is bounded, large enough that the
/// (entry-set-sized) checkpoint write amortizes away; `bench_wal`'s
/// checkpointing arm times this default.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 4096;

/// One durable row: the logical projection every index layer consumes,
/// plus (for rows written by full-row v2 records) the complete RCC — the
/// payload that lets recovery rebuild serving snapshots from the store
/// alone.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRow {
    /// The logical projection `(id, avail, start, end)`.
    pub logical: LogicalRcc,
    /// The full RCC, when this row's history was logged with v2 records.
    /// `None` for rows only ever touched by v1 (pre-full-row) mutations.
    pub rcc: Option<Rcc>,
}

/// Why [`DurableIndex::rebuild_rows`] could not produce the store's
/// complete row set.
#[derive(Debug, Clone)]
pub enum RebuildError {
    /// A live row carries no full RCC payload and the caller's v1
    /// resolver could not supply one — the store needs `domd
    /// migrate-store` (or re-exported extracts) before log-only rebuild.
    MissingFull {
        /// The row in question.
        id: RowId,
        /// Its owning avail.
        avail: AvailId,
    },
    /// A full payload (stored or resolved) disagrees with the logical
    /// projection's owning avail — the store describes two histories.
    AvailMismatch {
        /// The row in question.
        id: RowId,
        /// The avail the logical projection records.
        logical: AvailId,
        /// The avail the full RCC records.
        full: AvailId,
    },
    /// The caller's avail set does not contain a live row's avail.
    UnknownAvail {
        /// The row in question.
        id: RowId,
        /// The avail no caller-side `Avail` exists for.
        avail: AvailId,
    },
    /// A row's amount lies outside the admitted window
    /// ([`domd_data::rcc::amount_admitted`]), so a Status-Query sum could
    /// not hold it exactly; ingest and load refuse such amounts, so only
    /// a store written without that check holds one.
    Amount {
        /// The row in question.
        id: RowId,
        /// Its amount.
        amount: f64,
    },
}

impl fmt::Display for RebuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebuildError::MissingFull { id, avail } => write!(
                f,
                "row {id} (avail {}) has no full RCC payload and no resolver matched it; \
                 run `domd migrate-store` or re-export extracts",
                avail.0
            ),
            RebuildError::AvailMismatch { id, logical, full } => write!(
                f,
                "row {id}: logical projection names avail {} but the full payload names \
                 avail {}",
                logical.0, full.0
            ),
            RebuildError::UnknownAvail { id, avail } => {
                write!(f, "row {id} belongs to avail {} which the dataset does not hold", avail.0)
            }
            RebuildError::Amount { id, amount } => write!(
                f,
                "row {id} has amount {amount}, outside the admitted window (multiples of \
                 2^-62 below 2^33)"
            ),
        }
    }
}

/// What [`DurableIndex::recover`] did, for operator display (`domd recover`).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint recovered onto.
    pub checkpoint_epoch: u64,
    /// Path of that checkpoint generation.
    pub checkpoint_path: PathBuf,
    /// Checkpoint generations examined (newest first) before one verified.
    pub generations_tried: usize,
    /// Diagnoses of generations that failed verification.
    pub damaged_generations: Vec<String>,
    /// WAL records replayed onto the checkpoint.
    pub replayed: usize,
    /// WAL records skipped as already covered by the checkpoint.
    pub skipped: usize,
    /// Bytes of damaged WAL tail removed from the live log by compaction.
    pub discarded_bytes: u64,
    /// Where the removed tail bytes were preserved (`wal.<n>.damaged`).
    /// The tail can hold fsync-acknowledged records that merely fail to
    /// apply — e.g. records stranded beyond a fallen-back checkpoint
    /// generation — so it is quarantined for forensics, never destroyed.
    pub quarantined_tail: Option<PathBuf>,
    /// Diagnosis of the damaged tail, when one was found.
    pub tail_fault: Option<String>,
    /// Durable epoch after replay.
    pub epoch: u64,
    /// Live entries after replay.
    pub rows: usize,
    /// Payload layout version of the checkpoint recovered onto (1 =
    /// projection-only entries, 2 = full-row entries).
    pub checkpoint_version: u32,
    /// Version-1 (projection-only) records among the replayed prefix.
    pub replayed_v1: usize,
    /// Version-2 (full-row) records among the replayed prefix.
    pub replayed_v2: usize,
    /// Live entries carrying a full RCC payload after replay — when this
    /// equals [`RecoveryReport::rows`], serving snapshots rebuild from
    /// the store alone.
    pub full_rows: usize,
}

/// A store of live RCC rows whose mutations survive process crashes.
///
/// It holds no index. The type parameter is a phantom, kept only because
/// perfbench names `DurableIndex<FlatAvlIndex>` and
/// `DurableIndex::<FlatAvlIndex>::recover`; the `[benchmark]` change of
/// ROADMAP item 1(a) drops it. Every method lives on the default
/// `DurableIndex`.
#[derive(Debug)]
pub struct DurableIndex<I = FlatAvlIndex> {
    store: Store,
    wal: WalWriter,
    /// The system of record: every live row, by id.
    entries: BTreeMap<RowId, StoredRow>,
    /// Durable mutation counter: the epoch of the last applied record.
    epoch: u64,
    /// Epoch of the newest on-disk checkpoint.
    checkpoint_epoch: u64,
    /// Auto-compact after this many WAL records (`None` = manual only).
    checkpoint_every: Option<u64>,
    _index: PhantomData<fn() -> I>,
}

impl DurableIndex {
    /// Initializes a fresh store at `dir` over `rccs`: writes the epoch-0
    /// checkpoint and truncates the WAL.
    /// Fails with [`StorageError::AlreadyInitialized`] when `dir` already
    /// holds a store — creating over live durable state would silently
    /// destroy it; use [`DurableIndex::recover`] (or clear the directory)
    /// instead. Fails with [`StorageError::Malformed`] on duplicate row
    /// ids — a checkpoint must map each id to exactly one entry.
    pub fn create(dir: &Path, rccs: &[LogicalRcc]) -> Result<Self, StorageError> {
        Self::create_rows(dir, rccs.iter().map(|r| StoredRow { logical: *r, rcc: None }))
    }

    /// Like [`DurableIndex::create`], but seeds every row with its full
    /// RCC, so the epoch-0 checkpoint already carries everything a
    /// log-only rebuild needs. Fails with [`StorageError::Malformed`]
    /// when a projection and its RCC disagree on the owning avail.
    pub fn create_full(
        dir: &Path,
        rows: impl IntoIterator<Item = (LogicalRcc, Rcc)>,
    ) -> Result<Self, StorageError> {
        let rows = rows.into_iter().map(|(logical, rcc)| StoredRow { logical, rcc: Some(rcc) });
        Self::create_rows(dir, rows)
    }

    fn create_rows(
        dir: &Path,
        rows: impl IntoIterator<Item = StoredRow>,
    ) -> Result<Self, StorageError> {
        let store = Store::open(dir)?;
        if store.is_initialized()? {
            return Err(StorageError::AlreadyInitialized { dir: dir.display().to_string() });
        }
        let mut entries = BTreeMap::new();
        for row in rows {
            if let Some(rcc) = &row.rcc {
                check_avail_agreement(dir, &row.logical, rcc)?;
            }
            let id = row.logical.id;
            if entries.insert(id, row).is_some() {
                return Err(StorageError::malformed(
                    dir.display().to_string(),
                    0,
                    format!("duplicate row id {id} in initial entry set"),
                ));
            }
        }
        store.write_checkpoint(0, entries.values().map(checkpoint_entry))?;
        store.rewrite_wal(&[])?;
        let wal = WalWriter::open(&store.wal_path())?;
        Ok(DurableIndex {
            store,
            wal,
            entries,
            epoch: 0,
            checkpoint_epoch: 0,
            checkpoint_every: Some(DEFAULT_CHECKPOINT_EVERY),
            _index: PhantomData,
        })
    }

    /// Recovers from `dir`: newest intact checkpoint, plus the longest
    /// valid epoch-contiguous WAL prefix, then compacts the damaged tail
    /// out of the live log (preserved as `wal.<n>.damaged`) so the next
    /// crash recovers from a clean log.
    pub fn recover(dir: &Path) -> Result<(Self, RecoveryReport), StorageError> {
        let store = Store::open(dir)?;
        let recovered = store.newest_intact_checkpoint()?;
        let mut entries = BTreeMap::new();
        for e in &recovered.checkpoint.entries {
            entries.insert(e.id, from_checkpoint_entry(e));
        }
        let wal_bytes = store.read_wal()?;
        let replayed = domd_storage::replay(&wal_bytes, recovered.checkpoint.epoch);
        let mut epoch = recovered.checkpoint.epoch;
        let mut applied = 0usize;
        let (mut replayed_v1, mut replayed_v2) = (0usize, 0usize);
        let mut tail_fault = replayed.tail_fault.clone();
        let mut valid_len = replayed.valid_len;
        for (i, rec) in replayed.records.iter().enumerate() {
            // A CRC-valid, epoch-contiguous record that does not apply
            // (e.g. remove of an absent id) means the log and checkpoint
            // describe different histories; stop there, as after a torn
            // record — everything before it is still consistent.
            // domd-lint: allow(wal-order) — replays a record already durable in the WAL
            if let Err(misfit) = Self::apply_record(&mut entries, rec) {
                tail_fault = Some(format!(
                    "wal record at epoch {} ({} id {}) does not apply to the recovered \
                     state: {misfit}",
                    rec.epoch,
                    rec.op.name(),
                    rec.id
                ));
                // Records come in two sizes now, so the inapplicable
                // suffix's byte length is summed per record, not counted.
                valid_len -=
                    replayed.records[i..].iter().map(|r| r.encoded_len()).sum::<usize>();
                break;
            }
            if rec.full.is_some() {
                replayed_v2 += 1;
            } else {
                replayed_v1 += 1;
            }
            epoch = rec.epoch;
            applied += 1;
        }
        let discarded_bytes = (wal_bytes.len() - valid_len) as u64;
        let mut quarantined_tail = None;
        if discarded_bytes > 0 {
            // Preserve before rewrite: the tail may be the only remaining
            // copy of acknowledged mutations (not just torn garbage).
            quarantined_tail = Some(store.quarantine_wal_tail(&wal_bytes[valid_len..])?);
            store.rewrite_wal(&wal_bytes[..valid_len])?;
        }
        let wal = WalWriter::open(&store.wal_path())?;
        let report = RecoveryReport {
            checkpoint_epoch: recovered.checkpoint.epoch,
            checkpoint_path: recovered.path,
            generations_tried: recovered.tried,
            damaged_generations: recovered.damaged,
            replayed: applied,
            skipped: replayed.skipped,
            discarded_bytes,
            quarantined_tail,
            tail_fault,
            epoch,
            rows: entries.len(),
            checkpoint_version: recovered.checkpoint.version,
            replayed_v1,
            replayed_v2,
            full_rows: entries.values().filter(|s| s.rcc.is_some()).count(),
        };
        Ok((
            DurableIndex {
                store,
                wal,
                entries,
                epoch,
                checkpoint_epoch: recovered.checkpoint.epoch,
                checkpoint_every: Some(DEFAULT_CHECKPOINT_EVERY),
                _index: PhantomData,
            },
            report,
        ))
    }

    /// Sets the auto-compaction cadence (`None` disables it).
    pub fn set_checkpoint_every(&mut self, every: Option<u64>) {
        self.checkpoint_every = every;
    }

    // Every live mutation ends in `log_and_apply`: WAL-before-apply,
    // through the apply replay uses. Durability of the log's tail is
    // guaranteed at [`DurableIndex::sync`] / checkpoint boundaries.

    /// Inserts one projected RCC as a version-1 (projection-only) record.
    /// `Ok(false)` when the id is already live (nothing is logged for
    /// no-ops). Rows inserted this way cannot feed a log-only snapshot
    /// rebuild — prefer [`DurableIndex::insert_full`] on serving paths.
    pub fn insert(&mut self, rcc: &LogicalRcc) -> Result<bool, StorageError> {
        let rec = self.record(WalOp::Insert, rcc, None);
        self.log_and_apply(rec)
    }

    /// Inserts one RCC with its full payload as a version-2 record, so
    /// recovery can rebuild the serving row without consulting extracts.
    /// Fails with [`StorageError::Malformed`] when the projection and the
    /// RCC disagree on the owning avail (nothing is logged).
    pub fn insert_full(&mut self, logical: &LogicalRcc, rcc: &Rcc) -> Result<bool, StorageError> {
        check_avail_agreement(self.store.dir(), logical, rcc)?;
        let rec = self.record(WalOp::Insert, logical, Some(rcc));
        self.log_and_apply(rec)
    }

    /// Removes a live RCC by id. `Ok(false)` when absent.
    pub fn remove(&mut self, id: RowId) -> Result<bool, StorageError> {
        let Some(old) = self.entries.get(&id) else { return Ok(false) };
        let rec = self.record(WalOp::Remove, &old.logical, None);
        self.log_and_apply(rec)
    }

    /// Settles a live RCC: moves its logical end to `new_end` (the dynamic
    /// maintenance of Section 4.1 when an open RCC closes). `Ok(false)`
    /// when absent. Logs a version-1 record: a row whose full payload is
    /// live gets that payload *dropped* (its settled date would go stale),
    /// so serving paths should use [`DurableIndex::settle_dated`].
    pub fn settle(&mut self, id: RowId, new_end: f64) -> Result<bool, StorageError> {
        self.move_end(id, new_end, WalOp::Settle, None)
    }

    /// Settles a live RCC and updates its full payload's settled date, so
    /// the row stays rebuildable from the log alone. Falls back to a
    /// version-1 record when the row never had a full payload.
    pub fn settle_dated(
        &mut self,
        id: RowId,
        new_end: f64,
        settled: Date,
    ) -> Result<bool, StorageError> {
        self.move_end(id, new_end, WalOp::Settle, Some(settled))
    }

    /// Reopens a settled RCC with a new (later) logical end. `Ok(false)`
    /// when absent. Logs a version-1 record and drops any live full
    /// payload, exactly like [`DurableIndex::settle`].
    pub fn reopen(&mut self, id: RowId, new_end: f64) -> Result<bool, StorageError> {
        self.move_end(id, new_end, WalOp::Reopen, None)
    }

    /// Reopens a settled RCC, keeping its full payload current with the
    /// new settled date (see [`DurableIndex::settle_dated`]).
    pub fn reopen_dated(
        &mut self,
        id: RowId,
        new_end: f64,
        settled: Date,
    ) -> Result<bool, StorageError> {
        self.move_end(id, new_end, WalOp::Reopen, Some(settled))
    }

    fn move_end(
        &mut self,
        id: RowId,
        new_end: f64,
        op: WalOp,
        settled: Option<Date>,
    ) -> Result<bool, StorageError> {
        let Some(old) = self.entries.get(&id) else { return Ok(false) };
        // The record's version is what the row holds afterwards: a dated
        // move on a full row re-logs the updated payload (v2); an undated
        // move drops the payload (v1) because its settled date no longer
        // describes the row.
        let moved = match (settled, &old.rcc) {
            (Some(date), Some(rcc)) => Some(Rcc { settled: date, ..rcc.clone() }),
            _ => None,
        };
        let rec = self.record(op, &LogicalRcc { end: new_end, ..old.logical }, moved.as_ref());
        self.log_and_apply(rec)
    }

    /// The record a live write logs: `op` on `row` at the next epoch,
    /// carrying `full` as its payload when the row keeps one.
    fn record(&self, op: WalOp, row: &LogicalRcc, full: Option<&Rcc>) -> WalRecord {
        WalRecord {
            epoch: self.epoch + 1,
            op,
            id: row.id,
            avail: row.avail.0,
            start: row.start,
            end: row.end,
            full: full.map(full_of),
        }
    }

    /// Logs `rec`, applies it, and runs the auto-compaction cadence.
    /// `Ok(false)`, with nothing logged, when `rec` inserts a live id or
    /// changes an absent one; a record that would not apply for any other
    /// reason is refused before it is logged.
    fn log_and_apply(&mut self, rec: WalRecord) -> Result<bool, StorageError> {
        match next_row(&self.entries, &rec) {
            Ok(_) => {}
            Err(Misfit::Present | Misfit::Absent) => return Ok(false),
            Err(misfit) => return Err(self.refusal(&rec, misfit)),
        }
        self.wal.append(&rec)?;
        Self::apply_record(&mut self.entries, &rec).map_err(|m| self.refusal(&rec, m))?;
        self.epoch = rec.epoch;
        if let Some(every) = self.checkpoint_every {
            if self.epoch - self.checkpoint_epoch >= every {
                self.checkpoint()?;
            }
        }
        Ok(true)
    }

    /// Applies one WAL record to the live rows. Live writes (once they
    /// have logged the record) and replay (of a record already in the
    /// log) change `entries` only through this; the one other writer is
    /// [`DurableIndex::migrate_full`]'s payload upgrade, which a
    /// checkpoint persists. On a misfit the rows are left untouched.
    fn apply_record(
        entries: &mut BTreeMap<RowId, StoredRow>,
        rec: &WalRecord,
    ) -> Result<(), Misfit> {
        match next_row(entries, rec)? {
            Some(row) => entries.insert(rec.id, row),
            None => entries.remove(&rec.id),
        };
        Ok(())
    }

    fn refusal(&self, rec: &WalRecord, misfit: Misfit) -> StorageError {
        StorageError::malformed(
            self.store.dir().display().to_string(),
            0,
            format!(
                "{} of row {} does not apply to the live rows: {misfit}",
                rec.op.name(),
                rec.id
            ),
        )
    }

    /// Compacts: durably snapshots the live entry set at the current epoch
    /// and truncates the WAL. Returns the new generation's path.
    pub fn checkpoint(&mut self) -> Result<PathBuf, StorageError> {
        self.wal.sync()?;
        let path =
            self.store.write_checkpoint(self.epoch, self.entries.values().map(checkpoint_entry))?;
        self.store.rewrite_wal(&[])?;
        self.wal = WalWriter::open(&self.store.wal_path())?;
        self.checkpoint_epoch = self.epoch;
        Ok(path)
    }

    /// Forces the WAL to stable storage (fsync).
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.wal.sync()
    }

    /// Durable mutation counter (survives recovery).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch of the newest on-disk checkpoint.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.checkpoint_epoch
    }

    /// Live entries, ascending by id.
    pub fn entries(&self) -> Vec<LogicalRcc> {
        self.entries.values().map(|s| s.logical).collect()
    }

    /// Live entries with their full payloads, ascending by id.
    pub fn entries_full(&self) -> Vec<StoredRow> {
        self.entries.values().cloned().collect()
    }

    /// Number of live entries carrying a full RCC payload. Equal to
    /// [`DurableIndex::len`] when the store rebuilds from the log alone.
    pub fn full_rows(&self) -> usize {
        self.entries.values().filter(|s| s.rcc.is_some()).count()
    }

    /// Upgrades projection-only rows in place: `resolve` maps each such
    /// row to its full RCC (from extracts, typically). Returns how many
    /// rows gained a payload; rows `resolve` declines stay v1. The
    /// upgrade lives in memory until the next [`DurableIndex::checkpoint`]
    /// persists it — `domd migrate-store` checkpoints immediately after.
    pub fn migrate_full(
        &mut self,
        resolve: impl Fn(&LogicalRcc) -> Option<Rcc>,
    ) -> Result<usize, StorageError> {
        let dir = self.store.dir().to_path_buf();
        let mut upgraded = 0usize;
        for row in self.entries.values_mut() {
            if row.rcc.is_some() {
                continue;
            }
            if let Some(rcc) = resolve(&row.logical) {
                check_avail_agreement(&dir, &row.logical, &rcc)?;
                row.rcc = Some(rcc);
                upgraded += 1;
            }
        }
        Ok(upgraded)
    }

    /// The live rows' full RCCs in row-id order, for a bulk snapshot
    /// build. `resolve_v1` supplies full payloads for projection-only
    /// rows (pass `|_| None` for a strict log-only rebuild); `has_avail`
    /// says whether the caller holds an owning avail. A row whose amount
    /// is outside the admitted window is refused.
    pub fn rebuild_rows(
        &self,
        resolve_v1: impl Fn(&LogicalRcc) -> Option<Rcc>,
        has_avail: impl Fn(AvailId) -> bool,
    ) -> Result<Vec<Rcc>, RebuildError> {
        let mut rows = Vec::with_capacity(self.entries.len());
        for stored in self.entries.values() {
            let logical = &stored.logical;
            let rcc = match &stored.rcc {
                Some(rcc) => rcc.clone(),
                None => resolve_v1(logical).ok_or(RebuildError::MissingFull {
                    id: logical.id,
                    avail: logical.avail,
                })?,
            };
            if rcc.avail != logical.avail {
                return Err(RebuildError::AvailMismatch {
                    id: logical.id,
                    logical: logical.avail,
                    full: rcc.avail,
                });
            }
            if !has_avail(logical.avail) {
                return Err(RebuildError::UnknownAvail { id: logical.id, avail: logical.avail });
            }
            if !amount_admitted(rcc.amount) {
                return Err(RebuildError::Amount { id: logical.id, amount: rcc.amount });
            }
            rows.push(rcc);
        }
        Ok(rows)
    }

    /// [`DurableIndex::rebuild_rows`] as [`RccDelta::Insert`]s in the
    /// dataset's `(avail, created, rcc id)` table order. Kept only for
    /// `perfbench`'s traced restart replay; restart itself builds in bulk.
    pub fn rebuild_deltas(
        &self,
        resolve_v1: impl Fn(&LogicalRcc) -> Option<Rcc>,
        avail_of: impl Fn(AvailId) -> Option<Avail>,
    ) -> Result<Vec<RccDelta>, RebuildError> {
        let rows = self.rebuild_rows(resolve_v1, |_| true)?;
        let mut rows: Vec<(RowId, Rcc)> = self.entries.keys().copied().zip(rows).collect();
        rows.sort_by_key(|(_, r)| (r.avail, r.created, r.id));
        rows.into_iter()
            .map(|(id, rcc)| match avail_of(rcc.avail) {
                Some(avail) => Ok(RccDelta::Insert { rcc, avail }),
                None => Err(RebuildError::UnknownAvail { id, avail: rcc.avail }),
            })
            .collect()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Largest live row id (`None` when empty). Writers that allocate
    /// fresh ids seed their counter from this, so ids stay unique across
    /// restarts even when the in-memory state they project from resets.
    pub fn max_id(&self) -> Option<RowId> {
        self.entries.last_key_value().map(|(id, _)| *id)
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The underlying store directory.
    pub fn store_dir(&self) -> &Path {
        self.store.dir()
    }
}

/// Why a WAL record does not apply to the live rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Misfit {
    /// An insert of an id that is already live.
    Present,
    /// A remove, settle or reopen of an id that is not live.
    Absent,
    /// A full-row payload that does not lift back into a typed RCC.
    Payload,
}

impl fmt::Display for Misfit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Misfit::Present => "the id is already live",
            Misfit::Absent => "the id is not live",
            Misfit::Payload => "its full-row payload is out of domain",
        })
    }
}

/// The row `rec` leaves at its id (`None` after a remove), or why it does
/// not apply to `entries`. Pure, so a live write can ask before it logs.
fn next_row(
    entries: &BTreeMap<RowId, StoredRow>,
    rec: &WalRecord,
) -> Result<Option<StoredRow>, Misfit> {
    let avail = AvailId(rec.avail);
    // A v2 record re-materializes the full payload the writer logged; a
    // v1 record carries none, so a v1 settle/reopen drops any stale
    // payload the row held. replay() validated the domain already, so on
    // replay an unconvertible payload means the log disagrees with itself;
    // a live write refuses one before logging it.
    let full = match &rec.full {
        Some(f) => Some(rcc_of(f, avail).ok_or(Misfit::Payload)?),
        None => None,
    };
    match (rec.op, entries.get(&rec.id)) {
        (WalOp::Insert, Some(_)) => Err(Misfit::Present),
        (WalOp::Insert, None) => {
            let logical = LogicalRcc { id: rec.id, avail, start: rec.start, end: rec.end };
            Ok(Some(StoredRow { logical, rcc: full }))
        }
        (_, None) => Err(Misfit::Absent),
        (WalOp::Remove, Some(_)) => Ok(None),
        (WalOp::Settle | WalOp::Reopen, Some(old)) => {
            Ok(Some(StoredRow { logical: LogicalRcc { end: rec.end, ..old.logical }, rcc: full }))
        }
    }
}

/// Projects a typed RCC into the storage layer's raw full-row payload.
fn full_of(rcc: &Rcc) -> FullRcc {
    FullRcc {
        rcc_id: rcc.id.0,
        rcc_type: rcc.rcc_type.index() as u8,
        swlin: rcc.swlin.packed(),
        created: rcc.created.days(),
        settled: rcc.settled.days(),
        amount: rcc.amount,
    }
}

/// Lifts a raw full-row payload back into the typed RCC. `None` only when
/// the payload is out of domain — decode paths validate the type code and
/// SWLIN range first, so a `None` here means corrupted state.
fn rcc_of(full: &FullRcc, avail: AvailId) -> Option<Rcc> {
    Some(Rcc {
        id: RccId(full.rcc_id),
        avail,
        rcc_type: *RccType::ALL.get(full.rcc_type as usize)?,
        swlin: Swlin::from_packed(full.swlin).ok()?,
        created: Date::from_days(full.created),
        settled: Date::from_days(full.settled),
        amount: full.amount,
    })
}

/// Refuses a row whose projection and full payload name different avails.
fn check_avail_agreement(dir: &Path, logical: &LogicalRcc, rcc: &Rcc) -> Result<(), StorageError> {
    if rcc.avail != logical.avail {
        return Err(StorageError::malformed(
            dir.display().to_string(),
            0,
            format!(
                "row {}: projection names avail {} but the full RCC names avail {}",
                logical.id, logical.avail.0, rcc.avail.0
            ),
        ));
    }
    Ok(())
}

fn checkpoint_entry(s: &StoredRow) -> CheckpointEntry {
    CheckpointEntry {
        id: s.logical.id,
        avail: s.logical.avail.0,
        start: s.logical.start,
        end: s.logical.end,
        full: s.rcc.as_ref().map(full_of),
    }
}

fn from_checkpoint_entry(e: &CheckpointEntry) -> StoredRow {
    let logical = LogicalRcc { id: e.id, avail: AvailId(e.avail), start: e.start, end: e.end };
    StoredRow { logical, rcc: e.full.as_ref().and_then(|f| rcc_of(f, logical.avail)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::LogicalTimeIndex;

    fn rcc(id: u32, start: f64, end: f64) -> LogicalRcc {
        LogicalRcc { id, avail: AvailId(id % 5), start, end }
    }

    fn seed_rccs(n: u32) -> Vec<LogicalRcc> {
        (0..n).map(|i| rcc(i, f64::from(i) * 0.7, f64::from(i) * 0.7 + 30.0)).collect()
    }

    fn dir(label: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join(format!("domd-durable-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn create_then_recover_is_bit_identical() {
        let d = dir("create");
        let rccs = seed_rccs(40);
        let di = DurableIndex::create(&d, &rccs).unwrap();
        let (rec, report) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.rows, 40);
        assert!(report.tail_fault.is_none());
        assert_eq!(rec.entries(), rccs);
        let (created, recovered) =
            (FlatAvlIndex::build(&di.entries()), FlatAvlIndex::build(&rec.entries()));
        for t in [0.0, 10.0, 25.0, 100.0] {
            assert_eq!(created.active_at(t), recovered.active_at(t));
            assert_eq!(created.settled_by(t), recovered.settled_by(t));
        }
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn mutations_survive_crash_without_checkpoint() {
        let d = dir("wal-replay");
        let mut di = DurableIndex::create(&d, &seed_rccs(10)).unwrap();
        di.set_checkpoint_every(None);
        assert!(di.insert(&rcc(50, 1.0, 99.0)).unwrap());
        assert!(di.settle(3, 12.5).unwrap());
        assert!(di.remove(7).unwrap());
        assert!(di.reopen(4, 250.0).unwrap());
        assert!(!di.insert(&rcc(50, 1.0, 99.0)).unwrap(), "duplicate insert is a no-op");
        assert!(!di.remove(7).unwrap(), "double remove is a no-op");
        let baseline = di.entries();
        let epoch = di.epoch();
        di.sync().unwrap();
        drop(di); // crash: no checkpoint was written after the mutations
        let (rec, report) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report.checkpoint_epoch, 0);
        assert_eq!(report.replayed, 4);
        assert_eq!(rec.epoch(), epoch);
        assert_eq!(rec.entries(), baseline);
        assert_eq!(rec.len(), baseline.len());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_recovery_skips_replay() {
        let d = dir("compact");
        let mut di = DurableIndex::create(&d, &seed_rccs(10)).unwrap();
        di.set_checkpoint_every(None);
        for i in 20..30 {
            di.insert(&rcc(i, 2.0, 60.0)).unwrap();
        }
        di.checkpoint().unwrap();
        assert_eq!(std::fs::metadata(di.store_dir().join("wal.log")).unwrap().len(), 0);
        di.settle(21, 5.0).unwrap();
        di.sync().unwrap();
        let baseline = di.entries();
        drop(di);
        let (rec, report) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report.checkpoint_epoch, 10);
        assert_eq!(report.replayed, 1);
        assert_eq!(rec.entries(), baseline);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn auto_checkpoint_fires_at_cadence() {
        let d = dir("auto");
        let mut di = DurableIndex::create(&d, &[]).unwrap();
        di.set_checkpoint_every(Some(4));
        for i in 0..9 {
            di.insert(&rcc(i, 0.0, 50.0)).unwrap();
        }
        // Compactions fired at epochs 4 and 8; epoch 9 is still WAL-only.
        assert_eq!(di.checkpoint_epoch(), 8);
        di.sync().unwrap();
        assert_eq!(
            std::fs::metadata(di.store_dir().join("wal.log")).unwrap().len(),
            domd_storage::RECORD_LEN as u64,
            "one record since the last auto-checkpoint"
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_discarded_and_compacted() {
        let d = dir("torn");
        let mut di = DurableIndex::create(&d, &seed_rccs(5)).unwrap();
        di.set_checkpoint_every(None);
        di.insert(&rcc(10, 0.0, 40.0)).unwrap();
        di.insert(&rcc(11, 0.0, 40.0)).unwrap();
        di.sync().unwrap();
        let wal_path = di.store_dir().join("wal.log");
        drop(di);
        // Tear the second record mid-payload.
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..domd_storage::RECORD_LEN + 11]).unwrap();
        let (rec, report) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report.replayed, 1);
        assert!(report.tail_fault.is_some());
        assert_eq!(report.discarded_bytes, 11);
        assert!(rec.entries().iter().any(|r| r.id == 10));
        assert!(!rec.entries().iter().any(|r| r.id == 11), "torn record never applied");
        // Compaction removed the torn tail from the live log, but the
        // removed bytes survive in quarantine.
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            domd_storage::RECORD_LEN as u64
        );
        let q = report.quarantined_tail.expect("removed tail must be preserved");
        assert_eq!(std::fs::read(&q).unwrap().len(), 11);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn inapplicable_record_stops_replay() {
        let d = dir("inapplicable");
        let mut di = DurableIndex::create(&d, &seed_rccs(5)).unwrap();
        di.set_checkpoint_every(None);
        di.insert(&rcc(10, 0.0, 40.0)).unwrap();
        di.sync().unwrap();
        let wal_path = di.store_dir().join("wal.log");
        drop(di);
        // Forge a CRC-valid record removing an id that was never inserted.
        let forged = WalRecord {
            epoch: 2,
            op: WalOp::Remove,
            id: 999,
            avail: 0,
            start: 0.0,
            end: 0.0,
            full: None,
        };
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.extend_from_slice(&forged.encode());
        std::fs::write(&wal_path, &bytes).unwrap();
        let (rec, report) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(rec.epoch(), 1);
        let fault = report.tail_fault.expect("inapplicable record is a tail fault");
        assert!(fault.contains("does not apply"), "{fault}");
        assert!(fault.ends_with("the id is not live"), "{fault}");
        assert_eq!(report.discarded_bytes, domd_storage::RECORD_LEN as u64);
        // The forged-but-CRC-valid record is evidence; it must be
        // preserved byte-for-byte, not destroyed with the rewrite.
        let q = report.quarantined_tail.expect("removed record must be preserved");
        assert_eq!(std::fs::read(&q).unwrap(), forged.encode());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn recovery_falls_back_to_previous_generation() {
        let d = dir("fallback");
        let mut di = DurableIndex::create(&d, &seed_rccs(6)).unwrap();
        di.set_checkpoint_every(None);
        di.insert(&rcc(20, 0.0, 30.0)).unwrap();
        di.checkpoint().unwrap();
        let newest = di.store.checkpoint_path(1);
        drop(di);
        // Bit-flip the newest generation; recovery must fall back to epoch 0
        // (and find no WAL records beyond it — the log was truncated).
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();
        let (rec, report) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report.checkpoint_epoch, 0);
        assert_eq!(report.generations_tried, 2);
        assert_eq!(report.damaged_generations.len(), 1);
        assert_eq!(rec.len(), 6, "falls back to the pre-insert snapshot");
        // The damaged generation was quarantined: a later recovery starts
        // straight from the intact epoch-0 generation.
        assert!(!newest.exists(), "damaged generation must be quarantined");
        drop(rec);
        let (_, report2) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report2.generations_tried, 1);
        assert!(report2.damaged_generations.is_empty());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn create_refuses_to_overwrite_an_initialized_store() {
        let d = dir("no-overwrite");
        let mut di = DurableIndex::create(&d, &seed_rccs(8)).unwrap();
        di.insert(&rcc(30, 1.0, 20.0)).unwrap();
        di.sync().unwrap();
        drop(di);
        let e = DurableIndex::create(&d, &seed_rccs(3)).unwrap_err();
        assert!(
            matches!(e, StorageError::AlreadyInitialized { .. }),
            "expected AlreadyInitialized, got {e:?}"
        );
        assert!(!e.is_corruption(), "a refused create is usage, not corruption");
        // The refused create destroyed nothing: the store still recovers
        // to its pre-refusal state.
        let (rec, _) = DurableIndex::recover(&d).unwrap();
        assert_eq!(rec.len(), 9);
        assert!(rec.entries().iter().any(|r| r.id == 30), "WAL record survived");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn duplicate_initial_id_is_rejected() {
        let d = dir("dup");
        let rccs = vec![rcc(1, 0.0, 1.0), rcc(1, 2.0, 3.0)];
        let e = DurableIndex::create(&d, &rccs).unwrap_err();
        assert!(e.is_corruption());
        assert!(e.to_string().contains("duplicate row id 1"), "{e}");
        let _ = std::fs::remove_dir_all(&d);
    }

    fn full_rcc(id: u32, created: i32, settled: i32) -> Rcc {
        Rcc {
            id: RccId(id),
            avail: AvailId(id % 5),
            rcc_type: RccType::ALL[(id % 3) as usize],
            swlin: Swlin::from_packed(40_000_000 + id).unwrap(),
            created: Date::from_days(created),
            settled: Date::from_days(settled),
            amount: f64::from(id) * 101.5,
        }
    }

    fn full_pair(id: u32, start: f64, end: f64) -> (LogicalRcc, Rcc) {
        (rcc(id, start, end), full_rcc(id, start as i32, end as i32))
    }

    #[test]
    fn full_rows_survive_wal_replay_and_checkpoint() {
        let d = dir("full-roundtrip");
        let seed: Vec<(LogicalRcc, Rcc)> =
            (0..6).map(|i| full_pair(i, f64::from(i), f64::from(i) + 20.0)).collect();
        let mut di = DurableIndex::create_full(&d, seed.clone()).unwrap();
        di.set_checkpoint_every(None);
        assert_eq!(di.full_rows(), 6);
        // Every live transition through the shared apply: a full and a
        // v1 insert, dated and undated settles and reopens of full rows
        // (the undated ones drop the payload), and a remove.
        let (l, r) = full_pair(10, 1.0, 80.0);
        assert!(di.insert_full(&l, &r).unwrap());
        assert!(di.settle_dated(2, 9.0, Date::from_days(9)).unwrap());
        assert!(di.settle(3, 11.0).unwrap());
        assert!(di.remove(4).unwrap());
        assert!(di.reopen_dated(1, 90.0, Date::from_days(90)).unwrap());
        assert!(di.reopen(5, 95.0).unwrap());
        assert!(di.insert(&rcc(11, 2.0, 50.0)).unwrap());
        // No-ops log nothing and change nothing.
        let before = di.entries_full();
        assert!(!di.insert_full(&l, &r).unwrap(), "duplicate full insert is a no-op");
        assert!(!di.insert(&rcc(11, 3.0, 40.0)).unwrap(), "duplicate insert is a no-op");
        assert!(!di.remove(4).unwrap(), "absent remove is a no-op");
        assert!(!di.reopen_dated(4, 99.0, Date::from_days(99)).unwrap(), "absent reopen");
        assert_eq!(di.entries_full(), before);
        assert_eq!(di.epoch(), 7);
        di.sync().unwrap();
        let baseline = di.entries_full();
        assert_eq!(di.full_rows(), 4, "undated settle and reopen dropped rows 3 and 5");
        drop(di);
        // Crash-recover: everything rebuilt from checkpoint + WAL.
        let (rec, report) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report.replayed, 7);
        assert_eq!(report.replayed_v2, 3, "full insert + dated settle + dated reopen");
        assert_eq!(report.replayed_v1, 4, "undated settle + remove + undated reopen + insert");
        assert_eq!(report.full_rows, 4);
        assert_eq!(report.checkpoint_version, domd_storage::CHECKPOINT_VERSION);
        assert_eq!(rec.epoch(), 7);
        assert_eq!(rec.entries_full(), baseline);
        let row = |id: RowId| rec.entries_full().into_iter().find(|s| s.logical.id == id).unwrap();
        assert_eq!(row(2).rcc.unwrap().settled, Date::from_days(9));
        assert_eq!(row(1).rcc.unwrap().settled, Date::from_days(90));
        assert_eq!(row(1).logical.end, 90.0);
        assert_eq!((row(5).logical.end, row(5).rcc), (95.0, None));
        assert_eq!(row(11).rcc, None);
        // Checkpoint, then recover with an empty WAL: payloads persist in
        // the v2 checkpoint entries too.
        let (mut rec, _) = DurableIndex::recover(&d).unwrap();
        rec.checkpoint().unwrap();
        drop(rec);
        let (rec, report) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(rec.entries_full(), baseline);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn a_record_that_would_not_apply_is_refused_before_logging() {
        let d = dir("misfit");
        let mut di = DurableIndex::create_full(&d, vec![full_pair(0, 0.0, 5.0)]).unwrap();
        di.set_checkpoint_every(None);
        // A payload no typed RCC projects to: the shared apply cannot
        // lift it back, so the write is refused, typed, before the log
        // sees it.
        let mut rec = di.record(WalOp::Insert, &rcc(7, 0.0, 5.0), Some(&full_rcc(7, 0, 5)));
        rec.full.as_mut().unwrap().rcc_type = 9;
        let e = di.log_and_apply(rec).unwrap_err();
        assert!(e.to_string().contains("payload is out of domain"), "{e}");
        assert_eq!(di.epoch(), 0);
        assert_eq!(di.len(), 1);
        di.sync().unwrap();
        assert_eq!(std::fs::metadata(di.store_dir().join("wal.log")).unwrap().len(), 0);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn avail_disagreement_is_refused_before_logging() {
        let d = dir("avail-mismatch");
        let mut di = DurableIndex::create(&d, &seed_rccs(3)).unwrap();
        let epoch = di.epoch();
        let logical = rcc(9, 0.0, 10.0); // avail 9 % 5 = 4
        let mut full = full_rcc(9, 0, 10);
        full.avail = AvailId(1);
        let e = di.insert_full(&logical, &full).unwrap_err();
        assert!(e.to_string().contains("avail"), "{e}");
        assert_eq!(di.epoch(), epoch, "refused insert must not log or apply");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn migrate_full_upgrades_v1_rows_in_place() {
        let d = dir("migrate");
        let mut di = DurableIndex::create(&d, &seed_rccs(8)).unwrap();
        di.set_checkpoint_every(None);
        assert_eq!(di.full_rows(), 0);
        let upgraded = di
            .migrate_full(|l| Some(full_rcc(l.id, l.start as i32, l.end as i32)))
            .unwrap();
        assert_eq!(upgraded, 8);
        assert_eq!(di.full_rows(), 8);
        // Persist through a checkpoint and recover from the store alone.
        di.checkpoint().unwrap();
        drop(di);
        let (rec, report) = DurableIndex::recover(&d).unwrap();
        assert_eq!(report.full_rows, 8);
        // A second migrate is a no-op; a declining resolver changes nothing.
        let mut rec = rec;
        assert_eq!(rec.migrate_full(|_| None).unwrap(), 0);
        std::fs::remove_dir_all(&d).unwrap();
    }

    fn avail_row(id: AvailId) -> Option<Avail> {
        Some(Avail {
            id,
            ship: domd_data::avail::ShipId(id.0),
            plan_start: Date::from_days(0),
            plan_end: Date::from_days(100),
            actual_start: Date::from_days(0),
            actual_end: Some(Date::from_days(100)),
            statics: domd_data::avail::StaticAttrs {
                ship_class: 1,
                rmc_id: 1,
                ship_age_years: 10.0,
                prior_avail_count: 2,
                prior_avg_delay: 5.0,
            },
        })
    }

    #[test]
    fn rebuild_rows_come_back_in_row_id_order() {
        let d = dir("rows");
        // Later ids are created earlier, so row-id order is not the
        // dataset's (avail, created, id) table order.
        let seed: Vec<(LogicalRcc, Rcc)> =
            (0..10).map(|i| full_pair(i, f64::from(10 - i), f64::from(10 - i) + 5.0)).collect();
        let di = DurableIndex::create_full(&d, seed.clone()).unwrap();
        let rows = di.rebuild_rows(|_| None, |_| true).unwrap();
        let want: Vec<Rcc> = seed.into_iter().map(|(_, r)| r).collect();
        assert_eq!(rows, want, "rows come back as stored, in row-id order");
        // The delta stream perfbench replays is sorted into table order.
        let keys: Vec<(AvailId, Date, RccId)> = di
            .rebuild_deltas(|_| None, avail_row)
            .unwrap()
            .iter()
            .map(|dlt| match dlt {
                RccDelta::Insert { rcc, .. } => (rcc.avail, rcc.created, rcc.id),
                other => panic!("rebuild emits inserts only, got {other:?}"),
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys.len(), 10);
        assert_eq!(keys, sorted, "deltas must arrive in dataset table order");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn rebuild_rows_refusals_are_typed() {
        let d = dir("rows-v1");
        let v1 = DurableIndex::create(&d, &seed_rccs(3)).unwrap();
        // A projection-only row that no resolver vouches for...
        let e = v1.rebuild_rows(|_| None, |_| true).unwrap_err();
        assert!(matches!(e, RebuildError::MissingFull { id: 0, avail: AvailId(0) }), "{e}");
        assert!(e.to_string().contains("migrate-store"), "{e}");
        // ...a resolver that answers with another avail's row...
        let e = v1
            .rebuild_rows(|l| Some(full_rcc(l.id + 1, 0, 5)), |_| true)
            .unwrap_err();
        assert!(
            matches!(
                e,
                RebuildError::AvailMismatch { id: 0, logical: AvailId(0), full: AvailId(1) }
            ),
            "{e}"
        );
        // ...and a row whose avail the caller lacks are each refused.
        let e = v1
            .rebuild_rows(|l| Some(full_rcc(l.id, 0, 5)), |a| a != AvailId(1))
            .unwrap_err();
        assert!(matches!(e, RebuildError::UnknownAvail { id: 1, avail: AvailId(1) }), "{e}");
        // ...and so is a resolved row whose amount a status sum cannot hold.
        let e = v1
            .rebuild_rows(|l| Some(Rcc { amount: 1e10, ..full_rcc(l.id, 0, 5) }), |_| true)
            .unwrap_err();
        assert!(matches!(e, RebuildError::Amount { id: 0, .. }), "{e}");
        assert_eq!(v1.rebuild_rows(|l| Some(full_rcc(l.id, 0, 5)), |_| true).unwrap().len(), 3);
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// A v2 store row whose amount lies outside the admitted window (one
    /// a store written before the window existed may hold) is refused by
    /// a rebuild, typed, after a restart reads it back.
    #[test]
    fn stored_amount_outside_the_window_is_refused_on_rebuild() {
        let d = dir("rows-amount");
        let mut bad = full_rcc(1, 0, 5);
        bad.amount = 1e-30;
        let rows = vec![full_pair(0, 0.0, 5.0), (rcc(1, 0.0, 5.0), bad)];
        drop(DurableIndex::create_full(&d, rows).unwrap());
        let (store, _) = DurableIndex::recover(&d).unwrap();
        let e = store.rebuild_rows(|_| None, |_| true).unwrap_err();
        assert!(matches!(e, RebuildError::Amount { id: 1, amount } if amount == 1e-30), "{e}");
        assert!(e.to_string().contains("admitted window"), "{e}");
        std::fs::remove_dir_all(&d).unwrap();
    }
}
