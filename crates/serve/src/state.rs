//! Per-tenant serving state: the immutable snapshot bundle one epoch
//! publishes, and the copy-on-write ingest that builds the next epoch.
//!
//! A [`TenantSnapshot`] bundles everything a read needs to be answerable
//! from one consistent version of the world: the dataset (feature source
//! for predictions) and the Status-Query view (columnar arena + group-by
//! trees, which is all `status` reads; the snapshot holds no logical-time
//! index). Publishing them as *one* `Arc` behind
//! `domd_index::EpochStore` is what makes a torn read impossible: a
//! request either sees the whole old epoch or the whole new one.
//!
//! Ingest is copy-on-write, so building epoch `e + 1` never perturbs
//! readers pinned on `e`: the snapshot clone shares the dataset `Arc` and
//! the view's chunked storage (`domd_index::chunked`), copying chunk
//! pointers rather than rows. Epoch `e + 1` is delta-maintained, not
//! rebuilt: the batch becomes a [`domd_index::RccDelta`] stream applied
//! through the view's incremental path (each insert copies only the
//! arena chunks and group-tree runs its appends land in), and the
//! dataset is a per-avail partition merge ([`Dataset::with_rccs_merged`]:
//! only the batch's avails are copied, every other partition is shared)
//! instead of `Dataset::new`'s full re-sort — both bit-identical to a
//! from-scratch rebuild, which the `delta_equivalence` and
//! `snapshot_isolation` suites re-check after every batch.
//!
//! RCC ids are `u32`: a batch whose ids would pass `u32::MAX` is refused
//! with a config error ([`TenantSnapshot::rcc_ids_for`]) before any row
//! of it is logged or applied.

use std::sync::Arc;

use domd_core::DomdError;
use domd_data::rcc::{amount_admitted, Rcc, RccId, RccType, Swlin};
use domd_data::{logical_time, AvailId, Dataset, Date};
use domd_index::{LogicalRcc, RccArena, RccDelta, RowId, StatusView};

use crate::request::IngestRow;

/// One immutable epoch of a tenant's serving state.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The dataset version predictions read features from.
    pub dataset: Arc<Dataset>,
    /// The Status-Query view (arena + group-by trees) over the same
    /// version.
    pub engine: StatusView,
    /// Next fresh RCC id for ingested rows: one past the largest id held,
    /// so `u32::MAX + 1` once the id space is used up.
    next_rcc: u64,
}

impl TenantSnapshot {
    /// Builds epoch 0 from a dataset.
    pub fn from_dataset(dataset: Dataset) -> Self {
        let arena = Arc::new(RccArena::from_dataset(&dataset));
        let engine = StatusView::from_arena(arena);
        let next_rcc = dataset.rccs().iter().map(|r| u64::from(r.id.0) + 1).max().unwrap_or(0);
        TenantSnapshot { dataset: Arc::new(dataset), engine, next_rcc }
    }

    /// The RCC id the next ingested row will receive (`u32::MAX` once
    /// the id space is used up, when [`Self::rcc_ids_for`] refuses every
    /// batch).
    pub fn next_rcc(&self) -> u32 {
        u32::try_from(self.next_rcc).unwrap_or(u32::MAX)
    }

    /// The first of the `n` consecutive RCC ids a batch of `n` rows will
    /// receive, or a typed config error when the last of them would pass
    /// `u32::MAX`. Check it before logging any row of the batch.
    pub fn rcc_ids_for(&self, n: usize) -> Result<u32, DomdError> {
        let last = self.next_rcc + n as u64;
        match u32::try_from(self.next_rcc) {
            Ok(first) if last <= u64::from(u32::MAX) + 1 => Ok(first),
            _ => Err(DomdError::config(format!(
                "RCC id space exhausted: a batch of {n} row(s) from id {} would pass {}",
                self.next_rcc,
                u32::MAX
            ))),
        }
    }

    /// Validates an ingest against this snapshot *without* mutating it —
    /// run on the pinned epoch before cloning, so a bad request never
    /// costs a copy-on-write build (or publishes an empty epoch).
    pub fn validate_ingest(
        &self,
        avail: AvailId,
        created: Date,
        settled: Date,
        amount: f64,
    ) -> Result<(), DomdError> {
        if self.dataset.avail(avail).is_none() {
            return Err(DomdError::config(format!("ingest references unknown avail {avail}")));
        }
        if settled < created {
            return Err(DomdError::config(format!(
                "ingest has settled {settled} before created {created}"
            )));
        }
        if !amount.is_finite() {
            return Err(DomdError::NonFinite {
                feature: "ingest amount".into(),
                step: "serve ingest".into(),
            });
        }
        if !amount_admitted(amount) {
            return Err(DomdError::config(format!(
                "ingest amount {amount} is outside the admitted window (multiples of 2^-62 \
                 below 2^33)"
            )));
        }
        Ok(())
    }

    /// The logical projection the next ingested row will occupy — the
    /// record a write-ahead log must persist *before* [`Self::ingest`]
    /// applies the row. The caller supplies the durable row id: durable
    /// ids are allocated by the store (monotone past its own max), not
    /// derived from this snapshot's arena length, so they never collide
    /// across tenants or across restarts where the arena resets while
    /// previously ingested rows remain live in the store.
    pub fn project_next(
        &self,
        id: RowId,
        avail: AvailId,
        created: Date,
        settled: Date,
    ) -> Option<LogicalRcc> {
        let a = self.dataset.avail(avail)?;
        let planned = a.planned_duration().max(1);
        Some(LogicalRcc {
            id,
            avail,
            start: logical_time(created, a.actual_start, planned),
            end: logical_time(settled, a.actual_start, planned),
        })
    }

    /// Applies one ingest to this (cloned) snapshot — a one-row batch
    /// through [`Self::ingest_batch`]. Call only after
    /// [`Self::validate_ingest`] accepted the same fields.
    pub fn ingest(
        &mut self,
        avail: AvailId,
        rcc_type: RccType,
        swlin: Swlin,
        created: Date,
        settled: Date,
        amount: f64,
    ) -> Result<RowId, DomdError> {
        let rows = [IngestRow { avail, rcc_type, swlin, created, settled, amount }];
        let applied = self.ingest_batch(&rows)?;
        // domd-lint: allow(no-panic) — a one-row batch that returned Ok applied exactly one row
        Ok(*applied.first().expect("one-row batch applies one row"))
    }

    /// Applies a whole ingest batch to this (cloned) snapshot via the
    /// incremental delta path: every row becomes an
    /// [`RccDelta::Insert`] applied through the view (touching only its
    /// type partition and SWLIN entry), and the dataset rebuilds only the
    /// partitions of the batch's avails instead of re-sorting the table —
    /// bit-identical to a from-scratch rebuild either way.
    /// Returns the arena row ids in batch order. Nothing is mutated unless
    /// every row's avail resolves and the batch's RCC ids fit in `u32`.
    pub fn ingest_batch(&mut self, rows: &[IngestRow]) -> Result<Vec<RowId>, DomdError> {
        // Resolve every avail and the id range before touching any state,
        // so a refused batch leaves the snapshot byte-identical (the serve
        // layer publishes the clone even on refusal).
        let first = self.rcc_ids_for(rows.len())?;
        let mut avails = Vec::with_capacity(rows.len());
        for r in rows {
            let a = self.dataset.avail(r.avail).ok_or_else(|| {
                DomdError::config(format!("ingest references unknown avail {}", r.avail))
            })?;
            avails.push(a.clone());
        }
        let mut fresh = Vec::with_capacity(rows.len());
        let mut deltas = Vec::with_capacity(rows.len());
        for (k, (r, a)) in rows.iter().zip(avails).enumerate() {
            let rcc = Rcc {
                // Checked above: the batch's last id is at most u32::MAX.
                id: RccId(first + k as u32),
                avail: r.avail,
                rcc_type: r.rcc_type,
                swlin: r.swlin,
                created: r.created,
                settled: r.settled,
                amount: r.amount,
            };
            fresh.push(rcc.clone());
            deltas.push(RccDelta::Insert { rcc, avail: a });
        }
        self.next_rcc += rows.len() as u64;
        let applied = self.engine.apply_deltas(&deltas);
        debug_assert_eq!(applied.len(), rows.len(), "inserts always apply");
        // Delta-maintain the dataset: merge the batch into the touched
        // avails' partitions. The merge yields exactly the order
        // `Dataset::new` would produce, so the feature path's bits are
        // unchanged; the arena keeps its own dense order, and nothing
        // cross-references the two by position after construction.
        self.dataset = Arc::new(self.dataset.with_rccs_merged(fresh));
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_data::rcc::RccStatus;
    use domd_data::{generate, GeneratorConfig};
    use domd_index::StatusQuery;

    fn snapshot() -> TenantSnapshot {
        let ds = generate(&GeneratorConfig { n_avails: 6, target_rccs: 400, scale: 1, seed: 3 });
        TenantSnapshot::from_dataset(ds)
    }

    #[test]
    fn ingest_appends_to_arena_and_dataset() {
        let mut s = snapshot();
        let rows = s.engine.arena().len();
        let n_rccs = s.dataset.rccs().len();
        let a = s.dataset.avails()[0].clone();
        let swlin: Swlin = "123-45-678".parse().unwrap();
        s.validate_ingest(a.id, a.actual_start + 5, a.actual_start + 9, 100.0).unwrap();
        let row = s
            .ingest(a.id, RccType::Growth, swlin, a.actual_start + 5, a.actual_start + 9, 100.0)
            .unwrap();
        assert_eq!(row as usize, rows);
        assert_eq!(s.engine.arena().len(), rows + 1);
        assert_eq!(s.dataset.rccs().len(), n_rccs + 1);
        // The new row is queryable.
        let q = StatusQuery {
            rcc_type: None,
            swlin_prefix: None,
            status: RccStatus::Created,
            t_star: f64::INFINITY,
        };
        assert_eq!(s.engine.aggregate(&q).count, rows + 1);
    }

    #[test]
    fn validate_rejects_unknown_avail_and_bad_fields() {
        let s = snapshot();
        let a = s.dataset.avails()[0].clone();
        let e = s.validate_ingest(AvailId(9999), a.actual_start, a.actual_start, 1.0).unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = s
            .validate_ingest(a.id, a.actual_start + 9, a.actual_start + 5, 1.0)
            .unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = s.validate_ingest(a.id, a.actual_start, a.actual_start + 1, f64::NAN).unwrap_err();
        assert_eq!(e.kind(), "non-finite");
        // Amounts a status sum cannot hold exactly: past 2^33, and off the
        // 2^-62 grid. Both edges of the window are accepted.
        let (start, end) = (a.actual_start, a.actual_start + 1);
        for bad in [1e10, -9e9, 1e-30, 0.0001] {
            let e = s.validate_ingest(a.id, start, end, bad).unwrap_err();
            assert_eq!(e.kind(), "config", "{bad}: {e}");
            assert!(e.to_string().contains("admitted window"), "{bad}: {e}");
        }
        for good in [8_589_934_591.999_999, 1.0 / (1u64 << 62) as f64, 0.0] {
            s.validate_ingest(a.id, start, end, good).unwrap();
        }
    }

    #[test]
    fn batch_ingest_matches_sequential_single_rows() {
        let mut batched = snapshot();
        let mut sequential = snapshot();
        let a = batched.dataset.avails()[0].clone();
        let b = batched.dataset.avails()[2].clone();
        let swlin: Swlin = "123-45-678".parse().unwrap();
        let rows = [
            IngestRow {
                avail: a.id,
                rcc_type: RccType::Growth,
                swlin,
                created: a.actual_start + 2,
                settled: a.actual_start + 8,
                amount: 10.0,
            },
            IngestRow {
                avail: b.id,
                rcc_type: RccType::NewWork,
                swlin,
                created: b.actual_start + 1,
                settled: b.actual_start + 4,
                amount: 20.0,
            },
            IngestRow {
                avail: a.id,
                rcc_type: RccType::NewGrowth,
                swlin,
                created: a.actual_start,
                settled: a.actual_start + 3,
                amount: 30.0,
            },
        ];
        let ids = batched.ingest_batch(&rows).unwrap();
        let seq_ids: Vec<RowId> = rows
            .iter()
            .map(|r| {
                sequential
                    .ingest(r.avail, r.rcc_type, r.swlin, r.created, r.settled, r.amount)
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, seq_ids, "batch row ids equal sequential row ids");
        assert_eq!(batched.dataset.rccs().len(), sequential.dataset.rccs().len());
        for (x, y) in batched.dataset.rccs().iter().zip(sequential.dataset.rccs()) {
            assert_eq!(x.id, y.id, "dataset orders must coincide");
            assert_eq!(x.amount.to_bits(), y.amount.to_bits());
        }
        for status in [RccStatus::Active, RccStatus::Settled, RccStatus::Created] {
            let q = StatusQuery { rcc_type: None, swlin_prefix: None, status, t_star: 50.0 };
            let (x, y) = (batched.engine.aggregate(&q), sequential.engine.aggregate(&q));
            assert_eq!(x.count, y.count);
            assert_eq!(x.sum_amount.to_bits(), y.sum_amount.to_bits());
            assert_eq!(x.sum_duration.to_bits(), y.sum_duration.to_bits());
        }
    }

    #[test]
    fn batch_with_unknown_avail_applies_nothing() {
        let mut s = snapshot();
        let a = s.dataset.avails()[0].clone();
        let rows_before = s.engine.arena().len();
        let rccs_before = s.dataset.rccs().len();
        let swlin: Swlin = "123-45-678".parse().unwrap();
        let rows = [
            IngestRow {
                avail: a.id,
                rcc_type: RccType::Growth,
                swlin,
                created: a.actual_start,
                settled: a.actual_start + 2,
                amount: 5.0,
            },
            IngestRow {
                avail: AvailId(9_999),
                rcc_type: RccType::Growth,
                swlin,
                created: a.actual_start,
                settled: a.actual_start + 2,
                amount: 5.0,
            },
        ];
        let err = s.ingest_batch(&rows).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert_eq!(s.engine.arena().len(), rows_before, "refused batch must not apply rows");
        assert_eq!(s.dataset.rccs().len(), rccs_before);
    }

    #[test]
    fn project_next_matches_arena_push() {
        let mut s = snapshot();
        let a = s.dataset.avails()[1].clone();
        let created = a.actual_start + 3;
        let settled = a.actual_start + 12;
        let next_row = s.engine.arena().len() as RowId;
        let projected = s.project_next(next_row, a.id, created, settled).unwrap();
        let swlin: Swlin = "00100200".parse().unwrap();
        let row =
            s.ingest(a.id, RccType::NewWork, swlin, created, settled, 10.0).unwrap();
        let got = s.engine.arena().logical(row);
        assert_eq!(projected.id, got.id);
        assert_eq!(projected.avail, got.avail);
        assert_eq!(projected.start.to_bits(), got.start.to_bits());
        assert_eq!(projected.end.to_bits(), got.end.to_bits());
    }
}
