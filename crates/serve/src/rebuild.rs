//! Log-only snapshot rebuild: turning a recovered [`DurableIndex`] back
//! into the [`TenantSnapshot`] that produced it, without re-reading the
//! extracts.
//!
//! The durable store is the system of record for `domd serve`: every
//! acked ingest wrote a v2 WAL record carrying the row's *full* RCC
//! fields (type, SWLIN, created/settled, amount) before the epoch that
//! served it was published. Recovery therefore replays the store into a
//! set of [`StoredRow`](domd_index::StoredRow)s, and a restart builds the
//! snapshot from those rows in bulk, through the same
//! [`TenantSnapshot::from_dataset`] that set-up and a first start use:
//! `Dataset::new` sorts the rows into table order and the arena and view
//! are built over that table. The restarted dataset is the one the
//! acking epoch served, row for row and bit for bit.
//!
//! Rows written by a pre-v2 store carry only their logical projection.
//! [`resolve_v1_row`] upgrades such a row from the extracts when the row
//! is *provably* the extracts' own: its position id, avail, and logical
//! start/end bits must all match the extract projection. Anything else
//! is refused with a typed error directing the operator to
//! `domd migrate-store` — never a silent guess.

use domd_core::DomdError;
use domd_data::rcc::Rcc;
use domd_data::{AvailId, Dataset};
use domd_index::{project_dataset, DurableIndex, FlatAvlIndex, LogicalRcc};

use crate::state::TenantSnapshot;

/// What a log-only rebuild was able to reconstruct, for operator output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebuildSummary {
    /// Live rows in the recovered store (== rows in the rebuilt snapshot).
    pub rows: usize,
    /// Rows rebuilt from their own v2 full payload — the store alone.
    pub from_store: usize,
    /// Projection-only (v1) rows resolved against the extracts instead.
    pub from_extracts: usize,
    /// Whether the store's logical projection still equals the extracts'
    /// — the pre-v2 divergence check, kept as an optional cross-check.
    /// `false` is expected (and fine) once ingests have landed.
    pub matches_extracts: bool,
}

/// Resolves a projection-only (v1) stored row to its full RCC from the
/// extracts, when and only when the row is provably the extracts' own:
/// the row id is a position into `ds.rccs()`, and the projection at that
/// position must match the stored row bit-for-bit (avail, logical start
/// and end). A v1 row mutated since export (a settle moved its end) no
/// longer matches and resolves to `None` — the caller surfaces that as a
/// typed refusal rather than serving reconstructed-but-wrong bytes.
pub fn resolve_v1_row(
    ds: &Dataset,
    projected: &[LogicalRcc],
    logical: &LogicalRcc,
) -> Option<Rcc> {
    let p = projected.get(logical.id as usize)?;
    if p.avail == logical.avail
        && p.start.to_bits() == logical.start.to_bits()
        && p.end.to_bits() == logical.end.to_bits()
    {
        ds.rccs().get(logical.id as usize).cloned()
    } else {
        None
    }
}

/// Rebuilds one tenant's serving snapshot from its recovered store: the
/// store's rows (v1 rows resolved against the extracts via
/// [`resolve_v1_row`]) and the extracts' avails make one dataset, built
/// with [`TenantSnapshot::from_dataset`]. The result serves exactly the
/// rows the store acked — including rows the extracts have never seen.
///
/// Fails with [`DomdError::Corrupt`] (exit 9) when a v1 row cannot be
/// resolved or a row references an avail the extracts lack: serving
/// would silently hide durably acknowledged data, so startup refuses
/// instead, naming `domd migrate-store` as the repair.
pub fn rebuild_tenant(
    ds: &Dataset,
    index: &DurableIndex<FlatAvlIndex>,
) -> Result<(TenantSnapshot, RebuildSummary), DomdError> {
    let projected = project_dataset(ds);
    let mut avail_ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
    avail_ids.sort_unstable();
    let rccs = index
        .rebuild_rows(
            |logical| resolve_v1_row(ds, &projected, logical),
            |avail| avail_ids.binary_search(&avail).is_ok(),
        )
        .map_err(|e| DomdError::Corrupt {
            context: index.store_dir().display().to_string(),
            offset: None,
            message: format!("cannot rebuild the serving snapshot from the store: {e}"),
        })?;
    let rows = index.len();
    let from_store = index.full_rows();
    let summary = RebuildSummary {
        rows,
        from_store,
        from_extracts: rows - from_store,
        matches_extracts: index.entries() == projected,
    };
    let snap = TenantSnapshot::from_dataset(Dataset::new(ds.avails().to_vec(), rccs));
    Ok((snap, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_data::{generate, GeneratorConfig};
    use domd_index::DurableIndex;

    fn dataset() -> Dataset {
        generate(&GeneratorConfig {
            n_avails: 6,
            target_rccs: 120,
            scale: 1,
            seed: 41,
        })
    }

    fn scratch(label: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "domd-rebuild-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// A store initialized with full payloads rebuilds bit-identically to
    /// the from-extracts snapshot, and reports zero extract resolutions.
    #[test]
    fn full_store_rebuilds_from_store_alone() {
        let ds = dataset();
        let projected = project_dataset(&ds);
        let dir = scratch("full");
        let index: DurableIndex<FlatAvlIndex> = DurableIndex::create_full(
            &dir,
            projected.iter().copied().zip(ds.rccs().iter().cloned()),
        )
        .expect("create full store");
        let (snap, summary) = rebuild_tenant(&ds, &index).expect("rebuild");
        assert_eq!(summary.rows, ds.rccs().len());
        assert_eq!(summary.from_store, summary.rows);
        assert_eq!(summary.from_extracts, 0);
        assert!(summary.matches_extracts);
        let fresh = TenantSnapshot::from_dataset(ds.clone());
        let a = &snap.dataset;
        let b = &fresh.dataset;
        assert_eq!(a.rccs().len(), b.rccs().len());
        for (x, y) in a.rccs().iter().zip(b.rccs().iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.amount.to_bits(), y.amount.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A projection-only (v1) store still rebuilds — every row resolves
    /// against the extracts — and the summary says so.
    #[test]
    fn v1_store_resolves_against_extracts() {
        let ds = dataset();
        let projected = project_dataset(&ds);
        let dir = scratch("v1");
        let index: DurableIndex<FlatAvlIndex> =
            DurableIndex::create(&dir, &projected).expect("create v1 store");
        let (snap, summary) = rebuild_tenant(&ds, &index).expect("rebuild");
        assert_eq!(summary.from_store, 0);
        assert_eq!(summary.from_extracts, ds.rccs().len());
        assert_eq!(snap.dataset.rccs().len(), ds.rccs().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A v1 row whose projection no longer matches the extracts is a
    /// typed Corrupt refusal naming the repair, never a silent guess.
    #[test]
    fn diverged_v1_row_is_a_typed_refusal() {
        let ds = dataset();
        let mut projected = project_dataset(&ds);
        let dir = scratch("diverged");
        // Perturb one row's logical end before it reaches the store: the
        // store now holds a projection the extracts cannot vouch for.
        projected[3].end = (projected[3].end * 0.5).max(projected[3].start);
        let index: DurableIndex<FlatAvlIndex> =
            DurableIndex::create(&dir, &projected).expect("create diverged store");
        let err = rebuild_tenant(&ds, &index).expect_err("diverged row must refuse");
        let msg = err.to_string();
        assert!(msg.contains("migrate-store"), "refusal names the repair: {msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A stored row whose amount lies outside the admitted window (a
    /// store written before ingest refused such amounts) stops the
    /// restart with a typed Corrupt refusal, not a panic or an inexact
    /// sum.
    #[test]
    fn stored_amount_outside_the_window_is_a_typed_refusal() {
        let ds = dataset();
        let projected = project_dataset(&ds);
        let dir = scratch("amount");
        let mut rccs = ds.rccs().to_vec();
        rccs[5].amount = 1e10;
        let index: DurableIndex<FlatAvlIndex> =
            DurableIndex::create_full(&dir, projected.iter().copied().zip(rccs))
                .expect("create full store");
        let err = rebuild_tenant(&ds, &index).expect_err("the amount must refuse");
        assert_eq!(err.kind(), "corrupt", "{err}");
        assert!(err.to_string().contains("admitted window"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
