//! Typed delta stream and incremental view maintenance.
//!
//! The grouped Status Query aggregates are hierarchical queries over the
//! avail⋈RCC join; per Kara/Nikolic/Olteanu/Zhang (PAPERS.md), maintaining
//! such views by deltas beats recomputation whenever mutation traffic is a
//! small fraction of the dataset, and the cost of maintenance is the set
//! of views it must keep current. A [`RccDelta`] describes one mutation of
//! the RCC relation — insert, settle (the logical end moves), or remove —
//! and is emitted at the *same call sites*, in the *same order*, as the
//! serving layer's `DurableIndex` WAL-before-apply mutations: the stream
//! is derived from the WAL mutation order, one typed delta per logged
//! record, so applying a delta here replays a change that is already
//! durable. (The WAL record itself carries only the logical projection —
//! no type, SWLIN, or amount — which is why the typed stream is extracted
//! where the mutation is issued rather than parsed back out of the log.)
//!
//! The maintained view is a [`StatusView`]: the arena, the two group
//! trees and the per-type run directories ([`crate::status_runs`]), which
//! is everything `domd serve` reads. It holds no logical-time index, so a
//! delta mutates none. An insert appends to the arena and touches one type
//! partition, one SWLIN entry and its type's two key orders; a settle
//! takes the row out of its type's orders, rewrites its arena chunk and
//! puts it back at its new `end`; a removal deletes the row from both
//! group trees and both orders. Each is `O(log n)` comparisons plus one
//! run copy per structure it writes. The arena is append-only — a removed
//! row stays behind as an orphan nothing references. Sums are exact (see
//! [`crate::status_query`]), so every aggregate is bit-identical to a
//! from-scratch [`StatusView::from_arena_rows`] over the live rows of the
//! same arena, and to the exact sums of the index plan's ids
//! ([`crate::status_query::StatusQueryEngine::execute`]) built over those
//! rows, whatever order the deltas arrived in. That bit-identity is the
//! correctness gate of the delta equivalence suite.

use crate::status_query::StatusView;
use crate::types::RowId;
use domd_data::avail::Avail;
use domd_data::date::Date;
use domd_data::rcc::Rcc;
use std::sync::Arc;

/// One mutation of the RCC relation, in WAL order.
#[derive(Debug, Clone)]
pub enum RccDelta {
    /// A new RCC row enters the relation.
    Insert {
        /// The full row (the WAL's logical projection lacks type, SWLIN
        /// and amount, so the typed stream carries the record itself).
        rcc: Rcc,
        /// The availability the row belongs to.
        avail: Avail,
    },
    /// Row `row` re-settles at `settled` (covers both settle and reopen:
    /// the new date may precede or follow the old one).
    Settle {
        /// The maintained view's row id.
        row: RowId,
        /// The new settlement date.
        settled: Date,
        /// The row's own availability, so the logical end is recomputed
        /// with the identical `logical_time` call the original projection
        /// used (bit-identity depends on it).
        avail: Avail,
    },
    /// Row `row` leaves the relation; its arena storage is orphaned.
    Remove {
        /// The maintained view's row id.
        row: RowId,
    },
}

impl StatusView {
    /// Applies one delta in `O(log n)`. Returns the affected row id, or
    /// `None` when the delta names a row the view does not hold (out of
    /// bounds, already removed, or under a mismatched avail) — the view
    /// is left untouched in that case, so a malformed delta can never
    /// corrupt it.
    pub fn apply_delta(&mut self, delta: &RccDelta) -> Option<RowId> {
        match delta {
            RccDelta::Insert { rcc, avail } => {
                let row = Arc::make_mut(&mut self.arena).push(rcc, avail);
                self.type_tree.insert(rcc.rcc_type, row);
                self.swlin_tree.insert(rcc.swlin, row);
                Arc::make_mut(&mut self.runs[rcc.rcc_type.index()]).insert(&self.arena, row);
                Some(row)
            }
            RccDelta::Settle { row, settled, avail } => {
                if !self.is_live(*row) || self.arena.avail(*row) != avail.id {
                    return None;
                }
                // The runs find the row by its old `end` (and carry its old
                // duration in their totals), so it leaves them before the
                // arena moves it and re-enters after.
                let runs = Arc::make_mut(&mut self.runs[self.arena.rcc_type(*row).index()]);
                runs.remove(&self.arena, *row);
                Arc::make_mut(&mut self.arena).settle(*row, *settled, avail);
                runs.insert(&self.arena, *row);
                Some(*row)
            }
            RccDelta::Remove { row } => {
                if !self.is_live(*row) {
                    return None;
                }
                let rcc_type = self.arena.rcc_type(*row);
                let swlin = self.arena.swlin(*row);
                self.type_tree.remove(rcc_type, *row);
                self.swlin_tree.remove(swlin, *row);
                Arc::make_mut(&mut self.runs[rcc_type.index()]).remove(&self.arena, *row);
                Some(*row)
            }
        }
    }

    /// Applies a batch in stream order, returning the affected row ids
    /// (deltas naming unknown rows are skipped, matching
    /// [`Self::apply_delta`]).
    pub fn apply_deltas(&mut self, deltas: &[RccDelta]) -> Vec<RowId> {
        deltas.iter().filter_map(|d| self.apply_delta(d)).collect()
    }

    /// True when `row` is currently in the view. Removal deletes the
    /// group-tree entries while the arena keeps the orphaned columns, so
    /// membership in the row's type partition is the liveness test.
    pub fn is_live(&self, row: RowId) -> bool {
        (row as usize) < self.arena.len()
            && self
                .type_tree
                .ids_of(self.arena.rcc_type(row))
                .contains(&row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::RccArena;
    use crate::flat_avl::FlatAvlIndex;
    use crate::status_query::tests::assert_matches_index_plans;
    use crate::status_query::{StatusQuery, StatusQueryEngine};
    use domd_data::dataset::Dataset;
    use domd_data::rcc::{RccId, RccStatus, RccType};
    use domd_data::{generate, GeneratorConfig};

    fn view_of(ds: &Dataset) -> StatusView {
        StatusView::from_arena(Arc::new(RccArena::from_dataset(ds)))
    }

    fn view() -> (Dataset, StatusView) {
        let ds = generate(&GeneratorConfig { n_avails: 10, target_rccs: 600, scale: 1, seed: 3 });
        let view = view_of(&ds);
        (ds, view)
    }

    fn probe_queries() -> Vec<StatusQuery> {
        let mut out = Vec::new();
        for t in [0.0, 20.0, 45.0, 60.0, 90.0, 110.0] {
            for status in
                [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated]
            {
                out.push(StatusQuery { rcc_type: None, swlin_prefix: None, status, t_star: t });
                out.push(StatusQuery {
                    rcc_type: Some(RccType::Growth),
                    swlin_prefix: None,
                    status,
                    t_star: t,
                });
                out.push(StatusQuery {
                    rcc_type: None,
                    swlin_prefix: Some((4, 1)),
                    status,
                    t_star: t,
                });
            }
        }
        out
    }

    /// The rows a flat-AVL index plan built from scratch over `view`'s
    /// arena and live rows returns for `q`.
    fn scratch_rows(view: &StatusView, q: &StatusQuery) -> Vec<RowId> {
        let live = view.live_rows();
        StatusQueryEngine::<FlatAvlIndex>::from_arena_rows(Arc::clone(view.arena()), &live)
            .execute(q)
    }

    /// The maintained view against the flat-AVL and naive-join index plans
    /// built from scratch over its arena and live rows.
    fn assert_matches_scratch(view: &StatusView) {
        assert_matches_index_plans(view, &probe_queries(), "maintained view");
    }

    #[test]
    fn settle_moves_row_between_status_sets() {
        let (ds, mut view) = view();
        let avail = ds.avails()[0].clone();
        let rcc = Rcc {
            id: RccId(9_100_000),
            avail: avail.id,
            rcc_type: RccType::NewWork,
            swlin: "511-22-333".parse().unwrap(),
            created: avail.actual_start + 1,
            settled: avail.actual_start + 10,
            amount: 900.0,
        };
        let row = view
            .apply_delta(&RccDelta::Insert { rcc, avail: avail.clone() })
            .expect("insert always applies");
        let start = view.arena().start(row);
        let old_end = view.arena().end(row);
        let probe = (start + old_end) / 2.0;
        assert!(scratch_rows(&view, &active_q(probe)).contains(&row));
        // Push the settlement far out: the row must become active at the
        // old end and stop being settled there.
        view.apply_delta(&RccDelta::Settle {
            row,
            settled: avail.actual_start + 400,
            avail: avail.clone(),
        })
        .expect("live row settles");
        assert!(view.arena().end(row) > old_end);
        assert!(scratch_rows(&view, &active_q(old_end)).contains(&row));
        assert_matches_scratch(&view);
    }

    #[test]
    fn remove_orphans_row_everywhere() {
        let (_, mut view) = view();
        let row = 5;
        assert!(view.is_live(row));
        let t = view.arena().start(row);
        view.apply_delta(&RccDelta::Remove { row }).expect("live row removes");
        assert!(!view.is_live(row));
        assert!(!view.live_rows().contains(&row));
        assert!(!scratch_rows(&view, &created_q(t + 1.0)).contains(&row));
        // Idempotence: a second removal is refused, not corrupting.
        assert_eq!(view.apply_delta(&RccDelta::Remove { row }), None);
        assert_matches_scratch(&view);
    }

    #[test]
    fn malformed_deltas_leave_view_untouched() {
        let (ds, mut view) = view();
        let before = view.clone();
        let avail = ds.avails()[0].clone();
        let out_of_bounds = view.arena().len() as RowId + 7;
        assert_eq!(view.apply_delta(&RccDelta::Remove { row: out_of_bounds }), None);
        assert_eq!(
            view.apply_delta(&RccDelta::Settle {
                row: out_of_bounds,
                settled: avail.actual_start + 5,
                avail: avail.clone(),
            }),
            None
        );
        // Mismatched avail on a live row is refused too.
        let row = 0;
        let wrong = ds.avails().iter().find(|a| a.id != view.arena().avail(row)).unwrap().clone();
        assert_eq!(
            view.apply_delta(&RccDelta::Settle { row, settled: wrong.actual_start + 5, avail: wrong }),
            None
        );
        assert_eq!(unshared(&view, &before), 0, "refused deltas must not copy a piece");
        assert_matches_scratch(&view);
    }

    fn active_q(t: f64) -> StatusQuery {
        StatusQuery { rcc_type: None, swlin_prefix: None, status: RccStatus::Active, t_star: t }
    }

    fn created_q(t: f64) -> StatusQuery {
        StatusQuery { rcc_type: None, swlin_prefix: None, status: RccStatus::Created, t_star: t }
    }

    /// Storage pieces (arena column chunks, group-tree runs, per-type
    /// order runs) of `child` that no longer share memory with `parent`'s.
    fn unshared(child: &StatusView, parent: &StatusView) -> usize {
        child.arena.unshared_chunks(&parent.arena)
            + child.type_tree.unshared_runs(&parent.type_tree)
            + child.swlin_tree.unshared_runs(&parent.swlin_tree)
            + unshared_order_runs(child, parent)
    }

    /// Per-type order runs of `child` not shared with `parent`'s.
    fn unshared_order_runs(child: &StatusView, parent: &StatusView) -> usize {
        child.runs.iter().zip(&parent.runs).map(|(c, p)| c.unshared_runs(p)).sum()
    }

    /// A bulk-built view packs its order runs full, so a one-row insert
    /// that lands mid-order copies its run in each order and splits it:
    /// two fresh runs per order, and no other type's runs. A removal
    /// copies one run per order.
    #[test]
    fn one_row_delta_copies_one_run_per_order_plus_a_split() {
        let config = GeneratorConfig { n_avails: 40, target_rccs: 20_000, scale: 1, seed: 29 };
        let ds = generate(&config);
        let parent = view_of(&ds);
        let avail = ds.avails()[7].clone();
        let rcc = Rcc {
            id: RccId(9_300_000),
            avail: avail.id,
            rcc_type: RccType::Growth,
            swlin: "434-55-210".parse().unwrap(),
            created: avail.actual_start + 20,
            settled: avail.actual_start + 60,
            amount: 75.25,
        };
        let mut child = parent.clone();
        child.apply_delta(&RccDelta::Insert { rcc, avail }).expect("insert applies");
        let g = RccType::Growth.index();
        assert_eq!(child.runs[g].unshared_runs(&parent.runs[g]), 4, "a split run per order");
        assert_eq!(unshared_order_runs(&child, &parent), 4, "other types are untouched");

        let row = (0..parent.arena().len() as RowId)
            .find(|&r| parent.arena().rcc_type(r) == RccType::NewWork)
            .expect("a NewWork row");
        let mut child = parent.clone();
        child.apply_delta(&RccDelta::Remove { row }).expect("live row removes");
        assert_eq!(unshared_order_runs(&child, &parent), 2, "one run per order");
    }

    /// Builds a view over about `target_rccs` generated rows, clones it as
    /// `domd serve` does per epoch, applies an insert, a settle and a
    /// removal to the clone, checks both views, and returns how many
    /// storage pieces the clone had to copy.
    fn epoch_copy(target_rccs: usize) -> usize {
        let ds = generate(&GeneratorConfig { n_avails: 40, target_rccs, scale: 1, seed: 29 });
        let parent = view_of(&ds);
        let probes = probe_queries();
        let before: Vec<_> = probes.iter().map(|q| parent.aggregate(q)).collect();

        let n = parent.arena().len() as RowId;
        let (settle_row, remove_row) = (n / 2, n / 3);
        let settle_avail = ds.avail(parent.arena().avail(settle_row)).expect("row avail").clone();
        let avail = ds.avails()[3].clone();
        let rcc = Rcc {
            id: RccId(9_200_000),
            avail: avail.id,
            rcc_type: RccType::NewGrowth,
            swlin: "434-55-210".parse().unwrap(),
            created: avail.actual_start + 3,
            settled: avail.actual_start + 90,
            amount: 4321.5,
        };
        let batch = [
            RccDelta::Insert { rcc, avail },
            RccDelta::Settle {
                row: settle_row,
                settled: settle_avail.actual_start + 500,
                avail: settle_avail,
            },
            RccDelta::Remove { row: remove_row },
        ];
        let mut child = parent.clone();
        assert_eq!(child.apply_deltas(&batch), vec![n, settle_row, remove_row]);

        for (q, want) in probes.iter().zip(&before) {
            let got = parent.aggregate(q);
            assert_eq!(got.count, want.count, "parent count moved on {q:?}");
            assert_eq!(got.sum_amount.to_bits(), want.sum_amount.to_bits(), "parent amount {q:?}");
            let (got_d, want_d) = (got.sum_duration.to_bits(), want.sum_duration.to_bits());
            assert_eq!(got_d, want_d, "parent duration {q:?}");
        }
        assert_matches_scratch(&child);
        unshared(&child, &parent)
    }

    #[test]
    fn epoch_clone_copies_a_size_independent_number_of_pieces() {
        // The batch's writes: 9 arena tail chunks for the insert plus the
        // settled row's 2; one run per group-tree write plus a split; and
        // one order run per order for each row the batch touches, plus the
        // splits of full runs. Measured 25 and 25. At 20k rows the view
        // holds 421 pieces, at 80k 1,653.
        const BOUND: usize = 30;
        let (small, large) = (epoch_copy(20_000), epoch_copy(80_000));
        assert!(small <= BOUND, "{small} pieces copied at 20k rows");
        assert!(large <= BOUND, "{large} pieces copied at 80k rows");
    }
}
