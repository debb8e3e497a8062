//! Algorithm StatusQ (Section 4.2): Status Query processing over the
//! group-by trees and a pluggable logical-time index.
//!
//! A Status Query (Figure 3) retrieves, for a logical timestamp `t*`, the
//! RCC rows of a given *status* (active / settled / created / not-created)
//! restricted to the subtree of the group-by hierarchies named in its
//! `GROUP BY` clause — an RCC type and/or a SWLIN prefix — and aggregates
//! their settled amounts and durations.
//!
//! The module has one type per use:
//!
//! * [`StatusView`] holds what `domd serve` reads and writes: the shared
//!   columnar [`RccArena`] and the two group-by trees. It answers
//!   [`StatusView::aggregate`] and absorbs the typed delta stream
//!   ([`crate::delta`]). It holds no logical-time index.
//! * [`StatusQueryEngine`] is the paper's index plan: a view plus a
//!   logical-time index `I` built once over the view's live rows. Step 1
//!   takes the group rows from the group-by trees, Step 2 takes the
//!   fleet-wide status set from the index, and [`StatusQueryEngine::execute`]
//!   returns their intersection as row ids. Folding those ids is the
//!   reference the view's aggregates are tested against; `repro fig5` and
//!   Table 6 time the logical-time indexes themselves.
//!
//! [`StatusView::aggregate`] evaluates Step 2 on the group rows
//! themselves: it visits them in ascending row-id order, reads each row's
//! logical `start`/`end` from the arena, and folds the matches as it goes.
//! Its cost follows the group, not the fleet, and it builds no id vector
//! for an unfiltered or type-only query on a view without removed rows
//! (every `domd serve` epoch). It applies the index's own comparisons —
//! `start <= t*` (created), `end <= t*` (settled), both `start <= t*` and
//! `end > t*` (active), and `!(start <= t*)` (not-created) — so both plans
//! pick the same rows even at a NaN `t*` or for a row settled before its
//! start, and every sum adds the same values in the same order: the
//! aggregate equals folding `execute`'s ids to the bit.

use crate::arena::RccArena;
use crate::chunked::SortedRuns;
use crate::group_tree::{RccTypeTree, SwlinTree};
use crate::traits::LogicalTimeIndex;
use crate::types::{HeapSize, LogicalRcc, RowId};
use domd_data::dataset::Dataset;
use domd_data::rcc::{RccStatus, RccType};
use std::sync::Arc;

/// A parsed Status Query: group-by predicates + status + logical timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatusQuery {
    /// Restrict to one RCC type (`None` = all types).
    pub rcc_type: Option<RccType>,
    /// Restrict to a SWLIN hierarchy node `(prefix, depth)` (`None` = all).
    pub swlin_prefix: Option<(u32, u32)>,
    /// Which of the Equations 3–6 sets to retrieve.
    pub status: RccStatus,
    /// Logical timestamp `t*`.
    pub t_star: f64,
}

/// Aggregates of one Status Query result (the SELECT list of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatusAggregate {
    /// Matching row count.
    pub count: usize,
    /// Sum of settled amounts ($).
    pub sum_amount: f64,
    /// Sum of RCC durations (days).
    pub sum_duration: f64,
}

impl StatusAggregate {
    /// Mean settled amount, 0 when empty.
    pub fn avg_amount(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_amount / self.count as f64
        }
    }

    /// Mean duration, 0 when empty.
    pub fn avg_duration(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_duration / self.count as f64
        }
    }
}

/// Step-1 result of Algorithm StatusQ: the rows satisfying the group-by
/// predicates, ascending, without forcing an allocation on paths that
/// don't need one: the type-only arm borrows the type partition, and the
/// no-predicate arm names the view's whole row set without listing it.
#[derive(Debug)]
pub enum GroupRows<'a> {
    /// Every live row qualifies (no group-by predicates).
    All,
    /// A borrowed ascending partition (single type predicate).
    Borrowed(&'a SortedRuns<RowId>),
    /// A computed ascending id list (SWLIN subtree, alone or type-filtered).
    Owned(Vec<RowId>),
}

/// The serving half of Algorithm StatusQ: the shared columnar
/// [`RccArena`] and the two group-by trees, with no logical-time index.
///
/// Every part keeps its storage in [`crate::chunked`] pieces, so a clone —
/// one per `domd serve` ingest epoch — copies piece pointers, not rows,
/// and applying a batch copies only the pieces its writes land in.
#[derive(Debug, Clone)]
pub struct StatusView {
    pub(crate) type_tree: RccTypeTree,
    pub(crate) swlin_tree: SwlinTree,
    /// Columnar RCC storage; `Arc` so feature/bench layers can share it
    /// without cloning columns. Deltas copy-on-write via
    /// [`Arc::make_mut`], which clones chunk pointers, not rows.
    pub(crate) arena: Arc<RccArena>,
}

impl StatusView {
    /// Builds the view over every row of an existing arena (shared, not
    /// copied).
    pub fn from_arena(arena: Arc<RccArena>) -> Self {
        let type_tree = RccTypeTree::build(arena.type_rows());
        let swlin_tree = SwlinTree::build(arena.swlin_rows());
        StatusView { type_tree, swlin_tree, arena }
    }

    /// Builds the view over the subset `live` (ascending row ids) of an
    /// existing arena. This is the from-scratch reference for delta
    /// maintenance (see [`crate::delta`]): removed rows stay in the arena
    /// as orphans, so a recompute must group only the surviving rows — over
    /// the *same* arena, in the same ascending-id visit order, so that every
    /// `f64` aggregation is bit-identical to the maintained view's.
    pub fn from_arena_rows(arena: Arc<RccArena>, live: &[RowId]) -> Self {
        debug_assert!(live.windows(2).all(|w| w[0] < w[1]), "live rows must ascend");
        let type_tree = RccTypeTree::build(live.iter().map(|&r| (arena.rcc_type(r), r)));
        let swlin_tree = SwlinTree::build(live.iter().map(|&r| (arena.swlin(r), r)));
        StatusView { type_tree, swlin_tree, arena }
    }

    /// The shared columnar RCC storage.
    pub fn arena(&self) -> &Arc<RccArena> {
        &self.arena
    }

    /// Step 1 of Algorithm StatusQ: `R^M`, the rows satisfying the group-by
    /// predicates. A type + SWLIN group keeps the SWLIN subtree's rows of
    /// that type, so it costs the subtree, not the type partition.
    pub fn group_rows(&self, q: &StatusQuery) -> GroupRows<'_> {
        match (q.rcc_type, q.swlin_prefix) {
            (None, None) => GroupRows::All,
            (Some(t), None) => GroupRows::Borrowed(self.type_tree.ids_of(t)),
            (None, Some((p, l))) => GroupRows::Owned(self.swlin_tree.ids_for_prefix(p, l)),
            (Some(t), Some((p, l))) => {
                let mut ids = self.swlin_tree.ids_for_prefix(p, l);
                ids.retain(|&id| self.arena.rcc_type(id) == t);
                GroupRows::Owned(ids)
            }
        }
    }

    /// Every live row id, ascending: the union of the three type-tree
    /// partitions (disjoint by construction). Delta removal deletes from
    /// the group trees, so this — not `0..arena.len()` — is the row
    /// universe status complements and from-scratch rebuilds must use.
    pub fn live_rows(&self) -> Vec<RowId> {
        let ids = |t| self.type_tree.ids_of(t).iter().collect::<Vec<RowId>>();
        let merged =
            crate::traits::merge_disjoint_sorted(&ids(RccType::Growth), &ids(RccType::NewWork));
        crate::traits::merge_disjoint_sorted(&merged, &ids(RccType::NewGrowth))
    }

    /// The aggregates of `q`'s rows, bit-identical to folding
    /// [`StatusQueryEngine::execute`]'s ids in order, in time proportional
    /// to the group: Step 2's status predicate is tested on each group
    /// row's arena `start`/`end` instead of taken from an index (see the
    /// module doc).
    pub fn aggregate(&self, q: &StatusQuery) -> StatusAggregate {
        let t = q.t_star;
        let created = |start: f64| start <= t;
        match q.status {
            RccStatus::Active => self.fold_group(q, |start, end| created(start) && end > t),
            RccStatus::Settled => self.fold_group(q, |_, end| end <= t),
            RccStatus::Created => self.fold_group(q, |start, _| created(start)),
            RccStatus::NotCreated => self.fold_group(q, |start, _| !created(start)),
        }
    }

    /// Folds the group rows of `q` whose logical `(start, end)` satisfy
    /// `hit`, in ascending row-id order.
    fn fold_group(&self, q: &StatusQuery, hit: impl Fn(f64, f64) -> bool) -> StatusAggregate {
        let arena = &*self.arena;
        let mut agg = StatusAggregate::default();
        let mut add = |id: RowId| {
            agg.count += 1;
            agg.sum_amount += arena.amount(id);
            agg.sum_duration += arena.duration(id);
        };
        let probe = |id: RowId| {
            if hit(arena.start(id), arena.end(id)) {
                add(id);
            }
        };
        match self.group_rows(q) {
            // The type tree holds one entry per live row, all below
            // `arena.len()`: equal counts mean every arena row is live, so
            // the two logical columns stream without listing the rows.
            GroupRows::All if self.type_tree.len() == arena.len() => {
                for (first, starts, ends) in arena.logical_chunks() {
                    for (id, (&start, &end)) in (first..).zip(starts.iter().zip(ends)) {
                        if hit(start, end) {
                            add(id);
                        }
                    }
                }
            }
            GroupRows::All => self.live_rows().into_iter().for_each(probe),
            GroupRows::Borrowed(ids) => ids.iter().for_each(probe),
            GroupRows::Owned(ids) => ids.into_iter().for_each(probe),
        }
        agg
    }

    /// Batched [`Self::aggregate`] on the shared worker pool, results in
    /// input order.
    pub fn aggregate_batch(&self, queries: &[StatusQuery], threads: usize) -> Vec<StatusAggregate> {
        domd_runtime::par_map(threads, queries, |_, q| self.aggregate(q))
    }

    /// SWLIN hierarchy children of `(prefix, len)` present in the data —
    /// used by harnesses that enumerate group-by nodes.
    pub fn swlin_children(&self, prefix: u32, len: u32) -> Vec<u32> {
        self.swlin_tree.child_prefixes(prefix, len)
    }
}

impl HeapSize for StatusView {
    fn heap_bytes(&self) -> usize {
        self.type_tree.heap_bytes() + self.swlin_tree.heap_bytes() + self.arena.heap_bytes()
    }
}

/// The paper's index plan: a [`StatusView`] plus a logical-time index `I`
/// built once over the view's live rows. It is built, queried and
/// dropped; nothing maintains it (`domd serve` holds only the view).
#[derive(Debug, Clone)]
pub struct StatusQueryEngine<I> {
    view: StatusView,
    index: I,
}

impl<I: LogicalTimeIndex> StatusQueryEngine<I> {
    /// Builds the engine for `dataset` using its logical projection
    /// (`projected[i]` must describe `dataset.rccs()[i]`).
    pub fn build(dataset: &Dataset, projected: &[LogicalRcc]) -> Self {
        let arena = Arc::new(RccArena::from_projected(dataset, projected));
        Self::from_arena(arena)
    }

    /// Builds the engine over every row of an existing arena (shared, not
    /// copied).
    pub fn from_arena(arena: Arc<RccArena>) -> Self {
        let index = I::build(&arena.projected());
        StatusQueryEngine { view: StatusView::from_arena(arena), index }
    }

    /// Builds the engine over the subset `live` (ascending row ids) of an
    /// existing arena: [`StatusView::from_arena_rows`] plus an index over
    /// the same rows. Folding its [`Self::execute`] is the from-scratch
    /// reference a maintained view's aggregates are checked against.
    pub fn from_arena_rows(arena: Arc<RccArena>, live: &[RowId]) -> Self {
        let projected: Vec<LogicalRcc> = live.iter().map(|&r| arena.logical(r)).collect();
        let index = I::build(&projected);
        StatusQueryEngine { view: StatusView::from_arena_rows(arena, live), index }
    }

    /// The underlying logical-time index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The arena and group-by trees the index plan intersects with.
    pub fn view(&self) -> &StatusView {
        &self.view
    }

    /// Step 2: rows of the requested status at `t*` from the logical index.
    fn status_rows(&self, q: &StatusQuery) -> Vec<RowId> {
        match q.status {
            RccStatus::Active => self.index.active_at(q.t_star),
            RccStatus::Settled => self.index.settled_by(q.t_star),
            RccStatus::Created => self.index.created_by(q.t_star),
            // The index's `not_created_by` complements over a dense
            // `0..len` universe, which breaks when the engine covers a
            // subset of its arena's rows (`from_arena_rows` over a view
            // with removals); complement against the live rows the group
            // trees hold instead. Over every row the two are identical.
            RccStatus::NotCreated => {
                difference_sorted(&self.view.live_rows(), &self.index.created_by(q.t_star))
            }
        }
    }

    /// Full Algorithm StatusQ: ascending row ids answering the query.
    pub fn execute(&self, q: &StatusQuery) -> Vec<RowId> {
        let status = self.status_rows(q);
        match self.view.group_rows(q) {
            // Status rows are already a subset of all rows.
            GroupRows::All => status,
            GroupRows::Borrowed(s) => intersect_runs(s, &status),
            GroupRows::Owned(v) => intersect_sorted(&v, &status),
        }
    }

    /// The aggregates of `q`'s rows: [`StatusView::aggregate`] on this
    /// engine's view, bit-identical to folding [`Self::execute`].
    pub fn aggregate(&self, q: &StatusQuery) -> StatusAggregate {
        self.view.aggregate(q)
    }
}

impl<I: LogicalTimeIndex + Sync> StatusQueryEngine<I> {
    /// Executes a batch of Status Queries on the shared worker pool,
    /// returning one result per query in input order. Queries are
    /// read-only and independent, so the batch output is identical to
    /// mapping [`StatusQueryEngine::execute`] sequentially.
    pub fn execute_batch(&self, queries: &[StatusQuery], threads: usize) -> Vec<Vec<RowId>> {
        domd_runtime::par_map(threads, queries, |_, q| self.execute(q))
    }
}

impl<I: HeapSize> HeapSize for StatusQueryEngine<I> {
    fn heap_bytes(&self) -> usize {
        self.index.heap_bytes() + self.view.heap_bytes()
    }
}

/// Ascending `a \ b` for sorted id lists.
fn difference_sorted(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len().saturating_sub(b.len()));
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

/// Intersection of two ascending id lists.
pub fn intersect_sorted(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_into(&mut out, a, b, &mut 0);
    out
}

/// Intersection of an ascending partition with an ascending id list, one
/// run at a time.
fn intersect_runs(a: &SortedRuns<RowId>, b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let mut j = 0;
    for run in a.runs() {
        intersect_into(&mut out, run, b, &mut j);
    }
    out
}

/// Appends `a ∩ b[*j..]` to `out`, leaving `*j` at the first `b` entry not
/// below `a`'s last value, so the next ascending `a` can continue from it.
fn intersect_into(out: &mut Vec<RowId>, a: &[RowId], b: &[RowId], j: &mut usize) {
    let mut i = 0;
    while i < a.len() && *j < b.len() {
        match a[i].cmp(&b[*j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => *j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                *j += 1;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::flat_avl::FlatAvlIndex;
    use crate::naive::NaiveJoinIndex;
    use crate::types::project_dataset;
    use domd_data::{generate, GeneratorConfig};

    fn engine<I: LogicalTimeIndex>() -> (Dataset, StatusQueryEngine<I>) {
        let ds = generate(&GeneratorConfig { n_avails: 20, target_rccs: 2000, scale: 1, seed: 11 });
        let proj = project_dataset(&ds);
        let eng = StatusQueryEngine::<I>::build(&ds, &proj);
        (ds, eng)
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 9], &[2, 3, 9, 10]), vec![3, 9]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<RowId>::new());
    }

    #[test]
    fn execute_matches_brute_force() {
        let (ds, eng) = engine::<FlatAvlIndex>();
        let proj = project_dataset(&ds);
        let queries = [
            StatusQuery { rcc_type: Some(RccType::Growth), swlin_prefix: None, status: RccStatus::Active, t_star: 50.0 },
            StatusQuery { rcc_type: None, swlin_prefix: Some((4, 1)), status: RccStatus::Settled, t_star: 30.0 },
            StatusQuery { rcc_type: Some(RccType::NewGrowth), swlin_prefix: Some((9, 1)), status: RccStatus::Created, t_star: 80.0 },
            StatusQuery { rcc_type: None, swlin_prefix: None, status: RccStatus::NotCreated, t_star: 10.0 },
        ];
        for q in queries {
            let got = eng.execute(&q);
            let mut want: Vec<RowId> = ds
                .rccs()
                .iter()
                .enumerate()
                .filter(|(i, r)| {
                    let type_ok = q.rcc_type.is_none_or(|t| r.rcc_type == t);
                    let swlin_ok =
                        q.swlin_prefix.is_none_or(|(p, l)| r.swlin.has_prefix(p, l));
                    let lr = proj[*i];
                    let status = lr.status_at(q.t_star);
                    let status_ok = match q.status {
                        RccStatus::Created => {
                            status == RccStatus::Active || status == RccStatus::Settled
                        }
                        s => status == s,
                    };
                    type_ok && swlin_ok && status_ok
                })
                .map(|(i, _)| i as RowId)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn all_backends_agree() {
        let (ds, avl) = engine::<FlatAvlIndex>();
        let proj = project_dataset(&ds);
        let naive = StatusQueryEngine::<NaiveJoinIndex>::build(&ds, &proj);
        let itree = StatusQueryEngine::<crate::interval_tree::IntervalTreeIndex>::build(&ds, &proj);
        for t in [0.0, 25.0, 50.0, 75.0, 100.0] {
            for status in RccStatus::FEATURE_STATUSES {
                let q = StatusQuery { rcc_type: Some(RccType::Growth), swlin_prefix: Some((4, 1)), status, t_star: t };
                let a = avl.execute(&q);
                assert_eq!(a, naive.execute(&q), "naive disagrees at t={t}");
                assert_eq!(a, itree.execute(&q), "interval tree disagrees at t={t}");
            }
        }
    }

    /// The aggregate of `ids` folded in the given (ascending) order.
    pub(crate) fn fold_ids(arena: &RccArena, ids: &[RowId]) -> StatusAggregate {
        let mut agg = StatusAggregate::default();
        for &id in ids {
            agg.count += 1;
            agg.sum_amount += arena.amount(id);
            agg.sum_duration += arena.duration(id);
        }
        agg
    }

    pub(crate) fn assert_same_bits(got: &StatusAggregate, want: &StatusAggregate, ctx: &str) {
        assert_eq!(got.count, want.count, "count: {ctx}");
        assert_eq!(got.sum_amount.to_bits(), want.sum_amount.to_bits(), "amount: {ctx}");
        assert_eq!(got.sum_duration.to_bits(), want.sum_duration.to_bits(), "duration: {ctx}");
    }

    #[test]
    fn aggregate_sums_match_manual() {
        let (_, eng) = engine::<FlatAvlIndex>();
        let q = StatusQuery { rcc_type: Some(RccType::NewWork), swlin_prefix: None, status: RccStatus::Created, t_star: 60.0 };
        let agg = eng.aggregate(&q);
        assert_same_bits(&agg, &fold_ids(eng.view().arena(), &eng.execute(&q)), "NW created at 60");
        assert!(agg.count > 0);
        assert!(agg.avg_amount() > 0.0);
        assert!(agg.avg_duration() > 0.0);
    }

    const STATUSES: [RccStatus; 4] =
        [RccStatus::NotCreated, RccStatus::Active, RccStatus::Settled, RccStatus::Created];

    /// Every query shape the aggregate plan has an arm for: all four
    /// statuses; no group, each type, SWLIN nodes at depths 1–8 (plus an
    /// absent node) alone and with a type; `t*` at both infinities, NaN,
    /// a 0–110 grid, and the exact `start`/`end` of sampled rows.
    fn probe_queries(arena: &RccArena) -> Vec<StatusQuery> {
        let mut t_stars = vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN];
        t_stars.extend((0..=22).map(|i| f64::from(i) * 5.0));
        for row in (0..arena.len() as RowId).step_by(97) {
            t_stars.extend([arena.start(row), arena.end(row)]);
        }
        let code = arena.swlin(arena.len() as RowId / 2).packed();
        let mut groups = vec![(None, None), (None, Some((0, 1)))];
        for t in RccType::ALL {
            groups.push((Some(t), None));
        }
        for depth in 1..=8 {
            let node = Some((code / 10u32.pow(8 - depth), depth));
            groups.push((None, node));
            groups.push((Some(RccType::ALL[depth as usize % 3]), node));
        }
        let mut out = Vec::new();
        for &t_star in &t_stars {
            for &(rcc_type, swlin_prefix) in &groups {
                for status in STATUSES {
                    out.push(StatusQuery { rcc_type, swlin_prefix, status, t_star });
                }
            }
        }
        out
    }

    /// The view's `aggregate` of every query against two index plans built
    /// from scratch over its arena and live rows: the folds of the flat-AVL
    /// engine's `execute` and of the naive-join engine's.
    pub(crate) fn assert_matches_index_plans(
        view: &StatusView,
        queries: &[StatusQuery],
        label: &str,
    ) {
        let live = view.live_rows();
        let arena = view.arena();
        let avl = StatusQueryEngine::<FlatAvlIndex>::from_arena_rows(Arc::clone(arena), &live);
        let naive = StatusQueryEngine::<NaiveJoinIndex>::from_arena_rows(Arc::clone(arena), &live);
        for q in queries {
            let got = view.aggregate(q);
            let ctx = format!("{label}: {q:?}");
            assert_same_bits(&got, &fold_ids(arena, &avl.execute(q)), &ctx);
            assert_same_bits(&got, &fold_ids(arena, &naive.execute(q)), &ctx);
        }
    }

    fn assert_aggregate_is_exact(view: &StatusView, label: &str) {
        assert_matches_index_plans(view, &probe_queries(view.arena()), label);
    }

    #[test]
    fn aggregate_is_bit_identical_to_the_index_plan_on_every_engine_shape() {
        use crate::delta::RccDelta;
        use domd_data::rcc::RccId;
        let ds = generate(&GeneratorConfig { n_avails: 20, target_rccs: 2000, scale: 1, seed: 11 });
        let bulk = StatusView::from_arena(Arc::new(RccArena::from_dataset(&ds)));
        assert_aggregate_is_exact(&bulk, "bulk-built");

        // Single-row inserts append to the arena and both group trees.
        let mut grown = bulk.clone();
        for i in 0..200u32 {
            let mut rcc = ds.rccs()[(i * 7) as usize].clone();
            rcc.id = RccId(8_000_000 + i);
            let avail = ds.avail(rcc.avail).expect("avail exists").clone();
            grown.apply_delta(&RccDelta::Insert { rcc, avail });
        }
        assert_aggregate_is_exact(&grown, "200 single-row inserts");

        // Built empty and filled row by row: group trees grown by
        // inserts alone, with no bulk-built run under them.
        let empty = Dataset::new(ds.avails().to_vec(), Vec::new());
        let mut replayed = StatusView::from_arena(Arc::new(RccArena::from_dataset(&empty)));
        for r in ds.rccs() {
            let avail = ds.avail(r.avail).expect("avail exists").clone();
            replayed.apply_delta(&RccDelta::Insert { rcc: r.clone(), avail });
        }
        assert_aggregate_is_exact(&replayed, "rebuilt delta by delta");

        // Settles, half of them before their row's start (`end < start`),
        // and removals, which leave orphaned arena rows.
        let mut maintained = bulk.clone();
        for i in 0..60u32 {
            let row = i * 31;
            let avail = ds.avail(maintained.arena().avail(row)).expect("avail exists").clone();
            let delta = match i % 3 {
                0 => RccDelta::Remove { row },
                1 => RccDelta::Settle { row, settled: maintained.arena().settled(row) + 9, avail },
                _ => RccDelta::Settle { row, settled: maintained.arena().created(row) + -3, avail },
            };
            assert_eq!(maintained.apply_delta(&delta), Some(row), "{delta:?}");
        }
        assert!(maintained.live_rows().len() < maintained.arena().len(), "orphans exist");
        assert_aggregate_is_exact(&maintained, "after settles and removals");

        // A from-scratch view over a subset of the arena's rows.
        let subset: Vec<RowId> = (0..bulk.arena().len() as RowId).filter(|r| r % 5 != 2).collect();
        let partial = StatusView::from_arena_rows(Arc::clone(bulk.arena()), &subset);
        assert_aggregate_is_exact(&partial, "from_arena_rows subset");
    }

    #[test]
    fn batch_execution_matches_sequential_for_every_thread_count() {
        let (_, eng) = engine::<FlatAvlIndex>();
        let mut queries = Vec::new();
        for t in 0..40u32 {
            for status in RccStatus::FEATURE_STATUSES {
                queries.push(StatusQuery {
                    rcc_type: if t % 3 == 0 { Some(RccType::Growth) } else { None },
                    swlin_prefix: if t % 2 == 0 { Some((4 + t % 5, 1)) } else { None },
                    status,
                    t_star: f64::from(t) * 2.5,
                });
            }
        }
        let seq_rows: Vec<Vec<RowId>> = queries.iter().map(|q| eng.execute(q)).collect();
        let seq_aggs: Vec<StatusAggregate> = queries.iter().map(|q| eng.aggregate(q)).collect();
        for threads in [1, 2, 3, 7] {
            assert_eq!(eng.execute_batch(&queries, threads), seq_rows, "threads={threads}");
            let aggs = eng.view().aggregate_batch(&queries, threads);
            assert_eq!(aggs, seq_aggs, "threads={threads}");
        }
    }

    #[test]
    fn group_rows_avoids_allocation_on_hot_arms() {
        let (ds, eng) = engine::<FlatAvlIndex>();
        let base = StatusQuery {
            rcc_type: None,
            swlin_prefix: None,
            status: RccStatus::Created,
            t_star: 50.0,
        };
        let view = eng.view();
        assert!(matches!(view.group_rows(&base), GroupRows::All));
        let by_type = StatusQuery { rcc_type: Some(RccType::Growth), ..base };
        match view.group_rows(&by_type) {
            GroupRows::Borrowed(s) => {
                // Borrowed straight from the type tree, not a copy.
                let want: Vec<RowId> = ds
                    .rccs()
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.rcc_type == RccType::Growth)
                    .map(|(i, _)| i as RowId)
                    .collect();
                assert_eq!(s.iter().collect::<Vec<_>>(), want);
            }
            other => panic!("type-only arm must borrow, got {other:?}"),
        }
        assert!(matches!(
            view.group_rows(&StatusQuery { swlin_prefix: Some((4, 1)), ..base }),
            GroupRows::Owned(_)
        ));
    }

    #[test]
    fn dynamic_insert_updates_queries() {
        use crate::delta::RccDelta;
        use domd_data::rcc::{Rcc, RccId};
        let (ds, eng) = engine::<FlatAvlIndex>();
        let mut view = eng.view().clone();
        let avail = ds.avails()[0].clone();
        let rcc = Rcc {
            id: RccId(9_000_001),
            avail: avail.id,
            rcc_type: RccType::Growth,
            swlin: "434-11-001".parse().unwrap(),
            created: avail.actual_start + 1,
            settled: avail.actual_start + 40,
            amount: 1234.5,
        };
        let n_before = view.arena().len();
        let q = StatusQuery {
            rcc_type: Some(RccType::Growth),
            swlin_prefix: Some((434, 3)),
            status: RccStatus::Created,
            t_star: 1e6, // far past every logical settlement
        };
        let before = view.aggregate(&q);
        let row = view.apply_delta(&RccDelta::Insert { rcc, avail }).expect("insert applies");
        assert_eq!(row as usize, n_before);
        let live = view.live_rows();
        let scratch = StatusQueryEngine::<FlatAvlIndex>::from_arena_rows(Arc::clone(view.arena()), &live);
        assert!(scratch.execute(&q).contains(&row), "inserted row must answer matching queries");
        let after = view.aggregate(&q);
        assert_eq!(after.count, before.count + 1);
        assert!((after.sum_amount - before.sum_amount - 1234.5).abs() < 1e-9);
        assert_eq!(eng.aggregate(&q), before, "the engine's own view is untouched");
    }

    #[test]
    fn empty_group_aggregates_to_zero() {
        let (_, eng) = engine::<FlatAvlIndex>();
        // SWLIN first digit 0 never occurs in generated data.
        let q = StatusQuery { rcc_type: None, swlin_prefix: Some((0, 1)), status: RccStatus::Created, t_star: 100.0 };
        let agg = eng.aggregate(&q);
        assert_eq!(agg.count, 0);
        assert_eq!(agg.avg_amount(), 0.0);
        assert_eq!(agg.avg_duration(), 0.0);
    }
}
