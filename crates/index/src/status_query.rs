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
//!   columnar [`RccArena`], the two group-by trees and the per-type run
//!   directories ([`crate::status_runs`]). It answers
//!   [`StatusView::aggregate`] and absorbs the typed delta stream
//!   ([`crate::delta`]). It holds no logical-time index.
//! * [`StatusQueryEngine`] is the paper's index plan: a view plus a
//!   logical-time index `I` built once over the view's live rows. Step 1
//!   takes the group rows from the group-by trees, Step 2 takes the
//!   fleet-wide status set from the index, and [`StatusQueryEngine::execute`]
//!   returns their intersection as row ids. Summing those ids is the
//!   reference the view's aggregates are tested against; `repro fig5` and
//!   Table 6 time the logical-time indexes themselves.
//!
//! [`StatusView::aggregate`] evaluates Step 2 without listing the status
//! set. The heavy groups — no GROUP BY, or an RCC type alone — add the
//! totals of whole runs of the type's rows in `start` and `end` order,
//! plus one partial run per order: `O(n / KEY_RUN + KEY_RUN)` per type
//! (see [`crate::status_runs`]). A SWLIN group, alone or with a type,
//! stays output-sensitive: it walks its code range of the SWLIN tree and
//! tests each row's arena `start`/`end`, `O(g)` for `g` rows, with no
//! collect and no sort. Both apply the index's own comparisons —
//! `start <= t*` (created), `end <= t*` (settled), both `start <= t*` and
//! `end > t*` (active), and `!(start <= t*)` (not-created) — so both
//! plans pick the same rows even at a NaN `t*` or for a row settled
//! before its start.
//!
//! Sums are exact. `sum_amount` is the correctly rounded sum of the
//! rows' amounts: every admitted amount
//! ([`domd_data::rcc::amount_admitted`]) is an integer on the `2^-62`
//! grid, the rows add up in an `i128`, and the total is rounded to `f64`
//! once. `sum_duration` is the integer day count, which an `f64` holds
//! exactly below `2^53`. No answer therefore depends on the order rows
//! are added in: run totals, the SWLIN walk, a sum over `execute`'s ids
//! and a restarted view that numbers its rows differently agree to the
//! bit.

use crate::arena::RccArena;
use crate::chunked::SortedRuns;
use crate::group_tree::{RccTypeTree, SwlinTree};
use crate::status_runs::{hits, Totals, TypeRuns};
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
    /// Sum of settled amounts ($): the exact sum rounded once to the
    /// nearest `f64` (ties to even), the same whatever order the rows
    /// are added in.
    pub sum_amount: f64,
    /// Sum of RCC durations (days), an exact integer below `2^53`.
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
/// [`RccArena`], the two group-by trees and the per-type run directories,
/// with no logical-time index.
///
/// Every part keeps its storage in `Arc`-shared pieces, so a clone — one
/// per `domd serve` ingest epoch — copies piece pointers, not rows, and
/// applying a batch copies only the pieces its writes land in.
#[derive(Debug, Clone)]
pub struct StatusView {
    pub(crate) type_tree: RccTypeTree,
    pub(crate) swlin_tree: SwlinTree,
    /// Each type's live rows in `start` and `end` order, with per-run
    /// totals, indexed by [`RccType::index`]. `Arc` per type, so a clone
    /// copies three pointers and a delta copies the run directories of
    /// its row's type only.
    pub(crate) runs: [Arc<TypeRuns>; 3],
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
        let runs = TypeRuns::build(&arena, 0..arena.len() as RowId).map(Arc::new);
        StatusView { type_tree, swlin_tree, runs, arena }
    }

    /// Builds the view over the subset `live` (ascending row ids) of an
    /// existing arena. This is the from-scratch reference for delta
    /// maintenance (see [`crate::delta`]): removed rows stay in the arena
    /// as orphans, so a recompute must group only the surviving rows, over
    /// the *same* arena so that its row ids are the maintained view's.
    pub fn from_arena_rows(arena: Arc<RccArena>, live: &[RowId]) -> Self {
        debug_assert!(live.windows(2).all(|w| w[0] < w[1]), "live rows must ascend");
        let type_tree = RccTypeTree::build(live.iter().map(|&r| (arena.rcc_type(r), r)));
        let swlin_tree = SwlinTree::build(live.iter().map(|&r| (arena.swlin(r), r)));
        let runs = TypeRuns::build(&arena, live.iter().copied()).map(Arc::new);
        StatusView { type_tree, swlin_tree, runs, arena }
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

    /// The aggregates of `q`'s rows, to the bit the exact sums of
    /// [`StatusQueryEngine::execute`]'s ids: run totals for the heavy
    /// groups (no group, or a type alone), a walk of the SWLIN code range
    /// for a SWLIN group (see the module doc).
    pub fn aggregate(&self, q: &StatusQuery) -> StatusAggregate {
        let arena = &*self.arena;
        let (status, t) = (q.status, q.t_star);
        let totals = match (q.rcc_type, q.swlin_prefix) {
            (None, None) => self.runs.iter().map(|runs| runs.totals(arena, status, t)).sum(),
            (Some(ty), None) => self.runs[ty.index()].totals(arena, status, t),
            (ty, Some((prefix, len))) => {
                let mut totals = Totals::default();
                for (_, row) in self.swlin_tree.range_for_prefix(prefix, len) {
                    if ty.is_none_or(|ty| arena.rcc_type(row) == ty)
                        && hits(status, t, arena.start(row), arena.end(row))
                    {
                        totals.add_row(arena, row);
                    }
                }
                totals
            }
        };
        totals.aggregate()
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
        let runs: usize = self.runs.iter().map(|runs| runs.heap_bytes()).sum();
        self.type_tree.heap_bytes() + self.swlin_tree.heap_bytes() + runs + self.arena.heap_bytes()
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
    /// the same rows. Summing its [`Self::execute`] is the from-scratch
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
    /// engine's view, to the bit the exact sums of [`Self::execute`].
    pub fn aggregate(&self, q: &StatusQuery) -> StatusAggregate {
        self.view.aggregate(q)
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

    /// The aggregate of `ids` by an independent reference: the count, the
    /// correctly rounded amount sum (`fsum`, not the view's fixed-point
    /// accumulator), and the durations folded in `ids` order, exact for
    /// integer day counts.
    pub(crate) fn exact_sum(arena: &RccArena, ids: &[RowId]) -> StatusAggregate {
        let sum_amount = crate::test_common::fsum(ids.iter().map(|&id| arena.amount(id)));
        let sum_duration = ids.iter().fold(0.0, |acc, &id| acc + arena.duration(id));
        StatusAggregate { count: ids.len(), sum_amount, sum_duration }
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
        let want = exact_sum(eng.view().arena(), &eng.execute(&q));
        assert_same_bits(&agg, &want, "NW created at 60");
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
        let mut t_stars = vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN, -0.0];
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

    /// The view's `aggregate` of every query against the exact sums of an
    /// index plan `I` built from scratch over its arena and live rows.
    fn assert_matches_plan<I: LogicalTimeIndex>(
        view: &StatusView,
        queries: &[StatusQuery],
        label: &str,
    ) {
        let live = view.live_rows();
        let arena = view.arena();
        let plan = StatusQueryEngine::<I>::from_arena_rows(Arc::clone(arena), &live);
        for q in queries {
            let ctx = format!("{label} ({}): {q:?}", plan.index().name());
            assert_same_bits(&view.aggregate(q), &exact_sum(arena, &plan.execute(q)), &ctx);
        }
    }

    /// [`assert_matches_plan`] against the flat-AVL engine and the
    /// naive-join engine.
    pub(crate) fn assert_matches_index_plans(
        view: &StatusView,
        queries: &[StatusQuery],
        label: &str,
    ) {
        assert_matches_plan::<FlatAvlIndex>(view, queries, label);
        assert_matches_plan::<NaiveJoinIndex>(view, queries, label);
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

    /// Each type's runs hold exactly its live rows with `start <= end`, in
    /// both orders, every directory entry matches its run, and the side
    /// list holds the type's other live rows.
    fn assert_runs_hold_the_live_rows(view: &StatusView, label: &str) {
        let arena = view.arena();
        for t in RccType::ALL {
            let live: Vec<RowId> = view.type_tree.ids_of(t).iter().collect();
            let (ordered, irregular): (Vec<RowId>, Vec<RowId>) =
                live.iter().partition(|&&r| arena.start(r) <= arena.end(r));
            let (mut by_start, mut by_end, side) = view.runs[t.index()].checked_rows(arena);
            by_start.sort_unstable();
            by_end.sort_unstable();
            assert_eq!(by_start, ordered, "{label}: {t:?} start order");
            assert_eq!(by_end, ordered, "{label}: {t:?} end order");
            assert_eq!(side, irregular, "{label}: {t:?} side list");
        }
    }

    /// Keys and amounts on every edge the run directories and the exact
    /// sums meet: `±0` and heavily tied keys (ties span runs), rows
    /// settled before their start and NaN endpoints (the side list), runs
    /// that fill and split, and amounts at both ends of the admitted
    /// window. Bulk-built, maintained through inserts, settles (some
    /// before their start) and removals, and rebuilt over a subset, the
    /// view answers every probe as the exact sums of the naive join's
    /// ids, and over its rows without a NaN key (which no range walk can
    /// place) as those of the flat AVL's too, `±0` keys included.
    #[test]
    fn aggregate_is_exact_at_the_edges_of_keys_and_amounts() {
        use crate::delta::RccDelta;
        use domd_data::rcc::{Rcc, RccId, AMOUNT_LIMIT};
        let step = 1.0 / (1u64 << 62) as f64;
        let amounts = [
            step,
            AMOUNT_LIMIT - 1.0 / 1_048_576.0,
            0.001,
            0.1,
            1.0 / 3.0,
            2f64.powi(-11) + step,
            12_345.678,
            7.0,
            0.0,
        ];
        assert!(amounts.iter().all(|&a| domd_data::rcc::amount_admitted(a)));
        let config = GeneratorConfig { n_avails: 8, target_rccs: 3000, scale: 1, seed: 17 };
        let base = generate(&config);
        let with_amount =
            |r: &Rcc, i: usize| Rcc { amount: amounts[i % amounts.len()], ..r.clone() };
        let rccs = base.rccs().iter().enumerate().map(|(i, r)| with_amount(r, i)).collect();
        let ds = Dataset::new(base.avails().to_vec(), rccs);
        let keys = [-0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 50.0, 100.0];
        let mut proj = project_dataset(&ds);
        for (i, lr) in proj.iter_mut().enumerate() {
            lr.start = keys[i % keys.len()];
            lr.end = lr.start.max(keys[(i / keys.len() + i) % keys.len()]);
            match i % 41 {
                0 => lr.end = f64::NAN,
                1 => lr.end = -5.0,
                2 => lr.start = f64::NAN,
                3 => (lr.start, lr.end) = (0.0, -0.0),
                _ => {}
            }
        }
        let bulk = StatusView::from_arena(Arc::new(RccArena::from_projected(&ds, &proj)));
        let queries = probe_queries(bulk.arena());
        assert_runs_hold_the_live_rows(&bulk, "bulk-built");
        assert_matches_plan::<NaiveJoinIndex>(&bulk, &queries, "edge keys, bulk-built");
        let without_nan_keys = |view: &StatusView| {
            let arena = view.arena();
            let rows: Vec<RowId> = view
                .live_rows()
                .into_iter()
                .filter(|&r| !arena.start(r).is_nan() && !arena.end(r).is_nan())
                .collect();
            StatusView::from_arena_rows(Arc::clone(arena), &rows)
        };
        let finite = without_nan_keys(&bulk);
        assert_matches_index_plans(&finite, &queries, "edge keys without NaN, bulk-built");

        let mut maintained = bulk.clone();
        let n = ds.rccs().len();
        for i in 0..300 {
            let mut rcc = with_amount(&ds.rccs()[i * 7 % n], i + 3);
            rcc.id = RccId(8_000_000 + i as u32);
            let avail = ds.avail(rcc.avail).expect("avail exists").clone();
            maintained.apply_delta(&RccDelta::Insert { rcc, avail });
        }
        assert_runs_hold_the_live_rows(&maintained, "after inserts");
        for i in 0..160 {
            let row = (i * 23 % n) as RowId;
            let avail = ds.avail(maintained.arena().avail(row)).expect("avail exists").clone();
            let created = maintained.arena().created(row);
            let settled = if i % 2 == 0 { created + -4 } else { created + 30 };
            maintained.apply_delta(&RccDelta::Settle { row, settled, avail });
        }
        for i in 0..90 {
            maintained.apply_delta(&RccDelta::Remove { row: ((i * 37 + 5) % n) as RowId });
        }
        assert_runs_hold_the_live_rows(&maintained, "after settles and removals");
        assert_matches_plan::<NaiveJoinIndex>(&maintained, &queries, "edge keys, maintained");
        let finite = without_nan_keys(&maintained);
        assert_matches_index_plans(&finite, &queries, "edge keys without NaN, maintained");

        let subset: Vec<RowId> =
            maintained.live_rows().into_iter().filter(|r| r % 3 != 1).collect();
        let partial = StatusView::from_arena_rows(Arc::clone(maintained.arena()), &subset);
        assert_runs_hold_the_live_rows(&partial, "subset");
        assert_matches_plan::<NaiveJoinIndex>(&partial, &queries, "edge keys, subset");
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
        let seq_aggs: Vec<StatusAggregate> = queries.iter().map(|q| eng.aggregate(q)).collect();
        for threads in [1, 2, 3, 7] {
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
