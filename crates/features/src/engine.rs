//! The feature generation engine: executes the transformation 𝒯 at every
//! logical-time grid point, producing the feature tensor.
//!
//! The engine rides the incremental Status Query machinery of
//! `domd-index`: per avail shard, one dual-AVL index ([`FlatAvlIndex`]) over
//! the logical projection of the shard's RCCs and one incremental sweep
//! over the grid, with groups = (avail × RCC type × SWLIN first digit)
//! cells. At each grid point the per-avail cells are rolled up across the
//! type and SWLIN hierarchies and the catalog's aggregations are applied —
//! so generating all slices costs one pass over the RCCs instead of
//! `steps × |RCC|` work.
//!
//! The online path serves one avail from its RCC partition, in two
//! forms over the same cells, rollup and spec evaluation:
//!
//! * [`FeatureEngine::project_for_avail`], the serving path, evaluates
//!   only the columns each reached step model reads, at every anchor of
//!   a request, from one read of the partition: each row's logical times,
//!   cell, amount and duration are computed once, an anchor's created
//!   rows are a prefix of the partition (it is in `(created, id)` order),
//!   so created cells carry from one anchor to the next, and settled and
//!   active cells are re-folded over that prefix per anchor;
//! * [`FeatureEngine::features_for_avail_at`] scans the partition afresh
//!   for one anchor and evaluates the whole catalog row: the reference
//!   every projection is checked against.
//!
//! Each cell sees the same additions in the same order on both paths, so
//! a projected value is the full row's column to the bit.

use crate::spec::{CatalogDepth, FeatureCatalog, FeatureSpec, StatusFilter, SwlinGroup, TypeFilter};
use crate::tensor::FeatureTensor;
use domd_data::avail::Avail;
use domd_data::dataset::Dataset;
use domd_data::rcc::RccType;
use domd_data::AvailId;
use domd_index::{
    project_dataset, sweep_incremental, Accum, FlatAvlIndex, LogicalTimeIndex, RowColumns,
    StatStructure,
};
use domd_ml::DenseMatrix;

/// The sweep's group space: how per-avail cells map RCCs by type and
/// SWLIN prefix, sized by the catalog depth.
#[derive(Debug, Clone, Copy)]
struct CellSpace {
    depth: CatalogDepth,
}

impl CellSpace {
    fn cells_per_avail(self) -> usize {
        match self.depth {
            // 3 types x 10 first digits.
            CatalogDepth::Subsystem => 30,
            // 3 types x 100 two-digit prefixes.
            CatalogDepth::Module => 300,
        }
    }

    /// Dense cell offset of one RCC within its avail's block.
    fn cell_of(self, type_idx: usize, swlin: domd_data::Swlin) -> usize {
        match self.depth {
            CatalogDepth::Subsystem => type_idx * 10 + swlin.digit(1) as usize,
            CatalogDepth::Module => {
                type_idx * 100 + swlin.digit(1) as usize * 10 + swlin.digit(2) as usize
            }
        }
    }
}

/// Rolled-up accumulator tables for one avail at one timestamp:
/// `lvl1[type 0..=3][digit 0..=10]` where type 0 = ALL and digit 10 = ALL;
/// `lvl2` (module depth only) holds the `[type 0..=3][d1][d2]` cells flat.
struct Rollup {
    active: [[Accum; 11]; 4],
    settled: [[Accum; 11]; 4],
    created: [[Accum; 11]; 4],
    /// `[status 0..3][(type * 10 + d1) * 10 + d2]`, present at Module depth.
    lvl2: Option<Vec<[Accum; 3]>>,
}

impl Rollup {
    fn from_cells(space: CellSpace, st: &StatStructure, base: usize) -> Self {
        let mut r = Rollup {
            active: [[Accum::default(); 11]; 4],
            settled: [[Accum::default(); 11]; 4],
            created: [[Accum::default(); 11]; 4],
            lvl2: match space.depth {
                CatalogDepth::Subsystem => None,
                CatalogDepth::Module => Some(vec![[Accum::default(); 3]; 400]),
            },
        };
        match space.depth {
            CatalogDepth::Subsystem => {
                for t in 0..3 {
                    for d in 0..10 {
                        let cell = base + t * 10 + d;
                        fill(&mut r.active, t, d, &st.active[cell]);
                        fill(&mut r.settled, t, d, &st.settled[cell]);
                        fill(&mut r.created, t, d, &st.created[cell]);
                    }
                }
            }
            CatalogDepth::Module => {
                // domd-lint: allow(no-panic) — the Module-depth constructor above always allocates lvl2
                let lvl2 = r.lvl2.as_mut().expect("just built");
                for t in 0..3 {
                    for d1 in 0..10 {
                        for d2 in 0..10 {
                            let cell = base + t * 100 + d1 * 10 + d2;
                            fill(&mut r.active, t, d1, &st.active[cell]);
                            fill(&mut r.settled, t, d1, &st.settled[cell]);
                            fill(&mut r.created, t, d1, &st.created[cell]);
                            for (status, table) in
                                [&st.active, &st.settled, &st.created].into_iter().enumerate()
                            {
                                // Per-type and ALL-type module cells.
                                lvl2[((t + 1) * 10 + d1) * 10 + d2][status].merge(&table[cell]);
                                lvl2[d1 * 10 + d2][status].merge(&table[cell]);
                            }
                        }
                    }
                }
            }
        }
        r
    }

    fn table(&self, status: StatusFilter) -> &[[Accum; 11]; 4] {
        match status {
            StatusFilter::Active => &self.active,
            StatusFilter::Settled => &self.settled,
            StatusFilter::Created => &self.created,
        }
    }

    fn cell(&self, status: StatusFilter, tf: TypeFilter, sg: SwlinGroup) -> &Accum {
        let t = type_slot(tf);
        match sg {
            SwlinGroup::All => &self.table(status)[t][10],
            SwlinGroup::FirstDigit(d) => &self.table(status)[t][d as usize],
            SwlinGroup::TwoDigit(a, b) => {
                let lvl2 = self
                    .lvl2
                    .as_ref()
                    // domd-lint: allow(no-panic) — documented contract: two-digit specs exist only in Module-depth catalogs
                    .expect("two-digit features require a Module-depth catalog");
                let sidx = match status {
                    StatusFilter::Active => 0,
                    StatusFilter::Settled => 1,
                    StatusFilter::Created => 2,
                };
                &lvl2[(t * 10 + a as usize) * 10 + b as usize][sidx]
            }
        }
    }
}

fn fill(table: &mut [[Accum; 11]; 4], t: usize, d: usize, acc: &Accum) {
    // Base cell (types are offset by one: slot 0 is ALL).
    table[t + 1][d].merge(acc);
    // Hierarchy rollups.
    table[0][d].merge(acc);
    table[t + 1][10].merge(acc);
    table[0][10].merge(acc);
}

fn type_slot(tf: TypeFilter) -> usize {
    match tf {
        TypeFilter::All => 0,
        TypeFilter::One(t) => t.index() + 1,
    }
}

/// Evaluates one catalog spec against a rollup at logical time `t_star`.
fn eval_spec(spec: &FeatureSpec, r: &Rollup, t_star: f64) -> f64 {
    match *spec {
        FeatureSpec::GroupAgg { type_filter, swlin, status, agg } => {
            agg.apply(r.cell(status, type_filter, swlin))
        }
        FeatureSpec::CreationRate { type_filter, swlin } => {
            let created = r.cell(StatusFilter::Created, type_filter, swlin).count;
            created / t_star.max(1.0)
        }
        FeatureSpec::ActiveRatio { swlin } => {
            let active = r.cell(StatusFilter::Active, TypeFilter::All, swlin).count;
            let created = r.cell(StatusFilter::Created, TypeFilter::All, swlin).count;
            active / created.max(1.0)
        }
    }
}

/// Feature generation engine over a fixed catalog.
#[derive(Debug, Clone)]
pub struct FeatureEngine {
    catalog: FeatureCatalog,
}

impl Default for FeatureEngine {
    fn default() -> Self {
        FeatureEngine::new(FeatureCatalog::standard())
    }
}

impl FeatureEngine {
    /// An engine over the given catalog.
    pub fn new(catalog: FeatureCatalog) -> Self {
        FeatureEngine { catalog }
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &FeatureCatalog {
        &self.catalog
    }

    /// Generates the full tensor for `avail_ids` over the logical grid via
    /// incremental sweeps (the fast path used in training), sharded across
    /// the process-wide worker cap ([`domd_runtime::threads`]).
    pub fn generate_tensor(
        &self,
        dataset: &Dataset,
        avail_ids: &[AvailId],
        grid: &[f64],
    ) -> FeatureTensor {
        self.generate_tensor_threaded(dataset, avail_ids, grid, domd_runtime::threads())
    }

    /// As [`FeatureEngine::generate_tensor`] with an explicit worker cap.
    ///
    /// The avails are partitioned into contiguous shards, each shard runs
    /// its own dual-AVL incremental sweep, and the per-step shard matrices
    /// are merged in shard order. Because every group cell belongs to
    /// exactly one avail and the AVL index visits rows in `(key, id)` order
    /// regardless of which rows it holds, each cell sees the identical
    /// accumulation sequence as in the single full sweep — the tensor is
    /// bit-identical for every thread count.
    pub fn generate_tensor_threaded(
        &self,
        dataset: &Dataset,
        avail_ids: &[AvailId],
        grid: &[f64],
        threads: usize,
    ) -> FeatureTensor {
        let n_avails = avail_ids.len();
        let n_features = self.catalog.len();
        let space = CellSpace { depth: self.catalog.depth() };
        let cells = space.cells_per_avail();
        let projected = project_dataset(dataset);
        let shards = domd_runtime::chunk_ranges(n_avails, threads.max(1));
        // Rows of the selected avails only, bucketed by shard; the group of
        // a row is shard-local: (avail pos within shard) x type x prefix.
        // Rows of different shards never meet in one sweep, so the single
        // shared `groups` column can hold shard-local values.
        let mut avail_pos =
            domd_data::hash::FxHashMap::with_capacity_and_hasher(n_avails, Default::default());
        for (i, id) in avail_ids.iter().enumerate() {
            avail_pos.insert(*id, i);
        }
        let shard_of_pos: Vec<usize> = {
            let mut v = vec![0usize; n_avails];
            for (s, range) in shards.iter().enumerate() {
                for slot in &mut v[range.clone()] {
                    *slot = s;
                }
            }
            v
        };
        let rccs = dataset.rccs();
        let mut selected_by_shard = vec![Vec::new(); shards.len()];
        let mut groups = vec![0usize; rccs.len()];
        for (i, (lr, r)) in projected.iter().zip(rccs).enumerate() {
            if let Some(&pos) = avail_pos.get(&lr.avail) {
                let s = shard_of_pos[pos];
                let local = pos - shards[s].start;
                groups[i] = local * cells + space.cell_of(rcc_type_slot(r.rcc_type), r.swlin);
                selected_by_shard[s].push(*lr);
            }
        }
        let amounts: Vec<f64> = rccs.iter().map(|r| r.amount).collect();
        let durations: Vec<f64> = rccs.iter().map(|r| f64::from(r.duration_days())).collect();
        let cols = RowColumns { amounts: &amounts, durations: &durations, groups: &groups };

        // One independent index + sweep per shard, fanned over the pool.
        let shard_slices: Vec<Vec<DenseMatrix>> =
            domd_runtime::par_map(threads, &shards, |s, range| {
                let shard_avails = range.len();
                let index = FlatAvlIndex::build(&selected_by_shard[s]);
                let mut slices: Vec<DenseMatrix> = Vec::with_capacity(grid.len());
                sweep_incremental(&index, cols, shard_avails * cells, grid, |_, t, st| {
                    let mut m = DenseMatrix::zeros(shard_avails, n_features);
                    for a in 0..shard_avails {
                        let rollup = Rollup::from_cells(space, st, a * cells);
                        let row = m.row_mut(a);
                        for (j, spec) in self.catalog.specs().iter().enumerate() {
                            row[j] = eval_spec(spec, &rollup, t);
                        }
                    }
                    slices.push(m);
                });
                slices
            });

        // Stitch each step's shard matrices back together in shard order,
        // restoring the original avail row order.
        let mut slices: Vec<DenseMatrix> =
            (0..grid.len()).map(|_| DenseMatrix::zeros(n_avails, n_features)).collect();
        for (shard, range) in shards.iter().enumerate() {
            for (step, shard_step) in shard_slices[shard].iter().enumerate() {
                let m = &mut slices[step];
                for (local, global) in range.clone().enumerate() {
                    m.row_mut(global).copy_from_slice(shard_step.row(local));
                }
            }
        }
        FeatureTensor::new(avail_ids.to_vec(), grid.to_vec(), self.catalog.names(), slices)
    }

    /// Features of a single avail at one logical time, computed directly
    /// from its RCC rows — the full catalog row, and the reference every
    /// projection is checked against.
    pub fn features_for_avail_at(
        &self,
        dataset: &Dataset,
        avail: AvailId,
        t_star: f64,
    ) -> Vec<f64> {
        // domd-lint: allow(no-panic) — caller contract: the queried avail id comes from this dataset
        let a = dataset.avail(avail).expect("avail exists");
        let rollup = self.rollup_at(dataset, a, t_star);
        self.catalog.specs().iter().map(|s| eval_spec(s, &rollup, t_star)).collect()
    }

    /// The projection of [`FeatureEngine::features_for_avail_at`] onto
    /// several anchors of one avail: for each `(t_star, cols)` of
    /// `anchors`, in order, appends column `cols[i]` of the avail's full
    /// row at `t_star` to `out`, and evaluates no other spec. `avail` is
    /// one of `dataset`'s avails.
    ///
    /// This is the online path for DoMD queries: a step model reads only
    /// its `selected` columns, a few dozen of the catalog's 1,490, at its
    /// own anchor. The partition is read once per call, whatever the
    /// number of anchors; ascending anchors (a request's reached steps)
    /// also carry the created cells forward, and any other order only
    /// re-folds them. Every value has the full row's bits.
    pub fn project_for_avail<'c>(
        &self,
        dataset: &Dataset,
        avail: &Avail,
        anchors: impl IntoIterator<Item = (f64, &'c [usize])>,
        out: &mut Vec<f64>,
    ) {
        let space = CellSpace { depth: self.catalog.depth() };
        let planned = avail.planned_duration().max(1);
        let rows: Vec<RowFacts> = dataset
            .rccs_of(avail.id)
            .iter()
            .map(|r| RowFacts {
                start: domd_data::logical_time(r.created, avail.actual_start, planned),
                end: domd_data::logical_time(r.settled, avail.actual_start, planned),
                cell: space.cell_of(rcc_type_slot(r.rcc_type), r.swlin),
                amount: r.amount,
                duration: f64::from(r.duration_days()),
            })
            .collect();
        // Logical time is monotone in `created`, so the starts ascend and
        // the rows an anchor has created are a prefix.
        debug_assert!(rows.windows(2).all(|w| w[0].start <= w[1].start));
        let specs = self.catalog.specs();
        let mut st = StatStructure::new(space.cells_per_avail());
        // `st.created` holds the additions of `rows[..carried]`, in order.
        let mut carried = 0;
        for (t_star, cols) in anchors {
            // Created means not skipped by the reference's `start > t_star`
            // test, so a NaN `t_star` creates every row, as it does there.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let n = rows.partition_point(|r| !(r.start > t_star));
            if n < carried {
                st.created.fill(Accum::default());
                carried = 0;
            }
            for r in &rows[carried..n] {
                st.created[r.cell].add(r.amount, r.duration);
            }
            carried = n;
            st.settled.fill(Accum::default());
            st.active.fill(Accum::default());
            for r in &rows[..n] {
                if r.end <= t_star {
                    st.settled[r.cell].add(r.amount, r.duration);
                } else {
                    st.active[r.cell].add(r.amount, r.duration);
                }
            }
            let rollup = Rollup::from_cells(space, &st, 0);
            out.extend(cols.iter().map(|&j| eval_spec(&specs[j], &rollup, t_star)));
        }
    }

    /// Scans `a`'s RCC rows into per-cell accumulators at `t_star` and
    /// rolls them up across the type and SWLIN hierarchies: the reference
    /// scan, kept apart from [`FeatureEngine::project_for_avail`]'s.
    fn rollup_at(&self, dataset: &Dataset, a: &Avail, t_star: f64) -> Rollup {
        let planned = a.planned_duration().max(1);
        let space = CellSpace { depth: self.catalog.depth() };
        let mut st = StatStructure::new(space.cells_per_avail());
        for r in dataset.rccs_of(a.id) {
            let start = domd_data::logical_time(r.created, a.actual_start, planned);
            let end = domd_data::logical_time(r.settled, a.actual_start, planned);
            if start > t_star {
                continue;
            }
            let cell = space.cell_of(rcc_type_slot(r.rcc_type), r.swlin);
            let amt = r.amount;
            let dur = f64::from(r.duration_days());
            st.created[cell].add(amt, dur);
            if end <= t_star {
                st.settled[cell].add(amt, dur);
            } else {
                st.active[cell].add(amt, dur);
            }
        }
        Rollup::from_cells(space, &st, 0)
    }
}

fn rcc_type_slot(t: RccType) -> usize {
    t.index()
}

/// What the online projection reads of one RCC row, computed once per
/// request.
struct RowFacts {
    start: f64,
    end: f64,
    cell: usize,
    amount: f64,
    duration: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_data::{generate, GeneratorConfig};

    fn small() -> Dataset {
        generate(&GeneratorConfig { n_avails: 12, target_rccs: 900, scale: 1, seed: 17 })
    }

    fn grid() -> Vec<f64> {
        (0..=10).map(|i| i as f64 * 10.0).collect()
    }

    #[test]
    fn tensor_shape() {
        let ds = small();
        let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let eng = FeatureEngine::default();
        let t = eng.generate_tensor(&ds, &ids, &grid());
        assert_eq!(t.n_steps(), 11);
        assert_eq!(t.slice(0).n_rows(), 12);
        assert_eq!(t.slice(0).n_cols(), 1490);
        assert_eq!(t.names().len(), 1490);
    }

    #[test]
    fn sweep_matches_single_avail_path() {
        let ds = small();
        let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let eng = FeatureEngine::default();
        let tensor = eng.generate_tensor(&ds, &ids, &grid());
        for (step, &t) in grid().iter().enumerate() {
            for (row, id) in ids.iter().enumerate() {
                let online = eng.features_for_avail_at(&ds, *id, t);
                let offline = tensor.slice(step).row(row);
                for (j, (a, b)) in online.iter().zip(offline).enumerate() {
                    // Incremental add/sub of squared sums accumulates tiny
                    // floating-point drift: compare with relative tolerance.
                    assert!(
                        (a - b).abs() < 1e-6 * (1.0 + a.abs()),
                        "feature {} mismatch at t={t} avail {id}: {a} vs {b}",
                        tensor.names()[j]
                    );
                }
            }
        }
    }

    #[test]
    fn counts_monotone_in_time_for_created() {
        let ds = small();
        let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let eng = FeatureEngine::default();
        let tensor = eng.generate_tensor(&ds, &ids, &grid());
        // ALLALL-COUNT_CRE is the total created count: must be monotone.
        let col = tensor
            .names()
            .iter()
            .position(|n| n == "ALLALL-COUNT_CRE")
            .expect("feature exists");
        for a in 0..ids.len() {
            let mut prev = -1.0;
            for s in 0..tensor.n_steps() {
                let v = tensor.slice(s).get(a, col);
                assert!(v >= prev, "created count decreased for avail {a}");
                prev = v;
            }
        }
    }

    #[test]
    fn created_count_at_end_close_to_rcc_count() {
        let ds = small();
        let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let eng = FeatureEngine::default();
        // Generator allows creation up to 105% of planned duration.
        let t = eng.generate_tensor(&ds, &ids, &[110.0]);
        let col = t.names().iter().position(|n| n == "ALLALL-COUNT_CRE").unwrap();
        for (row, id) in ids.iter().enumerate() {
            let v = t.slice(0).get(row, col);
            assert_eq!(v as usize, ds.rccs_of(*id).len(), "avail {id}");
        }
    }

    #[test]
    fn all_features_finite() {
        let ds = small();
        let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let eng = FeatureEngine::default();
        let t = eng.generate_tensor(&ds, &ids, &[0.0, 33.3, 100.0]);
        for s in 0..t.n_steps() {
            assert!(t.slice(s).as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn subset_of_avails_only_sees_their_rccs() {
        let ds = small();
        let all_ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let some = &all_ids[3..7];
        let eng = FeatureEngine::default();
        let t_all = eng.generate_tensor(&ds, &all_ids, &[50.0]);
        let t_sub = eng.generate_tensor(&ds, some, &[50.0]);
        for (i, id) in some.iter().enumerate() {
            let full_row = t_all.slice(0).row(t_all.row_of(*id).unwrap());
            assert_eq!(t_sub.slice(0).row(i), full_row, "avail {id}");
        }
    }

    #[test]
    fn active_ratio_bounded() {
        let ds = small();
        let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let eng = FeatureEngine::default();
        let t = eng.generate_tensor(&ds, &ids, &grid());
        let cols: Vec<usize> = t
            .names()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.ends_with("ACTIVE_RATIO"))
            .map(|(j, _)| j)
            .collect();
        assert_eq!(cols.len(), 10);
        for s in 0..t.n_steps() {
            for a in 0..ids.len() {
                for &j in &cols {
                    let v = t.slice(s).get(a, j);
                    assert!((0.0..=1.0).contains(&v), "ratio {v}");
                }
            }
        }
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use crate::spec::FeatureCatalog;
    use domd_data::{generate, GeneratorConfig};

    fn small() -> Dataset {
        generate(&GeneratorConfig { n_avails: 8, target_rccs: 700, scale: 1, seed: 29 })
    }

    #[test]
    fn extended_tensor_shape_and_consistency() {
        let ds = small();
        let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let eng = FeatureEngine::new(FeatureCatalog::extended());
        let t = eng.generate_tensor(&ds, &ids, &[0.0, 50.0, 100.0]);
        assert_eq!(t.slice(0).n_cols(), 5810);
        // The standard 1490 columns are identical to the standard engine's.
        let std_eng = FeatureEngine::default();
        let t_std = std_eng.generate_tensor(&ds, &ids, &[0.0, 50.0, 100.0]);
        for s in 0..3 {
            for a in 0..ids.len() {
                let ext_row = t.slice(s).row(a);
                let std_row = t_std.slice(s).row(a);
                for j in 0..1490 {
                    assert!(
                        (ext_row[j] - std_row[j]).abs() < 1e-9 * (1.0 + std_row[j].abs()),
                        "col {} ({}) differs at step {s} avail {a}",
                        j,
                        t.names()[j]
                    );
                }
            }
        }
    }

    #[test]
    fn module_features_sum_to_subsystem_features() {
        let ds = small();
        let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let eng = FeatureEngine::new(FeatureCatalog::extended());
        let t = eng.generate_tensor(&ds, &ids, &[60.0]);
        let names = t.names();
        let col = |n: &str| names.iter().position(|x| x == n).unwrap_or_else(|| panic!("{n}"));
        // Sum of G4{0..9}-COUNT_CRE equals G4-COUNT_CRE.
        let parent = col("G4-COUNT_CRE");
        let children: Vec<usize> = (0..10).map(|b| col(&format!("G4{b}-COUNT_CRE"))).collect();
        for a in 0..ids.len() {
            let total: f64 = children.iter().map(|&j| t.slice(0).get(a, j)).sum();
            assert!(
                (total - t.slice(0).get(a, parent)).abs() < 1e-9,
                "avail {a}: module counts {total} != subsystem {}",
                t.slice(0).get(a, parent)
            );
        }
    }

    #[test]
    fn projected_columns_equal_the_full_row_to_the_bit() {
        let full_ds = small();
        // One avail keeps no rows: its projection must still be the full
        // row of an empty partition.
        let bare = full_ds.avails()[3].id;
        let rows = full_ds.rccs().iter().filter(|r| r.avail != bare).cloned().collect();
        let ds = Dataset::new(full_ds.avails().to_vec(), rows);
        assert!(ds.rccs_of(bare).is_empty());
        for catalog in [FeatureCatalog::standard(), FeatureCatalog::extended()] {
            let eng = FeatureEngine::new(catalog);
            let n = eng.catalog().len();
            for a in ds.avails() {
                // One ascending anchor list: -inf, every created and
                // settled logical time (ties kept), the grid, +inf.
                let planned = a.planned_duration().max(1);
                let mut anchors = vec![f64::NEG_INFINITY, f64::INFINITY];
                anchors.extend((0..=22).map(|i| f64::from(i) * 5.0));
                for r in ds.rccs_of(a.id) {
                    anchors.push(domd_data::logical_time(r.created, a.actual_start, planned));
                    anchors.push(domd_data::logical_time(r.settled, a.actual_start, planned));
                }
                anchors.sort_by(f64::total_cmp);
                // Each anchor reads every column once in its own scrambled
                // order (7919 is prime and divides neither catalog width),
                // then repeats: nothing may rely on a step's ascending
                // `selected`.
                let cols: Vec<Vec<usize>> = (0..anchors.len())
                    .map(|k| {
                        (0..n).map(|i| (i * 7919 + k) % n).chain([k % n, n - 1, k % n]).collect()
                    })
                    .collect();
                let full: Vec<Vec<f64>> =
                    anchors.iter().map(|&t| eng.features_for_avail_at(&ds, a.id, t)).collect();
                // Ascending (the serving order), then descending, which
                // re-folds the created cells at every anchor.
                for descending in [false, true] {
                    let mut order: Vec<usize> = (0..anchors.len()).collect();
                    if descending {
                        order.reverse();
                    }
                    let mut out = Vec::new();
                    eng.project_for_avail(
                        &ds,
                        a,
                        order.iter().map(|&k| (anchors[k], cols[k].as_slice())),
                        &mut out,
                    );
                    let want: Vec<(usize, usize)> =
                        order.iter().flat_map(|&k| cols[k].iter().map(move |&j| (k, j))).collect();
                    assert_eq!(out.len(), want.len());
                    for (v, &(k, j)) in out.iter().zip(&want) {
                        assert_eq!(
                            v.to_bits(),
                            full[k][j].to_bits(),
                            "{} of avail {} at t*={} (descending: {descending}): {v} vs {}",
                            eng.catalog().names()[j],
                            a.id,
                            anchors[k],
                            full[k][j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extended_online_path_matches_sweep() {
        let ds = small();
        let ids: Vec<AvailId> = ds.avails().iter().map(|a| a.id).collect();
        let eng = FeatureEngine::new(FeatureCatalog::extended());
        let t = eng.generate_tensor(&ds, &ids, &[45.0]);
        for (row, id) in ids.iter().enumerate().take(3) {
            let online = eng.features_for_avail_at(&ds, *id, 45.0);
            let offline = t.slice(0).row(row);
            for (j, (a, b)) in online.iter().zip(offline).enumerate() {
                assert!(
                    (a - b).abs() < 1e-6 * (1.0 + a.abs()),
                    "feature {} mismatch: {a} vs {b}",
                    t.names()[j]
                );
            }
        }
    }
}
