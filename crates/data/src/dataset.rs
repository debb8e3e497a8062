//! The two-table Navy Maintenance Data (NMD) layout: an avail table and an
//! RCC table, plus the split protocol of Section 5.2.1 and the summary
//! statistics of Table 5 / Figure 2.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::avail::{Avail, AvailId, AvailStatus};
use crate::rcc::Rcc;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Number of modeled + obfuscated companion attributes reported for the real
/// avail table in Table 5 of the paper. The synthetic dataset materializes
/// the modeled subset; the remaining columns of the CUI source are opaque
/// and carry no signal the pipeline uses, so we track only the count.
pub const AVAIL_TABLE_ATTRS: usize = 73;

/// Same, for the RCC table (Table 5).
pub const RCC_TABLE_ATTRS: usize = 187;

/// An in-memory NMD instance: the avail table and the RCC table.
///
/// The RCC table is in `(avail, created, id)` order, stored as one
/// immutable partition per avail that has rows, in ascending avail-id
/// order. Every Table 3 feature aggregates one avail's rows, so
/// [`Dataset::rccs_of`] is a partition, and [`Dataset::with_rccs_merged`]
/// rebuilds only the partitions a batch touches: a clone or a merge shares
/// every other partition, and the avail table, by pointer.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    avails: Arc<[Avail]>,
    parts: Vec<Partition>,
}

/// One avail's RCC rows, sorted by `(created, id)`; never empty.
#[derive(Debug, Clone)]
struct Partition {
    avail: AvailId,
    /// Table position one past this partition's last row.
    end: usize,
    rows: Arc<[Rcc]>,
}

impl Dataset {
    /// Builds a dataset, sorting RCCs by (avail, creation date, id) and
    /// cutting the sorted table into per-avail partitions.
    pub fn new(avails: Vec<Avail>, mut rccs: Vec<Rcc>) -> Self {
        rccs.sort_by_key(|r| (r.avail, r.created, r.id));
        let runs = rccs.chunk_by(|a, b| a.avail == b.avail).map(Arc::from);
        Dataset::from_runs(avails.into(), runs)
    }

    /// Assembles the partition table from per-avail row runs given in
    /// ascending avail order, dropping empty runs.
    fn from_runs(avails: Arc<[Avail]>, runs: impl IntoIterator<Item = Arc<[Rcc]>>) -> Self {
        let mut end = 0;
        let parts = runs
            .into_iter()
            .filter_map(|rows| {
                let avail = rows.first()?.avail;
                end += rows.len();
                Some(Partition { avail, end, rows })
            })
            .collect();
        Dataset { avails, parts }
    }

    /// Inserts `fresh` RCC rows, rebuilding only the partitions of the
    /// avails they belong to: each touched partition is its existing rows
    /// with its fresh rows merged in at binary-searched positions, and
    /// every other partition is shared with `self` by pointer. That is
    /// O(rows of the touched avails) bytes copied plus one pointer per
    /// partition, against the O((n+k) log (n+k)) full re-sort a
    /// [`Dataset::new`] rebuild pays. Produces exactly the dataset
    /// `Dataset::new` would build from the concatenated rows: positions key
    /// on the same `(avail, created, id)` triple and keep existing rows
    /// first on ties, matching the stable sort.
    pub fn with_rccs_merged(&self, mut fresh: Vec<Rcc>) -> Dataset {
        fresh.sort_by_key(|r| (r.avail, r.created, r.id));
        let mut old = self.parts.iter().peekable();
        let mut runs = Vec::with_capacity(self.parts.len() + fresh.len());
        for batch in fresh.chunk_by(|a, b| a.avail == b.avail) {
            let avail = batch[0].avail;
            while let Some(p) = old.next_if(|p| p.avail < avail) {
                runs.push(Arc::clone(&p.rows));
            }
            let existing = old.next_if(|p| p.avail == avail).map_or(&[][..], |p| &p.rows[..]);
            runs.push(merge_rows(existing, batch));
        }
        runs.extend(old.map(|p| Arc::clone(&p.rows)));
        Dataset::from_runs(Arc::clone(&self.avails), runs)
    }

    /// This dataset over `avails`, keeping of each partition of an avail
    /// in `of` only the rows `keep` accepts; every other partition is
    /// shared by pointer. Filtering keeps a partition's order, so the
    /// result equals [`Dataset::new`] over the kept rows.
    pub(crate) fn with_rows_retained(
        &self,
        avails: Vec<Avail>,
        of: &[AvailId],
        keep: impl Fn(&Rcc) -> bool,
    ) -> Dataset {
        let runs = self.parts.iter().map(|p| {
            if of.contains(&p.avail) {
                p.rows.iter().filter(|r| keep(r)).cloned().collect()
            } else {
                Arc::clone(&p.rows)
            }
        });
        Dataset::from_runs(avails.into(), runs)
    }

    /// All avails, in insertion order.
    pub fn avails(&self) -> &[Avail] {
        &self.avails
    }

    /// All RCCs in table order: by avail, then creation date, then id.
    /// Table positions are the dense row ids of the logical projection.
    pub fn rccs(&self) -> RccTable<'_> {
        RccTable { parts: &self.parts }
    }

    /// The RCC table one partition at a time, in ascending avail order:
    /// each avail that has rows, with its rows sorted by creation date.
    pub fn partitions(&self) -> impl Iterator<Item = (AvailId, &[Rcc])> + '_ {
        self.parts.iter().map(|p| (p.avail, &p.rows[..]))
    }

    /// Look up an avail by id (linear in the avail count, which is ~200).
    pub fn avail(&self, id: AvailId) -> Option<&Avail> {
        self.avails.iter().find(|a| a.id == id)
    }

    /// RCCs belonging to `avail`, sorted by creation date: its partition.
    pub fn rccs_of(&self, avail: AvailId) -> &[Rcc] {
        match self.parts.binary_search_by_key(&avail, |p| p.avail) {
            Ok(k) => &self.parts[k].rows,
            Err(_) => &[],
        }
    }

    /// Closed avails only (the modeling population: delay is observable).
    pub fn closed_avails(&self) -> impl Iterator<Item = &Avail> {
        self.avails.iter().filter(|a| a.status() == AvailStatus::Closed)
    }

    /// Summary statistics in the shape of Table 5.
    pub fn stats(&self) -> Stats {
        Stats {
            n_avails: self.avails.len(),
            n_avail_attrs: AVAIL_TABLE_ATTRS,
            n_rccs: self.rccs().len(),
            n_rcc_attrs: RCC_TABLE_ATTRS,
        }
    }

    /// Histogram of closed-avail delays with the given bin width in days
    /// (Figure 2). Returns `(bin_lower_edge, count)` pairs covering the full
    /// observed range, including empty interior bins.
    pub fn delay_histogram(&self, bin_days: i32) -> Vec<(i32, usize)> {
        assert!(bin_days > 0, "bin width must be positive");
        let delays: Vec<i32> = self.closed_avails().filter_map(|a| a.delay()).collect();
        let (Some(&min), Some(&max)) = (delays.iter().min(), delays.iter().max()) else {
            return Vec::new();
        };
        let lo = (min.div_euclid(bin_days)) * bin_days;
        let hi = (max.div_euclid(bin_days)) * bin_days;
        let n_bins = ((hi - lo) / bin_days + 1) as usize;
        let mut bins = vec![0usize; n_bins];
        for d in delays {
            bins[((d - lo) / bin_days) as usize] += 1;
        }
        bins.into_iter()
            .enumerate()
            .map(|(i, c)| (lo + i as i32 * bin_days, c))
            .collect()
    }

    /// The split protocol of Section 5.2.1: the 30% most *recent* closed
    /// avails (by planned start) form the test set; of the remaining 70%, a
    /// seeded random 25% is validation and 75% is training.
    pub fn split(&self, seed: u64) -> Split {
        let mut closed: Vec<AvailId> = self.closed_avails().map(|a| a.id).collect();
        // Most recent by planned start date; ties broken by id for determinism.
        closed.sort_by_key(|id| {
            // domd-lint: allow(no-panic) — ids were just collected from self.closed_avails()
            let a = self.avail(*id).expect("closed avail present");
            (a.plan_start, a.id)
        });
        let n = closed.len();
        let n_test = (n as f64 * 0.30).round() as usize;
        let test: Vec<AvailId> = closed[n - n_test..].to_vec();
        let mut rest: Vec<AvailId> = closed[..n - n_test].to_vec();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        rest.shuffle(&mut rng);
        let n_val = (rest.len() as f64 * 0.25).round() as usize;
        let validation: Vec<AvailId> = rest[..n_val].to_vec();
        let train: Vec<AvailId> = rest[n_val..].to_vec();
        Split { train, validation, test }
    }
}

/// The rows of one avail: `existing` with `fresh` merged in, both sorted
/// by `(created, id)`, existing rows first on ties.
fn merge_rows(existing: &[Rcc], fresh: &[Rcc]) -> Arc<[Rcc]> {
    let key = |r: &Rcc| (r.created, r.id);
    let mut rows = Vec::with_capacity(existing.len() + fresh.len());
    let mut copied = 0;
    for r in fresh {
        let at = copied + existing[copied..].partition_point(|e| key(e) <= key(r));
        rows.extend_from_slice(&existing[copied..at]);
        rows.push(r.clone());
        copied = at;
    }
    rows.extend_from_slice(&existing[copied..]);
    rows.into()
}

/// A borrowed, table-order view of a [`Dataset`]'s RCC table: the
/// partitions read back to back, addressed by table position.
#[derive(Clone, Copy)]
pub struct RccTable<'a> {
    parts: &'a [Partition],
}

impl<'a> RccTable<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.parts.last().map_or(0, |p| p.end)
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The row at table position `i`, or `None` past the end; a binary
    /// search over the partition bounds.
    pub fn get(&self, i: usize) -> Option<&'a Rcc> {
        let p = self.parts.get(self.part_of(i))?;
        p.rows.get(i + p.rows.len() - p.end)
    }

    /// The rows in table order.
    pub fn iter(&self) -> RccIter<'a> {
        RccIter { parts: self.parts.iter(), rows: [].iter(), remaining: self.len() }
    }

    /// The rows in table order, copied into one vector.
    pub fn to_vec(&self) -> Vec<Rcc> {
        let mut out = Vec::with_capacity(self.len());
        for p in self.parts {
            out.extend_from_slice(&p.rows);
        }
        out
    }

    /// Index of the partition holding table position `i` (`parts.len()`
    /// past the end).
    fn part_of(&self, i: usize) -> usize {
        self.parts.partition_point(|p| p.end <= i)
    }
}

impl Index<usize> for RccTable<'_> {
    type Output = Rcc;

    /// The row at table position `i`; panics past the end, as slice
    /// indexing does.
    fn index(&self, i: usize) -> &Rcc {
        let p = &self.parts[self.part_of(i)];
        &p.rows[i + p.rows.len() - p.end]
    }
}

impl<'a> IntoIterator for RccTable<'a> {
    type Item = &'a Rcc;
    type IntoIter = RccIter<'a>;

    fn into_iter(self) -> RccIter<'a> {
        self.iter()
    }
}

impl PartialEq for RccTable<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RccTable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over an [`RccTable`] in table order.
pub struct RccIter<'a> {
    parts: std::slice::Iter<'a, Partition>,
    rows: std::slice::Iter<'a, Rcc>,
    remaining: usize,
}

impl<'a> Iterator for RccIter<'a> {
    type Item = &'a Rcc;

    fn next(&mut self) -> Option<&'a Rcc> {
        loop {
            if let Some(r) = self.rows.next() {
                self.remaining -= 1;
                return Some(r);
            }
            self.rows = self.parts.next()?.rows.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RccIter<'_> {}

/// Table 5-style dataset statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Row count of the avail table.
    pub n_avails: usize,
    /// Attribute count of the avail table.
    pub n_avail_attrs: usize,
    /// Row count of the RCC table.
    pub n_rccs: usize,
    /// Attribute count of the RCC table.
    pub n_rcc_attrs: usize,
}

/// Train / validation / test partition of closed avails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// 75% of the non-test avails; fits the models.
    pub train: Vec<AvailId>,
    /// 25% of the non-test avails; sets pipeline parameters (Problem 2).
    pub validation: Vec<AvailId>,
    /// The 30% most recent avails; touched only for final evaluation.
    pub test: Vec<AvailId>,
}

impl Split {
    /// Total avails across the three parts.
    pub fn len(&self) -> usize {
        self.train.len() + self.validation.len() + self.test.len()
    }

    /// True when every part is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avail::{ShipId, StaticAttrs};
    use crate::date::Date;
    use crate::rcc::{RccId, RccType};

    fn mk_avail(id: u32, start_days: i32, closed: bool) -> Avail {
        let s = Date::from_days(start_days);
        Avail {
            id: AvailId(id),
            ship: ShipId(id),
            plan_start: s,
            plan_end: s + 300,
            actual_start: s,
            actual_end: if closed { Some(s + 330) } else { None },
            statics: StaticAttrs {
                ship_class: 0,
                rmc_id: 0,
                ship_age_years: 10.0,
                prior_avail_count: 0,
                prior_avg_delay: 0.0,
            },
        }
    }

    fn mk_rcc(id: u32, avail: u32, created_days: i32) -> Rcc {
        Rcc {
            id: RccId(id),
            avail: AvailId(avail),
            rcc_type: RccType::Growth,
            swlin: "100-00-001".parse().unwrap(),
            created: Date::from_days(created_days),
            settled: Date::from_days(created_days + 30),
            amount: 1000.0,
        }
    }

    fn toy_dataset(n: usize) -> Dataset {
        let avails: Vec<Avail> = (0..n as u32).map(|i| mk_avail(i, i as i32 * 100, true)).collect();
        let rccs: Vec<Rcc> = (0..n as u32)
            .flat_map(|a| (0..3u32).map(move |j| mk_rcc(a * 10 + j, a, a as i32 * 100 + j as i32 * 5)))
            .collect();
        Dataset::new(avails, rccs)
    }

    #[test]
    fn per_avail_ranges_sorted() {
        let ds = toy_dataset(5);
        for a in ds.avails() {
            let rs = ds.rccs_of(a.id);
            assert_eq!(rs.len(), 3);
            assert!(rs.windows(2).all(|w| w[0].created <= w[1].created));
            assert!(rs.iter().all(|r| r.avail == a.id));
        }
        assert!(ds.rccs_of(AvailId(999)).is_empty());
    }

    #[test]
    fn merged_insert_equals_full_rebuild() {
        let base = toy_dataset(5);
        // Avails 5 and 6 have no rows yet; 6 sorts after every row.
        let mut avails = base.avails().to_vec();
        avails.push(mk_avail(5, 500, true));
        avails.push(mk_avail(6, 600, true));
        let ds = Dataset::new(avails, base.rccs().to_vec());
        let with_amount = |mut r: Rcc, amount: f64| {
            r.amount = amount;
            r
        };
        let fresh = vec![
            // Front, middle, and back of avail ranges, plus a tie on
            // (avail, created) resolved by id.
            mk_rcc(900, 2, 205),
            mk_rcc(901, 0, 0),
            mk_rcc(902, 4, 999),
            mk_rcc(903, 2, 200), // same (avail, created) as rcc 20
            // The first and the last row of the whole table.
            mk_rcc(960, 0, -50),
            mk_rcc(950, 6, 600),
            // Several rows into one avail, out of order.
            mk_rcc(910, 1, 101),
            mk_rcc(911, 1, 150),
            mk_rcc(912, 1, 99),
            // Ties among fresh rows: same (avail, created) with ids out of
            // order, and two rows with the same full key, told apart by
            // amount, which must keep their given order.
            mk_rcc(921, 3, 303),
            mk_rcc(920, 3, 303),
            with_amount(mk_rcc(930, 3, 306), 1.0),
            with_amount(mk_rcc(930, 3, 306), 2.0),
            // The same full key as existing rcc 31: the existing row first.
            with_amount(mk_rcc(31, 3, 305), 7.0),
            // An avail that had no rows.
            mk_rcc(941, 5, 520),
            mk_rcc(940, 5, 510),
        ];
        let merged = ds.with_rccs_merged(fresh.clone());
        let mut all = ds.rccs().to_vec();
        all.extend(fresh);
        let rebuilt = Dataset::new(ds.avails().to_vec(), all);
        assert_eq!(merged.rccs().len(), rebuilt.rccs().len());
        for (m, r) in merged.rccs().iter().zip(rebuilt.rccs()) {
            assert_eq!(m.id, r.id, "merge must reproduce the rebuilt order");
        }
        assert_eq!(merged.rccs(), rebuilt.rccs(), "ties must keep the stable-sort order");
        for a in merged.avails() {
            assert_eq!(
                merged.rccs_of(a.id).len(),
                rebuilt.rccs_of(a.id).len(),
                "ranges must match for avail {}",
                a.id
            );
            assert_eq!(merged.rccs_of(a.id), rebuilt.rccs_of(a.id), "rows of avail {}", a.id);
        }
        assert_eq!(merged.rccs_of(AvailId(5)).len(), 2);
        assert_eq!(merged.rccs_of(AvailId(6)).len(), 1);
        assert_eq!(merged.rccs()[0].id, RccId(960));
    }

    #[test]
    fn merged_insert_into_empty_and_with_empty() {
        let ds = toy_dataset(3);
        let same = ds.with_rccs_merged(Vec::new());
        assert_eq!(same.rccs().len(), ds.rccs().len());
        let empty = Dataset::new(ds.avails().to_vec(), Vec::new());
        let filled = empty.with_rccs_merged(ds.rccs().to_vec());
        assert_eq!(filled.rccs().len(), ds.rccs().len());
        assert_eq!(filled.rccs_of(AvailId(1)).len(), 3);
    }

    /// `merged` and `rebuilt` hold the same table: row order, amounts to
    /// the bit, and every avail's partition.
    fn assert_same_table(merged: &Dataset, rebuilt: &Dataset, ctx: &str) {
        assert_eq!(merged.rccs().len(), rebuilt.rccs().len(), "{ctx}: rows");
        for (m, r) in merged.rccs().iter().zip(rebuilt.rccs()) {
            assert_eq!(m.id, r.id, "{ctx}: order");
            assert_eq!(m.amount.to_bits(), r.amount.to_bits(), "{ctx}: tie order");
        }
        for a in rebuilt.avails().iter().map(|a| a.id).chain([AvailId(999)]) {
            assert_eq!(merged.rccs_of(a), rebuilt.rccs_of(a), "{ctx}: rows of avail {a}");
        }
        let ends = |d: &Dataset| d.parts.iter().map(|p| (p.avail, p.end)).collect::<Vec<_>>();
        assert_eq!(ends(merged), ends(rebuilt), "{ctx}: partition bounds");
    }

    /// Table positions address the same rows as iteration, at every
    /// partition boundary and in between; `get(len)` is `None`.
    fn assert_positions(ds: &Dataset, ctx: &str) {
        let table = ds.rccs();
        let rows = table.to_vec();
        assert_eq!(table.iter().len(), rows.len(), "{ctx}: exact size");
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(table.get(i), Some(r), "{ctx}: get({i})");
            assert_eq!(&table[i], r, "{ctx}: [{i}]");
        }
        for p in &ds.parts {
            assert_eq!(table[p.end - p.rows.len()].id, p.rows[0].id, "{ctx}: partition start");
            assert_eq!(table[p.end - 1].id, p.rows[p.rows.len() - 1].id, "{ctx}: partition end");
        }
        assert_eq!(table.get(rows.len()), None, "{ctx}: get(len)");
    }

    /// Seeded property: over random tables and batches, the partition
    /// merge equals `Dataset::new` over the concatenated rows, shares
    /// every untouched partition with its parent by pointer, and keeps
    /// table positions exact.
    #[test]
    fn merge_matches_rebuild_over_random_batches() {
        use rand::Rng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xDA7A);
        // Narrow id, date and avail ranges make ties on (avail, created,
        // id) common; amounts tell tied rows apart.
        let row = |rng: &mut rand::rngs::SmallRng, n_avails: u32| {
            let mut r = mk_rcc(rng.gen_range(0..6), rng.gen_range(0..n_avails), rng.gen_range(0..5));
            r.amount = f64::from(rng.gen_range(0..1_000u32));
            r
        };
        let (mut ties, mut new_avails, mut empty, mut every) = (0, 0, 0, 0);
        for case in 0..400 {
            let n_avails = rng.gen_range(1..8u32);
            let avails: Vec<Avail> =
                (0..n_avails).map(|i| mk_avail(i, i as i32 * 100, true)).collect();
            let n_base = rng.gen_range(0..30);
            let base_rows: Vec<Rcc> = (0..n_base).map(|_| row(&mut rng, n_avails)).collect();
            let base = Dataset::new(avails.clone(), base_rows);
            let fresh: Vec<Rcc> = match case % 4 {
                0 => Vec::new(),
                1 => (0..n_avails)
                    .map(|a| Rcc { avail: AvailId(a), ..row(&mut rng, n_avails) })
                    .collect(),
                _ => (0..rng.gen_range(1..10)).map(|_| row(&mut rng, n_avails)).collect(),
            };
            let key = |r: &Rcc| (r.avail, r.created, r.id);
            ties += usize::from(fresh.iter().any(|f| base.rccs().iter().any(|e| key(e) == key(f))));
            new_avails += usize::from(fresh.iter().any(|f| base.rccs_of(f.avail).is_empty()));
            empty += usize::from(fresh.is_empty());
            every += usize::from(avails.iter().all(|a| fresh.iter().any(|f| f.avail == a.id)));

            let merged = base.with_rccs_merged(fresh.clone());
            let mut all = base.rccs().to_vec();
            all.extend(fresh.iter().cloned());
            let ctx = format!("case {case}");
            assert_same_table(&merged, &Dataset::new(avails, all), &ctx);
            assert_positions(&merged, &ctx);
            for p in &base.parts {
                let touched = fresh.iter().any(|f| f.avail == p.avail);
                let q = merged.parts.iter().find(|q| q.avail == p.avail).expect("kept");
                assert_eq!(Arc::ptr_eq(&p.rows, &q.rows), !touched, "{ctx}: avail {}", p.avail);
            }
        }
        assert!(ties > 0 && new_avails > 0 && empty > 0 && every > 0, "uncovered case kind");
    }

    #[test]
    fn stats_shape() {
        let ds = toy_dataset(4);
        let st = ds.stats();
        assert_eq!(st.n_avails, 4);
        assert_eq!(st.n_rccs, 12);
        assert_eq!(st.n_avail_attrs, AVAIL_TABLE_ATTRS);
        assert_eq!(st.n_rcc_attrs, RCC_TABLE_ATTRS);
    }

    #[test]
    fn split_sizes_and_disjointness() {
        let ds = toy_dataset(200);
        let sp = ds.split(42);
        assert_eq!(sp.test.len(), 60); // 30% of 200
        assert_eq!(sp.validation.len(), 35); // 25% of 140
        assert_eq!(sp.train.len(), 105);
        assert_eq!(sp.len(), 200);
        let mut all: Vec<u32> = sp
            .train
            .iter()
            .chain(&sp.validation)
            .chain(&sp.test)
            .map(|a| a.0)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200, "splits must be disjoint and exhaustive");
    }

    #[test]
    fn split_test_is_most_recent() {
        let ds = toy_dataset(10);
        let sp = ds.split(7);
        let max_nontest = sp
            .train
            .iter()
            .chain(&sp.validation)
            .map(|id| ds.avail(*id).unwrap().plan_start)
            .max()
            .unwrap();
        let min_test = sp.test.iter().map(|id| ds.avail(*id).unwrap().plan_start).min().unwrap();
        assert!(min_test >= max_nontest);
    }

    #[test]
    fn split_deterministic_per_seed() {
        let ds = toy_dataset(50);
        assert_eq!(ds.split(1), ds.split(1));
        assert_ne!(ds.split(1).train, ds.split(2).train);
    }

    #[test]
    fn ongoing_excluded_from_split_and_histogram() {
        let mut avails: Vec<Avail> = (0..10).map(|i| mk_avail(i, i as i32 * 10, true)).collect();
        avails.push(mk_avail(10, 2000, false)); // ongoing
        let ds = Dataset::new(avails, vec![]);
        let sp = ds.split(0);
        assert_eq!(sp.len(), 10);
        let hist = ds.delay_histogram(30);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn histogram_covers_negative_delays() {
        let mut a = mk_avail(0, 0, true);
        a.actual_end = Some(a.actual_start + 270); // delay -30
        let mut b = mk_avail(1, 0, true);
        b.actual_end = Some(b.actual_start + 400); // delay +100
        let ds = Dataset::new(vec![a, b], vec![]);
        let hist = ds.delay_histogram(30);
        assert_eq!(hist.first().unwrap().0, -30);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 2);
    }
}
