//! The two-table Navy Maintenance Data (NMD) layout: an avail table and an
//! RCC table, plus the split protocol of Section 5.2.1 and the summary
//! statistics of Table 5 / Figure 2.

use crate::avail::{Avail, AvailId, AvailStatus};
use crate::rcc::Rcc;
use crate::hash::FxHashMap;
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
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    avails: Vec<Avail>,
    rccs: Vec<Rcc>,
    /// Index of the first RCC of each avail in `rccs` (built on construction;
    /// `rccs` is kept sorted by avail id, then creation date).
    by_avail: FxHashMap<AvailId, (usize, usize)>,
}

impl Dataset {
    /// Builds a dataset, sorting RCCs by (avail, creation date) and indexing
    /// the per-avail ranges.
    pub fn new(avails: Vec<Avail>, mut rccs: Vec<Rcc>) -> Self {
        rccs.sort_by_key(|a| (a.avail, a.created, a.id));
        let by_avail = build_ranges(&rccs, avails.len());
        Dataset { avails, rccs, by_avail }
    }

    /// Inserts `fresh` RCC rows into the sorted table: each fresh row's
    /// position is binary-searched and the unchanged runs between them are
    /// copied whole — O(n) bytes moved plus O(k log n) comparisons, against
    /// the O((n+k) log (n+k)) full re-sort a [`Dataset::new`] rebuild pays.
    /// The per-avail ranges are derived from the old ones plus the rows
    /// inserted before and into each avail, without rescanning the table.
    /// Produces exactly the dataset `Dataset::new` would build from the
    /// concatenated rows: positions key on the same `(avail, created, id)`
    /// triple and keep existing rows first on ties, matching the stable
    /// sort.
    pub fn with_rccs_merged(&self, mut fresh: Vec<Rcc>) -> Dataset {
        let key = |r: &Rcc| (r.avail, r.created, r.id);
        fresh.sort_by_key(key);
        // An existing avail's range shifts by the fresh rows of lower avails
        // and grows by its own; an avail that had no rows starts after the
        // existing rows of lower avails.
        let mut by_avail = self.by_avail.clone();
        for (avail, (start, end)) in by_avail.iter_mut() {
            *start += fresh.partition_point(|r| r.avail < *avail);
            *end += fresh.partition_point(|r| r.avail <= *avail);
        }
        let mut lo = 0;
        while lo < fresh.len() {
            let avail = fresh[lo].avail;
            let hi = lo + fresh[lo..].partition_point(|r| r.avail == avail);
            if !self.by_avail.contains_key(&avail) {
                let before = self.rccs.partition_point(|r| r.avail < avail);
                by_avail.insert(avail, (before + lo, before + hi));
            }
            lo = hi;
        }
        let mut rccs = Vec::with_capacity(self.rccs.len() + fresh.len());
        let mut copied = 0;
        for r in fresh {
            let at = copied + self.rccs[copied..].partition_point(|e| key(e) <= key(&r));
            rccs.extend_from_slice(&self.rccs[copied..at]);
            rccs.push(r);
            copied = at;
        }
        rccs.extend_from_slice(&self.rccs[copied..]);
        Dataset { avails: self.avails.clone(), rccs, by_avail }
    }

    /// All avails, in insertion order.
    pub fn avails(&self) -> &[Avail] {
        &self.avails
    }

    /// All RCCs, sorted by (avail, creation date).
    pub fn rccs(&self) -> &[Rcc] {
        &self.rccs
    }

    /// Look up an avail by id (linear in the avail count, which is ~200).
    pub fn avail(&self, id: AvailId) -> Option<&Avail> {
        self.avails.iter().find(|a| a.id == id)
    }

    /// RCCs belonging to `avail`, sorted by creation date.
    pub fn rccs_of(&self, avail: AvailId) -> &[Rcc] {
        match self.by_avail.get(&avail) {
            Some(&(s, e)) => &self.rccs[s..e],
            None => &[],
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
            n_rccs: self.rccs.len(),
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

/// Per-avail `(start, end)` ranges over an RCC table already sorted by
/// `(avail, created, id)`.
fn build_ranges(rccs: &[Rcc], n_avails: usize) -> FxHashMap<AvailId, (usize, usize)> {
    let mut by_avail = FxHashMap::with_capacity_and_hasher(n_avails, Default::default());
    let mut start = 0usize;
    while start < rccs.len() {
        let aid = rccs[start].avail;
        let mut end = start + 1;
        while end < rccs.len() && rccs[end].avail == aid {
            end += 1;
        }
        by_avail.insert(aid, (start, end));
        start = end;
    }
    by_avail
}

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
