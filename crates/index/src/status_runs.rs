//! Per-type run directories: the heavy Status-Query groups answered from
//! maintained totals instead of a scan.
//!
//! The heavy groups of a Status Query are the three RCC-type partitions
//! and their union (Kara/Nikolic/Olteanu/Zhang, PAPERS.md, answer heavy
//! groups from maintained aggregates and keep light ones
//! output-sensitive). For each type, [`TypeRuns`] keeps the live rows
//! twice more: once in `start` order and once in `end` order. Each order
//! is a [`KeyRuns`]: `Arc`-shared runs of `u32` row ids (the keys stay in
//! the arena) beside a flat directory of every run's last key and exact
//! [`Totals`]. `Created(t*)` is then the totals of the runs whose last
//! `start` is `<= t*` plus one partial run, and `Settled(t*)` the same
//! over `end`; `O(n / KEY_RUN + KEY_RUN)` instead of `O(n)`.
//!
//! Totals are exact: counts and day counts are integers, and amounts are
//! added as integers on the `2^-62` grid every admitted amount lies on
//! ([`domd_data::rcc::amount_admitted`]). Differences of totals are
//! therefore exact too, so:
//!
//! * `Active(t*)` is `Created − Settled` over the rows with
//!   `start <= end` (a settled one of those is created). Rows with
//!   `end < start` or a NaN endpoint break that, so they sit in a side
//!   list that is probed row by row with the index's own comparisons.
//! * `NotCreated(t*)` is the type's total minus `Created(t*)`, and an
//!   unfiltered query adds the three types; no answer depends on the
//!   order the rows were added in.
//!
//! Runs are ordered by `(key, row id)` under `f64::total_cmp`, so `-0`
//! sorts before `+0`; `key <= t*` holds on a prefix of that order for
//! every `t*` (none at a NaN `t*`), because the runs hold no NaN key.

use crate::arena::RccArena;
use crate::chunked::SortedRuns;
use crate::status_query::StatusAggregate;
use crate::types::{HeapSize, RowId};
use domd_data::rcc::{RccStatus, RccType, AMOUNT_FRACTION_BITS};
use std::cmp::Ordering;
use std::sync::Arc;

/// Maximum row ids per [`KeyRuns`] run. A query reads at most half a run
/// per order (the shorter side of its cut); an insert copies one run.
pub const KEY_RUN: usize = 256;

/// `2^62`, the amount grid's scale.
const SCALE: f64 = (1u64 << AMOUNT_FRACTION_BITS) as f64;

/// Exact totals of a set of rows: the count, the amounts as integers on
/// the `2^-62` grid, and the durations in days.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Totals {
    count: u64,
    amount: i128,
    duration: i64,
}

impl Totals {
    /// The totals of the one row `row`.
    fn of_row(arena: &RccArena, row: RowId) -> Self {
        let amount = fixed_amount(arena.amount(row));
        Totals { count: 1, amount, duration: arena.duration_days(row) }
    }

    /// The totals of `rows`.
    fn of_rows(arena: &RccArena, rows: &[RowId]) -> Self {
        let mut t = Totals::default();
        for &row in rows {
            t.add_row(arena, row);
        }
        t
    }

    /// Adds `row`'s count, amount and duration.
    pub(crate) fn add_row(&mut self, arena: &RccArena, row: RowId) {
        *self = *self + Totals::of_row(arena, row);
    }

    /// The Status-Query aggregate: the amount sum rounded once, to
    /// nearest with ties to even, from its exact value.
    pub(crate) fn aggregate(self) -> StatusAggregate {
        StatusAggregate {
            count: self.count as usize,
            // The `i128` cast rounds correctly; dividing by a power of two
            // is exact (a nonzero sum is at least `2^-62`, far from
            // subnormal).
            sum_amount: self.amount as f64 / SCALE,
            sum_duration: self.duration as f64,
        }
    }
}

// Wrapping arithmetic: totals of admitted amounts never overflow (see
// `amount_admitted`), and an amount that bypassed admission must still
// not panic a query.
impl std::ops::Add for Totals {
    type Output = Totals;
    fn add(self, o: Totals) -> Totals {
        Totals {
            count: self.count.wrapping_add(o.count),
            amount: self.amount.wrapping_add(o.amount),
            duration: self.duration.wrapping_add(o.duration),
        }
    }
}

impl std::ops::Sub for Totals {
    type Output = Totals;
    fn sub(self, o: Totals) -> Totals {
        Totals {
            count: self.count.wrapping_sub(o.count),
            amount: self.amount.wrapping_sub(o.amount),
            duration: self.duration.wrapping_sub(o.duration),
        }
    }
}

impl std::iter::Sum for Totals {
    fn sum<I: Iterator<Item = Totals>>(iter: I) -> Totals {
        iter.fold(Totals::default(), |a, b| a + b)
    }
}

/// `amount` as an integer multiple of `2^-62`: exact for every admitted
/// amount (below `2^33` in magnitude, on the grid). The whole and the
/// fractional part convert separately, each exactly, through `i64`; an
/// amount outside the window converts to some value without panicking.
fn fixed_amount(amount: f64) -> i128 {
    let whole = amount.trunc();
    // `amount - whole` is exact, and below 1 in magnitude.
    let frac = ((amount - whole) * SCALE) as i64;
    (i128::from(whole as i64) << AMOUNT_FRACTION_BITS) + i128::from(frac)
}

/// `(key, row)` under `f64::total_cmp`, then row id: the order of a
/// [`KeyRuns`].
fn cmp_keyed(a: (f64, RowId), b: (f64, RowId)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// An `f64` as a `u64` whose unsigned order is `f64::total_cmp`'s.
fn order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// One arena key column: `RccArena::start` or `RccArena::end`.
type KeyFn = fn(&RccArena, RowId) -> f64;

/// One run of a [`KeyRuns`] and its directory entry.
#[derive(Debug, Clone)]
struct Run {
    /// Row ids ascending in `(key, row)` order; never empty.
    rows: Arc<Vec<RowId>>,
    /// The last row's key and id.
    last: (f64, RowId),
    /// Exact totals of `rows`.
    totals: Totals,
}

/// Row ids in one key order as `Arc`-shared runs of at most [`KEY_RUN`]
/// ids, with each run's last key and totals in a flat directory. Clones
/// share every run; an insert or removal copies the one run it lands in
/// (splitting it when it overflows).
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyRuns {
    runs: Vec<Run>,
    /// Totals of every run.
    total: Totals,
}

impl KeyRuns {
    /// Packs `rows` (in any order) into full runs sorted by `key`.
    fn build(arena: &RccArena, rows: &[RowId], key: KeyFn) -> Self {
        let mut keyed: Vec<(u64, RowId)> =
            rows.iter().map(|&r| (order_bits(key(arena, r)), r)).collect();
        keyed.sort_unstable();
        let sorted: Vec<RowId> = keyed.into_iter().map(|(_, r)| r).collect();
        let runs: Vec<Run> =
            sorted.chunks(KEY_RUN).map(|c| Run::new(arena, c.to_vec(), key)).collect();
        let total = runs.iter().map(|r| r.totals).sum();
        KeyRuns { runs, total }
    }

    /// Index of the first run whose last entry is at or after `k` (the
    /// run that holds `k` or would receive it); `runs.len()` past the end.
    fn run_at_or_after(&self, k: (f64, RowId)) -> usize {
        self.runs.partition_point(|run| cmp_keyed(run.last, k) == Ordering::Less)
    }

    /// Inserts `row` at its current key.
    fn insert(&mut self, arena: &RccArena, row: RowId, key: KeyFn) {
        let k = (key(arena, row), row);
        let t = Totals::of_row(arena, row);
        self.total = self.total + t;
        let r = self.run_at_or_after(k);
        if r == self.runs.len() {
            // Past every run: append, opening a fresh run after a full
            // one so that an append-only order keeps its runs full.
            match self.runs.last_mut() {
                Some(last) if last.rows.len() < KEY_RUN => {
                    Arc::make_mut(&mut last.rows).push(row);
                    last.last = k;
                    last.totals = last.totals + t;
                }
                _ => self.runs.push(Run { rows: Arc::new(vec![row]), last: k, totals: t }),
            }
            return;
        }
        let run = &mut self.runs[r];
        let rows = Arc::make_mut(&mut run.rows);
        let pos = rows.partition_point(|&id| cmp_keyed((key(arena, id), id), k) == Ordering::Less);
        rows.insert(pos, row);
        run.totals = run.totals + t;
        if rows.len() <= KEY_RUN {
            return;
        }
        let upper = Run::new(arena, rows.split_off(rows.len() / 2), key);
        let lower_last = rows[rows.len() - 1];
        run.last = (key(arena, lower_last), lower_last);
        run.totals = run.totals - upper.totals;
        self.runs.insert(r + 1, upper);
    }

    /// Removes `row`, located by its current key; `false` when absent.
    fn remove(&mut self, arena: &RccArena, row: RowId, key: KeyFn) -> bool {
        let k = (key(arena, row), row);
        let r = self.run_at_or_after(k);
        let found = self.runs.get(r).map(|run| {
            run.rows.binary_search_by(|&id| cmp_keyed((key(arena, id), id), k))
        });
        let Some(Ok(pos)) = found else {
            return false;
        };
        let t = Totals::of_row(arena, row);
        self.total = self.total - t;
        if self.runs[r].rows.len() == 1 {
            self.runs.remove(r);
            return true;
        }
        let run = &mut self.runs[r];
        let rows = Arc::make_mut(&mut run.rows);
        rows.remove(pos);
        run.totals = run.totals - t;
        if pos == rows.len() {
            let last = rows[pos - 1];
            run.last = (key(arena, last), last);
        }
        true
    }

    /// Totals of the rows whose key is `<= t`: the whole runs before the
    /// cut from the directory (summed from whichever end is nearer), plus
    /// the part of the one run the cut falls in (its rows on the shorter
    /// side of the cut, read from the arena).
    fn at_or_below(&self, arena: &RccArena, t: f64, key: KeyFn) -> Totals {
        let r = self.runs.partition_point(|run| run.last.0 <= t);
        let whole: Totals = if r <= self.runs.len() / 2 {
            self.runs[..r].iter().map(|run| run.totals).sum()
        } else {
            self.total - self.runs[r..].iter().map(|run| run.totals).sum()
        };
        let Some(run) = self.runs.get(r) else {
            return whole;
        };
        let cut = run.rows.partition_point(|&id| key(arena, id) <= t);
        if cut <= run.rows.len() / 2 {
            whole + Totals::of_rows(arena, &run.rows[..cut])
        } else {
            whole + run.totals - Totals::of_rows(arena, &run.rows[cut..])
        }
    }

    /// Runs not shared with `base`'s.
    #[cfg(test)]
    fn unshared_runs(&self, base: &Self) -> usize {
        let shared: Vec<*const Vec<RowId>> =
            base.runs.iter().map(|r| Arc::as_ptr(&r.rows)).collect();
        self.runs.iter().filter(|r| !shared.contains(&Arc::as_ptr(&r.rows))).count()
    }

    /// Every run's ids in order, checked against its directory entry.
    #[cfg(test)]
    fn checked_rows(&self, arena: &RccArena, key: KeyFn) -> Vec<RowId> {
        let mut out: Vec<RowId> = Vec::new();
        for run in &self.runs {
            assert!(!run.rows.is_empty() && run.rows.len() <= KEY_RUN);
            let last = run.rows[run.rows.len() - 1];
            assert_eq!(run.last.1, last);
            assert_eq!(run.last.0.to_bits(), key(arena, last).to_bits());
            assert_eq!(run.totals, Totals::of_rows(arena, &run.rows));
            out.extend(run.rows.iter());
        }
        assert!(out
            .windows(2)
            .all(|w| cmp_keyed((key(arena, w[0]), w[0]), (key(arena, w[1]), w[1])).is_lt()));
        assert_eq!(self.total, Totals::of_rows(arena, &out));
        out
    }
}

impl Run {
    fn new(arena: &RccArena, rows: Vec<RowId>, key: KeyFn) -> Self {
        let last_row = rows[rows.len() - 1];
        let totals = Totals::of_rows(arena, &rows);
        Run { rows: Arc::new(rows), last: (key(arena, last_row), last_row), totals }
    }
}

impl HeapSize for KeyRuns {
    fn heap_bytes(&self) -> usize {
        // Each run's ids are one `Arc<Vec>`: counters + `Vec` header, then
        // the ids' own allocation.
        let header = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Vec<RowId>>();
        let runs: usize = self.runs.iter().map(|run| header + run.rows.heap_bytes()).sum();
        self.runs.heap_bytes() + runs
    }
}

/// True when `(start, end)` answers `status` at `t`: the index's own
/// comparisons (DESIGN.md §5), applied row by row.
pub(crate) fn hits(status: RccStatus, t: f64, start: f64, end: f64) -> bool {
    let created = start <= t;
    match status {
        RccStatus::Active => created && end > t,
        RccStatus::Settled => end <= t,
        RccStatus::Created => created,
        RccStatus::NotCreated => !created,
    }
}

/// One RCC type's live rows in `start` and `end` order, with the rows for
/// which `Created − Settled` is not `Active` kept aside.
#[derive(Debug, Clone, Default)]
pub(crate) struct TypeRuns {
    /// Rows with `start <= end`, by `start`.
    by_start: KeyRuns,
    /// The same rows, by `end`.
    by_end: KeyRuns,
    /// Rows with `end < start` or a NaN endpoint, probed one by one.
    side: SortedRuns<RowId>,
}

impl TypeRuns {
    /// The runs of every type over `rows` (each live once).
    pub(crate) fn build(arena: &RccArena, rows: impl IntoIterator<Item = RowId>) -> [TypeRuns; 3] {
        let mut ordered: [Vec<RowId>; 3] = Default::default();
        let mut side: [Vec<RowId>; 3] = Default::default();
        for row in rows {
            let t = arena.rcc_type(row).index();
            if ordered_row(arena, row) {
                ordered[t].push(row);
            } else {
                side[t].push(row);
            }
        }
        RccType::ALL.map(|t| {
            let (ordered, side) = (&ordered[t.index()], &mut side[t.index()]);
            side.sort_unstable();
            TypeRuns {
                by_start: KeyRuns::build(arena, ordered, RccArena::start),
                by_end: KeyRuns::build(arena, ordered, RccArena::end),
                side: SortedRuns::from_sorted(side),
            }
        })
    }

    /// Adds `row` at its current arena keys.
    pub(crate) fn insert(&mut self, arena: &RccArena, row: RowId) {
        if ordered_row(arena, row) {
            self.by_start.insert(arena, row, RccArena::start);
            self.by_end.insert(arena, row, RccArena::end);
        } else {
            self.side.insert(row);
        }
    }

    /// Removes `row`, located by its current arena keys: call before the
    /// arena changes them.
    pub(crate) fn remove(&mut self, arena: &RccArena, row: RowId) {
        if ordered_row(arena, row) {
            self.by_start.remove(arena, row, RccArena::start);
            self.by_end.remove(arena, row, RccArena::end);
        } else {
            self.side.remove(&row);
        }
    }

    /// Exact totals of this type's rows answering `status` at `t`.
    pub(crate) fn totals(&self, arena: &RccArena, status: RccStatus, t: f64) -> Totals {
        let created = || self.by_start.at_or_below(arena, t, RccArena::start);
        let ordered = match status {
            RccStatus::Created => created(),
            RccStatus::Settled => self.by_end.at_or_below(arena, t, RccArena::end),
            RccStatus::Active => created() - self.by_end.at_or_below(arena, t, RccArena::end),
            RccStatus::NotCreated => self.by_start.total - created(),
        };
        let mut side = Totals::default();
        for row in self.side.iter() {
            if hits(status, t, arena.start(row), arena.end(row)) {
                side.add_row(arena, row);
            }
        }
        ordered + side
    }

    /// Runs not shared with `base`'s, over both orders.
    #[cfg(test)]
    pub(crate) fn unshared_runs(&self, base: &Self) -> usize {
        self.by_start.unshared_runs(&base.by_start) + self.by_end.unshared_runs(&base.by_end)
    }

    /// Checks every run and directory entry against the arena, and
    /// returns the rows each order holds plus the side list.
    #[cfg(test)]
    pub(crate) fn checked_rows(&self, arena: &RccArena) -> (Vec<RowId>, Vec<RowId>, Vec<RowId>) {
        let starts = self.by_start.checked_rows(arena, RccArena::start);
        let ends = self.by_end.checked_rows(arena, RccArena::end);
        (starts, ends, self.side.iter().collect())
    }
}

/// True when `row`'s logical `start <= end` (so neither is NaN): it lives
/// in the runs; every other row lives in the side list.
fn ordered_row(arena: &RccArena, row: RowId) -> bool {
    arena.start(row) <= arena.end(row)
}

impl HeapSize for TypeRuns {
    fn heap_bytes(&self) -> usize {
        self.by_start.heap_bytes() + self.by_end.heap_bytes() + self.side.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_amounts_are_exact_on_the_grid() {
        let step = 1.0 / SCALE;
        let below_limit = domd_data::rcc::AMOUNT_LIMIT - 1.0 / 1_048_576.0;
        for (x, want) in [
            (0.0, 0i128),
            (-0.0, 0),
            (step, 1),
            (1.0, 1 << 62),
            (1.5, 3 << 61),
            (-2.25, -(9 << 60)),
            (below_limit, (1i128 << 95) - (1 << 42)),
            (-below_limit, -((1i128 << 95) - (1 << 42))),
        ] {
            assert_eq!(fixed_amount(x), want, "{x}");
        }
        // Every generated-looking amount round-trips through the grid.
        for x in [105.25, 0.001, 2_030_000.123, 7_092_663_637.071801, 3.0e9] {
            assert!(domd_data::rcc::amount_admitted(x));
            assert_eq!((fixed_amount(x) as f64 / SCALE).to_bits(), x.to_bits(), "{x}");
        }
        // Outside the window: no panic.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300, 5e-324] {
            let _ = fixed_amount(x);
        }
    }

    #[test]
    fn order_bits_follow_total_cmp() {
        let xs = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 5e-324, 1.0, f64::INFINITY];
        for w in xs.windows(2) {
            assert!(order_bits(w[0]) < order_bits(w[1]), "{w:?}");
            assert_eq!(w[0].total_cmp(&w[1]), Ordering::Less);
        }
    }
}
