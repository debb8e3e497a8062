//! Columnar RCC arena: struct-of-arrays storage for the RCC table.
//!
//! The row-oriented `Rcc` struct interleaves every attribute (dates, SWLIN,
//! amount, type) in one ~40-byte record, so a Status Query aggregation that
//! only touches amounts and durations still drags whole records through the
//! cache. The arena stores each attribute in its own column — ids, avail,
//! type, the packed SWLIN code, created / settled as `i32` day offsets from
//! a common base date, settled amount, and the logical projection
//! (`t*_start`, `t*_end` of Equation 1) — so hot loops read exactly the
//! columns they need and indexes hold `u32` row ids into the arena instead
//! of owned or cloned records.
//!
//! Each column is a [`ChunkedVec`]: fixed chunks shared between clones.
//! `domd serve` clones the arena for every ingest epoch, and that clone
//! copies only chunk pointers; appending a row copies the columns' last
//! chunks and re-settling one copies the chunk that holds it, so an epoch
//! costs `O(k)` chunk copies for `k` touched rows instead of the whole
//! table.
//!
//! Bit-identity contract: the logical positions stored here are the *same*
//! `f64` values [`project_dataset`] produces (they are taken verbatim, or
//! computed with the identical `domd_data::logical_time` call on `push`),
//! and `duration(row)` reproduces `f64::from(rcc.duration_days())` exactly
//! because day offsets subtract to the same integer.

use crate::chunked::ChunkedVec;
use crate::types::{HeapSize, LogicalRcc, RowId};
use domd_data::avail::{Avail, AvailId};
use domd_data::dataset::Dataset;
use domd_data::date::Date;
use domd_data::rcc::{Rcc, RccType, Swlin};

use crate::types::project_dataset;

/// Struct-of-arrays RCC table with day-offset dates, one chunk-shared
/// column per attribute.
#[derive(Debug, Clone)]
pub struct RccArena {
    /// Base date; `created`/`settled` are day offsets from it.
    base: Date,
    /// External RCC identifier per row.
    rcc_ids: ChunkedVec<u32>,
    /// Owning avail per row.
    avails: ChunkedVec<AvailId>,
    /// RCC category per row (1 byte each).
    types: ChunkedVec<RccType>,
    /// SWLIN per row (its packed 8-digit code).
    swlins: ChunkedVec<Swlin>,
    /// Creation date as days since `base` (may be negative).
    created: ChunkedVec<i32>,
    /// Settled date as days since `base`.
    settled: ChunkedVec<i32>,
    /// Settled amount ($) per row.
    amounts: ChunkedVec<f64>,
    /// Logical creation position `t*_start` (Equation 1).
    starts: ChunkedVec<f64>,
    /// Logical settlement position `t*_end`.
    ends: ChunkedVec<f64>,
}

impl RccArena {
    /// Builds the arena for `dataset`, computing the logical projection
    /// itself (identical to [`project_dataset`]).
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let projected = project_dataset(dataset);
        Self::from_projected(dataset, &projected)
    }

    /// Builds the arena for `dataset` taking logical positions verbatim
    /// from `projected` (`projected[i]` must describe `dataset.rccs()[i]`),
    /// so arena-backed paths are bit-identical to record-backed ones no
    /// matter how the caller produced the projection.
    pub fn from_projected(dataset: &Dataset, projected: &[LogicalRcc]) -> Self {
        let rccs = dataset.rccs();
        assert_eq!(rccs.len(), projected.len(), "projection must cover the RCC table");
        let base = rccs.iter().map(|r| r.created).min().unwrap_or(Date::from_days(0));
        RccArena {
            base,
            rcc_ids: rccs.iter().map(|r| r.id.0).collect(),
            avails: rccs.iter().map(|r| r.avail).collect(),
            types: rccs.iter().map(|r| r.rcc_type).collect(),
            swlins: rccs.iter().map(|r| r.swlin).collect(),
            created: rccs.iter().map(|r| r.created - base).collect(),
            settled: rccs.iter().map(|r| r.settled - base).collect(),
            amounts: rccs.iter().map(|r| r.amount).collect(),
            starts: projected.iter().map(|lr| lr.start).collect(),
            ends: projected.iter().map(|lr| lr.end).collect(),
        }
    }

    /// Appends one RCC, computing its logical projection from `avail`
    /// exactly as [`project_dataset`] does. Returns the new dense row id.
    pub fn push(&mut self, rcc: &Rcc, avail: &Avail) -> RowId {
        assert_eq!(rcc.avail, avail.id, "RCC must reference the given avail");
        let planned = avail.planned_duration().max(1);
        let start = domd_data::logical_time(rcc.created, avail.actual_start, planned);
        let end = domd_data::logical_time(rcc.settled, avail.actual_start, planned);
        let row = self.len() as RowId;
        self.rcc_ids.push(rcc.id.0);
        self.avails.push(rcc.avail);
        self.types.push(rcc.rcc_type);
        self.swlins.push(rcc.swlin);
        self.created.push(rcc.created - self.base);
        self.settled.push(rcc.settled - self.base);
        self.amounts.push(rcc.amount);
        self.starts.push(start);
        self.ends.push(end);
        row
    }

    /// Re-settles `row` at `settled`, recomputing the logical end with the
    /// identical `domd_data::logical_time` call [`Self::push`] uses, so a
    /// settled row is bit-identical to one freshly pushed with that date.
    pub fn settle(&mut self, row: RowId, settled: Date, avail: &Avail) {
        assert_eq!(self.avails[row as usize], avail.id, "row must belong to the given avail");
        let planned = avail.planned_duration().max(1);
        self.settled.set(row as usize, settled - self.base);
        self.ends.set(row as usize, domd_data::logical_time(settled, avail.actual_start, planned));
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.amounts.len()
    }

    /// True when the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.amounts.is_empty()
    }

    /// External RCC identifier of `row`.
    pub fn rcc_id(&self, row: RowId) -> u32 {
        self.rcc_ids[row as usize]
    }

    /// Owning avail of `row`.
    pub fn avail(&self, row: RowId) -> AvailId {
        self.avails[row as usize]
    }

    /// RCC category of `row`.
    pub fn rcc_type(&self, row: RowId) -> RccType {
        self.types[row as usize]
    }

    /// SWLIN code of `row`.
    pub fn swlin(&self, row: RowId) -> Swlin {
        self.swlins[row as usize]
    }

    /// Creation date of `row`.
    pub fn created(&self, row: RowId) -> Date {
        self.base + self.created[row as usize]
    }

    /// Settled date of `row`.
    pub fn settled(&self, row: RowId) -> Date {
        self.base + self.settled[row as usize]
    }

    /// Settled amount ($) of `row`.
    pub fn amount(&self, row: RowId) -> f64 {
        self.amounts[row as usize]
    }

    /// Duration in days of `row` as `f64`; bit-identical to
    /// `f64::from(rcc.duration_days())` because the day offsets subtract to
    /// the same integer.
    pub fn duration(&self, row: RowId) -> f64 {
        f64::from(self.settled[row as usize] - self.created[row as usize])
    }

    /// Duration in days of `row`, the integer [`Self::duration`] converts
    /// (computed in `i64`, so no pair of day offsets overflows it).
    pub fn duration_days(&self, row: RowId) -> i64 {
        i64::from(self.settled[row as usize]) - i64::from(self.created[row as usize])
    }

    /// Logical creation position of `row`.
    pub fn start(&self, row: RowId) -> f64 {
        self.starts[row as usize]
    }

    /// Logical settlement position of `row`.
    pub fn end(&self, row: RowId) -> f64 {
        self.ends[row as usize]
    }

    /// The full logical projection record of `row`.
    pub fn logical(&self, row: RowId) -> LogicalRcc {
        let i = row as usize;
        LogicalRcc { id: row, avail: self.avails[i], start: self.starts[i], end: self.ends[i] }
    }

    /// Materializes the projection records (for `LogicalTimeIndex::build`).
    pub fn projected(&self) -> Vec<LogicalRcc> {
        (0..self.len() as RowId).map(|row| self.logical(row)).collect()
    }

    /// Iterator over `(type, row)` pairs for group-tree construction.
    pub fn type_rows(&self) -> impl Iterator<Item = (RccType, RowId)> + '_ {
        self.types.iter().zip(0..)
    }

    /// Iterator over `(swlin, row)` pairs for group-tree construction.
    pub fn swlin_rows(&self) -> impl Iterator<Item = (Swlin, RowId)> + '_ {
        self.swlins.iter().zip(0..)
    }

    /// Column chunks not shared with `base`'s columns.
    #[cfg(test)]
    pub(crate) fn unshared_chunks(&self, base: &Self) -> usize {
        self.rcc_ids.unshared_chunks(&base.rcc_ids)
            + self.avails.unshared_chunks(&base.avails)
            + self.types.unshared_chunks(&base.types)
            + self.swlins.unshared_chunks(&base.swlins)
            + self.created.unshared_chunks(&base.created)
            + self.settled.unshared_chunks(&base.settled)
            + self.amounts.unshared_chunks(&base.amounts)
            + self.starts.unshared_chunks(&base.starts)
            + self.ends.unshared_chunks(&base.ends)
    }
}

impl HeapSize for RccArena {
    fn heap_bytes(&self) -> usize {
        self.rcc_ids.heap_bytes()
            + self.avails.heap_bytes()
            + self.types.heap_bytes()
            + self.swlins.heap_bytes()
            + self.created.heap_bytes()
            + self.settled.heap_bytes()
            + self.amounts.heap_bytes()
            + self.starts.heap_bytes()
            + self.ends.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_data::{generate, GeneratorConfig};

    fn dataset() -> Dataset {
        generate(&GeneratorConfig { n_avails: 10, target_rccs: 800, scale: 1, seed: 21 })
    }

    #[test]
    fn columns_match_records() {
        let ds = dataset();
        let arena = RccArena::from_dataset(&ds);
        assert_eq!(arena.len(), ds.rccs().len());
        for (i, r) in ds.rccs().iter().enumerate() {
            let row = i as RowId;
            assert_eq!(arena.rcc_id(row), r.id.0);
            assert_eq!(arena.avail(row), r.avail);
            assert_eq!(arena.rcc_type(row), r.rcc_type);
            assert_eq!(arena.swlin(row), r.swlin);
            assert_eq!(arena.created(row), r.created);
            assert_eq!(arena.settled(row), r.settled);
            assert_eq!(arena.amount(row).to_bits(), r.amount.to_bits());
            assert_eq!(arena.duration(row).to_bits(), f64::from(r.duration_days()).to_bits());
        }
    }

    #[test]
    fn projection_is_bit_identical() {
        let ds = dataset();
        let proj = project_dataset(&ds);
        let arena = RccArena::from_projected(&ds, &proj);
        for (row, lr) in proj.iter().enumerate() {
            let got = arena.logical(row as RowId);
            assert_eq!(got.id, lr.id);
            assert_eq!(got.avail, lr.avail);
            assert_eq!(got.start.to_bits(), lr.start.to_bits());
            assert_eq!(got.end.to_bits(), lr.end.to_bits());
        }
        assert_eq!(arena.projected().len(), proj.len());
    }

    #[test]
    fn push_matches_from_dataset() {
        let ds = dataset();
        let bulk = RccArena::from_dataset(&ds);
        let mut grown = RccArena::from_projected(
            &Dataset::default(),
            &[],
        );
        // Same base as the bulk arena so day offsets agree.
        grown.base = bulk.base;
        for r in ds.rccs() {
            let a = ds.avail(r.avail).expect("avail exists");
            grown.push(r, a);
        }
        assert_eq!(grown.len(), bulk.len());
        for row in 0..bulk.len() as RowId {
            assert_eq!(grown.created(row), bulk.created(row));
            assert_eq!(grown.start(row).to_bits(), bulk.start(row).to_bits());
            assert_eq!(grown.end(row).to_bits(), bulk.end(row).to_bits());
        }
    }

    #[test]
    fn empty_arena() {
        let arena = RccArena::from_dataset(&Dataset::default());
        assert!(arena.is_empty());
        assert!(arena.projected().is_empty());
    }

    #[test]
    fn heap_bytes_counts_every_column() {
        let ds = dataset();
        let arena = RccArena::from_dataset(&ds);
        let n = arena.len();
        // Lower bound: the nine per-row columns alone.
        let per_row = 4 + 4 + 1 + 4 + 4 + 4 + 8 + 8 + 8;
        assert!(arena.heap_bytes() >= n * per_row, "heap accounting misses columns");
    }
}
