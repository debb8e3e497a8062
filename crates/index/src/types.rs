//! Shared types for Status Query processing.
//!
//! The index structures of Section 4 store `(t*_start, t*_end, ID)` per RCC:
//! the creation and settlement positions of the RCC mapped onto its avail's
//! logical timeline (Equation 1), plus a dense row id back into the RCC
//! table. All three index designs (naive join, dual AVL, interval tree)
//! answer the four retrieval sets of Equations 3–6 at a logical timestamp.

use domd_data::avail::AvailId;
use domd_data::dataset::Dataset;
use domd_data::rcc::RccStatus;
use std::cmp::Ordering;

/// A dense row id into the RCC table slice the index was built from.
pub type RowId = u32;

/// Totally-ordered `f64` wrapper so logical times can key search trees.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One RCC projected onto the logical timeline: `(t*_start, t*_end, ID)`
/// plus its owning avail (needed for per-avail feature grouping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicalRcc {
    /// Dense row id into the source RCC slice.
    pub id: RowId,
    /// Owning avail.
    pub avail: AvailId,
    /// Logical creation position `t*_start` (percent of planned duration).
    pub start: f64,
    /// Logical settlement position `t*_end`; `start <= end` always.
    pub end: f64,
}

impl LogicalRcc {
    /// Status of this RCC at logical time `t_star` (Equations 3–6).
    pub fn status_at(&self, t_star: f64) -> RccStatus {
        domd_data::rcc::status_at(self.start, self.end, t_star)
    }
}

/// Projects every RCC of `dataset` onto its avail's logical timeline.
/// Row ids are positions in `dataset.rccs()`. The avail is resolved once
/// per partition, not once per row.
pub fn project_dataset(dataset: &Dataset) -> Vec<LogicalRcc> {
    let mut out = Vec::with_capacity(dataset.rccs().len());
    for (avail, rows) in dataset.partitions() {
        // domd-lint: allow(no-panic) — the generator and loaders only emit RCCs for avails present in the table
        let a = dataset.avail(avail).expect("RCC references existing avail");
        let planned = a.planned_duration().max(1);
        for r in rows {
            let start = domd_data::logical_time(r.created, a.actual_start, planned);
            let end = domd_data::logical_time(r.settled, a.actual_start, planned);
            out.push(LogicalRcc { id: out.len() as RowId, avail, start, end });
        }
    }
    out
}

/// Heap-memory accounting used for the Table 6 comparison: exact owned
/// heap bytes of an index structure (excluding the shallow `size_of` of the
/// handle itself).
pub trait HeapSize {
    /// Owned heap bytes reachable from `self`.
    fn heap_bytes(&self) -> usize;
}

impl<T> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_data::{generate, GeneratorConfig};

    #[test]
    fn ordered_f64_total_order() {
        let mut v = vec![OrderedF64(3.0), OrderedF64(-1.0), OrderedF64(2.5)];
        v.sort();
        assert_eq!(v, vec![OrderedF64(-1.0), OrderedF64(2.5), OrderedF64(3.0)]);
        assert!(OrderedF64(f64::NAN) == OrderedF64(f64::NAN)); // total_cmp semantics
    }

    #[test]
    fn projection_matches_dataset() {
        let cfg = GeneratorConfig { n_avails: 10, target_rccs: 500, scale: 1, seed: 3 };
        let ds = generate(&cfg);
        let proj = project_dataset(&ds);
        assert_eq!(proj.len(), ds.rccs().len());
        for (i, (lr, r)) in proj.iter().zip(ds.rccs()).enumerate() {
            assert_eq!(lr.id as usize, i);
            assert!(lr.start <= lr.end, "interval must be well formed");
            assert_eq!(lr.avail, r.avail);
            // Durations of at least a day map to a positive logical width.
            assert!(lr.end > lr.start);
        }
    }

    #[test]
    fn vec_heap_bytes_tracks_capacity() {
        let v: Vec<u64> = Vec::with_capacity(16);
        assert_eq!(v.heap_bytes(), 16 * 8);
    }
}
