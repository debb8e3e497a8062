//! The retrieval interface every logical-time index design implements
//! (Equations 3–6 of the paper).

use crate::types::{HeapSize, LogicalRcc, RowId};

/// An index over `(t*_start, t*_end, ID)` triples answering the four
/// Status Query retrieval sets at any logical timestamp `t*`:
///
/// * `R^A` — **active**: point/stab query at `t*` (`start <= t* < end`);
/// * `R^S` — **settled**: overlap with `(-inf, t*]` on the end position
///   (`end <= t*`);
/// * `R^C` — **created**: `R^A ∪ R^S` (`start <= t*`);
/// * `R^N` — **not created**: the complement of `R^C`.
///
/// Implementations must return row ids in ascending order so set algebra
/// over results is cheap and deterministic.
pub trait LogicalTimeIndex: HeapSize {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// Builds the index over the given projected RCCs.
    fn build(rccs: &[LogicalRcc]) -> Self
    where
        Self: Sized;

    /// Number of indexed RCCs.
    fn len(&self) -> usize;

    /// True when no RCCs are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `R^A_{t*}`: ids of RCCs active at `t_star`, ascending.
    fn active_at(&self, t_star: f64) -> Vec<RowId>;

    /// `R^S_{t*}`: ids of RCCs settled by `t_star`, ascending.
    fn settled_by(&self, t_star: f64) -> Vec<RowId>;

    /// `R^C_{t*}`: ids of RCCs created by `t_star`, ascending.
    /// Default: merge of active and settled (they are disjoint).
    fn created_by(&self, t_star: f64) -> Vec<RowId> {
        let a = self.active_at(t_star);
        let s = self.settled_by(t_star);
        merge_disjoint_sorted(&a, &s)
    }

    /// `R^N_{t*}`: ids of RCCs not yet created at `t_star`, ascending.
    /// Default: complement of `created_by` against the dense id universe.
    fn not_created_by(&self, t_star: f64) -> Vec<RowId> {
        let created = self.created_by(t_star);
        complement_sorted(&created, self.len() as RowId)
    }
}

/// A [`LogicalTimeIndex`] supporting the O(log n) dynamic maintenance of
/// Section 4.1, with a monotone *epoch* counter: every successful mutation
/// bumps it, so anything derived from an older epoch is recognizably stale.
pub trait MaintainableIndex: LogicalTimeIndex {
    /// Inserts one projected RCC; `false` if `(positions, id)` already exist.
    fn insert_logical(&mut self, rcc: &LogicalRcc) -> bool;

    /// Removes one projected RCC; `false` when absent.
    fn remove_logical(&mut self, rcc: &LogicalRcc) -> bool;

    /// Mutation counter; bumped by every successful insert/remove.
    fn current_epoch(&self) -> u64;
}

/// Merges two ascending, disjoint id lists into one ascending list.
pub(crate) fn merge_disjoint_sorted(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Ascending ids in `0..universe` that are absent from ascending `present`.
pub(crate) fn complement_sorted(present: &[RowId], universe: RowId) -> Vec<RowId> {
    let mut out = Vec::with_capacity(universe as usize - present.len());
    let mut j = 0usize;
    for id in 0..universe {
        if j < present.len() && present[j] == id {
            j += 1;
        } else {
            out.push(id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_preserves_order() {
        assert_eq!(merge_disjoint_sorted(&[1, 4, 9], &[2, 3, 10]), vec![1, 2, 3, 4, 9, 10]);
        assert_eq!(merge_disjoint_sorted(&[], &[5]), vec![5]);
        assert_eq!(merge_disjoint_sorted(&[5], &[]), vec![5]);
    }

    #[test]
    fn complement_basics() {
        assert_eq!(complement_sorted(&[1, 3], 5), vec![0, 2, 4]);
        assert_eq!(complement_sorted(&[], 3), vec![0, 1, 2]);
        assert_eq!(complement_sorted(&[0, 1, 2], 3), Vec::<RowId>::new());
    }
}
