//! Group-by index structures of Algorithm StatusQ: the RCC-Type-Tree and
//! the SWLIN tree (Section 4.2).
//!
//! Status Queries group by RCC type and by SWLIN hierarchy level (Figure 3).
//! * The **RCC-Type-Tree** partitions row ids by the three RCC categories.
//! * The **SWLIN tree** exploits that the 8-digit codes form a radix
//!   hierarchy (Figure 1): sorting `(packed_swlin, id)` pairs makes every
//!   hierarchy node a contiguous range, so "subtree of hierarchies
//!   specified in the GROUP BY conditions" is a pair of binary searches.

use crate::chunked::SortedRuns;
use crate::types::{HeapSize, RowId};
use domd_data::rcc::{RccType, Swlin};

/// Partition of row ids by RCC type, each partition ascending. Partitions
/// are [`SortedRuns`], so an epoch clone shares them and an insert or
/// removal copies one run.
#[derive(Debug, Clone, Default)]
pub struct RccTypeTree {
    by_type: [SortedRuns<RowId>; 3],
}

impl RccTypeTree {
    /// Builds from `(type, id)` pairs (ids need not be presorted).
    pub fn build(rows: impl IntoIterator<Item = (RccType, RowId)>) -> Self {
        let mut ids: [Vec<RowId>; 3] = Default::default();
        for (t, id) in rows {
            ids[t.index()].push(id);
        }
        RccTypeTree {
            by_type: ids.map(|mut v| {
                v.sort_unstable();
                v.dedup();
                SortedRuns::from_sorted(&v)
            }),
        }
    }

    /// Ascending row ids of the given type.
    pub fn ids_of(&self, t: RccType) -> &SortedRuns<RowId> {
        &self.by_type[t.index()]
    }

    /// Inserts one `(type, id)` pair, keeping the partition ascending.
    /// `false` when the id is already present for that type.
    pub fn insert(&mut self, t: RccType, id: RowId) -> bool {
        self.by_type[t.index()].insert(id)
    }

    /// Removes one `(type, id)` pair; `false` when absent.
    pub fn remove(&mut self, t: RccType, id: RowId) -> bool {
        self.by_type[t.index()].remove(&id)
    }

    /// Total rows indexed.
    pub fn len(&self) -> usize {
        self.by_type.iter().map(SortedRuns::len).sum()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs not shared with `base`'s partitions.
    #[cfg(test)]
    pub(crate) fn unshared_runs(&self, base: &Self) -> usize {
        self.by_type.iter().zip(&base.by_type).map(|(a, b)| a.unshared_runs(b)).sum()
    }
}

impl HeapSize for RccTypeTree {
    fn heap_bytes(&self) -> usize {
        self.by_type.iter().map(HeapSize::heap_bytes).sum()
    }
}

/// Radix view of the SWLIN hierarchy: `(packed code, row id)` pairs sorted
/// by code, where each hierarchy node (prefix) owns a contiguous range.
/// The pairs are [`SortedRuns`], so an insert in the middle copies one run.
#[derive(Debug, Clone, Default)]
pub struct SwlinTree {
    entries: SortedRuns<(u32, RowId)>,
}

impl SwlinTree {
    /// Builds from `(swlin, id)` pairs.
    pub fn build(rows: impl IntoIterator<Item = (Swlin, RowId)>) -> Self {
        let mut entries: Vec<(u32, RowId)> =
            rows.into_iter().map(|(w, id)| (w.packed(), id)).collect();
        entries.sort_unstable();
        entries.dedup();
        SwlinTree { entries: SortedRuns::from_sorted(&entries) }
    }

    /// Total rows indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts one `(swlin, id)` pair, keeping entries sorted. `false` when
    /// the exact pair is already present.
    pub fn insert(&mut self, swlin: Swlin, id: RowId) -> bool {
        self.entries.insert((swlin.packed(), id))
    }

    /// Removes one `(swlin, id)` pair; `false` when absent.
    pub fn remove(&mut self, swlin: Swlin, id: RowId) -> bool {
        self.entries.remove(&(swlin.packed(), id))
    }

    /// The entries of the hierarchy node `prefix` at depth `len` digits
    /// (e.g. `prefix=434, len=3` for subtree "434"), in code order. A depth
    /// outside `1..=8`, or a prefix with more than `len` digits, names no
    /// node and yields nothing.
    pub fn range_for_prefix(
        &self,
        prefix: u32,
        len: u32,
    ) -> impl Iterator<Item = (u32, RowId)> + '_ {
        let (lo, hi) = if len == 0 { (0, 0) } else { code_bounds(prefix, len) };
        self.entries.range((lo, 0), (hi, 0))
    }

    /// Ascending row ids under the hierarchy node `prefix` at depth `len`.
    pub fn ids_for_prefix(&self, prefix: u32, len: u32) -> Vec<RowId> {
        let mut ids: Vec<RowId> = self.range_for_prefix(prefix, len).map(|(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// The distinct child prefixes (one digit deeper) under `prefix`/`len`;
    /// `len = 0` with `prefix = 0` enumerates the root's children (first
    /// digits present in the data).
    pub fn child_prefixes(&self, prefix: u32, len: u32) -> Vec<u32> {
        assert!(len < 8, "SWLIN codes have 8 digits");
        assert!(len > 0 || prefix == 0, "root enumeration takes prefix 0");
        let (lo, hi) = code_bounds(prefix, len);
        let unit = 10u32.pow(8 - (len + 1));
        let mut out = Vec::new();
        for (w, _) in self.entries.range((lo, 0), (hi, 0)) {
            let child = w / unit;
            if out.last() != Some(&child) {
                out.push(child);
            }
        }
        out
    }

    /// Runs not shared with `base`'s entries.
    #[cfg(test)]
    pub(crate) fn unshared_runs(&self, base: &Self) -> usize {
        self.entries.unshared_runs(&base.entries)
    }
}

/// Code bounds `lo..hi` of the hierarchy node `prefix` at depth `len`
/// (`len = 0` is the root: every code), computed in `u64` so no prefix
/// overflows; `0..0` when `len > 8` or `prefix` has more than `len` digits.
fn code_bounds(prefix: u32, len: u32) -> (u32, u32) {
    const CODES: u64 = 100_000_000;
    let Some(unit) = 8u32.checked_sub(len).map(|d| 10u64.pow(d)) else {
        return (0, 0);
    };
    let lo = u64::from(prefix) * unit;
    if lo + unit > CODES {
        return (0, 0);
    }
    (lo as u32, (lo + unit) as u32)
}

impl HeapSize for SwlinTree {
    fn heap_bytes(&self) -> usize {
        self.entries.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> Swlin {
        s.parse().unwrap()
    }

    fn ids(t: &RccTypeTree, ty: RccType) -> Vec<RowId> {
        t.ids_of(ty).iter().collect()
    }

    #[test]
    fn type_tree_partitions() {
        let t = RccTypeTree::build([
            (RccType::Growth, 3),
            (RccType::NewWork, 1),
            (RccType::Growth, 0),
            (RccType::NewGrowth, 2),
        ]);
        assert_eq!(ids(&t, RccType::Growth), [0, 3]);
        assert_eq!(ids(&t, RccType::NewWork), [1]);
        assert_eq!(ids(&t, RccType::NewGrowth), [2]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn swlin_prefix_ranges() {
        let t = SwlinTree::build([
            (w("434-11-001"), 0),
            (w("434-12-900"), 1),
            (w("435-00-000"), 2),
            (w("911-90-001"), 3),
            (w("430-00-000"), 4),
        ]);
        assert_eq!(t.ids_for_prefix(4, 1), vec![0, 1, 2, 4]);
        assert_eq!(t.ids_for_prefix(43, 2), vec![0, 1, 2, 4]);
        assert_eq!(t.ids_for_prefix(434, 3), vec![0, 1]);
        assert_eq!(t.ids_for_prefix(43411, 5), vec![0]);
        assert_eq!(t.ids_for_prefix(9, 1), vec![3]);
        assert!(t.ids_for_prefix(5, 1).is_empty());
    }

    #[test]
    fn swlin_children_enumeration() {
        let t = SwlinTree::build([
            (w("434-11-001"), 0),
            (w("435-00-000"), 1),
            (w("911-90-001"), 2),
            (w("100-00-000"), 3),
        ]);
        assert_eq!(t.child_prefixes(0, 0), vec![1, 4, 9]);
        assert_eq!(t.child_prefixes(4, 1), vec![43]);
        assert_eq!(t.child_prefixes(43, 2), vec![434, 435]);
    }

    #[test]
    fn full_depth_prefix_is_exact_code() {
        let t = SwlinTree::build([(w("434-11-001"), 7), (w("434-11-002"), 8)]);
        assert_eq!(t.ids_for_prefix(43411001, 8), vec![7]);
        assert_eq!(t.ids_for_prefix(43411002, 8), vec![8]);
    }

    #[test]
    fn type_tree_dynamic_maintenance() {
        let mut t = RccTypeTree::build([(RccType::Growth, 0), (RccType::Growth, 4)]);
        assert!(t.insert(RccType::Growth, 2));
        assert!(!t.insert(RccType::Growth, 2), "duplicate rejected");
        assert_eq!(ids(&t, RccType::Growth), [0, 2, 4]);
        assert!(t.remove(RccType::Growth, 0));
        assert!(!t.remove(RccType::Growth, 0), "double remove rejected");
        assert_eq!(ids(&t, RccType::Growth), [2, 4]);
    }

    #[test]
    fn swlin_tree_dynamic_maintenance() {
        let mut t = SwlinTree::build([(w("434-11-001"), 0), (w("911-90-001"), 1)]);
        assert!(t.insert(w("435-00-000"), 2));
        assert!(!t.insert(w("435-00-000"), 2), "duplicate rejected");
        assert_eq!(t.ids_for_prefix(4, 1), vec![0, 2]);
        assert!(t.remove(w("434-11-001"), 0));
        assert!(!t.remove(w("434-11-001"), 0), "double remove rejected");
        assert_eq!(t.ids_for_prefix(4, 1), vec![2]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn prefix_ranges_are_total() {
        let t = SwlinTree::build([
            (w("000-00-001"), 0),
            (w("123-45-678"), 1),
            (w("999-99-999"), 2),
        ]);
        // Depths outside 1..=8 and prefixes wider than their depth name no
        // node: empty, never a panic or a wrapped bound.
        let nodes = [(1, 0), (1, 9), (0, u32::MAX), (12_345_678, 5), (u32::MAX, 1), (10, 1)];
        for (prefix, len) in nodes {
            assert_eq!(t.range_for_prefix(prefix, len).count(), 0, "({prefix}, {len})");
        }
        assert_eq!(t.ids_for_prefix(9, 1), vec![2], "the last node's bound is exclusive 10^8");
        assert_eq!(t.ids_for_prefix(99_999_999, 8), vec![2]);
        assert_eq!(t.ids_for_prefix(1, 8), vec![0]);
        assert_eq!(t.ids_for_prefix(12_345, 5), vec![1]);
    }

    #[test]
    fn leading_zero_codes_sort_first() {
        let t = SwlinTree::build([(w("004-11-001"), 0), (w("434-11-001"), 1)]);
        assert_eq!(t.ids_for_prefix(0, 1), vec![0]);
        assert_eq!(t.child_prefixes(0, 0), vec![0, 4]);
    }
}
