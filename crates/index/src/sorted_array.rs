//! Sorted event-array index (extension arm of the Section 4.1 study).
//!
//! Two flat arrays — `(start, id)` sorted by start and `(end, id)` sorted
//! by end — answer every Status Query predicate with a binary search plus
//! a sequential prefix scan. For a *static* RCC table this is the optimum
//! on every axis (creation = two sorts, memory = 32 bytes/RCC, queries =
//! branch-free scans); what it cannot do is O(log n) insert/delete, which
//! is exactly the capability the paper's dual-AVL design pays its extra
//! memory for. Including it quantifies that trade.

use crate::traits::LogicalTimeIndex;
use crate::types::{HeapSize, LogicalRcc, RowId};

/// `(position, id)` event entry.
type Event = (f64, RowId);

/// The sorted event-array index.
#[derive(Debug, Clone, Default)]
pub struct SortedArrayIndex {
    /// `(start, id)` ascending by start, then id.
    by_start: Vec<Event>,
    /// `(end, id)` ascending by end, then id.
    by_end: Vec<Event>,
    /// `ends[i]` = logical end of the RCC with row id `i` (for the stab
    /// filter during start-prefix scans).
    ends: Vec<f64>,
}

impl SortedArrayIndex {
    fn prefix_len(events: &[Event], bound: f64) -> usize {
        events.partition_point(|&(pos, _)| pos <= bound)
    }
}

impl HeapSize for SortedArrayIndex {
    fn heap_bytes(&self) -> usize {
        self.by_start.capacity() * std::mem::size_of::<Event>()
            + self.by_end.capacity() * std::mem::size_of::<Event>()
            + self.ends.capacity() * std::mem::size_of::<f64>()
    }
}

impl LogicalTimeIndex for SortedArrayIndex {
    fn name(&self) -> &'static str {
        "sorted-array"
    }

    fn build(rccs: &[LogicalRcc]) -> Self {
        let mut by_start: Vec<Event> = rccs.iter().map(|r| (r.start, r.id)).collect();
        by_start.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut by_end: Vec<Event> = rccs.iter().map(|r| (r.end, r.id)).collect();
        by_end.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Dense row ids are positions; fall back to max-id sizing if sparse.
        let max_id = rccs.iter().map(|r| r.id).max().map_or(0, |m| m as usize + 1);
        let mut ends = vec![f64::NEG_INFINITY; max_id];
        for r in rccs {
            ends[r.id as usize] = r.end;
        }
        SortedArrayIndex { by_start, by_end, ends }
    }

    fn len(&self) -> usize {
        self.by_start.len()
    }

    fn active_at(&self, t_star: f64) -> Vec<RowId> {
        let n = Self::prefix_len(&self.by_start, t_star);
        let mut out: Vec<RowId> = self.by_start[..n]
            .iter()
            .filter(|&&(_, id)| self.ends[id as usize] > t_star)
            .map(|&(_, id)| id)
            .collect();
        out.sort_unstable();
        out
    }

    fn settled_by(&self, t_star: f64) -> Vec<RowId> {
        let n = Self::prefix_len(&self.by_end, t_star);
        let mut out: Vec<RowId> = self.by_end[..n].iter().map(|&(_, id)| id).collect();
        out.sort_unstable();
        out
    }

    fn created_by(&self, t_star: f64) -> Vec<RowId> {
        let n = Self::prefix_len(&self.by_start, t_star);
        let mut out: Vec<RowId> = self.by_start[..n].iter().map(|&(_, id)| id).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat_avl::FlatAvlIndex;
    use domd_data::AvailId;
    use rand::{Rng, SeedableRng};

    fn random_rccs(n: u32, seed: u64) -> Vec<LogicalRcc> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let s: f64 = rng.gen_range(0.0..100.0);
                LogicalRcc { id: i, avail: AvailId(1), start: s, end: s + rng.gen_range(0.5..40.0) }
            })
            .collect()
    }

    #[test]
    fn agrees_with_avl_on_random_data() {
        let rccs = random_rccs(1500, 7);
        let sa = SortedArrayIndex::build(&rccs);
        let avl = FlatAvlIndex::build(&rccs);
        for t in [0.0, 13.7, 50.0, 88.8, 139.9, 200.0] {
            assert_eq!(sa.active_at(t), avl.active_at(t), "active at {t}");
            assert_eq!(sa.settled_by(t), avl.settled_by(t), "settled at {t}");
            assert_eq!(sa.created_by(t), avl.created_by(t), "created at {t}");
            assert_eq!(sa.not_created_by(t), avl.not_created_by(t), "not-created at {t}");
        }
    }

    #[test]
    fn most_compact_design() {
        let rccs = random_rccs(10_000, 8);
        let sa = SortedArrayIndex::build(&rccs);
        let avl = FlatAvlIndex::build(&rccs);
        assert!(
            sa.heap_bytes() < avl.heap_bytes(),
            "sorted array {} must undercut the dual AVL {}",
            sa.heap_bytes(),
            avl.heap_bytes()
        );
    }

    #[test]
    fn empty_index() {
        let sa = SortedArrayIndex::build(&[]);
        assert!(sa.is_empty());
        assert!(sa.active_at(50.0).is_empty());
        assert!(sa.settled_by(50.0).is_empty());
    }
}
