//! Dual-AVL-tree index (Section 4.1), stored as struct-of-arrays columns.
//!
//! The paper's AVL design keeps two self-balancing binary search trees —
//! one keyed on RCC logical *start* positions, one on logical *end*
//! positions — so both Status Query predicates (`creation_date <= t*`,
//! `settled_date <= t*`) are prefix range scans. Each node also carries the
//! opposite endpoint so the stab query (active set) is a filtered range
//! scan without a second lookup.
//!
//! `FlatAvlTree` splits the node into parallel columns (`keys`, `others`,
//! `ids`, `lefts`, `rights`, `heights`) with `u32` child links, built in
//! *in-order* arena positions by [`FlatAvlTree::build_from_sorted`], so the
//! pruned range scans of the incremental sweep walk the 8-byte key column
//! sequentially and touch the payload columns only for rows that match.
//! Inserts and removals keep the O(log n) dynamic maintenance of
//! Section 4.1; removed slots are reused by later inserts.
//!
//! Each column is a [`ChunkedVec`], so a clone (one per `domd serve`
//! ingest epoch) shares every chunk. An insert or removal copies only the
//! chunks it writes: the new node's slot at the tail, plus the path nodes
//! whose link or height actually changes — links and heights are written
//! only when the value differs, so an unchanged ancestor stays shared.

use crate::chunked::ChunkedVec;
use crate::traits::{LogicalTimeIndex, MaintainableIndex};
use crate::types::{HeapSize, LogicalRcc, RowId};

const NIL: u32 = u32::MAX;

/// An AVL tree over `(key, id)` pairs with payload `other`, stored as
/// parallel chunk-shared columns.
#[derive(Debug, Clone)]
pub struct FlatAvlTree {
    /// Sort key per arena slot.
    keys: ChunkedVec<f64>,
    /// Opposite endpoint per slot (carried for stab queries).
    others: ChunkedVec<f64>,
    /// RCC row id per slot; also the key tiebreaker.
    ids: ChunkedVec<RowId>,
    lefts: ChunkedVec<u32>,
    rights: ChunkedVec<u32>,
    heights: ChunkedVec<u8>,
    root: u32,
    /// Slots freed by `remove`, reused by `insert`.
    free: Vec<u32>,
    len: usize,
    /// True while slots are in in-order (sorted-by-key) positions — set by
    /// [`FlatAvlTree::build_from_sorted`], cleared by any mutation.
    sorted_layout: bool,
}

impl Default for FlatAvlTree {
    fn default() -> Self {
        FlatAvlTree::new()
    }
}

impl FlatAvlTree {
    /// An empty tree.
    pub fn new() -> Self {
        FlatAvlTree {
            keys: ChunkedVec::new(),
            others: ChunkedVec::new(),
            ids: ChunkedVec::new(),
            lefts: ChunkedVec::new(),
            rights: ChunkedVec::new(),
            heights: ChunkedVec::new(),
            root: NIL,
            free: Vec::new(),
            len: 0,
            sorted_layout: false,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn height(&self, n: u32) -> i32 {
        if n == NIL {
            0
        } else {
            i32::from(self.heights[n as usize])
        }
    }

    /// Points `n`'s left link at `child`; a no-op when it already does, so
    /// the chunk stays shared with the previous epoch.
    fn set_left(&mut self, n: u32, child: u32) {
        if self.lefts[n as usize] != child {
            self.lefts.set(n as usize, child);
        }
    }

    /// Right-link twin of [`Self::set_left`].
    fn set_right(&mut self, n: u32, child: u32) {
        if self.rights[n as usize] != child {
            self.rights.set(n as usize, child);
        }
    }

    fn update_height(&mut self, n: u32) {
        let h = 1 + self.height(self.lefts[n as usize]).max(self.height(self.rights[n as usize]));
        if i32::from(self.heights[n as usize]) != h {
            self.heights.set(n as usize, h as u8);
        }
    }

    fn balance_factor(&self, n: u32) -> i32 {
        self.height(self.lefts[n as usize]) - self.height(self.rights[n as usize])
    }

    fn rotate_right(&mut self, y: u32) -> u32 {
        let x = self.lefts[y as usize];
        let t2 = self.rights[x as usize];
        self.set_right(x, y);
        self.set_left(y, t2);
        self.update_height(y);
        self.update_height(x);
        x
    }

    fn rotate_left(&mut self, x: u32) -> u32 {
        let y = self.rights[x as usize];
        let t2 = self.lefts[y as usize];
        self.set_left(y, x);
        self.set_right(x, t2);
        self.update_height(x);
        self.update_height(y);
        y
    }

    fn rebalance(&mut self, n: u32) -> u32 {
        self.update_height(n);
        let bf = self.balance_factor(n);
        if bf > 1 {
            if self.balance_factor(self.lefts[n as usize]) < 0 {
                let l = self.lefts[n as usize];
                let rotated = self.rotate_left(l);
                self.set_left(n, rotated);
            }
            self.rotate_right(n)
        } else if bf < -1 {
            if self.balance_factor(self.rights[n as usize]) > 0 {
                let r = self.rights[n as usize];
                let rotated = self.rotate_right(r);
                self.set_right(n, rotated);
            }
            self.rotate_left(n)
        } else {
            n
        }
    }

    fn key_lt(a: (f64, RowId), b: (f64, RowId)) -> bool {
        match a.0.total_cmp(&b.0) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.1 < b.1,
        }
    }

    fn alloc(&mut self, key: f64, other: f64, id: RowId) -> u32 {
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.keys.set(i, key);
            self.others.set(i, other);
            self.ids.set(i, id);
            self.lefts.set(i, NIL);
            self.rights.set(i, NIL);
            self.heights.set(i, 1);
            slot
        } else {
            self.keys.push(key);
            self.others.push(other);
            self.ids.push(id);
            self.lefts.push(NIL);
            self.rights.push(NIL);
            self.heights.push(1);
            (self.keys.len() - 1) as u32
        }
    }

    /// Inserts `(key, id)` with payload `other`. Duplicate `(key, id)` pairs
    /// are rejected (returns `false`).
    pub fn insert(&mut self, key: f64, other: f64, id: RowId) -> bool {
        fn rec(tree: &mut FlatAvlTree, n: u32, key: f64, other: f64, id: RowId) -> (u32, bool) {
            if n == NIL {
                let slot = tree.alloc(key, other, id);
                return (slot, true);
            }
            let nk = (tree.keys[n as usize], tree.ids[n as usize]);
            if (key, id) == nk {
                return (n, false);
            }
            let inserted = if FlatAvlTree::key_lt((key, id), nk) {
                let (child, ok) = rec(tree, tree.lefts[n as usize], key, other, id);
                tree.set_left(n, child);
                ok
            } else {
                let (child, ok) = rec(tree, tree.rights[n as usize], key, other, id);
                tree.set_right(n, child);
                ok
            };
            (tree.rebalance(n), inserted)
        }
        let (root, ok) = rec(self, self.root, key, other, id);
        self.root = root;
        if ok {
            self.len += 1;
            self.sorted_layout = false;
        }
        ok
    }

    /// Removes `(key, id)`; returns `false` when absent.
    pub fn remove(&mut self, key: f64, id: RowId) -> bool {
        fn min_node(tree: &FlatAvlTree, mut n: u32) -> u32 {
            while tree.lefts[n as usize] != NIL {
                n = tree.lefts[n as usize];
            }
            n
        }
        fn rec(tree: &mut FlatAvlTree, n: u32, key: f64, id: RowId) -> (u32, bool) {
            if n == NIL {
                return (NIL, false);
            }
            let nk = (tree.keys[n as usize], tree.ids[n as usize]);
            if (key, id) == nk {
                let (l, r) = (tree.lefts[n as usize], tree.rights[n as usize]);
                let replacement = if l == NIL || r == NIL {
                    tree.free.push(n);
                    if l == NIL {
                        r
                    } else {
                        l
                    }
                } else {
                    // Two children: splice in the in-order successor.
                    let succ = min_node(tree, r);
                    let (sk, so, sid) =
                        (tree.keys[succ as usize], tree.others[succ as usize], tree.ids[succ as usize]);
                    let (new_r, _) = rec(tree, r, sk, sid);
                    tree.keys.set(n as usize, sk);
                    tree.others.set(n as usize, so);
                    tree.ids.set(n as usize, sid);
                    tree.set_right(n, new_r);
                    n
                };
                if replacement == NIL {
                    return (NIL, true);
                }
                return (tree.rebalance(replacement), true);
            }
            let removed = if FlatAvlTree::key_lt((key, id), nk) {
                let (child, ok) = rec(tree, tree.lefts[n as usize], key, id);
                tree.set_left(n, child);
                ok
            } else {
                let (child, ok) = rec(tree, tree.rights[n as usize], key, id);
                tree.set_right(n, child);
                ok
            };
            (tree.rebalance(n), removed)
        }
        let (root, ok) = rec(self, self.root, key, id);
        self.root = root;
        if ok {
            self.len -= 1;
            self.sorted_layout = false;
        }
        ok
    }

    /// Calls `f` on slots `start..end` in slot order, one chunk of each
    /// column at a time (the sorted-layout streaming path).
    fn stream<F: FnMut(f64, f64, RowId)>(&self, start: usize, end: usize, f: &mut F) {
        let keys = self.keys.slices(start..end);
        let others = self.others.slices(start..end);
        let ids = self.ids.slices(start..end);
        for ((k, o), d) in keys.zip(others).zip(ids) {
            for ((&k, &o), &d) in k.iter().zip(o).zip(d) {
                f(k, o, d);
            }
        }
    }

    /// Visits every entry with `key <= bound`. While the arena is in sorted
    /// layout this scans only the key column to find the cut, then streams
    /// the prefix of each column sequentially.
    pub fn for_each_leq<F: FnMut(f64, f64, RowId)>(&self, bound: f64, f: &mut F) {
        if self.sorted_layout {
            let end = self.keys.partition_point(|&k| k <= bound);
            self.stream(0, end, f);
            return;
        }
        fn rec<F: FnMut(f64, f64, RowId)>(tree: &FlatAvlTree, n: u32, bound: f64, f: &mut F) {
            if n == NIL {
                return;
            }
            let i = n as usize;
            let key = tree.keys[i];
            if key <= bound {
                rec(tree, tree.lefts[i], bound, f);
                f(key, tree.others[i], tree.ids[i]);
                rec(tree, tree.rights[i], bound, f);
            } else {
                // Entire right subtree exceeds the bound.
                rec(tree, tree.lefts[i], bound, f);
            }
        }
        rec(self, self.root, bound, f);
    }

    /// Visits every entry with `lo < key <= hi` — the incremental-window
    /// scan. Binary searches touch only the key column in sorted layout.
    pub fn for_each_in<F: FnMut(f64, f64, RowId)>(&self, lo: f64, hi: f64, f: &mut F) {
        if self.sorted_layout {
            let start = self.keys.partition_point(|&k| k <= lo);
            let end = self.keys.partition_point(|&k| k <= hi).max(start);
            self.stream(start, end, f);
            return;
        }
        fn rec<F: FnMut(f64, f64, RowId)>(tree: &FlatAvlTree, n: u32, lo: f64, hi: f64, f: &mut F) {
            if n == NIL {
                return;
            }
            let i = n as usize;
            let key = tree.keys[i];
            if key > lo {
                rec(tree, tree.lefts[i], lo, hi, f);
            }
            if key > lo && key <= hi {
                f(key, tree.others[i], tree.ids[i]);
            }
            if key <= hi {
                rec(tree, tree.rights[i], lo, hi, f);
            }
        }
        rec(self, self.root, lo, hi, f);
    }

    /// Maximum node depth (testing hook: must stay O(log n)).
    pub fn depth(&self) -> usize {
        self.height(self.root) as usize
    }

    /// Total arena slots (live + freed).
    pub fn arena_len(&self) -> usize {
        self.keys.len()
    }

    /// Bulk-builds a perfectly balanced tree from entries pre-sorted by
    /// `(key, id)`, with every slot at its in-order column position. O(n).
    pub fn build_from_sorted(entries: &[(f64, f64, RowId)]) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| (w[0].0, w[0].2) < (w[1].0, w[1].2)),
            "entries must be strictly sorted by (key, id)"
        );
        let n = entries.len();
        let mut lefts = vec![NIL; n];
        let mut rights = vec![NIL; n];
        let mut heights = vec![1; n];

        /// Wires up `lo..hi` (exclusive) and returns (root index, height).
        fn rec(lefts: &mut [u32], rights: &mut [u32], heights: &mut [u8], lo: usize, hi: usize) -> (u32, u8) {
            if lo >= hi {
                return (NIL, 0);
            }
            let mid = lo + (hi - lo) / 2;
            let (l, hl) = rec(lefts, rights, heights, lo, mid);
            let (r, hr) = rec(lefts, rights, heights, mid + 1, hi);
            lefts[mid] = l;
            rights[mid] = r;
            let h = 1 + hl.max(hr);
            heights[mid] = h;
            (mid as u32, h)
        }
        let (root, _) = rec(&mut lefts, &mut rights, &mut heights, 0, n);
        FlatAvlTree {
            keys: entries.iter().map(|e| e.0).collect(),
            others: entries.iter().map(|e| e.1).collect(),
            ids: entries.iter().map(|e| e.2).collect(),
            lefts: ChunkedVec::from_slice(&lefts),
            rights: ChunkedVec::from_slice(&rights),
            heights: ChunkedVec::from_slice(&heights),
            root,
            free: Vec::new(),
            len: n,
            sorted_layout: true,
        }
    }
}

impl HeapSize for FlatAvlTree {
    fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes()
            + self.others.heap_bytes()
            + self.ids.heap_bytes()
            + self.lefts.heap_bytes()
            + self.rights.heap_bytes()
            + self.heights.heap_bytes()
            + self.free.heap_bytes()
    }
}

/// The dual-AVL logical-time index: a start-keyed and an end-keyed
/// [`FlatAvlTree`], with an epoch counter bumped by every mutation.
#[derive(Debug, Clone, Default)]
pub struct FlatAvlIndex {
    /// Keyed on logical start; `other` is the logical end.
    starts: FlatAvlTree,
    /// Keyed on logical end; `other` is the logical start.
    ends: FlatAvlTree,
    /// Bumped by every dynamic mutation; see [`FlatAvlIndex::epoch`].
    epoch: u64,
}

impl FlatAvlIndex {
    /// Inserts one RCC into both trees (O(log n) each), bumping the epoch.
    pub fn insert(&mut self, rcc: &LogicalRcc) -> bool {
        let a = self.starts.insert(rcc.start, rcc.end, rcc.id);
        let b = self.ends.insert(rcc.end, rcc.start, rcc.id);
        debug_assert_eq!(a, b, "trees must stay in lockstep");
        if a && b {
            self.epoch += 1;
        }
        a && b
    }

    /// Removes one RCC from both trees (O(log n) each), bumping the epoch.
    pub fn remove(&mut self, rcc: &LogicalRcc) -> bool {
        let a = self.starts.remove(rcc.start, rcc.id);
        let b = self.ends.remove(rcc.end, rcc.id);
        debug_assert_eq!(a, b, "trees must stay in lockstep");
        if a && b {
            self.epoch += 1;
        }
        a && b
    }

    /// Monotone mutation counter: any cached result derived from this index
    /// is stale once the epoch it was computed under no longer matches.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Visits RCCs *created* in the window `lo < start <= hi`.
    pub fn for_each_created_in<F: FnMut(f64, f64, RowId)>(&self, lo: f64, hi: f64, mut f: F) {
        self.starts.for_each_in(lo, hi, &mut |k, o, id| f(k, o, id));
    }

    /// Visits RCCs *settled* in the window `lo < end <= hi`.
    pub fn for_each_settled_in<F: FnMut(f64, f64, RowId)>(&self, lo: f64, hi: f64, mut f: F) {
        self.ends.for_each_in(lo, hi, &mut |k, o, id| f(o, k, id));
    }

    /// Testing/inspection hook: depths of the two trees.
    pub fn depths(&self) -> (usize, usize) {
        (self.starts.depth(), self.ends.depth())
    }
}

impl HeapSize for FlatAvlIndex {
    fn heap_bytes(&self) -> usize {
        self.starts.heap_bytes() + self.ends.heap_bytes()
    }
}

impl LogicalTimeIndex for FlatAvlIndex {
    fn name(&self) -> &'static str {
        "flat-avl"
    }

    fn build(rccs: &[LogicalRcc]) -> Self {
        let mut by_start: Vec<(f64, f64, RowId)> =
            rccs.iter().map(|r| (r.start, r.end, r.id)).collect();
        by_start.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let mut by_end: Vec<(f64, f64, RowId)> =
            rccs.iter().map(|r| (r.end, r.start, r.id)).collect();
        by_end.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        FlatAvlIndex {
            starts: FlatAvlTree::build_from_sorted(&by_start),
            ends: FlatAvlTree::build_from_sorted(&by_end),
            epoch: 0,
        }
    }

    fn len(&self) -> usize {
        self.starts.len()
    }

    fn active_at(&self, t_star: f64) -> Vec<RowId> {
        let mut out = Vec::new();
        self.starts.for_each_leq(t_star, &mut |_start, end, id| {
            if end > t_star {
                out.push(id);
            }
        });
        out.sort_unstable();
        out
    }

    fn settled_by(&self, t_star: f64) -> Vec<RowId> {
        let mut out = Vec::new();
        self.ends.for_each_leq(t_star, &mut |_end, _start, id| out.push(id));
        out.sort_unstable();
        out
    }

    fn created_by(&self, t_star: f64) -> Vec<RowId> {
        let mut out = Vec::new();
        self.starts.for_each_leq(t_star, &mut |_s, _e, id| out.push(id));
        out.sort_unstable();
        out
    }
}

impl MaintainableIndex for FlatAvlIndex {
    fn insert_logical(&mut self, rcc: &LogicalRcc) -> bool {
        self.insert(rcc)
    }

    fn remove_logical(&mut self, rcc: &LogicalRcc) -> bool {
        self.remove(rcc)
    }

    fn current_epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveJoinIndex;

    fn rcc(id: RowId, start: f64, end: f64) -> LogicalRcc {
        LogicalRcc { id, avail: domd_data::AvailId(1), start, end }
    }

    fn random_rccs(n: u32, seed: u64) -> Vec<LogicalRcc> {
        // Small deterministic LCG; collisions in start/end values are
        // intentional to exercise the (key, id) tiebreaker.
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..n)
            .map(|i| {
                let s = f64::from(next() % 120);
                let w = f64::from(next() % 40) + 1.0;
                rcc(i, s, s + w)
            })
            .collect()
    }

    #[test]
    fn insert_and_query_small() {
        let rs = [rcc(0, 0.0, 30.0), rcc(1, 10.0, 50.0), rcc(2, 40.0, 90.0), rcc(3, 95.0, 120.0)];
        let idx = FlatAvlIndex::build(&rs);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.active_at(20.0), vec![0, 1]);
        assert_eq!(idx.settled_by(20.0), Vec::<RowId>::new());
        assert_eq!(idx.created_by(20.0), vec![0, 1]);
        assert_eq!(idx.not_created_by(20.0), vec![2, 3]);
        assert_eq!(idx.active_at(50.0), vec![2]); // 1 settles exactly at 50
        assert_eq!(idx.settled_by(50.0), vec![0, 1]);
        assert_eq!(idx.created_by(100.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn matches_naive_join_on_random_sets() {
        let rs = random_rccs(700, 9);
        let flat = FlatAvlIndex::build(&rs);
        let naive = NaiveJoinIndex::build(&rs);
        for t in [0.0, 10.0, 33.3, 60.0, 99.9, 120.0, 161.0] {
            assert_eq!(flat.active_at(t), naive.active_at(t), "active t={t}");
            assert_eq!(flat.settled_by(t), naive.settled_by(t), "settled t={t}");
            assert_eq!(flat.created_by(t), naive.created_by(t), "created t={t}");
            assert_eq!(flat.not_created_by(t), naive.not_created_by(t), "not-created t={t}");
        }
    }

    #[test]
    fn dynamic_maintenance_matches_naive_join_rebuild() {
        let rs = random_rccs(300, 77);
        let mut flat = FlatAvlIndex::build(&rs);
        let mut live: Vec<LogicalRcc> = Vec::new();
        for (i, r) in rs.iter().enumerate() {
            if i % 3 == 0 {
                assert!(flat.remove(r));
            } else {
                live.push(*r);
            }
        }
        for i in 0..100u32 {
            let r = rcc(1000 + i, f64::from(i % 50), f64::from(i % 50) + 7.0);
            assert!(flat.insert(&r));
            live.push(r);
        }
        // The from-scratch oracle: a naive join over the final row set.
        let naive = NaiveJoinIndex::build(&live);
        assert_eq!(flat.len(), naive.len());
        for t in [5.0, 25.0, 48.0, 90.0] {
            assert_eq!(flat.active_at(t), naive.active_at(t), "active t={t}");
            assert_eq!(flat.settled_by(t), naive.settled_by(t), "settled t={t}");
        }
    }

    #[test]
    fn arena_slots_reused_after_remove() {
        let mut tree = FlatAvlTree::new();
        for i in 0..100u32 {
            assert!(tree.insert(f64::from(i), f64::from(i) + 1.0, i));
        }
        let arena_before = tree.arena_len();
        for i in 0..50u32 {
            assert!(tree.remove(f64::from(i), i));
        }
        for i in 100..150u32 {
            assert!(tree.insert(f64::from(i), f64::from(i) + 1.0, i));
        }
        assert_eq!(tree.len(), 100);
        assert_eq!(tree.arena_len(), arena_before, "freed slots must be reused");
    }

    #[test]
    fn epoch_bumps_on_mutation_only() {
        let rs = random_rccs(50, 5);
        let mut idx = FlatAvlIndex::build(&rs);
        assert_eq!(idx.epoch(), 0);
        idx.active_at(10.0);
        assert_eq!(idx.epoch(), 0, "queries must not bump the epoch");
        let r = rcc(999, 1.0, 2.0);
        assert!(idx.insert(&r));
        assert_eq!(idx.epoch(), 1);
        assert!(!idx.insert(&r), "duplicate insert rejected");
        assert_eq!(idx.epoch(), 1, "failed insert must not bump");
        assert!(idx.remove(&r));
        assert_eq!(idx.epoch(), 2);
        assert!(!idx.remove(&r));
        assert_eq!(idx.epoch(), 2, "failed remove must not bump");
    }

    #[test]
    fn balanced_depth_after_bulk_build() {
        let rs: Vec<LogicalRcc> =
            (0..4096).map(|i| rcc(i, f64::from(i) * 0.01, f64::from(i) * 0.01 + 5.0)).collect();
        let idx = FlatAvlIndex::build(&rs);
        let (ds, de) = idx.depths();
        assert!(ds <= 18 && de <= 18, "depths ({ds}, {de}) exceed AVL bound");
    }

    #[test]
    fn balanced_depth_after_one_by_one_inserts() {
        // The serve ingest path: every row arrives through `insert`, so the
        // rebalancing (not the bulk build) must hold the AVL bound,
        // height <= 1.44 log2(n + 2), about 18 for 4096 rows.
        let mut idx = FlatAvlIndex::default();
        for i in 0..4096u32 {
            assert!(idx.insert(&rcc(i, f64::from(i) * 0.01, f64::from(i) * 0.01 + 5.0)));
        }
        assert_eq!(idx.len(), 4096);
        let (ds, de) = idx.depths();
        assert!(ds <= 18 && de <= 18, "depths ({ds}, {de}) exceed AVL bound");
    }

    #[test]
    fn window_scans_match_filter() {
        let rs = random_rccs(500, 13);
        let idx = FlatAvlIndex::build(&rs);
        let mut got = Vec::new();
        idx.for_each_created_in(20.0, 40.0, |s, _e, id| {
            assert!(s > 20.0 && s <= 40.0);
            got.push(id);
        });
        got.sort_unstable();
        let mut want: Vec<RowId> =
            rs.iter().filter(|r| r.start > 20.0 && r.start <= 40.0).map(|r| r.id).collect();
        want.sort_unstable();
        assert_eq!(got, want);

        let mut got = Vec::new();
        idx.for_each_settled_in(30.0, 60.0, |_s, e, id| {
            assert!(e > 30.0 && e <= 60.0);
            got.push(id);
        });
        got.sort_unstable();
        let mut want: Vec<RowId> =
            rs.iter().filter(|r| r.end > 30.0 && r.end <= 60.0).map(|r| r.id).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn mutation_clears_sorted_layout_but_scans_stay_correct() {
        let rs = random_rccs(200, 3);
        let mut idx = FlatAvlIndex::build(&rs);
        // Mutate so scans fall back to the pointer walk, then verify.
        let extra = rcc(5000, 15.5, 55.5);
        idx.insert(&extra);
        let act = idx.active_at(20.0);
        assert!(act.contains(&5000));
        let mut want: Vec<RowId> = rs
            .iter()
            .filter(|r| r.start <= 20.0 && r.end > 20.0)
            .map(|r| r.id)
            .chain(std::iter::once(5000))
            .collect();
        want.sort_unstable();
        assert_eq!(act, want);
    }
}
