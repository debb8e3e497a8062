//! Branchless flat-forest inference kernel (DESIGN.md §11).
//!
//! [`RegressionTree`] stores an enum-per-node pointer tree: descending it
//! pays a match branch and an unpredictable load per level, per tree, per
//! row — the dominant cost of batch prediction once forests reach a few
//! hundred trees. This module compiles a trained ensemble into a single
//! contiguous node pool and evaluates it with a branch-free descent:
//!
//! * every node is one 16-byte record `{val, meta}`; split nodes keep
//!   their threshold in `val` and pack their feature and left child in
//!   `meta`, so a descent step touches exactly one node record plus one
//!   row value;
//! * leaves self-loop (see `HotNode`), so one unconditional step
//!   `n = left + (!(x <= val)) as usize` works for split and leaf alike
//!   and the descent runs a *fixed* per-tree depth with no data-dependent
//!   branch;
//! * batches are traversed tree-at-a-time over blocks of rows, with
//!   [`LANES`] rows descending in lockstep — that many independent
//!   dependent-load chains in flight — while the tree's nodes stay hot.
//!
//! The comparison `!(x <= val)` reproduces the pointer walker's
//! `if x <= thr { left } else { right }` exactly, including NaN routing
//! (NaN fails `<=`, so it always goes right), so every to-the-bit identity
//! gate covers both the single-row and the batch path.

use crate::matrix::DenseMatrix;
use crate::tree::{Node, RegressionTree};

/// How per-tree outputs combine into the model prediction. Mirrors the
/// accumulation order of the pointer-walking implementations bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Combine {
    /// `base_score + Σ learning_rate · tree(x)` in tree order (boosting).
    Boosted {
        /// Additive prior (the ensemble's base score).
        base_score: f64,
        /// Shrinkage applied to every tree's output (η).
        learning_rate: f64,
    },
    /// `(Σ tree(x)) / n_trees` in tree order (bagged forest).
    Averaged,
}

/// Rows per block in the tree-at-a-time batch traversal. Every tree's
/// node pool is streamed once per block, so the block size sets how many
/// rows amortize that traffic: at 1024 rows a fleet-scale ensemble (tens
/// of MB of nodes) costs ~tens of bytes of pool traffic per row, while
/// the block itself (1024 rows × ~24 f64 features, ~200 KiB) still fits
/// in L2 alongside the tree being swept.
const ROW_BLOCK: usize = 1024;

/// Rows descended in lockstep inside a block: the number of independent
/// dependent-load chains kept in flight per tree. 16 keeps the load ports
/// saturated; the slot array spills to L1 but store-forwards cheaply.
const LANES: usize = 16;

/// One compiled node, 16 bytes: `val` is the compare value and `meta`
/// packs `left | feat << 32`. The BFS compiler allocates siblings
/// adjacently, so `right = left + 1` and a descent step is
/// `next = left + (!(x <= val)) as usize` — no child array.
///
/// Leaves store `val = NaN` and `left = n − 1`: *every* compare against
/// NaN fails, so the step bit is always 1 and `next = (n − 1) + 1 = n`,
/// a self-loop with no special case. (A slot-0 leaf wraps to
/// `u32::MAX + 1`, which the pool mask folds back to 0.) Leaf payloads
/// live in the parallel `leaf_val` array. The same rule makes a NaN
/// *split* threshold descend right unconditionally — exactly the pointer
/// walker's `if x <= thr` behavior.
#[derive(Debug, Clone, Copy)]
struct HotNode {
    val: f64,
    meta: u64,
}

impl HotNode {
    fn leaf(slot: u32) -> Self {
        HotNode { val: f64::NAN, meta: u64::from(slot.wrapping_sub(1)) }
    }

    fn split(threshold: f64, feature: u32, left: u32) -> Self {
        HotNode { val: threshold, meta: u64::from(left) | (u64::from(feature) << 32) }
    }
}

/// A trained ensemble compiled to one contiguous node pool.
///
/// Built once at train or artifact-load time ([`crate::GbtModel`] /
/// [`crate::ForestModel`] embed one and route their `predict*` calls
/// through it), never per request: serving snapshots share it via the
/// model `Arc`.
#[derive(Debug, Clone)]
pub struct FlatForest {
    nodes: Vec<HotNode>,
    /// Leaf payloads, parallel to `nodes` (0 on split slots).
    leaf_val: Vec<f64>,
    /// First node of each tree.
    roots: Vec<u32>,
    /// Depth of each tree = number of unconditional descent steps.
    depths: Vec<u32>,
    combine: Combine,
}

impl FlatForest {
    /// Compiles `trees` into the flat layout. Nodes are laid out
    /// breadth-first per tree, so sibling children share a cache line and
    /// each level's working set is contiguous.
    pub fn from_trees(trees: &[RegressionTree], combine: Combine) -> Self {
        let total: usize = trees.iter().map(|t| t.n_nodes()).sum();
        let mut f = FlatForest {
            nodes: Vec::with_capacity(total),
            leaf_val: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
            depths: Vec::with_capacity(trees.len()),
            combine,
        };
        for t in trees {
            let root = f.compile_tree(t.nodes());
            f.roots.push(root);
            f.depths.push(t.depth() as u32);
        }
        // Pad the pool to a power of two so the descent loops can index
        // with `slot & (len − 1)`: the compiler sees the masked index is
        // always in range and drops the per-step bounds check. Valid slots
        // are < the unpadded length, so the mask is an identity on them;
        // the padding itself is never reached.
        let padded = f.nodes.len().next_power_of_two().max(1);
        while f.nodes.len() < padded {
            let slot = f.nodes.len() as u32;
            f.nodes.push(HotNode::leaf(slot));
            f.leaf_val.push(0.0);
        }
        f
    }

    /// Appends one tree's nodes (breadth-first) and returns its root slot.
    fn compile_tree(&mut self, nodes: &[Node]) -> u32 {
        let alloc = |f: &mut FlatForest| -> u32 {
            let slot = f.nodes.len() as u32;
            f.nodes.push(HotNode::leaf(slot));
            f.leaf_val.push(0.0);
            slot
        };
        let root = alloc(self);
        // FIFO worklist of (source node, flat slot) drives the BFS; a Vec
        // with a read head avoids a deque for what is a bounded traversal
        // (every tree node is enqueued exactly once).
        let mut work: Vec<(u32, u32)> = vec![(0, root)];
        let mut head = 0;
        while head < work.len() {
            let (src, dst) = work[head];
            head += 1;
            match nodes[src as usize] {
                Node::Leaf { value } => {
                    // `alloc` already wrote the self-looping leaf record;
                    // set the payload.
                    self.leaf_val[dst as usize] = value;
                }
                Node::Split { feature, threshold, left, right } => {
                    let l = alloc(self);
                    let r = alloc(self);
                    debug_assert_eq!(r, l + 1, "BFS sibling adjacency");
                    self.nodes[dst as usize] = HotNode::split(threshold, feature, l);
                    self.leaf_val[dst as usize] = 0.0;
                    work.push((left, l));
                    work.push((right, r));
                }
            }
        }
        root
    }

    /// Number of compiled trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total node count across all trees (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The accumulation rule this forest was compiled with.
    pub fn combine(&self) -> Combine {
        self.combine
    }

    /// Branch-free descent of tree `t` for one row: a fixed `depths[t]`
    /// unconditional steps, each an index select on the compare bit. The
    /// `& mask` is an identity on valid slots (the pool is padded to a
    /// power of two) that lets the compiler drop the bounds check.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must go right, like the pointer walk
    fn descend(&self, row: &[f64], t: usize) -> f64 {
        let nodes: &[HotNode] = &self.nodes;
        let mask = nodes.len() - 1;
        let mut n = self.roots[t] as usize;
        for _ in 0..self.depths[t] {
            let node = &nodes[n & mask];
            let go_right = !(row[(node.meta >> 32) as usize] <= node.val);
            n = (node.meta as u32) as usize + usize::from(go_right);
        }
        self.leaf_val[n & mask]
    }

    /// Raw (unshrunk, unaveraged) output of tree `t` for one row — the
    /// building block of `GbtModel::fit`'s per-round prediction refresh,
    /// which needs the new tree's values *by themselves*.
    #[inline]
    pub fn tree_value(&self, t: usize, row: &[f64]) -> f64 {
        self.descend(row, t)
    }

    /// Prediction for one feature row. Bit-identical to the pointer
    /// walkers: same per-tree outputs, same accumulation order.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        let (init, mul) = self.accum();
        let mut out = init;
        for t in 0..self.roots.len() {
            out += mul * self.descend(row, t);
        }
        self.finish(out)
    }

    /// Predictions for every row of `x`.
    pub fn predict(&self, x: &DenseMatrix) -> Vec<f64> {
        let mut out = vec![0.0; x.n_rows()];
        self.predict_into(x, &mut out);
        out
    }

    /// Batch prediction into a caller-provided buffer, tree-at-a-time over
    /// blocks of [`ROW_BLOCK`] rows with [`LANES`]-way lockstep descent.
    ///
    /// A single row's descent is a serial chain of dependent loads (each
    /// level's node index comes from the previous level's compare), so one
    /// chain leaves the core idle most of the time. Descending `LANES`
    /// rows in lockstep keeps that many independent chains in flight —
    /// the out-of-order window overlaps their loads — while the tree's
    /// node records stay hot in L1 across the whole block. Per row the
    /// trees still accumulate in ascending order, so outputs match
    /// [`FlatForest::predict_one`] (and therefore the pointer walkers)
    /// bit for bit. A batch of fewer than [`LANES`] rows (a single online
    /// predict is one row) fills no lockstep group, so each of its rows
    /// runs [`FlatForest::predict_one`] itself.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must go right, like the pointer walk
    pub fn predict_into(&self, x: &DenseMatrix, out: &mut [f64]) {
        let n = x.n_rows();
        assert_eq!(out.len(), n, "output buffer must match the row count");
        if n < LANES {
            // Too few rows for one lockstep group: nothing to overlap, so
            // each row walks every tree in turn with its sum in a register.
            for (j, o) in out.iter_mut().enumerate() {
                *o = self.predict_one(x.row(j));
            }
            return;
        }
        let (init, mul) = self.accum();
        out.fill(init);
        let stride = x.n_cols();
        let data = x.as_slice();
        let nodes: &[HotNode] = &self.nodes;
        let mask = nodes.len() - 1; // identity on valid slots (pow-2 pool)
        let mut start = 0;
        while start < n {
            let end = (start + ROW_BLOCK).min(n);
            for t in 0..self.roots.len() {
                let root = self.roots[t] as usize;
                let depth = self.depths[t];
                let mut i = start;
                while i + LANES <= end {
                    let mut off = [0usize; LANES];
                    for (l, o) in off.iter_mut().enumerate() {
                        *o = (i + l) * stride;
                    }
                    let mut slot = [root; LANES];
                    for _ in 0..depth {
                        for (l, s) in slot.iter_mut().enumerate() {
                            let node = &nodes[*s & mask];
                            let v = data[off[l] + (node.meta >> 32) as usize];
                            *s = (node.meta as u32) as usize + usize::from(!(v <= node.val));
                        }
                    }
                    for (l, s) in slot.iter().enumerate() {
                        out[i + l] += mul * self.leaf_val[*s & mask];
                    }
                    i += LANES;
                }
                for (j, o) in (i..end).zip(out[i..end].iter_mut()) {
                    *o += mul * self.descend(x.row(j), t);
                }
            }
            start = end;
        }
        for o in out.iter_mut() {
            *o = self.finish(*o);
        }
    }

    /// Initial value and per-tree multiplier of the accumulation.
    fn accum(&self) -> (f64, f64) {
        match self.combine {
            Combine::Boosted { base_score, learning_rate } => (base_score, learning_rate),
            Combine::Averaged => (0.0, 1.0),
        }
    }

    /// Final transform of an accumulated sum (the forest mean).
    fn finish(&self, sum: f64) -> f64 {
        match self.combine {
            Combine::Boosted { .. } => sum,
            Combine::Averaged => sum / self.roots.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeParams;

    fn fit_tree(x: &DenseMatrix, y: &[f64], params: TreeParams) -> RegressionTree {
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; y.len()];
        let rows: Vec<usize> = (0..y.len()).collect();
        let feats: Vec<usize> = (0..x.n_cols()).collect();
        RegressionTree::fit(x, &grad, &hess, &rows, &feats, params)
    }

    fn lcg_matrix(n: usize, p: usize, seed: u64) -> (DenseMatrix, Vec<f64>) {
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (s >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
        };
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let r: Vec<f64> = (0..p).map(|_| next()).collect();
            y.push(r[0] * 2.0 + r[1 % p] * r[0] + next() * 0.1);
            rows.push(r);
        }
        (DenseMatrix::from_vec_of_rows(&rows), y)
    }

    #[test]
    fn flat_matches_pointer_on_fitted_tree() {
        let (x, y) = lcg_matrix(200, 4, 1);
        let t = fit_tree(&x, &y, TreeParams { max_depth: 5, ..Default::default() });
        let flat = FlatForest::from_trees(
            std::slice::from_ref(&t),
            Combine::Boosted { base_score: 0.0, learning_rate: 1.0 },
        );
        for i in 0..x.n_rows() {
            let p = t.predict_row(x.row(i));
            assert_eq!(p.to_bits(), flat.predict_one(x.row(i)).to_bits());
            assert_eq!(p.to_bits(), flat.tree_value(0, x.row(i)).to_bits());
        }
    }

    #[test]
    fn stump_forest_compiles_and_predicts() {
        let x = DenseMatrix::from_rows(vec![1.0, 2.0, 3.0], 3, 1);
        let y = [7.0, 7.0, 7.0];
        let t = fit_tree(&x, &y, TreeParams { max_depth: 0, lambda: 0.0, ..Default::default() });
        let flat = FlatForest::from_trees(
            std::slice::from_ref(&t),
            Combine::Boosted { base_score: 1.0, learning_rate: 0.5 },
        );
        assert_eq!(flat.n_nodes(), 1);
        assert_eq!(flat.predict_one(&[0.0]), 1.0 + 0.5 * 7.0);
    }

    #[test]
    fn nan_rows_route_right_in_all_paths() {
        let (x, y) = lcg_matrix(64, 2, 3);
        let t = fit_tree(&x, &y, TreeParams { max_depth: 4, ..Default::default() });
        let flat = FlatForest::from_trees(
            std::slice::from_ref(&t),
            Combine::Boosted { base_score: 0.0, learning_rate: 1.0 },
        );
        // 32 rows run the lockstep batch path; `predict_one` the single-row one.
        let probe = DenseMatrix::from_rows([f64::NAN, 0.5, 0.5, f64::NAN].repeat(16), 32, 2);
        let want: Vec<f64> = (0..32).map(|i| t.predict_row(probe.row(i))).collect();
        assert_eq!(flat.predict(&probe), want);
        assert_eq!(flat.predict_one(probe.row(0)), want[0]);
    }

    #[test]
    fn averaged_combine_matches_mean_of_trees() {
        let (x, y) = lcg_matrix(120, 3, 5);
        let trees: Vec<RegressionTree> = (2..5)
            .map(|d| fit_tree(&x, &y, TreeParams { max_depth: d, ..Default::default() }))
            .collect();
        let flat = FlatForest::from_trees(&trees, Combine::Averaged);
        for i in 0..x.n_rows() {
            let sum: f64 = trees.iter().map(|t| t.predict_row(x.row(i))).sum();
            let want = sum / trees.len() as f64;
            assert_eq!(want.to_bits(), flat.predict_one(x.row(i)).to_bits());
        }
    }

    #[test]
    fn lockstep_batch_matches_single_row_path_off_lane_boundaries() {
        // 77 rows = 4 full lockstep groups of 16 + a 13-row remainder
        // inside the last block, so both the lockstep loop and the scalar
        // epilogue run; 15 and 1 rows are batches smaller than one group.
        let (x, y) = lcg_matrix(512, 5, 7);
        let trees: Vec<RegressionTree> = (3..7)
            .map(|d| fit_tree(&x, &y, TreeParams { max_depth: d, ..Default::default() }))
            .collect();
        let flat = FlatForest::from_trees(
            &trees,
            Combine::Boosted { base_score: 2.5, learning_rate: 0.3 },
        );
        for n in [77, 15, 1] {
            let (probe, _) = lcg_matrix(n, 5, 8);
            let batch = flat.predict(&probe);
            for (i, b) in batch.iter().enumerate() {
                let one = flat.predict_one(probe.row(i));
                assert_eq!(b.to_bits(), one.to_bits(), "row {i} of {n}");
            }
        }
    }
}
