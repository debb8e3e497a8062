//! Branchless flat-forest inference kernel (DESIGN.md §11).
//!
//! [`RegressionTree`] stores an enum-per-node pointer tree: descending it
//! pays a match branch and an unpredictable load per level, per tree, per
//! row — the dominant cost of batch prediction once forests reach a few
//! hundred trees. This module compiles a trained ensemble into a single
//! contiguous node pool and evaluates it with a branch-free descent:
//!
//! * every node is one 24-byte record `{val, feat, kids}`; split nodes
//!   keep their threshold in `val`, leaves keep their payload there (the
//!   self-loop below makes a leaf's compare result irrelevant, so the two
//!   uses can share the slot and a descent step touches exactly one node
//!   record plus one row value);
//! * leaves self-reference (`kids = [n, n]`), so one unconditional step
//!   `n = kids[(!(x <= val)) as usize]` works for split and leaf alike
//!   and the descent runs a *fixed* per-tree depth with no data-dependent
//!   branch;
//! * batches are traversed tree-at-a-time over blocks of rows, with
//!   [`LANES`] rows descending in lockstep — that many independent
//!   dependent-load chains in flight — while the tree's nodes stay hot;
//! * [`FlatForest::bins`] additionally quantizes every threshold against
//!   its feature's sorted cut list, letting [`FlatForest::predict_binned`]
//!   descend over a pre-binned `u16` row block with integer compares and
//!   16-byte nodes only.
//!
//! The comparison `!(x <= val)` reproduces the pointer walker's
//! `if x <= thr { left } else { right }` exactly, including NaN routing
//! (NaN fails `<=`, so it always goes right). Quantized descent is *also*
//! exact, not approximate: a node's cut rank `r` satisfies
//! `x <= thr ⟺ bin(x) <= r` because the cut list contains the node's own
//! threshold (see [`FlatForest::bins`]), so every to-the-bit identity gate
//! covers all three paths. NaN feature values bin to a `u16::MAX` sentinel
//! that compares greater than any rank.
//!
//! Training-side binning lives here too: [`TrainingBins`] pre-codes a
//! training matrix into ≤256 per-feature value buckets for the histogram
//! split search of [`RegressionTree::fit_binned`](crate::tree::RegressionTree::fit_binned).

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
    /// `1 + max feature id` over all split nodes (0 for stump forests).
    n_features: usize,
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
            n_features: 0,
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
                    self.n_features = self.n_features.max(feature as usize + 1);
                    work.push((left, l));
                    work.push((right, r));
                }
            }
        }
        root
    }

    /// True when slot `n` is a compiled leaf (`left = n − 1`, NaN `val`).
    fn is_leaf(&self, n: usize) -> bool {
        self.nodes[n].meta as u32 == (n as u32).wrapping_sub(1)
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
    /// building block of `GbtModel::fit_threaded`'s per-round prediction
    /// refresh, which needs the new tree's values *by themselves*.
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

    // --- quantized descent -------------------------------------------------

    /// Builds the per-feature threshold cut lists and the rank-compare
    /// node pool for quantized descent, or `None` when the forest cannot
    /// be binned exactly (a NaN threshold, or ≥ `u16::MAX − 1` distinct
    /// cuts on one feature — the sentinel bin must stay above every rank).
    ///
    /// Each feature's cut list is exactly the sorted distinct thresholds
    /// the forest tests it against. A node with threshold `thr` gets
    /// `rank = index of thr in its feature's cuts`, and a value bins to
    /// `bin(x) = #{cuts < x}`; then `x <= thr ⟺ bin(x) <= rank`, so the
    /// binned descent reaches the identical leaf for every input.
    pub fn bins(&self) -> Option<FeatureBins> {
        if self.n_features > u16::MAX as usize {
            return None; // feature ids must fit the packed node's 16 bits
        }
        let mut cuts: Vec<Vec<f64>> = vec![Vec::new(); self.n_features];
        for (n, node) in self.nodes.iter().enumerate() {
            if !self.is_leaf(n) {
                if node.val.is_nan() {
                    return None; // NaN never satisfies `c < x`: rank lookup breaks
                }
                cuts[(node.meta >> 32) as usize].push(node.val);
            }
        }
        for c in cuts.iter_mut() {
            c.sort_by(f64::total_cmp);
            c.dedup_by(|a, b| a.to_bits() == b.to_bits());
            if c.len() >= u16::MAX as usize - 1 {
                return None;
            }
        }
        // One u64 per node: `left | feat << 32 | rank << 48`. The BFS
        // compiler allocates siblings adjacently, so `right = left + 1`
        // and the descent is `next = left + (code > rank)`. A leaf packs
        // `left = n, rank = u16::MAX`: no code exceeds the sentinel rank
        // (NaN codes *are* u16::MAX), so the add is 0 and the leaf
        // self-loops just like the float path.
        let packed = self
            .nodes
            .iter()
            .enumerate()
            .map(|(n, node)| {
                if self.is_leaf(n) {
                    (u64::from(u16::MAX) << 48) | n as u64
                } else {
                    // First cut >= thr; it value-equals thr because thr is
                    // in the list (−0.0/0.0 both count as equal here).
                    let feat = node.meta >> 32;
                    let rank = cuts[feat as usize].partition_point(|&cut| cut < node.val) as u16;
                    (node.meta & 0xFFFF_FFFF) | (feat << 32) | (u64::from(rank) << 48)
                }
            })
            .collect();
        Some(FeatureBins { cuts, packed })
    }

    /// Batch prediction over a pre-binned row block (see
    /// [`FeatureBins::bin_matrix`]). Same block/tree loop and accumulation
    /// as [`FlatForest::predict_into`]; bit-identical outputs.
    pub fn predict_binned(&self, bins: &FeatureBins, block: &BinnedBlock) -> Vec<f64> {
        let mut out = vec![0.0; block.n_rows];
        self.predict_binned_into(bins, block, &mut out);
        out
    }

    /// As [`FlatForest::predict_binned`] into a caller-provided buffer.
    /// Same lockstep block sweep as [`FlatForest::predict_into`], but a
    /// descent step is one packed-u64 node load, one `u16` code load, an
    /// integer compare, and an add — no f64 traffic until the leaf read.
    pub fn predict_binned_into(&self, bins: &FeatureBins, block: &BinnedBlock, out: &mut [f64]) {
        assert_eq!(out.len(), block.n_rows, "output buffer must match the row count");
        assert_eq!(bins.packed.len(), self.nodes.len(), "bins were built for another forest");
        assert!(block.n_cols >= self.n_features, "block is missing features");
        let (init, mul) = self.accum();
        out.fill(init);
        let stride = block.n_cols;
        let data = &block.codes;
        let packed: &[u64] = &bins.packed;
        let leaf_val: &[f64] = &self.leaf_val;
        let mask = packed.len() - 1; // identity on valid slots (pow-2 pool)
        let mut start = 0;
        while start < block.n_rows {
            let end = (start + ROW_BLOCK).min(block.n_rows);
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
                            let p = packed[*s & mask];
                            let code = data[off[l] + ((p >> 32) & 0xFFFF) as usize];
                            *s = (p & 0xFFFF_FFFF) as usize
                                + usize::from(code > (p >> 48) as u16);
                        }
                    }
                    for (l, s) in slot.iter().enumerate() {
                        out[i + l] += mul * leaf_val[*s & mask];
                    }
                    i += LANES;
                }
                for (j, o) in (i..end).zip(out[i..end].iter_mut()) {
                    let codes = block.row(j);
                    let mut n = root;
                    for _ in 0..depth {
                        let p = packed[n & mask];
                        let code = codes[((p >> 32) & 0xFFFF) as usize];
                        n = (p & 0xFFFF_FFFF) as usize + usize::from(code > (p >> 48) as u16);
                    }
                    *o += mul * leaf_val[n & mask];
                }
            }
            start = end;
        }
        for o in out.iter_mut() {
            *o = self.finish(*o);
        }
    }
}

/// Per-feature threshold cut lists + the packed rank-compare node pool for
/// quantized descent. Produced by [`FlatForest::bins`]; tied to the forest
/// that built it (the node pool is parallel to the forest's).
#[derive(Debug, Clone)]
pub struct FeatureBins {
    /// Ascending distinct thresholds per feature.
    cuts: Vec<Vec<f64>>,
    /// One u64 per forest node: `left | feat << 32 | rank << 48` (see
    /// [`FlatForest::bins`] for the leaf encoding).
    packed: Vec<u64>,
}

/// A row-major block of quantized feature codes (`u16` per cell; NaN is
/// the `u16::MAX` sentinel).
#[derive(Debug, Clone)]
pub struct BinnedBlock {
    codes: Vec<u16>,
    n_rows: usize,
    n_cols: usize,
}

impl BinnedBlock {
    /// One row of codes.
    #[inline]
    fn row(&self, i: usize) -> &[u16] {
        &self.codes[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Row count.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }
}

impl FeatureBins {
    /// Quantizes one value of feature `f`: the count of cuts strictly
    /// below it, with NaN mapped to the always-right sentinel.
    #[inline]
    fn bin_value(&self, f: usize, x: f64) -> u16 {
        if x.is_nan() {
            return u16::MAX;
        }
        self.cuts[f].partition_point(|&cut| cut < x) as u16
    }

    /// Quantizes the first `cuts.len()` columns of every row of `x` into a
    /// reusable [`BinnedBlock`]. Binning is `O(rows · features · log cuts)`
    /// once; the block can then be swept by any number of predict calls.
    pub fn bin_matrix(&self, x: &DenseMatrix) -> BinnedBlock {
        let n_cols = self.cuts.len();
        assert!(x.n_cols() >= n_cols, "matrix is missing features the forest tests");
        let mut codes = Vec::with_capacity(x.n_rows() * n_cols);
        for i in 0..x.n_rows() {
            let row = x.row(i);
            for (f, _) in self.cuts.iter().enumerate() {
                codes.push(self.bin_value(f, row[f]));
            }
        }
        BinnedBlock { codes, n_rows: x.n_rows(), n_cols }
    }
}

// --- training-side binning --------------------------------------------------

/// Maximum value buckets per feature for histogram training. 256 keeps the
/// per-node scratch (G/H/count per bin) inside a few cache lines while
/// leaving split quality indistinguishable on realistic columns.
pub const MAX_TRAIN_BINS: usize = 256;

/// Pre-binned training columns for histogram split finding.
///
/// Built once per ensemble fit ([`TrainingBins::build`]); every tree and
/// node then reuses the codes. Cuts are placed at equal-mass boundaries of
/// each sorted column (midpoints between the straddling distinct values),
/// so skewed columns still get resolution where their mass is. When a
/// column has fewer distinct values than bins, the cut set degenerates to
/// every distinct-value midpoint — the same candidate set the exact-greedy
/// scan enumerates.
#[derive(Debug, Clone)]
pub struct TrainingBins {
    /// Ascending cut values per feature (`code(x) = #{cuts < x}`, so
    /// `code(x) <= b ⟺ x <= cuts[b]`).
    cuts: Vec<Vec<f64>>,
    /// Column-major codes: `codes[f][row]`.
    codes: Vec<Vec<u16>>,
    n_rows: usize,
}

impl TrainingBins {
    /// Bins every column of `x` into at most `max_bins` buckets, fanning
    /// the per-column work over at most `threads` pool workers (columns
    /// are independent; `par_map` merges by input index, so the result is
    /// identical for every thread count).
    pub fn build(x: &DenseMatrix, max_bins: usize, threads: usize) -> Self {
        assert!(max_bins >= 2, "need at least two buckets to split");
        let cols: Vec<usize> = (0..x.n_cols()).collect();
        let per_col: Vec<(Vec<f64>, Vec<u16>)> =
            domd_runtime::par_map(threads.max(1), &cols, |_, &f| Self::bin_column(x, f, max_bins));
        let mut cuts = Vec::with_capacity(per_col.len());
        let mut codes = Vec::with_capacity(per_col.len());
        for (c, k) in per_col {
            cuts.push(c);
            codes.push(k);
        }
        TrainingBins { cuts, codes, n_rows: x.n_rows() }
    }

    /// Equal-mass cuts + codes for one column.
    fn bin_column(x: &DenseMatrix, f: usize, max_bins: usize) -> (Vec<f64>, Vec<u16>) {
        let n = x.n_rows();
        let mut sorted: Vec<f64> = (0..n).map(|i| x.get(i, f)).collect();
        sorted.sort_by(f64::total_cmp);
        let mut cuts: Vec<f64> = Vec::with_capacity(max_bins - 1);
        for k in 1..max_bins {
            let pos = k * n / max_bins;
            if pos == 0 || pos >= n {
                continue;
            }
            let (lo, hi) = (sorted[pos - 1], sorted[pos]);
            if lo == hi {
                continue; // boundary inside a run of equal values: no cut
            }
            let cut = 0.5 * (lo + hi);
            // A midpoint can collapse onto `lo` for adjacent floats; keep
            // cuts strictly increasing and strictly below their upper value.
            if cut > *cuts.last().unwrap_or(&f64::NEG_INFINITY) && cut < hi {
                cuts.push(cut);
            }
        }
        let codes = (0..n)
            .map(|i| cuts.partition_point(|&c| c < x.get(i, f)) as u16)
            .collect();
        (cuts, codes)
    }

    /// Training rows the codes were built for.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of candidate cuts for feature `f` (0 = constant column).
    pub fn n_cuts(&self, f: usize) -> usize {
        self.cuts[f].len()
    }

    /// Cut value `b` of feature `f` — the threshold stored on a split
    /// chosen at that boundary.
    pub fn cut(&self, f: usize, b: usize) -> f64 {
        self.cuts[f][b]
    }

    /// Per-row codes of feature `f`.
    pub fn codes(&self, f: usize) -> &[u16] {
        &self.codes[f]
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
        // Depth-0 forests reference no features; binning degenerates cleanly.
        let bins = flat.bins().expect("stump must bin");
        let block = bins.bin_matrix(&x);
        assert_eq!(flat.predict_binned(&bins, &block), flat.predict(&x));
    }

    #[test]
    fn nan_rows_route_right_in_all_paths() {
        let (x, y) = lcg_matrix(64, 2, 3);
        let t = fit_tree(&x, &y, TreeParams { max_depth: 4, ..Default::default() });
        let flat = FlatForest::from_trees(
            std::slice::from_ref(&t),
            Combine::Boosted { base_score: 0.0, learning_rate: 1.0 },
        );
        let probe = DenseMatrix::from_rows(vec![f64::NAN, 0.5, 0.5, f64::NAN], 2, 2);
        let want: Vec<f64> = (0..2).map(|i| t.predict_row(probe.row(i))).collect();
        assert_eq!(flat.predict(&probe), want);
        let bins = flat.bins().expect("finite thresholds must bin");
        let block = bins.bin_matrix(&probe);
        assert_eq!(flat.predict_binned(&bins, &block), want);
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

    #[test]
    fn training_bins_cover_distinct_value_midpoints_when_small() {
        // 4 distinct values, plenty of bins: cuts sit strictly between
        // consecutive distinct values, codes partition the column.
        let x = DenseMatrix::from_rows(vec![1.0, 2.0, 1.0, 4.0, 8.0, 2.0, 4.0, 8.0], 8, 1);
        let b = TrainingBins::build(&x, MAX_TRAIN_BINS, 1);
        assert_eq!(b.n_cuts(0), 3);
        for i in 0..8 {
            let v = x.get(i, 0);
            let code = b.codes(0)[i] as usize;
            // code <= b ⟺ v <= cut(b): check the defining equivalence.
            for c in 0..b.n_cuts(0) {
                assert_eq!(code <= c, v <= b.cut(0, c), "v={v} cut={}", b.cut(0, c));
            }
        }
    }

    #[test]
    fn constant_column_gets_no_cuts() {
        let x = DenseMatrix::from_rows(vec![5.0; 16], 16, 1);
        let b = TrainingBins::build(&x, 16, 1);
        assert_eq!(b.n_cuts(0), 0);
    }

    #[test]
    fn training_bins_threaded_identical() {
        let (x, _) = lcg_matrix(512, 6, 9);
        let a = TrainingBins::build(&x, 64, 1);
        let b = TrainingBins::build(&x, 64, 4);
        for f in 0..6 {
            assert_eq!(a.codes(f), b.codes(f));
            assert_eq!(a.n_cuts(f), b.n_cuts(f));
        }
    }
}
