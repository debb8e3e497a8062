//! Chunk-shared copy-on-write storage for epoch-cloned index state.
//!
//! `domd serve` builds every ingest epoch on a clone of the previous one.
//! With flat `Vec` columns that clone copies every row, so a `k`-row
//! batch costs `O(n)` however small `k` is. The two containers here split
//! their storage into `Arc`-shared pieces instead: cloning copies only the
//! piece pointers, and a write copies only the piece it lands in
//! ([`Arc::make_mut`]), so an epoch that touches `c` pieces pays `O(c)`
//! piece copies plus `O(n / piece)` pointer copies.
//!
//! * [`ChunkedVec`] — a positional vector cut into fixed chunks of
//!   [`CHUNK`] slots, every chunk full except the last. It backs the
//!   arena columns and the flat AVL node columns, which are indexed by
//!   row id or node slot and only ever appended to or overwritten in
//!   place.
//! * [`SortedRuns`] — an ordered set kept as ascending runs of at most
//!   [`RUN`] elements. It backs the group-by trees, whose inserts and
//!   removals land mid-sequence: the write copies one run (splitting it
//!   when it overflows) instead of shifting every later element.

use std::ops::{Index, Range};
use std::sync::Arc;

use crate::types::HeapSize;

/// Slots per [`ChunkedVec`] chunk (a power of two, so a position splits
/// into chunk and offset with a shift and a mask).
pub const CHUNK: usize = 1024;
const SHIFT: u32 = CHUNK.trailing_zeros();
const MASK: usize = CHUNK - 1;

/// Maximum elements per [`SortedRuns`] run.
pub const RUN: usize = 512;

/// A vector of `Copy` values stored as `Arc`-shared chunks of [`CHUNK`]
/// slots. Clones share every chunk; [`ChunkedVec::set`] and
/// [`ChunkedVec::push`] copy only the chunk they write, and only when a
/// clone still shares it.
#[derive(Clone)]
pub struct ChunkedVec<T> {
    /// Every chunk but the last is full; slots past `len` in the last
    /// chunk hold filler copies of a pushed value and are never read.
    chunks: Vec<Arc<[T; CHUNK]>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec { chunks: Vec::new(), len: 0 }
    }
}

impl<T: Copy> ChunkedVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        ChunkedVec::default()
    }

    /// A vector holding `values`, built a whole chunk at a time.
    pub fn from_slice(values: &[T]) -> Self {
        let chunks = values
            .chunks(CHUNK)
            .map(|part| {
                let mut chunk = [part[0]; CHUNK];
                chunk[..part.len()].copy_from_slice(part);
                Arc::new(chunk)
            })
            .collect();
        ChunkedVec { chunks, len: values.len() }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `v`, copying the last chunk first if a clone shares it.
    pub fn push(&mut self, v: T) {
        let off = self.len & MASK;
        if off == 0 {
            // A fresh chunk is filled with `v`, so no `Default` is needed.
            self.chunks.push(Arc::new([v; CHUNK]));
        } else {
            Arc::make_mut(&mut self.chunks[self.len >> SHIFT])[off] = v;
        }
        self.len += 1;
    }

    /// Overwrites position `i`, copying its chunk first if a clone shares
    /// it. Callers that can skip a no-op write should: an unchanged value
    /// still unshares the chunk.
    pub fn set(&mut self, i: usize, v: T) {
        assert!(i < self.len, "ChunkedVec::set out of bounds");
        Arc::make_mut(&mut self.chunks[i >> SHIFT])[i & MASK] = v;
    }

    /// The stored values of chunk `c`.
    fn chunk_slice(&self, c: usize) -> &[T] {
        let filled = (self.len - (c << SHIFT)).min(CHUNK);
        &self.chunks[c][..filled]
    }

    /// The values in `range`, as one slice per chunk it spans. Two vectors
    /// of equal length yield slices of equal lengths, so columns of one
    /// table zip chunk by chunk.
    pub fn slices(&self, range: Range<usize>) -> impl Iterator<Item = &[T]> + '_ {
        assert!(range.start <= range.end && range.end <= self.len, "ChunkedVec range past the end");
        let Range { start, end } = range;
        let first = start >> SHIFT;
        let last = if end == start { first } else { ((end - 1) >> SHIFT) + 1 };
        (first..last).map(move |c| {
            let base = c << SHIFT;
            let lo = start.max(base) - base;
            let hi = end.min(base + CHUNK) - base;
            &self.chunks[c][lo..hi]
        })
    }

    /// Every stored value, in order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.chunks.len()).flat_map(move |c| self.chunk_slice(c).iter().copied())
    }

    /// The first position where `pred` is false, for values partitioned
    /// so that `pred` holds on a prefix (as [`slice::partition_point`]).
    /// Searches the chunks' last values first, then one chunk.
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let Some(last) = self.chunks.len().checked_sub(1) else {
            return 0;
        };
        let c = self.chunks[..last].partition_point(|chunk| pred(&chunk[MASK]));
        (c << SHIFT) + self.chunk_slice(c).partition_point(pred)
    }

    /// Chunks of `self` that do not share storage with the chunk at the
    /// same position in `base` (chunks past `base`'s end count too).
    #[cfg(test)]
    pub(crate) fn unshared_chunks(&self, base: &Self) -> usize {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(c, chunk)| base.chunks.get(*c).is_none_or(|b| !Arc::ptr_eq(b, chunk)))
            .count()
    }
}

impl<T> Index<usize> for ChunkedVec<T> {
    type Output = T;

    /// Panics past the last chunk; a position past `len` inside the last
    /// chunk reads a filler value (checked in debug builds only, since hot
    /// loops index by ids the structures themselves produced).
    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "ChunkedVec index out of bounds");
        &self.chunks[i >> SHIFT][i & MASK]
    }
}

impl<T: Copy> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        ChunkedVec::from_slice(&iter.into_iter().collect::<Vec<T>>())
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> HeapSize for ChunkedVec<T> {
    fn heap_bytes(&self) -> usize {
        // Each chunk is one allocation: the two `Arc` counters + the slots.
        let chunk = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<[T; CHUNK]>();
        self.chunks.heap_bytes() + self.chunks.len() * chunk
    }
}

/// A set of `Copy + Ord` values kept as `Arc`-shared ascending runs of at
/// most [`RUN`] elements. Clones share every run; an insert or removal
/// copies the one run it lands in, and an insert that overflows a run
/// splits it in two.
#[derive(Clone)]
pub struct SortedRuns<T> {
    /// Non-empty runs; the last value of each run is below the first value
    /// of the next.
    runs: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for SortedRuns<T> {
    fn default() -> Self {
        SortedRuns { runs: Vec::new(), len: 0 }
    }
}

impl<T: Copy + Ord> SortedRuns<T> {
    /// Builds from strictly ascending values, packed into full runs.
    pub fn from_sorted(values: &[T]) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "values must strictly ascend");
        SortedRuns {
            runs: values.chunks(RUN).map(|run| Arc::new(run.to_vec())).collect(),
            len: values.len(),
        }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the first run whose last value is `>= v`, i.e. the run
    /// that holds `v` or would receive it (`runs.len()` past the end).
    fn run_at_or_after(&self, v: &T) -> usize {
        self.runs.partition_point(|run| run[run.len() - 1] < *v)
    }

    /// True when `v` is stored.
    pub fn contains(&self, v: &T) -> bool {
        self.runs.get(self.run_at_or_after(v)).is_some_and(|run| run.binary_search(v).is_ok())
    }

    /// Inserts `v`; `false` when it is already stored.
    pub fn insert(&mut self, v: T) -> bool {
        // A value past every run joins the last one.
        let r = self.run_at_or_after(&v).min(self.runs.len().saturating_sub(1));
        let Some(run) = self.runs.get(r) else {
            self.runs.push(Arc::new(vec![v]));
            self.len = 1;
            return true;
        };
        let pos = match run.binary_search(&v) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        self.len += 1;
        if pos == RUN && r + 1 == self.runs.len() {
            // Appending past a full last run opens a new run, so an
            // append-only set keeps its runs full and copies nothing.
            self.runs.push(Arc::new(vec![v]));
            return true;
        }
        let run = Arc::make_mut(&mut self.runs[r]);
        run.insert(pos, v);
        if run.len() > RUN {
            let upper = run.split_off(run.len() / 2);
            self.runs.insert(r + 1, Arc::new(upper));
        }
        true
    }

    /// Removes `v`; `false` when it is not stored.
    pub fn remove(&mut self, v: &T) -> bool {
        let r = self.run_at_or_after(v);
        let Some(Ok(pos)) = self.runs.get(r).map(|run| run.binary_search(v)) else {
            return false;
        };
        self.len -= 1;
        if self.runs[r].len() == 1 {
            self.runs.remove(r);
        } else {
            Arc::make_mut(&mut self.runs[r]).remove(pos);
        }
        true
    }

    /// The runs, in ascending order.
    pub fn runs(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.runs.iter().map(|run| run.as_slice())
    }

    /// Every stored value, ascending.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.runs().flat_map(|run| run.iter().copied())
    }

    /// Stored values in `lo..hi`, ascending.
    pub fn range(&self, lo: T, hi: T) -> impl Iterator<Item = T> + '_ {
        let r = self.run_at_or_after(&lo);
        let skip = self.runs.get(r).map_or(0, |run| run.partition_point(|x| *x < lo));
        self.runs[r..]
            .iter()
            .enumerate()
            .flat_map(move |(i, run)| run[if i == 0 { skip } else { 0 }..].iter().copied())
            .take_while(move |x| *x < hi)
    }

    /// Runs of `self` that do not share storage with any run of `base`.
    #[cfg(test)]
    pub(crate) fn unshared_runs(&self, base: &Self) -> usize {
        let shared: Vec<*const Vec<T>> = base.runs.iter().map(Arc::as_ptr).collect();
        self.runs.iter().filter(|run| !shared.contains(&Arc::as_ptr(run))).count()
    }
}

impl<T: Copy + Ord + std::fmt::Debug> std::fmt::Debug for SortedRuns<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> HeapSize for SortedRuns<T> {
    fn heap_bytes(&self) -> usize {
        // Each run is an `Arc<Vec<T>>`: counters + `Vec` header, then the
        // values' own allocation.
        let header = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Vec<T>>();
        let runs: usize = self.runs.iter().map(|run| header + run.heap_bytes()).sum();
        self.runs.heap_bytes() + runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_vec_matches_vec() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            let want: Vec<u32> = (0..n as u32).map(|i| i * 7).collect();
            let got: ChunkedVec<u32> = want.iter().copied().collect();
            assert_eq!(got.len(), n);
            assert_eq!(got.iter().collect::<Vec<_>>(), want);
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(got[i], w);
            }
            for probe in [0, 1, 6, 7, 8, 700, 7 * n as u32, u32::MAX] {
                let pred = |&x: &u32| x < probe;
                assert_eq!(got.partition_point(pred), want.partition_point(pred));
            }
            for (lo, hi) in [(0, n), (n / 3, n / 2), (n, n), (n / 2, n)] {
                let flat: Vec<u32> = got.slices(lo..hi).flatten().copied().collect();
                assert_eq!(flat, want[lo..hi]);
            }
        }
    }

    #[test]
    fn chunked_vec_clone_copies_only_written_chunks() {
        let base: ChunkedVec<u64> = (0..5 * CHUNK as u64 + 3).collect();
        let mut child = base.clone();
        assert_eq!(child.unshared_chunks(&base), 0);
        child.set(2 * CHUNK + 5, 99);
        child.push(7);
        assert_eq!(child.unshared_chunks(&base), 2, "the written chunk and the tail");
        assert_eq!(base[2 * CHUNK + 5], 2 * CHUNK as u64 + 5, "the parent keeps its value");
        assert_eq!(base.len() + 1, child.len());
        assert_eq!(child[2 * CHUNK + 5], 99);
        assert_eq!(child[child.len() - 1], 7);
    }

    #[test]
    fn sorted_runs_track_a_btreeset() {
        let mut runs = SortedRuns::from_sorted(&(0..3000u32).map(|i| i * 4).collect::<Vec<_>>());
        let mut want: std::collections::BTreeSet<u32> = runs.iter().collect();
        let mut state = 17u64;
        for step in 0..6000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (state >> 40) as u32 % 14_000;
            if step % 3 == 0 {
                assert_eq!(runs.remove(&v), want.remove(&v), "remove {v}");
            } else {
                assert_eq!(runs.insert(v), want.insert(v), "insert {v}");
            }
            assert_eq!(runs.contains(&v), want.contains(&v));
        }
        assert_eq!(runs.len(), want.len());
        assert!(runs.runs().all(|r| !r.is_empty() && r.len() <= RUN));
        assert_eq!(runs.iter().collect::<Vec<_>>(), want.iter().copied().collect::<Vec<_>>());
        for (lo, hi) in [(0, 14_000), (500, 501), (4001, 9000), (13_999, 20_000), (9, 3)] {
            let got: Vec<u32> = runs.range(lo, hi).collect();
            let exp: Vec<u32> = want.iter().copied().filter(|&x| x >= lo && x < hi).collect();
            assert_eq!(got, exp, "range {lo}..{hi}");
        }
    }

    #[test]
    fn sorted_runs_write_copies_one_run() {
        let evens: Vec<u32> = (0..10 * RUN as u32).map(|i| 2 * i).collect();
        let base = SortedRuns::from_sorted(&evens);
        let mut child = base.clone();
        assert!(child.insert(2 * RUN as u32 + 1), "mid-sequence insert");
        assert_eq!(child.unshared_runs(&base), 2, "a full run splits into two fresh runs");
        let mut child = base.clone();
        assert!(child.remove(&(6 * RUN as u32)));
        assert_eq!(child.unshared_runs(&base), 1);
        assert!(child.insert(u32::MAX), "append past a full last run");
        assert_eq!(child.unshared_runs(&base), 2);
        assert_eq!(base.len(), 10 * RUN, "the parent is untouched");
    }
}
