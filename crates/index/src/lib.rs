//! # domd-index
//!
//! Status Query processing for the DoMD framework — Section 4 of the EDBT
//! 2025 paper. A Status Query retrieves, at a logical timestamp `t*`, the
//! RCCs that are active / settled / created / not-yet-created (Equations
//! 3–6), restricted to GROUP BY subtrees over RCC type and the SWLIN
//! hierarchy, and aggregates their amounts and durations.
//!
//! Index designs answering the logical-time predicates:
//!
//! * [`flat_avl::FlatAvlIndex`] — dual AVL trees keyed on logical start and
//!   end positions (the paper's winning design; O(log n) dynamic
//!   maintenance), stored as struct-of-arrays node columns so range scans
//!   walk the key column sequentially;
//! * [`interval_tree::IntervalTreeIndex`] — a centered interval tree;
//! * [`sorted_array::SortedArrayIndex`] — static sorted event arrays (the
//!   static-workload floor the trees trade against dynamic maintenance);
//! * [`naive::NaiveJoinIndex`] — the materialized avail ⋈ RCC join scanned
//!   per query (the Pandas-merge baseline, and the from-scratch oracle the
//!   other designs are tested against).
//!
//! [`arena::RccArena`] is the columnar (struct-of-arrays) RCC table every
//! view aggregates from; its columns, the flat AVL node columns and the
//! group-by trees keep their storage in [`chunked`]'s `Arc`-shared pieces,
//! so a view clone copies pointers and a delta copies only the pieces it
//! writes. [`cache::LruCache`] is the bounded LRU behind the online
//! feature snapshot cache in `domd-features`.
//! [`durable::DurableIndex`] wraps any maintainable index with a
//! write-ahead log and rolling checksummed checkpoints so dynamic
//! maintenance survives process crashes (recovery replays the longest
//! valid WAL prefix onto the newest intact checkpoint).
//!
//! [`group_tree`] holds the RCC-Type-Tree and SWLIN tree of Algorithm
//! StatusQ, and [`status_runs`] each type's rows in `start` and `end`
//! order with exact per-run totals, which answer the unfiltered and
//! per-type queries without a scan; [`status_query`] implements the
//! algorithm itself, as one type per use: [`status_query::StatusView`]
//! (the arena, the group trees and the run directories, which `domd
//! serve` reads and maintains) and
//! [`status_query::StatusQueryEngine`] (a view plus a logical-time index,
//! the paper's index plan, built once and never maintained); and
//! [`incremental`] provides the `StatStructure` delta computation of
//! Section 4.3, which advances per-group aggregates across the logical
//! timeline touching only the RCCs whose endpoints fall in each new window.
//! [`delta`] maintains a view against a typed insert/settle/remove stream
//! in the DurableIndex WAL order — O(log n) per delta, bit-identical to a
//! from-scratch rebuild over the live rows (every status sum is exact, so
//! no answer depends on the order rows arrived in).

#![deny(unsafe_code)]
pub mod arena;
pub mod cache;
pub mod chunked;
pub mod delta;
pub mod durable;
pub mod flat_avl;
pub mod group_tree;
pub mod incremental;
pub mod interval_tree;
pub mod naive;
pub mod snapshot;
pub mod sorted_array;
pub mod status_query;
pub mod status_runs;
pub mod traits;
pub mod types;

/// The exact-sum reference the integration tests use, shared with the
/// unit tests.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_common;

pub use arena::RccArena;
pub use cache::{CacheStats, LruCache, DEFAULT_CACHE_CAPACITY};
pub use chunked::SortedRuns;
pub use delta::RccDelta;
pub use durable::{
    DurableIndex, RebuildError, RecoveryReport, StoredRow, DEFAULT_CHECKPOINT_EVERY,
};
pub use flat_avl::{FlatAvlIndex, FlatAvlTree};
pub use group_tree::{RccTypeTree, SwlinTree};
pub use incremental::{
    sweep_from_scratch, sweep_incremental, Accum, RowColumns, StatStructure,
};
pub use interval_tree::IntervalTreeIndex;
pub use naive::NaiveJoinIndex;
pub use snapshot::{EpochStore, Pinned};
pub use sorted_array::SortedArrayIndex;
pub use status_query::{GroupRows, StatusAggregate, StatusQuery, StatusQueryEngine, StatusView};
pub use traits::{LogicalTimeIndex, MaintainableIndex};
pub use types::{project_dataset, HeapSize, LogicalRcc, OrderedF64, RowId};
