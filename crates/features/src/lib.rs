//! # domd-features
//!
//! Feature engineering for the DoMD framework — the transformation
//! function 𝒯 of Section 3.1 that turns raw avail/RCC rows into the
//! avail × feature × logical-time tensor the timeline models consume.
//!
//! * [`spec`] — the 1490-feature catalog over (RCC type × SWLIN subsystem ×
//!   status × aggregation) plus trend features, with paper-style names like
//!   `G1-AVG_AMT_SET`;
//! * [`static_features`] — the 8 static features `F_i^S`;
//! * [`engine`] — tensor generation via one incremental Status Query sweep,
//!   plus the online single-avail path for live DoMD queries;
//! * [`cache`] — a memoizing LRU over the online per-avail feature
//!   snapshots with epoch-based invalidation (plus surgical per-avail
//!   invalidation for classified deltas);
//! * [`tensor`] — the materialized tensor with per-grid-point slices.
//!
//! `domd serve` holds no tensor: an online query computes the feature rows
//! it needs from the pinned dataset ([`engine`]'s online path), so an
//! ingest changes the dataset and nothing here needs patching.

#![deny(unsafe_code)]
pub mod cache;
pub mod engine;
pub mod spec;
pub mod static_features;
pub mod tensor;

pub use cache::{FeatureCache, FeatureKey};
pub use engine::FeatureEngine;
pub use spec::{Aggregation, FeatureCatalog, FeatureSpec, StatusFilter, SwlinGroup, TypeFilter};
pub use static_features::{static_matrix, static_row, N_STATIC, STATIC_FEATURE_NAMES};
pub use tensor::FeatureTensor;
