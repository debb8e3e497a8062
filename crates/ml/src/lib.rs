//! # domd-ml
//!
//! From-scratch machine-learning substrate for the DoMD framework. The
//! paper builds on XGBoost, scikit-learn, and Optuna; Rust's tabular-ML
//! ecosystem is thin, so this crate implements the pieces the pipeline
//! needs:
//!
//! * [`gbt`] — Newton-boosted regression trees over arbitrary
//!   twice-differentiable losses (the XGBoost stand-in), with gain-based
//!   feature importance;
//! * [`flat`] — the branchless flat-forest inference kernel every trained
//!   ensemble compiles into (one node pool, tree-at-a-time batch
//!   traversal);
//! * [`linear`] — elastic-net linear regression by coordinate descent (the
//!   simpler baseline family);
//! * [`loss`] — ℓ1 / ℓ2 / Huber / pseudo-Huber losses (Section 3.2.3);
//! * [`select`] — Pearson, Spearman, mutual information, RFE, and random
//!   feature selection (Task 2);
//! * [`hpt`] — TPE/SMBO hyperparameter optimization (Task 5);
//! * [`metrics`] — MAE (incl. percentile MAE), MSE, RMSE, R²;
//! * [`matrix`], [`stats`] — dense matrices and statistical primitives.

#![deny(unsafe_code)]
pub mod flat;
pub mod forest;
pub mod gbt;
pub mod hpt;
pub mod interpret;
pub mod linear;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod select;
pub mod stats;
pub mod tree;
pub mod validate;

pub use flat::{Combine, FlatForest};
pub use forest::{ForestModel, ForestParams};
pub use interpret::{partial_dependence, permutation_importance, PdpPoint};
pub use gbt::{GbtModel, GbtParams};
pub use hpt::{tpe_minimize, ParamDomain, ParamSpec, TpeConfig, TpeResult, Trial};
pub use linear::{ElasticNetModel, ElasticNetParams};
pub use loss::Loss;
pub use matrix::DenseMatrix;
pub use metrics::{mae, mse, percentile_mae, r2, rmse, QualityReport};
pub use model::{ModelSpec, TrainedModel};
pub use persist::{PersistError, Reader};
pub use validate::{cross_val_mae, cross_val_summary, kfold_indices};
pub use select::SelectionMethod;
pub use tree::{RegressionTree, TreeParams};
