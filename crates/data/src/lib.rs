//! # domd-data
//!
//! Data substrate for the DoMD (Days of Maintenance Delay) estimation
//! framework — the schema and synthetic-data layer of the EDBT 2025 paper
//! *"A Computational Framework for Estimating Days of Maintenance Delay of
//! Naval Ships"*.
//!
//! The crate provides:
//!
//! * [`date`] — dependency-free civil-date arithmetic (delay is day
//!   arithmetic on planned vs. actual durations, Section 2);
//! * [`avail`] — the availability table schema with the paper's
//!   duration-based delay definition;
//! * [`rcc`] — Request-for-Contract-Change rows with G/NW/NG types and
//!   hierarchical 8-digit SWLIN codes, plus the active/settled/created
//!   status predicate of Equations 3–6;
//! * [`logical_time`] — Equation 1's percent-of-planned-duration timeline
//!   and its discretization into model windows;
//! * [`dataset`] — the two-table NMD layout, Table 5 statistics, Figure 2
//!   histograms, and the train/validation/test protocol of Section 5.2.1;
//! * [`generator`] — a seeded synthetic NMD (the real data is CUI and not
//!   releasable) with an x-fold RCC scaling mode for the scalability study.

#![deny(unsafe_code)]
pub mod avail;
pub mod csv;
pub mod dataset;
pub mod date;
pub mod distributions;
pub mod fault;
pub mod generator;
pub mod hash;
pub mod logical_time;
pub mod obfuscate;
pub mod quarantine;
pub mod rcc;
pub mod validate;

pub use avail::{Avail, AvailId, AvailStatus, ShipId, StaticAttrs};
pub use dataset::{Dataset, RccTable, Split, Stats};
pub use date::Date;
pub use fault::{corrupt_bytes, corrupt_text, FaultKind, StorageFault};
pub use generator::{censor_ongoing, generate, generate_with_truth, GeneratorConfig};
pub use logical_time::{logical_time, physical_time, LogicalTime, TimeGrid};
pub use obfuscate::{obfuscate, ObfuscationKey};
pub use quarantine::{read_dataset_lenient, QuarantineReport, QuarantinedRow};
pub use rcc::{amount_admitted, status_at, Rcc, RccId, RccStatus, RccType, Swlin};
pub use validate::{validate, Finding, Severity, ValidationReport};
