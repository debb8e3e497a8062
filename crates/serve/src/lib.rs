//! # domd-serve — the overload-safe serving core
//!
//! A long-running request loop over the DoMD pipeline: Status Queries,
//! online DoMD predictions, and risk-ranked alert sweeps for many
//! tenants concurrently, with the overload discipline the rest of the
//! workspace's determinism/durability contracts demand:
//!
//! * **Snapshot-isolated reads** — every read pins one immutable epoch
//!   ([`domd_index::Pinned`]); mutations build the next epoch behind an
//!   atomic swap, so reads are lock-free and never block on ingest.
//! * **Admission control** — a bounded queue
//!   ([`domd_runtime::BoundedQueue`]) that answers
//!   [`DomdError::Overloaded`](domd_core::DomdError) instead of growing,
//!   ever.
//! * **Deadlines** — per-request tick budgets checked at admission, at
//!   dequeue, between pipeline stages, and cooperatively inside the
//!   alert sweep; exhausted budgets answer
//!   [`DomdError::DeadlineExceeded`](domd_core::DomdError).
//! * **Circuit breaking** — a deterministic per-tenant breaker
//!   ([`breaker::CircuitBreaker`]) that reroutes a struggling tenant's
//!   predictions onto the explicit degraded path and probes its way
//!   back.
//! * **Determinism** — all time flows through the [`clock::Clock`]
//!   capability; under [`clock::ManualClock`] every schedule, deadline
//!   race, and breaker transition is replayable from a seed.
//!
//! The module map mirrors the request's journey: [`request`] (what is
//! asked), [`clock`] (when), [`server`] (admission → pin → execute),
//! [`state`] (the epoch a read sees), [`breaker`] (per-tenant health),
//! [`protocol`] (the `domd serve` line protocol), [`loadgen`] (the
//! seeded open-loop client for benches and chaos).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod clock;
pub mod loadgen;
pub mod protocol;
pub mod rebuild;
pub mod request;
pub mod server;
pub mod state;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Route};
pub use clock::{Clock, ManualClock, Ticks, WallClock};
pub use loadgen::{generate_schedule, LoadGenConfig, TrafficMix};
pub use protocol::{parse_line, render_response, run_session, SessionStats};
pub use rebuild::{rebuild_tenant, resolve_v1_row, RebuildSummary};
pub use request::{Alert, IngestRow, Op, Reply, Request, Response};
pub use server::{
    announce_recovery, MetricsReport, ServeConfig, ServeCore, SharedModel, Stage, StageHook,
};
pub use state::TenantSnapshot;
