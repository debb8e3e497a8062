#![deny(unsafe_code)]
//! # domd-analyzer
//!
//! A std-only static invariant checker for this workspace, surfaced as
//! the `domd-lint` binary. The codebase rests on invariants no compiler
//! pass checks — bit-identical results across thread counts (PR 2),
//! epoch-keyed cache invalidation (PR 3), WAL-before-apply durability
//! (PR 4), and the typed [`DomdError`] taxonomy (PR 1). A single stray
//! `thread::spawn`, a default-hasher map iterated in a hot path, or an
//! `unwrap()` on a storage read silently reintroduces the exact failure
//! classes those layers eliminated. `domd-lint` mechanically enforces:
//!
//! | rule | invariant guarded |
//! |------|-------------------|
//! | `no-panic` | non-test code returns typed errors, never panics |
//! | `thread-spawn` | all parallelism flows through `domd-runtime` |
//! | `nondeterminism` | no clocks, ambient entropy, or default hashers |
//! | `wal-order` | WAL append precedes the store's record apply in `durable.rs` |
//! | `lint-header` | every crate root carries `#![deny(unsafe_code)]` |
//! | `bounded-queues` | queues shed under overload, never grow unbounded |
//! | `lock-order` | acquisitions follow the declared hierarchy, call-graph-wide |
//! | `ack-order` | fsync dominates epoch publish and ack on the ingest path |
//! | `exit-code-map` | one exit code per error variant, docs in agreement |
//!
//! The first six rules are per-file token matches; the last three are
//! *interprocedural* — they run over recovered function bodies and an
//! intra-workspace call graph, so an inverted lock acquisition is caught
//! through any number of intervening calls.
//!
//! * [`lexer`] — a minimal Rust lexer that correctly skips comments,
//!   strings, raw strings, and char literals, so rules match tokens the
//!   compiler would see — never text inside literals;
//! * [`parser`] — structural recovery over the token stream: items,
//!   bodies as block trees, call/marker events in effect order;
//! * [`callgraph`] — name-resolved call edges, the per-fn "can acquire"
//!   fixpoint, and the R7/R8/R9 passes;
//! * [`rules`] — the per-file rule engine, `#[cfg(test)]`-aware, with
//!   inline `// domd-lint: allow(<rule>) — <justification>` waivers that
//!   are inventoried, justified, and must suppress something;
//! * [`config`] — the path-keyed policy (exempt surfaces, the lock
//!   hierarchy, the ingest-path vocabulary, the exit-code map location);
//! * [`workspace`] — deterministic file discovery and the merged scan;
//! * [`self_check`] — validates the rule set against the fixture corpus
//!   (`fixtures/`), so a broken lexer fails loudly;
//! * [`report`] — findings, the waiver inventory, human/JSON rendering.
//!
//! [`DomdError`]: https://example.org/domd
//!
//! ```no_run
//! let report = domd_analyzer::scan_workspace(std::path::Path::new(".")).expect("readable");
//! assert!(report.is_clean(), "{}", report.render_human());
//! ```

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod self_check;
pub mod workspace;

pub use report::{Finding, Report, Rule, Waiver};
pub use rules::{analyze_file, scan_file, FileSummary};
pub use self_check::{self_check, SelfCheckReport};
pub use workspace::{collect_files, find_root, scan_workspace, AnalyzerError};
