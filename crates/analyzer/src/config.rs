//! The workspace invariant policy: which paths each rule governs.
//!
//! Every exemption here is a *policy decision* recorded in DESIGN.md §9,
//! not a convenience. The shape is deliberately dumb — prefix and suffix
//! matching over workspace-relative paths with `/` separators — so a
//! reviewer can audit the whole waiver-free surface in one screen.

/// Directory names never descended into. `tests`, `benches`, `examples`
/// and `fixtures` hold code that *may* panic or spawn freely (test code
/// is exempt from R1–R3 by definition, and the analyzer's own fixture
/// corpus is violations on purpose); `target` and `vendor` are not ours.
pub const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "tests", "benches", "examples", "fixtures", ".git",
];

/// Path prefixes exempt from R1 (`no-panic`). The bench crate is the
/// measurement harness: its binaries abort an experiment run on bad
/// flags or impossible invariants, and nothing downstream serves traffic
/// from it. Everything else must return typed errors.
pub const NO_PANIC_EXEMPT: &[&str] = &["crates/bench/"];

/// Path prefixes allowed to touch `std::thread` directly (R2). The PR-2
/// contract: all parallelism flows through the bounded, no-nesting
/// `domd-runtime` pool, so thread-count changes cannot change results.
pub const THREAD_ALLOWED: &[&str] = &["crates/runtime/"];

/// Path prefixes allowed to read wall/monotonic clocks (R3). Timing is
/// the bench harness's purpose; result-producing code must not branch on
/// time. The serve crate's clock module is the one other exception: it
/// is the clock-as-capability boundary (`WallClock` wraps `Instant` so
/// everything downstream takes a `dyn Clock` and stays deterministic
/// under `ManualClock` in tests).
pub const TIME_ALLOWED: &[&str] = &["crates/bench/", "crates/serve/src/clock.rs"];

/// Path prefixes allowed to build unbounded queues (R6). The runtime
/// crate owns the bounded primitives (`BoundedQueue` is a capped
/// `VecDeque` underneath); everywhere else an `mpsc::channel()` or an
/// unguarded `push_back` is a place overload can grow memory instead of
/// shedding, so it must either check capacity first or carry a waiver.
pub const QUEUE_ALLOWED: &[&str] = &["crates/runtime/"];

/// The files governed by R4 (`wal-order`): the WAL-before-apply durable
/// store and the delta-application module whose mutations are derived
/// from the store's log order (an apply without that provenance must
/// carry a same-body `append` or a waiver explaining the derivation).
pub const WAL_ORDER_FILES: &[&str] =
    &["crates/index/src/durable.rs", "crates/index/src/delta.rs"];

/// The durable store's one apply function (R4): live writes and replay
/// change its rows only through it, so each call must be preceded,
/// within the same `fn` body, by a WAL `append`. Replay, whose records
/// are already in the log, carries the one waiver.
pub const WAL_MUTATORS: &[&str] = &["apply_record"];

/// The call that makes a mutation durable-ordered (R4).
pub const WAL_APPENDER: &str = "append";

/// The lint attribute every crate root must carry (R5), as the ident
/// sequence inside `#![deny(...)]`.
pub const REQUIRED_DENY: &str = "unsafe_code";

// ---- R7 `lock-order` -------------------------------------------------

/// The declared lock hierarchy, as `(receiver identifier, class, rank)`.
/// Locks must be acquired in ascending rank; acquiring a lower-or-equal
/// rank while holding a higher one is an inversion, and re-acquiring the
/// *same class* is a self-deadlock. Distinct classes at the same rank
/// (the two tenant-state locks) are unordered relative to each other.
///
/// Receivers are resolved by the final path segment before `.lock()` /
/// `.try_lock()` — `self.current.lock()` → `current`. Receivers not
/// listed here (I/O handles, bench-local mutexes) are outside the
/// hierarchy and invisible to R7; the policy is documented in
/// DESIGN.md §14.
pub const LOCK_HIERARCHY: &[(&str, &str, u8)] = &[
    ("current", "epoch-swap", 0),
    ("build", "epoch-build", 0),
    ("breaker", "tenant-breaker", 1),
    ("cache", "tenant-cache", 1),
    ("durable", "durable-index", 2),
    ("wal", "wal-file", 3),
];

/// Methods that acquire a lock on a classified receiver.
pub const LOCK_METHODS: &[&str] = &["lock", "try_lock"];

/// Workspace functions that acquire and *return* a classified guard:
/// `(fn name, class)`. Calling one of these is an acquisition at the
/// call site (the guard lives in the caller), so the call itself is
/// exempt from the held-across-call check for that class.
pub const GUARD_FNS: &[(&str, &str)] = &[
    ("swap_lock", "epoch-swap"),
    ("build_lock", "epoch-build"),
    ("lock_breaker", "tenant-breaker"),
];

/// The files R7 governs. Lock discipline is checked only where the
/// hierarchy's locks live — serve request handling, epoch-store
/// publication, the durable index, and the WAL.
pub const LOCK_ORDER_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/serve/src/state.rs",
    "crates/index/src/durable.rs",
    "crates/index/src/snapshot.rs",
    "crates/storage/src/wal.rs",
];

// ---- R8 `ack-order` --------------------------------------------------

/// Entry points of the serve ingest path. From each, the call graph is
/// flattened (calls take effect after their arguments) and every
/// publish/ack must be dominated by a sync.
pub const ACK_ENTRIES: &[&str] = &["handle_ingest"];

/// Calls that make ingested rows durable (fsync or group-commit flush).
pub const ACK_SYNC_FNS: &[&str] = &["sync", "sync_durable", "flush"];

/// Calls that publish a new epoch (make ingested rows readable).
pub const ACK_PUBLISH_FNS: &[&str] = &["install", "publish"];

/// Identifiers that mark the protocol ack (reply-variant constructors;
/// matched as bare idents since variant construction has no parens).
pub const ACK_MARKERS: &[&str] = &["Ingested"];

/// The files whose fns participate in R8 flattening. The ingest path
/// spans the serve handler, the epoch store, the durable index, and the
/// WAL; fns outside these files are treated as opaque.
pub const ACK_ORDER_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/index/src/snapshot.rs",
    "crates/index/src/durable.rs",
    "crates/storage/src/wal.rs",
];

// ---- R9 `exit-code-map` ----------------------------------------------

/// The error enum whose variants must each map to one exit code.
pub const ERROR_ENUM: &str = "DomdError";

/// Where the enum is declared.
pub const ERROR_ENUM_FILE: &str = "crates/core/src/error.rs";

/// The function that maps variants to exit codes.
pub const EXIT_MAP_FN: &str = "exit_code";

/// Where `fn exit_code` and its doc-comment exit-code table live.
pub const EXIT_MAP_FILE: &str = "src/bin/domd.rs";

/// Documentation files whose `| code | … |` tables must list exactly the
/// mapped exit codes. Checked in workspace sweeps (fixture corpora have
/// no README).
pub const EXIT_DOC_FILES: &[&str] = &["README.md"];

/// True when `rel_path` (workspace-relative, `/`-separated) is a crate
/// root subject to R5: `src/lib.rs` of the umbrella crate or of any
/// workspace member.
pub fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/")
            && rel_path.ends_with("/src/lib.rs")
            && rel_path.matches('/').count() == 3)
}

/// True when `rel_path` starts with any of `prefixes`.
pub fn matches_prefix(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_roots_are_exactly_lib_rs() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/storage/src/lib.rs"));
        assert!(!is_crate_root("crates/storage/src/wal.rs"));
        assert!(!is_crate_root("src/cli.rs"));
        assert!(!is_crate_root("crates/storage/src/nested/lib.rs"));
    }

    #[test]
    fn prefix_matching_is_literal() {
        assert!(matches_prefix("crates/bench/src/util.rs", NO_PANIC_EXEMPT));
        assert!(!matches_prefix("crates/core/src/query.rs", NO_PANIC_EXEMPT));
    }

    /// Every path this module names must exist on disk. A rename that
    /// orphans an allowlist entry would otherwise silently rot the
    /// exemption (or the *coverage* — a moved `durable.rs` would drop
    /// out of R4/R7 without any test noticing).
    #[test]
    fn every_governed_path_exists_on_disk() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root above crates/analyzer")
            .to_path_buf();
        let all_paths: Vec<&str> = NO_PANIC_EXEMPT
            .iter()
            .chain(THREAD_ALLOWED)
            .chain(TIME_ALLOWED)
            .chain(QUEUE_ALLOWED)
            .chain(WAL_ORDER_FILES)
            .chain(LOCK_ORDER_FILES)
            .chain(ACK_ORDER_FILES)
            .chain(EXIT_DOC_FILES)
            .copied()
            .chain([ERROR_ENUM_FILE, EXIT_MAP_FILE])
            .collect();
        for p in all_paths {
            let disk = root.join(p.trim_end_matches('/'));
            assert!(disk.exists(), "config path {p:?} missing on disk at {disk:?}");
        }
    }

    #[test]
    fn lock_hierarchy_ranks_are_consistent() {
        // Classes are unique; ranks ascend with declaration order.
        let mut classes = std::collections::BTreeSet::new();
        let mut last = 0u8;
        for (recv, class, rank) in LOCK_HIERARCHY {
            assert!(classes.insert(*class), "duplicate lock class {class}");
            assert!(!recv.is_empty());
            assert!(*rank >= last, "ranks must be declared in ascending order");
            last = *rank;
        }
        // Every guard-returning fn names a declared class.
        for (f, class) in GUARD_FNS {
            assert!(
                LOCK_HIERARCHY.iter().any(|(_, c, _)| c == class),
                "guard fn {f} names unknown class {class}"
            );
        }
    }
}
