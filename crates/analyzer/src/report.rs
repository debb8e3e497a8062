//! Findings, waivers, and the machine-readable report.

use std::fmt::Write as _;

/// The nine project-invariant rules plus the waiver meta-rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// R1: no `unwrap`/`expect`/`panic!` family in non-test code.
    NoPanic,
    /// R2: no `std::thread` use outside `domd-runtime`.
    ThreadSpawn,
    /// R3: no wall clocks, ambient RNG, or default-hasher maps.
    Nondeterminism,
    /// R4: WAL append must precede the store's record apply in `durable.rs`.
    WalOrder,
    /// R5: crate roots carry the agreed `#![deny(...)]` header.
    LintHeader,
    /// R6: no unbounded queues outside `domd-runtime` — `mpsc::channel()`
    /// and capacity-unchecked `push_back` must shed, not grow.
    BoundedQueues,
    /// R7: lock acquisitions must follow the declared hierarchy, on
    /// every path reachable through the call graph.
    LockOrder,
    /// R8: on the ingest path, fsync must dominate epoch publish and
    /// the protocol ack ("acked ⇒ durable"), across calls.
    AckOrder,
    /// R9: every `DomdError` variant maps to exactly one exit code, and
    /// the doc tables agree with the code.
    ExitCodeMap,
    /// Meta: a malformed, unjustified, or unused waiver comment.
    WaiverPolicy,
}

impl Rule {
    /// Stable kebab-case id used in reports and `allow(...)` comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::Nondeterminism => "nondeterminism",
            Rule::WalOrder => "wal-order",
            Rule::LintHeader => "lint-header",
            Rule::BoundedQueues => "bounded-queues",
            Rule::LockOrder => "lock-order",
            Rule::AckOrder => "ack-order",
            Rule::ExitCodeMap => "exit-code-map",
            Rule::WaiverPolicy => "waiver-policy",
        }
    }

    /// Parses a rule id as written in an `allow(...)` comment.
    pub fn from_id(id: &str) -> Option<Rule> {
        match id {
            "no-panic" => Some(Rule::NoPanic),
            "thread-spawn" => Some(Rule::ThreadSpawn),
            "nondeterminism" => Some(Rule::Nondeterminism),
            "wal-order" => Some(Rule::WalOrder),
            "lint-header" => Some(Rule::LintHeader),
            "bounded-queues" => Some(Rule::BoundedQueues),
            "lock-order" => Some(Rule::LockOrder),
            "ack-order" => Some(Rule::AckOrder),
            "exit-code-map" => Some(Rule::ExitCodeMap),
            "waiver-policy" => Some(Rule::WaiverPolicy),
            _ => None,
        }
    }

    /// Every waivable rule, for `--self-check` coverage accounting.
    pub const ALL: &'static [Rule] = &[
        Rule::NoPanic,
        Rule::ThreadSpawn,
        Rule::Nondeterminism,
        Rule::WalOrder,
        Rule::LintHeader,
        Rule::BoundedQueues,
        Rule::LockOrder,
        Rule::AckOrder,
        Rule::ExitCodeMap,
    ];

    /// The `--explain <rule>` text: what the rule enforces, why the
    /// invariant matters here, and how to conform or waive.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::NoPanic => {
                "no-panic (R1)\n\
                 Forbids `.unwrap()`, `.expect(...)`, `panic!`, `unreachable!`,\n\
                 `todo!`, and `unimplemented!` in non-test code. Result-producing\n\
                 paths must return typed `DomdError`s so callers choose between\n\
                 degraded serving and refusal. Test code (`#[test]`, `#[cfg(test)]`)\n\
                 and `crates/bench/` are exempt by policy.\n\
                 Conform: propagate with `?` and a typed error.\n"
            }
            Rule::ThreadSpawn => {
                "thread-spawn (R2)\n\
                 Forbids direct `std::thread` use outside `crates/runtime/`. All\n\
                 parallelism flows through the bounded `domd-runtime` pool so\n\
                 results are bit-identical at every thread count.\n\
                 Conform: use `runtime::pool()` / `par_map`.\n"
            }
            Rule::Nondeterminism => {
                "nondeterminism (R3)\n\
                 Forbids wall/monotonic clocks, ambient RNG, and default-hasher\n\
                 maps in result-producing code — iteration order and timing must\n\
                 not change outputs. `crates/bench/` and the serve clock capability\n\
                 module are the allowed exceptions.\n\
                 Conform: seeded RNG, `BTreeMap`, or an explicit `FxBuildHasher`.\n"
            }
            Rule::WalOrder => {
                "wal-order (R4)\n\
                 In the WAL-governed files, every call of the durable store's\n\
                 apply function (`apply_record`) must be preceded in the same\n\
                 fn body by a WAL `append`: log-before-apply is the recovery\n\
                 contract. Replay of logged records carries a waiver naming it.\n"
            }
            Rule::LintHeader => {
                "lint-header (R5)\n\
                 Every crate root must carry `#![deny(unsafe_code)]`. The analyzer\n\
                 has no soundness story for unsafe blocks, so the workspace bans\n\
                 them at the compiler level.\n"
            }
            Rule::BoundedQueues => {
                "bounded-queues (R6)\n\
                 Forbids `mpsc::channel()` and capacity-unchecked `push_back`\n\
                 outside `crates/runtime/`. Under overload the system sheds load;\n\
                 it never grows an unbounded queue. Conform: `sync_channel(cap)`,\n\
                 or check `len() < cap` in the same fn body before pushing.\n"
            }
            Rule::LockOrder => {
                "lock-order (R7)\n\
                 Enforces the declared lock hierarchy over every acquisition path\n\
                 reachable in the intra-workspace call graph:\n\
                   rank 0  EpochStore swap/build locks (`current`, `build`)\n\
                   rank 1  tenant state (`breaker`, `cache`)\n\
                   rank 2  DurableIndex (`durable`)\n\
                   rank 3  WAL file lock (`wal`)\n\
                 A guard is modeled as held until the end of its enclosing block.\n\
                 Findings: acquiring a lower-or-equal rank while a higher one is\n\
                 held (inversion), re-acquiring the same class (self-deadlock),\n\
                 and holding a guard across a call whose callee can re-acquire\n\
                 the same class. Findings anchor at the acquisition that is held\n\
                 too long — a waiver on the call site does not suppress them.\n\
                 Conform: drop the guard (end the block) before acquiring down\n\
                 the hierarchy or calling into code that re-acquires.\n"
            }
            Rule::AckOrder => {
                "ack-order (R8)\n\
                 On the serve ingest path, the durability fsync must dominate the\n\
                 epoch publish and the protocol ack: \"acked ⇒ durable\". The rule\n\
                 flattens each ingest entry point through the call graph (calls\n\
                 take effect after their arguments, so an fsync inside a closure\n\
                 argument counts before the enclosing call) and flags any publish\n\
                 (`install`/`publish`) or ack marker (`Ingested`) not preceded by\n\
                 a sync (`sync`/`sync_durable`/`flush`) on the flattened path.\n\
                 Conform: fsync before publishing the epoch that exposes the rows.\n"
            }
            Rule::ExitCodeMap => {
                "exit-code-map (R9)\n\
                 Every `DomdError` variant must map to exactly one exit code in\n\
                 `fn exit_code` — no unmapped variants, no duplicate codes, no\n\
                 wildcard arm hiding new variants — and every documented exit-code\n\
                 table (the bin's doc comment and the README) must list exactly\n\
                 the mapped codes. Drifted docs are findings on the doc file.\n"
            }
            Rule::WaiverPolicy => {
                "waiver-policy (meta)\n\
                 Waivers are `// domd-lint: allow(<rule>) — <justification>` on\n\
                 the violating line or the line above. A waiver must name a real\n\
                 rule, justify itself (≥ 10 chars in workspace tests), and\n\
                 suppress at least one finding — unused waivers are violations.\n\
                 Doc comments (`///`) never grant waivers.\n"
            }
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What was found and what the fix is.
    pub message: String,
}

/// One accepted `// domd-lint: allow(<rule>) — <justification>` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The waived rule.
    pub rule: Rule,
    /// The stated justification (non-empty by construction).
    pub justification: String,
}

/// The result of scanning a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Unwaived violations, in (file, line) order.
    pub violations: Vec<Finding>,
    /// The full waiver surface, in (file, line) order.
    pub waivers: Vec<Waiver>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when no violation survived waiver application.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic ordering for output and tests: (file, line, rule id)
    /// with the rule compared by its *stable kebab-case id*, not enum
    /// declaration order, so adding a variant never reorders CI diffs.
    pub fn sort(&mut self) {
        self.violations.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule.id())
                .cmp(&(b.file.as_str(), b.line, b.rule.id()))
                .then_with(|| a.message.cmp(&b.message))
        });
        self.waivers.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule.id()).cmp(&(b.file.as_str(), b.line, b.rule.id()))
        });
    }

    /// Human-readable report (one line per violation, then the waiver
    /// inventory so reviewers always see the full exempted surface).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{}:{}: [{}] {}", v.file, v.line, v.rule.id(), v.message);
        }
        if !self.waivers.is_empty() {
            let _ = writeln!(out, "waivers ({}):", self.waivers.len());
            for w in &self.waivers {
                let _ = writeln!(
                    out,
                    "  {}:{} [{}] — {}",
                    w.file,
                    w.line,
                    w.rule.id(),
                    w.justification
                );
            }
        }
        let _ = writeln!(
            out,
            "domd-lint: {} file(s), {} violation(s), {} waiver(s)",
            self.files_scanned,
            self.violations.len(),
            self.waivers.len()
        );
        out
    }

    /// Machine-readable report for CI.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"clean\": ");
        out.push_str(if self.is_clean() { "true" } else { "false" });
        let _ = write!(out, ",\n  \"files_scanned\": {},\n  \"violations\": [", self.files_scanned);
        for (i, v) in self.violations.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(&v.file),
                v.line,
                json_str(v.rule.id()),
                json_str(&v.message)
            );
        }
        out.push_str(if self.violations.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"justification\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(&w.file),
                w.line,
                json_str(w.rule.id()),
                json_str(&w.justification)
            );
        }
        out.push_str(if self.waivers.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
        out
    }
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shape() {
        let mut r = Report { files_scanned: 1, ..Report::default() };
        r.violations.push(Finding {
            file: "a\"b.rs".into(),
            line: 3,
            rule: Rule::NoPanic,
            message: "tab\there".into(),
        });
        let j = r.render_json();
        assert!(j.contains(r#""file": "a\"b.rs""#), "{j}");
        assert!(j.contains(r#""message": "tab\there""#), "{j}");
        assert!(j.contains(r#""clean": false"#));
    }

    #[test]
    fn rule_ids_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(*r));
        }
        assert_eq!(Rule::from_id("waiver-policy"), Some(Rule::WaiverPolicy));
        assert_eq!(Rule::from_id("nope"), None);
    }

    #[test]
    fn every_rule_explains_itself_by_id() {
        for r in Rule::ALL.iter().chain([&Rule::WaiverPolicy]) {
            assert!(r.explain().starts_with(r.id()), "{} explain header", r.id());
        }
    }

    #[test]
    fn sort_orders_by_rule_id_string_not_enum_order() {
        // At one location, "ack-order" < "lock-order" < "no-panic" by id,
        // even though NoPanic precedes both in the enum declaration.
        let f = |rule| Finding { file: "x.rs".into(), line: 1, rule, message: "m".into() };
        let mut r = Report {
            violations: vec![f(Rule::NoPanic), f(Rule::LockOrder), f(Rule::AckOrder)],
            ..Report::default()
        };
        r.sort();
        let ids: Vec<&str> = r.violations.iter().map(|v| v.rule.id()).collect();
        assert_eq!(ids, vec!["ack-order", "lock-order", "no-panic"]);
    }
}
