//! The per-file rule engine.
//!
//! Rules match token sequences from [`crate::lexer`], so string/comment
//! content can never trigger them. Test code — `#[cfg(test)]` modules and
//! `#[test]` functions — is structurally skipped for R1–R4: the
//! invariants guard the ingest→train→serve path, and test code panics
//! and spawns by design.
//!
//! A finding is suppressed only by an inline waiver comment on the same
//! line or the line directly above:
//!
//! ```text
//! // domd-lint: allow(no-panic) — slice length checked two lines up
//! ```
//!
//! Waivers require a justification, must actually suppress something,
//! and are inventoried into the report so the full exempted surface is
//! visible to CI and reviewers.

use crate::callgraph::{self, DocTable};
use crate::config;
use crate::lexer::{self, Tok, Token};
use crate::parser::{self, test_line_ranges, test_mask};
use crate::report::{Finding, Report, Rule, Waiver};

/// Result of scanning one file: surviving violations plus the waivers
/// that were applied.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Violations that no waiver covered.
    pub violations: Vec<Finding>,
    /// Waivers that suppressed a finding.
    pub waivers: Vec<Waiver>,
}

/// Everything one file contributes to a workspace sweep, *before*
/// waiver application: a pure function of `(rel_path, source)`. The
/// cross-file passes (R7/R8/R9 and waiver accounting) run over the
/// summaries in [`finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileSummary {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Local (R1–R6) findings, pre-waiver.
    pub raw: Vec<Finding>,
    /// Waiver-policy findings (malformed waivers) — always surface.
    pub meta: Vec<Finding>,
    /// Well-formed waiver candidates, not yet matched to findings.
    pub waivers: Vec<Waiver>,
    /// Line ranges covered by test code.
    pub test_ranges: Vec<(usize, usize)>,
    /// Recovered function definitions (call-graph nodes).
    pub fns: Vec<parser::FnDef>,
    /// Error-enum variants, when this file declares them (R9).
    pub error_variants: Vec<(String, usize)>,
    /// The exit-code map, when this file defines it (R9).
    pub exit_map: Option<parser::ExitMap>,
}

/// Scans one file in isolation: per-file rules plus the interprocedural
/// rules over this file's own call graph. This is what `--self-check`
/// runs per fixture; workspace sweeps use [`analyze_file`] + [`finish`]
/// so R7–R9 see cross-file edges.
pub fn scan_file(rel_path: &str, source: &str) -> FileScan {
    let report = finish(vec![analyze_file(rel_path, source)], &[]);
    FileScan { violations: report.violations, waivers: report.waivers }
}

/// Runs the per-file half of the pipeline.
pub fn analyze_file(rel_path: &str, source: &str) -> FileSummary {
    let lexed = lexer::lex(source);
    let toks = &lexed.tokens;
    let in_test = test_mask(toks);
    let test_ranges = test_line_ranges(toks, &in_test);

    let mut findings: Vec<Finding> = Vec::new();
    let mk = |line: usize, rule: Rule, message: String| Finding {
        file: rel_path.to_string(),
        line,
        rule,
        message,
    };

    // R1 — no-panic.
    if !config::matches_prefix(rel_path, config::NO_PANIC_EXEMPT) {
        for (i, t) in toks.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            if let Tok::Ident(name) = &t.tok {
                let panicky_method =
                    matches!(name.as_str(), "unwrap" | "expect" | "unwrap_err" | "expect_err");
                if panicky_method && is_method_or_path_call(toks, i) {
                    findings.push(mk(
                        t.line,
                        Rule::NoPanic,
                        format!(
                            "`.{name}()` in non-test code — return a typed \
                             `DomdError`/`StorageError`, or waive: \
                             `// domd-lint: allow(no-panic) — <why this cannot fail>`"
                        ),
                    ));
                }
                let panicky_macro =
                    matches!(name.as_str(), "panic" | "unreachable" | "todo" | "unimplemented");
                if panicky_macro && matches!(toks.get(i + 1), Some(Token { tok: Tok::Punct('!'), .. }))
                {
                    findings.push(mk(
                        t.line,
                        Rule::NoPanic,
                        format!(
                            "`{name}!` in non-test code — return a typed error, or waive: \
                             `// domd-lint: allow(no-panic) — <why this is unreachable>`"
                        ),
                    ));
                }
            }
        }
    }

    // R2 — thread-spawn.
    if !config::matches_prefix(rel_path, config::THREAD_ALLOWED) {
        for (i, t) in toks.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            if ident_is(t, "thread") && path_sep_follows(toks, i) {
                if let Some(Tok::Ident(what)) = toks.get(i + 3).map(|t| &t.tok) {
                    if matches!(what.as_str(), "spawn" | "scope" | "Builder") {
                        findings.push(mk(
                            t.line,
                            Rule::ThreadSpawn,
                            format!(
                                "`thread::{what}` outside `domd-runtime` — all parallelism \
                                 must flow through the bounded `domd_runtime` pool so \
                                 thread counts cannot change results"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // R3 — nondeterminism: clocks, ambient RNG, default-hasher maps.
    let time_ok = config::matches_prefix(rel_path, config::TIME_ALLOWED);
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        match &t.tok {
            Tok::Ident(id) if id == "use" => in_use = true,
            Tok::Punct(';') => in_use = false,
            _ => {}
        }
        if in_test[i] {
            continue;
        }
        if let Tok::Ident(name) = &t.tok {
            match name.as_str() {
                "SystemTime" | "Instant"
                    if !time_ok
                        && path_sep_follows(toks, i)
                        && matches!(toks.get(i + 3).map(|t| &t.tok),
                                    Some(Tok::Ident(m)) if m == "now") =>
                {
                    findings.push(mk(
                        t.line,
                        Rule::Nondeterminism,
                        format!(
                            "`{name}::now` in result-producing code — outputs must be \
                             a pure function of inputs and seeds (timing belongs in \
                             `crates/bench`)"
                        ),
                    ));
                }
                "thread_rng" | "from_entropy" => {
                    findings.push(mk(
                        t.line,
                        Rule::Nondeterminism,
                        format!(
                            "`{name}` draws OS entropy — seed a `SmallRng` explicitly so \
                             every run is reproducible"
                        ),
                    ));
                }
                "HashMap" | "HashSet" if !in_use && !has_explicit_hasher(toks, i) => {
                    findings.push(mk(
                        t.line,
                        Rule::Nondeterminism,
                        format!(
                            "default-hasher `{name}` — iteration order is unstable \
                             across builds; use `domd_data::hash::Fx{name}`, a \
                             `BTree` map, or waive with a lookup-only justification"
                        ),
                    ));
                }
                _ => {}
            }
        }
    }

    // R4 — wal-order, in the durable wrapper and the delta module whose
    // mutations replay the wrapper's log order.
    if config::WAL_ORDER_FILES.contains(&rel_path) {
        wal_order(toks, &in_test, &mut findings, rel_path);
    }

    // R6 — bounded-queues, everywhere but the runtime's own primitives.
    if !config::matches_prefix(rel_path, config::QUEUE_ALLOWED) {
        bounded_queues(toks, &in_test, &mut findings, rel_path);
    }

    // R5 — lint-header on crate roots.
    if config::is_crate_root(rel_path) && !has_deny_header(toks) {
        findings.push(mk(
            1,
            Rule::LintHeader,
            format!(
                "crate root missing `#![deny({})]` — every crate carries the agreed \
                 lint header (DESIGN.md §9)",
                config::REQUIRED_DENY
            ),
        ));
    }

    let (waivers, meta) = parse_waivers(rel_path, &lexed.comments, &test_ranges);
    let parsed = parser::parse(&lexed, config::ACK_MARKERS);
    FileSummary {
        rel: rel_path.to_string(),
        raw: findings,
        meta,
        waivers,
        test_ranges,
        fns: parsed.fns,
        error_variants: parsed.error_variants,
        exit_map: parsed.exit_map,
    }
}

/// The joint finish pass: interprocedural rules over the summaries'
/// call graph, then waiver application per file. Waivers are matched
/// against local *and* graph findings together, so a waiver that only
/// suppresses an interprocedural finding still counts as used — and a
/// finding anchored at a lock acquisition is only suppressible *there*,
/// never at the call site that completes the violation.
pub fn finish(summaries: Vec<FileSummary>, doc_tables: &[DocTable]) -> Report {
    let mut graph_findings = callgraph::interprocedural(&summaries, doc_tables);
    let mut report = Report { files_scanned: summaries.len(), ..Report::default() };

    for s in summaries {
        let mut findings = s.raw;
        let mut i = 0;
        while i < graph_findings.len() {
            if graph_findings[i].file == s.rel {
                findings.push(graph_findings.swap_remove(i));
            } else {
                i += 1;
            }
        }

        let mut waivers: Vec<(Waiver, bool)> =
            s.waivers.into_iter().map(|w| (w, false)).collect();
        for f in findings {
            let covered = waivers.iter_mut().find(|(w, _)| {
                w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line)
            });
            match covered {
                Some((_, used)) => *used = true,
                None => report.violations.push(f),
            }
        }
        for (w, used) in waivers {
            if used {
                report.waivers.push(w);
            } else {
                report.violations.push(Finding {
                    file: s.rel.clone(),
                    line: w.line,
                    rule: Rule::WaiverPolicy,
                    message: format!(
                        "waiver for `{}` suppresses nothing — remove it (a stale waiver \
                         hides the next real violation)",
                        w.rule.id()
                    ),
                });
            }
        }
        report.violations.extend(s.meta);
    }

    // Findings in files with no summary (doc files like the README)
    // have no waiver surface: fix the doc.
    report.violations.append(&mut graph_findings);
    report.sort();
    report
}

/// True when `toks[i]` names a rule-relevant ident (exact match).
fn ident_is(t: &Token, name: &str) -> bool {
    matches!(&t.tok, Tok::Ident(s) if s == name)
}

/// True when `toks[i]` is called as `.name(` or `::name` — the method
/// and fn-path forms that can actually panic (a local fn coincidentally
/// named `expect` would be `expect(`, which does not match).
fn is_method_or_path_call(toks: &[Token], i: usize) -> bool {
    let dot = i >= 1 && matches!(toks[i - 1].tok, Tok::Punct('.'));
    let path = i >= 2
        && matches!(toks[i - 1].tok, Tok::Punct(':'))
        && matches!(toks[i - 2].tok, Tok::Punct(':'));
    dot || path
}

/// True when `::` follows `toks[i]` (two `:` puncts).
fn path_sep_follows(toks: &[Token], i: usize) -> bool {
    matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
}

/// True when the `HashMap`/`HashSet` at `i` is written with an explicit
/// hasher parameter: `<K, V, S>` (two-plus top-level commas for maps;
/// one-plus for sets is still ambiguous, so sets also need two commas —
/// i.e. sets always use the alias). Counts commas at angle depth 1,
/// ignoring commas nested in `()`/`[]`/deeper `<>`.
fn has_explicit_hasher(toks: &[Token], i: usize) -> bool {
    // Accept both `HashMap<…>` and turbofish `HashMap::<…>`.
    let mut j = i + 1;
    if path_sep_follows(toks, i)
        && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Punct('<')))
    {
        j = i + 3;
    }
    if !matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        return false; // `HashMap::new()` etc.: default hasher
    }
    let is_set = matches!(&toks[i].tok, Tok::Ident(s) if s == "HashSet");
    let needed = if is_set { 1 } else { 2 };
    let mut angle = 0isize;
    let mut other = 0isize;
    let mut commas = 0usize;
    for t in toks.iter().skip(j) {
        match t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => {
                angle -= 1;
                if angle == 0 {
                    return commas >= needed;
                }
            }
            Tok::Punct('(') | Tok::Punct('[') => other += 1,
            Tok::Punct(')') | Tok::Punct(']') => other -= 1,
            Tok::Punct(',') if angle == 1 && other == 0 => commas += 1,
            Tok::Punct(';') => return commas >= needed, // statement ended: `a < b` comparison
            _ => {}
        }
    }
    commas >= needed
}

/// R4: within each `fn` body, every call of the store's apply function
/// (`.apply_record(` or `Self::apply_record(`) must be preceded by a
/// `.append(` in that same body.
fn wal_order(toks: &[Token], in_test: &[bool], findings: &mut Vec<Finding>, rel_path: &str) {
    struct Frame {
        depth: isize,
        appended: bool,
    }
    let mut depth = 0isize;
    let mut fn_pending = false;
    let mut stack: Vec<Frame> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        match &t.tok {
            Tok::Ident(id) if id == "fn" => fn_pending = true,
            Tok::Punct('{') => {
                depth += 1;
                if fn_pending {
                    stack.push(Frame { depth, appended: false });
                    fn_pending = false;
                }
            }
            Tok::Punct('}') => {
                if stack.last().is_some_and(|f| f.depth == depth) {
                    stack.pop();
                }
                depth -= 1;
            }
            Tok::Ident(id) if id == config::WAL_APPENDER && is_method_or_path_call(toks, i) => {
                if let Some(f) = stack.last_mut() {
                    f.appended = true;
                }
            }
            Tok::Ident(id)
                if config::WAL_MUTATORS.contains(&id.as_str())
                    && is_method_or_path_call(toks, i) =>
            {
                let ordered = stack.last().is_some_and(|f| f.appended);
                if !ordered {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::WalOrder,
                        message: format!(
                            "`{id}(` applies a record to the store's rows with no \
                             preceding WAL `.append(` in this function — a crash here \
                             loses an acknowledged mutation (WAL-before-apply, DESIGN.md §8)"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

/// R6: outside `domd-runtime`, `mpsc::channel()` (unbounded by
/// construction) is always a finding, and `.push_back(` is a finding
/// unless the same `fn` body performed a `.len(`/`.capacity(` call
/// earlier — the shape of an admission check. The heuristic is
/// deliberately coarse: a queue that grows without consulting its size
/// anywhere in the enqueue path cannot be shedding, and the rare
/// false positive takes a one-line justified waiver.
fn bounded_queues(toks: &[Token], in_test: &[bool], findings: &mut Vec<Finding>, rel_path: &str) {
    struct Frame {
        depth: isize,
        cap_checked: bool,
    }
    let mut depth = 0isize;
    let mut fn_pending = false;
    let mut stack: Vec<Frame> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        match &t.tok {
            Tok::Ident(id) if id == "fn" => fn_pending = true,
            Tok::Punct('{') => {
                depth += 1;
                if fn_pending {
                    stack.push(Frame { depth, cap_checked: false });
                    fn_pending = false;
                }
            }
            Tok::Punct('}') => {
                if stack.last().is_some_and(|f| f.depth == depth) {
                    stack.pop();
                }
                depth -= 1;
            }
            Tok::Ident(id)
                if id == "mpsc"
                    && path_sep_follows(toks, i)
                    && matches!(toks.get(i + 3).map(|t| &t.tok),
                                Some(Tok::Ident(m)) if m == "channel") =>
            {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: t.line,
                    rule: Rule::BoundedQueues,
                    message: "`mpsc::channel()` is unbounded — under overload it grows \
                              memory instead of shedding; use `mpsc::sync_channel` or \
                              the runtime's `BoundedQueue` and answer \
                              `DomdError::Overloaded`"
                        .into(),
                });
            }
            Tok::Ident(id)
                if matches!(id.as_str(), "len" | "capacity")
                    && is_method_or_path_call(toks, i) =>
            {
                if let Some(f) = stack.last_mut() {
                    f.cap_checked = true;
                }
            }
            Tok::Ident(id) if id == "push_back" && is_method_or_path_call(toks, i) => {
                let checked = stack.last().is_some_and(|f| f.cap_checked);
                if !checked {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::BoundedQueues,
                        message: "`.push_back(` with no capacity check (`.len(`/\
                                  `.capacity(`) earlier in this function — an \
                                  unguarded queue grows without bound under \
                                  overload; check and shed first, or waive with \
                                  the bound that holds"
                            .into(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// True when the token stream contains `#![deny(... unsafe_code ...)]`.
fn has_deny_header(toks: &[Token]) -> bool {
    for i in 0..toks.len() {
        if matches!(toks[i].tok, Tok::Punct('#'))
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')))
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('[')))
            && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Ident(d)) if d == "deny")
        {
            // Scan the attr's bracket span for the required lint name.
            let mut bracket = 1isize;
            let mut j = i + 3;
            while let Some(t) = toks.get(j + 1) {
                j += 1;
                match &t.tok {
                    Tok::Punct('[') => bracket += 1,
                    Tok::Punct(']') => {
                        bracket -= 1;
                        if bracket == 0 {
                            break;
                        }
                    }
                    Tok::Ident(id) if id == config::REQUIRED_DENY => return true,
                    _ => {}
                }
            }
        }
    }
    false
}

/// Parses waiver comments into well-formed candidates plus the
/// waiver-policy findings for malformed ones. Matching candidates to
/// findings happens in [`finish`], after the interprocedural rules run.
fn parse_waivers(
    rel_path: &str,
    comments: &[lexer::Comment],
    test_ranges: &[(usize, usize)],
) -> (Vec<Waiver>, Vec<Finding>) {
    const MARK: &str = "domd-lint: allow(";
    let in_test_line =
        |line: usize| test_ranges.iter().any(|(a, b)| (*a..=*b).contains(&line));

    let mut waivers: Vec<Waiver> = Vec::new();
    let mut meta: Vec<Finding> = Vec::new();
    for c in comments {
        // Waivers must be plain `//` or `/*` comments: doc comments are
        // rendered documentation (and routinely *describe* the waiver
        // syntax), so they never grant one.
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(at) = c.text.find(MARK) else { continue };
        if in_test_line(c.line) {
            continue; // test code needs no waivers; ignore strays
        }
        let rest = &c.text[at + MARK.len()..];
        let Some(close) = rest.find(')') else {
            meta.push(Finding {
                file: rel_path.to_string(),
                line: c.line,
                rule: Rule::WaiverPolicy,
                message: "unclosed `domd-lint: allow(` comment".into(),
            });
            continue;
        };
        let rule_id = rest[..close].trim();
        let Some(rule) = Rule::from_id(rule_id) else {
            meta.push(Finding {
                file: rel_path.to_string(),
                line: c.line,
                rule: Rule::WaiverPolicy,
                message: format!("unknown rule `{rule_id}` in waiver"),
            });
            continue;
        };
        // Fixture expectation markers (`//~ …`) may share the line; they
        // are never part of the justification.
        let tail = &rest[close + 1..];
        let tail = tail.find("//~").map_or(tail, |cut| &tail[..cut]);
        let justification = tail
            .trim_start_matches(|ch: char| {
                ch.is_whitespace() || matches!(ch, '—' | '-' | '–' | ':')
            })
            .trim_end()
            .to_string();
        if justification.is_empty() {
            meta.push(Finding {
                file: rel_path.to_string(),
                line: c.line,
                rule: Rule::WaiverPolicy,
                message: format!(
                    "waiver for `{}` has no justification — write \
                     `// domd-lint: allow({}) — <why>`",
                    rule.id(),
                    rule.id()
                ),
            });
            continue;
        }
        waivers.push(Waiver { file: rel_path.to_string(), line: c.line, rule, justification });
    }
    (waivers, meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/core/src/example.rs";

    fn rules_found(src: &str) -> Vec<(usize, Rule)> {
        scan_file(LIB, src).violations.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn unwrap_in_lib_code_is_flagged_and_test_code_is_not() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); }\n}\n";
        assert_eq!(rules_found(src), vec![(1, Rule::NoPanic)]);
    }

    #[test]
    fn panic_macros_are_flagged_but_asserts_are_not() {
        let src = "fn f() { assert!(true); panic!(\"boom\"); }";
        assert_eq!(rules_found(src), vec![(1, Rule::NoPanic)]);
    }

    #[test]
    fn unwrap_or_family_is_not_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }";
        assert_eq!(rules_found(src), vec![]);
    }

    #[test]
    fn waiver_on_line_above_suppresses_and_is_inventoried() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // domd-lint: allow(no-panic) — caller guarantees Some\n\
                   x.unwrap()\n}\n";
        let scan = scan_file(LIB, src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert_eq!(scan.waivers.len(), 1);
        assert_eq!(scan.waivers[0].justification, "caller guarantees Some");
    }

    #[test]
    fn unjustified_and_unused_waivers_are_violations() {
        let bad = "// domd-lint: allow(no-panic)\nfn f() {}\n";
        assert_eq!(rules_found(bad), vec![(1, Rule::WaiverPolicy)]);
        let unused = "// domd-lint: allow(no-panic) — nothing here\nfn f() {}\n";
        assert_eq!(rules_found(unused), vec![(1, Rule::WaiverPolicy)]);
    }

    #[test]
    fn default_hasher_maps_need_a_third_parameter() {
        assert_eq!(
            rules_found("fn f() { let m: HashMap<u32, (u8, u8)> = HashMap::new(); }"),
            vec![(1, Rule::Nondeterminism), (1, Rule::Nondeterminism)]
        );
        assert_eq!(
            rules_found(
                "type Fx<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;\n\
                 fn f(m: &FxHashMap<u32, u32>) -> Option<&u32> { m.get(&1) }"
            ),
            vec![]
        );
        // `use` declarations are not usage sites.
        assert_eq!(rules_found("use std::collections::HashMap;\nfn f() {}"), vec![]);
    }

    #[test]
    fn clocks_and_entropy_are_flagged_outside_bench() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_found(src), vec![(1, Rule::Nondeterminism)]);
        assert_eq!(scan_file("crates/bench/src/util.rs", src).violations, vec![]);
        assert_eq!(
            rules_found("fn f() { let mut r = SmallRng::from_entropy(); }"),
            vec![(1, Rule::Nondeterminism)]
        );
    }

    #[test]
    fn thread_spawn_is_only_legal_in_runtime() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_found(src), vec![(1, Rule::ThreadSpawn)]);
        assert_eq!(scan_file("crates/runtime/src/pool.rs", src).violations, vec![]);
    }

    #[test]
    fn wal_order_requires_append_before_mutation() {
        let bad = "impl D {\n  fn put(&mut self) {\n    Self::apply_record(&mut self.entries, &rec);\n  }\n}";
        let good = "impl D {\n  fn put(&mut self) {\n    self.wal.append(&rec);\n    Self::apply_record(&mut self.entries, &rec);\n  }\n}";
        for governed in config::WAL_ORDER_FILES {
            let scan = scan_file(governed, bad);
            assert_eq!(
                scan.violations.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
                vec![(3, Rule::WalOrder)],
                "{governed} must be governed by R4"
            );
            assert!(scan_file(governed, good).violations.is_empty());
        }
        // The same source outside the governed files is not R4's business.
        assert!(scan_file(LIB, bad).violations.is_empty());
    }

    #[test]
    fn unbounded_channels_and_unguarded_push_back_are_flagged() {
        let src = "fn f() { let (tx, rx) = mpsc::channel(); }";
        assert_eq!(rules_found(src), vec![(1, Rule::BoundedQueues)]);
        // `sync_channel` is bounded and fine.
        assert_eq!(rules_found("fn f() { let (tx, rx) = mpsc::sync_channel(8); }"), vec![]);
        // The runtime crate owns the bounded primitives.
        assert_eq!(scan_file("crates/runtime/src/queue.rs", src).violations, vec![]);
    }

    #[test]
    fn push_back_needs_a_capacity_check_in_the_same_fn() {
        let bad = "fn f(q: &mut VecDeque<u32>, x: u32) {\n  q.push_back(x);\n}";
        assert_eq!(rules_found(bad), vec![(2, Rule::BoundedQueues)]);
        let good = "fn f(q: &mut VecDeque<u32>, cap: usize, x: u32) -> bool {\n\
                    \x20 if q.len() >= cap { return false; }\n\
                    \x20 q.push_back(x);\n  true\n}";
        assert_eq!(rules_found(good), vec![]);
        // The check must come *before* the push in token order.
        let late = "fn f(q: &mut VecDeque<u32>, x: u32) -> usize {\n\
                    \x20 q.push_back(x);\n  q.len()\n}";
        assert_eq!(rules_found(late), vec![(2, Rule::BoundedQueues)]);
        assert_eq!(scan_file("crates/runtime/src/queue.rs", bad).violations, vec![]);
    }

    const SERVE: &str = "crates/serve/src/server.rs";

    #[test]
    fn lock_inversion_is_caught_through_intervening_calls() {
        // wal (rank 3) held → helper → mid → durable (rank 2): the
        // inversion is two frames away from the acquisition.
        let src = "\
fn outer(&self) {
    let g = self.wal.lock();
    self.helper();
}
fn helper(&self) { self.mid(); }
fn mid(&self) { let d = self.durable.lock(); }
";
        let found = scan_file(SERVE, src).violations;
        assert_eq!(
            found.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
            vec![(2, Rule::LockOrder)],
            "{found:?}"
        );
        assert!(found[0].message.contains("helper"), "{}", found[0].message);
    }

    #[test]
    fn waiver_on_the_call_site_does_not_suppress_the_acquisition_finding() {
        // The finding anchors at the `wal.lock()` line. A waiver on the
        // call that completes the violation must not cover it — and
        // being unused, that waiver is itself a violation.
        let call_site_waived = "\
fn outer(&self) {
    let g = self.wal.lock();
    // domd-lint: allow(lock-order) — misplaced: the guard is the problem
    self.helper();
}
fn helper(&self) { let d = self.durable.lock(); }
";
        let found = scan_file(SERVE, call_site_waived).violations;
        assert_eq!(
            found.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
            vec![(2, Rule::LockOrder), (3, Rule::WaiverPolicy)],
            "{found:?}"
        );

        // On the acquisition line, the same waiver suppresses and counts
        // as used — interprocedural findings feed waiver accounting.
        let acq_waived = "\
fn outer(&self) {
    // domd-lint: allow(lock-order) — wal guard provably released by helper's bound
    let g = self.wal.lock();
    self.helper();
}
fn helper(&self) { let d = self.durable.lock(); }
";
        let scan = scan_file(SERVE, acq_waived);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert_eq!(scan.waivers.len(), 1);
        assert_eq!(scan.waivers[0].rule, Rule::LockOrder);
    }

    #[test]
    fn chained_guards_are_transient_but_still_checked_as_inner() {
        // A chained guard is not held afterwards…
        let transient = "\
fn f(&self) -> Result<(), E> {
    let n = self.durable.lock().map_err(drop)?.len();
    let b = self.breaker.lock();
    Ok(())
}
";
        assert!(scan_file(SERVE, transient).violations.is_empty());
        // …but acquiring it while a higher rank is held still inverts.
        let inner = "\
fn f(&self) -> Result<(), E> {
    let g = self.wal.lock();
    let n = self.durable.lock().map_err(drop)?.len();
    Ok(())
}
";
        let found = scan_file(SERVE, inner).violations;
        assert_eq!(
            found.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
            vec![(3, Rule::LockOrder)]
        );
    }

    #[test]
    fn ack_before_sync_is_flagged_across_the_flattened_path() {
        // Publish via a callee, sync never happens → both the publish
        // and the ack are findings.
        let bad = "\
fn handle_ingest(&self) -> Reply {
    self.apply();
    Reply::Ingested { row }
}
fn apply(&self) { self.store.install(next); }
";
        let found = scan_file(SERVE, bad).violations;
        assert_eq!(
            found.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
            vec![(3, Rule::AckOrder), (5, Rule::AckOrder)],
            "{found:?}"
        );
        // The closure-argument fsync orders before the enclosing call's
        // publish: Rust evaluates arguments first, and so does R8.
        let good = "\
fn handle_ingest(&self) -> Reply {
    self.store.update(|snap| { self.durable_sync(); });
    Reply::Ingested { row }
}
fn durable_sync(&self) { d.index.sync(); }
fn update(&self, f: F) { self.install(next); }
";
        assert!(scan_file(SERVE, good).violations.is_empty());
    }

    #[test]
    fn exit_code_map_checks_variants_codes_and_docs() {
        let bad = "\
//! | exit code | class |
//! |-----------|-------|
//! | 2         | config |
//! | 9         | gone |
pub enum DomdError { Config, Io, Parse }
fn exit_code(e: &DomdError) -> u8 {
    match e {
        DomdError::Config => 2,
        DomdError::Io => 2,
        _ => 1,
    }
}
";
        let found = scan_file("src/bin/domd.rs", bad).violations;
        let lines: Vec<(usize, Rule)> = found.iter().map(|f| (f.line, f.rule)).collect();
        // 4: doc row 9 maps to nothing; 5: Parse unmapped (and the doc
        // table omits no mapped code beyond those); 9: Io reuses code 2;
        // 10: wildcard arm.
        assert_eq!(
            lines,
            vec![
                (4, Rule::ExitCodeMap),
                (5, Rule::ExitCodeMap),
                (9, Rule::ExitCodeMap),
                (10, Rule::ExitCodeMap),
            ],
            "{found:?}"
        );
        let good = "\
//! | exit code | class |
//! |-----------|-------|
//! | 2         | config |
//! | 3         | io |
pub enum DomdError { Config, Io }
fn exit_code(e: &DomdError) -> u8 {
    match e {
        DomdError::Config => 2,
        DomdError::Io => 3,
    }
}
";
        assert!(scan_file("src/bin/domd.rs", good).violations.is_empty());
    }

    #[test]
    fn crate_roots_need_the_deny_header() {
        let bare = "pub mod x;\n";
        let scan = scan_file("crates/core/src/lib.rs", bare);
        assert_eq!(
            scan.violations.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
            vec![(1, Rule::LintHeader)]
        );
        let ok = "#![deny(unsafe_code)]\npub mod x;\n";
        assert!(scan_file("crates/core/src/lib.rs", ok).violations.is_empty());
        let grouped = "#![deny(unsafe_code, missing_docs)]\npub mod x;\n";
        assert!(scan_file("crates/core/src/lib.rs", grouped).violations.is_empty());
        assert!(scan_file(LIB, bare).violations.is_empty(), "non-roots are exempt");
    }
}
