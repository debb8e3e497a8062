//! Structural recovery over the token stream: items, bodies, call sites.
//!
//! The per-line rules of PR 5 match flat token windows; the
//! interprocedural rules (R7 `lock-order`, R8 `ack-order`, R9
//! `exit-code-map`) need *structure*: which `fn` a token belongs to,
//! how its body's blocks nest, and where its call sites are. This module
//! recovers exactly that by a single recursive-descent pass over
//! [`crate::lexer::Lexed`] — no full Rust grammar, just the shapes the
//! rules consume:
//!
//! * **Items** — `fn` definitions (free, `impl`-owned, nested), each
//!   `#[cfg(test)]`/`#[test]`-classified so test code never enters the
//!   call graph;
//! * **Bodies as block trees** — every `{ … }` inside a body becomes a
//!   node in a parent-indexed tree, so a lock guard's scope ("held for
//!   the rest of the enclosing block") is an ancestor query;
//! * **Events** — call sites and marker identifiers in *effect order*:
//!   a call's sequence position is its **closing parenthesis**, so the
//!   events inside its argument list (closure bodies included) precede
//!   the call itself, exactly as Rust evaluates them. This is what lets
//!   R8 see the fsync inside `store.update(|snap| { …; sync() })` happen
//!   before `update`'s own epoch publish.
//!
//! The pass also extracts the two R9 shapes when a file declares them:
//! the `DomdError` variant list and the `fn exit_code` match arms plus
//! any `| code | … |` doc-comment table rows.
//!
//! Everything here is an over-approximation by design; the policy is
//! documented in [`crate::callgraph`] and DESIGN.md §14.

use crate::lexer::{Lexed, Tok, Token};

/// One recovered function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Bare function name (`handle_ingest`).
    pub name: String,
    /// Owner-qualified display name (`ServeCore::handle_ingest`).
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True when the fn is test code (`#[test]` or inside `#[cfg(test)]`).
    pub is_test: bool,
    /// Parent index per block; block 0 is the fn body and is its own
    /// parent. `blocks[i] <= i` always holds.
    pub blocks: Vec<u32>,
    /// Call and marker events, in effect order (ascending `seq`).
    pub events: Vec<Event>,
}

/// What an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// A call site: `name(…)` or `.name(…)`.
    Call,
    /// A bare identifier of interest (configured ack markers, e.g. the
    /// `Ingested` reply variant, which is constructed without parens).
    Marker,
}

/// One body event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Call or marker.
    pub kind: EvKind,
    /// The called/marked identifier.
    pub name: String,
    /// For `recv.name(…)` method calls, the receiver's final identifier
    /// (`tenant.breaker.lock()` → `breaker`); `None` for free calls and
    /// computed receivers (`xs[i].lock()`).
    pub recv: Option<String>,
    /// 1-based source line of the identifier.
    pub line: usize,
    /// Effect-order position (token index; for calls, of the closing
    /// parenthesis).
    pub seq: u32,
    /// Index into [`FnDef::blocks`] of the innermost enclosing block.
    pub block: u32,
    /// True when the call's result is immediately consumed by a further
    /// method call (`x.lock().expect("…").index.len()`), i.e. the value
    /// is a statement temporary, not a binding. `.expect`/`.unwrap`/
    /// `.map_err` adapters are skipped first — they transform the guard,
    /// they don't consume it. R7 treats chained lock guards as
    /// *transient*: they participate as the inner lock of an ordering
    /// violation but are not modeled as held afterwards.
    pub chained: bool,
}

/// The R9 shape of a `fn exit_code`-style error→code map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExitMap {
    /// Line of the `fn` keyword.
    pub fn_line: usize,
    /// `(variant, code-literal-text, line)` per `DomdError::V … => N` arm.
    pub arms: Vec<(String, String, usize)>,
    /// Line of a `_ =>` wildcard arm, when one exists.
    pub wildcard: Option<usize>,
    /// `(code, line)` rows of any `| N | … |` doc-comment table.
    pub doc_codes: Vec<(u32, usize)>,
}

/// Everything the structural pass recovers from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedFile {
    /// Function definitions in source order.
    pub fns: Vec<FnDef>,
    /// `(variant, line)` list when the file declares `enum DomdError`.
    pub error_variants: Vec<(String, usize)>,
    /// The exit-code map when the file defines `fn exit_code`.
    pub exit_map: Option<ExitMap>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move", "as", "where",
];

/// Parses one lexed file. `markers` lists identifiers recorded as
/// [`EvKind::Marker`] events wherever they appear inside a body.
pub fn parse(lexed: &Lexed, markers: &[&str]) -> ParsedFile {
    let toks = &lexed.tokens;
    let mask = test_mask(toks);
    let mut out = ParsedFile::default();

    // Open fn frames; events attach to the innermost.
    struct Frame {
        def: FnDef,
        /// Brace depth at which the body opened.
        open_depth: isize,
        /// Stack of open block ids within this fn.
        block_stack: Vec<u32>,
    }
    // A call site pending its closing paren: index of the paren stack
    // entry is implicit in `paren_stack`.
    struct OpenParen {
        /// `Some` when the paren opened a call's argument list.
        call: Option<(String, Option<String>, usize)>,
    }

    let mut frames: Vec<Frame> = Vec::new();
    let mut paren_stack: Vec<OpenParen> = Vec::new();
    let mut impl_stack: Vec<(isize, String)> = Vec::new();
    let mut depth = 0isize;
    // `fn` seen, waiting for its name.
    let mut fn_name_pending = false;
    // `(name, line, paren_depth_at_sig)` waiting for the body `{`.
    let mut fn_body_pending: Option<(String, usize, usize, bool)> = None;
    // `impl` seen, collecting its header up to `{`.
    let mut impl_pending: Option<(isize, Vec<String>, bool)> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match &t.tok {
            Tok::Ident(id) if id == "impl" && frames.is_empty() => {
                impl_pending = Some((0, Vec::new(), false));
            }
            Tok::Ident(id) if id == "fn" => {
                fn_name_pending = true;
            }
            Tok::Ident(name) if fn_name_pending => {
                fn_name_pending = false;
                fn_body_pending =
                    Some((name.clone(), t.line, paren_stack.len(), mask.get(i).copied().unwrap_or(false)));
            }
            _ => {}
        }
        // Collect the impl header (`impl<I> Fixture<I> for T where …`)
        // until its opening brace; the owner is the first angle-depth-0
        // identifier, taken after `for` when one is present.
        if let Some((angle, idents, saw_for)) = &mut impl_pending {
            match &t.tok {
                Tok::Punct('<') => *angle += 1,
                Tok::Punct('>') => *angle -= 1,
                Tok::Ident(id) if id == "for" && *angle == 0 => {
                    *saw_for = true;
                    idents.clear();
                }
                Tok::Ident(id)
                    if *angle == 0
                        && id != "impl"
                        && id != "where"
                        && id != "dyn"
                        && (idents.is_empty() || *saw_for) =>
                {
                    idents.push(id.clone());
                    *saw_for = false;
                }
                Tok::Punct('{') => {
                    let owner = idents.first().cloned().unwrap_or_default();
                    impl_stack.push((depth + 1, owner));
                    impl_pending = None;
                }
                Tok::Punct(';') => impl_pending = None,
                _ => {}
            }
        }

        match &t.tok {
            Tok::Punct('(') => {
                // Was this paren opened by a call? `ident(` or `.ident(`.
                let call = match toks.get(i.wrapping_sub(1)).map(|p| &p.tok) {
                    Some(Tok::Ident(name))
                        if !NON_CALL_KEYWORDS.contains(&name.as_str())
                            && fn_body_pending
                                .as_ref()
                                .is_none_or(|(n, l, _, _)| (n, *l) != (name, toks[i - 1].line)) =>
                    {
                        let recv = receiver_of(toks, i - 1);
                        Some((name.clone(), recv, toks[i - 1].line))
                    }
                    _ => None,
                };
                paren_stack.push(OpenParen { call });
            }
            Tok::Punct(')') => {
                if let Some(open) = paren_stack.pop() {
                    if let (Some((name, recv, line)), Some(frame)) =
                        (open.call, frames.last_mut())
                    {
                        let block =
                            frame.block_stack.last().copied().unwrap_or_default();
                        frame.def.events.push(Event {
                            kind: EvKind::Call,
                            name,
                            recv,
                            line,
                            seq: i as u32,
                            block,
                            chained: chained_after(toks, i),
                        });
                    }
                }
            }
            Tok::Punct('{') => {
                depth += 1;
                // Does this brace open a pending fn body? Only at the
                // signature's paren depth (not inside a default-arg or
                // const-generic expression).
                let opens_fn = match &fn_body_pending {
                    Some((_, _, pd, _)) if *pd == paren_stack.len() => fn_body_pending.take(),
                    _ => None,
                };
                if let Some((name, line, _, is_test)) = opens_fn {
                    let owner = impl_stack.last().map(|(_, o)| o.clone());
                    let qual = match &owner {
                        Some(o) if !o.is_empty() => format!("{o}::{name}"),
                        _ => name.clone(),
                    };
                    frames.push(Frame {
                        def: FnDef {
                            name,
                            qual,
                            line,
                            is_test,
                            blocks: vec![0],
                            events: Vec::new(),
                        },
                        open_depth: depth,
                        block_stack: vec![0],
                    });
                } else if let Some(frame) = frames.last_mut() {
                    let parent = frame.block_stack.last().copied().unwrap_or_default();
                    let id = frame.def.blocks.len() as u32;
                    frame.def.blocks.push(parent);
                    frame.block_stack.push(id);
                }
            }
            Tok::Punct('}') => {
                let closes_fn =
                    frames.last().is_some_and(|f| f.open_depth == depth);
                if closes_fn {
                    if let Some(frame) = frames.pop() {
                        out.fns.push(frame.def);
                    }
                } else if let Some(frame) = frames.last_mut() {
                    frame.block_stack.pop();
                }
                depth -= 1;
                impl_stack.retain(|(d, _)| *d <= depth);
            }
            Tok::Punct(';') => {
                // A bodiless signature (trait method decl) at its own
                // paren depth cancels the pending fn.
                if matches!(&fn_body_pending, Some((_, _, pd, _)) if *pd == paren_stack.len()) {
                    fn_body_pending = None;
                }
            }
            Tok::Ident(name)
                if markers.contains(&name.as_str())
                    && !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) =>
            {
                if let Some(frame) = frames.last_mut() {
                    let block = frame.block_stack.last().copied().unwrap_or_default();
                    frame.def.events.push(Event {
                        kind: EvKind::Marker,
                        name: name.clone(),
                        recv: None,
                        line: t.line,
                        seq: i as u32,
                        block,
                        chained: false,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Events were pushed when their paren closed; restore effect order.
    for f in &mut out.fns {
        f.events.sort_by_key(|e| e.seq);
    }

    out.error_variants = enum_variants(toks, crate::config::ERROR_ENUM);
    out.exit_map = exit_map(lexed);
    out
}

/// True when the value produced by the call closing at token `close` is
/// immediately method-chained, after skipping `.expect(…)`/`.unwrap()`/
/// `.map_err(…)` adapters and `?`.
fn chained_after(toks: &[Token], close: usize) -> bool {
    let mut j = close + 1;
    loop {
        match (
            toks.get(j).map(|t| &t.tok),
            toks.get(j + 1).map(|t| &t.tok),
            toks.get(j + 2).map(|t| &t.tok),
        ) {
            (Some(Tok::Punct('.')), Some(Tok::Ident(m)), Some(Tok::Punct('(')))
                if matches!(m.as_str(), "expect" | "unwrap" | "map_err") =>
            {
                let mut depth = 0isize;
                let mut k = j + 2;
                while k < toks.len() {
                    match toks[k].tok {
                        Tok::Punct('(') => depth += 1,
                        Tok::Punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k + 1;
            }
            (Some(Tok::Punct('?')), _, _) => j += 1,
            (Some(Tok::Punct('.')), _, _) => return true,
            _ => return false,
        }
    }
}

/// The receiver of a method call whose name sits at token `i`: the
/// identifier before the `.` (`tenant.breaker.lock` at `lock` → `breaker`).
fn receiver_of(toks: &[Token], i: usize) -> Option<String> {
    if i >= 2 && matches!(toks[i - 1].tok, Tok::Punct('.')) {
        if let Tok::Ident(r) = &toks[i - 2].tok {
            return Some(r.clone());
        }
    }
    None
}

/// Variant names of `enum <name> { … }` when the file declares it.
fn enum_variants(toks: &[Token], name: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let is_decl = matches!(&toks[i].tok, Tok::Ident(id) if id == "enum")
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(n)) if n == name);
        if !is_decl {
            continue;
        }
        // Find the body `{`, then collect the first identifier after `{`
        // or after each depth-1 comma, skipping attributes.
        let mut j = i + 2;
        while j < toks.len() && !matches!(toks[j].tok, Tok::Punct('{')) {
            j += 1;
        }
        let mut depth = 0isize;
        let mut expect_variant = false;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => {
                    depth += 1;
                    if depth == 1 {
                        expect_variant = true;
                    }
                }
                Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Punct(',') if depth == 1 => expect_variant = true,
                Tok::Punct('#') => {} // attribute introducer; body skipped by depth
                Tok::Ident(v) if depth == 1 && expect_variant => {
                    out.push((v.clone(), toks[j].line));
                    expect_variant = false;
                }
                _ => {}
            }
            j += 1;
        }
        break;
    }
    out
}

/// Extracts the `fn exit_code` match arms plus any doc-comment exit-code
/// table rows. Returns `None` when the file has no such fn.
fn exit_map(lexed: &Lexed) -> Option<ExitMap> {
    let toks = &lexed.tokens;
    let mut fn_at = None;
    for i in 0..toks.len() {
        if matches!(&toks[i].tok, Tok::Ident(id) if id == "fn")
            && matches!(toks.get(i + 1).map(|t| &t.tok),
                        Some(Tok::Ident(n)) if n == crate::config::EXIT_MAP_FN)
        {
            fn_at = Some(i);
            break;
        }
    }
    let start = fn_at?;
    let mut map = ExitMap { fn_line: toks[start].line, ..ExitMap::default() };

    // Walk the fn body (first `{` … matching `}`).
    let mut j = start;
    while j < toks.len() && !matches!(toks[j].tok, Tok::Punct('{')) {
        j += 1;
    }
    let mut depth = 0isize;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(id) if id == crate::config::ERROR_ENUM => {
                // `DomdError :: Variant … => <literal>`
                let variant = match (toks.get(j + 1), toks.get(j + 2), toks.get(j + 3)) {
                    (
                        Some(Token { tok: Tok::Punct(':'), .. }),
                        Some(Token { tok: Tok::Punct(':'), .. }),
                        Some(Token { tok: Tok::Ident(v), .. }),
                    ) => Some((v.clone(), toks[j + 3].line)),
                    _ => None,
                };
                if let Some((v, line)) = variant {
                    if let Some((code, k)) = arm_code(toks, j + 4) {
                        map.arms.push((v, code, line));
                        j = k;
                        continue;
                    }
                }
            }
            Tok::Ident(id)
                if id == "_"
                    && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('=')))
                    && matches!(toks.get(j + 2).map(|t| &t.tok), Some(Tok::Punct('>'))) =>
            {
                map.wildcard.get_or_insert(toks[j].line);
            }
            _ => {}
        }
        j += 1;
    }

    // Doc-comment table rows: `| 2 | usage … |` in `//!` / `//` comments.
    for c in &lexed.comments {
        for (off, text_line) in c.text.lines().enumerate() {
            let body = text_line.trim_start_matches(['/', '*', '!', ' ', '\t']);
            let Some(rest) = body.strip_prefix('|') else { continue };
            let first_cell = rest.split('|').next().unwrap_or("").trim();
            if let Ok(code) = first_cell.parse::<u32>() {
                map.doc_codes.push((code, c.line + off));
            }
        }
    }
    Some(map)
}

/// Scans forward from a match pattern for its `=> <literal>` code.
/// Returns the literal's text and the index to resume at. Gives up at a
/// depth-0 `,`/`}` (the arm ended without a literal body).
fn arm_code(toks: &[Token], mut j: usize) -> Option<(String, usize)> {
    let mut depth = 0isize;
    while j + 2 < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            Tok::Punct(',') if depth == 0 => return None,
            Tok::Punct('=')
                if depth == 0
                    && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('>'))) =>
            {
                return match toks.get(j + 2).map(|t| &t.tok) {
                    Some(Tok::Literal(text)) => Some((text.clone(), j + 2)),
                    _ => Some((String::new(), j + 2)),
                };
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Marks every token inside `#[cfg(test)]` / `#[test]` items.
pub fn test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut depth = 0isize;
    let mut skip_at: Option<isize> = None;
    let mut pending = false;
    let mut i = 0usize;
    while i < toks.len() {
        // Outer attribute `#[ … ]`: does it force a test item?
        if skip_at.is_none()
            && matches!(toks[i].tok, Tok::Punct('#'))
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            let mut bracket = 1isize;
            let mut j = i + 1;
            let mut idents: Vec<&str> = Vec::new();
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
                    Tok::Ident(id) => idents.push(id),
                    _ => {}
                }
            }
            let is_test_attr = idents.first() == Some(&"test")
                || (idents.contains(&"cfg") && idents.contains(&"test"));
            if is_test_attr {
                pending = true;
            }
            i = j + 1;
            continue;
        }
        match toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                if pending && skip_at.is_none() {
                    skip_at = Some(depth);
                    pending = false;
                }
            }
            Tok::Punct('}') => {
                if skip_at == Some(depth) {
                    mask[i] = true; // the closing brace is still test code
                    skip_at = None;
                }
                depth -= 1;
            }
            Tok::Punct(';') if pending && skip_at.is_none() => pending = false,
            _ => {}
        }
        if skip_at.is_some() {
            mask[i] = true;
        }
        i += 1;
    }
    mask
}

/// Line ranges covered by test code, for waiver bookkeeping.
pub fn test_line_ranges(toks: &[Token], mask: &[bool]) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for (t, m) in toks.iter().zip(mask) {
        if !*m {
            continue;
        }
        match ranges.last_mut() {
            Some((_, end)) if t.line <= *end + 1 => *end = (*end).max(t.line),
            _ => ranges.push((t.line, t.line)),
        }
    }
    ranges
}

/// True when block `anc` is `b` or an ancestor of `b` in `blocks`.
pub fn block_contains(blocks: &[u32], anc: u32, mut b: u32) -> bool {
    loop {
        if b == anc {
            return true;
        }
        let Some(parent) = blocks.get(b as usize).copied() else { return false };
        if parent == b {
            return false;
        }
        b = parent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src), &["Ingested"])
    }

    #[test]
    fn recovers_fns_with_impl_owners_and_test_classification() {
        let src = "impl<S> Store<S> {\n  fn pin(&self) {}\n}\n\
                   fn free() {}\n\
                   #[cfg(test)]\nmod tests {\n  fn helper() {}\n}\n";
        let p = parse_src(src);
        let quals: Vec<(&str, bool)> =
            p.fns.iter().map(|f| (f.qual.as_str(), f.is_test)).collect();
        assert_eq!(quals, vec![("Store::pin", false), ("free", false), ("helper", true)]);
    }

    #[test]
    fn impl_trait_for_type_owns_by_the_type() {
        let p = parse_src("impl Clock for WallClock { fn now(&self) {} }");
        assert_eq!(p.fns[0].qual, "WallClock::now");
    }

    #[test]
    fn calls_order_by_closing_paren_so_closure_args_come_first() {
        let src = "fn f(&self) {\n  self.store.update(|snap| {\n    d.index.sync();\n  });\n  done();\n}";
        let p = parse_src(src);
        let names: Vec<&str> = p.fns[0].events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["sync", "update", "done"]);
        assert_eq!(p.fns[0].events[1].recv.as_deref(), Some("store"));
    }

    #[test]
    fn lock_receivers_resolve_to_the_final_path_segment() {
        let p = parse_src("fn f(&self) { tenant.breaker.lock(); xs[i].lock(); }");
        let ev = &p.fns[0].events;
        assert_eq!(ev[0].recv.as_deref(), Some("breaker"));
        assert_eq!(ev[1].recv, None);
    }

    #[test]
    fn block_tree_scopes_events() {
        let src = "fn f() {\n  a();\n  { b(); }\n  c();\n}";
        let p = parse_src(src);
        let f = &p.fns[0];
        let by_name = |n: &str| f.events.iter().find(|e| e.name == n).map(|e| e.block);
        assert_eq!(by_name("a"), Some(0));
        assert_eq!(by_name("b"), Some(1));
        assert_eq!(by_name("c"), Some(0));
        assert!(block_contains(&f.blocks, 0, 1));
        assert!(!block_contains(&f.blocks, 1, 0));
    }

    #[test]
    fn chained_guards_skip_expect_adapters() {
        let src = "fn f(&self) {\n\
                   \x20 let n = self.durable.lock().expect(\"d\").index.len();\n\
                   \x20 let g = self.durable.lock().expect(\"d\");\n\
                   \x20 let h = self.wal.lock()?;\n\
                   }";
        let p = parse_src(src);
        let locks: Vec<(Option<&str>, bool)> = p.fns[0]
            .events
            .iter()
            .filter(|e| e.name == "lock")
            .map(|e| (e.recv.as_deref(), e.chained))
            .collect();
        assert_eq!(
            locks,
            vec![(Some("durable"), true), (Some("durable"), false), (Some("wal"), false)]
        );
    }

    #[test]
    fn markers_are_recorded_without_parens() {
        let p = parse_src("fn f() -> Reply { Ok(Reply::Ingested { row, rows, epoch }) }");
        let ev = &p.fns[0].events;
        assert!(ev.iter().any(|e| e.kind == EvKind::Marker && e.name == "Ingested"));
    }

    #[test]
    fn nested_fns_split_their_events() {
        let src = "fn outer() {\n  fn inner() { deep(); }\n  shallow();\n}";
        let p = parse_src(src);
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("inner recovered");
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("outer recovered");
        assert_eq!(inner.events.len(), 1);
        assert_eq!(outer.events.len(), 1);
        assert_eq!(outer.events[0].name, "shallow");
    }

    #[test]
    fn trait_method_declarations_do_not_open_bodies() {
        let src = "trait T { fn decl(&self); }\nfn real() { go(); }";
        let p = parse_src(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn extracts_domd_error_variants_and_exit_arms() {
        let src = "\
//! | code | class |
//! |------|-------|
//! | 2    | config |
//! | 3    | io |
pub enum DomdError {
    Config { message: String },
    Io { context: String },
}
fn exit_code(e: &DomdError) -> u8 {
    match e {
        DomdError::Config { .. } => 2,
        DomdError::Io { .. } => 3,
    }
}
";
        let p = parse_src(src);
        let vars: Vec<&str> = p.error_variants.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vars, vec!["Config", "Io"]);
        let m = p.exit_map.expect("exit map recovered");
        let arms: Vec<(&str, &str)> =
            m.arms.iter().map(|(v, c, _)| (v.as_str(), c.as_str())).collect();
        assert_eq!(arms, vec![("Config", "2"), ("Io", "3")]);
        assert_eq!(m.wildcard, None);
        let codes: Vec<u32> = m.doc_codes.iter().map(|(c, _)| *c).collect();
        assert_eq!(codes, vec![2, 3]);
    }

    #[test]
    fn wildcard_arms_are_recorded() {
        let src = "fn exit_code(e: &DomdError) -> u8 {\n  match e {\n    DomdError::Io { .. } => 3,\n    _ => 1,\n  }\n}";
        let m = parse_src(src).exit_map.expect("exit map");
        assert_eq!(m.wildcard, Some(4));
    }
}
