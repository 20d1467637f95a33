//! Per-file extraction: one lexical pass over a token stream producing the
//! raw facts the workspace call-graph builder resolves.
//!
//! Extraction is deliberately *syntactic*: it records function definitions
//! (with module nesting, impl context, and visibility), call sites (direct,
//! qualified-path, and method calls with their receiver chains), locally
//! visible types (params, simple `let` bindings, struct fields, statics),
//! and the token sites the deep analyses care about (panic sites, wall
//! clock / RNG reads, `thread::scope` extents). All *semantic* judgement —
//! which method call resolves where, which receiver is a lock, which
//! `.iter()` walks a `HashMap` — happens later in [`crate::graph`], where
//! the whole workspace's facts are visible.

use std::collections::BTreeMap;

use syn::{Token, TokenKind};

use crate::config;
use crate::scan;
use crate::source::{self, Allow, AllowIssue};

/// Idents that mean entropy-seeded randomness.
const RNG_IDENTS: &[&str] = &["thread_rng", "ThreadRng", "OsRng", "from_entropy"];

/// Idents that mean wall-clock time wherever they appear.
const WALL_CLOCK_IDENTS: &[&str] = &["SystemTime", "UNIX_EPOCH"];

/// Macro names that abort the process.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Macro names that abort on a failed condition (documented-panic APIs).
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// Methods whose return type is derivable from the receiver type alone, so
/// a receiver chain may pass *through* them: `self.metrics.lock().inc(..)`
/// types `inc`'s receiver as the `Mutex`'s payload. Recorded in chains as
/// `#name` markers; [`crate::graph`] applies the type transform.
pub const TRANSPARENT_METHODS: &[&str] = &[
    "lock",
    "read",
    "write",
    "unwrap",
    "expect",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "clone",
    "get",
];

/// Iterator adapters whose single-ident closure parameter binds to the
/// iterated chain's element type (`results.iter().map(|r| ..)`).
const ITER_ADAPTERS: &[&str] = &[
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "for_each",
    "find",
    "any",
    "all",
    "position",
    "take_while",
    "skip_while",
    "inspect",
];

/// Keywords that can directly precede `(` or `[` without forming a call or
/// an index expression.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "break", "continue", "in", "let",
    "move", "ref", "unsafe", "async", "await", "dyn", "box", "as", "use", "where", "impl", "fn",
    "pub", "mod", "struct", "enum", "trait", "type", "const", "static", "super", "yield",
];

/// The impl (or trait) block a method definition lives in.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplCtx {
    /// Self-type name (last path segment, generics stripped).
    pub ty: String,
    /// Trait name for `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq)]
pub enum RawCallKind {
    /// `foo(...)` — a bare function name.
    Direct(String),
    /// `a::b::foo(...)` — a path; segments in source order.
    Qualified(Vec<String>),
    /// `recv.foo(...)` — a method call. `chain` is the receiver's
    /// field-access chain (e.g. `["self", "tracer"]`) when it is a plain
    /// ident path, `None` when the receiver is a computed expression.
    Method { name: String, chain: Option<Vec<String>> },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct RawCall {
    /// What is being called.
    pub kind: RawCallKind,
    /// Token index of the callee name (ordering key for lock analysis).
    pub tok: usize,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// Token index after which a guard returned by this call would drop:
    /// end of the enclosing statement, or end of the enclosing block when
    /// the result is `let`-bound. Used only for lock-discipline analysis.
    pub held_until: usize,
    /// True when the call happens inside a `spawn(..)` closure that is
    /// itself inside a `thread::scope(..)` extent.
    pub in_scope_spawn: bool,
    /// True when the call happens anywhere inside a `thread::scope(..)`
    /// extent (spawned or not).
    pub in_scope: bool,
}

/// Why a function can abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// `assert!` / `assert_eq!` / `assert_ne!`.
    Assert,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `x[i]` slice/array indexing.
    Index,
}

impl PanicKind {
    /// The clippy lints that deny this kind of site in library code; a
    /// site under a waiver of one of them is blessed.
    #[must_use]
    pub fn lints(self) -> &'static [&'static str] {
        match self {
            PanicKind::Macro => {
                &["clippy::panic", "clippy::unreachable", "clippy::todo", "clippy::unimplemented"]
            }
            PanicKind::Unwrap => &["clippy::unwrap_used"],
            PanicKind::Expect => &["clippy::expect_used"],
            PanicKind::Assert | PanicKind::Index => &[],
        }
    }

    /// Short human label used in witness chains.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Macro => "panic-family macro",
            PanicKind::Assert => "assert! macro",
            PanicKind::Unwrap => ".unwrap()",
            PanicKind::Expect => ".expect()",
            PanicKind::Index => "slice indexing",
        }
    }
}

/// One potential panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Why it can abort.
    pub kind: PanicKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A determinism-taint source found lexically (receiver-independent kinds
/// only; `hash-iter` and lock/channel sources are derived at resolution).
#[derive(Debug, Clone)]
pub struct RawSource {
    /// Which nondeterminism family.
    pub kind: RawSourceKind,
    /// What was seen (e.g. the ident text).
    pub what: String,
    /// 1-based line.
    pub line: u32,
}

/// Receiver-independent taint-source families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawSourceKind {
    /// `SystemTime` / `UNIX_EPOCH` / `Instant::now`.
    WallClock,
    /// `thread_rng` / `OsRng` / `from_entropy`.
    UnseededRng,
}

/// A `for _ in <chain>` iteration site (hash-iteration candidate once the
/// receiver's type is known).
#[derive(Debug, Clone)]
pub struct RawForIter {
    /// Receiver chain being iterated.
    pub chain: Vec<String>,
    /// 1-based line.
    pub line: u32,
}

/// One extracted function.
#[derive(Debug, Clone)]
pub struct RawFn {
    /// Bare function name.
    pub name: String,
    /// Inline-module path inside the file (plus enclosing fn names for
    /// nested functions).
    pub modpath: Vec<String>,
    /// The impl/trait block the definition lives in, if any.
    pub impl_ctx: Option<ImplCtx>,
    /// True for bare `pub` (restricted `pub(..)` counts as private).
    pub public: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Normalized return-type text (`Self` resolved to the impl type);
    /// `None` for `()` returns. Lets the builder type `let x = f(..)`.
    pub ret: Option<String>,
    /// Parameter and simple-`let` types: variable name → normalized type
    /// text (e.g. `"Mutex<TracerState>"`); `"self"` maps to the impl type;
    /// closures map to the `"<closure>"` sentinel.
    pub locals: BTreeMap<String, String>,
    /// `let x = <rhs>` bindings whose RHS is a typeable chain: variable
    /// name → receiver chain with `#...` markers (transparent hops,
    /// `#call:f` / `#qcall:path` / `#mcall:m` call results, `#elem`
    /// indexing), typed on demand by the builder. Also holds `if let
    /// Some(x) = <rhs>` bindings (with a trailing `#unwrap`).
    pub chain_lets: BTreeMap<String, Vec<String>>,
    /// `for x in [&]<chain>` bindings: variable name → iterated chain plus
    /// an `#elem` marker (element type of the collection).
    pub elem_lets: BTreeMap<String, Vec<String>>,
    /// Call sites in source order.
    pub calls: Vec<RawCall>,
    /// Fn items named as values, not called (`.map(Self::f)`, `sort_by(cmp)`):
    /// `Direct` or `Qualified` paths, in source order.
    pub refs: Vec<RawCallKind>,
    /// Potential panic sites.
    pub panics: Vec<PanicSite>,
    /// Receiver-independent taint sources.
    pub sources: Vec<RawSource>,
    /// `for _ in <chain>` iteration sites.
    pub for_iters: Vec<RawForIter>,
    /// True when the body contains a `thread::scope(..)` extent.
    pub has_scope: bool,
}

/// A struct definition's field types.
#[derive(Debug, Clone, Default)]
pub struct RawStruct {
    /// Field name → normalized type text.
    pub fields: BTreeMap<String, String>,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub path: String,
    /// Functions in source order (test code excluded).
    pub fns: Vec<RawFn>,
    /// Struct name → fields.
    pub structs: BTreeMap<String, RawStruct>,
    /// `static NAME: Type` items: name → normalized type text.
    pub statics: BTreeMap<String, String>,
    /// Allow annotations (validated rule names only) and clippy lint
    /// waivers (as `clippy::<lint>` rules).
    pub allows: Vec<Allow>,
}

/// Extract all facts from one lexed file, with the problems found in its
/// allow annotations.
pub fn extract_file(path: &str, tokens: &[Token]) -> (FileFacts, Vec<AllowIssue>) {
    let (mut allows, issues) = source::collect_allows(tokens, &config::known_rule);
    allows.extend(source::collect_lint_waivers(tokens));
    let mut ex = Extractor {
        tokens,
        test_ranges: scan::collect_test_ranges(tokens),
        facts: FileFacts { path: path.to_string(), allows, ..Default::default() },
        scopes: Vec::new(),
        thread_scopes: Vec::new(),
        spawn_extents: Vec::new(),
    };
    ex.collect_thread_scopes();
    ex.run();
    (ex.facts, issues)
}

/// One entry of the item-scope stack.
#[derive(Debug, Clone)]
enum Scope {
    /// `mod name { .. }` — close token index.
    Mod(String, usize),
    /// `impl .. { .. }` / `trait .. { .. }` — context + close index.
    Impl(ImplCtx, usize),
    /// A function body — index into `facts.fns` + close index.
    Fn(usize, usize),
}

impl Scope {
    fn close(&self) -> usize {
        match self {
            Scope::Mod(_, c) | Scope::Fn(_, c) => *c,
            Scope::Impl(_, c) => *c,
        }
    }
}

struct Extractor<'a> {
    tokens: &'a [Token],
    test_ranges: Vec<(usize, usize)>,
    facts: FileFacts,
    scopes: Vec<Scope>,
    /// `thread::scope(..)` paren extents (inclusive).
    thread_scopes: Vec<(usize, usize)>,
    /// `spawn(..)` paren extents inside thread scopes (inclusive).
    spawn_extents: Vec<(usize, usize)>,
}

impl<'a> Extractor<'a> {
    fn tok(&self, idx: usize) -> Option<&Token> {
        self.tokens.get(idx)
    }

    fn next_code(&self, idx: usize) -> Option<usize> {
        scan::next_code(self.tokens, idx)
    }

    fn prev_code(&self, idx: usize) -> Option<usize> {
        (0..idx).rev().find(|&i| !self.tokens[i].is_comment())
    }

    fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| s <= idx && idx <= e)
    }

    fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
        ranges.iter().any(|&(s, e)| s <= idx && idx <= e)
    }

    // ---- thread::scope detection -------------------------------------

    /// Record `thread::scope(..)` paren extents and the `spawn(..)` paren
    /// extents inside them, so call sites can be tagged.
    fn collect_thread_scopes(&mut self) {
        for idx in 0..self.tokens.len() {
            if !self.tokens[idx].is_ident("scope") {
                continue;
            }
            // `thread::scope(` / `std::thread::scope(`.
            let Some(p1) = self.prev_code(idx) else { continue };
            if !self.tokens[p1].is_punct(':') {
                continue;
            }
            let Some(p2) = self.prev_code(p1) else { continue };
            if !self.tokens[p2].is_punct(':') {
                continue;
            }
            let Some(p3) = self.prev_code(p2) else { continue };
            if !self.tokens[p3].is_ident("thread") {
                continue;
            }
            let Some(open) = self.next_code(idx + 1) else { continue };
            if !self.tokens[open].is_punct('(') {
                continue;
            }
            let Some(close) = scan::matching(self.tokens, open, '(', ')') else { continue };
            self.thread_scopes.push((open, close));
        }
        for &(s, e) in &self.thread_scopes.clone() {
            for idx in s..=e {
                if !self.tokens[idx].is_ident("spawn") {
                    continue;
                }
                let Some(open) = self.next_code(idx + 1) else { continue };
                if !self.tokens[open].is_punct('(') {
                    continue;
                }
                if let Some(close) = scan::matching(self.tokens, open, '(', ')') {
                    self.spawn_extents.push((open, close));
                }
            }
        }
    }

    // ---- main walk ----------------------------------------------------

    fn run(&mut self) {
        let mut idx = 0usize;
        while idx < self.tokens.len() {
            // Retire scopes that ended before this token.
            while self.scopes.last().is_some_and(|s| s.close() < idx) {
                self.scopes.pop();
            }
            // Skip test regions entirely: no nodes, no edges, no sites.
            if let Some(&(_, end)) = self.test_ranges.iter().find(|&&(s, e)| s <= idx && idx <= e) {
                idx = end + 1;
                continue;
            }
            let Some(tok) = self.tok(idx) else { break };
            if tok.is_comment() {
                idx += 1;
                continue;
            }

            if tok.is_ident("mod") {
                idx = self.enter_mod(idx);
                continue;
            }
            if tok.is_ident("impl") || tok.is_ident("trait") {
                idx = self.enter_impl(idx);
                continue;
            }
            if tok.is_ident("struct") {
                idx = self.record_struct(idx);
                continue;
            }
            if tok.is_ident("static") {
                idx = self.record_static(idx);
                continue;
            }
            if tok.is_ident("fn") {
                idx = self.enter_fn(idx);
                continue;
            }

            if self.current_fn().is_some() {
                self.body_token(idx);
            }
            idx += 1;
        }
    }

    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Fn(i, _) => Some(*i),
            _ => None,
        })
    }

    fn current_impl(&self) -> Option<&ImplCtx> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Impl(c, _) => Some(c),
            _ => None,
        })
    }

    fn current_modpath(&self) -> Vec<String> {
        let mut path = Vec::new();
        for s in &self.scopes {
            match s {
                Scope::Mod(name, _) => path.push(name.clone()),
                // Nested fns namespace under their parent function.
                Scope::Fn(i, _) => path.push(self.facts.fns[*i].name.clone()),
                Scope::Impl(..) => {}
            }
        }
        path
    }

    // ---- item headers -------------------------------------------------

    /// `mod name { .. }` — push a scope; `mod name;` — skip.
    fn enter_mod(&mut self, idx: usize) -> usize {
        let Some(name_idx) = self.next_code(idx + 1) else { return idx + 1 };
        let name = &self.tokens[name_idx];
        if name.kind != TokenKind::Ident {
            return idx + 1;
        }
        let Some(open) = self.next_code(name_idx + 1) else { return idx + 1 };
        if self.tokens[open].is_punct('{') {
            let close = syn::matching_close(self.tokens, open).unwrap_or(self.tokens.len() - 1);
            self.scopes.push(Scope::Mod(name.text.clone(), close));
        }
        // `mod name;` declares an out-of-line module handled via its own
        // file; nothing to do here.
        open + 1
    }

    /// Index just past a `<...>` group starting at `open` (arrow-aware).
    fn skip_angle_group(&self, open: usize) -> usize {
        let mut angle = 0i64;
        let mut i = open;
        while i < self.tokens.len() {
            let t = &self.tokens[i];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !self.prev_is_dash(i) {
                angle -= 1;
                if angle == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        self.tokens.len()
    }

    /// `impl<G> Trait for Type<..> where .. { .. }` or `trait Name { .. }`.
    fn enter_impl(&mut self, idx: usize) -> usize {
        let is_trait = self.tokens[idx].is_ident("trait");
        // Collect header tokens up to the body `{` (angle-depth aware so
        // `where T: Into<{..}>` style generics can't derail us).
        let mut k = idx + 1;
        // `impl<N, E>` generics belong to the block, not the self-type:
        // skip them so the type-name scan below doesn't stop at their `<`.
        if !is_trait {
            if let Some(g) = self.next_code(k) {
                if self.tokens[g].is_punct('<') {
                    k = self.skip_angle_group(g);
                }
            }
        }
        let mut angle = 0i64;
        let mut header: Vec<usize> = Vec::new();
        while k < self.tokens.len() {
            let t = &self.tokens[k];
            if t.is_comment() {
                k += 1;
                continue;
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                // `->` inside `Fn() -> X` generics: not a closer.
                if !self.prev_is_dash(k) {
                    angle -= 1;
                }
            } else if t.is_punct('{') && angle <= 0 {
                break;
            } else if t.is_punct(';') && angle <= 0 {
                // `impl Foo;`-like degenerate header: skip the item.
                return k + 1;
            }
            header.push(k);
            k += 1;
        }
        if k >= self.tokens.len() {
            return self.tokens.len();
        }
        let open = k;
        let close = syn::matching_close(self.tokens, open).unwrap_or(self.tokens.len() - 1);
        let ctx = if is_trait {
            let ty = header
                .iter()
                .map(|&i| &self.tokens[i])
                .find(|t| t.kind == TokenKind::Ident)
                .map_or_else(|| "_".to_string(), |t| t.text.clone());
            ImplCtx { ty, trait_name: None }
        } else {
            self.parse_impl_header(&header)
        };
        self.scopes.push(Scope::Impl(ctx, close));
        open + 1
    }

    /// True when the code token before `k` is `-` (so `>` at `k` is part
    /// of an `->` arrow, not a generics closer).
    fn prev_is_dash(&self, k: usize) -> bool {
        self.prev_code(k).is_some_and(|p| self.tokens[p].is_punct('-'))
    }

    /// Split an impl header into `(trait, type)` on a depth-0 `for`, then
    /// take each side's last path segment before any generics.
    fn parse_impl_header(&self, header: &[usize]) -> ImplCtx {
        let mut angle = 0i64;
        let mut for_pos: Option<usize> = None;
        for (pos, &i) in header.iter().enumerate() {
            let t = &self.tokens[i];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !self.prev_is_dash(i) {
                angle -= 1;
            } else if angle <= 0 && t.is_ident("for") {
                for_pos = Some(pos);
                break;
            } else if angle <= 0 && t.is_ident("where") {
                break;
            }
        }
        let (trait_part, ty_part): (&[usize], &[usize]) = match for_pos {
            Some(p) => (&header[..p], &header[p + 1..]),
            None => (&[], header),
        };
        let ty = self.last_path_segment(ty_part).unwrap_or_else(|| "_".to_string());
        let trait_name = self.last_path_segment(trait_part);
        ImplCtx { ty, trait_name }
    }

    /// Last identifier of the leading path in `part`, stopping at generics
    /// or a `where` clause: `fmt::Display` → `Display`, `Coarsening<T>` →
    /// `Coarsening`, `&mut Foo` → `Foo`.
    fn last_path_segment(&self, part: &[usize]) -> Option<String> {
        let mut last: Option<String> = None;
        for &i in part {
            let t = &self.tokens[i];
            if t.is_punct('<') || t.is_ident("where") {
                break;
            }
            if t.kind == TokenKind::Ident
                && !["mut", "dyn", "impl", "const"].contains(&t.text.as_str())
            {
                last = Some(t.text.clone());
            }
        }
        last
    }

    /// `struct Name { field: Type, .. }` — record field types; tuple and
    /// unit structs carry no named fields worth tracking.
    fn record_struct(&mut self, idx: usize) -> usize {
        let Some(name_idx) = self.next_code(idx + 1) else { return idx + 1 };
        let name_tok = &self.tokens[name_idx];
        if name_tok.kind != TokenKind::Ident {
            return idx + 1;
        }
        let name = name_tok.text.clone();
        // Find the body `{` (or `;`/`(` for unit/tuple structs).
        let mut k = name_idx + 1;
        let mut angle = 0i64;
        while k < self.tokens.len() {
            let t = &self.tokens[k];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !self.prev_is_dash(k) {
                angle -= 1;
            } else if angle <= 0 && (t.is_punct(';') || t.is_punct('(')) {
                return scan::item_extent(self.tokens, idx) + 1;
            } else if angle <= 0 && t.is_punct('{') {
                break;
            }
            k += 1;
        }
        let Some(close) = syn::matching_close(self.tokens, k) else { return k + 1 };
        let mut st = RawStruct::default();
        let mut i = k + 1;
        while i < close {
            let t = &self.tokens[i];
            if t.is_comment() {
                i += 1;
                continue;
            }
            // Skip attributes on fields.
            if t.is_punct('#') {
                if let Some(open) = self.next_code(i + 1) {
                    if self.tokens[open].is_punct('[') {
                        i = scan::matching(self.tokens, open, '[', ']').unwrap_or(open) + 1;
                        continue;
                    }
                }
                i += 1;
                continue;
            }
            // `pub` / `pub(crate)` prefixes.
            if t.is_ident("pub") {
                i = match self.next_code(i + 1) {
                    Some(n) if self.tokens[n].is_punct('(') => {
                        scan::matching(self.tokens, n, '(', ')').unwrap_or(n) + 1
                    }
                    _ => i + 1,
                };
                continue;
            }
            if t.kind == TokenKind::Ident {
                if let Some(colon) = self.next_code(i + 1) {
                    if self.tokens[colon].is_punct(':') {
                        let (ty, after) = self.type_text(colon + 1, close, &[',']);
                        st.fields.insert(t.text.clone(), ty);
                        i = after + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
        if self.derives_default(idx) {
            self.derived_default(idx, &name, &st);
        }
        self.facts.structs.insert(name, st);
        close + 1
    }

    /// Whether the item whose keyword sits at `idx` carries a
    /// `#[derive(..)]` naming `Default`: the attributes and visibility
    /// before it are walked back.
    fn derives_default(&self, idx: usize) -> bool {
        let mut k = idx;
        while let Some(p) = self.prev_code(k) {
            let t = &self.tokens[p];
            if t.is_ident("pub") {
                k = p;
            } else if t.is_punct(')') || t.is_punct(']') {
                let (open, close) = if t.is_punct(')') { ('(', ')') } else { ('[', ']') };
                let Some(o) = self.matching_back(p, open, close) else { return false };
                let inner = self.tokens.get(o..p).unwrap_or_default();
                if close == ']'
                    && inner.iter().any(|t| t.is_ident("derive"))
                    && inner.iter().any(|t| t.is_ident("Default"))
                {
                    return true;
                }
                k = o;
            } else if t.is_punct('#') {
                k = p;
            } else {
                return false;
            }
        }
        false
    }

    /// The index of the `open` bracket that the `close` bracket at `at`
    /// closes.
    fn matching_back(&self, at: usize, open: char, close: char) -> Option<usize> {
        let mut depth = 0usize;
        for i in (0..=at).rev() {
            let t = &self.tokens[i];
            if t.is_punct(close) {
                depth += 1;
            } else if t.is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }

    /// Record the `default` that `#[derive(Default)]` writes for struct
    /// `name`: a trait method calling each field type's own `default`,
    /// which the builder resolves to a workspace impl where there is one.
    /// Only a field type that is a plain path is called; a reference,
    /// tuple or array field has no such impl to reach.
    fn derived_default(&mut self, idx: usize, name: &str, st: &RawStruct) {
        let tok = &self.tokens[idx];
        let calls = st
            .fields
            .values()
            .filter_map(|ty| {
                let head = ty.split('<').next().unwrap_or(ty);
                let mut segs: Vec<String> = head.split("::").map(str::to_string).collect();
                let plain = |s: &String| {
                    s.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
                        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
                };
                segs.iter().all(plain).then(|| {
                    segs.push("default".to_string());
                    RawCall {
                        kind: RawCallKind::Qualified(segs),
                        tok: idx,
                        line: tok.span.line,
                        col: tok.span.col,
                        held_until: idx,
                        in_scope_spawn: false,
                        in_scope: false,
                    }
                })
            })
            .collect();
        self.facts.fns.push(RawFn {
            name: "default".to_string(),
            modpath: self.current_modpath(),
            impl_ctx: Some(ImplCtx { ty: name.to_string(), trait_name: Some("Default".into()) }),
            public: false,
            line: tok.span.line,
            ret: Some(name.to_string()),
            locals: BTreeMap::new(),
            chain_lets: BTreeMap::new(),
            elem_lets: BTreeMap::new(),
            calls,
            refs: Vec::new(),
            panics: Vec::new(),
            sources: Vec::new(),
            for_iters: Vec::new(),
            has_scope: false,
        });
    }

    /// `static NAME: Type = ..;` — record the type for lock naming.
    fn record_static(&mut self, idx: usize) -> usize {
        let mut k = idx + 1;
        if self.next_code(k).is_some_and(|n| self.tokens[n].is_ident("mut")) {
            k = self.next_code(k).map_or(k, |n| n + 1);
        }
        let Some(name_idx) = self.next_code(k) else { return idx + 1 };
        let name_tok = &self.tokens[name_idx];
        if name_tok.kind != TokenKind::Ident {
            return idx + 1;
        }
        let Some(colon) = self.next_code(name_idx + 1) else { return idx + 1 };
        if !self.tokens[colon].is_punct(':') {
            return idx + 1;
        }
        let end = scan::item_extent(self.tokens, idx);
        let (ty, _) = self.type_text(colon + 1, end + 1, &['=', ';']);
        self.facts.statics.insert(name_tok.text.clone(), ty);
        end + 1
    }

    /// Concatenate a type's token texts from `start` until one of `stops`
    /// appears at bracket depth 0 (or `limit` is reached). Returns the
    /// normalized text (refs/lifetimes/`mut`/`dyn`/`impl` stripped at the
    /// front) and the index of the stopping token.
    fn type_text(&self, start: usize, limit: usize, stops: &[char]) -> (String, usize) {
        let mut depth = 0i64;
        let mut out = String::new();
        let mut k = start;
        while k < limit.min(self.tokens.len()) {
            let t = &self.tokens[k];
            if t.is_comment() {
                k += 1;
                continue;
            }
            match t.kind {
                TokenKind::Punct => {
                    let ch = t.text.chars().next().unwrap_or(' ');
                    if depth == 0 && stops.contains(&ch) {
                        break;
                    }
                    match ch {
                        '<' | '(' | '[' => depth += 1,
                        '>' if !self.prev_is_dash(k) => depth -= 1,
                        ')' | ']' => depth -= 1,
                        _ => {}
                    }
                    // Leading `&` refs are not part of the type name.
                    if !(out.is_empty() && ch == '&') {
                        out.push_str(&t.text);
                    }
                }
                TokenKind::Lifetime => {}
                _ => {
                    if out.is_empty() && ["mut", "dyn", "impl"].contains(&t.text.as_str()) {
                        // Skip qualifier prefixes before the type name.
                    } else {
                        out.push_str(&t.text);
                    }
                }
            }
            k += 1;
        }
        (out, k)
    }

    // ---- fn definitions -----------------------------------------------

    /// Parse a `fn` item header, record the function, and push its body
    /// scope so subsequent tokens attribute to it.
    fn enter_fn(&mut self, idx: usize) -> usize {
        let Some(name_idx) = self.next_code(idx + 1) else { return idx + 1 };
        let name_tok = &self.tokens[name_idx];
        if name_tok.kind != TokenKind::Ident {
            return idx + 1;
        }
        let name = name_tok.text.clone();
        let public = self.fn_is_public(idx);
        let line = self.tokens[idx].span.line;

        // Skip generics to the parameter list.
        let mut k = name_idx + 1;
        if let Some(open) = self.next_code(k) {
            if self.tokens[open].is_punct('<') {
                k = self.skip_angle_group(open);
            }
        }
        let Some(popen) = self.next_code(k) else { return idx + 1 };
        if !self.tokens[popen].is_punct('(') {
            return idx + 1;
        }
        let pclose = scan::matching(self.tokens, popen, '(', ')')
            .unwrap_or(self.tokens.len().saturating_sub(1));

        let mut locals = BTreeMap::new();
        if let Some(ctx) = self.current_impl() {
            let ty = ctx.ty.clone();
            self.parse_params(popen, pclose, Some(&ty), &mut locals);
        } else {
            self.parse_params(popen, pclose, None, &mut locals);
        }

        // Body `{` (or `;` for trait-method declarations).
        let mut b = pclose + 1;
        let body_open = loop {
            let Some(n) = self.next_code(b) else { break None };
            let t = &self.tokens[n];
            if t.is_punct('{') {
                break Some(n);
            }
            if t.is_punct(';') {
                break None;
            }
            b = n + 1;
        };

        // Return type (`-> Type`) between the params and the body: lets
        // the builder type `let x = f(..)` bindings through this function.
        let mut ret: Option<String> = None;
        {
            let limit = body_open.unwrap_or_else(|| scan::item_extent(self.tokens, idx));
            let mut j = pclose + 1;
            while j < limit {
                if self.tokens[j].is_punct('-') && self.tok(j + 1).is_some_and(|t| t.is_punct('>'))
                {
                    let start = j + 2;
                    let stop =
                        (start..limit).find(|&w| self.tokens[w].is_ident("where")).unwrap_or(limit);
                    let (ty, _) = self.type_text(start, stop, &['{', ';']);
                    if !ty.is_empty() {
                        ret = Some(match self.current_impl() {
                            Some(ctx) => ty.replace("Self", &ctx.ty),
                            None => ty,
                        });
                    }
                    break;
                }
                j += 1;
            }
        }

        let raw = RawFn {
            name,
            modpath: self.current_modpath(),
            impl_ctx: self.current_impl().cloned(),
            public,
            line,
            ret,
            locals,
            chain_lets: BTreeMap::new(),
            elem_lets: BTreeMap::new(),
            calls: Vec::new(),
            refs: Vec::new(),
            panics: Vec::new(),
            sources: Vec::new(),
            for_iters: Vec::new(),
            has_scope: false,
        };

        match body_open {
            Some(open) => {
                let close = syn::matching_close(self.tokens, open).unwrap_or(self.tokens.len() - 1);
                let fn_idx = self.facts.fns.len();
                self.facts.fns.push(raw);
                if Self::overlaps(&self.thread_scopes, open, close) {
                    self.facts.fns[fn_idx].has_scope = true;
                }
                // Pre-scan the body for simple `let` bindings so receiver
                // types are known regardless of use-before-record order.
                self.collect_lets(fn_idx, open, close);
                self.scopes.push(Scope::Fn(fn_idx, close));
                open + 1
            }
            None => {
                // Bodyless declaration: keep the node (trait methods are
                // call-resolution targets), no body to walk.
                self.facts.fns.push(raw);
                scan::item_extent(self.tokens, idx) + 1
            }
        }
    }

    fn overlaps(ranges: &[(usize, usize)], s: usize, e: usize) -> bool {
        ranges.iter().any(|&(rs, re)| rs <= e && s <= re)
    }

    /// Visibility of the fn at `idx`: walk back over modifier tokens and
    /// accept only a bare `pub` (restricted `pub(..)` is not public API).
    fn fn_is_public(&self, idx: usize) -> bool {
        let mut k = idx;
        while let Some(p) = self.prev_code(k) {
            let t = &self.tokens[p];
            if t.kind == TokenKind::Ident
                && ["const", "unsafe", "async", "extern"].contains(&t.text.as_str())
            {
                k = p;
                continue;
            }
            if t.kind == TokenKind::Str {
                // `extern "C"` ABI string.
                k = p;
                continue;
            }
            if t.is_punct(')') {
                // Could be `pub(crate)`: walk to the opening paren and on.
                let mut depth = 0i64;
                let mut j = p;
                loop {
                    let tj = &self.tokens[j];
                    if tj.is_punct(')') {
                        depth += 1;
                    } else if tj.is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        return false;
                    }
                    j -= 1;
                }
                // `pub(..)` is restricted visibility, and any other
                // paren-terminated prefix is not a visibility at all.
                return false;
            }
            return t.is_ident("pub");
        }
        false
    }

    /// Record `name: Type` params (plus the `self` receiver type).
    fn parse_params(
        &self,
        open: usize,
        close: usize,
        self_ty: Option<&str>,
        locals: &mut BTreeMap<String, String>,
    ) {
        let mut i = open + 1;
        // Split top-level commas (paren/bracket/angle aware).
        let mut depth = 0i64;
        let mut param_start = i;
        let mut boundaries = Vec::new();
        while i < close {
            let t = &self.tokens[i];
            if t.kind == TokenKind::Punct {
                match t.text.chars().next().unwrap_or(' ') {
                    '(' | '[' | '<' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '>' if !self.prev_is_dash(i) => depth -= 1,
                    ',' if depth == 0 => {
                        boundaries.push((param_start, i));
                        param_start = i + 1;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        if param_start < close {
            boundaries.push((param_start, close));
        }

        for (s, e) in boundaries {
            let code: Vec<usize> = (s..e).filter(|&i| !self.tokens[i].is_comment()).collect();
            if code.is_empty() {
                continue;
            }
            // Receiver: `self` possibly behind `&`, lifetimes, `mut`.
            if let Some(&self_idx) = code.iter().find(|&&i| self.tokens[i].is_ident("self")) {
                let only_receiver_prefix = code.iter().take_while(|&&i| i != self_idx).all(|&i| {
                    let t = &self.tokens[i];
                    t.is_punct('&') || t.kind == TokenKind::Lifetime || t.is_ident("mut")
                });
                if only_receiver_prefix {
                    if let Some(ty) = self_ty {
                        locals.insert("self".to_string(), ty.to_string());
                    }
                    continue;
                }
            }
            // Simple `name: Type` (skip `mut` prefix; skip destructuring).
            let mut ci = 0usize;
            if self.tokens[code[ci]].is_ident("mut") && code.len() > 1 {
                ci += 1;
            }
            let name_i = code[ci];
            if self.tokens[name_i].kind != TokenKind::Ident {
                continue;
            }
            let Some(&colon_i) = code.get(ci + 1) else { continue };
            if !self.tokens[colon_i].is_punct(':') {
                continue;
            }
            let (ty, _) = self.type_text(colon_i + 1, e, &[',']);
            locals.insert(self.tokens[name_i].text.clone(), ty);
        }
    }

    /// Pre-scan a body for `let [mut] name: Type = ..` and
    /// `let [mut] name = Type::..` bindings.
    fn collect_lets(&mut self, fn_idx: usize, open: usize, close: usize) {
        let mut i = open + 1;
        while i < close {
            if self.in_test(i) || !self.tokens[i].is_ident("let") {
                i += 1;
                continue;
            }
            let Some(mut n) = self.next_code(i + 1) else { break };
            if self.tokens[n].is_ident("mut") {
                match self.next_code(n + 1) {
                    Some(nn) => n = nn,
                    None => break,
                }
            }
            if self.tokens[n].kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            // `if let Some(x) = <rhs> {` / `while let Some(x) = <rhs> {`
            // binds `x` to the Option payload of the RHS chain's type.
            if self.tokens[n].is_ident("Some") {
                if let Some((var, chain)) = self.some_binding(n) {
                    self.facts.fns[fn_idx].chain_lets.entry(var).or_insert(chain);
                }
                i = n + 1;
                continue;
            }
            let var = self.tokens[n].text.clone();
            let Some(after) = self.next_code(n + 1) else { break };
            if self.tokens[after].is_punct(':') {
                let (ty, _) = self.type_text(after + 1, close, &['=', ';']);
                self.facts.fns[fn_idx].locals.entry(var).or_insert(ty);
            } else if self.tokens[after].is_punct('=') {
                if let Some(mut v) = self.next_code(after + 1) {
                    if self.tokens[v].is_punct('|') || self.tokens[v].is_ident("move") {
                        // `let run = |..| { .. }`: calling `run(..)` later
                        // is not a workspace function call.
                        self.facts.fns[fn_idx]
                            .locals
                            .entry(var)
                            .or_insert_with(|| "<closure>".to_string());
                        i = n + 1;
                        continue;
                    }
                    // `let x = &profiles[4]` — refs don't change the type.
                    while self.tokens[v].is_punct('&')
                        || self.tokens[v].is_punct('*')
                        || self.tokens[v].is_ident("mut")
                    {
                        match self.next_code(v + 1) {
                            Some(nn) => v = nn,
                            None => break,
                        }
                    }
                    let t = &self.tokens[v];
                    if t.kind == TokenKind::Ident
                        && t.text.chars().next().is_some_and(char::is_uppercase)
                        && self.next_code(v + 1).is_some_and(|f| {
                            self.tokens[f].is_punct(':') || self.tokens[f].is_punct('{')
                        })
                    {
                        // `let x = Type::new(..)` / `let x = Type { .. }`.
                        self.facts.fns[fn_idx].locals.entry(var).or_insert_with(|| t.text.clone());
                    } else if t.kind == TokenKind::Ident {
                        // `let alerts = self.clds.alerts.read();` or
                        // `let r = evaluate(&cfg);` — a typeable chain,
                        // resolved on demand by the builder.
                        if let Some(chain) = self.rhs_binding(v, &[';']) {
                            self.facts.fns[fn_idx].chain_lets.entry(var).or_insert(chain);
                        }
                    }
                }
            }
            i = n + 1;
        }
    }

    /// `Some(x) = <rhs> {` (if-let / while-let): the bound name and the
    /// RHS chain with a trailing `#unwrap` (the Option payload).
    fn some_binding(&self, some_idx: usize) -> Option<(String, Vec<String>)> {
        let open = self.next_code(some_idx + 1)?;
        if !self.tokens[open].is_punct('(') {
            return None;
        }
        let close = scan::matching(self.tokens, open, '(', ')')?;
        let mut b = self.next_code(open + 1)?;
        while self.tokens[b].is_punct('&')
            || self.tokens[b].is_ident("mut")
            || self.tokens[b].is_ident("ref")
        {
            b = self.next_code(b + 1)?;
        }
        if self.tokens[b].kind != TokenKind::Ident || self.next_code(b + 1) != Some(close) {
            return None;
        }
        let var = self.tokens[b].text.clone();
        let eq = self.next_code(close + 1)?;
        if !self.tokens[eq].is_punct('=') {
            return None;
        }
        let mut v = self.next_code(eq + 1)?;
        while self.tokens[v].is_punct('&')
            || self.tokens[v].is_punct('*')
            || self.tokens[v].is_ident("mut")
        {
            v = self.next_code(v + 1)?;
        }
        if self.tokens[v].kind != TokenKind::Ident {
            return None;
        }
        let mut chain = self.rhs_binding(v, &['{'])?;
        chain.push("#unwrap".to_string());
        Some((var, chain))
    }

    /// Parse a `let` RHS starting at ident `start` as a typeable chain:
    /// field accesses, transparent method hops (`#m`), other method calls
    /// (`#mcall:m`), indexing (`#elem`), `?` propagation (`#unwrap`), and
    /// call heads (`#call:f` / `#qcall:a::b::f`). The chain must end at
    /// one of `terms`; any other shape yields `None`.
    fn rhs_binding(&self, start: usize, terms: &[char]) -> Option<Vec<String>> {
        // Head: an ident or a qualified path, either possibly called.
        let mut segs = vec![self.tokens[start].text.clone()];
        let mut cur = start;
        loop {
            let n = self.next_code(cur + 1)?;
            if !self.tokens[n].is_punct(':') {
                break;
            }
            let c2 = self.next_code(n + 1)?;
            if !self.tokens[c2].is_punct(':') {
                return None;
            }
            let s = self.next_code(c2 + 1)?;
            if self.tokens[s].kind != TokenKind::Ident {
                return None;
            }
            segs.push(self.tokens[s].text.clone());
            cur = s;
        }
        let mut chain: Vec<String> = Vec::new();
        let after = self.next_code(cur + 1)?;
        let mut k = if self.tokens[after].is_punct('(') {
            chain.push(if segs.len() == 1 {
                format!("#call:{}", segs[0])
            } else {
                format!("#qcall:{}", segs.join("::"))
            });
            scan::matching(self.tokens, after, '(', ')')?
        } else if segs.len() == 1 {
            chain.push(segs.remove(0));
            cur
        } else {
            // Qualified non-call (a const or unit-variant path): the
            // uppercase-ctor branch already handles the typeable cases.
            return None;
        };
        // Tail: `.field`, `.m(..)`, `[..]`, `?`, until a terminator.
        loop {
            let n = self.next_code(k + 1)?;
            let t = &self.tokens[n];
            if t.kind != TokenKind::Punct {
                return None;
            }
            let ch = t.text.chars().next().unwrap_or(' ');
            if terms.contains(&ch) {
                return Some(chain);
            }
            match ch {
                '.' => {
                    let f = self.next_code(n + 1)?;
                    if self.tokens[f].kind != TokenKind::Ident {
                        return None;
                    }
                    let name = self.tokens[f].text.clone();
                    if self.next_code(f + 1).is_some_and(|a| self.tokens[a].is_punct('(')) {
                        let a = self.next_code(f + 1)?;
                        let close = scan::matching(self.tokens, a, '(', ')')?;
                        chain.push(if TRANSPARENT_METHODS.contains(&name.as_str()) {
                            format!("#{name}")
                        } else {
                            format!("#mcall:{name}")
                        });
                        k = close;
                    } else {
                        chain.push(name);
                        k = f;
                    }
                }
                '[' => {
                    let close = scan::matching(self.tokens, n, '[', ']')?;
                    chain.push("#elem".to_string());
                    k = close;
                }
                '?' => {
                    chain.push("#unwrap".to_string());
                    k = n;
                }
                _ => return None,
            }
        }
    }

    // ---- body tokens ---------------------------------------------------

    /// Inspect one token inside a function body for call sites, panic
    /// sites, and taint sources.
    fn body_token(&mut self, idx: usize) {
        let Some(fn_idx) = self.current_fn() else { return };
        let tok = &self.tokens[idx];

        match tok.kind {
            TokenKind::Ident => {}
            TokenKind::Punct => {
                if tok.is_punct('[') {
                    self.check_index_site(fn_idx, idx);
                }
                return;
            }
            _ => return,
        }

        // Receiver-independent taint sources.
        if RNG_IDENTS.iter().any(|r| tok.is_ident(r)) {
            self.facts.fns[fn_idx].sources.push(RawSource {
                kind: RawSourceKind::UnseededRng,
                what: tok.text.clone(),
                line: tok.span.line,
            });
        }
        if WALL_CLOCK_IDENTS.iter().any(|w| tok.is_ident(w)) {
            self.facts.fns[fn_idx].sources.push(RawSource {
                kind: RawSourceKind::WallClock,
                what: tok.text.clone(),
                line: tok.span.line,
            });
        }
        if tok.is_ident("Instant") && self.path_segment_is(idx, "now") {
            self.facts.fns[fn_idx].sources.push(RawSource {
                kind: RawSourceKind::WallClock,
                what: "Instant::now".to_string(),
                line: tok.span.line,
            });
        }

        // Panic macros (incl. asserts).
        let next_is_bang = self.tok(idx + 1).is_some_and(|t| t.is_punct('!'));
        if next_is_bang {
            if PANIC_MACROS.iter().any(|m| tok.is_ident(m)) {
                self.facts.fns[fn_idx].panics.push(PanicSite {
                    kind: PanicKind::Macro,
                    line: tok.span.line,
                    col: tok.span.col,
                });
            } else if ASSERT_MACROS.iter().any(|m| tok.is_ident(m)) {
                self.facts.fns[fn_idx].panics.push(PanicSite {
                    kind: PanicKind::Assert,
                    line: tok.span.line,
                    col: tok.span.col,
                });
            }
            return;
        }

        // `for _ in <chain>` hash-iteration candidates.
        if tok.is_ident("in") {
            self.check_for_iter(fn_idx, idx);
            return;
        }

        // Call sites: the ident must be directly callable.
        let Some(open) = self.call_paren(idx) else {
            self.value_ref(fn_idx, idx);
            return;
        };
        let prev = self.prev_code(idx);
        let prev_tok = prev.map(|p| &self.tokens[p]);

        if prev_tok.is_some_and(|t| t.is_punct('.')) {
            self.method_call(fn_idx, idx, open);
            return;
        }
        if prev_tok.is_some_and(|t| t.is_ident("fn")) {
            return; // definition, already handled
        }
        if EXPR_KEYWORDS.contains(&tok.text.as_str()) {
            return;
        }
        if prev_tok.is_some_and(|t| t.is_punct(':'))
            && prev.and_then(|p| self.prev_code(p)).is_some_and(|q| self.tokens[q].is_punct(':'))
        {
            self.qualified_call(fn_idx, idx);
            return;
        }
        // Bare `foo(..)`.
        let line = tok.span.line;
        let col = tok.span.col;
        let name = tok.text.clone();
        self.push_call(fn_idx, RawCallKind::Direct(name), idx, line, col, open);
    }

    /// The `(` token index when the ident at `idx` is called (handles
    /// `.collect::<T>(..)` turbofish), else `None`.
    fn call_paren(&self, idx: usize) -> Option<usize> {
        let mut n = self.next_code(idx + 1)?;
        // Turbofish: `::<..>` between name and parens.
        if self.tokens[n].is_punct(':') {
            let c2 = self.next_code(n + 1)?;
            if !self.tokens[c2].is_punct(':') {
                return None;
            }
            let lt = self.next_code(c2 + 1)?;
            if !self.tokens[lt].is_punct('<') {
                return None;
            }
            let mut angle = 0i64;
            let mut i = lt;
            while i < self.tokens.len() {
                let t = &self.tokens[i];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') && !self.prev_is_dash(i) {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
                i += 1;
            }
            n = self.next_code(i + 1)?;
        }
        self.tokens[n].is_punct('(').then_some(n)
    }

    /// `.name(..)` — record a method call with its receiver chain.
    fn method_call(&mut self, fn_idx: usize, idx: usize, open: usize) {
        let name = self.tokens[idx].text.clone();
        let line = self.tokens[idx].span.line;
        let col = self.tokens[idx].span.col;

        // Unwrap/expect panic sites ride along.
        if name == "unwrap" || name == "expect" {
            self.facts.fns[fn_idx].panics.push(PanicSite {
                kind: if name == "unwrap" { PanicKind::Unwrap } else { PanicKind::Expect },
                line,
                col,
            });
        }

        // Receiver chain: `a.b.c.name(` → ["a", "b", "c"].
        let chain = self.receiver_chain(idx);
        // `<chain>.iter().map(|x| ..)` binds `x` to the element type.
        if ITER_ADAPTERS.contains(&name.as_str()) {
            if let Some(ch) = &chain {
                self.record_closure_elem(fn_idx, open, ch);
            }
        }
        self.push_call(fn_idx, RawCallKind::Method { name, chain }, idx, line, col, open);
    }

    /// Bind a single-ident closure parameter of an iterator adapter to the
    /// iterated chain's element type: for `results.iter().map(|r| ..)`,
    /// `r` gets the chain `["results", "#elem"]`. Tuple patterns (from
    /// `enumerate`/`zip`) and non-iterator receivers are skipped.
    fn record_closure_elem(&mut self, fn_idx: usize, open: usize, chain: &[String]) {
        let Some((last, head)) = chain.split_last() else { return };
        if !matches!(last.as_str(), "#mcall:iter" | "#mcall:iter_mut" | "#mcall:into_iter") {
            return;
        }
        let Some(bar) = self.next_code(open + 1) else { return };
        if !self.tokens[bar].is_punct('|') {
            return;
        }
        let Some(mut p) = self.next_code(bar + 1) else { return };
        while self.tokens[p].is_punct('&')
            || self.tokens[p].is_ident("mut")
            || self.tokens[p].is_ident("ref")
        {
            match self.next_code(p + 1) {
                Some(n) => p = n,
                None => return,
            }
        }
        if self.tokens[p].kind != TokenKind::Ident {
            return;
        }
        if !self.next_code(p + 1).is_some_and(|c| self.tokens[c].is_punct('|')) {
            return;
        }
        let mut elem: Vec<String> = head.to_vec();
        elem.push("#elem".to_string());
        self.facts.fns[fn_idx].elem_lets.entry(self.tokens[p].text.clone()).or_insert(elem);
    }

    /// Walk back from the method name's dot, collecting the receiver
    /// chain. Plain ident hops are field accesses; method-call hops
    /// contribute `#name` (transparent) or `#mcall:name` markers;
    /// `recv[..]` contributes `#elem`; a call head ends the walk with
    /// `#call:f` / `#qcall:a::b::f`. Receivers the type pipeline cannot
    /// model (`(a + b).x(..)`, literals, …) yield `None`.
    fn receiver_chain(&self, method_idx: usize) -> Option<Vec<String>> {
        let dot = self.prev_code(method_idx)?;
        let mut chain = Vec::new();
        let mut k = self.prev_code(dot)?;
        loop {
            let t = &self.tokens[k];
            if t.is_punct(')') {
                // `<recv>.m(..).name(` — a method-call hop — or a call
                // head (`f(..)`, `a::b::f(..)`) ending the walk.
                let open = self.backward_matching(k, '(', ')')?;
                let m = self.prev_code(open)?;
                if self.tokens[m].kind != TokenKind::Ident {
                    return None;
                }
                let mname = self.tokens[m].text.clone();
                let Some(d) = self.prev_code(m) else {
                    chain.push(format!("#call:{mname}"));
                    break;
                };
                if self.tokens[d].is_punct('.') {
                    chain.push(if TRANSPARENT_METHODS.contains(&mname.as_str()) {
                        format!("#{mname}")
                    } else {
                        format!("#mcall:{mname}")
                    });
                    k = self.prev_code(d)?;
                    continue;
                }
                if self.tokens[d].is_punct(':')
                    && self.prev_code(d).is_some_and(|c| self.tokens[c].is_punct(':'))
                {
                    // Qualified call head: collect the path backwards.
                    let c2 = self.prev_code(d)?;
                    let mut segs = vec![mname];
                    let mut seg = self.prev_code(c2)?;
                    loop {
                        if self.tokens[seg].kind != TokenKind::Ident {
                            return None;
                        }
                        segs.push(self.tokens[seg].text.clone());
                        let Some(p) = self.prev_code(seg) else { break };
                        if !self.tokens[p].is_punct(':') {
                            break;
                        }
                        let p2 = self.prev_code(p)?;
                        if !self.tokens[p2].is_punct(':') {
                            break;
                        }
                        seg = self.prev_code(p2)?;
                    }
                    segs.reverse();
                    chain.push(format!("#qcall:{}", segs.join("::")));
                    break;
                }
                if EXPR_KEYWORDS.contains(&mname.as_str()) {
                    return None;
                }
                chain.push(format!("#call:{mname}"));
                break;
            }
            if t.is_punct(']') {
                // `<recv>[..].name(` — element of the indexed collection.
                let open = self.backward_matching(k, '[', ']')?;
                chain.push("#elem".to_string());
                k = self.prev_code(open)?;
                continue;
            }
            if t.kind != TokenKind::Ident {
                return None;
            }
            chain.push(t.text.clone());
            let Some(p) = self.prev_code(k) else { break };
            if self.tokens[p].is_punct('.') {
                k = self.prev_code(p)?;
            } else {
                break;
            }
        }
        chain.reverse();
        Some(chain)
    }

    /// The `openc` matching the `closec` at `close`, scanning backwards.
    fn backward_matching(&self, close: usize, openc: char, closec: char) -> Option<usize> {
        let mut depth = 0i64;
        let mut j = close;
        loop {
            let t = &self.tokens[j];
            if t.is_punct(closec) {
                depth += 1;
            } else if t.is_punct(openc) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
    }

    /// `a::b::name(..)` — record a qualified-path call.
    fn qualified_call(&mut self, fn_idx: usize, idx: usize) {
        let segs = self.path_segs(idx);
        let line = self.tokens[idx].span.line;
        let col = self.tokens[idx].span.col;
        let Some(open) = self.call_paren(idx) else { return };
        self.push_call(fn_idx, RawCallKind::Qualified(segs), idx, line, col, open);
    }

    /// The path ending at the ident `idx`: `a::b::name` → `["a", "b", "name"]`.
    /// A turbofish's generic arguments are skipped, so `Vec::<T>::new` is
    /// `["Vec", "new"]`.
    fn path_segs(&self, idx: usize) -> Vec<String> {
        let mut segs = vec![self.tokens[idx].text.clone()];
        let mut k = idx;
        while let Some(mut seg) = self.prev_path_sep(k) {
            if self.tokens[seg].is_punct('>') {
                let Some(open) = self.backward_matching(seg, '<', '>') else { break };
                let Some(before) = self.prev_path_sep(open) else { break };
                seg = before;
            }
            let t = &self.tokens[seg];
            if t.kind != TokenKind::Ident {
                break;
            }
            segs.push(t.text.clone());
            k = seg;
        }
        segs.reverse();
        segs
    }

    /// The code token before a `::` that directly precedes `idx`.
    fn prev_path_sep(&self, idx: usize) -> Option<usize> {
        let c1 = self.prev_code(idx).filter(|&c| self.tokens[c].is_punct(':'))?;
        let c2 = self.prev_code(c1).filter(|&c| self.tokens[c].is_punct(':'))?;
        self.prev_code(c2)
    }

    /// A lowercase path that is not called but ends an argument, element
    /// or statement (`.map(Self::f)`, `sort_by(cmp)`): maybe a fn item
    /// named as a value. Locals of the same shape resolve to nothing or,
    /// at worst, over-count a free fn of the same name as reached.
    fn value_ref(&mut self, fn_idx: usize, idx: usize) {
        let tok = &self.tokens[idx];
        if !tok.text.starts_with(|c: char| c.is_lowercase() || c == '_')
            || EXPR_KEYWORDS.contains(&tok.text.as_str())
        {
            return;
        }
        let ends_value = self
            .next_code(idx + 1)
            .is_some_and(|n| [')', ',', ';', ']', '}'].iter().any(|&c| self.tokens[n].is_punct(c)));
        if !ends_value {
            return;
        }
        if self.prev_code(idx).is_some_and(|p| self.tokens[p].is_punct('.')) {
            return; // a field, not an item
        }
        let mut segs = self.path_segs(idx);
        let kind = match segs.len() {
            1 => RawCallKind::Direct(segs.remove(0)),
            _ => RawCallKind::Qualified(segs),
        };
        self.facts.fns[fn_idx].refs.push(kind);
    }

    fn push_call(
        &mut self,
        fn_idx: usize,
        kind: RawCallKind,
        tok: usize,
        line: u32,
        col: u32,
        paren_open: usize,
    ) {
        let held_until = self.guard_extent(tok, paren_open);
        let call = RawCall {
            kind,
            tok,
            line,
            col,
            held_until,
            in_scope_spawn: Self::in_ranges(&self.spawn_extents, tok),
            in_scope: Self::in_ranges(&self.thread_scopes, tok),
        };
        self.facts.fns[fn_idx].calls.push(call);
    }

    /// Token index where a guard value returned by the call at `tok` would
    /// drop: the end of the enclosing block when the result is `let`-bound,
    /// otherwise the end of the statement (next `;`).
    fn guard_extent(&self, tok: usize, paren_open: usize) -> usize {
        // Statement start: scan back to the nearest `;`, `{` or `}`.
        let mut s = tok;
        while s > 0 {
            let t = &self.tokens[s - 1];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            s -= 1;
        }
        let let_bound = self.next_code(s).is_some_and(|i| self.tokens[i].is_ident("let"));
        if let_bound {
            // Enclosing block: innermost `{` whose extent covers `tok`.
            let mut best: Option<usize> = None;
            let mut depth_opens: Vec<usize> = Vec::new();
            for (i, t) in self.tokens.iter().enumerate() {
                if i > tok {
                    break;
                }
                if t.is_punct('{') {
                    depth_opens.push(i);
                } else if t.is_punct('}') {
                    depth_opens.pop();
                }
            }
            if let Some(&open) = depth_opens.last() {
                best = syn::matching_close(self.tokens, open);
            }
            return best.unwrap_or(self.tokens.len().saturating_sub(1));
        }
        // Temporary: dies at the end of the statement.
        let close = scan::matching(self.tokens, paren_open, '(', ')').unwrap_or(paren_open);
        (close..self.tokens.len())
            .find(|&i| self.tokens[i].is_punct(';'))
            .unwrap_or(self.tokens.len().saturating_sub(1))
    }

    /// `x[..]`-style index sites that can panic.
    fn check_index_site(&mut self, fn_idx: usize, idx: usize) {
        let Some(p) = self.prev_code(idx) else { return };
        let t = &self.tokens[p];
        let indexable = (t.kind == TokenKind::Ident && !EXPR_KEYWORDS.contains(&t.text.as_str()))
            || t.is_punct(')')
            || t.is_punct(']')
            || t.is_punct('?');
        if !indexable {
            return;
        }
        // `x[..]` (full range) never panics.
        let Some(close) = scan::matching(self.tokens, idx, '[', ']') else { return };
        let inner: Vec<&Token> =
            self.tokens[idx + 1..close].iter().filter(|t| !t.is_comment()).collect();
        if inner.len() == 2 && inner.iter().all(|t| t.is_punct('.')) {
            return;
        }
        if inner.is_empty() {
            return;
        }
        let span = self.tokens[idx].span;
        self.facts.fns[fn_idx].panics.push(PanicSite {
            kind: PanicKind::Index,
            line: span.line,
            col: span.col,
        });
    }

    /// `for _ in <chain>` — record the iterated receiver chain.
    fn check_for_iter(&mut self, fn_idx: usize, idx: usize) {
        // Only `for .. in` loops; `in` also appears nowhere else as a
        // keyword in expression position.
        let Some(mut k) = self.next_code(idx + 1) else { return };
        // Skip leading `&` / `mut`.
        while self.tokens[k].is_punct('&') || self.tokens[k].is_ident("mut") {
            match self.next_code(k + 1) {
                Some(n) => k = n,
                None => return,
            }
        }
        if self.tokens[k].kind != TokenKind::Ident {
            return;
        }
        let mut chain = vec![self.tokens[k].text.clone()];
        let line = self.tokens[k].span.line;
        let mut stopped_at_call = false;
        while let Some(d) = self.next_code(k + 1) {
            if !self.tokens[d].is_punct('.') {
                break;
            }
            let Some(f) = self.next_code(d + 1) else { break };
            if self.tokens[f].kind != TokenKind::Ident {
                break;
            }
            // Stop at a method call — that is a Method site, not a field.
            if self.next_code(f + 1).is_some_and(|n| self.tokens[n].is_punct('(')) {
                // `.iter()`-family still iterates the chain's elements.
                stopped_at_call =
                    !["iter", "iter_mut", "into_iter"].contains(&self.tokens[f].text.as_str());
                break;
            }
            chain.push(self.tokens[f].text.clone());
            k = f;
        }
        // `for x in [&[mut]] <chain>` binds `x` to the element type.
        if !stopped_at_call {
            if let Some(b) = self.prev_code(idx) {
                let bind = &self.tokens[b];
                if bind.kind == TokenKind::Ident
                    && self.prev_code(b).is_some_and(|f| self.tokens[f].is_ident("for"))
                {
                    let mut elem = chain.clone();
                    elem.push("#elem".to_string());
                    self.facts.fns[fn_idx].elem_lets.entry(bind.text.clone()).or_insert(elem);
                }
            }
        }
        self.facts.fns[fn_idx].for_iters.push(RawForIter { chain, line });
    }

    /// Is token `idx` followed by `::segment`?
    fn path_segment_is(&self, idx: usize, segment: &str) -> bool {
        self.tok(idx + 1).is_some_and(|t| t.is_punct(':'))
            && self.tok(idx + 2).is_some_and(|t| t.is_punct(':'))
            && self.tok(idx + 3).is_some_and(|t| t.is_ident(segment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        let file = syn::parse_file(src).expect("lex");
        extract_file("crates/demo/src/lib.rs", &file.tokens).0
    }

    #[test]
    fn fn_defs_with_modules_and_impls() {
        let f = facts(
            "pub fn top() {}\n\
             mod inner {\n    fn hidden() {}\n}\n\
             struct S { x: u32 }\n\
             impl S {\n    pub fn method(&self) {}\n}\n\
             impl std::fmt::Display for S {\n    fn fmt(&self) {}\n}\n",
        );
        let names: Vec<(String, Vec<String>, Option<String>)> = f
            .fns
            .iter()
            .map(|r| (r.name.clone(), r.modpath.clone(), r.impl_ctx.as_ref().map(|c| c.ty.clone())))
            .collect();
        assert_eq!(names[0], ("top".into(), vec![], None));
        assert!(f.fns[0].public);
        assert_eq!(names[1], ("hidden".into(), vec!["inner".into()], None));
        assert!(!f.fns[1].public);
        assert_eq!(names[2], ("method".into(), vec![], Some("S".into())));
        assert_eq!(names[3], ("fmt".into(), vec![], Some("S".into())));
        assert_eq!(f.fns[3].impl_ctx.as_ref().unwrap().trait_name.as_deref(), Some("Display"));
        assert_eq!(f.fns[2].locals.get("self").map(String::as_str), Some("S"));
    }

    #[test]
    fn call_kinds_and_receiver_chains() {
        let f = facts(
            "fn f(s: Store) {\n    helper();\n    s.catalog.push(1);\n    Wan::contract(2);\n    a::b::c();\n    x().chained();\n}\n",
        );
        let calls = &f.fns[0].calls;
        assert!(matches!(&calls[0].kind, RawCallKind::Direct(n) if n == "helper"));
        assert!(matches!(
            &calls[1].kind,
            RawCallKind::Method { name, chain: Some(c) } if name == "push" && c == &vec!["s".to_string(), "catalog".to_string()]
        ));
        assert!(
            matches!(&calls[2].kind, RawCallKind::Qualified(p) if p == &vec!["Wan".to_string(), "contract".to_string()])
        );
        assert!(matches!(&calls[3].kind, RawCallKind::Qualified(p) if p.len() == 3));
        assert!(matches!(&calls[4].kind, RawCallKind::Direct(n) if n == "x"));
        assert!(matches!(
            &calls[5].kind,
            RawCallKind::Method { chain: Some(c), .. } if c == &vec!["#call:x".to_string()]
        ));
    }

    #[test]
    fn panic_sites_with_spans() {
        let f = facts(
            "fn f(v: Vec<u32>, o: Option<u8>) -> u32 {\n    let a = v[0];\n    o.unwrap();\n    o.expect(\"x\");\n    assert!(a > 0);\n    panic!(\"boom\")\n}\n",
        );
        let kinds: Vec<PanicKind> = f.fns[0].panics.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PanicKind::Index,
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::Assert,
                PanicKind::Macro
            ]
        );
        assert_eq!(f.fns[0].panics[0].line, 2);
    }

    #[test]
    fn full_range_index_does_not_panic() {
        let f = facts("fn f(v: &[u8]) -> &[u8] { &v[..] }\nfn g(v: &[u8]) -> &[u8] { &v[1..] }\n");
        assert!(f.fns[0].panics.is_empty());
        assert_eq!(f.fns[1].panics.len(), 1);
    }

    #[test]
    fn sources_and_for_iters() {
        let f = facts(
            "fn f(m: HashMap<u32, u32>) {\n    let t = Instant::now();\n    let r = thread_rng();\n    for (k, v) in &m { let _ = (k, v); }\n}\n",
        );
        let kinds: Vec<RawSourceKind> = f.fns[0].sources.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![RawSourceKind::WallClock, RawSourceKind::UnseededRng]);
        assert_eq!(f.fns[0].for_iters.len(), 1);
        assert_eq!(f.fns[0].for_iters[0].chain, vec!["m".to_string()]);
        assert_eq!(f.fns[0].locals.get("m").map(String::as_str), Some("HashMap<u32,u32>"));
    }

    #[test]
    fn struct_fields_and_statics_record_types() {
        let f = facts(
            "struct Obs {\n    pub tracer: Mutex<TracerState>,\n    count: u64,\n}\n\
             static GLOBAL: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n",
        );
        let obs = f.structs.get("Obs").expect("struct recorded");
        assert_eq!(obs.fields.get("tracer").map(String::as_str), Some("Mutex<TracerState>"));
        assert_eq!(f.statics.get("GLOBAL").map(String::as_str), Some("Mutex<Vec<u32>>"));
    }

    #[test]
    fn test_code_is_fully_excluded() {
        let f = facts(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { lived(); }\n    #[test]\n    fn t() { live(); }\n}\n",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "live");
    }

    #[test]
    fn scope_and_spawn_flags() {
        let f = facts(
            "fn par(results: Mutex<Vec<u32>>) {\n    std::thread::scope(|s| {\n        s.spawn(|| { results.lock().push(compute()); });\n    });\n    after();\n}\n",
        );
        let calls = &f.fns[0].calls;
        assert!(f.fns[0].has_scope);
        let push = calls
            .iter()
            .find(|c| matches!(&c.kind, RawCallKind::Method { name, .. } if name == "push"))
            .expect("push call");
        assert!(push.in_scope_spawn);
        let after = calls
            .iter()
            .find(|c| matches!(&c.kind, RawCallKind::Direct(n) if n == "after"))
            .expect("after call");
        assert!(!after.in_scope && !after.in_scope_spawn);
    }

    #[test]
    fn let_bound_guard_extends_to_block_end() {
        let f = facts(
            "fn f(m: Mutex<u32>) {\n    let g = m.lock();\n    use_it(g);\n    m.lock().checked_add(1);\n    done();\n}\n",
        );
        let locks: Vec<&RawCall> = f.fns[0]
            .calls
            .iter()
            .filter(|c| matches!(&c.kind, RawCallKind::Method { name, .. } if name == "lock"))
            .collect();
        assert_eq!(locks.len(), 2);
        // First lock is let-bound: guard lives past the `use_it` call.
        let use_it = f.fns[0]
            .calls
            .iter()
            .find(|c| matches!(&c.kind, RawCallKind::Direct(n) if n == "use_it"))
            .unwrap();
        assert!(locks[0].held_until > use_it.tok);
        // Second lock is a temporary: guard dies before `done()`.
        let done = f.fns[0]
            .calls
            .iter()
            .find(|c| matches!(&c.kind, RawCallKind::Direct(n) if n == "done"))
            .unwrap();
        assert!(locks[1].held_until < done.tok);
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let f =
            facts("fn f(v: Vec<u32>) { let s = v.iter().collect::<Vec<_>>(); helper::<u32>(); }");
        let has_collect = f.fns[0]
            .calls
            .iter()
            .any(|c| matches!(&c.kind, RawCallKind::Method { name, .. } if name == "collect"));
        assert!(has_collect);
    }
}
