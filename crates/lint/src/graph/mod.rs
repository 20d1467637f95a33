//! Workspace call graph: per-file facts resolved into one typed graph.
//!
//! The builder consumes [`extract::FileFacts`] from every production
//! source file and resolves call sites to workspace function nodes:
//!
//! - **direct calls** resolve through free-function indexes, preferring
//!   the caller's own module, then its crate, then a unique global match;
//! - **qualified calls** (`a::b::f`, `Type::f`, `Self::f`, `smn_x::m::f`)
//!   use the path segments as crate/module/type hints;
//! - **method calls** resolve by receiver type when the receiver chain is
//!   typeable from params, `let` bindings, struct fields, and statics; an
//!   untypeable receiver falls back to a unique-name match unless the name
//!   is a ubiquitous std method.
//!
//! Anything that matches *no* workspace function is counted as external
//! (std / vendored). Anything that matches *more than one* candidate after
//! the preference filters lands in the **unresolved bucket**, which is
//! serialized and reported (`deep/unresolved-call`) rather than silently
//! dropped — the graph is honest about its own blind spots.
//!
//! The graph also finalizes receiver-dependent determinism sources
//! (hash-map iteration, channel receives, lock acquisitions inside
//! `thread::scope`) now that receiver types are known, and carries the
//! ordered lock events [`crate::locks`] consumes.

pub mod extract;

use std::collections::BTreeMap;

use serde::Deserialize;
use serde_json::Value;
use smn_topology::artifact::Violation;
use smn_topology::path;

use crate::config::{self, Config};
use crate::diag::Diagnostic;
use crate::source::{Allow, AllowIssueKind};
use extract::{FileFacts, ImplCtx, PanicSite, RawCallKind, RawFn, RawSourceKind};

/// Method names whose call iterates the receiver.
const HASH_ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "retain"];

/// Method names that receive from a channel (arrival order).
const CHANNEL_METHODS: &[&str] = &["recv", "try_recv", "recv_timeout"];

/// Method names that acquire a lock guard.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Method names too ubiquitous in std to unique-resolve on an untypeable
/// receiver — a single workspace `len` must not capture every `x.len()`.
const COMMON_STD_METHODS: &[&str] = &[
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "collect",
    "fold",
    "sum",
    "min",
    "max",
    "sort",
    "sort_by",
    "sort_by_key",
    "unwrap",
    "unwrap_or",
    "expect",
    "to_string",
    "to_owned",
    "as_str",
    "as_ref",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "default",
    "extend",
    "join",
    "split",
    "trim",
    "parse",
    "abs",
    "clamp",
    "new",
    "with_capacity",
    "entry",
    "or_insert",
    "or_default",
    "take",
    "replace",
    "send",
    "write",
    "read",
    "lock",
    "flush",
    "count",
    "any",
    "all",
    "find",
    "position",
    "rev",
    "zip",
    "chain",
    "enumerate",
    "last",
    "first",
    "starts_with",
    "ends_with",
];

/// Wrapper types peeled off before classifying a receiver type.
const WRAPPERS: &[&str] = &["Arc", "Rc", "Box", "RefCell", "Cell", "Option"];

/// One determinism-taint source attached to a node.
#[derive(Debug, Clone)]
pub struct SourceSite {
    /// Stable family id: `wall-clock`, `unseeded-rng`, `hash-iter`,
    /// `channel-order`, `lock-order`.
    pub kind: &'static str,
    /// What was seen, human-readable (`Instant::now`, `self.gauges.iter()`).
    pub what: String,
    /// 1-based line.
    pub line: u32,
}

/// One lock acquisition inside a function body, in token order.
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// Stable lock identity: `Type.field`, `fn-id::local`, or
    /// `crate::STATIC`.
    pub lock: String,
    /// `lock`, `read`, or `write`.
    pub op: String,
    /// 1-based line.
    pub line: u32,
    /// Token index of the acquisition (orders events within the body).
    pub tok: usize,
    /// Token index after which the guard has dropped.
    pub held_until: usize,
    /// Acquired inside a `thread::scope` extent.
    pub in_scope: bool,
    /// Acquired inside a `spawn(..)` closure inside a `thread::scope`.
    pub in_scope_spawn: bool,
}

/// A call edge resolved to a workspace node.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Caller node index.
    pub caller: usize,
    /// Callee node index.
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// Token index of the call site (orders calls vs lock events).
    pub tok: usize,
}

/// A call site that matched several workspace candidates.
#[derive(Debug, Clone)]
pub struct Unresolved {
    /// Caller node index.
    pub caller: usize,
    /// Callee name as written.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Candidate node indexes (sorted).
    pub candidates: Vec<usize>,
}

/// A mutation call executed while holding a scoped-spawn lock guard
/// (order-sensitive result collection).
#[derive(Debug, Clone)]
pub struct ScopeMutation {
    /// Node index the site lives in.
    pub node: usize,
    /// The mutating method name (`push`, `insert`, `extend`).
    pub method: String,
    /// The lock whose guard is held.
    pub lock: String,
    /// 1-based line of the mutation.
    pub line: u32,
    /// 1-based column of the mutation.
    pub col: u32,
}

/// One function in the workspace call graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Canonical id, e.g. `obs::Hub::record` or `te::solver::route`.
    pub id: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the definition.
    pub line: u32,
    /// Crate (workspace directory name, e.g. `core`).
    pub krate: String,
    /// Bare `pub` visibility.
    pub public: bool,
    /// Defined in a file on a configured deterministic path.
    pub det: bool,
    /// Defined in a file where the panic rules apply (library code).
    pub lib: bool,
    /// Defined in an `impl Trait for Type` block: derives, std generics and
    /// formatting can call it where the graph cannot see.
    pub trait_impl: bool,
    /// Local potential-panic sites.
    pub panics: Vec<PanicSite>,
    /// Local determinism-taint sources (finalized, receiver-typed).
    pub sources: Vec<SourceSite>,
    /// Ordered lock acquisitions.
    pub locks: Vec<LockEvent>,
    /// Body contains a `thread::scope`.
    pub has_scope: bool,
}

/// The resolved workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Nodes sorted by id.
    pub nodes: Vec<Node>,
    /// Edges sorted by (caller, callee, line).
    pub edges: Vec<CallEdge>,
    /// Ambiguous call sites, sorted by (caller, line, name).
    pub unresolved: Vec<Unresolved>,
    /// Count of call sites that matched no workspace function.
    pub n_external: usize,
    /// Order-sensitive mutations under scoped locks.
    pub scope_mutations: Vec<ScopeMutation>,
    /// `(referrer, target)` pairs, sorted and unique, that are not call
    /// edges but may still run the target: fn items named as values, and
    /// methods named like the std method an untypeable receiver calls.
    /// Only the unused-public report reads them.
    pub refs: Vec<(usize, usize)>,
    /// Per-file allow annotations (file → validated allows).
    pub allows: BTreeMap<String, Vec<Allow>>,
    /// Findings about the files themselves: sources that did not lex
    /// (`source/unparsed`) and broken allow annotations (`annotation/*`).
    pub file_findings: Vec<Diagnostic>,
}

impl CallGraph {
    /// Forward adjacency: for each node, sorted unique `(callee, line)`
    /// pairs (line = first call site).
    #[must_use]
    pub fn out_adjacency(&self) -> Vec<Vec<(usize, u32)>> {
        let mut adj: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if let Some(row) = adj.get_mut(e.caller) {
                row.push((e.callee, e.line));
            }
        }
        for row in &mut adj {
            row.sort_unstable();
            row.dedup_by_key(|p| p.0);
        }
        adj
    }

    /// Reverse adjacency: for each node, sorted unique caller indexes.
    #[must_use]
    pub fn in_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if let Some(row) = adj.get_mut(e.callee) {
                row.push(e.caller);
            }
        }
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
        }
        adj
    }

    /// True when `rule` is waived at `file:line` by a validated allow.
    #[must_use]
    pub fn waived(&self, file: &str, rule: &str, line: u32) -> bool {
        self.allows.get(file).is_some_and(|a| crate::source::allowed(a, rule, line))
    }

    /// Canonical JSON: fully sorted, pretty-printed, byte-stable for a
    /// given source tree. This is what `--callgraph-out` writes and what
    /// the artifact engine's `callgraph` kind validates.
    #[must_use]
    pub fn to_canonical_json(&self) -> String {
        let num = |n: usize| Value::U64(n as u64);
        let mut functions = Vec::new();
        for n in &self.nodes {
            let sources: Vec<Value> = n
                .sources
                .iter()
                .map(|s| Value::Str(format!("{}:{}@{}", s.kind, s.what, s.line)))
                .collect();
            functions.push(Value::Map(vec![
                ("id".to_string(), Value::Str(n.id.clone())),
                ("file".to_string(), Value::Str(n.file.clone())),
                ("line".to_string(), Value::U64(u64::from(n.line))),
                ("crate".to_string(), Value::Str(n.krate.clone())),
                ("public".to_string(), Value::Bool(n.public)),
                ("det".to_string(), Value::Bool(n.det)),
                ("lib".to_string(), Value::Bool(n.lib)),
                ("panic_sites".to_string(), num(n.panics.len())),
                ("sources".to_string(), Value::Seq(sources)),
            ]));
        }
        let edges: Vec<Value> = self
            .edges
            .iter()
            .map(|e| Value::Seq(vec![num(e.caller), num(e.callee), Value::U64(u64::from(e.line))]))
            .collect();
        let unresolved: Vec<Value> = self
            .unresolved
            .iter()
            .map(|u| {
                Value::Map(vec![
                    ("caller".to_string(), num(u.caller)),
                    ("name".to_string(), Value::Str(u.name.clone())),
                    ("line".to_string(), Value::U64(u64::from(u.line))),
                    (
                        "candidates".to_string(),
                        Value::Seq(u.candidates.iter().map(|&c| num(c)).collect()),
                    ),
                ])
            })
            .collect();
        let counts = Value::Map(vec![
            ("functions".to_string(), num(self.nodes.len())),
            ("edges".to_string(), num(self.edges.len())),
            ("unresolved".to_string(), num(self.unresolved.len())),
            ("external".to_string(), num(self.n_external)),
        ]);
        let root = Value::Map(vec![
            ("kind".to_string(), Value::Str("callgraph".to_string())),
            ("schema".to_string(), Value::U64(1)),
            ("functions".to_string(), Value::Seq(functions)),
            ("edges".to_string(), Value::Seq(edges)),
            ("unresolved".to_string(), Value::Seq(unresolved)),
            ("counts".to_string(), counts),
        ]);
        let mut out = serde_json::to_string_pretty(&root).unwrap_or_default();
        out.push('\n');
        out
    }
}

/// The canonical call-graph artifact as read back from JSON: the fields
/// its invariants constrain. Unknown fields (file, line, sources, …) are
/// ignored.
#[derive(Deserialize)]
pub(crate) struct CallGraphArtifact {
    /// Schema version; only 1 is supported.
    schema: u64,
    /// Function nodes, sorted by id.
    functions: Vec<FunctionRef>,
    /// `(caller, callee, line)` triples, sorted.
    edges: Vec<(u64, u64, u64)>,
    /// Ambiguous call sites, sorted by `(caller, line, name)`.
    unresolved: Vec<UnresolvedRef>,
    /// Tallies of the arrays above, plus the external-call count.
    counts: Option<CallGraphCounts>,
}

/// A function node's identity.
#[derive(Deserialize)]
struct FunctionRef {
    /// Qualified id, e.g. `core::SmnController::tick`.
    id: String,
}

/// An unresolved call site.
#[derive(Deserialize)]
struct UnresolvedRef {
    /// Calling function's index.
    caller: u64,
    /// Called name.
    name: String,
    /// Source line.
    line: u64,
    /// Indices of the candidate callees.
    candidates: Vec<u64>,
}

/// The `counts` block.
#[derive(Deserialize)]
struct CallGraphCounts {
    /// Function count.
    functions: Option<u64>,
    /// Edge count.
    edges: Option<u64>,
    /// Unresolved-site count.
    unresolved: Option<u64>,
    /// Calls that resolved outside the workspace.
    external: Option<u64>,
}

impl CallGraphArtifact {
    /// What [`CallGraph::to_canonical_json`] guarantees: schema 1; functions
    /// strictly sorted by id, edges by `(caller, callee, line)` and
    /// unresolved sites by `(caller, line, name)` (sorted output is the
    /// byte-stability contract); every node index inside the function
    /// array; and a `counts` block that agrees with the arrays.
    #[must_use]
    pub(crate) fn violations(&self) -> Vec<Violation> {
        if self.schema != 1 {
            let message =
                format!("callgraph schema {} is not the supported version 1", self.schema);
            return vec![Violation::new("artifact/unreadable", path!["schema"], message, "")];
        }
        let mut out = Vec::new();
        let n = self.functions.len() as u64;
        for (i, f) in self.functions.iter().enumerate() {
            let Some(prev) = i.checked_sub(1).and_then(|p| self.functions.get(p)) else { continue };
            let (prev, id) = (prev.id.as_str(), f.id.as_str());
            if prev == id {
                out.push(Violation::new(
                    "artifact/duplicate-id",
                    path!["functions", i, "id"],
                    format!("duplicate function id `{id}`"),
                    "node ids key edges and candidates; the builder suffixes collisions",
                ));
            } else if prev > id {
                out.push(Violation::new(
                    "artifact/callgraph-order",
                    path!["functions", i],
                    format!("function `{id}` sorts before its predecessor `{prev}`"),
                    "the canonical writer sorts functions by id; order is the byte-stability contract",
                ));
            }
        }
        for (i, &(caller, callee, line)) in self.edges.iter().enumerate() {
            for (role, idx) in [("caller", caller), ("callee", callee)] {
                if idx >= n {
                    out.push(Violation::new(
                        "artifact/callgraph-ref",
                        path!["edges", i],
                        format!("edge {i} {role} {idx} is out of range ({n} function(s))"),
                        "",
                    ));
                }
            }
            let prev = i.checked_sub(1).and_then(|p| self.edges.get(p));
            if prev.is_some_and(|&prev| prev > (caller, callee, line)) {
                out.push(Violation::new(
                    "artifact/callgraph-order",
                    path!["edges", i],
                    format!("edge {i} breaks (caller, callee, line) order"),
                    "the canonical writer sorts edges; order is the byte-stability contract",
                ));
            }
        }
        for (i, u) in self.unresolved.iter().enumerate() {
            if u.caller >= n {
                out.push(Violation::new(
                    "artifact/callgraph-ref",
                    path!["unresolved", i, "caller"],
                    format!(
                        "unresolved site {i} caller {} is out of range ({n} function(s))",
                        u.caller
                    ),
                    "",
                ));
            }
            for (j, &cand) in u.candidates.iter().enumerate().filter(|&(_, &c)| c >= n) {
                out.push(Violation::new(
                    "artifact/callgraph-ref",
                    path!["unresolved", i, "candidates", j],
                    format!(
                        "unresolved site {i} candidate {cand} is out of range ({n} function(s))"
                    ),
                    "",
                ));
            }
            let key = |u: &UnresolvedRef| (u.caller, u.line, u.name.clone());
            let prev = i.checked_sub(1).and_then(|p| self.unresolved.get(p));
            if prev.is_some_and(|prev| key(prev) > key(u)) {
                out.push(Violation::new(
                    "artifact/callgraph-order",
                    path!["unresolved", i],
                    format!("unresolved site {i} breaks (caller, line, name) order"),
                    "the canonical writer sorts unresolved sites; order is the byte-stability contract",
                ));
            }
        }
        let Some(counts) = &self.counts else {
            out.push(Violation::new(
                "artifact/unreadable",
                vec![],
                "callgraph lacks a `counts` block",
                "",
            ));
            return out;
        };
        for (key, declared, actual) in [
            ("functions", counts.functions, self.functions.len()),
            ("edges", counts.edges, self.edges.len()),
            ("unresolved", counts.unresolved, self.unresolved.len()),
        ] {
            match declared {
                Some(declared) if declared != actual as u64 => out.push(Violation::new(
                    "artifact/callgraph-count",
                    path!["counts", key],
                    format!("counts.{key} declares {declared}, but the array holds {actual}"),
                    "the counts block summarizes the arrays and must agree with them",
                )),
                None => out.push(Violation::new(
                    "artifact/callgraph-count",
                    path!["counts"],
                    format!("counts lacks an integer `{key}`"),
                    "",
                )),
                Some(_) => {}
            }
        }
        if counts.external.is_none() {
            out.push(Violation::new(
                "artifact/callgraph-count",
                path!["counts"],
                "counts lacks an integer `external`",
                "the external tally has no backing array; it is still part of the contract",
            ));
        }
        out
    }
}

/// Rule id for a source file the pass could not read or lex.
pub const UNPARSED_RULE: &str = "source/unparsed";

/// Build the workspace call graph from `(path, source)` pairs. A file
/// that fails to lex, and each broken allow annotation, becomes one of
/// the graph's [`CallGraph::file_findings`].
#[must_use]
pub fn build(files: &[(String, String)], cfg: &Config) -> CallGraph {
    let mut facts: Vec<FileFacts> = Vec::new();
    let mut file_findings = Vec::new();
    for (path, src) in files {
        if !path.ends_with(".rs") || !cfg.scanned(path) {
            continue;
        }
        if path.contains("/tests/") || path.starts_with("tests/") || path.contains("/benches/") {
            continue;
        }
        let file = match syn::parse_file(src) {
            Ok(file) => file,
            Err(e) => {
                let level = config::level(UNPARSED_RULE);
                file_findings.push(
                    Diagnostic::new(UNPARSED_RULE, level, path, e.span.line, e.span.col, e.message)
                        .with_note("the deep pass could not see this file"),
                );
                continue;
            }
        };
        let (f, issues) = extract::extract_file(path, &file.tokens);
        for issue in issues {
            let (rule, note) = match issue.kind {
                AllowIssueKind::MissingReason => (
                    "annotation/missing-reason",
                    "append `-- <why this waiver is sound>` so the exemption stays auditable",
                ),
                AllowIssueKind::UnknownRule => ("annotation/unknown-rule", ""),
            };
            let d = Diagnostic::new(
                rule,
                config::level(rule),
                path,
                issue.line,
                issue.col,
                issue.message,
            );
            file_findings.push(if note.is_empty() { d } else { d.with_note(note) });
        }
        facts.push(f);
    }
    let mut g = Builder::new(facts, cfg).build();
    g.file_findings = file_findings;
    g
}

/// Crate directory name for a workspace-relative path
/// (`crates/core/src/lib.rs` → `core`).
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        (Some(first), _) => first.to_string(),
        _ => String::new(),
    }
}

/// File-level module path (`src/foo/bar.rs` → `["foo", "bar"]`).
fn file_modpath(path: &str) -> Vec<String> {
    let Some(after) = path.split_once("/src/").map(|(_, a)| a) else {
        return Vec::new();
    };
    let stem = after.strip_suffix(".rs").unwrap_or(after);
    let mut segs: Vec<String> = stem.split('/').map(str::to_string).collect();
    if segs.last().is_some_and(|s| s == "lib" || s == "mod") {
        segs.pop();
    }
    segs
}

/// Strip wrappers and path prefixes from a normalized type text down to
/// its base name: `Arc<Mutex<Vec<u32>>>` → `Mutex`... no — one wrapper
/// level at a time; see [`peel`].
fn base_name(ty: &str) -> &str {
    let head = ty.split('<').next().unwrap_or(ty);
    let head = head.rsplit("::").next().unwrap_or(head);
    head.trim_start_matches("dyn")
}

/// Peel one wrapper layer: `Arc<Mutex<T>>` → `Mutex<T>`; non-wrappers
/// return unchanged.
fn peel(ty: &str) -> &str {
    let base = base_name(ty);
    if !WRAPPERS.contains(&base) {
        return ty;
    }
    let Some(open) = ty.find('<') else { return ty };
    let inner = &ty[open + 1..];
    inner.strip_suffix('>').unwrap_or(inner)
}

/// Fully peel wrappers: `Arc<RwLock<HashMap<..>>>` → `RwLock<HashMap<..>>`
/// stops at the first non-wrapper.
fn peel_all(ty: &str) -> &str {
    let mut cur = ty;
    loop {
        let next = peel(cur);
        if next == cur {
            return cur;
        }
        cur = next;
    }
}

/// First top-level generic argument: `Mutex<Vec<u32>>` → `Vec<u32>`,
/// `Result<T, E>` → `T`.
fn generic_arg(ty: &str) -> Option<&str> {
    generic_args(ty).into_iter().next()
}

/// All top-level generic arguments: `HashMap<K, V>` → `["K", "V"]`.
fn generic_args(ty: &str) -> Vec<&str> {
    let Some(open) = ty.find('<') else { return Vec::new() };
    let Some(inner) = ty[open + 1..].strip_suffix('>') else { return Vec::new() };
    let mut args = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                args.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    args.push(&inner[start..]);
    args
}

/// Strip the reference prefix a generic argument may carry in normalized
/// type text: `&SeasonalModel` → `SeasonalModel`, `&mutFoo` → `Foo`.
fn strip_ref(ty: &str) -> &str {
    let t = ty.trim_start_matches('&');
    t.strip_prefix("mut")
        .filter(|rest| rest.chars().next().is_some_and(char::is_uppercase))
        .unwrap_or(t)
}

/// Apply a `#method` chain marker to a receiver type: `#lock`/`#read`/
/// `#write` unwrap a `Mutex`/`RwLock` payload, `#unwrap`/`#expect` a
/// `Result` (wrapper peeling already handles `Option`), `#elem` a
/// collection's element type, `#get` a map's value type; the remaining
/// transparent methods preserve the type. `None` when the transform does
/// not apply.
fn apply_marker(ty: &str, marker: &str) -> Option<String> {
    let t = peel_all(ty);
    let arg = |a: Option<&str>| a.map(|a| strip_ref(a).to_string());
    match marker {
        "#lock" | "#read" | "#write" => match base_name(t) {
            "Mutex" | "RwLock" => arg(generic_arg(t)),
            _ => None,
        },
        "#unwrap" | "#expect" => match base_name(t) {
            "Result" => arg(generic_arg(t)),
            _ => Some(t.to_string()),
        },
        "#elem" => {
            if let Some(inner) = t.strip_prefix('[') {
                let end = inner.find([';', ']']).unwrap_or(inner.len());
                return Some(strip_ref(&inner[..end]).to_string());
            }
            match base_name(t) {
                "Vec" | "VecDeque" | "BTreeSet" | "BinaryHeap" => arg(generic_arg(t)),
                _ => None,
            }
        }
        "#get" => match base_name(t) {
            "HashMap" | "BTreeMap" => arg(generic_args(t).get(1).copied()),
            "Vec" | "VecDeque" => arg(generic_arg(t)),
            _ => None,
        },
        _ => Some(t.to_string()),
    }
}

fn is_lock_type(ty: &str) -> Option<&'static str> {
    match base_name(peel_all(ty)) {
        "Mutex" => Some("lock"),
        "RwLock" => Some("rwlock"),
        _ => None,
    }
}

fn is_hash_type(ty: &str) -> bool {
    matches!(base_name(peel_all(ty)), "HashMap" | "HashSet")
}

/// Per-crate field tables for one struct name: `(crate, field → type)`.
type StructFields = Vec<(String, BTreeMap<String, String>)>;

struct Builder<'c> {
    facts: Vec<FileFacts>,
    cfg: &'c Config,
    /// Struct name → (crate, fields); later duplicates kept per crate.
    structs: BTreeMap<String, StructFields>,
    /// Static name → (crate, type).
    statics: BTreeMap<String, Vec<(String, String)>>,
    /// (fact index, fn index) in deterministic order → node index.
    node_of: BTreeMap<(usize, usize), usize>,
    nodes: Vec<Node>,
    /// Free functions: name → node indexes.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods: (type, name) → node indexes.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// Methods by bare name → node indexes.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Node index → (fact index, fn index) for body resolution.
    origin: Vec<(usize, usize)>,
}

impl<'c> Builder<'c> {
    fn new(facts: Vec<FileFacts>, cfg: &'c Config) -> Self {
        Self {
            facts,
            cfg,
            structs: BTreeMap::new(),
            statics: BTreeMap::new(),
            node_of: BTreeMap::new(),
            nodes: Vec::new(),
            free_by_name: BTreeMap::new(),
            methods: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            origin: Vec::new(),
        }
    }

    fn build(mut self) -> CallGraph {
        self.index_types();
        self.create_nodes();
        self.index_fns();
        let (edges, unresolved, n_external, scope_mutations) = self.resolve_bodies();
        let refs = self.resolve_refs();
        let mut allows = BTreeMap::new();
        for f in &self.facts {
            allows.insert(f.path.clone(), f.allows.clone());
        }
        let mut g = CallGraph {
            nodes: self.nodes,
            edges,
            unresolved,
            n_external,
            scope_mutations,
            refs,
            allows,
            file_findings: Vec::new(),
        };
        g.edges.sort_by_key(|e| (e.caller, e.callee, e.line, e.tok));
        g.unresolved.sort_by(|a, b| (a.caller, a.line, &a.name).cmp(&(b.caller, b.line, &b.name)));
        g.scope_mutations.sort_by(|a, b| {
            (a.node, a.line, a.col, &a.method).cmp(&(b.node, b.line, b.col, &b.method))
        });
        g
    }

    fn index_types(&mut self) {
        for f in &self.facts {
            let krate = crate_of(&f.path);
            for (name, st) in &f.structs {
                self.structs
                    .entry(name.clone())
                    .or_default()
                    .push((krate.clone(), st.fields.clone()));
            }
            for (name, ty) in &f.statics {
                self.statics.entry(name.clone()).or_default().push((krate.clone(), ty.clone()));
            }
        }
    }

    /// Create one node per extracted fn, in sorted-id order with
    /// deterministic `#N` suffixes for collisions.
    fn create_nodes(&mut self) {
        // Gather (id, fact, fn) triples, sort by (id, file, line) so the
        // suffixing is deterministic, then materialize.
        let mut triples: Vec<(String, usize, usize)> = Vec::new();
        for (fi, f) in self.facts.iter().enumerate() {
            let krate = crate_of(&f.path);
            let fmod = file_modpath(&f.path);
            for (ri, r) in f.fns.iter().enumerate() {
                let mut segs = vec![krate.clone()];
                segs.extend(fmod.iter().cloned());
                segs.extend(r.modpath.iter().cloned());
                if let Some(ctx) = &r.impl_ctx {
                    match &ctx.trait_name {
                        Some(tr) => segs.push(format!("<{} as {}>", ctx.ty, tr)),
                        None => segs.push(ctx.ty.clone()),
                    }
                }
                segs.push(r.name.clone());
                triples.push((segs.join("::"), fi, ri));
            }
        }
        triples.sort();
        let mut prev: Option<(String, u32)> = None;
        for (id, fi, ri) in triples {
            let unique = match &mut prev {
                Some((p, n)) if *p == id => {
                    *n += 1;
                    format!("{id}#{n}")
                }
                _ => {
                    prev = Some((id.clone(), 1));
                    id.clone()
                }
            };
            let f = &self.facts[fi];
            let r = &f.fns[ri];
            let idx = self.nodes.len();
            self.nodes.push(Node {
                id: unique,
                file: f.path.clone(),
                line: r.line,
                krate: crate_of(&f.path),
                public: r.public,
                det: self.cfg.is_deterministic_path(&f.path),
                lib: self.cfg.panic_rules_apply(&f.path),
                trait_impl: r.impl_ctx.as_ref().is_some_and(|c| c.trait_name.is_some()),
                panics: r.panics.clone(),
                sources: Vec::new(),
                locks: Vec::new(),
                has_scope: r.has_scope,
            });
            self.node_of.insert((fi, ri), idx);
            self.origin.push((fi, ri));
        }
        // Node ids must be sorted for binary search; the `#N` suffixing
        // preserves sortedness only within equal prefixes, so re-sort and
        // remap.
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| self.nodes[a].id.cmp(&self.nodes[b].id));
        let mut remap = vec![0usize; order.len()];
        for (new_idx, &old_idx) in order.iter().enumerate() {
            remap[old_idx] = new_idx;
        }
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut origin = Vec::with_capacity(self.origin.len());
        for &old_idx in &order {
            nodes.push(self.nodes[old_idx].clone());
            origin.push(self.origin[old_idx]);
        }
        self.nodes = nodes;
        self.origin = origin;
        for v in self.node_of.values_mut() {
            *v = remap[*v];
        }
    }

    fn index_fns(&mut self) {
        for (idx, &(fi, ri)) in self.origin.iter().enumerate() {
            let r = &self.facts[fi].fns[ri];
            match &r.impl_ctx {
                Some(ctx) => {
                    self.methods.entry((ctx.ty.clone(), r.name.clone())).or_default().push(idx);
                    self.methods_by_name.entry(r.name.clone()).or_default().push(idx);
                }
                None => {
                    self.free_by_name.entry(r.name.clone()).or_default().push(idx);
                }
            }
        }
    }

    /// Type text of a receiver chain within `raw_fn`, plus the lock-naming
    /// owner for the final element.
    fn chain_type(
        &self,
        fi: usize,
        r: &RawFn,
        chain: &[String],
        node_id: &str,
    ) -> Option<(String, String)> {
        self.chain_type_depth(fi, r, chain, node_id, 0)
    }

    fn chain_type_depth(
        &self,
        fi: usize,
        r: &RawFn,
        chain: &[String],
        node_id: &str,
        depth: usize,
    ) -> Option<(String, String)> {
        // Deferred bindings expand into other chains; bound the recursion
        // so a self-referential `let x = x.clone();` cannot loop.
        if depth > 4 {
            return None;
        }
        let first = chain.first()?;
        let krate = crate_of(&self.facts[fi].path);
        let (mut ty, mut owner) = if let Some(t) = r.locals.get(first) {
            if t == "<closure>" {
                return None;
            }
            (t.clone(), format!("{node_id}::{first}"))
        } else if let Some(stored) = r.chain_lets.get(first).or_else(|| r.elem_lets.get(first)) {
            // `let x = <chain>.m();` / `for x in <chain>`: splice the
            // stored chain in place of the variable and re-resolve.
            let mut full = stored.clone();
            full.extend(chain[1..].iter().cloned());
            return self.chain_type_depth(fi, r, &full, node_id, depth + 1);
        } else if let Some(name) = first.strip_prefix("#call:") {
            // `f(..).m()` / `let x = f(..)`: the callee's return type.
            if r.locals.get(name).is_some_and(|t| t == "<closure>") {
                return None;
            }
            let Resolution::Hit(t) = self.resolve_direct(name, &krate, fi, usize::MAX) else {
                return None;
            };
            (self.ret_of(t)?, first.clone())
        } else if let Some(path) = first.strip_prefix("#qcall:") {
            // `a::b::f(..).m()` / `Type::new(..).m()` heads.
            let segs: Vec<String> = path.split("::").map(str::to_string).collect();
            let Resolution::Hit(t) = self.resolve_qualified(&segs, &krate, &r.impl_ctx) else {
                return None;
            };
            (self.ret_of(t)?, first.clone())
        } else if let Some(statics) = self.statics.get(first) {
            let same: Vec<&(String, String)> =
                statics.iter().filter(|(k, _)| *k == krate).collect();
            let (_, t) =
                same.first().copied().or_else(|| (statics.len() == 1).then(|| &statics[0]))?;
            (t.clone(), format!("{krate}::{first}"))
        } else if let Some(st) = self.facts[fi].statics.get(first) {
            (st.clone(), format!("{krate}::{first}"))
        } else {
            return None;
        };
        for field in &chain[1..] {
            if let Some(name) = field.strip_prefix("#mcall:") {
                // A non-transparent method hop: follow its return type.
                let Resolution::Hit(t) = self.resolve_method(name, Some(&ty), &krate) else {
                    return None;
                };
                ty = self.ret_of(t)?;
                continue;
            }
            if let Some(marker) = field.strip_prefix('#').map(|_| field.as_str()) {
                ty = apply_marker(&ty, marker)?;
                continue;
            }
            let holder = base_name(peel_all(&ty)).to_string();
            let candidates = self.structs.get(&holder)?;
            let same: Vec<&(String, BTreeMap<String, String>)> =
                candidates.iter().filter(|(k, _)| *k == krate).collect();
            let (_, fields) = same
                .first()
                .copied()
                .or_else(|| (candidates.len() == 1).then(|| &candidates[0]))?;
            ty = fields.get(field)?.clone();
            owner = format!("{holder}.{field}");
        }
        Some((ty, owner))
    }

    /// Resolve every body: produce edges, the unresolved bucket, the
    /// external count, scoped-lock mutations, and node sources/locks.
    #[allow(clippy::type_complexity, reason = "the four outputs of one pass over the bodies")]
    fn resolve_bodies(&mut self) -> (Vec<CallEdge>, Vec<Unresolved>, usize, Vec<ScopeMutation>) {
        let mut edges = Vec::new();
        let mut unresolved = Vec::new();
        let mut n_external = 0usize;
        let mut scope_mutations = Vec::new();
        let mut node_sources: Vec<Vec<SourceSite>> = vec![Vec::new(); self.nodes.len()];
        let mut node_locks: Vec<Vec<LockEvent>> = vec![Vec::new(); self.nodes.len()];

        for idx in 0..self.nodes.len() {
            let (fi, ri) = self.origin[idx];
            let node_id = self.nodes[idx].id.clone();
            let krate = self.nodes[idx].krate.clone();
            let r = self.facts[fi].fns[ri].clone();

            // Receiver-independent sources recorded at extraction.
            for s in &r.sources {
                node_sources[idx].push(SourceSite {
                    kind: match s.kind {
                        RawSourceKind::WallClock => "wall-clock",
                        RawSourceKind::UnseededRng => "unseeded-rng",
                    },
                    what: s.what.clone(),
                    line: s.line,
                });
            }
            // `for _ in <hash-typed chain>`.
            for it in &r.for_iters {
                if let Some((ty, _)) = self.chain_type(fi, &r, &it.chain, &node_id) {
                    if is_hash_type(&ty) {
                        node_sources[idx].push(SourceSite {
                            kind: "hash-iter",
                            what: format!("for _ in {}", it.chain.join(".")),
                            line: it.line,
                        });
                    }
                }
            }

            for call in &r.calls {
                match &call.kind {
                    RawCallKind::Direct(name) => {
                        match self.resolve_direct(name, &krate, fi, ri) {
                            Resolution::Hit(t) => edges.push(CallEdge {
                                caller: idx,
                                callee: t,
                                line: call.line,
                                tok: call.tok,
                            }),
                            Resolution::Fanout(ts) => edges.extend(ts.into_iter().map(|t| {
                                CallEdge { caller: idx, callee: t, line: call.line, tok: call.tok }
                            })),
                            Resolution::External => n_external += 1,
                            Resolution::Ambiguous(c) => unresolved.push(Unresolved {
                                caller: idx,
                                name: name.clone(),
                                line: call.line,
                                candidates: c,
                            }),
                        }
                    }
                    RawCallKind::Qualified(segs) => {
                        match self.resolve_qualified(segs, &krate, &r.impl_ctx) {
                            Resolution::Hit(t) => edges.push(CallEdge {
                                caller: idx,
                                callee: t,
                                line: call.line,
                                tok: call.tok,
                            }),
                            Resolution::Fanout(ts) => edges.extend(ts.into_iter().map(|t| {
                                CallEdge { caller: idx, callee: t, line: call.line, tok: call.tok }
                            })),
                            Resolution::External => n_external += 1,
                            Resolution::Ambiguous(c) => unresolved.push(Unresolved {
                                caller: idx,
                                name: segs.join("::"),
                                line: call.line,
                                candidates: c,
                            }),
                        }
                    }
                    RawCallKind::Method { name, chain } => {
                        let typed = chain
                            .as_ref()
                            .and_then(|ch| self.chain_type(fi, &r, ch, &node_id).map(|t| (ch, t)));
                        // Receiver-dependent taint sources and lock events.
                        if let Some((ch, (ty, owner))) = &typed {
                            if HASH_ITER_METHODS.contains(&name.as_str()) && is_hash_type(ty) {
                                node_sources[idx].push(SourceSite {
                                    kind: "hash-iter",
                                    what: format!("{}.{}()", ch.join("."), name),
                                    line: call.line,
                                });
                            }
                            if LOCK_METHODS.contains(&name.as_str()) {
                                if let Some(_fam) = is_lock_type(ty) {
                                    node_locks[idx].push(LockEvent {
                                        lock: owner.clone(),
                                        op: name.clone(),
                                        line: call.line,
                                        tok: call.tok,
                                        held_until: call.held_until,
                                        in_scope: call.in_scope,
                                        in_scope_spawn: call.in_scope_spawn,
                                    });
                                    if call.in_scope {
                                        node_sources[idx].push(SourceSite {
                                            kind: "lock-order",
                                            what: format!("{owner} acquired under thread::scope"),
                                            line: call.line,
                                        });
                                    }
                                }
                            }
                        }
                        if CHANNEL_METHODS.contains(&name.as_str()) {
                            node_sources[idx].push(SourceSite {
                                kind: "channel-order",
                                what: format!(".{name}()"),
                                line: call.line,
                            });
                        }
                        let recv_ty = typed.as_ref().map(|(_, (ty, _))| ty.as_str());
                        match self.resolve_method(name, recv_ty, &krate) {
                            Resolution::Hit(t) => edges.push(CallEdge {
                                caller: idx,
                                callee: t,
                                line: call.line,
                                tok: call.tok,
                            }),
                            Resolution::Fanout(ts) => edges.extend(ts.into_iter().map(|t| {
                                CallEdge { caller: idx, callee: t, line: call.line, tok: call.tok }
                            })),
                            Resolution::External => n_external += 1,
                            Resolution::Ambiguous(c) => unresolved.push(Unresolved {
                                caller: idx,
                                name: format!(".{name}"),
                                line: call.line,
                                candidates: c,
                            }),
                        }
                    }
                }
            }

            // Order-sensitive collection under a scoped-spawn lock guard:
            // a mutation call whose token falls inside a held range.
            for lock in &node_locks[idx] {
                if !lock.in_scope_spawn {
                    continue;
                }
                for call in &r.calls {
                    let RawCallKind::Method { name, .. } = &call.kind else { continue };
                    if !["push", "insert", "extend"].contains(&name.as_str()) {
                        continue;
                    }
                    if call.tok > lock.tok && call.tok <= lock.held_until {
                        scope_mutations.push(ScopeMutation {
                            node: idx,
                            method: name.clone(),
                            lock: lock.lock.clone(),
                            line: call.line,
                            col: call.col,
                        });
                    }
                }
            }
        }

        for (idx, sources) in node_sources.into_iter().enumerate() {
            let mut s = sources;
            s.sort_by(|a, b| (a.line, a.kind, &a.what).cmp(&(b.line, b.kind, &b.what)));
            s.dedup_by(|a, b| a.line == b.line && a.kind == b.kind && a.what == b.what);
            self.nodes[idx].sources = s;
        }
        for (idx, locks) in node_locks.into_iter().enumerate() {
            self.nodes[idx].locks = locks;
        }
        (edges, unresolved, n_external, scope_mutations)
    }

    /// What a body may reach beyond its call edges: the fn items it names
    /// as values, and every workspace method named like a std method it
    /// calls on an untypeable receiver (such calls count as external for
    /// the analyses). Every candidate of an ambiguous name counts, as for
    /// an unresolved call.
    fn resolve_refs(&self) -> Vec<(usize, usize)> {
        let mut refs = Vec::new();
        for (idx, &(fi, ri)) in self.origin.iter().enumerate() {
            let r = &self.facts[fi].fns[ri];
            let node = &self.nodes[idx];
            for kind in &r.refs {
                let resolution = match kind {
                    RawCallKind::Direct(name) => self.resolve_direct(name, &node.krate, fi, ri),
                    RawCallKind::Qualified(segs) => {
                        self.resolve_qualified(segs, &node.krate, &r.impl_ctx)
                    }
                    RawCallKind::Method { .. } => continue,
                };
                match resolution {
                    Resolution::Hit(t) => refs.push((idx, t)),
                    Resolution::Fanout(ts) | Resolution::Ambiguous(ts) => {
                        refs.extend(ts.into_iter().map(|t| (idx, t)));
                    }
                    Resolution::External => {}
                }
            }
            for call in &r.calls {
                let RawCallKind::Method { name, chain } = &call.kind else { continue };
                if !COMMON_STD_METHODS.contains(&name.as_str())
                    || chain
                        .as_ref()
                        .is_some_and(|ch| self.chain_type(fi, r, ch, &node.id).is_some())
                {
                    continue;
                }
                refs.extend(
                    self.methods_by_name.get(name).into_iter().flatten().map(|&t| (idx, t)),
                );
            }
        }
        refs.sort_unstable();
        refs.dedup();
        refs
    }

    /// `ri` is the calling fn's index, or `usize::MAX` when resolving a
    /// `#call:` chain head (no self-exclusion or closure shadowing then —
    /// the chain-typing caller checks its own locals).
    fn resolve_direct(&self, name: &str, krate: &str, fi: usize, ri: usize) -> Resolution {
        // Calling a local closure: its body's call sites are already
        // attributed to the enclosing function, so the invocation itself
        // resolves nowhere in the workspace.
        if self.facts[fi]
            .fns
            .get(ri)
            .is_some_and(|f| f.locals.get(name).is_some_and(|t| t == "<closure>"))
        {
            return Resolution::External;
        }
        let Some(cands) = self.free_by_name.get(name) else {
            return Resolution::External;
        };
        // Prefer same file, then same crate, then a unique global match.
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| self.origin[c].0 == fi && self.origin[c].1 != ri)
            .collect();
        if same_file.len() == 1 {
            return Resolution::Hit(same_file[0]);
        }
        if same_file.len() > 1 {
            return Resolution::Ambiguous(same_file);
        }
        let same_crate: Vec<usize> =
            cands.iter().copied().filter(|&c| self.nodes[c].krate == krate).collect();
        match same_crate.len() {
            1 => return Resolution::Hit(same_crate[0]),
            n if n > 1 => return Resolution::Ambiguous(same_crate),
            _ => {}
        }
        match cands.len() {
            0 => Resolution::External,
            1 => Resolution::Hit(cands[0]),
            _ => Resolution::Ambiguous(cands.clone()),
        }
    }

    fn resolve_qualified(&self, segs: &[String], krate: &str, ctx: &Option<ImplCtx>) -> Resolution {
        let Some((name, prefix)) = segs.split_last() else {
            return Resolution::External;
        };
        // Obvious std/vendored roots are external without lookup.
        if let Some(first) = prefix.first() {
            if [
                "std",
                "core",
                "alloc",
                "String",
                "Vec",
                "Box",
                "Arc",
                "Rc",
                "HashMap",
                "HashSet",
                "BTreeMap",
                "BTreeSet",
                "VecDeque",
                "Option",
                "Result",
                "Instant",
                "Duration",
                "SystemTime",
                "PathBuf",
                "Path",
                "f32",
                "f64",
                "u8",
                "u16",
                "u32",
                "u64",
                "usize",
                "i8",
                "i16",
                "i32",
                "i64",
                "isize",
                "char",
                "str",
            ]
            .contains(&first.as_str())
            {
                return Resolution::External;
            }
        }
        // `Self::name` → method on the impl type.
        let type_hint = match prefix.last() {
            Some(s) if s == "Self" => ctx.as_ref().map(|c| c.ty.clone()),
            Some(s) if s.chars().next().is_some_and(char::is_uppercase) => Some(s.clone()),
            _ => None,
        };
        // Crate hint from the path root.
        let crate_hint = match prefix.first().map(String::as_str) {
            Some("crate") | Some("self") | Some("super") | Some("Self") => Some(krate.to_string()),
            Some(root) => root.strip_prefix("smn_").map(|r| r.replace('_', "-")),
            None => None,
        };
        if let Some(ty) = type_hint {
            let Some(cands) = self.methods.get(&(ty.clone(), name.clone())) else {
                return Resolution::External;
            };
            return self.prefer_crate(cands, crate_hint.as_deref().unwrap_or(krate));
        }
        let Some(cands) = self.free_by_name.get(name) else {
            return Resolution::External;
        };
        // Module hint: the last lowercase path segment should appear in
        // the candidate's id.
        let mod_hint = prefix
            .iter()
            .rev()
            .find(|s| {
                s.chars().next().is_some_and(char::is_lowercase)
                    && !["crate", "self", "super"].contains(&s.as_str())
                    && !s.starts_with("smn_")
            })
            .cloned();
        let filtered: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                let node = &self.nodes[c];
                let crate_ok = crate_hint.as_deref().is_none_or(|k| node.krate == k);
                let mod_ok =
                    mod_hint.as_deref().is_none_or(|m| node.id.split("::").any(|seg| seg == m));
                crate_ok && mod_ok
            })
            .collect();
        match filtered.len() {
            0 => Resolution::External,
            1 => Resolution::Hit(filtered[0]),
            _ => self.prefer_crate(&filtered, crate_hint.as_deref().unwrap_or(krate)),
        }
    }

    fn resolve_method(&self, name: &str, recv_ty: Option<&str>, krate: &str) -> Resolution {
        let res = if let Some(ty) = recv_ty {
            let base = base_name(peel_all(ty)).to_string();
            match self.methods.get(&(base, name.to_string())) {
                Some(cands) => self.prefer_crate(cands, krate),
                None => Resolution::External,
            }
        } else if COMMON_STD_METHODS.contains(&name) {
            // Untypeable receiver on a ubiquitous std name: a single
            // workspace `len` must not capture every `x.len()`.
            Resolution::External
        } else {
            match self.methods_by_name.get(name) {
                Some(cands) if cands.len() == 1 => Resolution::Hit(cands[0]),
                Some(cands) => Resolution::Ambiguous(cands.clone()),
                None => Resolution::External,
            }
        };
        // Single-trait dispatch: every candidate implements (or declares)
        // one trait's method, so the call is dynamic dispatch over that
        // trait — take every impl as a callee rather than guessing one.
        if let Resolution::Ambiguous(cands) = &res {
            if self.single_trait_dispatch(cands) {
                return Resolution::Fanout(cands.clone());
            }
        }
        res
    }

    /// True when all candidate methods belong to one trait: each is either
    /// an `impl Trait for Type` method or the trait's own declaration /
    /// default body.
    fn single_trait_dispatch(&self, cands: &[usize]) -> bool {
        let mut trait_name: Option<&str> = None;
        for &c in cands {
            let (fi, ri) = self.origin[c];
            let Some(ctx) = self.facts[fi].fns[ri].impl_ctx.as_ref() else {
                return false;
            };
            let name = ctx.trait_name.as_deref().unwrap_or(ctx.ty.as_str());
            match trait_name {
                Some(t) if t != name => return false,
                _ => trait_name = Some(name),
            }
        }
        // At least one real `impl .. for ..` must anchor the group; a set
        // of inherent methods on one type never reaches here (they would
        // have resolved), but guard anyway.
        cands.iter().any(|&c| {
            let (fi, ri) = self.origin[c];
            self.facts[fi].fns[ri].impl_ctx.as_ref().is_some_and(|x| x.trait_name.is_some())
        })
    }

    /// Return type of a node's underlying fn, when recorded.
    fn ret_of(&self, node: usize) -> Option<String> {
        let (fi, ri) = self.origin[node];
        self.facts[fi].fns[ri].ret.clone()
    }

    fn prefer_crate(&self, cands: &[usize], krate: &str) -> Resolution {
        match cands.len() {
            0 => Resolution::External,
            1 => Resolution::Hit(cands[0]),
            _ => {
                let same: Vec<usize> =
                    cands.iter().copied().filter(|&c| self.nodes[c].krate == krate).collect();
                match same.len() {
                    1 => Resolution::Hit(same[0]),
                    0 => Resolution::Ambiguous(cands.to_vec()),
                    _ => Resolution::Ambiguous(same),
                }
            }
        }
    }
}

enum Resolution {
    Hit(usize),
    /// Trait dynamic dispatch: edges to every implementation.
    Fanout(Vec<usize>),
    External,
    Ambiguous(Vec<usize>),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        build(&owned, &Config::default())
    }

    fn index_of(g: &CallGraph, id: &str) -> Option<usize> {
        g.nodes.binary_search_by(|n| n.id.as_str().cmp(id)).ok()
    }

    #[test]
    fn direct_and_cross_file_resolution() {
        let g = graph(&[
            ("crates/core/src/lib.rs", "pub fn entry() { helper(); }\nfn helper() {}\n"),
            ("crates/te/src/solver.rs", "pub fn solve() { smn_core::entry(); }\n"),
        ]);
        let entry = index_of(&g, "core::entry").expect("entry node");
        let helper = index_of(&g, "core::helper").expect("helper node");
        let solve = index_of(&g, "te::solver::solve").expect("solve node");
        assert!(g.edges.iter().any(|e| e.caller == entry && e.callee == helper));
        assert!(g.edges.iter().any(|e| e.caller == solve && e.callee == entry));
    }

    #[test]
    fn method_resolution_by_receiver_type() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            "pub struct Engine { pub gauge: u64 }\n\
             impl Engine {\n    pub fn tick(&self) { self.advance(); }\n    fn advance(&self) {}\n}\n\
             pub fn run(e: Engine) { e.tick(); }\n",
        )]);
        let tick = index_of(&g, "core::Engine::tick").unwrap();
        let advance = index_of(&g, "core::Engine::advance").unwrap();
        let run = index_of(&g, "core::run").unwrap();
        assert!(g.edges.iter().any(|e| e.caller == tick && e.callee == advance));
        assert!(g.edges.iter().any(|e| e.caller == run && e.callee == tick));
    }

    #[test]
    fn ambiguous_methods_land_in_unresolved_bucket() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            "pub struct A;\npub struct B;\n\
             impl A { pub fn step(&self) {} }\n\
             impl B { pub fn step(&self) {} }\n\
             pub fn go(x: Untyped) { x.field.step(); }\n",
        )]);
        assert_eq!(g.unresolved.len(), 1);
        assert_eq!(g.unresolved[0].name, ".step");
        assert_eq!(g.unresolved[0].candidates.len(), 2);
    }

    #[test]
    fn common_std_methods_do_not_unique_resolve() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            "pub struct Q;\nimpl Q { pub fn len(&self) -> usize { 0 } }\n\
             pub fn f() { mystery().len(); }\n",
        )]);
        assert!(g.unresolved.is_empty());
        assert!(g.edges.iter().all(|e| { g.nodes[e.callee].id != "core::Q::len" }));
    }

    #[test]
    fn hash_iter_source_requires_hash_type() {
        let g = graph(&[(
            "crates/coverage/src/lib.rs",
            "pub fn a(m: HashMap<u32, u32>) { for v in m.values() { drop(v); } }\n\
             pub fn b(v: Vec<u32>) { for x in v.iter() { drop(x); } }\n",
        )]);
        let a = index_of(&g, "coverage::a").unwrap();
        let b = index_of(&g, "coverage::b").unwrap();
        assert!(g.nodes[a].sources.iter().any(|s| s.kind == "hash-iter"));
        assert!(g.nodes[b].sources.iter().all(|s| s.kind != "hash-iter"));
    }

    #[test]
    fn lock_events_use_type_field_identity() {
        let g = graph(&[(
            "crates/obs/src/lib.rs",
            "pub struct Hub { tracer: Mutex<u64>, metrics: Mutex<u64> }\n\
             impl Hub {\n    pub fn record(&self) {\n        let t = self.tracer.lock();\n        self.metrics.lock().checked_add(1);\n    }\n}\n",
        )]);
        let rec = index_of(&g, "obs::Hub::record").unwrap();
        let locks: Vec<&str> = g.nodes[rec].locks.iter().map(|l| l.lock.as_str()).collect();
        assert_eq!(locks, vec!["Hub.tracer", "Hub.metrics"]);
        // First guard is let-bound and outlives the second acquisition.
        assert!(g.nodes[rec].locks[0].held_until > g.nodes[rec].locks[1].tok);
    }

    #[test]
    fn scoped_lock_is_order_source_and_mutation_flagged() {
        let g = graph(&[(
            "crates/coverage/src/lib.rs",
            "pub fn fan_out(results: Mutex<Vec<u64>>) {\n    std::thread::scope(|s| {\n        s.spawn(|| { results.lock().push(1); });\n    });\n}\n",
        )]);
        let f = index_of(&g, "coverage::fan_out").unwrap();
        assert!(g.nodes[f].sources.iter().any(|s| s.kind == "lock-order"));
        assert_eq!(g.scope_mutations.len(), 1);
        assert_eq!(g.scope_mutations[0].method, "push");
    }

    #[test]
    fn canonical_json_is_stable_and_sorted() {
        let files = [("crates/core/src/lib.rs", "pub fn z() { a(); }\npub fn a() {}\n")];
        let g1 = graph(&files);
        let g2 = graph(&files);
        let j1 = g1.to_canonical_json();
        assert_eq!(j1, g2.to_canonical_json());
        let a_pos = j1.find("core::a").unwrap();
        let z_pos = j1.find("core::z").unwrap();
        assert!(a_pos < z_pos, "functions sorted by id");
        assert!(j1.contains("\"kind\": \"callgraph\""));
    }

    #[test]
    fn call_result_lets_type_through_return_types() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            "pub struct Engine;\n\
             impl Engine {\n    pub fn new() -> Self { Engine }\n    pub fn tick(&self) {}\n}\n\
             pub fn make() -> Engine { Engine }\n\
             pub fn a() { let e = make(); e.tick(); }\n\
             pub fn b() { Engine::new().tick(); }\n",
        )]);
        let tick = index_of(&g, "core::Engine::tick").unwrap();
        let a = index_of(&g, "core::a").unwrap();
        let b = index_of(&g, "core::b").unwrap();
        assert!(g.edges.iter().any(|e| e.caller == a && e.callee == tick));
        assert!(g.edges.iter().any(|e| e.caller == b && e.callee == tick));
    }

    #[test]
    fn indexed_receivers_and_closure_params_use_element_types() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            "pub struct Engine;\n\
             impl Engine { pub fn tick(&self) {} }\n\
             pub fn a(rs: Vec<Engine>) { rs[0].tick(); }\n\
             pub fn b(rs: Vec<Engine>) { let n: Vec<u32> = rs.iter().map(|r| { r.tick(); 1 }).collect(); }\n",
        )]);
        let tick = index_of(&g, "core::Engine::tick").unwrap();
        let a = index_of(&g, "core::a").unwrap();
        let b = index_of(&g, "core::b").unwrap();
        assert!(g.edges.iter().any(|e| e.caller == a && e.callee == tick));
        assert!(g.edges.iter().any(|e| e.caller == b && e.callee == tick));
    }

    #[test]
    fn if_let_some_bindings_type_the_option_payload() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            "pub struct Engine;\n\
             impl Engine { pub fn tick(&mut self) {} }\n\
             pub fn run(inj: Option<Engine>) {\n\
                 let mut inj = inj;\n\
                 if let Some(e) = inj.as_mut() { e.tick(); }\n\
             }\n",
        )]);
        let tick = index_of(&g, "core::Engine::tick").unwrap();
        let run = index_of(&g, "core::run").unwrap();
        assert!(g.edges.iter().any(|e| e.caller == run && e.callee == tick));
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn map_get_marker_types_the_value() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            "pub struct Model;\n\
             impl Model { pub fn predict(&self) -> f64 { 0.0 } }\n\
             pub fn f(index: HashMap<u32, Model>) {\n\
                 if let Some(m) = index.get(&1) { m.predict(); }\n\
             }\n",
        )]);
        let predict = index_of(&g, "core::Model::predict").unwrap();
        let f = index_of(&g, "core::f").unwrap();
        assert!(g.edges.iter().any(|e| e.caller == f && e.callee == predict));
    }

    #[test]
    fn node_id_collisions_get_deterministic_suffixes() {
        let g = graph(&[
            ("crates/core/src/main.rs", "fn boot() {}\n"),
            ("crates/core/src/bin/alt.rs", "fn boot() {}\n"),
        ]);
        let ids: Vec<&str> = g.nodes.iter().map(|n| n.id.as_str()).collect();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }
}
