//! The deep pass: whole-workspace call-graph analyses behind
//! `smn-lint --deep`.
//!
//! Orchestrates [`crate::graph`] (build + canonical artifact),
//! [`crate::taint`] (determinism taint), [`crate::reach`]
//! (panic reachability vs. the committed baseline), [`crate::locks`]
//! (lock-order cycles, scoped-collection order) and [`crate::unused`]
//! (public API that nothing runs vs. its baseline). The unresolved call
//! bucket is surfaced as warn findings (`deep/unresolved-call`) when the
//! ambiguity is *consequential* — some candidate transitively carries
//! panic sites, nondeterminism sources, or lock events, so picking the
//! wrong edge could change an analysis verdict. Inert ambiguity (e.g.
//! three `.index` accessors that all just return a field) is recorded in
//! `callgraph.json`'s `unresolved` array but not reported; the graph's
//! blind spots are part of the artifact, never silently dropped.
//!
//! The pass also denies what would leave part of the tree unchecked:
//! files and directories it cannot read or lex (`source/unparsed`) and
//! malformed or unknown-rule allow annotations (`annotation/*`).
//!
//! [`analyze_files`] is pure over `(path, source)` pairs so tests and
//! the fixture corpus can run the whole pass in memory; pairs under
//! `periodbench/` and `examples/` only root the unused-public report;
//! [`analyze_workspace`] is the filesystem wrapper the CLI uses.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use serde::Serialize;

use crate::config::{self, Config};
use crate::diag::{Diagnostic, Report};
use crate::graph::{self, CallGraph};
use crate::reach::{self, Witness};
use crate::{locks, taint, unused};

/// Rule id for ambiguous call sites.
pub const UNRESOLVED_RULE: &str = "deep/unresolved-call";

/// Deep-pass options.
#[derive(Debug, Clone, Default)]
pub struct DeepOptions {
    /// Committed panic baseline (`panic-baseline.txt`), when in force.
    pub baseline: Option<BTreeMap<String, usize>>,
    /// Committed unused-public baseline (`unused-baseline.txt`), when in
    /// force.
    pub unused_baseline: Option<BTreeMap<String, usize>>,
}

impl DeepOptions {
    /// The committed baselines under `root`, each `None` when its file is
    /// absent: `panic-baseline.txt` and `unused-baseline.txt`.
    ///
    /// # Errors
    /// A baseline file that is present but malformed.
    pub fn load(root: &Path) -> Result<Self, String> {
        let load = |name: &str| match std::fs::read_to_string(root.join(name)) {
            Ok(text) => reach::parse_baseline(&text).map(Some).map_err(|e| format!("{name}: {e}")),
            Err(_) => Ok(None),
        };
        Ok(Self {
            baseline: load("panic-baseline.txt")?,
            unused_baseline: load("unused-baseline.txt")?,
        })
    }
}

/// Machine-readable summary of one deep run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DeepSummary {
    /// Workspace functions in the graph.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Ambiguous call sites (see `callgraph.json` for candidates).
    pub unresolved: usize,
    /// Call sites matching no workspace function (std / vendored).
    pub external: usize,
    /// Deterministic endpoints checked by the taint analysis.
    pub det_endpoints: usize,
    /// Public library API functions that can reach a panic, per crate.
    pub panic_per_crate: BTreeMap<String, usize>,
    /// Shortest panic witness per reachable endpoint.
    pub panic_witnesses: Vec<Witness>,
    /// Public library API functions that no root reaches, per crate.
    pub unused_per_crate: BTreeMap<String, usize>,
    /// Those functions' ids, sorted.
    pub unused_public: Vec<String>,
}

/// Everything one deep run produces.
#[derive(Debug, Clone, Default)]
pub struct DeepResult {
    /// Findings, sorted and counted.
    pub report: Report,
    /// Run summary (serialized into the JSON report).
    pub summary: DeepSummary,
    /// Canonical callgraph artifact bytes.
    pub callgraph_json: String,
}

/// Run the deep pass over in-memory `(path, source)` pairs.
#[must_use]
pub fn analyze_files(files: &[(String, String)], cfg: &Config, opts: &DeepOptions) -> DeepResult {
    let workspace: Vec<(String, String)> =
        files.iter().filter(|(path, _)| !unused::is_root_file(path)).cloned().collect();
    let g = graph::build(&workspace, cfg);
    let mut findings = Vec::new();

    let (taint_findings, det_endpoints) = taint::run(&g);
    findings.extend(taint_findings);

    let reach = reach::run(&g, opts.baseline.as_ref());
    findings.extend(reach.findings);

    findings.extend(locks::run(&g));
    findings.extend(unresolved_findings(&g));

    let rooted = (workspace.len() < files.len()).then(|| graph::build(files, cfg));
    let unused = unused::run(&g, rooted.as_ref(), opts.unused_baseline.as_ref());
    findings.extend(unused.findings);
    findings.extend(rooted.as_ref().unwrap_or(&g).file_findings.iter().cloned());

    let summary = DeepSummary {
        functions: g.nodes.len(),
        edges: g.edges.len(),
        unresolved: g.unresolved.len(),
        external: g.n_external,
        det_endpoints,
        panic_per_crate: reach.per_crate,
        panic_witnesses: reach.witnesses,
        unused_per_crate: unused.per_crate,
        unused_public: unused.unused,
    };
    let mut report = Report::from_findings(findings);
    report.files_scanned = files.len();
    DeepResult { report, summary, callgraph_json: g.to_canonical_json() }
}

/// Run the deep pass over the workspace at `root`.
#[must_use]
pub fn analyze_workspace(root: &Path, cfg: &Config, opts: &DeepOptions) -> DeepResult {
    let rel = |path: &Path| {
        path.strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/")
    };
    let mut paths = Vec::new();
    let mut dir_errors = Vec::new();
    for dir in ["crates", "periodbench/src", "examples"] {
        crate::collect_files(&root.join(dir), "rs", &mut paths, &mut dir_errors);
    }
    paths.sort();
    // What cannot be read is an unknown amount of unchecked code: report
    // it, so a partial pass cannot masquerade as a clean one.
    let mut unread: Vec<Diagnostic> = dir_errors
        .iter()
        .map(|(dir, e)| unparsed(&rel(dir), format!("cannot read directory: {e}")))
        .collect();
    let mut files = Vec::new();
    for path in paths {
        let rel = rel(&path);
        match std::fs::read_to_string(&path) {
            Ok(src) => files.push((rel, src)),
            Err(e) => unread.push(unparsed(&rel, format!("cannot read file: {e}"))),
        }
    }
    let mut result = analyze_files(&files, cfg, opts);
    result.report.merge(Report::from_findings(unread));
    result
}

/// A `source/unparsed` finding for a whole file or directory.
fn unparsed(file: &str, message: String) -> Diagnostic {
    Diagnostic::new(graph::UNPARSED_RULE, config::level(graph::UNPARSED_RULE), file, 0, 0, message)
}

/// Nodes whose behavior the analyses care about: the function itself, or
/// anything it can reach, carries panic sites, nondeterminism sources, or
/// lock events. Computed as backward propagation from those seeds.
fn consequential_nodes(g: &CallGraph) -> Vec<bool> {
    let mut interesting: Vec<bool> = g
        .nodes
        .iter()
        .map(|n| !n.panics.is_empty() || !n.sources.is_empty() || !n.locks.is_empty())
        .collect();
    let inadj = g.in_adjacency();
    let mut queue: VecDeque<usize> = (0..g.nodes.len()).filter(|&i| interesting[i]).collect();
    while let Some(cur) = queue.pop_front() {
        for &caller in &inadj[cur] {
            if !interesting[caller] {
                interesting[caller] = true;
                queue.push_back(caller);
            }
        }
    }
    interesting
}

/// Warn findings for the consequential part of the unresolved bucket.
fn unresolved_findings(g: &CallGraph) -> Vec<Diagnostic> {
    let level = config::level(UNRESOLVED_RULE);
    let consequential = consequential_nodes(g);
    let mut findings = Vec::new();
    for u in &g.unresolved {
        let node = &g.nodes[u.caller];
        if g.waived(&node.file, UNRESOLVED_RULE, u.line) {
            continue;
        }
        // Ambiguity between candidates that neither panic, produce
        // nondeterminism, nor touch locks (directly or transitively)
        // cannot change any verdict; it stays in the artifact only.
        if !u.candidates.iter().any(|&c| consequential[c]) {
            continue;
        }
        let cands: Vec<&str> = u.candidates.iter().map(|&c| g.nodes[c].id.as_str()).collect();
        findings.push(
            Diagnostic::new(
                UNRESOLVED_RULE,
                level,
                &node.file,
                u.line,
                1,
                format!(
                    "call `{}` in `{}` is ambiguous: {} workspace candidates ({})",
                    u.name,
                    node.id,
                    cands.len(),
                    cands.join(", ")
                ),
            )
            .with_note(
                "qualify the call or type the receiver so the graph can resolve it; \
                 the candidates are recorded in callgraph.json"
                    .to_string(),
            ),
        );
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Level;

    fn files(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect()
    }

    #[test]
    fn deep_run_is_byte_identical_across_repeats() {
        let fs = files(&[
            ("crates/coverage/src/lib.rs", "pub fn evaluate() { smn_core::stamp(); }\n"),
            (
                "crates/core/src/util.rs",
                "pub fn stamp(v: Vec<u64>) -> u64 { let t = SystemTime::now(); v[0] }\n",
            ),
        ]);
        let cfg = Config::default();
        let a = analyze_files(&fs, &cfg, &DeepOptions::default());
        let b = analyze_files(&fs, &cfg, &DeepOptions::default());
        let render = |r: &DeepResult| crate::cli::render(&r.report, Some(&r.summary));
        let json = |r: &DeepResult| crate::cli::render_json(&r.report, Some(&r.summary));
        assert_eq!(render(&a), render(&b));
        assert_eq!(json(&a), json(&b));
        assert_eq!(a.callgraph_json, b.callgraph_json);
        assert!(a.report.findings.iter().any(|d| d.rule == taint::RULE));
    }

    #[test]
    fn consequential_unresolved_bucket_is_reported() {
        // One candidate can panic, so the ambiguity could hide a
        // panic-reachability edge: report it.
        let r = analyze_files(
            &files(&[(
                "crates/core/src/lib.rs",
                "pub struct A;\npub struct B;\n\
                 impl A { pub fn step(&self) { self.inner.unwrap(); } }\n\
                 impl B { pub fn step(&self) {} }\n\
                 pub fn go(x: Untyped) { x.field.step(); }\n",
            )]),
            &Config::default(),
            &DeepOptions::default(),
        );
        let u: Vec<_> = r.report.findings.iter().filter(|d| d.rule == UNRESOLVED_RULE).collect();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].level, Level::Warn);
        assert!(u[0].message.contains("2 workspace candidates"));
        assert_eq!(r.summary.unresolved, 1);
        assert!(r.callgraph_json.contains("\"unresolved\""));
    }

    #[test]
    fn inert_ambiguity_stays_in_the_artifact_without_a_finding() {
        // Neither candidate panics, produces nondeterminism, or locks:
        // the bucket entry is recorded in callgraph.json but no finding
        // is emitted.
        let r = analyze_files(
            &files(&[(
                "crates/core/src/lib.rs",
                "pub struct A;\npub struct B;\n\
                 impl A { pub fn step(&self) {} }\n\
                 impl B { pub fn step(&self) {} }\n\
                 pub fn go(x: Untyped) { x.field.step(); }\n",
            )]),
            &Config::default(),
            &DeepOptions::default(),
        );
        assert!(r.report.findings.iter().all(|d| d.rule != UNRESOLVED_RULE));
        assert_eq!(r.summary.unresolved, 1);
        assert!(r.callgraph_json.contains("\"unresolved\""));
    }

    /// The rules of `r`'s findings, less the unused-public warns that a
    /// tree without roots raises on every public fn.
    fn rules_of(r: &DeepResult) -> Vec<&str> {
        r.report.findings.iter().map(|d| d.rule.as_str()).filter(|&d| d != unused::RULE).collect()
    }

    #[test]
    fn a_file_that_does_not_lex_is_denied() {
        let r = analyze_files(
            &files(&[
                ("crates/core/src/lib.rs", "pub fn a() {}\n"),
                ("crates/core/src/broken.rs", "pub fn b() -> &'static str {\n    \"open\n}\n"),
            ]),
            &Config::default(),
            &DeepOptions::default(),
        );
        assert_eq!(rules_of(&r), vec!["source/unparsed"]);
        let d = &r.report.findings[0];
        assert_eq!((d.file.as_str(), d.level), ("crates/core/src/broken.rs", Level::Deny));
        assert!(d.message.contains("unterminated"), "{}", d.message);
        assert_eq!(r.summary.functions, 1);
    }

    #[test]
    fn an_annotation_without_a_reason_is_denied_and_waives_nothing() {
        let r = analyze_files(
            &files(&[(
                "crates/core/src/lib.rs",
                "// smn-lint: allow(deep/panic-reachability)\npub fn f(v: Vec<u8>) -> u8 { v[0] }\n",
            )]),
            &Config::default(),
            &DeepOptions::default(),
        );
        assert_eq!(rules_of(&r), vec!["annotation/missing-reason", reach::RULE]);
        assert_eq!(r.report.findings[0].level, Level::Deny);
        assert_eq!(r.report.findings[0].line, 1);
    }

    #[test]
    fn an_annotation_naming_an_unknown_rule_is_denied() {
        let r = analyze_files(
            &files(&[(
                "crates/core/src/lib.rs",
                "// smn-lint: allow(panic/unwrap) -- the per-line rules are clippy's now\n\
                 pub fn f() {}\n",
            )]),
            &Config::default(),
            &DeepOptions::default(),
        );
        assert_eq!(rules_of(&r), vec!["annotation/unknown-rule"]);
        assert_eq!(r.report.findings[0].level, Level::Deny);
        assert!(r.report.findings[0].message.contains("`panic/unwrap`"));
    }

    #[test]
    fn unreadable_crates_dir_is_reported_not_skipped() {
        // A root whose `crates` entry is a plain file: read_dir fails, and
        // the failure must surface as a finding instead of a clean pass.
        let root = std::env::temp_dir().join("smn-lint-unreadable-dir-test");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create test root");
        std::fs::write(root.join("crates"), b"not a directory").expect("write blocker file");
        let r = analyze_workspace(&root, &Config::default(), &DeepOptions::default());
        let _ = std::fs::remove_dir_all(&root);
        let crates: Vec<&Diagnostic> =
            r.report.findings.iter().filter(|d| d.file == "crates").collect();
        assert_eq!(crates.len(), 1, "{:?}", r.report.findings);
        assert_eq!(crates[0].rule, "source/unparsed");
        assert!(crates[0].message.contains("cannot read directory"), "{}", crates[0].message);
        assert!(r.report.failed());
    }

    #[test]
    fn summary_counts_match_graph() {
        let r = analyze_files(
            &files(&[(
                "crates/core/src/lib.rs",
                "pub fn a() { b(); }\npub fn b() { String::new(); }\n",
            )]),
            &Config::default(),
            &DeepOptions::default(),
        );
        assert_eq!(r.summary.functions, 2);
        assert_eq!(r.summary.edges, 1);
        assert_eq!(r.summary.external, 1);
    }
}
