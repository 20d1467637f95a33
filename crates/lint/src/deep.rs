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
//! [`analyze_files`] is pure over `(path, source)` pairs so tests and
//! the fixture corpus can run the whole pass in memory; pairs under
//! `periodbench/` and `examples/` only root the unused-public report;
//! [`analyze_workspace`] is the filesystem wrapper the CLI uses.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use serde::{Serialize, Value};

use crate::config::Config;
use crate::diag::{Diagnostic, Level, Report};
use crate::graph::{self, CallGraph};
use crate::reach::{self, Witness};
use crate::{locks, source, taint, unused};

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

impl DeepResult {
    /// Human rendering: findings plus the summary lines.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.report.findings {
            out.push_str(&d.render());
            out.push('\n');
        }
        let s = &self.summary;
        out.push_str(&format!(
            "smn-lint --deep: {} function(s), {} edge(s), {} unresolved, {} external\n",
            s.functions, s.edges, s.unresolved, s.external
        ));
        out.push_str(&format!(
            "  determinism: {} endpoint(s) checked; panic-reachable public APIs: {}; \
             unused public APIs: {}\n",
            s.det_endpoints,
            s.panic_per_crate.values().sum::<usize>(),
            s.unused_public.len()
        ));
        out.push_str(&format!(
            "  findings: {} deny, {} warn\n",
            self.report.deny, self.report.warn
        ));
        out
    }

    /// JSON rendering: the findings report wrapped with the summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        let root = Value::Map(vec![
            ("report".to_string(), self.report.to_value()),
            ("summary".to_string(), self.summary.to_value()),
        ]);
        serde_json::to_string_pretty(&root).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

/// Run the deep pass over in-memory `(path, source)` pairs.
#[must_use]
pub fn analyze_files(files: &[(String, String)], cfg: &Config, opts: &DeepOptions) -> DeepResult {
    let workspace: Vec<(String, String)> =
        files.iter().filter(|(path, _)| !unused::is_root_file(path)).cloned().collect();
    let g = graph::build(&workspace, cfg);
    let mut findings = Vec::new();

    let (taint_findings, det_endpoints) = taint::run(&g, cfg);
    findings.extend(taint_findings);

    let reach = reach::run(&g, cfg, opts.baseline.as_ref());
    findings.extend(reach.findings);

    findings.extend(locks::run(&g, cfg));
    findings.extend(unresolved_findings(&g, cfg));

    let rooted = (workspace.len() < files.len()).then(|| graph::build(files, cfg));
    let unused = unused::run(&g, rooted.as_ref(), cfg, opts.unused_baseline.as_ref());
    findings.extend(unused.findings);

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
    DeepResult {
        report: Report::from_findings(findings),
        summary,
        callgraph_json: g.to_canonical_json(),
    }
}

/// Run the deep pass over the workspace at `root`.
#[must_use]
pub fn analyze_workspace(root: &Path, cfg: &Config, opts: &DeepOptions) -> DeepResult {
    let mut paths = Vec::new();
    let mut dir_errors = Vec::new();
    for dir in ["crates", "periodbench/src", "examples"] {
        source::collect_rs(&root.join(dir), &mut paths, &mut dir_errors);
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel: String = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        if let Ok(src) = std::fs::read_to_string(&path) {
            files.push((rel, src));
        }
        // Unreadable files/dirs are the source engine's `source/unparsed`
        // findings; the deep pass analyzes what is readable.
    }
    analyze_files(&files, cfg, opts)
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
fn unresolved_findings(g: &CallGraph, cfg: &Config) -> Vec<Diagnostic> {
    let level = cfg.level(UNRESOLVED_RULE).unwrap_or(Level::Warn);
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
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
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
