//! Public library API that nothing runs, ratcheted by a committed baseline.
//!
//! A forward reachability pass over the deep call graph. The roots are
//! every function outside library code (binaries, `crates/*/examples`,
//! the operator CLI), every trait-impl method (derives and std generics
//! call them unseen), plus the functions of `periodbench/src/` and the
//! top-level `examples/`. Those root files are parsed into a second graph
//! for this report only, so they never enter the panic, taint or lock
//! analyses. Test code is never a root: the graph holds no `tests/` file,
//! no test-only item and no doctest.
//!
//! The pass stays conservative: an unresolved call reaches every one of
//! its candidates, and so do the graph's `refs` (a fn item named as a
//! value, a std-named method on an untypeable receiver). A public library
//! function that no root reaches is *unused*. The count is ratcheted per
//! crate through `unused-baseline.txt`, in the format of
//! `panic-baseline.txt`: a crate over its committed count is a deny that
//! names its unused functions. Without a baseline, each unused function is
//! a warn finding.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config;
use crate::diag::{Diagnostic, Level};
use crate::graph::{CallGraph, Node};

/// Rule id for unused public API (per-function warns and the baseline deny).
pub const RULE: &str = "deep/unused-public";
/// The header of `unused-baseline.txt`.
pub const BASELINE_HEADER: &str =
    "# Unused-public ratchet: public library API functions per crate \
                                   that no\n# binary, example, CLI command or periodbench \
                                   function reaches.\n";

/// Files that only root the report: the benchmark driver and the
/// top-level examples.
#[must_use]
pub(crate) fn is_root_file(path: &str) -> bool {
    path.starts_with("periodbench/") || path.starts_with("examples/")
}

/// Full analysis output.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnusedResult {
    /// Findings (per-function warns without a baseline; denies over it).
    pub findings: Vec<Diagnostic>,
    /// Unused public library functions, sorted by id.
    pub unused: Vec<String>,
    /// Unused public library functions per crate.
    pub per_crate: BTreeMap<String, usize>,
}

/// Run the report over the workspace graph `graph`. `rooted` is the graph
/// of the workspace plus the root files, when there are any; `baseline` is
/// `Some` when a committed `unused-baseline.txt` is in force.
#[must_use]
pub(crate) fn run(
    graph: &CallGraph,
    rooted: Option<&CallGraph>,
    baseline: Option<&BTreeMap<String, usize>>,
) -> UnusedResult {
    let in_examples = |n: &Node| n.file.contains("/examples/");
    let mut reached = reached_ids(graph, |n| !n.lib || in_examples(n) || n.trait_impl);
    if let Some(rooted) = rooted {
        reached.extend(reached_ids(rooted, |n| is_root_file(&n.file)));
    }
    let unused: Vec<&Node> = graph
        .nodes
        .iter()
        .filter(|n| n.public && n.lib && !in_examples(n) && !reached.contains(n.id.as_str()))
        .collect();
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    for n in &unused {
        *per_crate.entry(n.krate.clone()).or_default() += 1;
    }

    let findings = match baseline {
        None => unused
            .iter()
            .map(|n| {
                Diagnostic::new(
                    RULE,
                    Level::Warn,
                    &n.file,
                    n.line,
                    1,
                    format!(
                        "public API `{}` is reached by no binary, example, CLI command or \
                         periodbench function",
                        n.id
                    ),
                )
            })
            .collect(),
        Some(base) => {
            let level = config::level(RULE);
            let mut findings = Vec::new();
            for (krate, &count) in &per_crate {
                let allowed = base.get(krate).copied().unwrap_or(0);
                if count <= allowed {
                    continue;
                }
                let names: Vec<&str> =
                    unused.iter().filter(|n| n.krate == *krate).map(|n| n.id.as_str()).collect();
                findings.push(
                    Diagnostic::new(
                        RULE,
                        level,
                        "unused-baseline.txt",
                        0,
                        0,
                        format!(
                            "crate `{krate}`: {count} public API function(s) reached from no \
                             root, baseline allows {allowed}: {}",
                            names.join(", ")
                        ),
                    )
                    .with_note(
                        "call the new function from a root or delete it; tests do not count"
                            .to_string(),
                    ),
                );
            }
            findings
        }
    };
    let unused = unused.iter().map(|n| n.id.clone()).collect();
    UnusedResult { findings, unused, per_crate }
}

/// Ids of the nodes reachable from `root` nodes over calls, every
/// candidate of an unresolved call, and the graph's `refs`.
fn reached_ids(g: &CallGraph, root: impl Fn(&Node) -> bool) -> BTreeSet<&str> {
    let mut next: Vec<Vec<usize>> = vec![Vec::new(); g.nodes.len()];
    let calls = g.edges.iter().map(|e| (e.caller, e.callee));
    let unresolved = g.unresolved.iter().flat_map(|u| u.candidates.iter().map(|&c| (u.caller, c)));
    for (from, to) in calls.chain(unresolved).chain(g.refs.iter().copied()) {
        if let Some(out) = next.get_mut(from) {
            out.push(to);
        }
    }
    let mut seen: Vec<bool> = g.nodes.iter().map(root).collect();
    let mut queue: VecDeque<usize> =
        seen.iter().enumerate().filter(|(_, &s)| s).map(|(i, _)| i).collect();
    while let Some(cur) = queue.pop_front() {
        for &to in next.get(cur).into_iter().flatten() {
            if let Some(s @ false) = seen.get_mut(to) {
                *s = true;
                queue.push_back(to);
            }
        }
    }
    g.nodes.iter().zip(seen).filter(|(_, s)| *s).map(|(n, _)| n.id.as_str()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::graph;

    fn analyze(files: &[(&str, &str)], baseline: Option<&BTreeMap<String, usize>>) -> UnusedResult {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        run(&graph::build(&owned, &Config::default()), None, baseline)
    }

    const TREE: &[(&str, &str)] = &[
        (
            "crates/core/src/lib.rs",
            "pub fn live() { helper(); }\nfn helper() {}\npub fn dead() {}\n\
             pub struct S;\nimpl S { pub fn new() -> S { S } }\n\
             impl Default for S { fn default() -> S { S::new() } }\n",
        ),
        ("crates/core/src/bin/run.rs", "fn main() { smn_core::live(); }\n"),
    ];

    #[test]
    fn a_function_no_root_reaches_is_a_warn() {
        let r = analyze(TREE, None);
        assert_eq!(r.unused, vec!["core::dead".to_string()]);
        assert_eq!(r.per_crate.get("core"), Some(&1));
        assert_eq!(r.findings.len(), 1);
        assert_eq!((r.findings[0].level, r.findings[0].line), (Level::Warn, 3));
    }

    #[test]
    fn over_baseline_is_a_deny_naming_the_functions() {
        let mut base = BTreeMap::new();
        base.insert("core".to_string(), 1usize);
        assert!(analyze(TREE, Some(&base)).findings.is_empty());
        base.insert("core".to_string(), 0);
        let r = analyze(TREE, Some(&base));
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].level, Level::Deny);
        assert!(r.findings[0].message.contains("core::dead"), "{}", r.findings[0].message);
    }
}
