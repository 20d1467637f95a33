//! Interprocedural determinism taint.
//!
//! Sources are the per-node nondeterminism sites the graph builder
//! finalized (wall clock, unseeded RNG, hash-map iteration, channel
//! receive order, lock acquisition under `thread::scope`). Taint flows
//! *backwards* along call edges: a function on a declared deterministic
//! path that transitively calls a source-carrying function is tainted.
//!
//! Only chains of length ≥ 2 are reported here — a source *inside* a
//! deterministic-path file is already the per-file engine's finding
//! (`determinism/*`); the deep pass owns the cross-function leaks the
//! per-file view cannot see. Findings carry the full call chain as
//! evidence and are waivable only at the chain's *endpoint* (the
//! deterministic function), so every waiver is visible where the
//! guarantee is declared.

use std::collections::VecDeque;

use crate::config;
use crate::diag::Diagnostic;
use crate::graph::CallGraph;

/// Rule id for tainted deterministic paths.
pub const RULE: &str = "deep/determinism-taint";

/// Run the taint analysis. Returns findings plus the number of
/// deterministic endpoints checked.
#[must_use]
pub fn run(graph: &CallGraph) -> (Vec<Diagnostic>, usize) {
    let adj = graph.out_adjacency();
    let level = config::level(RULE);
    let mut findings = Vec::new();
    let mut checked = 0usize;

    for (start, node) in graph.nodes.iter().enumerate() {
        if !node.det {
            continue;
        }
        checked += 1;
        if graph.waived(&node.file, RULE, node.line) {
            continue;
        }
        // BFS over callees; sorted adjacency makes the traversal (and so
        // the reported chains) deterministic.
        let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
        let mut seen = vec![false; graph.nodes.len()];
        let mut queue = VecDeque::new();
        seen[start] = true;
        queue.push_back(start);
        // One finding per distinct source-carrying callee, shortest chain
        // first.
        while let Some(cur) = queue.pop_front() {
            if cur != start && !graph.nodes[cur].sources.is_empty() {
                let chain = chain_to(&parent, start, cur, graph);
                let src = &graph.nodes[cur].sources[0];
                let sn = &graph.nodes[cur];
                findings.push(
                    Diagnostic::new(
                        RULE,
                        level,
                        &node.file,
                        node.line,
                        1,
                        format!(
                            "deterministic function `{}` reaches {} source ({}) at {}:{}",
                            node.id, src.kind, src.what, sn.file, src.line
                        ),
                    )
                    .with_note(format!(
                        "call chain: {chain}; make the callee deterministic or waive at \
                         the endpoint with `// smn-lint: allow({RULE}) -- <why>`"
                    )),
                );
                // Taint is established for this endpoint through this
                // node; don't walk past a source — deeper chains through
                // it add noise, not evidence.
                continue;
            }
            for &(next, _) in &adj[cur] {
                if !seen[next] {
                    seen[next] = true;
                    parent[next] = Some(cur);
                    queue.push_back(next);
                }
            }
        }
    }
    (findings, checked)
}

/// Render `start -> .. -> end` as function ids.
fn chain_to(parent: &[Option<usize>], start: usize, end: usize, graph: &CallGraph) -> String {
    let mut ids = vec![end];
    let mut cur = end;
    while cur != start {
        match parent[cur] {
            Some(p) => {
                ids.push(p);
                cur = p;
            }
            None => break,
        }
    }
    ids.reverse();
    ids.iter().map(|&i| graph.nodes[i].id.as_str()).collect::<Vec<_>>().join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::graph;

    fn run_on(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        run(&graph::build(&owned, &Config::default())).0
    }

    #[test]
    fn det_endpoint_reaching_wall_clock_is_tainted() {
        let f = run_on(&[
            ("crates/coverage/src/lib.rs", "pub fn evaluate() { smn_core::stamp(); }\n"),
            ("crates/core/src/util.rs", "pub fn stamp() -> u64 { let t = SystemTime::now(); 0 }\n"),
        ]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE);
        assert_eq!(f[0].file, "crates/coverage/src/lib.rs");
        assert!(f[0].message.contains("wall-clock"));
        assert!(f[0].note.contains("coverage::evaluate -> core::util::stamp"), "{}", f[0].note);
    }

    #[test]
    fn same_function_source_is_per_file_territory() {
        // A source inside the det function itself is the per-file
        // engine's finding, not a deep chain.
        let f = run_on(&[(
            "crates/coverage/src/lib.rs",
            "pub fn evaluate() -> u64 { let t = SystemTime::now(); 0 }\n",
        )]);
        assert!(f.is_empty());
    }

    #[test]
    fn endpoint_waiver_suppresses_the_chain() {
        let f = run_on(&[
            (
                "crates/coverage/src/lib.rs",
                "// smn-lint: allow(deep/determinism-taint) -- timing is advisory here\n\
                 pub fn evaluate() { smn_core::stamp(); }\n",
            ),
            ("crates/core/src/util.rs", "pub fn stamp() -> u64 { let t = SystemTime::now(); 0 }\n"),
        ]);
        assert!(f.is_empty());
    }

    #[test]
    fn non_det_callers_are_not_endpoints() {
        let f = run_on(&[
            ("crates/te/src/lib.rs", "pub fn plan() { smn_core::stamp(); }\n"),
            ("crates/core/src/util.rs", "pub fn stamp() -> u64 { let t = SystemTime::now(); 0 }\n"),
        ]);
        assert!(f.is_empty());
    }
}
