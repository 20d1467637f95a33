//! Interprocedural panic reachability, ratcheted by a committed baseline.
//!
//! A function *can panic* when it holds an unwaived local panic site
//! (`panic!`-family macro, assert, `.unwrap()`, `.expect()`, slice
//! indexing) or transitively calls one that can. The analysis reports
//! every **public API function in library code** that can panic, with the
//! shortest witness chain to a concrete site.
//!
//! The count is ratcheted per crate through `panic-baseline.txt` (the
//! same idiom as `clippy-baseline.txt`): a crate exceeding its committed
//! count is a deny, and the offending endpoints are reported with their
//! witnesses as evidence. Without a baseline (fixture runs,
//! `--write-baselines`), every reachable endpoint is reported as a
//! warn finding so the full surface is visible.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::config;
use crate::diag::{Diagnostic, Level};
use crate::graph::extract::PanicKind;
use crate::graph::CallGraph;

/// Rule id for per-endpoint reachability witnesses.
pub const RULE: &str = "deep/panic-reachability";
/// Rule id for a crate exceeding its committed baseline.
pub const BASELINE_RULE: &str = "deep/panic-baseline";
/// The header of `panic-baseline.txt`.
pub const BASELINE_HEADER: &str = "# Panic-reachability ratchet: public library API functions per \
                                   crate that can\n# transitively reach a panic site.\n";

/// One public endpoint that can reach a panic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Witness {
    /// Endpoint function id.
    pub endpoint: String,
    /// Call chain from the endpoint to the panicking function.
    pub chain: Vec<String>,
    /// The concrete site: `file:line (what)`.
    pub site: String,
}

/// Full analysis output.
#[derive(Debug, Clone, Default)]
pub struct ReachResult {
    /// Findings (per-endpoint warns without a baseline; denies over it).
    pub findings: Vec<Diagnostic>,
    /// Public library endpoints that can panic, sorted by id.
    pub witnesses: Vec<Witness>,
    /// Panic-capable public endpoints per crate.
    pub per_crate: BTreeMap<String, usize>,
}

/// Parse a baseline file (`panic-baseline.txt`, `unused-baseline.txt`):
/// one `crate count` pair per line, `#` comments allowed.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut map = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(krate), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("line {}: expected `crate count`", ln + 1));
        };
        let count: usize =
            count.parse().map_err(|_| format!("line {}: bad count `{count}`", ln + 1))?;
        map.insert(krate.to_string(), count);
    }
    Ok(map)
}

/// Render a per-crate map in baseline format under `header`, the `#`
/// comment lines that say what is counted.
#[must_use]
pub fn render_baseline(header: &str, per_crate: &BTreeMap<String, usize>) -> String {
    let mut out = format!(
        "{header}# Regenerate with:\n#   smn-lint --deep --write-baselines\n# Counts may only go down.\n"
    );
    for (krate, count) in per_crate {
        out.push_str(&format!("{krate} {count}\n"));
    }
    out
}

/// Run the analysis. `baseline` is `Some` when a committed
/// `panic-baseline.txt` is in force.
#[must_use]
pub fn run(graph: &CallGraph, baseline: Option<&BTreeMap<String, usize>>) -> ReachResult {
    let n = graph.nodes.len();
    let adj = graph.out_adjacency();
    let radj = graph.in_adjacency();

    // Unwaived local sites per node. A deep waiver at the site line, or a
    // clippy waiver of the lint that denies the site, blesses it: a site
    // the charter already blessed is not re-litigated here.
    let mut local: Vec<Vec<(PanicKind, u32, u32)>> = vec![Vec::new(); n];
    for (i, node) in graph.nodes.iter().enumerate() {
        for p in &node.panics {
            let waived = |rule: &str| graph.waived(&node.file, rule, p.line);
            if !waived(RULE) && !p.kind.lints().iter().any(|lint| waived(lint)) {
                local[i].push((p.kind, p.line, p.col));
            }
        }
    }

    // can-panic: reverse BFS from nodes with local sites.
    let mut can_panic = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for i in 0..n {
        if !local[i].is_empty() {
            can_panic[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &caller in &radj[cur] {
            if !can_panic[caller] {
                can_panic[caller] = true;
                queue.push_back(caller);
            }
        }
    }

    // Witnesses: shortest chain endpoint → site via forward BFS over
    // can-panic nodes only.
    let mut witnesses = Vec::new();
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    let mut endpoint_info: Vec<(usize, Witness)> = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !(node.public && node.lib && can_panic[i]) {
            continue;
        }
        if graph.waived(&node.file, RULE, node.line) {
            continue;
        }
        let w = witness_for(i, graph, &adj, &local);
        per_crate.entry(node.krate.clone()).and_modify(|c| *c += 1).or_insert(1);
        endpoint_info.push((i, w.clone()));
        witnesses.push(w);
    }
    witnesses.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));

    let mut findings = Vec::new();
    match baseline {
        None => {
            // No ratchet in force: every endpoint is a warn finding with
            // its witness, so fixture runs see exact spans.
            for (i, w) in &endpoint_info {
                let node = &graph.nodes[*i];
                findings.push(
                    Diagnostic::new(
                        RULE,
                        Level::Warn,
                        &node.file,
                        node.line,
                        1,
                        format!("public API `{}` can reach a panic: {}", node.id, w.site),
                    )
                    .with_note(format!("witness: {}", w.chain.join(" -> "))),
                );
            }
        }
        Some(base) => {
            let level = config::level(BASELINE_RULE);
            for (krate, &count) in &per_crate {
                let allowed = base.get(krate).copied().unwrap_or(0);
                if count <= allowed {
                    continue;
                }
                findings.push(
                    Diagnostic::new(
                        BASELINE_RULE,
                        level,
                        "panic-baseline.txt",
                        0,
                        0,
                        format!(
                            "crate `{krate}`: {count} public API function(s) can reach a \
                             panic, baseline allows {allowed}"
                        ),
                    )
                    .with_note(
                        "fix the new panic path or, if intentional, regenerate with \
                         --write-baselines and justify the increase in review"
                            .to_string(),
                    ),
                );
                // Evidence: the endpoints in the offending crate.
                for (i, w) in &endpoint_info {
                    let node = &graph.nodes[*i];
                    if node.krate == *krate {
                        findings.push(
                            Diagnostic::new(
                                RULE,
                                Level::Warn,
                                &node.file,
                                node.line,
                                1,
                                format!("public API `{}` can reach a panic: {}", node.id, w.site),
                            )
                            .with_note(format!("witness: {}", w.chain.join(" -> "))),
                        );
                    }
                }
            }
        }
    }

    ReachResult { findings, witnesses, per_crate }
}

/// Shortest chain from `start` to any node with a local site.
fn witness_for(
    start: usize,
    graph: &CallGraph,
    adj: &[Vec<(usize, u32)>],
    local: &[Vec<(PanicKind, u32, u32)>],
) -> Witness {
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut seen = vec![false; graph.nodes.len()];
    let mut queue = VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    let mut hit = start;
    'bfs: while let Some(cur) = queue.pop_front() {
        if !local[cur].is_empty() {
            hit = cur;
            break 'bfs;
        }
        for &(next, _) in &adj[cur] {
            if !seen[next] {
                seen[next] = true;
                parent[next] = Some(cur);
                queue.push_back(next);
            }
        }
    }
    let mut ids = vec![hit];
    let mut cur = hit;
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
    let chain: Vec<String> = ids.iter().map(|&i| graph.nodes[i].id.clone()).collect();
    let site = local[hit]
        .first()
        .map(|(kind, line, _)| format!("{}:{} ({})", graph.nodes[hit].file, line, kind.label()))
        .unwrap_or_else(|| format!("{} (unlocated)", graph.nodes[hit].file));
    Witness { endpoint: graph.nodes[start].id.clone(), chain, site }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::graph;

    fn analyze(files: &[(&str, &str)], baseline: Option<&BTreeMap<String, usize>>) -> ReachResult {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        run(&graph::build(&owned, &Config::default()), baseline)
    }

    const TREE: &[(&str, &str)] = &[
        (
            "crates/core/src/lib.rs",
            "pub fn api() { inner(); }\nfn inner(v: Vec<u32>) -> u32 { v[0] }\npub fn safe() -> u32 { 1 }\n",
        ),
    ];

    #[test]
    fn witness_chain_reaches_the_site() {
        let r = analyze(TREE, None);
        assert_eq!(r.witnesses.len(), 1);
        let w = &r.witnesses[0];
        assert_eq!(w.endpoint, "core::api");
        assert_eq!(w.chain, vec!["core::api".to_string(), "core::inner".to_string()]);
        assert!(w.site.contains("slice indexing"), "{}", w.site);
        assert_eq!(r.per_crate.get("core"), Some(&1));
        // Without a baseline the endpoint is a warn finding.
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, RULE);
        assert_eq!(r.findings[0].level, Level::Warn);
    }

    #[test]
    fn baseline_within_budget_is_clean() {
        let mut base = BTreeMap::new();
        base.insert("core".to_string(), 1usize);
        let r = analyze(TREE, Some(&base));
        assert!(r.findings.is_empty());
        assert_eq!(r.witnesses.len(), 1);
    }

    #[test]
    fn baseline_exceeded_is_a_deny_with_evidence() {
        let base = BTreeMap::new();
        let r = analyze(TREE, Some(&base));
        let denies: Vec<_> = r.findings.iter().filter(|d| d.rule == BASELINE_RULE).collect();
        assert_eq!(denies.len(), 1);
        assert_eq!(denies[0].level, Level::Deny);
        assert!(r.findings.iter().any(|d| d.rule == RULE));
    }

    #[test]
    fn waived_site_does_not_count() {
        let r = analyze(
            &[(
                "crates/core/src/lib.rs",
                "pub fn api() -> u32 { idx() }\n\
                 fn idx(v: Vec<u32>) -> u32 {\n    v[0] // smn-lint: allow(deep/panic-reachability) -- bounds checked by caller\n}\n",
            )],
            None,
        );
        assert!(r.witnesses.is_empty(), "{:?}", r.witnesses);
    }

    #[test]
    fn baseline_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("core".to_string(), 3usize);
        m.insert("te".to_string(), 0usize);
        let text = render_baseline(BASELINE_HEADER, &m);
        assert_eq!(parse_baseline(&text).unwrap(), m);
        assert!(parse_baseline("core x\n").is_err());
    }
}
