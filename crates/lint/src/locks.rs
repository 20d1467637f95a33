//! Concurrency discipline: lock-acquisition order and scoped-collection
//! order.
//!
//! **Lock order.** Every `Mutex`/`RwLock` acquisition the graph builder
//! typed gets a stable identity (`Type.field`, `fn-id::local`,
//! `crate::STATIC`). An edge `A → B` means some function acquires `B`
//! while a guard for `A` is still live — either directly in one body, or
//! by calling (guard held) into a function whose transitive lock set
//! contains `B`. A cycle in that graph is a potential deadlock under
//! interleaving and is always a deny; the finding carries the full cycle
//! with the acquisition sites as provenance. The shard-merge idiom
//! planned for `crates/incident/src/eval.rs` (ROADMAP item 1) is the
//! first intended customer.
//!
//! **Scope order.** Pushing into a lock-guarded collection from inside
//! `thread::scope` spawns makes the collection's order depend on thread
//! completion order. On deterministic paths that is an ordering bug even
//! though no deadlock exists, so it gets its own rule
//! (`deep/scope-order`) with the fix spelled out: collect per-thread
//! results via the join handles, in spawn order.

use std::collections::BTreeMap;

use crate::config;
use crate::diag::Diagnostic;
use crate::graph::CallGraph;

/// Rule id for lock-order cycles.
pub const CYCLE_RULE: &str = "deep/lock-order-cycle";
/// Rule id for order-sensitive collection in scoped spawns.
pub const SCOPE_RULE: &str = "deep/scope-order";

/// One lock-order edge with provenance.
#[derive(Debug, Clone)]
struct OrderEdge {
    /// Lock held.
    from: String,
    /// Lock acquired under it.
    to: String,
    /// Where: `file:line` of the inner acquisition (or the call site).
    site: (String, u32),
    /// Function id the evidence lives in.
    via: String,
}

/// Run both concurrency rules.
#[must_use]
pub fn run(graph: &CallGraph) -> Vec<Diagnostic> {
    let mut findings = scope_order(graph);
    findings.extend(lock_cycles(graph));
    findings
}

fn scope_order(graph: &CallGraph) -> Vec<Diagnostic> {
    let level = config::level(SCOPE_RULE);
    let mut findings = Vec::new();
    for m in &graph.scope_mutations {
        let node = &graph.nodes[m.node];
        if !node.det {
            continue;
        }
        if graph.waived(&node.file, SCOPE_RULE, m.line) {
            continue;
        }
        findings.push(
            Diagnostic::new(
                SCOPE_RULE,
                level,
                &node.file,
                m.line,
                m.col,
                format!(
                    "`{}` into `{}` from a scoped spawn in `{}`: result order depends \
                     on thread completion order",
                    m.method, m.lock, node.id
                ),
            )
            .with_note(
                "return per-thread results from the closures and collect them from the \
                 join handles in spawn order"
                    .to_string(),
            ),
        );
    }
    findings
}

fn lock_cycles(graph: &CallGraph) -> Vec<Diagnostic> {
    let level = config::level(CYCLE_RULE);
    let adj = graph.out_adjacency();

    // Transitive lock sets per node (locks acquired here or in any
    // callee), to a fixpoint.
    let n = graph.nodes.len();
    let mut lock_sets: Vec<Vec<String>> = graph
        .nodes
        .iter()
        .map(|node| {
            let mut s: Vec<String> = node.locks.iter().map(|l| l.lock.clone()).collect();
            s.sort();
            s.dedup();
            s
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut merged = lock_sets[i].clone();
            for &(callee, _) in &adj[i] {
                for l in &lock_sets[callee] {
                    if !merged.contains(l) {
                        merged.push(l.clone());
                        changed = true;
                    }
                }
            }
            merged.sort();
            lock_sets[i] = merged;
        }
        if !changed {
            break;
        }
    }

    // Order edges.
    let mut edges: Vec<OrderEdge> = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        // Direct: lock B acquired inside lock A's held range.
        for a in &node.locks {
            for b in &node.locks {
                if a.lock != b.lock && b.tok > a.tok && b.tok <= a.held_until {
                    edges.push(OrderEdge {
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        site: (node.file.clone(), b.line),
                        via: node.id.clone(),
                    });
                }
            }
            // Interprocedural: a call made under guard A reaches callee
            // locks.
            for e in graph.edges.iter().filter(|e| e.caller == i) {
                if e.tok > a.tok && e.tok <= a.held_until {
                    for l in &lock_sets[e.callee] {
                        if *l != a.lock {
                            edges.push(OrderEdge {
                                from: a.lock.clone(),
                                to: l.clone(),
                                site: (node.file.clone(), e.line),
                                via: format!(
                                    "{} (call into {})",
                                    node.id, graph.nodes[e.callee].id
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    edges.sort_by(|x, y| (&x.from, &x.to, &x.site, &x.via).cmp(&(&y.from, &y.to, &y.site, &y.via)));
    edges.dedup_by(|x, y| x.from == y.from && x.to == y.to && x.site == y.site);

    // Cycle detection over the lock-order graph.
    let mut lock_ids: Vec<String> = Vec::new();
    for e in &edges {
        if !lock_ids.contains(&e.from) {
            lock_ids.push(e.from.clone());
        }
        if !lock_ids.contains(&e.to) {
            lock_ids.push(e.to.clone());
        }
    }
    lock_ids.sort();
    let index: BTreeMap<&str, usize> =
        lock_ids.iter().enumerate().map(|(i, l)| (l.as_str(), i)).collect();
    let m = lock_ids.len();
    let mut ladj: Vec<Vec<usize>> = vec![Vec::new(); m];
    for e in &edges {
        let (f, t) = (index[e.from.as_str()], index[e.to.as_str()]);
        if !ladj[f].contains(&t) {
            ladj[f].push(t);
        }
    }
    for row in &mut ladj {
        row.sort_unstable();
    }

    let mut cycles: Vec<Vec<usize>> = Vec::new();
    let mut color = vec![0u8; m]; // 0 unvisited, 1 on stack, 2 done
    let mut stack: Vec<usize> = Vec::new();
    for start in 0..m {
        if color[start] == 0 {
            dfs(start, &ladj, &mut color, &mut stack, &mut cycles);
        }
    }

    // Canonicalize: rotate each cycle to its minimum lock, dedup.
    let mut seen: Vec<Vec<usize>> = Vec::new();
    let mut findings = Vec::new();
    for cycle in cycles {
        let min_pos =
            cycle.iter().enumerate().min_by_key(|(_, &l)| &lock_ids[l]).map_or(0, |(p, _)| p);
        let mut rotated = cycle[min_pos..].to_vec();
        rotated.extend_from_slice(&cycle[..min_pos]);
        if seen.contains(&rotated) {
            continue;
        }
        seen.push(rotated.clone());

        let names: Vec<&str> = rotated.iter().map(|&l| lock_ids[l].as_str()).collect();
        // Provenance: the edge realizing the first hop.
        let first_edge =
            edges.iter().find(|e| e.from == names[0] && e.to == names[1 % names.len()]);
        let (file, line, via) = match first_edge {
            Some(e) => (e.site.0.clone(), e.site.1, e.via.clone()),
            None => (String::new(), 0, String::new()),
        };
        if graph.waived(&file, CYCLE_RULE, line) {
            continue;
        }
        let mut ring = names.join(" -> ");
        ring.push_str(" -> ");
        ring.push_str(names[0]);
        findings.push(
            Diagnostic::new(
                CYCLE_RULE,
                level,
                &file,
                line,
                1,
                format!("lock-order cycle: {ring} (first hop in `{via}`)"),
            )
            .with_note(
                "acquire these locks in one global order everywhere, or merge them \
                 behind a single lock"
                    .to_string(),
            ),
        );
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings
}

/// DFS collecting one cycle per back edge.
fn dfs(
    cur: usize,
    adj: &[Vec<usize>],
    color: &mut [u8],
    stack: &mut Vec<usize>,
    cycles: &mut Vec<Vec<usize>>,
) {
    color[cur] = 1;
    stack.push(cur);
    for &next in &adj[cur] {
        if color[next] == 1 {
            if let Some(pos) = stack.iter().position(|&x| x == next) {
                cycles.push(stack[pos..].to_vec());
            }
        } else if color[next] == 0 {
            dfs(next, adj, color, stack, cycles);
        }
    }
    stack.pop();
    color[cur] = 2;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::diag::Level;
    use crate::graph;

    fn analyze(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        run(&graph::build(&owned, &Config::default()))
    }

    const CYCLIC: &str = "pub struct Store { a: Mutex<u64>, b: Mutex<u64> }\n\
         impl Store {\n\
             pub fn ab(&self) {\n        let g = self.a.lock();\n        self.b.lock().checked_add(1);\n    }\n\
             pub fn ba(&self) {\n        let g = self.b.lock();\n        self.a.lock().checked_add(1);\n    }\n\
         }\n";

    #[test]
    fn opposite_orders_form_a_cycle() {
        let f = analyze(&[("crates/datalake/src/store.rs", CYCLIC)]);
        let cycles: Vec<_> = f.iter().filter(|d| d.rule == CYCLE_RULE).collect();
        assert_eq!(cycles.len(), 1, "{f:?}");
        assert!(cycles[0].message.contains("Store.a -> Store.b -> Store.a"));
        assert_eq!(cycles[0].level, Level::Deny);
    }

    #[test]
    fn consistent_order_is_clean() {
        let f = analyze(&[(
            "crates/datalake/src/store.rs",
            "pub struct Store { a: Mutex<u64>, b: Mutex<u64> }\n\
             impl Store {\n\
                 pub fn ab(&self) {\n        let g = self.a.lock();\n        self.b.lock().checked_add(1);\n    }\n\
                 pub fn ab2(&self) {\n        let g = self.a.lock();\n        self.b.lock().checked_add(2);\n    }\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn interprocedural_cycle_via_callee_lock_set() {
        let f = analyze(&[(
            "crates/datalake/src/store.rs",
            "pub struct Store { a: Mutex<u64>, b: Mutex<u64> }\n\
             impl Store {\n\
                 pub fn outer(&self) {\n        let g = self.a.lock();\n        self.touch_b();\n    }\n\
                 fn touch_b(&self) {\n        self.b.lock().checked_add(1);\n    }\n\
                 pub fn reversed(&self) {\n        let g = self.b.lock();\n        self.a.lock().checked_add(1);\n    }\n\
             }\n",
        )]);
        assert!(f.iter().any(|d| d.rule == CYCLE_RULE), "{f:?}");
    }

    #[test]
    fn temporary_guard_does_not_hold() {
        // `a.lock()` as a temporary drops at the statement's end; the
        // later `b.lock()` is not "under" it.
        let f = analyze(&[(
            "crates/datalake/src/store.rs",
            "pub struct Store { a: Mutex<u64>, b: Mutex<u64> }\n\
             impl Store {\n\
                 pub fn ab(&self) {\n        self.a.lock().checked_add(1);\n        self.b.lock().checked_add(1);\n    }\n\
                 pub fn ba(&self) {\n        self.b.lock().checked_add(1);\n        self.a.lock().checked_add(1);\n    }\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scoped_push_on_det_path_is_denied() {
        let f = analyze(&[(
            "crates/coverage/src/lib.rs",
            "pub fn fan_out(results: Mutex<Vec<u64>>) {\n    std::thread::scope(|s| {\n        s.spawn(|| { results.lock().push(1); });\n    });\n}\n",
        )]);
        let scope: Vec<_> = f.iter().filter(|d| d.rule == SCOPE_RULE).collect();
        assert_eq!(scope.len(), 1, "{f:?}");
        assert!(scope[0].message.contains("completion order"));
    }

    #[test]
    fn scoped_push_off_det_path_is_not_flagged() {
        let f = analyze(&[(
            "crates/incident/src/eval.rs",
            "pub fn fan_out(results: Mutex<Vec<u64>>) {\n    std::thread::scope(|s| {\n        s.spawn(|| { results.lock().push(1); });\n    });\n}\n",
        )]);
        assert!(f.iter().all(|d| d.rule != SCOPE_RULE), "{f:?}");
    }

    #[test]
    fn cycle_waiver_at_first_hop_suppresses() {
        let src = "pub struct Store { a: Mutex<u64>, b: Mutex<u64> }\n\
             impl Store {\n\
                 pub fn ab(&self) {\n        let g = self.a.lock();\n        self.b.lock().checked_add(1); // smn-lint: allow(deep/lock-order-cycle) -- ba() is test-only scaffolding\n    }\n\
                 pub fn ba(&self) {\n        let g = self.b.lock();\n        self.a.lock().checked_add(1);\n    }\n\
             }\n";
        let f = analyze(&[("crates/datalake/src/store.rs", src)]);
        assert!(f.iter().all(|d| d.rule != CYCLE_RULE), "{f:?}");
    }
}
