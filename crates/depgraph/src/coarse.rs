//! Coarse Dependency Graphs (CDGs): team-level dependencies.
//!
//! "A coarse-grained dependency graph (CDG) shows dependencies of various
//! services and teams … we propose the SMN only maintain a coarse dependency
//! graph for the cloud" (§5). A CDG is cheap to sketch and maintain — at the
//! cost of *false dependencies*: the CDG edge `A → B` exists if *any*
//! component of team A depends on any component of team B, so a fault in B
//! may appear to implicate components of A that are actually unaffected.
//! [`CoarseDepGraph::false_dependency_rate`] quantifies exactly that loss.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};
use smn_topology::artifact::{name_index_violations, under, Violation};
use smn_topology::graph::{DiGraph, NodeId};
use smn_topology::path;

use crate::delta::{DeltaError, GraphDelta};
use crate::fine::FineDepGraph;

/// A team: the node granularity of a CDG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Team {
    /// Team name, e.g. `"network"`.
    pub name: String,
    /// Number of fine-grained components the team owns (0 when the CDG was
    /// sketched by hand rather than derived).
    pub component_count: usize,
}

/// What one [`CoarseDepGraph::apply_delta`] call actually changed — the
/// incremental work, as opposed to the full-rebuild work a batch
/// [`CoarseDepGraph::from_fine`] would redo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CdgDeltaStats {
    /// Teams that did not exist before this delta.
    pub new_teams: usize,
    /// Component additions absorbed by already-existing teams.
    pub grown_teams: usize,
    /// Coarse edges induced for the first time by this delta.
    pub new_edges: usize,
}

/// A coarse (team-level) dependency graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CoarseDepGraph {
    /// Underlying graph; edges read "src team depends on dst team".
    pub graph: DiGraph<Team, ()>,
    name_index: HashMap<String, NodeId>,
}

impl CoarseDepGraph {
    /// Empty CDG.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a team node (for hand-sketched CDGs — "engineers can directly
    /// sketch the CDG and refine it over time", §5).
    ///
    /// # Panics
    /// Panics on duplicate team names.
    pub fn add_team(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        assert!(!self.name_index.contains_key(&name), "duplicate team {name}");
        let id = self.graph.add_node(Team { name: name.clone(), component_count: 0 });
        self.name_index.insert(name, id);
        id
    }

    /// Declare that team `src` depends on team `dst`. Duplicate edges are
    /// ignored (a CDG is a relation, not a multigraph).
    pub fn add_dependency(&mut self, src: NodeId, dst: NodeId) {
        if src != dst && self.graph.find_edge(src, dst).is_none() {
            self.graph.add_edge(src, dst, ());
        }
    }

    /// Team id by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Team payload.
    #[must_use]
    pub fn team(&self, id: NodeId) -> &Team {
        self.graph.node(id)
    }

    /// Number of teams.
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// True when the CDG has no teams.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.node_count() == 0
    }

    /// Team names in node order.
    #[must_use]
    pub fn team_names(&self) -> Vec<&str> {
        self.graph.nodes().map(|(_, t)| t.name.as_str()).collect()
    }

    /// Derive the CDG from a fine-grained graph: this is *coarsening* —
    /// mapping `Microservice → team dependency` (Table 2). Nodes merge by
    /// team; any cross-team fine edge induces the coarse edge.
    #[must_use]
    pub fn from_fine(fine: &FineDepGraph) -> Self {
        let contraction = fine.graph.contract(
            |_, c| c.team.clone(),
            |team, members| Team { name: team, component_count: members.len() },
            |_acc: Option<u32>, _| 1,
        );
        let mut cdg = CoarseDepGraph::new();
        for (_, t) in contraction.graph.nodes() {
            let id = cdg.graph.add_node(t.clone());
            cdg.name_index.insert(t.name.clone(), id);
        }
        for (_, e) in contraction.graph.edges() {
            cdg.add_dependency(e.src, e.dst);
        }
        cdg
    }

    /// Apply one tick of fine-graph churn incrementally, re-deriving only
    /// the coarse cells whose fine members changed: a component of a new
    /// team appends that team node; a component of a known team bumps its
    /// `component_count`; a cross-team dependency inserts the coarse edge
    /// if absent. `fine` must be the fine graph *after*
    /// [`GraphDelta::apply_to_fine`] — it resolves dependency endpoints to
    /// teams.
    ///
    /// Because both the fine graph and the CDG are append-only and
    /// [`FineDepGraph::graph`] contraction orders teams by first
    /// appearance (over nodes) and coarse edges by first occurrence (over
    /// edges), the patched CDG is *byte-identical* under
    /// [`CoarseDepGraph::canonical_bytes`] to a batch
    /// [`CoarseDepGraph::from_fine`] rebuild — `from_fine` stays the
    /// reconciliation oracle, it is never consulted on the hot path.
    ///
    /// # Errors
    /// [`DeltaError::UnknownComponent`] when a dependency endpoint or
    /// added component is missing from `fine`, and
    /// [`DeltaError::UnknownTeam`] when an endpoint's team is missing
    /// here (the CDG was not derived from this fine graph's history).
    /// The CDG may be partially updated on error; reconcile to recover.
    pub fn apply_delta(
        &mut self,
        fine: &FineDepGraph,
        delta: &GraphDelta,
    ) -> Result<CdgDeltaStats, DeltaError> {
        let mut stats = CdgDeltaStats::default();
        for c in &delta.add_components {
            if fine.by_name(&c.name).is_none() {
                return Err(DeltaError::UnknownComponent(c.name.clone()));
            }
            if let Some(&id) = self.name_index.get(&c.team) {
                self.graph.node_mut(id).component_count += 1;
                stats.grown_teams += 1;
            } else {
                let id = self.graph.add_node(Team { name: c.team.clone(), component_count: 1 });
                self.name_index.insert(c.team.clone(), id);
                stats.new_teams += 1;
            }
        }
        for d in &delta.add_dependencies {
            let team_of = |name: &str| -> Result<&str, DeltaError> {
                fine.by_name(name)
                    .map(|id| fine.component(id).team.as_str())
                    .ok_or_else(|| DeltaError::UnknownComponent(name.to_string()))
            };
            let (src_team, dst_team) = (team_of(&d.src)?, team_of(&d.dst)?);
            let coarse_of = |team: &str| -> Result<NodeId, DeltaError> {
                self.name_index
                    .get(team)
                    .copied()
                    .ok_or_else(|| DeltaError::UnknownTeam(team.to_string()))
            };
            let (src, dst) = (coarse_of(src_team)?, coarse_of(dst_team)?);
            let before = self.graph.edge_count();
            self.add_dependency(src, dst);
            if self.graph.edge_count() > before {
                stats.new_edges += 1;
            }
        }
        Ok(stats)
    }

    /// The canonical byte encoding of the CDG: team count, then each team
    /// in node order (name length, name bytes, component count), then edge
    /// count, then each edge in insertion order (src, dst). Two CDGs with
    /// equal canonical bytes are structurally identical *including node
    /// and edge order* — this is what streaming reconciliation compares,
    /// so incremental maintenance cannot silently drift from the
    /// [`CoarseDepGraph::from_fine`] oracle even in ways that a
    /// set-semantics comparison would forgive.
    #[must_use]
    #[allow(
        clippy::cast_possible_truncation,
        reason = "usize -> u64 cannot truncate on supported targets"
    )]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.graph.node_count() as u64).to_be_bytes());
        for (_, t) in self.graph.nodes() {
            out.extend_from_slice(&(t.name.len() as u64).to_be_bytes());
            out.extend_from_slice(t.name.as_bytes());
            out.extend_from_slice(&(t.component_count as u64).to_be_bytes());
        }
        out.extend_from_slice(&(self.graph.edge_count() as u64).to_be_bytes());
        for (_, e) in self.graph.edges() {
            out.extend_from_slice(&e.src.0.to_be_bytes());
            out.extend_from_slice(&e.dst.0.to_be_bytes());
        }
        out
    }

    /// Teams that transitively depend on `team` (including itself): the
    /// expected set of symptom-bearing teams if only `team` failed.
    #[must_use]
    pub fn dependents_of(&self, team: NodeId) -> HashSet<NodeId> {
        self.graph.reaching(team)
    }

    /// Fraction of implied component-level dependencies that are *false*:
    /// over all CDG edges `A → B` and component pairs `(a ∈ A, b ∈ B)`, the
    /// fraction with no fine-grained path `a ⇝ b`. Zero means the CDG is a
    /// lossless summary; higher values mean coarser routing (Table 2's
    /// "What's Lost" for CDGs).
    #[must_use]
    pub fn false_dependency_rate(&self, fine: &FineDepGraph) -> f64 {
        let mut implied = 0usize;
        let mut false_deps = 0usize;
        // Precompute per-component reachability sets lazily per source team.
        for (_, edge) in self.graph.edges() {
            let team_a = &self.team(edge.src).name;
            let team_b = &self.team(edge.dst).name;
            let comps_a = fine.team_components(team_a);
            let comps_b: HashSet<NodeId> = fine.team_components(team_b).into_iter().collect();
            for &a in &comps_a {
                let reach = fine.graph.reachable_from(a);
                for &b in &comps_b {
                    implied += 1;
                    if !reach.contains(&b) {
                        false_deps += 1;
                    }
                }
            }
        }
        if implied == 0 {
            0.0
        } else {
            false_deps as f64 / implied as f64
        }
    }

    /// Invariants of a deserialized CDG: graph integrity and a name
    /// index that agrees with the teams. Paths are relative to the CDG.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = under(&path!["graph"], DiGraph::violations(&self.graph));
        let names: Vec<&str> = self.graph.nodes().map(|(_, t)| t.name.as_str()).collect();
        out.extend(name_index_violations(&names, &self.name_index));
        out
    }
}

/// A fine dependency graph and, optionally, its coarse derivation: the
/// `cdg` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CdgArtifact {
    /// Artifact kind tag: always `"cdg"`.
    pub kind: String,
    /// The component-level graph.
    pub fine: FineDepGraph,
    /// The team-level graph derived from it.
    pub coarse: Option<CoarseDepGraph>,
}

impl CdgArtifact {
    /// Both graphs' own invariants, plus the L7 mapping between them:
    /// every team of the fine graph has a coarse node, and a recorded
    /// component count matches the team's fine population.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = under(&path!["fine"], FineDepGraph::violations(&self.fine));
        let Some(coarse) = &self.coarse else { return out };
        out.extend(under(&path!["coarse"], CoarseDepGraph::violations(coarse)));
        for team in self.fine.teams().iter().filter(|t| !t.is_empty()) {
            let fine_count = self.fine.team_components(team).len();
            let Some((ci, t)) = coarse.graph.nodes().find(|(_, t)| &t.name == team) else {
                out.push(Violation::new(
                    "artifact/missing-team",
                    path!["coarse"],
                    format!(
                        "team `{team}` owns {fine_count} fine component(s) but has no coarse node"
                    ),
                    "the coarse graph must cover every team in the fine graph",
                ));
                continue;
            };
            if t.component_count > 0 && t.component_count != fine_count {
                out.push(Violation::new(
                    "artifact/team-count",
                    path!["coarse", "graph", "nodes", ci.index(), "payload", "component_count"],
                    format!(
                        "coarse node `{team}` records {} component(s), but the fine graph has {fine_count}",
                        t.component_count
                    ),
                    "",
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fine::{Component, DependencyKind, Layer};

    fn comp(name: &str, team: &str) -> Component {
        Component {
            name: name.into(),
            service: name.split('-').next().unwrap_or(name).into(),
            team: team.into(),
            layer: Layer::Application,
        }
    }

    /// Two app components; only one depends on the single storage component.
    fn fine_with_partial_dep() -> FineDepGraph {
        let mut g = FineDepGraph::new();
        let a1 = g.add_component(comp("app-1", "app"));
        let _a2 = g.add_component(comp("app-2", "app"));
        let s1 = g.add_component(comp("db-1", "storage"));
        g.add_dependency(a1, s1, DependencyKind::Call);
        g
    }

    #[test]
    fn hand_sketched_cdg() {
        let mut cdg = CoarseDepGraph::new();
        let app = cdg.add_team("app");
        let net = cdg.add_team("network");
        cdg.add_dependency(app, net);
        cdg.add_dependency(app, net); // duplicate ignored
        cdg.add_dependency(app, app); // self-loop ignored
        assert_eq!(cdg.len(), 2);
        assert_eq!(cdg.graph.edge_count(), 1);
        assert_eq!(cdg.by_name("network"), Some(net));
        assert_eq!(cdg.team_names(), vec!["app", "network"]);
    }

    #[test]
    #[should_panic(expected = "duplicate team")]
    fn duplicate_team_rejected() {
        let mut cdg = CoarseDepGraph::new();
        cdg.add_team("app");
        cdg.add_team("app");
    }

    #[test]
    fn derivation_from_fine_graph() {
        let fine = fine_with_partial_dep();
        let cdg = CoarseDepGraph::from_fine(&fine);
        assert_eq!(cdg.len(), 2);
        let app = cdg.by_name("app").unwrap();
        let storage = cdg.by_name("storage").unwrap();
        assert!(cdg.graph.find_edge(app, storage).is_some());
        assert!(cdg.graph.find_edge(storage, app).is_none());
        assert_eq!(cdg.team(app).component_count, 2);
        assert_eq!(cdg.team(storage).component_count, 1);
    }

    #[test]
    fn false_dependencies_measured() {
        let fine = fine_with_partial_dep();
        let cdg = CoarseDepGraph::from_fine(&fine);
        // Implied pairs: (app-1, db-1) true, (app-2, db-1) false -> 0.5.
        assert_eq!(cdg.false_dependency_rate(&fine), 0.5);
    }

    #[test]
    fn lossless_cdg_has_zero_false_rate() {
        let mut g = FineDepGraph::new();
        let a = g.add_component(comp("app-1", "app"));
        let s = g.add_component(comp("db-1", "storage"));
        g.add_dependency(a, s, DependencyKind::Call);
        let cdg = CoarseDepGraph::from_fine(&g);
        assert_eq!(cdg.false_dependency_rate(&g), 0.0);
    }

    #[test]
    fn apply_delta_matches_from_fine_byte_for_byte() {
        let mut fine = fine_with_partial_dep();
        let mut cdg = CoarseDepGraph::from_fine(&fine);
        let mut d = GraphDelta::new(0);
        d.push_component(comp("cache-1", "platform")); // new team
        d.push_component(comp("app-3", "app")); // grows an existing team
        d.push_dependency("app-2", "cache-1", DependencyKind::Call);
        d.push_dependency("cache-1", "db-1", DependencyKind::Call);
        d.push_dependency("app-1", "db-1", DependencyKind::Call); // coarse edge already exists
        d.apply_to_fine(&mut fine).unwrap();
        let stats = cdg.apply_delta(&fine, &d).unwrap();
        assert_eq!(stats, CdgDeltaStats { new_teams: 1, grown_teams: 1, new_edges: 2 });
        let oracle = CoarseDepGraph::from_fine(&fine);
        assert_eq!(cdg.canonical_bytes(), oracle.canonical_bytes());
        assert_eq!(cdg.team(cdg.by_name("app").unwrap()).component_count, 3);
    }

    #[test]
    fn canonical_bytes_are_order_sensitive() {
        let mut a = CoarseDepGraph::new();
        a.add_team("app");
        a.add_team("network");
        let mut b = CoarseDepGraph::new();
        b.add_team("network");
        b.add_team("app");
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        let c = a.clone();
        assert_eq!(a.canonical_bytes(), c.canonical_bytes());
    }

    #[test]
    fn apply_delta_rejects_foreign_history() {
        let mut fine = fine_with_partial_dep();
        // A hand-sketched CDG that never saw the "storage" team.
        let mut cdg = CoarseDepGraph::new();
        cdg.add_team("app");
        let mut d = GraphDelta::new(0);
        d.push_dependency("app-2", "db-1", DependencyKind::Call);
        d.apply_to_fine(&mut fine).unwrap();
        let err = cdg.apply_delta(&fine, &d).unwrap_err();
        assert_eq!(err, crate::delta::DeltaError::UnknownTeam("storage".into()));
        // And a component the fine graph has never heard of.
        let mut d2 = GraphDelta::new(1);
        d2.push_dependency("ghost-1", "db-1", DependencyKind::Call);
        let err2 = cdg.apply_delta(&fine, &d2).unwrap_err();
        assert_eq!(err2, crate::delta::DeltaError::UnknownComponent("ghost-1".into()));
    }

    #[test]
    fn dependents_closure() {
        let mut cdg = CoarseDepGraph::new();
        let app = cdg.add_team("app");
        let platform = cdg.add_team("platform");
        let net = cdg.add_team("network");
        cdg.add_dependency(app, platform);
        cdg.add_dependency(platform, net);
        let deps = cdg.dependents_of(net);
        assert_eq!(deps.len(), 3); // net, platform, app
        assert!(deps.contains(&app));
        let deps_app = cdg.dependents_of(app);
        assert_eq!(deps_app.len(), 1);
    }
}
