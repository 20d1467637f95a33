//! Fine-grained dependency graphs: component-level runtime dependencies.
//!
//! "A dependency graph contains edges x → y if x depends on y at runtime.
//! … a fine-grained dependency graph shows dependencies between service
//! components (useful for root causing)" (§5). Teams may maintain these for
//! their own services; the SMN does *not* centralize them (that is the
//! maintainability problem coarsening avoids) — but the incident simulator
//! uses one as ground truth to propagate faults.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use smn_topology::artifact::{name_index_violations, under, Violation};
use smn_topology::graph::{DiGraph, EdgeId, NodeId};
use smn_topology::path;

/// Which layer of the stack a component lives in (L1–L7 in SMN terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Physical / optical (L1).
    Physical,
    /// Network fabric and WAN (L2/L3).
    Network,
    /// Hosts, hypervisors, clusters (infrastructure).
    Infrastructure,
    /// Databases, caches, queues (platform services).
    Platform,
    /// User-facing application services (L7).
    Application,
    /// Monitoring and probing agents.
    Monitoring,
}

impl Layer {
    /// All layers, physical-first — the order faults propagate downward
    /// through the hosting chain.
    pub const ALL: [Layer; 6] = [
        Layer::Physical,
        Layer::Network,
        Layer::Infrastructure,
        Layer::Platform,
        Layer::Application,
        Layer::Monitoring,
    ];

    /// Where this dependency layer sits in the unified
    /// [`smn_topology::stack::LayerId`] stack: `Physical` is the optical
    /// substrate (L1), `Network` is the WAN fabric (L3), and everything
    /// above — infrastructure, platform, application, monitoring — is
    /// application-side (L7). This is the alignment that lets the incident
    /// engine and the coarsening layer treat `FineDepGraph` components and
    /// stack elements uniformly.
    #[must_use]
    pub fn stack_layer(self) -> smn_topology::LayerId {
        match self {
            Layer::Physical => smn_topology::LayerId::L1,
            Layer::Network => smn_topology::LayerId::L3,
            Layer::Infrastructure | Layer::Platform | Layer::Application | Layer::Monitoring => {
                smn_topology::LayerId::L7
            }
        }
    }
}

/// A fine-grained component: the unit faults are injected into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Unique name, e.g. `"cassandra-1"`.
    pub name: String,
    /// The service this component is an instance of, e.g. `"cassandra"`.
    pub service: String,
    /// Owning team (coarse label), e.g. `"storage"`.
    pub team: String,
    /// Stack layer.
    pub layer: Layer,
}

/// Kind of runtime dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DependencyKind {
    /// Synchronous RPC / query dependency.
    Call,
    /// Runs-on dependency (service on host, host on hypervisor).
    Hosting,
    /// Network-path dependency (traffic traverses).
    Network,
    /// Observes dependency (probe/monitor watches target).
    Observes,
}

/// A fine-grained dependency graph over [`Component`]s.
///
/// Edges read "src depends on dst"; a fault at `dst` can therefore affect
/// `src`. Wraps [`DiGraph`] with name lookups and team queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FineDepGraph {
    /// Underlying graph (public for algorithms).
    pub graph: DiGraph<Component, DependencyKind>,
    name_index: HashMap<String, NodeId>,
}

impl FineDepGraph {
    /// Empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a component.
    ///
    /// # Panics
    /// Panics on duplicate component names.
    pub fn add_component(&mut self, c: Component) -> NodeId {
        assert!(!self.name_index.contains_key(&c.name), "duplicate component {}", c.name);
        let name = c.name.clone();
        let id = self.graph.add_node(c);
        self.name_index.insert(name, id);
        id
    }

    /// Declare that `src` depends on `dst`.
    pub fn add_dependency(&mut self, src: NodeId, dst: NodeId, kind: DependencyKind) -> EdgeId {
        self.graph.add_edge(src, dst, kind)
    }

    /// Component id by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Component payload.
    #[must_use]
    pub fn component(&self, id: NodeId) -> &Component {
        self.graph.node(id)
    }

    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// True when the graph has no components.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.node_count() == 0
    }

    /// All components of a team.
    #[must_use]
    pub fn team_components(&self, team: &str) -> Vec<NodeId> {
        self.graph.nodes().filter(|(_, c)| c.team == team).map(|(id, _)| id).collect()
    }

    /// Distinct team names in insertion order.
    #[must_use]
    pub fn teams(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (_, c) in self.graph.nodes() {
            if !out.contains(&c.team) {
                out.push(c.team.clone());
            }
        }
        out
    }

    /// Components that transitively depend on `failed` (the blast radius of
    /// a fault at `failed`, including itself).
    #[must_use]
    pub fn blast_radius(&self, failed: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.graph.reaching(failed).into_iter().collect();
        v.sort();
        v
    }

    /// The L7 face of this graph for the unified layer stack: component
    /// names in node order, so `ComponentId(i)` is node `i`.
    #[must_use]
    pub fn service_layer(&self) -> smn_topology::ServiceLayer {
        smn_topology::ServiceLayer::from_names(
            self.graph.nodes().map(|(_, c)| c.name.clone()).collect(),
        )
    }

    /// Components whose [`Layer`] maps onto the given stack layer, as
    /// typed stack [`smn_topology::ComponentId`]s in node order.
    #[must_use]
    pub fn components_in_stack_layer(
        &self,
        layer: smn_topology::LayerId,
    ) -> Vec<smn_topology::ComponentId> {
        self.graph
            .nodes()
            .filter(|(_, c)| c.layer.stack_layer() == layer)
            .map(|(id, _)| smn_topology::ComponentId(id.0))
            .collect()
    }

    /// Invariants of a deserialized fine graph: graph integrity, a name
    /// index that agrees with the components, hosting edges that descend
    /// the stack (the host sits on a strictly lower [`Layer`]), and an
    /// owning team on every component. Paths are relative to the graph.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = under(&path!["graph"], DiGraph::violations(&self.graph));
        let comps: Vec<&Component> = self.graph.nodes().map(|(_, c)| c).collect();
        let names: Vec<&str> = comps.iter().map(|c| c.name.as_str()).collect();
        out.extend(name_index_violations(&names, &self.name_index));
        let rank = |c: &Component| Layer::ALL.iter().position(|&l| l == c.layer);
        for (id, e) in self.graph.edges() {
            if e.payload != DependencyKind::Hosting {
                continue;
            }
            let (Some(src), Some(dst)) = (comps.get(e.src.index()), comps.get(e.dst.index()))
            else {
                continue;
            };
            if rank(src) <= rank(dst) {
                out.push(Violation::new(
                    "artifact/layer-order",
                    path!["graph", "edges", id.index()],
                    format!(
                        "hosting edge `{}` -> `{}` does not descend the stack \
                         (host must sit on a strictly lower layer)",
                        src.name, dst.name
                    ),
                    "L1->L3->L7 consistency: Physical < Network < Infrastructure \
                     < Platform < Application < Monitoring",
                ));
            }
        }
        for (i, c) in comps.iter().enumerate() {
            if c.team.is_empty() {
                out.push(Violation::new(
                    "artifact/missing-team",
                    path!["graph", "nodes", i, "payload"],
                    format!("component `{}` has no owning team", c.name),
                    "teams are the coarsening partition; an unowned component cannot be coarsened",
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(name: &str, service: &str, team: &str, layer: Layer) -> Component {
        Component { name: name.into(), service: service.into(), team: team.into(), layer }
    }

    /// web-1 -> cache-1 -> db-1; db-1 hosted-on hv-1.
    fn chain() -> (FineDepGraph, [NodeId; 4]) {
        let mut g = FineDepGraph::new();
        let web = g.add_component(comp("web-1", "web", "app", Layer::Application));
        let cache = g.add_component(comp("cache-1", "cache", "platform", Layer::Platform));
        let db = g.add_component(comp("db-1", "db", "storage", Layer::Platform));
        let hv = g.add_component(comp("hv-1", "hypervisor", "infra", Layer::Infrastructure));
        g.add_dependency(web, cache, DependencyKind::Call);
        g.add_dependency(cache, db, DependencyKind::Call);
        g.add_dependency(db, hv, DependencyKind::Hosting);
        (g, [web, cache, db, hv])
    }

    #[test]
    fn lookup_and_teams() {
        let (g, ids) = chain();
        assert_eq!(g.len(), 4);
        assert_eq!(g.by_name("db-1"), Some(ids[2]));
        assert!(g.by_name("nope").is_none());
        assert_eq!(g.teams(), vec!["app", "platform", "storage", "infra"]);
        assert_eq!(g.team_components("platform"), vec![ids[1]]);
    }

    #[test]
    #[should_panic(expected = "duplicate component")]
    fn duplicate_component_rejected() {
        let (mut g, _) = chain();
        g.add_component(comp("web-1", "web", "app", Layer::Application));
    }

    #[test]
    fn layers_align_with_the_unified_stack() {
        use smn_topology::LayerId;
        assert_eq!(Layer::Physical.stack_layer(), LayerId::L1);
        assert_eq!(Layer::Network.stack_layer(), LayerId::L3);
        for l in [Layer::Infrastructure, Layer::Platform, Layer::Application, Layer::Monitoring] {
            assert_eq!(l.stack_layer(), LayerId::L7);
        }
        // Every Layer maps somewhere, and ALL covers the enum.
        assert_eq!(Layer::ALL.len(), 6);
    }

    #[test]
    fn service_layer_mirrors_node_order() {
        use smn_topology::{ComponentId, LayerId, NetLayer};
        let (g, ids) = chain();
        let sl = g.service_layer();
        assert_eq!(sl.element_count(), 4);
        assert_eq!(sl.id_of("db-1"), Some(ComponentId(ids[2].0)));
        assert_eq!(sl.name_of(ComponentId(0)), Some("web-1"));
        // All four components here are L7-side.
        assert_eq!(g.components_in_stack_layer(LayerId::L7).len(), 4);
        assert!(g.components_in_stack_layer(LayerId::L1).is_empty());
    }

    #[test]
    fn blast_radius_is_transitive_dependents() {
        let (g, ids) = chain();
        // Hypervisor fault affects everything above it.
        assert_eq!(g.blast_radius(ids[3]), vec![ids[0], ids[1], ids[2], ids[3]]);
        // Web fault affects only web.
        assert_eq!(g.blast_radius(ids[0]), vec![ids[0]]);
        // Cache fault affects web and cache but not db.
        assert_eq!(g.blast_radius(ids[1]), vec![ids[0], ids[1]]);
    }
}
