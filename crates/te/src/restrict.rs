//! Coarse-conformant path restriction: realizing supernode-level TE
//! decisions on the fine network.
//!
//! §4: "traffic engineering optimization on a coarsened network graph
//! assumes that all traffic from the supernode must be routed along
//! predetermined network edges defined in the coarsened graph. This
//! restriction in the algorithmic search space can lead to suboptimal
//! solutions." This module makes the restriction concrete: a fine
//! commodity's candidate paths are *expansions* of coarse paths — within a
//! supernode any intra-supernode route is allowed, but supernode-to-
//! supernode hops must follow the coarse path's edge sequence. Solving the
//! fine problem over these restricted path sets measures exactly the
//! optimality the coarsening gave up.

use std::collections::BTreeMap;

use smn_topology::graph::{Contraction, Edge, NodeId, Path, ShortestPathTree};
use smn_topology::layer3::{LinkAttrs, SuperLink, SuperNode, Wan};
use smn_topology::{EdgeId, LayerStack};

use crate::srlg::{extract_srlgs_from_stack, Srlg};

/// Expand up to `k` coarse paths between the supernodes of `src` and `dst`
/// into fine-network paths ([`RestrictedPaths::paths`] over a table built
/// for this one call).
#[must_use]
pub fn coarse_restricted_paths(
    wan: &Wan,
    contraction: &Contraction<SuperNode, SuperLink>,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Vec<Path> {
    RestrictedPaths::new(wan, contraction, k).paths(src, dst)
}

/// Coarse-restricted path expansion for many `(src, dst)` pairs over one
/// network state. The highest-capacity up member link of every ordered
/// supernode pair is found once, in one pass over the links; each
/// supernode pair's `k` coarse paths once, and each bridge source's
/// shortest-path tree inside its supernode once, when first asked for.
/// So a caller that expands the endpoints of every link (the drain
/// planner) scans the link list once instead of once per coarse hop, and
/// runs one intra-supernode search per source node instead of one per
/// bridge.
#[derive(Debug)]
pub struct RestrictedPaths<'a> {
    wan: &'a Wan,
    contraction: &'a Contraction<SuperNode, SuperLink>,
    k: usize,
    /// Highest-capacity up link per ordered pair of distinct supernodes;
    /// on a tie the later link (`Iterator::max_by`'s rule).
    members: BTreeMap<(NodeId, NodeId), (EdgeId, &'a Edge<LinkAttrs>)>,
    /// Up to `k` coarse paths per ordered supernode pair, once computed.
    coarse: BTreeMap<(NodeId, NodeId), Vec<Path>>,
    /// Shortest up-link paths inside a source node's supernode, per
    /// source, once computed.
    within: BTreeMap<NodeId, ShortestPathTree>,
}

impl<'a> RestrictedPaths<'a> {
    /// A table over `wan`'s current link states, expanding up to `k`
    /// coarse paths per commodity.
    #[must_use]
    pub fn new(wan: &'a Wan, contraction: &'a Contraction<SuperNode, SuperLink>, k: usize) -> Self {
        let supernode = |n: NodeId| contraction.node_map.get(n.index()).copied();
        let mut members = BTreeMap::new();
        for (eid, e) in wan.graph.edges() {
            let (Some(ca), Some(cb)) = (supernode(e.src), supernode(e.dst)) else { continue };
            if !e.payload.up || ca == cb {
                continue;
            }
            let best = members.entry((ca, cb)).or_insert((eid, e));
            if e.payload.capacity_gbps.total_cmp(&best.1.payload.capacity_gbps).is_ge() {
                *best = (eid, e);
            }
        }
        RestrictedPaths {
            wan,
            contraction,
            k,
            members,
            coarse: BTreeMap::new(),
            within: BTreeMap::new(),
        }
    }

    /// Expand up to `k` coarse paths between the supernodes of `src` and
    /// `dst` into fine-network paths.
    ///
    /// For each coarse path: cross each coarse edge over its
    /// highest-capacity member link, and bridge within supernodes via
    /// shortest up-link routes restricted to that supernode's members.
    /// Coarse paths with no feasible expansion are skipped. When `src` and
    /// `dst` share a supernode, the intra-supernode shortest path is
    /// returned (the coarse problem cannot see this traffic at all, but
    /// the realization must still carry it).
    pub fn paths(&mut self, src: NodeId, dst: NodeId) -> Vec<Path> {
        let RestrictedPaths { wan, contraction, k, members, coarse, within } = self;
        let supernode = |n: NodeId| contraction.node_map.get(n.index()).copied();
        let (Some(cs), Some(cd)) = (supernode(src), supernode(dst)) else { return Vec::new() };

        // Shortest fine path from `from` to `to` over up links inside
        // `from`'s supernode (every bridge below starts in the supernode
        // it must stay in).
        let mut within = |from: NodeId, to: NodeId| -> Option<Path> {
            let home = supernode(from);
            let tree = within.entry(from).or_insert_with(|| {
                wan.graph.shortest_path_tree(from, |_, e| {
                    (e.payload.up && supernode(e.src) == home && supernode(e.dst) == home)
                        .then_some(1.0)
                })
            });
            tree.path_to(to)
        };

        if cs == cd {
            return within(src, dst).into_iter().collect();
        }

        let coarse_paths = coarse.entry((cs, cd)).or_insert_with(|| {
            contraction
                .graph
                .k_shortest_paths(cs, cd, *k, |_, e| (e.payload.capacity_gbps > 0.0).then_some(1.0))
        });

        let mut out = Vec::new();
        'coarse: for cp in coarse_paths.iter() {
            let mut nodes = vec![src];
            let mut edges = Vec::new();
            let mut cursor = src;
            for (&ca, &cb) in cp.nodes.iter().zip(cp.nodes.iter().skip(1)) {
                let Some(&(member_id, member_edge)) = members.get(&(ca, cb)) else {
                    continue 'coarse;
                };
                // Bridge within the current supernode to the member link's tail.
                if cursor != member_edge.src {
                    let Some(bridge) = within(cursor, member_edge.src) else {
                        continue 'coarse;
                    };
                    nodes.extend(bridge.nodes.iter().skip(1));
                    edges.extend_from_slice(&bridge.edges);
                }
                nodes.push(member_edge.dst);
                edges.push(member_id);
                cursor = member_edge.dst;
            }
            // Final leg inside the destination supernode.
            if cursor != dst {
                let Some(tail) = within(cursor, dst) else { continue 'coarse };
                nodes.extend(tail.nodes.iter().skip(1));
                edges.extend_from_slice(&tail.edges);
            }
            // Drop expansions that revisit a node (can arise from greedy
            // member-link choices); they would be rejected by loopless TE.
            let mut seen = std::collections::HashSet::new();
            if !nodes.iter().all(|n| seen.insert(*n)) {
                continue;
            }
            let cost = edges.len() as f64;
            out.push(Path { nodes, edges, cost });
        }
        out
    }
}

/// Number of shared-risk groups that contain at least two of the path's
/// links: each one is a single fiber span whose cut drops the path in two
/// or more places at once.
#[must_use]
pub fn path_srlg_exposure(path: &Path, srlgs: &[Srlg]) -> usize {
    srlgs.iter().filter(|s| path.edges.iter().filter(|e| s.links.contains(e)).count() >= 2).count()
}

/// [`coarse_restricted_paths`] with cross-layer risk awareness: the
/// candidate expansions are ranked by their SRLG exposure (derived from
/// the stack's L1 → L3 map) before path cost, so TE prefers realizations
/// that do not ride one fiber span twice. The path set is unchanged —
/// only the order encodes the risk preference.
#[must_use]
pub fn srlg_aware_restricted_paths(
    stack: &LayerStack,
    contraction: &Contraction<SuperNode, SuperLink>,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Vec<(Path, usize)> {
    let srlgs = extract_srlgs_from_stack(stack);
    let mut ranked: Vec<(Path, usize)> =
        coarse_restricted_paths(stack.wan(), contraction, src, dst, k)
            .into_iter()
            .map(|p| {
                let exposure = path_srlg_exposure(&p, &srlgs);
                (p, exposure)
            })
            .collect();
    ranked.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cost.total_cmp(&b.0.cost)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_topology::gen::reference_wan;

    #[test]
    fn expansion_respects_supernode_sequence() {
        let wan = reference_wan();
        let contraction = wan.contract_by_region();
        let src = wan.dc_by_name("us-e2").unwrap();
        let dst = wan.dc_by_name("us-w1").unwrap();
        let paths = coarse_restricted_paths(&wan, &contraction, src, dst, 3);
        assert!(!paths.is_empty());
        for p in &paths {
            assert_eq!(p.nodes.first(), Some(&src));
            assert_eq!(p.nodes.last(), Some(&dst));
            // Supernode sequence must never return to a previous supernode.
            let supers: Vec<_> = p.nodes.iter().map(|n| contraction.node_map[n.index()]).collect();
            let mut dedup = supers.clone();
            dedup.dedup();
            let unique: std::collections::HashSet<_> = dedup.iter().collect();
            assert_eq!(unique.len(), dedup.len(), "revisits a supernode: {supers:?}");
        }
    }

    #[test]
    fn intra_supernode_commodity_routes_internally() {
        let wan = reference_wan();
        let contraction = wan.contract_by_region();
        let src = wan.dc_by_name("us-e1").unwrap();
        let dst = wan.dc_by_name("us-e2").unwrap();
        let paths = coarse_restricted_paths(&wan, &contraction, src, dst, 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].edges.len(), 1, "direct intra-region link");
    }

    #[test]
    fn down_links_are_avoided() {
        let mut wan = reference_wan();
        // Down both parallel direct links us-e1 <-> us-w1.
        let e1 = wan.dc_by_name("us-e1").unwrap();
        let w1 = wan.dc_by_name("us-w1").unwrap();
        let fwd = wan.graph.find_edge(e1, w1).unwrap();
        wan.set_link_up(fwd, false);
        let contraction = wan.contract_by_region();
        let paths = coarse_restricted_paths(&wan, &contraction, e1, w1, 3);
        for p in &paths {
            assert!(!p.edges.contains(&fwd), "uses a down link");
        }
        assert!(!paths.is_empty(), "alternate member links exist");
    }

    #[test]
    fn srlg_aware_ranking_is_deterministic_and_risk_sorted() {
        let p =
            smn_topology::gen::generate_planetary(&smn_topology::gen::PlanetaryConfig::small(7));
        let contraction = p.wan.contract_by_region();
        let src = NodeId(0);
        let dst = NodeId((p.wan.dc_count() - 1) as u32);
        let stack = p.into_stack();
        let a = srlg_aware_restricted_paths(&stack, &contraction, src, dst, 3);
        let b = srlg_aware_restricted_paths(&stack, &contraction, src, dst, 3);
        assert_eq!(
            a.iter().map(|(p, e)| (p.edges.clone(), *e)).collect::<Vec<_>>(),
            b.iter().map(|(p, e)| (p.edges.clone(), *e)).collect::<Vec<_>>()
        );
        // Exposure is the primary sort key.
        for w in a.windows(2) {
            assert!(w[0].1 <= w[1].1, "paths must be ordered by SRLG exposure");
        }
    }

    #[test]
    fn restricted_paths_are_a_subset_of_fine_reachability() {
        let wan = reference_wan();
        let contraction = wan.contract_by_continent();
        let src = wan.dc_by_name("us-w2").unwrap();
        let dst = wan.dc_by_name("eu-w1").unwrap();
        let paths = coarse_restricted_paths(&wan, &contraction, src, dst, 2);
        assert!(!paths.is_empty());
        for p in &paths {
            // Every edge really exists and chains correctly.
            for (i, &e) in p.edges.iter().enumerate() {
                let (a, b) = wan.graph.endpoints(e);
                assert_eq!(a, p.nodes[i]);
                assert_eq!(b, p.nodes[i + 1]);
            }
        }
    }
}
