//! A small, self-contained directed-graph library used by every SMN layer.
//!
//! The graph is index-based: nodes and edges are identified by dense
//! [`NodeId`] / [`EdgeId`] handles, node and edge payloads are generic, and
//! adjacency is stored as per-node out/in edge lists. This mirrors the shape
//! of `petgraph`'s `Graph` but is implemented from scratch so the workspace
//! has no external graph dependency.
//!
//! Algorithms provided here are exactly the ones the paper's systems need:
//! shortest paths (Dijkstra), k-shortest loopless paths (Yen), reachability
//! closures (for syndrome propagation in coarse dependency graphs), weakly
//! connected components, and node contraction (the primitive behind
//! topology-based coarsening, §4 of the paper).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::artifact::Violation;
use crate::path;

/// Dense handle for a node in a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Dense handle for an edge in a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node's position in the graph's node table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge's position in the graph's edge table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct NodeSlot<N> {
    payload: N,
    out_edges: Vec<EdgeId>,
    in_edges: Vec<EdgeId>,
}

/// An edge record: endpoints plus payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Edge<E> {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// User payload (capacity, weight, …).
    pub payload: E,
}

/// A directed graph with generic node payload `N` and edge payload `E`.
///
/// Nodes and edges are never removed (SMN topologies only grow or get
/// *contracted* into new graphs), which keeps ids stable and the
/// implementation simple and robust — the smoltcp design values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiGraph<N, E> {
    nodes: Vec<NodeSlot<N>>,
    edges: Vec<Edge<E>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Create an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self { nodes: Vec::new(), edges: Vec::new() }
    }

    /// Create an empty graph with preallocated capacity.
    #[must_use]
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self { nodes: Vec::with_capacity(nodes), edges: Vec::with_capacity(edges) }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot { payload, out_edges: Vec::new(), in_edges: Vec::new() });
        id
    }

    /// Add a directed edge `src -> dst` and return its id.
    ///
    /// # Panics
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, payload: E) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "edge source {src} out of bounds");
        assert!(dst.index() < self.nodes.len(), "edge destination {dst} out of bounds");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, payload });
        self.nodes[src.index()].out_edges.push(id);
        self.nodes[dst.index()].in_edges.push(id);
        id
    }

    /// Payload of `node`.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &N {
        &self.nodes[node.index()].payload
    }

    /// Mutable payload of `node`.
    pub fn node_mut(&mut self, node: NodeId) -> &mut N {
        &mut self.nodes[node.index()].payload
    }

    /// The full edge record of `edge`.
    #[must_use]
    pub fn edge(&self, edge: EdgeId) -> &Edge<E> {
        &self.edges[edge.index()]
    }

    /// Mutable payload of `edge`.
    pub fn edge_mut(&mut self, edge: EdgeId) -> &mut E {
        &mut self.edges[edge.index()].payload
    }

    /// Endpoints `(src, dst)` of `edge`.
    #[must_use]
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[edge.index()];
        (e.src, e.dst)
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterate over `(NodeId, &N)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> + '_ {
        self.nodes.iter().enumerate().map(|(i, s)| (NodeId(i as u32), &s.payload))
    }

    /// Iterate over `(EdgeId, &Edge<E>)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge<E>)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Out-edges of `node`.
    #[must_use]
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.nodes[node.index()].out_edges
    }

    /// In-edges of `node`.
    #[must_use]
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.nodes[node.index()].in_edges
    }

    /// Successor nodes of `node` (one entry per out-edge; may repeat for
    /// parallel edges).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(node).iter().map(move |&e| self.edges[e.index()].dst)
    }

    /// Predecessor nodes of `node`.
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(node).iter().map(move |&e| self.edges[e.index()].src)
    }

    /// First edge from `src` to `dst`, if any.
    #[must_use]
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges(src).iter().copied().find(|&e| self.edges[e.index()].dst == dst)
    }

    /// Set of nodes reachable from `start` by directed edges (including
    /// `start` itself). Used for syndrome propagation: "which observers
    /// transitively depend on a failed component".
    #[must_use]
    pub fn reachable_from(&self, start: NodeId) -> HashSet<NodeId> {
        self.reachable(start, |g, n| Box::new(g.successors(n)))
    }

    /// Set of nodes that can reach `target` by directed edges (including
    /// `target`). If edges read "x depends on y", this is everything that
    /// (transitively) depends on `target`.
    #[must_use]
    pub fn reaching(&self, target: NodeId) -> HashSet<NodeId> {
        self.reachable(target, |g, n| Box::new(g.predecessors(n)))
    }

    fn reachable<'a>(
        &'a self,
        start: NodeId,
        next: impl Fn(&'a Self, NodeId) -> Box<dyn Iterator<Item = NodeId> + 'a>,
    ) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            for m in next(self, n) {
                if seen.insert(m) {
                    queue.push_back(m);
                }
            }
        }
        seen
    }

    /// Breadth-first hop distances from `start` (unreachable nodes absent).
    #[must_use]
    pub fn bfs_hops(&self, start: NodeId) -> HashMap<NodeId, u32> {
        let mut dist = HashMap::new();
        let mut queue = VecDeque::new();
        dist.insert(start, 0);
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            let d = dist[&n];
            for m in self.successors(n) {
                if let std::collections::hash_map::Entry::Vacant(v) = dist.entry(m) {
                    v.insert(d + 1);
                    queue.push_back(m);
                }
            }
        }
        dist
    }

    /// Weakly connected components, ignoring edge direction. Returns for
    /// each node the component index, plus the component count.
    #[must_use]
    pub fn weakly_connected_components(&self) -> (Vec<usize>, usize) {
        let n = self.node_count();
        let mut comp = vec![usize::MAX; n];
        let mut next_comp = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut queue = VecDeque::new();
            comp[start] = next_comp;
            queue.push_back(NodeId(start as u32));
            while let Some(u) = queue.pop_front() {
                let neighbors: Vec<NodeId> =
                    self.successors(u).chain(self.predecessors(u)).collect();
                for v in neighbors {
                    if comp[v.index()] == usize::MAX {
                        comp[v.index()] = next_comp;
                        queue.push_back(v);
                    }
                }
            }
            next_comp += 1;
        }
        (comp, next_comp)
    }

    /// Topological order of the nodes, or `None` if the graph has a cycle.
    #[must_use]
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.nodes[i].in_edges.len()).collect();
        let mut queue: VecDeque<NodeId> =
            (0..n).filter(|&i| indegree[i] == 0).map(|i| NodeId(i as u32)).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for v in self.successors(u) {
                indegree[v.index()] -= 1;
                if indegree[v.index()] == 0 {
                    queue.push_back(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Referential integrity, as a deserialized graph may lack it: every
    /// edge endpoint names a node, and every adjacency list entry names
    /// an edge whose matching endpoint is that node. Paths are relative
    /// to the serialized graph.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let (n, m) = (self.nodes.len(), self.edges.len());
        let mut out = Vec::new();
        for (i, e) in self.edges.iter().enumerate() {
            for (field, end) in [("src", e.src), ("dst", e.dst)] {
                if end.index() >= n {
                    out.push(Violation::new(
                        "artifact/dangling-edge",
                        path!["edges", i, field],
                        format!(
                            "edge {i} {field} references node {}, but only {n} nodes exist",
                            end.0
                        ),
                        "every edge endpoint must name an existing node",
                    ));
                }
            }
        }
        for (i, slot) in self.nodes.iter().enumerate() {
            for (field, list, incoming) in
                [("out_edges", &slot.out_edges, false), ("in_edges", &slot.in_edges, true)]
            {
                for (j, eid) in list.iter().enumerate() {
                    let Some(e) = self.edges.get(eid.index()) else {
                        out.push(Violation::new(
                            "artifact/dangling-edge",
                            path!["nodes", i, field, j],
                            format!(
                                "node {i} {field} references edge {}, but only {m} edges exist",
                                eid.0
                            ),
                            "",
                        ));
                        continue;
                    };
                    let endpoint = if incoming { e.dst } else { e.src };
                    if endpoint.index() != i {
                        out.push(Violation::new(
                            "artifact/dangling-edge",
                            path!["nodes", i, field, j],
                            format!(
                                "node {i} {field} lists edge {}, whose endpoint is node {}",
                                eid.0, endpoint.0
                            ),
                            "adjacency lists must agree with the edge table",
                        ));
                    }
                }
            }
        }
        out
    }
}

/// A path through the graph: the node sequence and the edges taken.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Visited nodes, `nodes[0]` = source, `nodes.last()` = destination.
    pub nodes: Vec<NodeId>,
    /// Edges taken, `edges.len() == nodes.len() - 1`.
    pub edges: Vec<EdgeId>,
    /// Total weight under the cost function used to find the path.
    pub cost: f64,
}

impl Path {
    /// Number of hops (edges) in the path.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.edges.len()
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; costs are finite non-NaN by construction.
        other.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra's working arrays. [`DiGraph::k_shortest_paths`] reuses one
/// across all its searches; a search resets them, so it sees exactly the
/// state a freshly allocated scratch would give it.
struct DijkstraScratch {
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    heap: BinaryHeap<HeapEntry>,
}

impl DijkstraScratch {
    fn new(nodes: usize) -> Self {
        Self { dist: vec![f64::INFINITY; nodes], prev: vec![None; nodes], heap: BinaryHeap::new() }
    }

    /// Append the edges of the search tree's path from its source to
    /// `dst`, in path order.
    fn push_path_edges(&self, dst: NodeId, edges: &mut Vec<EdgeId>) {
        let from = edges.len();
        let mut cur = dst;
        while let Some((p, e)) = self.prev[cur.index()] {
            edges.push(e);
            cur = p;
        }
        edges[from..].reverse();
    }
}

/// The shortest paths from one source ([`DiGraph::shortest_path_tree`]).
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    src: NodeId,
    /// `(node, predecessor, edge from it, distance)` of every node the
    /// search reached, the source excepted, ascending by node.
    reached: Vec<(NodeId, NodeId, EdgeId, f64)>,
}

impl ShortestPathTree {
    /// The shortest path from the tree's source to `dst`, or `None` when
    /// `dst` is unreachable: what [`DiGraph::shortest_path`] returns.
    #[must_use]
    pub fn path_to(&self, dst: NodeId) -> Option<Path> {
        let step = |node: NodeId| {
            let i = self.reached.binary_search_by_key(&node, |r| r.0).ok()?;
            self.reached.get(i)
        };
        let cost = if dst == self.src { 0.0 } else { step(dst)?.3 };
        let (mut nodes, mut edges) = (vec![dst], Vec::new());
        let mut cur = dst;
        while cur != self.src {
            let &(_, prev, edge, _) = step(cur)?;
            edges.push(edge);
            nodes.push(prev);
            cur = prev;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path { nodes, edges, cost })
    }
}

impl<N, E> DiGraph<N, E> {
    /// Dijkstra shortest path from `src` to `dst` under a non-negative edge
    /// cost function. Edges for which `cost` returns `None` are unusable
    /// (e.g. failed links). Returns `None` when `dst` is unreachable.
    ///
    /// # Panics
    /// Panics (debug assertion) if `cost` returns a negative weight.
    pub fn shortest_path(
        &self,
        src: NodeId,
        dst: NodeId,
        cost: impl FnMut(EdgeId, &Edge<E>) -> Option<f64>,
    ) -> Option<Path> {
        let mut scratch = DijkstraScratch::new(self.node_count());
        let cost = self.dijkstra(&mut scratch, src, dst, cost)?;
        let mut edges = Vec::new();
        scratch.push_path_edges(dst, &mut edges);
        Some(Path { nodes: self.path_nodes(src, &edges), edges, cost })
    }

    /// Every shortest path from `src` under `cost`, from one Dijkstra run
    /// to completion: [`ShortestPathTree::path_to`] gives, for every
    /// `dst`, exactly the path [`DiGraph::shortest_path`] returns. That
    /// search stops once `dst` is settled, and a settled node's distance
    /// and predecessor never change afterwards (weights are non-negative
    /// and an update needs a strictly shorter distance), so running on
    /// changes no path it returns. One tree serves many destinations for
    /// one search's cost.
    pub fn shortest_path_tree(
        &self,
        src: NodeId,
        cost: impl FnMut(EdgeId, &Edge<E>) -> Option<f64>,
    ) -> ShortestPathTree {
        let mut s = DijkstraScratch::new(self.node_count());
        self.search(&mut s, src, None, cost);
        let reached = self
            .node_ids()
            .zip(s.prev.iter().zip(&s.dist))
            .filter_map(|(node, (prev, &dist))| prev.map(|(p, e)| (node, p, e, dist)))
            .collect();
        ShortestPathTree { src, reached }
    }

    /// Run Dijkstra from `src` in `s` until `dst` is settled; returns the
    /// distance to `dst`, or `None` when it is unreachable. The path is
    /// left in `s.prev`.
    fn dijkstra(
        &self,
        s: &mut DijkstraScratch,
        src: NodeId,
        dst: NodeId,
        cost: impl FnMut(EdgeId, &Edge<E>) -> Option<f64>,
    ) -> Option<f64> {
        self.search(s, src, Some(dst), cost);
        let d = s.dist[dst.index()];
        (!d.is_infinite()).then_some(d)
    }

    /// Dijkstra from `src` in `s`, until `stop` is settled or, without
    /// one, every reachable node is.
    fn search(
        &self,
        s: &mut DijkstraScratch,
        src: NodeId,
        stop: Option<NodeId>,
        mut cost: impl FnMut(EdgeId, &Edge<E>) -> Option<f64>,
    ) {
        s.dist.fill(f64::INFINITY);
        s.prev.fill(None);
        s.heap.clear();
        let Some(at_src) = s.dist.get_mut(src.index()) else { return };
        *at_src = 0.0;
        s.heap.push(HeapEntry { cost: 0.0, node: src });
        while let Some(HeapEntry { cost: d, node: u }) = s.heap.pop() {
            if s.dist.get(u.index()).is_some_and(|&du| d > du) {
                continue;
            }
            if Some(u) == stop {
                break;
            }
            let out = self.nodes.get(u.index()).map_or(&[][..], |n| &n.out_edges);
            for &eid in out {
                let Some(edge) = self.edges.get(eid.index()) else { continue };
                let Some(w) = cost(eid, edge) else { continue };
                debug_assert!(w >= 0.0, "negative edge weight {w} on {eid}");
                let nd = d + w;
                let v = edge.dst.index();
                if let (Some(dv), Some(pv)) = (s.dist.get_mut(v), s.prev.get_mut(v)) {
                    if nd < *dv {
                        *dv = nd;
                        *pv = Some((u, eid));
                        s.heap.push(HeapEntry { cost: nd, node: edge.dst });
                    }
                }
            }
        }
    }

    /// The node sequence of the path that starts at `src` and takes `edges`.
    fn path_nodes(&self, src: NodeId, edges: &[EdgeId]) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(src);
        nodes.extend(edges.iter().map(|e| self.edges[e.index()].dst));
        nodes
    }

    /// Yen's algorithm: up to `k` loopless shortest paths from `src` to
    /// `dst`, sorted by cost (none for `k = 0`). Used to build the path
    /// sets for path-based traffic engineering (§4).
    ///
    /// All searches of one call share one Dijkstra scratch, and the edges
    /// and nodes a spur search may not use are marked in stamped arrays,
    /// so a spur allocates only when it yields a new candidate path.
    pub fn k_shortest_paths(
        &self,
        src: NodeId,
        dst: NodeId,
        k: usize,
        mut cost: impl FnMut(EdgeId, &Edge<E>) -> Option<f64>,
    ) -> Vec<Path> {
        let mut result: Vec<Path> = Vec::new();
        if k == 0 {
            return result;
        }
        let mut scratch = DijkstraScratch::new(self.node_count());
        let Some(first) = self.dijkstra(&mut scratch, src, dst, &mut cost) else {
            return result;
        };
        let mut edges = Vec::new();
        scratch.push_path_edges(dst, &mut edges);
        result.push(Path { nodes: self.path_nodes(src, &edges), edges, cost: first });
        // Candidate paths found so far, best first.
        let mut candidates: Vec<Path> = Vec::new();
        // A spur search may not use edge `e` while `edge_ban[e] == stamp`,
        // nor touch node `v` while `node_ban[v] == stamp`; each spur takes
        // a fresh stamp, which lifts the previous spur's bans at no cost.
        let mut edge_ban = vec![0usize; self.edge_count()];
        let mut node_ban = vec![0usize; self.node_count()];
        let mut stamp = 0usize;
        let mut spur_edges: Vec<EdgeId> = Vec::new();
        while result.len() < k {
            let Some(last) = result.last() else { break };
            // For each node in the previous path except the terminal, branch.
            for i in 0..last.nodes.len() - 1 {
                stamp += 1;
                let spur_node = last.nodes[i];
                let root_nodes = &last.nodes[..=i];
                let root_edges = &last.edges[..i];
                // Edges on an already-accepted path always have a usable
                // cost; a None here would only drop that edge's contribution.
                let root_cost: f64 =
                    root_edges.iter().filter_map(|&e| cost(e, &self.edges[e.index()])).sum();
                // Edges removed: any edge leaving the spur node that a
                // previously accepted path with the same root uses next.
                for p in result.iter().chain(candidates.iter()) {
                    if p.nodes.len() > i && p.nodes[..=i] == *root_nodes {
                        if let Some(&e) = p.edges.get(i) {
                            edge_ban[e.index()] = stamp;
                        }
                    }
                }
                // Nodes removed: the root path nodes except the spur node
                // (loopless requirement).
                for v in &root_nodes[..i] {
                    node_ban[v.index()] = stamp;
                }
                let spur = self.dijkstra(&mut scratch, spur_node, dst, |eid, edge| {
                    if edge_ban[eid.index()] == stamp
                        || node_ban[edge.src.index()] == stamp
                        || node_ban[edge.dst.index()] == stamp
                    {
                        None
                    } else {
                        cost(eid, edge)
                    }
                });
                let Some(spur_cost) = spur else { continue };
                spur_edges.clear();
                scratch.push_path_edges(dst, &mut spur_edges);
                let is_total = |p: &Path| {
                    p.edges.len() == i + spur_edges.len()
                        && p.edges[..i] == *root_edges
                        && p.edges[i..] == *spur_edges
                };
                if !candidates.iter().any(is_total) && !result.iter().any(is_total) {
                    let mut edges = root_edges.to_vec();
                    edges.extend_from_slice(&spur_edges);
                    let nodes = self.path_nodes(src, &edges);
                    candidates.push(Path { nodes, edges, cost: root_cost + spur_cost });
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap_or(Ordering::Equal));
            result.push(candidates.remove(0));
        }
        result
    }
}

/// Result of contracting a graph's nodes into groups ("supernodes").
///
/// This is the structural primitive behind topology-based coarsening (§4):
/// nodes mapped to the same group become one supernode; edges whose
/// endpoints land in different supernodes are merged per supernode pair by a
/// caller-supplied fold; intra-group edges disappear.
#[derive(Debug, Clone)]
pub struct Contraction<N2, E2> {
    /// The coarse graph.
    pub graph: DiGraph<N2, E2>,
    /// For each original node index, the coarse node it maps to.
    pub node_map: Vec<NodeId>,
    /// For each coarse node, the original nodes inside it.
    pub members: Vec<Vec<NodeId>>,
}

impl<N2, E2> Contraction<N2, E2> {
    /// The partition this contraction induced, as the `coarsening`
    /// artifact serializes it.
    #[must_use]
    pub fn partition(&self) -> Partition {
        Partition {
            kind: "coarsening".to_string(),
            fine_nodes: self.node_map.len(),
            node_map: self.node_map.iter().map(|n| n.index()).collect(),
            members: self.members.iter().map(|ms| ms.iter().map(|n| n.index()).collect()).collect(),
        }
    }
}

/// A coarsening partition by plain node index: a [`Contraction`] minus
/// its payload-generic coarse graph. This is the `coarsening` artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Artifact kind tag: always `"coarsening"`.
    pub kind: String,
    /// Number of fine nodes partitioned.
    pub fine_nodes: usize,
    /// For each fine node, its supernode.
    pub node_map: Vec<usize>,
    /// For each supernode, its fine nodes.
    pub members: Vec<Vec<usize>>,
}

impl Partition {
    /// A coarsening is a partition: member lists are disjoint, in range,
    /// non-empty and cover every fine node, and `node_map` encodes the
    /// same assignment. Nothing is sized from the declared `fine_nodes`,
    /// so a forged count cannot exhaust memory.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let fine = self.fine_nodes;
        let mut out = Vec::new();
        // Owner of each listed fine node, per the member lists.
        let mut owner: BTreeMap<usize, usize> = BTreeMap::new();
        for (s, group) in self.members.iter().enumerate() {
            if group.is_empty() {
                out.push(Violation::new(
                    "artifact/empty-supernode",
                    path!["members", s],
                    format!("supernode {s} has no members"),
                    "every coarse node must absorb at least one fine node",
                ));
            }
            for (j, &node) in group.iter().enumerate() {
                if node >= fine {
                    out.push(Violation::new(
                        "artifact/dangling-node",
                        path!["members", s, j],
                        format!("supernode {s} lists fine node {node}, but only {fine} fine nodes exist"),
                        "",
                    ));
                } else if let Some(&first) = owner.get(&node) {
                    out.push(Violation::new(
                        "artifact/overlapping-partition",
                        path!["members", s, j],
                        format!("fine node {node} belongs to supernodes {first} and {s}"),
                        "a coarsening is a partition: member lists must be disjoint",
                    ));
                } else {
                    owner.insert(node, s);
                }
            }
        }

        let unassigned = fine.saturating_sub(owner.len());
        if unassigned > 0 {
            let shown: Vec<String> = (0..fine)
                .filter(|n| !owner.contains_key(n))
                .take(8)
                .map(|n| n.to_string())
                .collect();
            out.push(Violation::new(
                "artifact/partition-not-total",
                path!["members"],
                format!(
                    "{unassigned} of {fine} fine node(s) belong to no supernode: {}{}",
                    shown.join(", "),
                    if unassigned > 8 { ", …" } else { "" }
                ),
                "a coarsening is a partition: the member lists must cover every fine node",
            ));
        }

        if self.node_map.len() != fine {
            out.push(Violation::new(
                "artifact/partition-not-total",
                path!["node_map"],
                format!("node_map has {} entr(ies) for {fine} fine node(s)", self.node_map.len()),
                "",
            ));
            return out;
        }
        for (node, &super_id) in self.node_map.iter().enumerate() {
            if super_id >= self.members.len() {
                out.push(Violation::new(
                    "artifact/partition-mismatch",
                    path!["node_map", node],
                    format!(
                        "node_map sends fine node {node} to supernode {super_id}, \
                         but only {} supernodes exist",
                        self.members.len()
                    ),
                    "",
                ));
                continue;
            }
            // Only nodes with a well-defined owner are cross-checked:
            // missing or duplicated membership has its own finding above.
            if let Some(&listed) = owner.get(&node).filter(|&&s| s != super_id) {
                out.push(Violation::new(
                    "artifact/partition-mismatch",
                    path!["node_map", node],
                    format!(
                        "node_map sends fine node {node} to supernode {super_id}, \
                         but the member lists place it in supernode {listed}"
                    ),
                    "node_map and members encode the same partition and must agree",
                ));
            }
        }
        out
    }
}

impl<N, E> DiGraph<N, E> {
    /// Contract nodes into supernodes.
    ///
    /// `group` assigns every original node a group key; nodes with equal
    /// keys merge. `make_node` builds a supernode payload from its members.
    /// `fold_edge` accumulates original edge payloads into the coarse edge
    /// payload for a given (coarse-src, coarse-dst) pair; it is called once
    /// per original cross-group edge, with `None` on first encounter.
    ///
    /// Self-loops produced by intra-group edges are dropped — acting on the
    /// coarse structure cannot see inside a supernode, which is exactly the
    /// information loss the paper's §4 discusses.
    pub fn contract<K, N2, E2>(
        &self,
        mut group: impl FnMut(NodeId, &N) -> K,
        mut make_node: impl FnMut(K, &[NodeId]) -> N2,
        mut fold_edge: impl FnMut(Option<E2>, &E) -> E2,
    ) -> Contraction<N2, E2>
    where
        K: Eq + std::hash::Hash + Clone,
    {
        // Group keys in first-seen order for determinism.
        let mut key_order: Vec<K> = Vec::new();
        let mut key_to_coarse: HashMap<K, usize> = HashMap::new();
        let mut node_map = Vec::with_capacity(self.node_count());
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        for (id, payload) in self.nodes() {
            let k = group(id, payload);
            let idx = *key_to_coarse.entry(k.clone()).or_insert_with(|| {
                key_order.push(k.clone());
                members.push(Vec::new());
                key_order.len() - 1
            });
            members[idx].push(id);
            node_map.push(NodeId(idx as u32));
        }
        let mut graph = DiGraph::with_capacity(key_order.len(), self.edge_count());
        for (idx, k) in key_order.into_iter().enumerate() {
            graph.add_node(make_node(k, &members[idx]));
        }
        // Merge parallel coarse edges per (src, dst).
        let mut coarse_edges: HashMap<(NodeId, NodeId), E2> = HashMap::new();
        let mut pair_order: Vec<(NodeId, NodeId)> = Vec::new();
        for (_, e) in self.edges() {
            let cs = node_map[e.src.index()];
            let cd = node_map[e.dst.index()];
            if cs == cd {
                continue; // intra-supernode edge: invisible at coarse level
            }
            if let Some(acc) = coarse_edges.remove(&(cs, cd)) {
                coarse_edges.insert((cs, cd), fold_edge(Some(acc), &e.payload));
            } else {
                pair_order.push((cs, cd));
                coarse_edges.insert((cs, cd), fold_edge(None, &e.payload));
            }
        }
        for pair in pair_order {
            // Each pair is pushed exactly once when first inserted above.
            let Some(payload) = coarse_edges.remove(&pair) else { continue };
            graph.add_edge(pair.0, pair.1, payload);
        }
        Contraction { graph, node_map, members }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diamond with a shortcut: a->b->d (cost 2), a->c->d (cost 3), a->d (cost 10).
    fn diamond() -> (DiGraph<&'static str, f64>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1.0);
        g.add_edge(b, d, 1.0);
        g.add_edge(a, c, 1.0);
        g.add_edge(c, d, 2.0);
        g.add_edge(a, d, 10.0);
        (g, vec![a, b, c, d])
    }

    #[test]
    fn add_and_query() {
        let (g, ids) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(*g.node(ids[0]), "a");
        assert_eq!(g.out_edges(ids[0]).len(), 3);
        assert_eq!(g.in_edges(ids[3]).len(), 3);
        assert!(g.find_edge(ids[0], ids[3]).is_some());
        assert!(g.find_edge(ids[3], ids[0]).is_none());
    }

    #[test]
    fn dijkstra_picks_cheapest() {
        let (g, ids) = diamond();
        let p = g.shortest_path(ids[0], ids[3], |_, e| Some(e.payload)).unwrap();
        assert_eq!(p.cost, 2.0);
        assert_eq!(p.nodes, vec![ids[0], ids[1], ids[3]]);
        assert_eq!(p.hop_count(), 2);
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        assert!(g.shortest_path(a, b, |_, e| Some(e.payload)).is_none());
    }

    #[test]
    fn dijkstra_respects_unusable_edges() {
        let (g, ids) = diamond();
        // Ban the b route; next best is via c at cost 3.
        let p = g
            .shortest_path(
                ids[0],
                ids[3],
                |_, e| {
                    if e.dst == ids[1] {
                        None
                    } else {
                        Some(e.payload)
                    }
                },
            )
            .unwrap();
        assert_eq!(p.cost, 3.0);
    }

    #[test]
    fn yen_finds_three_distinct_paths() {
        let (g, ids) = diamond();
        let paths = g.k_shortest_paths(ids[0], ids[3], 5, |_, e| Some(e.payload));
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].cost, 2.0);
        assert_eq!(paths[1].cost, 3.0);
        assert_eq!(paths[2].cost, 10.0);
        // Loopless and distinct.
        for p in &paths {
            let set: HashSet<_> = p.nodes.iter().collect();
            assert_eq!(set.len(), p.nodes.len(), "path revisits a node");
        }
    }

    #[test]
    fn yen_k_smaller_than_available() {
        let (g, ids) = diamond();
        let paths = g.k_shortest_paths(ids[0], ids[3], 2, |_, e| Some(e.payload));
        assert_eq!(paths.len(), 2);
        assert!(paths[0].cost <= paths[1].cost);
    }

    #[test]
    fn yen_k_zero_returns_no_paths() {
        let (g, ids) = diamond();
        assert!(g.k_shortest_paths(ids[0], ids[3], 0, |_, e| Some(e.payload)).is_empty());
        assert!(g.k_shortest_paths(ids[0], ids[0], 0, |_, e| Some(e.payload)).is_empty());
        assert_eq!(g.k_shortest_paths(ids[0], ids[0], 1, |_, e| Some(e.payload)).len(), 1);
    }

    /// The Dijkstra `shortest_path` ran before the shared scratch: fresh
    /// `dist`, `prev` and heap per search.
    fn shortest_path_by_alloc<N, E>(
        g: &DiGraph<N, E>,
        src: NodeId,
        dst: NodeId,
        mut cost: impl FnMut(EdgeId, &Edge<E>) -> Option<f64>,
    ) -> Option<Path> {
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(HeapEntry { cost: 0.0, node: src });
        while let Some(HeapEntry { cost: d, node: u }) = heap.pop() {
            if d > dist[u.index()] {
                continue;
            }
            if u == dst {
                break;
            }
            for &eid in g.out_edges(u) {
                let edge = &g.edges[eid.index()];
                let Some(w) = cost(eid, edge) else { continue };
                let nd = d + w;
                if nd < dist[edge.dst.index()] {
                    dist[edge.dst.index()] = nd;
                    prev[edge.dst.index()] = Some((u, eid));
                    heap.push(HeapEntry { cost: nd, node: edge.dst });
                }
            }
        }
        if dist[dst.index()].is_infinite() {
            return None;
        }
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst;
        while let Some((p, e)) = prev[cur.index()] {
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path { nodes, edges, cost: dist[dst.index()] })
    }

    /// The Yen's `k_shortest_paths` replaced: a fresh Dijkstra and two
    /// `HashSet`s per spur. The byte-identity oracle for the shared
    /// scratch and the stamped ban arrays (it returns one path for
    /// `k = 0`, which the fixed version does not).
    fn k_shortest_paths_by_hashsets<N, E>(
        g: &DiGraph<N, E>,
        src: NodeId,
        dst: NodeId,
        k: usize,
        mut cost: impl FnMut(EdgeId, &Edge<E>) -> Option<f64>,
    ) -> Vec<Path> {
        let mut result: Vec<Path> = Vec::new();
        let Some(first) = shortest_path_by_alloc(g, src, dst, &mut cost) else {
            return result;
        };
        result.push(first);
        let mut candidates: Vec<Path> = Vec::new();
        while result.len() < k {
            let Some(last) = result.last().cloned() else { break };
            for i in 0..last.nodes.len() - 1 {
                let spur_node = last.nodes[i];
                let root_nodes = &last.nodes[..=i];
                let root_edges = &last.edges[..i];
                let root_cost: f64 =
                    root_edges.iter().filter_map(|&e| cost(e, &g.edges[e.index()])).sum();
                let mut banned_edges: HashSet<EdgeId> = HashSet::new();
                for p in result.iter().chain(candidates.iter()) {
                    if p.nodes.len() > i && p.nodes[..=i] == *root_nodes {
                        if let Some(&e) = p.edges.get(i) {
                            banned_edges.insert(e);
                        }
                    }
                }
                let banned_nodes: HashSet<NodeId> = root_nodes[..i].iter().copied().collect();
                let spur = shortest_path_by_alloc(g, spur_node, dst, |eid, edge| {
                    if banned_edges.contains(&eid)
                        || banned_nodes.contains(&edge.src)
                        || banned_nodes.contains(&edge.dst)
                    {
                        None
                    } else {
                        cost(eid, edge)
                    }
                });
                if let Some(spur_path) = spur {
                    let mut nodes = root_nodes.to_vec();
                    nodes.extend_from_slice(&spur_path.nodes[1..]);
                    let mut edges = root_edges.to_vec();
                    edges.extend_from_slice(&spur_path.edges);
                    let total = Path { nodes, edges, cost: root_cost + spur_path.cost };
                    if !candidates.iter().any(|c| c.edges == total.edges)
                        && !result.iter().any(|c| c.edges == total.edges)
                    {
                        candidates.push(total);
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap_or(Ordering::Equal));
            result.push(candidates.remove(0));
        }
        result
    }

    proptest::proptest! {
        /// Random multigraphs — parallel edges and self-loops from few
        /// nodes, unit costs that tie, edges with no usable cost, `src ==
        /// dst` and unreachable `dst` — give bit-identical path sets to
        /// the `HashSet` oracle: nodes, edges and cost bits, path by path.
        /// The shortest-path tree from `src` gives every node's
        /// `shortest_path`, bit for bit.
        #[test]
        fn scratch_yen_matches_hashset_yen(
            n in 1u32..7,
            raw_edges in proptest::collection::vec((0u32..9, 0u32..9, 0usize..5, 0.0f64..4.0), 0..40),
            ends in (0u32..9, 0u32..9),
            k in 0usize..6,
        ) {
            let mut g: DiGraph<(), Option<f64>> = DiGraph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for &(s, d, kind, w) in &raw_edges {
                // Two in five edges cost 1 (ties), one in five is unusable.
                let cost = match kind {
                    0 => None,
                    1 | 2 => Some(1.0),
                    _ => Some(w),
                };
                g.add_edge(NodeId(s % n), NodeId(d % n), cost);
            }
            let (src, dst) = (NodeId(ends.0 % n), NodeId(ends.1 % n));
            let cost = |_: EdgeId, e: &Edge<Option<f64>>| e.payload;
            let got = g.k_shortest_paths(src, dst, k, cost);
            if k == 0 {
                proptest::prop_assert!(got.is_empty());
            } else {
                let want = k_shortest_paths_by_hashsets(&g, src, dst, k, cost);
                let key = |ps: &[Path]| -> Vec<(Vec<NodeId>, Vec<EdgeId>, u64)> {
                    ps.iter().map(|p| (p.nodes.clone(), p.edges.clone(), p.cost.to_bits())).collect()
                };
                proptest::prop_assert_eq!(key(&got), key(&want));
            }
            let one = g.shortest_path(src, dst, cost);
            let old = shortest_path_by_alloc(&g, src, dst, cost);
            let bits = |p: Option<Path>| p.map(|p| (p.nodes, p.edges, p.cost.to_bits()));
            proptest::prop_assert_eq!(bits(one), bits(old));
            // One tree from `src` gives every destination's path.
            let tree = g.shortest_path_tree(src, cost);
            for to in g.node_ids() {
                proptest::prop_assert_eq!(
                    bits(tree.path_to(to)),
                    bits(g.shortest_path(src, to, cost))
                );
            }
        }
    }

    #[test]
    fn reachability_closures() {
        let mut g: DiGraph<&str, ()> = DiGraph::new();
        // web -> cache -> db ; probe -> web
        let web = g.add_node("web");
        let cache = g.add_node("cache");
        let db = g.add_node("db");
        let probe = g.add_node("probe");
        g.add_edge(web, cache, ());
        g.add_edge(cache, db, ());
        g.add_edge(probe, web, ());
        let dependents_of_db = g.reaching(db);
        assert_eq!(dependents_of_db.len(), 4); // db, cache, web, probe
        let deps_of_probe = g.reachable_from(probe);
        assert!(deps_of_probe.contains(&db));
        assert!(!g.reachable_from(db).contains(&web));
    }

    #[test]
    fn bfs_hop_distances() {
        let (g, ids) = diamond();
        let d = g.bfs_hops(ids[0]);
        assert_eq!(d[&ids[0]], 0);
        assert_eq!(d[&ids[1]], 1);
        assert_eq!(d[&ids[3]], 1); // direct a->d edge
    }

    #[test]
    fn components_ignore_direction() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(b, a, ());
        let (comp, n) = g.weakly_connected_components();
        assert_eq!(n, 2);
        assert_eq!(comp[a.index()], comp[b.index()]);
        assert_ne!(comp[a.index()], comp[c.index()]);
    }

    #[test]
    fn topological_order_of_dag() {
        let mut g: DiGraph<&str, ()> = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(a, c, ());
        let order = g.topological_order().unwrap();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        assert!(pos[&a] < pos[&b] && pos[&b] < pos[&c]);
    }

    #[test]
    fn topological_order_rejects_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn contraction_merges_groups_and_folds_edges() {
        // 4 nodes in 2 groups; cross edges fold by sum, intra edges vanish.
        let mut g: DiGraph<u32, f64> = DiGraph::new();
        let n0 = g.add_node(0); // group 0
        let n1 = g.add_node(0); // group 0
        let n2 = g.add_node(1); // group 1
        let n3 = g.add_node(1); // group 1
        g.add_edge(n0, n1, 5.0); // intra — dropped
        g.add_edge(n0, n2, 1.0);
        g.add_edge(n1, n3, 2.0); // same coarse pair as above — folded
        g.add_edge(n2, n0, 7.0);
        let c = g.contract(
            |_, &grp| grp,
            |grp, members| (grp, members.len()),
            |acc: Option<f64>, w| acc.unwrap_or(0.0) + w,
        );
        assert_eq!(c.graph.node_count(), 2);
        assert_eq!(c.graph.edge_count(), 2);
        assert_eq!(c.members[0], vec![n0, n1]);
        assert_eq!(c.members[1], vec![n2, n3]);
        let fwd = c.graph.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(c.graph.edge(fwd).payload, 3.0);
        let back = c.graph.find_edge(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(c.graph.edge(back).payload, 7.0);
        assert_eq!(c.node_map, vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)]);
    }

    #[test]
    fn contraction_to_single_supernode_has_no_edges() {
        let (g, _) = diamond();
        let c =
            g.contract(|_, _| 0u8, |_, m| m.len(), |acc: Option<f64>, w| acc.unwrap_or(0.0) + w);
        assert_eq!(c.graph.node_count(), 1);
        assert_eq!(c.graph.edge_count(), 0);
        assert_eq!(*c.graph.node(NodeId(0)), 4);
    }
}
