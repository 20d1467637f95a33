//! Path-based multicommodity traffic engineering.
//!
//! Two solvers over the same path-restricted model (production WAN TE
//! systems route over precomputed k-shortest path sets):
//!
//! * [`max_multicommodity_flow`] — Garg–Könemann multiplicative-weights
//!   packing with the classic `(1 − ε)` approximation guarantee, used where
//!   solution quality matters (the Pareto-frontier experiment of §4);
//! * [`greedy_min_max_utilization`] — chunked greedy that routes all demand
//!   while minimizing the maximum link utilization, used for utilization
//!   studies and capacity planning (links may exceed 100 % — that *is* the
//!   overload signal planners react to).
//!
//! Both report [`TeSolution`]s with per-path flows, routed totals, and link
//! utilizations, and both work on any [`DiGraph`] via a capacity closure —
//! including coarse (supernode) graphs, which is how the coarsening
//! experiments run the *same* optimization at both granularities.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use serde::{Deserialize, Serialize};
use smn_topology::graph::{DiGraph, Edge, EdgeId, Path};

use crate::demand::DemandMatrix;

/// Solver configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TeConfig {
    /// Paths per commodity (k-shortest, loopless).
    pub k_paths: usize,
    /// Garg–Könemann accuracy parameter (smaller = closer to optimal,
    /// more iterations). Must be `>= 0`: the solver's lazy cheapest-column
    /// heap is exact because no row length ever shrinks, which holds only
    /// while every multiplier `1 + epsilon * gamma / cap` is at least 1.
    pub epsilon: f64,
    /// Hard iteration cap (safety valve).
    pub max_iterations: usize,
    /// Chunks each commodity is split into by the greedy solver.
    pub greedy_chunks: usize,
}

impl Default for TeConfig {
    fn default() -> Self {
        Self { k_paths: 4, epsilon: 0.1, max_iterations: 200_000, greedy_chunks: 10 }
    }
}

/// Flow assigned to one path of one commodity.
#[derive(Debug, Clone)]
pub struct PathFlow {
    /// Index into the demand matrix's commodity list.
    pub commodity: usize,
    /// The path used.
    pub path: Path,
    /// Flow in Gbps.
    pub gbps: f64,
}

/// A TE solution: path flows plus summary metrics.
#[derive(Debug, Clone, Default)]
pub struct TeSolution {
    /// Nonzero path flows.
    pub flows: Vec<PathFlow>,
    /// Total routed demand in Gbps.
    pub routed_gbps: f64,
    /// Total offered demand in Gbps.
    pub offered_gbps: f64,
    /// Per-link utilization (flow / capacity), keyed by edge.
    pub utilization: HashMap<EdgeId, f64>,
    /// Iterations the solver used.
    pub iterations: usize,
}

impl TeSolution {
    /// Fraction of offered demand routed, in `[0, 1]`.
    #[must_use]
    pub fn satisfaction(&self) -> f64 {
        if self.offered_gbps == 0.0 {
            1.0
        } else {
            self.routed_gbps / self.offered_gbps
        }
    }

    /// Highest link utilization (0 when no link is used).
    pub fn max_utilization(&self) -> f64 {
        self.utilization.values().cloned().fold(0.0, f64::max)
    }
}

/// Compute each commodity's k-shortest usable paths under `capacity`
/// (edges with zero capacity are unusable). Commodities with no path get an
/// empty set.
pub fn path_sets<N, E>(
    g: &DiGraph<N, E>,
    capacity: &impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    k: usize,
) -> Vec<Vec<Path>> {
    demand
        .commodities
        .iter()
        .map(|c| {
            g.k_shortest_paths(c.src, c.dst, k, |eid, e| (capacity(eid, e) > 0.0).then_some(1.0))
        })
        .collect()
}

/// Garg–Könemann maximum multicommodity flow over k-shortest path sets,
/// with per-commodity demand caps.
///
/// Packing rows are the graph edges (capacity) plus one row per commodity
/// (its demand); columns are (commodity, path) pairs. After the
/// multiplicative-weights loop the flow is rescaled exactly to feasibility,
/// so the returned solution never overuses a link or a demand regardless of
/// `epsilon`.
pub fn max_multicommodity_flow<N, E>(
    g: &DiGraph<N, E>,
    capacity: impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    cfg: &TeConfig,
) -> TeSolution {
    let paths = path_sets(g, &capacity, demand, cfg.k_paths);
    max_multicommodity_flow_with_paths(g, capacity, demand, &paths, cfg)
}

/// [`max_multicommodity_flow`] over caller-supplied path sets (one `Vec` of
/// candidate paths per commodity) — used to solve the fine problem under
/// coarse-conformant path restriction (see [`crate::restrict`]).
pub fn max_multicommodity_flow_with_paths<N, E>(
    g: &DiGraph<N, E>,
    capacity: impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    paths: &[Vec<smn_topology::graph::Path>],
    cfg: &TeConfig,
) -> TeSolution {
    gk_solve(g, &capacity, demand, paths, cfg, &smn_obs::Obs::disabled())
}

/// [`max_multicommodity_flow`] with every solver stage wrapped in a
/// profiled phase under `te/gk` (`gk/paths`, `gk/pack`, `gk/rescale`,
/// `gk/assemble` in the wall profile): identical solution, and the
/// multiplicative-weights inner loop becomes individually visible in the
/// perf trajectory.
pub fn max_multicommodity_flow_profiled<N, E>(
    g: &DiGraph<N, E>,
    capacity: impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    cfg: &TeConfig,
    obs: &smn_obs::Obs,
) -> TeSolution {
    let mut outer = obs.phase("te/gk");
    let paths = {
        let _p = obs.phase("gk/paths");
        path_sets(g, &capacity, demand, cfg.k_paths)
    };
    let solution = gk_solve(g, &capacity, demand, &paths, cfg, obs);
    outer.field("routed_gbps", solution.routed_gbps);
    outer.field("iterations", solution.iterations);
    solution
}

/// The one Garg–Könemann body behind every entry point: row capacities,
/// columns, lengths, packing, rescale and assembly, each stage in its own
/// `gk/*` phase of `obs` (a disabled handle is the plain solver).
fn gk_solve<N, E>(
    g: &DiGraph<N, E>,
    capacity: &impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    paths: &[Vec<Path>],
    cfg: &TeConfig,
    obs: &smn_obs::Obs,
) -> TeSolution {
    assert_eq!(paths.len(), demand.commodities.len(), "one path set per commodity");
    // Row capacities over the row layout `0..n_edges = edges,
    // n_edges.. = demands`.
    let caps: Vec<f64> = g
        .edges()
        .map(|(eid, e)| capacity(eid, e))
        .chain(demand.commodities.iter().map(|c| c.demand_gbps))
        .collect();
    let columns = Columns::new(paths, g.edge_count());
    let mut length = gk_lengths(&caps, cfg.epsilon);
    let (raw_flow, iterations) = {
        let mut p = obs.phase("gk/pack");
        let packed = gk_pack(&columns, &mut length, &caps, cfg.epsilon, cfg.max_iterations);
        p.field("iterations", packed.1);
        p.field("columns", columns.len());
        packed
    };
    let feas_scale = {
        let _p = obs.phase("gk/rescale");
        gk_feasibility_scale(&columns, &raw_flow, &caps)
    };
    let _p = obs.phase("gk/assemble");
    gk_assemble(demand, paths, &columns, &raw_flow, &caps, feas_scale, iterations)
}

/// GK stage 1: the packing columns, flat. Column `c` is path `ids[c].1`
/// of commodity `ids[c].0` and uses the rows
/// `rows[offsets[c]..offsets[c + 1]]`: its path's edges, then its
/// commodity's demand row. One allocation per field, however many
/// columns there are.
struct Columns {
    ids: Vec<(usize, usize)>,
    offsets: Vec<usize>,
    rows: Vec<u32>,
}

impl Columns {
    /// One column per candidate path of each commodity, over the row
    /// layout `0..n_edges = edges, n_edges.. = demands`.
    fn new(paths: &[Vec<Path>], n_edges: usize) -> Self {
        // Sized exactly up front, so the rows never regrow by copying.
        let n_rows = paths.iter().flatten().map(|p| p.edges.len() + 1).sum();
        let mut columns = Columns::with_capacity(paths.iter().map(Vec::len).sum(), n_rows);
        for (ci, ps) in paths.iter().enumerate() {
            // Saturating: a row past `u32::MAX` has no length, so no
            // column can use it.
            let demand_row = u32::try_from(n_edges + ci).unwrap_or(u32::MAX);
            for (pi, p) in ps.iter().enumerate() {
                columns.push((ci, pi), p.edges.iter().map(|e| e.0).chain([demand_row]));
            }
        }
        columns
    }

    /// Room for `columns` columns using `rows` rows in all.
    fn with_capacity(columns: usize, rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(columns + 1);
        offsets.push(0);
        Columns { ids: Vec::with_capacity(columns), offsets, rows: Vec::with_capacity(rows) }
    }

    /// Append column `id` using `rows`.
    fn push(&mut self, id: (usize, usize), rows: impl IntoIterator<Item = u32>) {
        self.rows.extend(rows);
        self.offsets.push(self.rows.len());
        self.ids.push(id);
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// The rows column `c` uses (none past the last column).
    fn rows(&self, c: usize) -> &[u32] {
        match (self.offsets.get(c), self.offsets.get(c + 1)) {
            (Some(&lo), Some(&hi)) => self.rows.get(lo..hi).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Every column's rows, in column order.
    fn all_rows(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|c| self.rows(c))
    }
}

/// GK stage 1b: initial row lengths `delta / cap` (∞ for zero-capacity
/// rows, which no column may then use).
fn gk_lengths(caps: &[f64], eps: f64) -> Vec<f64> {
    #[allow(clippy::cast_precision_loss)] // row counts stay far below 2^52
    let m = caps.len().max(2) as f64;
    let delta = (1.0 + eps) * ((1.0 + eps) * m).powf(-1.0 / eps);
    caps.iter().map(|&c| if c > 0.0 { delta / c } else { f64::INFINITY }).collect()
}

/// Heap entry of [`gk_pack`]'s lazy argmin: a column's length as last
/// computed, ordered by `f64::total_cmp` and then by column index, so
/// equal lengths pop lowest index first.
#[derive(Clone, Copy)]
struct ColumnKey {
    len: f64,
    col: usize,
}

impl Ord for ColumnKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.len.total_cmp(&other.len).then(self.col.cmp(&other.col))
    }
}

impl PartialOrd for ColumnKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ColumnKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ColumnKey {}

/// A column's length: its rows' lengths summed left to right.
fn column_length(rows: &[u32], length: &[f64]) -> f64 {
    rows.iter().map(|&r| length.get(r as usize).copied().unwrap_or(f64::INFINITY)).sum()
}

/// GK stage 2, the multiplicative-weights inner loop: repeatedly push the
/// bottleneck capacity down the cheapest column and inflate the lengths of
/// the rows it used. Returns the raw (infeasible) per-column flow and the
/// iteration count.
///
/// The cheapest column is found by a lazy min-heap holding one entry per
/// column of finite length, keyed by its length when last computed. The
/// top column's length is recomputed with the same left-to-right sum: if
/// it still equals its key it is the argmin and is used. Either way its
/// entry is then rekeyed in place to its current length (or dropped once
/// infinite), with no pop and push. This is exactly the full scan's
/// choice, first strict minimum included, because lengths never shrink:
/// with `eps >= 0` every multiplier `1 + eps * gamma / cap` is at least 1,
/// and IEEE multiplication and addition are monotone, so a key never
/// exceeds its column's current length. Keys are unique by
/// `(len, col)`, so the top entry whose key is current is no longer than
/// any column's current length, and among equal lengths it has the
/// lowest index.
fn gk_pack(
    columns: &Columns,
    length: &mut [f64],
    caps: &[f64],
    eps: f64,
    max_iterations: usize,
) -> (Vec<f64>, usize) {
    let cap = |r: u32| caps.get(r as usize).copied().unwrap_or(0.0);
    let mut raw_flow = vec![0.0f64; columns.len()];
    let mut heap: BinaryHeap<Reverse<ColumnKey>> = columns
        .all_rows()
        .enumerate()
        .map(|(col, rows)| ColumnKey { len: column_length(rows, length), col })
        .filter(|k| k.len.is_finite())
        .map(Reverse)
        .collect();
    let mut iterations = 0usize;
    while iterations < max_iterations {
        let Some(mut top) = heap.peek_mut() else { break };
        let Reverse(key) = *top;
        let rows = columns.rows(key.col);
        let mut len = column_length(rows, length);
        if len.to_bits() == key.len.to_bits() {
            // The cheapest column under current lengths.
            if len >= 1.0 {
                break;
            }
            let gamma = rows.iter().map(|&r| cap(r)).fold(f64::INFINITY, f64::min);
            if gamma <= 0.0 || !gamma.is_finite() {
                break;
            }
            if let Some(f) = raw_flow.get_mut(key.col) {
                *f += gamma;
            }
            for &r in rows {
                if let Some(l) = length.get_mut(r as usize) {
                    *l *= 1.0 + eps * gamma / cap(r);
                }
            }
            iterations += 1;
            len = column_length(rows, length);
        }
        if len.is_finite() {
            *top = Reverse(ColumnKey { len, col: key.col });
        } else {
            PeekMut::pop(top);
        }
    }
    (raw_flow, iterations)
}

/// GK stage 3: exact feasibility rescale factor. The theoretical
/// `ln(1+eps)/|ln delta|` scale is subsumed by measuring the worst actual
/// row overuse and scaling it back to 1, so the returned flow never
/// overuses a link or a demand regardless of `epsilon`.
fn gk_feasibility_scale(columns: &Columns, raw_flow: &[f64], caps: &[f64]) -> f64 {
    let mut row_use = vec![0.0f64; caps.len()];
    for (rows, &f) in columns.all_rows().zip(raw_flow) {
        for &r in rows {
            if let Some(u) = row_use.get_mut(r as usize) {
                *u += f;
            }
        }
    }
    let worst = row_use
        .iter()
        .zip(caps)
        .map(|(&u, &c)| if c > 0.0 { u / c } else { 0.0 })
        .fold(0.0f64, f64::max);
    if worst > 1.0 {
        1.0 / worst
    } else {
        1.0
    }
}

/// GK stage 4: turn the rescaled column flows into a [`TeSolution`]
/// (dropping sub-1e-9 residues).
fn gk_assemble(
    demand: &DemandMatrix,
    paths: &[Vec<Path>],
    columns: &Columns,
    raw_flow: &[f64],
    caps: &[f64],
    feas_scale: f64,
    iterations: usize,
) -> TeSolution {
    let mut solution =
        TeSolution { offered_gbps: demand.total_gbps(), iterations, ..Default::default() };
    for (&(ci, pi), &raw) in columns.ids.iter().zip(raw_flow) {
        let f = raw * feas_scale;
        if f <= 1e-9 {
            continue;
        }
        let Some(path) = paths.get(ci).and_then(|ps| ps.get(pi)) else { continue };
        solution.routed_gbps += f;
        for e in &path.edges {
            let cap = caps.get(e.index()).copied().unwrap_or(f64::NAN);
            *solution.utilization.entry(*e).or_insert(0.0) += f / cap;
        }
        solution.flows.push(PathFlow { commodity: ci, path: path.clone(), gbps: f });
    }
    solution
}

/// Greedy chunked routing of *all* demand, minimizing maximum utilization.
///
/// Each commodity is split into `greedy_chunks` chunks; chunks are routed
/// round-robin, each on the path (from its k-set) that minimizes the
/// resulting bottleneck utilization. All offered demand is always placed
/// (capacity planning needs to see overload, so utilization may exceed 1).
pub fn greedy_min_max_utilization<N, E>(
    g: &DiGraph<N, E>,
    capacity: impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    cfg: &TeConfig,
) -> TeSolution {
    let paths = path_sets(g, &capacity, demand, cfg.k_paths);
    // Ordered maps: `flows` becomes `TeSolution::flows` in iteration
    // order, so a hash map here would leak hash order into the output of
    // every deterministic caller (core::simulation::run among them).
    let mut load: BTreeMap<EdgeId, f64> = BTreeMap::new();
    // flow per (commodity, path idx)
    let mut flows: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut routed = 0.0;
    let mut iterations = 0usize;
    for chunk in 0..cfg.greedy_chunks {
        let _ = chunk;
        for (ci, c) in demand.commodities.iter().enumerate() {
            if paths[ci].is_empty() {
                continue;
            }
            let part = c.demand_gbps / cfg.greedy_chunks as f64;
            // Pick the path minimizing the resulting max utilization along
            // it (the path set is non-empty here, so min_by yields a value;
            // an empty set just routes nothing).
            let Some((best_pi, _)) = paths[ci]
                .iter()
                .enumerate()
                .map(|(pi, p)| {
                    let bottleneck = p
                        .edges
                        .iter()
                        .map(|e| {
                            let cap = capacity(*e, g.edge(*e)).max(1e-9);
                            (load.get(e).copied().unwrap_or(0.0) + part) / cap
                        })
                        .fold(0.0f64, f64::max);
                    (pi, bottleneck)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                continue;
            };
            for e in &paths[ci][best_pi].edges {
                *load.entry(*e).or_insert(0.0) += part;
            }
            *flows.entry((ci, best_pi)).or_insert(0.0) += part;
            routed += part;
            iterations += 1;
        }
    }
    let mut solution = TeSolution {
        offered_gbps: demand.total_gbps(),
        routed_gbps: routed,
        iterations,
        ..Default::default()
    };
    for (&(ci, pi), &f) in &flows {
        solution.flows.push(PathFlow { commodity: ci, path: paths[ci][pi].clone(), gbps: f });
    }
    for (e, l) in load {
        let cap = capacity(e, g.edge(e)).max(1e-9);
        solution.utilization.insert(e, l / cap);
    }
    solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxflow::FlowNetwork;
    use smn_topology::NodeId;

    /// Two nodes, two parallel links of 10 each.
    fn parallel_graph() -> DiGraph<(), f64> {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 10.0);
        g.add_edge(a, b, 10.0);
        g
    }

    fn cap(_: EdgeId, e: &Edge<f64>) -> f64 {
        e.payload
    }

    #[test]
    fn gk_routes_single_commodity_near_capacity() {
        let g = parallel_graph();
        let demand = DemandMatrix::from_triples([(NodeId(0), NodeId(1), 100.0)]);
        let sol = max_multicommodity_flow(&g, cap, &demand, &TeConfig::default());
        // Exact optimum is 20 (both links); GK with feasibility rescale
        // must be close and never above.
        assert!(sol.routed_gbps <= 20.0 + 1e-9);
        assert!(sol.routed_gbps > 16.0, "routed {}", sol.routed_gbps);
        assert!(sol.max_utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn gk_respects_demand_caps() {
        let g = parallel_graph();
        let demand = DemandMatrix::from_triples([(NodeId(0), NodeId(1), 5.0)]);
        let sol = max_multicommodity_flow(&g, cap, &demand, &TeConfig::default());
        assert!(sol.routed_gbps <= 5.0 + 1e-9);
        assert!(sol.routed_gbps > 4.0);
        assert!((sol.satisfaction() - 1.0).abs() < 0.2);
    }

    #[test]
    fn gk_matches_dinic_on_a_diamond() {
        // s->a (10), s->b (10), a->t (6), b->t (7): max flow 13.
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, 10.0);
        g.add_edge(s, b, 10.0);
        g.add_edge(a, t, 6.0);
        g.add_edge(b, t, 7.0);
        let mut dinic = FlowNetwork::new(4);
        for (_, e) in g.edges() {
            dinic.add_arc(e.src.index(), e.dst.index(), e.payload);
        }
        let exact = dinic.max_flow(s.index(), t.index());
        assert_eq!(exact, 13.0);
        let demand = DemandMatrix::from_triples([(s, t, 100.0)]);
        let cfg = TeConfig { epsilon: 0.05, ..Default::default() };
        let sol = max_multicommodity_flow(&g, cap, &demand, &cfg);
        assert!(sol.routed_gbps <= exact + 1e-9);
        assert!(sol.routed_gbps >= 0.85 * exact, "gk {} vs exact {exact}", sol.routed_gbps);
    }

    #[test]
    fn gk_arbitrates_competing_commodities() {
        // Two commodities share one 10-capacity link.
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 10.0);
        g.add_edge(c, a, 100.0);
        g.add_edge(b, d, 100.0);
        let demand = DemandMatrix::from_triples([(a, b, 10.0), (c, d, 10.0)]);
        let sol = max_multicommodity_flow(&g, cap, &demand, &TeConfig::default());
        // Shared bottleneck: total routed cannot exceed 10.
        assert!(sol.routed_gbps <= 10.0 + 1e-9);
        assert!(sol.routed_gbps > 8.0);
    }

    #[test]
    fn gk_handles_unroutable_commodity() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let island = g.add_node(());
        g.add_edge(a, b, 10.0);
        let demand = DemandMatrix::from_triples([(a, b, 5.0), (a, island, 5.0)]);
        let sol = max_multicommodity_flow(&g, cap, &demand, &TeConfig::default());
        assert!(sol.routed_gbps <= 5.0 + 1e-9);
        assert!(sol.satisfaction() <= 0.55);
    }

    #[test]
    fn greedy_routes_everything_and_balances() {
        let g = parallel_graph();
        let demand = DemandMatrix::from_triples([(NodeId(0), NodeId(1), 16.0)]);
        let sol = greedy_min_max_utilization(&g, cap, &demand, &TeConfig::default());
        assert!((sol.routed_gbps - 16.0).abs() < 1e-9);
        assert!((sol.satisfaction() - 1.0).abs() < 1e-9);
        // Balanced over the two links: each at 0.8.
        assert!((sol.max_utilization() - 0.8).abs() < 1e-9, "{}", sol.max_utilization());
    }

    #[test]
    fn greedy_overload_is_visible() {
        let g = parallel_graph();
        let demand = DemandMatrix::from_triples([(NodeId(0), NodeId(1), 40.0)]);
        let sol = greedy_min_max_utilization(&g, cap, &demand, &TeConfig::default());
        assert!((sol.routed_gbps - 40.0).abs() < 1e-9);
        assert!(sol.max_utilization() > 1.9, "overload must show: {}", sol.max_utilization());
    }

    #[test]
    fn profiled_gk_matches_plain_and_profiles_stages() {
        let g = parallel_graph();
        let demand = DemandMatrix::from_triples([(NodeId(0), NodeId(1), 100.0)]);
        let cfg = TeConfig::default();
        let plain = max_multicommodity_flow(&g, cap, &demand, &cfg);
        let obs = smn_obs::Obs::enabled(smn_obs::clock::SimClock::new());
        let profiled = max_multicommodity_flow_profiled(&g, cap, &demand, &cfg, &obs);
        assert_eq!(profiled.routed_gbps, plain.routed_gbps);
        assert_eq!(profiled.iterations, plain.iterations);
        assert_eq!(profiled.flows.len(), plain.flows.len());
        let paths: Vec<String> = obs.wall_profile().into_iter().map(|s| s.path).collect();
        assert_eq!(
            paths,
            ["te/gk", "te/gk;gk/assemble", "te/gk;gk/pack", "te/gk;gk/paths", "te/gk;gk/rescale"]
        );
        // Disabled handle: same result, empty profile.
        let off = smn_obs::Obs::disabled();
        let quiet = max_multicommodity_flow_profiled(&g, cap, &demand, &cfg, &off);
        assert_eq!(quiet.routed_gbps, plain.routed_gbps);
        assert!(off.wall_profile().is_empty());
    }

    /// The full-scan argmin `gk_pack` replaced: the byte-identity oracle
    /// for the lazy heap.
    fn gk_pack_scan(
        columns: &Columns,
        length: &mut [f64],
        caps: &[f64],
        eps: f64,
        max_iterations: usize,
    ) -> (Vec<f64>, usize) {
        let mut raw_flow = vec![0.0f64; columns.len()];
        let mut iterations = 0usize;
        while iterations < max_iterations {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..columns.len() {
                let len: f64 = columns.rows(i).iter().map(|&r| length[r as usize]).sum();
                if len.is_finite() && best.is_none_or(|(_, bl)| len < bl) {
                    best = Some((i, len));
                }
            }
            let Some((ci, len)) = best else { break };
            if len >= 1.0 {
                break;
            }
            let rows = columns.rows(ci);
            let gamma = rows.iter().map(|&r| caps[r as usize]).fold(f64::INFINITY, f64::min);
            if gamma <= 0.0 || !gamma.is_finite() {
                break;
            }
            raw_flow[ci] += gamma;
            for &r in rows {
                length[r as usize] *= 1.0 + eps * gamma / caps[r as usize];
            }
            iterations += 1;
        }
        (raw_flow, iterations)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        /// Random packings — capacities drawn from a small pool so rows
        /// tie, repeated row sets (parallel edges), zero-capacity rows,
        /// iteration caps that bind — pack bit for bit as the full scan
        /// did: raw flows, iteration count and final lengths.
        #[test]
        fn heap_gk_pack_matches_linear_scan(
            caps in proptest::collection::vec(0usize..6, 1..14),
            raw_cols in proptest::collection::vec(
                (0usize..1000, proptest::collection::vec(0u32..1000, 1..5), 0usize..3),
                1..40,
            ),
            eps_pick in 0usize..4,
            max_iterations in 0usize..40_000,
        ) {
            const CAP_POOL: [f64; 6] = [0.0, 1.0, 2.5, 10.0, 10.0, 40.0];
            let caps: Vec<f64> = caps.iter().map(|&i| CAP_POOL[i]).collect();
            let eps = [0.05, 0.1, 0.2, 0.5][eps_pick];
            let n_rows = u32::try_from(caps.len()).expect("a few rows");
            // A third of the columns copy an earlier column's rows: the
            // same path offered twice, i.e. parallel candidates that tie.
            let mut columns = Columns::with_capacity(raw_cols.len(), 0);
            for (i, (seed, rows, kind)) in raw_cols.iter().enumerate() {
                let rows: Vec<u32> = if *kind == 0 && i > 0 {
                    columns.rows(seed % i).to_vec()
                } else {
                    rows.iter().map(|r| r % n_rows).collect()
                };
                columns.push((0, i), rows);
            }
            let mut heap_len = gk_lengths(&caps, eps);
            let mut scan_len = heap_len.clone();
            let heap = gk_pack(&columns, &mut heap_len, &caps, eps, max_iterations);
            let scan = gk_pack_scan(&columns, &mut scan_len, &caps, eps, max_iterations);
            proptest::prop_assert_eq!(heap.1, scan.1);
            proptest::prop_assert_eq!(bits(&heap.0), bits(&scan.0));
            proptest::prop_assert_eq!(bits(&heap_len), bits(&scan_len));
        }
    }

    #[test]
    fn empty_demand_is_trivial() {
        let g = parallel_graph();
        let demand = DemandMatrix::default();
        let sol = max_multicommodity_flow(&g, cap, &demand, &TeConfig::default());
        assert_eq!(sol.routed_gbps, 0.0);
        assert_eq!(sol.satisfaction(), 1.0);
        let sol2 = greedy_min_max_utilization(&g, cap, &demand, &TeConfig::default());
        assert_eq!(sol2.routed_gbps, 0.0);
    }
}
