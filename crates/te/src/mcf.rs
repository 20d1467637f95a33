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

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::ops::Range;

use serde::{Deserialize, Serialize};
use smn_topology::graph::{DiGraph, Edge, EdgeId, Path};

use crate::demand::{Commodity, DemandMatrix};

/// Solver configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TeConfig {
    /// Paths per commodity (k-shortest, loopless).
    pub k_paths: usize,
    /// Garg–Könemann accuracy parameter (smaller = closer to optimal,
    /// more iterations). Must be `>= 0`: the solver's lazy heap, one entry
    /// per commodity keyed by its cheapest column, is exact because no row
    /// length ever shrinks, which holds only while every multiplier
    /// `1 + epsilon * gamma / cap` is at least 1.
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

/// Commodities from which [`path_sets`] searches two halves of the list
/// on two threads. On a 2-vCPU host a spawn and join cost ≈40 µs and one
/// commodity's search ≈3–12 µs on the 300- and 1000-DC region graphs:
/// forked, 32 commodities broke even and 64 took ≈205 µs against ≈345 µs
/// on one thread.
const PATHS_FORK_COMMODITIES: usize = 64;

/// Compute each commodity's k-shortest usable paths under `capacity`
/// (edges with zero capacity are unusable). Commodities with no path get an
/// empty set.
pub fn path_sets<N: Sync, E: Sync>(
    g: &DiGraph<N, E>,
    capacity: &(impl Fn(EdgeId, &Edge<E>) -> f64 + Sync),
    demand: &DemandMatrix,
    k: usize,
) -> Vec<Vec<Path>> {
    forked_path_sets(g, capacity, demand, k, &smn_obs::Obs::disabled())
}

/// [`path_sets`], searching the commodities at even and at odd places
/// of the list as the two laps of one fork of `obs` (`paths/even` on the
/// caller, `paths/odd` spawned) from `PATHS_FORK_COMMODITIES` commodities
/// on. Interleaved, the halves cost about the same where the search cost
/// grows along the list. Each commodity's search reads only the graph and
/// `capacity`, so the two halves' path sets, put back in commodity order,
/// are those of one search after another.
fn forked_path_sets<N: Sync, E: Sync>(
    g: &DiGraph<N, E>,
    capacity: &(impl Fn(EdgeId, &Edge<E>) -> f64 + Sync),
    demand: &DemandMatrix,
    k: usize,
    obs: &smn_obs::Obs,
) -> Vec<Vec<Path>> {
    let search = |c: &Commodity| {
        g.k_shortest_paths(c.src, c.dst, k, |eid, e| (capacity(eid, e) > 0.0).then_some(1.0))
    };
    let all = &demand.commodities;
    if all.len() < PATHS_FORK_COMMODITIES {
        return all.iter().map(search).collect();
    }
    // The caller allocates both halves' lists.
    let (mut even, mut odd) =
        (Vec::with_capacity(all.len().div_ceil(2)), Vec::with_capacity(all.len() / 2));
    obs.fork(
        ("paths/odd", |_| odd.extend(all.iter().skip(1).step_by(2).map(search))),
        ("paths/even", |_| even.extend(all.iter().step_by(2).map(search))),
    );
    let mut odd = odd.into_iter();
    even.into_iter().flat_map(|e| std::iter::once(e).chain(odd.next())).collect()
}

/// Garg–Könemann maximum multicommodity flow over k-shortest path sets,
/// with per-commodity demand caps.
///
/// Packing rows are the graph edges (capacity) plus one row per commodity
/// (its demand); columns are (commodity, path) pairs. After the
/// multiplicative-weights loop the flow is rescaled exactly to feasibility,
/// so the returned solution never overuses a link or a demand regardless of
/// `epsilon`.
pub fn max_multicommodity_flow<N: Sync, E: Sync>(
    g: &DiGraph<N, E>,
    capacity: impl Fn(EdgeId, &Edge<E>) -> f64 + Sync,
    demand: &DemandMatrix,
    cfg: &TeConfig,
) -> TeSolution {
    let paths = path_sets(g, &capacity, demand, cfg.k_paths);
    gk_solve(g, &capacity, demand, &paths, cfg, &smn_obs::Obs::disabled(), gk_pack)
}

/// [`max_multicommodity_flow_with_paths`] was given a number of path sets
/// other than the number of commodities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSetCountMismatch {
    /// Path sets supplied.
    pub path_sets: usize,
    /// Commodities in the demand matrix.
    pub commodities: usize,
}

impl std::fmt::Display for PathSetCountMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} path sets for {} commodities: need one path set per commodity",
            self.path_sets, self.commodities
        )
    }
}

impl std::error::Error for PathSetCountMismatch {}

/// [`max_multicommodity_flow`] over caller-supplied path sets (one `Vec` of
/// candidate paths per commodity) — used to solve the fine problem under
/// coarse-conformant path restriction (see [`crate::restrict`]).
///
/// # Errors
/// [`PathSetCountMismatch`] unless `paths` holds exactly one path set per
/// commodity of `demand`.
pub fn max_multicommodity_flow_with_paths<N, E>(
    g: &DiGraph<N, E>,
    capacity: impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    paths: &[Vec<smn_topology::graph::Path>],
    cfg: &TeConfig,
) -> Result<TeSolution, PathSetCountMismatch> {
    if paths.len() != demand.commodities.len() {
        return Err(PathSetCountMismatch {
            path_sets: paths.len(),
            commodities: demand.commodities.len(),
        });
    }
    Ok(gk_solve(g, &capacity, demand, paths, cfg, &smn_obs::Obs::disabled(), gk_pack))
}

/// [`max_multicommodity_flow`] with every solver stage wrapped in a
/// profiled phase under `te/gk` (`gk/paths`, `gk/pack`, `gk/rescale`,
/// `gk/assemble` in the wall profile): identical solution, and the
/// multiplicative-weights inner loop becomes individually visible in the
/// perf trajectory.
pub fn max_multicommodity_flow_profiled<N: Sync, E: Sync>(
    g: &DiGraph<N, E>,
    capacity: impl Fn(EdgeId, &Edge<E>) -> f64 + Sync,
    demand: &DemandMatrix,
    cfg: &TeConfig,
    obs: &smn_obs::Obs,
) -> TeSolution {
    let mut outer = obs.phase("te/gk");
    let paths = {
        let _p = obs.phase("gk/paths");
        forked_path_sets(g, &capacity, demand, cfg.k_paths, obs)
    };
    let solution = gk_solve(g, &capacity, demand, &paths, cfg, obs, gk_pack);
    outer.field("routed_gbps", solution.routed_gbps);
    outer.field("iterations", solution.iterations);
    solution
}

/// The packing stage [`gk_solve`] runs: [`gk_pack`], or in tests the
/// full-scan oracle it must match bit for bit.
type Packer = fn(&Columns, &mut [f64], &[f64], f64, usize) -> Packed;

/// The one Garg–Könemann body behind every entry point: row capacities,
/// columns, lengths, packing, rescale and assembly, each stage in its own
/// `gk/*` phase of `obs` (a disabled handle is the plain solver). `paths`
/// holds one path set per commodity; a commodity past its end has no
/// column, and a path set past the last commodity has no finite one.
fn gk_solve<N, E>(
    g: &DiGraph<N, E>,
    capacity: &impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    paths: &[Vec<Path>],
    cfg: &TeConfig,
    obs: &smn_obs::Obs,
    pack: Packer,
) -> TeSolution {
    // Row capacities over the row layout `0..n_edges = edges,
    // n_edges.. = demands`.
    let caps: Vec<f64> = g
        .edges()
        .map(|(eid, e)| capacity(eid, e))
        .chain(demand.commodities.iter().map(|c| c.demand_gbps))
        .collect();
    let columns = Columns::new(paths, g.edge_count());
    let mut length = gk_lengths(&caps, cfg.epsilon);
    let packed = {
        let mut p = obs.phase("gk/pack");
        let packed = pack(&columns, &mut length, &caps, cfg.epsilon, cfg.max_iterations);
        p.field("iterations", packed.iterations);
        p.field("columns", columns.len());
        p.field("visits", packed.visits);
        p.field("entries", packed.entries);
        packed
    };
    let feas_scale = {
        let _p = obs.phase("gk/rescale");
        gk_feasibility_scale(&columns, &packed.raw_flow, &caps)
    };
    let _p = obs.phase("gk/assemble");
    gk_assemble(demand, paths, &columns, &packed.raw_flow, &caps, feas_scale, packed.iterations)
}

/// GK stage 1: the packing columns, flat. Column `c` is path `ids[c].1`
/// of commodity `ids[c].0` and uses the rows
/// `rows[offsets[c]..offsets[c + 1]]`: its path's edges, then its
/// commodity's demand row. A commodity's columns are one contiguous run:
/// column `c` is in run `run_of[c]`, which starts at column
/// `starts[run_of[c]]` (commodities without a path have none). One
/// allocation per field, however many columns there are.
struct Columns {
    ids: Vec<(usize, usize)>,
    offsets: Vec<usize>,
    rows: Vec<u32>,
    starts: Vec<usize>,
    run_of: Vec<usize>,
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
        Columns {
            ids: Vec::with_capacity(columns),
            offsets,
            rows: Vec::with_capacity(rows),
            starts: Vec::new(),
            run_of: Vec::with_capacity(columns),
        }
    }

    /// Append column `id` using `rows`. It joins the previous column's
    /// run when both have the same commodity, and starts a new run
    /// otherwise.
    fn push(&mut self, id: (usize, usize), rows: impl IntoIterator<Item = u32>) {
        if self.ids.last().is_none_or(|last| last.0 != id.0) {
            self.starts.push(self.ids.len());
        }
        self.run_of.push(self.starts.len().saturating_sub(1));
        self.rows.extend(rows);
        self.offsets.push(self.rows.len());
        self.ids.push(id);
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Every commodity's run of columns, in column order.
    fn commodities(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let ends = self.starts.iter().skip(1).copied().chain([self.len()]);
        self.starts.iter().zip(ends).map(|(&lo, hi)| lo..hi)
    }

    /// The run of columns of column `c`'s commodity (empty past the last
    /// column).
    fn commodity_of(&self, c: usize) -> Range<usize> {
        let Some(&run) = self.run_of.get(c) else { return 0..0 };
        let lo = self.starts.get(run).copied().unwrap_or(0);
        let hi = self.starts.get(run + 1).copied().unwrap_or(self.len());
        lo..hi
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
    #[allow(clippy::cast_precision_loss, reason = "row counts stay far below 2^52")]
    let m = caps.len().max(2) as f64;
    let delta = (1.0 + eps) * ((1.0 + eps) * m).powf(-1.0 / eps);
    caps.iter().map(|&c| if c > 0.0 { delta / c } else { f64::INFINITY }).collect()
}

/// A column's length: its rows' lengths summed left to right.
fn column_length(rows: &[u32], length: &[f64]) -> f64 {
    rows.iter().map(|&r| length.get(r as usize).copied().unwrap_or(f64::INFINITY)).sum()
}

/// The heap key of column `col` at length `len`: the length's bits over
/// the column index. For finite non-negative lengths, integer order is
/// `f64::total_cmp` order with ties broken by the lower index.
fn column_key(len: f64, col: usize) -> u128 {
    u128::from(len.to_bits()) << 64 | col as u128
}

/// The column index of a [`column_key`].
#[allow(clippy::cast_possible_truncation, reason = "the low 64 bits hold a usize index")]
fn key_column(key: u128) -> usize {
    key as u64 as usize
}

/// The length of a [`column_key`].
#[allow(clippy::cast_possible_truncation, reason = "the high 64 bits hold f64 bits")]
fn key_length(key: u128) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

/// The key of the cheapest finite column among `cols`, lowest index
/// first among equal lengths (`None` when every one is infinite).
fn cheapest(columns: &Columns, cols: Range<usize>, length: &[f64]) -> Option<u128> {
    cols.filter_map(|c| {
        let len = column_length(columns.rows(c), length);
        len.is_finite().then(|| column_key(len, c))
    })
    .min()
}

/// What [`gk_pack`] returns: the raw (infeasible) per-column flow, the
/// iterations it took, the heap visits it made and the heap entries it
/// started with (commodities with a finite column).
struct Packed {
    raw_flow: Vec<f64>,
    iterations: usize,
    visits: usize,
    entries: usize,
}

/// GK stage 2, the multiplicative-weights inner loop: repeatedly push the
/// bottleneck capacity down the cheapest column and inflate the lengths of
/// the rows it used.
///
/// The cheapest column is found by a lazy min-heap holding one entry per
/// commodity with a finite column: the [`column_key`] of its cheapest
/// column when last computed. A visit recomputes the top commodity's
/// column lengths with the same left-to-right sums. If its cheapest key
/// still equals the entry's, that column is the argmin and is used. Either
/// way the entry is then rekeyed in place to the commodity's current
/// cheapest key (or dropped once every column is infinite), with no pop and
/// push. A commodity's columns share its demand row, so one routed column
/// makes all of them stale at once: with one entry per commodity that
/// costs one visit, not one per column.
///
/// This is exactly the full scan's choice, first strict minimum included,
/// because lengths never shrink: with `eps >= 0` every multiplier
/// `1 + eps * gamma / cap` is at least 1, and IEEE multiplication and
/// addition are monotone, so no column's `(len, col)` falls below its key
/// when last computed, and no entry exceeds its commodity's current
/// cheapest key. Keys are unique by column, so the top entry whose key is
/// current is no longer than any column's current length, and among equal
/// lengths it has the lowest index.
fn gk_pack(
    columns: &Columns,
    length: &mut [f64],
    caps: &[f64],
    eps: f64,
    max_iterations: usize,
) -> Packed {
    let cap = |r: u32| caps.get(r as usize).copied().unwrap_or(0.0);
    let mut raw_flow = vec![0.0f64; columns.len()];
    let mut heap: BinaryHeap<Reverse<u128>> = columns
        .commodities()
        .filter_map(|cols| cheapest(columns, cols, length))
        .map(Reverse)
        .collect();
    let entries = heap.len();
    let (mut iterations, mut visits) = (0usize, 0usize);
    while iterations < max_iterations {
        let Some(mut top) = heap.peek_mut() else { break };
        visits += 1;
        let Reverse(key) = *top;
        let col = key_column(key);
        let commodity = columns.commodity_of(col);
        let mut current = cheapest(columns, commodity.clone(), length);
        if current == Some(key) {
            // The cheapest column under current lengths.
            if key_length(key) >= 1.0 {
                break;
            }
            let rows = columns.rows(col);
            let gamma = rows.iter().map(|&r| cap(r)).fold(f64::INFINITY, f64::min);
            if gamma <= 0.0 || !gamma.is_finite() {
                break;
            }
            if let Some(f) = raw_flow.get_mut(col) {
                *f += gamma;
            }
            for &r in rows {
                if let Some(l) = length.get_mut(r as usize) {
                    *l *= 1.0 + eps * gamma / cap(r);
                }
            }
            iterations += 1;
            current = cheapest(columns, commodity, length);
        }
        match current {
            Some(key) => *top = Reverse(key),
            None => {
                PeekMut::pop(top);
            }
        }
    }
    Packed { raw_flow, iterations, visits, entries }
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
pub fn greedy_min_max_utilization<N: Sync, E: Sync>(
    g: &DiGraph<N, E>,
    capacity: impl Fn(EdgeId, &Edge<E>) -> f64 + Sync,
    demand: &DemandMatrix,
    cfg: &TeConfig,
) -> TeSolution {
    let paths = path_sets(g, &capacity, demand, cfg.k_paths);
    // Each edge's capacity, floored at 1e-9 so an unusable edge reads as
    // overloaded rather than dividing by zero.
    let caps: Vec<f64> = g.edges().map(|(eid, e)| capacity(eid, e).max(1e-9)).collect();
    let cap = |e: EdgeId| caps.get(e.index()).copied().unwrap_or(1e-9);
    // Ordered maps: `flows` becomes `TeSolution::flows` in iteration
    // order, so a hash map here would leak hash order into the output of
    // every deterministic caller (core::simulation::run among them).
    let mut load: BTreeMap<EdgeId, f64> = BTreeMap::new();
    // flow per (commodity, path idx)
    let mut flows: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut routed = 0.0;
    let mut iterations = 0usize;
    for _chunk in 0..cfg.greedy_chunks {
        for (ci, (c, ps)) in demand.commodities.iter().zip(&paths).enumerate() {
            let part = c.demand_gbps / cfg.greedy_chunks as f64;
            // Pick the path minimizing the resulting max utilization along
            // it; an empty path set routes nothing.
            let Some((best_pi, best, _)) = ps
                .iter()
                .enumerate()
                .map(|(pi, p)| {
                    let bottleneck = p
                        .edges
                        .iter()
                        .map(|&e| (load.get(&e).copied().unwrap_or(0.0) + part) / cap(e))
                        .fold(0.0f64, f64::max);
                    (pi, p, bottleneck)
                })
                .min_by(|a, b| a.2.total_cmp(&b.2))
            else {
                continue;
            };
            for e in &best.edges {
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
        let Some(path) = paths.get(ci).and_then(|ps| ps.get(pi)) else { continue };
        solution.flows.push(PathFlow { commodity: ci, path: path.clone(), gbps: f });
    }
    for (e, l) in load {
        solution.utilization.insert(e, l / cap(e));
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
    /// for the lazy heap. It keeps no heap, so it counts no visits and no
    /// entries.
    fn gk_pack_scan(
        columns: &Columns,
        length: &mut [f64],
        caps: &[f64],
        eps: f64,
        max_iterations: usize,
    ) -> Packed {
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
        Packed { raw_flow, iterations, visits: 0, entries: 0 }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        /// Random packings pack bit for bit as the full scan does: raw
        /// flows, iteration count and final lengths. Each of 1–8
        /// commodities owns one contiguous run of 0–4 columns, each ending
        /// in the commodity's own demand row, as `Columns::new` lays them
        /// out. Capacities come from a small pool, so rows tie, and
        /// include zero on edge and demand rows alike. A column may repeat
        /// an earlier column's edges, in its own commodity or another
        /// one, and iteration caps bind. The runs are laid out in
        /// commodity order or shuffled: in commodity order, breaking ties
        /// by commodity and by column pick the same column, so only a
        /// shuffled layout tells them apart.
        #[test]
        fn heap_gk_pack_matches_linear_scan(
            edge_caps in proptest::collection::vec(0usize..6, 1..12),
            commodities in proptest::collection::vec(
                (
                    0usize..6,
                    0u8..8,
                    proptest::collection::vec(
                        (0usize..1000, proptest::collection::vec(0u32..1000, 1..5), 0usize..4),
                        0..5,
                    ),
                ),
                1..9,
            ),
            shuffle in 0u8..2,
            eps_pick in 0usize..4,
            max_iterations in 0usize..40_000,
        ) {
            const CAP_POOL: [f64; 6] = [0.0, 1.0, 2.5, 10.0, 10.0, 40.0];
            let caps: Vec<f64> = edge_caps
                .iter()
                .chain(commodities.iter().map(|c| &c.0))
                .map(|&i| CAP_POOL[i])
                .collect();
            let eps = [0.05, 0.1, 0.2, 0.5][eps_pick];
            let n_edges = u32::try_from(edge_caps.len()).expect("a few rows");
            let mut order: Vec<usize> = (0..commodities.len()).collect();
            if shuffle == 1 {
                order.sort_by_key(|&ci| commodities[ci].1);
            }
            // The edge rows of every column laid out so far, by commodity.
            let mut laid: Vec<(usize, Vec<u32>)> = Vec::new();
            let mut columns = Columns::with_capacity(0, 0);
            for &ci in &order {
                let demand_row = n_edges + u32::try_from(ci).expect("a few commodities");
                for (pi, (seed, rows, kind)) in commodities[ci].2.iter().enumerate() {
                    let own: Vec<&Vec<u32>> =
                        laid.iter().filter(|(c, _)| *c == ci).map(|(_, r)| r).collect();
                    let edges: Vec<u32> = match kind {
                        // The same path twice in one commodity.
                        0 if !own.is_empty() => own[seed % own.len()].clone(),
                        // A path some commodity already offers.
                        1 if !laid.is_empty() => laid[seed % laid.len()].1.clone(),
                        _ => rows.iter().map(|r| r % n_edges).collect(),
                    };
                    columns.push((ci, pi), edges.iter().copied().chain([demand_row]));
                    laid.push((ci, edges));
                }
            }
            let mut heap_len = gk_lengths(&caps, eps);
            let mut scan_len = heap_len.clone();
            let heap = gk_pack(&columns, &mut heap_len, &caps, eps, max_iterations);
            let scan = gk_pack_scan(&columns, &mut scan_len, &caps, eps, max_iterations);
            proptest::prop_assert_eq!(heap.iterations, scan.iterations);
            proptest::prop_assert_eq!(bits(&heap.raw_flow), bits(&scan.raw_flow));
            proptest::prop_assert_eq!(bits(&heap_len), bits(&scan_len));
            proptest::prop_assert!(heap.entries <= commodities.len());
            proptest::prop_assert!(heap.visits >= heap.iterations);
        }
    }

    /// Every field of two solutions, bit for bit.
    fn assert_bit_identical(a: &TeSolution, b: &TeSolution) {
        let flow = |f: &PathFlow| {
            (
                f.commodity,
                f.path.edges.clone(),
                f.path.nodes.clone(),
                f.path.cost.to_bits(),
                f.gbps.to_bits(),
            )
        };
        let utilization = |s: &TeSolution| -> BTreeMap<EdgeId, u64> {
            s.utilization.iter().map(|(&e, u)| (e, u.to_bits())).collect()
        };
        assert_eq!(
            a.flows.iter().map(flow).collect::<Vec<_>>(),
            b.flows.iter().map(flow).collect::<Vec<_>>()
        );
        assert_eq!(a.routed_gbps.to_bits(), b.routed_gbps.to_bits());
        assert_eq!(a.offered_gbps.to_bits(), b.offered_gbps.to_bits());
        assert_eq!(utilization(a), utilization(b));
        assert_eq!(a.iterations, b.iterations);
    }

    /// `max_multicommodity_flow` solves the small planetary WAN, region
    /// contracted and fine, over its real k-shortest path sets, bit for
    /// bit as the same solve through the full-scan packer.
    #[test]
    fn heap_solve_matches_scan_solve_on_a_small_wan() {
        use smn_telemetry::traffic::{TrafficConfig, TrafficModel};
        use smn_topology::gen::{generate_planetary, PlanetaryConfig};
        use smn_topology::layer3::{LinkAttrs, SuperLink};

        let p = generate_planetary(&PlanetaryConfig::small(7));
        let model = TrafficModel::new(&p.wan, TrafficConfig::default());
        let noon = smn_telemetry::Ts::from_days(2) + 12 * 3600;
        let demand = DemandMatrix::from_triples(
            model.demand_matrix(noon).into_iter().map(|(s, d, g)| (s, d, g * 0.03)),
        );
        let cfg = TeConfig { k_paths: 3, epsilon: 0.15, ..Default::default() };
        let off = smn_obs::Obs::disabled();

        let region = p.wan.contract_by_region();
        let coarse = demand.contract(&region.node_map);
        let cap = |_: EdgeId, e: &Edge<SuperLink>| e.payload.capacity_gbps;
        let heap = max_multicommodity_flow(&region.graph, cap, &coarse, &cfg);
        let paths = path_sets(&region.graph, &cap, &coarse, cfg.k_paths);
        assert!(paths.iter().filter(|ps| ps.len() > 1).count() > 1, "commodities share a heap");
        let scan = gk_solve(&region.graph, &cap, &coarse, &paths, &cfg, &off, gk_pack_scan);
        assert!(heap.iterations > 0 && !heap.flows.is_empty());
        assert_bit_identical(&heap, &scan);

        let cap = |_: EdgeId, e: &Edge<LinkAttrs>| {
            if e.payload.up {
                e.payload.capacity_gbps
            } else {
                0.0
            }
        };
        let heap = max_multicommodity_flow(&p.wan.graph, cap, &demand, &cfg);
        let paths = path_sets(&p.wan.graph, &cap, &demand, cfg.k_paths);
        let scan = gk_solve(&p.wan.graph, &cap, &demand, &paths, &cfg, &off, gk_pack_scan);
        assert!(heap.iterations > 0 && !heap.flows.is_empty());
        assert_bit_identical(&heap, &scan);
    }

    /// From `PATHS_FORK_COMMODITIES` commodities on `path_sets` forks,
    /// and its path sets are still each commodity's `k_shortest_paths`, in
    /// commodity order, for an even and an odd commodity count. The
    /// profiled solve names the fork's two laps under `gk/paths` and
    /// solves bit for bit as the plain one.
    #[test]
    fn forked_path_sets_match_one_search_per_commodity() {
        use smn_topology::gen::{generate_planetary, PlanetaryConfig};
        use smn_topology::layer3::LinkAttrs;

        let p = generate_planetary(&PlanetaryConfig::small(7));
        let g = &p.wan.graph;
        let n = u32::try_from(g.node_count()).unwrap_or(u32::MAX);
        let demand = DemandMatrix::from_triples(
            (0..n).flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d), f64::from(s + d)))),
        );
        assert!(demand.len() > 2 * PATHS_FORK_COMMODITIES);
        let cap = |_: EdgeId, e: &Edge<LinkAttrs>| {
            if e.payload.up {
                e.payload.capacity_gbps
            } else {
                0.0
            }
        };
        let searched = |demand: &DemandMatrix| -> Vec<Vec<Path>> {
            let usable = |eid, e: &Edge<LinkAttrs>| (cap(eid, e) > 0.0).then_some(1.0);
            demand.commodities.iter().map(|c| g.k_shortest_paths(c.src, c.dst, 4, usable)).collect()
        };
        let odd =
            DemandMatrix { commodities: demand.commodities[..=PATHS_FORK_COMMODITIES].to_vec() };
        for demand in [&demand, &odd] {
            let want = searched(demand);
            assert!(want.iter().filter(|ps| ps.len() > 1).count() > PATHS_FORK_COMMODITIES / 2);
            assert_eq!(path_sets(g, &cap, demand, 4), want);
        }
        let obs = smn_obs::Obs::enabled(smn_obs::clock::SimClock::new());
        let cfg = TeConfig { k_paths: 3, epsilon: 0.15, ..Default::default() };
        let profiled = max_multicommodity_flow_profiled(g, cap, &demand, &cfg, &obs);
        assert_bit_identical(&profiled, &max_multicommodity_flow(g, cap, &demand, &cfg));
        let laps: Vec<String> = obs
            .wall_profile()
            .into_iter()
            .filter_map(|row| row.path.strip_prefix("te/gk;gk/paths;").map(String::from))
            .collect();
        assert_eq!(laps, ["paths/even", "paths/odd"]);
    }

    #[test]
    fn path_set_count_mismatch_is_a_typed_error() {
        let g = parallel_graph();
        let demand = DemandMatrix::from_triples([(NodeId(0), NodeId(1), 5.0)]);
        let err = max_multicommodity_flow_with_paths(&g, cap, &demand, &[], &TeConfig::default())
            .expect_err("no path set for one commodity");
        assert_eq!(err, PathSetCountMismatch { path_sets: 0, commodities: 1 });
        let paths = path_sets(&g, &cap, &demand, 4);
        let with =
            max_multicommodity_flow_with_paths(&g, cap, &demand, &paths, &TeConfig::default())
                .expect("one path set per commodity");
        let plain = max_multicommodity_flow(&g, cap, &demand, &TeConfig::default());
        assert_bit_identical(&with, &plain);
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
