//! Planning: from a diagnosed incident to one typed remediation action.
//!
//! The planner is deliberately conservative. It only proposes a mutating
//! action when (a) the controller's explainability score cleared the
//! confidence floor, and (b) the fault kind has a remediation family whose
//! blast radius the engine can bound (restart one replica, drain one link
//! with surviving alternates, step one wavelength down). Everything else —
//! low confidence, control-plane faults, drains that would blackhole —
//! escalates to the diagnosed team, which is exactly the pre-healing
//! behaviour. Healing can therefore only *add* recovery paths, never
//! remove the human one.

use serde::{Deserialize, Serialize};
use smn_incident::{FaultKind, IncidentObservation, RedditDeployment};
use smn_te::restrict::RestrictedPaths;
use smn_topology::graph::Contraction;
use smn_topology::layer1::Modulation;
use smn_topology::layer3::{SuperLink, SuperNode};
use smn_topology::{ComponentId, EdgeId, StackFault, Wan};

use crate::action::RemediationAction;
use crate::engine::{HealConfig, HealWorld, NetworkState};

/// What the controller knows about an incident when the healer is asked to
/// act: the routed team and its explainability score
/// ([`smn_depgraph::syndrome::Explainability::best_team`]), the classified
/// fault kind, and the component the diagnosis localized to.
///
/// The *kind* comes from symptom-shape classification (liveness pages,
/// probe-failure signature, metric mix), which is reliable; *localization*
/// is the hard part, so the target is derived from the routing decision —
/// a wrong routing yields a wrong target, the remediation misses, and
/// verification catches it. The healer never peeks at ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Team the controller routed the incident to.
    pub team: String,
    /// Explainability score of that routing.
    pub explainability: f64,
    /// Classified fault kind.
    pub kind: FaultKind,
    /// Component the diagnosis localized to (may be empty when the routed
    /// team shows no measurable deviation at all).
    pub target: String,
    /// Cross-cluster probe failure rate observed during the incident.
    pub cross_probe_failure: f64,
}

impl Diagnosis {
    /// Build a diagnosis from the observation window and the controller's
    /// routing decision: the suspected component is the routed team's
    /// loudest member — alerting components first, ranked by error-rate
    /// deviation, falling back to the largest deviation when nothing in
    /// the team crossed the alert threshold.
    #[must_use]
    pub fn from_observation(
        d: &RedditDeployment,
        obs: &IncidentObservation,
        team: &str,
        explainability: f64,
    ) -> Diagnosis {
        let members = d.fine.team_components(team);
        let score = |id: &smn_topology::NodeId| -> (bool, f64) {
            obs.components.get(id.index()).map_or((false, 0.0), |c| (c.alerting, c.error_dev.abs()))
        };
        // Strictly-greater fold: the earliest (lowest-index) member wins
        // ties, keeping the diagnosis order-deterministic.
        let mut best: Option<(bool, f64, smn_topology::NodeId)> = None;
        for id in &members {
            let (alerting, dev) = score(id);
            if best.is_none_or(|(ba, bd, _)| (alerting, dev) > (ba, bd)) {
                best = Some((alerting, dev, *id));
            }
        }
        let target = best.map(|(_, _, id)| d.fine.component(id).name.clone()).unwrap_or_default();
        Diagnosis {
            team: team.to_string(),
            explainability,
            kind: obs.fault.kind,
            target,
            cross_probe_failure: obs.cross_probe_failure,
        }
    }
}

/// The [`ComponentId`] of a named component: services mirror the fine
/// dependency graph's node order, so the index carries over.
fn component_id(world: &HealWorld<'_>, name: &str) -> Option<ComponentId> {
    let node = world.deployment.fine.by_name(name)?;
    Some(ComponentId(node.0))
}

/// Whether the diagnosed component is a WAN-uplink service, i.e. mapped
/// from at least one L3 link in the stack (drains apply only there).
fn is_uplink(world: &HealWorld<'_>, target: &str) -> bool {
    component_id(world, target).is_some_and(|cid| !world.stack.l3_l7().up(cid).is_empty())
}

/// The modulation a wavelength effectively runs under the healer's state
/// overlay (the last un-rolled-back retune wins).
#[must_use]
pub fn effective_modulation(
    world: &HealWorld<'_>,
    state: &NetworkState,
    w: smn_topology::layer1::WavelengthId,
) -> Modulation {
    state
        .retunes
        .iter()
        .rev()
        .find(|r| r.wavelength == w)
        .map_or_else(|| world.stack.optical().wavelength(w).modulation, |r| r.to)
}

/// L1 plan: among wavelengths whose simulated flap would reach the
/// diagnosed component (via [`smn_topology::LayerStack::propagate_down`]),
/// retune the one with the highest effective flap probability one
/// modulation step down. `None` when no covering wavelength can step down.
fn plan_retune(
    world: &HealWorld<'_>,
    state: &NetworkState,
    target: &str,
) -> Option<RemediationAction> {
    let cid = component_id(world, target)?;
    let mut best: Option<(f64, RemediationAction)> = None;
    for w in world.stack.optical().wavelengths() {
        let impact = world.stack.propagate_down(StackFault::WavelengthFlap(w.id));
        if !impact.components.contains(&cid) {
            continue;
        }
        let from = effective_modulation(world, state, w.id);
        let Some(to) = from.step_down() else { continue };
        let p = w.flap_probability_at(from);
        if best.as_ref().is_none_or(|(bp, _)| p > *bp) {
            best = Some((p, RemediationAction::RetuneWavelength { wavelength: w.id, from, to }));
        }
    }
    best.map(|(_, a)| a)
}

/// L3 plan: drain the up, not-yet-drained WAN link with the most surviving
/// coarse-conformant alternate paths between its endpoints. `None` when
/// every candidate would blackhole (zero alternates).
fn plan_drain(
    world: &HealWorld<'_>,
    state: &NetworkState,
    cfg: &HealConfig,
) -> Option<RemediationAction> {
    drain_link(world.stack.wan(), world.contraction, &state.drained_links, cfg.restricted_path_k)
}

/// The body of [`plan_drain`]: among the up links of `wan` not in
/// `drained`, the first with the most alternates once it and `drained`
/// are avoided. A link's alternates are the coarse-restricted paths (up
/// to `k`) between its endpoints that use no avoided link: "if I take
/// this edge out of service, how many coarse-conformant detours remain?"
/// Zero means the drain would blackhole the commodity. One
/// [`RestrictedPaths`] table serves every candidate, so the call scans
/// the link list a constant number of times, not once per candidate and
/// coarse hop.
fn drain_link(
    wan: &Wan,
    contraction: &Contraction<SuperNode, SuperLink>,
    drained: &[EdgeId],
    k: usize,
) -> Option<RemediationAction> {
    let mut table = RestrictedPaths::new(wan, contraction, k);
    let mut avoid = drained.to_vec();
    let mut best: Option<(usize, RemediationAction)> = None;
    for (eid, e) in wan.graph.edges() {
        if !e.payload.up || drained.contains(&eid) {
            continue;
        }
        avoid.push(eid);
        let paths = table.paths(e.src, e.dst);
        let alternates =
            paths.iter().filter(|p| p.edges.iter().all(|e| !avoid.contains(e))).count();
        avoid.pop();
        if alternates == 0 {
            continue;
        }
        if best.as_ref().is_none_or(|(ba, _)| alternates > *ba) {
            let alternates_u32 = u32::try_from(alternates).unwrap_or(u32::MAX);
            best = Some((
                alternates,
                RemediationAction::DrainLink { link: eid, alternates: alternates_u32 },
            ));
        }
    }
    best.map(|(_, a)| a)
}

/// Fault kinds a replica restart can clear when it hits the right
/// component. Link flaps are physical (retune instead) and control-plane
/// faults degrade the SMN itself, outside the healer's actuation surface.
#[must_use]
pub fn restart_curable(kind: FaultKind) -> bool {
    !matches!(
        kind,
        FaultKind::LinkFlap
            | FaultKind::TelemetryLoss
            | FaultKind::LakePartition
            | FaultKind::ControllerCrash
    )
}

/// Map a diagnosis to the single action the engine will execute.
///
/// Decision ladder:
/// 1. low explainability, empty target, or control-plane kind → escalate,
/// 2. `LinkFlap` → retune the loudest covering wavelength (L1),
/// 3. `PacketLoss` localized to a WAN-uplink service → drain a link with
///    surviving alternates (L3),
/// 4. any other workload kind → restart the diagnosed replica (L7).
#[must_use]
pub fn plan_action(
    world: &HealWorld<'_>,
    diag: &Diagnosis,
    state: &NetworkState,
    cfg: &HealConfig,
) -> RemediationAction {
    let escalate = || RemediationAction::RouteToTeam { team: diag.team.clone() };
    if diag.explainability < cfg.min_explainability
        || diag.target.is_empty()
        || FaultKind::CONTROL_PLANE.contains(&diag.kind)
    {
        return escalate();
    }
    match diag.kind {
        FaultKind::LinkFlap => plan_retune(world, state, &diag.target).unwrap_or_else(escalate),
        FaultKind::PacketLoss if is_uplink(world, &diag.target) => {
            plan_drain(world, state, cfg).unwrap_or_else(escalate)
        }
        _ => RemediationAction::RestartComponent { component: diag.target.clone() },
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::{prop_assert_eq, proptest};
    use smn_topology::graph::{NodeId, Path};
    use smn_topology::layer3::{Continent, Datacenter, LinkAttrs, RegionId};

    use super::*;

    /// The expansion as it was before [`RestrictedPaths`]: Yen's on the
    /// region graph per call and, per coarse hop, a scan of every link
    /// for the highest-capacity up member (`max_by`: the last of equals).
    fn paths_by_scan(
        wan: &Wan,
        contraction: &Contraction<SuperNode, SuperLink>,
        src: NodeId,
        dst: NodeId,
        k: usize,
    ) -> Vec<Path> {
        let cs = contraction.node_map[src.index()];
        let cd = contraction.node_map[dst.index()];
        let usable = |eid: EdgeId| wan.graph.edge(eid).payload.up;
        let within = |from: NodeId, to: NodeId, supernode: NodeId| -> Option<Path> {
            wan.graph.shortest_path(from, to, |eid, e| {
                (usable(eid)
                    && contraction.node_map[e.src.index()] == supernode
                    && contraction.node_map[e.dst.index()] == supernode)
                    .then_some(1.0)
            })
        };
        if cs == cd {
            return within(src, dst, cs).into_iter().collect();
        }
        let coarse_paths = contraction
            .graph
            .k_shortest_paths(cs, cd, k, |_, e| (e.payload.capacity_gbps > 0.0).then_some(1.0));
        let mut out = Vec::new();
        'coarse: for cp in coarse_paths {
            let mut nodes = vec![src];
            let mut edges = Vec::new();
            let mut cursor = src;
            for hop in 0..cp.edges.len() {
                let (ca, cb) = (cp.nodes[hop], cp.nodes[hop + 1]);
                let member = wan
                    .graph
                    .edges()
                    .filter(|(eid, e)| {
                        usable(*eid)
                            && contraction.node_map[e.src.index()] == ca
                            && contraction.node_map[e.dst.index()] == cb
                    })
                    .max_by(|a, b| a.1.payload.capacity_gbps.total_cmp(&b.1.payload.capacity_gbps));
                let Some((member_id, member_edge)) = member else { continue 'coarse };
                if cursor != member_edge.src {
                    let Some(bridge) = within(cursor, member_edge.src, ca) else {
                        continue 'coarse;
                    };
                    nodes.extend_from_slice(&bridge.nodes[1..]);
                    edges.extend_from_slice(&bridge.edges);
                }
                nodes.push(member_edge.dst);
                edges.push(member_id);
                cursor = member_edge.dst;
            }
            if cursor != dst {
                let Some(tail) = within(cursor, dst, cd) else { continue 'coarse };
                nodes.extend_from_slice(&tail.nodes[1..]);
                edges.extend_from_slice(&tail.edges);
            }
            let mut seen = HashSet::new();
            if !nodes.iter().all(|n| seen.insert(*n)) {
                continue;
            }
            #[allow(clippy::cast_precision_loss)] // a path has far fewer than 2^52 links
            let cost = edges.len() as f64;
            out.push(Path { nodes, edges, cost });
        }
        out
    }

    /// `plan_drain`'s body before [`RestrictedPaths`]: one expansion by
    /// scan per candidate link.
    fn drain_by_scan(
        wan: &Wan,
        contraction: &Contraction<SuperNode, SuperLink>,
        drained: &[EdgeId],
        k: usize,
    ) -> Option<RemediationAction> {
        let mut best: Option<(usize, RemediationAction)> = None;
        for (eid, e) in wan.graph.edges() {
            if !e.payload.up || drained.contains(&eid) {
                continue;
            }
            let mut avoid = drained.to_vec();
            avoid.push(eid);
            let alternates = paths_by_scan(wan, contraction, e.src, e.dst, k)
                .iter()
                .filter(|p| p.edges.iter().all(|e| !avoid.contains(e)))
                .count();
            if alternates == 0 {
                continue;
            }
            if best.as_ref().is_none_or(|(ba, _)| alternates > *ba) {
                let alternates_u32 = u32::try_from(alternates).unwrap_or(u32::MAX);
                best = Some((
                    alternates,
                    RemediationAction::DrainLink { link: eid, alternates: alternates_u32 },
                ));
            }
        }
        best.map(|(_, a)| a)
    }

    /// A WAN of `regions.len()` datacenters in the given regions, with
    /// directed links `(src, dst, capacity, state)` (endpoints modulo the
    /// node count; down when `state` is 0). Capacities come from a short list, so ties are
    /// common; intra-region links, parallel links, zero-capacity region
    /// pairs and unreachable regions all occur.
    fn wan_of(regions: &[u16], links: &[(usize, usize, u8, u8)]) -> Wan {
        let mut wan = Wan::new();
        let ids: Vec<NodeId> = regions
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                wan.add_datacenter(Datacenter {
                    name: format!("dc{i}"),
                    continent: Continent::NorthAmerica,
                    region: RegionId(r),
                    lat: 0.0,
                    lon: 0.0,
                })
            })
            .collect();
        for &(a, b, cap, state) in links {
            let (a, b) = (ids[a % ids.len()], ids[b % ids.len()]);
            if a == b {
                continue;
            }
            let capacity = [0.0, 10.0, 10.0, 40.0, 100.0][usize::from(cap) % 5];
            let link = wan.add_link(a, b, LinkAttrs::new(capacity, 1.0, false));
            wan.set_link_up(link, state != 0);
        }
        wan
    }

    proptest! {
        /// The table-backed drain plan picks the same link with the same
        /// alternate count (or none) as the per-candidate scan, and every
        /// candidate's expansion is the scan's, path for path.
        #[test]
        fn drain_plan_matches_the_per_link_scan(
            regions in proptest::collection::vec(0u16..4, 2..9),
            links in proptest::collection::vec((0usize..9, 0usize..9, 0u8..5, 0u8..7), 1..40),
            drained in proptest::collection::vec(0usize..40, 0..4),
            k in 1usize..4,
        ) {
            let wan = wan_of(&regions, &links);
            let contraction = wan.contract_by_region();
            let drained: Vec<EdgeId> = drained
                .iter()
                .filter(|&&i| i < wan.link_count())
                .map(|&i| EdgeId(u32::try_from(i).unwrap()))
                .collect();
            prop_assert_eq!(
                drain_link(&wan, &contraction, &drained, k),
                drain_by_scan(&wan, &contraction, &drained, k)
            );
            let mut table = RestrictedPaths::new(&wan, &contraction, k);
            for (_, e) in wan.graph.edges() {
                prop_assert_eq!(
                    table.paths(e.src, e.dst),
                    paths_by_scan(&wan, &contraction, e.src, e.dst, k)
                );
            }
        }
    }
}
