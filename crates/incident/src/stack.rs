//! Binding the Reddit deployment onto the unified layer stack.
//!
//! The incident simulator's L7 world (the fine-grained dependency graph)
//! and the topology crates' L1/L3 world (optical spans, WAN links) used to
//! be joined by ad-hoc `usize` plumbing in each consumer. This module
//! registers the deployment as the stack's service layer and derives the
//! L3 → L7 cross-layer map, so a physical fault descends generically:
//! wavelength flap → carried WAN links down → wan-uplink component
//! symptomatic — the same `LinkFlap` injection the legacy per-layer
//! campaign produced, now reached by walking [`LayerStack::propagate_down`].

use smn_topology::layer1::OpticalLayer;
use smn_topology::layer3::Wan;
use smn_topology::{ComponentId, CrossLayerMap, EdgeId, LayerStack, StackFault};

use crate::app::RedditDeployment;
use crate::faults::{FaultKind, FaultSpec};

/// The deployment registered on a [`LayerStack`]: L1 optical, L3 WAN, and
/// the fine dependency graph's components as L7.
#[derive(Debug, Clone)]
pub struct DeploymentStack {
    stack: LayerStack,
}

impl DeploymentStack {
    /// Bind `d` onto the given physical topology.
    ///
    /// The service layer mirrors the fine graph's node order (so stack
    /// [`ComponentId`]s equal fine-graph node indices), and every WAN link
    /// maps down to the deployment's WAN-uplink component — the single L7
    /// element through which all external traffic enters, matching the
    /// legacy campaign's `LinkFlap` target set exactly.
    #[must_use]
    pub fn bind(d: &RedditDeployment, optical: OpticalLayer, wan: Wan) -> Self {
        let services = d.fine.service_layer();
        let uplinks: Vec<ComponentId> = FaultKind::LinkFlap
            .eligible_targets(d)
            .iter()
            .filter_map(|name| d.fine.by_name(name))
            .map(|node| ComponentId(node.0))
            .collect();
        let mut l3_l7: CrossLayerMap<EdgeId, ComponentId> = CrossLayerMap::new();
        for _ in 0..wan.graph.edge_count() {
            l3_l7.push(uplinks.clone());
        }
        Self { stack: LayerStack::new(optical, wan).with_services(services, l3_l7) }
    }

    /// The underlying stack.
    #[must_use]
    pub fn stack(&self) -> &LayerStack {
        &self.stack
    }

    /// Component names a stack fault reaches at L7, in node order — the
    /// generic replacement for the per-kind target tables: the impact set
    /// comes from walking the stack downward, not from knowing the fault
    /// class.
    #[must_use]
    pub fn descend_targets(&self, d: &RedditDeployment, fault: StackFault) -> Vec<String> {
        self.stack
            .propagate_down(fault)
            .components
            .iter()
            .filter_map(|&c| d.fine.component(smn_topology::NodeId(c.0)).name.clone().into())
            .collect()
    }

    /// Generic fault injection: walk `fault` down the stack and emit one
    /// [`FaultKind::LinkFlap`] spec per impacted L7 component, with the
    /// same id/variant/severity fields the legacy campaign generator fills.
    #[must_use]
    pub fn link_flap_specs(
        &self,
        d: &RedditDeployment,
        fault: StackFault,
        id: u64,
        variant: u8,
        severity: f64,
    ) -> Vec<FaultSpec> {
        self.descend_targets(d, fault)
            .into_iter()
            .filter_map(|target| {
                // Targets come from the fine graph's own names, so the
                // lookup only misses if the binding went stale — drop the
                // spec rather than panic in the control plane.
                let node = d.fine.by_name(&target)?;
                Some(FaultSpec {
                    id,
                    kind: FaultKind::LinkFlap,
                    target,
                    variant,
                    severity,
                    team: d.fine.component(node).team.clone(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{generate_campaign, CampaignConfig};
    use crate::sim::{observe, SimConfig};
    use smn_topology::gen::{generate_planetary, PlanetaryConfig};
    use smn_topology::layer1::WavelengthId;

    fn bound() -> (RedditDeployment, DeploymentStack) {
        let d = RedditDeployment::build();
        let p = generate_planetary(&PlanetaryConfig::small(7));
        let ds = DeploymentStack::bind(&d, p.optical, p.wan);
        (d, ds)
    }

    #[test]
    fn binding_is_valid_and_spans_all_three_layers() {
        let (d, ds) = bound();
        let violations = ds.stack().shape().violations();
        assert!(violations.is_empty(), "no dangling cross-layer refs: {violations:?}");
        assert_eq!(
            ds.stack().l3_l7().upper_len(),
            ds.stack().wan().graph.edge_count(),
            "every L3 link has an L7 mapping"
        );
        use smn_topology::LayerId;
        assert_eq!(ds.stack().layer(LayerId::L7).element_count(), d.fine.len());
    }

    #[test]
    fn link_down_descends_to_wan_uplink() {
        let (d, ds) = bound();
        let targets = ds.descend_targets(&d, StackFault::LinkDown(EdgeId(0)));
        assert_eq!(targets, vec!["wan-1".to_string()]);
    }

    #[test]
    fn wavelength_flap_descends_through_l3_to_l7() {
        let (d, ds) = bound();
        let fault = StackFault::WavelengthFlap(WavelengthId(0));
        let impact = ds.stack().propagate_down(fault);
        assert!(!impact.links.is_empty(), "flap must take carried L3 links down");
        let targets = ds.descend_targets(&d, fault);
        assert_eq!(targets, vec!["wan-1".to_string()]);
    }

    #[test]
    fn generic_descent_matches_legacy_campaign_on_560_faults() {
        // Satellite equivalence check: on the seeded 560-fault campaign,
        // every legacy LinkFlap spec is reproduced exactly by the generic
        // stack walk (same target, team, and downstream observation).
        let (d, ds) = bound();
        let faults = generate_campaign(&d, &CampaignConfig::default());
        let cfg = SimConfig::default();
        let legacy_flaps: Vec<&FaultSpec> =
            faults.iter().filter(|f| f.kind == FaultKind::LinkFlap).collect();
        assert!(!legacy_flaps.is_empty());
        for legacy in legacy_flaps {
            let generic = ds.link_flap_specs(
                &d,
                StackFault::LinkDown(EdgeId(0)),
                legacy.id,
                legacy.variant,
                legacy.severity,
            );
            assert_eq!(generic.len(), 1);
            assert_eq!(&generic[0], legacy, "stack descent must reproduce the legacy spec");
            let a = observe(&d, legacy, &cfg);
            let b = observe(&d, &generic[0], &cfg);
            assert_eq!(a.true_intensity, b.true_intensity);
            assert_eq!(a.syndrome.0, b.syndrome.0, "L7 outcome set must be identical");
        }
    }
}
