//! The remediation action taxonomy: one typed, serializable action per
//! stack layer, plus the escalation fallback.
//!
//! Actions are *plans*, not effects: executing one mutates only the
//! healer's [`crate::NetworkState`] overlay (drained links, retuned
//! wavelengths, restarted replicas), never the shared topology objects,
//! so a rollback is a plain state restore and two healers can reason
//! about the same world without interfering.

use serde::{Deserialize, Serialize};
use smn_topology::artifact::Violation;
use smn_topology::layer1::{Modulation, WavelengthId};
use smn_topology::{path, EdgeId, LayerId};

/// One typed remediation step the healing engine can take for a diagnosed
/// incident. Serialized externally tagged, e.g.
/// `{"DrainLink": {"link": 5, "alternates": 2}}`, which is the wire shape
/// the `remediation-plan` artifact checker in smn-lint validates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RemediationAction {
    /// Drain a lossy or congested L3 link: withdraw it from service and
    /// restrict its traffic onto coarse-conformant alternate paths.
    DrainLink {
        /// The WAN link being drained.
        link: EdgeId,
        /// How many restricted alternate paths avoid the link (must be
        /// positive, or the drain would blackhole the commodity).
        alternates: u32,
    },
    /// Restart a replica of the simulated deployment (L7): clears
    /// crash/leak/config-drift faults when the diagnosis localized the
    /// right component.
    RestartComponent {
        /// Name of the component to restart, e.g. `"cassandra-2"`.
        component: String,
    },
    /// Retune a flapping wavelength to a lower-order modulation (L1),
    /// trading capacity for reach margin.
    RetuneWavelength {
        /// The wavelength being retuned.
        wavelength: WavelengthId,
        /// Modulation before the retune (recorded so rollback is typed).
        from: Modulation,
        /// Safer target modulation (one step down).
        to: Modulation,
    },
    /// No safe automated action exists: hand the incident to the diagnosed
    /// team, exactly as the pre-healing controller would.
    RouteToTeam {
        /// The team receiving the incident.
        team: String,
    },
}

impl RemediationAction {
    /// The stack layer the action operates at: retunes are physical (L1),
    /// drains are topological (L3), restarts and escalations act on the
    /// application deployment (L7).
    #[must_use]
    pub fn layer(&self) -> LayerId {
        match self {
            RemediationAction::RetuneWavelength { .. } => LayerId::L1,
            RemediationAction::DrainLink { .. } => LayerId::L3,
            RemediationAction::RestartComponent { .. } | RemediationAction::RouteToTeam { .. } => {
                LayerId::L7
            }
        }
    }

    /// Stable kebab-case name for audit records and reports.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            RemediationAction::DrainLink { .. } => "drain-link",
            RemediationAction::RestartComponent { .. } => "restart-component",
            RemediationAction::RetuneWavelength { .. } => "retune-wavelength",
            RemediationAction::RouteToTeam { .. } => "route-to-team",
        }
    }

    /// The action's primary target rendered for the audit trail.
    #[must_use]
    pub fn target(&self) -> String {
        match self {
            RemediationAction::DrainLink { link, .. } => format!("link-{}", link.0),
            RemediationAction::RestartComponent { component } => component.clone(),
            RemediationAction::RetuneWavelength { wavelength, .. } => {
                format!("wavelength-{}", wavelength.0)
            }
            RemediationAction::RouteToTeam { team } => team.clone(),
        }
    }

    /// Whether the action changes network state (and therefore needs the
    /// execute → verify → rollback machinery). Escalations do not.
    #[must_use]
    pub fn is_mutating(&self) -> bool {
        !matches!(self, RemediationAction::RouteToTeam { .. })
    }
}

/// One planned remediation: the action for one incident, with the layer
/// it declares it acts on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedAction {
    /// The incident this action settles.
    pub incident_id: u64,
    /// The layer the action declares.
    pub layer: LayerId,
    /// The action.
    pub action: RemediationAction,
}

/// A remediation plan over a declared world (component names, link and
/// wavelength populations): the `remediation-plan` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemediationPlan {
    /// Artifact kind tag: always `"remediation-plan"`.
    pub kind: String,
    /// Component names a restart may target.
    pub components: Vec<String>,
    /// WAN links a drain may target.
    pub link_count: usize,
    /// Wavelengths a retune may target.
    pub wavelength_count: usize,
    /// The planned actions.
    pub actions: Vec<PlannedAction>,
}

impl RemediationPlan {
    /// Incident ids are plan-unique, each action declares the layer its
    /// kind operates on, and every target exists in the declared world.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (i, p) in self.actions.iter().enumerate() {
            if self.actions.iter().take(i).any(|q| q.incident_id == p.incident_id) {
                out.push(Violation::new(
                    "artifact/duplicate-id",
                    path!["actions", i, "incident_id"],
                    format!("duplicate incident id {}", p.incident_id),
                    "a plan settles each incident with at most one terminal action",
                ));
            }
            let (kind, actual) = (p.action.kind_name(), p.action.layer());
            if p.layer != actual {
                out.push(Violation::new(
                    "artifact/layer-order",
                    path!["actions", i, "layer"],
                    format!(
                        "action {i} ({kind}) declares layer `{}`, but `{kind}` operates on {actual}",
                        p.layer
                    ),
                    "retune-wavelength acts on L1, drain-link on L3, \
                     restart-component and route-to-team on L7",
                ));
            }
            let dangling = match &p.action {
                RemediationAction::RestartComponent { component }
                    if !self.components.contains(component) =>
                {
                    Some((
                        "artifact/unknown-target",
                        format!("action {i} restarts `{component}`, not a declared component"),
                    ))
                }
                RemediationAction::DrainLink { link, .. } if link.index() >= self.link_count => {
                    Some((
                        "artifact/dangling-link-ref",
                        format!(
                            "action {i} drains link {}, but the plan declares {} link(s)",
                            link.0, self.link_count
                        ),
                    ))
                }
                RemediationAction::RetuneWavelength { wavelength, .. }
                    if wavelength.0 as usize >= self.wavelength_count =>
                {
                    Some((
                        "artifact/dangling-link-ref",
                        format!(
                            "action {i} retunes wavelength {}, but the plan declares {} wavelength(s)",
                            wavelength.0, self.wavelength_count
                        ),
                    ))
                }
                _ => None,
            };
            if let Some((rule, message)) = dangling {
                out.push(Violation::new(rule, path!["actions", i, "action"], message, ""));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_follow_the_stack() {
        let drain = RemediationAction::DrainLink { link: EdgeId(3), alternates: 2 };
        let restart = RemediationAction::RestartComponent { component: "app-c1-1".into() };
        let retune = RemediationAction::RetuneWavelength {
            wavelength: WavelengthId(0),
            from: Modulation::Qam16,
            to: Modulation::Qam8,
        };
        let route = RemediationAction::RouteToTeam { team: "network".into() };
        assert_eq!(drain.layer(), LayerId::L3);
        assert_eq!(restart.layer(), LayerId::L7);
        assert_eq!(retune.layer(), LayerId::L1);
        assert_eq!(route.layer(), LayerId::L7);
        assert!(drain.is_mutating() && restart.is_mutating() && retune.is_mutating());
        assert!(!route.is_mutating());
    }

    #[test]
    fn serde_round_trip_is_externally_tagged() {
        let a = RemediationAction::DrainLink { link: EdgeId(5), alternates: 2 };
        let text = serde_json::to_string(&a).unwrap();
        assert!(text.contains("DrainLink"), "{text}");
        let back: RemediationAction = serde_json::from_str(&text).unwrap();
        assert_eq!(a, back);
    }
}
