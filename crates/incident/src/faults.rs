//! Fault taxonomy and injection campaigns.
//!
//! Mirrors the Revelio Incident Dataset protocol at the level the paper
//! describes: "560 fine-grained faults (e.g., hypervisor failure, bad
//! timeouts)" injected into the Reddit deployment, each with a ground-truth
//! responsible team ("an incident caused by a faulty firewall rule should be
//! handled by the network team, and an incident caused by a faulty server
//! should be handled by its microservice infrastructure team").
//!
//! Faults come in *kinds* × *targets* × *parameter variants*. The variant is
//! part of the injection signature used for group-wise dataset splitting, so
//! the test set "only contains incidents that are a result of a root-cause
//! that is never injected in the same way as in the training set".

use serde::{Deserialize, Serialize, Value};
use smn_depgraph::fine::FineDepGraph;
use smn_telemetry::det::{mix, uniform01};
use smn_topology::artifact::Violation;
use smn_topology::{path, EdgeId};

use crate::app::RedditDeployment;

/// The fault classes injected by the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A hypervisor fails, degrading everything it hosts.
    HypervisorFailure,
    /// A single server/component crashes hard.
    ServerCrash,
    /// A misconfigured (too-aggressive) timeout at a calling service: the
    /// caller errors even though its dependencies are healthy.
    BadTimeout,
    /// A faulty firewall rule drops some flows.
    FirewallRule,
    /// A switch or uplink drops packets probabilistically.
    PacketLoss,
    /// Storage device pressure on a stateful service.
    DiskPressure,
    /// A slow memory leak degrades one service.
    MemoryLeak,
    /// A bad configuration push to one service.
    ConfigError,
    /// Cache eviction storm: hit rates collapse.
    CacheEvictionStorm,
    /// Queue backlog: consumers fall behind.
    QueueBacklog,
    /// WAN uplink flaps.
    LinkFlap,
    /// An expired TLS certificate at the load balancer.
    CertExpiry,
    /// Control-plane: telemetry records are lost, duplicated, or reordered
    /// before ingestion (the SMN's own inputs thin out; the workload is
    /// healthy). Not part of [`FaultKind::ALL`] — see
    /// [`FaultKind::CONTROL_PLANE`].
    TelemetryLoss,
    /// Control-plane: a CLDS partition takes a window of history offline.
    LakePartition,
    /// Control-plane: the SMN controller crashes and must restore from its
    /// last checkpoint.
    ControllerCrash,
}

impl FaultKind {
    /// All kinds, fixed order.
    pub const ALL: [FaultKind; 12] = [
        FaultKind::HypervisorFailure,
        FaultKind::ServerCrash,
        FaultKind::BadTimeout,
        FaultKind::FirewallRule,
        FaultKind::PacketLoss,
        FaultKind::DiskPressure,
        FaultKind::MemoryLeak,
        FaultKind::ConfigError,
        FaultKind::CacheEvictionStorm,
        FaultKind::QueueBacklog,
        FaultKind::LinkFlap,
        FaultKind::CertExpiry,
    ];

    /// Control-plane fault kinds: they degrade the SMN itself rather than
    /// the workload. They stay out of [`FaultKind::ALL`] so the legacy
    /// 560-fault campaign is reproduced byte-identically, but campaigns can
    /// opt them in via [`CampaignConfig::control_plane`] (the coverage-
    /// guided generator does, to reach the degradation-rung cells of the
    /// fault lattice).
    pub const CONTROL_PLANE: [FaultKind; 3] =
        [FaultKind::TelemetryLoss, FaultKind::LakePartition, FaultKind::ControllerCrash];

    /// Every kind, workload first then control-plane, fixed order — the
    /// full axis of the coverage lattice.
    pub const ALL_WITH_CONTROL_PLANE: [FaultKind; 15] = [
        FaultKind::HypervisorFailure,
        FaultKind::ServerCrash,
        FaultKind::BadTimeout,
        FaultKind::FirewallRule,
        FaultKind::PacketLoss,
        FaultKind::DiskPressure,
        FaultKind::MemoryLeak,
        FaultKind::ConfigError,
        FaultKind::CacheEvictionStorm,
        FaultKind::QueueBacklog,
        FaultKind::LinkFlap,
        FaultKind::CertExpiry,
        FaultKind::TelemetryLoss,
        FaultKind::LakePartition,
        FaultKind::ControllerCrash,
    ];

    /// Whether this kind attacks the SMN control plane rather than the
    /// workload.
    #[must_use]
    pub fn is_control_plane(self) -> bool {
        FaultKind::CONTROL_PLANE.contains(&self)
    }

    /// How strongly this fault transmits along dependency edges
    /// (multiplier on the propagated intensity; < 1 attenuates).
    #[must_use]
    pub fn propagation_strength(self) -> f64 {
        match self {
            FaultKind::HypervisorFailure => 0.95,
            FaultKind::ServerCrash => 0.9,
            // A bad timeout hurts the *caller*; upstream of the caller
            // still sees elevated errors.
            FaultKind::BadTimeout => 0.8,
            FaultKind::FirewallRule => 0.85,
            FaultKind::PacketLoss => 0.8,
            FaultKind::DiskPressure => 0.75,
            // "Local" faults still degrade their callers (retries, slow
            // responses), so even these fan out moderately.
            FaultKind::MemoryLeak => 0.6,
            FaultKind::ConfigError => 0.75,
            FaultKind::CacheEvictionStorm => 0.7,
            FaultKind::QueueBacklog => 0.75,
            FaultKind::LinkFlap => 0.9,
            FaultKind::CertExpiry => 0.7,
            // Control-plane faults blind the observer; they do not
            // propagate through application dependency edges at all.
            FaultKind::TelemetryLoss | FaultKind::LakePartition | FaultKind::ControllerCrash => 0.0,
        }
    }

    /// Campaign weight: how many times this kind's signatures are repeated
    /// in the round-robin schedule. Cross-layer fan-out faults dominate the
    /// campaign — they are the class of incidents the paper argues are
    /// "inherently cross-layer and cross-team" and mis-routed today.
    #[must_use]
    pub fn campaign_weight(self) -> usize {
        match self {
            FaultKind::HypervisorFailure => 2,
            FaultKind::ServerCrash => 2,
            FaultKind::FirewallRule => 2,
            FaultKind::PacketLoss => 2,
            FaultKind::LinkFlap => 2,
            _ => 1,
        }
    }

    /// Component names eligible as injection targets in the deployment.
    #[must_use]
    pub fn eligible_targets(self, d: &RedditDeployment) -> Vec<String> {
        let by_service = |services: &[&str]| -> Vec<String> {
            d.fine
                .graph
                .nodes()
                .filter(|(_, c)| services.contains(&c.service.as_str()))
                .map(|(_, c)| c.name.clone())
                .collect()
        };
        match self {
            FaultKind::HypervisorFailure => by_service(&["hypervisor"]),
            FaultKind::ServerCrash => by_service(&[
                "reddit-app",
                "memcached",
                "cassandra",
                "postgres",
                "rabbitmq",
                "worker",
                "haproxy",
            ]),
            FaultKind::BadTimeout => by_service(&["reddit-app", "worker", "haproxy"]),
            FaultKind::FirewallRule => by_service(&["firewall"]),
            FaultKind::PacketLoss => by_service(&["switch", "wan-uplink"]),
            FaultKind::DiskPressure => by_service(&["cassandra", "postgres"]),
            FaultKind::MemoryLeak => {
                by_service(&["reddit-app", "memcached", "cassandra", "postgres", "rabbitmq"])
            }
            FaultKind::ConfigError => {
                by_service(&["reddit-app", "haproxy", "rabbitmq", "postgres"])
            }
            FaultKind::CacheEvictionStorm => by_service(&["memcached"]),
            FaultKind::QueueBacklog => by_service(&["rabbitmq"]),
            FaultKind::LinkFlap => by_service(&["wan-uplink"]),
            FaultKind::CertExpiry => by_service(&["haproxy"]),
            // Control-plane faults attack the SMN's own substrate, but they
            // are still *located* somewhere: telemetry is lost in the
            // network fabric, the lake's partitions live on the storage
            // tier, and the controller runs on the hypervisor fleet. The
            // target anchors the fault on the lattice's layer axis and
            // names the team that owns the blinded substrate.
            FaultKind::TelemetryLoss => by_service(&["switch"]),
            FaultKind::LakePartition => by_service(&["cassandra"]),
            FaultKind::ControllerCrash => by_service(&["hypervisor"]),
        }
    }
}

/// One fault to inject.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Campaign-unique incident id.
    pub id: u64,
    /// Fault class.
    pub kind: FaultKind,
    /// Target component name.
    pub target: String,
    /// Parameter variant index — part of the injection signature.
    pub variant: u8,
    /// Root symptom severity in `(0, 1]`, derived from the variant.
    pub severity: f64,
    /// Ground-truth responsible team (owner of `target`).
    pub team: String,
}

impl FaultSpec {
    /// Injection-signature group id: incidents sharing `(kind, target)`
    /// were "injected in the same way" and must not straddle the train/test
    /// split — held-out incidents are root causes (fault class × faulted
    /// component) the router has *never* seen, per the paper's protocol
    /// ("our test set only contains incidents that are a result of a
    /// root-cause that is never injected in the same way as in the training
    /// set"). Parameter variants of the same root cause stay together.
    #[must_use]
    pub fn group_id(&self) -> u64 {
        mix(&[
            self.kind as u64,
            self.target.bytes().fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(u64::from(b))),
        ])
    }
}

/// Campaign configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Total faults to generate (the paper's 560).
    pub n_faults: usize,
    /// Parameter variants per (kind, target).
    pub variants: u8,
    /// Seed for severity derivation and fault-order shuffling.
    pub seed: u64,
    /// Opt the [`FaultKind::CONTROL_PLANE`] kinds into the round-robin.
    /// Off by default: the legacy 560-fault campaign must stay
    /// byte-identical.
    pub control_plane: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self { n_faults: 560, variants: 4, seed: 0xFA17, control_plane: false }
    }
}

/// Generate the fault campaign: round-robin over every (kind, target,
/// variant) signature until `n_faults` faults exist, with severities
/// hash-derived per fault. Deterministic.
#[must_use]
pub fn generate_campaign(d: &RedditDeployment, cfg: &CampaignConfig) -> Vec<FaultSpec> {
    // Enumerate signatures in fixed order; control-plane kinds append
    // after the workload taxonomy so opting them in never perturbs the
    // workload signature order.
    let kinds: &[FaultKind] =
        if cfg.control_plane { &FaultKind::ALL_WITH_CONTROL_PLANE } else { &FaultKind::ALL };
    let mut signatures: Vec<(FaultKind, String, u8)> = Vec::new();
    for &kind in kinds {
        for target in kind.eligible_targets(d) {
            for v in 0..cfg.variants {
                for _ in 0..kind.campaign_weight() {
                    signatures.push((kind, target.clone(), v));
                }
            }
        }
    }
    assert!(!signatures.is_empty(), "no eligible fault signatures");
    let mut out = Vec::with_capacity(cfg.n_faults);
    let mut i = 0usize;
    while out.len() < cfg.n_faults {
        let (kind, target, variant) = signatures[i % signatures.len()].clone();
        i += 1;
        let id = out.len() as u64;
        // Severity: base by variant tier, jittered per fault.
        let tier = 0.55 + 0.1 * f64::from(variant);
        let jitter = uniform01(mix(&[cfg.seed, id, kind as u64])) * 0.15;
        let severity = (tier + jitter).min(1.0);
        // Signatures are enumerated from the deployment, so the target
        // resolves; a stale signature is skipped rather than panicking.
        let Some(node) = d.fine.by_name(&target) else { continue };
        let team = d.fine.component(node).team.clone();
        out.push(FaultSpec { id, kind, target, variant, severity, team });
    }
    out
}

/// One component and its owning team, as a campaign declares it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Owner {
    /// Component name.
    pub name: String,
    /// Owning team.
    pub team: String,
}

/// A topology-locus annotation: the WAN link whose failure produces a
/// campaign fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Locus {
    /// The annotated fault's id.
    pub fault: u64,
    /// The WAN link.
    pub link: EdgeId,
}

/// A fault campaign with the component ownership table its faults are
/// checked against: the `fault-campaign` artifact. Generated campaigns
/// add topology-locus annotations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignArtifact {
    /// Artifact kind tag: always `"fault-campaign"`.
    pub kind: String,
    /// Every component a fault may target, with its owner.
    pub components: Vec<Owner>,
    /// The faults, in replay order.
    pub faults: Vec<FaultSpec>,
    /// Locus annotations, when the campaign ties faults to WAN links.
    pub loci: Option<Vec<Locus>>,
    /// WAN links in the topology the loci refer into.
    pub link_count: Option<usize>,
}

impl CampaignArtifact {
    /// A campaign of `faults` over the components of `fine`, without
    /// locus annotations.
    #[must_use]
    pub fn new(fine: &FineDepGraph, faults: Vec<FaultSpec>) -> Self {
        let components = fine
            .graph
            .nodes()
            .map(|(_, c)| Owner { name: c.name.clone(), team: c.team.clone() })
            .collect();
        CampaignArtifact {
            kind: "fault-campaign".to_string(),
            components,
            faults,
            loci: None,
            link_count: None,
        }
    }

    /// Decode a parsed `fault-campaign` artifact and refuse it unless it
    /// satisfies every campaign invariant.
    ///
    /// # Errors
    /// The violations of an artifact of another kind, one that does not
    /// decode, or one that breaks any of [`CampaignArtifact::violations`].
    pub fn load(v: &Value) -> Result<Self, Vec<Violation>> {
        if v.get("kind") != Some(&Value::Str("fault-campaign".to_string())) {
            return Err(vec![Violation::new(
                "artifact/unknown-kind",
                path!["kind"],
                "not a fault-campaign artifact",
                "",
            )]);
        }
        let campaign = CampaignArtifact::from_value(v)
            .map_err(|e| vec![Violation::unreadable("a fault campaign", &e)])?;
        let violations = CampaignArtifact::violations(&campaign);
        if violations.is_empty() {
            Ok(campaign)
        } else {
            Err(violations)
        }
    }

    /// Component names are unique; fault ids are unique, severities lie
    /// in `(0, 1]`, and each fault targets a declared component and
    /// blames its owner; the faults cover [`FaultKind::ALL`]; and every
    /// locus annotates a campaign fault and names a link inside the
    /// declared population.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (i, c) in self.components.iter().enumerate() {
            if self.components.iter().take(i).any(|p| p.name == c.name) {
                out.push(Violation::new(
                    "artifact/duplicate-id",
                    path!["components", i, "name"],
                    format!("duplicate component name `{}`", c.name),
                    "",
                ));
            }
        }
        for (i, f) in self.faults.iter().enumerate() {
            if self.faults.iter().take(i).any(|p| p.id == f.id) {
                out.push(Violation::new(
                    "artifact/duplicate-id",
                    path!["faults", i, "id"],
                    format!("duplicate fault id {}", f.id),
                    "fault ids key ground-truth labels and must be campaign-unique",
                ));
            }
            if !(f.severity.is_finite() && f.severity > 0.0 && f.severity <= 1.0) {
                out.push(Violation::new(
                    "artifact/invalid-severity",
                    path!["faults", i, "severity"],
                    format!("fault {} severity {} is outside (0, 1]", f.id, f.severity),
                    "",
                ));
            }
            match self.components.iter().find(|c| c.name == f.target) {
                None => out.push(Violation::new(
                    "artifact/unknown-target",
                    path!["faults", i, "target"],
                    format!("fault {} targets `{}`, not a declared component", f.id, f.target),
                    "",
                )),
                Some(owner) if owner.team != f.team => out.push(Violation::new(
                    "artifact/wrong-team",
                    path!["faults", i, "team"],
                    format!(
                        "fault {} blames team `{}`, but `{}` is owned by `{}`",
                        f.id, f.team, f.target, owner.team
                    ),
                    "the ground-truth team must be the owner of the target component",
                )),
                Some(_) => {}
            }
        }
        let missing: Vec<String> = FaultKind::ALL
            .iter()
            .filter(|&&k| !self.faults.iter().any(|f| f.kind == k))
            .map(|k| format!("{k:?}"))
            .collect();
        if !missing.is_empty() && !self.faults.is_empty() {
            out.push(Violation::new(
                "artifact/taxonomy-gap",
                path!["faults"],
                format!("campaign exercises no fault of kind(s): {}", missing.join(", ")),
                "a campaign must cover the full fault taxonomy (FaultKind::ALL)",
            ));
        }
        for (i, locus) in self.loci.iter().flatten().enumerate() {
            if !self.faults.iter().any(|f| f.id == locus.fault) {
                out.push(Violation::new(
                    "artifact/unknown-fault-ref",
                    path!["loci", i, "fault"],
                    format!(
                        "locus {i} annotates fault {}, not a fault of this campaign",
                        locus.fault
                    ),
                    "locus annotations bind campaign faults to WAN links",
                ));
            }
            if let Some(n) = self.link_count.filter(|&n| locus.link.index() >= n) {
                out.push(Violation::new(
                    "artifact/dangling-link-ref",
                    path!["loci", i, "link"],
                    format!(
                        "locus {i} names link {}, but the campaign declares {n} link(s)",
                        locus.link.0
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
    use crate::app::{team_index, RedditDeployment};

    #[test]
    fn campaign_has_requested_size_and_is_deterministic() {
        let d = RedditDeployment::build();
        let cfg = CampaignConfig::default();
        let a = generate_campaign(&d, &cfg);
        let b = generate_campaign(&d, &cfg);
        assert_eq!(a.len(), 560);
        assert_eq!(a, b);
    }

    #[test]
    fn every_fault_has_valid_target_and_team() {
        let d = RedditDeployment::build();
        let faults = generate_campaign(&d, &CampaignConfig::default());
        for f in &faults {
            let node = d.fine.by_name(&f.target).expect("target exists");
            assert_eq!(d.fine.component(node).team, f.team);
            assert!(team_index(&f.team).is_some());
            assert!((0.0..=1.0).contains(&f.severity));
            assert!(f.severity > 0.4);
        }
    }

    #[test]
    fn all_eight_teams_appear_as_ground_truth() {
        let d = RedditDeployment::build();
        let faults = generate_campaign(&d, &CampaignConfig::default());
        let teams: std::collections::HashSet<&str> =
            faults.iter().map(|f| f.team.as_str()).collect();
        assert_eq!(teams.len(), 8, "teams: {teams:?}");
    }

    #[test]
    fn network_faults_route_to_network_team() {
        let d = RedditDeployment::build();
        let faults = generate_campaign(&d, &CampaignConfig::default());
        for f in faults.iter().filter(|f| {
            matches!(f.kind, FaultKind::FirewallRule | FaultKind::PacketLoss | FaultKind::LinkFlap)
        }) {
            assert_eq!(f.team, "network", "{f:?}");
        }
    }

    #[test]
    fn group_ids_shared_within_root_cause_distinct_across() {
        let d = RedditDeployment::build();
        let faults = generate_campaign(&d, &CampaignConfig::default());
        let a = &faults[0];
        let other = faults
            .iter()
            .find(|f| f.kind != a.kind || f.target != a.target)
            .expect("campaign has more than one root cause");
        assert_ne!(a.group_id(), other.group_id());
        // Same (kind, target), any variant -> same group.
        let twin = faults[1..]
            .iter()
            .find(|f| f.kind == a.kind && f.target == a.target)
            .expect("weighted campaign repeats root causes");
        assert_eq!(a.group_id(), twin.group_id());
    }

    #[test]
    fn eligible_targets_nonempty_for_all_kinds() {
        let d = RedditDeployment::build();
        for kind in FaultKind::ALL_WITH_CONTROL_PLANE {
            assert!(!kind.eligible_targets(&d).is_empty(), "{kind:?} has no targets");
        }
    }

    #[test]
    fn control_plane_kinds_stay_out_of_the_default_campaign() {
        let d = RedditDeployment::build();
        let faults = generate_campaign(&d, &CampaignConfig::default());
        assert!(faults.iter().all(|f| !f.kind.is_control_plane()));
        // Byte-identity of the legacy campaign: the opt-in flag off must
        // serialize to exactly the same artifact payload as before the
        // flag existed (the checked-in campaign_560.json).
        let explicit = generate_campaign(
            &d,
            &CampaignConfig { control_plane: false, ..CampaignConfig::default() },
        );
        assert_eq!(faults.to_value(), explicit.to_value());
    }

    #[test]
    fn control_plane_opt_in_reaches_all_fifteen_kinds() {
        let d = RedditDeployment::build();
        let cfg =
            CampaignConfig { n_faults: 900, control_plane: true, ..CampaignConfig::default() };
        let faults = generate_campaign(&d, &cfg);
        for kind in FaultKind::ALL_WITH_CONTROL_PLANE {
            assert!(faults.iter().any(|f| f.kind == kind), "{kind:?} missing from opt-in campaign");
        }
        // Control-plane targets resolve and carry their owners' teams.
        for f in faults.iter().filter(|f| f.kind.is_control_plane()) {
            let node = d.fine.by_name(&f.target).expect("control-plane target exists");
            assert_eq!(d.fine.component(node).team, f.team);
        }
    }
}
