//! The coverage-guided campaign generator.
//!
//! Greedy search over candidate fault specs: enumerate, in a fixed order,
//! every injection the lattice model predicts a cell for — one candidate
//! per (kind, target, variant, locus) — then repeatedly select the
//! candidate with the best marginal coverage gain, breaking ties by a
//! seed-keyed hash so different seeds pick different representatives of
//! the same cell (and the same seed always picks the same one; the
//! proptest in `tests/coverage.rs` locks determinism for *any* seed).
//!
//! The selected faults are ordered control-plane-last (workload, then
//! telemetry loss, then controller crash, then lake partition) so that
//! the lake outages the blinding faults force cannot walk the circuit
//! breaker open underneath an earlier workload window — campaign order is
//! part of the coverage contract, not a cosmetic choice.

use std::collections::BTreeSet;

use smn_incident::faults::{CampaignArtifact, FaultKind, FaultSpec, Locus};
use smn_incident::{DeploymentStack, RedditDeployment};
use smn_telemetry::det::{mix, uniform01};
use smn_topology::{EdgeId, StackFault};

use crate::lattice::{layer_of_target, FaultLattice, LatticeCell, LocusBucket, Rung, LOCUS_KINDS};

/// Generator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Seed for candidate tie-breaking and severity derivation.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig { seed: 0xC0FE }
    }
}

/// A generated campaign: the fault specs plus the topology-locus
/// annotations that tie locus-bearing faults to the WAN link whose
/// failure produces them.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedCampaign {
    /// The faults, replay order (control-plane kinds last).
    pub faults: Vec<FaultSpec>,
    /// `(fault id, WAN link)` locus annotations, id order.
    pub loci: Vec<(u64, EdgeId)>,
    /// WAN links in the topology the loci refer into (the artifact's
    /// dangling-reference bound).
    pub link_count: usize,
}

/// One enumerated injection candidate and the cell it predicts.
struct Candidate {
    kind: FaultKind,
    target: String,
    variant: u8,
    locus: Option<EdgeId>,
    cell: LatticeCell,
}

/// Replay rank: workload first, then the blinding kinds, lake partition
/// last (see the module docs on circuit-breaker hygiene).
fn injection_rank(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::TelemetryLoss => 1,
        FaultKind::ControllerCrash => 2,
        FaultKind::LakePartition => 3,
        _ => 0,
    }
}

fn enumerate_candidates(
    d: &RedditDeployment,
    ds: &DeploymentStack,
    lattice: &FaultLattice,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for kind in FaultKind::ALL_WITH_CONTROL_PLANE {
        let targets = kind.eligible_targets(d);
        // Rung-bearing variants: telemetry loss blinds alerts on even
        // variants and probes on odd ones (see `campaign_lake_profile`),
        // so both rungs need a variant each; every other kind forces its
        // single rung regardless of variant.
        let variants: &[(u8, Rung)] = match kind {
            FaultKind::TelemetryLoss => &[(0, Rung::ProbesOnly), (1, Rung::AlertsOnly)],
            FaultKind::LakePartition => &[(0, Rung::Skipped)],
            _ => &[(0, Rung::Full)],
        };
        for target in &targets {
            let Some(layer) = layer_of_target(d, target) else { continue };
            for &(variant, rung) in variants {
                out.push(Candidate {
                    kind,
                    target: target.clone(),
                    variant,
                    locus: None,
                    cell: LatticeCell { kind, layer, locus: LocusBucket::None, rung },
                });
            }
        }
        if LOCUS_KINDS.contains(&kind) {
            for bucket in lattice.loci().buckets_present() {
                let Some(rep) = lattice.loci().representative(bucket) else { continue };
                for target in ds.descend_targets(d, StackFault::LinkDown(rep)) {
                    if !targets.contains(&target) {
                        continue;
                    }
                    let Some(layer) = layer_of_target(d, &target) else { continue };
                    out.push(Candidate {
                        kind,
                        target,
                        variant: 0,
                        locus: Some(rep),
                        cell: LatticeCell { kind, layer, locus: bucket, rung: Rung::Full },
                    });
                }
            }
        }
    }
    out
}

/// Generate a campaign that covers every cell the lattice model predicts
/// as coverable, via greedy max-marginal-gain selection with seed-keyed
/// tie-breaking. Deterministic for any seed.
#[must_use]
pub fn generate_covering_campaign(
    d: &RedditDeployment,
    ds: &DeploymentStack,
    lattice: &FaultLattice,
    cfg: &GeneratorConfig,
) -> GeneratedCampaign {
    let candidates = enumerate_candidates(d, ds, lattice);
    let mut uncovered: BTreeSet<LatticeCell> = lattice.reachable().iter().copied().collect();
    let mut chosen: Vec<usize> = Vec::new();
    loop {
        // Every candidate's marginal gain is its predicted cell if still
        // uncovered; the seed-keyed hash picks among the tied maximum.
        let mut best: Option<(u64, usize)> = None;
        for (idx, c) in candidates.iter().enumerate() {
            if !uncovered.contains(&c.cell) {
                continue;
            }
            let key = mix(&[cfg.seed, idx as u64]);
            if best.is_none_or(|(bk, bi)| (key, idx) < (bk, bi)) {
                best = Some((key, idx));
            }
        }
        let Some((_, idx)) = best else { break };
        uncovered.remove(&candidates[idx].cell);
        chosen.push(idx);
    }

    // Replay order: stable sort by injection rank keeps the seed-keyed
    // pick order within each rank.
    chosen.sort_by_key(|&idx| injection_rank(candidates[idx].kind));

    let mut faults = Vec::with_capacity(chosen.len());
    let mut loci = Vec::new();
    for (id, &idx) in (0u64..).zip(&chosen) {
        let c = &candidates[idx];
        // Severity mirrors `generate_campaign`'s derivation, keyed by the
        // generator seed.
        let tier = 0.55 + 0.1 * f64::from(c.variant);
        let jitter = uniform01(mix(&[cfg.seed, id, c.kind as u64])) * 0.15;
        let severity = (tier + jitter).min(1.0);
        let Some(node) = d.fine.by_name(&c.target) else { continue };
        faults.push(FaultSpec {
            id,
            kind: c.kind,
            target: c.target.clone(),
            variant: c.variant,
            severity,
            team: d.fine.component(node).team.clone(),
        });
        if let Some(link) = c.locus {
            loci.push((id, link));
        }
    }
    GeneratedCampaign { faults, loci, link_count: lattice.loci().link_count() }
}

impl GeneratedCampaign {
    /// The campaign as a `fault-campaign` artifact over `d`'s components,
    /// with its locus annotations and link population.
    #[must_use]
    pub fn to_artifact(&self, d: &RedditDeployment) -> CampaignArtifact {
        let loci = self.loci.iter().map(|&(fault, link)| Locus { fault, link }).collect();
        CampaignArtifact {
            loci: Some(loci),
            link_count: Some(self.link_count),
            ..CampaignArtifact::new(&d.fine, self.faults.clone())
        }
    }

    /// The campaign an artifact describes; a legacy campaign without
    /// `loci` and `link_count` has no locus annotations.
    #[must_use]
    pub fn from_artifact(artifact: CampaignArtifact) -> GeneratedCampaign {
        GeneratedCampaign {
            faults: artifact.faults,
            loci: artifact.loci.into_iter().flatten().map(|l| (l.fault, l.link)).collect(),
            link_count: artifact.link_count.unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_topology::gen::{generate_planetary, PlanetaryConfig};

    fn world() -> (RedditDeployment, DeploymentStack, FaultLattice) {
        let d = RedditDeployment::build();
        let p = generate_planetary(&PlanetaryConfig::small(7));
        let ds = DeploymentStack::bind(&d, p.optical, p.wan);
        let lattice = FaultLattice::build(&d, &ds);
        (d, ds, lattice)
    }

    #[test]
    fn generator_predicts_full_reachable_coverage() {
        let (d, ds, lattice) = world();
        let campaign = generate_covering_campaign(&d, &ds, &lattice, &GeneratorConfig::default());
        // One fault per reachable cell: the predicted cells are exactly
        // the lattice.
        assert_eq!(campaign.faults.len(), lattice.reachable().len());
        // Control-plane faults come last, in breaker-safe rank order.
        let ranks: Vec<u8> = campaign.faults.iter().map(|f| injection_rank(f.kind)).collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "rank order violated: {ranks:?}");
        // Ids are dense and ascending.
        for (i, f) in campaign.faults.iter().enumerate() {
            assert_eq!(f.id, i as u64);
        }
    }

    #[test]
    fn different_seeds_stay_valid_and_usually_differ() {
        let (d, ds, lattice) = world();
        let a = generate_covering_campaign(&d, &ds, &lattice, &GeneratorConfig { seed: 1 });
        let b = generate_covering_campaign(&d, &ds, &lattice, &GeneratorConfig { seed: 2 });
        assert_eq!(a.faults.len(), b.faults.len(), "coverage target is seed-independent");
        assert_ne!(
            (a.faults, a.loci),
            (b.faults, b.loci),
            "seeds should pick different cell representatives"
        );
    }

    #[test]
    fn artifact_round_trips() {
        let (d, ds, lattice) = world();
        let campaign = generate_covering_campaign(&d, &ds, &lattice, &GeneratorConfig::default());
        let artifact = campaign.to_artifact(&d);
        assert_eq!(GeneratedCampaign::from_artifact(artifact.clone()), campaign);
        // And through actual JSON bytes, loading through the validating
        // loader.
        let text = serde_json::to_string_pretty(&artifact).unwrap();
        let reparsed = serde_json::parse_value(&text).unwrap();
        let loaded = CampaignArtifact::load(&reparsed).unwrap();
        assert_eq!(GeneratedCampaign::from_artifact(loaded), campaign);
    }
}
