//! Shared-risk link groups (SRLGs) from the typed L1 → L3 stack map.
//!
//! §7: "can mappings from IP links to layer 1 information like submarine
//! cables be used not just for risk modeling but for risk-aware topology
//! design and capacity planning at layer 3?" — this module answers the
//! capacity-planning half. An SRLG is the set of L3 links that ride a
//! common fiber span: one backhoe (or shark) takes them all down together.
//! The risk-aware planner diversifies upgrades away from spans that
//! already carry much of a corridor's capacity.
//!
//! SRLGs are derived from the unified stack's L1 → L3 cross-layer map
//! (wavelength → carried [`EdgeId`]s): [`extract_srlgs`] reads the map off
//! an [`OpticalLayer`] directly, [`extract_srlgs_from_stack`] off a
//! registered [`LayerStack`].

use std::collections::{BTreeMap, BTreeSet, HashSet};

use serde::{Deserialize, Serialize};
use smn_topology::artifact::{under, Violation};
use smn_topology::layer1::{FiberSpanId, OpticalLayer};
use smn_topology::{path, EdgeId, LayerStack, Wan};

/// One shared-risk group: a fiber span and every L3 link riding it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Srlg {
    /// The shared span.
    pub span: FiberSpanId,
    /// Whether the span is submarine (harder to repair, higher exposure).
    pub submarine: bool,
    /// L3 links sharing the span, sorted.
    pub links: Vec<EdgeId>,
}

/// Extract every SRLG with at least two member links from the optical
/// layer's L1 → L3 map — single-link spans carry no *shared* risk.
#[must_use]
pub fn extract_srlgs(optical: &OpticalLayer) -> Vec<Srlg> {
    let mut span_links: BTreeMap<FiberSpanId, BTreeSet<EdgeId>> = BTreeMap::new();
    for (w, links) in optical.link_map().entries() {
        for &span in &optical.wavelength(w).spans {
            span_links.entry(span).or_default().extend(links.iter().copied());
        }
    }
    let mut srlgs: Vec<Srlg> = span_links
        .into_iter()
        .filter(|(_, links)| links.len() >= 2)
        .map(|(span, links)| {
            let mut links: Vec<EdgeId> = links.into_iter().collect();
            links.sort_unstable();
            Srlg { span, submarine: optical.span(span).submarine, links }
        })
        .collect();
    srlgs.sort_by_key(|s| s.span);
    srlgs
}

/// [`extract_srlgs`] over a registered [`LayerStack`]: the shared-risk
/// structure is exactly the stack's L1 → L3 map grouped by fiber span.
#[must_use]
pub fn extract_srlgs_from_stack(stack: &LayerStack) -> Vec<Srlg> {
    extract_srlgs(stack.optical())
}

/// A WAN with, optionally, its optical underlay and SRLGs: the `topology`
/// artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyArtifact {
    /// Artifact kind tag: always `"topology"`.
    pub kind: String,
    /// The L3 network.
    pub wan: Wan,
    /// The L1 layer under it.
    pub optical: Option<OpticalLayer>,
    /// Shared-risk groups over the WAN's links.
    pub srlgs: Option<Vec<Srlg>>,
}

impl TopologyArtifact {
    /// Each layer's own invariants, plus SRLG membership: every group
    /// names an existing span and at least two existing links, and with
    /// an optical layer present, each member link must ride that span per
    /// the L1 → L3 carries map.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let link_count = self.wan.link_count();
        let mut out = under(&path!["wan"], Wan::violations(&self.wan));
        if let Some(optical) = &self.optical {
            out.extend(under(&path!["optical"], OpticalLayer::violations(optical, link_count)));
        }
        for (i, srlg) in self.srlgs.iter().flatten().enumerate() {
            let span = srlg.span;
            // The links riding this span, per the optical carries map.
            let riders: Option<Vec<EdgeId>> = match &self.optical {
                Some(optical) if span.0 as usize >= optical.spans().len() => {
                    out.push(Violation::new(
                        "artifact/unknown-span",
                        path!["srlgs", i, "span"],
                        format!(
                            "SRLG {i} names span {}, but only {} spans exist",
                            span.0,
                            optical.spans().len()
                        ),
                        "",
                    ));
                    continue;
                }
                Some(optical) => Some(
                    optical
                        .link_map()
                        .entries()
                        .filter(|(w, _)| {
                            optical
                                .wavelengths()
                                .get(w.0 as usize)
                                .is_some_and(|wl| wl.spans.contains(&span))
                        })
                        .flat_map(|(_, links)| links.iter().copied())
                        .collect(),
                ),
                None => None,
            };
            if srlg.links.len() < 2 {
                out.push(Violation::new(
                    "artifact/srlg-too-small",
                    path!["srlgs", i, "links"],
                    format!(
                        "SRLG {i} groups {} link(s); a risk group needs at least 2",
                        srlg.links.len()
                    ),
                    "single-link groups carry no shared-risk information",
                ));
            }
            for (j, lid) in srlg.links.iter().enumerate() {
                if lid.index() >= link_count {
                    out.push(Violation::new(
                        "artifact/dangling-link-ref",
                        path!["srlgs", i, "links", j],
                        format!(
                            "SRLG {i} lists link {}, but the WAN has only {link_count} links",
                            lid.0
                        ),
                        "",
                    ));
                } else if riders.as_ref().is_some_and(|r| !r.contains(lid)) {
                    out.push(Violation::new(
                        "artifact/orphan-srlg",
                        path!["srlgs", i, "links", j],
                        format!(
                            "SRLG {i} claims link {} rides span {}, \
                             but no wavelength over that span carries it",
                            lid.0, span.0
                        ),
                        "SRLG membership must be derivable from the optical carries map",
                    ));
                }
            }
        }
        out
    }
}

/// All L3 links that fail together with `link` (including itself) when any
/// shared span is cut — the blast radius of a single span failure.
#[must_use]
pub fn correlated_failure_set(srlgs: &[Srlg], link: EdgeId) -> HashSet<EdgeId> {
    let mut out = HashSet::from([link]);
    for s in srlgs {
        if s.links.contains(&link) {
            out.extend(s.links.iter().copied());
        }
    }
    out
}

/// Risk report for a set of candidate upgrades: upgrades landing on links
/// that share a span with other candidates concentrate risk instead of
/// adding resilient capacity.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RiskReport {
    /// Candidate pairs that share at least one span.
    pub correlated_pairs: Vec<(EdgeId, EdgeId)>,
    /// Candidates riding a submarine span (repair times in weeks).
    pub submarine_exposed: Vec<EdgeId>,
}

impl RiskReport {
    /// Whether the candidate set is risk-diverse (no correlated pairs).
    #[must_use]
    pub fn is_diverse(&self) -> bool {
        self.correlated_pairs.is_empty()
    }
}

/// Assess a set of upgrade candidates against the SRLG structure.
#[must_use]
pub fn assess_upgrades(srlgs: &[Srlg], candidates: &[EdgeId]) -> RiskReport {
    let mut report = RiskReport::default();
    for (i, &a) in candidates.iter().enumerate() {
        for &b in &candidates[i + 1..] {
            if a == b {
                continue;
            }
            if srlgs.iter().any(|s| s.links.contains(&a) && s.links.contains(&b)) {
                report.correlated_pairs.push((a.min(b), a.max(b)));
            }
        }
    }
    for &c in candidates {
        if srlgs.iter().any(|s| s.submarine && s.links.contains(&c))
            && !report.submarine_exposed.contains(&c)
        {
            report.submarine_exposed.push(c);
        }
    }
    report.correlated_pairs.sort_unstable();
    report.correlated_pairs.dedup();
    report.submarine_exposed.sort_unstable();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_topology::layer1::Modulation;

    /// Two links share span A; a third rides its own span; a fourth rides
    /// a submarine span.
    fn layer() -> OpticalLayer {
        let mut l1 = OpticalLayer::new();
        let shared = l1.add_span("shared", 500.0, false, 2);
        let solo = l1.add_span("solo", 500.0, false, 2);
        let sea = l1.add_span("sea", 3000.0, true, 0);
        l1.light_wavelength(vec![shared], Modulation::Qpsk, vec![EdgeId(0)]);
        l1.light_wavelength(vec![shared], Modulation::Qpsk, vec![EdgeId(1)]);
        l1.light_wavelength(vec![solo], Modulation::Qpsk, vec![EdgeId(2)]);
        l1.light_wavelength(vec![sea], Modulation::Qpsk, vec![EdgeId(3)]);
        l1
    }

    #[test]
    fn srlgs_found_only_for_shared_spans() {
        let srlgs = extract_srlgs(&layer());
        assert_eq!(srlgs.len(), 1);
        assert_eq!(srlgs[0].links, vec![EdgeId(0), EdgeId(1)]);
        assert!(!srlgs[0].submarine);
    }

    #[test]
    fn correlated_failure_sets() {
        let srlgs = extract_srlgs(&layer());
        assert_eq!(
            correlated_failure_set(&srlgs, EdgeId(0)),
            HashSet::from([EdgeId(0), EdgeId(1)])
        );
        assert_eq!(correlated_failure_set(&srlgs, EdgeId(2)), HashSet::from([EdgeId(2)]));
    }

    #[test]
    fn upgrade_assessment_flags_correlation() {
        let srlgs = extract_srlgs(&layer());
        let risky = assess_upgrades(&srlgs, &[EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert_eq!(risky.correlated_pairs, vec![(EdgeId(0), EdgeId(1))]);
        assert!(!risky.is_diverse());
        let diverse = assess_upgrades(&srlgs, &[EdgeId(0), EdgeId(2)]);
        assert!(diverse.is_diverse());
    }

    #[test]
    fn submarine_exposure_detected() {
        let mut l1 = layer();
        // Add a second link to the sea span so it becomes an SRLG.
        let sea = l1.spans().iter().find(|s| s.submarine).unwrap().id;
        l1.light_wavelength(vec![sea], Modulation::Qpsk, vec![EdgeId(4)]);
        let srlgs = extract_srlgs(&l1);
        let report = assess_upgrades(&srlgs, &[EdgeId(3), EdgeId(4)]);
        assert_eq!(report.submarine_exposed, vec![EdgeId(3), EdgeId(4)]);
        assert_eq!(report.correlated_pairs, vec![(EdgeId(3), EdgeId(4))]);
    }

    #[test]
    fn planetary_wan_has_real_srlgs() {
        let p =
            smn_topology::gen::generate_planetary(&smn_topology::gen::PlanetaryConfig::small(9));
        let srlgs = extract_srlgs(&p.optical);
        // Every generated link's two directions share spans, so SRLGs are
        // plentiful by construction.
        assert!(!srlgs.is_empty());
        for s in &srlgs {
            assert!(s.links.len() >= 2);
        }
    }

    #[test]
    fn stack_and_optical_extraction_agree() {
        let p =
            smn_topology::gen::generate_planetary(&smn_topology::gen::PlanetaryConfig::small(9));
        let direct = extract_srlgs(&p.optical);
        let via_stack = extract_srlgs_from_stack(&p.into_stack());
        assert_eq!(direct, via_stack);
    }
}
