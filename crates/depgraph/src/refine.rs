//! CDG refinement: maintaining the sketch over time.
//!
//! §5: "engineers can directly sketch the CDG … and refine it over time."
//! A sketched CDG will have missing edges, and missing edges cause a
//! characteristic failure: incidents whose observed syndrome contains
//! symptomatic teams *outside* the responsible team's dependency closure,
//! which drags its explainability down and misroutes the incident.
//!
//! [`suggest_edges`] inverts that signal: given resolved incidents
//! (observed syndrome + the team that turned out to be responsible), it
//! proposes the dependency edges whose absence best explains the residual
//! symptoms, ranked by how many incidents each would fix. This closes the
//! maintenance loop — the CDG stays cheap to keep because the SMN itself
//! points at its gaps.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use smn_topology::graph::NodeId;

use crate::coarse::CoarseDepGraph;
use crate::syndrome::Syndrome;

/// A resolved incident: what was observed and who was responsible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedIncident {
    /// The observed syndrome at the time.
    pub syndrome: Syndrome,
    /// The team that turned out to be the root cause.
    pub responsible: String,
}

/// A proposed CDG edge `from` → `to` ("`from` depends on `to`").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuggestedEdge {
    /// The team that showed unexplained symptoms.
    pub from: String,
    /// The responsible team it apparently depends on.
    pub to: String,
    /// How many resolved incidents this edge would help explain.
    pub support: usize,
}

/// Propose missing dependency edges from resolved-incident history.
///
/// For each incident, every symptomatic team not in the responsible team's
/// dependency closure is an *unexplained symptom*; the candidate edge
/// `symptomatic → responsible` would explain it. Candidates are ranked by
/// support and returned when supported by at least `min_support` incidents.
/// Teams unknown to the CDG are ignored (resolutions can involve teams the
/// sketch has not modeled yet — that is a different refinement).
#[must_use]
pub fn suggest_edges(
    cdg: &CoarseDepGraph,
    history: &[ResolvedIncident],
    min_support: usize,
) -> Vec<SuggestedEdge> {
    let mut support: HashMap<(NodeId, NodeId), usize> = HashMap::new();
    for incident in history {
        let Some(responsible) = cdg.by_name(&incident.responsible) else {
            continue;
        };
        if incident.syndrome.len() != cdg.len() {
            continue;
        }
        let closure = cdg.dependents_of(responsible);
        for (i, &sym) in incident.syndrome.0.iter().enumerate() {
            let team = NodeId(i as u32);
            if sym > 0.0 && !closure.contains(&team) && team != responsible {
                *support.entry((team, responsible)).or_insert(0) += 1;
            }
        }
    }
    let mut out: Vec<SuggestedEdge> = support
        .into_iter()
        .filter(|&(_, s)| s >= min_support)
        .filter(|&((from, to), _)| cdg.graph.find_edge(from, to).is_none())
        .map(|((from, to), support)| SuggestedEdge {
            from: cdg.team(from).name.clone(),
            to: cdg.team(to).name.clone(),
            support,
        })
        .collect();
    out.sort_by(|a, b| b.support.cmp(&a.support).then(a.from.cmp(&b.from)));
    out
}

/// Apply a suggestion to the CDG (the "refine" step an engineer confirms).
///
/// Returns `false` when either team is unknown (nothing applied).
pub fn apply_suggestion(cdg: &mut CoarseDepGraph, suggestion: &SuggestedEdge) -> bool {
    match (cdg.by_name(&suggestion.from), cdg.by_name(&suggestion.to)) {
        (Some(from), Some(to)) => {
            cdg.add_dependency(from, to);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// app -> platform -> network, but the sketch is missing
    /// monitoring -> app.
    fn sketched_cdg() -> CoarseDepGraph {
        let mut cdg = CoarseDepGraph::new();
        let app = cdg.add_team("app");
        let platform = cdg.add_team("platform");
        let net = cdg.add_team("network");
        let _mon = cdg.add_team("monitoring");
        cdg.add_dependency(app, platform);
        cdg.add_dependency(platform, net);
        cdg
    }

    fn incident(cdg: &CoarseDepGraph, symptomatic: &[&str], responsible: &str) -> ResolvedIncident {
        let mut syndrome = Syndrome::zeros(cdg.len());
        for t in symptomatic {
            syndrome.0[cdg.by_name(t).unwrap().index()] = 1.0;
        }
        ResolvedIncident { syndrome, responsible: responsible.to_string() }
    }

    #[test]
    fn missing_edge_is_suggested_with_support() {
        let cdg = sketched_cdg();
        // Three app incidents where monitoring also alerted: the sketch
        // can't explain monitoring's symptoms.
        let history: Vec<ResolvedIncident> =
            (0..3).map(|_| incident(&cdg, &["app", "monitoring"], "app")).collect();
        let suggestions = suggest_edges(&cdg, &history, 2);
        assert_eq!(suggestions.len(), 1);
        assert_eq!(suggestions[0].from, "monitoring");
        assert_eq!(suggestions[0].to, "app");
        assert_eq!(suggestions[0].support, 3);
    }

    #[test]
    fn explained_symptoms_produce_no_suggestions() {
        let cdg = sketched_cdg();
        // Full fan-out from network is entirely inside network's closure.
        let history = vec![incident(&cdg, &["app", "platform", "network"], "network")];
        assert!(suggest_edges(&cdg, &history, 1).is_empty());
    }

    #[test]
    fn min_support_filters_noise() {
        let cdg = sketched_cdg();
        let history = vec![incident(&cdg, &["app", "monitoring"], "app")];
        assert!(suggest_edges(&cdg, &history, 2).is_empty());
        assert_eq!(suggest_edges(&cdg, &history, 1).len(), 1);
    }

    #[test]
    fn existing_edges_never_suggested() {
        let cdg = sketched_cdg();
        // Platform symptoms during a network incident are already explained;
        // app symptoms during a platform incident likewise.
        let history = vec![
            incident(&cdg, &["platform", "network"], "network"),
            incident(&cdg, &["app", "platform"], "platform"),
        ];
        assert!(suggest_edges(&cdg, &history, 1).is_empty());
    }

    #[test]
    fn applying_suggestion_fixes_routing() {
        use crate::syndrome::Explainability;
        let mut cdg = sketched_cdg();
        let obs = incident(&cdg, &["app", "monitoring"], "app").syndrome;
        // Before refinement the sketch cannot fully explain the syndrome.
        let before = {
            let ex = Explainability::new(&cdg);
            ex.explainability(&obs, cdg.by_name("app").unwrap())
        };
        let history: Vec<ResolvedIncident> =
            (0..3).map(|_| incident(&cdg, &["app", "monitoring"], "app")).collect();
        let suggestions = suggest_edges(&cdg, &history, 2);
        assert!(apply_suggestion(&mut cdg, &suggestions[0]));
        let after = {
            let ex = Explainability::new(&cdg);
            ex.explainability(&obs, cdg.by_name("app").unwrap())
        };
        assert!(after > before, "explainability improves: {before} -> {after}");
        assert!((after - 1.0).abs() < 1e-9, "now perfectly explained");
        // Re-suggesting yields nothing: the gap is closed.
        assert!(suggest_edges(&cdg, &history, 1).is_empty());
    }

    #[test]
    fn unknown_teams_ignored() {
        let mut cdg = sketched_cdg();
        let history = vec![ResolvedIncident {
            syndrome: Syndrome::zeros(cdg.len()),
            responsible: "nobody".into(),
        }];
        assert!(suggest_edges(&cdg, &history, 1).is_empty());
        let bogus = SuggestedEdge { from: "ghost".into(), to: "app".into(), support: 1 };
        assert!(!apply_suggestion(&mut cdg, &bogus));
    }
}
