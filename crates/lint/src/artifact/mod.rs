//! The artifact engine: static validation of serialized SMN artifacts.
//!
//! Artifacts are JSON envelopes dispatched on a top-level `"kind"`. Each
//! kind decodes into the one workspace type that owns it, and that type
//! states the kind's invariants once, as `violations()`:
//!
//! | kind | owner |
//! |---|---|
//! | `cdg` | [`CdgArtifact`] (smn-depgraph) |
//! | `topology` | [`TopologyArtifact`] (smn-te) |
//! | `fault-campaign` | [`CampaignArtifact`] (smn-incident) |
//! | `coarsening` | [`Partition`] (smn-topology) |
//! | `stack` | [`StackShape`] (smn-topology) |
//! | `remediation-plan` | [`RemediationPlan`] (smn-heal) |
//! | `coverage-report` | [`CoverageReport`] (smn-coverage) |
//! | `bench-report` | [`BenchReport`] (smn-perf) |
//! | `delta-journal` | [`DeltaJournal`] (smn-core) |
//! | `callgraph` | `CallGraphArtifact` (this crate) |
//!
//! Runtime loaders call the same `violations()`, so an artifact the lint
//! passes is one the system accepts. The engine itself only parses,
//! dispatches, decodes, and maps each violation's JSON path back to a
//! `line:col` span with [`locate()`], since the vendored JSON parser keeps
//! no spans.

pub mod locate;

use std::path::Path;

use serde::{Deserialize, Value};
use smn_core::stream::DeltaJournal;
use smn_coverage::CoverageReport;
use smn_depgraph::coarse::CdgArtifact;
use smn_heal::RemediationPlan;
use smn_incident::faults::CampaignArtifact;
use smn_perf::BenchReport;
use smn_te::srlg::TopologyArtifact;
use smn_topology::artifact::Violation;
use smn_topology::graph::Partition;
use smn_topology::path;
use smn_topology::stack::StackShape;

use crate::diag::{Diagnostic, Level};
use crate::graph::CallGraphArtifact;
use locate::{locate, render_path};

/// The note on an unknown kind: every kind the engine dispatches on.
const KINDS_NOTE: &str = "expected one of: cdg, topology, fault-campaign, coarsening, \
                          stack, remediation-plan, coverage-report, callgraph, bench-report, \
                          delta-journal";

/// Check every `*.json` under `dir` (recursively, in sorted order),
/// reporting paths relative to `root`. Returns the findings and the number
/// of artifact files checked.
#[must_use]
pub fn check_dir(root: &Path, dir: &Path) -> (Vec<Diagnostic>, usize) {
    let mut files = Vec::new();
    let mut dir_errors = Vec::new();
    crate::collect_files(dir, "json", &mut files, &mut dir_errors);
    files.sort();
    let mut findings = Vec::new();
    // Same discipline as the deep pass: an unreadable directory is a
    // finding, never a silently shorter scan.
    for (bad_dir, err) in dir_errors {
        let rel = bad_dir
            .strip_prefix(root)
            .unwrap_or(&bad_dir)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        findings.push(Diagnostic::new(
            "artifact/unreadable",
            Level::Deny,
            &rel,
            0,
            0,
            format!("cannot read artifact directory: {err}"),
        ));
    }
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        match std::fs::read_to_string(path) {
            Ok(src) => findings.extend(check_str(&rel, &src)),
            Err(e) => findings.push(Diagnostic::new(
                "artifact/unreadable",
                Level::Deny,
                &rel,
                0,
                0,
                format!("cannot read artifact: {e}"),
            )),
        }
    }
    (findings, files.len())
}

/// Check one artifact given its workspace-relative name and source text.
#[must_use]
pub fn check_str(file: &str, src: &str) -> Vec<Diagnostic> {
    let found = match serde_json::from_str::<Value>(src) {
        Ok(v) => violations(&v),
        Err(e) => {
            vec![Violation::new("artifact/unreadable", vec![], format!("invalid JSON: {e}"), "")]
        }
    };
    found
        .into_iter()
        .map(|v| {
            let (line, col) = locate(src, &v.path).unwrap_or((0, 0));
            let message = if v.path.is_empty() {
                v.message
            } else {
                format!("{} [{}]", v.message, render_path(&v.path))
            };
            Diagnostic::new(&v.rule, Level::Deny, file, line, col, message).with_note(v.note)
        })
        .collect()
}

/// Decode `v` into the owner type of its kind.
fn decode<T: Deserialize>(v: &Value, what: &str) -> Result<T, Vec<Violation>> {
    T::from_value(v).map_err(|e| vec![Violation::unreadable(what, &e)])
}

/// Dispatch on `kind` and collect the owner's violations.
fn violations(v: &Value) -> Vec<Violation> {
    let Some(Value::Str(kind)) = v.get("kind") else {
        let message = "artifact envelope lacks a string `kind` field";
        return vec![Violation::new("artifact/unknown-kind", vec![], message, KINDS_NOTE)];
    };
    let found = match kind.as_str() {
        "cdg" => decode(v, "a cdg artifact").map(|a| CdgArtifact::violations(&a)),
        "topology" => decode(v, "a topology artifact").map(|a| TopologyArtifact::violations(&a)),
        "fault-campaign" => CampaignArtifact::load(v).map(|_| Vec::new()),
        "coarsening" => decode(v, "a coarsening partition").map(|a| Partition::violations(&a)),
        "stack" => decode(v, "a stack shape").map(|a| StackShape::violations(&a)),
        "remediation-plan" => {
            decode(v, "a remediation plan").map(|a| RemediationPlan::violations(&a))
        }
        "coverage-report" => {
            CoverageReport::from_artifact(v).map(|r| CoverageReport::violations(&r))
        }
        "callgraph" => decode(v, "a callgraph").map(|a| CallGraphArtifact::violations(&a)),
        "bench-report" => decode(v, "a bench report").map(|a| BenchReport::violations(&a)),
        "delta-journal" => decode(v, "a delta journal").map(|a| DeltaJournal::violations(&a)),
        other => {
            let message = format!("unknown artifact kind `{other}`");
            Ok(vec![Violation::new("artifact/unknown-kind", path!["kind"], message, KINDS_NOTE)])
        }
    };
    found.unwrap_or_else(|unreadable| unreadable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_kind_is_flagged() {
        let out = check_str("x.json", r#"{"kind": "mystery"}"#);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "artifact/unknown-kind");
        assert_eq!((out[0].line, out[0].col), (1, 10));
    }

    #[test]
    fn malformed_json_is_unreadable() {
        let out = check_str("x.json", "{nope");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "artifact/unreadable");
    }

    #[test]
    fn coarsening_partition_checks() {
        let good =
            r#"{"kind":"coarsening","fine_nodes":3,"node_map":[0,0,1],"members":[[0,1],[2]]}"#;
        assert!(check_str("c.json", good).is_empty());

        let not_total =
            r#"{"kind":"coarsening","fine_nodes":4,"node_map":[0,0,1,1],"members":[[0,1],[2]]}"#;
        let out = check_str("c.json", not_total);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/partition-not-total");

        let overlap =
            r#"{"kind":"coarsening","fine_nodes":3,"node_map":[0,0,1],"members":[[0,1],[1,2]]}"#;
        let out = check_str("c.json", overlap);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/overlapping-partition");

        let empty = r#"{"kind":"coarsening","fine_nodes":2,"node_map":[0,0],"members":[[0,1],[]]}"#;
        let out = check_str("c.json", empty);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/empty-supernode");
    }

    #[test]
    fn remediation_plan_checks() {
        let good = r#"{"kind":"remediation-plan","components":["app-1","db-1"],
            "link_count":4,"wavelength_count":2,"actions":[
            {"incident_id":1,"layer":"L7","action":{"RestartComponent":{"component":"app-1"}}},
            {"incident_id":2,"layer":"L3","action":{"DrainLink":{"link":3,"alternates":2}}},
            {"incident_id":3,"layer":"L7","action":{"RouteToTeam":{"team":"database"}}}]}"#;
        assert!(check_str("p.json", good).is_empty(), "{:?}", check_str("p.json", good));

        // Restart of an undeclared component is a dangling action target.
        let unknown = r#"{"kind":"remediation-plan","components":["app-1"],
            "link_count":1,"wavelength_count":1,"actions":[
            {"incident_id":1,"layer":"L7","action":{"RestartComponent":{"component":"ghost"}}}]}"#;
        let out = check_str("p.json", unknown);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/unknown-target");

        // Link and wavelength indices must fall inside the declared world.
        let dangling = r#"{"kind":"remediation-plan","components":[],
            "link_count":2,"wavelength_count":1,"actions":[
            {"incident_id":1,"layer":"L3","action":{"DrainLink":{"link":2,"alternates":1}}},
            {"incident_id":2,"layer":"L1","action":{"RetuneWavelength":
                {"wavelength":5,"from":"Qam16","to":"Qpsk"}}}]}"#;
        let out = check_str("p.json", dangling);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "artifact/dangling-link-ref"));

        // The declared layer must match the action kind's layer.
        let wrong_layer = r#"{"kind":"remediation-plan","components":["app-1"],
            "link_count":1,"wavelength_count":1,"actions":[
            {"incident_id":1,"layer":"L3","action":{"RestartComponent":{"component":"app-1"}}}]}"#;
        let out = check_str("p.json", wrong_layer);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/layer-order");

        // Incident ids are plan-unique.
        let dup = r#"{"kind":"remediation-plan","components":["app-1"],
            "link_count":1,"wavelength_count":1,"actions":[
            {"incident_id":1,"layer":"L7","action":{"RestartComponent":{"component":"app-1"}}},
            {"incident_id":1,"layer":"L7","action":{"RouteToTeam":{"team":"app"}}}]}"#;
        let out = check_str("p.json", dup);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/duplicate-id");

        // A malformed action gates on the real serde type.
        let bad = r#"{"kind":"remediation-plan","components":[],
            "link_count":0,"wavelength_count":0,"actions":[
            {"incident_id":1,"layer":"L7","action":{"Nuke":{"from":"orbit"}}}]}"#;
        let out = check_str("p.json", bad);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/unreadable");
    }

    #[test]
    fn campaign_locus_checks() {
        let campaign = |loci: &str| {
            format!(
                r#"{{"kind":"fault-campaign",
                "components":[{{"name":"app-1","team":"app"}}],
                "faults":[{{"id":0,"kind":"ServerCrash","target":"app-1",
                    "variant":0,"severity":0.5,"team":"app"}}],
                "link_count":2,"loci":{loci}}}"#
            )
        };
        // A single-kind campaign has a taxonomy gap; in-range loci add
        // nothing on top of it.
        let out = check_str("c.json", &campaign(r#"[{"fault":0,"link":1}]"#));
        assert!(out.iter().all(|d| d.rule == "artifact/taxonomy-gap"), "{out:?}");

        // A locus link beyond the declared population dangles.
        let out = check_str("c.json", &campaign(r#"[{"fault":0,"link":2}]"#));
        assert!(out.iter().any(|d| d.rule == "artifact/dangling-link-ref"), "{out:?}");

        // A locus annotating a fault id the campaign does not declare.
        let out = check_str("c.json", &campaign(r#"[{"fault":9,"link":0}]"#));
        assert!(out.iter().any(|d| d.rule == "artifact/unknown-fault-ref"), "{out:?}");
    }

    #[test]
    fn coverage_report_checks() {
        let report = |covered: u64, ratio: f64, cells: &str| {
            format!(
                r#"{{"kind":"coverage-report","campaign":"generated","campaign_seed":1,
                "n_faults":2,"total_cells":900,"reachable":2,"covered":{covered},
                "unreachable":898,"ratio":{ratio},"cells":{cells}}}"#
            )
        };
        let good_cells = r#"[
            {"kind":"ServerCrash","layer":"L7","locus":"none","rung":"full",
             "count":3,"status":"covered"},
            {"kind":"LinkFlap","layer":"L3","locus":"srlg-submarine","rung":"full",
             "count":0,"status":"uncovered"}]"#;
        let out = check_str("r.json", &report(1, 0.5, good_cells));
        assert!(out.is_empty(), "{out:?}");

        // An unknown fault kind in a cell row.
        let bad_kind = r#"[
            {"kind":"Gremlin","layer":"L7","locus":"none","rung":"full",
             "count":1,"status":"covered"},
            {"kind":"ServerCrash","layer":"L7","locus":"none","rung":"full",
             "count":1,"status":"covered"}]"#;
        let out = check_str("r.json", &report(1, 0.5, bad_kind));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/unknown-cell");

        // A covered cell that was never exercised contradicts its status.
        let uncounted = r#"[
            {"kind":"ServerCrash","layer":"L7","locus":"none","rung":"full",
             "count":0,"status":"covered"},
            {"kind":"LinkFlap","layer":"L3","locus":"none","rung":"full",
             "count":0,"status":"uncovered"}]"#;
        let out = check_str("r.json", &report(1, 0.5, uncounted));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/coverage-mismatch");

        // Summary tallies must agree with the rows: the declared covered
        // count exceeds the covered rows, and the ratio disagrees with
        // covered/reachable.
        let out = check_str("r.json", &report(2, 0.5, good_cells));
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "artifact/coverage-mismatch"));

        // The same cell listed twice is a duplicate.
        let dup = r#"[
            {"kind":"ServerCrash","layer":"L7","locus":"none","rung":"full",
             "count":1,"status":"covered"},
            {"kind":"ServerCrash","layer":"L7","locus":"none","rung":"full",
             "count":1,"status":"covered"}]"#;
        let out = check_str("r.json", &report(2, 1.0, dup));
        assert!(out.iter().any(|d| d.rule == "artifact/duplicate-id"), "{out:?}");
    }

    #[test]
    fn callgraph_checks() {
        let graph = |functions: &str, edges: &str, unresolved: &str, counts: &str| {
            format!(
                r#"{{"kind":"callgraph","schema":1,"functions":{functions},
                "edges":{edges},"unresolved":{unresolved},"counts":{counts}}}"#
            )
        };
        let fns = r#"[{"id":"core::a"},{"id":"core::b"}]"#;
        let good = graph(
            fns,
            "[[0,1,3],[1,0,9]]",
            r#"[{"caller":0,"name":"step","line":4,"candidates":[1]}]"#,
            r#"{"functions":2,"edges":2,"unresolved":1,"external":7}"#,
        );
        assert!(check_str("g.json", &good).is_empty(), "{:?}", check_str("g.json", &good));

        // Functions out of id order were not written by the canonical writer.
        let shuffled = graph(
            r#"[{"id":"core::b"},{"id":"core::a"}]"#,
            "[]",
            "[]",
            r#"{"functions":2,"edges":0,"unresolved":0,"external":0}"#,
        );
        let out = check_str("g.json", &shuffled);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/callgraph-order");

        // A repeated id is a duplicate, not just an order break.
        let dup = graph(
            r#"[{"id":"core::a"},{"id":"core::a"}]"#,
            "[]",
            "[]",
            r#"{"functions":2,"edges":0,"unresolved":0,"external":0}"#,
        );
        let out = check_str("g.json", &dup);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/duplicate-id");

        // Edge endpoints and unresolved candidates must index real nodes.
        let dangling = graph(
            fns,
            "[[0,2,3]]",
            r#"[{"caller":5,"name":"step","line":4,"candidates":[9]}]"#,
            r#"{"functions":2,"edges":1,"unresolved":1,"external":0}"#,
        );
        let out = check_str("g.json", &dangling);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "artifact/callgraph-ref"));

        // Edge order is part of the canonical contract.
        let disordered = graph(
            fns,
            "[[1,0,9],[0,1,3]]",
            "[]",
            r#"{"functions":2,"edges":2,"unresolved":0,"external":0}"#,
        );
        let out = check_str("g.json", &disordered);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/callgraph-order");

        // The counts block must agree with the arrays.
        let miscounted =
            graph(fns, "[]", "[]", r#"{"functions":3,"edges":0,"unresolved":0,"external":0}"#);
        let out = check_str("g.json", &miscounted);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/callgraph-count");

        // A missing external tally is a counts failure, not a pass.
        let no_external = graph(fns, "[]", "[]", r#"{"functions":2,"edges":0,"unresolved":0}"#);
        let out = check_str("g.json", &no_external);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/callgraph-count");

        // An unknown schema version is unreadable, not silently accepted.
        let v2 = good.replace("\"schema\":1", "\"schema\":2");
        let out = check_str("g.json", &v2);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/unreadable");

        // The real canonical writer round-trips clean through the checker.
        let g = crate::graph::build(
            &[(
                "crates/core/src/lib.rs".to_string(),
                "pub fn a() { b(); }\npub fn b() {}\n".to_string(),
            )],
            &crate::config::Config::default(),
        );
        let out = check_str("artifacts/callgraph.json", &g.to_canonical_json());
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn stack_checks() {
        let good = r#"{"kind":"stack","layers":["L1","L3","L7"],
            "wavelength_count":3,"link_count":2,"component_count":2,
            "l1_l3":[[0],[0,1],[1]],"l3_l7":[[0,1],[1]]}"#;
        assert!(check_str("s.json", good).is_empty(), "{:?}", check_str("s.json", good));

        // Layers out of propagation order.
        let reversed = r#"{"kind":"stack","layers":["L7","L3","L1"],
            "wavelength_count":1,"link_count":1,"component_count":1,
            "l1_l3":[[0]],"l3_l7":[[0]]}"#;
        let out = check_str("s.json", reversed);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/stack-layer-order");

        // An unknown layer name is also an order violation.
        let unknown = r#"{"kind":"stack","layers":["L1","L2","L7"],
            "wavelength_count":1,"link_count":1,"component_count":1,
            "l1_l3":[[0]],"l3_l7":[[0]]}"#;
        let out = check_str("s.json", unknown);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/stack-layer-order");

        // A wavelength referencing a link beyond the declared population.
        let dangling = r#"{"kind":"stack","layers":["L1","L3","L7"],
            "wavelength_count":2,"link_count":2,"component_count":1,
            "l1_l3":[[0],[2]],"l3_l7":[[0],[0]]}"#;
        let out = check_str("s.json", dangling);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/dangling-stack-ref");

        // Row count must equal the upper-layer population.
        let short = r#"{"kind":"stack","layers":["L1","L3","L7"],
            "wavelength_count":3,"link_count":1,"component_count":1,
            "l1_l3":[[0],[0]],"l3_l7":[[0]]}"#;
        let out = check_str("s.json", short);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/dangling-stack-ref");

        // Missing maps and populations are structural failures, not passes.
        let bare = r#"{"kind":"stack","layers":["L1","L3","L7"]}"#;
        let out = check_str("s.json", bare);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "artifact/unreadable");
    }
}
