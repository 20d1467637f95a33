//! Regenerate the checked-in `artifacts/` corpus from the workspace's own
//! types, so the artifact engine always validates real serialized state:
//!
//! ```console
//! cargo run -p smn-lint --example gen_artifacts
//! ```
//!
//! Each artifact is its owner type, serialized. Emits eight — the Reddit
//! CDG, the small planetary topology with its optical underlay and SRLGs,
//! the 560-fault campaign, the by-region coarsening, the unified
//! L1→L3→L7 layer stack, the heal engine's remediation plan for the
//! campaign head, the coverage-guided generated campaign with its
//! topology-locus annotations, and the coverage report of its clean
//! replay — into `<workspace>/artifacts/`.

use serde::Serialize;
use smn_depgraph::coarse::CdgArtifact;
use smn_heal::{PlannedAction, RemediationPlan};
use smn_incident::faults::CampaignArtifact;
use smn_te::srlg::TopologyArtifact;

fn write(root: &std::path::Path, name: &str, artifact: &impl Serialize) -> Result<(), String> {
    let path = root.join("artifacts").join(name);
    let text =
        serde_json::to_string_pretty(artifact).map_err(|e| format!("serialize {name}: {e:?}"))?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> Result<(), String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = smn_lint::find_workspace_root(&cwd)
        .ok_or_else(|| "no workspace root above cwd".to_string())?;
    std::fs::create_dir_all(root.join("artifacts"))
        .map_err(|e| format!("create artifacts/: {e}"))?;

    // 1. The Reddit CDG: fine dependency graph plus its coarse derivation.
    let d = smn_incident::RedditDeployment::build();
    let cdg =
        CdgArtifact { kind: "cdg".to_string(), fine: d.fine.clone(), coarse: Some(d.cdg.clone()) };
    write(&root, "reddit_cdg.json", &cdg)?;

    // 2. The small planetary WAN with optical underlay and derived SRLGs.
    let p = smn_topology::gen::generate_planetary(&smn_topology::gen::PlanetaryConfig::small(7));
    let topology = TopologyArtifact {
        kind: "topology".to_string(),
        wan: p.wan.clone(),
        optical: Some(p.optical.clone()),
        srlgs: Some(smn_te::srlg::extract_srlgs(&p.optical)),
    };
    write(&root, "planetary_small_topology.json", &topology)?;

    // 3. The 560-fault campaign over the Reddit deployment, with the
    //    component ownership table its targets are checked against.
    let campaign = smn_incident::faults::generate_campaign(
        &d,
        &smn_incident::faults::CampaignConfig::default(),
    );
    write(&root, "campaign_560.json", &CampaignArtifact::new(&d.fine, campaign.clone()))?;

    // 4. The by-region coarsening of the planetary WAN as a partition.
    let contraction = p.wan.contract_by_region();
    write(&root, "region_coarsening.json", &contraction.partition())?;

    // 5. The unified layer stack bound over the same planetary network and
    //    Reddit deployment: layer order plus both cross-layer maps.
    let ds = smn_incident::DeploymentStack::bind(&d, p.optical, p.wan);
    let stack = ds.stack();
    let shape = stack.shape();
    write(&root, "planetary_stack.json", &shape)?;

    // 6. A remediation plan: what the heal engine would do for the head of
    //    the campaign, given perfect routing. Reuses the by-region
    //    contraction from step 4 (same WAN).
    let sim = smn_incident::sim::SimConfig::default();
    let world = smn_heal::HealWorld { deployment: &d, stack, contraction: &contraction, sim: &sim };
    let cfg = smn_heal::HealConfig::default();
    let state = smn_heal::NetworkState::default();
    let actions = campaign
        .iter()
        .take(16)
        .map(|fault| {
            let obs = smn_incident::sim::observe(&d, fault, &sim);
            let diag = smn_heal::Diagnosis::from_observation(&d, &obs, &fault.team, 0.9);
            let action = smn_heal::plan_action(&world, &diag, &state, &cfg);
            PlannedAction { incident_id: fault.id, layer: action.layer(), action }
        })
        .collect();
    let plan = RemediationPlan {
        kind: "remediation-plan".to_string(),
        components: d.fine.graph.nodes().map(|(_, c)| c.name.clone()).collect(),
        link_count: shape.link_count,
        wavelength_count: shape.wavelength_count,
        actions,
    };
    write(&root, "remediation_plan.json", &plan)?;

    // 7. The coverage-guided generated campaign: one fault per reachable
    //    lattice cell, with its topology-locus annotations.
    let lattice = smn_coverage::FaultLattice::build(&d, &ds);
    let generated = smn_coverage::generate_covering_campaign(
        &d,
        &ds,
        &lattice,
        &smn_coverage::GeneratorConfig::default(),
    );
    write(&root, "generated_campaign.json", &generated.to_artifact(&d))?;

    // 8. The coverage report of that campaign's clean replay — exercised
    //    cells from the audit trail, not the spec.
    let outcome = smn_coverage::replay_campaign(
        &d,
        &ds,
        &lattice,
        &generated.faults,
        &generated.loci,
        &sim,
        &smn_coverage::ReplayConfig::default(),
    );
    let report = smn_coverage::CoverageReport::build(
        "generated",
        smn_coverage::GeneratorConfig::default().seed,
        generated.faults.len(),
        &lattice,
        &outcome.map,
    );
    write(&root, "coverage_report.json", &report.to_artifact())?;

    Ok(())
}
