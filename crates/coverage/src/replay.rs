//! Campaign replay with exercised-cell extraction.
//!
//! Coverage is measured on what a run *did*, not what the campaign file
//! *says*: every fault window is replayed through the real controller
//! (`SmnController::incident_loop`) with an enabled smn-obs audit trail,
//! control-plane faults are realized as actual lake outages and
//! checkpoint-restored crashes, and the exercised cell of each window is
//! read back out of the audit records — the degradation rung from the
//! `degrade` decisions, routing from `route-incident`, crash recovery
//! from the supervisor's `crash-restore`. A campaign that *specifies* a
//! locus the stack descent does not reproduce, or a rung the lake never
//! actually forced, gets no credit for it.

use std::collections::BTreeMap;

use smn_core::controller::{ControllerConfig, SmnController};
use smn_datalake::fault::{FaultProfile, FaultyStore, DATASET_ALERTS, DATASET_PROBES};
use smn_datalake::store::Clds;
use smn_incident::faults::{FaultKind, FaultSpec};
use smn_incident::monitoring::materialize;
use smn_incident::sim::{observe, SimConfig};
use smn_incident::{DeploymentStack, RedditDeployment};
use smn_obs::audit::AuditRecord;
use smn_obs::clock::SimClock;
use smn_obs::Obs;
use smn_telemetry::chaos::{ChaosConfig, ChaosInjector};
use smn_telemetry::det::{fnv1a, FNV_OFFSET};
use smn_telemetry::time::{Ts, HOUR};
use smn_topology::{EdgeId, StackFault};

use crate::lattice::{layer_of_target, FaultLattice, LatticeCell, LocusBucket, Rung};
use crate::map::CoverageMap;

/// Ambient control-plane conditions a campaign is replayed under. The
/// default is clean — the coverage gate's configuration; the bench sweep
/// replays under the five chaos profiles.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Chaos applied to materialized alerts + probes before ingest.
    pub chaos: Option<ChaosConfig>,
    /// Ambient fault profile on the controller's data lake (per-fault
    /// control-plane outages are layered on top).
    pub lake: FaultProfile,
    /// Ambient crash + checkpoint-restore every N faults.
    pub crash_every: Option<usize>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { chaos: None, lake: FaultProfile::reliable(), crash_every: None }
    }
}

/// What one campaign replay exercised and decided.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Exercised lattice cells, from the audit trail.
    pub map: CoverageMap,
    /// Faults replayed.
    pub total: usize,
    /// Windows routed to the fault's ground-truth team.
    pub routed_correct: usize,
    /// Windows that emitted at least one `Degraded` decision.
    pub degraded_windows: usize,
    /// Controller crash-restores (fault-driven plus ambient).
    pub crashes: usize,
    /// Per-window routing decision, campaign order.
    pub routed: Vec<Option<String>>,
    /// FNV-1a over the routing decisions: the determinism fingerprint.
    pub outcome_hash: u64,
}

/// The lake profile a campaign's control-plane faults force: each
/// `TelemetryLoss` fault blinds exactly one syndrome source for its own
/// window (even variants the alerts stream, odd variants the probes), and
/// each `LakePartition` fault takes the whole lake offline for its window.
#[must_use]
pub fn campaign_lake_profile(base: &FaultProfile, faults: &[FaultSpec]) -> FaultProfile {
    let mut profile = base.clone();
    for (i, fault) in faults.iter().enumerate() {
        let start = Ts(i as u64 * HOUR);
        let end = start + HOUR;
        match fault.kind {
            FaultKind::TelemetryLoss => {
                let dataset = if fault.variant % 2 == 0 { DATASET_ALERTS } else { DATASET_PROBES };
                profile = profile.with_dataset_outage(dataset, start, end);
            }
            FaultKind::LakePartition => {
                profile = profile.with_outage(start, end);
            }
            _ => {}
        }
    }
    profile
}

/// Per-window facts recovered from the audit trail.
struct WindowAudit {
    rung: Rung,
    routed: Option<String>,
    crashed: bool,
}

fn window_audits(jsonl: &str) -> BTreeMap<u64, WindowAudit> {
    let mut windows: BTreeMap<u64, WindowAudit> = BTreeMap::new();
    for line in jsonl.lines() {
        let Ok(rec) = AuditRecord::from_json_line(line) else { continue };
        let w = windows.entry(rec.ts).or_insert(WindowAudit {
            rung: Rung::Full,
            routed: None,
            crashed: false,
        });
        let evidence = |key: &str| rec.evidence.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        match rec.action.as_str() {
            // The incident loop may degrade twice in one window (alerts
            // then probes); the last record is the rung the window
            // actually settled on.
            "degrade" if rec.actor == "controller/incident" => {
                if let Some(r) = evidence("to").and_then(|to| Rung::from_degrade_target(to)) {
                    w.rung = r;
                }
            }
            "route-incident" if w.routed.is_none() => {
                w.routed = evidence("team").cloned();
            }
            "crash-restore" => w.crashed = true,
            _ => {}
        }
    }
    windows
}

/// The locus bucket a fault's window actually exercised: its claimed
/// locus link must descend through the stack onto the fault's own target,
/// otherwise the locus was specified but not reproduced and the window
/// only counts for the no-locus column.
#[must_use]
pub fn exercised_locus(
    d: &RedditDeployment,
    ds: &DeploymentStack,
    lattice: &FaultLattice,
    fault: &FaultSpec,
    locus: Option<EdgeId>,
) -> LocusBucket {
    let Some(link) = locus else { return LocusBucket::None };
    if !ds.descend_targets(d, StackFault::LinkDown(link)).contains(&fault.target) {
        return LocusBucket::None;
    }
    lattice.loci().bucket(link).unwrap_or(LocusBucket::None)
}

/// Replay `faults` through the controller and extract the exercised
/// coverage map from the audit trail. `loci` maps fault ids to claimed
/// topology locus links (the generator's annotations); faults absent from
/// it exercise the no-locus column.
#[must_use]
#[allow(clippy::too_many_lines, reason = "one linear pass: ingest, loop, crash, account")]
pub fn replay_campaign(
    d: &RedditDeployment,
    ds: &DeploymentStack,
    lattice: &FaultLattice,
    faults: &[FaultSpec],
    loci: &[(u64, EdgeId)],
    sim: &SimConfig,
    cfg: &ReplayConfig,
) -> ReplayOutcome {
    let locus_of: BTreeMap<u64, EdgeId> = loci.iter().copied().collect();
    let clock = SimClock::new();
    let obs = Obs::enabled(clock.clone());

    let mut controller = SmnController::with_lake(
        FaultyStore::new(Clds::new(), campaign_lake_profile(&cfg.lake, faults)),
        d.cdg.clone(),
        ControllerConfig::default(),
    );
    controller.set_obs(obs.clone());
    let mut injector: Option<ChaosInjector> =
        cfg.chaos.clone().map(|c| ChaosInjector::new(c).with_obs(obs.clone()));

    let mut crashes = 0usize;
    for (i, fault) in faults.iter().enumerate() {
        let start = Ts(i as u64 * HOUR);
        clock.set(start.0);
        let incident = observe(d, fault, sim);
        let telemetry = materialize(d, &incident, sim, start);

        let (mut alerts, mut probes) = (telemetry.alerts, telemetry.probes);
        if let Some(inj) = injector.as_mut() {
            alerts = inj.apply(&alerts).records;
            probes = inj.apply(&probes).records;
        }
        alerts.sort_by_key(|a| a.ts);
        probes.sort_by_key(|r| r.ts);
        controller.clds().alerts.write().extend(alerts);
        controller.clds().probes.write().extend(probes);
        controller.clds().health.write().extend(telemetry.health);

        let _ = controller.incident_loop(start, start + HOUR);

        // A ControllerCrash fault kills the controller after its own
        // window; ambient profiles also crash every N faults. Restore
        // goes through serde, as a supervisor restart would; a failed
        // round-trip leaves the controller running (and the cell
        // honestly uncovered) rather than panicking.
        let fault_crash = fault.kind == FaultKind::ControllerCrash;
        let ambient_crash =
            cfg.crash_every.is_some_and(|n| (i + 1) % n == 0 && i + 1 < faults.len());
        if fault_crash || ambient_crash {
            if let Ok(snapshot) = serde_json::to_string(&controller.checkpoint()) {
                if let Ok(cp) = serde_json::from_str(&snapshot) {
                    let cdg = controller.cdg.clone();
                    controller = SmnController::restore(controller.into_lake(), cdg, cp);
                    controller.set_obs(obs.clone());
                    crashes += 1;
                    obs.audit(
                        "supervisor",
                        "crash-restore",
                        &[
                            ("campaign_fault", fault.id.to_string()),
                            ("after_fault", (i + 1).to_string()),
                        ],
                    );
                }
            }
        }
    }

    // Read the exercised cells back out of the audit trail.
    let windows = window_audits(&obs.audit_jsonl());
    let mut outcome = ReplayOutcome {
        map: CoverageMap::new(),
        total: faults.len(),
        routed_correct: 0,
        degraded_windows: 0,
        crashes,
        routed: Vec::with_capacity(faults.len()),
        outcome_hash: FNV_OFFSET,
    };
    for (i, fault) in faults.iter().enumerate() {
        let w = windows.get(&(i as u64 * HOUR));
        let rung = w.map_or(Rung::Full, |w| w.rung);
        let routed = w.and_then(|w| w.routed.clone());
        let crash_restored = w.is_some_and(|w| w.crashed);
        if rung != Rung::Full {
            outcome.degraded_windows += 1;
        }
        if routed.as_deref() == Some(fault.team.as_str()) {
            outcome.routed_correct += 1;
        }
        fnv1a(&mut outcome.outcome_hash, routed.as_deref().unwrap_or("-").as_bytes());

        let Some(layer) = layer_of_target(d, &fault.target) else {
            outcome.routed.push(routed);
            continue;
        };
        let locus = exercised_locus(d, ds, lattice, fault, locus_of.get(&fault.id).copied());
        let (exercised, cell_rung) = match fault.kind {
            // Blinding faults are exercised when the controller actually
            // stepped down — the rung is the evidence.
            FaultKind::TelemetryLoss => (matches!(rung, Rung::ProbesOnly | Rung::AlertsOnly), rung),
            FaultKind::LakePartition => (rung == Rung::Skipped, rung),
            // A crash fault is exercised when the supervisor actually
            // restored from checkpoint; the window itself ran at full
            // sight.
            FaultKind::ControllerCrash => (crash_restored, Rung::Full),
            // A workload fault is exercised when the window produced a
            // routed incident; the rung records the controller state it
            // was routed under (non-full only under ambient chaos).
            _ => (routed.is_some(), rung),
        };
        if exercised {
            outcome.map.record(LatticeCell { kind: fault.kind, layer, locus, rung: cell_rung });
        }
        outcome.routed.push(routed);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_incident::faults::{generate_campaign, CampaignConfig};
    use smn_topology::gen::{generate_planetary, PlanetaryConfig};

    fn world() -> (RedditDeployment, DeploymentStack, FaultLattice) {
        let d = RedditDeployment::build();
        let p = generate_planetary(&PlanetaryConfig::small(7));
        let ds = DeploymentStack::bind(&d, p.optical, p.wan);
        let lattice = FaultLattice::build(&d, &ds);
        (d, ds, lattice)
    }

    #[test]
    fn campaign_lake_profile_scopes_outages_to_fault_windows() {
        let d = RedditDeployment::build();
        let cfg = CampaignConfig { n_faults: 40, control_plane: true, ..CampaignConfig::default() };
        let faults = generate_campaign(&d, &cfg);
        let profile = campaign_lake_profile(&FaultProfile::reliable(), &faults);
        let telemetry_faults = faults.iter().filter(|f| f.kind == FaultKind::TelemetryLoss).count();
        let lake_faults = faults.iter().filter(|f| f.kind == FaultKind::LakePartition).count();
        assert_eq!(profile.dataset_outages.len(), telemetry_faults);
        assert_eq!(profile.outages.len(), lake_faults);
    }

    #[test]
    fn clean_replay_of_a_small_workload_campaign_covers_and_reproduces() {
        let (d, ds, lattice) = world();
        let faults =
            generate_campaign(&d, &CampaignConfig { n_faults: 30, ..CampaignConfig::default() });
        let sim = SimConfig::default();
        let a = replay_campaign(&d, &ds, &lattice, &faults, &[], &sim, &ReplayConfig::default());
        let b = replay_campaign(&d, &ds, &lattice, &faults, &[], &sim, &ReplayConfig::default());
        assert_eq!(a.outcome_hash, b.outcome_hash, "replay must be deterministic");
        assert_eq!(a.map, b.map, "exercised cells must be deterministic");
        assert!(!a.map.is_empty(), "a routed campaign exercises cells");
        assert_eq!(a.degraded_windows, 0, "clean ambient profile never degrades");
        assert!(a.routed_correct > 0);
    }

    #[test]
    fn unreproduced_locus_claims_fall_back_to_the_no_locus_column() {
        let (d, ds, lattice) = world();
        let fault = FaultSpec {
            id: 7,
            kind: FaultKind::MemoryLeak,
            target: "memcached-1".to_string(),
            variant: 0,
            severity: 0.6,
            team: "cache".to_string(),
        };
        // memcached-1 is not a stack-descent target, so any claimed link
        // locus is specified-but-not-exercised.
        let locus = exercised_locus(&d, &ds, &lattice, &fault, Some(EdgeId(0)));
        assert_eq!(locus, LocusBucket::None);
    }
}
