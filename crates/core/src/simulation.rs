//! Continuous SMN operation: a day-by-day driver over all three control
//! loops.
//!
//! The paper's controller operates "several control loops over different
//! time granularities" (§2). [`SmnSimulation`] runs them against a living
//! substrate: every simulated day it generates bandwidth telemetry into
//! the CLDS, simulates wavelength flaps, occasionally injects an
//! application fault (driving the minutes-scale incident loop), and at the
//! planning cadence runs TE to refresh utilization history and invokes the
//! capacity planner. The run log is the audit trail an operator would see.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use smn_incident::faults::{generate_campaign, CampaignConfig};
use smn_incident::monitoring::materialize;
use smn_incident::sim::{observe, SimConfig};
use smn_incident::RedditDeployment;
use smn_te::demand::DemandMatrix;
use smn_te::mcf::{greedy_min_max_utilization, TeConfig};
use smn_telemetry::series::Statistic;
use smn_telemetry::time::{Ts, DAY, HOUR};
use smn_telemetry::traffic::TrafficModel;
use smn_topology::failures::{flap_counts, simulate_flaps};
use smn_topology::gen::Planetary;
use smn_topology::EdgeId;

use crate::controller::{ControllerConfig, Feedback, SmnController};

/// Simulation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Days to simulate.
    pub days: u64,
    /// Every `fault_every_days`, one fault from the campaign fires.
    pub fault_every_days: u64,
    /// Planning loop cadence in days.
    pub planning_every_days: u64,
    /// TE configuration used to derive utilization.
    pub te: TeConfig,
    /// Observation model for injected faults.
    pub incident_sim: SimConfig,
    /// Seed for flap simulation.
    pub flap_seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            days: 28,
            fault_every_days: 3,
            planning_every_days: 7,
            te: TeConfig { k_paths: 3, ..Default::default() },
            incident_sim: SimConfig::default(),
            flap_seed: 0xf1ab,
        }
    }
}

/// One day's events in the run log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DayLog {
    /// Day index.
    pub day: u64,
    /// Wavelength flap events that day.
    pub flaps: usize,
    /// Feedback emitted by the incident loop (empty on quiet days).
    pub incident_feedback: Vec<Feedback>,
    /// Ground-truth team of the injected fault, when one fired.
    pub injected_team: Option<String>,
    /// Feedback emitted by the planning loop (only on planning days).
    pub planning_feedback: Vec<Feedback>,
    /// Feedback emitted by the reliability loop (only on planning days).
    pub reliability_feedback: Vec<Feedback>,
}

/// Outcome of a full run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Per-day logs.
    pub days: Vec<DayLog>,
    /// Incidents correctly routed / incidents injected.
    pub routing_correct: usize,
    /// Total injected incidents.
    pub routing_total: usize,
    /// Total upgrades proposed.
    pub upgrades: usize,
    /// Total upgrades blocked by fiber.
    pub blocked: usize,
    /// Total retune recommendations.
    pub retunes: usize,
    /// Records in the CLDS at the end of the run.
    pub clds_records: usize,
}

impl SimulationReport {
    /// Routing accuracy over the run.
    #[must_use]
    pub fn routing_accuracy(&self) -> f64 {
        if self.routing_total == 0 {
            1.0
        } else {
            self.routing_correct as f64 / self.routing_total as f64
        }
    }
}

/// The continuous simulation.
pub struct SmnSimulation<'a> {
    /// The controller under test (owned CLDS inside).
    pub controller: SmnController,
    planetary: &'a Planetary,
    traffic: &'a TrafficModel,
    deployment: RedditDeployment,
    config: SimulationConfig,
}

impl<'a> SmnSimulation<'a> {
    /// Build a simulation over a network and traffic model. The CDG comes
    /// from the Reddit deployment (application incidents run against it).
    #[must_use]
    pub fn new(
        planetary: &'a Planetary,
        traffic: &'a TrafficModel,
        config: SimulationConfig,
    ) -> Self {
        let deployment = RedditDeployment::build();
        let controller = SmnController::new(deployment.cdg.clone(), ControllerConfig::default());
        Self { controller, planetary, traffic, deployment, config }
    }

    /// Run the configured number of days and return the report.
    // smn-lint: allow(deep/determinism-taint) -- the demand merge and the path search fork on a disabled handle, which reads no clock, and their results do not depend on the thread schedule
    pub fn run(&mut self) -> SimulationReport {
        let cfg = self.config.clone();
        let mut report = SimulationReport::default();
        // Fault schedule: cycle through a deterministic campaign.
        let campaign = generate_campaign(
            &self.deployment,
            &CampaignConfig {
                n_faults: (cfg.days / cfg.fault_every_days + 1) as usize,
                ..Default::default()
            },
        );
        let mut next_fault = 0usize;
        let flap_events = simulate_flaps(&self.planetary.optical, cfg.days, cfg.flap_seed);
        let mut utilization_history: BTreeMap<EdgeId, Vec<f64>> = BTreeMap::new();

        for day in 0..cfg.days {
            let mut log = DayLog { day, ..Default::default() };
            let day_start = Ts::from_days(day);

            // Telemetry: one sampled hour of bandwidth logs into the CLDS
            // (full-epoch ingestion is exercised by unit tests; sampling
            // keeps multi-week runs fast).
            let records = self.traffic.generate(day_start + 12 * HOUR, 12);
            self.controller.clds().bandwidth.write().extend(records);

            // L1 flaps.
            log.flaps = flap_events.iter().filter(|e| e.day == day).count();

            // Fault injection + the minutes-scale incident loop.
            if day % cfg.fault_every_days == 1 && next_fault < campaign.len() {
                let fault = &campaign[next_fault];
                next_fault += 1;
                let obs = observe(&self.deployment, fault, &cfg.incident_sim);
                let telemetry = materialize(&self.deployment, &obs, &cfg.incident_sim, day_start);
                {
                    let mut alerts = self.controller.clds().alerts.write();
                    let mut sorted = telemetry.alerts;
                    sorted.sort_by_key(|a| a.ts);
                    alerts.extend(sorted);
                }
                self.controller.clds().probes.write().extend(telemetry.probes);
                log.incident_feedback = self.controller.incident_loop(day_start, day_start + DAY);
                log.injected_team = Some(fault.team.clone());
                report.routing_total += 1;
                if let Some(Feedback::RouteIncident { team, .. }) = log.incident_feedback.first() {
                    if *team == fault.team {
                        report.routing_correct += 1;
                    }
                }
            }

            // Planning cadence: refresh utilization from the day's demand,
            // then run the planning and reliability loops.
            if day % cfg.planning_every_days == cfg.planning_every_days - 1 {
                let demand_records = self.traffic.generate(day_start + 12 * HOUR, 12);
                let demand = DemandMatrix::from_records(&demand_records, Statistic::P95);
                let solution = greedy_min_max_utilization(
                    &self.planetary.wan.graph,
                    |_, e| if e.payload.up { e.payload.capacity_gbps } else { 0.0 },
                    &demand,
                    &cfg.te,
                );
                for eid in self.planetary.wan.graph.edge_ids() {
                    utilization_history
                        .entry(eid)
                        .or_default()
                        .push(solution.utilization.get(&eid).copied().unwrap_or(0.0));
                }
                log.planning_feedback = self.controller.planning_loop(
                    &utilization_history,
                    |e| self.planetary.wan.graph.edge(e).payload.distance_km,
                    &self.planetary.optical,
                );
                let counts: BTreeMap<EdgeId, u32> = flap_counts(
                    &flap_events.iter().filter(|e| e.day <= day).cloned().collect::<Vec<_>>(),
                );
                log.reliability_feedback =
                    self.controller.reliability_loop(&counts, &self.planetary.optical);
            }

            report.upgrades += log
                .planning_feedback
                .iter()
                .filter(|f| matches!(f, Feedback::ProvisionCapacity { .. }))
                .count();
            report.blocked += log
                .planning_feedback
                .iter()
                .filter(|f| matches!(f, Feedback::UpgradeBlockedByFiber { .. }))
                .count();
            report.retunes += log.reliability_feedback.len();
            report.days.push(log);
        }
        report.clds_records = self.controller.clds().total_records();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_telemetry::traffic::TrafficConfig;
    use smn_topology::gen::{generate_planetary, PlanetaryConfig};

    fn quick_sim() -> SimulationReport {
        let planetary = generate_planetary(&PlanetaryConfig::small(7));
        let traffic = TrafficModel::new(&planetary.wan, TrafficConfig::default());
        let mut sim = SmnSimulation::new(
            &planetary,
            &traffic,
            SimulationConfig { days: 14, ..Default::default() },
        );
        sim.run()
    }

    #[test]
    fn run_produces_complete_log() {
        let report = quick_sim();
        assert_eq!(report.days.len(), 14);
        assert!(report.clds_records > 0);
        // Faults fire on days 1, 4, 7, 10, 13.
        assert_eq!(report.routing_total, 5);
        assert!(report.routing_accuracy() >= 0.2, "{}", report.routing_accuracy());
        // Planning/reliability feedback only appears on planning days.
        for d in &report.days {
            if d.day % 7 != 6 {
                assert!(d.planning_feedback.is_empty());
                assert!(d.reliability_feedback.is_empty());
            }
        }
    }

    #[test]
    fn incidents_recorded_in_clds() {
        let planetary = generate_planetary(&PlanetaryConfig::small(7));
        let traffic = TrafficModel::new(&planetary.wan, TrafficConfig::default());
        let mut sim = SmnSimulation::new(
            &planetary,
            &traffic,
            SimulationConfig { days: 10, ..Default::default() },
        );
        let report = sim.run();
        let incidents = sim.controller.clds().incidents.read();
        assert_eq!(incidents.len(), report.routing_total);
    }

    #[test]
    fn deterministic_runs() {
        let a = quick_sim();
        let b = quick_sim();
        assert_eq!(a.routing_correct, b.routing_correct);
        assert_eq!(a.upgrades, b.upgrades);
        assert_eq!(a.clds_records, b.clds_records);
    }
}
