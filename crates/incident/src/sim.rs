//! Fault propagation and noisy observation.
//!
//! Given a [`FaultSpec`], the simulator propagates symptom intensity through
//! the fine-grained dependency graph (the ground truth the SMN does *not*
//! have) and then produces what monitoring *can* see: noisy per-component
//! health-metric deviations, alert flags, and pairwise reachability probes
//! between the two application-server clusters at 1-minute intervals (§5).
//!
//! The propagation model captures the two phenomena the paper's result
//! rests on:
//!
//! * **fan-out cause→effect** — "a failure in a lower layer causes multiple
//!   failures in the higher layer", the confounder that defeats distributed
//!   approaches: a hypervisor or switch fault degrades many components of
//!   many teams at comparable measured intensity;
//! * **partial propagation / false dependencies** — each dependency edge is
//!   probabilistically gated per incident (the paper's hypervisor example:
//!   only certain writes to the user-profile cache are affected), so the
//!   observed syndrome is a noisy subset of the CDG closure.
//!
//! Everything is a pure function of `(fault, seed)` via hash-based variates.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use serde::{Deserialize, Serialize};
use smn_depgraph::fine::DependencyKind;
use smn_depgraph::syndrome::Syndrome;
use smn_telemetry::det::{mix, std_normal, uniform01};

use crate::app::{team_index, RedditDeployment, TEAMS};
use crate::faults::{FaultKind, FaultSpec};

/// Observation-model parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Seed for all observation noise.
    pub seed: u64,
    /// Probability an edge transmits symptoms at all (scaled per kind).
    pub gate_probability: f64,
    /// Lower bound of the per-edge attenuation multiplier (upper is 1.0).
    pub attenuation_floor: f64,
    /// Std-dev of additive measurement noise on deviations.
    pub measurement_noise: f64,
    /// Probability an unaffected component shows a false symptom.
    pub false_symptom_probability: f64,
    /// Measured deviation above this raises an alert.
    pub alert_threshold: f64,
    /// Number of 1-minute monitoring ticks in the incident window.
    pub window_minutes: u32,
    /// Log-std of the per-incident ambient load multiplier applied to all
    /// exported metric values.
    pub load_sigma: f64,
    /// Mean of the per-(team, incident) exponential baseline offset added
    /// to exported metric values. Teams alert *relative to their own
    /// baseline*, so alerts (and the syndrome) are unaffected — but raw
    /// cross-team magnitude comparisons, which the distributed baseline and
    /// the internal-only router lean on, are corrupted. This models the
    /// heterogeneous, drifting baselines of real team dashboards.
    pub team_offset_scale: f64,
    /// Log-std of each team's local alert-threshold drift (per incident
    /// period). Zero means every team alerts exactly like the SMN's
    /// calibrated threshold.
    pub local_threshold_drift: f64,
    /// Strength of *back-pressure*: a distressed dependent sends elevated
    /// load (retry storms, reconnect floods) down to the things it depends
    /// on. Back-pressure raises lower layers' continuous utilization
    /// metrics — so a bottom-layer team's dashboard is elevated during
    /// many incidents that are not its fault — but is capped below the
    /// failure-alert threshold, so it does not flip syndrome bits.
    pub backpressure: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x0b5e,
            gate_probability: 0.95,
            attenuation_floor: 0.85,
            measurement_noise: 0.12,
            false_symptom_probability: 0.02,
            alert_threshold: 0.3,
            window_minutes: 30,
            load_sigma: 0.4,
            team_offset_scale: 0.2,
            local_threshold_drift: 0.25,
            backpressure: 0.45,
        }
    }
}

/// What monitoring records for one component over the incident window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentObservation {
    /// Mean error-rate deviation over the window (0 = baseline).
    pub error_dev: f64,
    /// Mean latency deviation over the window.
    pub latency_dev: f64,
    /// Fractional throughput collapse in `[0, 1]` (1 = flatlined). A dead
    /// component's drop is near-total; its neighbors' drops are partial.
    /// Locally ambiguous (a drop can mean "I died" or "my callers
    /// stopped"), centrally rankable.
    pub throughput_drop: f64,
    /// Whether the SMN's *normalized* alert fired: the CLDS ingests every
    /// team's telemetry under a uniform schema and applies one denoised,
    /// calibrated threshold (§6: "denoise telemetry and logs on injection
    /// into the data lake", "a uniform schema"). Syndrome bits come from
    /// this.
    pub alerting: bool,
    /// Whether the component's *team-local* alert fired. Teams tune their
    /// own thresholds, which drift (per-team, per-period): local alert
    /// streams are therefore inconsistent across teams — the raw material
    /// available without an SMN.
    pub local_alerting: bool,
}

/// Everything observable about one incident.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncidentObservation {
    /// The fault that caused it (carried for labeling; not a feature).
    pub fault: FaultSpec,
    /// Ground-truth propagated intensity per fine component (diagnostics
    /// only — the SMN never sees this).
    pub true_intensity: Vec<f64>,
    /// Per-component noisy observations, indexed like the fine graph.
    pub components: Vec<ComponentObservation>,
    /// Failure rate of cross-cluster reachability probes in `[0, 1]`.
    pub cross_probe_failure: f64,
    /// Failure rate of intra-cluster probes.
    pub intra_probe_failure: f64,
    /// Minute (from incident start) of each team's first alert, in
    /// [`TEAMS`] order; `window_minutes + 1` when the team never alerted.
    /// Cascades spread outward from the root, so alert order carries
    /// causal information — but only a consumer with a global event stream
    /// can compare times across teams.
    pub first_alert_minute: Vec<f64>,
    /// Team-level syndrome: fraction of each team's components alerting.
    pub syndrome: Syndrome,
}

impl FaultKind {
    /// Scale on the base gate probability: how reliably this fault's
    /// symptoms cross a dependency edge.
    fn gate_scale(self) -> f64 {
        match self {
            FaultKind::HypervisorFailure | FaultKind::ServerCrash | FaultKind::LinkFlap => 1.0,
            FaultKind::FirewallRule | FaultKind::PacketLoss => 0.9,
            FaultKind::MemoryLeak => 0.7,
            FaultKind::CacheEvictionStorm => 0.8,
            _ => 0.85,
        }
    }

    /// Whether the fault hard-kills its target: the dead component stops
    /// exporting meaningful metrics ("dead men send no telemetry"), but its
    /// owning team receives a *liveness* alert, so the team still shows a
    /// binary symptom. Crash-class faults are therefore quiet in magnitude
    /// space and loud in syndrome space.
    ///
    /// Public because the healing engine (smn-heal) must model the same
    /// distinction: a restart clears the crash itself, leaving at most a
    /// soft residual, so its effect model rewrites the kind on cure.
    #[must_use]
    pub fn is_hard_crash(self) -> bool {
        matches!(self, FaultKind::ServerCrash | FaultKind::HypervisorFailure | FaultKind::LinkFlap)
    }

    /// How visible the fault is in the *root component's own* health
    /// metrics, as a `(lo, hi)` multiplier range sampled per incident.
    ///
    /// This is the crux of the paper's confounder: a faulty firewall rule
    /// drops other teams' flows while the firewall's own counters look
    /// normal, and a failing hypervisor degrades its guests more than its
    /// own telemetry. When the root is quiet, "route to the loudest team"
    /// fails, and only the *pattern* of victims (the CDG syndrome)
    /// identifies the culprit.
    fn root_visibility(self) -> (f64, f64) {
        match self {
            FaultKind::HypervisorFailure => (0.3, 0.8),
            FaultKind::ServerCrash => (0.9, 1.1),
            FaultKind::BadTimeout => (0.9, 1.1),
            FaultKind::FirewallRule => (0.15, 0.5),
            FaultKind::PacketLoss => (0.2, 0.55),
            FaultKind::DiskPressure => (0.8, 1.1),
            FaultKind::MemoryLeak => (0.9, 1.1),
            FaultKind::ConfigError => (0.6, 1.0),
            FaultKind::CacheEvictionStorm => (0.9, 1.1),
            FaultKind::QueueBacklog => (0.9, 1.1),
            FaultKind::LinkFlap => (0.25, 0.6),
            FaultKind::CertExpiry => (0.6, 1.0),
            // Control-plane faults never reach `observe` (no deployment
            // targets); give them no root visibility if one ever does.
            FaultKind::TelemetryLoss | FaultKind::LakePartition | FaultKind::ControllerCrash => {
                (0.0, 0.0)
            }
        }
    }
}

/// Propagate `fault` through the deployment's fine dependency graph.
/// Returns per-component symptom intensity in `[0, 1]`.
#[must_use]
pub fn propagate(d: &RedditDeployment, fault: &FaultSpec, cfg: &SimConfig) -> Vec<f64> {
    let g = &d.fine.graph;
    let n = g.node_count();
    let mut intensity = vec![0.0f64; n];
    // A fault targeting an unknown component injects nothing.
    let Some(root) = d.fine.by_name(&fault.target) else { return intensity };
    intensity[root.index()] = fault.severity;
    let strength = fault.kind.propagation_strength();
    let gate_p = (cfg.gate_probability * fault.kind.gate_scale()).min(1.0);
    // Relax along reverse edges (dependent receives from dependency) until
    // fixpoint; the graph is a DAG so passes are bounded by its depth.
    for _pass in 0..n {
        let mut changed = false;
        for (eid, edge) in g.edges() {
            let from = intensity[edge.dst.index()]; // the dependency
            if from <= 0.0 {
                continue;
            }
            let h = mix(&[cfg.seed, fault.id, 0xED6E, eid.index() as u64]);
            let gated = uniform01(h) < gate_p;
            if !gated {
                continue;
            }
            // Hosting faults hit harder than call-path degradation.
            let kind_factor = match edge.payload {
                DependencyKind::Hosting => 1.0,
                DependencyKind::Call => 0.95,
                DependencyKind::Network => 0.9,
                DependencyKind::Observes => 1.0,
            };
            let atten =
                cfg.attenuation_floor + (1.0 - cfg.attenuation_floor) * uniform01(mix(&[h, 1]));
            let new = (from * strength * kind_factor * atten).min(1.0);
            if new > intensity[edge.src.index()] + 1e-12 {
                intensity[edge.src.index()] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    intensity
}

/// Back-pressure field: distress flowing *down* dependency edges (from the
/// dependent to the dependency), decaying per hop. Returned separately from
/// the failure intensity; callers cap it below the alert threshold when
/// mixing it into observed metrics.
#[must_use]
pub fn backpressure(
    d: &RedditDeployment,
    fault: &FaultSpec,
    cfg: &SimConfig,
    intensity: &[f64],
) -> Vec<f64> {
    let g = &d.fine.graph;
    let n = g.node_count();
    let mut bp = vec![0.0f64; n];
    for _pass in 0..n {
        let mut changed = false;
        for (eid, edge) in g.edges() {
            // Source of pressure: the dependent's total distress.
            let from = intensity[edge.src.index()].max(bp[edge.src.index()]);
            if from <= 0.0 {
                continue;
            }
            let h = mix(&[cfg.seed, fault.id, 0xb9, eid.index() as u64]);
            let decay = cfg.backpressure * (0.6 + 0.4 * uniform01(h));
            let new = from * decay;
            if new > bp[edge.dst.index()] + 1e-9 {
                bp[edge.dst.index()] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    bp
}

/// Observe an incident: propagate, then add measurement noise, false
/// symptoms, probe outcomes, and derive the team syndrome.
#[must_use]
pub fn observe(d: &RedditDeployment, fault: &FaultSpec, cfg: &SimConfig) -> IncidentObservation {
    let true_intensity = propagate(d, fault, cfg);
    let bp = backpressure(d, fault, cfg, &true_intensity);
    let n = true_intensity.len();
    // Unknown target (never the case for generated campaigns): no
    // component is the root, so nothing gets root visibility.
    let root_index = d.fine.by_name(&fault.target).map_or(usize::MAX, smn_topology::NodeId::index);
    // Root observability: sampled once per incident from the kind's range.
    // Hard crashes export almost nothing from the dead component.
    let (vis_lo, vis_hi) =
        if fault.kind.is_hard_crash() { (0.05, 0.3) } else { fault.kind.root_visibility() };
    let root_vis = vis_lo + (vis_hi - vis_lo) * uniform01(mix(&[cfg.seed, fault.id, 0x4015]));
    // Ambient load level: a per-incident multiplicative scale on every
    // measured deviation (traffic varies across incidents). Raw-magnitude
    // features are corrupted by it; the cosine syndrome direction is not.
    let load = smn_telemetry::det::lognormal_multiplier(
        mix(&[cfg.seed, fault.id, 0x10ad]),
        cfg.load_sigma,
    );
    // Per-(team, incident) baseline offsets for exported metric values.
    let team_offset: Vec<f64> = (0..TEAMS.len() as u64)
        .map(|ti| {
            let u = uniform01(mix(&[cfg.seed, fault.id, 0x0ff5, ti]));
            -(1.0 - u).ln() * cfg.team_offset_scale
        })
        .collect();
    let mut components = Vec::with_capacity(n);
    for i in 0..n {
        // Components outside the static TEAMS list carry no team offset and
        // salt the per-team hashes with an out-of-range index.
        let comp_team = team_index(&d.fine.component(smn_topology::NodeId(i as u32)).team)
            .unwrap_or(usize::MAX);
        let offset = team_offset.get(comp_team).copied().unwrap_or(0.0);
        let h = mix(&[cfg.seed, fault.id, 0x0b5e, i as u64]);
        // Per-component amplification scrambles the intensity ordering:
        // a victim can measure *worse* than the root (retry storms amplify
        // downstream symptoms).
        let amp = 0.75 + 0.6 * uniform01(mix(&[h, 1]));
        let visibility = if i == root_index { root_vis } else { 1.0 };
        // Back-pressure elevates continuous metrics but stays sub-alert.
        let pressure = (bp[i] * amp).min(cfg.alert_threshold * 0.65);
        let base = (true_intensity[i] * visibility * amp).max(pressure);
        // False symptom on otherwise-healthy components.
        let false_sym = if true_intensity[i] < 0.05
            && uniform01(mix(&[h, 2])) < cfg.false_symptom_probability
        {
            0.25 + 0.3 * uniform01(mix(&[h, 3]))
        } else {
            0.0
        };
        let raw_error =
            (base + false_sym + cfg.measurement_noise * std_normal(mix(&[h, 4]))).max(0.0);
        let raw_latency = (base * (0.8 + 0.4 * uniform01(mix(&[h, 5])))
            + false_sym * 0.8
            + cfg.measurement_noise * std_normal(mix(&[h, 6])))
        .max(0.0);
        // Alert rules are *sustained* conditions (N consecutive minutes
        // over threshold), so they average out most instantaneous
        // measurement noise — the alert decision sees the windowed
        // deviation with attenuated noise, relative to the team's own
        // baseline and load. Exported dashboard values keep the full noise
        // plus the load scale and baseline offset.
        let alert_noise = 0.35 * cfg.measurement_noise * std_normal(mix(&[h, 7]));
        let windowed = base + false_sym + alert_noise;
        let mut alerting = windowed > cfg.alert_threshold;
        // Liveness page: the CLDS learns a component died even though the
        // dead component's metric exports are quiet. (Pages flow into the
        // centralized incident stream; they are not part of the per-team
        // health-metric dashboards the routers' raw features read.)
        if i == root_index && fault.kind.is_hard_crash() {
            alerting = true;
        }
        // Team-local alert: same windowed deviation, but against the
        // team's own drifted threshold.
        let local_threshold = cfg.alert_threshold
            * smn_telemetry::det::lognormal_multiplier(
                mix(&[cfg.seed, fault.id, 0x7d, comp_team as u64]),
                cfg.local_threshold_drift,
            );
        let local_alerting = windowed > local_threshold;
        // Throughput collapse: near-total at a dead root, partial and
        // noisy at everything the fault touches.
        let drop_factor = if i == root_index {
            if fault.kind.is_hard_crash() {
                // The dead root's collapse is severe but sampled, not
                // pegged: health checks still see residual cached traffic.
                0.85 + 0.35 * uniform01(mix(&[h, 8]))
            } else {
                root_vis * (0.6 + 0.4 * uniform01(mix(&[h, 8])))
            }
        } else {
            0.6 + 0.5 * uniform01(mix(&[h, 8]))
        };
        // Drop measurement rides each team's own throughput baseline,
        // which fluctuates with deploys and diurnal load: per-team
        // multiplicative distortion plus an ambient fluctuation floor, so
        // "who dropped at all" is not cleanly readable — only the gross
        // ranking carries signal.
        let team_drop_distort = smn_telemetry::det::lognormal_multiplier(
            mix(&[cfg.seed, fault.id, 0xd0, comp_team as u64]),
            0.35,
        );
        let ambient = 0.1 * uniform01(mix(&[h, 10]));
        let throughput_drop = (true_intensity[i] * drop_factor * team_drop_distort
            + ambient
            + 0.08 * std_normal(mix(&[h, 9])))
        .clamp(0.0, 1.0);
        let error_dev = load * raw_error + offset;
        let latency_dev = load * raw_latency + offset;
        components.push(ComponentObservation {
            error_dev,
            latency_dev,
            throughput_drop,
            alerting,
            local_alerting,
        });
    }

    // Reachability probes. Cross-cluster probes traverse switch-1, the
    // firewall, and switch-2; intra-cluster probes stay on one switch.
    // Unknown names (never the case for the static deployment) resolve to
    // an out-of-range index, which `path_intensity` simply skips.
    let idx = |name: &str| d.fine.by_name(name).map_or(usize::MAX, smn_topology::NodeId::index);
    let cross_path = [idx("switch-1"), idx("firewall-1"), idx("switch-2")];
    let path_intensity = |path: &[usize]| -> f64 {
        path.iter().filter_map(|&i| true_intensity.get(i)).fold(0.0, |a, &v| a.max(v))
    };
    let server_intensity = |names: &[String]| -> f64 {
        let sum: f64 = names
            .iter()
            .filter_map(|n| d.fine.by_name(n))
            .filter_map(|id| true_intensity.get(id.index()))
            .sum();
        sum / names.len() as f64
    };
    let cross_fail_p = (0.9 * path_intensity(&cross_path)
        + 0.4 * server_intensity(&d.cluster2).max(server_intensity(&d.cluster1)))
    .min(1.0);
    let intra_fail_p = (0.9
        * path_intensity(&[idx("switch-1")]).max(path_intensity(&[idx("switch-2")]))
        + 0.3 * server_intensity(&d.cluster1).max(server_intensity(&d.cluster2)))
    .min(1.0);
    // Bernoulli probes, one per minute per direction.
    let probe_rate = |p: f64, salt: u64| -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        let mut fails = 0u32;
        for t in 0..cfg.window_minutes {
            let h = mix(&[cfg.seed, fault.id, salt, u64::from(t)]);
            if uniform01(h) < p {
                fails += 1;
            }
        }
        f64::from(fails) / f64::from(cfg.window_minutes)
    };
    let cross_probe_failure = probe_rate(cross_fail_p, 0xC505);
    let intra_probe_failure = probe_rate(intra_fail_p, 0x1274);

    // First-alert times: the root's monitors fire first; each dependency
    // hop adds detection delay; every team's monitoring agent polls on its
    // own phase, which blurs sub-poll-interval ordering. False symptoms
    // fire at an arbitrary time in the window.
    let hops = {
        let mut hops = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        // An unknown root (out-of-range index) seeds nothing: every hop
        // count stays at u32::MAX and alert timing carries no signal.
        if let Some(h) = hops.get_mut(root_index) {
            *h = 0;
            queue.push_back(smn_topology::NodeId(root_index as u32));
        }
        while let Some(u) = queue.pop_front() {
            for v in d.fine.graph.predecessors(u) {
                if hops[v.index()] == u32::MAX {
                    hops[v.index()] = hops[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        hops
    };
    let never = f64::from(cfg.window_minutes + 1);
    let mut first_alert_minute = vec![never; TEAMS.len()];
    for (node, comp) in d.fine.graph.nodes() {
        let i = node.index();
        // Timing is read from the *local* alert streams — the only alert
        // data that exists without the SMN's normalized ingestion.
        if !components[i].local_alerting {
            continue;
        }
        let Some(ti) = team_index(&comp.team) else { continue };
        let h = mix(&[cfg.seed, fault.id, 0x7173, i as u64]);
        let phase = 5.0 * uniform01(mix(&[cfg.seed, fault.id, 0x9a5e, ti as u64]));
        let t = if true_intensity[i] > 0.05 {
            let hop_delay = f64::from(hops[i].min(8)) * (0.8 - (1.0 - uniform01(h)).ln() * 1.1);
            let onset = -(1.0 - uniform01(mix(&[h, 1]))).ln();
            phase + hop_delay + onset
        } else {
            // False symptom: arbitrary time in the window.
            uniform01(mix(&[h, 2])) * f64::from(cfg.window_minutes)
        };
        let t = t.min(f64::from(cfg.window_minutes));
        if t < first_alert_minute[ti] {
            first_alert_minute[ti] = t;
        }
    }

    // Team syndrome — binary, per the paper: a CDG node "experiences
    // symptoms" when any of the team's components alerts. A fraction-based
    // syndrome would systematically under-weight large teams (one failed
    // hypervisor out of four barely registers), which defeats the metric.
    let mut team_alerting = vec![false; TEAMS.len()];
    for (node, comp) in d.fine.graph.nodes() {
        if components[node.index()].alerting {
            if let Some(ti) = team_index(&comp.team) {
                team_alerting[ti] = true;
            }
        }
    }
    // Syndrome is indexed by CDG node order; map team name order -> CDG id.
    let mut syndrome = Syndrome::zeros(d.cdg.len());
    for (ti, team) in TEAMS.iter().enumerate() {
        let Some(cdg_id) = d.cdg.by_name(team) else { continue };
        syndrome.0[cdg_id.index()] = f64::from(u8::from(team_alerting[ti]));
    }
    // Probe failures are a symptom *of the network* as seen by monitoring:
    // "Symptom can be a function (e.g., packet loss > X%) of internal
    // health metrics defined by respective individual teams" (§5) — and
    // war story 3 routes on exactly this signal.
    if cross_probe_failure > 0.25 || intra_probe_failure > 0.25 {
        if let Some(net) = d.cdg.by_name("network") {
            syndrome.0[net.index()] = 1.0;
        }
    }

    IncidentObservation {
        fault: fault.clone(),
        true_intensity,
        components,
        cross_probe_failure,
        intra_probe_failure,
        first_alert_minute,
        syndrome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{generate_campaign, CampaignConfig};

    fn deployment() -> RedditDeployment {
        RedditDeployment::build()
    }

    fn fault(d: &RedditDeployment, kind: FaultKind, target: &str) -> FaultSpec {
        FaultSpec {
            id: 1,
            kind,
            target: target.into(),
            variant: 0,
            severity: 0.9,
            team: d.fine.component(d.fine.by_name(target).unwrap()).team.clone(),
        }
    }

    #[test]
    fn propagation_is_deterministic() {
        let d = deployment();
        let f = fault(&d, FaultKind::HypervisorFailure, "hv-2");
        let cfg = SimConfig::default();
        assert_eq!(propagate(&d, &f, &cfg), propagate(&d, &f, &cfg));
    }

    #[test]
    fn root_has_full_severity_and_nondependents_stay_clean() {
        let d = deployment();
        let f = fault(&d, FaultKind::ServerCrash, "postgres-1");
        let cfg = SimConfig::default();
        let intensity = propagate(&d, &f, &cfg);
        let root = d.fine.by_name("postgres-1").unwrap();
        assert_eq!(intensity[root.index()], 0.9);
        // The WAN uplink does not depend on postgres: zero intensity.
        let wan = d.fine.by_name("wan-1").unwrap();
        assert_eq!(intensity[wan.index()], 0.0);
        // Cassandra doesn't depend on postgres either.
        let cas = d.fine.by_name("cassandra-2").unwrap();
        assert_eq!(intensity[cas.index()], 0.0);
    }

    #[test]
    fn hypervisor_fault_fans_out() {
        let d = deployment();
        let f = fault(&d, FaultKind::HypervisorFailure, "hv-2");
        let intensity = propagate(&d, &f, &SimConfig::default());
        let affected = intensity.iter().filter(|&&x| x > 0.2).count();
        assert!(affected >= 5, "fan-out too small: {affected}");
    }

    #[test]
    fn observation_noise_bounded_and_deterministic() {
        let d = deployment();
        let f = fault(&d, FaultKind::FirewallRule, "firewall-1");
        let cfg = SimConfig::default();
        let a = observe(&d, &f, &cfg);
        let b = observe(&d, &f, &cfg);
        assert_eq!(a.components, b.components);
        assert_eq!(a.cross_probe_failure, b.cross_probe_failure);
        for c in &a.components {
            assert!(c.error_dev >= 0.0 && c.error_dev < 2.0);
            assert!(c.latency_dev >= 0.0);
        }
    }

    #[test]
    fn firewall_fault_fails_cross_cluster_probes() {
        let d = deployment();
        let f = fault(&d, FaultKind::FirewallRule, "firewall-1");
        let obs = observe(&d, &f, &SimConfig::default());
        assert!(
            obs.cross_probe_failure > 0.5,
            "cross probes should fail: {}",
            obs.cross_probe_failure
        );
    }

    #[test]
    fn local_app_fault_spares_probe_paths() {
        let d = deployment();
        let f = fault(&d, FaultKind::MemoryLeak, "memcached-1");
        let obs = observe(&d, &f, &SimConfig::default());
        assert!(obs.cross_probe_failure < 0.3, "{}", obs.cross_probe_failure);
    }

    #[test]
    fn syndrome_marks_root_team_symptomatic() {
        let d = deployment();
        let f = fault(&d, FaultKind::ServerCrash, "cassandra-1");
        let obs = observe(&d, &f, &SimConfig::default());
        let storage = d.cdg.by_name("storage").unwrap();
        assert!(obs.syndrome.0[storage.index()] > 0.0, "root team must show symptoms");
        assert_eq!(obs.syndrome.len(), 8);
    }

    #[test]
    fn whole_campaign_observable() {
        let d = deployment();
        let faults = generate_campaign(&d, &CampaignConfig { n_faults: 60, ..Default::default() });
        let cfg = SimConfig::default();
        for f in &faults {
            let obs = observe(&d, f, &cfg);
            assert_eq!(obs.components.len(), d.fine.len());
            assert!(!obs.syndrome.is_quiet(), "incident {} produced no symptoms", f.id);
        }
    }
}
