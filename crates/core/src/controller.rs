//! The SMN controller (Figure 1): CLDS + Cloud Dependency Graph + CLTO.
//!
//! The controller owns the Cross-Layer Data Store, maintains the coarse
//! dependency graph, and runs the Cross-Layer Cross-Team Optimizer's
//! control loops at their two characteristic timescales:
//!
//! * [`SmnController::incident_loop`] — minutes: read the alert/probe
//!   window, derive a syndrome, compute symptom explainability against the
//!   CDG, and emit routing feedback to the implicated team;
//! * [`SmnController::planning_loop`] — months: read utilization history
//!   derived from (coarse) bandwidth logs, run the capacity planner with
//!   L1 fiber awareness, and emit provisioning feedback;
//! * [`SmnController::reliability_loop`] — trace recurring L3 link flaps to
//!   aggressive L1 modulation via the cross-layer wavelength↔link map and
//!   propose retunes (war story 2).
//!
//! Feedback is data, not side effects: "the output is a set of feedback
//! either to teams or external agents" (§2).
//!
//! # Degraded-mode operation
//!
//! The controller reads the CLDS through a fallible
//! [`FaultyStore`] front with retry and circuit-breaker resilience
//! ([`ResilientAccess`]). When a read still fails after retries, loops
//! *degrade* along a fallback ladder instead of aborting, and every step
//! down emits a [`Feedback::Degraded`] record so operators can audit what
//! the controller could not see. [`SmnController::checkpoint`] /
//! [`SmnController::restore`] snapshot loop state so a crashed controller
//! resumes mid-campaign without double-emitting feedback.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use smn_datalake::access::ResilientAccess;
use smn_datalake::fault::{FaultyStore, LakeError};
use smn_datalake::store::{Clds, SharedRange};
use smn_depgraph::coarse::CoarseDepGraph;
use smn_depgraph::syndrome::{Explainability, Syndrome};
use smn_obs::Obs;
use smn_te::capacity::{CapacityPlanner, UpgradePolicy};
use smn_telemetry::record::{Alert, BandwidthRecord, LogEvent, ProbeResult, Severity};
use smn_telemetry::series::{key_pair, pair_key, Statistic};
use smn_telemetry::time::{Ts, DAY, EPOCH_SECS, HOUR};
use smn_topology::layer1::{Modulation, OpticalLayer, WavelengthId};
use smn_topology::EdgeId;

use crate::aiops::{aggregate_alerts, AggregatedIncident};
use crate::bwlogs::TimeCoarsener;

/// Feedback emitted by the CLTO to teams or external agents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Feedback {
    /// Route an incident to the team that best explains the symptoms.
    RouteIncident {
        /// Target team.
        team: String,
        /// Symptom explainability of that team for the window's syndrome.
        explainability: f64,
        /// Aggregation metadata when multiple teams' alerts merged.
        aggregated: Option<AggregatedIncident>,
    },
    /// Inform (not page) a team that observed symptoms of someone else's
    /// failure — war story 3's "while informing the cluster team".
    InformTeam {
        /// Team being informed.
        team: String,
        /// Short reason.
        reason: String,
    },
    /// Provision capacity on a link (to an external provider, §2).
    ProvisionCapacity {
        /// Link to augment.
        link: EdgeId,
        /// Gbps to add.
        add_gbps: f64,
        /// Estimated cost.
        cost: f64,
    },
    /// A wanted upgrade is infeasible: spans have no spare wavelength slots.
    UpgradeBlockedByFiber {
        /// The constrained link.
        link: EdgeId,
    },
    /// Step a wavelength to a more conservative modulation (war story 2).
    RetuneModulation {
        /// Wavelength to retune.
        wavelength: WavelengthId,
        /// Target modulation.
        to: Modulation,
    },
    /// A control loop lost part of its input and fell back to a coarser or
    /// narrower view instead of aborting. One record per rung stepped down
    /// the fallback ladder.
    Degraded {
        /// Which loop degraded (`"incident"`, `"planning"`, `"reliability"`).
        loop_name: String,
        /// The input mode the loop wanted.
        from: String,
        /// The input mode it actually ran with.
        to: String,
        /// Why (the lake error or completeness shortfall, human-readable).
        reason: String,
    },
}

/// Controller configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Probe failure rate above which the network team is symptomatic.
    pub probe_failure_threshold: f64,
    /// Minimum alerting teams before alerts aggregate into one incident.
    pub min_aggregation_teams: usize,
    /// Capacity-planning policy (sustained-overload, fiber-aware).
    pub upgrade_policy: UpgradePolicy,
    /// Flaps per observation window above which a link is "recurring".
    pub flap_threshold: u32,
    /// Reach utilization above which a wavelength is considered stressed.
    pub reach_stress_threshold: f64,
    /// Minimum fraction of expected windows that must be populated before a
    /// planning resolution is trusted (the fallback-ladder gate).
    pub planning_completeness_threshold: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            probe_failure_threshold: 0.25,
            min_aggregation_teams: 3,
            upgrade_policy: UpgradePolicy::default(),
            flap_threshold: 5,
            reach_stress_threshold: 0.75,
            planning_completeness_threshold: 0.9,
        }
    }
}

/// One row of a planning window: a pair's P95 over one window of the
/// chosen rung. The window length is the window's `resolution_secs`, and
/// the row is plain data (24 bytes, no heap). A window's rows are either
/// read from the lake's own records or built into one buffer
/// ([`PlanningRows`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanningRow {
    /// Window start.
    pub window_start: Ts,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// The window's P95, the one statistic the ladder keeps.
    pub values: [f64; 1],
}

/// The rows of a [`PlanningWindow`], in `(window_start, src, dst)` order.
///
/// On a full lake at the epoch rung each lake record is its cell's row
/// (see [`planning_rows`]), so the rows share the lake's records and
/// each row is made when it is read. Otherwise they are built rows. Both
/// read, compare and serialize alike: as a flat array of
/// [`PlanningRow`]s.
#[derive(Clone)]
pub struct PlanningRows {
    /// The shared lake range whose records are the rows, or empty.
    fine: SharedRange<BandwidthRecord>,
    /// Window length of the shared rows.
    window_secs: u64,
    /// Built rows, or empty.
    built: Vec<PlanningRow>,
}

impl PlanningRows {
    /// The rows of `fine`, a one-pass lake range at `window_secs`.
    fn shared(fine: SharedRange<BandwidthRecord>, window_secs: u64) -> Self {
        Self { fine, window_secs, built: Vec::new() }
    }

    /// The rows, by value.
    #[must_use]
    pub fn iter(&self) -> PlanningRowsIter<'_> {
        PlanningRowsIter {
            fine: self.fine.iter(),
            window: WindowCursor::new(self.window_secs),
            built: self.built.iter(),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fine.len() + self.built.len()
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> IntoIterator for &'a PlanningRows {
    type Item = PlanningRow;
    type IntoIter = PlanningRowsIter<'a>;

    fn into_iter(self) -> PlanningRowsIter<'a> {
        self.iter()
    }
}

impl From<Vec<PlanningRow>> for PlanningRows {
    fn from(built: Vec<PlanningRow>) -> Self {
        Self { fine: SharedRange::default(), window_secs: EPOCH_SECS, built }
    }
}

impl PartialEq for PlanningRows {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for PlanningRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for PlanningRows {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(|r| r.to_value()).collect())
    }
}

/// Rows deserialize as built rows.
impl Deserialize for PlanningRows {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::from_value(v).map(Self::from)
    }
}

/// The rows of a [`PlanningRows`], by value.
#[derive(Debug, Clone)]
pub struct PlanningRowsIter<'a> {
    fine: std::slice::Iter<'a, BandwidthRecord>,
    window: WindowCursor,
    built: std::slice::Iter<'a, PlanningRow>,
}

impl Iterator for PlanningRowsIter<'_> {
    type Item = PlanningRow;

    fn next(&mut self) -> Option<PlanningRow> {
        let Some(r) = self.fine.next() else { return self.built.next().copied() };
        let window_start = Ts(self.window.start_of(r.ts.0));
        Some(PlanningRow { window_start, src: r.src, dst: r.dst, values: [r.gbps] })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.fine.len() + self.built.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for PlanningRowsIter<'_> {}

/// The `secs`-second window of the last timestamp it was moved to. Moved
/// along time-ordered timestamps, it divides once a window rather than
/// once a timestamp.
#[derive(Debug, Clone, Copy)]
struct WindowCursor {
    secs: u64,
    /// The current window's start; `None` before the first move.
    start: Option<u64>,
}

impl WindowCursor {
    fn new(secs: u64) -> Self {
        Self { secs, start: None }
    }

    /// Move to `ts`'s window and return its start.
    fn start_of(&mut self, ts: u64) -> u64 {
        match self.start {
            Some(start) if ts.checked_sub(start).is_some_and(|d| d < self.secs) => start,
            _ => *self.start.insert(ts / self.secs * self.secs),
        }
    }
}

/// Planning inputs assembled under possible degradation: the coarse
/// bandwidth log at whichever ladder resolution was complete enough.
///
/// A one-pass window ([`PlanningRows`]) shares the lake's records rather
/// than copying them. So it stays a snapshot: held across the lake's next
/// append (a `stream_tick`'s ingest), it still reads its plan-time rows,
/// and that append copies the whole lake once (24 B a record) to leave
/// them be. Drop a window before the next tick to spare that copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanningWindow {
    /// Resolution actually used (seconds per coarse window).
    pub resolution_secs: u64,
    /// Fraction of expected windows at that resolution that had data.
    pub completeness: f64,
    /// The coarse log (P95 per pair per window), in
    /// `(window_start, src, dst)` order.
    pub records: PlanningRows,
}

/// Serializable controller snapshot: the loop state needed to resume after
/// a crash without double-emitting feedback (the incident-id counter and
/// the processed-window cursor).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerCheckpoint {
    /// Next incident id the controller will assign.
    pub next_incident_id: u64,
    /// End timestamp of the last incident window processed.
    pub processed_through: u64,
    /// Controller knobs at checkpoint time.
    pub config: ControllerConfig,
}

/// The SMN controller.
#[derive(Debug)]
pub struct SmnController {
    /// The CLDS behind its fallible lake front.
    lake: FaultyStore,
    /// The cloud's coarse dependency graph.
    pub cdg: CoarseDepGraph,
    /// Knobs.
    pub config: ControllerConfig,
    next_incident_id: AtomicU64,
    /// End of the last incident window processed (the checkpoint cursor).
    processed_through: AtomicU64,
    /// Retry + circuit-breaker state shared by all lake reads.
    access: Mutex<ResilientAccess>,
    /// Observability handle: spans per loop, counters, and the decision
    /// audit trail. Disabled by default.
    obs: Arc<Obs>,
}

impl SmnController {
    /// Controller over a fresh, reliable CLDS with the given CDG.
    #[must_use]
    pub fn new(cdg: CoarseDepGraph, config: ControllerConfig) -> Self {
        Self::with_lake(FaultyStore::reliable(Clds::new()), cdg, config)
    }

    /// Controller over an existing (possibly faulty) lake.
    pub fn with_lake(lake: FaultyStore, cdg: CoarseDepGraph, config: ControllerConfig) -> Self {
        Self {
            lake,
            cdg,
            config,
            next_incident_id: AtomicU64::new(1),
            processed_through: AtomicU64::new(0),
            access: Mutex::new(ResilientAccess::default()),
            obs: Obs::disabled(),
        }
    }

    /// Route controller telemetry — loop spans, counters, resilience
    /// gauges, and the decision audit trail — to `obs`.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    /// The controller's observability handle.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Rebuild a controller from a checkpoint: loops resume after the
    /// cursor, and already-processed windows emit nothing.
    pub fn restore(
        lake: FaultyStore,
        cdg: CoarseDepGraph,
        checkpoint: ControllerCheckpoint,
    ) -> Self {
        Self {
            lake,
            cdg,
            config: checkpoint.config,
            next_incident_id: AtomicU64::new(checkpoint.next_incident_id),
            processed_through: AtomicU64::new(checkpoint.processed_through),
            access: Mutex::new(ResilientAccess::default()),
            obs: Obs::disabled(),
        }
    }

    /// Snapshot the loop state (serde-serializable; pair with
    /// [`SmnController::restore`]).
    pub fn checkpoint(&self) -> ControllerCheckpoint {
        ControllerCheckpoint {
            next_incident_id: self.next_incident_id.load(Ordering::Relaxed),
            processed_through: self.processed_through.load(Ordering::Relaxed),
            config: self.config.clone(),
        }
    }

    /// Direct access to the underlying CLDS (writes, ingestion, tests) —
    /// bypasses fault injection, as ingestion-side chaos is modeled by
    /// `smn_telemetry::chaos`.
    pub fn clds(&self) -> &Clds {
        self.lake.clds()
    }

    /// The fallible lake front the loops read through.
    pub fn lake(&self) -> &FaultyStore {
        &self.lake
    }

    /// Tear the controller down, releasing its lake: the store outlives a
    /// controller crash (pair with [`SmnController::restore`]).
    pub fn into_lake(self) -> FaultyStore {
        self.lake
    }

    /// Snapshot of the retry/breaker counters (observability).
    pub fn resilience(&self) -> ResilientAccess {
        self.access.lock().clone()
    }

    /// Run one lake read under the shared retry + circuit-breaker policy,
    /// publishing the updated resilience counters as gauges.
    fn fetch<T>(&self, op: impl FnMut(u32) -> Result<T, LakeError>) -> Result<T, LakeError> {
        let mut access = self.access.lock();
        let result = access.query(op);
        access.record(&self.obs);
        result
    }

    /// Publish a loop's emitted feedback to the audit trail — one record
    /// per decision, carrying the evidence that triggered it — and bump the
    /// per-kind feedback counters.
    fn audit_feedback(&self, loop_name: &str, feedback: &[Feedback]) {
        if !self.obs.is_enabled() {
            return;
        }
        let actor = format!("controller/{loop_name}");
        for f in feedback {
            match f {
                Feedback::RouteIncident { team, explainability, aggregated } => {
                    self.obs.inc("controller_incidents_routed_total");
                    let mut ev = vec![
                        ("team", team.clone()),
                        ("explainability", format!("{explainability:.4}")),
                    ];
                    if let Some(a) = aggregated {
                        ev.push(("aggregated_teams", a.alerting_teams.len().to_string()));
                        ev.push(("merged_alerts", a.merged_alerts.to_string()));
                        ev.push(("priority", a.priority.to_string()));
                    }
                    self.obs.audit(&actor, "route-incident", &ev);
                }
                Feedback::InformTeam { team, reason } => {
                    self.obs.inc("controller_informs_total");
                    self.obs.audit(
                        &actor,
                        "inform-team",
                        &[("team", team.clone()), ("reason", reason.clone())],
                    );
                }
                Feedback::ProvisionCapacity { link, add_gbps, cost } => {
                    self.obs.inc("controller_provisions_total");
                    self.obs.audit(
                        &actor,
                        "provision-capacity",
                        &[
                            ("link", link.index().to_string()),
                            ("add_gbps", format!("{add_gbps:.1}")),
                            ("cost", format!("{cost:.1}")),
                        ],
                    );
                }
                Feedback::UpgradeBlockedByFiber { link } => {
                    self.obs.inc("controller_fiber_blocks_total");
                    self.obs.audit(
                        &actor,
                        "upgrade-blocked-by-fiber",
                        &[("link", link.index().to_string())],
                    );
                }
                Feedback::RetuneModulation { wavelength, to } => {
                    self.obs.inc("controller_retunes_total");
                    self.obs.audit(
                        &actor,
                        "retune-modulation",
                        &[("wavelength", wavelength.0.to_string()), ("to", format!("{to:?}"))],
                    );
                }
                Feedback::Degraded { loop_name, from, to, reason } => {
                    self.obs.inc("controller_degraded_total");
                    self.obs.audit(
                        &actor,
                        "degrade",
                        &[
                            ("loop", loop_name.clone()),
                            ("from", from.clone()),
                            ("to", to.clone()),
                            ("reason", reason.clone()),
                        ],
                    );
                }
            }
        }
    }

    fn advance_cursor(&self, end: Ts) {
        self.processed_through.fetch_max(end.0, Ordering::Relaxed);
    }

    /// Build the observed syndrome for a time window from the CLDS: a team
    /// is symptomatic when any of its alerts fired in the window; the team
    /// owning the probing infrastructure's *target* — the network — is
    /// symptomatic when probe failure rates exceed the threshold.
    pub fn window_syndrome(&self, start: Ts, end: Ts) -> Syndrome {
        let clds = self.lake.clds();
        let alerts = clds.alerts.read();
        let probes = clds.probes.read();
        self.syndrome_from_parts(alerts.range(start, end), probes.range(start, end))
    }

    /// Syndrome from whichever telemetry slices survived the lake: missing
    /// sources contribute no symptoms (the degraded-mode contract).
    fn syndrome_from_parts(&self, alerts: &[Alert], probes: &[ProbeResult]) -> Syndrome {
        let mut syndrome = Syndrome::zeros(self.cdg.len());
        for a in alerts {
            if let Some(team) = self.cdg.by_name(&a.team) {
                syndrome.0[team.index()] = 1.0;
            }
        }
        if !probes.is_empty() {
            let failures = probes.iter().filter(|p| !p.success).count();
            let rate = failures as f64 / probes.len() as f64;
            if rate > self.config.probe_failure_threshold {
                if let Some(net) = self.cdg.by_name("network") {
                    syndrome.0[net.index()] = 1.0;
                }
            }
        }
        syndrome
    }

    /// The minutes-timescale incident loop over `[start, end)`.
    ///
    /// Returns no feedback on a quiet window. Otherwise: one
    /// [`Feedback::RouteIncident`] to the best-explaining team (with
    /// aggregation metadata when several teams alerted — war story 4), and
    /// one [`Feedback::InformTeam`] per other symptomatic team.
    ///
    /// Degraded mode: when the lake cannot serve alerts, the syndrome is
    /// built from probes alone (and vice versa); when both sources fail the
    /// window is skipped. Each step emits a [`Feedback::Degraded`] record
    /// *before* any routing feedback. Windows ending at or before the
    /// checkpoint cursor return nothing — a restored controller never
    /// re-emits feedback for windows a previous incarnation processed.
    pub fn incident_loop(&self, start: Ts, end: Ts) -> Vec<Feedback> {
        let mut span = self.obs.span_with(
            "controller/incident-loop",
            &[("start", start.0.into()), ("end", end.0.into())],
        );
        let feedback = self.incident_loop_inner(start, end);
        span.field("feedback", feedback.len());
        self.obs.inc("controller_incident_windows_total");
        self.audit_feedback("incident", &feedback);
        feedback
    }

    fn incident_loop_inner(&self, start: Ts, end: Ts) -> Vec<Feedback> {
        if end.0 <= self.processed_through.load(Ordering::Relaxed) {
            return Vec::new();
        }
        let mut feedback = Vec::new();
        let alerts = match self.fetch(|_| self.lake.alerts_range(start, end)) {
            Ok(a) => Some(a),
            Err(e) => {
                feedback.push(Feedback::Degraded {
                    loop_name: "incident".into(),
                    from: "alerts + probes syndrome".into(),
                    to: "probes-only syndrome".into(),
                    reason: e.to_string(),
                });
                None
            }
        };
        let probes = match self.fetch(|_| self.lake.probes_range(start, end)) {
            Ok(p) => Some(p),
            Err(e) => {
                feedback.push(Feedback::Degraded {
                    loop_name: "incident".into(),
                    from: if alerts.is_some() {
                        "alerts + probes syndrome".into()
                    } else {
                        "probes-only syndrome".into()
                    },
                    to: if alerts.is_some() {
                        "alerts-only syndrome".into()
                    } else {
                        "window skipped (lake blind)".into()
                    },
                    reason: e.to_string(),
                });
                None
            }
        };
        if alerts.is_none() && probes.is_none() {
            self.advance_cursor(end);
            return feedback;
        }
        let syndrome = self.syndrome_from_parts(
            alerts.as_deref().unwrap_or(&[]),
            probes.as_deref().unwrap_or(&[]),
        );
        if syndrome.is_quiet() {
            self.advance_cursor(end);
            return feedback;
        }
        let ex = Explainability::new(&self.cdg);
        let Some(best) = ex.best_team(&syndrome) else {
            // Only a quiet syndrome has no best team, and quiet returned
            // above; treat a surprise here as "nothing to diagnose".
            self.advance_cursor(end);
            return feedback;
        };
        let best_name = self.cdg.team(best).name.clone();
        let aggregated =
            alerts.as_deref().and_then(|a| aggregate_alerts(a, self.config.min_aggregation_teams));
        // Record the incident in the CLDS (the lifecycle the history
        // store's retention policy keys on).
        let id = self.next_incident_id.fetch_add(1, Ordering::Relaxed);
        let priority = aggregated.as_ref().map(|a| a.priority).unwrap_or(2);
        self.lake.clds().incidents.write().append(smn_telemetry::record::IncidentRecord {
            id,
            opened_at: end,
            title: format!(
                "symptoms across {} team(s)",
                syndrome.0.iter().filter(|&&v| v > 0.0).count()
            ),
            routed_to: Some(best_name.clone()),
            ground_truth_team: None,
            priority,
        });
        feedback.push(Feedback::RouteIncident {
            team: best_name.clone(),
            explainability: ex.explainability(&syndrome, best),
            aggregated,
        });
        for (i, &sym) in syndrome.0.iter().enumerate() {
            let team = self.cdg.team(smn_topology::NodeId(i as u32)).name.clone();
            if sym > 0.0 && team != best_name {
                feedback.push(Feedback::InformTeam {
                    team,
                    reason: format!("symptoms explained by {best_name}"),
                });
            }
        }
        self.advance_cursor(end);
        feedback
    }

    /// The months-timescale planning loop: plan upgrades from per-link
    /// utilization history with L1 fiber awareness.
    ///
    /// `history` is per link a chronological series of window utilizations
    /// (e.g. weekly p95 from coarse bandwidth logs); `distance_km` prices
    /// upgrades; `optical` answers fiber feasibility.
    pub fn planning_loop(
        &self,
        history: &BTreeMap<EdgeId, Vec<f64>>,
        distance_km: impl Fn(EdgeId) -> f64,
        optical: &OpticalLayer,
    ) -> Vec<Feedback> {
        let mut span =
            self.obs.span_with("controller/planning-loop", &[("links", history.len().into())]);
        let feedback = self.planning_loop_inner(history, distance_km, optical);
        span.field("feedback", feedback.len());
        self.audit_feedback("planning", &feedback);
        feedback
    }

    fn planning_loop_inner(
        &self,
        history: &BTreeMap<EdgeId, Vec<f64>>,
        distance_km: impl Fn(EdgeId) -> f64,
        optical: &OpticalLayer,
    ) -> Vec<Feedback> {
        let planner = CapacityPlanner::new(self.config.upgrade_policy.clone());
        let plan = planner.plan(history, distance_km, |link| optical.link_upgradeable(link));
        let mut feedback: Vec<Feedback> = plan
            .upgrades
            .iter()
            .map(|u| Feedback::ProvisionCapacity {
                link: u.link,
                add_gbps: u.add_gbps,
                cost: u.cost,
            })
            .collect();
        feedback.extend(
            plan.blocked_by_fiber.iter().map(|&link| Feedback::UpgradeBlockedByFiber { link }),
        );
        feedback
    }

    /// The planning-input fallback ladder: fine epochs, hourly, daily.
    pub const PLANNING_LADDER: [u64; 3] = [EPOCH_SECS, HOUR, DAY];

    fn ladder_rung_name(resolution_secs: u64) -> &'static str {
        match resolution_secs {
            EPOCH_SECS => "fine bandwidth logs (300 s epochs)",
            HOUR => "hourly coarse logs",
            DAY => "daily coarse logs",
            _ => "custom-resolution coarse logs",
        }
    }

    /// Assemble planning inputs from the lake, degrading along the
    /// resolution ladder when the fine window is incomplete.
    ///
    /// A resolution is trusted when the fraction of the windows
    /// `[start, end)` touches that contain at least one record meets
    /// [`ControllerConfig::planning_completeness_threshold`] — chaos-thinned
    /// epochs leave holes in the fine series that mislead the planner, but
    /// the same records spread over hourly or daily windows still populate
    /// every window, so summary statistics stay trustworthy. Each rung
    /// stepped down emits [`Feedback::Degraded`]; an unreadable lake yields
    /// `None` plus a single degradation record.
    pub fn planning_bandwidth(
        &self,
        start: Ts,
        end: Ts,
    ) -> (Option<PlanningWindow>, Vec<Feedback>) {
        let mut span = self.obs.span_with(
            "controller/planning-bandwidth",
            &[("start", start.0.into()), ("end", end.0.into())],
        );
        let (window, feedback) = self.planning_bandwidth_inner(start, end);
        if let Some(w) = &window {
            span.field("resolution_secs", w.resolution_secs);
            span.field("completeness", w.completeness);
            #[allow(clippy::cast_precision_loss, reason = "resolutions are seconds-scale")]
            self.obs.gauge("planning_resolution_secs", w.resolution_secs as f64);
            self.obs.gauge("planning_completeness", w.completeness);
        }
        span.field("feedback", feedback.len());
        self.audit_feedback("planning", &feedback);
        (window, feedback)
    }

    fn planning_bandwidth_inner(
        &self,
        start: Ts,
        end: Ts,
    ) -> (Option<PlanningWindow>, Vec<Feedback>) {
        // One gated query shares the lake's range: the ladder and the rows
        // read it in place, with no copy of the window.
        match self.fetch(|_| self.lake.bandwidth_range(start, end)) {
            Ok(fine) => {
                let (window, feedback) = self.plan_window(fine, start, end);
                (Some(window), feedback)
            }
            Err(e) => (
                None,
                vec![Feedback::Degraded {
                    loop_name: "planning".into(),
                    from: Self::ladder_rung_name(EPOCH_SECS).into(),
                    to: "no planning inputs this cycle".into(),
                    reason: e.to_string(),
                }],
            ),
        }
    }

    /// The number of `resolution`-second windows `[start, end)` touches
    /// (at least one): an unaligned span touches one more window than its
    /// length alone implies.
    fn windows_touched(start: Ts, end: Ts, resolution: u64) -> u64 {
        match end.0.checked_sub(1) {
            Some(last) if last >= start.0 => last / resolution - start.0 / resolution + 1,
            _ => 1,
        }
    }

    /// Walk the resolution ladder over `fine`, the time-ordered lake range
    /// of `[start, end)`, and coarsen it at the first complete enough rung
    /// (P95 per pair per window), in the profiled phase `planning/window`.
    /// Its `rows` field says how the rows were built ([`planning_rows`]).
    fn plan_window(
        &self,
        fine: SharedRange<BandwidthRecord>,
        start: Ts,
        end: Ts,
    ) -> (PlanningWindow, Vec<Feedback>) {
        let mut phase = self.obs.phase("planning/window");
        let mut feedback = Vec::new();
        let completeness_at = |resolution: u64| -> f64 {
            let expected = Self::windows_touched(start, end, resolution);
            // Lake slices are time-ordered, so each observed window is one
            // run of adjacent records: jump from run to run by binary search.
            let mut observed = 0usize;
            let mut rest: &[BandwidthRecord] = &fine;
            while let Some(first) = rest.first() {
                let w = first.ts.0 / resolution;
                observed += 1;
                rest = rest
                    .get(rest.partition_point(|r| r.ts.0 / resolution == w)..)
                    .unwrap_or_default();
            }
            observed as f64 / expected as f64
        };
        let threshold = self.config.planning_completeness_threshold;
        // Set on every rung; the last rung always ends the loop.
        let mut rung = (DAY, 0.0);
        for (i, &resolution) in Self::PLANNING_LADDER.iter().enumerate() {
            let c = completeness_at(resolution);
            rung = (resolution, c);
            let Some(&next) = Self::PLANNING_LADDER.get(i + 1) else { break };
            if c >= threshold {
                break;
            }
            feedback.push(Feedback::Degraded {
                loop_name: "planning".into(),
                from: Self::ladder_rung_name(resolution).into(),
                to: Self::ladder_rung_name(next).into(),
                reason: format!(
                    "window completeness {:.0}% below {:.0}%",
                    c * 100.0,
                    threshold * 100.0
                ),
            });
        }
        let (chosen, completeness) = rung;
        let (records, build) = planning_rows(fine, chosen);
        phase.field("rows", build);
        (PlanningWindow { resolution_secs: chosen, completeness, records }, feedback)
    }

    /// Per-edge utilization history from a planning window: `edge_of` maps
    /// a `(src, dst)` pair to its WAN edge and capacity in Gbps. Rows whose
    /// pair has no edge, or whose edge has no capacity, are skipped.
    pub fn utilization_history(
        window: &PlanningWindow,
        edge_of: impl Fn(u32, u32) -> Option<(EdgeId, f64)>,
    ) -> BTreeMap<EdgeId, Vec<f64>> {
        let mut history: BTreeMap<EdgeId, Vec<f64>> = BTreeMap::new();
        for r in &window.records {
            let Some((edge, capacity_gbps)) = edge_of(r.src, r.dst) else { continue };
            if capacity_gbps > 0.0 {
                let [value] = r.values;
                history.entry(edge).or_default().push(value / capacity_gbps);
            }
        }
        history
    }

    /// The cross-layer reliability loop (war story 2): given per-link flap
    /// counts over an observation window, trace recurring flaps through the
    /// wavelength↔link map and propose stepping stressed, aggressively
    /// modulated wavelengths down.
    pub fn reliability_loop(
        &self,
        flap_counts: &BTreeMap<EdgeId, u32>,
        optical: &OpticalLayer,
    ) -> Vec<Feedback> {
        let mut feedback = Vec::new();
        let mut flagged: Vec<WavelengthId> = Vec::new();
        // BTreeMap iterates in EdgeId order; no defensive sort needed.
        for (&link, &count) in flap_counts.iter() {
            if count < self.config.flap_threshold {
                continue;
            }
            for w in optical.wavelengths_for_link(link) {
                if flagged.contains(&w) {
                    continue;
                }
                let wl = optical.wavelength(w);
                let stressed = wl.reach_utilization() > self.config.reach_stress_threshold;
                if stressed {
                    if let Some(safer) = wl.modulation.step_down() {
                        flagged.push(w);
                        feedback.push(Feedback::RetuneModulation { wavelength: w, to: safer });
                    }
                }
            }
        }
        feedback
    }

    /// The reliability loop fed from the lake: flap counts are recovered
    /// from the `ops/logs` dataset (one [`LogEvent`] per dropped link per
    /// wavelength flap, the convention of [`flap_log_events`]). When the
    /// lake cannot serve
    /// the window, the loop degrades to proposing nothing this cycle —
    /// emitting [`Feedback::Degraded`] — rather than panicking or acting on
    /// a partial flap picture.
    pub fn reliability_loop_from_lake(
        &self,
        start: Ts,
        end: Ts,
        optical: &OpticalLayer,
    ) -> Vec<Feedback> {
        let mut span = self.obs.span_with(
            "controller/reliability-loop",
            &[("start", start.0.into()), ("end", end.0.into())],
        );
        let feedback = self.reliability_loop_from_lake_inner(start, end, optical);
        span.field("feedback", feedback.len());
        self.audit_feedback("reliability", &feedback);
        feedback
    }

    fn reliability_loop_from_lake_inner(
        &self,
        start: Ts,
        end: Ts,
        optical: &OpticalLayer,
    ) -> Vec<Feedback> {
        let logs = match self.fetch(|_| self.lake.logs_range(start, end)) {
            Ok(l) => l,
            Err(e) => {
                return vec![Feedback::Degraded {
                    loop_name: "reliability".into(),
                    from: "lake flap logs".into(),
                    to: "no retunes this cycle".into(),
                    reason: e.to_string(),
                }];
            }
        };
        self.reliability_loop(&flap_counts_from_logs(&logs), optical)
    }
}

/// Materialize wavelength flap events as CLDS log events (the `ops/logs`
/// convention [`SmnController::reliability_loop_from_lake`] reads back):
/// one event per affected L3 link per flap, component `"link-<edge>"`.
#[must_use]
pub fn flap_log_events(events: &[smn_topology::failures::FlapEvent]) -> Vec<LogEvent> {
    let mut out: Vec<LogEvent> = events
        .iter()
        .flat_map(|e| {
            e.links.iter().map(move |&link| LogEvent {
                ts: Ts::from_days(e.day),
                // The numeric edge index, not EdgeId's "e<n>" Display —
                // flap_counts_from_logs parses this back as a u32.
                component: format!("link-{}", link.index()),
                severity: Severity::Error,
                text: format!("wavelength {} flap dropped link {}", e.wavelength.0, link.index()),
            })
        })
        .collect();
    out.sort_by(|a, b| (a.ts, &a.component).cmp(&(b.ts, &b.component)));
    out
}

/// Recover per-link flap counts from flap log events (inverse of
/// [`flap_log_events`]).
#[must_use]
pub fn flap_counts_from_logs(logs: &[LogEvent]) -> BTreeMap<EdgeId, u32> {
    let mut counts: BTreeMap<EdgeId, u32> = BTreeMap::new();
    for l in logs {
        if let Some(link) = l.component.strip_prefix("link-").and_then(|s| s.parse::<u32>().ok()) {
            if l.text.contains("flap") {
                *counts.entry(EdgeId(link)).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// The P95 planning rows of `fine`, a lake range, at `chosen`-second
/// windows, in `(window, pair)` order, and how they were built: `one-pass`
/// or `walk`.
///
/// On a full lake's epoch rung every `(window, pair)` cell holds one
/// record, and the P95 of one sample is that sample bit for bit (NaN and
/// `-0.0` included), so each row is its record's and the rows share the
/// range: no copy, no merge. [`is_one_pass`] checks that case without
/// writing anything. Otherwise (a coarser rung, a duplicate, a pair out of
/// order) [`TimeCoarsener::for_each_cell`] walks the whole range into
/// built rows.
fn planning_rows(fine: SharedRange<BandwidthRecord>, chosen: u64) -> (PlanningRows, &'static str) {
    if is_one_pass(&fine, chosen) {
        (PlanningRows::shared(fine, chosen), "one-pass")
    } else {
        (walked_rows(&fine, chosen).into(), "walk")
    }
}

/// The P95 rows of `fine` at `chosen`-second windows, built by the cell
/// walk: the general path, for any time-ordered slice.
fn walked_rows(fine: &[BandwidthRecord], chosen: u64) -> Vec<PlanningRow> {
    // Every rung is a non-zero window and P95 the one statistic, so the
    // rung's coarsener needs none of `TimeCoarsener::new`'s checks.
    let coarsener = TimeCoarsener { window_secs: chosen, stats: vec![Statistic::P95] };
    let mut records = Vec::new();
    coarsener.for_each_cell(
        fine,
        |_| true,
        |w, pair, samples| {
            let Some(p95) = Statistic::P95.of_sorted(samples) else { return };
            let (src, dst) = key_pair(pair);
            records.push(PlanningRow { window_start: Ts(w * chosen), src, dst, values: [p95] });
        },
    );
    records
}

/// Whether each record of `fine` is alone in its `chosen`-second
/// `(window, pair)` cell, in cell order: each record's cell strictly above
/// the previous record's.
fn is_one_pass(fine: &[BandwidthRecord], chosen: u64) -> bool {
    let mut window = WindowCursor::new(chosen);
    let mut prev = None;
    fine.iter().all(|r| {
        let cell = (window.start_of(r.ts.0), pair_key(r.src, r.dst));
        prev.replace(cell).is_none_or(|p| cell > p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_telemetry::record::{Alert, ProbeResult, Severity};

    /// CDG: app -> platform -> network (everything depends on network).
    fn controller() -> SmnController {
        let mut cdg = CoarseDepGraph::new();
        let app = cdg.add_team("app");
        let platform = cdg.add_team("platform");
        let net = cdg.add_team("network");
        cdg.add_dependency(app, platform);
        cdg.add_dependency(platform, net);
        SmnController::new(cdg, ControllerConfig::default())
    }

    fn alert(ts: u64, team: &str) -> Alert {
        Alert {
            ts: Ts(ts),
            component: format!("{team}-1"),
            team: team.into(),
            kind: "health".into(),
            severity: Severity::Error,
            message: String::new(),
        }
    }

    fn probe(ts: u64, success: bool) -> ProbeResult {
        ProbeResult {
            ts: Ts(ts),
            src_cluster: "c1".into(),
            dst_cluster: "c2".into(),
            success,
            latency_ms: 1.0,
        }
    }

    #[test]
    fn quiet_window_emits_nothing() {
        let c = controller();
        assert!(c.incident_loop(Ts(0), Ts(600)).is_empty());
    }

    #[test]
    fn full_fanout_routes_to_network_and_informs_observers() {
        let c = controller();
        {
            let mut alerts = c.clds().alerts.write();
            alerts.append(alert(10, "app"));
            alerts.append(alert(20, "platform"));
            alerts.append(alert(30, "network"));
        }
        let feedback = c.incident_loop(Ts(0), Ts(600));
        match &feedback[0] {
            Feedback::RouteIncident { team, explainability, aggregated } => {
                assert_eq!(team, "network");
                assert!(*explainability > 0.9);
                let agg = aggregated.as_ref().expect("3 teams aggregate");
                assert_eq!(agg.alerting_teams.len(), 3);
            }
            other => panic!("expected RouteIncident, got {other:?}"),
        }
        let informed: Vec<&String> = feedback[1..]
            .iter()
            .map(|f| match f {
                Feedback::InformTeam { team, .. } => team,
                other => panic!("expected InformTeam, got {other:?}"),
            })
            .collect();
        assert_eq!(informed, vec!["app", "platform"]);
    }

    #[test]
    fn probe_failures_make_network_symptomatic() {
        // War story 3: only the app's probes fail; no network alerts at all.
        let c = controller();
        {
            let mut alerts = c.clds().alerts.write();
            alerts.append(alert(10, "app"));
            alerts.append(alert(15, "platform"));
        }
        {
            let mut probes = c.clds().probes.write();
            for t in 0..10 {
                probes.append(probe(t * 60, t % 2 == 0)); // 50% failure
            }
        }
        let syndrome = c.window_syndrome(Ts(0), Ts(600));
        assert_eq!(syndrome.0, vec![1.0, 1.0, 1.0]);
        let feedback = c.incident_loop(Ts(0), Ts(600));
        assert!(matches!(
            &feedback[0],
            Feedback::RouteIncident { team, .. } if team == "network"
        ));
    }

    #[test]
    fn local_failure_routes_locally() {
        let c = controller();
        c.clds().alerts.write().append(alert(10, "app"));
        let feedback = c.incident_loop(Ts(0), Ts(600));
        assert_eq!(feedback.len(), 1);
        assert!(matches!(
            &feedback[0],
            Feedback::RouteIncident { team, aggregated: None, .. } if team == "app"
        ));
    }

    #[test]
    fn incident_loop_records_incident_in_clds() {
        let c = controller();
        c.clds().alerts.write().append(alert(10, "app"));
        let _ = c.incident_loop(Ts(0), Ts(600));
        c.clds().alerts.write().append(alert(700, "platform"));
        let _ = c.incident_loop(Ts(600), Ts(1200));
        let incidents = c.clds().incidents.read();
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents.all()[0].id, 1);
        assert_eq!(incidents.all()[0].routed_to.as_deref(), Some("app"));
        assert_eq!(incidents.all()[0].priority, 2, "single-team incident is low priority");
        assert_eq!(incidents.all()[1].id, 2);
    }

    #[test]
    fn planning_loop_emits_provision_and_blocked_feedback() {
        let c = controller();
        let mut optical = OpticalLayer::new();
        let spare = optical.add_span("ok", 500.0, false, 3);
        let full = optical.add_span("full", 500.0, false, 0);
        optical.light_wavelength(vec![spare], Modulation::Qpsk, vec![EdgeId(0)]);
        optical.light_wavelength(vec![full], Modulation::Qpsk, vec![EdgeId(1)]);
        let history: BTreeMap<EdgeId, Vec<f64>> =
            [(EdgeId(0), vec![0.9; 8]), (EdgeId(1), vec![0.9; 8])].into();
        let feedback = c.planning_loop(&history, |_| 1000.0, &optical);
        assert!(feedback
            .iter()
            .any(|f| matches!(f, Feedback::ProvisionCapacity { link, .. } if *link == EdgeId(0))));
        assert!(feedback
            .iter()
            .any(|f| matches!(f, Feedback::UpgradeBlockedByFiber { link } if *link == EdgeId(1))));
    }

    #[test]
    fn reliability_loop_retunes_stressed_wavelengths_only() {
        let c = controller();
        let mut optical = OpticalLayer::new();
        // Stressed: 16QAM at 700/800 km of reach. Relaxed: QPSK well within.
        let s1 = optical.add_span("hot", 700.0, false, 1);
        let s2 = optical.add_span("cool", 700.0, false, 1);
        let hot = optical.light_wavelength(vec![s1], Modulation::Qam16, vec![EdgeId(0)]);
        let _cool = optical.light_wavelength(vec![s2], Modulation::Qpsk, vec![EdgeId(1)]);
        let flaps: BTreeMap<EdgeId, u32> = [(EdgeId(0), 12), (EdgeId(1), 9)].into();
        let feedback = c.reliability_loop(&flaps, &optical);
        assert_eq!(
            feedback,
            vec![Feedback::RetuneModulation { wavelength: hot, to: Modulation::Qam8 }]
        );
    }

    #[test]
    fn reliability_loop_ignores_rare_flaps() {
        let c = controller();
        let mut optical = OpticalLayer::new();
        let s = optical.add_span("hot", 700.0, false, 1);
        optical.light_wavelength(vec![s], Modulation::Qam16, vec![EdgeId(0)]);
        let flaps: BTreeMap<EdgeId, u32> = [(EdgeId(0), 2)].into();
        assert!(c.reliability_loop(&flaps, &optical).is_empty());
    }

    // ---- degraded-mode behavior -------------------------------------

    use smn_datalake::fault::FaultProfile;

    /// Same CDG as `controller()`, but behind a configurable lake.
    fn faulty_controller(profile: FaultProfile) -> SmnController {
        let mut cdg = CoarseDepGraph::new();
        let app = cdg.add_team("app");
        let platform = cdg.add_team("platform");
        let net = cdg.add_team("network");
        cdg.add_dependency(app, platform);
        cdg.add_dependency(platform, net);
        SmnController::with_lake(
            FaultyStore::new(Clds::new(), profile),
            cdg,
            ControllerConfig::default(),
        )
    }

    fn is_degraded(f: &Feedback) -> bool {
        matches!(f, Feedback::Degraded { .. })
    }

    #[test]
    fn incident_loop_degrades_to_probes_when_alerts_unreachable() {
        // Outage only over the alerts query window; probes carry the signal.
        let c = faulty_controller(FaultProfile::reliable().with_outage(Ts(0), Ts(600)));
        {
            let mut probes = c.clds().probes.write();
            for t in 0..10 {
                probes.append(probe(t * 60, t % 2 == 0)); // 50% failure
            }
        }
        // Both alerts and probes ranges overlap the outage -> fully blind.
        let feedback = c.incident_loop(Ts(0), Ts(600));
        assert!(!feedback.is_empty());
        assert!(feedback.iter().all(is_degraded), "blind window emits only Degraded");
        // A later window misses the outage: normal routing resumes.
        {
            let mut probes = c.clds().probes.write();
            for t in 10..20 {
                probes.append(probe(t * 60, t % 2 == 0));
            }
        }
        let feedback = c.incident_loop(Ts(600), Ts(1200));
        assert!(feedback
            .iter()
            .any(|f| matches!(f, Feedback::RouteIncident { team, .. } if team == "network")));
        assert!(!feedback.iter().any(is_degraded));
    }

    #[test]
    fn incident_loop_never_panics_under_total_failure() {
        let c = faulty_controller(FaultProfile::reliable().with_error_rate(1.0));
        c.clds().alerts.write().append(alert(10, "app"));
        for w in 0..20u64 {
            let feedback = c.incident_loop(Ts(w * 600), Ts((w + 1) * 600));
            assert!(
                feedback.iter().all(is_degraded),
                "every failure path must end in Degraded, got {feedback:?}"
            );
        }
        // Persistent failures tripped the breaker at least once.
        assert!(c.resilience().breaker.trips > 0);
    }

    #[test]
    fn checkpoint_restore_does_not_double_emit() {
        let run_windows = |c: &SmnController, from: u64, to: u64| -> Vec<Feedback> {
            let mut all = Vec::new();
            for w in from..to {
                all.extend(c.incident_loop(Ts(w * 600), Ts((w + 1) * 600)));
            }
            all
        };
        let seed_alerts = |c: &SmnController| {
            let mut alerts = c.clds().alerts.write();
            for w in 0..6u64 {
                alerts.append(alert(w * 600 + 10, "app"));
            }
        };

        // Uninterrupted reference run.
        let reference = controller();
        seed_alerts(&reference);
        let want = run_windows(&reference, 0, 6);

        // Crash after 3 windows; restore from checkpoint; replay all 6.
        let first = controller();
        seed_alerts(&first);
        let mut got = run_windows(&first, 0, 3);
        let snapshot = serde_json::to_string(&first.checkpoint()).unwrap();
        let cdg = first.cdg.clone();
        let resumed = SmnController::restore(
            first.into_lake(), // the lake outlives the crashed controller
            cdg,
            serde_json::from_str(&snapshot).unwrap(),
        );
        // Replaying from window 0 emits nothing for processed windows.
        got.extend(run_windows(&resumed, 0, 6));
        assert_eq!(got, want, "no duplicates, no gaps across the crash");
        // Incident ids continue without reuse.
        let incidents = resumed.clds().incidents.read();
        let ids: Vec<u64> = incidents.all().iter().map(|i| i.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn planning_ladder_steps_down_on_incomplete_fine_window() {
        let c = controller();
        {
            let mut bw = c.clds().bandwidth.write();
            // One day of epochs with 60% dropped (keep every 5th then some):
            // fine completeness 0.2, hourly completeness 1.0.
            for e in 0..288u64 {
                if e % 5 == 0 {
                    bw.append(smn_telemetry::record::BandwidthRecord {
                        ts: Ts(e * EPOCH_SECS),
                        src: 0,
                        dst: 1,
                        gbps: 10.0,
                    });
                }
            }
        }
        let (window, feedback) = c.planning_bandwidth(Ts(0), Ts(DAY));
        let window = window.expect("lake is reachable");
        assert_eq!(window.resolution_secs, HOUR, "falls back exactly one rung");
        assert_eq!(window.records.len(), 24);
        assert_eq!(feedback.len(), 1);
        assert!(matches!(
            &feedback[0],
            Feedback::Degraded { loop_name, .. } if loop_name == "planning"
        ));
    }

    #[test]
    fn unaligned_span_counts_every_window_it_touches() {
        // `[HOUR / 2, 3 * HOUR / 2)` touches hour windows 0 and 1. Every
        // third epoch of it holds a record, in both hours or in hour 1
        // only: too thin for the fine rung either way.
        let fill = |both_hours: bool| {
            let c = controller();
            let mut bw = c.clds().bandwidth.write();
            for e in (HOUR / 2 / EPOCH_SECS..3 * HOUR / 2 / EPOCH_SECS).filter(|e| e % 3 == 0) {
                let ts = Ts(e * EPOCH_SECS);
                if both_hours || ts >= Ts(HOUR) {
                    bw.append(smn_telemetry::record::BandwidthRecord {
                        ts,
                        src: 0,
                        dst: 1,
                        gbps: 1.0,
                    });
                }
            }
            drop(bw);
            c
        };
        let (start, end) = (Ts(HOUR / 2), Ts(3 * HOUR / 2));
        // Hour 0 is empty: the hourly rung is half complete, not whole,
        // and the ladder falls through to the daily one.
        let (window, feedback) = fill(false).planning_bandwidth(start, end);
        let window = window.expect("lake is reachable");
        assert_eq!((window.resolution_secs, window.completeness), (DAY, 1.0));
        assert_eq!(feedback.len(), 2);
        // Both hours hold records: the hourly rung is complete, not 2.0.
        let (window, feedback) = fill(true).planning_bandwidth(start, end);
        let window = window.expect("lake is reachable");
        assert_eq!((window.resolution_secs, window.completeness), (HOUR, 1.0));
        assert_eq!(feedback.len(), 1);
    }

    #[test]
    fn planning_full_fine_window_stays_fine() {
        let c = controller();
        {
            let mut bw = c.clds().bandwidth.write();
            for e in 0..288u64 {
                bw.append(smn_telemetry::record::BandwidthRecord {
                    ts: Ts(e * EPOCH_SECS),
                    src: 0,
                    dst: 1,
                    gbps: 10.0,
                });
            }
        }
        let (window, feedback) = c.planning_bandwidth(Ts(0), Ts(DAY));
        assert_eq!(window.unwrap().resolution_secs, EPOCH_SECS);
        assert!(feedback.is_empty());
    }

    #[test]
    fn zero_statistic_rows_estimate_none_and_skip_history() {
        use crate::bwlogs::{decode_coarse_log, encode_coarse_log, CoarseBwRecord};
        let row = |dst: u32, values: Vec<f64>| CoarseBwRecord {
            window_start: Ts(0),
            window_secs: HOUR,
            src: 0,
            dst,
            values,
        };
        let wire = encode_coarse_log(&[row(1, vec![]), row(2, vec![5.0])]);
        let records = decode_coarse_log(wire).expect("zero-statistic rows decode");
        assert_eq!(records.first().map(|r| r.values.len()), Some(0));
        assert_eq!(TimeCoarsener::estimate(&records, 0, 1, Ts(10)), None);
        assert_eq!(TimeCoarsener::estimate(&records, 0, 2, Ts(10)), Some(5.0));
        // A planning row always carries its P95, so a zero-statistic row
        // cannot reach the history; the window holds the one-value row.
        let rows = vec![PlanningRow { window_start: Ts(0), src: 0, dst: 2, values: [5.0] }];
        let window =
            PlanningWindow { resolution_secs: HOUR, completeness: 1.0, records: rows.into() };
        let history =
            SmnController::utilization_history(&window, |_, dst| Some((EdgeId(dst), 10.0)));
        assert_eq!(history.keys().copied().collect::<Vec<_>>(), [EdgeId(2)]);
        assert_eq!(history.get(&EdgeId(2)), Some(&vec![0.5]));
    }

    #[test]
    fn planning_unreachable_lake_yields_degraded_only() {
        let c = faulty_controller(FaultProfile::reliable().with_outage(Ts(0), Ts(DAY)));
        let (window, feedback) = c.planning_bandwidth(Ts(0), Ts(DAY));
        assert!(window.is_none());
        assert_eq!(feedback.len(), 1);
        assert!(is_degraded(&feedback[0]));
    }

    /// The previous planning input path: copy the lake range out, then
    /// walk the ladder and coarsen the copy.
    #[allow(clippy::cast_precision_loss, reason = "window counts are far below 2^52")]
    fn planning_by_copy(
        c: &SmnController,
        start: Ts,
        end: Ts,
    ) -> (Option<PlanningWindow>, Vec<Feedback>) {
        use crate::coarsen::Coarsening;
        let mut feedback = Vec::new();
        let fine = match c.fetch(|_| c.lake.bandwidth_range(start, end)) {
            Ok(f) => f.to_vec(),
            Err(e) => {
                feedback.push(Feedback::Degraded {
                    loop_name: "planning".into(),
                    from: SmnController::ladder_rung_name(EPOCH_SECS).into(),
                    to: "no planning inputs this cycle".into(),
                    reason: e.to_string(),
                });
                return (None, feedback);
            }
        };
        let threshold = c.config.planning_completeness_threshold;
        let mut rung = (DAY, 0.0);
        for (i, &resolution) in SmnController::PLANNING_LADDER.iter().enumerate() {
            let expected =
                if end > start { (end.0 - 1) / resolution - start.0 / resolution + 1 } else { 1 };
            let observed = fine.chunk_by(|a, b| a.ts.0 / resolution == b.ts.0 / resolution).count();
            let completeness = observed as f64 / expected as f64;
            rung = (resolution, completeness);
            let Some(&next) = SmnController::PLANNING_LADDER.get(i + 1) else { break };
            if completeness >= threshold {
                break;
            }
            feedback.push(Feedback::Degraded {
                loop_name: "planning".into(),
                from: SmnController::ladder_rung_name(resolution).into(),
                to: SmnController::ladder_rung_name(next).into(),
                reason: format!(
                    "window completeness {:.0}% below {:.0}%",
                    completeness * 100.0,
                    threshold * 100.0
                ),
            });
        }
        let (chosen, completeness) = rung;
        let records: Vec<PlanningRow> = TimeCoarsener::new(chosen, vec![Statistic::P95])
            .coarsen(&fine)
            .into_iter()
            .map(|r| {
                assert_eq!(r.window_secs, chosen);
                let values = r.values.as_slice().try_into().expect("one P95 per row");
                PlanningRow { window_start: r.window_start, src: r.src, dst: r.dst, values }
            })
            .collect();
        let records = records.into();
        (Some(PlanningWindow { resolution_secs: chosen, completeness, records }), feedback)
    }

    #[test]
    fn borrowed_planning_window_matches_copied_range() {
        // A day of epochs over three pairs, keeping every `stride`-th epoch.
        let fill = |c: &SmnController, stride: usize| {
            let mut bw = c.clds().bandwidth.write();
            for e in (0..288u32).step_by(stride) {
                for (src, dst) in [(0, 1), (1, 0), (2, 1)] {
                    bw.append(smn_telemetry::record::BandwidthRecord {
                        ts: Ts(u64::from(e) * EPOCH_SECS),
                        src,
                        dst,
                        gbps: f64::from(src + 1) * f64::from((e * 7 + dst) % 11),
                    });
                }
            }
        };
        // Per case: the lake's stride, then the first window's resolution
        // and feedback count.
        let cases = [
            (FaultProfile::reliable(), 1, (Some(EPOCH_SECS), 0)),
            (FaultProfile::reliable(), 5, (Some(HOUR), 1)),
            (FaultProfile::reliable().with_outage(Ts(HOUR), Ts(2 * HOUR)), 1, (None, 1)),
            (FaultProfile::reliable().with_error_rate(0.5).with_seed(3), 1, (Some(EPOCH_SECS), 0)),
        ];
        for (profile, stride, first) in cases {
            let (borrowing, copying) =
                (faulty_controller(profile.clone()), faulty_controller(profile));
            fill(&borrowing, stride);
            fill(&copying, stride);
            // A window as the rows read from it, beside its other fields.
            let read = |(w, feedback): (Option<PlanningWindow>, Vec<Feedback>)| {
                let w = w.map(|w| {
                    let rows: Vec<PlanningRow> = w.records.iter().collect();
                    (w.resolution_secs, w.completeness.to_bits(), rows)
                });
                (w, feedback)
            };
            for w in 0..4u64 {
                let (start, end) = (Ts(w * 6 * HOUR), Ts(DAY));
                let got = read(borrowing.planning_bandwidth(start, end));
                let want = read(planning_by_copy(&copying, start, end));
                assert_eq!(got, want, "window from {start}");
                if w == 0 {
                    assert_eq!((got.0.map(|p| p.0), got.1.len()), first);
                }
            }
            assert_eq!(borrowing.lake.query_count(), copying.lake.query_count());
        }
    }

    /// Lay `lake` out as a full lake is: epoch-major, one record per
    /// `(epoch, pair)` cell, pairs ascending in each epoch. Each epoch's
    /// records sit at its start, or (`unaligned`) at its records' offsets
    /// sorted ascending, so the lake stays time-ordered.
    fn lay_out_as_full(lake: &mut Vec<BandwidthRecord>, unaligned: bool) {
        let cell = |r: &BandwidthRecord| (r.ts.0 / EPOCH_SECS, pair_key(r.src, r.dst));
        lake.sort_by_key(cell);
        lake.dedup_by_key(|r| cell(r));
        for epoch in lake.chunk_by_mut(|a, b| a.ts.0 / EPOCH_SECS == b.ts.0 / EPOCH_SECS) {
            let mut offsets: Vec<u64> = epoch.iter().map(|r| r.ts.0 % EPOCH_SECS).collect();
            offsets.sort_unstable();
            for (r, offset) in epoch.iter_mut().zip(offsets) {
                r.ts = Ts(r.ts.0 / EPOCH_SECS * EPOCH_SECS + if unaligned { offset } else { 0 });
            }
        }
    }

    /// Break a full lake's layout once at record `at` (modulo its length),
    /// keeping it time-ordered: kind 1 repeats the record, kind 2 swaps its
    /// pair with the next record's, and any other kind leaves the lake as
    /// it is.
    fn break_once(lake: &mut Vec<BandwidthRecord>, (kind, at): (u8, usize)) {
        let Some(i) = at.checked_rem(lake.len()) else { return };
        match kind {
            1 => lake.insert(i, lake[i]),
            2 if i + 1 < lake.len() => {
                let (a, b) = (lake[i], lake[i + 1]);
                (lake[i].src, lake[i].dst, lake[i + 1].src, lake[i + 1].dst) =
                    (b.src, b.dst, a.src, a.dst);
            }
            _ => {}
        }
    }

    /// The planning window's `rows` field in `obs`'s trace: how each
    /// `planning/window` phase built its rows, in order.
    fn row_builds(obs: &Obs) -> Vec<String> {
        obs.trace_jsonl()
            .lines()
            .filter(|l| l.contains("\"name\":\"planning/window\"") && l.contains("\"rows\""))
            .filter_map(|l| l.split("\"rows\":\"").nth(1)?.split('"').next().map(String::from))
            .collect()
    }

    /// Whether `rows` read the lake's own buffer: a non-empty shared range
    /// whose records lie in `lake`'s.
    fn shares_lake(rows: &PlanningRows, lake: &[BandwidthRecord]) -> bool {
        !rows.fine.is_empty() && lake.as_ptr_range().contains(&rows.fine.as_ptr())
    }

    /// A reliable traced controller over `lake`, and its planning window
    /// over the lake's first two hours.
    fn planned(lake: &[BandwidthRecord]) -> (SmnController, PlanningWindow, Vec<Feedback>) {
        let mut c = faulty_controller(FaultProfile::reliable());
        c.set_obs(Obs::enabled(smn_obs::clock::SimClock::new()));
        c.clds().bandwidth.write().extend(lake.iter().copied());
        let (window, feedback) = c.planning_bandwidth(Ts(0), Ts(2 * HOUR));
        (c, window.expect("a reliable lake reads"), feedback)
    }

    /// A full lake of 24 epochs over three pairs; `gbps` gives each
    /// pair's value in each epoch.
    fn full_lake(gbps: impl Fn(u32, u32) -> f64) -> Vec<BandwidthRecord> {
        (0..24u32)
            .flat_map(|e| {
                [(0u32, 1u32), (1, 0), (2, 1)].map(|(src, dst)| BandwidthRecord {
                    ts: Ts(u64::from(e) * EPOCH_SECS + u64::from(src)),
                    src,
                    dst,
                    gbps: gbps(e, src),
                })
            })
            .collect()
    }

    /// A clean full lake builds its planning rows in one pass, sharing
    /// the lake's records, and one broken only in its last window (a
    /// duplicate record, or two pairs out of order) falls back to the cell
    /// walk; both planning windows equal the time oracle's rows, and two
    /// seeded runs export the same trace.
    #[test]
    fn a_full_lake_plans_in_one_pass_and_a_broken_one_walks() {
        use crate::coarsen::Coarsening;
        let lake = full_lake(|e, src| [f64::NAN, -0.0, 2.5][src as usize] * f64::from(e + 1));
        let last = lake.len() - 1;
        let mut swapped = lake.clone();
        swapped.swap(last - 1, last);
        swapped[last - 1].ts = swapped[last].ts;
        let mut repeated = lake.clone();
        repeated.push(lake[last]);
        for (lake, build) in [(&lake, "one-pass"), (&swapped, "walk"), (&repeated, "walk")] {
            let (c, window, feedback) = planned(lake);
            assert!(feedback.is_empty());
            assert_eq!(window.resolution_secs, EPOCH_SECS);
            assert_eq!(row_builds(c.obs()), [build]);
            let shared = shares_lake(&window.records, c.clds().bandwidth.read().all());
            assert_eq!(shared, build == "one-pass", "{build}");
            let want: Vec<(Ts, u32, u32, u64)> =
                TimeCoarsener::new(EPOCH_SECS, vec![Statistic::P95])
                    .coarsen(lake)
                    .iter()
                    .map(|r| (r.window_start, r.src, r.dst, r.values[0].to_bits()))
                    .collect();
            let got: Vec<(Ts, u32, u32, u64)> = window
                .records
                .iter()
                .map(|r| (r.window_start, r.src, r.dst, r.values[0].to_bits()))
                .collect();
            assert_eq!(got, want, "{build}");
            assert_eq!(window.records.len(), want.len());
            assert_eq!(c.obs().trace_jsonl(), planned(lake).0.obs().trace_jsonl());
        }
    }

    /// A shared window and its built copy are one window: they compare
    /// equal and serialize to the same flat row array, which reads back
    /// as built rows.
    #[test]
    fn a_shared_window_serializes_and_compares_as_its_built_rows() {
        let (c, window, _) = planned(&full_lake(|e, src| f64::from(e * 3 + src) - 7.5));
        assert!(shares_lake(&window.records, c.clds().bandwidth.read().all()));
        let rows: Vec<PlanningRow> = window.records.iter().collect();
        let built = PlanningWindow { records: rows.into(), ..window.clone() };
        assert!(!shares_lake(&built.records, c.clds().bandwidth.read().all()));
        assert_eq!(window, built);
        let json = serde_json::to_string(&window).expect("a window serializes");
        assert_eq!(json, serde_json::to_string(&built).expect("so does its copy"));
        assert!(json.contains("\"records\":[{\"window_start\":0,\"src\":0,\"dst\":1,"), "{json}");
        let back: PlanningWindow = serde_json::from_str(&json).expect("and reads back");
        assert_eq!(back, window);
        let mut other = built.clone();
        other.records = window.records.iter().skip(1).collect::<Vec<_>>().into();
        assert_ne!(other, window, "a row short");
    }

    proptest::proptest! {
        /// Random lakes — thinned epochs, several samples of one pair in
        /// one epoch, NaN, ±0.0 and negative gbps — plan bit for bit as
        /// the time oracle coarsens them, on every ladder rung: threshold
        /// 0 keeps the fine rung, 2 falls through to the daily one, and
        /// 0.5 and 0.9 step down as far as the thinning makes them. The
        /// rung and its completeness are those of the copying path's
        /// run-counting ladder. Spans start and end aligned or not, and
        /// completeness never exceeds 1. Half the lakes are laid out as a
        /// full lake is, epoch-major with one record per pair per epoch
        /// and pairs ascending in each epoch (at the epoch's start, or at
        /// ascending offsets in it), so the fine rung builds its rows in
        /// one pass; half of those are broken once at a random place, by
        /// a duplicate record or two pairs out of order.
        #[test]
        fn planning_rows_match_time_coarsener_on_every_rung(
            raw in proptest::collection::vec((0u64..288, 0u64..300, 0usize..4, 0usize..9), 0..300),
            from in 0u64..4,
            shifts in (0usize..6, 0usize..6),
            layout in 0u8..4,
            broken in (0u8..4, 0usize..300),
        ) {
            use crate::coarsen::Coarsening;
            const SHIFTS: [u64; 6] = [0, 0, 1, EPOCH_SECS / 2, HOUR / 2, HOUR - 1];
            const PAIRS: [(u32, u32); 4] = [(0, 1), (1, 0), (2, 1), (u32::MAX, 0)];
            const GBPS: [f64; 9] = [0.0, -0.0, 1.0, 1.0, 2.5, 40.0, -3.0, f64::NAN, -f64::NAN];
            let mut lake: Vec<BandwidthRecord> = raw
                .iter()
                .map(|&(epoch, offset, p, v)| BandwidthRecord {
                    ts: Ts(epoch * EPOCH_SECS + offset),
                    src: PAIRS[p].0,
                    dst: PAIRS[p].1,
                    gbps: GBPS[v],
                })
                .collect();
            lake.sort_by_key(|r| r.ts);
            if layout >= 2 {
                lay_out_as_full(&mut lake, layout == 3);
                break_once(&mut lake, broken);
            }
            let mut c = faulty_controller(FaultProfile::reliable());
            c.clds().bandwidth.write().extend(lake.iter().copied());
            let (start, end) = (Ts(from * 6 * HOUR + SHIFTS[shifts.0]), Ts(DAY - SHIFTS[shifts.1]));
            let fine = c.lake.bandwidth_range(start, end).expect("a reliable lake reads");
            for threshold in [0.0, 0.5, 0.9, 2.0] {
                c.config.planning_completeness_threshold = threshold;
                let (Some(got), feedback) = c.planning_bandwidth(start, end) else {
                    return Err(proptest::test_runner::TestCaseError::fail("no window"));
                };
                let (Some(copied), copied_feedback) = planning_by_copy(&c, start, end) else {
                    return Err(proptest::test_runner::TestCaseError::fail("no copied window"));
                };
                proptest::prop_assert!(got.completeness <= 1.0, "completeness {}", got.completeness);
                proptest::prop_assert_eq!(got.resolution_secs, copied.resolution_secs);
                proptest::prop_assert_eq!(got.completeness.to_bits(), copied.completeness.to_bits());
                proptest::prop_assert_eq!(feedback, copied_feedback);
                let want: Vec<(Ts, u64, u32, u32, u64)> =
                    TimeCoarsener::new(got.resolution_secs, vec![Statistic::P95])
                        .coarsen(&fine.to_vec())
                        .iter()
                        .map(|r| {
                            let p95 = r.values.first().map_or(0, |v| v.to_bits());
                            (r.window_start, r.window_secs, r.src, r.dst, p95)
                        })
                        .collect();
                let read = |rows: &PlanningRows| -> Vec<(Ts, u64, u32, u32, u64)> {
                    rows.iter()
                        .map(|r| {
                            let [p95] = r.values;
                            (r.window_start, got.resolution_secs, r.src, r.dst, p95.to_bits())
                        })
                        .collect()
                };
                proptest::prop_assert_eq!(&read(&got.records), &want);
                // Both representations of the chosen rung's rows: built by
                // the walk always, and shared when the range is one-pass.
                let built = PlanningRows::from(walked_rows(&fine, got.resolution_secs));
                proptest::prop_assert_eq!(&read(&built), &want);
                let one_pass = is_one_pass(&fine, got.resolution_secs);
                if one_pass {
                    let shared = PlanningRows::shared(fine.clone(), got.resolution_secs);
                    proptest::prop_assert_eq!(&read(&shared), &want);
                }
                let shared = shares_lake(&got.records, c.clds().bandwidth.read().all());
                proptest::prop_assert_eq!(shared, one_pass && !fine.is_empty());
            }
        }
    }

    #[test]
    fn reliability_from_lake_roundtrips_flap_logs_and_degrades() {
        let mut optical = OpticalLayer::new();
        let s1 = optical.add_span("hot", 700.0, false, 1);
        let hot = optical.light_wavelength(vec![s1], Modulation::Qam16, vec![EdgeId(0)]);
        // 12 flap days for link 0.
        let events: Vec<smn_topology::failures::FlapEvent> = (0..12)
            .map(|day| smn_topology::failures::FlapEvent {
                day,
                wavelength: hot,
                links: vec![EdgeId(0)],
            })
            .collect();
        let c = controller();
        c.clds().logs.write().extend(flap_log_events(&events));
        let feedback = c.reliability_loop_from_lake(Ts(0), Ts(30 * DAY), &optical);
        assert_eq!(
            feedback,
            vec![Feedback::RetuneModulation { wavelength: hot, to: Modulation::Qam8 }]
        );
        // Same window against a partitioned lake: Degraded, never a panic.
        let c = faulty_controller(FaultProfile::reliable().with_outage(Ts(0), Ts(30 * DAY)));
        let feedback = c.reliability_loop_from_lake(Ts(0), Ts(30 * DAY), &optical);
        assert_eq!(feedback.len(), 1);
        assert!(is_degraded(&feedback[0]));
    }
}
