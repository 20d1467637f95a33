//! Self-healing integration: the smn-heal engine composed with the
//! controller's incident loop. Pins the four safety claims the subsystem
//! makes: rollback restores the simulator overlay byte-identically for
//! any seed, enabling healing changes no routing decision, a crash with a
//! remediation in flight resumes exactly where it stopped, and every
//! engine step lands in the audit trail.

use proptest::prelude::*;
use smn_core::controller::{ControllerConfig, Feedback, SmnController};
use smn_datalake::fault::{FaultProfile, FaultyStore};
use smn_datalake::store::Clds;
use smn_heal::{Diagnosis, HealConfig, HealWorld, Healer, RemediationRecord};
use smn_incident::faults::{generate_campaign, CampaignConfig, FaultKind, FaultSpec};
use smn_incident::monitoring::materialize;
use smn_incident::sim::{observe, SimConfig};
use smn_incident::{DeploymentStack, RedditDeployment};
use smn_obs::clock::SimClock;
use smn_obs::Obs;
use smn_telemetry::det::{fnv1a, FNV_OFFSET};
use smn_telemetry::time::{Ts, HOUR};
use smn_topology::gen::{generate_planetary, PlanetaryConfig};

/// Everything a `HealWorld` borrows, owned in one place.
struct Fixture {
    d: RedditDeployment,
    stack: DeploymentStack,
    contraction: smn_topology::graph::Contraction<
        smn_topology::layer3::SuperNode,
        smn_topology::layer3::SuperLink,
    >,
    sim: SimConfig,
}

impl Fixture {
    fn build() -> Fixture {
        let d = RedditDeployment::build();
        let planetary = generate_planetary(&PlanetaryConfig::small(7));
        let contraction = planetary.wan.contract_by_region();
        let stack = DeploymentStack::bind(&d, planetary.optical, planetary.wan);
        Fixture { d, stack, contraction, sim: SimConfig::default() }
    }

    fn world(&self) -> HealWorld<'_> {
        HealWorld {
            deployment: &self.d,
            stack: self.stack.stack(),
            contraction: &self.contraction,
            sim: &self.sim,
        }
    }
}

proptest! {
    /// Execute → regress → rollback restores the simulator overlay
    /// byte-identically to the pre-action checkpoint, for any engine seed.
    /// The wrong-target restart regresses via the observation-independent
    /// severity short-circuit, so the rollback path is deterministic no
    /// matter what the seed does to observation noise.
    #[test]
    fn rollback_restores_state_byte_identical(seed in 0u64..1_000_000) {
        let fx = Fixture::build();
        let world = fx.world();
        let mut healer = Healer::new(HealConfig { seed, ..HealConfig::default() });

        // Seed a non-trivial overlay first so the comparison is not
        // against the empty default state.
        let warmup = FaultSpec {
            id: 11,
            kind: FaultKind::ServerCrash,
            target: "app-c1-1".into(),
            variant: 0,
            severity: 0.8,
            team: "application".into(),
        };
        let warm_diag = Diagnosis {
            team: warmup.team.clone(),
            explainability: 0.9,
            kind: warmup.kind,
            target: warmup.target.clone(),
            cross_probe_failure: 0.4,
        };
        let _ = healer.heal(&world, &warm_diag, &warmup);

        let before = serde_json::to_string(healer.state()).unwrap();

        // Wrong-target restart: churn grows severity, the verify
        // short-circuit flags a regression, the engine must roll back.
        let fault = FaultSpec {
            id: 42,
            kind: FaultKind::ServerCrash,
            target: "app-c1-1".into(),
            variant: 0,
            severity: 0.9,
            team: "application".into(),
        };
        let diag = Diagnosis {
            team: "cache".into(),
            explainability: 0.9,
            kind: fault.kind,
            target: "memcached-1".into(),
            cross_probe_failure: 0.4,
        };
        let record = healer.heal(&world, &diag, &fault);
        prop_assert_eq!(record.phase, smn_heal::RemediationPhase::RolledBack);
        prop_assert!(!record.recovered);

        let after = serde_json::to_string(healer.state()).unwrap();
        prop_assert_eq!(before, after);
    }
}

/// Ingest one fault's telemetry into a controller's CLDS.
fn ingest(controller: &SmnController, d: &RedditDeployment, fault: &FaultSpec, i: usize) {
    let sim = SimConfig::default();
    let start = Ts(i as u64 * HOUR);
    let telemetry = materialize(d, &observe(d, fault, &sim), &sim, start);
    let mut alerts = telemetry.alerts;
    let mut probes = telemetry.probes;
    alerts.sort_by_key(|a| a.ts);
    probes.sort_by_key(|r| r.ts);
    controller.clds().alerts.write().extend(alerts);
    controller.clds().probes.write().extend(probes);
}

fn controller_with(d: &RedditDeployment, profile: FaultProfile) -> SmnController {
    SmnController::with_lake(
        FaultyStore::new(Clds::new(), profile),
        d.cdg.clone(),
        ControllerConfig::default(),
    )
}

/// Lake dark on a couple of windows so the run crosses the degradation
/// ladder (healing must disable there) without losing determinism.
fn outage_profile() -> FaultProfile {
    FaultProfile::reliable().with_outage(Ts(4 * HOUR), Ts(6 * HOUR))
}

/// Enabling the healing loop changes no routing decision: the feedback
/// sequence — and therefore the degraded-mode outcome hash over routed
/// teams — is byte-identical to the plain incident loop's, because the
/// healer acts strictly downstream and never writes back into the CLDS.
#[test]
fn healing_leaves_routing_outcomes_byte_identical() {
    let fx = Fixture::build();
    let world = fx.world();
    let faults = generate_campaign(&fx.d, &CampaignConfig { n_faults: 16, ..Default::default() });

    let plain = controller_with(&fx.d, outage_profile());
    let mut reference = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        ingest(&plain, &fx.d, fault, i);
        let start = Ts(i as u64 * HOUR);
        reference.push(plain.incident_loop(start, start + HOUR));
    }

    let with_healing = controller_with(&fx.d, outage_profile());
    let mut healer = Healer::new(HealConfig::default());
    let mut observed = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        ingest(&with_healing, &fx.d, fault, i);
        let start = Ts(i as u64 * HOUR);
        let observation = observe(&fx.d, fault, &fx.sim);
        let (feedback, _records) =
            with_healing.healing_loop(&mut healer, &world, &observation, start, start + HOUR);
        observed.push(feedback);
    }

    assert_eq!(reference, observed, "healing must not perturb a single routing decision");

    // The run crossed degraded windows, so the ladder interplay fired.
    assert!(healer.counters().disables >= 1, "degraded windows must disable healing");
    assert!(healer.counters().enables >= 1, "recovery must re-arm healing");

    // Outcome hash over routed teams (degraded_mode's accounting), FNV-1a.
    let hash = |windows: &[Vec<Feedback>]| -> u64 {
        let mut h = FNV_OFFSET;
        for w in windows {
            for f in w {
                if let Feedback::RouteIncident { team, .. } = f {
                    fnv1a(&mut h, team.as_bytes());
                }
            }
        }
        h
    };
    assert_eq!(hash(&reference), hash(&observed));
}

/// Crash the controller while a remediation is awaiting verification,
/// restore the joint checkpoint from its serialized form: the settled
/// record stream equals the continuous run's — the in-flight action is
/// neither dropped nor re-executed.
#[test]
fn crash_mid_flight_preserves_pending_remediation() {
    let fx = Fixture::build();
    let world = fx.world();
    let faults = generate_campaign(&fx.d, &CampaignConfig { n_faults: 8, ..Default::default() });

    let run = |crash_at: Option<usize>| -> Vec<RemediationRecord> {
        let mut controller = controller_with(&fx.d, FaultProfile::reliable());
        let mut healer = Healer::new(HealConfig::default());
        let mut records = Vec::new();
        for (i, fault) in faults.iter().enumerate() {
            if crash_at == Some(i) {
                let cp = controller.checkpoint_with_healing(&healer);
                assert!(
                    !cp.healing.in_flight.is_empty(),
                    "test must crash with a remediation genuinely in flight"
                );
                let snapshot = serde_json::to_string(&cp).unwrap();
                let cdg = controller.cdg.clone();
                let (c, h) = SmnController::restore_with_healing(
                    controller.into_lake(),
                    cdg,
                    serde_json::from_str(&snapshot).unwrap(),
                );
                controller = c;
                healer = h;
            }
            ingest(&controller, &fx.d, fault, i);
            let start = Ts(i as u64 * HOUR);
            let observation = observe(&fx.d, fault, &fx.sim);
            let (_feedback, settled) =
                controller.healing_loop(&mut healer, &world, &observation, start, start + HOUR);
            records.extend(settled);
        }
        records.extend(healer.resolve(&world));
        records
    };

    let continuous = run(None);
    let resumed = run(Some(3));
    assert!(!continuous.is_empty());
    assert_eq!(continuous, resumed, "restore must settle in-flight remediations identically");
}

/// Every engine step — plan, execute, verify, rollback, escalation,
/// disable/enable — writes exactly one audit record under the
/// `heal/engine` actor: the trail is complete, not best-effort.
#[test]
fn audit_trail_records_every_engine_step() {
    let fx = Fixture::build();
    let world = fx.world();
    let obs = Obs::enabled(SimClock::new());
    let mut healer = Healer::new(HealConfig::default());
    healer.set_obs(obs.clone());

    let faults = generate_campaign(&fx.d, &CampaignConfig { n_faults: 12, ..Default::default() });
    for fault in &faults {
        let observation = observe(&fx.d, fault, &fx.sim);
        let diag = Diagnosis::from_observation(&fx.d, &observation, &fault.team, 0.9);
        let _ = healer.heal(&world, &diag, fault);
    }
    // Exercise the disable/enable transitions too.
    healer.disable("audit test");
    let shunned = faults.first().expect("campaign is non-empty");
    let observation = observe(&fx.d, shunned, &fx.sim);
    let diag = Diagnosis::from_observation(&fx.d, &observation, &shunned.team, 0.9);
    let _ = healer.heal(&world, &diag, shunned);
    healer.enable();

    let c = healer.counters();
    assert_eq!(c.executed, c.verified + c.rolled_back, "every execution must settle");
    let expected =
        c.planned + c.escalated + 2 * c.executed + c.rolled_back + c.disables + c.enables;
    let audited =
        obs.audit_jsonl().lines().filter(|l| l.contains("\"heal/engine\"")).count() as u64;
    assert_eq!(audited, expected, "audit trail must record every engine step");
}
