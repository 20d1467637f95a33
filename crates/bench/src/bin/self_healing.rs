//! Self-healing MTTR campaign: heal vs route-to-team across the five
//! degraded-mode chaos profiles.
//!
//! Reruns the 560-fault campaign through `SmnController::healing_loop`
//! under the same five control-plane chaos profiles as `degraded_mode`
//! (clean / telemetry-chaos / lake-partition / controller-crash /
//! perfect-storm) and compares, per profile, two recovery arms measured
//! on the *same* run:
//!
//! * **heal** — the closed-loop engine: plan → execute → verify next
//!   window → commit or roll back. Verified heals recover in minutes;
//!   rollbacks pay the deadline plus the human path.
//! * **route** — the pre-healing controller: every routed incident goes
//!   to the diagnosed team and recovers on the deterministic human-MTTR
//!   model (`smn_heal::route_to_team_mttr`); misrouted incidents pay a
//!   re-route hop.
//!
//! Windows the controller could not route at all (chaos swallowed the
//! syndrome) cost both arms the same blind-window penalty, and windows
//! under `Feedback::Degraded` disable healing — both arms collapse to the
//! human path there, so chaos cannot flatter the engine.
//!
//! The run asserts determinism (perfect-storm replays to the same outcome
//! hash), audit completeness (every plan/execute/verify/rollback lands in
//! the smn-obs audit trail), and the headline claim: healing strictly
//! reduces mean MTTR on at least 3 of the 5 profiles. Results land in
//! `BENCH_self_healing.json` (see `--out`).
//!
//! Run with: `cargo run --release --bin self_healing -- [--out FILE]
//! [--trace FILE] [--metrics FILE] [--audit FILE]`

use std::collections::BTreeMap;
use std::sync::Arc;

use smn_core::controller::{ControllerConfig, Feedback, SmnController};
use smn_datalake::fault::{FaultProfile, FaultyStore};
use smn_datalake::store::Clds;
use smn_heal::{
    route_to_team_mttr, HealConfig, HealCounters, HealWorld, Healer, RemediationPhase,
    RemediationRecord,
};
use smn_incident::faults::{generate_campaign, CampaignConfig, FaultSpec};
use smn_incident::monitoring::materialize;
use smn_incident::sim::{observe, SimConfig};
use smn_incident::{DeploymentStack, RedditDeployment};
use smn_obs::clock::SimClock;
use smn_obs::Obs;
use smn_telemetry::chaos::{ChaosConfig, ChaosInjector};
use smn_telemetry::det::{fnv1a, FNV_OFFSET};
use smn_telemetry::time::{Ts, HOUR};
use smn_topology::gen::{generate_planetary, PlanetaryConfig};

/// MTTR charged to both arms when a window produced no routing at all:
/// nobody was paged, the incident lingers until the next sweep.
const BLIND_WINDOW_MTTR: f64 = 150.0;

/// One chaos profile (mirrors `degraded_mode`).
struct Profile {
    name: &'static str,
    chaos: Option<ChaosConfig>,
    lake: FaultProfile,
    crash_every: Option<usize>,
}

struct ProfileResult {
    name: &'static str,
    total: usize,
    verified: usize,
    rolled_back: usize,
    escalated: usize,
    unrouted: usize,
    disabled_windows: usize,
    crashes: usize,
    mttr_heal_sum: f64,
    mttr_route_sum: f64,
    residual_heal_sum: f64,
    residual_route_sum: f64,
    counters: HealCounters,
    outcome_hash: u64,
}

impl ProfileResult {
    #[allow(clippy::cast_precision_loss, reason = "campaign sizes stay far below 2^52")]
    fn mean(sum: f64, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
    fn mttr_heal(&self) -> f64 {
        Self::mean(self.mttr_heal_sum, self.total)
    }
    fn mttr_route(&self) -> f64 {
        Self::mean(self.mttr_route_sum, self.total)
    }
    fn residual_heal(&self) -> f64 {
        Self::mean(self.residual_heal_sum, self.total)
    }
    fn residual_route(&self) -> f64 {
        Self::mean(self.residual_route_sum, self.total)
    }
}

/// Outage on every 4th incident window (mirrors `degraded_mode`).
fn partition_profile(n_faults: usize) -> FaultProfile {
    let mut p = FaultProfile::reliable().with_error_rate(0.10).with_seed(0x1A7E);
    for i in (0..n_faults as u64).step_by(4) {
        p = p.with_outage(Ts(i * HOUR), Ts((i + 1) * HOUR));
    }
    p
}

struct ObsCtx {
    obs: Arc<Obs>,
    clock: Arc<SimClock>,
    bench: Arc<Obs>,
}

#[allow(clippy::too_many_lines, reason = "linear campaign script: ingest, heal, settle, account")]
fn run_profile(
    d: &RedditDeployment,
    world: &HealWorld<'_>,
    faults: &[FaultSpec],
    sim: &SimConfig,
    p: &Profile,
    ctx: &ObsCtx,
) -> ProfileResult {
    let mut controller = SmnController::with_lake(
        FaultyStore::new(Clds::new(), p.lake.clone()),
        d.cdg.clone(),
        ControllerConfig::default(),
    );
    controller.set_obs(ctx.obs.clone());
    let mut healer = Healer::new(HealConfig::default());
    healer.set_obs(ctx.obs.clone());
    let mut injector: Option<ChaosInjector> =
        p.chaos.clone().map(|c| ChaosInjector::new(c).with_obs(ctx.obs.clone()));

    let mut result = ProfileResult {
        name: p.name,
        total: faults.len(),
        verified: 0,
        rolled_back: 0,
        escalated: 0,
        unrouted: 0,
        disabled_windows: 0,
        crashes: 0,
        mttr_heal_sum: 0.0,
        mttr_route_sum: 0.0,
        residual_heal_sum: 0.0,
        residual_route_sum: 0.0,
        counters: HealCounters::default(),
        outcome_hash: FNV_OFFSET,
    };

    // Per-incident routing decision and settled remediation record.
    let mut routed_teams: Vec<Option<String>> = Vec::with_capacity(faults.len());
    let mut settled: BTreeMap<u64, RemediationRecord> = BTreeMap::new();

    let mut profile_span = ctx.obs.span_with("heal-profile", &[("name", p.name.into())]);
    for (i, fault) in faults.iter().enumerate() {
        let start = Ts(i as u64 * HOUR);
        ctx.clock.set(start.0);
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

        let ((feedback, records), window_ms) = smn_bench::timer::time_ms(|| {
            controller.healing_loop(&mut healer, world, &incident, start, start + HOUR)
        });
        ctx.bench.observe_ms(&format!("heal_window_ms/{}", p.name), window_ms);

        if feedback.iter().any(|f| matches!(f, Feedback::Degraded { .. })) {
            result.disabled_windows += 1;
        }
        let routed = feedback.iter().find_map(|f| match f {
            Feedback::RouteIncident { team, .. } => Some(team.clone()),
            _ => None,
        });
        fnv1a(&mut result.outcome_hash, routed.as_deref().unwrap_or("-").as_bytes());
        routed_teams.push(routed);
        for r in records {
            settled.insert(r.incident_id, r);
        }

        if let Some(n) = p.crash_every {
            if (i + 1) % n == 0 && i + 1 < faults.len() {
                // Kill the pair mid-flight: the joint checkpoint must carry
                // the remediation executed this window but not yet verified.
                let snapshot = serde_json::to_string(&controller.checkpoint_with_healing(&healer))
                    .expect("healing checkpoint serializes");
                let cdg = controller.cdg.clone();
                let (c2, h2) = SmnController::restore_with_healing(
                    controller.into_lake(),
                    cdg,
                    serde_json::from_str(&snapshot).expect("healing checkpoint restores"),
                );
                controller = c2;
                healer = h2;
                controller.set_obs(ctx.obs.clone());
                healer.set_obs(ctx.obs.clone());
                result.crashes += 1;
                ctx.obs.audit(
                    "supervisor",
                    "crash-restore",
                    &[
                        ("profile", p.name.to_string()),
                        ("after_fault", (i + 1).to_string()),
                        ("in_flight", healer.in_flight().len().to_string()),
                    ],
                );
            }
        }
    }
    // Settle the remediation still in flight from the final window.
    for r in healer.resolve(world) {
        settled.insert(r.incident_id, r);
    }

    // Account both arms per incident.
    let heal_seed = healer.config().seed;
    for (fault, routed) in faults.iter().zip(&routed_teams) {
        let route_mttr = routed.as_ref().map_or(BLIND_WINDOW_MTTR, |team| {
            route_to_team_mttr(team == &fault.team, heal_seed, fault.id)
        });
        result.mttr_route_sum += route_mttr;
        result.residual_route_sum += fault.severity;
        if let Some(r) = settled.get(&fault.id) {
            result.mttr_heal_sum += r.mttr_minutes;
            result.residual_heal_sum += r.residual_severity;
            match r.phase {
                RemediationPhase::Verified => result.verified += 1,
                RemediationPhase::RolledBack => result.rolled_back += 1,
                RemediationPhase::Escalated => result.escalated += 1,
            }
        } else {
            // No record: either never routed (blind window, both arms
            // pay the sweep penalty) or healing was disabled under
            // degradation (both arms take the human path).
            if routed.is_none() {
                result.unrouted += 1;
            }
            result.mttr_heal_sum += route_mttr;
            result.residual_heal_sum += fault.severity;
        }
    }
    // Fold the settled records into the determinism fingerprint, id order.
    for (id, r) in &settled {
        fnv1a(&mut result.outcome_hash, &id.to_le_bytes());
        fnv1a(&mut result.outcome_hash, r.phase.name().as_bytes());
        fnv1a(&mut result.outcome_hash, r.action.kind_name().as_bytes());
        fnv1a(&mut result.outcome_hash, &r.mttr_minutes.to_bits().to_le_bytes());
    }
    result.counters = healer.counters();
    profile_span.field("mttr_heal", result.mttr_heal());
    profile_span.field("mttr_route", result.mttr_route());
    result
}

/// `--out FILE` and `--revision REV` plus the degraded-mode export flags,
/// all optional.
struct Args {
    out: String,
    revision: String,
    trace: Option<String>,
    metrics: Option<String>,
    audit: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_self_healing.json".to_string(),
        revision: smn_perf::report::UNVERSIONED.to_string(),
        trace: None,
        metrics: None,
        audit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--out" => args.out = value,
            "--revision" => args.revision = value,
            "--trace" => args.trace = Some(value),
            "--metrics" => args.metrics = Some(value),
            "--audit" => args.audit = Some(value),
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!(
                    "usage: self_healing [--out FILE] [--revision REV] [--trace FILE] [--metrics FILE] [--audit FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

#[allow(
    clippy::too_many_lines,
    reason = "linear experiment script: profiles, table, replay, snapshot"
)]
fn main() {
    let args = parse_args();
    let clock = SimClock::new();
    // The pipeline registry is always on here: the audit-completeness
    // asserts below are part of the bench's contract.
    let ctx =
        ObsCtx { obs: Obs::enabled(clock.clone()), clock, bench: Obs::enabled(SimClock::new()) };

    let d = RedditDeployment::build();
    let campaign_cfg = CampaignConfig::default();
    let sim = SimConfig::default();
    let faults = generate_campaign(&d, &campaign_cfg);

    // The physical world under the deployment: small planetary topology,
    // region coarsening (computed before the stack takes ownership).
    let planetary = generate_planetary(&PlanetaryConfig::small(7));
    let contraction = planetary.wan.contract_by_region();
    let stack = DeploymentStack::bind(&d, planetary.optical, planetary.wan);
    let world =
        HealWorld { deployment: &d, stack: stack.stack(), contraction: &contraction, sim: &sim };

    println!(
        "self-healing evaluation: {} faults x 5 profiles (campaign seed {:#x}, heal seed {:#x})\n",
        faults.len(),
        campaign_cfg.seed,
        HealConfig::default().seed
    );

    let telemetry_chaos =
        ChaosConfig::clean(0xC4A0).with_loss(0.30).with_duplication(0.05).with_reordering(0.5, 600);
    let profiles = [
        Profile { name: "clean", chaos: None, lake: FaultProfile::reliable(), crash_every: None },
        Profile {
            name: "telemetry-chaos",
            chaos: Some(telemetry_chaos.clone()),
            lake: FaultProfile::reliable(),
            crash_every: None,
        },
        Profile {
            name: "lake-partition",
            chaos: None,
            lake: partition_profile(faults.len()),
            crash_every: None,
        },
        Profile {
            name: "controller-crash",
            chaos: None,
            lake: FaultProfile::reliable(),
            crash_every: Some(50),
        },
        Profile {
            name: "perfect-storm",
            chaos: Some(telemetry_chaos),
            lake: partition_profile(faults.len()),
            crash_every: Some(50),
        },
    ];

    let results: Vec<ProfileResult> =
        profiles.iter().map(|p| run_profile(&d, &world, &faults, &sim, p, &ctx)).collect();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.1}m", r.mttr_heal()),
                format!("{:.1}m", r.mttr_route()),
                format!("{:+.1}m", r.mttr_heal() - r.mttr_route()),
                r.verified.to_string(),
                r.rolled_back.to_string(),
                r.escalated.to_string(),
                r.unrouted.to_string(),
                r.disabled_windows.to_string(),
                format!("{:.3}/{:.3}", r.residual_heal(), r.residual_route()),
                format!("{:016x}", r.outcome_hash),
            ]
        })
        .collect();
    println!(
        "{}",
        smn_bench::render_table(
            &[
                "profile",
                "MTTR heal",
                "MTTR route",
                "delta",
                "verified",
                "rolled back",
                "escalated",
                "unrouted",
                "disabled",
                "residual h/r",
                "outcome hash"
            ],
            &rows,
        )
    );

    println!("healing-loop wall latency per window:");
    for p in &profiles {
        if let Some(h) = ctx.bench.histogram(&format!("heal_window_ms/{}", p.name)) {
            println!(
                "  {:<18} n={:<5} mean={:.3}ms p50≤{:.2}ms p99≤{:.2}ms",
                p.name,
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
            );
        }
    }

    // Determinism: the harshest profile must replay to the same hash.
    let replay = run_profile(&d, &world, &faults, &sim, &profiles[4], &ctx);
    assert_eq!(
        replay.outcome_hash, results[4].outcome_hash,
        "self-healing replay diverged under a fixed seed"
    );
    println!(
        "\ndeterminism: perfect-storm replay reproduced outcome hash {:016x}",
        replay.outcome_hash
    );

    // Audit completeness: every remediation step of every run (including
    // the replay) must be present in the smn-obs audit trail — one audit
    // record per plan, escalate, execute, verify, rollback, and
    // enable/disable transition.
    let mut expected_audits = 0u64;
    for c in results.iter().map(|r| r.counters).chain(std::iter::once(replay.counters)) {
        expected_audits +=
            c.planned + c.escalated + 2 * c.executed + c.rolled_back + c.disables + c.enables;
        assert_eq!(
            c.executed,
            c.verified + c.rolled_back,
            "every executed remediation must settle as verified or rolled back"
        );
    }
    let heal_audits =
        ctx.obs.audit_jsonl().lines().filter(|l| l.contains("\"heal/engine\"")).count() as u64;
    assert_eq!(
        heal_audits, expected_audits,
        "audit trail must record every plan/execute/verify/rollback step"
    );
    println!("audit completeness: {heal_audits} heal/engine records, as expected");

    // The headline claim: healing strictly reduces mean MTTR on >= 3/5.
    let improved = results.iter().filter(|r| r.mttr_heal() < r.mttr_route()).count();
    println!("\nhealing strictly reduces MTTR on {improved}/5 profiles");
    assert!(improved >= 3, "healing must strictly reduce MTTR on at least 3 of 5 profiles");

    // Perf-trajectory snapshot (unified BenchReport schema).
    #[allow(clippy::cast_precision_loss, reason = "campaign counters stay far below 2^52")]
    let report = {
        let mut report = smn_perf::BenchReport::new("self_healing", campaign_cfg.seed, "small")
            .with_revision(&args.revision);
        report.push_metric("campaign/n_faults", faults.len() as f64, "count");
        report.push_metric("campaign/heal_seed", HealConfig::default().seed as f64, "seed");
        report.push_metric("mttr_improved_profiles", improved as f64, "count");
        for r in &results {
            report.push_metric(&format!("{}/mttr_heal_mean", r.name), r.mttr_heal(), "minutes");
            report.push_metric(&format!("{}/mttr_route_mean", r.name), r.mttr_route(), "minutes");
            report.push_metric(
                &format!("{}/residual_heal_mean", r.name),
                r.residual_heal(),
                "frac",
            );
            report.push_metric(
                &format!("{}/residual_route_mean", r.name),
                r.residual_route(),
                "frac",
            );
            report.push_metric(&format!("{}/verified", r.name), r.verified as f64, "count");
            report.push_metric(&format!("{}/rolled_back", r.name), r.rolled_back as f64, "count");
            report.push_metric(&format!("{}/escalated", r.name), r.escalated as f64, "count");
            report.push_metric(&format!("{}/unrouted", r.name), r.unrouted as f64, "count");
            report.push_metric(
                &format!("{}/disabled_windows", r.name),
                r.disabled_windows as f64,
                "count",
            );
            report.push_metric(&format!("{}/crashes", r.name), r.crashes as f64, "count");
            report
                .push_attr(&format!("{}/outcome_hash", r.name), format!("{:016x}", r.outcome_hash));
            if let Some(p) = smn_bench::wall_phase(
                &ctx.bench,
                &format!("heal_window_ms/{}", r.name),
                &format!("heal_window/{}", r.name),
            ) {
                report.push_phase(p);
            }
        }
        report
    };
    smn_bench::write_report(&args.out, &report);

    if let Some(path) = &args.trace {
        std::fs::write(path, ctx.obs.trace_jsonl()).expect("write trace");
        println!("trace:   {} events -> {path}", ctx.obs.trace_len());
    }
    if let Some(path) = &args.metrics {
        std::fs::write(path, ctx.obs.metrics_text()).expect("write metrics");
        println!("metrics: snapshot -> {path}");
    }
    if let Some(path) = &args.audit {
        std::fs::write(path, ctx.obs.audit_jsonl()).expect("write audit");
        println!("audit:   {} decisions -> {path}", ctx.obs.audit_len());
    }
}
