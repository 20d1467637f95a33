//! Coverage sweep: generated vs fixed fault campaigns across the five
//! degraded-mode chaos profiles.
//!
//! Replays both campaigns — the coverage-guided generated campaign (one
//! fault per reachable lattice cell, with topology-locus annotations)
//! and the fixed 560-fault workload campaign — through the real
//! controller under the same five control-plane chaos profiles as
//! `degraded_mode` and `self_healing` (clean / telemetry-chaos /
//! lake-partition / controller-crash / perfect-storm), and compares,
//! per profile and campaign:
//!
//! * **lattice coverage** — exercised cells over the reachable lattice,
//!   read from the audit trail (`smn_coverage::replay_campaign`), never
//!   from the campaign spec;
//! * **incident routing** — windows routed to the ground-truth team,
//!   degraded windows, and controller crash-restores;
//! * **heal vs route MTTR** — the same two recovery arms as
//!   `self_healing`, measured on a healing-loop pass over the same
//!   campaign under the same profile.
//!
//! The run asserts determinism (the generated campaign replays to the
//! same outcome hash under perfect-storm) and the headline claim: on the
//! clean profile the generated campaign strictly out-covers the fixed
//! baseline while being an order of magnitude smaller. Results land in
//! `BENCH_coverage.json` (see `--out`).
//!
//! Run with: `cargo run --release --bin coverage_sweep -- [--out FILE]`

use std::collections::BTreeMap;

use smn_core::controller::{ControllerConfig, Feedback, SmnController};
use smn_coverage::{
    campaign_lake_profile, generate_covering_campaign, replay_campaign, CoverageReport,
    FaultLattice, GeneratorConfig, ReplayConfig,
};
use smn_datalake::fault::{FaultProfile, FaultyStore};
use smn_datalake::store::Clds;
use smn_heal::{route_to_team_mttr, HealConfig, HealWorld, Healer, RemediationRecord};
use smn_incident::faults::{generate_campaign, CampaignConfig, FaultKind, FaultSpec};
use smn_incident::monitoring::materialize;
use smn_incident::sim::{observe, SimConfig};
use smn_incident::{DeploymentStack, RedditDeployment};
use smn_telemetry::chaos::{ChaosConfig, ChaosInjector};
use smn_telemetry::time::{Ts, HOUR};
use smn_topology::EdgeId;

/// MTTR charged to both arms when a window produced no routing at all
/// (mirrors `self_healing`).
const BLIND_WINDOW_MTTR: f64 = 150.0;

/// One chaos profile. The lake partition schedule depends on campaign
/// length, so it is materialized per run rather than stored here.
struct Profile {
    name: &'static str,
    chaos: Option<ChaosConfig>,
    partition: bool,
    crash_every: Option<usize>,
}

impl Profile {
    fn lake(&self, n_faults: usize) -> FaultProfile {
        if self.partition {
            partition_profile(n_faults)
        } else {
            FaultProfile::reliable()
        }
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

/// One campaign replayed under one profile.
struct CampaignRun {
    covered: u64,
    reachable: u64,
    coverage_pct: f64,
    total: usize,
    routed_correct: usize,
    degraded_windows: usize,
    crashes: usize,
    mttr_heal: f64,
    mttr_route: f64,
    outcome_hash: u64,
}

/// The heal arm: a compact healing-loop pass over the campaign under the
/// profile's ambient conditions (the `self_healing` campaign script minus
/// the observability plumbing), returning mean heal-arm and route-arm
/// MTTR over the whole campaign.
#[allow(clippy::too_many_lines, reason = "linear campaign script: ingest, heal, settle, account")]
fn heal_pass(
    d: &RedditDeployment,
    world: &HealWorld<'_>,
    faults: &[FaultSpec],
    sim: &SimConfig,
    p: &Profile,
) -> (f64, f64) {
    let lake = campaign_lake_profile(&p.lake(faults.len()), faults);
    let mut controller = SmnController::with_lake(
        FaultyStore::new(Clds::new(), lake),
        d.cdg.clone(),
        ControllerConfig::default(),
    );
    let mut healer = Healer::new(HealConfig::default());
    let mut injector: Option<ChaosInjector> = p.chaos.clone().map(ChaosInjector::new);

    let mut routed_teams: Vec<Option<String>> = Vec::with_capacity(faults.len());
    let mut settled: BTreeMap<u64, RemediationRecord> = BTreeMap::new();

    for (i, fault) in faults.iter().enumerate() {
        let start = Ts(i as u64 * HOUR);
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

        let (feedback, records) =
            controller.healing_loop(&mut healer, world, &incident, start, start + HOUR);
        routed_teams.push(feedback.iter().find_map(|f| match f {
            Feedback::RouteIncident { team, .. } => Some(team.clone()),
            _ => None,
        }));
        for r in records {
            settled.insert(r.incident_id, r);
        }

        // Crash the pair on ControllerCrash faults and on the ambient
        // schedule, restoring through the joint healing checkpoint.
        let fault_crash = fault.kind == FaultKind::ControllerCrash;
        let ambient_crash = p.crash_every.is_some_and(|n| (i + 1) % n == 0 && i + 1 < faults.len());
        if fault_crash || ambient_crash {
            if let Ok(snapshot) =
                serde_json::to_string(&controller.checkpoint_with_healing(&healer))
            {
                if let Ok(cp) = serde_json::from_str(&snapshot) {
                    let cdg = controller.cdg.clone();
                    let (c2, h2) =
                        SmnController::restore_with_healing(controller.into_lake(), cdg, cp);
                    controller = c2;
                    healer = h2;
                }
            }
        }
    }
    for r in healer.resolve(world) {
        settled.insert(r.incident_id, r);
    }

    // Account both arms per incident (mirrors `self_healing`): the route
    // arm always takes the human path; the heal arm takes the settled
    // remediation when one exists and collapses to the human path when
    // healing was disabled or the window went unrouted.
    let heal_seed = healer.config().seed;
    let (mut heal_sum, mut route_sum) = (0.0f64, 0.0f64);
    for (fault, routed) in faults.iter().zip(&routed_teams) {
        let route_mttr = routed.as_ref().map_or(BLIND_WINDOW_MTTR, |team| {
            route_to_team_mttr(team == &fault.team, heal_seed, fault.id)
        });
        route_sum += route_mttr;
        heal_sum += settled.get(&fault.id).map_or(route_mttr, |r| r.mttr_minutes);
    }
    #[allow(clippy::cast_precision_loss, reason = "campaign sizes stay far below 2^52")]
    let n = faults.len().max(1) as f64;
    (heal_sum / n, route_sum / n)
}

#[allow(clippy::too_many_arguments, reason = "bench plumbing: world + campaign + profile")]
fn run_campaign(
    d: &RedditDeployment,
    ds: &DeploymentStack,
    lattice: &FaultLattice,
    world: &HealWorld<'_>,
    label: &str,
    seed: u64,
    faults: &[FaultSpec],
    loci: &[(u64, EdgeId)],
    sim: &SimConfig,
    p: &Profile,
) -> CampaignRun {
    let cfg = ReplayConfig {
        chaos: p.chaos.clone(),
        lake: p.lake(faults.len()),
        crash_every: p.crash_every,
    };
    let outcome = replay_campaign(d, ds, lattice, faults, loci, sim, &cfg);
    let report = CoverageReport::build(label, seed, faults.len(), lattice, &outcome.map);
    let (mttr_heal, mttr_route) = heal_pass(d, world, faults, sim, p);
    CampaignRun {
        covered: report.covered,
        reachable: report.reachable,
        coverage_pct: report.ratio_pct(),
        total: outcome.total,
        routed_correct: outcome.routed_correct,
        degraded_windows: outcome.degraded_windows,
        crashes: outcome.crashes,
        mttr_heal,
        mttr_route,
        outcome_hash: outcome.outcome_hash,
    }
}

#[allow(clippy::cast_precision_loss, reason = "campaign sizes stay far below 2^52")]
fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Push one campaign run's deterministic outcomes into the report under
/// `prefix` (`"{profile}/generated"` or `"{profile}/fixed"`).
#[allow(clippy::cast_precision_loss, reason = "campaign counters stay far below 2^52")]
fn push_run(report: &mut smn_perf::BenchReport, prefix: &str, r: &CampaignRun) {
    report.push_metric(&format!("{prefix}/coverage_pct"), r.coverage_pct, "pct");
    report.push_metric(&format!("{prefix}/covered_cells"), r.covered as f64, "count");
    report.push_metric(&format!("{prefix}/reachable_cells"), r.reachable as f64, "count");
    report.push_metric(&format!("{prefix}/n_faults"), r.total as f64, "count");
    report.push_metric(&format!("{prefix}/routed_correct"), r.routed_correct as f64, "count");
    report.push_metric(
        &format!("{prefix}/routing_accuracy_pct"),
        pct(r.routed_correct, r.total),
        "pct",
    );
    report.push_metric(&format!("{prefix}/degraded_windows"), r.degraded_windows as f64, "count");
    report.push_metric(&format!("{prefix}/crashes"), r.crashes as f64, "count");
    report.push_metric(&format!("{prefix}/mttr_heal_mean"), r.mttr_heal, "minutes");
    report.push_metric(&format!("{prefix}/mttr_route_mean"), r.mttr_route, "minutes");
    report.push_attr(&format!("{prefix}/outcome_hash"), format!("{:016x}", r.outcome_hash));
}

fn parse_args() -> (String, String) {
    let mut out = "BENCH_coverage.json".to_string();
    let mut revision = smn_perf::report::UNVERSIONED.to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => {
                let Some(v) = it.next() else {
                    eprintln!("--out requires a file path");
                    std::process::exit(2);
                };
                out = v;
            }
            "--revision" => {
                let Some(v) = it.next() else {
                    eprintln!("--revision requires a value");
                    std::process::exit(2);
                };
                revision = v;
            }
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: coverage_sweep [--out FILE] [--revision REV]");
                std::process::exit(2);
            }
        }
    }
    (out, revision)
}

#[allow(
    clippy::too_many_lines,
    reason = "linear experiment script: profiles, table, replay, snapshot"
)]
fn main() {
    let (out, revision) = parse_args();

    let d = RedditDeployment::build();
    let sim = SimConfig::default();
    let planetary = smn_bench::planetary_small();
    let contraction = planetary.wan.contract_by_region();
    let ds = DeploymentStack::bind(&d, planetary.optical, planetary.wan);
    let lattice = FaultLattice::build(&d, &ds);
    let world =
        HealWorld { deployment: &d, stack: ds.stack(), contraction: &contraction, sim: &sim };

    let gen_cfg = GeneratorConfig::default();
    let generated = generate_covering_campaign(&d, &ds, &lattice, &gen_cfg);
    let fixed_cfg = CampaignConfig::default();
    let fixed = generate_campaign(&d, &fixed_cfg);

    println!(
        "coverage sweep: generated {} faults (seed {:#x}) vs fixed {} faults (seed {:#x}), {} reachable cells x 5 profiles\n",
        generated.faults.len(),
        gen_cfg.seed,
        fixed.len(),
        fixed_cfg.seed,
        lattice.reachable().len(),
    );

    let telemetry_chaos =
        ChaosConfig::clean(0xC4A0).with_loss(0.30).with_duplication(0.05).with_reordering(0.5, 600);
    let profiles: [Profile; 5] = [
        Profile { name: "clean", chaos: None, partition: false, crash_every: None },
        Profile {
            name: "telemetry-chaos",
            chaos: Some(telemetry_chaos.clone()),
            partition: false,
            crash_every: None,
        },
        Profile { name: "lake-partition", chaos: None, partition: true, crash_every: None },
        Profile { name: "controller-crash", chaos: None, partition: false, crash_every: Some(50) },
        Profile {
            name: "perfect-storm",
            chaos: Some(telemetry_chaos),
            partition: true,
            crash_every: Some(50),
        },
    ];

    let mut report = smn_perf::BenchReport::new("coverage_sweep", gen_cfg.seed, "small")
        .with_revision(&revision);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut results: Vec<(CampaignRun, CampaignRun)> = Vec::new();
    for p in &profiles {
        let ((g, f), wall_ms) = smn_bench::timer::time_ms(|| {
            let g = run_campaign(
                &d,
                &ds,
                &lattice,
                &world,
                "generated",
                gen_cfg.seed,
                &generated.faults,
                &generated.loci,
                &sim,
                p,
            );
            let f = run_campaign(
                &d,
                &ds,
                &lattice,
                &world,
                "fixed-560",
                fixed_cfg.seed,
                &fixed,
                &[],
                &sim,
                p,
            );
            (g, f)
        });
        rows.push(vec![
            p.name.to_string(),
            format!("{:.0}% / {:.0}%", g.coverage_pct, f.coverage_pct),
            format!(
                "{:.0}% / {:.0}%",
                pct(g.routed_correct, g.total),
                pct(f.routed_correct, f.total)
            ),
            format!("{} / {}", g.degraded_windows, f.degraded_windows),
            format!("{} / {}", g.crashes, f.crashes),
            format!("{:+.1}m / {:+.1}m", g.mttr_heal - g.mttr_route, f.mttr_heal - f.mttr_route),
            format!("{:.0}ms", wall_ms),
        ]);
        push_run(&mut report, &format!("{}/generated", p.name), &g);
        push_run(&mut report, &format!("{}/fixed", p.name), &f);
        report.push_phase(smn_perf::Phase::from_wall_stats(
            &format!("profile/{}", p.name),
            1,
            wall_ms,
            wall_ms,
        ));
        results.push((g, f));
    }

    println!(
        "{}",
        smn_bench::render_table(
            &[
                "profile",
                "coverage g/f",
                "routed g/f",
                "degraded g/f",
                "crashes g/f",
                "heal-route delta g/f",
                "wall",
            ],
            &rows,
        )
    );

    // Determinism: the generated campaign under the harshest profile must
    // replay to the same outcome hash.
    let storm = &profiles[4];
    let replay = replay_campaign(
        &d,
        &ds,
        &lattice,
        &generated.faults,
        &generated.loci,
        &sim,
        &ReplayConfig {
            chaos: storm.chaos.clone(),
            lake: storm.lake(generated.faults.len()),
            crash_every: storm.crash_every,
        },
    );
    assert_eq!(
        replay.outcome_hash, results[4].0.outcome_hash,
        "generated-campaign replay diverged under a fixed seed"
    );
    println!(
        "\ndeterminism: perfect-storm replay reproduced outcome hash {:016x}",
        replay.outcome_hash
    );

    // The headline claim: on the clean profile the generated campaign
    // strictly out-covers the fixed baseline at a fraction of its size,
    // and out-covers it on every profile besides.
    let (clean_g, clean_f) = &results[0];
    assert!(
        clean_g.coverage_pct > clean_f.coverage_pct,
        "generated campaign must out-cover the fixed baseline on the clean profile"
    );
    assert!(
        clean_g.total * 10 <= clean_f.total,
        "generated campaign must be at least 10x smaller than the fixed baseline"
    );
    let out_covered = results.iter().filter(|(g, f)| g.coverage_pct >= f.coverage_pct).count();
    println!(
        "headline: generated covers {:.0}% vs fixed {:.0}% on clean with {}x fewer faults; >= fixed on {}/5 profiles",
        clean_g.coverage_pct,
        clean_f.coverage_pct,
        clean_f.total / clean_g.total.max(1),
        out_covered,
    );

    #[allow(clippy::cast_precision_loss, reason = "campaign counters stay far below 2^52")]
    {
        report.push_metric("campaigns/generated_faults", generated.faults.len() as f64, "count");
        report.push_metric("campaigns/fixed_faults", fixed.len() as f64, "count");
        report.push_metric("campaigns/fixed_seed", fixed_cfg.seed as f64, "seed");
        report.push_metric("campaigns/reachable_cells", lattice.reachable().len() as f64, "count");
        report.push_metric("out_covered_profiles", out_covered as f64, "count");
    }
    smn_bench::write_report(&out, &report);
}
