//! Degraded-mode evaluation: the 560-fault incident-routing campaign
//! rerun under chaos (§1 war stories meet §6 reliability).
//!
//! Each profile replays the exact same campaign — same faults, same
//! observation noise — through the SMN controller's incident loop, but
//! with the control plane itself under attack:
//!
//! * **clean** — reliable telemetry and lake; the accuracy baseline.
//! * **telemetry-chaos** — 30% alert/probe loss, 5% duplication, heavy
//!   reordering with bounded lateness, injected before CLDS ingest.
//! * **lake-partition** — the CLDS drops every 4th incident window
//!   entirely and fails 10% of queries transiently.
//! * **controller-crash** — the controller is killed and restored from
//!   a serde checkpoint every 50 faults, mid-campaign.
//! * **perfect-storm** — all three at once.
//!
//! The table reports routing accuracy, the delta vs the clean baseline,
//! how many `Feedback::Degraded` events the controller emitted, and the
//! resilience counters (circuit-breaker trips, retries). Every profile
//! is seeded; the telemetry-chaos profile is run twice and its outcome
//! hashes compared to prove determinism.
//!
//! # Observability
//!
//! With `--trace`, `--metrics`, or `--audit`, the campaign runs with an
//! enabled `smn_obs::Obs` driven by a sim-time clock (one tick per fault
//! window) and exports the JSONL trace, Prometheus metrics snapshot, and
//! controller audit trail to the given paths. These artifacts are
//! deterministic: two runs with the same seeds write identical bytes
//! (`tests/observability.rs` locks this in; CI uploads the trace).
//! Wall-clock per-window latencies are measured through `smn_bench::timer`
//! into a *separate* bench-only registry and printed to stdout — they
//! never enter the deterministic artifacts.
//!
//! Run with: `cargo run --release --bin degraded_mode -- [--trace FILE]
//! [--metrics FILE] [--audit FILE]`

use std::sync::Arc;

use smn_core::controller::{ControllerConfig, Feedback, SmnController};
use smn_datalake::fault::{FaultProfile, FaultyStore};
use smn_datalake::store::Clds;
use smn_incident::faults::{generate_campaign, CampaignConfig, FaultSpec};
use smn_incident::monitoring::materialize;
use smn_incident::sim::{observe, SimConfig};
use smn_incident::RedditDeployment;
use smn_obs::clock::SimClock;
use smn_obs::Obs;
use smn_telemetry::chaos::{ChaosConfig, ChaosInjector};
use smn_telemetry::det::{fnv1a, FNV_OFFSET};
use smn_telemetry::time::{Ts, HOUR};

/// One chaos profile for a full campaign replay.
struct Profile {
    name: &'static str,
    /// Chaos applied to materialized alerts + probes before ingest.
    chaos: Option<ChaosConfig>,
    /// Fault profile on the controller's data lake.
    lake: FaultProfile,
    /// Crash + checkpoint-restore the controller every N faults.
    crash_every: Option<usize>,
}

struct ProfileResult {
    name: &'static str,
    correct: usize,
    total: usize,
    degraded: usize,
    breaker_trips: u64,
    retries: u64,
    dropped_records: usize,
    crashes: usize,
    /// FNV-1a over the per-fault routing decisions: the determinism
    /// fingerprint of the whole run.
    outcome_hash: u64,
}

impl ProfileResult {
    #[allow(clippy::cast_precision_loss, reason = "campaign sizes stay far below 2^52")]
    fn accuracy(&self) -> f64 {
        self.correct as f64 / self.total as f64
    }
}

/// Outage on every 4th incident window: a partitioned lake shard.
fn partition_profile(n_faults: usize) -> FaultProfile {
    let mut p = FaultProfile::reliable().with_error_rate(0.10).with_seed(0x1A7E);
    for i in (0..n_faults as u64).step_by(4) {
        p = p.with_outage(Ts(i * HOUR), Ts((i + 1) * HOUR));
    }
    p
}

/// Observability context threaded through a profile run: the deterministic
/// pipeline registry (sim-time stamped, exported to files) and the
/// bench-only wall-clock registry (stdout only).
struct ObsCtx {
    obs: Arc<Obs>,
    clock: Arc<SimClock>,
    bench: Arc<Obs>,
}

fn run_profile(
    d: &RedditDeployment,
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
    let mut injector: Option<ChaosInjector> =
        p.chaos.clone().map(|c| ChaosInjector::new(c).with_obs(ctx.obs.clone()));
    let mut result = ProfileResult {
        name: p.name,
        correct: 0,
        total: faults.len(),
        degraded: 0,
        breaker_trips: 0,
        retries: 0,
        dropped_records: 0,
        crashes: 0,
        outcome_hash: FNV_OFFSET,
    };

    let mut profile_span = ctx.obs.span_with("profile", &[("name", p.name.into())]);
    for (i, fault) in faults.iter().enumerate() {
        let start = Ts(i as u64 * HOUR);
        ctx.clock.set(start.0);
        let obs = observe(d, fault, sim);
        let telemetry = materialize(d, &obs, sim, start);

        let (mut alerts, mut probes) = (telemetry.alerts, telemetry.probes);
        if let Some(inj) = injector.as_mut() {
            let a = inj.apply(&alerts);
            let b = inj.apply(&probes);
            result.dropped_records += a.report.dropped + b.report.dropped;
            alerts = a.records;
            probes = b.records;
        }
        // The CLDS is a time-ordered store: ingestion normalizes the
        // arrival stream back into timestamp order, so reordering chaos
        // stresses the sorter while loss and duplication reach the
        // syndrome. Materialized health is already ordered.
        alerts.sort_by_key(|a| a.ts);
        probes.sort_by_key(|r| r.ts);
        controller.clds().alerts.write().extend(alerts);
        controller.clds().probes.write().extend(probes);
        controller.clds().health.write().extend(telemetry.health);

        let (feedback, window_ms) =
            smn_bench::timer::time_ms(|| controller.incident_loop(start, start + HOUR));
        ctx.bench.observe_ms(&format!("window_ms/{}", p.name), window_ms);
        let routed = feedback.iter().find_map(|f| match f {
            Feedback::RouteIncident { team, .. } => Some(team.as_str()),
            _ => None,
        });
        if routed == Some(fault.team.as_str()) {
            result.correct += 1;
        }
        result.degraded +=
            feedback.iter().filter(|f| matches!(f, Feedback::Degraded { .. })).count();
        fnv1a(&mut result.outcome_hash, routed.unwrap_or("-").as_bytes());

        if let Some(n) = p.crash_every {
            if (i + 1) % n == 0 && i + 1 < faults.len() {
                // Kill the controller: persist the checkpoint through
                // serde (as a supervisor would), drop the instance, and
                // restore over the surviving lake.
                let snapshot =
                    serde_json::to_string(&controller.checkpoint()).expect("checkpoint serializes");
                let resilience = controller.resilience();
                result.breaker_trips += resilience.breaker.trips;
                result.retries += resilience.total_retries;
                let cdg = controller.cdg.clone();
                controller = SmnController::restore(
                    controller.into_lake(),
                    cdg,
                    serde_json::from_str(&snapshot).expect("checkpoint restores"),
                );
                controller.set_obs(ctx.obs.clone());
                result.crashes += 1;
                ctx.obs.inc("controller_crashes_total");
                ctx.obs.audit(
                    "supervisor",
                    "crash-restore",
                    &[("profile", p.name.to_string()), ("after_fault", (i + 1).to_string())],
                );
            }
        }
    }

    let resilience = controller.resilience();
    result.breaker_trips += resilience.breaker.trips;
    result.retries += resilience.total_retries;
    profile_span.field("accuracy", result.accuracy());
    profile_span.field("degraded", result.degraded);
    result
}

/// `--out FILE` (perf-trajectory snapshot, on by default) plus
/// `--revision REV` and `--trace FILE --metrics FILE --audit FILE`, all
/// optional.
struct Args {
    out: String,
    revision: String,
    trace: Option<String>,
    metrics: Option<String>,
    audit: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_degraded_mode.json".to_string(),
        revision: smn_perf::report::UNVERSIONED.to_string(),
        trace: None,
        metrics: None,
        audit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(path) = it.next() else {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--out" => args.out = path,
            "--revision" => args.revision = path,
            "--trace" => args.trace = Some(path),
            "--metrics" => args.metrics = Some(path),
            "--audit" => args.audit = Some(path),
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!(
                    "usage: degraded_mode [--out FILE] [--revision REV] [--trace FILE] [--metrics FILE] [--audit FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

#[allow(
    clippy::too_many_lines,
    reason = "linear experiment script: profiles, table, replay, export"
)]
fn main() {
    let args = parse_args();
    let export = args.trace.is_some() || args.metrics.is_some() || args.audit.is_some();
    let clock = SimClock::new();
    let ctx = ObsCtx {
        obs: if export { Obs::enabled(clock.clone()) } else { Obs::disabled() },
        clock,
        // Wall-clock latencies always print; they stay out of the
        // deterministic artifacts by living in their own registry.
        bench: Obs::enabled(SimClock::new()),
    };

    let d = RedditDeployment::build();
    let campaign_cfg = CampaignConfig::default();
    let sim = SimConfig::default();
    let faults = generate_campaign(&d, &campaign_cfg);
    println!(
        "degraded-mode evaluation: {} faults x {} profiles (campaign seed {:#x})\n",
        faults.len(),
        5,
        campaign_cfg.seed
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
        profiles.iter().map(|p| run_profile(&d, &faults, &sim, p, &ctx)).collect();
    let baseline = results[0].accuracy();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.1}%", 100.0 * r.accuracy()),
                format!("{:+.1}pp", 100.0 * (r.accuracy() - baseline)),
                r.degraded.to_string(),
                r.breaker_trips.to_string(),
                r.retries.to_string(),
                r.dropped_records.to_string(),
                r.crashes.to_string(),
                format!("{:016x}", r.outcome_hash),
            ]
        })
        .collect();
    println!(
        "{}",
        smn_bench::render_table(
            &[
                "profile",
                "accuracy",
                "vs clean",
                "degraded fb",
                "breaker trips",
                "retries",
                "dropped",
                "crashes",
                "outcome hash"
            ],
            &rows,
        )
    );

    // Per-profile incident-loop wall latency (bench registry, stdout only).
    println!("incident-loop wall latency per window:");
    for p in &profiles {
        if let Some(h) = ctx.bench.histogram(&format!("window_ms/{}", p.name)) {
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

    // Determinism: replaying the harshest seeded profile must reproduce
    // the exact routing decisions, bit for bit.
    let replay = run_profile(&d, &faults, &sim, &profiles[4], &ctx);
    assert_eq!(
        replay.outcome_hash, results[4].outcome_hash,
        "chaos replay diverged under a fixed seed"
    );
    println!(
        "\ndeterminism: perfect-storm replay reproduced outcome hash {:016x}",
        replay.outcome_hash
    );

    // Perf-trajectory snapshot (unified BenchReport schema): deterministic
    // per-profile counters as strictly-gated metrics, outcome hashes as
    // attrs, and the bench-only wall latencies as ungated phases.
    #[allow(clippy::cast_precision_loss, reason = "campaign counters stay far below 2^52")]
    let report = {
        let mut report = smn_perf::BenchReport::new("degraded_mode", campaign_cfg.seed, "small")
            .with_revision(&args.revision);
        report.push_metric("campaign/n_faults", faults.len() as f64, "count");
        for r in &results {
            report.push_metric(&format!("{}/accuracy", r.name), r.accuracy(), "frac");
            report.push_metric(
                &format!("{}/degraded_feedback", r.name),
                r.degraded as f64,
                "count",
            );
            report.push_metric(
                &format!("{}/breaker_trips", r.name),
                r.breaker_trips as f64,
                "count",
            );
            report.push_metric(&format!("{}/retries", r.name), r.retries as f64, "count");
            report.push_metric(
                &format!("{}/dropped_records", r.name),
                r.dropped_records as f64,
                "count",
            );
            report.push_metric(&format!("{}/crashes", r.name), r.crashes as f64, "count");
            report
                .push_attr(&format!("{}/outcome_hash", r.name), format!("{:016x}", r.outcome_hash));
            if let Some(p) = smn_bench::wall_phase(
                &ctx.bench,
                &format!("window_ms/{}", r.name),
                &format!("window/{}", r.name),
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
