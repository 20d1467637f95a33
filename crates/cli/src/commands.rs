//! Subcommand implementations for the `smn` CLI.

use std::collections::{BTreeMap, HashMap};

use smn_core::bwlogs::{TimeCoarsener, TopologyCoarsener};
use smn_core::coarsen::Coarsening;
use smn_core::controller::{ControllerConfig, Feedback, SmnController};
use smn_core::simulation::{SimulationConfig, SmnSimulation};
use smn_core::stream::{DeltaJournal, StreamConfig, StreamError, StreamState, TickOutcome};
use smn_coverage::{
    generate_covering_campaign, replay_campaign, CoverageReport, FaultLattice, GeneratedCampaign,
    GeneratorConfig, ReplayConfig,
};
use smn_depgraph::coarse::CoarseDepGraph;
use smn_depgraph::delta::GraphDelta;
use smn_depgraph::dot::cdg_to_dot;
use smn_depgraph::fine::{Component, DependencyKind, Layer};
use smn_depgraph::syndrome::Explainability;
use smn_heal::{route_to_team_mttr, Diagnosis, HealConfig, HealWorld, Healer, RemediationPhase};
use smn_incident::faults::{
    generate_campaign, CampaignArtifact, CampaignConfig, FaultKind, FaultSpec,
};
use smn_incident::sim::{observe, SimConfig};
use smn_incident::{DeploymentStack, RedditDeployment};
use smn_obs::clock::SimClock;
use smn_obs::Obs;
use smn_te::demand::DemandMatrix;
use smn_te::mcf::{greedy_min_max_utilization, TeConfig};
use smn_telemetry::delta::TelemetryDelta;
use smn_telemetry::series::Statistic;
use smn_telemetry::time::Ts;
use smn_telemetry::traffic::{TrafficConfig, TrafficModel};
use smn_topology::gen::{generate_planetary, PlanetaryConfig};
use smn_topology::EdgeId;

/// Parse `--flag N` style options; unknown flags are errors.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, u64>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if name == "full" {
                out.insert("full".to_string(), 1);
                continue;
            }
            if !allowed.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let v = it
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .parse::<u64>()
                .map_err(|_| format!("--{name} needs a number"))?;
            out.insert(name.to_string(), v);
        } else {
            return Err(format!("unexpected argument '{a}'"));
        }
    }
    Ok(out)
}

/// `smn topology` — generate and describe a planetary WAN.
pub fn topology(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["seed", "full"])?;
    let seed = flags.get("seed").copied().unwrap_or(7);
    let cfg = if flags.contains_key("full") {
        PlanetaryConfig { seed, ..PlanetaryConfig::default() }
    } else {
        PlanetaryConfig::small(seed)
    };
    let p = generate_planetary(&cfg);
    let regions = p.wan.contract_by_region();
    let continents = p.wan.contract_by_continent();
    println!("planetary WAN (seed {seed}):");
    println!("  datacenters:  {}", p.wan.dc_count());
    println!("  links:        {}", p.wan.link_count());
    println!("  regions:      {}", regions.graph.node_count());
    println!("  continents:   {}", continents.graph.node_count());
    println!("  fiber spans:  {}", p.optical.spans().len());
    println!("  wavelengths:  {}", p.optical.wavelengths().len());
    let subsea = p.optical.spans().iter().filter(|s| s.submarine).count();
    println!("  subsea spans: {subsea}");
    Ok(())
}

/// `smn coarsen` — coarsening summary over generated logs.
pub fn coarsen(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["days"])?;
    let days = flags.get("days").copied().unwrap_or(3);
    let p = generate_planetary(&PlanetaryConfig::small(7));
    let model = TrafficModel::new(&p.wan, TrafficConfig::default());
    let log = model.generate(Ts(0), TrafficModel::epochs_per_days(days));
    println!("{days} days, {} pairs, {} raw rows", model.pairs().len(), log.len());
    let regions = p.wan.contract_by_region();
    let topo = TopologyCoarsener::new(regions.node_map.clone()).report(&log);
    println!(
        "  topology (regions):     {:>8} rows  {:>7.1}x",
        topo.coarse.len(),
        topo.reduction_factor()
    );
    for (label, secs) in [("1h", 3600u64), ("1d", 86_400)] {
        let t = TimeCoarsener::new(secs, vec![Statistic::Mean, Statistic::P95]).report(&log);
        println!(
            "  time ({label}, mean+p95):   {:>8} rows  {:>7.1}x",
            t.coarse.len(),
            t.reduction_factor()
        );
    }
    let combined =
        TimeCoarsener::new(86_400, vec![Statistic::Mean, Statistic::P95]).report(&topo.coarse);
    #[allow(clippy::cast_precision_loss, reason = "row counts stay far below 2^52")]
    let reduction = (log.len() * 24) as f64
        / (combined.coarse.len() * combined.coarse[0].encoded_bytes()) as f64;
    println!("  combined (regions+1d):  {:>8} rows  {:>7.1}x", combined.coarse.len(), reduction);
    Ok(())
}

fn fault_kind(name: &str) -> Result<FaultKind, String> {
    Ok(match name {
        "hypervisor" => FaultKind::HypervisorFailure,
        "crash" => FaultKind::ServerCrash,
        "timeout" => FaultKind::BadTimeout,
        "firewall" => FaultKind::FirewallRule,
        "packetloss" => FaultKind::PacketLoss,
        "disk" => FaultKind::DiskPressure,
        "leak" => FaultKind::MemoryLeak,
        "config" => FaultKind::ConfigError,
        "cachestorm" => FaultKind::CacheEvictionStorm,
        "backlog" => FaultKind::QueueBacklog,
        "flap" => FaultKind::LinkFlap,
        "cert" => FaultKind::CertExpiry,
        other => return Err(format!("unknown fault kind '{other}'")),
    })
}

/// `smn route <kind> <target>` — inject one fault and route it via the CDG.
pub fn route(args: &[String]) -> Result<(), String> {
    let [kind_name, target] = args else {
        return Err("usage: smn route <fault-kind> <target-component>".into());
    };
    let kind = fault_kind(kind_name)?;
    let d = RedditDeployment::build();
    let node = d.fine.by_name(target).ok_or_else(|| {
        let names: Vec<String> = d.fine.graph.nodes().map(|(_, c)| c.name.clone()).collect();
        format!("unknown component '{target}'; components: {}", names.join(", "))
    })?;
    let team = d.fine.component(node).team.clone();
    let fault = FaultSpec {
        id: 1,
        kind,
        target: target.clone(),
        variant: 0,
        severity: 0.9,
        team: team.clone(),
    };
    let obs = observe(&d, &fault, &SimConfig::default());
    println!("injected {kind_name} at {target} (owner team: {team})");
    println!("symptomatic teams:");
    for (i, &v) in (0u32..).zip(obs.syndrome.0.iter()) {
        if v > 0.0 {
            println!("  {}", d.cdg.team(smn_topology::NodeId(i)).name);
        }
    }
    let ex = Explainability::new(&d.cdg);
    match ex.best_team(&obs.syndrome) {
        Some(t) => {
            let routed = &d.cdg.team(t).name;
            println!(
                "routed to: {routed} (explainability {:.3}) — {}",
                ex.explainability(&obs.syndrome, t),
                if *routed == team { "correct" } else { "WRONG" }
            );
        }
        None => println!("no symptoms observed; nothing to route"),
    }
    Ok(())
}

/// `smn plan` — capacity planning over simulated weekly windows.
pub fn plan(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["weeks"])?;
    let weeks = flags.get("weeks").copied().unwrap_or(8);
    let p = generate_planetary(&PlanetaryConfig::small(7));
    let model = TrafficModel::new(&p.wan, TrafficConfig::default());
    let te_cfg = TeConfig { k_paths: 3, ..Default::default() };
    let mut history: BTreeMap<EdgeId, Vec<f64>> = BTreeMap::new();
    for week in 0..weeks {
        let log = model.generate(Ts::from_days(week * 7 + 2), TrafficModel::epochs_per_days(1));
        let demand = DemandMatrix::from_records(&log, Statistic::P95);
        let sol = greedy_min_max_utilization(
            &p.wan.graph,
            |_, e| if e.payload.up { e.payload.capacity_gbps } else { 0.0 },
            &demand,
            &te_cfg,
        );
        for eid in p.wan.graph.edge_ids() {
            history.entry(eid).or_default().push(sol.utilization.get(&eid).copied().unwrap_or(0.0));
        }
    }
    let controller = SmnController::new(
        smn_depgraph::coarse::CoarseDepGraph::new(),
        ControllerConfig::default(),
    );
    let feedback =
        controller.planning_loop(&history, |e| p.wan.graph.edge(e).payload.distance_km, &p.optical);
    let mut upgrades = 0;
    let mut blocked = 0;
    let mut cost = 0.0;
    for f in &feedback {
        match f {
            Feedback::ProvisionCapacity { cost: c, .. } => {
                upgrades += 1;
                cost += c;
            }
            Feedback::UpgradeBlockedByFiber { .. } => blocked += 1,
            _ => {}
        }
    }
    println!(
        "{weeks} weeks of history -> {upgrades} upgrades (total cost {cost:.0}), {blocked} blocked by fiber"
    );
    Ok(())
}

/// `smn run` — the continuous-operation simulation.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["days"])?;
    let days = flags.get("days").copied().unwrap_or(28);
    let p = generate_planetary(&PlanetaryConfig::small(7));
    let traffic = TrafficModel::new(&p.wan, TrafficConfig::default());
    let mut sim = SmnSimulation::new(&p, &traffic, SimulationConfig { days, ..Default::default() });
    let report = sim.run();
    println!(
        "{days} days: routing {:.0}% ({}/{}), {} upgrades, {} blocked, {} retunes, {} CLDS records",
        report.routing_accuracy() * 100.0,
        report.routing_correct,
        report.routing_total,
        report.upgrades,
        report.blocked,
        report.retunes,
        report.clds_records
    );
    Ok(())
}

/// `smn cdg` — print the Reddit CDG as DOT.
pub fn cdg() {
    let d = RedditDeployment::build();
    print!("{}", cdg_to_dot(&d.cdg, "simulated Reddit CDG"));
}

/// Flags accepted by `smn stream`, with their defaults.
struct StreamFlags {
    scale: smn_perf::Scale,
    ticks: usize,
    seed: u64,
    reconcile_every: u64,
    journal: Option<String>,
    json: bool,
}

fn parse_stream_flags(args: &[String]) -> Result<StreamFlags, String> {
    const STREAM_USAGE: &str = "usage: smn stream [--scale small|300|1000|3000] [--ticks N] \
                                [--seed N] [--reconcile-every N] [--journal FILE] [--json]";
    let mut flags = StreamFlags {
        scale: smn_perf::Scale::Small,
        ticks: 12,
        seed: 7,
        reconcile_every: 4,
        journal: None,
        json: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--json" => flags.json = true,
            "--scale" => flags.scale = smn_perf::Scale::parse(&take("a scale")?)?,
            "--ticks" => {
                let s = take("a number")?;
                flags.ticks =
                    s.parse().map_err(|_| format!("--ticks needs a number, got '{s}'"))?;
            }
            "--seed" => {
                let s = take("a number")?;
                flags.seed = s.parse().map_err(|_| format!("--seed needs a number, got '{s}'"))?;
            }
            "--reconcile-every" => {
                let s = take("a number")?;
                flags.reconcile_every = s
                    .parse()
                    .map_err(|_| format!("--reconcile-every needs a number, got '{s}'"))?;
            }
            "--journal" => flags.journal = Some(take("a file path")?),
            other => return Err(format!("unexpected argument '{other}'\n{STREAM_USAGE}")),
        }
    }
    if flags.ticks == 0 {
        return Err("--ticks must be at least 1".to_string());
    }
    Ok(flags)
}

/// Deterministic fine-graph churn for tick `tick`: every third tick a new
/// service comes up in a rotating team with a call edge from a rotating
/// pre-existing component.
fn stream_churn(tick: u64, teams: &[String], names: &[String]) -> Option<GraphDelta> {
    if tick % 3 != 2 || teams.is_empty() || names.is_empty() {
        return None;
    }
    let mut d = GraphDelta::new(tick);
    let name = format!("svc-tick-{tick}");
    #[allow(clippy::cast_possible_truncation, reason = "rotation index, bounded by len")]
    let team = &teams[(tick as usize / 3) % teams.len()];
    d.push_component(Component {
        name: name.clone(),
        service: name.clone(),
        team: team.clone(),
        layer: Layer::Application,
    });
    #[allow(clippy::cast_possible_truncation, reason = "rotation index, bounded by len")]
    let src = &names[tick as usize % names.len()];
    d.push_dependency(src.clone(), name, DependencyKind::Call);
    Some(d)
}

/// Per-tick measurements reported by `smn stream`.
struct StreamTickRow {
    outcome: TickOutcome,
    apply_ms: f64,
    batch_ms: f64,
}

impl StreamTickRow {
    fn speedup(&self) -> f64 {
        self.batch_ms / self.apply_ms.max(1e-6)
    }
}

/// `smn stream` — run the incremental streaming loop and report
/// delta-apply vs full-recompute wall time per tick.
///
/// Generates `--ticks` five-minute telemetry epochs at `--scale`, feeds
/// them tick by tick through `SmnController::stream_tick` (with periodic
/// fine-graph churn), and times both the incremental apply and the batch
/// recompute it replaces. Reconciliation runs every `--reconcile-every`
/// ticks and once more at the end; any divergence is reported and exits
/// non-zero. `--journal` writes the `delta-journal` artifact that
/// `smn lint` checks.
#[allow(clippy::too_many_lines, reason = "linear report script: run, journal, render")]
pub fn stream(args: &[String]) -> Result<(), String> {
    let flags = parse_stream_flags(args)?;
    let planetary = generate_planetary(&flags.scale.config(flags.seed));
    let model = TrafficModel::new(&planetary.wan, TrafficConfig::default());
    let log = model.generate(Ts::from_days(2), flags.ticks);
    let deltas = TelemetryDelta::split_epochs(&log, 0);

    let d = RedditDeployment::build();
    let initial_names: Vec<String> = d.fine.graph.nodes().map(|(_, c)| c.name.clone()).collect();
    let teams = d.fine.teams();
    let mut ctl =
        SmnController::new(CoarseDepGraph::from_fine(&d.fine), ControllerConfig::default());
    ctl.set_obs(Obs::enabled(SimClock::new()));
    let cfg = StreamConfig { reconcile_every: flags.reconcile_every, ..StreamConfig::default() };
    let mut state = StreamState::new(cfg, d.fine.clone());

    let mut journal = DeltaJournal::new(
        flags.scale.as_str(),
        flags.seed,
        planetary.wan.dc_count() as u64,
        initial_names.clone(),
        flags.reconcile_every,
    );
    let mut rows: Vec<StreamTickRow> = Vec::with_capacity(deltas.len());
    let mut full_log = Vec::with_capacity(log.len());
    let mut verdict: Result<(), StreamError> = Ok(());
    for td in &deltas {
        let churn = stream_churn(td.tick, &teams, &initial_names);
        let (applied, apply_ms) =
            smn_bench::timer::time_ms(|| ctl.stream_tick(&mut state, td, churn.as_ref()));
        let outcome = match applied {
            Ok(o) => o,
            Err(e) => {
                verdict = Err(e);
                break;
            }
        };
        full_log.extend_from_slice(&td.records);
        // The cost the incremental path avoids: rebuild every coarse
        // artifact from the full raw history, as the batch pipeline would.
        let (batch_rows, batch_ms) = smn_bench::timer::time_ms(|| {
            let t = state.config.time_coarsener().coarsen(&full_log);
            let a = state.config.adaptive.coarsen(&full_log);
            let c = CoarseDepGraph::from_fine(&state.fine);
            t.len() + a.len() + c.len()
        });
        debug_assert!(batch_rows > 0);
        journal.push_outcome(&outcome);
        rows.push(StreamTickRow { outcome, apply_ms, batch_ms });
    }
    // Always end on a verdict: if the last tick did not reconcile, run a
    // final full-recompute reconciliation now.
    if verdict.is_ok() && rows.last().is_some_and(|r| r.outcome.reconcile.is_none()) {
        match ctl.stream_reconcile(&mut state) {
            Ok(outcome) => {
                if let (Some(row), Some(entry)) = (rows.last_mut(), journal.ticks.last_mut()) {
                    entry.reconciled = true;
                    entry.reconcile_hash = Some(outcome.hash.clone());
                    row.outcome.reconcile = Some(outcome);
                }
            }
            Err(e) => verdict = Err(e),
        }
    }

    if let Some(path) = &flags.journal {
        std::fs::write(path, journal.to_json_pretty() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let mean = |f: fn(&StreamTickRow) -> f64| -> f64 {
        #[allow(clippy::cast_precision_loss, reason = "tick counts stay far below 2^52")]
        let n = rows.len().max(1) as f64;
        rows.iter().map(f).sum::<f64>() / n
    };
    let verdict_str = match &verdict {
        Ok(()) => "byte-identical".to_string(),
        Err(e) => e.to_string(),
    };
    if flags.json {
        let obj = |entries: Vec<(&str, serde_json::Value)>| {
            serde_json::Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let ticks: Vec<serde_json::Value> = rows
            .iter()
            .map(|r| {
                obj(vec![
                    ("tick", serde_json::Value::U64(r.outcome.tick)),
                    ("records", serde_json::Value::U64(r.outcome.ingested as u64)),
                    ("dirty_cells", serde_json::Value::U64(r.outcome.time.dirty_cells as u64)),
                    ("total_rows", serde_json::Value::U64(r.outcome.time.total_rows as u64)),
                    ("apply_ms", serde_json::Value::F64(r.apply_ms)),
                    ("batch_ms", serde_json::Value::F64(r.batch_ms)),
                    ("speedup", serde_json::Value::F64(r.speedup())),
                    (
                        "reconcile_hash",
                        r.outcome.reconcile.as_ref().map_or(serde_json::Value::Null, |o| {
                            serde_json::Value::Str(o.hash.clone())
                        }),
                    ),
                ])
            })
            .collect();
        let doc = obj(vec![
            ("command", serde_json::Value::Str("stream".to_string())),
            ("scale", serde_json::Value::Str(flags.scale.as_str().to_string())),
            ("seed", serde_json::Value::U64(flags.seed)),
            ("reconcile_every", serde_json::Value::U64(flags.reconcile_every)),
            ("verdict", serde_json::Value::Str(verdict_str.clone())),
            ("mean_apply_ms", serde_json::Value::F64(mean(|r| r.apply_ms))),
            ("mean_batch_ms", serde_json::Value::F64(mean(|r| r.batch_ms))),
            ("mean_speedup", serde_json::Value::F64(mean(StreamTickRow::speedup))),
            ("ticks", serde_json::Value::Seq(ticks)),
        ]);
        println!("{}", serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?);
    } else {
        println!(
            "streaming {} ticks at scale {} (seed {}, reconcile every {}):",
            rows.len(),
            flags.scale,
            flags.seed,
            flags.reconcile_every
        );
        println!("  tick  records  dirty  rows    apply ms    batch ms  speedup  reconcile");
        for r in &rows {
            println!(
                "  {:>4}  {:>7}  {:>5}  {:>4}  {:>10.3}  {:>10.3}  {:>6.1}x  {}",
                r.outcome.tick,
                r.outcome.ingested,
                r.outcome.time.dirty_cells,
                r.outcome.time.total_rows,
                r.apply_ms,
                r.batch_ms,
                r.speedup(),
                r.outcome.reconcile.as_ref().map_or("-", |o| o.hash.as_str()),
            );
        }
        println!(
            "  mean: apply {:.3} ms vs batch {:.3} ms ({:.1}x)",
            mean(|r| r.apply_ms),
            mean(|r| r.batch_ms),
            mean(StreamTickRow::speedup)
        );
        println!("  reconciliation: {verdict_str}");
    }
    verdict.map_err(|e| format!("reconciliation divergence or stream error: {e}"))
}

/// Load a `fault-campaign` artifact through its validating loader.
fn load_campaign(path: &str) -> Result<CampaignArtifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    CampaignArtifact::load(&value).map_err(|violations| {
        let first = violations.first().map_or_else(String::new, ToString::to_string);
        match violations.len() {
            0 | 1 => format!("{path}: {first}"),
            n => format!("{path}: {first} (and {} more violation(s))", n - 1),
        }
    })
}

/// `smn heal` — run a remediation campaign through the closed-loop engine.
///
/// Observes each fault, diagnoses it (`Explainability::best_team`), and
/// hands it to `smn_heal::Healer` for plan → execute → verify → commit or
/// roll back. Reports MTTR against the deterministic route-to-team human
/// model. A rollback *storm* — more than `--storm-threshold` percent of
/// attempted remediations rolled back — exits non-zero, since it means the
/// planner is mostly hurting the network it is supposed to heal.
/// Flags accepted by `smn heal`, with their defaults.
struct HealFlags {
    n_faults: usize,
    campaign_file: Option<String>,
    storm_threshold: u32,
    json: bool,
}

fn parse_heal_flags(args: &[String]) -> Result<HealFlags, String> {
    const HEAL_USAGE: &str =
        "usage: smn heal [--faults N] [--campaign FILE] [--storm-threshold PCT] [--json]";
    let mut flags =
        HealFlags { n_faults: 120, campaign_file: None, storm_threshold: 60, json: false };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => flags.json = true,
            "--faults" => match it.next() {
                Some(n) => {
                    flags.n_faults =
                        n.parse().map_err(|_| format!("--faults needs a number, got '{n}'"))?;
                }
                None => return Err("--faults needs a number".to_string()),
            },
            "--campaign" => match it.next() {
                Some(path) => flags.campaign_file = Some(path.clone()),
                None => return Err("--campaign needs a file path".to_string()),
            },
            "--storm-threshold" => match it.next() {
                Some(n) => {
                    flags.storm_threshold = n
                        .parse()
                        .map_err(|_| format!("--storm-threshold needs a percent, got '{n}'"))?;
                }
                None => return Err("--storm-threshold needs a percent".to_string()),
            },
            other => return Err(format!("unexpected argument '{other}'\n{HEAL_USAGE}")),
        }
    }
    Ok(flags)
}

pub fn heal(args: &[String]) -> Result<(), String> {
    let HealFlags { n_faults, campaign_file, storm_threshold, json } = parse_heal_flags(args)?;

    let d = RedditDeployment::build();
    let planetary = generate_planetary(&PlanetaryConfig::small(7));
    let contraction = planetary.wan.contract_by_region();
    let stack = DeploymentStack::bind(&d, planetary.optical, planetary.wan);
    let sim = SimConfig::default();
    let world =
        HealWorld { deployment: &d, stack: stack.stack(), contraction: &contraction, sim: &sim };

    let (faults, skipped) = match &campaign_file {
        Some(path) => {
            // Faults aimed at components outside this deployment are
            // skipped, not refused.
            let (faults, foreign): (Vec<FaultSpec>, Vec<FaultSpec>) = load_campaign(path)?
                .faults
                .into_iter()
                .partition(|f| d.fine.by_name(&f.target).is_some());
            (faults, foreign.len())
        }
        None => (generate_campaign(&d, &CampaignConfig { n_faults, ..Default::default() }), 0),
    };
    if faults.is_empty() {
        return Err("campaign has no usable faults".to_string());
    }

    let cfg = HealConfig::default();
    let heal_seed = cfg.seed;
    let mut healer = Healer::new(cfg);
    let ex = Explainability::new(&d.cdg);
    let mut unrouted = 0usize;
    let (mut verified, mut rolled_back, mut escalated) = (0usize, 0usize, 0usize);
    let (mut mttr_heal_sum, mut mttr_route_sum) = (0.0f64, 0.0f64);
    let mut accounted = 0usize;
    for fault in &faults {
        let observation = observe(&d, fault, &sim);
        let Some(team_id) = ex.best_team(&observation.syndrome) else {
            unrouted += 1;
            continue;
        };
        let team = d.cdg.team(team_id).name.clone();
        let explainability = ex.explainability(&observation.syndrome, team_id);
        let diag = Diagnosis::from_observation(&d, &observation, &team, explainability);
        let record = healer.heal(&world, &diag, fault);
        match record.phase {
            RemediationPhase::Verified => verified += 1,
            RemediationPhase::RolledBack => rolled_back += 1,
            RemediationPhase::Escalated => escalated += 1,
        }
        mttr_heal_sum += record.mttr_minutes;
        mttr_route_sum += route_to_team_mttr(team == fault.team, heal_seed, fault.id);
        accounted += 1;
    }

    let attempted = verified + rolled_back;
    #[allow(clippy::cast_precision_loss, reason = "campaign sizes stay far below 2^52")]
    let mean = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
    let rollback_pct = if attempted == 0 {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss, reason = "campaign counters stay far below 2^52")]
        {
            100.0 * rolled_back as f64 / attempted as f64
        }
    };
    let mttr_heal = mean(mttr_heal_sum, accounted);
    let mttr_route = mean(mttr_route_sum, accounted);

    if json {
        let obj = |entries: Vec<(&str, serde_json::Value)>| {
            serde_json::Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let u = |n: usize| serde_json::Value::U64(n as u64);
        let report = obj(vec![
            ("command", serde_json::Value::Str("heal".to_string())),
            ("faults", u(faults.len())),
            ("skipped_unknown_targets", u(skipped)),
            ("unrouted", u(unrouted)),
            ("verified", u(verified)),
            ("rolled_back", u(rolled_back)),
            ("escalated", u(escalated)),
            ("rollback_pct", serde_json::Value::F64(rollback_pct)),
            ("mttr_heal_mean_minutes", serde_json::Value::F64(mttr_heal)),
            ("mttr_route_mean_minutes", serde_json::Value::F64(mttr_route)),
        ]);
        println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
    } else {
        println!("remediation campaign: {} faults (heal seed {heal_seed:#x})", faults.len());
        if skipped > 0 {
            println!("  skipped (unknown targets): {skipped}");
        }
        println!("  verified:    {verified}");
        println!("  rolled back: {rolled_back}  ({rollback_pct:.0}% of executed)");
        println!("  escalated:   {escalated}");
        println!("  unrouted:    {unrouted}");
        println!("  MTTR: heal {mttr_heal:.1}m vs route-to-team {mttr_route:.1}m");
    }

    if rollback_pct > f64::from(storm_threshold) {
        return Err(format!(
            "rollback storm: {rolled_back}/{attempted} executed remediations rolled back \
             ({rollback_pct:.0}% > {storm_threshold}% threshold)"
        ));
    }
    Ok(())
}

/// Flags accepted by `smn coverage`, with their defaults.
struct CoverageFlags {
    seed: u64,
    threshold: u64,
    campaign_file: Option<String>,
    out: Option<String>,
    baseline: bool,
    json: bool,
}

fn parse_coverage_flags(args: &[String]) -> Result<CoverageFlags, String> {
    const COVERAGE_USAGE: &str = "usage: smn coverage [--seed N] [--threshold PCT] \
                                  [--campaign FILE] [--out FILE] [--no-baseline] [--json]";
    let mut flags = CoverageFlags {
        seed: GeneratorConfig::default().seed,
        threshold: 80,
        campaign_file: None,
        out: None,
        baseline: true,
        json: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => flags.json = true,
            "--no-baseline" => flags.baseline = false,
            "--seed" => match it.next() {
                Some(n) => {
                    flags.seed =
                        n.parse().map_err(|_| format!("--seed needs a number, got '{n}'"))?;
                }
                None => return Err("--seed needs a number".to_string()),
            },
            "--threshold" => match it.next() {
                Some(n) => {
                    flags.threshold =
                        n.parse().map_err(|_| format!("--threshold needs a percent, got '{n}'"))?;
                }
                None => return Err("--threshold needs a percent".to_string()),
            },
            "--campaign" => match it.next() {
                Some(path) => flags.campaign_file = Some(path.clone()),
                None => return Err("--campaign needs a file path".to_string()),
            },
            "--out" => match it.next() {
                Some(path) => flags.out = Some(path.clone()),
                None => return Err("--out needs a file path".to_string()),
            },
            other => return Err(format!("unexpected argument '{other}'\n{COVERAGE_USAGE}")),
        }
    }
    Ok(flags)
}

/// `smn coverage` — measure a campaign against the fault lattice.
///
/// Builds the reachable lattice for the standard deployment + planetary
/// stack, replays a campaign (the coverage-guided generated one by
/// default, or a `--campaign` artifact) through the real controller, and
/// reports covered / uncovered / unreachable cells from the audit-trail
/// evidence. Exits non-zero when coverage falls below `--threshold`
/// percent of the reachable lattice (default 80), which is the CI gate.
/// Unless `--no-baseline`, the fixed 560-fault campaign is replayed too
/// and reported alongside, as the floor the generator must beat.
#[allow(clippy::too_many_lines, reason = "linear gate script: replay, report, baseline, threshold")]
pub fn coverage(args: &[String]) -> Result<(), String> {
    let flags = parse_coverage_flags(args)?;

    let d = RedditDeployment::build();
    let planetary = generate_planetary(&PlanetaryConfig::small(7));
    let ds = DeploymentStack::bind(&d, planetary.optical, planetary.wan);
    let lattice = FaultLattice::build(&d, &ds);
    let sim = SimConfig::default();
    let replay_cfg = ReplayConfig::default();

    let (label, campaign) = match &flags.campaign_file {
        Some(path) => (path.as_str(), GeneratedCampaign::from_artifact(load_campaign(path)?)),
        None => (
            "generated",
            generate_covering_campaign(&d, &ds, &lattice, &GeneratorConfig { seed: flags.seed }),
        ),
    };
    let outcome =
        replay_campaign(&d, &ds, &lattice, &campaign.faults, &campaign.loci, &sim, &replay_cfg);
    let report =
        CoverageReport::build(label, flags.seed, campaign.faults.len(), &lattice, &outcome.map);

    let baseline = flags.baseline.then(|| {
        let cfg = CampaignConfig::default();
        let fixed = generate_campaign(&d, &cfg);
        let outcome = replay_campaign(&d, &ds, &lattice, &fixed, &[], &sim, &replay_cfg);
        CoverageReport::build("fixed-560", cfg.seed, fixed.len(), &lattice, &outcome.map)
    });

    if let Some(path) = &flags.out {
        let text = serde_json::to_string_pretty(&report.to_artifact())
            .map_err(|e| format!("serializing report: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    if flags.json {
        let obj = |entries: Vec<(&str, serde_json::Value)>| {
            serde_json::Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let doc = obj(vec![
            ("command", serde_json::Value::Str("coverage".to_string())),
            ("threshold_pct", serde_json::Value::U64(flags.threshold)),
            ("report", report.to_artifact()),
            (
                "baseline",
                baseline.as_ref().map_or(serde_json::Value::Null, CoverageReport::to_artifact),
            ),
        ]);
        println!("{}", serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?);
    } else {
        println!(
            "fault-lattice coverage: {} ({} faults, seed {:#x})",
            report.campaign, report.n_faults, report.campaign_seed
        );
        println!(
            "  lattice:     {} cells, {} reachable here",
            report.total_cells, report.reachable
        );
        println!("  unreachable: {} (off-deployment shell)", report.unreachable);
        println!(
            "  covered:     {}/{} ({:.1}%)",
            report.covered,
            report.reachable,
            report.ratio_pct()
        );
        for row in report.uncovered() {
            println!("  uncovered:   {}", row.cell.label());
        }
        for row in report.unexpected() {
            println!("  unexpected:  {} (off-lattice, {} hits)", row.cell.label(), row.count);
        }
        if let Some(b) = &baseline {
            println!(
                "  baseline:    {} covers {}/{} ({:.1}%)",
                b.campaign,
                b.covered,
                b.reachable,
                b.ratio_pct()
            );
        }
    }

    #[allow(clippy::cast_precision_loss, reason = "thresholds are small percentages")]
    let threshold_pct = flags.threshold as f64;
    if report.ratio_pct() < threshold_pct {
        return Err(format!(
            "coverage gate: {:.1}% of the reachable lattice is below the {}% threshold",
            report.ratio_pct(),
            flags.threshold
        ));
    }
    if let Some(b) = &baseline {
        if b.ratio_pct() >= report.ratio_pct() && flags.campaign_file.is_none() {
            return Err(format!(
                "coverage gate: the fixed baseline ({:.1}%) matches or beats the generated \
                 campaign ({:.1}%); the generator is not earning its keep",
                b.ratio_pct(),
                report.ratio_pct()
            ));
        }
    }
    Ok(())
}

/// `smn obs summarize` — summarize a deterministic JSONL trace.
///
/// Renders the span tree with durations, the top-N slowest spans, and
/// (with `--metrics`) the Prometheus snapshot written alongside the
/// trace. Fails when any trace line does not parse, so CI can gate on
/// artifact validity the same way it gates on `smn lint`.
pub fn obs(args: &[String]) -> Result<(), String> {
    const OBS_USAGE: &str =
        "usage: smn obs summarize <trace.jsonl> [--metrics FILE] [--top N] [--json]";
    let Some(action) = args.first() else {
        return Err(OBS_USAGE.to_string());
    };
    if action != "summarize" {
        return Err(format!("unknown obs action '{action}'\n{OBS_USAGE}"));
    }
    let mut trace: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut top: usize = 10;
    let mut json = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--metrics" => match it.next() {
                Some(path) => metrics = Some(path.clone()),
                None => return Err("--metrics needs a file path".to_string()),
            },
            "--top" => match it.next() {
                Some(n) => {
                    top = n.parse().map_err(|_| format!("--top needs a number, got '{n}'"))?;
                }
                None => return Err("--top needs a number".to_string()),
            },
            other if !other.starts_with("--") && trace.is_none() => {
                trace = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'\n{OBS_USAGE}")),
        }
    }
    let Some(trace) = trace else {
        return Err(OBS_USAGE.to_string());
    };

    let jsonl = std::fs::read_to_string(&trace).map_err(|e| format!("cannot read {trace}: {e}"))?;
    let summary = smn_obs::summary::TraceSummary::parse(&jsonl);
    let metrics_text = match &metrics {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?)
        }
        None => None,
    };

    if json {
        let rendered = summary.to_json(top);
        match metrics_text {
            Some(m) => {
                // Graft the raw metrics snapshot into the summary object so
                // `--json` stays a single parseable document.
                let mut value = serde_json::parse_value(&rendered)
                    .map_err(|e| format!("internal: summary JSON did not round-trip: {e}"))?;
                if let serde_json::Value::Map(entries) = &mut value {
                    entries.push(("metrics".to_string(), serde_json::Value::Str(m)));
                }
                println!("{}", serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?);
            }
            None => println!("{rendered}"),
        }
    } else {
        print!("{}", summary.render_text(top));
        if let Some(m) = metrics_text {
            println!("\nmetric snapshot ({}):", metrics.as_deref().unwrap_or_default());
            for line in m.lines() {
                println!("  {line}");
            }
        }
    }

    if !summary.parse_errors.is_empty() {
        let (line, msg) = &summary.parse_errors[0];
        return Err(format!(
            "{} trace line(s) failed to parse (first: line {line}: {msg})",
            summary.parse_errors.len()
        ));
    }
    Ok(())
}

/// `smn perf` — record, diff, and gate performance trajectories.
///
/// `record` runs the deterministic count suite and writes a `BenchReport`
/// under `target/perf/`; `diff` prints a deterministic comparison of two
/// report sets; `gate` fails (exit 1) when any current metric differs
/// from the committed baselines.
pub fn perf(args: &[String]) -> Result<(), String> {
    const PERF_USAGE: &str = "usage: smn perf <record|diff|gate> [options]\n  \
         smn perf record [--scale small|300|1000|3000] [--seed N]\n                  \
         [--out FILE] [--revision R]\n  \
         smn perf diff <baseline> <current>         (report files or dirs)\n  \
         smn perf gate [--baseline PATH] [--current PATH]";
    match args.first().map(String::as_str) {
        Some("record") => perf_record(&args[1..]),
        Some("diff") => perf_diff(&args[1..]),
        Some("gate") => perf_gate(&args[1..]),
        Some(other) => Err(format!("unknown perf action '{other}'\n{PERF_USAGE}")),
        None => Err(PERF_USAGE.to_string()),
    }
}

/// Load `BenchReport`s from a file or from every `*.json` in a
/// directory (sorted by file name so downstream output is stable).
fn load_reports(path: &str) -> Result<Vec<smn_perf::BenchReport>, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut files: Vec<std::path::PathBuf> = if meta.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("cannot list {path}: {e}"))?;
        entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![std::path::PathBuf::from(path)]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("no *.json reports under {path}"));
    }
    let mut reports = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let report = smn_perf::BenchReport::from_json(&text)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        reports.push(report);
    }
    Ok(reports)
}

fn perf_record(args: &[String]) -> Result<(), String> {
    let mut cfg = smn_perf::RecordConfig::default();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--scale" => {
                let s = take("a scale")?;
                cfg.scale = smn_perf::Scale::parse(&s)?;
            }
            "--seed" => {
                let s = take("a number")?;
                cfg.seed = s.parse().map_err(|_| format!("--seed needs a number, got '{s}'"))?;
            }
            "--out" => out = Some(take("a file path")?),
            "--revision" => cfg.revision = take("a string")?,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let out = out.unwrap_or_else(|| format!("target/perf/BENCH_perf_{}.json", cfg.scale));

    println!("perf record: scale={} seed={} revision={}", cfg.scale, cfg.seed, cfg.revision);
    let report = smn_perf::record::run(&cfg);
    report.validate().map_err(|e| format!("internal: recorded report invalid: {e}"))?;

    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&out, report.to_json_pretty() + "\n")
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("report: -> {out} ({} metrics)", report.metrics.len());
    Ok(())
}

fn perf_diff(args: &[String]) -> Result<(), String> {
    let [base, cur] = args else {
        return Err("usage: smn perf diff <baseline> <current>".to_string());
    };
    let base = load_reports(base)?;
    let cur = load_reports(cur)?;
    let rows = smn_perf::diff_reports(&base, &cur);
    print!("{}", smn_perf::render_diff(&rows));
    Ok(())
}

fn perf_gate(args: &[String]) -> Result<(), String> {
    let mut baseline = "artifacts/perf".to_string();
    let mut current = "target/perf".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--baseline" => baseline = take("a path")?,
            "--current" => current = take("a path")?,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let base = load_reports(&baseline)?;
    let cur = load_reports(&current)?;
    let violations = smn_perf::gate_reports(&base, &cur);
    print!("{}", smn_perf::render_gate(&violations));
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{} perf regression(s) vs {baseline}", violations.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn flags_parse_and_reject() {
        let f = parse_flags(&s(&["--seed", "9"]), &["seed"]).unwrap();
        assert_eq!(f["seed"], 9);
        assert!(parse_flags(&s(&["--bogus", "1"]), &["seed"]).is_err());
        assert!(parse_flags(&s(&["--seed"]), &["seed"]).is_err());
        assert!(parse_flags(&s(&["--seed", "x"]), &["seed"]).is_err());
        assert!(parse_flags(&s(&["loose"]), &["seed"]).is_err());
    }

    #[test]
    fn fault_kinds_resolve() {
        assert!(fault_kind("hypervisor").is_ok());
        assert!(fault_kind("flap").is_ok());
        assert!(fault_kind("nope").is_err());
    }

    #[test]
    fn perf_record_diff_gate_roundtrip() {
        let dir = std::env::temp_dir().join(format!("smn-cli-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_perf_small.json");
        let out = out.to_str().unwrap().to_string();
        perf(&s(&["record", "--scale", "small", "--out", &out])).unwrap();
        // A run diffed and gated against itself is clean.
        perf(&s(&["diff", &out, &out])).unwrap();
        perf(&s(&["gate", "--baseline", &out, "--current", &out])).unwrap();
        // Directory loading sees the same single report.
        let dir_str = dir.to_str().unwrap().to_string();
        perf(&s(&["gate", "--baseline", &dir_str, "--current", &out])).unwrap();
        assert!(perf(&s(&["bogus"])).is_err());
        assert!(perf(&s(&["record", "--scale", "450"])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn subcommands_run() {
        topology(&s(&["--seed", "3"])).unwrap();
        coarsen(&s(&["--days", "1"])).unwrap();
        route(&s(&["firewall", "firewall-1"])).unwrap();
        plan(&s(&["--weeks", "2"])).unwrap();
        cdg();
        assert!(route(&s(&["firewall", "no-such-box"])).is_err());
        assert!(route(&s(&["firewall"])).is_err());
    }
}
