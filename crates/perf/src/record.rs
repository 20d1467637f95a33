//! The `smn perf record` suite: one deterministic pass over the pipeline
//! at a chosen topology scale, emitting a [`BenchReport`] of work counts.
//!
//! Seven stages (topology → telemetry → lake → coarsening → CDG → TE →
//! incremental streaming) call the plain operations and record their
//! outcomes — counts, coarse sizes, solver iterations, routed gigabits —
//! as metrics. Equal seed + scale + code ⇒ equal metrics on any machine;
//! that is what the regression gate compares exactly. The report carries
//! no wall time: `periodbench` is the workspace's wall-time harness.

use std::fmt;

use smn_core::bwlogs::{AdaptiveCoarsener, NestedCoarsener, TimeCoarsener, TopologyCoarsener};
use smn_core::coarsen::Coarsening;
use smn_core::controller::{ControllerConfig, SmnController};
use smn_core::stream::{StreamConfig, StreamState};
use smn_datalake::ingest::{ingest_alerts, DedupDenoiser};
use smn_datalake::Clds;
use smn_depgraph::coarse::CoarseDepGraph;
use smn_depgraph::refine::{suggest_edges, ResolvedIncident};
use smn_depgraph::syndrome::Syndrome;
use smn_incident::RedditDeployment;
use smn_te::demand::DemandMatrix;
use smn_te::mcf::{max_multicommodity_flow, TeConfig};
use smn_telemetry::delta::TelemetryDelta;
use smn_telemetry::record::{Alert, Severity};
use smn_telemetry::series::Statistic;
use smn_telemetry::time::{Ts, DAY, HOUR};
use smn_telemetry::traffic::{TrafficConfig, TrafficModel};
use smn_topology::gen::{generate_planetary, PlanetaryConfig};
use smn_topology::NodeId;

use crate::report::BenchReport;

/// A scale-sweep point: how large a planetary WAN the suite runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 24 DCs (`PlanetaryConfig::small`) — unit-test sized.
    Small,
    /// 300 DCs (the paper's deployment; `PlanetaryConfig::default`).
    Dc300,
    /// 1000 DCs (`PlanetaryConfig::scale_1000`).
    Dc1000,
    /// 3000 DCs (`PlanetaryConfig::scale_3000`).
    Dc3000,
}

impl Scale {
    /// Parse a CLI scale argument.
    ///
    /// # Errors
    /// When `s` is not one of `small`, `300`, `1000`, `3000`.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "small" => Ok(Scale::Small),
            "300" => Ok(Scale::Dc300),
            "1000" => Ok(Scale::Dc1000),
            "3000" => Ok(Scale::Dc3000),
            other => Err(format!("unknown scale {other:?} (expected small, 300, 1000, or 3000)")),
        }
    }

    /// The schema's scale string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Dc300 => "300",
            Scale::Dc1000 => "1000",
            Scale::Dc3000 => "3000",
        }
    }

    /// The topology generator config for this scale point.
    #[must_use]
    pub fn config(self, seed: u64) -> PlanetaryConfig {
        match self {
            Scale::Small => PlanetaryConfig::small(seed),
            Scale::Dc300 => PlanetaryConfig { seed, ..PlanetaryConfig::default() },
            Scale::Dc1000 => PlanetaryConfig::scale_1000(seed),
            Scale::Dc3000 => PlanetaryConfig::scale_3000(seed),
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of one record run.
#[derive(Debug, Clone)]
pub struct RecordConfig {
    /// Topology scale to run at.
    pub scale: Scale,
    /// Master seed (topology + traffic derive from it).
    pub seed: u64,
    /// Revision string stamped into the report.
    pub revision: String,
}

impl Default for RecordConfig {
    fn default() -> Self {
        RecordConfig {
            scale: Scale::Dc300,
            seed: 7,
            revision: crate::report::UNVERSIONED.to_string(),
        }
    }
}

/// Half an hour of 5-minute telemetry epochs — enough work to count,
/// small enough that the 3000-DC sweep point stays tractable.
const RECORD_EPOCHS: usize = 6;

/// Half a day of 5-minute epochs streamed as one bulk delta before the
/// steady-state ticks of the incremental stage — enough history that a
/// batch recompute rebuilds many times the rows a delta apply touches.
const HISTORY_EPOCHS: usize = 144;

/// Run the suite.
#[must_use]
#[allow(clippy::cast_precision_loss, reason = "counts recorded as metrics stay far below 2^52")]
#[allow(clippy::too_many_lines, reason = "linear suite script: one block per pipeline stage")]
pub fn run(cfg: &RecordConfig) -> BenchReport {
    let mut report = BenchReport::new(
        &format!("perf_record_{}", cfg.scale.as_str()),
        cfg.seed,
        cfg.scale.as_str(),
    )
    .with_revision(&cfg.revision);

    // Stage 1: topology generation.
    let planetary = generate_planetary(&cfg.scale.config(cfg.seed));
    report.push_metric("topology/dcs", planetary.wan.dc_count() as f64, "count");
    report.push_metric("topology/links", planetary.wan.link_count() as f64, "count");

    // Stage 2: telemetry generation (the CLDS's raw input).
    let start = Ts::from_days(2);
    let model = TrafficModel::new(&planetary.wan, TrafficConfig::default());
    let log = model.generate(start, RECORD_EPOCHS);
    report.push_metric("telemetry/pairs", model.pairs().len() as f64, "count");
    report.push_metric("telemetry/records", log.len() as f64, "count");

    // Stage 3: alert ingest through the denoiser into the CLDS.
    let ingest = {
        let clds = Clds::new();
        let mut denoiser = DedupDenoiser::new(HOUR);
        let alerts = log.iter().step_by(53).map(|r| Alert {
            ts: r.ts,
            component: format!("dc-{}", r.src),
            team: "network".to_string(),
            kind: "bw-anomaly".to_string(),
            severity: Severity::Warning,
            message: "bandwidth outside forecast band".to_string(),
        });
        ingest_alerts(&clds, &mut denoiser, alerts)
    };
    report.push_metric("lake/ingested", ingest.ingested as f64, "count");
    report.push_metric("lake/suppressed", ingest.suppressed as f64, "count");

    // Stage 4: the four bandwidth-log coarseners.
    let regions = planetary.wan.contract_by_region();
    {
        let time = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::P95]);
        let r = time.report(&log);
        report.push_metric("coarsen/time-1h_rows", r.coarse_size as f64, "count");
        let topo = TopologyCoarsener::new(regions.node_map.clone());
        let r = topo.report(&log);
        report.push_metric("coarsen/topology-regions_rows", r.coarse_size as f64, "count");
        let nested = NestedCoarsener {
            fine_horizon: HOUR * 6,
            mid_horizon: DAY,
            mid_window: HOUR,
            old_window: DAY,
            stats: vec![Statistic::Mean, Statistic::Max],
            now: start + HOUR,
        };
        let r = nested.report(&log);
        report.push_metric("coarsen/nested_rows", r.coarse_size as f64, "count");
        let adaptive = AdaptiveCoarsener {
            cv_threshold: 0.35,
            stable_window: DAY,
            volatile_window: HOUR,
            stats: vec![Statistic::Mean],
        };
        let r = adaptive.report(&log);
        report.push_metric("coarsen/adaptive_rows", r.coarse_size as f64, "count");
    }

    // Stage 5: CDG build + refinement over the reference deployment.
    {
        let deployment = RedditDeployment::build();
        let cdg = CoarseDepGraph::from_fine(&deployment.fine);
        let n = cdg.len();
        let names: Vec<String> = cdg.team_names().into_iter().map(str::to_string).collect();
        // Synthetic resolved-incident history: every team repeatedly shows
        // an extra symptomatic neighbor, so refinement has signal to chew
        // on at a size proportional to the CDG.
        let mut history = Vec::new();
        for _round in 0..32 {
            for (i, responsible) in names.iter().enumerate() {
                let sym = Syndrome::from_teams(
                    n,
                    [
                        NodeId(u32::try_from(i).unwrap_or(u32::MAX)),
                        NodeId(u32::try_from((i + 1) % n).unwrap_or(u32::MAX)),
                    ],
                );
                history.push(ResolvedIncident { syndrome: sym, responsible: responsible.clone() });
            }
        }
        let suggestions = suggest_edges(&cdg, &history, 8);
        report.push_metric("cdg/teams", cdg.len() as f64, "count");
        report.push_metric("cdg/edges", cdg.graph.edge_count() as f64, "count");
        report.push_metric("cdg/history", history.len() as f64, "count");
        report.push_metric("cdg/suggestions", suggestions.len() as f64, "count");
    }

    // Stage 6: Garg–Könemann TE on the region-contracted WAN.
    {
        let ts = start + 12 * 300;
        let demand = DemandMatrix::from_triples(
            model.demand_matrix(ts).into_iter().map(|(s, d, g)| (s, d, g * 0.05)),
        );
        let region_demand = demand.contract(&regions.node_map);
        let te_cfg = TeConfig { k_paths: 3, epsilon: 0.2, ..Default::default() };
        let sol = max_multicommodity_flow(
            &regions.graph,
            |_, e| e.payload.capacity_gbps,
            &region_demand,
            &te_cfg,
        );
        report.push_metric("te/supernodes", regions.graph.node_count() as f64, "count");
        report.push_metric("te/commodities", region_demand.len() as f64, "count");
        report.push_metric("te/iterations", sol.iterations as f64, "count");
        report.push_metric("te/routed_gbps", sol.routed_gbps, "gbps");
        report.push_metric("te/offered_gbps", sol.offered_gbps, "gbps");
    }

    // Stage 7: incremental coarsening — the streaming delta path against
    // the batch oracle it must stay byte-identical to. Half a day of
    // history arrives as one bulk delta, then the suite's six epochs
    // stream tick by tick in steady state; the closing reconciliation is
    // the full batch recompute.
    {
        let deployment = RedditDeployment::build();
        let mut ctl = SmnController::new(
            CoarseDepGraph::from_fine(&deployment.fine),
            ControllerConfig::default(),
        );
        let mut state = StreamState::new(
            StreamConfig { reconcile_every: 0, ..StreamConfig::default() },
            deployment.fine.clone(),
        );
        let stream_log = model.generate(start + DAY, HISTORY_EPOCHS + RECORD_EPOCHS);
        let n_hist = HISTORY_EPOCHS * model.pairs().len();
        let bulk = TelemetryDelta::new(0, stream_log[..n_hist].to_vec());
        let ticks = TelemetryDelta::split_epochs(&stream_log[n_hist..], 1);
        let mut last = smn_core::stream::DeltaApplyStats::default();
        let mut failures = 0usize;
        match ctl.stream_tick(&mut state, &bulk, None) {
            Ok(o) => last = o.time,
            Err(_) => failures += 1,
        }
        for td in &ticks {
            match ctl.stream_tick(&mut state, td, None) {
                Ok(o) => last = o.time,
                Err(_) => failures += 1,
            }
        }
        let reconciled = match ctl.stream_reconcile(&mut state) {
            Ok(_) => 1.0,
            Err(_) => 0.0,
        };
        report.push_metric("incremental/ticks", (1 + ticks.len()) as f64, "count");
        report.push_metric("incremental/lake_records", stream_log.len() as f64, "count");
        report.push_metric("incremental/total_rows", last.total_rows as f64, "count");
        report.push_metric("incremental/dirty_cells", last.dirty_cells as f64, "count");
        // Rows a batch recompute would rebuild over rows the steady-state
        // delta apply actually recomputed: a ratio of counts, not a speed.
        report.push_metric(
            "incremental/batch_to_delta_rows",
            last.total_rows as f64 / last.recomputed_rows.max(1) as f64,
            "ratio",
        );
        report.push_metric("incremental/failures", failures as f64, "count");
        report.push_metric("incremental/reconciled", reconciled, "count");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_and_roundtrips() {
        for s in ["small", "300", "1000", "3000"] {
            assert_eq!(Scale::parse(s).unwrap().as_str(), s);
        }
        assert!(Scale::parse("450").is_err());
        assert_eq!(Scale::Dc300.config(11).dc_count(), 300);
        assert_eq!(Scale::Dc300.config(11).seed, 11);
        assert_eq!(Scale::Dc1000.config(7).dc_count(), 1000);
        assert_eq!(Scale::Small.config(7).dc_count(), 24);
    }

    #[test]
    fn small_suite_produces_a_valid_deterministic_report() {
        let cfg = RecordConfig { scale: Scale::Small, ..Default::default() };
        let a = run(&cfg);
        a.validate().unwrap();
        assert_eq!(a.bench, "perf_record_small");
        assert_eq!(a.scale, "small");
        // A count suite: no wall time in the report.
        assert!(a.phases.is_empty());
        // The incremental stage streams cleanly: the delta apply touches a
        // small share of the rows, zero failed ticks, and a passing
        // reconciliation.
        assert!(a.metric("incremental/batch_to_delta_rows").unwrap() >= 5.0);
        assert!(a.metric("incremental/failures").unwrap().abs() < f64::EPSILON);
        assert!((a.metric("incremental/reconciled").unwrap() - 1.0).abs() < f64::EPSILON);
        // Metrics are identical across reruns.
        let b = run(&cfg);
        assert_eq!(a.metrics, b.metrics);
        assert!(a.metric("topology/dcs").unwrap() > 0.0);
        assert!(a.metric("te/iterations").unwrap() > 0.0);
        assert!(a.metric("cdg/suggestions").unwrap() > 0.0);
    }
}
