//! Regenerates **Table 2** — "Coarsening Examples and Tradeoffs" — with
//! every qualitative cell replaced by a measured number:
//!
//! * Coarse BW Logs / what's gained: TE solve-time speedup at region
//!   granularity (fast traffic engineering and planning);
//! * Coarse BW Logs / what's lost: realized-vs-optimal throughput ratio
//!   (suboptimal solution);
//! * CDG / what's gained: incident-routing accuracy uplift from symptom
//!   explainability (extra signal);
//! * CDG / what's lost: the false-dependency rate and structural reduction
//!   (coarser incident routing).

use smn_bench::timer;
use smn_obs::clock::SimClock;
use smn_obs::Obs;

use smn_core::cdg::cdg_loss;
use smn_incident::eval::{evaluate, EvalConfig};
use smn_incident::RedditDeployment;
use smn_te::demand::DemandMatrix;
use smn_te::mcf::{max_multicommodity_flow, max_multicommodity_flow_with_paths, TeConfig};
use smn_te::restrict::RestrictedPaths;
use smn_telemetry::time::Ts;

fn main() {
    // Bench-only wall-clock registry: per-phase latency histograms printed
    // after the table (values measured via `timer`, the audited wall clock).
    let bench_obs = Obs::enabled(SimClock::new());

    // --- Coarse Bandwidth Logs cells -------------------------------------
    let p = smn_bench::planetary();
    let model = smn_bench::traffic(&p);
    let mut triples = model.demand_matrix(Ts::from_days(2) + 12 * 3600);
    triples.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));
    triples.truncate(250);
    // Same realistic operating point as the pareto_te experiment.
    let demand = DemandMatrix::from_triples(triples.into_iter().map(|(s, d, g)| (s, d, g * 0.03)));
    let cfg = TeConfig { k_paths: 3, epsilon: 0.15, ..Default::default() };
    let cap = |_: smn_topology::EdgeId,
               e: &smn_topology::graph::Edge<smn_topology::layer3::LinkAttrs>| {
        if e.payload.up {
            e.payload.capacity_gbps
        } else {
            0.0
        }
    };
    let (fine, fine_ms) =
        timer::time_ms(|| max_multicommodity_flow(&p.wan.graph, cap, &demand, &cfg));
    let contraction = p.wan.contract_by_region();
    let coarse_demand = demand.contract(&contraction.node_map);
    let (_coarse, coarse_ms) = timer::time_ms(|| {
        max_multicommodity_flow(
            &contraction.graph,
            |_, e| e.payload.capacity_gbps,
            &coarse_demand,
            &cfg,
        )
    });
    let ((restricted, realized), restricted_ms) = timer::time_ms(|| {
        let mut table = RestrictedPaths::new(&p.wan, &contraction, cfg.k_paths);
        let restricted: Vec<Vec<smn_topology::Path>> =
            demand.commodities.iter().map(|c| table.paths(c.src, c.dst)).collect();
        let realized =
            max_multicommodity_flow_with_paths(&p.wan.graph, cap, &demand, &restricted, &cfg)
                .expect("one restricted path set per commodity");
        (restricted, realized)
    });
    let _ = restricted;
    let speedup = fine_ms / coarse_ms.max(1e-3);
    let optimality = realized.routed_gbps / fine.routed_gbps.max(1e-9);
    bench_obs.observe_ms("te_fine_solve_ms", fine_ms);
    bench_obs.observe_ms("te_coarse_solve_ms", coarse_ms);
    bench_obs.observe_ms("te_restricted_solve_ms", restricted_ms);

    // --- CDG cells --------------------------------------------------------
    let d = RedditDeployment::build();
    let loss = cdg_loss(&d.fine);
    // The full paper-scale campaign, same configuration as
    // incident_routing_eval, so Table 2's CDG cell matches E4.
    let (eval, eval_ms) = timer::time_ms(|| evaluate(&EvalConfig::default()));
    bench_obs.observe_ms("incident_eval_ms", eval_ms);
    let uplift = (eval.explainability_accuracy - eval.internal_accuracy) * 100.0;

    let rows = vec![
        vec![
            "Coarse BW Logs".to_string(),
            "Nodes -> Meta Nodes".to_string(),
            format!(
                "suboptimal solution: realized {:.0}% of fine-optimal throughput",
                optimality * 100.0
            ),
            format!(
                "fast TE and planning: {:.0}x solve speedup ({:.0} ms -> {:.0} ms) at region granularity",
                speedup, fine_ms, coarse_ms
            ),
        ],
        vec![
            "CDGs".into(),
            "Microservice -> team dependency".into(),
            format!(
                "coarser incident routing: {:.0}% false dependencies at {:.1}x structural reduction",
                loss.false_dependency_rate * 100.0,
                loss.reduction_factor
            ),
            format!(
                "extra signal for incident routing: +{uplift:.0} accuracy points over internal metrics ({:.0}% -> {:.0}%)",
                eval.internal_accuracy * 100.0,
                eval.explainability_accuracy * 100.0
            ),
        ],
    ];
    println!("Table 2: Coarsening Examples and Tradeoffs (measured)\n");
    println!(
        "{}",
        smn_bench::render_table(&["Example", "Mapping", "What's Lost", "What's Gained"], &rows)
    );

    println!("phase latency (wall clock, single run):");
    for name in
        ["te_fine_solve_ms", "te_coarse_solve_ms", "te_restricted_solve_ms", "incident_eval_ms"]
    {
        if let Some(h) = bench_obs.histogram(name) {
            println!("  {:<24} {:.1} ms (bucket ≤ {:.0} ms)", name, h.mean(), h.quantile(1.0));
        }
    }
}
