//! **E2** — §4 "Impact on algorithmic performance": the Pareto frontier
//! between coarsening granularity and TE optimality (research question 1).
//!
//! For each granularity (datacenters → split-regions → regions →
//! continents) this binary solves the same max-multicommodity-flow problem
//! three ways and reports:
//!
//! * the *coarse solve*: Garg–Könemann on the contracted graph with the
//!   contracted demand — the fast, small problem operators would run;
//! * the *realized* solution: the fine problem restricted to
//!   coarse-conformant paths (what the coarse decision actually delivers on
//!   the real network);
//! * the *fine optimum*: unrestricted fine-grained GK as the baseline.
//!
//! Expected shape (paper, plus the NSDI '21 contraction result it cites):
//! solve time falls steeply with coarsening; realized quality stays close
//! to optimal at sensible granularities but the *visible demand* collapses
//! at continent granularity — the paper's degenerate "7 node" case (5
//! populated continents here), where the optimization only answers the
//! inter-continent question and "the routing within the large super nodes
//! is not specified".

use std::collections::HashMap;

use smn_bench::timer;

use smn_te::demand::DemandMatrix;
use smn_te::mcf::{max_multicommodity_flow, max_multicommodity_flow_with_paths, TeConfig};
use smn_te::restrict::RestrictedPaths;
use smn_telemetry::time::Ts;
use smn_topology::graph::Contraction;
use smn_topology::layer3::{SuperLink, SuperNode};

fn main() {
    let p = smn_bench::planetary();
    let model = smn_bench::traffic(&p);
    // Demand snapshot: the top commodities at a weekday noon (keeps the
    // fine GK tractable while covering all hot pairs).
    let ts = Ts::from_days(2) + 12 * 3600;
    let mut triples = model.demand_matrix(ts);
    triples.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite demands"));
    triples.truncate(400);
    // Scale offered demand to a realistic operating point (~60-80 % fine
    // satisfaction): the interesting regime is demand near capacity, not a
    // 40x-oversubscribed network where every solver saturates everything.
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

    // Fine optimum.
    let (fine, fine_ms) =
        timer::time_ms(|| max_multicommodity_flow(&p.wan.graph, cap, &demand, &cfg));
    println!(
        "fine problem: {} nodes, {} commodities, routed {:.0}/{:.0} Gbps in {:.0} ms\n",
        p.wan.dc_count(),
        demand.len(),
        fine.routed_gbps,
        fine.offered_gbps,
        fine_ms
    );

    let granularities: Vec<(&str, Contraction<SuperNode, SuperLink>)> = vec![
        ("split-regions", {
            // Split each region into two *contiguous* halves (node ids
            // within a region are consecutive by construction, so a
            // midpoint split keeps each half connected).
            let mut region_bounds: HashMap<u16, (usize, usize)> = HashMap::new();
            for (id, dc) in p.wan.graph.nodes() {
                let e = region_bounds.entry(dc.region.0).or_insert((usize::MAX, 0));
                e.0 = e.0.min(id.index());
                e.1 = e.1.max(id.index());
            }
            p.wan.contract_by_label(|id, dc| {
                let (lo, hi) = region_bounds[&dc.region.0];
                let half = (id.index() - lo) * 2 > hi - lo;
                format!("{}-r{}-h{}", dc.continent.code(), dc.region.0, u8::from(half))
            })
        }),
        ("regions", p.wan.contract_by_region()),
        ("continents", p.wan.contract_by_continent()),
    ];

    let mut rows = Vec::new();
    rows.push(vec![
        "datacenters (fine)".to_string(),
        format!("{}", p.wan.dc_count()),
        format!("{}", demand.len()),
        format!("{fine_ms:.0}"),
        "100%".to_string(),
        "1.000".to_string(),
        "1.000".to_string(),
    ]);
    for (name, contraction) in granularities {
        // Coarse solve (the speed benefit).
        let coarse_demand = demand.contract(&contraction.node_map);
        let (coarse_sol, coarse_ms) = timer::time_ms(|| {
            max_multicommodity_flow(
                &contraction.graph,
                |_, e| e.payload.capacity_gbps,
                &coarse_demand,
                &cfg,
            )
        });
        // Realization on the fine network under coarse-conformant paths.
        let mut table = RestrictedPaths::new(&p.wan, &contraction, cfg.k_paths);
        let restricted: Vec<Vec<smn_topology::Path>> =
            demand.commodities.iter().map(|c| table.paths(c.src, c.dst)).collect();
        let realized =
            max_multicommodity_flow_with_paths(&p.wan.graph, cap, &demand, &restricted, &cfg)
                .expect("one restricted path set per commodity");
        rows.push(vec![
            name.to_string(),
            format!("{}", contraction.graph.node_count()),
            format!("{}", coarse_demand.len()),
            format!("{coarse_ms:.0}"),
            format!("{:.0}%", demand.contracted_fraction(&contraction.node_map) * 100.0),
            format!("{:.3}", coarse_sol.satisfaction()),
            format!("{:.3}", realized.routed_gbps / fine.routed_gbps.max(1e-9)),
        ]);
    }

    println!(
        "{}",
        smn_bench::render_table(
            &[
                "granularity",
                "nodes",
                "commodities",
                "solve ms",
                "demand visible",
                "coarse satisfaction",
                "realized / fine-optimal"
            ],
            &rows
        )
    );
    println!(
        "note: 'realized / fine-optimal' is the paper's optimality loss — traffic must follow\n\
         supernode-level routing; intra-supernode traffic that the coarse problem cannot even\n\
         see is {:.0}% of offered demand at region level.",
        (1.0 - demand.contracted_fraction(&p.wan.contract_by_region().node_map)) * 100.0
    );
}
