//! F2 — property-based tests of the coarsening invariants (Figure 2's
//! "acting on s is approximately the same as acting on S", made precise
//! per coarsening) and of the solvers' safety properties.

use proptest::prelude::*;
use smn_core::bwlogs::{TimeCoarsener, TopologyCoarsener};
use smn_core::coarsen::Coarsening;
use smn_depgraph::coarse::CoarseDepGraph;
use smn_depgraph::syndrome::{Explainability, Syndrome};
use smn_te::demand::DemandMatrix;
use smn_te::mcf::{max_multicommodity_flow, TeConfig};
use smn_telemetry::chaos::{ChaosConfig, ChaosInjector};
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::series::{Statistic, SummaryStats};
use smn_telemetry::time::{Ts, EPOCH_SECS, HOUR};
use smn_topology::graph::DiGraph;
use smn_topology::NodeId;

/// Strategy: a small bandwidth log over `n_nodes` nodes and `epochs` epochs.
fn bw_log_strategy(n_nodes: u32, epochs: u64) -> impl Strategy<Value = Vec<BandwidthRecord>> {
    let record = (0..epochs, 0..n_nodes, 0..n_nodes, 1.0f64..2000.0)
        .prop_map(|(e, src, dst, gbps)| BandwidthRecord { ts: Ts(e * EPOCH_SECS), src, dst, gbps });
    proptest::collection::vec(record, 1..200).prop_map(|mut v| {
        v.sort_by_key(|r| r.ts);
        v
    })
}

proptest! {
    /// Time coarsening: every window's Mean lies within [Min, Max] of the
    /// raw samples it replaces, and total byte size never grows per row.
    #[test]
    fn time_coarsening_mean_bounded(log in bw_log_strategy(4, 48)) {
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::Min, Statistic::Max]);
        for r in c.coarsen(&log) {
            prop_assert!(r.values[1] <= r.values[0] + 1e-9);
            prop_assert!(r.values[0] <= r.values[2] + 1e-9);
        }
    }

    /// Time coarsening conserves sample counts: the windows partition the
    /// records (no sample lost, none double-counted).
    #[test]
    fn time_coarsening_partitions(log in bw_log_strategy(4, 48)) {
        let mut per_pair_window = std::collections::HashMap::new();
        for r in &log {
            *per_pair_window.entry((r.ts.0 / HOUR, r.src, r.dst)).or_insert(0usize) += 1;
        }
        let coarse = TimeCoarsener::new(HOUR, vec![Statistic::Mean]).coarsen(&log);
        prop_assert_eq!(coarse.len(), per_pair_window.len());
    }

    /// Topology coarsening conserves cross-supernode volume exactly and
    /// never invents traffic.
    #[test]
    fn topology_coarsening_conserves_volume(log in bw_log_strategy(6, 12)) {
        // 6 nodes -> 2 supernodes.
        let map: Vec<NodeId> = (0..6).map(|i| NodeId(i / 3)).collect();
        let c = TopologyCoarsener::new(map.clone());
        let coarse = c.coarsen(&log);
        let cross_sum: f64 = log
            .iter()
            .filter(|r| map[r.src as usize] != map[r.dst as usize])
            .map(|r| r.gbps)
            .sum();
        let coarse_sum: f64 = coarse.iter().map(|r| r.gbps).sum();
        prop_assert!((cross_sum - coarse_sum).abs() < 1e-6 * cross_sum.max(1.0));
        prop_assert!(coarse.len() <= log.len());
    }

    /// SummaryStats invariants on arbitrary positive samples.
    #[test]
    fn summary_stats_ordering(mut values in proptest::collection::vec(0.0f64..1e6, 1..100)) {
        values.sort_by(f64::total_cmp);
        let s = SummaryStats::of_sorted(&values).unwrap();
        prop_assert!(s.min <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.p99 + 1e-9);
        prop_assert!(s.p99 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std >= 0.0);
    }

    /// Symptom explainability is always in [0, 1] and the expected syndrome
    /// of a team perfectly explains itself.
    #[test]
    fn explainability_bounds(bits in proptest::collection::vec(0.0f64..=1.0, 5)) {
        let mut cdg = CoarseDepGraph::new();
        let teams: Vec<_> = (0..5).map(|i| cdg.add_team(format!("t{i}"))).collect();
        for w in teams.windows(2) {
            cdg.add_dependency(w[0], w[1]);
        }
        let ex = Explainability::new(&cdg);
        let syndrome = Syndrome(bits);
        for &t in &teams {
            let e = ex.explainability(&syndrome, t);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&e));
            let perfect = ex.explainability(ex.expected_syndrome(t), t);
            prop_assert!((perfect - 1.0).abs() < 1e-9);
        }
    }

    /// Garg–Könemann never violates capacities or demands, on random
    /// two-terminal networks with random parallel links.
    #[test]
    fn gk_is_always_feasible(
        caps in proptest::collection::vec(1.0f64..100.0, 2..8),
        demand_gbps in 1.0f64..500.0,
    ) {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        for &c in &caps {
            g.add_edge(a, b, c);
        }
        let demand = DemandMatrix::from_triples([(a, b, demand_gbps)]);
        let sol = max_multicommodity_flow(
            &g,
            |_, e| e.payload,
            &demand,
            &TeConfig { k_paths: caps.len(), ..Default::default() },
        );
        prop_assert!(sol.routed_gbps <= demand_gbps + 1e-9);
        prop_assert!(sol.max_utilization() <= 1.0 + 1e-9);
        // And it should route a meaningful fraction of what's feasible.
        let feasible = caps.iter().sum::<f64>().min(demand_gbps);
        prop_assert!(sol.routed_gbps >= 0.5 * feasible, "routed {} of feasible {}", sol.routed_gbps, feasible);
    }

    /// Contraction invariants on random group assignments: node maps are
    /// total, member lists partition the nodes, and no self-loop edges
    /// survive.
    #[test]
    fn contraction_partitions_nodes(groups in proptest::collection::vec(0u8..4, 2..30)) {
        let mut g: DiGraph<u8, ()> = DiGraph::new();
        for &grp in &groups {
            g.add_node(grp);
        }
        // Ring edges.
        for i in 0..groups.len() {
            g.add_edge(
                NodeId(i as u32),
                NodeId(((i + 1) % groups.len()) as u32),
                (),
            );
        }
        let c = g.contract(|_, &grp| grp, |_, members| members.len(), |_: Option<()>, _| ());
        prop_assert_eq!(c.node_map.len(), groups.len());
        let total_members: usize = c.members.iter().map(|m| m.len()).sum();
        prop_assert_eq!(total_members, groups.len());
        for (_, e) in c.graph.edges() {
            prop_assert!(e.src != e.dst, "self-loop survived contraction");
        }
    }
}

/// A dense, strictly ordered telemetry stream for chaos-injection tests.
fn chaos_stream(n: u64) -> Vec<BandwidthRecord> {
    (0..n).map(|i| BandwidthRecord { ts: Ts(i * 60), src: 0, dst: 1, gbps: i as f64 }).collect()
}

proptest! {
    /// Loss injection converges: on a large stream, the observed loss
    /// rate is within sampling noise of the configured rate, and the
    /// survivor count is exactly `input - dropped`.
    #[test]
    fn chaos_loss_rate_converges(seed in 0u64..1_000_000, rate in 0.0f64..=0.8) {
        let stream = chaos_stream(4000);
        let out = ChaosInjector::new(ChaosConfig::clean(seed).with_loss(rate)).apply(&stream);
        prop_assert_eq!(out.records.len(), out.report.input - out.report.dropped);
        // 4000 Bernoulli trials: |observed - p| < 0.05 is an ~8-sigma bound.
        prop_assert!(
            (out.report.observed_loss_rate() - rate).abs() < 0.05,
            "observed {} vs configured {}",
            out.report.observed_loss_rate(),
            rate
        );
    }

    /// Bounded lateness is a hard guarantee: no record is ever delivered
    /// more than `max_lateness_secs` after a record with a later
    /// timestamp, for any reorder rate and bound.
    #[test]
    fn chaos_lateness_bound_never_violated(
        seed in 0u64..1_000_000,
        rate in 0.0f64..=1.0,
        bound in 1u64..900,
    ) {
        let stream = chaos_stream(500);
        let out = ChaosInjector::new(ChaosConfig::clean(seed).with_reordering(rate, bound))
            .apply(&stream);
        prop_assert_eq!(out.records.len(), stream.len());
        prop_assert!(out.report.max_observed_delay_secs <= bound);
        let mut max_seen = 0u64;
        for r in &out.records {
            prop_assert!(
                max_seen <= r.ts.0 + bound,
                "record at ts {} arrived {} s after a later record",
                r.ts.0,
                max_seen - r.ts.0
            );
            max_seen = max_seen.max(r.ts.0);
        }
    }

    /// Chaos is a pure function of (seed, stream): the same config
    /// replayed over the same input yields the identical record sequence
    /// and report, which is what makes degraded-mode runs replayable.
    #[test]
    fn chaos_same_seed_identical_stream(seed in 0u64..1_000_000) {
        let stream = chaos_stream(300);
        let cfg = ChaosConfig::clean(seed)
            .with_loss(0.3)
            .with_duplication(0.1)
            .with_reordering(0.5, 600)
            .with_clock_skew(-30, 20);
        let a = ChaosInjector::new(cfg.clone()).apply(&stream);
        let b = ChaosInjector::new(cfg).apply(&stream);
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(a.report, b.report);
    }

    /// A clean config is the identity on any stream.
    #[test]
    fn chaos_clean_config_is_identity(seed in 0u64..1_000_000, n in 1u64..200) {
        let stream = chaos_stream(n);
        let out = ChaosInjector::new(ChaosConfig::clean(seed)).apply(&stream);
        prop_assert_eq!(&out.records, &stream);
        prop_assert_eq!(out.report.dropped, 0);
        prop_assert_eq!(out.report.duplicated, 0);
    }
}

// ---- unified layer stack (cross-layer map + generic propagation) -------

proptest! {
    /// CrossLayerMap: `down` and `up` are mutual inverses — an upper
    /// element maps to a lower element iff the lower element's up-set
    /// contains the upper, and `maps` agrees with both.
    #[test]
    fn cross_layer_map_up_down_are_mutual_inverses(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u32..16, 0..6),
            0..12,
        )
    ) {
        use smn_topology::layer1::WavelengthId;
        use smn_topology::{CrossLayerMap, EdgeId};
        let mut map: CrossLayerMap<WavelengthId, EdgeId> = CrossLayerMap::new();
        for row in &rows {
            map.push(row.iter().map(|&i| EdgeId(i)).collect());
        }
        prop_assert_eq!(map.upper_len(), rows.len());
        for u in 0..rows.len() {
            let upper = WavelengthId(u as u32);
            for d in 0u32..16 {
                let lower = EdgeId(d);
                let down_has = map.down(upper).contains(&lower);
                let up_has = map.up(lower).contains(&upper);
                prop_assert_eq!(down_has, up_has, "w{} <-> e{} asymmetric", u, d);
                prop_assert_eq!(down_has, map.maps(upper, lower));
            }
        }
        // Out-of-range lookups are empty on both axes.
        prop_assert!(map.down(WavelengthId(rows.len() as u32)).is_empty());
    }
}

proptest! {
    /// Generic stack fault propagation reproduces the legacy per-layer
    /// flap simulation for any seed: same schedule, same L3 outcome set.
    #[test]
    fn stack_propagation_matches_legacy_flap_simulation(seed in 0u64..100_000) {
        use smn_topology::failures::{simulate_flaps, simulate_stack_flaps};
        use smn_topology::gen::{generate_planetary, PlanetaryConfig};
        let p = generate_planetary(&PlanetaryConfig::small(7));
        let legacy = simulate_flaps(&p.optical, 45, seed);
        let stack = p.into_stack();
        let generic = simulate_stack_flaps(&stack, 45, seed);
        prop_assert_eq!(legacy.len(), generic.len());
        for (l, g) in legacy.iter().zip(&generic) {
            prop_assert_eq!(l.day, g.day);
            prop_assert_eq!(&g.impact.wavelengths, &vec![l.wavelength]);
            let mut links = l.links.clone();
            links.sort_unstable();
            links.dedup();
            prop_assert_eq!(&g.impact.links, &links, "L3 outcome sets differ");
        }
    }

    /// On a seeded 560-fault campaign, every legacy LinkFlap spec is
    /// reproduced exactly by walking the stack downward (L3 -> L7),
    /// whatever the campaign seed.
    #[test]
    fn stack_descent_matches_legacy_campaign_for_any_seed(seed in 0u64..100_000) {
        use smn_incident::faults::generate_campaign;
        use smn_incident::{CampaignConfig, DeploymentStack, FaultKind, RedditDeployment};
        use smn_topology::gen::{generate_planetary, PlanetaryConfig};
        use smn_topology::{EdgeId, StackFault};
        let d = RedditDeployment::build();
        let p = generate_planetary(&PlanetaryConfig::small(7));
        let ds = DeploymentStack::bind(&d, p.optical, p.wan);
        let cfg = CampaignConfig { seed, ..Default::default() };
        let faults = generate_campaign(&d, &cfg);
        prop_assert_eq!(faults.len(), 560);
        let mut flaps = 0usize;
        for legacy in faults.iter().filter(|f| f.kind == FaultKind::LinkFlap) {
            flaps += 1;
            let generic = ds.link_flap_specs(
                &d,
                StackFault::LinkDown(EdgeId(0)),
                legacy.id,
                legacy.variant,
                legacy.severity,
            );
            prop_assert_eq!(generic.len(), 1);
            prop_assert_eq!(&generic[0], legacy, "stack descent diverged from legacy");
        }
        prop_assert!(flaps > 0, "campaign must contain LinkFlap faults");
    }
}
