//! Demand matrices: the interface between bandwidth logs and TE solvers.
//!
//! A demand matrix is derived from bandwidth logs — per-epoch, or
//! aggregated over a window by a summary statistic (the time-coarsened
//! form of §4) — and can be *contracted* onto a coarse (supernode) graph
//! using a node map from topology coarsening.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::series::{
    ascending_runs, key_pair, merge_runs, merge_split_runs, pair_key, Statistic,
};
use smn_topology::NodeId;

/// Records from which [`DemandMatrix::from_records`] merges two halves
/// of the pairs on two threads. On a 2-vCPU host a spawn and join cost
/// ≈40 µs and merging a window-major log ≈7–11 ns a record: forked,
/// 12,000 records broke even and 24,000 took ≈117 µs against ≈170 µs on
/// one thread.
const MERGE_FORK_RECORDS: usize = 1 << 15;

/// The merge key of a record: its packed `(src, dst)` pair.
fn record_key(r: &BandwidthRecord) -> u64 {
    pair_key(r.src, r.dst)
}

/// The commodity of packed `pair` with `samples` sorted under
/// `f64::total_cmp`: its `stat`, kept when positive and not a self-loop.
fn commodity(stat: Statistic, pair: u64, samples: &[f64]) -> Option<Commodity> {
    let (src, dst) = key_pair(pair);
    let demand_gbps = stat.of_sorted(samples).filter(|&g| g > 0.0 && src != dst)?;
    Some(Commodity { src: NodeId(src), dst: NodeId(dst), demand_gbps })
}

/// Push onto `out` the commodity of each pair of the key-ascending
/// `runs`, in pair order.
fn merge_into(runs: Vec<&[BandwidthRecord]>, stat: Statistic, out: &mut Vec<Commodity>) {
    merge_split_runs(
        runs,
        record_key,
        |r| Some(r.gbps),
        |pair, samples| out.extend(commodity(stat, pair, samples)),
    );
}

/// One traffic commodity: demand between a node pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Commodity {
    /// Source node (fine or coarse, depending on the graph in use).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Demand in Gbps.
    pub demand_gbps: f64,
}

/// A demand matrix: a set of commodities over some graph's node space.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DemandMatrix {
    /// The commodities, one per communicating pair.
    pub commodities: Vec<Commodity>,
}

impl DemandMatrix {
    /// Build from explicit `(src, dst, gbps)` triples, dropping
    /// non-positive demands and merging duplicates.
    pub fn from_triples(triples: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> Self {
        let mut merged: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
        for (s, d, g) in triples {
            if g > 0.0 && s != d {
                *merged.entry((s, d)).or_insert(0.0) += g;
            }
        }
        // `NodeId` order is index order, so the map yields `(src, dst)` order.
        let commodities = merged
            .into_iter()
            .map(|((src, dst), demand_gbps)| Commodity { src, dst, demand_gbps })
            .collect();
        DemandMatrix { commodities }
    }

    /// Build from a window of bandwidth records, summarizing each pair's
    /// samples with `stat` (e.g. [`Statistic::Mean`] or p95 — the
    /// time-coarsening statistics of §4).
    ///
    /// The records are merged by pair with [`merge_runs`], which visits
    /// each pair once, in `(src, dst)` order, with its samples sorted
    /// under `f64::total_cmp`, the buffer [`Statistic::of_sorted`] takes.
    /// A window-major planning window is one pair-sorted run per window,
    /// so the merge walks it in place with no key buffer and no sort of
    /// the records; any other order costs `O(n log n)`. From
    /// `MERGE_FORK_RECORDS` records on, the pairs below the first run's
    /// middle pair and the rest are merged on two threads.
    #[must_use]
    pub fn from_records(records: &[BandwidthRecord], stat: Statistic) -> Self {
        if records.len() < MERGE_FORK_RECORDS {
            return Self::merged(records, stat);
        }
        let runs = ascending_runs(records, record_key);
        let pivot = runs.first().and_then(|run| run.get(run.len() / 2)).map(record_key);
        Self::merged_at(&runs, stat, pivot.unwrap_or(u64::MAX))
    }

    /// [`DemandMatrix::from_records`] on one thread: one [`merge_runs`].
    fn merged(records: &[BandwidthRecord], stat: Statistic) -> Self {
        let mut commodities = Vec::new();
        merge_runs(
            records,
            record_key,
            |r| Some(r.gbps),
            |pair, samples| {
                commodities.extend(commodity(stat, pair, samples));
            },
        );
        DemandMatrix { commodities }
    }

    /// The commodities of the key-ascending `runs`, the pairs below
    /// `pivot` merged on the caller and the rest on a spawned thread.
    ///
    /// Each run is cut at `pivot`, so every pair below it precedes every
    /// pair at or above it, and each pair keeps its samples in run order:
    /// the two halves' commodities, concatenated, are bit for bit those
    /// of one [`merge_runs`] over the runs, whatever the pivot.
    fn merged_at(runs: &[&[BandwidthRecord]], stat: Statistic, pivot: u64) -> Self {
        let cut = |run: &[BandwidthRecord]| run.partition_point(|r| record_key(r) < pivot);
        let low: Vec<_> = runs
            .iter()
            .map(|&run| run.split_at(cut(run)).0)
            .filter(|run| !run.is_empty())
            .collect();
        let high: Vec<_> = runs
            .iter()
            .map(|&run| run.split_at(cut(run)).1)
            .filter(|run| !run.is_empty())
            .collect();
        // The spawned branch fills a buffer the caller allocated, with
        // room for one commodity per record.
        let mut upper = Vec::with_capacity(high.iter().map(|run| run.len()).sum());
        let ((), mut commodities) = smn_obs::Obs::disabled().fork(
            ("demand/high", |_| merge_into(high, stat, &mut upper)),
            ("demand/low", |_| {
                let mut commodities = Vec::new();
                merge_into(low, stat, &mut commodities);
                commodities
            }),
        );
        commodities.append(&mut upper);
        DemandMatrix { commodities }
    }

    /// Total demand in Gbps.
    #[must_use]
    pub fn total_gbps(&self) -> f64 {
        self.commodities.iter().map(|c| c.demand_gbps).sum()
    }

    /// Number of commodities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.commodities.len()
    }

    /// Whether the matrix is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.commodities.is_empty()
    }

    /// Contract the matrix onto a coarse graph: each node is mapped by
    /// `node_map` (from [`smn_topology::graph::Contraction`]); demands
    /// whose endpoints merge into the same supernode disappear (they become
    /// intra-supernode traffic the coarse problem cannot see — §4's
    /// information loss), and the rest merge per coarse pair.
    #[must_use]
    pub fn contract(&self, node_map: &[NodeId]) -> DemandMatrix {
        Self::from_triples(self.commodities.iter().filter_map(|c| {
            let cs = node_map[c.src.index()];
            let cd = node_map[c.dst.index()];
            (cs != cd).then_some((cs, cd, c.demand_gbps))
        }))
    }

    /// The fraction of total demand that survives contraction (the rest is
    /// intra-supernode).
    #[must_use]
    pub fn contracted_fraction(&self, node_map: &[NodeId]) -> f64 {
        let total = self.total_gbps();
        if total == 0.0 {
            return 1.0;
        }
        self.contract(node_map).total_gbps() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_telemetry::series::SummaryStats;
    use smn_telemetry::time::Ts;

    fn rec(ts: u64, src: u32, dst: u32, gbps: f64) -> BandwidthRecord {
        BandwidthRecord { ts: Ts(ts), src, dst, gbps }
    }

    const ALL_STATS: [Statistic; 6] = [
        Statistic::Mean,
        Statistic::Min,
        Statistic::Max,
        Statistic::P50,
        Statistic::P95,
        Statistic::P99,
    ];

    /// The previous `from_records`: one sample vector per pair in a map,
    /// sorted, summarised by [`SummaryStats::of_sorted`] and merged by
    /// `from_triples`.
    fn from_records_by_map(records: &[BandwidthRecord], stat: Statistic) -> DemandMatrix {
        let mut samples: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
        for r in records {
            samples.entry((r.src, r.dst)).or_default().push(r.gbps);
        }
        DemandMatrix::from_triples(samples.into_iter().filter_map(|((s, d), mut v)| {
            v.sort_by(f64::total_cmp);
            Some((NodeId(s), NodeId(d), SummaryStats::of_sorted(&v)?.get(stat)))
        }))
    }

    /// Every commodity as raw bits, so NaN and the sign of zero compare
    /// exactly.
    fn commodity_bits(m: &DemandMatrix) -> Vec<(u32, u32, u64)> {
        m.commodities.iter().map(|c| (c.src.0, c.dst.0, c.demand_gbps.to_bits())).collect()
    }

    /// The values a generated record draws from half the time: ties,
    /// ±0.0, NaNs of both signs and a negative.
    const GBPS: [f64; 9] = [0.0, -0.0, 1.0, 1.0, 2.5, 40.0, -3.0, f64::NAN, -f64::NAN];

    /// Window-major logs as a planning window lays them out, with ragged
    /// runs: 1–12 windows, each one pair-sorted run of its own subset of
    /// up to 36 pairs over 6 nodes (self-loops included), so runs differ
    /// in length and a pair may sit in a few windows only. Values are
    /// drawn as [`demand_log`] draws them.
    fn ragged_log() -> impl proptest::strategy::Strategy<Value = Vec<BandwidthRecord>> {
        use proptest::strategy::Strategy;
        let cell = (0u64..36, 0usize..18, -50f64..50.0);
        proptest::collection::vec(proptest::collection::vec(cell, 0..30), 1..13).prop_map(
            |windows| {
                let mut log = Vec::new();
                for (w, mut cells) in (0u64..).zip(windows) {
                    cells.sort_by_key(|c| c.0);
                    cells.dedup_by_key(|c| c.0);
                    log.extend(cells.into_iter().map(|(pair, pick, x)| {
                        let (src, dst) = (u32::try_from(pair / 6), u32::try_from(pair % 6));
                        let gbps = GBPS.get(pick).copied().unwrap_or(x);
                        rec(w * 300, src.unwrap_or(0), dst.unwrap_or(0), gbps)
                    }));
                }
                log
            },
        )
    }

    /// Records over 1–4 nodes (self-loops included) with values drawn
    /// half from a pool of ties, ±0.0, NaNs and negatives, half
    /// arbitrary. In generation order (not time-ordered), or window-major
    /// with pairs sorted inside each epoch, as a planning window is laid
    /// out.
    fn demand_log() -> impl proptest::strategy::Strategy<Value = Vec<BandwidthRecord>> {
        use proptest::strategy::Strategy;
        (
            1u32..5,
            proptest::collection::vec((0u64..6, 0u32..4, 0u32..4, 0usize..18, -50f64..50.0), 0..60),
            0u8..2,
        )
            .prop_map(|(nodes, raw, ordered)| {
                let mut log: Vec<BandwidthRecord> = raw
                    .into_iter()
                    .map(|(epoch, s, d, pick, x)| {
                        rec(epoch * 300, s % nodes, d % nodes, GBPS.get(pick).copied().unwrap_or(x))
                    })
                    .collect();
                if ordered == 1 {
                    log.sort_by_key(|r| (r.ts, r.src, r.dst));
                }
                log
            })
    }

    proptest::proptest! {
        /// Merging the records' pair runs builds every commodity bit for
        /// bit as per-pair map grouping did, for every statistic.
        #[test]
        fn sorted_demand_matches_map_grouping(log in demand_log()) {
            for stat in ALL_STATS {
                proptest::prop_assert_eq!(
                    commodity_bits(&DemandMatrix::from_records(&log, stat)),
                    commodity_bits(&from_records_by_map(&log, stat))
                );
            }
        }
    }

    proptest::proptest! {
        /// Merging the pairs below a pivot and the rest apart, as the
        /// forked merge does, builds every commodity bit for bit as one
        /// merge does, for every pivot (each key of the log, and below and
        /// above them all) and every statistic, over [`demand_log`]'s logs
        /// and window-major logs with ragged runs.
        #[test]
        fn forked_demand_matches_one_merge_at_every_pivot(
            logs in (demand_log(), ragged_log()),
            ragged in 0u8..2,
        ) {
            let log = if ragged == 1 { logs.1 } else { logs.0 };
            let runs = ascending_runs(&log, record_key);
            let mut pivots: Vec<u64> = log.iter().map(record_key).collect();
            pivots.extend([0, 1, u64::MAX]);
            pivots.sort_unstable();
            pivots.dedup();
            for stat in ALL_STATS {
                let want = commodity_bits(&DemandMatrix::merged(&log, stat));
                for &pivot in &pivots {
                    proptest::prop_assert_eq!(
                        commodity_bits(&DemandMatrix::merged_at(&runs, stat, pivot)),
                        want,
                        "pivot {:#x}",
                        pivot
                    );
                }
            }
        }
    }

    /// From `MERGE_FORK_RECORDS` records on, `from_records` forks, and a
    /// window-major log of ragged runs still gives one merge's
    /// commodities.
    #[test]
    fn a_forked_window_major_log_gives_one_merges_commodities() {
        let per_window = u32::try_from(MERGE_FORK_RECORDS / 12).unwrap_or(u32::MAX) + 12;
        let log: Vec<BandwidthRecord> = (0u32..12)
            .flat_map(|w| {
                (0..per_window - w).map(move |p| {
                    let gbps = GBPS[((p + w) % 9) as usize] * f64::from(p % 7);
                    rec(u64::from(w) * 300, p / 64, p % 64 + w, gbps)
                })
            })
            .collect();
        assert!(log.len() >= MERGE_FORK_RECORDS);
        for stat in ALL_STATS {
            assert_eq!(
                commodity_bits(&DemandMatrix::from_records(&log, stat)),
                commodity_bits(&DemandMatrix::merged(&log, stat))
            );
        }
    }

    #[test]
    fn from_triples_merges_and_sorts() {
        let m = DemandMatrix::from_triples(vec![
            (NodeId(1), NodeId(0), 5.0),
            (NodeId(0), NodeId(1), 10.0),
            (NodeId(0), NodeId(1), 2.0),
            (NodeId(2), NodeId(2), 99.0), // self loop dropped
            (NodeId(0), NodeId(2), -1.0), // non-positive dropped
        ]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.commodities[0].src, NodeId(0));
        assert_eq!(m.commodities[0].demand_gbps, 12.0);
        assert_eq!(m.total_gbps(), 17.0);
    }

    #[test]
    fn from_records_applies_statistic() {
        let records = vec![rec(0, 0, 1, 100.0), rec(300, 0, 1, 200.0), rec(600, 0, 1, 300.0)];
        let mean = DemandMatrix::from_records(&records, Statistic::Mean);
        assert_eq!(mean.commodities[0].demand_gbps, 200.0);
        let max = DemandMatrix::from_records(&records, Statistic::Max);
        assert_eq!(max.commodities[0].demand_gbps, 300.0);
    }

    #[test]
    fn contraction_merges_and_drops_internal() {
        // Nodes 0,1 -> supernode 0; node 2 -> supernode 1.
        let map = vec![NodeId(0), NodeId(0), NodeId(1)];
        let m = DemandMatrix::from_triples(vec![
            (NodeId(0), NodeId(1), 50.0), // intra-supernode: vanishes
            (NodeId(0), NodeId(2), 30.0),
            (NodeId(1), NodeId(2), 20.0), // merges with the above
        ]);
        let c = m.contract(&map);
        assert_eq!(c.len(), 1);
        assert_eq!(c.commodities[0].demand_gbps, 50.0);
        assert!((m.contracted_fraction(&map) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_contracts_cleanly() {
        let m = DemandMatrix::default();
        assert!(m.is_empty());
        assert_eq!(m.contracted_fraction(&[]), 1.0);
    }
}
