//! Coarse Bandwidth Logs (§4): time-based, topology-based, nested, and
//! churn-adaptive coarsening of `BandwidthRecord` streams.
//!
//! Each coarsener implements [`crate::coarsen::Coarsening`]
//! with byte-accurate size accounting, so the §4 claims ("a 10X reduction
//! in log size", "combined with time-based coarsening, the reduction
//! factor increases manifold") are measured, not assumed.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use smn_datalake::fault::LakeError;
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::series::{key_pair, merge_runs, pair_key, walk_runs, Statistic, SummaryStats};
use smn_telemetry::sizing::BW_RECORD_BYTES;
use smn_telemetry::time::Ts;
use smn_topology::NodeId;

use crate::coarsen::Coarsening;

/// One row of a time-coarsened bandwidth log: a pair's summary statistics
/// over a window, replacing `window_secs / EPOCH_SECS` raw rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoarseBwRecord {
    /// Window start.
    pub window_start: Ts,
    /// Window length in seconds.
    pub window_secs: u64,
    /// Source node (fine or supernode id, by construction).
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// One value per statistic in the coarsener's `stats` list.
    pub values: Vec<f64>,
}

impl CoarseBwRecord {
    /// Encoded size in bytes: ts(8) + window(8) + src(4) + dst(4) + values.
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        8 + 8 + 4 + 4 + 8 * self.values.len()
    }
}

/// Byte size of a coarse log.
#[must_use]
pub fn coarse_log_bytes(records: &[CoarseBwRecord]) -> usize {
    records.iter().map(|r| r.encoded_bytes()).sum()
}

/// Encode a coarse log into its wire form (the format
/// [`CoarseBwRecord::encoded_bytes`] accounts, plus a 2-byte value count
/// per record so heterogeneous statistic sets decode unambiguously).
/// Takes rows by reference, so incremental state encodes without cloning.
#[must_use]
pub fn encode_coarse_log<'a>(
    records: impl IntoIterator<Item = &'a CoarseBwRecord>,
) -> bytes::Bytes {
    use bytes::BufMut;
    let records = records.into_iter();
    // A one-statistic row is 34 bytes; longer rows grow the buffer.
    let mut buf = bytes::BytesMut::with_capacity(34 * records.size_hint().0);
    for r in records {
        buf.put_u64(r.window_start.0);
        buf.put_u64(r.window_secs);
        buf.put_u32(r.src);
        buf.put_u32(r.dst);
        buf.put_u16(r.values.len() as u16);
        for &v in &r.values {
            buf.put_f64(v);
        }
    }
    buf.freeze()
}

/// Decode a log encoded by [`encode_coarse_log`].
///
/// # Errors
/// Returns [`LakeError::Corrupt`] on a truncated buffer; the lake's
/// retry machinery treats that as persistent (retries cannot help).
pub fn decode_coarse_log(mut bytes: bytes::Bytes) -> Result<Vec<CoarseBwRecord>, LakeError> {
    use bytes::Buf;
    let corrupt =
        |detail: String| LakeError::Corrupt { dataset: "wan/bandwidth-logs".into(), detail };
    let mut out = Vec::new();
    while bytes.has_remaining() {
        if bytes.remaining() < 26 {
            return Err(corrupt(format!(
                "truncated record header: {} byte(s) left, need 26",
                bytes.remaining()
            )));
        }
        let window_start = Ts(bytes.get_u64());
        let window_secs = bytes.get_u64();
        let src = bytes.get_u32();
        let dst = bytes.get_u32();
        let n = bytes.get_u16() as usize;
        if bytes.remaining() < n * 8 {
            return Err(corrupt(format!(
                "truncated values for record {}: {} byte(s) left, need {}",
                out.len(),
                bytes.remaining(),
                n * 8
            )));
        }
        let values = (0..n).map(|_| bytes.get_f64()).collect();
        out.push(CoarseBwRecord { window_start, window_secs, src, dst, values });
    }
    Ok(out)
}

/// Time-based coarsening: replace per-epoch rows with per-window summary
/// statistics ("replace per-epoch demand traces … with summary statistics
/// (e.g., mean or 95th percentile bandwidth usage) over fixed smaller time
/// windows", §4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeCoarsener {
    /// Window length in seconds.
    pub window_secs: u64,
    /// Statistics retained per (pair, window).
    pub stats: Vec<Statistic>,
}

impl TimeCoarsener {
    /// Coarsener keeping `stats` over `window_secs` windows.
    #[must_use]
    pub fn new(window_secs: u64, stats: Vec<Statistic>) -> Self {
        assert!(window_secs > 0, "zero window");
        assert!(!stats.is_empty(), "at least one statistic");
        Self { window_secs, stats }
    }

    /// Group records into (pair, window) buckets and summarize each.
    /// Crate-visible so reconciliation (`crate::stream`) runs the batch
    /// oracle over the lake's borrowed slice.
    pub(crate) fn coarsen_records(&self, records: &[BandwidthRecord]) -> Vec<CoarseBwRecord> {
        self.coarsen_where(records, |_| true)
    }

    /// [`TimeCoarsener::coarsen_records`] over the records `keep` accepts.
    pub(crate) fn coarsen_where(
        &self,
        records: &[BandwidthRecord],
        keep: impl Fn(&BandwidthRecord) -> bool,
    ) -> Vec<CoarseBwRecord> {
        // A cell holds at least one record, so a row per record is enough
        // and the rows never regrow. Regrowing them instead raised the
        // 300-DC steady-state benchmark's peak RSS by 7 MB (glibc, 2
        // vCPUs). The unused tail is handed back before the log is.
        let mut out = Vec::with_capacity(records.len());
        self.for_each_cell(records, keep, |w, pair, samples| {
            if let Some(stats) = SummaryStats::of_sorted(samples) {
                out.push(self.row(w, pair, &stats));
            }
        });
        out.shrink_to_fit();
        out
    }

    /// Hand each `(window, pair)` cell of the records `keep` accepts to
    /// `visit` as `(window index, packed pair, samples)`, in
    /// `(window, src, dst)` order, with the cell's samples sorted under
    /// `f64::total_cmp`: the buffer [`SummaryStats::of_sorted`] and
    /// [`Statistic::of_sorted`] take. Every sink of the time oracle
    /// (coarse logs, the planning ladder's rows) shares this one walk.
    ///
    /// A time-ordered input (every lake slice) is walked one window at a
    /// time, and a window is the concatenation of its epochs, each sorted
    /// by pair: [`merge_runs`] merges those runs by [`pair_key`] in place,
    /// with no key buffer and no sort of the records. Any other input is
    /// merged whole by `(window, pair)`, which costs `O(n log n)`.
    pub(crate) fn for_each_cell(
        &self,
        records: &[BandwidthRecord],
        keep: impl Fn(&BandwidthRecord) -> bool,
        mut visit: impl FnMut(u64, u64, &[f64]),
    ) {
        let window_of = |r: &BandwidthRecord| r.ts.0 / self.window_secs;
        let sample = |r: &BandwidthRecord| keep(r).then_some(r.gbps);
        if !records.is_sorted_by_key(|r| r.ts) {
            let cell = |r: &BandwidthRecord| (window_of(r), pair_key(r.src, r.dst));
            merge_runs(records, cell, sample, |(w, pair), samples| visit(w, pair, samples));
            return;
        }
        let mut rest = records;
        while let Some(first) = rest.first() {
            let w = window_of(first);
            let Some((window, tail)) =
                rest.split_at_checked(rest.partition_point(|r| window_of(r) == w))
            else {
                break;
            };
            merge_runs(
                window,
                |r| pair_key(r.src, r.dst),
                sample,
                |pair, samples| visit(w, pair, samples),
            );
            rest = tail;
        }
    }

    /// The coarse row of window index `w` for a packed `pair`.
    fn row(&self, w: u64, pair: u64, stats: &SummaryStats) -> CoarseBwRecord {
        let (src, dst) = key_pair(pair);
        CoarseBwRecord {
            window_start: Ts(w * self.window_secs),
            window_secs: self.window_secs,
            src,
            dst,
            values: self.stats.iter().map(|&s| stats.get(s)).collect(),
        }
    }

    /// Estimated demand for a pair in the window containing `ts`, using the
    /// first statistic (the acting-on-`s` side of Figure 2); `None` when no
    /// row covers it or the row carries no statistic.
    ///
    /// `records` must be a uniform-window coarse log sorted by
    /// `(window_start, src, dst)` — exactly what [`TimeCoarsener::coarsen`]
    /// produces. Under that contract the containing window can only start
    /// at `ts` rounded down to the window, so the row is found by binary
    /// search: per-tick estimates stay `O(log n)` as the log grows instead
    /// of the old full scan.
    #[must_use]
    pub fn estimate(records: &[CoarseBwRecord], src: u32, dst: u32, ts: Ts) -> Option<f64> {
        let window_secs = records.first()?.window_secs;
        debug_assert!(
            records.iter().all(|r| r.window_secs == window_secs),
            "estimate requires a uniform-window log"
        );
        let target = Ts(ts.0 / window_secs * window_secs);
        records
            .binary_search_by(|r| (r.window_start, r.src, r.dst).cmp(&(target, src, dst)))
            .ok()
            .and_then(|i| records.get(i)?.values.first().copied())
    }
}

impl Coarsening for TimeCoarsener {
    type Fine = Vec<BandwidthRecord>;
    type Coarse = Vec<CoarseBwRecord>;

    fn layer(&self) -> Option<smn_topology::LayerId> {
        Some(smn_topology::LayerId::L3)
    }
    fn coarsen(&self, fine: &Self::Fine) -> Self::Coarse {
        self.coarsen_records(fine)
    }
    fn fine_size(&self, fine: &Self::Fine) -> usize {
        fine.len() * BW_RECORD_BYTES
    }
    fn coarse_size(&self, coarse: &Self::Coarse) -> usize {
        coarse_log_bytes(coarse)
    }
}

/// Topology-based coarsening: rewrite records onto supernodes via a node
/// map (from [`smn_topology::graph::Contraction`]) and merge rows per
/// coarse pair per epoch. Intra-supernode rows vanish — the §4 information
/// loss ("the routing within the large super nodes is not specified").
#[derive(Debug, Clone)]
pub struct TopologyCoarsener {
    /// For each fine node index, its supernode.
    pub node_map: Vec<NodeId>,
}

impl TopologyCoarsener {
    /// From a contraction's node map.
    #[must_use]
    pub fn new(node_map: Vec<NodeId>) -> Self {
        Self { node_map }
    }

    fn coarsen_records(&self, records: &[BandwidthRecord]) -> Vec<BandwidthRecord> {
        let mut merged: HashMap<(u64, u32, u32), f64> = HashMap::new();
        for r in records {
            let cs = self.node_map[r.src as usize].0;
            let cd = self.node_map[r.dst as usize].0;
            if cs == cd {
                continue;
            }
            *merged.entry((r.ts.0, cs, cd)).or_insert(0.0) += r.gbps;
        }
        let mut out: Vec<BandwidthRecord> = merged
            .into_iter()
            .map(|((ts, src, dst), gbps)| BandwidthRecord { ts: Ts(ts), src, dst, gbps })
            .collect();
        out.sort_by_key(|r| (r.ts, r.src, r.dst));
        out
    }
}

impl Coarsening for TopologyCoarsener {
    type Fine = Vec<BandwidthRecord>;
    type Coarse = Vec<BandwidthRecord>;

    fn layer(&self) -> Option<smn_topology::LayerId> {
        Some(smn_topology::LayerId::L3)
    }
    fn coarsen(&self, fine: &Self::Fine) -> Self::Coarse {
        self.coarsen_records(fine)
    }
    fn fine_size(&self, fine: &Self::Fine) -> usize {
        fine.len() * BW_RECORD_BYTES
    }
    fn coarse_size(&self, coarse: &Self::Coarse) -> usize {
        coarse.len() * BW_RECORD_BYTES
    }
}

/// Nested (multi-resolution) time coarsening: "more sophisticated variants
/// … compute multiple summary statistics over nested time windows to
/// preserve important trends while shrinking the dataset" (§4).
///
/// Records younger than `fine_horizon` stay raw; records between the two
/// horizons summarize over `mid_window`; older records summarize over
/// `old_window`. This is what lets last year's seasonal spike survive in a
/// `Max` statistic while the bulk of history shrinks (the E5 experiment).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NestedCoarsener {
    /// Age (seconds, relative to `now`) under which records stay raw.
    pub fine_horizon: u64,
    /// Age under which records use `mid_window`.
    pub mid_horizon: u64,
    /// Mid-tier window length.
    pub mid_window: u64,
    /// Old-tier window length.
    pub old_window: u64,
    /// Statistics kept in the summarized tiers.
    pub stats: Vec<Statistic>,
    /// Reference time for age computation.
    pub now: Ts,
}

/// Output of nested coarsening: a raw recent tier plus summarized tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedLog {
    /// Recent raw rows.
    pub raw: Vec<BandwidthRecord>,
    /// Mid + old tier summary rows.
    pub summarized: Vec<CoarseBwRecord>,
}

impl NestedLog {
    /// Total encoded bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.raw.len() * BW_RECORD_BYTES + coarse_log_bytes(&self.summarized)
    }

    /// Row count across tiers.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.raw.len() + self.summarized.len()
    }
}

impl Coarsening for NestedCoarsener {
    type Fine = Vec<BandwidthRecord>;
    type Coarse = NestedLog;

    fn layer(&self) -> Option<smn_topology::LayerId> {
        Some(smn_topology::LayerId::L3)
    }
    fn coarsen(&self, fine: &Self::Fine) -> NestedLog {
        assert!(self.fine_horizon <= self.mid_horizon, "horizons must nest");
        let age = |r: &BandwidthRecord| self.now.0.saturating_sub(r.ts.0);
        let raw = fine.iter().filter(|r| age(r) < self.fine_horizon).copied().collect();
        let mut summarized = TimeCoarsener::new(self.mid_window, self.stats.clone())
            .coarsen_where(fine, |r| (self.fine_horizon..self.mid_horizon).contains(&age(r)));
        summarized.extend(
            TimeCoarsener::new(self.old_window, self.stats.clone())
                .coarsen_where(fine, |r| age(r) >= self.mid_horizon),
        );
        NestedLog { raw, summarized }
    }
    fn fine_size(&self, fine: &Self::Fine) -> usize {
        fine.len() * BW_RECORD_BYTES
    }
    fn coarse_size(&self, coarse: &NestedLog) -> usize {
        coarse.bytes()
    }
}

/// Churn-adaptive coarsening (§4 research question 2): classify each pair
/// by the coefficient of variation of its history, keep *volatile* pairs at
/// fine windows and summarize *stable* pairs over long windows — "coarsen
/// only the stable parts".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveCoarsener {
    /// CV above which a pair counts as volatile.
    pub cv_threshold: f64,
    /// Window for stable pairs (long).
    pub stable_window: u64,
    /// Window for volatile pairs (short).
    pub volatile_window: u64,
    /// Statistics kept.
    pub stats: Vec<Statistic>,
}

impl AdaptiveCoarsener {
    /// Whether a pair with these summary statistics is volatile: its
    /// coefficient of variation exceeds `cv_threshold`. A pair with a
    /// non-positive (or NaN) mean is stable.
    #[must_use]
    pub fn is_volatile(&self, stats: &SummaryStats) -> bool {
        stats.mean > 0.0 && stats.std / stats.mean > self.cv_threshold
    }

    /// Classify pairs by CV of their samples; returns the volatile set,
    /// sorted.
    #[must_use]
    pub fn volatile_pairs(&self, records: &[BandwidthRecord]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.for_each_pair(records, |pair, volatile, _, _| {
            if volatile {
                out.push(key_pair(pair));
            }
        });
        out
    }

    /// Walk `records` by pair and call `f` once per pair, in `(src, dst)`
    /// order, with the packed pair, its class, the summary of all its
    /// samples and its `(ts, gbps)` samples in input order (time order for
    /// a lake slice). The summary is [`SummaryStats::of_sorted`] over a
    /// copy of the values sorted under `f64::total_cmp`, and the class is
    /// [`AdaptiveCoarsener::is_volatile`] of it.
    ///
    /// A time-ordered lake is a run of pair-sorted epochs, which
    /// [`walk_runs`] merges in place: no key per record and no sort of
    /// the lake, only each pair's own samples.
    fn for_each_pair(
        &self,
        records: &[BandwidthRecord],
        mut f: impl FnMut(u64, bool, &SummaryStats, &mut Vec<(u64, f64)>),
    ) {
        let mut values: Vec<f64> = Vec::new();
        let pair_of = |r: &BandwidthRecord| pair_key(r.src, r.dst);
        walk_runs(
            records,
            pair_of,
            |r| Some((r.ts.0, r.gbps)),
            |pair, samples| {
                values.clear();
                values.extend(samples.iter().map(|&(_, v)| v));
                values.sort_unstable_by(f64::total_cmp);
                if let Some(whole) = SummaryStats::of_sorted(&values) {
                    f(pair, self.is_volatile(&whole), &whole, samples);
                }
            },
        );
    }
}

impl Coarsening for AdaptiveCoarsener {
    type Fine = Vec<BandwidthRecord>;
    type Coarse = Vec<CoarseBwRecord>;

    fn layer(&self) -> Option<smn_topology::LayerId> {
        Some(smn_topology::LayerId::L3)
    }
    fn coarsen(&self, fine: &Self::Fine) -> Vec<CoarseBwRecord> {
        self.coarsen_records(fine)
    }
    fn fine_size(&self, fine: &Self::Fine) -> usize {
        fine.len() * BW_RECORD_BYTES
    }
    fn coarse_size(&self, coarse: &Vec<CoarseBwRecord>) -> usize {
        coarse_log_bytes(coarse)
    }
}

impl AdaptiveCoarsener {
    /// [`Coarsening::coarsen`] over a borrowed slice, so reconciliation
    /// coarsens the lake in place instead of cloning it.
    ///
    /// One walk by pair ([`AdaptiveCoarsener::for_each_pair`]) classifies
    /// each pair. A pair whose samples all fall in one window of its class
    /// has that window's summary in hand: the classification summary, bit
    /// for bit (on the benchmark, every stable pair's day). Otherwise a
    /// stable sort by window index buckets its time-ordered samples, in
    /// `O(n)` on sorted input, and each bucket's values are sorted and
    /// summarised with [`SummaryStats::of_sorted`]. A pair has one window
    /// size, so the final `(window_start, src, dst)` sort has unique keys.
    pub(crate) fn coarsen_records(&self, fine: &[BandwidthRecord]) -> Vec<CoarseBwRecord> {
        let volatile = TimeCoarsener::new(self.volatile_window, self.stats.clone());
        let stable = TimeCoarsener::new(self.stable_window, self.stats.clone());
        let mut out = Vec::new();
        let mut cell: Vec<f64> = Vec::new();
        self.for_each_pair(fine, |pair, is_volatile, whole, samples| {
            let class = if is_volatile { &volatile } else { &stable };
            let window_of = |&(ts, _): &(u64, f64)| ts / class.window_secs;
            let mut windows = samples.iter().map(window_of);
            if let Some(w) = windows.next().filter(|&w| windows.all(|x| x == w)) {
                out.push(class.row(w, pair, whole));
                return;
            }
            samples.sort_by_key(window_of);
            for bucket in samples.chunk_by(|a, b| window_of(a) == window_of(b)) {
                cell.clear();
                cell.extend(bucket.iter().map(|&(_, v)| v));
                cell.sort_unstable_by(f64::total_cmp);
                if let (Some(w), Some(stats)) =
                    (bucket.first().map(window_of), SummaryStats::of_sorted(&cell))
                {
                    out.push(class.row(w, pair, &stats));
                }
            }
        });
        out.sort_unstable_by_key(|r| (r.window_start, r.src, r.dst));
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coarsen::Coarsening;
    use smn_telemetry::time::{DAY, EPOCH_SECS, HOUR};
    use std::collections::HashSet;

    /// One pair, one record per epoch for `epochs`, gbps = epoch index.
    fn ramp_log(epochs: u64) -> Vec<BandwidthRecord> {
        (0..epochs)
            .map(|e| BandwidthRecord { ts: Ts(e * EPOCH_SECS), src: 0, dst: 1, gbps: e as f64 })
            .collect()
    }

    #[test]
    fn time_coarsening_reduces_rows_by_window_ratio() {
        let log = ramp_log(288); // one day of 5-min epochs
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean]);
        let report = c.report(&log);
        assert_eq!(report.coarse.len(), 24);
        assert!(report.shrinks());
        // 12 epochs/hour, coarse row wider than fine -> factor < 12 by bytes.
        assert!(report.reduction_factor() > 8.0);
    }

    #[test]
    fn time_coarsening_statistics_correct() {
        let log = ramp_log(12); // one hour
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::Max]);
        let coarse = c.coarsen(&log);
        assert_eq!(coarse.len(), 1);
        assert_eq!(coarse[0].values[0], 5.5); // mean of 0..12
        assert_eq!(coarse[0].values[1], 11.0);
        assert_eq!(coarse[0].encoded_bytes(), 8 + 8 + 4 + 4 + 16);
    }

    #[test]
    fn estimate_reads_containing_window() {
        let log = ramp_log(24);
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean]);
        let coarse = c.coarsen(&log);
        let e = TimeCoarsener::estimate(&coarse, 0, 1, Ts(HOUR + 100)).unwrap();
        assert_eq!(e, 17.5); // mean of 12..24
        assert!(TimeCoarsener::estimate(&coarse, 5, 6, Ts(0)).is_none());
    }

    #[test]
    fn estimate_binary_search_agrees_with_linear_scan() {
        // Multi-pair log so rows interleave within each window.
        let mut log = Vec::new();
        for e in 0..96u32 {
            for (src, dst) in [(0u32, 1u32), (0, 2), (3, 1)] {
                log.push(BandwidthRecord {
                    ts: Ts(u64::from(e) * EPOCH_SECS),
                    src,
                    dst,
                    gbps: f64::from(e + src + dst),
                });
            }
        }
        let coarse = TimeCoarsener::new(HOUR, vec![Statistic::Mean]).coarsen(&log);
        let linear = |src: u32, dst: u32, ts: Ts| {
            coarse
                .iter()
                .find(|r| {
                    r.src == src
                        && r.dst == dst
                        && r.window_start.0 <= ts.0
                        && ts.0 < r.window_start.0 + r.window_secs
                })
                .map(|r| r.values[0])
        };
        for src in 0..4u32 {
            for dst in 0..3u32 {
                for ts in [Ts(0), Ts(HOUR - 1), Ts(HOUR), Ts(5 * HOUR + 17), Ts(9 * HOUR)] {
                    assert_eq!(
                        TimeCoarsener::estimate(&coarse, src, dst, ts),
                        linear(src, dst, ts),
                        "pair ({src},{dst}) at {ts:?}"
                    );
                }
            }
        }
        assert!(TimeCoarsener::estimate(&[], 0, 1, Ts(0)).is_none());
    }

    #[test]
    fn coarse_log_codec_roundtrips() {
        let log = ramp_log(48);
        let coarse = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::P95]).coarsen(&log);
        let wire = encode_coarse_log(&coarse);
        let back = decode_coarse_log(wire).expect("roundtrip decodes");
        assert_eq!(coarse, back);
    }

    #[test]
    fn coarse_log_decode_rejects_truncation() {
        let log = ramp_log(12);
        let coarse = TimeCoarsener::new(HOUR, vec![Statistic::Mean]).coarsen(&log);
        let mut wire = encode_coarse_log(&coarse);
        let cut = wire.split_to(wire.len() - 3);
        let err = decode_coarse_log(cut).expect_err("truncated log must not decode");
        assert!(matches!(err, LakeError::Corrupt { .. }), "got {err}");
        assert!(!err.is_transient(), "corruption is persistent, not retryable");
    }

    #[test]
    fn topology_coarsening_merges_pairs_and_drops_internal() {
        // 3 nodes; 0,1 -> super 0, 2 -> super 1.
        let map = vec![NodeId(0), NodeId(0), NodeId(1)];
        let log = vec![
            BandwidthRecord { ts: Ts(0), src: 0, dst: 1, gbps: 100.0 }, // internal
            BandwidthRecord { ts: Ts(0), src: 0, dst: 2, gbps: 10.0 },
            BandwidthRecord { ts: Ts(0), src: 1, dst: 2, gbps: 20.0 },
            BandwidthRecord { ts: Ts(300), src: 0, dst: 2, gbps: 5.0 },
        ];
        let c = TopologyCoarsener::new(map);
        let coarse = c.coarsen(&log);
        assert_eq!(coarse.len(), 2);
        assert_eq!(coarse[0].gbps, 30.0);
        assert_eq!(coarse[1].gbps, 5.0);
        assert_eq!(c.report(&log).reduction_factor(), 2.0);
    }

    #[test]
    fn nested_keeps_recent_raw_and_summarizes_old() {
        // 10 days of data, now = day 10.
        let log = ramp_log(10 * 288);
        let c = NestedCoarsener {
            fine_horizon: DAY,
            mid_horizon: 5 * DAY,
            mid_window: 6 * HOUR,
            old_window: DAY,
            stats: vec![Statistic::Mean, Statistic::Max],
            now: Ts(10 * DAY),
        };
        let nested = c.coarsen(&log);
        // Raw tier: strictly younger than 1 day (ts > 9d) = 287 rows.
        assert_eq!(nested.raw.len(), 287);
        // Mid tier: ts in (5d, 9d] = 16 full 6h-windows + the 9d boundary
        // record's window; old tier: ts in [0, 5d] = 6 day-windows.
        assert_eq!(nested.summarized.len(), 17 + 6);
        assert!(c.report(&log).reduction_factor() > 5.0);
    }

    #[test]
    fn nested_max_statistic_preserves_spike() {
        // Flat traffic with one old spike at day 2.
        let mut log = ramp_log(0);
        for e in 0..(10 * 288) {
            let ts = Ts(e * EPOCH_SECS);
            let gbps =
                if ts.0 / DAY == 2 && (ts.0 % DAY) / EPOCH_SECS == 100 { 999.0 } else { 10.0 };
            log.push(BandwidthRecord { ts, src: 0, dst: 1, gbps });
        }
        let c = NestedCoarsener {
            fine_horizon: DAY,
            mid_horizon: 5 * DAY,
            mid_window: 6 * HOUR,
            old_window: DAY,
            stats: vec![Statistic::Mean, Statistic::Max],
            now: Ts(10 * DAY),
        };
        let nested = c.coarsen(&log);
        let spike_window = nested
            .summarized
            .iter()
            .find(|r| r.window_start == Ts(2 * DAY))
            .expect("day-2 window exists");
        assert_eq!(spike_window.values[1], 999.0, "Max preserves the spike");
        assert!(spike_window.values[0] < 20.0, "Mean flattens it");
    }

    /// The `HashMap` grouping plus final sort that `coarsen_where`
    /// replaced: the byte-identity oracle for the run-merging time
    /// coarsener, and, walking no runs, for the incremental logs.
    pub(crate) fn coarsen_by_map(
        c: &TimeCoarsener,
        records: &[BandwidthRecord],
    ) -> Vec<CoarseBwRecord> {
        let mut buckets: HashMap<(u64, u32, u32), Vec<f64>> = HashMap::new();
        for r in records {
            buckets.entry((r.ts.0 / c.window_secs, r.src, r.dst)).or_default().push(r.gbps);
        }
        let mut out: Vec<CoarseBwRecord> = buckets
            .into_iter()
            .filter_map(|((w, src, dst), vals)| {
                let stats = SummaryStats::of(&vals)?;
                Some(CoarseBwRecord {
                    window_start: Ts(w * c.window_secs),
                    window_secs: c.window_secs,
                    src,
                    dst,
                    values: c.stats.iter().map(|&s| stats.get(s)).collect(),
                })
            })
            .collect();
        out.sort_by_key(|r| (r.window_start, r.src, r.dst));
        out
    }

    /// The `HashMap` of per-pair samples plus [`SummaryStats::of`] that
    /// the pair walk replaced: the oracle for `volatile_pairs`.
    fn volatile_by_map(c: &AdaptiveCoarsener, records: &[BandwidthRecord]) -> Vec<(u32, u32)> {
        let mut samples: HashMap<(u32, u32), Vec<f64>> = HashMap::new();
        for r in records {
            samples.entry((r.src, r.dst)).or_default().push(r.gbps);
        }
        let mut out: Vec<(u32, u32)> = samples
            .into_iter()
            .filter(|(_, v)| SummaryStats::of(v).is_some_and(|s| c.is_volatile(&s)))
            .map(|(k, _)| k)
            .collect();
        out.sort_unstable();
        out
    }

    /// The partitioned-copy adaptive coarsening the pair walk replaced;
    /// it walks no runs, so it also checks the incremental logs.
    pub(crate) fn adaptive_by_partition(
        c: &AdaptiveCoarsener,
        fine: &[BandwidthRecord],
    ) -> Vec<CoarseBwRecord> {
        let volatile: HashSet<(u32, u32)> = volatile_by_map(c, fine).into_iter().collect();
        let (vol, stable): (Vec<BandwidthRecord>, Vec<BandwidthRecord>) =
            fine.iter().partition(|r| volatile.contains(&(r.src, r.dst)));
        let mut out = coarsen_by_map(&TimeCoarsener::new(c.volatile_window, c.stats.clone()), &vol);
        out.extend(coarsen_by_map(&TimeCoarsener::new(c.stable_window, c.stats.clone()), &stable));
        out.sort_by_key(|r| (r.window_start, r.src, r.dst));
        out
    }

    /// The pair-major keyed sort the walked adaptive oracle replaced:
    /// every record keyed `(pair, value, ts)` and the whole slice sorted,
    /// values under `f64::total_cmp`. A pair's run is its history in value
    /// order; a stable sort on its class's window index buckets it, each
    /// bucket still value-sorted.
    fn adaptive_by_keyed_sort(
        c: &AdaptiveCoarsener,
        fine: &[BandwidthRecord],
    ) -> Vec<CoarseBwRecord> {
        let volatile = TimeCoarsener::new(c.volatile_window, c.stats.clone());
        let stable = TimeCoarsener::new(c.stable_window, c.stats.clone());
        let mut keyed: Vec<(u64, f64, u64)> =
            fine.iter().map(|r| (pair_key(r.src, r.dst), r.gbps, r.ts.0)).collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut out = Vec::new();
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let values: Vec<f64> = run.iter().map(|k| k.1).collect();
            let Some(whole) = SummaryStats::of_sorted(&values) else { continue };
            let class = if c.is_volatile(&whole) { &volatile } else { &stable };
            let mut bucketed: Vec<(u64, f64)> =
                run.iter().map(|&(_, v, ts)| (ts / class.window_secs, v)).collect();
            bucketed.sort_by_key(|&(w, _)| w);
            for cell in bucketed.chunk_by(|a, b| a.0 == b.0) {
                let values: Vec<f64> = cell.iter().map(|&(_, v)| v).collect();
                if let Some(stats) = SummaryStats::of_sorted(&values) {
                    out.push(class.row(cell[0].0, run[0].0, &stats));
                }
            }
        }
        out.sort_by_key(|r| (r.window_start, r.src, r.dst));
        out
    }

    const ALL_STATS: [Statistic; 6] = [
        Statistic::Mean,
        Statistic::Min,
        Statistic::Max,
        Statistic::P50,
        Statistic::P95,
        Statistic::P99,
    ];

    /// Up to 400 generated `(epoch, src pick, dst pick, value pick)`
    /// records over three days on the first one to six nodes, so some
    /// logs give a pair runs long enough for sorts to leave their
    /// small-slice (stable) path.
    fn raw_log() -> impl proptest::strategy::Strategy<Value = Vec<(u64, usize, usize, usize)>> {
        let raw = proptest::collection::vec((0u64..864, 0usize..6, 0usize..6, 0usize..9), 0..400);
        proptest::strategy::Strategy::prop_map((1usize..7, raw), |(nodes, raw)| {
            raw.into_iter().map(|(e, src, dst, v)| (e, src % nodes, dst % nodes, v)).collect()
        })
    }

    /// Records on small node ids and ids at the edges of `u32` (so a wrong
    /// pair packing collides or reorders pairs), with values from a pool
    /// with ties, a negative, ±0.0 and (with `nan`) both NaN signs.
    /// `ordered` sorts by timestamp (a lake slice); otherwise the generated
    /// order stays (a shuffle).
    fn oracle_log(
        raw: &[(u64, usize, usize, usize)],
        ordered: bool,
        nan: bool,
    ) -> Vec<BandwidthRecord> {
        const NODES: [u32; 6] = [0, 1, 2, 3, 1 << 31, u32::MAX];
        const GBPS: [f64; 9] = [0.0, -0.0, 1.0, 1.0, 2.5, 40.0, -3.0, f64::NAN, -f64::NAN];
        let pool = if nan { GBPS.len() } else { GBPS.len() - 2 };
        let mut log: Vec<BandwidthRecord> = raw
            .iter()
            .map(|&(epoch, src, dst, v)| BandwidthRecord {
                ts: Ts(epoch * EPOCH_SECS + epoch % 7),
                src: NODES[src],
                dst: NODES[dst],
                gbps: GBPS[v % pool],
            })
            .collect();
        if ordered {
            log.sort_by_key(|r| r.ts);
        }
        log
    }

    /// The adaptive coarsener the oracle proptests run, at `cv_threshold`.
    fn adaptive(cv_threshold: f64) -> AdaptiveCoarsener {
        AdaptiveCoarsener {
            cv_threshold,
            stable_window: DAY,
            volatile_window: HOUR,
            stats: ALL_STATS.to_vec(),
        }
    }

    proptest::proptest! {
        /// Merging each window's pair runs (or, shuffled, the whole log's
        /// `(window, pair)` runs) encodes every row exactly as map
        /// grouping plus a final sort, for time-ordered and shuffled
        /// inputs, at epoch, hour and day windows.
        #[test]
        fn sorted_time_oracle_matches_map_grouping(
            raw in raw_log(),
            ordered in 0u8..2,
            window_pick in 0usize..3,
        ) {
            let log = oracle_log(&raw, ordered == 1, true);
            let c = TimeCoarsener::new([EPOCH_SECS, HOUR, DAY][window_pick], ALL_STATS.to_vec());
            proptest::prop_assert_eq!(
                encode_coarse_log(&c.coarsen_records(&log)),
                encode_coarse_log(&coarsen_by_map(&c, &log))
            );
        }

        /// Classifying pairs from the pair walk gives the volatile set
        /// that per-pair `HashMap` sample vectors give.
        #[test]
        fn pair_sorted_volatile_pairs_match_map(
            raw in raw_log(),
            ordered in 0u8..2,
            nan in 0u8..4,
            cv_threshold in 0.0f64..1.5,
        ) {
            let log = oracle_log(&raw, ordered == 1, nan == 0);
            let c = adaptive(cv_threshold);
            proptest::prop_assert_eq!(c.volatile_pairs(&log), volatile_by_map(&c, &log));
        }

        /// Coarsening each pair's walked samples, bucketed by its class's
        /// window, encodes exactly as coarsening partitioned copies of the
        /// log.
        #[test]
        fn pair_sorted_adaptive_oracle_matches_partition(
            raw in raw_log(),
            ordered in 0u8..2,
            nan in 0u8..4,
            cv_threshold in 0.0f64..1.5,
        ) {
            // NaN makes a pair's CV NaN (stable), so most cases leave it
            // out to keep both classes populated.
            let log = oracle_log(&raw, ordered == 1, nan == 0);
            let c = adaptive(cv_threshold);
            proptest::prop_assert_eq!(
                encode_coarse_log(&c.coarsen_records(&log)),
                encode_coarse_log(&adaptive_by_partition(&c, &log))
            );
        }
    }

    proptest::proptest! {
        /// The walked adaptive oracle encodes every row exactly as the
        /// pair-major keyed sort it replaced, over time-ordered and
        /// unordered logs with duplicate `(pair, ts)` records, NaN and
        /// ±0.0 samples, and stable pairs whose history spans two or three
        /// day windows. Each log is checked whole and at its halfway
        /// prefix, so a pair can change class between the two.
        #[test]
        fn walked_adaptive_oracle_matches_keyed_sort(
            raw in raw_log(),
            ordered in 0u8..2,
            nan in 0u8..4,
            cv_threshold in 0.0f64..1.5,
        ) {
            let log = oracle_log(&raw, ordered == 1, nan == 0);
            let c = adaptive(cv_threshold);
            for prefix in [&log[..log.len() / 2], &log[..]] {
                proptest::prop_assert_eq!(
                    encode_coarse_log(&c.coarsen_records(prefix)),
                    encode_coarse_log(&adaptive_by_keyed_sort(&c, prefix))
                );
            }
        }
    }

    #[test]
    fn adaptive_separates_stable_and_volatile() {
        // Pair (0,1): constant; pair (0,2): alternating wildly.
        let mut log = Vec::new();
        for e in 0..288u64 {
            log.push(BandwidthRecord { ts: Ts(e * EPOCH_SECS), src: 0, dst: 1, gbps: 100.0 });
            log.push(BandwidthRecord {
                ts: Ts(e * EPOCH_SECS),
                src: 0,
                dst: 2,
                gbps: if e % 2 == 0 { 10.0 } else { 500.0 },
            });
        }
        let c = AdaptiveCoarsener {
            cv_threshold: 0.3,
            stable_window: DAY,
            volatile_window: HOUR,
            stats: vec![Statistic::Mean],
        };
        assert_eq!(c.volatile_pairs(&log), vec![(0, 2)]);
        let coarse = c.coarsen(&log);
        let stable_rows = coarse.iter().filter(|r| r.dst == 1).count();
        let volatile_rows = coarse.iter().filter(|r| r.dst == 2).count();
        assert_eq!(stable_rows, 1, "stable pair collapses to one day-window");
        assert_eq!(volatile_rows, 24, "volatile pair keeps hourly resolution");
        // Adaptive beats uniform-long on the volatile pair's detail while
        // still shrinking hugely overall.
        assert!(c.report(&log).reduction_factor() > 10.0);
    }
}
