//! Coarse Bandwidth Logs (§4): time-based, topology-based, nested, and
//! churn-adaptive coarsening of `BandwidthRecord` streams.
//!
//! Each coarsener implements [`crate::coarsen::Coarsening`]
//! with byte-accurate size accounting, so the §4 claims ("a 10X reduction
//! in log size", "combined with time-based coarsening, the reduction
//! factor increases manifold") are measured, not assumed.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use serde::{Deserialize, Serialize};
use smn_datalake::fault::LakeError;
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::series::{
    key_pair, merge_runs, pair_key, sort_total, Fold, MeanFold, Statistic,
};
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

/// Hand `put` the wire form of one row, field by field: window start
/// (8 bytes), window length (8), src (4), dst (4), value count (2), then
/// each value's bits (8), all big-endian. Every field is written and the
/// count delimits the row, so two rows have the same bytes exactly when
/// they agree field by field, values bit for bit.
///
/// The one statement of the row format: [`encode_coarse_log`] writes it,
/// and reconciliation feeds it to its fingerprint without building an
/// encoding.
pub(crate) fn row_wire_bytes(r: &CoarseBwRecord, mut put: impl FnMut(&[u8])) {
    put(&r.window_start.0.to_be_bytes());
    put(&r.window_secs.to_be_bytes());
    put(&r.src.to_be_bytes());
    put(&r.dst.to_be_bytes());
    put(&(r.values.len() as u16).to_be_bytes());
    for v in &r.values {
        put(&v.to_bits().to_be_bytes());
    }
}

/// Encode a coarse log into its wire form (the format
/// [`CoarseBwRecord::encoded_bytes`] accounts, plus a 2-byte value count
/// per record so heterogeneous statistic sets decode unambiguously): the
/// rows' `row_wire_bytes`, concatenated. Takes rows by reference, so
/// incremental state encodes without cloning.
#[must_use]
pub fn encode_coarse_log<'a>(
    records: impl IntoIterator<Item = &'a CoarseBwRecord>,
) -> bytes::Bytes {
    use bytes::BufMut;
    let records = records.into_iter();
    // A one-statistic row is 34 bytes; longer rows grow the buffer.
    let mut buf = bytes::BytesMut::with_capacity(34 * records.size_hint().0);
    for r in records {
        row_wire_bytes(r, |b| buf.put_slice(b));
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
            out.push(self.row(w, pair, stat_values(&self.stats, samples)));
        });
        out.shrink_to_fit();
        out
    }

    /// Hand each `(window, pair)` cell of the records `keep` accepts to
    /// `visit` as `(window index, packed pair, samples)`, in
    /// `(window, src, dst)` order, with the cell's samples (never none)
    /// sorted under `f64::total_cmp`: the buffer [`Statistic::of_sorted`]
    /// takes ([`stat_values`]). Every sink of the time oracle
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

    /// The coarse row of window index `w` for a packed `pair` with
    /// `values`: the fields of [`TimeCoarsener::row_header`].
    pub(crate) fn row(
        &self,
        w: u64,
        pair: u64,
        values: impl IntoIterator<Item = f64>,
    ) -> CoarseBwRecord {
        let (window_start, window_secs, src, dst) = self.row_header(w, pair);
        CoarseBwRecord { window_start, window_secs, src, dst, values: values.into_iter().collect() }
    }

    /// Whether `row` has the wire bytes of [`TimeCoarsener::row`]`(w,
    /// pair, values)`: the same header fields, value count and value bits.
    /// Reconciliation compares each recomputed cell with the incremental
    /// row this way, building no row.
    pub(crate) fn is_row(
        &self,
        row: &CoarseBwRecord,
        w: u64,
        pair: u64,
        values: impl IntoIterator<Item = f64>,
    ) -> bool {
        (row.window_start, row.window_secs, row.src, row.dst) == self.row_header(w, pair)
            && row.values.iter().map(|v| v.to_bits()).eq(values.into_iter().map(f64::to_bits))
    }

    /// A row's `(window_start, window_secs, src, dst)` for window index
    /// `w` and a packed `pair`.
    fn row_header(&self, w: u64, pair: u64) -> (Ts, u64, u32, u32) {
        let (src, dst) = key_pair(pair);
        (Ts(w * self.window_secs), self.window_secs, src, dst)
    }

    /// Estimated demand for a pair in the window containing `ts`, using the
    /// first statistic (the acting-on-`s` side of Figure 2); `None` when no
    /// row covers it or the row carries no statistic.
    ///
    /// One query of [`CoveringRows`], which holds for a log of any mix of
    /// window sizes (an adaptive log keeps stable and volatile pairs at
    /// different windows) in any row order. It indexes the whole log, so
    /// repeated queries should build one [`CoveringRows`] and ask it.
    #[must_use]
    pub fn estimate(records: &[CoarseBwRecord], src: u32, dst: u32, ts: Ts) -> Option<f64> {
        CoveringRows::new(records).estimate(src, dst, ts)
    }
}

/// Each configured statistic of a cell's samples, sorted under
/// `f64::total_cmp`, in `stats` order: one [`Statistic::of_sorted`] per
/// statistic, bit for bit that field of the cell's `SummaryStats`, so no
/// statistic the log does not keep is computed. Empty for an empty cell.
///
/// The iterator knows its length, so a row collected from it gets a
/// value block of exactly `stats.len()` values.
pub(crate) fn stat_values<'a>(
    stats: &'a [Statistic],
    sorted: &'a [f64],
) -> impl ExactSizeIterator<Item = f64> + 'a {
    let stats = if sorted.is_empty() { &[] } else { stats };
    // `of_sorted` is `None` only for no sample, which was handled above.
    stats.iter().map(|&s| s.of_sorted(sorted).unwrap_or(f64::NAN))
}

/// A coarse log's rows indexed by pair, each pair's rows in window order:
/// the covering-row lookup of [`TimeCoarsener::estimate`].
///
/// A row covers `ts` when `window_start <= ts < window_start +
/// window_secs`. Every coarsener gives a pair disjoint windows, so the one
/// row that can cover `ts` is the pair's last row starting at or before
/// it; whatever the window sizes, a query is two binary searches.
#[derive(Debug, Clone)]
pub struct CoveringRows<'a> {
    /// The rows, sorted by `(src, dst, window_start)`.
    rows: Vec<&'a CoarseBwRecord>,
}

impl<'a> CoveringRows<'a> {
    /// Index `records`, in any order and of any mix of window sizes.
    #[must_use]
    pub fn new(records: &'a [CoarseBwRecord]) -> Self {
        let mut rows: Vec<&CoarseBwRecord> = records.iter().collect();
        rows.sort_unstable_by_key(|r| (r.src, r.dst, r.window_start));
        CoveringRows { rows }
    }

    /// The first statistic of the pair's row covering `ts`; `None` when no
    /// row covers it or the row carries no statistic.
    #[must_use]
    pub fn estimate(&self, src: u32, dst: u32, ts: Ts) -> Option<f64> {
        let after = self.rows.partition_point(|r| (r.src, r.dst, r.window_start) <= (src, dst, ts));
        let row = self.rows.get(after.checked_sub(1)?)?;
        let covers = (row.src, row.dst) == (src, dst)
            && ts.0.checked_sub(row.window_start.0).is_some_and(|age| age < row.window_secs);
        covers.then(|| row.values.first().copied()).flatten()
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
///
/// Its arithmetic is one arrival-order fold per pair: the class reads the
/// [`Fold`] of the pair's samples in the order they reached the lake, and
/// each row's [`Statistic::Mean`] the [`MeanFold`] of its window's samples
/// in that order ([`adaptive_row_values`]). Nothing is sorted for the
/// mean, so the incremental log absorbs a sample in `O(1)`.
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

/// Whether a pair whose samples fold to `whole` is volatile at
/// `cv_threshold`: its coefficient of variation (std over mean) exceeds
/// the threshold. A pair with no sample, or a non-positive or NaN mean, is
/// stable.
pub(crate) fn volatile_at(cv_threshold: f64, whole: &Fold) -> bool {
    match (whole.mean(), whole.std()) {
        (Some(mean), Some(std)) => mean > 0.0 && std / mean > cv_threshold,
        _ => false,
    }
}

/// Buffers that building adaptive rows reuses across windows.
#[derive(Debug, Default)]
pub(crate) struct RowScratch {
    /// One window's values, sorted under `f64::total_cmp`.
    sorted: Vec<f64>,
    /// One row's values.
    pub(crate) values: Vec<f64>,
}

/// Write the values of the adaptive row of one window into
/// `scratch.values`, one per statistic in `stats` order: the window's
/// sample `values`, whose [`MeanFold`] in order is `mean`. The batch
/// oracle and the incremental log both build rows here.
///
/// [`Statistic::Mean`] is `mean`'s. Any other statistic is read from a copy
/// of the values sorted by [`sort_total`], made only when a statistic
/// needs it, so the default Mean-only log reads no value and sorts
/// nothing.
pub(crate) fn adaptive_row_values(
    stats: &[Statistic],
    mean: &MeanFold,
    values: impl IntoIterator<Item = f64>,
    scratch: &mut RowScratch,
) {
    let RowScratch { sorted, values: row } = scratch;
    sorted.clear();
    if stats.iter().any(|&s| s != Statistic::Mean) {
        sorted.extend(values);
        sort_total(sorted);
    }
    row.clear();
    row.extend(stats.iter().filter_map(|&s| match s {
        Statistic::Mean => mean.mean(),
        other => other.of_sorted(sorted),
    }));
}

/// The maximal runs of `items` (ascending by the window of their
/// timestamp `ts`) that share one `window`-second window: each run's
/// window index and index range. A run's end is found by binary search
/// on its window's end, so no timestamp is divided.
pub(crate) fn window_runs<'a, T>(
    items: &'a [T],
    window: u64,
    ts: impl Fn(&T) -> u64 + 'a,
) -> impl Iterator<Item = (u64, Range<usize>)> + 'a {
    let mut start = 0;
    std::iter::from_fn(move || {
        let rest = items.get(start..)?;
        let w = ts(rest.first()?) / window;
        let len = match (w + 1).checked_mul(window) {
            Some(end) => rest.partition_point(|t| ts(t) < end),
            None => rest.len(),
        };
        let run = start..start + len;
        start += len;
        Some((w, run))
    })
}

/// First index at or after `from` whose key is not below `key`. Steps
/// double until one lands on or past `key`, then a binary search covers
/// the last step, so walking a sorted table with ascending probes costs
/// `O(log gap)` per probe — one comparison when consecutive probes hit
/// consecutive keys, as a steady tick's pairs do.
pub(crate) fn gallop<K: Ord>(keys: &[K], from: usize, key: &K) -> usize {
    let rest = keys.get(from..).unwrap_or_default();
    let mut step = 1;
    while rest.get(step - 1).is_some_and(|k| k < key) {
        step *= 2;
    }
    let lo = step / 2;
    let last_step = rest.get(lo..step.min(rest.len())).unwrap_or_default();
    from + lo + last_step.partition_point(|k| k < key)
}

/// Insert each `(at, item)` of `fresh` before the element that sat at
/// index `at` of `table`, moving every old element at most once. `fresh`
/// is ascending in `at`, as a merge-join's misses are.
pub(crate) fn splice_sorted<T>(table: &mut Vec<T>, fresh: Vec<(usize, T)>) {
    if fresh.is_empty() {
        return;
    }
    let mut old = std::mem::take(table).into_iter();
    table.reserve(old.len() + fresh.len());
    let mut taken = 0;
    for (at, item) in fresh {
        table.extend(old.by_ref().take(at.saturating_sub(taken)));
        taken = taken.max(at);
        table.push(item);
    }
    table.extend(old);
}

impl AdaptiveCoarsener {
    /// Whether a pair whose samples fold to `whole` is volatile: its
    /// coefficient of variation exceeds `cv_threshold`. A pair with a
    /// non-positive (or NaN) mean is stable.
    #[must_use]
    pub fn is_volatile(&self, whole: &Fold) -> bool {
        volatile_at(self.cv_threshold, whole)
    }

    /// Classify pairs by CV of their samples; returns the volatile set,
    /// sorted.
    #[must_use]
    pub fn volatile_pairs(&self, records: &[BandwidthRecord]) -> Vec<(u32, u32)> {
        let mut table = PairTable::default();
        table.fold(records);
        let volatile = table.folds.iter().map(|whole| self.is_volatile(whole));
        table.keys.iter().zip(volatile).filter(|&(_, v)| v).map(|(&k, _)| key_pair(k)).collect()
    }
}

/// The adaptive oracle's state after sweeping its input so far: the
/// distinct pairs, ascending by [`pair_key`], each with the [`Fold`] of its
/// samples in input order (pass 1) and its [`OpenWindow`] (pass 2). It is
/// sized by pair count and holds no record. A sweep of more input resumes
/// from it ([`AdaptiveCoarsener::sweep_rows`]): a fold is defined by its
/// push order, so the state a sweep leaves plus a sweep of what follows is
/// one sweep of the whole input.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairTable {
    keys: Vec<u64>,
    folds: Vec<Fold>,
    open: Vec<OpenWindow>,
    /// Each pair's open-window samples in input order, parallel to `keys`
    /// when a statistic other than the mean is configured and empty
    /// otherwise, so a Mean-only sweep never touches it.
    values: Vec<Vec<f64>>,
    /// Whether the input's timestamps fell somewhere: then a pair may come
    /// back to a window it left, and the table cannot be resumed.
    unordered: bool,
    /// The input's last timestamp.
    last_ts: u64,
}

/// Where a sweep finds `key` in the pair table from `cursor`: the next
/// slot, where a lake epoch's pairs mostly follow each other, is tried
/// before [`gallop`]. Trying it first took a 2.56M-record sweep from
/// ≈26 to ≈22 ms against galloping at once (2 vCPUs).
#[inline]
fn step_to(keys: &[u64], cursor: usize, key: u64) -> usize {
    if keys.get(cursor + 1) == Some(&key) {
        cursor + 1
    } else {
        gallop(keys, cursor, &key)
    }
}

/// The packed pair of each record with, for a record that starts a new
/// pair-ascending run, `true`: a lake slice is one such run per epoch.
fn pair_runs(records: &[BandwidthRecord]) -> impl Iterator<Item = (&BandwidthRecord, u64, bool)> {
    let mut prev = None;
    records.iter().map(move |r| {
        let key = pair_key(r.src, r.dst);
        let starts_run = prev.is_some_and(|p| key < p);
        prev = Some(key);
        (r, key, starts_run)
    })
}

impl PairTable {
    /// Pass 1: sweep `records` in input order, merge-joining each maximal
    /// pair-ascending run against the table, and push each sample onto
    /// its pair's fold. A run's new pairs past the table's end are
    /// appended at once (the whole first run, in a lake); the others are
    /// spliced in when the run ends, and a pair new to the run twice (two
    /// records in one epoch) is found as the run's last miss. Returns the
    /// pairs it added to a table that held pairs before, unordered; the
    /// open windows are left to [`PairTable::align`].
    fn fold(&mut self, records: &[BandwidthRecord]) -> Vec<u64> {
        let (mut fresh_keys, mut fresh_folds) = (Vec::new(), Vec::new());
        let mut added = Vec::new();
        let track = !self.keys.is_empty();
        let (mut cursor, mut last_ts, mut unordered) = (0, self.last_ts, self.unordered);
        for (r, key, starts_run) in pair_runs(records) {
            unordered |= r.ts.0 < last_ts;
            last_ts = r.ts.0;
            if starts_run {
                self.splice(&mut fresh_keys, &mut fresh_folds);
                cursor = 0;
            }
            cursor = step_to(&self.keys, cursor, key);
            if cursor == self.keys.len() && fresh_keys.is_empty() {
                self.keys.push(key);
                self.folds.push(Fold::default());
                added.extend(track.then_some(key));
            }
            let hit = self.keys.get(cursor).filter(|&&k| k == key).and(self.folds.get_mut(cursor));
            let fold = if let Some(fold) = hit {
                fold
            } else {
                if fresh_keys.last().is_none_or(|&(_, k)| k != key) {
                    fresh_keys.push((cursor, key));
                    fresh_folds.push((cursor, Fold::default()));
                    added.extend(track.then_some(key));
                }
                let Some((_, fold)) = fresh_folds.last_mut() else { continue };
                fold
            };
            fold.push(r.gbps);
        }
        self.splice(&mut fresh_keys, &mut fresh_folds);
        (self.last_ts, self.unordered) = (last_ts, unordered);
        added
    }

    /// Splice one run's new pairs in.
    fn splice(&mut self, keys: &mut Vec<(usize, u64)>, folds: &mut Vec<(usize, Fold)>) {
        splice_sorted(&mut self.keys, std::mem::take(keys));
        splice_sorted(&mut self.folds, std::mem::take(folds));
    }

    /// Give each pair pass 1 added an empty open window, and an empty
    /// value buffer when `keep_values`, in key order: `added` holds the
    /// pairs [`PairTable::fold`] added to a table that held pairs before.
    /// One pass over the table, however many runs brought new pairs.
    fn align(&mut self, mut added: Vec<u64>, keep_values: bool) {
        if !added.is_empty() {
            added.sort_unstable();
            let mut added = added.into_iter().peekable();
            let n = self.keys.len();
            let kept = if keep_values { n } else { 0 };
            let mut open = std::mem::replace(&mut self.open, Vec::with_capacity(n)).into_iter();
            let mut values =
                std::mem::replace(&mut self.values, Vec::with_capacity(kept)).into_iter();
            for key in &self.keys {
                if added.next_if_eq(key).is_some() {
                    self.open.push(OpenWindow::default());
                    self.values.extend(keep_values.then(Vec::new));
                } else {
                    self.open.push(open.next().unwrap_or_default());
                    self.values.extend(values.next().filter(|_| keep_values));
                }
            }
        }
        self.open.resize_with(self.keys.len(), OpenWindow::default);
        if keep_values {
            self.values.resize_with(self.keys.len(), Vec::new);
        }
    }

    /// Drop the spare capacity pass 1's appends left, before the table is
    /// kept between proofs.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.folds.shrink_to_fit();
        self.open.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// Each pair, ascending, with the number of its rows the sweeps so
    /// far have closed.
    pub(crate) fn closed_rows(&self) -> impl Iterator<Item = ((u32, u32), usize)> + '_ {
        let closed = |o: &OpenWindow| usize::try_from(o.closed).unwrap_or(usize::MAX);
        self.keys.iter().zip(&self.open).map(move |(&k, o)| (key_pair(k), closed(o)))
    }
}

/// One pair's open window in pass 2 of the adaptive oracle.
#[derive(Debug, Clone, Default)]
struct OpenWindow {
    /// Whether the pair is volatile (from its pass-1 fold).
    volatile: bool,
    /// The window's start, in seconds.
    start: u64,
    /// The fold of the window's samples so far, in input order.
    fold: MeanFold,
    /// The rows of the pair the sweeps have closed; 32 bits keep the
    /// window at 32 bytes, the table pass 2 streams through.
    closed: u32,
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
    /// [`Coarsening::coarsen`] over a borrowed slice: the rows of
    /// [`AdaptiveCoarsener::sweep_rows`] from an empty table, sorted into
    /// batch order. A pair has one window size, so the `(window_start,
    /// src, dst)` keys are unique.
    pub(crate) fn coarsen_records(&self, fine: &[BandwidthRecord]) -> Vec<CoarseBwRecord> {
        let mut out = Vec::new();
        self.sweep_rows(&mut PairTable::default(), fine, |class, w, pair, values| {
            out.push(class.row(w, pair, values.iter().copied()));
        });
        out.sort_unstable_by_key(|r| (r.window_start, r.src, r.dst));
        out
    }

    /// Continue the sweep that left `table` over `fine`, the input that
    /// follows it, and hand `visit` every row it closes and then every
    /// open row as `(class, window index, packed pair, values)`, `class`
    /// the [`TimeCoarsener`] of the pair's window. Each pair's rows come
    /// in window order; the pairs' rows interleave, in the order the
    /// sweep closes them. The borrowed lake is coarsened in place, and
    /// reconciliation compares the rows as they come without building
    /// them. From an empty table this is every row of `fine`; from the
    /// table a sweep of a prefix left, it is every row of the whole input
    /// but those the prefix's sweep closed.
    ///
    /// Two sweeps of the input, in input order, over a table sized by
    /// pair count, with no buffer per record and no sort:
    /// * pass 1 ([`PairTable::fold`]) pushes each pair's samples onto the
    ///   [`Fold`] that classifies it;
    /// * pass 2 pushes each sample onto its pair's open-window
    ///   [`MeanFold`], keeping the window's values only when a statistic
    ///   other than the mean is configured, and closes the pair's row
    ///   ([`adaptive_row_values`]) when its window changes. The open rows
    ///   are visited after the sweep and stay open in the table.
    ///
    /// So a window's row folds that window's samples in input order, as
    /// the pair's class does. Input whose timestamps fall somewhere (never
    /// a lake slice) may bring a pair back to a window it left: its cells
    /// stay open in an ordered side table and close after the sweep.
    ///
    /// A pair's closed rows were chunked under its class when they
    /// closed, so a sweep of more input can only resume while no pair
    /// changes class and the timestamps never fall. Otherwise this
    /// returns false after pass 1, having visited nothing, and the table
    /// is spent: the caller sweeps the whole input from an empty table.
    /// A table is resumed only under the coarsener that built it (the
    /// proof mark's `AdaptiveProof::config` holds it to that), so its
    /// windows' values are kept exactly when this coarsener reads them.
    pub(crate) fn sweep_rows(
        &self,
        table: &mut PairTable,
        fine: &[BandwidthRecord],
        mut visit: impl FnMut(&TimeCoarsener, u64, u64, &[f64]),
    ) -> bool {
        // Only a statistic other than the mean reads a window's values.
        let keep_values = self.stats.iter().any(|&s| s != Statistic::Mean);
        let resumed = !table.keys.is_empty();
        let added = table.fold(fine);
        if resumed && table.unordered {
            return false;
        }
        table.align(added, keep_values);
        for (o, whole) in table.open.iter_mut().zip(&table.folds) {
            let volatile = self.is_volatile(whole);
            // A pair the table held has an open window.
            if o.fold.count() > 0 && o.volatile != volatile {
                return false;
            }
            o.volatile = volatile;
        }
        let volatile = TimeCoarsener::new(self.volatile_window, self.stats.clone());
        let stable = TimeCoarsener::new(self.stable_window, self.stats.clone());
        let window = |volatile_pair: bool| {
            if volatile_pair {
                self.volatile_window
            } else {
                self.stable_window
            }
        };
        let mut scratch = RowScratch::default();
        let mut close = |volatile_pair: bool, w: u64, key: u64, fold: &MeanFold, cell: &[f64]| {
            adaptive_row_values(&self.stats, fold, cell.iter().copied(), &mut scratch);
            let class = if volatile_pair { &volatile } else { &stable };
            visit(class, w, key, &scratch.values);
        };
        let (keys, unordered) = (table.keys.as_slice(), table.unordered);
        let (open, values) = (table.open.as_mut_slice(), table.values.as_mut_slice());
        let mut side: BTreeMap<(usize, u64), (MeanFold, Vec<f64>)> = BTreeMap::new();
        let mut cursor = 0;
        for (r, key, starts_run) in pair_runs(fine) {
            if starts_run {
                cursor = 0;
            }
            cursor = step_to(keys, cursor, key);
            let Some(o) = keys.get(cursor).filter(|&&k| k == key).and(open.get_mut(cursor)) else {
                continue;
            };
            let (ts, window) = (r.ts.0, window(o.volatile));
            if unordered {
                let (fold, cell) = side.entry((cursor, ts / window)).or_default();
                fold.push(r.gbps);
                cell.extend(keep_values.then_some(r.gbps));
                continue;
            }
            // Timestamps never fall, so `ts` is at or after the open
            // window's start: one subtraction tells whether it is still in
            // that window, and only a new window divides.
            let mut cell = values.get_mut(cursor);
            if o.fold.count() == 0 || ts - o.start >= window {
                if o.fold.count() > 0 {
                    let cell = cell.as_deref().map_or(&[][..], Vec::as_slice);
                    close(o.volatile, o.start / window, key, &o.fold, cell);
                    o.fold = MeanFold::default();
                    o.closed = o.closed.saturating_add(1);
                }
                if let Some(cell) = cell.as_deref_mut() {
                    cell.clear();
                }
                o.start = ts - ts % window;
            }
            o.fold.push(r.gbps);
            if let Some(cell) = cell {
                cell.push(r.gbps);
            }
        }
        for (i, (o, &key)) in open.iter().zip(keys).enumerate() {
            if o.fold.count() > 0 {
                let cell = values.get(i).map_or(&[][..], Vec::as_slice);
                close(o.volatile, o.start / window(o.volatile), key, &o.fold, cell);
            }
        }
        for (&(i, w), (fold, cell)) in &side {
            if let (Some(o), Some(&key)) = (open.get(i), keys.get(i)) {
                close(o.volatile, w, key, fold, cell);
            }
        }
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coarsen::Coarsening;
    use smn_telemetry::series::SummaryStats;
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
    fn estimate_finds_the_covering_row_in_a_mixed_window_log() {
        // A steady pair (day rows) and a wild one (hour rows) over two
        // days: an adaptive log mixes both window sizes.
        let mut log = Vec::new();
        for e in 0..(2 * DAY / EPOCH_SECS) {
            let ts = Ts(e * EPOCH_SECS);
            log.push(BandwidthRecord { ts, src: 0, dst: 1, gbps: 100.0 });
            let wild = if e % 2 == 0 { 10.0 } else { 500.0 };
            log.push(BandwidthRecord { ts, src: 0, dst: 2, gbps: wild });
        }
        let c = AdaptiveCoarsener { stats: vec![Statistic::Mean], ..adaptive(0.35) };
        let coarse = c.coarsen(&log);
        let windows: HashSet<u64> = coarse.iter().map(|r| r.window_secs).collect();
        assert_eq!(windows, HashSet::from([HOUR, DAY]), "the log mixes window sizes");
        let linear = |src: u32, dst: u32, ts: Ts| {
            let covers = |r: &&CoarseBwRecord| {
                (r.src, r.dst) == (src, dst)
                    && r.window_start.0 <= ts.0
                    && ts.0 < r.window_start.0 + r.window_secs
            };
            coarse.iter().find(covers).map(|r| r.values[0])
        };
        let rows = CoveringRows::new(&coarse);
        let mut found = 0;
        for (src, dst) in [(0, 1), (0, 2), (0, 3), (1, 0)] {
            for ts in (0..3 * DAY).step_by(1_777).map(Ts) {
                let want = linear(src, dst, ts);
                found += usize::from(want.is_some());
                assert_eq!(rows.estimate(src, dst, ts), want, "({src},{dst}) at {ts:?}");
                assert_eq!(TimeCoarsener::estimate(&coarse, src, dst, ts), want);
            }
        }
        // Both pairs answer over both days, whatever their window size.
        assert_eq!(found, 2 * (0..2 * DAY).step_by(1_777).count());
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
            .filter_map(|((w, src, dst), mut vals)| {
                vals.sort_by(f64::total_cmp);
                let stats = SummaryStats::of_sorted(&vals)?;
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

    /// The mean and population std of `values` folded in order by a plain
    /// loop, from [`Fold`]'s definition: `Σx` starting at the first
    /// sample, the sums shifted by it, and a NaN mean `f64::NAN`. `None`
    /// for no sample.
    #[allow(clippy::cast_precision_loss, reason = "the sample index stays far below 2^52")]
    fn plain_fold(values: &[f64]) -> Option<(f64, f64)> {
        let shift = *values.first()?;
        let (mut sum, mut shifted, mut squares) = (0.0, 0.0, 0.0);
        for (i, &x) in values.iter().enumerate() {
            sum = if i == 0 { x } else { sum + x };
            let d = x - shift;
            shifted += d;
            squares += d * d;
        }
        let n = values.len() as f64;
        let var = (squares - shifted * shifted / n) / n;
        let mean = if (sum / n).is_nan() { f64::NAN } else { sum / n };
        Some((mean, if var < 0.0 { 0.0 } else { var }.sqrt()))
    }

    /// Per-pair `HashMap` sample vectors, in input order, each folded by
    /// [`plain_fold`]: the walk-free oracle for `volatile_pairs`.
    pub(crate) fn volatile_by_map(
        c: &AdaptiveCoarsener,
        records: &[BandwidthRecord],
    ) -> Vec<(u32, u32)> {
        let mut samples: HashMap<(u32, u32), Vec<f64>> = HashMap::new();
        for r in records {
            samples.entry((r.src, r.dst)).or_default().push(r.gbps);
        }
        let volatile = |(mean, std): (f64, f64)| mean > 0.0 && std / mean > c.cv_threshold;
        let mut out: Vec<(u32, u32)> = samples
            .into_iter()
            .filter(|(_, v)| plain_fold(v).is_some_and(volatile))
            .map(|(k, _)| k)
            .collect();
        out.sort_unstable();
        out
    }

    /// The walk-free adaptive oracle: pairs classified by
    /// [`volatile_by_map`], then each `(window, pair)` cell of its class's
    /// window grouped by a `HashMap` in input order. A row's Mean is its
    /// cell's [`plain_fold`] mean and any other statistic that of
    /// [`SummaryStats::of_sorted`] over a sorted copy. It walks no runs and
    /// calls no fold type, so it also checks the incremental log.
    pub(crate) fn adaptive_by_partition(
        c: &AdaptiveCoarsener,
        fine: &[BandwidthRecord],
    ) -> Vec<CoarseBwRecord> {
        let volatile: HashSet<(u32, u32)> = volatile_by_map(c, fine).into_iter().collect();
        let mut cells: HashMap<(u64, u32, u32), (u64, Vec<f64>)> = HashMap::new();
        for r in fine {
            let window = if volatile.contains(&(r.src, r.dst)) {
                c.volatile_window
            } else {
                c.stable_window
            };
            let cell = cells.entry((r.ts.0 / window * window, r.src, r.dst));
            cell.or_insert_with(|| (window, Vec::new())).1.push(r.gbps);
        }
        let mut out: Vec<CoarseBwRecord> = cells
            .into_iter()
            .filter_map(|((start, src, dst), (window_secs, vals))| {
                let (mean, _) = plain_fold(&vals)?;
                let mut vals = vals;
                vals.sort_by(f64::total_cmp);
                let sorted = SummaryStats::of_sorted(&vals)?;
                let value = |s: Statistic| if s == Statistic::Mean { mean } else { sorted.get(s) };
                Some(CoarseBwRecord {
                    window_start: Ts(start),
                    window_secs,
                    src,
                    dst,
                    values: c.stats.iter().map(|&s| value(s)).collect(),
                })
            })
            .collect();
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
    /// records on the first one to six nodes, over three days, so some
    /// logs give a pair runs long enough for sorts to leave their
    /// small-slice (stable) path, or, dense like a lake, over four
    /// epochs: then a pair mostly has several records in one epoch, and
    /// pairs join the log in later epochs and skip some.
    fn raw_log() -> impl proptest::strategy::Strategy<Value = Vec<(u64, usize, usize, usize)>> {
        let raw = proptest::collection::vec((0u64..864, 0usize..6, 0usize..6, 0usize..12), 0..400);
        proptest::strategy::Strategy::prop_map((1usize..7, 0u8..2, raw), |(nodes, dense, raw)| {
            let epoch = |e: u64| if dense == 1 { e % 4 } else { e };
            raw.into_iter()
                .map(|(e, src, dst, v)| (epoch(e), src % nodes, dst % nodes, v))
                .collect()
        })
    }

    /// Records on small node ids and ids at the edges of `u32` (so a wrong
    /// pair packing collides or reorders pairs), with values from a pool
    /// with ties, a negative, ±0.0, values whose sums round differently
    /// in another order (0.1, 0.7, 1e16) and (with `nan`) both NaN signs.
    /// `order` 0 keeps the generated order (a shuffle), 1 sorts stably by
    /// timestamp and 2 by timestamp, then pair: a lake slice, one
    /// pair-ascending run per epoch.
    fn oracle_log(
        raw: &[(u64, usize, usize, usize)],
        order: u8,
        nan: bool,
    ) -> Vec<BandwidthRecord> {
        const NODES: [u32; 6] = [0, 1, 2, 3, 1 << 31, u32::MAX];
        const GBPS: [f64; 12] =
            [0.0, -0.0, 1.0, 1.0, 2.5, 40.0, -3.0, 0.1, 0.7, 1e16, f64::NAN, -f64::NAN];
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
        match order {
            1 => log.sort_by_key(|r| r.ts),
            2 => log.sort_by_key(|r| (r.ts, r.src, r.dst)),
            _ => {}
        }
        log
    }

    /// The pairs of [`fold_log`].
    pub(crate) const PAIRS: [(u32, u32); 4] = [(0, 1), (0, 2), (3, 1), (u32::MAX, 1 << 31)];

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
            order in 0u8..3,
            window_pick in 0usize..3,
        ) {
            let log = oracle_log(&raw, order, true);
            let c = TimeCoarsener::new([EPOCH_SECS, HOUR, DAY][window_pick], ALL_STATS.to_vec());
            proptest::prop_assert_eq!(
                encode_coarse_log(&c.coarsen_records(&log)),
                encode_coarse_log(&coarsen_by_map(&c, &log))
            );
        }

        /// Classifying pairs from the oracle's first sweep gives the
        /// volatile set that per-pair `HashMap` sample vectors, folded by
        /// a plain loop, give: over shuffled, time-ordered and lake-shaped
        /// logs, sparse over three days or dense over four epochs (a pair
        /// twice in one epoch, pairs joining late or skipping epochs).
        #[test]
        fn pair_sorted_volatile_pairs_match_map(
            raw in raw_log(),
            order in 0u8..3,
            nan in 0u8..4,
            cv_threshold in 0.0f64..1.5,
        ) {
            let log = oracle_log(&raw, order, nan == 0);
            let c = adaptive(cv_threshold);
            proptest::prop_assert_eq!(c.volatile_pairs(&log), volatile_by_map(&c, &log));
        }

        /// The swept adaptive oracle, with every statistic, encodes
        /// exactly as the walk-free map fold ([`adaptive_by_partition`]).
        #[test]
        fn pair_sorted_adaptive_oracle_matches_partition(
            raw in raw_log(),
            order in 0u8..3,
            nan in 0u8..4,
            cv_threshold in 0.0f64..1.5,
        ) {
            // NaN makes a pair's CV NaN (stable), so most cases leave it
            // out to keep both classes populated.
            let log = oracle_log(&raw, order, nan == 0);
            let c = adaptive(cv_threshold);
            proptest::prop_assert_eq!(
                encode_coarse_log(&c.coarsen_records(&log)),
                encode_coarse_log(&adaptive_by_partition(&c, &log))
            );
        }
    }

    /// Logs over four pairs (one at the edges of `u32`) whose values come
    /// in blocks of one phase each: steady (10.0), wild (1.0 and 500.0
    /// alternating), special (±0.0, NaN of both signs, ±∞, a negative) or
    /// rounding (0.1, 0.7, 1e16, 0.3: their sums depend on the order).
    /// Epoch strides of 0 (a same-`ts` duplicate), 1, 12 and 96 give
    /// histories of up to weeks that cross day windows. A pair that goes
    /// steady, wild, steady flips stable → volatile → stable across a
    /// log's prefixes. Each pair joins the log after its own number of
    /// steps, so pairs appear mid-log. `order` 0 keeps the generated
    /// (time) order, 1 scrambles the records by timestamp (same-`ts`
    /// records keep their order), so the log is no lake slice, and 2 sorts
    /// each epoch by pair, as a lake holds it.
    pub(crate) fn fold_log() -> impl proptest::strategy::Strategy<Value = Vec<BandwidthRecord>> {
        const STRIDES: [u64; 4] = [0, 1, 12, 96];
        const SPECIAL: [f64; 8] =
            [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 2.5];
        const ROUNDING: [f64; 4] = [0.1, 0.7, 1e16, 0.3];
        let blocks = proptest::collection::vec((1usize..80, 0u8..4), 1..6);
        let steps = proptest::collection::vec((0usize..4, 0usize..4, 0usize..8), 0..400);
        let joins = proptest::collection::vec(0usize..300, 4);
        proptest::strategy::Strategy::prop_map(
            (blocks, steps, joins, 0u8..3),
            |(blocks, steps, joins, order)| {
                let phases =
                    blocks.iter().flat_map(|&(len, phase)| std::iter::repeat_n(phase, len));
                let mut epoch = 0;
                let mut log: Vec<BandwidthRecord> = steps
                    .iter()
                    .zip(phases.cycle())
                    .enumerate()
                    .filter_map(|(i, (&(stride, pair, v), phase))| {
                        epoch += STRIDES[stride];
                        let gbps = match phase {
                            0 => 10.0,
                            1 => [1.0, 500.0][v % 2],
                            2 => SPECIAL[v],
                            _ => ROUNDING[v % 4],
                        };
                        let (src, dst) = PAIRS[pair];
                        let ts = Ts(epoch * EPOCH_SECS);
                        (i >= joins[pair]).then_some(BandwidthRecord { ts, src, dst, gbps })
                    })
                    .collect();
                match order {
                    1 => log.sort_by_key(|r| r.ts.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40),
                    2 => log.sort_by_key(|r| (r.ts, r.src, r.dst)),
                    _ => {}
                }
                log
            },
        )
    }

    proptest::proptest! {
        /// The swept adaptive oracle classifies and encodes every row
        /// exactly as the walk-free map fold: over logs with same-`ts`
        /// duplicates, ±0.0, NaN, ±∞ and order-sensitive samples,
        /// multi-day histories, pairs that join mid-log or skip epochs and
        /// pairs that flip stable → volatile → stable, Mean-only and with
        /// every statistic (the streaming proptests' configuration),
        /// time-ordered, lake-shaped and shuffled. Each log is checked at
        /// four prefixes, so a pair's class changes between them.
        #[test]
        fn walked_adaptive_oracle_matches_map_fold(
            log in fold_log(),
            cv_threshold in 0.0f64..1.5,
            all_stats in 0u8..2,
        ) {
            let stats = if all_stats == 1 { ALL_STATS.to_vec() } else { vec![Statistic::Mean] };
            let c = AdaptiveCoarsener { stats, ..adaptive(cv_threshold) };
            let n = log.len();
            for prefix in [&log[..n / 4], &log[..n / 2], &log[..3 * n / 4], &log[..]] {
                proptest::prop_assert_eq!(c.volatile_pairs(prefix), volatile_by_map(&c, prefix));
                proptest::prop_assert_eq!(
                    encode_coarse_log(&c.coarsen_records(prefix)),
                    encode_coarse_log(&adaptive_by_partition(&c, prefix))
                );
            }
        }
    }

    proptest::proptest! {
        /// A sweep cut into three parts, each resumed from the table the
        /// sweeps before it left, is one sweep of the whole log: each
        /// resume is refused exactly when the table holds a pair that
        /// changes class over the part, or the timestamps so far fall
        /// somewhere, and otherwise the rows the parts closed, then the
        /// last part's open rows, are the whole sweep's rows, and the
        /// table is the whole sweep's, bit for bit. Over time-ordered,
        /// scrambled and lake-shaped logs with class flips and pairs that
        /// join late, window sizes that nest or not, Mean-only and with
        /// every statistic.
        #[test]
        fn resumed_adaptive_sweep_is_one_sweep(
            log in fold_log(),
            cuts in (0usize..400, 0usize..400),
            cv_threshold in 0.0f64..1.5,
            all_stats in 0u8..2,
            windows in 0usize..3,
        ) {
            let stats = if all_stats == 1 { ALL_STATS.to_vec() } else { vec![Statistic::Mean] };
            let (stable_window, volatile_window) =
                [(DAY, HOUR), (5 * HOUR, 2 * HOUR), (2 * HOUR, 3 * HOUR)][windows];
            let c = AdaptiveCoarsener { cv_threshold, stable_window, volatile_window, stats };
            let bytes = |class: &TimeCoarsener, w: u64, key: u64, values: &[f64]| {
                encode_coarse_log([&class.row(w, key, values.iter().copied())]).as_slice().to_vec()
            };
            let mut whole = PairTable::default();
            let mut want = Vec::new();
            c.sweep_rows(&mut whole, &log, |class, w, key, values| {
                want.push(bytes(class, w, key, values));
            });
            let (a, b) = (cuts.0.min(log.len()), cuts.1.min(log.len()));
            let (a, b) = (a.min(b), a.max(b));
            let mut table = PairTable::default();
            let mut closed = Vec::new();
            let mut last = Vec::new();
            for (from, to) in [(0, a), (a, b), (b, log.len())] {
                let held: Vec<(u32, u32)> = table.closed_rows().map(|(pair, _)| pair).collect();
                let (before, after) = (c.volatile_pairs(&log[..from]), c.volatile_pairs(&log[..to]));
                let flipped = held.iter().any(|p| before.contains(p) != after.contains(p));
                let ordered = log[..to].is_sorted_by_key(|r| r.ts);
                let proven: usize = table.closed_rows().map(|(_, n)| n).sum();
                let mut rows = Vec::new();
                let resumed = c.sweep_rows(&mut table, &log[from..to], |class, w, key, values| {
                    rows.push(bytes(class, w, key, values));
                });
                proptest::prop_assert_eq!(resumed, held.is_empty() || (ordered && !flipped));
                if !resumed {
                    return Ok(());
                }
                let now: usize = table.closed_rows().map(|(_, n)| n).sum();
                closed.extend(rows.drain(..(now - proven).min(rows.len())));
                last = rows;
            }
            closed.extend(last);
            closed.sort_unstable();
            want.sort_unstable();
            proptest::prop_assert_eq!(closed, want);
            proptest::prop_assert_eq!(format!("{table:?}"), format!("{whole:?}"));
        }
    }

    proptest::proptest! {
        /// The covering-row lookup answers as a linear scan for the row
        /// that covers `ts`, on adaptive logs (hour and day rows mixed)
        /// and, at a zero threshold's cut, uniform ones; probes land
        /// around recorded timestamps, for every pair and one absent.
        #[test]
        fn covering_rows_match_a_linear_scan(
            log in fold_log(),
            cv_threshold in 0.0f64..1.5,
            probes in proptest::collection::vec((0usize..5, 0usize..400, 0u64..2 * DAY), 1..48),
        ) {
            let c = AdaptiveCoarsener { stats: vec![Statistic::Mean], ..adaptive(cv_threshold) };
            let coarse = c.coarsen_records(&log);
            let rows = CoveringRows::new(&coarse);
            for (pick, at, offset) in probes {
                let (src, dst) = PAIRS.get(pick).copied().unwrap_or((5, 5));
                let near = log.get(at % log.len().max(1)).map_or(0, |r| r.ts.0);
                let ts = Ts((near + offset).saturating_sub(DAY));
                let covering = coarse.iter().find(|r| {
                    (r.src, r.dst) == (src, dst)
                        && r.window_start <= ts
                        && ts.0 < r.window_start.0 + r.window_secs
                });
                let want = covering.and_then(|r| r.values.first()).map(|v| v.to_bits());
                proptest::prop_assert_eq!(rows.estimate(src, dst, ts).map(f64::to_bits), want);
            }
        }
    }

    #[test]
    fn a_one_sample_window_keeps_its_sample_bits() {
        let c = AdaptiveCoarsener { stats: ALL_STATS.to_vec(), ..adaptive(0.35) };
        for gbps in [-0.0, 0.0, f64::NAN, f64::INFINITY, 7.25] {
            let log = [BandwidthRecord { ts: Ts(0), src: 0, dst: 1, gbps }];
            let rows = c.coarsen_records(&log);
            let bits: Vec<u64> = rows[0].values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, vec![gbps.to_bits(); ALL_STATS.len()], "{gbps}");
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
