//! Incremental coarsening and the streaming controller loop.
//!
//! The batch pipeline recomputes every coarse artifact from scratch each
//! control period; this module makes the pipeline *incremental* end to
//! end. Typed deltas ([`TelemetryDelta`], [`GraphDelta`]) flow through
//! `datalake::ingest` into in-place `apply_delta` updates that touch only
//! the dirty (pair, window) cells of the coarse bandwidth logs
//! ([`IncrementalCoarseLog`], [`IncrementalAdaptiveLog`]) and only the
//! coarse cells of the CDG whose fine members changed
//! (`CoarseDepGraph::apply_delta`).
//!
//! Incremental state is only trustworthy if it provably equals what the
//! batch path would have produced, so the streaming loop periodically runs
//! a full-recompute **reconciliation**: the batch coarseners and
//! `CoarseDepGraph::from_fine` stay the oracles, and the incremental
//! artifacts must match them *byte for byte* — the same discipline as the
//! degraded-mode outcome hashes. Any divergence is a hard error
//! ([`StreamError::Divergence`]) with an audited diff in the obs audit
//! log; silent drift is not an available failure mode.
//!
//! Byte-identity is not luck; it is engineered:
//! * the uniform log's batch oracle summarizes each cell's samples
//!   *sorted* under `f64::total_cmp`, each configured statistic by
//!   `Statistic::of_sorted`, and the incremental log keeps every open
//!   cell's run of its flat sample column in that same sorted order, a
//!   tick merging a cell's new samples into its run in place. The sorted
//!   sequence of a multiset of `f64`s is unique bit for bit, so a dirty
//!   cell summarized by `of_sorted` sums the same samples in the same
//!   order as the batch pass — whatever order they arrived in;
//! * the adaptive log's arithmetic is an *arrival-order* fold instead
//!   ([`Fold`], [`MeanFold`]): the batch oracle sweeps the lake in lake
//!   order, which is arrival order, folding each sample into its pair's
//!   folds, and the incremental log pushes each new sample onto its folds
//!   as it arrives, so both sum the same samples in the same order with
//!   no sort. Any statistic but the mean is read from a sorted copy of the
//!   window's samples through the one helper both sides call
//!   (`adaptive_row_values`);
//! * both logs are dense sorted tables keyed in batch order —
//!   `(window, pair_key)` cells for the uniform log, `(src, dst)` pairs
//!   for the adaptive one. The uniform log is merge-joined against each
//!   delta walked by the time oracle's own cell walk, so materialized row
//!   order equals batch row order; reconciliation compares the adaptive
//!   oracle's rows with each pair's own rows, in window order;
//! * the fine graph and CDG are append-only, and contraction orders teams
//!   and coarse edges by first appearance, so appended churn lands where
//!   a rebuild would put it.
//!
//! **Sealing.** Telemetry is append-only in time (`stream_tick` rejects a
//! record that regresses behind the lake), so once a delta reaches a
//! window, no later record can land in an earlier one. The uniform log
//! keeps samples only for *open* windows — the delta's last window and
//! later — and seals every earlier window into immutable rows in batch
//! order, dropping its samples: its memory is one window of samples plus
//! the coarse rows. A record behind the sealed frontier is a typed
//! [`StreamError::OutOfOrder`] that leaves the state untouched. A sealed
//! window is proven once: reconciliation walks the uniform oracle only
//! over the lake since its last proof's frontier, and a sealed window's
//! rows sit in one immutable shared column block whose identity guards
//! them. The adaptive log classifies each pair over its whole history, so
//! it keeps every sample, time-major: one immutable block of the tick's
//! samples per tick, pairs ascending. A tick folds only its new samples, and
//! reconciliation resumes the adaptive oracle from the state its last
//! proof left, over the lake since then. A sample behind its pair's
//! history is its [`StreamError::OutOfOrder`], refused before the log is
//! touched.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use smn_datalake::ingest::ingest_bandwidth_profiled;
use smn_datalake::TimeStore;
use smn_depgraph::coarse::{CdgDeltaStats, CoarseDepGraph};
use smn_depgraph::delta::{DeltaError, GraphDelta};
use smn_depgraph::fine::FineDepGraph;
use smn_obs::Laps;
use smn_telemetry::delta::TelemetryDelta;
use smn_telemetry::det::{fnv1a, FNV_OFFSET};
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::series::{key_pair, pair_key, walk_runs, Fold, MeanFold, Statistic};
use smn_telemetry::time::{Ts, DAY, HOUR};
use smn_topology::artifact::{under, Step, Violation};
use smn_topology::path;

use crate::bwlogs::{
    adaptive_row_values, encode_coarse_log, gallop, row_wire_bytes, splice_sorted, stat_values,
    volatile_at, window_runs, AdaptiveCoarsener, CoarseBwRecord, PairTable, RowScratch,
    TimeCoarsener,
};
use crate::controller::SmnController;

/// Artifact kind tag of a serialized [`DeltaJournal`].
pub const DELTA_JOURNAL_KIND: &str = "delta-journal";

/// Current delta-journal schema version.
pub const DELTA_JOURNAL_SCHEMA: u64 = 1;

// ---- fingerprints ------------------------------------------------------

/// Feed one coarse row's wire bytes ([`row_wire_bytes`]) to a running
/// FNV-1a state: the fingerprint of a log is its encoding's, with no
/// encoding built.
fn fnv1a_row(hash: &mut u64, row: &CoarseBwRecord) {
    row_wire_bytes(row, |b| fnv1a(hash, b));
}

/// [`fnv1a_row`] over `rows` in order, from the FNV-1a state `hash`.
fn fnv1a_rows<'a>(mut hash: u64, rows: impl IntoIterator<Item = &'a CoarseBwRecord>) -> u64 {
    for row in rows {
        fnv1a_row(&mut hash, row);
    }
    hash
}

/// FNV-1a fingerprint over a sequence of byte streams: one pass over
/// their concatenation, since FNV-1a is a running state.
#[must_use]
pub fn fingerprint(parts: &[&[u8]]) -> u64 {
    let mut h = FNV_OFFSET;
    for p in parts {
        fnv1a(&mut h, p);
    }
    h
}

/// [`fingerprint`] as the 16-hex-digit string recorded in audits and
/// delta journals.
#[must_use]
pub fn fingerprint_hex(parts: &[&[u8]]) -> String {
    format!("{:016x}", fingerprint(parts))
}

// ---- errors ------------------------------------------------------------

/// Why a streaming operation failed. Every variant is a *hard* error: the
/// streaming loop never limps past bad state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamError {
    /// A delta arrived against incremental state built by a different
    /// coarsener configuration.
    StateMismatch {
        /// What differed.
        detail: String,
    },
    /// Ticks or record timestamps arrived out of order.
    OutOfOrder {
        /// What was expected vs what arrived.
        detail: String,
    },
    /// Fine-graph churn could not be applied.
    Graph(DeltaError),
    /// Reconciliation found the incremental state differing from the
    /// batch recompute. The audited diff is also in the obs audit log.
    Divergence {
        /// Which artifact diverged (`coarse-bwlog`, `adaptive-bwlog`,
        /// `cdg`).
        artifact: String,
        /// Tick at which reconciliation ran.
        tick: u64,
        /// First differing row/byte, pretty-printed.
        detail: String,
    },
    /// A checkpoint failed to restore: it does not deserialize, or its
    /// fine graph or CDG breaks an invariant.
    Checkpoint(Violation),
    /// The session's configuration breaks a coarse log's rule: a zero
    /// window or no statistic. Refused before the lake is touched.
    Config(Violation),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::StateMismatch { detail } => {
                write!(f, "incremental state mismatch: {detail}")
            }
            StreamError::OutOfOrder { detail } => write!(f, "out-of-order delta: {detail}"),
            StreamError::Graph(e) => write!(f, "graph delta rejected: {e}"),
            StreamError::Divergence { artifact, tick, detail } => {
                write!(f, "reconciliation divergence in {artifact} at tick {tick}: {detail}")
            }
            StreamError::Checkpoint(v) => write!(f, "corrupt checkpoint: {v}"),
            StreamError::Config(v) => write!(f, "invalid stream configuration: {v}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DeltaError> for StreamError {
    fn from(e: DeltaError) -> Self {
        StreamError::Graph(e)
    }
}

// ---- incremental coarse logs -------------------------------------------

/// What one `apply_delta` call actually did, versus what a batch pass
/// would have redone. `total_rows / recomputed_rows` is the deterministic
/// work-ratio the perf suite gates on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaApplyStats {
    /// Records appended by the delta.
    pub appended: usize,
    /// Dirty cells (time) or dirty pairs (adaptive) the delta touched.
    pub dirty_cells: usize,
    /// Coarse rows recomputed incrementally.
    pub recomputed_rows: usize,
    /// Total coarse rows in the state — the rows a batch recompute would
    /// have rebuilt from scratch.
    pub total_rows: usize,
}

/// The coarse row of `(src, dst)` for window index `w` of `window`-second
/// windows, holding `values`.
fn coarse_row(
    (src, dst): (u32, u32),
    w: u64,
    window: u64,
    values: impl IntoIterator<Item = f64>,
) -> CoarseBwRecord {
    CoarseBwRecord {
        window_start: Ts(w * window),
        window_secs: window,
        src,
        dst,
        values: values.into_iter().collect(),
    }
}

/// Whether `values` ascend under `f64::total_cmp`.
fn is_total_sorted(values: &[f64]) -> bool {
    values.is_sorted_by(|a, b| a.total_cmp(b).is_le())
}

/// The rule a `secs`-second window from `start` breaks in a log of
/// `window`-second windows, `at` its path: it must be one aligned window of
/// the log's size.
fn window_violation(start: Ts, secs: u64, window: u64, at: &[Step]) -> Option<Violation> {
    (secs != window || !start.0.is_multiple_of(window)).then(|| {
        Violation::new(
            "artifact/coarse-log-shape",
            at,
            format!("window {secs}s starting at {} is not a {window}s window of this log", start.0),
            "every row of a coarse log covers one aligned window of the log's size",
        )
    })
}

/// Rules a coarse row breaks inside a log of `window`-second windows
/// keeping `n_stats` statistics; `at` is the row's path.
fn row_violations(
    row: &CoarseBwRecord,
    window: u64,
    n_stats: usize,
    at: &[Step],
) -> Vec<Violation> {
    let mut out: Vec<Violation> =
        window_violation(row.window_start, row.window_secs, window, at).into_iter().collect();
    if row.values.len() != n_stats {
        out.push(Violation::new(
            "artifact/coarse-log-shape",
            at,
            format!("row carries {} values for {n_stats} statistics", row.values.len()),
            "a row keeps exactly one value per statistic of its coarsener",
        ));
    }
    out
}

/// The rule an [`IncrementalCoarseLog`] states first: a non-zero window
/// and at least one statistic.
fn time_log_shape(window_secs: u64, stats: &[Statistic]) -> Option<Violation> {
    (window_secs == 0 || stats.is_empty()).then(|| {
        Violation::new(
            "artifact/coarse-log-shape",
            path!["window_secs"],
            format!("{window_secs}s windows with {} statistics", stats.len()),
            "a coarse log needs a non-zero window and at least one statistic",
        )
    })
}

/// The rule an [`IncrementalAdaptiveLog`] states first: non-zero windows
/// and at least one statistic.
fn adaptive_log_shape(stable: u64, volatile: u64, stats: &[Statistic]) -> Option<Violation> {
    (stable == 0 || volatile == 0 || stats.is_empty()).then(|| {
        Violation::new(
            "artifact/coarse-log-shape",
            path!["stable_window"],
            format!(
                "{stable}s stable and {volatile}s volatile windows with {} statistics",
                stats.len()
            ),
            "an adaptive log needs non-zero windows and at least one statistic",
        )
    })
}

// ---- column blocks -----------------------------------------------------

/// Keys whose items end at strictly ascending offsets into a column: run
/// `k` is key `keys[k]` over items `ends[k - 1]..ends[k]` (from 0 for the
/// first). The open cells of an [`IncrementalCoarseLog`] run their keys
/// over their samples; a [`ColumnBlock`] runs its keys over its items.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Runs<K> {
    keys: Vec<K>,
    ends: Vec<usize>,
}

impl<K: Ord> Runs<K> {
    /// Number of runs.
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// End the last run at `end` when it is keyed `key`, else push a run
    /// of `key` ending there.
    fn push(&mut self, key: K, end: usize) {
        match (self.keys.last(), self.ends.last_mut()) {
            (Some(last), Some(e)) if *last == key => *e = end,
            _ => {
                self.keys.push(key);
                self.ends.push(end);
            }
        }
    }

    /// The items of run `k`; empty when there is no such run.
    fn range(&self, k: usize) -> Range<usize> {
        let start = k.checked_sub(1).and_then(|j| self.ends.get(j)).copied().unwrap_or(0);
        start..self.ends.get(k).copied().unwrap_or(start).max(start)
    }

    /// The run keyed `key`, found by binary search.
    fn find(&self, key: &K) -> Option<usize> {
        self.keys.binary_search(key).ok()
    }

    /// The run that holds item `i`: the first that ends after it.
    fn run_of(&self, i: usize) -> usize {
        self.ends.partition_point(|&end| end <= i)
    }

    /// Rules this index over a column of `len` items breaks; paths are
    /// relative to it. One end per key, keys strictly ascending, and ends
    /// strictly ascending to `len`, so no run is empty and the runs cover
    /// every item.
    fn violations(&self, len: usize) -> Vec<Violation> {
        let mut out = Vec::new();
        if self.keys.len() != self.ends.len() {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["ends"],
                format!("{} keys but {} run ends", self.keys.len(), self.ends.len()),
                "a run index holds one end per key",
            ));
        }
        if let Some(k) = self.keys.windows(2).position(|w| w.first() >= w.get(1)) {
            out.push(Violation::new(
                "artifact/coarse-log-order",
                path!["keys", k + 1],
                format!("run key {} does not follow the one before it", k + 1),
                "a run index's keys ascend strictly",
            ));
        }
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let short = starts.zip(&self.ends).position(|(start, &end)| end <= start);
        let last = self.ends.last().copied().unwrap_or_default();
        if let Some(k) = short.or((last != len).then(|| self.ends.len().saturating_sub(1))) {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["ends", k],
                format!("run end {:?} for {len} items", self.ends.get(k)),
                "run ends ascend strictly to their column's length",
            ));
        }
        out
    }
}

/// An immutable column block: a run index over an item column, and a
/// value column of `stride` values per item. A sealed block of an
/// [`IncrementalCoarseLog`] runs windows over `(src, dst)` items with one
/// value per statistic ([`SealedBlock`]); a history block of an
/// [`IncrementalAdaptiveLog`] runs pairs over sample timestamps with one
/// value per sample ([`HistoryBlock`]). A log holds its blocks behind
/// `Arc` and never writes one in place, and a checkpoint writes each
/// block as it is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ColumnBlock<K, I> {
    runs: Arc<Runs<K>>,
    items: Vec<I>,
    stride: usize,
    values: Vec<f64>,
}

/// One seal of the uniform log: windows `(start, secs)` over pairs.
type SealedBlock = ColumnBlock<(Ts, u64), (u32, u32)>;

/// One apply's samples in the adaptive log: pairs over timestamps.
type HistoryBlock = ColumnBlock<(u32, u32), u64>;

impl<K: Ord, I> ColumnBlock<K, I> {
    /// Number of items.
    fn len(&self) -> usize {
        self.items.len()
    }

    /// The values of items `items`.
    fn values_of(&self, items: Range<usize>) -> &[f64] {
        let [start, end] = [items.start, items.end].map(|i| i.saturating_mul(self.stride));
        self.values.get(start..end).unwrap_or_default()
    }

    /// The items and values of run `k`; empty when there is no such run.
    fn run(&self, k: usize) -> (&[I], &[f64]) {
        let items = self.runs.range(k);
        (self.items.get(items.clone()).unwrap_or_default(), self.values_of(items))
    }

    /// The values of the run keyed `key`; empty when the block lacks it.
    fn values_keyed(&self, key: &K) -> &[f64] {
        self.runs.find(key).map_or(&[], |k| self.run(k).1)
    }

    /// Rules this block breaks in a log of `stride` values per item;
    /// paths are relative to it. Its run index holds ([`Runs::violations`])
    /// and it holds items, each with `stride` values.
    fn violations(&self, stride: usize) -> Vec<Violation> {
        let mut out = under(&path!["runs"], self.runs.violations(self.items.len()));
        let len = self.items.len();
        if len == 0 || self.stride != stride || Some(self.values.len()) != len.checked_mul(stride) {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["values"],
                format!(
                    "{} values for {len} items at stride {} in a log of stride {stride}",
                    self.values.len(),
                    self.stride
                ),
                "a block holds items, each with its log's stride of values",
            ));
        }
        out
    }
}

/// The open cells of an [`IncrementalCoarseLog`] as columns: cell `i` is
/// run `i` of `runs`, keyed `(window index, pair_key)` over its samples,
/// ascending under `f64::total_cmp`, so a dirty cell goes straight to
/// [`Statistic::of_sorted`]; its statistics are the `i`-th run of
/// `values`, one value per statistic. No cell owns a buffer, and a tick
/// merges the delta's cells into the columns in place ([`Gap`]), so a
/// window turnover allocates nothing once the columns have grown.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct OpenCells {
    runs: Runs<(u64, u64)>,
    samples: Vec<f64>,
    values: Vec<f64>,
}

/// Where a tick's in-place merge stands in the [`OpenCells`] columns. The
/// merged cells are written at the columns' front: `write` cells, whose
/// samples end at `write_at`. The cells not yet read sit behind a gap,
/// from cell `read` to the columns' end, their samples from `read_at` on;
/// their stored ends still count from `base`, the stored end of the cell
/// read before them. A zero gap is the columns as they are.
#[derive(Debug, Default)]
struct Gap {
    write: usize,
    write_at: usize,
    read: usize,
    read_at: usize,
    base: usize,
}

/// Move `column[from..]` to start at index `to`, resizing the column to
/// end with it; what the slots before `to` hold is unspecified.
fn shift<T: Copy + Default>(column: &mut Vec<T>, from: usize, to: usize) {
    let len = column.len();
    let kept = len.saturating_sub(from);
    if to > from {
        column.resize(to + kept, T::default());
    }
    column.copy_within(from.min(len)..len, to);
    column.truncate(to + kept);
}

impl OpenCells {
    /// Number of open cells.
    fn len(&self) -> usize {
        self.runs.len()
    }

    /// Cell `i`'s samples.
    fn samples_of(&self, i: usize) -> &[f64] {
        self.samples.get(self.runs.range(i)).unwrap_or_default()
    }

    /// Cell `i`'s statistics, under `n` statistics.
    fn values_of(&self, i: usize, n: usize) -> &[f64] {
        self.values.get(i * n..(i + 1) * n).unwrap_or_default()
    }

    /// Widen `gap` so that `cells` cells holding `samples` samples can be
    /// written before the unread cells, moving those on (under `n`
    /// statistics). Samples move exactly as far as needed. Cells move at
    /// least an eighth of the unread cells' count, so misses spread over a
    /// table move it a bounded number of times. With no unread cell left
    /// this appends room.
    fn make_room(&mut self, gap: &mut Gap, cells: usize, samples: usize, n: usize) {
        let short = (gap.write + cells).saturating_sub(gap.read);
        if short > 0 {
            let short = short.max((self.len() - gap.read) / 8);
            shift(&mut self.runs.keys, gap.read, gap.read + short);
            shift(&mut self.runs.ends, gap.read, gap.read + short);
            shift(&mut self.values, gap.read * n, (gap.read + short) * n);
            gap.read += short;
        }
        let short = (gap.write_at + samples).saturating_sub(gap.read_at);
        if short > 0 {
            shift(&mut self.samples, gap.read_at, gap.read_at + short);
            gap.read_at += short;
        }
    }

    /// Move the unread cells before cell `to` to the written front, as
    /// they are (under `n` statistics).
    fn move_cells(&mut self, gap: &mut Gap, to: usize, n: usize) {
        let Some(&end) = to.checked_sub(1).and_then(|i| self.runs.ends.get(i)) else { return };
        if to <= gap.read {
            return;
        }
        let (cells, held) = (to - gap.read, end - gap.base);
        self.runs.keys.copy_within(gap.read..to, gap.write);
        self.values.copy_within(gap.read * n..to * n, gap.write * n);
        self.samples.copy_within(gap.read_at..gap.read_at + held, gap.write_at);
        self.runs.ends.copy_within(gap.read..to, gap.write);
        for e in self.runs.ends.get_mut(gap.write..gap.write + cells).unwrap_or_default() {
            *e = *e - gap.base + gap.write_at;
        }
        (gap.write, gap.write_at) = (gap.write + cells, gap.write_at + held);
        (gap.read, gap.read_at, gap.base) = (to, gap.read_at + held, end);
    }

    /// Drop the unread cells before cell `to` (sealed) without moving them.
    fn skip_cells(&mut self, gap: &mut Gap, to: usize) {
        let Some(&end) = to.checked_sub(1).and_then(|i| self.runs.ends.get(i)) else { return };
        if to > gap.read {
            (gap.read, gap.read_at, gap.base) = (to, gap.read_at + (end - gap.base), end);
        }
    }

    /// Write the cell keyed `key` at the front: the next unread cell's
    /// samples, when it holds `key` (a hit, which it consumes), merged with
    /// `run`, both sorted under `f64::total_cmp`, or `run` alone (a miss);
    /// then the `stats` of them all. The merge is the one sorted sequence
    /// of the samples, bit for bit whatever order they arrived in.
    fn write_cell(&mut self, gap: &mut Gap, key: (u64, u64), run: &[f64], stats: &[Statistic]) {
        let n = stats.len();
        let hit = self.runs.keys.get(gap.read) == Some(&key);
        if !hit && run.is_empty() {
            return;
        }
        self.make_room(gap, usize::from(!hit), run.len(), n);
        let start = gap.write_at;
        let old = if hit {
            let held = self.runs.ends.get(gap.read).map_or(0, |&e| e - gap.base);
            let old = gap.read_at..gap.read_at + held;
            self.skip_cells(gap, gap.read + 1);
            old
        } else {
            gap.read_at..gap.read_at
        };
        gap.write_at = merge_in_place(&mut self.samples, start, old, run);
        if let Some(k) = self.runs.keys.get_mut(gap.write) {
            *k = key;
        }
        if let Some(e) = self.runs.ends.get_mut(gap.write) {
            *e = gap.write_at;
        }
        let cell = self.samples.get(start..gap.write_at).unwrap_or_default();
        let slot = self.values.get_mut(gap.write * n..(gap.write + 1) * n).unwrap_or_default();
        for (slot, v) in slot.iter_mut().zip(stat_values(stats, cell)) {
            *slot = v;
        }
        gap.write += 1;
    }

    /// End a merge: the unread cells join the written ones, as they are,
    /// and the columns end there (under `n` statistics).
    fn close(&mut self, mut gap: Gap, n: usize) {
        self.move_cells(&mut gap, self.len(), n);
        self.runs.keys.truncate(gap.write);
        self.runs.ends.truncate(gap.write);
        self.values.truncate(gap.write * n);
        self.samples.truncate(gap.write_at);
    }

    /// Column capacities: keys, ends, samples and values.
    #[cfg(test)]
    fn capacities(&self) -> [usize; 4] {
        [
            self.runs.keys.capacity(),
            self.runs.ends.capacity(),
            self.samples.capacity(),
            self.values.capacity(),
        ]
    }
}

/// Merge, within `samples`, the sorted samples at `old` with the sorted
/// `run`, writing the result from `at` on, and return where it ends. The
/// gap before `old` must hold `run` (`at + run.len() <= old.start`), so no
/// write lands on a sample not yet read. A one-sample run is a sorted
/// insert.
fn merge_in_place(samples: &mut [f64], at: usize, old: Range<usize>, run: &[f64]) -> usize {
    let end = at + old.len() + run.len();
    if let [v] = run {
        let cell = samples.get(old.clone()).unwrap_or_default();
        let k = cell.partition_point(|x| x.total_cmp(v).is_le());
        samples.copy_within(old.start..old.start + k, at);
        if let Some(slot) = samples.get_mut(at + k) {
            *slot = *v;
        }
        samples.copy_within(old.start + k..old.end, at + k + 1);
        return end;
    }
    let (mut i, mut j) = (old.start, 0);
    for out in at..end {
        let x = samples.get(i).copied().filter(|_| i < old.end);
        let next = match (x, run.get(j).copied()) {
            (Some(x), Some(y)) if y.total_cmp(&x).is_lt() => {
                j += 1;
                y
            }
            (Some(x), _) => {
                i += 1;
                x
            }
            (None, Some(y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        if let Some(slot) = samples.get_mut(out) {
            *slot = next;
        }
    }
    end
}

impl SealedBlock {
    /// The block of `count` rows, each its window, pair and `stride`
    /// values, in order: a run per window, the columns sized exactly.
    fn of_rows<'a>(
        count: usize,
        stride: usize,
        rows: impl IntoIterator<Item = ((Ts, u64), (u32, u32), &'a [f64])>,
    ) -> Self {
        let (mut runs, mut items) = (Runs::default(), Vec::with_capacity(count));
        let mut values = Vec::with_capacity(count * stride);
        for (window, pair, row) in rows {
            items.push(pair);
            values.extend_from_slice(row);
            runs.push(window, items.len());
        }
        ColumnBlock { runs: Arc::new(runs), items, stride, values }
    }

    /// `rows` as blocks, one per run of rows with equal value counts.
    #[cfg(test)]
    fn from_rows(rows: &[CoarseBwRecord]) -> impl Iterator<Item = SealedBlock> + '_ {
        rows.chunk_by(|a, b| a.values.len() == b.values.len()).map(|rows| {
            let stride = rows.first().map_or(0, |r| r.values.len());
            let rows = rows
                .iter()
                .map(|r| ((r.window_start, r.window_secs), (r.src, r.dst), r.values.as_slice()));
            SealedBlock::of_rows(rows.len(), stride, rows)
        })
    }

    /// Build row `i` into `row`, reusing its value buffer, given `run`, a
    /// window run at or before row `i`'s, which this moves to row `i`'s;
    /// false when there is no such row.
    fn fill_row(&self, i: usize, run: &mut usize, row: &mut CoarseBwRecord) -> bool {
        let Some(&(src, dst)) = self.items.get(i) else { return false };
        while self.runs.ends.get(*run).is_some_and(|&end| end <= i) {
            *run += 1;
        }
        let Some(&(start, secs)) = self.runs.keys.get(*run) else { return false };
        (row.window_start, row.window_secs, row.src, row.dst) = (start, secs, src, dst);
        row.values.clear();
        row.values.extend_from_slice(self.values_of(i..i + 1));
        true
    }
}

/// The sealed rows of an [`IncrementalCoarseLog`], in batch order, as
/// immutable shared column blocks ([`SealedBlock`]), one per seal. No
/// block is written in place. A proof mark holds the blocks it proved and
/// checks that the log still holds those very blocks ([`Arc::ptr_eq`]), so
/// an edit has to build a new block (copy on write), which the mark sees
/// as a change.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct SealedRows(Vec<Arc<SealedBlock>>);

/// A reader of [`SealedRows`] in order, building each row into one reused
/// record, as the open rows are built ([`IncrementalCoarseLog::fill_open_row`]).
struct SealedCursor<'a> {
    blocks: &'a [Arc<SealedBlock>],
    at: usize,
    run: usize,
    row: CoarseBwRecord,
}

impl SealedCursor<'_> {
    /// The next row, or `None` after the last.
    fn next(&mut self) -> Option<&CoarseBwRecord> {
        loop {
            let (block, rest) = self.blocks.split_first()?;
            if block.fill_row(self.at, &mut self.run, &mut self.row) {
                self.at += 1;
                return Some(&self.row);
            }
            (self.blocks, self.at, self.run) = (rest, 0, 0);
        }
    }

    /// Hand `visit` every row left, in order.
    fn for_each(mut self, mut visit: impl FnMut(&CoarseBwRecord)) {
        while let Some(row) = self.next() {
            visit(row);
        }
    }
}

impl SealedRows {
    /// Number of sealed rows.
    fn len(&self) -> usize {
        self.0.iter().map(|b| b.len()).sum()
    }

    /// A cursor at the first row.
    fn rows(&self) -> SealedCursor<'_> {
        SealedCursor { blocks: &self.0, at: 0, run: 0, row: coarse_row((0, 0), 0, 0, []) }
    }

    /// A cursor at the row after the first `from`, or `None` when there
    /// are fewer. Skipping steps over whole blocks.
    fn after(&self, from: usize) -> Option<SealedCursor<'_>> {
        let mut cursor = self.rows();
        let mut skip = from;
        while let Some((block, rest)) = cursor.blocks.split_first() {
            if skip < block.len() {
                (cursor.at, cursor.run) = (skip, block.runs.run_of(skip));
                return Some(cursor);
            }
            (cursor.blocks, skip) = (rest, skip - block.len());
        }
        (skip == 0).then_some(cursor)
    }

    /// Seal `block`, unless it holds no row.
    fn seal(&mut self, block: SealedBlock) {
        if block.len() > 0 {
            self.0.push(Arc::new(block));
        }
    }

    /// Write the block that holds row `at` through a copy: `edit` gets the
    /// block's rows, built, and `at`'s index among them, and blocks of the
    /// edited rows take the block's place, so the block's identity
    /// changes, as any write's must.
    #[cfg(test)]
    fn write(&mut self, at: usize, edit: impl FnOnce(&mut Vec<CoarseBwRecord>, usize)) {
        let mut skip = at;
        for (b, block) in self.0.iter().enumerate() {
            if skip < block.len() {
                let mut rows = Vec::new();
                SealedRows(vec![Arc::clone(block)]).rows().for_each(|r| rows.push(r.clone()));
                edit(&mut rows, skip);
                let blocks: Vec<_> = SealedBlock::from_rows(&rows).map(Arc::new).collect();
                self.0.splice(b..=b, blocks);
                return;
            }
            skip -= block.len();
        }
    }

    /// Whether the first blocks are `blocks`, the very same ones.
    fn starts_with(&self, blocks: &[Arc<SealedBlock>]) -> bool {
        self.0.len() >= blocks.len() && self.0.iter().zip(blocks).all(|(a, b)| Arc::ptr_eq(a, b))
    }
}

/// Incremental state of a [`TimeCoarsener`], split at a **sealed
/// frontier** window index.
///
/// * Windows before `frontier` are sealed: no later record may land in
///   them, so their rows sit in `sealed`, immutable shared column blocks
///   in batch order ([`SealedRows`]), and their samples are gone.
/// * Windows from `frontier` on are open. Their cells sit in `open` as
///   columns ([`OpenCells`]), keyed `(window index, pair_key)` — the time
///   oracle's sort key — ascending, each with its sorted samples and its
///   statistics. An open cell's row is not stored: a read builds it from
///   the cell's key and statistics into one reused record.
///
/// A tick merges the delta's cells into the open columns in place, so
/// their capacity serves tick after tick and window after window. Every
/// open window follows every sealed one, so `sealed` then the open rows
/// is batch row order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalCoarseLog {
    window_secs: u64,
    stats: Vec<Statistic>,
    frontier: u64,
    sealed: SealedRows,
    open: OpenCells,
}

impl IncrementalCoarseLog {
    /// An empty log of `window_secs` windows keeping `stats`. Builds no
    /// coarsener, so a configuration `violations()` refuses still makes a
    /// log, which the first tick then refuses as a typed error.
    fn empty(window_secs: u64, stats: Vec<Statistic>) -> Self {
        IncrementalCoarseLog {
            window_secs,
            stats,
            frontier: 0,
            sealed: SealedRows::default(),
            open: OpenCells::default(),
        }
    }

    /// Number of coarse rows currently materialized.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.sealed.len() + self.open.len()
    }

    /// Build open cell `i`'s row into `row`, reusing its value buffer;
    /// false when there is no such cell.
    fn fill_open_row(&self, i: usize, row: &mut CoarseBwRecord) -> bool {
        let Some(&(w, pair)) = self.open.runs.keys.get(i) else { return false };
        let (src, dst) = key_pair(pair);
        let window = self.window_secs;
        (row.window_start, row.window_secs, row.src, row.dst) = (Ts(w * window), window, src, dst);
        row.values.clear();
        row.values.extend_from_slice(self.open.values_of(i, self.stats.len()));
        true
    }

    /// Hand `visit` every open row in order, each built into one reused
    /// record.
    fn for_each_open_row(&self, mut visit: impl FnMut(&CoarseBwRecord)) {
        let mut row = coarse_row((0, 0), 0, 0, []);
        for i in 0..self.open.len() {
            if self.fill_open_row(i, &mut row) {
                visit(&row);
            }
        }
    }

    /// Hand `visit` every row in batch order: the sealed rows, then the
    /// open ones.
    fn for_each_row(&self, mut visit: impl FnMut(&CoarseBwRecord)) {
        self.sealed.rows().for_each(&mut visit);
        self.for_each_open_row(visit);
    }

    /// The coarse log, in batch order (`window_start`, `src`, `dst`).
    #[must_use]
    pub fn coarse_log(&self) -> Vec<CoarseBwRecord> {
        let mut out = Vec::with_capacity(self.rows());
        self.for_each_row(|row| out.push(row.clone()));
        out
    }

    /// Wire encoding of the coarse log — the bytes reconciliation
    /// compares against the batch oracle's encoding: `encode_coarse_log`
    /// of [`IncrementalCoarseLog::coarse_log`], with no row cloned.
    #[must_use]
    pub fn encode(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::with_capacity(34 * self.rows());
        self.for_each_row(|row| row_wire_bytes(row, |b| buf.put_slice(b)));
        buf.freeze()
    }

    /// Whether this log's rows from `from_row` on are, row for row and bit
    /// for bit, the log `time` coarsens `records` into. The time oracle's
    /// cell walk is compared with the rows in place, so no batch row and no
    /// encoding is built. Its rows are stored in batch order, so with
    /// `from_row = 0` this is exactly
    /// `self.encode() == encode_coarse_log(&time.coarsen_records(records))`.
    /// A proof from a [`ProofMark`] passes the lake since the mark's
    /// window start and the sealed rows the mark covers.
    fn matches_batch(
        &self,
        time: &TimeCoarsener,
        records: &[BandwidthRecord],
        from_row: usize,
    ) -> bool {
        let Some(mut sealed) = self.sealed.after(from_row) else { return false };
        let (mut open, mut row, mut same) = (0, coarse_row((0, 0), 0, 0, []), true);
        time.for_each_cell(
            records,
            |_| true,
            |w, pair, samples| {
                let values = stat_values(&time.stats, samples);
                same = same
                    && if let Some(sealed) = sealed.next() {
                        time.is_row(sealed, w, pair, values)
                    } else {
                        open += 1;
                        self.fill_open_row(open - 1, &mut row) && time.is_row(&row, w, pair, values)
                    };
            },
        );
        same && sealed.next().is_none() && open == self.open.len()
    }

    /// Refuse this log unless it was built for `window_secs` windows
    /// keeping `stats`.
    fn built_for(&self, window_secs: u64, stats: &[Statistic]) -> Result<(), StreamError> {
        if self.window_secs == window_secs && self.stats == stats {
            return Ok(());
        }
        Err(StreamError::StateMismatch {
            detail: format!(
                "state built for window {}s / {:?}, coarsener is {}s / {:?}",
                self.window_secs, self.stats, window_secs, stats
            ),
        })
    }

    /// Refuse a delta with a record in a sealed window, before anything
    /// is touched. The frontier's start is computed once, so no record's
    /// timestamp is divided. `ordered` says the caller has already seen
    /// the delta's timestamps ascend, so its first record is its earliest
    /// and the only one checked; any other delta is scanned.
    fn admit(&self, delta: &TelemetryDelta, ordered: bool) -> Result<(), StreamError> {
        let sealed_until = self.frontier.saturating_mul(self.window_secs);
        let records = match delta.records.split_first() {
            Some((first, _)) if ordered => std::slice::from_ref(first),
            _ => &delta.records,
        };
        let Some(late) = records.iter().find(|r| r.ts.0 < sealed_until) else {
            return Ok(());
        };
        Err(StreamError::OutOfOrder {
            detail: format!(
                "record at {:?} falls in {}s window {}, behind the sealed frontier (window {})",
                late.ts,
                self.window_secs,
                late.ts.0 / self.window_secs,
                self.frontier
            ),
        })
    }

    /// Seal every window before `w`: the cells merged so far, then the
    /// unread open cells before `w`, move behind the frontier as one
    /// column block, and their samples are dropped (the gap takes their
    /// place).
    fn seal_before(&mut self, gap: &mut Gap, w: u64) {
        if w <= self.frontier {
            return;
        }
        let IncrementalCoarseLog { window_secs, stats, sealed, open, .. } = self;
        let rest = open.runs.keys.get(gap.read..).unwrap_or_default();
        let end = gap.read + rest.partition_point(|&(kw, _)| kw < w);
        let (window, n) = (*window_secs, stats.len());
        let rows = (0..gap.write).chain(gap.read..end).filter_map(|i| {
            let &(kw, pair) = open.runs.keys.get(i)?;
            Some(((Ts(kw * window), window), key_pair(pair), open.values_of(i, n)))
        });
        sealed.seal(SealedBlock::of_rows(gap.write + (end - gap.read), n, rows));
        open.skip_cells(gap, end);
        (gap.write, gap.write_at) = (0, 0);
        self.frontier = w;
    }

    /// Ready the log for the apply of `delta`, whose timestamps ascend,
    /// so that the apply keeps no new allocation: a stream tick does this
    /// on the caller of its fork (see `SmnController::stream_tick`).
    ///
    /// First, seal every open window before the delta's first window:
    /// the first seal of the apply's walk, made before it, with the open
    /// columns closed behind it. The walk's own seal of that window is
    /// then a no-op, so the apply leaves the same blocks, rows and
    /// columns. Then reserve the open columns' room for the delta, the
    /// peak lengths [`IncrementalCoarseLog::peak_room`] expects. A short
    /// guess only leaves a column's growth to the walk.
    fn prepare(&mut self, delta: &TelemetryDelta) {
        let Some(first) = delta.records.first() else { return };
        let (w, n) = (first.ts.0 / self.window_secs, self.stats.len());
        if w > self.frontier {
            let mut gap = Gap::default();
            self.seal_before(&mut gap, w);
            self.open.close(gap, n);
        }
        let (samples, cells) = self.peak_room(&delta.records);
        let open = &mut self.open;
        open.samples.reserve(samples.saturating_sub(open.samples.len()));
        let cells = cells.saturating_sub(open.len());
        open.runs.keys.reserve(cells);
        open.runs.ends.reserve(cells);
        open.values.reserve(cells * n);
    }

    /// The samples and cells the open columns hold at most while a walk
    /// merges `records`, ascending in time, if each epoch holds every pair
    /// of its window, as a lake-shaped delta does. A window's cells are
    /// then the pairs of its longest run of one timestamp. The window open
    /// now (all open cells sit in the frontier's) keeps its samples and
    /// cells as well; each later window holds only its own, since entering
    /// it seals the windows before.
    fn peak_room(&self, records: &[BandwidthRecord]) -> (usize, usize) {
        let now = (self.open.samples.len(), self.open.len());
        let (mut peak, mut rest) = (now, records);
        while let Some(first) = rest.first() {
            let w = first.ts.0 / self.window_secs;
            let held = if w == self.frontier { now } else { (0, 0) };
            let (mut samples, mut longest) = (0, 0);
            while let Some(r) = rest.first().filter(|r| r.ts.0 / self.window_secs == w) {
                let run = rest.partition_point(|x| x.ts == r.ts);
                (samples, longest) = (samples + run, longest.max(run));
                rest = rest.get(run..).unwrap_or_default();
            }
            peak = (peak.0.max(held.0 + samples), peak.1.max(held.1.max(longest)));
        }
        peak
    }

    /// How many of `records` can land before the last unread open cell,
    /// so how many samples the gap must hold: those in windows up to its
    /// own, none when no cell is left unread.
    fn room(&self, records: &[BandwidthRecord], gap: &Gap) -> usize {
        let unread = self.open.runs.keys.get(gap.read..).unwrap_or_default();
        let Some(&(last, _)) = unread.last() else { return 0 };
        let end = last.saturating_add(1).saturating_mul(self.window_secs);
        records.iter().filter(|r| r.ts.0 < end).count()
    }

    /// Merge one delta cell keyed `key`, its samples `run` sorted under
    /// `f64::total_cmp`, into the open columns: first the unread cells that
    /// sort before it move to the front as they are, then the cell is
    /// written with its statistics recomputed, its samples merged with
    /// those of the unread cell of its key (a hit) or alone (a miss).
    fn merge_cell(&mut self, gap: &mut Gap, key: (u64, u64), run: &[f64]) {
        let at = gallop(&self.open.runs.keys, gap.read, &key);
        self.open.move_cells(gap, at, self.stats.len());
        self.open.write_cell(gap, key, run, &self.stats);
    }

    /// The mark of a proof that covered every row of this log against
    /// `lake`, given the fingerprint's FNV-1a states after the sealed rows
    /// and after the open ones. The sealed rows end at the frontier's
    /// start, the open ones at the end of the newest open window; the mark
    /// holds the sealed blocks. No mark when the frontier's start lies
    /// past the lake's newest record, since an append could still land
    /// before it.
    fn proof_mark(
        &self,
        lake: &TimeStore<BandwidthRecord>,
        [at_sealed, at_open]: [u64; 2],
    ) -> Option<SealedProof> {
        let window = self.window_secs;
        let start = Ts(self.frontier.saturating_mul(window));
        let end = self
            .open
            .runs
            .keys
            .last()
            .map_or(start, |&(w, _)| Ts(w.saturating_add(1).saturating_mul(window)));
        let covered = lake.latest_ts().is_some_and(|latest| start <= latest);
        covered.then(|| SealedProof {
            lake: lake.stamp(),
            before_end: records_before(lake, end),
            blocks: self.sealed.0.clone(),
            sealed: ProofPoint { rows: self.sealed.len(), start, fnv: at_sealed },
            open: ProofPoint { rows: self.rows(), start: end, fnv: at_open },
        })
    }

    /// Whether the sealed rows from `from` to `to` still feed the
    /// fingerprint from `from`'s FNV-1a state to `to`'s: the rows a mark
    /// proved open and that are sealed since, at most one window's.
    fn hashes_to(&self, from: &ProofPoint, to: &ProofPoint) -> bool {
        let Some(mut rows) = self.sealed.after(from.rows) else { return false };
        let mut hash = from.fnv;
        for _ in from.rows..to.rows {
            let Some(row) = rows.next() else { return false };
            fnv1a_row(&mut hash, row);
        }
        hash == to.fnv
    }

    /// The log is one `apply_delta` could have left: a non-zero window
    /// and at least one statistic; every sealed block sound
    /// ([`ColumnBlock::violations`], one value per statistic), its runs
    /// aligned windows of the log's size, all before the frontier, and its
    /// rows strictly ascending in batch order; the open cells' run index
    /// sound over the sample column ([`Runs::violations`]), so no cell is
    /// empty, each cell at or after the frontier, its window's end a
    /// timestamp and its samples sorted under `f64::total_cmp`; and one
    /// statistics value per open cell and statistic. The sealed rows are
    /// read through their blocks' run indexes, so only sound blocks are.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        if let Some(v) = time_log_shape(self.window_secs, &self.stats) {
            out.push(v);
            return out;
        }
        let (window, n) = (self.window_secs, self.stats.len());
        let order = |at: &[Step], message: String| {
            Violation::new(
                "artifact/coarse-log-order",
                at,
                message,
                "rows and open cells ascend strictly in batch order, sealed windows \
                 before the frontier and open ones at or after it",
            )
        };
        for (b, block) in self.sealed.0.iter().enumerate() {
            out.extend(under(&path!["sealed", b], ColumnBlock::violations(block, n)));
        }
        let (sound, mut prev) = (out.is_empty(), None);
        for (b, block) in self.sealed.0.iter().enumerate().filter(|_| sound) {
            for (k, &(start, secs)) in block.runs.keys.iter().enumerate() {
                let at = path!["sealed", b, "runs", "keys", k];
                out.extend(window_violation(start, secs, window, &at));
                let w = start.0 / window;
                if w >= self.frontier {
                    let message =
                        format!("sealed window {w} is not before the frontier {}", self.frontier);
                    out.push(order(&at, message));
                }
                for (j, &pair) in block.runs.range(k).zip(ColumnBlock::run(block, k).0) {
                    if prev >= Some((start, pair)) {
                        let message =
                            format!("sealed row {:?} does not follow {prev:?}", (start, pair));
                        out.push(order(&path!["sealed", b, "items", j], message));
                    }
                    prev = Some((start, pair));
                }
            }
        }
        let open = &self.open;
        let runs = open.runs.violations(open.samples.len());
        let ranged = runs.is_empty();
        out.extend(under(&path!["open", "runs"], runs));
        for (i, &key) in open.runs.keys.iter().enumerate() {
            let (at, w) = (path!["open", "runs", "keys", i], key.0);
            if w < self.frontier {
                out.push(order(
                    &at,
                    format!("open cell in window {w} is behind the frontier {}", self.frontier),
                ));
            }
            if w.checked_add(1).and_then(|end| end.checked_mul(window)).is_none() {
                out.push(Violation::new(
                    "artifact/coarse-log-shape",
                    at,
                    format!("open cell in window {w} ends past the last timestamp"),
                    "every window of a coarse log ends at a representable timestamp",
                ));
            }
            if ranged && !is_total_sorted(open.samples_of(i)) {
                out.push(Violation::new(
                    "artifact/coarse-log-samples",
                    path!["open", "samples"],
                    format!("open cell {key:?} has unsorted samples"),
                    "an open cell holds its samples ascending under f64::total_cmp",
                ));
            }
        }
        if Some(open.values.len()) != open.len().checked_mul(n) {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["open", "values"],
                format!("{} statistics values for {} open cells", open.values.len(), open.len()),
                "the statistics column holds one value per open cell and statistic",
            ));
        }
        out
    }
}

impl TimeCoarsener {
    /// Fresh incremental state bound to this coarsener's configuration.
    #[must_use]
    pub fn new_state(&self) -> IncrementalCoarseLog {
        IncrementalCoarseLog::empty(self.window_secs, self.stats.clone())
    }

    /// Apply one telemetry delta in place, recomputing only the dirty
    /// (pair, window) cells, then seal every window before the delta's
    /// last. Applying each delta of a time-ordered log in tick order
    /// leaves `state` byte-identical (under
    /// [`IncrementalCoarseLog::encode`]) to a batch
    /// [`TimeCoarsener::coarsen`] over the concatenated log.
    ///
    /// The delta's cells come from the time oracle's own walk
    /// ([`TimeCoarsener::for_each_cell`]), in `(window, pair)` order with
    /// sorted samples, and are merged into the open columns in place. When
    /// the walk enters a window, every earlier window is sealed, so a bulk
    /// load holds one window's samples at once.
    ///
    /// # Errors
    /// [`StreamError::StateMismatch`] when `state` was built by a
    /// different window/statistics configuration, and
    /// [`StreamError::OutOfOrder`] when a record falls in a sealed window.
    /// Either leaves `state` untouched.
    pub fn apply_delta(
        &self,
        state: &mut IncrementalCoarseLog,
        delta: &TelemetryDelta,
    ) -> Result<DeltaApplyStats, StreamError> {
        state.built_for(self.window_secs, &self.stats)?;
        state.admit(delta, false)?;
        Ok(self.apply_admitted(state, delta))
    }

    /// [`TimeCoarsener::apply_delta`] once its checks have passed (a
    /// stream tick makes them before ingest).
    ///
    /// The merge runs in place: when the walk enters its first window, the
    /// open cells it seals are dropped and the samples of the rest move on
    /// just far enough to leave a gap for every record that can land
    /// before them ([`IncrementalCoarseLog::room`]). A hit takes its old
    /// cell's slot; a miss widens the gap when it has no slot
    /// ([`OpenCells::make_room`]). Merged cells are written into the gap's
    /// front, and the columns are closed after the last.
    fn apply_admitted(
        &self,
        state: &mut IncrementalCoarseLog,
        delta: &TelemetryDelta,
    ) -> DeltaApplyStats {
        let n = self.stats.len();
        let mut gap = Gap::default();
        let (mut open, mut dirty) = (None, 0usize);
        self.for_each_cell(
            &delta.records,
            |_| true,
            |w, pair, samples| {
                if open != Some(w) {
                    state.seal_before(&mut gap, w);
                    if open.is_none() {
                        let room = state.room(&delta.records, &gap);
                        state.open.make_room(&mut gap, 0, room, n);
                    }
                    open = Some(w);
                }
                state.merge_cell(&mut gap, (w, pair), samples);
                dirty += 1;
            },
        );
        if open.is_some() {
            state.open.close(gap, n);
        }
        DeltaApplyStats {
            appended: delta.len(),
            dirty_cells: dirty,
            recomputed_rows: dirty,
            total_rows: state.rows(),
        }
    }
}

/// The sample history of an [`IncrementalAdaptiveLog`]: one
/// [`HistoryBlock`] per apply that appended anything, oldest first, its
/// pairs ascending, each pair's samples in arrival order. A pair's samples
/// are its runs in the blocks that hold it, in block order, which is
/// arrival order. No pair owns a buffer, so no pair's history ever
/// regrows. A block whose runs equal the previous block's shares them, as
/// every steady tick's block does.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct History(Vec<Arc<HistoryBlock>>);

impl History {
    /// `pair`'s values, newest first. Lazy: a block is searched only when
    /// the walk back reaches it, so taking a pair's last `n` values reads
    /// only the blocks whose time range reaches them.
    fn newest_values(&self, pair: (u32, u32)) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().rev().flat_map(move |b| b.values_keyed(&pair).iter().rev().copied())
    }

    /// Hand `visit` each block's run of `pair`, oldest first, with the
    /// block's index. `cursors` holds one [`gallop`] cursor per block:
    /// calls for ascending pairs advance them, so a reader that visits
    /// every pair in order walks each block once.
    fn visit(
        &self,
        pair: (u32, u32),
        cursors: &mut Vec<usize>,
        mut visit: impl FnMut(usize, &[u64], &[f64]),
    ) {
        cursors.resize(self.0.len(), 0);
        for (b, (block, cursor)) in self.0.iter().zip(cursors.iter_mut()).enumerate() {
            *cursor = gallop(&block.runs.keys, *cursor, &pair);
            if block.runs.keys.get(*cursor) == Some(&pair) {
                let (ts, values) = ColumnBlock::run(block, *cursor);
                visit(b, ts, values);
            }
        }
    }

    /// Share one run index between consecutive blocks whose runs are
    /// equal, as the live history does: a checkpoint writes each block's
    /// runs, so a restored block holds its own.
    fn share_runs(&mut self) {
        let mut prev: Option<Arc<Runs<(u32, u32)>>> = None;
        for block in &mut self.0 {
            match &prev {
                Some(p) if *p == block.runs => Arc::make_mut(block).runs = Arc::clone(p),
                _ => prev = Some(Arc::clone(&block.runs)),
            }
        }
    }

    /// Edit the newest block that holds `pair`: `edit` gets copies of its
    /// runs, the block's columns and the pair's run index. Returns whether
    /// a block holds the pair.
    #[cfg(test)]
    fn edit_newest(
        &mut self,
        pair: (u32, u32),
        edit: impl FnOnce(&mut Runs<(u32, u32)>, &mut Vec<u64>, &mut Vec<f64>, usize),
    ) -> bool {
        let found = self.0.iter_mut().rev().find_map(|b| Some((b.runs.find(&pair)?, b)));
        let Some((k, block)) = found else { return false };
        let block = Arc::make_mut(block);
        edit(Arc::make_mut(&mut block.runs), &mut block.items, &mut block.values, k);
        true
    }
}

/// The block one apply writes: two columns sized to the delta up front,
/// and runs that stay the previous block's while they agree with them.
/// At the first disagreement the agreeing prefix is copied out and the
/// rest written after it, so a steady tick writes nothing per pair.
struct NewBlock {
    prev: Option<Arc<Runs<(u32, u32)>>>,
    shared: usize,
    own: Option<Runs<(u32, u32)>>,
    ts: Vec<u64>,
    values: Vec<f64>,
}

impl NewBlock {
    /// An empty block after `prev`, with room for `samples` samples.
    fn after(prev: Option<&Arc<HistoryBlock>>, samples: usize) -> Self {
        NewBlock {
            prev: prev.map(|b| Arc::clone(&b.runs)),
            shared: 0,
            own: None,
            ts: Vec::with_capacity(samples),
            values: Vec::with_capacity(samples),
        }
    }

    /// Append `pair`'s run of records, which must follow every pair
    /// appended so far; returns its samples.
    fn push(&mut self, pair: (u32, u32), run: &[&BandwidthRecord]) -> (&[u64], &[f64]) {
        let from = self.ts.len();
        self.ts.extend(run.iter().map(|r| r.ts.0));
        self.values.extend(run.iter().map(|r| r.gbps));
        let end = self.ts.len();
        let at = self.shared;
        let agrees = self.own.is_none()
            && self
                .prev
                .as_deref()
                .is_some_and(|p| p.keys.get(at) == Some(&pair) && p.ends.get(at) == Some(&end));
        if agrees {
            self.shared += 1;
        } else {
            self.own().push(pair, end);
        }
        (self.ts.get(from..).unwrap_or_default(), self.values.get(from..).unwrap_or_default())
    }

    /// The runs written so far, copied out of the previous block's on the
    /// first call.
    fn own(&mut self) -> &mut Runs<(u32, u32)> {
        let (prev, shared) = (self.prev.as_deref(), self.shared);
        self.own.get_or_insert_with(|| {
            let room = prev.map_or(0, Runs::len).max(shared + 1);
            let mut runs = Runs { keys: Vec::with_capacity(room), ends: Vec::with_capacity(room) };
            if let Some(p) = prev {
                runs.keys.extend(p.keys.iter().take(shared));
                runs.ends.extend(p.ends.iter().take(shared));
            }
            runs
        })
    }

    /// The finished block, sharing the previous block's runs when they are
    /// equal; `None` when nothing was appended.
    fn finish(mut self) -> Option<HistoryBlock> {
        if self.ts.is_empty() {
            return None;
        }
        let runs = match (&self.own, &self.prev) {
            (None, Some(prev)) if prev.len() == self.shared => Arc::clone(prev),
            _ => {
                let mut runs = std::mem::take(self.own());
                runs.keys.shrink_to_fit();
                runs.ends.shrink_to_fit();
                Arc::new(runs)
            }
        };
        Some(ColumnBlock { runs, items: self.ts, stride: 1, values: self.values })
    }
}

/// Buffers a class flip gathers its pair's samples into, reused across an
/// apply's pairs, with one [`History::visit`] cursor per block: the walk
/// visits pairs in ascending order.
#[derive(Default)]
struct Gathered {
    cursors: Vec<usize>,
    ts: Vec<u64>,
    values: Vec<f64>,
}

impl Gathered {
    /// Every sample of `pair`, in arrival order: its runs in `history`,
    /// then `fresh`.
    fn of(
        &mut self,
        history: &History,
        pair: (u32, u32),
        fresh: (&[u64], &[f64]),
    ) -> (&[u64], &[f64]) {
        let Gathered { cursors, ts, values } = self;
        ts.clear();
        values.clear();
        history.visit(pair, cursors, |_, t, v| {
            ts.extend_from_slice(t);
            values.extend_from_slice(v);
        });
        ts.extend_from_slice(fresh.0);
        values.extend_from_slice(fresh.1);
        (ts, values)
    }
}

/// A pair's samples replayed in order from the history under `window`:
/// what its state must hold.
#[derive(Default)]
struct Replay {
    whole: Fold,
    open: MeanFold,
    last: Option<u64>,
    behind: bool,
}

impl Replay {
    /// Replay one run of samples under `window`-second windows.
    fn push(&mut self, ts: &[u64], values: &[f64], window: u64) {
        for (&t, &x) in ts.iter().zip(values) {
            self.behind |= self.last.is_some_and(|l| t < l);
            if self.last.map(|l| l / window) != Some(t / window) {
                self.open = MeanFold::default();
            }
            self.open.push(x);
            self.whole.push(x);
            self.last = Some(t);
        }
    }
}

/// Per-pair incremental state of an [`AdaptiveCoarsener`], fixed-size but
/// for the closed rows: the [`Fold`] of every sample, which classifies
/// the pair, the [`MeanFold`] of the samples in the *open* window (the
/// window of the last sample), the last sample's timestamp, and the rows
/// of the windows before the open one. The samples themselves sit in the
/// log's [`History`].
///
/// No later sample can land before the open window, so the closed rows
/// are final. The open window's row is not stored: it is computed from the
/// open fold (and, for statistics other than the mean, the open window's
/// values, gathered from the history) when the log is read. A tick that
/// keeps the pair's class pushes each new sample onto both folds, and only
/// a sample in a later window closes the open row into `closed`: `O(1)` per
/// sample for a Mean-only log, with no row touched and nothing allocated.
/// Only a class flip re-chunks the samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct PairState {
    /// The fold of every value, in order: the pair's class.
    whole: Fold,
    /// The fold of the open window: the last `open.count()` values.
    open: MeanFold,
    /// The last sample's timestamp (seconds).
    last: u64,
    /// The rows of the windows before the open one, ascending by window.
    closed: Vec<CoarseBwRecord>,
}

impl PairState {
    /// The last sample's timestamp; `None` before the first sample.
    fn newest(&self) -> Option<u64> {
        (self.open.count() > 0).then_some(self.last)
    }

    /// Rows of this pair: the closed ones and, once it holds a sample,
    /// the open one.
    fn rows(&self) -> usize {
        self.closed.len() + usize::from(self.open.count() > 0)
    }

    /// Re-chunk every sample, `(ts, values)`, under `window`, as the batch
    /// oracle does: every window but the last into a closed row, the last
    /// into the open fold. Returns the row count.
    fn rechunk(
        &mut self,
        pair: (u32, u32),
        (ts, values): (&[u64], &[f64]),
        window: u64,
        stats: &[Statistic],
        scratch: &mut RowScratch,
    ) -> usize {
        self.closed.clear();
        let mut runs = window_runs(ts, window, |&t| t).peekable();
        while let Some((w, run)) = runs.next() {
            let cell = values.get(run).unwrap_or_default().iter().copied();
            self.open = MeanFold::of(cell.clone());
            if runs.peek().is_some() {
                adaptive_row_values(stats, &self.open, cell, scratch);
                self.closed.push(coarse_row(pair, w, window, scratch.values.iter().copied()));
            }
        }
        self.last = ts.last().copied().unwrap_or_default();
        self.rows()
    }

    /// Fold the `fresh` samples a tick appended into the open window, or
    /// close it and open later ones, under `window`; the pair's earlier
    /// samples are in `history`. Returns the rows recomputed: one per
    /// window the samples touched.
    fn extend(
        &mut self,
        pair: (u32, u32),
        history: &History,
        (ts, values): (&[u64], &[f64]),
        window: u64,
        stats: &[Statistic],
        scratch: &mut RowScratch,
    ) -> usize {
        let mut open_w = self.last / window;
        let mut recomputed = 0;
        for (w, run) in window_runs(ts, window, |&t| t) {
            if w != open_w {
                // The open window's values are the pair's last
                // `open.count()` samples: the fresh ones before this run,
                // then its history, newest first. Only a statistic other
                // than the mean reads them, from a sorted copy.
                let before = values.get(..run.start).unwrap_or_default().iter().rev().copied();
                let cell = before.chain(history.newest_values(pair)).take(self.open.count());
                adaptive_row_values(stats, &self.open, cell, scratch);
                self.closed.push(coarse_row(pair, open_w, window, scratch.values.iter().copied()));
                self.open = MeanFold::default();
            }
            for &x in values.get(run).unwrap_or_default() {
                self.open.push(x);
            }
            open_w = w;
            recomputed += 1;
        }
        if let Some(&t) = ts.last() {
            self.last = t;
        }
        recomputed
    }

    /// Rules this pair's state breaks under `window` and `n_stats`
    /// statistics, given its samples replayed from the history as `seen`;
    /// paths are relative to the pair.
    fn violations(
        &self,
        pair: (u32, u32),
        seen: &Replay,
        window: u64,
        n_stats: usize,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        if seen.last.is_none() || seen.behind {
            out.push(Violation::new(
                "artifact/coarse-log-samples",
                path!["history"],
                format!("pair {pair:?} holds no sample, or its timestamps do not ascend"),
                "a pair holds at least one sample, its timestamps ascending block after block",
            ));
        }
        if !self.whole.same_bits(&seen.whole) {
            out.push(Violation::new(
                "artifact/coarse-log-samples",
                path!["whole"],
                format!("pair {pair:?}'s history fold is not the fold of its values"),
                "a pair's history fold is its values folded in order, bit for bit",
            ));
        }
        if !self.open.same_bits(&seen.open) {
            out.push(Violation::new(
                "artifact/coarse-log-samples",
                path!["open"],
                format!("pair {pair:?}'s open fold is not the fold of its last window's values"),
                "the open fold is the last sample's window's values folded in order, bit for \
                 bit",
            ));
        }
        if seen.last.is_some_and(|t| t != self.last) {
            out.push(Violation::new(
                "artifact/coarse-log-samples",
                path!["last"],
                format!("pair {pair:?}'s last timestamp {}s is not its last sample's", self.last),
                "a pair's last timestamp is its last sample's",
            ));
        }
        let open_w = self.newest().map(|t| t / window);
        let mut prev = None;
        for (j, row) in self.closed.iter().enumerate() {
            let at = path!["closed", j];
            out.extend(row_violations(row, window, n_stats, &at));
            if (row.src, row.dst) != pair {
                out.push(Violation::new(
                    "artifact/coarse-log-shape",
                    at.clone(),
                    format!("pair {pair:?} holds a row of {:?}", (row.src, row.dst)),
                    "a pair's rows are its own",
                ));
            }
            if prev >= Some(row.window_start) || Some(row.window_start.0 / window) >= open_w {
                out.push(Violation::new(
                    "artifact/coarse-log-order",
                    at,
                    format!(
                        "closed row at {:?} does not follow {prev:?} or is not before the open \
                         window {open_w:?}",
                        row.window_start
                    ),
                    "a pair's closed rows ascend strictly by window, before the open window",
                ));
            }
            prev = Some(row.window_start);
        }
        out
    }
}

/// Incremental state of an [`AdaptiveCoarsener`]: a dense pair table —
/// `keys` ascending with the parallel `pairs` holding each pair's folds,
/// last timestamp and closed rows — the samples, time-major, in
/// `history`, one immutable block per apply, plus the total row count and
/// the latest timestamp held. Only pairs a delta touches are re-classified,
/// and only the windows it touches are re-summarized — a pair's
/// volatility is a function of its own history alone, so untouched pairs
/// cannot flip class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalAdaptiveLog {
    cv_threshold: f64,
    stable_window: u64,
    volatile_window: u64,
    stats: Vec<Statistic>,
    keys: Vec<(u32, u32)>,
    pairs: Vec<PairState>,
    history: History,
    rows: usize,
    /// The largest sample timestamp any pair holds (0 while empty): a
    /// time-ordered delta from here on is behind no pair's history.
    latest: u64,
}

impl IncrementalAdaptiveLog {
    /// Total coarse rows across all pairs.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The pairs the apply that returned `applied` touched, ascending: one
    /// exact-size copy of the pair list of the block it pushed, and none
    /// when it appended nothing (it pushed no block).
    fn touched(&self, applied: &DeltaApplyStats) -> Vec<(u32, u32)> {
        match self.history.0.last() {
            Some(block) if applied.appended > 0 => block.runs.keys.clone(),
            _ => Vec::new(),
        }
    }

    /// Currently-volatile pairs, sorted (mirrors
    /// [`AdaptiveCoarsener::volatile_pairs`]).
    #[must_use]
    pub fn volatile_pairs(&self) -> Vec<(u32, u32)> {
        let volatile = |p: &PairState| volatile_at(self.cv_threshold, &p.whole);
        self.keys.iter().zip(&self.pairs).filter(|(_, p)| volatile(p)).map(|(&k, _)| k).collect()
    }

    /// The window of `ps`'s class.
    fn window(&self, ps: &PairState) -> u64 {
        if volatile_at(self.cv_threshold, &ps.whole) {
            self.volatile_window
        } else {
            self.stable_window
        }
    }

    /// Hand `visit` every row in batch order (`window_start`, `src`,
    /// `dst`): the closed rows by reference, and each open row built from
    /// its pair's folds into one reused record. Pairs are disjoint across
    /// rows and the pair table ascends, so ordering by window start, then
    /// pair index, is batch order: each row's sort key is its window
    /// start, pair index and row index within its pair.
    fn for_each_sorted_row(&self, mut visit: impl FnMut(&CoarseBwRecord)) {
        let mut order: Vec<(u64, usize, usize)> = Vec::with_capacity(self.rows);
        for (i, ps) in self.pairs.iter().enumerate() {
            order.extend(ps.closed.iter().enumerate().map(|(j, r)| (r.window_start.0, i, j)));
            if let Some(t) = ps.newest() {
                let window = self.window(ps);
                order.push((t / window * window, i, ps.closed.len()));
            }
        }
        order.sort_unstable();
        let mut scratch = RowScratch::default();
        let mut open = coarse_row((0, 0), 0, 0, []);
        for &(_, i, j) in &order {
            match self.pairs.get(i).and_then(|ps| ps.closed.get(j)) {
                Some(row) => visit(row),
                None if self.fill_open_row(i, &mut open, &mut scratch) => visit(&open),
                None => {}
            }
        }
    }

    /// Build pair `i`'s open row into `row`, reusing its buffers; false
    /// when there is no such pair or it holds no sample. Only a statistic
    /// other than the mean reads the open window's values, the pair's last
    /// `open.count()` samples, gathered newest first from the history.
    fn fill_open_row(&self, i: usize, row: &mut CoarseBwRecord, scratch: &mut RowScratch) -> bool {
        let (Some(ps), Some(&pair)) = (self.pairs.get(i), self.keys.get(i)) else {
            return false;
        };
        let Some(last) = ps.newest() else { return false };
        let window = self.window(ps);
        let cell = self.history.newest_values(pair).take(ps.open.count());
        adaptive_row_values(&self.stats, &ps.open, cell, scratch);
        let (w, (src, dst)) = (last / window, pair);
        (row.window_start, row.window_secs, row.src, row.dst) = (Ts(w * window), window, src, dst);
        row.values.clone_from(&scratch.values);
        true
    }

    /// The merged coarse log in batch order (`window_start`, `src`,
    /// `dst`).
    #[must_use]
    pub fn coarse_log(&self) -> Vec<CoarseBwRecord> {
        let mut out = Vec::with_capacity(self.rows);
        self.for_each_sorted_row(|row| out.push(row.clone()));
        out
    }

    /// Wire encoding of the merged coarse log: `encode_coarse_log` of
    /// [`IncrementalAdaptiveLog::coarse_log`], with no row cloned.
    #[must_use]
    pub fn encode(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::with_capacity(34 * self.rows);
        self.for_each_sorted_row(|row| {
            row_wire_bytes(row, |b| buf.put_slice(b));
        });
        buf.freeze()
    }

    /// Refuse this log unless `adaptive`'s configuration built it.
    fn built_for(&self, adaptive: &AdaptiveCoarsener) -> Result<(), StreamError> {
        let same = self.cv_threshold.to_bits() == adaptive.cv_threshold.to_bits()
            && self.stable_window == adaptive.stable_window
            && self.volatile_window == adaptive.volatile_window
            && self.stats == adaptive.stats;
        if same {
            return Ok(());
        }
        Err(StreamError::StateMismatch {
            detail: "state built for a different adaptive configuration".to_string(),
        })
    }

    /// Refuse a delta with a sample behind its pair's history (or behind
    /// the pair's earlier sample in the delta), before anything is
    /// touched. A time-ordered delta that starts at or after the latest
    /// timestamp held, as every stream tick's does, passes at once;
    /// `ordered` says the caller has already seen the delta's timestamps
    /// ascend, which spares the scan that checks it. Any other delta is
    /// walked by pair against the pair table.
    fn admit(&self, delta: &TelemetryDelta, ordered: bool) -> Result<(), StreamError> {
        let records = &delta.records;
        let ahead = records.first().is_none_or(|r| r.ts.0 >= self.latest);
        if ahead && (ordered || records.is_sorted_by_key(|r| r.ts)) {
            return Ok(());
        }
        let (mut cursor, mut late) = (0usize, None);
        walk_runs(
            records,
            |r| pair_key(r.src, r.dst),
            Some,
            |key, run| {
                let pair = key_pair(key);
                cursor = gallop(&self.keys, cursor, &pair);
                let held =
                    self.keys.get(cursor).filter(|&&k| k == pair).and(self.pairs.get(cursor));
                let mut last = held.and_then(PairState::newest);
                for r in run {
                    if late.is_none() && last.is_some_and(|t| r.ts.0 < t) {
                        late = Some((pair, r.ts, last));
                    }
                    last = Some(r.ts.0);
                }
            },
        );
        let Some((pair, ts, last)) = late else { return Ok(()) };
        Err(StreamError::OutOfOrder {
            detail: format!(
                "adaptive sample of pair {pair:?} at {ts:?} falls behind the pair's sample at {}s",
                last.unwrap_or_default()
            ),
        })
    }

    /// Whether this log holds, row for row and bit for bit, the rows
    /// `adaptive` coarsens the input into when its sweep continues from
    /// `table` over `records` ([`AdaptiveCoarsener::sweep_rows`]), given
    /// that the first `used[i]` closed rows of pair `i` are the rows the
    /// sweeps that left `table` closed ([`IncrementalAdaptiveLog::proven_rows`]).
    /// The oracle's rows come in the order its sweep closes them, each
    /// pair's in window order: each is compared in place with its pair's
    /// next row — the closed rows after the proven ones, then the open row
    /// computed from its folds — found by a cursor into the pair table, so
    /// no batch row and no encoding is built. Every pair's rows must then
    /// be used up. From an empty table and no proven row, for a log that
    /// satisfies [`IncrementalAdaptiveLog::violations`], this is exactly
    /// `self.encode() == encode_coarse_log(&adaptive.coarsen_records(..))`;
    /// it also refuses a pair whose rows are out of window order, which
    /// `violations()` flags. A sweep that cannot resume from `table` is
    /// refused.
    fn matches_batch(
        &self,
        adaptive: &AdaptiveCoarsener,
        table: &mut PairTable,
        records: &[BandwidthRecord],
        mut used: Vec<usize>,
    ) -> bool {
        let mut scratch = RowScratch::default();
        let mut open = coarse_row((0, 0), 0, 0, []);
        let (mut cursor, mut prev, mut same) = (0usize, None, true);
        let swept = adaptive.sweep_rows(table, records, |class, w, key, values| {
            let pair = key_pair(key);
            if prev.is_some_and(|p| pair < p) {
                cursor = 0;
            }
            prev = Some(pair);
            cursor = gallop(&self.keys, cursor, &pair);
            let ps = self.keys.get(cursor).filter(|&&k| k == pair).and(self.pairs.get(cursor));
            let (Some(ps), Some(n)) = (ps, used.get_mut(cursor)) else {
                same = false;
                return;
            };
            let values = values.iter().copied();
            same = same
                && match ps.closed.get(*n) {
                    Some(closed) => class.is_row(closed, w, key, values),
                    None => {
                        *n == ps.closed.len()
                            && self.fill_open_row(cursor, &mut open, &mut scratch)
                            && class.is_row(&open, w, key, values)
                    }
                };
            *n += 1;
        });
        swept
            && same
            && used.len() == self.pairs.len()
            && self.pairs.iter().zip(&used).all(|(ps, &n)| n == ps.rows())
    }

    /// How many closed rows of each pair the sweeps that left `table`
    /// proved, if this log still holds those rows: each pair's first that
    /// many closed rows, pair by pair, must feed FNV-1a from its offset to
    /// `fnv`, the state [`IncrementalAdaptiveLog::closed_fnv`] read after
    /// the proof. A pair the table lacks has none proven. Linear in the
    /// closed rows, of which a log of day windows holds few.
    fn proven_rows(&self, table: &PairTable, fnv: u64) -> Option<Vec<usize>> {
        let mut proven = table.closed_rows().peekable();
        let mut hash = FNV_OFFSET;
        let mut used = Vec::with_capacity(self.pairs.len());
        for (&pair, ps) in self.keys.iter().zip(&self.pairs) {
            while proven.next_if(|&(p, _)| p < pair).is_some() {}
            let n = proven.next_if(|&(p, _)| p == pair).map_or(0, |(_, n)| n);
            hash = fnv1a_rows(hash, ps.closed.get(..n)?);
            used.push(n);
        }
        (hash == fnv && used.len() == self.pairs.len()).then_some(used)
    }

    /// The FNV-1a state of every closed row, pair by pair: after a proof
    /// of this log, what [`IncrementalAdaptiveLog::proven_rows`] checks.
    fn closed_fnv(&self) -> u64 {
        self.pairs.iter().fold(FNV_OFFSET, |hash, ps| fnv1a_rows(hash, &ps.closed))
    }

    /// The log is one `apply_delta` could have left: non-zero windows and
    /// at least one statistic; keys strictly ascending, one pair state
    /// each; every block sound ([`ColumnBlock::violations`], one value
    /// per sample) and its pairs all in the table; every
    /// pair's samples, gathered block by block, non-empty and ascending by
    /// timestamp, its history fold bit for bit the fold of its values, its
    /// open fold that of exactly the values in its last sample's window and
    /// its last timestamp its last sample's; its closed rows its own,
    /// ascending and before that window, each one aligned window of its
    /// class with one value per statistic; the row count the sum of the
    /// pairs' rows; and the latest timestamp the largest any pair holds.
    /// Pairs are visited in table order with one cursor per block.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        if let Some(v) = adaptive_log_shape(self.stable_window, self.volatile_window, &self.stats) {
            out.push(v);
            return out;
        }
        if self.keys.len() != self.pairs.len() {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["pairs"],
                format!("{} keys but {} pair states", self.keys.len(), self.pairs.len()),
                "keys and pairs are parallel vectors",
            ));
        }
        let blocks = &self.history.0;
        for (b, block) in blocks.iter().enumerate() {
            out.extend(under(&path!["history", b], ColumnBlock::violations(block, 1)));
        }
        let (mut cursors, mut held) = (Vec::new(), vec![0usize; blocks.len()]);
        let mut prev = None;
        for (i, &pair) in self.keys.iter().enumerate() {
            if prev >= Some(pair) {
                out.push(Violation::new(
                    "artifact/coarse-log-order",
                    path!["keys", i],
                    format!("pair {pair:?} does not follow {prev:?}"),
                    "the pair table's keys ascend strictly",
                ));
            }
            prev = Some(pair);
            let ps = self.pairs.get(i);
            let window = ps.map_or(self.stable_window, |ps| self.window(ps));
            let mut seen = Replay::default();
            self.history.visit(pair, &mut cursors, |b, ts, values| {
                if let Some(n) = held.get_mut(b) {
                    *n += 1;
                }
                seen.push(ts, values, window);
            });
            if let Some(ps) = ps {
                let found = PairState::violations(ps, pair, &seen, window, self.stats.len());
                out.extend(under(&path!["pairs", i], found));
            }
        }
        for (b, (block, &n)) in blocks.iter().zip(&held).enumerate() {
            if n != block.runs.len() {
                out.push(Violation::new(
                    "artifact/coarse-log-samples",
                    path!["history", b, "runs", "keys"],
                    format!("{n} of the block's {} pairs are in the pair table", block.runs.len()),
                    "every pair of a block is in the pair table",
                ));
            }
        }
        let counted: usize = self.pairs.iter().map(PairState::rows).sum();
        if counted != self.rows {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["rows"],
                format!("row count {} but the pairs hold {counted} rows", self.rows),
                "the row count is kept as the sum of the pairs' rows",
            ));
        }
        let latest = self.pairs.iter().filter_map(PairState::newest).max();
        if latest.unwrap_or_default() != self.latest {
            out.push(Violation::new(
                "artifact/coarse-log-samples",
                path!["latest"],
                format!("latest timestamp {}s but the pairs hold up to {latest:?}", self.latest),
                "the latest timestamp is kept as the largest one any pair holds",
            ));
        }
        out
    }
}

impl AdaptiveCoarsener {
    /// Fresh incremental state bound to this coarsener's configuration.
    #[must_use]
    pub fn new_state(&self) -> IncrementalAdaptiveLog {
        IncrementalAdaptiveLog {
            cv_threshold: self.cv_threshold,
            stable_window: self.stable_window,
            volatile_window: self.volatile_window,
            stats: self.stats.clone(),
            keys: Vec::new(),
            pairs: Vec::new(),
            history: History::default(),
            rows: 0,
            latest: 0,
        }
    }

    /// Apply one telemetry delta in place: append the delta's samples to
    /// the history as one new block, push each touched pair's samples onto
    /// its folds, re-classify it, and close its open row only when a sample
    /// lands in a later window — or re-chunk all of its rows when the pair
    /// is new or flips class.
    /// Applying each delta of a time-ordered log in tick order leaves
    /// `state` byte-identical (under [`IncrementalAdaptiveLog::encode`])
    /// to a batch [`AdaptiveCoarsener::coarsen`] over the concatenated
    /// log: both fold each pair's samples in arrival order.
    ///
    /// The delta is walked by pair ([`walk_runs`], each pair's records in
    /// arrival order) against the pair table with a galloping cursor; new
    /// pairs are spliced in after the walk.
    ///
    /// # Errors
    /// [`StreamError::StateMismatch`] when `state` was built by a
    /// different configuration, and [`StreamError::OutOfOrder`] when a
    /// sample falls behind its pair's history (or its pair's earlier
    /// sample in the delta). Either leaves `state` untouched.
    pub fn apply_delta(
        &self,
        state: &mut IncrementalAdaptiveLog,
        delta: &TelemetryDelta,
    ) -> Result<DeltaApplyStats, StreamError> {
        state.built_for(self)?;
        state.admit(delta, false)?;
        Ok(self.apply_admitted(state, delta))
    }

    /// [`AdaptiveCoarsener::apply_delta`] once its checks have passed (a
    /// stream tick makes them before ingest). The walk writes the new
    /// block's columns in visit order and updates the pair table in one
    /// ascending pass; an empty delta pushes no block.
    fn apply_admitted(
        &self,
        state: &mut IncrementalAdaptiveLog,
        delta: &TelemetryDelta,
    ) -> DeltaApplyStats {
        let IncrementalAdaptiveLog { keys, pairs, history, rows, latest, .. } = state;
        let mut block = NewBlock::after(history.0.last(), delta.len());
        let (mut scratch, mut gathered) = (RowScratch::default(), Gathered::default());
        let (mut fresh_keys, mut fresh_pairs) = (Vec::new(), Vec::new());
        let (mut cursor, mut dirty, mut recomputed) = (0usize, 0usize, 0usize);
        let pair_of = |r: &BandwidthRecord| pair_key(r.src, r.dst);
        walk_runs(&delta.records, pair_of, Some, |key, run| {
            let pair = key_pair(key);
            let fresh = block.push(pair, run);
            dirty += 1;
            cursor = gallop(keys, cursor, &pair);
            let hit = keys.get(cursor).filter(|&&k| k == pair).and(pairs.get_mut(cursor));
            if let Some(ps) = hit {
                let before = ps.rows();
                recomputed += self.absorb(ps, pair, history, fresh, &mut scratch, &mut gathered);
                *rows = (*rows + ps.rows()).saturating_sub(before);
                *latest = (*latest).max(ps.last);
            } else {
                let mut ps = PairState::default();
                recomputed +=
                    self.absorb(&mut ps, pair, history, fresh, &mut scratch, &mut gathered);
                *rows += ps.rows();
                *latest = (*latest).max(ps.last);
                fresh_keys.push((cursor, pair));
                fresh_pairs.push((cursor, ps));
            }
        });
        history.0.extend(block.finish().map(Arc::new));
        splice_sorted(keys, fresh_keys);
        splice_sorted(pairs, fresh_pairs);
        DeltaApplyStats {
            appended: delta.len(),
            dirty_cells: dirty,
            recomputed_rows: recomputed,
            total_rows: *rows,
        }
    }

    /// Push one pair's `fresh` samples, already in the new block, onto its
    /// history fold, re-classify the pair and recompute the rows they
    /// dirtied. A new pair's samples are all fresh; a flip gathers the
    /// pair's earlier ones from `history` into `gathered`. Returns the rows
    /// recomputed.
    ///
    /// Kept out of line: inlined into the walk's visitor, the adaptive
    /// apply of a one-epoch 300-DC delta measured a few percent slower.
    #[inline(never)]
    fn absorb(
        &self,
        ps: &mut PairState,
        pair: (u32, u32),
        history: &History,
        fresh: (&[u64], &[f64]),
        scratch: &mut RowScratch,
        gathered: &mut Gathered,
    ) -> usize {
        let was_volatile = ps.newest().map(|_| self.is_volatile(&ps.whole));
        for &x in fresh.1 {
            ps.whole.push(x);
        }
        let volatile = self.is_volatile(&ps.whole);
        let window = if volatile { self.volatile_window } else { self.stable_window };
        match was_volatile {
            Some(was) if was == volatile => {
                ps.extend(pair, history, fresh, window, &self.stats, scratch)
            }
            Some(_) => {
                let all = gathered.of(history, pair, fresh);
                ps.rechunk(pair, all, window, &self.stats, scratch)
            }
            None => ps.rechunk(pair, fresh, window, &self.stats, scratch),
        }
    }
}

// ---- streaming loop ----------------------------------------------------

/// Configuration of a streaming session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Window of the uniform time-coarsener.
    pub window_secs: u64,
    /// Statistics of the uniform time-coarsener.
    pub stats: Vec<Statistic>,
    /// The churn-adaptive coarsener run alongside it.
    pub adaptive: AdaptiveCoarsener,
    /// Reconcile after every N ticks (0 disables periodic reconciliation;
    /// [`SmnController::stream_reconcile`] can still be called directly).
    pub reconcile_every: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window_secs: HOUR,
            stats: vec![Statistic::Mean, Statistic::P95],
            adaptive: AdaptiveCoarsener {
                cv_threshold: 0.35,
                stable_window: DAY,
                volatile_window: HOUR,
                stats: vec![Statistic::Mean],
            },
            reconcile_every: 4,
        }
    }
}

impl StreamConfig {
    /// The uniform time-coarsener this config describes.
    ///
    /// # Panics
    /// Panics on a zero window or empty statistics list (the
    /// [`TimeCoarsener::new`] contract).
    #[must_use]
    pub fn time_coarsener(&self) -> TimeCoarsener {
        TimeCoarsener::new(self.window_secs, self.stats.clone())
    }

    /// Refuse a configuration whose coarse logs would break the first
    /// rule of their `violations()`: a zero window or no statistic. The
    /// coarseners assert it, so a tick or reconcile checks it first.
    fn admit(&self) -> Result<(), StreamError> {
        let a = &self.adaptive;
        match time_log_shape(self.window_secs, &self.stats)
            .or_else(|| adaptive_log_shape(a.stable_window, a.volatile_window, &a.stats))
        {
            Some(v) => Err(StreamError::Config(v)),
            None => Ok(()),
        }
    }
}

/// A point a proof of the uniform log may start from: its first `rows`
/// rows are the time oracle's cells of the lake before `start`, a window
/// start, and feed the fingerprint to the FNV-1a state `fnv`. The origin,
/// no row and [`FNV_OFFSET`], is a full proof.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ProofPoint {
    rows: usize,
    start: Ts,
    fnv: u64,
}

impl ProofPoint {
    /// The point of a full proof.
    const ORIGIN: ProofPoint = ProofPoint { rows: 0, start: Ts(0), fnv: FNV_OFFSET };
}

/// Where the last successful reconcile proved the uniform log against the
/// lake stamped `lake`: through its sealed rows, the blocks `blocks`,
/// which end at the frontier's start, and through its open rows, which
/// end at the newest open window's end, where the lake then held
/// `before_end` records (all of them).
#[derive(Debug, Clone)]
struct SealedProof {
    lake: u64,
    before_end: usize,
    blocks: Vec<Arc<SealedBlock>>,
    sealed: ProofPoint,
    open: ProofPoint,
}

/// Where the last successful reconcile left the adaptive oracle: the
/// table its sweeps of the first `cut` records of the lake stamped `lake`
/// left under `config`, and [`IncrementalAdaptiveLog::closed_fnv`] of the
/// log it proved.
#[derive(Debug, Clone)]
struct AdaptiveProof {
    lake: u64,
    cut: usize,
    config: AdaptiveCoarsener,
    closed: u64,
    table: PairTable,
}

/// A fingerprint as reconciliation reports it, with the FNV-1a states
/// after the uniform log's sealed rows and after its open rows.
type Fingerprint = (String, [u64; 2]);

/// The number of `lake`'s records before `end`.
fn records_before(lake: &TimeStore<BandwidthRecord>, end: Ts) -> usize {
    lake.len().saturating_sub(lake.since(end).len())
}

/// The proof mark: what the next reconcile need not prove again
/// ([`SmnController::stream_reconcile`]), for the uniform log and for the
/// adaptive one. A lake's stamp means nothing in another process, so a
/// checkpoint never carries a mark: it serializes as `null`, and a
/// restored session's first reconcile is a full proof.
#[derive(Debug, Clone, Default)]
struct ProofMark {
    uniform: Option<SealedProof>,
    adaptive: Option<AdaptiveProof>,
}

impl Serialize for ProofMark {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for ProofMark {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(ProofMark::default())
    }
}

impl ProofMark {
    /// The points a proof of `log` against `lake` may start from, if any:
    /// the same lake, changed since only by appends, a log built for
    /// `time`'s configuration and still holding the very blocks the mark
    /// proved sealed. Returns the sealed rows' point and the point to
    /// start from: the open rows' point when they are all sealed now and
    /// no record landed before their end since the proof, otherwise the
    /// sealed rows' point. Whether the rows between the two are unchanged
    /// is checked against the fingerprint's state, after the walk
    /// ([`IncrementalCoarseLog::hashes_to`]).
    fn usable(
        &self,
        lake: &TimeStore<BandwidthRecord>,
        log: &IncrementalCoarseLog,
        time: &TimeCoarsener,
    ) -> Option<(ProofPoint, ProofPoint)> {
        let m = self.uniform.as_ref().filter(|m| {
            m.lake == lake.stamp()
                && log.built_for(time.window_secs, &time.stats).is_ok()
                && log.sealed.starts_with(&m.blocks)
        })?;
        let open = (records_before(lake, m.open.start) == m.before_end).then_some(m.open);
        let from = open.into_iter().chain([m.sealed]).find(|p| p.rows <= log.sealed.len())?;
        Some((m.sealed, from))
    }
}

/// The full incremental state of a streaming session. Serializable as a
/// checkpoint: restoring a serialized `StreamState` against the same lake
/// and continuing the delta stream is byte-identical to never having
/// stopped (the streaming proptest exercises exactly that).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamState {
    /// Session configuration (validated against on every apply).
    pub config: StreamConfig,
    /// The next tick expected; deltas must arrive in strictly increasing
    /// tick order starting at 0.
    pub next_tick: u64,
    /// The fine dependency graph, churned by [`GraphDelta`]s.
    pub fine: FineDepGraph,
    /// The incrementally-maintained CDG
    /// (`CoarseDepGraph::from_fine(&fine)` is its reconciliation oracle).
    pub cdg: CoarseDepGraph,
    time: IncrementalCoarseLog,
    adaptive: IncrementalAdaptiveLog,
    /// Outcome of the most recent successful reconciliation.
    pub last_reconcile: Option<ReconcileOutcome>,
    mark: ProofMark,
}

impl StreamState {
    /// A fresh session over `fine` (the CDG derives from it) with empty
    /// coarse state. The lake's bandwidth store must be empty or the
    /// first reconciliation will rightly report divergence — incremental
    /// state only covers what streamed through it. A configuration with a
    /// zero window or no statistic still makes a session; its first
    /// tick refuses it as [`StreamError::Config`].
    #[must_use]
    pub fn new(config: StreamConfig, fine: FineDepGraph) -> Self {
        let cdg = CoarseDepGraph::from_fine(&fine);
        let time = IncrementalCoarseLog::empty(config.window_secs, config.stats.clone());
        let adaptive = config.adaptive.new_state();
        let mark = ProofMark::default();
        StreamState { config, next_tick: 0, fine, cdg, time, adaptive, last_reconcile: None, mark }
    }

    /// The incrementally-maintained uniform coarse log.
    #[must_use]
    pub fn time_log(&self) -> &IncrementalCoarseLog {
        &self.time
    }

    /// The incrementally-maintained adaptive coarse log.
    #[must_use]
    pub fn adaptive_log(&self) -> &IncrementalAdaptiveLog {
        &self.adaptive
    }

    /// Restore a serialized checkpoint, refusing one whose fine graph,
    /// CDG or coarse logs break their invariants, or whose coarse logs
    /// were built for another configuration: a dangling edge, an unsorted
    /// pair table or a zero window would otherwise surface as a panic or a
    /// silent misplacement on the next tick. The coarse logs come back
    /// block for block as they were written, consecutive adaptive blocks
    /// with equal runs sharing them again.
    ///
    /// # Errors
    /// [`StreamError::Checkpoint`] with the first violation found.
    // smn-lint: allow(deep/determinism-taint) -- name-index entries are sorted before they are checked
    pub fn restore(checkpoint: &str) -> Result<StreamState, StreamError> {
        let mut state: StreamState = serde_json::from_str(checkpoint).map_err(|e| {
            StreamError::Checkpoint(Violation::unreadable("a stream checkpoint", &e))
        })?;
        let mut violations = under(&path!["fine"], FineDepGraph::violations(&state.fine));
        violations.extend(under(&path!["cdg"], CoarseDepGraph::violations(&state.cdg)));
        violations.extend(under(&path!["time"], state.time.violations()));
        violations.extend(under(&path!["adaptive"], state.adaptive.violations()));
        if state.built_by_config().is_err() {
            violations.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["config"],
                "the coarse logs were built for another configuration",
                "a checkpoint's logs carry the windows, statistics and threshold of its config",
            ));
        }
        if let Some(v) = violations.into_iter().next() {
            return Err(StreamError::Checkpoint(v));
        }
        state.adaptive.history.share_runs();
        Ok(state)
    }

    /// Refuse coarse logs built for another configuration than `config`
    /// (its fields are public, so a caller can change it between ticks).
    fn built_by_config(&self) -> Result<(), StreamError> {
        self.time.built_for(self.config.window_secs, &self.config.stats)?;
        self.adaptive.built_for(&self.config.adaptive)
    }

    /// Refuse, while the lake is still untouched, every tick whose
    /// coarse-log applies would fail: a configuration a coarsener
    /// asserts against, logs built for another configuration, a record
    /// in a sealed window or a sample behind its pair's adaptive history.
    /// After this neither apply can fail, so the tick applies `delta`
    /// with no second check. `delta`'s timestamps ascend: the tick has
    /// checked them against the lake.
    fn admit(&self, delta: &TelemetryDelta) -> Result<(), StreamError> {
        self.config.admit()?;
        self.built_by_config()?;
        self.time.admit(delta, true)?;
        self.adaptive.admit(delta, true)
    }

    /// Combined FNV-1a fingerprint over all three incremental artifacts —
    /// what reconciliation stamps into audits and delta journals: the
    /// fingerprint of the uniform log's encoding, then the adaptive log's,
    /// then the CDG's canonical bytes, streamed row by row with no
    /// encoding built.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        self.full_fingerprint(&self.cdg.canonical_bytes()).0
    }

    /// [`StreamState::fingerprint`] from [`ProofPoint::ORIGIN`], given the
    /// CDG's canonical bytes, with the states a proof mark records.
    fn full_fingerprint(&self, cdg: &[u8]) -> Fingerprint {
        self.fingerprint_from(ProofPoint::ORIGIN, cdg)
    }

    /// [`StreamState::fingerprint`], given the CDG's canonical bytes,
    /// continued from `point`'s FNV-1a state over the uniform rows after
    /// its first `point.rows`, which must be sealed; from
    /// [`ProofPoint::ORIGIN`] it is the whole fingerprint. Also returns the
    /// states after the sealed rows and after the open rows, which a proof
    /// mark records.
    fn fingerprint_from(&self, point: ProofPoint, cdg: &[u8]) -> Fingerprint {
        let mut hash = point.fnv;
        if let Some(newer) = self.time.sealed.after(point.rows) {
            newer.for_each(|row| fnv1a_row(&mut hash, row));
        }
        let at_sealed = hash;
        self.time.for_each_open_row(|row| fnv1a_row(&mut hash, row));
        let at_open = hash;
        self.adaptive.for_each_sorted_row(|row| fnv1a_row(&mut hash, row));
        fnv1a(&mut hash, cdg);
        (format!("{hash:016x}"), [at_sealed, at_open])
    }

    /// Prove the adaptive log against `lake`'s records under `adaptive`:
    /// resumed from `mark` over the records after its cut when the mark
    /// fits — the same lake, changed since only by appends, the same
    /// configuration, a log built for it and still holding the closed rows
    /// the mark proved — else, or when the resumed proof fails (a pair
    /// changed class, or a row differs), a full proof from an empty table.
    /// So the verdict is a full proof's. Returns it, the cut the proof
    /// resumed from (0 for a full proof) and the oracle's table.
    fn prove_adaptive(
        &self,
        mark: Option<AdaptiveProof>,
        lake: &TimeStore<BandwidthRecord>,
        adaptive: &AdaptiveCoarsener,
    ) -> (bool, usize, PairTable) {
        let log: &IncrementalAdaptiveLog = &self.adaptive;
        let full = lake.all();
        let fits = |m: &AdaptiveProof| {
            m.lake == lake.stamp() && m.config == *adaptive && log.built_for(adaptive).is_ok()
        };
        if let Some(AdaptiveProof { cut, closed, mut table, .. }) = mark.filter(fits) {
            let proven = log.proven_rows(&table, closed);
            if let (Some(used), Some(since)) = (proven, full.get(cut..)) {
                if log.matches_batch(adaptive, &mut table, since, used) {
                    return (true, cut, table);
                }
            }
        }
        let mut table = PairTable::default();
        let same = log.matches_batch(adaptive, &mut table, full, vec![0; log.pairs.len()]);
        (same, 0, table)
    }

    /// A reconcile's branch on the caller: the adaptive proof from `mark`
    /// ([`StreamState::prove_adaptive`]), then in laps of their own the
    /// CDG check against the canonical bytes `cdg` and the fingerprint
    /// continued from the uniform log's `point`. Returns the fingerprint,
    /// the cut the adaptive proof resumed from and the mark it leaves, or
    /// the first diverging artifact with its audit.
    fn prove_rest(
        &self,
        laps: &mut Laps<'_>,
        mark: Option<AdaptiveProof>,
        lake: &TimeStore<BandwidthRecord>,
        adaptive: &AdaptiveCoarsener,
        point: ProofPoint,
        cdg: &[u8],
    ) -> Result<(Fingerprint, usize, AdaptiveProof), (&'static str, Divergence)> {
        let (same, cut, mut table) = self.prove_adaptive(mark, lake, adaptive);
        if !same {
            let batch = adaptive.coarsen_records(lake.all());
            return Err(("adaptive-bwlog", coarse_divergence(&self.adaptive.coarse_log(), &batch)));
        }
        laps.lap("reconcile/compare");
        let batch_cdg = CoarseDepGraph::from_fine(&self.fine).canonical_bytes();
        if cdg != batch_cdg {
            return Err(("cdg", cdg_divergence(cdg, &batch_cdg)));
        }
        laps.lap("reconcile/fingerprint");
        table.shrink_to_fit();
        let mark = AdaptiveProof {
            lake: lake.stamp(),
            cut: lake.len(),
            config: adaptive.clone(),
            closed: self.adaptive.closed_fnv(),
            table,
        };
        Ok((self.fingerprint_from(point, cdg), cut, mark))
    }
}

/// Outcome of one successful reconciliation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconcileOutcome {
    /// Tick after which reconciliation ran.
    pub tick: u64,
    /// Combined fingerprint of the verified incremental artifacts.
    pub hash: String,
    /// Rows in the verified uniform coarse log.
    pub time_rows: usize,
    /// Rows in the verified adaptive coarse log.
    pub adaptive_rows: usize,
    /// Teams in the verified CDG.
    pub teams: usize,
    /// Edges in the verified CDG.
    pub team_edges: usize,
    /// Bandwidth records the batch oracle recomputed from.
    pub lake_records: usize,
}

/// Outcome of one streaming tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickOutcome {
    /// The tick that was applied.
    pub tick: u64,
    /// Bandwidth records ingested into the lake.
    pub ingested: usize,
    /// Distinct pairs the telemetry delta touched, sorted: the pairs the
    /// adaptive apply walked.
    pub pairs: Vec<(u32, u32)>,
    /// Uniform-coarsener apply stats.
    pub time: DeltaApplyStats,
    /// Adaptive-coarsener apply stats.
    pub adaptive: DeltaApplyStats,
    /// CDG apply stats (zero when the tick carried no graph churn).
    pub cdg: CdgDeltaStats,
    /// Component names added by the tick's graph delta.
    pub added_components: Vec<String>,
    /// Dependency endpoint names added by the tick's graph delta.
    pub added_dependencies: Vec<(String, String)>,
    /// Present when this tick triggered periodic reconciliation.
    pub reconcile: Option<ReconcileOutcome>,
}

/// What a successful reconcile proved, as its phase and audit record it:
/// the lake's records, the time oracle's first window start and records
/// walked, and the adaptive oracle's lake position and records walked
/// (0 and the whole lake for a full proof).
struct Proof {
    lake_records: usize,
    proved_from: u64,
    walked_records: usize,
    adaptive_from: usize,
    adaptive_walked: usize,
}

/// What a divergence audits: the fingerprints of the incremental and the
/// batch encoding, then the diff.
type Divergence = (String, String, String);

/// The audited divergence of a coarse log whose rows, in batch order, are
/// `incremental` against the oracle's `batch`. The diff names the first
/// row whose wire bytes differ, so a NaN statistic equals itself and
/// `-0.0` differs from `0.0`. Every row can agree only when the
/// incremental log keeps a pair's adaptive rows out of window order,
/// which its `violations()` flags.
fn coarse_divergence(incremental: &[CoarseBwRecord], batch: &[CoarseBwRecord]) -> Divergence {
    let differ =
        |a: &CoarseBwRecord, b: &CoarseBwRecord| encode_coarse_log([a]) != encode_coarse_log([b]);
    let first = incremental.iter().zip(batch).enumerate().find(|(_, (a, b))| differ(a, b));
    let diff = if incremental.len() != batch.len() {
        format!("row count {} (incremental) vs {} (batch)", incremental.len(), batch.len())
    } else if let Some((i, (a, b))) = first {
        format!("row {i}: incremental {a:?} vs batch {b:?}")
    } else {
        "every row agrees in batch order, but a pair's rows are out of window order".to_string()
    };
    (
        fingerprint_hex(&[encode_coarse_log(incremental).as_slice()]),
        fingerprint_hex(&[encode_coarse_log(batch).as_slice()]),
        diff,
    )
}

/// The audited divergence of two canonical CDG encodings: their
/// fingerprints and the first differing byte offset.
fn cdg_divergence(incremental: &[u8], batch: &[u8]) -> Divergence {
    let diff = if incremental.len() == batch.len() {
        match incremental.iter().zip(batch).position(|(a, b)| a != b) {
            Some(i) => format!("first differing canonical byte at offset {i}"),
            None => "identical".to_string(),
        }
    } else {
        format!("canonical length {} (incremental) vs {} (batch)", incremental.len(), batch.len())
    };
    (fingerprint_hex(&[incremental]), fingerprint_hex(&[batch]), diff)
}

impl SmnController {
    /// Apply one streaming tick: ingest the telemetry delta into the
    /// CLDS, update the incremental coarse logs (`coarsen/apply_delta`
    /// phase), apply fine-graph churn to the CDG (`cdg/apply_delta`
    /// phase), and — every `config.reconcile_every` ticks — run a
    /// full-recompute reconciliation (`stream/reconcile` phase).
    ///
    /// # Errors
    /// [`StreamError::OutOfOrder`] on tick or timestamp regressions,
    /// [`StreamError::Config`] on a zero window or no statistic (both
    /// refused before ingest), [`StreamError::Graph`] on unappliable
    /// churn, and
    /// [`StreamError::Divergence`] when reconciliation disproves
    /// incremental/batch byte-identity.
    // smn-lint: allow(deep/determinism-taint) -- phase-guard wall readings stay in the profile registry
    pub fn stream_tick(
        &mut self,
        state: &mut StreamState,
        telemetry: &TelemetryDelta,
        graph: Option<&GraphDelta>,
    ) -> Result<TickOutcome, StreamError> {
        let obs = self.obs().clone();
        if telemetry.tick != state.next_tick {
            return Err(StreamError::OutOfOrder {
                detail: format!("expected tick {}, got tick {}", state.next_tick, telemetry.tick),
            });
        }
        if let Some(g) = graph {
            if g.tick != telemetry.tick {
                return Err(StreamError::OutOfOrder {
                    detail: format!(
                        "graph delta tick {} does not match telemetry tick {}",
                        g.tick, telemetry.tick
                    ),
                });
            }
        }
        // Telemetry is append-only: the concatenation of deltas must be a
        // valid time-ordered log, or incremental state and the lake's
        // batch view would silently disagree.
        let mut prev = self.clds().bandwidth.read().latest_ts();
        for r in &telemetry.records {
            if prev.is_some_and(|p| r.ts < p) {
                return Err(StreamError::OutOfOrder {
                    detail: format!(
                        "record at {:?} regresses behind {:?} within tick {}",
                        r.ts, prev, telemetry.tick
                    ),
                });
            }
            prev = Some(r.ts);
        }

        // A failing apply after ingest would leave the lake ahead of the
        // coarse logs, and a zero window or no statistic would panic in a
        // coarsener; refuse all of them while the lake is untouched.
        state.admit(telemetry)?;

        let ingest = ingest_bandwidth_profiled(self.clds(), &telemetry.records, &obs);

        // The two logs share no state and neither apply can fail now, so
        // they run side by side: the uniform apply on a spawned thread,
        // the adaptive one on the caller. Memory a thread allocates and
        // keeps sits in its own glibc arena, where the caller's later
        // allocations cannot reuse it (DESIGN §14 "Forked tick"). So the
        // caller first seals the windows before the delta and reserves
        // the open columns' room for it, and only the adaptive branch, on
        // the caller, keeps new blocks and rows.
        let (time, adaptive, pairs) = {
            let mut phase = obs.phase("coarsen/apply_delta");
            let coarsener = state.config.time_coarsener();
            state.time.prepare(telemetry);
            let (config, time_log, adaptive_log) =
                (&state.config, &mut state.time, &mut state.adaptive);
            let (t, (a, pairs)) = obs.fork(
                ("coarsen/time", |_| coarsener.apply_admitted(time_log, telemetry)),
                ("coarsen/adaptive", |_| {
                    let a = config.adaptive.apply_admitted(adaptive_log, telemetry);
                    (a, adaptive_log.touched(&a))
                }),
            );
            phase.field("appended", t.appended);
            phase.field("dirty_cells", t.dirty_cells);
            phase.field("adaptive_dirty_pairs", a.dirty_cells);
            (t, a, pairs)
        };

        let mut cdg = CdgDeltaStats::default();
        let mut added_components = Vec::new();
        let mut added_dependencies = Vec::new();
        if let Some(g) = graph.filter(|g| !g.is_empty()) {
            let mut phase = obs.phase("cdg/apply_delta");
            g.apply_to_fine(&mut state.fine)?;
            cdg = state.cdg.apply_delta(&state.fine, g)?;
            phase.field("new_teams", cdg.new_teams);
            phase.field("grown_teams", cdg.grown_teams);
            phase.field("new_edges", cdg.new_edges);
            added_components = g.add_components.iter().map(|c| c.name.clone()).collect();
            added_dependencies =
                g.add_dependencies.iter().map(|d| (d.src.clone(), d.dst.clone())).collect();
        }

        state.next_tick += 1;
        let every = state.config.reconcile_every;
        let reconcile = if every > 0 && state.next_tick.is_multiple_of(every) {
            Some(self.stream_reconcile(state)?)
        } else {
            None
        };

        Ok(TickOutcome {
            tick: telemetry.tick,
            ingested: ingest.ingested,
            pairs,
            time,
            adaptive,
            cdg,
            added_components,
            added_dependencies,
            reconcile,
        })
    }

    /// Feed a whole delta stream through [`SmnController::stream_tick`],
    /// matching graph deltas to telemetry deltas by tick.
    ///
    /// # Errors
    /// The first [`StreamError`] any tick produces; ticks before it are
    /// applied.
    // smn-lint: allow(deep/determinism-taint) -- inherits stream_tick's waiver: phase-guard wall readings stay in the profile registry
    pub fn stream_run(
        &mut self,
        state: &mut StreamState,
        telemetry: &[TelemetryDelta],
        graph: &[GraphDelta],
    ) -> Result<Vec<TickOutcome>, StreamError> {
        let mut out = Vec::with_capacity(telemetry.len());
        for td in telemetry {
            let gd = graph.iter().find(|g| g.tick == td.tick);
            out.push(self.stream_tick(state, td, gd)?);
        }
        Ok(out)
    }

    /// Full-recompute reconciliation: rebuild every coarse artifact from
    /// the lake's raw history through the batch oracles and require the
    /// incremental state to match *byte for byte*. On success the
    /// controller adopts the verified CDG and the outcome is audited; on
    /// divergence an audited diff is emitted and a hard
    /// [`StreamError::Divergence`] returned — the same
    /// no-silent-disagreement discipline as the degraded-mode outcome
    /// hashes.
    ///
    /// **Each window is proven once.** A successful proof marks two
    /// points of the uniform log: where its sealed rows end (the
    /// frontier's window start) and where its open rows end (the end of
    /// the newest open window), each with its row count and the
    /// fingerprint's FNV-1a state after those rows, plus the sealed blocks
    /// themselves, the lake's stamp ([`TimeStore::stamp`]) and its record
    /// count before that end. The next reconcile starts from the open
    /// rows' point when they are all sealed now and no record has landed
    /// before their end, otherwise from the sealed rows' point. Its time
    /// oracle walks only the lake since the point's start and compares it
    /// with the rows after the point. The skipped windows cannot have
    /// changed: sealed blocks are never written in place, and the log must
    /// still hold the mark's blocks; the rows proven open and sealed since
    /// must still hash from the sealed rows' FNV state to the open rows';
    /// the lake appends only at or after its newest timestamp, which the
    /// frontier's start never passes, the open rows' point is taken only
    /// while no record has landed before its end, and any other change
    /// renews the stamp.
    ///
    /// The mark also keeps the adaptive oracle's table after its sweeps of
    /// the lake, cut at the lake's length, and the FNV-1a state of the
    /// adaptive log's closed rows. The next reconcile folds only the lake
    /// after the cut onto that table and compares each pair's rows after
    /// the closed ones it proved, and every open row. A pair that changed
    /// class since (its closed rows were chunked under the old one), a
    /// renewed stamp, another configuration or closed rows that no longer
    /// hash to the mark's state send the adaptive log to a full proof.
    ///
    /// A mark that fails any of these checks, a restored session
    /// (checkpoints carry no mark) and a diverging resumed proof all get a
    /// full proof, so every verdict, audit, diff and hash is a full
    /// proof's. The phase and the audit record `proved_from`, the first
    /// window start the time oracle walked (0 for a full proof), and
    /// `walked_records`; `adaptive_from`, the lake position the adaptive
    /// oracle resumed from (0 for a full proof), and `adaptive_walked`;
    /// `lake_records` counts the whole lake.
    ///
    /// The proof is one streaming pass: each oracle's recomputed rows are
    /// compared with the incremental rows as they come, and the proven
    /// state's hash is [`StreamState::fingerprint`], so success builds no
    /// batch log and no encoding. Only a divergence rebuilds the batch
    /// log, for its audited hashes and diff. The two logs share no state,
    /// so their proofs run side by side ([`smn_obs::Obs::fork`]) under
    /// the one lake read guard. On a scoped thread, the
    /// `reconcile/time-oracle` child phase is the time oracle's walk, its
    /// comparison and the check of the rows a mark skipped. On the caller,
    /// `reconcile/adaptive-oracle` is the adaptive oracle's sweeps and
    /// comparison, the `reconcile/compare` lap the CDG rebuild and
    /// comparison, and the `reconcile/fingerprint` lap hashes everything
    /// after the uniform log's mark point, continuing from its FNV state.
    /// When the time oracle then refuses that point, the fingerprint is
    /// taken again from the first row. The CDG's canonical bytes are built
    /// once, before the fork. Divergences are reported in the order
    /// uniform log, adaptive log, CDG.
    ///
    /// # Errors
    /// [`StreamError::Divergence`] naming the first diverging artifact,
    /// and [`StreamError::Config`] when the configuration has a zero
    /// window or no statistic.
    // smn-lint: allow(deep/determinism-taint) -- phase-guard wall readings stay in the profile registry
    pub fn stream_reconcile(
        &mut self,
        state: &mut StreamState,
    ) -> Result<ReconcileOutcome, StreamError> {
        state.config.admit()?;
        let obs = self.obs().clone();
        let mut phase = obs.phase("stream/reconcile");
        let tick = state.next_tick.saturating_sub(1);

        let diverged = |artifact: &str, (incremental_hash, batch_hash, detail): Divergence| {
            obs.audit(
                "stream",
                "reconcile-divergence",
                &[
                    ("artifact", artifact.to_string()),
                    ("tick", tick.to_string()),
                    ("incremental_hash", incremental_hash),
                    ("batch_hash", batch_hash),
                    ("diff", detail.clone()),
                ],
            );
            obs.inc("stream_divergence_total");
            StreamError::Divergence { artifact: artifact.to_string(), tick, detail }
        };

        // The batch oracles walk the lake's borrowed slices; the read
        // guard drops before the controller adopts the CDG below. The
        // adaptive table moves out of the mark: a failed proof leaves none.
        let adaptive_mark = state.mark.adaptive.take();
        let (proof, hash, mark) = {
            let lake = self.clds().bandwidth.read();
            let full = lake.all();
            let time = state.config.time_coarsener();
            let adaptive = &state.config.adaptive;
            let proven: &StreamState = state;
            // A usable mark spares the time oracle the windows it proved.
            let from = proven.mark.usable(&lake, &proven.time, &time);
            let point = from.map(|(_, p)| p);
            let since = point.map_or(full, |p| lake.since(p.start));
            let inc_cdg = proven.cdg.canonical_bytes();
            // The two proofs share no state: run them side by side.
            let ((time_ok, used), rest) = obs.fork(
                ("reconcile/time-oracle", |_| {
                    let walked =
                        proven.time.matches_batch(&time, since, point.map_or(0, |p| p.rows));
                    let Some((sealed, point)) = from else { return (walked, None) };
                    let used = (walked && proven.time.hashes_to(&sealed, &point)).then_some(point);
                    (used.is_some() || proven.time.matches_batch(&time, full, 0), used)
                }),
                ("reconcile/adaptive-oracle", |laps| {
                    let from = point.unwrap_or(ProofPoint::ORIGIN);
                    proven.prove_rest(laps, adaptive_mark, &lake, adaptive, from, &inc_cdg)
                }),
            );
            // Only a divergence rebuilds the batch log, for the audit; the
            // uniform log is reported first.
            if !time_ok {
                let batch = time.coarsen_records(full);
                let found = coarse_divergence(&state.time.coarse_log(), &batch);
                return Err(diverged("coarse-bwlog", found));
            }
            let (fingerprint, adaptive_from, adaptive_mark) =
                rest.map_err(|(artifact, found)| diverged(artifact, found))?;
            // A fingerprint continued from a point the time oracle refused
            // is taken again from the first row.
            let (hash, at) =
                if used == point { fingerprint } else { state.full_fingerprint(&inc_cdg) };
            let proof = Proof {
                lake_records: full.len(),
                proved_from: used.map_or(0, |p| p.start.0),
                walked_records: if used.is_some() { since.len() } else { full.len() },
                adaptive_from,
                adaptive_walked: full.len() - adaptive_from,
            };
            let uniform = state.time.proof_mark(&lake, at);
            (proof, hash, ProofMark { uniform, adaptive: Some(adaptive_mark) })
        };
        state.mark = mark;

        // The incremental CDG is now proven equal to the batch rebuild:
        // the controller adopts it as its working coarse artifact.
        self.cdg = state.cdg.clone();
        let Proof { lake_records, proved_from, walked_records, adaptive_from, adaptive_walked } =
            proof;
        obs.audit(
            "stream",
            "reconcile",
            &[
                ("tick", tick.to_string()),
                ("hash", hash.clone()),
                ("lake_records", lake_records.to_string()),
                ("proved_from", proved_from.to_string()),
                ("walked_records", walked_records.to_string()),
                ("adaptive_from", adaptive_from.to_string()),
                ("adaptive_walked", adaptive_walked.to_string()),
                ("time_rows", state.time.rows().to_string()),
                ("adaptive_rows", state.adaptive.rows().to_string()),
                ("teams", state.cdg.len().to_string()),
            ],
        );
        obs.inc("stream_reconcile_total");
        phase.field("lake_records", lake_records);
        phase.field("proved_from", proved_from);
        phase.field("walked_records", walked_records);
        phase.field("adaptive_from", adaptive_from);
        phase.field("adaptive_walked", adaptive_walked);
        phase.field("time_rows", state.time.rows());
        let outcome = ReconcileOutcome {
            tick,
            hash,
            time_rows: state.time.rows(),
            adaptive_rows: state.adaptive.rows(),
            teams: state.cdg.len(),
            team_edges: state.cdg.graph.edge_count(),
            lake_records,
        };
        state.last_reconcile = Some(outcome.clone());
        Ok(outcome)
    }
}

// ---- delta journal -----------------------------------------------------

/// One tick's entry in a [`DeltaJournal`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalTick {
    /// Tick index (strictly increasing across the journal).
    pub tick: u64,
    /// Records the tick ingested.
    pub records: usize,
    /// Pairs the tick touched; every node index must be below the
    /// journal's `node_count`.
    pub pairs: Vec<(u32, u32)>,
    /// Component names the tick added to the fine graph.
    pub added_components: Vec<String>,
    /// Dependency endpoints the tick added; each must name a component
    /// known by this tick (initial set plus prior/current additions).
    pub added_dependencies: Vec<(String, String)>,
    /// Dirty coarse cells the tick recomputed.
    pub dirty_cells: usize,
    /// Total coarse rows after the tick.
    pub total_rows: usize,
    /// Whether periodic reconciliation ran on this tick.
    pub reconciled: bool,
    /// The verified fingerprint — required whenever `reconciled` is true.
    pub reconcile_hash: Option<String>,
}

/// The audited record of a streaming session: what each tick changed and
/// which reconciliations proved byte-identity, serialized as the
/// `delta-journal` artifact kind that `smn lint` checks (monotone tick
/// order, no dangling pair/component references, reconciliation hashes
/// present).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaJournal {
    /// Artifact kind tag: always [`DELTA_JOURNAL_KIND`].
    pub kind: String,
    /// Schema version: always [`DELTA_JOURNAL_SCHEMA`].
    pub schema: u64,
    /// Topology scale the session ran at (informational).
    pub scale: String,
    /// Master seed of the session.
    pub seed: u64,
    /// WAN node count; pair references must stay below it.
    pub node_count: u64,
    /// Fine-graph component names present before the first tick.
    pub components: Vec<String>,
    /// The session's periodic reconciliation cadence (0 = none).
    pub reconcile_every: u64,
    /// Per-tick entries in application order.
    pub ticks: Vec<JournalTick>,
}

impl DeltaJournal {
    /// An empty journal for a session at `scale` with `seed`.
    #[must_use]
    pub fn new(
        scale: &str,
        seed: u64,
        node_count: u64,
        components: Vec<String>,
        reconcile_every: u64,
    ) -> Self {
        DeltaJournal {
            kind: DELTA_JOURNAL_KIND.to_string(),
            schema: DELTA_JOURNAL_SCHEMA,
            scale: scale.to_string(),
            seed,
            node_count,
            components,
            reconcile_every,
            ticks: Vec::new(),
        }
    }

    /// Append one tick's outcome.
    pub fn push_outcome(&mut self, o: &TickOutcome) {
        self.ticks.push(JournalTick {
            tick: o.tick,
            records: o.ingested,
            pairs: o.pairs.clone(),
            added_components: o.added_components.clone(),
            added_dependencies: o.added_dependencies.clone(),
            dirty_cells: o.time.dirty_cells,
            total_rows: o.time.total_rows,
            reconciled: o.reconcile.is_some(),
            reconcile_hash: o.reconcile.as_ref().map(|r| r.hash.clone()),
        });
    }

    /// Pretty-printed JSON (no trailing newline).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        // The schema contains only serializable primitives; failing here
        // would be a vendored-serde bug.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// The journal replays as recorded: the supported schema, strictly
    /// increasing ticks, pairs inside the declared node count, dependency
    /// endpoints known by their tick (initial components plus prior or
    /// same-tick additions), and a 16-hex-digit hash on every reconciled
    /// tick.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        if self.schema != DELTA_JOURNAL_SCHEMA {
            out.push(Violation::new(
                "artifact/journal-schema",
                path!["schema"],
                format!(
                    "schema version {} is not the supported version {DELTA_JOURNAL_SCHEMA}",
                    self.schema
                ),
                "re-record the journal with the current streaming loop; the schema \
                 version only moves when emitter and checker move together",
            ));
        }
        let mut known: BTreeSet<&str> = self.components.iter().map(String::as_str).collect();
        let mut prev_tick: Option<u64> = None;
        for (i, t) in self.ticks.iter().enumerate() {
            if let Some(prev) = prev_tick.filter(|&p| t.tick <= p) {
                out.push(Violation::new(
                    "artifact/journal-tick-order",
                    path!["ticks", i, "tick"],
                    format!("tick {} does not advance past the preceding tick {prev}", t.tick),
                    "deltas apply in strictly increasing tick order; a replayed or \
                     reordered journal would diverge from the stream it records",
                ));
            }
            prev_tick = Some(t.tick);
            for (j, &(src, dst)) in t.pairs.iter().enumerate() {
                if let Some(node) =
                    [src, dst].into_iter().find(|&n| u64::from(n) >= self.node_count)
                {
                    out.push(Violation::new(
                        "artifact/journal-dangling-pair",
                        path!["ticks", i, "pairs", j],
                        format!(
                            "pair references node {node} beyond the declared node_count {}",
                            self.node_count
                        ),
                        "telemetry pairs index WAN datacenters; an out-of-range \
                         index means the journal and topology disagree",
                    ));
                }
            }
            // Same-tick additions are visible to this tick's dependencies
            // (components apply before dependencies in `GraphDelta`).
            known.extend(t.added_components.iter().map(String::as_str));
            for (j, (src, dst)) in t.added_dependencies.iter().enumerate() {
                if let Some(end) = [src, dst].into_iter().find(|e| !known.contains(e.as_str())) {
                    out.push(Violation::new(
                        "artifact/journal-dangling-component",
                        path!["ticks", i, "added_dependencies", j],
                        format!("dependency endpoint `{end}` names an unknown component"),
                        "endpoints must be in the initial component set or added by \
                         a prior or same-tick delta",
                    ));
                }
            }
            let hash = t.reconcile_hash.as_deref();
            if t.reconciled
                && !hash.is_some_and(|h| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()))
            {
                out.push(Violation::new(
                    "artifact/journal-missing-hash",
                    path!["ticks", i, "reconcile_hash"],
                    match hash {
                        None => format!("tick {} reconciled without a reconciliation hash", t.tick),
                        Some(h) => {
                            format!("tick {} carries a malformed reconciliation hash `{h}`", t.tick)
                        }
                    },
                    "every reconciled tick records the 16-hex-digit fingerprint that \
                     proved incremental/batch byte-identity",
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::Coarsening;
    use crate::controller::{ControllerConfig, SmnController};
    use smn_depgraph::fine::{Component, DependencyKind, Layer};
    use smn_obs::audit::AuditRecord;
    use smn_telemetry::time::EPOCH_SECS;

    /// A deterministic multi-pair log: `epochs` epochs over `pairs`, with
    /// one wildly-alternating pair so the adaptive coarsener has both
    /// classes to maintain.
    fn mixed_log(epochs: u32) -> Vec<BandwidthRecord> {
        let mut log = Vec::new();
        for e in 0..epochs {
            let ts = Ts(u64::from(e) * EPOCH_SECS);
            log.push(BandwidthRecord { ts, src: 0, dst: 1, gbps: 100.0 });
            log.push(BandwidthRecord {
                ts,
                src: 0,
                dst: 2,
                gbps: if e % 2 == 0 { 10.0 } else { 500.0 },
            });
            log.push(BandwidthRecord { ts, src: 3, dst: 1, gbps: 40.0 + f64::from(e % 7) });
        }
        log
    }

    fn comp(name: &str, team: &str) -> Component {
        Component {
            name: name.into(),
            service: name.into(),
            team: team.into(),
            layer: Layer::Application,
        }
    }

    fn small_fine() -> FineDepGraph {
        let mut g = FineDepGraph::new();
        let a = g.add_component(comp("web-1", "app"));
        let b = g.add_component(comp("db-1", "storage"));
        g.add_dependency(a, b, DependencyKind::Call);
        g
    }

    #[test]
    fn incremental_time_coarsening_is_byte_identical_to_batch() {
        let log = mixed_log(48);
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::P95]);
        let mut state = c.new_state();
        for d in TelemetryDelta::split_epochs(&log, 0) {
            let applied = c.apply_delta(&mut state, &d).unwrap();
            assert!(applied.dirty_cells <= 3, "a tick touches at most the 3 live pairs");
        }
        assert_eq!(state.encode(), encode_coarse_log(&c.coarsen(&log)));
        assert_eq!(state.coarse_log(), c.coarsen(&log));
    }

    #[test]
    fn incremental_adaptive_coarsening_tracks_class_flips() {
        let log = mixed_log(96);
        let c = AdaptiveCoarsener {
            cv_threshold: 0.3,
            stable_window: DAY,
            volatile_window: HOUR,
            stats: vec![Statistic::Mean],
        };
        let mut state = c.new_state();
        for d in TelemetryDelta::split_epochs(&log, 0) {
            c.apply_delta(&mut state, &d).unwrap();
            // Mid-stream the incremental state matches a batch pass over
            // the records seen so far — the class flip of pair (0,2) from
            // stable (one sample) to volatile happens on both sides.
            let seen: Vec<BandwidthRecord> =
                log.iter().filter(|r| r.ts <= d.records[0].ts).copied().collect();
            assert_eq!(state.encode(), encode_coarse_log(&c.coarsen(&seen)));
        }
        assert_eq!(state.volatile_pairs(), c.volatile_pairs(&log));
        assert_eq!(state.rows(), c.coarsen(&log).len());
    }

    #[test]
    fn adaptive_pair_flips_stable_volatile_stable_across_day_windows() {
        // Pair (0,1), one sample an hour for four days: flat on day 0,
        // swinging 50/150 on day 1 (CV ≈ 0.35 over both days), flat again
        // on days 2–3, which pulls the CV back under 0.3. Pair (2,3) stays
        // flat throughout.
        let mut log = Vec::new();
        for h in 0..4 * 24u32 {
            let ts = Ts(u64::from(h) * HOUR);
            let swing = if h % 2 == 0 { 50.0 } else { 150.0 };
            let gbps = if (24..48).contains(&h) { swing } else { 100.0 };
            log.push(BandwidthRecord { ts, src: 0, dst: 1, gbps });
            log.push(BandwidthRecord { ts, src: 2, dst: 3, gbps: 100.0 });
        }
        let c = AdaptiveCoarsener {
            cv_threshold: 0.3,
            stable_window: DAY,
            volatile_window: HOUR,
            stats: vec![Statistic::Mean, Statistic::P95],
        };
        let mut state = c.new_state();
        let mut classes = vec![false];
        // Five-hour deltas, so each one crosses hour (and some day)
        // boundaries.
        for (tick, chunk) in log.chunks(10).enumerate() {
            let d = TelemetryDelta::new(tick as u64, chunk.to_vec());
            c.apply_delta(&mut state, &d).unwrap();
            let seen = &log[..log.len().min((tick + 1) * 10)];
            assert_eq!(
                state.encode(),
                encode_coarse_log(&c.coarsen(&seen.to_vec())),
                "tick {tick}"
            );
            let volatile = state.volatile_pairs().contains(&(0, 1));
            if classes.last() != Some(&volatile) {
                classes.push(volatile);
            }
        }
        assert_eq!(classes, vec![false, true, false], "stable → volatile → stable");
        assert!(state.volatile_pairs().is_empty());
        assert_eq!(state.rows(), 8, "both pairs back to four day windows");
    }

    #[test]
    fn state_mismatch_is_rejected() {
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean]);
        let other = TimeCoarsener::new(2 * HOUR, vec![Statistic::Mean]);
        let mut state = c.new_state();
        let d = TelemetryDelta::new(0, Vec::new());
        let err = other.apply_delta(&mut state, &d).unwrap_err();
        assert!(matches!(err, StreamError::StateMismatch { .. }), "got {err}");
        let ac = StreamConfig::default().adaptive;
        let mut astate = ac.new_state();
        let worse = AdaptiveCoarsener { cv_threshold: 0.9, ..ac.clone() };
        let err = worse.apply_delta(&mut astate, &d).unwrap_err();
        assert!(matches!(err, StreamError::StateMismatch { .. }), "got {err}");
    }

    fn controller() -> SmnController {
        let mut ctl = SmnController::new(CoarseDepGraph::new(), ControllerConfig::default());
        ctl.set_obs(smn_obs::Obs::enabled(smn_obs::clock::SimClock::new()));
        ctl
    }

    #[test]
    fn streaming_loop_reconciles_with_churn() {
        let mut ctl = controller();
        let cfg = StreamConfig { reconcile_every: 2, ..StreamConfig::default() };
        let mut state = StreamState::new(cfg, small_fine());
        let deltas = TelemetryDelta::split_epochs(&mixed_log(8), 0);
        let mut churn = GraphDelta::new(1);
        churn.push_component(comp("cache-1", "platform"));
        churn.push_dependency("web-1", "cache-1", DependencyKind::Call);
        let outcomes = ctl.stream_run(&mut state, &deltas, &[churn]).unwrap();
        assert_eq!(outcomes.len(), 8);
        assert_eq!(outcomes[1].cdg.new_teams, 1);
        // Every second tick reconciled; the rest did not.
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.reconcile.is_some(), i % 2 == 1, "tick {i}");
        }
        let last = outcomes[7].reconcile.as_ref().unwrap();
        assert_eq!(last.lake_records, 24);
        assert_eq!(last.hash, state.fingerprint());
        // The controller adopted the verified CDG.
        assert_eq!(ctl.cdg.canonical_bytes(), state.cdg.canonical_bytes());
        assert_eq!(ctl.obs().counter("stream_reconcile_total"), 4);
    }

    /// The reconcile's two proofs run through `Obs::fork`, yet two
    /// identical sessions export byte-identical traces, and every
    /// reconcile's children are the time oracle's span, then the adaptive
    /// oracle's and its compare and fingerprint laps, as when they ran in
    /// turn, whether the proof is full or from a mark.
    #[test]
    fn forked_reconciles_leave_byte_identical_traces() {
        let session = || {
            let mut ctl = controller();
            let cfg = StreamConfig { reconcile_every: 2, ..StreamConfig::default() };
            let mut state = StreamState::new(cfg, small_fine());
            let deltas = TelemetryDelta::split_epochs(&mixed_log(8), 0);
            ctl.stream_run(&mut state, &deltas, &[]).unwrap();
            ctl.obs().trace_jsonl()
        };
        let trace = session();
        assert_eq!(trace, session());
        let events: Vec<smn_obs::TraceEvent> =
            trace.lines().map(|l| smn_obs::TraceEvent::from_json_line(l).unwrap()).collect();
        let entered = |parent: Option<u64>| {
            events
                .iter()
                .filter(move |e| {
                    e.kind == smn_obs::EventKind::Enter && parent.is_none_or(|p| e.parent == p)
                })
                .map(|e| (e.span, e.name.as_str()))
        };
        let reconciles: Vec<u64> =
            entered(None).filter(|&(_, name)| name == "stream/reconcile").map(|(s, _)| s).collect();
        assert_eq!(reconciles.len(), 4);
        let (time, fingerprint, adaptive, compare) = (
            "reconcile/time-oracle",
            "reconcile/fingerprint",
            "reconcile/adaptive-oracle",
            "reconcile/compare",
        );
        for span in reconciles {
            let children: Vec<&str> = entered(Some(span)).map(|(_, name)| name).collect();
            assert_eq!(children, [time, adaptive, compare, fingerprint]);
        }
    }

    /// A stream tick forks its two applies through `Obs::fork`, yet two
    /// identical sessions of one-epoch ticks across three hours and a
    /// delta spanning windows export byte-identical traces, and every
    /// `coarsen/apply_delta` span's children are `coarsen/time`, then
    /// `coarsen/adaptive`, as when the applies ran in turn.
    #[test]
    fn forked_ticks_leave_byte_identical_traces() {
        let session = || {
            let mut ctl = controller();
            let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
            let mut state = StreamState::new(cfg, small_fine());
            let log = mixed_log(54);
            let mut deltas = TelemetryDelta::split_epochs(&log[..36 * 3], 0);
            deltas.push(TelemetryDelta::new(36, log[36 * 3..].to_vec()));
            let outcomes = ctl.stream_run(&mut state, &deltas, &[]).unwrap();
            assert_eq!(outcomes.len(), 37);
            let batch = StreamConfig::default().time_coarsener().coarsen(&log);
            assert_eq!(state.time.encode(), encode_coarse_log(&batch));
            assert_eq!(state.time.frontier, 4, "the last delta sealed hours 2 and 3");
            ctl.obs().trace_jsonl()
        };
        let trace = session();
        assert_eq!(trace, session());
        let events: Vec<smn_obs::TraceEvent> =
            trace.lines().map(|l| smn_obs::TraceEvent::from_json_line(l).unwrap()).collect();
        let entered = |parent: Option<u64>| {
            events
                .iter()
                .filter(move |e| {
                    e.kind == smn_obs::EventKind::Enter && parent.is_none_or(|p| e.parent == p)
                })
                .map(|e| (e.span, e.name.as_str()))
        };
        let applies: Vec<u64> = entered(None)
            .filter(|&(_, name)| name == "coarsen/apply_delta")
            .map(|(s, _)| s)
            .collect();
        assert_eq!(applies.len(), 37);
        for span in applies {
            let children: Vec<&str> = entered(Some(span)).map(|(_, name)| name).collect();
            assert_eq!(children, ["coarsen/time", "coarsen/adaptive"]);
        }
    }

    #[test]
    fn out_of_order_deltas_are_hard_errors() {
        let mut ctl = controller();
        let mut state = StreamState::new(StreamConfig::default(), small_fine());
        let d = TelemetryDelta::new(3, Vec::new());
        let err = ctl.stream_tick(&mut state, &d, None).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { .. }), "got {err}");
        // A time-regressing record inside an otherwise-ordered tick.
        let d0 = TelemetryDelta::new(
            0,
            vec![
                BandwidthRecord { ts: Ts(600), src: 0, dst: 1, gbps: 1.0 },
                BandwidthRecord { ts: Ts(0), src: 0, dst: 1, gbps: 1.0 },
            ],
        );
        let err = ctl.stream_tick(&mut state, &d0, None).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { .. }), "got {err}");
        // Mismatched graph tick.
        let g = GraphDelta::new(9);
        let d0 = TelemetryDelta::new(0, Vec::new());
        let err = ctl.stream_tick(&mut state, &d0, Some(&g)).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { .. }), "got {err}");
    }

    #[test]
    fn divergence_is_a_hard_error_with_an_audited_diff() {
        let mut ctl = controller();
        let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
        let mut state = StreamState::new(cfg, small_fine());
        let deltas = TelemetryDelta::split_epochs(&mixed_log(4), 0);
        ctl.stream_run(&mut state, &deltas, &[]).unwrap();
        ctl.stream_reconcile(&mut state).unwrap();
        // Corrupt one incremental cell's statistic behind the coarsener's
        // back: row 0 is the first open cell.
        assert_eq!(state.time.sealed.len(), 0);
        state.time.open.values[0] += 1.0;
        let err = ctl.stream_reconcile(&mut state).unwrap_err();
        match &err {
            StreamError::Divergence { artifact, detail, .. } => {
                assert_eq!(artifact, "coarse-bwlog");
                assert!(detail.contains("row 0"), "diff names the row: {detail}");
            }
            other => panic!("expected divergence, got {other}"),
        }
        let audit = ctl.obs().audit_jsonl();
        assert!(audit.contains("reconcile-divergence"), "divergence is audited");
        assert_eq!(ctl.obs().counter("stream_divergence_total"), 1);
    }

    #[test]
    fn a_nan_statistic_does_not_hide_the_diverging_row() {
        let mut ctl = controller();
        let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
        let mut state = StreamState::new(cfg, small_fine());
        let mut log = mixed_log(4);
        log[0].gbps = f64::NAN;
        let deltas = TelemetryDelta::split_epochs(&log, 0);
        ctl.stream_run(&mut state, &deltas, &[]).unwrap();
        ctl.stream_reconcile(&mut state).unwrap();
        // Row 0 carries NaN statistics on both sides; the last row is the
        // corrupted one.
        assert!(state.time.coarse_log()[0].values[0].is_nan());
        let last = state.time.rows() - 1;
        let last_cell = state.time.open.values.len() - state.time.stats.len();
        state.time.open.values[last_cell] += 1.0;
        match ctl.stream_reconcile(&mut state).unwrap_err() {
            StreamError::Divergence { artifact, detail, .. } => {
                assert_eq!(artifact, "coarse-bwlog");
                assert!(
                    detail.starts_with(&format!("row {last}:")),
                    "diff names row {last}: {detail}"
                );
            }
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn checkpoint_restore_mid_stream_is_byte_identical() {
        let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
        let deltas = TelemetryDelta::split_epochs(&mixed_log(12), 0);
        // The uninterrupted run.
        let mut ctl = controller();
        let mut state = StreamState::new(cfg.clone(), small_fine());
        ctl.stream_run(&mut state, &deltas, &[]).unwrap();
        // A second session checkpoints after 6 ticks, restores from the
        // serialized snapshot, and streams the remainder.
        let mut ctl2 = controller();
        let mut live = StreamState::new(cfg, small_fine());
        ctl2.stream_run(&mut live, &deltas[..6], &[]).unwrap();
        let snapshot = serde_json::to_string(&live).unwrap();
        drop(live);
        let mut restored = StreamState::restore(&snapshot).unwrap();
        ctl2.stream_run(&mut restored, &deltas[6..], &[]).unwrap();
        let outcome = ctl2.stream_reconcile(&mut restored).unwrap();
        assert_eq!(outcome.tick, 11);
        assert_eq!(restored.fingerprint(), outcome.hash);
        assert_eq!(state.fingerprint(), restored.fingerprint());
    }

    #[test]
    fn restore_refuses_a_checkpoint_with_a_dangling_edge() {
        let mut ctl = controller();
        let mut live = StreamState::new(StreamConfig::default(), small_fine());
        let deltas = TelemetryDelta::split_epochs(&mixed_log(2), 0);
        ctl.stream_run(&mut live, &deltas, &[]).unwrap();
        // Point the fine graph's only edge (web-1 -> db-1) at a node that
        // does not exist.
        let snapshot = serde_json::to_string(&live).unwrap();
        let edge = r#"{"src":0,"dst":1,"payload":"Call"}"#;
        assert!(snapshot.contains(edge), "{snapshot}");
        let snapshot = snapshot.replace(edge, r#"{"src":0,"dst":999,"payload":"Call"}"#);
        match StreamState::restore(&snapshot) {
            Err(StreamError::Checkpoint(violation)) => {
                assert_eq!(violation.rule, "artifact/dangling-edge");
                assert!(violation.to_string().contains("$.fine.graph.edges[0].dst"), "{violation}");
            }
            Err(other) => panic!("expected a checkpoint error, got {other}"),
            Ok(_) => panic!("a dangling edge must not restore"),
        }
    }

    #[test]
    fn a_record_in_a_sealed_window_is_out_of_order_and_changes_nothing() {
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::P95]);
        let mut state = c.new_state();
        // Two hours of epochs: hour 0 is sealed once hour 1 arrives.
        let log = mixed_log(24);
        c.apply_delta(&mut state, &TelemetryDelta::new(0, log.clone())).unwrap();
        assert_eq!(state.frontier, 1);
        let before = state.clone();
        let late = BandwidthRecord { ts: Ts(HOUR - EPOCH_SECS), src: 0, dst: 1, gbps: 1.0 };
        let open = BandwidthRecord { ts: Ts(2 * HOUR), src: 0, dst: 1, gbps: 1.0 };
        let err = c.apply_delta(&mut state, &TelemetryDelta::new(1, vec![open, late])).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { .. }), "got {err}");
        assert_eq!(state, before, "a refused delta leaves the state untouched");
        // A delta that is not time-ordered is scanned whole: a late record
        // mid-way is refused too, though the first record is admissible.
        let later = BandwidthRecord { ts: Ts(2 * HOUR + EPOCH_SECS), ..open };
        let unordered = TelemetryDelta::new(1, vec![later, late, open]);
        let err = c.apply_delta(&mut state, &unordered).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { .. }), "got {err}");
        assert_eq!(state, before, "a refused delta leaves the state untouched");
        assert_eq!(format!("{state:?}"), format!("{before:?}"));
        // A stream tick has seen its delta ascend, so its first record is
        // the one checked.
        assert!(state.admit(&TelemetryDelta::new(1, vec![late, open]), true).is_err());
        assert!(state.admit(&TelemetryDelta::new(1, vec![open, later]), true).is_ok());
        assert_eq!(state.encode(), encode_coarse_log(&c.coarsen(&log)));
    }

    #[test]
    fn an_adaptive_sample_behind_its_pair_is_out_of_order_and_changes_nothing() {
        let c = StreamConfig::default().adaptive;
        let mut state = c.new_state();
        let log = mixed_log(24);
        c.apply_delta(&mut state, &TelemetryDelta::new(0, log.clone())).unwrap();
        let before = state.clone();
        let at = |ts: u64, src: u32, dst: u32| BandwidthRecord { ts: Ts(ts), src, dst, gbps: 1.0 };
        let last = log.iter().map(|r| r.ts.0).max().unwrap();
        // Behind the pair's history, behind the pair's earlier sample in
        // the same delta, and behind it in a delta that is not
        // time-ordered as a whole.
        for records in [
            vec![at(last + EPOCH_SECS, 0, 2), at(last - EPOCH_SECS, 0, 1)],
            vec![at(last + 2 * EPOCH_SECS, 0, 1), at(last + EPOCH_SECS, 0, 1)],
            vec![at(last + 2 * EPOCH_SECS, 0, 1), at(last + EPOCH_SECS, 0, 2), at(0, 0, 1)],
        ] {
            let err = c.apply_delta(&mut state, &TelemetryDelta::new(1, records)).unwrap_err();
            assert!(matches!(err, StreamError::OutOfOrder { .. }), "got {err}");
            assert_eq!(state, before, "a refused delta leaves the state untouched");
            assert_eq!(state.history.0.len(), 1, "and pushes no block");
        }
        // A new pair may start anywhere, and a pair may trail another
        // pair's latest sample as long as it follows its own history: its
        // sample sits in a block after samples far later than it.
        let mut ahead = state.clone();
        c.apply_delta(&mut ahead, &TelemetryDelta::new(1, vec![at(last + HOUR, 0, 2)])).unwrap();
        let trailing = vec![at(last, 0, 1), at(3, 7, 8), at(last, 0, 1)];
        c.apply_delta(&mut ahead, &TelemetryDelta::new(2, trailing)).unwrap();
        assert!(ahead.violations().is_empty(), "{:?}", ahead.violations());
        assert_eq!(ahead.latest, last + HOUR);
        assert_eq!(ahead.history.0.len(), 3, "one block per admitted delta");
        assert_eq!(ahead.history.0[2].runs.keys, [(0, 1), (7, 8)]);
        assert_eq!(ahead.history.0[2].items, [last, last, 3]);
        let late = ahead.keys.binary_search(&(7, 8)).unwrap();
        assert_eq!(ahead.pairs[late].newest(), Some(3));
        // A wrong latest timestamp, or a pair's wrong last timestamp, is a
        // violation, as a checkpoint would carry it.
        let mut bad = ahead.clone();
        bad.latest -= 1;
        let found: Vec<String> = bad.violations().iter().map(ToString::to_string).collect();
        assert!(found.iter().any(|v| v.starts_with("artifact/coarse-log-samples")), "{found:?}");
        let mut bad = ahead.clone();
        bad.pairs[late].last += 1;
        let found: Vec<String> = bad.violations().iter().map(ToString::to_string).collect();
        let at = format!("[$.pairs[{late}].last]");
        assert!(found.iter().any(|v| v.contains(&at)), "{found:?}");
    }

    proptest::proptest! {
        /// The adaptive apply admits a delta exactly when no sample falls
        /// behind its pair's last sample, held or earlier in the delta;
        /// a refused delta leaves the log as it was, and an admitted one
        /// leaves a log with no violation. The log holds a time-ordered
        /// prefix of a generated log; the delta is the rest, time-ordered,
        /// lake-shaped or shuffled, with a few records moved back.
        #[test]
        fn adaptive_admission_matches_per_pair_order(
            log in crate::bwlogs::tests::fold_log(),
            split in 0usize..400,
            back in proptest::collection::vec((0usize..400, 0u64..40), 0..3),
        ) {
            let c = StreamConfig::default().adaptive;
            let mut by_time: Vec<usize> = (0..log.len()).collect();
            by_time.sort_by_key(|&i| log[i].ts);
            let (early, late) = by_time.split_at(split.min(log.len()));
            let held: Vec<BandwidthRecord> = early.iter().map(|&i| log[i]).collect();
            let mut in_delta = vec![false; log.len()];
            for &i in late {
                in_delta[i] = true;
            }
            let mut delta: Vec<BandwidthRecord> =
                log.iter().zip(&in_delta).filter(|(_, &d)| d).map(|(r, _)| *r).collect();
            for (at, epochs) in back {
                let n = delta.len().max(1);
                if let Some(r) = delta.get_mut(at % n) {
                    r.ts.0 = r.ts.0.saturating_sub(epochs * EPOCH_SECS);
                }
            }
            let mut state = c.new_state();
            c.apply_delta(&mut state, &TelemetryDelta::new(0, held.clone())).unwrap();
            let mut last = std::collections::HashMap::new();
            for r in &held {
                last.insert((r.src, r.dst), r.ts.0);
            }
            let ordered = delta.iter().all(|r| {
                let prev = last.insert((r.src, r.dst), r.ts.0);
                prev.is_none_or(|p| r.ts.0 >= p)
            });
            let before = state.clone();
            let result = c.apply_delta(&mut state, &TelemetryDelta::new(1, delta));
            proptest::prop_assert_eq!(result.is_ok(), ordered, "{:?}", result);
            if ordered {
                proptest::prop_assert!(state.violations().is_empty(), "{:?}", state.violations());
            } else {
                proptest::prop_assert!(matches!(result, Err(StreamError::OutOfOrder { .. })));
                // Debug forms, as NaN samples are unequal under `==`.
                proptest::prop_assert!(format!("{state:?}") == format!("{before:?}"));
            }
        }
    }

    #[test]
    fn gallop_and_splice_match_their_definitions() {
        let keys: Vec<u32> = (0..40).map(|k| k * 3).collect();
        for from in 0..=keys.len() {
            for key in 0..125 {
                let rest = keys.get(from..).unwrap_or_default();
                assert_eq!(gallop(&keys, from, &key), from + rest.partition_point(|&k| k < key));
            }
        }
        let mut table = vec![10, 20, 30];
        splice_sorted(&mut table, vec![(0, 5), (2, 25), (2, 26), (3, 35)]);
        assert_eq!(table, vec![5, 10, 20, 25, 26, 30, 35]);
        splice_sorted(&mut table, vec![(7, 40), (7, 41)]);
        assert_eq!(table, vec![5, 10, 20, 25, 26, 30, 35, 40, 41]);
    }

    #[test]
    fn an_empty_delta_is_a_no_op() {
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean]);
        let ac = StreamConfig::default().adaptive;
        let (mut time, mut adaptive) = (c.new_state(), ac.new_state());
        let log = mixed_log(30);
        c.apply_delta(&mut time, &TelemetryDelta::new(0, log.clone())).unwrap();
        ac.apply_delta(&mut adaptive, &TelemetryDelta::new(0, log)).unwrap();
        let (time_before, adaptive_before) = (time.clone(), adaptive.clone());
        let empty = TelemetryDelta::new(1, Vec::new());
        let t = c.apply_delta(&mut time, &empty).unwrap();
        let a = ac.apply_delta(&mut adaptive, &empty).unwrap();
        assert_eq!((t.appended, t.dirty_cells, t.recomputed_rows), (0, 0, 0));
        assert_eq!((a.appended, a.dirty_cells, a.recomputed_rows), (0, 0, 0));
        assert_eq!((t.total_rows, a.total_rows), (time.rows(), adaptive.rows()));
        assert_eq!(time, time_before);
        assert_eq!(adaptive, adaptive_before);
    }

    #[test]
    fn a_bulk_load_keeps_samples_only_for_the_open_window() {
        // Six hours of history in one delta, as a streaming set-up loads it.
        let log = mixed_log(72);
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::P95]);
        let mut state = c.new_state();
        let applied = c.apply_delta(&mut state, &TelemetryDelta::new(0, log.clone())).unwrap();
        assert_eq!(applied.dirty_cells, 6 * 3);
        assert_eq!(state.frontier, 5, "hours 0-4 are sealed");
        assert_eq!(state.sealed.len(), 5 * 3);
        let open = log.iter().filter(|r| r.ts.0 / HOUR == 5).count();
        assert_eq!(state.open.samples.len(), open, "only hour 5's records are buffered");
        assert!(state.open.runs.keys.iter().all(|&(w, _)| w == 5));
        assert_eq!(state.open.runs.ends.last(), Some(&open));
        assert_eq!(state.open.values.len(), 3 * 2, "one value per open cell and statistic");
        assert_eq!(state.encode(), encode_coarse_log(&c.coarsen(&log)));
        assert!(state.violations().is_empty(), "{:?}", state.violations());
    }

    /// Three hourly windows fed one epoch per tick over 40 pairs: after
    /// every tick the log encodes as the batch oracle's, and a window
    /// turnover reuses the open columns' capacity. The columns hold no more
    /// capacity after the second turnover than after the first, so the
    /// second hour's window regrew nothing.
    #[test]
    fn window_turnover_reuses_the_open_columns() {
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::P95]);
        let log: Vec<BandwidthRecord> = (0..36u32)
            .flat_map(|e| {
                let ts = Ts(u64::from(e) * EPOCH_SECS);
                (0..40u32).map(move |p| BandwidthRecord {
                    ts,
                    src: p / 8,
                    dst: p % 8 + 10,
                    gbps: f64::from((e * 37 + p * 11) % 23),
                })
            })
            .collect();
        let mut state = c.new_state();
        let mut turnovers = Vec::new();
        let mut seen = 0;
        for d in TelemetryDelta::split_epochs(&log, 0) {
            let before = state.frontier;
            seen += d.len();
            c.apply_delta(&mut state, &d).unwrap();
            assert_eq!(state.encode(), encode_coarse_log(&c.coarsen_records(&log[..seen])));
            assert!(state.violations().is_empty(), "{:?}", state.violations());
            if state.frontier != before {
                turnovers.push(state.open.capacities());
            }
        }
        assert_eq!(state.frontier, 2);
        let [first, second] = turnovers[..] else { panic!("two turnovers: {turnovers:?}") };
        assert!(first.iter().zip(&second).all(|(a, b)| b <= a), "{first:?} then {second:?}");
        assert_eq!(state.open.samples.len(), 12 * 40);
    }

    /// The room a merge opens before the unread open cells up front only
    /// saves moves: a merge that opens none widens the gap as each cell
    /// lands mid-table, with the batch oracle's bytes all the same.
    #[test]
    fn a_short_gap_widens_as_the_merge_goes() {
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::Min, Statistic::P95]);
        let log = mixed_log(30);
        let (held, rest) = log.split_at(3 * 16);
        let mut state = c.new_state();
        c.apply_delta(&mut state, &TelemetryDelta::new(0, held.to_vec())).unwrap();
        // Hour 1's remaining epochs land among its open cells, then hour 2
        // opens; no room is made before the first cell.
        let (mut gap, mut open) = (Gap::default(), None);
        c.for_each_cell(
            rest,
            |_| true,
            |w, pair, samples| {
                if open != Some(w) {
                    state.seal_before(&mut gap, w);
                    open = Some(w);
                }
                state.merge_cell(&mut gap, (w, pair), samples);
            },
        );
        state.open.close(gap, c.stats.len());
        assert_eq!(state.encode(), encode_coarse_log(&c.coarsen(&log)));
        assert!(state.violations().is_empty(), "{:?}", state.violations());
    }

    /// Sealed rows sit in one block per sealed window, and a checkpoint
    /// writes the blocks as they are: a restored log holds the same
    /// blocks, which read back the same rows.
    #[test]
    fn sealed_blocks_serialize_as_written() {
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::P95]);
        let mut state = c.new_state();
        for d in TelemetryDelta::split_epochs(&mixed_log(72), 0) {
            c.apply_delta(&mut state, &d).unwrap();
        }
        assert_eq!(state.sealed.0.len(), 5, "one block per sealed hour");
        let json = serde_json::to_string(&state).unwrap();
        let first = format!("\"sealed\":[{}", serde_json::to_string(&state.sealed.0[0]).unwrap());
        assert!(json.contains(&first), "{json}");
        let back: IncrementalCoarseLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.encode(), state.encode());
    }

    /// Bytes of column capacity a sealed block holds per row: a pair and
    /// `n` values.
    fn sealed_row_bytes(n: usize) -> usize {
        std::mem::size_of::<(u32, u32)>() + n * std::mem::size_of::<f64>()
    }

    /// Four hours of one-epoch stream ticks over 40 pairs: three hours
    /// seal, on the caller of each tick's fork, one column block each,
    /// its columns exactly its rows' size. After every tick the uniform
    /// log encodes as the batch oracle over the lake, and it is the log
    /// the same deltas applied directly (sealing in the walk) leave, block
    /// for block. A checkpoint round trip restores the three blocks, as
    /// exact, that read back the same bytes, with the adaptive history's
    /// runs shared again, and the stream goes on from it.
    #[test]
    fn sealed_windows_are_exact_column_blocks() {
        let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
        let (c, n) = (cfg.time_coarsener(), cfg.stats.len());
        let log: Vec<BandwidthRecord> = (0..54u32)
            .flat_map(|e| {
                let ts = Ts(u64::from(e) * EPOCH_SECS);
                (0..40u32).map(move |p| BandwidthRecord {
                    ts,
                    src: p / 8,
                    dst: p % 8 + 10,
                    gbps: f64::from((e * 37 + p * 11) % 23),
                })
            })
            .collect();
        let deltas = TelemetryDelta::split_epochs(&log, 0);
        let (head, tail) = deltas.split_at(48);
        let mut ctl = controller();
        let mut state = StreamState::new(cfg.clone(), small_fine());
        let mut direct = c.new_state();
        let batch = |ctl: &SmnController| {
            encode_coarse_log(&c.coarsen_records(ctl.clds().bandwidth.read().all()))
        };
        for d in head {
            ctl.stream_tick(&mut state, d, None).unwrap();
            c.apply_delta(&mut direct, d).unwrap();
            assert_eq!(state.time.encode(), batch(&ctl), "tick {}", d.tick);
            assert_eq!(state.time, direct, "tick {}", d.tick);
        }
        let blocks = |log: &IncrementalCoarseLog| {
            log.sealed.0.iter().map(|b| (b.len(), b.runs.len())).collect::<Vec<_>>()
        };
        assert_eq!(state.time.frontier, 3);
        assert_eq!(blocks(&state.time), [(40, 1); 3], "one block per sealed hour");
        assert_eq!(blocks(&state.time), blocks(&direct));
        let exact = |log: &IncrementalCoarseLog| {
            log.sealed.0.iter().all(|b| {
                let bytes = b.items.capacity() * std::mem::size_of::<(u32, u32)>()
                    + b.values.capacity() * std::mem::size_of::<f64>();
                bytes == b.len() * sealed_row_bytes(n) && b.stride == n
            })
        };
        assert!(exact(&state.time));

        let snapshot = serde_json::to_string(&state).unwrap();
        let mut restored = StreamState::restore(&snapshot).unwrap();
        assert_eq!(blocks(&restored.time), [(40, 1); 3], "the blocks it wrote");
        assert!(exact(&restored.time));
        let shared = |w: &[Arc<HistoryBlock>]| Arc::ptr_eq(&w[0].runs, &w[1].runs);
        assert!(restored.adaptive.history.0.windows(2).all(shared));
        assert_eq!(restored.time, state.time);
        assert_eq!(restored.time.encode(), batch(&ctl));
        assert_eq!(restored.fingerprint(), state.fingerprint());
        for d in tail {
            ctl.stream_tick(&mut restored, d, None).unwrap();
            assert_eq!(restored.time.encode(), batch(&ctl), "tick {}", d.tick);
        }
        assert_eq!(ctl.stream_reconcile(&mut restored).unwrap().hash, restored.fingerprint());
    }

    /// A lake-shaped stream, a bulk load of an hour and a half and then
    /// one epoch per tick over 40 pairs: after `prepare` no apply widens
    /// an open column, so the uniform apply keeps no new allocation, and
    /// the log is the one a direct apply leaves, sealing in its walk.
    #[test]
    fn a_prepared_apply_widens_no_open_column() {
        let c = TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::P95]);
        let log: Vec<BandwidthRecord> = (0..48u32)
            .flat_map(|e| {
                let ts = Ts(u64::from(e) * EPOCH_SECS);
                (0..40u32).map(move |p| BandwidthRecord { ts, src: p, dst: 99, gbps: f64::from(e) })
            })
            .collect();
        let (bulk, rest) = log.split_at(18 * 40);
        let mut deltas = vec![TelemetryDelta::new(0, bulk.to_vec())];
        deltas.extend(TelemetryDelta::split_epochs(rest, 1));
        let (mut prepared, mut direct) = (c.new_state(), c.new_state());
        for d in &deltas {
            prepared.prepare(d);
            let held = prepared.open.capacities();
            c.apply_admitted(&mut prepared, d);
            assert_eq!(prepared.open.capacities(), held, "tick {}", d.tick);
            c.apply_delta(&mut direct, d).unwrap();
            assert_eq!(prepared, direct, "tick {}", d.tick);
        }
        assert_eq!(prepared.frontier, 3);
        assert_eq!(prepared.encode(), encode_coarse_log(&c.coarsen(&log)));
    }

    #[test]
    fn coarse_log_violations_name_what_is_inconsistent() {
        let cfg = StreamConfig::default();
        let log = mixed_log(30);
        let c = cfg.time_coarsener();
        let mut time = c.new_state();
        c.apply_delta(&mut time, &TelemetryDelta::new(0, log.clone())).unwrap();
        let mut adaptive = cfg.adaptive.new_state();
        cfg.adaptive.apply_delta(&mut adaptive, &TelemetryDelta::new(0, log)).unwrap();
        assert!(time.violations().is_empty() && adaptive.violations().is_empty());

        let rules = |vs: Vec<Violation>| vs.into_iter().map(|v| v.rule).collect::<Vec<_>>();
        let mut bad = time.clone();
        bad.open.runs.keys.swap(0, 1);
        assert!(rules(bad.violations()).contains(&"artifact/coarse-log-order".to_string()));
        // The first open cell's samples out of order, or its end moved so
        // that a cell is empty or the last misses a sample.
        let mut bad = time.clone();
        bad.open.samples[0] = f64::INFINITY;
        assert_eq!(rules(bad.violations()), vec!["artifact/coarse-log-samples"]);
        for end in [0, bad.open.runs.ends[1]] {
            let mut bad = time.clone();
            bad.open.runs.ends[0] = end;
            assert_eq!(rules(bad.violations()), vec!["artifact/coarse-log-shape"], "end {end}");
        }
        let mut bad = time.clone();
        bad.open.samples.push(1.0);
        assert_eq!(rules(bad.violations()), vec!["artifact/coarse-log-shape"]);
        // Columns that are not parallel to the keys.
        let mut bad = time.clone();
        bad.open.runs.ends.pop();
        assert!(rules(bad.violations()).contains(&"artifact/coarse-log-shape".to_string()));
        let mut bad = time.clone();
        bad.open.values.pop();
        assert_eq!(rules(bad.violations()), vec!["artifact/coarse-log-shape"]);
        // An open window whose end is no timestamp.
        let mut bad = time.clone();
        let last = bad.open.runs.keys.len() - 1;
        bad.open.runs.keys[last].0 = u64::MAX / HOUR;
        assert_eq!(rules(bad.violations()), vec!["artifact/coarse-log-shape"]);
        let mut bad = time.clone();
        bad.frontier = 0;
        assert_eq!(
            rules(bad.violations()),
            vec!["artifact/coarse-log-order"; 2],
            "two sealed hours"
        );
        // A sealed block whose run ends short of its rows, whose run keys
        // do not ascend, or whose value column is not its rows' stride.
        let sealed = |edit: &dyn Fn(&mut SealedBlock)| {
            let mut bad = time.clone();
            edit(Arc::make_mut(&mut bad.sealed.0[1]));
            bad.violations().into_iter().map(|v| v.to_string()).collect::<Vec<_>>()
        };
        let found = sealed(&|b| Arc::make_mut(&mut b.runs).ends[0] -= 1);
        assert!(found[0].contains("[$.sealed[1].runs.ends[0]]"), "{found:?}");
        let found = sealed(&|b| {
            let runs = Arc::make_mut(&mut b.runs);
            runs.keys.insert(0, (Ts(HOUR), HOUR));
            runs.ends.insert(0, 1);
        });
        assert!(found[0].contains("[$.sealed[1].runs.keys[1]]"), "{found:?}");
        let found = sealed(&|b| {
            b.values.pop();
        });
        assert!(found[0].contains("[$.sealed[1].values]"), "{found:?}");
        assert_eq!(found.len(), 1, "rows are read only from sound blocks: {found:?}");
        let mut bad = adaptive.clone();
        bad.rows += 1;
        assert_eq!(rules(bad.violations()), vec!["artifact/coarse-log-shape"]);
        let mut bad = adaptive.clone();
        bad.keys.swap(0, 1);
        let found = bad.violations();
        assert!(found.iter().any(|v| v.rule == "artifact/coarse-log-order"), "{found:?}");
        let mut bad = adaptive;
        bad.pairs.pop();
        assert_eq!(rules(bad.violations()), vec!["artifact/coarse-log-shape"; 2]);
    }

    /// Two steady pairs over three days, a day per delta: each pair has
    /// two closed day rows and an open one, its samples in three blocks.
    fn three_day_blocks() -> IncrementalAdaptiveLog {
        let c = StreamConfig::default().adaptive;
        let mut state = c.new_state();
        for day in 0..3u64 {
            let log: Vec<BandwidthRecord> = (0..12u64)
                .flat_map(|i| {
                    let ts = Ts(day * DAY + i * 2 * HOUR);
                    [(0, 1), (0, 2)].map(|(src, dst)| BandwidthRecord { ts, src, dst, gbps: 10.0 })
                })
                .collect();
            c.apply_delta(&mut state, &TelemetryDelta::new(day, log)).unwrap();
        }
        state
    }

    #[test]
    fn adaptive_pair_violations_name_each_broken_rule() {
        /// Block `b`'s runs, copied out of the blocks that share them, and
        /// its columns.
        fn block(
            log: &mut IncrementalAdaptiveLog,
            b: usize,
        ) -> (&mut Runs<(u32, u32)>, &mut Vec<u64>, &mut Vec<f64>) {
            let block = Arc::make_mut(&mut log.history.0[b]);
            (Arc::make_mut(&mut block.runs), &mut block.items, &mut block.values)
        }
        let state = three_day_blocks();
        assert!(state.violations().is_empty(), "{:?}", state.violations());
        assert_eq!(state.history.0.len(), 3);
        assert_eq!(state.pairs[0].closed.len(), 2);
        let broken = |edit: &dyn Fn(&mut IncrementalAdaptiveLog)| {
            let mut bad = state.clone();
            edit(&mut bad);
            bad.violations().into_iter().map(|v| v.to_string()).collect::<Vec<_>>()
        };
        let names = |found: &[String], rule: &str, at: &str| {
            found.iter().any(|v| v.starts_with(rule) && v.contains(&format!("[$.{at}]")))
        };
        // Pair rules, over the samples gathered from the blocks.
        let found = broken(&|log| block(log, 1).1.swap(3, 4));
        assert!(names(&found, "artifact/coarse-log-samples", "pairs[0].history"), "{found:?}");
        let found = broken(&|log| block(log, 2).1[0] = DAY);
        assert!(names(&found, "artifact/coarse-log-samples", "pairs[0].history"), "{found:?}");
        let found = broken(&|log| block(log, 0).2[0] = 11.0);
        assert!(names(&found, "artifact/coarse-log-samples", "pairs[0].whole"), "{found:?}");
        let found = broken(&|log| log.pairs[0].open = MeanFold::of([10.0]));
        assert!(names(&found, "artifact/coarse-log-samples", "pairs[0].open"), "{found:?}");
        let found = broken(&|log| log.pairs[1].last -= 1);
        assert!(names(&found, "artifact/coarse-log-samples", "pairs[1].last"), "{found:?}");
        let found = broken(&|log| {
            for b in 0..3 {
                let (runs, ts, values) = block(log, b);
                runs.keys.remove(1);
                runs.ends.remove(1);
                ts.truncate(12);
                values.truncate(12);
            }
        });
        assert!(names(&found, "artifact/coarse-log-samples", "pairs[1].history"), "{found:?}");
        let found = broken(&|log| log.pairs[0].closed.swap(0, 1));
        assert!(names(&found, "artifact/coarse-log-order", "pairs[0].closed[1]"), "{found:?}");
        let found = broken(&|log| {
            let mut row = log.pairs[0].closed[1].clone();
            row.window_start.0 += DAY;
            log.pairs[0].closed.push(row);
        });
        assert!(names(&found, "artifact/coarse-log-order", "pairs[0].closed[2]"), "{found:?}");
        // Block rules.
        let found = broken(&|log| block(log, 1).0.keys.swap(0, 1));
        let at = "history[1].runs.keys[1]";
        assert!(names(&found, "artifact/coarse-log-order", at), "{found:?}");
        let found = broken(&|log| block(log, 1).0.keys[1] = (0, 3));
        let at = "history[1].runs.keys";
        assert!(names(&found, "artifact/coarse-log-samples", at), "{found:?}");
        let found = broken(&|log| block(log, 0).0.ends[0] = 0);
        let at = "history[0].runs.ends[0]";
        assert!(names(&found, "artifact/coarse-log-shape", at), "{found:?}");
        let found = broken(&|log| block(log, 0).0.ends[1] -= 1);
        let at = "history[0].runs.ends[1]";
        assert!(names(&found, "artifact/coarse-log-shape", at), "{found:?}");
        let found = broken(&|log| {
            block(log, 2).2.pop();
        });
        assert!(names(&found, "artifact/coarse-log-shape", "history[2].values"), "{found:?}");
        let found = broken(&|log| Arc::make_mut(&mut log.history.0[2]).stride = 2);
        assert!(names(&found, "artifact/coarse-log-shape", "history[2].values"), "{found:?}");
        // The blocks share one `Runs`; an edit through a copy leaves the
        // others as they were.
        assert!(Arc::ptr_eq(&state.history.0[1].runs, &state.history.0[2].runs));
    }

    /// Feed `log` to `ac` one epoch per delta and require, after every
    /// delta, the batch oracle's encoding and a log with no violation.
    /// Returns the log and the deltas after which each pair was volatile.
    fn per_epoch_against_batch(
        ac: &AdaptiveCoarsener,
        log: &[BandwidthRecord],
    ) -> (IncrementalAdaptiveLog, Vec<Vec<(u32, u32)>>) {
        let mut state = ac.new_state();
        let (mut seen, mut volatile) = (0, Vec::new());
        for d in TelemetryDelta::split_epochs(log, 0) {
            seen += d.len();
            ac.apply_delta(&mut state, &d).unwrap();
            let batch = ac.coarsen_records(&log[..seen]);
            assert_eq!(state.encode(), encode_coarse_log(&batch), "after delta {}", d.tick);
            assert!(state.violations().is_empty(), "{:?}", state.violations());
            volatile.push(state.volatile_pairs());
        }
        (state, volatile)
    }

    /// A pair steady for three hours of one-epoch blocks, then swinging,
    /// flips to volatile after more than 30 blocks: its re-chunk gathers
    /// its samples from every earlier block plus the current run, and its
    /// hourly rows, P95 included, are the batch oracle's.
    #[test]
    fn a_class_flip_after_thirty_one_epoch_blocks_rechunks_the_gathered_history() {
        let ac = AdaptiveCoarsener {
            stats: vec![Statistic::Mean, Statistic::P95],
            ..StreamConfig::default().adaptive
        };
        let log: Vec<BandwidthRecord> = (0..48u32)
            .flat_map(|e| {
                let ts = Ts(u64::from(e) * EPOCH_SECS);
                let swing = if e % 2 == 0 { 10.0 } else { 500.0 };
                let gbps = if e < 36 { 100.0 } else { swing };
                [
                    BandwidthRecord { ts, src: 0, dst: 1, gbps },
                    BandwidthRecord { ts, src: 0, dst: 2, gbps: 40.0 + f64::from(e % 3) },
                ]
            })
            .collect();
        let (state, volatile) = per_epoch_against_batch(&ac, &log);
        let flip = volatile.iter().position(|v| v.contains(&(0, 1))).expect("(0, 1) flips");
        assert!(flip >= 30, "flipped after block {flip}");
        assert_eq!(volatile.last(), Some(&vec![(0, 1)]));
        assert_eq!(state.pairs[0].closed.len(), 3, "hours 0-2 closed, hour 3 open");
    }

    /// A pair volatile from its second sample, under `[Mean, P95]`, fed
    /// one epoch per delta for an hour and a half: its open hour spans
    /// several blocks, so its P95 is gathered from them while the hour is
    /// open, when it closes and once the next hour is open.
    #[test]
    fn a_volatile_hour_spanning_blocks_reads_its_p95_from_the_history() {
        let ac = AdaptiveCoarsener {
            stats: vec![Statistic::Mean, Statistic::P95],
            ..StreamConfig::default().adaptive
        };
        let log: Vec<BandwidthRecord> = (0..18u32)
            .flat_map(|e| {
                let ts = Ts(u64::from(e) * EPOCH_SECS);
                let gbps = [10.0, 500.0, 70.0][e as usize % 3];
                [
                    BandwidthRecord { ts, src: 0, dst: 1, gbps },
                    BandwidthRecord { ts, src: 3, dst: 1, gbps: 40.0 },
                ]
            })
            .collect();
        let (state, volatile) = per_epoch_against_batch(&ac, &log);
        assert!(volatile.iter().skip(1).all(|v| v == &[(0, 1)]));
        assert_eq!(state.history.0.len(), 18);
        let hour = &state.pairs[0].closed;
        assert_eq!(hour.len(), 1);
        assert_eq!(hour[0].values[1..], [500.0], "hour 0's P95 is read from 12 blocks");
    }

    /// 48 one-epoch ticks over a fixed pair set: every block after the
    /// first shares the first one's `Runs`, so the history stores exactly
    /// 16 bytes a sample in its columns and nothing per pair. A checkpoint
    /// writes each block's runs, and a restore shares them again.
    #[test]
    fn steady_ticks_share_one_runs_and_store_sixteen_bytes_a_sample() {
        let ac = StreamConfig::default().adaptive;
        let log: Vec<BandwidthRecord> = (0..48u32)
            .flat_map(|e| {
                let ts = Ts(u64::from(e) * EPOCH_SECS);
                (0..40u32).map(move |p| BandwidthRecord {
                    ts,
                    src: p / 8,
                    dst: p % 8,
                    gbps: f64::from(10 + (p + e) % 7),
                })
            })
            .collect();
        let (state, _) = per_epoch_against_batch(&ac, &log);
        let blocks = &state.history.0;
        assert_eq!(blocks.len(), 48);
        assert!(blocks.windows(2).all(|w| Arc::ptr_eq(&w[0].runs, &w[1].runs)));
        let bytes: usize = blocks
            .iter()
            .map(|b| b.items.capacity() * size_of::<u64>() + b.values.capacity() * size_of::<f64>())
            .sum();
        assert_eq!(bytes, 16 * log.len());
        let json = serde_json::to_string(&state).unwrap();
        let mut restored: IncrementalAdaptiveLog = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, state);
        assert!(!Arc::ptr_eq(&restored.history.0[0].runs, &restored.history.0[1].runs));
        restored.history.share_runs();
        assert!(restored.history.0.windows(2).all(|w| Arc::ptr_eq(&w[0].runs, &w[1].runs)));
    }

    #[test]
    fn delta_journal_records_the_session() {
        let mut ctl = controller();
        let cfg = StreamConfig { reconcile_every: 2, ..StreamConfig::default() };
        let mut state = StreamState::new(cfg, small_fine());
        let deltas = TelemetryDelta::split_epochs(&mixed_log(4), 0);
        let mut journal = DeltaJournal::new("small", 7, 4, vec!["web-1".into(), "db-1".into()], 2);
        for o in ctl.stream_run(&mut state, &deltas, &[]).unwrap() {
            journal.push_outcome(&o);
        }
        assert_eq!(journal.ticks.len(), 4);
        assert!(journal.ticks[1].reconciled && journal.ticks[1].reconcile_hash.is_some());
        assert!(!journal.ticks[0].reconciled && journal.ticks[0].reconcile_hash.is_none());
        let json = journal.to_json_pretty();
        assert!(json.contains("\"delta-journal\""));
        let back: DeltaJournal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, journal);
    }

    /// A session over `cfg` must start, then refuse its first tick and any
    /// reconcile with a typed error, before the lake is touched.
    fn assert_refused_before_ingest(cfg: StreamConfig) {
        let mut ctl = controller();
        let mut state = StreamState::new(cfg, small_fine());
        let deltas = TelemetryDelta::split_epochs(&mixed_log(2), 0);
        let err = ctl.stream_tick(&mut state, &deltas[0], None).unwrap_err();
        match &err {
            StreamError::Config(v) => assert_eq!(v.rule, "artifact/coarse-log-shape"),
            other => panic!("expected a config error, got {other}"),
        }
        assert!(ctl.clds().bandwidth.read().all().is_empty(), "the lake is untouched");
        assert_eq!(state.next_tick, 0);
        assert_eq!(state.adaptive.rows(), 0);
        let err = ctl.stream_reconcile(&mut state).unwrap_err();
        assert!(matches!(err, StreamError::Config(_)), "got {err}");
    }

    /// `StreamState.config` is public: a configuration changed between
    /// ticks no longer matches the logs, and the next tick must refuse it
    /// before ingest, leaving the lake, `next_tick` and both logs as they
    /// were, so that restoring the configuration resumes the session.
    #[test]
    fn a_config_changed_mid_session_is_refused_before_ingest() {
        let changes: [fn(&mut StreamConfig); 3] = [
            |c| c.adaptive.cv_threshold = 0.9,
            |c| c.adaptive.volatile_window = 2 * HOUR,
            |c| c.window_secs = 2 * HOUR,
        ];
        for change in changes {
            let mut ctl = controller();
            let mut state = StreamState::new(StreamConfig::default(), small_fine());
            let deltas = TelemetryDelta::split_epochs(&mixed_log(3), 0);
            ctl.stream_tick(&mut state, &deltas[0], None).unwrap();
            let lake = ctl.clds().bandwidth.read().all().len();
            let (time, adaptive) = (state.time.clone(), state.adaptive.clone());
            change(&mut state.config);
            let err = ctl.stream_tick(&mut state, &deltas[1], None).unwrap_err();
            assert!(matches!(err, StreamError::StateMismatch { .. }), "got {err}");
            assert_eq!(ctl.clds().bandwidth.read().all().len(), lake, "the lake is untouched");
            assert_eq!(state.next_tick, 1);
            assert_eq!(state.time, time);
            assert_eq!(state.adaptive, adaptive);
            state.config = StreamConfig::default();
            ctl.stream_run(&mut state, &deltas[1..], &[]).unwrap();
            ctl.stream_reconcile(&mut state).unwrap();
        }
    }

    #[test]
    fn a_zero_adaptive_window_is_refused_before_ingest() {
        let ac = StreamConfig::default().adaptive;
        let adaptive = AdaptiveCoarsener { stable_window: 0, ..ac };
        assert_refused_before_ingest(StreamConfig { adaptive, ..StreamConfig::default() });
    }

    #[test]
    fn an_adaptive_coarsener_without_statistics_is_refused_before_ingest() {
        let ac = StreamConfig::default().adaptive;
        let adaptive = AdaptiveCoarsener { stats: Vec::new(), ..ac };
        assert_refused_before_ingest(StreamConfig { adaptive, ..StreamConfig::default() });
    }

    #[test]
    fn a_zero_window_is_refused_before_ingest() {
        assert_refused_before_ingest(StreamConfig { window_secs: 0, ..StreamConfig::default() });
    }

    #[test]
    fn a_stream_without_statistics_is_refused_before_ingest() {
        assert_refused_before_ingest(StreamConfig { stats: Vec::new(), ..StreamConfig::default() });
    }

    /// Epoch strides of the walk-free proptest's clock: ties on one
    /// epoch, small steps, an hour, half a day and a day.
    const WALK_FREE_STRIDES: [u64; 8] = [0, 0, 1, 1, 7, HOUR / EPOCH_SECS, 144, DAY / EPOCH_SECS];

    /// A time-ordered log from `(stride, src, dst, value)` picks over a
    /// 4-node WAN. Values tie, include ±0.0 and, with `nan`, NaNs of both
    /// signs and +∞. With `phase` > 0 the records come in blocks of
    /// `phase`: steady ones (40.0) alternate with blocks drawn from the
    /// pool, so a pair's class flips stable → volatile → stable as its
    /// history grows. With `dup` every record is sent twice, the copy at
    /// the same timestamp with the next value of the pool: a same-`ts`
    /// duplicate that a delta boundary may split.
    fn walk_free_log(
        raw: &[(usize, u32, u32, usize)],
        nan: bool,
        phase: usize,
        dup: bool,
    ) -> Vec<BandwidthRecord> {
        const GBPS: [f64; 9] =
            [0.0, -0.0, 1.0, 1.0, 40.0, 900.0, f64::NAN, -f64::NAN, f64::INFINITY];
        let pool = if nan { GBPS.len() } else { GBPS.len() - 3 };
        let mut epoch = 0;
        let mut log = Vec::new();
        for (i, &(stride, src, dst, v)) in raw.iter().enumerate() {
            epoch += WALK_FREE_STRIDES.get(stride).copied().unwrap_or(0);
            let steady = phase > 0 && (i / phase).is_multiple_of(2);
            let gbps = |v: usize| if steady { 40.0 } else { GBPS[v % pool] };
            let ts = Ts(epoch * EPOCH_SECS);
            log.push(BandwidthRecord { ts, src, dst, gbps: gbps(v) });
            if dup {
                log.push(BandwidthRecord { ts, src, dst, gbps: gbps(v + 1) });
            }
        }
        log
    }

    /// `log` as a delta stream: one delta per epoch (`shape` 0), deltas of
    /// `chunk` records that cross window boundaries (1), or one bulk delta
    /// of the first half followed by one delta per epoch (2).
    fn walk_free_deltas(log: &[BandwidthRecord], shape: u8, chunk: usize) -> Vec<TelemetryDelta> {
        let chunks: Vec<Vec<BandwidthRecord>> = match shape {
            0 => TelemetryDelta::split_epochs(log, 0).into_iter().map(|d| d.records).collect(),
            1 => log.chunks(chunk).map(<[_]>::to_vec).collect(),
            _ => {
                let (bulk, rest) = log.split_at(log.len() / 2);
                std::iter::once(bulk.to_vec())
                    .chain(TelemetryDelta::split_epochs(rest, 1).into_iter().map(|d| d.records))
                    .collect()
            }
        };
        chunks.into_iter().enumerate().map(|(t, r)| TelemetryDelta::new(t as u64, r)).collect()
    }

    proptest::proptest! {
        /// Both incremental logs, fed per-epoch, window-crossing or
        /// bulk-then-tick delta streams, encode after every delta exactly
        /// as the walk-free oracles (map grouping, a map fold) over the log
        /// so far, through class flips and same-`ts` duplicates within a
        /// delta and across ticks, with adaptive window sizes that nest (a
        /// day of hours) or do not; the adaptive log's volatile set is the
        /// oracle's and its state breaks no rule. The applies and the batch oracles share the run
        /// walk; these oracles do not, so a walk bug cannot hide from
        /// reconciliation. The adaptive apply's new block also lists exactly
        /// the delta's sorted distinct pairs, and an empty delta pushes none.
        #[test]
        fn incremental_logs_match_walk_free_oracles(
            raw in proptest::collection::vec((0usize..8, 0u32..4, 0u32..4, 0usize..9), 0..120),
            nan in 0u8..4,
            shape in 0u8..3,
            chunk in 1usize..20,
            cv_threshold in 0.0f64..1.5,
            phase_pick in 0usize..3,
            dup in 0u8..3,
            windows in 0usize..3,
        ) {
            use crate::bwlogs::tests::{adaptive_by_partition, coarsen_by_map, volatile_by_map};
            let all = vec![
                Statistic::Mean,
                Statistic::Min,
                Statistic::Max,
                Statistic::P50,
                Statistic::P95,
                Statistic::P99,
            ];
            let phase = [0, 5, 17][phase_pick];
            let log = walk_free_log(&raw, nan == 0, phase, dup == 0);
            let c = TimeCoarsener::new(HOUR, all.clone());
            let (stable_window, volatile_window) =
                [(DAY, HOUR), (5 * HOUR, 2 * HOUR), (2 * HOUR, 3 * HOUR)][windows];
            let ac = AdaptiveCoarsener { cv_threshold, stable_window, volatile_window, stats: all };
            let (mut time, mut adaptive) = (c.new_state(), ac.new_state());
            let mut seen = 0;
            for d in walk_free_deltas(&log, shape, chunk) {
                seen += d.len();
                let prefix = &log[..seen];
                c.apply_delta(&mut time, &d).expect("a time-ordered delta applies");
                adaptive.admit(&d, false).expect("a time-ordered delta is admitted");
                let applied = ac.apply_admitted(&mut adaptive, &d);
                proptest::prop_assert_eq!(adaptive.touched(&applied), d.pairs());
                proptest::prop_assert_eq!(time.encode(), encode_coarse_log(&coarsen_by_map(&c, prefix)));
                proptest::prop_assert_eq!(
                    adaptive.encode(),
                    encode_coarse_log(&adaptive_by_partition(&ac, prefix))
                );
                proptest::prop_assert_eq!(adaptive.volatile_pairs(), volatile_by_map(&ac, prefix));
                proptest::prop_assert!(adaptive.violations().is_empty(), "{:?}", adaptive.violations());
            }
        }
    }

    /// Flip the sign bit of `v`: a sign of zero when `v` is zero.
    fn flip_sign(v: f64) -> f64 {
        f64::from_bits(v.to_bits() ^ 1 << 63)
    }

    /// A NaN whose bits differ from `v`'s: another payload when `v` is
    /// already a NaN.
    fn other_nan(v: f64) -> f64 {
        f64::from_bits((v.to_bits() ^ 1) | 0x7FF8_0000_0000_0000)
    }

    /// Apply corruption `kind` to `row`'s fields, at value `pick`:
    /// a value bit, a sign of zero, a NaN payload, a shifted window or the
    /// window length.
    fn corrupt_fields(row: &mut CoarseBwRecord, kind: u8, pick: usize) {
        let j = pick % row.values.len().max(1);
        match (kind, row.values.get_mut(j)) {
            (0, Some(v)) => *v = f64::from_bits(v.to_bits() ^ 1),
            (1, Some(v)) => *v = flip_sign(*v),
            (2, Some(v)) => *v = other_nan(*v),
            (3, _) => row.window_start.0 += row.window_secs,
            _ => row.window_secs += 1,
        }
    }

    /// Rebuild `cells` from its cells `parts`, in order, each as it is,
    /// under `n` statistics.
    fn splice_cells(cells: &mut OpenCells, n: usize, parts: &[Range<usize>]) {
        let mut out = OpenCells::default();
        for i in parts.iter().cloned().flatten() {
            out.runs.keys.push(cells.runs.keys[i]);
            out.samples.extend_from_slice(cells.samples_of(i));
            out.runs.ends.push(out.samples.len());
            out.values.extend_from_slice(cells.values_of(i, n));
        }
        *cells = out;
    }

    /// Corrupt row `at` (modulo the row count) of the uniform log with
    /// corruption `kind`: a field (0–4, and 8 as 4), a dropped (5) or
    /// duplicated (6) row, or (7) an extra row after the last, in the next
    /// window. A sealed row is edited in its block's rows, which new
    /// blocks then hold ([`SealedRows::write`]): it takes the field
    /// corruptions of [`corrupt_fields`], is dropped or duplicated, or,
    /// with no open cell, the last one is copied a window on. An open row,
    /// built from its cell's key and statistics, has a statistic's value
    /// bit, sign of zero or NaN payload changed (0–2), its key moved a
    /// window on (3) or its key's pair changed (4).
    fn corrupt_time_row(log: &mut IncrementalCoarseLog, kind: u8, at: usize, pick: usize) {
        let sealed = log.sealed.len();
        let (n, len) = (log.stats.len(), log.open.len());
        let i = at % log.rows().max(1);
        if kind == 7 {
            if len > 0 {
                splice_cells(&mut log.open, n, &[0..len, len - 1..len]);
                log.open.runs.keys[len].0 += 1;
            } else if sealed > 0 {
                log.sealed.write(sealed - 1, |rows, j| {
                    let mut extra = rows[j].clone();
                    extra.window_start.0 += extra.window_secs;
                    rows.push(extra);
                });
            }
        } else if i < sealed {
            match kind {
                5 => log.sealed.write(i, |rows, j| drop(rows.remove(j))),
                6 => log.sealed.write(i, |rows, j| rows.insert(j, rows[j].clone())),
                _ => log.sealed.write(i, |rows, j| corrupt_fields(&mut rows[j], kind, pick)),
            }
        } else {
            let j = i - sealed;
            match kind {
                0..=2 => {
                    let mut row = coarse_row((0, 0), 0, 0, []);
                    assert!(log.fill_open_row(j, &mut row));
                    corrupt_fields(&mut row, kind, pick);
                    log.open.values[j * n..(j + 1) * n].copy_from_slice(&row.values);
                }
                3 => log.open.runs.keys[j].0 += 1,
                5 => splice_cells(&mut log.open, n, &[0..j, j + 1..len]),
                6 => splice_cells(&mut log.open, n, &[0..j + 1, j..len]),
                _ => log.open.runs.keys[j].1 ^= 1,
            }
        }
    }

    /// Corrupt row `at` (modulo the row count, pair by pair, each pair's
    /// closed rows then its open one) of the adaptive log with corruption
    /// `kind`. A closed row takes a field corruption (0–4), or is dropped
    /// (5) or duplicated (6). The open row, computed from the pair's folds
    /// and samples, has its last sample's value bit, sign of zero or NaN
    /// payload changed in its block (0–2, leaving the folds as they were),
    /// its last timestamp moved a window on (3), an unfolded sample
    /// appended to its newest block (4), its samples dropped from every
    /// block, with its open fold (5), or a closed copy of it added (6).
    /// Kinds 7 and 8 add an extra pair after the last, with a copy of that
    /// row or with no rows.
    fn corrupt_adaptive_row(log: &mut IncrementalAdaptiveLog, kind: u8, at: usize, pick: usize) {
        let target = at % log.rows.max(1);
        let mut seen = 0;
        let mut hit = None;
        for (pair_at, ps) in log.pairs.iter().enumerate() {
            if target < seen + ps.rows() {
                hit = Some((pair_at, target - seen));
                break;
            }
            seen += ps.rows();
        }
        let Some((pair_at, row_at)) = hit else { return };
        let window = log.window(&log.pairs[pair_at]);
        let mut open = coarse_row((0, 0), 0, 0, []);
        let open =
            log.fill_open_row(pair_at, &mut open, &mut RowScratch::default()).then_some(open);
        if kind >= 7 {
            let mut row = log.pairs[pair_at].closed.get(row_at).cloned().or(open);
            if let Some(row) = &mut row {
                (row.src, row.dst) = (u32::MAX, u32::MAX);
            }
            log.keys.push((u32::MAX, u32::MAX));
            log.pairs.push(PairState {
                closed: row.into_iter().filter(|_| kind == 7).collect(),
                ..PairState::default()
            });
            return;
        }
        let pair = log.keys[pair_at];
        let (ps, history) = (&mut log.pairs[pair_at], &mut log.history);
        if row_at < ps.closed.len() {
            match kind {
                5 => drop(ps.closed.remove(row_at)),
                6 => ps.closed.insert(row_at, ps.closed[row_at].clone()),
                _ => corrupt_fields(&mut ps.closed[row_at], kind, pick),
            }
            return;
        }
        // The pair's last sample is the last of its run `k` in its newest
        // block: at `ends[k] - 1`.
        match kind {
            0..=2 => {
                history.edit_newest(pair, |runs, _, values, k| {
                    let value = &mut values[runs.ends[k] - 1];
                    *value = match kind {
                        0 => f64::from_bits(value.to_bits() ^ 1),
                        1 => flip_sign(*value),
                        _ => other_nan(*value),
                    };
                });
            }
            3 => {
                ps.last += window;
                history.edit_newest(pair, |runs, ts, _, k| ts[runs.ends[k] - 1] += window);
            }
            4 => {
                history.edit_newest(pair, |runs, ts, values, k| {
                    let end = runs.ends[k];
                    ts.insert(end, ts[end - 1]);
                    values.insert(end, values[end - 1]);
                    runs.ends[k..].iter_mut().for_each(|e| *e += 1);
                });
            }
            5 => {
                let drop_run = |runs: &mut Runs<(u32, u32)>,
                                ts: &mut Vec<u64>,
                                values: &mut Vec<f64>,
                                k: usize| {
                    let (start, end) = (k.checked_sub(1).map_or(0, |j| runs.ends[j]), runs.ends[k]);
                    ts.drain(start..end);
                    values.drain(start..end);
                    runs.keys.remove(k);
                    runs.ends.remove(k);
                    runs.ends[k..].iter_mut().for_each(|e| *e -= end - start);
                };
                while history.edit_newest(pair, drop_run) {}
                ps.open = MeanFold::default();
            }
            _ => ps.closed.extend(open),
        }
    }

    /// The position the audited diff must name: the row count when the
    /// logs differ in length, else the first row whose wire bytes differ.
    fn first_diff(incremental: &[CoarseBwRecord], batch: &[CoarseBwRecord]) -> String {
        if incremental.len() != batch.len() {
            return "row count".to_string();
        }
        let bytes = |r: &CoarseBwRecord| encode_coarse_log([r]);
        let i = incremental.iter().zip(batch).position(|(a, b)| bytes(a) != bytes(b));
        i.map_or_else(|| "every row agrees".to_string(), |i| format!("row {i}:"))
    }

    proptest::proptest! {
        /// Corrupt one row of either log, or of both, of a reconciled
        /// session: a value bit, a sign of zero, a NaN payload, a shifted
        /// window, the window length, a dropped, duplicated or extra row,
        /// or an extra pair with no rows. The streaming reconcile's
        /// verdict is the encoded logs' byte equality. On success its hash
        /// is the fingerprint of the encodings; on divergence the audit
        /// carries the encodings' fingerprints and the diff names the
        /// first row whose bytes differ (the uniform log's when both
        /// differ).
        #[test]
        fn streaming_reconcile_verdict_matches_encoded_bytes(
            raw in proptest::collection::vec((0usize..8, 0u32..4, 0u32..4, 0usize..8), 1..80),
            nan in 0u8..3,
            shape in 0u8..3,
            chunk in 1usize..20,
            cv_threshold in 0.0f64..1.5,
            target in (0u8..3, 0u8..9, 0usize..400, 0usize..6),
        ) {
            // Which log to corrupt: the uniform one (0), the adaptive one
            // (1) or both (2), when the uniform log must be reported.
            let (which, kind, at, pick) = target;
            let all = vec![
                Statistic::Mean,
                Statistic::Min,
                Statistic::Max,
                Statistic::P50,
                Statistic::P95,
                Statistic::P99,
            ];
            let cfg = StreamConfig {
                window_secs: HOUR,
                stats: all.clone(),
                adaptive: AdaptiveCoarsener {
                    cv_threshold,
                    stable_window: DAY,
                    volatile_window: HOUR,
                    stats: all,
                },
                reconcile_every: 0,
            };
            let log = walk_free_log(&raw, nan == 0, 0, false);
            let mut ctl = controller();
            let mut state = StreamState::new(cfg.clone(), small_fine());
            ctl.stream_run(&mut state, &walk_free_deltas(&log, shape, chunk), &[])
                .expect("a time-ordered stream applies");
            let clean = ctl.stream_reconcile(&mut state).expect("an honest state reconciles");
            proptest::prop_assert_eq!(&clean.hash, &state.fingerprint());

            if which != 0 {
                corrupt_adaptive_row(&mut state.adaptive, kind, at, pick);
            }
            if which != 1 {
                corrupt_time_row(&mut state.time, kind, at, pick);
            }
            let (time_batch, adaptive_batch) = {
                let lake = ctl.clds().bandwidth.read();
                (
                    cfg.time_coarsener().coarsen_records(lake.all()),
                    cfg.adaptive.coarsen_records(lake.all()),
                )
            };
            let (time_inc, adaptive_inc) = (state.time.encode(), state.adaptive.encode());
            let (time_bytes, adaptive_bytes) =
                (encode_coarse_log(&time_batch), encode_coarse_log(&adaptive_batch));
            let cdg = state.cdg.canonical_bytes();
            match ctl.stream_reconcile(&mut state) {
                Ok(outcome) => {
                    proptest::prop_assert!(time_inc == time_bytes && adaptive_inc == adaptive_bytes);
                    proptest::prop_assert_eq!(
                        &outcome.hash,
                        &fingerprint_hex(&[time_inc.as_slice(), adaptive_inc.as_slice(), &cdg])
                    );
                    proptest::prop_assert_eq!(&outcome.hash, &state.fingerprint());
                }
                Err(StreamError::Divergence { artifact, detail, .. }) => {
                    let (inc, batch, inc_rows, batch_rows) = if time_inc == time_bytes {
                        proptest::prop_assert_eq!(artifact.as_str(), "adaptive-bwlog");
                        proptest::prop_assert!(adaptive_inc != adaptive_bytes, "{detail}");
                        (adaptive_inc, adaptive_bytes, state.adaptive.coarse_log(), adaptive_batch)
                    } else {
                        proptest::prop_assert_eq!(artifact.as_str(), "coarse-bwlog");
                        (time_inc, time_bytes, state.time.coarse_log(), time_batch)
                    };
                    let audit = ctl.obs().audit_jsonl();
                    let last = audit.lines().last().unwrap_or_default();
                    let record = smn_obs::audit::AuditRecord::from_json_line(last)
                        .expect("the divergence is audited");
                    let evidence = |key: &str| {
                        record.evidence.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
                    };
                    proptest::prop_assert_eq!(record.action.as_str(), "reconcile-divergence");
                    proptest::prop_assert_eq!(
                        evidence("incremental_hash"),
                        Some(fingerprint_hex(&[inc.as_slice()]))
                    );
                    proptest::prop_assert_eq!(
                        evidence("batch_hash"),
                        Some(fingerprint_hex(&[batch.as_slice()]))
                    );
                    proptest::prop_assert_eq!(evidence("diff"), Some(detail.clone()));
                    let want = first_diff(&inc_rows, &batch_rows);
                    proptest::prop_assert!(detail.starts_with(&want), "want {want}: {detail}");
                }
                Err(other) => proptest::prop_assert!(false, "unexpected error {other}"),
            }
        }
    }

    /// The evidence of the last audit record of `action`.
    fn last_audit(ctl: &SmnController, action: &str) -> Vec<(String, String)> {
        let audit = ctl.obs().audit_jsonl();
        let records = audit.lines().rev().filter_map(|l| AuditRecord::from_json_line(l).ok());
        records.into_iter().find(|r| r.action == action).map(|r| r.evidence).unwrap_or_default()
    }

    /// The value of `key` in audit `evidence`.
    fn evidence<'a>(evidence: &'a [(String, String)], key: &str) -> Option<&'a str> {
        evidence.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// A session of [`mixed_log`] proven after `proven` epochs and
    /// streamed on to 5 hours (60 epochs) with no reconcile.
    fn marked_session(proven: usize) -> (SmnController, StreamState) {
        let mut ctl = controller();
        let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
        let mut state = StreamState::new(cfg, small_fine());
        let deltas = TelemetryDelta::split_epochs(&mixed_log(60), 0);
        let (proven, later) = deltas.split_at(proven);
        ctl.stream_run(&mut state, proven, &[]).unwrap();
        ctl.stream_reconcile(&mut state).unwrap();
        ctl.stream_run(&mut state, later, &[]).unwrap();
        (ctl, state)
    }

    /// Reconcile `state` and require the time oracle to start at
    /// `proved_from` (seconds) and the adaptive oracle at lake position
    /// `adaptive_from`, each walking the lake from there, with a full
    /// proof's hash.
    fn assert_proved_from(
        ctl: &mut SmnController,
        state: &mut StreamState,
        proved_from: u64,
        adaptive_from: usize,
    ) {
        let mut full = state.clone();
        full.mark = ProofMark::default();
        let hash = ctl.stream_reconcile(state).unwrap().hash;
        let proof = last_audit(ctl, "reconcile");
        let since = ctl.clds().bandwidth.read().since(Ts(proved_from)).len();
        assert_eq!(evidence(&proof, "proved_from"), Some(proved_from.to_string().as_str()));
        assert_eq!(evidence(&proof, "walked_records"), Some(since.to_string().as_str()));
        assert_eq!(evidence(&proof, "lake_records"), Some("180"));
        assert_eq!(evidence(&proof, "adaptive_from"), Some(adaptive_from.to_string().as_str()));
        let walked = (180 - adaptive_from).to_string();
        assert_eq!(evidence(&proof, "adaptive_walked"), Some(walked.as_str()));
        assert_eq!(hash, ctl.stream_reconcile(&mut full).unwrap().hash);
        assert_eq!(hash, state.fingerprint());
    }

    /// An honest reconcile proves from the mark: proven after 3 hours,
    /// the open hour 2 is sealed since and nothing landed in it, so the
    /// time oracle walks only the lake from hour 3 on, and the adaptive
    /// oracle resumes after the 108 records it proved. A corrupted row
    /// that was proven sealed (its block written through a copy), one
    /// proven open and sealed since, an unproven sealed row and an open
    /// cell are each reported with the verdict, audit and diff of a full
    /// proof; so are an adaptive row of the volatile pair (0, 2) proven
    /// closed, one proven open and closed since, one closed since the
    /// proof and its open row.
    #[test]
    fn a_corrupted_row_is_reported_as_a_full_proof_would_report_it() {
        let (mut ctl, mut state) = marked_session(36);
        let mark = state.mark.uniform.clone().expect("a proof leaves a mark");
        let (sealed, open) = (mark.sealed, mark.open);
        assert_eq!(
            (sealed.rows, sealed.start, open.rows, open.start),
            (6, Ts(2 * HOUR), 9, Ts(3 * HOUR))
        );
        assert_eq!(state.time.sealed.len(), 12);
        let proven: Vec<usize> = state
            .mark
            .adaptive
            .as_ref()
            .map_or_else(Vec::new, |m| m.table.closed_rows().map(|(_, n)| n).collect());
        assert_eq!(proven, [0, 2, 0], "hours 0 and 1 of pair (0, 2) proven closed");
        assert_proved_from(&mut ctl, &mut state, 3 * HOUR, 108);

        for (part, at) in
            [("proven sealed", 1), ("proven open", 7), ("unproven sealed", 10), ("open", 13)]
        {
            let (mut ctl, mut state) = marked_session(36);
            corrupt_time_row(&mut state.time, 0, at, 0);
            let mut full = state.clone();
            full.mark = ProofMark::default();
            let marked = ctl.stream_reconcile(&mut state).unwrap_err();
            let marked_audit = last_audit(&ctl, "reconcile-divergence");
            let unmarked = ctl.stream_reconcile(&mut full).unwrap_err();
            assert_eq!(marked, unmarked, "{part} row");
            assert_eq!(marked_audit, last_audit(&ctl, "reconcile-divergence"), "{part} row");
            let StreamError::Divergence { artifact, detail, .. } = marked else {
                panic!("{part} row: expected a divergence, got {marked}");
            };
            assert_eq!(artifact, "coarse-bwlog", "{part} row");
            assert!(detail.starts_with(&format!("row {at}:")), "{part} row: {detail}");
        }

        // Rows of pair (0, 2), in pair order after (0, 1)'s open row:
        // hours 0-3 closed, hour 4 open, moved a window on.
        for (part, kind, at) in [
            ("proven closed", 0, 1),
            ("proven open, closed since", 0, 3),
            ("unproven closed", 0, 4),
            ("open", 3, 5),
        ] {
            let (mut ctl, mut state) = marked_session(36);
            corrupt_adaptive_row(&mut state.adaptive, kind, at, 0);
            let mut full = state.clone();
            full.mark = ProofMark::default();
            let marked = ctl.stream_reconcile(&mut state).unwrap_err();
            let marked_audit = last_audit(&ctl, "reconcile-divergence");
            let unmarked = ctl.stream_reconcile(&mut full).unwrap_err();
            assert_eq!(marked, unmarked, "{part} adaptive row");
            assert_eq!(marked_audit, last_audit(&ctl, "reconcile-divergence"), "{part} row");
            let StreamError::Divergence { artifact, .. } = marked else {
                panic!("{part} adaptive row: expected a divergence, got {marked}");
            };
            assert_eq!(artifact, "adaptive-bwlog", "{part} adaptive row");
        }
    }

    /// A pair that changes class after a proof sends the next adaptive
    /// proof back to the whole lake (`adaptive_from` reads 0), with a full
    /// proof's hash: its closed rows were chunked under the old class. The
    /// proof after that resumes again.
    #[test]
    fn a_class_flip_after_a_proof_gets_a_full_adaptive_proof() {
        let mut ctl = controller();
        let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
        let mut state = StreamState::new(cfg, small_fine());
        // Pair (0, 1) is flat for two hours, then swings; (3, 1) stays flat.
        let log: Vec<BandwidthRecord> = (0..48u32)
            .flat_map(|e| {
                let ts = Ts(u64::from(e) * EPOCH_SECS);
                let swing = if e % 2 == 0 { 10.0 } else { 500.0 };
                let gbps = if e < 24 { 100.0 } else { swing };
                [
                    BandwidthRecord { ts, src: 0, dst: 1, gbps },
                    BandwidthRecord { ts, src: 3, dst: 1, gbps: 40.0 },
                ]
            })
            .collect();
        let deltas = TelemetryDelta::split_epochs(&log, 0);
        let mut prove = |state: &mut StreamState, from: usize, to: usize| {
            ctl.stream_run(state, &deltas[from..to], &[]).unwrap();
            let mut full = state.clone();
            full.mark = ProofMark::default();
            let hash = ctl.stream_reconcile(state).unwrap().hash;
            let proof = last_audit(&ctl, "reconcile");
            assert_eq!(hash, ctl.stream_reconcile(&mut full).unwrap().hash);
            assert_eq!(hash, state.fingerprint());
            let read = |key| evidence(&proof, key).unwrap_or_default().to_string();
            (read("adaptive_from"), read("adaptive_walked"))
        };
        assert_eq!(prove(&mut state, 0, 24), ("0".into(), "48".into()));
        assert!(state.adaptive.volatile_pairs().is_empty());
        assert_eq!(prove(&mut state, 24, 30), ("0".into(), "60".into()), "(0, 1) flipped");
        assert_eq!(state.adaptive.volatile_pairs(), [(0, 1)]);
        assert_eq!(prove(&mut state, 30, 48), ("60".into(), "36".into()));
        assert_eq!(state.adaptive.volatile_pairs(), [(0, 1)]);
    }

    /// A mark whose skipped rows no longer hash to its state gets a full
    /// proof, and the hash it reports is the fingerprint from the first
    /// row, not one continued from the mark's state.
    #[test]
    fn a_mark_that_does_not_hash_gets_a_full_proof_and_hash() {
        let (mut ctl, mut state) = marked_session(36);
        let mark = state.mark.uniform.as_mut().expect("a proof leaves a mark");
        mark.open.fnv ^= 1;
        let hash = ctl.stream_reconcile(&mut state).unwrap().hash;
        assert_eq!(evidence(&last_audit(&ctl, "reconcile"), "proved_from"), Some("0"));
        assert_eq!(hash, state.fingerprint());
    }

    /// A record that lands in the window open at the last proof, even one
    /// sealed since, sends the next proof back to the frontier's point:
    /// proven after 2.5 hours, or after 3 hours with one more record in
    /// hour 2 before the stream moves on.
    #[test]
    fn a_record_in_the_proven_open_window_falls_back_to_the_frontier() {
        let (mut ctl, mut state) = marked_session(30);
        assert_proved_from(&mut ctl, &mut state, 2 * HOUR, 90);

        let mut ctl = controller();
        let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
        let mut state = StreamState::new(cfg, small_fine());
        let mut deltas = TelemetryDelta::split_epochs(&mixed_log(60), 0);
        let (proven, later) = deltas.split_at_mut(36);
        ctl.stream_run(&mut state, proven, &[]).unwrap();
        ctl.stream_reconcile(&mut state).unwrap();
        let late = BandwidthRecord { ts: Ts(35 * EPOCH_SECS), src: 3, dst: 1, gbps: 1.0 };
        later[0].records.insert(0, late);
        ctl.stream_run(&mut state, later, &[]).unwrap();
        assert_eq!(state.time.frontier, 4);
        let mark = state.mark.uniform.clone().expect("a proof leaves a mark");
        assert!(mark.open.rows <= state.time.sealed.len());
        let mut full = state.clone();
        full.mark = ProofMark::default();
        let hash = ctl.stream_reconcile(&mut state).unwrap().hash;
        assert_eq!(evidence(&last_audit(&ctl, "reconcile"), "proved_from"), Some("7200"));
        assert_eq!(hash, ctl.stream_reconcile(&mut full).unwrap().hash);
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        assert_eq!(fingerprint(&[]), FNV_OFFSET);
        assert_eq!(fingerprint(&[b"ab"]), fingerprint(&[b"a", b"b"]));
        assert_ne!(fingerprint(&[b"ab"]), fingerprint(&[b"ba"]));
        assert_eq!(fingerprint_hex(&[b"x"]).len(), 16);
    }
}
