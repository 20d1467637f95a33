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
//! * the batch oracle summarizes each cell's samples *sorted* under
//!   `f64::total_cmp` (`SummaryStats::of` sorts, then calls
//!   `SummaryStats::of_sorted`), and the incremental coarseners keep every
//!   sample buffer in that same sorted order. The sorted sequence of a
//!   multiset of `f64`s is unique bit for bit, so a dirty cell summarized
//!   by `of_sorted` sums the same samples in the same order as the batch
//!   pass — whatever order they arrived in;
//! * there is one summariser: both paths end in `SummaryStats::of_sorted`;
//! * both logs are dense sorted tables keyed in batch order —
//!   `(window, pair_key)` cells for the uniform log, `(src, dst)` pairs
//!   for the adaptive one — merge-joined against each delta walked in
//!   that order by the batch oracles' own run walk, so materialized row
//!   order equals batch row order;
//! * the fine graph and CDG are append-only, and contraction orders teams
//!   and coarse edges by first appearance, so appended churn lands where
//!   a rebuild would put it.
//!
//! **Sealing.** Telemetry is append-only in time (`stream_tick` rejects a
//! record that regresses behind the lake), so once a delta reaches a
//! window, no later record can land in an earlier one. The uniform log
//! keeps sample buffers only for *open* windows — the delta's last window
//! and later — and seals every earlier window into immutable rows in
//! batch order, dropping its buffers: its memory is one window of samples
//! plus the coarse rows. A record behind the sealed frontier is a typed
//! [`StreamError::OutOfOrder`] that leaves the state untouched. The
//! adaptive log classifies each pair over its whole history, so it keeps
//! every sample; reconciliation still recomputes from the whole lake.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};
use smn_datalake::ingest::ingest_bandwidth_profiled;
use smn_depgraph::coarse::{CdgDeltaStats, CoarseDepGraph};
use smn_depgraph::delta::{DeltaError, GraphDelta};
use smn_depgraph::fine::FineDepGraph;
use smn_telemetry::delta::TelemetryDelta;
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::series::{key_pair, pair_key, sort_total, walk_runs, Statistic, SummaryStats};
use smn_telemetry::time::{Ts, DAY, HOUR};
use smn_topology::artifact::{under, Step, Violation};
use smn_topology::path;

use crate::bwlogs::{
    encode_coarse_log, row_wire_bytes, AdaptiveCoarsener, CoarseBwRecord, TimeCoarsener,
};
use crate::controller::SmnController;

/// Artifact kind tag of a serialized [`DeltaJournal`].
pub const DELTA_JOURNAL_KIND: &str = "delta-journal";

/// Current delta-journal schema version.
pub const DELTA_JOURNAL_SCHEMA: u64 = 1;

// ---- fingerprints ------------------------------------------------------

/// FNV-1a offset basis (the seed of every reconciliation fingerprint).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Feed one coarse row's wire bytes ([`row_wire_bytes`]) to a running
/// FNV-1a state: the fingerprint of a log is its encoding's, with no
/// encoding built.
fn fnv1a_row(hash: &mut u64, row: &CoarseBwRecord) {
    row_wire_bytes(row, |b| fnv1a(hash, b));
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

/// Overwrite `values` with the `stats` of `summary`, reusing its buffer.
fn write_stats(values: &mut Vec<f64>, stats: &[Statistic], summary: &SummaryStats) {
    values.clear();
    values.extend(stats.iter().map(|&st| summary.get(st)));
}

/// The coarse row of `(src, dst)` for window index `w` of `window`-second
/// windows.
fn coarse_row(
    (src, dst): (u32, u32),
    w: u64,
    window: u64,
    stats: &[Statistic],
    summary: &SummaryStats,
) -> CoarseBwRecord {
    CoarseBwRecord {
        window_start: Ts(w * window),
        window_secs: window,
        src,
        dst,
        values: stats.iter().map(|&st| summary.get(st)).collect(),
    }
}

/// First index at or after `from` whose key is not below `key`. Steps
/// double until one lands on or past `key`, then a binary search covers
/// the last step, so walking a sorted table with ascending probes costs
/// `O(log gap)` per probe — one comparison when consecutive probes hit
/// consecutive keys, as a steady tick's pairs do.
fn gallop<K: Ord>(keys: &[K], from: usize, key: &K) -> usize {
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
fn splice_sorted<T>(table: &mut Vec<T>, fresh: Vec<(usize, T)>) {
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

/// Merge `run` (ascending under `f64::total_cmp`) into the sorted
/// `samples`. A one-sample run is a sorted insert; a longer one is
/// appended and the cell re-sorted by [`sort_total`], which leaves the
/// bits any `total_cmp` sort would.
fn merge_samples(samples: &mut Vec<f64>, run: &[f64]) {
    if let [v] = run {
        let at = samples.partition_point(|x| x.total_cmp(v).is_le());
        samples.insert(at, *v);
    } else {
        samples.extend_from_slice(run);
        sort_total(samples);
    }
}

/// Whether `values` ascend under `f64::total_cmp`.
fn is_total_sorted(values: &[f64]) -> bool {
    values.is_sorted_by(|a, b| a.total_cmp(b).is_le())
}

/// Rules a coarse row breaks inside a log of `window`-second windows
/// keeping `n_stats` statistics; `at` is the row's path.
fn row_violations(
    row: &CoarseBwRecord,
    window: u64,
    n_stats: usize,
    at: &[Step],
) -> Vec<Violation> {
    let mut out = Vec::new();
    if row.window_secs != window || !row.window_start.0.is_multiple_of(window) {
        out.push(Violation::new(
            "artifact/coarse-log-shape",
            at,
            format!(
                "row window {}s starting at {} is not a {window}s window of this log",
                row.window_secs, row.window_start.0
            ),
            "every row of a coarse log covers one aligned window of the log's size",
        ));
    }
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

/// One open (window, pair) cell of an [`IncrementalCoarseLog`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OpenCell {
    /// The cell's samples, ascending under `f64::total_cmp`.
    samples: Vec<f64>,
    /// The cell's materialized row.
    row: CoarseBwRecord,
}

/// Open cells one window's merge-join missed, each with the index of the
/// cell it is spliced in before.
#[derive(Default)]
struct Misses {
    keys: Vec<(usize, (u64, u64))>,
    cells: Vec<(usize, OpenCell)>,
}

/// Incremental state of a [`TimeCoarsener`], split at a **sealed
/// frontier** window index.
///
/// * Windows before `frontier` are sealed: no later record may land in
///   them, so their rows sit in `sealed`, immutable and in batch order,
///   and their samples are gone.
/// * Windows from `frontier` on are open. Each open cell is keyed
///   `(window index, pair_key)` — the time oracle's sort key — in `keys`,
///   ascending, and the parallel `cells` holds its samples (kept sorted
///   under `f64::total_cmp`, so a dirty cell goes straight to
///   [`SummaryStats::of_sorted`]) and its row.
///
/// Every open window follows every sealed one, so `sealed` then the open
/// rows is batch row order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalCoarseLog {
    window_secs: u64,
    stats: Vec<Statistic>,
    frontier: u64,
    sealed: Vec<CoarseBwRecord>,
    keys: Vec<(u64, u64)>,
    cells: Vec<OpenCell>,
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
            sealed: Vec::new(),
            keys: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Number of coarse rows currently materialized.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.sealed.len() + self.cells.len()
    }

    /// Sealed rows, then open rows: batch order.
    fn all_rows(&self) -> impl Iterator<Item = &CoarseBwRecord> {
        self.sealed.iter().chain(self.cells.iter().map(|c| &c.row))
    }

    /// The coarse log, in batch order (`window_start`, `src`, `dst`).
    #[must_use]
    pub fn coarse_log(&self) -> Vec<CoarseBwRecord> {
        self.all_rows().cloned().collect()
    }

    /// Wire encoding of the coarse log — the bytes reconciliation
    /// compares against the batch oracle's encoding.
    #[must_use]
    pub fn encode(&self) -> bytes::Bytes {
        encode_coarse_log(self.all_rows())
    }

    /// Whether this log is, row for row and bit for bit, the log `time`
    /// coarsens `records` into. The time oracle's cell walk is compared
    /// with the rows in place, so no batch row and no encoding is built.
    /// Its rows are stored in batch order, so this is exactly
    /// `self.encode() == encode_coarse_log(&time.coarsen_records(records))`.
    fn matches_batch(&self, time: &TimeCoarsener, records: &[BandwidthRecord]) -> bool {
        let mut rows = self.all_rows();
        let mut same = true;
        time.for_each_cell(
            records,
            |_| true,
            |w, pair, samples| {
                let Some(stats) = SummaryStats::of_sorted(samples) else { return };
                same = same && rows.next().is_some_and(|row| time.is_row(row, w, pair, &stats));
            },
        );
        same && rows.next().is_none()
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
    /// is touched.
    fn admit(&self, delta: &TelemetryDelta) -> Result<(), StreamError> {
        let Some(late) = delta.records.iter().find(|r| r.ts.0 / self.window_secs < self.frontier)
        else {
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

    /// Seal every window before `w`: its rows move behind the frontier and
    /// its sample buffers are dropped.
    fn seal_before(&mut self, w: u64) {
        if w <= self.frontier {
            return;
        }
        let n = self.keys.partition_point(|&(kw, _)| kw < w);
        self.keys.drain(..n);
        self.sealed.extend(self.cells.drain(..n).map(|c| c.row));
        self.frontier = w;
    }

    /// Merge-join one cell's new samples, sorted under `f64::total_cmp`,
    /// into the open cells, walking `cursor` forward: a hit merges them and
    /// recomputes the row in place, a miss joins `misses`, to be spliced
    /// in by [`IncrementalCoarseLog::settle`].
    fn merge_cell(
        &mut self,
        (w, pair): (u64, u64),
        samples: &[f64],
        cursor: &mut usize,
        misses: &mut Misses,
    ) {
        *cursor = gallop(&self.keys, *cursor, &(w, pair));
        let hit =
            self.keys.get(*cursor).filter(|&&k| k == (w, pair)).and(self.cells.get_mut(*cursor));
        if let Some(cell) = hit {
            merge_samples(&mut cell.samples, samples);
            if let Some(s) = SummaryStats::of_sorted(&cell.samples) {
                write_stats(&mut cell.row.values, &self.stats, &s);
            }
        } else if let Some(s) = SummaryStats::of_sorted(samples) {
            let row = coarse_row(key_pair(pair), w, self.window_secs, &self.stats, &s);
            misses.keys.push((*cursor, (w, pair)));
            misses.cells.push((*cursor, OpenCell { samples: samples.to_vec(), row }));
        }
    }

    /// Splice `misses` in, then seal every window before `w`.
    fn settle(&mut self, misses: &mut Misses, w: u64) {
        splice_sorted(&mut self.keys, std::mem::take(&mut misses.keys));
        splice_sorted(&mut self.cells, std::mem::take(&mut misses.cells));
        self.seal_before(w);
    }

    /// The log is one `apply_delta` could have left: a non-zero window
    /// and at least one statistic; sealed rows strictly ascending in
    /// batch order and all before the frontier; open keys strictly
    /// ascending, at or after the frontier, one cell each, with a
    /// non-empty sample buffer sorted under `f64::total_cmp` and a row at
    /// the key's window and pair; every row one aligned window of the
    /// log's size with one value per statistic.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        if let Some(v) = time_log_shape(self.window_secs, &self.stats) {
            out.push(v);
            return out;
        }
        let window = self.window_secs;
        let order = |at: &[Step], message: String| {
            Violation::new(
                "artifact/coarse-log-order",
                at,
                message,
                "rows and open cells ascend strictly in batch order, sealed windows \
                 before the frontier and open ones at or after it",
            )
        };
        let mut prev = None;
        for (i, row) in self.sealed.iter().enumerate() {
            let at = path!["sealed", i];
            out.extend(row_violations(row, window, self.stats.len(), &at));
            let key = (row.window_start.0 / window, row.src, row.dst);
            if prev >= Some(key) {
                out.push(order(&at, format!("sealed row {key:?} does not follow {prev:?}")));
            }
            if key.0 >= self.frontier {
                out.push(order(
                    &at,
                    format!(
                        "sealed row in window {} is not before the frontier {}",
                        key.0, self.frontier
                    ),
                ));
            }
            prev = Some(key);
        }
        if self.keys.len() != self.cells.len() {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["cells"],
                format!("{} open keys but {} open cells", self.keys.len(), self.cells.len()),
                "keys and cells are parallel vectors",
            ));
        }
        let mut prev = None;
        for (i, (&(w, pair), cell)) in self.keys.iter().zip(&self.cells).enumerate() {
            if prev >= Some((w, pair)) {
                out.push(order(
                    &path!["keys", i],
                    format!("open key {:?} does not follow {prev:?}", (w, pair)),
                ));
            }
            if w < self.frontier {
                out.push(order(
                    &path!["keys", i],
                    format!("open cell in window {w} is behind the frontier {}", self.frontier),
                ));
            }
            prev = Some((w, pair));
            if cell.samples.is_empty() || !is_total_sorted(&cell.samples) {
                out.push(Violation::new(
                    "artifact/coarse-log-samples",
                    path!["cells", i, "samples"],
                    format!("open cell {:?} has an empty or unsorted sample buffer", (w, pair)),
                    "an open cell holds its samples ascending under f64::total_cmp",
                ));
            }
            let at = path!["cells", i, "row"];
            out.extend(row_violations(&cell.row, window, self.stats.len(), &at));
            let (src, dst) = key_pair(pair);
            if (cell.row.window_start.0 / window, cell.row.src, cell.row.dst) != (w, src, dst) {
                out.push(Violation::new(
                    "artifact/coarse-log-shape",
                    at,
                    format!("open cell {:?} holds the row of another cell", (w, src, dst)),
                    "an open cell's row sits at the cell's window and pair",
                ));
            }
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
    /// sorted samples, and are merge-joined against the open cells. When
    /// the walk enters a window, the misses so far are spliced in and
    /// every earlier window is sealed, so a bulk load holds one window's
    /// sample buffers at once.
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
        state.admit(delta)?;
        let mut misses = Misses::default();
        let (mut open, mut cursor, mut dirty) = (None, 0usize, 0usize);
        self.for_each_cell(
            &delta.records,
            |_| true,
            |w, pair, samples| {
                if open != Some(w) {
                    state.settle(&mut misses, w);
                    (open, cursor) = (Some(w), 0);
                }
                state.merge_cell((w, pair), samples, &mut cursor, &mut misses);
                dirty += 1;
            },
        );
        if let Some(w) = open {
            state.settle(&mut misses, w);
        }
        Ok(DeltaApplyStats {
            appended: delta.len(),
            dirty_cells: dirty,
            recomputed_rows: dirty,
            total_rows: state.rows(),
        })
    }
}

/// Per-pair incremental state of an [`AdaptiveCoarsener`].
///
/// Volatility classification needs the pair's full history, so the state
/// keeps every sample — as two parallel vectors sorted by value under
/// `f64::total_cmp`. The whole run classifies the pair, and a window's
/// sorted samples are the run filtered by timestamp, so neither needs a
/// sort.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct PairState {
    /// Sample values, ascending under `f64::total_cmp`.
    values: Vec<f64>,
    /// Sample timestamps (seconds), parallel to `values`.
    ts: Vec<u64>,
    /// Current classification.
    volatile: bool,
    /// This pair's coarse rows under its current window, ascending by
    /// window.
    rows: Vec<CoarseBwRecord>,
}

/// Buffers one adaptive `apply_delta` reuses across pairs.
#[derive(Default)]
struct PairScratch {
    /// The pair's new samples, sorted by value.
    fresh: Vec<(f64, u64)>,
    /// Window indices the delta touched.
    touched: Vec<u64>,
    /// `(window index, value)` of a rebuild, bucketed by a stable sort.
    bucketed: Vec<(u64, f64)>,
    /// One window's sorted samples.
    cell: Vec<f64>,
}

impl PairState {
    /// Merge `run` (sorted by value) into the sorted samples, draining it.
    /// A one-sample run is a sorted insert; a longer one grows both
    /// vectors and merges from the back, so every sample moves at most
    /// once.
    fn merge(&mut self, run: &mut Vec<(f64, u64)>) {
        if let [(v, t)] = run.as_slice() {
            let at = self.values.partition_point(|x| x.total_cmp(v).is_le());
            self.values.insert(at, *v);
            self.ts.insert(at, *t);
            run.clear();
            return;
        }
        let mut old = self.values.len();
        let mut at = old + run.len();
        self.values.resize(at, 0.0);
        self.ts.resize(at, 0);
        while let Some(&(v, t)) = run.last() {
            at -= 1;
            let older =
                old.checked_sub(1).and_then(|p| Some((p, *self.values.get(p)?, *self.ts.get(p)?)));
            let (value, stamp) = match older {
                Some((p, ov, ot)) if ov.total_cmp(&v).is_gt() => {
                    old = p;
                    (ov, ot)
                }
                _ => {
                    run.pop();
                    (v, t)
                }
            };
            if let (Some(dv), Some(dt)) = (self.values.get_mut(at), self.ts.get_mut(at)) {
                *dv = value;
                *dt = stamp;
            }
        }
    }

    /// Rebuild every row under `window`; returns the row count. `whole`
    /// summarizes all the pair's samples: when they share one window it
    /// is that window's summary, bit for bit.
    fn rebuild_rows(
        &mut self,
        pair: (u32, u32),
        window: u64,
        stats: &[Statistic],
        whole: &SummaryStats,
        scratch: &mut PairScratch,
    ) -> usize {
        self.rows.clear();
        let mut windows = self.ts.iter().map(|t| t / window);
        let first = windows.next();
        if let Some(w) = first.filter(|&w| windows.all(|x| x == w)) {
            self.rows.push(coarse_row(pair, w, window, stats, whole));
            return 1;
        }
        scratch.bucketed.clear();
        scratch.bucketed.extend(self.ts.iter().zip(&self.values).map(|(&t, &v)| (t / window, v)));
        scratch.bucketed.sort_by_key(|&(w, _)| w);
        for bucket in scratch.bucketed.chunk_by(|a, b| a.0 == b.0) {
            scratch.cell.clear();
            scratch.cell.extend(bucket.iter().map(|&(_, v)| v));
            if let (Some(&(w, _)), Some(s)) =
                (bucket.first(), SummaryStats::of_sorted(&scratch.cell))
            {
                self.rows.push(coarse_row(pair, w, window, stats, &s));
            }
        }
        self.rows.len()
    }

    /// Recompute the row of window index `w` from the samples it holds,
    /// overwriting an existing row in place. `cell` is reused across
    /// calls. Returns the rows recomputed (0 or 1).
    fn refresh_row(
        &mut self,
        pair: (u32, u32),
        w: u64,
        window: u64,
        stats: &[Statistic],
        cell: &mut Vec<f64>,
    ) -> usize {
        cell.clear();
        cell.extend(
            self.values.iter().zip(&self.ts).filter(|&(_, &t)| t / window == w).map(|(&v, _)| v),
        );
        let Some(s) = SummaryStats::of_sorted(cell) else { return 0 };
        match self.rows.binary_search_by_key(&(w * window), |r| r.window_start.0) {
            Ok(i) => {
                if let Some(row) = self.rows.get_mut(i) {
                    write_stats(&mut row.values, stats, &s);
                }
            }
            Err(i) => self.rows.insert(i, coarse_row(pair, w, window, stats, &s)),
        }
        1
    }

    /// Rules this pair's state breaks under `window` and `n_stats`
    /// statistics; paths are relative to the pair.
    fn violations(&self, pair: (u32, u32), window: u64, n_stats: usize) -> Vec<Violation> {
        let mut out = Vec::new();
        if self.values.is_empty() || !is_total_sorted(&self.values) {
            out.push(Violation::new(
                "artifact/coarse-log-samples",
                path!["values"],
                format!("pair {pair:?} has an empty or unsorted history"),
                "a pair holds its samples ascending under f64::total_cmp",
            ));
        }
        if self.ts.len() != self.values.len() {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["ts"],
                format!("{} timestamps for {} samples", self.ts.len(), self.values.len()),
                "values and ts are parallel vectors",
            ));
        }
        if self.rows.is_empty() {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["rows"],
                format!("pair {pair:?} has samples but no rows"),
                "every window holding a sample has a row",
            ));
        }
        let mut prev = None;
        for (j, row) in self.rows.iter().enumerate() {
            let at = path!["rows", j];
            out.extend(row_violations(row, window, n_stats, &at));
            if (row.src, row.dst) != pair {
                out.push(Violation::new(
                    "artifact/coarse-log-shape",
                    at.clone(),
                    format!("pair {pair:?} holds a row of {:?}", (row.src, row.dst)),
                    "a pair's rows are its own",
                ));
            }
            if prev >= Some(row.window_start) {
                out.push(Violation::new(
                    "artifact/coarse-log-order",
                    at,
                    format!("row at {:?} does not follow {prev:?}", row.window_start),
                    "a pair's rows ascend strictly by window",
                ));
            }
            prev = Some(row.window_start);
        }
        out
    }
}

/// Incremental state of an [`AdaptiveCoarsener`]: a dense pair table —
/// `keys` ascending with the parallel `pairs` holding each pair's
/// history, classification and rows — plus the total row count. Only
/// pairs a delta touches are re-classified, and only the windows it
/// touches are re-summarized — a pair's volatility is a function of its
/// own history alone, so untouched pairs cannot flip class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalAdaptiveLog {
    cv_threshold: f64,
    stable_window: u64,
    volatile_window: u64,
    stats: Vec<Statistic>,
    keys: Vec<(u32, u32)>,
    pairs: Vec<PairState>,
    rows: usize,
}

impl IncrementalAdaptiveLog {
    /// Total coarse rows across all pairs.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Currently-volatile pairs, sorted (mirrors
    /// [`AdaptiveCoarsener::volatile_pairs`]).
    #[must_use]
    pub fn volatile_pairs(&self) -> Vec<(u32, u32)> {
        self.keys.iter().zip(&self.pairs).filter(|(_, p)| p.volatile).map(|(&k, _)| k).collect()
    }

    /// Every pair's rows in batch order (`window_start`, `src`, `dst`) —
    /// pairs are disjoint across rows, so the sort key is unique and the
    /// order fully determined.
    fn sorted_rows(&self) -> Vec<&CoarseBwRecord> {
        let mut out: Vec<&CoarseBwRecord> = self.pairs.iter().flat_map(|p| &p.rows).collect();
        out.sort_by_key(|r| (r.window_start, r.src, r.dst));
        out
    }

    /// The merged coarse log in batch order (`window_start`, `src`,
    /// `dst`).
    #[must_use]
    pub fn coarse_log(&self) -> Vec<CoarseBwRecord> {
        self.sorted_rows().into_iter().cloned().collect()
    }

    /// Wire encoding of the merged coarse log.
    #[must_use]
    pub fn encode(&self) -> bytes::Bytes {
        encode_coarse_log(self.sorted_rows())
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

    /// Whether this log holds, row for row and bit for bit, the rows
    /// `adaptive` coarsens `records` into. The adaptive oracle's rows come
    /// pair by pair, each pair's in window order, and are compared in
    /// place with the pair table's rows (pairs with no rows skipped), so
    /// no batch row and no encoding is built. For a log that satisfies
    /// [`IncrementalAdaptiveLog::violations`] this is exactly
    /// `self.encode() == encode_coarse_log(&adaptive.coarsen_records(..))`;
    /// it also refuses a pair whose rows are out of window order, which
    /// `violations()` flags.
    fn matches_batch(&self, adaptive: &AdaptiveCoarsener, records: &[BandwidthRecord]) -> bool {
        let mut rows = self.pairs.iter().flat_map(|p| &p.rows);
        let mut same = true;
        adaptive.for_each_row(records, |class, w, pair, stats| {
            same = same && rows.next().is_some_and(|row| class.is_row(row, w, pair, stats));
        });
        same && rows.next().is_none()
    }

    /// The log is one `apply_delta` could have left: non-zero windows and
    /// at least one statistic; keys strictly ascending, one pair state
    /// each; every pair's history non-empty, sorted under
    /// `f64::total_cmp` and paired with as many timestamps; its rows its
    /// own, ascending, each one aligned window of its class with one value
    /// per statistic; and the row count the sum of the pairs' rows.
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
        let mut prev = None;
        for (i, (&pair, ps)) in self.keys.iter().zip(&self.pairs).enumerate() {
            if prev >= Some(pair) {
                out.push(Violation::new(
                    "artifact/coarse-log-order",
                    path!["keys", i],
                    format!("pair {pair:?} does not follow {prev:?}"),
                    "the pair table's keys ascend strictly",
                ));
            }
            prev = Some(pair);
            let window = if ps.volatile { self.volatile_window } else { self.stable_window };
            out.extend(under(
                &path!["pairs", i],
                PairState::violations(ps, pair, window, self.stats.len()),
            ));
        }
        let counted: usize = self.pairs.iter().map(|p| p.rows.len()).sum();
        if counted != self.rows {
            out.push(Violation::new(
                "artifact/coarse-log-shape",
                path!["rows"],
                format!("row count {} but the pairs hold {counted} rows", self.rows),
                "the row count is kept as the sum of the pairs' rows",
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
            rows: 0,
        }
    }

    /// Apply one telemetry delta in place: merge each touched pair's new
    /// samples into its sorted history, re-classify it, and re-summarize
    /// only the windows the delta touched — or all of its rows when the
    /// pair is new or flips class. Byte-identical (under
    /// [`IncrementalAdaptiveLog::encode`]) to a batch
    /// [`AdaptiveCoarsener::coarsen`] over the concatenated log.
    ///
    /// The delta is walked by pair ([`walk_runs`], each pair's records in
    /// arrival order) against the pair table with a galloping cursor; new
    /// pairs are spliced in after the walk.
    ///
    /// # Errors
    /// [`StreamError::StateMismatch`] when `state` was built by a
    /// different configuration.
    pub fn apply_delta(
        &self,
        state: &mut IncrementalAdaptiveLog,
        delta: &TelemetryDelta,
    ) -> Result<DeltaApplyStats, StreamError> {
        self.apply_delta_visiting(state, delta, |_| {})
    }

    /// [`AdaptiveCoarsener::apply_delta`], handing `on_pair` each pair
    /// the delta touches, once and in ascending order.
    fn apply_delta_visiting(
        &self,
        state: &mut IncrementalAdaptiveLog,
        delta: &TelemetryDelta,
        mut on_pair: impl FnMut((u32, u32)),
    ) -> Result<DeltaApplyStats, StreamError> {
        state.built_for(self)?;
        let mut scratch = PairScratch::default();
        let mut fresh_keys = Vec::new();
        let mut fresh_pairs = Vec::new();
        let (mut cursor, mut dirty, mut recomputed) = (0usize, 0usize, 0usize);
        let pair_of = |r: &BandwidthRecord| pair_key(r.src, r.dst);
        walk_runs(&delta.records, pair_of, Some, |key, run| {
            let pair = key_pair(key);
            on_pair(pair);
            dirty += 1;
            cursor = gallop(&state.keys, cursor, &pair);
            let hit =
                state.keys.get(cursor).filter(|&&k| k == pair).and(state.pairs.get_mut(cursor));
            if let Some(ps) = hit {
                let before = ps.rows.len();
                recomputed += self.absorb(ps, pair, run, &mut scratch);
                state.rows = (state.rows + ps.rows.len()).saturating_sub(before);
            } else {
                let mut ps = PairState::default();
                recomputed += self.absorb(&mut ps, pair, run, &mut scratch);
                state.rows += ps.rows.len();
                fresh_keys.push((cursor, pair));
                fresh_pairs.push((cursor, ps));
            }
        });
        splice_sorted(&mut state.keys, fresh_keys);
        splice_sorted(&mut state.pairs, fresh_pairs);
        Ok(DeltaApplyStats {
            appended: delta.len(),
            dirty_cells: dirty,
            recomputed_rows: recomputed,
            total_rows: state.rows,
        })
    }

    /// Merge one pair's run of new records into its state, re-classify
    /// the pair and recompute the rows the run dirtied. Returns the rows
    /// recomputed.
    ///
    /// Kept out of line: inlined into the walk's visitor, the adaptive
    /// apply of a one-epoch 300-DC delta measured a few percent slower.
    #[inline(never)]
    fn absorb(
        &self,
        ps: &mut PairState,
        pair: (u32, u32),
        run: &[&BandwidthRecord],
        scratch: &mut PairScratch,
    ) -> usize {
        let is_new = ps.values.is_empty();
        scratch.fresh.clear();
        scratch.fresh.extend(run.iter().map(|r| (r.gbps, r.ts.0)));
        scratch.fresh.sort_by(|a, b| a.0.total_cmp(&b.0));
        ps.merge(&mut scratch.fresh);
        let Some(whole) = SummaryStats::of_sorted(&ps.values) else { return 0 };
        let was_volatile = ps.volatile;
        ps.volatile = self.is_volatile(&whole);
        let window = if ps.volatile { self.volatile_window } else { self.stable_window };
        if is_new || ps.volatile != was_volatile {
            return ps.rebuild_rows(pair, window, &self.stats, &whole, scratch);
        }
        scratch.touched.clear();
        scratch.touched.extend(run.iter().map(|r| r.ts.0 / window));
        scratch.touched.sort_unstable();
        scratch.touched.dedup();
        // One touched window that already held the pair's only row now
        // holds its whole history: its sorted samples are `values`
        // itself, so the classification summary is its summary.
        if let ([w], [row]) = (scratch.touched.as_slice(), ps.rows.as_mut_slice()) {
            if row.window_start.0 == w * window {
                write_stats(&mut row.values, &self.stats, &whole);
                return 1;
            }
        }
        let mut recomputed = 0;
        for &w in &scratch.touched {
            recomputed += ps.refresh_row(pair, w, window, &self.stats, &mut scratch.cell);
        }
        recomputed
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
        StreamState { config, next_tick: 0, fine, cdg, time, adaptive, last_reconcile: None }
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
    /// silent misplacement on the next tick.
    ///
    /// # Errors
    /// [`StreamError::Checkpoint`] with the first violation found.
    // smn-lint: allow(deep/determinism-taint) -- name-index entries are sorted before they are checked
    pub fn restore(checkpoint: &str) -> Result<StreamState, StreamError> {
        let state: StreamState = serde_json::from_str(checkpoint).map_err(|e| {
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
        match violations.into_iter().next() {
            Some(v) => Err(StreamError::Checkpoint(v)),
            None => Ok(state),
        }
    }

    /// Refuse coarse logs built for another configuration than `config`
    /// (its fields are public, so a caller can change it between ticks).
    fn built_by_config(&self) -> Result<(), StreamError> {
        self.time.built_for(self.config.window_secs, &self.config.stats)?;
        self.adaptive.built_for(&self.config.adaptive)
    }

    /// Refuse, while the lake is still untouched, every tick whose
    /// coarse-log applies would fail: a configuration a coarsener
    /// asserts against, logs built for another configuration, or a
    /// record in a sealed window. After this neither apply can fail.
    fn admit(&self, delta: &TelemetryDelta) -> Result<(), StreamError> {
        self.config.admit()?;
        self.built_by_config()?;
        self.time.admit(delta)
    }

    /// Combined FNV-1a fingerprint over all three incremental artifacts —
    /// what reconciliation stamps into audits and delta journals: the
    /// fingerprint of the uniform log's encoding, then the adaptive log's,
    /// then the CDG's canonical bytes, streamed row by row with no
    /// encoding built.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut hash = FNV_OFFSET;
        for row in self.time.all_rows().chain(self.adaptive.sorted_rows()) {
            fnv1a_row(&mut hash, row);
        }
        fnv1a(&mut hash, &self.cdg.canonical_bytes());
        format!("{hash:016x}")
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

        // The two applies stay one after the other: forked, they raised
        // the 1000-DC benchmark's peak RSS by 5-8% (DESIGN §14).
        let mut pairs = Vec::new();
        let (time, adaptive) = {
            let mut phase = obs.phase("coarsen/apply_delta");
            let t = {
                let _time = obs.phase("coarsen/time");
                state.config.time_coarsener().apply_delta(&mut state.time, telemetry)?
            };
            let a = {
                let _adaptive = obs.phase("coarsen/adaptive");
                let visit = |pair| pairs.push(pair);
                state.config.adaptive.apply_delta_visiting(&mut state.adaptive, telemetry, visit)?
            };
            phase.field("appended", t.appended);
            phase.field("dirty_cells", t.dirty_cells);
            phase.field("adaptive_dirty_pairs", a.dirty_cells);
            (t, a)
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
    /// The proof is one streaming pass: each oracle's recomputed rows are
    /// compared with the incremental rows as they come, and the proven
    /// state's hash is [`StreamState::fingerprint`], so success builds no
    /// batch log and no encoding. Only a divergence rebuilds the batch
    /// log, for its audited hashes and diff. The two logs share no state,
    /// so their proofs run side by side ([`smn_obs::Obs::fork`]) under
    /// the one lake read guard: the `reconcile/time-oracle` child phase
    /// is the time oracle's walk and its comparison, on a scoped thread,
    /// and `reconcile/adaptive-oracle` the adaptive oracle's walk and
    /// comparison, on the caller. A divergence of the uniform log is
    /// reported first. `reconcile/compare` is the CDG rebuild and
    /// comparison and the fingerprint.
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

        // The batch oracles walk the lake's borrowed slice; the read guard
        // drops before the controller adopts the CDG below.
        let lake_records = {
            let lake = self.clds().bandwidth.read();
            let full = lake.all();
            let time = state.config.time_coarsener();
            let adaptive = &state.config.adaptive;
            // The two proofs share no state: run them side by side.
            let (time_proven, adaptive_proven) = obs.fork(
                ("reconcile/time-oracle", || state.time.matches_batch(&time, full)),
                ("reconcile/adaptive-oracle", || state.adaptive.matches_batch(adaptive, full)),
            );
            // Only a divergence rebuilds the batch log, for the audit; the
            // uniform log is reported first.
            if !time_proven {
                let batch = time.coarsen_records(full);
                let found = coarse_divergence(&state.time.coarse_log(), &batch);
                return Err(diverged("coarse-bwlog", found));
            }
            if !adaptive_proven {
                let batch = adaptive.coarsen_records(full);
                let found = coarse_divergence(&state.adaptive.coarse_log(), &batch);
                return Err(diverged("adaptive-bwlog", found));
            }
            full.len()
        };

        // The CDG rebuild, then the fingerprint of the proven state.
        let compare = obs.phase("reconcile/compare");
        let inc_cdg = state.cdg.canonical_bytes();
        let batch_cdg = CoarseDepGraph::from_fine(&state.fine).canonical_bytes();
        if inc_cdg != batch_cdg {
            return Err(diverged("cdg", cdg_divergence(&inc_cdg, &batch_cdg)));
        }
        let hash = state.fingerprint();
        drop(compare);

        // The incremental CDG is now proven equal to the batch rebuild:
        // the controller adopts it as its working coarse artifact.
        self.cdg = state.cdg.clone();
        obs.audit(
            "stream",
            "reconcile",
            &[
                ("tick", tick.to_string()),
                ("hash", hash.clone()),
                ("lake_records", lake_records.to_string()),
                ("time_rows", state.time.rows().to_string()),
                ("adaptive_rows", state.adaptive.rows().to_string()),
                ("teams", state.cdg.len().to_string()),
            ],
        );
        obs.inc("stream_reconcile_total");
        phase.field("lake_records", lake_records);
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
    /// reconcile's children are the time oracle's span, then the
    /// adaptive oracle's, then the compare, as when they ran in turn.
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
        for span in reconciles {
            let children: Vec<&str> = entered(Some(span)).map(|(_, name)| name).collect();
            assert_eq!(
                children,
                ["reconcile/time-oracle", "reconcile/adaptive-oracle", "reconcile/compare"]
            );
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
        // Corrupt one incremental cell behind the coarsener's back.
        if let Some(cell) = state.time.cells.first_mut() {
            cell.row.values[0] += 1.0;
        }
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
        if let Some(cell) = state.time.cells.last_mut() {
            cell.row.values[0] += 1.0;
        }
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
        assert_eq!(state.encode(), encode_coarse_log(&c.coarsen(&log)));
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
        let buffered: usize = state.cells.iter().map(|c| c.samples.len()).sum();
        let open = log.iter().filter(|r| r.ts.0 / HOUR == 5).count();
        assert_eq!(buffered, open, "only hour 5's records are buffered");
        assert!(state.keys.iter().all(|&(w, _)| w == 5));
        assert_eq!(state.encode(), encode_coarse_log(&c.coarsen(&log)));
        assert!(state.violations().is_empty(), "{:?}", state.violations());
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
        bad.keys.swap(0, 1);
        assert!(rules(bad.violations()).contains(&"artifact/coarse-log-order".to_string()));
        let mut bad = time.clone();
        bad.cells[0].samples.reverse();
        bad.cells[0].samples.push(-1.0);
        assert_eq!(rules(bad.violations()), vec!["artifact/coarse-log-samples"]);
        let mut bad = time.clone();
        bad.frontier = 0;
        assert_eq!(
            rules(bad.violations()),
            vec!["artifact/coarse-log-order"; 6],
            "two sealed hours"
        );
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
    /// signs.
    fn walk_free_log(raw: &[(usize, u32, u32, usize)], nan: bool) -> Vec<BandwidthRecord> {
        const GBPS: [f64; 8] = [0.0, -0.0, 1.0, 1.0, 40.0, 900.0, f64::NAN, -f64::NAN];
        let pool = if nan { GBPS.len() } else { GBPS.len() - 2 };
        let mut epoch = 0;
        raw.iter()
            .map(|&(stride, src, dst, v)| {
                epoch += WALK_FREE_STRIDES.get(stride).copied().unwrap_or(0);
                let gbps = GBPS.get(v % pool).copied().unwrap_or(0.0);
                BandwidthRecord { ts: Ts(epoch * EPOCH_SECS), src, dst, gbps }
            })
            .collect()
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
        /// as the walk-free oracles (map grouping, partitioned copies) over
        /// the log so far. The applies and the batch oracles share the run
        /// walk; these oracles do not, so a walk bug cannot hide from
        /// reconciliation. The adaptive apply also visits exactly the
        /// delta's sorted distinct pairs.
        #[test]
        fn incremental_logs_match_walk_free_oracles(
            raw in proptest::collection::vec((0usize..8, 0u32..4, 0u32..4, 0usize..8), 0..120),
            nan in 0u8..4,
            shape in 0u8..3,
            chunk in 1usize..20,
            cv_threshold in 0.0f64..1.5,
        ) {
            use crate::bwlogs::tests::{adaptive_by_partition, coarsen_by_map};
            let all = vec![
                Statistic::Mean,
                Statistic::Min,
                Statistic::Max,
                Statistic::P50,
                Statistic::P95,
                Statistic::P99,
            ];
            let log = walk_free_log(&raw, nan == 0);
            let c = TimeCoarsener::new(HOUR, all.clone());
            let ac = AdaptiveCoarsener {
                cv_threshold,
                stable_window: DAY,
                volatile_window: HOUR,
                stats: all,
            };
            let (mut time, mut adaptive) = (c.new_state(), ac.new_state());
            let mut seen = 0;
            for d in walk_free_deltas(&log, shape, chunk) {
                seen += d.len();
                let prefix = &log[..seen];
                c.apply_delta(&mut time, &d).expect("a time-ordered delta applies");
                let mut pairs = Vec::new();
                ac.apply_delta_visiting(&mut adaptive, &d, |p| pairs.push(p))
                    .expect("same configuration");
                proptest::prop_assert_eq!(pairs, d.pairs());
                proptest::prop_assert_eq!(time.encode(), encode_coarse_log(&coarsen_by_map(&c, prefix)));
                proptest::prop_assert_eq!(
                    adaptive.encode(),
                    encode_coarse_log(&adaptive_by_partition(&ac, prefix))
                );
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

    /// Corrupt row `at` (modulo the row count) of the uniform log with
    /// corruption `kind`: a field (0–4, and 8 as 4), a dropped (5) or
    /// duplicated (6) row, or (7) an extra row after the last, in the next
    /// window.
    fn corrupt_time_row(log: &mut IncrementalCoarseLog, kind: u8, at: usize, pick: usize) {
        let sealed = log.sealed.len();
        let i = at % log.rows().max(1);
        if kind == 7 {
            if let (Some(&(w, pair)), Some(cell)) = (log.keys.last(), log.cells.last()) {
                let mut cell = cell.clone();
                cell.row.window_start.0 += cell.row.window_secs;
                log.keys.push((w + 1, pair));
                log.cells.push(cell);
            }
        } else if i < sealed {
            match kind {
                5 => drop(log.sealed.remove(i)),
                6 => log.sealed.insert(i, log.sealed[i].clone()),
                _ => corrupt_fields(&mut log.sealed[i], kind, pick),
            }
        } else {
            let j = i - sealed;
            match kind {
                5 => {
                    log.keys.remove(j);
                    log.cells.remove(j);
                }
                6 => {
                    log.keys.insert(j, log.keys[j]);
                    log.cells.insert(j, log.cells[j].clone());
                }
                _ => corrupt_fields(&mut log.cells[j].row, kind, pick),
            }
        }
    }

    /// Corrupt row `at` (modulo the row count, pair by pair) of the
    /// adaptive log with corruption `kind`: a field (0–4), a dropped (5)
    /// or duplicated (6) row, or an extra pair after the last, with a copy
    /// of that row (7) or with no rows (8).
    fn corrupt_adaptive_row(log: &mut IncrementalAdaptiveLog, kind: u8, at: usize, pick: usize) {
        let mut i = at % log.rows.max(1);
        if kind >= 7 {
            let mut row = log.pairs.iter().flat_map(|p| &p.rows).nth(i).cloned();
            if let Some(row) = &mut row {
                (row.src, row.dst) = (u32::MAX, u32::MAX);
            }
            log.keys.push((u32::MAX, u32::MAX));
            log.pairs.push(PairState {
                rows: row.into_iter().filter(|_| kind == 7).collect(),
                ..PairState::default()
            });
            return;
        }
        let Some(ps) = log.pairs.iter_mut().find(|p| {
            let here = i < p.rows.len();
            if !here {
                i -= p.rows.len();
            }
            here
        }) else {
            return;
        };
        match kind {
            5 => drop(ps.rows.remove(i)),
            6 => ps.rows.insert(i, ps.rows[i].clone()),
            _ => corrupt_fields(&mut ps.rows[i], kind, pick),
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
            let log = walk_free_log(&raw, nan == 0);
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

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        assert_eq!(fingerprint(&[]), FNV_OFFSET);
        assert_eq!(fingerprint(&[b"ab"]), fingerprint(&[b"a", b"b"]));
        assert_ne!(fingerprint(&[b"ab"]), fingerprint(&[b"ba"]));
        assert_eq!(fingerprint_hex(&[b"x"]).len(), 16);
    }
}
