//! Time-series summaries: the statistical half of time-based coarsening.
//!
//! §4: "traffic engineering controllers can replace per-epoch demand traces
//! … with summary statistics (e.g., mean or 95th percentile bandwidth usage)
//! over fixed smaller time windows." [`SummaryStats`] is that replacement;
//! [`TimeSeries::window_summaries`] computes it over fixed windows of a
//! record stream.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use serde::{Deserialize, Serialize};

use crate::time::Ts;

/// Summary statistics of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl SummaryStats {
    /// Summarize `values`. Returns `None` for an empty slice.
    ///
    /// Sorts a copy and summarizes it with [`SummaryStats::of_sorted`].
    pub fn of(values: &[f64]) -> Option<SummaryStats> {
        let mut sorted = values.to_vec();
        // total_cmp gives NaN a defined order instead of panicking on it.
        sorted.sort_by(f64::total_cmp);
        Self::of_sorted(&sorted)
    }

    /// Summarize samples already sorted ascending under `f64::total_cmp`.
    /// Returns `None` for an empty slice.
    ///
    /// This is the one summariser: [`SummaryStats::of`] sorts and calls
    /// it, and incremental coarseners that keep their sample buffers
    /// sorted call it directly. Under `total_cmp` the sorted sequence of a
    /// multiset of values is unique bit for bit, so both paths sum the same
    /// samples in the same order and agree exactly.
    #[must_use]
    pub fn of_sorted(sorted: &[f64]) -> Option<SummaryStats> {
        debug_assert_sorted(sorted);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let count = sorted.len();
        let mean = mean(sorted);
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        Some(SummaryStats {
            count,
            mean,
            min,
            max,
            p50: interpolate(sorted, 50.0),
            p95: interpolate(sorted, 95.0),
            p99: interpolate(sorted, 99.0),
            std: var.sqrt(),
        })
    }

    /// Pick one statistic by name; used to parameterize which statistic a
    /// coarsening retains.
    #[must_use]
    pub fn get(&self, stat: Statistic) -> f64 {
        match stat {
            Statistic::Mean => self.mean,
            Statistic::Min => self.min,
            Statistic::Max => self.max,
            Statistic::P50 => self.p50,
            Statistic::P95 => self.p95,
            Statistic::P99 => self.p99,
        }
    }
}

/// A `(src, dst)` pair packed so that `u64` order is `(src, dst)` order.
///
/// It is the key [`walk_runs`] merges a lake window's pair-sorted epoch
/// runs by: one integer comparison per head check.
#[inline]
#[must_use]
pub fn pair_key(src: u32, dst: u32) -> u64 {
    u64::from(src) << 32 | u64::from(dst)
}

/// Inverse of [`pair_key`].
#[inline]
#[must_use]
#[allow(clippy::cast_possible_truncation)] // each half is one `u32` by construction
pub fn key_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32) // smn-lint: allow(casts/narrowing) -- halves of a `pair_key`
}

/// Selectable summary statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Statistic {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Median.
    P50,
    /// 95th percentile — the capacity-planning staple.
    P95,
    /// 99th percentile.
    P99,
}

impl Statistic {
    /// This statistic of samples already sorted ascending under
    /// `f64::total_cmp`; `None` for an empty slice.
    ///
    /// Bit for bit `SummaryStats::of_sorted(sorted)?.get(self)`: both are
    /// built from the same helpers (`interpolate` and one mean), but this
    /// computes only the one statistic, so a percentile is one
    /// interpolation, with no sum and no variance pass.
    #[must_use]
    pub fn of_sorted(self, sorted: &[f64]) -> Option<f64> {
        debug_assert_sorted(sorted);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        Some(match self {
            Statistic::Mean => mean(sorted),
            Statistic::Min => min,
            Statistic::Max => max,
            Statistic::P50 => interpolate(sorted, 50.0),
            Statistic::P95 => interpolate(sorted, 95.0),
            Statistic::P99 => interpolate(sorted, 99.0),
        })
    }
}

/// The precondition of both `of_sorted` summarisers, checked in debug
/// builds: samples ascending under `f64::total_cmp`.
fn debug_assert_sorted(sorted: &[f64]) {
    debug_assert!(
        sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()),
        "of_sorted needs samples sorted under f64::total_cmp"
    );
}

/// Arithmetic mean, summed left to right; NaN for an empty slice.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Whether [`walk_runs`] keeps scanning the heads of `runs` runs after
/// `checks` head checks have gathered `gathered` records.
///
/// A scan checks every run's head per key; a heap pays one sift of about
/// `2·log2(r)` comparisons per record it gathers (two children per level),
/// plus `r` to build. So the scan goes on while its checks stay within
/// `2·bitlen(r)` per record gathered, plus `r`. Dense runs (every key in
/// every run, as in a lake window) check one head per record gathered and
/// stay on the scan at any `r`; keys that each sit in one of many runs
/// check `r` heads per record and leave it within `O(r)` keys.
fn scan_pays(checks: usize, gathered: usize, runs: usize) -> bool {
    let per_record = 2 * (usize::BITS - runs.leading_zeros()) as usize;
    checks <= per_record * gathered + runs
}

/// Visit each distinct key of `records` once, in ascending order, with
/// the payloads `sample` reads from its records, in input order.
///
/// `sample` reads a record's payload (which may borrow the record), or
/// `None` to leave the record out; a key with no payload left is not
/// visited. `visit` may reorder or
/// drain the payloads; the buffer is cleared after it returns. The slice
/// is split into its maximal key-ascending runs and these are merged, so
/// input that is already a few sorted runs (a lake window: one
/// pair-sorted run per epoch) is walked with no key buffer and no sort of
/// the records. A key's payloads are gathered from the run heads that
/// hold it, in run order, which is input order within the key: the visit
/// is exactly that of a stable sort by key.
///
/// The heads are scanned while [`scan_pays`] holds, then the remaining
/// heads move into a heap for the rest of the walk. Both gather in run
/// order, so the switch changes the cost, never the visit. For `n`
/// records in `r` runs: one pass to split them, then at most
/// `O(n log r + r)` head work. Unordered input has up to `n / 2` runs and
/// costs `O(n log n)`.
pub fn walk_runs<'a, T, K: Ord + Copy, S>(
    records: &'a [T],
    key: impl Fn(&T) -> K,
    sample: impl Fn(&'a T) -> Option<S>,
    visit: impl FnMut(K, &mut Vec<S>),
) {
    walk(records, key, sample, visit);
}

/// [`walk_runs`], returning how many records it gathered on the scan
/// before it moved to the heap (all of them when it never did).
fn walk<'a, T, K: Ord + Copy, S>(
    records: &'a [T],
    key: impl Fn(&T) -> K,
    sample: impl Fn(&'a T) -> Option<S>,
    mut visit: impl FnMut(K, &mut Vec<S>),
) -> usize {
    let mut runs: Vec<&'a [T]> = Vec::new();
    let (mut start, mut prev) = (0, None);
    for (i, r) in records.iter().enumerate() {
        let k = key(r);
        if prev.is_some_and(|p| k < p) {
            runs.extend(records.get(start..i));
            start = i;
        }
        prev = Some(k);
    }
    runs.extend(records.get(start..).filter(|run| !run.is_empty()));
    let mut payloads: Vec<S> = Vec::new();
    // Move `run`'s records of key `k` (its head) into `payloads`; returns
    // how many it took.
    let gather = |run: &mut &'a [T], k: K, payloads: &mut Vec<S>| {
        let taken =
            run.iter().take_while(|r| key(r) == k).inspect(|r| payloads.extend(sample(r))).count();
        *run = run.get(taken..).unwrap_or_default();
        taken
    };
    let mut emit = |k: K, payloads: &mut Vec<S>| {
        if !payloads.is_empty() {
            visit(k, payloads);
        }
        payloads.clear();
    };
    // Spent runs stay in the scan, and their checks count against it.
    let total = runs.len();
    let (mut checks, mut gathered) = (0usize, 0usize);
    while scan_pays(checks, gathered, total) {
        let Some(k) = runs.iter().filter_map(|run| run.first()).map(&key).min() else {
            return gathered;
        };
        checks += runs.len();
        for run in &mut runs {
            if run.first().is_some_and(|r| key(r) == k) {
                gathered += gather(run, k, &mut payloads);
            }
        }
        emit(k, &mut payloads);
    }
    let mut heads: BinaryHeap<Reverse<(K, usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(i, run)| Some(Reverse((key(run.first()?), i))))
        .collect();
    while let Some(&Reverse((k, _))) = heads.peek() {
        while let Some(mut top) = heads.peek_mut() {
            let Reverse((head, i)) = *top;
            if head != k {
                break;
            }
            let Some(run) = runs.get_mut(i) else {
                PeekMut::pop(top);
                continue;
            };
            gather(run, k, &mut payloads);
            match run.first() {
                Some(next) => *top = Reverse((key(next), i)),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        emit(k, &mut payloads);
    }
    gathered
}

/// Visit each distinct key of `records` once, in ascending order, with
/// the samples of its records sorted under `f64::total_cmp`.
///
/// [`walk_runs`] with `f64` samples, each key's sorted on its own. Under
/// `total_cmp` equal samples are equal bit for bit, so the visit is
/// exactly that of a stable sort on `(key, value)`. A few runs cost
/// `O(n)` plus the sample sorts.
pub fn merge_runs<T, K: Ord + Copy>(
    records: &[T],
    key: impl Fn(&T) -> K,
    sample: impl Fn(&T) -> Option<f64>,
    mut visit: impl FnMut(K, &[f64]),
) {
    walk_runs(records, key, sample, |k, samples| {
        samples.sort_unstable_by(f64::total_cmp);
        visit(k, samples);
    });
}

/// Exact percentile of an ascending-sorted slice by linear interpolation.
///
/// # Panics
/// Panics if `sorted` is empty or `p` outside `[0, 100]`.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    interpolate(sorted, p)
}

/// [`percentile_sorted`] without its contract checks: `p` in `[0, 100]`
/// keeps both ranks in bounds, and an empty slice yields NaN.
fn interpolate(sorted: &[f64], p: f64) -> f64 {
    if let [only] = sorted {
        return *only;
    }
    let rank = p / 100.0 * sorted.len().saturating_sub(1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    match (sorted.get(lo), sorted.get(hi)) {
        (Some(a), Some(b)) => a * (1.0 - frac) + b * frac,
        _ => f64::NAN,
    }
}

/// A timestamped univariate series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Sample times, ascending.
    pub ts: Vec<Ts>,
    /// Sample values, parallel to `ts`.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample.
    ///
    /// # Panics
    /// Panics if `ts` is older than the last sample (series are append-only
    /// and time-ordered, like the telemetry streams they model).
    pub fn push(&mut self, ts: Ts, value: f64) {
        if let Some(&last) = self.ts.last() {
            assert!(ts >= last, "out-of-order sample {ts:?} after {last:?}");
        }
        self.ts.push(ts);
        self.values.push(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Values with `start <= ts < end`.
    #[must_use]
    pub fn range(&self, start: Ts, end: Ts) -> &[f64] {
        let lo = self.ts.partition_point(|&t| t < start);
        let hi = self.ts.partition_point(|&t| t < end);
        &self.values[lo..hi]
    }

    /// Summaries over consecutive fixed windows of `window_secs`, starting
    /// at the first sample's window boundary. Returns `(window_start,
    /// stats)` pairs; empty windows are skipped.
    #[must_use]
    pub fn window_summaries(&self, window_secs: u64) -> Vec<(Ts, SummaryStats)> {
        assert!(window_secs > 0, "zero window");
        let (Some(&first_ts), Some(&last)) = (self.ts.first(), self.ts.last()) else {
            return Vec::new();
        };
        let first = Ts(first_ts.0 / window_secs * window_secs);
        let mut out = Vec::new();
        let mut w = first;
        while w <= last {
            let end = w + window_secs;
            if let Some(stats) = SummaryStats::of(self.range(w, end)) {
                out.push((w, stats));
            }
            w = end;
        }
        out
    }

    /// Coefficient of variation (std/mean) over the whole series — the
    /// stability score used by churn-adaptive coarsening (higher = less
    /// stable). `None` if empty or zero-mean.
    #[must_use]
    pub fn coefficient_of_variation(&self) -> Option<f64> {
        let s = SummaryStats::of(&self.values)?;
        (s.mean.abs() > f64::EPSILON).then(|| s.std / s.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Special values the summariser must order and sum identically on
    /// both paths: exact ties, both zeros, NaNs of either sign, infinities.
    const SPECIAL: [f64; 8] = [0.0, -0.0, 1.5, 1.5, -3.25, f64::NAN, -f64::NAN, f64::INFINITY];

    /// Every field of a summary as raw bits, so NaN and the sign of zero
    /// compare exactly.
    fn bits(s: Option<SummaryStats>) -> Option<[u64; 8]> {
        s.map(|s| {
            [
                s.count as u64,
                s.mean.to_bits(),
                s.min.to_bits(),
                s.max.to_bits(),
                s.p50.to_bits(),
                s.p95.to_bits(),
                s.p99.to_bits(),
                s.std.to_bits(),
            ]
        })
    }

    /// Arbitrary `f64` bit patterns, half of them drawn from the edges of
    /// `total_cmp` order: ±0.0, ±infinity, subnormals and NaNs of both
    /// signs and both kinds.
    fn f64_bits() -> impl Strategy<Value = u64> {
        const EDGES: [u64; 10] = [
            0,
            1 << 63,
            1,
            (1 << 63) | 1,
            0x7FF0_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x7FF8_0000_0000_0000,
            0xFFF8_0000_0000_0000,
            0x7FF0_0000_0000_0001,
            u64::MAX,
        ];
        (0u64..=u64::MAX, 0usize..20)
            .prop_map(|(bits, pick)| EDGES.get(pick).copied().unwrap_or(bits))
    }

    const ALL_STATS: [Statistic; 6] = [
        Statistic::Mean,
        Statistic::Min,
        Statistic::Max,
        Statistic::P50,
        Statistic::P95,
        Statistic::P99,
    ];

    /// `f64::total_cmp` order carried onto `u64`: negative values (sign
    /// bit set) have every bit flipped, so larger magnitudes sort lower;
    /// the rest get the sign bit set, so they sort above every negative.
    /// The keyed oracle below sorts these as plain integers.
    fn value_key(v: f64) -> u64 {
        let bits = v.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }

    /// Inverse of [`value_key`], bit for bit.
    fn key_value(key: u64) -> f64 {
        f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
    }

    /// The keyed stable sort [`merge_runs`] replaced: the kept records
    /// keyed `(key, value_key)` and sorted, one visit per key run.
    fn visits_by_keyed_sort(records: &[(u8, u64, bool)]) -> Vec<(u8, Vec<u64>)> {
        let mut keyed: Vec<(u8, u64)> = records
            .iter()
            .filter(|r| r.2)
            .map(|&(k, bits, _)| (k, value_key(f64::from_bits(bits))))
            .collect();
        #[allow(clippy::stable_sort_primitive)] // the stable sort is what is under test
        keyed.sort();
        keyed
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, v)| key_value(v).to_bits()).collect()))
            .collect()
    }

    /// Records keyed from a small range, so keys repeat inside and across
    /// runs, laid out as 1–40 chunks each sorted by key (one run, 2–16
    /// runs or more) or left unsorted (up to one run per two records).
    /// One key's samples are all rejected and a fifth of the rest.
    fn run_log() -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
        let record = (0u8..12, f64_bits(), 0u8..5);
        (
            proptest::collection::vec(proptest::collection::vec(record, 0..12), 1..40),
            0u8..3,
            0u8..12,
        )
            .prop_map(|(chunks, layout, rejected)| {
                let chunks = match layout {
                    0 => vec![chunks.concat()],
                    1 => chunks.into_iter().take(16).collect(),
                    _ => chunks,
                };
                let sorted = layout < 2 || chunks.len() % 2 == 0;
                chunks
                    .into_iter()
                    .flat_map(|mut chunk| {
                        if sorted {
                            chunk.sort_by_key(|r| r.0);
                        }
                        chunk
                    })
                    .map(|(k, bits, keep)| (k, bits, k != rejected && keep != 0))
                    .collect()
            })
    }

    /// What [`walk_runs`] must visit: the kept records' indices stably
    /// sorted by key, one visit per key run, indices in input order.
    fn visits_by_stable_key_sort(records: &[(u16, bool)]) -> Vec<(u16, Vec<usize>)> {
        let mut kept: Vec<(u16, usize)> =
            records.iter().enumerate().filter(|(_, r)| r.1).map(|(i, r)| (r.0, i)).collect();
        kept.sort_by_key(|&(k, _)| k);
        kept.chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, i)| i).collect()))
            .collect()
    }

    /// Every visit of [`walk`] over `records` with each record's index as
    /// its payload, and the records it gathered on the scan.
    fn walked(records: &[(u16, bool)]) -> (Vec<(u16, Vec<usize>)>, usize) {
        let indexed: Vec<(usize, u16, bool)> =
            records.iter().enumerate().map(|(i, &(k, keep))| (i, k, keep)).collect();
        let mut got = Vec::new();
        let on_scan =
            walk(&indexed, |r| r.1, |r| r.2.then_some(r.0), |k, p| got.push((k, p.clone())));
        (got, on_scan)
    }

    /// Records laid out as one run, 2–16 runs or 17–300 runs of keys that
    /// are dense (every key in every run), scattered (a few keys from a
    /// wide range per run), mixed (a dense head then a scattered tail) or
    /// unsorted chunks. One key in eight is rejected outright and a fifth
    /// of the rest.
    fn walk_log() -> impl Strategy<Value = Vec<(u16, bool)>> {
        let runs = (0usize..3, 2usize..=16, 17usize..=300)
            .prop_map(|(class, few, many)| [1, few, many].get(class).copied().unwrap_or(1));
        let draws = proptest::collection::vec((0u16..4096, 0u8..5, 1usize..4), 1..200);
        (runs, 0u8..4, 1u16..8, draws, 0u16..8).prop_map(
            |(runs, layout, width, draws, rejected)| {
                let mut draws = draws.into_iter().cycle();
                let mut out = Vec::new();
                for _ in 0..runs {
                    let Some((_, keep, n)) = draws.next() else { break };
                    let dense = (0..width).map(|k| (k, keep));
                    let scattered: Vec<(u16, u8)> =
                        draws.by_ref().take(n).map(|(k, keep, _)| (width + k, keep)).collect();
                    let mut run: Vec<(u16, u8)> = match layout {
                        0 => dense.collect(),
                        1 => scattered,
                        _ => dense.chain(scattered).collect(),
                    };
                    if layout < 3 {
                        run.sort_by_key(|r| r.0);
                    }
                    out.extend(run);
                }
                out.into_iter().map(|(k, keep)| (k, k % 8 != rejected && keep != 0)).collect()
            },
        )
    }

    proptest! {
        /// One statistic of sorted samples is bit for bit that statistic
        /// of the full summary, for all six, over NaNs, ±0.0, infinities,
        /// ties, single samples and empty slices.
        #[test]
        fn statistic_of_sorted_matches_summary(
            picks in proptest::collection::vec((0usize..16, f64_bits()), 0..24),
        ) {
            let mut sorted: Vec<f64> = picks
                .into_iter()
                .map(|(i, b)| SPECIAL.get(i).copied().unwrap_or(f64::from_bits(b)))
                .collect();
            sorted.sort_by(f64::total_cmp);
            for n in [0, 1, sorted.len()] {
                let head = &sorted[..n.min(sorted.len())];
                let summary = SummaryStats::of_sorted(head);
                for s in ALL_STATS {
                    prop_assert_eq!(
                        s.of_sorted(head).map(f64::to_bits),
                        summary.map(|x| x.get(s).to_bits())
                    );
                }
            }
        }

        /// Merging the key-ascending runs visits every key that keeps a
        /// sample, in order, with its samples exactly as a stable sort of
        /// `(key, value_key)` groups them.
        #[test]
        fn merge_runs_matches_keyed_stable_sort(records in run_log()) {
            let mut got: Vec<(u8, Vec<u64>)> = Vec::new();
            merge_runs(
                &records,
                |r| r.0,
                |r| r.2.then_some(f64::from_bits(r.1)),
                |k, samples| got.push((k, samples.iter().map(|v| v.to_bits()).collect())),
            );
            prop_assert_eq!(got, visits_by_keyed_sort(&records));
        }

        /// The walk visits every key that keeps a payload, in order, with
        /// its payloads in input order: exactly the visits of a stable sort
        /// by key, for one run, 2–16 runs and 17–300 runs of dense,
        /// scattered, mixed and unsorted keys, whether it stays on the scan
        /// or moves to the heap.
        #[test]
        fn walk_runs_matches_keyed_stable_sort(records in walk_log()) {
            prop_assert_eq!(walked(&records).0, visits_by_stable_key_sort(&records));
        }

        /// `of` is `of_sorted` over the `total_cmp`-sorted samples, bit for
        /// bit, whatever order the samples arrive in.
        #[test]
        fn of_is_of_sorted_over_sorted_samples(
            picks in proptest::collection::vec((0usize..16, -1e3f64..1e3), 0..40),
        ) {
            let values: Vec<f64> =
                picks.into_iter().map(|(i, x)| SPECIAL.get(i).copied().unwrap_or(x)).collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            prop_assert_eq!(bits(SummaryStats::of(&values)), bits(SummaryStats::of_sorted(&sorted)));
            let reversed: Vec<f64> = values.iter().rev().copied().collect();
            prop_assert_eq!(bits(SummaryStats::of(&values)), bits(SummaryStats::of(&reversed)));
        }

        /// `value_key` carries `f64::total_cmp` onto `u64` order, and
        /// `key_value` inverts it bit for bit, over arbitrary bit patterns.
        #[test]
        fn value_key_is_total_cmp_order_and_inverts(a in f64_bits(), b in f64_bits()) {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            prop_assert_eq!(key_value(value_key(x)).to_bits(), a);
            prop_assert_eq!(value_key(x).cmp(&value_key(y)), x.total_cmp(&y));
        }
    }

    #[test]
    fn the_scan_pays_for_dense_runs_and_not_for_scattered_keys() {
        for r in 1..=512usize {
            // Dense: each key checks `r` heads and gathers `r` records.
            assert!((1..=64).all(|m| scan_pays(m * r, m * r, r)), "dense, r = {r}");
            // Scattered: each key checks `r` heads and gathers one record.
            let stays = (1..=r + 1).all(|m| scan_pays(m * r, m, r));
            assert_eq!(stays, r <= 2 * (usize::BITS - r.leading_zeros()) as usize, "r = {r}");
        }
    }

    #[test]
    fn dense_runs_stay_on_the_scan_and_scattered_keys_leave_it() {
        for r in 1..=512u16 {
            let dense: Vec<(u16, bool)> = (0..r).flat_map(|_| (0..4).map(|k| (k, true))).collect();
            let (got, on_scan) = walked(&dense);
            assert_eq!(on_scan, dense.len(), "dense runs stay on the scan, r = {r}");
            assert_eq!(got, visits_by_stable_key_sort(&dense));
            // Run `i` holds keys `i`, `i + r`, `i + 2r`, `i + 3r`: each key
            // in one run of `r`.
            let scattered: Vec<(u16, bool)> =
                (0..r).flat_map(|i| (0..4).map(move |j| (i + j * r, true))).collect();
            // One record per key: the records gathered on the scan count
            // the keys it took.
            let (got, on_scan) = walked(&scattered);
            if r > 8 {
                assert!(on_scan <= usize::from(r) + 1, "r = {r}: {on_scan} keys on the scan");
            }
            assert_eq!(got, visits_by_stable_key_sort(&scattered));
        }
    }

    #[test]
    fn a_walk_that_moves_to_the_heap_mid_way_visits_as_the_keyed_sort() {
        // 40 runs, each the dense keys 0..50 then 40 keys of its own:
        // the scan pays for the dense head, not for the scattered tail.
        let records: Vec<(u16, bool)> = (0..40u16)
            .flat_map(|i| {
                (0..50).chain((0..40).map(move |j| 1000 + i + 40 * j)).map(|k| (k, k != 7))
            })
            .collect();
        let (got, on_scan) = walked(&records);
        assert!((40 * 50..records.len()).contains(&on_scan), "switched after {on_scan} records");
        assert_eq!(got, visits_by_stable_key_sort(&records));
    }

    #[test]
    fn summary_of_known_values() {
        let s = SummaryStats::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 2.5);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert!(SummaryStats::of(&[]).is_none());
    }

    #[test]
    fn percentile_interpolation() {
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 30.0);
        assert_eq!(percentile_sorted(&sorted, 25.0), 20.0);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_bad_p() {
        let _ = percentile_sorted(&[1.0], 150.0);
    }

    #[test]
    fn statistic_selector() {
        let s = SummaryStats::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.get(Statistic::Mean), 2.0);
        assert_eq!(s.get(Statistic::Max), 3.0);
        assert_eq!(s.get(Statistic::Min), 1.0);
        assert_eq!(s.get(Statistic::P50), 2.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted under f64::total_cmp")]
    fn statistic_of_sorted_rejects_unsorted_samples() {
        let _ = Statistic::P95.of_sorted(&[2.0, 1.0]);
    }

    #[test]
    fn series_range_queries() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(Ts(i * 100), i as f64);
        }
        assert_eq!(ts.range(Ts(200), Ts(500)), &[2.0, 3.0, 4.0]);
        assert_eq!(ts.range(Ts(950), Ts(2000)), &[] as &[f64]);
        assert_eq!(ts.len(), 10);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.push(Ts(100), 1.0);
        ts.push(Ts(50), 2.0);
    }

    #[test]
    fn window_summaries_partition_samples() {
        let mut ts = TimeSeries::new();
        for i in 0..6 {
            ts.push(Ts(i * 100), i as f64);
        }
        let w = ts.window_summaries(300);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, Ts(0));
        assert_eq!(w[0].1.count, 3);
        assert_eq!(w[0].1.mean, 1.0);
        assert_eq!(w[1].0, Ts(300));
        assert_eq!(w[1].1.mean, 4.0);
        // Total samples preserved.
        assert_eq!(w.iter().map(|(_, s)| s.count).sum::<usize>(), 6);
    }

    #[test]
    fn cv_ranks_stability() {
        let mut flat = TimeSeries::new();
        let mut wild = TimeSeries::new();
        for i in 0..50u64 {
            flat.push(Ts(i), 100.0 + (i % 2) as f64);
            wild.push(Ts(i), if i % 2 == 0 { 10.0 } else { 200.0 });
        }
        assert!(
            flat.coefficient_of_variation().unwrap() < wild.coefficient_of_variation().unwrap()
        );
        assert!(TimeSeries::new().coefficient_of_variation().is_none());
    }
}
