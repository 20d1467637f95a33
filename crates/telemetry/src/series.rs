//! Time-series summaries: the statistical half of time-based coarsening.
//!
//! §4: "traffic engineering controllers can replace per-epoch demand traces
//! … with summary statistics (e.g., mean or 95th percentile bandwidth usage)
//! over fixed smaller time windows." [`SummaryStats`] is that replacement,
//! and the run walks ([`walk_runs`], [`merge_runs`]) group a lake's
//! records into the cells it summarises.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use serde::{Deserialize, Serialize};

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
    /// Summarize samples already sorted ascending under `f64::total_cmp`.
    /// Returns `None` for an empty slice.
    ///
    /// This is the one sorted-order summariser: the time oracle sorts each
    /// cell's samples and calls it, and the uniform incremental coarse
    /// log, which keeps each open cell's samples sorted, calls it directly.
    /// Under `total_cmp` the sorted sequence of a multiset of values is
    /// unique bit for bit, so both paths sum the same samples in the same
    /// order and agree exactly. (The adaptive coarsener summarises in arrival
    /// order instead, with a [`Fold`].)
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

/// The count and `Σx` of samples pushed one at a time: the mean half of a
/// [`Fold`], and all a window's row needs for [`Statistic::Mean`].
///
/// The first push sets the sum to the sample itself, so a one-sample mean
/// is that sample bit for bit, `-0.0` included; every later push adds, in
/// push order. The order is part of the definition: the same samples
/// pushed in the same order give the same bits. The one exception is NaN:
/// which NaN an addition of two NaNs returns is unspecified (the compiler
/// may commute it), so a NaN mean is always [`f64::NAN`] and
/// [`MeanFold::same_bits`] treats every NaN sum as one value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MeanFold {
    count: usize,
    sum: f64,
}

impl MeanFold {
    /// Fold `values` in order: bit for bit the fold of pushing them one
    /// at a time.
    #[must_use]
    pub fn of(values: impl IntoIterator<Item = f64>) -> MeanFold {
        let mut fold = MeanFold::default();
        for x in values {
            fold.push(x);
        }
        fold
    }

    /// Fold `x` in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.sum = if self.count == 0 { x } else { self.sum + x };
        self.count += 1;
    }

    /// The samples pushed so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// `Σx / n`, or [`f64::NAN`] when that is any NaN; `None` before the
    /// first push.
    #[must_use]
    #[allow(clippy::cast_precision_loss, reason = "a sample count is far below 2^53")]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| canonical_nan(self.sum / self.count as f64))
    }

    /// Whether `other` holds the same count and the same sum bits, every
    /// NaN counting as one value (`-0.0` still differs from `0.0`).
    #[must_use]
    pub fn same_bits(&self, other: &MeanFold) -> bool {
        self.count == other.count && nan_blind_bits(self.sum) == nan_blind_bits(other.sum)
    }
}

/// Mean and population standard deviation of samples folded one at a time
/// in arrival order, with no division per sample: a [`MeanFold`] plus the
/// shifted-data sums `Σ(x−K)` and `Σ(x−K)²`, where the shift `K` is the
/// first sample. Shifting by a sample keeps the variance from cancelling
/// catastrophically around a large mean.
///
/// Stated once, for every caller:
/// * mean = `Σx / n` ([`MeanFold::mean`]);
/// * std = `√max(0, (Σ(x−K)² − (Σ(x−K))² / n) / n)`, the `max` only
///   undoing rounding below zero (a NaN variance stays NaN).
///
/// A fold is defined by its push order, not by its multiset: the same
/// samples in another order may differ in the last bits. The adaptive
/// coarsener folds each pair in arrival order on both its batch and its
/// incremental path, so the two agree bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Fold {
    unshifted: MeanFold,
    shift: f64,
    shifted_sum: f64,
    shifted_squares: f64,
}

impl Fold {
    /// Fold `values` in order: bit for bit the fold of pushing them one
    /// at a time.
    #[must_use]
    pub fn of(values: impl IntoIterator<Item = f64>) -> Fold {
        let mut fold = Fold::default();
        for x in values {
            fold.push(x);
        }
        fold
    }

    /// Fold `x` in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if self.unshifted.count == 0 {
            self.shift = x;
        }
        self.unshifted.push(x);
        let d = x - self.shift;
        self.shifted_sum += d;
        self.shifted_squares += d * d;
    }

    /// The mean: [`MeanFold::mean`] of the same samples.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        self.unshifted.mean()
    }

    /// The population standard deviation; `None` before the first push.
    #[must_use]
    #[allow(clippy::cast_precision_loss, reason = "a sample count is far below 2^53")]
    pub fn std(&self) -> Option<f64> {
        let n = self.unshifted.count as f64;
        let var = (self.shifted_squares - self.shifted_sum * self.shifted_sum / n) / n;
        (self.unshifted.count > 0).then(|| if var < 0.0 { 0.0 } else { var }.sqrt())
    }

    /// Whether `other` holds the same count and the same bits in every
    /// sum and in the shift, every NaN counting as one value.
    #[must_use]
    pub fn same_bits(&self, other: &Fold) -> bool {
        let sums = |f: &Fold| [f.shift, f.shifted_sum, f.shifted_squares].map(nan_blind_bits);
        self.unshifted.same_bits(&other.unshifted) && sums(self) == sums(other)
    }
}

/// `x`, or [`f64::NAN`] when `x` is any NaN.
#[inline]
fn canonical_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// The bits of [`canonical_nan`]`(x)`.
fn nan_blind_bits(x: f64) -> u64 {
    canonical_nan(x).to_bits()
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
#[expect(clippy::cast_possible_truncation, reason = "each half of a `pair_key` is one `u32`")]
pub fn key_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
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
/// Runs that hold the same strictly ascending keys at the same positions
/// (a complete lake window) are gathered position by position
/// ([`gather_by_position`]), with no head compared across runs. From
/// their first disagreement on, the heads are scanned while [`scan_pays`]
/// holds, then the remaining heads move into a heap for the rest of the
/// walk. All three gather in run order, so the strategy changes the cost,
/// never the visit. For `n` records in `r` runs: one pass to split them,
/// then at most `O(n log r + r)` head work. Unordered input has up to
/// `n / 2` runs and costs `O(n log n)`.
pub fn walk_runs<'a, T, K: Ord + Copy, S>(
    records: &'a [T],
    key: impl Fn(&T) -> K,
    sample: impl Fn(&'a T) -> Option<S>,
    visit: impl FnMut(K, &mut Vec<S>),
) {
    walk(records, key, sample, visit);
}

/// The records a [`walk`] gathered by each strategy: by position while
/// the runs stayed aligned, then on the scan before it moved to the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gathered {
    by_position: usize,
    on_scan: usize,
}

/// The maximal key-ascending runs of `records`, in input order: the
/// runs [`walk_runs`] merges. Empty input has none.
#[inline(always)]
#[allow(clippy::inline_always, reason = "inlined into `walk` as its split loop; see `walk_split`")]
pub fn ascending_runs<'a, T, K: Ord>(records: &'a [T], key: impl Fn(&T) -> K) -> Vec<&'a [T]> {
    let mut runs: Vec<&'a [T]> = Vec::new();
    let (mut start, mut prev) = (0, None);
    for (i, r) in records.iter().enumerate() {
        let k = key(r);
        if prev.as_ref().is_some_and(|p| k < *p) {
            runs.extend(records.get(start..i));
            start = i;
        }
        prev = Some(k);
    }
    runs.extend(records.get(start..).filter(|run| !run.is_empty()));
    runs
}

/// [`merge_runs`] over runs already split: each of `runs` must be
/// key-ascending, and the visit is that of [`merge_runs`] over their
/// concatenation. A key's samples are gathered in run order, which is
/// concatenation order within the key, so runs need not be maximal, and
/// an empty run adds nothing.
pub fn merge_split_runs<'a, T, K: Ord + Copy>(
    runs: Vec<&'a [T]>,
    key: impl Fn(&T) -> K,
    sample: impl Fn(&'a T) -> Option<f64>,
    mut visit: impl FnMut(K, &[f64]),
) {
    walk_split(runs, key, sample, |k, samples| {
        sort_total(samples);
        visit(k, samples);
    });
}

/// [`walk_runs`], returning how many records it gathered by position and
/// on the scan (together all of them when it never moved to the heap).
fn walk<'a, T, K: Ord + Copy, S>(
    records: &'a [T],
    key: impl Fn(&T) -> K,
    sample: impl Fn(&'a T) -> Option<S>,
    visit: impl FnMut(K, &mut Vec<S>),
) -> Gathered {
    walk_split(ascending_runs(records, &key), key, sample, visit)
}

/// The merge behind [`walk`], over key-ascending `runs`.
///
/// Always inlined, with [`ascending_runs`], so that `walk` stays one
/// body: called instead, the two made `merge_runs` 3–5% slower a record
/// on 1 and 12 runs in an in-process timing, and the tick's walks go
/// through `walk`.
#[inline(always)]
#[allow(clippy::inline_always, reason = "keeps `walk` one body; measured above")]
fn walk_split<'a, T, K: Ord + Copy, S>(
    mut runs: Vec<&'a [T]>,
    key: impl Fn(&T) -> K,
    sample: impl Fn(&'a T) -> Option<S>,
    mut visit: impl FnMut(K, &mut Vec<S>),
) -> Gathered {
    let mut payloads: Vec<S> = Vec::new();
    let mut emit = |k: K, payloads: &mut Vec<S>| {
        if !payloads.is_empty() {
            visit(k, payloads);
        }
        payloads.clear();
    };
    let visited = gather_by_position(&runs, &key, &sample, &mut payloads, &mut emit);
    for run in &mut runs {
        *run = run.get(visited..).unwrap_or_default();
    }
    let by_position = visited * runs.len();
    // Move `run`'s records of key `k` (its head) into `payloads`; returns
    // how many it took.
    let gather = |run: &mut &'a [T], k: K, payloads: &mut Vec<S>| {
        let taken =
            run.iter().take_while(|r| key(r) == k).inspect(|r| payloads.extend(sample(r))).count();
        *run = run.get(taken..).unwrap_or_default();
        taken
    };
    // Spent runs stay in the scan, and their checks count against it.
    let total = runs.len();
    let (mut checks, mut on_scan) = (0usize, 0usize);
    while scan_pays(checks, on_scan, total) {
        let Some(k) = runs.iter().filter_map(|run| run.first()).map(&key).min() else {
            return Gathered { by_position, on_scan };
        };
        checks += runs.len();
        for run in &mut runs {
            if run.first().is_some_and(|r| key(r) == k) {
                on_scan += gather(run, k, &mut payloads);
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
    Gathered { by_position, on_scan }
}

/// Gather `runs` position by position while they are aligned, visiting
/// the key at each position with every run's record there, in run order;
/// returns how many positions it visited.
///
/// Position `i` is visited only after position `i + 1` is checked: run
/// 0's key there must rise strictly, and every run must hold that key
/// there, or every run must end. Then each run holds key `i` once, at
/// `i`, so the visit is the stable sort's. The check rides in the one
/// pass that gathers position `i`. At the first disagreement the walk
/// goes on from the first unvisited position, and every key before it is
/// complete in every run.
///
/// Kept out of line: inlined into the walk, it made the adaptive apply
/// of a one-epoch 300-DC delta (one run) ≈25% slower.
#[inline(never)]
fn gather_by_position<'a, T, K: Ord + Copy, S>(
    runs: &[&'a [T]],
    key: impl Fn(&T) -> K,
    sample: impl Fn(&'a T) -> Option<S>,
    payloads: &mut Vec<S>,
    mut emit: impl FnMut(K, &mut Vec<S>),
) -> usize {
    let key_at = |run: &[T], i: usize| run.get(i).map(&key);
    let Some(first) = runs.first() else { return 0 };
    if runs.iter().any(|run| key_at(run, 0) != key_at(first, 0)) {
        return 0;
    }
    for (i, k) in first.iter().map(&key).enumerate() {
        let next = key_at(first, i + 1);
        if next.is_some_and(|n| n <= k) {
            return i;
        }
        for run in runs {
            payloads.extend(run.get(i).and_then(&sample));
            if key_at(run, i + 1) != next {
                payloads.clear();
                return i;
            }
        }
        emit(k, payloads);
    }
    first.len()
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
        sort_total(samples);
        visit(k, samples);
    });
}

/// `f64::total_cmp` order carried onto `u64`: negative values (sign bit
/// set) have every bit flipped, so larger magnitudes sort lower; the rest
/// get the sign bit set, so they sort above every negative.
#[inline]
fn value_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`value_key`], bit for bit.
#[inline]
fn key_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// Sort `values` ascending under `f64::total_cmp`: bit for bit
/// `values.sort_unstable_by(f64::total_cmp)`. Under `total_cmp`, equal
/// means identical bits, so any correct sort gives the same bits; this
/// one sorts the integer keys of [`value_key`] instead of comparing
/// floats.
///
/// The size rule is read from the input. Two samples are one
/// compare-and-swap. Three to 16 go through a fixed 16-key Batcher
/// network padded with `u64::MAX`: branch-free, and what a coarse cell
/// of 12 epochs pays. Longer slices (a pair's whole history) are turned
/// into their keys in place, sorted by `sort_unstable` on the bits, and
/// turned back.
pub fn sort_total(values: &mut [f64]) {
    match values {
        [] | [_] => {}
        [a, b] => {
            if a.total_cmp(b).is_gt() {
                std::mem::swap(a, b);
            }
        }
        _ if values.len() <= 16 => through_network(values),
        _ => {
            for v in values.iter_mut() {
                *v = f64::from_bits(value_key(*v));
            }
            values.sort_unstable_by_key(|v| v.to_bits());
            for v in values.iter_mut() {
                *v = key_value(v.to_bits());
            }
        }
    }
}

/// Sort up to 16 values through [`network16`]: their keys fill a 16-key
/// array padded with `u64::MAX`, which sorts last, and the first
/// `values.len()` sorted keys come back. A value whose key is `u64::MAX`
/// ties the padding with identical bits, so the result is the same.
#[inline]
fn through_network(values: &mut [f64]) {
    let mut keys = [u64::MAX; 16];
    for (k, &v) in keys.iter_mut().zip(values.iter()) {
        *k = value_key(v);
    }
    for (v, k) in values.iter_mut().zip(network16(keys)) {
        *v = key_value(k);
    }
}

/// Compare-exchange each listed pair of `u64` locals in order, leaving the
/// smaller in the first: a sorting network's comparators, unrolled.
macro_rules! compare_exchange {
    ($($a:ident $b:ident),* $(,)?) => {
        $(
            let low = $a.min($b);
            $b = $a.max($b);
            $a = low;
        )*
    };
}

/// Batcher's 16-key odd-even merge sort network, 63 comparators: it
/// sorts each half of each half (5 comparators per quarter), merges the
/// quarters into halves (9 more each) and merges the halves (25).
/// `network_sorts_every_zero_one_input` checks it.
#[inline]
fn network16(
    [mut k0, mut k1, mut k2, mut k3, mut k4, mut k5, mut k6, mut k7, mut k8, mut k9, mut k10, mut k11, mut k12, mut k13, mut k14, mut k15]: [u64; 16],
) -> [u64; 16] {
    compare_exchange!(
        k0 k1, k2 k3, k0 k2, k1 k3, k1 k2, k4 k5, k6 k7, k4 k6, k5 k7, k5 k6,
        k0 k4, k2 k6, k2 k4, k1 k5, k3 k7, k3 k5, k1 k2, k3 k4, k5 k6,
        k8 k9, k10 k11, k8 k10, k9 k11, k9 k10, k12 k13, k14 k15, k12 k14, k13 k15, k13 k14,
        k8 k12, k10 k14, k10 k12, k9 k13, k11 k15, k11 k13, k9 k10, k11 k12, k13 k14,
        k0 k8, k4 k12, k4 k8, k2 k10, k6 k14, k6 k10, k2 k4, k6 k8, k10 k12,
        k1 k9, k5 k13, k5 k9, k3 k11, k7 k15, k7 k11, k3 k5, k7 k9, k11 k13,
        k1 k2, k3 k4, k5 k6, k7 k8, k9 k10, k11 k12, k13 k14,
    );
    [k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15]
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
#[expect(clippy::cast_possible_truncation, reason = "both ranks lie in `[0, len - 1]`")]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{epochs, Ts};
    use crate::traffic::{TrafficConfig, TrafficModel};
    use proptest::prelude::*;
    use smn_topology::gen::{generate_planetary, PlanetaryConfig};

    /// Special values the summariser must order and sum identically on
    /// both paths: exact ties, both zeros, NaNs of either sign, infinities.
    const SPECIAL: [f64; 8] = [0.0, -0.0, 1.5, 1.5, -3.25, f64::NAN, -f64::NAN, f64::INFINITY];

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

    /// The keyed stable sort [`merge_runs`] replaced: the kept records
    /// keyed `(key, value_key)` and sorted, one visit per key run.
    fn visits_by_keyed_sort(records: &[(u8, u64, bool)]) -> Vec<(u8, Vec<u64>)> {
        let mut keyed: Vec<(u8, u64)> = records
            .iter()
            .filter(|r| r.2)
            .map(|&(k, bits, _)| (k, value_key(f64::from_bits(bits))))
            .collect();
        #[allow(clippy::stable_sort_primitive, reason = "the stable sort is what is under test")]
        keyed.sort();
        keyed
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, v)| key_value(v).to_bits()).collect()))
            .collect()
    }

    /// One run, 2–16 runs or 17–300 runs.
    fn run_count() -> impl Strategy<Value = usize> {
        (0usize..3, 2usize..=16, 17usize..=300)
            .prop_map(|(class, few, many)| [1, few, many].get(class).copied().unwrap_or(1))
    }

    /// How [`aligned`] makes its runs disagree: `(kind, run, position,
    /// key)`. The run is taken modulo the run count. A position below 32
    /// is the first, one below 64 the last, and any other is taken modulo
    /// the key count.
    type Divergence = (u8, usize, usize, u16);

    fn divergence(keys: std::ops::Range<u16>) -> impl Strategy<Value = Divergence> {
        (0u8..7, 0usize..300, 0usize..128, keys)
    }

    /// `runs` copies of the strictly ascending `keys` laid end to end, as
    /// a lake window's epochs are, made to disagree once by `divergence`
    /// when it is given. Run `j` drops (kind 0) or repeats (1) the key at
    /// the position, rekeys it to `key` (2) or to one above or below it,
    /// staying ascending (3), or gains one key after its last (4); or run
    /// 0 (5) or every run (6) repeats the key at the position.
    fn aligned(runs: usize, keys: &[u16], divergence: Option<Divergence>) -> Vec<u16> {
        let mut runs = vec![keys.to_vec(); runs];
        if let (Some((kind, j, at, key)), Some(&last)) = (divergence, keys.last()) {
            let j = j % runs.len();
            let at = match at {
                0..32 => 0,
                32..64 => keys.len() - 1,
                _ => at % keys.len(),
            };
            let repeat = |run: &mut Vec<u16>| run.insert(at, run[at]);
            match kind {
                0 => {
                    runs[j].remove(at);
                }
                1 => repeat(&mut runs[j]),
                2 => runs[j][at] = key,
                3 => {
                    runs[j][at] =
                        if key % 2 == 0 { keys[at] + 1 } else { keys[at].saturating_sub(1) }
                }
                4 => runs[j].push(last + 1),
                5 => repeat(&mut runs[0]),
                _ => runs.iter_mut().for_each(repeat),
            }
        }
        runs.concat()
    }

    /// Records keyed from a small range, so keys repeat inside and across
    /// runs, laid out as 1–40 chunks each sorted by key (one run, 2–16
    /// runs or more) or left unsorted (up to one run per two records), or
    /// as one run, 2–16 runs or 17–300 runs of the same strictly
    /// ascending keys, aligned or diverging once ([`aligned`]). One key's
    /// samples are all rejected and a fifth of the rest.
    fn run_log() -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
        let record = (0u8..12, f64_bits(), 0u8..5);
        (
            proptest::collection::vec(proptest::collection::vec(record, 0..12), 1..40),
            0u8..6,
            0u8..12,
            run_count(),
            divergence(0..12),
        )
            .prop_map(|(chunks, layout, rejected, runs, divergence)| {
                let records: Vec<(u8, u64, u8)> = if layout >= 3 {
                    let pool = chunks.concat();
                    let mut keys: Vec<u16> = pool.iter().map(|r| u16::from(r.0)).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    aligned(runs, &keys, (layout > 3).then_some(divergence))
                        .into_iter()
                        .zip(pool.iter().cycle())
                        .map(|(k, &(_, bits, keep))| {
                            (u8::try_from(k).unwrap_or(u8::MAX), bits, keep)
                        })
                        .collect()
                } else {
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
                        .collect()
                };
                records
                    .into_iter()
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
    /// its payload, and the records it gathered by position and on the
    /// scan.
    fn walked(records: &[(u16, bool)]) -> (Vec<(u16, Vec<usize>)>, Gathered) {
        let indexed: Vec<(usize, u16, bool)> =
            records.iter().enumerate().map(|(i, &(k, keep))| (i, k, keep)).collect();
        let mut got = Vec::new();
        let gathered =
            walk(&indexed, |r| r.1, |r| r.2.then_some(r.0), |k, p| got.push((k, p.clone())));
        (got, gathered)
    }

    /// Records laid out as one run, 2–16 runs or 17–300 runs of keys that
    /// are dense (every key in every run), scattered (a few keys from a
    /// wide range per run), mixed (a dense head then a scattered tail),
    /// unsorted chunks, or the same strictly ascending keys from a wide
    /// range in every run, aligned or diverging once ([`aligned`]). One
    /// key in eight is rejected outright and a fifth of the rest.
    fn walk_log() -> impl Strategy<Value = Vec<(u16, bool)>> {
        let draws = proptest::collection::vec((0u16..4096, 0u8..5, 1usize..4), 1..200);
        (run_count(), 0u8..6, 1u16..8, draws, 0u16..8, divergence(0..4096)).prop_map(
            |(runs, layout, width, draws, rejected, divergence)| {
                let out: Vec<(u16, u8)> = if layout >= 4 {
                    let mut keys: Vec<u16> = draws.iter().take(24).map(|d| d.0).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    let keys = aligned(runs, &keys, (layout == 5).then_some(divergence));
                    keys.into_iter().zip(draws.iter().cycle().map(|d| d.1)).collect()
                } else {
                    let mut out = Vec::new();
                    let mut draws = draws.into_iter().cycle();
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
                    out
                };
                out.into_iter().map(|(k, keep)| (k, k % 8 != rejected && keep != 0)).collect()
            },
        )
    }

    /// Inputs for the sort kernel: 0–40 or 100–300 arbitrary bit patterns
    /// (NaN payloads of both signs, ±0.0, ±infinity and subnormals among
    /// them), left as drawn, made all equal, sorted or reversed.
    fn sort_input() -> impl Strategy<Value = Vec<f64>> {
        let short = proptest::collection::vec(f64_bits(), 0..41);
        let long = proptest::collection::vec(f64_bits(), 100..301);
        (0u8..2, short, long, 0u8..4).prop_map(|(length, short, long, layout)| {
            let bits = if length == 0 { short } else { long };
            let mut values: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
            match layout {
                1 => {
                    let first = values.first().copied().unwrap_or_default();
                    values.fill(first);
                }
                2 => values.sort_by(f64::total_cmp),
                3 => {
                    values.sort_by(f64::total_cmp);
                    values.reverse();
                }
                _ => {}
            }
            values
        })
    }

    proptest! {
        /// The sort kernel leaves exactly the bits of a `total_cmp` sort,
        /// on every side of its size rule (the pair swap, the 16-key
        /// network and the keyed sort).
        #[test]
        fn sort_total_matches_total_cmp_sort(values in sort_input()) {
            let mut want = values.clone();
            want.sort_unstable_by(f64::total_cmp);
            let mut got = values;
            sort_total(&mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }

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

        /// Folding a slice is pushing its samples one at a time, for both
        /// folds, over arbitrary bit patterns (NaNs of both signs, ±0.0,
        /// ±∞, subnormals); the mean is the `MeanFold`'s, and a fold
        /// equals itself bit for bit.
        #[test]
        fn folding_a_slice_is_pushing_its_samples_one_at_a_time(
            bits in proptest::collection::vec(f64_bits(), 0..60),
        ) {
            let values: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
            let (mut fold, mut mean) = (Fold::default(), MeanFold::default());
            for &x in &values {
                fold.push(x);
                mean.push(x);
            }
            prop_assert!(Fold::of(values.iter().copied()).same_bits(&fold));
            prop_assert!(MeanFold::of(values.iter().copied()).same_bits(&mean));
            prop_assert!(fold.same_bits(&fold));
            prop_assert_eq!(mean.count(), values.len());
            prop_assert_eq!(fold.mean().map(f64::to_bits), mean.mean().map(f64::to_bits));
            prop_assert_eq!(fold.std().is_some(), !values.is_empty());
        }

        /// `value_key` carries `f64::total_cmp` onto `u64` order, and
        /// `key_value` inverts it bit for bit, over arbitrary bit patterns:
        /// the keys the sort kernel sorts.
        #[test]
        fn value_key_is_total_cmp_order_and_inverts(a in f64_bits(), b in f64_bits()) {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            prop_assert_eq!(key_value(value_key(x)).to_bits(), a);
            prop_assert_eq!(value_key(x).cmp(&value_key(y)), x.total_cmp(&y));
        }
    }

    #[test]
    fn a_fold_states_its_mean_and_population_std() {
        let fold = Fold::of([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(fold.mean(), Some(2.5));
        assert!((fold.std().unwrap() - 1.25f64.sqrt()).abs() < 1e-15);
        // Shifted by the first sample, a large mean does not cancel away
        // the spread.
        let fold = Fold::of([1e9 + 1.0, 1e9 + 3.0]);
        assert_eq!(fold.std(), Some(1.0));
        assert_eq!(Fold::of([7.0; 5]).std(), Some(0.0));
        assert_eq!(Fold::default().mean(), None);
        assert_eq!(Fold::default().std(), None);
        // One sample's mean is that sample, -0.0 included; a NaN mean is
        // the one canonical NaN.
        assert_eq!(MeanFold::of([-0.0]).mean().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(MeanFold::of([-f64::NAN]).mean().map(f64::to_bits), Some(f64::NAN.to_bits()));
        assert!(MeanFold::of([f64::NAN]).same_bits(&MeanFold::of([-f64::NAN])));
        assert!(!MeanFold::of([0.0]).same_bits(&MeanFold::of([-0.0])));
        assert!(Fold::of([f64::INFINITY, f64::NEG_INFINITY]).std().is_some_and(f64::is_nan));
    }

    /// By the 0-1 principle, a comparator network sorts every input when
    /// it sorts every input of zeros and ones.
    #[test]
    fn network_sorts_every_zero_one_input() {
        for mask in 0u32..1 << 16 {
            let bit = |i: usize| u64::from(mask >> i & 1);
            assert!(network16(std::array::from_fn(bit)).is_sorted(), "mask {mask:#x}");
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
            // Every key twice in every run: run 0's keys do not rise
            // strictly, so none is gathered by position.
            let dense: Vec<(u16, bool)> =
                (0..r).flat_map(|_| (0..4).flat_map(|k| [(k, true); 2])).collect();
            let (got, gathered) = walked(&dense);
            let all_on_scan = Gathered { by_position: 0, on_scan: dense.len() };
            assert_eq!(gathered, all_on_scan, "dense runs stay on the scan, r = {r}");
            assert_eq!(got, visits_by_stable_key_sort(&dense));
            // Run `i` holds keys `i`, `i + r`, `i + 2r`, `i + 3r`: each key
            // in one run of `r`.
            let scattered: Vec<(u16, bool)> =
                (0..r).flat_map(|i| (0..4).map(move |j| (i + j * r, true))).collect();
            // One run agrees with itself; more disagree at position 0. One
            // record per key: the records gathered on the scan count the
            // keys it took.
            let (got, gathered) = walked(&scattered);
            assert_eq!(gathered.by_position, if r == 1 { 4 } else { 0 }, "r = {r}");
            if r > 8 {
                let on_scan = gathered.on_scan;
                assert!(on_scan <= usize::from(r) + 1, "r = {r}: {on_scan} keys on the scan");
            }
            assert_eq!(got, visits_by_stable_key_sort(&scattered));
        }
    }

    #[test]
    fn aligned_runs_are_gathered_wholly_by_position() {
        for r in 1..=512u16 {
            let aligned: Vec<(u16, bool)> =
                (0..r).flat_map(|_| (0..4).map(|k| (k, k != 2))).collect();
            let (got, gathered) = walked(&aligned);
            let all_by_position = Gathered { by_position: aligned.len(), on_scan: 0 };
            assert_eq!(gathered, all_by_position, "r = {r}");
            assert_eq!(got, visits_by_stable_key_sort(&aligned));
        }
    }

    #[test]
    fn a_lake_window_is_gathered_wholly_by_position() {
        let wan = generate_planetary(&PlanetaryConfig::small(1)).wan;
        let model = TrafficModel::new(&wan, TrafficConfig::default());
        for n in [1, 12] {
            // One pair-sorted run per epoch, every pair in every epoch.
            let window = model.generate(Ts(0), n);
            let mut pairs = Vec::new();
            let gathered = walk(
                &window,
                |r| pair_key(r.src, r.dst),
                |r| Some(r.ts),
                |pair, stamps| {
                    assert!(stamps.iter().copied().eq(epochs(Ts(0), n)), "epoch order");
                    pairs.push(key_pair(pair));
                },
            );
            assert_eq!(gathered, Gathered { by_position: window.len(), on_scan: 0 }, "{n} epochs");
            let want: Vec<(u32, u32)> = model.pairs().iter().map(|p| (p.src.0, p.dst.0)).collect();
            assert_eq!(pairs, want);
        }
    }

    #[test]
    fn a_walk_that_moves_to_the_heap_mid_way_visits_as_the_keyed_sort() {
        // 40 runs, each the dense keys 0..50 then 40 keys of its own. The
        // runs disagree at position 50, so keys 0..49 are gathered by
        // position. The scan takes key 49 and pays for a few scattered
        // keys after it, not for the whole scattered tail.
        let records: Vec<(u16, bool)> = (0..40u16)
            .flat_map(|i| {
                (0..50).chain((0..40).map(move |j| 1000 + i + 40 * j)).map(|k| (k, k != 7))
            })
            .collect();
        let (got, gathered) = walked(&records);
        assert_eq!(gathered.by_position, 40 * 49);
        let (on_scan, rest) = (gathered.on_scan, records.len() - gathered.by_position);
        assert!((41..rest).contains(&on_scan), "switched after {on_scan} records");
        assert_eq!(got, visits_by_stable_key_sort(&records));
    }

    #[test]
    fn summary_of_known_values() {
        let s = SummaryStats::of_sorted(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 2.5);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert!(SummaryStats::of_sorted(&[]).is_none());
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
        let s = SummaryStats::of_sorted(&[1.0, 2.0, 3.0]).unwrap();
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
}
