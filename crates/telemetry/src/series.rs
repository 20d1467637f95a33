//! Time-series summaries: the statistical half of time-based coarsening.
//!
//! §4: "traffic engineering controllers can replace per-epoch demand traces
//! … with summary statistics (e.g., mean or 95th percentile bandwidth usage)
//! over fixed smaller time windows." [`SummaryStats`] is that replacement;
//! [`TimeSeries::window_summaries`] computes it over fixed windows of a
//! record stream.

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
        debug_assert!(
            sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()),
            "of_sorted needs samples sorted under f64::total_cmp"
        );
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
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
/// With [`value_key`] this is the sort key of every batch summariser:
/// records keyed `(pair_key, value_key)` as plain integers and sorted
/// come out grouped by pair, each pair's run being the sorted sample
/// buffer [`SummaryStats::of_sorted`] takes.
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

/// `f64::total_cmp` order carried onto `u64`: negative values (sign bit
/// set) have every bit flipped, so larger magnitudes sort lower; the rest
/// get the sign bit set, so they sort above every negative. Sorting the
/// keys sorts the values under `total_cmp`, NaNs and ±0.0 included.
#[inline]
#[must_use]
pub fn value_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`value_key`], bit for bit.
#[inline]
#[must_use]
pub fn key_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
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

    proptest! {
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
