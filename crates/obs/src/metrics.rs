//! Metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Everything is keyed by name in `BTreeMap`s so a snapshot renders in a
//! deterministic order — two identical runs produce byte-identical
//! Prometheus-style text. Histograms use *fixed* bucket bounds chosen at
//! first observation: merging two histograms with the same bounds is
//! associative and commutative (bucket counts, sum, and count all add),
//! which is what lets shards of a campaign be combined in any order.

use std::collections::BTreeMap;

/// Default bucket upper bounds for millisecond latencies.
pub const DEFAULT_MS_BUCKETS: [f64; 12] =
    [0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0];

/// A fixed-bucket histogram: cumulative-style bucket counts plus sum/count.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending upper bounds; an implicit `+Inf` bucket follows the last.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries; the last
    /// is the overflow bucket).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// A histogram over the given upper bounds. Bounds are sorted and
    /// deduplicated; non-finite bounds are discarded (the `+Inf` bucket is
    /// always implicit).
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Histogram { bounds, counts, sum: 0.0, count: 0 }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.sum += v;
        self.count += 1;
    }

    /// Merge another histogram into this one. Returns `false` (leaving
    /// `self` untouched) when the bucket bounds differ — merging histograms
    /// of different shape silently would corrupt both.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds || self.counts.len() != other.counts.len() {
            return false;
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
        true
    }

    /// Mean of all observations (0 when empty).
    #[must_use]
    #[allow(clippy::cast_precision_loss, reason = "observation counts stay far below 2^52")]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile from the bucket boundaries: the upper bound of
    /// the bucket containing the `q`-th observation (the last finite bound
    /// for the overflow bucket; 0 when empty).
    #[must_use]
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        reason = "observation counts stay far below 2^52"
    )]
    #[allow(clippy::cast_sign_loss, reason = "rank is clamped to [1, count]")]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| self.bounds.last().copied().unwrap_or(f64::INFINITY));
            }
        }
        self.bounds.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// The registry state behind the [`crate::Obs`] lock.
#[derive(Debug, Default)]
pub(crate) struct MetricsState {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsState {
    /// Add `delta` to the named counter.
    pub fn inc(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Set the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Observe into the named histogram, creating it with `bounds` on
    /// first use (later observations reuse the registered bounds).
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new(bounds);
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Render the whole registry as Prometheus-style text. Deterministic:
    /// metrics sort by name, histogram buckets by bound.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0;
            for (i, &b) in h.bounds.iter().enumerate() {
                cumulative += h.counts.get(i).copied().unwrap_or(0);
                let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact literals round-trip exactly; no arithmetic involved")]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = MetricsState::default();
        m.inc("a_total", 2);
        m.inc("a_total", 3);
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        assert_eq!(m.counters["a_total"], 5);
        assert_eq!(m.gauges["g"], 2.5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[1.0, 5.0, 10.0]);
        for v in [0.5, 0.9, 3.0, 7.0, 20.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 1, 1, 1]);
        assert_eq!(h.count, 5);
        assert!((h.sum - 31.4).abs() < 1e-9);
        assert_eq!(h.quantile(0.5), 5.0);
        assert_eq!(h.quantile(1.0), 10.0); // overflow reports last bound
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn merge_requires_matching_bounds() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(9.0);
        assert!(a.merge(&b));
        assert_eq!(a.counts, vec![1, 1, 1]);
        assert_eq!(a.count, 3);
        let other = Histogram::new(&[1.0, 3.0]);
        let before = a.clone();
        assert!(!a.merge(&other));
        assert_eq!(a, before, "failed merge must not mutate");
    }

    #[test]
    fn bounds_are_sanitized() {
        let h = Histogram::new(&[5.0, 1.0, 1.0, f64::INFINITY, f64::NAN]);
        assert_eq!(h.bounds, vec![1.0, 5.0]);
        assert_eq!(h.counts.len(), 3);
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_cumulative() {
        let mut m = MetricsState::default();
        m.inc("z_total", 1);
        m.inc("a_total", 2);
        m.observe("lat_ms", &[1.0, 10.0], 0.5);
        m.observe("lat_ms", &[1.0, 10.0], 5.0);
        m.observe("lat_ms", &[1.0, 10.0], 50.0);
        let text = m.render_prometheus();
        let again = m.render_prometheus();
        assert_eq!(text, again);
        // Counters sort by name.
        assert!(text.find("a_total 2").unwrap() < text.find("z_total 1").unwrap());
        assert!(text.contains("lat_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_ms_bucket{le=\"10\"} 2"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ms_count 3"));
    }
}
