//! Deterministic chaos injection for telemetry record streams.
//!
//! The degraded-mode story of this repo needs telemetry that is lost, late,
//! duplicated, reordered, or skewed — reproducibly. Like [`crate::traffic`],
//! every decision here is a *pure function* of `(seed, record index)` via
//! the [`crate::det`] hash helpers, so a chaos campaign replays identically
//! under the same seed with no stateful RNG to thread around.
//!
//! The pipeline applied by [`ChaosInjector::apply`], in order:
//!
//! 1. **Clock skew**: every timestamp shifts by `clock_skew_secs` plus a
//!    per-record jitter in `[0, skew_jitter_secs]`.
//! 2. **Loss**: each record is dropped with probability `loss_rate`.
//! 3. **Duplication**: each survivor is emitted twice with probability
//!    `duplication_rate`.
//! 4. **Bounded lateness / reordering**: each instance is assigned an
//!    arrival delay in `[0, max_lateness_secs]` with probability
//!    `reorder_rate`, and the stream is re-sorted by arrival time. A record
//!    can therefore appear after records up to `max_lateness_secs` newer
//!    than it, but never later than that bound.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use smn_obs::Obs;

use crate::det::{mix, uniform01};
use crate::record::{Alert, BandwidthRecord, HealthSample, IncidentRecord, LogEvent, ProbeResult};
use crate::time::Ts;

/// Salts for the per-record decision hashes (order-sensitive with `mix`).
const SALT_LOSS: u64 = 0x10_55;
const SALT_DUP: u64 = 0xD0_0B;
const SALT_DELAY_GATE: u64 = 0xDE_1A;
const SALT_DELAY_MAG: u64 = 0x000D_31A9;
const SALT_JITTER: u64 = 0x5C_3B;

/// A chaos profile: what fraction of the stream misbehaves, and how badly.
///
/// The default profile is clean (no chaos); builder-style setters make the
/// common profiles one-liners.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed for all injected randomness; same seed ⇒ identical stream.
    pub seed: u64,
    /// Probability each record is silently dropped.
    pub loss_rate: f64,
    /// Probability each surviving record is delivered twice.
    pub duplication_rate: f64,
    /// Probability each instance is delayed (and thus possibly reordered).
    pub reorder_rate: f64,
    /// Upper bound on injected delivery delay, in seconds.
    pub max_lateness_secs: u64,
    /// Constant clock skew added to every record timestamp (may be
    /// negative; timestamps saturate at zero).
    pub clock_skew_secs: i64,
    /// Per-record bounded timestamp jitter in `[0, skew_jitter_secs]`.
    pub skew_jitter_secs: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            loss_rate: 0.0,
            duplication_rate: 0.0,
            reorder_rate: 0.0,
            max_lateness_secs: 0,
            clock_skew_secs: 0,
            skew_jitter_secs: 0,
        }
    }
}

impl ChaosConfig {
    /// A clean (identity) profile with the given seed.
    #[must_use]
    pub fn clean(seed: u64) -> Self {
        ChaosConfig { seed, ..Default::default() }
    }

    /// Set the record loss rate.
    #[must_use]
    pub fn with_loss(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0, 1]");
        self.loss_rate = rate;
        self
    }

    /// Set the duplication rate.
    #[must_use]
    pub fn with_duplication(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "duplication rate must be in [0, 1]");
        self.duplication_rate = rate;
        self
    }

    /// Set the reorder rate and lateness bound.
    #[must_use]
    pub fn with_reordering(mut self, rate: f64, max_lateness_secs: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "reorder rate must be in [0, 1]");
        self.reorder_rate = rate;
        self.max_lateness_secs = max_lateness_secs;
        self
    }

    /// Set constant clock skew and per-record jitter.
    #[must_use]
    pub fn with_clock_skew(mut self, skew_secs: i64, jitter_secs: u64) -> Self {
        self.clock_skew_secs = skew_secs;
        self.skew_jitter_secs = jitter_secs;
        self
    }
}

/// Record types a chaos injector can act on: anything with a timestamp.
pub trait ChaosTarget: Clone {
    /// The record's timestamp.
    fn chaos_ts(&self) -> Ts;
    /// Overwrite the record's timestamp (clock skew).
    fn set_chaos_ts(&mut self, ts: Ts);
}

macro_rules! impl_chaos_target {
    ($($ty:ty => $field:ident),* $(,)?) => {$(
        impl ChaosTarget for $ty {
            fn chaos_ts(&self) -> Ts {
                self.$field
            }
            fn set_chaos_ts(&mut self, ts: Ts) {
                self.$field = ts;
            }
        }
    )*};
}

impl_chaos_target!(
    BandwidthRecord => ts,
    Alert => ts,
    HealthSample => ts,
    ProbeResult => ts,
    LogEvent => ts,
    IncidentRecord => opened_at,
);

/// What the injector did to a stream, for reporting and assertions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Records in the input stream.
    pub input: usize,
    /// Records dropped by loss injection.
    pub dropped: usize,
    /// Extra copies emitted by duplication.
    pub duplicated: usize,
    /// Instances assigned a nonzero delivery delay.
    pub delayed: usize,
    /// Largest delivery delay actually injected, in seconds.
    pub max_observed_delay_secs: u64,
}

impl ChaosReport {
    /// Fraction of input records lost.
    #[must_use]
    pub fn observed_loss_rate(&self) -> f64 {
        if self.input == 0 {
            0.0
        } else {
            self.dropped as f64 / self.input as f64
        }
    }
}

/// A chaos-injected stream plus the report of what was injected.
#[derive(Debug, Clone)]
pub struct ChaosOutcome<T> {
    /// Surviving records in delivery order.
    pub records: Vec<T>,
    /// Injection statistics.
    pub report: ChaosReport,
}

/// Deterministic, seedable fault injector for record streams.
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    config: ChaosConfig,
    obs: Arc<Obs>,
}

impl ChaosInjector {
    /// Build an injector from a profile (observability disabled).
    #[must_use]
    pub fn new(config: ChaosConfig) -> Self {
        ChaosInjector { config, obs: Obs::disabled() }
    }

    /// Route injection statistics to an observability handle: every
    /// [`ChaosInjector::apply`] bumps the `telemetry_chaos_*` counters.
    #[must_use]
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Apply the chaos profile to `records`, returning the degraded stream
    /// in delivery order plus an injection report.
    ///
    /// Purely a function of `(config, records)`: calling twice with the
    /// same inputs yields byte-identical outcomes.
    pub fn apply<T: ChaosTarget>(&self, records: &[T]) -> ChaosOutcome<T> {
        let cfg = &self.config;
        let mut report = ChaosReport { input: records.len(), ..Default::default() };
        // (arrival_ts, input_index, copy) triples; sorted for delivery.
        let mut delivered: Vec<(u64, usize, T)> = Vec::with_capacity(records.len());

        for (idx, record) in records.iter().enumerate() {
            let idx64 = idx as u64;

            // 1. Clock skew (applies even to records later dropped — the
            //    skewed clock is a property of the emitting host).
            let mut record = record.clone();
            if cfg.clock_skew_secs != 0 || cfg.skew_jitter_secs > 0 {
                let jitter = if cfg.skew_jitter_secs > 0 {
                    mix(&[cfg.seed, idx64, SALT_JITTER]) % (cfg.skew_jitter_secs + 1)
                } else {
                    0
                };
                let shifted =
                    record.chaos_ts().0 as i128 + cfg.clock_skew_secs as i128 + jitter as i128;
                record.set_chaos_ts(Ts(u64::try_from(shifted.max(0)).unwrap_or(u64::MAX)));
            }

            // 2. Loss.
            if uniform01(mix(&[cfg.seed, idx64, SALT_LOSS])) < cfg.loss_rate {
                report.dropped += 1;
                continue;
            }

            // 3. Duplication.
            let copies = if uniform01(mix(&[cfg.seed, idx64, SALT_DUP])) < cfg.duplication_rate {
                report.duplicated += 1;
                2
            } else {
                1
            };

            // 4. Bounded lateness: per-instance delivery delay.
            for copy in 0..copies {
                let delay = if cfg.max_lateness_secs > 0
                    && uniform01(mix(&[cfg.seed, idx64, copy, SALT_DELAY_GATE])) < cfg.reorder_rate
                {
                    let d =
                        mix(&[cfg.seed, idx64, copy, SALT_DELAY_MAG]) % (cfg.max_lateness_secs + 1);
                    if d > 0 {
                        report.delayed += 1;
                        report.max_observed_delay_secs = report.max_observed_delay_secs.max(d);
                    }
                    d
                } else {
                    0
                };
                let arrival = record.chaos_ts().0.saturating_add(delay);
                delivered.push((arrival, idx, record.clone()));
            }
        }

        // Delivery order: by arrival time, input order breaking ties (stable
        // for determinism).
        delivered.sort_by_key(|(arrival, idx, _)| (*arrival, *idx));
        if self.obs.is_enabled() {
            self.obs.inc_by("telemetry_records_total", report.input as u64);
            self.obs.inc_by("telemetry_chaos_dropped_total", report.dropped as u64);
            self.obs.inc_by("telemetry_chaos_duplicated_total", report.duplicated as u64);
            self.obs.inc_by("telemetry_chaos_delayed_total", report.delayed as u64);
            #[allow(clippy::cast_precision_loss, reason = "delays are bounded small")]
            self.obs.gauge("telemetry_chaos_max_delay_secs", report.max_observed_delay_secs as f64);
        }
        ChaosOutcome { records: delivered.into_iter().map(|(_, _, r)| r).collect(), report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: u64) -> Vec<BandwidthRecord> {
        (0..n).map(|i| BandwidthRecord { ts: Ts(i * 60), src: 0, dst: 1, gbps: i as f64 }).collect()
    }

    #[test]
    fn clean_profile_is_identity() {
        let log = stream(50);
        let out = ChaosInjector::new(ChaosConfig::clean(9)).apply(&log);
        assert_eq!(out.records, log);
        assert_eq!(out.report.dropped, 0);
        assert_eq!(out.report.duplicated, 0);
    }

    #[test]
    fn same_seed_same_stream() {
        let log = stream(200);
        let cfg = ChaosConfig::clean(42)
            .with_loss(0.3)
            .with_duplication(0.1)
            .with_reordering(0.5, 600)
            .with_clock_skew(-30, 10);
        let a = ChaosInjector::new(cfg.clone()).apply(&log);
        let b = ChaosInjector::new(cfg).apply(&log);
        assert_eq!(a.records, b.records);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn different_seed_different_stream() {
        let log = stream(200);
        let a = ChaosInjector::new(ChaosConfig::clean(1).with_loss(0.5)).apply(&log);
        let b = ChaosInjector::new(ChaosConfig::clean(2).with_loss(0.5)).apply(&log);
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let log = stream(2000);
        let out = ChaosInjector::new(ChaosConfig::clean(7).with_loss(0.3)).apply(&log);
        let observed = out.report.observed_loss_rate();
        assert!((0.25..0.35).contains(&observed), "observed loss {observed}");
    }

    #[test]
    fn lateness_never_exceeds_bound() {
        let bound = 300;
        let log = stream(500);
        let out = ChaosInjector::new(ChaosConfig::clean(3).with_reordering(0.8, bound)).apply(&log);
        assert!(out.report.max_observed_delay_secs <= bound);
        // Out-of-orderness in the delivered stream is bounded: a record may
        // precede an older one only if the gap is within the bound.
        for w in out.records.windows(2) {
            if w[0].ts > w[1].ts {
                assert!(w[0].ts.0 - w[1].ts.0 <= bound, "reorder gap too large");
            }
        }
    }

    #[test]
    fn clock_skew_shifts_and_saturates() {
        let log = stream(5);
        let out = ChaosInjector::new(ChaosConfig::clean(4).with_clock_skew(-10_000, 0)).apply(&log);
        // All input timestamps are < 10_000, so everything clamps to zero.
        assert!(out.records.iter().all(|r| r.ts == Ts(0)));
        let out = ChaosInjector::new(ChaosConfig::clean(4).with_clock_skew(120, 0)).apply(&log);
        assert_eq!(out.records[0].ts, Ts(120));
    }

    #[test]
    #[allow(clippy::cast_precision_loss, reason = "small test magnitudes")]
    fn obs_counters_track_the_report() {
        let log = stream(500);
        let obs = Obs::enabled(smn_obs::clock::SimClock::new());
        let cfg =
            ChaosConfig::clean(11).with_loss(0.2).with_duplication(0.1).with_reordering(0.4, 300);
        let out = ChaosInjector::new(cfg).with_obs(obs.clone()).apply(&log);
        assert_eq!(obs.counter("telemetry_records_total"), 500);
        assert_eq!(obs.counter("telemetry_chaos_dropped_total"), out.report.dropped as u64);
        assert_eq!(obs.counter("telemetry_chaos_duplicated_total"), out.report.duplicated as u64);
        assert_eq!(obs.counter("telemetry_chaos_delayed_total"), out.report.delayed as u64);
        assert_eq!(
            obs.gauge_value("telemetry_chaos_max_delay_secs"),
            Some(out.report.max_observed_delay_secs as f64)
        );
    }

    #[test]
    fn duplication_adds_copies() {
        let log = stream(1000);
        let out = ChaosInjector::new(ChaosConfig::clean(5).with_duplication(0.2)).apply(&log);
        assert_eq!(out.records.len(), log.len() + out.report.duplicated);
        let rate = out.report.duplicated as f64 / log.len() as f64;
        assert!((0.15..0.25).contains(&rate), "dup rate {rate}");
    }
}
