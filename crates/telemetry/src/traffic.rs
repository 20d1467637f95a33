//! Synthetic wide-area traffic: the generator behind every bandwidth log.
//!
//! The paper's coarse-bandwidth-log results depend on the *statistical
//! shape* of cloud WAN traffic, so this model reproduces the published
//! characteristics it cites:
//!
//! * **heavy-tailed pair skew** — "only a small fraction (≤ 10 %) of
//!   datacenters exchange high volume traffic" (OneWAN, cited in §4): a
//!   configurable fraction of communicating pairs are *hot* and carry an
//!   order of magnitude more traffic;
//! * **diurnal and weekly seasonality** — sinusoidal day cycle phased by
//!   the source DC's longitude, weekday/weekend factor;
//! * **seasonal spike events** — designated days of the simulated year see
//!   multiplied demand on affected pairs ("traffic spikes due to seasonal
//!   events like federal holidays", §4 — the signal month-window time
//!   coarsening destroys);
//! * **stability classes** — stable pairs fluctuate around a fixed base
//!   while volatile pairs undergo regime shifts (random-walk level changes),
//!   the distinction the paper's research question 2 wants coarsening to
//!   exploit ("identify which network partitions have more 'stable' traffic
//!   demand patterns to coarsen only the stable parts").
//!
//! Demand is a pure function of `(pair, timestamp, seed)` via hash-based
//! variates, so any epoch can be generated independently and reproducibly.

use serde::{Deserialize, Serialize};
use smn_topology::layer3::Wan;
use smn_topology::NodeId;

use crate::det::{lognormal_multiplier, mix, uniform01};
use crate::record::BandwidthRecord;
use crate::time::{epochs, Ts, DAY, EPOCH_SECS};

/// Configuration of the traffic model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Seed; demand is a pure function of it.
    pub seed: u64,
    /// Fraction of ordered DC pairs that communicate at all.
    pub communicating_fraction: f64,
    /// Of communicating pairs, the fraction that are "hot" (high volume).
    pub hot_fraction: f64,
    /// Mean demand of a cold pair, Gbps.
    pub cold_base_gbps: f64,
    /// Mean demand of a hot pair, Gbps.
    pub hot_base_gbps: f64,
    /// Amplitude of the diurnal cycle in `[0, 1)` (0 = flat).
    pub diurnal_amplitude: f64,
    /// Weekend demand multiplier (cloud WAN traffic dips on weekends).
    pub weekend_factor: f64,
    /// Log-std of per-epoch log-normal noise.
    pub noise_sigma: f64,
    /// Fraction of communicating pairs that are volatile (regime-shifting).
    pub volatile_fraction: f64,
    /// Length of a volatile regime in days.
    pub regime_days: u64,
    /// Days-of-year on which spike events occur.
    pub spike_days: Vec<u64>,
    /// Demand multiplier on spike days for affected pairs.
    pub spike_multiplier: f64,
    /// Fraction of communicating pairs affected by spike events.
    pub spike_pair_fraction: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            seed: 11,
            communicating_fraction: 0.2,
            hot_fraction: 0.1,
            cold_base_gbps: 30.0,
            hot_base_gbps: 1500.0,
            diurnal_amplitude: 0.35,
            weekend_factor: 0.75,
            noise_sigma: 0.12,
            volatile_fraction: 0.25,
            regime_days: 10,
            spike_days: vec![185, 359], // a mid-year and an end-of-year event
            spike_multiplier: 3.0,
            spike_pair_fraction: 0.3,
        }
    }
}

/// Stability class of a communicating pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairClass {
    /// Fluctuates around a fixed base level.
    Stable,
    /// Undergoes regime shifts every `regime_days`.
    Volatile,
}

/// A communicating datacenter pair with its traffic personality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficPair {
    /// Source DC.
    pub src: NodeId,
    /// Destination DC.
    pub dst: NodeId,
    /// Base demand level in Gbps.
    pub base_gbps: f64,
    /// Whether the pair is hot (high volume).
    pub hot: bool,
    /// Stability class.
    pub class: PairClass,
    /// Whether spike events affect this pair.
    pub spiky: bool,
}

/// The traffic model over a WAN.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    config: TrafficConfig,
    pairs: Vec<TrafficPair>,
    /// Longitude of each DC, for diurnal phase.
    lon: Vec<f64>,
}

impl TrafficModel {
    /// Build the model for `wan` under `config`. Pair selection is
    /// deterministic from the seed.
    #[must_use]
    pub fn new(wan: &Wan, config: TrafficConfig) -> Self {
        // Saturating cast policy: node ids are u32 (a WAN cannot hold more
        // datacenters than NodeId can address), so try_from never saturates
        // on a well-formed topology.
        let n = u32::try_from(wan.dc_count()).unwrap_or(u32::MAX);
        let mut pairs = Vec::new();
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let h = mix(&[config.seed, 0x5041, s as u64, d as u64]);
                if uniform01(h) >= config.communicating_fraction {
                    continue;
                }
                let hot = uniform01(splitmix_child(h, 1)) < config.hot_fraction;
                let class = if uniform01(splitmix_child(h, 2)) < config.volatile_fraction {
                    PairClass::Volatile
                } else {
                    PairClass::Stable
                };
                let spiky = uniform01(splitmix_child(h, 3)) < config.spike_pair_fraction;
                let base = if hot { config.hot_base_gbps } else { config.cold_base_gbps };
                // Per-pair size heterogeneity: half an order of magnitude.
                let base_gbps = base * lognormal_multiplier(splitmix_child(h, 4), 0.4);
                pairs.push(TrafficPair {
                    src: NodeId(s),
                    dst: NodeId(d),
                    base_gbps,
                    hot,
                    class,
                    spiky,
                });
            }
        }
        let lon = wan.graph.nodes().map(|(_, dc)| dc.lon).collect();
        Self { config, pairs, lon }
    }

    /// The communicating pairs.
    #[must_use]
    pub fn pairs(&self) -> &[TrafficPair] {
        &self.pairs
    }

    /// The configuration the model was built with.
    #[must_use]
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Demand of pair `p` at time `ts`, in Gbps. Pure function.
    #[must_use]
    pub fn pair_demand(&self, p: &TrafficPair, ts: Ts) -> f64 {
        let c = &self.config;
        // Diurnal: peak at local 14:00, phased by source longitude.
        let local_hour = (ts.hour_of_day() + self.lon[p.src.index()] / 15.0).rem_euclid(24.0);
        let diurnal =
            1.0 + c.diurnal_amplitude * ((local_hour - 14.0) / 24.0 * std::f64::consts::TAU).cos();
        let weekly = if ts.is_weekend() { c.weekend_factor } else { 1.0 };
        let spike = if p.spiky && c.spike_days.contains(&ts.day_of_year()) {
            c.spike_multiplier
        } else {
            1.0
        };
        let regime = match p.class {
            PairClass::Stable => 1.0,
            PairClass::Volatile => {
                let regime_idx = ts.day() / c.regime_days;
                let h = mix(&[c.seed, 0x5245, p.src.0 as u64, p.dst.0 as u64, regime_idx]);
                // Regime level in [0.25x, 4x], log-uniform.
                (uniform01(h) * 4.0 - 2.0).exp2()
            }
        };
        let noise_h = mix(&[c.seed, 0x4e4f, p.src.0 as u64, p.dst.0 as u64, ts.epoch()]);
        let noise = lognormal_multiplier(noise_h, c.noise_sigma);
        p.base_gbps * diurnal * weekly * spike * regime * noise
    }

    /// All bandwidth records for the epoch containing `ts` (one per
    /// communicating pair — the uncoarsened log of the paper's Listing 1).
    #[must_use]
    pub fn epoch_records(&self, ts: Ts) -> Vec<BandwidthRecord> {
        let es = ts.epoch_start();
        self.pairs
            .iter()
            .map(|p| BandwidthRecord {
                ts: es,
                src: p.src.0,
                dst: p.dst.0,
                gbps: self.pair_demand(p, es),
            })
            .collect()
    }

    /// Generate the full uncoarsened log from `start` for `n_epochs`.
    #[must_use]
    pub fn generate(&self, start: Ts, n_epochs: usize) -> Vec<BandwidthRecord> {
        let mut out = Vec::with_capacity(n_epochs * self.pairs.len());
        for e in epochs(start, n_epochs) {
            out.extend(self.epoch_records(e));
        }
        out
    }

    /// Number of epochs in `days` days.
    #[must_use]
    pub fn epochs_per_days(days: u64) -> usize {
        (days * DAY / EPOCH_SECS) as usize
    }

    /// Aggregate demand matrix at `ts`: `(src, dst) -> Gbps` for every
    /// communicating pair.
    #[must_use]
    pub fn demand_matrix(&self, ts: Ts) -> Vec<(NodeId, NodeId, f64)> {
        self.pairs.iter().map(|p| (p.src, p.dst, self.pair_demand(p, ts))).collect()
    }
}

fn splitmix_child(h: u64, i: u64) -> u64 {
    crate::det::splitmix64(h ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_topology::gen::{generate_planetary, PlanetaryConfig};

    fn small_model() -> TrafficModel {
        let p = generate_planetary(&PlanetaryConfig::small(1));
        TrafficModel::new(&p.wan, TrafficConfig::default())
    }

    #[test]
    fn pair_selection_is_sparse_and_deterministic() {
        let p = generate_planetary(&PlanetaryConfig::small(1));
        let m1 = TrafficModel::new(&p.wan, TrafficConfig::default());
        let m2 = TrafficModel::new(&p.wan, TrafficConfig::default());
        assert_eq!(m1.pairs().len(), m2.pairs().len());
        let n = p.wan.dc_count();
        let all_pairs = n * (n - 1);
        let frac = m1.pairs().len() as f64 / all_pairs as f64;
        assert!((0.1..0.3).contains(&frac), "communicating fraction {frac}");
    }

    #[test]
    fn hot_pairs_are_minority_but_carry_bulk_traffic() {
        let m = small_model();
        let ts = Ts::from_days(2);
        let hot: Vec<_> = m.pairs().iter().filter(|p| p.hot).collect();
        let frac = hot.len() as f64 / m.pairs().len() as f64;
        assert!(frac < 0.25, "hot fraction {frac}");
        let hot_demand: f64 = hot.iter().map(|p| m.pair_demand(p, ts)).sum();
        let total: f64 = m.pairs().iter().map(|p| m.pair_demand(p, ts)).sum();
        assert!(hot_demand / total > 0.5, "hot pairs should dominate: {} of {}", hot_demand, total);
    }

    #[test]
    fn demand_is_pure_function_of_time() {
        let m = small_model();
        let p = &m.pairs()[0];
        let t = Ts::from_days(30) + 600;
        assert_eq!(m.pair_demand(p, t), m.pair_demand(p, t));
    }

    #[test]
    fn diurnal_cycle_peaks_in_local_afternoon() {
        let mut cfg =
            TrafficConfig { noise_sigma: 0.0, volatile_fraction: 0.0, ..Default::default() };
        cfg.spike_days.clear();
        let p = generate_planetary(&PlanetaryConfig::small(1));
        let m = TrafficModel::new(&p.wan, cfg);
        let pair = m.pairs().iter().find(|p| p.class == PairClass::Stable).unwrap();
        // Scan a weekday in 1h steps; max should be well above min.
        let day0 = Ts::from_days(1); // Tuesday
        let demands: Vec<f64> = (0..24).map(|h| m.pair_demand(pair, day0 + h * 3600)).collect();
        let max = demands.iter().cloned().fold(f64::MIN, f64::max);
        let min = demands.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.5, "diurnal swing too small: {min}..{max}");
    }

    #[test]
    fn weekend_demand_dips() {
        let mut cfg = TrafficConfig {
            noise_sigma: 0.0,
            volatile_fraction: 0.0,
            diurnal_amplitude: 0.0,
            ..Default::default()
        };
        cfg.spike_days.clear();
        let p = generate_planetary(&PlanetaryConfig::small(1));
        let m = TrafficModel::new(&p.wan, cfg);
        let pair = &m.pairs()[0];
        let weekday = m.pair_demand(pair, Ts::from_days(2));
        let weekend = m.pair_demand(pair, Ts::from_days(5));
        assert!((weekend / weekday - 0.75).abs() < 1e-9);
    }

    #[test]
    fn spike_days_multiply_spiky_pairs_only() {
        let cfg = TrafficConfig {
            noise_sigma: 0.0,
            volatile_fraction: 0.0,
            diurnal_amplitude: 0.0,
            spike_days: vec![100],
            ..Default::default()
        };
        let p = generate_planetary(&PlanetaryConfig::small(1));
        let m = TrafficModel::new(&p.wan, cfg);
        let spiky = m.pairs().iter().find(|p| p.spiky).expect("some spiky pair");
        let calm = m.pairs().iter().find(|p| !p.spiky).expect("some calm pair");
        // Day 100 and 101 are both weekdays? day 100 % 7 = 2 (Wed), 101 = Thu.
        let normal = m.pair_demand(spiky, Ts::from_days(101));
        let spiked = m.pair_demand(spiky, Ts::from_days(100));
        assert!((spiked / normal - 3.0).abs() < 1e-9, "spike ratio {}", spiked / normal);
        let calm_ratio =
            m.pair_demand(calm, Ts::from_days(100)) / m.pair_demand(calm, Ts::from_days(101));
        assert!((calm_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn volatile_pairs_shift_regimes_stable_pairs_do_not() {
        let cfg = TrafficConfig {
            noise_sigma: 0.0,
            diurnal_amplitude: 0.0,
            spike_days: vec![],
            weekend_factor: 1.0,
            ..Default::default()
        };
        let p = generate_planetary(&PlanetaryConfig::small(1));
        let m = TrafficModel::new(&p.wan, cfg.clone());
        let volatile = m.pairs().iter().find(|p| p.class == PairClass::Volatile).unwrap();
        let stable = m.pairs().iter().find(|p| p.class == PairClass::Stable).unwrap();
        // Compare demand across many regimes.
        let vol_levels: Vec<f64> =
            (0..8).map(|i| m.pair_demand(volatile, Ts::from_days(i * cfg.regime_days))).collect();
        let stab_levels: Vec<f64> =
            (0..8).map(|i| m.pair_demand(stable, Ts::from_days(i * cfg.regime_days))).collect();
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        assert!(spread(&vol_levels) > 1.5, "volatile spread {}", spread(&vol_levels));
        assert!(spread(&stab_levels) < 1.01, "stable spread {}", spread(&stab_levels));
    }

    #[test]
    fn generate_produces_epoch_grid() {
        let m = small_model();
        let recs = m.generate(Ts(0), 3);
        assert_eq!(recs.len(), 3 * m.pairs().len());
        assert!(recs.iter().all(|r| r.gbps > 0.0));
        assert_eq!(recs[0].ts, Ts(0));
        assert_eq!(recs[m.pairs().len()].ts, Ts(EPOCH_SECS));
    }

    #[test]
    fn epochs_per_days_conversion() {
        assert_eq!(TrafficModel::epochs_per_days(1), 288);
    }
}
