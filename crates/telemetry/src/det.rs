//! Deterministic pseudo-random helpers.
//!
//! Traffic demand must be a *pure function* of (pair, time, seed): benches
//! sweep over coarsening configurations and need random access to any epoch
//! without replaying a stateful RNG stream. These helpers hash integers to
//! uniform/normal/log-normal variates with SplitMix64, which has solid
//! avalanche behavior and is trivially reproducible. [`fnv1a`] is the
//! one byte-stream fingerprint: reconciliation and the outcome hashes of
//! the campaign replays all run it.

/// SplitMix64 finalizer: hashes a 64-bit value to a well-mixed 64-bit value.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combine hash inputs (order-sensitive).
#[must_use]
pub fn mix(parts: &[u64]) -> u64 {
    let mut acc = 0xCBF2_9CE4_8422_2325u64;
    for &p in parts {
        acc = splitmix64(acc ^ p);
    }
    acc
}

/// FNV-1a offset basis: the starting state of every [`fnv1a`] hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Feed `bytes` to a running 64-bit FNV-1a state. The state is the hash of
/// everything fed so far, so a stream may arrive in any number of pieces.
#[inline]
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Hash to a uniform variate in `[0, 1)`.
#[must_use]
pub fn uniform01(h: u64) -> f64 {
    // 53 high bits -> double in [0,1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Hash to a standard normal variate (Box–Muller on two derived uniforms).
#[must_use]
pub fn std_normal(h: u64) -> f64 {
    let u1 = uniform01(splitmix64(h)).max(1e-12);
    let u2 = uniform01(splitmix64(h ^ 0xDEAD_BEEF_CAFE_F00D));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Hash to a log-normal multiplier with median 1 and log-std `sigma`.
#[must_use]
pub fn lognormal_multiplier(h: u64, sigma: f64) -> f64 {
    (std_normal(h) * sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Single-bit input change flips roughly half the output bits.
        let d = (splitmix64(0x1000) ^ splitmix64(0x1001)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d} bits");
    }

    #[test]
    fn uniform_in_range_and_roughly_uniform() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| uniform01(splitmix64(i))).sum::<f64>() / n as f64;
        assert!((0.48..0.52).contains(&mean), "mean {mean}");
        for i in 0..1000 {
            let u = uniform01(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments() {
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|i| std_normal(splitmix64(i))).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((0.9..1.1).contains(&var), "var {var}");
    }

    #[test]
    fn lognormal_median_near_one() {
        let n = 20_001;
        let mut samples: Vec<f64> =
            (0..n).map(|i| lognormal_multiplier(splitmix64(i), 0.3)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n as usize / 2];
        assert!((0.95..1.05).contains(&median), "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
    }
}
