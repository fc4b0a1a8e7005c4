//! Deterministic sampling helpers over `rand`'s `StdRng`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Splits a per-stream seed out of a fleet master seed.
///
/// This is a *counter-based* split (a splitmix64-style finalizer over
/// `(master, stream)`), not a sequence of draws from a shared sampler:
/// the seed of stream `i` depends only on `(master, i)`. Adding machine
/// N+1 to a fleet therefore cannot perturb machines `0..N` — their
/// streams are bit-for-bit what they were in the smaller fleet.
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded random sampler with the distributions the workload needs.
///
/// Only uniform, exponential, and log-normal variates are used;
/// exponential comes from inverse-CDF and normal from Box–Muller, so no
/// extra dependency is needed.
#[derive(Debug)]
pub struct Sampler {
    rng: StdRng,
    spare_normal: Option<f64>,
}

impl Sampler {
    /// Creates a sampler from a seed.
    pub fn new(seed: u64) -> Self {
        Sampler {
            rng: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent sampler (e.g. one per simulated user).
    pub fn derive(&mut self, salt: u64) -> Sampler {
        Sampler::new(self.rng.gen::<u64>() ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.rng.gen_range(lo..hi)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen::<f64>() < p
    }

    /// Picks an index of `items` by the weight `weight` reads off each
    /// (taking the weights from the items spares the caller building a
    /// weight list on every draw).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or the weights sum to zero.
    pub fn weighted<T>(&mut self, items: &[T], weight: impl Fn(&T) -> f64) -> usize {
        let total: f64 = items.iter().map(&weight).sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.rng.gen::<f64>() * total;
        for (i, item) in items.iter().enumerate() {
            x -= weight(item);
            if x <= 0.0 {
                return i;
            }
        }
        items.len() - 1
    }

    /// Exponential variate with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        -mean * u.ln()
    }

    /// Standard normal variate (Box–Muller, with caching).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u1: f64 = self.rng.gen::<f64>().max(1e-12);
        let u2: f64 = self.rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Log-normal variate parameterized by the *median* and a shape
    /// factor σ (of the underlying normal), clamped to `[lo, hi]`.
    ///
    /// File sizes in the traced systems span bytes to a megabyte with a
    /// heavy right tail; log-normal matches that with two parameters.
    pub fn lognormal(&mut self, median: f64, sigma: f64, lo: u64, hi: u64) -> u64 {
        let z = self.normal();
        let v = median * (sigma * z).exp();
        (v as u64).clamp(lo, hi)
    }

    /// Exponential inter-arrival delay in milliseconds with the given
    /// mean (at least 1 ms).
    pub fn delay_ms(&mut self, mean_ms: f64) -> u64 {
        (self.exp(mean_ms) as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Sampler::new(7);
        let mut b = Sampler::new(7);
        for _ in 0..100 {
            assert_eq!(a.range(0, 1000), b.range(0, 1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Sampler::new(1);
        let mut b = Sampler::new(2);
        let same = (0..32)
            .filter(|_| a.range(0, 1 << 30) == b.range(0, 1 << 30))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut s = Sampler::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.exp(100.0)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut s = Sampler::new(4);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| s.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_respects_bounds_and_median() {
        let mut s = Sampler::new(5);
        let xs: Vec<u64> = (0..10_001)
            .map(|_| s.lognormal(5_000.0, 1.0, 100, 1_000_000))
            .collect();
        assert!(xs.iter().all(|&x| (100..=1_000_000).contains(&x)));
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let median = sorted[5_000];
        assert!(median > 3_000 && median < 8_000, "median {median}");
    }

    #[test]
    fn weighted_prefers_heavy_indices() {
        let mut s = Sampler::new(6);
        let mut counts = [0u32; 3];
        for _ in 0..3_000 {
            counts[s.weighted(&[1.0, 8.0, 1.0], |&w| w)] += 1;
        }
        assert!(counts[1] > counts[0] * 4);
        assert!(counts[1] > counts[2] * 4);
    }

    #[test]
    fn stream_seed_is_count_independent_and_spreads() {
        // Stream i's seed is a pure function of (master, i).
        assert_eq!(stream_seed(1985, 3), stream_seed(1985, 3));
        // Neighboring streams and neighboring masters land far apart.
        let a = stream_seed(1985, 0);
        let b = stream_seed(1985, 1);
        let c = stream_seed(1986, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!((a ^ b).count_ones() > 8, "weak diffusion: {a:x} vs {b:x}");
    }

    #[test]
    fn chance_extremes() {
        let mut s = Sampler::new(7);
        assert!(!(0..100).any(|_| s.chance(0.0)));
        assert!((0..100).all(|_| s.chance(1.0)));
    }
}
