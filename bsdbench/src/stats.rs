//! Order statistics and rates: the arithmetic every reported number
//! goes through.

/// The `q`-quantile of `values` (any order), interpolating linearly
/// between the two nearest ranks, as `numpy.quantile` does by default.
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Percentiles a tail may be reported at, in per-mille, highest first.
const TAIL_PER_MILLE: [u64; 4] = [999, 990, 900, 500];

/// The highest percentile of [`TAIL_PER_MILLE`] (as a fraction) that
/// has at least ten of `n` samples beyond it, or `None` when even the
/// median has fewer. "Beyond the p-quantile" counts the samples ranked
/// above `ceil(p * n)`; integer arithmetic keeps 0.9 * 100 exact.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    TAIL_PER_MILLE
        .iter()
        .find(|&&pm| n - (n * pm).div_ceil(1000) >= 10)
        .map(|&pm| pm as f64 / 1000.0)
}

/// Records per second for `records` processed in `secs` seconds.
pub fn per_second(records: u64, secs: f64) -> f64 {
    assert!(secs > 0.0, "a rate needs a positive duration");
    records as f64 / secs
}

/// A small seeded generator (splitmix64) for the benchmark's own
/// choices, such as query windows and the order of the query mix.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn rates_come_from_counts() {
        assert_eq!(per_second(500_000, 2.0), 250_000.0);
        assert_eq!(per_second(3, 0.5), 6.0);
        // The reported rate is the median of per-job rates, not the
        // rate of the summed work.
        let rates = [
            per_second(100, 1.0),
            per_second(100, 2.0),
            per_second(300, 1.0),
        ];
        assert_eq!(median(&rates), 100.0);
    }

    #[test]
    fn splitmix_is_seeded_and_shuffles_a_permutation() {
        let (mut a, mut b) = (SplitMix::new(7), SplitMix::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        assert!((0..1000).all(|_| (3..9).contains(&a.range(3, 9))));
    }
}
