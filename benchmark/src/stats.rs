//! Order statistics and the benchmark's own random numbers.
//!
//! The random draws (query reuse, arrival schedule, session order) use
//! a generator defined here and not the repo's `rand` stand-in, so the
//! inputs a seed produces cannot change when that crate does. For the
//! same reason the percentile is defined here and not borrowed from
//! `atsq_service::percentile_sorted`: a change to the system must not
//! change what the benchmark's numbers mean.

/// Samples that must lie beyond a reported percentile.
pub const TAIL: usize = 10;

/// The highest percentile `n` samples support with [`TAIL`] samples
/// beyond it, as a fraction. Zero when even the median is unsupported.
pub fn highest_supported_percentile(n: usize) -> f64 {
    if n <= TAIL {
        return 0.0;
    }
    (n - TAIL) as f64 / n as f64
}

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and returns it.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method);
/// a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        let m = v.len() + 1;
        let j = (k * m / 4).clamp(1, v.len() - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Mean, zero for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nanosecond samples as sorted milliseconds.
pub fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    sorted(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>())
}

/// SplitMix64: small, seedable, and fixed for the life of the
/// benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose: `stream` separates the draws of
    /// the reuse pattern, the schedule and the session order.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p95 needs 200 samples: 5 % of them are the ten beyond it.
        assert!(highest_supported_percentile(199) < 0.95);
        assert!(highest_supported_percentile(200) >= 0.95);
        assert!(highest_supported_percentile(1000) >= 0.99);
        assert!(highest_supported_percentile(999) < 0.99);
        assert_eq!(highest_supported_percentile(10), 0.0);
        // Twenty samples support the median and no more.
        assert_eq!(highest_supported_percentile(20), 0.5);
        // The reported value really has ten samples above it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 0.95);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), TAIL);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rng_repeats_per_seed_and_differs_per_stream() {
        let draws = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            [rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        let (a, b, c) = (draws(7, 1), draws(7, 1), draws(7, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 1);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
            assert!(r.exponential(0.025) >= 0.0);
        }
    }
}
