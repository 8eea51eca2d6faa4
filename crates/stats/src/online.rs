//! Streaming moments via Welford's algorithm.

/// Streaming mean / variance / extrema accumulator.
///
/// Uses Welford's numerically stable online algorithm. Two accumulators can
/// be [`merge`](OnlineStats::merge)d (Chan et al. parallel variant), which is
/// how per-thread experiment results are combined.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build an accumulator from a slice in one pass.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Insert one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "OnlineStats::push got non-finite {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divide by n), or 0 when empty.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `+inf` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or `-inf` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_mean_var(values: &[f64]) -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_stats_are_zeroish() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn single_value() {
        let s = OnlineStats::from_slice(&[42.0]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn matches_naive_formulas() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0];
        let s = OnlineStats::from_slice(&values);
        let (mean, var) = naive_mean_var(&values);
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-9);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.sum() - 115.0).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_sequential() {
        let a = [1.0, 5.0, 9.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let mut left = OnlineStats::from_slice(&a);
        let right = OnlineStats::from_slice(&b);
        left.merge(&right);

        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let seq = OnlineStats::from_slice(&all);
        assert_eq!(left.count(), seq.count());
        assert!((left.mean() - seq.mean()).abs() < 1e-9);
        assert!((left.variance() - seq.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::from_slice(&[1.0, 2.0]);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    proptest! {
        #[test]
        fn prop_welford_matches_naive(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = OnlineStats::from_slice(&values);
            let (mean, var) = naive_mean_var(&values);
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        }

        #[test]
        fn prop_merge_any_split(values in proptest::collection::vec(-1e6f64..1e6, 2..200), split in 0usize..200) {
            let split = split % values.len();
            let mut left = OnlineStats::from_slice(&values[..split]);
            let right = OnlineStats::from_slice(&values[split..]);
            left.merge(&right);
            let seq = OnlineStats::from_slice(&values);
            prop_assert_eq!(left.count(), seq.count());
            prop_assert!((left.mean() - seq.mean()).abs() < 1e-6 * (1.0 + seq.mean().abs()));
            prop_assert!((left.variance() - seq.variance()).abs() < 1e-3 * (1.0 + seq.variance().abs()));
        }
    }
}
