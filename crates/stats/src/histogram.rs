//! Log-bucketed histogram with quantile queries.
//!
//! Latency distributions span several orders of magnitude, so buckets are
//! laid out HDR-style: for each power-of-two range we keep
//! `SUB_BUCKETS` linear sub-buckets, giving a bounded relative error of
//! `1/SUB_BUCKETS` per recorded value while using a few KiB of memory.

const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS; // 32 → ~3% relative error

/// Log-bucketed histogram over non-negative integer values (e.g. latency in
/// microseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram covering the full `u64` range.
    #[must_use]
    pub fn new() -> Self {
        // 64 exponent ranges x 32 sub-buckets is an upper bound; values below
        // SUB_BUCKETS get exact buckets inside the first range.
        let buckets = (64 * SUB_BUCKETS) as usize;
        Self {
            counts: vec![0; buckets],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_for(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        // Position of the highest set bit determines the exponent range.
        let exp = 63 - value.leading_zeros() as u64; // >= SUB_BUCKET_BITS
        let shift = exp - SUB_BUCKET_BITS as u64;
        let mantissa = (value >> shift) - SUB_BUCKETS; // in [0, SUB_BUCKETS)
        let range = exp - SUB_BUCKET_BITS as u64 + 1;
        (range * SUB_BUCKETS + SUB_BUCKETS + mantissa) as usize - SUB_BUCKETS as usize
    }

    /// Representative (lower-bound) value for a bucket index.
    fn value_for(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB_BUCKETS {
            return index;
        }
        let range = (index - SUB_BUCKETS) / SUB_BUCKETS + 1;
        let mantissa = (index - SUB_BUCKETS) % SUB_BUCKETS + SUB_BUCKETS;
        mantissa << (range - 1)
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_for(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of recorded values.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value (`u64::MAX` when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q in [0, 1]`, within the bucket resolution.
    ///
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = crate::quantile_rank(self.total, q);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_for(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median shortcut.
    #[must_use]
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), SUB_BUCKETS - 1);
    }

    #[test]
    fn index_value_roundtrip_is_within_relative_error() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            100,
            1_000,
            12_345,
            1_000_000,
            123_456_789,
            u32::MAX as u64,
        ] {
            let idx = Histogram::index_for(v);
            let lo = Histogram::value_for(idx);
            assert!(lo <= v, "bucket lower bound {lo} must be <= value {v}");
            // relative error bounded by 1/SUB_BUCKETS
            let err = (v - lo) as f64 / (v.max(1)) as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64 + 1e-12, "v={v} err={err}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(90);
        assert!((h.mean() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 10_000);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 17);
        }
        let mut last = 0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            assert!(q >= last, "quantiles must be monotone");
            last = q;
        }
    }

    proptest! {
        #[test]
        fn prop_quantile_close_to_exact(values in proptest::collection::vec(1u64..1_000_000, 1..500)) {
            let mut h = Histogram::new();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &v in &values {
                h.record(v);
            }
            for &q in &[0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let exact = sorted[crate::quantile_rank(sorted.len() as u64, q) as usize - 1];
                let approx = h.quantile(q);
                // bucket lower bound: within 1/32 relative error below exact
                prop_assert!(approx <= exact);
                prop_assert!(approx as f64 >= exact as f64 * (1.0 - 1.0 / SUB_BUCKETS as f64) - 1.0,
                    "q={} exact={} approx={}", q, exact, approx);
            }
        }
    }
}
