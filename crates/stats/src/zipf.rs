//! Zipf-distributed sampler for skewed KV workloads.
//!
//! The sampler precomputes the cumulative weight table once (O(n)) and draws
//! by binary search (O(log n)). It consumes a caller-provided uniform variate
//! in `[0, 1)`, keeping all randomness under the simulator's deterministic
//! RNG streams.

/// Zipf(n, theta) sampler over ranks `0..n` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Create a sampler over `n` items with skew `theta >= 0`.
    ///
    /// `theta == 0` is the uniform distribution; `theta ~ 0.99` is the YCSB
    /// default "zipfian" skew.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative/non-finite.
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf requires at least one item");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "invalid Zipf theta {theta}"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cumulative.push(total);
        }
        // Normalise so the last entry is exactly 1.0.
        let norm = total;
        for c in &mut cumulative {
            *c /= norm;
        }
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Self { cumulative }
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false (construction requires n > 0); present for API symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Map a uniform variate `u in [0, 1)` to a rank in `0..n`.
    #[must_use]
    pub fn sample(&self, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }

    /// Probability mass of a given rank.
    #[cfg(test)]
    fn pmf(&self, rank: usize) -> f64 {
        let hi = self.cumulative[rank];
        let lo = if rank == 0 {
            0.0
        } else {
            self.cumulative[rank - 1]
        };
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        for rank in 0..4 {
            assert!((z.pmf(rank) - 0.25).abs() < 1e-12);
        }
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.26), 1);
        assert_eq!(z.sample(0.51), 2);
        assert_eq!(z.sample(0.76), 3);
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = Zipf::new(100, 0.99);
        for rank in 1..100 {
            assert!(z.pmf(0) >= z.pmf(rank));
        }
        // The head of a zipf(0.99) over 100 items carries a large mass.
        assert!(z.pmf(0) > 0.1);
    }

    #[test]
    fn sample_edges() {
        let z = Zipf::new(10, 1.0);
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(1.0), 9); // clamped just below 1.0
        assert_eq!(z.sample(0.999_999_999), 9);
    }

    #[test]
    fn pmf_sums_to_one() {
        for theta in [0.0, 0.5, 0.99, 2.0] {
            let z = Zipf::new(57, theta);
            let total: f64 = (0..57).map(|r| z.pmf(r)).sum();
            assert!((total - 1.0).abs() < 1e-9, "theta={theta} total={total}");
        }
    }

    proptest! {
        #[test]
        fn prop_sample_in_range(n in 1usize..500, theta in 0.0f64..3.0, u in 0.0f64..1.0) {
            let z = Zipf::new(n, theta);
            prop_assert!(z.sample(u) < n);
        }

        #[test]
        fn prop_sample_monotone_in_u(n in 2usize..100, theta in 0.0f64..2.0, a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let z = Zipf::new(n, theta);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(z.sample(lo) <= z.sample(hi));
        }
    }
}
