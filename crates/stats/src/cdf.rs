//! Exact empirical CDF over a finished sample set.
//!
//! Figures 4 and 8 of the paper plot cumulative probability of detection and
//! out-of-service times; [`EmpiricalCdf`] is the exact analogue built from
//! per-trial measurements.

/// Exact empirical cumulative distribution function.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Build a CDF from samples. NaNs are rejected with a panic in debug
    /// builds and filtered in release builds.
    #[must_use]
    pub fn new(mut samples: Vec<f64>) -> Self {
        debug_assert!(samples.iter().all(|v| !v.is_nan()), "CDF sample is NaN");
        samples.retain(|v| !v.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
        Self { sorted: samples }
    }

    /// Emit `(x, P(X<=x))` pairs suitable for plotting, at every sample point.
    fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Emit `(x, P)` pairs downsampled to at most `max_points` for compact
    /// textual output. Always keeps the first and last point.
    #[must_use]
    pub fn points_downsampled(&self, max_points: usize) -> Vec<(f64, f64)> {
        let pts = self.points();
        if pts.len() <= max_points || max_points < 2 {
            return pts;
        }
        let last = pts.len() - 1;
        let stride = last as f64 / (max_points - 1) as f64;
        // Clamp: `(i * stride).round()` can land one past `last` for the
        // final index under floating-point error.
        (0..max_points)
            .map(|i| pts[((i as f64 * stride).round() as usize).min(last)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsorted_input_is_sorted() {
        let c = EmpiricalCdf::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(
            c.points(),
            vec![(1.0, 1.0 / 3.0), (2.0, 2.0 / 3.0), (3.0, 1.0)]
        );
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let c = EmpiricalCdf::new((0..100).map(f64::from).collect());
        let pts = c.points_downsampled(10);
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[9].0, 99.0);
    }

    #[test]
    fn downsample_never_out_of_bounds() {
        // Sweep awkward len / max_points combinations: every stride that
        // rounds near the end of the array must stay in range, keep the
        // endpoints, and emit monotone x values.
        for len in 2..=64usize {
            let c = EmpiricalCdf::new((0..len).map(|v| v as f64).collect());
            for max_points in 2..=len + 3 {
                let pts = c.points_downsampled(max_points);
                assert_eq!(pts.len(), len.min(max_points));
                assert_eq!(pts[0].0, 0.0, "len={len} max={max_points}");
                assert_eq!(
                    pts.last().unwrap().0,
                    (len - 1) as f64,
                    "len={len} max={max_points}"
                );
                for pair in pts.windows(2) {
                    assert!(pair[0].0 <= pair[1].0, "len={len} max={max_points}");
                }
            }
        }
        // Larger primes exercise strides with long fractional expansions.
        for len in [997usize, 1009, 4999] {
            let c = EmpiricalCdf::new((0..len).map(|v| v as f64).collect());
            for max_points in [2usize, 3, 7, 66, 67, 100, 333, 996] {
                let pts = c.points_downsampled(max_points);
                assert_eq!(pts.len(), max_points);
                assert_eq!(pts.last().unwrap().0, (len - 1) as f64);
            }
        }
    }
}
