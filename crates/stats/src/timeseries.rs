//! Append-only time series with sample-and-hold resampling.
//!
//! Figure 7 of the paper plots CPU usage per 5 seconds. The CPU meter
//! appends raw `(t, utilization)` points here and the `fig7` scenario
//! resamples them onto a fixed grid for output.

/// Append-only `(t, value)` series; time unit is caller-defined (we use
/// seconds of simulated time throughout the workspace).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// New, empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point. Time must be non-decreasing; out-of-order appends are
    /// rejected with a panic in debug builds and sorted lazily otherwise.
    pub fn push(&mut self, t: f64, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(lt, _)| t >= lt),
            "TimeSeries::push out of order: {t} after {:?}",
            self.points.last()
        );
        self.points.push((t, value));
    }

    /// Number of raw points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points have been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw points, oldest first.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Resample onto a fixed grid `[start, end)` with bin width `step`,
    /// by sample-and-hold: each output point is `(bin_start, v)`, where `v`
    /// is the value of the last raw point before the bin ends, whether it
    /// falls in the bin or before it. Bins before the first point are
    /// skipped.
    #[must_use]
    pub fn resample(&self, start: f64, end: f64, step: f64) -> Vec<(f64, f64)> {
        assert!(step > 0.0, "resample step must be positive");
        let mut out = Vec::new();
        let mut idx = 0usize;
        let mut t = start;
        while t < end {
            let bin_end = t + step;
            while idx < self.points.len() && self.points[idx].0 < bin_end {
                idx += 1;
            }
            if let Some(last) = idx.checked_sub(1) {
                out.push((t, self.points[last].1));
            }
            t = bin_end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pts: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in pts {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn resample_takes_the_last_point_of_each_bin() {
        let s = series(&[(0.1, 1.0), (0.2, 3.0), (1.5, 10.0)]);
        let r = s.resample(0.0, 2.0, 1.0);
        assert_eq!(r, vec![(0.0, 3.0), (1.0, 10.0)]);
    }

    #[test]
    fn resample_last_holds_previous_value() {
        let s = series(&[(0.5, 7.0)]);
        let r = s.resample(0.0, 3.0, 1.0);
        assert_eq!(r, vec![(0.0, 7.0), (1.0, 7.0), (2.0, 7.0)]);
    }

    #[test]
    fn resample_uses_hold_from_before_grid() {
        let s = series(&[(0.5, 9.0)]);
        let r = s.resample(1.0, 3.0, 1.0);
        assert_eq!(r, vec![(1.0, 9.0), (2.0, 9.0)]);
    }

    #[test]
    fn empty_series_resamples_to_nothing() {
        let s = TimeSeries::new();
        assert!(s.resample(0.0, 10.0, 1.0).is_empty());
    }
}
