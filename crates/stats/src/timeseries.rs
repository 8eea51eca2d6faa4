//! Append-only time series with fixed-interval resampling.
//!
//! Figures 6 and 7 of the paper plot per-second (and per-5-second) series of
//! randomizedTimeout, RTT, heartbeat interval and CPU usage. Observers append
//! raw `(t, value)` points here and the `fig6a`/`fig6b`/`fig7` scenarios
//! resample onto a fixed grid for output.

/// How to aggregate raw points that fall into one resampling bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResamplePolicy {
    /// Mean of points in the bin.
    Mean,
    /// Last point at or before the end of the bin (sample-and-hold).
    Last,
    /// Maximum point in the bin.
    Max,
    /// Minimum point in the bin.
    Min,
}

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

    /// Value of the last point at or before `t` (sample-and-hold lookup).
    #[must_use]
    pub fn at(&self, t: f64) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }

    /// Resample onto a fixed grid `[start, end)` with bin width `step`.
    ///
    /// Each output point is `(bin_start, aggregate)`. Bins with no raw points
    /// yield the previous value for [`ResamplePolicy::Last`] (sample-and-hold)
    /// and are skipped for the other policies.
    #[must_use]
    pub fn resample(
        &self,
        start: f64,
        end: f64,
        step: f64,
        policy: ResamplePolicy,
    ) -> Vec<(f64, f64)> {
        assert!(step > 0.0, "resample step must be positive");
        let mut out = Vec::new();
        let mut idx = 0usize;
        // Skip points before the grid, but remember the last one for hold.
        let mut hold: Option<f64> = None;
        while idx < self.points.len() && self.points[idx].0 < start {
            hold = Some(self.points[idx].1);
            idx += 1;
        }
        let mut t = start;
        while t < end {
            let bin_end = t + step;
            let mut agg: Option<f64> = None;
            let mut count = 0u64;
            while idx < self.points.len() && self.points[idx].0 < bin_end {
                let v = self.points[idx].1;
                agg = Some(match (policy, agg) {
                    (_, None) => v,
                    (ResamplePolicy::Mean, Some(a)) => a + v,
                    (ResamplePolicy::Last, Some(_)) => v,
                    (ResamplePolicy::Max, Some(a)) => a.max(v),
                    (ResamplePolicy::Min, Some(a)) => a.min(v),
                });
                count += 1;
                idx += 1;
            }
            match (agg, policy) {
                (Some(a), ResamplePolicy::Mean) => {
                    let v = a / count as f64;
                    hold = Some(v);
                    out.push((t, v));
                }
                (Some(a), _) => {
                    hold = Some(a);
                    out.push((t, a));
                }
                (None, ResamplePolicy::Last) => {
                    if let Some(h) = hold {
                        out.push((t, h));
                    }
                }
                (None, _) => {}
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
    fn at_lookup() {
        let s = series(&[(1.0, 10.0), (2.0, 20.0), (5.0, 50.0)]);
        assert_eq!(s.at(0.5), None);
        assert_eq!(s.at(1.0), Some(10.0));
        assert_eq!(s.at(3.0), Some(20.0));
        assert_eq!(s.at(100.0), Some(50.0));
    }

    #[test]
    fn resample_mean() {
        let s = series(&[(0.1, 1.0), (0.2, 3.0), (1.5, 10.0)]);
        let r = s.resample(0.0, 2.0, 1.0, ResamplePolicy::Mean);
        assert_eq!(r, vec![(0.0, 2.0), (1.0, 10.0)]);
    }

    #[test]
    fn resample_last_holds_previous_value() {
        let s = series(&[(0.5, 7.0)]);
        let r = s.resample(0.0, 3.0, 1.0, ResamplePolicy::Last);
        assert_eq!(r, vec![(0.0, 7.0), (1.0, 7.0), (2.0, 7.0)]);
    }

    #[test]
    fn resample_max_min() {
        let s = series(&[(0.1, 1.0), (0.9, 5.0), (1.1, -2.0), (1.2, 4.0)]);
        assert_eq!(
            s.resample(0.0, 2.0, 1.0, ResamplePolicy::Max),
            vec![(0.0, 5.0), (1.0, 4.0)]
        );
        assert_eq!(
            s.resample(0.0, 2.0, 1.0, ResamplePolicy::Min),
            vec![(0.0, 1.0), (1.0, -2.0)]
        );
    }

    #[test]
    fn resample_skips_empty_bins_for_mean() {
        let s = series(&[(0.5, 1.0), (2.5, 2.0)]);
        let r = s.resample(0.0, 3.0, 1.0, ResamplePolicy::Mean);
        assert_eq!(r, vec![(0.0, 1.0), (2.0, 2.0)]);
    }

    #[test]
    fn resample_uses_hold_from_before_grid() {
        let s = series(&[(0.5, 9.0)]);
        let r = s.resample(1.0, 3.0, 1.0, ResamplePolicy::Last);
        assert_eq!(r, vec![(1.0, 9.0), (2.0, 9.0)]);
    }

    #[test]
    fn empty_series_resamples_to_nothing() {
        let s = TimeSeries::new();
        assert!(s.resample(0.0, 10.0, 1.0, ResamplePolicy::Mean).is_empty());
        assert!(s.resample(0.0, 10.0, 1.0, ResamplePolicy::Last).is_empty());
    }
}
