//! Follower-side RTT estimation (§III-C1): the `RTTs` list.

use dynatune_stats::SampleWindow;
use std::time::Duration;

/// Windowed RTT estimator.
///
/// Stores up to `maxListSize` RTT samples (milliseconds internally) and
/// exposes the mean and standard deviation the tuning rule consumes. Below
/// `minListSize` samples the estimator reports itself as not yet warmed and
/// the tuner keeps the conservative defaults (paper Step 0).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    window: SampleWindow,
    min_samples: usize,
}

impl RttEstimator {
    /// Create an estimator with the given warm-up threshold and capacity.
    ///
    /// # Panics
    /// Panics if `min_samples == 0` or `max_samples < min_samples`.
    #[must_use]
    pub fn new(min_samples: usize, max_samples: usize) -> Self {
        assert!(min_samples > 0, "min_samples must be positive");
        assert!(max_samples >= min_samples, "max below min");
        Self {
            window: SampleWindow::new(max_samples),
            min_samples,
        }
    }

    /// Record one RTT sample.
    pub fn record(&mut self, rtt: Duration) {
        self.window.push(rtt.as_secs_f64() * 1e3);
    }

    /// True once at least `minListSize` samples are stored (paper's
    /// transition from Step 0 to Step 1).
    #[must_use]
    pub fn is_warmed(&self) -> bool {
        self.window.len() >= self.min_samples
    }

    /// Number of stored samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no samples are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Mean RTT over the window.
    #[must_use]
    pub fn mean(&self) -> Duration {
        Duration::from_secs_f64((self.window.mean() / 1e3).max(0.0))
    }

    /// Population standard deviation of the RTT over the window.
    #[must_use]
    pub fn std_dev(&self) -> Duration {
        Duration::from_secs_f64((self.window.std_dev() / 1e3).max(0.0))
    }

    /// Discard all samples (paper's reset-on-election).
    pub fn reset(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warms_up_at_min_samples() {
        let mut e = RttEstimator::new(3, 10);
        assert!(!e.is_warmed());
        e.record(Duration::from_millis(100));
        e.record(Duration::from_millis(100));
        assert!(!e.is_warmed());
        e.record(Duration::from_millis(100));
        assert!(e.is_warmed());
    }

    #[test]
    fn mean_and_std() {
        let mut e = RttEstimator::new(2, 10);
        e.record(Duration::from_millis(90));
        e.record(Duration::from_millis(110));
        assert_eq!(e.mean(), Duration::from_millis(100));
        assert_eq!(e.std_dev(), Duration::from_millis(10));
    }

    #[test]
    fn window_evicts_old_samples() {
        let mut e = RttEstimator::new(2, 3);
        for ms in [10u64, 20, 30, 1000, 1000, 1000] {
            e.record(Duration::from_millis(ms));
        }
        // Only the three 1000ms samples remain.
        assert_eq!(e.mean(), Duration::from_millis(1000));
        assert_eq!(e.std_dev(), Duration::ZERO);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn reset_discards_everything() {
        let mut e = RttEstimator::new(2, 10);
        e.record(Duration::from_millis(50));
        e.record(Duration::from_millis(60));
        assert!(e.is_warmed());
        e.reset();
        assert!(!e.is_warmed());
        assert!(e.is_empty());
        assert_eq!(e.mean(), Duration::ZERO);
    }

    #[test]
    fn sub_millisecond_rtts_survive() {
        let mut e = RttEstimator::new(2, 4);
        e.record(Duration::from_micros(500));
        e.record(Duration::from_micros(700));
        assert_eq!(e.mean(), Duration::from_micros(600));
    }
}
