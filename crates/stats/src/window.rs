//! Bounded sliding window with running mean / standard deviation.
//!
//! This is the data structure behind the paper's `RTTs` list (§III-C1): a
//! follower appends each measured RTT, evicts the oldest sample once
//! `maxListSize` is exceeded, and recomputes `µ_RTT` and `σ_RTT` on every
//! update. Incremental sums are used for O(1) updates; to bound floating
//! point drift the sums are recomputed exactly from the ring every
//! `RECOMPUTE_PERIOD` mutations (the window is at most a few thousand entries,
//! so the periodic pass is cheap).

use std::collections::VecDeque;

const RECOMPUTE_PERIOD: u64 = 4096;

/// Sliding window over `f64` samples with O(1) mean and standard deviation.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    capacity: usize,
    ring: VecDeque<f64>,
    sum: f64,
    sum_sq: f64,
    ops_since_recompute: u64,
}

impl SampleWindow {
    /// Create a window holding at most `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SampleWindow capacity must be positive");
        Self {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            sum: 0.0,
            sum_sq: 0.0,
            ops_since_recompute: 0,
        }
    }

    /// Append a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "SampleWindow::push got non-finite {x}");
        if self.ring.len() == self.capacity {
            if let Some(old) = self.ring.pop_front() {
                self.sum -= old;
                self.sum_sq -= old * old;
            }
        }
        self.ring.push_back(x);
        self.sum += x;
        self.sum_sq += x * x;
        self.ops_since_recompute += 1;
        if self.ops_since_recompute >= RECOMPUTE_PERIOD {
            self.recompute();
        }
    }

    fn recompute(&mut self) {
        self.sum = self.ring.iter().sum();
        self.sum_sq = self.ring.iter().map(|v| v * v).sum();
        self.ops_since_recompute = 0;
    }

    /// Drop all samples (the paper's reset-on-election behaviour).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.sum = 0.0;
        self.sum_sq = 0.0;
        self.ops_since_recompute = 0;
    }

    /// Number of samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no samples are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Mean of the samples in the window (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.ring.is_empty() {
            0.0
        } else {
            self.sum / self.ring.len() as f64
        }
    }

    /// Population standard deviation over the window (0 when empty).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        let n = self.ring.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.sum / n as f64;
        let var = (self.sum_sq / n as f64 - mean * mean).max(0.0);
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_std(values: &[f64]) -> f64 {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt()
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SampleWindow::new(0);
    }

    #[test]
    fn empty_window() {
        let w = SampleWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn eviction_keeps_only_capacity_newest() {
        let mut w = SampleWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        assert_eq!(w.len(), 3);
        assert!((w.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let mut w = SampleWindow::new(3);
        w.push(10.0);
        w.push(20.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
        w.push(7.0);
        assert_eq!(w.mean(), 7.0);
    }

    #[test]
    fn constant_samples_have_zero_std() {
        let mut w = SampleWindow::new(100);
        for _ in 0..50 {
            w.push(123.456);
        }
        assert!((w.mean() - 123.456).abs() < 1e-9);
        assert!(w.std_dev() < 1e-9);
    }

    #[test]
    fn long_stream_does_not_drift() {
        // Push far more than RECOMPUTE_PERIOD samples and verify the window
        // statistics still match an exact recomputation.
        let mut w = SampleWindow::new(64);
        let mut expect = Vec::new();
        for i in 0..20_000u64 {
            let x = ((i * 2_654_435_761) % 1000) as f64 / 10.0;
            w.push(x);
            expect.push(x);
        }
        let tail = &expect[expect.len() - 64..];
        let mean = tail.iter().sum::<f64>() / 64.0;
        assert!((w.mean() - mean).abs() < 1e-6);
        assert!((w.std_dev() - naive_std(tail)).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_window_matches_naive_tail(
            values in proptest::collection::vec(0.0f64..1e4, 1..300),
            cap in 1usize..64,
        ) {
            let mut w = SampleWindow::new(cap);
            for &v in &values {
                w.push(v);
            }
            let start = values.len().saturating_sub(cap);
            let tail = &values[start..];
            prop_assert_eq!(w.len(), tail.len());
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((w.std_dev() - naive_std(tail)).abs() < 1e-5 * (1.0 + naive_std(tail)));
        }
    }
}
