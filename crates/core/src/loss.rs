//! Follower-side packet-loss estimation (§III-C2): the `ids` list.
//!
//! The follower keeps the ids of received heartbeats in ascending order.
//! The loss rate is `1 − received / expected` where
//! `expected = ids[-1] − ids[0] + 1`. Out-of-order arrivals are inserted in
//! position; duplicates are ignored (paper's reordering/duplication rules).

use std::collections::VecDeque;

/// Windowed packet-loss estimator over sequential heartbeat ids.
///
/// It has no warm-up of its own: the tuner warms up on its RTT list, and
/// every fresh heartbeat is recorded here before its RTT sample is
/// recorded there, so this list is never the shorter one.
#[derive(Debug, Clone)]
pub struct LossEstimator {
    /// Received ids, ascending, unique.
    ids: VecDeque<u64>,
    max_size: usize,
}

impl LossEstimator {
    /// Create an estimator retaining at most `max_size` ids.
    ///
    /// # Panics
    /// Panics if `max_size == 0`.
    #[must_use]
    pub fn new(max_size: usize) -> Self {
        assert!(max_size > 0, "max_size must be positive");
        Self {
            ids: VecDeque::with_capacity(max_size.min(4096)),
            max_size,
        }
    }

    /// Record a received heartbeat id.
    ///
    /// Returns `false` when the id is a duplicate (ignored, per §III-C2) or
    /// older than the retained window (stale reordering, also ignored).
    pub fn record(&mut self, id: u64) -> bool {
        // Fast path: strictly increasing arrivals.
        match self.ids.back() {
            None => self.ids.push_back(id),
            Some(&last) if id > last => self.ids.push_back(id),
            Some(_) => {
                // Out-of-order or duplicate: binary-insert in position.
                let pos = self.ids.partition_point(|&v| v < id);
                if self.ids.get(pos) == Some(&id) {
                    return false; // duplicate
                }
                if pos == 0 && self.ids.len() >= self.max_size {
                    return false; // older than the window, would be evicted
                }
                self.ids.insert(pos, id);
            }
        }
        while self.ids.len() > self.max_size {
            self.ids.pop_front();
        }
        true
    }

    /// Estimated loss rate `p = 1 − received/expected` over the window.
    /// Returns 0 with fewer than two ids.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.ids.len() < 2 {
            return 0.0;
        }
        let first = *self.ids.front().expect("non-empty");
        let last = *self.ids.back().expect("non-empty");
        let expected = (last - first + 1) as f64;
        let received = self.ids.len() as f64;
        (1.0 - received / expected).clamp(0.0, 1.0)
    }

    /// Discard all ids (paper's reset-on-election).
    pub fn reset(&mut self) {
        self.ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_loss_when_contiguous() {
        let mut e = LossEstimator::new(100);
        for id in 0..50 {
            assert!(e.record(id));
        }
        assert_eq!(e.loss_rate(), 0.0);
    }

    #[test]
    fn loss_rate_from_gaps() {
        let mut e = LossEstimator::new(100);
        // Receive 0,2,4,6,8: 5 of 9 expected -> p = 4/9.
        for id in [0u64, 2, 4, 6, 8] {
            e.record(id);
        }
        assert!((e.loss_rate() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_ignored() {
        let mut e = LossEstimator::new(100);
        assert!(e.record(1));
        assert!(e.record(2));
        assert!(!e.record(1));
        assert!(!e.record(2));
        assert_eq!(e.ids.len(), 2);
        assert_eq!(e.loss_rate(), 0.0);
    }

    #[test]
    fn out_of_order_inserted_in_position() {
        let mut e = LossEstimator::new(100);
        e.record(5);
        e.record(1);
        e.record(3);
        // ids = [1,3,5]: 3 of 5 expected -> p = 2/5
        assert!((e.loss_rate() - 0.4).abs() < 1e-12);
        assert_eq!(e.ids.len(), 3);
    }

    #[test]
    fn window_eviction_drops_oldest() {
        let mut e = LossEstimator::new(3);
        for id in [10u64, 11, 12, 13] {
            e.record(id);
        }
        assert_eq!(e.ids.len(), 3);
        // ids = [11,12,13]
        assert_eq!(e.loss_rate(), 0.0);
        // An id older than the retained window is rejected.
        assert!(!e.record(5));
    }

    #[test]
    fn reset_clears() {
        let mut e = LossEstimator::new(10);
        e.record(1);
        e.record(4);
        e.reset();
        assert!(e.ids.is_empty());
        assert_eq!(e.loss_rate(), 0.0);
    }

    #[test]
    fn single_id_reports_zero_loss() {
        let mut e = LossEstimator::new(10);
        e.record(42);
        assert_eq!(e.loss_rate(), 0.0);
    }

    proptest! {
        /// Feeding ids 0..n with each id independently "lost" produces a
        /// loss estimate equal to the true fraction of dropped ids between
        /// the first and last received id.
        #[test]
        fn prop_estimate_matches_ground_truth(mask in proptest::collection::vec(prop::bool::ANY, 2..200)) {
            let mut e = LossEstimator::new(1000);
            let received: Vec<u64> = mask.iter().enumerate()
                .filter(|(_, &keep)| keep)
                .map(|(i, _)| i as u64)
                .collect();
            for &id in &received {
                e.record(id);
            }
            if received.len() >= 2 {
                let first = received[0];
                let last = *received.last().unwrap();
                let expected = (last - first + 1) as f64;
                let truth = 1.0 - received.len() as f64 / expected;
                prop_assert!((e.loss_rate() - truth).abs() < 1e-12);
            } else {
                prop_assert_eq!(e.loss_rate(), 0.0);
            }
        }

        /// Arrival order never changes the estimate (reordering tolerance).
        #[test]
        fn prop_order_independent(ids in proptest::collection::btree_set(0u64..500, 2..50), seed in 0u64..1000) {
            let sorted: Vec<u64> = ids.iter().copied().collect();
            let mut shuffled = sorted.clone();
            // Deterministic Fisher-Yates from the seed.
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            let mut a = LossEstimator::new(1000);
            let mut b = LossEstimator::new(1000);
            for &id in &sorted { a.record(id); }
            for &id in &shuffled { b.record(id); }
            prop_assert_eq!(a.ids.len(), b.ids.len());
            prop_assert!((a.loss_rate() - b.loss_rate()).abs() < 1e-12);
        }
    }
}
