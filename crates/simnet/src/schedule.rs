//! Time-varying link parameter schedules.
//!
//! The paper's fluctuation experiments (Figures 6 and 7) drive `tc netem`
//! through scripted sequences: gradual RTT ramps, abrupt RTT steps and
//! packet-loss staircases. [`LinkSchedule`] is the simulator-side analogue:
//! a piecewise-constant function from simulated time to [`NetParams`].

use crate::params::NetParams;
use crate::time::SimTime;
use std::time::Duration;

/// Piecewise-constant schedule of link parameters over simulated time.
#[derive(Debug, Clone)]
pub struct LinkSchedule {
    /// Segments sorted by start time; the first segment must start at t=0.
    segments: Vec<(SimTime, NetParams)>,
}

impl LinkSchedule {
    /// A schedule that never changes.
    #[must_use]
    pub fn constant(params: NetParams) -> Self {
        params.validate();
        Self {
            segments: vec![(SimTime::ZERO, params)],
        }
    }

    /// Build from explicit `(start, params)` segments.
    ///
    /// # Panics
    /// Panics if the list is empty, unsorted, or does not start at t = 0.
    #[must_use]
    pub fn piecewise(segments: Vec<(SimTime, NetParams)>) -> Self {
        assert!(!segments.is_empty(), "schedule needs at least one segment");
        assert_eq!(
            segments[0].0,
            SimTime::ZERO,
            "first segment must start at 0"
        );
        for pair in segments.windows(2) {
            assert!(pair[0].0 < pair[1].0, "segments must be strictly sorted");
        }
        for (_, p) in &segments {
            p.validate();
        }
        Self { segments }
    }

    /// Parameters in effect at time `t`.
    #[must_use]
    pub fn params_at(&self, t: SimTime) -> NetParams {
        let idx = self.segments.partition_point(|&(start, _)| start <= t);
        self.segments[idx - 1].1
    }

    /// The paper's *gradual* RTT fluctuation (Fig. 6a): RTT moves from
    /// `start_rtt` to `peak_rtt` and back in `step` increments, holding each
    /// value for `hold`. All other parameters come from `base`.
    #[must_use]
    pub fn gradual_rtt_ramp(
        base: NetParams,
        start_rtt: Duration,
        peak_rtt: Duration,
        step: Duration,
        hold: Duration,
    ) -> Self {
        assert!(step > Duration::ZERO, "step must be positive");
        assert!(peak_rtt >= start_rtt, "peak must be >= start");
        let mut segments = Vec::new();
        let mut t = SimTime::ZERO;
        let mut rtt = start_rtt;
        // Rising edge, inclusive of the peak.
        loop {
            segments.push((t, base.with_rtt(rtt)));
            t += hold;
            if rtt >= peak_rtt {
                break;
            }
            rtt = (rtt + step).min(peak_rtt);
        }
        // Falling edge back to the start value.
        while rtt > start_rtt {
            rtt = rtt.saturating_sub(step).max(start_rtt);
            segments.push((t, base.with_rtt(rtt)));
            t += hold;
        }
        Self::piecewise(segments)
    }

    /// The paper's *radical* RTT fluctuation (Fig. 6b): hold `low` for
    /// `hold`, step abruptly to `high` for `hold`, then back to `low`.
    ///
    /// # Panics
    /// Panics unless `low < high` — an equal or inverted pair is not a
    /// radical step, just a mislabeled constant (or inverted) schedule.
    #[must_use]
    pub fn radical_rtt_step(
        base: NetParams,
        low: Duration,
        high: Duration,
        hold: Duration,
    ) -> Self {
        assert!(low < high, "radical step requires low < high");
        Self::piecewise(vec![
            (SimTime::ZERO, base.with_rtt(low)),
            (SimTime::ZERO + hold, base.with_rtt(high)),
            (SimTime::ZERO + hold + hold, base.with_rtt(low)),
        ])
    }

    /// The paper's packet-loss staircase (Fig. 7): loss goes up through
    /// `levels` and back down (the peak is not repeated), holding each level
    /// for `hold`. RTT and jitter come from `base`.
    #[must_use]
    pub fn loss_staircase(base: NetParams, levels: &[f64], hold: Duration) -> Self {
        assert!(!levels.is_empty(), "need at least one loss level");
        let mut seq: Vec<f64> = levels.to_vec();
        seq.extend(levels.iter().rev().skip(1));
        let mut segments = Vec::new();
        let mut t = SimTime::ZERO;
        for loss in seq {
            segments.push((t, base.with_loss(loss)));
            t += hold;
        }
        Self::piecewise(segments)
    }

    /// Total duration covered by an up-and-down staircase built with
    /// [`Self::loss_staircase`] (levels up + levels-1 down, each held `hold`).
    #[must_use]
    pub fn staircase_duration(levels: usize, hold: Duration) -> Duration {
        // `2 * levels - 1` underflows in debug builds for `levels == 0`;
        // an empty staircase simply covers no time.
        if levels == 0 {
            return Duration::ZERO;
        }
        let steps = 2 * levels - 1;
        hold * steps as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::millis;

    fn base() -> NetParams {
        NetParams::clean(Duration::from_millis(50))
    }

    #[test]
    fn constant_schedule() {
        let s = LinkSchedule::constant(base());
        assert_eq!(s.params_at(SimTime::ZERO).rtt, Duration::from_millis(50));
        assert_eq!(
            s.params_at(SimTime::from_secs(1000)).rtt,
            Duration::from_millis(50)
        );
        assert_eq!(s.segments.len(), 1);
    }

    #[test]
    fn piecewise_lookup() {
        let s = LinkSchedule::piecewise(vec![
            (SimTime::ZERO, base().with_rtt(millis(10.0))),
            (SimTime::from_secs(1), base().with_rtt(millis(20.0))),
            (SimTime::from_secs(2), base().with_rtt(millis(30.0))),
        ]);
        assert_eq!(s.params_at(SimTime::from_millis(999)).rtt, millis(10.0));
        assert_eq!(s.params_at(SimTime::from_secs(1)).rtt, millis(20.0));
        assert_eq!(s.params_at(SimTime::from_millis(2500)).rtt, millis(30.0));
        assert_eq!(s.segments.len(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn unsorted_segments_panic() {
        let _ = LinkSchedule::piecewise(vec![
            (SimTime::ZERO, base()),
            (SimTime::from_secs(2), base()),
            (SimTime::from_secs(1), base()),
        ]);
    }

    #[test]
    fn gradual_ramp_matches_paper_shape() {
        // 50 -> 200 -> 50 in 10ms steps, 60s holds (paper Fig. 6a).
        let s = LinkSchedule::gradual_rtt_ramp(
            base(),
            Duration::from_millis(50),
            Duration::from_millis(200),
            Duration::from_millis(10),
            Duration::from_secs(60),
        );
        // 16 rising levels (50..=200) + 15 falling levels (190..=50) = 31.
        assert_eq!(s.segments.len(), 31);
        assert_eq!(s.params_at(SimTime::ZERO).rtt, Duration::from_millis(50));
        // After 15 minutes the ramp should be at the peak.
        assert_eq!(
            s.params_at(SimTime::from_secs(15 * 60 + 1)).rtt,
            Duration::from_millis(200)
        );
        // End of the down ramp is back at 50.
        assert_eq!(
            s.params_at(SimTime::from_secs(31 * 60)).rtt,
            Duration::from_millis(50)
        );
    }

    #[test]
    fn radical_step_matches_paper_shape() {
        let s = LinkSchedule::radical_rtt_step(
            base(),
            Duration::from_millis(50),
            Duration::from_millis(500),
            Duration::from_secs(60),
        );
        assert_eq!(
            s.params_at(SimTime::from_secs(30)).rtt,
            Duration::from_millis(50)
        );
        assert_eq!(
            s.params_at(SimTime::from_secs(90)).rtt,
            Duration::from_millis(500)
        );
        assert_eq!(
            s.params_at(SimTime::from_secs(150)).rtt,
            Duration::from_millis(50)
        );
    }

    #[test]
    fn loss_staircase_up_and_down() {
        let levels = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30];
        let s = LinkSchedule::loss_staircase(base(), &levels, Duration::from_secs(180));
        // 7 up + 6 down = 13 segments.
        assert_eq!(s.segments.len(), 13);
        assert_eq!(s.params_at(SimTime::ZERO).loss, 0.0);
        // Peak at segment index 6: t in [6*180, 7*180).
        assert_eq!(s.params_at(SimTime::from_secs(6 * 180 + 1)).loss, 0.30);
        // Second 25% plateau on the way down.
        assert_eq!(s.params_at(SimTime::from_secs(7 * 180 + 1)).loss, 0.25);
        // Final plateau back to 0.
        assert_eq!(s.params_at(SimTime::from_secs(12 * 180 + 1)).loss, 0.0);
        assert_eq!(
            LinkSchedule::staircase_duration(7, Duration::from_secs(180)),
            Duration::from_secs(13 * 180)
        );
    }

    #[test]
    fn staircase_duration_handles_zero_and_one_level() {
        // levels == 0 used to underflow (2 * 0 - 1) in debug builds.
        assert_eq!(
            LinkSchedule::staircase_duration(0, Duration::from_secs(180)),
            Duration::ZERO
        );
        assert_eq!(
            LinkSchedule::staircase_duration(1, Duration::from_secs(180)),
            Duration::from_secs(180)
        );
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn radical_step_rejects_equal_levels() {
        let _ = LinkSchedule::radical_rtt_step(
            base(),
            Duration::from_millis(100),
            Duration::from_millis(100),
            Duration::from_secs(60),
        );
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn radical_step_rejects_inverted_levels() {
        let _ = LinkSchedule::radical_rtt_step(
            base(),
            Duration::from_millis(500),
            Duration::from_millis(50),
            Duration::from_secs(60),
        );
    }
}
