//! The follower-side tuner: Steps 0–3 of §III-B glued together.

use crate::config::{TuningConfig, TuningMode};
use crate::loss::LossEstimator;
use crate::math::{election_timeout_from_rtt, required_heartbeats};
use crate::meta::{HeartbeatMeta, HeartbeatReply};
use crate::rtt::RttEstimator;
use std::time::Duration;

/// Hard floor for a tuned election timeout. Also the shortest timeout any
/// member of a tuning cluster can run, which is what bounds a leader lease.
pub const ELECTION_TIMEOUT_FLOOR: Duration = Duration::from_millis(10);
/// Hard ceiling for a tuned election timeout.
const ELECTION_TIMEOUT_CEILING: Duration = Duration::from_secs(60);
/// Hard floor for a tuned heartbeat interval.
pub(crate) const HEARTBEAT_FLOOR: Duration = Duration::from_millis(1);
/// Upper clamp on `K` (guards `log_p(1-x)` blow-up as p → 1).
const K_MAX: u32 = 100;

const _: () = assert!(K_MAX >= 1, "K_MAX must be >= 1");
const _: () = assert!(
    ELECTION_TIMEOUT_FLOOR.as_nanos() <= ELECTION_TIMEOUT_CEILING.as_nanos(),
    "election timeout floor above ceiling"
);

/// Read-only view of the tuner's current state, for observers and logs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningSnapshot {
    /// Current election timeout `Et`.
    pub election_timeout: Duration,
    /// Current heartbeat interval `h` this follower asks the leader to use.
    pub heartbeat_interval: Duration,
    /// Estimated packet loss rate `p`.
    pub loss_rate: f64,
    /// Mean RTT over the window.
    pub rtt_mean: Duration,
    /// RTT standard deviation over the window.
    pub rtt_std: Duration,
    /// Number of RTT samples held.
    pub rtt_samples: usize,
    /// Whether tuned values (vs. defaults) are in effect.
    pub warmed: bool,
}

/// Follower-side Dynatune state for one leader→follower path.
///
/// Lifecycle (paper §III-B):
/// 1. **Step 0** — record heartbeat metadata until `minListSize` samples.
/// 2. **Steps 1–2** — estimate RTT/loss, compute `Et = µ + s·σ` and
///    `h = Et / K(p, x)` on every heartbeat.
/// 3. **Step 3** — expose `Et` via [`Self::election_timeout`] (the consensus
///    layer applies it to its election timer) and piggyback `h` on the
///    heartbeat reply.
/// 4. **Fallback** — [`Self::reset`] discards all measurements and reverts
///    to defaults; the consensus layer calls it whenever the election timer
///    fires or leadership changes.
#[derive(Debug, Clone)]
pub struct FollowerTuner {
    config: TuningConfig,
    rtt: RttEstimator,
    loss: LossEstimator,
    election_timeout: Duration,
    heartbeat_interval: Duration,
    warmed: bool,
}

impl FollowerTuner {
    /// Create a tuner in the default (Step 0) state.
    ///
    /// # Panics
    /// Panics when the config is invalid.
    #[must_use]
    pub fn new(config: TuningConfig) -> Self {
        config.validate();
        Self {
            rtt: RttEstimator::new(config.min_list_size, config.max_list_size),
            loss: LossEstimator::new(config.max_list_size),
            election_timeout: config.default_election_timeout,
            heartbeat_interval: config.default_heartbeat_interval,
            warmed: false,
            config,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TuningConfig {
        &self.config
    }

    /// Process one received heartbeat's metadata and produce the reply
    /// metadata to piggyback on the acknowledgement.
    pub fn on_heartbeat(&mut self, meta: &HeartbeatMeta) -> HeartbeatReply {
        if !self.config.mode.tunes() {
            // Static baselines neither record nor tune (pure etcd).
            return HeartbeatReply::echo_only(meta);
        }
        let fresh = self.loss.record(meta.id);
        if !fresh {
            // Duplicate delivery: echo, but do not double-count.
            return HeartbeatReply {
                tuned_interval: self.warmed.then_some(self.heartbeat_interval),
                ..HeartbeatReply::echo_only(meta)
            };
        }
        if let Some(rtt) = meta.rtt_sample {
            self.rtt.record(rtt);
        }
        self.retune();
        HeartbeatReply {
            id: meta.id,
            echo_sent_at_nanos: meta.sent_at_nanos,
            tuned_interval: self.warmed.then_some(self.heartbeat_interval),
        }
    }

    /// Recompute `Et` and `h` from current estimates (Steps 1–2).
    fn retune(&mut self) {
        if !self.rtt.is_warmed() {
            return; // still Step 0
        }
        self.warmed = true;
        self.election_timeout = election_timeout_from_rtt(
            self.rtt.mean(),
            self.rtt.std_dev(),
            self.config.safety_factor,
            ELECTION_TIMEOUT_FLOOR,
            ELECTION_TIMEOUT_CEILING,
        );
        let k = match self.config.mode {
            TuningMode::Static => unreachable!("static mode never retunes"),
            TuningMode::FixK(k) => k.max(1),
            TuningMode::Dynatune => required_heartbeats(
                self.loss.loss_rate(),
                self.config.arrival_probability,
                K_MAX,
            ),
        };
        let h = Duration::from_secs_f64(self.election_timeout.as_secs_f64() / f64::from(k));
        self.heartbeat_interval = h.max(HEARTBEAT_FLOOR);
    }

    /// Current election timeout `Et` for this path (default until warmed).
    #[must_use]
    pub fn election_timeout(&self) -> Duration {
        self.election_timeout
    }

    /// Current heartbeat interval `h` the follower expects from the leader.
    /// Followers use this as the tick period for timer quantization.
    #[must_use]
    pub fn expected_heartbeat_interval(&self) -> Duration {
        self.heartbeat_interval
    }

    /// Whether tuned values are in effect (false during Step 0 / after
    /// reset).
    #[must_use]
    pub fn is_warmed(&self) -> bool {
        self.warmed
    }

    /// Estimated packet loss rate.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        self.loss.loss_rate()
    }

    /// Discard all measurements and fall back to the conservative defaults.
    ///
    /// Per §III-B this is "the beginning of Step 0": it runs when a (new)
    /// leader's path is established, and as the availability fallback when
    /// an election fails to resolve quickly (see `dynatune-raft`'s campaign
    /// escalation).
    pub fn reset(&mut self) {
        self.rtt.reset();
        self.loss.reset();
        self.election_timeout = self.config.default_election_timeout;
        self.heartbeat_interval = self.config.default_heartbeat_interval;
        self.warmed = false;
    }

    /// Discard the measurement *data* but keep the currently tuned
    /// parameters in force.
    ///
    /// Per §III-B / Fig. 6b, on an election-timer expiry the follower
    /// "discards the network measurement data they had gathered" and
    /// campaigns; the conservative defaults are restored only when Step 0
    /// restarts with a newly elected leader ([`Self::reset`]). Keeping the
    /// tuned (small) Et for campaign retries is what keeps Dynatune's
    /// split-vote retries cheap (§IV-E reports a 560 ms mean election time,
    /// which default-paced retries could not produce).
    pub fn reset_measurements(&mut self) {
        self.rtt.reset();
        self.loss.reset();
        self.warmed = false;
    }

    /// Observer snapshot.
    #[must_use]
    pub fn snapshot(&self) -> TuningSnapshot {
        TuningSnapshot {
            election_timeout: self.election_timeout,
            heartbeat_interval: self.heartbeat_interval,
            loss_rate: self.loss.loss_rate(),
            rtt_mean: self.rtt.mean(),
            rtt_std: self.rtt.std_dev(),
            rtt_samples: self.rtt.len(),
            warmed: self.warmed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat(id: u64, rtt_ms: Option<u64>) -> HeartbeatMeta {
        HeartbeatMeta {
            id,
            sent_at_nanos: id * 1_000_000,
            rtt_sample: rtt_ms.map(Duration::from_millis),
        }
    }

    fn warmed_tuner(rtt_ms: u64, n: usize) -> FollowerTuner {
        let mut t = FollowerTuner::new(TuningConfig::dynatune());
        for i in 0..n as u64 {
            t.on_heartbeat(&heartbeat(i, Some(rtt_ms)));
        }
        t
    }

    #[test]
    fn static_mode_never_tunes() {
        let mut t = FollowerTuner::new(TuningConfig::raft_default());
        for i in 0..100 {
            let reply = t.on_heartbeat(&heartbeat(i, Some(100)));
            assert_eq!(reply.tuned_interval, None);
        }
        assert!(!t.is_warmed());
        assert_eq!(t.election_timeout(), Duration::from_millis(1000));
        assert_eq!(t.expected_heartbeat_interval(), Duration::from_millis(100));
    }

    #[test]
    fn stays_default_during_step0() {
        let mut t = FollowerTuner::new(TuningConfig::dynatune());
        // min_list_size is 10; 9 samples must not trigger tuning.
        for i in 0..9 {
            t.on_heartbeat(&heartbeat(i, Some(50)));
        }
        assert!(!t.is_warmed());
        assert_eq!(t.election_timeout(), Duration::from_millis(1000));
    }

    #[test]
    fn tunes_after_warmup_stable_rtt() {
        let t = warmed_tuner(100, 20);
        assert!(t.is_warmed());
        // sigma = 0 -> Et = mean = 100ms; p = 0 -> K = 1 -> h = Et.
        assert_eq!(t.election_timeout(), Duration::from_millis(100));
        assert_eq!(t.expected_heartbeat_interval(), Duration::from_millis(100));
    }

    #[test]
    fn variance_widens_election_timeout() {
        let mut t = FollowerTuner::new(TuningConfig::dynatune());
        // Alternate 80/120ms: mean 100, std 20 -> Et = 100 + 2*20 = 140.
        for i in 0..20u64 {
            let rtt = if i % 2 == 0 { 80 } else { 120 };
            t.on_heartbeat(&heartbeat(i, Some(rtt)));
        }
        assert_eq!(t.election_timeout(), Duration::from_millis(140));
    }

    #[test]
    fn loss_shrinks_heartbeat_interval() {
        let mut t = FollowerTuner::new(TuningConfig::dynatune());
        // Every third heartbeat lost: ids 0,1,3,4,6,7,... p = 1/3.
        for id in 0..30u64 {
            if id % 3 != 2 {
                t.on_heartbeat(&heartbeat(id, Some(100)));
            }
        }
        assert!(t.is_warmed());
        let p = t.loss_rate();
        assert!((p - 1.0 / 3.0).abs() < 0.05, "p = {p}");
        // K = ceil(log_{1/3}(0.001)) = ceil(6.29) = 7 -> h = 100/7 ≈ 14.3ms
        let h = t.expected_heartbeat_interval();
        assert!(h < Duration::from_millis(20), "h = {h:?}");
        assert!(h > Duration::from_millis(10), "h = {h:?}");
        // Et itself is unaffected by loss.
        assert_eq!(t.election_timeout(), Duration::from_millis(100));
    }

    #[test]
    fn fix_k_pins_the_ratio() {
        let mut t = FollowerTuner::new(TuningConfig::fix_k(10));
        // Lossy path: every second heartbeat lost.
        for i in 0..40u64 {
            if i % 2 == 0 {
                t.on_heartbeat(&heartbeat(i, Some(200)));
            }
        }
        assert!(t.is_warmed());
        assert_eq!(t.election_timeout(), Duration::from_millis(200));
        // Despite ~50% loss, h stays Et/10.
        assert_eq!(t.expected_heartbeat_interval(), Duration::from_millis(20));
    }

    #[test]
    fn reply_piggybacks_h_only_when_warmed() {
        let mut t = FollowerTuner::new(TuningConfig::dynatune());
        let early = t.on_heartbeat(&heartbeat(0, Some(100)));
        assert_eq!(early.tuned_interval, None);
        for i in 1..15 {
            t.on_heartbeat(&heartbeat(i, Some(100)));
        }
        let late = t.on_heartbeat(&heartbeat(15, Some(100)));
        assert_eq!(late.tuned_interval, Some(Duration::from_millis(100)));
    }

    #[test]
    fn duplicate_heartbeats_do_not_distort() {
        let mut t = FollowerTuner::new(TuningConfig::dynatune());
        for i in 0..15u64 {
            t.on_heartbeat(&heartbeat(i, Some(100)));
            // duplicate delivery of every heartbeat
            let dup_reply = t.on_heartbeat(&heartbeat(i, Some(100)));
            assert_eq!(dup_reply.id, i);
        }
        assert_eq!(t.loss_rate(), 0.0);
        // RTT window holds one sample per unique heartbeat.
        assert_eq!(t.snapshot().rtt_samples, 15);
    }

    #[test]
    fn reset_falls_back_to_defaults() {
        let mut t = warmed_tuner(50, 20);
        assert!(t.is_warmed());
        assert_eq!(t.election_timeout(), Duration::from_millis(50));
        t.reset();
        assert!(!t.is_warmed());
        assert_eq!(t.election_timeout(), Duration::from_millis(1000));
        assert_eq!(t.expected_heartbeat_interval(), Duration::from_millis(100));
        assert_eq!(t.snapshot().rtt_samples, 0);
    }

    #[test]
    fn reset_measurements_keeps_tuned_parameters() {
        let mut t = warmed_tuner(50, 20);
        t.reset_measurements();
        assert!(!t.is_warmed(), "data discarded");
        assert_eq!(t.snapshot().rtt_samples, 0);
        // Tuned Et/h stay in force for the campaign (§III-B reading).
        assert_eq!(t.election_timeout(), Duration::from_millis(50));
        assert_eq!(t.expected_heartbeat_interval(), Duration::from_millis(50));
        // Replies stop advertising a tuned h until re-warmed.
        let reply = t.on_heartbeat(&heartbeat(1000, Some(80)));
        assert_eq!(reply.tuned_interval, None);
    }

    #[test]
    fn adapts_to_rtt_change() {
        let mut t = warmed_tuner(50, 1000);
        assert_eq!(t.election_timeout(), Duration::from_millis(50));
        // RTT rises to 500ms; after the window refills the tuned Et follows.
        for i in 1000..2100u64 {
            t.on_heartbeat(&heartbeat(i, Some(500)));
        }
        // window (1000) now holds only 500ms samples
        assert_eq!(t.election_timeout(), Duration::from_millis(500));
    }

    #[test]
    fn heartbeat_floor_respected() {
        let mut t = FollowerTuner::new(TuningConfig::dynatune());
        // 10ms RTT with 70 % loss wants h = Et / 20 = 0.5 ms.
        for id in 0..200u64 {
            if id % 10 < 3 {
                t.on_heartbeat(&heartbeat(id, Some(10)));
            }
        }
        assert!(t.is_warmed());
        assert_eq!(t.election_timeout(), Duration::from_millis(10));
        assert_eq!(t.expected_heartbeat_interval(), HEARTBEAT_FLOOR);
    }

    #[test]
    fn snapshot_reflects_state() {
        let t = warmed_tuner(100, 30);
        let s = t.snapshot();
        assert!(s.warmed);
        assert_eq!(s.election_timeout, Duration::from_millis(100));
        assert_eq!(s.rtt_mean, Duration::from_millis(100));
        assert_eq!(s.rtt_std, Duration::ZERO);
        assert_eq!(s.loss_rate, 0.0);
        assert_eq!(s.rtt_samples, 30);
    }
}
