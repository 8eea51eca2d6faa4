//! Leader-side per-follower heartbeat pacing (§III-B step 0 / step 3).
//!
//! In Dynatune each leader→follower path has its own heartbeat interval, so
//! the leader keeps one [`LeaderPacer`] per follower. The pacer:
//!
//! * decides when the next heartbeat is due and stamps it with the
//!   sequential id + local send timestamp ([`HeartbeatMeta`]);
//! * computes the RTT from the echoed timestamp on each reply (the leader
//!   needs no in-flight bookkeeping — Fig. 3a);
//! * applies the follower's piggybacked tuned interval (step 3).

use crate::config::TuningConfig;
use crate::meta::{HeartbeatMeta, HeartbeatReply};
use crate::tuner::HEARTBEAT_FLOOR;
use std::time::Duration;

/// Leader-side pacing state for one follower. Each pacer runs on its own
/// deadline: the leader never fires one ahead of its interval, and never
/// holds back one that is due.
#[derive(Debug, Clone)]
pub struct LeaderPacer {
    config: TuningConfig,
    /// Heartbeat interval currently applied to this follower.
    interval: Duration,
    /// Next send deadline (leader-local nanoseconds).
    next_send_nanos: u64,
    /// Next heartbeat id to assign.
    next_id: u64,
    /// Last RTT computed from a reply; forwarded on the next heartbeat.
    last_rtt: Option<Duration>,
}

impl LeaderPacer {
    /// Create a pacer starting at the default interval, first heartbeat due
    /// immediately at `now_nanos`.
    #[must_use]
    pub fn new(config: TuningConfig, now_nanos: u64) -> Self {
        config.validate();
        Self {
            interval: config.default_heartbeat_interval,
            next_send_nanos: now_nanos,
            next_id: 0,
            last_rtt: None,
            config,
        }
    }

    /// Current heartbeat interval for this follower.
    #[must_use]
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Leader-local deadline of the next heartbeat.
    #[must_use]
    pub fn next_send_nanos(&self) -> u64 {
        self.next_send_nanos
    }

    /// If a heartbeat is due at `now_nanos`, emit its metadata and schedule
    /// the next one. Missed intervals (e.g. after a pause) do not burst:
    /// the next deadline is `now + interval`.
    pub fn maybe_emit(&mut self, now_nanos: u64) -> Option<HeartbeatMeta> {
        if now_nanos < self.next_send_nanos {
            return None;
        }
        let meta = HeartbeatMeta {
            id: self.next_id,
            sent_at_nanos: now_nanos,
            rtt_sample: self.last_rtt,
        };
        self.next_id += 1;
        self.next_send_nanos = now_nanos + self.interval.as_nanos() as u64;
        Some(meta)
    }

    /// Process a heartbeat reply at `now_nanos`: measure the RTT from the
    /// echoed timestamp and adopt the follower's tuned interval if present.
    pub fn on_reply(&mut self, now_nanos: u64, reply: &HeartbeatReply) {
        // A reply from the future (clock misuse) is ignored defensively.
        if let Some(delta) = now_nanos.checked_sub(reply.echo_sent_at_nanos) {
            self.last_rtt = Some(Duration::from_nanos(delta));
        }
        if let Some(h) = reply.tuned_interval {
            self.interval = h.max(HEARTBEAT_FLOOR);
        }
    }

    /// Revert to the default interval and forget measurements (applied when
    /// leadership or membership changes).
    pub fn reset(&mut self, now_nanos: u64) {
        self.interval = self.config.default_heartbeat_interval;
        self.next_send_nanos = now_nanos;
        self.last_rtt = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn pacer() -> LeaderPacer {
        LeaderPacer::new(TuningConfig::dynatune(), 0)
    }

    #[test]
    fn first_heartbeat_is_immediate() {
        let mut p = pacer();
        let meta = p.maybe_emit(0).expect("due at t=0");
        assert_eq!(meta.id, 0);
        assert_eq!(meta.sent_at_nanos, 0);
        assert_eq!(meta.rtt_sample, None);
        // Not due again until one default interval (100ms) later.
        assert_eq!(p.maybe_emit(50 * MS), None);
        assert!(p.maybe_emit(100 * MS).is_some());
    }

    #[test]
    fn ids_are_sequential() {
        let mut p = pacer();
        let mut ids = Vec::new();
        let mut t = 0;
        for _ in 0..5 {
            ids.push(p.maybe_emit(t).unwrap().id);
            t += 100 * MS;
        }
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reply_measures_rtt_and_applies_interval() {
        let mut p = pacer();
        let meta = p.maybe_emit(0).unwrap();
        let reply = HeartbeatReply {
            id: meta.id,
            echo_sent_at_nanos: meta.sent_at_nanos,
            tuned_interval: Some(Duration::from_millis(40)),
        };
        p.on_reply(80 * MS, &reply);
        assert_eq!(p.interval(), Duration::from_millis(40));
        // Next heartbeat carries the measured RTT.
        let next = p.maybe_emit(100 * MS).unwrap();
        assert_eq!(next.rtt_sample, Some(Duration::from_millis(80)));
        // And the new 40ms cadence applies from that send.
        assert_eq!(p.next_send_nanos(), 140 * MS);
    }

    #[test]
    fn reply_without_tuning_keeps_interval() {
        let mut p = pacer();
        let meta = p.maybe_emit(0).unwrap();
        p.on_reply(10 * MS, &HeartbeatReply::echo_only(&meta));
        assert_eq!(p.interval(), Duration::from_millis(100));
        let next = p.maybe_emit(100 * MS).unwrap();
        assert_eq!(next.rtt_sample, Some(Duration::from_millis(10)));
    }

    #[test]
    fn no_burst_after_gap() {
        let mut p = pacer();
        p.maybe_emit(0).unwrap();
        // Leader was busy/paused for 1s; exactly one heartbeat emitted,
        // next scheduled one interval after the late send.
        let late = p.maybe_emit(1000 * MS).unwrap();
        assert_eq!(late.id, 1);
        assert_eq!(p.next_send_nanos(), 1100 * MS);
        assert_eq!(p.maybe_emit(1050 * MS), None);
    }

    #[test]
    fn tuned_interval_respects_floor() {
        let mut p = pacer();
        let meta = p.maybe_emit(0).unwrap();
        p.on_reply(
            MS,
            &HeartbeatReply {
                id: meta.id,
                echo_sent_at_nanos: meta.sent_at_nanos,
                tuned_interval: Some(Duration::from_nanos(10)),
            },
        );
        assert_eq!(p.interval(), Duration::from_millis(1)); // default floor
    }

    #[test]
    fn future_echo_ignored() {
        let mut p = pacer();
        let _ = p.maybe_emit(0);
        p.on_reply(
            5 * MS,
            &HeartbeatReply {
                id: 0,
                echo_sent_at_nanos: 10 * MS, // claims to be from the future
                tuned_interval: None,
            },
        );
        assert_eq!(p.maybe_emit(100 * MS).unwrap().rtt_sample, None);
    }

    #[test]
    fn reset_restores_defaults() {
        let mut p = pacer();
        let meta = p.maybe_emit(0).unwrap();
        p.on_reply(
            20 * MS,
            &HeartbeatReply {
                id: meta.id,
                echo_sent_at_nanos: meta.sent_at_nanos,
                tuned_interval: Some(Duration::from_millis(7)),
            },
        );
        assert_eq!(p.interval(), Duration::from_millis(7));
        p.reset(500 * MS);
        assert_eq!(p.interval(), Duration::from_millis(100));
        assert_eq!(p.next_send_nanos(), 500 * MS);
        let next = p.maybe_emit(500 * MS).unwrap();
        assert_eq!(next.rtt_sample, None);
        // ids keep increasing across resets (no ambiguity for the follower).
        assert_eq!(next.id, 1);
    }
}
