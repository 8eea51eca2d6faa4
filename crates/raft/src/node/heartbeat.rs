//! Heartbeat exchange — **the Dynatune seam**. This is the one file where
//! the paper's mechanism meets Raft's messages: the leader's per-follower
//! [`LeaderPacer`](dynatune_core::LeaderPacer) decides when a heartbeat
//! leaves and stamps its measurement metadata, the follower's
//! [`FollowerTuner`](dynatune_core::FollowerTuner) digests that metadata
//! into `Et`/`h`, and the reply carries the tuned interval back to the
//! pacer. The rest of the node only builds the two, reads the tuned `Et`/`h`
//! for its election timer (`election.rs`) and resets the tuner at the
//! §III-B fallback points (election timeout, role change, restart).
//! Each follower keeps its own pacer and cadence, and a heartbeat leaves
//! when its pacer is due even while appends are flowing: neither §IV-E
//! extension (suppression while replicating, one consolidated timer) is
//! modelled.

use super::replication::Peer;
use super::{send, NodeEffects, RaftNode, RoleState};
use crate::message::{Heartbeat, HeartbeatResp, Payload};
use crate::state_machine::StateMachine;
use crate::types::NodeId;
use dynatune_core::TuningSnapshot;
use dynatune_simnet::SimTime;
use std::time::Duration;

impl<SM: StateMachine> RaftNode<SM> {
    /// Snapshot of the Dynatune tuner state.
    #[must_use]
    pub fn tuning_snapshot(&self) -> TuningSnapshot {
        self.tuner.snapshot()
    }

    /// Heartbeat interval currently applied towards `follower` (leader only).
    #[must_use]
    pub fn pacer_interval(&self, follower: NodeId) -> Option<Duration> {
        Some(self.lead()?.peers.get(follower)?.pacer.interval())
    }

    /// Emit the heartbeats that are due. Every tracked member — voters of
    /// both configs and learners — is paced on its own cadence.
    pub(super) fn send_due_heartbeats(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        let RoleState::Leader(lead) = &mut self.state else {
            return;
        };
        for (peer, Peer { progress: p, pacer }) in lead.peers.iter_mut() {
            if let Some(meta) = pacer.maybe_emit(now.as_nanos()) {
                let hb = Heartbeat {
                    term: self.term,
                    leader: self.config.id,
                    commit: p.match_index.min(self.commit_index),
                    meta,
                };
                send(&self.config, fx, peer, Payload::Heartbeat(hb));
            }
        }
    }

    pub(super) fn on_heartbeat(
        &mut self,
        now: SimTime,
        from: NodeId,
        hb: Heartbeat,
        fx: &mut NodeEffects<SM>,
    ) {
        if hb.term < self.term {
            // Stale leader: tell it the new term so it steps down.
            let resp = HeartbeatResp {
                term: self.term,
                reply: dynatune_core::HeartbeatReply::echo_only(&hb.meta),
            };
            send(&self.config, fx, from, Payload::HeartbeatResp(resp));
            return;
        }
        if !self.accept_leader_contact(now, from, fx) {
            return;
        }
        let reply = self.tuner.on_heartbeat(&hb.meta);
        // Commit what the leader has verified we hold.
        let new_commit = hb.commit.min(self.log.last_index());
        if new_commit > self.commit_index {
            self.commit_index = new_commit;
            self.apply_committed(fx);
        }
        let resp = HeartbeatResp {
            term: self.term,
            reply,
        };
        send(&self.config, fx, from, Payload::HeartbeatResp(resp));
    }

    pub(super) fn on_heartbeat_resp(
        &mut self,
        now: SimTime,
        from: NodeId,
        resp: HeartbeatResp,
        _fx: &mut NodeEffects<SM>,
    ) {
        if resp.term != self.term {
            return;
        }
        let Some(peer) = self.lead_mut().and_then(|lead| lead.peers.get_mut(from)) else {
            return;
        };
        let p = &mut peer.progress;
        p.last_active = now;
        // The echoed send instant is exact, so it safely renews the
        // leadership record both read paths use: this follower provably
        // still followed us when the heartbeat left. No read round is
        // checked here; the next append ack counts this echo.
        p.renew_lease(resp.reply.echo_sent_at_nanos);
        peer.pacer.on_reply(now.as_nanos(), &resp.reply);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{elect, ms, node};
    use super::*;
    use crate::events::RaftEvent;
    use crate::message::RequestVote;
    use crate::types::Role;

    #[test]
    fn heartbeat_resets_timer_and_gets_response() {
        let mut n = node(1, 5);
        let first_deadline = n.election_deadline();
        let hb = Heartbeat {
            term: 3,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 5,
                rtt_sample: None,
            },
        };
        let fx = n.step(ms(500), 0, Payload::Heartbeat(hb));
        assert_eq!(n.term(), 3);
        assert_eq!(n.leader_id(), Some(0));
        assert!(n.election_deadline() > first_deadline);
        let resp = fx
            .messages
            .iter()
            .find(|m| matches!(&m.payload, Payload::HeartbeatResp(_)))
            .expect("heartbeat response");
        assert_eq!(resp.to, 0);
        match &resp.payload {
            Payload::HeartbeatResp(r) => {
                assert_eq!(r.term, 3);
                assert_eq!(r.reply.echo_sent_at_nanos, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_heartbeat_answered_with_higher_term() {
        let mut n = node(1, 3);
        // Bring the node to term 5 via a vote request.
        let _ = n.step(
            ms(1),
            2,
            Payload::RequestVote(RequestVote {
                term: 5,
                pre_vote: false,
                last_log_index: 0,
                last_log_term: 0,
            }),
        );
        assert_eq!(n.term(), 5);
        let hb = Heartbeat {
            term: 3,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let fx = n.step(ms(2), 0, Payload::Heartbeat(hb));
        match &fx.messages[0].payload {
            Payload::HeartbeatResp(r) => assert_eq!(r.term, 5),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(n.leader_id(), None, "stale leader not adopted");
    }

    #[test]
    fn leader_sends_heartbeats_on_pacer_schedule() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let t0 = leader.next_wake().unwrap();
        // The election no-op append is still unacked by both followers:
        // replication in flight does not hold a heartbeat back.
        for follower in [1, 2] {
            let inflight = &leader.progress_of(follower).unwrap().inflight;
            assert!(!inflight.is_empty(), "follower {follower}'s no-op acked");
        }
        let fx = leader.tick(t0);
        let hbs = fx
            .messages
            .iter()
            .filter(|m| matches!(&m.payload, Payload::Heartbeat(_)))
            .count();
        assert_eq!(hbs, 2, "one heartbeat per follower");
        // Default interval 100ms: nothing due 50ms later.
        let fx = leader.tick(t0 + Duration::from_millis(50));
        assert_eq!(
            fx.messages
                .iter()
                .filter(|m| matches!(&m.payload, Payload::Heartbeat(_)))
                .count(),
            0
        );
        let fx = leader.tick(t0 + Duration::from_millis(100));
        assert_eq!(
            fx.messages
                .iter()
                .filter(|m| matches!(&m.payload, Payload::Heartbeat(_)))
                .count(),
            2
        );
    }

    #[test]
    fn higher_term_heartbeat_deposes_leader() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let hb = Heartbeat {
            term: leader.term() + 5,
            leader: 2,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let fx = leader.step(ms(5000), 2, Payload::Heartbeat(hb));
        assert_eq!(leader.role(), Role::Follower);
        assert_eq!(leader.leader_id(), Some(2));
        let ev = &fx.events;
        assert!(
            ev.iter()
                .any(|e| matches!(e, RaftEvent::SteppedDown { .. })),
            "{ev:?}"
        );
    }
}
