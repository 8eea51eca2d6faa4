//! Heartbeat exchange — **the Dynatune seam**. This is the one file where
//! the paper's mechanism meets Raft's messages: the leader's per-follower
//! [`LeaderPacer`](dynatune_core::LeaderPacer) decides when a heartbeat
//! leaves and stamps its measurement metadata, the follower's
//! [`FollowerTuner`](dynatune_core::FollowerTuner) digests that metadata
//! into `Et`/`h`, and the reply carries the tuned interval back to the
//! pacer. The rest of the node only builds the two, reads the tuned `Et`/`h`
//! for its election timer (`election.rs`) and resets the tuner at the
//! §III-B fallback points (election timeout, role change, restart).

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
    /// both configs and learners — is paced on its own cadence, or all of
    /// them in one consolidated burst at the smallest interval (§IV-E
    /// extension 2).
    pub(super) fn send_due_heartbeats(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        let RoleState::Leader(lead) = &mut self.state else {
            return;
        };
        let consolidated_due = self.config.consolidated_heartbeat_timer
            && lead
                .peers
                .values()
                .map(|p| p.pacer.next_send_nanos())
                .min()
                .is_some_and(|min| now.as_nanos() >= min);
        for (peer, Peer { progress: p, pacer }) in lead.peers.iter_mut() {
            // §IV-E extension 1: recent replication traffic already reset
            // this follower's election timer; skip the redundant heartbeat.
            let suppress = self.config.suppress_heartbeats_when_replicating
                && p.last_send_at + pacer.interval() > now
                && p.last_send_at > SimTime::ZERO;
            let meta = if suppress {
                pacer.defer(now.as_nanos());
                None
            } else if consolidated_due {
                Some(pacer.emit_now(now.as_nanos()))
            } else {
                pacer.maybe_emit(now.as_nanos())
            };
            if let Some(meta) = meta {
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
        // The echoed send instant is exact, so it safely extends the
        // read lease: this follower provably still followed us when
        // the heartbeat left (reordered echoes are monotone-maxed).
        let basis = SimTime::from_nanos(resp.reply.echo_sent_at_nanos);
        p.lease_basis = p.lease_basis.max(basis);
        peer.pacer.on_reply(now.as_nanos(), &resp.reply);
    }
}
