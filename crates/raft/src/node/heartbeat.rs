//! Heartbeat exchange — the Dynatune seam. This is the one file where the
//! paper's mechanism meets Raft: the leader's per-follower [`LeaderPacer`]s
//! decide when a heartbeat leaves and stamp its measurement metadata, the
//! follower's [`dynatune_core::FollowerTuner`] digests that metadata into `Et`/`h`, and
//! the reply carries the tuned interval back to the pacer.

use super::{NodeEffects, NodePayload, RaftNode};
use crate::events::RaftEvent;
use crate::message::{Heartbeat, HeartbeatResp, OutMsg, Payload};
use crate::state_machine::StateMachine;
use crate::types::{NodeId, Role};
use dynatune_core::{LeaderPacer, TuningSnapshot};
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
        self.pacers.get(&follower).map(LeaderPacer::interval)
    }

    pub(super) fn leader_tick(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        // Every tracked member — voters of both configs and learners —
        // receives heartbeats and replication traffic.
        let peers: Vec<NodeId> = self.progress.keys().copied().collect();
        // Heartbeats: per-follower cadence, or one consolidated burst at
        // the smallest interval (§IV-E extension 2).
        let consolidated_due = self.config.consolidated_heartbeat_timer
            && self
                .pacers
                .values()
                .map(LeaderPacer::next_send_nanos)
                .min()
                .is_some_and(|min| now.as_nanos() >= min);
        for &peer in &peers {
            let commit = self
                .progress
                .get(&peer)
                .map_or(0, |p| p.match_index.min(self.commit_index));
            // §IV-E extension 1: recent replication traffic already reset
            // this follower's election timer; skip the redundant heartbeat.
            let suppress = self.config.suppress_heartbeats_when_replicating
                && self.progress.get(&peer).is_some_and(|p| {
                    let interval = self.pacers[&peer].interval();
                    p.last_send_at + interval > now && p.last_send_at > SimTime::ZERO
                });
            if let Some(pacer) = self.pacers.get_mut(&peer) {
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
                        commit,
                        meta,
                    };
                    let payload = Payload::Heartbeat(hb);
                    let channel = payload.channel(self.config.udp_heartbeats);
                    fx.messages.push(OutMsg {
                        to: peer,
                        channel,
                        payload,
                    });
                }
            }
        }
        // Group commit: flush the buffered proposal batch once its delay
        // cap expires (the byte cap flushes from `propose` directly).
        if self.batch_deadline.is_some_and(|deadline| now >= deadline) {
            self.flush_batch(now, fx);
        }
        // Replication resends for stuck followers (snapshot transfers are
        // paced on their own, slower timer). The timer fires off the
        // *oldest* unacked send: losing it means every younger pipeline
        // slot behind it is unverifiable, so the whole optimistic window
        // is abandoned and replication falls back to proven ground.
        for &peer in &peers {
            let resend = {
                let p = &self.progress[&peer];
                p.oldest_sent_at()
                    .is_some_and(|oldest| now >= oldest + self.resend_after(p))
            };
            if resend {
                if let Some(p) = self.progress.get_mut(&peer) {
                    p.inflight.clear();
                    p.next_index = p.match_index + 1;
                    p.pending_snapshot = None;
                }
                self.send_append(now, peer, fx);
            }
        }
        // Check-quorum lease: step down unless the recently-heard members
        // (counting ourselves) form a quorum in every active voter set —
        // during a joint configuration, silence from either C_old or C_new
        // majorities deposes the leader.
        if self.config.check_quorum && now >= self.lease_check_at {
            let lease = self.config.tuning.default_election_timeout;
            let id = self.config.id;
            let progress = &self.progress;
            let alive = self.active_frame().membership.quorum_satisfied(|n| {
                n == id
                    || progress
                        .get(&n)
                        .is_some_and(|p| p.last_active + lease >= now)
            });
            if !alive {
                // become_follower emits the SteppedDown event.
                let term = self.term;
                self.become_follower(now, term, None, fx);
                return;
            }
            self.lease_check_at = now + lease;
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
            let payload: NodePayload<SM> = Payload::HeartbeatResp(HeartbeatResp {
                term: self.term,
                reply: dynatune_core::HeartbeatReply::echo_only(&hb.meta),
            });
            let channel = payload.channel(self.config.udp_heartbeats);
            fx.messages.push(OutMsg {
                to: from,
                channel,
                payload,
            });
            return;
        }
        // hb.term == self.term here (higher terms were adopted above).
        match self.role {
            Role::PreCandidate => {
                // Leader is alive: abort the pre-vote (Fig. 6b behaviour).
                fx.events
                    .push(RaftEvent::PreVoteAborted { term: self.term });
                self.become_follower(now, hb.term, Some(from), fx);
            }
            Role::Candidate | Role::Leader => {
                // Same-term contact from a leader while campaigning at a
                // *higher* term is impossible (we bumped); while Candidate at
                // the same term it means we lost the race.
                if self.role == Role::Candidate {
                    self.become_follower(now, hb.term, Some(from), fx);
                }
            }
            Role::Follower => {
                if self.leader_id != Some(from) {
                    self.become_follower(now, hb.term, Some(from), fx);
                }
            }
        }
        if self.role != Role::Follower {
            return; // defensive: leader at same term ignores
        }
        self.reset_election_timer(now, false);
        let reply = self.tuner.on_heartbeat(&hb.meta);
        // Commit what the leader has verified we hold.
        let new_commit = hb.commit.min(self.log.last_index());
        if new_commit > self.commit_index {
            self.commit_index = new_commit;
            self.apply_committed(fx);
        }
        let payload: NodePayload<SM> = Payload::HeartbeatResp(HeartbeatResp {
            term: self.term,
            reply,
        });
        let channel = payload.channel(self.config.udp_heartbeats);
        fx.messages.push(OutMsg {
            to: from,
            channel,
            payload,
        });
    }

    pub(super) fn on_heartbeat_resp(
        &mut self,
        now: SimTime,
        from: NodeId,
        resp: HeartbeatResp,
        _fx: &mut NodeEffects<SM>,
    ) {
        if self.role != Role::Leader || resp.term != self.term {
            return;
        }
        if let Some(p) = self.progress.get_mut(&from) {
            p.last_active = now;
            // The echoed send instant is exact, so it safely extends the
            // read lease: this follower provably still followed us when
            // the heartbeat left (reordered echoes are monotone-maxed).
            let basis = SimTime::from_nanos(resp.reply.echo_sent_at_nanos);
            p.lease_basis = p.lease_basis.max(basis);
        }
        if let Some(pacer) = self.pacers.get_mut(&from) {
            pacer.on_reply(now.as_nanos(), &resp.reply);
        }
    }
}
