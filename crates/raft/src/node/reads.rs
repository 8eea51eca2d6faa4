//! Log-free linearizable reads: the leader lease and ReadIndex
//! confirmation rounds.

use super::{NodeEffects, NotLeader, RaftNode, RoleState};
use crate::events::RaftEvent;
use crate::progress::Progress;
use crate::state_machine::{Effects, ReadGrant, ReadPath, StateMachine};
use crate::types::{LogIndex, NodeId, Role};
use dynatune_core::{invariant, ELECTION_TIMEOUT_FLOOR};
use dynatune_simnet::SimTime;
use std::collections::VecDeque;

/// Clock-drift safety margin for lease reads: the effective lease is
/// `lease * (1 - margin)`, so a leader whose clock runs slow by up
/// to this fraction still expires its lease before any follower's
/// election timer can fire. In `[0, 1)`.
const LEASE_DRIFT_MARGIN: f64 = 0.1;

const _: () = assert!(
    0.0 <= LEASE_DRIFT_MARGIN && LEASE_DRIFT_MARGIN < 1.0,
    "lease drift margin must be in [0, 1)"
);

/// One ReadIndex confirmation round: reads registered at the same instant
/// against the same commit index, confirmed together once a quorum's
/// [`Progress::lease_basis`] reaches that instant.
#[derive(Debug)]
pub(super) struct ReadRound {
    read_index: LogIndex,
    /// Registration instant; reads arriving at the same instant against
    /// the same commit index share the round (batch admission).
    registered_at: SimTime,
    /// Ids of the queued reads.
    reads: Vec<u64>,
}

/// Leader-side bookkeeping for log-free reads.
///
/// Linearizability invariant: a read registered at commit index `c` is only
/// granted with `read_index >= c`, and only after leadership was
/// re-confirmed *at or after* registration: instantly via the lease, or by
/// a quorum of echoes of sends at or after it (`pop_confirmed_round` says
/// why). The leader applies in the same step that advances its commit
/// index, so a granted read is already applied here; only a forwarding
/// follower waits, for its own apply index.
#[derive(Debug, Default)]
pub(super) struct ReadState {
    /// Rounds awaiting quorum confirmation, oldest first (registration
    /// instants ascend).
    pub(super) pending_confirm: VecDeque<ReadRound>,
    /// Reads registered before this leader committed an entry of its own
    /// term (until then `commit_index` may lag the cluster's true commit
    /// point); re-admitted when the term's no-op commits.
    pub(super) term_wait: Vec<u64>,
}

impl ReadState {
    /// Queued reads: confirmation and term waiters together.
    #[cfg(test)]
    fn len(&self) -> usize {
        let confirming: usize = self.pending_confirm.iter().map(|r| r.reads.len()).sum();
        confirming + self.term_wait.len()
    }

    /// Drain every queued read id (leadership lost / stepping down).
    pub(super) fn drain_ids(&mut self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for round in self.pending_confirm.drain(..) {
            ids.extend(round.reads);
        }
        ids.append(&mut self.term_wait);
        ids
    }
}

impl<SM: StateMachine> RaftNode<SM> {
    /// Register a linearizable log-free read.
    ///
    /// On the leader this records the current `commit_index` as the read's
    /// index and grants it — immediately when the leader lease is live,
    /// otherwise after a ReadIndex confirmation round (a quorum of acks
    /// echoing a send at or after the read's registration) — via
    /// [`ReadGrant`]s in the returned (or a later) [`Effects::reads`].
    /// This node's `last_applied` already covers a grant's `read_index`,
    /// so the caller can serve from its state machine at once; a follower
    /// that forwarded the read waits for its *own* apply index. Queued
    /// reads that lose their leader surface in [`Effects::aborted_reads`].
    ///
    /// Non-leaders return a redirect hint, like [`RaftNode::propose`].
    pub fn request_read(
        &mut self,
        now: SimTime,
        id: u64,
    ) -> (Result<(), NotLeader>, NodeEffects<SM>) {
        let mut fx = Effects::new();
        let RoleState::Leader(lead) = &mut self.state else {
            return (Err(self.not_leader()), fx);
        };
        if self.log.term_at(self.commit_index) != Some(self.term) {
            // Raft §6.4: before the current term's no-op commits, our
            // commit_index may still lag entries the previous leader
            // committed — reading at it could miss them. Park the read.
            lead.reads.term_wait.push(id);
            return (Ok(()), fx);
        }
        self.admit_read(now, id, &mut fx);
        (Ok(()), fx)
    }

    /// Whether the leader lease currently covers log-free reads: a quorum
    /// (counting this node) acknowledged heartbeats or appends sent within
    /// the drift-scaled lease window. While it holds, no other member can have
    /// won an election, so `commit_index` is the cluster's true commit
    /// point and reads skip the confirmation round entirely.
    ///
    /// Safety requires two things beyond fresh acks. First, check-quorum:
    /// the argument that no rival can win an election inside the lease
    /// window rests on followers *withholding votes* while they hear from
    /// a live leader (`in_lease`), which every node does.
    /// Second, the lease must undercut the *smallest election timeout any
    /// member may be running*: under a tuning mode a follower's Et can
    /// adapt down to the configured floor, so the effective lease is
    /// clamped there (aggressively-tuned clusters route reads through
    /// ReadIndex — correct, if slower, rather than fast and stale).
    #[must_use]
    pub fn lease_valid(&self, now: SimTime) -> bool {
        if self.role() != Role::Leader {
            return false;
        }
        let membership = &self.active_frame().membership;
        // The lease is conservatively void while a joint configuration is
        // active or once this leader is no longer a voter: the "no rival
        // can win inside the window" argument would have to hold in two
        // voter sets at once, and the dual-quorum window is exactly when a
        // stale single-set lease could serve a stale read. Reads fall back
        // to ReadIndex, whose tally *is* dual-quorum.
        if membership.is_joint() || !membership.voters.contains(&self.config.id) {
            return false;
        }
        // The lease lasts the default election timeout, cut to the floor a
        // tuned follower's Et may reach.
        let mut lease = self.config.tuning.default_election_timeout;
        if self.config.tuning.mode.tunes() {
            lease = lease.min(ELECTION_TIMEOUT_FLOOR);
        }
        let effective = lease.mul_f64(1.0 - LEASE_DRIFT_MARGIN);
        self.quorum_acked(|basis| now < basis + effective)
    }

    /// Whether a quorum of the active configuration acknowledged this
    /// leader with a [`Progress::lease_basis`] that `fresh` accepts. This
    /// node counts itself; a learner never counts (its ack says nothing
    /// about who can win an election); a joint configuration needs a
    /// quorum of both voter sets.
    fn quorum_acked(&self, fresh: impl Fn(SimTime) -> bool) -> bool {
        let id = self.config.id;
        self.active_frame().membership.quorum_satisfied(|n| {
            n == id || self.progress_of(n).is_some_and(|p| fresh(p.lease_basis))
        })
    }

    /// Queued log-free reads (confirmation or term waiters).
    #[cfg(test)]
    pub(super) fn pending_reads(&self) -> usize {
        self.lead().map_or(0, |lead| lead.reads.len())
    }

    pub(super) fn admit_read(&mut self, now: SimTime, id: u64, fx: &mut NodeEffects<SM>) {
        let read_index = self.commit_index;
        if self.lease_valid(now) {
            self.grant_read(id, read_index, ReadPath::Lease, fx);
            return;
        }
        let RoleState::Leader(lead) = &mut self.state else {
            return;
        };
        // Join the newest unconfirmed round only when nothing happened
        // since it was registered (same instant, same commit index): the
        // echoes that confirm it confirm leadership for this read too.
        if let Some(last) = lead.reads.pending_confirm.back_mut() {
            if last.registered_at == now && last.read_index == read_index {
                last.reads.push(id);
                return;
            }
        }
        lead.reads.pending_confirm.push_back(ReadRound {
            read_index,
            registered_at: now,
            reads: vec![id],
        });
        fx.events.push(RaftEvent::ReadConfirmRound { read_index });
        self.nudge_read_confirmation(now, fx);
        // A quorum this node makes alone confirms the round at once (a
        // single voter outside a joint configuration holds the lease and
        // never gets here).
        self.advance_read_confirmations(fx);
    }

    /// Grant a confirmed read. Apply runs in the step that advances
    /// `commit_index`, so the state machine already covers `read_index`
    /// (ReadIndex step 4, the apply wait, never blocks here); a change
    /// that defers apply must bring that wait back rather than serve stale.
    fn grant_read(&self, id: u64, read_index: LogIndex, path: ReadPath, fx: &mut NodeEffects<SM>) {
        invariant!(
            self.last_applied >= read_index,
            "read {id} granted at index {read_index} with only {} applied",
            self.last_applied
        );
        fx.reads.push(ReadGrant {
            id,
            read_index,
            path,
        });
    }

    /// Make sure every follower has confirmation traffic on the wire for
    /// the newest pending read round. Confirmation rides on ordinary
    /// `AppendEntries` (possibly empty) so the pipeline-window discipline
    /// and the `APPEND_RESEND` recovery timer apply unchanged: a peer whose
    /// window is full is nudged again from `on_append_resp` once an ack
    /// frees a slot.
    fn nudge_read_confirmation(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        for peer in self.peer_ids() {
            if self.owes_read_echo(peer) {
                self.send_append(now, peer, fx);
            }
        }
    }

    /// Whether `peer` has not yet echoed a send at or after the newest
    /// pending read round's registration, and has a free window slot to
    /// carry the request.
    pub(super) fn owes_read_echo(&self, peer: NodeId) -> bool {
        let Some(newest) = self.lead().and_then(|l| l.reads.pending_confirm.back()) else {
            return false;
        };
        let window = self.config.pipeline_window;
        let owes = |p: &Progress| p.lease_basis < newest.registered_at && p.window_free(window);
        self.progress_of(peer).is_some_and(owes)
    }

    /// Pop every pending round a quorum has confirmed and grant its reads.
    pub(super) fn advance_read_confirmations(&mut self, fx: &mut NodeEffects<SM>) {
        while let Some(round) = self.pop_confirmed_round() {
            for id in round.reads {
                self.grant_read(id, round.read_index, ReadPath::ReadIndex, fx);
            }
        }
    }

    /// Pop the oldest pending round once a quorum's leadership record has
    /// reached its registration instant `T` (`lease_basis >= T`). Rounds
    /// register in time order, so no younger round can confirm first.
    ///
    /// Why that proves leadership at `T` (ReadIndex, Ongaro §6.4): each
    /// echo is of a message sent at or after `T` that the follower accepted
    /// at this leader's term. A rival elected before `T` would hold the
    /// vote of some follower in that quorum, which would have refused the
    /// message. The echo is the exact send instant, so a late ack of an
    /// older send never counts. An append sent after the round opened
    /// echoes an instant `>= T`, so a round confirms no later than a quorum
    /// of such acks lands. It can confirm sooner in two cases, both sound
    /// by the same argument:
    /// * an append sent at instant `T` but before the registration in
    ///   event order: the follower receives it no sooner than the
    ///   network's minimum one-way delay after `T`, and with no delay at
    ///   all check-quorum's vote withholding covers the tie;
    /// * a heartbeat echo of a send at or after `T`, counted at the next
    ///   append ack from any peer (heartbeat acks renew the record but do
    ///   not run this check).
    fn pop_confirmed_round(&mut self) -> Option<ReadRound> {
        let since = self.lead()?.reads.pending_confirm.front()?.registered_at;
        if !self.quorum_acked(|basis| basis >= since) {
            return None;
        }
        self.lead_mut()?.reads.pending_confirm.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{appends_to, elect, ms, node};
    use super::*;
    use crate::config::RaftConfig;
    use crate::membership::ConfChange;
    use crate::message::{AppendResp, Heartbeat, HeartbeatResp, Payload};
    use crate::state_machine::NullStateMachine;
    use dynatune_core::TuningConfig;
    use std::time::Duration;

    #[test]
    fn single_node_lease_read_grants_instantly() {
        let mut n = node(0, 1);
        let d = n.election_deadline();
        let _ = n.tick(d);
        assert_eq!(n.role(), Role::Leader);
        assert_eq!(n.commit_index(), 1, "no-op self-commits");
        let (res, fx) = n.request_read(d, 7);
        res.unwrap();
        assert_eq!(
            fx.reads,
            vec![ReadGrant {
                id: 7,
                read_index: 1,
                path: ReadPath::Lease,
            }]
        );
        assert!(fx.messages.is_empty(), "lease reads cost no network round");
    }

    #[test]
    fn read_on_follower_returns_redirect() {
        let mut n = node(1, 3);
        let hb = Heartbeat {
            term: 1,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let _ = n.step(ms(1), 0, Payload::Heartbeat(hb));
        let (res, fx) = n.request_read(ms(2), 5);
        assert_eq!(res, Err(NotLeader { hint: Some(0) }));
        assert!(fx.reads.is_empty());
    }

    #[test]
    fn read_parks_until_current_term_commit() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        // No follower has acked: the term's no-op is uncommitted, so the
        // read must park (commit_index may lag the true commit point).
        let (res, fx) = leader.request_read(ms(3000), 11);
        res.unwrap();
        assert!(fx.reads.is_empty());
        assert_eq!(leader.pending_reads(), 1);
        // The no-op commits; the read is admitted and (lease cold) goes
        // through a ReadIndex confirmation round.
        let fx = append_ack(&mut leader, 1, ms(3001), None);
        assert_eq!(leader.commit_index(), 1);
        assert!(
            fx.events
                .iter()
                .any(|e| matches!(e, RaftEvent::ReadConfirmRound { .. })),
            "cold lease must open a confirmation round: {:?}",
            fx.events
        );
        let probe = appends_to(&fx, 1)
            .pop()
            .expect("idle follower gets the confirmation append");
        assert_eq!(probe.sent_at_nanos, ms(3001).as_nanos());
        // The echo from one follower completes the quorum (leader + 1 of 3).
        let sent = SimTime::from_nanos(probe.sent_at_nanos);
        let fx = append_ack(&mut leader, 1, ms(3002), Some(sent));
        assert_eq!(
            fx.reads,
            vec![ReadGrant {
                id: 11,
                read_index: 1,
                path: ReadPath::ReadIndex,
            }]
        );
        assert_eq!(leader.pending_reads(), 0);
    }

    #[test]
    fn heartbeat_quorum_acks_enable_the_lease_path() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let _ = append_ack(&mut leader, 1, ms(3000), None);
        assert!(!leader.lease_valid(ms(3600)), "no heartbeat acks yet");
        // Follower 1 acks a heartbeat sent at t=3500.
        let _ = heartbeat_ack(&mut leader, 1, ms(3600), ms(3500));
        assert!(leader.lease_valid(ms(3600)));
        // Effective lease: 1000ms * (1 - 0.1) = 900ms from the send instant.
        assert!(leader.lease_valid(ms(4399)));
        assert!(!leader.lease_valid(ms(4400)), "drift margin caps the lease");
        let (res, fx) = leader.request_read(ms(3700), 21);
        res.unwrap();
        assert_eq!(
            fx.reads,
            vec![ReadGrant {
                id: 21,
                read_index: 1,
                path: ReadPath::Lease,
            }]
        );
        assert!(fx.messages.is_empty());
    }

    #[test]
    fn tuned_mode_clamps_the_lease_to_the_election_floor() {
        // Under a tuning mode a follower's Et can adapt down to the
        // configured floor (10ms for Dynatune defaults) — far below the
        // 1s default lease. The effective lease must clamp to the floor, or
        // an isolated leader could serve stale reads while a fast-tuned
        // follower elects a replacement.
        let config = RaftConfig::new(0, 3, TuningConfig::dynatune());
        let mut leader = RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO);
        let _ = elect(&mut leader, SimTime::ZERO);
        let _ = heartbeat_ack(&mut leader, 1, ms(3000), ms(3000));
        // Floor 10ms, margin 0.1 => 9ms of effective lease from the ack.
        assert!(leader.lease_valid(ms(3008)));
        assert!(
            !leader.lease_valid(ms(3010)),
            "tuned clusters must not ride the full static lease"
        );
    }

    #[test]
    fn stepping_down_aborts_queued_reads() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let _ = append_ack(&mut leader, 1, ms(3000), None);
        let (res, fx) = leader.request_read(ms(3001), 41);
        res.unwrap();
        assert!(fx.reads.is_empty(), "cold lease: read queued");
        assert_eq!(leader.pending_reads(), 1);
        // A higher-term leader appears: queued reads are surfaced as
        // aborted so the host can redirect the clients.
        let hb = Heartbeat {
            term: leader.term() + 1,
            leader: 2,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let fx = leader.step(ms(3002), 2, Payload::Heartbeat(hb));
        assert_eq!(fx.aborted_reads, vec![41]);
        assert_eq!(leader.pending_reads(), 0);
    }

    /// Only voters' echoes renew the lease: a learner acking a fresh
    /// append proves nothing about who can win an election.
    #[test]
    fn a_learner_echo_does_not_make_the_lease_valid() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let t = ms(3000);
        let (res, _) = leader.propose_conf_change(t, ConfChange::AddLearner(3));
        res.unwrap();
        let _ = append_ack(&mut leader, 3, t, Some(t));
        assert!(leader.membership().is_learner(3));
        assert_eq!(leader.progress_of(3).unwrap().lease_basis, t);
        assert!(!leader.lease_valid(t), "a learner's echo renewed the lease");
        let _ = append_ack(&mut leader, 1, t, Some(t));
        assert!(leader.lease_valid(t), "a voter's echo does");
    }

    /// A leader at `ms(3000)` whose `n - 1` followers acked the term's
    /// no-op without echoing a send instant: the lease is cold.
    fn cold_leader(n: usize) -> RaftNode<NullStateMachine> {
        let mut leader = node(0, n);
        let _ = elect(&mut leader, SimTime::ZERO);
        for peer in 1..n as NodeId {
            let _ = append_ack(&mut leader, peer, ms(3000), None);
        }
        assert_eq!(leader.commit_index(), 1);
        leader
    }

    /// `peer` acks the whole log at `at`, echoing the send instant `sent`.
    fn append_ack(
        leader: &mut RaftNode<NullStateMachine>,
        peer: NodeId,
        at: SimTime,
        sent: Option<SimTime>,
    ) -> NodeEffects<NullStateMachine> {
        let resp = AppendResp {
            term: leader.term(),
            success: true,
            match_or_hint: leader.log().last_index(),
            echo_sent_at_nanos: sent.map(SimTime::as_nanos),
        };
        leader.step(at, peer, Payload::AppendResp(resp))
    }

    /// `peer` acks at `at` a heartbeat the leader sent at `sent`.
    fn heartbeat_ack(
        leader: &mut RaftNode<NullStateMachine>,
        peer: NodeId,
        at: SimTime,
        sent: SimTime,
    ) -> NodeEffects<NullStateMachine> {
        let resp = HeartbeatResp {
            term: leader.term(),
            reply: dynatune_core::HeartbeatReply {
                id: 0,
                echo_sent_at_nanos: sent.as_nanos(),
                tuned_interval: None,
            },
        };
        leader.step(at, peer, Payload::HeartbeatResp(resp))
    }

    /// Open a ReadIndex round for read `id` at `t` on a cold lease.
    fn open_round(leader: &mut RaftNode<NullStateMachine>, t: SimTime, id: u64) {
        let (res, fx) = leader.request_read(t, id);
        res.unwrap();
        assert!(
            fx.reads.is_empty(),
            "cold lease: the read waits for a round"
        );
        assert_eq!(leader.pending_reads(), 1);
    }

    /// Echoes of sends *before* a round's registration prove leadership
    /// only before it, however late they arrive: every follower acking
    /// both a heartbeat and an append sent just before `T` leaves the round
    /// open. Echoes of sends at `T` then confirm it.
    #[test]
    fn echoes_of_sends_before_registration_do_not_confirm_a_round() {
        for n in [3, 5] {
            let mut leader = cold_leader(n);
            let t = ms(4000);
            open_round(&mut leader, t, 31);
            let just_before = SimTime::from_nanos(t.as_nanos() - 1);
            for peer in 1..n as NodeId {
                let fx = heartbeat_ack(&mut leader, peer, t + Duration::from_millis(1), ms(3999));
                assert!(fx.reads.is_empty());
                let fx = append_ack(
                    &mut leader,
                    peer,
                    t + Duration::from_millis(2),
                    Some(just_before),
                );
                assert!(
                    fx.reads.is_empty(),
                    "{n} voters: stale echo from {peer} confirmed"
                );
            }
            assert_eq!(leader.pending_reads(), 1);
            // A quorum of echoes of sends at `T` confirms the round.
            let needed = (n / 2) as NodeId; // plus the leader itself
            let mut granted = Vec::new();
            for peer in 1..=needed {
                let fx = append_ack(&mut leader, peer, t + Duration::from_millis(3), Some(t));
                granted.extend(fx.reads);
                assert_eq!(granted.is_empty(), peer < needed, "{n} voters, peer {peer}");
            }
            assert_eq!(granted[0].id, 31);
            assert_eq!(granted[0].path, ReadPath::ReadIndex);
        }
    }

    /// The echo of an append sent at exactly the registration instant
    /// confirms the round; one a nanosecond older does not.
    #[test]
    fn an_append_echo_of_the_registration_instant_confirms_the_round() {
        let mut leader = cold_leader(3);
        let t = ms(4000);
        open_round(&mut leader, t, 32);
        let just_before = SimTime::from_nanos(t.as_nanos() - 1);
        let fx = append_ack(
            &mut leader,
            1,
            t + Duration::from_millis(5),
            Some(just_before),
        );
        assert!(fx.reads.is_empty());
        let fx = append_ack(&mut leader, 2, t + Duration::from_millis(6), Some(t));
        assert_eq!(
            fx.reads,
            vec![ReadGrant {
                id: 32,
                read_index: 1,
                path: ReadPath::ReadIndex,
            }]
        );
    }

    /// A heartbeat ack renews the leadership record but runs no check; its
    /// echo counts at the next append ack, from whichever peer.
    #[test]
    fn a_heartbeat_echo_counts_at_the_next_append_ack() {
        let mut leader = cold_leader(3);
        let t = ms(4000);
        open_round(&mut leader, t, 33);
        let fx = heartbeat_ack(&mut leader, 1, t + Duration::from_millis(5), t);
        assert!(fx.reads.is_empty(), "a heartbeat ack runs no confirmation");
        assert_eq!(leader.pending_reads(), 1);
        // Peer 2's own echo is stale; peer 1's heartbeat echo makes the
        // quorum with the leader.
        let fx = append_ack(&mut leader, 2, t + Duration::from_millis(6), Some(ms(3999)));
        assert_eq!(fx.reads.len(), 1);
        assert_eq!(fx.reads[0].id, 33);
        assert_eq!(leader.pending_reads(), 0);
    }

    /// While joint, a round needs fresh echoes from a quorum of the old
    /// voter set *and* of the new one: either alone confirms nothing.
    #[test]
    fn a_joint_configuration_confirms_on_both_quorums() {
        // Old voters {0, 1, 2}, new {0, 1, 3}: peer 2 completes only the
        // old quorum, peer 3 only the new one.
        for (first, second) in [(2, 3), (3, 2)] {
            let mut leader = cold_leader(3);
            let (res, _) = leader.propose_conf_change(ms(3000), ConfChange::AddLearner(3));
            res.unwrap();
            for peer in 1..=3 {
                let _ = append_ack(&mut leader, peer, ms(3000), None);
            }
            let begin = ConfChange::Begin {
                add: vec![3],
                remove: vec![2],
            };
            let (res, _) = leader.propose_conf_change(ms(3000), begin);
            res.unwrap();
            assert!(leader.membership().is_joint());
            let t = ms(4000);
            open_round(&mut leader, t, 34);
            let fx = append_ack(&mut leader, first, t + Duration::from_millis(1), Some(t));
            assert!(
                fx.reads.is_empty(),
                "peer {first}'s voter set alone confirmed"
            );
            let fx = append_ack(&mut leader, second, t + Duration::from_millis(2), Some(t));
            assert_eq!(fx.reads.len(), 1, "both quorums echoed: the round confirms");
        }
    }

    /// With five voters the lease needs two fresh follower acks: one is
    /// short of the quorum, a stale one never counts.
    #[test]
    fn a_five_voter_lease_needs_two_fresh_acks() {
        let mut leader = cold_leader(5);
        let t = ms(4000);
        assert!(!leader.lease_valid(t), "no echoes yet");
        let _ = heartbeat_ack(&mut leader, 1, t, ms(3900));
        assert!(!leader.lease_valid(t), "one fresh ack is not a lease");
        // Effective lease 900 ms: a send at t - 1 s has lapsed.
        let _ = heartbeat_ack(&mut leader, 3, t, ms(3000));
        assert!(!leader.lease_valid(t), "a lapsed ack does not count");
        let _ = append_ack(&mut leader, 2, t, Some(ms(3950)));
        assert!(
            leader.lease_valid(t),
            "two fresh acks and the leader are a quorum"
        );
        // The lease runs from the older of the two fresh sends.
        assert!(leader.lease_valid(t + Duration::from_millis(799)));
        assert!(!leader.lease_valid(t + Duration::from_millis(800)));
    }
}
