//! Leader election: the randomized, tick-quantized election timer, the
//! pre-vote / vote campaign, the role transitions, and the vote-withholding
//! lease (`in_lease`) that check-quorum rests on.

use super::replication::LeaderState;
use super::{send, NodeEffects, RaftNode, RoleState};
use crate::config::TimerQuantization;
use crate::events::RaftEvent;
use crate::message::{Payload, RequestVote, RequestVoteResp};
use crate::state_machine::StateMachine;
use crate::types::{NodeId, Role, Term};
use dynatune_core::invariant_violated;
use dynatune_simnet::SimTime;
use std::collections::BTreeSet;
use std::time::Duration;

/// A campaign in progress, from the election timeout that opened it until
/// the node wins or reverts to follower. One value covers both phases: the
/// pre-vote phase hands over to the vote phase by flipping `pre_vote`.
#[derive(Debug, Default)]
pub(super) struct Campaign {
    /// Collecting pre-votes (`Role::PreCandidate`) rather than real votes
    /// (`Role::Candidate`).
    pub(super) pre_vote: bool,
    /// The term the current round asks votes for: `term + 1` (not yet
    /// adopted) while pre-voting, the node's own term afterwards.
    term: Term,
    /// Who granted this round's vote, this node included.
    votes: BTreeSet<NodeId>,
    /// Consecutive campaign rounds since leaving Follower (split-vote
    /// retries). After `CAMPAIGN_FALLBACK_ROUNDS` the tuner falls back to
    /// the conservative defaults (§III-B availability guarantee).
    rounds: u32,
}

impl<SM: StateMachine> RaftNode<SM> {
    /// Current (possibly tuned) base election timeout `Et`.
    #[must_use]
    pub fn election_timeout(&self) -> Duration {
        self.tuner.election_timeout()
    }

    /// Current randomized timeout `f · Et` — the quantity the paper's
    /// Figure 6 plots per second.
    #[must_use]
    pub fn randomized_timeout(&self) -> Duration {
        Duration::from_secs_f64(self.election_timeout().as_secs_f64() * self.timeout_factor)
    }

    fn tick_period(&self) -> Duration {
        self.tuner.expected_heartbeat_interval()
    }

    /// The instant the election timer (or campaign retry timer) fires:
    /// the first boundary of this node's free-running tick grid at or after
    /// `reset + randomizedTimeout` (etcd observes expiry only on ticks).
    #[must_use]
    pub fn election_deadline(&self) -> SimTime {
        let rto = self.randomized_timeout();
        match self.config.quantization {
            TimerQuantization::Continuous => self.timer_reset_at + rto,
            TimerQuantization::Tick => {
                let tick = self.tick_period().as_nanos().max(1) as u64;
                let raw = (self.timer_reset_at + rto).as_nanos();
                let offset = (self.tick_phase * tick as f64) as u64;
                let k = raw.saturating_sub(offset).div_ceil(tick);
                SimTime::from_nanos(k * tick + offset)
            }
        }
    }

    pub(super) fn reset_election_timer(&mut self, now: SimTime, redraw: bool) {
        self.timer_reset_at = now;
        if redraw {
            self.timeout_factor = 1.0 + self.rng.f64();
        }
    }

    pub(super) fn handle_election_timeout(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        if !self.active_frame().membership.is_voter(self.config.id) {
            // Learners, outsiders awaiting admission, and removed members
            // detect leader silence like everyone else but never campaign
            // (Raft §6: a server outside the voter set must not disrupt the
            // cluster). Re-arm the timer and stay a silent follower.
            self.leader_id = None;
            self.reset_election_timer(now, true);
            return;
        }
        fx.events.push(RaftEvent::ElectionTimeout {
            term: self.term,
            randomized_timeout: self.randomized_timeout(),
        });
        let pre_vote = match &mut self.state {
            RoleState::Follower => {
                // §III-B: discard the measurement data at the timeout; the
                // tuned Et keeps pacing the campaign so split-vote retries
                // stay cheap. Conservative defaults return either when Step
                // 0 restarts under a (new) leader, or via the escalation
                // below if the election refuses to resolve.
                if self.config.tuning.mode.tunes() {
                    self.tuner.reset_measurements();
                    fx.events.push(RaftEvent::TunerReset);
                }
                self.leader_id = None;
                self.state = RoleState::Campaigning(Campaign {
                    rounds: 1,
                    ..Campaign::default()
                });
                self.config.pre_vote
            }
            RoleState::Campaigning(c) => {
                fx.events.push(RaftEvent::CampaignRetry { term: c.term });
                // After `CAMPAIGN_FALLBACK_ROUNDS` unresolved campaign
                // rounds, revert the election parameters to the
                // conservative defaults: if the tuned `Et` turned out
                // smaller than the (possibly spiked) RTT, retry timers
                // would keep expiring before vote responses return and the
                // cluster would stay leaderless — the availability hazard
                // §III-B's fallback exists to prevent.
                const CAMPAIGN_FALLBACK_ROUNDS: u32 = 3;
                c.rounds = c.rounds.saturating_add(1);
                if c.rounds == CAMPAIGN_FALLBACK_ROUNDS && self.config.tuning.mode.tunes() {
                    self.tuner.reset();
                    fx.events.push(RaftEvent::TunerReset);
                }
                c.pre_vote
            }
            RoleState::Leader(_) => {
                invariant_violated!("leaders have no election timer to expire")
            }
        };
        if pre_vote {
            self.become_pre_candidate(now, fx);
        } else {
            self.become_candidate(now, fx);
        }
    }

    /// Open a fresh round of the running campaign asking votes for `term`,
    /// with only this node's own vote counted.
    fn open_round(&mut self, pre_vote: bool, term: Term) {
        if let RoleState::Campaigning(c) = &mut self.state {
            c.pre_vote = pre_vote;
            c.term = term;
            c.votes = BTreeSet::from([self.config.id]);
        }
    }

    pub(super) fn become_follower(
        &mut self,
        now: SimTime,
        term: Term,
        leader: Option<NodeId>,
        fx: &mut NodeEffects<SM>,
    ) {
        let leader_changed = leader != self.leader_id || term != self.term;
        if term > self.term {
            self.term = term;
            self.voted_for = None;
        }
        self.leader_id = leader;
        // Whatever the old role owned — a campaign, the leader bookkeeping —
        // goes with the variant.
        if let RoleState::Leader(mut lead) = std::mem::replace(&mut self.state, RoleState::Follower)
        {
            // Queued log-free reads can never be confirmed by an ex-leader;
            // surface them so the host redirects their clients.
            fx.aborted_reads.extend(lead.reads.drain_ids());
            fx.events.push(RaftEvent::SteppedDown { term: self.term });
        }
        if leader_changed && self.config.tuning.mode.tunes() {
            // New leader→follower path: measurements start over (§III-B).
            self.tuner.reset();
            fx.events.push(RaftEvent::TunerReset);
        }
        self.reset_election_timer(now, true);
        fx.events.push(RaftEvent::BecameFollower {
            term: self.term,
            leader,
        });
    }

    /// Follow `from`, whose message claims leadership at our own term (the
    /// caller rejected lower terms; `step` adopted higher ones). A
    /// pre-candidate aborts its pre-vote — the leader is alive, the paper's
    /// Fig. 6b path — a candidate concedes the race it lost, a follower
    /// switches only when this is a new leader; every contact re-arms the
    /// election timer. Returns false for a leader, which ignores the claim:
    /// a second leader in its own term is impossible.
    pub(super) fn accept_leader_contact(
        &mut self,
        now: SimTime,
        from: NodeId,
        fx: &mut NodeEffects<SM>,
    ) -> bool {
        match self.role() {
            Role::Leader => return false,
            Role::PreCandidate => fx
                .events
                .push(RaftEvent::PreVoteAborted { term: self.term }),
            Role::Candidate | Role::Follower => {}
        }
        if self.role() != Role::Follower || self.leader_id != Some(from) {
            self.become_follower(now, self.term, Some(from), fx);
        }
        self.reset_election_timer(now, false);
        true
    }

    fn become_pre_candidate(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        let campaign_term = self.term + 1;
        self.open_round(true, campaign_term);
        self.reset_election_timer(now, true);
        fx.events.push(RaftEvent::PreVoteStarted { campaign_term });
        if self.vote_quorum_reached() {
            // Single-voter configuration: skip straight to the election.
            self.become_candidate(now, fx);
            return;
        }
        let req = RequestVote {
            term: campaign_term,
            pre_vote: true,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        };
        self.broadcast_vote_request(req, fx);
    }

    fn become_candidate(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        self.term += 1;
        self.voted_for = Some(self.config.id);
        self.leader_id = None;
        self.open_round(false, self.term);
        self.reset_election_timer(now, true);
        fx.events
            .push(RaftEvent::ElectionStarted { term: self.term });
        if self.vote_quorum_reached() {
            self.become_leader(now, fx);
            return;
        }
        let req = RequestVote {
            term: self.term,
            pre_vote: false,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        };
        self.broadcast_vote_request(req, fx);
    }

    fn broadcast_vote_request(&mut self, req: RequestVote, fx: &mut NodeEffects<SM>) {
        // Votes are requested from every node that votes in *any* active
        // set; learners never receive (or need) vote traffic.
        for peer in self.active_frame().membership.voting_members() {
            if peer == self.config.id {
                continue;
            }
            send(&self.config, fx, peer, Payload::RequestVote(req));
        }
    }

    /// Whether the nodes this node has collected votes from form a quorum
    /// in every active voter set (both sets while joint).
    fn vote_quorum_reached(&self) -> bool {
        let RoleState::Campaigning(c) = &self.state else {
            return false;
        };
        self.active_frame()
            .membership
            .quorum_satisfied(|n| c.votes.contains(&n))
    }

    fn become_leader(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        debug_assert_eq!(self.role(), Role::Candidate);
        self.leader_id = Some(self.config.id);
        fx.events.push(RaftEvent::BecameLeader { term: self.term });
        // Leader does not measure as a follower; drop stale path state.
        if self.config.tuning.mode.tunes() {
            self.tuner.reset();
        }
        let lease_check_at = now + self.config.tuning.default_election_timeout;
        self.state = RoleState::Leader(LeaderState::new(lease_check_at));
        self.sync_member_tracking(now);
        // Commit entries from prior terms via a no-op (etcd convention).
        self.log.append_new(self.term, None);
        for peer in self.peer_ids() {
            self.send_append(now, peer, fx);
        }
        self.try_advance_commit(now, fx);
    }

    /// Check-quorum lease: step down unless the recently-heard members
    /// (counting ourselves) form a quorum in every active voter set —
    /// during a joint configuration, silence from either C_old or C_new
    /// majorities deposes the leader.
    pub(super) fn check_quorum(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        let due = self.lead().is_some_and(|lead| now >= lead.lease_check_at);
        if !due {
            return;
        }
        let lease = self.config.tuning.default_election_timeout;
        let id = self.config.id;
        let alive = self.active_frame().membership.quorum_satisfied(|n| {
            n == id
                || self
                    .progress_of(n)
                    .is_some_and(|p| p.last_active + lease >= now)
        });
        if !alive {
            // become_follower emits the SteppedDown event.
            self.become_follower(now, self.term, None, fx);
        } else if let Some(lead) = self.lead_mut() {
            lead.lease_check_at = now + lease;
        }
    }

    /// Check-quorum leader lease: true while this follower has heard from a
    /// live leader within one election timeout (etcd's `inLease`).
    pub(super) fn in_lease(&self, now: SimTime) -> bool {
        self.role() == Role::Follower
            && self.leader_id.is_some()
            && now < self.timer_reset_at + self.election_timeout()
    }

    pub(super) fn on_request_vote(
        &mut self,
        now: SimTime,
        from: NodeId,
        rv: RequestVote,
        fx: &mut NodeEffects<SM>,
    ) {
        // Lease check for pre-votes (real votes were filtered in `step`).
        if self.in_lease(now) {
            return;
        }
        let up_to_date = self
            .log
            .candidate_up_to_date(rv.last_log_index, rv.last_log_term);
        let (granted, resp_term) = if rv.pre_vote {
            // Pre-vote: grant for a higher prospective term + fresh log;
            // our own term/vote are untouched.
            let grant = rv.term > self.term && up_to_date;
            (grant, if grant { rv.term } else { self.term })
        } else {
            if rv.term < self.term {
                (false, self.term)
            } else {
                // rv.term == self.term (higher was adopted in `step`).
                let can_vote = self.voted_for.is_none() || self.voted_for == Some(from);
                let grant = self.role() == Role::Follower && can_vote && up_to_date;
                if grant {
                    self.voted_for = Some(from);
                    // Granting a vote re-arms the election timer.
                    self.reset_election_timer(now, false);
                }
                (grant, self.term)
            }
        };
        let resp = RequestVoteResp {
            term: resp_term,
            pre_vote: rv.pre_vote,
            granted,
        };
        send(&self.config, fx, from, Payload::RequestVoteResp(resp));
    }

    pub(super) fn on_vote_resp(
        &mut self,
        now: SimTime,
        from: NodeId,
        resp: RequestVoteResp,
        fx: &mut NodeEffects<SM>,
    ) {
        let RoleState::Campaigning(c) = &mut self.state else {
            return;
        };
        // Only grants for the round in progress count: same phase, same term.
        if resp.pre_vote != c.pre_vote || !resp.granted || resp.term != c.term {
            return;
        }
        c.votes.insert(from);
        if !self.vote_quorum_reached() {
            return;
        }
        if resp.pre_vote {
            self.become_candidate(now, fx);
        } else {
            self.become_leader(now, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{elect, ms, node};
    use super::*;
    use crate::config::RaftConfig;
    use crate::message::{AppendEntries, Heartbeat, HeartbeatResp};
    use crate::state_machine::NullStateMachine;
    use dynatune_core::TuningConfig;

    #[test]
    fn election_timeout_starts_pre_vote_and_emits_events() {
        let mut n = node(0, 5);
        let deadline = n.election_deadline();
        let fx = n.tick(deadline);
        assert_eq!(n.role(), Role::PreCandidate);
        assert_eq!(n.term(), 0, "pre-vote must not bump the term");
        let ev = &fx.events;
        assert!(
            ev.iter()
                .any(|e| matches!(e, RaftEvent::ElectionTimeout { .. })),
            "{ev:?}"
        );
        assert!(
            ev.iter()
                .any(|e| matches!(e, RaftEvent::PreVoteStarted { .. })),
            "{ev:?}"
        );
        // Pre-vote requests to all 4 peers.
        let pre_votes = fx
            .messages
            .iter()
            .filter(|m| matches!(&m.payload, Payload::RequestVote(v) if v.pre_vote))
            .count();
        assert_eq!(pre_votes, 4);
    }

    #[test]
    fn tick_before_deadline_is_noop() {
        let mut n = node(0, 5);
        let fx = n.tick(ms(10));
        assert!(fx.events.is_empty());
        assert!(fx.messages.is_empty());
        assert_eq!(n.role(), Role::Follower);
    }

    #[test]
    fn full_election_produces_leader_and_noop_entry() {
        let mut n = node(0, 5);
        let fx = elect(&mut n, SimTime::ZERO);
        assert_eq!(n.role(), Role::Leader);
        assert_eq!(n.term(), 1);
        assert_eq!(n.leader_id(), Some(0));
        assert_eq!(n.log().last_index(), 1, "no-op appended");
        // Replication of the no-op goes out to every follower.
        let appends = fx
            .messages
            .iter()
            .filter(|m| matches!(&m.payload, Payload::AppendEntries(_)))
            .count();
        assert_eq!(appends, 4);
        let ev = &fx.events;
        assert!(
            ev.iter()
                .any(|e| matches!(e, RaftEvent::ElectionStarted { .. })),
            "{ev:?}"
        );
        assert!(
            ev.iter()
                .any(|e| matches!(e, RaftEvent::BecameLeader { .. })),
            "{ev:?}"
        );
    }

    #[test]
    fn single_node_cluster_elects_and_commits_alone() {
        let mut n = node(0, 1);
        let deadline = n.election_deadline();
        let _ = n.tick(deadline);
        assert_eq!(n.role(), Role::Leader);
        let (res, fx) = n.propose(deadline, 42);
        let (term, index) = res.unwrap();
        assert_eq!(term, 1);
        assert_eq!(index, 2);
        // Committed immediately (quorum of 1).
        assert_eq!(n.commit_index(), 2);
        assert_eq!(fx.applied.len(), 1);
        assert_eq!(fx.applied[0].response, Some(2));
    }

    #[test]
    fn pre_vote_granted_only_for_fresh_logs_and_higher_term() {
        let mut n = node(1, 3);
        // Not in lease (no leader known): pre-vote for term 1 granted.
        let fx = n.step(
            ms(1),
            2,
            Payload::RequestVote(RequestVote {
                term: 1,
                pre_vote: true,
                last_log_index: 0,
                last_log_term: 0,
            }),
        );
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => {
                assert!(r.granted);
                assert!(r.pre_vote);
                assert_eq!(r.term, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(n.term(), 0, "pre-vote leaves term untouched");
        assert_eq!(n.voted_for, None, "pre-vote does not consume the vote");
    }

    #[test]
    fn lease_blocks_disruptive_votes() {
        let mut n = node(1, 3);
        // Establish a live leader.
        let hb = Heartbeat {
            term: 2,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let _ = n.step(ms(100), 0, Payload::Heartbeat(hb));
        // A pre-vote arriving within the lease window is ignored outright.
        let fx = n.step(
            ms(150),
            2,
            Payload::RequestVote(RequestVote {
                term: 3,
                pre_vote: true,
                last_log_index: 10,
                last_log_term: 2,
            }),
        );
        assert!(fx.messages.is_empty(), "lease must silence the request");
        // Even a real vote at a higher term is ignored within the lease.
        let fx = n.step(
            ms(160),
            2,
            Payload::RequestVote(RequestVote {
                term: 9,
                pre_vote: false,
                last_log_index: 10,
                last_log_term: 2,
            }),
        );
        assert!(fx.messages.is_empty());
        assert_eq!(n.term(), 2, "lease also protects the term");
    }

    #[test]
    fn vote_granted_once_per_term() {
        let mut n = node(0, 3);
        let rv = RequestVote {
            term: 4,
            pre_vote: false,
            last_log_index: 0,
            last_log_term: 0,
        };
        let fx = n.step(ms(1), 1, Payload::RequestVote(rv));
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => assert!(r.granted),
            other => panic!("unexpected {other:?}"),
        }
        // Second candidate, same term: rejected.
        let fx = n.step(ms(2), 2, Payload::RequestVote(rv));
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => assert!(!r.granted),
            other => panic!("unexpected {other:?}"),
        }
        // Re-request from the same candidate: granted (idempotent).
        let fx = n.step(ms(3), 1, Payload::RequestVote(rv));
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => assert!(r.granted),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn vote_rejected_for_stale_log() {
        let mut n = node(0, 3);
        // Give ourselves a log entry at term 2.
        let _ = n.step(
            ms(1),
            1,
            Payload::AppendEntries(AppendEntries {
                term: 2,
                leader: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![crate::log::Entry::normal(2, 1, Some(5))],
                leader_commit: 0,
                sent_at_nanos: 0,
            }),
        );
        // Wait out the lease.
        let t = ms(5000);
        let fx = n.step(
            t,
            2,
            Payload::RequestVote(RequestVote {
                term: 3,
                pre_vote: false,
                last_log_index: 0,
                last_log_term: 0, // candidate's log is older
            }),
        );
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => assert!(!r.granted),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pre_candidate_aborts_on_leader_contact() {
        let mut n = node(1, 5);
        let deadline = n.election_deadline();
        let _ = n.tick(deadline);
        assert_eq!(n.role(), Role::PreCandidate);
        // The leader (same term) makes contact.
        let hb = Heartbeat {
            term: 0,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 9,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let fx = n.step(
            deadline + Duration::from_millis(10),
            0,
            Payload::Heartbeat(hb),
        );
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.leader_id(), Some(0));
        let ev = &fx.events;
        assert!(
            ev.iter()
                .any(|e| matches!(e, RaftEvent::PreVoteAborted { .. })),
            "{ev:?}"
        );
    }

    #[test]
    fn campaign_retry_redraws_and_rebroadcasts() {
        let mut n = node(0, 5);
        let d1 = n.election_deadline();
        let _ = n.tick(d1);
        assert_eq!(n.role(), Role::PreCandidate);
        let d2 = n.election_deadline();
        assert!(d2 > d1);
        let fx = n.tick(d2);
        assert_eq!(n.role(), Role::PreCandidate);
        let ev = &fx.events;
        assert!(
            ev.iter()
                .any(|e| matches!(e, RaftEvent::CampaignRetry { .. })),
            "{ev:?}"
        );
        let pre_votes = fx
            .messages
            .iter()
            .filter(|m| matches!(&m.payload, Payload::RequestVote(v) if v.pre_vote))
            .count();
        assert_eq!(pre_votes, 4);
    }

    #[test]
    fn leader_steps_down_when_quorum_silent() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        assert_eq!(leader.role(), Role::Leader);
        // Nobody ever responds; run ticks past the lease deadline.
        let mut t = leader.next_wake().unwrap();
        let mut stepped = false;
        for _ in 0..100 {
            let fx = leader.tick(t);
            if fx
                .events
                .iter()
                .any(|e| matches!(e, RaftEvent::SteppedDown { .. }))
            {
                stepped = true;
                break;
            }
            match leader.next_wake() {
                Some(next) if next > t => t = next,
                _ => t += Duration::from_millis(10),
            }
        }
        assert!(stepped, "leader should step down without quorum contact");
        assert_eq!(leader.role(), Role::Follower);
    }

    #[test]
    fn leader_keeps_leading_while_quorum_responds() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let mut t = leader.next_wake().unwrap();
        for _ in 0..100 {
            let fx = leader.tick(t);
            // Follower 1 responds to every heartbeat immediately.
            for m in &fx.messages {
                if m.to == 1 {
                    if let Payload::Heartbeat(hb) = &m.payload {
                        let reply = dynatune_core::HeartbeatReply::echo_only(&hb.meta);
                        let _ = leader.step(
                            t,
                            1,
                            Payload::HeartbeatResp(HeartbeatResp {
                                term: hb.term,
                                reply,
                            }),
                        );
                    }
                }
            }
            assert_eq!(leader.role(), Role::Leader);
            t = leader
                .next_wake()
                .unwrap()
                .max(t + Duration::from_millis(1));
        }
    }

    #[test]
    fn tuner_reset_on_timeout_for_dynatune() {
        let config = RaftConfig::new(1, 3, TuningConfig::dynatune());
        let mut n = RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO);
        // Feed warmed tuner via heartbeats from a leader.
        let mut t = ms(10);
        for i in 0..20u64 {
            let hb = Heartbeat {
                term: 1,
                leader: 0,
                commit: 0,
                meta: dynatune_core::HeartbeatMeta {
                    id: i,
                    sent_at_nanos: t.as_nanos(),
                    rtt_sample: Some(Duration::from_millis(50)),
                },
            };
            let _ = n.step(t, 0, Payload::Heartbeat(hb));
            t += Duration::from_millis(100);
        }
        assert!(n.tuning_snapshot().warmed);
        assert_eq!(n.election_timeout(), Duration::from_millis(50));
        // Let the election timer expire: measurements are discarded but the
        // tuned Et keeps pacing the campaign (§III-B reading).
        let deadline = n.election_deadline();
        let fx = n.tick(deadline);
        assert!(fx.events.contains(&RaftEvent::TunerReset));
        assert!(!n.tuning_snapshot().warmed);
        assert_eq!(n.tuning_snapshot().rtt_samples, 0, "data discarded");
        assert_eq!(
            n.election_timeout(),
            Duration::from_millis(50),
            "tuned Et survives for the campaign"
        );
        // Two unresolved campaign retries escalate to the conservative
        // defaults (availability fallback).
        let mut t = n.election_deadline();
        for _ in 0..2 {
            let _ = n.tick(t);
            t = n.election_deadline().max(t + Duration::from_millis(1));
        }
        assert_eq!(
            n.election_timeout(),
            Duration::from_millis(1000),
            "escalation falls back to defaults"
        );
    }

    #[test]
    fn quantized_deadline_snaps_to_phased_tick_grid() {
        let mut cfg = RaftConfig::new(0, 3, TuningConfig::raft_default());
        cfg.quantization = TimerQuantization::Tick;
        let n = RaftNode::new(cfg, NullStateMachine::default(), ms(40));
        let deadline = n.election_deadline();
        let raw = ms(40) + n.randomized_timeout();
        // First phased 100ms boundary at or after the raw deadline.
        assert!(deadline >= raw, "deadline {deadline} >= raw {raw}");
        assert!(deadline < raw + Duration::from_millis(100));
        // Different nodes observe differently-phased grids.
        let other = RaftNode::new(
            RaftConfig::new(1, 3, TuningConfig::raft_default()),
            NullStateMachine::default(),
            ms(40),
        );
        assert_ne!(
            n.election_deadline().as_nanos() % 100_000_000,
            other.election_deadline().as_nanos() % 100_000_000,
            "grids should be phase-shifted across nodes"
        );
        let mut cfg = RaftConfig::new(0, 3, TuningConfig::raft_default());
        cfg.quantization = TimerQuantization::Continuous;
        let n2 = RaftNode::new(cfg, NullStateMachine::default(), ms(40));
        let d2 = n2.election_deadline();
        // Continuous deadline equals reset + rto exactly (same seed, same factor).
        assert_eq!(d2, ms(40) + n2.randomized_timeout());
    }
}
