//! Log-free linearizable reads: the leader lease and ReadIndex
//! confirmation rounds.

use super::{NodeEffects, NotLeader, RaftNode, RoleState};
use crate::events::RaftEvent;
use crate::progress::Progress;
use crate::state_machine::{Effects, ReadGrant, ReadPath, StateMachine};
use crate::types::{quorum, LogIndex, NodeId, Role};
use dynatune_core::{invariant, ELECTION_TIMEOUT_FLOOR};
use dynatune_simnet::SimTime;
use std::collections::VecDeque;
use std::num::NonZeroU64;
use std::time::Duration;

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
/// against the same commit index, confirmed together by a quorum of
/// `read_ctx >= seq` echoes.
#[derive(Debug)]
pub(super) struct ReadRound {
    pub(super) seq: NonZeroU64,
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
/// re-confirmed *at or after* registration (instantly via the lease, or by
/// a quorum of confirmation echoes). The leader applies in the same step
/// that advances its commit index, so a granted read is already applied
/// here; only a forwarding follower waits, for its own apply index.
#[derive(Debug, Default)]
pub(super) struct ReadState {
    /// Rounds awaiting quorum confirmation, oldest first (seqs ascend).
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

/// Whether the `needed`'th freshest of `bases` (`needed >= 1`) still
/// opens a lease of length `effective` at `now`. That basis is live exactly
/// when at least `needed` bases are, so a count answers without sorting.
fn quorum_lease_live(
    bases: impl Iterator<Item = SimTime>,
    needed: usize,
    effective: Duration,
    now: SimTime,
) -> bool {
    bases.filter(|&basis| now < basis + effective).count() >= needed
}

impl<SM: StateMachine> RaftNode<SM> {
    /// Register a linearizable log-free read.
    ///
    /// On the leader this records the current `commit_index` as the read's
    /// index and grants it — immediately when the leader lease is live,
    /// otherwise after a ReadIndex confirmation round (a quorum of
    /// `read_ctx` echoes on `AppendEntries`/`AppendResp`) — via
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
        // to ReadIndex, whose echo tally *is* dual-quorum.
        if membership.is_joint() || !membership.voters.contains(&self.config.id) {
            return false;
        }
        let needed = quorum(membership.voters.len()) - 1; // we count ourselves
        if needed == 0 {
            return true; // single-voter quorum
        }
        // The lease lasts the default election timeout, cut to the floor a
        // tuned follower's Et may reach.
        let mut lease = self.config.tuning.default_election_timeout;
        if self.config.tuning.mode.tunes() {
            lease = lease.min(ELECTION_TIMEOUT_FLOOR);
        }
        let effective = lease.mul_f64(1.0 - LEASE_DRIFT_MARGIN);
        // Only voters extend the lease: a learner's ack says nothing about
        // who can win an election.
        let bases = membership
            .voters
            .iter()
            .filter(|&&v| v != self.config.id)
            .map(|&v| self.progress_of(v).map_or(SimTime::ZERO, |p| p.lease_basis));
        quorum_lease_live(bases, needed, effective, now)
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
        // since it was registered (same instant, same commit index): its
        // confirmation traffic then provably went out no earlier than this
        // read, so the echoes confirm leadership for it too.
        if let Some(last) = lead.reads.pending_confirm.back_mut() {
            if last.registered_at == now && last.read_index == read_index {
                last.reads.push(id);
                return;
            }
        }
        let seq = NonZeroU64::MIN.saturating_add(self.read_seq);
        self.read_seq = seq.get();
        lead.reads.pending_confirm.push_back(ReadRound {
            seq,
            read_index,
            registered_at: now,
            reads: vec![id],
        });
        fx.events
            .push(RaftEvent::ReadConfirmRound { seq: seq.get() });
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
    /// frees a slot (every send already in flight left before the round
    /// opened, so their echoes cannot confirm it).
    fn nudge_read_confirmation(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        for peer in self.peer_ids() {
            if self.owes_read_echo(peer) {
                self.send_append(now, peer, fx);
            }
        }
    }

    /// Whether `peer` still owes an echo for the newest pending read round
    /// and has a free window slot to carry the request.
    pub(super) fn owes_read_echo(&self, peer: NodeId) -> bool {
        let Some(newest) = self.lead().and_then(|l| l.reads.pending_confirm.back()) else {
            return false;
        };
        let window = self.config.pipeline_window;
        let owes = |p: &Progress| p.acked_read_seq < newest.seq.get() && p.window_free(window);
        self.progress_of(peer).is_some_and(owes)
    }

    /// Pop every pending round a quorum has confirmed and grant its reads.
    /// The tally is the dual-quorum predicate: while a joint configuration
    /// is active, echoes must cover a majority of *both* voter sets, and a
    /// learner's echo never counts.
    pub(super) fn advance_read_confirmations(&mut self, fx: &mut NodeEffects<SM>) {
        while let Some(round) = self.pop_confirmed_round() {
            for id in round.reads {
                self.grant_read(id, round.read_index, ReadPath::ReadIndex, fx);
            }
        }
    }

    fn pop_confirmed_round(&mut self) -> Option<ReadRound> {
        let seq = self.lead()?.reads.pending_confirm.front()?.seq.get();
        let id = self.config.id;
        let confirmed = self.active_frame().membership.quorum_satisfied(|n| {
            n == id || self.progress_of(n).is_some_and(|p| p.acked_read_seq >= seq)
        });
        if !confirmed {
            return None;
        }
        self.lead_mut()?.reads.pending_confirm.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{elect, ms, node};
    use super::*;
    use crate::config::RaftConfig;
    use crate::membership::ConfChange;
    use crate::message::{AppendResp, Heartbeat, HeartbeatResp, Payload};
    use crate::state_machine::NullStateMachine;
    use dynatune_core::TuningConfig;
    use proptest::prelude::*;

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
        let fx = leader.step(
            ms(3001),
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: None,
                echo_sent_at_nanos: None,
            }),
        );
        assert_eq!(leader.commit_index(), 1);
        assert!(
            fx.events
                .iter()
                .any(|e| matches!(e, RaftEvent::ReadConfirmRound { .. })),
            "cold lease must open a confirmation round: {:?}",
            fx.events
        );
        let probe = fx
            .messages
            .iter()
            .find_map(|m| match &m.payload {
                Payload::AppendEntries(ae) if ae.read_ctx.is_some() => Some((m.to, ae.clone())),
                _ => None,
            })
            .expect("confirmation append with read_ctx");
        assert_eq!(probe.0, 1, "idle follower gets the confirmation append");
        // The echo from one follower completes the quorum (leader + 1 of 3).
        let fx = leader.step(
            ms(3002),
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: probe.1.read_ctx,
                echo_sent_at_nanos: None,
            }),
        );
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
        let _ = leader.step(
            ms(3000),
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: None,
                echo_sent_at_nanos: None,
            }),
        );
        assert!(!leader.lease_valid(ms(3600)), "no heartbeat acks yet");
        // Follower 1 acks a heartbeat sent at t=3500.
        let _ = leader.step(
            ms(3600),
            1,
            Payload::HeartbeatResp(HeartbeatResp {
                term: leader.term(),
                reply: dynatune_core::HeartbeatReply {
                    id: 0,
                    echo_sent_at_nanos: ms(3500).as_nanos(),
                    tuned_interval: None,
                },
            }),
        );
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
        let _ = leader.step(
            ms(3000),
            1,
            Payload::HeartbeatResp(HeartbeatResp {
                term: leader.term(),
                reply: dynatune_core::HeartbeatReply {
                    id: 0,
                    echo_sent_at_nanos: ms(3000).as_nanos(),
                    tuned_interval: None,
                },
            }),
        );
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
        let _ = leader.step(
            ms(3000),
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: None,
                echo_sent_at_nanos: None,
            }),
        );
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
        let ack = |leader: &mut RaftNode<NullStateMachine>, peer: NodeId, at: SimTime| {
            let resp = AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: leader.log().last_index(),
                read_ctx: None,
                echo_sent_at_nanos: Some(at.as_nanos()),
            };
            let _ = leader.step(at, peer, Payload::AppendResp(resp));
        };
        let (res, _) = leader.propose_conf_change(t, ConfChange::AddLearner(3));
        res.unwrap();
        ack(&mut leader, 3, t);
        assert!(leader.membership().is_learner(3));
        assert_eq!(leader.progress_of(3).unwrap().lease_basis, t);
        assert!(!leader.lease_valid(t), "a learner's echo renewed the lease");
        ack(&mut leader, 1, t);
        assert!(leader.lease_valid(t), "a voter's echo does");
    }

    /// The sorting test [`quorum_lease_live`] replaced, kept as its model.
    fn quorum_lease_live_model(
        bases: &[SimTime],
        needed: usize,
        effective: Duration,
        now: SimTime,
    ) -> bool {
        let mut bases = bases.to_vec();
        bases.sort_unstable_by(|a, b| b.cmp(a));
        now < bases[needed - 1] + effective
    }

    proptest! {
        /// Counting live bases agrees with sorting them and testing the
        /// quorum'th freshest, ties and expired bases included.
        #[test]
        fn prop_lease_count_matches_the_sorting_model(
            bases in proptest::collection::vec(0u64..50, 1..70),
            needed in 1usize..70,
            effective in 0u64..20,
            now in 0u64..70,
        ) {
            let bases: Vec<SimTime> = bases.into_iter().map(ms).collect();
            let needed = needed.min(bases.len());
            let effective = Duration::from_millis(effective);
            prop_assert_eq!(
                quorum_lease_live(bases.iter().copied(), needed, effective, ms(now)),
                quorum_lease_live_model(&bases, needed, effective, ms(now))
            );
        }
    }
}
