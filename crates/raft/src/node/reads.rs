//! Log-free linearizable reads: the leader lease and ReadIndex
//! confirmation rounds.

use super::{NodeEffects, NotLeader, RaftNode, RoleState};
use crate::events::RaftEvent;
use crate::progress::Progress;
use crate::state_machine::{Effects, ReadGrant, ReadPath, StateMachine};
use crate::types::{quorum, LogIndex, NodeId, Role};
use dynatune_core::ELECTION_TIMEOUT_FLOOR;
use dynatune_simnet::SimTime;
use std::collections::{BTreeMap, VecDeque};

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
    pub(super) seq: u64,
    read_index: LogIndex,
    /// Registration instant; reads arriving at the same instant against
    /// the same commit index share the round (batch admission).
    registered_at: SimTime,
    /// `(id, wait_apply)` per queued read.
    reads: Vec<(u64, bool)>,
}

/// Leader-side bookkeeping for log-free reads.
///
/// Linearizability invariant: a read registered at commit index `c` is only
/// granted with `read_index >= c`, and only after leadership was
/// re-confirmed *at or after* registration (instantly via the lease, or by
/// a quorum of confirmation echoes). Serving then waits for
/// `last_applied >= read_index` (on the granting leader, or on the
/// forwarding follower for remote grants).
#[derive(Debug, Default)]
pub(super) struct ReadState {
    /// Rounds awaiting quorum confirmation, oldest first (seqs ascend).
    pub(super) pending_confirm: VecDeque<ReadRound>,
    /// Confirmed local reads waiting for `last_applied` to reach their
    /// read index.
    apply_wait: BTreeMap<LogIndex, Vec<(u64, ReadPath)>>,
    /// Reads registered before this leader committed an entry of its own
    /// term (until then `commit_index` may lag the cluster's true commit
    /// point); re-admitted when the term's no-op commits.
    pub(super) term_wait: Vec<(u64, bool)>,
}

impl ReadState {
    /// Queued reads: confirmation, apply and term waiters together.
    fn len(&self) -> usize {
        let confirming: usize = self.pending_confirm.iter().map(|r| r.reads.len()).sum();
        let applying: usize = self.apply_wait.values().map(Vec::len).sum();
        confirming + applying + self.term_wait.len()
    }

    /// Drain every queued read id (leadership lost / stepping down).
    pub(super) fn drain_ids(&mut self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for round in self.pending_confirm.drain(..) {
            ids.extend(round.reads.iter().map(|&(id, _)| id));
        }
        for (_, waiters) in std::mem::take(&mut self.apply_wait) {
            ids.extend(waiters.iter().map(|&(id, _)| id));
        }
        ids.extend(self.term_wait.drain(..).map(|(id, _)| id));
        ids
    }
}

impl<SM: StateMachine> RaftNode<SM> {
    /// Register a linearizable log-free read.
    ///
    /// On the leader this records the current `commit_index` as the read's
    /// index and grants it — immediately when the leader lease is live,
    /// otherwise after a ReadIndex confirmation round (a quorum of
    /// `read_ctx` echoes on `AppendEntries`/`AppendResp`) — via
    /// [`ReadGrant`]s in the returned (or a later) [`Effects::reads`].
    /// With `wait_apply` the grant is additionally held until
    /// `last_applied >= read_index`, so the caller can serve from this
    /// node's state machine the moment the grant arrives; without it
    /// (forwarded follower reads) the grant fires on confirmation and the
    /// caller waits for its *own* apply index. Queued reads that lose
    /// their leader surface in [`Effects::aborted_reads`].
    ///
    /// Non-leaders return a redirect hint, like [`RaftNode::propose`].
    pub fn request_read(
        &mut self,
        now: SimTime,
        id: u64,
        wait_apply: bool,
    ) -> (Result<(), NotLeader>, NodeEffects<SM>) {
        let mut fx = Effects::new();
        let RoleState::Leader(lead) = &mut self.state else {
            return (Err(self.not_leader()), fx);
        };
        if self.log.term_at(self.commit_index) != Some(self.term) {
            // Raft §6.4: before the current term's no-op commits, our
            // commit_index may still lag entries the previous leader
            // committed — reading at it could miss them. Park the read.
            lead.reads.term_wait.push((id, wait_apply));
            return (Ok(()), fx);
        }
        self.admit_read(now, id, wait_apply, &mut fx);
        (Ok(()), fx)
    }

    /// Whether the leader lease currently covers log-free reads: a quorum
    /// (counting this node) acknowledged heartbeats sent within the
    /// drift-scaled lease window. While it holds, no other member can have
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
        if !self.config.lease_reads || self.role() != Role::Leader {
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
        // Only voters extend the lease: a learner's ack says nothing about
        // who can win an election.
        let mut bases: Vec<SimTime> = membership
            .voters
            .iter()
            .filter(|&&v| v != self.config.id)
            .map(|&v| self.progress_of(v).map_or(SimTime::ZERO, |p| p.lease_basis))
            .collect();
        bases.sort_unstable_by(|a, b| b.cmp(a));
        let basis = bases[needed - 1];
        // The lease lasts the default election timeout, cut to the floor a
        // tuned follower's Et may reach.
        let mut lease = self.config.tuning.default_election_timeout;
        if self.config.tuning.mode.tunes() {
            lease = lease.min(ELECTION_TIMEOUT_FLOOR);
        }
        let effective = lease.mul_f64(1.0 - LEASE_DRIFT_MARGIN);
        now < basis + effective
    }

    /// Queued log-free reads (confirmation, apply or term waiters).
    #[must_use]
    pub fn pending_reads(&self) -> usize {
        self.lead().map_or(0, |lead| lead.reads.len())
    }

    pub(super) fn admit_read(
        &mut self,
        now: SimTime,
        id: u64,
        wait_apply: bool,
        fx: &mut NodeEffects<SM>,
    ) {
        let read_index = self.commit_index;
        if self.lease_valid(now) {
            self.finish_read(id, read_index, ReadPath::Lease, wait_apply, fx);
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
                last.reads.push((id, wait_apply));
                return;
            }
        }
        self.read_seq += 1;
        let seq = self.read_seq;
        lead.reads.pending_confirm.push_back(ReadRound {
            seq,
            read_index,
            registered_at: now,
            reads: vec![(id, wait_apply)],
        });
        fx.events.push(RaftEvent::ReadConfirmRound { seq });
        self.nudge_read_confirmation(now, fx);
        // Single-node cluster: the quorum is already satisfied.
        self.advance_read_confirmations(fx);
    }

    /// Grant a confirmed read, or park it until apply catches up.
    fn finish_read(
        &mut self,
        id: u64,
        read_index: LogIndex,
        path: ReadPath,
        wait_apply: bool,
        fx: &mut NodeEffects<SM>,
    ) {
        if !wait_apply || self.last_applied >= read_index {
            fx.reads.push(ReadGrant {
                id,
                read_index,
                path,
            });
        } else if let Some(lead) = self.lead_mut() {
            let waiters = lead.reads.apply_wait.entry(read_index).or_default();
            waiters.push((id, path));
        }
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
        let owes = |p: &Progress| p.acked_read_seq < newest.seq && p.window_free(window);
        self.progress_of(peer).is_some_and(owes)
    }

    /// Pop every pending round a quorum has confirmed and grant its reads.
    /// The tally is the dual-quorum predicate: while a joint configuration
    /// is active, echoes must cover a majority of *both* voter sets, and a
    /// learner's echo never counts.
    pub(super) fn advance_read_confirmations(&mut self, fx: &mut NodeEffects<SM>) {
        while let Some(round) = self.pop_confirmed_round() {
            for (id, wait_apply) in round.reads {
                self.finish_read(id, round.read_index, ReadPath::ReadIndex, wait_apply, fx);
            }
        }
    }

    fn pop_confirmed_round(&mut self) -> Option<ReadRound> {
        let seq = self.lead()?.reads.pending_confirm.front()?.seq;
        let id = self.config.id;
        let confirmed = self.active_frame().membership.quorum_satisfied(|n| {
            n == id || self.progress_of(n).is_some_and(|p| p.acked_read_seq >= seq)
        });
        if !confirmed {
            return None;
        }
        self.lead_mut()?.reads.pending_confirm.pop_front()
    }

    /// Grant apply-gated reads whose index the state machine now covers.
    pub(super) fn drain_apply_wait(&mut self, fx: &mut NodeEffects<SM>) {
        let RoleState::Leader(lead) = &mut self.state else {
            return;
        };
        while let Some((&index, _)) = lead.reads.apply_wait.iter().next() {
            if index > self.last_applied {
                break;
            }
            let Some(waiters) = lead.reads.apply_wait.remove(&index) else {
                break; // unreachable: `index` was just read from the map
            };
            for (id, path) in waiters {
                fx.reads.push(ReadGrant {
                    id,
                    read_index: index,
                    path,
                });
            }
        }
    }
}
