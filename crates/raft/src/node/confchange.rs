//! Configuration changes (joint consensus, Raft §6): the membership frame
//! stack that mirrors the log, proposing a change, and absorbing or rolling
//! back conf entries on followers.

use super::replication::Peer;
use super::{NodeEffects, NotLeader, RaftNode, RoleState};
use crate::events::RaftEvent;
use crate::log::Entry;
use crate::membership::{ConfChange, Membership};
use crate::state_machine::{Effects, StateMachine};
use crate::types::{LogIndex, NodeId, Role, Term};
use dynatune_core::invariant_violated;
use dynatune_simnet::SimTime;

/// Why [`RaftNode::propose_conf_change`] refused a configuration change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfChangeError {
    /// This node is not the leader (redirect hint attached).
    NotLeader(NotLeader),
    /// The previous configuration entry has not committed yet. At most one
    /// configuration change may be in flight at a time (etcd's discipline);
    /// retry once the pending entry commits.
    InFlight,
    /// The change is invalid against the active configuration (see the
    /// reason for which [`Membership::apply`] precondition failed).
    Rejected(&'static str),
    /// A learner named in `Begin.add` is still too far behind the leader's
    /// tail — promotion is gated on snapshot/append catch-up so a voter
    /// with an empty log can never be counted into a quorum.
    LearnerBehind {
        /// The lagging learner.
        node: NodeId,
        /// Its replicated match index at the leader.
        match_index: LogIndex,
        /// The leader's last log index.
        last_index: LogIndex,
    },
}

/// How close (in log entries) a learner must be to the leader's tail before
/// `Begin { add: [it], .. }` promotes it to voter. Catch-up runs through
/// `InstallSnapshot` + pipelined appends; the slack only has to cover the
/// entries proposed while the final append batches were in flight.
pub const PROMOTION_SLACK: u64 = 256;

/// One epoch of the membership frame stack: the configuration put in force
/// by the conf entry at `(index, term)`. The base frame sits at the genesis
/// position (0, 0) or at the snapshot boundary after an install/compaction.
/// The stack mirrors the log — truncation pops frames, compaction collapses
/// them into the base, a snapshot install replaces the base — which is what
/// implements Raft §6's "a server uses the latest configuration in its log"
/// including rollback when that entry is truncated away.
#[derive(Debug, Clone)]
pub(super) struct MembershipFrame {
    pub(super) index: LogIndex,
    pub(super) term: Term,
    pub(super) membership: Membership,
}

impl<SM: StateMachine> RaftNode<SM> {
    /// The active cluster configuration (append-time semantics, Raft §6).
    #[must_use]
    pub fn membership(&self) -> &Membership {
        &self.active_frame().membership
    }

    /// Log index of the entry that put the active configuration in force
    /// (0 for the genesis configuration; the snapshot boundary after an
    /// install). The configuration is *committed* once
    /// `commit_index >= membership_index()`.
    #[must_use]
    pub fn membership_index(&self) -> LogIndex {
        self.active_frame().index
    }

    pub(super) fn active_frame(&self) -> &MembershipFrame {
        match self.frames.last() {
            Some(f) => f,
            None => invariant_violated!("the membership frame stack is never empty"),
        }
    }

    pub(super) fn emit_membership_event(&self, fx: &mut NodeEffects<SM>) {
        let f = self.active_frame();
        fx.events.push(RaftEvent::MembershipChanged {
            index: f.index,
            voters: f.membership.voters.len(),
            learners: f.membership.learners.len(),
            joint: f.membership.is_joint(),
        });
    }

    /// Propose a configuration change as a replicated log entry.
    ///
    /// The change takes effect on this leader the moment it is appended
    /// (and on each follower when it accepts the entry). At most one
    /// configuration change may be uncommitted at a time; `Begin` entries
    /// additionally require every promoted node to be a learner within
    /// [`PROMOTION_SLACK`] entries of the leader's tail, so a voter can
    /// never be counted into a quorum before it can actually store entries.
    ///
    /// A leader that removes itself keeps leading until the removing
    /// configuration *commits* (the entry must still replicate), then steps
    /// down via the commit path.
    pub fn propose_conf_change(
        &mut self,
        now: SimTime,
        change: ConfChange,
    ) -> (Result<(Term, LogIndex), ConfChangeError>, NodeEffects<SM>) {
        let mut fx = Effects::new();
        if self.role() != Role::Leader {
            return (Err(ConfChangeError::NotLeader(self.not_leader())), fx);
        }
        if self.active_frame().index > self.commit_index {
            return (Err(ConfChangeError::InFlight), fx);
        }
        let next = match self.active_frame().membership.apply(&change) {
            Ok(next) => next,
            Err(reason) => return (Err(ConfChangeError::Rejected(reason)), fx),
        };
        if let ConfChange::Begin { add, .. } = &change {
            let last_index = self.log.last_index();
            for &node in add {
                let match_index = self.progress_of(node).map_or(0, |p| p.match_index);
                if match_index + PROMOTION_SLACK < last_index {
                    return (
                        Err(ConfChangeError::LearnerBehind {
                            node,
                            match_index,
                            last_index,
                        }),
                        fx,
                    );
                }
            }
        }
        let index = self.log.append_conf(self.term, change);
        self.frames.push(MembershipFrame {
            index,
            term: self.term,
            membership: next,
        });
        self.sync_member_tracking(now);
        self.emit_membership_event(&mut fx);
        self.replicate_new_entry(now, &mut fx);
        (Ok((self.term, index)), fx)
    }

    /// Align the leader's per-member tracking (progress + pacers) with the
    /// active configuration: new members (learners, promoted voters) gain
    /// entries, members dropped by a `Finalize` lose theirs — per Raft §6
    /// removed servers simply stop receiving traffic.
    pub(super) fn sync_member_tracking(&mut self, now: SimTime) {
        let members = self.active_frame().membership.members();
        let last_index = self.log.last_index();
        let RoleState::Leader(lead) = &mut self.state else {
            return;
        };
        let fresh = || Peer::new(last_index, now, self.config.tuning);
        lead.peers.sync(&members, self.config.id, fresh);
    }

    /// Reconcile the membership frame stack with the log after an accepted
    /// append. Two motions, both Raft §6:
    ///
    /// 1. **Rollback**: frames whose `(index, term)` entry no longer exists
    ///    in the log were truncated away by a conflicting suffix — the node
    ///    reverts to the configuration *before* them. Truncation is always
    ///    suffix-shaped, so invalid frames form a suffix of the stack.
    /// 2. **Absorption**: conf entries in the accepted batch take effect in
    ///    log order, each applied to the previous frame's configuration.
    ///    Replay is deterministic — same log, same frames on every replica.
    pub(super) fn absorb_conf_entries(
        &mut self,
        offered: &[Entry<SM::Command>],
        fx: &mut NodeEffects<SM>,
    ) {
        let mut changed = false;
        while self.frames.len() > 1 {
            let Some(top) = self.frames.last() else {
                break;
            };
            if self.log.term_at(top.index) == Some(top.term) {
                break;
            }
            self.frames.pop();
            changed = true;
        }
        for e in offered {
            let Some(conf) = &e.conf else {
                continue;
            };
            if self.log.term_at(e.index) != Some(e.term) {
                continue; // superseded duplicate: this copy never survived
            }
            if self.active_frame().index >= e.index {
                continue; // already absorbed (redelivered batch)
            }
            match self.active_frame().membership.apply(conf) {
                Ok(next) => {
                    self.frames.push(MembershipFrame {
                        index: e.index,
                        term: e.term,
                        membership: next,
                    });
                    changed = true;
                }
                Err(reason) => {
                    // The leader validated this change against the same
                    // predecessor configuration, so replay cannot fail
                    // unless genesis configs diverged across nodes.
                    debug_assert!(false, "conf-change replay rejected: {reason}");
                }
            }
        }
        if changed {
            self.emit_membership_event(fx);
        }
    }

    /// The configuration in force at `index` (used when cutting a snapshot:
    /// the receiver must learn the membership as of the boundary, not the
    /// possibly-newer active one).
    pub(super) fn membership_at(&self, index: LogIndex) -> Membership {
        let mut chosen: Option<&Membership> = None;
        for f in &self.frames {
            if f.index <= index {
                chosen = Some(&f.membership);
            }
        }
        match chosen {
            Some(m) => m.clone(),
            // The base frame sits at or below every snapshot cut
            // (compaction never passes last_applied).
            None => invariant_violated!(
                "no membership frame at or below index {index} — the base \
                 frame must cover every snapshot boundary"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{appends_to, elect, leader3_with_window, ms, node, Node};
    use super::*;
    use crate::message::{AppendResp, Payload};
    use std::time::Duration;

    /// `on_append_resp` keeps working after `try_advance_commit`: it refills
    /// the acker's window and nudges it for pending read rounds. The ack
    /// that commits the leader's own removal deposes it in the middle of
    /// that — the leader state is gone when the tail runs.
    #[test]
    fn ack_committing_own_removal_steps_down_and_aborts_queued_reads() {
        let (mut n, t) = leader3_with_window(4);
        let ack = |n: &mut Node, peer: NodeId, index: LogIndex| {
            let resp = AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: index,
                read_ctx: None,
            };
            n.step(t, peer, Payload::AppendResp(resp))
        };
        // Remove the leader itself: joint {0,1,2} -> {1,2}, then finalize.
        let begin = ConfChange::Begin {
            add: vec![],
            remove: vec![0],
        };
        let (res, _) = n.propose_conf_change(t, begin);
        let (_, joint) = res.unwrap();
        let _ = ack(&mut n, 1, joint);
        let _ = ack(&mut n, 2, joint);
        assert_eq!(n.commit_index(), joint);
        let (res, _) = n.propose_conf_change(t, ConfChange::Finalize);
        let (_, finalize) = res.unwrap();
        assert!(!n.membership().is_voter(0));
        assert_eq!(n.role(), Role::Leader, "leads until the removal commits");
        // A non-voting leader has no lease: the read opens a ReadIndex round.
        let (res, fx) = n.request_read(t, 77, true);
        res.unwrap();
        assert!(fx.reads.is_empty());
        assert_eq!(n.pending_reads(), 1);
        // Something unsent for the ack's window refill to ship, were the
        // leader still leading.
        let (res, fx) = n.propose(t, 5);
        res.unwrap();
        assert!(appends_to(&fx, 2).is_empty(), "pipe busy: buffered");
        let _ = ack(&mut n, 1, finalize);
        assert_eq!(n.role(), Role::Leader, "one of two new voters is no quorum");
        // The second ack commits the Finalize and with it the removal.
        let fx = ack(&mut n, 2, finalize);
        assert_eq!(n.commit_index(), finalize);
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(fx.aborted_reads, vec![77]);
        assert_eq!(n.pending_reads(), 0);
        assert!(
            fx.messages.iter().all(|m| m.to != 2),
            "a deposed leader sends the acker nothing further: {:?}",
            fx.messages
        );
        let kinds: Vec<&str> = fx.events.iter().map(RaftEvent::kind).collect();
        assert!(kinds.contains(&"stepped_down"), "events: {kinds:?}");
    }

    /// Per-peer loops send in ascending id order — also after a learner
    /// above every voter joins (leaving an untracked id below it) and a
    /// `Finalize` drops a voter from the middle of the id range.
    #[test]
    fn appends_and_heartbeats_go_out_in_ascending_id_order_across_membership_changes() {
        let mut n = node(0, 4);
        let _ = elect(&mut n, SimTime::ZERO);
        let t = ms(3000);
        // Every tracked peer acks the whole log, leaving every pipe idle
        // (an untracked peer's ack is ignored).
        let ack_all = |n: &mut Node| {
            let last = n.log().last_index();
            for peer in [1, 2, 3, 5] {
                let resp = AppendResp {
                    term: n.term(),
                    success: true,
                    match_or_hint: last,
                    read_ctx: None,
                };
                let _ = n.step(t, peer, Payload::AppendResp(resp));
            }
            assert_eq!(n.commit_index(), last);
        };
        let change = |n: &mut Node, change: ConfChange| {
            let (res, _) = n.propose_conf_change(t, change);
            res.unwrap();
            ack_all(n);
        };
        // Who a proposal and then a heartbeat round at `beat` reach, in
        // emission order.
        let order = |n: &mut Node, command: u64, beat: SimTime| {
            let (res, fx) = n.propose(t, command);
            res.unwrap();
            let appends: Vec<NodeId> = fx.messages.iter().map(|m| m.to).collect();
            let fx = n.tick(beat);
            let heartbeats: Vec<NodeId> = fx
                .messages
                .iter()
                .filter(|m| matches!(m.payload, Payload::Heartbeat(_)))
                .map(|m| m.to)
                .collect();
            (appends, heartbeats)
        };
        ack_all(&mut n);
        change(&mut n, ConfChange::AddLearner(5));
        let tracked = vec![1, 2, 3, 5];
        let beat = t + Duration::from_millis(500);
        assert_eq!(order(&mut n, 1, beat), (tracked.clone(), tracked));
        ack_all(&mut n);
        let begin = ConfChange::Begin {
            add: vec![],
            remove: vec![2],
        };
        change(&mut n, begin);
        change(&mut n, ConfChange::Finalize);
        assert!(!n.membership().members().contains(&2));
        assert!(n.progress_of(2).is_none(), "the removed voter is untracked");
        let tracked = vec![1, 3, 5];
        // One default heartbeat interval later, every pacer is due again.
        let beat = beat + Duration::from_millis(100);
        assert_eq!(order(&mut n, 2, beat), (tracked.clone(), tracked));
    }
}
