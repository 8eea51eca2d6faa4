//! Cluster membership and joint-consensus quorum math (Raft §6).
//!
//! A [`Membership`] names the voter set (two voter sets while a joint
//! configuration `C_old,new` is active), plus the non-voting learners that
//! replicate the log but count towards no quorum. Configuration changes are
//! ordinary log entries carrying a [`ConfChange`]; a node adopts the
//! configuration of a conf entry the moment the entry is *appended* to its
//! log (not when it commits), and rolls back to the previous configuration
//! if that entry is later truncated away — the dissertation's rule that a
//! server always uses the latest configuration in its log.
//!
//! The joint phase is entered with [`ConfChange::Begin`] and left with
//! [`ConfChange::Finalize`]; while it is active every election and every
//! commit must win a majority in *both* voter sets independently, which is
//! what makes the handover atomic: no majority of `C_old` and no majority of
//! `C_new` can ever decide anything without overlapping the joint deciders.

use crate::types::{quorum, LogIndex, NodeId};
use std::collections::BTreeSet;

/// A configuration-change command carried in a log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfChange {
    /// Add a non-voting learner: it receives appends, heartbeats and
    /// snapshots but counts towards no election, commit, read or lease
    /// quorum. The safe staging area for a future voter.
    AddLearner(NodeId),
    /// Drop a learner (abandoned catch-up, decommissioned replica).
    RemoveLearner(NodeId),
    /// Enter the joint configuration `C_old,new`: the new voter set is the
    /// current one plus `add` (each must already be a learner — promotion
    /// is gated on catch-up) minus `remove`. Until [`ConfChange::Finalize`]
    /// both voter sets must agree on every election and commit.
    Begin {
        /// Learners promoted to voters in `C_new`.
        add: Vec<NodeId>,
        /// Voters retired in `C_new` (may include the current leader, which
        /// steps down once the finalizing entry commits).
        remove: Vec<NodeId>,
    },
    /// Leave the joint configuration: `C_new` alone rules from here on.
    Finalize,
}

/// The active cluster configuration: who votes, who is still catching up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// The (new, while joint) voter set.
    pub voters: BTreeSet<NodeId>,
    /// The outgoing voter set while a joint configuration is active
    /// (`None` outside the joint phase).
    pub old_voters: Option<BTreeSet<NodeId>>,
    /// Non-voting learners.
    pub learners: BTreeSet<NodeId>,
}

impl Membership {
    /// The genesis configuration: `voters` with optional initial `learners`.
    #[must_use]
    pub fn initial(voters: &[NodeId], learners: &[NodeId]) -> Self {
        Self {
            voters: voters.iter().copied().collect(),
            old_voters: None,
            learners: learners.iter().copied().collect(),
        }
    }

    /// Whether a joint configuration is active.
    #[must_use]
    pub fn is_joint(&self) -> bool {
        self.old_voters.is_some()
    }

    /// Whether `id` votes in *any* active voter set.
    #[must_use]
    pub fn is_voter(&self, id: NodeId) -> bool {
        self.voters.contains(&id)
            || self
                .old_voters
                .as_ref()
                .is_some_and(|old| old.contains(&id))
    }

    /// Whether `id` is a (non-voting) learner.
    #[must_use]
    pub fn is_learner(&self, id: NodeId) -> bool {
        self.learners.contains(&id)
    }

    /// Whether `id` participates in the cluster at all (voter or learner).
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.is_voter(id) || self.is_learner(id)
    }

    /// Every node that votes in at least one active voter set.
    #[must_use]
    pub fn voting_members(&self) -> BTreeSet<NodeId> {
        let mut all = self.voters.clone();
        if let Some(old) = &self.old_voters {
            all.extend(old.iter().copied());
        }
        all
    }

    /// Every node that receives replication traffic: voters of both sets
    /// plus learners.
    #[must_use]
    pub fn members(&self) -> BTreeSet<NodeId> {
        let mut all = self.voting_members();
        all.extend(self.learners.iter().copied());
        all
    }

    /// Dual-quorum predicate: true when the nodes satisfying `pred` form a
    /// majority of `voters` *and* (while joint) a majority of `old_voters`.
    /// This is the single primitive behind vote tallies, check-quorum,
    /// and ReadIndex confirmation — learners never enter either count.
    #[must_use]
    pub fn quorum_satisfied(&self, pred: impl Fn(NodeId) -> bool) -> bool {
        let holds =
            |set: &BTreeSet<NodeId>| set.iter().filter(|&&n| pred(n)).count() >= quorum(set.len());
        holds(&self.voters) && self.old_voters.as_ref().is_none_or(holds)
    }

    /// Joint-commit index: the highest index replicated on a majority of
    /// `voters` and (while joint) on a majority of `old_voters` — the
    /// *minimum* of the two per-set quorum indices, so no entry commits
    /// without both configurations having durably stored it.
    #[must_use]
    pub fn committed_index(&self, match_of: impl Fn(NodeId) -> LogIndex) -> LogIndex {
        let set_commit = |set: &BTreeSet<NodeId>| -> LogIndex {
            if set.is_empty() {
                return 0;
            }
            let mut matches: Vec<LogIndex> = set.iter().map(|&n| match_of(n)).collect();
            matches.sort_unstable_by(|a, b| b.cmp(a));
            matches[quorum(set.len()) - 1]
        };
        let new_commit = set_commit(&self.voters);
        match &self.old_voters {
            Some(old) => new_commit.min(set_commit(old)),
            None => new_commit,
        }
    }

    /// Apply a configuration change, producing the successor configuration.
    /// Validation errors describe why the change is inadmissible against
    /// this configuration; replay of a committed log never errors because
    /// the leader validated against the same predecessor state.
    pub fn apply(&self, change: &ConfChange) -> Result<Membership, &'static str> {
        let mut next = self.clone();
        match change {
            ConfChange::AddLearner(id) => {
                if self.is_voter(*id) {
                    return Err("node is already a voter");
                }
                if self.is_learner(*id) {
                    return Err("node is already a learner");
                }
                next.learners.insert(*id);
            }
            ConfChange::RemoveLearner(id) => {
                if !self.is_learner(*id) {
                    return Err("node is not a learner");
                }
                next.learners.remove(id);
            }
            ConfChange::Begin { add, remove } => {
                if self.is_joint() {
                    return Err("a joint configuration is already active");
                }
                for id in add {
                    if !self.is_learner(*id) {
                        return Err("promoted nodes must be caught-up learners");
                    }
                }
                for id in remove {
                    if !self.voters.contains(id) {
                        return Err("removed node is not a voter");
                    }
                }
                let mut new_voters = self.voters.clone();
                for id in remove {
                    new_voters.remove(id);
                }
                for id in add {
                    new_voters.insert(*id);
                    next.learners.remove(id);
                }
                if new_voters.is_empty() {
                    return Err("the new configuration would have no voters");
                }
                next.old_voters = Some(self.voters.clone());
                next.voters = new_voters;
            }
            ConfChange::Finalize => {
                if !self.is_joint() {
                    return Err("no joint configuration to finalize");
                }
                next.old_voters = None;
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(voters: &[NodeId], learners: &[NodeId]) -> Membership {
        Membership::initial(voters, learners)
    }

    #[test]
    fn initial_roles() {
        let c = m(&[0, 1, 2], &[3]);
        assert!(c.is_voter(0) && c.is_voter(2));
        assert!(!c.is_voter(3) && c.is_learner(3));
        assert!(c.contains(3) && !c.contains(4));
        assert!(!c.is_joint());
        assert_eq!(c.members().len(), 4);
        assert_eq!(c.voting_members().len(), 3);
    }

    #[test]
    fn single_config_quorum() {
        let c = m(&[0, 1, 2], &[3]);
        assert!(c.quorum_satisfied(|n| n <= 1));
        assert!(!c.quorum_satisfied(|n| n == 0));
        // Learners never count, even when the predicate matches them.
        assert!(!c.quorum_satisfied(|n| n == 0 || n == 3));
    }

    #[test]
    fn joint_quorum_needs_both_majorities() {
        // C_old = {0,1,2}, C_new = {0,1,3,4} via add 3,4 / remove 2.
        let c = m(&[0, 1, 2], &[3, 4])
            .apply(&ConfChange::Begin {
                add: vec![3, 4],
                remove: vec![2],
            })
            .expect("valid change");
        assert!(c.is_joint());
        assert_eq!(c.voters, [0, 1, 3, 4].into_iter().collect());
        assert_eq!(c.old_voters, Some([0, 1, 2].into_iter().collect()));
        assert!(c.learners.is_empty());
        // {0,1,3}: majority of new (3/4) AND majority of old (2/3).
        assert!(c.quorum_satisfied(|n| matches!(n, 0 | 1 | 3)));
        // {0,3,4}: majority of new but only 1/3 of old — insufficient.
        assert!(!c.quorum_satisfied(|n| matches!(n, 0 | 3 | 4)));
        // {0,1,2}: majority of old but only 2/4 of new — insufficient.
        assert!(!c.quorum_satisfied(|n| matches!(n, 0..=2)));
    }

    #[test]
    fn joint_commit_is_the_minimum_of_both_sets() {
        let c = m(&[0, 1, 2], &[3])
            .apply(&ConfChange::Begin {
                add: vec![3],
                remove: vec![0],
            })
            .expect("valid change");
        // match: 0 -> 9, 1 -> 5, 2 -> 3, 3 -> 9.
        let match_of = |n: NodeId| [9u64, 5, 3, 9][n];
        // New = {1,2,3}: sorted 9,5,3 -> quorum(3)=2 -> 5.
        // Old = {0,1,2}: sorted 9,5,3 -> 5. min = 5.
        assert_eq!(c.committed_index(match_of), 5);
        let finalized = c.apply(&ConfChange::Finalize).expect("finalize");
        assert!(!finalized.is_joint());
        assert_eq!(finalized.committed_index(match_of), 5);
        assert!(!finalized.is_voter(0));
    }

    #[test]
    fn commit_regression_not_hardcoded_to_single_config_majority() {
        // Regression for the latent `peers.len()/2 + 1` assumption: a bare
        // majority of the five *current* ids must NOT commit while the old
        // three-voter configuration has not stored the entry.
        let c = m(&[0, 1, 2], &[3, 4])
            .apply(&ConfChange::Begin {
                add: vec![3, 4],
                remove: vec![],
            })
            .expect("valid change");
        // 3 of 5 union members match — enough under single-config math,
        // but the matching set {2,3,4} holds only 1/3 of C_old.
        let match_of = |n: NodeId| if n >= 2 { 10 } else { 0 };
        assert_eq!(c.committed_index(match_of), 0);
    }

    #[test]
    fn apply_validation() {
        let c = m(&[0, 1, 2], &[3]);
        assert!(c.apply(&ConfChange::AddLearner(0)).is_err(), "voter");
        assert!(c.apply(&ConfChange::AddLearner(3)).is_err(), "dup learner");
        assert!(c.apply(&ConfChange::AddLearner(4)).is_ok());
        assert!(c.apply(&ConfChange::RemoveLearner(4)).is_err());
        assert!(c.apply(&ConfChange::RemoveLearner(3)).is_ok());
        assert!(c.apply(&ConfChange::Finalize).is_err(), "not joint");
        assert!(
            c.apply(&ConfChange::Begin {
                add: vec![4],
                remove: vec![],
            })
            .is_err(),
            "promoting a non-learner"
        );
        assert!(
            c.apply(&ConfChange::Begin {
                add: vec![],
                remove: vec![0, 1, 2],
            })
            .is_err(),
            "empty voter set"
        );
        let joint = c
            .apply(&ConfChange::Begin {
                add: vec![3],
                remove: vec![],
            })
            .expect("valid");
        assert!(
            joint
                .apply(&ConfChange::Begin {
                    add: vec![],
                    remove: vec![0],
                })
                .is_err(),
            "nested joint"
        );
        assert!(joint.apply(&ConfChange::Finalize).is_ok());
    }
}
