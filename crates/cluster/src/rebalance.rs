//! Live shard rebalancing: move one replica of a Raft group to a spare
//! host while client traffic keeps flowing.
//!
//! The move follows the production playbook (etcd/CockroachDB style):
//!
//! 1. **AddLearner** — the spare joins as a learner: replicated to, never
//!    counted in any quorum, never campaigning.
//! 2. **CatchUp** — wait until the learner's match index trails the
//!    leader's tail by at most [`CATCH_UP_SLACK`] entries (snapshot
//!    transfer + pipelined appends happen inside the simulation).
//! 3. **BeginJoint → AwaitJoint** — enter joint consensus
//!    `C_old,new = {old voters} ∪ {spare} \ {retiring replica}`; commits
//!    now require a majority of *both* voter sets.
//! 4. **Finalize → AwaitFinal** — leave joint consensus; the retiring
//!    replica is out of every quorum the moment `Finalize` is appended.
//! 5. **Repoint** — rewrite the client's placement row for the shard so
//!    traffic follows the data.
//!
//! The driver is a polling state machine advanced between simulation
//! slices. Every phase transition is derived from *replicated* state (the
//! leader's active membership), never from "I sent a proposal": a proposal
//! enqueued against a leader that got deposed before its next wake is
//! silently dropped by the server host, and the rebalancer simply
//! re-issues it — conf changes through [`ConfChange`] are idempotent at
//! this granularity because the Raft layer rejects duplicates
//! (already-a-learner, change-in-flight) instead of double-applying them.

use crate::sim::ClusterSim;
use dynatune_kv::ShardId;
use dynatune_raft::{ConfChange, NodeId};

/// Maximum entries the learner may trail the leader's tail before the
/// rebalancer enters joint consensus. Well inside the Raft layer's
/// promotion slack (256), so a `Begin` issued right after this gate
/// passes is not rejected as `LearnerBehind`.
pub const CATCH_UP_SLACK: u64 = 64;

/// Phase of one replica move (see module docs for the sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalancePhase {
    /// Propose `AddLearner(spare)`.
    AddLearner,
    /// Learner replicating; waiting for the lag gate.
    CatchUp,
    /// Propose `Begin { add: [spare], remove: [retiring] }`.
    BeginJoint,
    /// Joint config appended; waiting for it to commit in both quorums.
    AwaitJoint,
    /// Propose `Finalize`.
    Finalize,
    /// Final config appended; waiting for it to commit.
    AwaitFinal,
    /// Flip the client's placement row for the shard.
    Repoint,
    /// The move is complete.
    Done,
}

/// Drives one replica move on a sharded KV cluster.
pub struct Rebalancer {
    shard: ShardId,
    /// World id of the joining spare.
    add: NodeId,
    /// World id of the retiring replica.
    remove: NodeId,
    /// Group-local ids of the same two hosts (what conf changes carry).
    add_local: NodeId,
    remove_local: NodeId,
    phase: RebalancePhase,
    /// Conf proposals issued, re-issues after leadership moves included.
    proposals: u64,
}

impl Rebalancer {
    /// Plan a move on `shard`: `add` joins (a spare's world id), `remove`
    /// retires (a mapped replica's world id). Both must belong to the
    /// shard's group.
    #[must_use]
    pub fn new(sim: &ClusterSim, shard: ShardId, add: NodeId, remove: NodeId) -> Self {
        let members = sim.members_of(shard);
        assert!(
            members.contains(&add) && members.contains(&remove),
            "rebalance endpoints must belong to shard {shard}"
        );
        let base = sim.map().group_base(shard);
        Self {
            shard,
            add,
            remove,
            add_local: add - base,
            remove_local: remove - base,
            phase: RebalancePhase::AddLearner,
            proposals: 0,
        }
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> RebalancePhase {
        self.phase
    }

    /// Whether the move has completed (final config committed, client
    /// repointed).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.phase == RebalancePhase::Done
    }

    /// Conf proposals issued so far (> 4 means leadership churn forced
    /// re-issues).
    #[must_use]
    pub fn proposals(&self) -> u64 {
        self.proposals
    }

    fn propose(&mut self, sim: &mut ClusterSim, change: ConfChange) -> bool {
        let sent = sim.propose_conf_change(self.shard, change);
        if sent {
            self.proposals += 1;
        }
        sent
    }

    /// Advance the move by at most one action. Call between simulation
    /// slices (`run_for`); with no live leader the step is a no-op and the
    /// next call retries.
    pub fn step(&mut self, sim: &mut ClusterSim) {
        let Some(leader) = sim.leader_of(self.shard) else {
            return;
        };
        // Owned: proposing below needs the cluster mutably.
        let membership = sim.server(leader).node().membership().clone();
        let add = self.add_local;
        let remove = self.remove_local;
        match self.phase {
            RebalancePhase::AddLearner => {
                let present = membership.is_learner(add) || membership.is_voter(add);
                if present || self.propose(sim, ConfChange::AddLearner(add)) {
                    self.phase = RebalancePhase::CatchUp;
                }
            }
            RebalancePhase::CatchUp => {
                if !membership.contains(add) {
                    // The AddLearner never landed (deposed leader dropped
                    // it): re-issue.
                    self.phase = RebalancePhase::AddLearner;
                    return;
                }
                let node = sim.server(leader).node();
                let matched = node.progress_of(add).map_or(0, |p| p.match_index);
                let caught_up = matched > 0 && matched + CATCH_UP_SLACK >= node.log().last_index();
                if caught_up {
                    self.phase = RebalancePhase::BeginJoint;
                }
            }
            RebalancePhase::BeginJoint => {
                if membership.is_joint() {
                    self.phase = RebalancePhase::AwaitJoint;
                } else if membership.is_voter(add) && !membership.contains(remove) {
                    self.phase = RebalancePhase::Repoint; // already through
                } else if self.propose(
                    sim,
                    ConfChange::Begin {
                        add: vec![add],
                        remove: vec![remove],
                    },
                ) {
                    self.phase = RebalancePhase::AwaitJoint;
                }
            }
            RebalancePhase::AwaitJoint => {
                if !membership.is_joint() {
                    // Dropped before append (back to Begin) or already
                    // finalized by a committed pipeline (rare but legal).
                    self.phase = if membership.is_voter(add) {
                        RebalancePhase::Repoint
                    } else {
                        RebalancePhase::BeginJoint
                    };
                    return;
                }
                let node = sim.server(leader).node();
                let committed = node.membership_index() <= node.commit_index();
                if committed {
                    self.phase = RebalancePhase::Finalize;
                }
            }
            RebalancePhase::Finalize => {
                if !membership.is_joint() {
                    self.phase = if membership.is_voter(add) {
                        RebalancePhase::AwaitFinal
                    } else {
                        RebalancePhase::BeginJoint
                    };
                } else if self.propose(sim, ConfChange::Finalize) {
                    self.phase = RebalancePhase::AwaitFinal;
                }
            }
            RebalancePhase::AwaitFinal => {
                if membership.is_joint() {
                    // Finalize was dropped: re-issue.
                    self.phase = RebalancePhase::Finalize;
                    return;
                }
                if !membership.is_voter(add) {
                    // Whole joint change rolled back under a new leader.
                    self.phase = RebalancePhase::BeginJoint;
                    return;
                }
                let node = sim.server(leader).node();
                let committed = node.membership_index() <= node.commit_index();
                if committed && !membership.contains(remove) {
                    self.phase = RebalancePhase::Repoint;
                }
            }
            RebalancePhase::Repoint => {
                if let Some(client) = sim.client_mut() {
                    client.repoint(self.shard, self.remove, self.add);
                }
                self.phase = RebalancePhase::Done;
            }
            RebalancePhase::Done => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::election_safety_violations;
    use crate::scenario::builder::ScenarioBuilder;
    use crate::sim::WorkloadSpec;
    use dynatune_core::TuningConfig;
    use dynatune_simnet::SimTime;
    use std::time::Duration;

    #[test]
    fn rebalancer_moves_a_replica_under_live_traffic() {
        let mut sim = ScenarioBuilder::cluster(3)
            .shards(2)
            .spare_for_shard(0)
            .tuning(TuningConfig::raft_default())
            .seed(11)
            .workload(
                WorkloadSpec::steady(400.0, Duration::from_secs(60))
                    .starting_at(Duration::from_secs(3)),
            )
            .build_sharded_sim();
        sim.run_until(SimTime::from_secs(8));
        let spare = sim.map().n_servers(); // first world id past the map
        let leader = sim.leader_of(0).expect("shard 0 leader");
        let retire = sim
            .map()
            .servers_of(0)
            .find(|&id| id != leader)
            .expect("a non-leader replica to retire");
        let mut rb = Rebalancer::new(&sim, 0, spare, retire);
        for _ in 0..300 {
            if rb.is_done() {
                break;
            }
            rb.step(&mut sim);
            sim.run_for(Duration::from_millis(200));
        }
        assert!(rb.is_done(), "rebalance stuck in {:?}", rb.phase());
        // Every live member of the group agrees on the final config.
        let base = sim.map().group_base(0);
        for id in [leader, spare] {
            let m = sim.server(id).node().membership();
            assert!(!m.is_joint(), "host {id} still joint");
            assert!(m.is_voter(spare - base), "host {id}: spare not a voter");
            assert!(
                !m.contains(retire - base),
                "host {id}: retiree still a member"
            );
        }
        // Traffic kept flowing through the move and still completes after.
        let completed =
            |sim: &ClusterSim| sim.client().expect("client attached").shard_stats()[0].completed;
        let before = completed(&sim);
        sim.run_for(Duration::from_secs(5));
        let after = completed(&sim);
        assert!(
            after > before + 300,
            "shard 0 serves after the move ({before} -> {after})"
        );
        // The untouched shard never noticed.
        assert_eq!(election_safety_violations(&sim.shard_events(1)), 0);
        assert_eq!(election_safety_violations(&sim.shard_events(0)), 0);
    }
}
