//! Learner catch-up battery: a spare node added as a learner behind an
//! arbitrary compaction point must converge on the leader's log via
//! `InstallSnapshot` plus ordinary appends — and must never be counted
//! toward any quorum until it is promoted through joint consensus.
//!
//! The quorum-exclusion half is checked *operationally*, not just
//! structurally: with both voting followers isolated, a leader plus a
//! fully caught-up learner must be unable to commit; after promotion the
//! same pair must commit. That is the difference between "replicated to"
//! and "counted", and it is exactly what a replica move upstack relies
//! on when it parks a learner next to a hot shard before the cut-over.

mod common;

use common::{Check, Fx, Harness, Hooks, Node};
use dynatune_core::TuningConfig;
use dynatune_raft::{ConfChange, NodeId, RaftConfig, RaftEvent, Role};
use proptest::prelude::*;

/// The spare that joins as a learner.
const LEARNER: NodeId = 3;

/// Nodes that installed a snapshot (learner catch-up proof).
#[derive(Default)]
struct SnapshotInstalls(Vec<NodeId>);

impl Hooks for SnapshotInstalls {
    fn on_effects(&mut self, _nodes: &[Node], from: NodeId, fx: &Fx) -> Check {
        for ev in &fx.events {
            if let RaftEvent::SnapshotInstalled { .. } = ev {
                self.0.push(from);
            }
        }
        Ok(())
    }
}

type LearnerHarness = Harness<SnapshotInstalls>;

fn harness(seed: u64) -> LearnerHarness {
    Harness::new(4, seed, |id| {
        RaftConfig::with_peers(id, vec![0, 1, 2], TuningConfig::dynatune())
    })
}

/// Run healed rounds (learner partitioned off so only voters decide)
/// until exactly one node leads at the cluster's max term. A node
/// that still *thinks* it leads a superseded term does not count —
/// proposing on a stale leader would silently roll back.
fn elect(h: &mut LearnerHarness) -> Result<NodeId, TestCaseError> {
    for _ in 0..200 {
        h.healed_round(&[LEARNER])?;
        let leading = h.nodes.iter().filter(|n| n.role() == Role::Leader).count();
        if let (1, Some(leader)) = (leading, h.leader()) {
            return Ok(leader);
        }
    }
    prop_assert!(false, "no stable leader after 200 healed rounds");
    unreachable!();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 1000,
        ..ProptestConfig::default()
    })]

    /// From behind an arbitrary compaction point, a learner converges
    /// via InstallSnapshot + appends; it is excluded from every quorum
    /// until promoted, and counted immediately afterwards.
    #[test]
    fn learner_converges_and_joins_quorum_only_after_promotion(
        seed in 0u64..1_000,
        n_entries in 4u64..48,
        compact_frac in 0u64..100,
    ) {
        let mut h = harness(seed);
        let leader = elect(&mut h)?;

        // Build history, fully replicate it among the three voters.
        for v in 0..n_entries {
            let (res, fx) = h.nodes[leader].propose(h.now, v);
            prop_assert!(res.is_ok());
            h.absorb(leader, fx)?;
            h.healed_round(&[LEARNER])?;
        }
        let last = h.nodes[leader].log().last_index();
        prop_assert!(h.nodes[leader].commit_index() >= last);

        // Compact the leader's log at an arbitrary applied point, so the
        // learner's catch-up needs an InstallSnapshot whenever the
        // boundary passed index 1.
        let boundary = 1 + (h.nodes[leader].last_applied() - 1) * compact_frac / 100;
        h.nodes[leader].compact_log(boundary);
        let compacted = h.nodes[leader].log().first_index() > 1;

        // Admit the spare as a learner and let replication run.
        let (res, fx) = h.nodes[leader]
            .propose_conf_change(h.now, ConfChange::AddLearner(LEARNER));
        prop_assert!(res.is_ok(), "AddLearner rejected: {:?}", res);
        h.absorb(leader, fx)?;
        for _ in 0..200 {
            if h.nodes[LEARNER].log().last_index() >= h.nodes[leader].log().last_index()
                && h.nodes[LEARNER].commit_index() >= h.nodes[leader].commit_index()
            {
                break;
            }
            h.healed_round(&[])?;
        }
        prop_assert_eq!(
            h.nodes[LEARNER].log().last_index(),
            h.nodes[leader].log().last_index(),
            "learner never converged on the leader's log"
        );
        if compacted {
            prop_assert!(
                h.hooks.0.contains(&LEARNER),
                "catch-up from behind compaction boundary {} must go through \
                 InstallSnapshot",
                boundary
            );
        }
        // Every node agrees the spare is a learner, nobody's voter set
        // grew, and the learner itself never campaigned.
        for node in &h.nodes {
            prop_assert!(node.membership().is_learner(LEARNER));
            prop_assert!(!node.membership().is_voter(LEARNER));
        }
        prop_assert_eq!(h.nodes[LEARNER].role(), Role::Follower);

        // Quorum exclusion, operationally: with both voting followers
        // hard-partitioned, leader + caught-up learner must NOT commit.
        // (Check-quorum may depose the leader during the blackout; that
        // only strengthens the claim — commit must not move either way.)
        let others: Vec<NodeId> = (0..3).filter(|v| *v != leader).collect();
        let commit_before = h.nodes[leader].commit_index();
        let (res, fx) = h.nodes[leader].propose(h.now, 7_777);
        prop_assert!(res.is_ok());
        h.absorb(leader, fx)?;
        for _ in 0..20 {
            h.healed_round(&others)?;
        }
        prop_assert_eq!(
            h.nodes.iter().map(Node::commit_index).max().unwrap_or(0),
            commit_before,
            "a learner ack advanced the commit index — learner was counted \
             in the voter quorum"
        );

        // Heal and re-establish a leader among the voters (check-quorum
        // may have deposed the old one during the blackout).
        let leader = elect(&mut h)?;

        // Promote through joint consensus — swap the learner in for a
        // non-leader voter — with the partition healed so both quorums
        // can answer.
        let victim = (0..3).find(|v| *v != leader).unwrap_or(0);
        let (res, fx) = h.nodes[leader].propose_conf_change(
            h.now,
            ConfChange::Begin { add: vec![LEARNER], remove: vec![victim] },
        );
        prop_assert!(res.is_ok(), "Begin rejected: {:?}", res);
        h.absorb(leader, fx)?;
        for _ in 0..50 {
            if h.nodes[leader].membership_index() <= h.nodes[leader].commit_index() {
                break;
            }
            h.healed_round(&[])?;
        }
        let (res, fx) = h.nodes[leader].propose_conf_change(h.now, ConfChange::Finalize);
        prop_assert!(res.is_ok(), "Finalize rejected: {:?}", res);
        h.absorb(leader, fx)?;
        for _ in 0..50 {
            if !h.nodes[leader].membership().is_joint()
                && h.nodes[leader].membership_index() <= h.nodes[leader].commit_index()
            {
                break;
            }
            h.healed_round(&[])?;
        }
        prop_assert!(!h.nodes[leader].membership().is_joint());
        prop_assert!(h.nodes[leader].membership().is_voter(LEARNER));

        // Same shape of partition as before — every old voter except the
        // leader goes dark — but now the promoted node's ack must
        // complete a quorum of the new voter set.
        let others: Vec<NodeId> = (0..3).filter(|v| *v != leader).collect();
        let commit_before = h.nodes[leader].commit_index();
        let (res, fx) = h.nodes[leader].propose(h.now, 8_888);
        prop_assert!(res.is_ok());
        h.absorb(leader, fx)?;
        for _ in 0..50 {
            if h.nodes[leader].commit_index() > commit_before {
                break;
            }
            h.healed_round(&others)?;
        }
        prop_assert!(
            h.nodes[leader].commit_index() > commit_before,
            "promoted learner's ack did not count toward the new quorum"
        );
    }
}
