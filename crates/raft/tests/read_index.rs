//! Adversarial property test of the log-free read path: drive a cluster of
//! `RaftNode`s through proptest-generated schedules that interleave
//! ReadIndex/lease read requests with elections, term changes, log
//! compaction and crash-restarts, and check the linearizability floor of
//! every grant.
//!
//! The invariant: when a read is registered on a leader, every write that
//! was committed *anywhere in the cluster* by that instant has an index at
//! or below the read's eventual `read_index`. (Leaders only admit reads
//! once they have committed in their own term, so their commit index
//! dominates every predecessor's; the grant records it.) A grant below
//! that floor would let a linearizable read miss a committed write.
//!
//! Uses the untuned configuration: the leader lease is only sound while no
//! member's election timeout can undercut it, which static Raft
//! guarantees and tuned deployments restore by cutting the lease to the
//! tuning floor (see `RaftNode::lease_valid`).

mod common;

use common::{Check, Fx, Harness, Hooks, Node};
use dynatune_core::TuningConfig;
use dynatune_raft::{LogIndex, NodeId, RaftConfig, Role};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One adversarial step.
#[derive(Debug, Clone)]
enum Action {
    /// Deliver the k-th in-flight message (modulo pool size).
    Deliver(usize),
    /// Drop the k-th in-flight message.
    Drop(usize),
    /// Advance time to the chosen node's deadline and tick it.
    FireTimer(usize),
    /// Advance time by a few milliseconds, ticking due nodes.
    Sleep(u64),
    /// Propose a command on the chosen node (no-op unless leader).
    Propose(usize, u64),
    /// Register a log-free read on the chosen node.
    RequestRead(usize),
    /// Compact the chosen node's log up to its applied index.
    Compact(usize),
    /// Crash-restart the chosen node (volatile state lost).
    Restart(usize),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        5 => (0usize..64).prop_map(Action::Deliver),
        1 => (0usize..64).prop_map(Action::Drop),
        2 => (0usize..8).prop_map(Action::FireTimer),
        2 => (1u64..50).prop_map(Action::Sleep),
        2 => ((0usize..8), (0u64..1000)).prop_map(|(n, v)| Action::Propose(n, v)),
        3 => (0usize..8).prop_map(Action::RequestRead),
        1 => (0usize..8).prop_map(Action::Compact),
        1 => (0usize..8).prop_map(Action::Restart),
    ]
}

struct PendingRead {
    node: NodeId,
    /// Highest commit index observed anywhere at registration time.
    floor: LogIndex,
}

/// Every registered read, checked against its floor when it is granted.
#[derive(Default)]
struct ReadLedger {
    next_read_id: u64,
    pending: BTreeMap<u64, PendingRead>,
    granted: u64,
}

impl Hooks for ReadLedger {
    fn on_effects(&mut self, nodes: &[Node], from: NodeId, fx: &Fx) -> Check {
        for grant in &fx.reads {
            let Some(reg) = self.pending.remove(&grant.id) else {
                return Err(TestCaseError::fail(format!(
                    "grant for unknown read {}",
                    grant.id
                )));
            };
            prop_assert_eq!(reg.node, from, "grant surfaced on the wrong node");
            prop_assert!(
                grant.read_index >= reg.floor,
                "read {} granted at index {} below the committed floor {} at registration",
                grant.id,
                grant.read_index,
                reg.floor
            );
            // Apply-gated grants must be coverable from the local machine.
            prop_assert!(
                nodes[from].last_applied() >= grant.read_index
                    || nodes[from].commit_index() >= grant.read_index,
                "granted index beyond the granter's committed state"
            );
            self.granted += 1;
        }
        for id in &fx.aborted_reads {
            prop_assert!(
                self.pending.remove(id).is_some(),
                "abort for unknown read {}",
                id
            );
        }
        Ok(())
    }
}

type ReadHarness = Harness<ReadLedger>;

fn harness(n: usize, seed: u64) -> ReadHarness {
    Harness::new(n, seed, |id| {
        RaftConfig::new(id, n, TuningConfig::raft_default())
    })
}

/// Register a read on node `id` against the cluster-wide commit floor;
/// returns whether the node accepted it.
fn request_read(h: &mut ReadHarness, id: NodeId) -> Result<bool, TestCaseError> {
    h.hooks.next_read_id += 1;
    let read_id = h.hooks.next_read_id;
    let floor = h.nodes.iter().map(Node::commit_index).max().unwrap_or(0);
    let (res, fx) = h.nodes[id].request_read(h.now, read_id, true);
    if res.is_ok() {
        h.hooks
            .pending
            .insert(read_id, PendingRead { node: id, floor });
    }
    h.absorb(id, fx)?;
    Ok(res.is_ok())
}

fn apply(h: &mut ReadHarness, action: &Action) -> Check {
    match *action {
        Action::Deliver(k) => h.deliver(k)?,
        Action::Drop(k) => h.drop_flight(k),
        Action::FireTimer(n) => h.fire_timer(n)?,
        Action::Sleep(ms) => h.sleep(ms)?,
        Action::Propose(n, v) => h.propose(n, v)?,
        Action::RequestRead(n) => {
            let id = n % h.nodes.len();
            if !request_read(h, id)? {
                prop_assert_ne!(
                    h.nodes[id].role(),
                    Role::Leader,
                    "leaders must accept reads"
                );
            }
        }
        Action::Compact(n) => h.compact(n),
        Action::Restart(n) => {
            h.crash_restart(n);
            // Volatile read queues died with the process: the harness
            // forgets this node's registrations (clients would retry).
            let id = n % h.nodes.len();
            h.hooks.pending.retain(|_, reg| reg.node != id);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 2000,
        ..ProptestConfig::default()
    })]

    /// Grants never undercut the committed floor, through elections,
    /// compaction and restarts, on 3 nodes.
    #[test]
    fn read_grants_respect_commit_floor_3(
        seed in 0u64..1_000,
        actions in proptest::collection::vec(action_strategy(), 80..400),
    ) {
        let mut h = harness(3, seed);
        for a in &actions {
            apply(&mut h, a)?;
        }
    }

    /// Same on 5 nodes with longer schedules.
    #[test]
    fn read_grants_respect_commit_floor_5(
        seed in 0u64..1_000,
        actions in proptest::collection::vec(action_strategy(), 80..300),
    ) {
        let mut h = harness(5, seed);
        for a in &actions {
            apply(&mut h, a)?;
        }
    }

    /// Liveness-lite: a healed cluster that keeps delivering everything
    /// eventually grants reads (the confirmation path cannot deadlock).
    #[test]
    fn reads_eventually_granted_when_network_heals(seed in 0u64..500) {
        let mut h = harness(3, seed);
        let mut requested = false;
        for _ in 0..300u64 {
            h.fire_due_timers(&[])?;
            if let Some(leader) = h.nodes.iter().position(|n| n.role() == Role::Leader) {
                if !requested {
                    requested = request_read(&mut h, leader)?;
                }
            }
            h.drain(&[])?;
            if requested && h.hooks.granted > 0 {
                return Ok(());
            }
        }
        prop_assert!(false, "no read granted after 300 healed rounds");
    }
}
