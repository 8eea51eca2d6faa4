//! Membership-churn safety battery: drive a cluster through
//! proptest-generated schedules that interleave configuration changes
//! (add/remove learner, joint-consensus begin/finalize) with crashes,
//! message drops, duplications and reorderings, and check after every
//! step that Raft's safety invariants survive reconfiguration:
//!
//! * at most one leader per term, across **both** quorums of a joint
//!   configuration (a stale `C_old` majority must never elect a second
//!   leader for a term the `C_new` majority already decided);
//! * no committed entry is ever lost or rewritten across a
//!   reconfiguration boundary — once `(index, term, data)` commits
//!   anywhere, every node whose commit index covers it agrees;
//! * a self-acknowledged learner never campaigns (it can lag behind the
//!   configuration that promoted it, but it must never act on a vote
//!   timer while it still believes itself a learner).
//!
//! Proposals here are *blind*: the generator fires conf changes at
//! arbitrary nodes and ignores rejections (`NotLeader`, `InFlight`,
//! validation errors), exactly like an external operator retrying
//! against a moving cluster. Safety must hold regardless of which
//! proposals happen to land.

mod common;

use common::{Check, Harness};
use dynatune_core::TuningConfig;
use dynatune_raft::{ConfChange, NodeId, RaftConfig, Role};
use proptest::prelude::*;

/// Genesis voter set; the remaining harness nodes start as outsiders
/// (spares) and only join through `AddLearner` + joint consensus.
const GENESIS_VOTERS: usize = 3;

/// One adversarial step. Compared to the plain adversarial battery this
/// adds configuration-change proposals and crash-restarts.
#[derive(Debug, Clone)]
enum Action {
    /// Deliver the k-th in-flight message (modulo pool size).
    Deliver(usize),
    /// Drop the k-th in-flight message.
    Drop(usize),
    /// Deliver the k-th message but keep a copy in flight.
    Duplicate(usize),
    /// Advance time to the chosen node's deadline and tick it.
    FireTimer(usize),
    /// Advance time by a few milliseconds.
    Sleep(u64),
    /// Propose a command on the chosen node (no-op unless leader).
    Propose(usize, u64),
    /// Propose a configuration change; even selectors route to the
    /// current leader (so churn actually happens), odd ones to an
    /// arbitrary node (so stale/non-leader rejections stay exercised).
    /// `shape` picks the change against the target's membership view.
    ProposeConf(usize, u8, usize),
    /// Crash the chosen node and restart it immediately (persistent
    /// state survives, volatile state resets).
    CrashRestart(usize),
    /// Fire every due timer, then deliver everything in flight — a burst
    /// of calm that lets in-progress reconfigurations commit before the
    /// next round of chaos.
    HealRound,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        5 => (0usize..64).prop_map(Action::Deliver),
        1 => (0usize..64).prop_map(Action::Drop),
        1 => (0usize..64).prop_map(Action::Duplicate),
        2 => (0usize..8).prop_map(Action::FireTimer),
        2 => (1u64..50).prop_map(Action::Sleep),
        2 => ((0usize..8), (0u64..1000)).prop_map(|(n, v)| Action::Propose(n, v)),
        4 => ((0usize..8), (0u8..5), (0usize..8))
            .prop_map(|(n, s, t)| Action::ProposeConf(n, s, t)),
        1 => (0usize..8).prop_map(Action::CrashRestart),
        2 => Just(Action::HealRound),
    ]
}

fn harness(n: usize, seed: u64) -> Harness {
    let voters: Vec<NodeId> = (0..GENESIS_VOTERS).collect();
    // Every node — voter or spare — shares the same genesis voter set;
    // spares are outsiders until a conf change admits them.
    Harness::new(n, seed, |id| {
        RaftConfig::with_peers(id, voters.clone(), TuningConfig::dynatune())
    })
}

/// Pick a configuration change relative to `node`'s current
/// membership view. Most shapes are valid against that view (so real
/// churn happens); stale views produce rejections, which is the
/// operator-retry reality the battery wants to exercise.
fn conf_for(h: &Harness, node: usize, shape: u8, target: usize) -> ConfChange {
    let m = h.nodes[node].membership();
    let target = target % h.nodes.len();
    match shape {
        0 => ConfChange::AddLearner(target),
        1 => ConfChange::RemoveLearner(target),
        2 => {
            // Promote every caught-up learner in one joint step.
            let add: Vec<NodeId> = m.learners.iter().copied().collect();
            ConfChange::Begin {
                add,
                remove: Vec::new(),
            }
        }
        3 => {
            // Swap: promote learners, demote one voter (never the
            // whole voter set — `apply` rejects empty results).
            let add: Vec<NodeId> = m.learners.iter().copied().collect();
            let remove: Vec<NodeId> = m.voters.iter().copied().filter(|v| *v == target).collect();
            ConfChange::Begin { add, remove }
        }
        _ => ConfChange::Finalize,
    }
}

fn check_invariants(h: &mut Harness) -> Check {
    h.check_terms_monotonic()?;
    for (id, node) in h.nodes.iter().enumerate() {
        // A node that believes itself a learner (or an outsider)
        // must never campaign. Leading is legal in exactly one
        // window (Raft §6): a leader removed by a still-uncommitted
        // configuration keeps leading until that entry commits.
        if !node.membership().is_voter(id) {
            match node.role() {
                Role::Follower => {}
                Role::Leader => prop_assert!(
                    node.membership_index() > node.commit_index(),
                    "removed leader {} survived its own removal committing",
                    id
                ),
                r => prop_assert!(false, "non-voter {} holds role {:?}", id, r),
            }
        }
    }
    h.check_commit_ledger()?;
    h.check_single_leader_at_max_term()
}

fn apply(h: &mut Harness, action: &Action) -> Check {
    match *action {
        Action::Deliver(k) => h.deliver(k)?,
        Action::Drop(k) => h.drop_flight(k),
        Action::Duplicate(k) => h.duplicate(k)?,
        Action::FireTimer(n) => h.fire_timer(n)?,
        Action::Sleep(ms) => h.sleep(ms)?,
        Action::Propose(n, v) => h.propose(n, v)?,
        Action::ProposeConf(n, shape, target) => {
            let id = if n % 2 == 0 {
                h.leader().unwrap_or(n % h.nodes.len())
            } else {
                n % h.nodes.len()
            };
            let change = conf_for(h, id, shape, target);
            let (_, fx) = h.nodes[id].propose_conf_change(h.now, change);
            h.absorb(id, fx)?;
        }
        Action::CrashRestart(n) => h.crash_restart(n),
        Action::HealRound => h.healed_round(&[])?,
    }
    check_invariants(h)
}

/// Deterministic boot: heal until a leader exists, so the schedule
/// starts from a live cluster instead of hoping chaos elects one.
fn boot(h: &mut Harness) -> Check {
    for _ in 0..200 {
        if h.leader().is_some() {
            return Ok(());
        }
        h.healed_round(&[])?;
    }
    prop_assert!(false, "no leader after 200 boot rounds");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 2000,
        ..ProptestConfig::default()
    })]

    /// Safety holds on 3 genesis voters + 2 spares under arbitrary
    /// interleavings of conf changes, crashes and message chaos.
    #[test]
    fn churn_safety_3_plus_2_spares(
        seed in 0u64..1_000,
        actions in proptest::collection::vec(action_strategy(), 50..350),
    ) {
        let mut h = harness(5, seed);
        boot(&mut h)?;
        for a in &actions {
            apply(&mut h, a)?;
        }
    }

    /// Same battery with a larger spare pool (3 voters + 4 spares) so
    /// joint configurations routinely double the voter set.
    #[test]
    fn churn_safety_3_plus_4_spares(
        seed in 0u64..1_000,
        actions in proptest::collection::vec(action_strategy(), 50..250),
    ) {
        let mut h = harness(7, seed);
        boot(&mut h)?;
        for a in &actions {
            apply(&mut h, a)?;
        }
    }
}
