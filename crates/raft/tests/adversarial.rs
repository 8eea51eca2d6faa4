//! Adversarial schedule testing: drive a cluster of `RaftNode`s directly
//! (no simulator) through proptest-generated message schedules — arbitrary
//! delays, reorderings, duplications, drops and timer firings — and check
//! Raft's safety invariants after every step.
//!
//! This exercises *more* hostile conditions than the simulator delivers
//! (the TCP-like channel is FIFO there; here even append traffic reorders),
//! which is exactly what the invariants must survive.

mod common;

use common::{Check, Harness};
use dynatune_core::TuningConfig;
use dynatune_raft::{RaftConfig, Role};
use proptest::prelude::*;

/// One adversarial step.
#[derive(Debug, Clone)]
enum Action {
    /// Deliver the k-th in-flight message (modulo pool size).
    Deliver(usize),
    /// Drop the k-th in-flight message.
    Drop(usize),
    /// Deliver the k-th message but keep a copy in flight (duplication).
    Duplicate(usize),
    /// Advance time to the chosen node's election deadline and tick it.
    FireTimer(usize),
    /// Advance time by a few milliseconds.
    Sleep(u64),
    /// Propose a command on the chosen node (no-op unless leader).
    Propose(usize, u64),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0usize..64).prop_map(Action::Deliver),
        1 => (0usize..64).prop_map(Action::Drop),
        1 => (0usize..64).prop_map(Action::Duplicate),
        2 => (0usize..8).prop_map(Action::FireTimer),
        2 => (1u64..50).prop_map(Action::Sleep),
        2 => ((0usize..8), (0u64..1000)).prop_map(|(n, v)| Action::Propose(n, v)),
    ]
}

fn harness(n: usize, seed: u64) -> Harness {
    Harness::new(n, seed, |id| {
        RaftConfig::new(id, n, TuningConfig::dynatune())
    })
}

fn check_invariants(h: &mut Harness) -> Check {
    h.check_terms_monotonic()?;
    // Leader completeness-lite: committed prefixes agree pairwise.
    h.check_log_matching()?;
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
    }
    check_invariants(h)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 2000,
        ..ProptestConfig::default()
    })]

    /// Safety holds under arbitrary delivery schedules on 3 nodes.
    #[test]
    fn safety_under_adversarial_schedules_3(
        seed in 0u64..1_000,
        actions in proptest::collection::vec(action_strategy(), 50..400),
    ) {
        let mut h = harness(3, seed);
        for a in &actions {
            apply(&mut h, a)?;
        }
    }

    /// Safety holds on 5 nodes with longer schedules.
    #[test]
    fn safety_under_adversarial_schedules_5(
        seed in 0u64..1_000,
        actions in proptest::collection::vec(action_strategy(), 50..300),
    ) {
        let mut h = harness(5, seed);
        for a in &actions {
            apply(&mut h, a)?;
        }
    }

    /// Liveness-lite: with a quiescent network that then delivers
    /// everything promptly, some node becomes leader.
    #[test]
    fn eventual_leadership_when_network_heals(seed in 0u64..1_000) {
        let mut h = harness(3, seed);
        // Fire timers and deliver every message for a while.
        for _round in 0..200u64 {
            h.fire_due_timers(&[])?;
            h.drain(&[])?;
            check_invariants(&mut h)?;
            if h.nodes.iter().any(|n| n.role() == Role::Leader) {
                return Ok(());
            }
        }
        prop_assert!(false, "no leader after 200 healed rounds");
    }
}
