//! Pipelined-replication safety under adversarial schedules.
//!
//! The pipelining change lets a leader keep a window of unacked
//! `AppendEntries` in flight per follower, retire acks out of order, and
//! cancel only the invalidated suffix on a conflict. Every one of those
//! shortcuts is an opportunity to advance `match_index` past what a
//! follower actually stored — which would commit entries no quorum holds.
//! These tests drive full `RaftNode`s (every window width 1..=8) through
//! proptest schedules that interleave pipelined appends with elections,
//! conflicting logs, prefix compaction and crash-restarts, checking after
//! every step:
//!
//! * **log matching** — committed prefixes agree pairwise (term and data);
//! * **commit floor** — the largest `commit_index` anywhere never exceeds
//!   the quorum-th largest `last_index` across the members' *actual* logs,
//!   i.e. nothing is committed that a quorum does not physically hold.

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
    /// Advance time to the chosen node's next deadline and tick it —
    /// fires elections, group-commit flushes and pipeline resends alike.
    FireTimer(usize),
    /// Advance time by a few milliseconds, ticking every due node.
    Sleep(u64),
    /// Propose a command on the chosen node (no-op unless leader); bursts
    /// of these are what fill the pipeline window.
    Propose(usize, u64),
    /// Compact the chosen node's applied prefix into a snapshot.
    Compact(usize),
    /// Crash the chosen node and restart it from persistent state.
    CrashRestart(usize),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        5 => (0usize..64).prop_map(Action::Deliver),
        1 => (0usize..64).prop_map(Action::Drop),
        1 => (0usize..64).prop_map(Action::Duplicate),
        2 => (0usize..8).prop_map(Action::FireTimer),
        2 => (1u64..50).prop_map(Action::Sleep),
        3 => ((0usize..8), (0u64..1000)).prop_map(|(n, v)| Action::Propose(n, v)),
        1 => (0usize..8).prop_map(Action::Compact),
        1 => (0usize..8).prop_map(Action::CrashRestart),
    ]
}

fn harness(n: usize, seed: u64, window: usize) -> Harness {
    Harness::new(n, seed, |id| {
        let mut cfg = RaftConfig::new(id, n, TuningConfig::dynatune());
        cfg.pipeline_window = window;
        // Tiny append batches so pipelined traffic spans many
        // messages and reordering has something to chew on.
        cfg.max_entries_per_append = 2;
        cfg
    })
}

fn check_invariants(h: &Harness) -> Check {
    h.check_log_matching()?;
    h.check_commit_floor()
}

fn apply(h: &mut Harness, action: &Action) -> Check {
    match *action {
        Action::Deliver(k) => h.deliver(k)?,
        Action::Drop(k) => h.drop_flight(k),
        Action::Duplicate(k) => h.duplicate(k)?,
        Action::FireTimer(n) => h.fire_timer(n)?,
        Action::Sleep(ms) => h.sleep(ms)?,
        Action::Propose(n, v) => h.propose(n, v)?,
        Action::Compact(n) => h.compact(n),
        Action::CrashRestart(n) => h.crash_restart(n),
    }
    check_invariants(h)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 2000,
        ..ProptestConfig::default()
    })]

    /// Log matching and the commit floor hold on 3 nodes across every
    /// pipeline width, under schedules that mix reordered pipelined
    /// appends with elections, conflicts, compaction and crash-restarts.
    #[test]
    fn pipelined_safety_under_adversarial_schedules_3(
        seed in 0u64..1_000,
        window in 1usize..=8,
        actions in proptest::collection::vec(action_strategy(), 50..400),
    ) {
        let mut h = harness(3, seed, window);
        for a in &actions {
            apply(&mut h, a)?;
        }
    }

    /// The same on 5 nodes: deeper quorums, more concurrent pipelines.
    #[test]
    fn pipelined_safety_under_adversarial_schedules_5(
        seed in 0u64..1_000,
        window in 1usize..=8,
        actions in proptest::collection::vec(action_strategy(), 50..300),
    ) {
        let mut h = harness(5, seed, window);
        for a in &actions {
            apply(&mut h, a)?;
        }
    }

    /// Liveness-lite: after an arbitrary adversarial prefix, a healed
    /// network (deliver everything, fire due timers) re-elects a leader
    /// and drains a burst of proposals to commitment on every node — the
    /// pipeline never wedges in a state resends cannot recover.
    #[test]
    fn pipeline_recovers_once_the_network_heals(
        seed in 0u64..1_000,
        window in 1usize..=8,
        actions in proptest::collection::vec(action_strategy(), 30..120),
    ) {
        let mut h = harness(3, seed, window);
        for a in &actions {
            apply(&mut h, a)?;
        }
        // Heal: deliver everything and fire due timers until a leader
        // exists and has committed a fresh burst.
        let mut proposed = None;
        for _round in 0..400u64 {
            h.fire_due_timers(&[])?;
            h.drain(&[])?;
            check_invariants(&h)?;
            let leader = (0..h.nodes.len()).find(|&id| h.nodes[id].role() == Role::Leader);
            match (leader, proposed) {
                (Some(id), None) => {
                    // Burst past the window so draining needs real
                    // pipelining, not just the first append.
                    let mut last = 0;
                    for v in 0..12u64 {
                        let (res, fx) = h.nodes[id].propose(h.now, 9_000 + v);
                        let (_, index) = res.expect("leader accepts proposals");
                        last = index;
                        h.absorb(id, fx)?;
                    }
                    proposed = Some(last);
                }
                (Some(_), Some(target)) => {
                    if h.nodes.iter().all(|n| n.commit_index() >= target) {
                        return Ok(());
                    }
                }
                (None, _) => {}
            }
        }
        prop_assert!(false, "pipeline failed to drain after healing");
    }
}
