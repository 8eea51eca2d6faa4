//! Snapshot transfer and unpinned compaction, end to end.
//!
//! The pre-fix bug chain these tests pin down: followers compact to
//! `last_applied`; a compacted follower that wins an election starts every
//! peer at `match_index = 0`; conflict backoff pushes a lagging peer's
//! `next_index` below `first_index()`; and `send_append` silently returned
//! — no message, no retry timer — leaving replication to that peer
//! permanently stalled while the leader's log (pinned by the stalled
//! peer's match index) grew without bound.

use dynatune_repro::cluster::scenario::ScenarioBuilder;
use dynatune_repro::cluster::{ClusterSim, ServerHost, WorkloadSpec};
use dynatune_repro::core::TuningConfig;
use dynatune_repro::raft::RaftEvent;
use dynatune_repro::simnet::SimTime;
use std::time::Duration;

/// Threshold/tail small enough that a few simulated seconds of writes
/// cross the compaction horizon.
const THRESHOLD: usize = 800;
const TAIL: u64 = 100;

fn cluster(seed: u64, hold_secs: u64) -> ClusterSim {
    ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::raft_default())
        .compaction(THRESHOLD, TAIL)
        .seed(seed)
        .workload(
            WorkloadSpec::steady(900.0, Duration::from_secs(hold_secs))
                .starting_at(Duration::from_secs(5)),
        )
        .build_sim()
}

fn digests(sim: &ClusterSim) -> Vec<u64> {
    sim.servers()
        .map(|s| s.node().state_machine().digest())
        .collect()
}

/// The headline regression: a follower restarted past the compaction
/// horizon converges via `InstallSnapshot`, and the leader's live log
/// stays bounded by `threshold + tail` throughout the outage.
#[test]
fn follower_restarted_past_horizon_catches_up_via_snapshot() {
    let mut sim = cluster(11, 30);
    sim.run_until(SimTime::from_secs(10));
    let leader = sim.leader().expect("initial leader");
    let follower = (0..3).find(|&id| id != leader).unwrap();

    sim.pause(follower);
    // ~13.5k entries committed during the outage — many compactions deep.
    let mut max_log = 0;
    while sim.now() < SimTime::from_secs(25) {
        sim.run_for(Duration::from_millis(250));
        let longest = sim.servers().map(ServerHost::log_len).max().unwrap_or(0);
        max_log = max_log.max(longest);
    }
    let first_index = sim.server(sim.leader().unwrap()).node().log().first_index();
    let follower_last = sim.server(follower).node().log().last_index();
    assert!(
        first_index > follower_last,
        "outage must cross the horizon: first {first_index} <= follower {follower_last}"
    );
    assert!(
        max_log <= THRESHOLD + TAIL as usize,
        "leader log must stay bounded during the outage, saw {max_log}"
    );

    // Restart (volatile state lost) and rejoin.
    sim.crash_restart(follower);
    sim.resume(follower);
    while sim.now() < SimTime::from_secs(45) {
        sim.run_for(Duration::from_millis(250));
        let longest = sim.servers().map(ServerHost::log_len).max().unwrap_or(0);
        max_log = max_log.max(longest);
    }

    assert!(
        sim.servers().map(ServerHost::snapshots_sent).sum::<u64>() >= 1,
        "catch-up must go through InstallSnapshot"
    );
    let installed = sim
        .events()
        .iter()
        .any(|&(_, id, ev)| id == follower && matches!(ev, RaftEvent::SnapshotInstalled { .. }));
    assert!(installed, "the restarted follower must install a snapshot");
    let ds = digests(&sim);
    assert!(
        ds.iter().all(|&d| d == ds[0]),
        "replicas must converge after snapshot catch-up: {ds:?}"
    );
    let applied = sim.server(follower).node().last_applied();
    let commit = sim.server(sim.leader().unwrap()).node().commit_index();
    assert!(
        commit - applied < 100,
        "follower still {} entries behind",
        commit - applied
    );
    assert!(
        max_log <= THRESHOLD + TAIL as usize,
        "log bound must hold through recovery too, saw {max_log}"
    );
}

/// The election leg of the bug chain: after the *leader* is taken down,
/// a follower whose log is compacted wins the election and must catch the
/// lagging peer up from `match_index = 0` — which lands below its
/// `first_index` and pre-fix hit the silent early-return.
#[test]
fn compacted_follower_winning_election_recovers_lagging_peer() {
    let mut sim = cluster(12, 40);
    sim.run_until(SimTime::from_secs(10));
    let leader = sim.leader().expect("initial leader");
    let lagging = (0..3).find(|&id| id != leader).unwrap();

    // The lagging peer sleeps through the compaction horizon.
    sim.pause(lagging);
    sim.run_until(SimTime::from_secs(25));
    // Take the old leader down: the remaining (compacted) follower must be
    // elected, with every peer's progress starting at match_index = 0.
    sim.pause(leader);
    sim.crash_restart(lagging);
    sim.resume(lagging);
    sim.run_until(SimTime::from_secs(40));

    let new_leader = sim.leader().expect("compacted follower takes over");
    assert_ne!(new_leader, leader);
    assert_ne!(new_leader, lagging, "a stale log must not win the election");
    let sent = sim.server(new_leader).snapshots_sent();
    assert!(
        sent >= 1,
        "the new leader must stream a snapshot to the lagging peer"
    );
    // The old leader rejoins as follower; everyone converges.
    sim.resume(leader);
    sim.run_until(SimTime::from_secs(55));
    let ds = digests(&sim);
    assert!(
        ds.iter().all(|&d| d == ds[0]),
        "replicas must converge after the failover: {ds:?}"
    );
}

/// Crash-recovery of a server whose own log is compacted: the prefix is
/// gone, so replay from index 1 is impossible. The applied store survives
/// the crash, and the server resumes at exactly the index it had applied.
#[test]
fn crash_restart_of_compacted_server_keeps_its_applied_state() {
    let mut sim = cluster(13, 25);
    // Run everyone past the compaction threshold.
    sim.run_until(SimTime::from_secs(15));
    let leader = sim.leader().expect("leader");
    let victim = (0..3).find(|&id| id != leader).unwrap();
    let first_index = sim.server(victim).node().log().first_index();
    assert!(
        first_index > 1,
        "victim must have compacted (first {first_index})"
    );
    let applied_before = sim.server(victim).node().last_applied();

    sim.crash_restart(victim);
    let applied = sim.server(victim).node().last_applied();
    assert_eq!(
        applied, applied_before,
        "restart must resume at the applied index, not index 0"
    );
    sim.run_until(SimTime::from_secs(40));

    let ds = digests(&sim);
    assert!(
        ds.iter().all(|&d| d == ds[0]),
        "restarted replica must converge: {ds:?}"
    );
}

/// Determinism: the snapshot path (transfer timing included) is fully
/// seeded — equal seeds produce identical traces and counters.
#[test]
fn snapshot_recovery_is_deterministic() {
    let run = |seed| {
        let mut sim = cluster(seed, 25);
        sim.run_until(SimTime::from_secs(10));
        let leader = sim.leader().expect("leader");
        let follower = (0..3).find(|&id| id != leader).unwrap();
        sim.pause(follower);
        sim.run_until(SimTime::from_secs(22));
        sim.crash_restart(follower);
        sim.resume(follower);
        sim.run_until(SimTime::from_secs(38));
        (
            sim.servers().map(ServerHost::snapshots_sent).sum::<u64>(),
            sim.net_counters(),
            sim.events().len(),
            digests(&sim),
        )
    };
    assert_eq!(run(77), run(77));
}
