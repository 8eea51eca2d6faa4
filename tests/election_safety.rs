//! Cross-crate safety properties: Raft's core guarantees must hold under
//! every tuning mode, network condition, and failure schedule this
//! reproduction exercises. These are the invariants that make the
//! performance comparison meaningful — a tuner that broke safety could
//! "win" any latency benchmark.

use dynatune_repro::cluster::{ClusterSim, NetPlan, ScenarioBuilder};
use dynatune_repro::core::TuningConfig;
use dynatune_repro::raft::{NodeId, RaftEvent, Term};
use dynatune_repro::simnet::{CongestionConfig, NetParams, SimTime};
use std::collections::HashMap; // lint: allow(D002) — entry-only map (see below); kept as the live waiver example
use std::time::Duration;

/// Election Safety (Raft §5.2): at most one leader per term.
fn assert_election_safety(events: &[(SimTime, NodeId, RaftEvent)]) {
    // lint: allow(D002) — insert + point-lookup only, never iterated: the
    // assertion fires per event in trace order, so hash order cannot reach
    // any observable result.
    let mut leaders_by_term: HashMap<Term, NodeId> = HashMap::new();
    for &(t, node, ev) in events {
        if let RaftEvent::BecameLeader { term } = ev {
            if let Some(&prev) = leaders_by_term.get(&term) {
                assert_eq!(
                    prev, node,
                    "two leaders for term {term} at {t}: {prev} and {node}"
                );
            }
            leaders_by_term.insert(term, node);
        }
    }
}

/// Log Matching over the committed prefix: all servers agree on the term of
/// every index both have applied.
fn assert_committed_prefix_matches(sim: &ClusterSim) {
    let n = sim.n_servers();
    let applied: Vec<u64> = sim.servers().map(|s| s.node().last_applied()).collect();
    let common = applied.iter().copied().min().unwrap_or(0);
    if common == 0 {
        return;
    }
    let terms = |id| -> Vec<Option<u64>> {
        let log = sim.server(id).node().log();
        (1..=common).map(|i| log.term_at(i)).collect()
    };
    let reference = terms(0);
    for id in 1..n {
        let other = terms(id);
        for (i, (a, b)) in reference.iter().zip(other.iter()).enumerate() {
            // Compacted entries (None) can't be compared; both being
            // present and different is the violation.
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a, b, "server 0 vs {id} disagree on term of index {}", i + 1);
            }
        }
    }
}

/// Five servers of `tuning` on the stable mesh at `rtt_ms`.
fn stable(tuning: TuningConfig, rtt_ms: u64, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::cluster(5)
        .tuning(tuning)
        .net(NetPlan::stable(Duration::from_millis(rtt_ms)))
        .seed(seed)
}

fn run_scenario(cluster: ScenarioBuilder, horizon: Duration) -> ClusterSim {
    let mut sim = cluster.build_sim();
    sim.run_until(SimTime::ZERO + horizon);
    sim
}

#[test]
fn safety_across_modes_and_seeds() {
    for tuning in [
        TuningConfig::raft_default(),
        TuningConfig::raft_low(),
        TuningConfig::dynatune(),
        TuningConfig::fix_k(10),
    ] {
        for seed in 0..4u64 {
            let sim = run_scenario(stable(tuning, 50, seed), Duration::from_secs(60));
            assert_election_safety(&sim.events());
            assert_committed_prefix_matches(&sim);
        }
    }
}

#[test]
fn safety_under_repeated_leader_failures() {
    for tuning in [TuningConfig::raft_default(), TuningConfig::dynatune()] {
        let mut sim = stable(tuning, 100, 1234).build_sim();
        let mut failed: Vec<usize> = Vec::new();
        // Kill four leaders in sequence (pausing each, never resuming):
        // with 5 servers the last failure leaves 1 node, which must never
        // become leader (no quorum).
        for round in 0..4 {
            sim.run_for(Duration::from_secs(30));
            if let Some(leader) = sim.leader() {
                sim.pause(leader);
                failed.push(leader);
            }
            let _ = round;
        }
        sim.run_for(Duration::from_secs(30));
        let events = sim.events();
        assert_election_safety(&events);
        assert_committed_prefix_matches(&sim);
        // With only 2 live servers (of 5) remaining after 3 pauses, no new
        // leader can have been elected after the third pause.
        if failed.len() >= 3 {
            assert!(
                sim.leader().is_none() || failed.len() < 3,
                "a minority elected a leader"
            );
        }
    }
}

#[test]
fn safety_under_lossy_jittery_network() {
    // 20% loss + heavy jitter + congestion bursts: elections will churn,
    // but never two leaders in one term and never diverging logs.
    for seed in [7u64, 77, 777] {
        let hostile = NetParams::clean(Duration::from_millis(80))
            .with_jitter(0.5)
            .with_loss(0.2)
            .with_dup(0.02);
        let cluster = stable(TuningConfig::dynatune(), 80, seed)
            .net(NetPlan::uniform(hostile))
            .congestion(CongestionConfig {
                mean_interval: Some(Duration::from_secs(5)),
                duration: (Duration::from_millis(200), Duration::from_millis(800)),
                scale: 2.0,
            });
        let sim = run_scenario(cluster, Duration::from_secs(120));
        assert_election_safety(&sim.events());
        assert_committed_prefix_matches(&sim);
    }
}

#[test]
fn quorum_loss_stops_progress_and_recovery_restores_it() {
    let mut sim = stable(TuningConfig::dynatune(), 50, 99).build_sim();
    sim.run_until(SimTime::from_secs(20));
    // Pause three servers: quorum gone.
    let leader = sim.leader().expect("leader");
    let mut paused = vec![leader];
    for id in 0..5 {
        if paused.len() < 3 && id != leader {
            paused.push(id);
        }
    }
    for &id in &paused {
        sim.pause(id);
    }
    sim.run_for(Duration::from_secs(30));
    assert_eq!(sim.leader(), None, "no quorum, no leader");
    // Resume one paused server: quorum of 3 restored, leadership returns.
    sim.resume(paused[2]);
    sim.run_for(Duration::from_secs(30));
    assert!(
        sim.leader().is_some(),
        "quorum restored but no leader elected"
    );
    assert_election_safety(&sim.events());
}

#[test]
fn paused_leader_rejoins_without_disruption() {
    let mut sim = stable(TuningConfig::dynatune(), 100, 4242).build_sim();
    sim.run_until(SimTime::from_secs(30));
    let old_leader = sim.leader().expect("leader");
    sim.pause(old_leader);
    sim.run_for(Duration::from_secs(15));
    let new_leader = sim.leader().expect("failover leader");
    let term_before_rejoin = sim.server(new_leader).node().term();
    // Old leader wakes up with a stale term; it must step down quietly, not
    // depose the new leader.
    sim.resume(old_leader);
    sim.run_for(Duration::from_secs(20));
    assert_eq!(sim.leader(), Some(new_leader), "rejoin must not disrupt");
    let term_after = sim.server(new_leader).node().term();
    assert_eq!(term_before_rejoin, term_after, "no spurious term bump");
    assert_election_safety(&sim.events());
    assert_committed_prefix_matches(&sim);
}
