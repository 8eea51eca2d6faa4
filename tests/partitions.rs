//! Network-partition behaviour: check-quorum step-down, minority stall,
//! majority progress, clean healing, a crash landing mid-election and
//! flapping churn — for both static Raft and Dynatune. Partitions are the
//! classic hazard for aggressive election timeouts, so Dynatune must
//! behave exactly like Raft here.

use dynatune_repro::cluster::{ClusterSim, NetPlan, ScenarioBuilder};
use dynatune_repro::core::TuningConfig;
use dynatune_repro::raft::{RaftEvent, Role};
use dynatune_repro::simnet::SimTime;
use std::time::Duration;

fn cluster(tuning: TuningConfig, seed: u64) -> ClusterSim {
    ScenarioBuilder::cluster(5)
        .tuning(tuning)
        .net(NetPlan::stable(Duration::from_millis(50)))
        .seed(seed)
        .build_sim()
}

fn assert_one_leader_per_term(sim: &ClusterSim) {
    use std::collections::BTreeMap;
    let mut by_term: BTreeMap<u64, usize> = BTreeMap::new();
    for (t, node, ev) in sim.events() {
        if let RaftEvent::BecameLeader { term } = ev {
            if let Some(&prev) = by_term.get(&term) {
                assert_eq!(prev, node, "two leaders in term {term} at {t}");
            }
            by_term.insert(term, node);
        }
    }
}

#[test]
fn isolated_leader_steps_down_and_majority_moves_on() {
    for tuning in [TuningConfig::raft_default(), TuningConfig::dynatune()] {
        let mut sim = cluster(tuning, 51);
        sim.run_until(SimTime::from_secs(30));
        let old_leader = sim.leader().expect("leader");
        // Cut the leader (plus one follower) away from the majority.
        let buddy = (0..5).find(|&i| i != old_leader).unwrap();
        sim.partition(&[old_leader, buddy]);
        sim.run_for(Duration::from_secs(20));
        // The majority side elected a replacement...
        let new_leader = sim.leader().expect("majority elects a leader");
        assert_ne!(new_leader, old_leader);
        assert_ne!(new_leader, buddy);
        // ...and the isolated leader stepped down via check-quorum (it
        // cannot hear a majority), so clients are not stuck on a zombie.
        let old_role = sim.server(old_leader).node().role();
        assert_ne!(
            old_role,
            Role::Leader,
            "isolated leader must step down (check-quorum)"
        );
        assert_one_leader_per_term(&sim);
    }
}

#[test]
fn minority_partition_never_elects() {
    let mut sim = cluster(TuningConfig::dynatune(), 52);
    sim.run_until(SimTime::from_secs(30));
    let leader = sim.leader().expect("leader");
    // Two followers get cut off: they must keep (pre-)campaigning fruitlessly.
    let minority: Vec<usize> = (0..5).filter(|&i| i != leader).take(2).collect();
    sim.partition(&minority);
    sim.run_for(Duration::from_secs(30));
    for &id in &minority {
        let role = sim.server(id).node().role();
        assert_ne!(role, Role::Leader, "minority node {id} became leader");
    }
    // The majority side kept its leader the whole time (pre-vote means the
    // minority's campaigns never even bump terms on the majority).
    assert_eq!(
        sim.leader(),
        Some(leader),
        "majority leadership undisturbed"
    );
    assert_one_leader_per_term(&sim);
}

#[test]
fn healing_reunifies_without_split_brain() {
    let mut sim = cluster(TuningConfig::dynatune(), 53);
    sim.run_until(SimTime::from_secs(30));
    let old_leader = sim.leader().expect("leader");
    let buddy = (0..5).find(|&i| i != old_leader).unwrap();
    sim.partition(&[old_leader, buddy]);
    sim.run_for(Duration::from_secs(20));
    let new_leader = sim.leader().expect("majority leader");
    sim.heal_partition();
    sim.run_for(Duration::from_secs(20));
    // Everyone converges on one leader; the old one is a follower.
    let final_leader = sim.leader().expect("leader after heal");
    for id in 0..5 {
        let believed = sim.server(id).node().leader_id();
        assert_eq!(believed, Some(final_leader), "server {id} agrees");
    }
    assert_eq!(final_leader, new_leader, "healed minority must not disrupt");
    assert_one_leader_per_term(&sim);
    // Pre-vote: the rejoining minority's campaigns never bumped the
    // majority's term after healing (no disruptive re-election).
    let minority_campaigns_after_heal = sim
        .events()
        .iter()
        .filter(|(t, node, ev)| {
            *t > SimTime::from_secs(50)
                && (*node == old_leader || *node == buddy)
                && matches!(ev, RaftEvent::ElectionStarted { .. })
        })
        .count();
    assert_eq!(
        minority_campaigns_after_heal, 0,
        "healed nodes should rejoin as followers, not campaign"
    );
}

#[test]
fn partition_counters_record_drops() {
    let mut sim = cluster(TuningConfig::raft_default(), 54);
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.net_counters().dropped_partitioned, 0);
    let leader = sim.leader().expect("leader");
    sim.partition(&[leader]);
    sim.run_for(Duration::from_secs(5));
    assert!(
        sim.net_counters().dropped_partitioned > 0,
        "cross-partition traffic must be dropped"
    );
}

#[test]
fn crash_during_election_is_safe_and_recovers() {
    for tuning in [TuningConfig::raft_default(), TuningConfig::dynatune()] {
        let mut sim = ScenarioBuilder::cluster(5)
            .tuning(tuning)
            .seed(0xB2)
            .build_sim();
        sim.run_until(SimTime::from_secs(20));
        let old_leader = sim.leader().expect("leader at t=20s");
        let buddy = (0..5).find(|&id| id != old_leader).unwrap();
        // Raft-default detection takes ~1.2-1.7s after the pause, with the
        // election right behind; Dynatune detects within ~200ms. Crashing a
        // follower 1.5s after the pause lands inside or right around the
        // election window.
        sim.pause(old_leader);
        sim.run_until(SimTime::from_millis(21_500));
        sim.crash_restart(buddy);
        sim.run_until(SimTime::from_millis(46_500));

        // Despite losing the leader and then a second node mid-election,
        // the remaining majority (3 of 5) elects; the crashed node rejoins
        // as a follower of the new leader.
        let new_leader = sim.leader().expect("leader re-emerges after crash");
        assert_ne!(new_leader, old_leader);
        let buddy_role = sim.server(buddy).node().role();
        assert_ne!(buddy_role, Role::Leader, "crashed node rejoined, demoted");
        assert_one_leader_per_term(&sim);
    }
}

#[test]
fn flapping_partition_churn_is_safe_throughout() {
    let mut sim = ScenarioBuilder::cluster(5)
        .tuning(TuningConfig::dynatune())
        .seed(0xC3)
        .build_sim();
    // Cut the current leader plus one follower away at 25/50/75/100 s,
    // healing 10 s after each cut.
    let mut cuts = 0;
    for cut in [25, 50, 75, 100] {
        sim.run_until(SimTime::from_secs(cut));
        if let Some(leader) = sim.leader() {
            let buddy = (0..5).find(|&id| id != leader).unwrap();
            sim.partition(&[leader, buddy]);
            cuts += 1;
        }
        sim.run_until(SimTime::from_secs(cut + 10));
        sim.heal_partition();
    }
    sim.run_until(SimTime::from_secs(130));
    assert!(cuts >= 3, "churn cuts found a leader to isolate: {cuts}/4");
    assert_one_leader_per_term(&sim);
    assert!(sim.leader().is_some(), "cluster ends led");
}
