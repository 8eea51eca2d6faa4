//! Service-level consistency: the replicated KV store must converge across
//! replicas and respect its semantics even through failovers, client
//! retries (which can duplicate proposals) and network loss.

use dynatune_repro::cluster::{ClusterSim, NetPlan, ScenarioBuilder, WorkloadSpec};
use dynatune_repro::core::TuningConfig;
use dynatune_repro::kv::{OpMix, RateStep};
use dynatune_repro::simnet::{NetParams, SimTime};
use std::time::Duration;

/// `n` Dynatune servers on the stable mesh at `rtt_ms`.
fn dynatune(n: usize, rtt_ms: u64, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::cluster(n)
        .tuning(TuningConfig::dynatune())
        .net(NetPlan::stable(Duration::from_millis(rtt_ms)))
        .seed(seed)
}

fn workload(rps: f64, secs: u64) -> WorkloadSpec {
    WorkloadSpec {
        steps: vec![RateStep {
            rps,
            hold: Duration::from_secs(secs),
        }],
        mix: OpMix::write_heavy(),
        key_space: 5_000,
        zipf_theta: 0.99,
        value_size: 64,
        start_offset: Duration::from_secs(5),
        request_timeout: Some(Duration::from_millis(500)),
        read_fanout: false,
        record_trace: false,
    }
}

/// Let the cluster go quiescent, then compare all live replicas' state
/// machines. Every replica that reached the same applied index must hold
/// byte-identical state (SMR contract).
fn assert_replicas_converged(sim: &ClusterSim) {
    let states: Vec<(u64, u64)> = sim
        .servers()
        .map(|s| (s.node().last_applied(), s.node().state_machine().digest()))
        .collect();
    let max_applied = states.iter().map(|&(a, _)| a).max().unwrap();
    let caught_up: Vec<&(u64, u64)> = states.iter().filter(|(a, _)| *a == max_applied).collect();
    assert!(
        caught_up.len() >= 2,
        "at least a quorum should be caught up: {states:?}"
    );
    let reference = caught_up[0].1;
    for (applied, digest) in &states {
        if *applied == max_applied {
            assert_eq!(*digest, reference, "replicas at applied={applied} diverged");
        }
    }
}

#[test]
fn replicas_converge_under_clean_load() {
    let mut sim = dynatune(3, 20, 11)
        .workload(workload(500.0, 20))
        .build_sim();
    sim.run_until(SimTime::from_secs(35)); // drain
    let steps = sim.client().unwrap().steps();
    assert!(
        steps[0].completed > 8_000,
        "completed {}",
        steps[0].completed
    );
    assert_replicas_converged(&sim);
    // Every replica actually holds data.
    for id in 0..3 {
        let keys = sim.server(id).node().state_machine().len();
        assert!(keys > 100, "replica {id} holds {keys} keys");
    }
}

#[test]
fn replicas_converge_through_failover_and_retries() {
    let mut sim = dynatune(5, 50, 22)
        .workload(workload(800.0, 40))
        .build_sim();
    // Fail the leader mid-workload (twice), resuming each after a while.
    sim.run_until(SimTime::from_secs(15));
    let l1 = sim.leader().expect("leader 1");
    sim.pause(l1);
    sim.run_for(Duration::from_secs(8));
    sim.resume(l1);
    sim.run_until(SimTime::from_secs(32));
    let l2 = sim.leader().expect("leader 2");
    sim.pause(l2);
    sim.run_for(Duration::from_secs(8));
    sim.resume(l2);
    // Let everything settle and replicate out.
    sim.run_until(SimTime::from_secs(70));
    assert_replicas_converged(&sim);
    let steps = sim.client().unwrap().steps();
    // The overwhelming majority of requests completed despite two outages.
    let total = steps[0].sent;
    let done = steps[0].completed;
    assert!(
        done as f64 > total as f64 * 0.80,
        "completed {done} of {total}"
    );
}

#[test]
fn replicas_converge_under_loss() {
    let lossy = NetParams::clean(Duration::from_millis(40))
        .with_jitter(0.2)
        .with_loss(0.05);
    let mut sim = dynatune(3, 40, 33)
        .net(NetPlan::uniform(lossy))
        .workload(workload(300.0, 20))
        .build_sim();
    sim.run_until(SimTime::from_secs(40));
    assert_replicas_converged(&sim);
}

#[test]
fn crash_recovery_keeps_the_applied_state() {
    let mut sim = dynatune(3, 20, 44)
        .workload(workload(400.0, 15))
        .build_sim();
    sim.run_until(SimTime::from_secs(10));
    // Crash a follower: it keeps its log and its applied store, as a
    // disk-based state machine would, and loses only volatile state.
    let leader = sim.leader().expect("leader");
    let victim = (0..3).find(|&i| i != leader).unwrap();
    let applied_state = |sim: &ClusterSim| {
        let node = sim.server(victim).node();
        (node.last_applied(), node.state_machine().digest())
    };
    let before = applied_state(&sim);
    assert!(before.0 > 0);
    sim.crash_restart(victim);
    assert_eq!(
        applied_state(&sim),
        before,
        "the crash keeps the applied state"
    );
    assert_eq!(sim.server(victim).node().commit_index(), before.0);
    // It applies on from there as the leader commits.
    sim.run_until(SimTime::from_secs(30));
    let applied_after = sim.server(victim).node().last_applied();
    assert!(
        applied_after > before.0,
        "the restarted replica must keep applying: {} -> {applied_after}",
        before.0
    );
    sim.run_until(SimTime::from_secs(40));
    assert_replicas_converged(&sim);
}
