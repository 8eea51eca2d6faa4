//! Full-stack determinism: a seed fully determines a simulation, across
//! every layer (network sampling, Raft timers, tuning, workload, failures).
//! This is what makes the paper's 1000-trial studies reproducible and lets
//! trials fan out across threads with no shared state.

use dynatune_repro::cluster::scenario::catalog::failover::{run_single_trial, FailoverConfig};
use dynatune_repro::cluster::{ClusterSim, NetPlan, ScenarioBuilder, WorkloadSpec};
use dynatune_repro::core::TuningConfig;
use dynatune_repro::simnet::SimTime;
use std::time::Duration;

/// Five servers of `tuning` on the stable mesh at `rtt_ms`.
fn stable(tuning: TuningConfig, rtt_ms: u64, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::cluster(5)
        .tuning(tuning)
        .net(NetPlan::stable(Duration::from_millis(rtt_ms)))
        .seed(seed)
}

fn fingerprint(sim: &ClusterSim) -> (Option<usize>, usize, u64, Vec<u64>) {
    let events = sim.events();
    let digests: Vec<u64> = sim
        .servers()
        .map(|s| s.node().state_machine().digest())
        .collect();
    (sim.leader(), events.len(), sim.net_counters().sent, digests)
}

#[test]
fn identical_seeds_identical_universes() {
    let run = |seed: u64| {
        let mut sim = stable(TuningConfig::dynatune(), 80, seed)
            .workload(WorkloadSpec::steady(300.0, Duration::from_secs(15)))
            .build_sim();
        sim.run_until(SimTime::from_secs(25));
        fingerprint(&sim)
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6), "different seeds must diverge");
}

#[test]
fn identical_seeds_identical_failovers() {
    let cfg = FailoverConfig::new(stable(TuningConfig::dynatune(), 100, 777), 1);
    let a = run_single_trial(&cfg, 3);
    let b = run_single_trial(&cfg, 3);
    assert_eq!(a, b);
    let c = run_single_trial(&cfg, 4);
    assert_ne!(
        a, c,
        "different trial indices must draw different universes"
    );
}

#[test]
fn event_streams_are_bit_identical() {
    let run = |seed: u64| {
        let mut sim = stable(TuningConfig::raft_low(), 50, seed).build_sim();
        sim.run_until(SimTime::from_secs(20));
        let leader = sim.leader();
        if let Some(l) = leader {
            sim.pause(l);
        }
        sim.run_until(SimTime::from_secs(40));
        sim.events()
            .iter()
            .map(|(t, n, e)| format!("{} {} {:?}", t.as_nanos(), n, e))
            .collect::<Vec<String>>()
    };
    assert_eq!(run(31), run(31));
}

#[test]
fn parallel_and_serial_trials_agree() {
    // The rayon-parallel study must produce exactly the per-trial outcomes
    // of serial execution (no cross-trial state).
    use dynatune_repro::cluster::scenario::catalog::failover::run_trials;
    let mut cfg = FailoverConfig::new(stable(TuningConfig::dynatune(), 100, 2025), 6);
    cfg.warmup = Duration::from_secs(15);
    cfg.observe = Duration::from_secs(15);
    let parallel = run_trials(&cfg);
    let serial: Vec<_> = (0..6).filter_map(|t| run_single_trial(&cfg, t)).collect();
    assert_eq!(parallel.outcomes.len(), serial.len());
    for (p, s) in parallel.outcomes.iter().zip(serial.iter()) {
        assert_eq!(p, s);
    }
}
