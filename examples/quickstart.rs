//! Quickstart: measure how much faster Dynatune recovers from a leader
//! failure than statically-configured Raft.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds two identical 5-server clusters (RTT 100 ms) — one running etcd
//! defaults (Et = 1000 ms, h = 100 ms), one running Dynatune — pauses the
//! leader at t = 30 s, and reports detection and out-of-service times from
//! the event log.

use dynatune_repro::cluster::extract_failover;
use dynatune_repro::cluster::scenario::ScenarioBuilder;
use dynatune_repro::core::TuningConfig;
use dynatune_repro::simnet::SimTime;
use std::time::Duration;

fn failover_demo(name: &str, tuning: TuningConfig) -> (f64, f64) {
    let mut sim = ScenarioBuilder::cluster(5)
        .tuning(tuning)
        .seed(2024)
        .build_sim();
    let at = SimTime::from_secs(30);
    sim.run_until(at);
    let leader = sim.leader().expect("a leader by t = 30 s");
    let rtos: Vec<f64> = sim
        .randomized_timeouts()
        .iter()
        .enumerate()
        .filter(|&(id, _)| id != leader)
        .filter_map(|(_, rto)| rto.map(|d| d.as_secs_f64() * 1e3))
        .collect();
    sim.pause(leader);
    sim.run_until(at + Duration::from_secs(20));

    println!("[{name}] leader was server {leader}");
    println!(
        "[{name}]   mean randomizedTimeout across followers just before the pause: {:.0} ms",
        rtos.iter().sum::<f64>() / rtos.len() as f64
    );
    for id in 0..sim.n_servers() {
        if id == leader {
            continue;
        }
        let snap = sim.server(id).node().tuning_snapshot();
        println!(
            "[{name}]   server {id}: Et = {:>7.1} ms, h = {:>7.1} ms ({})",
            snap.election_timeout.as_secs_f64() * 1e3,
            snap.heartbeat_interval.as_secs_f64() * 1e3,
            if snap.warmed { "tuned" } else { "defaults" },
        );
    }

    let times = extract_failover(&sim.events(), at, leader);
    let detection = times.detection.expect("failure detected").as_secs_f64() * 1e3;
    let ots = times.ots.expect("new leader elected").as_secs_f64() * 1e3;
    println!(
        "[{name}] detection {detection:.0} ms  |  out-of-service {ots:.0} ms  |  new leader {}",
        times.new_leader.expect("new leader")
    );
    (detection, ots)
}

fn main() {
    println!("=== Dynatune quickstart: leader failover, stable network ===\n");
    let (raft_det, raft_ots) = failover_demo("raft", TuningConfig::raft_default());
    println!();
    let (dt_det, dt_ots) = failover_demo("dynatune", TuningConfig::dynatune());

    println!("\n=== summary ===");
    println!(
        "detection: {raft_det:.0} ms -> {dt_det:.0} ms  ({:.0}% faster)",
        (1.0 - dt_det / raft_det) * 100.0
    );
    println!(
        "out-of-service: {raft_ots:.0} ms -> {dt_ots:.0} ms  ({:.0}% shorter)",
        (1.0 - dt_ots / raft_ots) * 100.0
    );
    println!(
        "(paper reports 80% and 45% over 1000 trials; run `scenarios --only fig4`\n\
         or the fig4 binary for the full study)"
    );
}
