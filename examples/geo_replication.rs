//! Geo-replicated SMR (the paper's Fig. 2 / Fig. 8 scenario): five servers
//! spread over Tokyo, London, California, Sydney and São Paulo.
//!
//! ```text
//! cargo run --release --example geo_replication
//! ```
//!
//! Shows the core value proposition of per-path tuning: each leader→follower
//! pair gets its own election timeout and heartbeat interval matched to
//! that path's RTT, instead of one global worst-case constant.

use dynatune_repro::cluster::extract_failover;
use dynatune_repro::cluster::scenario::{NetPlan, ScenarioBuilder};
use dynatune_repro::core::TuningConfig;
use dynatune_repro::simnet::{geo_rtt, Region, SimTime};
use std::time::Duration;

fn main() {
    println!("=== Dynatune on a geo-replicated cluster ===\n");
    let regions = Region::ALL;
    // NetPlan::geo() resolves to the five-region preset mesh and brings
    // WAN congestion bursts with it by default.
    let mut sim = ScenarioBuilder::cluster(5)
        .tuning(TuningConfig::dynatune())
        .net(NetPlan::geo())
        .seed(7_777)
        .build_sim();

    sim.run_until(SimTime::from_secs(60));
    let leader = sim.leader().expect("leader after 60s");
    println!("leader: server {leader} ({})\n", regions[leader].name());

    println!("per-path tuned parameters (follower side):");
    println!(
        "{:<13} {:>10} {:>12} {:>12} {:>10}",
        "follower", "RTT (ms)", "Et (ms)", "h (ms)", "loss est"
    );
    for id in 0..5 {
        if id == leader {
            continue;
        }
        let snap = sim.server(id).node().tuning_snapshot();
        let rtt = geo_rtt(regions[leader], regions[id]);
        println!(
            "{:<13} {:>10.0} {:>12.1} {:>12.1} {:>9.3}%",
            regions[id].name(),
            rtt.as_secs_f64() * 1e3,
            snap.election_timeout.as_secs_f64() * 1e3,
            snap.heartbeat_interval.as_secs_f64() * 1e3,
            snap.loss_rate * 100.0,
        );
    }
    println!(
        "\nnote: with static Raft every follower would wait the same Et = 1000 ms;\n\
         Dynatune lets the Tokyo–California path (RTT ~110 ms) detect a failure\n\
         several times faster than a worst-case global constant allows.\n"
    );

    // Fail the leader and watch the WAN failover.
    let t_fail = sim.now();
    sim.pause(leader);
    sim.run_for(Duration::from_secs(30));
    let times = extract_failover(&sim.events(), t_fail, leader);
    match (times.detection, times.ots, times.new_leader) {
        (Some(det), Some(ots), Some(new_leader)) => {
            println!(
                "leader ({}) paused: detected in {:.0} ms by {}, new leader {} ({}) after {:.0} ms",
                regions[leader].name(),
                det.as_secs_f64() * 1e3,
                times
                    .detector
                    .map_or("?".to_string(), |d| regions[d].name().to_string()),
                new_leader,
                regions[new_leader].name(),
                ots.as_secs_f64() * 1e3,
            );
        }
        _ => println!("failover did not complete within the window"),
    }
    println!("(paper Fig. 8: detection 1137 -> 213 ms, OTS 1718 -> 1145 ms vs static Raft)");
}
