//! Watch Dynatune adapt live to a fluctuating WAN (the paper's §IV-C
//! scenarios compressed into one run): the RTT ramps 50→200 ms while the
//! loss rate spikes to 20 % in the middle, and the tuned election timeout
//! and heartbeat interval follow.
//!
//! ```text
//! cargo run --release --example fluctuating_wan
//! ```

use dynatune_repro::cluster::leaderless_intervals;
use dynatune_repro::cluster::scenario::{NetPlan, ScenarioBuilder};
use dynatune_repro::core::TuningConfig;
use dynatune_repro::simnet::{CongestionConfig, LinkSchedule, NetParams, SimTime};
use std::time::Duration;

fn main() {
    println!("=== Dynatune under RTT + loss fluctuation ===\n");
    // A 6-minute WAN story: calm, RTT climb, loss burst, recovery.
    let base = NetParams::clean(Duration::from_millis(50)).with_jitter(0.08);
    let schedule = LinkSchedule::piecewise(vec![
        (SimTime::ZERO, base),
        (
            SimTime::from_secs(60),
            base.with_rtt(Duration::from_millis(120)),
        ),
        (
            SimTime::from_secs(120),
            base.with_rtt(Duration::from_millis(200)),
        ),
        (
            SimTime::from_secs(180),
            base.with_rtt(Duration::from_millis(200)).with_loss(0.20),
        ),
        (
            SimTime::from_secs(240),
            base.with_rtt(Duration::from_millis(200)),
        ),
        (SimTime::from_secs(300), base),
    ]);
    // The network is data (a NetPlan over the schedule); the polling loop
    // below stays imperative because this example is about watching the
    // tuner live, sample by sample.
    let mut sim = ScenarioBuilder::cluster(5)
        .tuning(TuningConfig::dynatune())
        .net(NetPlan::uniform_schedule(schedule.clone()))
        .congestion(CongestionConfig::wan_default())
        .seed(31_337)
        .build_sim();

    println!(
        "{:>6} {:>9} {:>9} {:>10} {:>10} {:>9}  leader",
        "t (s)", "RTT (ms)", "loss", "Et (ms)", "h (ms)", "p est"
    );
    let horizon = SimTime::from_secs(360);
    let mut t = SimTime::ZERO;
    while t < horizon {
        t += Duration::from_secs(15);
        sim.run_until(t);
        let leader = sim.leader();
        // Report the tuning state of the first follower.
        let follower = (0..5).find(|&i| Some(i) != leader).expect("a follower");
        let snap = sim.server(follower).node().tuning_snapshot();
        // Every link follows the one schedule: read it back at `t`.
        let link = schedule.params_at(t);
        println!(
            "{:>6.0} {:>9.0} {:>8.0}% {:>10.1} {:>10.1} {:>8.2}%  {}",
            t.as_secs_f64(),
            link.rtt.as_secs_f64() * 1e3,
            link.loss * 100.0,
            snap.election_timeout.as_secs_f64() * 1e3,
            snap.heartbeat_interval.as_secs_f64() * 1e3,
            snap.loss_rate * 100.0,
            leader.map_or("-".to_string(), |l| format!("server {l}")),
        );
    }

    let gaps = leaderless_intervals(&sim.events(), horizon);
    let total: f64 = gaps.iter().fold(0.0, |acc, (a, b)| acc + (b - a));
    println!("\nout-of-service intervals: {gaps:?} (total {total:.1}s)");
    println!(
        "expected: Et tracks the RTT climb, h dives during the loss burst\n\
         (K = ceil(log_p(1-x)) more heartbeats per timeout), and the cluster\n\
         never loses its leader."
    );
}
