//! Drive the replicated key-value store with an open-loop client workload
//! and ride through a leader failure — the paper's service-level view,
//! with the failure window described as a declarative `FaultPlan`.
//!
//! ```text
//! cargo run --release --example kv_workload
//! ```

use dynatune_repro::cluster::scenario::{
    FaultAction, FaultEvent, FaultPlan, Horizon, ScenarioBuilder, ScenarioDriver,
};
use dynatune_repro::cluster::WorkloadSpec;
use dynatune_repro::core::TuningConfig;
use dynatune_repro::kv::{OpMix, RateStep};
use std::time::Duration;

fn run(name: &str, tuning: TuningConfig) {
    // 2000 req/s for 60 s; the leader gets paused at t = 30 s and resumed
    // 10 s later (it rejoins as a follower and catches up).
    let spec = WorkloadSpec {
        steps: vec![RateStep {
            rps: 2000.0,
            hold: Duration::from_secs(60),
        }],
        mix: OpMix::write_heavy(),
        key_space: 50_000,
        zipf_theta: 0.99,
        value_size: 128,
        start_offset: Duration::from_secs(5),
        request_timeout: Some(Duration::from_millis(500)),
        read_fanout: false,
        record_trace: false,
    };
    let config = ScenarioBuilder::cluster(5)
        .tuning(tuning)
        .net(dynatune_repro::cluster::NetPlan::stable(
            Duration::from_millis(50),
        ))
        .workload(spec)
        .seed(90_210)
        .build();
    let plan = FaultPlan::new()
        .pause_leader(Duration::from_secs(30), Duration::ZERO)
        .event(FaultEvent::at(
            Duration::from_secs(40),
            FaultAction::ResumeAll,
        ));
    let run = ScenarioDriver::new(config)
        .plan(plan)
        .horizon(Horizon::At(Duration::from_secs(70)))
        .run();
    let fault = run.first_fault().expect("the pause fired on a live leader");
    println!(
        "[{name}] paused leader {} at t={:.0}s",
        fault.targets[0],
        fault.at.as_secs_f64()
    );

    let sim = &run.sim;
    let steps = sim.client_steps().expect("client attached");
    let s = &steps[0];
    println!(
        "[{name}] sent {:>6}  completed {:>6}  failed {:>4}  mean latency {:>6.1} ms  p-throughput {:>6.0} req/s",
        s.sent,
        s.completed,
        s.failed,
        s.latency_ms.mean(),
        s.throughput(),
    );
    let counters = sim.net_counters();
    println!(
        "[{name}] network: {} msgs sent, {} delivered, {} lost, {} buffered-dropped",
        counters.sent, counters.delivered, counters.dropped_loss, counters.dropped_paused
    );
}

fn main() {
    println!("=== KV service under load with a mid-run leader failure ===");
    println!("(leader paused at t=30s for 10s; failed requests are ones the");
    println!(" failover window swallowed — fewer is better)\n");
    run("raft", TuningConfig::raft_default());
    run("dynatune", TuningConfig::dynatune());
    println!("\nDynatune's faster failover shrinks the outage window the client sees.");
}
