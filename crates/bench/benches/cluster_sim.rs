//! Meso-benchmarks: how fast full cluster-seconds simulate, per system.
//! These are the budgets behind the `scenarios` runner's wall-clock times.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dynatune_cluster::scenario::catalog::failover::{run_single_trial, FailoverConfig};
use dynatune_cluster::{ClusterConfig, ClusterSim};
use dynatune_core::TuningConfig;
use dynatune_simnet::SimTime;
use std::hint::black_box;
use std::time::Duration;

fn bench_cluster_second(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    for (name, tuning) in [
        ("raft", TuningConfig::raft_default()),
        ("dynatune", TuningConfig::dynatune()),
    ] {
        g.bench_function(format!("10s_5servers_{name}"), |b| {
            b.iter_batched(
                || {
                    ClusterSim::new(&ClusterConfig::stable(
                        5,
                        tuning,
                        Duration::from_millis(100),
                        7,
                    ))
                },
                |mut sim| {
                    sim.run_until(SimTime::from_secs(10));
                    black_box(sim.leader())
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.bench_function("10s_17servers_dynatune", |b| {
        b.iter_batched(
            || {
                ClusterSim::new(&ClusterConfig::stable(
                    17,
                    TuningConfig::dynatune(),
                    Duration::from_millis(100),
                    7,
                ))
            },
            |mut sim| {
                sim.run_until(SimTime::from_secs(10));
                black_box(sim.leader())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_failover_trial(c: &mut Criterion) {
    let mut g = c.benchmark_group("failover_trial");
    g.sample_size(10);
    for (name, tuning) in [
        ("raft", TuningConfig::raft_default()),
        ("dynatune", TuningConfig::dynatune()),
    ] {
        g.bench_function(name, |b| {
            let cluster = ClusterConfig::stable(5, tuning, Duration::from_millis(100), 99);
            let mut cfg = FailoverConfig::new(cluster, 1);
            cfg.warmup = Duration::from_secs(20);
            cfg.observe = Duration::from_secs(10);
            let mut trial = 0usize;
            b.iter(|| {
                trial += 1;
                black_box(run_single_trial(&cfg, trial))
            });
        });
    }
    g.finish();
}

/// Write-heavy cluster-seconds with the replication pipeline at both
/// extremes: window 1 (the retired ping-pong) floods the event queue with
/// resend-paced round trips, window 8 with back-to-back sends — the two
/// shapes bound what the `pipeline_depth` scenario costs to simulate.
fn bench_pipelined_writes(c: &mut Criterion) {
    use dynatune_cluster::scenario::{NetPlan, ScenarioBuilder};
    use dynatune_cluster::WorkloadSpec;
    use dynatune_kv::OpMix;
    let mut g = c.benchmark_group("pipelined_writes");
    g.sample_size(10);
    for window in [1usize, 8] {
        g.bench_function(format!("8s_3servers_window{window}"), |b| {
            b.iter_batched(
                || {
                    ScenarioBuilder::cluster(3)
                        .tuning(TuningConfig::raft_default())
                        .net(NetPlan::stable(Duration::from_millis(50)))
                        .pipeline_window(window)
                        .max_entries_per_append(64)
                        .seed(7)
                        .workload(
                            WorkloadSpec::steady(2_000.0, Duration::from_secs(4))
                                .starting_at(Duration::from_secs(3))
                                .mix(OpMix::write_heavy())
                                .timeout(None),
                        )
                        .build_sim()
                },
                |mut sim| {
                    sim.run_until(SimTime::from_secs(8));
                    black_box(sim.leader())
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_scenario_driver(c: &mut Criterion) {
    use dynatune_cluster::scenario::{
        FaultPlan, Horizon, PartitionSpec, ScenarioBuilder, ScenarioDriver,
    };
    let mut g = c.benchmark_group("scenario_driver");
    g.sample_size(10);
    // A churn cycle through the declarative driver: the cost of plan
    // resolution + trace recording on top of the raw simulation.
    g.bench_function("partition_churn_cycle", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let config = ScenarioBuilder::cluster(5)
                .tuning(TuningConfig::dynatune())
                .seed(seed)
                .build();
            let plan = FaultPlan::new().flapping_partition(
                Duration::from_secs(20),
                PartitionSpec::LeaderPlusFollowers(1),
                Duration::from_secs(5),
                Duration::from_secs(5),
                2,
            );
            let run = ScenarioDriver::new(config)
                .plan(plan)
                .horizon(Horizon::AfterLastFault(Duration::from_secs(5)))
                .run();
            black_box(run.trace.len())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cluster_second,
    bench_failover_trial,
    bench_pipelined_writes,
    bench_scenario_driver
);
criterion_main!(benches);
