//! Service-level tests of the log-free read path: linearizability of
//! lease/ReadIndex/follower reads through failovers and retries, and the
//! reply-cache invariant at the serving layer.
//!
//! The invariant under test (documented at `dynatune_kv::Store::read`):
//! read responses never enter the per-client reply cache, and the read
//! path never answers from it. The failover regression below is why both
//! directions matter — a client that loses a lease-read response to a
//! leader failure retries the *same* `req_id` at whatever server it finds
//! next, and must observe a current (not pre-failover) value.

use dynatune_repro::cluster::{
    stale_read_violations, ClusterSim, ReadCounters, ReadStrategy, ScenarioBuilder, ServerHost,
    WorkloadSpec,
};
use dynatune_repro::core::TuningConfig;
use dynatune_repro::kv::OpMix;
use dynatune_repro::simnet::SimTime;
use std::time::Duration;

fn read_write_workload(rps: f64, secs: u64) -> WorkloadSpec {
    let mut spec = WorkloadSpec::steady(rps, Duration::from_secs(secs))
        .starting_at(Duration::from_secs(3))
        .mix(OpMix {
            put: 0.3,
            delete: 0.0,
            cas: 0.0,
        })
        .recording()
        .timeout(Some(Duration::from_millis(600)));
    spec.key_space = 16;
    spec
}

fn sim_with(strategy: ReadStrategy, seed: u64, rps: f64, secs: u64) -> ClusterSim {
    ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::raft_default())
        .reads(strategy)
        .seed(seed)
        .workload(read_write_workload(rps, secs))
        .build_sim()
}

/// Regression: a lease-read whose response is lost to a leader failure is
/// retried (same `req_id`) against the surviving cluster and must return a
/// linearizable value — NOT a replay from the reply cache. Reads stay out
/// of the cache by design; if someone "optimized" retried reads into the
/// sessions map, the retry could replay a pre-failover value and this
/// trace check would light up.
#[test]
fn retried_lease_read_after_failover_is_linearizable() {
    let mut sim = sim_with(ReadStrategy::Lease, 0xBEEF, 500.0, 27);
    sim.run_until(SimTime::from_secs(10));
    let old_leader = sim.leader().expect("leader before the failure");
    let lease_reads = sim.server(old_leader).reads_served().lease;
    assert!(
        lease_reads > 0,
        "lease path must be serving before the kill"
    );
    // Container-sleep the leader: every outstanding read against it times
    // out client-side and retries the same req_id on the next server.
    sim.pause(old_leader);
    sim.run_for(Duration::from_secs(10));
    let new_leader = sim.leader().expect("failover leader");
    assert_ne!(new_leader, old_leader);
    sim.resume(old_leader);
    sim.run_until(SimTime::from_secs(34));
    let trace = sim.client().expect("client attached").trace();
    // Reads completed after the outage began — including the retried ones.
    let after_failure = trace
        .iter()
        .filter(|op| !op.write && op.completed > SimTime::from_secs(11))
        .count();
    assert!(after_failure > 100, "reads must flow after failover");
    assert_eq!(
        stale_read_violations(trace),
        0,
        "a retried read must observe post-failover state, never a cached value"
    );
    // And the cluster still converges (the read path mutated nothing).
    let digests: Vec<u64> = (0..3)
        .map(|id| sim.server(id).node().state_machine().digest())
        .collect();
    assert!(
        digests.iter().all(|&d| d == digests[0]),
        "replicas diverged"
    );
}

/// Follower reads spread over all replicas stay linearizable, and every
/// replica actually serves.
#[test]
fn fanned_out_follower_reads_are_linearizable() {
    let mut spec = read_write_workload(800.0, 15);
    spec.read_fanout = true;
    let mut sim = ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::raft_default())
        .reads(ReadStrategy::Lease)
        .seed(0xF00D)
        .workload(spec)
        .build_sim();
    sim.run_until(SimTime::from_secs(22));
    let counters: Vec<_> = (0..3).map(|id| sim.server(id).reads_served()).collect();
    let leader = sim.leader().expect("leader");
    for (id, c) in counters.iter().enumerate() {
        if id == leader {
            assert!(c.lease > 0, "leader serves its share via the lease: {c:?}");
        } else {
            assert!(c.follower > 0, "follower {id} must serve reads: {c:?}");
        }
        assert_eq!(
            c.log, 0,
            "no read may touch the log under the lease strategy"
        );
    }
    let trace = sim.client().expect("client attached").trace();
    assert_eq!(stale_read_violations(trace), 0);
}

/// A tuned cluster keeps the lease strategy yet serves its leader reads by
/// ReadIndex alone: the lease is cut to the 10 ms election floor, which
/// lapses before a heartbeat ack can return at the 100 ms default RTT. The
/// confirmation rounds ride on append traffic and stay linearizable.
#[test]
fn tuned_cluster_serves_reads_by_read_index_not_lease() {
    let mut sim = ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::dynatune())
        .reads(ReadStrategy::Lease)
        .seed(0xCAFE)
        .workload(read_write_workload(400.0, 12))
        .build_sim();
    sim.run_until(SimTime::from_secs(18));
    let reads = sim
        .servers()
        .map(ServerHost::reads_served)
        .fold(ReadCounters::default(), ReadCounters::merged);
    assert!(reads.read_index > 0, "ReadIndex path must serve: {reads:?}");
    assert_eq!(reads.lease, 0, "lease path must stay cold: {reads:?}");
    let trace = sim.client().expect("client attached").trace();
    assert!(trace.iter().filter(|op| !op.write).count() > 1000);
    assert_eq!(stale_read_violations(trace), 0);
}

/// The legacy log-replicated read path remains available as the ablation
/// baseline, and still answers linearizably.
#[test]
fn log_strategy_still_serves_reads_through_the_log() {
    let mut sim = sim_with(ReadStrategy::Log, 0xD00D, 300.0, 10);
    sim.run_until(SimTime::from_secs(16));
    let reads = sim
        .servers()
        .map(ServerHost::reads_served)
        .fold(ReadCounters::default(), ReadCounters::merged);
    assert!(reads.log > 0, "logged reads must be counted: {reads:?}");
    assert_eq!(reads.lease + reads.read_index + reads.follower, 0);
    let trace = sim.client().expect("client attached").trace();
    assert_eq!(stale_read_violations(trace), 0);
}
