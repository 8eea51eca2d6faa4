//! Read-path scenarios: the lease/ReadIndex serving story.
//!
//! Before the log-free read path, every `Get` was committed through the
//! Raft log like a write (`KvCommand::Get` as a log entry), so read-heavy
//! traffic paid full quorum-append cost and churned the leader's
//! log/compaction machinery on operations that mutate nothing. These
//! scenarios pin the replacement's two claims on every CI push:
//!
//! * [`READ_HEAVY_THROUGHPUT`] — at a 95/5 read/write mix the lease path
//!   must commit ≥2× the ops of the log-read baseline, with the live log
//!   staying flat under read load (reads no longer append);
//! * [`FOLLOWER_READ_OFFLOAD`] — spreading reads over followers drops leader
//!   CPU while a client-side trace checker proves no read went stale;
//! * [`LEASE_SAFETY_PARTITION`] — the adversarial case: isolate a leader
//!   from its peers mid-lease while clients still reach it; the
//!   drift-margined lease must expire before the new leader's first
//!   commit, so the trace shows zero stale reads even though the
//!   ex-leader kept serving into the cut.

use super::wired;
use crate::observers::stale_read_violations;
use crate::scenario::{Report, RunCtx, Scenario, ScenarioBuilder};
use crate::server::{ReadCounters, ReadStrategy, ServerHost};
use crate::sim::WorkloadSpec;
use dynatune_core::TuningConfig;
use dynatune_kv::OpMix;
use dynatune_raft::NodeId;
use dynatune_simnet::SimTime;
use rayon::prelude::*;
use std::time::Duration;

/// 95/5 read/write serving mix shared by the read scenarios.
fn read_mostly_workload(rps: f64, hold: Duration) -> WorkloadSpec {
    WorkloadSpec::steady(rps, hold)
        .starting_at(Duration::from_secs(3))
        .mix(OpMix::read_mostly())
}

// ------------------------------------------------------------------
// read_heavy_throughput
// ------------------------------------------------------------------

/// Offered load: far beyond the log-read baseline's ~7k ops/s capacity on
/// 2 cores (≈290µs/op through the log), comfortably inside the lease
/// path's ≈28k ops/s (≈70µs mixed cost), so the ≥2× ratio measures
/// capacity, not the offered rate.
const THROUGHPUT_RPS: f64 = 20_000.0;

/// One system's measurements at the fixed offered load.
#[derive(Debug, Clone, PartialEq)]
struct ThroughputRun {
    completed: u64,
    hold_secs: f64,
    max_log_len: usize,
    reads: ReadCounters,
}

fn throughput_run(seed: u64, strategy: ReadStrategy, hold: Duration) -> ThroughputRun {
    let mut sim = ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::raft_default())
        .reads(strategy)
        .cores(2)
        .seed(seed)
        // No response timeout: the saturated baseline must not add retry
        // storms on top of its backlog — committed throughput is the metric.
        .workload(read_mostly_workload(THROUGHPUT_RPS, hold).timeout(None))
        .build_sim();
    let end = SimTime::ZERO + Duration::from_secs(3) + hold + Duration::from_secs(2);
    sim.run_until(end);
    let steps = wired(sim.client(), "the builder attached a workload client").steps();
    ThroughputRun {
        completed: steps.iter().map(|s| s.completed).sum(),
        hold_secs: hold.as_secs_f64(),
        max_log_len: sim.servers().map(ServerHost::log_len).max().unwrap_or(0),
        reads: sim
            .servers()
            .map(ServerHost::reads_served)
            .fold(ReadCounters::default(), ReadCounters::merged),
    }
}

/// 95/5 read/write at saturating load: log-read baseline vs the lease
/// path, asserting ≥2× committed-op throughput and a flat log under read
/// load.
pub const READ_HEAVY_THROUGHPUT: Scenario = Scenario {
    name: "read_heavy_throughput",
    describe: "95/5 read/write at saturating load: lease reads vs the log-read baseline",
    headline_metric: "committed-op throughput ratio, lease path over log-read baseline (>= 2x)",
    ci_assertion:
        "asserts >= 2x committed throughput and a >= 4x smaller live log under the lease path",
    run: read_heavy_throughput,
};

fn read_heavy_throughput(ctx: &RunCtx) -> Report {
    let hold = Duration::from_secs(ctx.scale(8, 3) as u64);
    let systems = [("log", ReadStrategy::Log), ("lease", ReadStrategy::Lease)];
    let runs: Vec<ThroughputRun> = systems
        .into_par_iter()
        .map(|(label, strategy)| throughput_run(ctx.system_seed(label), strategy, hold))
        .collect();
    let (log, lease) = (&runs[0], &runs[1]);

    let mut report = Report::new(READ_HEAVY_THROUGHPUT.name);
    report.table(
        &format!("95/5 read/write at {THROUGHPUT_RPS:.0} req/s offered, 3 servers x 2 cores"),
        [
            "system",
            "committed",
            "throughput (op/s)",
            "max log_len",
            "reads lease/readindex/follower/log",
        ],
        runs.iter()
            .zip(systems.iter())
            .map(|(r, (label, _))| {
                vec![
                    (*label).to_string(),
                    format!("{}", r.completed),
                    format!("{:.0}", r.completed as f64 / r.hold_secs),
                    format!("{}", r.max_log_len),
                    format!(
                        "{}/{}/{}/{}",
                        r.reads.lease, r.reads.read_index, r.reads.follower, r.reads.log
                    ),
                ]
            })
            .collect(),
    );
    let ratio = lease.completed as f64 / log.completed.max(1) as f64;
    report.headline(
        "committed-op throughput (lease / log)",
        ">= 2x",
        &format!("{ratio:.2}x"),
    );
    report.headline(
        "max_log_len under read load (lease vs log)",
        "flat (writes only)",
        &format!("{} vs {}", lease.max_log_len, log.max_log_len),
    );
    // The read-path mix counters CI tracks across PRs (BENCH json).
    let total = lease.reads.merged(log.reads);
    report.headline("reads_served_leaseread", "-", &format!("{}", total.lease));
    report.headline(
        "reads_served_readindex",
        "-",
        &format!("{}", total.read_index + total.follower),
    );
    report.headline("reads_served_log", "-", &format!("{}", total.log));
    report.note(
        "the baseline replicates every Get through the log (quorum-append cost,\n\
         log growth); the lease path serves the same reads for one ordered-map\n\
         lookup while heartbeat acks keep the lease fresh.",
    );
    assert!(
        ratio >= 2.0,
        "lease read path must at least double committed throughput, got {ratio:.2}x \
         ({} vs {})",
        lease.completed,
        log.completed
    );
    assert!(
        lease.max_log_len * 4 <= log.max_log_len,
        "read load must stay out of the log: lease {} vs log {}",
        lease.max_log_len,
        log.max_log_len
    );
    assert!(lease.reads.lease > 0, "lease run never used the lease path");
    assert!(log.reads.log > 0, "log run never counted a logged read");
    report
}

// ------------------------------------------------------------------
// follower_read_offload
// ------------------------------------------------------------------

/// One offload run's measurements.
#[derive(Debug, Clone, PartialEq)]
struct OffloadRun {
    leader_cpu_pct: f64,
    reads_per_server: Vec<ReadCounters>,
    violations: usize,
    completed: u64,
}

fn offload_run(seed: u64, fanout: bool, hold: Duration) -> OffloadRun {
    let rps = 4_000.0;
    let mut workload = read_mostly_workload(rps, hold).recording();
    workload.read_fanout = fanout;
    let mut sim = ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::raft_default())
        .reads(ReadStrategy::Lease)
        .seed(seed)
        .workload(workload)
        .build_sim();
    let end = SimTime::ZERO + Duration::from_secs(3) + hold + Duration::from_secs(2);
    sim.run_until(end);
    let leader = wired(sim.leader(), "a fault-free lease run keeps its leader");
    let leader_cpu_pct = sim.server(leader).cpu().mean_utilization(
        SimTime::from_secs(4),
        SimTime::ZERO + Duration::from_secs(3) + hold,
    );
    let client = wired(sim.client(), "the builder attached a workload client");
    OffloadRun {
        leader_cpu_pct,
        reads_per_server: sim.servers().map(ServerHost::reads_served).collect(),
        violations: stale_read_violations(client.trace()),
        completed: client.steps().iter().map(|s| s.completed).sum(),
    }
}

/// Spread reads over followers: leader CPU must drop while the trace
/// checker proves staleness stays zero.
pub const FOLLOWER_READ_OFFLOAD: Scenario = Scenario {
    name: "follower_read_offload",
    describe: "fan reads out over followers: leader CPU drops, staleness stays zero",
    headline_metric: "leader CPU with reads fanned over followers vs all reads on the leader",
    ci_assertion:
        "asserts leader CPU drops under fanout, every follower serves reads, zero stale reads",
    run: follower_read_offload,
};

fn follower_read_offload(ctx: &RunCtx) -> Report {
    let hold = Duration::from_secs(ctx.scale(10, 4) as u64);
    let modes = [("leader-only", false), ("fanout", true)];
    let runs: Vec<OffloadRun> = modes
        .into_par_iter()
        .map(|(label, fanout)| offload_run(ctx.system_seed(label), fanout, hold))
        .collect();
    let (baseline, fanout) = (&runs[0], &runs[1]);

    let mut report = Report::new(FOLLOWER_READ_OFFLOAD.name);
    report.table(
        "follower-read offload (3 servers, 4k req/s, 95% reads)",
        [
            "mode",
            "leader CPU %",
            "per-server reads (total)",
            "stale reads",
            "completed",
        ],
        runs.iter()
            .zip(modes.iter())
            .map(|(r, (label, _))| {
                vec![
                    (*label).to_string(),
                    format!("{:.1}", r.leader_cpu_pct),
                    r.reads_per_server
                        .iter()
                        .map(|c| format!("{}", c.total()))
                        .collect::<Vec<_>>()
                        .join("/"),
                    format!("{}", r.violations),
                    format!("{}", r.completed),
                ]
            })
            .collect(),
    );
    report.headline(
        "leader CPU, fanout vs leader-only",
        "drops",
        &format!(
            "{:.1}% vs {:.1}%",
            fanout.leader_cpu_pct, baseline.leader_cpu_pct
        ),
    );
    report.headline(
        "stale reads (both modes)",
        "0",
        &format!("{}", baseline.violations + fanout.violations),
    );
    report.note(
        "followers answer forwarded reads from their own state machine once\n\
         local apply reaches the granted index; forwarding batches into one\n\
         ReadIndexReq wave per round trip, so the leader's cost per offloaded\n\
         read is a fraction of serving it.",
    );
    assert_eq!(
        baseline.violations + fanout.violations,
        0,
        "offloaded reads must stay linearizable"
    );
    assert!(
        fanout.leader_cpu_pct < baseline.leader_cpu_pct * 0.8,
        "fanout must shed leader CPU: {:.1}% vs {:.1}%",
        fanout.leader_cpu_pct,
        baseline.leader_cpu_pct
    );
    let follower_served = fanout
        .reads_per_server
        .iter()
        .filter(|c| c.follower > 0)
        .count();
    assert!(
        follower_served >= 2,
        "both followers must serve reads, got counters {:?}",
        fanout.reads_per_server
    );
    assert!(
        fanout.completed as f64 > baseline.completed as f64 * 0.9,
        "offload must not sacrifice goodput: {} vs {}",
        fanout.completed,
        baseline.completed
    );
    report
}

// ------------------------------------------------------------------
// lease_safety_partition
// ------------------------------------------------------------------

/// One partition trial's measurements.
#[derive(Debug, Clone, PartialEq)]
struct LeaseTrial {
    old_leader: NodeId,
    new_leader: Option<NodeId>,
    old_leader_lease_reads: u64,
    writes_during_partition: u64,
    reads_after_new_commits: u64,
    violations: usize,
}

fn lease_trial(seed: u64) -> LeaseTrial {
    let t_partition = SimTime::from_secs(10);
    let t_heal = SimTime::from_secs(22);
    let mut workload = WorkloadSpec::steady(400.0, Duration::from_secs(27))
        .starting_at(Duration::from_secs(3))
        .mix(OpMix {
            put: 0.3,
            delete: 0.0,
            cas: 0.0,
        })
        .recording()
        .timeout(Some(Duration::from_millis(600)));
    workload.key_space = 8;
    let mut sim = ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::raft_default())
        .reads(ReadStrategy::Lease)
        .seed(seed)
        .workload(workload)
        .build_sim();
    sim.run_until(t_partition);
    let old_leader = wired(sim.leader(), "the settle window elects before the cut");
    let lease_reads_before = sim.server(old_leader).reads_served().lease;
    assert!(
        lease_reads_before > 0,
        "the lease path must be hot before the cut (else the trial tests nothing)"
    );
    // Cut the leader off from its peers while every client still reaches
    // it: the window where a buggy lease would serve stale reads.
    sim.partition_servers(&[old_leader]);
    sim.run_until(t_heal);
    let new_leader = sim.leader();
    sim.heal_partition();
    sim.run_until(SimTime::from_secs(32));
    let trace = wired(sim.client(), "the builder attached a workload client").trace();
    // The checker only bites if the partition window really had both new
    // commits and reads completing after them.
    let first_new_commit = trace
        .iter()
        .filter(|op| op.write && op.completed > t_partition + Duration::from_secs(1))
        .map(|op| op.completed)
        .min();
    let writes_during_partition = trace
        .iter()
        .filter(|op| op.write && op.completed > t_partition && op.completed < t_heal)
        .count() as u64;
    let reads_after_new_commits = first_new_commit.map_or(0, |t0| {
        trace
            .iter()
            .filter(|op| !op.write && op.completed > t0)
            .count() as u64
    });
    LeaseTrial {
        old_leader,
        new_leader,
        old_leader_lease_reads: lease_reads_before,
        writes_during_partition,
        reads_after_new_commits,
        violations: stale_read_violations(trace),
    }
}

/// Partition a leader mid-lease (clients still reach it): the drift-scaled
/// lease must expire before the new leader's first commit, so no stale
/// read is ever served — checked by a linearizability pass over the trace.
pub const LEASE_SAFETY_PARTITION: Scenario = Scenario {
    name: "lease_safety_partition",
    describe: "partition a leader mid-lease while clients still reach it: zero stale reads",
    headline_metric: "stale-read violations in the client trace across the partition (must be 0)",
    ci_assertion:
        "asserts zero stale reads, a hot lease before the cut, and post-cut commits + reads",
    run: lease_safety_partition,
};

fn lease_safety_partition(ctx: &RunCtx) -> Report {
    let trials = ctx.trials_or(3, 2);
    let results: Vec<LeaseTrial> = (0..trials)
        .into_par_iter()
        .map(|i| lease_trial(ctx.system_seed(&format!("lease-safety/{i}"))))
        .collect();
    let mut report = Report::new(LEASE_SAFETY_PARTITION.name);
    report.table(
        "leader isolated from peers at t=10s (clients bridge), healed at t=22s",
        [
            "trial",
            "old leader",
            "new leader",
            "lease reads pre-cut",
            "writes in cut",
            "reads after new commits",
            "stale reads",
        ],
        results
            .iter()
            .enumerate()
            .map(|(i, t)| {
                vec![
                    format!("{i}"),
                    format!("{}", t.old_leader),
                    t.new_leader.map_or("-".into(), |l| format!("{l}")),
                    format!("{}", t.old_leader_lease_reads),
                    format!("{}", t.writes_during_partition),
                    format!("{}", t.reads_after_new_commits),
                    format!("{}", t.violations),
                ]
            })
            .collect(),
    );
    let total_violations: usize = results.iter().map(|t| t.violations).sum();
    report.headline(
        "stale reads across all trials",
        "0",
        &format!("{total_violations}"),
    );
    report.note(
        "safety margin: the lease is cut at read_lease * (1 - drift_margin) from\n\
         the last quorum-acked heartbeat send, while a new leader needs at least\n\
         one full election timeout after the last heartbeat it received — the\n\
         isolated leader's lease always dies first.",
    );
    for (i, t) in results.iter().enumerate() {
        assert_eq!(t.violations, 0, "trial {i}: stale read served");
        let new_leader = wired(
            t.new_leader,
            &format!("trial {i}: no new leader elected during the partition"),
        );
        assert_ne!(
            new_leader, t.old_leader,
            "trial {i}: old leader cannot still lead"
        );
        assert!(
            t.writes_during_partition > 0,
            "trial {i}: the new leader committed nothing — vacuous check"
        );
        assert!(
            t.reads_after_new_commits > 0,
            "trial {i}: no reads completed after the new leader's commits — vacuous check"
        );
    }
    report
}
