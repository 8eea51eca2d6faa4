//! Sharding scenarios: horizontal scaling, skew, and fault isolation of
//! the multi-Raft serving layer.
//!
//! Three workloads the single-group catalog cannot express:
//!
//! * [`SHARDED_THROUGHPUT`] — aggregate committed throughput vs shard count
//!   at a fixed per-node configuration (the "does it actually scale out"
//!   plot);
//! * [`HOT_SHARD`] — Zipf-skewed keys concentrating load on one group
//!   (partitioning helps only as much as the key distribution allows);
//! * [`SHARD_LEADER_FAILOVER`] — crash one group's leader mid-load and
//!   verify the blast radius: unaffected shards keep serving at baseline
//!   while the affected shard's outage is bounded by failure detection,
//!   which is exactly where the paper's dynamic timeouts pay off.
//!
//! All three run on an inflated per-request cost model
//! (`serving_cost`) that saturates a 2-core group near ~800 req/s, so
//! contention effects appear at simulation-friendly request rates.

use super::wired;
use crate::cpu::CostModel;
use crate::observers::extract_failover;
use crate::scenario::{Report, RunCtx, Scenario, ScenarioBuilder};
use crate::sim::{ClusterSim, WorkloadSpec};
use dynatune_core::TuningConfig;
use dynatune_kv::{OpMix, RateStep};
use dynatune_simnet::SimTime;
use rayon::prelude::*;
use std::time::Duration;

/// Cost model for the sharding scenarios: per-request work inflated 10×
/// over the default, so one 2-core group saturates near ~800 req/s and the
/// scenarios exercise saturation at cheap offered rates.
fn serving_cost() -> CostModel {
    CostModel {
        per_request: Duration::from_micros(2500),
        ..CostModel::default()
    }
}

/// Replicas per shard used by every sharding scenario (classic 3-way).
const REPLICAS: usize = 3;

fn steady_workload(rps: f64, hold: Duration, zipf_theta: f64, start: Duration) -> WorkloadSpec {
    WorkloadSpec {
        steps: vec![RateStep { rps, hold }],
        mix: OpMix::write_heavy(),
        key_space: 10_000,
        zipf_theta,
        value_size: 128,
        start_offset: start,
        // Throughput-style scenarios disable retries-on-silence; the
        // failover scenario re-enables them (clients must escape a dead
        // leader).
        request_timeout: None,
        read_fanout: false,
        record_trace: false,
    }
}

fn sharded_sim(
    shards: usize,
    tuning: TuningConfig,
    seed: u64,
    workload: WorkloadSpec,
) -> ClusterSim {
    ScenarioBuilder::cluster(REPLICAS)
        .shards(shards)
        .tuning(tuning)
        .cost(serving_cost())
        .cores(2)
        .seed(seed)
        .workload(workload)
        .build_sharded_sim()
}

/// One point of the scaling sweep.
#[derive(Debug)]
struct ScalingPoint {
    /// Shard count of this run.
    shards: usize,
    /// Aggregate offered load (req/s).
    offered_rps: f64,
    /// Requests completed by the horizon, across all shards.
    completed: u64,
    /// Aggregate committed throughput (req/s over the load window).
    aggregate_rps: f64,
}

/// Measure aggregate committed throughput for each shard count in
/// `shard_counts`, at a fixed per-node configuration and a fixed aggregate
/// offered load (sized to overload a single group ~5×). Runs fan out in
/// parallel; results merge in input order, so any `--jobs` width produces
/// identical output.
fn measure_scaling(ctx: &RunCtx, shard_counts: &[usize]) -> Vec<ScalingPoint> {
    let hold = Duration::from_secs(ctx.scale(30, 6) as u64);
    let start = Duration::from_secs(3);
    let drain = Duration::from_secs(1);
    let offered = 4_000.0;
    shard_counts
        .to_vec()
        .into_par_iter()
        .map(|shards| {
            let seed = ctx.system_seed(&format!("sharded_throughput-{shards}"));
            // Uniform keys: scaling is the subject here, skew is `HOT_SHARD`'s.
            let mut sim = sharded_sim(
                shards,
                TuningConfig::raft_default(),
                seed,
                steady_workload(offered, hold, 0.0, start),
            );
            sim.run_until(SimTime::ZERO + start + hold + drain);
            let completed = sim.total_completed();
            ScalingPoint {
                shards,
                offered_rps: offered,
                completed,
                aggregate_rps: completed as f64 / (hold + drain).as_secs_f64(),
            }
        })
        .collect()
}

/// Aggregate committed ops vs shard count (1/2/4/8) at fixed per-node
/// config: the scale-out headline of the sharded serving layer.
pub const SHARDED_THROUGHPUT: Scenario = Scenario {
    name: "sharded_throughput",
    describe: "aggregate committed throughput vs shard count (1/2/4/8) at fixed per-node config",
    headline_metric: "committed-throughput scaling from 1 to 8 shards",
    ci_assertion: "asserts >= 3x scaling at 8 shards over a saturated single group",
    run: sharded_throughput,
};

fn sharded_throughput(ctx: &RunCtx) -> Report {
    let points = measure_scaling(ctx, &[1, 2, 4, 8]);
    let base = points[0].aggregate_rps;
    let mut report = Report::new(SHARDED_THROUGHPUT.name);
    report.table(
        &format!(
            "{} req/s offered aggregate, {REPLICAS} replicas/shard, 2 cores/server",
            points[0].offered_rps
        ),
        ["shards", "completed ops", "aggregate (req/s)", "vs 1 shard"],
        points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.shards),
                    format!("{}", p.completed),
                    format!("{:.0}", p.aggregate_rps),
                    format!("{:.2}x", p.aggregate_rps / base),
                ]
            })
            .collect(),
    );
    let last = wired(points.last(), "the shard-count sweep is non-empty");
    let scaling = last.aggregate_rps / base;
    report.headline(
        "committed-throughput scaling, 1 -> 8 shards",
        "n/a (beyond paper)",
        &format!("{scaling:.2}x"),
    );
    report.artifact(
        "sharded_throughput.csv",
        std::iter::once("shards,completed,aggregate_rps".to_string())
            .chain(
                points
                    .iter()
                    .map(|p| format!("{},{},{:.1}", p.shards, p.completed, p.aggregate_rps)),
            )
            .collect::<Vec<_>>()
            .join("\n")
            + "\n",
    );
    report.note(
        "a single Raft group is leader-CPU-bound; hash-partitioning the keyspace\n\
         across groups multiplies the commit pipelines while each node keeps the\n\
         same configuration.",
    );
    // CI enforcement of the scale-out claim.
    assert!(
        scaling >= 3.0,
        "1 shard {base:.0} req/s -> 8 shards {:.0} req/s is only {scaling:.2}x",
        last.aggregate_rps
    );
    // The single group must actually be saturated (otherwise the sweep
    // proves nothing): it completes well under the offered aggregate.
    assert!(
        base < points[0].offered_rps * 0.5,
        "1-shard run is not saturated: {base:.0} of {:.0} offered",
        points[0].offered_rps
    );
    report
}

/// Per-shard outcome of one hot-shard run.
#[derive(Debug)]
struct SkewOutcome {
    /// Requests routed to each shard.
    sent: Vec<u64>,
    /// Requests completed per shard.
    completed: Vec<u64>,
    /// Aggregate completed ops.
    total_completed: u64,
}

/// Run the hot-shard workload at `zipf_theta` and report per-shard load.
fn measure_skew(ctx: &RunCtx, zipf_theta: f64) -> SkewOutcome {
    let hold = Duration::from_secs(ctx.scale(30, 6) as u64);
    let start = Duration::from_secs(3);
    let seed = ctx.system_seed(&format!("hot_shard-{zipf_theta}"));
    let mut sim = sharded_sim(
        8,
        TuningConfig::raft_default(),
        seed,
        steady_workload(3_000.0, hold, zipf_theta, start),
    );
    sim.run_until(SimTime::ZERO + start + hold + Duration::from_secs(1));
    let stats = wired(sim.shard_stats(), "the builder attached a client");
    SkewOutcome {
        sent: stats.iter().map(|s| s.sent).collect(),
        completed: stats.iter().map(|s| s.completed).collect(),
        total_completed: sim.total_completed(),
    }
}

/// Zipf-skewed keys concentrating load on one Raft group: sharding scales
/// only as far as the key distribution spreads.
pub const HOT_SHARD: Scenario = Scenario {
    name: "hot_shard",
    describe: "Zipf-skewed keys concentrate load on one of 8 groups; skew caps the scale-out win",
    headline_metric: "hot shard's share of offered load under zipf 1.4 skew",
    ci_assertion:
        "asserts hot shard > 25% of load, uniform max < 20%, and that skew costs throughput",
    run: hot_shard,
};

fn hot_shard(ctx: &RunCtx) -> Report {
    // YCSB-beyond skew at theta 1.4: the head key is ~30% of traffic.
    let mut runs: Vec<SkewOutcome> = [0.0, 1.4]
        .into_par_iter()
        .map(|theta| measure_skew(ctx, theta))
        .collect();
    let skewed = wired(runs.pop(), "two runs were mapped above");
    let uniform = wired(runs.pop(), "two runs were mapped above");
    let share = |o: &SkewOutcome, s: usize| {
        o.sent[s] as f64 / o.sent.iter().sum::<u64>().max(1) as f64 * 100.0
    };
    let mut report = Report::new(HOT_SHARD.name);
    report.table(
        "per-shard offered share and completions (8 shards, 3000 req/s offered)",
        [
            "shard",
            "uniform sent %",
            "uniform done",
            "zipf sent %",
            "zipf done",
        ],
        (0..8)
            .map(|s| {
                vec![
                    format!("{s}"),
                    format!("{:.1}", share(&uniform, s)),
                    format!("{}", uniform.completed[s]),
                    format!("{:.1}", share(&skewed, s)),
                    format!("{}", skewed.completed[s]),
                ]
            })
            .collect(),
    );
    let hot = wired(
        (0..8).max_by_key(|&s| skewed.sent[s]),
        "the 0..8 shard range is non-empty",
    );
    report.headline(
        "hot shard's share of offered load (zipf 1.4)",
        "n/a (beyond paper)",
        &format!("{:.0}%", share(&skewed, hot)),
    );
    report.headline(
        "aggregate completed, zipf vs uniform keys",
        "n/a (beyond paper)",
        &format!(
            "{:.2}x",
            skewed.total_completed as f64 / uniform.total_completed.max(1) as f64
        ),
    );
    report.note(
        "hash partitioning spreads *keys*, not *traffic*: under heavy skew one\n\
         group saturates while its neighbors idle, and the aggregate falls back\n\
         toward single-group throughput. Mitigations (hot-key splitting,\n\
         request-level caching) are future scenarios.",
    );
    // CI enforcement of the skew claims.
    assert!(
        share(&skewed, hot) > 25.0,
        "hot shard carries only {:.0}% under zipf 1.4",
        share(&skewed, hot)
    );
    let uniform_max = (0..8).map(|s| share(&uniform, s)).fold(0.0, f64::max);
    assert!(
        uniform_max < 20.0,
        "uniform keys should spread (max shard share {uniform_max:.0}%)"
    );
    // Skew costs aggregate throughput: the hot group saturates.
    assert!(
        skewed.total_completed < uniform.total_completed,
        "skewed {} vs uniform {} completed",
        skewed.total_completed,
        uniform.total_completed
    );
    report
}

/// Per-system outcome of the shard-leader-failover measurement.
#[derive(Debug)]
struct FailoverIsolation {
    /// Shard whose leader was crashed.
    crashed_shard: usize,
    /// Per-shard committed rate (req/s) in the pre-fault baseline window.
    baseline_rps: Vec<f64>,
    /// Per-shard committed rate (req/s) in the outage window.
    outage_rps: Vec<f64>,
    /// Per-shard goodput fraction (completed / offered) in the baseline
    /// window. Normalizing by each window's own Poisson arrivals isolates
    /// serving behavior from arrival-count noise.
    baseline_goodput: Vec<f64>,
    /// Per-shard goodput fraction in the outage window.
    outage_goodput: Vec<f64>,
    /// Worst relative goodput deviation from baseline across *unaffected*
    /// shards (percent).
    worst_unaffected_dev_pct: f64,
    /// Failure-detection time on the affected shard (ms), if observed.
    detection_ms: Option<f64>,
}

/// Crash the leader of shard 0 mid-load and measure per-shard committed
/// rates in equal windows before and during the outage, plus the affected
/// shard's detection time from its group's event log.
fn measure_isolation(ctx: &RunCtx, label: &str, tuning: TuningConfig) -> FailoverIsolation {
    let window = Duration::from_secs(ctx.scale(20, 8) as u64);
    let warmup = Duration::from_secs(12);
    let start = Duration::from_secs(3);
    let shards = 4;
    // ~300 req/s per shard: well under capacity, so any outage-window dip
    // on a healthy shard is interference, not saturation noise.
    let mut workload = steady_workload(1_200.0, warmup + window * 2, 0.0, start);
    workload.request_timeout = Some(Duration::from_secs(1));
    let seed = ctx.system_seed(label);
    let mut sim = sharded_sim(shards, tuning, seed, workload);

    let snapshot = |sim: &ClusterSim| {
        let stats = wired(sim.shard_stats(), "the builder attached a client");
        let sent: Vec<u64> = stats.iter().map(|s| s.sent).collect();
        let done: Vec<u64> = stats.iter().map(|s| s.completed).collect();
        (sent, done)
    };
    sim.run_until(SimTime::ZERO + start + warmup);
    let at_warm = snapshot(&sim);
    sim.run_for(window);
    let at_fault = snapshot(&sim);
    let t_fault = sim.now();
    let victim = wired(sim.leader_of(0), "shard 0 elected during the warmup window");
    sim.crash(victim);
    sim.run_for(window);
    let at_end = snapshot(&sim);

    let secs = window.as_secs_f64();
    let rate = |a: &(Vec<u64>, Vec<u64>), b: &(Vec<u64>, Vec<u64>), s: usize| {
        (b.1[s] - a.1[s]) as f64 / secs
    };
    let goodput = |a: &(Vec<u64>, Vec<u64>), b: &(Vec<u64>, Vec<u64>), s: usize| {
        (b.1[s] - a.1[s]) as f64 / ((b.0[s] - a.0[s]) as f64).max(1.0)
    };
    let baseline_rps: Vec<f64> = (0..shards).map(|s| rate(&at_warm, &at_fault, s)).collect();
    let outage_rps: Vec<f64> = (0..shards).map(|s| rate(&at_fault, &at_end, s)).collect();
    let baseline_goodput: Vec<f64> = (0..shards)
        .map(|s| goodput(&at_warm, &at_fault, s))
        .collect();
    let outage_goodput: Vec<f64> = (0..shards)
        .map(|s| goodput(&at_fault, &at_end, s))
        .collect();
    let worst_unaffected_dev_pct = (1..shards)
        .map(|s| (1.0 - outage_goodput[s] / baseline_goodput[s].max(1e-9)).abs() * 100.0)
        .fold(0.0, f64::max);
    let local_victim = victim - sim.map().group_base(0);
    let failover = extract_failover(&sim.shard_events(0), t_fault, local_victim);
    FailoverIsolation {
        crashed_shard: 0,
        baseline_rps,
        outage_rps,
        baseline_goodput,
        outage_goodput,
        worst_unaffected_dev_pct,
        detection_ms: failover.detection.map(|d| d.as_secs_f64() * 1e3),
    }
}

/// Crash one group's leader mid-load: the other shards must not notice,
/// and the affected shard's outage is bounded by failure detection — the
/// paper's dynamic timeouts shrink exactly that bound, per shard.
pub const SHARD_LEADER_FAILOVER: Scenario = Scenario {
    name: "shard_leader_failover",
    describe: "crash one group's leader mid-load: blast radius + per-shard detection bound",
    headline_metric: "unaffected-shard goodput deviation during one group's leader outage",
    ci_assertion:
        "asserts unaffected shards within 5% of baseline and dynatune detection < half of raft's",
    run: shard_leader_failover,
};

fn shard_leader_failover(ctx: &RunCtx) -> Report {
    let mut runs: Vec<FailoverIsolation> = [
        ("raft", TuningConfig::raft_default()),
        ("dynatune", TuningConfig::dynatune()),
    ]
    .into_par_iter()
    .map(|(label, tuning)| measure_isolation(ctx, label, tuning))
    .collect();
    let dynatune = wired(runs.pop(), "two systems were mapped above");
    let raft = wired(runs.pop(), "two systems were mapped above");
    let mut report = Report::new(SHARD_LEADER_FAILOVER.name);
    for (label, m) in [("raft", &raft), ("dynatune", &dynatune)] {
        report.table(
            &format!("{label}: per-shard serving, baseline vs outage window"),
            [
                "shard",
                "baseline (req/s)",
                "outage (req/s)",
                "baseline goodput",
                "outage goodput",
            ],
            (0..m.baseline_rps.len())
                .map(|s| {
                    vec![
                        if s == m.crashed_shard {
                            format!("{s} (leader crashed)")
                        } else {
                            format!("{s}")
                        },
                        format!("{:.0}", m.baseline_rps[s]),
                        format!("{:.0}", m.outage_rps[s]),
                        format!("{:.3}", m.baseline_goodput[s]),
                        format!("{:.3}", m.outage_goodput[s]),
                    ]
                })
                .collect(),
        );
    }
    report.headline(
        "worst unaffected-shard deviation during outage",
        "<= 5%",
        &format!(
            "raft {:.1}%, dynatune {:.1}%",
            raft.worst_unaffected_dev_pct, dynatune.worst_unaffected_dev_pct
        ),
    );
    report.headline(
        "affected shard detection time",
        "dynatune < raft",
        &format!(
            "raft {:.0} ms, dynatune {:.0} ms",
            raft.detection_ms.unwrap_or(f64::NAN),
            dynatune.detection_ms.unwrap_or(f64::NAN)
        ),
    );
    report.note(
        "groups share nothing but the network fabric, so a leader crash in one\n\
         shard leaves the others' commit pipelines untouched; the affected\n\
         shard's outage equals detection + election, which per-path tuning\n\
         shrinks just as it does for the single-group Fig. 4.",
    );
    // CI enforcement of the isolation claims.
    for (label, m) in [("raft", &raft), ("dynatune", &dynatune)] {
        assert!(
            m.worst_unaffected_dev_pct <= 5.0,
            "{label}: unaffected shards deviated {:.1}% during the outage",
            m.worst_unaffected_dev_pct
        );
        // The affected shard visibly dips.
        assert!(
            m.outage_goodput[m.crashed_shard] < m.baseline_goodput[m.crashed_shard],
            "{label}: crashed shard shows no outage at all"
        );
    }
    // The paper's point, per shard: dynamic timeouts bound the affected
    // shard's detection time far below the static default.
    let raft_det = wired(raft.detection_ms, "raft detection observed");
    let dt_det = wired(dynatune.detection_ms, "dynatune detection observed");
    assert!(
        dt_det < raft_det * 0.5,
        "dynatune detection {dt_det:.0} ms should undercut raft {raft_det:.0} ms"
    );
    report
}
