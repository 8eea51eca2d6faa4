//! Broker scenarios: produce throughput, exactly-once failover, and
//! consumer fan-out over the replicated topic/partition broker.
//!
//! These are the serving-layer proof that the broker subsystem composes
//! with everything underneath it: produces ride the origin-deduped
//! replicated path (PR 4), fetches the log-free read path (PR 5), and
//! partitions map onto independent Raft groups exactly like KV shards
//! (PR 3). Each scenario hard-asserts its correctness claim in-run, so the
//! CI smoke pass — not just the full benchmark — catches a regression.

use super::wired;
use crate::broker::{BrokerWorkload, ConsumerStats};
use crate::scenario::{NetPlan, Report, RunCtx, Scenario, ScenarioBuilder};
use dynatune_core::TuningConfig;
use dynatune_simnet::SimTime;
use rayon::prelude::*;
use std::time::Duration;

/// Replicas per partition's Raft group, all broker scenarios.
const REPLICAS: usize = 3;

/// Sum a group list's checker violations (must all be zero everywhere).
fn violations(groups: &[ConsumerStats]) -> u64 {
    groups
        .iter()
        .map(|g| g.lost + g.duplicated + g.out_of_order)
        .sum()
}

fn assert_exactly_once(scenario: &str, groups: &[ConsumerStats]) {
    for (g, s) in groups.iter().enumerate() {
        assert_eq!(s.lost, 0, "{scenario}: group {g} lost {} records", s.lost);
        assert_eq!(
            s.duplicated, 0,
            "{scenario}: group {g} saw {} duplicated records",
            s.duplicated
        );
        assert_eq!(
            s.out_of_order, 0,
            "{scenario}: group {g} saw {} records out of offset order",
            s.out_of_order
        );
    }
}

// ---------------------------------------------------------------------------
// broker_produce_throughput
// ---------------------------------------------------------------------------

/// Pipeline windows compared; 1 is the pre-pipelining ping-pong baseline.
const WINDOWS: [usize; 2] = [1, 8];

/// Records per produce batch, kept small so many single-entry commands
/// queue at the leader and the replication window — not one huge batch —
/// is what hides the RTT.
const PRODUCE_BATCH_MAX: usize = 16;

/// Entry cap per `AppendEntries`, same rationale as `pipeline_depth`.
const APPEND_CAP: usize = 8;

#[derive(Debug, Clone, PartialEq)]
struct ProduceRun {
    acked_records: u64,
    acked_bytes: u64,
    batches: u64,
    mean_latency_ms: f64,
    hold_secs: f64,
}

fn produce_run(seed: u64, window: usize, hold: Duration) -> ProduceRun {
    let start = Duration::from_secs(3);
    let wl = BrokerWorkload {
        topics: vec![("orders".into(), 8)],
        produce_rps: 6_000.0,
        record_bytes: 256,
        batch_max: PRODUCE_BATCH_MAX,
        groups: 0,
        fanout_fetch: false,
        start_offset: start,
        produce_for: None,
        request_timeout: Duration::from_secs(1),
    };
    let mut sim = ScenarioBuilder::cluster(REPLICAS)
        .tuning(TuningConfig::raft_default())
        .shards(2)
        .net(NetPlan::stable(Duration::from_millis(50)))
        .pipeline_window(window)
        .max_entries_per_append(APPEND_CAP)
        .seed(seed)
        .build_broker_sim(wl);
    sim.run_until(SimTime::ZERO + start + hold);
    let stats = wired(sim.stats(), "the builder attached a produce workload");
    ProduceRun {
        acked_records: stats.acked_records,
        acked_bytes: stats.acked_bytes,
        batches: stats.produce_batches,
        mean_latency_ms: stats.produce_latency_ms.mean(),
        hold_secs: hold.as_secs_f64(),
    }
}

/// Produce throughput over the broker: records/s and bytes/s acknowledged,
/// window-8 replication pipelining against the window-1 ping-pong.
pub const BROKER_PRODUCE_THROUGHPUT: Scenario = Scenario {
    name: "broker_produce_throughput",
    describe:
        "broker produce throughput (records/s, bytes/s) with pipelined vs ping-pong replication",
    headline_metric: "acked produce bytes/s, window 8 over window 1 (>= 1.2x)",
    ci_assertion: "asserts window 8 acks >= 1.2x the produce bytes of window 1",
    run: broker_produce_throughput,
};

fn broker_produce_throughput(ctx: &RunCtx) -> Report {
    let hold = Duration::from_secs(ctx.scale(12, 4) as u64);
    let runs: Vec<ProduceRun> = WINDOWS
        .into_par_iter()
        .map(|w| produce_run(ctx.system_seed(&format!("window{w}")), w, hold))
        .collect();
    let mut report = Report::new(BROKER_PRODUCE_THROUGHPUT.name);
    report.table(
        "acked produce throughput by pipeline window (1 topic x 8 partitions \
         over 2 groups of 3 replicas, 50 ms RTT, 256 B records)",
        [
            "window",
            "records/s",
            "KiB/s",
            "batches",
            "mean batch latency (ms)",
        ],
        WINDOWS
            .iter()
            .zip(runs.iter())
            .map(|(&w, r)| {
                vec![
                    format!("{w}"),
                    format!("{:.0}", r.acked_records as f64 / r.hold_secs),
                    format!("{:.0}", r.acked_bytes as f64 / 1024.0 / r.hold_secs),
                    format!("{}", r.batches),
                    format!("{:.1}", r.mean_latency_ms),
                ]
            })
            .collect(),
    );
    let ratio = runs[1].acked_bytes as f64 / runs[0].acked_bytes.max(1) as f64;
    report.headline(
        "acked produce bytes, window 8 / window 1",
        ">= 1.2x",
        &format!("{ratio:.2}x"),
    );
    report.note(
        "each produce command is one log entry, so with small batches the\n\
         per-follower window bounds how many entries replicate per RTT;\n\
         the closed-loop producers convert that commit-latency cut\n\
         directly into throughput.",
    );
    assert!(
        ratio >= 1.2,
        "pipelined replication must lift produce throughput >= 1.2x, got \
         {ratio:.2}x ({} vs {} bytes)",
        runs[1].acked_bytes,
        runs[0].acked_bytes
    );
    report
}

// ---------------------------------------------------------------------------
// consumer_lag_failover
// ---------------------------------------------------------------------------

/// Lag sampling cadence while the failover plays out.
const LAG_SAMPLE: Duration = Duration::from_millis(500);

/// Crash a partition leader mid-stream and prove the pipeline's guarantee:
/// no record lost, none duplicated, offsets in order, and consumer lag
/// spikes then drains back to zero.
pub const CONSUMER_LAG_FAILOVER: Scenario = Scenario {
    name: "consumer_lag_failover",
    describe: "crash a partition leader mid-stream; exactly-once delivery and bounded lag recovery",
    headline_metric: "records lost + duplicated across the failover (= 0)",
    ci_assertion: "asserts zero loss/duplication/reorder, full drain, and lag back to 0",
    run: consumer_lag_failover,
};

fn consumer_lag_failover(ctx: &RunCtx) -> Report {
    let produce_secs = ctx.scale(16, 8) as u64;
    let start = Duration::from_secs(3);
    let crash_at = SimTime::ZERO + start + Duration::from_secs(produce_secs / 2);
    let wl = BrokerWorkload::steady(vec![("events".into(), 4)], 800.0)
        .starting_at(start)
        .produce_for(Duration::from_secs(produce_secs));
    let mut sim = ScenarioBuilder::cluster(REPLICAS)
        .tuning(TuningConfig::raft_default())
        .shards(2)
        .net(NetPlan::stable(Duration::from_millis(20)))
        .seed(ctx.system_seed("failover"))
        .build_broker_sim(wl);
    // Advance in lag-sample steps, crashing the shard-0 leader halfway
    // through the produce phase and recording the recovery curve.
    let end = SimTime::ZERO + start + Duration::from_secs(produce_secs + 8);
    let mut crashed: Option<u64> = None;
    let mut samples: Vec<(f64, u64)> = Vec::new();
    let mut t = SimTime::ZERO + start;
    while t < end {
        t = (t + LAG_SAMPLE).min(end);
        sim.run_until(t);
        if crashed.is_none() && t >= crash_at {
            let victim = wired(
                sim.leader_of(0),
                "shard 0 elected a leader during the pre-crash produce phase",
            );
            sim.crash_restart(victim);
            crashed = Some(victim as u64);
        }
        // End-to-end backlog: records generated but not yet read back.
        // The partition-side high-watermark gap would hide the outage
        // (during it the producers stall too, so the backlog queues
        // client-side); produced-minus-consumed sees the whole pipe.
        let consumed = wired(sim.consumer_stats(), "the workload runs consumer groups")
            .iter()
            .map(|g| g.consumed)
            .sum::<u64>();
        let produced = wired(sim.stats(), "the builder attached a produce workload").produced;
        samples.push(((t - SimTime::ZERO).as_secs_f64(), produced - consumed));
    }
    let stats = wired(sim.stats(), "the builder attached a produce workload");
    let groups = wired(sim.consumer_stats(), "the workload runs consumer groups");
    // Peak as the consumer saw it (per-fetch high-watermark gap) and as
    // the end-to-end samples saw it.
    let peak_fetch = groups[0].max_lag;
    let crash_secs = (crash_at - SimTime::ZERO).as_secs_f64();
    let peak_backlog = samples.iter().map(|&(_, l)| l).max().unwrap_or(0);
    let drained_at = samples
        .iter()
        .skip_while(|&&(at, _)| at < crash_secs)
        .find(|&&(_, l)| l == 0)
        .map(|&(at, _)| at);

    let mut report = Report::new(CONSUMER_LAG_FAILOVER.name);
    report.table(
        "failover outcome (1 topic x 4 partitions, 800 rec/s, shard-0 \
         leader crashed mid-stream)",
        ["metric", "value"],
        vec![
            vec!["records produced".into(), format!("{}", stats.produced)],
            vec!["records acked".into(), format!("{}", stats.acked_records)],
            vec!["records consumed".into(), format!("{}", groups[0].consumed)],
            vec!["produce retries".into(), format!("{}", stats.retries)],
            vec!["offset commits".into(), format!("{}", groups[0].commits)],
            vec![
                "peak consumer lag (per fetch)".into(),
                format!("{peak_fetch}"),
            ],
            vec!["peak end-to-end backlog".into(), format!("{peak_backlog}")],
            vec![
                "crash at / backlog drained at".into(),
                format!(
                    "{crash_secs:.1} s / {}",
                    drained_at.map_or("never".into(), |s| format!("{s:.1} s"))
                ),
            ],
            vec![
                "crashed host".into(),
                crashed.map_or("-".into(), |id| format!("{id}")),
            ],
        ],
    );
    report.headline(
        "records lost + duplicated + reordered",
        "= 0",
        &format!("{}", violations(&groups)),
    );
    report.headline(
        "consumer lag at end of drain",
        "= 0",
        &format!("{}", groups[0].current_lag),
    );
    report.note(
        "one in-flight produce per partition, unbounded same-id retries and\n\
         the replicated reply cache make the crash invisible to the stream:\n\
         the retried batch dedupes server-side, offsets stay dense, and the\n\
         consumer drains the backlog once the new leader serves.",
    );
    report.artifact(
        "consumer_lag_failover_backlog.csv",
        std::iter::once("t_secs,backlog_records".to_string())
            .chain(samples.iter().map(|(at, l)| format!("{at:.1},{l}")))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n",
    );
    assert_exactly_once(CONSUMER_LAG_FAILOVER.name, &groups);
    assert_eq!(
        stats.acked_records, stats.produced,
        "drain must ack every produced record"
    );
    assert_eq!(
        groups[0].consumed, stats.produced,
        "consumer must read back exactly what was produced"
    );
    assert_eq!(groups[0].current_lag, 0, "lag must recover to zero");
    assert!(
        stats.retries + stats.redirects > 0,
        "the crash must actually disrupt the produce path"
    );
    assert!(groups[0].commits > 0, "offsets must commit durably");
    assert!(
        drained_at.is_some(),
        "end-to-end backlog must drain to zero after the crash"
    );
    report
}

// ---------------------------------------------------------------------------
// consumer_fanout
// ---------------------------------------------------------------------------

/// Consumer-group counts swept by the fan-out scenario.
const GROUP_COUNTS: [usize; 3] = [1, 4, 8];

#[derive(Debug, Clone, PartialEq)]
struct FanoutRun {
    leader_cpu_pct: f64,
    follower_reads: u64,
    leader_reads: u64,
    consumed: u64,
    checker_violations: u64,
}

fn fanout_run(seed: u64, groups: usize, fanout: bool, hold: Duration) -> FanoutRun {
    let start = Duration::from_secs(3);
    let wl = BrokerWorkload::steady(vec![("feed".into(), 4)], 1_200.0)
        .starting_at(start)
        .groups(groups)
        .fanout(fanout);
    let mut sim = ScenarioBuilder::cluster(REPLICAS)
        .tuning(TuningConfig::raft_default())
        .shards(2)
        .net(NetPlan::stable(Duration::from_millis(20)))
        .seed(seed)
        .build_broker_sim(wl);
    let from = SimTime::ZERO + start;
    let to = from + hold;
    sim.run_until(to);
    // Mean CPU of the current group leaders over the workload window
    // (stable net, no faults: leadership does not move mid-run).
    let leaders: Vec<_> = sim.leaders().into_iter().flatten().collect();
    let leader_cpu_pct = leaders
        .iter()
        .map(|&id| sim.with_server(id, |s| s.cpu().mean_utilization(from, to)))
        .sum::<f64>()
        / leaders.len().max(1) as f64;
    let reads = sim.read_counters();
    let group_stats = wired(sim.consumer_stats(), "the workload runs consumer groups");
    FanoutRun {
        leader_cpu_pct,
        follower_reads: reads.follower,
        leader_reads: reads.lease + reads.read_index,
        consumed: group_stats.iter().map(|g| g.consumed).sum(),
        checker_violations: violations(&group_stats),
    }
}

/// Scale consumer groups with fetches pinned to per-group replicas: the
/// fan-out keeps the partition leaders' CPU flat while leader-only
/// consumption grows with every added group.
pub const CONSUMER_FANOUT: Scenario = Scenario {
    name: "consumer_fanout",
    describe: "scale consumer groups on follower fetches; leaders shed the fan-out load",
    headline_metric: "leader CPU at 8 groups, follower fan-out over leader-only (<= 0.85x)",
    ci_assertion: "asserts fan-out leader CPU <= 0.85x leader-only at 8 groups, sublinear growth, clean checker",
    run: consumer_fanout,
};

fn consumer_fanout(ctx: &RunCtx) -> Report {
    let hold = Duration::from_secs(ctx.scale(10, 4) as u64);
    // Sweep groups with fan-out, plus the leader-only counterfactual at
    // the top group count.
    let combos: Vec<(usize, bool)> = GROUP_COUNTS
        .iter()
        .map(|&g| (g, true))
        .chain([(GROUP_COUNTS[GROUP_COUNTS.len() - 1], false)])
        .collect();
    let runs: Vec<FanoutRun> = combos
        .clone()
        .into_par_iter()
        .map(|(groups, fanout)| {
            let label = format!("groups{groups}/fanout{fanout}");
            fanout_run(ctx.system_seed(&label), groups, fanout, hold)
        })
        .collect();
    let cell = |groups: usize, fanout: bool| -> &FanoutRun {
        let i = wired(
            combos.iter().position(|&(g, f)| g == groups && f == fanout),
            "every (groups, fanout) cell queried below was swept above",
        );
        &runs[i]
    };
    let max_groups = GROUP_COUNTS[GROUP_COUNTS.len() - 1];

    let mut report = Report::new(CONSUMER_FANOUT.name);
    report.table(
        "consumer fan-out (1 topic x 4 partitions, 1200 rec/s produce, \
         2 groups of 3 replicas)",
        [
            "groups",
            "fetch target",
            "leader CPU (%)",
            "follower reads",
            "leader reads",
            "consumed",
        ],
        combos
            .iter()
            .zip(runs.iter())
            .map(|(&(g, fanout), r)| {
                vec![
                    format!("{g}"),
                    if fanout { "followers" } else { "leader" }.into(),
                    format!("{:.1}", r.leader_cpu_pct),
                    format!("{}", r.follower_reads),
                    format!("{}", r.leader_reads),
                    format!("{}", r.consumed),
                ]
            })
            .collect(),
    );
    let fan = cell(max_groups, true);
    let solo = cell(max_groups, false);
    let cpu_ratio = fan.leader_cpu_pct / solo.leader_cpu_pct.max(1e-9);
    report.headline(
        &format!("leader CPU at {max_groups} groups, fan-out / leader-only"),
        "<= 0.85x",
        &format!("{cpu_ratio:.2}x"),
    );
    let growth = cell(max_groups, true).leader_cpu_pct / cell(1, true).leader_cpu_pct.max(1e-9);
    report.headline(
        &format!("fan-out leader CPU growth, 1 -> {max_groups} groups"),
        "<= 2x (sublinear)",
        &format!("{growth:.2}x"),
    );
    report.note(
        "every consumer group pins its fetches to one replica of the\n\
         partition's group, so added groups land on followers; the leader\n\
         keeps paying only for replication and its own share of fetches.",
    );
    assert!(
        cpu_ratio <= 0.85,
        "follower fan-out must unload the leaders: {:.1}% vs {:.1}% \
         ({cpu_ratio:.2}x)",
        fan.leader_cpu_pct,
        solo.leader_cpu_pct
    );
    assert!(
        growth <= 2.0,
        "{}x more groups must cost the leaders under 2x CPU, got {growth:.2}x",
        max_groups
    );
    assert!(
        fan.follower_reads > solo.follower_reads,
        "fan-out must move fetches onto followers ({} vs {})",
        fan.follower_reads,
        solo.follower_reads
    );
    for (&(g, fanout), r) in combos.iter().zip(runs.iter()) {
        assert_eq!(
            r.checker_violations, 0,
            "checker violations at groups={g} fanout={fanout}"
        );
        assert!(
            r.consumed > 0,
            "groups={g} fanout={fanout} consumed nothing"
        );
    }
    report
}
