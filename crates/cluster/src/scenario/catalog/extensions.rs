//! §IV-E future-work extensions study: heartbeat suppression under load
//! and the consolidated heartbeat timer.

use super::failover::{run_trials, FailoverConfig};
use super::throughput::{measure_ramp, ramp_for};
use super::wired;
use crate::scenario::{
    Horizon, NetPlan, Report, RunCtx, Scenario, ScenarioBuilder, ScenarioDriver,
};
use crate::CostModel;
use dynatune_core::TuningConfig;
use std::time::Duration;

struct Variant {
    name: &'static str,
    tuning: TuningConfig,
    suppress: bool,
    consolidated: bool,
}

fn variants() -> Vec<Variant> {
    vec![
        Variant {
            name: "raft",
            tuning: TuningConfig::raft_default(),
            suppress: false,
            consolidated: false,
        },
        Variant {
            name: "dynatune",
            tuning: TuningConfig::dynatune(),
            suppress: false,
            consolidated: false,
        },
        Variant {
            name: "dynatune+suppress",
            tuning: TuningConfig::dynatune(),
            suppress: true,
            consolidated: false,
        },
        Variant {
            name: "dynatune+consolidated",
            tuning: TuningConfig::dynatune(),
            suppress: false,
            consolidated: true,
        },
        Variant {
            name: "dynatune+both",
            tuning: TuningConfig::dynatune(),
            suppress: true,
            consolidated: true,
        },
    ]
}

fn cluster_for(v: &Variant, seed: u64) -> crate::ClusterConfig {
    ScenarioBuilder::cluster(5)
        .tuning(v.tuning)
        .extensions(v.suppress, v.consolidated)
        .seed(seed)
        .build()
}

/// Peak throughput, failover sanity, and leader timer load for the two
/// §IV-E extensions (suppress-while-replicating, consolidated timer).
pub const EXTENSIONS: Scenario = Scenario {
    name: "extensions",
    describe: "IV-E extensions: heartbeat suppression under load + consolidated heartbeat timer",
    headline_metric: "leader timer load and CPU under the SIV-E heartbeat extensions",
    ci_assertion: "asserts no extension costs more than 5% of plain Dynatune's peak or 1.5x its \
                   detection time",
    run: extensions,
};

fn extensions(ctx: &RunCtx) -> Report {
    let mut report = Report::new(EXTENSIONS.name);

    // 1. Peak throughput per variant (the overhead the extensions
    //    target).
    let repeats = ctx.repeats_or(5, 2);
    let ramp = ramp_for(ctx);
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for v in variants() {
        let cluster = cluster_for(&v, ctx.system_seed(&format!("tput-{}", v.name)));
        let peak = measure_ramp(&cluster, &ramp, repeats).peak_throughput();
        let baseline = *peaks.first().unwrap_or(&peak);
        rows.push(vec![
            v.name.to_string(),
            format!("{peak:.0}"),
            format!("{:+.1}%", (peak / baseline - 1.0) * 100.0),
        ]);
        peaks.push(peak);
    }
    report.table(
        "[1/3] peak throughput (the overhead the extensions target)",
        ["variant", "peak (req/s)", "vs raft"],
        rows,
    );

    // 2. Failover sanity: the extensions must not slow detection.
    let trials = ctx.trials_or(200, 20);
    let mut rows = Vec::new();
    let mut detections = Vec::new();
    for v in variants() {
        let res = run_trials(&FailoverConfig::new(
            cluster_for(&v, ctx.system_seed(&format!("failover-{}", v.name))),
            trials,
        ));
        let detection = res.detection_stats().mean();
        rows.push(vec![
            v.name.to_string(),
            format!("{detection:.0}"),
            format!("{:.0}", res.ots_stats().mean()),
        ]);
        detections.push(detection);
    }
    report.table(
        "[2/3] failover under the extensions (must not regress)",
        ["variant", "detection (ms)", "OTS (ms)"],
        rows,
    );

    // 3. Leader wake rate with per-path intervals (geo topology): the
    //    consolidated timer's actual saving.
    let mut rows = Vec::new();
    for consolidated in [false, true] {
        let cfg = ScenarioBuilder::cluster(5)
            .tuning(TuningConfig::dynatune())
            .net(NetPlan::geo())
            // Keep the link clean so the CPU delta isolates timer load.
            .congestion(dynatune_simnet::CongestionConfig::disabled())
            .extensions(false, consolidated)
            .cost(CostModel {
                per_timer_wake: Duration::from_micros(200),
                ..CostModel::default()
            })
            .cores(2)
            .seed(ctx.system_seed("timer-load"))
            .build();
        let run = ScenarioDriver::new(cfg)
            .horizon(Horizon::At(Duration::from_secs(120)))
            .run();
        let sim = run.sim;
        let leader = wired(sim.leader(), "a fault-free 120s run keeps its leader");
        let cpu = sim.with_server(leader, |s| {
            s.cpu().mean_utilization(
                dynatune_simnet::SimTime::from_secs(60),
                dynatune_simnet::SimTime::from_secs(120),
            )
        });
        let sent = sim.net_counters().sent;
        rows.push(vec![
            if consolidated {
                "consolidated"
            } else {
                "per-follower timers"
            }
            .to_string(),
            format!("{cpu:.1}"),
            format!("{sent}"),
        ]);
    }
    report.table(
        "[3/3] leader timer load on a geo cluster (per-path h differs)",
        ["variant", "leader CPU (%)", "heartbeats sent"],
        rows,
    );
    report.note(
        "(consolidated mode aligns all heartbeats on the smallest tuned interval:\n\
         fewer leader wake-ups at the cost of extra heartbeats on slow paths —\n\
         the trade-off §IV-E describes)",
    );

    // Neither extension may regress plain Dynatune (row 1): peak throughput
    // within 5 %, detection within 1.5x. The consolidated timer's extra
    // heartbeats and longer OTS are reported only.
    for (i, v) in variants().iter().enumerate().skip(2) {
        assert!(
            peaks[i] >= peaks[1] * 0.95 && detections[i] <= detections[1] * 1.5,
            "{}: peak {:.0} req/s, detection {:.0} ms vs dynatune {:.0} req/s, {:.0} ms",
            v.name,
            peaks[i],
            detections[i],
            peaks[1],
            detections[1]
        );
    }
    report
}
