//! Beyond-paper scenarios: failover on a geo mesh with one asymmetrically
//! degraded region (a [`NetPlan`] with per-pair overrides), and
//! flapping-partition churn (a cut/heal loop on the
//! [`ClusterSim`](crate::ClusterSim)).

use super::failover::{assert_mostly_complete, run_trials, FailoverConfig};
use crate::observers::{election_safety_violations, leaderless_intervals, total_leaderless_secs};
use crate::scenario::{reduction_pct, NetPlan, Report, RunCtx, Scenario, ScenarioBuilder};
use dynatune_core::TuningConfig;
use dynatune_raft::RaftEvent;
use dynatune_simnet::{geo_rtt, LinkSchedule, NetParams, Region, SimTime};
use std::time::Duration;

/// Failover on a geo topology whose Tokyo links are asymmetrically
/// degraded: every path touching Tokyo runs at 3× its baseline RTT with
/// heavy jitter, while the rest of the mesh is healthy.
///
/// Static Raft must provision its global election timeout for the worst
/// path; Dynatune tunes per path, so the healthy (London–California–...)
/// majority keeps fast detection despite the degraded region. The old API
/// had no vocabulary for "geo mesh with per-pair overrides" — it took
/// manual `Topology` surgery in every caller.
pub const GEO_ASYMMETRIC: Scenario = Scenario {
    name: "geo_asymmetric",
    describe: "failover on a geo mesh with one region (Tokyo) at 3x RTT + heavy jitter",
    headline_metric: "detection reduction when one WAN pair degrades asymmetrically",
    ci_assertion: "asserts >= 50% detection reduction with one region degraded",
    run: geo_asymmetric,
};

/// The degraded-region mesh: Tokyo (node 0) pairs at 3× RTT + jitter.
fn asymmetric_geo() -> NetPlan {
    let regions = Region::ALL.to_vec();
    let overrides = (1..regions.len())
        .map(|other| {
            let base = geo_rtt(regions[0], regions[other]);
            let degraded = NetParams::wan(base * 3).with_jitter(0.25);
            (0, other, LinkSchedule::constant(degraded))
        })
        .collect();
    NetPlan::GeoDegraded { regions, overrides }
}

fn geo_asymmetric(ctx: &RunCtx) -> Report {
    let trials = ctx.trials_or(300, 25);
    let study = |label: &str, tuning: TuningConfig| {
        let cluster = ScenarioBuilder::cluster(5)
            .tuning(tuning)
            .net(asymmetric_geo())
            .cores(2)
            .seed(ctx.system_seed(label));
        let mut cfg = FailoverConfig::new(cluster, trials);
        cfg.warmup = Duration::from_secs(40);
        run_trials(&cfg)
    };
    let raft = study("raft", TuningConfig::raft_default());
    let dynatune = study("dynatune", TuningConfig::dynatune());

    let raft_det = raft.detection_stats().mean();
    let dt_det = dynatune.detection_stats().mean();
    let mut report = Report::new(GEO_ASYMMETRIC.name);
    report.table(
        "failover with one degraded region",
        ["system", "detection (ms)", "OTS (ms)", "mean rto (ms)"],
        vec![
            vec![
                "raft".to_string(),
                format!("{raft_det:.0}"),
                format!("{:.0}", raft.ots_stats().mean()),
                format!("{:.0}", raft.mean_rto_ms()),
            ],
            vec![
                "dynatune".to_string(),
                format!("{dt_det:.0}"),
                format!("{:.0}", dynatune.ots_stats().mean()),
                format!("{:.0}", dynatune.mean_rto_ms()),
            ],
        ],
    );
    report.headline(
        "detection reduction (degraded region)",
        "n/a (beyond paper)",
        &format!("{:.0}%", reduction_pct(raft_det, dt_det)),
    );
    report.note(
        "per-path tuning keeps the healthy majority's timeouts matched to their\n\
         own RTTs; a global worst-case constant would pay the degraded region's\n\
         3x RTT everywhere.",
    );
    assert_mostly_complete(&[("raft", &raft), ("dynatune", &dynatune)]);
    assert!(
        dt_det < raft_det * 0.5,
        "degraded-region detection {dt_det:.0} ms vs raft {raft_det:.0} ms"
    );
    report
}

/// Flapping-partition churn: the live leader (resolved at each cut) plus
/// one follower are repeatedly cut away and healed on a fixed cadence.
///
/// This is the classic hazard scenario for aggressive election timeouts:
/// every heal readmits a stale ex-leader. The report checks availability
/// (leaderless seconds) and election safety (at most one leader per term)
/// across the churn.
pub const PARTITION_CHURN: Scenario = Scenario {
    name: "partition_churn",
    describe: "flapping leader-partition churn: repeated cut/heal cycles, safety + availability",
    headline_metric: "safety and re-election behaviour through flapping partition cuts",
    ci_assertion: "asserts zero election-safety violations across every churn cycle",
    run: partition_churn,
};

fn partition_churn(ctx: &RunCtx) -> Report {
    let cycles = ctx.scale(12, 4);
    let down = Duration::from_secs(12);
    let up = Duration::from_secs(18);
    let start = Duration::from_secs(30);
    let mut report = Report::new(PARTITION_CHURN.name);
    let mut rows = Vec::new();
    for (label, tuning) in [
        ("raft", TuningConfig::raft_default()),
        ("dynatune", TuningConfig::dynatune()),
    ] {
        let mut sim = ScenarioBuilder::cluster(5)
            .tuning(tuning)
            .seed(ctx.system_seed(label))
            .build_sim();
        let mut cuts = 0;
        let mut cut = SimTime::ZERO + start;
        let mut healed = cut;
        for _ in 0..cycles {
            sim.run_until(cut);
            // The leader plus the first follower by id.
            if let Some(leader) = sim.leader() {
                sim.partition(&[leader, usize::from(leader == 0)]);
                cuts += 1;
            }
            healed = cut + down;
            sim.run_until(healed);
            sim.heal_partition();
            cut = healed + up;
        }
        let horizon = healed + Duration::from_secs(20);
        sim.run_until(horizon);
        let events = sim.events();
        // Election safety across the whole churn.
        let violations = election_safety_violations(&events);
        let leader_changes = events
            .iter()
            .filter(|(_, _, ev)| matches!(ev, RaftEvent::BecameLeader { .. }))
            .count();
        let gaps = leaderless_intervals(&events, horizon);
        rows.push(vec![
            label.to_string(),
            format!("{cuts}/{cycles}"),
            format!("{:.1}", total_leaderless_secs(&gaps)),
            format!("{leader_changes}"),
            format!("{violations}"),
            format!(
                "{}",
                sim.leader().map_or("none".to_string(), |l| l.to_string())
            ),
        ]);
        // The churn must never break safety, under either system.
        assert_eq!(violations, 0, "{label}: election safety violated");
    }
    report.table(
        &format!("{cycles} cut/heal cycles, leader+1 cut away {down:?}, healed {up:?}"),
        [
            "system",
            "cuts executed",
            "leaderless (s)",
            "leader changes",
            "safety violations",
            "final leader",
        ],
        rows,
    );
    report.note(
        "every cut isolates the *current* leader (resolved at fire time) with one\n\
         follower; the majority re-elects, the heal readmits a stale ex-leader.\n\
         Election safety must hold throughout and the cluster must end led.",
    );
    report
}
