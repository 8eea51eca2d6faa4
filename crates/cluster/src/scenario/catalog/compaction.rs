//! Compaction / snapshot-transfer scenarios: the memory-bound story.
//!
//! Before snapshot transfer existed, compaction was pinned by the slowest
//! follower (`safe_compact_index = min match_index`), so one crashed node
//! made the leader's log grow without bound — and a follower restarted
//! past the compaction horizon could stall forever (conflict backoff drove
//! `next_index` below `first_index()` and `send_append` silently gave up).
//! These scenarios enforce the post-fix contract on every CI push:
//!
//! * [`LAGGING_FOLLOWER_CATCHUP`] — take a follower down, write far past the
//!   compaction horizon, restart it, and assert it converges via
//!   `InstallSnapshot` while the leader's live log stays within
//!   `threshold + tail` throughout the outage;
//! * [`COMPACTION_CHURN`] — a long-running crash/heal churn across rotating
//!   followers under sustained load, asserting the same bound holds over
//!   repeated snapshot-recovery cycles and that replicas converge at the
//!   end.

use super::wired;
use crate::scenario::{Report, RunCtx, Scenario, ScenarioBuilder};
use crate::server::ServerHost;
use crate::sim::{ClusterSim, WorkloadSpec};
use dynatune_core::TuningConfig;
use dynatune_raft::NodeId;
use dynatune_simnet::SimTime;
use rayon::prelude::*;
use std::time::Duration;

/// Compaction policy the scenarios run with: small enough that a few
/// simulated seconds of writes cross the horizon.
const THRESHOLD: usize = 1_500;
/// Retained tail of applied entries below the compaction point.
const TAIL: u64 = 256;
/// Offered write load (req/s) during the scenarios.
const RPS: f64 = 800.0;

/// The asserted memory bound: compaction triggers at `THRESHOLD` and keeps
/// `TAIL` slack, so the live log must never exceed their sum.
const LOG_BOUND: usize = THRESHOLD + TAIL as usize;

fn cluster(seed: u64, hold: Duration) -> ClusterSim {
    ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::raft_default())
        .compaction(THRESHOLD, TAIL)
        .seed(seed)
        .workload(WorkloadSpec::steady(RPS, hold).starting_at(Duration::from_secs(5)))
        .build_sim()
}

/// Advance `sim` to `deadline` in small steps, tracking the largest live
/// log observed anywhere. The fine grain matters: the bound must hold
/// *throughout* the outage, not just at the end.
fn run_tracking_log(sim: &mut ClusterSim, deadline: SimTime, max_log: &mut usize) {
    while sim.now() < deadline {
        let step = (sim.now() + Duration::from_millis(250)).min(deadline);
        sim.run_until(step);
        let longest = sim.servers().map(ServerHost::log_len).max().unwrap_or(0);
        *max_log = (*max_log).max(longest);
    }
}

/// Digests of all live servers' KV state (replica-convergence check).
fn digests(sim: &ClusterSim) -> Vec<u64> {
    sim.servers()
        .map(|s| s.node().state_machine().digest())
        .collect()
}

fn pick_follower(sim: &ClusterSim) -> (NodeId, NodeId) {
    let leader = wired(sim.leader(), "the settle window elects before the fault");
    let follower = wired(
        (0..sim.n_servers()).find(|&id| id != leader),
        "a 3-replica cluster always has a non-leader",
    );
    (leader, follower)
}

/// One catch-up trial's measurements.
#[derive(Debug, Clone, PartialEq)]
struct CatchupTrial {
    max_log_len: usize,
    snapshots_sent: u64,
    compacted_past_follower: bool,
    follower_applied: u64,
    leader_commit: u64,
    converged: bool,
}

/// Crash a follower, write past the compaction horizon, restart it, and
/// measure how it converges.
fn catchup_trial(seed: u64) -> CatchupTrial {
    let mut sim = cluster(seed, Duration::from_secs(30));
    let mut max_log = 0usize;
    run_tracking_log(&mut sim, SimTime::from_secs(10), &mut max_log);
    let (_, follower) = pick_follower(&sim);
    // The outage: the follower freezes (container-sleep style) while the
    // rest of the cluster commits ~12k entries — far past the horizon.
    sim.pause(follower);
    run_tracking_log(&mut sim, SimTime::from_secs(25), &mut max_log);
    let mid_leader = wired(sim.leader(), "a paused follower cannot cost the majority");
    let first_index = sim.server(mid_leader).node().log().first_index();
    let follower_match = sim.server(follower).node().log().last_index();
    let compacted_past_follower = first_index > follower_match;
    // Restart: volatile state is lost (a crash, not just a sleep) while the
    // applied store survives at its stale index; the node rejoins and must
    // be caught up by snapshot — appends cannot reach below the leader's
    // first_index.
    sim.crash_restart(follower);
    sim.resume(follower);
    run_tracking_log(&mut sim, SimTime::from_secs(45), &mut max_log);
    let ds = digests(&sim);
    let leader = wired(sim.leader(), "the healed cluster re-elects well within 45s");
    CatchupTrial {
        max_log_len: max_log,
        snapshots_sent: sim.servers().map(ServerHost::snapshots_sent).sum(),
        compacted_past_follower,
        follower_applied: sim.server(follower).node().last_applied(),
        leader_commit: sim.server(leader).node().commit_index(),
        converged: ds.iter().all(|&d| d == ds[0]),
    }
}

/// Crash a follower, write past the compaction horizon, restart it: it must
/// converge via `InstallSnapshot` with the leader's log length bounded
/// throughout.
pub const LAGGING_FOLLOWER_CATCHUP: Scenario = Scenario {
    name: "lagging_follower_catchup",
    describe:
        "restart a follower past the compaction horizon: snapshot catch-up, bounded leader log",
    headline_metric:
        "max live log length against the threshold+tail bound during a follower outage",
    ci_assertion: "asserts the log bound, >= 1 snapshot stream, convergence and catch-up per trial",
    run: lagging_follower_catchup,
};

fn lagging_follower_catchup(ctx: &RunCtx) -> Report {
    let trials = ctx.trials_or(4, 2);
    let results: Vec<CatchupTrial> = (0..trials)
        .into_par_iter()
        .map(|i| catchup_trial(ctx.system_seed(&format!("catchup/{i}"))))
        .collect();
    let mut report = Report::new(LAGGING_FOLLOWER_CATCHUP.name);
    let rows = results
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                format!("{i}"),
                format!("{}", t.max_log_len),
                format!("{}", t.snapshots_sent),
                format!("{}", t.compacted_past_follower),
                format!("{}/{}", t.follower_applied, t.leader_commit),
                format!("{}", t.converged),
            ]
        })
        .collect();
    report.table(
        &format!("follower outage past the horizon (threshold {THRESHOLD}, tail {TAIL})"),
        [
            "trial",
            "max log_len",
            "snapshots_sent",
            "compacted past follower",
            "follower applied / leader commit",
            "converged",
        ],
        rows,
    );
    let worst_log = results.iter().map(|t| t.max_log_len).max().unwrap_or(0);
    let total_snaps: u64 = results.iter().map(|t| t.snapshots_sent).sum();
    report.headline(
        "max log_len (bound)",
        &format!("<= {LOG_BOUND}"),
        &format!("{worst_log}"),
    );
    report.headline(
        "snapshots_sent (total)",
        ">= 1/trial",
        &format!("{total_snaps}"),
    );
    report.note(
        "pre-fix this scenario stalled permanently: compaction unpinned from the\n\
         slowest follower + conflict backoff below first_index hit send_append's\n\
         silent early-return, leaving the restarted follower behind forever.",
    );
    // CI enforcement of the bounded-memory and catch-up claims.
    for (i, t) in results.iter().enumerate() {
        assert!(
            t.compacted_past_follower,
            "trial {i}: outage must cross the compaction horizon"
        );
        assert!(
            t.max_log_len <= LOG_BOUND,
            "trial {i}: log grew to {} (> {LOG_BOUND}) — compaction pinned?",
            t.max_log_len
        );
        assert!(t.snapshots_sent >= 1, "trial {i}: no snapshot was streamed");
        assert!(t.converged, "trial {i}: replicas did not converge");
        assert!(
            t.leader_commit - t.follower_applied < 100,
            "trial {i}: follower still {} entries behind",
            t.leader_commit - t.follower_applied
        );
    }
    report
}

/// One churn trial's measurements.
#[derive(Debug, Clone, PartialEq)]
struct ChurnTrial {
    cycles: usize,
    max_log_len: usize,
    snapshots_sent: u64,
    committed: u64,
    converged: bool,
}

fn churn_trial(seed: u64, cycles: usize) -> ChurnTrial {
    // Load runs through the whole churn plus a convergence window.
    let churn_secs = 10 + 12 * cycles as u64;
    let mut sim = cluster(seed, Duration::from_secs(churn_secs));
    let mut max_log = 0usize;
    run_tracking_log(&mut sim, SimTime::from_secs(10), &mut max_log);
    for _cycle in 0..cycles {
        let (_, follower) = pick_follower(&sim);
        // Down for 8s of sustained writes (~6.4k entries — past the
        // horizon), then a crash-restart rejoin.
        sim.pause(follower);
        let t = sim.now() + Duration::from_secs(8);
        run_tracking_log(&mut sim, t, &mut max_log);
        sim.crash_restart(follower);
        sim.resume(follower);
        let t = sim.now() + Duration::from_secs(4);
        run_tracking_log(&mut sim, t, &mut max_log);
    }
    // Quiesce: let the last restarted follower finish catching up.
    let end = SimTime::from_secs(churn_secs + 10);
    run_tracking_log(&mut sim, end, &mut max_log);
    let ds = digests(&sim);
    let steps = wired(sim.client(), "the builder attached a workload client").steps();
    ChurnTrial {
        cycles,
        max_log_len: max_log,
        snapshots_sent: sim.servers().map(ServerHost::snapshots_sent).sum(),
        committed: steps.iter().map(|s| s.completed).sum(),
        converged: ds.iter().all(|&d| d == ds[0]),
    }
}

/// Long-running crash/heal churn: rotating follower outages under
/// sustained load, with the leader's memory bound asserted across every
/// snapshot-recovery cycle.
pub const COMPACTION_CHURN: Scenario = Scenario {
    name: "compaction_churn",
    describe: "repeated follower crash/heal under load: bounded log memory across snapshot cycles",
    headline_metric: "max live log length across repeated crash/heal snapshot-recovery cycles",
    ci_assertion: "asserts the log bound, snapshot streams, convergence and liveness per trial",
    run: compaction_churn,
};

fn compaction_churn(ctx: &RunCtx) -> Report {
    let cycles = ctx.scale(8, 3);
    let trials = ctx.trials_or(3, 2);
    let results: Vec<ChurnTrial> = (0..trials)
        .into_par_iter()
        .map(|i| churn_trial(ctx.system_seed(&format!("churn/{i}")), cycles))
        .collect();
    let mut report = Report::new(COMPACTION_CHURN.name);
    let rows = results
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                format!("{i}"),
                format!("{}", t.cycles),
                format!("{}", t.max_log_len),
                format!("{}", t.snapshots_sent),
                format!("{}", t.committed),
                format!("{}", t.converged),
            ]
        })
        .collect();
    report.table(
        "crash/heal churn under sustained writes",
        [
            "trial",
            "cycles",
            "max log_len",
            "snapshots_sent",
            "committed",
            "converged",
        ],
        rows,
    );
    let worst_log = results.iter().map(|t| t.max_log_len).max().unwrap_or(0);
    let total_snaps: u64 = results.iter().map(|t| t.snapshots_sent).sum();
    report.headline(
        "max log_len across churn (bound)",
        &format!("<= {LOG_BOUND}"),
        &format!("{worst_log}"),
    );
    report.headline(
        "snapshots_sent (total)",
        "grows with cycles",
        &format!("{total_snaps}"),
    );
    report.note(
        "every cycle drops one follower past the compaction horizon and restarts\n\
         it; memory stays bounded because compaction no longer waits for the\n\
         slowest peer, and each rejoin is absorbed by a snapshot stream.",
    );
    for (i, t) in results.iter().enumerate() {
        assert!(
            t.max_log_len <= LOG_BOUND,
            "trial {i}: log grew to {} (> {LOG_BOUND}) under churn",
            t.max_log_len
        );
        assert!(
            t.snapshots_sent >= 1,
            "trial {i}: churn produced no snapshot transfer"
        );
        assert!(
            t.converged,
            "trial {i}: replicas did not converge after churn"
        );
        assert!(t.committed > 0, "trial {i}: cluster stopped serving");
    }
    report
}
