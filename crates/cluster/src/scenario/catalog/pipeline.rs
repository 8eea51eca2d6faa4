//! Replication-pipelining ablation: how many unacked `AppendEntries` a
//! leader keeps in flight per follower.
//!
//! Before pipelining, the leader ran replication as ping-pong: one append
//! per follower, wait for the ack, send the next. Every batch paid a full
//! RTT, so write throughput was capped at `entries_per_append / RTT`
//! regardless of how much the network or the followers could absorb.
//! [`PIPELINE_DEPTH`] sweeps the window (1 = the old ping-pong) against
//! RTT and pins the claim that motivated the change: at WAN-ish RTTs a
//! deeper window multiplies committed write throughput.

use super::wired;
use crate::scenario::{NetPlan, Report, RunCtx, Scenario, ScenarioBuilder};
use crate::sim::WorkloadSpec;
use dynatune_core::TuningConfig;
use dynatune_kv::OpMix;
use dynatune_simnet::SimTime;
use rayon::prelude::*;
use std::time::Duration;

/// Windows swept; 1 recovers the pre-pipelining ping-pong baseline.
const WINDOWS: [usize; 4] = [1, 2, 4, 8];

/// RTTs swept (ms). 50 ms — a cross-region but same-continent link — is
/// the headline point; 10 ms barely stresses the window, 200 ms is where
/// it dominates.
const RTTS_MS: [u64; 3] = [10, 50, 200];

/// Offered write load. Far above the window-1 ceiling at 50 ms RTT
/// (`64 entries / 50 ms` ≈ 1 280 op/s) and comfortably under the deeper
/// windows' capacity, so the ratio measures the replication ceiling, not
/// the offered rate.
const OFFERED_RPS: f64 = 4_000.0;

/// Per-message entry cap for these runs. Small enough that a single
/// append cannot hide the RTT by itself — the window has to.
const APPEND_CAP: usize = 64;

/// One (window, RTT) cell's measurements.
#[derive(Debug, Clone, PartialEq)]
struct DepthRun {
    committed: u64,
    hold_secs: f64,
    max_log_len: usize,
}

fn depth_run(seed: u64, window: usize, rtt: Duration, hold: Duration) -> DepthRun {
    let mut sim = ScenarioBuilder::cluster(3)
        .tuning(TuningConfig::raft_default())
        .net(NetPlan::stable(rtt))
        .pipeline_window(window)
        .max_entries_per_append(APPEND_CAP)
        .seed(seed)
        // No response timeout: the window-1 baseline saturates and must
        // not pile retry storms on top of its backlog — committed ops is
        // the metric.
        .workload(
            WorkloadSpec::steady(OFFERED_RPS, hold)
                .starting_at(Duration::from_secs(3))
                .mix(OpMix::write_heavy())
                .timeout(None),
        )
        .build_sim();
    let end = SimTime::ZERO + Duration::from_secs(3) + hold + Duration::from_secs(2);
    sim.run_until(end);
    let steps = wired(sim.client_steps(), "the builder attached a workload client");
    DepthRun {
        committed: steps.iter().map(|s| s.completed).sum(),
        hold_secs: hold.as_secs_f64(),
        max_log_len: sim.max_log_len(),
    }
}

/// Sweep the per-follower pipeline window against RTT under a saturating
/// write-heavy load: deeper windows hide the RTT, multiplying committed
/// throughput on slow links.
pub const PIPELINE_DEPTH: Scenario = Scenario {
    name: "pipeline_depth",
    describe: "sweep the replication pipeline window across RTTs under write-heavy load",
    headline_metric: "committed ops, window 8 over window 1 (ping-pong) at 50 ms RTT (>= 1.5x)",
    ci_assertion: "asserts window 8 commits >= 1.5x the ops of window 1 at 50 ms RTT",
    run: pipeline_depth,
};

fn pipeline_depth(ctx: &RunCtx) -> Report {
    let hold = Duration::from_secs(ctx.scale(8, 3) as u64);
    let combos: Vec<(u64, usize)> = RTTS_MS
        .iter()
        .flat_map(|&rtt_ms| WINDOWS.iter().map(move |&w| (rtt_ms, w)))
        .collect();
    let runs: Vec<DepthRun> = combos
        .clone()
        .into_par_iter()
        .map(|(rtt_ms, window)| {
            depth_run(
                ctx.system_seed(&format!("window{window}/rtt{rtt_ms}")),
                window,
                Duration::from_millis(rtt_ms),
                hold,
            )
        })
        .collect();
    let cell = |rtt_ms: u64, window: usize| -> &DepthRun {
        let i = wired(
            combos.iter().position(|&(r, w)| r == rtt_ms && w == window),
            "every (rtt, window) cell queried below was swept above",
        );
        &runs[i]
    };

    let mut report = Report::new(PIPELINE_DEPTH.name);
    report.table(
        &format!(
            "committed write ops by pipeline window (3 servers, {OFFERED_RPS:.0} req/s \
             offered, <= {APPEND_CAP} entries per append)"
        ),
        [
            "RTT",
            "window",
            "committed",
            "throughput (op/s)",
            "max log_len",
        ],
        combos
            .iter()
            .zip(runs.iter())
            .map(|(&(rtt_ms, window), r)| {
                vec![
                    format!("{rtt_ms} ms"),
                    format!("{window}"),
                    format!("{}", r.committed),
                    format!("{:.0}", r.committed as f64 / r.hold_secs),
                    format!("{}", r.max_log_len),
                ]
            })
            .collect(),
    );
    let headline_ratio = cell(50, 8).committed as f64 / cell(50, 1).committed.max(1) as f64;
    report.headline(
        "committed ops, window 8 / window 1 at 50 ms RTT",
        ">= 1.5x",
        &format!("{headline_ratio:.2}x"),
    );
    let wan_ratio = cell(200, 8).committed as f64 / cell(200, 1).committed.max(1) as f64;
    report.headline(
        "committed ops, window 8 / window 1 at 200 ms RTT",
        "grows with RTT",
        &format!("{wan_ratio:.2}x"),
    );
    report.note(
        "window 1 is the retired ping-pong: one append per follower per RTT,\n\
         so the ceiling is entries_per_append / RTT no matter the offered\n\
         load. Deeper windows keep the link full; acks retire out of order\n\
         and the resend timer watches only the oldest unacked send.",
    );
    assert!(
        headline_ratio >= 1.5,
        "pipelining must beat ping-pong by >= 1.5x at 50 ms RTT, got \
         {headline_ratio:.2}x ({} vs {})",
        cell(50, 8).committed,
        cell(50, 1).committed
    );
    assert!(
        wan_ratio >= headline_ratio,
        "the window's win must not shrink as RTT grows: {wan_ratio:.2}x at 200 ms \
         vs {headline_ratio:.2}x at 50 ms"
    );
    for &rtt_ms in &RTTS_MS {
        assert!(
            cell(rtt_ms, 8).committed * 10 >= cell(rtt_ms, 1).committed * 9,
            "a deeper window must never cost throughput (rtt {rtt_ms} ms): {} vs {}",
            cell(rtt_ms, 8).committed,
            cell(rtt_ms, 1).committed
        );
    }
    report
}
