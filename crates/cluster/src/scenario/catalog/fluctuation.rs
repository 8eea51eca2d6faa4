//! Network-fluctuation adaptivity experiments: Fig. 6a/6b (RTT, §IV-C1)
//! and Fig. 7 (packet loss, §IV-C2). No failures, no client load; the link
//! follows a schedule while the driver samples the tuned parameters.
//!
//! **RTT** — the link RTT follows the paper's gradual (50→200→50 ms in
//! 10 ms steps) or radical (50→500→50 ms) schedule while we sample, once
//! per second, the third-smallest randomizedTimeout across the five servers
//! (the majority representative, since pre-vote requires f+1 expiries to
//! depose a leader) plus the scheduled RTT. Out-of-service shading comes
//! from the leaderless intervals of the event log.
//!
//! **Loss** — RTT fixed at 200 ms; the loss rate climbs 0→30 % in 5-point
//! steps and back down, each level held (paper: 3 minutes). Dynatune
//! (h = Et/K(p,x)) is compared against Fix-K (K = 10). We record the
//! leader's mean applied heartbeat interval and the CPU utilization of the
//! leader and one follower in 5 s windows (docker-stats style, 2-core cap →
//! 200 %).

use crate::observers::{count_events, leaderless_intervals, total_leaderless_secs};
use crate::scenario::{
    Horizon, NetPlan, Report, RunCtx, Scenario, ScenarioBuilder, ScenarioDriver,
};
use dynatune_core::TuningConfig;
use dynatune_raft::RaftEvent;
use dynatune_simnet::{CongestionConfig, LinkSchedule, NetParams, SimTime};
use dynatune_stats::table::{multi_series_csv, series_csv};
use dynatune_stats::{ResamplePolicy, TimeSeries};
use std::time::Duration;

/// Servers in the RTT experiments (paper: 5).
const RTT_SERVERS: usize = 5;
/// Per-packet jitter coefficient of variation under the RTT schedules (WAN
/// realism; see DESIGN.md on why gaps must scale with RTT).
const RTT_JITTER_CV: f64 = 0.10;
/// Congestion bursts under the RTT schedules.
const RTT_CONGESTION: CongestionConfig = CongestionConfig {
    mean_interval: Some(Duration::from_secs(20)),
    duration: (Duration::from_millis(100), Duration::from_millis(400)),
    scale: 0.6,
};
/// Sampling interval of the RTT series (paper: 1 s).
const RTT_SAMPLE_EVERY: Duration = Duration::from_secs(1);

/// Which fluctuation pattern to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RttPattern {
    /// 50 → 200 → 50 ms in 10 ms steps, each held `hold` (paper: 60 s).
    Gradual,
    /// 50 ms for `hold`, then 500 ms for `hold`, then back (paper: 60 s).
    Radical,
}

impl RttPattern {
    fn schedule(self, hold: Duration) -> LinkSchedule {
        let base = NetParams::clean(Duration::from_millis(50)).with_jitter(RTT_JITTER_CV);
        match self {
            RttPattern::Gradual => LinkSchedule::gradual_rtt_ramp(
                base,
                Duration::from_millis(50),
                Duration::from_millis(200),
                Duration::from_millis(10),
                hold,
            ),
            RttPattern::Radical => LinkSchedule::radical_rtt_step(
                base,
                Duration::from_millis(50),
                Duration::from_millis(500),
                hold,
            ),
        }
    }

    /// Total experiment duration at `hold` per RTT level.
    fn duration(self, hold: Duration) -> Duration {
        match self {
            RttPattern::Gradual => hold * 31, // 16 up + 15 down levels
            RttPattern::Radical => hold * 3,
        }
    }
}

/// Time series output of one run.
#[derive(Debug, Clone)]
pub struct RttFlucSeries {
    /// Sample times (seconds).
    pub t: Vec<f64>,
    /// Third-smallest randomizedTimeout at each sample (ms).
    pub third_smallest_rto_ms: Vec<f64>,
    /// Scheduled RTT at each sample (ms).
    pub rtt_ms: Vec<f64>,
    /// Leaderless (OTS) intervals, in seconds.
    pub ots_intervals: Vec<(f64, f64)>,
    /// Total OTS seconds.
    pub total_ots_secs: f64,
    /// Number of election-timer expiries observed after warm-up.
    pub timeouts_observed: usize,
    /// Number of *completed* term changes (real elections with a winner).
    pub leader_changes: usize,
}

/// Run one RTT-fluctuation experiment: `tuning` is the system under test
/// (Raft / Raft-Low / Dynatune), `hold` the time per RTT level. Disabling
/// `pre_vote` (etcd default: on) shows how much of Dynatune's
/// no-OTS-on-false-detection story rests on it.
#[must_use]
pub fn measure_rtt_fluctuation(
    tuning: TuningConfig,
    pattern: RttPattern,
    hold: Duration,
    seed: u64,
    pre_vote: bool,
) -> RttFlucSeries {
    // The schedule starts at t=0, so sampling starts immediately and the
    // figure shows the warm-up, as the paper's plots do.
    let cluster_cfg = ScenarioBuilder::cluster(RTT_SERVERS)
        .tuning(tuning)
        .net(NetPlan::uniform_schedule(pattern.schedule(hold)))
        .congestion(RTT_CONGESTION)
        .pre_vote(pre_vote)
        .seed(seed)
        .build();
    let run = ScenarioDriver::new(cluster_cfg)
        .sample_every(RTT_SAMPLE_EVERY)
        .horizon(Horizon::At(pattern.duration(hold)))
        .run();

    let horizon = run.horizon;
    let mut out_t = Vec::new();
    let mut out_rto = Vec::new();
    let mut out_rtt = Vec::new();
    for s in &run.samples {
        // The majority-representative (third-smallest of five) timeout.
        if let Some(rto) = s.majority_rto_ms {
            out_rto.push(rto);
            out_t.push(s.t.as_secs_f64());
            out_rtt.push(s.rtt_ms);
        }
    }
    let events = run.sim.events();
    let gaps = leaderless_intervals(&events, horizon);
    // Skip the initial election when counting: warm-up ends once the first
    // leader exists (~2 s in).
    let warm = SimTime::from_secs(5);
    let timeouts_observed = count_events(&events, warm, horizon, |e| {
        matches!(e, RaftEvent::ElectionTimeout { .. })
    });
    let leader_changes = count_events(&events, warm, horizon, |e| {
        matches!(e, RaftEvent::BecameLeader { .. })
    });
    RttFlucSeries {
        t: out_t,
        third_smallest_rto_ms: out_rto,
        rtt_ms: out_rtt,
        total_ots_secs: total_leaderless_secs(&gaps),
        ots_intervals: gaps,
        timeouts_observed,
        leader_changes,
    }
}

/// The three systems the RTT figures compare.
fn rtt_systems() -> [(&'static str, TuningConfig); 3] {
    [
        ("dynatune", TuningConfig::dynatune()),
        ("raft", TuningConfig::raft_default()),
        ("raft_low", TuningConfig::raft_low()),
    ]
}

/// Run one RTT pattern for every system and assemble the shared report
/// shape (summary table + per-system series/OTS artifacts).
fn rtt_report(
    report_name: &str,
    ctx: &RunCtx,
    pattern: RttPattern,
    hold: Duration,
    expectation: &str,
) -> Report {
    let mut report = Report::new(report_name);
    let mut rows = Vec::new();
    for (name, tuning) in rtt_systems() {
        let s = measure_rtt_fluctuation(tuning, pattern, hold, ctx.system_seed(name), true);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", s.total_ots_secs),
            format!("{}", s.timeouts_observed),
            format!("{}", s.leader_changes),
            format!("{}", s.t.len()),
        ]);
        series_artifacts(&mut report, report_name, name, &s);
    }
    report.table(
        "summary",
        [
            "system",
            "total OTS (s)",
            "timer expiries",
            "leader changes",
            "samples",
        ],
        rows,
    );
    report.note(expectation.to_string());
    report
}

fn series_artifacts(report: &mut Report, fig: &str, system: &str, s: &RttFlucSeries) {
    let rto: Vec<(f64, f64)> =
        s.t.iter()
            .zip(&s.third_smallest_rto_ms)
            .map(|(&t, &v)| (t, v))
            .collect();
    let rtt: Vec<(f64, f64)> = s.t.iter().zip(&s.rtt_ms).map(|(&t, &v)| (t, v)).collect();
    report.artifact(
        &format!("{fig}_{system}.csv"),
        multi_series_csv(
            "t_secs",
            &[("randomized_timeout_ms", &rto), ("rtt_ms", &rtt)],
        ),
    );
    let ots_csv: String = std::iter::once("start_s,end_s\n".to_string())
        .chain(s.ots_intervals.iter().map(|(a, b)| format!("{a},{b}\n")))
        .collect();
    report.artifact(&format!("{fig}_{system}_ots.csv"), ots_csv);
}

/// Fig. 6a: gradual RTT fluctuation (50→200→50 ms in 10 ms steps),
/// third-smallest randomizedTimeout + RTT + OTS shading, for Dynatune,
/// Raft and Raft-Low.
pub const FIG6A: Scenario = Scenario {
    name: "fig6a",
    describe: "gradual RTT fluctuation 50->200->50ms (10ms steps)",
    headline_metric: "randomized-timeout adaptation under a gradual RTT ramp (paper Fig. 6a)",
    ci_assertion: "runs end-to-end; traces reported, not asserted",
    run: fig6a,
};

fn fig6a(ctx: &RunCtx) -> Report {
    let hold = if ctx.quick {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(60) // paper: one minute per step
    };
    rtt_report(
        FIG6A.name,
        ctx,
        RttPattern::Gradual,
        hold,
        "paper expectation: Dynatune tracks RTT with zero OTS; Raft flat ~1700ms,\n\
         zero OTS; Raft-Low suffers OTS once RTT approaches its 100-200ms timeout\n\
         band (paper: ~15s outage near t=500s, then ~10 minutes as RTT keeps rising).",
    )
}

/// Fig. 6b: radical RTT fluctuation (50→500→50 ms, one minute each), for
/// the same three systems.
pub const FIG6B: Scenario = Scenario {
    name: "fig6b",
    describe: "radical RTT fluctuation 50->500->50ms (1 minute holds)",
    headline_metric: "false-detection behaviour on a radical RTT step (paper Fig. 6b)",
    ci_assertion: "runs end-to-end; traces reported, not asserted",
    run: fig6b,
};

fn fig6b(ctx: &RunCtx) -> Report {
    let hold = if ctx.quick {
        Duration::from_secs(15)
    } else {
        Duration::from_secs(60)
    };
    rtt_report(
        FIG6B.name,
        ctx,
        RttPattern::Radical,
        hold,
        "paper expectation: Dynatune false-detects at the step but pre-vote\n\
         aborts on leader contact -> no OTS; Raft rides it out (large Et);\n\
         Raft-Low is leaderless for most of the 500ms minute (vote RTT exceeds\n\
         its randomized timeout, so elections repeat until RTT drops).",
    )
}

/// Loss levels on the way up (mirrored down, peak not repeated).
const LOSS_LEVELS: [f64; 7] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30];
/// Fixed base RTT under the loss staircase (paper: 200 ms).
const LOSS_RTT: Duration = Duration::from_millis(200);
/// Cores per server in the loss experiment (paper: 2).
const LOSS_CORES: usize = 2;
/// Sampling interval for h (paper samples performance every 5 s).
const LOSS_SAMPLE_EVERY: Duration = Duration::from_secs(5);

/// Total duration of the loss staircase at `hold` per level.
fn loss_staircase_duration(hold: Duration) -> Duration {
    LinkSchedule::staircase_duration(LOSS_LEVELS.len(), hold)
}

/// Output series of one run.
#[derive(Debug, Clone)]
pub struct LossFlucSeries {
    /// `(t_secs, leader mean heartbeat interval ms)` samples.
    pub h_ms: Vec<(f64, f64)>,
    /// `(t_secs, loss rate)` of the schedule at each sample.
    pub loss: Vec<(f64, f64)>,
    /// Leader CPU utilization series (percent of one core, 5 s windows).
    pub leader_cpu: TimeSeries,
    /// One follower's CPU utilization series.
    pub follower_cpu: TimeSeries,
    /// Elections (BecameLeader) after warm-up — the paper reports zero
    /// unnecessary elections for both systems.
    pub elections_after_warmup: usize,
    /// The node that led during the run.
    pub leader: usize,
}

/// Run one loss-fluctuation experiment on `n` servers (paper: 5, 17, 65):
/// `tuning` is the system under test (Dynatune or Fix-K; both tune Et),
/// `hold` the time per loss level (paper: 180 s).
#[must_use]
pub fn measure_loss_fluctuation(
    n: usize,
    tuning: TuningConfig,
    hold: Duration,
    seed: u64,
) -> LossFlucSeries {
    let base = NetParams::clean(LOSS_RTT).with_jitter(0.03);
    let schedule = LinkSchedule::loss_staircase(base, &LOSS_LEVELS, hold);
    let cluster_cfg = ScenarioBuilder::cluster(n)
        .tuning(tuning)
        .net(NetPlan::uniform_schedule(schedule))
        .cores(LOSS_CORES)
        .seed(seed)
        .build();
    let run = ScenarioDriver::new(cluster_cfg)
        .sample_every(LOSS_SAMPLE_EVERY)
        .horizon(Horizon::At(loss_staircase_duration(hold)))
        .run();

    let horizon = run.horizon;
    let mut h_ms = Vec::new();
    let mut loss = Vec::new();
    for s in &run.samples {
        if let Some(h) = s.leader_mean_h_ms {
            h_ms.push((s.t.as_secs_f64(), h));
        }
        loss.push((s.t.as_secs_f64(), s.loss));
    }
    let sim = run.sim;
    let leader = sim.leader().unwrap_or(0);
    let follower = (0..n).find(|&i| i != leader).unwrap_or(0);
    let leader_cpu = sim.with_server(leader, |s| s.cpu().utilization_series());
    let follower_cpu = sim.with_server(follower, |s| s.cpu().utilization_series());
    let events = sim.events();
    let elections_after_warmup = count_events(&events, SimTime::from_secs(10), horizon, |e| {
        matches!(e, RaftEvent::BecameLeader { .. })
    });
    LossFlucSeries {
        h_ms,
        loss,
        leader_cpu,
        follower_cpu,
        elections_after_warmup,
        leader,
    }
}

/// Fig. 7: heartbeat-interval adaptation (7a) and CPU utilization (7b)
/// under packet-loss fluctuation 0→30→0 %, RTT 200 ms, for N = 5, 17, 65,
/// Dynatune vs Fix-K (K = 10).
pub const FIG7: Scenario = Scenario {
    name: "fig7",
    describe: "heartbeat interval + CPU under loss ramp 0->30->0% (RTT 200ms, 2 cores)",
    headline_metric: "heartbeat-interval adaptation and leader CPU under loss (paper Fig. 7)",
    ci_assertion: "runs end-to-end; traces reported, not asserted",
    run: fig7,
};

fn mean_between(series: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let vals: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|&(_, v)| v)
        .collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

fn cpu_mean(ts: &TimeSeries) -> f64 {
    let pts = ts.points();
    if pts.is_empty() {
        return f64::NAN;
    }
    pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64
}

fn fig7(ctx: &RunCtx) -> Report {
    let sizes: &[usize] = if ctx.quick { &[5, 17] } else { &[5, 17, 65] };
    let hold = if ctx.quick {
        Duration::from_secs(20)
    } else {
        Duration::from_secs(180) // paper: 3 minutes per level
    };
    let mut report = Report::new(FIG7.name);
    let mut rows = Vec::new();
    for &n in sizes {
        for (name, mut tuning) in [
            ("dynatune", TuningConfig::dynatune()),
            ("fix_k", TuningConfig::fix_k(10)),
        ] {
            let seed = ctx.system_seed(&format!("{name}-n{n}"));
            if ctx.quick {
                // Shrink the id window so loss estimates track the
                // shrunk schedule (window lag = maxListSize x h).
                tuning.max_list_size = 200;
            }
            let s = measure_loss_fluctuation(n, tuning, hold, seed);
            let dur = loss_staircase_duration(hold).as_secs_f64();
            // Clean head (after warm-up) and peak-loss middle.
            let h_clean = mean_between(&s.h_ms, dur * 0.05, dur * 0.077);
            let h_peak = mean_between(&s.h_ms, dur * 0.46, dur * 0.54);
            rows.push(vec![
                name.to_string(),
                format!("{n}"),
                format!("{h_clean:.0}"),
                format!("{h_peak:.0}"),
                format!("{:.1}", cpu_mean(&s.leader_cpu)),
                format!("{:.1}", cpu_mean(&s.follower_cpu)),
                format!("{}", s.elections_after_warmup),
            ]);
            report.artifact(
                &format!("fig7a_{name}_n{n}.csv"),
                series_csv(("t_secs", "h_ms"), &s.h_ms),
            );
            let leader_pts = s.leader_cpu.resample(0.0, dur, 5.0, ResamplePolicy::Last);
            let follower_pts = s.follower_cpu.resample(0.0, dur, 5.0, ResamplePolicy::Last);
            report.artifact(
                &format!("fig7b_{name}_n{n}_leader.csv"),
                series_csv(("t_secs", "cpu_pct"), &leader_pts),
            );
            report.artifact(
                &format!("fig7b_{name}_n{n}_follower.csv"),
                series_csv(("t_secs", "cpu_pct"), &follower_pts),
            );
        }
    }
    report.table(
        "summary",
        [
            "system",
            "N",
            "h@0% (ms)",
            "h@30% (ms)",
            "leader CPU (%)",
            "follower CPU (%)",
            "elections",
        ],
        rows,
    );
    report.note(
        "paper expectation: Dynatune h dips from ~Et (K=1) to ~Et/6 at 30% loss\n\
         and recovers; Fix-K h stays ~Et/10 flat. Fix-K's N=65 leader pegs\n\
         ~100%+ CPU while Dynatune uses less than half under clean conditions,\n\
         peaking with the loss. Neither system triggers unnecessary elections.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_rtt(tuning: TuningConfig, pattern: RttPattern, seed: u64) -> RttFlucSeries {
        // Shrunk holds for test speed.
        measure_rtt_fluctuation(tuning, pattern, Duration::from_secs(10), seed, true)
    }

    #[test]
    fn dynatune_tracks_gradual_rtt() {
        let s = quick_rtt(TuningConfig::dynatune(), RttPattern::Gradual, 21);
        assert!(!s.t.is_empty());
        // At the peak (middle of the run) the RTT is 200ms and Dynatune's
        // randomizedTimeout should sit in the few-hundred-ms range, far
        // below the 1000-2000ms default band.
        let mid = s.t.len() / 2;
        let rto_mid = s.third_smallest_rto_ms[mid];
        assert!((200.0..800.0).contains(&rto_mid), "mid rto {rto_mid}ms");
        assert!(
            (150.0..250.0).contains(&s.rtt_ms[mid]),
            "mid rtt {}",
            s.rtt_ms[mid]
        );
        // Early samples (once warmed, RTT 50ms) are smaller than mid ones.
        let early = s.third_smallest_rto_ms[5].min(s.third_smallest_rto_ms[6]);
        assert!(early < rto_mid, "early {early} < mid {rto_mid}");
        // Dynatune stays available throughout (paper Fig. 6a).
        assert_eq!(s.total_ots_secs, 0.0, "ots: {:?}", s.ots_intervals);
    }

    #[test]
    fn raft_stays_high_and_available() {
        let s = quick_rtt(TuningConfig::raft_default(), RttPattern::Gradual, 22);
        // Raft's randomizedTimeout stays in the default 1000-2000ms band.
        let avg: f64 =
            s.third_smallest_rto_ms.iter().sum::<f64>() / s.third_smallest_rto_ms.len() as f64;
        assert!((1000.0..2000.0).contains(&avg), "raft rto avg {avg}");
        assert_eq!(s.total_ots_secs, 0.0);
    }

    #[test]
    fn raft_low_suffers_ots_under_radical_step() {
        // Raft-Low: Et=100ms. The 50→500ms step exceeds its timeout band,
        // so the paper observes sustained OTS during the high-RTT minute.
        let s = quick_rtt(TuningConfig::raft_low(), RttPattern::Radical, 23);
        assert!(
            s.total_ots_secs > 2.0,
            "raft-low should lose availability: {:?}",
            s.ots_intervals
        );
    }

    #[test]
    fn dynatune_survives_radical_step_without_ots() {
        let s = quick_rtt(TuningConfig::dynatune(), RttPattern::Radical, 24);
        // False detections may occur at the step, but pre-vote absorbs them
        // (paper Fig. 6b): no leadership gap.
        assert_eq!(
            s.total_ots_secs, 0.0,
            "dynatune OTS: {:?} (timeouts {})",
            s.ots_intervals, s.timeouts_observed
        );
    }

    fn quick_loss(n: usize, mut tuning: TuningConfig, seed: u64) -> LossFlucSeries {
        // Shrink holds for test speed; shrink the id window accordingly so
        // the loss estimate's recovery lag (window × h) fits the shrunk
        // schedule, preserving the paper-scale dynamics.
        tuning.max_list_size = 200;
        measure_loss_fluctuation(n, tuning, Duration::from_secs(20), seed)
    }

    #[test]
    fn dynatune_shrinks_h_under_loss_and_recovers() {
        let s = quick_loss(5, TuningConfig::dynatune(), 31);
        assert!(!s.h_ms.is_empty());
        // Partition samples into the clean head, the lossy middle and the
        // clean tail.
        let dur = 20.0 * 13.0;
        let head: Vec<f64> = s
            .h_ms
            .iter()
            .filter(|(t, _)| *t > 10.0 && *t < 20.0)
            .map(|&(_, h)| h)
            .collect();
        let mid: Vec<f64> = s
            .h_ms
            .iter()
            .filter(|(t, _)| *t > dur / 2.0 - 10.0 && *t < dur / 2.0 + 10.0)
            .map(|&(_, h)| h)
            .collect();
        let tail: Vec<f64> = s
            .h_ms
            .iter()
            .filter(|(t, _)| *t > dur - 15.0)
            .map(|&(_, h)| h)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        // Clean network: K=1 ⇒ h ≈ Et ≈ 200ms.
        assert!(mean(&head) > 120.0, "head h {}", mean(&head));
        // 30% loss: K=6 ⇒ h ≈ Et/6 ≈ 35ms.
        assert!(
            mean(&mid) < mean(&head) / 3.0,
            "mid {} vs head {}",
            mean(&mid),
            mean(&head)
        );
        // Recovery at the end.
        assert!(
            mean(&tail) > mean(&mid) * 2.0,
            "tail {} vs mid {}",
            mean(&tail),
            mean(&mid)
        );
    }

    #[test]
    fn fix_k_holds_the_ratio() {
        let s = quick_loss(5, TuningConfig::fix_k(10), 32);
        // Fix-K: h = Et/10 ≈ 20ms regardless of loss.
        let hs: Vec<f64> = s.h_ms.iter().skip(5).map(|&(_, h)| h).collect();
        let mean = hs.iter().sum::<f64>() / hs.len() as f64;
        assert!((10.0..40.0).contains(&mean), "fix-k mean h {mean}");
        // Flat: no sample deviates wildly from the mean.
        let max = hs.iter().copied().fold(0.0, f64::max);
        assert!(max < mean * 2.5, "fix-k h spiked to {max}");
    }

    #[test]
    fn fix_k_leader_burns_more_cpu_than_dynatune() {
        let dt = quick_loss(9, TuningConfig::dynatune(), 33);
        let fk = quick_loss(9, TuningConfig::fix_k(10), 33);
        let mean_cpu = |ts: &TimeSeries| {
            let pts = ts.points();
            pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len().max(1) as f64
        };
        let dt_cpu = mean_cpu(&dt.leader_cpu);
        let fk_cpu = mean_cpu(&fk.leader_cpu);
        assert!(
            fk_cpu > dt_cpu * 1.5,
            "fix-k leader {fk_cpu}% vs dynatune {dt_cpu}%"
        );
        // Followers are cheap for both.
        let dt_f = mean_cpu(&dt.follower_cpu);
        assert!(dt_f < dt_cpu + 5.0, "follower {dt_f}% leader {dt_cpu}%");
    }

    #[test]
    fn no_unnecessary_elections() {
        let s = quick_loss(5, TuningConfig::dynatune(), 34);
        assert_eq!(
            s.elections_after_warmup, 0,
            "loss adaptation must not trigger elections"
        );
    }
}
