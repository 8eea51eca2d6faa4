//! Peak throughput under open-loop load (paper Fig. 5, §IV-B2).
//!
//! Clients ramp the offered rate in fixed increments, holding each level;
//! for every level we record the completed throughput and the mean latency
//! of requests sent in that level. The paper repeats the ramp 10 times and
//! reports average latency vs. average throughput with throughput standard
//! deviation; peak throughput is the highest completed rate.

use crate::scenario::{compare_row, Report, RunCtx, Scenario, ScenarioBuilder};
use crate::sim::WorkloadSpec;
use dynatune_core::{invariant_violated, TuningConfig};
use dynatune_kv::{OpMix, RateStep, WorkloadGen};
use dynatune_simnet::rng::splitmix64;
use dynatune_simnet::SimTime;
use dynatune_stats::table::series_csv;
use dynatune_stats::OnlineStats;
use rayon::prelude::*;
use std::time::Duration;

/// Leader-settle time before the ramp starts.
const SETTLE: Duration = Duration::from_secs(5);
/// Drain period after the last level, for in-flight requests.
const DRAIN: Duration = Duration::from_secs(5);

/// The offered-load ramp to 16 000 req/s: the paper's (1000 req/s
/// increments held 10 s), or the four-level quick one.
#[must_use]
fn ramp_for(ctx: &RunCtx) -> Vec<RateStep> {
    if ctx.quick {
        WorkloadGen::paper_ramp(16_000.0, 4_000.0, Duration::from_secs(4))
    } else {
        WorkloadGen::paper_ramp(16_000.0, 1_000.0, Duration::from_secs(10))
    }
}

/// Aggregated per-level result.
#[derive(Debug, Clone)]
struct LevelResult {
    /// Offered rate (req/s).
    offered_rps: f64,
    /// Completed throughput across repeats (req/s).
    throughput: OnlineStats,
    /// Mean latency across repeats (ms).
    latency_ms: OnlineStats,
    /// The leader's mean heartbeat interval at the level's end (s).
    h_s: OnlineStats,
}

/// Full study result.
#[derive(Debug, Clone)]
struct ThroughputResult {
    /// One entry per offered-load level.
    levels: Vec<LevelResult>,
}

impl ThroughputResult {
    /// The level of peak completed throughput: the paper's headline number.
    #[must_use]
    fn peak(&self) -> &LevelResult {
        let tput = |l: &LevelResult| l.throughput.mean();
        self.levels.iter().fold(
            &self.levels[0],
            |p, l| if tput(l) > tput(p) { l } else { p },
        )
    }

    /// `(throughput, latency)` points for the Fig. 5 curve.
    #[must_use]
    fn curve(&self) -> Vec<(f64, f64)> {
        self.levels
            .iter()
            .map(|l| (l.throughput.mean(), l.latency_ms.mean()))
            .collect()
    }
}

/// Run repetition `repeat` of the `ramp` on `cluster` (seed derived and
/// workload attached here); returns per-level `(completed/s, mean latency
/// ms, the leader's mean heartbeat interval at the level's end)`.
fn run_single_ramp(
    cluster: &ScenarioBuilder,
    ramp: &[RateStep],
    repeat: usize,
) -> Vec<(f64, f64, Option<Duration>)> {
    let mut seed = cluster.seed ^ (repeat as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let workload = WorkloadSpec {
        steps: ramp.to_vec(),
        mix: OpMix::write_heavy(),
        key_space: 100_000,
        zipf_theta: 0.99,
        value_size: 128,
        start_offset: SETTLE,
        // No failures in this experiment; timeouts would only duplicate
        // requests under saturation and distort the measured throughput.
        request_timeout: None,
        read_fanout: false,
        record_trace: false,
    };
    let mut sim = cluster
        .clone()
        .seed(splitmix64(&mut seed))
        .workload(workload)
        .build_sim();
    // Run through the ramp, level by level, plus the drain period (no faults).
    let mut end = SimTime::ZERO + SETTLE;
    let mut h = Vec::with_capacity(ramp.len());
    for step in ramp {
        end += step.hold;
        sim.run_until(end);
        h.push(sim.leader_mean_heartbeat_interval());
    }
    sim.run_until(end + DRAIN);
    let Some(client) = sim.client() else {
        invariant_violated!(
            "throughput run has no client host — the config above always \
             attaches a workload"
        );
    };
    client
        .steps()
        .iter()
        .zip(h)
        .map(|(s, h)| (s.throughput(), s.latency_ms.mean(), h))
        .collect()
}

/// Run the `ramp` `repeats` times (in parallel) and aggregate per level.
#[must_use]
fn measure_ramp(cluster: &ScenarioBuilder, ramp: &[RateStep], repeats: usize) -> ThroughputResult {
    let runs: Vec<_> = (0..repeats)
        .into_par_iter()
        .map(|r| run_single_ramp(cluster, ramp, r))
        .collect();
    let mut levels = Vec::with_capacity(ramp.len());
    for (level, step) in ramp.iter().enumerate() {
        let mut throughput = OnlineStats::new();
        let mut latency = OnlineStats::new();
        let mut h_s = OnlineStats::new();
        for run in &runs {
            let (tput, lat, h) = run[level];
            throughput.push(tput);
            if lat.is_finite() && lat > 0.0 {
                latency.push(lat);
            }
            if let Some(h) = h {
                h_s.push(h.as_secs_f64());
            }
        }
        levels.push(LevelResult {
            offered_rps: step.rps,
            throughput,
            latency_ms: latency,
            h_s,
        });
    }
    ThroughputResult { levels }
}

/// The peak-throughput overhead (%) the cost model predicts for Dynatune
/// over Raft: the leader's extra heartbeat rounds per second to its
/// `followers` (one send and one received response each, `per_round`
/// together) as a share of its `cores`. Negative when Dynatune paces
/// slower than Raft.
fn predicted_overhead_pct(
    followers: usize,
    h_dynatune: Duration,
    h_raft: Duration,
    per_round: Duration,
    cores: usize,
) -> f64 {
    let extra_rounds_per_s =
        followers as f64 * (1.0 / h_dynatune.as_secs_f64() - 1.0 / h_raft.as_secs_f64());
    extra_rounds_per_s * per_round.as_secs_f64() / cores as f64 * 100.0
}

/// Fig. 5: latency-vs-throughput ramps, Raft vs Dynatune; reports peak
/// throughput and the tuning overhead.
pub const FIG5: Scenario = Scenario {
    name: "fig5",
    describe: "throughput vs latency (open-loop ramp, 5 servers, RTT 100ms)",
    headline_metric: "peak committed throughput and the tuning overhead at peak (paper Fig. 5)",
    ci_assertion: "asserts both ramps keep up at the first level and saturate at 8k-18k req/s \
                   with rising latency, and a tuning overhead at peak within 3.2 points (half \
                   the paper's 6.4%) of the one the leader's heartbeat cadence predicts",
    run: fig5,
};

/// Assert the shape of one system's ramp: the first level keeps up with
/// the offered load, the last is far beyond capacity, the peak sits near
/// the CPU model's capacity, and latency grows with saturation.
fn assert_saturates(system: &str, res: &ThroughputResult, levels: usize) {
    assert_eq!(res.levels.len(), levels, "{system}: ramp levels");
    let (first, top) = (&res.levels[0], &res.levels[levels - 1]);
    let (low, high) = (first.throughput.mean(), top.throughput.mean());
    let peak = res.peak().throughput.mean();
    let (lat_low, lat_high) = (first.latency_ms.mean(), top.latency_ms.mean());
    assert!(
        low > first.offered_rps * 0.85
            && high < top.offered_rps * 0.9
            && (8_000.0..18_000.0).contains(&peak)
            && lat_high > lat_low,
        "{system}: {low:.0} of {:.0} req/s completed at the first level, {high:.0} of {:.0} at \
         the top, peak {peak:.0}, latency {lat_low:.1} -> {lat_high:.1} ms",
        first.offered_rps,
        top.offered_rps
    );
}

fn fig5(ctx: &RunCtx) -> Report {
    let ramp = ramp_for(ctx);
    let base = ScenarioBuilder::cluster(5);
    let study = |label: &str, tuning: TuningConfig| {
        let cluster = base.clone().tuning(tuning).seed(ctx.system_seed(label));
        measure_ramp(&cluster, &ramp, ctx.repeats_or(10, 2))
    };
    let raft = study("raft", TuningConfig::raft_default());
    let dynatune = study("dynatune", TuningConfig::dynatune());

    let mut report = Report::new(FIG5.name);
    report.table(
        "ramp levels",
        [
            "offered (req/s)",
            "raft tput",
            "raft lat (ms)",
            "dynatune tput",
            "dynatune lat (ms)",
        ],
        raft.levels
            .iter()
            .zip(dynatune.levels.iter())
            .map(|(r, d)| {
                vec![
                    format!("{:.0}", r.offered_rps),
                    format!("{:.0}", r.throughput.mean()),
                    format!("{:.1}", r.latency_ms.mean()),
                    format!("{:.0}", d.throughput.mean()),
                    format!("{:.1}", d.latency_ms.mean()),
                ]
            })
            .collect(),
    );

    let (raft_peak, dt_peak) = (raft.peak(), dynatune.peak());
    let (raft_tput, dt_tput) = (raft_peak.throughput.mean(), dt_peak.throughput.mean());
    let (h_raft, h_dynatune) = (raft_peak.h_s.mean(), dt_peak.h_s.mean());
    report.table(
        "peak throughput",
        ["metric", "paper", "measured", "ratio"],
        vec![
            compare_row("Raft peak throughput (req/s)", 13_678.0, raft_tput),
            compare_row("Dynatune peak throughput (req/s)", 12_800.0, dt_tput),
        ],
    );
    let overhead_pct = (1.0 - dt_tput / raft_tput) * 100.0;
    if raft_peak.h_s.count() == 0 || dt_peak.h_s.count() == 0 {
        invariant_violated!("fig5: no repeat has a leader at the end of the peak level");
    }
    let predicted_pct = predicted_overhead_pct(
        base.n_servers() - 1,
        Duration::from_secs_f64(h_dynatune),
        Duration::from_secs_f64(h_raft),
        base.cost.per_message_send + base.cost.per_message_recv,
        base.cores,
    );
    report.headline(
        "tuning overhead at peak",
        "6.4%",
        &format!("{overhead_pct:.1}% ({predicted_pct:.2}% predicted)"),
    );
    report.artifact(
        "fig5_raft.csv",
        series_csv(("throughput_rps", "latency_ms"), &raft.curve()),
    );
    report.artifact(
        "fig5_dynatune.csv",
        series_csv(("throughput_rps", "latency_ms"), &dynatune.curve()),
    );

    assert_saturates("raft", &raft, ramp.len());
    assert_saturates("dynatune", &dynatune, ramp.len());
    // §IV-B2: Dynatune's only extra cost in the model is the heartbeats
    // it sends beyond Raft's, so the measured overhead must sit nearer what
    // that cadence predicts than that plus the paper's 6.4 %: half the
    // paper's effect size, which an unmodelled cost of its size would break.
    assert!(
        (overhead_pct - predicted_pct).abs() < 3.2,
        "tuning overhead {overhead_pct:.1}% at peak, {predicted_pct:.2}% predicted from \
         h = {:.1} ms (raft) and {:.1} ms (dynatune)",
        h_raft * 1e3,
        h_dynatune * 1e3
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUND: Duration = Duration::from_micros(300);

    #[test]
    fn faster_heartbeats_predict_a_positive_overhead() {
        // 4 × (20 − 10) rounds/s × 300 µs = 12 ms busy per second, over 4 cores.
        let pct = predicted_overhead_pct(
            4,
            Duration::from_millis(50),
            Duration::from_millis(100),
            ROUND,
            4,
        );
        assert!((pct - 0.30).abs() < 1e-9, "{pct}");
    }

    #[test]
    fn slower_heartbeats_predict_a_negative_overhead() {
        let pct = predicted_overhead_pct(
            4,
            Duration::from_millis(100),
            Duration::from_millis(50),
            ROUND,
            4,
        );
        assert!((pct + 0.30).abs() < 1e-9, "{pct}");
    }
}
