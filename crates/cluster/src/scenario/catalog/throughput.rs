//! Peak throughput under open-loop load (paper Fig. 5, §IV-B2).
//!
//! Clients ramp the offered rate in fixed increments, holding each level;
//! for every level we record the completed throughput and the mean latency
//! of requests sent in that level. The paper repeats the ramp 10 times and
//! reports average latency vs. average throughput with throughput standard
//! deviation; peak throughput is the highest completed rate.

use crate::scenario::{
    compare_row, Horizon, Report, RunCtx, Scenario, ScenarioBuilder, ScenarioDriver,
};
use crate::sim::{ClusterConfig, WorkloadSpec};
use dynatune_core::{invariant_violated, TuningConfig};
use dynatune_kv::{OpMix, RateStep, WorkloadGen};
use dynatune_simnet::rng::splitmix64;
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
pub(crate) fn ramp_for(ctx: &RunCtx) -> Vec<RateStep> {
    if ctx.quick {
        WorkloadGen::paper_ramp(16_000.0, 4_000.0, Duration::from_secs(4))
    } else {
        WorkloadGen::paper_ramp(16_000.0, 1_000.0, Duration::from_secs(10))
    }
}

/// Aggregated per-level result.
#[derive(Debug, Clone)]
pub struct LevelResult {
    /// Offered rate (req/s).
    pub offered_rps: f64,
    /// Completed throughput across repeats (req/s).
    pub throughput: OnlineStats,
    /// Mean latency across repeats (ms).
    pub latency_ms: OnlineStats,
}

/// Full study result.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// One entry per offered-load level.
    pub levels: Vec<LevelResult>,
}

impl ThroughputResult {
    /// Peak completed throughput (req/s): the paper's headline number.
    #[must_use]
    pub fn peak_throughput(&self) -> f64 {
        self.levels
            .iter()
            .map(|l| l.throughput.mean())
            .fold(0.0, f64::max)
    }

    /// `(throughput, latency)` points for the Fig. 5 curve.
    #[must_use]
    pub fn curve(&self) -> Vec<(f64, f64)> {
        self.levels
            .iter()
            .map(|l| (l.throughput.mean(), l.latency_ms.mean()))
            .collect()
    }
}

/// Run repetition `repeat` of the `ramp` on a copy of `cluster` (workload
/// attached here); returns per-level `(offered, completed/s, mean latency
/// ms)`.
fn run_single_ramp(
    cluster: &ClusterConfig,
    ramp: &[RateStep],
    repeat: usize,
) -> Vec<(f64, f64, f64)> {
    let mut cluster_cfg = cluster.clone();
    let mut seed = cluster.seed ^ (repeat as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    cluster_cfg.seed = splitmix64(&mut seed);
    let total: Duration = SETTLE + ramp.iter().map(|step| step.hold).sum::<Duration>();
    cluster_cfg.workload = Some(WorkloadSpec {
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
    });
    // Run through the whole ramp plus the drain period (no faults: an empty
    // plan on the scenario driver).
    let run = ScenarioDriver::new(cluster_cfg)
        .horizon(Horizon::At(total + DRAIN))
        .run();
    let Some(steps) = run.sim.client_steps() else {
        invariant_violated!(
            "throughput run has no client host — the config above always \
             attaches a workload"
        );
    };
    steps
        .iter()
        .map(|s| (s.offered_rps, s.throughput(), s.latency_ms.mean()))
        .collect()
}

/// Run the `ramp` `repeats` times (in parallel) and aggregate per level.
#[must_use]
pub fn measure_ramp(
    cluster: &ClusterConfig,
    ramp: &[RateStep],
    repeats: usize,
) -> ThroughputResult {
    let runs: Vec<Vec<(f64, f64, f64)>> = (0..repeats)
        .into_par_iter()
        .map(|r| run_single_ramp(cluster, ramp, r))
        .collect();
    let n_levels = runs.first().map_or(0, Vec::len);
    let mut levels = Vec::with_capacity(n_levels);
    for level in 0..n_levels {
        let mut throughput = OnlineStats::new();
        let mut latency = OnlineStats::new();
        let mut offered = 0.0;
        for run in &runs {
            let (o, tput, lat) = run[level];
            offered = o;
            throughput.push(tput);
            if lat.is_finite() && lat > 0.0 {
                latency.push(lat);
            }
        }
        levels.push(LevelResult {
            offered_rps: offered,
            throughput,
            latency_ms: latency,
        });
    }
    ThroughputResult { levels }
}

/// Fig. 5: latency-vs-throughput ramps, Raft vs Dynatune; reports peak
/// throughput and the tuning overhead.
pub const FIG5: Scenario = Scenario {
    name: "fig5",
    describe: "throughput vs latency (open-loop ramp, 5 servers, RTT 100ms)",
    headline_metric: "peak committed throughput and the tuning overhead at peak (paper Fig. 5)",
    ci_assertion: "runs end-to-end; peaks reported against the paper, not asserted",
    run: fig5,
};

fn fig5(ctx: &RunCtx) -> Report {
    let study = |label: &str, tuning: TuningConfig| {
        let cluster = ScenarioBuilder::cluster(5)
            .tuning(tuning)
            .seed(ctx.system_seed(label))
            .build();
        measure_ramp(&cluster, &ramp_for(ctx), ctx.repeats_or(10, 2))
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

    let raft_peak = raft.peak_throughput();
    let dt_peak = dynatune.peak_throughput();
    report.table(
        "peak throughput",
        ["metric", "paper", "measured", "ratio"],
        vec![
            compare_row("Raft peak throughput (req/s)", 13_678.0, raft_peak),
            compare_row("Dynatune peak throughput (req/s)", 12_800.0, dt_peak),
        ],
    );
    report.headline(
        "tuning overhead at peak",
        "6.4%",
        &format!("{:.1}%", (1.0 - dt_peak / raft_peak) * 100.0),
    );
    report.artifact(
        "fig5_raft.csv",
        series_csv(("throughput_rps", "latency_ms"), &raft.curve()),
    );
    report.artifact(
        "fig5_dynatune.csv",
        series_csv(("throughput_rps", "latency_ms"), &dynatune.curve()),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ramp_saturates() {
        // A miniature version of Fig. 5: 3 servers, ramp to 20k in 5k steps,
        // 2s holds, single repeat. The default cost model saturates around
        // 13-14k req/s, so the last levels must stop tracking offered load.
        let cluster = ClusterConfig::stable(
            3,
            TuningConfig::raft_default(),
            Duration::from_millis(10),
            11,
        );
        let ramp = WorkloadGen::paper_ramp(20_000.0, 5_000.0, Duration::from_secs(2));
        let res = measure_ramp(&cluster, &ramp, 1);
        assert_eq!(res.levels.len(), 4);
        // Low levels keep up with offered load.
        let l0 = &res.levels[0];
        assert!(
            l0.throughput.mean() > l0.offered_rps * 0.85,
            "level 0: offered {} got {}",
            l0.offered_rps,
            l0.throughput.mean()
        );
        // The top level is far beyond capacity.
        let top = res.levels.last().unwrap();
        assert!(
            top.throughput.mean() < top.offered_rps * 0.9,
            "top level should saturate: offered {} got {}",
            top.offered_rps,
            top.throughput.mean()
        );
        let peak = res.peak_throughput();
        assert!(
            (8_000.0..18_000.0).contains(&peak),
            "peak should be near the CPU-model capacity: {peak}"
        );
        // Latency grows with saturation.
        let lat_low = res.levels[0].latency_ms.mean();
        let lat_high = res.levels[3].latency_ms.mean();
        assert!(lat_high > lat_low, "latency {lat_low} -> {lat_high}");
    }
}
