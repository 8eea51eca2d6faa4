//! Peak throughput under open-loop load (paper Fig. 5, §IV-B2).
//!
//! Clients ramp the offered rate in fixed increments, holding each level;
//! for every level we record the completed throughput and the mean latency
//! of requests sent in that level. The paper repeats the ramp 10 times and
//! reports average latency vs. average throughput with throughput standard
//! deviation; peak throughput is the highest completed rate.

use crate::scenario::{compare_row, Report, RunCtx, Scenario, ScenarioBuilder};
use crate::sim::{ClusterConfig, ClusterSim, WorkloadSpec};
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
}

/// Full study result.
#[derive(Debug, Clone)]
struct ThroughputResult {
    /// One entry per offered-load level.
    levels: Vec<LevelResult>,
}

impl ThroughputResult {
    /// Peak completed throughput (req/s): the paper's headline number.
    #[must_use]
    fn peak_throughput(&self) -> f64 {
        self.levels
            .iter()
            .map(|l| l.throughput.mean())
            .fold(0.0, f64::max)
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
    // Run through the whole ramp plus the drain period (no faults).
    let mut sim = ClusterSim::new(&cluster_cfg);
    sim.run_until(SimTime::ZERO + total + DRAIN);
    let Some(steps) = sim.client_steps() else {
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
fn measure_ramp(cluster: &ClusterConfig, ramp: &[RateStep], repeats: usize) -> ThroughputResult {
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
    ci_assertion: "asserts both ramps keep up at the first level and saturate at 8k-18k req/s \
                   with rising latency, and a 0-15% tuning overhead at peak",
    run: fig5,
};

/// Assert the shape of one system's ramp: the first level keeps up with
/// the offered load, the last is far beyond capacity, the peak sits near
/// the CPU model's capacity, and latency grows with saturation.
fn assert_saturates(system: &str, res: &ThroughputResult, levels: usize) {
    assert_eq!(res.levels.len(), levels, "{system}: ramp levels");
    let (first, top) = (&res.levels[0], &res.levels[levels - 1]);
    let (low, high) = (first.throughput.mean(), top.throughput.mean());
    let peak = res.peak_throughput();
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
    let study = |label: &str, tuning: TuningConfig| {
        let cluster = ScenarioBuilder::cluster(5)
            .tuning(tuning)
            .seed(ctx.system_seed(label))
            .build();
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
    let overhead_pct = (1.0 - dt_peak / raft_peak) * 100.0;
    report.headline(
        "tuning overhead at peak",
        "6.4%",
        &format!("{overhead_pct:.1}%"),
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
    // §IV-B2: Dynatune's extra heartbeats cost a little peak throughput
    // (paper: 6.4 %).
    assert!(
        (0.0..15.0).contains(&overhead_pct),
        "tuning overhead {overhead_pct:.1}% at peak"
    );
    report
}
