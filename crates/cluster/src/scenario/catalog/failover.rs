//! Repeated leader-failure experiments: detection and OTS time
//! distributions, Fig. 4 on the stable mesh and Fig. 8 on the geo
//! deployment.
//!
//! Each trial builds a fresh cluster with a derived seed, lets it elect a
//! leader and (for tuning modes) warm up the estimators, pauses the leader
//! at a random phase within the heartbeat cycle, and extracts detection and
//! OTS times from the event log — exactly the paper's §IV-B1 procedure
//! (1000 intentional leader failures, means and CDFs reported). Trials run
//! in parallel with rayon — capped by any installed thread pool, see
//! [`RunCtx::run`] — and every trial is deterministic in its seed, so any
//! `--jobs` value merges to identical results.

use crate::observers::extract_failover;
use crate::scenario::{
    compare_row, reduction_pct, NetPlan, Report, RunCtx, Scenario, ScenarioBuilder,
};
use crate::sim::ClusterSim;
use dynatune_core::TuningConfig;
use dynatune_raft::NodeId;
use dynatune_simnet::rng::splitmix64;
use dynatune_simnet::{Rng, SimTime};
use dynatune_stats::table::multi_series_csv;
use dynatune_stats::{EmpiricalCdf, OnlineStats};
use rayon::prelude::*;
use std::time::Duration;

/// Seed salt of the failure phase draw.
const PHASE_SALT: u64 = 0xFA11;
/// The failure lands uniformly within this span after warm-up (~1
/// heartbeat cycle), averaging over the heartbeat phase as the paper's
/// 1000 repeated failures do.
const PHASE_SPAN_NS: u64 = 1_000_000_000;

/// Configuration of a failover study.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// The cluster to study (workload-free); each trial builds it with its
    /// own derived seed.
    pub cluster: ScenarioBuilder,
    /// Settle/warm-up time before injecting the failure.
    pub warmup: Duration,
    /// Number of independent trials.
    pub trials: usize,
    /// Observation window after the failure.
    pub observe: Duration,
}

impl FailoverConfig {
    /// Paper defaults: 30 s warm-up, 30 s observation.
    #[must_use]
    pub fn new(cluster: ScenarioBuilder, trials: usize) -> Self {
        Self {
            cluster,
            warmup: Duration::from_secs(30),
            trials,
            observe: Duration::from_secs(30),
        }
    }
}

/// Outcome of one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Trial index.
    pub trial: usize,
    /// Failure → first election-timer expiry (ms).
    pub detection_ms: f64,
    /// Failure → new leader (ms). The paper's OTS time.
    pub ots_ms: f64,
    /// randomizedTimeout that expired at detection (ms).
    pub rto_at_detection_ms: f64,
    /// Mean randomizedTimeout across live followers just before failure
    /// (the paper's "mean randomizedTimeout at the time of detection").
    pub mean_rto_before_ms: f64,
}

/// Aggregated study result.
#[derive(Debug, Clone)]
pub struct FailoverResult {
    /// Per-trial outcomes (successful trials only).
    pub outcomes: Vec<TrialOutcome>,
    /// Trials that failed to produce a failover within the window.
    pub incomplete: usize,
}

impl FailoverResult {
    /// Detection-time statistics (ms).
    #[must_use]
    pub fn detection_stats(&self) -> OnlineStats {
        OnlineStats::from_slice(
            &self
                .outcomes
                .iter()
                .map(|o| o.detection_ms)
                .collect::<Vec<_>>(),
        )
    }

    /// OTS-time statistics (ms).
    #[must_use]
    pub fn ots_stats(&self) -> OnlineStats {
        OnlineStats::from_slice(&self.outcomes.iter().map(|o| o.ots_ms).collect::<Vec<_>>())
    }

    /// Mean randomizedTimeout before failure (ms).
    #[must_use]
    pub fn mean_rto_ms(&self) -> f64 {
        OnlineStats::from_slice(
            &self
                .outcomes
                .iter()
                .map(|o| o.mean_rto_before_ms)
                .collect::<Vec<_>>(),
        )
        .mean()
    }

    /// Election time = OTS − detection (ms), the §IV-E decomposition.
    #[must_use]
    fn election_time_ms(&self) -> f64 {
        self.ots_stats().mean() - self.detection_stats().mean()
    }

    /// CDF of detection times.
    #[must_use]
    fn detection_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(self.outcomes.iter().map(|o| o.detection_ms).collect())
    }

    /// CDF of OTS times.
    #[must_use]
    fn ots_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(self.outcomes.iter().map(|o| o.ots_ms).collect())
    }
}

/// Run one trial; `None` when no leader emerged or no failover completed.
#[must_use]
pub fn run_single_trial(cfg: &FailoverConfig, trial: usize) -> Option<TrialOutcome> {
    // An independent seed per trial index, everything else shared.
    let mut seed = cfg.cluster.seed ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let seed = splitmix64(&mut seed);
    let mut sim = cfg.cluster.clone().seed(seed).build_sim();
    // Pause the leader after warm-up, at a random phase within ~1
    // heartbeat cycle; observe for `cfg.observe` afterwards.
    let phase = Rng::new(seed ^ PHASE_SALT).child(0).below(PHASE_SPAN_NS);
    let at = SimTime::ZERO + cfg.warmup + Duration::from_nanos(phase);
    sim.run_until(at);
    let leader = sim.leader()?;
    let mean_rto_before_ms = mean_follower_rto_ms(&sim, leader);
    sim.pause(leader);
    sim.run_until(at + cfg.observe);
    let times = extract_failover(&sim.events(), at, leader);
    let (detection, ots) = (times.detection?, times.ots?);
    Some(TrialOutcome {
        trial,
        detection_ms: detection.as_secs_f64() * 1e3,
        ots_ms: ots.as_secs_f64() * 1e3,
        rto_at_detection_ms: times.detection_rto_ms.unwrap_or(f64::NAN),
        mean_rto_before_ms,
    })
}

/// Mean randomized timeout (ms) across the live servers other than
/// `leader`, summed in id order; NaN when there are none.
fn mean_follower_rto_ms(sim: &ClusterSim, leader: NodeId) -> f64 {
    let rtos: Vec<f64> = sim
        .randomized_timeouts()
        .iter()
        .enumerate()
        .filter(|&(id, _)| id != leader)
        .filter_map(|(_, rto)| rto.map(|d| d.as_secs_f64() * 1e3))
        .collect();
    if rtos.is_empty() {
        f64::NAN
    } else {
        rtos.iter().sum::<f64>() / rtos.len() as f64
    }
}

/// Run the full study, trials in parallel.
#[must_use]
pub fn run_trials(cfg: &FailoverConfig) -> FailoverResult {
    let results: Vec<Option<TrialOutcome>> = (0..cfg.trials)
        .into_par_iter()
        .map(|trial| run_single_trial(cfg, trial))
        .collect();
    let incomplete = results.iter().filter(|r| r.is_none()).count();
    FailoverResult {
        outcomes: results.into_iter().flatten().collect(),
        incomplete,
    }
}

/// Append the four detection/OTS CDF series as one CSV artifact.
fn cdf_artifact(
    report: &mut Report,
    filename: &str,
    raft: &FailoverResult,
    dynatune: &FailoverResult,
) {
    let series = [
        ("raft_detection", raft.detection_cdf()),
        ("raft_ots", raft.ots_cdf()),
        ("dynatune_detection", dynatune.detection_cdf()),
        ("dynatune_ots", dynatune.ots_cdf()),
    ];
    let pts: Vec<(String, Vec<(f64, f64)>)> = series
        .iter()
        .map(|(name, cdf)| ((*name).to_string(), cdf.points_downsampled(200)))
        .collect();
    let borrowed: Vec<(&str, &[(f64, f64)])> = pts
        .iter()
        .map(|(n, p)| (n.as_str(), p.as_slice()))
        .collect();
    report.artifact(filename, multi_series_csv("time_ms", &borrowed));
}

/// Assert that at most a fifth of each labelled study's trials failed to
/// fail over, so the means compare (nearly) whole populations.
pub(super) fn assert_mostly_complete(studies: &[(&str, &FailoverResult)]) {
    for (label, res) in studies {
        let trials = res.outcomes.len() + res.incomplete;
        assert!(
            res.incomplete * 5 <= trials,
            "{label}: {} of {trials} trials produced no failover",
            res.incomplete
        );
    }
}

/// Trial-count summary row for a pair of studies.
fn completeness_note(report: &mut Report, raft: &FailoverResult, dynatune: &FailoverResult) {
    report.note(format!(
        "trials: raft {} ok / {} incomplete; dynatune {} ok / {} incomplete",
        raft.outcomes.len(),
        raft.incomplete,
        dynatune.outcomes.len(),
        dynatune.incomplete
    ));
}

/// Fig. 4 + §IV-B1 table: CDFs of detection and OTS times under stable
/// network conditions, repeated leader failures, Raft vs Dynatune; also
/// the §IV-E election-time decomposition.
pub const FIG4: Scenario = Scenario {
    name: "fig4",
    describe: "detection & OTS time CDFs, stable network (5 servers, RTT 100ms, p=0)",
    headline_metric:
        "detection / out-of-service reduction vs. the paper's Fig. 4 (Raft vs Dynatune)",
    ci_assertion: "asserts >= 60% detection and >= 20% OTS reduction, Raft's detection and \
                   timeout scale, Dynatune's 100-350 ms timeout and longer election phase",
    run: fig4,
};

fn fig4(ctx: &RunCtx) -> Report {
    let trials = ctx.trials_or(1000, 50);
    let study = |label: &str, tuning: TuningConfig| {
        let cluster = ScenarioBuilder::cluster(5)
            .tuning(tuning)
            .seed(ctx.system_seed(label));
        run_trials(&FailoverConfig::new(cluster, trials))
    };
    let raft = study("raft", TuningConfig::raft_default());
    let dynatune = study("dynatune", TuningConfig::dynatune());

    let raft_det = raft.detection_stats().mean();
    let raft_ots = raft.ots_stats().mean();
    let dt_det = dynatune.detection_stats().mean();
    let dt_ots = dynatune.ots_stats().mean();

    let mut report = Report::new(FIG4.name);
    report.table(
        "paper vs measured",
        ["metric", "paper (ms)", "measured (ms)", "ratio"],
        vec![
            compare_row("Raft detection mean", 1205.0, raft_det),
            compare_row("Raft OTS mean", 1449.0, raft_ots),
            compare_row("Dynatune detection mean", 237.0, dt_det),
            compare_row("Dynatune OTS mean", 797.0, dt_ots),
            compare_row("Raft mean randomizedTimeout", 1454.0, raft.mean_rto_ms()),
            compare_row(
                "Dynatune mean randomizedTimeout",
                152.0,
                dynatune.mean_rto_ms(),
            ),
            compare_row(
                "Raft election time (OTS-det)",
                244.0,
                raft.election_time_ms(),
            ),
            compare_row(
                "Dynatune election time (OTS-det)",
                560.0,
                dynatune.election_time_ms(),
            ),
        ],
    );
    report.headline(
        "detection reduction",
        "80%",
        &format!("{:.0}%", reduction_pct(raft_det, dt_det)),
    );
    report.headline(
        "OTS reduction",
        "45%",
        &format!("{:.0}%", reduction_pct(raft_ots, dt_ots)),
    );
    completeness_note(&mut report, &raft, &dynatune);
    cdf_artifact(&mut report, "fig4_cdf.csv", &raft, &dynatune);

    assert_mostly_complete(&[("raft", &raft), ("dynatune", &dynatune)]);
    // Raft's absolute scale: Et = 1000 ms puts detection near 1.2 s and the
    // mean randomizedTimeout near 1.5 Et (paper: 1205 ms and 1454 ms).
    let raft_rto = raft.mean_rto_ms();
    assert!(
        (900.0..1700.0).contains(&raft_det)
            && raft_ots > raft_det
            && (1300.0..1700.0).contains(&raft_rto),
        "raft detection {raft_det:.0} ms, OTS {raft_ots:.0} ms, randomizedTimeout {raft_rto:.0} ms"
    );
    // Dynatune's randomizedTimeout reflects the tuned Et (paper: 152 ms).
    let dt_rto = dynatune.mean_rto_ms();
    assert!(
        (100.0..350.0).contains(&dt_rto),
        "dynatune randomizedTimeout {dt_rto:.0} ms"
    );
    // §IV-B1: detection -80 % and OTS -45 %; accept -60 % and -20 %.
    assert!(
        dt_det < raft_det * 0.4 && dt_ots < raft_ots * 0.8,
        "detection / OTS ms: dynatune {dt_det:.0} / {dt_ots:.0}, raft {raft_det:.0} / {raft_ots:.0}"
    );
    // §IV-E: Dynatune trades a longer election phase (narrow randomization,
    // more split votes) for much faster detection.
    let (dt_election, raft_election) = (dynatune.election_time_ms(), raft.election_time_ms());
    assert!(
        dt_election > raft_election,
        "dynatune election {dt_election:.0} ms vs raft {raft_election:.0} ms"
    );
    report
}

/// Fig. 8: detection & OTS CDFs on the geo-replicated deployment (Tokyo,
/// London, California, Sydney, São Paulo), Raft vs Dynatune.
pub const FIG8: Scenario = Scenario {
    name: "fig8",
    describe: "geo-replicated failover (Tokyo/London/California/Sydney/Sao Paulo)",
    headline_metric: "out-of-service time in the five-region geo deployment (paper Fig. 8)",
    ci_assertion: "asserts >= 50% detection reduction and a shorter OTS on the geo mesh",
    run: fig8,
};

fn fig8(ctx: &RunCtx) -> Report {
    let trials = ctx.trials_or(300, 30);
    let study = |label: &str, tuning: TuningConfig| {
        let cluster = ScenarioBuilder::cluster(5)
            .tuning(tuning)
            .net(NetPlan::geo())
            .cores(2) // m5.large
            .seed(ctx.system_seed(label));
        let mut cfg = FailoverConfig::new(cluster, trials);
        cfg.warmup = Duration::from_secs(40); // WAN warm-up is slower
        run_trials(&cfg)
    };
    let raft = study("raft", TuningConfig::raft_default());
    let dynatune = study("dynatune", TuningConfig::dynatune());

    let raft_det = raft.detection_stats().mean();
    let raft_ots = raft.ots_stats().mean();
    let dt_det = dynatune.detection_stats().mean();
    let dt_ots = dynatune.ots_stats().mean();

    let mut report = Report::new(FIG8.name);
    report.table(
        "paper vs measured",
        ["metric", "paper (ms)", "measured (ms)", "ratio"],
        vec![
            compare_row("Raft detection mean", 1137.0, raft_det),
            compare_row("Raft OTS mean", 1718.0, raft_ots),
            compare_row("Dynatune detection mean", 213.0, dt_det),
            compare_row("Dynatune OTS mean", 1145.0, dt_ots),
        ],
    );
    report.headline(
        "detection reduction",
        "81%",
        &format!("{:.0}%", reduction_pct(raft_det, dt_det)),
    );
    report.headline(
        "OTS reduction",
        "33%",
        &format!("{:.0}%", reduction_pct(raft_ots, dt_ots)),
    );
    completeness_note(&mut report, &raft, &dynatune);
    cdf_artifact(&mut report, "fig8_cdf.csv", &raft, &dynatune);

    assert_mostly_complete(&[("raft", &raft), ("dynatune", &dynatune)]);
    // §IV-D: the reductions carry over to the geo deployment (paper: -81 %
    // detection); accept -50 %, and any OTS gain.
    assert!(
        dt_det < raft_det * 0.5 && dt_ots < raft_ots,
        "geo detection / OTS ms: {dt_det:.0} / {dt_ots:.0} vs raft {raft_det:.0} / {raft_ots:.0}"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(tuning: TuningConfig, trials: usize) -> FailoverConfig {
        let cluster = ScenarioBuilder::cluster(5).tuning(tuning).seed(99);
        FailoverConfig {
            cluster,
            warmup: Duration::from_secs(20),
            trials,
            observe: Duration::from_secs(20),
        }
    }

    #[test]
    fn trials_are_deterministic() {
        let cfg = quick_cfg(TuningConfig::dynatune(), 3);
        let a = run_single_trial(&cfg, 1);
        let b = run_single_trial(&cfg, 1);
        assert_eq!(a, b);
    }
}
