//! §IV-E future-work extensions study: heartbeat suppression under load,
//! measured against plain Dynatune. (Raft against Dynatune is fig4's and
//! fig5's comparison, so this study does not re-run it.)

use super::failover::{assert_mostly_complete, run_trials, FailoverConfig};
use super::throughput::{measure_ramp, ramp_for};
use crate::scenario::{Report, RunCtx, Scenario, ScenarioBuilder};
use dynatune_core::TuningConfig;

/// The study's variants as `(name, suppress heartbeats while replicating)`;
/// the first is the baseline the others are judged against.
const VARIANTS: [(&str, bool); 2] = [("dynatune", false), ("dynatune+suppress", true)];

fn cluster_for(suppress: bool, seed: u64) -> crate::ClusterConfig {
    ScenarioBuilder::cluster(5)
        .tuning(TuningConfig::dynatune())
        .suppress_heartbeats(suppress)
        .seed(seed)
        .build()
}

/// Peak throughput and failover sanity for the §IV-E
/// suppress-while-replicating extension against plain Dynatune.
pub const EXTENSIONS: Scenario = Scenario {
    name: "extensions",
    describe: "IV-E extension: heartbeat suppression under load vs plain Dynatune",
    headline_metric: "peak throughput and detection with SIV-E heartbeat suppression",
    ci_assertion: "asserts suppression keeps >= 95% of plain Dynatune's peak and <= 1.5x its \
                   detection time, with <= 1/5 of failover trials incomplete",
    run: extensions,
};

fn extensions(ctx: &RunCtx) -> Report {
    let mut report = Report::new(EXTENSIONS.name);

    // 1. Peak throughput per variant (the overhead suppression targets).
    let repeats = ctx.repeats_or(5, 2);
    let ramp = ramp_for(ctx);
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for (name, suppress) in VARIANTS {
        let cluster = cluster_for(suppress, ctx.system_seed(&format!("tput-{name}")));
        let peak = measure_ramp(&cluster, &ramp, repeats).peak_throughput();
        let baseline = *peaks.first().unwrap_or(&peak);
        rows.push(vec![
            name.to_string(),
            format!("{peak:.0}"),
            format!("{:+.1}%", (peak / baseline - 1.0) * 100.0),
        ]);
        peaks.push(peak);
    }
    report.table(
        "[1/2] peak throughput (the overhead suppression targets)",
        ["variant", "peak (req/s)", "vs dynatune"],
        rows,
    );

    // 2. Failover sanity: suppression must not slow detection.
    let trials = ctx.trials_or(200, 20);
    let results = VARIANTS.map(|(name, suppress)| {
        run_trials(&FailoverConfig::new(
            cluster_for(suppress, ctx.system_seed(&format!("failover-{name}"))),
            trials,
        ))
    });
    let rows = VARIANTS
        .iter()
        .zip(&results)
        .map(|((name, _), res)| {
            vec![
                name.to_string(),
                format!("{:.0}", res.detection_stats().mean()),
                format!("{:.0}", res.ots_stats().mean()),
            ]
        })
        .collect();
    report.table(
        "[2/2] failover under suppression (must not regress)",
        ["variant", "detection (ms)", "OTS (ms)"],
        rows,
    );
    report.note(
        "(removed: the consolidated heartbeat timer; at 200 µs a wake, leader CPU \
         0.9 vs 0.9 %, +28-39 % messages, 1.3-1.8x plain Dynatune's OTS)",
    );

    // Suppression may not regress plain Dynatune: peak throughput within
    // 5 %, detection within 1.5x, each mean over nearly all trials.
    let [(base, _), (name, _)] = VARIANTS;
    let [base_res, res] = &results;
    assert_mostly_complete(&[(base, base_res), (name, res)]);
    let base_det = base_res.detection_stats().mean();
    let det = res.detection_stats().mean();
    assert!(
        peaks[1] >= peaks[0] * 0.95 && det <= base_det * 1.5,
        "{name}: peak {:.0} req/s, detection {det:.0} ms vs {base} {:.0} req/s, {base_det:.0} ms",
        peaks[1],
        peaks[0],
    );
    report
}
