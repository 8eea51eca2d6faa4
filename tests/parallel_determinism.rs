//! Parallel trial fan-out must be bit-identical to serial execution: the
//! same `Report` for `--jobs 1` and `--jobs N`, because per-trial seeds
//! derive from trial indices alone and results merge in input order.
//!
//! The serial report of every scenario compared here is also pinned to a
//! committed hash, so a refactor is proven bit-identical *across commits*,
//! not only across `--jobs` within one commit.

use dynatune_repro::cluster::scenario::catalog::failover::{run_trials, FailoverConfig};
use dynatune_repro::cluster::scenario::{find, Report, RunCtx, REGISTRY};
use dynatune_repro::cluster::ScenarioBuilder;
use dynatune_repro::core::TuningConfig;
use std::time::Duration;

/// The context most scenarios are pinned at: quick scale, seed 1234.
fn quick_ctx() -> RunCtx {
    RunCtx::new(1234).quick(true)
}

/// FNV-1a over the rendered report plus every artifact (name and CSV).
fn report_hash(report: &Report) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |text: &str| {
        // A terminator per field keeps ("ab", "c") distinct from ("a", "bc").
        for b in text.bytes().chain([0xff]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&report.render());
    for a in &report.artifacts {
        eat(&a.filename);
        eat(&a.csv);
    }
    h
}

/// Hashes of the serial reports at the seeds the tests below use, one per
/// registered scenario (`every_registered_scenario_is_pinned` keeps the two
/// lists equal). They cover every assembly path: single group (`fig4`),
/// single group under flapping cuts (`partition_churn`), link schedules
/// under a fixed-cadence sampler (`fig6a`, `fig7`), the KV client through a full
/// offered-load ramp (`fig5`), single-group spares (`elastic_scaleout`),
/// sharded (`sharded_throughput`), sharded spares plus
/// the rebalancer (`shard_rebalance`) and the broker
/// (`consumer_lag_failover`). A pin moves only when a change means to alter
/// simulated behaviour; say so in CHANGES.md when it does. (The values
/// depend on the platform's `libm` — they are pinned for the CI image.)
const REPORT_PINS: &[(&str, u64)] = &[
    ("ablations", 0xaa71_6399_62f5_0748),
    ("broker_produce_throughput", 0x115d_c5e1_1252_cb52),
    ("compaction_churn", 0x6169_5776_d86f_6639),
    ("consumer_fanout", 0x3f84_b81c_e311_e64c),
    ("consumer_lag_failover", 0xc59a_8c74_9466_3728),
    ("elastic_scaleout", 0x3543_0fc5_e5d4_6592),
    ("fig4", 0xcd21_cf62_a108_d722),
    ("fig5", 0x1427_40a5_ed88_2210),
    ("fig6a", 0x948d_2d24_8bbb_e9d6),
    ("fig6b", 0xb663_d92c_9a96_0576),
    ("fig7", 0x38bf_aa09_c7bf_028d),
    ("fig8", 0x6d04_fdbf_3fc9_5986),
    ("follower_read_offload", 0xff23_6d57_8af4_cf97),
    ("geo_asymmetric", 0x89f1_9eb1_1fd4_0d03),
    ("hot_shard", 0x2157_7209_5486_b3d1),
    ("lagging_follower_catchup", 0x54ea_c7b4_a183_0bb7),
    ("lease_safety_partition", 0x7adb_d4f6_5226_c341),
    ("membership_churn", 0x821e_5a13_eb8b_3639),
    ("partition_churn", 0xf87c_c70c_bb87_149a),
    ("pipeline_depth", 0x8331_591f_1b46_15c7),
    ("read_heavy_throughput", 0x85e8_0e88_9941_307f),
    ("shard_leader_failover", 0x0838_18f2_2c71_3d6a),
    ("shard_rebalance", 0x4d09_ee52_5a19_82f1),
    ("sharded_throughput", 0xc435_bcbe_0099_30fb),
];

#[track_caller]
fn assert_pinned(serial: &Report) {
    let hash = report_hash(serial);
    let pin = REPORT_PINS
        .iter()
        .find(|(name, _)| *name == serial.name)
        .map(|&(_, pin)| pin);
    assert_eq!(
        Some(hash),
        pin,
        "{}: serial report hash {hash:#018x} differs from its pin",
        serial.name
    );
}

/// Run the scenario registered as `name` — the string its pin is keyed by —
/// under `ctx` serially and `jobs` wide: the two reports must be equal and
/// the serial one must match its pin. Returns it, so the caller can check
/// that the equality is over real content.
#[track_caller]
fn assert_identical_and_pinned(ctx: &RunCtx, name: &str, jobs: usize) -> Report {
    let scenario = find(name).expect("registered scenario");
    let serial = ctx.clone().jobs(1).run(scenario);
    let parallel = ctx.clone().jobs(jobs).run(scenario);
    assert_eq!(
        serial, parallel,
        "{}: --jobs must not change the report",
        serial.name
    );
    assert_pinned(&serial);
    serial
}

#[test]
fn every_registered_scenario_is_pinned() {
    let mut registered: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
    registered.sort_unstable();
    let pinned: Vec<&str> = REPORT_PINS.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        pinned, registered,
        "REPORT_PINS must name exactly the registered scenarios (sorted)"
    );
}

#[test]
fn fig4_report_identical_serial_vs_parallel() {
    let mut ctx = RunCtx::new(77).quick(true);
    ctx.trials = Some(8); // keep the check fast; 16 clusters per run
    let serial = assert_identical_and_pinned(&ctx, "fig4", 4);
    // Equality must be meaningful: the report carries real content.
    assert!(!serial.tables.is_empty() && !serial.artifacts.is_empty());
    assert_eq!(serial.name, "fig4");
}

/// `fig5` drives the KV client through a full offered-load ramp: per-step
/// completion bucketing, saturation backlog, redirects and timeout retries
/// all feed the peak-throughput and latency columns, which must be
/// bit-identical at any pool width.
#[test]
fn fig5_report_identical_serial_vs_parallel() {
    let mut ctx = quick_ctx();
    ctx.repeats = Some(1); // one ramp per variant keeps the check fast
    let serial = assert_identical_and_pinned(&ctx, "fig5", 4);
    assert!(!serial.tables.is_empty());
}

#[test]
fn fluctuation_reports_identical_serial_vs_parallel() {
    // No trial fan-out here — one long run per system under an RTT or loss
    // schedule — so the pins are what these guard: the sampling loop, the
    // schedule arithmetic and the per-system seed derivation.
    for name in ["fig6a", "fig6b", "fig7"] {
        let serial = assert_identical_and_pinned(&quick_ctx(), name, 4);
        assert!(!serial.tables.is_empty() && !serial.artifacts.is_empty());
    }
}

#[test]
fn failover_family_reports_identical_serial_vs_parallel() {
    // The remaining users of the repeated-leader-pause procedure: geo
    // meshes (warm-up 40 s, WAN congestion) and the six ablation tables.
    for name in ["fig8", "geo_asymmetric", "ablations"] {
        let serial = assert_identical_and_pinned(&quick_ctx(), name, 4);
        assert!(!serial.tables.is_empty());
    }
}

#[test]
fn churn_report_identical_serial_vs_parallel() {
    assert_identical_and_pinned(&quick_ctx(), "partition_churn", 3);
}

#[test]
fn sharded_reports_identical_serial_vs_parallel() {
    // The shard-count sweep and the two-system comparison both fan out;
    // merging in input order must make any pool width bit-identical.
    for name in ["sharded_throughput", "shard_leader_failover", "hot_shard"] {
        let serial = assert_identical_and_pinned(&quick_ctx(), name, 4);
        assert!(!serial.tables.is_empty());
    }
}

#[test]
fn compaction_reports_identical_serial_vs_parallel() {
    // The snapshot-transfer path adds its own timing (send, install,
    // resend pacing); the report — log bounds, snapshots_sent, convergence
    // digests — must still be bit-identical at any pool width.
    for name in ["lagging_follower_catchup", "compaction_churn"] {
        let serial = assert_identical_and_pinned(&quick_ctx(), name, 4);
        assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
    }
}

#[test]
fn read_path_reports_identical_serial_vs_parallel() {
    // The read path adds its own machinery on both sides of the wire
    // (lease bookkeeping, confirmation echoes, forwarded waves, client
    // traces); the reports — throughput ratios, CPU percentages,
    // violation counts — must still be bit-identical at any pool width.
    for name in [
        "read_heavy_throughput",
        "follower_read_offload",
        "lease_safety_partition",
    ] {
        let serial = assert_identical_and_pinned(&quick_ctx(), name, 4);
        assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
    }
}

#[test]
fn pipeline_depth_report_identical_serial_vs_parallel() {
    // The window x RTT sweep fans all twelve cells out at once; the
    // committed-op counts and both ratio headlines must be bit-identical
    // at any pool width.
    let serial = assert_identical_and_pinned(&quick_ctx(), "pipeline_depth", 4);
    assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
}

#[test]
fn broker_reports_identical_serial_vs_parallel() {
    // The broker scenarios fan out produce/fetch sims per pipeline window,
    // per group count, and sample a failover timeline; throughput tables,
    // CPU ratios and the exactly-once checker counts must be bit-identical
    // at any pool width.
    for name in [
        "broker_produce_throughput",
        "consumer_lag_failover",
        "consumer_fanout",
    ] {
        let serial = assert_identical_and_pinned(&quick_ctx(), name, 4);
        assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
    }
}

#[test]
fn membership_reports_identical_serial_vs_parallel() {
    // The membership battery layers conf-change orchestration, learner
    // catch-up, crash/partition faults and a seeded churn schedule on top
    // of the serving path; every goodput window, latency quantile and
    // violation count must still be bit-identical at any pool width. Each
    // run also re-executes the in-run checkers: bounded scale-out dip,
    // p99 improvement from the replica move, and — via the recorded
    // client traces — zero stale reads, i.e. no lease hole anywhere in
    // the dual-quorum (joint-consensus) window.
    for name in ["elastic_scaleout", "shard_rebalance", "membership_churn"] {
        let serial = assert_identical_and_pinned(&quick_ctx(), name, 4);
        assert!(!serial.tables.is_empty() && !serial.headlines.is_empty());
    }
}

#[test]
fn failover_trials_identical_across_pool_widths() {
    let cluster = ScenarioBuilder::cluster(5)
        .tuning(TuningConfig::dynatune())
        .seed(4242);
    let mut cfg = FailoverConfig::new(cluster, 6);
    cfg.warmup = Duration::from_secs(20);
    cfg.observe = Duration::from_secs(20);
    let widths = [1usize, 2, 5];
    let results: Vec<_> = widths
        .iter()
        .map(|&n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool")
                .install(|| run_trials(&cfg))
        })
        .collect();
    for pair in results.windows(2) {
        assert_eq!(pair[0].outcomes, pair[1].outcomes);
        assert_eq!(pair[0].incomplete, pair[1].incomplete);
    }
}
