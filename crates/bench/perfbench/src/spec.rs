//! The benchmark's contract as data: workloads, metrics, bounds.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`benchmark --print-benchmark-json`) and a unit test keeps the two in
//! step, so the bounds `--check` applies are the bounds the driver applies.

/// Host seconds one run measures at scale 1: five timed reps of about
/// `RUN_SECONDS / 5` each. `--seconds S` scales every simulated horizon by
/// `S / RUN_SECONDS`, so the work stays fixed in simulated time.
pub const RUN_SECONDS: u32 = 12;

/// Timed reps per run (after one discarded warm-up rep of the same seed).
pub const TIMED_REPS: usize = 5;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "kv_write_wan",
        why: "100% Put of 512 B at 100 ms RTT: the append path (log, AppendEntries, group commit, apply, snapshots) does the work",
    },
    Workload {
        name: "kv_read_lan",
        why: "95% Get at 1 ms RTT: reads bypass the log, so admission, Store::read, the client and the simnet kernel dominate",
    },
    Workload {
        name: "failover_wan",
        why: "Fig. 4 set-up, leader paused 120 times under a light load: heartbeats, timers, tuner and elections work, appends idle",
    },
    Workload {
        name: "fluct_wan",
        why: "Fig. 6a/6b/7 link schedule plus leader failures: the election layers under churn, window turnover and needless elections",
    },
    Workload {
        name: "broker_stream",
        why: "4 shards x 3 replicas of the broker app: multi-Raft ticks, client batching, BrokerSm apply, 1 KiB records, fan-out fetches",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How `--check` compares a number, which follows from where it comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Host clock or host memory: noisy, compared within the bound.
    Host,
    /// Simulated clock, or an exact counter read from the end-to-end run:
    /// deterministic for a seed, compared exactly.
    Exact,
    /// Drives, spans of the traced run, the shares derived from them and
    /// the numbers about the measurement itself: printed, never judged.
    Info,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};
use Source::{Exact, Host, Info};

/// End-to-end metrics: what a user of the system sees, on both clocks.
///
/// The driver measures each bound against the spread of ten runs with ten
/// *different* seeds, so the bounds of the simulated metrics are sized to
/// their seed-to-seed spread on the worst workload (README, "Bounds"), not
/// to run-to-run noise: for one seed they repeat exactly, and `--check`
/// compares them exactly. The two host times are scaled to calibration
/// speed by the probes around each rep (`measure::probed`); their bounds
/// are sized to what is left of this box's 1.0-2.0x swings after that.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("ops_per_wall_s", "op/s", Higher, Host, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, Host, 0.20),
    e2e("ops_per_sim_s", "op/s", Higher, Exact, 0.20),
    e2e("lat_ms_p50", "ms", Lower, Exact, 0.25),
    e2e("lat_ms_p99", "ms", Lower, Exact, 0.25),
    e2e("ok_frac", "ratio", Higher, Exact, 0.07),
];

/// Per-layer metrics; layers are the crates.
pub const PER_LAYER: [Metric; 77] = [
    // stats
    layer("stats.hist_record_ns", "ns", Lower, Info),
    layer("stats.window_push_ns", "ns", Lower, Info),
    // simnet
    layer("simnet.msgs_delivered", "count", Lower, Exact),
    layer("simnet.msgs_dropped", "count", Lower, Exact),
    layer("simnet.msgs_per_op", "count", Lower, Exact),
    layer("simnet.kernel_ns_per_event", "ns", Lower, Info),
    layer("simnet.send_udp_ns", "ns", Lower, Info),
    layer("simnet.send_tcp_ns", "ns", Lower, Info),
    layer("simnet.est_host_share", "ratio", Lower, Info),
    // core
    layer("core.on_heartbeat_ns", "ns", Lower, Info),
    layer("core.et_ms_mean", "ms", Lower, Exact),
    layer("core.h_ms_mean", "ms", Higher, Exact),
    layer("core.k_mean", "count", Lower, Exact),
    layer("core.loss_est_mean", "ratio", Lower, Exact),
    layer("core.tuner_resets", "count", Lower, Exact),
    layer("core.est_host_share", "ratio", Lower, Info),
    // raft
    layer("raft.log_append_ns", "ns", Lower, Info),
    layer("raft.log_entries_from_ns", "ns", Lower, Info),
    layer("raft.log_try_append_ns", "ns", Lower, Info),
    layer("raft.log_compact_us", "us", Lower, Info),
    layer("raft.progress_ack_ns", "ns", Lower, Info),
    layer("raft.propose_ns", "ns", Lower, Info),
    layer("raft.step_append_ns", "ns", Lower, Info),
    layer("raft.step_append_resp_ns", "ns", Lower, Info),
    layer("raft.step_heartbeat_ns", "ns", Lower, Info),
    layer("raft.tick_ns", "ns", Lower, Info),
    layer("raft.drive_batch_entries", "count", Higher, Exact),
    layer("raft.entries_committed", "count", Higher, Exact),
    layer("raft.snapshots_sent", "count", Lower, Exact),
    layer("raft.max_log_len", "count", Lower, Exact),
    layer("raft.follower_lag_max", "count", Lower, Exact),
    layer("raft.read_confirm_rounds", "count", Lower, Exact),
    layer("raft.elections_started", "count", Lower, Exact),
    layer("raft.elections_no_winner", "count", Lower, Exact),
    layer("raft.needless_elections", "count", Lower, Exact),
    layer("raft.leaderless_frac", "ratio", Lower, Exact),
    layer("raft.failovers", "count", Higher, Exact),
    layer("raft.failovers_censored", "count", Lower, Exact),
    layer("raft.detect_ms_p50", "ms", Lower, Exact),
    layer("raft.ots_ms_p50", "ms", Lower, Exact),
    layer("raft.ots_ms_p90", "ms", Lower, Exact),
    layer("raft.est_host_share", "ratio", Lower, Info),
    // kv
    layer("kv.apply_ns", "ns", Lower, Info),
    layer("kv.read_ns", "ns", Lower, Info),
    layer("kv.snapshot_us", "us", Lower, Info),
    layer("kv.restore_us", "us", Lower, Info),
    layer("kv.gen_next_ns", "ns", Lower, Info),
    layer("kv.est_host_share", "ratio", Lower, Info),
    // broker
    layer("broker.records_acked", "count", Higher, Exact),
    layer("broker.batch_records_mean", "count", Higher, Exact),
    layer("broker.retries", "count", Lower, Exact),
    layer("broker.max_lag", "count", Lower, Exact),
    layer("broker.checker_violations", "count", Lower, Exact),
    layer("broker.apply_produce_ns", "ns", Lower, Info),
    layer("broker.fetch_ns", "ns", Lower, Info),
    layer("broker.est_host_share", "ratio", Lower, Info),
    // cluster
    layer("cluster.build_ms", "ms", Lower, Info),
    layer("cluster.run_slice_ms_p50", "ms", Lower, Info),
    layer("cluster.run_slice_ms_p99", "ms", Lower, Info),
    layer("cluster.leader_cpu_util", "ratio", Lower, Exact),
    layer("cluster.follower_cpu_util", "ratio", Lower, Exact),
    layer("cluster.cpu_ms_per_op", "ms", Lower, Exact),
    layer("cluster.reads_lease", "count", Higher, Exact),
    layer("cluster.reads_read_index", "count", Lower, Exact),
    layer("cluster.reads_follower", "count", Higher, Exact),
    layer("cluster.overload_shed_frac", "ratio", Lower, Exact),
    layer("cluster.fault_window_failed", "count", Lower, Exact),
    layer("cluster.lat_samples", "count", Higher, Exact),
    layer("cluster.host_us_per_op", "us", Lower, Info),
    layer("cluster.solo_ops_per_wall_s", "op/s", Higher, Info),
    layer("cluster.solo_lat_ms_p50", "ms", Lower, Exact),
    layer("cluster.unattributed_share", "ratio", Lower, Info),
    // bench
    layer("bench.rep_wall_iqr_pct", "%", Lower, Info),
    layer("bench.machine_speed", "ratio", Higher, Info),
    layer("bench.raw_ops_per_wall_s", "op/s", Higher, Info),
    layer("bench.cpu_over_wall", "ratio", Higher, Info),
    layer("bench.trace_overhead_pct", "%", Lower, Info),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Render `BENCHMARK.json` (the builder's contract, exactly its keys).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"crates/bench/perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/bench/perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_matches_the_tables() {
        let on_disk = include_str!("../../../../BENCHMARK.json");
        assert!(
            on_disk == benchmark_json(),
            "regenerate with `benchmark --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
