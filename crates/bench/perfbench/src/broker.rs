//! `broker_stream`: the second `App` on the multi-Raft path.
//!
//! `BrokerWorkload` produces at one constant rate, so the two phases are
//! two clusters run back to back in each rep: a reference run at about
//! 60 % of capacity (latency, `ok_frac`, the per-layer counters) and an
//! overload run at about 1.5x (capacity). Each drains its backlog before
//! the clock stops, and then settles untimed: the exactly-once checkers
//! need every consumer to have read every record.
//!
//! Producers are a closed loop per partition (one produce in flight, the
//! next batch forms while it is), so capacity is `partitions x batch_max /
//! produce round trip`, and what a produce waits for is the client's queue.
//! `BrokerClient` keeps only a running mean of batch latency (send → ack),
//! so the latency percentiles here are taken over 10 ms windows of that
//! mean; per-record due-time latency is not observable from outside.

use crate::measure;
use crate::observe::{
    self, mark, CallCounts, Cluster, DriveInputs, Rep, Sampler, ServerSample, SimOutcome,
};
use crate::trace::Tracer;
use dynatune_broker::BrokerSm;
use dynatune_cluster::{BrokerClusterSim, BrokerStats, BrokerWorkload, NetPlan, ScenarioBuilder};
use dynatune_core::TuningConfig;
use dynatune_raft::NodeId;
use dynatune_simnet::{NetCounters, SimTime};
use std::time::{Duration, Instant};

// ---- Calibration (seed commit; see README "Calibration") ----
/// Capacity 38.3 k records/s: 8 partitions x 64 records / 13.4 ms.
const REF_RPS: f64 = 23_000.0;
const OVER_RPS: f64 = 57_000.0;
const BATCH_MAX: usize = 64;
const RECORD_BYTES: usize = 1024;
/// Measured windows at scale 1 (simulated seconds). Records stay in the
/// partition logs, so the horizons are bounded by memory, not by time.
const REF_SECS: f64 = 8.0;
const OVER_SECS: f64 = 4.0;
const START: Duration = Duration::from_millis(2_500);
const SHARDS: usize = 4;
const REPLICAS: usize = 3;
const GROUPS: usize = 2;
const CORES: usize = 4;
/// Untimed quiet after the overload run: on two seeds in ten a saturated
/// leader's late heartbeats cost it an election, and the consumers of that
/// shard then needed up to 4.4 s more to catch up (a 5 s request timeout,
/// then 256 records per fetch). Three times that.
const OVER_SETTLE: Duration = Duration::from_secs(15);
/// Window over which one latency sample (a mean) is taken.
const LAT_WINDOW: Duration = Duration::from_millis(10);

struct Run {
    sim: BrokerClusterSim,
    /// Sub-slice latency sampling (the reference run only).
    lat_window: Option<Duration>,
    lat_ms: Vec<f64>,
    seen: (u64, f64),
}

impl Run {
    fn stats(&self) -> BrokerStats {
        self.sim.stats().unwrap_or_default()
    }
}

impl Cluster for Run {
    fn now(&self) -> SimTime {
        self.sim.now()
    }
    fn run_until(&mut self, deadline: SimTime) {
        let Some(window) = self.lat_window else {
            return self.sim.run_until(deadline);
        };
        while self.sim.now() < deadline {
            self.sim.run_until((self.sim.now() + window).min(deadline));
            let lat = self.stats().produce_latency_ms;
            let (count, sum) = (lat.count(), lat.mean() * lat.count() as f64);
            if count > self.seen.0 {
                self.lat_ms
                    .push((sum - self.seen.1) / (count - self.seen.0) as f64);
            }
            self.seen = (count, sum);
        }
    }
    fn n_servers(&self) -> usize {
        self.sim.n_servers()
    }
    fn group_size(&self) -> usize {
        REPLICAS
    }
    fn paused(&self, _id: NodeId) -> bool {
        false // this workload injects no failure
    }
    fn server(&self, id: NodeId) -> ServerSample {
        self.sim.with_server(id, observe::sample_server)
    }
    fn net(&self) -> NetCounters {
        self.sim.net_counters()
    }
    fn ops_done(&self) -> u64 {
        self.stats().acked_records
    }
}

/// Offsets a replica holds: every partition's end and every group's
/// committed position.
fn offsets(sm: &BrokerSm) -> Vec<(String, u32, u64, Vec<Option<u64>>)> {
    let mut out = Vec::new();
    for (name, topic) in sm.topics() {
        for (p, log) in topic.partitions() {
            let committed = (0..GROUPS)
                .map(|g| sm.committed_offset(&format!("g{g}"), name, p))
                .collect();
            out.push((name.to_string(), p, log.next_offset(), committed));
        }
    }
    out
}

struct Part {
    setup: Duration,
    run: Duration,
    cpu: Duration,
    out: SimOutcome,
    calls: CallCounts,
    acked: u64,
    acked_in_window: u64,
    produced_in_window: u64,
    unacked: u64,
    lat_ms: Vec<f64>,
    max_log_len: usize,
    batch_records: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_part(
    rps: f64,
    warm: Duration,
    window: Duration,
    drain: Duration,
    settle: Duration,
    lat_window: Option<Duration>,
    seed: u64,
    tracer: &mut Tracer,
) -> Part {
    let t_setup = Instant::now();
    tracer.begin("setup");
    tracer.begin("cluster.build");
    let workload = BrokerWorkload {
        record_bytes: RECORD_BYTES,
        batch_max: BATCH_MAX,
        groups: GROUPS,
        fanout_fetch: true,
        start_offset: START,
        produce_for: Some(warm + window),
        request_timeout: Duration::from_secs(5),
        ..BrokerWorkload::steady(vec![("orders".into(), 4), ("events".into(), 4)], rps)
    };
    let sim = ScenarioBuilder::cluster(REPLICAS)
        .shards(SHARDS)
        .tuning(TuningConfig::dynatune())
        .net(NetPlan::stable(Duration::from_millis(10)))
        .cores(CORES)
        .seed(seed)
        .build_broker_sim(workload);
    let mut run = Run {
        sim,
        lat_window: None,
        lat_ms: Vec::new(),
        seen: (0, 0.0),
    };
    tracer.end(&[]);
    tracer.begin("warmup");
    let warm_end = SimTime::ZERO + START + warm;
    observe::run_slices(
        &mut run,
        warm_end,
        &mut Tracer::new(false),
        &mut Sampler::default(),
        &[],
        |_, _| {},
    );
    tracer.end(&[]);
    tracer.end(&[]);
    let setup = t_setup.elapsed();

    let from = mark(&run);
    let s0 = run.stats();
    let lat0 = s0.produce_latency_ms;
    run.seen = (lat0.count(), lat0.mean() * lat0.count() as f64);
    run.lat_window = lat_window;
    let mut sampler = Sampler::default();
    let cpu0 = measure::cpu_time();
    let t_run = Instant::now();
    tracer.begin("rep");
    let window_end = warm_end + window;
    observe::run_slices(&mut run, window_end, tracer, &mut sampler, &[], |_, _| {});
    let s1 = run.stats();
    run.lat_window = None;
    observe::run_slices(
        &mut run,
        window_end + drain,
        tracer,
        &mut sampler,
        &[],
        |_, _| {},
    );
    tracer.end(&[]);
    let wall = t_run.elapsed();
    let cpu = measure::cpu_time().saturating_sub(cpu0);
    let to = mark(&run);
    let s2 = run.stats();
    // Untimed: the exactly-once checkers need every consumer to have read
    // every acked record, however far an election set one of them back.
    observe::run_slices(
        &mut run,
        window_end + drain + settle,
        &mut Tracer::new(false),
        &mut Sampler::default(),
        &[],
        |_, _| {},
    );
    let settled = run.stats();

    let acked = s2.acked_records - s0.acked_records;
    let groups: Vec<_> = (0..SHARDS).map(|s| run.sim.shard_events(s)).collect();
    let mut out = SimOutcome::default();
    observe::common_counters(
        &mut out,
        &run,
        &from,
        &to,
        &sampler,
        &groups,
        &[],
        CORES,
        acked,
    );

    // ---- the correctness gate ----
    let consumers = run.sim.consumer_stats().unwrap_or_default();
    let mut checker = 0;
    let mut max_lag = 0;
    for g in &consumers {
        checker += g.lost + g.duplicated + g.out_of_order;
        max_lag = max_lag.max(g.max_lag);
        if g.consumed != settled.acked_records {
            out.violations.push(format!(
                "a consumer group read {} of {} acked records",
                g.consumed, settled.acked_records
            ));
        }
    }
    for shard in 0..SHARDS {
        let replicas: Vec<_> = run
            .sim
            .map()
            .servers_of(shard)
            .map(|id| {
                run.sim
                    .with_server(id, |s| offsets(s.node().state_machine()))
            })
            .collect();
        if replicas.iter().any(|r| *r != replicas[0]) {
            out.violations
                .push(format!("shard {shard}: replicas end with unequal offsets"));
        }
    }
    out.set("broker.checker_violations", checker as f64);
    out.set("broker.max_lag", max_lag as f64);
    out.set("broker.retries", (s2.retries - s0.retries) as f64);
    let batches = (s2.produce_batches - s0.produce_batches) as f64;
    let batch_records = acked as f64 / batches.max(1.0);

    let secs = (to.at - from.at).as_secs_f64();
    let n_servers = (SHARDS * REPLICAS) as f64;
    let heartbeats = if out.get("core.h_ms_mean") > 0.0 {
        secs * 1e3 / out.get("core.h_ms_mean") * (n_servers - SHARDS as f64)
    } else {
        0.0
    };
    let committed = out.get("raft.entries_committed");
    let calls = CallCounts {
        msgs: out.get("simnet.msgs_delivered"),
        heartbeats,
        proposals: committed,
        // A 64 KiB produce fills the group-commit byte cap by itself.
        appends: committed * (REPLICAS - 1) as f64,
        broker_applies: committed * REPLICAS as f64,
        broker_fetches: (s2.fetches - s0.fetches) as f64,
        ..CallCounts::default()
    };
    Part {
        setup,
        run: wall,
        cpu,
        out,
        calls,
        acked,
        acked_in_window: s1.acked_records - s0.acked_records,
        produced_in_window: s1.produced - s0.produced,
        unacked: run.sim.unacked_records(),
        lat_ms: run.lat_ms,
        max_log_len: sampler.max_log_len,
        batch_records,
    }
}

pub fn run(seed: u64, scale: f64, tracer: &mut Tracer) -> Rep {
    let secs = Duration::from_secs_f64;
    let ref_window = secs(REF_SECS * scale);
    let over_window = secs(OVER_SECS * scale);
    // The reference run's long warm-up is what makes set-up time measurable.
    let mut reference = run_part(
        REF_RPS,
        Duration::from_secs(5),
        ref_window,
        Duration::from_secs(1),
        Duration::from_secs(5),
        Some(LAT_WINDOW),
        seed,
        tracer,
    );
    let over = run_part(
        OVER_RPS,
        Duration::from_millis(500),
        over_window,
        over_window.mul_f64(0.6) + Duration::from_secs(1),
        OVER_SETTLE,
        None,
        seed,
        tracer,
    );

    // Counters are the reference run's; the two-clock headline covers both.
    let mut out = reference.out;
    out.set(
        "ops_per_sim_s",
        over.acked_in_window as f64 / over_window.as_secs_f64(),
    );
    out.set(
        "cluster.overload_shed_frac",
        1.0 - over.acked_in_window as f64 / over.produced_in_window as f64,
    );
    out.set("cluster.fault_window_failed", 0.0);
    out.set("cluster.lat_samples", reference.lat_ms.len() as f64);
    out.set("lat_ms_p50", measure::tail(&mut reference.lat_ms, 0.5));
    out.set("lat_ms_p99", measure::tail(&mut reference.lat_ms, 0.99));
    out.set(
        "ok_frac",
        1.0 - reference.unacked as f64 / reference.produced_in_window as f64,
    );
    out.set(
        "broker.records_acked",
        (reference.acked + over.acked) as f64,
    );
    out.set("broker.batch_records_mean", reference.batch_records);
    out.set(
        "broker.checker_violations",
        out.get("broker.checker_violations") + over.out.get("broker.checker_violations"),
    );
    out.set(
        "broker.max_lag",
        out.get("broker.max_lag")
            .max(over.out.get("broker.max_lag")),
    );
    out.set(
        "broker.retries",
        out.get("broker.retries") + over.out.get("broker.retries"),
    );
    out.set("raft.drive_batch_entries", 1.0);
    out.violations.extend(over.out.violations);
    let checker = out.get("broker.checker_violations") as u64;
    if checker > 0 {
        out.violations
            .push(format!("broker.checker_violations = {checker}"));
    }
    out.attempted = reference.produced_in_window;
    out.failed = reference.unacked + over.unacked + out.violations.len() as u64;

    let a = reference.calls;
    let b = over.calls;
    Rep {
        setup: reference.setup + over.setup,
        run: reference.run + over.run,
        cpu: reference.cpu + over.cpu,
        ops: reference.acked + over.acked,
        sim: out,
        inputs: DriveInputs {
            payload_bytes: RECORD_BYTES,
            batch_entries: 1,
            log_len: reference.max_log_len.max(over.max_log_len),
            produce_batch_records: (reference.batch_records.round() as usize).max(1),
            ..DriveInputs::default()
        },
        calls: CallCounts {
            msgs: a.msgs + b.msgs,
            heartbeats: a.heartbeats + b.heartbeats,
            proposals: a.proposals + b.proposals,
            appends: a.appends + b.appends,
            broker_applies: a.broker_applies + b.broker_applies,
            broker_fetches: a.broker_fetches + b.broker_fetches,
            ..CallCounts::default()
        },
    }
}
