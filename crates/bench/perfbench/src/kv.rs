//! The four workloads on `ClusterSim`: two saturating (`kv_write_wan`,
//! `kv_read_lan`) and two with injected leader failures (`failover_wan`,
//! `fluct_wan`).
//!
//! All load is open-loop: `ClientHost` sends on the generator's Poisson
//! schedule whatever the cluster does, and in a discrete-event simulation
//! it wakes exactly at each arrival, so a request's send instant *is* the
//! instant it was due (the generator never runs late). Latency is therefore
//! timed from the due instant, and it keeps counting across retries.

use crate::measure;
use crate::observe::{
    self, batch_entries_estimate, mark, CallCounts, Cluster, DriveInputs, Fault, Rep, Sampler,
    ServerSample, SimOutcome,
};
use crate::trace::Tracer;
use dynatune_cluster::{
    stale_read_violations, ClusterSim, NetPlan, OpRecord, ReadStrategy, ScenarioBuilder,
    StepRecord, WorkloadSpec,
};
use dynatune_core::TuningConfig;
use dynatune_kv::{OpMix, RateStep};
use dynatune_raft::NodeId;
use dynatune_simnet::{LinkSchedule, NetCounters, NetParams, Rng, SimTime};
use std::time::{Duration, Instant};

// ---- Calibration (seed commit, 2-core box; see README "Calibration") ----
// Capacities are the overload-phase goodput under the default `CostModel`;
// the reference rate is about 60 % of it, the overload rate about 1.5x.

/// `kv_write_wan`: capacity 11.8 k op/s.
const WRITE_REF_RPS: f64 = 7_000.0;
const WRITE_OVER_RPS: f64 = 17_500.0;
/// `kv_read_lan`: capacity 22.6 k op/s, reached only once overload lets
/// ReadIndex rounds batch; below that the queue starts to grow near 12 k.
/// The reference rate is 60 % of that knee: at 10 k, two seeds in ten
/// caught a queueing episode that moved p99 from 8 ms to 90-180 ms.
const READ_REF_RPS: f64 = 7_000.0;
const READ_OVER_RPS: f64 = 36_000.0;
/// The backlog an overload phase leaves drains within this share of it.
const DRAIN_SHARE: f64 = 0.75;
/// A client timeout that never fires below the horizon: saturating
/// workloads measure queueing, not retry storms.
const NO_RETRY_TIMEOUT: Duration = Duration::from_secs(60);

/// Fault workloads: light load, the paper's 2 s client patience.
const FAULT_RPS: f64 = 100.0;
const FAULT_TIMEOUT: Duration = Duration::from_secs(2);
const FAULT_CYCLES: f64 = 120.0;
/// The leader stays paused about as long as the slowest election seen on
/// the seed commit (3.0 s); a failover still open then is counted censored.
const DOWN: Duration = Duration::from_millis(3_000);
/// Up time per cycle: the old leader rejoins, every tuner re-warms.
const UP: Duration = Duration::from_millis(2_500);
/// Each failure is phased at random within this much of its cycle.
const PHASE_JITTER_NS: u64 = 500_000_000;
/// A small compaction threshold keeps the live log short, so what a new
/// leader re-sends to the paused one stays small and the election layers,
/// not entry cloning, carry the host time (see the README).
const FAULT_COMPACTION: (usize, u64) = (2_048, 512);
const FAULT_WARMUP: Duration = Duration::from_secs(400);
const FAULT_TAIL: Duration = Duration::from_secs(5);
const FAULT_DRAIN: Duration = Duration::from_secs(3);

/// Bound on the recorded trace the stale-read checker walks (it is
/// quadratic per key, and Zipf keys concentrate).
const STALE_CHECK_OPS: usize = 20_000;

const CORES: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Fixed rate at about 60 % of capacity: latency is measured here.
    Reference,
    /// About 1.5x capacity: goodput here is the capacity.
    Overload,
    /// Near-zero rate while the overload backlog drains.
    Drain,
    /// Fault workloads: the whole run under the failure schedule.
    Faulty,
}

pub struct Plan {
    builder: ScenarioBuilder,
    spec: WorkloadSpec,
    /// One per `spec.steps[1..]`; step 0 is the warm-up (set-up time).
    phases: Vec<Phase>,
    /// Phases in which nothing is scheduled to hurt a request: one that
    /// fails there is an operation of the benchmark that failed.
    unharmed: &'static [Phase],
    /// `(pause_at, resume_at)` of each injected leader failure.
    faults: Vec<(SimTime, SimTime)>,
    warmup_end: SimTime,
    horizon: SimTime,
    compaction: (usize, u64),
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// What tells the two saturating workloads apart. Rates and durations come
/// from the calibration above; durations are simulated seconds at scale 1.
struct Saturating {
    rtt: Duration,
    mix: OpMix,
    zipf_theta: f64,
    ref_rps: f64,
    over_rps: f64,
    warmup_secs: f64,
    ref_secs: f64,
    over_secs: f64,
}

fn saturating(w: Saturating, seed: u64, scale: f64) -> Plan {
    let start_offset = Duration::from_secs(3);
    let over = secs(w.over_secs * scale);
    let steps = vec![
        RateStep {
            rps: w.ref_rps,
            hold: secs(w.warmup_secs),
        },
        RateStep {
            rps: w.ref_rps,
            hold: secs(w.ref_secs * scale),
        },
        RateStep {
            rps: w.over_rps,
            hold: over,
        },
        RateStep {
            rps: 0.001,
            hold: over.mul_f64(DRAIN_SHARE) + Duration::from_secs(2),
        },
    ];
    let warmup_end = SimTime::ZERO + start_offset + steps[0].hold;
    let horizon = steps[1..].iter().fold(warmup_end, |t, s| t + s.hold);
    let compaction = (50_000, 8_192);
    Plan {
        builder: ScenarioBuilder::cluster(5)
            .tuning(TuningConfig::dynatune())
            .net(NetPlan::stable(w.rtt))
            .reads(ReadStrategy::Lease)
            .compaction(compaction.0, compaction.1)
            .cores(CORES)
            .seed(seed),
        spec: WorkloadSpec {
            steps,
            mix: w.mix,
            key_space: 100_000,
            zipf_theta: w.zipf_theta,
            value_size: 512,
            start_offset,
            request_timeout: Some(NO_RETRY_TIMEOUT),
            read_fanout: false,
            record_trace: true,
        },
        phases: vec![Phase::Reference, Phase::Overload, Phase::Drain],
        unharmed: &[Phase::Reference, Phase::Drain],
        faults: Vec::new(),
        warmup_end,
        horizon,
        compaction,
    }
}

pub fn kv_write_wan(seed: u64, scale: f64) -> Plan {
    let w = Saturating {
        rtt: Duration::from_millis(100),
        mix: OpMix {
            put: 1.0,
            delete: 0.0,
            cas: 0.0,
        },
        zipf_theta: 0.0,
        ref_rps: WRITE_REF_RPS,
        over_rps: WRITE_OVER_RPS,
        warmup_secs: 4.0,
        ref_secs: 12.0,
        over_secs: 6.0,
    };
    saturating(w, seed, scale)
}

pub fn kv_read_lan(seed: u64, scale: f64) -> Plan {
    // The warm-up's 5 % Puts are the preload: Zipf keys put most reads on
    // keys that have been written by the time the reference phase starts.
    let w = Saturating {
        rtt: Duration::from_millis(1),
        mix: OpMix::read_mostly(),
        zipf_theta: 0.99,
        ref_rps: READ_REF_RPS,
        over_rps: READ_OVER_RPS,
        warmup_secs: 8.0,
        ref_secs: 24.0,
        over_secs: 10.0,
    };
    saturating(w, seed, scale)
}

/// Fig. 6a, 6b and 7 in one schedule over `span`, each level held equally:
/// the RTT ramps 50→200→50 ms, steps 50→500→50 ms, then loss climbs
/// 0→30→0 % at 100 ms. The warm-up runs on the first level.
fn fluct_schedule(warmup: Duration, span: Duration) -> LinkSchedule {
    let base = NetParams::clean(Duration::from_millis(50)).with_jitter(0.10);
    let rtt = |ms: u64| base.with_rtt(Duration::from_millis(ms));
    let mut levels: Vec<NetParams> = [
        50, 75, 100, 125, 150, 175, 200, 175, 150, 125, 100, 75, 50, 500, 50,
    ]
    .into_iter()
    .map(rtt)
    .collect();
    levels.extend(
        [0.10, 0.20, 0.30, 0.20, 0.10, 0.0]
            .into_iter()
            .map(|loss| rtt(100).with_loss(loss)),
    );
    let hold = span / levels.len() as u32;
    let segments = levels
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let at = if i == 0 {
                SimTime::ZERO
            } else {
                SimTime::ZERO + warmup + hold * i as u32
            };
            (at, p)
        })
        .collect();
    LinkSchedule::piecewise(segments)
}

fn faulty(net: impl FnOnce(Duration, Duration) -> NetPlan, seed: u64, scale: f64) -> Plan {
    let cycles = ((FAULT_CYCLES * scale).round() as usize).max(2);
    let start_offset = Duration::from_secs(5);
    let warmup_end = SimTime::ZERO + start_offset + FAULT_WARMUP;
    // The fault schedule is an input: drawn from the seed, before the run.
    // Each cycle is up, then pauses the leader at a random phase within half
    // a second (the fig4 procedure's phase averaging) and holds it down.
    let mut rng = Rng::new(seed).child(0xFA17);
    let cycle = UP + Duration::from_nanos(PHASE_JITTER_NS) + DOWN;
    let faults = (0..cycles)
        .map(|i| {
            let jitter = Duration::from_nanos(rng.below(PHASE_JITTER_NS));
            let pause_at = warmup_end + cycle * i as u32 + UP + jitter;
            (pause_at, pause_at + DOWN)
        })
        .collect();
    let span = cycle * cycles as u32 + FAULT_TAIL;
    let steps = vec![
        RateStep {
            rps: FAULT_RPS,
            hold: FAULT_WARMUP,
        },
        RateStep {
            rps: FAULT_RPS,
            hold: span,
        },
        // Quiesce before the horizon: the replica digests are compared
        // there, and a request still in flight then counts as failed.
        RateStep {
            rps: 0.001,
            hold: FAULT_DRAIN,
        },
    ];
    Plan {
        builder: ScenarioBuilder::cluster(5)
            .tuning(TuningConfig::dynatune())
            .net(net(start_offset + FAULT_WARMUP, span))
            .reads(ReadStrategy::Lease)
            .compaction(FAULT_COMPACTION.0, FAULT_COMPACTION.1)
            .cores(CORES)
            .seed(seed),
        spec: WorkloadSpec {
            steps,
            mix: OpMix {
                put: 0.5,
                delete: 0.0,
                cas: 0.0,
            },
            key_space: 1_000,
            zipf_theta: 0.0,
            value_size: 128,
            start_offset,
            request_timeout: Some(FAULT_TIMEOUT),
            read_fanout: false,
            record_trace: true,
        },
        phases: vec![Phase::Faulty, Phase::Drain],
        // Elections have a heavy tail, so no stretch of a faulty run is
        // safe from the schedule: every loss here is availability.
        unharmed: &[],
        faults,
        warmup_end,
        horizon: warmup_end + span + FAULT_DRAIN,
        compaction: FAULT_COMPACTION,
    }
}

pub fn failover_wan(seed: u64, scale: f64) -> Plan {
    faulty(
        |_, _| NetPlan::stable(Duration::from_millis(100)),
        seed,
        scale,
    )
}

pub fn fluct_wan(seed: u64, scale: f64) -> Plan {
    faulty(
        |warmup, span| NetPlan::uniform_schedule(fluct_schedule(warmup, span)),
        seed,
        scale,
    )
}

impl Plan {
    /// The same plan on a single server: the floor without replication.
    pub fn solo(mut self, seed: u64) -> Plan {
        self.builder = ScenarioBuilder::cluster(1)
            .tuning(TuningConfig::dynatune())
            .compaction(self.compaction.0, self.compaction.1)
            .cores(CORES)
            .seed(seed);
        self
    }
}

impl Cluster for ClusterSim {
    fn now(&self) -> SimTime {
        ClusterSim::now(self)
    }
    fn run_until(&mut self, deadline: SimTime) {
        ClusterSim::run_until(self, deadline);
    }
    fn n_servers(&self) -> usize {
        ClusterSim::n_servers(self)
    }
    fn group_size(&self) -> usize {
        ClusterSim::n_servers(self)
    }
    fn paused(&self, id: NodeId) -> bool {
        self.is_paused(id)
    }
    fn server(&self, id: NodeId) -> ServerSample {
        self.with_server(id, observe::sample_server)
    }
    fn net(&self) -> NetCounters {
        self.net_counters()
    }
    fn ops_done(&self) -> u64 {
        self.client_steps()
            .map_or(0, |steps| steps.iter().map(|s| s.completed).sum())
    }
}

/// Client-side accounting of one window set, by the instant each request
/// was due. A request that timed out, was refused, or was still pending at
/// the horizon is attempted but not completed: it counts as failed.
#[derive(Default, Debug, PartialEq)]
pub struct Accounting {
    pub attempted: u64,
    pub completed: u64,
    /// Due → committed reply, ms, of the completed ones.
    pub latencies_ms: Vec<f64>,
}

impl Accounting {
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.completed)
    }
}

/// `windows`: `(start, end, step index)` of each rate step to include.
/// `steps[i].sent` counts requests by the step they were due in; the trace
/// holds every completed request with its due (`invoked`) instant.
pub fn account(
    steps: &[StepRecord],
    trace: &[OpRecord],
    windows: &[(SimTime, SimTime, usize)],
) -> Accounting {
    let mut acc = Accounting {
        attempted: windows.iter().map(|&(_, _, i)| steps[i].sent).sum(),
        ..Accounting::default()
    };
    // Windows are disjoint and ascending: find by binary search.
    for op in trace {
        let idx = windows.partition_point(|&(_, end, _)| end <= op.invoked);
        if windows
            .get(idx)
            .is_some_and(|&(start, _, _)| op.invoked >= start)
        {
            acc.completed += 1;
            acc.latencies_ms
                .push((op.completed - op.invoked).as_secs_f64() * 1e3);
        }
    }
    acc
}

pub fn run(plan: &Plan, tracer: &mut Tracer) -> Rep {
    // ---- set-up: build, elect, warm tuners, preload ----
    let t_setup = Instant::now();
    tracer.begin("setup");
    tracer.begin("cluster.build");
    let mut sim = plan.builder.clone().workload(plan.spec.clone()).build_sim();
    tracer.end(&[]);
    tracer.begin("warmup");
    let mut warm = Sampler::default();
    observe::run_slices(
        &mut sim,
        plan.warmup_end,
        &mut Tracer::new(false),
        &mut warm,
        &[],
        |_, _| {},
    );
    tracer.end(&[]);
    tracer.end(&[]);
    let setup = t_setup.elapsed();

    // ---- the measured part ----
    let from = mark(&sim);
    let mut faults: Vec<Fault> = plan
        .faults
        .iter()
        .map(|&(pause_at, resume_at)| Fault {
            pause_at,
            resume_at,
            victim: None,
        })
        .collect();
    let stops: Vec<SimTime> = plan.faults.iter().flat_map(|&(p, r)| [p, r]).collect();
    let mut sampler = Sampler::default();
    let cpu0 = measure::cpu_time();
    let t_run = Instant::now();
    tracer.begin("rep");
    observe::run_slices(
        &mut sim,
        plan.horizon,
        tracer,
        &mut sampler,
        &stops,
        |sim, stop| {
            let fault = &mut faults[stop / 2];
            if stop % 2 == 0 {
                fault.victim = sim.leader();
                if let Some(v) = fault.victim {
                    sim.pause(v);
                }
            } else if let Some(v) = fault.victim {
                sim.resume(v);
            }
        },
    );
    tracer.end(&[]);
    let run = t_run.elapsed();
    let cpu = measure::cpu_time().saturating_sub(cpu0);
    let to = mark(&sim);

    // ---- read the outcome (untimed) ----
    let steps = sim.client_steps().unwrap_or_default();
    let trace = sim.client_trace().unwrap_or_default();
    let events = sim.events();
    let mut windows = Vec::new();
    let mut t = plan.warmup_end;
    for (i, phase) in plan.phases.iter().enumerate() {
        let end = t + plan.spec.steps[i + 1].hold;
        windows.push((t, end, i + 1, *phase));
        t = end;
    }
    let select = |want: &[Phase]| -> Vec<(SimTime, SimTime, usize)> {
        windows
            .iter()
            .filter(|w| want.contains(&w.3))
            .map(|&(s, e, i, _)| (s, e, i))
            .collect()
    };
    // Latency and ok_frac: the reference phase, or the whole faulty run.
    let mut served = account(&steps, &trace, &select(&[Phase::Reference, Phase::Faulty]));
    let unharmed = account(&steps, &trace, &select(plan.unharmed));
    // The trace is in completion order.
    let first_measured = trace.partition_point(|op| op.completed < plan.warmup_end);
    let ops = (trace.len() - first_measured) as u64;
    let measured_secs = (plan.horizon - plan.warmup_end).as_secs_f64();

    let mut out = SimOutcome::default();
    let overload = windows.iter().find(|w| w.3 == Phase::Overload);
    match overload {
        Some(&(start, end, i, _)) => {
            // `completed` is bucketed by completion instant: goodput inside
            // the phase is the capacity under the CostModel.
            let sent = steps[i].sent as f64;
            let done = steps[i].completed as f64;
            out.set("ops_per_sim_s", done / (end - start).as_secs_f64());
            out.set("cluster.overload_shed_frac", 1.0 - done / sent);
        }
        None => {
            out.set("ops_per_sim_s", served.completed as f64 / measured_secs);
            out.set("cluster.overload_shed_frac", 0.0);
        }
    }
    out.set(
        "ok_frac",
        served.completed as f64 / served.attempted.max(1) as f64,
    );
    out.set("cluster.lat_samples", served.latencies_ms.len() as f64);
    out.set("lat_ms_p50", measure::tail(&mut served.latencies_ms, 0.5));
    out.set("lat_ms_p99", measure::tail(&mut served.latencies_ms, 0.99));
    let lost_to_faults = if plan.faults.is_empty() {
        0
    } else {
        served.failed()
    };
    out.set("cluster.fault_window_failed", lost_to_faults as f64);
    out.attempted = served.attempted;
    out.failed = unharmed.failed();

    observe::common_counters(
        &mut out,
        &sim,
        &from,
        &to,
        &sampler,
        std::slice::from_ref(&events),
        &faults,
        CORES,
        ops,
    );

    // ---- the correctness gate ----
    let checked = &trace[first_measured..trace.len().min(first_measured + STALE_CHECK_OPS)];
    let stale = stale_read_violations(checked);
    if stale > 0 {
        out.violations
            .push(format!("stale_read_violations = {stale}"));
    }
    let replicas: Vec<(u64, u64)> = (0..Cluster::n_servers(&sim))
        .map(|id| {
            sim.with_server(id, |s| {
                (s.node().last_applied(), s.node().state_machine().digest())
            })
        })
        .collect();
    if replicas.iter().any(|r| *r != replicas[0]) {
        out.violations.push(format!(
            "replicas diverge at the horizon (last_applied, digest): {replicas:?}"
        ));
    }
    out.failed += out.violations.len() as u64;

    // ---- what the drives and the share estimate need ----
    let committed = out.get("raft.entries_committed");
    let n = Cluster::n_servers(&sim) as f64;
    let batch = batch_entries_estimate(committed, measured_secs, Duration::from_millis(1), 8192);
    out.set("raft.drive_batch_entries", batch as f64);
    let heartbeats = if out.get("core.h_ms_mean") > 0.0 {
        measured_secs * 1e3 / out.get("core.h_ms_mean") * (n - 1.0)
    } else {
        0.0
    };
    let reads = to.reads.total() - from.reads.total();
    let generated: u64 = steps[1..].iter().map(|s| s.sent).sum();
    let inputs = DriveInputs {
        payload_bytes: plan.spec.value_size,
        batch_entries: batch,
        log_len: sampler.max_log_len,
        store_keys: sim.with_server(0, |s| s.node().state_machine().len()),
        key_space: plan.spec.key_space,
        put_share: plan.spec.mix.put,
        produce_batch_records: 0,
    };
    let calls = CallCounts {
        msgs: out.get("simnet.msgs_delivered"),
        heartbeats,
        proposals: committed,
        appends: committed / batch as f64 * (n - 1.0),
        kv_applies: committed * n,
        kv_reads: reads as f64,
        kv_generated: generated as f64,
        // Every server snapshots its store each time its log passes the
        // compaction threshold.
        kv_snapshots: (committed / (plan.compaction.0 as f64 - plan.compaction.1 as f64)).floor()
            * n,
        ..CallCounts::default()
    };
    Rep {
        setup,
        run,
        cpu,
        ops,
        sim: out,
        inputs,
        calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn op(invoked: u64, completed: u64) -> OpRecord {
        OpRecord {
            key: Bytes::from_static(b"k"),
            write: true,
            invoked: at(invoked),
            completed: at(completed),
            revision: 1,
        }
    }

    fn step(sent: u64) -> StepRecord {
        StepRecord {
            sent,
            ..StepRecord::default()
        }
    }

    #[test]
    fn failed_requests_are_the_attempted_that_never_completed() {
        // Step 1 is the window [1000, 2000): 5 requests were due in it.
        // Three completed (one of them after the window closed: it still
        // belongs to the window it was due in); one timed out and one was
        // still pending at the horizon — neither is in the trace.
        let steps = [step(9), step(5), step(7)];
        let trace = [
            op(900, 1_050),   // due before the window: not ours
            op(1_000, 1_100), // due exactly at the start: ours
            op(1_500, 1_700),
            op(1_990, 2_400), // completes late, was due inside
            op(2_000, 2_100), // due exactly at the end: next window's
        ];
        let acc = account(&steps, &trace, &[(at(1_000), at(2_000), 1)]);
        assert_eq!(acc.attempted, 5);
        assert_eq!(acc.completed, 3);
        assert_eq!(acc.failed(), 2);
    }

    #[test]
    fn latency_runs_from_the_due_instant_to_the_reply() {
        // A request due at 1200 that was retried and answered at 3450 waited
        // 2250 ms, whatever happened in between.
        let steps = [step(0), step(2)];
        let trace = [op(1_200, 3_450), op(1_300, 1_435)];
        let acc = account(&steps, &trace, &[(at(1_000), at(2_000), 1)]);
        assert_eq!(acc.latencies_ms, vec![2_250.0, 135.0]);
    }

    #[test]
    fn windows_are_disjoint_and_summed() {
        let steps = [step(0), step(3), step(100), step(4)];
        let trace = [op(10, 20), op(150, 160), op(250, 260), op(290, 300)];
        let acc = account(
            &steps,
            &trace,
            &[(at(0), at(100), 1), (at(200), at(300), 3)],
        );
        assert_eq!(
            (acc.attempted, acc.completed, acc.failed()),
            (7, 3, 4),
            "the overload step between the windows is left out"
        );
    }

    #[test]
    fn fault_plans_are_made_from_the_seed_alone() {
        let a = failover_wan(7, 0.05);
        let b = failover_wan(7, 0.05);
        let c = failover_wan(8, 0.05);
        assert_eq!(a.faults, b.faults);
        assert_ne!(a.faults, c.faults);
        assert_eq!(a.faults.len(), 6);
        assert_eq!(a.phases.len() + 1, a.spec.steps.len());
        // Steps tile the measured span exactly.
        let total: Duration = a.spec.steps[1..].iter().map(|s| s.hold).sum();
        assert_eq!(a.warmup_end + total, a.horizon);
    }

    #[test]
    fn fluct_schedule_covers_ramp_step_and_loss() {
        let s = fluct_schedule(Duration::from_secs(100), Duration::from_secs(210));
        let p = |secs: u64| s.params_at(SimTime::from_secs(secs));
        assert_eq!(p(50).rtt, Duration::from_millis(50), "warm-up level");
        assert_eq!(p(100 + 65).rtt, Duration::from_millis(200), "ramp peak");
        assert_eq!(p(100 + 135).rtt, Duration::from_millis(500), "radical step");
        assert_eq!(p(100 + 175).loss, 0.30, "loss peak");
        assert_eq!(p(100 + 205).loss, 0.0);
    }
}
