//! What the benchmark reads from a running cluster, for both sims: counters
//! through public accessors, sampled once per `run_for` slice, and the
//! event-log analysis shared by every workload.

use crate::measure;
use dynatune_cluster::{
    election_safety_violations, extract_failover, leaderless_intervals, App, ReadCounters,
    ServerHost,
};
use dynatune_raft::{NodeId, RaftEvent, Role};
use dynatune_simnet::{NetCounters, SimTime};
use std::collections::BTreeMap;
use std::time::Duration;

/// One simulated slice between samples (and one `cluster.run_slice` span).
pub const SLICE: Duration = Duration::from_millis(250);

/// Simulated-clock results and exact counters of one rep. Equal seeds must
/// give bit-identical outcomes on every rep: that is the determinism gate.
#[derive(Clone, Default)]
pub struct SimOutcome {
    pub values: BTreeMap<&'static str, f64>,
    /// Client operations due in the measured windows (overload excluded).
    pub attempted: u64,
    /// Operations that failed while no fault was scheduled, plus every
    /// correctness violation below.
    pub failed: u64,
    /// Correctness-gate failures, spelled out.
    pub violations: Vec<String>,
}

impl SimOutcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// First difference from `other`, bit for bit.
    pub fn first_difference(&self, other: &SimOutcome) -> Option<String> {
        if (self.attempted, self.failed) != (other.attempted, other.failed) {
            return Some(format!(
                "attempted/failed {}/{} vs {}/{}",
                self.attempted, self.failed, other.attempted, other.failed
            ));
        }
        for (name, v) in &self.values {
            let w = other.values.get(name).copied().unwrap_or(f64::NAN);
            if v.to_bits() != w.to_bits() {
                return Some(format!("{name}: {v} vs {w}"));
            }
        }
        (self.values.len() != other.values.len()).then(|| "metric sets differ".to_string())
    }
}

/// Sizes the drives take from the run they follow.
#[derive(Clone, Copy, Default)]
pub struct DriveInputs {
    pub payload_bytes: usize,
    pub batch_entries: usize,
    pub log_len: usize,
    pub store_keys: usize,
    pub key_space: usize,
    /// Share of generated requests that are `Put`s (they carry a value).
    pub put_share: f64,
    pub produce_batch_records: usize,
}

/// Calls counted (or, where no counter exists, estimated) in the run; the
/// multipliers of the per-layer host-share estimate.
#[derive(Clone, Copy, Default)]
pub struct CallCounts {
    pub msgs: f64,
    pub heartbeats: f64,
    pub proposals: f64,
    pub appends: f64,
    pub kv_applies: f64,
    pub kv_reads: f64,
    pub kv_generated: f64,
    pub kv_snapshots: f64,
    pub broker_applies: f64,
    pub broker_fetches: f64,
}

/// One rep: both clocks.
pub struct Rep {
    pub setup: Duration,
    pub run: Duration,
    pub cpu: Duration,
    /// Correct completed client operations in the measured part.
    pub ops: u64,
    pub sim: SimOutcome,
    pub inputs: DriveInputs,
    pub calls: CallCounts,
}

/// Per-server numbers read through `ServerHost`'s public accessors.
pub struct ServerSample {
    pub busy: Duration,
    pub commit: u64,
    pub log_len: usize,
    pub snapshots_sent: u64,
    pub reads: ReadCounters,
    pub et_ms: f64,
    pub h_ms: f64,
    pub loss: f64,
    pub warmed: bool,
    /// Leaders only: the furthest any voter's match index trails the log.
    pub lag: Option<u64>,
}

pub fn sample_server<A: App>(s: &ServerHost<A>) -> ServerSample {
    let node = s.node();
    let t = node.tuning_snapshot();
    let lag = (node.role() == Role::Leader).then(|| {
        let last = node.log().last_index();
        node.membership()
            .voting_members()
            .into_iter()
            .filter_map(|p| node.progress_of(p))
            .map(|p| last.saturating_sub(p.match_index))
            .max()
            .unwrap_or(0)
    });
    ServerSample {
        busy: s.cpu().total_busy(),
        commit: node.commit_index(),
        log_len: s.log_len(),
        snapshots_sent: s.snapshots_sent(),
        reads: s.reads_served(),
        et_ms: t.election_timeout.as_secs_f64() * 1e3,
        h_ms: t.heartbeat_interval.as_secs_f64() * 1e3,
        loss: t.loss_rate,
        warmed: t.warmed,
        lag,
    }
}

/// The slice of either sim the benchmark drives and observes.
pub trait Cluster {
    fn now(&self) -> SimTime;
    fn run_until(&mut self, deadline: SimTime);
    fn n_servers(&self) -> usize;
    /// Replicas per Raft group (server ids are grouped contiguously).
    fn group_size(&self) -> usize;
    fn paused(&self, id: NodeId) -> bool;
    fn server(&self, id: NodeId) -> ServerSample;
    fn net(&self) -> NetCounters;
    /// Correct completed client operations so far.
    fn ops_done(&self) -> u64;
}

/// Counter snapshot at an instant; deltas of two give a window's counters.
#[derive(Clone)]
pub struct Mark {
    pub at: SimTime,
    pub net: NetCounters,
    pub busy: Vec<Duration>,
    pub commit: Vec<u64>,
    pub reads: ReadCounters,
    pub snapshots_sent: u64,
}

pub fn mark(c: &impl Cluster) -> Mark {
    let servers: Vec<ServerSample> = (0..c.n_servers()).map(|id| c.server(id)).collect();
    Mark {
        at: c.now(),
        net: c.net(),
        busy: servers.iter().map(|s| s.busy).collect(),
        commit: servers.iter().map(|s| s.commit).collect(),
        reads: servers
            .iter()
            .map(|s| s.reads)
            .fold(ReadCounters::default(), ReadCounters::merged),
        snapshots_sent: servers.iter().map(|s| s.snapshots_sent).sum(),
    }
}

/// Running aggregates over the per-slice samples of the measured part.
#[derive(Default)]
pub struct Sampler {
    et_ms: f64,
    h_ms: f64,
    k: f64,
    loss: f64,
    tuned: u64,
    pub max_log_len: usize,
    pub follower_lag_max: u64,
}

impl Sampler {
    pub fn sample(&mut self, c: &impl Cluster) {
        for id in 0..c.n_servers() {
            if c.paused(id) {
                continue;
            }
            let s = c.server(id);
            self.max_log_len = self.max_log_len.max(s.log_len);
            match s.lag {
                Some(lag) => self.follower_lag_max = self.follower_lag_max.max(lag),
                // Followers carry the tuner state of their path to the leader.
                None if s.warmed => {
                    self.tuned += 1;
                    self.et_ms += s.et_ms;
                    self.h_ms += s.h_ms;
                    self.k += s.et_ms / s.h_ms;
                    self.loss += s.loss;
                }
                None => {}
            }
        }
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.tuned == 0 {
            0.0
        } else {
            sum / self.tuned as f64
        }
    }
}

/// Drive `c` to `until` in [`SLICE`] steps, sampling after each. `stops`
/// (ascending instants inside the range) split slices so `at_stop` can act
/// on the cluster at exact simulated times (fault injection).
pub fn run_slices<C: Cluster>(
    c: &mut C,
    until: SimTime,
    tracer: &mut crate::trace::Tracer,
    sampler: &mut Sampler,
    stops: &[SimTime],
    mut at_stop: impl FnMut(&mut C, usize),
) {
    let mut next_stop = stops.partition_point(|&t| t < c.now());
    let mut slice_end = c.now() + SLICE;
    while c.now() < until {
        let stop = stops.get(next_stop).copied().unwrap_or(SimTime::MAX);
        let target = slice_end.min(stop).min(until);
        let before = tracer
            .enabled()
            .then(|| (c.now(), c.net().delivered, c.ops_done()));
        tracer.begin("cluster.run_slice");
        c.run_until(target);
        if let Some((t0, msgs0, ops0)) = before {
            tracer.end(&[
                ("sim_start_ms", t0.as_millis_f64()),
                ("sim_end_ms", c.now().as_millis_f64()),
                ("msgs_delivered", (c.net().delivered - msgs0) as f64),
                ("ops_completed", (c.ops_done() - ops0) as f64),
            ]);
        }
        if target == stop {
            at_stop(c, next_stop);
            next_stop += 1;
        }
        if target == slice_end {
            sampler.sample(c);
            slice_end += SLICE;
        }
    }
}

/// One injected leader failure.
#[derive(Clone, Copy)]
pub struct Fault {
    pub pause_at: SimTime,
    pub resume_at: SimTime,
    /// The leader that was paused (`None`: no leader existed, skipped).
    pub victim: Option<NodeId>,
}

/// Counters every workload derives from counter deltas, samples and the
/// merged event logs of its Raft groups (`groups`: one merged log each,
/// group-local node ids).
#[allow(clippy::too_many_arguments)]
pub fn common_counters(
    out: &mut SimOutcome,
    c: &impl Cluster,
    from: &Mark,
    to: &Mark,
    sampler: &Sampler,
    groups: &[Vec<(SimTime, NodeId, RaftEvent)>],
    faults: &[Fault],
    cores: usize,
    ops: u64,
) {
    let secs = (to.at - from.at).as_secs_f64();
    let per_op = |x: f64| if ops == 0 { 0.0 } else { x / ops as f64 };
    let sent = (to.net.sent - from.net.sent) as f64;
    out.set(
        "simnet.msgs_delivered",
        (to.net.delivered - from.net.delivered) as f64,
    );
    let dropped = |n: &NetCounters| n.dropped_loss + n.dropped_paused + n.dropped_partitioned;
    out.set(
        "simnet.msgs_dropped",
        (dropped(&to.net) - dropped(&from.net)) as f64,
    );
    out.set("simnet.msgs_per_op", per_op(sent));

    out.set("core.et_ms_mean", sampler.mean(sampler.et_ms));
    out.set("core.h_ms_mean", sampler.mean(sampler.h_ms));
    out.set("core.k_mean", sampler.mean(sampler.k));
    out.set("core.loss_est_mean", sampler.mean(sampler.loss));

    // Entries committed: per group, the furthest commit index, summed.
    let g = c.group_size();
    let committed = |m: &Mark| -> u64 {
        m.commit
            .chunks(g)
            .map(|grp| grp.iter().copied().max().unwrap_or(0))
            .sum()
    };
    out.set(
        "raft.entries_committed",
        (committed(to) - committed(from)) as f64,
    );
    out.set(
        "raft.snapshots_sent",
        (to.snapshots_sent - from.snapshots_sent) as f64,
    );
    out.set("raft.max_log_len", sampler.max_log_len as f64);
    out.set("raft.follower_lag_max", sampler.follower_lag_max as f64);

    // CPU under the CostModel: the busiest server is (nearly always) the
    // leader; the rest are followers.
    let mut busy: Vec<f64> = to
        .busy
        .iter()
        .zip(&from.busy)
        .map(|(b, a)| (*b - *a).as_secs_f64())
        .collect();
    busy.sort_unstable_by(f64::total_cmp);
    let total: f64 = busy.iter().sum();
    let top = busy.last().copied().unwrap_or(0.0);
    let capacity = secs * cores as f64;
    out.set("cluster.leader_cpu_util", top / capacity);
    out.set(
        "cluster.follower_cpu_util",
        (total - top) / (capacity * (busy.len() - 1).max(1) as f64),
    );
    out.set("cluster.cpu_ms_per_op", per_op(total * 1e3));
    out.set(
        "cluster.reads_lease",
        (to.reads.lease - from.reads.lease) as f64,
    );
    out.set(
        "cluster.reads_read_index",
        (to.reads.read_index - from.reads.read_index) as f64,
    );
    out.set(
        "cluster.reads_follower",
        (to.reads.follower - from.reads.follower) as f64,
    );

    // Election behaviour, from the event logs.
    let in_window = |t: SimTime| t >= from.at && t < to.at;
    let count = |pred: &dyn Fn(&RaftEvent) -> bool| -> f64 {
        groups
            .iter()
            .flatten()
            .filter(|(t, _, e)| in_window(*t) && pred(e))
            .count() as f64
    };
    out.set(
        "core.tuner_resets",
        count(&|e| matches!(e, RaftEvent::TunerReset)),
    );
    out.set(
        "raft.read_confirm_rounds",
        count(&|e| matches!(e, RaftEvent::ReadConfirmRound { .. })),
    );
    out.set(
        "raft.elections_started",
        count(&|e| matches!(e, RaftEvent::ElectionStarted { .. })),
    );
    out.set(
        "raft.elections_no_winner",
        count(&|e| matches!(e, RaftEvent::CampaignRetry { .. })),
    );
    // An election timer that fires while the leader is up is needless.
    let during_fault = |t: SimTime| {
        faults
            .iter()
            .any(|f| f.victim.is_some() && t >= f.pause_at && t < f.resume_at)
    };
    out.set(
        "raft.needless_elections",
        groups
            .iter()
            .flatten()
            .filter(|(t, _, e)| {
                in_window(*t) && !during_fault(*t) && matches!(e, RaftEvent::ElectionTimeout { .. })
            })
            .count() as f64,
    );
    let mut leaderless = 0.0;
    let mut unsafe_elections = 0;
    for events in groups {
        unsafe_elections += election_safety_violations(events);
        for (a, b) in leaderless_intervals(events, to.at) {
            leaderless += (b.min(to.at.as_secs_f64()) - a.max(from.at.as_secs_f64())).max(0.0);
        }
    }
    out.set(
        "raft.leaderless_frac",
        leaderless / (secs * groups.len().max(1) as f64),
    );
    if unsafe_elections > 0 {
        out.violations
            .push(format!("election_safety_violations = {unsafe_elections}"));
    }

    // Injected failures: detection and out-of-service time (single group).
    let mut detect = Vec::new();
    let mut ots = Vec::new();
    let mut censored = 0u64;
    for f in faults {
        let times = f
            .victim
            .map(|v| extract_failover(&groups[0], f.pause_at, v));
        let down = f.resume_at - f.pause_at;
        match times.map(|t| (t.detection, t.ots)) {
            // A new leader only counts while the old one is still down.
            Some((Some(d), Some(o))) if o < down => {
                detect.push(d.as_secs_f64() * 1e3);
                ots.push(o.as_secs_f64() * 1e3);
            }
            _ => censored += 1,
        }
    }
    out.set("raft.failovers", faults.len() as f64);
    out.set("raft.failovers_censored", censored as f64);
    out.set("raft.detect_ms_p50", measure::tail(&mut detect, 0.5));
    out.set("raft.ots_ms_p50", measure::tail(&mut ots, 0.5));
    out.set("raft.ots_ms_p90", measure::tail(&mut ots, 0.9));
}

/// Entries the leader's group commit would coalesce into one append at the
/// measured commit rate. No counter exposes the real batch size, so the
/// drives are sized from this estimate (see the README).
pub fn batch_entries_estimate(committed: f64, secs: f64, delay: Duration, cap: usize) -> usize {
    let per_flush = committed / secs * delay.as_secs_f64();
    (per_flush.round() as usize).clamp(1, cap)
}
