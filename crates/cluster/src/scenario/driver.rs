//! Generic scenario driver: executes a [`FaultPlan`] against a cluster and
//! samples observables on a fixed cadence.
//!
//! The driver is the run/pause/observe loop of the `ablations`,
//! `failover`, `fluctuation`, `novel` and `throughput` catalog modules;
//! `broker`, `compaction`, `membership`, `reads` and `sharded` inject
//! their faults on the `ClusterSim` by hand. It interleaves two streams of
//! simulated-time work:
//!
//! 1. **Fault events** from the plan, with per-event jitter resolved
//!    deterministically from the cluster seed, and symbolic targets
//!    (`Leader`, `LeaderPlusFollowers`) resolved against live cluster
//!    state at fire time. Every execution is recorded in a trace, together
//!    with the pre-fault leader and randomized timeouts, so experiments
//!    can reconstruct "state just before the failure" without hooks.
//! 2. **Samples** every `sample_every`, capturing the observables all the
//!    fluctuation figures need (k-th smallest randomizedTimeout, probe
//!    RTT, leader heartbeat interval).

use crate::observers::kth_smallest_timeout_ms;
use crate::scenario::plan::{FaultAction, FaultEvent, FaultPlan, PartitionSpec, Target};
use crate::sim::{ClusterConfig, ClusterSim};
use dynatune_raft::NodeId;
use dynatune_simnet::{Rng, SimTime};
use std::time::Duration;

/// Seed salt for fault-phase jitter (kept from the original failover
/// experiment so trial phase distributions stay comparable).
const PHASE_SALT: u64 = 0xFA11;

/// How long the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// Run until this absolute simulated time.
    At(Duration),
    /// Run until the last *resolved* fault time plus this observation
    /// window (equals `At` semantics for an empty plan).
    AfterLastFault(Duration),
}

/// One executed (or skipped) fault, with the pre-fault cluster state.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedFault {
    /// Index into the plan's event list.
    pub index: usize,
    /// Resolved fire time (nominal + jitter draw).
    pub at: SimTime,
    /// The declarative action.
    pub action: FaultAction,
    /// Concrete nodes acted upon (empty for `Heal`/`ResumeAll`/skips).
    pub targets: Vec<NodeId>,
    /// True when a symbolic target could not be resolved (e.g. `Leader`
    /// with no live leader) and the action was skipped.
    pub skipped: bool,
    /// The live leader just before the action fired.
    pub leader_before: Option<NodeId>,
    /// Per-node randomized timeouts (ms) just before the action fired
    /// (`None` for paused nodes).
    pub rtos_before_ms: Vec<Option<f64>>,
}

impl ExecutedFault {
    /// Mean randomized timeout (ms) across live nodes other than
    /// `exclude` just before the fault — the paper's "mean
    /// randomizedTimeout at the time of detection".
    #[must_use]
    pub fn mean_rto_before_ms(&self, exclude: Option<NodeId>) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (id, rto) in self.rtos_before_ms.iter().enumerate() {
            if Some(id) == exclude {
                continue;
            }
            if let Some(ms) = rto {
                sum += ms;
                count += 1;
            }
        }
        if count == 0 {
            f64::NAN
        } else {
            sum / count as f64
        }
    }
}

/// One periodic observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample time.
    pub t: SimTime,
    /// Live leader, if exactly one exists.
    pub leader: Option<NodeId>,
    /// k-th smallest randomized timeout (ms) across live servers, with
    /// k = ⌊n/2⌋ + 1 (the majority representative of Fig. 6).
    pub majority_rto_ms: Option<f64>,
    /// Scheduled RTT of the 0→1 probe link (ms).
    pub rtt_ms: f64,
    /// Mean heartbeat interval the leader applies (ms), if a leader exists
    /// and paces at least one follower.
    pub leader_mean_h_ms: Option<f64>,
}

/// Everything a scenario run produced.
pub struct ScenarioRun {
    /// The final cluster state (event logs, tuning snapshots, counters).
    pub sim: ClusterSim,
    /// Executed faults, in fire order.
    pub trace: Vec<ExecutedFault>,
    /// Periodic samples (empty unless sampling was enabled).
    pub samples: Vec<Sample>,
    /// The absolute horizon the run ended at.
    pub horizon: SimTime,
}

impl ScenarioRun {
    /// The first non-skipped fault, if any — the anchor most single-fault
    /// experiments (failover) measure from.
    #[must_use]
    pub fn first_fault(&self) -> Option<&ExecutedFault> {
        self.trace.iter().find(|f| !f.skipped)
    }
}

/// Configured, not-yet-run scenario execution.
pub struct ScenarioDriver {
    config: ClusterConfig,
    plan: FaultPlan,
    sample_every: Option<Duration>,
    horizon: Horizon,
}

impl ScenarioDriver {
    /// Drive `config` with no faults, no sampling, for 60 s (override with
    /// [`Self::horizon`]).
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        Self {
            config,
            plan: FaultPlan::new(),
            sample_every: None,
            horizon: Horizon::At(Duration::from_secs(60)),
        }
    }

    /// Attach a fault plan.
    #[must_use]
    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Sample observables every `every`.
    ///
    /// # Panics
    /// Panics on a zero interval: the event loop would spin at one
    /// simulated instant forever.
    #[must_use]
    pub fn sample_every(mut self, every: Duration) -> Self {
        assert!(every > Duration::ZERO, "sampling cadence must be positive");
        self.sample_every = Some(every);
        self
    }

    /// Set the run horizon.
    #[must_use]
    pub fn horizon(mut self, horizon: Horizon) -> Self {
        self.horizon = horizon;
        self
    }

    /// Execute the scenario.
    ///
    /// # Panics
    /// Panics when `Horizon::AfterLastFault` is used with jittered events
    /// that would fire after the computed horizon (cannot happen: the
    /// horizon anchors on the last resolved time).
    #[must_use]
    pub fn run(self) -> ScenarioRun {
        let seed = self.config.seed;
        let mut sim = ClusterSim::new(&self.config);
        // Resolve each event's fire time up front: nominal + U[0, jitter),
        // drawn from a per-event child of the seed so plans of different
        // lengths don't perturb each other's draws.
        let mut resolved: Vec<(SimTime, usize, FaultEvent)> = self
            .plan
            .events()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let at = if e.jitter > Duration::ZERO {
                    let mut rng = Rng::new(seed ^ PHASE_SALT).child(i as u64);
                    let extra = Duration::from_nanos(rng.below(e.jitter.as_nanos() as u64));
                    SimTime::ZERO + e.at + extra
                } else {
                    SimTime::ZERO + e.at
                };
                (at, i, e.clone())
            })
            .collect();
        resolved.sort_by_key(|&(at, i, _)| (at, i));

        let horizon = match self.horizon {
            Horizon::At(d) => SimTime::ZERO + d,
            Horizon::AfterLastFault(observe) => {
                let last = resolved.last().map_or(SimTime::ZERO, |&(at, _, _)| at);
                last + observe
            }
        };

        let mut trace = Vec::with_capacity(resolved.len());
        let mut samples = Vec::new();
        let mut next_sample = self.sample_every.map(|every| SimTime::ZERO + every);
        let mut faults = resolved.into_iter().peekable();

        loop {
            // The next thing to do: a fault, a sample, or the horizon.
            let next_fault_at = faults.peek().map(|&(at, _, _)| at);
            let step_to = [next_fault_at, next_sample]
                .into_iter()
                .flatten()
                .min()
                .map_or(horizon, |t| t.min(horizon));
            if step_to > horizon {
                break;
            }
            sim.run_until(step_to);
            // Faults fire before samples at the same instant: a sample at
            // a fault time observes the post-fault world, matching the old
            // imperative loops (inject, then keep sampling).
            while faults.peek().is_some_and(|&(at, _, _)| at <= step_to) {
                let Some((at, index, event)) = faults.next() else {
                    break; // unreachable: peek() above was Some
                };
                trace.push(execute(&mut sim, at, index, &event));
            }
            if next_sample.is_some_and(|t| t <= step_to) {
                samples.push(observe(&sim));
                next_sample = next_sample
                    .zip(self.sample_every)
                    .map(|(t, every)| t + every);
            }
            if step_to >= horizon {
                break;
            }
        }

        ScenarioRun {
            sim,
            trace,
            samples,
            horizon,
        }
    }
}

/// Resolve a symbolic target against live cluster state.
fn resolve_target(sim: &ClusterSim, target: Target) -> Option<NodeId> {
    match target {
        Target::Node(id) => Some(id),
        Target::Leader => sim.leader(),
    }
}

/// Resolve a partition spec to the cut-off group.
fn resolve_partition(sim: &ClusterSim, spec: &PartitionSpec) -> Option<Vec<NodeId>> {
    match spec {
        PartitionSpec::Nodes(nodes) => Some(nodes.clone()),
        PartitionSpec::LeaderPlusFollowers(k) => {
            let leader = sim.leader()?;
            let mut group = vec![leader];
            group.extend((0..sim.n_servers()).filter(|&id| id != leader).take(*k));
            Some(group)
        }
        PartitionSpec::FollowersOnly(k) => {
            let leader = sim.leader()?;
            Some(
                (0..sim.n_servers())
                    .filter(|&id| id != leader)
                    .take(*k)
                    .collect(),
            )
        }
    }
}

fn execute(sim: &mut ClusterSim, at: SimTime, index: usize, event: &FaultEvent) -> ExecutedFault {
    let leader_before = sim.leader();
    let rtos_before_ms: Vec<Option<f64>> = sim
        .randomized_timeouts()
        .iter()
        .map(|d| d.map(|d| d.as_secs_f64() * 1e3))
        .collect();
    let mut targets = Vec::new();
    let mut skipped = false;
    match &event.action {
        FaultAction::Pause(t) => match resolve_target(sim, *t) {
            Some(id) => {
                sim.pause(id);
                targets.push(id);
            }
            None => skipped = true,
        },
        FaultAction::Resume(t) => match resolve_target(sim, *t) {
            Some(id) => {
                sim.resume(id);
                targets.push(id);
            }
            None => skipped = true,
        },
        FaultAction::ResumeAll => {
            for id in 0..sim.n_servers() {
                if sim.is_paused(id) {
                    sim.resume(id);
                    targets.push(id);
                }
            }
        }
        FaultAction::Crash(t) => match resolve_target(sim, *t) {
            Some(id) => {
                sim.crash(id);
                targets.push(id);
            }
            None => skipped = true,
        },
        FaultAction::Partition(spec) => match resolve_partition(sim, spec) {
            Some(group) => {
                sim.partition(&group);
                targets = group;
            }
            None => skipped = true,
        },
        FaultAction::Heal => sim.heal_partition(),
    }
    ExecutedFault {
        index,
        at,
        action: event.action.clone(),
        targets,
        skipped,
        leader_before,
        rtos_before_ms,
    }
}

fn observe(sim: &ClusterSim) -> Sample {
    let n = sim.n_servers();
    let k = n / 2 + 1;
    Sample {
        t: sim.now(),
        leader: sim.leader(),
        majority_rto_ms: kth_smallest_timeout_ms(&sim.randomized_timeouts(), k),
        rtt_ms: sim.probe_rtt().as_secs_f64() * 1e3,
        leader_mean_h_ms: sim
            .leader_mean_heartbeat_interval()
            .map(|d| d.as_secs_f64() * 1e3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::builder::ScenarioBuilder;
    use dynatune_core::TuningConfig;
    use dynatune_raft::Role;

    fn stable(seed: u64) -> ClusterConfig {
        ScenarioBuilder::cluster(5)
            .tuning(TuningConfig::raft_default())
            .seed(seed)
            .build()
    }

    #[test]
    fn pause_leader_plan_causes_failover() {
        let plan = FaultPlan::new().pause_leader(Duration::from_secs(10), Duration::from_secs(1));
        let run = ScenarioDriver::new(stable(4))
            .plan(plan)
            .horizon(Horizon::AfterLastFault(Duration::from_secs(10)))
            .run();
        let fault = run.first_fault().expect("fault executed");
        assert!(!fault.skipped);
        assert_eq!(fault.targets.len(), 1);
        let old_leader = fault.targets[0];
        assert_eq!(fault.leader_before, Some(old_leader));
        // Jitter places the fault within [10s, 11s).
        assert!(fault.at >= SimTime::from_secs(10) && fault.at < SimTime::from_secs(11));
        let new_leader = run.sim.leader().expect("failover leader");
        assert_ne!(new_leader, old_leader);
    }

    #[test]
    fn sampling_observes_on_cadence() {
        let run = ScenarioDriver::new(stable(5))
            .sample_every(Duration::from_secs(1))
            .horizon(Horizon::At(Duration::from_secs(10)))
            .run();
        assert_eq!(run.samples.len(), 10);
        assert_eq!(run.samples[0].t, SimTime::from_secs(1));
        assert_eq!(run.samples[9].t, SimTime::from_secs(10));
        // Stable 100ms mesh: the probe RTT is constant.
        assert!((run.samples[3].rtt_ms - 100.0).abs() < 1e-9);
        // A leader exists by the late samples.
        assert!(run.samples.last().unwrap().leader.is_some());
    }

    #[test]
    fn symbolic_target_without_leader_is_skipped() {
        // t=0: no leader can exist yet.
        let plan = FaultPlan::new().crash_leader(Duration::ZERO);
        let run = ScenarioDriver::new(stable(6))
            .plan(plan)
            .horizon(Horizon::At(Duration::from_secs(5)))
            .run();
        assert_eq!(run.trace.len(), 1);
        assert!(run.trace[0].skipped);
        assert!(run.first_fault().is_none());
    }

    #[test]
    fn partition_and_heal_round_trip() {
        let plan = FaultPlan::new()
            .partition(
                Duration::from_secs(15),
                PartitionSpec::LeaderPlusFollowers(1),
            )
            .heal(Duration::from_secs(35));
        let run = ScenarioDriver::new(stable(7))
            .plan(plan)
            .horizon(Horizon::At(Duration::from_secs(55)))
            .run();
        assert_eq!(run.trace.len(), 2);
        let cut = &run.trace[0];
        assert_eq!(cut.targets.len(), 2, "leader plus one follower");
        let old_leader = cut.leader_before.expect("leader before partition");
        assert!(cut.targets.contains(&old_leader));
        // Majority elected a replacement; after healing the old leader is
        // a follower again.
        let final_leader = run.sim.leader().expect("leader after heal");
        assert_ne!(final_leader, old_leader);
        let role = run.sim.with_server(old_leader, |s| s.node().role());
        assert_eq!(role, Role::Follower);
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            let plan =
                FaultPlan::new().pause_leader(Duration::from_secs(10), Duration::from_secs(1));
            let run = ScenarioDriver::new(stable(8))
                .plan(plan)
                .sample_every(Duration::from_secs(2))
                .horizon(Horizon::AfterLastFault(Duration::from_secs(8)))
                .run();
            (run.trace, run.samples, run.sim.events().len())
        };
        let (t1, s1, e1) = go();
        let (t2, s2, e2) = go();
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert_eq!(e1, e2);
    }
}
