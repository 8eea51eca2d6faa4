//! Declarative fault plans: timed failure-injection events as data.
//!
//! The paper's experiments inject failures imperatively (pause the leader
//! after warm-up, cut a partition, heal it later). A [`FaultPlan`] captures
//! the same schedules as plain data — a sorted list of [`FaultEvent`]s —
//! which the [scenario driver](crate::scenario::driver) executes against a
//! running cluster. Targets may be symbolic ([`Target::Leader`],
//! [`PartitionSpec::LeaderPlusFollowers`]): they are resolved against the
//! live cluster state at the moment the event fires, which is what the
//! hand-written injection loops used to do inline.

use dynatune_raft::NodeId;
use std::time::Duration;

/// Who a pause/resume/crash applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A fixed node id.
    Node(NodeId),
    /// Whichever node leads when the event fires (skipped if none does).
    Leader,
}

/// Which nodes form the cut-off group of a partition event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionSpec {
    /// An explicit group of nodes.
    Nodes(Vec<NodeId>),
    /// The current leader plus the first `k` followers (by id). The classic
    /// "isolate the leader with a minority" cut.
    LeaderPlusFollowers(usize),
    /// The first `k` followers (by id), leader excluded: a minority that
    /// can never elect.
    FollowersOnly(usize),
}

/// One failure-injection action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Freeze a node (the paper's `docker pause` failure mode).
    Pause(Target),
    /// Unfreeze a paused node.
    Resume(Target),
    /// Resume every paused node.
    ResumeAll,
    /// Crash-restart a node: volatile state lost; the log and the applied
    /// state machine kept, as on disk.
    Crash(Target),
    /// Split the network: the spec'd group on one side, the rest on the
    /// other.
    Partition(PartitionSpec),
    /// Heal all partitions.
    Heal,
}

/// A timed action, optionally with a random phase offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Nominal fire time (relative to simulation start).
    pub at: Duration,
    /// Uniform random extra delay in `[0, jitter)`, drawn deterministically
    /// from the cluster seed. The failover experiments use this to average
    /// over the heartbeat phase, as the paper's 1000 repeated failures do.
    pub jitter: Duration,
    /// What happens.
    pub action: FaultAction,
}

impl FaultEvent {
    /// An event firing exactly at `at`.
    #[must_use]
    pub fn at(at: Duration, action: FaultAction) -> Self {
        Self {
            at,
            jitter: Duration::ZERO,
            action,
        }
    }

    /// Add a random phase offset in `[0, jitter)`.
    #[must_use]
    pub fn jittered(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }
}

/// A whole failure schedule: events sorted by nominal time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no failures — fluctuation-only scenarios).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event (kept sorted by nominal time; ties keep insertion
    /// order).
    #[must_use]
    pub fn event(mut self, e: FaultEvent) -> Self {
        let pos = self.events.partition_point(|x| x.at <= e.at);
        self.events.insert(pos, e);
        self
    }

    /// Pause the current leader at `at` (phase-jittered by `jitter`).
    #[must_use]
    pub fn pause_leader(self, at: Duration, jitter: Duration) -> Self {
        self.event(FaultEvent::at(at, FaultAction::Pause(Target::Leader)).jittered(jitter))
    }

    /// Crash the current leader at `at`.
    #[must_use]
    pub fn crash_leader(self, at: Duration) -> Self {
        self.event(FaultEvent::at(at, FaultAction::Crash(Target::Leader)))
    }

    /// Pause a fixed node at `at`.
    #[must_use]
    pub fn pause_node(self, at: Duration, node: NodeId) -> Self {
        self.event(FaultEvent::at(at, FaultAction::Pause(Target::Node(node))))
    }

    /// Partition at `at`.
    #[must_use]
    pub fn partition(self, at: Duration, spec: PartitionSpec) -> Self {
        self.event(FaultEvent::at(at, FaultAction::Partition(spec)))
    }

    /// Heal all partitions at `at`.
    #[must_use]
    pub fn heal(self, at: Duration) -> Self {
        self.event(FaultEvent::at(at, FaultAction::Heal))
    }

    /// A flapping partition: starting at `start`, cut `spec` for `down`,
    /// heal for `up`, repeated `cycles` times. The churn workload the old
    /// imperative API had no vocabulary for.
    #[must_use]
    pub fn flapping_partition(
        mut self,
        start: Duration,
        spec: PartitionSpec,
        down: Duration,
        up: Duration,
        cycles: usize,
    ) -> Self {
        let mut t = start;
        for _ in 0..cycles {
            self = self.partition(t, spec.clone());
            t += down;
            self = self.heal(t);
            t += up;
        }
        self
    }

    /// The events, sorted by nominal time.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_sorted() {
        let plan = FaultPlan::new()
            .heal(Duration::from_secs(20))
            .pause_leader(Duration::from_secs(5), Duration::ZERO)
            .partition(Duration::from_secs(10), PartitionSpec::FollowersOnly(2));
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(times, vec![5, 10, 20]);
    }

    #[test]
    fn flapping_partition_expands_to_cycles() {
        let plan = FaultPlan::new().flapping_partition(
            Duration::from_secs(30),
            PartitionSpec::LeaderPlusFollowers(1),
            Duration::from_secs(10),
            Duration::from_secs(15),
            3,
        );
        assert_eq!(plan.len(), 6);
        let kinds: Vec<bool> = plan
            .events()
            .iter()
            .map(|e| matches!(e.action, FaultAction::Partition(_)))
            .collect();
        assert_eq!(kinds, vec![true, false, true, false, true, false]);
        // Cycle period = down + up = 25s.
        assert_eq!(plan.events()[2].at, Duration::from_secs(55));
    }

    #[test]
    fn empty_plan_reports_empty() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
    }
}
