//! Node configuration.

use crate::types::NodeId;
use dynatune_core::TuningConfig;

/// How election-timer expiry interacts with the tick clock.
///
/// etcd counts election timeouts in ticks whose period is the heartbeat
/// interval: expiry is only observed on a tick boundary. The paper's
/// measured detection times (≈ 2·Et for Dynatune, whose tick equals Et
/// because K = 1 at zero loss) only make sense under this quantization, so
/// it is the default; `Continuous` is provided for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerQuantization {
    /// Expiry observed at the first tick boundary at or after the deadline
    /// (tick period = the node's current expected heartbeat interval).
    Tick,
    /// Expiry observed exactly at `last_reset + randomized_timeout`.
    Continuous,
}

/// Static configuration of one Raft node.
#[derive(Debug, Clone)]
pub struct RaftConfig {
    /// This node's id.
    pub id: NodeId,
    /// The genesis voter set. Usually includes this node; an *outsider*
    /// configuration (id not in `peers` or `learners`) is also valid — the
    /// node then starts as a silent follower that never campaigns, waiting
    /// to be admitted through a replicated configuration change
    /// (`AddLearner` → catch-up → promotion).
    pub peers: Vec<NodeId>,
    /// Genesis non-voting learners: replicated to, but counted in no
    /// election, commit, read or lease quorum. Normally empty — learners
    /// are usually added at runtime via `ConfChange::AddLearner`.
    pub learners: Vec<NodeId>,
    /// Election-parameter tuning configuration (mode selects the paper's
    /// Raft / Raft-Low / Fix-K / Dynatune variants).
    pub tuning: TuningConfig,
    /// Run the pre-vote phase before real elections (etcd ≥ 3.4 default).
    pub pre_vote: bool,
    /// Election-timer quantization discipline.
    pub quantization: TimerQuantization,
    /// Send heartbeats over the UDP-like channel (the paper's hybrid
    /// transport). When false everything uses TCP (stock etcd; ablation).
    pub udp_heartbeats: bool,
    /// Maximum entries per `AppendEntries` message.
    pub max_entries_per_append: usize,
    /// How many `AppendEntries` may be in flight to one follower at once
    /// (etcd's pipelining). `1` restores the historical one-at-a-time
    /// discipline, where per-follower throughput is capped at one append
    /// batch per RTT; larger windows keep the pipe full across the RTT. An
    /// in-flight `InstallSnapshot` always occupies the whole window.
    pub pipeline_window: usize,
    /// Group commit: flush the proposal batch to followers once this many
    /// payload bytes have accumulated, even if the group-commit delay cap
    /// (the constant `MAX_BATCH_DELAY` in `node/replication.rs`) has not
    /// elapsed yet.
    pub max_batch_bytes: usize,
    /// §IV-E extension 1: skip a follower's heartbeat when replication
    /// traffic was sent to it within the current heartbeat interval —
    /// appends already reset the follower's election timer, so under load
    /// the heartbeats are redundant CPU/bandwidth. Off by default (the
    /// paper leaves it as future work).
    pub suppress_heartbeats_when_replicating: bool,
    /// §IV-E extension 2: fire all followers' heartbeats together on the
    /// smallest tuned interval, so the leader manages one timer instead of
    /// n−1. Off by default (future work in the paper).
    pub consolidated_heartbeat_timer: bool,
    /// Enable the leader-lease fast path for log-free reads: while a quorum
    /// has acknowledged heartbeats within the (margin-scaled) lease window,
    /// [`RaftNode::request_read`](crate::RaftNode::request_read) grants
    /// reads immediately instead of running a ReadIndex confirmation round.
    /// The lease lasts the tuning's default election timeout, the smallest
    /// timeout an untuned member runs (`node/reads.rs` clamps it to the
    /// tuning floor under a tuning mode). Inert unless the host actually
    /// requests log-free reads.
    pub lease_reads: bool,
    /// Seed for the node's randomized-timeout stream.
    pub seed: u64,
}

impl RaftConfig {
    /// Standard configuration for node `id` in a cluster of `n` nodes.
    #[must_use]
    pub fn new(id: NodeId, n: usize, tuning: TuningConfig) -> Self {
        assert!(id < n, "node id {id} out of range for cluster of {n}");
        Self::with_peers(id, (0..n).collect(), tuning)
    }

    /// Configuration with an explicit genesis voter set. Unlike
    /// [`RaftConfig::new`], `id` need not appear in `peers`: an absent id
    /// builds an outsider node that never campaigns until a replicated
    /// configuration change admits it.
    #[must_use]
    pub fn with_peers(id: NodeId, peers: Vec<NodeId>, tuning: TuningConfig) -> Self {
        Self {
            id,
            peers,
            learners: Vec::new(),
            tuning,
            pre_vote: true,
            quantization: TimerQuantization::Tick,
            udp_heartbeats: true,
            // etcd's default message budget (~1 MB) holds thousands of small
            // entries; even with the pipeline window at 1, a single append
            // batch must comfortably exceed peak-rate × RTT
            // (≈ 14k req/s × 100 ms ≈ 1400 entries).
            max_entries_per_append: 8192,
            pipeline_window: 4,
            max_batch_bytes: 64 * 1024,
            suppress_heartbeats_when_replicating: false,
            consolidated_heartbeat_timer: false,
            lease_reads: true,
            seed: 0xD15_EA5E ^ id as u64,
        }
    }

    /// Number of cluster members.
    #[must_use]
    pub fn cluster_size(&self) -> usize {
        self.peers.len()
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics when the config is inconsistent.
    pub fn validate(&self) {
        assert!(!self.peers.is_empty(), "empty cluster");
        assert!(
            !self.learners.iter().any(|l| self.peers.contains(l)),
            "a node cannot be both a genesis voter and a genesis learner"
        );
        assert!(self.max_entries_per_append > 0, "zero append batch size");
        assert!(self.pipeline_window > 0, "zero pipeline window");
        assert!(self.max_batch_bytes > 0, "zero group-commit byte cap");
        self.tuning.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_builds_full_peer_set() {
        let c = RaftConfig::new(2, 5, TuningConfig::dynatune());
        assert_eq!(c.peers, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.cluster_size(), 5);
        assert!(c.pre_vote);
        assert_eq!(c.quantization, TimerQuantization::Tick);
        c.validate();
    }

    #[test]
    fn replication_defaults_are_pipelined() {
        let c = RaftConfig::new(0, 3, TuningConfig::dynatune());
        assert!(c.pipeline_window >= 4, "pipelining on by default");
        c.validate();
    }

    #[test]
    #[should_panic(expected = "zero pipeline window")]
    fn zero_pipeline_window_panics() {
        let mut c = RaftConfig::new(0, 3, TuningConfig::dynatune());
        c.pipeline_window = 0;
        c.validate();
    }

    #[test]
    fn per_node_seeds_differ() {
        let a = RaftConfig::new(0, 3, TuningConfig::dynatune());
        let b = RaftConfig::new(1, 3, TuningConfig::dynatune());
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_out_of_range_panics() {
        let _ = RaftConfig::new(5, 5, TuningConfig::dynatune());
    }

    #[test]
    fn outsider_config_is_valid() {
        // A node configured with a genesis voter set it is not part of:
        // the spare-server shape used for elastic scale-out.
        let c = RaftConfig::with_peers(3, vec![0, 1, 2], TuningConfig::dynatune());
        assert!(!c.peers.contains(&c.id));
        assert!(c.learners.is_empty());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "both a genesis voter and a genesis learner")]
    fn voter_learner_overlap_panics() {
        let mut c = RaftConfig::new(0, 3, TuningConfig::dynatune());
        c.learners = vec![2];
        c.validate();
    }
}
