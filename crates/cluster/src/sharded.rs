//! Multi-group (sharded) KV clusters: N independent Raft groups and a
//! shard-aware client inside one simulated world.
//!
//! A single group funnels every write through one leader, so its
//! throughput is capped by one machine's CPU no matter how many hosts the
//! fabric models. Sharding lifts that cap: the keyspace is hash-partitioned
//! by a [`ShardRouter`](dynatune_kv::ShardRouter), each partition is
//! replicated by its own Raft group (own leader, own tuner state, own
//! election timers), and a [`ShardClient`] routes and batches requests per
//! shard. Groups share nothing but the network fabric — a fault in one
//! group's leader leaves the other groups' commit pipelines untouched,
//! which the `shard_leader_failover` scenario measures.
//!
//! The cluster itself is the one [`ClusterSim`] (see its module for the
//! host layout); this module only adds what the [`ShardClient`] exposes.

use crate::app::KvApp;
use crate::shard_client::{ShardClient, ShardStats};
use crate::sim::ClusterSim;
use dynatune_kv::ShardId;
use dynatune_raft::NodeId;

/// A running sharded KV cluster: the one [`ClusterSim`] driven by a
/// [`ShardClient`].
pub type ShardedClusterSim = ClusterSim<KvApp, ShardClient>;

impl ShardedClusterSim {
    /// Repoint the shard client's placement row for `shard`: replica `from`
    /// (world id) is replaced by `to`. Called by the rebalancer after the
    /// final configuration commits, so client traffic follows the data.
    /// No-op without a workload client.
    pub fn repoint_shard(&mut self, shard: ShardId, from: NodeId, to: NodeId) {
        if let Some(c) = self.client_mut() {
            c.repoint(shard, from, to);
        }
    }

    /// Take (and reset) one shard's windowed latency histogram (µs) from
    /// the workload client (`None` without one). Take once to discard
    /// warm-up, again after the window of interest.
    pub fn take_latency_window(&mut self, shard: ShardId) -> Option<dynatune_stats::Histogram> {
        self.client_mut().map(|c| c.take_latency_window(shard))
    }

    /// Per-shard client counters (`None` without a workload).
    #[must_use]
    pub fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        self.client().map(|c| c.shard_stats().to_vec())
    }

    /// Completed requests per shard (`None` without a workload).
    #[must_use]
    pub fn completed_per_shard(&self) -> Option<Vec<u64>> {
        self.client().map(ShardClient::completed_per_shard)
    }

    /// Total completed requests across shards (0 without a workload).
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.client().map_or(0, ShardClient::total_completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::election_safety_violations;
    use crate::scenario::builder::ScenarioBuilder;
    use crate::sim::WorkloadSpec;
    use dynatune_core::TuningConfig;
    use dynatune_simnet::SimTime;
    use std::time::Duration;

    fn sharded(shards: usize, seed: u64, rps: f64) -> ShardedClusterSim {
        let mut builder = ScenarioBuilder::cluster(3)
            .tuning(TuningConfig::raft_default())
            .shards(shards)
            .seed(seed);
        if rps > 0.0 {
            builder = builder.workload(
                WorkloadSpec::steady(rps, Duration::from_secs(20))
                    .starting_at(Duration::from_secs(5)),
            );
        }
        builder.build_sharded_sim()
    }

    #[test]
    fn every_shard_elects_its_own_leader() {
        let mut sim = sharded(4, 1, 0.0);
        sim.run_until(SimTime::from_secs(10));
        let leaders = sim.leaders();
        for (shard, leader) in leaders.iter().enumerate() {
            let leader = leader.unwrap_or_else(|| panic!("shard {shard} must elect"));
            assert!(sim.map().servers_of(shard).contains(&leader));
        }
        // Leaders are distinct hosts and each group's log is safe.
        for shard in 0..4 {
            assert_eq!(election_safety_violations(&sim.shard_events(shard)), 0);
        }
    }

    #[test]
    fn workload_spreads_across_all_shards() {
        let mut sim = sharded(4, 2, 800.0);
        sim.run_until(SimTime::from_secs(15));
        let stats = sim.shard_stats().expect("client attached");
        assert_eq!(stats.len(), 4);
        for (shard, s) in stats.iter().enumerate() {
            assert!(s.sent > 500, "shard {shard} sent {}", s.sent);
            assert!(s.completed > 300, "shard {shard} completed {}", s.completed);
            assert!(s.batches > 0, "shard {shard} never batched");
            assert!(
                s.batches < s.sent,
                "shard {shard}: batching must coalesce ({} batches / {} sent)",
                s.batches,
                s.sent
            );
        }
    }

    #[test]
    fn crashing_one_leader_leaves_other_shards_serving() {
        let mut sim = sharded(2, 3, 600.0);
        sim.run_until(SimTime::from_secs(10));
        let victim = sim.leader_of(0).expect("shard 0 leader");
        let before = sim.completed_per_shard().unwrap();
        sim.crash(victim);
        sim.run_for(Duration::from_secs(5));
        let after = sim.completed_per_shard().unwrap();
        // Shard 1 kept committing throughout the shard-0 outage.
        assert!(
            after[1] - before[1] > 800,
            "shard 1 progressed only {} ops during shard 0's outage",
            after[1] - before[1]
        );
        // Shard 0 recovers: a leader re-emerges and commits resume.
        sim.run_for(Duration::from_secs(5));
        assert!(sim.leader_of(0).is_some(), "shard 0 re-elects");
        let healed = sim.completed_per_shard().unwrap();
        assert!(healed[0] > after[0], "shard 0 resumes committing");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = sharded(3, seed, 300.0);
            sim.run_until(SimTime::from_secs(12));
            (sim.leaders(), sim.completed_per_shard(), sim.net_counters())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2);
    }
}
