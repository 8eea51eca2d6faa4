//! Fluent scenario construction: [`NetPlan`] (the network as data) and
//! [`ScenarioBuilder`] (typed assembly of a [`ClusterConfig`]).
//!
//! One [`ClusterConfig`] describes every cluster shape — single group,
//! sharded, with spares, KV or broker — and the builder resolves to it
//! through exactly one [`ScenarioBuilder::build`]. The two KV shortcuts
//! return the same [`ClusterSim`] and differ only in the placement rows and
//! the sending discipline they hand its one KV client
//! ([`ScenarioBuilder::build_sim`] / [`ScenarioBuilder::build_sharded_sim`]);
//! the broker shortcut hands the one constructor a
//! [`BrokerClient`] instead. The builder composes topology, tuning,
//! workload and network plans explicitly, and is the single construction
//! path used by the experiment catalog, the `scenarios` binary and the
//! examples.

use crate::broker::{BrokerClient, BrokerClusterSim, BrokerWorkload};
use crate::cpu::CostModel;
use crate::requests::{genesis_rows, DEFAULT_BATCH_WINDOW};
use crate::server::{CompactionPolicy, ReadStrategy};
use crate::sim::{ClusterConfig, ClusterSim, WorkloadSpec};
use dynatune_core::TuningConfig;
use dynatune_kv::ShardMap;
use dynatune_raft::TimerQuantization;
use dynatune_simnet::{geo_topology, CongestionConfig, LinkSchedule, NetParams, Region, Topology};
use std::time::Duration;

/// Declarative description of the server-to-server network.
///
/// A `NetPlan` resolves to a [`Topology`] once the cluster size is known;
/// until then it is pure data, so scenarios can be described, compared and
/// listed without building anything.
#[derive(Debug, Clone)]
pub enum NetPlan {
    /// Every pair shares one link schedule (the paper's single-host mesh).
    Uniform(LinkSchedule),
    /// One node per region with preset inter-region WAN RTTs (Fig. 8).
    Geo(Vec<Region>),
    /// Geo mesh with explicit per-pair overrides — asymmetric degradation
    /// the uniform plans cannot express. Each `(a, b, schedule)` replaces
    /// both directions of that pair.
    GeoDegraded {
        /// One node per region, as in [`NetPlan::Geo`].
        regions: Vec<Region>,
        /// Per-pair schedule overrides (applied to both directions).
        overrides: Vec<(usize, usize, LinkSchedule)>,
    },
}

impl NetPlan {
    /// The paper's §IV-A stable mesh: uniform constant RTT, no loss, and
    /// the small residual jitter a real kernel/bridge leaves behind —
    /// "without intentionally introducing jitter" (§IV-B) still leaves 2 %.
    /// [`ClusterConfig::stable`] is built on it.
    #[must_use]
    pub fn stable(rtt: Duration) -> Self {
        NetPlan::Uniform(LinkSchedule::constant(
            NetParams::clean(rtt).with_jitter(0.02),
        ))
    }

    /// Uniform mesh with explicit constant parameters.
    #[must_use]
    pub fn uniform(params: NetParams) -> Self {
        NetPlan::Uniform(LinkSchedule::constant(params))
    }

    /// Uniform mesh following a time-varying schedule (RTT ramps, loss
    /// staircases — see [`LinkSchedule`]).
    #[must_use]
    pub fn uniform_schedule(schedule: LinkSchedule) -> Self {
        NetPlan::Uniform(schedule)
    }

    /// The five-region geo deployment of Fig. 8.
    #[must_use]
    pub fn geo() -> Self {
        NetPlan::Geo(Region::ALL.to_vec())
    }

    /// Resolve to a topology for `n` servers.
    ///
    /// # Panics
    /// Panics when a geo plan's region count does not match `n`, or an
    /// override index is out of range.
    #[must_use]
    pub fn topology(&self, n: usize) -> Topology {
        match self {
            NetPlan::Uniform(schedule) => Topology::uniform(n, schedule.clone()),
            NetPlan::Geo(regions) => {
                assert_eq!(regions.len(), n, "geo plan must name one region per server");
                geo_topology(regions)
            }
            NetPlan::GeoDegraded { regions, overrides } => {
                assert_eq!(regions.len(), n, "geo plan must name one region per server");
                let mut topo = geo_topology(regions);
                for (a, b, schedule) in overrides {
                    topo.set_pair(*a, *b, schedule.clone());
                }
                topo
            }
        }
    }

    /// The congestion model this network implies unless overridden: WAN
    /// bursts on geo plans, nothing on uniform meshes.
    #[must_use]
    fn default_congestion(&self) -> CongestionConfig {
        match self {
            NetPlan::Geo(_) | NetPlan::GeoDegraded { .. } => CongestionConfig::wan_default(),
            NetPlan::Uniform(_) => CongestionConfig::disabled(),
        }
    }
}

/// Typed, fluent construction of a [`ClusterConfig`].
///
/// Defaults are `ClusterConfig::stable(n, raft_default, 100ms, 0)` by
/// construction: [`RaftConfig`](dynatune_raft::RaftConfig)'s own (etcd-style
/// tick quantization, pre-vote and check-quorum on, UDP heartbeats) and 4
/// cores. The Raft setters below write through to the config's one `raft`
/// template; nothing restates a Raft default here. The builder keeps the
/// network as a [`NetPlan`] until [`Self::build`] knows the final host
/// count (shards × replicas + spares).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// Every knob but the network; `topology`/`congestion` are resolved
    /// from the plan at build time.
    config: ClusterConfig,
    net: NetPlan,
    congestion: Option<CongestionConfig>,
}

impl ScenarioBuilder {
    /// Start a scenario with `n` servers on the stable 100 ms mesh.
    #[must_use]
    pub fn cluster(n: usize) -> Self {
        let rtt = Duration::from_millis(100);
        Self {
            config: ClusterConfig::stable(n, TuningConfig::raft_default(), rtt, 0),
            net: NetPlan::stable(rtt),
            congestion: None,
        }
    }

    /// Select the tuning mode (Raft / Raft-Low / Fix-K / Dynatune).
    #[must_use]
    pub fn tuning(mut self, tuning: TuningConfig) -> Self {
        self.config.raft.tuning = tuning;
        self
    }

    /// The shard dimension: partition the keyspace across `shards`
    /// independent Raft groups of `n` replicas each (default 1 — the
    /// classic single group). The net plan then covers all `shards * n`
    /// servers; a batching sharded KV scenario instantiates via
    /// [`Self::build_sharded_sim`].
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.map = ShardMap::new(shards, self.config.map.replicas());
        self
    }

    /// Attach `spares` outsider servers to the single group (shard 0):
    /// hosts on the fabric from t=0 that belong to no quorum until a
    /// configuration change admits them (elastic scale-out; see
    /// [`ClusterSim::propose_conf_change`](crate::sim::ClusterSim::propose_conf_change)).
    /// The net plan must be uniform — geo plans name one region per voter
    /// and cannot place spares.
    #[must_use]
    pub fn spares(mut self, spares: usize) -> Self {
        self.config.spares = vec![0; spares];
        self
    }

    /// Attach one spare outsider server to `shard` in a sharded scenario
    /// (rebalancing target). May be called repeatedly; spare hosts occupy
    /// world ids after every mapped replica, in call order.
    #[must_use]
    pub fn spare_for_shard(mut self, shard: usize) -> Self {
        self.config.spares.push(shard);
        self
    }

    /// Set the network plan.
    #[must_use]
    pub fn net(mut self, net: NetPlan) -> Self {
        self.net = net;
        self
    }

    /// Override the congestion model (default: the net plan's choice).
    #[must_use]
    pub fn congestion(mut self, congestion: CongestionConfig) -> Self {
        self.congestion = Some(congestion);
        self
    }

    /// Election-timer quantization.
    #[must_use]
    pub fn quantization(mut self, quantization: TimerQuantization) -> Self {
        self.config.raft.quantization = quantization;
        self
    }

    /// Heartbeats over UDP (paper hybrid transport) or TCP (ablation).
    #[must_use]
    pub fn udp_heartbeats(mut self, udp: bool) -> Self {
        self.config.raft.udp_heartbeats = udp;
        self
    }

    /// Pre-vote on/off.
    #[must_use]
    pub fn pre_vote(mut self, pre_vote: bool) -> Self {
        self.config.raft.pre_vote = pre_vote;
        self
    }

    /// CPU cost model.
    #[must_use]
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.config.cost = cost;
        self
    }

    /// Log-compaction policy: compact past `threshold` live entries, keep a
    /// `tail` of slack. Scenarios shrink both to exercise snapshot-based
    /// catch-up at simulation-friendly write volumes.
    #[must_use]
    pub fn compaction(mut self, threshold: usize, tail: u64) -> Self {
        self.config.compaction = CompactionPolicy { threshold, tail };
        self
    }

    /// Read-serving strategy: the log-replicated baseline, or leader-lease
    /// reads with ReadIndex fallback (the default).
    #[must_use]
    pub fn reads(mut self, strategy: ReadStrategy) -> Self {
        self.config.read_strategy = strategy;
        self
    }

    /// Max unacked appends in flight per follower (default 4; 1 recovers
    /// the pre-pipelining ping-pong for ablations).
    #[must_use]
    pub fn pipeline_window(mut self, window: usize) -> Self {
        self.config.raft.pipeline_window = window;
        self
    }

    /// Hard cap on entries per `AppendEntries` message. Scenarios shrink
    /// it so replication stays RTT-bound and the pipeline depth shows.
    #[must_use]
    pub fn max_entries_per_append(mut self, cap: usize) -> Self {
        self.config.raft.max_entries_per_append = cap;
        self
    }

    /// Cores per server (paper: 4 for Figs. 4–6, 2 for Fig. 7).
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Master seed; all randomness derives from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Attach an open-loop KV client workload.
    #[must_use]
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.config.workload = Some(spec);
        self
    }

    /// Resolve into the [`ClusterConfig`]: the net plan becomes a topology
    /// over every server (mapped replicas plus spares).
    ///
    /// # Panics
    /// Panics when the net plan cannot cover the servers.
    #[must_use]
    pub fn build(self) -> ClusterConfig {
        let mut config = self.config;
        config.topology = self.net.topology(config.n_servers());
        config.congestion = self
            .congestion
            .unwrap_or_else(|| self.net.default_congestion());
        config
    }

    /// Build and instantiate a KV cluster whose client routes over every
    /// member of each shard (spares included) and sends each request as a
    /// single `ClientReq` the moment it arrives — the classic single-group
    /// shape, though any shard count builds.
    #[must_use]
    pub fn build_sim(self) -> ClusterSim {
        ClusterSim::new(&self.build())
    }

    /// Build and instantiate a sharded KV cluster: `shards` independent
    /// groups of `n` replicas each. The same [`ClusterSim`] as
    /// [`Self::build_sim`], but the client routes over the mapped replicas
    /// only (spares enter a row when the rebalancer repoints it) and
    /// coalesces arrivals into one `ClientBatch` per shard every 2 ms.
    #[must_use]
    pub fn build_sharded_sim(self) -> ClusterSim {
        let config = self.build();
        let rows = genesis_rows(config.map);
        ClusterSim::with_kv_client(&config, rows, Some(DEFAULT_BATCH_WINDOW))
    }

    /// Build and instantiate a broker cluster: the same placement and
    /// replication knobs, serving the broker app with `workload` driving
    /// producers and consumer groups through a [`BrokerClient`].
    ///
    /// # Panics
    /// Panics when the builder carries a KV `.workload()` (the broker
    /// client takes `workload` instead) or spares (the broker client has no
    /// placement to repoint, so they would idle forever).
    #[must_use]
    pub fn build_broker_sim(self, workload: BrokerWorkload) -> BrokerClusterSim {
        assert!(
            self.config.workload.is_none(),
            "workload: a broker cluster is driven by its BrokerWorkload, not a KV WorkloadSpec"
        );
        assert!(
            self.config.spares.is_empty(),
            "spares/spare_for_shard: a broker cluster cannot admit spare servers"
        );
        let config = self.build();
        ClusterSim::with_client(&config, |_| Some(BrokerClient::new(&workload, config.map)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::stale_read_violations;
    use dynatune_kv::OpMix;
    use dynatune_simnet::SimTime;

    #[test]
    fn builder_defaults_match_stable_constructor() {
        let built = ScenarioBuilder::cluster(5)
            .tuning(TuningConfig::dynatune())
            .seed(7)
            .build();
        let stable =
            ClusterConfig::stable(5, TuningConfig::dynatune(), Duration::from_millis(100), 7);
        assert_eq!(built.map, stable.map);
        assert_eq!(built.cores, stable.cores);
        assert_eq!(built.raft.tuning, stable.raft.tuning);
        assert_eq!(built.raft.pre_vote, stable.raft.pre_vote);
        assert_eq!(built.raft.udp_heartbeats, stable.raft.udp_heartbeats);
        assert_eq!(built.seed, stable.seed);
        assert_eq!(
            built.topology.schedule(0, 1).params_at(SimTime::ZERO),
            stable.topology.schedule(0, 1).params_at(SimTime::ZERO)
        );
        assert!(!built.congestion.enabled());
    }

    #[test]
    fn geo_plan_enables_wan_congestion_by_default() {
        let cfg = ScenarioBuilder::cluster(5).net(NetPlan::geo()).build();
        assert!(cfg.congestion.enabled());
        assert_eq!(
            cfg.topology.schedule(0, 1).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(210), // Tokyo–London
        );
    }

    #[test]
    fn geo_degraded_overrides_one_pair() {
        let slow = LinkSchedule::constant(NetParams::wan(Duration::from_millis(900)));
        let cfg = ScenarioBuilder::cluster(5)
            .net(NetPlan::GeoDegraded {
                regions: Region::ALL.to_vec(),
                overrides: vec![(0, 1, slow)],
            })
            .build();
        assert_eq!(
            cfg.topology.schedule(0, 1).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(900)
        );
        assert_eq!(
            cfg.topology.schedule(1, 0).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(900)
        );
        // Other pairs keep the preset matrix.
        assert_eq!(
            cfg.topology.schedule(0, 2).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(110)
        );
    }

    #[test]
    fn raft_knobs_reach_every_server_of_every_cluster_shape() {
        fn on_every_server<A: crate::App, C: crate::Client<A>>(sim: &ClusterSim<A, C>) {
            for (id, server) in sim.servers().enumerate() {
                let pre_vote = server.node().config().pre_vote;
                assert!(!pre_vote, "server {id} lost .pre_vote(false)");
            }
        }
        let builder = ScenarioBuilder::cluster(3).pre_vote(false);
        on_every_server(&builder.clone().spares(1).build_sim());
        let sharded = builder.clone().shards(2).spare_for_shard(1);
        on_every_server(&sharded.build_sharded_sim());
        on_every_server(&builder.shards(2).build_broker_sim(broker_workload()));
    }

    fn broker_workload() -> BrokerWorkload {
        BrokerWorkload::steady(vec![("t".to_string(), 2)], 100.0)
    }

    #[test]
    fn sharded_cluster_records_a_linearizable_trace_from_either_entry_point() {
        // A 4x3 cluster builds from either KV entry point, and the trace
        // covers every shard through a shard leader's outage.
        for build in [
            ScenarioBuilder::build_sim,
            ScenarioBuilder::build_sharded_sim,
        ] {
            let spec = WorkloadSpec::steady(400.0, Duration::from_secs(12))
                .starting_at(Duration::from_secs(3))
                .mix(OpMix::read_mostly())
                .recording();
            let mut sim = build(
                ScenarioBuilder::cluster(3)
                    .shards(4)
                    .net(NetPlan::stable(Duration::from_millis(20)))
                    .seed(21)
                    .workload(spec),
            );
            sim.run_until(SimTime::from_secs(7));
            let victim = sim.leader_of(2).expect("shard 2 elects in the warm-up");
            sim.pause(victim);
            sim.run_until(SimTime::from_secs(16));
            assert_ne!(sim.leader_of(2), Some(victim), "shard 2 fails over");
            let client = sim.client().expect("client attached");
            let trace = client.trace();
            assert!(trace.len() > 2000, "recorded {} ops", trace.len());
            assert!(trace.iter().any(|op| op.write) && trace.iter().any(|op| !op.write));
            assert_eq!(stale_read_violations(trace), 0);
            let stats = client.shard_stats();
            assert!(stats.iter().all(|s| s.completed > 0), "every shard serves");
        }
    }

    #[test]
    #[should_panic(expected = "spares/spare_for_shard")]
    fn broker_cluster_rejects_spares() {
        let _ = ScenarioBuilder::cluster(3)
            .spares(1)
            .build_broker_sim(broker_workload());
    }

    #[test]
    #[should_panic(expected = "workload: a broker cluster")]
    fn broker_cluster_rejects_a_kv_workload() {
        let _ = ScenarioBuilder::cluster(3)
            .workload(WorkloadSpec::steady(100.0, Duration::from_secs(1)))
            .build_broker_sim(broker_workload());
    }

    #[test]
    #[should_panic(expected = "one region per server")]
    fn geo_plan_size_mismatch_panics() {
        let _ = ScenarioBuilder::cluster(3).net(NetPlan::geo()).build();
    }
}
