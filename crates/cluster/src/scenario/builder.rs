//! Fluent scenario construction: [`NetPlan`] (the network as data) and
//! [`ScenarioBuilder`] (the one description of a cluster).
//!
//! A [`ScenarioBuilder`] describes every cluster shape — single group,
//! sharded, with spares, KV or broker — and is the only way to build one.
//! Its three `build_*` calls resolve the net plan over the final host
//! count and hand the description to the one assembly in
//! [`ClusterSim`]. The two KV calls return the same [`ClusterSim`] and
//! differ only in the placement rows and the sending discipline they hand
//! its one KV client ([`ScenarioBuilder::build_sim`] /
//! [`ScenarioBuilder::build_sharded_sim`]); the broker call hands it a
//! [`BrokerClient`] instead. A study that runs many trials of one cluster
//! keeps the builder and derives each trial with [`ScenarioBuilder::seed`]
//! (and [`ScenarioBuilder::workload`]) before building.

use crate::broker::{BrokerClient, BrokerClusterSim, BrokerWorkload};
use crate::cpu::CostModel;
use crate::requests::{genesis_rows, DEFAULT_BATCH_WINDOW};
use crate::server::{CompactionPolicy, ReadStrategy};
use crate::sim::{members, ClusterSim, WorkloadSpec};
use dynatune_core::TuningConfig;
use dynatune_kv::{ShardId, ShardMap};
use dynatune_raft::{NodeId, RaftConfig, TimerQuantization};
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
    /// [`ScenarioBuilder::cluster`] starts from it at 100 ms.
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

/// The one description of a simulated cluster, and its one constructor.
///
/// Defaults: one group of `n` servers on [`NetPlan::stable`]'s 100 ms
/// mesh, [`RaftConfig`]'s own knobs (etcd-style tick quantization,
/// pre-vote and check-quorum on, UDP heartbeats), the default
/// [`CostModel`], 4 cores and seed 0. The Raft setters below write through
/// to one `raft` template; nothing restates a Raft default here. The
/// network stays a [`NetPlan`] until [`Self::build_sim`] (or one of its
/// siblings) knows the final host count (shards × replicas + spares).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// Genesis placement: Raft-group count and voters per group. A classic
    /// single group of `n` servers is `ShardMap::new(1, n)`.
    pub(crate) map: ShardMap,
    /// Spare outsider servers, one entry per spare naming the shard it can
    /// join. Spare `k` occupies world id `map.n_servers() + k`, speaks its
    /// shard's group-local protocol, shares the fabric from t=0, and
    /// belongs to no quorum (never campaigns) until a replicated
    /// configuration change admits it
    /// ([`ClusterSim::propose_conf_change`]).
    pub(crate) spares: Vec<ShardId>,
    /// The Raft configuration every server starts from — tuning mode,
    /// election, transport and replication knobs, each declared (and
    /// defaulted) once, in [`RaftConfig`]. `id`, `peers` and `seed` are
    /// placeholders here: [`Self::raft_config`] fills them per server from
    /// the placement and the master seed.
    raft: RaftConfig,
    /// Server-to-server network, resolved over every server at build time.
    net: NetPlan,
    /// Congestion-burst model per egress (`None`: the net plan's choice).
    congestion: Option<CongestionConfig>,
    /// CPU cost model (per server).
    pub(crate) cost: CostModel,
    /// Log-compaction policy (threshold + retained tail).
    pub(crate) compaction: CompactionPolicy,
    /// How servers serve linearizable reads (through the log, or log-free
    /// by lease with ReadIndex as the fallback).
    pub(crate) read_strategy: ReadStrategy,
    /// Cores per server (paper: 4 for Figs. 4–6, 2 for Fig. 7).
    pub(crate) cores: usize,
    /// Master seed; all randomness derives from it.
    pub(crate) seed: u64,
    /// Optional KV client workload (adds one client node to the fabric,
    /// linked to every server by a LAN hop).
    pub(crate) workload: Option<WorkloadSpec>,
}

impl ScenarioBuilder {
    /// Start a scenario with `n` servers on the stable 100 ms mesh.
    #[must_use]
    pub fn cluster(n: usize) -> Self {
        Self {
            map: ShardMap::new(1, n),
            spares: Vec::new(),
            raft: RaftConfig::new(0, n, TuningConfig::raft_default()),
            net: NetPlan::stable(Duration::from_millis(100)),
            congestion: None,
            cost: CostModel::default(),
            compaction: CompactionPolicy::default(),
            read_strategy: ReadStrategy::default(),
            cores: 4,
            seed: 0,
            workload: None,
        }
    }

    /// Select the tuning mode (Raft / Raft-Low / Fix-K / Dynatune).
    #[must_use]
    pub fn tuning(mut self, tuning: TuningConfig) -> Self {
        self.raft.tuning = tuning;
        self
    }

    /// The shard dimension: partition the keyspace across `shards`
    /// independent Raft groups of `n` replicas each (default 1 — the
    /// classic single group). The net plan then covers all `shards * n`
    /// servers; a batching sharded KV scenario instantiates via
    /// [`Self::build_sharded_sim`].
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.map = ShardMap::new(shards, self.map.replicas());
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
        self.spares = vec![0; spares];
        self
    }

    /// Attach one spare outsider server to `shard` in a sharded scenario
    /// (rebalancing target). May be called repeatedly; spare hosts occupy
    /// world ids after every mapped replica, in call order.
    #[must_use]
    pub fn spare_for_shard(mut self, shard: usize) -> Self {
        self.spares.push(shard);
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
        self.raft.quantization = quantization;
        self
    }

    /// Heartbeats over UDP (paper hybrid transport) or TCP (ablation).
    #[must_use]
    pub fn udp_heartbeats(mut self, udp: bool) -> Self {
        self.raft.udp_heartbeats = udp;
        self
    }

    /// Pre-vote on/off.
    #[must_use]
    pub fn pre_vote(mut self, pre_vote: bool) -> Self {
        self.raft.pre_vote = pre_vote;
        self
    }

    /// CPU cost model.
    #[must_use]
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Log-compaction policy: compact past `threshold` live entries, keep a
    /// `tail` of slack. Scenarios shrink both to exercise snapshot-based
    /// catch-up at simulation-friendly write volumes.
    #[must_use]
    pub fn compaction(mut self, threshold: usize, tail: u64) -> Self {
        self.compaction = CompactionPolicy { threshold, tail };
        self
    }

    /// Read-serving strategy: the log-replicated baseline, or leader-lease
    /// reads with ReadIndex fallback (the default).
    #[must_use]
    pub fn reads(mut self, strategy: ReadStrategy) -> Self {
        self.read_strategy = strategy;
        self
    }

    /// Max unacked appends in flight per follower (default 4; 1 recovers
    /// the pre-pipelining ping-pong for ablations).
    #[must_use]
    pub fn pipeline_window(mut self, window: usize) -> Self {
        self.raft.pipeline_window = window;
        self
    }

    /// Hard cap on entries per `AppendEntries` message. Scenarios shrink
    /// it so replication stays RTT-bound and the pipeline depth shows.
    #[must_use]
    pub fn max_entries_per_append(mut self, cap: usize) -> Self {
        self.raft.max_entries_per_append = cap;
        self
    }

    /// Cores per server (paper: 4 for Figs. 4–6, 2 for Fig. 7).
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Master seed; all randomness derives from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach an open-loop KV client workload.
    #[must_use]
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// Build and instantiate a KV cluster whose client routes over every
    /// member of each shard (spares included) and sends each request as a
    /// single `ClientReq` the moment it arrives — the classic single-group
    /// shape, though any shard count builds. Without a
    /// [`Self::workload`] the cluster runs client-free.
    ///
    /// # Panics
    /// Panics when the net plan cannot cover the servers, or a spare names
    /// a shard out of range.
    #[must_use]
    pub fn build_sim(self) -> ClusterSim {
        let rows = (0..self.map.shards())
            .map(|shard| members(self.map, &self.spares, shard).collect())
            .collect();
        ClusterSim::with_kv_client(&self, rows, None)
    }

    /// Build and instantiate a sharded KV cluster: `shards` independent
    /// groups of `n` replicas each. The same [`ClusterSim`] as
    /// [`Self::build_sim`], but the client routes over the mapped replicas
    /// only (spares enter a row when the rebalancer repoints it) and
    /// coalesces arrivals into one `ClientBatch` per shard every 2 ms.
    ///
    /// # Panics
    /// As [`Self::build_sim`].
    #[must_use]
    pub fn build_sharded_sim(self) -> ClusterSim {
        let rows = genesis_rows(self.map);
        ClusterSim::with_kv_client(&self, rows, Some(DEFAULT_BATCH_WINDOW))
    }

    /// Build and instantiate a broker cluster: the same placement and
    /// replication knobs, serving the broker app with `workload` driving
    /// producers and consumer groups through a [`BrokerClient`].
    ///
    /// # Panics
    /// Panics when the builder carries a KV `.workload()` (the broker
    /// client takes `workload` instead) or spares (the broker client has no
    /// placement to repoint, so they would idle forever), or when the net
    /// plan cannot cover the servers.
    #[must_use]
    pub fn build_broker_sim(self, workload: BrokerWorkload) -> BrokerClusterSim {
        assert!(
            self.workload.is_none(),
            "workload: a broker cluster is driven by its BrokerWorkload, not a KV WorkloadSpec"
        );
        assert!(
            self.spares.is_empty(),
            "spares/spare_for_shard: a broker cluster cannot admit spare servers"
        );
        ClusterSim::with_client(&self, |_| Some(BrokerClient::new(&workload, self.map)))
    }

    /// Number of server hosts: mapped replicas plus spares.
    pub(crate) fn n_servers(&self) -> usize {
        self.map.n_servers() + self.spares.len()
    }

    /// The net plan resolved over every server, and the congestion model
    /// it runs under (the override, else the plan's own choice).
    ///
    /// # Panics
    /// Panics when the net plan cannot cover the servers.
    pub(crate) fn network(&self) -> (Topology, CongestionConfig) {
        let congestion = self
            .congestion
            .unwrap_or_else(|| self.net.default_congestion());
        (self.net.topology(self.n_servers()), congestion)
    }

    /// The Raft configuration of the server with group-local id `local` —
    /// the one fill used for voters and spares alike. A spare's local id
    /// lies past the mapped replicas (the peer-base translation is pure
    /// addition, so it addresses a host outside the shard's block), which
    /// makes it an outsider of the genesis voter set until a conf change
    /// admits it.
    pub(crate) fn raft_config(&self, local: NodeId, seed: u64) -> RaftConfig {
        RaftConfig {
            id: local,
            peers: (0..self.map.replicas()).collect(),
            seed,
            ..self.raft.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::stale_read_violations;
    use dynatune_kv::OpMix;
    use dynatune_simnet::SimTime;

    #[test]
    fn geo_plan_enables_wan_congestion_by_default() {
        let (topology, congestion) = ScenarioBuilder::cluster(5).net(NetPlan::geo()).network();
        assert!(congestion.enabled());
        assert_eq!(
            topology.schedule(0, 1).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(210), // Tokyo–London
        );
    }

    #[test]
    fn geo_degraded_overrides_one_pair() {
        let slow = LinkSchedule::constant(NetParams::wan(Duration::from_millis(900)));
        let (topology, _) = ScenarioBuilder::cluster(5)
            .net(NetPlan::GeoDegraded {
                regions: Region::ALL.to_vec(),
                overrides: vec![(0, 1, slow)],
            })
            .network();
        assert_eq!(
            topology.schedule(0, 1).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(900)
        );
        assert_eq!(
            topology.schedule(1, 0).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(900)
        );
        // Other pairs keep the preset matrix.
        assert_eq!(
            topology.schedule(0, 2).params_at(SimTime::ZERO).rtt,
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
        let _ = ScenarioBuilder::cluster(3).net(NetPlan::geo()).build_sim();
    }
}
