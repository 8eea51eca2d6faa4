//! Cluster assembly and simulation driver.
//!
//! One [`ClusterSim`] serves every deployment shape the repository models:
//! it is generic over the served [`App`] (`KvStore` or `BrokerState`) and
//! over the benchmark [`Client`] that shares the fabric with the servers,
//! and it places servers by a [`ShardMap`] — a classic single Raft group is
//! the map with one shard. One [`ScenarioBuilder`] describes any of them,
//! and its `build_*` calls are the only way to assemble one.
//!
//! Host layout (world ids): replicas of shard `g` occupy the contiguous
//! block `[g·R, (g+1)·R)`, spares follow in declaration order, and the
//! optional client is the last host. Raft node ids stay group-local
//! (`0..R`, spares past `R`); [`ServerHost`] translates via its peer base.
//!
//! A run is read by borrowing its parts, not by asking the cluster one
//! question at a time: [`ClusterSim::server`] and [`ClusterSim::servers`]
//! lend the servers (each one's Raft node, counters and CPU meter) and
//! [`ClusterSim::client`] lends the client (its step and shard counters,
//! latency windows and trace). What a caller needs across servers it folds
//! itself, e.g. `sim.servers().map(ServerHost::snapshots_sent).sum()`.
//! The cluster answers only what needs the world: placement
//! ([`ClusterSim::members_of`], [`ClusterSim::leader_of`]), the merged event
//! streams, the live servers' randomized timeouts, the leader's mean
//! heartbeat interval and the network counters.

use crate::client::{ClientHost, OpRecord, StepRecord};
use crate::msg::ClusterMsg;
use crate::scenario::ScenarioBuilder;
use crate::server::ServerHost;
use dynatune_core::invariant_violated;
use dynatune_kv::{App, KvStore, OpMix, RateStep, ShardId, ShardMap};
use dynatune_raft::{ConfChange, NodeId, RaftEvent, Role};
use dynatune_simnet::{Host, HostCtx, LinkSchedule, NetParams, Network, Rng, SimTime, World};
use std::time::Duration;

/// Client workload specification.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Offered-load schedule.
    pub steps: Vec<RateStep>,
    /// Operation mix.
    pub mix: OpMix,
    /// Number of distinct keys.
    pub key_space: usize,
    /// Zipf skew (0 = uniform).
    pub zipf_theta: f64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Delay before the first arrival (lets the cluster elect a leader).
    pub start_offset: Duration,
    /// Client-side response timeout (`None` disables retries-on-silence).
    pub request_timeout: Option<Duration>,
    /// Spread reads round-robin over the owning shard's servers
    /// (follower-read offload); writes still chase the leader.
    pub read_fanout: bool,
    /// Record completed `Get`/`Put` operations for linearizability checks
    /// (see [`ClientHost::trace`]).
    pub record_trace: bool,
}

impl WorkloadSpec {
    /// A steady-rate workload.
    #[must_use]
    pub fn steady(rps: f64, hold: Duration) -> Self {
        Self {
            steps: vec![RateStep { rps, hold }],
            mix: OpMix::write_heavy(),
            key_space: 10_000,
            zipf_theta: 0.99,
            value_size: 128,
            start_offset: Duration::ZERO,
            request_timeout: Some(Duration::from_secs(1)),
            read_fanout: false,
            record_trace: false,
        }
    }

    /// Builder: delay the workload start.
    #[must_use]
    pub fn starting_at(mut self, offset: Duration) -> Self {
        self.start_offset = offset;
        self
    }

    /// Builder: set the operation mix.
    #[must_use]
    pub fn mix(mut self, mix: OpMix) -> Self {
        self.mix = mix;
        self
    }

    /// Builder: record the client's operation trace.
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Builder: override (or disable) the response timeout.
    #[must_use]
    pub fn timeout(mut self, timeout: Option<Duration>) -> Self {
        self.request_timeout = timeout;
        self
    }
}

/// A benchmark client living on the fabric beside the servers: the three
/// calls the simulation kernel makes into it.
pub trait Client<A: App> {
    /// Process a server response.
    fn handle_message(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        from: NodeId,
        msg: ClusterMsg<A>,
    );

    /// The requested wake-up deadline has arrived.
    fn handle_wake(&mut self, ctx: &mut HostCtx<'_, ClusterMsg<A>>);

    /// Earliest instant at which the client wants `handle_wake` called.
    #[must_use]
    fn wake_deadline(&self) -> Option<SimTime>;
}

/// A node in the simulated world: server or benchmark client.
pub enum ClusterHost<A: App = KvStore, C = ClientHost> {
    /// A Raft server of app `A`.
    Server(Box<ServerHost<A>>),
    /// The benchmark client.
    Client(Box<C>),
}

impl<A: App, C: Client<A>> Host for ClusterHost<A, C> {
    type Msg = ClusterMsg<A>;

    fn on_message(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        from: usize,
        msg: ClusterMsg<A>,
    ) {
        match self {
            ClusterHost::Server(s) => s.handle_message(ctx, from, msg),
            ClusterHost::Client(c) => c.handle_message(ctx, from, msg),
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_, ClusterMsg<A>>) {
        match self {
            ClusterHost::Server(s) => s.handle_wake(ctx),
            ClusterHost::Client(c) => c.handle_wake(ctx),
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        match self {
            ClusterHost::Server(s) => s.wake_deadline(),
            ClusterHost::Client(c) => c.wake_deadline(),
        }
    }
}

/// A running simulated cluster of app `A` driven by client `C`.
pub struct ClusterSim<A: App = KvStore, C: Client<A> = ClientHost> {
    world: World<ClusterHost<A, C>>,
    map: ShardMap,
    /// Shard each spare host (world id `map.n_servers() + k`) belongs to.
    spares: Vec<ShardId>,
}

impl ClusterSim {
    /// The one KV assembly: `rows` are the client's initial placement rows
    /// and `batch_window` its sending discipline (see [`ClientHost::new`]).
    pub(crate) fn with_kv_client(
        config: &ScenarioBuilder,
        rows: Vec<Vec<NodeId>>,
        batch_window: Option<Duration>,
    ) -> Self {
        Self::with_client(config, |rng| {
            config
                .workload
                .as_ref()
                .map(|spec| ClientHost::new(spec, rng, rows, batch_window))
        })
    }

    /// Per-step records of the client (`None` without a workload),
    /// borrowed from the client. Kept for perfbench, whose source is
    /// frozen; everything else reads [`Self::client`].
    #[must_use]
    pub fn client_steps(&self) -> Option<&[StepRecord]> {
        self.client().map(ClientHost::steps)
    }

    /// The client's recorded operation trace, borrowed from the client
    /// (`None` without a client; empty unless the workload set
    /// `record_trace`). Not copied: a recorded trace can be the largest
    /// thing a run holds, and a copy would sit beside it at the peak. Kept
    /// for perfbench, whose source is frozen; everything else reads
    /// [`Self::client`].
    #[must_use]
    pub fn client_trace(&self) -> Option<&[OpRecord]> {
        self.client().map(ClientHost::trace)
    }
}

/// World ids of every server belonging to `shard`: the mapped replica
/// block, then any spares attached to the shard in declaration order
/// (spare `k` is host `map.n_servers() + k`).
pub(crate) fn members(
    map: ShardMap,
    spares: &[ShardId],
    shard: ShardId,
) -> impl Iterator<Item = NodeId> + '_ {
    let spares = spares.iter().enumerate();
    map.servers_of(shard).chain(
        spares
            .filter(move |&(_, &s)| s == shard)
            .map(move |(k, _)| map.n_servers() + k),
    )
}

impl<A: App, C: Client<A>> ClusterSim<A, C> {
    /// Assemble the cluster: every server `config` describes plus the
    /// client `make_client` returns (handed the workload's seed stream), if
    /// any. All randomness derives from `config`'s seed: stream 1 feeds the
    /// network, stream 2 the per-server timers (one child per world id, so
    /// every (shard, replica) pair is independent), stream 3 the workload.
    ///
    /// # Panics
    /// Panics when the net plan cannot cover the servers, or a spare names
    /// a shard out of range.
    #[must_use]
    pub(crate) fn with_client(
        config: &ScenarioBuilder,
        make_client: impl FnOnce(Rng) -> Option<C>,
    ) -> Self {
        let map = config.map;
        let n_servers = config.n_servers();
        let (topology, congestion) = config.network();
        let master = Rng::new(config.seed);
        let client = make_client(master.child(3));
        // Extend the topology with the client node (one LAN hop to every
        // server) if needed.
        let topology = if client.is_some() {
            topology.extend_with(1, LinkSchedule::constant(NetParams::lan()))
        } else {
            topology
        };
        let n_total = n_servers + usize::from(client.is_some());
        let net = Network::new(n_total, &master.child(1), congestion, |f, t| {
            topology.schedule(f, t)
        });
        let node_seed_root = master.child(2);
        let mut hosts: Vec<ClusterHost<A, C>> = (0..n_servers)
            .map(|id| {
                let shard = match map.shard_of_server(id) {
                    Some(shard) => shard,
                    None => config.spares[id - map.n_servers()],
                };
                let base = map.group_base(shard);
                let seed = node_seed_root.child(id as u64).next_u64();
                ClusterHost::Server(Box::new(
                    ServerHost::new(
                        config.raft_config(id - base, seed),
                        config.cost,
                        config.cores,
                    )
                    .with_peer_base(base)
                    .with_compaction(config.compaction)
                    .with_reads(config.read_strategy),
                ))
            })
            .collect();
        hosts.extend(client.map(|c| ClusterHost::Client(Box::new(c))));
        Self {
            world: World::new(hosts, net),
            map,
            spares: config.spares.clone(),
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The genesis replica placement.
    #[must_use]
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards (Raft groups).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// Number of server hosts, spares included (clients excluded).
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.map.n_servers() + self.spares.len()
    }

    /// World ids of every server belonging to `shard`: the mapped replica
    /// block plus any spares attached to the shard.
    #[must_use]
    pub fn members_of(&self, shard: ShardId) -> Vec<NodeId> {
        members(self.map, &self.spares, shard).collect()
    }

    /// Advance the simulation to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.world.run_until(deadline);
    }

    /// Advance by `delta`.
    pub fn run_for(&mut self, delta: Duration) {
        let target = self.world.now() + delta;
        self.world.run_until(target);
    }

    /// The server with world id `id`, lent for reading: its Raft node
    /// (role, term, membership, tuner, log, state machine), its counters
    /// and its CPU meter.
    ///
    /// # Panics
    /// Panics when `id` names the client host.
    #[must_use]
    pub fn server(&self, id: NodeId) -> &ServerHost<A> {
        match self.world.host(id) {
            ClusterHost::Server(s) => s,
            ClusterHost::Client(_) => invariant_violated!(
                "host {id} is the client — servers occupy the leading n_servers slots"
            ),
        }
    }

    /// Every server in world-id order, spares included, never the client:
    /// what a cluster-wide read folds over.
    pub fn servers(&self) -> impl Iterator<Item = &ServerHost<A>> {
        (0..self.n_servers()).map(|id| self.server(id))
    }

    fn server_mut(&mut self, id: NodeId) -> &mut ServerHost<A> {
        match self.world.host_mut(id) {
            ClusterHost::Server(s) => s,
            ClusterHost::Client(_) => invariant_violated!(
                "host {id} is the client — faults and conf changes only target server ids"
            ),
        }
    }

    /// The client host, if a workload attached one (always the last host),
    /// lent for reading its counters and trace.
    #[must_use]
    pub fn client(&self) -> Option<&C> {
        match self.world.host(self.world.len() - 1) {
            ClusterHost::Client(c) => Some(c),
            ClusterHost::Server(_) => None,
        }
    }

    /// Mutable access to the client host, if any: for the calls that
    /// change it between runs (taking a latency window, repointing a
    /// placement row).
    pub fn client_mut(&mut self) -> Option<&mut C> {
        let last = self.world.len() - 1;
        match self.world.host_mut(last) {
            ClusterHost::Client(c) => Some(c),
            ClusterHost::Server(_) => None,
        }
    }

    /// Run a closure against a server (by world id). Kept for perfbench,
    /// whose source is frozen; everything else reads [`Self::server`].
    pub fn with_server<T>(&self, id: NodeId, f: impl FnOnce(&ServerHost<A>) -> T) -> T {
        f(self.server(id))
    }

    /// The live (not paused) leader of one shard's group, by world id, if
    /// one exists: the leader at the group's highest leading term.
    #[must_use]
    pub fn leader_of(&self, shard: ShardId) -> Option<NodeId> {
        let mut best: Option<(u64, NodeId)> = None;
        for id in members(self.map, &self.spares, shard) {
            if self.world.is_paused(id) {
                continue;
            }
            let node = self.server(id).node();
            if node.role() == Role::Leader {
                let term = node.term();
                if best.is_none_or(|(t, _)| term > t) {
                    best = Some((term, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Shard 0's live leader — *the* leader of a single-group cluster.
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        self.leader_of(0)
    }

    /// Pause a server (the paper's container-sleep failure).
    pub fn pause(&mut self, id: NodeId) {
        self.world.pause(id);
    }

    /// Resume a paused server.
    pub fn resume(&mut self, id: NodeId) {
        self.world.resume(id);
    }

    /// Whether a server is paused.
    #[must_use]
    pub fn is_paused(&self, id: NodeId) -> bool {
        self.world.is_paused(id)
    }

    /// Crash-restart a server: buffered traffic and volatile state are
    /// dropped (in that order — the pause buffer must not replay into the
    /// restarted node), the log and the applied store survive, and the wake
    /// is rescheduled for the fresh election timer.
    pub fn crash_restart(&mut self, id: NodeId) {
        self.world.clear_pause_buffer(id);
        let now = self.world.now();
        self.server_mut(id).crash_restart(now);
        self.world.reschedule_wake(id);
    }

    /// Queue a configuration change on `shard`'s current leader (node ids
    /// inside the change are group-local; a single group is shard 0).
    /// Returns `false` when the shard has no live leader (retry after the
    /// next election) — the queued change may still be dropped if
    /// leadership moves before the leader's next wake, so orchestrators
    /// re-submit until the membership they observe reflects the change.
    pub fn propose_conf_change(&mut self, shard: ShardId, change: ConfChange) -> bool {
        let Some(leader) = self.leader_of(shard) else {
            return false;
        };
        self.server_mut(leader).enqueue_conf_change(change);
        self.world.reschedule_wake(leader);
        true
    }

    /// Recorded events of one shard's group, merged in `(time, id)` order,
    /// with *group-local* node ids — the shape
    /// [`extract_failover`](crate::observers::extract_failover) and the
    /// safety checks expect.
    #[must_use]
    pub fn shard_events(&self, shard: ShardId) -> Vec<(SimTime, NodeId, RaftEvent)> {
        let base = self.map.group_base(shard);
        let mut streams: Vec<_> = members(self.map, &self.spares, shard)
            .map(|id| (id - base, self.server(id).events()))
            .collect();
        merge_by_time(&mut streams)
    }

    /// Shard 0's events — every event of a single-group cluster.
    #[must_use]
    pub fn events(&self) -> Vec<(SimTime, NodeId, RaftEvent)> {
        self.shard_events(0)
    }

    /// Randomized timeout of each live server (paused servers excluded →
    /// `None`), for the paper's Fig. 6 third-smallest metric.
    #[must_use]
    pub fn randomized_timeouts(&self) -> Vec<Option<Duration>> {
        (0..self.n_servers())
            .map(|id| {
                (!self.world.is_paused(id)).then(|| self.server(id).node().randomized_timeout())
            })
            .collect()
    }

    /// Mean heartbeat interval shard 0's leader currently applies across
    /// its followers (Fig. 7a metric). `None` when there is no leader.
    #[must_use]
    pub fn leader_mean_heartbeat_interval(&self) -> Option<Duration> {
        let leader = self.leader()?;
        let node = self.server(leader).node();
        let mut total = Duration::ZERO;
        let mut count = 0u32;
        // Shard 0's group base is 0, so world ids are its local ids.
        for id in members(self.map, &self.spares, 0) {
            if id != leader {
                if let Some(h) = node.pacer_interval(id) {
                    total += h;
                    count += 1;
                }
            }
        }
        (count > 0).then(|| total / count)
    }

    /// Network counters (sent/delivered/dropped).
    #[must_use]
    pub fn net_counters(&self) -> dynatune_simnet::NetCounters {
        self.world.counters()
    }

    /// Partition the network: `group` forms one side, the rest the other.
    pub fn partition(&mut self, group: &[NodeId]) {
        self.world.partition(group);
    }

    /// Partition only the *servers*: `group` vs the remaining servers,
    /// while client hosts keep reaching both sides. This models a
    /// replication-plane cut where clients still see every server — the
    /// dangerous window for lease reads (an isolated leader keeps serving
    /// clients while a new leader is elected behind its back).
    pub fn partition_servers(&mut self, group: &[NodeId]) {
        self.world.partition(group);
        for id in self.n_servers()..self.world.len() {
            self.world.exempt_from_partition(id);
        }
    }

    /// Heal all partitions.
    pub fn heal_partition(&mut self) {
        self.world.heal_partition();
    }
}

/// Merge per-server event streams, each already in time order, into one
/// Vec ordered by `(time, id)`; events of one server at one instant keep
/// their recorded order. The ids are distinct, so this is exactly a stable
/// sort of the concatenation by `(time, id)`, without its scratch buffer
/// or the regrowth of pushing into an unsized Vec.
fn merge_by_time<E: Copy>(streams: &mut [(NodeId, &[(SimTime, E)])]) -> Vec<(SimTime, NodeId, E)> {
    debug_assert!(streams
        .iter()
        .all(|(_, s)| s.windows(2).all(|w| w[0].0 <= w[1].0)));
    let mut out = Vec::with_capacity(streams.iter().map(|(_, s)| s.len()).sum());
    while let Some((id, rest)) = streams
        .iter_mut()
        .filter(|(_, s)| !s.is_empty())
        .min_by_key(|(id, s)| (s[0].0, *id))
    {
        let (t, e) = rest[0];
        *rest = &rest[1..];
        out.push((t, *id, e));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::election_safety_violations;
    use crate::scenario::NetPlan;
    use dynatune_core::TuningConfig;
    use proptest::prelude::*;

    fn stable_cluster(tuning: TuningConfig, seed: u64) -> ClusterSim {
        ScenarioBuilder::cluster(5)
            .tuning(tuning)
            .seed(seed)
            .build_sim()
    }

    #[test]
    fn cluster_elects_a_leader() {
        let mut sim = stable_cluster(TuningConfig::raft_default(), 1);
        sim.run_until(SimTime::from_secs(10));
        let leader = sim.leader().expect("a leader must emerge");
        assert!(leader < 5);
        // Exactly one BecameLeader event chain; all servers agree.
        for id in 0..5 {
            let node_leader = sim.server(id).node().leader_id();
            assert_eq!(node_leader, Some(leader), "server {id} agrees on leader");
        }
    }

    #[test]
    fn dynatune_cluster_warms_up_tuners() {
        let mut sim = stable_cluster(TuningConfig::dynatune(), 2);
        sim.run_until(SimTime::from_secs(30));
        let leader = sim.leader().expect("leader");
        for id in 0..5 {
            if id == leader {
                continue;
            }
            let snap = sim.server(id).node().tuning_snapshot();
            assert!(snap.warmed, "follower {id} tuner warmed: {snap:?}");
            // RTT 100ms, tiny jitter: Et close to 100ms, far below default.
            let et_ms = snap.election_timeout.as_secs_f64() * 1e3;
            assert!((90.0..200.0).contains(&et_ms), "follower {id} Et {et_ms}ms");
        }
        // The leader paces followers at the tuned interval (K=1 ⇒ h=Et).
        let h = sim.leader_mean_heartbeat_interval().unwrap();
        assert!(h >= Duration::from_millis(90), "tuned h = {h:?}");
    }

    #[test]
    fn static_raft_keeps_default_parameters() {
        let mut sim = stable_cluster(TuningConfig::raft_default(), 3);
        sim.run_until(SimTime::from_secs(20));
        for id in 0..5 {
            let snap = sim.server(id).node().tuning_snapshot();
            assert!(!snap.warmed);
            assert_eq!(snap.election_timeout, Duration::from_millis(1000));
        }
        let h = sim.leader_mean_heartbeat_interval().unwrap();
        assert_eq!(h, Duration::from_millis(100));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = stable_cluster(TuningConfig::dynatune(), seed);
            sim.run_until(SimTime::from_secs(15));
            (sim.leader(), sim.events().len(), sim.net_counters())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn pause_and_failover() {
        let mut sim = stable_cluster(TuningConfig::raft_default(), 4);
        sim.run_until(SimTime::from_secs(10));
        let old_leader = sim.leader().expect("initial leader");
        sim.pause(old_leader);
        sim.run_for(Duration::from_secs(10));
        let new_leader = sim.leader().expect("failover leader");
        assert_ne!(new_leader, old_leader);
        // Resume: the old leader rejoins as follower.
        sim.resume(old_leader);
        sim.run_for(Duration::from_secs(5));
        let role = sim.server(old_leader).node().role();
        assert_eq!(role, Role::Follower);
    }

    #[test]
    fn spares_join_live_via_joint_consensus() {
        // 3 genesis voters + 2 spare outsiders; grow to 5 voters online.
        let mut sim = ScenarioBuilder::cluster(3)
            .spares(2)
            .net(NetPlan::stable(Duration::from_millis(50)))
            .seed(9)
            .build_sim();
        sim.run_until(SimTime::from_secs(10));
        let leader = sim.leader().expect("genesis voters elect");
        assert!(leader < 3, "spares cannot lead before joining");
        for id in 3..5 {
            assert_eq!(sim.server(id).node().role(), Role::Follower);
            assert!(!sim.server(leader).node().membership().contains(id));
        }
        // Learners first (one conf change may be uncommitted at a time)...
        assert!(sim.propose_conf_change(0, ConfChange::AddLearner(3)));
        sim.run_for(Duration::from_secs(3));
        assert!(sim.propose_conf_change(0, ConfChange::AddLearner(4)));
        sim.run_for(Duration::from_secs(3));
        let leader = sim.leader().expect("leader");
        let m = sim.server(leader).node().membership();
        assert!(
            m.is_learner(3) && m.is_learner(4),
            "learners admitted: {m:?}"
        );
        // ...then promote both through one joint change.
        assert!(sim.propose_conf_change(
            0,
            ConfChange::Begin {
                add: vec![3, 4],
                remove: vec![],
            }
        ));
        sim.run_for(Duration::from_secs(3));
        assert!(sim.propose_conf_change(0, ConfChange::Finalize));
        sim.run_for(Duration::from_secs(5));
        for id in 0..5 {
            let m = sim.server(id).node().membership();
            assert!(!m.is_joint(), "server {id} still joint");
            assert_eq!(
                m.voting_members().len(),
                5,
                "server {id} sees the 5-voter config"
            );
        }
        let rejections: u64 = sim.servers().map(ServerHost::conf_rejections).sum();
        assert_eq!(rejections, 0, "stable run needs no re-issues");
        // The grown cluster survives two failures — impossible at n=3.
        sim.crash_restart(0);
        sim.pause(1);
        sim.run_for(Duration::from_secs(15));
        assert!(sim.leader().is_some(), "5-voter cluster rides out 2 faults");
        assert_eq!(election_safety_violations(&sim.events()), 0);
    }

    fn sharded(shards: usize, seed: u64, rps: f64) -> ClusterSim {
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
        for shard in 0..sim.shards() {
            let leader = sim
                .leader_of(shard)
                .unwrap_or_else(|| panic!("shard {shard} must elect"));
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
        let stats = sim.client().expect("client attached").shard_stats();
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

    /// Requests the client completed, per shard.
    fn completed(sim: &ClusterSim) -> Vec<u64> {
        let client = sim.client().expect("client attached");
        client.shard_stats().iter().map(|s| s.completed).collect()
    }

    #[test]
    fn crashing_one_leader_leaves_other_shards_serving() {
        let mut sim = sharded(2, 3, 600.0);
        sim.run_until(SimTime::from_secs(10));
        let victim = sim.leader_of(0).expect("shard 0 leader");
        let before = completed(&sim);
        sim.crash_restart(victim);
        sim.run_for(Duration::from_secs(5));
        let after = completed(&sim);
        // Shard 1 kept committing throughout the shard-0 outage.
        assert!(
            after[1] - before[1] > 800,
            "shard 1 progressed only {} ops during shard 0's outage",
            after[1] - before[1]
        );
        // Shard 0 recovers: a leader re-emerges and commits resume.
        sim.run_for(Duration::from_secs(5));
        assert!(sim.leader_of(0).is_some(), "shard 0 re-elects");
        let healed = completed(&sim);
        assert!(healed[0] > after[0], "shard 0 resumes committing");
    }

    #[test]
    fn sharded_run_is_deterministic_given_seed() {
        let run = |seed| {
            let mut sim = sharded(3, seed, 300.0);
            sim.run_until(SimTime::from_secs(12));
            let leaders: Vec<_> = (0..sim.shards()).map(|s| sim.leader_of(s)).collect();
            (leaders, completed(&sim), sim.net_counters())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2);
    }

    #[test]
    fn workload_flows_end_to_end() {
        let mut sim = ScenarioBuilder::cluster(3)
            .net(NetPlan::stable(Duration::from_millis(10)))
            .seed(5)
            .workload(WorkloadSpec::steady(200.0, Duration::from_secs(5)))
            .build_sim();
        // Schedule starts at t=0; leader takes ~1-2s to emerge, so early
        // requests are redirected/failed; later ones complete.
        sim.run_until(SimTime::from_secs(10));
        let steps = sim.client().expect("client attached").steps();
        assert_eq!(steps.len(), 1);
        let s = &steps[0];
        assert!(s.sent > 800, "sent {}", s.sent);
        assert!(s.completed > 500, "completed {}", s.completed);
        // Latency at 10ms RTT and light load: a few tens of ms tops.
        assert!(
            s.latency_ms.mean() < 100.0,
            "latency {}",
            s.latency_ms.mean()
        );
    }

    #[test]
    fn read_outs_borrow_the_clients_storage() {
        let mut sim = ScenarioBuilder::cluster(3)
            .net(NetPlan::stable(Duration::from_millis(10)))
            .seed(5)
            .workload(WorkloadSpec::steady(200.0, Duration::from_secs(3)).recording())
            .build_sim();
        sim.run_until(SimTime::from_secs(4));
        let client = sim.client().expect("client attached");
        // A copy would live at another address; `ptr::eq` on slices also
        // compares lengths, and a non-empty trace rules out two dangling
        // empty slices comparing equal.
        let trace = sim.client_trace().expect("client attached");
        assert!(!trace.is_empty());
        assert!(std::ptr::eq(trace, client.trace()));
        assert!(std::ptr::eq(
            sim.client_steps().expect("client attached"),
            client.steps()
        ));
    }

    #[test]
    fn the_cluster_lends_every_server_and_its_client() {
        let builder = ScenarioBuilder::cluster(3).spares(2);
        let spec = WorkloadSpec::steady(100.0, Duration::from_secs(1));
        let sim = builder.clone().workload(spec).build_sim();
        assert_eq!(sim.n_servers(), 5);
        let lent: Vec<&ServerHost> = sim.servers().collect();
        assert_eq!(lent.len(), sim.n_servers(), "spares included, client not");
        for (id, server) in lent.into_iter().enumerate() {
            let in_order = std::ptr::eq(server, sim.server(id));
            assert!(in_order, "server {id} in id order");
        }
        assert!(sim.client().is_some());
        let bare = builder.build_sim();
        assert_eq!(bare.servers().count(), bare.n_servers());
        assert!(bare.client().is_none(), "no workload, no client");
    }

    /// The body `merge_by_time` replaced: push every stream, then sort
    /// stably by `(time, id)`.
    fn push_then_sort(streams: &[(NodeId, &[(SimTime, u32)])]) -> Vec<(SimTime, NodeId, u32)> {
        let mut out = Vec::new();
        for &(id, events) in streams {
            for &(t, e) in events {
                out.push((t, id, e));
            }
        }
        out.sort_by_key(|&(t, id, _)| (t, id));
        out
    }

    proptest! {
        #[test]
        fn prop_merge_by_time_matches_push_then_stable_sort(
            times in proptest::collection::vec(proptest::collection::vec(0u64..6, 0..12), 1..7),
            first_id in 0usize..4,
            descending in proptest::bool::ANY,
        ) {
            // Six instants for up to twelve events per server: ties within
            // a server and across servers are the common case. Ids come in
            // either order, as members and spares do.
            let owned: Vec<(NodeId, Vec<(SimTime, u32)>)> = times
                .into_iter()
                .enumerate()
                .map(|(k, mut ts)| {
                    ts.sort_unstable();
                    let id = if descending { first_id + 20 - 2 * k } else { first_id + 2 * k };
                    let events = ts
                        .into_iter()
                        .enumerate()
                        .map(|(j, t)| (SimTime::from_millis(t), (100 * k + j) as u32))
                        .collect();
                    (id, events)
                })
                .collect();
            let mut streams: Vec<(NodeId, &[(SimTime, u32)])> =
                owned.iter().map(|(id, v)| (*id, v.as_slice())).collect();
            let want = push_then_sort(&streams);
            prop_assert_eq!(merge_by_time(&mut streams), want);
        }
    }
}
