//! Cluster assembly and simulation driver.
//!
//! One [`ClusterSim`] serves every deployment shape the repository models:
//! it is generic over the served [`App`] (`KvStore` or `BrokerState`) and
//! over the benchmark [`Client`] that shares the fabric with the servers,
//! and it places servers by a [`ShardMap`] — a classic single Raft group is
//! the map with one shard. One [`ClusterConfig`] describes any of them.
//!
//! Host layout (world ids): replicas of shard `g` occupy the contiguous
//! block `[g·R, (g+1)·R)`, spares follow in declaration order, and the
//! optional client is the last host. Raft node ids stay group-local
//! (`0..R`, spares past `R`); [`ServerHost`] translates via its peer base.

use crate::client::{ClientHost, OpRecord, ShardStats, StepRecord};
use crate::cpu::CostModel;
use crate::msg::ClusterMsg;
use crate::server::{CompactionPolicy, ReadCounters, ReadStrategy, ServerHost};
use dynatune_core::{invariant_violated, TuningConfig, TuningSnapshot};
use dynatune_kv::{App, KvStore, OpMix, RateStep, ShardId, ShardMap};
use dynatune_raft::{ConfChange, Membership, NodeId, RaftConfig, RaftEvent, Role};
use dynatune_simnet::{
    CongestionConfig, Host, HostCtx, LinkSchedule, NetParams, Network, Rng, SimTime, Topology,
    World,
};
use dynatune_stats::Histogram;
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
    /// (see [`ClusterSim::client_trace`]).
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

/// Full description of one simulated cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Genesis placement: Raft-group count and voters per group. A classic
    /// single group of `n` servers is `ShardMap::new(1, n)`.
    pub map: ShardMap,
    /// Spare outsider servers, one entry per spare naming the shard it can
    /// join. Spare `k` occupies world id `map.n_servers() + k`, speaks its
    /// shard's group-local protocol, shares the fabric from t=0, and
    /// belongs to no quorum (never campaigns) until a replicated
    /// configuration change admits it
    /// ([`ClusterSim::propose_conf_change`]).
    pub spares: Vec<ShardId>,
    /// The Raft configuration every server starts from — tuning mode,
    /// election, transport and replication knobs, each declared (and
    /// defaulted) once, in [`RaftConfig`]. `id`, `peers`, `seed` and
    /// `lease_reads` are placeholders here: [`ClusterSim`] fills them per
    /// server from the placement, the master seed and `read_strategy`.
    pub raft: RaftConfig,
    /// Server-to-server network topology; must cover exactly
    /// [`Self::n_servers`] hosts.
    pub topology: Topology,
    /// Congestion-burst model applied per egress.
    pub congestion: CongestionConfig,
    /// CPU cost model (per server).
    pub cost: CostModel,
    /// Log-compaction policy (threshold + retained tail).
    pub compaction: CompactionPolicy,
    /// How servers serve linearizable reads (log vs lease/ReadIndex).
    pub read_strategy: ReadStrategy,
    /// Cores per server (paper: 4 for Figs. 4–6, 2 for Fig. 7).
    pub cores: usize,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Optional KV client workload (adds one client node to the fabric,
    /// linked to every server by a LAN hop).
    pub workload: Option<WorkloadSpec>,
}

impl ClusterConfig {
    /// A stable-network cluster matching the paper's §IV-A setup: one group
    /// of `n` servers, uniform RTT, no loss, 4 cores each.
    #[must_use]
    pub fn stable(n: usize, tuning: TuningConfig, rtt: Duration, seed: u64) -> Self {
        // "Without intentionally introducing jitter" (§IV-B) — still a real
        // kernel/bridge, so a small residual jitter remains.
        let params = NetParams::clean(rtt).with_jitter(0.02);
        Self {
            map: ShardMap::new(1, n),
            spares: Vec::new(),
            raft: RaftConfig::new(0, n, tuning),
            topology: Topology::uniform_constant(n, params),
            congestion: CongestionConfig::disabled(),
            cost: CostModel::default(),
            compaction: CompactionPolicy::default(),
            read_strategy: ReadStrategy::default(),
            cores: 4,
            seed,
            workload: None,
        }
    }

    /// Attach a client workload.
    #[must_use]
    pub fn with_workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// Number of server hosts: mapped replicas plus spares.
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.map.n_servers() + self.spares.len()
    }

    /// The Raft configuration of the server with group-local id `local` —
    /// the one fill used for voters and spares alike. A spare's local id
    /// lies past the mapped replicas (the peer-base translation is pure
    /// addition, so it addresses a host outside the shard's block), which
    /// makes it an outsider of the genesis voter set until a conf change
    /// admits it.
    fn raft_config(&self, local: NodeId, seed: u64) -> RaftConfig {
        RaftConfig {
            id: local,
            peers: (0..self.map.replicas()).collect(),
            seed,
            // The lease fast path only when the strategy asks for it; under
            // ReadIndex every read pays a confirmation round.
            lease_reads: self.read_strategy == ReadStrategy::Lease,
            ..self.raft.clone()
        }
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
    /// Build a KV cluster; `config.workload` (if any) drives a
    /// [`ClientHost`] that routes over every member of each shard (spares
    /// included) and sends each request the moment it arrives.
    ///
    /// # Panics
    /// Panics when the topology size does not match the server count.
    #[must_use]
    pub fn new(config: &ClusterConfig) -> Self {
        let rows = (0..config.map.shards())
            .map(|shard| members(config.map, &config.spares, shard).collect())
            .collect();
        Self::with_kv_client(config, rows, None)
    }

    /// The one KV assembly: `rows` are the client's initial placement rows
    /// and `batch_window` its sending discipline (see [`ClientHost::new`]).
    pub(crate) fn with_kv_client(
        config: &ClusterConfig,
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

    /// Per-step records of the client (`None` without a workload).
    #[must_use]
    pub fn client_steps(&self) -> Option<Vec<StepRecord>> {
        self.client().map(|c| c.steps().to_vec())
    }

    /// The client's recorded operation trace (`None` without a client;
    /// empty unless the workload set `record_trace`).
    #[must_use]
    pub fn client_trace(&self) -> Option<Vec<OpRecord>> {
        self.client().map(|c| c.trace().to_vec())
    }

    /// Per-shard client counters (`None` without a workload).
    #[must_use]
    pub fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        self.client().map(|c| c.shard_stats().to_vec())
    }

    /// Completed requests per shard (`None` without a workload).
    #[must_use]
    pub fn completed_per_shard(&self) -> Option<Vec<u64>> {
        self.client()
            .map(|c| c.shard_stats().iter().map(|s| s.completed).collect())
    }

    /// Total completed requests across shards (0 without a workload).
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.completed_per_shard().map_or(0, |c| c.iter().sum())
    }

    /// Take (and reset) one shard's windowed latency histogram (µs) from
    /// the workload client (`None` without one). Take once to discard
    /// warm-up, again after the window of interest.
    pub fn take_latency_window(&mut self, shard: ShardId) -> Option<Histogram> {
        self.client_mut().map(|c| c.take_latency_window(shard))
    }

    /// Repoint the client's placement row for `shard`: replica `from`
    /// (world id) is replaced by `to`. Called by the rebalancer after the
    /// final configuration commits, so client traffic follows the data.
    /// No-op without a workload client.
    pub fn repoint_shard(&mut self, shard: ShardId, from: NodeId, to: NodeId) {
        if let Some(c) = self.client_mut() {
            c.repoint(shard, from, to);
        }
    }
}

/// World ids of every server belonging to `shard`: the mapped replica
/// block, then any spares attached to the shard in declaration order
/// (spare `k` is host `map.n_servers() + k`).
fn members(map: ShardMap, spares: &[ShardId], shard: ShardId) -> impl Iterator<Item = NodeId> + '_ {
    let spares = spares.iter().enumerate();
    map.servers_of(shard).chain(
        spares
            .filter(move |&(_, &s)| s == shard)
            .map(move |(k, _)| map.n_servers() + k),
    )
}

impl<A: App, C: Client<A>> ClusterSim<A, C> {
    /// Assemble the cluster: every server in `config` plus the client
    /// `make_client` returns (handed the workload's seed stream), if any.
    /// All randomness derives from `config.seed`: stream 1 feeds the
    /// network, stream 2 the per-server timers (one child per world id, so
    /// every (shard, replica) pair is independent), stream 3 the workload.
    ///
    /// # Panics
    /// Panics when the topology does not cover exactly the servers, or a
    /// spare names a shard out of range.
    #[must_use]
    pub(crate) fn with_client(
        config: &ClusterConfig,
        make_client: impl FnOnce(Rng) -> Option<C>,
    ) -> Self {
        let map = config.map;
        let n_servers = config.n_servers();
        assert_eq!(
            config.topology.len(),
            n_servers,
            "topology must cover exactly the servers (mapped replicas + spares)"
        );
        let master = Rng::new(config.seed);
        let client = make_client(master.child(3));
        // Extend the topology with the client node (one LAN hop to every
        // server) if needed.
        let topology = if client.is_some() {
            config
                .topology
                .extend_with(1, LinkSchedule::constant(NetParams::lan()))
        } else {
            config.topology.clone()
        };
        let n_total = n_servers + usize::from(client.is_some());
        let net = Network::new(n_total, &master.child(1), config.congestion, |f, t| {
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

    fn server(&self, id: NodeId) -> &ServerHost<A> {
        match self.world.host(id) {
            ClusterHost::Server(s) => s,
            ClusterHost::Client(_) => invariant_violated!(
                "host {id} is the client — servers occupy the leading n_servers slots"
            ),
        }
    }

    fn servers(&self) -> impl Iterator<Item = &ServerHost<A>> {
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

    /// The client host, if a workload attached one (always the last host).
    pub(crate) fn client(&self) -> Option<&C> {
        match self.world.host(self.world.len() - 1) {
            ClusterHost::Client(c) => Some(c),
            ClusterHost::Server(_) => None,
        }
    }

    /// Mutable access to the client host, if any.
    pub(crate) fn client_mut(&mut self) -> Option<&mut C> {
        let last = self.world.len() - 1;
        match self.world.host_mut(last) {
            ClusterHost::Client(c) => Some(c),
            ClusterHost::Server(_) => None,
        }
    }

    /// Run a closure against a server (by world id).
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

    /// Leaders of all shards, indexed by shard id.
    #[must_use]
    pub fn leaders(&self) -> Vec<Option<NodeId>> {
        (0..self.map.shards()).map(|s| self.leader_of(s)).collect()
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
    /// restarted node), the persistent log survives, and the wake is
    /// rescheduled for the fresh election timer.
    pub fn crash(&mut self, id: NodeId) {
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

    /// The membership one server currently acts under (its latest appended
    /// configuration — Raft configs take effect at append time).
    #[must_use]
    pub fn membership(&self, id: NodeId) -> Membership {
        self.server(id).node().membership().clone()
    }

    /// Conf changes dropped or rejected across all servers (stale-leader
    /// submissions the orchestrator had to re-issue).
    #[must_use]
    pub fn conf_rejections(&self) -> u64 {
        self.servers().map(ServerHost::conf_rejections).sum()
    }

    /// Recorded events of one shard's group, merged and sorted by time,
    /// with *group-local* node ids — the shape
    /// [`extract_failover`](crate::observers::extract_failover) and the
    /// safety checks expect.
    #[must_use]
    pub fn shard_events(&self, shard: ShardId) -> Vec<(SimTime, NodeId, RaftEvent)> {
        let base = self.map.group_base(shard);
        let mut out = Vec::new();
        for id in members(self.map, &self.spares, shard) {
            for &(t, e) in self.server(id).events() {
                out.push((t, id - base, e));
            }
        }
        out.sort_by_key(|&(t, id, _)| (t, id));
        out
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

    /// Tuning snapshot of one server.
    #[must_use]
    pub fn tuning_snapshot(&self, id: NodeId) -> TuningSnapshot {
        self.server(id).node().tuning_snapshot()
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

    /// Current scheduled RTT of the 0→1 link (the uniform-topology probe
    /// used for Fig. 6's RTT trace).
    #[must_use]
    pub fn probe_rtt(&self) -> Duration {
        self.world.network().params_at(0, 1, self.world.now()).rtt
    }

    /// Current scheduled loss rate of the 0→1 link (Fig. 7's loss trace).
    #[must_use]
    pub fn probe_loss(&self) -> f64 {
        self.world.network().params_at(0, 1, self.world.now()).loss
    }

    /// Network counters (sent/delivered/dropped).
    #[must_use]
    pub fn net_counters(&self) -> dynatune_simnet::NetCounters {
        self.world.counters()
    }

    /// Largest live log across servers — the leader-memory-bound
    /// observable the compaction scenarios assert on.
    #[must_use]
    pub fn max_log_len(&self) -> usize {
        self.servers().map(ServerHost::log_len).max().unwrap_or(0)
    }

    /// Total `InstallSnapshot` transfers started across servers.
    #[must_use]
    pub fn total_snapshots_sent(&self) -> u64 {
        self.servers().map(ServerHost::snapshots_sent).sum()
    }

    /// Served-read counters aggregated over all servers (by path).
    #[must_use]
    pub fn read_counters(&self) -> ReadCounters {
        self.servers()
            .map(ServerHost::reads_served)
            .fold(ReadCounters::default(), ReadCounters::merged)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::election_safety_violations;
    use crate::scenario::builder::ScenarioBuilder;

    fn stable_cluster(tuning: TuningConfig, seed: u64) -> ClusterSim {
        let cfg = ClusterConfig::stable(5, tuning, Duration::from_millis(100), seed);
        ClusterSim::new(&cfg)
    }

    #[test]
    fn cluster_elects_a_leader() {
        let mut sim = stable_cluster(TuningConfig::raft_default(), 1);
        sim.run_until(SimTime::from_secs(10));
        let leader = sim.leader().expect("a leader must emerge");
        assert!(leader < 5);
        // Exactly one BecameLeader event chain; all servers agree.
        for id in 0..5 {
            let node_leader = sim.with_server(id, |s| s.node().leader_id());
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
            let snap = sim.tuning_snapshot(id);
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
            let snap = sim.tuning_snapshot(id);
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
        let role = sim.with_server(old_leader, |s| s.node().role());
        assert_eq!(role, Role::Follower);
    }

    #[test]
    fn spares_join_live_via_joint_consensus() {
        // 3 genesis voters + 2 spare outsiders; grow to 5 voters online.
        let params = NetParams::clean(Duration::from_millis(50)).with_jitter(0.02);
        let mut cfg = ClusterConfig::stable(
            3,
            TuningConfig::raft_default(),
            Duration::from_millis(50),
            9,
        );
        cfg.spares = vec![0; 2];
        cfg.topology = Topology::uniform_constant(5, params);
        let mut sim = ClusterSim::new(&cfg);
        sim.run_until(SimTime::from_secs(10));
        let leader = sim.leader().expect("genesis voters elect");
        assert!(leader < 3, "spares cannot lead before joining");
        for id in 3..5 {
            assert_eq!(sim.with_server(id, |s| s.node().role()), Role::Follower);
            assert!(!sim.membership(leader).contains(id));
        }
        // Learners first (one conf change may be uncommitted at a time)...
        assert!(sim.propose_conf_change(0, ConfChange::AddLearner(3)));
        sim.run_for(Duration::from_secs(3));
        assert!(sim.propose_conf_change(0, ConfChange::AddLearner(4)));
        sim.run_for(Duration::from_secs(3));
        let leader = sim.leader().expect("leader");
        let m = sim.membership(leader);
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
            let m = sim.membership(id);
            assert!(!m.is_joint(), "server {id} still joint");
            assert_eq!(
                m.voting_members().len(),
                5,
                "server {id} sees the 5-voter config"
            );
        }
        assert_eq!(sim.conf_rejections(), 0, "stable run needs no re-issues");
        // The grown cluster survives two failures — impossible at n=3.
        sim.crash(0);
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
    fn sharded_run_is_deterministic_given_seed() {
        let run = |seed| {
            let mut sim = sharded(3, seed, 300.0);
            sim.run_until(SimTime::from_secs(12));
            (sim.leaders(), sim.completed_per_shard(), sim.net_counters())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2);
    }

    #[test]
    fn workload_flows_end_to_end() {
        let cfg = ClusterConfig::stable(
            3,
            TuningConfig::raft_default(),
            Duration::from_millis(10),
            5,
        )
        .with_workload(WorkloadSpec::steady(200.0, Duration::from_secs(5)));
        let mut sim = ClusterSim::new(&cfg);
        // Schedule starts at t=0; leader takes ~1-2s to emerge, so early
        // requests are redirected/failed; later ones complete.
        sim.run_until(SimTime::from_secs(10));
        let steps = sim.client_steps().expect("client attached");
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
}
