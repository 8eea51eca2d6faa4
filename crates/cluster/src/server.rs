//! The server host: a Raft node + replicated state machine + CPU meter
//! behind the simulator's [`Host`](dynatune_simnet::Host) interface.
//!
//! Generic over the [`App`] being served (KV store by default, broker via
//! `ServerHost<BrokerState>`): the propose path, CPU admission, log-free
//! read path and compaction policy are identical for every application,
//! and so is reply-cache dedupe — the node drives a [`Replicated<A>`],
//! never the app itself.

use crate::cpu::{CostModel, CpuMeter};
use crate::msg::{ClusterMsg, RaftPayload};
use crate::slots::SlotRing;
use dynatune_kv::{App, KvStore, Replicated, Request};
use dynatune_raft::{
    ConfChange, LogIndex, NodeEffects, NodeId, Payload, RaftConfig, RaftEvent, RaftNode, ReadPath,
    Role, StateMachine, Term,
};
use dynatune_simnet::{Channel, HostCtx, SimTime};
use std::collections::BTreeMap;
use std::time::Duration;

/// A proposal made on behalf of a client, waiting for its entry to apply.
#[derive(Debug, Clone)]
struct PendingReq {
    term: Term,
    client: NodeId,
    req_id: u64,
    /// Read replicated through the log (the [`ReadStrategy::Log`]
    /// baseline) — counted separately so the read-path mix is observable.
    is_read: bool,
}

/// How this server serves linearizable reads (`Get`/`Range`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadStrategy {
    /// Replicate reads through the Raft log like writes (etcd quorum
    /// reads; the pre-read-path baseline). Full quorum-append cost per
    /// read, and read traffic grows the log.
    Log,
    /// Log-free reads via ReadIndex only: every read batch pays one
    /// leadership-confirmation round (piggy-backed on append traffic).
    ReadIndex,
    /// Log-free reads via the leader lease, falling back to ReadIndex when
    /// the lease is cold or expired (the default: reads cost no network
    /// round while heartbeat acks keep the lease fresh).
    #[default]
    Lease,
}

impl ReadStrategy {
    /// True when reads bypass the Raft log.
    #[must_use]
    pub fn log_free(self) -> bool {
        !matches!(self, ReadStrategy::Log)
    }
}

/// Served-read counters, by path. `lease`/`read_index` count reads this
/// server granted and answered as leader; `follower` counts forwarded
/// reads answered from this server's own state machine after a leader
/// grant; `log` counts reads replicated through the log (the baseline
/// strategy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounters {
    /// Reads served inside the leader lease.
    pub lease: u64,
    /// Reads served after a ReadIndex confirmation round.
    pub read_index: u64,
    /// Forwarded reads served locally on this (follower) server.
    pub follower: u64,
    /// Reads that went through the log (`ReadStrategy::Log`).
    pub log: u64,
}

impl ReadCounters {
    /// Total reads this server answered, over every path.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.lease + self.read_index + self.follower + self.log
    }

    /// Element-wise sum (cluster-level aggregation).
    #[must_use]
    pub fn merged(self, other: ReadCounters) -> ReadCounters {
        ReadCounters {
            lease: self.lease + other.lease,
            read_index: self.read_index + other.read_index,
            follower: self.follower + other.follower,
            log: self.log + other.log,
        }
    }
}

/// One in-flight forwarded-read wave: a single `ReadIndexReq` covering
/// every read the follower admitted before the wave left.
#[derive(Debug, Clone)]
struct FwdWave {
    wave_id: u64,
    ids: Vec<u64>,
    sent_at: SimTime,
}

/// CPU-utilization sampling window (paper: docker-stats style 5 s windows).
const CPU_WINDOW: Duration = Duration::from_secs(5);

/// Re-send an unanswered forwarded-read wave after this long (the covered
/// reads' clients are on their own retry timers anyway).
const FWD_WAVE_RESEND: Duration = Duration::from_secs(1);

/// Where a leader-side read grant must be delivered.
enum ReadOrigin<A: App> {
    /// A client read this server answers from its own state machine.
    Local {
        client: NodeId,
        req_id: u64,
        cmd: A::Command,
    },
    /// A read forwarded by a follower; the grant's `read_index` is sent
    /// back and the follower serves locally.
    Remote { follower: NodeId, read_id: u64 },
}

/// A client request admitted through the CPU queue, waiting to execute.
struct AdmittedReq<A: App> {
    ready_at: SimTime,
    client: NodeId,
    req_id: u64,
    cmd: A::Command,
}

/// Compact when the live log exceeds this many entries (default).
pub const COMPACT_THRESHOLD: usize = 131_072;
/// Keep this many recent entries when compacting (default), so
/// briefly-lagging followers catch up via cheap appends instead of a full
/// snapshot transfer.
pub const COMPACT_TAIL: u64 = 8_192;

/// When to compact the log and how much slack to keep. Compaction is
/// bounded only by `last_applied` — snapshots catch up anyone further
/// behind — so the leader's live log stays within
/// `threshold + tail` entries no matter how long a follower is down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact once the live log exceeds this many entries.
    pub threshold: usize,
    /// Keep this many applied entries below the compaction point.
    pub tail: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            threshold: COMPACT_THRESHOLD,
            tail: COMPACT_TAIL,
        }
    }
}

/// One simulated etcd-like server, serving the application `A` (the KV
/// store by default).
pub struct ServerHost<A: App = KvStore> {
    node: RaftNode<Replicated<A>>,
    cost: CostModel,
    cpu: CpuMeter,
    compaction: CompactionPolicy,
    tunes: bool,
    /// Global host id of this group's first member. Raft node ids are
    /// group-local (`0..n`); in a multi-group (sharded) world the group
    /// occupies a contiguous block of host ids starting here, so protocol
    /// traffic translates by one addition/subtraction. Zero for the
    /// single-group layout, where host ids and node ids coincide.
    peer_base: NodeId,
    /// Observable event log: `(time, event)`.
    events: Vec<(SimTime, RaftEvent)>,
    /// Proposals awaiting application, by log index (ascending while
    /// this node leads; cleared whenever it stops).
    pending: SlotRing<PendingReq>,
    /// CPU-admitted client requests not yet proposed (FIFO by ready_at).
    admit: std::collections::VecDeque<AdmittedReq<A>>,
    /// How reads are served (log-replicated vs lease/ReadIndex).
    read_strategy: ReadStrategy,
    /// Grant-token allocator for reads registered with the Raft node.
    next_read_token: u64,
    /// Outstanding read grants, by token.
    read_origins: SlotRing<ReadOrigin<A>>,
    /// Local-id allocator for reads this follower forwarded to the leader.
    next_fwd_id: u64,
    /// Reads forwarded to the leader, awaiting a `ReadIndexResp`.
    forwarded: SlotRing<(NodeId, u64, A::Command)>,
    /// Wave-id allocator for forwarded-read batches.
    next_fwd_wave: u64,
    /// Forwarded reads admitted but not yet covered by a wave.
    fwd_pending: Vec<u64>,
    /// The single in-flight forwarded wave, if any.
    fwd_inflight: Option<FwdWave>,
    /// Granted forwarded reads waiting for local apply to reach their
    /// read index: `read_index -> local read ids`.
    follower_wait: BTreeMap<LogIndex, Vec<u64>>,
    /// Served-read counters by path.
    reads_served: ReadCounters,
    /// Configuration changes queued from outside the dispatch loop (the
    /// rebalancer); proposed on the next wake while this node leads.
    pending_conf: std::collections::VecDeque<ConfChange>,
    /// Conf changes the node rejected (not leader / in flight / learner
    /// behind) — the orchestrator's signal to re-submit.
    conf_rejections: u64,
}

impl<A: App> ServerHost<A> {
    /// Build a server from its Raft config and cost model.
    #[must_use]
    pub fn new(config: RaftConfig, cost: CostModel, cores: usize) -> Self {
        let tunes = config.tuning.mode.tunes();
        Self {
            node: RaftNode::new(config, Replicated::new(), SimTime::ZERO),
            cost,
            cpu: CpuMeter::new(cores, CPU_WINDOW),
            compaction: CompactionPolicy::default(),
            tunes,
            peer_base: 0,
            events: Vec::new(),
            pending: SlotRing::new(),
            admit: std::collections::VecDeque::new(),
            read_strategy: ReadStrategy::default(),
            next_read_token: 0,
            read_origins: SlotRing::new(),
            next_fwd_id: 0,
            forwarded: SlotRing::new(),
            next_fwd_wave: 0,
            fwd_pending: Vec::new(),
            fwd_inflight: None,
            follower_wait: BTreeMap::new(),
            reads_served: ReadCounters::default(),
            pending_conf: std::collections::VecDeque::new(),
            conf_rejections: 0,
        }
    }

    /// Select the read-serving strategy. Under the log-free strategies a
    /// follower that knows a leader answers forwarded reads locally; under
    /// [`ReadStrategy::Log`] a non-leader can only redirect.
    #[must_use]
    pub fn with_reads(mut self, strategy: ReadStrategy) -> Self {
        self.read_strategy = strategy;
        self
    }

    /// Place this server's Raft group at a block of host ids starting at
    /// `base` (sharded worlds; see `peer_base`).
    #[must_use]
    pub fn with_peer_base(mut self, base: NodeId) -> Self {
        self.peer_base = base;
        self
    }

    /// Override the log-compaction policy (scenarios shrink it to exercise
    /// snapshot transfer at simulation-friendly write volumes).
    #[must_use]
    pub fn with_compaction(mut self, compaction: CompactionPolicy) -> Self {
        self.compaction = compaction;
        self
    }

    /// The wrapped Raft node (observers).
    #[must_use]
    pub fn node(&self) -> &RaftNode<Replicated<A>> {
        &self.node
    }

    /// Live (un-compacted) log length — the memory-bound observable.
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.node.log().len()
    }

    /// `InstallSnapshot` transfers started by this server as leader.
    #[must_use]
    pub fn snapshots_sent(&self) -> u64 {
        self.node.snapshots_sent()
    }

    /// Reads answered by this server, by path.
    #[must_use]
    pub fn reads_served(&self) -> ReadCounters {
        self.reads_served
    }

    /// Recorded events (time-stamped).
    #[must_use]
    pub fn events(&self) -> &[(SimTime, RaftEvent)] {
        &self.events
    }

    /// The CPU meter (utilization series).
    #[must_use]
    pub fn cpu(&self) -> &CpuMeter {
        &self.cpu
    }

    /// Queue a configuration change for proposal on the next wake. The
    /// queue is volatile (a crash drops it) and only a leader proposes:
    /// a change drained while this node follows is counted as a rejection
    /// for the orchestrator to re-submit against the real leader.
    pub fn enqueue_conf_change(&mut self, change: ConfChange) {
        self.pending_conf.push_back(change);
    }

    /// Conf changes this server dropped or the node rejected.
    #[must_use]
    pub fn conf_rejections(&self) -> u64 {
        self.conf_rejections
    }

    /// Crash this server: persistent Raft state (term, vote, log, retained
    /// snapshot) survives, everything else (pending requests, admission
    /// queue) is lost; the state machine is rebuilt from the snapshot plus
    /// log replay.
    pub fn crash_restart(&mut self, now: SimTime) {
        self.node.restart(now, Replicated::new());
        self.pending.clear();
        self.admit.clear();
        self.read_origins.clear();
        self.forwarded.clear();
        self.fwd_pending.clear();
        self.fwd_inflight = None;
        self.follower_wait.clear();
        self.pending_conf.clear();
    }

    fn msg_recv_cost(&self, payload: &RaftPayload<A>) -> Duration {
        let mut c = self.cost.per_message_recv;
        if self.tunes {
            c += self.cost.tuning_per_message;
        }
        if let Payload::InstallSnapshot(s) = payload {
            // Size-aware install: restoring a big store takes real time.
            c += self.cost.snapshot_cost(s.data.approx_bytes());
        }
        c
    }

    fn msg_send_cost(&self, payload: &RaftPayload<A>) -> Duration {
        let mut c = self.cost.per_message_send;
        if self.tunes {
            c += self.cost.tuning_per_message;
        }
        match payload {
            Payload::AppendEntries(ae) => {
                // Byte-based replication charge: a group-committed append
                // carrying many coalesced proposals costs its payload, not
                // a per-entry tax — the sim-side half of the group-commit
                // payoff (the other half is fewer messages).
                let bytes: usize = ae
                    .entries
                    .iter()
                    .filter_map(|e| e.data.as_ref())
                    .map(Replicated::<A>::command_bytes)
                    .sum();
                c += self.cost.append_cost(bytes);
            }
            Payload::InstallSnapshot(s) => {
                // Size-aware serialization of the full state.
                c += self.cost.snapshot_cost(s.data.approx_bytes());
            }
            _ => {}
        }
        c
    }

    /// Route node effects out to the network and bookkeeping.
    fn route_effects(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        fx: NodeEffects<Replicated<A>>,
    ) {
        let now = ctx.now;
        for ev in &fx.events {
            self.events.push((now, *ev));
        }
        for m in fx.messages {
            self.cpu.charge(now, self.msg_send_cost(&m.payload));
            ctx.send(
                self.peer_base + m.to,
                m.channel,
                ClusterMsg::Raft(m.payload),
            );
        }
        for applied in fx.applied {
            self.cpu.charge(now, self.cost.per_apply);
            if let Some(p) = self.pending.remove(applied.index) {
                let result = if p.term == applied.term {
                    if p.is_read && applied.response.is_some() {
                        self.reads_served.log += 1;
                    }
                    applied.response
                } else {
                    None // our proposal was displaced by another leader's entry
                };
                ctx.send(
                    p.client,
                    Channel::Tcp,
                    ClusterMsg::ClientResp {
                        req_id: p.req_id,
                        result,
                    },
                );
            }
        }
        // Log-free read grants: answer local reads from our state machine,
        // relay forwarded grants back to their followers.
        for grant in fx.reads {
            match self.read_origins.remove(grant.id) {
                Some(ReadOrigin::Local {
                    client,
                    req_id,
                    cmd,
                }) => {
                    // Execution cost was charged at admission (per_read).
                    // The grant was apply-gated, so the state machine
                    // covers read_index; reply-cache invariant: the read
                    // executes fresh, never from (or into) sessions.
                    let result = self.node.state_machine().read(&cmd);
                    debug_assert!(result.is_some(), "grants are only taken for reads");
                    match grant.path {
                        ReadPath::Lease => self.reads_served.lease += 1,
                        ReadPath::ReadIndex => self.reads_served.read_index += 1,
                    }
                    ctx.send(
                        client,
                        Channel::Tcp,
                        ClusterMsg::ClientResp { req_id, result },
                    );
                }
                Some(ReadOrigin::Remote { follower, read_id }) => {
                    self.cpu.charge(now, self.cost.per_message_send);
                    ctx.send(
                        follower,
                        Channel::Tcp,
                        ClusterMsg::ReadIndexResp {
                            read_id,
                            read_index: Some(grant.read_index),
                        },
                    );
                }
                None => {} // origin dropped by a crash-restart
            }
        }
        // Reads whose leader gave up on them (leadership lost before the
        // grant): clients get a redirect, followers a denial to relay.
        for id in fx.aborted_reads {
            if let Some(origin) = self.read_origins.remove(id) {
                self.deny_read_origin(ctx, origin);
            }
        }
        // Forwarded reads whose grant arrived earlier than our apply index:
        // serve every one the state machine now covers.
        self.drain_follower_wait(ctx);
        // If leadership was lost, fail whatever is still pending. The entry
        // may still commit under the new leader; the client's retry of the
        // same req_id is deduplicated by the app's replicated reply cache,
        // so reporting failure here cannot cause a duplicate apply.
        if self.node.role() != Role::Leader {
            for p in self.pending.drain() {
                ctx.send(
                    p.client,
                    Channel::Tcp,
                    ClusterMsg::ClientResp {
                        req_id: p.req_id,
                        result: None,
                    },
                );
            }
        }
        // Opportunistic log compaction keeps memory bounded. Not pinned by
        // slow followers: anyone behind the horizon is caught up by an
        // InstallSnapshot stream, so only the policy's tail of slack is
        // retained for cheap append-based catch-up.
        if self.node.log().len() > self.compaction.threshold {
            let upto = self
                .node
                .safe_compact_index()
                .saturating_sub(self.compaction.tail);
            self.node.compact_log(upto);
        }
    }

    /// Propose (or, for reads under a log-free strategy, register) admitted
    /// requests whose CPU-queue delay has elapsed.
    fn drain_admitted(&mut self, ctx: &mut HostCtx<'_, ClusterMsg<A>>) {
        let now = ctx.now;
        while let Some(front) = self.admit.front() {
            if front.ready_at > now {
                break;
            }
            let Some(req) = self.admit.pop_front() else {
                break; // unreachable: front() above was Some
            };
            if self.read_strategy.log_free() && A::is_read(&req.cmd) {
                self.start_read(ctx, req.client, req.req_id, req.cmd);
                continue;
            }
            let is_read = A::is_read(&req.cmd);
            let request = Request::from_client(req.client as u64, req.req_id, req.cmd);
            let (result, fx) = self.node.propose(now, request);
            match result {
                Ok((term, index)) => {
                    self.pending.insert(
                        index,
                        PendingReq {
                            term,
                            client: req.client,
                            req_id: req.req_id,
                            is_read,
                        },
                    );
                }
                Err(not_leader) => {
                    ctx.send(
                        req.client,
                        Channel::Tcp,
                        ClusterMsg::ClientRedirect {
                            req_id: req.req_id,
                            // The node's hint is group-local; clients
                            // address hosts, so translate it.
                            hint: not_leader.hint.map(|h| h + self.peer_base),
                        },
                    );
                }
            }
            self.route_effects(ctx, fx);
        }
    }

    /// Route one read around the log: leaders register it with the Raft
    /// node (lease or ReadIndex grant), followers forward a ReadIndex
    /// request and answer locally once their apply index catches up.
    fn start_read(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        client: NodeId,
        req_id: u64,
        cmd: A::Command,
    ) {
        if self.node.role() == Role::Leader {
            self.register_read(
                ctx,
                ReadOrigin::Local {
                    client,
                    req_id,
                    cmd,
                },
                true,
            );
            return;
        }
        if self.node.leader_id().is_some() {
            self.next_fwd_id += 1;
            let read_id = self.next_fwd_id;
            self.forwarded.insert(read_id, (client, req_id, cmd));
            self.fwd_pending.push(read_id);
            self.flush_forwarded(ctx);
            return;
        }
        self.deny_read_origin(
            ctx,
            ReadOrigin::Local {
                client,
                req_id,
                cmd,
            },
        );
    }

    /// Register one read with the Raft node under a fresh grant token
    /// (local reads wait for this node's apply; remote grants are relayed
    /// raw), unwinding with the origin-appropriate denial when leadership
    /// was lost between the caller's role check and registration.
    fn register_read(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        origin: ReadOrigin<A>,
        wait_apply: bool,
    ) {
        self.next_read_token += 1;
        let token = self.next_read_token;
        self.read_origins.insert(token, origin);
        let (result, fx) = self.node.request_read(ctx.now, token, wait_apply);
        if result.is_err() {
            if let Some(origin) = self.read_origins.remove(token) {
                self.deny_read_origin(ctx, origin);
            }
        }
        self.route_effects(ctx, fx);
    }

    /// Deny a read we cannot serve (no leader known, leadership lost
    /// before the grant): local clients get a redirect with our best
    /// leader hint, forwarding followers a `ReadIndexResp` denial to
    /// relay. The single place the denial semantics live.
    fn deny_read_origin(&mut self, ctx: &mut HostCtx<'_, ClusterMsg<A>>, origin: ReadOrigin<A>) {
        match origin {
            ReadOrigin::Local { client, req_id, .. } => {
                ctx.send(
                    client,
                    Channel::Tcp,
                    ClusterMsg::ClientRedirect {
                        req_id,
                        hint: self.node.leader_id().map(|h| h + self.peer_base),
                    },
                );
            }
            ReadOrigin::Remote { follower, read_id } => {
                ctx.send(
                    follower,
                    Channel::Tcp,
                    ClusterMsg::ReadIndexResp {
                        read_id,
                        read_index: None,
                    },
                );
            }
        }
    }

    /// Send (at most) one `ReadIndexReq` covering every pending forwarded
    /// read. One wave flies at a time; reads arriving meanwhile queue
    /// behind it and ride the next wave — the Nagle-style batching that
    /// amortizes the leader's per-message cost over whole batches of
    /// follower reads (a wave must not cover reads admitted *after* it was
    /// sent: the leader's registration could predate them, and serving
    /// them at its read index could miss a write that completed in
    /// between). A wave unanswered for [`FWD_WAVE_RESEND`] (lost message,
    /// dead leader) is merged back and re-sent.
    fn flush_forwarded(&mut self, ctx: &mut HostCtx<'_, ClusterMsg<A>>) {
        let now = ctx.now;
        let stale = self
            .fwd_inflight
            .take_if(|w| now >= w.sent_at + FWD_WAVE_RESEND);
        if let Some(stale) = stale {
            self.fwd_pending.extend(stale.ids);
        } else if self.fwd_inflight.is_some() {
            return; // a fresh wave is still in flight
        }
        if self.fwd_pending.is_empty() {
            return;
        }
        let Some(leader) = self.node.leader_id() else {
            return; // re-flushed on the next admission once a leader is known
        };
        self.next_fwd_wave += 1;
        let wave_id = self.next_fwd_wave;
        let ids = std::mem::take(&mut self.fwd_pending);
        self.cpu.charge(now, self.cost.per_message_send);
        ctx.send(
            self.peer_base + leader,
            Channel::Tcp,
            ClusterMsg::ReadIndexReq { read_id: wave_id },
        );
        self.fwd_inflight = Some(FwdWave {
            wave_id,
            ids,
            sent_at: now,
        });
    }

    /// Answer a forwarded read from the local state machine (the grant's
    /// read index is known to be applied).
    fn serve_follower_read(&mut self, ctx: &mut HostCtx<'_, ClusterMsg<A>>, read_id: u64) {
        let Some((client, req_id, cmd)) = self.forwarded.remove(read_id) else {
            return; // superseded by a crash-restart
        };
        // Reply-cache invariant holds here too: forwarded reads execute
        // fresh against the follower's applied state.
        let result = self.node.state_machine().read(&cmd);
        self.reads_served.follower += 1;
        ctx.send(
            client,
            Channel::Tcp,
            ClusterMsg::ClientResp { req_id, result },
        );
    }

    /// Serve every granted forwarded read the apply index now covers.
    fn drain_follower_wait(&mut self, ctx: &mut HostCtx<'_, ClusterMsg<A>>) {
        let applied = self.node.last_applied();
        while let Some((&idx, _)) = self.follower_wait.iter().next() {
            if idx > applied {
                break;
            }
            let Some(ids) = self.follower_wait.remove(&idx) else {
                break; // unreachable: `idx` was just read from the map
            };
            for id in ids {
                self.serve_follower_read(ctx, id);
            }
        }
    }

    /// Deliver a message to this server.
    pub fn handle_message(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        from: NodeId,
        msg: ClusterMsg<A>,
    ) {
        match msg {
            ClusterMsg::Raft(payload) => {
                self.cpu.charge(ctx.now, self.msg_recv_cost(&payload));
                let fx = self.node.step(ctx.now, from - self.peer_base, payload);
                self.route_effects(ctx, fx);
                self.drain_admitted(ctx);
            }
            ClusterMsg::ClientReq { req_id, cmd } => {
                self.admit(ctx.now, from, req_id, cmd);
                self.drain_admitted(ctx);
            }
            ClusterMsg::ClientBatch { reqs } => {
                // Batching saves network round trips, not CPU: each item
                // pays its full admission cost.
                for (req_id, cmd) in reqs {
                    self.admit(ctx.now, from, req_id, cmd);
                }
                self.drain_admitted(ctx);
            }
            ClusterMsg::ReadIndexReq { read_id } => {
                self.cpu.charge(ctx.now, self.cost.per_message_recv);
                if self.node.role() == Role::Leader {
                    self.register_read(
                        ctx,
                        ReadOrigin::Remote {
                            follower: from,
                            read_id,
                        },
                        false,
                    );
                } else {
                    // Not the leader (any more): the follower redirects.
                    ctx.send(
                        from,
                        Channel::Tcp,
                        ClusterMsg::ReadIndexResp {
                            read_id,
                            read_index: None,
                        },
                    );
                }
            }
            ClusterMsg::ReadIndexResp {
                read_id,
                read_index,
            } => {
                self.cpu.charge(ctx.now, self.cost.per_message_recv);
                let wave = self.fwd_inflight.take_if(|w| w.wave_id == read_id);
                if let Some(wave) = wave {
                    match read_index {
                        Some(idx) => {
                            for id in wave.ids {
                                if self.node.last_applied() >= idx {
                                    self.serve_follower_read(ctx, id);
                                } else {
                                    self.follower_wait.entry(idx).or_default().push(id);
                                }
                            }
                        }
                        None => {
                            // The contacted server cannot confirm
                            // leadership: every covered read redirects.
                            for id in wave.ids {
                                if let Some((client, req_id, _)) = self.forwarded.remove(id) {
                                    ctx.send(
                                        client,
                                        Channel::Tcp,
                                        ClusterMsg::ClientRedirect {
                                            req_id,
                                            hint: self.node.leader_id().map(|h| h + self.peer_base),
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                // A resolved (or stale) wave unblocks the next one.
                self.flush_forwarded(ctx);
            }
            // Servers never receive client-bound messages.
            ClusterMsg::ClientResp { .. } | ClusterMsg::ClientRedirect { .. } => {}
        }
    }

    /// CPU cost of admitting one client command: log-free reads cost
    /// heartbeat-weight work (`per_read`), everything else the full
    /// propose-path `per_request` (+ the tuning tax).
    fn admission_cost(&self, cmd: &A::Command) -> Duration {
        let mut cost = if self.read_strategy.log_free() && A::is_read(cmd) {
            self.cost.per_read
        } else {
            self.cost.per_request
        };
        if self.tunes {
            cost += self.cost.tuning_per_request;
        }
        cost
    }

    /// Charge one client command's admission cost and queue it until the
    /// CPU has worked that off.
    fn admit(&mut self, now: SimTime, from: NodeId, req_id: u64, cmd: A::Command) {
        let ready_at = self.cpu.charge(now, self.admission_cost(&cmd));
        self.admit.push_back(AdmittedReq {
            ready_at,
            client: from,
            req_id,
            cmd,
        });
    }

    /// Propose every queued configuration change. Non-leaders cannot
    /// propose; their queued changes are dropped (and counted) so a stale
    /// enqueue against a deposed leader cannot linger forever.
    fn drain_conf(&mut self, ctx: &mut HostCtx<'_, ClusterMsg<A>>) {
        while let Some(change) = self.pending_conf.pop_front() {
            if self.node.role() != Role::Leader {
                self.conf_rejections += 1;
                continue;
            }
            self.cpu.charge(ctx.now, self.cost.per_request);
            let (result, fx) = self.node.propose_conf_change(ctx.now, change);
            if result.is_err() {
                self.conf_rejections += 1;
            }
            self.route_effects(ctx, fx);
        }
    }

    /// Timer wake-up.
    pub fn handle_wake(&mut self, ctx: &mut HostCtx<'_, ClusterMsg<A>>) {
        self.cpu.charge(ctx.now, self.cost.per_timer_wake);
        self.drain_conf(ctx);
        self.drain_admitted(ctx);
        self.flush_forwarded(ctx); // wave resend on silence
        let fx = self.node.tick(ctx.now);
        self.route_effects(ctx, fx);
    }

    /// Earliest instant this server needs a wake-up.
    #[must_use]
    pub fn wake_deadline(&self) -> Option<SimTime> {
        // A queued conf change wants an immediate wake (the kernel clamps
        // past deadlines to `now`); `handle_wake` fully drains the queue,
        // so this cannot spin.
        let conf_wake = (!self.pending_conf.is_empty()).then_some(SimTime::ZERO);
        let node_wake = self.node.next_wake();
        let admit_wake = self.admit.front().map(|a| a.ready_at);
        let wave_wake = self
            .fwd_inflight
            .as_ref()
            .map(|w| w.sent_at + FWD_WAVE_RESEND);
        [conf_wake, node_wake, admit_wake, wave_wake]
            .into_iter()
            .flatten()
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynatune_core::TuningConfig;
    use dynatune_kv::KvCommand;

    // ServerHost is exercised end-to-end through ClusterSim (sim.rs tests
    // and the integration suite); here we test the pieces that don't need a
    // network.

    fn server() -> ServerHost {
        ServerHost::new(
            RaftConfig::new(0, 1, TuningConfig::raft_default()),
            CostModel::free(),
            2,
        )
    }

    #[test]
    fn single_node_server_elects_itself_and_serves() {
        let mut s = server();
        let mut outbox = Vec::new();
        // Let its election timer fire: single-node cluster becomes leader.
        let deadline = s.wake_deadline().unwrap();
        let mut ctx = HostCtx::test_ctx(deadline, 0, &mut outbox);
        s.handle_wake(&mut ctx);
        assert_eq!(s.node().role(), Role::Leader);
        // A client request commits immediately.
        let mut ctx = HostCtx::test_ctx(deadline + Duration::from_millis(1), 0, &mut outbox);
        s.handle_message(
            &mut ctx,
            7,
            ClusterMsg::ClientReq {
                req_id: 42,
                cmd: KvCommand::Put {
                    key: bytes::Bytes::from_static(b"k"),
                    value: bytes::Bytes::from_static(b"v"),
                },
            },
        );
        let resp = outbox
            .iter()
            .find(|(to, _, m)| *to == 7 && matches!(m, ClusterMsg::ClientResp { .. }));
        assert!(resp.is_some(), "client got a response: {outbox:?}");
    }

    #[test]
    fn events_are_recorded_with_timestamps() {
        let mut s = server();
        let mut outbox = Vec::new();
        let deadline = s.wake_deadline().unwrap();
        let mut ctx = HostCtx::test_ctx(deadline, 0, &mut outbox);
        s.handle_wake(&mut ctx);
        assert!(!s.events().is_empty());
        assert!(s
            .events()
            .iter()
            .any(|(_, e)| matches!(e, RaftEvent::BecameLeader { .. })));
        assert!(s.events().iter().all(|(t, _)| *t == deadline));
    }

    #[test]
    fn client_retry_of_same_req_id_applies_once() {
        let mut s = server();
        let mut outbox = Vec::new();
        let deadline = s.wake_deadline().unwrap();
        let mut ctx = HostCtx::test_ctx(deadline, 0, &mut outbox);
        s.handle_wake(&mut ctx);
        assert_eq!(s.node().role(), Role::Leader);
        let req = ClusterMsg::ClientReq {
            req_id: 42,
            cmd: KvCommand::Put {
                key: bytes::Bytes::from_static(b"k"),
                value: bytes::Bytes::from_static(b"v"),
            },
        };
        let t1 = deadline + Duration::from_millis(1);
        let mut ctx = HostCtx::test_ctx(t1, 0, &mut outbox);
        s.handle_message(&mut ctx, 7, req.clone());
        // The client timed out (response lost) and retried the SAME req_id:
        // the proposal commits a second entry, but the replicated reply
        // cache recognises the duplicate at apply time.
        let t2 = deadline + Duration::from_millis(2);
        let mut ctx = HostCtx::test_ctx(t2, 0, &mut outbox);
        s.handle_message(&mut ctx, 7, req);
        let responses: Vec<_> = outbox
            .iter()
            .filter_map(|(to, _, m)| match m {
                ClusterMsg::ClientResp { req_id: 42, result } if *to == 7 => Some(result.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(responses.len(), 2, "both attempts are answered");
        assert_eq!(responses[0], responses[1], "retry sees the same response");
        let v = s.node().state_machine().peek(b"k").expect("key written");
        assert_eq!(v.version, 1, "the write applied exactly once");
    }

    #[test]
    fn crash_restart_clears_volatile_state() {
        let mut s = server();
        let mut outbox = Vec::new();
        let deadline = s.wake_deadline().unwrap();
        let mut ctx = HostCtx::test_ctx(deadline, 0, &mut outbox);
        s.handle_wake(&mut ctx);
        let term_before = s.node().term();
        s.crash_restart(deadline + Duration::from_secs(1));
        assert_eq!(s.node().role(), Role::Follower);
        assert_eq!(s.node().term(), term_before, "term is persistent");
        assert!(s.node().state_machine().is_empty());
    }
}
