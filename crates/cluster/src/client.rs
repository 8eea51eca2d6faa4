//! The open-loop KV benchmark client (§IV-B2 methodology) and the
//! leader-routing table it shares with the broker client.
//!
//! There is one KV client, [`ClientHost`]: it hash-routes every command to
//! its owning Raft group and tracks one placement row and one leader guess
//! per shard in a `RoutingTable`, so a single group is simply the one-row
//! case. Redirects and timeout retries stay strictly inside the owning
//! row — a request must never leave its shard, the data is only there.
//! Outcomes are reported two ways at once: bucketed per offered-load step
//! ([`StepRecord`]) and cumulatively per shard ([`ShardStats`], which
//! experiments snapshot at two instants and difference for a windowed
//! throughput).

use crate::msg::ClusterMsg;
use crate::sim::Client;
use bytes::Bytes;
use dynatune_kv::{
    App, KvCommand, KvResponse, KvStore, ShardId, ShardMap, ShardRouter, WorkloadGen,
};
use dynatune_raft::NodeId;
use dynatune_simnet::{Channel, HostCtx, SimTime};
use dynatune_stats::{Histogram, OnlineStats};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Maximum redirect/timeout-driven retries per request.
const MAX_RETRIES: u8 = 3;

/// The client-side batching window of a sharded KV cluster and of the
/// broker's producers: arrivals within this span of the first pending
/// arrival ride the same per-shard batch. Small against the 100 ms server
/// RTT (at most a ~2 ms latency tax) but wide enough to coalesce under
/// load, where inter-arrival gaps shrink below it.
pub const DEFAULT_BATCH_WINDOW: Duration = Duration::from_millis(2);

/// The genesis placement rows of `map`: every shard's mapped replicas, in
/// replica order, no spares.
pub(crate) fn genesis_rows(map: ShardMap) -> Vec<Vec<NodeId>> {
    (0..map.shards())
        .map(|shard| map.servers_of(shard).collect())
        .collect()
}

/// Where each shard's requests go: the placement row (global host ids) and
/// the current leader guess per shard, plus the three routing rules every
/// client follows — rotate to the next replica *in the row*, adopt a
/// redirect hint only when it names a host *in the row*, and rotate a
/// shard's guess at most once per expiry wave.
///
/// Rows are seeded from the genesis placement but **dynamic**:
/// [`RoutingTable::repoint`] rewrites a row when the rebalancer moves a
/// replica, so no rule may assume the contiguous genesis universe.
#[derive(Debug)]
pub(crate) struct RoutingTable {
    rows: Vec<Vec<NodeId>>,
    guess: Vec<NodeId>,
    /// Current expiry wave; bumped by [`RoutingTable::begin_wave`].
    wave: u64,
    /// The wave in which each shard's guess last rotated (waves start at
    /// 1, so the initial 0 never matches).
    rotated_in: Vec<u64>,
}

impl RoutingTable {
    /// A table over `rows`; each shard's initial guess is its replica 0.
    pub(crate) fn new(rows: Vec<Vec<NodeId>>) -> Self {
        Self {
            guess: rows.iter().map(|row| row[0]).collect(),
            rotated_in: vec![0; rows.len()],
            wave: 0,
            rows,
        }
    }

    /// Current placement row of one shard.
    pub(crate) fn row(&self, shard: ShardId) -> &[NodeId] {
        &self.rows[shard]
    }

    /// Current leader guess of one shard.
    pub(crate) fn guess(&self, shard: ShardId) -> NodeId {
        self.guess[shard]
    }

    pub(crate) fn set_guess(&mut self, shard: ShardId, target: NodeId) {
        self.guess[shard] = target;
    }

    /// The replica after `current` in the shard's row, wrapping. A
    /// `current` no longer in the row (just repointed away) restarts at
    /// the row's first replica.
    pub(crate) fn next_after(&self, shard: ShardId, current: NodeId) -> NodeId {
        let row = &self.rows[shard];
        match row.iter().position(|&r| r == current) {
            Some(i) => row[(i + 1) % row.len()],
            None => row[0],
        }
    }

    /// Where a redirected request goes next: the hinted host when it is in
    /// the shard's row (hints are global host ids and may name a spare the
    /// rebalancer admitted, never a host of a foreign group), otherwise
    /// the replica after `current`.
    pub(crate) fn hint_or_next(
        &self,
        shard: ShardId,
        hint: Option<NodeId>,
        current: NodeId,
    ) -> NodeId {
        match hint {
            Some(h) if self.rows[shard].contains(&h) => h,
            _ => self.next_after(shard, current),
        }
    }

    /// Start an expiry wave: every shard may rotate once more.
    pub(crate) fn begin_wave(&mut self) {
        self.wave += 1;
    }

    /// Rotate the shard's guess unless it already rotated in this wave —
    /// a burst of expiries must not spray across the row, and several
    /// requests of one shard must not skip past the actual leader together.
    pub(crate) fn rotate_once_per_wave(&mut self, shard: ShardId) {
        if self.rotated_in[shard] != self.wave {
            self.rotated_in[shard] = self.wave;
            self.guess[shard] = self.next_after(shard, self.guess[shard]);
        }
    }

    /// Rewrite the placement row of `shard`: replica `from` is replaced by
    /// `to` (the rebalancer's cut-over). A leader guess pointing at `from`
    /// moves to `to`; requests already sent to `from` resolve through the
    /// ordinary redirect/timeout paths.
    pub(crate) fn repoint(&mut self, shard: ShardId, from: NodeId, to: NodeId) {
        for slot in &mut self.rows[shard] {
            if *slot == from {
                *slot = to;
            }
        }
        if self.guess[shard] == from {
            self.guess[shard] = to;
        }
    }
}

/// One completed operation in the client's linearizability trace:
/// invocation/response instants plus the revision the operation observed
/// (reads: the value's `mod_revision`, 0 for a miss) or produced (puts:
/// the write's own revision). The stale-read checker
/// ([`stale_read_violations`](crate::observers::stale_read_violations))
/// compares these against real-time order per key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The key the operation touched.
    pub key: Bytes,
    /// True for writes (`Put`), false for reads (`Get`).
    pub write: bool,
    /// First send instant (retries keep it — it is the invocation time).
    pub invoked: SimTime,
    /// Response arrival instant.
    pub completed: SimTime,
    /// Observed / produced revision.
    pub revision: u64,
}

/// Outcome aggregation for one offered-load level.
#[derive(Debug, Clone, Default)]
pub struct StepRecord {
    /// Offered rate of the step (req/s).
    pub offered_rps: f64,
    /// Duration of the step in seconds.
    pub hold_secs: f64,
    /// Requests sent during the step.
    pub sent: u64,
    /// Requests completed successfully (whenever the response arrived).
    pub completed: u64,
    /// Requests that failed (leadership change, retry exhausted).
    pub failed: u64,
    /// Latency of completed requests in milliseconds.
    pub latency_ms: OnlineStats,
}

impl StepRecord {
    /// Completed throughput in req/s, attributing completions to the step
    /// in which their request was sent.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.hold_secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.hold_secs
        }
    }
}

/// Cumulative per-shard outcome counters.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Requests routed to this shard.
    pub sent: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed (leadership change, retries exhausted).
    pub failed: u64,
    /// Batch messages sent to this shard's group.
    pub batches: u64,
    /// Latency of completed requests in milliseconds.
    pub latency_ms: OnlineStats,
}

#[derive(Debug, Clone)]
struct Outstanding {
    sent_at: SimTime,
    send_step: usize,
    shard: ShardId,
    retries: u8,
    cmd: KvCommand,
}

/// An open-loop client: sends according to the workload schedule regardless
/// of completions, routes each command to its owning shard, follows leader
/// redirects, records per-step and per-shard outcomes.
///
/// Step completions are bucketed by *completion* time, matching how an
/// open-loop benchmark measures throughput per offered-load level: work
/// that spills past a level's window must not be credited to it, otherwise
/// a saturated server that eventually drains its backlog would appear to
/// keep up.
pub struct ClientHost {
    workload: WorkloadGen,
    router: ShardRouter,
    routes: RoutingTable,
    next_req_id: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    steps: Vec<StepRecord>,
    /// End instant of each step's window.
    step_ends: Vec<SimTime>,
    stats: Vec<ShardStats>,
    /// Per-shard latency histogram (µs) since the last
    /// [`ClientHost::take_latency_window`] — windowed tail-latency
    /// measurements for before/after comparisons the cumulative
    /// [`ShardStats`] moments cannot express.
    window_hist: Vec<Histogram>,
    /// Per-request response timeout; expired requests retry on the next
    /// replica of the owning row. `None` disables timeouts.
    request_timeout: Option<Duration>,
    /// FIFO of `(deadline, req_id)` for timeout checks (constant timeout ⇒
    /// deadlines are naturally ordered).
    timeout_queue: VecDeque<(SimTime, u64)>,
    /// Spread reads round-robin over the owning shard's row instead of
    /// sending them to the leader guess (follower-read offload). Reads
    /// then travel as single requests; writes always chase the leader.
    read_fanout: bool,
    /// Per-shard round-robin cursor for `read_fanout`.
    read_rr: Vec<usize>,
    /// Record completed `Get`/`Put` operations for linearizability checks.
    record_trace: bool,
    /// The recorded trace (empty unless `record_trace`).
    trace: Vec<OpRecord>,
    /// `Some(w)`: coalesce arrivals into one `ClientBatch` per shard every
    /// `w`; `None`: send each arrival as a `ClientReq` the moment it is due.
    batch_window: Option<Duration>,
    /// Pending batch buffers, one per shard, flushed together at
    /// `flush_at`.
    batch_scratch: Vec<Vec<(u64, KvCommand)>>,
    /// Flush deadline: first pending arrival's nominal time plus the batch
    /// window (`None` when nothing is pending). Anchoring on the arrival
    /// time, not the wake time, keeps a late wake from deferring overdue
    /// work another window.
    flush_at: Option<SimTime>,
}

impl ClientHost {
    /// Create a client over the placement `rows` (one per shard, global
    /// host ids; each shard's initial leader guess is its replica 0). The
    /// workload's schedule starts at `start`; `batch_window` selects
    /// per-shard batching or sending singles at arrival.
    #[must_use]
    pub fn new(
        workload: WorkloadGen,
        rows: Vec<Vec<NodeId>>,
        batch_window: Option<Duration>,
        start: SimTime,
    ) -> Self {
        let mut end = start;
        let (steps, step_ends) = workload
            .steps()
            .iter()
            .map(|s| {
                end += s.hold;
                let record = StepRecord {
                    offered_rps: s.rps,
                    hold_secs: s.hold.as_secs_f64(),
                    ..StepRecord::default()
                };
                (record, end)
            })
            .unzip();
        let shards = rows.len();
        Self {
            workload,
            router: ShardRouter::new(shards),
            routes: RoutingTable::new(rows),
            next_req_id: 0,
            outstanding: BTreeMap::new(),
            steps,
            step_ends,
            stats: vec![ShardStats::default(); shards],
            window_hist: vec![Histogram::new(); shards],
            request_timeout: Some(Duration::from_secs(1)),
            timeout_queue: VecDeque::new(),
            read_fanout: false,
            read_rr: vec![0; shards],
            record_trace: false,
            trace: Vec::new(),
            batch_window,
            batch_scratch: vec![Vec::new(); shards],
            flush_at: None,
        }
    }

    /// Override (or disable) the per-request response timeout.
    #[must_use]
    pub fn with_request_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Spread reads round-robin across every replica of the owning shard
    /// (writes still chase the leader). Pointless under
    /// [`ReadStrategy::Log`] (non-leaders redirect) — pair with follower
    /// reads.
    ///
    /// [`ReadStrategy::Log`]: crate::server::ReadStrategy::Log
    #[must_use]
    pub fn with_read_fanout(mut self, fanout: bool) -> Self {
        self.read_fanout = fanout;
        self
    }

    /// Record completed `Get`/`Put` operations for linearizability checks.
    #[must_use]
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// The recorded operation trace (empty unless tracing was enabled).
    #[must_use]
    pub fn trace(&self) -> &[OpRecord] {
        &self.trace
    }

    /// Per-step results (valid after the run).
    #[must_use]
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Per-shard cumulative counters.
    #[must_use]
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Rewrite the placement row of `shard`: replica `from` is replaced by
    /// `to` (the rebalancer's cut-over), so routing, redirect validation
    /// and read fan-out follow the data.
    pub fn repoint(&mut self, shard: ShardId, from: NodeId, to: NodeId) {
        self.routes.repoint(shard, from, to);
    }

    /// Current placement row of one shard (observers / tests).
    #[must_use]
    pub fn placement_of(&self, shard: ShardId) -> &[NodeId] {
        self.routes.row(shard)
    }

    /// Take (and reset) the latency histogram one shard accumulated since
    /// the previous take: completed-request latencies in microseconds.
    /// Call once to discard warm-up, again after a window of interest.
    pub fn take_latency_window(&mut self, shard: ShardId) -> Histogram {
        std::mem::take(&mut self.window_hist[shard])
    }

    /// The step whose window covers `now`, if any.
    fn step_of(&self, now: SimTime) -> Option<usize> {
        let idx = self.step_ends.partition_point(|&end| end <= now);
        (idx < self.step_ends.len()).then_some(idx)
    }

    fn arm_timeout(&mut self, now: SimTime, req_id: u64) {
        if let Some(t) = self.request_timeout {
            self.timeout_queue.push_back((now + t, req_id));
        }
    }

    /// A request failed or ran out of retries: drop it and charge the
    /// failure to the step it was sent in and to its shard.
    fn abandon(&mut self, req_id: u64) {
        if let Some(o) = self.outstanding.remove(&req_id) {
            self.steps[o.send_step].failed += 1;
            self.stats[o.shard].failed += 1;
        }
    }

    /// Retry (or abandon) requests whose responses are overdue. A paused
    /// leader never answers, so without this a client would keep feeding a
    /// dead node for the entire outage.
    fn expire_timeouts(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>) {
        // The silent server may be dead: each shard's guess rotates, once
        // for the whole wave.
        self.routes.begin_wave();
        while let Some(&(deadline, req_id)) = self.timeout_queue.front() {
            if deadline > ctx.now {
                break;
            }
            self.timeout_queue.pop_front();
            let Some(o) = self.outstanding.get_mut(&req_id) else {
                continue; // already answered
            };
            if o.retries >= MAX_RETRIES {
                self.abandon(req_id);
                continue;
            }
            o.retries += 1;
            let shard = o.shard;
            let cmd = o.cmd.clone();
            self.routes.rotate_once_per_wave(shard);
            let target = self.routes.guess(shard);
            ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
            self.arm_timeout(ctx.now, req_id);
        }
    }
}

impl Client<KvStore> for ClientHost {
    /// Send every arrival whose time has come — as singles, or coalesced
    /// into one batch per shard — and expire overdue requests.
    fn handle_wake(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>) {
        self.expire_timeouts(ctx);
        while let Some(at) = self.workload.peek_next() {
            if at > ctx.now {
                break;
            }
            let step = self.workload.step_index();
            let Some((_, cmd)) = self.workload.next_request() else {
                break;
            };
            let shard = self.router.shard_of_command(&cmd);
            let req_id = self.next_req_id;
            self.next_req_id += 1;
            self.outstanding.insert(
                req_id,
                Outstanding {
                    sent_at: ctx.now,
                    send_step: step,
                    shard,
                    retries: 0,
                    cmd: cmd.clone(),
                },
            );
            self.steps[step].sent += 1;
            self.stats[shard].sent += 1;
            self.arm_timeout(ctx.now, req_id);
            let fanned = self.read_fanout && KvStore::is_read(&cmd);
            match self.batch_window {
                Some(window) if !fanned => {
                    self.flush_at.get_or_insert(at + window);
                    self.batch_scratch[shard].push((req_id, cmd));
                }
                _ => {
                    let target = if fanned {
                        let row = self.routes.row(shard);
                        self.read_rr[shard] = (self.read_rr[shard] + 1) % row.len();
                        row[self.read_rr[shard]]
                    } else {
                        self.routes.guess(shard)
                    };
                    ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
                }
            }
        }
        if self.flush_at.is_some_and(|t| t <= ctx.now) {
            self.flush_at = None;
            for shard in 0..self.batch_scratch.len() {
                if self.batch_scratch[shard].is_empty() {
                    continue;
                }
                let reqs = std::mem::take(&mut self.batch_scratch[shard]);
                self.stats[shard].batches += 1;
                ctx.send(
                    self.routes.guess(shard),
                    Channel::Tcp,
                    ClusterMsg::ClientBatch { reqs },
                );
            }
        }
    }

    /// Process a server response.
    fn handle_message(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg>,
        _from: NodeId,
        msg: ClusterMsg,
    ) {
        match msg {
            // The server failed the request (leadership change mid-flight).
            ClusterMsg::ClientResp {
                req_id,
                result: None,
            } => self.abandon(req_id),
            ClusterMsg::ClientResp {
                req_id,
                result: Some(resp),
            } => {
                let Some(o) = self.outstanding.remove(&req_id) else {
                    return;
                };
                if self.record_trace {
                    self.trace
                        .extend(op_record(&o.cmd, &resp, o.sent_at, ctx.now));
                }
                let elapsed = ctx.now - o.sent_at;
                let ms = elapsed.as_secs_f64() * 1e3;
                // Steps bucket by completion time; spill-over past the
                // last window belongs to no step.
                if let Some(step) = self.step_of(ctx.now) {
                    let rec = &mut self.steps[step];
                    rec.completed += 1;
                    rec.latency_ms.push(ms);
                }
                let rec = &mut self.stats[o.shard];
                rec.completed += 1;
                rec.latency_ms.push(ms);
                self.window_hist[o.shard].record(elapsed.as_micros() as u64);
            }
            ClusterMsg::ClientRedirect { req_id, hint, cmd } => {
                let Some(o) = self.outstanding.get_mut(&req_id) else {
                    return;
                };
                let shard = o.shard;
                let exhausted = o.retries >= MAX_RETRIES;
                if !exhausted {
                    o.retries += 1;
                }
                // Adopt an in-row hint, or probe the next replica when
                // there is none.
                let target = self
                    .routes
                    .hint_or_next(shard, hint, self.routes.guess(shard));
                self.routes.set_guess(shard, target);
                if exhausted {
                    self.abandon(req_id);
                    return;
                }
                ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
                self.arm_timeout(ctx.now, req_id);
            }
            // Clients ignore protocol traffic.
            _ => {}
        }
    }

    /// Next workload arrival, batch flush or timeout check, whichever is
    /// sooner.
    fn wake_deadline(&self) -> Option<SimTime> {
        let arrival = self.workload.peek_next();
        let timeout = self.timeout_queue.front().map(|&(d, _)| d);
        [arrival, timeout, self.flush_at]
            .into_iter()
            .flatten()
            .min()
    }
}

/// Build a trace record for a completed operation; only `Get` and `Put`
/// participate in the linearizability check (they carry revisions —
/// which is also why checked workloads must be delete-free: an
/// unrecorded `Delete` would make a later legitimate miss look stale).
fn op_record(
    cmd: &KvCommand,
    resp: &KvResponse,
    invoked: SimTime,
    completed: SimTime,
) -> Option<OpRecord> {
    match (cmd, resp) {
        (KvCommand::Get { key }, KvResponse::Get { value }) => Some(OpRecord {
            key: key.clone(),
            write: false,
            invoked,
            completed,
            revision: value.as_ref().map_or(0, |v| v.mod_revision),
        }),
        (KvCommand::Put { key, .. }, KvResponse::Put { revision, .. }) => Some(OpRecord {
            key: key.clone(),
            write: true,
            invoked,
            completed,
            revision: *revision,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynatune_kv::{OpMix, RateStep};
    use dynatune_simnet::rng::Rng;

    type Outbox = Vec<(NodeId, Channel, ClusterMsg)>;

    /// One deployment shape the client serves; every routing test runs
    /// over all of [`SHAPES`].
    struct Shape {
        name: &'static str,
        shards: usize,
        replicas: usize,
        /// Spares of shard 0, included in its row (the `build_sim` shape).
        spares: usize,
        batched: bool,
    }

    const SHAPES: [Shape; 3] = [
        Shape {
            name: "1x3 unbatched",
            shards: 1,
            replicas: 3,
            spares: 0,
            batched: false,
        },
        Shape {
            name: "1x3 + 2 spares unbatched",
            shards: 1,
            replicas: 3,
            spares: 2,
            batched: false,
        },
        Shape {
            name: "2x3 batched",
            shards: 2,
            replicas: 3,
            spares: 0,
            batched: true,
        },
    ];

    impl Shape {
        fn rows(&self) -> Vec<Vec<NodeId>> {
            let map = ShardMap::new(self.shards, self.replicas);
            let mut rows = genesis_rows(map);
            rows[0].extend(map.n_servers()..map.n_servers() + self.spares);
            rows
        }

        fn client(&self, rps: f64) -> ClientHost {
            self.client_with(OpMix::write_heavy(), rps)
        }

        fn client_with(&self, mix: OpMix, rps: f64) -> ClientHost {
            let window = self.batched.then_some(DEFAULT_BATCH_WINDOW);
            host(self.rows(), window, mix, rps)
        }
    }

    fn host(rows: Vec<Vec<NodeId>>, window: Option<Duration>, mix: OpMix, rps: f64) -> ClientHost {
        let wl = WorkloadGen::new(
            vec![RateStep {
                rps,
                hold: Duration::from_secs(1),
            }],
            mix,
            1000,
            0.0,
            16,
            Rng::new(5),
            SimTime::ZERO,
        );
        ClientHost::new(wl, rows, window, SimTime::ZERO)
    }

    /// The sharded, batching client over the genesis placement.
    fn client(shards: usize, replicas: usize, rps: f64) -> ClientHost {
        let rows = genesis_rows(ShardMap::new(shards, replicas));
        host(rows, Some(DEFAULT_BATCH_WINDOW), OpMix::write_heavy(), rps)
    }

    fn rotate_guess(c: &mut ClientHost, shard: ShardId) {
        let next = c.routes.next_after(shard, c.routes.guess(shard));
        c.routes.set_guess(shard, next);
    }

    fn wake(c: &mut ClientHost, at_ms: u64) -> Outbox {
        wake_at(c, SimTime::from_millis(at_ms))
    }

    fn wake_at(c: &mut ClientHost, at: SimTime) -> Outbox {
        let mut out = Vec::new();
        c.handle_wake(&mut HostCtx::test_ctx(at, 0, &mut out));
        out
    }

    fn expire(c: &mut ClientHost, at_ms: u64) -> Outbox {
        let mut out = Vec::new();
        c.expire_timeouts(&mut HostCtx::test_ctx(
            SimTime::from_millis(at_ms),
            0,
            &mut out,
        ));
        out
    }

    fn deliver(c: &mut ClientHost, at_ms: u64, msg: ClusterMsg) -> Outbox {
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(at_ms), 0, &mut out);
        c.handle_message(&mut ctx, 0, msg);
        out
    }

    fn redirect(c: &mut ClientHost, at_ms: u64, req_id: u64, hint: Option<NodeId>) -> Outbox {
        let cmd = KvCommand::Get {
            key: Bytes::from_static(b"k"),
        };
        deliver(c, at_ms, ClusterMsg::ClientRedirect { req_id, hint, cmd })
    }

    /// Every request in an outbox as `(target, req_id)`, singles and batch
    /// items alike.
    fn requests(out: &Outbox) -> Vec<(NodeId, u64)> {
        let mut reqs = Vec::new();
        for (to, _, msg) in out {
            match msg {
                ClusterMsg::ClientReq { req_id, .. } => reqs.push((*to, *req_id)),
                ClusterMsg::ClientBatch { reqs: items } => {
                    reqs.extend(items.iter().map(|(req_id, _)| (*to, *req_id)));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        reqs
    }

    /// The shard whose row holds `host`.
    fn shard_of(c: &ClientHost, host: NodeId) -> ShardId {
        (0..c.shard_stats().len())
            .find(|&s| c.placement_of(s).contains(&host))
            .unwrap_or_else(|| panic!("host {host} is in no row"))
    }

    #[test]
    fn first_send_goes_to_replica_zero() {
        for shape in &SHAPES {
            let mut c = shape.client(400.0);
            // All arrivals in [0, 500ms) fire at once when woken late.
            let out = wake(&mut c, 500);
            let reqs = requests(&out);
            assert!(reqs.len() > 100, "{}: sent {}", shape.name, reqs.len());
            for (to, _) in &reqs {
                let shard = shard_of(&c, *to);
                assert_eq!(*to, c.placement_of(shard)[0], "{}", shape.name);
            }
            assert_eq!(c.outstanding.len(), reqs.len(), "{}", shape.name);
            assert_eq!(c.steps()[0].sent, reqs.len() as u64, "{}", shape.name);
            let per_shard: u64 = c.shard_stats().iter().map(|s| s.sent).sum();
            assert_eq!(per_shard, reqs.len() as u64, "{}", shape.name);
            if shape.batched {
                // At most one batch per shard, and the counter agrees.
                assert!(out.len() <= shape.shards, "{}", shape.name);
                let batches: u64 = c.shard_stats().iter().map(|s| s.batches).sum();
                assert_eq!(batches, out.len() as u64, "{}", shape.name);
            } else {
                assert_eq!(out.len(), reqs.len(), "{}: singles", shape.name);
            }
        }
    }

    #[test]
    fn completion_lands_in_its_step_and_its_shard() {
        for shape in &SHAPES {
            let mut c = shape.client(100.0);
            let out = wake(&mut c, 200);
            let (to, req_id) = requests(&out)[0];
            let shard = shard_of(&c, to);
            let result = Some(KvResponse::Put {
                prev: None,
                revision: 1,
            });
            deliver(&mut c, 250, ClusterMsg::ClientResp { req_id, result });
            assert_eq!(c.steps()[0].completed, 1, "{}", shape.name);
            let lat = c.steps()[0].latency_ms.mean();
            assert!(lat > 0.0 && lat <= 250.0, "{}: {lat}", shape.name);
            for (s, stats) in c.shard_stats().iter().enumerate() {
                assert_eq!(stats.completed, u64::from(s == shard), "{}", shape.name);
            }
            assert!(c.shard_stats()[shard].latency_ms.mean() > 0.0);
            assert_eq!(c.take_latency_window(shard).count(), 1, "{}", shape.name);
            assert_eq!(c.take_latency_window(shard).count(), 0, "take resets");
        }
    }

    #[test]
    fn redirect_adopts_in_row_hints_and_rejects_the_rest() {
        for shape in &SHAPES {
            let mut c = shape.client(100.0);
            let out = wake(&mut c, 200);
            let (to, req_id) = requests(&out)[0];
            let shard = shard_of(&c, to);
            let row = c.placement_of(shard).to_vec();
            // A valid in-row hint is adopted...
            let hint = *row.last().unwrap();
            let out2 = redirect(&mut c, 210, req_id, Some(hint));
            assert_eq!(requests(&out2), [(hint, req_id)], "{}", shape.name);
            // ...and subsequent requests of the shard follow the new guess.
            for (to, _) in requests(&wake(&mut c, 500)) {
                if shard_of(&c, to) == shard {
                    assert_eq!(to, hint, "{}", shape.name);
                }
            }
            // A hint outside the row — a foreign group's host, or no host
            // at all — is ignored: rotate within the row instead.
            let foreign = match shape.shards {
                1 => row.len() + 1,
                _ => c.placement_of(1 - shard)[0],
            };
            let out3 = redirect(&mut c, 520, req_id, Some(foreign));
            assert_eq!(requests(&out3), [(row[0], req_id)], "{}", shape.name);
        }
    }

    #[test]
    fn hintless_redirects_walk_the_row_in_order() {
        // The single-group shapes must visit spares exactly like the old
        // `(guess + 1) % n_servers`; the sharded shape must stay in-row.
        for shape in &SHAPES {
            let mut c = shape.client(400.0);
            let out = wake(&mut c, 200);
            let first_to = requests(&out)[0].0;
            let shard = shard_of(&c, first_to);
            let row = c.placement_of(shard).to_vec();
            // Two requests of one shard: each may retry MAX_RETRIES times.
            let ids: Vec<u64> = requests(&out)
                .into_iter()
                .filter(|(to, _)| shard_of(&c, *to) == shard)
                .map(|(_, id)| id)
                .take(2)
                .collect();
            let mut hops = 0;
            for req_id in ids {
                for _ in 0..MAX_RETRIES {
                    hops += 1;
                    let out = redirect(&mut c, 210 + hops, req_id, None);
                    let expect = row[hops as usize % row.len()];
                    assert_eq!(requests(&out), [(expect, req_id)], "{}", shape.name);
                }
            }
            assert!(hops as usize > row.len(), "{}: wrapped", shape.name);
        }
    }

    #[test]
    fn timeouts_rotate_once_per_shard_per_wave_then_fail() {
        for shape in &SHAPES {
            let mut c = shape
                .client(200.0)
                .with_request_timeout(Some(Duration::from_millis(100)));
            let sent = requests(&wake(&mut c, 100)).len();
            for stats in c.shard_stats() {
                assert!(stats.sent >= 2, "{}: a wave of several", shape.name);
            }
            // The next wake must include the timeout deadline (t=200ms).
            let deadline = c.wake_deadline().unwrap();
            assert!(deadline <= SimTime::from_millis(200), "{}", shape.name);
            // Nothing answers. Wave k resends every request of a shard as
            // a single to the k-th next replica of its row: one rotation
            // per shard per wave, however many requests expired with it.
            for wave in 1..=u64::from(MAX_RETRIES) {
                let out = expire(&mut c, 100 + wave * 200);
                assert_eq!(out.len(), sent, "{}: wave {wave}", shape.name);
                for (to, _) in requests(&out) {
                    let row = c.placement_of(shard_of(&c, to));
                    let expect = row[wave as usize % row.len()];
                    assert_eq!(to, expect, "{}: wave {wave}", shape.name);
                }
            }
            // The budget is spent: the next wave abandons everything.
            assert_eq!(c.steps()[0].failed, 0, "{}", shape.name);
            assert!(expire(&mut c, 1000).is_empty(), "{}", shape.name);
            assert!(c.outstanding.is_empty(), "{}", shape.name);
            assert_eq!(c.steps()[0].failed, sent as u64, "{}", shape.name);
            let failed: u64 = c.shard_stats().iter().map(|s| s.failed).sum();
            assert_eq!(failed, sent as u64, "{}", shape.name);
        }
    }

    #[test]
    fn retry_budget_exhausts_to_failure() {
        for shape in &SHAPES {
            let mut c = shape.client(50.0);
            let (to, req_id) = requests(&wake(&mut c, 100))[0];
            let shard = shard_of(&c, to);
            for i in 0..=u64::from(MAX_RETRIES) {
                redirect(&mut c, 110 + i, req_id, None);
            }
            assert_eq!(c.steps()[0].failed, 1, "{}", shape.name);
            assert_eq!(c.shard_stats()[shard].failed, 1, "{}", shape.name);
            assert!(!c.outstanding.contains_key(&req_id), "{}", shape.name);
        }
    }

    #[test]
    fn fanned_reads_round_robin_inside_the_owning_row() {
        for shape in &SHAPES {
            let mut c = shape
                .client_with(OpMix::read_mostly(), 400.0)
                .with_read_fanout(true);
            let out = wake(&mut c, 500);
            let mut reads = vec![Vec::new(); shape.shards];
            for (to, _, msg) in &out {
                match msg {
                    // Fanned reads travel as singles even when batching.
                    ClusterMsg::ClientReq { cmd, .. } if KvStore::is_read(cmd) => {
                        reads[shard_of(&c, *to)].push(*to);
                    }
                    // Everything else still chases the leader guess.
                    _ => assert_eq!(*to, c.placement_of(shard_of(&c, *to))[0]),
                }
            }
            for (shard, targets) in reads.iter().enumerate() {
                let row = c.placement_of(shard);
                assert!(targets.len() > row.len(), "{}: reads", shape.name);
                for (i, to) in targets.iter().enumerate() {
                    assert_eq!(*to, row[(i + 1) % row.len()], "{}", shape.name);
                }
            }
        }
    }

    #[test]
    fn batch_waits_out_its_window_singles_do_not() {
        for shape in &SHAPES {
            let mut c = shape.client(100.0);
            let first = c.wake_deadline().unwrap();
            let out = wake_at(&mut c, first);
            if shape.batched {
                // Woken at the arrival: buffered, and the next wake is the
                // flush deadline.
                let flush = first + DEFAULT_BATCH_WINDOW;
                assert!(out.is_empty(), "{}", shape.name);
                assert_eq!(c.wake_deadline(), Some(flush), "{}", shape.name);
                assert_eq!(requests(&wake_at(&mut c, flush)).len(), 1);
            } else {
                assert_eq!(requests(&out).len(), 1, "{}", shape.name);
            }
        }
    }

    #[test]
    fn repoint_breaks_the_static_universe_assumption() {
        // Regression: routing used to be pure ShardMap arithmetic
        // (base + (local+1) % replicas), which cannot address a replica
        // outside the contiguous genesis block. After a repoint the row
        // names a spare host beyond map.n_servers(), and every routing
        // path — guess, rotation, hints, fan-out — must follow it.
        let mut c = client(2, 3, 100.0);
        let map = ShardMap::new(2, 3);
        let spare = map.n_servers() + 1; // outside the static universe
        let retired = map.server(0, 1);
        c.repoint(0, retired, spare);
        assert_eq!(
            c.placement_of(0),
            &[map.server(0, 0), spare, map.server(0, 2)]
        );
        assert!(map.shard_of_server(spare).is_none(), "spare is unmapped");
        // Rotation cycles through the spare instead of the retired host.
        c.routes.set_guess(0, map.server(0, 0));
        rotate_guess(&mut c, 0);
        assert_eq!(c.routes.guess(0), spare);
        rotate_guess(&mut c, 0);
        assert_eq!(c.routes.guess(0), map.server(0, 2));
        c.routes.set_guess(0, map.server(0, 0));
        // A redirect hint naming the spare is now trusted...
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(500), 0, &mut out);
        c.handle_wake(&mut ctx);
        let mut shard0_req = None;
        for (to, _, m) in &out {
            if let ClusterMsg::ClientBatch { reqs } = m {
                if c.placement_of(0).contains(to) {
                    shard0_req = Some(reqs[0].clone());
                    break;
                }
            }
        }
        let (req_id, cmd) = shard0_req.expect("some request routed to shard 0");
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(210), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            map.server(0, 0),
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(spare),
                cmd,
            },
        );
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].0, spare, "hint to the admitted spare is adopted");
        // ...while a hint to the retired host is rejected (rotate instead).
        let mut out3 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(220), 0, &mut out3);
        c.handle_message(
            &mut ctx,
            spare,
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(retired),
                cmd: KvCommand::Get {
                    key: bytes::Bytes::from_static(b"k"),
                },
            },
        );
        assert_eq!(out3.len(), 1);
        assert_ne!(out3[0].0, retired, "retired replica is never re-targeted");
        assert!(c.placement_of(0).contains(&out3[0].0));
    }

    #[test]
    fn a_wave_rotates_each_shard_once() {
        let mut routes = RoutingTable::new(genesis_rows(ShardMap::new(2, 3)));
        // Before any wave is opened nothing has rotated, so the first
        // request of the first wave does.
        routes.begin_wave();
        routes.rotate_once_per_wave(0);
        routes.rotate_once_per_wave(0);
        assert_eq!((routes.guess(0), routes.guess(1)), (1, 3));
        routes.rotate_once_per_wave(1);
        assert_eq!((routes.guess(0), routes.guess(1)), (1, 4));
        routes.begin_wave();
        routes.rotate_once_per_wave(0);
        assert_eq!((routes.guess(0), routes.guess(1)), (2, 4));
    }

    #[test]
    fn next_in_row_from_a_repointed_away_target_restarts_at_the_head() {
        // The broker passes a request's last *target* (not the guess) as
        // `current`; after a repoint that target may have left the row.
        let mut routes = RoutingTable::new(genesis_rows(ShardMap::new(2, 3)));
        assert_eq!(routes.next_after(1, 4), 5);
        assert_eq!(routes.next_after(1, 5), 3, "wraps inside the row");
        routes.set_guess(1, 5);
        routes.repoint(1, 4, 9);
        assert_eq!(routes.row(1), [3, 9, 5]);
        assert_eq!(routes.guess(1), 5, "a guess elsewhere is untouched");
        assert_eq!(routes.next_after(1, 4), 3, "4 left the row: restart");
        assert_eq!(routes.hint_or_next(1, Some(4), 4), 3, "stale hint too");
        assert_eq!(routes.hint_or_next(1, Some(9), 4), 9);
        assert_eq!(routes.next_after(1, 3), 9, "rotation reaches the spare");
        assert_eq!(routes.row(0), [0, 1, 2], "other rows untouched");
    }
}
