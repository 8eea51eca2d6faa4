//! The open-loop KV benchmark client (§IV-B2 methodology).
//!
//! There is one KV client, [`ClientHost`]: it hash-routes every command to
//! its owning Raft group, so a single group is simply the one-row case of
//! its routing table. Ids, timers, resends, the redirect walk and the retry
//! budget live in the request engine it shares with the broker client
//! (`requests.rs`); what stays here is what only the KV client does — read
//! fan-out, per-shard batching, giving a request up after three resends or
//! a failure response, and reporting. Outcomes are reported two ways at
//! once: bucketed per offered-load step ([`StepRecord`]) and cumulatively
//! per shard ([`ShardStats`], which experiments snapshot at two instants
//! and difference for a windowed throughput), plus an optional
//! [`OpRecord`] trace.

use crate::msg::ClusterMsg;
use crate::requests::{Lane, Live, Requests, RoutingTable, Walk};
use crate::sim::{Client, WorkloadSpec};
use bytes::Bytes;
use dynatune_kv::{App, KvCommand, KvResponse, KvStore, ShardId, ShardRouter, WorkloadGen};
use dynatune_raft::NodeId;
use dynatune_simnet::{Channel, HostCtx, Rng, SimTime};
use dynatune_stats::{Histogram, OnlineStats};
use std::time::Duration;

/// Resends (redirects and timeout retries) a request may take before it is
/// charged as failed.
const MAX_RETRIES: u64 = 3;

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
    /// Live requests, their timers and the routing table; each request
    /// carries the step it was sent in.
    reqs: Requests<KvStore, usize>,
    steps: Vec<StepRecord>,
    /// End instant of each step's window.
    step_ends: Vec<SimTime>,
    stats: Vec<ShardStats>,
    /// Per-shard latency histogram (µs) since the last
    /// [`ClientHost::take_latency_window`] — windowed tail-latency
    /// measurements for before/after comparisons the cumulative
    /// [`ShardStats`] moments cannot express.
    window_hist: Vec<Histogram>,
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
    /// Create a client for `spec`, drawing its arrivals from `rng`, over the
    /// placement `rows` (one per shard, global host ids; each shard's
    /// initial leader guess is its replica 0). `batch_window` selects
    /// per-shard batching or sending singles at arrival.
    #[must_use]
    pub fn new(
        spec: &WorkloadSpec,
        rng: Rng,
        rows: Vec<Vec<NodeId>>,
        batch_window: Option<Duration>,
    ) -> Self {
        let start = SimTime::ZERO + spec.start_offset;
        let workload = WorkloadGen::new(
            spec.steps.clone(),
            spec.mix,
            spec.key_space,
            spec.zipf_theta,
            spec.value_size,
            rng,
            start,
        );
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
            reqs: Requests::new(
                RoutingTable::new(rows),
                spec.request_timeout,
                Some(MAX_RETRIES),
                Walk::FromGuess,
            ),
            steps,
            step_ends,
            stats: vec![ShardStats::default(); shards],
            window_hist: vec![Histogram::new(); shards],
            read_fanout: spec.read_fanout,
            read_rr: vec![0; shards],
            record_trace: spec.record_trace,
            trace: Vec::new(),
            batch_window,
            batch_scratch: vec![Vec::new(); shards],
            flush_at: None,
        }
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
        self.reqs.routes.repoint(shard, from, to);
    }

    /// Current placement row of one shard (observers / tests).
    #[must_use]
    pub fn placement_of(&self, shard: ShardId) -> &[NodeId] {
        self.reqs.routes.row(shard)
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

    /// A request failed or ran out of retries: charge the failure to the
    /// step it was sent in and to its shard.
    fn abandon(&mut self, o: &Live<KvStore, usize>) {
        self.steps[o.meta].failed += 1;
        self.stats[o.shard].failed += 1;
    }
}

impl Client<KvStore> for ClientHost {
    /// Send every arrival whose time has come — as singles, or coalesced
    /// into one batch per shard — and expire overdue requests.
    fn handle_wake(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>) {
        // A paused leader never answers: without timeouts a client would
        // keep feeding a dead node for the entire outage.
        for o in self.reqs.expire(ctx).1 {
            self.abandon(&o);
        }
        while let Some(at) = self.workload.peek_next() {
            if at > ctx.now {
                break;
            }
            let step = self.workload.step_index();
            let Some((_, cmd)) = self.workload.next_request() else {
                break;
            };
            let shard = self.router.shard_of_command(&cmd);
            self.steps[step].sent += 1;
            self.stats[shard].sent += 1;
            let fanned = self.read_fanout && KvStore::is_read(&cmd);
            match self.batch_window {
                Some(window) if !fanned => {
                    let target = self.reqs.routes.guess(shard);
                    let req_id =
                        self.reqs
                            .open(ctx.now, shard, target, Lane::Leader, cmd.clone(), step);
                    self.flush_at.get_or_insert(at + window);
                    self.batch_scratch[shard].push((req_id, cmd));
                }
                _ => {
                    let target = if fanned {
                        let row = self.reqs.routes.row(shard);
                        self.read_rr[shard] = (self.read_rr[shard] + 1) % row.len();
                        row[self.read_rr[shard]]
                    } else {
                        self.reqs.routes.guess(shard)
                    };
                    self.reqs.send(ctx, shard, target, Lane::Leader, cmd, step);
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
                    self.reqs.routes.guess(shard),
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
            } => {
                if let Some(o) = self.reqs.close(req_id) {
                    self.abandon(&o);
                }
            }
            ClusterMsg::ClientResp {
                req_id,
                result: Some(resp),
            } => {
                let Some(o) = self.reqs.close(req_id) else {
                    return;
                };
                if self.record_trace {
                    self.trace.extend(op_record(&o.cmd, &resp, o.born, ctx.now));
                }
                let elapsed = ctx.now - o.born;
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
            ClusterMsg::ClientRedirect { req_id, hint } => {
                if let Some(o) = self.reqs.redirect(ctx, req_id, hint) {
                    self.abandon(&o);
                }
            }
            // Clients ignore protocol traffic.
            _ => {}
        }
    }

    /// Next workload arrival, batch flush or timeout check, whichever is
    /// sooner.
    fn wake_deadline(&self) -> Option<SimTime> {
        let arrival = self.workload.peek_next();
        [arrival, self.reqs.next_deadline(), self.flush_at]
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
    use crate::requests::{genesis_rows, DEFAULT_BATCH_WINDOW};
    use dynatune_kv::{OpMix, ShardMap};

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
            self.client_with(spec(rps))
        }

        fn client_with(&self, spec: WorkloadSpec) -> ClientHost {
            let window = self.batched.then_some(DEFAULT_BATCH_WINDOW);
            ClientHost::new(&spec, Rng::new(5), self.rows(), window)
        }
    }

    /// One second of write-heavy load at `rps` over a small uniform
    /// keyspace.
    fn spec(rps: f64) -> WorkloadSpec {
        WorkloadSpec {
            key_space: 1000,
            zipf_theta: 0.0,
            value_size: 16,
            ..WorkloadSpec::steady(rps, Duration::from_secs(1))
        }
    }

    /// The sharded, batching client over the genesis placement.
    fn client(shards: usize, replicas: usize, rps: f64) -> ClientHost {
        let rows = genesis_rows(ShardMap::new(shards, replicas));
        ClientHost::new(&spec(rps), Rng::new(5), rows, Some(DEFAULT_BATCH_WINDOW))
    }

    fn rotate_guess(c: &mut ClientHost, shard: ShardId) {
        let routes = &mut c.reqs.routes;
        routes.set_guess(shard, routes.next_after(shard, routes.guess(shard)));
    }

    fn wake(c: &mut ClientHost, at_ms: u64) -> Outbox {
        wake_at(c, SimTime::from_millis(at_ms))
    }

    fn wake_at(c: &mut ClientHost, at: SimTime) -> Outbox {
        let mut out = Vec::new();
        c.handle_wake(&mut HostCtx::test_ctx(at, 0, &mut out));
        out
    }

    /// Fire the client's due timers alone, without its arrivals.
    fn expire(c: &mut ClientHost, at_ms: u64) -> Outbox {
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(at_ms), 0, &mut out);
        for o in c.reqs.expire(&mut ctx).1 {
            c.abandon(&o);
        }
        out
    }

    fn deliver(c: &mut ClientHost, at_ms: u64, msg: ClusterMsg) -> Outbox {
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(at_ms), 0, &mut out);
        c.handle_message(&mut ctx, 0, msg);
        out
    }

    fn redirect(c: &mut ClientHost, at_ms: u64, req_id: u64, hint: Option<NodeId>) -> Outbox {
        deliver(c, at_ms, ClusterMsg::ClientRedirect { req_id, hint })
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
            assert_eq!(c.reqs.len(), reqs.len(), "{}", shape.name);
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
            let mut c = shape.client_with(WorkloadSpec {
                request_timeout: Some(Duration::from_millis(100)),
                ..spec(200.0)
            });
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
            for wave in 1..=MAX_RETRIES {
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
            assert_eq!(c.reqs.len(), 0, "{}", shape.name);
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
            for i in 0..=MAX_RETRIES {
                redirect(&mut c, 110 + i, req_id, None);
            }
            assert_eq!(c.steps()[0].failed, 1, "{}", shape.name);
            assert_eq!(c.shard_stats()[shard].failed, 1, "{}", shape.name);
            assert!(c.reqs.get(req_id).is_none(), "{}", shape.name);
        }
    }

    #[test]
    fn a_timer_armed_before_a_redirect_does_not_retry_early() {
        for shape in &SHAPES {
            let mut c = shape.client_with(WorkloadSpec {
                request_timeout: Some(Duration::from_millis(100)),
                ..spec(50.0)
            });
            let (to, req_id) = requests(&wake(&mut c, 100))[0];
            let hint = c.placement_of(shard_of(&c, to))[1];
            // Redirected at 150 ms: re-sent to the hint, due again at 250 ms.
            let out = redirect(&mut c, 150, req_id, Some(hint));
            assert_eq!(requests(&out), [(hint, req_id)], "{}", shape.name);
            // The first send's timer (due at 200 ms) belongs to a superseded
            // attempt: the re-sent request keeps its full timeout.
            let early = requests(&expire(&mut c, 200));
            assert!(early.iter().all(|&(_, id)| id != req_id), "{}", shape.name);
            let due = requests(&expire(&mut c, 250));
            assert!(due.iter().any(|&(_, id)| id == req_id), "{}", shape.name);
        }
    }

    #[test]
    fn fanned_reads_round_robin_inside_the_owning_row() {
        for shape in &SHAPES {
            let mut c = shape.client_with(
                WorkloadSpec {
                    read_fanout: true,
                    ..spec(400.0)
                }
                .mix(OpMix::read_mostly()),
            );
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
        c.reqs.routes.set_guess(0, map.server(0, 0));
        rotate_guess(&mut c, 0);
        assert_eq!(c.reqs.routes.guess(0), spare);
        rotate_guess(&mut c, 0);
        assert_eq!(c.reqs.routes.guess(0), map.server(0, 2));
        c.reqs.routes.set_guess(0, map.server(0, 0));
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
        let (req_id, _) = shard0_req.expect("some request routed to shard 0");
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(210), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            map.server(0, 0),
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(spare),
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
            },
        );
        assert_eq!(out3.len(), 1);
        assert_ne!(out3[0].0, retired, "retired replica is never re-targeted");
        assert!(c.placement_of(0).contains(&out3[0].0));
    }
}
