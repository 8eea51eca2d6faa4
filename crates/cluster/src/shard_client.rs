//! Shard-aware open-loop client: hash-routes every command to its owning
//! Raft group and coalesces the arrivals of each wake into one batch per
//! shard.
//!
//! The single-group [`ClientHost`](crate::client::ClientHost) tracks one
//! leader guess; this client tracks one per shard, follows redirects per
//! shard, and retries timeouts round-robin *within* the owning group (a
//! request must never leave its shard — the data is only there). Per-shard
//! counters are cumulative, so experiments can snapshot them at any two
//! instants and difference for a windowed throughput.

use crate::app::KvApp;
use crate::msg::ClusterMsg;
use crate::sim::Client;
use dynatune_kv::{KvCommand, ShardId, ShardMap, ShardRouter, WorkloadGen};
use dynatune_raft::NodeId;
use dynatune_simnet::{Channel, HostCtx, SimTime};
use dynatune_stats::{Histogram, OnlineStats};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Maximum redirect/timeout-driven retries per request (matches the
/// single-group client).
const MAX_RETRIES: u8 = 3;

/// Default batching window: arrivals within this span of the first pending
/// arrival ride the same per-shard batch. Small against the 100 ms server
/// RTT (at most a ~2 ms latency tax) but wide enough to coalesce under
/// load, where inter-arrival gaps shrink below it.
pub const DEFAULT_BATCH_WINDOW: Duration = Duration::from_millis(2);

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
    shard: ShardId,
    retries: u8,
    cmd: KvCommand,
}

/// An open-loop client over a sharded cluster.
pub struct ShardClient {
    workload: WorkloadGen,
    router: ShardRouter,
    /// Per-shard replica placement (global host ids). Seeded from the
    /// static [`ShardMap`] but **dynamic**: [`ShardClient::repoint`]
    /// rewrites a row when the rebalancer moves a replica, so routing,
    /// redirect validation and read fan-out never assume the contiguous
    /// genesis universe.
    placement: Vec<Vec<NodeId>>,
    /// Per-shard leader guess (global host id within the shard's group).
    leader_guess: Vec<NodeId>,
    next_req_id: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    stats: Vec<ShardStats>,
    /// Per-shard latency histogram (µs) since the last
    /// [`ShardClient::take_latency_window`] — windowed tail-latency
    /// measurements for before/after comparisons the cumulative
    /// [`ShardStats`] moments cannot express.
    window_hist: Vec<Histogram>,
    request_timeout: Option<Duration>,
    /// FIFO of `(deadline, req_id)`; constant timeout keeps it ordered.
    timeout_queue: VecDeque<(SimTime, u64)>,
    timed_out: u64,
    /// Spread reads round-robin over the owning shard's replicas instead
    /// of batching them to the leader guess (follower-read offload; writes
    /// still batch to the leader).
    read_fanout: bool,
    /// Per-shard round-robin cursor for `read_fanout`.
    read_rr: Vec<usize>,
    /// Pending batch buffers, one per shard, flushed together at
    /// `flush_at`.
    batch_scratch: Vec<Vec<(u64, KvCommand)>>,
    /// Flush deadline: first pending arrival's nominal time plus the batch
    /// window (`None` when nothing is pending). Anchoring on the arrival
    /// time, not the wake time, keeps a late wake from deferring overdue
    /// work another window.
    flush_at: Option<SimTime>,
    batch_window: Duration,
}

impl ShardClient {
    /// Create a client over the placement in `map`; each shard's initial
    /// leader guess is its replica 0.
    #[must_use]
    pub fn new(workload: WorkloadGen, map: ShardMap) -> Self {
        let shards = map.shards();
        let placement: Vec<Vec<NodeId>> =
            (0..shards).map(|s| map.servers_of(s).collect()).collect();
        Self {
            workload,
            router: ShardRouter::new(shards),
            leader_guess: placement.iter().map(|row| row[0]).collect(),
            placement,
            next_req_id: 0,
            outstanding: BTreeMap::new(),
            stats: vec![ShardStats::default(); shards],
            window_hist: vec![Histogram::new(); shards],
            request_timeout: Some(Duration::from_secs(1)),
            timeout_queue: VecDeque::new(),
            timed_out: 0,
            read_fanout: false,
            read_rr: vec![0; shards],
            batch_scratch: vec![Vec::new(); shards],
            flush_at: None,
            batch_window: DEFAULT_BATCH_WINDOW,
        }
    }

    /// Override (or disable) the per-request response timeout.
    #[must_use]
    pub fn with_request_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Override the batching window (`Duration::ZERO` sends every arrival
    /// unbatched, like the single-group client).
    #[must_use]
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Spread reads round-robin over each shard's replicas (follower-read
    /// offload). Reads then travel as single requests; writes keep
    /// batching to the shard's leader guess.
    #[must_use]
    pub fn with_read_fanout(mut self, fanout: bool) -> Self {
        self.read_fanout = fanout;
        self
    }

    /// Per-shard cumulative counters.
    #[must_use]
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Completed requests per shard (snapshot-friendly).
    #[must_use]
    pub fn completed_per_shard(&self) -> Vec<u64> {
        self.stats.iter().map(|s| s.completed).collect()
    }

    /// Total completed requests across all shards.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.stats.iter().map(|s| s.completed).sum()
    }

    /// Requests still in flight.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Requests abandoned after exhausting timeout retries.
    #[must_use]
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }

    /// Rotate a shard's leader guess to the next replica in its placement
    /// row. A guess no longer in the row (just repointed away) restarts at
    /// the row's first replica.
    fn rotate_guess(&mut self, shard: ShardId) {
        let row = &self.placement[shard];
        let next = match row.iter().position(|&r| r == self.leader_guess[shard]) {
            Some(i) => (i + 1) % row.len(),
            None => 0,
        };
        self.leader_guess[shard] = row[next];
    }

    /// Rewrite the placement row of `shard`: replica `from` is replaced by
    /// `to` (the rebalancer's cut-over). A leader guess or in-flight
    /// retry pointing at `from` moves to `to`; requests already sent to
    /// `from` resolve through the ordinary redirect/timeout paths.
    pub fn repoint(&mut self, shard: ShardId, from: NodeId, to: NodeId) {
        for slot in &mut self.placement[shard] {
            if *slot == from {
                *slot = to;
            }
        }
        if self.leader_guess[shard] == from {
            self.leader_guess[shard] = to;
        }
    }

    /// Current placement row of one shard (observers / tests).
    #[must_use]
    pub fn placement_of(&self, shard: ShardId) -> &[NodeId] {
        &self.placement[shard]
    }

    /// Take (and reset) the latency histogram one shard accumulated since
    /// the previous take: completed-request latencies in microseconds.
    /// Call once to discard warm-up, again after a window of interest.
    pub fn take_latency_window(&mut self, shard: ShardId) -> Histogram {
        std::mem::take(&mut self.window_hist[shard])
    }

    fn arm_timeout(&mut self, now: SimTime, req_id: u64) {
        if let Some(t) = self.request_timeout {
            self.timeout_queue.push_back((now + t, req_id));
        }
    }

    /// Retry (or abandon) overdue requests. The guess rotates at most once
    /// per shard per expiry wave, exactly like the single-group client.
    fn expire_timeouts(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>) {
        let mut rotated = vec![false; self.placement.len()];
        while let Some(&(deadline, req_id)) = self.timeout_queue.front() {
            if deadline > ctx.now {
                break;
            }
            self.timeout_queue.pop_front();
            let Some(o) = self.outstanding.get_mut(&req_id) else {
                continue; // already answered
            };
            let shard = o.shard;
            if o.retries >= MAX_RETRIES {
                self.outstanding.remove(&req_id);
                self.stats[shard].failed += 1;
                self.timed_out += 1;
                continue;
            }
            o.retries += 1;
            let cmd = o.cmd.clone();
            if !rotated[shard] {
                self.rotate_guess(shard);
                rotated[shard] = true;
            }
            let target = self.leader_guess[shard];
            ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
            self.arm_timeout(ctx.now, req_id);
        }
    }
}

impl Client<KvApp> for ShardClient {
    /// Send every due arrival, coalesced into one batch per shard, and
    /// expire overdue requests.
    fn handle_wake(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>) {
        self.expire_timeouts(ctx);
        while let Some(at) = self.workload.peek_next() {
            if at > ctx.now {
                break;
            }
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
                    shard,
                    retries: 0,
                    cmd: cmd.clone(),
                },
            );
            self.stats[shard].sent += 1;
            self.arm_timeout(ctx.now, req_id);
            if self.read_fanout && cmd.is_read() {
                let row = &self.placement[shard];
                self.read_rr[shard] = (self.read_rr[shard] + 1) % row.len();
                let target = row[self.read_rr[shard]];
                ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
                continue;
            }
            if self.flush_at.is_none() {
                self.flush_at = Some(at + self.batch_window);
            }
            self.batch_scratch[shard].push((req_id, cmd));
        }
        if self.flush_at.is_some_and(|t| t <= ctx.now) {
            self.flush_at = None;
            for shard in 0..self.placement.len() {
                if self.batch_scratch[shard].is_empty() {
                    continue;
                }
                let reqs = std::mem::take(&mut self.batch_scratch[shard]);
                self.stats[shard].batches += 1;
                ctx.send(
                    self.leader_guess[shard],
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
            ClusterMsg::ClientResp { req_id, result } => {
                if let Some(o) = self.outstanding.remove(&req_id) {
                    let rec = &mut self.stats[o.shard];
                    if result.is_some() {
                        rec.completed += 1;
                        let elapsed = ctx.now - o.sent_at;
                        rec.latency_ms.push(elapsed.as_secs_f64() * 1e3);
                        self.window_hist[o.shard].record(elapsed.as_micros() as u64);
                    } else {
                        rec.failed += 1;
                    }
                }
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
                match hint {
                    // Hints are global host ids (the server translates);
                    // trust only hints inside the shard's current placement
                    // row — which may name a spare the rebalancer admitted,
                    // never a host of a foreign group.
                    Some(h) if self.placement[shard].contains(&h) => {
                        self.leader_guess[shard] = h;
                    }
                    _ => self.rotate_guess(shard),
                }
                if exhausted {
                    self.outstanding.remove(&req_id);
                    self.stats[shard].failed += 1;
                    return;
                }
                let target = self.leader_guess[shard];
                ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
                self.arm_timeout(ctx.now, req_id);
            }
            // Clients ignore protocol traffic.
            ClusterMsg::Raft(_)
            | ClusterMsg::ClientReq { .. }
            | ClusterMsg::ClientBatch { .. }
            | ClusterMsg::ReadIndexReq { .. }
            | ClusterMsg::ReadIndexResp { .. } => {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use dynatune_kv::{KvResponse, OpMix, RateStep};
    use dynatune_simnet::rng::Rng;

    fn client(shards: usize, replicas: usize, rps: f64) -> ShardClient {
        let wl = WorkloadGen::new(
            vec![RateStep {
                rps,
                hold: Duration::from_secs(1),
            }],
            OpMix::write_heavy(),
            1000,
            0.0,
            16,
            Rng::new(5),
            SimTime::ZERO,
        );
        ShardClient::new(wl, ShardMap::new(shards, replicas))
    }

    #[test]
    fn wake_batches_per_shard() {
        let mut c = client(4, 3, 400.0);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(500), 0, &mut out);
        c.handle_wake(&mut ctx);
        // All arrivals of [0, 500ms) coalesce into at most one batch per
        // shard, addressed to each shard's replica 0.
        assert!(!out.is_empty() && out.len() <= 4, "batches: {}", out.len());
        let map = ShardMap::new(4, 3);
        let mut items = 0;
        for (to, _, msg) in &out {
            let ClusterMsg::ClientBatch { reqs } = msg else {
                panic!("expected batch, got {msg:?}");
            };
            let shard = map.shard_of_server(*to).expect("batch sent to a server");
            assert_eq!(*to, map.server(shard, 0), "initial guess is replica 0");
            items += reqs.len();
        }
        assert_eq!(items as u64, c.shard_stats().iter().map(|s| s.sent).sum());
        assert_eq!(c.outstanding(), items);
    }

    #[test]
    fn completion_lands_in_the_owning_shard() {
        let mut c = client(2, 3, 100.0);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(200), 0, &mut out);
        c.handle_wake(&mut ctx);
        let (to, _, first) = &out[0];
        let shard = ShardMap::new(2, 3).shard_of_server(*to).unwrap();
        let ClusterMsg::ClientBatch { reqs } = first else {
            panic!("unexpected {first:?}");
        };
        let req_id = reqs[0].0;
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(250), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            *to,
            ClusterMsg::ClientResp {
                req_id,
                result: Some(KvResponse::Put {
                    prev: None,
                    revision: 1,
                }),
            },
        );
        assert_eq!(c.shard_stats()[shard].completed, 1);
        assert!(c.shard_stats()[shard].latency_ms.mean() > 0.0);
        let other = 1 - shard;
        assert_eq!(c.shard_stats()[other].completed, 0);
    }

    #[test]
    fn redirect_stays_inside_the_group() {
        let mut c = client(2, 3, 100.0);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(200), 0, &mut out);
        c.handle_wake(&mut ctx);
        let (to, _, first) = &out[0];
        let map = ShardMap::new(2, 3);
        let shard = map.shard_of_server(*to).unwrap();
        let ClusterMsg::ClientBatch { reqs } = first else {
            panic!("unexpected {first:?}");
        };
        let (req_id, _) = reqs[0].clone();
        // A valid in-group hint is adopted.
        let hint = map.server(shard, 2);
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(210), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            *to,
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(hint),
                cmd: KvCommand::Get {
                    key: bytes::Bytes::from_static(b"k"),
                },
            },
        );
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].0, hint, "resent to the hinted replica");
        // A hint pointing outside the group is ignored: rotate instead.
        let foreign = map.server(1 - shard, 0);
        let mut out3 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(220), 0, &mut out3);
        c.handle_message(
            &mut ctx,
            hint,
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(foreign),
                cmd: KvCommand::Get {
                    key: bytes::Bytes::from_static(b"k"),
                },
            },
        );
        assert_eq!(out3.len(), 1);
        assert_eq!(
            map.shard_of_server(out3[0].0),
            Some(shard),
            "retry must stay in the owning group"
        );
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
        c.leader_guess[0] = map.server(0, 0);
        c.rotate_guess(0);
        assert_eq!(c.leader_guess[0], spare);
        c.rotate_guess(0);
        assert_eq!(c.leader_guess[0], map.server(0, 2));
        c.leader_guess[0] = map.server(0, 0);
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
    fn timeouts_rotate_within_the_group_and_eventually_fail() {
        let mut c = client(2, 3, 200.0).with_request_timeout(Some(Duration::from_millis(100)));
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        assert!(c.outstanding() > 0);
        let map = ShardMap::new(2, 3);
        // First expiry wave: retries go out as singles, still in-group.
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(300), 0, &mut out2);
        c.handle_wake(&mut ctx);
        let retries: Vec<_> = out2
            .iter()
            .filter(|(_, _, m)| matches!(m, ClusterMsg::ClientReq { .. }))
            .collect();
        assert!(!retries.is_empty());
        for (to, _, _) in &retries {
            assert!(map.shard_of_server(*to).is_some());
        }
        // Exhaust every retry budget without a single response.
        for wave in 1..=10u64 {
            let mut o = Vec::new();
            let mut ctx = HostCtx::test_ctx(SimTime::from_millis(300 + wave * 200), 0, &mut o);
            c.expire_timeouts(&mut ctx);
        }
        assert!(c.timed_out() > 0);
        assert_eq!(c.outstanding(), 0);
        let failed: u64 = c.shard_stats().iter().map(|s| s.failed).sum();
        assert_eq!(failed, c.timed_out());
    }
}
