//! The broker client: the replicated topic/partition broker served by the
//! generic cluster layer.
//!
//! The KV side hands the one [`ClusterSim`] a
//! [`ClientHost`](crate::client::ClientHost); this module is the broker
//! analogue. Both clients drive the same request engine (`requests.rs`:
//! ids, one live timer per request, in-row rotation, the redirect walk);
//! the retry budget differs on purpose — see the client discipline below.
//! What stays here is the broker's own: producers and consumer groups,
//! fan-out fetches pinned to a replica, and the exactly-once checker.
//! Topics are split into partitions, every partition is
//! routed to one Raft group by [`shard_of_partition`] (the broker's
//! `ShardRouter`), and one [`BrokerClient`] host drives producers and
//! consumer groups against the same [`ServerHost`](crate::ServerHost)
//! plumbing the KV app uses — produces replicate with origin dedupe,
//! fetches ride the log-free read path.
//!
//! Client discipline, chosen for the exactly-once guarantee the
//! `consumer_lag_failover` scenario asserts:
//!
//! - **One in-flight produce per partition.** Two overlapping produce
//!   requests could commit in either order after a failover retry, breaking
//!   offset order; a closed loop per partition makes offsets follow arrival
//!   order by construction. Records still batch: everything that arrives
//!   during the in-flight request's round trip rides the next request.
//! - **Retries never give up and reuse the request id.** Abandoning a
//!   produce that may have committed is indistinguishable from losing it;
//!   retrying forever with the same `(client, req_id)` origin lets the
//!   replicated reply cache collapse duplicates, so at-least-once delivery
//!   plus dedupe yields exactly-once.
//! - **Record values embed a per-partition sequence number**, so a consumer
//!   can assert `seq == offset` for every record it fetches: a gap means a
//!   lost produce, a repeat means a duplicated one. The failover scenario
//!   hard-asserts both counters stay zero.
//!
//! The client wakes only when it has something to send: a batch flush, a
//! consumer poll or a request timeout. Producer arrivals sit on a fixed
//! grid, so a record is generated when a batch is about to be cut — at a
//! wake-up for every arrival due by then, on a produce ack for those due
//! before it — and gets the sequence number, batch and flush deadline it
//! would have got at its own instant. Counters that include arrivals
//! ([`BrokerClient::stats`]) are therefore read at a given instant.

use crate::msg::ClusterMsg;
use crate::requests::{
    genesis_rows, Lane, Live, Requests, RoutingTable, Walk, DEFAULT_BATCH_WINDOW,
};
use crate::sim::{Client, ClusterSim};
use bytes::Bytes;
use dynatune_broker::{
    shard_of_partition, BrokerCommand, BrokerResponse, BrokerState, FetchResult, Record,
};
use dynatune_core::invariant_violated;
use dynatune_kv::{ShardId, ShardMap};
use dynatune_raft::NodeId;
use dynatune_simnet::{HostCtx, SimTime};
use dynatune_stats::OnlineStats;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// The broker wire vocabulary: the shared cluster message enum instantiated
/// for the broker app.
pub type BrokerMsg = ClusterMsg<BrokerState>;

/// How long a caught-up consumer waits before polling its partition again.
const POLL_IDLE: Duration = Duration::from_millis(10);

/// Max records per fetch.
const FETCH_MAX: usize = 256;

/// A consumer commits its group offset every this many consumed records.
const COMMIT_EVERY: u64 = 100;

/// Broker client workload: which topics exist, how fast producers emit,
/// and how many consumer groups follow every partition.
#[derive(Debug, Clone)]
pub struct BrokerWorkload {
    /// Topics as `(name, partition_count)`.
    pub topics: Vec<(String, u32)>,
    /// Aggregate record arrival rate across all partitions (records/s);
    /// each partition produces at `produce_rps / total_partitions`, on a
    /// fixed deterministic interval.
    pub produce_rps: f64,
    /// Value bytes per record (min 8: the sequence number lives there).
    pub record_bytes: usize,
    /// Max records one produce batch may carry.
    pub batch_max: usize,
    /// Consumer groups following every partition (0: producers only).
    pub groups: usize,
    /// Consumers fetch from a fixed per-(group, partition) replica
    /// (follower fan-out) instead of chasing the partition leader.
    pub fanout_fetch: bool,
    /// Delay before the first arrival/fetch (lets leaders emerge).
    pub start_offset: Duration,
    /// Stop producing this long after the start (`None`: never). Failover
    /// scenarios use the quiet tail to drain in-flight produces and then
    /// assert zero loss.
    pub produce_for: Option<Duration>,
    /// Per-request silence timeout before a retry.
    pub request_timeout: Duration,
}

impl BrokerWorkload {
    /// A steady workload over `topics` at `produce_rps` records/s total,
    /// with one consumer group, 128-byte records and a 2 s warm-up.
    #[must_use]
    pub fn steady(topics: Vec<(String, u32)>, produce_rps: f64) -> Self {
        Self {
            topics,
            produce_rps,
            record_bytes: 128,
            batch_max: 512,
            groups: 1,
            fanout_fetch: false,
            start_offset: Duration::from_secs(2),
            produce_for: None,
            request_timeout: Duration::from_secs(1),
        }
    }

    /// Builder: number of consumer groups.
    #[must_use]
    pub fn groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Builder: consumers fetch from fixed per-group replicas.
    #[must_use]
    pub fn fanout(mut self, fanout: bool) -> Self {
        self.fanout_fetch = fanout;
        self
    }

    /// Builder: stop producing after `d` (drain phase follows).
    #[must_use]
    pub fn produce_for(mut self, d: Duration) -> Self {
        self.produce_for = Some(d);
        self
    }

    /// Builder: delay the first arrival.
    #[must_use]
    pub fn starting_at(mut self, offset: Duration) -> Self {
        self.start_offset = offset;
        self
    }

    /// Total partitions across all topics.
    #[must_use]
    fn total_partitions(&self) -> usize {
        self.topics.iter().map(|(_, n)| *n as usize).sum()
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics when a knob is zero/empty where that cannot work.
    pub fn validate(&self) {
        assert!(self.total_partitions() > 0, "workload needs partitions");
        assert!(self.produce_rps > 0.0, "zero produce rate");
        assert!(self.batch_max > 0, "zero produce batch cap");
    }
}

/// Cumulative producer-side counters (plus request-level totals).
#[derive(Debug, Clone, Default)]
pub struct BrokerStats {
    /// Records producer arrivals have generated. Read through
    /// [`BrokerClient::stats`], it counts every arrival due by the instant
    /// asked about.
    pub produced: u64,
    /// Records acknowledged by the broker.
    pub acked_records: u64,
    /// Record bytes acknowledged (throughput numerator).
    pub acked_bytes: u64,
    /// Produce requests sent (each carries a batch).
    pub produce_batches: u64,
    /// Requests re-sent after a timeout or failure response.
    pub retries: u64,
    /// Redirects followed.
    pub redirects: u64,
    /// Produce batch latency, send → ack, in milliseconds.
    pub produce_latency_ms: OnlineStats,
    /// Fetch requests completed.
    pub fetches: u64,
    /// Offset commits acknowledged.
    pub commits: u64,
}

/// Per-consumer-group counters, including the exactly-once checker.
#[derive(Debug, Clone, Default)]
pub struct ConsumerStats {
    /// Records consumed across the group's partitions.
    pub consumed: u64,
    /// Records whose embedded sequence was ahead of their offset — a
    /// produce was lost. Must stay 0.
    pub lost: u64,
    /// Records whose embedded sequence lagged their offset — a produce was
    /// applied twice. Must stay 0.
    pub duplicated: u64,
    /// Records returned out of cursor order. Must stay 0.
    pub out_of_order: u64,
    /// Worst lag (high watermark − cursor) observed on any partition.
    pub max_lag: u64,
    /// Current lag summed over the group's partitions.
    pub current_lag: u64,
    /// Offset commits acknowledged for this group.
    pub commits: u64,
}

/// One (topic, partition) and the Raft group that replicates it.
#[derive(Debug, Clone)]
struct PartitionRef {
    topic: String,
    partition: u32,
    shard: ShardId,
}

#[derive(Debug)]
struct ProducerState {
    /// The first arrival not generated yet; it may lie in the past.
    next_arrival: SimTime,
    next_seq: u64,
    pending: VecDeque<Record>,
    /// Flush deadline for the first pending record (idle path only; under
    /// load the previous ack triggers the next batch immediately).
    flush_at: Option<SimTime>,
    inflight: Option<u64>,
}

#[derive(Debug)]
struct ConsumerState {
    cursor: u64,
    next_poll: SimTime,
    inflight: Option<u64>,
    commit_inflight: Option<u64>,
    since_commit: u64,
    /// Fixed fan-out replica (used when `fanout_fetch`); while a fetch is
    /// in flight its pinned request's target is the current one.
    fetch_target: NodeId,
}

#[derive(Debug, Clone, Copy)]
enum ReqKind {
    Produce {
        pidx: usize,
        records: u64,
        bytes: u64,
    },
    Fetch {
        cidx: usize,
    },
    Commit {
        cidx: usize,
    },
}

/// The broker benchmark client: deterministic fixed-interval producers and
/// closed-loop consumer groups over every partition, routed per shard. It
/// wakes only to flush a batch, poll a consumer or time a request out; see
/// the module docs.
pub struct BrokerClient {
    /// Live requests, their timers and the routing table; never given up.
    reqs: Requests<BrokerState, ReqKind>,
    parts: Vec<PartitionRef>,
    producers: Vec<ProducerState>,
    /// Indexed `group * parts.len() + pidx`.
    consumers: Vec<ConsumerState>,
    interval: Duration,
    produce_until: Option<SimTime>,
    /// One record's value, zeroed past its first 8 bytes: each arrival
    /// stamps its sequence number there and copies the buffer into the
    /// record's own allocation.
    value: Vec<u8>,
    batch_max: usize,
    fanout_fetch: bool,
    stats: BrokerStats,
    group_stats: Vec<ConsumerStats>,
    /// Last observed lag per consumer index.
    last_lag: Vec<u64>,
}

impl BrokerClient {
    /// Build the client for `workload` over the placement in `map`.
    ///
    /// # Panics
    /// Panics when the workload fails validation.
    #[must_use]
    pub fn new(workload: &BrokerWorkload, map: ShardMap) -> Self {
        workload.validate();
        let shards = map.shards();
        let routes = RoutingTable::new(genesis_rows(map));
        let mut parts = Vec::new();
        for (topic, n) in &workload.topics {
            for p in 0..*n {
                parts.push(PartitionRef {
                    topic: topic.clone(),
                    partition: p,
                    shard: shard_of_partition(topic, p, shards),
                });
            }
        }
        let n_parts = parts.len();
        let interval = Duration::from_secs_f64(n_parts as f64 / workload.produce_rps);
        let start = SimTime::ZERO + workload.start_offset;
        let producers = (0..n_parts)
            .map(|i| ProducerState {
                // Phase-stagger partitions so arrivals spread over the
                // interval instead of landing on one instant.
                next_arrival: start + interval.mul_f64((i + 1) as f64 / n_parts as f64),
                next_seq: 0,
                pending: VecDeque::new(),
                flush_at: None,
                inflight: None,
            })
            .collect();
        let mut consumers = Vec::new();
        for g in 0..workload.groups {
            for (pidx, part) in parts.iter().enumerate() {
                let row = routes.row(part.shard);
                consumers.push(ConsumerState {
                    cursor: 0,
                    next_poll: start,
                    inflight: None,
                    commit_inflight: None,
                    since_commit: 0,
                    fetch_target: row[(g + pidx) % row.len()],
                });
            }
        }
        Self {
            // Retries never give up: see the module docs.
            reqs: Requests::new(
                routes,
                Some(workload.request_timeout),
                None,
                Walk::FromTarget,
            ),
            parts,
            producers,
            consumers,
            interval,
            produce_until: workload.produce_for.map(|d| start + d),
            value: vec![0; workload.record_bytes.max(8)],
            batch_max: workload.batch_max,
            fanout_fetch: workload.fanout_fetch,
            stats: BrokerStats::default(),
            group_stats: vec![ConsumerStats::default(); workload.groups],
            last_lag: vec![0; workload.groups * n_parts],
        }
    }

    /// Producer-side counters at `now`: `produced` counts every arrival due
    /// by then, including those not generated yet.
    #[must_use]
    pub fn stats(&self, now: SimTime) -> BrokerStats {
        let mut stats = self.stats.clone();
        stats.produced += (0..self.parts.len())
            .map(|pidx| self.due_by(pidx, now))
            .sum::<u64>();
        stats
    }

    /// Per-group consumer counters, with current lag filled in.
    #[must_use]
    pub fn consumer_stats(&self) -> Vec<ConsumerStats> {
        let n_parts = self.parts.len();
        self.group_stats
            .iter()
            .enumerate()
            .map(|(g, gs)| {
                let mut s = gs.clone();
                s.current_lag = (0..n_parts).map(|p| self.last_lag[g * n_parts + p]).sum();
                s
            })
            .collect()
    }

    /// Arrivals of partition `pidx` due by `now` (at `now` included) and
    /// not generated yet. Arrivals sit on a fixed grid of whole
    /// nanoseconds, so this counts exactly what eager generation would have.
    fn due_by(&self, pidx: usize, now: SimTime) -> u64 {
        let Some(next) = self.peek_arrival(pidx) else {
            return 0;
        };
        if next > now {
            return 0;
        }
        let step = u64::try_from(self.interval.as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        let by_now = (now.as_nanos() - next.as_nanos()) / step + 1;
        match self.produce_until {
            // `next < until` here: peek_arrival said production continues.
            Some(until) => by_now.min((until.as_nanos() - next.as_nanos()).div_ceil(step)),
            None => by_now,
        }
    }

    /// Generate partition `pidx`'s arrivals due by `upto` (at `upto` itself
    /// only when `inclusive`): each gets its sequence number stamped, joins
    /// `pending`, and on an idle producer arms the flush one batch window
    /// after the first of them. Generation waits until a batch is about to
    /// be cut. What it makes depends only on the arrival instants and on
    /// whether a produce is in flight, so an ack generates the arrivals
    /// before it while its request still counts as in flight.
    fn catch_up(&mut self, pidx: usize, upto: SimTime, inclusive: bool) {
        while let Some(at) = self.peek_arrival(pidx) {
            if at > upto || (at == upto && !inclusive) {
                break;
            }
            let p = &mut self.producers[pidx];
            self.value[..8].copy_from_slice(&p.next_seq.to_le_bytes());
            p.next_seq += 1;
            p.next_arrival = at + self.interval;
            let value = Bytes::copy_from_slice(&self.value);
            p.pending.push_back(Record::new(Bytes::new(), value));
            if p.inflight.is_none() && p.flush_at.is_none() {
                p.flush_at = Some(at + DEFAULT_BATCH_WINDOW);
            }
            self.stats.produced += 1;
        }
    }

    /// Arrival still due for partition `pidx`, if production continues.
    fn peek_arrival(&self, pidx: usize) -> Option<SimTime> {
        let at = self.producers[pidx].next_arrival;
        match self.produce_until {
            Some(until) if at >= until => None,
            _ => Some(at),
        }
    }

    /// Send the next produce batch for a partition, if one can go.
    fn flush_partition(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, pidx: usize) {
        if self.producers[pidx].inflight.is_some() || self.producers[pidx].pending.is_empty() {
            return;
        }
        let n_take = self.batch_max.min(self.producers[pidx].pending.len());
        let p = &mut self.producers[pidx];
        let records: Arc<[Record]> = p.pending.drain(..n_take).collect();
        p.flush_at = None;
        let bytes: u64 = records.iter().map(|r| r.bytes() as u64).sum();
        let part = self.parts[pidx].clone();
        let cmd = BrokerCommand::Produce {
            topic: part.topic,
            partition: part.partition,
            records,
        };
        self.stats.produce_batches += 1;
        let kind = ReqKind::Produce {
            pidx,
            records: n_take as u64,
            bytes,
        };
        let target = self.reqs.routes.guess(part.shard);
        let req_id = self
            .reqs
            .send(ctx, part.shard, target, Lane::Leader, cmd, kind);
        self.producers[pidx].inflight = Some(req_id);
    }

    fn issue_fetch(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, cidx: usize) {
        let pidx = cidx % self.parts.len();
        let part = self.parts[pidx].clone();
        let cmd = BrokerCommand::Fetch {
            topic: part.topic,
            partition: part.partition,
            offset: self.consumers[cidx].cursor,
            max_records: FETCH_MAX,
        };
        let (target, lane) = if self.fanout_fetch {
            (self.consumers[cidx].fetch_target, Lane::Pinned)
        } else {
            (self.reqs.routes.guess(part.shard), Lane::Leader)
        };
        let req_id = self
            .reqs
            .send(ctx, part.shard, target, lane, cmd, ReqKind::Fetch { cidx });
        self.consumers[cidx].inflight = Some(req_id);
    }

    fn issue_commit(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, cidx: usize) {
        if self.consumers[cidx].commit_inflight.is_some() {
            return;
        }
        let pidx = cidx % self.parts.len();
        let g = cidx / self.parts.len();
        let part = self.parts[pidx].clone();
        let cmd = BrokerCommand::CommitOffset {
            group: format!("g{g}"),
            topic: part.topic,
            partition: part.partition,
            offset: self.consumers[cidx].cursor,
        };
        let target = self.reqs.routes.guess(part.shard);
        let kind = ReqKind::Commit { cidx };
        let req_id = self
            .reqs
            .send(ctx, part.shard, target, Lane::Leader, cmd, kind);
        self.consumers[cidx].commit_inflight = Some(req_id);
        self.consumers[cidx].since_commit = 0;
    }

    fn on_fetch(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, cidx: usize, fx: &FetchResult) {
        let g = cidx / self.parts.len();
        let got = !fx.is_empty();
        let lag;
        {
            let c = &mut self.consumers[cidx];
            c.inflight = None;
            let gs = &mut self.group_stats[g];
            for (off, rec) in fx.records() {
                if off != c.cursor {
                    gs.out_of_order += 1;
                }
                let Some(seq) = rec.value.get(..8).map(|h| {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(h);
                    u64::from_le_bytes(buf)
                }) else {
                    invariant_violated!(
                        "record at offset {off} lacks the 8-byte seq header \
                         every produced value starts with"
                    );
                };
                // seq == offset iff every produce applied exactly once in
                // arrival order; see the module docs.
                if seq > off {
                    gs.lost += 1;
                } else if seq < off {
                    gs.duplicated += 1;
                }
                gs.consumed += 1;
                c.cursor = off + 1;
                c.since_commit += 1;
            }
            lag = fx.high_watermark.saturating_sub(c.cursor);
            gs.max_lag = gs.max_lag.max(lag);
        }
        self.last_lag[cidx] = lag;
        self.stats.fetches += 1;
        if self.consumers[cidx].since_commit >= COMMIT_EVERY {
            self.issue_commit(ctx, cidx);
        }
        if got {
            // More may be waiting: chase the log immediately.
            self.issue_fetch(ctx, cidx);
        } else {
            self.consumers[cidx].next_poll = ctx.now + POLL_IDLE;
        }
    }

    fn on_response(
        &mut self,
        ctx: &mut HostCtx<'_, BrokerMsg>,
        req_id: u64,
        result: Option<BrokerResponse>,
    ) {
        let Some((kind, born)) = self.reqs.get(req_id).map(|r| (r.meta, r.born)) else {
            return; // late duplicate of an already-answered request
        };
        let Some(resp) = result else {
            // The server failed the request (leadership change mid-flight):
            // retry, same id, as its own one-request wave.
            self.reqs.routes.begin_wave();
            self.reqs.retry(ctx, req_id);
            self.stats.retries += 1;
            return;
        };
        match (kind, resp) {
            (
                ReqKind::Produce {
                    pidx,
                    records,
                    bytes,
                },
                BrokerResponse::Produced { .. },
            ) => {
                self.reqs.close(req_id);
                // The round trip's arrivals are generated as if the batch
                // were still in flight; one at the ack's own instant comes
                // after the ack.
                self.catch_up(pidx, ctx.now, false);
                self.producers[pidx].inflight = None;
                self.stats.acked_records += records;
                self.stats.acked_bytes += bytes;
                self.stats
                    .produce_latency_ms
                    .push((ctx.now - born).as_secs_f64() * 1e3);
                // Everything that arrived during the round trip forms the
                // next batch right away.
                self.flush_partition(ctx, pidx);
            }
            (ReqKind::Fetch { cidx }, BrokerResponse::Records(fx)) => {
                if let Some(Live {
                    lane: Lane::Pinned,
                    target,
                    ..
                }) = self.reqs.close(req_id)
                {
                    self.consumers[cidx].fetch_target = target;
                }
                self.on_fetch(ctx, cidx, &fx);
            }
            (ReqKind::Commit { cidx }, BrokerResponse::OffsetCommitted { .. }) => {
                self.reqs.close(req_id);
                self.consumers[cidx].commit_inflight = None;
                self.group_stats[cidx / self.parts.len()].commits += 1;
                self.stats.commits += 1;
            }
            _ => {} // variant mismatch cannot happen; drop defensively
        }
    }
}

impl Client<BrokerState> for BrokerClient {
    /// Generate the arrivals due by now, flush due batches, poll due
    /// consumers and expire overdue requests.
    fn handle_wake(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>) {
        self.stats.retries += self.reqs.expire(ctx).0;
        for pidx in 0..self.parts.len() {
            self.catch_up(pidx, ctx.now, true);
            if self.producers[pidx].flush_at.is_some_and(|t| t <= ctx.now) {
                self.flush_partition(ctx, pidx);
            }
        }
        for cidx in 0..self.consumers.len() {
            let c = &self.consumers[cidx];
            if c.inflight.is_none() && c.next_poll <= ctx.now {
                self.issue_fetch(ctx, cidx);
            }
        }
    }

    /// Process a server response.
    fn handle_message(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, _from: NodeId, msg: BrokerMsg) {
        match msg {
            ClusterMsg::ClientResp { req_id, result } => self.on_response(ctx, req_id, result),
            // A redirect for an answered request is a late duplicate.
            ClusterMsg::ClientRedirect { req_id, hint } if self.reqs.get(req_id).is_some() => {
                self.stats.redirects += 1;
                self.reqs.redirect(ctx, req_id, hint);
            }
            // Clients ignore protocol traffic.
            _ => {}
        }
    }

    /// The next batch flush, idle poll or timeout, whichever is sooner.
    /// Arrivals alone wake nobody: a busy producer's ack cuts its next
    /// batch, and an idle one with nothing pending is due to flush one
    /// batch window after its next arrival.
    fn wake_deadline(&self) -> Option<SimTime> {
        let flush = (0..self.parts.len())
            .filter_map(|pidx| {
                let p = &self.producers[pidx];
                match (p.inflight, p.flush_at) {
                    (Some(_), _) => None,
                    (None, Some(at)) => Some(at),
                    (None, None) => self.peek_arrival(pidx).map(|at| at + DEFAULT_BATCH_WINDOW),
                }
            })
            .min();
        let poll = self
            .consumers
            .iter()
            .filter(|c| c.inflight.is_none())
            .map(|c| c.next_poll)
            .min();
        [flush, self.reqs.next_deadline(), poll]
            .into_iter()
            .flatten()
            .min()
    }
}

/// A running broker cluster: the one [`ClusterSim`] serving the broker app
/// to a [`BrokerClient`].
pub type BrokerClusterSim = ClusterSim<BrokerState, BrokerClient>;

impl BrokerClusterSim {
    /// Producer-side counters at the current instant (`None` without a
    /// workload). Kept for perfbench, whose source is frozen; everything
    /// else reads [`BrokerClient::stats`] through [`ClusterSim::client`].
    #[must_use]
    pub fn stats(&self) -> Option<BrokerStats> {
        self.client().map(|c| c.stats(self.now()))
    }

    /// Per-group consumer counters (`None` without a workload). Kept for
    /// perfbench, whose source is frozen; everything else reads
    /// [`BrokerClient::consumer_stats`] through [`ClusterSim::client`].
    #[must_use]
    pub fn consumer_stats(&self) -> Option<Vec<ConsumerStats>> {
        self.client().map(BrokerClient::consumer_stats)
    }

    /// Records due by now but not yet acknowledged (0 without a
    /// workload). Kept for perfbench, whose source is frozen; everything
    /// else subtracts [`BrokerClient::stats`]' `acked_records` from its
    /// `produced`.
    #[must_use]
    pub fn unacked_records(&self) -> u64 {
        self.stats().map_or(0, |s| s.produced - s.acked_records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::builder::{NetPlan, ScenarioBuilder};
    use crate::server::{ReadCounters, ServerHost};
    use dynatune_raft::StateMachine;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ptr;

    fn broker_sim(groups: usize, fanout: bool, seed: u64) -> BrokerClusterSim {
        let wl = BrokerWorkload::steady(vec![("orders".into(), 4)], 400.0)
            .groups(groups)
            .fanout(fanout);
        ScenarioBuilder::cluster(3)
            .shards(2)
            .net(NetPlan::stable(Duration::from_millis(20)))
            .seed(seed)
            .build_broker_sim(wl)
    }

    #[test]
    fn produces_and_consumes_with_zero_loss() {
        let mut sim = broker_sim(1, false, 1);
        sim.run_until(SimTime::from_secs(12));
        let client = sim.client().expect("client attached");
        let stats = client.stats(sim.now());
        assert!(stats.produced > 2000, "produced {}", stats.produced);
        assert!(
            stats.acked_records > stats.produced / 2,
            "acked {} of {}",
            stats.acked_records,
            stats.produced
        );
        assert!(
            stats.produce_batches < stats.acked_records,
            "batching must coalesce"
        );
        let groups = client.consumer_stats();
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert!(g.consumed > 1000, "consumed {}", g.consumed);
        assert_eq!(g.lost, 0);
        assert_eq!(g.duplicated, 0);
        assert_eq!(g.out_of_order, 0);
        assert!(g.commits > 0, "offsets must commit durably");
    }

    #[test]
    fn drain_phase_acks_every_record() {
        let wl = BrokerWorkload::steady(vec![("t".into(), 2)], 300.0)
            .produce_for(Duration::from_secs(6));
        let mut sim = ScenarioBuilder::cluster(3)
            .shards(2)
            .net(NetPlan::stable(Duration::from_millis(20)))
            .seed(3)
            .build_broker_sim(wl);
        sim.run_until(SimTime::from_secs(15));
        let stats = sim.client().expect("client attached").stats(sim.now());
        assert!(stats.produced > 1000);
        assert_eq!(
            stats.acked_records, stats.produced,
            "drain must ack every record"
        );
    }

    #[test]
    fn leader_crash_loses_and_duplicates_nothing() {
        let wl = BrokerWorkload::steady(vec![("t".into(), 2)], 300.0)
            .produce_for(Duration::from_secs(10));
        let mut sim = ScenarioBuilder::cluster(3)
            .shards(1)
            .net(NetPlan::stable(Duration::from_millis(20)))
            .seed(5)
            .build_broker_sim(wl);
        sim.run_until(SimTime::from_secs(6));
        let victim = sim.leader_of(0).expect("group 0 leader");
        sim.crash_restart(victim);
        sim.run_until(SimTime::from_secs(25));
        let client = sim.client().expect("client attached");
        let stats = client.stats(sim.now());
        assert_eq!(
            stats.acked_records, stats.produced,
            "failover must not strand produces"
        );
        let g = &client.consumer_stats()[0];
        assert_eq!(g.consumed, stats.produced, "consumer reads everything");
        assert_eq!(g.lost, 0, "no record lost across failover");
        assert_eq!(g.duplicated, 0, "no record duplicated across failover");
        assert_eq!(g.out_of_order, 0);
        assert_eq!(g.current_lag, 0, "lag fully recovered");
    }

    #[test]
    fn fanout_spreads_fetches_off_the_leader() {
        let mut sim = broker_sim(4, true, 7);
        sim.run_until(SimTime::from_secs(12));
        let reads = sim
            .servers()
            .map(ServerHost::reads_served)
            .fold(ReadCounters::default(), ReadCounters::merged);
        assert!(
            reads.follower > 0,
            "fan-out consumers must fetch from followers: {reads:?}"
        );
        for g in sim.client().expect("client attached").consumer_stats() {
            assert_eq!(g.lost, 0);
            assert_eq!(g.duplicated, 0);
        }
    }

    /// The produce batch at `index` of server `id`'s log, if it holds one.
    fn batch_at(sim: &BrokerClusterSim, id: NodeId, index: u64) -> Option<Arc<[Record]>> {
        let entry = sim.server(id).node().log().entry_at(index)?;
        match &entry.data.as_ref()?.cmd {
            BrokerCommand::Produce { records, .. } => Some(Arc::clone(records)),
            _ => None,
        }
    }

    /// Every record `state` holds, mapped by `f` and keyed by `(topic,
    /// partition, offset)`.
    fn applied<T>(
        state: &BrokerState,
        f: impl Fn(&Record) -> T,
    ) -> BTreeMap<(String, u32, u64), T> {
        let mut out = BTreeMap::new();
        for (topic, t) in state.topics() {
            for (p, log) in t.partitions() {
                for (off, r) in log.fetch(0, usize::MAX).records() {
                    out.insert((topic.to_string(), p, off), f(r));
                }
            }
        }
        out
    }

    /// Every record server `id` has applied.
    fn applied_records(sim: &BrokerClusterSim, id: NodeId) -> BTreeMap<(String, u32, u64), Record> {
        applied(sim.server(id).node().state_machine(), Record::clone)
    }

    type Addresses = BTreeMap<(String, u32, u64), *const Record>;

    /// Where each record server `id` has applied lives, and where the same
    /// records live in its snapshot and in its answer to a fetch from 0.
    fn record_addresses(sim: &BrokerClusterSim, id: NodeId) -> [Addresses; 3] {
        let sm = sim.server(id).node().state_machine();
        let mut fetched = BTreeMap::new();
        for (topic, t) in sm.topics() {
            for (partition, _) in t.partitions() {
                let fetch = BrokerCommand::Fetch {
                    topic: topic.to_string(),
                    partition,
                    offset: 0,
                    max_records: usize::MAX,
                };
                let Some(BrokerResponse::Records(fx)) = sm.read(&fetch) else {
                    panic!("a fetch answers with records");
                };
                for (off, r) in fx.records() {
                    fetched.insert((topic.to_string(), partition, off), ptr::from_ref(r));
                }
            }
        }
        [
            applied(sm, ptr::from_ref),
            applied(&sm.snapshot(), ptr::from_ref),
            fetched,
        ]
    }

    #[test]
    fn a_produce_batch_is_one_allocation_on_every_replica() {
        let mut sim = broker_sim(1, false, 1);
        sim.run_until(SimTime::from_secs(6));
        let (mut batches, mut logged, mut records) = (0, 0, 0);
        for shard in 0..sim.shards() {
            let replicas = sim.members_of(shard);
            assert_eq!(replicas.len(), 3);
            let last = replicas
                .iter()
                .map(|&id| sim.server(id).node().log().last_index())
                .max()
                .unwrap_or(0);
            let mut in_log = BTreeSet::new();
            for index in 1..=last {
                let held: Option<Vec<_>> = replicas
                    .iter()
                    .map(|&id| batch_at(&sim, id, index))
                    .collect();
                let Some(held) = held else { continue };
                assert!(
                    held.iter().all(|b| Arc::ptr_eq(b, &held[0])),
                    "shard {shard} index {index}: a replica holds a copy of the batch"
                );
                in_log.extend(held[0].iter().map(ptr::from_ref));
                batches += 1;
            }
            let seen: Vec<_> = replicas
                .iter()
                .map(|&id| record_addresses(&sim, id))
                .collect();
            let first = &seen[0][0];
            for (&id, [stored, snapshot, fetched]) in replicas.iter().zip(&seen) {
                assert_eq!(
                    (snapshot.len(), fetched.len()),
                    (stored.len(), stored.len())
                );
                for (at, &r) in stored {
                    assert!(ptr::eq(snapshot[at], r), "{at:?}: the snapshot copied it");
                    assert!(ptr::eq(fetched[at], r), "{at:?}: the fetch copied it");
                    // Replicas apply at their own pace: compare what both hold.
                    let Some(&r0) = first.get(at) else { continue };
                    assert!(
                        ptr::eq(r, r0),
                        "{at:?}: server {id} holds a copy of the record"
                    );
                    records += 1;
                    logged += usize::from(in_log.contains(&r));
                }
            }
        }
        assert!(
            batches > 100,
            "only {batches} batches held by every replica"
        );
        assert!(records > 3000, "only {records} records compared");
        assert!(
            logged > 3000,
            "only {logged} applied records are the logged ones"
        );
    }

    #[test]
    fn each_record_owns_a_stamped_value() {
        let steady = BrokerWorkload::steady(vec![("t".into(), 2)], 300.0);
        let tiny = BrokerWorkload {
            record_bytes: 3,
            ..steady.clone()
        };
        for (wl, want_len) in [(steady, 128), (tiny, 8)] {
            let mut sim = ScenarioBuilder::cluster(3)
                .shards(1)
                .net(NetPlan::stable(Duration::from_millis(20)))
                .seed(2)
                .build_broker_sim(wl);
            sim.run_until(SimTime::from_secs(5));
            let records = applied_records(&sim, 0);
            assert!(records.len() > 500, "only {} records", records.len());
            let values: Vec<_> = records.values().map(|r| r.value.as_ptr()).collect();
            assert!(
                values.windows(2).all(|w| w[0] != w[1]),
                "consecutive records share a value buffer"
            );
            for ((_, _, off), r) in &records {
                assert_eq!(r.value.len(), want_len, "offset {off}");
                assert_eq!(r.value[..8], off.to_le_bytes(), "offset {off}");
                assert!(r.value[8..].iter().all(|&b| b == 0), "offset {off}");
            }
        }
    }

    #[test]
    fn clients_wake_less_than_once_per_two_records() {
        // 4 000 records/s over four partitions. Waking for every arrival,
        // this world woke 1.13 times per record (18 140 wake-ups for
        // 16 000 records); waking only to cut a batch, 0.099 (1 587).
        let wl = BrokerWorkload::steady(vec![("t".into(), 4)], 4_000.0).groups(0);
        let mut sim = ScenarioBuilder::cluster(3)
            .shards(2)
            .net(NetPlan::stable(Duration::from_millis(20)))
            .seed(1)
            .build_broker_sim(wl);
        sim.run_until(SimTime::from_secs(6));
        let produced = sim
            .client()
            .expect("client attached")
            .stats(sim.now())
            .produced;
        let wakes = sim.net_counters().wakes;
        assert_eq!(produced, 16_000);
        assert!(
            2 * wakes < produced,
            "{wakes} wake-ups for {produced} records"
        );
    }

    /// The producer side of the client as it was before generation went
    /// lazy: it wakes at every arrival and generates the record then. The
    /// executable specification `prop_lazy_producers_match_the_eager_model`
    /// holds [`BrokerClient`] to (consumers are left out: their code did
    /// not change).
    struct Eager {
        reqs: Requests<BrokerState, ReqKind>,
        parts: Vec<PartitionRef>,
        producers: Vec<ProducerState>,
        interval: Duration,
        produce_until: Option<SimTime>,
        value: Vec<u8>,
        batch_max: usize,
        stats: BrokerStats,
    }

    impl Eager {
        fn new(workload: &BrokerWorkload, map: ShardMap) -> Self {
            let c = BrokerClient::new(workload, map);
            Self {
                reqs: c.reqs,
                parts: c.parts,
                producers: c.producers,
                interval: c.interval,
                produce_until: c.produce_until,
                value: c.value,
                batch_max: c.batch_max,
                stats: c.stats,
            }
        }

        fn peek_arrival(&self, pidx: usize) -> Option<SimTime> {
            let at = self.producers[pidx].next_arrival;
            match self.produce_until {
                Some(until) if at >= until => None,
                _ => Some(at),
            }
        }

        fn flush_partition(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, pidx: usize) {
            let p = &mut self.producers[pidx];
            if p.inflight.is_some() || p.pending.is_empty() {
                return;
            }
            let n_take = self.batch_max.min(p.pending.len());
            let records: Arc<[Record]> = p.pending.drain(..n_take).collect();
            p.flush_at = None;
            let bytes: u64 = records.iter().map(|r| r.bytes() as u64).sum();
            let part = self.parts[pidx].clone();
            let cmd = BrokerCommand::Produce {
                topic: part.topic,
                partition: part.partition,
                records,
            };
            self.stats.produce_batches += 1;
            let kind = ReqKind::Produce {
                pidx,
                records: n_take as u64,
                bytes,
            };
            let target = self.reqs.routes.guess(part.shard);
            let req_id = self
                .reqs
                .send(ctx, part.shard, target, Lane::Leader, cmd, kind);
            self.producers[pidx].inflight = Some(req_id);
        }

        fn handle_wake(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>) {
            self.stats.retries += self.reqs.expire(ctx).0;
            for pidx in 0..self.parts.len() {
                while let Some(at) = self.peek_arrival(pidx) {
                    if at > ctx.now {
                        break;
                    }
                    let p = &mut self.producers[pidx];
                    self.value[..8].copy_from_slice(&p.next_seq.to_le_bytes());
                    p.next_seq += 1;
                    p.next_arrival = at + self.interval;
                    let value = Bytes::copy_from_slice(&self.value);
                    p.pending.push_back(Record::new(Bytes::new(), value));
                    if p.inflight.is_none() && p.flush_at.is_none() {
                        p.flush_at = Some(at + DEFAULT_BATCH_WINDOW);
                    }
                    self.stats.produced += 1;
                }
                if self.producers[pidx].flush_at.is_some_and(|t| t <= ctx.now) {
                    self.flush_partition(ctx, pidx);
                }
            }
        }

        fn handle_message(&mut self, ctx: &mut HostCtx<'_, BrokerMsg>, msg: BrokerMsg) {
            match msg {
                ClusterMsg::ClientResp { req_id, result } => {
                    let Some((kind, born)) = self.reqs.get(req_id).map(|r| (r.meta, r.born)) else {
                        return;
                    };
                    let (
                        ReqKind::Produce {
                            pidx,
                            records,
                            bytes,
                        },
                        Some(BrokerResponse::Produced { .. }),
                    ) = (kind, result)
                    else {
                        self.reqs.routes.begin_wave();
                        self.reqs.retry(ctx, req_id);
                        self.stats.retries += 1;
                        return;
                    };
                    self.reqs.close(req_id);
                    self.producers[pidx].inflight = None;
                    self.stats.acked_records += records;
                    self.stats.acked_bytes += bytes;
                    self.stats
                        .produce_latency_ms
                        .push((ctx.now - born).as_secs_f64() * 1e3);
                    self.flush_partition(ctx, pidx);
                }
                ClusterMsg::ClientRedirect { req_id, hint } if self.reqs.get(req_id).is_some() => {
                    self.stats.redirects += 1;
                    self.reqs.redirect(ctx, req_id, hint);
                }
                _ => {}
            }
        }

        fn wake_deadline(&self) -> Option<SimTime> {
            let arrival = (0..self.parts.len())
                .filter_map(|i| self.peek_arrival(i))
                .min();
            let flush = self.producers.iter().filter_map(|p| p.flush_at).min();
            [arrival, flush, self.reqs.next_deadline()]
                .into_iter()
                .flatten()
                .min()
        }
    }

    /// What one client sent: `(instant, target, req_id, each record's seq)`.
    type Sent = Vec<(SimTime, NodeId, u64, Vec<u64>)>;

    /// Run `f` against a context at `now` and log what it sent.
    fn logged(sent: &mut Sent, now: SimTime, f: impl FnOnce(&mut HostCtx<'_, BrokerMsg>)) {
        let mut out = Vec::new();
        f(&mut HostCtx::test_ctx(now, 0, &mut out));
        for (to, _, msg) in out {
            let ClusterMsg::ClientReq { req_id, cmd } = msg else {
                panic!("a producer sends requests only");
            };
            let BrokerCommand::Produce { records, .. } = cmd else {
                panic!("a producer sends produces only");
            };
            let seqs = records
                .iter()
                .map(|r| u64::from_le_bytes(r.value[..8].try_into().expect("seq header")))
                .collect();
            sent.push((now, to, req_id, seqs));
        }
    }

    /// The lazy client and the eager model, each with its send log.
    struct Pair {
        lazy: BrokerClient,
        eager: Eager,
        sent: (Sent, Sent),
    }

    impl Pair {
        /// Fire each side's own wake-ups due before `now` (at `now` too
        /// when `inclusive`), as the kernel would.
        fn wake_until(&mut self, now: SimTime, inclusive: bool) {
            let due = |d: SimTime| d < now || (inclusive && d == now);
            while let Some(d) = self.lazy.wake_deadline().filter(|&d| due(d)) {
                logged(&mut self.sent.0, d, |ctx| self.lazy.handle_wake(ctx));
            }
            while let Some(d) = self.eager.wake_deadline().filter(|&d| due(d)) {
                logged(&mut self.sent.1, d, |ctx| self.eager.handle_wake(ctx));
            }
        }

        /// Deliver `msg` at `now` to both, after every wake-up due before
        /// it and ahead of those due at its instant.
        fn deliver(&mut self, now: SimTime, msg: &BrokerMsg) {
            self.wake_until(now, false);
            logged(&mut self.sent.0, now, |ctx| {
                self.lazy.handle_message(ctx, 1, msg.clone());
            });
            logged(&mut self.sent.1, now, |ctx| {
                self.eager.handle_message(ctx, msg.clone());
            });
            self.wake_until(now, true);
        }

        /// An extra wake-up at `now` for both.
        fn wake(&mut self, now: SimTime) {
            self.wake_until(now, true);
            logged(&mut self.sent.0, now, |ctx| self.lazy.handle_wake(ctx));
            logged(&mut self.sent.1, now, |ctx| self.eager.handle_wake(ctx));
        }

        /// Everything observable agrees at `now`: what was sent, what each
        /// partition holds back or has in flight, and the counters.
        fn assert_agrees(&self, now: SimTime) {
            assert_eq!(self.sent.0, self.sent.1, "sent by {now}");
            for (pidx, (l, e)) in self
                .lazy
                .producers
                .iter()
                .zip(&self.eager.producers)
                .enumerate()
            {
                assert_eq!(
                    l.pending.len() as u64 + self.lazy.due_by(pidx, now),
                    e.pending.len() as u64,
                    "partition {pidx} pending at {now}"
                );
                assert_eq!(
                    l.inflight, e.inflight,
                    "partition {pidx} in flight at {now}"
                );
            }
            let counters = |s: &BrokerStats| {
                (
                    [
                        s.produced,
                        s.acked_records,
                        s.acked_bytes,
                        s.produce_batches,
                    ],
                    [s.retries, s.redirects],
                    (s.produce_latency_ms.count(), s.produce_latency_ms.mean()),
                )
            };
            assert_eq!(
                counters(&self.lazy.stats(now)),
                counters(&self.eager.stats),
                "stats at {now}"
            );
        }
    }

    /// One scheduled event, `gap_us` after the previous one unless it is
    /// pinned to an arrival or to the end of production.
    #[derive(Debug, Clone)]
    enum Step {
        Wake {
            gap_us: u64,
        },
        /// Answer partition `part`'s produce in flight: acked, failed, or
        /// redirected (hinting replica 0, 1 or 2 of the row, host 7 outside
        /// it, or nothing).
        Answer {
            part: usize,
            gap_us: u64,
            how: u8,
            hint: usize,
        },
        /// Ack partition `part`'s produce exactly on its `k`-th arrival to
        /// come.
        AckOnArrival {
            part: usize,
            k: u32,
        },
        /// Wake one nanosecond before, at, or after production stops.
        AtUntil {
            offset: u8,
        },
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            3 => (0u64..6_000).prop_map(|gap_us| Step::Wake { gap_us }),
            5 => (0usize..3, 0u64..12_000, 0u8..8, 0usize..5)
                .prop_map(|(part, gap_us, how, hint)| Step::Answer { part, gap_us, how, hint }),
            3 => (0usize..3, 0u32..3).prop_map(|(part, k)| Step::AckOnArrival { part, k }),
            1 => (0u8..3).prop_map(|offset| Step::AtUntil { offset }),
        ]
    }

    /// Arrival intervals; the fixed ones divide the 2 ms batch window, so
    /// arrivals land on flush instants.
    fn interval_us() -> impl Strategy<Value = u64> {
        prop_oneof![
            2 => 300u64..3_000,
            1 => (0usize..4).prop_map(|i| [250, 400, 500, 1_000][i]),
        ]
    }

    proptest! {
        /// The lazy producer sends what the eager one sends, at the same
        /// instants, and agrees with it on pending records and counters
        /// after every step — across acks that land on an arrival, failed
        /// answers, redirects, timeouts, and the end of production.
        #[test]
        fn prop_lazy_producers_match_the_eager_model(
            (parts, interval_us, batch_max) in (1u32..4, interval_us(), 1usize..6),
            until in (0u32..3, 0u32..40),
            steps in proptest::collection::vec(step(), 1..120),
        ) {
            let rps = f64::from(parts) / Duration::from_micros(interval_us).as_secs_f64();
            let mut wl = BrokerWorkload::steady(vec![("t".into(), parts)], rps)
                .groups(0)
                .starting_at(Duration::from_millis(1));
            wl.batch_max = batch_max;
            wl.request_timeout = Duration::from_millis(25);
            let map = ShardMap::new(1, 3);
            // Production never stops, stops on one of partition 0's
            // arrivals, or stops between its arrivals.
            let grid = BrokerClient::new(&wl, map).interval;
            let first = grid.mul_f64(1.0 / f64::from(parts));
            wl.produce_for = match until.0 {
                0 => None,
                1 => Some(first + grid * (10 + until.1)),
                _ => Some(first + grid * 10 + Duration::from_micros(u64::from(until.1) * 37)),
            };
            let mut pair = Pair {
                lazy: BrokerClient::new(&wl, map),
                eager: Eager::new(&wl, map),
                sent: (Vec::new(), Vec::new()),
            };
            let stop = pair.lazy.produce_until;
            let ack = |req_id| ClusterMsg::ClientResp {
                req_id,
                result: Some(BrokerResponse::Produced { base_offset: 0, count: 0 }),
            };
            let mut now = SimTime::ZERO;
            for s in steps {
                match s {
                    Step::Wake { gap_us } => {
                        now += Duration::from_micros(gap_us);
                        pair.wake(now);
                    }
                    Step::Answer { part, gap_us, how, hint } => {
                        now += Duration::from_micros(gap_us);
                        let p = &pair.eager.producers[part % pair.eager.producers.len()];
                        let Some(req_id) = p.inflight else {
                            pair.wake(now);
                            continue;
                        };
                        let msg = match how {
                            0..=4 => ack(req_id),
                            5 | 6 => ClusterMsg::ClientResp { req_id, result: None },
                            _ => ClusterMsg::ClientRedirect {
                                req_id,
                                hint: [Some(0), Some(1), Some(2), Some(7), None][hint],
                            },
                        };
                        pair.deliver(now, &msg);
                    }
                    Step::AckOnArrival { part, k } => {
                        let p = &pair.eager.producers[part % pair.eager.producers.len()];
                        let Some(req_id) = p.inflight else {
                            continue;
                        };
                        now = now.max(p.next_arrival + grid * k);
                        pair.deliver(now, &ack(req_id));
                    }
                    Step::AtUntil { offset } => {
                        let Some(stop) = stop else {
                            continue;
                        };
                        let at = SimTime::from_nanos(stop.as_nanos() + u64::from(offset) - 1);
                        now = now.max(at);
                        pair.wake(now);
                    }
                }
                pair.assert_agrees(now);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = broker_sim(2, false, seed);
            sim.run_until(SimTime::from_secs(8));
            let stats = sim.client().unwrap().stats(sim.now());
            (
                stats.produced,
                stats.acked_records,
                stats.fetches,
                sim.net_counters(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).3, run(12).3);
    }
}
