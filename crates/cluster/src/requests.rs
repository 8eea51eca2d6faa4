//! The client-side request engine both benchmark clients drive, and the
//! leader-routing table it walks.
//!
//! A request is *live* from [`Requests::open`] until its client closes it
//! on an answer or the engine gives it up. While live it has exactly one
//! timer that can fire: every send arms a timer tagged with the request's
//! attempt, and a stale tag never fires — so a request re-sent after a
//! redirect waits a full timeout from that send, and no client wakes for a
//! request that has already closed or been re-sent. Expiry opens a routing
//! wave and retries each overdue request on the next replica of its row; a
//! redirect adopts an in-row hint or steps on. A request never leaves its
//! shard's row: the data is only there.
//!
//! Two policies differ between the clients, each encoded by the report
//! pins: the retry budget (KV: three resends; the broker retries forever,
//! see [`crate::broker`]) and where a hintless redirect walks from
//! ([`Walk`]).

use crate::msg::ClusterMsg;
use crate::slots::SlotRing;
use dynatune_kv::{App, ShardId, ShardMap};
use dynatune_raft::NodeId;
use dynatune_simnet::{Channel, HostCtx, SimTime};
use std::collections::VecDeque;
use std::time::Duration;

/// The client-side batching window of a sharded KV cluster and of the
/// broker's producers: arrivals within this span of the first pending
/// arrival ride the same per-shard batch. Small against the 100 ms server
/// RTT (at most a ~2 ms latency tax) but wide enough to coalesce under
/// load, where inter-arrival gaps shrink below it.
pub(crate) const DEFAULT_BATCH_WINDOW: Duration = Duration::from_millis(2);

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
/// [`RoutingTable::repoint`] rewrites a row when a membership change moves
/// a replica, so no rule may assume the contiguous genesis universe.
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
    /// the shard's row (hints are global host ids and may name a spare a
    /// membership change admitted, never a host of a foreign group), otherwise
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
    /// `to` (a replica move's cut-over). A leader guess pointing at `from`
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

/// Which replica a request's retries and redirects move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// Chase the shard's leader guess: a timeout rotates the guess (once
    /// per wave), a redirect rewrites it for every request of the shard.
    Leader,
    /// Stay on a replica of the request's own (a fan-out consumer's fetch
    /// replica): a timeout steps to the next replica in the row, a
    /// redirect moves only this request.
    Pinned,
}

/// Where a leader-lane redirect without a usable hint walks on from (a
/// pinned request always walks on from its own last target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// The shard's current leader guess, so hintless redirects of one
    /// shard walk its row together, one replica per redirect (KV).
    FromGuess,
    /// The replica that turned this request away (broker).
    FromTarget,
}

/// One live request.
pub(crate) struct Live<A: App, Meta> {
    /// First send instant; retries keep it (it is the invocation time).
    pub(crate) born: SimTime,
    pub(crate) shard: ShardId,
    /// Where the latest send went (for a batched request, where it was
    /// bound when it was opened).
    pub(crate) target: NodeId,
    pub(crate) lane: Lane,
    /// Sends after the first; the one timer that can fire carries it.
    pub(crate) attempt: u64,
    pub(crate) cmd: A::Command,
    /// What the owning client needs back when the request ends.
    pub(crate) meta: Meta,
}

/// The live requests of one client, their timers and the routing table
/// they walk.
pub(crate) struct Requests<A: App, Meta> {
    /// Placement rows and leader guesses every send is routed by.
    pub(crate) routes: RoutingTable,
    /// Silence after a send before the request retries; `None`: never.
    timeout: Option<Duration>,
    /// Resends a request may take before it is given up; `None`: retry
    /// forever.
    budget: Option<u64>,
    walk: Walk,
    next_id: u64,
    /// Boxed: an overload backlog leaves the ring's slack a pointer per
    /// slot, not a whole request.
    live: SlotRing<Box<Live<A, Meta>>>,
    /// `(deadline, req_id, attempt)`. A constant timeout keeps it ordered.
    /// The front entry's attempt is always live: closing a request and
    /// resending one pop the dead entries that reach the front, while one
    /// behind a live entry waits there until it comes to the front.
    timers: VecDeque<(SimTime, u64, u64)>,
}

impl<A: App, Meta> Requests<A, Meta> {
    pub(crate) fn new(
        routes: RoutingTable,
        timeout: Option<Duration>,
        budget: Option<u64>,
        walk: Walk,
    ) -> Self {
        Self {
            routes,
            timeout,
            budget,
            walk,
            next_id: 0,
            live: SlotRing::new(),
            timers: VecDeque::new(),
        }
    }

    /// A live request.
    pub(crate) fn get(&self, req_id: u64) -> Option<&Live<A, Meta>> {
        self.live.get(req_id).map(Box::as_ref)
    }

    /// Number of live requests.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// Register a request bound for `target` under a fresh id and arm its
    /// timer. The caller sends it — now, or later in a batch.
    pub(crate) fn open(
        &mut self,
        now: SimTime,
        shard: ShardId,
        target: NodeId,
        lane: Lane,
        cmd: A::Command,
        meta: Meta,
    ) -> u64 {
        let req_id = self.next_id;
        self.next_id += 1;
        let live = Live {
            born: now,
            shard,
            target,
            lane,
            attempt: 0,
            cmd,
            meta,
        };
        self.live.insert(req_id, Box::new(live));
        self.arm(now, req_id, 0);
        req_id
    }

    /// Open a request and send it to `target`.
    pub(crate) fn send(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        shard: ShardId,
        target: NodeId,
        lane: Lane,
        cmd: A::Command,
        meta: Meta,
    ) -> u64 {
        let req_id = self.open(ctx.now, shard, target, lane, cmd.clone(), meta);
        ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
        req_id
    }

    /// End a request (its answer arrived). Its timer becomes inert.
    pub(crate) fn close(&mut self, req_id: u64) -> Option<Live<A, Meta>> {
        let closed = self.live.remove(req_id).map(|r| *r);
        self.drop_dead_timers();
        closed
    }

    /// When the oldest timer that can still fire comes due.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.timers.front().map(|&(deadline, _, _)| deadline)
    }

    /// Fire every timer due by now. The silent servers may be dead, so a
    /// routing wave opens and each request whose latest send timed out is
    /// retried. Returns how many went out again and the requests given up.
    pub(crate) fn expire(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
    ) -> (u64, Vec<Live<A, Meta>>) {
        self.routes.begin_wave();
        let (mut resent, mut spent) = (0, Vec::new());
        while let Some(&(deadline, req_id, attempt)) = self.timers.front() {
            if deadline > ctx.now {
                break;
            }
            self.timers.pop_front();
            if self.live.get(req_id).is_some_and(|r| r.attempt == attempt) {
                match self.retry(ctx, req_id) {
                    Some(r) => spent.push(r),
                    None => resent += 1,
                }
            }
        }
        (resent, spent)
    }

    /// Follow a redirect of a live request: adopt the hint when it names a
    /// replica of the request's row, else step to the replica after the one
    /// [`Walk`] names. A leader-lane redirect moves the shard's guess with
    /// it even when the budget is spent and the request is given up (and
    /// returned) — the hint is news about the shard, not about the request.
    pub(crate) fn redirect(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        req_id: u64,
        hint: Option<NodeId>,
    ) -> Option<Live<A, Meta>> {
        let r = self.live.get(req_id)?;
        let from = match (r.lane, self.walk) {
            (Lane::Leader, Walk::FromGuess) => self.routes.guess(r.shard),
            _ => r.target,
        };
        let target = self.routes.hint_or_next(r.shard, hint, from);
        if r.lane == Lane::Leader {
            self.routes.set_guess(r.shard, target);
        }
        self.resend(ctx, req_id, target)
    }

    /// Retry a live request in the current wave (the caller opens it with
    /// [`RoutingTable::begin_wave`]): a leader-lane request rotates its
    /// shard's guess (once per wave) and follows it, a pinned one steps to
    /// the next replica of its row. A spent request is given up, moving
    /// neither, and returned.
    pub(crate) fn retry(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        req_id: u64,
    ) -> Option<Live<A, Meta>> {
        let r = self.live.get(req_id)?;
        if self.budget.is_some_and(|budget| r.attempt >= budget) {
            return self.close(req_id);
        }
        let target = match r.lane {
            Lane::Leader => {
                self.routes.rotate_once_per_wave(r.shard);
                self.routes.guess(r.shard)
            }
            Lane::Pinned => self.routes.next_after(r.shard, r.target),
        };
        self.resend(ctx, req_id, target)
    }

    /// Send a live request's next attempt to `target` and arm that
    /// attempt's timer, retiring the older ones — or, with the budget
    /// spent, give the request up and return it.
    fn resend(
        &mut self,
        ctx: &mut HostCtx<'_, ClusterMsg<A>>,
        req_id: u64,
        target: NodeId,
    ) -> Option<Live<A, Meta>> {
        let r = self.live.get_mut(req_id)?;
        if self.budget.is_some_and(|budget| r.attempt >= budget) {
            return self.close(req_id);
        }
        r.attempt += 1;
        r.target = target;
        let cmd = r.cmd.clone();
        let attempt = r.attempt;
        self.arm(ctx.now, req_id, attempt);
        self.drop_dead_timers();
        ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
        None
    }

    fn arm(&mut self, now: SimTime, req_id: u64, attempt: u64) {
        if let Some(timeout) = self.timeout {
            self.timers.push_back((now + timeout, req_id, attempt));
        }
    }

    /// Pop timers at the front whose attempt is no longer live, so
    /// [`Requests::next_deadline`] names one that can fire.
    fn drop_dead_timers(&mut self) {
        while let Some(&(_, req_id, attempt)) = self.timers.front() {
            if self.live.get(req_id).is_some_and(|r| r.attempt == attempt) {
                break;
            }
            self.timers.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{BrokerClient, BrokerWorkload};
    use bytes::Bytes;
    use dynatune_broker::BrokerResponse;
    use dynatune_kv::{KvCommand, KvStore};
    use dynatune_simnet::Host;

    const TIMEOUT: Duration = Duration::from_millis(100);

    type Engine = Requests<KvStore, ()>;

    /// An engine over two shards of three replicas (rows `[0, 1, 2]` and
    /// `[3, 4, 5]`) with a 100 ms timeout.
    fn engine(budget: Option<u64>) -> Engine {
        let routes = RoutingTable::new(genesis_rows(ShardMap::new(2, 3)));
        Requests::new(routes, Some(TIMEOUT), budget, Walk::FromGuess)
    }

    fn get() -> KvCommand {
        KvCommand::Get {
            key: Bytes::from_static(b"k"),
        }
    }

    /// Run `f` in a context at `ms`; returns its result and what it sent,
    /// as `(target, req_id)`.
    fn at<T>(
        ms: u64,
        f: impl FnOnce(&mut HostCtx<'_, ClusterMsg>) -> T,
    ) -> (T, Vec<(NodeId, u64)>) {
        let mut out = Vec::new();
        let result = f(&mut HostCtx::test_ctx(
            SimTime::from_millis(ms),
            0,
            &mut out,
        ));
        let sent = out
            .into_iter()
            .map(|(to, _, msg)| match msg {
                ClusterMsg::ClientReq { req_id, .. } => (to, req_id),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        (result, sent)
    }

    /// Open a leader-lane request on `shard` at `ms`, sent to its guess.
    fn send(reqs: &mut Engine, ms: u64, shard: ShardId) -> u64 {
        let target = reqs.routes.guess(shard);
        at(ms, |ctx| {
            reqs.send(ctx, shard, target, Lane::Leader, get(), ())
        })
        .0
    }

    /// Queued timers of `req_id` that can still fire.
    fn live_timers(reqs: &Engine, req_id: u64) -> usize {
        let Some(r) = reqs.get(req_id) else {
            return 0;
        };
        reqs.timers
            .iter()
            .filter(|&&(_, id, attempt)| id == req_id && attempt == r.attempt)
            .count()
    }

    #[test]
    fn one_live_timer_per_request_across_resend_and_close() {
        let mut reqs = engine(None);
        let a = send(&mut reqs, 0, 0);
        let b = send(&mut reqs, 0, 1);
        assert_eq!((live_timers(&reqs, a), live_timers(&reqs, b)), (1, 1));
        // A redirect and a failure retry each arm a new timer and retire
        // the old one.
        let (given_up, sent) = at(30, |ctx| reqs.redirect(ctx, a, None));
        assert!(given_up.is_none());
        assert_eq!(sent, [(1, a)]);
        reqs.routes.begin_wave();
        let (given_up, sent) = at(40, |ctx| reqs.retry(ctx, b));
        assert!(given_up.is_none());
        assert_eq!(sent, [(4, b)]);
        assert_eq!((live_timers(&reqs, a), live_timers(&reqs, b)), (1, 1));
        // The first sends' timers come due at 100 ms but fire nothing.
        let ((resent, spent), sent) = at(100, |ctx| reqs.expire(ctx));
        assert_eq!((resent, spent.len(), sent.len()), (0, 0, 0));
        assert_eq!(reqs.next_deadline(), Some(SimTime::from_millis(130)));
        // The redirect's own timer fires a full timeout after it.
        let ((resent, _), sent) = at(130, |ctx| reqs.expire(ctx));
        assert_eq!((resent, sent), (1, vec![(2, a)]));
        assert_eq!(live_timers(&reqs, a), 1);
        // Closing leaves no timer that can fire.
        assert!(reqs.close(b).is_some());
        assert_eq!(live_timers(&reqs, b), 0);
        let ((resent, _), sent) = at(140, |ctx| reqs.expire(ctx));
        assert_eq!((resent, sent.len()), (0, 0));
        assert!(reqs.close(a).is_some());
        let ((resent, _), sent) = at(1_000, |ctx| reqs.expire(ctx));
        assert_eq!((resent, sent.len(), reqs.next_deadline()), (0, 0, None));
    }

    #[test]
    fn next_deadline_names_a_timer_that_can_fire() {
        let mut reqs = engine(None);
        let a = send(&mut reqs, 0, 0);
        let b = send(&mut reqs, 10, 1);
        let c = send(&mut reqs, 20, 0);
        let ms = SimTime::from_millis;
        assert_eq!(reqs.next_deadline(), Some(ms(100)));
        // The front request closes: the next live attempt's timer is due.
        assert!(reqs.close(a).is_some());
        assert_eq!(reqs.next_deadline(), Some(ms(110)));
        // Re-sent, `b`'s first attempt is dead as well.
        let (given_up, _) = at(30, |ctx| reqs.redirect(ctx, b, None));
        assert!(given_up.is_none());
        assert_eq!(reqs.next_deadline(), Some(ms(120)));
        assert!(reqs.close(c).is_some());
        assert_eq!(reqs.next_deadline(), Some(ms(130)));
        assert!(reqs.close(b).is_some());
        assert_eq!(reqs.next_deadline(), None);
    }

    #[test]
    fn a_budget_of_three_abandons_on_the_fourth_expiry_and_none_never_does() {
        let mut kv = engine(Some(3));
        let mut broker = engine(None);
        let k = send(&mut kv, 0, 0);
        let b = send(&mut broker, 0, 0);
        for expiry in 1..=10 {
            let ms = expiry * TIMEOUT.as_millis() as u64;
            let ((resent, spent), sent) = at(ms, |ctx| kv.expire(ctx));
            if expiry <= 3 {
                assert_eq!((resent, spent.len()), (1, 0), "expiry {expiry}");
            } else if expiry == 4 {
                assert_eq!((resent, spent.len(), sent.len()), (0, 1, 0));
                assert_eq!(spent[0].attempt, 3, "given up after three resends");
                assert!(kv.get(k).is_none());
                // Three waves rotated the guess round the row; giving up
                // rotates nothing.
                assert_eq!(kv.routes.guess(0), 0);
            } else {
                assert_eq!((resent, spent.len()), (0, 0), "expiry {expiry}");
            }
            let ((resent, spent), _) = at(ms, |ctx| broker.expire(ctx));
            assert_eq!((resent, spent.len()), (1, 0), "expiry {expiry}");
        }
        assert_eq!(broker.get(b).map(|r| r.attempt), Some(10));
    }

    #[test]
    fn late_answers_redirects_and_timers_for_a_closed_id_are_inert() {
        let mut reqs = engine(Some(0));
        let answered = send(&mut reqs, 0, 0);
        let given_up = send(&mut reqs, 10, 1);
        assert!(reqs.close(answered).is_some());
        // A budget of zero gives up at the first expiry.
        let ((_, spent), _) = at(110, |ctx| reqs.expire(ctx));
        assert_eq!(spent.len(), 1);
        let guesses = (reqs.routes.guess(0), reqs.routes.guess(1));
        for id in [answered, given_up] {
            assert!(reqs.close(id).is_none(), "a late answer finds nothing");
            let (given_up, sent) = at(200, |ctx| reqs.redirect(ctx, id, Some(2)));
            assert!(given_up.is_none() && sent.is_empty());
            reqs.routes.begin_wave();
            let (given_up, sent) = at(200, |ctx| reqs.retry(ctx, id));
            assert!(given_up.is_none() && sent.is_empty());
        }
        let ((resent, spent), sent) = at(1_000, |ctx| reqs.expire(ctx));
        assert_eq!((resent, spent.len(), sent.len()), (0, 0, 0));
        // Nothing moved the guesses: only live requests route.
        assert_eq!((reqs.routes.guess(0), reqs.routes.guess(1)), guesses);
    }

    #[test]
    fn hintless_redirects_walk_on_from_the_guess_or_from_the_target() {
        for (walk, second) in [(Walk::FromGuess, 2), (Walk::FromTarget, 1)] {
            let mut reqs = engine(None);
            reqs.walk = walk;
            // Two leader-lane requests to replica 0, and one pinned to 2.
            let a = send(&mut reqs, 0, 0);
            let b = send(&mut reqs, 0, 0);
            let (p, _) = at(0, |ctx| reqs.send(ctx, 0, 2, Lane::Pinned, get(), ()));
            let (_, sent) = at(10, |ctx| reqs.redirect(ctx, a, None));
            assert_eq!(sent, [(1, a)], "{walk:?}");
            // The guess moved to 1: the KV walk steps on from there, the
            // broker's from the replica that turned `b` away.
            let (_, sent) = at(20, |ctx| reqs.redirect(ctx, b, None));
            assert_eq!(sent, [(second, b)], "{walk:?}");
            // A pinned request walks from its own replica, leaving the
            // guess alone; an in-row hint wins over any walk.
            let guess = reqs.routes.guess(0);
            let (_, sent) = at(30, |ctx| reqs.redirect(ctx, p, None));
            assert_eq!((sent, reqs.routes.guess(0)), (vec![(0, p)], guess));
            let (_, sent) = at(40, |ctx| reqs.redirect(ctx, p, Some(1)));
            assert_eq!((sent, reqs.routes.guess(0)), (vec![(1, p)], guess));
        }
    }

    #[test]
    fn broker_retries_count_timeouts_and_failures_not_redirects() {
        // One partition, no consumers: the only requests are produces, one
        // in flight at a time. The first arrival is due at 2.010 s and its
        // batch flushes 2 ms later.
        let workload = BrokerWorkload::steady(vec![("t".into(), 1)], 100.0).groups(0);
        let mut client = BrokerClient::new(&workload, ShardMap::new(1, 3));
        let mut out = Vec::new();
        let mut step = |ms: u64, msg: Option<crate::broker::BrokerMsg>| {
            out.clear();
            let mut ctx = HostCtx::test_ctx(SimTime::from_millis(ms), 0, &mut out);
            match msg {
                Some(msg) => client.on_message(&mut ctx, 0, msg),
                None => client.on_wake(&mut ctx),
            }
            let sent: Vec<(NodeId, u64)> = out
                .iter()
                .filter_map(|(to, _, m)| match m {
                    ClusterMsg::ClientReq { req_id, .. } => Some((*to, *req_id)),
                    _ => None,
                })
                .collect();
            let s = client.stats(SimTime::from_millis(ms));
            (sent, s.retries, s.redirects)
        };
        let (sent, ..) = step(2_012, None);
        let &[(0, id)] = &sent[..] else {
            panic!("one produce to the guess: {sent:?}");
        };
        let redirect = ClusterMsg::ClientRedirect {
            req_id: id,
            hint: Some(1),
        };
        assert_eq!(step(2_050, Some(redirect.clone())), (vec![(1, id)], 0, 1));
        let failure = ClusterMsg::ClientResp {
            req_id: id,
            result: None,
        };
        assert_eq!(step(2_060, Some(failure)), (vec![(2, id)], 1, 1));
        // The first send's and the redirect's timers are stale.
        assert_eq!(step(3_055, None), (vec![], 1, 1));
        assert_eq!(step(3_060, None), (vec![(0, id)], 2, 1));
        // Once acked, a late redirect is inert and not counted.
        let ack = ClusterMsg::ClientResp {
            req_id: id,
            result: Some(BrokerResponse::Produced {
                base_offset: 0,
                count: 1,
            }),
        };
        let (_, retries, redirects) = step(3_070, Some(ack));
        assert_eq!((retries, redirects), (2, 1));
        let (sent, retries, redirects) = step(3_071, Some(redirect));
        assert!(sent.is_empty());
        assert_eq!((retries, redirects), (2, 1));
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
