//! Open-loop benchmark client host (§IV-B2 methodology).

use crate::app::KvApp;
use crate::msg::ClusterMsg;
use crate::sim::Client;
use bytes::Bytes;
use dynatune_kv::{KvCommand, KvResponse, WorkloadGen};
use dynatune_raft::NodeId;
use dynatune_simnet::{Channel, HostCtx, SimTime};
use dynatune_stats::OnlineStats;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

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

#[derive(Debug, Clone)]
struct Outstanding {
    sent_at: SimTime,
    send_step: usize,
    retries: u8,
    cmd: dynatune_kv::KvCommand,
}

/// Maximum redirect/timeout-driven retries per request.
const MAX_RETRIES: u8 = 3;

/// An open-loop client: sends according to the workload schedule regardless
/// of completions, follows leader redirects, records per-step latency.
///
/// Completions are bucketed by *completion* time, matching how an open-loop
/// benchmark measures throughput per offered-load level: work that spills
/// past a level's window must not be credited to it, otherwise a saturated
/// server that eventually drains its backlog would appear to keep up.
pub struct ClientHost {
    workload: WorkloadGen,
    leader_guess: NodeId,
    n_servers: usize,
    next_req_id: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    steps: Vec<StepRecord>,
    /// End instant of each step's window.
    step_ends: Vec<SimTime>,
    /// Completions after the last window closed.
    late: u64,
    /// Per-request response timeout; expired requests retry on the next
    /// server (round robin). `None` disables timeouts.
    request_timeout: Option<Duration>,
    /// FIFO of `(deadline, req_id)` for timeout checks (constant timeout ⇒
    /// deadlines are naturally ordered).
    timeout_queue: VecDeque<(SimTime, u64)>,
    /// Requests that exhausted their retry budget via timeouts.
    timed_out: u64,
    /// Spread reads round-robin over all servers instead of sending them
    /// to the leader guess (follower-read offload). Writes always chase
    /// the leader.
    read_fanout: bool,
    /// Round-robin cursor for `read_fanout`.
    read_rr: usize,
    /// Record completed `Get`/`Put` operations for linearizability checks.
    record_trace: bool,
    /// The recorded trace (empty unless `record_trace`).
    trace: Vec<OpRecord>,
}

impl ClientHost {
    /// Create a client that initially guesses server 0 as leader; the
    /// workload's schedule starts at `start`.
    #[must_use]
    pub fn new(workload: WorkloadGen, n_servers: usize, start: SimTime) -> Self {
        let steps: Vec<StepRecord> = workload
            .steps()
            .iter()
            .map(|s| StepRecord {
                offered_rps: s.rps,
                hold_secs: s.hold.as_secs_f64(),
                ..StepRecord::default()
            })
            .collect();
        let mut step_ends = Vec::with_capacity(steps.len());
        let mut t = start;
        for s in workload.steps() {
            t += s.hold;
            step_ends.push(t);
        }
        Self {
            workload,
            leader_guess: 0,
            n_servers,
            next_req_id: 0,
            outstanding: BTreeMap::new(),
            steps,
            step_ends,
            late: 0,
            request_timeout: Some(Duration::from_secs(1)),
            timeout_queue: VecDeque::new(),
            timed_out: 0,
            read_fanout: false,
            read_rr: 0,
            record_trace: false,
            trace: Vec::new(),
        }
    }

    /// Override (or disable) the per-request response timeout.
    #[must_use]
    pub fn with_request_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Spread reads round-robin across every server (writes still chase
    /// the leader). Pointless under [`ReadStrategy::Log`]
    /// (non-leaders redirect) — pair with follower reads.
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

    /// Requests abandoned after exhausting timeout retries.
    #[must_use]
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }

    /// Per-step results (valid after the run).
    #[must_use]
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Requests still in flight (unanswered at the end of a run).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Completions that landed after the schedule's last window.
    #[must_use]
    pub fn late_completions(&self) -> u64 {
        self.late
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

    /// Retry (or abandon) requests whose responses are overdue. A paused
    /// leader never answers, so without this a client would keep feeding a
    /// dead node for the entire outage.
    fn expire_timeouts(&mut self, ctx: &mut HostCtx<'_, ClusterMsg>) {
        // The silent server may be dead: rotate the guess once per expiry
        // wave (not per request, or a burst would spray across the cluster).
        let mut rotated = false;
        while let Some(&(deadline, req_id)) = self.timeout_queue.front() {
            if deadline > ctx.now {
                break;
            }
            self.timeout_queue.pop_front();
            let Some(o) = self.outstanding.get_mut(&req_id) else {
                continue; // already answered
            };
            if o.retries >= MAX_RETRIES {
                let step = o.send_step;
                self.outstanding.remove(&req_id);
                self.steps[step].failed += 1;
                self.timed_out += 1;
                continue;
            }
            o.retries += 1;
            if !rotated {
                self.leader_guess = (self.leader_guess + 1) % self.n_servers;
                rotated = true;
            }
            let cmd = o.cmd.clone();
            let target = self.leader_guess;
            ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
            self.arm_timeout(ctx.now, req_id);
        }
    }
}

impl Client<KvApp> for ClientHost {
    /// Send every arrival whose time has come and expire overdue requests.
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
            let req_id = self.next_req_id;
            self.next_req_id += 1;
            self.outstanding.insert(
                req_id,
                Outstanding {
                    sent_at: ctx.now,
                    send_step: step,
                    retries: 0,
                    cmd: cmd.clone(),
                },
            );
            self.steps[step].sent += 1;
            self.arm_timeout(ctx.now, req_id);
            let target = if self.read_fanout && cmd.is_read() {
                self.read_rr = (self.read_rr + 1) % self.n_servers;
                self.read_rr
            } else {
                self.leader_guess
            };
            ctx.send(target, Channel::Tcp, ClusterMsg::ClientReq { req_id, cmd });
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
                    if self.record_trace {
                        if let Some(resp) = &result {
                            if let Some(rec) = op_record(&o.cmd, resp, o.sent_at, ctx.now) {
                                self.trace.push(rec);
                            }
                        }
                    }
                    // Bucket by completion time; spill-over past the last
                    // window is recorded separately.
                    match (result.is_some(), self.step_of(ctx.now)) {
                        (true, Some(step)) => {
                            let rec = &mut self.steps[step];
                            rec.completed += 1;
                            let ms = (ctx.now - o.sent_at).as_secs_f64() * 1e3;
                            rec.latency_ms.push(ms);
                        }
                        (true, None) => self.late += 1,
                        (false, _) => self.steps[o.send_step].failed += 1,
                    }
                }
            }
            ClusterMsg::ClientRedirect { req_id, hint, cmd } => {
                let Some(o) = self.outstanding.get_mut(&req_id) else {
                    return;
                };
                // Adopt the hint, or probe round-robin when there is none.
                self.leader_guess = match hint {
                    Some(h) => h,
                    None => (self.leader_guess + 1) % self.n_servers,
                };
                if o.retries >= MAX_RETRIES {
                    let step = o.send_step;
                    self.outstanding.remove(&req_id);
                    self.steps[step].failed += 1;
                    return;
                }
                o.retries += 1;
                let target = self.leader_guess;
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

    /// Next workload arrival or timeout check, whichever is sooner.
    fn wake_deadline(&self) -> Option<SimTime> {
        let arrival = self.workload.peek_next();
        let timeout = self.timeout_queue.front().map(|&(d, _)| d);
        match (arrival, timeout) {
            (Some(a), Some(t)) => Some(a.min(t)),
            (a, t) => a.or(t),
        }
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
    use dynatune_kv::{KvCommand, KvResponse, OpMix, RateStep};
    use dynatune_simnet::rng::Rng;
    use std::time::Duration;

    fn client(rps: f64, secs: u64) -> ClientHost {
        let wl = WorkloadGen::new(
            vec![RateStep {
                rps,
                hold: Duration::from_secs(secs),
            }],
            OpMix::write_heavy(),
            100,
            0.99,
            16,
            Rng::new(5),
            SimTime::ZERO,
        );
        ClientHost::new(wl, 3, SimTime::ZERO)
    }

    #[test]
    fn sends_requests_on_schedule() {
        let mut c = client(100.0, 1);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_secs(1), 0, &mut out);
        c.handle_wake(&mut ctx);
        // All arrivals in [0, 1s) fire at once when woken late.
        assert!(out.len() > 50, "sent {}", out.len());
        assert_eq!(c.outstanding(), out.len());
        assert!(out.iter().all(|(to, _, _)| *to == 0), "initial guess is 0");
        assert_eq!(c.steps()[0].sent, out.len() as u64);
    }

    #[test]
    fn completion_records_latency() {
        let mut c = client(100.0, 1);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        let (_, _, first) = &out[0];
        let req_id = match first {
            ClusterMsg::ClientReq { req_id, .. } => *req_id,
            other => panic!("unexpected {other:?}"),
        };
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(150), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            0,
            ClusterMsg::ClientResp {
                req_id,
                result: Some(KvResponse::Put {
                    prev: None,
                    revision: 1,
                }),
            },
        );
        assert_eq!(c.steps()[0].completed, 1);
        assert!(c.steps()[0].latency_ms.mean() > 0.0);
        assert!(c.steps()[0].latency_ms.mean() <= 150.0);
    }

    #[test]
    fn redirect_retries_with_hint() {
        let mut c = client(50.0, 1);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        let req_id = match &out[0].2 {
            ClusterMsg::ClientReq { req_id, .. } => *req_id,
            other => panic!("unexpected {other:?}"),
        };
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(110), 0, &mut out2);
        c.handle_message(
            &mut ctx,
            0,
            ClusterMsg::ClientRedirect {
                req_id,
                hint: Some(2),
                cmd: KvCommand::Get {
                    key: bytes::Bytes::from_static(b"k"),
                },
            },
        );
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].0, 2, "resent to the hinted leader");
        // Subsequent requests go to the new guess too.
        let mut out3 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(500), 0, &mut out3);
        c.handle_wake(&mut ctx);
        assert!(out3.iter().all(|(to, _, _)| *to == 2));
    }

    #[test]
    fn silent_server_triggers_timeout_retry() {
        let mut c = client(100.0, 1).with_request_timeout(Some(Duration::from_millis(200)));
        let mut out = Vec::new();
        // Deliver all arrivals of the first 100ms in one late wake.
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        let sent_initially = out.len();
        assert!(
            sent_initially > 0,
            "100ms at 100rps should produce arrivals"
        );
        // Next wake must include the timeout deadline (t=300ms).
        let wake = c.wake_deadline().unwrap();
        assert!(wake <= SimTime::from_millis(300), "wake {wake}");
        // Nothing answered; by 350ms those requests retry on server 1.
        let mut out2 = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(350), 0, &mut out2);
        c.handle_wake(&mut ctx);
        let retries = out2
            .iter()
            .filter(|(to, _, m)| matches!(m, ClusterMsg::ClientReq { .. }) && *to == 1)
            .count();
        assert!(
            retries >= sent_initially,
            "timed-out requests retry on the next server: {retries} < {sent_initially}"
        );
    }

    #[test]
    fn timeout_budget_exhausts_to_failure() {
        let mut c = client(100.0, 1).with_request_timeout(Some(Duration::from_millis(100)));
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        assert!(c.outstanding() > 0);
        // Walk time forward through all retry budgets without any response.
        for secs in 1..=10u64 {
            let mut o = Vec::new();
            let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100 + secs * 200), 0, &mut o);
            c.expire_timeouts(&mut ctx);
        }
        assert!(c.timed_out() > 0, "requests should give up eventually");
        assert_eq!(c.outstanding(), 0);
        assert_eq!(c.steps()[0].failed, c.timed_out());
    }

    #[test]
    fn retry_budget_exhausts_to_failure() {
        let mut c = client(50.0, 1);
        let mut out = Vec::new();
        let mut ctx = HostCtx::test_ctx(SimTime::from_millis(100), 0, &mut out);
        c.handle_wake(&mut ctx);
        let req_id = match &out[0].2 {
            ClusterMsg::ClientReq { req_id, .. } => *req_id,
            other => panic!("unexpected {other:?}"),
        };
        for i in 0..=u64::from(MAX_RETRIES) {
            let mut o = Vec::new();
            let mut ctx = HostCtx::test_ctx(SimTime::from_millis(110 + i), 0, &mut o);
            c.handle_message(
                &mut ctx,
                0,
                ClusterMsg::ClientRedirect {
                    req_id,
                    hint: None,
                    cmd: KvCommand::Get {
                        key: bytes::Bytes::from_static(b"k"),
                    },
                },
            );
        }
        assert_eq!(c.steps()[0].failed, 1);
        assert!(!c.outstanding.contains_key(&req_id));
    }
}
