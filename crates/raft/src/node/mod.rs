//! The Raft node state machine.
//!
//! A [`RaftNode`] is a pure reactor: `step` (message), `tick` (timer) and
//! `propose` (client command) mutate it and return [`Effects`] — messages to
//! send, events to observe, entries applied. It owns no I/O and no clock;
//! the harness supplies `now` on every call, which is what lets the
//! discrete-event simulator (and property tests) drive it deterministically
//! through adversarial schedules.
//!
//! This file is the dispatcher: the node's state ([`RaftNode`], with the
//! role-owned state inside `RoleState`), construction, the read-only
//! accessors, `restart`, and the entry points `tick`, `step` and
//! `next_wake`, which route to one file per protocol:
//!
//! * `election.rs` — the election timer and its tick quantization, the
//!   pre-vote/vote campaign, the role transitions, check-quorum step-down
//!   and the vote-withholding lease;
//! * `heartbeat.rs` — the heartbeat exchange and **the Dynatune seam**: the
//!   only file where `FollowerTuner` measurements enter and `LeaderPacer`
//!   pacing decisions leave;
//! * `replication.rs` — proposals, group commit, the pipelined
//!   `AppendEntries` window, acks, commit and apply, and the leader's
//!   per-peer state: a table indexed by group-local id, walked in
//!   ascending id order, which is the order per-peer messages leave in;
//! * `reads.rs` — log-free reads: the leader lease and ReadIndex rounds;
//! * `confchange.rs` — joint-consensus configuration changes and the
//!   membership frame stack;
//! * `snapshot.rs` — `InstallSnapshot` transfer and log compaction.
//!
//! Every outbound message is built by `send` below.
//!
//! Faithfulness notes (matched to etcd's raft, the paper's base system):
//!
//! * **Randomized election timeout**: a factor `f ~ U[1, 2)` is drawn on
//!   every role change / campaign round; the effective timeout is
//!   `f · Et(t)` where `Et(t)` is the *current* (possibly tuned) election
//!   timeout — so Dynatune's adapted Et immediately shifts the timeout, as
//!   in the paper's Fig. 6 randomizedTimeout traces.
//! * **Tick quantization** (default): expiry is observed at the first
//!   multiple of the tick period (= expected heartbeat interval) at or
//!   after the deadline, like etcd's tick-driven timers.
//! * **Pre-vote + check-quorum lease**: pre-votes do not disturb terms;
//!   votes are ignored while a leader lease is active; a pre-candidate
//!   reverts to follower on leader contact (the paper's Fig. 6b "false
//!   detection without OTS" path); leaders step down when a quorum has been
//!   silent for an election timeout.
//! * **Dynatune integration**: followers run a [`FollowerTuner`] fed by
//!   heartbeat metadata; leaders run one `LeaderPacer` per follower (n−1
//!   independent heartbeat timers, §III-B); on election-timer expiry the
//!   tuner is reset to conservative defaults (§III-B fallback).

mod confchange;
mod election;
mod heartbeat;
mod reads;
mod replication;
mod snapshot;

pub use confchange::{ConfChangeError, PROMOTION_SLACK};

use crate::config::RaftConfig;
use crate::log::RaftLog;
use crate::membership::Membership;
use crate::message::{OutMsg, Payload};
use crate::state_machine::{Effects, StateMachine};
use crate::types::{LogIndex, NodeId, Role, Term};
use confchange::MembershipFrame;
use dynatune_core::FollowerTuner;
use dynatune_simnet::rng::Rng;
use dynatune_simnet::SimTime;
use election::Campaign;
use replication::LeaderState;

/// Error returned when proposing to a non-leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeader {
    /// The leader this node believes in, if any (client redirect hint).
    pub hint: Option<NodeId>,
}

/// Effects alias bound to a state machine.
pub type NodeEffects<SM> = Effects<
    <SM as StateMachine>::Command,
    <SM as StateMachine>::Response,
    <SM as StateMachine>::Snapshot,
>;

/// Payload alias bound to a state machine.
pub type NodePayload<SM> = Payload<<SM as StateMachine>::Command, <SM as StateMachine>::Snapshot>;

/// The one place an outbound message is built: `payload` goes to `to` over
/// the channel the hybrid transport (§III-E) assigns its kind.
fn send<C, R, S>(
    config: &RaftConfig,
    fx: &mut Effects<C, R, S>,
    to: NodeId,
    payload: Payload<C, S>,
) {
    let channel = payload.channel(config.udp_heartbeats);
    fx.messages.push(OutMsg {
        to,
        channel,
        payload,
    });
}

/// The role a node plays, holding the state only that role owns. Campaign
/// and leader bookkeeping live *inside* their variant, so they cannot exist
/// in the wrong role: the transition into the role builds the value
/// (`handle_election_timeout` opens a [`Campaign`], `become_leader` a
/// [`LeaderState`]) and overwriting the variant — `become_follower`,
/// `become_leader`, `restart` — drops every piece of it at once.
enum RoleState {
    Follower,
    /// Pre-candidate or candidate, per [`Campaign::pre_vote`].
    Campaigning(Campaign),
    Leader(LeaderState),
}

/// A single Raft server.
pub struct RaftNode<SM: StateMachine> {
    config: RaftConfig,
    // --- persistent state (survives crash-recovery) ---
    term: Term,
    voted_for: Option<NodeId>,
    log: RaftLog<SM::Command>,
    /// Membership frame stack, ascending by index, never empty. Derived
    /// from persistent state (genesis config + conf entries in the log +
    /// snapshot boundary), so it survives crash-recovery with the log.
    frames: Vec<MembershipFrame>,
    /// The applied state, durable like a disk-based state machine's: a
    /// crash keeps it, so compaction only drops the log prefix and a
    /// snapshot is cut only to stream one (`send_snapshot`).
    sm: SM,
    last_applied: LogIndex,
    // --- volatile state ---
    state: RoleState,
    leader_id: Option<NodeId>,
    commit_index: LogIndex,
    /// Count of `InstallSnapshot` messages this node has sent as leader.
    snapshots_sent: u64,
    // --- election timer ---
    timer_reset_at: SimTime,
    timeout_factor: f64,
    /// Phase of this node's free-running tick grid, as a fraction of the
    /// tick period. etcd's ticker runs from process start, so different
    /// servers observe expiry on differently-phased grids — without this,
    /// identically-paced followers would expire in lock step and every
    /// election would split.
    tick_phase: f64,
    // --- Dynatune follower side ---
    tuner: FollowerTuner,
    /// Last issued ReadIndex confirmation token (`read_ctx` values count up
    /// from 1). It counts for the life of the process, not per leadership,
    /// so a token is never reused.
    read_seq: u64,
    rng: Rng,
}

impl<SM: StateMachine> RaftNode<SM> {
    /// Create a node at term 0, follower, election timer armed from `now`.
    ///
    /// # Panics
    /// Panics when the configuration is invalid.
    pub fn new(config: RaftConfig, sm: SM, now: SimTime) -> Self {
        config.validate();
        let mut rng = Rng::new(config.seed);
        let timeout_factor = 1.0 + rng.f64();
        let tick_phase = rng.f64();
        let frames = vec![MembershipFrame {
            index: 0,
            term: 0,
            membership: Membership::initial(&config.peers, &[]),
        }];
        Self {
            tuner: FollowerTuner::new(config.tuning),
            term: 0,
            voted_for: None,
            log: RaftLog::new(),
            frames,
            state: RoleState::Follower,
            leader_id: None,
            commit_index: 0,
            last_applied: 0,
            sm,
            snapshots_sent: 0,
            timer_reset_at: now,
            timeout_factor,
            tick_phase,
            read_seq: 0,
            rng,
            config,
        }
    }

    /// The redirect a non-leader answers proposals and reads with.
    fn not_leader(&self) -> NotLeader {
        NotLeader {
            hint: self.leader_id,
        }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.config.id
    }

    /// Current role.
    #[must_use]
    pub fn role(&self) -> Role {
        match &self.state {
            RoleState::Follower => Role::Follower,
            RoleState::Campaigning(c) if c.pre_vote => Role::PreCandidate,
            RoleState::Campaigning(_) => Role::Candidate,
            RoleState::Leader(_) => Role::Leader,
        }
    }

    /// Current term.
    #[must_use]
    pub fn term(&self) -> Term {
        self.term
    }

    /// The leader this node currently recognises.
    #[must_use]
    pub fn leader_id(&self) -> Option<NodeId> {
        self.leader_id
    }

    /// Current commit index.
    #[must_use]
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// Index of the last applied entry.
    #[must_use]
    pub fn last_applied(&self) -> LogIndex {
        self.last_applied
    }

    /// The application state machine.
    #[must_use]
    pub fn state_machine(&self) -> &SM {
        &self.sm
    }

    /// The replicated log (read-only).
    #[must_use]
    pub fn log(&self) -> &RaftLog<SM::Command> {
        &self.log
    }

    /// `InstallSnapshot` messages sent by this node as leader (observable).
    #[must_use]
    pub fn snapshots_sent(&self) -> u64 {
        self.snapshots_sent
    }

    /// The node's configuration.
    #[must_use]
    pub fn config(&self) -> &RaftConfig {
        &self.config
    }

    /// Earliest instant this node needs a `tick` call.
    #[must_use]
    pub fn next_wake(&self) -> Option<SimTime> {
        let RoleState::Leader(lead) = &self.state else {
            return Some(self.election_deadline());
        };
        let mut earliest = lead.lease_check_at;
        if let Some(deadline) = lead.batch_deadline {
            earliest = earliest.min(deadline);
        }
        for peer in lead.peers.values() {
            earliest = earliest.min(SimTime::from_nanos(peer.pacer.next_send_nanos()));
            // The resend timer watches the oldest unacked send; younger
            // pipeline slots ride on its recovery.
            if let Some(oldest) = peer.progress.oldest_sent_at() {
                earliest = earliest.min(oldest + self.resend_after(&peer.progress));
            }
        }
        Some(earliest)
    }

    /// Timer-driven processing. The harness calls this at `next_wake`.
    pub fn tick(&mut self, now: SimTime) -> NodeEffects<SM> {
        let mut fx = Effects::new();
        if self.role() == Role::Leader {
            self.leader_tick(now, &mut fx);
        } else if now >= self.election_deadline() {
            self.handle_election_timeout(now, &mut fx);
        }
        fx
    }

    /// A leader's timers: heartbeats, the group-commit flush, replication
    /// resends, then check-quorum — last, because it may depose this node.
    /// The order fixes the order messages are emitted in.
    fn leader_tick(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        self.send_due_heartbeats(now, fx);
        self.flush_due_batch(now, fx);
        self.resend_stalled(now, fx);
        self.check_quorum(now, fx);
    }

    /// Process one inbound message.
    pub fn step(
        &mut self,
        now: SimTime,
        from: NodeId,
        payload: NodePayload<SM>,
    ) -> NodeEffects<SM> {
        let mut fx = Effects::new();
        // Generic higher-term handling (pre-vote traffic excluded: pre-vote
        // requests carry a *prospective* term; pre-vote rejections carry the
        // rejecter's real term and do depose stale state).
        match &payload {
            Payload::RequestVote(rv) if rv.pre_vote => {}
            Payload::RequestVote(rv) => {
                // etcd's in-lease check runs BEFORE term adoption: a vote at
                // a higher term must not even bump our term while a live
                // leader lease holds, or disruptive servers could force
                // unnecessary elections.
                if self.in_lease(now) {
                    return fx;
                }
                if rv.term > self.term {
                    self.become_follower(now, rv.term, None, &mut fx);
                }
            }
            Payload::RequestVoteResp(r) if r.pre_vote => {
                if r.term > self.term && !r.granted {
                    self.become_follower(now, r.term, None, &mut fx);
                }
            }
            other => {
                let msg_term = other.term();
                if msg_term > self.term {
                    let leader = match other {
                        Payload::Heartbeat(_)
                        | Payload::AppendEntries(_)
                        | Payload::InstallSnapshot(_) => Some(from),
                        _ => None,
                    };
                    self.become_follower(now, msg_term, leader, &mut fx);
                }
            }
        }
        match payload {
            Payload::Heartbeat(hb) => self.on_heartbeat(now, from, hb, &mut fx),
            Payload::HeartbeatResp(resp) => self.on_heartbeat_resp(now, from, resp, &mut fx),
            Payload::AppendEntries(ae) => self.on_append_entries(now, from, ae, &mut fx),
            Payload::AppendResp(resp) => self.on_append_resp(now, from, resp, &mut fx),
            Payload::InstallSnapshot(snap) => self.on_install_snapshot(now, from, snap, &mut fx),
            Payload::RequestVote(rv) => self.on_request_vote(now, from, rv, &mut fx),
            Payload::RequestVoteResp(resp) => self.on_vote_resp(now, from, resp, &mut fx),
        }
        fx
    }

    /// Restart after a crash. Term, vote, log and the applied state
    /// survive, as etcd keeps its backend and consistent index; everything
    /// applied was committed, so the commit index resumes at `last_applied`.
    /// Role, leader, read sequence, tuner and election timer reset.
    pub fn restart(&mut self, now: SimTime) {
        self.state = RoleState::Follower;
        self.read_seq = 0;
        self.leader_id = None;
        self.commit_index = self.last_applied;
        self.tuner.reset();
        self.reset_election_timer(now, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{AppendEntries, AppendResp, Heartbeat, RequestVoteResp};
    use crate::state_machine::NullStateMachine;
    use dynatune_core::TuningConfig;
    use std::time::Duration;

    pub(super) type Node = RaftNode<NullStateMachine>;

    pub(super) fn node(id: NodeId, n: usize) -> Node {
        let config = RaftConfig::new(id, n, TuningConfig::raft_default());
        RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO)
    }

    pub(super) fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Drive `node` through a full self-election by faking peer responses.
    pub(super) fn elect<SM: StateMachine>(
        node: &mut RaftNode<SM>,
        now: SimTime,
    ) -> NodeEffects<SM> {
        let mut fx = Effects::new();
        // Fire the election timer.
        let deadline = node.election_deadline();
        let t = deadline.max(now);
        fx.extend(node.tick(t));
        assert_eq!(node.role(), Role::PreCandidate);
        let campaign = node.term() + 1;
        // Grant pre-votes from a majority of peers.
        for peer in 1..node.config().cluster_size() {
            fx.extend(node.step(
                t,
                peer,
                Payload::RequestVoteResp(RequestVoteResp {
                    term: campaign,
                    pre_vote: true,
                    granted: true,
                }),
            ));
            if node.role() != Role::PreCandidate {
                break;
            }
        }
        assert!(matches!(node.role(), Role::Candidate | Role::Leader));
        let term = node.term();
        for peer in 1..node.config().cluster_size() {
            if node.role() == Role::Leader {
                break;
            }
            fx.extend(node.step(
                t,
                peer,
                Payload::RequestVoteResp(RequestVoteResp {
                    term,
                    pre_vote: false,
                    granted: true,
                }),
            ));
        }
        assert_eq!(node.role(), Role::Leader);
        fx
    }

    #[test]
    fn starts_as_follower_with_armed_timer() {
        let n = node(0, 5);
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.term(), 0);
        assert_eq!(n.leader_id(), None);
        let wake = n.next_wake().unwrap();
        // Raft defaults: Et=1000ms, tick=100ms, factor in [1,2) → deadline
        // within one tick above the randomized timeout.
        assert!(wake >= ms(1000) && wake <= ms(2100), "wake = {wake}");
        assert!(wake >= SimTime::ZERO + n.randomized_timeout());
        assert!(wake <= SimTime::ZERO + n.randomized_timeout() + Duration::from_millis(100));
    }

    #[test]
    fn restart_preserves_log_and_term_but_resets_volatile() {
        let config = RaftConfig::new(1, 3, TuningConfig::dynatune());
        let mut n = RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO);
        let hb = |id: u64, t: SimTime, commit: LogIndex| {
            Payload::Heartbeat(Heartbeat {
                term: 4,
                leader: 0,
                commit,
                meta: dynatune_core::HeartbeatMeta {
                    id,
                    sent_at_nanos: t.as_nanos(),
                    rtt_sample: Some(Duration::from_millis(50)),
                },
            })
        };
        let append = |index: LogIndex, value: u64| {
            Payload::AppendEntries(AppendEntries {
                term: 4,
                leader: 0,
                prev_log_index: index - 1,
                prev_log_term: if index > 1 { 4 } else { 0 },
                entries: vec![crate::log::Entry::normal(4, index, Some(value))],
                leader_commit: index,
                read_ctx: None,
            })
        };
        // Warm the tuner, then commit and apply entry 1.
        let mut t = ms(10);
        for i in 0..20u64 {
            let _ = n.step(t, 0, hb(i, t, 0));
            t += Duration::from_millis(100);
        }
        assert!(n.tuning_snapshot().warmed);
        let _ = n.step(t, 0, append(1, 11));
        assert_eq!(n.commit_index(), 1);
        assert_eq!(n.leader_id(), Some(0));
        let applied_before = n.state_machine().applied.clone();
        assert_eq!(applied_before.len(), 1);

        n.restart(t + Duration::from_millis(100));
        assert_eq!(n.term(), 4, "term persists");
        assert_eq!(n.log().last_index(), 1, "log persists");
        assert_eq!(n.last_applied(), 1, "the applied index persists");
        assert_eq!(n.commit_index(), n.last_applied(), "commit resumes there");
        assert_eq!(n.state_machine().applied, applied_before, "SM kept");
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.leader_id(), None, "leader is volatile");
        assert!(!n.tuning_snapshot().warmed, "tuner resets");
        assert_eq!(n.tuning_snapshot().rtt_samples, 0);
        // The leader re-announcing commit 1 applies nothing a second time;
        // the next entry applies from index 2.
        let t = t + Duration::from_millis(200);
        let fx = n.step(t, 0, hb(20, t, 1));
        assert!(fx.applied.is_empty(), "no replay: {:?}", fx.applied);
        let fx = n.step(t, 0, append(2, 12));
        assert_eq!(fx.applied.len(), 1);
        assert_eq!(fx.applied[0].index, 2);
        assert_eq!(n.state_machine().applied, vec![(1, 11), (2, 12)]);
    }

    /// Elect `node` leader of 3 and commit `count` commands by acking from
    /// follower 1. Returns the commit index reached.
    pub(super) fn leader_with_committed(node: &mut Node, count: u64) -> LogIndex {
        let _ = elect(node, SimTime::ZERO);
        let t = ms(3000);
        for v in 0..count {
            let (res, _) = node.propose(t, v);
            res.unwrap();
        }
        let last = node.log().last_index();
        let _ = node.step(
            t,
            1,
            Payload::AppendResp(AppendResp {
                term: node.term(),
                success: true,
                match_or_hint: last,
                read_ctx: None,
            }),
        );
        assert_eq!(node.commit_index(), last);
        assert_eq!(node.last_applied(), last);
        last
    }

    /// Leader of 3 with a custom pipeline window, its no-op acked by both
    /// followers (pipes idle), at `t = 3000 ms`.
    pub(super) fn leader3_with_window(window: usize) -> (Node, SimTime) {
        let mut config = RaftConfig::new(0, 3, TuningConfig::raft_default());
        config.pipeline_window = window;
        let mut n = RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO);
        let _ = elect(&mut n, SimTime::ZERO);
        let t = ms(3000);
        let last = n.log().last_index();
        for peer in [1, 2] {
            let _ = n.step(
                t,
                peer,
                Payload::AppendResp(AppendResp {
                    term: n.term(),
                    success: true,
                    match_or_hint: last,
                    read_ctx: None,
                }),
            );
        }
        assert_eq!(n.commit_index(), last);
        (n, t)
    }

    /// The `AppendEntries` messages in `fx` addressed to `to`.
    pub(super) fn appends_to(
        fx: &NodeEffects<NullStateMachine>,
        to: NodeId,
    ) -> Vec<&AppendEntries<u64>> {
        fx.messages
            .iter()
            .filter(|m| m.to == to)
            .filter_map(|m| match &m.payload {
                Payload::AppendEntries(ae) => Some(ae),
                _ => None,
            })
            .collect()
    }
}
