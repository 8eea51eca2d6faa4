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
use crate::state_machine::{Effects, Snapshot, StateMachine};
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
    // --- volatile state ---
    state: RoleState,
    leader_id: Option<NodeId>,
    commit_index: LogIndex,
    last_applied: LogIndex,
    sm: SM,
    /// The retained state-machine snapshot, refreshed on every compaction
    /// and on snapshot installs. Persistent (like the log): once the log
    /// prefix is gone, crash-recovery rebuilds the state machine from here
    /// instead of replaying from index 1.
    snap: Option<Snapshot<SM::Snapshot>>,
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
            membership: Membership::initial(&config.peers, &config.learners),
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
            snap: None,
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

    /// The retained snapshot backing the compacted log prefix, if any.
    #[must_use]
    pub fn retained_snapshot(&self) -> Option<&Snapshot<SM::Snapshot>> {
        self.snap.as_ref()
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

    /// Restart after a crash: persistent state (term, vote, log, retained
    /// snapshot) survives; volatile state resets. The state machine is
    /// rebuilt from the retained snapshot (when the log was ever compacted,
    /// replay from index 1 is impossible) plus replay as entries re-commit.
    pub fn restart(&mut self, now: SimTime, fresh_sm: SM) {
        self.state = RoleState::Follower;
        self.read_seq = 0;
        self.leader_id = None;
        self.sm = fresh_sm;
        if let Some(snap) = &self.snap {
            self.sm.restore(&snap.data);
            self.commit_index = snap.last_included_index;
            self.last_applied = snap.last_included_index;
        } else {
            self.commit_index = 0;
            self.last_applied = 0;
        }
        self.tuner.reset();
        self.reset_election_timer(now, true);
    }
}

#[cfg(test)]
mod tests {
    use super::replication::{APPEND_RESEND, MAX_BATCH_DELAY};
    use super::*;
    use crate::config::TimerQuantization;
    use crate::events::RaftEvent;
    use crate::membership::ConfChange;
    use crate::message::{
        AppendEntries, AppendResp, Heartbeat, HeartbeatResp, InstallSnapshot, RequestVote,
        RequestVoteResp,
    };
    use crate::state_machine::{NullStateMachine, ReadGrant, ReadPath};
    use dynatune_core::TuningConfig;
    use std::time::Duration;

    type Node = RaftNode<NullStateMachine>;

    fn node(id: NodeId, n: usize) -> Node {
        let config = RaftConfig::new(id, n, TuningConfig::raft_default());
        RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO)
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Drive `node` through a full self-election by faking peer responses.
    fn elect(node: &mut Node, now: SimTime) -> NodeEffects<NullStateMachine> {
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
    fn election_timeout_starts_pre_vote_and_emits_events() {
        let mut n = node(0, 5);
        let deadline = n.election_deadline();
        let fx = n.tick(deadline);
        assert_eq!(n.role(), Role::PreCandidate);
        assert_eq!(n.term(), 0, "pre-vote must not bump the term");
        let kinds: Vec<&str> = fx.events.iter().map(RaftEvent::kind).collect();
        assert!(kinds.contains(&"election_timeout"));
        assert!(kinds.contains(&"pre_vote_started"));
        // Pre-vote requests to all 4 peers.
        let pre_votes = fx
            .messages
            .iter()
            .filter(|m| m.payload.kind() == "pre_vote")
            .count();
        assert_eq!(pre_votes, 4);
    }

    #[test]
    fn tick_before_deadline_is_noop() {
        let mut n = node(0, 5);
        let fx = n.tick(ms(10));
        assert!(fx.events.is_empty());
        assert!(fx.messages.is_empty());
        assert_eq!(n.role(), Role::Follower);
    }

    #[test]
    fn full_election_produces_leader_and_noop_entry() {
        let mut n = node(0, 5);
        let fx = elect(&mut n, SimTime::ZERO);
        assert_eq!(n.role(), Role::Leader);
        assert_eq!(n.term(), 1);
        assert_eq!(n.leader_id(), Some(0));
        assert_eq!(n.log().last_index(), 1, "no-op appended");
        // Replication of the no-op goes out to every follower.
        let appends = fx
            .messages
            .iter()
            .filter(|m| m.payload.kind() == "append")
            .count();
        assert_eq!(appends, 4);
        let kinds: Vec<&str> = fx.events.iter().map(RaftEvent::kind).collect();
        assert!(kinds.contains(&"election_started"));
        assert!(kinds.contains(&"became_leader"));
    }

    #[test]
    fn single_node_cluster_elects_and_commits_alone() {
        let mut n = node(0, 1);
        let deadline = n.election_deadline();
        let _ = n.tick(deadline);
        assert_eq!(n.role(), Role::Leader);
        let (res, fx) = n.propose(deadline, 42);
        let (term, index) = res.unwrap();
        assert_eq!(term, 1);
        assert_eq!(index, 2);
        // Committed immediately (quorum of 1).
        assert_eq!(n.commit_index(), 2);
        assert_eq!(fx.applied.len(), 1);
        assert_eq!(fx.applied[0].response, Some(2));
    }

    #[test]
    fn propose_on_follower_returns_redirect() {
        let mut n = node(1, 3);
        // Learn about a leader via heartbeat.
        let hb = Heartbeat {
            term: 1,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let _ = n.step(ms(1), 0, Payload::Heartbeat(hb));
        assert_eq!(n.leader_id(), Some(0));
        let (res, _) = n.propose(ms(2), 7);
        assert_eq!(res, Err(NotLeader { hint: Some(0) }));
    }

    #[test]
    fn heartbeat_resets_timer_and_gets_response() {
        let mut n = node(1, 5);
        let first_deadline = n.election_deadline();
        let hb = Heartbeat {
            term: 3,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 5,
                rtt_sample: None,
            },
        };
        let fx = n.step(ms(500), 0, Payload::Heartbeat(hb));
        assert_eq!(n.term(), 3);
        assert_eq!(n.leader_id(), Some(0));
        assert!(n.election_deadline() > first_deadline);
        let resp = fx
            .messages
            .iter()
            .find(|m| m.payload.kind() == "heartbeat_resp")
            .expect("heartbeat response");
        assert_eq!(resp.to, 0);
        match &resp.payload {
            Payload::HeartbeatResp(r) => {
                assert_eq!(r.term, 3);
                assert_eq!(r.reply.echo_sent_at_nanos, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_heartbeat_answered_with_higher_term() {
        let mut n = node(1, 3);
        // Bring the node to term 5 via a vote request.
        let _ = n.step(
            ms(1),
            2,
            Payload::RequestVote(RequestVote {
                term: 5,
                pre_vote: false,
                last_log_index: 0,
                last_log_term: 0,
            }),
        );
        assert_eq!(n.term(), 5);
        let hb = Heartbeat {
            term: 3,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let fx = n.step(ms(2), 0, Payload::Heartbeat(hb));
        match &fx.messages[0].payload {
            Payload::HeartbeatResp(r) => assert_eq!(r.term, 5),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(n.leader_id(), None, "stale leader not adopted");
    }

    #[test]
    fn append_entries_replicates_and_commits() {
        let mut n = node(1, 3);
        let entries = vec![
            crate::log::Entry::normal(1, 1, None),
            crate::log::Entry::normal(1, 2, Some(77)),
        ];
        let fx = n.step(
            ms(1),
            0,
            Payload::AppendEntries(AppendEntries {
                term: 1,
                leader: 0,
                prev_log_index: 0,
                prev_log_term: 0,
                entries,
                leader_commit: 2,
                read_ctx: None,
            }),
        );
        assert_eq!(n.log().last_index(), 2);
        assert_eq!(n.commit_index(), 2);
        // Applied: the no-op yields no response, entry 2 applies command 77.
        assert_eq!(fx.applied.len(), 2);
        assert!(fx.applied[0].response.is_none());
        assert_eq!(fx.applied[1].response, Some(2));
        assert_eq!(n.state_machine().applied, vec![(2, 77)]);
        match &fx.messages[0].payload {
            Payload::AppendResp(r) => {
                assert!(r.success);
                assert_eq!(r.match_or_hint, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn append_conflict_reports_hint() {
        let mut n = node(1, 3);
        let fx = n.step(
            ms(1),
            0,
            Payload::AppendEntries(AppendEntries {
                term: 1,
                leader: 0,
                prev_log_index: 7,
                prev_log_term: 1,
                entries: vec![],
                leader_commit: 0,
                read_ctx: None,
            }),
        );
        match &fx.messages[0].payload {
            Payload::AppendResp(r) => {
                assert!(!r.success);
                assert_eq!(r.match_or_hint, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn leader_replication_round_trip() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let t = leader.election_deadline(); // any time after election
        let (res, fx) = leader.propose(t, 99);
        let (term, index) = res.unwrap();
        assert_eq!(index, 2);
        // Followers 1 and 2 get appends (they were idle: no-op batch already
        // in flight, so the proposal rides the next batch for busy peers).
        let _ = fx;
        // Simulate follower 1 acking everything through index 2.
        let fx = leader.step(
            t,
            1,
            Payload::AppendResp(AppendResp {
                term,
                success: true,
                match_or_hint: 2,
                read_ctx: None,
            }),
        );
        // Majority (leader + follower 1) -> commit both entries.
        assert_eq!(leader.commit_index(), 2);
        assert_eq!(fx.applied.len(), 2);
        assert_eq!(fx.applied[1].response, Some(2));
    }

    #[test]
    fn commit_requires_current_term_entry() {
        let mut leader = node(0, 5);
        let _ = elect(&mut leader, SimTime::ZERO);
        let t = ms(3000);
        // One follower acks the no-op; that's only 2 of 5.
        let _ = leader.step(
            t,
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: None,
            }),
        );
        assert_eq!(leader.commit_index(), 0);
        // Two more make it a majority (leader, 1, 2, 3).
        let _ = leader.step(
            t,
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: None,
            }),
        );
        assert_eq!(leader.commit_index(), 1);
    }

    #[test]
    fn pre_vote_granted_only_for_fresh_logs_and_higher_term() {
        let mut n = node(1, 3);
        // Not in lease (no leader known): pre-vote for term 1 granted.
        let fx = n.step(
            ms(1),
            2,
            Payload::RequestVote(RequestVote {
                term: 1,
                pre_vote: true,
                last_log_index: 0,
                last_log_term: 0,
            }),
        );
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => {
                assert!(r.granted);
                assert!(r.pre_vote);
                assert_eq!(r.term, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(n.term(), 0, "pre-vote leaves term untouched");
        assert_eq!(n.voted_for, None, "pre-vote does not consume the vote");
    }

    #[test]
    fn lease_blocks_disruptive_votes() {
        let mut n = node(1, 3);
        // Establish a live leader.
        let hb = Heartbeat {
            term: 2,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let _ = n.step(ms(100), 0, Payload::Heartbeat(hb));
        // A pre-vote arriving within the lease window is ignored outright.
        let fx = n.step(
            ms(150),
            2,
            Payload::RequestVote(RequestVote {
                term: 3,
                pre_vote: true,
                last_log_index: 10,
                last_log_term: 2,
            }),
        );
        assert!(fx.messages.is_empty(), "lease must silence the request");
        // Even a real vote at a higher term is ignored within the lease.
        let fx = n.step(
            ms(160),
            2,
            Payload::RequestVote(RequestVote {
                term: 9,
                pre_vote: false,
                last_log_index: 10,
                last_log_term: 2,
            }),
        );
        assert!(fx.messages.is_empty());
        assert_eq!(n.term(), 2, "lease also protects the term");
    }

    #[test]
    fn vote_granted_once_per_term() {
        let mut n = node(0, 3);
        let rv = RequestVote {
            term: 4,
            pre_vote: false,
            last_log_index: 0,
            last_log_term: 0,
        };
        let fx = n.step(ms(1), 1, Payload::RequestVote(rv));
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => assert!(r.granted),
            other => panic!("unexpected {other:?}"),
        }
        // Second candidate, same term: rejected.
        let fx = n.step(ms(2), 2, Payload::RequestVote(rv));
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => assert!(!r.granted),
            other => panic!("unexpected {other:?}"),
        }
        // Re-request from the same candidate: granted (idempotent).
        let fx = n.step(ms(3), 1, Payload::RequestVote(rv));
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => assert!(r.granted),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn vote_rejected_for_stale_log() {
        let mut n = node(0, 3);
        // Give ourselves a log entry at term 2.
        let _ = n.step(
            ms(1),
            1,
            Payload::AppendEntries(AppendEntries {
                term: 2,
                leader: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![crate::log::Entry::normal(2, 1, Some(5))],
                leader_commit: 0,
                read_ctx: None,
            }),
        );
        // Wait out the lease.
        let t = ms(5000);
        let fx = n.step(
            t,
            2,
            Payload::RequestVote(RequestVote {
                term: 3,
                pre_vote: false,
                last_log_index: 0,
                last_log_term: 0, // candidate's log is older
            }),
        );
        match &fx.messages[0].payload {
            Payload::RequestVoteResp(r) => assert!(!r.granted),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pre_candidate_aborts_on_leader_contact() {
        let mut n = node(1, 5);
        let deadline = n.election_deadline();
        let _ = n.tick(deadline);
        assert_eq!(n.role(), Role::PreCandidate);
        // The leader (same term) makes contact.
        let hb = Heartbeat {
            term: 0,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 9,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let fx = n.step(
            deadline + Duration::from_millis(10),
            0,
            Payload::Heartbeat(hb),
        );
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.leader_id(), Some(0));
        let kinds: Vec<&str> = fx.events.iter().map(RaftEvent::kind).collect();
        assert!(kinds.contains(&"pre_vote_aborted"), "events: {kinds:?}");
    }

    #[test]
    fn campaign_retry_redraws_and_rebroadcasts() {
        let mut n = node(0, 5);
        let d1 = n.election_deadline();
        let _ = n.tick(d1);
        assert_eq!(n.role(), Role::PreCandidate);
        let d2 = n.election_deadline();
        assert!(d2 > d1);
        let fx = n.tick(d2);
        assert_eq!(n.role(), Role::PreCandidate);
        let kinds: Vec<&str> = fx.events.iter().map(RaftEvent::kind).collect();
        assert!(kinds.contains(&"campaign_retry"));
        let pre_votes = fx
            .messages
            .iter()
            .filter(|m| m.payload.kind() == "pre_vote")
            .count();
        assert_eq!(pre_votes, 4);
    }

    #[test]
    fn leader_sends_heartbeats_on_pacer_schedule() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let t0 = leader.next_wake().unwrap();
        let fx = leader.tick(t0);
        let hbs = fx
            .messages
            .iter()
            .filter(|m| m.payload.kind() == "heartbeat")
            .count();
        assert_eq!(hbs, 2, "one heartbeat per follower");
        // Default interval 100ms: nothing due 50ms later.
        let fx = leader.tick(t0 + Duration::from_millis(50));
        assert_eq!(
            fx.messages
                .iter()
                .filter(|m| m.payload.kind() == "heartbeat")
                .count(),
            0
        );
        let fx = leader.tick(t0 + Duration::from_millis(100));
        assert_eq!(
            fx.messages
                .iter()
                .filter(|m| m.payload.kind() == "heartbeat")
                .count(),
            2
        );
    }

    #[test]
    fn suppression_skips_heartbeats_while_replicating() {
        let mut cfg = RaftConfig::new(0, 3, TuningConfig::raft_default());
        cfg.suppress_heartbeats_when_replicating = true;
        let mut leader = RaftNode::new(cfg, NullStateMachine::default(), SimTime::ZERO);
        let _ = elect(&mut leader, SimTime::ZERO);
        let t0 = leader.next_wake().unwrap();
        // Replication to both followers just happened (become_leader sent
        // the no-op batch): the first heartbeat round is suppressed.
        let fx = leader.tick(t0);
        assert_eq!(
            fx.messages
                .iter()
                .filter(|m| m.payload.kind() == "heartbeat")
                .count(),
            0,
            "appends in flight suppress heartbeats"
        );
        // After an idle interval with no replication, heartbeats resume.
        let t1 = leader.next_wake().unwrap();
        let fx = leader.tick(t1);
        assert_eq!(
            fx.messages
                .iter()
                .filter(|m| m.payload.kind() == "heartbeat")
                .count(),
            2,
            "idle leader heartbeats normally"
        );
    }

    #[test]
    fn consolidated_timer_fires_all_pacers_together() {
        let mut cfg = RaftConfig::new(0, 3, TuningConfig::dynatune());
        cfg.consolidated_heartbeat_timer = true;
        let mut leader = RaftNode::new(cfg, NullStateMachine::default(), SimTime::ZERO);
        let _ = elect(&mut leader, SimTime::ZERO);
        // Tune follower 1 to a shorter interval via a heartbeat reply.
        let t0 = leader.next_wake().unwrap();
        let fx = leader.tick(t0);
        let hb_to_1 = fx
            .messages
            .iter()
            .find_map(|m| match (&m.payload, m.to) {
                (Payload::Heartbeat(hb), 1) => Some(hb.clone()),
                _ => None,
            })
            .expect("heartbeat to follower 1");
        let _ = leader.step(
            t0 + Duration::from_millis(10),
            1,
            Payload::HeartbeatResp(HeartbeatResp {
                term: leader.term(),
                reply: dynatune_core::HeartbeatReply {
                    id: hb_to_1.meta.id,
                    echo_sent_at_nanos: hb_to_1.meta.sent_at_nanos,
                    tuned_interval: Some(Duration::from_millis(40)),
                },
            }),
        );
        assert_eq!(leader.pacer_interval(1), Some(Duration::from_millis(40)));
        assert_eq!(leader.pacer_interval(2), Some(Duration::from_millis(100)));
        // The next burst happens when follower 1's 40ms pacer is due — and
        // it carries heartbeats to BOTH followers (single timer).
        let due = leader.next_wake().unwrap();
        let fx = leader.tick(due);
        let heartbeat_targets: Vec<NodeId> = fx
            .messages
            .iter()
            .filter(|m| m.payload.kind() == "heartbeat")
            .map(|m| m.to)
            .collect();
        assert_eq!(
            heartbeat_targets.len(),
            2,
            "burst covers all followers: {heartbeat_targets:?}"
        );
    }

    #[test]
    fn leader_steps_down_when_quorum_silent() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        assert_eq!(leader.role(), Role::Leader);
        // Nobody ever responds; run ticks past the lease deadline.
        let mut t = leader.next_wake().unwrap();
        let mut stepped = false;
        for _ in 0..100 {
            let fx = leader.tick(t);
            if fx
                .events
                .iter()
                .any(|e| matches!(e, RaftEvent::SteppedDown { .. }))
            {
                stepped = true;
                break;
            }
            match leader.next_wake() {
                Some(next) if next > t => t = next,
                _ => t += Duration::from_millis(10),
            }
        }
        assert!(stepped, "leader should step down without quorum contact");
        assert_eq!(leader.role(), Role::Follower);
    }

    #[test]
    fn leader_keeps_leading_while_quorum_responds() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let mut t = leader.next_wake().unwrap();
        for _ in 0..100 {
            let fx = leader.tick(t);
            // Follower 1 responds to every heartbeat immediately.
            for m in &fx.messages {
                if m.to == 1 {
                    if let Payload::Heartbeat(hb) = &m.payload {
                        let reply = dynatune_core::HeartbeatReply::echo_only(&hb.meta);
                        let _ = leader.step(
                            t,
                            1,
                            Payload::HeartbeatResp(HeartbeatResp {
                                term: hb.term,
                                reply,
                            }),
                        );
                    }
                }
            }
            assert_eq!(leader.role(), Role::Leader);
            t = leader
                .next_wake()
                .unwrap()
                .max(t + Duration::from_millis(1));
        }
    }

    #[test]
    fn higher_term_heartbeat_deposes_leader() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let hb = Heartbeat {
            term: leader.term() + 5,
            leader: 2,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let fx = leader.step(ms(5000), 2, Payload::Heartbeat(hb));
        assert_eq!(leader.role(), Role::Follower);
        assert_eq!(leader.leader_id(), Some(2));
        let kinds: Vec<&str> = fx.events.iter().map(RaftEvent::kind).collect();
        assert!(kinds.contains(&"stepped_down"));
    }

    #[test]
    fn restart_preserves_log_and_term_but_resets_volatile() {
        let mut n = node(1, 3);
        let _ = n.step(
            ms(1),
            0,
            Payload::AppendEntries(AppendEntries {
                term: 4,
                leader: 0,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![crate::log::Entry::normal(4, 1, Some(11))],
                leader_commit: 1,
                read_ctx: None,
            }),
        );
        assert_eq!(n.commit_index(), 1);
        assert_eq!(n.state_machine().applied.len(), 1);
        n.restart(ms(100), NullStateMachine::default());
        assert_eq!(n.term(), 4, "term persists");
        assert_eq!(n.log().last_index(), 1, "log persists");
        assert_eq!(n.commit_index(), 0, "commit is volatile");
        assert!(n.state_machine().applied.is_empty(), "SM rebuilt");
        assert_eq!(n.role(), Role::Follower);
        // Re-commit via a heartbeat from the leader.
        let hb = Heartbeat {
            term: 4,
            leader: 0,
            commit: 1,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let fx = n.step(ms(101), 0, Payload::Heartbeat(hb));
        assert_eq!(n.commit_index(), 1);
        assert_eq!(fx.applied.len(), 1);
    }

    #[test]
    fn tuner_reset_on_timeout_for_dynatune() {
        let config = RaftConfig::new(1, 3, TuningConfig::dynatune());
        let mut n = RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO);
        // Feed warmed tuner via heartbeats from a leader.
        let mut t = ms(10);
        for i in 0..20u64 {
            let hb = Heartbeat {
                term: 1,
                leader: 0,
                commit: 0,
                meta: dynatune_core::HeartbeatMeta {
                    id: i,
                    sent_at_nanos: t.as_nanos(),
                    rtt_sample: Some(Duration::from_millis(50)),
                },
            };
            let _ = n.step(t, 0, Payload::Heartbeat(hb));
            t += Duration::from_millis(100);
        }
        assert!(n.tuning_snapshot().warmed);
        assert_eq!(n.election_timeout(), Duration::from_millis(50));
        // Let the election timer expire: measurements are discarded but the
        // tuned Et keeps pacing the campaign (§III-B reading).
        let deadline = n.election_deadline();
        let fx = n.tick(deadline);
        assert!(fx.events.contains(&RaftEvent::TunerReset));
        assert!(!n.tuning_snapshot().warmed);
        assert_eq!(n.tuning_snapshot().rtt_samples, 0, "data discarded");
        assert_eq!(
            n.election_timeout(),
            Duration::from_millis(50),
            "tuned Et survives for the campaign"
        );
        // Two unresolved campaign retries escalate to the conservative
        // defaults (availability fallback).
        let mut t = n.election_deadline();
        for _ in 0..2 {
            let _ = n.tick(t);
            t = n.election_deadline().max(t + Duration::from_millis(1));
        }
        assert_eq!(
            n.election_timeout(),
            Duration::from_millis(1000),
            "escalation falls back to defaults"
        );
    }

    /// Elect `node` leader of 3 and commit `count` commands by acking from
    /// follower 1. Returns the commit index reached.
    fn leader_with_committed(node: &mut Node, count: u64) -> LogIndex {
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

    /// Regression for the permanent replication stall: a leader whose log
    /// is compacted (it compacted to `last_applied` as a follower, then won
    /// an election) gets a conflict hint from a lagging peer that lands
    /// below `first_index()`. Pre-fix, `send_append` returned silently with
    /// an empty in-flight window, so neither the response path nor the
    /// resend timer ever retried — the peer was stuck forever. Post-fix the
    /// leader streams an `InstallSnapshot`.
    #[test]
    fn conflict_below_compaction_horizon_triggers_snapshot_not_stall() {
        let mut leader = node(0, 3);
        let last = leader_with_committed(&mut leader, 5);
        leader.compact_log(last); // follower-style compaction to last_applied
        assert!(leader.log().first_index() > 1);
        // Lagging peer 2: its log ends far below the compaction horizon.
        let fx = leader.step(
            ms(3100),
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: false,
                match_or_hint: 0,
                read_ctx: None,
            }),
        );
        let snap_msgs: Vec<_> = fx
            .messages
            .iter()
            .filter(|m| m.payload.kind() == "install_snapshot")
            .collect();
        assert_eq!(snap_msgs.len(), 1, "stall must become a snapshot stream");
        assert_eq!(snap_msgs[0].to, 2);
        match &snap_msgs[0].payload {
            Payload::InstallSnapshot(s) => {
                assert_eq!(s.last_included_index, last);
                assert_eq!(s.term, leader.term());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(leader.snapshots_sent(), 1);
        assert!(
            fx.events
                .iter()
                .any(|e| matches!(e, RaftEvent::SnapshotSent { to: 2, .. })),
            "events: {:?}",
            fx.events
        );
        // The transfer is tracked: the resend timer must cover it.
        let wake = leader.next_wake().expect("leader wakes");
        assert!(wake <= ms(3100) + Duration::from_millis(1000));
    }

    #[test]
    fn snapshot_resend_paces_slower_than_appends() {
        let mut leader = node(0, 3);
        let last = leader_with_committed(&mut leader, 5);
        leader.compact_log(last);
        let t0 = ms(3100);
        let _ = leader.step(
            t0,
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: false,
                match_or_hint: 0,
                read_ctx: None,
            }),
        );
        assert_eq!(leader.snapshots_sent(), 1);
        // Within `SNAPSHOT_RESEND` (1s), ticks must not re-stream the state.
        let _ = leader.tick(t0 + Duration::from_millis(300));
        assert_eq!(leader.snapshots_sent(), 1, "append cadence must not apply");
        // Once the snapshot timer expires, the transfer is retried.
        let mut t = t0 + Duration::from_millis(300);
        let mut resent = false;
        for _ in 0..50 {
            t = leader
                .next_wake()
                .unwrap()
                .max(t + Duration::from_millis(1));
            let _ = leader.tick(t);
            if leader.snapshots_sent() > 1 {
                resent = true;
                break;
            }
        }
        assert!(resent, "unacked snapshot must eventually resend");
        assert!(t >= t0 + Duration::from_millis(1000));
    }

    #[test]
    fn install_snapshot_resets_follower_log_and_state() {
        let mut n = node(1, 3);
        // Give the follower a short stale log.
        let _ = n.step(
            ms(1),
            2,
            Payload::AppendEntries(AppendEntries {
                term: 1,
                leader: 2,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![crate::log::Entry::normal(1, 1, Some(11))],
                leader_commit: 0,
                read_ctx: None,
            }),
        );
        let fx = n.step(
            ms(10),
            0,
            Payload::InstallSnapshot(InstallSnapshot {
                term: 3,
                leader: 0,
                last_included_index: 7,
                last_included_term: 2,
                membership: Membership::initial(&[0, 1, 2], &[]),
                data: vec![(7, 77)],
            }),
        );
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.leader_id(), Some(0));
        assert_eq!(n.term(), 3);
        assert_eq!(n.log().first_index(), 8, "log base moved to the snapshot");
        assert_eq!(n.log().last_index(), 7);
        assert_eq!(n.commit_index(), 7);
        assert_eq!(n.last_applied(), 7);
        assert_eq!(n.state_machine().applied, vec![(7, 77)]);
        let kinds: Vec<&str> = fx.events.iter().map(RaftEvent::kind).collect();
        assert!(kinds.contains(&"snapshot_installed"), "events: {kinds:?}");
        // Acked through the regular append path so progress advances.
        let ack = fx
            .messages
            .iter()
            .find(|m| m.payload.kind() == "append_resp")
            .expect("snapshot ack");
        match &ack.payload {
            Payload::AppendResp(r) => {
                assert!(r.success);
                assert_eq!(r.match_or_hint, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Replication continues from the snapshot boundary.
        let fx = n.step(
            ms(20),
            0,
            Payload::AppendEntries(AppendEntries {
                term: 3,
                leader: 0,
                prev_log_index: 7,
                prev_log_term: 2,
                entries: vec![crate::log::Entry::normal(3, 8, Some(88))],
                leader_commit: 8,
                read_ctx: None,
            }),
        );
        assert_eq!(n.commit_index(), 8);
        assert_eq!(fx.applied.len(), 1);
    }

    #[test]
    fn stale_snapshot_is_acked_but_not_installed() {
        let mut n = node(1, 3);
        let _ = n.step(
            ms(1),
            0,
            Payload::AppendEntries(AppendEntries {
                term: 2,
                leader: 0,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: (1..=5)
                    .map(|i| crate::log::Entry::normal(2, i, Some(i)))
                    .collect(),
                leader_commit: 5,
                read_ctx: None,
            }),
        );
        assert_eq!(n.commit_index(), 5);
        let applied_before = n.state_machine().applied.clone();
        let fx = n.step(
            ms(2),
            0,
            Payload::InstallSnapshot(InstallSnapshot {
                term: 2,
                leader: 0,
                last_included_index: 3,
                last_included_term: 2,
                membership: Membership::initial(&[0, 1, 2], &[]),
                data: vec![(3, 33)],
            }),
        );
        assert_eq!(n.log().last_index(), 5, "log untouched");
        assert_eq!(n.state_machine().applied, applied_before, "state untouched");
        match &fx.messages[0].payload {
            Payload::AppendResp(r) => {
                assert!(r.success);
                assert_eq!(r.match_or_hint, 3, "stale point is still proven");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn restart_rebuilds_state_machine_from_retained_snapshot() {
        let mut n = node(0, 1);
        let deadline = n.election_deadline();
        let _ = n.tick(deadline);
        assert_eq!(n.role(), Role::Leader);
        let (_, _) = n.propose(deadline, 42);
        let (_, _) = n.propose(deadline, 43);
        assert_eq!(n.commit_index(), 3); // no-op + two commands
        n.compact_log(3);
        assert_eq!(n.log().first_index(), 4);
        let state_before = n.state_machine().applied.clone();
        // Pre-fix, restart reset last_applied to 0 with a compacted log:
        // replay from index 1 was impossible and re-committing panicked.
        n.restart(ms(9000), NullStateMachine::default());
        assert_eq!(n.last_applied(), 3, "snapshot anchors recovery");
        assert_eq!(n.commit_index(), 3);
        assert_eq!(n.state_machine().applied, state_before);
        let snap = n.retained_snapshot().expect("snapshot retained");
        assert_eq!(snap.last_included_index, 3);
    }

    #[test]
    fn leader_compaction_is_not_pinned_by_slow_followers() {
        let mut leader = node(0, 3);
        let last = leader_with_committed(&mut leader, 10);
        // Follower 2 never acked anything (match 0); compaction proceeds
        // anyway — snapshots cover the gap.
        assert_eq!(leader.safe_compact_index(), last);
        leader.compact_log(last);
        assert_eq!(leader.log().first_index(), last + 1);
    }

    // ------------------------------------------------------------------
    // Log-free reads (lease + ReadIndex)
    // ------------------------------------------------------------------

    #[test]
    fn single_node_lease_read_grants_instantly() {
        let mut n = node(0, 1);
        let d = n.election_deadline();
        let _ = n.tick(d);
        assert_eq!(n.role(), Role::Leader);
        assert_eq!(n.commit_index(), 1, "no-op self-commits");
        let (res, fx) = n.request_read(d, 7, true);
        res.unwrap();
        assert_eq!(
            fx.reads,
            vec![ReadGrant {
                id: 7,
                read_index: 1,
                path: ReadPath::Lease,
            }]
        );
        assert!(fx.messages.is_empty(), "lease reads cost no network round");
    }

    #[test]
    fn read_on_follower_returns_redirect() {
        let mut n = node(1, 3);
        let hb = Heartbeat {
            term: 1,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let _ = n.step(ms(1), 0, Payload::Heartbeat(hb));
        let (res, fx) = n.request_read(ms(2), 5, true);
        assert_eq!(res, Err(NotLeader { hint: Some(0) }));
        assert!(fx.reads.is_empty());
    }

    #[test]
    fn read_parks_until_current_term_commit() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        // No follower has acked: the term's no-op is uncommitted, so the
        // read must park (commit_index may lag the true commit point).
        let (res, fx) = leader.request_read(ms(3000), 11, true);
        res.unwrap();
        assert!(fx.reads.is_empty());
        assert_eq!(leader.pending_reads(), 1);
        // The no-op commits; the read is admitted and (lease cold) goes
        // through a ReadIndex confirmation round.
        let fx = leader.step(
            ms(3001),
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: None,
            }),
        );
        assert_eq!(leader.commit_index(), 1);
        assert!(
            fx.events
                .iter()
                .any(|e| matches!(e, RaftEvent::ReadConfirmRound { .. })),
            "cold lease must open a confirmation round: {:?}",
            fx.events
        );
        let probe = fx
            .messages
            .iter()
            .find_map(|m| match &m.payload {
                Payload::AppendEntries(ae) if ae.read_ctx.is_some() => Some((m.to, ae.clone())),
                _ => None,
            })
            .expect("confirmation append with read_ctx");
        assert_eq!(probe.0, 1, "idle follower gets the confirmation append");
        // The echo from one follower completes the quorum (leader + 1 of 3).
        let fx = leader.step(
            ms(3002),
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: probe.1.read_ctx,
            }),
        );
        assert_eq!(
            fx.reads,
            vec![ReadGrant {
                id: 11,
                read_index: 1,
                path: ReadPath::ReadIndex,
            }]
        );
        assert_eq!(leader.pending_reads(), 0);
    }

    #[test]
    fn heartbeat_quorum_acks_enable_the_lease_path() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let _ = leader.step(
            ms(3000),
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: None,
            }),
        );
        assert!(!leader.lease_valid(ms(3600)), "no heartbeat acks yet");
        // Follower 1 acks a heartbeat sent at t=3500.
        let _ = leader.step(
            ms(3600),
            1,
            Payload::HeartbeatResp(HeartbeatResp {
                term: leader.term(),
                reply: dynatune_core::HeartbeatReply {
                    id: 0,
                    echo_sent_at_nanos: ms(3500).as_nanos(),
                    tuned_interval: None,
                },
            }),
        );
        assert!(leader.lease_valid(ms(3600)));
        // Effective lease: 1000ms * (1 - 0.1) = 900ms from the send instant.
        assert!(leader.lease_valid(ms(4399)));
        assert!(!leader.lease_valid(ms(4400)), "drift margin caps the lease");
        let (res, fx) = leader.request_read(ms(3700), 21, true);
        res.unwrap();
        assert_eq!(
            fx.reads,
            vec![ReadGrant {
                id: 21,
                read_index: 1,
                path: ReadPath::Lease,
            }]
        );
        assert!(fx.messages.is_empty());
    }

    #[test]
    fn tuned_mode_clamps_the_lease_to_the_election_floor() {
        // Under a tuning mode a follower's Et can adapt down to the
        // configured floor (10ms for Dynatune defaults) — far below the
        // 1s default lease. The effective lease must clamp to the floor, or
        // an isolated leader could serve stale reads while a fast-tuned
        // follower elects a replacement.
        let config = RaftConfig::new(0, 3, TuningConfig::dynatune());
        let mut leader = RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO);
        let _ = elect(&mut leader, SimTime::ZERO);
        let _ = leader.step(
            ms(3000),
            1,
            Payload::HeartbeatResp(HeartbeatResp {
                term: leader.term(),
                reply: dynatune_core::HeartbeatReply {
                    id: 0,
                    echo_sent_at_nanos: ms(3000).as_nanos(),
                    tuned_interval: None,
                },
            }),
        );
        // Floor 10ms, margin 0.1 => 9ms of effective lease from the ack.
        assert!(leader.lease_valid(ms(3008)));
        assert!(
            !leader.lease_valid(ms(3010)),
            "tuned clusters must not ride the full static lease"
        );
    }

    #[test]
    fn confirmed_read_waits_for_apply() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        // Commit the no-op plus one command, but lag apply? Apply tracks
        // commit on this implementation, so instead queue the read while a
        // *forwarded* (no-wait) grant shows read_index handling.
        let _ = leader.step(
            ms(3000),
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: None,
            }),
        );
        // Forwarded follower read: grant must NOT wait for leader apply.
        let _ = leader.step(
            ms(3001),
            1,
            Payload::HeartbeatResp(HeartbeatResp {
                term: leader.term(),
                reply: dynatune_core::HeartbeatReply {
                    id: 0,
                    echo_sent_at_nanos: ms(3000).as_nanos(),
                    tuned_interval: None,
                },
            }),
        );
        let (res, fx) = leader.request_read(ms(3002), 31, false);
        res.unwrap();
        assert_eq!(fx.reads.len(), 1);
        assert_eq!(fx.reads[0].read_index, 1);
    }

    #[test]
    fn stepping_down_aborts_queued_reads() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let _ = leader.step(
            ms(3000),
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                read_ctx: None,
            }),
        );
        let (res, fx) = leader.request_read(ms(3001), 41, true);
        res.unwrap();
        assert!(fx.reads.is_empty(), "cold lease: read queued");
        assert_eq!(leader.pending_reads(), 1);
        // A higher-term leader appears: queued reads are surfaced as
        // aborted so the host can redirect the clients.
        let hb = Heartbeat {
            term: leader.term() + 1,
            leader: 2,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let fx = leader.step(ms(3002), 2, Payload::Heartbeat(hb));
        assert_eq!(fx.aborted_reads, vec![41]);
        assert_eq!(leader.pending_reads(), 0);
    }

    #[test]
    fn lease_is_inert_when_disabled() {
        let mut cfg = RaftConfig::new(0, 1, TuningConfig::raft_default());
        cfg.lease_reads = false;
        let mut n = RaftNode::new(cfg, NullStateMachine::default(), SimTime::ZERO);
        let d = n.election_deadline();
        let _ = n.tick(d);
        let (res, fx) = n.request_read(d, 51, true);
        res.unwrap();
        // Single-node quorum confirms the ReadIndex round instantly, but
        // the path must be ReadIndex, not Lease.
        assert_eq!(fx.reads.len(), 1);
        assert_eq!(fx.reads[0].path, ReadPath::ReadIndex);
    }

    #[test]
    fn quantized_deadline_snaps_to_phased_tick_grid() {
        let mut cfg = RaftConfig::new(0, 3, TuningConfig::raft_default());
        cfg.quantization = TimerQuantization::Tick;
        let n = RaftNode::new(cfg, NullStateMachine::default(), ms(40));
        let deadline = n.election_deadline();
        let raw = ms(40) + n.randomized_timeout();
        // First phased 100ms boundary at or after the raw deadline.
        assert!(deadline >= raw, "deadline {deadline} >= raw {raw}");
        assert!(deadline < raw + Duration::from_millis(100));
        // Different nodes observe differently-phased grids.
        let other = RaftNode::new(
            RaftConfig::new(1, 3, TuningConfig::raft_default()),
            NullStateMachine::default(),
            ms(40),
        );
        assert_ne!(
            n.election_deadline().as_nanos() % 100_000_000,
            other.election_deadline().as_nanos() % 100_000_000,
            "grids should be phase-shifted across nodes"
        );
        let mut cfg = RaftConfig::new(0, 3, TuningConfig::raft_default());
        cfg.quantization = TimerQuantization::Continuous;
        let n2 = RaftNode::new(cfg, NullStateMachine::default(), ms(40));
        let d2 = n2.election_deadline();
        // Continuous deadline equals reset + rto exactly (same seed, same factor).
        assert_eq!(d2, ms(40) + n2.randomized_timeout());
    }

    // ------------------------------------------------------------------
    // Pipelined replication + group commit
    // ------------------------------------------------------------------

    /// Leader of 3 with a custom pipeline window, its no-op acked by both
    /// followers (pipes idle), at `t = 3000 ms`.
    fn leader3_with_window(window: usize) -> (Node, SimTime) {
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
    fn appends_to(fx: &NodeEffects<NullStateMachine>, to: NodeId) -> Vec<&AppendEntries<u64>> {
        fx.messages
            .iter()
            .filter(|m| m.to == to)
            .filter_map(|m| match &m.payload {
                Payload::AppendEntries(ae) => Some(ae),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn pipelined_flush_sends_behind_an_unacked_append() {
        let (mut n, t) = leader3_with_window(4);
        // Idle pipe: a lone proposal ships immediately (no batching tax).
        let (_, fx) = n.propose(t, 10);
        assert_eq!(appends_to(&fx, 1).len(), 1);
        // Pipe busy: subsequent proposals buffer for group commit.
        let (_, fx) = n.propose(t, 11);
        assert!(appends_to(&fx, 1).is_empty(), "buffered while busy");
        let (_, fx) = n.propose(t, 12);
        assert!(appends_to(&fx, 1).is_empty());
        // Silent-stall audit: the flush deadline is armed in next_wake.
        let deadline = t + MAX_BATCH_DELAY;
        assert!(n.next_wake().unwrap() <= deadline);
        // The deadline flush pipelines a second append behind the unacked
        // first, coalescing both buffered proposals into one message.
        let fx = n.tick(deadline);
        let sent = appends_to(&fx, 1);
        assert_eq!(sent.len(), 1, "one group-committed append");
        assert_eq!(sent[0].entries.len(), 2, "both proposals coalesced");
        assert_eq!(sent[0].prev_log_index, n.log().last_index() - 2);
    }

    #[test]
    fn byte_cap_flushes_before_the_delay_expires() {
        let mut config = RaftConfig::new(0, 3, TuningConfig::raft_default());
        // NullStateMachine charges 16 bytes per command: the third buffered
        // proposal crosses the cap.
        config.max_batch_bytes = 48;
        let mut n = RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO);
        let _ = elect(&mut n, SimTime::ZERO);
        let t = ms(3000);
        // Pipes are busy with the unacked no-op: everything buffers.
        let (_, fx) = n.propose(t, 10);
        assert!(appends_to(&fx, 1).is_empty());
        let (_, fx) = n.propose(t, 11);
        assert!(appends_to(&fx, 1).is_empty());
        let (_, fx) = n.propose(t, 12);
        let sent = appends_to(&fx, 1);
        assert_eq!(sent.len(), 1, "byte cap reached: flushed without a tick");
        assert_eq!(sent[0].entries.len(), 3);
    }

    #[test]
    fn out_of_order_ack_retires_the_prefix_and_commits() {
        let (mut n, t) = leader3_with_window(4);
        let _ = n.propose(t, 10);
        let _ = n.propose(t, 11);
        let _ = n.tick(t + MAX_BATCH_DELAY); // 2 appends in flight
        let last = n.log().last_index();
        // Only the *younger* append's ack arrives (the older response is
        // reordered behind it): log matching proves the whole prefix, so
        // match advances to the full log and the entries commit.
        let t1 = t + Duration::from_millis(50);
        let fx = n.step(
            t1,
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: last,
                read_ctx: None,
            }),
        );
        assert_eq!(n.commit_index(), last);
        assert!(!fx.applied.is_empty());
        // The straggling older ack is a pure no-op: no regress, no resend.
        let fx = n.step(
            t1 + Duration::from_millis(1),
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: last - 1,
                read_ctx: None,
            }),
        );
        assert_eq!(n.commit_index(), last);
        assert!(appends_to(&fx, 1).is_empty(), "nothing left to send");
    }

    #[test]
    fn resend_fires_on_the_oldest_unacked_send_and_reprobes_once() {
        let (mut n, t) = leader3_with_window(4);
        let _ = n.propose(t, 10);
        let _ = n.propose(t, 11);
        let _ = n.tick(t + MAX_BATCH_DELAY);
        // Nothing acked: recovery must be anchored at the *oldest* send.
        let resend_at = t + APPEND_RESEND;
        assert!(n.next_wake().unwrap() <= resend_at);
        let fx = n.tick(resend_at);
        let sent = appends_to(&fx, 1);
        assert_eq!(sent.len(), 1, "one probe, not one resend per window slot");
        // The probe abandons the optimistic pipeline: back to proven ground
        // (the acked no-op at index 1), re-carrying everything unproven.
        assert_eq!(sent[0].prev_log_index, 1);
        assert_eq!(sent[0].entries.len(), 2);
    }

    #[test]
    fn full_window_defers_to_ack_driven_refill_without_stalling() {
        let (mut n, t) = leader3_with_window(1);
        let _ = n.propose(t, 10); // occupies the single slot
        let (_, fx) = n.propose(t, 11);
        assert!(appends_to(&fx, 1).is_empty());
        // The deadline flush finds the window full and sends nothing...
        let fx = n.tick(t + MAX_BATCH_DELAY);
        assert!(appends_to(&fx, 1).is_empty(), "window full");
        // ...but a wake-up stays armed (the resend timer) — no silent stall.
        assert!(n.next_wake().unwrap() <= t + APPEND_RESEND);
        // The ack frees the slot and pulls the buffered entry immediately.
        let first_last = n.log().last_index() - 1;
        let fx = n.step(
            t + Duration::from_millis(20),
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: first_last,
                read_ctx: None,
            }),
        );
        let sent = appends_to(&fx, 1);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].entries.len(), 1);
    }

    #[test]
    fn read_nudge_defers_until_a_window_slot_frees() {
        let (mut n, t) = leader3_with_window(1);
        let _ = n.propose(t, 10); // both followers' single slots now busy
                                  // Cold lease (no heartbeat acks yet): the read needs a ReadIndex
                                  // confirmation round, whose nudge finds every window full.
        let (res, fx) = n.request_read(t, 99, true);
        res.unwrap();
        assert!(fx.reads.is_empty(), "not confirmable yet");
        assert!(appends_to(&fx, 1).is_empty(), "window full: nudge deferred");
        assert!(appends_to(&fx, 2).is_empty());
        // The append ack frees the slot; the tail nudge ships the token.
        let last = n.log().last_index();
        let fx = n.step(
            t + Duration::from_millis(20),
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: last,
                read_ctx: None,
            }),
        );
        let sent = appends_to(&fx, 1);
        assert!(
            sent.iter().any(|ae| ae.read_ctx.is_some()),
            "freed slot carries the confirmation token"
        );
        // The follower's echo confirms the round and grants the read.
        let fx = n.step(
            t + Duration::from_millis(40),
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: last,
                read_ctx: Some(1),
            }),
        );
        assert!(fx.reads.iter().any(|g| g.id == 99));
    }

    #[test]
    fn snapshot_transfer_occupies_the_whole_window() {
        let mut leader = node(0, 3);
        let last = leader_with_committed(&mut leader, 5);
        leader.compact_log(last);
        let t = ms(3100);
        // Conflict below the horizon converts to a snapshot stream.
        let _ = leader.step(
            t,
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: false,
                match_or_hint: 0,
                read_ctx: None,
            }),
        );
        assert_eq!(leader.snapshots_sent(), 1);
        // New proposals must not pipeline appends behind the transfer:
        // they would anchor below the follower's future restored log base
        // and bounce anyway.
        let (_, fx) = leader.propose(t, 99);
        assert!(
            appends_to(&fx, 2).is_empty(),
            "no appends behind a snapshot"
        );
        let fx = leader.tick(t + MAX_BATCH_DELAY);
        assert!(appends_to(&fx, 2).is_empty());
        assert_eq!(leader.snapshots_sent(), 1, "flush must not re-stream");
        // The install ack reopens the window; ordinary appends take over.
        let fx = leader.step(
            t + Duration::from_millis(60),
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: last,
                read_ctx: None,
            }),
        );
        let sent = appends_to(&fx, 2);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].prev_log_index, last);
        assert_eq!(sent[0].entries.len(), 1, "the buffered proposal follows");
    }

    // ------------------------------------------------------------------
    // Configuration changes
    // ------------------------------------------------------------------

    /// `on_append_resp` keeps working after `try_advance_commit`: it refills
    /// the acker's window and nudges it for pending read rounds. The ack
    /// that commits the leader's own removal deposes it in the middle of
    /// that — the leader state is gone when the tail runs.
    #[test]
    fn ack_committing_own_removal_steps_down_and_aborts_queued_reads() {
        let (mut n, t) = leader3_with_window(4);
        let ack = |n: &mut Node, peer: NodeId, index: LogIndex| {
            let resp = AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: index,
                read_ctx: None,
            };
            n.step(t, peer, Payload::AppendResp(resp))
        };
        // Remove the leader itself: joint {0,1,2} -> {1,2}, then finalize.
        let begin = ConfChange::Begin {
            add: vec![],
            remove: vec![0],
        };
        let (res, _) = n.propose_conf_change(t, begin);
        let (_, joint) = res.unwrap();
        let _ = ack(&mut n, 1, joint);
        let _ = ack(&mut n, 2, joint);
        assert_eq!(n.commit_index(), joint);
        let (res, _) = n.propose_conf_change(t, ConfChange::Finalize);
        let (_, finalize) = res.unwrap();
        assert!(!n.membership().is_voter(0));
        assert_eq!(n.role(), Role::Leader, "leads until the removal commits");
        // A non-voting leader has no lease: the read opens a ReadIndex round.
        let (res, fx) = n.request_read(t, 77, true);
        res.unwrap();
        assert!(fx.reads.is_empty());
        assert_eq!(n.pending_reads(), 1);
        // Something unsent for the ack's window refill to ship, were the
        // leader still leading.
        let (res, fx) = n.propose(t, 5);
        res.unwrap();
        assert!(appends_to(&fx, 2).is_empty(), "pipe busy: buffered");
        let _ = ack(&mut n, 1, finalize);
        assert_eq!(n.role(), Role::Leader, "one of two new voters is no quorum");
        // The second ack commits the Finalize and with it the removal.
        let fx = ack(&mut n, 2, finalize);
        assert_eq!(n.commit_index(), finalize);
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(fx.aborted_reads, vec![77]);
        assert_eq!(n.pending_reads(), 0);
        assert!(
            fx.messages.iter().all(|m| m.to != 2),
            "a deposed leader sends the acker nothing further: {:?}",
            fx.messages
        );
        let kinds: Vec<&str> = fx.events.iter().map(RaftEvent::kind).collect();
        assert!(kinds.contains(&"stepped_down"), "events: {kinds:?}");
    }

    /// Per-peer loops send in ascending id order — also after a learner
    /// above every voter joins (leaving an untracked id below it) and a
    /// `Finalize` drops a voter from the middle of the id range.
    #[test]
    fn appends_and_heartbeats_go_out_in_ascending_id_order_across_membership_changes() {
        let mut n = node(0, 4);
        let _ = elect(&mut n, SimTime::ZERO);
        let t = ms(3000);
        // Every tracked peer acks the whole log, leaving every pipe idle
        // (an untracked peer's ack is ignored).
        let ack_all = |n: &mut Node| {
            let last = n.log().last_index();
            for peer in [1, 2, 3, 5] {
                let resp = AppendResp {
                    term: n.term(),
                    success: true,
                    match_or_hint: last,
                    read_ctx: None,
                };
                let _ = n.step(t, peer, Payload::AppendResp(resp));
            }
            assert_eq!(n.commit_index(), last);
        };
        let change = |n: &mut Node, change: ConfChange| {
            let (res, _) = n.propose_conf_change(t, change);
            res.unwrap();
            ack_all(n);
        };
        // Who a proposal and then a heartbeat round at `beat` reach, in
        // emission order.
        let order = |n: &mut Node, command: u64, beat: SimTime| {
            let (res, fx) = n.propose(t, command);
            res.unwrap();
            let appends: Vec<NodeId> = fx.messages.iter().map(|m| m.to).collect();
            let fx = n.tick(beat);
            let heartbeats: Vec<NodeId> = fx
                .messages
                .iter()
                .filter(|m| matches!(m.payload, Payload::Heartbeat(_)))
                .map(|m| m.to)
                .collect();
            (appends, heartbeats)
        };
        ack_all(&mut n);
        change(&mut n, ConfChange::AddLearner(5));
        let tracked = vec![1, 2, 3, 5];
        let beat = t + Duration::from_millis(500);
        assert_eq!(order(&mut n, 1, beat), (tracked.clone(), tracked));
        ack_all(&mut n);
        let begin = ConfChange::Begin {
            add: vec![],
            remove: vec![2],
        };
        change(&mut n, begin);
        change(&mut n, ConfChange::Finalize);
        assert!(!n.membership().members().contains(&2));
        assert!(n.progress_of(2).is_none(), "the removed voter is untracked");
        let tracked = vec![1, 3, 5];
        // One default heartbeat interval later, every pacer is due again.
        let beat = beat + Duration::from_millis(100);
        assert_eq!(order(&mut n, 2, beat), (tracked.clone(), tracked));
    }
}
