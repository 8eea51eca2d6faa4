//! Raft RPC payloads.
//!
//! Following the paper's hybrid transport (§III-E), heartbeats and their
//! responses travel over the UDP-like channel (loss-tolerant, measurable),
//! while log replication and votes use the TCP-like channel. The
//! [`Payload::channel`] method encodes that mapping.

use crate::log::Entry;
use crate::membership::Membership;
use crate::types::{LogIndex, NodeId, Term};
use dynatune_core::{HeartbeatMeta, HeartbeatReply};
use dynatune_simnet::Channel;

/// Leader → follower keep-alive with Dynatune measurement metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// Leader's term.
    pub term: Term,
    /// The leader's id (authoritative; equals the sender).
    pub leader: NodeId,
    /// Per-follower commit index: `min(match[follower], leader_commit)`, so
    /// the follower never commits entries it does not have verified.
    pub commit: LogIndex,
    /// Dynatune measurement metadata (id, send timestamp, last RTT).
    pub meta: HeartbeatMeta,
}

/// Follower → leader heartbeat acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeartbeatResp {
    /// Responder's term (lets a deposed leader learn it must step down).
    pub term: Term,
    /// Echo + tuned interval piggyback.
    pub reply: HeartbeatReply,
}

/// Leader → follower log replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendEntries<C> {
    /// Leader's term.
    pub term: Term,
    /// The leader's id.
    pub leader: NodeId,
    /// Index of the entry immediately preceding `entries`.
    pub prev_log_index: LogIndex,
    /// Term of that entry.
    pub prev_log_term: Term,
    /// Entries to replicate (empty = pure commit-index carrier).
    pub entries: Vec<Entry<C>>,
    /// Leader's commit index (clamped by the follower to its own log).
    pub leader_commit: LogIndex,
    /// The leader's clock when it sent this append, in nanoseconds (as
    /// [`HeartbeatMeta::sent_at_nanos`]). Echoed in the [`AppendResp`], it
    /// renews the leader's leadership record exactly as a heartbeat ack
    /// does: a follower re-arms its election timer on every append it
    /// accepts. The lease and ReadIndex confirmation both read that record.
    pub sent_at_nanos: u64,
}

/// Follower → leader replication acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendResp {
    /// Responder's term.
    pub term: Term,
    /// Whether the consistency check passed and entries were stored.
    pub success: bool,
    /// On success: highest index matching the leader. On failure: the
    /// follower's back-off hint (probe at `prev = hint`).
    pub match_or_hint: LogIndex,
    /// Echo of the request's `sent_at_nanos`, on success and conflict
    /// alike: either way the follower accepted the leader's contact and
    /// re-armed its election timer. `None` from a stale-term reject and
    /// from a snapshot ack.
    pub echo_sent_at_nanos: Option<u64>,
}

/// Leader → follower full-state transfer (TCP).
///
/// Sent when the entry a follower needs next was already compacted away on
/// the leader (`next_index ≤ log.first_index()`), which log replication can
/// never recover from on its own. Carries the leader's state-machine
/// snapshot plus the log position it covers; the follower resets its log
/// base to `(last_included_index, last_included_term)` and restores the
/// state, then acknowledges with a regular [`AppendResp`] so the leader's
/// progress tracking advances through the normal path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallSnapshot<S> {
    /// Leader's term.
    pub term: Term,
    /// The leader's id.
    pub leader: NodeId,
    /// Highest log index included in the snapshot.
    pub last_included_index: LogIndex,
    /// Term of that entry.
    pub last_included_term: Term,
    /// The cluster configuration as of `last_included_index`. Configuration
    /// changes live in log entries, so a follower whose log is replaced by
    /// the snapshot would otherwise lose the membership history the
    /// discarded prefix carried; the snapshot restores it directly.
    pub membership: Membership,
    /// The state-machine snapshot covering entries `1..=last_included_index`.
    pub data: S,
}

/// Vote request, used for both the pre-vote phase (`pre_vote == true`,
/// term is the *prospective* term, voter's term unchanged) and real
/// elections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestVote {
    /// Candidate's term (for pre-vote: current term + 1, not yet adopted).
    pub term: Term,
    /// True for the pre-vote phase.
    pub pre_vote: bool,
    /// Candidate's last log index.
    pub last_log_index: LogIndex,
    /// Candidate's last log term.
    pub last_log_term: Term,
}

/// Vote response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestVoteResp {
    /// The term the response refers to (the campaign term when granted; the
    /// voter's own term when rejecting from a higher term).
    pub term: Term,
    /// True when answering a pre-vote.
    pub pre_vote: bool,
    /// Whether the (pre-)vote was granted.
    pub granted: bool,
}

/// All Raft messages, generic over the state-machine command and snapshot
/// types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload<C, S> {
    /// Keep-alive with measurement metadata (UDP).
    Heartbeat(Heartbeat),
    /// Keep-alive acknowledgement (UDP).
    HeartbeatResp(HeartbeatResp),
    /// Log replication (TCP).
    AppendEntries(AppendEntries<C>),
    /// Replication acknowledgement (TCP).
    AppendResp(AppendResp),
    /// Full-state catch-up for followers behind the compaction horizon (TCP).
    /// Boxed: it is by far the largest variant and the rarest, and every
    /// message is moved hop by hop through the fabric, so inline it would
    /// set the size of all of them.
    InstallSnapshot(Box<InstallSnapshot<S>>),
    /// Pre-vote or vote request (TCP).
    RequestVote(RequestVote),
    /// Pre-vote or vote response (TCP).
    RequestVoteResp(RequestVoteResp),
}

impl<C, S> Payload<C, S> {
    /// The transport channel this payload uses (§III-E hybrid transport).
    /// When `udp_heartbeats` is false (ablation: stock etcd transport),
    /// everything rides on TCP.
    #[must_use]
    pub fn channel(&self, udp_heartbeats: bool) -> Channel {
        match self {
            Payload::Heartbeat(_) | Payload::HeartbeatResp(_) if udp_heartbeats => Channel::Udp,
            _ => Channel::Tcp,
        }
    }

    /// The message's term, for generic stale-message filtering.
    #[must_use]
    pub fn term(&self) -> Term {
        match self {
            Payload::Heartbeat(m) => m.term,
            Payload::HeartbeatResp(m) => m.term,
            Payload::AppendEntries(m) => m.term,
            Payload::AppendResp(m) => m.term,
            Payload::InstallSnapshot(m) => m.term,
            Payload::RequestVote(m) => m.term,
            Payload::RequestVoteResp(m) => m.term,
        }
    }
}

/// An addressed outbound message produced by the node.
#[derive(Debug, Clone)]
pub struct OutMsg<C, S> {
    /// Destination node.
    pub to: NodeId,
    /// Transport channel.
    pub channel: Channel,
    /// The payload.
    pub payload: Payload<C, S>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat() -> Payload<u32, ()> {
        Payload::Heartbeat(Heartbeat {
            term: 3,
            leader: 0,
            commit: 5,
            meta: HeartbeatMeta {
                id: 1,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        })
    }

    #[test]
    fn hybrid_channel_mapping() {
        assert_eq!(heartbeat().channel(true), Channel::Udp);
        assert_eq!(heartbeat().channel(false), Channel::Tcp);
        let vote: Payload<u32, ()> = Payload::RequestVote(RequestVote {
            term: 1,
            pre_vote: false,
            last_log_index: 0,
            last_log_term: 0,
        });
        assert_eq!(vote.channel(true), Channel::Tcp);
        assert_eq!(vote.channel(false), Channel::Tcp);
        // Snapshots are bulk transfers: always the reliable channel.
        let snap: Payload<u32, ()> = Payload::InstallSnapshot(Box::new(InstallSnapshot {
            term: 2,
            leader: 0,
            last_included_index: 10,
            last_included_term: 2,
            membership: Membership::initial(&[0, 1, 2], &[]),
            data: (),
        }));
        assert_eq!(snap.channel(true), Channel::Tcp);
        assert_eq!(snap.term(), 2);
    }

    #[test]
    fn term_extraction() {
        assert_eq!(heartbeat().term(), 3);
    }
}
