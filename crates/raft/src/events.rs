//! Observable events emitted by a node, consumed by experiment observers.
//!
//! The paper extracts detection and out-of-service times from server log
//! files (§IV-A); this enum is the structured equivalent.

use crate::types::{LogIndex, NodeId, Term};
use std::time::Duration;

/// Noteworthy state transitions of a Raft node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RaftEvent {
    /// The election timer expired — the node *detected* a (suspected)
    /// leader failure. Carries the randomized timeout that just expired,
    /// which is what the paper's Fig. 4/6 `randomizedTimeout` refers to.
    ElectionTimeout {
        /// Term at the moment of expiry (before any campaign bump).
        term: Term,
        /// The randomized timeout value that expired.
        randomized_timeout: Duration,
    },
    /// Pre-vote phase started.
    PreVoteStarted {
        /// Prospective campaign term (current + 1).
        campaign_term: Term,
    },
    /// A pre-vote or election round timed out without resolution and is
    /// being retried (split vote or unreachable quorum).
    CampaignRetry {
        /// Term of the abandoned round.
        term: Term,
    },
    /// Pre-vote aborted because the current leader made contact (the
    /// paper's Fig. 6b "false detection without OTS" path).
    PreVoteAborted {
        /// The node's (unchanged) term.
        term: Term,
    },
    /// A real election started (term incremented, votes requested).
    ElectionStarted {
        /// The new candidate term.
        term: Term,
    },
    /// This node won an election.
    BecameLeader {
        /// The leadership term.
        term: Term,
    },
    /// This node became (or reverted to) follower.
    BecameFollower {
        /// The follower's term.
        term: Term,
        /// The known leader, if any.
        leader: Option<NodeId>,
    },
    /// A leader stepped down (deposed by a higher term or check-quorum).
    SteppedDown {
        /// Term at step-down.
        term: Term,
    },
    /// The Dynatune tuner was reset to defaults (measurements discarded).
    TunerReset,
    /// The leader streamed a state-machine snapshot to a follower whose
    /// next needed entry was compacted away.
    SnapshotSent {
        /// The lagging follower.
        to: NodeId,
        /// Highest log index the snapshot covers.
        last_included_index: LogIndex,
    },
    /// This node installed a snapshot received from the leader (log base
    /// reset, state machine restored).
    SnapshotInstalled {
        /// Highest log index the snapshot covers.
        last_included_index: LogIndex,
    },
    /// The active cluster configuration changed: a configuration-change
    /// entry was appended (or rolled back by log truncation, or restored
    /// from a snapshot). Raft §6 append-time semantics: this fires when the
    /// entry enters the log, not when it commits.
    MembershipChanged {
        /// Log index of the configuration entry now in force (the snapshot
        /// boundary when restored from a snapshot).
        index: LogIndex,
        /// Number of voters in the (new, while joint) voter set.
        voters: usize,
        /// Number of non-voting learners.
        learners: usize,
        /// Whether a joint configuration (`C_old,new`) is active.
        joint: bool,
    },
    /// The leader opened a ReadIndex confirmation round: queued log-free
    /// reads could not be served from the lease (expired or disabled) and
    /// now await a quorum of acks echoing a send made at or after the round
    /// opened. Observably absent under a healthy lease — scenarios use it to
    /// tell the two read paths apart.
    ReadConfirmRound {
        /// The commit index the round's reads are served at.
        read_index: LogIndex,
    },
}
