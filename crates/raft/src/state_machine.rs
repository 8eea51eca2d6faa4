//! The replicated state machine interface and node output effects.

use crate::events::RaftEvent;
use crate::message::OutMsg;
use crate::types::{LogIndex, Term};

/// The application state machine commands are applied to once committed.
///
/// Implementations must be deterministic: every replica applies the same
/// committed command sequence and must reach the same state (the SMR
/// contract, §I of the paper).
pub trait StateMachine {
    /// Command type stored in log entries.
    type Command: Clone;
    /// Response produced by applying a command (returned to clients by the
    /// leader).
    type Response;
    /// Serialized full state, cut only to ship in `InstallSnapshot`
    /// messages: the applied state itself survives a crash.
    type Snapshot: Clone;

    /// Apply a committed command at `index`.
    fn apply(&mut self, index: LogIndex, command: &Self::Command) -> Self::Response;

    /// Approximate serialized size of `command` in bytes, used by the
    /// leader's group-commit accounting (`MAX_BATCH_BYTES`) and by the
    /// simulator's byte-based CPU charging for replication traffic. Only
    /// relative accuracy matters; the default charges a flat word-ish cost
    /// for state machines that never override it.
    #[must_use]
    fn command_bytes(_command: &Self::Command) -> usize {
        16
    }

    /// Capture the full applied state (everything up to the last applied
    /// entry). Must be deterministic: equal applied sequences produce
    /// snapshots that [`StateMachine::restore`] to equal states.
    fn snapshot(&self) -> Self::Snapshot;

    /// Replace the state with `snapshot`, discarding whatever was applied
    /// before.
    fn restore(&mut self, snapshot: &Self::Snapshot);
}

/// How a log-free read was leadership-confirmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Served inside a live leader lease — no network round needed.
    Lease,
    /// Served after a ReadIndex confirmation round (a quorum of acks at
    /// the leader's term echoing a send at or after registration).
    ReadIndex,
}

/// A granted log-free read: the caller-supplied id plus the state-machine
/// index the read is linearizable at. The granting node's `last_applied`
/// already covers `read_index`; a follower that forwarded the read must
/// wait for its own apply index to reach `read_index` before answering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadGrant {
    /// Caller-supplied read identifier (opaque to the node).
    pub id: u64,
    /// Commit index recorded when the read was registered; the read is
    /// linearizable once served from a state machine applied through it.
    pub read_index: LogIndex,
    /// Which confirmation path granted the read.
    pub path: ReadPath,
}

/// A committed entry that was just applied.
#[derive(Debug, Clone)]
pub struct Applied<R> {
    /// Log index of the applied entry.
    pub index: LogIndex,
    /// Term of the applied entry.
    pub term: Term,
    /// The state machine's response (`None` for no-op and conf-change
    /// entries, which apply nothing).
    pub response: Option<R>,
}

/// Everything a node wants the outside world to do after one input.
#[derive(Debug)]
pub struct Effects<C, R, S> {
    /// Messages to transmit.
    pub messages: Vec<OutMsg<C, S>>,
    /// Observable state transitions (for experiment observers).
    pub events: Vec<RaftEvent>,
    /// Entries applied to the state machine by this input.
    pub applied: Vec<Applied<R>>,
    /// Log-free reads granted by this input (lease or ReadIndex).
    pub reads: Vec<ReadGrant>,
    /// Queued log-free reads abandoned by this input (leadership lost
    /// before the grant); the host should redirect their clients.
    pub aborted_reads: Vec<u64>,
}

impl<C, R, S> Default for Effects<C, R, S> {
    fn default() -> Self {
        Self {
            messages: Vec::new(),
            events: Vec::new(),
            applied: Vec::new(),
            reads: Vec::new(),
            aborted_reads: Vec::new(),
        }
    }
}

impl<C, R, S> Effects<C, R, S> {
    /// An empty effects bundle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold another bundle into this one, preserving order.
    pub fn extend(&mut self, other: Effects<C, R, S>) {
        self.messages.extend(other.messages);
        self.events.extend(other.events);
        self.applied.extend(other.applied);
        self.reads.extend(other.reads);
        self.aborted_reads.extend(other.aborted_reads);
    }
}

/// A trivial state machine for tests: stores commands, echoes indices.
#[derive(Debug, Clone, Default)]
pub struct NullStateMachine {
    /// Commands applied so far.
    pub applied: Vec<(LogIndex, u64)>,
}

impl StateMachine for NullStateMachine {
    type Command = u64;
    type Response = LogIndex;
    type Snapshot = Vec<(LogIndex, u64)>;

    fn apply(&mut self, index: LogIndex, command: &u64) -> LogIndex {
        self.applied.push((index, *command));
        index
    }

    fn snapshot(&self) -> Vec<(LogIndex, u64)> {
        self.applied.clone()
    }

    fn restore(&mut self, snapshot: &Vec<(LogIndex, u64)>) {
        self.applied = snapshot.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_state_machine_records() {
        let mut sm = NullStateMachine::default();
        assert_eq!(sm.apply(1, &10), 1);
        assert_eq!(sm.apply(2, &20), 2);
        assert_eq!(sm.applied, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn null_state_machine_snapshot_round_trip() {
        let mut sm = NullStateMachine::default();
        sm.apply(1, &10);
        sm.apply(2, &20);
        let snap = sm.snapshot();
        let mut other = NullStateMachine::default();
        other.apply(7, &70);
        other.restore(&snap);
        assert_eq!(other.applied, sm.applied);
    }

    #[test]
    fn effects_extend_preserves_order() {
        type TestEffects = Effects<u64, LogIndex, Vec<(LogIndex, u64)>>;
        let mut a: TestEffects = Effects::new();
        a.events.push(RaftEvent::TunerReset);
        let mut b: TestEffects = Effects::new();
        b.events.push(RaftEvent::BecameLeader { term: 1 });
        a.extend(b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.events[1], RaftEvent::BecameLeader { term: 1 });
    }
}
