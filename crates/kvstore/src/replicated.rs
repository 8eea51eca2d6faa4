//! The exactly-once layer: how a client command becomes a replicated log
//! entry that applies once however often it commits.
//!
//! An application is a state type implementing [`App`] — it says which
//! commands are reads, what they weigh, and how to execute them, and knows
//! nothing about clients or retries. [`Replicated`] wraps it with the
//! per-client reply cache ([`Sessions`], Raft §6.3) and is the only
//! [`StateMachine`] the serving layer hands to Raft; what Raft logs is a
//! [`Request`], the command plus the `(client, req_id)` it came from.

use crate::sessions::{CachedReply, ReqOrigin, Sessions, DEFAULT_REPLY_WINDOW};
use dynatune_raft::{LogIndex, NodeId, StateMachine};
use std::fmt::Debug;
use std::ops::Deref;

/// One application's replicated state and the command vocabulary around
/// it. Implementations must be deterministic: the state depends only on
/// the executed command sequence. The state is its own snapshot, hence
/// `Clone`; a fresh replica starts from `Default`.
pub trait App: Clone + Debug + Default + 'static {
    /// Client-facing command: what travels in `ClientReq`/`ClientBatch`,
    /// and what a [`Request`] carries into the log beside its origin.
    type Command: Clone + Debug;
    /// Response returned to clients, and cached per origin for writes.
    type Response: Clone + Debug + CachedReply;

    /// True for commands that mutate nothing. The serving layer routes
    /// these around the Raft log (lease / ReadIndex reads) and
    /// [`Replicated`] keeps them out of the reply cache.
    fn is_read(cmd: &Self::Command) -> bool;

    /// Approximate wire size of the command: payload plus a small framing
    /// overhead. Feeds the leader's group-commit byte accounting and the
    /// simulator's byte-based replication CPU charge, so only relative
    /// accuracy matters.
    fn payload_bytes(cmd: &Self::Command) -> usize;

    /// Execute one committed command at `index`. Reads that reach the
    /// replicated path (the `ReadStrategy::Log` baseline) execute like any
    /// other command.
    fn execute(&mut self, index: LogIndex, cmd: &Self::Command) -> Self::Response;

    /// Serve a read from the current state; `None` for mutating commands.
    /// Both the log path and the log-free read path run this, so the two
    /// cannot diverge on read semantics.
    fn read(&self, cmd: &Self::Command) -> Option<Self::Response>;

    /// Rough in-memory size of the state, for the size-aware snapshot cost
    /// model.
    fn approx_bytes(&self) -> usize;
}

/// A client's command and where it came from: the one record a server
/// holds from admission to reply, and what Raft replicates. The origin
/// lets every replica recognise a retried request that already committed
/// under a previous leader, instead of applying it twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<C> {
    /// The issuing client and its request id.
    pub origin: ReqOrigin,
    /// The command to apply.
    pub cmd: C,
}

impl<C> Request<C> {
    /// A request on behalf of `client`'s `req_id` (monotonically increasing
    /// per client).
    #[must_use]
    pub fn from_client(client: NodeId, req_id: u64, cmd: C) -> Self {
        Self {
            origin: ReqOrigin { client, req_id },
            cmd,
        }
    }
}

/// The replicated state machine: an [`App`]'s state plus per-client reply
/// caches (Raft §6.3 client sessions).
///
/// A client that loses its response to a leadership change retries the same
/// `req_id`, possibly through a new leader. Both the original and the
/// retried log entry may commit; without the cache each replica would
/// execute the write twice (bumping versions, re-running a CAS against the
/// new state, appending a produce batch again). `apply` recognises the
/// duplicate by its [`ReqOrigin`] and replays the cached response instead.
///
/// The cache is part of replicated state: it is filled identically on every
/// replica (same applied sequence) and travels inside snapshots, so a
/// follower restored via `InstallSnapshot` deduplicates exactly like one
/// that replayed the log.
///
/// The app is reachable read-only through `Deref`. There is deliberately
/// no mutable path to it: a write that went around `apply` would also go
/// around the reply cache and break exactly-once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replicated<A: App> {
    app: A,
    /// Per-client window of recent `req_id → response`.
    sessions: Sessions<A::Response>,
}

impl<A: App> Default for Replicated<A> {
    fn default() -> Self {
        Self::from_parts(A::default(), DEFAULT_REPLY_WINDOW)
    }
}

impl<A: App> Replicated<A> {
    /// Empty state with the default reply window.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Start from `app` (nothing applied yet), retaining `window` reply ids
    /// per client; see [`DEFAULT_REPLY_WINDOW`] for the sizing rule.
    #[must_use]
    pub fn from_parts(app: A, window: u64) -> Self {
        Self {
            app,
            sessions: Sessions::new(window),
        }
    }

    /// The reply cache (observers and tests).
    #[must_use]
    pub fn sessions(&self) -> &Sessions<A::Response> {
        &self.sessions
    }

    /// Rough in-memory size of the snapshot this state machine would
    /// produce: the app's state plus the sessions cache (both travel
    /// inside `InstallSnapshot`, so both are charged by the size-aware
    /// cost model).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.app.approx_bytes() + self.sessions.approx_bytes()
    }

    /// The log-free read entry point: serve a read from the current
    /// applied state (`None` for mutating commands). Callers must hold a
    /// valid [`ReadGrant`](dynatune_raft::ReadGrant) whose `read_index`
    /// this state machine has applied through.
    ///
    /// **Invariant — reads stay out of the per-client reply cache, on both
    /// ends.** Responses served here are never inserted into the sessions
    /// (only mutating commands are, see `apply`), and this path never
    /// consults them. Both directions matter for linearizability: a client
    /// that lease-read through a leader, lost the response to a failover,
    /// and retries the *same* `req_id` at the new leader must re-execute
    /// against the new leader's current state — replaying a cached
    /// pre-failover value would serve a stale read, and caching the fresh
    /// one would bloat replicated state (and every snapshot built from it)
    /// for a response that retries can simply recompute.
    #[must_use]
    pub fn read(&self, cmd: &A::Command) -> Option<A::Response> {
        self.app.read(cmd)
    }
}

impl<A: App> Deref for Replicated<A> {
    type Target = A;

    fn deref(&self) -> &A {
        &self.app
    }
}

impl<A: App> StateMachine for Replicated<A> {
    type Command = Request<A::Command>;
    type Response = A::Response;
    type Snapshot = Self;

    fn command_bytes(request: &Self::Command) -> usize {
        const ORIGIN: usize = 16; // (client, req_id)
        ORIGIN + A::payload_bytes(&request.cmd)
    }

    fn apply(&mut self, index: LogIndex, request: &Self::Command) -> A::Response {
        // Only mutating commands need exactly-once protection: re-executing
        // a retried read is harmless (it re-reads at the retry's commit
        // point), and keeping read responses out of the sessions keeps
        // replicated state — and every snapshot built from it — small.
        if A::is_read(&request.cmd) {
            return self.app.execute(index, &request.cmd);
        }
        if let Some(cached) = self.sessions.get(request.origin) {
            // Duplicate of an already-applied request: idempotent replay
            // of the original response.
            return cached.clone();
        }
        let resp = self.app.execute(index, &request.cmd);
        self.sessions.record(request.origin, resp.clone());
        resp
    }

    fn snapshot(&self) -> Self {
        self.clone()
    }

    fn restore(&mut self, snapshot: &Self) {
        *self = snapshot.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts executed writes (`false`); `true` reads the count. Replies
    /// are `u16`, which the `sessions` tests already size as
    /// `1 + value` bytes.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct Counter(u16);

    impl App for Counter {
        type Command = bool;
        type Response = u16;

        fn is_read(cmd: &bool) -> bool {
            *cmd
        }
        fn payload_bytes(_: &bool) -> usize {
            3
        }
        fn execute(&mut self, _: LogIndex, cmd: &bool) -> u16 {
            self.0 += u16::from(!*cmd);
            self.0
        }
        fn read(&self, cmd: &bool) -> Option<u16> {
            cmd.then_some(self.0)
        }
        fn approx_bytes(&self) -> usize {
            2
        }
    }

    const WRITE: bool = false;
    const READ: bool = true;

    #[test]
    fn exactly_once_layer_over_a_toy_app() {
        let at = |client, req_id| ReqOrigin { client, req_id };
        let mut r = Replicated::<Counter>::new();
        assert_eq!(r.sessions().window(), DEFAULT_REPLY_WINDOW);

        // A retry replays the first response and executes nothing.
        let write = Request::from_client(1, 1, WRITE);
        assert_eq!(r.apply(1, &write), 1);
        assert_eq!(r.apply(2, &write), 1);
        assert_eq!(r.0, 1, "the write executed once");

        // Reads stay out of the cache in both directions: the response is
        // not recorded, and the retried read re-executes on current state.
        let read = Request::from_client(1, 2, READ);
        assert_eq!(r.apply(3, &read), 1);
        assert_eq!(r.sessions().get(at(1, 2)), None);
        r.apply(4, &Request::from_client(1, 3, WRITE));
        assert_eq!(r.apply(5, &read), 2);
        assert_eq!(r.read(&READ), Some(2));
        assert_eq!(r.read(&WRITE), None);

        // A restored replica dedupes the same retry.
        let mut restored = Replicated::<Counter>::new();
        restored.restore(&r.snapshot());
        assert_eq!(restored, r);
        assert_eq!(restored.apply(6, &write), 1);
        assert_eq!(restored.0, 2);

        // Two replies are cached: 1 (1 + 1 bytes) and 2 (1 + 2 bytes).
        assert_eq!(r.sessions().approx_bytes(), 5);
        assert_eq!(r.approx_bytes(), 2 + 5);
        assert_eq!(Replicated::<Counter>::command_bytes(&write), 16 + 3);
    }

    /// Fails to compile (two candidate impls for the inferred `_`) if
    /// `Replicated` ever hands out `&mut A`.
    #[test]
    fn replicated_exposes_no_mutable_path_to_the_app() {
        trait NoMutableAccess<Marker> {
            fn check() {}
        }
        impl<T> NoMutableAccess<()> for T {}
        impl<T: std::ops::DerefMut> NoMutableAccess<u8> for T {}
        impl<T: AsMut<Counter>> NoMutableAccess<u16> for T {}
        impl<T: std::borrow::BorrowMut<Counter>> NoMutableAccess<u32> for T {}
        <Replicated<Counter> as NoMutableAccess<_>>::check();
    }
}
