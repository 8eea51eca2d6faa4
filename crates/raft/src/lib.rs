//! From-scratch etcd-style Raft with pluggable Dynatune tuning.
//!
//! This crate is the consensus substrate of the reproduction: the paper
//! builds Dynatune into etcd's Raft, so we rebuild the relevant slice of
//! etcd's Raft semantics in Rust:
//!
//! * leader / follower / candidate / **pre-candidate** roles with the
//!   pre-vote phase (§II-A of the paper);
//! * randomized election timeouts `U[Et, 2·Et)` with etcd's tick
//!   quantization (tick = heartbeat interval);
//! * check-quorum: vote requests are ignored inside an active leader lease,
//!   and leaders step down when a quorum goes silent;
//! * log replication with conflict back-off, commit by majority match in
//!   the current term, prefix compaction;
//! * per-follower heartbeat pacing carrying Dynatune measurement metadata
//!   over the UDP-like channel (the paper's hybrid transport, §III-E);
//! * pause (container-sleep) and crash-recovery failure modes; a crash
//!   keeps the log and the applied state, as a disk-based state machine
//!   would, so compaction drops the prefix without taking a snapshot.
//!
//! The node is a pure state machine ([`RaftNode::step`] / [`RaftNode::tick`]
//! / [`RaftNode::propose`] → [`Effects`]) so the discrete-event simulator
//! and property tests can drive it deterministically.
//!
//! # Where things live
//!
//! [`RaftNode`] is the [`node`] module, cut by protocol — `node/mod.rs`
//! holds the state and dispatches `tick`/`step` to one file each for
//! elections (`election.rs`), heartbeats (`heartbeat.rs`), replication
//! (`replication.rs`), log-free reads (`reads.rs`), configuration changes
//! (`confchange.rs`) and snapshots (`snapshot.rs`). **`node/heartbeat.rs` is
//! the Dynatune seam**: the only place `dynatune_core`'s `FollowerTuner`
//! and `LeaderPacer` exchange data with Raft's messages. Around the node sit
//! its value types: [`log`], [`progress`] (the per-follower pipeline window),
//! [`membership`], [`message`], [`config`], [`events`] and
//! [`state_machine`]. The adversarial proptest suites under `tests/` share
//! one harness, `tests/common/mod.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod events;
pub mod log;
pub mod membership;
pub mod message;
pub mod node;
pub mod progress;
pub mod state_machine;
pub mod types;

pub use config::{RaftConfig, TimerQuantization};
pub use events::RaftEvent;
pub use log::{AppendOutcome, Entry, RaftLog};
pub use membership::{ConfChange, Membership};
pub use message::{
    AppendEntries, AppendResp, Heartbeat, HeartbeatResp, InstallSnapshot, OutMsg, Payload,
    RequestVote, RequestVoteResp,
};
pub use node::{ConfChangeError, NodeEffects, NodePayload, NotLeader, RaftNode};
pub use progress::{InflightSend, Progress};
pub use state_machine::{Applied, Effects, NullStateMachine, ReadGrant, ReadPath, StateMachine};
pub use types::{quorum, LogIndex, NodeId, Role, Term};
