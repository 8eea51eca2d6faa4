//! Replicated key-value store for the Dynatune reproduction.
//!
//! The paper evaluates Dynatune inside etcd, a Raft-replicated KV store.
//! This crate provides the service layer:
//!
//! * [`App`] / [`Replicated`] / [`Request`] — the exactly-once layer every
//!   application shares: an app is a state type that executes commands,
//!   `Replicated<A>` is the one state machine Raft drives (the app plus
//!   per-client retry deduplication and snapshot/restore), and a `Request`
//!   is the command with its retry origin;
//! * [`Sessions`] — the per-client sliding reply cache (Raft §6.3 sessions)
//!   behind that deduplication, chunked so that a snapshot shares it with
//!   the live state;
//! * [`KvStore`] — the KV app: the deterministic map (put/get/delete/CAS
//!   with etcd-style create/mod revisions); [`Store`] names
//!   `Replicated<KvStore>`;
//! * [`WorkloadGen`] — open-loop client load with Poisson arrivals, rate
//!   ramp schedules (the paper's §IV-B2 peak-throughput methodology) and
//!   Zipf-skewed keys;
//! * [`ShardRouter`] / [`ShardMap`] — hash partitioning of the keyspace
//!   across independent Raft groups, and the replica placement that maps
//!   shards onto simulated hosts (the multi-Raft serving layer).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replicated;
pub mod sessions;
pub mod shard;
pub mod store;
pub mod workload;

pub use replicated::{App, Replicated, Request};
pub use sessions::{CachedReply, ReqOrigin, Sessions, DEFAULT_REPLY_WINDOW};
pub use shard::{ShardId, ShardMap, ShardRouter};
pub use store::{KvCommand, KvRequest, KvResponse, KvStore, Store, VersionedValue};
pub use workload::{OpMix, RateStep, WorkloadGen};
