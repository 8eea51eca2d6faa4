//! Replicated key-value store for the Dynatune reproduction.
//!
//! The paper evaluates Dynatune inside etcd, a Raft-replicated KV store.
//! This crate provides the service layer:
//!
//! * [`KvStore`] — the deterministic KV map (put/get/delete/range/CAS with
//!   etcd-style create/mod revisions);
//! * [`Store`] — the replicated state machine: the map plus per-client
//!   retry deduplication and snapshot/restore, driven by `dynatune-raft`;
//! * [`Sessions`] — the per-client sliding reply cache (Raft §6.3 sessions)
//!   behind that deduplication, shared with the broker's state machine and
//!   chunked so that a snapshot shares it with the live state;
//! * [`WorkloadGen`] — open-loop client load with Poisson arrivals, rate
//!   ramp schedules (the paper's §IV-B2 peak-throughput methodology) and
//!   Zipf-skewed keys;
//! * [`ShardRouter`] / [`ShardMap`] — hash partitioning of the keyspace
//!   across independent Raft groups, and the replica placement that maps
//!   shards onto simulated hosts (the multi-Raft serving layer).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sessions;
pub mod shard;
pub mod store;
pub mod workload;

pub use sessions::{CachedReply, Sessions};
pub use shard::{ShardId, ShardMap, ShardRouter};
pub use store::{
    KvCommand, KvRequest, KvResponse, KvStore, ReqOrigin, Store, VersionedValue,
    DEFAULT_REPLY_WINDOW,
};
pub use workload::{OpMix, RateStep, WorkloadGen};
