//! `dynatune_broker` — a Kafka-style replicated topic/partition log as a
//! second state machine on the dynatune Raft core.
//!
//! The KV store proved the consensus stack; this crate proves it
//! *generalizes*. A broker is the best-case workload for everything PRs
//! 3–6 built: produces are append-only (pipelined, byte-batched
//! replication at its strongest), fetches are reads at an offset (the
//! log-free lease/ReadIndex/follower path), producers retry (the
//! origin/reply-cache dedupe machinery), and topics × partitions map onto
//! `ShardMap` Raft groups exactly like key ranges do.
//!
//! Layering:
//!
//! - [`Record`]: one key/value message, sized for the byte-based cost
//!   model.
//! - [`PartitionLog`]: the append-only records of one partition, with
//!   dense offsets. It keeps the applied produce batches, found by start
//!   offset; a fetch is a range of offsets clamped to the high watermark,
//!   and it shares those batches instead of copying records.
//! - [`Topic`]: the partitions of one topic.
//! - [`BrokerState`]: the broker [`App`](dynatune_kv::App) — topics and
//!   durable consumer-group offsets. [`BrokerSm`] names
//!   `Replicated<BrokerState>`, the state machine (state plus the producer
//!   reply cache) any Raft group can host.
//!
//! Serving (hosts, clients, scenarios) lives in `dynatune_cluster`, whose
//! generic `ServerHost` serves [`BrokerState`] exactly as it serves the KV
//! store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod record;
pub mod sm;
pub mod topic;

pub use partition::{FetchResult, PartitionLog};
pub use record::Record;
pub use sm::{BrokerCommand, BrokerRequest, BrokerResponse, BrokerSm, BrokerState};
pub use topic::{shard_of_partition, Topic};
