//! Simulation harness for the Dynatune reproduction.
//!
//! Assembles clusters of Raft servers (plus an optional benchmark client)
//! on the `dynatune-simnet` fabric, injects the paper's failure modes
//! (container pause, crash), observes elections and tuning state, models
//! CPU cost, and implements every experiment of the paper's evaluation
//! (§IV) in one layer: [`scenario`] holds the shared pieces (the network
//! plan, the cluster builder, the registry) and [`scenario::catalog`],
//! where each module keeps a measurement procedure beside the registered
//! experiment that reports it and injects its faults by calling the
//! [`ClusterSim`] directly.
//!
//! There is one cluster: [`ClusterSim<A, C>`](ClusterSim), generic over the
//! served [`App`] (the trait `dynatune_kv` defines and the KV and broker
//! state types implement; every server runs it inside the one
//! [`Replicated<A>`](dynatune_kv::Replicated) exactly-once state machine)
//! and the client that drives it (any simulation host speaking
//! [`ClusterMsg`]), described and built by one
//! [`ScenarioBuilder`]: its shard dimension places N independent Raft
//! groups in one world (a classic single group is `shards = 1`), its Raft
//! setters write one `raft` template where every Raft knob is declared,
//! and its `build_sim` / `build_sharded_sim` / `build_broker_sim` are the
//! only ways to assemble a cluster. There are two clients, the KV [`ClientHost`] and the
//! [`BrokerClient`]; both drive one crate-private request engine that owns
//! request ids, one live timer per request, the leader-routing table
//! (a placement row and a leader guess per shard), the redirect walk and
//! the retry budget — three resends for KV, unbounded for the broker.
//!
//! A run is read by borrowing its parts: [`ClusterSim::server`] and
//! [`ClusterSim::servers`] lend the [`ServerHost`]s and
//! [`ClusterSim::client`] lends the client, and a caller folds what it
//! needs (`sim.servers().map(ServerHost::log_len).max()`). The cluster
//! itself answers only what needs the world: placement and leaders, the
//! merged event streams, timeouts and heartbeat intervals across live
//! servers, and the network counters.
//!
//! State keyed by ids this crate hands out in increasing order — the
//! engine's live requests, a server's proposals by log index, its read
//! grants and forwarded reads — lives in one crate-private slot ring that
//! finds an entry by its offset from the oldest live id and iterates in id
//! order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod client;
pub mod cpu;
pub mod msg;
pub mod observers;
mod requests;
pub mod scenario;
pub mod server;
pub mod sim;
mod slots;

pub use broker::{BrokerClient, BrokerClusterSim, BrokerStats, BrokerWorkload, ConsumerStats};
pub use client::{ClientHost, OpRecord, ShardStats, StepRecord};
pub use cpu::{CostModel, CpuMeter};
pub use dynatune_kv::App;
pub use msg::ClusterMsg;
pub use observers::{
    count_events, election_safety_violations, extract_failover, kth_smallest_timeout_ms,
    leaderless_intervals, stale_read_violations, total_leaderless_secs, FailoverTimes,
};
pub use scenario::{NetPlan, Report, RunCtx, Scenario, ScenarioBuilder};
pub use server::{CompactionPolicy, ReadCounters, ReadStrategy, ServerHost};
pub use sim::{ClusterHost, ClusterSim, WorkloadSpec};
