//! Simulation harness for the Dynatune reproduction.
//!
//! Assembles clusters of Raft servers (plus an optional benchmark client)
//! on the `dynatune-simnet` fabric, injects the paper's failure modes
//! (container pause, crash), observes elections and tuning state, models
//! CPU cost, and implements every experiment of the paper's evaluation
//! (§IV) in one layer: [`scenario`] holds the declarative pieces (builders,
//! fault plans, the generic driver, the registry) and
//! [`scenario::catalog`], where each module keeps a measurement procedure
//! beside the registered experiment that reports it.
//!
//! There is one cluster: [`ClusterSim<A, C>`](ClusterSim), generic over the
//! served [`App`] (the trait `dynatune_kv` defines and the KV and broker
//! state types implement; every server runs it inside the one
//! [`Replicated<A>`](dynatune_kv::Replicated) exactly-once state machine)
//! and the [`Client`] that drives it, described by one
//! [`ClusterConfig`] whose [`ShardMap`](dynatune_kv::ShardMap) places N
//! independent Raft groups in one world (a classic single group is
//! `shards = 1`) and whose one `raft` template is where every Raft knob is
//! declared. There are two clients, the KV [`ClientHost`] and the
//! [`BrokerClient`]; both drive one crate-private request engine that owns
//! request ids, one live timer per request, the leader-routing table
//! (a placement row and a leader guess per shard), the redirect walk and
//! the retry budget — three resends for KV, unbounded for the broker.
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
pub mod rebalance;
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
pub use rebalance::{RebalancePhase, Rebalancer, CATCH_UP_SLACK};
pub use scenario::{
    FaultAction, FaultEvent, FaultPlan, Horizon, NetPlan, PartitionSpec, Report, RunCtx, Scenario,
    ScenarioBuilder, ScenarioDriver, Target,
};
pub use server::{CompactionPolicy, ReadCounters, ReadStrategy, ServerHost};
pub use sim::{Client, ClusterConfig, ClusterHost, ClusterSim, WorkloadSpec};
