//! The experiment catalog: every paper figure, the ablations, and the
//! beyond-paper scenarios, implemented as [`Experiment`]s over the
//! scenario API.
//!
//! Each type here is a stateless marker struct; all run parameters come
//! from the [`RunCtx`](crate::scenario::RunCtx) (seed, quick/full scale,
//! overrides) so that the registry can enumerate and run everything
//! uniformly.
//!
//! A module keeps its measurement procedure (what to record and how to
//! aggregate it) beside the experiment that reports it. The paper's §IV
//! procedures:
//!
//! | Module | Paper | What it regenerates |
//! |--------|-------|---------------------|
//! | [`failover`] | Fig. 4, Fig. 8 | detection/OTS CDFs over repeated leader pauses |
//! | [`throughput`] | Fig. 5 | latency-vs-throughput curve, peak throughput |
//! | [`fluctuation`] | Fig. 6a/6b, Fig. 7a/7b | randomizedTimeout / RTT / OTS series; heartbeat interval + CPU under loss ramps |
//! | [`ablations`] | (ours) | quantization, safety factor, arrival probability, list sizes, transport, pre-vote |
//!
//! [`Experiment`]: crate::scenario::Experiment

pub mod ablations;
mod broker;
mod compaction;
mod extensions;
pub mod failover;
pub mod fluctuation;
mod membership;
mod novel;
mod pipeline;
mod reads;
pub mod sharded;
pub mod throughput;

pub use ablations::Ablations;
pub use broker::{BrokerProduceThroughput, ConsumerFanout, ConsumerLagFailover};
pub use compaction::{CompactionChurn, LaggingFollowerCatchup};
pub use extensions::Extensions;
pub use failover::{Fig4Failover, Fig8GeoFailover};
pub use fluctuation::{Fig6aGradualRtt, Fig6bRadicalRtt, Fig7LossFluctuation};
pub use membership::{ElasticScaleout, MembershipChurn, ShardRebalance};
pub use novel::{GeoAsymmetricFailover, PartitionChurn};
pub use pipeline::PipelineDepth;
pub use reads::{FollowerReadOffload, LeaseSafetyPartition, ReadHeavyThroughput};
pub use sharded::{HotShard, ShardLeaderFailover, ShardedThroughput};
pub use throughput::Fig5Throughput;

/// Unwrap a scenario wiring invariant. Scenarios construct their own sims,
/// so a `None` from an accessor whose precondition the scenario itself set
/// up (a workload client it attached, a leader its settle window elected)
/// is a bug in the scenario — crash with the stated invariant rather than
/// limp on with partial results.
pub(crate) fn wired<T>(v: Option<T>, why: &str) -> T {
    match v {
        Some(v) => v,
        None => dynatune_core::invariant_violated!("{why}"),
    }
}
