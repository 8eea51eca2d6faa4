//! The scenario catalog: every paper figure, the ablations, and the
//! beyond-paper scenarios, declared as [`Scenario`] rows over the
//! scenario API.
//!
//! Each scenario is a `const` row (name, metadata, `run`) beside the free
//! `fn` that runs it; all run parameters come from the
//! [`RunCtx`](crate::scenario::RunCtx) (seed, quick/full scale, overrides)
//! so that the registry can enumerate and run everything uniformly.
//!
//! A module keeps its measurement procedure (what to record and how to
//! aggregate it) beside the scenario that reports it. The paper's §IV
//! procedures:
//!
//! | Module | Paper | What it regenerates |
//! |--------|-------|---------------------|
//! | [`failover`] | Fig. 4, Fig. 8 | detection/OTS CDFs over repeated leader pauses |
//! | `throughput` | Fig. 5 | latency-vs-throughput curve, peak throughput |
//! | `fluctuation` | Fig. 6a/6b, Fig. 7a/7b | randomizedTimeout / RTT / OTS series; heartbeat interval + CPU under loss ramps |
//! | `ablations` | (ours) | quantization, safety factor, arrival probability, list sizes, transport, pre-vote |
//!
//! Each scenario owns its claim: its `run` `assert!`s what it measured
//! against the paper's (or its own) claim at every scale, so
//! `scenarios --quick` is the gate and no test re-runs a shrunk copy of
//! the experiment. `Scenario::ci_assertion` says what is asserted; a
//! finding that does not hold at every scale stays in the report only.
//!
//! [`Scenario`]: crate::scenario::Scenario

pub(super) mod ablations;
pub(super) mod broker;
pub(super) mod compaction;
pub mod failover;
pub(super) mod fluctuation;
pub(super) mod membership;
pub(super) mod novel;
pub(super) mod pipeline;
pub(super) mod reads;
pub(super) mod sharded;
pub(super) mod throughput;

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
