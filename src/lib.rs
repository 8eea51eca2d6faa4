//! Umbrella crate for the Dynatune reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and integration
//! tests can `use dynatune_repro::...`. See the individual crates for the
//! real implementation:
//!
//! * [`stats`] — statistics utilities (moments, windows, histograms, CDFs).
//! * [`simnet`] — deterministic discrete-event network simulator.
//! * [`core`] — the paper's contribution: heartbeat-based measurement and
//!   election-parameter tuning.
//! * [`raft`] — from-scratch etcd-style Raft with pluggable tuning.
//! * [`kv`] — replicated key-value store and workload generation.
//! * [`cluster`] — simulation harness, failure injection, and the scenario
//!   catalog (every §IV procedure beside the experiment that reports it).

pub use dynatune_broker as broker;
pub use dynatune_cluster as cluster;
pub use dynatune_core as core;
pub use dynatune_kv as kv;
pub use dynatune_raft as raft;
pub use dynatune_simnet as simnet;
pub use dynatune_stats as stats;
