//! Scenario API: the network and cluster as data, the experiments as
//! registered rows.
//!
//! The paper's evaluation (§IV) is a family of "build a cluster, disturb
//! it, measure" procedures. This module holds the pieces they share:
//!
//! | Piece | Type | Role |
//! |-------|------|------|
//! | network plan | [`NetPlan`] | the network as data: uniform meshes, schedules, geo presets, asymmetric degradations |
//! | cluster assembly | [`ScenarioBuilder`] | the one description of a cluster and its one constructor (`build_sim`, `build_sharded_sim`, `build_broker_sim`); Raft setters write through to its one `raft: RaftConfig` template |
//! | experiment row | [`Scenario`] | name, metadata and the `run` fn that maps a [`RunCtx`] to a [`Report`] |
//! | registry | [`REGISTRY`] | every registered row; [`find`] resolves one by name |
//!
//! Faults are calls on the built [`ClusterSim`](crate::ClusterSim):
//! `run_until` to the fault time, then `pause`, `resume`, `crash_restart`,
//! `partition` or `heal_partition`, resolving targets such as "the
//! current leader" with `leader()` at that instant.
//!
//! Every §IV figure, the ablations and the beyond-paper scenarios are
//! registered, named, self-describing rows whose `run` returns a
//! structured, comparable [`Report`]. [`catalog`] is the one experiment
//! layer: each module keeps its measurement procedure
//! (`failover::run_trials`, `throughput::measure_ramp`,
//! `sharded::measure_scaling`, …) beside the `Scenario` that reports it,
//! with the values no scenario varies as `const`s next to the procedure.
//! Trial fan-out inside scenarios goes through rayon and is capped by
//! [`RunCtx::run`]'s `--jobs` pool; per-trial child seeds and
//! index-ordered merges make any parallelism level bit-identical to a
//! serial run.
//!
//! ```
//! use dynatune_cluster::scenario::ScenarioBuilder;
//! use dynatune_core::TuningConfig;
//! use dynatune_simnet::SimTime;
//!
//! // A cluster that loses its leader (plus one follower) to a partition
//! // at t=20s, heals at t=40s, and is observed until t=70s.
//! let mut sim = ScenarioBuilder::cluster(5)
//!     .tuning(TuningConfig::dynatune())
//!     .seed(7)
//!     .build_sim();
//! sim.run_until(SimTime::from_secs(20));
//! let leader = sim.leader().expect("a leader by t=20s");
//! sim.partition(&[leader, usize::from(leader == 0)]);
//! sim.run_until(SimTime::from_secs(40));
//! sim.heal_partition();
//! sim.run_until(SimTime::from_secs(70));
//! assert!(sim.leader().is_some());
//! ```

pub mod builder;
pub mod catalog;
pub mod experiment;
pub mod registry;
pub mod report;

pub use builder::{NetPlan, ScenarioBuilder};
pub use experiment::{RunCtx, Scenario};
pub use registry::{catalog_json, catalog_markdown, find, json_escape, REGISTRY};
pub use report::{compare_row, reduction_pct, Artifact, Headline, Report, ReportTable};
