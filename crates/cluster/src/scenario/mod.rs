//! Declarative scenario API: describe *what* an experiment does, let a
//! generic driver execute it.
//!
//! The paper's evaluation (§IV) is a family of "build a cluster, disturb
//! it, measure" procedures. This module factors that family into four
//! orthogonal pieces:
//!
//! | Piece | Type | Role |
//! |-------|------|------|
//! | network plan | [`NetPlan`] | the network as data: uniform meshes, schedules, geo presets, asymmetric degradations |
//! | cluster assembly | [`ScenarioBuilder`] | typed, fluent construction of a `ClusterConfig`; Raft setters write through to its one `raft: RaftConfig` template |
//! | fault plan | [`FaultPlan`] | timed pause/resume/crash/partition/heal events as data, with symbolic targets (`Leader`) resolved at fire time |
//! | driver | [`ScenarioDriver`] | executes the plan, samples observables on a cadence, records a trace of what fired (and the pre-fault state) |
//!
//! On top sit the [`Scenario`] row and the [`REGISTRY`] table: every §IV
//! figure, the ablations and the beyond-paper scenarios are registered,
//! named, self-describing rows whose `run` maps a [`RunCtx`] to a
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
//! use dynatune_cluster::scenario::{
//!     FaultPlan, Horizon, PartitionSpec, ScenarioBuilder, ScenarioDriver,
//! };
//! use dynatune_core::TuningConfig;
//! use std::time::Duration;
//!
//! // A cluster that loses its leader to a partition at t=20s, heals at
//! // t=40s, observed for 70s — no imperative injection loop.
//! let config = ScenarioBuilder::cluster(5)
//!     .tuning(TuningConfig::dynatune())
//!     .seed(7)
//!     .build();
//! let run = ScenarioDriver::new(config)
//!     .plan(
//!         FaultPlan::new()
//!             .partition(Duration::from_secs(20), PartitionSpec::LeaderPlusFollowers(1))
//!             .heal(Duration::from_secs(40)),
//!     )
//!     .horizon(Horizon::At(Duration::from_secs(70)))
//!     .run();
//! assert!(run.sim.leader().is_some());
//! ```

pub mod builder;
pub mod catalog;
pub mod driver;
pub mod experiment;
pub mod plan;
pub mod registry;
pub mod report;

pub use builder::{NetPlan, ScenarioBuilder};
pub use driver::{ExecutedFault, Horizon, Sample, ScenarioDriver, ScenarioRun};
pub use experiment::{RunCtx, Scenario};
pub use plan::{FaultAction, FaultEvent, FaultPlan, PartitionSpec, Target};
pub use registry::{catalog_json, catalog_markdown, find, json_escape, REGISTRY};
pub use report::{compare_row, reduction_pct, Artifact, Headline, Report, ReportTable};
