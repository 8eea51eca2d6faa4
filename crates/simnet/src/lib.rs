//! Deterministic discrete-event network simulator for the Dynatune
//! reproduction.
//!
//! The paper evaluates Dynatune on Docker containers whose traffic is shaped
//! with `tc netem` (delay, loss), plus one real AWS multi-region deployment.
//! This crate is the substitute substrate: a discrete-event simulator with
//!
//! * a virtual clock with integer-nanosecond resolution ([`SimTime`]);
//! * deterministic, splittable random streams ([`Rng`]) so any seed yields a
//!   bit-identical simulation (the basis for parallel trial sweeps);
//! * WAN link models: piecewise-constant parameter [`LinkSchedule`]s (the
//!   analogue of scripted `tc` changes), multiplicative lognormal per-packet
//!   jitter and per-egress [`congestion`] bursts, per-packet loss and
//!   duplication;
//! * two channel disciplines ([`Channel::Udp`] and [`Channel::Tcp`]) —
//!   the paper's hybrid transport (§III-E);
//! * a [`World`] kernel hosting protocol endpoints ([`Host`]) with message
//!   delivery, wake-up timers, and the paper's container-pause failure
//!   mode.
//!
//! The simulator is protocol-agnostic; the Raft/Dynatune stack lives in the
//! `dynatune-raft` and `dynatune-core` crates and plugs in via [`Host`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod link;
pub mod params;
pub mod rng;
pub mod schedule;
pub mod time;
pub mod topology;
pub mod world;

pub use congestion::{CongestionConfig, CongestionProcess};
pub use link::{Channel, Network, NodeId, SendOutcome, MIN_ONE_WAY_DELAY, TCP_MIN_RTO};
pub use params::NetParams;
pub use rng::Rng;
pub use schedule::LinkSchedule;
pub use time::{millis, SimTime};
pub use topology::{geo_rtt, geo_topology, Region, Topology};
pub use world::{Host, HostCtx, NetCounters, World, PAUSE_BUFFER_CAP};
