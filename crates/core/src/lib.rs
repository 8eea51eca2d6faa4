//! # Dynatune core
//!
//! The paper's primary contribution (§III): dynamic tuning of leader-based
//! consensus election parameters from network metrics measured over the
//! existing heartbeat exchange. This crate is deliberately independent of
//! any particular consensus implementation — it models exactly the two
//! endpoints of the paper's protocol and the tuning rules:
//!
//! * **Measurement (§III-C).** The leader stamps every heartbeat with a
//!   sequential id and its local send timestamp ([`HeartbeatMeta`]); the
//!   follower echoes the timestamp back ([`HeartbeatReply`]), letting the
//!   leader compute the RTT against its *own* clock (no clock sync needed,
//!   robust to loss and reordering — Fig. 3a). The measured RTT rides on
//!   the *next* heartbeat to the follower. Sequential ids let the follower
//!   estimate the packet loss rate from gaps (Fig. 3b).
//! * **Tuning (§III-D).** The follower sets its election timeout
//!   `Et = µ_RTT + s·σ_RTT` and derives the heartbeat interval `h = Et / K`
//!   where `K = ⌈log_p(1 − x)⌉` heartbeats guarantee at least one arrival
//!   with probability ≥ x under loss rate p. The tuned `h` is piggybacked
//!   on the heartbeat response and applied by the leader per follower.
//! * **Fallback (§III-B).** On any election-timer expiry the follower
//!   discards its measurements and reverts to the conservative defaults,
//!   so a mis-tuned `Et < RTT` can never wedge the cluster.
//!
//! The consensus-side integration (etcd-style Raft) lives in
//! `dynatune-raft`; baselines (static Raft, Raft-Low, Fix-K) are expressed
//! as [`TuningMode`]s so every evaluated system shares this code path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod invariant;
pub mod loss;
pub mod math;
pub mod meta;
pub mod pacer;
pub mod rtt;
pub mod tuner;

pub use config::{TuningConfig, TuningMode};
pub use loss::LossEstimator;
pub use math::{election_timeout_from_rtt, required_heartbeats};
pub use meta::{HeartbeatMeta, HeartbeatReply};
pub use pacer::LeaderPacer;
pub use rtt::RttEstimator;
pub use tuner::{FollowerTuner, TuningSnapshot, ELECTION_TIMEOUT_FLOOR};
