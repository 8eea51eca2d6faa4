//! Tuning configuration and operating modes.

use std::time::Duration;

/// Which tuning policy a server runs.
///
/// The paper's evaluation compares four systems; all four are this enum plus
/// a [`TuningConfig`]:
///
/// | Paper name | Mode | Defaults |
/// |------------|------|----------|
/// | Raft       | `Static` | Et = 1000 ms, h = 100 ms |
/// | Raft-Low   | `Static` | Et = 100 ms, h = 10 ms |
/// | Fix-K      | `FixK(10)` | Et tuned from RTT, h = Et/10 |
/// | Dynatune   | `Dynatune` | Et = µ+s·σ, h = Et/K(p, x) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningMode {
    /// No measurement, no tuning: the configured defaults are used forever.
    Static,
    /// Tune the election timeout from RTT, but keep `K = Et/h` fixed
    /// (heartbeat-interval tuning disabled). The paper's Fix-K baseline.
    FixK(u32),
    /// Full Dynatune: tune Et from RTT and h from the packet loss rate.
    Dynatune,
}

impl TuningMode {
    /// Whether this mode performs any measurement/tuning at all.
    #[must_use]
    pub fn tunes(&self) -> bool {
        !matches!(self, TuningMode::Static)
    }
}

/// Runtime parameters of the tuner (the paper's runtime arguments, §III-E,
/// with the experimental defaults of §IV-A). The clamps on tuned values are
/// not arguments; they are constants beside the tuner
/// ([`ELECTION_TIMEOUT_FLOOR`](crate::ELECTION_TIMEOUT_FLOOR) and its
/// neighbours in `tuner.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningConfig {
    /// Operating mode.
    pub mode: TuningMode,
    /// Safety factor `s` in `Et = µ_RTT + s·σ_RTT` (paper default: 2).
    pub safety_factor: f64,
    /// Target heartbeat arrival probability `x` (paper default: 0.999).
    pub arrival_probability: f64,
    /// Minimum samples before tuning starts (`minListSize`, default 10).
    pub min_list_size: usize,
    /// Maximum samples retained (`maxListSize`, default 1000).
    pub max_list_size: usize,
    /// Conservative default election timeout (paper/etcd default: 1000 ms).
    /// Also the fallback applied after any election-timer expiry.
    pub default_election_timeout: Duration,
    /// Conservative default heartbeat interval (paper/etcd default: 100 ms).
    pub default_heartbeat_interval: Duration,
}

impl TuningConfig {
    /// The paper's baseline "Raft": etcd defaults, no tuning.
    #[must_use]
    pub fn raft_default() -> Self {
        Self {
            mode: TuningMode::Static,
            safety_factor: 2.0,
            arrival_probability: 0.999,
            min_list_size: 10,
            max_list_size: 1000,
            default_election_timeout: Duration::from_millis(1000),
            default_heartbeat_interval: Duration::from_millis(100),
        }
    }

    /// The paper's "Raft-Low": all election parameters at 1/10 of default.
    #[must_use]
    pub fn raft_low() -> Self {
        Self {
            default_election_timeout: Duration::from_millis(100),
            default_heartbeat_interval: Duration::from_millis(10),
            ..Self::raft_default()
        }
    }

    /// Full Dynatune with the paper's experimental settings (§IV-A):
    /// s = 2, x = 0.999, minListSize = 10, maxListSize = 1000, falling back
    /// to the Raft defaults.
    #[must_use]
    pub fn dynatune() -> Self {
        Self {
            mode: TuningMode::Dynatune,
            ..Self::raft_default()
        }
    }

    /// The paper's "Fix-K" baseline: Et tuned, `K` pinned (default K = 10,
    /// matching Raft's Et/h ratio).
    #[must_use]
    pub fn fix_k(k: u32) -> Self {
        Self {
            mode: TuningMode::FixK(k),
            ..Self::raft_default()
        }
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.safety_factor >= 0.0, "negative safety factor");
        assert!(
            (0.0..1.0).contains(&self.arrival_probability),
            "arrival probability must be in [0, 1): {}",
            self.arrival_probability
        );
        assert!(self.min_list_size >= 2, "min_list_size must be >= 2");
        assert!(
            self.max_list_size >= self.min_list_size,
            "max_list_size below min_list_size"
        );
        assert!(
            self.default_heartbeat_interval > Duration::ZERO,
            "heartbeat interval must be positive"
        );
        assert!(
            self.default_election_timeout > Duration::ZERO,
            "election timeout must be positive"
        );
        if let TuningMode::FixK(k) = self.mode {
            assert!(k >= 1, "Fix-K requires K >= 1");
        }
    }
}

impl Default for TuningConfig {
    fn default() -> Self {
        Self::dynatune()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_section_iv_a() {
        let raft = TuningConfig::raft_default();
        assert_eq!(raft.mode, TuningMode::Static);
        assert_eq!(raft.default_election_timeout, Duration::from_millis(1000));
        assert_eq!(raft.default_heartbeat_interval, Duration::from_millis(100));

        let low = TuningConfig::raft_low();
        assert_eq!(low.default_election_timeout, Duration::from_millis(100));
        assert_eq!(low.default_heartbeat_interval, Duration::from_millis(10));

        let dt = TuningConfig::dynatune();
        assert_eq!(dt.mode, TuningMode::Dynatune);
        assert_eq!(dt.safety_factor, 2.0);
        assert_eq!(dt.arrival_probability, 0.999);
        assert_eq!(dt.min_list_size, 10);
        assert_eq!(dt.max_list_size, 1000);
        // Dynatune falls back to the same defaults as Raft (§IV-A).
        assert_eq!(dt.default_election_timeout, raft.default_election_timeout);

        let fk = TuningConfig::fix_k(10);
        assert_eq!(fk.mode, TuningMode::FixK(10));
        assert!(fk.mode.tunes());
        assert!(!raft.mode.tunes());
    }

    #[test]
    fn presets_validate() {
        TuningConfig::raft_default().validate();
        TuningConfig::raft_low().validate();
        TuningConfig::dynatune().validate();
        TuningConfig::fix_k(10).validate();
    }

    #[test]
    #[should_panic(expected = "arrival probability")]
    fn x_equal_one_rejected() {
        TuningConfig {
            arrival_probability: 1.0,
            ..TuningConfig::dynatune()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "min_list_size")]
    fn tiny_min_list_rejected() {
        TuningConfig {
            min_list_size: 1,
            ..TuningConfig::dynatune()
        }
        .validate();
    }
}
