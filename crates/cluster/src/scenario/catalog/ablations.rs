//! Ablation studies over Dynatune's design knobs (our additions beyond the
//! paper's figures; DESIGN.md lists them as the "design choices" index),
//! reported as one registered experiment.
//!
//! * [`quantization`] — etcd tick-quantized timers vs. continuous timers:
//!   how much of the measured detection time is quantization.
//! * [`safety_factor`] — sweep `s` in `Et = µ + s·σ`: detection time vs.
//!   false-timeout rate under jitter (the paper fixes s = 2).
//! * [`arrival_probability`] — sweep `x`: resulting K/h under a fixed loss
//!   rate (paper fixes x = 0.999).
//! * [`min_list_size`] — warm-up latency until tuned parameters engage.
//! * [`transport`] — UDP vs. TCP heartbeats under loss: measured loss rate
//!   visibility (the paper's §III-E motivation for the hybrid transport).
//! * [`pre_vote`] — the Fig. 6b radical RTT step with and without the
//!   pre-vote phase.

use super::failover::{run_trials, FailoverConfig};
use super::fluctuation::{measure_rtt_fluctuation, RttPattern};
use crate::observers::count_events;
use crate::scenario::{
    Horizon, NetPlan, Report, RunCtx, Scenario, ScenarioBuilder, ScenarioDriver,
};
use dynatune_core::{required_heartbeats, TuningConfig};
use dynatune_raft::{RaftEvent, TimerQuantization};
use dynatune_simnet::{NetParams, SimTime};
use std::time::Duration;

/// One row of the quantization ablation.
#[derive(Debug, Clone, Copy)]
pub struct QuantizationRow {
    /// Which quantization was used.
    pub quantization: TimerQuantization,
    /// Mean detection time (ms).
    pub detection_ms: f64,
    /// Mean OTS time (ms).
    pub ots_ms: f64,
}

/// Compare tick-quantized vs. continuous election timers for Dynatune.
#[must_use]
pub fn quantization(trials: usize, seed: u64) -> Vec<QuantizationRow> {
    [TimerQuantization::Tick, TimerQuantization::Continuous]
        .into_iter()
        .map(|q| {
            let cluster = ScenarioBuilder::cluster(5)
                .tuning(TuningConfig::dynatune())
                .quantization(q)
                .seed(seed)
                .build();
            let res = run_trials(&FailoverConfig::new(cluster, trials));
            QuantizationRow {
                quantization: q,
                detection_ms: res.detection_stats().mean(),
                ots_ms: res.ots_stats().mean(),
            }
        })
        .collect()
}

/// One row of the safety-factor sweep.
#[derive(Debug, Clone, Copy)]
pub struct SafetyFactorRow {
    /// The safety factor `s`.
    pub s: f64,
    /// Mean detection time under failure (ms).
    pub detection_ms: f64,
    /// False election-timer expiries per minute in failure-free operation
    /// under jitter.
    pub false_timeouts_per_min: f64,
}

/// Sweep `s`: smaller s detects faster but risks false timeouts under
/// jitter — the trade-off §III-D1 describes. Both measurements run on a
/// jittery network (cv = 0.2), where σ_RTT is large enough that `s·σ`
/// actually moves Et: on a jitter-free link every `s` collapses to
/// `Et ≈ µ` and the sweep is flat.
#[must_use]
pub fn safety_factor(values: &[f64], trials: usize, seed: u64) -> Vec<SafetyFactorRow> {
    let jitter_net =
        || NetPlan::uniform(NetParams::clean(Duration::from_millis(100)).with_jitter(0.2));
    values
        .iter()
        .map(|&s| {
            let tuning = TuningConfig {
                safety_factor: s,
                ..TuningConfig::dynatune()
            };
            // Detection under failure, jittery network.
            let cluster = ScenarioBuilder::cluster(5)
                .tuning(tuning)
                .net(jitter_net())
                .seed(seed)
                .build();
            let res = run_trials(&FailoverConfig::new(cluster, trials));
            // False-timeout rate without failures under the same jitter.
            let jitter_cfg = ScenarioBuilder::cluster(5)
                .tuning(tuning)
                .net(jitter_net())
                .seed(seed ^ 0x1177)
                .build();
            let horizon = SimTime::from_secs(300);
            let run = ScenarioDriver::new(jitter_cfg)
                .horizon(Horizon::At(Duration::from_secs(300)))
                .run();
            let events = run.sim.events();
            let false_timeouts = count_events(&events, SimTime::from_secs(10), horizon, |e| {
                matches!(e, RaftEvent::ElectionTimeout { .. })
            });
            SafetyFactorRow {
                s,
                detection_ms: res.detection_stats().mean(),
                false_timeouts_per_min: false_timeouts as f64 / ((300.0 - 10.0) / 60.0),
            }
        })
        .collect()
}

/// One row of the arrival-probability sweep (pure formula, no simulation —
/// the mapping x → K → h is deterministic).
#[derive(Debug, Clone, Copy)]
pub struct ArrivalProbabilityRow {
    /// Target arrival probability x.
    pub x: f64,
    /// Required heartbeats K at the given loss rate.
    pub k: u32,
    /// Resulting h for Et = 200 ms (ms).
    pub h_ms: f64,
}

/// Sweep `x` at a fixed loss rate.
#[must_use]
pub fn arrival_probability(values: &[f64], loss: f64) -> Vec<ArrivalProbabilityRow> {
    values
        .iter()
        .map(|&x| {
            let k = required_heartbeats(loss, x, 100);
            ArrivalProbabilityRow {
                x,
                k,
                h_ms: 200.0 / f64::from(k),
            }
        })
        .collect()
}

/// One row of the warm-up sweep.
#[derive(Debug, Clone, Copy)]
pub struct WarmupRow {
    /// minListSize under test.
    pub min_list_size: usize,
    /// Seconds from leader election until the follower tuners engaged.
    pub warmup_secs: f64,
}

/// Sweep `minListSize`: how long after a leader change Dynatune runs on
/// conservative defaults.
#[must_use]
pub fn min_list_size(values: &[usize], seed: u64) -> Vec<WarmupRow> {
    values
        .iter()
        .map(|&m| {
            let tuning = TuningConfig {
                min_list_size: m,
                max_list_size: 1000.max(m),
                ..TuningConfig::dynatune()
            };
            // Custom convergence predicate (first time all followers are
            // warmed), so this one keeps its own polling loop instead of
            // the driver's fixed-cadence sampler.
            let mut sim = ScenarioBuilder::cluster(5)
                .tuning(tuning)
                .seed(seed)
                .build_sim();
            // Find when the first leader appears, then when all followers
            // are warmed.
            let mut leader_at = None;
            let mut warmed_at = None;
            let horizon = SimTime::from_secs(600);
            let mut t = SimTime::ZERO;
            while t < horizon && warmed_at.is_none() {
                t += Duration::from_millis(500);
                sim.run_until(t);
                if let Some(leader) = sim.leader() {
                    leader_at.get_or_insert(t);
                    let all_warmed = (0..5)
                        .filter(|&i| i != leader)
                        .all(|i| sim.tuning_snapshot(i).warmed);
                    if all_warmed {
                        warmed_at = Some(t);
                    }
                }
            }
            let warmup_secs = match (leader_at, warmed_at) {
                (Some(l), Some(w)) => (w - l).as_secs_f64(),
                _ => f64::NAN,
            };
            WarmupRow {
                min_list_size: m,
                warmup_secs,
            }
        })
        .collect()
}

/// One row of the pre-vote ablation.
#[derive(Debug, Clone, Copy)]
pub struct PreVoteRow {
    /// Whether pre-vote ran.
    pub pre_vote: bool,
    /// Out-of-service seconds during the radical RTT step.
    pub total_ots_secs: f64,
    /// Election-timer expiries (false detections at the step).
    pub timeouts: usize,
    /// Completed leader changes (disruptions).
    pub leader_changes: usize,
}

/// Dynatune with and without the pre-vote phase under the Fig. 6b radical
/// RTT step. The paper's "false detection without OTS" behaviour depends on
/// pre-candidates aborting on leader contact *before* bumping the term;
/// without pre-vote, every false detection becomes a real term bump that
/// deposes the healthy leader.
#[must_use]
pub fn pre_vote(seed: u64) -> Vec<PreVoteRow> {
    [true, false]
        .into_iter()
        .map(|pv| {
            // The paper's one-minute holds at every scale.
            let s = measure_rtt_fluctuation(
                TuningConfig::dynatune(),
                RttPattern::Radical,
                Duration::from_secs(60),
                seed,
                pv,
            );
            PreVoteRow {
                pre_vote: pv,
                total_ots_secs: s.total_ots_secs,
                timeouts: s.timeouts_observed,
                leader_changes: s.leader_changes,
            }
        })
        .collect()
}

/// One row of the transport ablation.
#[derive(Debug, Clone, Copy)]
pub struct TransportRow {
    /// True when heartbeats ride UDP (the paper's hybrid transport).
    pub udp_heartbeats: bool,
    /// Loss rate the followers' estimators measured.
    pub measured_loss: f64,
    /// Mean tuned heartbeat interval (ms).
    pub h_ms: f64,
}

/// UDP vs. TCP heartbeats under 15 % loss: over TCP, losses are hidden by
/// retransmission, so the follower's loss estimator sees ~0 and the tuned
/// h stays large — the measurement motivation for §III-E.
#[must_use]
pub fn transport(seed: u64) -> Vec<TransportRow> {
    [true, false]
        .into_iter()
        .map(|udp| {
            let cluster = ScenarioBuilder::cluster(5)
                .tuning(TuningConfig::dynatune())
                .net(NetPlan::uniform(
                    NetParams::clean(Duration::from_millis(100)).with_loss(0.15),
                ))
                .udp_heartbeats(udp)
                .seed(seed)
                .build();
            let run = ScenarioDriver::new(cluster)
                .horizon(Horizon::At(Duration::from_secs(120)))
                .run();
            let sim = run.sim;
            let leader = sim.leader().unwrap_or(0);
            let mut loss_sum = 0.0;
            let mut n = 0.0;
            for id in 0..5 {
                if id != leader {
                    loss_sum += sim.tuning_snapshot(id).loss_rate;
                    n += 1.0;
                }
            }
            let h = sim
                .leader_mean_heartbeat_interval()
                .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
            TransportRow {
                udp_heartbeats: udp,
                measured_loss: loss_sum / n,
                h_ms: h,
            }
        })
        .collect()
}

/// Quantization / safety factor / arrival probability / warm-up /
/// transport / pre-vote ablations (DESIGN.md §5).
pub const ABLATIONS: Scenario = Scenario {
    name: "ablations",
    describe: "quantization / safety factor / arrival probability / warm-up / transport / pre-vote",
    headline_metric:
        "per-mechanism contribution to detection time (transport, quantization, pre-vote)",
    ci_assertion: "runs end-to-end; ablation deltas reported, not asserted",
    run: ablations,
};

fn ablations(ctx: &RunCtx) -> Report {
    let trials = ctx.trials_or(100, 12);
    let seed = ctx.system_seed("ablations");
    let mut report = Report::new(ABLATIONS.name);

    report.table(
        format!("[1/6] election-timer quantization (Dynatune, {trials} trials each)").as_str(),
        ["quantization", "detection (ms)", "OTS (ms)"],
        quantization(trials, seed)
            .into_iter()
            .map(|row| {
                vec![
                    format!("{:?}", row.quantization),
                    format!("{:.0}", row.detection_ms),
                    format!("{:.0}", row.ots_ms),
                ]
            })
            .collect(),
    );
    report.note(
        "(tick quantization inflates detection to ~2*Et; continuous sits near ~1.2*Et + phase)",
    );

    report.table(
        format!("[2/6] safety factor s in Et = mu + s*sigma ({trials} trials each)").as_str(),
        ["s", "detection (ms)", "false timeouts/min @20% jitter"],
        safety_factor(&[0.5, 1.0, 2.0, 4.0], trials, seed)
            .into_iter()
            .map(|row| {
                vec![
                    format!("{:.1}", row.s),
                    format!("{:.0}", row.detection_ms),
                    format!("{:.2}", row.false_timeouts_per_min),
                ]
            })
            .collect(),
    );
    report.note("(smaller s detects faster but false-detects under jitter; the paper picks s=2)");

    report.table(
        "[3/6] arrival probability x at 20% loss (pure formula)",
        ["x", "K", "h for Et=200ms (ms)"],
        arrival_probability(&[0.9, 0.99, 0.999, 0.9999, 0.99999], 0.20)
            .into_iter()
            .map(|row| {
                vec![
                    format!("{}", row.x),
                    format!("{}", row.k),
                    format!("{:.1}", row.h_ms),
                ]
            })
            .collect(),
    );

    report.table(
        "[4/6] minListSize warm-up after leader election",
        ["minListSize", "warm-up (s)"],
        min_list_size(&[5, 10, 50, 100], seed)
            .into_iter()
            .map(|row| {
                vec![
                    format!("{}", row.min_list_size),
                    format!("{:.1}", row.warmup_secs),
                ]
            })
            .collect(),
    );
    report.note("(paper default 10: tuned parameters engage ~1s after a leader appears)");

    report.table(
        "[5/6] UDP vs TCP heartbeats at 15% link loss",
        ["transport", "measured loss", "tuned h (ms)"],
        transport(seed)
            .into_iter()
            .map(|row| {
                vec![
                    if row.udp_heartbeats {
                        "UDP (paper)"
                    } else {
                        "TCP (stock etcd)"
                    }
                    .to_string(),
                    format!("{:.3}", row.measured_loss),
                    format!("{:.0}", row.h_ms),
                ]
            })
            .collect(),
    );
    report.note(
        "(TCP hides loss behind retransmission, blinding the estimator — the §III-E motivation)",
    );

    report.table(
        "[6/6] pre-vote on/off under the Fig. 6b radical RTT step (Dynatune)",
        ["pre-vote", "OTS (s)", "timer expiries", "leader changes"],
        pre_vote(seed)
            .into_iter()
            .map(|row| {
                vec![
                    if row.pre_vote {
                        "on (etcd default)"
                    } else {
                        "off (classic Raft)"
                    }
                    .to_string(),
                    format!("{:.1}", row.total_ots_secs),
                    format!("{}", row.timeouts),
                    format!("{}", row.leader_changes),
                ]
            })
            .collect(),
    );
    report.note(
        "(without pre-vote, false detections at the RTT step bump terms and depose the healthy leader)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_probability_rows_are_monotone() {
        let rows = arrival_probability(&[0.9, 0.99, 0.999, 0.9999], 0.2);
        assert_eq!(rows.len(), 4);
        for pair in rows.windows(2) {
            assert!(pair[1].k >= pair[0].k, "stricter x needs more heartbeats");
            assert!(pair[1].h_ms <= pair[0].h_ms);
        }
        // x=0.999, p=0.2: K = ceil(ln(0.001)/ln(0.2)) = ceil(4.29) = 5.
        assert_eq!(rows[2].k, 5);
    }

    #[test]
    fn transport_ablation_shows_tcp_hiding_loss() {
        let rows = transport(77);
        let udp = rows.iter().find(|r| r.udp_heartbeats).unwrap();
        let tcp = rows.iter().find(|r| !r.udp_heartbeats).unwrap();
        // UDP heartbeats expose the true ~15% loss; TCP hides it.
        assert!(
            udp.measured_loss > 0.08,
            "udp measured {}",
            udp.measured_loss
        );
        assert!(
            tcp.measured_loss < 0.05,
            "tcp measured {}",
            tcp.measured_loss
        );
        // Hence UDP tunes a smaller h (more heartbeats) than TCP.
        assert!(udp.h_ms < tcp.h_ms, "udp {} vs tcp {}", udp.h_ms, tcp.h_ms);
    }

    #[test]
    fn min_list_size_warmup_grows() {
        let rows = min_list_size(&[10, 100], 5);
        assert!(rows[0].warmup_secs.is_finite());
        assert!(rows[1].warmup_secs > rows[0].warmup_secs);
    }

    #[test]
    fn pre_vote_prevents_step_disruption() {
        let rows = pre_vote(9);
        let on = rows.iter().find(|r| r.pre_vote).unwrap();
        let off = rows.iter().find(|r| !r.pre_vote).unwrap();
        assert_eq!(on.leader_changes, 0, "pre-vote absorbs false detections");
        assert_eq!(on.total_ots_secs, 0.0);
        assert!(
            off.leader_changes > 0 || off.total_ots_secs > 0.0,
            "without pre-vote the step should disrupt: {off:?}"
        );
    }
}
