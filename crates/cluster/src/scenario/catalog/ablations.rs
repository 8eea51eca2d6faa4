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
use super::wired;
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
struct QuantizationRow {
    /// Which quantization was used.
    quantization: TimerQuantization,
    /// Mean detection time (ms).
    detection_ms: f64,
    /// Mean OTS time (ms).
    ots_ms: f64,
}

/// Compare tick-quantized vs. continuous election timers for Dynatune.
#[must_use]
fn quantization(trials: usize, seed: u64) -> Vec<QuantizationRow> {
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
struct SafetyFactorRow {
    /// The safety factor `s`.
    s: f64,
    /// Mean detection time under failure (ms).
    detection_ms: f64,
    /// False election-timer expiries per minute in failure-free operation
    /// under jitter.
    false_timeouts_per_min: f64,
}

/// Sweep `s`: smaller s detects faster but risks false timeouts under
/// jitter — the trade-off §III-D1 describes. Both measurements run on a
/// jittery network (cv = 0.2), where σ_RTT is large enough that `s·σ`
/// actually moves Et: on a jitter-free link every `s` collapses to
/// `Et ≈ µ` and the sweep is flat.
#[must_use]
fn safety_factor(values: &[f64], trials: usize, seed: u64) -> Vec<SafetyFactorRow> {
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
struct ArrivalProbabilityRow {
    /// Target arrival probability x.
    x: f64,
    /// Required heartbeats K at the given loss rate.
    k: u32,
    /// Resulting h for Et = 200 ms (ms).
    h_ms: f64,
}

/// Sweep `x` at a fixed loss rate.
#[must_use]
fn arrival_probability(values: &[f64], loss: f64) -> Vec<ArrivalProbabilityRow> {
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
struct WarmupRow {
    /// minListSize under test.
    min_list_size: usize,
    /// Seconds from leader election until the follower tuners engaged.
    warmup_secs: f64,
}

/// Sweep `minListSize`: how long after a leader change Dynatune runs on
/// conservative defaults.
#[must_use]
fn min_list_size(values: &[usize], seed: u64) -> Vec<WarmupRow> {
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
struct PreVoteRow {
    /// Whether pre-vote ran.
    pre_vote: bool,
    /// Out-of-service seconds during the radical RTT step.
    total_ots_secs: f64,
    /// Election-timer expiries (false detections at the step).
    timeouts: usize,
    /// Completed leader changes (disruptions).
    leader_changes: usize,
}

/// Dynatune with and without the pre-vote phase under the Fig. 6b radical
/// RTT step. The paper's "false detection without OTS" behaviour depends on
/// pre-candidates aborting on leader contact *before* bumping the term;
/// without pre-vote, every false detection becomes a real term bump that
/// deposes the healthy leader. Rows: pre-vote on, off.
#[must_use]
fn pre_vote(seed: u64) -> [PreVoteRow; 2] {
    [true, false].map(|pv| {
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
}

/// One row of the transport ablation.
#[derive(Debug, Clone, Copy)]
struct TransportRow {
    /// True when heartbeats ride UDP (the paper's hybrid transport).
    udp_heartbeats: bool,
    /// Loss rate the followers' estimators measured.
    measured_loss: f64,
    /// Mean tuned heartbeat interval (ms).
    h_ms: f64,
}

/// UDP vs. TCP heartbeats under 15 % loss: over TCP, losses are hidden by
/// retransmission, so the follower's loss estimator sees ~0 and the tuned
/// h stays large — the measurement motivation for §III-E. Rows: UDP, TCP.
#[must_use]
fn transport(seed: u64) -> [TransportRow; 2] {
    [true, false].map(|udp| {
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
        let leader = wired(sim.leader(), "a failure-free 120s run keeps its leader");
        let followers = (0..5).filter(|&id| id != leader);
        let loss_sum: f64 = followers.map(|id| sim.tuning_snapshot(id).loss_rate).sum();
        let h = sim
            .leader_mean_heartbeat_interval()
            .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
        TransportRow {
            udp_heartbeats: udp,
            measured_loss: loss_sum / 4.0,
            h_ms: h,
        }
    })
}

/// Quantization / safety factor / arrival probability / warm-up /
/// transport / pre-vote ablations (DESIGN.md §5).
pub const ABLATIONS: Scenario = Scenario {
    name: "ablations",
    describe: "quantization / safety factor / arrival probability / warm-up / transport / pre-vote",
    headline_metric:
        "per-mechanism contribution to detection time (transport, quantization, pre-vote)",
    ci_assertion: "asserts K rises with x (K = 5 at x = 0.999, 20% loss), warm-up grows with \
                   minListSize, TCP hides loss from the estimator, and pre-vote prevents \
                   step disruption",
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

    // x = 0.999 (the paper's) is row 2.
    let arrival = arrival_probability(&[0.9, 0.99, 0.999, 0.9999, 0.99999], 0.20);
    report.table(
        "[3/6] arrival probability x at 20% loss (pure formula)",
        ["x", "K", "h for Et=200ms (ms)"],
        arrival
            .iter()
            .map(|row| {
                vec![
                    format!("{}", row.x),
                    format!("{}", row.k),
                    format!("{:.1}", row.h_ms),
                ]
            })
            .collect(),
    );

    let warmup = min_list_size(&[5, 10, 50, 100], seed);
    report.table(
        "[4/6] minListSize warm-up after leader election",
        ["minListSize", "warm-up (s)"],
        warmup
            .iter()
            .map(|row| {
                vec![
                    format!("{}", row.min_list_size),
                    format!("{:.1}", row.warmup_secs),
                ]
            })
            .collect(),
    );
    report.note("(paper default 10: tuned parameters engage ~1s after a leader appears)");

    let [udp, tcp] = transport(seed);
    report.table(
        "[5/6] UDP vs TCP heartbeats at 15% link loss",
        ["transport", "measured loss", "tuned h (ms)"],
        [udp, tcp]
            .iter()
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

    let [on, off] = pre_vote(seed);
    report.table(
        "[6/6] pre-vote on/off under the Fig. 6b radical RTT step (Dynatune)",
        ["pre-vote", "OTS (s)", "timer expiries", "leader changes"],
        [on, off]
            .iter()
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

    // Quantization and the safety factor are reported only: the smaller-s
    // false-detection trade-off does not show at `--quick`.
    // [3/6] A stricter arrival target needs more heartbeats:
    // K = ceil(ln 0.001 / ln 0.2) = 5 at the paper's x.
    for pair in arrival.windows(2) {
        assert!(
            pair[1].k >= pair[0].k && pair[1].h_ms <= pair[0].h_ms,
            "x {} -> {}: K {} -> {}",
            pair[0].x,
            pair[1].x,
            pair[0].k,
            pair[1].k
        );
    }
    assert_eq!(arrival[2].k, 5, "K at x = 0.999 and 20% loss");
    // [4/6] More heartbeats to collect means a longer warm-up.
    for pair in warmup.windows(2) {
        assert!(
            pair[0].warmup_secs.is_finite() && pair[1].warmup_secs > pair[0].warmup_secs,
            "warm-up {:.1} s at minListSize {} vs {:.1} s at {}",
            pair[0].warmup_secs,
            pair[0].min_list_size,
            pair[1].warmup_secs,
            pair[1].min_list_size
        );
    }
    // [5/6] UDP heartbeats expose the 15 % loss; TCP hides it, so UDP tunes
    // the smaller h.
    assert!(
        udp.measured_loss > 0.08 && tcp.measured_loss < 0.05 && udp.h_ms < tcp.h_ms,
        "measured loss / tuned h: udp {:.3} / {:.0} ms, tcp {:.3} / {:.0} ms",
        udp.measured_loss,
        udp.h_ms,
        tcp.measured_loss,
        tcp.h_ms
    );
    // [6/6] Pre-vote absorbs the false detections at the step; without it
    // the step disrupts the healthy leader.
    assert!(
        on.leader_changes == 0 && on.total_ots_secs == 0.0,
        "pre-vote on: the step disrupted the leader ({on:?})"
    );
    assert!(
        off.leader_changes > 0 || off.total_ots_secs > 0.0,
        "pre-vote off: the step did not disrupt the leader ({off:?})"
    );
    report
}
