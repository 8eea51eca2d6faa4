//! End-to-end behaviour of the Dynatune mechanism through the full stack:
//! measurement over real (simulated) heartbeats, Step 0 → tuned transitions,
//! fallback semantics, and leader-side application of the piggybacked h.

use dynatune_repro::cluster::{NetPlan, ScenarioBuilder};
use dynatune_repro::core::TuningConfig;
use dynatune_repro::simnet::{CongestionConfig, LinkSchedule, NetParams, Region, SimTime};
use std::time::Duration;

fn stable(tuning: TuningConfig, rtt_ms: u64, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::cluster(5)
        .tuning(tuning)
        .net(NetPlan::stable(Duration::from_millis(rtt_ms)))
        .seed(seed)
}

#[test]
fn followers_converge_to_path_rtt() {
    let mut sim = stable(TuningConfig::dynatune(), 100, 1).build_sim();
    sim.run_until(SimTime::from_secs(30));
    let leader = sim.leader().expect("leader");
    for id in 0..5 {
        if id == leader {
            continue;
        }
        let snap = sim.server(id).node().tuning_snapshot();
        assert!(snap.warmed, "follower {id} warmed");
        let et_ms = snap.election_timeout.as_secs_f64() * 1e3;
        // Et = mu + 2 sigma with RTT 100ms and 2% jitter: just above 100ms.
        assert!((95.0..130.0).contains(&et_ms), "follower {id} Et {et_ms}");
        let rtt_ms = snap.rtt_mean.as_secs_f64() * 1e3;
        assert!(
            (95.0..115.0).contains(&rtt_ms),
            "follower {id} mean RTT {rtt_ms}"
        );
        assert!(
            snap.loss_rate < 0.01,
            "clean network, measured {}",
            snap.loss_rate
        );
    }
}

#[test]
fn leader_applies_piggybacked_interval_per_follower() {
    // Asymmetric topology: follower paths have different RTTs, so each
    // pacer must converge to a different h (the per-path tuning of §III-B).
    // Every pair of the five-region mesh is overridden, so no preset RTT
    // or WAN burst remains.
    let overrides = (0..5)
        .flat_map(|a| (a + 1..5).map(move |b| (a, b)))
        .map(|(a, b)| {
            // RTT unique per unordered pair regardless of who leads.
            let rtt = 40 + 40 * (a + b) as u64;
            let params = NetParams::clean(Duration::from_millis(rtt)).with_jitter(0.02);
            (a, b, LinkSchedule::constant(params))
        })
        .collect();
    let mut sim = stable(TuningConfig::dynatune(), 100, 2)
        .net(NetPlan::GeoDegraded {
            regions: Region::ALL.to_vec(),
            overrides,
        })
        .congestion(CongestionConfig::disabled())
        .build_sim();
    sim.run_until(SimTime::from_secs(40));
    let leader = sim.leader().expect("leader");
    let mut intervals: Vec<(usize, f64)> = Vec::new();
    for id in 0..5 {
        if id == leader {
            continue;
        }
        let h = sim.server(leader).node().pacer_interval(id);
        intervals.push((id, h.unwrap().as_secs_f64() * 1e3));
    }
    // Higher node ids sit behind longer links => larger tuned h.
    let mut sorted = intervals.clone();
    sorted.sort_by_key(|a| a.0);
    for pair in sorted.windows(2) {
        assert!(
            pair[1].1 > pair[0].1 * 0.9,
            "pacer intervals should track per-path RTT: {intervals:?}"
        );
    }
    let spread = sorted.last().unwrap().1 / sorted.first().unwrap().1;
    assert!(
        spread > 1.5,
        "per-path differentiation too weak: {intervals:?}"
    );
}

#[test]
fn step0_defaults_return_with_a_new_leader() {
    let mut sim = stable(TuningConfig::dynatune(), 100, 3).build_sim();
    sim.run_until(SimTime::from_secs(30));
    let old_leader = sim.leader().expect("leader");
    // All followers are tuned (~100ms). Fail the leader.
    sim.pause(old_leader);
    sim.run_for(Duration::from_secs(5));
    let new_leader = sim.leader().expect("new leader");
    // Immediately after failover, followers of the NEW leader restart from
    // Step 0; within a couple of heartbeats they are still near defaults or
    // freshly re-warmed — but their estimator windows must be young.
    for id in 0..5 {
        if id == new_leader || id == old_leader {
            continue;
        }
        let snap = sim.server(id).node().tuning_snapshot();
        assert!(
            snap.rtt_samples <= 60,
            "follower {id} window should have restarted: {} samples",
            snap.rtt_samples
        );
    }
    // And after a warm-up period they are tuned again.
    sim.run_for(Duration::from_secs(25));
    for id in 0..5 {
        if id == new_leader || id == old_leader {
            continue;
        }
        assert!(
            sim.server(id).node().tuning_snapshot().warmed,
            "follower {id} re-warmed"
        );
    }
}

#[test]
fn et_adapts_upward_when_rtt_rises() {
    // Step the RTT from 50ms to 150ms mid-run; tuned Et must follow upward
    // without losing the leader.
    let base = NetParams::clean(Duration::from_millis(50)).with_jitter(0.03);
    let step = LinkSchedule::piecewise(vec![
        (SimTime::ZERO, base),
        (
            SimTime::from_secs(40),
            base.with_rtt(Duration::from_millis(150)),
        ),
    ]);
    let mut sim = stable(TuningConfig::dynatune(), 50, 4)
        .net(NetPlan::uniform_schedule(step))
        .build_sim();
    sim.run_until(SimTime::from_secs(35));
    let leader = sim.leader().expect("leader");
    let follower = (0..5).find(|&i| i != leader).unwrap();
    let et_before = sim
        .server(follower)
        .node()
        .tuning_snapshot()
        .election_timeout;
    sim.run_until(SimTime::from_secs(240));
    assert_eq!(
        sim.leader(),
        Some(leader),
        "RTT rise must not depose the leader"
    );
    let et_after = sim
        .server(follower)
        .node()
        .tuning_snapshot()
        .election_timeout;
    assert!(
        et_after > et_before + Duration::from_millis(50),
        "Et should track the RTT rise: {et_before:?} -> {et_after:?}"
    );
    assert!(
        et_after > Duration::from_millis(140),
        "Et after: {et_after:?}"
    );
}

#[test]
fn loss_rate_measured_through_the_stack() {
    let lossy = NetParams::clean(Duration::from_millis(100)).with_loss(0.10);
    let mut sim = stable(TuningConfig::dynatune(), 100, 5)
        .net(NetPlan::uniform(lossy))
        .build_sim();
    sim.run_until(SimTime::from_secs(120));
    let leader = sim.leader().expect("leader survives 10% loss");
    let mut measured = Vec::new();
    for id in 0..5 {
        if id != leader {
            measured.push(sim.server(id).node().tuning_snapshot().loss_rate);
        }
    }
    let mean = measured.iter().sum::<f64>() / measured.len() as f64;
    assert!(
        (0.06..0.14).contains(&mean),
        "expected ~10% measured loss, got {mean} ({measured:?})"
    );
    // K(0.1, 0.999) = 3 ⇒ h ≈ Et/3.
    let h = sim.leader_mean_heartbeat_interval().unwrap();
    let follower = (0..5).find(|&i| i != leader).unwrap();
    let et = sim
        .server(follower)
        .node()
        .tuning_snapshot()
        .election_timeout;
    let ratio = et.as_secs_f64() / h.as_secs_f64();
    assert!((2.0..4.5).contains(&ratio), "Et/h ratio {ratio}");
}

#[test]
fn static_modes_never_touch_parameters() {
    for (tuning, et_ms, h_ms) in [
        (TuningConfig::raft_default(), 1000.0, 100.0),
        (TuningConfig::raft_low(), 100.0, 10.0),
    ] {
        let mut sim = stable(tuning, 20, 6).build_sim();
        sim.run_until(SimTime::from_secs(30));
        for id in 0..5 {
            let snap = sim.server(id).node().tuning_snapshot();
            assert!(!snap.warmed);
            assert_eq!(snap.election_timeout.as_secs_f64() * 1e3, et_ms);
        }
        let h = sim.leader_mean_heartbeat_interval().unwrap();
        assert_eq!(h.as_secs_f64() * 1e3, h_ms);
    }
}
