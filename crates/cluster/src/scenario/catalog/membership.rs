//! Membership-change scenarios: elastic scale-out, live shard
//! rebalancing, and randomized membership churn — the joint-consensus
//! battery.
//!
//! Three behaviours the static-membership catalog could not touch:
//!
//! * [`ELASTIC_SCALEOUT`] — grow a serving cluster from 3 to 5 voters
//!   mid-load through learner catch-up and one joint change, asserting
//!   the goodput dip is bounded and fully recovered;
//! * [`SHARD_REBALANCE`] — move a degraded replica of one Raft group to a
//!   spare host while traffic flows, asserting tail latency improves and
//!   the untouched shard never notices;
//! * [`MEMBERSHIP_CHURN`] — a seeded random schedule of voter swaps under
//!   crashes and partitions, with election-safety and stale-read checkers
//!   over the whole run and an exact final-configuration check.
//!
//! Every transition is driven from *replicated* state (the leader's
//! active membership), so deposed-leader proposal drops are re-issued
//! rather than waited on — the same discipline as
//! [`Rebalancer`](crate::rebalance::Rebalancer).

use super::wired;
use crate::client::OpRecord;
use crate::observers::{election_safety_violations, stale_read_violations};
use crate::rebalance::{Rebalancer, CATCH_UP_SLACK};
use crate::scenario::{Report, RunCtx, Scenario, ScenarioBuilder};
use crate::server::ServerHost;
use crate::sim::{ClusterSim, WorkloadSpec};
use dynatune_core::TuningConfig;
use dynatune_kv::OpMix;
use dynatune_raft::{ConfChange, NodeId};
use dynatune_simnet::rng::Rng;
use dynatune_simnet::SimTime;
use std::collections::BTreeSet;
use std::time::Duration;

/// Poll cadence of the membership orchestrators (simulated time between
/// observation/proposal rounds).
const POLL: Duration = Duration::from_millis(500);

/// Delete-free recorded workload: the stale-read checker needs every
/// revision observable, and the trace feeds the goodput windows.
fn churn_workload(rps: f64, hold: Duration) -> WorkloadSpec {
    WorkloadSpec::steady(rps, hold)
        .starting_at(Duration::from_secs(3))
        .mix(OpMix {
            put: 0.3,
            delete: 0.0,
            cas: 0.0,
        })
        .recording()
        .timeout(Some(Duration::from_millis(600)))
}

/// Completed-request rate over a trace window (req/s).
fn window_rate(trace: &[OpRecord], from: SimTime, to: SimTime) -> f64 {
    let n = trace
        .iter()
        .filter(|op| op.completed >= from && op.completed < to)
        .count();
    n as f64 / (to - from).as_secs_f64().max(1e-9)
}

/// One poll of the single-group joint-consensus orchestrator: observe the
/// leader's replicated membership, issue at most one proposal, report
/// whether the target configuration (`add` all voters, `remove` all gone,
/// not joint) has been reached. Safe against dropped proposals — a change
/// that never lands is simply proposed again on a later poll.
fn conf_step(sim: &mut ClusterSim, add: &[NodeId], remove: &[NodeId]) -> bool {
    let Some(leader) = sim.leader() else {
        return false;
    };
    let m = sim.server(leader).node().membership();
    if !m.is_joint() && add.iter().all(|&a| m.is_voter(a)) && remove.iter().all(|&x| !m.contains(x))
    {
        return true;
    }
    // At most one conf change may be uncommitted; wait instead of
    // collecting `InFlight` rejections.
    let node = sim.server(leader).node();
    if node.membership_index() > node.commit_index() {
        return false;
    }
    // The proposal results below are advisory: `false` only means no live
    // leader at submit time, and the next poll re-observes and re-issues.
    if m.is_joint() {
        sim.propose_conf_change(0, ConfChange::Finalize);
        return false;
    }
    if let Some(&a) = add.iter().find(|&&a| !m.contains(a)) {
        sim.propose_conf_change(0, ConfChange::AddLearner(a));
        return false;
    }
    // All joiners aboard as learners (or already voters): gate the joint
    // change on every learner being within the catch-up slack, mirroring
    // the raft layer's own promotion gate.
    let caught_up = add.iter().filter(|&&a| m.is_learner(a)).all(|&a| {
        let matched = node.progress_of(a).map_or(0, |p| p.match_index);
        matched > 0 && matched + CATCH_UP_SLACK >= node.log().last_index()
    });
    if caught_up {
        sim.propose_conf_change(
            0,
            ConfChange::Begin {
                add: add.to_vec(),
                remove: remove.to_vec(),
            },
        );
    }
    false
}

// ------------------------------------------------------------------
// elastic_scaleout
// ------------------------------------------------------------------

/// Grow a 3-voter cluster to 5 voters mid-load: two spares join as
/// learners, catch up, and are promoted through one joint change, while
/// an open-loop client keeps writing and (lease-)reading. The goodput dip
/// through the transition must be bounded and fully recovered.
pub const ELASTIC_SCALEOUT: Scenario = Scenario {
    name: "elastic_scaleout",
    describe: "grow 3 -> 5 voters mid-load via learner catch-up + one joint change",
    headline_metric: "goodput through the scale-out window relative to the pre-change baseline",
    ci_assertion: "asserts bounded dip (>= 60%), full recovery (>= 85%), 5-voter agreement, zero safety/stale-read violations",
    run: elastic_scaleout,
};

fn elastic_scaleout(ctx: &RunCtx) -> Report {
    let window = Duration::from_secs(ctx.scale(15, 6) as u64);
    let mut sim = ScenarioBuilder::cluster(3)
        .spares(2)
        .tuning(TuningConfig::raft_default())
        .seed(ctx.system_seed("elastic_scaleout"))
        .workload(churn_workload(500.0, Duration::from_secs(120)))
        .build_sim();

    // Warm up, then a baseline window at the genesis configuration.
    sim.run_until(SimTime::from_secs(10));
    let t_base0 = sim.now();
    sim.run_for(window);
    let t_base1 = sim.now();

    // Drive the scale-out; the "during" window covers the whole
    // transition and is at least one full window long, so short happy
    // paths are not measured over a sliver.
    let adds: [NodeId; 2] = [3, 4];
    let mut done_after = None;
    for slice in 0..240 {
        if conf_step(&mut sim, &adds, &[]) {
            done_after = Some(slice);
            break;
        }
        sim.run_for(POLL);
    }
    let done_after = wired(
        done_after,
        "scale-out did not converge within its poll budget",
    );
    if sim.now() < t_base1 + window {
        sim.run_until(t_base1 + window);
    }
    let t_during1 = sim.now();

    // Recovery window at the 5-voter configuration.
    sim.run_for(window);
    let t_rec1 = sim.now();

    let trace = wired(sim.client(), "the builder attached a workload client").trace();
    let baseline = window_rate(trace, t_base0, t_base1);
    let during = window_rate(trace, t_base1, t_during1);
    let recovered = window_rate(trace, t_during1, t_rec1);
    let events = sim.events();
    let safety = election_safety_violations(&events);
    let stale = stale_read_violations(trace);
    let rejected: u64 = sim.servers().map(ServerHost::conf_rejections).sum();

    let mut report = Report::new(ELASTIC_SCALEOUT.name);
    report.table(
        "goodput windows through the 3 -> 5 scale-out (500 req/s offered)",
        [
            "window",
            "span (s)",
            "completed rate (req/s)",
            "vs baseline",
        ],
        vec![
            vec![
                "baseline (3 voters)".into(),
                format!("{:.1}", (t_base1 - t_base0).as_secs_f64()),
                format!("{baseline:.0}"),
                "1.00x".into(),
            ],
            vec![
                "scale-out".into(),
                format!("{:.1}", (t_during1 - t_base1).as_secs_f64()),
                format!("{during:.0}"),
                format!("{:.2}x", during / baseline.max(1e-9)),
            ],
            vec![
                "recovered (5 voters)".into(),
                format!("{:.1}", (t_rec1 - t_during1).as_secs_f64()),
                format!("{recovered:.0}"),
                format!("{:.2}x", recovered / baseline.max(1e-9)),
            ],
        ],
    );
    report.headline(
        "goodput through scale-out window",
        ">= 60% of baseline",
        &format!("{:.0}%", during / baseline.max(1e-9) * 100.0),
    );
    report.headline(
        "goodput after scale-out",
        ">= 85% of baseline",
        &format!("{:.0}%", recovered / baseline.max(1e-9) * 100.0),
    );
    report.headline(
        "conf proposals dropped/rejected",
        "reported",
        &format!("{rejected}"),
    );
    report.note(
        "the two spares idle on the fabric from t=0, join as learners, and are\n\
         promoted together by one Begin/Finalize pair once both are inside the\n\
         catch-up slack; commits pay the dual-quorum rule only inside the joint\n\
         window, so the serving dip stays within noise.",
    );

    assert!(
        during >= baseline * 0.6,
        "scale-out goodput dip exceeds bound: {during:.0} vs baseline {baseline:.0} req/s"
    );
    assert!(
        recovered >= baseline * 0.85,
        "goodput did not recover after scale-out: {recovered:.0} vs baseline {baseline:.0}"
    );
    for id in 0..5 {
        let m = sim.server(id).node().membership();
        assert!(!m.is_joint(), "server {id} stuck in the joint config");
        assert_eq!(
            m.voting_members(),
            (0..5).collect::<BTreeSet<_>>(),
            "server {id} disagrees on the final 5-voter config"
        );
    }
    assert_eq!(safety, 0, "election safety violated during scale-out");
    assert_eq!(stale, 0, "stale read served during scale-out");
    // done_after only bounds the report; the asserts above are the gate.
    report.headline(
        "scale-out convergence",
        "within poll budget",
        &format!("{:.1} s of polling", done_after as f64 * POLL.as_secs_f64()),
    );
    report
}

// ------------------------------------------------------------------
// shard_rebalance
// ------------------------------------------------------------------

/// Move the hot shard's degraded replica to a spare host while traffic
/// flows. A paused replica keeps soaking up fanned-out reads until they
/// time out, so the shard's p99 pins at the retry timeout; after the
/// rebalancer swaps in the spare and repoints the client, the tail must
/// collapse back to network latency.
pub const SHARD_REBALANCE: Scenario = Scenario {
    name: "shard_rebalance",
    describe: "move a degraded hot-shard replica to a spare host under live traffic",
    headline_metric: "hot shard p99 latency before vs after the replica move",
    ci_assertion: "asserts >= 1.5x p99 improvement, final config agreement, zero election-safety violations on both shards",
    run: shard_rebalance,
};

fn shard_rebalance(ctx: &RunCtx) -> Report {
    let window = Duration::from_secs(ctx.scale(12, 5) as u64);
    let mut workload = WorkloadSpec::steady(800.0, Duration::from_secs(150))
        .starting_at(Duration::from_secs(3))
        .mix(OpMix::read_mostly())
        .timeout(Some(Duration::from_millis(250)));
    workload.read_fanout = true;
    let mut sim = ScenarioBuilder::cluster(3)
        .shards(2)
        .spare_for_shard(0)
        .tuning(TuningConfig::raft_default())
        .seed(ctx.system_seed("shard_rebalance"))
        .workload(workload)
        .build_sharded_sim();

    sim.run_until(SimTime::from_secs(8));
    let leader = wired(sim.leader_of(0), "shard 0 elects during the warm-up");
    let victim = wired(
        sim.map().servers_of(0).find(|&id| id != leader),
        "a 3-replica group has a non-leader replica",
    );
    // Degrade: container-pause the replica. Fanned-out reads routed to
    // it now stall until the client's retry timeout.
    sim.pause(victim);
    sim.run_for(Duration::from_secs(1));
    let attached = "the builder attached a shard client";
    // Discard warm-up + transition samples.
    wired(sim.client_mut(), attached).take_latency_window(0);
    sim.run_for(window);
    let degraded = wired(sim.client_mut(), attached).take_latency_window(0);

    let spare = sim.map().n_servers(); // first world id past the map
    let shard1_before = wired(sim.client(), attached).shard_stats()[1].completed;
    let mut rb = Rebalancer::new(&sim, 0, spare, victim);
    for _ in 0..400 {
        if rb.is_done() {
            break;
        }
        rb.step(&mut sim);
        sim.run_for(Duration::from_millis(200));
    }
    assert!(rb.is_done(), "rebalance stuck in {:?}", rb.phase());

    // Discard the transition window.
    wired(sim.client_mut(), attached).take_latency_window(0);
    sim.run_for(window);
    let healed = wired(sim.client_mut(), attached).take_latency_window(0);
    let shard1_after = wired(sim.client(), attached).shard_stats()[1].completed;

    assert!(
        !degraded.is_empty() && !healed.is_empty(),
        "both measurement windows must complete requests"
    );
    let p99_degraded_ms = degraded.quantile(0.99) as f64 / 1e3;
    let p99_healed_ms = healed.quantile(0.99) as f64 / 1e3;
    let improvement = p99_degraded_ms / p99_healed_ms.max(1e-9);

    let mut report = Report::new(SHARD_REBALANCE.name);
    report.table(
        "hot-shard latency, one replica paused vs after its replacement",
        ["window", "completed", "mean (ms)", "p99 (ms)"],
        vec![
            vec![
                "degraded (replica paused)".into(),
                format!("{}", degraded.count()),
                format!("{:.1}", degraded.mean() / 1e3),
                format!("{p99_degraded_ms:.1}"),
            ],
            vec![
                "rebalanced (spare serving)".into(),
                format!("{}", healed.count()),
                format!("{:.1}", healed.mean() / 1e3),
                format!("{p99_healed_ms:.1}"),
            ],
        ],
    );
    report.headline(
        "hot shard p99 improvement from the move",
        ">= 1.5x",
        &format!("{improvement:.1}x ({p99_degraded_ms:.0} -> {p99_healed_ms:.0} ms)"),
    );
    report.headline(
        "conf proposals issued by the rebalancer",
        "3 (re-issues mean churn)",
        &format!("{}", rb.proposals()),
    );
    report.note(
        "the paused replica keeps receiving a third of the fanned-out reads,\n\
         each stalling for the full 250 ms retry timeout — exactly the tail a\n\
         degraded-but-reachable host inflicts in production. The move\n\
         (learner catch-up, joint swap, finalize, repoint) never blocks the\n\
         shard's writes, and the untouched shard serves throughout.",
    );

    assert!(
        p99_degraded_ms >= 200.0,
        "degraded window never hit the retry timeout (p99 {p99_degraded_ms:.1} ms) — vacuous"
    );
    assert!(
        improvement >= 1.5,
        "replica move must cut the tail: p99 {p99_degraded_ms:.1} -> {p99_healed_ms:.1} ms"
    );
    let base = sim.map().group_base(0);
    let current_leader = wired(sim.leader_of(0), "shard 0 led after the move");
    for id in [current_leader, spare] {
        let m = sim.server(id).node().membership();
        assert!(!m.is_joint(), "host {id} stuck in the joint config");
        assert!(m.is_voter(spare - base), "host {id}: spare not a voter");
        assert!(
            !m.contains(victim - base),
            "host {id}: retired replica still a member"
        );
    }
    assert!(
        shard1_after > shard1_before,
        "the untouched shard must keep serving through the move"
    );
    for shard in 0..2 {
        assert_eq!(
            election_safety_violations(&sim.shard_events(shard)),
            0,
            "shard {shard}: election safety violated"
        );
    }
    report
}

// ------------------------------------------------------------------
// membership_churn
// ------------------------------------------------------------------

/// Fault injected alongside one churn round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnFault {
    None,
    /// Crash-restart a surviving voter mid-change.
    Crash(NodeId),
    /// Partition a surviving voter away for a few seconds mid-change.
    Partition(NodeId),
}

/// A seeded random schedule of voter swaps — each round retires one voter
/// (the leader included) and admits one outsider through learner
/// catch-up and a joint change — under crash and partition faults, with
/// safety checkers over the whole run.
pub const MEMBERSHIP_CHURN: Scenario = Scenario {
    name: "membership_churn",
    describe: "randomized voter add/remove/replace under crashes and partitions",
    headline_metric: "churn rounds converged with zero election-safety and stale-read violations",
    ci_assertion: "asserts every round converges to the exact expected config, zero safety/stale-read violations",
    run: membership_churn,
};

fn membership_churn(ctx: &RunCtx) -> Report {
    let rounds = ctx.scale(6, 3);
    let seed = ctx.system_seed("membership_churn");
    let mut rng = Rng::new(seed);
    let universe: BTreeSet<NodeId> = (0..5).collect();
    let mut expected: BTreeSet<NodeId> = (0..3).collect();
    let mut sim = ScenarioBuilder::cluster(3)
        .spares(2)
        .tuning(TuningConfig::raft_default())
        .seed(seed)
        .workload(churn_workload(300.0, Duration::from_secs(400)))
        .build_sim();
    sim.run_until(SimTime::from_secs(8));

    let mut rows = Vec::new();
    for round in 0..rounds {
        // Wait out any election in progress from the previous round.
        let mut leader = sim.leader();
        for _ in 0..60 {
            if leader.is_some() {
                break;
            }
            sim.run_for(POLL);
            leader = sim.leader();
        }
        let leader = wired(leader, "the cluster re-elects between churn rounds");
        let m = sim.server(leader).node().membership();
        let voters: Vec<NodeId> = m.voting_members().into_iter().collect();
        let members = m.members();
        let outsiders: Vec<NodeId> = universe
            .iter()
            .copied()
            .filter(|id| !members.contains(id))
            .collect();
        let remove = voters[rng.index(voters.len())];
        let add = *wired(
            outsiders.get(rng.index(outsiders.len().max(1))),
            "a 5-host universe with 3 voters always has outsiders",
        );
        let survivors: Vec<NodeId> = voters.iter().copied().filter(|&v| v != remove).collect();
        let fault = match round % 3 {
            1 => ChurnFault::Crash(survivors[rng.index(survivors.len())]),
            2 => ChurnFault::Partition(survivors[rng.index(survivors.len())]),
            _ => ChurnFault::None,
        };
        match fault {
            ChurnFault::None => {}
            ChurnFault::Crash(id) => sim.crash_restart(id),
            ChurnFault::Partition(id) => sim.partition_servers(&[id]),
        }
        let mut healed = !matches!(fault, ChurnFault::Partition(_));
        let mut done_after = None;
        for slice in 0..240 {
            if conf_step(&mut sim, &[add], &[remove]) {
                done_after = Some(slice);
                break;
            }
            if !healed && slice == 6 {
                sim.heal_partition();
                healed = true;
            }
            sim.run_for(POLL);
        }
        if !healed {
            sim.heal_partition();
        }
        let done_after = wired(
            done_after,
            &format!("churn round {round} ({remove} -> {add}) did not converge"),
        );
        let removed_leader = remove == leader;
        expected.remove(&remove);
        expected.insert(add);
        rows.push(vec![
            format!("{round}"),
            format!("{remove}{}", if removed_leader { " (leader)" } else { "" }),
            format!("{add}"),
            format!("{fault:?}"),
            format!("{:.1}", done_after as f64 * POLL.as_secs_f64()),
        ]);
    }

    // Settle, then judge the whole run.
    let t_close0 = sim.now();
    sim.run_for(Duration::from_secs(8));
    let t_end = sim.now();
    let trace = wired(sim.client(), "the builder attached a workload client").trace();
    let events = sim.events();
    let safety = election_safety_violations(&events);
    let stale = stale_read_violations(trace);
    let final_leader = wired(sim.leader(), "the cluster ends led");
    let final_m = sim.server(final_leader).node().membership();
    let closing_rate = window_rate(trace, t_close0, t_end);
    let rejected: u64 = sim.servers().map(ServerHost::conf_rejections).sum();

    let mut report = Report::new(MEMBERSHIP_CHURN.name);
    report.table(
        &format!("{rounds} randomized voter swaps over a 5-host universe (seeded)"),
        ["round", "retired", "admitted", "fault", "converged (s)"],
        rows,
    );
    report.headline(
        "election-safety + stale-read violations",
        "0",
        &format!("{}", safety + stale),
    );
    report.headline(
        "conf proposals dropped/rejected across the churn",
        "reported",
        &format!("{rejected}"),
    );
    report.headline(
        "goodput in the closing window",
        "> 0",
        &format!("{closing_rate:.0} req/s"),
    );
    report.note(
        "every round may retire the leader itself (it leads until the final\n\
         config commits, then steps down — Raft §6), and a third of the rounds\n\
         crash or partition a surviving voter mid-change; the orchestrator only\n\
         ever acts on replicated state, so dropped proposals re-issue until the\n\
         observed configuration matches the target.",
    );

    assert_eq!(safety, 0, "election safety violated under churn");
    assert_eq!(stale, 0, "stale read served under churn");
    assert!(!final_m.is_joint(), "run ended inside a joint config");
    assert_eq!(
        final_m.voting_members(),
        expected,
        "final configuration diverged from the applied schedule"
    );
    for &id in &expected {
        assert_eq!(
            sim.server(id).node().membership().voting_members(),
            expected,
            "voter {id} disagrees on the final configuration"
        );
    }
    assert!(
        closing_rate > 0.0,
        "the churned cluster must still serve in the closing window"
    );
    report
}
