//! Event-log analysis: the measurements the paper extracts from server logs.
//!
//! §IV-A: "we measured the time of the leader's failure, the time when the
//! failure was detected, and the time when a new leader was elected from
//! each server's log files in order to calculate the detection and OTS
//! times." These functions are the structured equivalent over the
//! simulator's event log.

use crate::client::OpRecord;
use dynatune_raft::{NodeId, RaftEvent};
use dynatune_simnet::SimTime;
use std::collections::BTreeMap;
use std::time::Duration;

/// Timing extracted from one leader-failure trial.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FailoverTimes {
    /// Failure → first election-timer expiry on a live server.
    pub detection: Option<Duration>,
    /// Failure → new leader elected (the paper's out-of-service time).
    pub ots: Option<Duration>,
    /// The randomized timeout that expired at detection (ms).
    pub detection_rto_ms: Option<f64>,
    /// The server that detected first.
    pub detector: Option<NodeId>,
    /// The new leader.
    pub new_leader: Option<NodeId>,
}

/// Extract detection and OTS times for a failure injected at `t_fail` on
/// `failed` from the merged event log.
#[must_use]
pub fn extract_failover(
    events: &[(SimTime, NodeId, RaftEvent)],
    t_fail: SimTime,
    failed: NodeId,
) -> FailoverTimes {
    let mut out = FailoverTimes::default();
    for &(t, node, ev) in events {
        if t < t_fail || node == failed {
            continue;
        }
        match ev {
            RaftEvent::ElectionTimeout {
                randomized_timeout, ..
            } if out.detection.is_none() => {
                out.detection = Some(t - t_fail);
                out.detection_rto_ms = Some(randomized_timeout.as_secs_f64() * 1e3);
                out.detector = Some(node);
            }
            RaftEvent::BecameLeader { .. } if out.ots.is_none() => {
                out.ots = Some(t - t_fail);
                out.new_leader = Some(node);
            }
            _ => {}
        }
        if out.detection.is_some() && out.ots.is_some() {
            break;
        }
    }
    out
}

/// Compute the intervals (in seconds since simulation start) during which
/// no server held leadership — the paper's OTS shading in Fig. 6.
///
/// A node's leadership starts at `BecameLeader` and ends at its next
/// `SteppedDown` or `BecameFollower` (or `horizon`). The cluster is
/// leaderless wherever no node's leadership interval covers the instant.
/// The initial interval before the first-ever leader is *not* reported
/// (startup is not an outage).
#[must_use]
pub fn leaderless_intervals(
    events: &[(SimTime, NodeId, RaftEvent)],
    horizon: SimTime,
) -> Vec<(f64, f64)> {
    // Build per-node leadership intervals.
    let mut intervals: Vec<(SimTime, SimTime)> = Vec::new();
    let max_node = events.iter().map(|&(_, n, _)| n).max().unwrap_or(0);
    let mut open: Vec<Option<SimTime>> = vec![None; max_node + 1];
    for &(t, node, ev) in events {
        match ev {
            RaftEvent::BecameLeader { .. } => {
                open[node] = Some(t);
            }
            RaftEvent::SteppedDown { .. } | RaftEvent::BecameFollower { .. } => {
                if let Some(start) = open[node].take() {
                    intervals.push((start, t));
                }
            }
            _ => {}
        }
    }
    for slot in open.iter_mut() {
        if let Some(start) = slot.take() {
            intervals.push((start, horizon));
        }
    }
    if intervals.is_empty() {
        return Vec::new();
    }
    intervals.sort_by_key(|&(s, _)| s);
    // Merge the led intervals, then take gaps between them.
    let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let mut gaps = Vec::new();
    for pair in merged.windows(2) {
        let (_, end_a) = pair[0];
        let (start_b, _) = pair[1];
        if start_b > end_a {
            gaps.push((end_a.as_secs_f64(), start_b.as_secs_f64()));
        }
    }
    // Tail gap: leadership ended before the horizon.
    if let Some(&(_, last_end)) = merged.last() {
        if last_end < horizon {
            gaps.push((last_end.as_secs_f64(), horizon.as_secs_f64()));
        }
    }
    gaps
}

/// Total leaderless seconds from [`leaderless_intervals`].
#[must_use]
pub fn total_leaderless_secs(gaps: &[(f64, f64)]) -> f64 {
    // fold instead of sum: `Iterator::sum` over an empty f64 iterator
    // yields -0.0, which leaks into reports as "-0.0 s".
    gaps.iter().fold(0.0, |acc, &(s, e)| acc + (e - s).max(0.0))
}

/// Election Safety (Raft §5.2) over an event log: count `BecameLeader`
/// announcements that name a *different* node for an already-claimed term.
/// Zero on every correct run; the scenario experiments and the integration
/// tests share this check.
#[must_use]
pub fn election_safety_violations(events: &[(SimTime, NodeId, RaftEvent)]) -> usize {
    let mut leaders_by_term: BTreeMap<u64, NodeId> = BTreeMap::new();
    let mut violations = 0;
    for &(_, node, ev) in events {
        if let RaftEvent::BecameLeader { term } = ev {
            if *leaders_by_term.entry(term).or_insert(node) != node {
                violations += 1;
            }
        }
    }
    violations
}

/// Count events matching a predicate in a time range.
#[must_use]
pub fn count_events(
    events: &[(SimTime, NodeId, RaftEvent)],
    from: SimTime,
    to: SimTime,
    pred: impl Fn(&RaftEvent) -> bool,
) -> usize {
    events
        .iter()
        .filter(|&&(t, _, ref e)| t >= from && t < to && pred(e))
        .count()
}

/// The third-smallest (f+1-th) value among per-node randomized timeouts —
/// the paper's Fig. 6 majority-representative metric.
#[must_use]
pub fn kth_smallest_timeout_ms(timeouts: &[Option<Duration>], k: usize) -> Option<f64> {
    let mut values: Vec<f64> = timeouts
        .iter()
        .flatten()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    if values.len() < k {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(values[k - 1])
}

/// Count real-time-order violations in a client operation trace. Every
/// committed write returns its log index as its revision, so each op has a
/// place in its key's log order: a `Put` sits at its revision, and a `Get`
/// sits just after the `Put` whose revision it read (a miss, revision 0,
/// before every `Put`). Linearizability needs that order to respect real
/// time: an op that completed before another was invoked must not sit
/// after it. The count is the ops that some earlier-completed op sits
/// after: stale reads (what a broken leader lease would serve — an
/// isolated ex-leader serving pre-partition state after the new leader
/// commits), inverted writes, and writes that a read completed before
/// their invocation had already observed. Concurrent ops may sit in either
/// order.
///
/// Per key, ops taken in completion order raise a running maximum place,
/// and each op, taken in invocation order, is checked against the maximum
/// of those that completed before it was invoked: O(n log n).
///
/// The check is sound for traces from **delete-free workloads** (the only
/// kind the recording clients produce today): only `Get`/`Put` carry
/// revisions, so a `Delete` would make a later legitimate miss
/// (revision 0) indistinguishable from a stale read. It is not complete —
/// it does not replay each read's value against the writes — so scenarios
/// pair it with convergence digests.
#[must_use]
pub fn stale_read_violations(trace: &[OpRecord]) -> usize {
    let mut by_key: BTreeMap<&[u8], Vec<&OpRecord>> = BTreeMap::new();
    for op in trace {
        by_key.entry(op.key.as_ref()).or_default().push(op);
    }
    let mut violations = 0;
    for mut by_invoked in by_key.into_values() {
        let mut by_completed = by_invoked.clone();
        by_invoked.sort_by_key(|op| op.invoked);
        by_completed.sort_by_key(|op| op.completed);
        let mut done = by_completed.into_iter().peekable();
        let mut floor = None;
        for op in by_invoked {
            while let Some(prior) = done.next_if(|prior| prior.completed < op.invoked) {
                floor = floor.max(Some(place(prior)));
            }
            if floor > Some(place(op)) {
                violations += 1;
            }
        }
    }
    violations
}

/// Where `op` sits in its key's log order: at its revision, a `Put` before
/// the `Get`s that read it.
fn place(op: &OpRecord) -> (u64, bool) {
    (op.revision, !op.write)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn op(key: &str, write: bool, invoked: u64, completed: u64, revision: u64) -> OpRecord {
        OpRecord {
            key: bytes::Bytes::copy_from_slice(key.as_bytes()),
            write,
            invoked: t(invoked),
            completed: t(completed),
            revision,
        }
    }

    #[test]
    fn stale_read_checker_catches_real_time_violations() {
        // Write k=rev7 completes at 100; a read invoked at 200 returning
        // rev 5 is stale. A concurrent read (invoked before the write's
        // response) may legally return either revision.
        let trace = vec![
            op("k", true, 50, 100, 7),
            op("k", false, 200, 250, 5), // stale!
            op("k", false, 60, 120, 5),  // concurrent with the write: fine
            op("q", false, 200, 250, 5), // different key: fine
        ];
        assert_eq!(stale_read_violations(&trace), 1);
        // Read-read ordering too: a read that observed rev 7 pins later
        // reads of the same key.
        let trace = vec![
            op("k", false, 10, 40, 7),
            op("k", false, 50, 90, 3), // went backwards
        ];
        assert_eq!(stale_read_violations(&trace), 1);
        // A clean trace counts nothing.
        let trace = vec![
            op("k", true, 0, 30, 1),
            op("k", false, 40, 60, 1),
            op("k", true, 70, 90, 2),
            op("k", false, 95, 110, 2),
        ];
        assert_eq!(stale_read_violations(&trace), 0);
        // Write order too: a write invoked after another completed must
        // not sit below it.
        let trace = vec![
            op("k", true, 0, 10, 5),
            op("k", true, 20, 30, 3), // committed below the earlier write
        ];
        assert_eq!(stale_read_violations(&trace), 1);
        // A read cannot observe a write invoked after the read completed.
        let trace = vec![
            op("k", false, 0, 10, 4),
            op("k", true, 20, 30, 4), // already seen before it was sent
        ];
        assert_eq!(stale_read_violations(&trace), 1);
        // Overlapping ops may sit in either order: this read saw a write
        // that completed after it, and these two writes committed in the
        // reverse of their invocation order.
        let trace = vec![
            op("k", false, 0, 20, 6),
            op("k", true, 10, 40, 6),
            op("q", true, 0, 30, 9),
            op("q", true, 10, 40, 8),
        ];
        assert_eq!(stale_read_violations(&trace), 0);
    }

    /// The quadratic scan the sweep replaced, extended from reads to all
    /// ops: each op against the highest place of every op that completed
    /// before it was invoked.
    fn quadratic_violations(trace: &[OpRecord]) -> usize {
        trace
            .iter()
            .filter(|op| {
                let floor = trace
                    .iter()
                    .filter(|prior| prior.key == op.key && prior.completed < op.invoked)
                    .map(place)
                    .max();
                floor > Some(place(op))
            })
            .count()
    }

    proptest! {
        /// The sweep counts what the quadratic model counts, on small
        /// traces over few keys whose instants and revisions often tie.
        #[test]
        fn prop_stale_read_sweep_matches_the_quadratic_model(
            ops in proptest::collection::vec(
                (0u8..3, proptest::bool::ANY, 0u64..40, 0u64..20, 0u64..8),
                0..24,
            ),
        ) {
            let trace: Vec<OpRecord> = ops
                .into_iter()
                .map(|(key, write, invoked, took, revision)| {
                    op(["a", "b", "c"][usize::from(key)], write, invoked, invoked + took, revision)
                })
                .collect();
            prop_assert_eq!(stale_read_violations(&trace), quadratic_violations(&trace));
        }
    }

    fn timeout(ms: u64) -> RaftEvent {
        RaftEvent::ElectionTimeout {
            term: 1,
            randomized_timeout: Duration::from_millis(ms),
        }
    }

    #[test]
    fn failover_extraction_basic() {
        let events = vec![
            (t(100), 0, RaftEvent::BecameLeader { term: 1 }),
            // failure at 1000 on node 0
            (t(1200), 2, timeout(150)),
            (t(1250), 3, timeout(180)),
            (t(1500), 2, RaftEvent::ElectionStarted { term: 2 }),
            (t(1700), 2, RaftEvent::BecameLeader { term: 2 }),
        ];
        let f = extract_failover(&events, t(1000), 0);
        assert_eq!(f.detection, Some(Duration::from_millis(200)));
        assert_eq!(f.detection_rto_ms, Some(150.0));
        assert_eq!(f.detector, Some(2));
        assert_eq!(f.ots, Some(Duration::from_millis(700)));
        assert_eq!(f.new_leader, Some(2));
    }

    #[test]
    fn failover_ignores_failed_node_and_prior_events() {
        let events = vec![
            (t(500), 1, timeout(100)),  // before failure: ignored
            (t(1100), 0, timeout(100)), // failed node: ignored
            (t(1300), 1, timeout(100)),
            (t(1900), 1, RaftEvent::BecameLeader { term: 2 }),
        ];
        let f = extract_failover(&events, t(1000), 0);
        assert_eq!(f.detection, Some(Duration::from_millis(300)));
        assert_eq!(f.ots, Some(Duration::from_millis(900)));
    }

    #[test]
    fn failover_handles_missing_outcome() {
        let f = extract_failover(&[], t(0), 0);
        assert_eq!(f.detection, None);
        assert_eq!(f.ots, None);
    }

    #[test]
    fn leaderless_gaps_between_leaders() {
        let events = vec![
            (t(1000), 0, RaftEvent::BecameLeader { term: 1 }),
            (t(5000), 0, RaftEvent::SteppedDown { term: 1 }),
            (
                t(5000),
                0,
                RaftEvent::BecameFollower {
                    term: 2,
                    leader: None,
                },
            ),
            (t(7000), 1, RaftEvent::BecameLeader { term: 2 }),
        ];
        let gaps = leaderless_intervals(&events, t(10_000));
        assert_eq!(gaps, vec![(5.0, 7.0)]);
        assert!((total_leaderless_secs(&gaps) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn leaderless_tail_gap_counts() {
        let events = vec![
            (t(1000), 0, RaftEvent::BecameLeader { term: 1 }),
            (
                t(4000),
                0,
                RaftEvent::BecameFollower {
                    term: 2,
                    leader: None,
                },
            ),
        ];
        let gaps = leaderless_intervals(&events, t(6000));
        assert_eq!(gaps, vec![(4.0, 6.0)]);
    }

    #[test]
    fn overlapping_leaderships_merge() {
        // Transiently two leaders (old one hasn't heard the new term yet).
        let events = vec![
            (t(1000), 0, RaftEvent::BecameLeader { term: 1 }),
            (t(3000), 1, RaftEvent::BecameLeader { term: 2 }),
            (
                t(3500),
                0,
                RaftEvent::BecameFollower {
                    term: 2,
                    leader: Some(1),
                },
            ),
        ];
        let gaps = leaderless_intervals(&events, t(5000));
        assert!(gaps.is_empty(), "no gap while either node led: {gaps:?}");
    }

    #[test]
    fn startup_is_not_an_outage() {
        let events = vec![(t(1500), 0, RaftEvent::BecameLeader { term: 1 })];
        let gaps = leaderless_intervals(&events, t(3000));
        assert!(gaps.is_empty());
    }

    #[test]
    fn kth_smallest_skips_paused() {
        let timeouts = vec![
            Some(Duration::from_millis(120)),
            None, // paused
            Some(Duration::from_millis(80)),
            Some(Duration::from_millis(200)),
            Some(Duration::from_millis(150)),
        ];
        assert_eq!(kth_smallest_timeout_ms(&timeouts, 3), Some(150.0));
        assert_eq!(kth_smallest_timeout_ms(&timeouts, 5), None);
    }

    #[test]
    fn election_safety_counts_conflicting_claims() {
        let clean = vec![
            (t(100), 0, RaftEvent::BecameLeader { term: 1 }),
            (t(500), 1, RaftEvent::BecameLeader { term: 2 }),
            (t(900), 1, RaftEvent::BecameLeader { term: 3 }),
        ];
        assert_eq!(election_safety_violations(&clean), 0);
        let split_brain = vec![
            (t(100), 0, RaftEvent::BecameLeader { term: 1 }),
            (t(200), 2, RaftEvent::BecameLeader { term: 1 }),
        ];
        assert_eq!(election_safety_violations(&split_brain), 1);
        assert_eq!(election_safety_violations(&[]), 0);
    }

    #[test]
    fn count_events_filters() {
        let events = vec![
            (t(100), 0, RaftEvent::TunerReset),
            (t(200), 1, RaftEvent::TunerReset),
            (t(300), 0, RaftEvent::BecameLeader { term: 1 }),
        ];
        let n = count_events(&events, t(0), t(250), |e| {
            matches!(e, RaftEvent::TunerReset)
        });
        assert_eq!(n, 2);
        let n = count_events(&events, t(150), t(1000), |e| {
            matches!(e, RaftEvent::TunerReset)
        });
        assert_eq!(n, 1);
    }
}
