//! Snapshots: streaming applied state to a follower behind the compaction
//! horizon (`InstallSnapshot`), installing one, and compacting the log.
//! The applied state is durable, so compaction only drops the log prefix:
//! the one snapshot ever cut is the one `send_snapshot` streams.

use super::confchange::MembershipFrame;
use super::{send, NodeEffects, RaftNode};
use crate::events::RaftEvent;
use crate::message::{AppendResp, InstallSnapshot, Payload};
use crate::state_machine::StateMachine;
use crate::types::{LogIndex, NodeId};
use dynatune_core::invariant_violated;
use dynatune_simnet::SimTime;

impl<SM: StateMachine> RaftNode<SM> {
    /// Stream the current applied state to a follower that fell behind the
    /// compaction horizon. The snapshot is cut at `last_applied` (the state
    /// the leader holds in memory), which is always at or above the log
    /// base, so the follower lands inside the retained log and ordinary
    /// appends take over from there.
    ///
    /// The transfer occupies the *whole* pipeline window until the install
    /// is answered (`Progress::record_snapshot_send`).
    pub(super) fn send_snapshot(&mut self, now: SimTime, to: NodeId, fx: &mut NodeEffects<SM>) {
        let last_included_index = self.last_applied;
        let Some(last_included_term) = self.log.term_at(last_included_index) else {
            invariant_violated!(
                "applied index {last_included_index} fell outside the live log \
                 [{}, {}] — compaction must never pass last_applied",
                self.log.first_index(),
                self.log.last_index()
            );
        };
        let data = self.sm.snapshot();
        let Some(p) = self.progress_mut(to) else {
            return;
        };
        p.record_snapshot_send(now, last_included_index);
        self.snapshots_sent += 1;
        fx.events.push(RaftEvent::SnapshotSent {
            to,
            last_included_index,
        });
        let msg = InstallSnapshot {
            term: self.term,
            leader: self.config.id,
            last_included_index,
            last_included_term,
            membership: self.membership_at(last_included_index),
            data,
        };
        send(
            &self.config,
            fx,
            to,
            Payload::InstallSnapshot(Box::new(msg)),
        );
    }

    /// Follower side of snapshot transfer: adopt the leader, reset the log
    /// to the snapshot boundary (retaining any matching tail), restore the
    /// state machine, and acknowledge through the regular `AppendResp` path
    /// so the leader's progress tracking advances normally.
    pub(super) fn on_install_snapshot(
        &mut self,
        now: SimTime,
        from: NodeId,
        snap: InstallSnapshot<SM::Snapshot>,
        fx: &mut NodeEffects<SM>,
    ) {
        if snap.term < self.term {
            self.reject_stale_leader(from, fx);
            return;
        }
        if !self.accept_leader_contact(now, from, fx) {
            return;
        }
        if snap.last_included_index > self.commit_index {
            let membership_before = self.active_frame().membership.clone();
            let kept_tail =
                self.log.term_at(snap.last_included_index) == Some(snap.last_included_term);
            if kept_tail {
                // Our log already reaches the snapshot point: fast-forward
                // state and compaction, retain the matching tail.
                self.log.compact(snap.last_included_index);
            } else {
                // Behind (or diverged): the snapshot replaces everything.
                self.log
                    .reset(snap.last_included_index, snap.last_included_term);
            }
            // The snapshot's boundary configuration becomes the base frame.
            // Conf entries in a retained tail stay stacked on top; on the
            // reset path the tail is gone, so the boundary config rules.
            if kept_tail {
                self.frames.retain(|f| f.index > snap.last_included_index);
            } else {
                self.frames.clear();
            }
            self.frames.insert(
                0,
                MembershipFrame {
                    index: snap.last_included_index,
                    term: snap.last_included_term,
                    membership: snap.membership,
                },
            );
            if self.active_frame().membership != membership_before {
                self.emit_membership_event(fx);
            }
            self.sm.restore(&snap.data);
            self.commit_index = snap.last_included_index;
            self.last_applied = snap.last_included_index;
            fx.events.push(RaftEvent::SnapshotInstalled {
                last_included_index: snap.last_included_index,
            });
        }
        // Acknowledge up to the snapshot point (or our existing commit if
        // the snapshot was stale) — monotonic on the leader side.
        let resp = AppendResp {
            term: self.term,
            success: true,
            match_or_hint: snap.last_included_index.min(self.commit_index),
            echo_sent_at_nanos: None,
        };
        send(&self.config, fx, from, Payload::AppendResp(resp));
    }

    /// Compact the log prefix up to `index` (clamped to `last_applied`).
    /// No snapshot is taken: the applied state survives a crash, and a
    /// follower behind the new base is caught up by `send_snapshot`.
    pub fn compact_log(&mut self, index: LogIndex) {
        let index = index.min(self.safe_compact_index());
        if index < self.log.first_index() {
            return; // nothing new to discard
        }
        // Collapse membership frames the compacted prefix carried into one
        // base frame at the compaction boundary: their history is gone from
        // the log, but the configuration they produced must survive (a
        // snapshot cut at or above the boundary ships it to catch-up
        // followers via `membership_at`).
        let Some(boundary_term) = self.log.term_at(index) else {
            invariant_violated!(
                "compaction boundary {index} has no term in the live log \
                 [{}, {}]",
                self.log.first_index(),
                self.log.last_index()
            );
        };
        let covered = self.frames.iter().filter(|f| f.index <= index).count();
        if covered > 0 {
            let collapsed = self.frames[covered - 1].membership.clone();
            self.frames.drain(..covered);
            self.frames.insert(
                0,
                MembershipFrame {
                    index,
                    term: boundary_term,
                    membership: collapsed,
                },
            );
        }
        self.log.compact(index);
    }

    /// Highest index that can be compacted: everything applied. Compaction
    /// is *not* pinned by the slowest follower — a peer that needs an entry
    /// below the log base is caught up with an `InstallSnapshot` stream
    /// instead, so one crashed node cannot make the leader's log grow
    /// without bound. Callers keep a small tail of slack so briefly-lagging
    /// followers still catch up via cheap appends.
    #[must_use]
    pub fn safe_compact_index(&self) -> LogIndex {
        self.last_applied
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{elect, leader_with_committed, ms, node};
    use super::*;
    use crate::config::RaftConfig;
    use crate::membership::Membership;
    use crate::message::AppendEntries;
    use crate::state_machine::NullStateMachine;
    use crate::types::Role;
    use dynatune_core::TuningConfig;
    use std::time::Duration;

    /// Regression for the permanent replication stall: a leader whose log
    /// is compacted (it compacted to `last_applied` as a follower, then won
    /// an election) gets a conflict hint from a lagging peer that lands
    /// below `first_index()`. Pre-fix, `send_append` returned silently with
    /// an empty in-flight window, so neither the response path nor the
    /// resend timer ever retried — the peer was stuck forever. Post-fix the
    /// leader streams an `InstallSnapshot`.
    #[test]
    fn conflict_below_compaction_horizon_triggers_snapshot_not_stall() {
        let mut leader = node(0, 3);
        let last = leader_with_committed(&mut leader, 5);
        leader.compact_log(last); // follower-style compaction to last_applied
        assert!(leader.log().first_index() > 1);
        // Lagging peer 2: its log ends far below the compaction horizon.
        let fx = leader.step(
            ms(3100),
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: false,
                match_or_hint: 0,
                echo_sent_at_nanos: None,
            }),
        );
        let snap_msgs: Vec<_> = fx
            .messages
            .iter()
            .filter(|m| matches!(&m.payload, Payload::InstallSnapshot(_)))
            .collect();
        assert_eq!(snap_msgs.len(), 1, "stall must become a snapshot stream");
        assert_eq!(snap_msgs[0].to, 2);
        match &snap_msgs[0].payload {
            Payload::InstallSnapshot(s) => {
                assert_eq!(s.last_included_index, last);
                assert_eq!(s.term, leader.term());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(leader.snapshots_sent(), 1);
        assert!(
            fx.events
                .iter()
                .any(|e| matches!(e, RaftEvent::SnapshotSent { to: 2, .. })),
            "events: {:?}",
            fx.events
        );
        // The transfer is tracked: the resend timer must cover it.
        let wake = leader.next_wake().expect("leader wakes");
        assert!(wake <= ms(3100) + Duration::from_millis(1000));
    }

    #[test]
    fn snapshot_resend_paces_slower_than_appends() {
        let mut leader = node(0, 3);
        let last = leader_with_committed(&mut leader, 5);
        leader.compact_log(last);
        let t0 = ms(3100);
        let _ = leader.step(
            t0,
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: false,
                match_or_hint: 0,
                echo_sent_at_nanos: None,
            }),
        );
        assert_eq!(leader.snapshots_sent(), 1);
        // Within `SNAPSHOT_RESEND` (1s), ticks must not re-stream the state.
        let _ = leader.tick(t0 + Duration::from_millis(300));
        assert_eq!(leader.snapshots_sent(), 1, "append cadence must not apply");
        // Once the snapshot timer expires, the transfer is retried.
        let mut t = t0 + Duration::from_millis(300);
        let mut resent = false;
        for _ in 0..50 {
            t = leader
                .next_wake()
                .unwrap()
                .max(t + Duration::from_millis(1));
            let _ = leader.tick(t);
            if leader.snapshots_sent() > 1 {
                resent = true;
                break;
            }
        }
        assert!(resent, "unacked snapshot must eventually resend");
        assert!(t >= t0 + Duration::from_millis(1000));
    }

    #[test]
    fn install_snapshot_resets_follower_log_and_state() {
        let mut n = node(1, 3);
        // Give the follower a short stale log.
        let _ = n.step(
            ms(1),
            2,
            Payload::AppendEntries(AppendEntries {
                term: 1,
                leader: 2,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![crate::log::Entry::normal(1, 1, Some(11))],
                leader_commit: 0,
                sent_at_nanos: 0,
            }),
        );
        let fx = n.step(
            ms(10),
            0,
            Payload::InstallSnapshot(Box::new(InstallSnapshot {
                term: 3,
                leader: 0,
                last_included_index: 7,
                last_included_term: 2,
                membership: Membership::initial(&[0, 1, 2], &[]),
                data: vec![(7, 77)],
            })),
        );
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.leader_id(), Some(0));
        assert_eq!(n.term(), 3);
        assert_eq!(n.log().first_index(), 8, "log base moved to the snapshot");
        assert_eq!(n.log().last_index(), 7);
        assert_eq!(n.commit_index(), 7);
        assert_eq!(n.last_applied(), 7);
        assert_eq!(n.state_machine().applied, vec![(7, 77)]);
        let ev = &fx.events;
        assert!(
            ev.iter()
                .any(|e| matches!(e, RaftEvent::SnapshotInstalled { .. })),
            "{ev:?}"
        );
        // Acked through the regular append path so progress advances.
        let ack = fx
            .messages
            .iter()
            .find(|m| matches!(&m.payload, Payload::AppendResp(_)))
            .expect("snapshot ack");
        match &ack.payload {
            Payload::AppendResp(r) => {
                assert!(r.success);
                assert_eq!(r.match_or_hint, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Replication continues from the snapshot boundary.
        let fx = n.step(
            ms(20),
            0,
            Payload::AppendEntries(AppendEntries {
                term: 3,
                leader: 0,
                prev_log_index: 7,
                prev_log_term: 2,
                entries: vec![crate::log::Entry::normal(3, 8, Some(88))],
                leader_commit: 8,
                sent_at_nanos: 0,
            }),
        );
        assert_eq!(n.commit_index(), 8);
        assert_eq!(fx.applied.len(), 1);
    }

    #[test]
    fn stale_snapshot_is_acked_but_not_installed() {
        let mut n = node(1, 3);
        let _ = n.step(
            ms(1),
            0,
            Payload::AppendEntries(AppendEntries {
                term: 2,
                leader: 0,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: (1..=5)
                    .map(|i| crate::log::Entry::normal(2, i, Some(i)))
                    .collect(),
                leader_commit: 5,
                sent_at_nanos: 0,
            }),
        );
        assert_eq!(n.commit_index(), 5);
        let applied_before = n.state_machine().applied.clone();
        let fx = n.step(
            ms(2),
            0,
            Payload::InstallSnapshot(Box::new(InstallSnapshot {
                term: 2,
                leader: 0,
                last_included_index: 3,
                last_included_term: 2,
                membership: Membership::initial(&[0, 1, 2], &[]),
                data: vec![(3, 33)],
            })),
        );
        assert_eq!(n.log().last_index(), 5, "log untouched");
        assert_eq!(n.state_machine().applied, applied_before, "state untouched");
        match &fx.messages[0].payload {
            Payload::AppendResp(r) => {
                assert!(r.success);
                assert_eq!(r.match_or_hint, 3, "stale point is still proven");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn restart_after_compaction_resumes_at_last_applied() {
        let mut n = node(0, 1);
        let deadline = n.election_deadline();
        let _ = n.tick(deadline);
        assert_eq!(n.role(), Role::Leader);
        let (_, _) = n.propose(deadline, 42);
        let (_, _) = n.propose(deadline, 43);
        assert_eq!(n.commit_index(), 3); // no-op + two commands
        n.compact_log(3);
        assert_eq!(n.log().first_index(), 4);
        let state_before = n.state_machine().applied.clone();
        // With the prefix gone there is nothing to replay: restart must keep
        // the applied state and resume at last_applied.
        n.restart(ms(9000));
        assert_eq!(n.role(), Role::Follower, "role is volatile");
        assert_eq!(n.last_applied(), 3, "the applied index survives");
        assert_eq!(n.commit_index(), 3);
        assert_eq!(n.state_machine().applied, state_before);
        // Re-elected, the node commits its no-op and a command on top of
        // index 3 and applies exactly those.
        let deadline = n.election_deadline();
        let fx = n.tick(deadline);
        assert_eq!(n.role(), Role::Leader);
        assert_eq!(fx.applied.iter().map(|a| a.index).collect::<Vec<_>>(), [4]);
        let (_, fx) = n.propose(deadline, 44);
        assert_eq!(fx.applied.iter().map(|a| a.index).collect::<Vec<_>>(), [5]);
        assert_eq!(n.state_machine().applied, vec![(2, 42), (3, 43), (5, 44)]);
    }

    /// A [`NullStateMachine`] that counts the snapshots cut from it.
    #[derive(Debug, Default)]
    struct CountingSm {
        inner: NullStateMachine,
        snapshots: std::cell::Cell<u32>,
    }

    impl StateMachine for CountingSm {
        type Command = u64;
        type Response = LogIndex;
        type Snapshot = Vec<(LogIndex, u64)>;

        fn apply(&mut self, index: LogIndex, command: &u64) -> LogIndex {
            self.inner.apply(index, command)
        }

        fn snapshot(&self) -> Self::Snapshot {
            self.snapshots.set(self.snapshots.get() + 1);
            self.inner.snapshot()
        }

        fn restore(&mut self, snapshot: &Self::Snapshot) {
            self.inner.restore(snapshot);
        }
    }

    #[test]
    fn only_streaming_a_snapshot_cuts_one() {
        let config = RaftConfig::new(0, 3, TuningConfig::raft_default());
        let mut n = RaftNode::new(config, CountingSm::default(), SimTime::ZERO);
        let append = |prev: LogIndex, values: &[u64]| {
            Payload::AppendEntries(AppendEntries {
                term: 1,
                leader: 1,
                prev_log_index: prev,
                prev_log_term: if prev > 0 { 1 } else { 0 },
                entries: (prev + 1..)
                    .zip(values)
                    .map(|(i, v)| crate::log::Entry::normal(1, i, Some(*v)))
                    .collect(),
                leader_commit: prev + values.len() as u64,
                sent_at_nanos: 0,
            })
        };
        // A follower compacts twice and installs one snapshot.
        let _ = n.step(ms(1), 1, append(0, &[10, 20]));
        n.compact_log(2);
        let _ = n.step(ms(2), 1, append(2, &[30]));
        n.compact_log(3);
        assert_eq!(n.log().first_index(), 4);
        let _ = n.step(
            ms(3),
            2,
            Payload::InstallSnapshot(Box::new(InstallSnapshot {
                term: 2,
                leader: 2,
                last_included_index: 7,
                last_included_term: 2,
                membership: Membership::initial(&[0, 1, 2], &[]),
                data: vec![(7, 70)],
            })),
        );
        assert_eq!(n.last_applied(), 7);
        assert_eq!(n.state_machine().snapshots.get(), 0, "nothing was cut");
        // Elected, it streams one snapshot to a peer behind its log base.
        let _ = elect(&mut n, ms(4));
        let t = ms(5000);
        let _ = n.step(
            t,
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: n.log().last_index(),
                echo_sent_at_nanos: None,
            }),
        );
        let fx = n.step(
            t,
            2,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: false,
                match_or_hint: 0,
                echo_sent_at_nanos: None,
            }),
        );
        assert_eq!(n.snapshots_sent(), 1);
        assert!(fx
            .messages
            .iter()
            .any(|m| matches!(&m.payload, Payload::InstallSnapshot(_))));
        assert_eq!(n.state_machine().snapshots.get(), 1, "one stream, one cut");
    }

    #[test]
    fn leader_compaction_is_not_pinned_by_slow_followers() {
        let mut leader = node(0, 3);
        let last = leader_with_committed(&mut leader, 10);
        // Follower 2 never acked anything (match 0); compaction proceeds
        // anyway — snapshots cover the gap.
        assert_eq!(leader.safe_compact_index(), last);
        leader.compact_log(last);
        assert_eq!(leader.log().first_index(), last + 1);
    }
}
