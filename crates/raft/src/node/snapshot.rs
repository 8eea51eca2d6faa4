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
        send(&self.config, fx, to, Payload::InstallSnapshot(msg));
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
            read_ctx: None,
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
