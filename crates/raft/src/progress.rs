//! Leader-side replication progress tracking (etcd's `Progress`).
//!
//! Since the pipelining rework, a follower's progress carries a *window* of
//! outstanding `AppendEntries` instead of a single in-flight flag. The
//! invariants the window accounting maintains:
//!
//! * **Acks may arrive out of order.** Accounting is monotonic: a success
//!   for `index` retires every outstanding send whose `last_index` is at or
//!   below the new `match_index` (log matching guarantees the whole prefix
//!   landed), and a stale reordered ack can never regress `match_index` or
//!   `next_index`.
//! * **`next_index` never retreats below `match_index + 1`.** Entries up to
//!   `match_index` are proven on the follower; no conflict hint, resend
//!   reset, or reordered reply may send them again as unproven.
//! * **A conflict hint cancels exactly the invalidated suffix.** A rejected
//!   `prev = p` proves the follower diverges at or before `p`, so every
//!   outstanding send with `prev_index > hint` is guaranteed to bounce and
//!   is dropped; sends probing at or below the hint are left in flight.

use crate::types::LogIndex;
use dynatune_simnet::SimTime;
use std::collections::VecDeque;

/// One outstanding leader→follower transfer: an `AppendEntries` (or the
/// `InstallSnapshot` standing in for one) that has been sent but not yet
/// acknowledged. The queue of these is ordered by send time, so the front
/// is always the oldest unacked send — the one the resend timer watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflightSend {
    /// When the message was sent (resend timeout base for the queue front).
    pub sent_at: SimTime,
    /// `prev_log_index` of the append (the consistency-check anchor). A
    /// conflict hint `h` invalidates exactly the sends with `prev_index > h`.
    pub prev_index: LogIndex,
    /// Highest entry index the message carries (`== prev_index` for an
    /// empty commit/read-ctx carrier). A success ack at `match >= last_index`
    /// retires the send.
    pub last_index: LogIndex,
}

/// Replication state the leader keeps per follower.
///
/// See the module docs for the three pipelining invariants this structure
/// maintains under out-of-order acks, conflicts, and resends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// Highest log index known to be replicated on the follower.
    pub match_index: LogIndex,
    /// Next index to send. Advanced *optimistically* when a send is
    /// recorded (pipelining), proven when the ack lands, and rolled back —
    /// never below `match_index + 1` — on conflict or resend.
    pub next_index: LogIndex,
    /// Outstanding unacknowledged sends, oldest first. Capacity is bounded
    /// by `RaftConfig::pipeline_window`; an in-flight snapshot occupies the
    /// whole window by itself (see [`Progress::window_free`]).
    pub inflight: VecDeque<InflightSend>,
    /// Receive instant of this follower's freshest term-matching ack: a
    /// heartbeat ack or an `AppendResp`, which also answers a snapshot
    /// (the election instant until one lands), like etcd's `RecentActive`.
    /// Check-quorum reads it. It is not folded into
    /// [`Progress::lease_basis`]: that is a send instant, one round trip
    /// older, and a check-quorum on it deposes healthy leaders whose
    /// election timeout sits close to the round trip (Raft-Low).
    pub last_active: SimTime,
    /// Last included index of an in-flight `InstallSnapshot`, if one is
    /// outstanding. Snapshot transfers are bulky, so their resend timer is
    /// paced separately (`SNAPSHOT_RESEND` vs `APPEND_RESEND`), and no
    /// appends are pipelined behind one.
    pub pending_snapshot: Option<LogIndex>,
    /// Send instant of the freshest heartbeat or `AppendEntries` this
    /// follower has acknowledged (from the reply's echoed timestamp): the
    /// proof that it still accepted this leader's term after that instant.
    /// It is the leader's one leadership record for both log-free read
    /// paths. The lease holds while a quorum's basis is younger than the
    /// lease window; a ReadIndex round registered at `T` is confirmed once
    /// a quorum's basis is `>= T`. Both acks renew it: the follower
    /// re-armed its election timer on either, and the echo carries the
    /// exact send time, so a reordered ack can never inflate it. It starts
    /// at zero, so no lease holds before the first ack. Check-quorum reads
    /// [`Progress::last_active`] instead, the receive instant of the same
    /// acks: a read must not outlive the proof, while a step-down must not
    /// come a round trip early.
    pub lease_basis: SimTime,
}

impl Progress {
    /// Fresh progress for a newly-elected leader.
    #[must_use]
    pub fn new(last_log_index: LogIndex, now: SimTime) -> Self {
        Self {
            match_index: 0,
            next_index: last_log_index + 1,
            inflight: VecDeque::new(),
            last_active: now,
            pending_snapshot: None,
            lease_basis: SimTime::ZERO,
        }
    }

    /// Whether another append may be sent: the pipeline window (`>= 1`) has
    /// a free slot and no snapshot transfer is monopolising the pipe.
    #[must_use]
    pub fn window_free(&self, window: usize) -> bool {
        self.pending_snapshot.is_none() && self.inflight.len() < window.max(1)
    }

    /// Record an append send covering `(prev_index, last_index]` and advance
    /// `next_index` optimistically so the next send continues from
    /// `last_index + 1` without waiting for the ack.
    pub fn record_send(&mut self, now: SimTime, prev_index: LogIndex, last_index: LogIndex) {
        self.inflight.push_back(InflightSend {
            sent_at: now,
            prev_index,
            last_index,
        });
        self.next_index = self.next_index.max(last_index + 1);
    }

    /// Record a successful replication up to `index`, retiring every
    /// outstanding send the ack (transitively) covers. Reordered stale acks
    /// are no-ops: the accounting is monotonic.
    pub fn on_success(&mut self, index: LogIndex) {
        self.match_index = self.match_index.max(index);
        self.next_index = self.next_index.max(index + 1);
        if self.pending_snapshot.take().is_some() {
            // The snapshot was the only transfer in flight (it occupies the
            // whole window); any reply to it — even one acking below its
            // last included index, e.g. from a follower that already had a
            // fresher snapshot — reopens the pipe.
            self.inflight.clear();
        } else {
            let matched = self.match_index;
            self.inflight.retain(|s| s.last_index > matched);
        }
    }

    /// Record a conflict hint: cancel exactly the invalidated suffix of the
    /// pipeline (sends with `prev_index > hint` are guaranteed to bounce)
    /// and back off to probe at `prev = hint` next.
    ///
    /// The clamp keeps `next_index` at or above `match_index + 1` (those
    /// entries are proven), but deliberately *not* above the leader's
    /// `first_index`: a hint below the compaction horizon is the signal
    /// that log replication cannot serve this follower, and `send_append`
    /// answers it with an `InstallSnapshot` instead of an append.
    pub fn on_conflict(&mut self, hint: LogIndex) {
        self.next_index = (hint + 1).max(self.match_index + 1);
        if self.pending_snapshot.take().is_some() {
            self.inflight.clear();
        } else {
            self.inflight.retain(|s| s.prev_index <= hint);
        }
    }

    /// Record an `InstallSnapshot` send cut at `last_included_index`. The
    /// transfer occupies the *whole* window: appends optimistically queued
    /// behind it would anchor below the follower's (future) restored log
    /// base and bounce anyway, so they are dropped here and
    /// [`Progress::window_free`] stays false until the install is answered.
    pub fn record_snapshot_send(&mut self, now: SimTime, last_included_index: LogIndex) {
        self.inflight.clear();
        self.record_send(now, last_included_index, last_included_index);
        self.pending_snapshot = Some(last_included_index);
    }

    /// Resend reset: the oldest unacked transfer timed out, so every
    /// younger pipeline slot behind it is unverifiable. Abandon the whole
    /// optimistic window — a stuck snapshot transfer included — and fall
    /// back to proven ground: the next send probes from `match_index + 1`,
    /// never below.
    pub fn reset_for_resend(&mut self) {
        self.inflight.clear();
        self.pending_snapshot = None;
        self.next_index = self.match_index + 1;
    }

    /// Extend the lease basis to an acknowledged message's echoed send
    /// instant. Reordered echoes are maxed, so an older one never lowers it.
    pub fn renew_lease(&mut self, echo_sent_at_nanos: u64) {
        self.lease_basis = self
            .lease_basis
            .max(SimTime::from_nanos(echo_sent_at_nanos));
    }

    /// Whether entries up to `last_index` remain unsent.
    #[must_use]
    pub fn has_pending(&self, last_index: LogIndex) -> bool {
        self.next_index <= last_index
    }

    /// Send instant of the oldest unacknowledged transfer, if any — the
    /// base for the resend timer (append- or snapshot-paced depending on
    /// `pending_snapshot`).
    #[must_use]
    pub fn oldest_sent_at(&self) -> Option<SimTime> {
        self.inflight.front().map(|s| s.sent_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_progress_is_optimistic() {
        let p = Progress::new(10, SimTime::from_millis(5));
        assert_eq!(p.match_index, 0);
        assert_eq!(p.next_index, 11);
        assert!(p.inflight.is_empty());
        assert!(p.window_free(1));
        assert!(!p.has_pending(10));
        assert!(p.has_pending(11));
    }

    #[test]
    fn success_advances_monotonically() {
        let mut p = Progress::new(0, SimTime::ZERO);
        p.on_success(5);
        assert_eq!(p.match_index, 5);
        assert_eq!(p.next_index, 6);
        // A stale (reordered) smaller success must not regress.
        p.on_success(3);
        assert_eq!(p.match_index, 5);
        assert_eq!(p.next_index, 6);
    }

    #[test]
    fn record_send_fills_the_window_and_advances_next() {
        let mut p = Progress::new(0, SimTime::ZERO);
        p.next_index = 1;
        p.record_send(SimTime::from_millis(1), 0, 4);
        p.record_send(SimTime::from_millis(2), 4, 8);
        assert_eq!(p.next_index, 9, "optimistic advance past each send");
        assert_eq!(p.inflight.len(), 2);
        assert!(p.window_free(4));
        assert!(!p.window_free(2), "window of 2 is full");
        assert_eq!(p.oldest_sent_at(), Some(SimTime::from_millis(1)));
    }

    #[test]
    fn out_of_order_acks_retire_monotonically() {
        let mut p = Progress::new(0, SimTime::ZERO);
        p.next_index = 1;
        p.record_send(SimTime::from_millis(1), 0, 4);
        p.record_send(SimTime::from_millis(2), 4, 8);
        p.record_send(SimTime::from_millis(3), 8, 12);
        // The *second* ack arrives first: it retires the first two sends
        // (log matching covers the prefix) but not the third.
        p.on_success(8);
        assert_eq!(p.match_index, 8);
        assert_eq!(p.inflight.len(), 1);
        assert_eq!(p.oldest_sent_at(), Some(SimTime::from_millis(3)));
        // The first ack straggles in afterwards: a pure no-op.
        p.on_success(4);
        assert_eq!(p.match_index, 8);
        assert_eq!(p.inflight.len(), 1);
        p.on_success(12);
        assert!(p.inflight.is_empty());
    }

    #[test]
    fn conflict_backs_off_but_not_below_match() {
        let mut p = Progress::new(10, SimTime::ZERO);
        p.on_success(4);
        p.next_index = 11;
        p.on_conflict(7);
        assert_eq!(p.next_index, 8);
        // Hint below proven match is clamped.
        p.on_conflict(1);
        assert_eq!(p.next_index, 5);
    }

    #[test]
    fn conflict_cancels_exactly_the_invalidated_suffix() {
        let mut p = Progress::new(0, SimTime::ZERO);
        p.next_index = 1;
        p.record_send(SimTime::from_millis(1), 0, 4); // probe at prev = 0
        p.record_send(SimTime::from_millis(2), 4, 8);
        p.record_send(SimTime::from_millis(3), 8, 12);
        // Follower hints divergence at 4: the sends anchored at prev 8 (and
        // any later) are guaranteed to bounce and are dropped; the probe at
        // prev 0 and the send at prev 4 stay in flight.
        p.on_conflict(4);
        assert_eq!(p.next_index, 5);
        assert_eq!(p.inflight.len(), 2);
        assert!(p.inflight.iter().all(|s| s.prev_index <= 4));
        assert_eq!(
            p.oldest_sent_at(),
            Some(SimTime::from_millis(1)),
            "the surviving front still arms the resend timer"
        );
    }

    #[test]
    fn conflict_may_back_off_below_a_compacted_first_index() {
        // A leader whose log starts at first_index = 101 (entries 1..=100
        // compacted) and a follower with nothing proven: the hint drives
        // next_index below the horizon, which is exactly the condition
        // send_append converts into an InstallSnapshot. The clamp must not
        // hide it by flooring at first_index.
        let mut p = Progress::new(150, SimTime::ZERO);
        p.on_conflict(40); // follower's log ends at 40 < first_index 101
        assert_eq!(p.next_index, 41, "backoff lands below the compacted base");
        assert_eq!(p.match_index, 0);
    }

    #[test]
    fn replies_clear_pending_snapshot() {
        let mut p = Progress::new(10, SimTime::ZERO);
        p.pending_snapshot = Some(10);
        p.record_send(SimTime::ZERO, 0, 10);
        assert!(!p.window_free(8), "an in-flight snapshot blocks the window");
        p.on_success(10);
        assert_eq!(p.pending_snapshot, None);
        assert_eq!(p.next_index, 11);
        assert!(p.inflight.is_empty());
        p.pending_snapshot = Some(10);
        p.record_send(SimTime::ZERO, 0, 10);
        p.on_conflict(3);
        assert_eq!(p.pending_snapshot, None);
        assert!(p.inflight.is_empty());
    }

    #[test]
    fn resend_reset_abandons_the_window_but_never_proven_ground() {
        let mut p = Progress::new(0, SimTime::ZERO);
        p.next_index = 1;
        p.record_send(SimTime::from_millis(1), 0, 4);
        p.on_success(4);
        p.record_send(SimTime::from_millis(2), 4, 8);
        p.record_send(SimTime::from_millis(3), 8, 12);
        assert_eq!(p.next_index, 13);
        p.reset_for_resend();
        assert!(p.inflight.is_empty(), "the whole optimistic window goes");
        assert_eq!(p.oldest_sent_at(), None, "nothing left to time out");
        assert_eq!(p.next_index, 5, "re-probe from match_index + 1");
        assert_eq!(p.match_index, 4, "proven entries stay proven");
        // A stuck snapshot transfer is abandoned the same way.
        p.record_snapshot_send(SimTime::from_millis(4), 20);
        p.reset_for_resend();
        assert_eq!(p.pending_snapshot, None);
        assert!(p.window_free(1));
        assert_eq!(p.next_index, 5, "never below match_index + 1");
    }

    #[test]
    fn a_snapshot_send_occupies_the_whole_window() {
        let mut p = Progress::new(0, SimTime::ZERO);
        p.next_index = 1;
        p.record_send(SimTime::from_millis(1), 0, 4);
        p.record_send(SimTime::from_millis(2), 4, 8);
        p.record_snapshot_send(SimTime::from_millis(3), 30);
        assert_eq!(p.pending_snapshot, Some(30));
        assert_eq!(p.inflight.len(), 1, "appends queued behind it are dropped");
        assert_eq!(
            p.oldest_sent_at(),
            Some(SimTime::from_millis(3)),
            "the resend timer now watches the transfer"
        );
        assert!(!p.window_free(8), "closed however wide the window is");
        assert_eq!(p.next_index, 31, "appends resume past the boundary");
    }

    #[test]
    fn stale_snapshot_ack_below_last_included_still_reopens_the_pipe() {
        // A follower that already had fresher state acks an InstallSnapshot
        // with its own (smaller) commit floor. The reply must still retire
        // the transfer — otherwise the window stays blocked until the slow
        // `SNAPSHOT_RESEND` timer fires.
        let mut p = Progress::new(100, SimTime::ZERO);
        p.pending_snapshot = Some(80);
        p.record_send(SimTime::ZERO, 0, 80);
        p.on_success(50);
        assert_eq!(p.pending_snapshot, None);
        assert!(p.inflight.is_empty());
        assert!(p.window_free(1));
        assert_eq!(p.match_index, 50);
    }
}
