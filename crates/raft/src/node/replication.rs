//! Log replication: client proposals, group commit, the pipelined
//! `AppendEntries` window per follower, acks and conflict back-off, and the
//! commit → apply path.

use super::reads::ReadState;
use super::{send, NodeEffects, NotLeader, RaftNode, RoleState};
use crate::log::{AppendOutcome, EntryData};
use crate::message::{AppendEntries, AppendResp, Payload};
use crate::progress::Progress;
use crate::state_machine::{Applied, Effects, StateMachine};
use crate::types::{LogIndex, NodeId, Term};
use dynatune_core::{invariant_violated, LeaderPacer, TuningConfig};
use dynatune_simnet::SimTime;
use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Duration;

/// Group commit: proposals arriving while the replication pipe is busy
/// are coalesced for at most this long before the leader flushes them
/// into (up to) one `AppendEntries` per follower. A proposal hitting an
/// idle pipe is still sent immediately — the delay bounds batching
/// latency under load, it never adds latency to a lone write.
pub(super) const MAX_BATCH_DELAY: Duration = Duration::from_millis(1);
/// Group commit's byte cap: the buffered proposals flush as soon as this
/// many payload bytes (`StateMachine::command_bytes`) have accumulated,
/// even if `MAX_BATCH_DELAY` has not elapsed yet.
pub(super) const MAX_BATCH_BYTES: usize = 64 * 1024;
/// Resend an unacknowledged `AppendEntries` after this long. With
/// pipelining the timer watches the *oldest* unacked send; expiry
/// abandons the whole optimistic pipeline and falls back to a probe at
/// `match_index + 1`.
pub(super) const APPEND_RESEND: Duration = Duration::from_millis(200);
/// Resend an unacknowledged `InstallSnapshot` after this long. Paced
/// slower than appends: a snapshot is a bulk transfer, and re-streaming
/// the full state on the append cadence would flood a slow or briefly
/// unreachable follower.
const SNAPSHOT_RESEND: Duration = Duration::from_millis(1000);

const _: () = assert!(!APPEND_RESEND.is_zero(), "zero resend timeout");
const _: () = assert!(MAX_BATCH_BYTES > 0, "zero group-commit byte cap");
const _: () = assert!(
    MAX_BATCH_DELAY.as_nanos() < APPEND_RESEND.as_nanos(),
    "group-commit delay must flush well before loss recovery kicks in"
);
const _: () = assert!(
    SNAPSHOT_RESEND.as_nanos() >= APPEND_RESEND.as_nanos(),
    "snapshot resend must not be paced faster than appends"
);

/// What a leader keeps per tracked member: how far replication got and how
/// heartbeats to it are paced.
#[derive(Debug)]
pub(super) struct Peer {
    pub(super) progress: Progress,
    pub(super) pacer: LeaderPacer,
}

impl Peer {
    /// A member the leader starts tracking at `now`, assumed caught up to
    /// `last_index` until its first ack says otherwise.
    pub(super) fn new(last_index: LogIndex, now: SimTime, tuning: TuningConfig) -> Self {
        Self {
            progress: Progress::new(last_index, now),
            pacer: LeaderPacer::new(tuning, now.as_nanos()),
        }
    }
}

/// The leader's [`Peer`]s, indexed by group-local id. Ids are small and
/// dense (`0..n`, learners just above), so a lookup is an index, and
/// iteration runs in ascending id order — the order every per-peer loop
/// emits messages in.
#[derive(Debug, Default)]
pub(super) struct PeerTable(Vec<Option<Peer>>);

impl PeerTable {
    pub(super) fn get(&self, id: NodeId) -> Option<&Peer> {
        self.0.get(id)?.as_ref()
    }

    pub(super) fn get_mut(&mut self, id: NodeId) -> Option<&mut Peer> {
        self.0.get_mut(id)?.as_mut()
    }

    /// One past the highest id the table has a slot for: every tracked
    /// peer's id is below it.
    pub(super) fn id_bound(&self) -> NodeId {
        self.0.len()
    }

    pub(super) fn values(&self) -> impl Iterator<Item = &Peer> {
        self.0.iter().flatten()
    }

    /// Tracked peers ascending by id.
    pub(super) fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut Peer)> {
        let slots = self.0.iter_mut().enumerate();
        slots.filter_map(|(id, peer)| Some((id, peer.as_mut()?)))
    }

    /// Track exactly `members` but `me`: drop the others, and start each
    /// member not yet tracked from `fresh()`.
    pub(super) fn sync(
        &mut self,
        members: &BTreeSet<NodeId>,
        me: NodeId,
        fresh: impl Fn() -> Peer,
    ) {
        for (id, slot) in self.0.iter_mut().enumerate() {
            if !members.contains(&id) {
                *slot = None;
            }
        }
        for &id in members.iter().filter(|&&id| id != me) {
            if id >= self.0.len() {
                self.0.resize_with(id + 1, || None);
            }
            self.0[id].get_or_insert_with(&fresh);
        }
    }
}

/// Everything only a leader has. It exists exactly while the node leads:
/// `become_leader` builds it, stepping down (or restarting) drops it.
#[derive(Debug)]
pub(super) struct LeaderState {
    /// Every tracked member but this node — voters of both configurations
    /// and learners.
    pub(super) peers: PeerTable,
    pub(super) lease_check_at: SimTime,
    /// Group commit: payload bytes proposed since the last flush. Proposals
    /// that could not ship immediately (every pipe busy) accumulate here
    /// until `MAX_BATCH_BYTES` worth arrived or `batch_deadline` fires.
    batch_bytes: usize,
    /// When the pending proposal batch must be flushed to followers at the
    /// latest (`propose instant + MAX_BATCH_DELAY`). Participates in
    /// `next_wake` — a buffered batch with no armed deadline would be the
    /// write-path variant of the silent replication stall.
    pub(super) batch_deadline: Option<SimTime>,
    pub(super) reads: ReadState,
    /// Reused buffer for the commit tally's match indices, so an ack's
    /// commit check allocates nothing.
    match_scratch: Vec<LogIndex>,
}

impl LeaderState {
    /// A leader tracking nobody yet, its first check-quorum due at
    /// `lease_check_at`.
    pub(super) fn new(lease_check_at: SimTime) -> Self {
        Self {
            peers: PeerTable::default(),
            lease_check_at,
            batch_bytes: 0,
            batch_deadline: None,
            reads: ReadState::default(),
            match_scratch: Vec::new(),
        }
    }
}

impl<SM: StateMachine> RaftNode<SM> {
    /// Replication progress the leader tracks for `peer` (None on
    /// non-leaders and for unknown peers). Observers use it to gate learner
    /// promotion on measured catch-up.
    #[must_use]
    pub fn progress_of(&self, peer: NodeId) -> Option<&Progress> {
        Some(&self.lead()?.peers.get(peer)?.progress)
    }

    pub(super) fn progress_mut(&mut self, peer: NodeId) -> Option<&mut Progress> {
        Some(&mut self.lead_mut()?.peers.get_mut(peer)?.progress)
    }

    /// The leader bookkeeping, while this node leads.
    pub(super) fn lead(&self) -> Option<&LeaderState> {
        match &self.state {
            RoleState::Leader(lead) => Some(lead),
            _ => None,
        }
    }

    pub(super) fn lead_mut(&mut self) -> Option<&mut LeaderState> {
        match &mut self.state {
            RoleState::Leader(lead) => Some(lead),
            _ => None,
        }
    }

    /// The ids a per-peer loop walks, ascending — the order it sends in.
    /// The range also holds ids nobody is tracked under (this node's own
    /// among them), which every per-peer step skips for want of progress.
    /// Empty off-leader.
    pub(super) fn peer_ids(&self) -> Range<NodeId> {
        0..self.lead().map_or(0, |lead| lead.peers.id_bound())
    }

    /// Propose a command. On the leader this appends to the log, starts
    /// (or schedules) replication, and returns the assigned `(term, index)`;
    /// otherwise returns a redirect hint.
    ///
    /// Replication is group-committed: a proposal hitting an *idle* pipe
    /// (no append in flight to that follower) ships immediately, so a lone
    /// write pays no batching latency. While the pipe is busy, proposals
    /// coalesce and flush as one append per follower when either
    /// `MAX_BATCH_BYTES` worth accumulated or `MAX_BATCH_DELAY` elapsed —
    /// whichever comes first — bounding the per-entry message overhead
    /// under load instead of sending every client batch on its own.
    pub fn propose(
        &mut self,
        now: SimTime,
        command: SM::Command,
    ) -> (Result<(Term, LogIndex), NotLeader>, NodeEffects<SM>) {
        let mut fx = Effects::new();
        let RoleState::Leader(lead) = &mut self.state else {
            return (Err(self.not_leader()), fx);
        };
        lead.batch_bytes += SM::command_bytes(&command);
        let index = self.log.append_new(self.term, Some(command));
        self.replicate_new_entry(now, &mut fx);
        (Ok((self.term, index)), fx)
    }

    /// Replicate the entry just appended to the leader's log — the tail
    /// `propose` and `propose_conf_change` share. Idle pipes (no append in
    /// flight) ship it at once; busy ones get it from the group-commit
    /// flush, which runs now if the byte cap is reached and otherwise when
    /// the delay cap armed here expires. A configuration entry adds no
    /// bytes, and every proposal that reaches the cap flushes, so the cap
    /// only ever trips on a command.
    pub(super) fn replicate_new_entry(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        for peer in self.peer_ids() {
            if self
                .progress_of(peer)
                .is_some_and(|p| p.inflight.is_empty())
            {
                self.send_append(now, peer, fx);
            }
        }
        let last = self.log.last_index();
        let RoleState::Leader(lead) = &mut self.state else {
            return;
        };
        let unsent = |lead: &LeaderState| lead.peers.values().any(|p| p.progress.has_pending(last));
        if lead.batch_bytes >= MAX_BATCH_BYTES {
            self.flush_batch(now, fx);
        } else if lead.batch_deadline.is_none() && unsent(lead) {
            lead.batch_deadline = Some(now + MAX_BATCH_DELAY);
        }
        self.try_advance_commit(now, fx); // single-node commits instantly
    }

    /// Resend timeout for this follower's oldest in-flight transfer: bulky
    /// snapshot installs get the slower pacing.
    pub(super) fn resend_after(&self, p: &Progress) -> Duration {
        if p.pending_snapshot.is_some() {
            SNAPSHOT_RESEND
        } else {
            APPEND_RESEND
        }
    }

    /// Send one `AppendEntries` (or the `InstallSnapshot` standing in for
    /// it) to `to`, occupying one pipeline-window slot.
    ///
    /// Early-return audit (the silent-stall hazard class): every exit that
    /// sends nothing also reserves nothing, and is reachable only from a
    /// state where another wake-up is already armed —
    /// * unknown peer: no progress entry exists, so no slot was reserved;
    /// * window full: the window holds in-flight sends, so the oldest of
    ///   them has the `APPEND_RESEND`/`SNAPSHOT_RESEND` timer armed via
    ///   `next_wake`, and its ack (or resend) re-drives replication.
    pub(super) fn send_append(&mut self, now: SimTime, to: NodeId, fx: &mut NodeEffects<SM>) {
        let window = self.config.pipeline_window;
        let RoleState::Leader(lead) = &mut self.state else {
            return;
        };
        let Some(p) = lead.peers.get_mut(to).map(|peer| &mut peer.progress) else {
            return;
        };
        if !p.window_free(window) {
            return;
        }
        let prev = p.next_index - 1;
        let Some(prev_term) = self.log.term_at(prev) else {
            // prev was compacted away: log replication can never catch this
            // follower up (the entries it needs no longer exist). Stream the
            // full applied state instead. Pre-PR-4 code returned silently
            // here, which left the window empty with no retry path — a
            // permanent replication stall once conflict backoff pushed
            // next_index below first_index.
            self.send_snapshot(now, to, fx);
            return;
        };
        let entries = self
            .log
            .entries_from(p.next_index, self.config.max_entries_per_append);
        let last = prev + entries.len() as u64;
        p.record_send(now, prev, last);
        let msg = AppendEntries {
            term: self.term,
            leader: self.config.id,
            prev_log_index: prev,
            prev_log_term: prev_term,
            entries,
            leader_commit: self.commit_index,
            sent_at_nanos: now.as_nanos(),
        };
        send(&self.config, fx, to, Payload::AppendEntries(msg));
    }

    /// Keep sending appends to `to` until its pipeline window is full or
    /// nothing unsent remains. Each send advances `next_index`
    /// optimistically, so successive iterations carry consecutive slices of
    /// the log — the pipelining that keeps a long-RTT pipe full.
    fn fill_window(&mut self, now: SimTime, to: NodeId, fx: &mut NodeEffects<SM>) {
        let window = self.config.pipeline_window;
        loop {
            let Some(p) = self.progress_of(to) else {
                return;
            };
            if !(p.window_free(window) && p.has_pending(self.log.last_index())) {
                return;
            }
            let before = p.next_index;
            self.send_append(now, to, fx);
            let Some(p) = self.progress_of(to) else {
                return;
            };
            // A send always either advances next_index (entries went out)
            // or converts to a snapshot transfer (window now closed); bail
            // defensively if neither happened rather than spin.
            if p.next_index == before && p.pending_snapshot.is_none() {
                return;
            }
        }
    }

    /// Group commit: flush the buffered proposal batch once its delay cap
    /// expires (the byte cap flushes from `propose` directly).
    pub(super) fn flush_due_batch(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        let deadline = self.lead().and_then(|lead| lead.batch_deadline);
        if deadline.is_some_and(|deadline| now >= deadline) {
            self.flush_batch(now, fx);
        }
    }

    /// Replication resends for stuck followers (snapshot transfers are
    /// paced on their own, slower timer). The timer fires off the *oldest*
    /// unacked send: losing it means every younger pipeline slot behind it
    /// is unverifiable, so the whole optimistic window is abandoned and
    /// replication falls back to proven ground.
    pub(super) fn resend_stalled(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        for peer in self.peer_ids() {
            let expired = self.progress_of(peer).is_some_and(|p| {
                p.oldest_sent_at()
                    .is_some_and(|oldest| now >= oldest + self.resend_after(p))
            });
            if !expired {
                continue;
            }
            if let Some(p) = self.progress_mut(peer) {
                p.reset_for_resend();
            }
            self.send_append(now, peer, fx);
        }
    }

    /// Group-commit flush: push every buffered proposal onto the wire,
    /// filling each follower's free window slots.
    fn flush_batch(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        if let Some(lead) = self.lead_mut() {
            lead.batch_bytes = 0;
            lead.batch_deadline = None;
        }
        for peer in self.peer_ids() {
            self.fill_window(now, peer, fx);
        }
    }

    /// Answer an append or snapshot from a deposed leader with the current
    /// term, so it steps down.
    pub(super) fn reject_stale_leader(&self, from: NodeId, fx: &mut NodeEffects<SM>) {
        let resp = AppendResp {
            term: self.term,
            success: false,
            match_or_hint: 0,
            echo_sent_at_nanos: None,
        };
        send(&self.config, fx, from, Payload::AppendResp(resp));
    }

    pub(super) fn on_append_entries(
        &mut self,
        now: SimTime,
        from: NodeId,
        ae: AppendEntries<SM::Command>,
        fx: &mut NodeEffects<SM>,
    ) {
        if ae.term < self.term {
            self.reject_stale_leader(from, fx);
            return;
        }
        if !self.accept_leader_contact(now, from, fx) {
            return;
        }
        let outcome = self
            .log
            .try_append(ae.prev_log_index, ae.prev_log_term, &ae.entries);
        let resp = match outcome {
            AppendOutcome::Success { last_index } => {
                // Conf entries take effect at append time; truncated conf
                // entries roll back — both before any commit movement.
                self.absorb_conf_entries(&ae.entries, fx);
                let new_commit = ae.leader_commit.min(last_index).min(self.log.last_index());
                if new_commit > self.commit_index {
                    self.commit_index = new_commit;
                    self.apply_committed(fx);
                }
                AppendResp {
                    term: self.term,
                    success: true,
                    match_or_hint: last_index,
                    echo_sent_at_nanos: Some(ae.sent_at_nanos),
                }
            }
            // The echo also rides conflict responses: either way we
            // answered at the leader's term and re-armed our election
            // timer, which is all ReadIndex and the lease need.
            AppendOutcome::Conflict { hint } => AppendResp {
                term: self.term,
                success: false,
                match_or_hint: hint,
                echo_sent_at_nanos: Some(ae.sent_at_nanos),
            },
        };
        send(&self.config, fx, from, Payload::AppendResp(resp));
    }

    pub(super) fn on_append_resp(
        &mut self,
        now: SimTime,
        from: NodeId,
        resp: AppendResp,
        fx: &mut NodeEffects<SM>,
    ) {
        if resp.term != self.term {
            return;
        }
        // Off-leader there is no progress to update and the ack is ignored.
        let Some(p) = self.progress_mut(from) else {
            return;
        };
        p.last_active = now;
        if let Some(sent_at) = resp.echo_sent_at_nanos {
            p.renew_lease(sent_at);
        }
        if resp.success {
            p.on_success(resp.match_or_hint);
            self.try_advance_commit(now, fx);
            // The ack freed window slots; refill them with anything unsent.
            self.fill_window(now, from, fx);
        } else {
            p.on_conflict(resp.match_or_hint);
            // Probe at the hinted position. Sends probing at or below the
            // hint survived the suffix cancellation and stay in flight;
            // `send_append` declines if they already fill the window (their
            // own acks — or the resend timer — then drive recovery).
            self.send_append(now, from, fx);
        }
        self.advance_read_confirmations(fx);
        // Keep confirmation traffic flowing: if this peer still owes an
        // echo for the newest read round and has window capacity, nudge it.
        if self.owes_read_echo(from) {
            self.send_append(now, from, fx);
        }
    }

    pub(super) fn try_advance_commit(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        let Some(lead) = self.lead_mut() else {
            return;
        };
        let mut scratch = std::mem::take(&mut lead.match_scratch);
        // Joint-consensus commit tally (Raft §6): the candidate index must
        // be stored on a majority of *every* active voter set — the
        // membership computes the per-set quorum indices and takes their
        // minimum. Learner match indices never participate, and this
        // node's own log only counts in sets it actually votes in.
        let candidate = {
            let id = self.config.id;
            let own_last = self.log.last_index();
            self.active_frame()
                .membership
                .committed_index(&mut scratch, |n| {
                    if n == id {
                        own_last
                    } else {
                        self.progress_of(n).map_or(0, |p| p.match_index)
                    }
                })
        };
        if let Some(lead) = self.lead_mut() {
            lead.match_scratch = scratch;
        }
        // Raft §5.4.2: only entries of the current term commit by counting.
        if candidate > self.commit_index && self.log.term_at(candidate) == Some(self.term) {
            self.commit_index = candidate;
            self.apply_committed(fx);
        }
        // Raft §6: a leader removed by a configuration change leads until
        // the removing configuration commits, then steps down. (While joint
        // it is still a voter of C_old, so this only fires after Finalize.)
        let active = self.active_frame();
        if active.index <= self.commit_index && !active.membership.is_voter(self.config.id) {
            self.become_follower(now, self.term, None, fx);
            return;
        }
        // The first current-term commit un-parks reads registered before it
        // (commit_index now provably covers the previous leader's commits).
        let RoleState::Leader(lead) = &mut self.state else {
            return;
        };
        if !lead.reads.term_wait.is_empty()
            && self.log.term_at(self.commit_index) == Some(self.term)
        {
            for id in std::mem::take(&mut lead.reads.term_wait) {
                self.admit_read(now, id, fx);
            }
        }
    }

    pub(super) fn apply_committed(&mut self, fx: &mut NodeEffects<SM>) {
        while self.last_applied < self.commit_index {
            let index = self.last_applied + 1;
            let Some(entry) = self.log.entry_at(index) else {
                invariant_violated!(
                    "committed index {index} is not live in the log [{}, {}] — \
                     commit_index must never outrun the stored suffix",
                    self.log.first_index(),
                    self.log.last_index()
                );
            };
            let term = entry.term;
            let response = match &entry.data {
                EntryData::Command(cmd) => Some(self.sm.apply(index, cmd)),
                EntryData::Noop | EntryData::Conf(_) => None,
            };
            fx.applied.push(Applied {
                index,
                term,
                response,
            });
            self.last_applied = index;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        appends_to, elect, leader3_with_window, leader_with_committed, ms, node,
    };
    use super::*;
    use crate::config::RaftConfig;
    use crate::message::Heartbeat;
    use crate::state_machine::NullStateMachine;
    use crate::types::Role;

    #[test]
    fn propose_on_follower_returns_redirect() {
        let mut n = node(1, 3);
        // Learn about a leader via heartbeat.
        let hb = Heartbeat {
            term: 1,
            leader: 0,
            commit: 0,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let _ = n.step(ms(1), 0, Payload::Heartbeat(hb));
        assert_eq!(n.leader_id(), Some(0));
        let (res, _) = n.propose(ms(2), 7);
        assert_eq!(res, Err(NotLeader { hint: Some(0) }));
    }

    #[test]
    fn append_entries_replicates_and_commits() {
        let mut n = node(1, 3);
        let entries = vec![
            crate::log::Entry::normal(1, 1, None),
            crate::log::Entry::normal(1, 2, Some(77)),
        ];
        let fx = n.step(
            ms(1),
            0,
            Payload::AppendEntries(AppendEntries {
                term: 1,
                leader: 0,
                prev_log_index: 0,
                prev_log_term: 0,
                entries,
                leader_commit: 2,
                sent_at_nanos: 0,
            }),
        );
        assert_eq!(n.log().last_index(), 2);
        assert_eq!(n.commit_index(), 2);
        // Applied: the no-op yields no response, entry 2 applies command 77.
        assert_eq!(fx.applied.len(), 2);
        assert!(fx.applied[0].response.is_none());
        assert_eq!(fx.applied[1].response, Some(2));
        assert_eq!(n.state_machine().applied, vec![(2, 77)]);
        match &fx.messages[0].payload {
            Payload::AppendResp(r) => {
                assert!(r.success);
                assert_eq!(r.match_or_hint, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn append_conflict_reports_hint() {
        let mut n = node(1, 3);
        let fx = n.step(
            ms(1),
            0,
            Payload::AppendEntries(AppendEntries {
                term: 1,
                leader: 0,
                prev_log_index: 7,
                prev_log_term: 1,
                entries: vec![],
                leader_commit: 0,
                sent_at_nanos: 0,
            }),
        );
        match &fx.messages[0].payload {
            Payload::AppendResp(r) => {
                assert!(!r.success);
                assert_eq!(r.match_or_hint, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn leader_replication_round_trip() {
        let mut leader = node(0, 3);
        let _ = elect(&mut leader, SimTime::ZERO);
        let t = leader.election_deadline(); // any time after election
        let (res, fx) = leader.propose(t, 99);
        let (term, index) = res.unwrap();
        assert_eq!(index, 2);
        // Followers 1 and 2 get appends (they were idle: no-op batch already
        // in flight, so the proposal rides the next batch for busy peers).
        let _ = fx;
        // Simulate follower 1 acking everything through index 2.
        let fx = leader.step(
            t,
            1,
            Payload::AppendResp(AppendResp {
                term,
                success: true,
                match_or_hint: 2,
                echo_sent_at_nanos: None,
            }),
        );
        // Majority (leader + follower 1) -> commit both entries.
        assert_eq!(leader.commit_index(), 2);
        assert_eq!(fx.applied.len(), 2);
        assert_eq!(fx.applied[1].response, Some(2));
    }

    #[test]
    fn commit_requires_current_term_entry() {
        let mut leader = node(0, 5);
        let _ = elect(&mut leader, SimTime::ZERO);
        let t = ms(3000);
        // One follower acks the no-op; that's only 2 of 5.
        let _ = leader.step(
            t,
            1,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                echo_sent_at_nanos: None,
            }),
        );
        assert_eq!(leader.commit_index(), 0);
        // Two more make it a majority (leader, 1, 2, 3).
        let _ = leader.step(
            t,
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: 1,
                echo_sent_at_nanos: None,
            }),
        );
        assert_eq!(leader.commit_index(), 1);
    }

    // ------------------------------------------------------------------
    // Pipelined replication + group commit
    // ------------------------------------------------------------------

    #[test]
    fn pipelined_flush_sends_behind_an_unacked_append() {
        let (mut n, t) = leader3_with_window(4);
        // Idle pipe: a lone proposal ships immediately (no batching tax).
        let (_, fx) = n.propose(t, 10);
        assert_eq!(appends_to(&fx, 1).len(), 1);
        // Pipe busy: subsequent proposals buffer for group commit.
        let (_, fx) = n.propose(t, 11);
        assert!(appends_to(&fx, 1).is_empty(), "buffered while busy");
        let (_, fx) = n.propose(t, 12);
        assert!(appends_to(&fx, 1).is_empty());
        // Silent-stall audit: the flush deadline is armed in next_wake.
        let deadline = t + MAX_BATCH_DELAY;
        assert!(n.next_wake().unwrap() <= deadline);
        // The deadline flush pipelines a second append behind the unacked
        // first, coalescing both buffered proposals into one message.
        let fx = n.tick(deadline);
        let sent = appends_to(&fx, 1);
        assert_eq!(sent.len(), 1, "one group-committed append");
        assert_eq!(sent[0].entries.len(), 2, "both proposals coalesced");
        assert_eq!(sent[0].prev_log_index, n.log().last_index() - 2);
    }

    #[test]
    fn byte_cap_flushes_before_the_delay_expires() {
        let config = RaftConfig::new(0, 3, TuningConfig::raft_default());
        // The proposal that crosses the cap is the last one.
        let proposals = MAX_BATCH_BYTES.div_ceil(NullStateMachine::command_bytes(&0));
        assert!(proposals > 1 && proposals <= config.max_entries_per_append);
        let mut n = RaftNode::new(config, NullStateMachine::default(), SimTime::ZERO);
        let _ = elect(&mut n, SimTime::ZERO);
        let t = ms(3000);
        // Pipes are busy with the unacked no-op: everything buffers.
        for k in 1..proposals {
            let (_, fx) = n.propose(t, k as u64);
            assert!(appends_to(&fx, 1).is_empty(), "proposal {k} buffers");
        }
        let (_, fx) = n.propose(t, proposals as u64);
        let sent = appends_to(&fx, 1);
        assert_eq!(sent.len(), 1, "byte cap reached: flushed without a tick");
        assert_eq!(sent[0].entries.len(), proposals);
    }

    #[test]
    fn out_of_order_ack_retires_the_prefix_and_commits() {
        let (mut n, t) = leader3_with_window(4);
        let _ = n.propose(t, 10);
        let _ = n.propose(t, 11);
        let _ = n.tick(t + MAX_BATCH_DELAY); // 2 appends in flight
        let last = n.log().last_index();
        // Only the *younger* append's ack arrives (the older response is
        // reordered behind it): log matching proves the whole prefix, so
        // match advances to the full log and the entries commit.
        let t1 = t + Duration::from_millis(50);
        let fx = n.step(
            t1,
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: last,
                echo_sent_at_nanos: None,
            }),
        );
        assert_eq!(n.commit_index(), last);
        assert!(!fx.applied.is_empty());
        // The straggling older ack is a pure no-op: no regress, no resend.
        let fx = n.step(
            t1 + Duration::from_millis(1),
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: last - 1,
                echo_sent_at_nanos: None,
            }),
        );
        assert_eq!(n.commit_index(), last);
        assert!(appends_to(&fx, 1).is_empty(), "nothing left to send");
    }

    #[test]
    fn resend_fires_on_the_oldest_unacked_send_and_reprobes_once() {
        let (mut n, t) = leader3_with_window(4);
        let _ = n.propose(t, 10);
        let _ = n.propose(t, 11);
        let _ = n.tick(t + MAX_BATCH_DELAY);
        // Nothing acked: recovery must be anchored at the *oldest* send.
        let resend_at = t + APPEND_RESEND;
        assert!(n.next_wake().unwrap() <= resend_at);
        let fx = n.tick(resend_at);
        let sent = appends_to(&fx, 1);
        assert_eq!(sent.len(), 1, "one probe, not one resend per window slot");
        // The probe abandons the optimistic pipeline: back to proven ground
        // (the acked no-op at index 1), re-carrying everything unproven.
        assert_eq!(sent[0].prev_log_index, 1);
        assert_eq!(sent[0].entries.len(), 2);
    }

    #[test]
    fn full_window_defers_to_ack_driven_refill_without_stalling() {
        let (mut n, t) = leader3_with_window(1);
        let _ = n.propose(t, 10); // occupies the single slot
        let (_, fx) = n.propose(t, 11);
        assert!(appends_to(&fx, 1).is_empty());
        // The deadline flush finds the window full and sends nothing...
        let fx = n.tick(t + MAX_BATCH_DELAY);
        assert!(appends_to(&fx, 1).is_empty(), "window full");
        // ...but a wake-up stays armed (the resend timer) — no silent stall.
        assert!(n.next_wake().unwrap() <= t + APPEND_RESEND);
        // The ack frees the slot and pulls the buffered entry immediately.
        let first_last = n.log().last_index() - 1;
        let fx = n.step(
            t + Duration::from_millis(20),
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: first_last,
                echo_sent_at_nanos: None,
            }),
        );
        let sent = appends_to(&fx, 1);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].entries.len(), 1);
    }

    #[test]
    fn read_nudge_defers_until_a_window_slot_frees() {
        let (mut n, t) = leader3_with_window(1);
        let _ = n.propose(t, 10); // both followers' single slots now busy
                                  // Cold lease (no heartbeat or append ack has echoed a send instant
                                  // yet): the read needs a ReadIndex confirmation round, whose nudge
                                  // finds every window full.
        let (res, fx) = n.request_read(t, 99);
        res.unwrap();
        assert!(fx.reads.is_empty(), "not confirmable yet");
        assert!(appends_to(&fx, 1).is_empty(), "window full: nudge deferred");
        assert!(appends_to(&fx, 2).is_empty());
        // The append ack frees the slot; the tail nudge ships a
        // confirmation append, sent after the read was registered.
        let last = n.log().last_index();
        let t_nudge = t + Duration::from_millis(20);
        let fx = n.step(
            t_nudge,
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: last,
                echo_sent_at_nanos: None,
            }),
        );
        assert!(
            !appends_to(&fx, 1).is_empty(),
            "freed slot carries the confirmation append"
        );
        // The follower's echo confirms the round and grants the read.
        let fx = n.step(
            t + Duration::from_millis(40),
            1,
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: last,
                echo_sent_at_nanos: Some(t_nudge.as_nanos()),
            }),
        );
        assert!(fx.reads.iter().any(|g| g.id == 99));
    }

    #[test]
    fn snapshot_transfer_occupies_the_whole_window() {
        let mut leader = node(0, 3);
        let last = leader_with_committed(&mut leader, 5);
        leader.compact_log(last);
        let t = ms(3100);
        // Conflict below the horizon converts to a snapshot stream.
        let _ = leader.step(
            t,
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: false,
                match_or_hint: 0,
                echo_sent_at_nanos: None,
            }),
        );
        assert_eq!(leader.snapshots_sent(), 1);
        // New proposals must not pipeline appends behind the transfer:
        // they would anchor below the follower's future restored log base
        // and bounce anyway.
        let (_, fx) = leader.propose(t, 99);
        assert!(
            appends_to(&fx, 2).is_empty(),
            "no appends behind a snapshot"
        );
        let fx = leader.tick(t + MAX_BATCH_DELAY);
        assert!(appends_to(&fx, 2).is_empty());
        assert_eq!(leader.snapshots_sent(), 1, "flush must not re-stream");
        // The install ack reopens the window; ordinary appends take over.
        let fx = leader.step(
            t + Duration::from_millis(60),
            2,
            Payload::AppendResp(AppendResp {
                term: leader.term(),
                success: true,
                match_or_hint: last,
                echo_sent_at_nanos: None,
            }),
        );
        let sent = appends_to(&fx, 2);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].prev_log_index, last);
        assert_eq!(sent[0].entries.len(), 1, "the buffered proposal follows");
    }

    /// Raft §5.4.2, Fig. 8: a leader must not commit an entry from an
    /// earlier term by counting replicas, even once a majority stores it,
    /// because a rival that never saw it could still win an election and
    /// overwrite it. It commits only under an entry of its own term.
    #[test]
    fn fig8_old_term_entry_commits_only_under_a_current_term_entry() {
        let mut s1 = node(0, 5);
        // Term 1: a leader commits entry 1 everywhere.
        let _ = s1.step(
            ms(1),
            1,
            Payload::AppendEntries(AppendEntries {
                term: 1,
                leader: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![crate::log::Entry::normal(1, 1, Some(10))],
                leader_commit: 1,
                sent_at_nanos: 0,
            }),
        );
        assert_eq!(s1.commit_index(), 1);
        // (a) S1 leads term 2 and appends entries 2 (no-op) and 3, which
        // reach no follower.
        let t = s1.election_deadline();
        let _ = elect(&mut s1, t);
        assert_eq!(s1.term(), 2);
        let (res, _) = s1.propose(t, 22);
        res.unwrap();
        assert_eq!(s1.log().last_index(), 3);
        // (b) S5 wins term 3 without S1's entries; S1 hears of it.
        let hb = Heartbeat {
            term: 3,
            leader: 4,
            commit: 1,
            meta: dynatune_core::HeartbeatMeta {
                id: 0,
                sent_at_nanos: 0,
                rtt_sample: None,
            },
        };
        let _ = s1.step(t + Duration::from_millis(10), 4, Payload::Heartbeat(hb));
        assert_eq!(s1.role(), Role::Follower);
        // (c) S1 wins term 4, appends its no-op at 4 and gets the term-2
        // entries onto S2 and S3: a majority of five now stores index 3.
        let t = s1.election_deadline();
        let _ = elect(&mut s1, t);
        assert_eq!(s1.term(), 4);
        assert_eq!(s1.log().last_index(), 4);
        let ack = |match_or_hint| {
            Payload::AppendResp(AppendResp {
                term: 4,
                success: true,
                match_or_hint,
                echo_sent_at_nanos: None,
            })
        };
        let t = t + Duration::from_millis(1);
        for peer in [1, 2] {
            let _ = s1.step(t, peer, ack(3));
        }
        // (d) S5 could still be elected and overwrite index 3, so it must
        // not commit.
        assert_eq!(
            s1.commit_index(),
            1,
            "a majority of replicas of a term-2 entry"
        );
        assert_eq!(s1.state_machine().applied, vec![(1, 10)]);
        // (e) Once the term-4 no-op reaches the same majority, it commits
        // and carries entry 3 with it.
        let _ = s1.step(t, 1, ack(4));
        assert_eq!(s1.commit_index(), 1, "two of five hold the term-4 entry");
        let _ = s1.step(t, 2, ack(4));
        assert_eq!(s1.commit_index(), 4);
        assert_eq!(s1.state_machine().applied, vec![(1, 10), (3, 22)]);
    }

    /// The one `AppendResp` in `fx`.
    fn append_resp(fx: &NodeEffects<NullStateMachine>) -> AppendResp {
        let mut resps = fx.messages.iter().filter_map(|m| match &m.payload {
            Payload::AppendResp(r) => Some(r.clone()),
            _ => None,
        });
        let resp = resps.next().expect("an append response");
        assert!(resps.next().is_none(), "one append response");
        resp
    }

    /// An acked append renews the read lease like a heartbeat ack: the
    /// follower echoes the append's send instant on success and on
    /// conflict, and the leader takes that instant, not the ack's arrival,
    /// as the peer's lease basis.
    #[test]
    fn append_echoes_renew_the_lease_from_the_send_instant() {
        let mut leader = node(0, 3);
        let t0 = leader.election_deadline(); // the no-op leaves as it wins
        let fx = elect(&mut leader, SimTime::ZERO);
        let noop = appends_to(&fx, 1)[0].clone();
        assert_eq!(noop.sent_at_nanos, t0.as_nanos());
        assert!(!leader.lease_valid(t0), "no acks yet");
        // Success: the follower stores the no-op and echoes its send.
        let mut follower = node(1, 3);
        let fx = follower.step(
            t0 + Duration::from_millis(20),
            0,
            Payload::AppendEntries(noop),
        );
        let success = append_resp(&fx);
        assert!(success.success);
        assert_eq!(success.echo_sent_at_nanos, Some(t0.as_nanos()));
        let t1 = t0 + Duration::from_millis(40);
        let _ = leader.step(t1, 1, Payload::AppendResp(success));
        assert_eq!(leader.progress_of(1).unwrap().lease_basis, t0);
        assert!(
            leader.lease_valid(t1),
            "one follower's echo is a quorum of 3"
        );
        // Conflict: the next append, sent at `t1`, reaches a follower
        // whose log is empty; it rejects it, echoing the send all the same.
        let (_, fx) = leader.propose(t1, 10);
        let ae = appends_to(&fx, 1)[0].clone();
        assert_eq!(ae.sent_at_nanos, t1.as_nanos());
        let fx = node(1, 3).step(
            t1 + Duration::from_millis(20),
            0,
            Payload::AppendEntries(ae),
        );
        let conflict = append_resp(&fx);
        assert!(!conflict.success);
        assert_eq!(conflict.echo_sent_at_nanos, Some(t1.as_nanos()));
        let _ = leader.step(
            t1 + Duration::from_millis(40),
            1,
            Payload::AppendResp(conflict),
        );
        assert_eq!(leader.progress_of(1).unwrap().lease_basis, t1);
    }

    /// Neither a stale-term reject nor a snapshot ack proves that the
    /// follower re-armed its timer for an append's send instant, so both
    /// echo nothing and leave the lease basis where it was.
    #[test]
    fn stale_rejects_and_snapshot_acks_do_not_renew_the_lease() {
        // A follower at term 5 rejects a term-3 append without an echo.
        let mut follower = node(1, 3);
        let vote = crate::message::RequestVote {
            term: 5,
            pre_vote: false,
            last_log_index: 0,
            last_log_term: 0,
        };
        let _ = follower.step(ms(1), 2, Payload::RequestVote(vote));
        let stale = AppendEntries {
            term: 3,
            leader: 0,
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![],
            leader_commit: 0,
            sent_at_nanos: ms(2).as_nanos(),
        };
        let fx = follower.step(ms(2), 0, Payload::AppendEntries(stale));
        let reject = append_resp(&fx);
        assert_eq!(reject.term, 5);
        assert_eq!(reject.echo_sent_at_nanos, None);
        // A follower behind the compaction horizon is caught up by a
        // snapshot, whose ack echoes nothing.
        let mut leader = node(0, 3);
        let last = leader_with_committed(&mut leader, 5);
        leader.compact_log(last);
        let t = ms(3100);
        let nack = AppendResp {
            term: leader.term(),
            success: false,
            match_or_hint: 0,
            echo_sent_at_nanos: Some(ms(3050).as_nanos()),
        };
        let fx = leader.step(t, 2, Payload::AppendResp(nack));
        assert_eq!(leader.progress_of(2).unwrap().lease_basis, ms(3050));
        let snapshot = fx
            .messages
            .into_iter()
            .find_map(|m| match m.payload {
                Payload::InstallSnapshot(snap) => Some(snap),
                _ => None,
            })
            .expect("snapshot to follower 2");
        let mut follower = node(2, 3);
        let fx = follower.step(
            t + Duration::from_millis(20),
            0,
            Payload::InstallSnapshot(snapshot),
        );
        let ack = append_resp(&fx);
        assert!(ack.success);
        assert_eq!(ack.echo_sent_at_nanos, None);
        let _ = leader.step(t + Duration::from_millis(40), 2, Payload::AppendResp(ack));
        assert_eq!(leader.progress_of(2).unwrap().match_index, last);
        assert_eq!(leader.progress_of(2).unwrap().lease_basis, ms(3050));
    }

    /// Echoes are maxed into the basis: one overtaken by a younger echo
    /// (acks reordered, or a heartbeat ack newer than the append) never
    /// lowers it.
    #[test]
    fn an_older_echo_never_lowers_the_lease_basis() {
        let (mut n, t) = leader3_with_window(4);
        let ack = |sent: SimTime| {
            Payload::AppendResp(AppendResp {
                term: n.term(),
                success: true,
                match_or_hint: n.log().last_index(),
                echo_sent_at_nanos: Some(sent.as_nanos()),
            })
        };
        let (young, old) = (ack(t), ack(ms(2970)));
        let _ = n.step(t + Duration::from_millis(10), 1, young);
        let _ = n.step(t + Duration::from_millis(11), 1, old);
        assert_eq!(n.progress_of(1).unwrap().lease_basis, t);
    }
}
