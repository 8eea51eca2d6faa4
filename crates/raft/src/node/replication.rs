//! Log replication: client proposals, group commit, the pipelined
//! `AppendEntries` window per follower, acks and conflict back-off, and the
//! commit → apply path.

use super::reads::ReadState;
use super::{send, NodeEffects, NotLeader, RaftNode, RoleState};
use crate::log::AppendOutcome;
use crate::message::{AppendEntries, AppendResp, Payload};
use crate::progress::Progress;
use crate::state_machine::{Applied, Effects, StateMachine};
use crate::types::{LogIndex, NodeId, Role, Term};
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
    /// until `max_batch_bytes` worth arrived or `batch_deadline` fires.
    batch_bytes: usize,
    /// When the pending proposal batch must be flushed to followers at the
    /// latest (`propose instant + MAX_BATCH_DELAY`). Participates in
    /// `next_wake` — a buffered batch with no armed deadline would be the
    /// write-path variant of the silent replication stall.
    pub(super) batch_deadline: Option<SimTime>,
    pub(super) reads: ReadState,
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
    /// `max_batch_bytes` worth accumulated or `MAX_BATCH_DELAY` elapsed —
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
        if lead.batch_bytes >= self.config.max_batch_bytes {
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
            // Piggy-back the newest pending read round: this append is sent
            // at or after every queued read's registration, so its echo
            // confirms them all.
            read_ctx: lead.reads.pending_confirm.back().map(|r| r.seq),
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
            read_ctx: None,
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
                    read_ctx: ae.read_ctx,
                }
            }
            // The echo also rides conflict responses: either way we
            // answered at the leader's term, which is all ReadIndex needs.
            AppendOutcome::Conflict { hint } => AppendResp {
                term: self.term,
                success: false,
                match_or_hint: hint,
                read_ctx: ae.read_ctx,
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
        if let Some(seq) = resp.read_ctx {
            p.acked_read_seq = p.acked_read_seq.max(seq);
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
        if self.role() != Role::Leader {
            return;
        }
        // Joint-consensus commit tally (Raft §6): the candidate index must
        // be stored on a majority of *every* active voter set — the
        // membership computes the per-set quorum indices and takes their
        // minimum. Learner match indices never participate, and this
        // node's own log only counts in sets it actually votes in.
        let candidate = {
            let id = self.config.id;
            let own_last = self.log.last_index();
            self.active_frame().membership.committed_index(|n| {
                if n == id {
                    own_last
                } else {
                    self.progress_of(n).map_or(0, |p| p.match_index)
                }
            })
        };
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
            for (id, wait_apply) in std::mem::take(&mut lead.reads.term_wait) {
                self.admit_read(now, id, wait_apply, fx);
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
            let response = entry.data.as_ref().map(|cmd| self.sm.apply(index, cmd));
            fx.applied.push(Applied {
                index,
                term,
                response,
            });
            self.last_applied = index;
        }
        self.drain_apply_wait(fx);
    }
}
