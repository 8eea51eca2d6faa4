//! Log replication: client proposals, group commit, the pipelined
//! `AppendEntries` window per follower, acks and conflict back-off, and the
//! commit → apply path.

use super::{NodeEffects, NodePayload, NotLeader, RaftNode};
use crate::events::RaftEvent;
use crate::log::AppendOutcome;
use crate::message::{AppendEntries, AppendResp, OutMsg, Payload};
use crate::progress::Progress;
use crate::state_machine::{Applied, Effects, StateMachine};
use crate::types::{LogIndex, NodeId, Role, Term};
use dynatune_core::invariant_violated;
use dynatune_simnet::SimTime;
use std::time::Duration;

impl<SM: StateMachine> RaftNode<SM> {
    /// Replication progress the leader tracks for `peer` (None on
    /// non-leaders and for unknown peers). Observers use it to gate learner
    /// promotion on measured catch-up.
    #[must_use]
    pub fn progress_of(&self, peer: NodeId) -> Option<&Progress> {
        self.progress.get(&peer)
    }

    /// Propose a command. On the leader this appends to the log, starts
    /// (or schedules) replication, and returns the assigned `(term, index)`;
    /// otherwise returns a redirect hint.
    ///
    /// Replication is group-committed: a proposal hitting an *idle* pipe
    /// (no append in flight to that follower) ships immediately, so a lone
    /// write pays no batching latency. While the pipe is busy, proposals
    /// coalesce and flush as one append per follower when either
    /// `max_batch_bytes` worth accumulated or `max_batch_delay` elapsed —
    /// whichever comes first — bounding the per-entry message overhead
    /// under load instead of sending every client batch on its own.
    pub fn propose(
        &mut self,
        now: SimTime,
        command: SM::Command,
    ) -> (Result<(Term, LogIndex), NotLeader>, NodeEffects<SM>) {
        let mut fx = Effects::new();
        if self.role != Role::Leader {
            return (
                Err(NotLeader {
                    hint: self.leader_id,
                }),
                fx,
            );
        }
        let bytes = SM::command_bytes(&command);
        let index = self.log.append_new(self.term, Some(command));
        self.batch_bytes += bytes;
        let peers: Vec<NodeId> = self.progress.keys().copied().collect();
        for peer in peers {
            if self.progress[&peer].inflight.is_empty() {
                self.send_append(now, peer, &mut fx);
            }
        }
        if self.batch_bytes >= self.config.max_batch_bytes {
            self.flush_batch(now, &mut fx);
        } else if self.batch_deadline.is_none() && self.has_unsent_entries() {
            self.batch_deadline = Some(now + self.config.max_batch_delay);
        }
        self.try_advance_commit(now, &mut fx); // single-node commits instantly
        (Ok((self.term, index)), fx)
    }

    /// Whether any follower still has unsent log entries (the condition
    /// under which a buffered batch needs a flush deadline armed).
    pub(super) fn has_unsent_entries(&self) -> bool {
        let last = self.log.last_index();
        self.progress.values().any(|p| p.has_pending(last))
    }

    /// Resend timeout for this follower's oldest in-flight transfer: bulky
    /// snapshot installs get the slower pacing.
    pub(super) fn resend_after(&self, p: &Progress) -> Duration {
        if p.pending_snapshot.is_some() {
            self.config.snapshot_resend
        } else {
            self.config.append_resend
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
    ///   them has the `append_resend`/`snapshot_resend` timer armed via
    ///   `next_wake`, and its ack (or resend) re-drives replication.
    pub(super) fn send_append(&mut self, now: SimTime, to: NodeId, fx: &mut NodeEffects<SM>) {
        let window = self.config.pipeline_window;
        let Some(p) = self.progress.get_mut(&to) else {
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
            read_ctx: self.reads.pending_confirm.back().map(|r| r.seq),
        };
        let payload = Payload::AppendEntries(msg);
        let channel = payload.channel(self.config.udp_heartbeats);
        fx.messages.push(OutMsg {
            to,
            channel,
            payload,
        });
    }

    /// Keep sending appends to `to` until its pipeline window is full or
    /// nothing unsent remains. Each send advances `next_index`
    /// optimistically, so successive iterations carry consecutive slices of
    /// the log — the pipelining that keeps a long-RTT pipe full.
    fn fill_window(&mut self, now: SimTime, to: NodeId, fx: &mut NodeEffects<SM>) {
        let window = self.config.pipeline_window;
        loop {
            let Some(p) = self.progress.get(&to) else {
                return;
            };
            if !(p.window_free(window) && p.has_pending(self.log.last_index())) {
                return;
            }
            let before = p.next_index;
            self.send_append(now, to, fx);
            let Some(p) = self.progress.get(&to) else {
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

    /// Group-commit flush: push every buffered proposal onto the wire,
    /// filling each follower's free window slots.
    pub(super) fn flush_batch(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        self.batch_bytes = 0;
        self.batch_deadline = None;
        let peers: Vec<NodeId> = self.progress.keys().copied().collect();
        for peer in peers {
            self.fill_window(now, peer, fx);
        }
    }

    pub(super) fn on_append_entries(
        &mut self,
        now: SimTime,
        from: NodeId,
        ae: AppendEntries<SM::Command>,
        fx: &mut NodeEffects<SM>,
    ) {
        if ae.term < self.term {
            let payload: NodePayload<SM> = Payload::AppendResp(AppendResp {
                term: self.term,
                success: false,
                match_or_hint: 0,
                read_ctx: None,
            });
            let channel = payload.channel(self.config.udp_heartbeats);
            fx.messages.push(OutMsg {
                to: from,
                channel,
                payload,
            });
            return;
        }
        match self.role {
            Role::PreCandidate => {
                fx.events
                    .push(RaftEvent::PreVoteAborted { term: self.term });
                self.become_follower(now, ae.term, Some(from), fx);
            }
            Role::Candidate => {
                self.become_follower(now, ae.term, Some(from), fx);
            }
            Role::Follower => {
                if self.leader_id != Some(from) {
                    self.become_follower(now, ae.term, Some(from), fx);
                }
            }
            Role::Leader => return, // impossible at same term
        }
        self.reset_election_timer(now, false);
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
        let payload: NodePayload<SM> = Payload::AppendResp(resp);
        let channel = payload.channel(self.config.udp_heartbeats);
        fx.messages.push(OutMsg {
            to: from,
            channel,
            payload,
        });
    }

    pub(super) fn on_append_resp(
        &mut self,
        now: SimTime,
        from: NodeId,
        resp: AppendResp,
        fx: &mut NodeEffects<SM>,
    ) {
        if self.role != Role::Leader || resp.term != self.term {
            return;
        }
        let Some(p) = self.progress.get_mut(&from) else {
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
        if let Some(newest) = self.reads.pending_confirm.back().map(|r| r.seq) {
            let p = &self.progress[&from];
            if p.acked_read_seq < newest && p.window_free(self.config.pipeline_window) {
                self.send_append(now, from, fx);
            }
        }
    }

    pub(super) fn try_advance_commit(&mut self, now: SimTime, fx: &mut NodeEffects<SM>) {
        if self.role != Role::Leader {
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
            let progress = &self.progress;
            self.active_frame().membership.committed_index(|n| {
                if n == id {
                    own_last
                } else {
                    progress.get(&n).map_or(0, |p| p.match_index)
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
            let term = self.term;
            self.become_follower(now, term, None, fx);
            return;
        }
        // The first current-term commit un-parks reads registered before it
        // (commit_index now provably covers the previous leader's commits).
        if !self.reads.term_wait.is_empty()
            && self.log.term_at(self.commit_index) == Some(self.term)
        {
            let parked = std::mem::take(&mut self.reads.term_wait);
            for (id, wait_apply) in parked {
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
            let response = entry.data.clone().map(|cmd| self.sm.apply(index, &cmd));
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
