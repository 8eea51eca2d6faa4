//! The replicated log: append, conflict resolution, matching, compaction.

use crate::membership::ConfChange;
use crate::types::{LogIndex, Term};
use dynatune_core::invariant_violated;

/// What a log entry carries: exactly one of the three things a Raft log
/// stores (§5–§6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryData<C> {
    /// The no-op a new leader appends to commit entries from previous
    /// terms (the etcd convention). Applies nothing.
    Noop,
    /// A state-machine command.
    Command(C),
    /// A configuration change. It takes effect the moment it is appended
    /// (Raft §6), not when it commits, and applies nothing.
    Conf(ConfChange),
}

/// One log entry: where it sits, the term that created it, and what it
/// carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<C> {
    /// Term in which the entry was created.
    pub term: Term,
    /// Position in the log (1-based).
    pub index: LogIndex,
    /// The no-op, command or configuration change.
    pub data: EntryData<C>,
}

impl<C> Entry<C> {
    /// A command entry, or the leader no-op for `None`.
    #[must_use]
    pub fn normal(term: Term, index: LogIndex, data: Option<C>) -> Self {
        Self {
            term,
            index,
            data: data.map_or(EntryData::Noop, EntryData::Command),
        }
    }
}

/// Result of offering entries from an `AppendEntries` RPC to the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// Entries accepted; the log now matches the leader through `last_index`.
    Success {
        /// Highest index now known to match the leader.
        last_index: LogIndex,
    },
    /// The consistency check failed; retry from `hint`.
    Conflict {
        /// Highest index the follower believes may still match. The leader
        /// should probe at `prev = hint`, i.e. set `next = hint + 1`.
        hint: LogIndex,
    },
}

/// In-memory replicated log with prefix compaction.
///
/// Entries before `base_index` have been compacted away; `base_index` itself
/// is the index of the last compacted entry (0 when nothing was compacted)
/// and `base_term` its term, so consistency checks at the boundary work.
#[derive(Debug, Clone)]
pub struct RaftLog<C> {
    base_index: LogIndex,
    base_term: Term,
    entries: Vec<Entry<C>>,
}

impl<C: Clone> Default for RaftLog<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Clone> RaftLog<C> {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self {
            base_index: 0,
            base_term: 0,
            entries: Vec::new(),
        }
    }

    /// Index of the last entry (0 when empty and nothing compacted).
    #[must_use]
    pub fn last_index(&self) -> LogIndex {
        self.base_index + self.entries.len() as LogIndex
    }

    /// Term of the last entry (`base_term` when no live entries).
    #[must_use]
    pub fn last_term(&self) -> Term {
        self.entries.last().map_or(self.base_term, |e| e.term)
    }

    /// Index of the first un-compacted entry.
    #[must_use]
    pub fn first_index(&self) -> LogIndex {
        self.base_index + 1
    }

    /// Number of live (un-compacted) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no live entries exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Term at `index`, if known (compacted boundary included).
    #[must_use]
    pub fn term_at(&self, index: LogIndex) -> Option<Term> {
        if index == self.base_index {
            return Some(self.base_term);
        }
        if index < self.base_index || index > self.last_index() {
            return None;
        }
        Some(self.entries[(index - self.base_index - 1) as usize].term)
    }

    /// Entry at `index`, if live.
    #[must_use]
    pub fn entry_at(&self, index: LogIndex) -> Option<&Entry<C>> {
        if index <= self.base_index || index > self.last_index() {
            return None;
        }
        Some(&self.entries[(index - self.base_index - 1) as usize])
    }

    /// Append an entry created by the local leader.
    ///
    /// # Panics
    /// Panics if the entry's index is not exactly `last_index() + 1`.
    pub fn append(&mut self, entry: Entry<C>) {
        assert_eq!(entry.index, self.last_index() + 1, "non-contiguous append");
        self.entries.push(entry);
    }

    /// Leader helper: append a command (or, for `None`, the leader no-op)
    /// at the tail.
    pub fn append_new(&mut self, term: Term, data: Option<C>) -> LogIndex {
        let index = self.last_index() + 1;
        self.entries.push(Entry::normal(term, index, data));
        index
    }

    /// Leader helper: create and append a configuration-change entry.
    pub fn append_conf(&mut self, term: Term, conf: ConfChange) -> LogIndex {
        let index = self.last_index() + 1;
        self.entries.push(Entry {
            term,
            index,
            data: EntryData::Conf(conf),
        });
        index
    }

    /// Follower side of `AppendEntries`: verify the `(prev_index, prev_term)`
    /// consistency check, truncate any conflicting suffix, and append.
    pub fn try_append(
        &mut self,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[Entry<C>],
    ) -> AppendOutcome {
        // The previous entry must exist and match.
        match self.term_at(prev_index) {
            None => {
                // Either compacted (leader is way behind — cannot happen with
                // a correct leader) or beyond our log: hint the tail.
                return AppendOutcome::Conflict {
                    hint: self.last_index().min(prev_index),
                };
            }
            Some(t) if t != prev_term => {
                // Conflict at prev_index: ask the leader to back up.
                return AppendOutcome::Conflict {
                    hint: prev_index.saturating_sub(1).max(self.base_index),
                };
            }
            Some(_) => {}
        }
        // Walk the offered entries; skip duplicates, truncate on conflict.
        let mut insert_from = 0usize;
        for (i, e) in entries.iter().enumerate() {
            match self.term_at(e.index) {
                Some(t) if t == e.term => {
                    insert_from = i + 1; // already have it
                }
                Some(_) => {
                    // Conflicting suffix: drop everything from e.index on.
                    self.truncate_from(e.index);
                    break;
                }
                None => break,
            }
        }
        for e in &entries[insert_from..] {
            debug_assert_eq!(e.index, self.last_index() + 1, "gap in offered entries");
            self.entries.push(e.clone());
        }
        AppendOutcome::Success {
            last_index: prev_index + entries.len() as LogIndex,
        }
    }

    /// Drop all entries at `index` and beyond.
    pub fn truncate_from(&mut self, index: LogIndex) {
        assert!(index > self.base_index, "cannot truncate compacted prefix");
        let keep = (index - self.base_index - 1) as usize;
        self.entries.truncate(keep);
    }

    /// Entries in `[from, last]`, at most `max`, cloned for transmission.
    #[must_use]
    pub fn entries_from(&self, from: LogIndex, max: usize) -> Vec<Entry<C>> {
        if from <= self.base_index || from > self.last_index() {
            return Vec::new();
        }
        let start = (from - self.base_index - 1) as usize;
        self.entries[start..].iter().take(max).cloned().collect()
    }

    /// Raft's up-to-date check (§5.4.1 of the Raft paper): a candidate's log
    /// is at least as up-to-date if its last term is higher, or equal with
    /// last index at least ours.
    #[must_use]
    pub fn candidate_up_to_date(&self, last_index: LogIndex, last_term: Term) -> bool {
        last_term > self.last_term()
            || (last_term == self.last_term() && last_index >= self.last_index())
    }

    /// Discard entries up to and including `index` (they must be applied).
    /// No-op if `index` is not beyond the current base.
    pub fn compact(&mut self, index: LogIndex) {
        let index = index.min(self.last_index());
        if index <= self.base_index {
            return;
        }
        let Some(term) = self.term_at(index) else {
            invariant_violated!(
                "compact target {index} has no term despite being clamped to \
                 ({}, {}] — the live suffix must be dense",
                self.base_index,
                self.last_index()
            );
        };
        let drop = (index - self.base_index) as usize;
        self.entries.drain(..drop);
        self.base_index = index;
        self.base_term = term;
    }

    /// Replace the whole log with the boundary of an installed snapshot:
    /// every live entry is discarded and the base moves to
    /// `(base_index, base_term)`. Used by followers whose log diverged from
    /// (or never reached) the snapshot point; when the snapshot point is
    /// already present with a matching term, use [`RaftLog::compact`]
    /// instead to retain the tail.
    pub fn reset(&mut self, base_index: LogIndex, base_term: Term) {
        self.entries.clear();
        self.base_index = base_index;
        self.base_term = base_term;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(term: Term, index: LogIndex, v: u32) -> Entry<u32> {
        Entry::normal(term, index, Some(v))
    }

    fn log_from(terms: &[Term]) -> RaftLog<u32> {
        let mut log = RaftLog::new();
        for (i, &t) in terms.iter().enumerate() {
            log.append(entry(t, i as LogIndex + 1, i as u32));
        }
        log
    }

    #[test]
    fn empty_log() {
        let log: RaftLog<u32> = RaftLog::new();
        assert_eq!(log.last_index(), 0);
        assert_eq!(log.last_term(), 0);
        assert_eq!(log.term_at(0), Some(0));
        assert_eq!(log.term_at(1), None);
        assert!(log.is_empty());
    }

    #[test]
    fn append_and_lookup() {
        let log = log_from(&[1, 1, 2]);
        assert_eq!(log.last_index(), 3);
        assert_eq!(log.last_term(), 2);
        assert_eq!(log.term_at(2), Some(1));
        assert_eq!(log.entry_at(3).unwrap().data, EntryData::Command(2));
        assert_eq!(log.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn non_contiguous_append_panics() {
        let mut log = log_from(&[1]);
        log.append(entry(1, 5, 0));
    }

    #[test]
    fn try_append_success_on_match() {
        let mut log = log_from(&[1, 1]);
        let out = log.try_append(2, 1, &[entry(2, 3, 30), entry(2, 4, 40)]);
        assert_eq!(out, AppendOutcome::Success { last_index: 4 });
        assert_eq!(log.last_index(), 4);
        assert_eq!(log.term_at(4), Some(2));
    }

    #[test]
    fn try_append_heartbeatlike_empty() {
        let mut log = log_from(&[1, 1]);
        let out = log.try_append(2, 1, &[]);
        assert_eq!(out, AppendOutcome::Success { last_index: 2 });
        assert_eq!(log.last_index(), 2);
    }

    #[test]
    fn try_append_conflict_on_missing_prev() {
        let mut log = log_from(&[1]);
        let out = log.try_append(5, 1, &[entry(1, 6, 0)]);
        assert_eq!(out, AppendOutcome::Conflict { hint: 1 });
        assert_eq!(log.last_index(), 1, "log unchanged");
    }

    #[test]
    fn try_append_conflict_on_term_mismatch() {
        let mut log = log_from(&[1, 2, 2]);
        let out = log.try_append(3, 3, &[entry(3, 4, 0)]);
        assert_eq!(out, AppendOutcome::Conflict { hint: 2 });
    }

    #[test]
    fn try_append_truncates_conflicting_suffix() {
        let mut log = log_from(&[1, 1, 1, 1]);
        // Leader says entry 3 has term 2: our 3 and 4 are garbage.
        let out = log.try_append(2, 1, &[entry(2, 3, 99)]);
        assert_eq!(out, AppendOutcome::Success { last_index: 3 });
        assert_eq!(log.last_index(), 3);
        assert_eq!(log.term_at(3), Some(2));
        assert_eq!(log.entry_at(3).unwrap().data, EntryData::Command(99));
    }

    #[test]
    fn try_append_is_idempotent_for_duplicates() {
        let mut log = log_from(&[1, 1]);
        let batch = [entry(1, 3, 30)];
        assert_eq!(
            log.try_append(2, 1, &batch),
            AppendOutcome::Success { last_index: 3 }
        );
        // Redelivered (e.g. TCP-level retry after a dropped response).
        assert_eq!(
            log.try_append(2, 1, &batch),
            AppendOutcome::Success { last_index: 3 }
        );
        assert_eq!(log.last_index(), 3);
    }

    #[test]
    fn stale_overlapping_append_does_not_truncate_matching_tail() {
        let mut log = log_from(&[1, 1, 1]);
        // A delayed append that covers an old range we already have.
        let out = log.try_append(1, 1, &[entry(1, 2, 1)]);
        assert_eq!(out, AppendOutcome::Success { last_index: 2 });
        // Entry 3 survives: nothing conflicted.
        assert_eq!(log.last_index(), 3);
    }

    #[test]
    fn up_to_date_check() {
        let log = log_from(&[1, 2, 2]);
        // Higher last term wins regardless of length.
        assert!(log.candidate_up_to_date(1, 3));
        // Same term needs at least our length.
        assert!(log.candidate_up_to_date(3, 2));
        assert!(!log.candidate_up_to_date(2, 2));
        // Lower term always loses.
        assert!(!log.candidate_up_to_date(100, 1));
    }

    #[test]
    fn entries_from_respects_max() {
        let log = log_from(&[1, 1, 1, 1, 1]);
        let out = log.entries_from(2, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].index, 2);
        assert_eq!(out[1].index, 3);
        assert!(log.entries_from(6, 10).is_empty());
        assert!(log.entries_from(0, 10).is_empty());
    }

    #[test]
    fn compaction_preserves_boundary_semantics() {
        let mut log = log_from(&[1, 1, 2, 2, 3]);
        log.compact(3);
        assert_eq!(log.first_index(), 4);
        assert_eq!(log.last_index(), 5);
        assert_eq!(log.term_at(3), Some(2), "boundary term retained");
        assert_eq!(log.term_at(2), None, "compacted entries gone");
        assert_eq!(log.len(), 2);
        // Appends still line up.
        let out = log.try_append(5, 3, &[entry(3, 6, 60)]);
        assert_eq!(out, AppendOutcome::Success { last_index: 6 });
        // Compacting again further is fine; beyond last_index is clamped.
        log.compact(100);
        assert_eq!(log.first_index(), 7);
        assert_eq!(log.last_term(), 3);
    }

    #[test]
    fn compact_noop_for_old_index() {
        let mut log = log_from(&[1, 1, 1]);
        log.compact(2);
        log.compact(1); // no-op
        assert_eq!(log.first_index(), 3);
    }

    #[test]
    fn reset_replaces_everything_with_the_snapshot_boundary() {
        let mut log = log_from(&[1, 1, 2]);
        log.reset(10, 4);
        assert!(log.is_empty());
        assert_eq!(log.first_index(), 11);
        assert_eq!(log.last_index(), 10);
        assert_eq!(log.last_term(), 4);
        assert_eq!(log.term_at(10), Some(4), "boundary term answers checks");
        assert_eq!(log.term_at(9), None);
        // Appends continue from the new base.
        let out = log.try_append(10, 4, &[entry(4, 11, 0)]);
        assert_eq!(out, AppendOutcome::Success { last_index: 11 });
        // Up-to-date checks use the boundary when no live entries exist.
        let fresh = log_from(&[]);
        let mut snap_only: RaftLog<u32> = RaftLog::new();
        snap_only.reset(5, 3);
        assert!(snap_only.candidate_up_to_date(5, 3));
        assert!(!snap_only.candidate_up_to_date(4, 3));
        assert!(fresh.candidate_up_to_date(0, 0));
    }

    proptest! {
        /// Boundary semantics around `base_index` survive any compaction
        /// point: `term_at`/`entry_at`/`entries_from` agree with an
        /// uncompacted twin on the retained range, answer the boundary from
        /// `base_term`, and return nothing below it.
        #[test]
        fn prop_compaction_boundary_semantics(
            terms in proptest::collection::vec(1u64..5, 1..40),
            cut in 0u64..50,
            probe in 0u64..50,
        ) {
            let mut terms = terms;
            terms.sort_unstable(); // terms must be non-decreasing in a log
            let full = log_from(&terms);
            let mut log = full.clone();
            log.compact(cut); // clamped to last_index internally
            let base = cut.min(full.last_index());
            prop_assert_eq!(log.first_index(), base + 1);
            prop_assert_eq!(log.last_index(), full.last_index());
            prop_assert_eq!(log.last_term(), full.last_term());
            prop_assert_eq!(log.len() as u64, full.last_index() - base);
            // term_at: boundary included, compacted prefix gone, retained
            // range identical to the uncompacted twin.
            if probe == base {
                prop_assert_eq!(log.term_at(probe), full.term_at(base));
            } else if probe < base || probe > full.last_index() {
                if probe < base {
                    prop_assert_eq!(log.term_at(probe), None);
                } else {
                    prop_assert_eq!(log.term_at(probe), full.term_at(probe));
                }
            } else {
                prop_assert_eq!(log.term_at(probe), full.term_at(probe));
                prop_assert_eq!(
                    log.entry_at(probe).map(|e| &e.data),
                    full.entry_at(probe).map(|e| &e.data)
                );
            }
            // entries_from: empty at or below the base, suffix-equal above.
            let got = log.entries_from(probe, 100);
            if probe <= base || probe > full.last_index() {
                prop_assert!(got.is_empty());
            } else {
                prop_assert_eq!(&got, &full.entries_from(probe, 100));
                prop_assert_eq!(got[0].index, probe);
            }
        }
    }

    proptest! {
        /// Log Matching property: after any sequence of leader-style batches
        /// applied to two logs, if two entries at the same index have the
        /// same term they carry the same data, and all preceding entries
        /// match as well.
        #[test]
        fn prop_log_matching(splits in proptest::collection::vec(1usize..5, 1..20)) {
            // Build a "leader history": terms increase; each batch appends
            // `n` entries at term = batch number.
            let mut leader: RaftLog<u32> = RaftLog::new();
            let mut follower: RaftLog<u32> = RaftLog::new();
            for (batch_no, &n) in splits.iter().enumerate() {
                let term = batch_no as Term + 1;
                let prev = leader.last_index();
                let prev_term = leader.last_term();
                let mut batch = Vec::new();
                for k in 0..n {
                    let index = prev + k as LogIndex + 1;
                    batch.push(Entry::normal(term, index, Some(index as u32 * 10)));
                }
                for e in &batch {
                    leader.append(e.clone());
                }
                // Follower receives the batch (possibly redundantly).
                let ok = matches!(follower.try_append(prev, prev_term, &batch), AppendOutcome::Success { .. });
                prop_assert!(ok);
                let ok2 = matches!(follower.try_append(prev, prev_term, &batch), AppendOutcome::Success { .. });
                prop_assert!(ok2);
            }
            prop_assert_eq!(leader.last_index(), follower.last_index());
            for i in 1..=leader.last_index() {
                prop_assert_eq!(leader.term_at(i), follower.term_at(i));
                prop_assert_eq!(&leader.entry_at(i).unwrap().data, &follower.entry_at(i).unwrap().data);
            }
        }
    }
}
