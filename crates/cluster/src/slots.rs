//! A map for keys this crate hands out itself, in increasing order: client
//! request ids, log indices of proposals, read-grant tokens and
//! forwarded-read ids. Such a key is an offset from the oldest live one,
//! so the map needs no tree and no hash.

use dynatune_core::invariant;
use std::collections::VecDeque;

/// Entries stored at `id - base` in a deque of optional slots. Two
/// invariants hold between calls:
///
/// 1. **Increasing inserts.** An id is inserted above every id inserted
///    since the ring was last empty; the first insert into an empty ring
///    sets `base`.
/// 2. **No leading hole.** `slots[0]` is occupied (or `slots` is empty):
///    a remove pops every hole in front of the oldest live entry.
///
/// So the deque spans the oldest live id to the newest inserted one, a
/// lookup is one subtraction, and draining yields entries in id order —
/// the order a `BTreeMap` over the same ids iterates in.
///
/// A hole costs one `Option<T>`, and so does each slot of slack the deque
/// keeps after doubling: box a large `T`, so that slack costs a pointer.
pub(crate) struct SlotRing<T> {
    /// Id of `slots[0]`; meaningless while `slots` is empty.
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> SlotRing<T> {
    pub(crate) fn new() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// Store `value` under `id`, which must exceed every id inserted since
    /// the ring was last empty.
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let end = self.base + self.slots.len() as u64;
        invariant!(
            id >= end,
            "slot id {id} inserted below the ring's end {end}"
        );
        self.slots.resize_with((id - self.base) as usize, || None);
        self.slots.push_back(Some(value));
    }

    fn offset(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.offset(id)?)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let at = self.offset(id)?;
        self.slots.get_mut(at)?.as_mut()
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let at = self.offset(id)?;
        let value = self.slots.get_mut(at)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }

    /// Take every entry out in id order, leaving the ring empty.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.slots.drain(..).flatten()
    }

    /// Number of live entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One action against the ring and its `BTreeMap` model.
    #[derive(Debug, Clone)]
    enum Op {
        /// Insert `gap` ids above the newest ever inserted (1: the next id).
        Insert {
            gap: u64,
        },
        /// `get`, `get_mut` then `remove` the id `pick` selects: live,
        /// already removed, below the base or above the top.
        Remove {
            pick: u64,
        },
        /// `get` and `get_mut` only (the mutation is checked on drain).
        Touch {
            pick: u64,
        },
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (1u64..=4).prop_map(|gap| Op::Insert { gap }),
            1 => (5u64..40).prop_map(|gap| Op::Insert { gap }),
            5 => (0u64..1000).prop_map(|pick| Op::Remove { pick }),
            2 => (0u64..1000).prop_map(|pick| Op::Touch { pick }),
            1 => Just(Op::Clear),
        ]
    }

    /// `pick` turned into an id near the model's span: most land on ids
    /// that were inserted (live or removed), some just below the oldest
    /// live id or just above the newest.
    fn id_of(pick: u64, lo: u64, hi: u64) -> u64 {
        let span = hi - lo + 5;
        (lo + pick % span).saturating_sub(2)
    }

    fn assert_agrees(ring: &SlotRing<u64>, model: &BTreeMap<u64, u64>) {
        assert_eq!(ring.slots.is_empty(), model.is_empty(), "emptiness");
        assert_eq!(ring.len(), model.len());
        assert!(!matches!(ring.slots.front(), Some(None)), "leading hole");
        if let Some(&first) = model.keys().next() {
            assert_eq!(ring.base, first, "base is the oldest live id");
        }
    }

    proptest! {
        /// The ring agrees with a `BTreeMap` on every `get`, `get_mut` and
        /// `remove` — of live ids, removed ones, and ids below its base or
        /// above its top — across `clear` and re-insertion from below the
        /// old base, and drains in the map's order.
        #[test]
        fn prop_slot_ring_matches_the_btreemap_model(
            start in 0u64..1000,
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let (mut ring, mut model) = (SlotRing::new(), BTreeMap::new());
            // The next id to insert, and where ids restart after a clear.
            let (mut next, mut restart) = (start, start / 2);
            for (step, op) in ops.into_iter().enumerate() {
                let lo = model.keys().next().copied().unwrap_or(next);
                match op {
                    Op::Insert { gap } => {
                        let id = next + gap - 1;
                        let value = id * 31 + step as u64;
                        ring.insert(id, value);
                        model.insert(id, value);
                        next = id + 1;
                    }
                    Op::Remove { pick } => {
                        let id = id_of(pick, lo, next);
                        prop_assert_eq!(ring.get(id), model.get(&id));
                        prop_assert_eq!(ring.get_mut(id), model.get_mut(&id));
                        prop_assert_eq!(ring.remove(id), model.remove(&id));
                        prop_assert_eq!(ring.remove(id), None, "removed twice");
                    }
                    Op::Touch { pick } => {
                        let id = id_of(pick, lo, next);
                        prop_assert_eq!(ring.get(id), model.get(&id));
                        match (ring.get_mut(id), model.get_mut(&id)) {
                            (Some(r), Some(m)) => {
                                *r += 1;
                                *m += 1;
                            }
                            (r, m) => prop_assert_eq!(r, m),
                        }
                    }
                    Op::Clear => {
                        ring.clear();
                        model.clear();
                        // Ids restart below the old base (a new leader's
                        // log indices after the old one's were cleared).
                        next = restart;
                        restart /= 2;
                    }
                }
                assert_agrees(&ring, &model);
            }
            let drained: Vec<u64> = ring.drain().collect();
            prop_assert_eq!(drained, model.into_values().collect::<Vec<_>>());
            prop_assert!(ring.slots.is_empty());
        }
    }
}
