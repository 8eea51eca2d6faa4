//! The per-client reply cache (Raft §6.3 client sessions), laid out so a
//! snapshot shares it with the live state instead of copying it.

use dynatune_raft::NodeId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Where a client request came from: the client's host and its request
/// id. Every logged request carries one, so every replica deduplicates
/// retries the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqOrigin {
    /// The issuing client (world host id).
    pub client: NodeId,
    /// The client's request id, monotonically increasing per client.
    pub req_id: u64,
}

/// The sliding id window of replies a [`Replicated`](crate::Replicated)
/// state machine retains per request origin. Request ids increase
/// monotonically per client, so a sliding window bounds the cache — but it
/// must exceed `offered rate × response timeout × retry budget`, the largest
/// id gap a live retry can trail the newest accepted id by, or a duplicate
/// could commit after its original's reply was evicted and be applied
/// twice. A fig5-style ramp peaking near 15 k req/s with a 1 s response
/// timeout and up to 4 sends per request needs ≈ 60 k ids; 65 536 clears
/// that with headroom.
///
/// What a full window weighs depends on the replies. A KV `Delete` or `Cas`
/// reply is 25 bytes, but a `Put` reply caches `prev`, the value it
/// overwrote, so its `cached_bytes` is 24 + that value's size, and the
/// cache alone keeps those old values alive: at 512-byte values a window
/// of overwriting `Put`s holds ≈ 65 536 × 536 B ≈ 35 MB per origin. No
/// `Get` reply is ever cached, not even one through the log:
/// `Replicated::apply` keeps reads out of the sessions. The same bytes
/// feed the simulated snapshot cost.
pub const DEFAULT_REPLY_WINDOW: u64 = 1 << 16;
// 15 k req/s × 1 s × 4 sends.
const _: () = assert!(
    DEFAULT_REPLY_WINDOW >= 15_000 * 4,
    "reply window below the fig5 peak's rate × timeout × retries"
);

/// Replies per chunk. Cloning a client's window bumps `window / CHUNK`
/// reference counts and the first write after a clone copies one chunk, so
/// the size trades the two against each other.
const CHUNK: usize = 256;

/// A reply that [`Sessions`] can cache: it knows its snapshot-costing size.
pub trait CachedReply {
    /// Rough in-memory size of this reply once cached. Must depend on the
    /// reply alone: [`Sessions::approx_bytes`] charges it when the reply is
    /// recorded and releases the same amount when it is evicted.
    fn cached_bytes(&self) -> usize;
}

/// Per-origin reply cache (Raft §6.3 client sessions): for each client a
/// sliding id window of `req_id → reply`, the dedupe half of
/// [`Replicated`](crate::Replicated). It is replicated state — filled
/// identically on every replica and carried whole inside snapshots.
///
/// Request ids increase monotonically per client, so ids more than
/// `window` below the newest recorded one can no longer be retried and are
/// evicted (see [`DEFAULT_REPLY_WINDOW`] for the sizing rule).
///
/// # Layout and sharing
///
/// A client's replies are `(req_id, reply)` pairs in a deque of
/// reference-counted chunks of at most 256 pairs. Three invariants hold
/// whenever `record` is not running:
///
/// 1. **Ascending.** Ids strictly increase within a chunk and from one
///    chunk to the next, so a lookup is two binary searches.
/// 2. **No empty chunk.** Every chunk holds at least one pair, and the head
///    chunk at least one live pair.
/// 3. **Floor.** `floor = newest + 1 − window` (0 while fewer than `window`
///    ids have passed). A pair is live iff its id is `>= floor`; pairs below
///    it can only sit at the front of the head chunk, and nothing observable
///    — [`get`](Self::get), [`replies`](Self::replies),
///    [`approx_bytes`](Self::approx_bytes), `==` — sees them.
///
/// Eviction advances `floor` and drops the head chunk once all of it is
/// below; it never writes to a chunk. New ids are pushed onto the tail chunk
/// through [`Arc::make_mut`]. So `clone` costs one reference count per chunk,
/// a clone and its origin keep sharing every chunk neither has written to,
/// and the writer copies at most the one chunk it touches — the tail, for
/// in-order ids. Dropping a clone releases references, not replies.
#[derive(Debug, Clone)]
pub struct Sessions<R> {
    by_client: BTreeMap<NodeId, ClientWindow<R>>,
    /// Sliding id window retained per client (identical on every replica,
    /// so it is config rather than replicated state even though it rides
    /// along in snapshot clones).
    window: u64,
    /// Summed [`CachedReply::cached_bytes`] of every live reply.
    bytes: usize,
}

impl<R> Sessions<R> {
    /// Empty cache retaining `window` reply ids per client.
    ///
    /// # Panics
    /// Panics on a zero window, which would evict every reply immediately.
    #[must_use]
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "zero reply window");
        Self {
            by_client: BTreeMap::new(),
            window,
            bytes: 0,
        }
    }

    /// The configured per-client id window.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The cached reply to `origin`'s request, if it was already applied
    /// and is still inside its client's window.
    #[must_use]
    pub fn get(&self, origin: ReqOrigin) -> Option<&R> {
        self.by_client.get(&origin.client)?.get(origin.req_id)
    }

    /// Every cached reply, across clients.
    pub fn replies(&self) -> impl Iterator<Item = &R> {
        self.by_client
            .values()
            .flat_map(|w| w.live().map(|(_, reply)| reply))
    }

    /// Summed [`cached_bytes`](CachedReply::cached_bytes) of every cached
    /// reply — what summing over [`replies`](Self::replies) would compute,
    /// kept as a running total because the cost model asks on every
    /// snapshot sent and received.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of replies cached for `client` (observers and tests).
    #[must_use]
    pub fn live_len(&self, client: NodeId) -> usize {
        self.by_client.get(&client).map_or(0, |w| w.live().count())
    }
}

impl<R: CachedReply + Clone> Sessions<R> {
    /// Cache `reply` as the outcome of `origin`'s request and slide the
    /// client's window: drop replies no live retry can ask for. An id the
    /// window has already slid past is not retained.
    pub fn record(&mut self, origin: ReqOrigin, reply: R) {
        self.by_client
            .entry(origin.client)
            .or_insert_with(ClientWindow::new)
            .record(origin.req_id, reply, self.window, &mut self.bytes);
    }
}

/// Equal when they cache the same replies under the same window; how the
/// replies are cut into chunks (and what lies below a floor) is not state.
impl<R: PartialEq> PartialEq for Sessions<R> {
    fn eq(&self, other: &Self) -> bool {
        self.window == other.window
            && self.by_client.len() == other.by_client.len()
            && self
                .by_client
                .iter()
                .zip(&other.by_client)
                .all(|((a, x), (b, y))| a == b && x.live().eq(y.live()))
    }
}

impl<R: Eq> Eq for Sessions<R> {}

/// One client's window; see [`Sessions`] for the invariants.
#[derive(Debug, Clone)]
struct ClientWindow<R> {
    chunks: VecDeque<Arc<Vec<(u64, R)>>>,
    /// Highest id recorded (meaningless while `chunks` is empty).
    newest: u64,
    /// Ids below this are evicted.
    floor: u64,
}

impl<R> ClientWindow<R> {
    fn new() -> Self {
        Self {
            chunks: VecDeque::new(),
            newest: 0,
            floor: 0,
        }
    }

    /// Index of the only chunk that can hold `id`: the first whose last id
    /// is not below it (`chunks.len()` when `id` is above `newest`).
    fn chunk_of(&self, id: u64) -> usize {
        self.chunks
            .partition_point(|c| c.last().is_some_and(|&(last, _)| last < id))
    }

    fn get(&self, id: u64) -> Option<&R> {
        if id < self.floor {
            return None;
        }
        let chunk = self.chunks.get(self.chunk_of(id))?;
        let at = chunk.binary_search_by_key(&id, |&(k, _)| k).ok()?;
        Some(&chunk[at].1)
    }

    /// The live `(id, reply)` pairs in id order.
    fn live(&self) -> impl Iterator<Item = &(u64, R)> {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .skip_while(|&&(id, _)| id < self.floor)
    }
}

impl<R: CachedReply + Clone> ClientWindow<R> {
    fn record(&mut self, id: u64, reply: R, window: u64, bytes: &mut usize) {
        if id < self.floor {
            return;
        }
        *bytes += reply.cached_bytes();
        if self.chunks.is_empty() || id > self.newest {
            self.push_newest(id, reply);
            self.slide_to(id.saturating_sub(window - 1), bytes);
        } else {
            // `newest`, and with it the floor, stays where it is.
            self.insert_sorted(id, reply, bytes);
        }
    }

    fn push_newest(&mut self, id: u64, reply: R) {
        match self.chunks.back_mut() {
            Some(tail) if tail.len() < CHUNK => {
                let tail = Arc::make_mut(tail);
                // A tail copied out of a snapshot arrives with no spare
                // capacity; doubling from there would overshoot the chunk.
                tail.reserve_exact(CHUNK - tail.len());
                tail.push((id, reply));
            }
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push((id, reply));
                self.chunks.push_back(Arc::new(chunk));
            }
        }
        self.newest = id;
    }

    /// Raise the floor, taking every reply it passes out of `bytes` and
    /// dropping head chunks that end up wholly below it. The tail chunk
    /// holds `newest`, which no floor passes, so a chunk always remains.
    fn slide_to(&mut self, floor: u64, bytes: &mut usize) {
        while let Some(head) = self.chunks.front() {
            let from = head.partition_point(|&(id, _)| id < self.floor);
            let to = head.partition_point(|&(id, _)| id < floor);
            for (_, reply) in &head[from..to] {
                *bytes -= reply.cached_bytes();
            }
            if to < head.len() {
                break;
            }
            self.chunks.pop_front();
        }
        self.floor = floor;
    }

    /// Record an id at or below `newest` (a request that committed after a
    /// later one, or an id recorded twice): replace it in place or insert it
    /// in id order, splitting a chunk the insert overfills.
    fn insert_sorted(&mut self, id: u64, reply: R, bytes: &mut usize) {
        // In range: the tail chunk ends at `newest`, which is not below `id`.
        let c = self.chunk_of(id);
        let floor = self.floor;
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        if c == 0 {
            // The head is being written anyway: shed its evicted front, so
            // a split below cannot leave a wholly evicted chunk behind.
            chunk.drain(..chunk.partition_point(|&(k, _)| k < floor));
        }
        match chunk.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(at) => {
                *bytes -= chunk[at].1.cached_bytes();
                chunk[at].1 = reply;
            }
            Err(at) => {
                chunk.insert(at, (id, reply));
                if chunk.len() > CHUNK {
                    let upper = chunk.split_off(CHUNK / 2);
                    self.chunks.insert(c + 1, Arc::new(upper));
                }
            }
        }
    }
}

#[cfg(test)]
impl<R> Sessions<R> {
    /// For each chunk of `client`'s window, in order: its length, and
    /// whether `other` holds the same allocation at the same position.
    pub(crate) fn chunk_sharing(&self, other: &Self, client: NodeId) -> Vec<(usize, bool)> {
        let (mine, theirs) = (&self.by_client[&client], &other.by_client[&client]);
        mine.chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let shared = theirs.chunks.get(i).is_some_and(|o| Arc::ptr_eq(c, o));
                (c.len(), shared)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The map-of-maps cache `Sessions` was before it shared chunks, kept
    /// as the executable specification the model property holds it to.
    #[derive(Debug, Clone, PartialEq)]
    struct Model<R> {
        by_client: BTreeMap<NodeId, BTreeMap<u64, R>>,
        window: u64,
    }

    impl<R> Model<R> {
        fn new(window: u64) -> Self {
            Self {
                by_client: BTreeMap::new(),
                window,
            }
        }

        fn get(&self, origin: ReqOrigin) -> Option<&R> {
            self.by_client.get(&origin.client)?.get(&origin.req_id)
        }

        fn record(&mut self, origin: ReqOrigin, reply: R) {
            let replies = self.by_client.entry(origin.client).or_default();
            replies.insert(origin.req_id, reply);
            let newest = replies
                .last_key_value()
                .map_or(origin.req_id, |(&id, _)| id);
            while let Some((&oldest, _)) = replies.first_key_value() {
                if oldest + self.window > newest {
                    break;
                }
                replies.pop_first();
            }
        }

        fn replies(&self) -> impl Iterator<Item = &R> {
            self.by_client.values().flat_map(BTreeMap::values)
        }
    }

    /// A size that depends on the reply, so a reply charged or released
    /// with the wrong value shows in the total.
    impl CachedReply for u16 {
        fn cached_bytes(&self) -> usize {
            1 + usize::from(*self)
        }
    }

    fn bytes_of<'a>(replies: impl Iterator<Item = &'a u16>) -> usize {
        replies.map(CachedReply::cached_bytes).sum()
    }

    fn at(client: NodeId, req_id: u64) -> ReqOrigin {
        ReqOrigin { client, req_id }
    }

    fn assert_invariants(s: &Sessions<u16>) {
        for w in s.by_client.values() {
            let ids: Vec<u64> = w
                .chunks
                .iter()
                .flat_map(|c| c.iter().map(|p| p.0))
                .collect();
            assert!(ids.windows(2).all(|p| p[0] < p[1]), "ascending: {ids:?}");
            assert!(w.chunks.iter().all(|c| (1..=CHUNK).contains(&c.len())));
            assert_eq!(ids.last(), Some(&w.newest));
            assert_eq!(w.floor, w.newest.saturating_sub(s.window - 1));
            let head_last = w.chunks.front().and_then(|c| c.last()).map(|p| p.0);
            assert!(head_last >= Some(w.floor), "head chunk is wholly evicted");
        }
        assert_eq!(s.approx_bytes(), bytes_of(s.replies()));
    }

    #[test]
    #[should_panic(expected = "zero reply window")]
    fn zero_reply_window_panics() {
        let _ = Sessions::<u16>::new(0);
    }

    #[test]
    fn window_slides_and_counts_live_replies() {
        let mut s = Sessions::new(4);
        assert_eq!(s.window(), 4);
        assert_eq!(s.live_len(1), 0);
        for id in 0..10 {
            s.record(at(1, id), 7);
        }
        assert_eq!(s.live_len(1), 4);
        assert_eq!(s.get(at(1, 5)), None);
        assert_eq!(s.get(at(1, 6)), Some(&7));
        assert_eq!(s.get(at(2, 6)), None);
        assert_eq!(s.approx_bytes(), 4 * 8);
        assert_invariants(&s);
    }

    #[test]
    fn late_duplicate_below_the_floor_is_not_retained() {
        let mut s = Sessions::new(4);
        for id in 1..=10 {
            s.record(at(1, id), id as u16);
        }
        s.record(at(2, 3), 30);
        let before = s.clone();
        // The window of client 1 is 7..=10: id 3 can no longer be retried.
        s.record(at(1, 3), 999);
        assert_eq!(s.get(at(1, 3)), None);
        assert_eq!(s.approx_bytes(), before.approx_bytes());
        assert_eq!(s, before);
        assert_eq!(s.replies().copied().collect::<Vec<_>>(), [7, 8, 9, 10, 30]);
        assert_invariants(&s);
    }

    #[test]
    fn out_of_order_insert_splits_a_full_chunk() {
        let mut s = Sessions::new(10_000);
        for id in (0..2 * CHUNK as u64).step_by(2) {
            s.record(at(1, id), 1);
        }
        let before = s.clone();
        assert_eq!(before.chunk_sharing(&s, 1), [(CHUNK, true)]);
        s.record(at(1, 101), 5);
        let lens: Vec<usize> = s.chunk_sharing(&before, 1).iter().map(|c| c.0).collect();
        assert_eq!(lens, [CHUNK / 2, CHUNK / 2 + 1]);
        assert_eq!(s.get(at(1, 101)), Some(&5));
        assert_eq!(s.get(at(1, 100)), Some(&1));
        assert_eq!(s.get(at(1, 510)), Some(&1));
        assert_eq!(s.live_len(1), CHUNK + 1);
        assert_eq!(before.get(at(1, 101)), None, "the clone is isolated");
        assert_invariants(&s);
    }

    #[test]
    fn eviction_never_copies_the_shared_head() {
        let mut s = Sessions::new(300);
        for id in 0..400 {
            s.record(at(1, id), 1);
        }
        let snap = s.clone();
        for id in 400..500 {
            s.record(at(1, id), 1);
        }
        // The floor moved from 100 to 200 inside the head chunk, which is
        // still the snapshot's allocation; only the tail was copied.
        assert_eq!(s.chunk_sharing(&snap, 1), [(CHUNK, true), (244, false)]);
        assert_eq!(s.get(at(1, 150)), None);
        assert_eq!(snap.get(at(1, 150)), Some(&1));
        // Past the head's last id the live side lets go of it; the snapshot
        // keeps answering from it.
        for id in 500..560 {
            s.record(at(1, id), 1);
        }
        assert_eq!(s.chunk_sharing(&snap, 1), [(CHUNK, false), (48, false)]);
        assert_eq!(snap.get(at(1, 255)), Some(&1));
        assert_eq!(snap.live_len(1), 300);
        assert_invariants(&s);
        assert_invariants(&snap);
    }

    /// One action on one of the forked copies.
    #[derive(Debug, Clone)]
    enum Step {
        /// Record `burst` ids above the newest in order, `stride` apart
        /// (2 leaves every other id as a hole for `Back` to land in).
        InOrder { burst: u64, stride: u64 },
        /// Record the id `gap` above the newest.
        Skip { gap: u64 },
        /// Record `run` consecutive ids from `back` below the newest: out
        /// of order, duplicates, or already under the floor.
        Back { back: u64, run: u64 },
        /// Clone this copy into one more, mutated independently from here.
        Fork,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            5 => (1u64..400, 1u64..=2).prop_map(|(burst, stride)| Step::InOrder { burst, stride }),
            1 => (1u64..700).prop_map(|gap| Step::Skip { gap }),
            3 => (0u64..700, 1u64..40).prop_map(|(back, run)| Step::Back { back, run }),
            1 => Just(Step::Fork),
        ]
    }

    /// Everything observable about `real` matches `model`; `get` is swept
    /// over `client`, the one whose chunks the step could have touched.
    fn assert_matches(real: &Sessions<u16>, model: &Model<u16>, client: NodeId) {
        assert_invariants(real);
        assert!(real.replies().eq(model.replies()));
        assert_eq!(real.approx_bytes(), bytes_of(model.replies()));
        let Some(replies) = model.by_client.get(&client) else {
            assert_eq!(real.live_len(client), 0);
            return;
        };
        assert_eq!(real.live_len(client), replies.len());
        let lowest = replies.first_key_value().map_or(0, |(&id, _)| id);
        let newest = replies.last_key_value().map_or(0, |(&id, _)| id);
        // Every id from just under the window to just over it: cached
        // ones, holes left by skips, and evicted ones.
        for id in lowest.saturating_sub(3)..=newest + 1 {
            assert_eq!(real.get(at(client, id)), model.get(at(client, id)));
        }
    }

    proptest! {
        /// The chunked cache and the map-of-maps model agree on `get`,
        /// `replies()`, the byte total and `==` after every step of a
        /// random schedule, on every forked copy — so a write through one
        /// copy never shows through another (snapshot isolation).
        #[test]
        fn prop_sessions_match_the_btreemap_model(
            window in 1u64..=600,
            steps in proptest::collection::vec((0usize..3, 1u64..=3, step(), 0u16..1000), 1..120),
        ) {
            let mut copies = vec![(Sessions::new(window), Model::new(window))];
            for (copy, client, step, reply) in steps {
                let (copy, client) = (copy % copies.len(), client as NodeId);
                let newest = copies[copy]
                    .1
                    .by_client
                    .get(&client)
                    .and_then(|r| r.last_key_value())
                    .map(|(&id, _)| id);
                let ids = match step {
                    Step::InOrder { burst, stride } => {
                        let next = newest.map_or(0, |n| n + 1);
                        (0..burst).map(|k| next + k * stride).collect()
                    }
                    Step::Skip { gap } => vec![newest.unwrap_or(0) + gap],
                    Step::Back { back, run } => {
                        let first = newest.unwrap_or(0).saturating_sub(back);
                        (first..first + run).collect()
                    }
                    Step::Fork => {
                        if copies.len() < 3 {
                            let fork = copies[copy].clone();
                            copies.push(fork);
                        }
                        Vec::new()
                    }
                };
                let (real, model) = &mut copies[copy];
                for id in ids {
                    let reply = reply.wrapping_add(id as u16);
                    real.record(at(client, id), reply);
                    model.record(at(client, id), reply);
                }
                for (real, model) in &copies {
                    assert_matches(real, model, client);
                }
                for (i, (a, ma)) in copies.iter().enumerate() {
                    for (b, mb) in &copies[i..] {
                        prop_assert_eq!(a == b, ma == mb);
                    }
                }
            }
        }
    }
}
