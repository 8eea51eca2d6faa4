//! The key-value application replicated by Raft (etcd-like semantics):
//! [`KvStore`], a hash-indexed map with revision bookkeeping whose ordered
//! views are sorted on demand, as an [`App`]. Retry deduplication and
//! snapshot/restore are [`Replicated`]'s, not this module's.

use crate::replicated::{App, Replicated, Request};
use crate::sessions::CachedReply;
use bytes::Bytes;
use dynatune_raft::LogIndex;
// lint: allow(D002) — fixed-key hasher, and the one iteration is sorted before it is observed
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Commands accepted by the KV store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCommand {
    /// Store `value` under `key`.
    Put {
        /// Key bytes.
        key: Bytes,
        /// Value bytes.
        value: Bytes,
    },
    /// Linearizable read of `key` (goes through the log, like etcd's
    /// quorum reads).
    Get {
        /// Key bytes.
        key: Bytes,
    },
    /// Remove `key`.
    Delete {
        /// Key bytes.
        key: Bytes,
    },
    /// Read up to `limit` keys in `[start, end)`.
    Range {
        /// Inclusive start key.
        start: Bytes,
        /// Exclusive end key.
        end: Bytes,
        /// Maximum entries returned.
        limit: usize,
    },
    /// Compare-and-swap: set `value` only if the current value equals
    /// `expect` (`None` = key must be absent).
    Cas {
        /// Key bytes.
        key: Bytes,
        /// Expected current value (`None` expects absence).
        expect: Option<Bytes>,
        /// New value on success.
        value: Bytes,
    },
}

/// One stored value with etcd-style revision bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The value bytes.
    pub value: Bytes,
    /// Log index of the write that created the key (etcd `create_revision`).
    pub create_revision: LogIndex,
    /// Log index of the last write (etcd `mod_revision`).
    pub mod_revision: LogIndex,
    /// Number of writes to this key since creation.
    pub version: u64,
}

/// Responses produced by applying commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse {
    /// Put succeeded; carries the previous value if any.
    Put {
        /// Previous value, if the key existed.
        prev: Option<Bytes>,
        /// The write's own revision (its log index — etcd's
        /// `header.revision`). Lets clients order their writes against
        /// read results, which is what the stale-read checkers compare.
        revision: LogIndex,
    },
    /// Get result.
    Get {
        /// The value, if present.
        value: Option<VersionedValue>,
    },
    /// Delete result.
    Delete {
        /// True when a key was actually removed.
        existed: bool,
    },
    /// Range result.
    Range {
        /// Matching key/value pairs in key order.
        entries: Vec<(Bytes, Bytes)>,
        /// Total matches (may exceed `entries.len()` when limited).
        more: bool,
    },
    /// CAS result.
    Cas {
        /// Whether the swap happened.
        success: bool,
    },
}

/// The replicated store: a hash index from key to value plus revision
/// metadata.
///
/// A key is found by one hash probe. The table's layout depends on the
/// order keys arrived and left, so nothing observes it: every ordered
/// view — [`digest`](Self::digest), `Range` and `Debug` — is the map
/// sorted by key on demand, `O(n log n)` per call. No benchmark workload
/// or scenario request pays that: no `OpMix` issues `Range`, and `digest`
/// runs only in end-of-run checks and tests.
///
/// Determinism: state depends only on the applied command sequence, which is
/// the SMR contract Raft provides. `PartialEq` compares full state, not
/// table layout — integration tests use it to assert replica convergence.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    // lint: allow(D002) — fixed-key hasher, and the one iteration is sorted before it is observed
    map: HashMap<Bytes, VersionedValue, BuildHasherDefault<Fnv1a>>,
    /// Running [`approx_bytes`](Self::approx_bytes) of `map`.
    bytes: usize,
}

/// Snapshot-costing size of one map entry beyond its key and value bytes:
/// revisions + version + map node.
const PER_ENTRY_OVERHEAD: usize = 32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from state `h`: the one hash step
/// behind both the index's hasher and [`KvStore::digest`].
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The index's hasher: FNV-1a with its fixed offset basis, so the table is
/// built the same way in every run (no per-process random key). Keys come
/// from the simulated workload, not from an adversary, so collision
/// resistance buys nothing here.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What a new key holds between its `entry` probe and its first write:
/// version 0, which no live key has, marks it as just created.
fn unwritten(index: LogIndex) -> VersionedValue {
    VersionedValue {
        value: Bytes::new(),
        create_revision: index,
        mod_revision: index,
        version: 0,
    }
}

/// Write `value` at `index` into `slot` — a live value or an
/// [`unwritten`] one — keeping the running byte total exact. Returns the
/// previous value, `None` when the key was just created.
fn overwrite(
    bytes: &mut usize,
    key: &Bytes,
    slot: &mut VersionedValue,
    index: LogIndex,
    value: Bytes,
) -> Option<Bytes> {
    let created = slot.version == 0;
    if created {
        *bytes += key.len() + PER_ENTRY_OVERHEAD;
    }
    *bytes = *bytes - slot.value.len() + value.len();
    slot.mod_revision = index;
    slot.version += 1;
    let prev = std::mem::replace(&mut slot.value, value);
    (!created).then_some(prev)
}

impl KvStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no keys are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct (non-linearizable) read, for observers and tests.
    #[must_use]
    pub fn peek(&self, key: &[u8]) -> Option<&VersionedValue> {
        self.map.get(key)
    }

    /// FNV-1a digest of the full state in key order; replicas that applied
    /// the same command sequence produce identical digests, however their
    /// tables grew. `O(n log n)`: for end-of-run checks and tests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (k, v) in self.sorted() {
            h = fnv1a(h, k);
            h = fnv1a(h, &v.value);
            h = fnv1a(h, &v.create_revision.to_le_bytes());
            h = fnv1a(h, &v.mod_revision.to_le_bytes());
            h = fnv1a(h, &v.version.to_le_bytes());
        }
        h
    }

    /// The map in key order: the one place it is iterated, so every order
    /// anyone can observe is key order.
    fn sorted(&self) -> Vec<(&Bytes, &VersionedValue)> {
        // lint: allow(D002) — fixed-key hasher, and the one iteration is sorted before it is observed
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// One `entry` probe whether `key` is new or live.
    fn put(&mut self, index: LogIndex, key: &Bytes, value: Bytes) -> Option<Bytes> {
        let slot = self.map.entry(key.clone()).or_insert(unwritten(index));
        overwrite(&mut self.bytes, key, slot, index, value)
    }
}

/// Prints the map in key order, like every other view of it.
impl fmt::Debug for KvStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvStore")
            .field("map", &self.sorted())
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl App for KvStore {
    type Command = KvCommand;
    type Response = KvResponse;

    fn is_read(cmd: &KvCommand) -> bool {
        matches!(cmd, KvCommand::Get { .. } | KvCommand::Range { .. })
    }

    fn payload_bytes(cmd: &KvCommand) -> usize {
        const FRAMING: usize = 16; // tag + lengths
        let body = match cmd {
            KvCommand::Put { key, value } => key.len() + value.len(),
            KvCommand::Get { key } | KvCommand::Delete { key } => key.len(),
            KvCommand::Range { start, end, .. } => start.len() + end.len(),
            KvCommand::Cas { key, expect, value } => {
                key.len() + expect.as_ref().map_or(0, Bytes::len) + value.len()
            }
        };
        FRAMING + body
    }

    fn execute(&mut self, index: LogIndex, command: &KvCommand) -> KvResponse {
        match command {
            KvCommand::Put { key, value } => KvResponse::Put {
                prev: self.put(index, key, value.clone()),
                revision: index,
            },
            KvCommand::Get { .. } | KvCommand::Range { .. } => {
                self.read(command).expect("read command")
            }
            KvCommand::Delete { key } => {
                let removed = self.map.remove(key);
                if let Some(v) = &removed {
                    self.bytes -= key.len() + v.value.len() + PER_ENTRY_OVERHEAD;
                }
                KvResponse::Delete {
                    existed: removed.is_some(),
                }
            }
            KvCommand::Cas { key, expect, value } => {
                // One probe either way: create-if-absent through `entry`,
                // which leaves a live key as it was; a swap through
                // `get_mut`.
                let slot = match expect {
                    None => Some(self.map.entry(key.clone()).or_insert(unwritten(index)))
                        .filter(|v| v.version == 0),
                    Some(expect) => self.map.get_mut(key).filter(|v| v.value == *expect),
                };
                let success = slot.is_some();
                if let Some(slot) = slot {
                    overwrite(&mut self.bytes, key, slot, index, value.clone());
                }
                KvResponse::Cas { success }
            }
        }
    }

    /// Reads never touch revision bookkeeping.
    fn read(&self, command: &KvCommand) -> Option<KvResponse> {
        match command {
            KvCommand::Get { key } => Some(KvResponse::Get {
                value: self.map.get(key).cloned(),
            }),
            KvCommand::Range { start, end, limit } => {
                let sorted = self.sorted();
                let from = sorted.partition_point(|&(k, _)| k < start);
                // `start >= end` comes from a client: it selects nothing
                // rather than panicking.
                let to = sorted.partition_point(|&(k, _)| k < end).max(from);
                let hits = &sorted[from..to];
                Some(KvResponse::Range {
                    entries: hits
                        .iter()
                        .take(*limit)
                        .map(|&(k, v)| (k.clone(), v.value.clone()))
                        .collect(),
                    more: hits.len() > *limit,
                })
            }
            KvCommand::Put { .. } | KvCommand::Delete { .. } | KvCommand::Cas { .. } => None,
        }
    }

    /// Key bytes, value bytes and a fixed overhead per entry. A running
    /// total kept by every mutation, because the cost model asks on every
    /// snapshot sent and received.
    fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

/// Rough in-memory size of one cached response (for snapshot costing).
impl CachedReply for KvResponse {
    fn cached_bytes(&self) -> usize {
        const PER_REPLY_OVERHEAD: usize = 24;
        let payload = match self {
            KvResponse::Put { prev, .. } => prev.as_ref().map_or(0, Bytes::len),
            KvResponse::Get { value } => value.as_ref().map_or(0, |v| v.value.len() + 24),
            KvResponse::Delete { .. } | KvResponse::Cas { .. } => 1,
            KvResponse::Range { entries, .. } => {
                entries.iter().map(|(k, v)| k.len() + v.len()).sum()
            }
        };
        PER_REPLY_OVERHEAD + payload
    }
}

// `Store` and `KvRequest` (like the broker's `BrokerSm`/`BrokerRequest`)
// are names of the generics, kept because the frozen benchmark under
// `crates/bench/perfbench` spells them.
/// The replicated KV state machine.
pub type Store = Replicated<KvStore>;
/// The replicated form of a [`KvCommand`].
pub type KvRequest = Request<KvCommand>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessions::ReqOrigin;
    use dynatune_raft::StateMachine;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_roundtrip() {
        let mut kv = KvStore::new();
        let r = kv.execute(
            1,
            &KvCommand::Put {
                key: b("a"),
                value: b("1"),
            },
        );
        assert_eq!(
            r,
            KvResponse::Put {
                prev: None,
                revision: 1
            }
        );
        let r = kv.execute(2, &KvCommand::Get { key: b("a") });
        match r {
            KvResponse::Get { value: Some(v) } => {
                assert_eq!(v.value, b("1"));
                assert_eq!(v.create_revision, 1);
                assert_eq!(v.mod_revision, 1);
                assert_eq!(v.version, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn put_overwrites_and_tracks_revisions() {
        let mut kv = KvStore::new();
        kv.execute(
            1,
            &KvCommand::Put {
                key: b("a"),
                value: b("1"),
            },
        );
        let r = kv.execute(
            5,
            &KvCommand::Put {
                key: b("a"),
                value: b("2"),
            },
        );
        assert_eq!(
            r,
            KvResponse::Put {
                prev: Some(b("1")),
                revision: 5
            }
        );
        let v = kv.peek(b"a").unwrap();
        assert_eq!(v.create_revision, 1);
        assert_eq!(v.mod_revision, 5);
        assert_eq!(v.version, 2);
    }

    #[test]
    fn get_missing_is_none() {
        let mut kv = KvStore::new();
        let r = kv.execute(1, &KvCommand::Get { key: b("nope") });
        assert_eq!(r, KvResponse::Get { value: None });
    }

    #[test]
    fn delete_semantics() {
        let mut kv = KvStore::new();
        kv.execute(
            1,
            &KvCommand::Put {
                key: b("a"),
                value: b("1"),
            },
        );
        assert_eq!(
            kv.execute(2, &KvCommand::Delete { key: b("a") }),
            KvResponse::Delete { existed: true }
        );
        assert_eq!(
            kv.execute(3, &KvCommand::Delete { key: b("a") }),
            KvResponse::Delete { existed: false }
        );
        assert!(kv.is_empty());
    }

    #[test]
    fn range_respects_bounds_and_limit() {
        let mut kv = KvStore::new();
        for (i, k) in ["a", "b", "c", "d"].iter().enumerate() {
            kv.execute(
                i as u64 + 1,
                &KvCommand::Put {
                    key: b(k),
                    value: b(&i.to_string()),
                },
            );
        }
        let r = kv.execute(
            9,
            &KvCommand::Range {
                start: b("b"),
                end: b("d"),
                limit: 10,
            },
        );
        match r {
            KvResponse::Range { entries, more } => {
                assert_eq!(entries.len(), 2);
                assert_eq!(entries[0].0, b("b"));
                assert_eq!(entries[1].0, b("c"));
                assert!(!more);
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = kv.execute(
            10,
            &KvCommand::Range {
                start: b("a"),
                end: b("z"),
                limit: 2,
            },
        );
        match r {
            KvResponse::Range { entries, more } => {
                assert_eq!(entries.len(), 2);
                assert!(more);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Inverted and empty bounds select nothing, on the log path and
        // the log-free read path alike.
        for (start, end) in [("d", "b"), ("b", "b")] {
            let range = KvCommand::Range {
                start: b(start),
                end: b(end),
                limit: 10,
            };
            let none = KvResponse::Range {
                entries: Vec::new(),
                more: false,
            };
            assert_eq!(kv.read(&range), Some(none.clone()));
            assert_eq!(kv.execute(11, &range), none);
        }
    }

    #[test]
    fn cas_success_and_failure() {
        let mut kv = KvStore::new();
        // Create-if-absent.
        assert_eq!(
            kv.execute(
                1,
                &KvCommand::Cas {
                    key: b("k"),
                    expect: None,
                    value: b("v1")
                }
            ),
            KvResponse::Cas { success: true }
        );
        // Wrong expectation fails and leaves the value alone.
        assert_eq!(
            kv.execute(
                2,
                &KvCommand::Cas {
                    key: b("k"),
                    expect: Some(b("zzz")),
                    value: b("v2")
                }
            ),
            KvResponse::Cas { success: false }
        );
        assert_eq!(kv.peek(b"k").unwrap().value, b("v1"));
        // Correct expectation succeeds.
        assert_eq!(
            kv.execute(
                3,
                &KvCommand::Cas {
                    key: b("k"),
                    expect: Some(b("v1")),
                    value: b("v2")
                }
            ),
            KvResponse::Cas { success: true }
        );
        assert_eq!(kv.peek(b"k").unwrap().value, b("v2"));
        assert_eq!(kv.peek(b"k").unwrap().version, 2);
        // CAS expecting absence fails on a live key.
        assert_eq!(
            kv.execute(
                4,
                &KvCommand::Cas {
                    key: b("k"),
                    expect: None,
                    value: b("v3")
                }
            ),
            KvResponse::Cas { success: false }
        );
    }

    #[test]
    fn store_deduplicates_client_retries() {
        let mut s = Store::new();
        let put = KvRequest::from_client(
            7,
            1,
            KvCommand::Put {
                key: b("k"),
                value: b("v"),
            },
        );
        let first = s.apply(1, &put);
        assert_eq!(
            first,
            KvResponse::Put {
                prev: None,
                revision: 1
            }
        );
        // The same (client, req_id) committed again (client retried through
        // a new leader): the apply is a no-op replaying the cached reply.
        let second = s.apply(2, &put);
        assert_eq!(second, first, "retry sees the original response");
        let v = s.peek(b"k").unwrap();
        assert_eq!(v.version, 1, "write applied exactly once");
        assert_eq!(v.mod_revision, 1);
        // A *new* req_id from the same client applies normally.
        let put2 = KvRequest::from_client(
            7,
            2,
            KvCommand::Put {
                key: b("k"),
                value: b("w"),
            },
        );
        assert_eq!(
            s.apply(3, &put2),
            KvResponse::Put {
                prev: Some(b("v")),
                revision: 3
            }
        );
        assert_eq!(s.peek(b"k").unwrap().version, 2);
    }

    #[test]
    fn store_dedup_keeps_cas_exactly_once() {
        let mut s = Store::new();
        let cas = KvRequest::from_client(
            3,
            10,
            KvCommand::Cas {
                key: b("c"),
                expect: None,
                value: b("1"),
            },
        );
        assert_eq!(s.apply(1, &cas), KvResponse::Cas { success: true });
        // Re-applied (duplicate commit): must NOT re-run against the new
        // state (which would report failure) — the cached success replays.
        assert_eq!(s.apply(2, &cas), KvResponse::Cas { success: true });
        assert_eq!(s.peek(b"c").unwrap().version, 1);
    }

    #[test]
    fn store_bare_requests_bypass_the_cache() {
        let mut s = Store::new();
        let put = KvRequest::bare(KvCommand::Put {
            key: b("k"),
            value: b("v"),
        });
        s.apply(1, &put);
        s.apply(2, &put);
        assert_eq!(s.peek(b"k").unwrap().version, 2, "no dedup without origin");
    }

    #[test]
    fn store_reply_window_slides() {
        // A small window keeps the test fast while exercising the same
        // eviction.
        const WINDOW: u64 = 64;
        let mut s = Store::from_parts(KvStore::new(), WINDOW);
        assert_eq!(s.sessions().window(), WINDOW);
        for req_id in 0..(WINDOW + 10) {
            let put = KvRequest::from_client(
                1,
                req_id,
                KvCommand::Put {
                    key: b("k"),
                    value: b("v"),
                },
            );
            s.apply(req_id + 1, &put);
        }
        let newest = WINDOW + 9;
        assert!(s
            .sessions()
            .get(ReqOrigin {
                client: 1,
                req_id: 0
            })
            .is_none());
        assert!(s
            .sessions()
            .get(ReqOrigin {
                client: 1,
                req_id: newest
            })
            .is_some());
        assert_eq!(s.sessions().live_len(1) as u64, WINDOW);
    }

    #[test]
    fn store_reads_bypass_the_reply_cache() {
        let mut s = Store::new();
        s.apply(
            1,
            &KvRequest::bare(KvCommand::Put {
                key: b("k"),
                value: b("v1"),
            }),
        );
        let get = KvRequest::from_client(9, 5, KvCommand::Get { key: b("k") });
        let first = s.apply(2, &get);
        assert!(matches!(first, KvResponse::Get { value: Some(_) }));
        assert!(
            s.sessions()
                .get(ReqOrigin {
                    client: 9,
                    req_id: 5
                })
                .is_none(),
            "reads are idempotent and must not bloat replicated state"
        );
        // A retried read re-executes and sees the current state.
        s.apply(
            3,
            &KvRequest::bare(KvCommand::Put {
                key: b("k"),
                value: b("v2"),
            }),
        );
        match s.apply(4, &get) {
            KvResponse::Get { value: Some(v) } => assert_eq!(v.value, b("v2")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn store_approx_bytes_counts_the_sessions_cache() {
        let mut s = Store::new();
        s.apply(
            1,
            &KvRequest::from_client(
                1,
                0,
                KvCommand::Put {
                    key: b("k"),
                    value: b("v"),
                },
            ),
        );
        // The snapshot ships kv + sessions; the estimate must cover both.
        assert!(
            s.approx_bytes() > App::approx_bytes(&*s),
            "sessions cache must be charged by the size-aware cost model"
        );
    }

    #[test]
    fn store_snapshot_round_trip_carries_sessions() {
        let mut s = Store::new();
        let put = KvRequest::from_client(
            5,
            1,
            KvCommand::Put {
                key: b("a"),
                value: b("1"),
            },
        );
        s.apply(1, &put);
        let snap = s.snapshot();
        let mut restored = Store::new();
        restored.restore(&snap);
        assert_eq!(restored, s);
        assert_eq!(restored.digest(), s.digest());
        // The restored replica deduplicates the same retry.
        // The replay returns the ORIGINAL response (revision 1, not 9).
        assert_eq!(
            restored.apply(9, &put),
            KvResponse::Put {
                prev: None,
                revision: 1
            }
        );
        assert_eq!(restored.peek(b"a").unwrap().version, 1);
        assert!(restored.approx_bytes() > 0);
    }

    #[test]
    fn snapshot_shares_every_full_reply_chunk_with_the_live_store() {
        let mut s = Store::new();
        fn put(s: &mut Store, req_id: u64) {
            let cmd = KvCommand::Put {
                key: b("k"),
                value: b("v"),
            };
            s.apply(req_id + 1, &KvRequest::from_client(1, req_id, cmd));
        }
        for req_id in 0..1000 {
            put(&mut s, req_id);
        }
        let snap = s.snapshot();
        let chunks = s.sessions().chunk_sharing(snap.sessions(), 1);
        assert_eq!(chunks.len(), 4, "1000 replies in chunks of 256");
        assert!(chunks.iter().all(|&(_, shared)| shared));
        // Writing on copies the partial tail once; the full chunks stay the
        // snapshot's own allocations however far the live store moves on.
        for req_id in 1000..2000 {
            put(&mut s, req_id);
        }
        let chunks = snap.sessions().chunk_sharing(s.sessions(), 1);
        let full = chunks[0].0;
        assert_eq!(
            chunks,
            [(full, true), (full, true), (full, true), (232, false)]
        );
        assert_eq!(snap.sessions().live_len(1), 1000);
        assert_eq!(s.sessions().live_len(1), 2000);
    }

    #[test]
    fn replicas_converge_under_same_command_sequence() {
        let cmds = [
            KvCommand::Put {
                key: b("x"),
                value: b("1"),
            },
            KvCommand::Cas {
                key: b("x"),
                expect: Some(b("1")),
                value: b("2"),
            },
            KvCommand::Delete { key: b("y") },
            KvCommand::Put {
                key: b("y"),
                value: b("3"),
            },
            KvCommand::Delete { key: b("x") },
        ];
        let mut a = KvStore::new();
        let mut c = KvStore::new();
        for (i, cmd) in cmds.iter().enumerate() {
            a.execute(i as u64 + 1, cmd);
            c.execute(i as u64 + 1, cmd);
        }
        assert_eq!(a.map, c.map);
    }

    /// One final content reached by two histories: keys written in order,
    /// and keys written in a shuffled order among deletes and junk keys
    /// that grow the second table larger. The layouts differ; nothing
    /// anyone can observe may.
    #[test]
    fn reordered_histories_agree_in_every_observable_order() {
        const KEYS: u64 = 200;
        let key = |i: u64| b(&format!("key-{i:03}"));
        let junk = |n: u64| b(&format!("junk-{n}"));
        let put = |key, value| KvCommand::Put { key, value };
        let mut tidy = KvStore::new();
        for i in 0..KEYS {
            tidy.execute(1000 + i, &put(key(i), b(&i.to_string())));
        }
        let mut churned = KvStore::new();
        for n in 0..KEYS {
            // 7919 is coprime to `KEYS`, so `n -> i` visits every key once.
            let i = n * 7919 % KEYS;
            churned.execute(n + 1, &put(junk(n), b("x")));
            churned.execute(n + 1, &put(key(i), b("stale")));
            churned.execute(n + 1, &KvCommand::Delete { key: key(i) });
            churned.execute(1000 + i, &put(key(i), b(&i.to_string())));
        }
        for n in 0..KEYS {
            churned.execute(2000 + n, &KvCommand::Delete { key: junk(n) });
        }
        assert_ne!(tidy.map.capacity(), churned.map.capacity());
        assert_eq!(tidy, churned);
        assert_eq!(tidy.digest(), churned.digest());
        assert_eq!(tidy.approx_bytes(), churned.approx_bytes());
        let bounds = [b(""), key(0), key(57), key(123), key(KEYS - 1), b("z")];
        for start in &bounds {
            for end in &bounds {
                for limit in [0, 1, 60, 250] {
                    let range = KvCommand::Range {
                        start: start.clone(),
                        end: end.clone(),
                        limit,
                    };
                    assert_eq!(tidy.read(&range), churned.read(&range));
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The ordered map `KvStore` was before its hash index, kept as the
        /// reference: the same commands over a `BTreeMap`, in key order by
        /// construction.
        #[derive(Default)]
        struct Model {
            tree: BTreeMap<Bytes, VersionedValue>,
        }

        impl Model {
            fn execute(&mut self, index: LogIndex, cmd: &KvCommand) -> KvResponse {
                match cmd {
                    KvCommand::Put { key, value } => KvResponse::Put {
                        prev: self.put(index, key, value),
                        revision: index,
                    },
                    KvCommand::Get { key } => KvResponse::Get {
                        value: self.tree.get(key).cloned(),
                    },
                    KvCommand::Delete { key } => KvResponse::Delete {
                        existed: self.tree.remove(key).is_some(),
                    },
                    KvCommand::Range { start, end, limit } => {
                        let hits: Vec<_> = if start < end {
                            self.tree
                                .range(start.clone()..end.clone())
                                .map(|(k, v)| (k.clone(), v.value.clone()))
                                .collect()
                        } else {
                            Vec::new()
                        };
                        KvResponse::Range {
                            more: hits.len() > *limit,
                            entries: hits.into_iter().take(*limit).collect(),
                        }
                    }
                    KvCommand::Cas { key, expect, value } => {
                        let success = self.tree.get(key).map(|v| &v.value) == expect.as_ref();
                        if success {
                            self.put(index, key, value);
                        }
                        KvResponse::Cas { success }
                    }
                }
            }

            fn put(&mut self, index: LogIndex, key: &Bytes, value: &Bytes) -> Option<Bytes> {
                match self.tree.get_mut(key) {
                    Some(v) => {
                        v.mod_revision = index;
                        v.version += 1;
                        Some(std::mem::replace(&mut v.value, value.clone()))
                    }
                    None => {
                        let v = VersionedValue {
                            value: value.clone(),
                            create_revision: index,
                            mod_revision: index,
                            version: 1,
                        };
                        self.tree.insert(key.clone(), v);
                        None
                    }
                }
            }

            fn digest(&self) -> u64 {
                let mut h = FNV_OFFSET;
                for (k, v) in &self.tree {
                    h = fnv1a(h, k);
                    h = fnv1a(h, &v.value);
                    h = fnv1a(h, &v.create_revision.to_le_bytes());
                    h = fnv1a(h, &v.mod_revision.to_le_bytes());
                    h = fnv1a(h, &v.version.to_le_bytes());
                }
                h
            }

            fn approx_bytes(&self) -> usize {
                let entry = |(k, v): (&Bytes, &VersionedValue)| {
                    k.len() + v.value.len() + PER_ENTRY_OVERHEAD
                };
                self.tree.iter().map(entry).sum()
            }
        }

        /// Range bounds: below every key, every key, above every key. The
        /// keys (all but the two ends) differ in length and share prefixes,
        /// so key order is not hash order.
        const BOUNDS: [&str; 12] = [
            "", "a", "ab", "b", "ba", "k", "kk", "kkk", "m1", "m10", "m2", "z",
        ];

        /// Every command over the keys of `BOUNDS`; a `Range` draws both
        /// bounds independently, so inverted and empty ranges are common,
        /// and a limit from none up to every key.
        fn model_command() -> impl Strategy<Value = KvCommand> {
            let key = || (1..BOUNDS.len() - 1).prop_map(|i| b(BOUNDS[i]));
            let bound = || (0..BOUNDS.len()).prop_map(|i| b(BOUNDS[i]));
            let value = || (0usize..3).prop_map(|n| b(&"v".repeat([0, 1, 9][n])));
            let expect = prop_oneof![Just(None), value().prop_map(Some)];
            let keys = BOUNDS.len() - 2;
            prop_oneof![
                4 => (key(), value()).prop_map(|(key, value)| KvCommand::Put { key, value }),
                2 => key().prop_map(|key| KvCommand::Delete { key }),
                2 => (key(), expect, value())
                    .prop_map(|(key, expect, value)| KvCommand::Cas { key, expect, value }),
                1 => key().prop_map(|key| KvCommand::Get { key }),
                2 => (bound(), bound(), 0..=keys)
                    .prop_map(|(start, end, limit)| KvCommand::Range { start, end, limit }),
            ]
        }

        /// What `approx_bytes` summed before it became a running total.
        fn recomputed_kv(kv: &KvStore) -> usize {
            kv.sorted()
                .iter()
                .map(|(k, v)| k.len() + v.value.len() + PER_ENTRY_OVERHEAD)
                .sum()
        }

        fn recomputed(s: &Store) -> usize {
            let replies = s.sessions().replies().map(KvResponse::cached_bytes);
            recomputed_kv(s) + replies.sum::<usize>()
        }

        /// Few keys of different lengths and few values of different
        /// lengths, so overwrites change size, deletes miss, and a `Cas`
        /// expectation matches often enough to succeed.
        fn command() -> impl Strategy<Value = KvCommand> {
            let key = || (1usize..5).prop_map(|n| b(&"k".repeat(n)));
            let value = || (0usize..4).prop_map(|n| b(&"v".repeat([0, 1, 7, 40][n])));
            let expect = prop_oneof![Just(None), value().prop_map(Some)];
            prop_oneof![
                4 => (key(), value()).prop_map(|(key, value)| KvCommand::Put { key, value }),
                2 => key().prop_map(|key| KvCommand::Delete { key }),
                3 => (key(), expect, value())
                    .prop_map(|(key, expect, value)| KvCommand::Cas { key, expect, value }),
                1 => key().prop_map(|key| KvCommand::Get { key }),
            ]
        }

        proptest! {
            /// The running totals behind `KvStore::approx_bytes` and
            /// `Store::approx_bytes` equal the O(n) sums they replaced, to
            /// the byte, after every command and across snapshot/restore —
            /// the cost model turns these bytes into simulated CPU.
            #[test]
            fn prop_approx_bytes_equal_the_recomputed_sums(
                cmds in proptest::collection::vec((1u64..3, command()), 1..80),
                window in 1u64..20,
            ) {
                let mut s = Store::from_parts(KvStore::new(), window);
                for (i, (client, cmd)) in cmds.iter().enumerate() {
                    let i = i as u64;
                    s.apply(i + 1, &KvRequest::from_client(*client, i, cmd.clone()));
                    prop_assert_eq!(App::approx_bytes(&*s), recomputed_kv(&s));
                    prop_assert_eq!(s.approx_bytes(), recomputed(&s));
                }
                let mut restored = Store::new();
                restored.restore(&s.snapshot());
                prop_assert_eq!(restored.approx_bytes(), recomputed(&restored));
                prop_assert_eq!(restored.approx_bytes(), s.approx_bytes());
            }

            /// `KvStore` answers every command as the ordered map it
            /// replaced does, and agrees with it on `digest`, `len` and
            /// `approx_bytes` after every step.
            #[test]
            fn prop_kvstore_matches_btreemap_model(
                cmds in proptest::collection::vec(model_command(), 1..120),
            ) {
                let mut kv = KvStore::new();
                let mut model = Model::default();
                for (i, cmd) in cmds.iter().enumerate() {
                    let index = i as u64 + 1;
                    prop_assert_eq!(kv.execute(index, cmd), model.execute(index, cmd));
                    prop_assert_eq!(kv.digest(), model.digest());
                    prop_assert_eq!(kv.len(), model.tree.len());
                    prop_assert_eq!(kv.approx_bytes(), model.approx_bytes());
                }
            }
        }
    }
}
