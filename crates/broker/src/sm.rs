//! The broker application.
//!
//! Same shape as the KV app: a data structure (topics instead of a key
//! map) plus durable consumer-group offsets, as an
//! [`App`]. [`Replicated`] adds the per-origin reply cache that makes
//! producer retries idempotent. Produce and offset commits replicate
//! through the Raft log; fetches are reads and ride the log-free read path
//! (they never enter the reply cache, in either direction).

use crate::partition::FetchResult;
use crate::record::Record;
use crate::topic::Topic;
use dynatune_core::invariant_violated;
use dynatune_kv::{App, CachedReply, Replicated, Request};
use dynatune_raft::LogIndex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A client-facing broker command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerCommand {
    /// Append a batch of records to one partition.
    Produce {
        /// Topic name.
        topic: String,
        /// Partition within the topic.
        partition: u32,
        /// Records, appended in order at consecutive offsets. Shared, so
        /// the client's copy, the wire message and every replica's log
        /// entry hold one batch and cloning a produce copies no record.
        records: Arc<[Record]>,
    },
    /// Durably commit a consumer group's position on one partition (the
    /// offset of the next record the group will read).
    CommitOffset {
        /// Consumer group name.
        group: String,
        /// Topic name.
        topic: String,
        /// Partition within the topic.
        partition: u32,
        /// The committed position.
        offset: u64,
    },
    /// Read up to `max_records` records from `offset` (a linearizable
    /// read; served log-free).
    Fetch {
        /// Topic name.
        topic: String,
        /// Partition within the topic.
        partition: u32,
        /// First offset wanted.
        offset: u64,
        /// Fetch size cap.
        max_records: usize,
    },
}

/// A broker response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerResponse {
    /// Produce accepted: the batch's records sit at `base_offset ..
    /// base_offset + count`.
    Produced {
        /// Offset of the batch's first record.
        base_offset: u64,
        /// Number of records appended.
        count: u64,
    },
    /// Offset commit applied.
    OffsetCommitted {
        /// The committed position, echoed.
        offset: u64,
    },
    /// Fetched records plus the partition's high watermark (for lag).
    Records(FetchResult),
}

/// Rough in-memory size of one cached response (snapshot costing). Cached
/// responses are produce/commit acks — a few words each.
const CACHED_REPLY_BYTES: usize = 40;

impl CachedReply for BrokerResponse {
    fn cached_bytes(&self) -> usize {
        CACHED_REPLY_BYTES
    }
}

/// Rough in-memory size of one committed group offset (snapshot costing).
const PER_OFFSET_BYTES: usize = 48;

/// The broker's replicated data: topics of partition logs and
/// durable consumer-group offsets. Everything here is replicated state —
/// filled identically on every replica and carried whole inside snapshots,
/// so a follower restored via `InstallSnapshot` serves fetches exactly like
/// one that replayed the log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BrokerState {
    topics: BTreeMap<String, Topic>,
    /// `(group, topic, partition) → committed offset`.
    group_offsets: BTreeMap<(String, String, u32), u64>,
}

impl BrokerState {
    /// The topic, if it has ever been produced to.
    #[must_use]
    pub fn topic(&self, topic: &str) -> Option<&Topic> {
        self.topics.get(topic)
    }

    /// Iterate topics in name order.
    pub fn topics(&self) -> impl Iterator<Item = (&str, &Topic)> {
        self.topics.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// A group's committed position on one partition.
    #[must_use]
    pub fn committed_offset(&self, group: &str, topic: &str, partition: u32) -> Option<u64> {
        self.group_offsets
            .get(&(group.to_string(), topic.to_string(), partition))
            .copied()
    }
}

impl App for BrokerState {
    type Command = BrokerCommand;
    type Response = BrokerResponse;

    fn is_read(cmd: &BrokerCommand) -> bool {
        matches!(cmd, BrokerCommand::Fetch { .. })
    }

    fn payload_bytes(cmd: &BrokerCommand) -> usize {
        const FRAMING: usize = 16;
        let body = match cmd {
            BrokerCommand::Produce { topic, records, .. } => {
                topic.len() + records.iter().map(Record::bytes).sum::<usize>()
            }
            BrokerCommand::CommitOffset { group, topic, .. } => group.len() + topic.len() + 8,
            BrokerCommand::Fetch { topic, .. } => topic.len() + 16,
        };
        FRAMING + body
    }

    fn execute(&mut self, _index: LogIndex, cmd: &BrokerCommand) -> BrokerResponse {
        match cmd {
            BrokerCommand::Produce {
                topic,
                partition,
                records,
            } => {
                let log = self
                    .topics
                    .entry(topic.clone())
                    .or_default()
                    .partition_mut(*partition);
                let base_offset = log.append_batch(records);
                BrokerResponse::Produced {
                    base_offset,
                    count: records.len() as u64,
                }
            }
            BrokerCommand::CommitOffset {
                group,
                topic,
                partition,
                offset,
            } => {
                // Last-write-wins, like Kafka's __consumer_offsets: the
                // group coordinator (our closed-loop consumer) only ever
                // commits forward.
                self.group_offsets
                    .insert((group.clone(), topic.clone(), *partition), *offset);
                BrokerResponse::OffsetCommitted { offset: *offset }
            }
            read => match self.read(read) {
                Some(resp) => resp,
                None => invariant_violated!(
                    "execute fell through to the read arm on a write command \
                     {read:?} — the match above must cover every write variant"
                ),
            },
        }
    }

    fn read(&self, command: &BrokerCommand) -> Option<BrokerResponse> {
        match command {
            BrokerCommand::Fetch {
                topic,
                partition,
                offset,
                max_records,
            } => {
                let result = self
                    .topics
                    .get(topic)
                    .and_then(|t| t.partition(*partition))
                    .map_or_else(FetchResult::default, |p| p.fetch(*offset, *max_records));
                Some(BrokerResponse::Records(result))
            }
            BrokerCommand::Produce { .. } | BrokerCommand::CommitOffset { .. } => None,
        }
    }

    /// Records + offsets.
    fn approx_bytes(&self) -> usize {
        let records: usize = self.topics.values().map(Topic::bytes).sum();
        records + self.group_offsets.len() * PER_OFFSET_BYTES
    }
}

/// The replicated broker state machine (an alias the frozen benchmark
/// spells; see the note at `dynatune_kv::Store`).
pub type BrokerSm = Replicated<BrokerState>;
/// The replicated form of a [`BrokerCommand`].
pub type BrokerRequest = Request<BrokerCommand>;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dynatune_kv::ReqOrigin;
    use dynatune_raft::StateMachine;

    fn rec(v: &str) -> Record {
        Record::new(Bytes::new(), Bytes::copy_from_slice(v.as_bytes()))
    }

    fn produce(topic: &str, partition: u32, vals: &[&str]) -> BrokerCommand {
        BrokerCommand::Produce {
            topic: topic.into(),
            partition,
            records: vals.iter().map(|v| rec(v)).collect(),
        }
    }

    #[test]
    fn produce_assigns_dense_offsets_and_fetch_reads_them_back() {
        let mut sm = BrokerSm::new();
        let r1 = sm.apply(1, &BrokerRequest::bare(produce("t", 0, &["a", "b"])));
        assert_eq!(
            r1,
            BrokerResponse::Produced {
                base_offset: 0,
                count: 2
            }
        );
        // An empty batch, which the wire may carry, is answered at the next
        // offset and stores nothing; the fetch below reads across it.
        let before = sm.topic("t").unwrap().partition(0).unwrap().clone();
        assert_eq!(
            sm.apply(2, &BrokerRequest::bare(produce("t", 0, &[]))),
            BrokerResponse::Produced {
                base_offset: 2,
                count: 0
            }
        );
        assert_eq!(sm.topic("t").unwrap().partition(0), Some(&before));
        let r2 = sm.apply(3, &BrokerRequest::bare(produce("t", 0, &["c"])));
        assert_eq!(
            r2,
            BrokerResponse::Produced {
                base_offset: 2,
                count: 1
            }
        );
        let fetch = BrokerCommand::Fetch {
            topic: "t".into(),
            partition: 0,
            offset: 1,
            max_records: 10,
        };
        let Some(BrokerResponse::Records(fx)) = sm.read(&fetch) else {
            panic!("fetch answers");
        };
        assert_eq!(fx.high_watermark, 3);
        let got: Vec<_> = fx
            .records()
            .map(|(off, r)| (off, r.value.clone()))
            .collect();
        assert_eq!(
            got,
            [(1, Bytes::from_static(b"b")), (2, Bytes::from_static(b"c"))]
        );
    }

    #[test]
    fn fetch_on_unknown_topic_or_partition_is_empty_not_a_panic() {
        let sm = BrokerSm::new();
        let fetch = BrokerCommand::Fetch {
            topic: "nope".into(),
            partition: 7,
            offset: 0,
            max_records: 10,
        };
        let Some(BrokerResponse::Records(fx)) = sm.read(&fetch) else {
            panic!("fetch answers");
        };
        assert!(fx.is_empty());
        assert_eq!(fx.high_watermark, 0);
    }

    #[test]
    fn retried_produce_applies_once_and_replays_the_ack() {
        let mut sm = BrokerSm::new();
        let req = BrokerRequest::from_client(9, 1, produce("t", 0, &["a", "b"]));
        let first = sm.apply(1, &req);
        // Same origin, retried (e.g. ack lost to a failover): both entries
        // committed, but the records appended once.
        let second = sm.apply(2, &req);
        assert_eq!(first, second, "retry replays the original ack");
        let fx = sm.topic("t").unwrap().partition(0).unwrap().fetch(0, 10);
        assert_eq!(fx.high_watermark, 2, "no duplicate append");
    }

    #[test]
    fn commit_offset_is_durable_and_readable() {
        let mut sm = BrokerSm::new();
        let commit = BrokerCommand::CommitOffset {
            group: "g".into(),
            topic: "t".into(),
            partition: 3,
            offset: 17,
        };
        assert_eq!(
            sm.apply(1, &BrokerRequest::from_client(1, 1, commit)),
            BrokerResponse::OffsetCommitted { offset: 17 }
        );
        assert_eq!(sm.committed_offset("g", "t", 3), Some(17));
        assert_eq!(sm.committed_offset("other", "t", 3), None);
    }

    #[test]
    fn reads_bypass_the_reply_cache_both_ways() {
        let mut sm = BrokerSm::new();
        sm.apply(1, &BrokerRequest::bare(produce("t", 0, &["a"])));
        let fetch = BrokerCommand::Fetch {
            topic: "t".into(),
            partition: 0,
            offset: 0,
            max_records: 10,
        };
        let req = BrokerRequest::from_client(5, 1, fetch);
        let _ = sm.apply(2, &req);
        assert!(
            sm.sessions()
                .get(ReqOrigin {
                    client: 5,
                    req_id: 1
                })
                .is_none(),
            "fetch responses must not bloat replicated state"
        );
    }

    #[test]
    fn reply_window_slides_per_origin() {
        let mut sm = BrokerSm::from_parts(BrokerState::default(), 8);
        for req_id in 0..20 {
            let req = BrokerRequest::from_client(1, req_id, produce("t", 0, &["x"]));
            sm.apply(req_id + 1, &req);
        }
        assert!(sm
            .sessions()
            .get(ReqOrigin {
                client: 1,
                req_id: 0
            })
            .is_none());
        assert!(sm
            .sessions()
            .get(ReqOrigin {
                client: 1,
                req_id: 19
            })
            .is_some());
        assert_eq!(sm.sessions().live_len(1), 8);
    }

    #[test]
    fn snapshot_restore_round_trips_everything() {
        let mut sm = BrokerSm::from_parts(BrokerState::default(), 64);
        for i in 0..10 {
            let req = BrokerRequest::from_client(2, i, produce("t", 1, &["v", "w"]));
            sm.apply(i + 1, &req);
        }
        sm.apply(
            11,
            &BrokerRequest::from_client(
                3,
                0,
                BrokerCommand::CommitOffset {
                    group: "g".into(),
                    topic: "t".into(),
                    partition: 1,
                    offset: 5,
                },
            ),
        );
        let snap = sm.snapshot();
        let mut restored = BrokerSm::new();
        restored.restore(&snap);
        assert_eq!(restored, sm);
        // A duplicate of an applied produce still dedupes after restore.
        let dup = BrokerRequest::from_client(2, 9, produce("t", 1, &["v", "w"]));
        let before = restored.topic("t").unwrap().partition(1).unwrap().len();
        restored.apply(12, &dup);
        let after = restored.topic("t").unwrap().partition(1).unwrap().len();
        assert_eq!(before, after, "dedupe state travels in the snapshot");
    }

    #[test]
    fn command_bytes_scale_with_record_payload() {
        let small = BrokerRequest::bare(produce("t", 0, &["x"]));
        let big = BrokerRequest::bare(produce("t", 0, &["xxxxxxxxxxxxxxxxxxxxxxxx"]));
        assert!(BrokerSm::command_bytes(&big) > BrokerSm::command_bytes(&small));
        assert!(BrokerSm::command_bytes(&small) > 0);
    }

    #[test]
    fn approx_bytes_counts_records_offsets_and_replies() {
        let mut sm = BrokerSm::new();
        let empty = sm.approx_bytes();
        sm.apply(
            1,
            &BrokerRequest::from_client(1, 1, produce("t", 0, &["abcdef"])),
        );
        assert!(sm.approx_bytes() > empty);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One generated mutating command: a produce (with an origin, so
        /// the reply cache fills) or an offset commit.
        fn command() -> impl Strategy<Value = (u64, u64, BrokerCommand)> {
            let produce = (
                1u64..4,
                1u64..200,
                0u32..3,
                proptest::collection::vec(1usize..24, 1..4),
            )
                .prop_map(|(client, req_id, partition, sizes)| {
                    let records = sizes
                        .iter()
                        .map(|&n| rec(&"x".repeat(n)))
                        .collect::<Vec<_>>();
                    (
                        client,
                        req_id,
                        BrokerCommand::Produce {
                            topic: "t".into(),
                            partition,
                            records: records.into(),
                        },
                    )
                });
            let commit = (1u64..4, 1u64..200, 0u32..3, 0u64..100).prop_map(
                |(client, req_id, partition, offset)| {
                    (
                        client,
                        req_id,
                        BrokerCommand::CommitOffset {
                            group: "g".into(),
                            topic: "t".into(),
                            partition,
                            offset,
                        },
                    )
                },
            );
            prop_oneof![3 => produce, 1 => commit]
        }

        proptest! {
            /// Snapshot → restore is lossless: the restored machine is
            /// equal, serves identical fetches, keeps the producer reply
            /// cache (a retried origin replays its ack, no re-append), and
            /// appends after restore continue at the same dense offsets as
            /// the original.
            #[test]
            fn prop_snapshot_round_trip(
                cmds in proptest::collection::vec(command(), 1..40),
            ) {
                let mut sm = BrokerSm::new();
                for (i, (client, req_id, cmd)) in cmds.iter().enumerate() {
                    sm.apply(
                        i as u64 + 1,
                        &BrokerRequest::from_client(*client, *req_id, cmd.clone()),
                    );
                }

                let snap = sm.snapshot();
                let mut restored = BrokerSm::new();
                restored.restore(&snap);
                prop_assert_eq!(&restored, &sm);

                // Fetches read identically through the rebuilt machine.
                for partition in 0..3 {
                    let fetch = BrokerCommand::Fetch {
                        topic: "t".into(),
                        partition,
                        offset: 0,
                        max_records: 1000,
                    };
                    prop_assert_eq!(restored.read(&fetch), sm.read(&fetch));
                }

                // A retried produce replays its cached ack on both sides
                // without growing the partition.
                if let Some((client, req_id, cmd)) = cmds
                    .iter()
                    .rev()
                    .find(|(_, _, c)| matches!(c, BrokerCommand::Produce { .. }))
                    .cloned()
                {
                    let req = BrokerRequest::from_client(client, req_id, cmd);
                    let before = restored.approx_bytes();
                    let a = sm.apply(1000, &req);
                    let b = restored.apply(1000, &req);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(restored.approx_bytes(), before,
                        "retry must not re-append");
                }

                // Fresh appends after restore continue the same offsets.
                let next = BrokerRequest::from_client(9, 1, produce("t", 0, &["tail"]));
                prop_assert_eq!(sm.apply(1001, &next), restored.apply(1001, &next));
                prop_assert_eq!(&restored, &sm);
            }

            /// `approx_bytes` reads the reply cache's running total; it
            /// must equal the per-reply sum it replaced, to the byte, while
            /// the window slides over out-of-order and repeated ids, and
            /// after a restore — the cost model turns it into simulated CPU.
            #[test]
            fn prop_approx_bytes_equal_the_recomputed_sum(
                cmds in proptest::collection::vec(command(), 1..60),
                window in 1u64..64,
            ) {
                fn recomputed(sm: &BrokerSm) -> usize {
                    // Read the records back: `Topic::bytes` is itself a
                    // running total.
                    let records: usize = sm
                        .topics
                        .values()
                        .flat_map(Topic::partitions)
                        .map(|(_, log)| {
                            log.fetch(0, usize::MAX).records().map(|(_, r)| r.bytes()).sum::<usize>()
                        })
                        .sum();
                    records
                        + sm.group_offsets.len() * PER_OFFSET_BYTES
                        + sm.sessions().replies().count() * CACHED_REPLY_BYTES
                }
                let mut sm = BrokerSm::from_parts(BrokerState::default(), window);
                for (i, (client, req_id, cmd)) in cmds.iter().enumerate() {
                    sm.apply(
                        i as u64 + 1,
                        &BrokerRequest::from_client(*client, *req_id, cmd.clone()),
                    );
                    prop_assert_eq!(sm.approx_bytes(), recomputed(&sm));
                }
                let mut restored = BrokerSm::new();
                restored.restore(&sm.snapshot());
                prop_assert_eq!(restored.approx_bytes(), recomputed(&restored));
                prop_assert_eq!(restored.approx_bytes(), sm.approx_bytes());
            }
        }
    }
}
