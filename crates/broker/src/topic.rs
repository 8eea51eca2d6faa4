//! One topic: a set of partitions, plus the topic/partition → shard route.

use crate::partition::PartitionLog;
use std::collections::BTreeMap;

/// The partitions of one topic. Partition logs are created on first use
/// (deterministic across replicas: creation happens inside the replicated
/// apply path, in identical order everywhere).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topic {
    partitions: BTreeMap<u32, PartitionLog>,
}

impl Topic {
    /// Empty topic.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The partition log, if it has ever been produced to.
    #[must_use]
    pub fn partition(&self, partition: u32) -> Option<&PartitionLog> {
        self.partitions.get(&partition)
    }

    /// The partition log, created empty on first use.
    pub fn partition_mut(&mut self, partition: u32) -> &mut PartitionLog {
        self.partitions.entry(partition).or_default()
    }

    /// Iterate partitions in id order.
    pub fn partitions(&self) -> impl Iterator<Item = (u32, &PartitionLog)> {
        self.partitions.iter().map(|(&p, log)| (p, log))
    }

    /// Number of materialized partitions.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total stored bytes across partitions.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.partitions.values().map(PartitionLog::bytes).sum()
    }
}

/// Route a topic/partition to one of `shards` Raft groups — the broker's
/// analogue of the KV `ShardRouter`, and the same FNV-1a construction, so
/// a multi-topic broker spreads partitions across every group a
/// `ShardMap` provides. Every producer, consumer and scenario must agree
/// on this function; it is pure so they trivially do.
#[must_use]
pub fn shard_of_partition(topic: &str, partition: u32, shards: usize) -> usize {
    assert!(shards > 0, "zero shards");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in topic.as_bytes().iter().chain(&partition.to_le_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_materialize_on_first_use() {
        let mut t = Topic::new();
        assert!(t.partition(0).is_none());
        assert_eq!(t.partition_count(), 0);
        t.partition_mut(3)
            .append_batch(&[crate::Record::new(&b""[..], &b"v"[..])].into());
        assert_eq!(t.partition_count(), 1);
        assert_eq!(t.partition(3).unwrap().len(), 1);
        assert_eq!(t.partitions().count(), 1);
        assert!(t.bytes() > 0);
    }

    #[test]
    fn shard_route_is_stable_and_spreads() {
        assert_eq!(
            shard_of_partition("orders", 0, 8),
            shard_of_partition("orders", 0, 8)
        );
        // 32 partitions over 8 shards: every shard gets at least one.
        let mut hit = [false; 8];
        for p in 0..32 {
            hit[shard_of_partition("orders", p, 8)] = true;
        }
        assert!(hit.iter().all(|&h| h), "partitions spread over shards");
        // Different topics route differently somewhere.
        assert!((0..32).any(|p| shard_of_partition("a", p, 8) != shard_of_partition("b", p, 8)));
    }

    #[test]
    #[should_panic(expected = "zero shards")]
    fn zero_shards_panics() {
        let _ = shard_of_partition("t", 0, 0);
    }
}
