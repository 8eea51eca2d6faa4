//! Keyspace sharding: hash partitioning and replica placement.
//!
//! A single Raft group serializes every write through one leader, so the
//! aggregate throughput of the store is capped by one machine no matter how
//! many hosts exist. The standard escape hatch — used by every production
//! multi-Raft store (TiKV, CockroachDB, etcd's successor designs) — is to
//! partition the keyspace into independent consensus groups ("shards") that
//! commit in parallel.
//!
//! This module is the pure-data half of that design:
//!
//! * [`ShardRouter`] maps a key to its owning shard by hashing the key
//!   bytes (FNV-1a, the workspace's deterministic hash of choice) modulo
//!   the shard count. Routing is stateless and identical on every client.
//! * [`ShardMap`] describes replica placement: which simulated host serves
//!   replica `r` of shard `s`. The layout is row-major
//!   (`shard * replicas + replica`), which keeps group membership
//!   contiguous and translation between group-local Raft ids and global
//!   host ids a single addition.
//!
//! The simulation layer (`dynatune_cluster`) builds one Raft group per
//! shard from a `ShardMap`; clients route commands with a `ShardRouter`
//! and batch per shard.

use crate::store::KvCommand;

/// Identifier of one shard (consensus group).
pub type ShardId = usize;

/// Stateless hash router from keys to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` hash partitions.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self { shards }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key` (FNV-1a over the key bytes, mod shards).
    #[must_use]
    pub fn shard_of(&self, key: &[u8]) -> ShardId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h % self.shards as u64) as usize
    }

    /// The shard a command routes to: the one owning its key.
    #[must_use]
    pub fn shard_of_command(&self, cmd: &KvCommand) -> ShardId {
        let (KvCommand::Put { key, .. }
        | KvCommand::Get { key }
        | KvCommand::Delete { key }
        | KvCommand::Cas { key, .. }) = cmd;
        self.shard_of(key)
    }
}

/// Replica placement: shard × replica → global host id.
///
/// Hosts `[0, shards * replicas)` are servers laid out row-major by shard;
/// anything at or past [`ShardMap::n_servers`] (clients, observers) is not
/// covered by the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    replicas: usize,
}

impl ShardMap {
    /// A placement of `shards` groups with `replicas` nodes each.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    #[must_use]
    pub fn new(shards: usize, replicas: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(replicas > 0, "need at least one replica per shard");
        Self { shards, replicas }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Replicas per shard (the Raft group size).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Total server hosts placed by this map.
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.shards * self.replicas
    }

    /// Global host id of replica `replica` of shard `shard`.
    ///
    /// # Panics
    /// Panics when either index is out of range.
    #[must_use]
    pub fn server(&self, shard: ShardId, replica: usize) -> usize {
        assert!(shard < self.shards, "shard {shard} out of range");
        assert!(replica < self.replicas, "replica {replica} out of range");
        shard * self.replicas + replica
    }

    /// Global host ids of all replicas of `shard`.
    #[must_use]
    pub fn servers_of(&self, shard: ShardId) -> std::ops::Range<usize> {
        assert!(shard < self.shards, "shard {shard} out of range");
        let base = shard * self.replicas;
        base..base + self.replicas
    }

    /// First host id of `shard`'s group — the offset between group-local
    /// Raft node ids and global host ids.
    #[must_use]
    pub fn group_base(&self, shard: ShardId) -> usize {
        assert!(shard < self.shards, "shard {shard} out of range");
        shard * self.replicas
    }

    /// The shard a server host belongs to (`None` for non-server hosts).
    #[must_use]
    pub fn shard_of_server(&self, host: usize) -> Option<ShardId> {
        (host < self.n_servers()).then_some(host / self.replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn routing_is_stable_and_in_range() {
        let router = ShardRouter::new(8);
        for i in 0..1000 {
            let key = format!("key-{i:08}");
            let s = router.shard_of(key.as_bytes());
            assert!(s < 8);
            assert_eq!(s, router.shard_of(key.as_bytes()), "stable routing");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = ShardRouter::new(1);
        assert_eq!(router.shard_of(b"anything"), 0);
        assert_eq!(router.shard_of(b""), 0);
    }

    #[test]
    fn routing_spreads_uniform_keys() {
        let router = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..10_000 {
            counts[router.shard_of(format!("key-{i:08}").as_bytes())] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (1500..4000).contains(&c),
                "shard {s} got {c} of 10000 keys — hash is badly skewed"
            );
        }
    }

    #[test]
    fn commands_route_by_their_key() {
        let router = ShardRouter::new(5);
        let key = Bytes::from_static(b"user-42");
        let expect = router.shard_of(&key);
        let cmds = [
            KvCommand::Put {
                key: key.clone(),
                value: Bytes::from_static(b"v"),
            },
            KvCommand::Get { key: key.clone() },
            KvCommand::Delete { key: key.clone() },
            KvCommand::Cas {
                key: key.clone(),
                expect: None,
                value: Bytes::from_static(b"v"),
            },
        ];
        for cmd in &cmds {
            assert_eq!(router.shard_of_command(cmd), expect, "{cmd:?}");
        }
    }

    #[test]
    fn placement_round_trips() {
        let map = ShardMap::new(4, 3);
        assert_eq!(map.n_servers(), 12);
        for shard in 0..4 {
            assert_eq!(map.group_base(shard), shard * 3);
            for replica in 0..3 {
                let host = map.server(shard, replica);
                assert!(map.servers_of(shard).contains(&host));
                assert_eq!(map.shard_of_server(host), Some(shard));
            }
        }
        // Hosts past the server range (e.g. the client) are unmapped.
        assert_eq!(map.shard_of_server(12), None);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_replica_rejected() {
        let _ = ShardMap::new(2, 3).server(0, 3);
    }
}
