//! Messages exchanged inside a simulated cluster (servers + clients).
//!
//! Generic over the [`App`] being served: the KV cluster speaks
//! `ClusterMsg` (the `KvStore` default), the broker cluster speaks
//! `ClusterMsg<BrokerState>`. The wire vocabulary — Raft traffic, client
//! requests/batches, responses, redirects, forwarded-read waves — is
//! identical either way; only the command/response payloads differ.

use dynatune_kv::{App, KvStore, Replicated, Request};
use dynatune_raft::{NodeId, Payload};

/// The Raft payload type of the cluster: commands carry their client
/// origin (for retry deduplication) and snapshots ship the whole
/// replicated state machine.
pub type RaftPayload<A = KvStore> = Payload<Request<<A as App>::Command>, Replicated<A>>;

/// Everything that can travel over the simulated network.
#[derive(Clone, Debug)]
pub enum ClusterMsg<A: App = KvStore> {
    /// Raft protocol traffic between servers.
    Raft(RaftPayload<A>),
    /// Client → server request.
    ClientReq {
        /// Client-chosen request id (unique per client).
        req_id: u64,
        /// The command to execute.
        cmd: A::Command,
    },
    /// Client → server batch: several requests for the *same* Raft group,
    /// sent as one message. Batching clients coalesce the arrivals of a
    /// wake per group; the server admits each item as if it arrived alone
    /// (same per-request CPU cost) and answers per request.
    ClientBatch {
        /// `(req_id, command)` items, in client send order.
        reqs: Vec<(u64, A::Command)>,
    },
    /// Server → client completion.
    ClientResp {
        /// Echoed request id.
        req_id: u64,
        /// The result, if the command committed and applied; `None` when the
        /// proposal was lost to a leadership change.
        result: Option<A::Response>,
    },
    /// Server → client redirect: the contacted server is not the leader.
    /// The client still holds the command and retries it elsewhere.
    ClientRedirect {
        /// Echoed request id.
        req_id: u64,
        /// The server's current leader hint, if it has one.
        hint: Option<NodeId>,
    },
    /// Follower → leader: forwarded ReadIndex request for one wave, which
    /// covers every read the follower admitted before it left. The
    /// follower keeps the client commands; the leader only confirms
    /// leadership and names the index the wave's reads are linearizable at.
    ReadIndexReq {
        /// The follower's id for the wave.
        read_id: u64,
    },
    /// Leader → follower: answer to a [`ClusterMsg::ReadIndexReq`].
    ReadIndexResp {
        /// Echoed wave id; an answer to a wave the follower has since
        /// re-sent or dropped answers nothing.
        read_id: u64,
        /// The granted read index, or `None` when the contacted server
        /// cannot confirm leadership (the follower redirects its client).
        read_index: Option<u64>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broker_messages_share_the_wire_vocabulary() {
        let m: ClusterMsg<dynatune_broker::BrokerState> = ClusterMsg::ClientReq {
            req_id: 1,
            cmd: dynatune_broker::BrokerCommand::Fetch {
                topic: "t".into(),
                partition: 0,
                offset: 0,
                max_records: 8,
            },
        };
        assert!(matches!(m, ClusterMsg::ClientReq { .. }));
        assert!(matches!(m.clone(), ClusterMsg::ClientReq { .. }));
        assert!(format!("{m:?}").contains("ClientReq"));
    }
}
